//! Flat-binary model-state files — the `wrfout` stand-in, and the
//! WRF-style restart files built on the same format.
//!
//! WRF writes netCDF history files that `diffwrf` compares; this module
//! serializes an [`SbmPatchState`] to a self-describing little-endian
//! binary format (magic, version, patch spans, then each field's f32
//! payload) so runs can be saved and compared offline with the `diffwrf`
//! binary. No external dependencies — the format is small and explicit.
//!
//! Restart files ([`write_restart`]/[`read_restart`]) wrap the same
//! state payload with the global step count, the model clock, and an
//! FNV-1a checksum over the payload, because a restart file that loads
//! garbage silently is worse than one that fails loudly: the supervisor
//! falls back to an older checkpoint on any [`io::ErrorKind::InvalidData`].
//!
//! Every length read from disk is validated against the size implied by
//! the patch header *before* any allocation, so a truncated or
//! bit-flipped file cannot demand a multi-GB `vec![0.0; n]`.

use fsbm_core::digest::{fnv1a, FNV1A_OFFSET};
use fsbm_core::state::SbmPatchState;
use fsbm_core::types::{NKR, NTYPES};
use std::io::{self, Read, Write};
use wrf_grid::{PatchSpec, Span};

const MAGIC: &[u8; 8] = b"MINIWRF1";
const RESTART_MAGIC: &[u8; 8] = b"MINIWRFR";
const RESTART_VERSION: u32 = 1;

/// Sanity bounds on a patch header read from disk. Real decompositions
/// are far below these; a corrupt span is near-certain to blow past
/// them, turning a wild allocation into [`io::ErrorKind::InvalidData`].
const MAX_SPAN_CELLS: i64 = 1 << 20;
const MAX_FIELD_CELLS: i64 = 1 << 31;
const MAX_HALO: i32 = 16;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_i32<W: Write>(w: &mut W, v: i32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_i32<R: Read>(r: &mut R) -> io::Result<i32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(i32::from_le_bytes(b))
}

/// The on-disk length prefix is u32; a field that cannot be described
/// by it must be rejected at write time, not silently truncated.
fn field_len_u32(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        bad_data(format!(
            "field of {len} values exceeds the u32 length prefix"
        ))
    })
}

fn write_f32s<W: Write>(w: &mut W, data: &[f32]) -> io::Result<()> {
    let n = field_len_u32(data.len())?;
    write_u32(w, n)?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a length-prefixed f32 array whose length is already known from
/// the patch header. The on-disk prefix is *validated*, never trusted:
/// a corrupt prefix returns [`io::ErrorKind::InvalidData`] before any
/// allocation happens.
fn read_f32s<R: Read>(r: &mut R, expect: usize) -> io::Result<Vec<f32>> {
    let n = read_u32(r)? as usize;
    if n != expect {
        return Err(bad_data(format!(
            "field length prefix {n} does not match the patch-derived size {expect}"
        )));
    }
    let mut out = vec![0.0f32; n];
    let mut buf = [0u8; 4];
    for v in &mut out {
        r.read_exact(&mut buf)?;
        *v = f32::from_le_bytes(buf);
    }
    Ok(out)
}

fn write_span<W: Write>(w: &mut W, s: Span) -> io::Result<()> {
    write_i32(w, s.lo)?;
    write_i32(w, s.hi)
}

fn read_span<R: Read>(r: &mut R) -> io::Result<Span> {
    let lo = read_i32(r)?;
    let hi = read_i32(r)?;
    // `Span::new` panics on hi < lo - 1; a corrupt file must error.
    if hi < lo - 1 || i64::from(hi) - i64::from(lo) + 1 > MAX_SPAN_CELLS {
        return Err(bad_data(format!("implausible span {lo}..={hi}")));
    }
    Ok(Span::new(lo, hi))
}

/// Rejects patch headers whose spans are inconsistent or imply absurd
/// allocations, *before* any field memory is reserved.
fn validate_patch(p: &PatchSpec) -> io::Result<()> {
    if p.halo < 0 || p.halo > MAX_HALO {
        return Err(bad_data(format!("implausible halo width {}", p.halo)));
    }
    let mem_cells = p.im.len() as i64 * p.km.len() as i64 * p.jm.len() as i64;
    if mem_cells == 0 || mem_cells > MAX_FIELD_CELLS / NKR as i64 {
        return Err(bad_data(format!(
            "implausible patch memory size ({mem_cells} cells)"
        )));
    }
    for (name, compute, memory) in [("i", p.ip, p.im), ("k", p.kp, p.km), ("j", p.jp, p.jm)] {
        if compute.lo < memory.lo || compute.hi > memory.hi {
            return Err(bad_data(format!(
                "compute span {name} {}..={} escapes memory span {}..={}",
                compute.lo, compute.hi, memory.lo, memory.hi
            )));
        }
    }
    Ok(())
}

/// Writes `state` to `w`.
pub fn write_state<W: Write>(w: &mut W, state: &SbmPatchState) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let p = state.patch;
    write_u32(w, p.rank as u32)?;
    write_u32(w, p.coords.0 as u32)?;
    write_u32(w, p.coords.1 as u32)?;
    for s in [p.ip, p.kp, p.jp, p.im, p.km, p.jm] {
        write_span(w, s)?;
    }
    write_i32(w, p.halo)?;
    for f in [&state.tt, &state.t_old, &state.qv, &state.p, &state.rho] {
        write_f32s(w, f.as_slice())?;
    }
    write_u32(w, NTYPES as u32)?;
    write_u32(w, NKR as u32)?;
    for f in &state.ff {
        write_f32s(w, f.as_slice())?;
    }
    w.write_all(&state.precip_acc.to_le_bytes())?;
    write_f32s(w, &state.rainnc)
}

/// Reads a state written by [`write_state`].
pub fn read_state<R: Read>(r: &mut R) -> io::Result<SbmPatchState> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a miniwrf state file",
        ));
    }
    let rank = read_u32(r)? as usize;
    let cx = read_u32(r)? as usize;
    let cy = read_u32(r)? as usize;
    let ip = read_span(r)?;
    let kp = read_span(r)?;
    let jp = read_span(r)?;
    let im = read_span(r)?;
    let km = read_span(r)?;
    let jm = read_span(r)?;
    let halo = read_i32(r)?;
    let patch = PatchSpec {
        rank,
        coords: (cx, cy),
        ip,
        kp,
        jp,
        im,
        km,
        jm,
        halo,
    };
    validate_patch(&patch)?;
    let mut state = SbmPatchState::new(patch);
    for f in [
        &mut state.tt,
        &mut state.t_old,
        &mut state.qv,
        &mut state.p,
        &mut state.rho,
    ] {
        let expect = f.len();
        let data = read_f32s(r, expect)?;
        f.as_mut_slice().copy_from_slice(&data);
    }
    let ntypes = read_u32(r)? as usize;
    let nkr = read_u32(r)? as usize;
    if ntypes != NTYPES || nkr != NKR {
        return Err(bad_data("bin layout mismatch"));
    }
    for f in &mut state.ff {
        let expect = f.len();
        let data = read_f32s(r, expect)?;
        f.as_mut_slice().copy_from_slice(&data);
    }
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    state.precip_acc = f64::from_le_bytes(b);
    let expect = state.rainnc.len();
    state.rainnc = read_f32s(r, expect)?;
    Ok(state)
}

/// Saves a state to `path`.
pub fn save_state(path: &std::path::Path, state: &SbmPatchState) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_state(&mut f, state)
}

/// Loads a state from `path`.
pub fn load_state(path: &std::path::Path) -> io::Result<SbmPatchState> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_state(&mut f)
}

/// Writes a WRF-style restart record: the global step count, the model
/// clock (exact f32 bits — the clock is accumulated, not derived, so it
/// must survive bitwise), and the full patch state, framed by a magic,
/// a version, and a trailing FNV-1a checksum over the payload.
pub fn write_restart<W: Write>(
    w: &mut W,
    step: u64,
    time: f32,
    state: &SbmPatchState,
) -> io::Result<()> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&step.to_le_bytes());
    payload.extend_from_slice(&time.to_bits().to_le_bytes());
    write_state(&mut payload, state)?;
    w.write_all(RESTART_MAGIC)?;
    write_u32(w, RESTART_VERSION)?;
    w.write_all(&payload)?;
    w.write_all(&fnv1a(FNV1A_OFFSET, &payload).to_le_bytes())
}

/// Reads a record written by [`write_restart`], verifying magic,
/// version, and checksum. Any corruption — a flipped bit anywhere in
/// the payload, a truncation, trailing garbage — is
/// [`io::ErrorKind::InvalidData`], so the supervisor can fall back to
/// an older checkpoint instead of resuming from garbage.
pub fn read_restart<R: Read>(r: &mut R) -> io::Result<(u64, f32, SbmPatchState)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != RESTART_MAGIC {
        return Err(bad_data("not a miniwrf restart file"));
    }
    let version = read_u32(r)?;
    if version != RESTART_VERSION {
        return Err(bad_data(format!("unknown restart version {version}")));
    }
    let mut rest = Vec::new();
    r.read_to_end(&mut rest)?;
    if rest.len() < 8 + 4 + 8 {
        return Err(bad_data("restart file truncated"));
    }
    let (payload, sum_bytes) = rest.split_at(rest.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(FNV1A_OFFSET, payload) != stored {
        return Err(bad_data("restart checksum mismatch"));
    }
    let step = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let time = f32::from_bits(u32::from_le_bytes(payload[8..12].try_into().unwrap()));
    let mut cursor = &payload[12..];
    let state = read_state(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(bad_data("trailing bytes after restart state"));
    }
    Ok((step, time, state))
}

/// Saves a restart record to `path`.
pub fn save_restart(
    path: &std::path::Path,
    step: u64,
    time: f32,
    state: &SbmPatchState,
) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_restart(&mut f, step, time, state)
}

/// Loads a restart record from `path`.
pub fn load_restart(path: &std::path::Path) -> io::Result<(u64, f32, SbmPatchState)> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_restart(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conus::{ConusCase, ConusParams};
    use wrf_grid::two_d_decomposition;

    fn state() -> SbmPatchState {
        let params = ConusParams::at_scale(0.05);
        let case = ConusCase::new(params);
        let dd = two_d_decomposition(params.domain(), 1, 2);
        let mut st = case.init_state(&dd.patches[0]);
        st.precip_acc = 12.5;
        st
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let st = state();
        let mut buf = Vec::new();
        write_state(&mut buf, &st).unwrap();
        let back = read_state(&mut buf.as_slice()).unwrap();
        assert_eq!(back.patch, st.patch);
        assert_eq!(back.tt.as_slice(), st.tt.as_slice());
        assert_eq!(back.qv.as_slice(), st.qv.as_slice());
        for c in 0..NTYPES {
            assert_eq!(back.ff[c].as_slice(), st.ff[c].as_slice());
        }
        assert_eq!(back.precip_acc, 12.5);
        // And diffwrf agrees they are identical.
        assert!(crate::diffwrf::diffwrf(&st, &back).identical());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_state(&mut buf, &state()).unwrap();
        buf[0] = b'X';
        let err = read_state(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = Vec::new();
        write_state(&mut buf, &state()).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_state(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn corrupt_length_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_state(&mut buf, &state()).unwrap();
        // The first field's length prefix sits right after the patch
        // header: magic(8) + rank/coords(12) + 6 spans(48) + halo(4).
        let off = 8 + 12 + 48 + 4;
        buf[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_state(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length prefix"));
    }

    #[test]
    fn corrupt_span_rejected() {
        let mut buf = Vec::new();
        write_state(&mut buf, &state()).unwrap();
        // First span's hi word (magic + rank/coords + lo).
        let off = 8 + 12 + 4;
        buf[off..off + 4].copy_from_slice(&i32::MIN.to_le_bytes());
        let err = read_state(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversize_field_write_rejected() {
        // A >u32::MAX slice cannot be materialized in a test, so the
        // guard is exercised through the extracted length check.
        assert_eq!(field_len_u32(u32::MAX as usize).unwrap(), u32::MAX);
        let err = field_len_u32(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn restart_roundtrip_is_bit_exact() {
        let st = state();
        let mut buf = Vec::new();
        write_restart(&mut buf, 7, 1234.5f32, &st).unwrap();
        let (step, time, back) = read_restart(&mut buf.as_slice()).unwrap();
        assert_eq!(step, 7);
        assert_eq!(time.to_bits(), 1234.5f32.to_bits());
        assert!(crate::diffwrf::diffwrf(&st, &back).identical());
    }

    #[test]
    fn restart_bit_flip_anywhere_rejected() {
        let st = state();
        let mut clean = Vec::new();
        write_restart(&mut clean, 3, 60.0, &st).unwrap();
        // Flip one bit at a spread of offsets across the file: header,
        // step, time, state payload, and checksum itself.
        let probes = [0, 9, 13, 18, clean.len() / 2, clean.len() - 3];
        for &off in &probes {
            let mut buf = clean.clone();
            buf[off] ^= 0x10;
            assert!(
                read_restart(&mut buf.as_slice()).is_err(),
                "bit flip at offset {off} was not detected"
            );
        }
    }

    #[test]
    fn restart_truncation_rejected() {
        let st = state();
        let mut buf = Vec::new();
        write_restart(&mut buf, 3, 60.0, &st).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_restart(&mut buf.as_slice()).is_err());
        // Trailing garbage is also corruption.
        let mut long = Vec::new();
        write_restart(&mut long, 3, 60.0, &st).unwrap();
        long.extend_from_slice(&[0u8; 7]);
        assert!(read_restart(&mut long.as_slice()).is_err());
    }

    #[test]
    fn restart_file_roundtrip() {
        let st = state();
        let dir = std::env::temp_dir().join("wrfout_restart_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("restart_d01_0000.bin");
        save_restart(&path, 11, 220.0, &st).unwrap();
        let (step, time, back) = load_restart(&path).unwrap();
        assert_eq!((step, time), (11, 220.0));
        assert!(crate::diffwrf::diffwrf(&st, &back).identical());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_roundtrip() {
        let st = state();
        let dir = std::env::temp_dir().join("wrfout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrfout_d01.bin");
        save_state(&path, &st).unwrap();
        let back = load_state(&path).unwrap();
        assert!(crate::diffwrf::diffwrf(&st, &back).identical());
        let _ = std::fs::remove_file(&path);
    }
}
