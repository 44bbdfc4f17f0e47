//! The committed golden-fixture format (`goldens/*.golden`).
//!
//! One fixture pins one state's end-of-run [`StateDigest`] (a library
//! case or the nested child at the gate configuration). The format is line-oriented text so
//! diffs are reviewable: a header identifying the case, one `field` line
//! per variable (with its strided raw samples as hex bit patterns on a
//! following `samples` line), one `moment` line per scalar moment, and a
//! terminating `end`. All `f64` statistics are printed with 17
//! significant digits (lossless round-trip); `f32` extrema and samples
//! are stored as raw bit patterns (lossless by construction).

use fsbm_core::digest::{FieldDigest, MomentDigest, StateDigest};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Magic first line of every fixture.
pub const MAGIC: &str = "wrf-gate golden v1";

/// A golden fixture: a digest plus the identity of the run it pins.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenFixture {
    /// Label of the pinned state (`case:<slug>`, `case:nested`).
    pub version: String,
    /// Human-readable case description (scale, nz, steps, seed).
    pub case: String,
    /// The pinned digest.
    pub digest: StateDigest,
}

impl GoldenFixture {
    /// Renders the committable fixture text.
    pub fn rendered(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC}");
        let _ = writeln!(s, "version {}", self.version);
        let _ = writeln!(s, "case {}", self.case);
        for f in &self.digest.fields {
            let _ = writeln!(
                s,
                "field name={} len={} checksum={:016x} sum={:e} l2={:e} min={:08x} max={:08x} stride={}",
                f.name,
                f.len,
                f.checksum,
                F64(f.sum),
                F64(f.l2),
                f.min.to_bits(),
                f.max.to_bits(),
                f.stride,
            );
            let hex: Vec<String> = f.samples.iter().map(|b| format!("{b:08x}")).collect();
            let _ = writeln!(s, "samples {}", hex.join(","));
        }
        for m in &self.digest.moments {
            let _ = writeln!(s, "moment name={} value={:e}", m.name, F64(m.value));
        }
        s.push_str("end\n");
        s
    }

    /// Writes the fixture to `dir/<stem>.golden`, creating `dir`.
    pub fn write_to(&self, dir: &Path, stem: &str) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let path = dir.join(format!("{stem}.golden"));
        std::fs::write(&path, self.rendered())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Reads and parses the fixture file at `path`.
    pub fn read_from(path: &Path) -> Result<GoldenFixture, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        GoldenFixture::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a fixture file.
    pub fn parse(text: &str) -> Result<GoldenFixture, String> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or("empty fixture")?;
        if first.trim() != MAGIC {
            return Err(format!("bad magic line: {first:?}"));
        }
        let mut version = None;
        let mut case = None;
        let mut fields: Vec<FieldDigest> = Vec::new();
        let mut moments = Vec::new();
        let mut saw_end = false;
        for (n, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}", n + 1);
            let (kw, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kw {
                "version" => version = Some(rest.to_string()),
                "case" => case = Some(rest.to_string()),
                "field" => {
                    let kv = parse_kv(rest).map_err(|e| err(&e))?;
                    let get = |k: &str| -> Result<&str, String> {
                        kv.iter()
                            .find(|(key, _)| *key == k)
                            .map(|(_, v)| *v)
                            .ok_or_else(|| err(&format!("field missing {k}=")))
                    };
                    fields.push(FieldDigest {
                        name: get("name")?.to_string(),
                        len: get("len")?.parse().map_err(|_| err("bad len"))?,
                        checksum: u64::from_str_radix(get("checksum")?, 16)
                            .map_err(|_| err("bad checksum"))?,
                        sum: get("sum")?.parse().map_err(|_| err("bad sum"))?,
                        l2: get("l2")?.parse().map_err(|_| err("bad l2"))?,
                        min: f32::from_bits(
                            u32::from_str_radix(get("min")?, 16).map_err(|_| err("bad min"))?,
                        ),
                        max: f32::from_bits(
                            u32::from_str_radix(get("max")?, 16).map_err(|_| err("bad max"))?,
                        ),
                        stride: get("stride")?.parse().map_err(|_| err("bad stride"))?,
                        samples: Vec::new(),
                    });
                }
                "samples" => {
                    let f = fields
                        .last_mut()
                        .ok_or_else(|| err("samples before any field"))?;
                    if rest.is_empty() {
                        continue;
                    }
                    f.samples = rest
                        .split(',')
                        .map(|h| u32::from_str_radix(h, 16))
                        .collect::<Result<Vec<u32>, _>>()
                        .map_err(|_| err("bad sample hex"))?;
                }
                "moment" => {
                    let kv = parse_kv(rest).map_err(|e| err(&e))?;
                    let get = |k: &str| -> Result<&str, String> {
                        kv.iter()
                            .find(|(key, _)| *key == k)
                            .map(|(_, v)| *v)
                            .ok_or_else(|| err(&format!("moment missing {k}=")))
                    };
                    moments.push(MomentDigest {
                        name: get("name")?.to_string(),
                        value: get("value")?.parse().map_err(|_| err("bad value"))?,
                    });
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                _ => return Err(err(&format!("unknown keyword {kw:?}"))),
            }
        }
        if !saw_end {
            return Err("fixture missing `end` terminator (truncated?)".to_string());
        }
        Ok(GoldenFixture {
            version: version.ok_or("fixture missing version")?,
            case: case.ok_or("fixture missing case")?,
            digest: StateDigest { fields, moments },
        })
    }
}

/// `{:e}` wrapper printing `f64` with enough digits to round-trip.
struct F64(f64);

impl std::fmt::LowerExp for F64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.16e}", self.0)
    }
}

/// Splits `k=v k=v …` (values contain no spaces).
fn parse_kv(rest: &str) -> Result<Vec<(&str, &str)>, String> {
    rest.split_whitespace()
        .map(|tok| {
            tok.split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsbm_core::digest::FieldDigest;
    use proptest::prelude::*;

    fn fixture() -> GoldenFixture {
        let values: Vec<f32> = (0..300).map(|i| (i as f32).sin() * 1.0e-4).collect();
        GoldenFixture {
            version: "baseline".to_string(),
            case: "scale=0.05 nz=8 steps=4".to_string(),
            digest: StateDigest {
                fields: vec![
                    FieldDigest::of("T", &values),
                    FieldDigest::of("RAINNC", &[]),
                ],
                moments: vec![MomentDigest {
                    name: "M1_FF1".to_string(),
                    value: 1.234567890123456e-7,
                }],
            },
        }
    }

    #[test]
    fn round_trips_losslessly() {
        let f = fixture();
        let text = f.rendered();
        let back = GoldenFixture::parse(&text).expect("parse");
        assert_eq!(f, back);
        // And the round-trip is a fixed point of rendering.
        assert_eq!(text, back.rendered());
    }

    #[test]
    fn rejects_corruption() {
        let f = fixture();
        let text = f.rendered();
        assert!(GoldenFixture::parse(&text.replace(MAGIC, "nope")).is_err());
        assert!(GoldenFixture::parse(text.trim_end_matches("end\n")).is_err());
        assert!(GoldenFixture::parse(&text.replace("len=300", "len=abc")).is_err());
        let mut missing_version = text.clone();
        missing_version = missing_version.replace("version baseline\n", "");
        assert!(GoldenFixture::parse(&missing_version).is_err());
    }

    #[test]
    fn special_floats_survive() {
        let f = GoldenFixture {
            version: "x".into(),
            case: "c".into(),
            digest: StateDigest {
                fields: vec![FieldDigest::of("W", &[-0.0, f32::MIN_POSITIVE, 3.5e37])],
                moments: vec![],
            },
        };
        let back = GoldenFixture::parse(&f.rendered()).unwrap();
        let w = back.digest.field("W").unwrap();
        assert_eq!(w.samples, f.digest.field("W").unwrap().samples);
        assert_eq!(w.min.to_bits(), (-0.0f32).to_bits());
    }

    proptest! {
        /// `parse(rendered(x)) == x` over arbitrary bit patterns: every
        /// statistic survives the text format, NaN and infinities
        /// included (those compare through the re-rendered text, since
        /// NaN is not equal to itself).
        #[test]
        fn arbitrary_fixtures_round_trip(
            fields in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..40), 0..4),
            moments in proptest::collection::vec(any::<u64>(), 0..3),
        ) {
            let x = GoldenFixture {
                version: "case:arbitrary".into(),
                case: "scale=0.05 nz=8".into(),
                digest: StateDigest {
                    fields: fields
                        .iter()
                        .enumerate()
                        .map(|(n, bits)| {
                            let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
                            FieldDigest::of(&format!("FF{n}"), &values)
                        })
                        .collect(),
                    moments: moments
                        .iter()
                        .enumerate()
                        .map(|(n, &b)| MomentDigest { name: format!("M0_FF{n}"), value: f64::from_bits(b) })
                        .collect(),
                },
            };
            let text = x.rendered();
            let back = GoldenFixture::parse(&text).expect("own rendering parses");
            prop_assert_eq!(back.rendered(), text);
            #[allow(clippy::eq_op)]
            if x == x {
                prop_assert_eq!(back, x);
            }
        }

        /// Arbitrary bytes after the magic line — raw, and folded onto
        /// the format's own tokens — are `Ok` or `Err`, never a panic.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
            let _ = GoldenFixture::parse(&String::from_utf8_lossy(&bytes));
            const TOKENS: &[&str] = &[
                "\n", " ", "=", ",", "field", "samples", "moment", "end", "version", "case",
                "name", "len", "checksum", "sum", "l2", "min", "max", "stride", "value", "0",
                "ff", "1e9", "-", "NaN", "é",
            ];
            let body: String = bytes.iter().map(|b| TOKENS[*b as usize % TOKENS.len()]).collect();
            let _ = GoldenFixture::parse(&format!("{MAGIC}\n{body}"));
        }
    }

    /// Every truncated prefix of a real fixture is an `Err` (the `end`
    /// terminator exists to make truncation detectable).
    #[test]
    fn truncated_fixtures_are_errors() {
        let text = fixture().rendered();
        let body = text.trim_end();
        for end in 0..body.len() {
            assert!(
                GoldenFixture::parse(&body[..end]).is_err(),
                "prefix of {end} bytes parsed"
            );
        }
        assert!(GoldenFixture::parse(body).is_ok());
    }
}
