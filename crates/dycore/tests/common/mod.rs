//! A doubly-periodic engine over one patch that really batches: one
//! buffer per side carries every lane's strip (lane-major, `pack_halo`
//! order inside a lane — the MPI engine's wire format), packed in
//! `post_panel` and unpacked in `finish_panel`, corners through round 1.
//! The buffers are reused across refreshes.

use fsbm_core::meter::PointWork;
use wrf_dycore::{FieldTag, HaloEngine};
use wrf_grid::halo::halo_message_len;
use wrf_grid::{pack_halo, unpack_halo, Field3, HaloSide, PatchSpec};

pub struct Batching {
    patch: PatchSpec,
    /// The open round's two messages.
    bufs: [Vec<f32>; 2],
    /// Messages "sent" so far: two a round, whatever the panel width.
    pub messages: u64,
    pub absorbed: PointWork,
}

impl Batching {
    pub fn new(patch: PatchSpec) -> Self {
        Batching {
            patch,
            bufs: [Vec::new(), Vec::new()],
            messages: 0,
            absorbed: PointWork::ZERO,
        }
    }
}

impl Batching {
    /// Packs round `round`'s two messages, every lane's strip in each.
    fn pack(&mut self, round: usize, fields: &[Field3<f32>]) {
        for (side, buf) in HaloSide::ROUNDS[round].into_iter().zip(&mut self.bufs) {
            buf.clear();
            for field in fields {
                pack_halo(field, &self.patch, side, buf);
            }
            self.messages += 1;
        }
    }
}

impl HaloEngine for Batching {
    fn rounds(&self) -> usize {
        2
    }
    fn post(&mut self, round: usize, field: &Field3<f32>) {
        self.pack(round, std::slice::from_ref(field));
    }
    fn finish(&mut self, round: usize, field: &mut Field3<f32>) {
        self.finish_panel(round, std::slice::from_mut(field), None);
    }
    fn absorb(&mut self, work: PointWork) {
        self.absorbed += work;
    }
    fn post_panel(&mut self, round: usize, fields: &mut [Field3<f32>], _tags: Option<&[FieldTag]>) {
        self.pack(round, fields);
    }
    fn finish_panel(
        &mut self,
        round: usize,
        fields: &mut [Field3<f32>],
        _tags: Option<&[FieldTag]>,
    ) {
        for (side, buf) in HaloSide::ROUNDS[round].into_iter().zip(&self.bufs) {
            let lane = halo_message_len(&self.patch, side);
            assert_eq!(buf.len(), fields.len() * lane, "{side:?} panel payload");
            // Our own strip arrives from the periodic neighbour on the
            // opposite side.
            for (field, strip) in fields.iter_mut().zip(buf.chunks_exact(lane)) {
                unpack_halo(field, &self.patch, side.opposite(), strip);
            }
        }
    }
}
