//! The collision schedule as plain data, stated once.
//!
//! The paper gets from its §VI-B kernel to its §VI-C kernel by changing
//! how deep the collision loop collapses ([`Collapse`]) and where its
//! automatic arrays live ([`Storage`]). What follows from those two is
//! stated here too: the launch geometry ([`CollisionPlan::kernel_spec`])
//! and the DRAM rate the lanes pay ([`TrafficRates::for_storage`]).
//! `fsbm_core::scheme::SbmVersion::plan` names the paper's four versions
//! as four [`CollisionPlan`] values, `codee_sim::tune` searches over
//! [`Storage`] and prices with [`TrafficRates`], and `miniwrf::perfmodel`
//! measures those rates and prices each plan's kernel.

use crate::launch::KernelSpec;

/// NVHPC's default `parallel do` team size, for every kernel shape.
pub const BLOCK_THREADS: u32 = 128;

/// Collapse depth of the fissioned collision launch; the discriminant
/// is the depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Collapse {
    /// `collapse(2)`: one thread per `(j,k)` column, serial `i` loop
    /// (Listing 7).
    Two = 2,
    /// `collapse(3)`: one thread per grid point (Listing 8).
    Three = 3,
}

impl Collapse {
    /// Loops in the launch iteration space.
    pub fn depth(self) -> u32 {
        self as u32
    }

    /// Registers per thread NVHPC assigns the collision kernel: 168 for
    /// the fat thread carrying the serial `i` loop, 80 for the thin
    /// one-point thread.
    pub fn regs_per_thread(self) -> u32 {
        match self {
            Collapse::Two => 168,
            Collapse::Three => 80,
        }
    }
}

/// Where the collision nest's automatic arrays live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Procedure-local arrays on the per-thread device stack (§VI-B).
    Stack,
    /// A preallocated `(point, bin)` device slab: the as-written Listing 8
    /// layout, whose neighbouring lanes stride by a whole spectrum.
    SlabPointMajor,
    /// The bin-major transposition of that slab: unit stride across lanes.
    SlabBinMajor,
}

impl Storage {
    /// Every placement, in the autotuner's enumeration order.
    pub const ALL: [Storage; 3] = [
        Storage::Stack,
        Storage::SlabPointMajor,
        Storage::SlabBinMajor,
    ];

    /// True for the slab placements.
    pub fn is_slab(self) -> bool {
        self != Storage::Stack
    }

    /// The collision kernel's per-thread stack: ~40 automatic bin arrays
    /// plus scratch (~20 KiB, the §VI-B overflow of the default device
    /// stack), or the 640 B residue once they live in a slab.
    pub fn stack_bytes_per_thread(self) -> u64 {
        if self.is_slab() {
            640
        } else {
            20 * 1024
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Storage::Stack => "stack",
            Storage::SlabPointMajor => "slab[pt,bin]",
            Storage::SlabBinMajor => "slab[bin,pt]",
        }
    }
}

/// DRAM bytes per counted 4-byte memory operand, by lane behaviour
/// (measured by `miniwrf::perfmodel::traffic_rates`). CPU-class backends
/// carry equal rates: their "lanes" are sequential iterations on one
/// core, with no warp scatter to pay for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficRates {
    /// Read bytes per op when consecutive lanes touch contiguous storage.
    pub coalesced_read: f64,
    /// Write bytes per op, coalesced.
    pub coalesced_write: f64,
    /// Read bytes per op when the collapsed thread index strides across
    /// the storage's fastest-varying dimension (the Table VI penalty).
    pub scattered_read: f64,
    /// Write bytes per op, scattered.
    pub scattered_write: f64,
}

impl TrafficRates {
    /// `(read, write)` bytes per operand under `storage`. Only the
    /// point-major slab scatters: the stack is hardware-interleaved per
    /// thread (CUDA local memory), and the transposed slab is unit-stride.
    pub fn for_storage(&self, storage: Storage) -> (f64, f64) {
        if storage == Storage::SlabPointMajor {
            (self.scattered_read, self.scattered_write)
        } else {
            (self.coalesced_read, self.coalesced_write)
        }
    }
}

/// The offloaded collision launch's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Offload {
    /// Collapse depth of the launch.
    pub collapse: Collapse,
    /// Placement of the per-point bin arrays.
    pub storage: Storage,
}

/// The decisions that tell the paper's versions of the collision loop
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollisionPlan {
    /// Refill the dense `kernals_ks` tables per collision call instead of
    /// looking entries up (per-tile `THREADPRIVATE` state, so only plans
    /// whose collision stage runs on CPU tiles carry them).
    pub dense_tables: bool,
    /// Offload the collision stage as a launch of this shape; `None` runs
    /// it on the CPU program's WRF `numtiles` tiles.
    pub offload: Option<Offload>,
}

impl CollisionPlan {
    /// Launch descriptor of the offloaded collision kernel (`None` when
    /// nothing is offloaded): the depth's registers, the placement's stack.
    pub fn kernel_spec(&self) -> Option<KernelSpec> {
        let Offload { collapse, storage } = self.offload?;
        Some(KernelSpec {
            name: format!("coal_bott_new_loop_collapse{}", collapse.depth()),
            block_threads: BLOCK_THREADS,
            regs_per_thread: collapse.regs_per_thread(),
            smem_per_block: 0,
            stack_bytes_per_thread: storage.stack_bytes_per_thread(),
            collapse: collapse.depth(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Only the point-major slab pays the scattered rate.
    #[test]
    fn storage_picks_the_lane_rate() {
        let r = TrafficRates {
            coalesced_read: 2.0,
            coalesced_write: 1.0,
            scattered_read: 12.0,
            scattered_write: 6.0,
        };
        assert_eq!(r.for_storage(Storage::Stack), (2.0, 1.0));
        assert_eq!(r.for_storage(Storage::SlabPointMajor), (12.0, 6.0));
        assert_eq!(r.for_storage(Storage::SlabBinMajor), (2.0, 1.0));
    }
}
