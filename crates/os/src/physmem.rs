//! Physical-memory accounting: frame allocation at base and huge
//! granularity, the paper's fragmentation injector, and compaction.
//!
//! The model tracks occupancy per 2 MiB block rather than per-frame
//! identity: frames are fungible for TLB behaviour (translations are
//! virtually tagged), so what matters is *huge-page availability* — which
//! blocks can still be turned into 2 MiB pages, directly or after
//! compaction. Fragmentation follows the paper's §5.1.1 recipe: one
//! non-movable base page pinned in every 2 MiB block of X% of memory,
//! making those blocks permanently huge-incapable.

use hpage_types::{HpageError, PageSize, Pfn};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Frames per 2 MiB block.
const FRAMES_PER_BLOCK: u16 = 512;

/// Result of a successful huge-frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeAlloc {
    /// The 2 MiB frame.
    pub pfn: Pfn,
    /// Base pages the allocator had to migrate (compaction work) to free
    /// the block. Zero when a clean block was available.
    pub pages_migrated: u64,
}

/// Lifetime allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhysMemStats {
    /// Base-frame allocations served.
    pub base_allocs: u64,
    /// Huge-frame allocations served.
    pub huge_allocs: u64,
    /// Huge-frame allocations that failed (no block even with compaction).
    pub huge_failures: u64,
    /// Compaction runs performed for huge allocations.
    pub compactions: u64,
    /// Total base pages migrated by compaction.
    pub pages_migrated: u64,
    /// Huge allocations denied by an injected fault gate (counted
    /// separately from organic `huge_failures`).
    pub gated_failures: u64,
}

/// Injected-fault gate over the allocator (see `hpage-faults`). All
/// fields default to off; base-page allocation is never gated — an OOM
/// window starves *promotions*, not the demand-fault path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocGate {
    /// Deny every huge allocation outright.
    pub deny_huge: bool,
    /// Treat compaction as unavailable (clean blocks still allocate).
    pub deny_compaction: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Block {
    /// Movable base frames currently allocated in this block.
    used: u16,
    /// One frame is pinned by an unmovable allocation (fragmentation).
    unmovable: bool,
    /// The whole block is allocated as a huge frame.
    huge: bool,
}

impl Block {
    fn capacity(&self) -> u16 {
        if self.huge {
            0
        } else {
            FRAMES_PER_BLOCK - u16::from(self.unmovable)
        }
    }

    fn free(&self) -> u16 {
        self.capacity().saturating_sub(self.used)
    }

    fn huge_capable(&self) -> bool {
        !self.unmovable && !self.huge
    }
}

/// The machine's physical memory.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    blocks: Vec<Block>,
    stats: PhysMemStats,
    gate: AllocGate,
    /// Rotor so base allocations cycle rather than always hammering
    /// block 0.
    base_rotor: usize,
}

impl PhysicalMemory {
    /// Creates `bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of 2 MiB.
    pub fn new(bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(PageSize::Huge2M.bytes()),
            "physical memory must be a nonzero multiple of 2MiB"
        );
        let nblocks = (bytes / PageSize::Huge2M.bytes()) as usize;
        PhysicalMemory {
            blocks: vec![Block::default(); nblocks],
            stats: PhysMemStats::default(),
            gate: AllocGate::default(),
            base_rotor: 0,
        }
    }

    /// Fragments memory per the paper's recipe (§5.1.1): one base page is
    /// allocated in *every* 2 MiB block — non-movable in `percent`% of
    /// blocks (chosen uniformly with `seed`), movable in the rest. The
    /// pinned blocks can never back a huge page; the others can, but only
    /// after compaction migrates their resident page away. In this state
    /// no order-9 free block exists anywhere, so synchronous fault-time
    /// THP allocation (which does not compact) always fails — matching
    /// the paper's observation that greedy THP gains almost nothing on
    /// fragmented memory while promotion-by-compaction still works.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn fragment(&mut self, percent: u8, seed: u64) {
        assert!(percent <= 100, "fragmentation is a percentage");
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let n = self.blocks.len() * usize::from(percent) / 100;
        for (k, &i) in order.iter().enumerate() {
            if k < n {
                // A huge-backed block cannot retroactively host unmovable
                // kernel pages, and a block whose every frame is already
                // occupied has no room for one — both cases matter when
                // fragment() models a mid-run fragmentation shock rather
                // than setup-time state.
                if !self.blocks[i].huge && self.blocks[i].used < FRAMES_PER_BLOCK {
                    self.blocks[i].unmovable = true;
                }
            } else if self.blocks[i].used == 0 && !self.blocks[i].huge {
                // Residual movable occupancy: compactable, but blocks the
                // fault-time fast path.
                self.blocks[i].used = 1;
            }
        }
    }

    /// Number of 2 MiB blocks.
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Total base-frame capacity (excluding pinned unmovable frames).
    pub fn total_frames(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| u64::from(FRAMES_PER_BLOCK - u16::from(b.unmovable)))
            .sum()
    }

    /// Free base-frame capacity right now.
    pub fn free_frames(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.free())).sum()
    }

    /// Blocks that could still become huge pages (not fragmented, not
    /// already huge) — possibly requiring compaction.
    pub fn huge_capable_blocks(&self) -> u64 {
        self.blocks.iter().filter(|b| b.huge_capable()).count() as u64
    }

    /// Blocks that could become huge pages *right now* without any
    /// compaction: huge-capable and completely free. The flight
    /// recorder samples this at interval boundaries as the cheap-
    /// promotion headroom signal.
    pub fn free_huge_capable_blocks(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.huge_capable() && b.used == 0)
            .count() as u64
    }

    /// Blocks currently allocated as huge frames.
    pub fn huge_blocks_in_use(&self) -> u64 {
        self.blocks.iter().filter(|b| b.huge).count() as u64
    }

    /// Base-frame capacity currently consumed by allocations of any
    /// size: movable base frames plus the full span of huge blocks.
    /// `total_frames() == free_frames() + used_frames()` always holds
    /// (the invariant the auditor and property tests pin down).
    pub fn used_frames(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| {
                if b.huge {
                    u64::from(FRAMES_PER_BLOCK)
                } else {
                    u64::from(b.used)
                }
            })
            .sum()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &PhysMemStats {
        &self.stats
    }

    /// The injected-fault gate currently in force.
    pub fn alloc_gate(&self) -> AllocGate {
        self.gate
    }

    /// Installs an injected-fault gate (pass `AllocGate::default()` to
    /// lift it).
    pub fn set_alloc_gate(&mut self, gate: AllocGate) {
        self.gate = gate;
    }

    /// Checks the per-block structural invariants the allocator is
    /// supposed to preserve, returning a description of each violation
    /// (empty when healthy). Used by `hpage_os::audit`.
    pub fn check_block_invariants(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            if b.huge && b.used > 0 {
                out.push(format!(
                    "block {i}: huge but carries {} movable base frames",
                    b.used
                ));
            }
            if b.huge && b.unmovable {
                out.push(format!("block {i}: huge despite a pinned unmovable frame"));
            }
            if !b.huge && b.used > b.capacity() {
                out.push(format!(
                    "block {i}: {} frames used exceeds capacity {}",
                    b.used,
                    b.capacity()
                ));
            }
        }
        out
    }

    /// Allocates one 4 KiB frame.
    ///
    /// Placement policy: prefer partially used blocks (keeping clean
    /// blocks intact for huge pages, as the buddy allocator's
    /// split-reluctance and Linux's mobility grouping tend to), then
    /// fragmented blocks, then clean blocks.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::OutOfMemory`] when no frame is free.
    pub fn alloc_base(&mut self) -> Result<Pfn, HpageError> {
        let n = self.blocks.len();
        let score = |b: &Block| -> u8 {
            if b.free() == 0 {
                return u8::MAX; // unusable
            }
            if b.used > 0 {
                0 // partially dirty: best
            } else if b.unmovable {
                1 // fragmented but empty: next
            } else {
                2 // clean: last resort
            }
        };
        let mut best: Option<(u8, usize)> = None;
        for off in 0..n {
            let i = (self.base_rotor + off) % n;
            let s = score(&self.blocks[i]);
            if s == 0 {
                best = Some((0, i));
                break;
            }
            if s < u8::MAX && best.map(|(bs, _)| s < bs).unwrap_or(true) {
                best = Some((s, i));
            }
        }
        let Some((_, i)) = best else {
            return Err(HpageError::OutOfMemory { requested: 4096 });
        };
        let slot = u64::from(self.blocks[i].used);
        self.blocks[i].used += 1;
        if self.blocks[i].free() == 0 {
            self.base_rotor = (i + 1) % n;
        }
        self.stats.base_allocs += 1;
        Ok(Pfn::new(
            i as u64 * u64::from(FRAMES_PER_BLOCK) + slot,
            PageSize::Base4K,
        ))
    }

    /// Frees one 4 KiB frame.
    ///
    /// Frames are fungible in this accounting model: if the frame's
    /// nominal block no longer holds movable pages (it was compacted into
    /// a huge page since), the release is applied to another occupied
    /// block — global counts stay exact.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvariantViolation`] for a wrong-sized or
    /// out-of-range PFN, or when no movable base frame is allocated
    /// anywhere (a double free at the accounting level). The memory is
    /// left untouched in every error case.
    pub fn free_base(&mut self, pfn: Pfn) -> Result<(), HpageError> {
        if pfn.size() != PageSize::Base4K {
            return Err(invariant(format!(
                "free_base takes 4K frames, got {:?}",
                pfn.size()
            )));
        }
        let i = (pfn.index() / u64::from(FRAMES_PER_BLOCK)) as usize;
        if i >= self.blocks.len() {
            return Err(invariant(format!(
                "free_base: pfn {} outside physical memory",
                pfn.index()
            )));
        }
        if !self.blocks[i].huge && self.blocks[i].used > 0 {
            self.blocks[i].used -= 1;
            return Ok(());
        }
        // Stale identity after compaction: free from any occupied block.
        match self.blocks.iter_mut().find(|b| !b.huge && b.used > 0) {
            Some(b) => {
                b.used -= 1;
                Ok(())
            }
            None => Err(invariant(format!(
                "free_base of pfn {} with no movable base frames allocated anywhere (double free?)",
                pfn.index()
            ))),
        }
    }

    /// Allocates one 2 MiB frame.
    ///
    /// Tries a clean huge-capable block first; with `allow_compaction`,
    /// vacates the least-occupied huge-capable block by migrating its
    /// movable pages into free space elsewhere (cost reported in
    /// [`HugeAlloc::pages_migrated`]).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::OutOfMemory`] when no block can be freed,
    /// or [`HpageError::Fault`] when an injected [`AllocGate`] denies
    /// huge allocation.
    pub fn alloc_huge(&mut self, allow_compaction: bool) -> Result<HugeAlloc, HpageError> {
        if self.gate.deny_huge {
            self.stats.gated_failures += 1;
            return Err(HpageError::Fault {
                reason: "oom window: huge allocation denied".into(),
            });
        }
        let allow_compaction = allow_compaction && !self.gate.deny_compaction;
        // Fast path: a clean block.
        if let Some(i) = self
            .blocks
            .iter()
            .position(|b| b.huge_capable() && b.used == 0)
        {
            self.blocks[i].huge = true;
            self.stats.huge_allocs += 1;
            return Ok(HugeAlloc {
                pfn: Pfn::new(i as u64, PageSize::Huge2M),
                pages_migrated: 0,
            });
        }
        if !allow_compaction {
            self.stats.huge_failures += 1;
            return Err(HpageError::OutOfMemory {
                requested: PageSize::Huge2M.bytes(),
            });
        }
        // Compaction: pick the least-used huge-capable block whose pages
        // fit in the free space of the other blocks.
        let victim = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.huge_capable())
            .min_by_key(|(_, b)| b.used)
            .map(|(i, _)| i);
        let Some(v) = victim else {
            self.stats.huge_failures += 1;
            return Err(HpageError::OutOfMemory {
                requested: PageSize::Huge2M.bytes(),
            });
        };
        let mut to_move = self.blocks[v].used;
        let free_elsewhere: u64 = self
            .blocks
            .iter()
            .enumerate()
            .filter(|&(i, b)| i != v && !b.huge)
            .map(|(_, b)| u64::from(b.free()))
            .sum();
        if u64::from(to_move) > free_elsewhere {
            self.stats.huge_failures += 1;
            return Err(HpageError::OutOfMemory {
                requested: PageSize::Huge2M.bytes(),
            });
        }
        let migrated = u64::from(to_move);
        // Distribute the evicted pages into other blocks, dirtiest first
        // (same placement preference as alloc_base).
        let mut order: Vec<usize> = (0..self.blocks.len()).filter(|&i| i != v).collect();
        order.sort_by_key(|&i| {
            let b = &self.blocks[i];
            (b.used == 0, b.unmovable) // prefer dirty, then fragmented
        });
        for i in order {
            if to_move == 0 {
                break;
            }
            if self.blocks[i].huge {
                continue;
            }
            let take = to_move.min(self.blocks[i].free());
            self.blocks[i].used += take;
            to_move -= take;
        }
        debug_assert_eq!(to_move, 0);
        self.blocks[v].used = 0;
        self.blocks[v].huge = true;
        self.stats.huge_allocs += 1;
        self.stats.compactions += 1;
        self.stats.pages_migrated += migrated;
        Ok(HugeAlloc {
            pfn: Pfn::new(v as u64, PageSize::Huge2M),
            pages_migrated: migrated,
        })
    }

    /// Frees a 2 MiB frame.
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvariantViolation`] for a wrong-sized or
    /// out-of-range PFN, or when the block is not allocated huge (a
    /// double free or never-allocated block).
    pub fn free_huge(&mut self, pfn: Pfn) -> Result<(), HpageError> {
        let i = self.expect_huge_block(pfn, "free_huge")?;
        self.blocks[i].huge = false;
        Ok(())
    }

    /// Converts a freed huge block directly into 512 allocated base
    /// frames inside the same block (the demotion path: the data stays
    /// in place, the mapping granularity changes).
    ///
    /// # Errors
    ///
    /// Returns [`HpageError::InvariantViolation`] for a wrong-sized or
    /// out-of-range PFN, or when the block is not allocated huge.
    pub fn split_huge_in_place(&mut self, pfn: Pfn) -> Result<Vec<Pfn>, HpageError> {
        let i = self.expect_huge_block(pfn, "split_huge_in_place")?;
        self.blocks[i].huge = false;
        // The unmovable flag cannot be set (the block was huge), so all
        // 512 frames are usable.
        self.blocks[i].used = FRAMES_PER_BLOCK;
        let base = i as u64 * u64::from(FRAMES_PER_BLOCK);
        Ok((0..u64::from(FRAMES_PER_BLOCK))
            .map(|k| Pfn::new(base + k, PageSize::Base4K))
            .collect())
    }

    /// Validates that `pfn` names an in-range block currently allocated
    /// huge, returning its index.
    fn expect_huge_block(&self, pfn: Pfn, op: &str) -> Result<usize, HpageError> {
        if pfn.size() != PageSize::Huge2M {
            return Err(invariant(format!(
                "{op} takes 2M frames, got {:?}",
                pfn.size()
            )));
        }
        let i = pfn.index() as usize;
        if i >= self.blocks.len() {
            return Err(invariant(format!(
                "{op}: pfn {} outside physical memory",
                pfn.index()
            )));
        }
        if !self.blocks[i].huge {
            return Err(invariant(format!(
                "{op} of block {i} which is not huge (double free?)"
            )));
        }
        Ok(i)
    }
}

fn invariant(what: impl Into<String>) -> HpageError {
    HpageError::InvariantViolation { what: what.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB2: u64 = PageSize::Huge2M.bytes();

    #[test]
    fn capacity_math() {
        let pm = PhysicalMemory::new(8 * MB2);
        assert_eq!(pm.block_count(), 8);
        assert_eq!(pm.total_frames(), 8 * 512);
        assert_eq!(pm.free_frames(), 8 * 512);
        assert_eq!(pm.huge_capable_blocks(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 2MiB")]
    fn unaligned_size_panics() {
        let _ = PhysicalMemory::new(4096);
    }

    #[test]
    fn fragmentation_pins_blocks() {
        let mut pm = PhysicalMemory::new(10 * MB2);
        pm.fragment(50, 1);
        assert_eq!(pm.huge_capable_blocks(), 5);
        // Pinned blocks lose one frame of capacity each; the other blocks
        // carry one movable resident page each.
        assert_eq!(pm.total_frames(), 10 * 512 - 5);
        assert_eq!(pm.free_frames(), 10 * 512 - 5 - 5);
        // No clean block remains: fault-time (no-compaction) huge
        // allocation fails...
        assert!(pm.alloc_huge(false).is_err());
        // ...but promotion-path compaction still succeeds.
        assert!(pm.alloc_huge(true).is_ok());
        pm.fragment(100, 1);
        assert_eq!(pm.huge_capable_blocks(), 0);
    }

    #[test]
    fn base_alloc_prefers_dirty_blocks() {
        let mut pm = PhysicalMemory::new(4 * MB2);
        // Dirty block 2 by hand; allocations must pile onto it rather
        // than breaking a clean block.
        pm.blocks[2].used = 1;
        let first = pm.alloc_base().unwrap();
        assert_eq!(first.index() / 512, 2, "first alloc avoids clean blocks");
        let second = pm.alloc_base().unwrap();
        assert_eq!(second.index() / 512, 2);
        // Without dirty blocks, fragmented-but-empty blocks come next.
        let mut pm = PhysicalMemory::new(4 * MB2);
        pm.blocks[1].unmovable = true;
        let first = pm.alloc_base().unwrap();
        assert_eq!(first.index() / 512, 1, "prefers pinned block over clean");
        assert_eq!(pm.huge_capable_blocks(), 3);
    }

    #[test]
    fn huge_alloc_clean_block() {
        let mut pm = PhysicalMemory::new(4 * MB2);
        let h = pm.alloc_huge(false).unwrap();
        assert_eq!(h.pages_migrated, 0);
        assert_eq!(pm.huge_blocks_in_use(), 1);
        assert_eq!(pm.free_frames(), 3 * 512);
        pm.free_huge(h.pfn).unwrap();
        assert_eq!(pm.huge_blocks_in_use(), 0);
        assert_eq!(pm.free_frames(), 4 * 512);
    }

    #[test]
    fn huge_alloc_fails_when_fully_fragmented() {
        let mut pm = PhysicalMemory::new(4 * MB2);
        pm.fragment(100, 3);
        assert!(pm.alloc_huge(true).is_err());
        assert_eq!(pm.stats().huge_failures, 1);
    }

    #[test]
    fn fragmentation_survives_compaction_pressure() {
        // With 50% fragmented, only the unpinned half can ever be huge.
        let mut pm = PhysicalMemory::new(8 * MB2);
        pm.fragment(50, 5);
        let mut got = 0;
        while pm.alloc_huge(true).is_ok() {
            got += 1;
        }
        assert_eq!(got, 4);
    }

    #[test]
    fn compaction_fails_without_room_elsewhere() {
        let mut pm = PhysicalMemory::new(2 * MB2);
        // Block 0 full (512), block 1 holds 88: the only candidate victim
        // is block 1, but block 0 has no room for its 88 pages.
        for _ in 0..600 {
            pm.alloc_base().unwrap();
        }
        assert!(pm.alloc_huge(false).is_err());
        assert!(pm.alloc_huge(true).is_err());
        assert_eq!(pm.stats().huge_failures, 2);
    }

    #[test]
    fn compaction_requires_free_space_elsewhere() {
        let mut pm = PhysicalMemory::new(2 * MB2);
        for _ in 0..1024 {
            pm.alloc_base().unwrap(); // completely full
        }
        assert!(pm.alloc_huge(true).is_err());
    }

    #[test]
    fn compaction_happy_path() {
        let mut pm = PhysicalMemory::new(3 * MB2);
        // Fill block A fully and put a little in B and C so no block is
        // clean.
        for _ in 0..(512 + 10 + 10) {
            pm.alloc_base().unwrap();
        }
        // Rotor-based fill: block0=512, block1=10? Placement prefers
        // dirty blocks, so after block0 fills, next goes to block1 and
        // stays there. Force some into block2 manually:
        pm.blocks[1].used -= 10;
        pm.blocks[2].used += 10;
        assert!(pm.blocks.iter().all(|b| b.used > 0));
        let h = pm.alloc_huge(true).unwrap();
        assert_eq!(h.pages_migrated, 10); // least-used block vacated
                                          // Global accounting preserved: 532 base frames still allocated.
        let used: u64 = pm.blocks.iter().map(|b| u64::from(b.used)).sum();
        assert_eq!(used, 532);
    }

    #[test]
    fn free_base_handles_stale_identity() {
        let mut pm = PhysicalMemory::new(3 * MB2);
        let mut pfns = Vec::new();
        for _ in 0..30 {
            pfns.push(pm.alloc_base().unwrap());
        }
        // Compact the block holding those pages into a huge page.
        let _h = pm.alloc_huge(true);
        // Freeing the (now stale) pfns must not underflow; global count
        // drops correctly.
        let before = pm.free_frames();
        for p in pfns {
            pm.free_base(p).unwrap();
        }
        assert_eq!(pm.free_frames(), before + 30);
    }

    #[test]
    fn split_huge_in_place_keeps_data_resident() {
        let mut pm = PhysicalMemory::new(2 * MB2);
        let h = pm.alloc_huge(false).unwrap();
        let frames = pm.split_huge_in_place(h.pfn).unwrap();
        assert_eq!(frames.len(), 512);
        assert_eq!(pm.huge_blocks_in_use(), 0);
        assert_eq!(pm.free_frames(), 512); // other block only
                                           // All frames fall inside the old huge block.
        assert!(frames.iter().all(|f| f.index() / 512 == h.pfn.index()));
    }

    #[test]
    fn oom_on_exhaustion() {
        let mut pm = PhysicalMemory::new(MB2);
        for _ in 0..512 {
            pm.alloc_base().unwrap();
        }
        assert!(matches!(
            pm.alloc_base(),
            Err(HpageError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn frees_reject_double_free_and_bad_pfns() {
        let mut pm = PhysicalMemory::new(2 * MB2);
        let p = pm.alloc_base().unwrap();
        pm.free_base(p).unwrap();
        // Nothing allocated anywhere: a second free is a detectable
        // accounting-level double free.
        assert!(matches!(
            pm.free_base(p),
            Err(HpageError::InvariantViolation { .. })
        ));
        // Out-of-range and wrong-size PFNs are rejected without effect.
        assert!(pm.free_base(Pfn::new(99_999, PageSize::Base4K)).is_err());
        assert!(pm.free_base(Pfn::new(0, PageSize::Huge2M)).is_err());

        let h = pm.alloc_huge(false).unwrap();
        pm.free_huge(h.pfn).unwrap();
        assert!(matches!(
            pm.free_huge(h.pfn),
            Err(HpageError::InvariantViolation { .. })
        ));
        assert!(pm.free_huge(Pfn::new(0, PageSize::Base4K)).is_err());
        assert!(pm.free_huge(Pfn::new(77, PageSize::Huge2M)).is_err());
        assert!(pm.split_huge_in_place(h.pfn).is_err());
        assert_eq!(pm.free_frames(), pm.total_frames());
    }

    #[test]
    fn used_frames_balances_total() {
        let mut pm = PhysicalMemory::new(8 * MB2);
        pm.fragment(25, 3);
        let mut held = Vec::new();
        for _ in 0..100 {
            held.push(pm.alloc_base().unwrap());
        }
        let h = pm.alloc_huge(true).unwrap();
        assert_eq!(pm.total_frames(), pm.free_frames() + pm.used_frames());
        pm.free_huge(h.pfn).unwrap();
        for p in held {
            pm.free_base(p).unwrap();
        }
        assert_eq!(pm.total_frames(), pm.free_frames() + pm.used_frames());
        assert!(pm.check_block_invariants().is_empty());
    }

    #[test]
    fn alloc_gate_denies_huge_paths_only() {
        let mut pm = PhysicalMemory::new(1024 * MB2);
        pm.set_alloc_gate(AllocGate {
            deny_huge: true,
            deny_compaction: false,
        });
        assert!(matches!(pm.alloc_huge(true), Err(HpageError::Fault { .. })));
        assert!(matches!(
            pm.alloc_huge(false),
            Err(HpageError::Fault { .. })
        ));
        // The demand-fault path is never gated.
        assert!(pm.alloc_base().is_ok());
        assert_eq!(pm.stats().gated_failures, 2);
        assert_eq!(pm.stats().huge_failures, 0);
        pm.set_alloc_gate(AllocGate::default());
        assert!(pm.alloc_huge(true).is_ok());
    }

    #[test]
    fn alloc_gate_compaction_stall_keeps_clean_blocks_working() {
        let mut pm = PhysicalMemory::new(4 * MB2);
        pm.set_alloc_gate(AllocGate {
            deny_huge: false,
            deny_compaction: true,
        });
        // Clean blocks still allocate...
        assert!(pm.alloc_huge(true).is_ok());
        // ...but once every block is dirty, compaction being stalled
        // turns allow_compaction=true into a failure.
        pm.fragment(0, 1); // one movable page in every non-huge block
        assert!(matches!(
            pm.alloc_huge(true),
            Err(HpageError::OutOfMemory { .. })
        ));
        pm.set_alloc_gate(AllocGate::default());
        assert!(pm.alloc_huge(true).is_ok());
    }

    #[test]
    fn fragment_is_deterministic() {
        let mut a = PhysicalMemory::new(64 * MB2);
        let mut b = PhysicalMemory::new(64 * MB2);
        a.fragment(50, 9);
        b.fragment(50, 9);
        let pat = |pm: &PhysicalMemory| pm.blocks.iter().map(|b| b.unmovable).collect::<Vec<_>>();
        assert_eq!(pat(&a), pat(&b));
    }
}
