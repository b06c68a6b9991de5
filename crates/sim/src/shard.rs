//! The sharded barrier-round simulation engine behind
//! [`Simulation::try_run_recorded`](crate::Simulation::try_run_recorded).
//!
//! # Execution model
//!
//! The run is a sequence of **rounds**. In each round every live core
//! receives a quota of up to [`CHUNK`] accesses, truncated in core order
//! so the round total never crosses the next promotion-interval
//! boundary: boundaries are *exact* at any core count (the old loop ran
//! the interval block only after a full sweep over all cores, so the
//! boundary drifted by up to `cores × CHUNK` accesses and the drift
//! depended on the core count). When `total_accesses` lands exactly on
//! a boundary the coordinator reassembles the full OS-visible state and
//! runs the single-threaded interval block — policy, injector, ledger,
//! auditor — verbatim.
//!
//! Cores are grouped into **shards**. Every core of a process lives on
//! the shard that owns the process's [`AddressSpace`], so page-table
//! walks (which set A-bits) never cross a shard boundary between
//! barriers. Shard 0 always runs on the calling thread, which is also
//! the coordinator: with `--sim-threads 1` (the default) that is the
//! whole simulation, and with *N* shards the engine spawns *N − 1*
//! worker threads.
//!
//! # Trace producers
//!
//! A core's trace can also be generated on a thread of its own: a
//! [`Producer`] has the workload's trace source append blocks of
//! accesses ahead of the shard that replays them, taking trace generation off that shard's critical
//! path. Cores get producers in core order while the process has a CPU
//! to spare: `available_parallelism()` minus every CPU the process has
//! claimed for the shards of running engines and the workers of a
//! harness (see [`crate::cpus`]). So with one CPU, or with as many
//! shards or harness jobs as CPUs, no producer starts and the run is
//! the direct path. A producer changes where accesses are generated,
//! never which, so every output is the same with or without one.
//!
//! # Handoff
//!
//! Threads meet once per round — at most [`CHUNK`] accesses per core,
//! a few µs of work — plus once per fault wave and twice per interval
//! barrier, so the cost of a meeting decides whether threads pay off.
//! The coordinator sends one message per shard per round (`Execute`:
//! fill the chunks, then run them), sends to the threaded shards first,
//! runs shard 0 inline, and then reads every reply in shard order.
//! Each direction of a threaded shard is a [`Slot`]: a FIFO message
//! cell plus an atomic sequence number that the waiting end polls for
//! [`SPIN_LIMIT`] iterations before it parks; the sender unparks it
//! after every message. Dropping the sending end — normally, or while
//! a panic unwinds a worker — closes the slot and wakes the waiter, so
//! a coordinator error stops every worker and a worker panic becomes a
//! coordinator panic instead of a hang.
//!
//! # Determinism
//!
//! The protocol is canonical — the schedule of every simulated event is
//! a pure function of the inputs, never of the shard count:
//!
//! * **Timestamps** are block-sequential: once every shard has reported
//!   its fill counts, the coordinator prefix-sums the per-core chunk
//!   lengths in core order, so core *c*'s accesses occupy a contiguous
//!   timestamp block that only depends on the lengths of cores `< c`.
//!   Workers stamp events relative to the chunk's start; the
//!   coordinator adds the block base as it drains them.
//! * **Page faults** pause the faulting core. Workers run every core to
//!   its first unserved fault (or chunk end), then the coordinator
//!   serves all pending allocation requests against the shared
//!   [`PhysicalMemory`] in global core order (a *wave*), workers
//!   install the granted frames and resume. Wave composition depends
//!   only on per-core fault positions, which are shard-independent.
//!   Two cores of one process can fault on the same region in the same
//!   wave; the later install detects the overlap (or a huge grant that
//!   no longer fits over freshly installed base pages), returns the
//!   frame, and — for the unusable-huge case — re-requests a base
//!   frame in the next wave. Returned frames are freed, and new
//!   requests allocated, in global core order.
//! * **Events** are buffered per core and drained into the recorder in
//!   core order at the end of each round, which equals timestamp order.
//! * **Barriers** move two lists: processes (address space and, nested,
//!   VM) keyed by pid, and cores ([`CoreHw`]) keyed by core. The only
//!   merges — PCCs back into their banks, ledger walk tallies summed by
//!   region — are order-insensitive, so the assembled state is
//!   byte-identical at any `--sim-threads`.
//!
//! The shared-LLC data-cache model couples cores through one
//! [`CacheHierarchy`], so enabling it forces a single shard.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};

use hpage_cache::{CacheHierarchy, CacheOutcome};
use hpage_faults::FaultInjector;
use hpage_obs::{
    Event, FailureReason, IntervalRow, IntervalSeries, IntervalSnapshot, PccAction, Recorder,
    TlbLevel, FREQ_HISTOGRAM_BUCKETS,
};
use hpage_os::{
    AddressSpace, AllocGate, AuditViolation, Auditor, BasePagesPolicy, FaultGrant, FaultOutcome,
    HugePagePolicy, OsState, PccPolicy, PhysicalMemory, PromotionBudget, PromotionLedger,
    PromotionSchedule, RegionWalks, ScheduledPromotion,
};
use hpage_pcc::{Pcc, PccBank, PccEvent};
use hpage_perf::RunCounters;
use hpage_tlb::{
    HostSpace, NestedPwc, PageWalkCache, TlbHierarchy, TlbOutcome, Translation, WalkResult,
};
use hpage_trace::{Producer, SourceStream, TraceStream};
use hpage_types::{
    derive_seed, CoreId, HpageError, MemoryAccess, NestedConfig, PageSize, ProcessId,
    PromotionPolicyKind, VirtAddr, Vpn,
};

use crate::cpus;
use crate::simulation::{ProcessSpec, SimReport, Simulation};

/// Accesses per core per round. Also the upper bound on how far one
/// core's timestamp block can run ahead of another's within a round.
pub(crate) const CHUNK: u32 = 256;

/// Hot-path configuration copied into every shard worker.
#[derive(Clone, Copy)]
struct WorkerFlags {
    /// Policy faults prefer 2 MiB frames.
    prefer_huge: bool,
    /// §5.4.1 ablation: PCC banks are fed from L2-TLB evictions.
    victim_mode: bool,
    /// Tally per-region walk counts for the promotion ledger.
    ledger_on: bool,
    /// Buffer per-access events for the recorder.
    recorder_on: bool,
}

/// A page-fault allocation request: the page-table half of the fault
/// already ran on the worker; the coordinator supplies the frame.
struct FaultRequest {
    core: usize,
    wants_huge: bool,
}

/// The host half of one guest VM in a nested run: a private host
/// address space (the VM's guest-physical memory, faulted in on
/// demand), the host promotion engine, and — when the PCC placement
/// enables the host dimension — a one-core host PCC bank fed from the
/// host walks the [`NestedPwc`] actually performs.
///
/// Every core of a process lives on the shard that owns the process's
/// guest address space, so the whole VM travels with that shard between
/// barriers; the coordinator reclaims it at each interval boundary to
/// run the single-threaded host promotion phase in pid order.
struct NestedVm {
    /// Host OS state: one space (gPA→hPA) over a private
    /// [`PhysicalMemory`] sized past the guest's.
    os: OsState,
    /// Host-dimension promotion engine ([`PccPolicy`] when the
    /// placement enables the host PCC, [`BasePagesPolicy`] otherwise —
    /// host faults never allocate huge frames, so without a host PCC
    /// the host dimension stays all-4K). `Send` because the VM travels
    /// with its shard's worker thread between barriers.
    policy: Box<dyn HugePagePolicy + Send>,
    /// The host PCC bank (one core). The walk path feeds it in place,
    /// and the host policy reads it at interval barriers.
    bank: Option<PccBank>,
    /// Per-VM invariant auditor over the host OS state.
    auditor: Option<Auditor>,
}

impl NestedVm {
    /// Builds the host half of VM `pid`. Host physical memory is sized
    /// at twice the guest's plus slack: data gPAs are bounded by guest
    /// RAM, and the extra headroom covers guest table pages plus the
    /// bloat of host promotions over sparsely-touched regions.
    fn new(sim: &Simulation, nested: &NestedConfig, pid: usize) -> Result<NestedVm, HpageError> {
        let mut phys = PhysicalMemory::new(sim.config.phys_mem_bytes * 2 + (64 << 20));
        if sim.fragmentation_pct > 0 {
            // An independent stream per VM: host fragmentation must not
            // correlate with the guest's (or another VM's) layout.
            let seed = derive_seed(sim.fragmentation_seed, &format!("host-frag-{pid}"));
            phys.fragment(sim.fragmentation_pct, seed);
        }
        let os = OsState::new(phys, 1, vec![0])?;
        let host_pcc = nested.placement.host_enabled();
        let policy: Box<dyn HugePagePolicy + Send> = if host_pcc {
            Box::new(PccPolicy::new(
                PromotionPolicyKind::HighestFrequency,
                sim.config.regions_to_promote,
            ))
        } else {
            Box::new(BasePagesPolicy)
        };
        let bank = host_pcc.then(|| {
            PccBank::with_replacement(1, sim.config.pcc_2m, PageSize::Huge2M, sim.replacement)
        });
        let auditor = sim.audit.then(|| Auditor::new(&os));
        Ok(NestedVm {
            os,
            policy,
            bank,
            auditor,
        })
    }
}

/// [`HostSpace`] over a VM's host address space: a host walk that finds
/// the guest-physical page unmapped faults it in with a base frame
/// (host huge pages come only from host promotion). The mapped check
/// uses `translate` (no accessed bits) so a first touch still reports
/// a clear PMD A-bit to the host PCC's cold-miss filter.
struct VmHost<'a> {
    space: &'a mut AddressSpace,
    phys: &'a mut PhysicalMemory,
}

impl HostSpace for VmHost<'_> {
    fn walk_gpa(&mut self, gpa: VirtAddr) -> Result<WalkResult, HpageError> {
        if self.space.page_table().translate(gpa).is_none() {
            self.space.fault(gpa, false, self.phys)?;
        }
        self.space.page_table_mut().walk(gpa)
    }
}

/// A core's paging-structure cache: the native split PWC, or in nested
/// mode the 2D complex that replaces it (its guest dimension comes from
/// `NestedConfig::guest_pwc`; `SystemConfig::pwc` is ignored there).
/// The nested complex is boxed: it is over twice the native cache's size.
enum WalkCache {
    Native(PageWalkCache),
    Nested(Box<NestedPwc>),
}

impl WalkCache {
    /// Empties the cache (shootdown storm).
    fn flush(&mut self) {
        match self {
            WalkCache::Native(pwc) => pwc.flush(),
            WalkCache::Nested(npwc) => npwc.flush(),
        }
    }

    /// Drops structure entries covering a (guest-)virtual 2 MiB region
    /// after a promotion/demotion shootdown.
    fn invalidate_region(&mut self, region: Vpn) {
        match self {
            WalkCache::Native(pwc) => pwc.invalidate_region(region),
            WalkCache::Nested(npwc) => npwc.invalidate_guest_region(region),
        };
    }
}

/// The granularity of each PCC bank, in the order of
/// [`CoreHw::pccs`]: the 2 MiB bank the promotion policy ranks, then
/// the 1 GiB bank (§3.2.3).
const PCC_SIZES: [PageSize; 2] = [PageSize::Huge2M, PageSize::Huge1G];

/// Everything one core owns between barriers: its translation hardware
/// (TLB hierarchy, paging-structure cache, its PCC in each bank) and
/// what the engine counts for it. The seat holds it between barriers,
/// and it travels to the coordinator and back as one value at each
/// interval barrier.
struct CoreHw {
    tlb: TlbHierarchy,
    /// `None` when the run models no page-walk cache.
    walk_cache: Option<WalkCache>,
    /// The core's PCC in each bank, in [`PCC_SIZES`] order. `None` when
    /// the run has no such bank, and at a barrier, while the PCC is back
    /// in its bank for the policy and the audit.
    pccs: [Option<Pcc>; 2],
    /// What the engine counts itself: walk levels, faults and
    /// data-cache outcomes. Accesses, TLB hits and walks are the TLB's
    /// own counts; [`run_counters`](Self::run_counters) adds them.
    counters: RunCounters,
    /// Ledger tallies (kept only when the ledger is on): walks per
    /// `(pid, 2 MiB region index)`, drained at every interval barrier.
    region_walks: RegionWalks,
    /// Same for the host dimension of a nested run, keyed by
    /// `(VM pid, gPA 2 MiB region index)`.
    host_region_walks: RegionWalks,
}

impl CoreHw {
    /// The core's counts so far. Exact at a barrier, where every chunk
    /// has completed: the TLB's counts are cumulative and per core, and
    /// a flush does not reset them.
    fn run_counters(&self) -> RunCounters {
        let s = self.tlb.stats();
        RunCounters {
            accesses: s.accesses,
            l1_hits: s.l1_hits,
            l2_hits: s.l2_hits,
            walks: s.walks,
            ..self.counters
        }
    }
}

/// One process as it moves between a shard and the coordinator: its
/// pid, its address space and, in nested runs, the host half of its VM.
type Process = (usize, AddressSpace, Option<NestedVm>);

/// OS-visible state a shard surrenders at an interval barrier.
#[derive(Default)]
struct OsSlice {
    /// In ascending pid order.
    processes: Vec<Process>,
    cores: Vec<(usize, CoreHw)>,
}

enum ToShard {
    /// Start a round: refill each listed core's chunk (quota accesses)
    /// and run the chunks.
    Execute { quotas: Vec<(usize, u64)> },
    /// Deliver fault grants to paused cores and resume them.
    Grants { grants: Vec<(usize, FaultGrant)> },
    /// Surrender all OS-visible state for an interval barrier.
    TakeOs,
    /// Reclaim state after the barrier. No reply.
    RestoreOs(Box<OsSlice>),
}

enum FromShard {
    /// Reply to `Execute`/`Grants`.
    Progress {
        /// `Execute` only (empty after `Grants`): the request's own
        /// buffer handed back, each quota overwritten with how many
        /// accesses the core's trace produced — the coordinator
        /// recycles it, so steady-state rounds allocate nothing for
        /// fill traffic.
        filled: Vec<(usize, u64)>,
        progress: Box<ShardProgress>,
    },
    /// Reply to `TakeOs`.
    Os(Box<OsSlice>),
}

enum ShardProgress {
    /// At least one core hit an unserved page fault.
    Paused {
        requests: Vec<FaultRequest>,
        /// Grants that turned out redundant at install time (another
        /// core of the same process mapped the address in the same
        /// wave). The coordinator frees them in core order.
        unused: Vec<(usize, FaultGrant)>,
    },
    /// Every filled chunk ran to completion.
    RoundDone {
        /// Per-core event buffers, each in timestamp order, stamped
        /// relative to the core's chunk (its first access is 1).
        events: Vec<(usize, Vec<(u64, Event)>)>,
        unused: Vec<(usize, FaultGrant)>,
    },
    /// A page-table operation failed; the run aborts.
    Failed(HpageError),
}

/// One simulated core's private state: translation hardware, trace
/// stream, and the in-flight chunk.
///
/// The chunk itself is *not* stored here: it is the trace stream's
/// current window ([`TraceStream::window`]), borrowed zero-copy by
/// [`run_seat`] — a decoded HPT2 block, a slice of the recorded trace,
/// or a kernel's pending queue. Only the position in it is tracked.
struct CoreSeat<'w> {
    core: usize,
    pid: usize,
    /// Index into the owning worker's `processes`.
    process_slot: usize,
    trace: Box<dyn TraceStream + Send + 'w>,
    /// `Option` so the hardware can travel to the coordinator at
    /// barriers; always `Some` while the worker executes.
    hw: Option<CoreHw>,
    /// Next unexecuted index into the window; the access there is
    /// stamped `pos + 1`, relative to the chunk's start.
    pos: usize,
    pending_grant: Option<FaultGrant>,
    /// The core has an unfinished chunk in the current round.
    in_round: bool,
    events: Vec<(u64, Event)>,
    unused_grants: Vec<FaultGrant>,
    /// Scratch for the host walks one 2D walk performs (nTLB misses);
    /// recycled across walks, drained into the host PCC and the host
    /// ledger tally immediately after each walk.
    host_scratch: Vec<WalkResult>,
}

/// A shard: a set of cores plus the processes they fault into.
struct ShardWorker<'w> {
    /// Seats in global core order.
    seats: Vec<CoreSeat<'w>>,
    /// The processes this shard owns, in ascending pid order; empty
    /// while they are surrendered at a barrier.
    processes: Vec<Process>,
    /// The shared data-cache model (forces a single shard, so at most
    /// one worker ever holds it).
    caches: Option<CacheHierarchy>,
    flags: WorkerFlags,
}

impl<'w> ShardWorker<'w> {
    fn seat_mut(&mut self, core: usize) -> &mut CoreSeat<'w> {
        self.seats
            .iter_mut()
            .find(|s| s.core == core)
            .expect("core belongs to this shard")
    }

    /// Processes one coordinator message. `RestoreOs` has no reply.
    fn handle(&mut self, msg: ToShard) -> Option<FromShard> {
        match msg {
            ToShard::Execute { mut quotas } => {
                self.fill(&mut quotas);
                Some(FromShard::Progress {
                    filled: quotas,
                    progress: Box::new(self.run_ready()),
                })
            }
            ToShard::Grants { grants } => {
                for (core, grant) in grants {
                    self.seat_mut(core).pending_grant = Some(grant);
                }
                Some(FromShard::Progress {
                    filled: Vec::new(),
                    progress: Box::new(self.run_ready()),
                })
            }
            ToShard::TakeOs => Some(FromShard::Os(Box::new(self.take_os()))),
            ToShard::RestoreOs(slice) => {
                self.restore_os(*slice);
                None
            }
        }
    }

    /// Advances each listed core's trace to its next window (zero-copy:
    /// the stream keeps ownership, the seat only resets its position)
    /// and overwrites each quota in place with the count produced.
    fn fill(&mut self, quotas: &mut [(usize, u64)]) {
        for slot in quotas.iter_mut() {
            let (core, quota) = *slot;
            let seat = self.seat_mut(core);
            seat.pos = 0;
            let got = seat.trace.next_window(quota as usize).len();
            seat.in_round = got > 0;
            slot.1 = got as u64;
        }
    }

    /// Runs every in-round seat until it pauses at a fault or finishes
    /// its chunk.
    fn run_ready(&mut self) -> ShardProgress {
        let flags = self.flags;
        let mut requests = Vec::new();
        let ShardWorker {
            seats,
            processes,
            caches,
            ..
        } = self;
        for seat in seats.iter_mut() {
            if !seat.in_round {
                continue;
            }
            let (_, space, vm) = &mut processes[seat.process_slot];
            // Monomorphize the hot loop on "is a recorder attached":
            // event pushes and the inline PCC feed compile out of the
            // recorder-less path entirely.
            let ran = if flags.recorder_on {
                run_seat::<true>(seat, space, vm.as_mut(), caches, flags)
            } else {
                run_seat::<false>(seat, space, vm.as_mut(), caches, flags)
            };
            match ran {
                Ok(Some(req)) => requests.push(req),
                Ok(None) => {}
                Err(e) => return ShardProgress::Failed(e),
            }
        }
        let mut unused = Vec::new();
        for seat in seats.iter_mut() {
            for g in seat.unused_grants.drain(..) {
                unused.push((seat.core, g));
            }
        }
        if requests.is_empty() {
            let mut events = Vec::new();
            for seat in seats.iter_mut() {
                if !seat.events.is_empty() {
                    events.push((seat.core, std::mem::take(&mut seat.events)));
                }
            }
            ShardProgress::RoundDone { events, unused }
        } else {
            ShardProgress::Paused { requests, unused }
        }
    }

    fn take_os(&mut self) -> OsSlice {
        let cores = self
            .seats
            .iter_mut()
            .map(|seat| (seat.core, seat.hw.take().expect("core hardware resident")))
            .collect();
        OsSlice {
            processes: std::mem::take(&mut self.processes),
            cores,
        }
    }

    /// Takes the barrier's state back. Processes return in the pid order
    /// they left in, so each seat's `process_slot` still points at its own.
    fn restore_os(&mut self, slice: OsSlice) {
        debug_assert!(self.processes.is_empty(), "restored once per barrier");
        self.processes = slice.processes;
        for (core, hw) in slice.cores {
            self.seat_mut(core).hw = Some(hw);
        }
    }
}

/// Executes one seat until its chunk ends (`Ok(None)`) or it needs a
/// frame from the coordinator (`Ok(Some(request))`).
///
/// `REC` mirrors `flags.recorder_on` at the type level so the
/// recorder-less hot loop contains no event plumbing at all. The seat
/// is destructured into disjoint field borrows up front: the chunk is
/// the trace stream's current window, borrowed zero-copy for the whole
/// loop while the core's hardware (counts included) stays mutable
/// beside it.
///
/// Every configuration runs the same loop: a run of L1 hits in one
/// [`TlbHierarchy::l1_hits`] call, then the access that ended the run
/// through [`TlbHierarchy::lookup`] (the 1 GiB L1, the L2, a walk or a
/// fault). The per-hit closure records the hit and feeds the
/// data-cache model; without a recorder and a cache model it is empty.
fn run_seat<const REC: bool>(
    seat: &mut CoreSeat<'_>,
    space: &mut AddressSpace,
    mut vm: Option<&mut NestedVm>,
    caches: &mut Option<CacheHierarchy>,
    flags: WorkerFlags,
) -> Result<Option<FaultRequest>, HpageError> {
    debug_assert_eq!(REC, flags.recorder_on);
    let CoreSeat {
        core,
        pid,
        trace,
        hw,
        pos,
        pending_grant,
        in_round,
        events,
        unused_grants,
        host_scratch,
        ..
    } = seat;
    let core = *core;
    let pid = *pid;
    let hw = hw.as_mut().expect("core hardware resident");
    // Re-acquire the window on every entry (the seat may be resuming
    // from a fault pause); `window` re-borrows the same slice that
    // `next_window` produced at fill time.
    let chunk: &[MemoryAccess] = trace.window();
    // A grant arrived for the access we paused on.
    if let Some(grant) = pending_grant.take() {
        let access = chunk[*pos];
        if space.page_table().translate(access.addr).is_some() {
            // A sibling core's install in this same wave already mapped
            // the address; the grant is redundant — hand the frame back.
            unused_grants.push(grant);
        } else if matches!(grant, FaultGrant::Huge(_)) && !space.fault_wants_huge(access.addr, true)
        {
            // Sibling base-page installs landed in the region after the
            // request was posted; a huge mapping no longer fits. Return
            // the frame and re-request a base grant next wave.
            unused_grants.push(grant);
            return Ok(Some(FaultRequest {
                core,
                wants_huge: false,
            }));
        } else {
            let out = space.install_grant(access.addr, grant)?;
            let size = match out {
                FaultOutcome::Base(_) => {
                    hw.counters.faults_base += 1;
                    PageSize::Base4K
                }
                FaultOutcome::Huge(_) => {
                    hw.counters.faults_huge += 1;
                    PageSize::Huge2M
                }
            };
            if REC {
                events.push((
                    *pos as u64 + 1,
                    Event::Fault {
                        core: CoreId(core as u32),
                        process: ProcessId(pid as u32),
                        size,
                    },
                ));
            }
        }
        // Either way the address is mapped now: resume the faulted
        // access at its walk, as its lookup already counted the miss.
        let walk = space.page_table_mut().walk(access.addr)?;
        let t = handle_walk::<REC>(
            core,
            pid,
            hw,
            vm.as_deref_mut(),
            host_scratch,
            events,
            access,
            *pos as u64 + 1,
            walk,
            flags,
        )?;
        if let Some(caches) = caches.as_mut() {
            feed_cache(caches, &mut hw.counters, core, access, t);
        }
        *pos += 1;
    }
    loop {
        let run = &chunk[*pos..];
        // The access at `run[i]` is stamped `first + i`.
        let first = *pos as u64 + 1;
        let tlb = &mut hw.tlb;
        *pos += match caches.as_mut() {
            None => tlb.l1_hits(run, |i, t| {
                if REC {
                    events.push((first + i as u64, tlb_hit(core, TlbLevel::L1, t)));
                }
            }),
            Some(caches) => {
                let counters = &mut hw.counters;
                tlb.l1_hits(run, |i, t| {
                    if REC {
                        events.push((first + i as u64, tlb_hit(core, TlbLevel::L1, t)));
                    }
                    feed_cache(caches, counters, core, run[i], t);
                })
            }
        };
        let Some(&access) = chunk.get(*pos) else {
            break;
        };
        let at = *pos as u64 + 1;
        let t = match hw.tlb.lookup(access.addr) {
            TlbOutcome::L1Hit(t) => {
                if REC {
                    events.push((at, tlb_hit(core, TlbLevel::L1, t)));
                }
                t
            }
            TlbOutcome::L2Hit(t) => {
                if REC {
                    events.push((at, tlb_hit(core, TlbLevel::L2, t)));
                }
                t
            }
            TlbOutcome::Miss => match space.page_table_mut().walk(access.addr) {
                Ok(walk) => handle_walk::<REC>(
                    core,
                    pid,
                    hw,
                    vm.as_deref_mut(),
                    host_scratch,
                    events,
                    access,
                    at,
                    walk,
                    flags,
                )?,
                Err(_) => {
                    // Page fault: ship the allocation request; the
                    // access resumes at its walk once the grant lands.
                    let wants_huge = space.fault_wants_huge(access.addr, flags.prefer_huge);
                    return Ok(Some(FaultRequest { core, wants_huge }));
                }
            },
        };
        if let Some(caches) = caches.as_mut() {
            feed_cache(caches, &mut hw.counters, core, access, t);
        }
        *pos += 1;
    }
    *in_round = false;
    Ok(None)
}

/// The `TlbHit` event of a hit at `level` on `core`.
#[inline(always)]
fn tlb_hit(core: usize, level: TlbLevel, t: Translation) -> Event {
    Event::TlbHit {
        core: CoreId(core as u32),
        level,
        size: t.size(),
    }
}

/// The optional data-cache model: physically indexed, so the
/// translation just resolved decides placement.
#[inline(always)]
fn feed_cache(
    caches: &mut CacheHierarchy,
    counters: &mut RunCounters,
    core: usize,
    access: MemoryAccess,
    t: Translation,
) {
    let offset = access.addr.page_offset(t.size());
    let paddr = hpage_types::PhysAddr::new(t.pfn.base().raw() + offset);
    match caches.access(core, paddr) {
        CacheOutcome::L1 => {}
        CacheOutcome::L2 => counters.cache_l2_hits += 1,
        CacheOutcome::Llc => counters.cache_llc_hits += 1,
        CacheOutcome::Memory => counters.cache_memory += 1,
    }
}

/// The post-walk datapath: PWC (or the nested 2D complex), ledger
/// tally, TLB fill, A-bit harvest into the PCCs. A free function over
/// the seat's split-borrowed fields so it can run while the trace window
/// (an immutable borrow of the seat's stream) is live in [`run_seat`].
///
/// In nested mode the guest walk's level count is only the first
/// dimension: every referenced guest level and the data page are
/// host-translated through the seat's [`NestedPwc`], host faults are
/// served inline from the VM's private physical memory, and the host
/// walks actually performed feed the host PCC and the host ledger
/// tally. `Event::Walk` then carries the *nominal* cold 2D cost
/// (`guest_levels × 5 + 4`) as `levels` and the real reference count as
/// `effective_levels`. The host PCC emits no events, so its feed is the
/// same with and without a recorder.
///
/// # Errors
///
/// Returns [`HpageError::OutOfMemory`] when a host fault cannot back a
/// guest-physical page (nested mode only — the native path is
/// infallible).
#[allow(clippy::too_many_arguments)]
fn handle_walk<const REC: bool>(
    core: usize,
    pid: usize,
    hw: &mut CoreHw,
    vm: Option<&mut NestedVm>,
    host_scratch: &mut Vec<WalkResult>,
    events: &mut Vec<(u64, Event)>,
    access: MemoryAccess,
    at: u64,
    walk: WalkResult,
    flags: WorkerFlags,
) -> Result<Translation, HpageError> {
    let (nominal_levels, effective_levels) = match hw.walk_cache.as_mut() {
        Some(WalkCache::Nested(npwc)) => {
            let vm = vm.expect("nested seats always have a VM");
            let gpa = hpage_tlb::data_gpa(&walk, access.addr);
            let refs = {
                let OsState { phys, spaces, .. } = &mut vm.os;
                let mut host = VmHost {
                    space: &mut spaces[0],
                    phys,
                };
                npwc.walk(
                    access.addr,
                    walk.levels_referenced,
                    gpa,
                    &mut host,
                    host_scratch,
                )?
            };
            for host_walk in host_scratch.iter() {
                let region = host_walk.translation.vpn.base().vpn(PageSize::Huge2M);
                if let Some(bank) = vm.bank.as_mut() {
                    bank.record_walk(CoreId(0), region, host_walk.pmd_accessed_before);
                }
                if flags.ledger_on {
                    *hw.host_region_walks
                        .entry((pid as u32, region.index()))
                        .or_insert(0) += 1;
                }
            }
            (walk.levels_referenced * 5 + 4, refs)
        }
        Some(WalkCache::Native(pwc)) => (
            walk.levels_referenced,
            pwc.walk(access.addr, walk.levels_referenced),
        ),
        None => (walk.levels_referenced, walk.levels_referenced),
    };
    hw.counters.walk_levels += u64::from(effective_levels);
    if flags.ledger_on {
        let key = (pid as u32, access.addr.vpn(PageSize::Huge2M).index());
        *hw.region_walks.entry(key).or_insert(0) += 1;
    }
    if REC {
        events.push((
            at,
            Event::Walk {
                core: CoreId(core as u32),
                size: walk.translation.size(),
                levels: nominal_levels,
                effective_levels,
                a_bit_was_set: walk.pmd_accessed_before,
            },
        ));
    }
    let l2_victim = hw.tlb.fill(walk.translation);
    // A-bit harvest, 2 MiB bank first: each PCC reads the accessed bit
    // of its own level (PMD, PUD). In victim mode (§5.4.1 ablation) the
    // feed is the L2 eviction stream instead: an eviction is evidence of
    // prior residence, so it always takes the A-bit-set update path (the
    // banks' cold-miss filter is off in this mode).
    for (pcc, size) in hw.pccs.iter_mut().zip(PCC_SIZES) {
        let Some(pcc) = pcc else {
            continue;
        };
        let harvested = if flags.victim_mode {
            l2_victim.map(|victim| (victim.vpn.base().vpn(size), true))
        } else if size == PageSize::Huge1G {
            Some((access.addr.vpn(size), walk.pud_accessed_before))
        } else {
            Some((access.addr.vpn(size), walk.pmd_accessed_before))
        };
        if let Some((region, a_bit)) = harvested {
            if REC {
                record_pcc_walk(events, pcc, at, core as u32, region, a_bit);
            } else {
                pcc.record_walk(region, a_bit);
            }
        }
    }
    Ok(walk.translation)
}

/// Reports one walk to a per-core PCC and buffers the decision as an
/// event (recorder-attached path only). Decay is detected via the stats
/// delta.
fn record_pcc_walk(
    events: &mut Vec<(u64, Event)>,
    pcc: &mut Pcc,
    at: u64,
    core: u32,
    region: Vpn,
    a_bit_was_set: bool,
) {
    let decays_before = pcc.stats().decays;
    let event = pcc.record_walk(region, a_bit_was_set);
    let decayed = pcc.stats().decays > decays_before;
    let action = match event {
        PccEvent::Hit(freq) => PccAction::Hit(freq),
        PccEvent::Inserted => PccAction::Inserted,
        PccEvent::InsertedWithEviction(victim) => PccAction::InsertedWithEviction(victim),
        PccEvent::FilteredColdMiss => PccAction::FilteredColdMiss,
    };
    events.push((
        at,
        Event::PccUpdate {
            core: CoreId(core),
            granularity: region.size(),
            region,
            action,
            decayed,
        },
    ));
}

/// Builds the interval-boundary snapshot (only when a recorder is live —
/// the frequency histogram walks every PCC entry).
fn interval_snapshot(
    interval: u64,
    row: &IntervalRow,
    bank: Option<&PccBank>,
    os: &OsState,
) -> IntervalSnapshot {
    let mut occupancy = 0u64;
    let mut capacity = 0u64;
    let mut hist = [0u32; FREQ_HISTOGRAM_BUCKETS];
    if let Some(bank) = bank {
        for core in 0..bank.cores() {
            let pcc = bank.pcc(CoreId(core));
            occupancy += pcc.len() as u64;
            capacity += pcc.capacity() as u64;
            for cand in pcc.iter() {
                let bucket = if cand.frequency == 0 {
                    0
                } else {
                    (63 - cand.frequency.leading_zeros() as usize).min(FREQ_HISTOGRAM_BUCKETS - 1)
                };
                hist[bucket] += 1;
            }
        }
    }
    IntervalSnapshot {
        interval,
        pcc_occupancy: occupancy,
        pcc_capacity: capacity,
        freq_histogram: hist,
        l1_hit_rate: row.l1_hit_rate,
        l2_hit_rate: row.l2_hit_rate,
        walk_rate: row.walk_rate,
        free_huge_blocks: os.phys.free_huge_capable_blocks(),
        huge_pages_resident: row.huge_pages_resident,
        bloat_bytes: row.bloat_bytes,
    }
}

/// How many times a waiting end of a [`Slot`] polls for a message
/// before it parks: about 20 µs of `spin_loop` on a 2-vCPU Xeon VM,
/// the cost of one park/unpark wake-up there. Between barriers the
/// peer usually answers within one round, a few µs, so the spin
/// catches it; the bound caps the CPU a waiter takes from the thread
/// it waits for when the host is oversubscribed (`repro --jobs` runs
/// many sharded cells at once), and through every interval block.
const SPIN_LIMIT: u32 = 1 << 10;

/// One direction of a shard handoff: a FIFO message cell, a sequence
/// number the receiver polls without taking the cell's lock, and the
/// flag the sender's drop sets.
struct Slot<T> {
    cell: Mutex<VecDeque<T>>,
    /// Messages pushed so far. Stored with `Release` after the push and
    /// loaded with `Acquire` before the pop.
    sent: AtomicU64,
    /// The sending end is gone — dropped, or unwound by a panic. Stored
    /// with `Release` after the sender's last push and loaded with
    /// `Acquire`, so a receiver that sees it also sees every count.
    closed: AtomicBool,
}

/// Creates a slot and its receiving end. The sending end
/// ([`HandoffTx`]) names the receiving thread, so it is built once
/// that thread exists.
fn handoff<T>() -> (Arc<Slot<T>>, HandoffRx<T>) {
    let slot = Arc::new(Slot {
        cell: Mutex::new(VecDeque::new()),
        sent: AtomicU64::new(0),
        closed: AtomicBool::new(false),
    });
    let rx = HandoffRx {
        slot: Arc::clone(&slot),
        taken: 0,
    };
    (slot, rx)
}

/// The sending end of a [`Slot`]. Doubles as the drop guard: dropping
/// it, also while a panic unwinds its thread, closes the slot and
/// wakes the receiver.
struct HandoffTx<T> {
    slot: Arc<Slot<T>>,
    receiver: Thread,
}

impl<T> HandoffTx<T> {
    fn send(&self, msg: T) {
        self.slot
            .cell
            .lock()
            .expect("no thread panics holding a handoff cell")
            .push_back(msg);
        self.slot.sent.fetch_add(1, Ordering::Release);
        // Cheap when the receiver is still spinning: it only leaves a
        // token that makes its next park return at once.
        self.receiver.unpark();
    }
}

impl<T> Drop for HandoffTx<T> {
    fn drop(&mut self) {
        self.slot.closed.store(true, Ordering::Release);
        self.receiver.unpark();
    }
}

/// The receiving end of a [`Slot`].
struct HandoffRx<T> {
    slot: Arc<Slot<T>>,
    /// Messages received so far.
    taken: u64,
}

impl<T> HandoffRx<T> {
    /// Waits for the next message in send order: spins up to
    /// [`SPIN_LIMIT`] polls, then parks until the sender unparks it.
    /// `None` once the sender is gone and every message it sent has
    /// been received.
    fn recv(&mut self) -> Option<T> {
        let mut spins = 0;
        loop {
            if self.slot.sent.load(Ordering::Acquire) > self.taken {
                self.taken += 1;
                let msg = self
                    .slot
                    .cell
                    .lock()
                    .expect("no thread panics holding a handoff cell")
                    .pop_front();
                return Some(msg.expect("a counted message is queued"));
            }
            if self.slot.closed.load(Ordering::Acquire) {
                // The sender closes after its last push: one more look
                // at the count sees everything it sent.
                if self.slot.sent.load(Ordering::Acquire) > self.taken {
                    continue;
                }
                return None;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// A shard as the coordinator sees it: the worker on this thread
/// (always shard 0) or a handoff pair to a worker thread. `send`/`recv`
/// have identical semantics in both variants, so the coordinator logic
/// — and therefore the simulated schedule — is the same code path at
/// any thread count. The inline worker runs a message only when its
/// reply is read: the coordinator sends to every shard, then reads the
/// replies in shard order, so shard 0 executes while the threaded
/// shards execute theirs.
enum Shard<'w> {
    Inline {
        worker: Box<ShardWorker<'w>>,
        queued: VecDeque<ToShard>,
    },
    Threaded {
        tx: HandoffTx<ToShard>,
        rx: HandoffRx<FromShard>,
    },
}

impl Shard<'_> {
    fn send(&mut self, msg: ToShard) {
        match self {
            Shard::Inline { queued, .. } => queued.push_back(msg),
            Shard::Threaded { tx, .. } => tx.send(msg),
        }
    }

    fn recv(&mut self) -> FromShard {
        match self {
            Shard::Inline { worker, queued } => loop {
                let msg = queued.pop_front().expect("inline request queued");
                if let Some(reply) = worker.handle(msg) {
                    return reply;
                }
            },
            Shard::Threaded { rx, .. } => rx.recv().expect("shard worker alive"),
        }
    }
}

/// A worker thread's loop. It ends when the coordinator drops its
/// sending end; a panic in `handle` drops `tx`, which wakes the
/// coordinator to a closed slot.
fn worker_main(mut worker: ShardWorker<'_>, mut rx: HandoffRx<ToShard>, tx: HandoffTx<FromShard>) {
    while let Some(msg) = rx.recv() {
        if let Some(reply) = worker.handle(msg) {
            tx.send(reply);
        }
    }
}

/// Reusable per-round coordinator buffers. A single-core round covers
/// only [`CHUNK`] accesses, so per-round allocations are visible in the
/// end-to-end throughput gate; everything the coordinator needs each
/// round lives here and is recycled across rounds.
#[derive(Default)]
struct RoundScratch {
    quotas: Vec<(usize, u64)>,
    gots: Vec<(usize, u64)>,
    active: Vec<usize>,
    round_events: Vec<(usize, Vec<(u64, Event)>)>,
    requests: Vec<FaultRequest>,
    unused: Vec<(usize, FaultGrant)>,
    paused: Vec<usize>,
    /// Message-buffer pool for `Execute` payloads; the first reply of
    /// each round hands its request's buffer back into it.
    pool: Vec<Vec<(usize, u64)>>,
}

struct Coordinator<'a, 'w, R: Recorder> {
    sim: &'a Simulation,
    recorder: &'a mut R,
    shards: Vec<Shard<'w>>,
    core_shard: Vec<usize>,
    core_process: Vec<usize>,
    process_shard: Vec<usize>,
    os: OsState,
    policy: Box<dyn HugePagePolicy>,
    injector: Option<FaultInjector>,
    auditor: Option<Auditor>,
    audit_violations: Vec<(u64, AuditViolation)>,
    ledger: Option<PromotionLedger>,
    /// Nested mode: one VM (host half) per process, parked here between
    /// barriers only while its shard has surrendered it. Indexed by pid.
    vms: Vec<Option<NestedVm>>,
    /// Nested mode with the ledger on: provenance for *host* promotions,
    /// keyed by `(VM pid, gPA 2 MiB region)`.
    host_ledger: Option<PromotionLedger>,
    /// The PCC banks, in [`PCC_SIZES`] order. Each core's PCCs are back
    /// here only across interval barriers.
    banks: [Option<PccBank>; 2],
    remaining: Vec<u64>,
    live: Vec<bool>,
    live_count: usize,
    per_process: Vec<RunCounters>,
    budget: PromotionBudget,
    total_accesses: u64,
    next_interval: u64,
    promotion_failures: u64,
    schedule: PromotionSchedule,
    interval_series: IntervalSeries,
    /// (accesses, walks, l1, l2) at the last barrier.
    marks: (u64, u64, u64, u64),
    interval_index: u64,
    scratch: RoundScratch,
}

impl<R: Recorder> Coordinator<'_, '_, R> {
    fn run_to_completion(mut self) -> Result<SimReport, HpageError> {
        while self.live_count > 0 {
            self.round()?;
        }
        self.finish()
    }

    /// One round: plan quotas (exactly up to the interval boundary),
    /// fill and execute through fault waves, drain events, and run the
    /// interval block if the boundary was reached.
    fn round(&mut self) -> Result<(), HpageError> {
        let n_shards = self.shards.len();

        // Quotas truncate in core order so the round total never
        // crosses the boundary — this is what makes boundaries exact.
        let mut left = self.next_interval - self.total_accesses;
        debug_assert!(left > 0, "barriers fire exactly at the boundary");
        let mut quotas = std::mem::take(&mut self.scratch.quotas);
        quotas.clear();
        for core in 0..self.core_shard.len() {
            if !self.live[core] {
                continue;
            }
            let q = u64::from(CHUNK).min(self.remaining[core]).min(left);
            left -= q;
            if q > 0 {
                quotas.push((core, q));
            }
        }
        debug_assert!(!quotas.is_empty(), "a live core always gets quota");

        // One message per shard: each worker fills its cores' chunks
        // and runs them at once, and the fill counts come back with its
        // first reply. Message buffers cycle through `scratch.pool`.
        let mut active = std::mem::take(&mut self.scratch.active);
        active.clear();
        for si in 0..n_shards {
            let mut q = self.scratch.pool.pop().unwrap_or_default();
            q.clear();
            q.extend(
                quotas
                    .iter()
                    .filter(|&&(core, _)| self.core_shard[core] == si),
            );
            if q.is_empty() {
                self.scratch.pool.push(q);
            } else {
                self.shards[si].send(ToShard::Execute { quotas: q });
                active.push(si);
            }
        }

        // Serve fault waves until all chunks complete.
        let mut gots = std::mem::take(&mut self.scratch.gots);
        gots.clear();
        let mut round_events = std::mem::take(&mut self.scratch.round_events);
        round_events.clear();
        let mut requests = std::mem::take(&mut self.scratch.requests);
        let mut unused = std::mem::take(&mut self.scratch.unused);
        let mut paused = std::mem::take(&mut self.scratch.paused);
        while !active.is_empty() {
            requests.clear();
            unused.clear();
            paused.clear();
            for &si in &active {
                let FromShard::Progress { filled, progress } = self.shards[si].recv() else {
                    unreachable!("Execute/Grants answered with Progress")
                };
                if !filled.is_empty() {
                    gots.extend_from_slice(&filled);
                    self.scratch.pool.push(filled);
                }
                match *progress {
                    ShardProgress::Paused {
                        requests: r,
                        unused: u,
                    } => {
                        requests.extend(r);
                        unused.extend(u);
                        paused.push(si);
                    }
                    ShardProgress::RoundDone { events, unused: u } => {
                        unused.extend(u);
                        round_events.extend(events);
                    }
                    ShardProgress::Failed(e) => return Err(e),
                }
            }
            // Canonical frame recycling: free returned frames, then
            // serve new requests, both in global core order.
            unused.sort_unstable_by_key(|&(core, _)| core);
            for (_, grant) in unused.drain(..) {
                match grant {
                    FaultGrant::Base(pfn) => self.os.phys.free_base(pfn)?,
                    FaultGrant::Huge(pfn) => self.os.phys.free_huge(pfn)?,
                }
            }
            if requests.is_empty() {
                debug_assert!(paused.is_empty(), "paused shards always have requests");
                break;
            }
            requests.sort_unstable_by_key(|r| r.core);
            let mut shard_grants: Vec<Vec<(usize, FaultGrant)>> = vec![Vec::new(); n_shards];
            for req in requests.drain(..) {
                let grant = AddressSpace::allocate_grant(&mut self.os.phys, req.wants_huge)?;
                shard_grants[self.core_shard[req.core]].push((req.core, grant));
            }
            for &si in &paused {
                let g = std::mem::take(&mut shard_grants[si]);
                debug_assert!(!g.is_empty());
                self.shards[si].send(ToShard::Grants { grants: g });
            }
            std::mem::swap(&mut active, &mut paused);
        }
        self.scratch.requests = requests;
        self.scratch.unused = unused;
        self.scratch.paused = paused;
        self.scratch.active = active;

        // Liveness and block-sequential timestamp bases: prefix sums of
        // the fill counts in core order. Drain the round's events in
        // the same order — which is timestamp order — rebasing each
        // chunk-relative stamp onto its core's block.
        gots.sort_unstable_by_key(|&(core, _)| core);
        round_events.sort_unstable_by_key(|&(core, _)| core);
        let mut events = round_events.drain(..).peekable();
        let mut ts = self.total_accesses;
        for (&(core, quota), &(core2, got)) in quotas.iter().zip(gots.iter()) {
            debug_assert_eq!(core, core2);
            self.remaining[core] -= got;
            if got < quota || self.remaining[core] == 0 {
                self.live[core] = false;
                self.live_count -= 1;
            }
            if let Some((_, evs)) = events.next_if(|&(c, _)| c == core) {
                for (at, ev) in evs {
                    self.recorder.record(ts + at, ev);
                }
            }
            ts += got;
        }
        debug_assert!(events.next().is_none(), "events come from filled cores");
        drop(events);
        self.scratch.quotas = quotas;
        self.scratch.gots = gots;
        self.scratch.round_events = round_events;
        self.total_accesses = ts;

        if self.total_accesses == self.next_interval {
            let mut cores = self.assemble_os();
            self.interval_block(&mut cores);
            self.next_interval += self.sim.config.promotion_interval_accesses;
            self.distribute_os(cores);
        }
        Ok(())
    }

    /// Pulls every shard's OS-visible state back into the coordinator:
    /// each core's PCCs return to their banks, and the rest of each
    /// core's hardware comes back indexed by core.
    fn assemble_os(&mut self) -> Vec<CoreHw> {
        for si in 0..self.shards.len() {
            self.shards[si].send(ToShard::TakeOs);
        }
        let mut cores: Vec<Option<CoreHw>> = (0..self.core_shard.len()).map(|_| None).collect();
        for si in 0..self.shards.len() {
            let slice = match self.shards[si].recv() {
                FromShard::Os(s) => *s,
                _ => unreachable!("TakeOs answered with Os"),
            };
            for (pid, space, vm) in slice.processes {
                self.os.spaces[pid] = space;
                self.vms[pid] = vm;
            }
            for (core, mut hw) in slice.cores {
                for (bank, pcc) in self.banks.iter_mut().zip(&mut hw.pccs) {
                    if let Some(pcc) = pcc.take() {
                        bank.as_mut()
                            .expect("seats hold PCCs only when the bank exists")
                            .restore(CoreId(core as u32), pcc);
                    }
                }
                cores[core] = Some(hw);
            }
        }
        cores
            .into_iter()
            .map(|hw| hw.expect("every core surrendered its hardware"))
            .collect()
    }

    /// Hands OS-visible state back to the shards after a barrier; each
    /// core takes its PCCs out of the banks again.
    fn distribute_os(&mut self, cores: Vec<CoreHw>) {
        let mut slices: Vec<OsSlice> = (0..self.shards.len()).map(|_| OsSlice::default()).collect();
        for (pid, &shard) in self.process_shard.iter().enumerate() {
            let placeholder = AddressSpace::new(ProcessId(pid as u32));
            let space = std::mem::replace(&mut self.os.spaces[pid], placeholder);
            slices[shard]
                .processes
                .push((pid, space, self.vms[pid].take()));
        }
        for (core, mut hw) in cores.into_iter().enumerate() {
            hw.pccs = take_pccs(&mut self.banks, core);
            slices[self.core_shard[core]].cores.push((core, hw));
        }
        for (shard, slice) in self.shards.iter_mut().zip(slices) {
            shard.send(ToShard::RestoreOs(Box::new(slice)));
        }
    }

    /// The single-threaded interval block: injected faults, ledger
    /// settlement, the promotion policy, shootdowns, audit, and the
    /// interval row. Runs on fully assembled state, so it is verbatim
    /// the sequential loop's logic and its outputs cannot depend on the
    /// shard count.
    fn interval_block(&mut self, cores: &mut [CoreHw]) {
        let total_accesses = self.total_accesses;
        // Apply this interval's injected faults *before* the policy
        // runs, so an OOM window actually starves the promotions
        // attempted in it.
        if let Some(injector) = self.injector.as_mut() {
            let effects = injector.effects_at(self.interval_index);
            if self.recorder.enabled() {
                for kind in &effects.started {
                    self.recorder.record(
                        total_accesses,
                        Event::FaultInjected {
                            fault: kind.label(),
                            interval: self.interval_index,
                        },
                    );
                }
            }
            for &(percent, seed) in &effects.shocks {
                self.os.phys.fragment(percent, seed);
                // The shock plants background pages no space owns;
                // re-baseline the frame accounting.
                if let Some(auditor) = self.auditor.as_mut() {
                    auditor.rebase(&self.os);
                }
            }
            if effects.pcc_reset {
                for bank in self.banks.iter_mut().flatten() {
                    bank.clear_all();
                }
            }
            if effects.shootdown_spike {
                // A shootdown storm from an interfering workload: every
                // core takes a full TLB + PWC flush, and the flush size
                // is recorded so storm cost is observable downstream.
                for (core, hw) in cores.iter_mut().enumerate() {
                    let entries_flushed = hw.tlb.resident_entries() as u64;
                    hw.tlb.flush();
                    if let Some(c) = hw.walk_cache.as_mut() {
                        c.flush();
                    }
                    // Recorded even when the recorder is disabled:
                    // `consolidation_on` tallies storms that way.
                    self.recorder.record(
                        total_accesses,
                        Event::ShootdownStorm {
                            core: CoreId(core as u32),
                            entries_flushed,
                        },
                    );
                }
            }
            self.os.phys.set_alloc_gate(AllocGate {
                deny_huge: effects.oom,
                deny_compaction: effects.compaction_stall,
            });
        }
        let (mut walks_now, mut l1_now, mut l2_now) = (0, 0, 0);
        for hw in cores.iter() {
            let s = hw.tlb.stats();
            walks_now += s.walks;
            l1_now += s.l1_hits;
            l2_now += s.l2_hits;
        }
        let da = total_accesses - self.marks.0;
        let dw = walks_now - self.marks.1;
        let dl1 = l1_now - self.marks.2;
        let dl2 = l2_now - self.marks.3;
        debug_assert_eq!(
            da, self.sim.config.promotion_interval_accesses,
            "exact boundaries: every interval covers exactly one interval of accesses"
        );
        self.marks = (total_accesses, walks_now, l1_now, l2_now);
        // Settle the ledger's view of the interval that just ended
        // *before* the policy acts: walk counts observed here are the
        // realized cost each open promotion is scored against.
        if let Some(ledger) = self.ledger.as_mut() {
            ledger.observe_interval(&drain_tallies(cores, |hw| &mut hw.region_walks));
        }
        let report = self.policy.run_interval(
            &mut self.os,
            self.banks[0].as_mut(),
            total_accesses,
            &mut self.budget,
        );
        self.promotion_failures += report.failures;
        for (rank, rec) in report.promotions.iter().enumerate() {
            let outcome = &rec.outcome;
            let p = rec.process.0 as usize;
            self.per_process[p].promotions += 1;
            self.per_process[p].pages_migrated += outcome.pages_migrated;
            self.per_process[p].pages_collapsed += outcome.pages_collapsed;
            self.schedule.push(ScheduledPromotion {
                at_access: total_accesses,
                process: rec.process,
                region: outcome.region,
            });
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.record_promotion(
                    rec.process,
                    outcome.region,
                    total_accesses,
                    rec.predicted_walks,
                );
            }
            if self.recorder.enabled() {
                self.recorder.record(
                    total_accesses,
                    Event::PromotionDecision {
                        process: rec.process,
                        region: outcome.region,
                        rank: rank as u32,
                        policy: self.policy.name(),
                        predicted_walks: rec.predicted_walks,
                    },
                );
                if outcome.pages_migrated > 0 {
                    self.recorder.record(
                        total_accesses,
                        Event::Compaction {
                            process: rec.process,
                            region: outcome.region,
                            pages_migrated: outcome.pages_migrated,
                        },
                    );
                }
            }
        }
        for (pid, region) in &report.demotions {
            self.per_process[pid.0 as usize].demotions += 1;
            if let Some(ledger) = self.ledger.as_mut() {
                ledger.record_demotion(*pid, *region);
            }
            self.recorder.record(
                total_accesses,
                Event::Demotion {
                    process: *pid,
                    region: *region,
                },
            );
        }
        if self.recorder.enabled() {
            for &(pid, region, retry_at, failures) in &report.deferred {
                self.recorder.record(
                    total_accesses,
                    Event::PromotionDeferred {
                        process: pid,
                        region,
                        retry_at,
                        failures,
                    },
                );
            }
            if report.pressure_entered {
                self.recorder.record(
                    total_accesses,
                    Event::PressureEnter {
                        free_blocks: self.os.phys.free_huge_capable_blocks(),
                        bloat_bytes: self.os.total_bloat_bytes(),
                    },
                );
            }
            if report.pressure_exited {
                self.recorder.record(
                    total_accesses,
                    Event::PressureExit {
                        free_blocks: self.os.phys.free_huge_capable_blocks(),
                    },
                );
            }
            for &(pid, bytes) in &report.bloat_recovered {
                self.recorder.record(
                    total_accesses,
                    Event::BloatRecovered {
                        process: pid,
                        bytes,
                    },
                );
            }
            for _ in 0..report.failures {
                self.recorder.record(
                    total_accesses,
                    Event::PromotionFailure {
                        reason: FailureReason::NoFrames,
                    },
                );
            }
            if report.budget_exhausted {
                self.recorder.record(
                    total_accesses,
                    Event::PromotionFailure {
                        reason: FailureReason::BudgetExhausted,
                    },
                );
            }
        }
        for (pid, region) in report.shootdown_regions() {
            let mut entries_flushed = 0u64;
            for (core, hw) in cores.iter_mut().enumerate() {
                if self.core_process[core] == pid.0 as usize {
                    entries_flushed += hw.tlb.shootdown(region) as u64;
                    if let Some(c) = hw.walk_cache.as_mut() {
                        c.invalidate_region(region);
                    }
                    self.per_process[pid.0 as usize].shootdowns += 1;
                }
            }
            self.recorder.record(
                total_accesses,
                Event::Shootdown {
                    process: pid,
                    region,
                    entries_flushed,
                },
            );
        }
        // Audit once the interval's shootdowns have been applied
        // (TLBs/PCCs must be coherent with the page tables now).
        if let Some(auditor) = self.auditor.as_ref() {
            let tlbs = cores.iter().map(|hw| &hw.tlb);
            let mut found = auditor.run(&self.os, tlbs, self.banks[0].as_ref());
            if let Some(ledger) = self.ledger.as_ref() {
                found.extend(auditor.check_ledger(ledger, |pid| self.os.spaces.get(pid)));
            }
            let interval_index = self.interval_index;
            self.audit_violations
                .extend(found.into_iter().map(|v| (interval_index, v)));
        }
        self.host_interval_block(cores);
        self.interval_index += 1;
        let row = IntervalRow {
            walk_rate: dw as f64 / da as f64,
            l1_hit_rate: dl1 as f64 / da as f64,
            l2_hit_rate: dl2 as f64 / da as f64,
            promotions: report.promotions.len() as u64,
            demotions: report.demotions.len() as u64,
            pcc_occupancy: self.banks[0]
                .as_ref()
                .map(|b| b.total_candidates() as u64)
                .unwrap_or(0),
            huge_pages_resident: self.os.phys.huge_blocks_in_use(),
            bloat_bytes: self.os.spaces.iter().map(|s| s.bloat_bytes()).sum(),
        };
        if self.recorder.enabled() {
            self.recorder.record(
                total_accesses,
                Event::Interval(interval_snapshot(
                    self.interval_series.len() as u64,
                    &row,
                    self.banks[0].as_ref(),
                    &self.os,
                )),
            );
        }
        self.interval_series.push(row);
    }

    /// The host half of a nested interval barrier: settle the host
    /// ledger, then run each VM's host promotion policy in pid order —
    /// single-threaded on fully assembled state, exactly like the guest
    /// block, so its outputs cannot depend on the shard count. A no-op
    /// in native runs (`vms` is all `None`).
    fn host_interval_block(&mut self, cores: &mut [CoreHw]) {
        if self.sim.nested.is_none() {
            return;
        }
        let total_accesses = self.total_accesses;
        // Settle realized host-walk counts before the host policy acts,
        // mirroring the guest ledger's observe-then-decide ordering.
        if let Some(ledger) = self.host_ledger.as_mut() {
            ledger.observe_interval(&drain_tallies(cores, |hw| &mut hw.host_region_walks));
        }
        for pid in 0..self.vms.len() {
            let Some(vm) = self.vms[pid].as_mut() else {
                continue;
            };
            // Host promotions are hypervisor work outside the guest
            // policy's budget; each VM gets a fresh unlimited budget.
            let mut budget = PromotionBudget::UNLIMITED;
            let report =
                vm.policy
                    .run_interval(&mut vm.os, vm.bank.as_mut(), total_accesses, &mut budget);
            self.promotion_failures += report.failures;
            for rec in &report.promotions {
                let outcome = &rec.outcome;
                self.per_process[pid].host_promotions += 1;
                self.per_process[pid].pages_migrated += outcome.pages_migrated;
                self.per_process[pid].pages_collapsed += outcome.pages_collapsed;
                if let Some(ledger) = self.host_ledger.as_mut() {
                    ledger.record_promotion(
                        ProcessId(pid as u32),
                        outcome.region,
                        total_accesses,
                        rec.predicted_walks,
                    );
                }
                if self.recorder.enabled() {
                    self.recorder.record(
                        total_accesses,
                        Event::HostPromotion {
                            process: ProcessId(pid as u32),
                            region: outcome.region,
                            predicted_walks: rec.predicted_walks,
                        },
                    );
                }
            }
            // The host ledger is keyed by the *VM's* pid, not the VM-
            // internal ProcessId(0) the report carries.
            for (_, region) in &report.demotions {
                if let Some(ledger) = self.host_ledger.as_mut() {
                    ledger.record_demotion(ProcessId(pid as u32), *region);
                }
            }
            // A host remap invalidates nested translations through the
            // remapped gPA region on every core of the VM.
            for (_, region) in report.shootdown_regions() {
                for (core, hw) in cores.iter_mut().enumerate() {
                    if let Some(WalkCache::Nested(npwc)) = hw.walk_cache.as_mut() {
                        if self.core_process[core] == pid {
                            npwc.invalidate_host_region(region);
                            self.per_process[pid].host_shootdowns += 1;
                        }
                    }
                }
            }
            if let Some(auditor) = vm.auditor.as_ref() {
                let found = auditor.run(&vm.os, std::iter::empty(), vm.bank.as_ref());
                let interval_index = self.interval_index;
                self.audit_violations
                    .extend(found.into_iter().map(|v| (interval_index, v)));
            }
        }
        // Host ledger coherence: its entries are keyed by VM pid, and
        // each VM's OsState holds the one host space they live in.
        if let (Some(auditor), Some(ledger)) = (self.auditor.as_ref(), self.host_ledger.as_ref()) {
            let vms = &self.vms;
            let found = auditor.check_ledger(ledger, |pid| {
                vms.get(pid)?.as_ref().map(|vm| &vm.os.spaces[0])
            });
            let interval_index = self.interval_index;
            self.audit_violations
                .extend(found.into_iter().map(|v| (interval_index, v)));
        }
    }

    fn finish(mut self) -> Result<SimReport, HpageError> {
        // Pull final state home: spaces for bloat, the 1 GiB bank for
        // the candidate dump, and each core's counts, which are
        // attributed to the owning process.
        let cores = self.assemble_os();
        for (core, hw) in cores.iter().enumerate() {
            let p = self.core_process[core];
            self.per_process[p] = self.per_process[p].merged(&hw.run_counters());
        }
        let aggregate = self
            .per_process
            .iter()
            .fold(RunCounters::default(), |acc, c| acc.merged(c));
        let [_, bank_1g] = self.banks;
        let candidates_1g = bank_1g
            .map(|b| {
                b.dump_by_frequency()
                    .into_iter()
                    .map(|c| c.candidate)
                    .collect()
            })
            .unwrap_or_default();
        let bloat_bytes: Vec<u64> = self.os.spaces.iter().map(|s| s.bloat_bytes()).collect();
        let policy = match self.sim.nested.as_ref() {
            Some(nc) => format!("{}+nested-{}", self.sim.policy.label(), nc.placement),
            None => self.sim.policy.label(),
        };
        Ok(SimReport {
            policy,
            aggregate,
            per_process: self.per_process,
            huge_pages_at_end: self.os.phys.huge_blocks_in_use(),
            promotion_failures: self.promotion_failures,
            candidates_1g,
            schedule: self.schedule,
            interval_walk_rates: self.interval_series.walk_rates(),
            interval_series: self.interval_series,
            bloat_bytes,
            fault_stats: self.injector.map(|i| *i.stats()),
            audit_violations: self.audit_violations,
            ledger: self.ledger,
            host_ledger: self.host_ledger,
        })
    }
}

/// Builds the bank of per-core PCCs at `size` for the policies that
/// feed one; the 1 GiB bank also needs `SystemConfig::pcc_1g`. A victim
/// cache (§5.4.1 ablation) is structurally a PCC bank fed by L2
/// evictions with no accessed-bit filter: evictions are evidence of
/// prior residence, so the cold-miss problem does not arise. Its 2 MiB
/// bank takes the victim cache's entry count; the 1 GiB bank keeps its
/// own sizing.
fn pcc_bank(sim: &Simulation, size: PageSize, cores: u32) -> Option<PccBank> {
    let victim_entries = sim.policy.uses_victim_cache();
    if !sim.policy.uses_pcc() && victim_entries.is_none() {
        return None;
    }
    let mut cfg = match size {
        PageSize::Huge1G => sim.config.pcc_1g?,
        _ => sim.config.pcc_2m,
    };
    if let Some(entries) = victim_entries {
        if size == PageSize::Huge2M {
            cfg = cfg.with_entries(entries);
        }
        cfg.access_bit_filter = false;
    }
    Some(PccBank::with_replacement(cores, cfg, size, sim.replacement))
}

/// Drains one ledger tally out of every core into a single map, summed
/// by key.
fn drain_tallies(cores: &mut [CoreHw], tally: fn(&mut CoreHw) -> &mut RegionWalks) -> RegionWalks {
    let mut sum = RegionWalks::default();
    for hw in cores {
        for (key, walks) in tally(hw).drain() {
            *sum.entry(key).or_insert(0) += walks;
        }
    }
    sum
}

/// Takes `core`'s PCC out of each bank the run has.
fn take_pccs(banks: &mut [Option<PccBank>; 2], core: usize) -> [Option<Pcc>; 2] {
    let id = CoreId(core as u32);
    banks.each_mut().map(|b| b.as_mut().map(|b| b.take(id)))
}

/// Entry point: builds the shard partition and drives the run.
pub(crate) fn run<R: Recorder>(
    sim: &Simulation,
    processes: &[ProcessSpec<'_>],
    recorder: &mut R,
) -> Result<SimReport, HpageError> {
    assert!(!processes.is_empty(), "need at least one process");
    let total_cores: u32 = processes.iter().map(|p| p.threads).sum();
    let n_cores = total_cores as usize;

    // Core placement: process p's threads occupy consecutive cores.
    let mut core_process: Vec<usize> = Vec::with_capacity(n_cores);
    for (pi, spec) in processes.iter().enumerate() {
        core_process.extend(std::iter::repeat_n(pi, spec.threads as usize));
    }

    let mut phys = PhysicalMemory::new(sim.config.phys_mem_bytes);
    if sim.fragmentation_pct > 0 {
        phys.fragment(sim.fragmentation_pct, sim.fragmentation_seed);
    }
    let mut os = OsState::new(phys, processes.len() as u32, core_process.clone())?;
    let mut policy = sim.policy.build(&sim.config);
    if let Some(cfg) = sim.degradation {
        policy.configure_degradation(cfg);
    }
    let prefer_huge = policy.fault_prefers_huge();
    let injector = match sim.faults.clone() {
        Some(plan) => Some(FaultInjector::new(plan)?),
        None => None,
    };
    let auditor = sim.audit.then(|| Auditor::new(&os));
    let ledger = sim.ledger.then(PromotionLedger::new);

    let mut banks = PCC_SIZES.map(|size| pcc_bank(sim, size, total_cores));

    // Shard partition: every core of a process lands on the shard that
    // owns the process's address space. The shared-LLC cache model
    // couples all cores, so it forces one shard.
    let requested = sim.sim_threads.max(1);
    let shard_count = if sim.cache.is_some() {
        1
    } else {
        requested.min(processes.len())
    };
    let process_shard: Vec<usize> = (0..processes.len()).map(|pi| pi % shard_count).collect();

    let flags = WorkerFlags {
        prefer_huge,
        victim_mode: sim.policy.uses_victim_cache().is_some(),
        ledger_on: sim.ledger,
        recorder_on: recorder.enabled(),
    };
    // One CPU per shard thread; cores then get trace producers, in core
    // order, while the process has CPUs to spare. Both claims outlive
    // the scope, so the CPUs are busy until every thread has joined.
    let _busy = cpus::claim_busy(shard_count);
    let spare = cpus::claim_spare(n_cores);
    thread::scope(|scope| {
        let mut workers: Vec<ShardWorker<'_>> = (0..shard_count)
            .map(|_| ShardWorker {
                seats: Vec::new(),
                processes: Vec::new(),
                caches: None,
                flags,
            })
            .collect();
        if let Some(c) = sim.cache {
            workers[0].caches = Some(CacheHierarchy::new(c, total_cores));
        }
        for pid in 0..processes.len() {
            let placeholder = AddressSpace::new(ProcessId(pid as u32));
            let space = std::mem::replace(&mut os.spaces[pid], placeholder);
            let vm = match sim.nested.as_ref() {
                Some(nc) => Some(NestedVm::new(sim, nc, pid)?),
                None => None,
            };
            workers[process_shard[pid]].processes.push((pid, space, vm));
        }

        let mut core_shard = vec![0usize; n_cores];
        let mut core = 0usize;
        for (pi, spec) in processes.iter().enumerate() {
            let shard = process_shard[pi];
            for t in 0..spec.threads {
                core_shard[core] = shard;
                let worker = &mut workers[shard];
                let process_slot = worker
                    .processes
                    .iter()
                    .position(|(p, ..)| *p == pi)
                    .expect("space placed before seats");
                let trace: Box<dyn TraceStream + Send> = if core < spare.cpus() {
                    let source = spec.workload.thread_source(t, spec.threads);
                    Box::new(SourceStream::new(Producer::spawn(scope, source)))
                } else {
                    spec.workload.thread_stream(t, spec.threads)
                };
                worker.seats.push(CoreSeat {
                    core,
                    pid: pi,
                    process_slot,
                    trace,
                    hw: Some(CoreHw {
                        tlb: TlbHierarchy::new(sim.config.tlb),
                        walk_cache: match sim.nested.as_ref() {
                            Some(nc) => Some(WalkCache::Nested(Box::new(NestedPwc::new(nc)))),
                            None => sim
                                .config
                                .pwc
                                .map(|c| WalkCache::Native(PageWalkCache::new(c))),
                        },
                        pccs: take_pccs(&mut banks, core),
                        counters: RunCounters::default(),
                        region_walks: RegionWalks::default(),
                        host_region_walks: RegionWalks::default(),
                    }),
                    pos: 0,
                    pending_grant: None,
                    in_round: false,
                    events: Vec::new(),
                    unused_grants: Vec::new(),
                    host_scratch: Vec::new(),
                });
                core += 1;
            }
        }

        let budget = sim.max_accesses_per_core.unwrap_or(u64::MAX);
        let mut coordinator = Coordinator {
            sim,
            recorder,
            shards: Vec::with_capacity(shard_count),
            core_shard,
            core_process,
            process_shard,
            os,
            policy,
            injector,
            auditor,
            audit_violations: Vec::new(),
            ledger,
            vms: (0..processes.len()).map(|_| None).collect(),
            host_ledger: (sim.ledger && sim.nested.is_some()).then(PromotionLedger::new),
            banks,
            // A zero budget retires every core before the first round.
            remaining: vec![budget; n_cores],
            live: vec![budget > 0; n_cores],
            live_count: if budget > 0 { n_cores } else { 0 },
            per_process: vec![RunCounters::default(); processes.len()],
            budget: sim.budget,
            total_accesses: 0,
            next_interval: sim.config.promotion_interval_accesses,
            promotion_failures: 0,
            schedule: PromotionSchedule::default(),
            interval_series: IntervalSeries::new(),
            marks: (0, 0, 0, 0),
            interval_index: 0,
            scratch: RoundScratch::default(),
        };

        // Shard 0 runs on this thread, between the coordinator's sends
        // and its reads; every other shard gets a worker thread.
        let coordinator_thread = thread::current();
        let mut workers = workers.into_iter();
        coordinator.shards.push(Shard::Inline {
            worker: Box::new(workers.next().expect("at least one shard")),
            queued: VecDeque::new(),
        });
        for worker in workers {
            let (to_worker, worker_rx) = handoff::<ToShard>();
            let (from_worker, coordinator_rx) = handoff::<FromShard>();
            let worker_tx = HandoffTx {
                slot: from_worker,
                receiver: coordinator_thread.clone(),
            };
            let handle = scope.spawn(move || worker_main(worker, worker_rx, worker_tx));
            coordinator.shards.push(Shard::Threaded {
                tx: HandoffTx {
                    slot: to_worker,
                    receiver: handle.thread().clone(),
                },
                rx: coordinator_rx,
            });
        }
        // Returning drops the coordinator and with it every seat, which
        // ends each producer before the scope joins it, also when the
        // run stops early on an error or the access budget.
        coordinator.run_to_completion()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Runs `f` on a thread of its own and fails the test if it has not
    /// finished after a minute, so a lost wake-up fails instead of
    /// hanging the test run. A panic in `f` is re-raised here.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = done_tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("the handoff hung"),
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn handoff_delivers_in_send_order() {
        let got = within_a_minute(|| {
            let (slot, mut rx) = handoff::<u32>();
            let tx = HandoffTx {
                slot,
                receiver: thread::current(),
            };
            for i in 0..5 {
                tx.send(i);
            }
            drop(tx);
            // Messages sent before the close still arrive, then `None`.
            std::iter::from_fn(|| rx.recv()).collect::<Vec<u32>>()
        });
        assert_eq!(got, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn handoff_wakes_a_parked_receiver() {
        let waited = within_a_minute(|| {
            let (slot, mut rx) = handoff::<u32>();
            let receiver = thread::current();
            let sender = thread::spawn(move || {
                let tx = HandoffTx { slot, receiver };
                // Far past the spin bound: the receiver is parked by now.
                thread::sleep(Duration::from_millis(50));
                tx.send(7);
                tx // keep the slot open until the receiver is done
            });
            let t0 = Instant::now();
            assert_eq!(rx.recv(), Some(7));
            let waited = t0.elapsed();
            let _tx = sender.join().expect("sender thread");
            waited
        });
        assert!(waited >= Duration::from_millis(50));
    }

    #[test]
    fn handoff_round_trips_keep_order_across_spin_and_park() {
        within_a_minute(|| {
            let (to_peer, mut peer_rx) = handoff::<u64>();
            let (from_peer, mut rx) = handoff::<u64>();
            let me = thread::current();
            let peer = thread::spawn(move || {
                let tx = HandoffTx {
                    slot: from_peer,
                    receiver: me,
                };
                while let Some(n) = peer_rx.recv() {
                    if n % 1000 == 0 {
                        // Make the other side run out of spins.
                        thread::sleep(Duration::from_millis(1));
                    }
                    tx.send(n * 2);
                }
            });
            let tx = HandoffTx {
                slot: to_peer,
                receiver: peer.thread().clone(),
            };
            for n in 0..5000 {
                tx.send(n);
                assert_eq!(rx.recv(), Some(n * 2));
            }
            drop(tx);
            peer.join().expect("peer exits once the slot closes");
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn a_peer_panic_mid_round_closes_the_slot() {
        within_a_minute(|| {
            let (to_peer, mut peer_rx) = handoff::<u32>();
            let (from_peer, mut rx) = handoff::<u32>();
            let me = thread::current();
            let peer = thread::spawn(move || {
                let tx = HandoffTx {
                    slot: from_peer,
                    receiver: me,
                };
                let first = peer_rx.recv().expect("first request");
                tx.send(first + 1);
                let _second = peer_rx.recv();
                panic!("peer dies mid-round");
            });
            let tx = HandoffTx {
                slot: to_peer,
                receiver: peer.thread().clone(),
            };
            tx.send(1);
            assert_eq!(rx.recv(), Some(2));
            tx.send(2);
            // The unwinding peer drops its sending end: the waiter wakes
            // to a closed slot instead of parking forever.
            assert_eq!(rx.recv(), None);
            assert!(peer.join().is_err());
        });
    }

    #[test]
    fn a_worker_panic_mid_round_panics_the_coordinator() {
        let msg = within_a_minute(|| {
            let (to_worker, mut worker_rx) = handoff::<ToShard>();
            let (from_worker, coordinator_rx) = handoff::<FromShard>();
            let me = thread::current();
            let worker = thread::spawn(move || {
                let _tx = HandoffTx {
                    slot: from_worker,
                    receiver: me,
                };
                let _msg = worker_rx.recv();
                panic!("shard worker failed mid-round");
            });
            let mut shard = Shard::Threaded {
                tx: HandoffTx {
                    slot: to_worker,
                    receiver: worker.thread().clone(),
                },
                rx: coordinator_rx,
            };
            shard.send(ToShard::TakeOs);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| shard.recv()))
                .err()
                .expect("recv from a dead worker panics");
            assert!(worker.join().is_err());
            panic_message(payload.as_ref())
        });
        assert!(msg.contains("shard worker alive"), "payload: {msg:?}");
    }
}
