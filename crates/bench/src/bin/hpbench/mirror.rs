//! A mirror of the simulation engine for runs whose processes are all
//! single-threaded, written as one plain loop.
//!
//! It calls the same public layer functions the engine calls, in the
//! same order: `next_window` in windows of at most 256 accesses cut at
//! interval boundaries, `TlbHierarchy::lookup` and `fill`,
//! `PageTable::walk`, `AddressSpace::{fault_wants_huge, allocate_grant,
//! install_grant}` with faults served in waves in core order,
//! `Pcc::record_walk` batched per window, and at every interval
//! `HugePagePolicy::run_interval` followed by the TLB shootdowns. Its
//! counters must therefore equal the engine's report; when they do not,
//! the engine's barrier protocol changed what it simulates.
//!
//! With `TRACE` on, the loop times every layer from the outside: every
//! window fetch, PCC batch, fault and interval gets a span, and one in
//! [`SAMPLE_EVERY`] calls to lookup, fill and walk (picked by a
//! fixed-seed sampler) gets a span that, less the cost of its clock
//! reads, stands for that many calls. A sampled span longer than
//! [`INTERRUPTED_S`] timed the host, not the call, and is left out.
//! With `TRACE` off the timing code compiles out.

use std::time::Instant;

use hpage_os::{
    AddressSpace, BasePagesPolicy, FaultGrant, FaultOutcome, HawkEyePolicy, HugePagePolicy,
    LinuxThpPolicy, OsState, PccPolicy, PhysicalMemory, PromotionBudget,
};
use hpage_pcc::{Pcc, PccBank, ReplacementPolicy};
use hpage_perf::RunCounters;
use hpage_sim::{PolicyChoice, SimReport};
use hpage_tlb::{TlbHierarchy, TlbOutcome};
use hpage_trace::TraceStream;
use hpage_types::{CoreId, HpageError, PageSize, Vpn};

use crate::workloads::CellSpec;

/// The engine's per-core window: accesses per core per round.
const WINDOW: u64 = 256;

/// One sampled lookup, fill or walk span stands for this many calls.
pub const SAMPLE_EVERY: f64 = 64.0;

/// A sampled span longer than this was interrupted: a lookup, fill or
/// walk takes well under a microsecond, while the host descheduling the
/// process takes milliseconds, which one span multiplied by
/// [`SAMPLE_EVERY`] would charge to the layer as most of a second. Such
/// a span is left out, so its time lands in `sim.unattributed_s`.
const INTERRUPTED_S: f64 = 50e-6;

/// Calls and self time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub self_s: f64,
}

/// Per-layer spans of one traced mirror run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub next_window: Span,
    pub lookup: Span,
    pub fill: Span,
    pub walk: Span,
    /// One span per window batch; `calls` counts `record_walk` calls.
    pub record_walk: Span,
    /// `fault_wants_huge`, `allocate_grant` and `install_grant` of each
    /// fault; `calls` counts faults.
    pub fault: Span,
    /// `run_interval` plus the shootdowns it asks for.
    pub interval: Span,
    /// Building the run's state: physical memory and its fragmentation,
    /// address spaces, policy, PCC bank, TLBs and trace streams.
    pub run_setup: Span,
    /// Dropping that state at the end of the run.
    pub run_teardown: Span,
    /// Accesses that touch the same 4 KiB page as their core's previous
    /// access.
    pub same_page: u64,
}

impl Ledger {
    /// Every span with the name its metrics carry.
    pub fn spans(&self) -> [(&'static str, Span); 9] {
        [
            ("trace.next_window", self.next_window),
            ("tlb.lookup", self.lookup),
            ("tlb.fill", self.fill),
            ("walk", self.walk),
            ("pcc.record_walk", self.record_walk),
            ("os.fault", self.fault),
            ("os.interval", self.interval),
            ("sim.run_setup", self.run_setup),
            ("sim.run_teardown", self.run_teardown),
        ]
    }

    /// Sum of every layer's self time.
    pub fn attributed_s(&self) -> f64 {
        self.spans().iter().map(|(_, s)| s.self_s).sum()
    }

    /// Adds `other`'s spans and counts to these.
    pub fn add(&mut self, other: &Ledger) {
        let spans = [
            &mut self.next_window,
            &mut self.lookup,
            &mut self.fill,
            &mut self.walk,
            &mut self.record_walk,
            &mut self.fault,
            &mut self.interval,
            &mut self.run_setup,
            &mut self.run_teardown,
        ];
        for (into, (_, span)) in spans.into_iter().zip(other.spans()) {
            into.calls += span.calls;
            into.self_s += span.self_s;
        }
        self.same_page += other.same_page;
    }
}

/// Picks one call in [`SAMPLE_EVERY`] on average: gaps between sampled
/// calls are drawn uniformly from `1..=127` by a fixed-seed xorshift.
#[derive(Debug, Clone)]
struct Sampler {
    state: u64,
    left: u32,
}

impl Sampler {
    fn new(seed: u64) -> Sampler {
        let mut s = Sampler {
            state: seed | 1,
            left: 0,
        };
        s.left = s.gap();
        s
    }

    fn gap(&mut self) -> u32 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        (self.state % 127) as u32 + 1
    }

    #[inline(always)]
    fn due(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.gap();
            true
        } else {
            false
        }
    }
}

/// Span bookkeeping for one mirror run.
struct Probe {
    ledger: Ledger,
    lookups: Sampler,
    fills: Sampler,
    walks: Sampler,
}

/// Times `f` when the sampler picks this call; counts every call.
///
/// A sampled call's span is preceded by an empty one, which measures in
/// place what the clock reads themselves cost. The cost of a read drifts
/// with the host's load by more than a lookup takes, so a cost
/// calibrated once per process would bias every layer's self time.
#[inline(always)]
fn sampled<const TRACE: bool, T>(
    span: &mut Span,
    sampler: &mut Sampler,
    f: impl FnOnce() -> T,
) -> T {
    if !TRACE {
        return f();
    }
    span.calls += 1;
    if sampler.due() {
        let before = Instant::now();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (cost, took) = ((start - before).as_secs_f64(), (end - start).as_secs_f64());
        if took < INTERRUPTED_S {
            span.self_s += (took - cost) * SAMPLE_EVERY;
        }
        out
    } else {
        f()
    }
}

/// Times every call of `f`.
#[inline(always)]
fn timed<const TRACE: bool, T>(span: &mut Span, f: impl FnOnce() -> T) -> T {
    if !TRACE {
        return f();
    }
    let t = Instant::now();
    let out = f();
    span.self_s += t.elapsed().as_secs_f64();
    out
}

/// What a mirror run counted.
#[derive(Debug, Clone)]
pub struct MirrorReport {
    pub counters: RunCounters,
    pub huge_pages_at_end: u64,
    pub promotion_failures: u64,
    /// Empty unless the run was traced.
    pub ledger: Ledger,
}

impl MirrorReport {
    /// Compares the mirror's counters with an engine report of the same
    /// run; describes every difference.
    pub fn mismatches(&self, engine: &SimReport) -> Vec<String> {
        let m = &self.counters;
        let e = &engine.aggregate;
        let fields = [
            ("accesses", m.accesses, e.accesses),
            ("l1_hits", m.l1_hits, e.l1_hits),
            ("l2_hits", m.l2_hits, e.l2_hits),
            ("walks", m.walks, e.walks),
            ("walk_levels", m.walk_levels, e.walk_levels),
            ("faults_base", m.faults_base, e.faults_base),
            ("faults_huge", m.faults_huge, e.faults_huge),
            ("promotions", m.promotions, e.promotions),
            ("demotions", m.demotions, e.demotions),
            ("pages_migrated", m.pages_migrated, e.pages_migrated),
            ("pages_collapsed", m.pages_collapsed, e.pages_collapsed),
            ("shootdowns", m.shootdowns, e.shootdowns),
            (
                "huge_pages_at_end",
                self.huge_pages_at_end,
                engine.huge_pages_at_end,
            ),
            (
                "promotion_failures",
                self.promotion_failures,
                engine.promotion_failures,
            ),
        ];
        fields
            .iter()
            .filter(|(_, mine, theirs)| mine != theirs)
            .map(|(name, mine, theirs)| format!("{name}: mirror {mine}, engine {theirs}"))
            .collect()
    }
}

/// One simulated core: its process's trace and private translation
/// state. Every process runs on exactly one core, so core `c` runs
/// process `c`.
struct Core<'w> {
    trace: Box<dyn TraceStream + Send + 'w>,
    tlb: TlbHierarchy,
    /// Out of the bank between interval barriers, as in the engine.
    pcc: Option<Pcc>,
    /// `(region, accessed bit)` per walk, replayed into the PCC when the
    /// window completes.
    feed: Vec<(Vpn, bool)>,
    remaining: u64,
    live: bool,
    len: usize,
    pos: usize,
    pending: Option<FaultGrant>,
    prev_page: u64,
}

/// Builds the policy `choice` names, the way the engine's own factory
/// does, from the public policy constructors.
fn build_policy(choice: &PolicyChoice, spec: &CellSpec) -> Result<Box<dyn HugePagePolicy>, String> {
    let config = &spec.config;
    Ok(match choice {
        PolicyChoice::BasePages => Box::new(BasePagesPolicy),
        PolicyChoice::LinuxThp => {
            Box::new(LinuxThpPolicy::new().with_pages_per_scan(config.scanner_pages_per_interval))
        }
        PolicyChoice::HawkEye => {
            Box::new(HawkEyePolicy::new().with_pages_per_scan(config.scanner_pages_per_interval))
        }
        PolicyChoice::Pcc {
            selection,
            demotion,
            bias,
        } => Box::new(
            PccPolicy::new(*selection, config.regions_to_promote)
                .with_bias(bias.clone())
                .with_demotion(*demotion),
        ),
        PolicyChoice::IdealHuge | PolicyChoice::Replay(_) | PolicyChoice::VictimCache { .. } => {
            return Err(format!(
                "{}: the mirror does not model this policy",
                spec.label
            ))
        }
    })
}

/// Runs `spec` through the mirror. `seed` seeds the span sampler.
pub fn run<const TRACE: bool>(spec: &CellSpec, seed: u64) -> Result<MirrorReport, String> {
    let config = &spec.config;
    if config.pcc_1g.is_some() || config.pwc.is_some() {
        return Err(format!(
            "{}: the mirror models neither the 1 GiB PCC nor a page-walk cache",
            spec.label
        ));
    }
    let started = TRACE.then(Instant::now);
    let mut policy = build_policy(&spec.policy, spec)?;
    let prefer_huge = policy.fault_prefers_huge();
    let n = spec.processes.len();
    let mut phys = PhysicalMemory::new(config.phys_mem_bytes);
    if let Some((pct, frag_seed)) = spec.fragmentation {
        if pct > 0 {
            phys.fragment(pct, frag_seed);
        }
    }
    let fail = |e: HpageError| format!("{}: {e}", spec.label);
    let mut os = OsState::new(phys, n as u32, (0..n).collect()).map_err(fail)?;
    let mut bank = matches!(spec.policy, PolicyChoice::Pcc { .. }).then(|| {
        PccBank::with_replacement(
            n as u32,
            config.pcc_2m,
            PageSize::Huge2M,
            ReplacementPolicy::default(),
        )
    });
    let mut cores: Vec<Core<'_>> = spec
        .processes
        .iter()
        .enumerate()
        .map(|(c, w)| Core {
            trace: w.thread_stream(0, 1),
            tlb: TlbHierarchy::new(config.tlb),
            pcc: bank.as_mut().map(|b| b.take(CoreId(c as u32))),
            feed: Vec::new(),
            remaining: spec.max_accesses_per_core.unwrap_or(u64::MAX),
            live: true,
            len: 0,
            pos: 0,
            pending: None,
            prev_page: u64::MAX,
        })
        .collect();
    let mut probe = Probe {
        ledger: Ledger::default(),
        lookups: Sampler::new(seed ^ 0x6c6f6f6b),
        fills: Sampler::new(seed ^ 0x66696c6c),
        walks: Sampler::new(seed ^ 0x77616c6b),
    };
    let mut counters = RunCounters::default();
    let mut budget = PromotionBudget::UNLIMITED;
    let mut promotion_failures = 0u64;
    let interval = config.promotion_interval_accesses;
    let mut total = 0u64;
    let mut next_interval = interval;
    let mut live = n;
    let mut waiting: Vec<usize> = Vec::with_capacity(n);
    let mut requests: Vec<(usize, bool)> = Vec::with_capacity(n);
    if let Some(t) = started {
        probe.ledger.run_setup.self_s += t.elapsed().as_secs_f64();
        probe.ledger.run_setup.calls += 1;
    }
    while live > 0 {
        // Windows: quotas truncate in core order so a round never
        // crosses the next interval boundary.
        let mut left = next_interval - total;
        let mut round = 0u64;
        waiting.clear();
        for (c, core) in cores.iter_mut().enumerate() {
            if !core.live {
                continue;
            }
            let quota = WINDOW.min(core.remaining).min(left);
            left -= quota;
            if quota == 0 {
                continue;
            }
            let got = timed::<TRACE, _>(&mut probe.ledger.next_window, || {
                core.trace.next_window(quota as usize).len() as u64
            });
            if TRACE {
                probe.ledger.next_window.calls += 1;
            }
            core.len = got as usize;
            core.pos = 0;
            core.remaining -= got;
            if got < quota || core.remaining == 0 {
                core.live = false;
                live -= 1;
            }
            if got > 0 {
                waiting.push(c);
                round += got;
            }
        }
        if round == 0 {
            continue;
        }
        // Execute, serving page faults in waves: every core runs to its
        // first unserved fault, then frames are allocated in core order.
        loop {
            requests.clear();
            for &c in &waiting {
                let space = &mut os.spaces[c];
                let paused =
                    run_core::<TRACE>(&mut cores[c], space, prefer_huge, &mut counters, &mut probe)
                        .map_err(fail)?;
                if let Some(wants_huge) = paused {
                    requests.push((c, wants_huge));
                }
            }
            if requests.is_empty() {
                break;
            }
            waiting.clear();
            for &(c, wants_huge) in &requests {
                let grant = timed::<TRACE, _>(&mut probe.ledger.fault, || {
                    AddressSpace::allocate_grant(&mut os.phys, wants_huge)
                })
                .map_err(fail)?;
                cores[c].pending = Some(grant);
                waiting.push(c);
            }
        }
        total += round;
        if total == next_interval {
            next_interval += interval;
            let t = TRACE.then(Instant::now);
            if let Some(bank) = bank.as_mut() {
                for (c, core) in cores.iter_mut().enumerate() {
                    bank.restore(CoreId(c as u32), core.pcc.take().expect("PCC out of bank"));
                }
            }
            let report = policy.run_interval(&mut os, bank.as_mut(), total, &mut budget);
            promotion_failures += report.failures;
            for rec in &report.promotions {
                counters.promotions += 1;
                counters.pages_migrated += rec.outcome.pages_migrated;
                counters.pages_collapsed += rec.outcome.pages_collapsed;
            }
            counters.demotions += report.demotions.len() as u64;
            for (pid, region) in report.shootdown_regions() {
                cores[pid.0 as usize].tlb.shootdown(region);
                counters.shootdowns += 1;
            }
            if let Some(bank) = bank.as_mut() {
                for (c, core) in cores.iter_mut().enumerate() {
                    core.pcc = Some(bank.take(CoreId(c as u32)));
                }
            }
            if let Some(t) = t {
                probe.ledger.interval.self_s += t.elapsed().as_secs_f64();
                probe.ledger.interval.calls += 1;
            }
        }
    }
    let huge_pages_at_end = os.phys.huge_blocks_in_use();
    let mut ledger = probe.ledger;
    timed::<TRACE, _>(&mut ledger.run_teardown, || drop((cores, os, policy, bank)));
    if TRACE {
        ledger.run_teardown.calls += 1;
    }
    Ok(MirrorReport {
        counters,
        huge_pages_at_end,
        promotion_failures,
        ledger,
    })
}

/// Runs core `core` from its position until its window ends (`Ok(None)`)
/// or it page-faults (`Ok(Some(wants_huge))`). A core resumed with a
/// granted frame installs it and retries the walk without a second
/// lookup, as the engine does.
fn run_core<const TRACE: bool>(
    core: &mut Core<'_>,
    space: &mut AddressSpace,
    prefer_huge: bool,
    counters: &mut RunCounters,
    probe: &mut Probe,
) -> Result<Option<bool>, HpageError> {
    let Core {
        trace,
        tlb,
        pcc,
        feed,
        len,
        pos,
        pending,
        prev_page,
        ..
    } = core;
    let Probe {
        ledger,
        lookups,
        fills,
        walks,
    } = probe;
    let window = trace.window();
    let mut resume_walk = false;
    if let Some(grant) = pending.take() {
        let addr = window[*pos].addr;
        let out = timed::<TRACE, _>(&mut ledger.fault, || space.install_grant(addr, grant))?;
        match out {
            FaultOutcome::Base(_) => counters.faults_base += 1,
            FaultOutcome::Huge(_) => counters.faults_huge += 1,
        }
        resume_walk = true;
    }
    while *pos < *len {
        let addr = window[*pos].addr;
        let walked = if resume_walk {
            resume_walk = false;
            Some(sampled::<TRACE, _>(&mut ledger.walk, walks, || {
                space.page_table_mut().walk(addr)
            })?)
        } else {
            if TRACE {
                let page = addr.raw() >> 12;
                if page == *prev_page {
                    ledger.same_page += 1;
                }
                *prev_page = page;
            }
            match sampled::<TRACE, _>(&mut ledger.lookup, lookups, || tlb.lookup(addr)) {
                TlbOutcome::L1Hit(_) => {
                    counters.l1_hits += 1;
                    None
                }
                TlbOutcome::L2Hit(_) => {
                    counters.l2_hits += 1;
                    None
                }
                TlbOutcome::Miss => {
                    counters.walks += 1;
                    let walk = sampled::<TRACE, _>(&mut ledger.walk, walks, || {
                        space.page_table_mut().walk(addr)
                    });
                    match walk {
                        Ok(w) => Some(w),
                        Err(_) => {
                            // Page fault: the page-table half of the
                            // decision runs here, the frame comes from
                            // the next wave.
                            let wants_huge = timed::<TRACE, _>(&mut ledger.fault, || {
                                space.fault_wants_huge(addr, prefer_huge)
                            });
                            if TRACE {
                                ledger.fault.calls += 1;
                            }
                            return Ok(Some(wants_huge));
                        }
                    }
                }
            }
        };
        if let Some(w) = walked {
            counters.walk_levels += u64::from(w.levels_referenced);
            sampled::<TRACE, _>(&mut ledger.fill, fills, || tlb.fill(w.translation));
            if pcc.is_some() && w.translation.size() != PageSize::Huge1G {
                feed.push((addr.vpn(PageSize::Huge2M), w.pmd_accessed_before));
            }
        }
        counters.accesses += 1;
        *pos += 1;
    }
    // Window complete: replay the batched accessed-bit harvest. The span
    // covers the step even when the policy has no PCC.
    timed::<TRACE, _>(&mut ledger.record_walk, || {
        if let Some(pcc) = pcc.as_mut() {
            for &(region, a_bit) in feed.iter() {
                pcc.record_walk(region, a_bit);
            }
        }
    });
    if TRACE {
        ledger.record_walk.calls += feed.len() as u64;
    }
    feed.clear();
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::test_support::{synthetic, tiny_spec as spec};

    fn engine(spec: &CellSpec) -> SimReport {
        spec.run_recorded(1, &mut hpage_sim::NullRecorder)
            .expect("engine run")
    }

    fn assert_mirrors(spec: &CellSpec) -> MirrorReport {
        let report = engine(spec);
        for traced in [false, true] {
            let mirror = if traced {
                run::<true>(spec, 1)
            } else {
                run::<false>(spec, 1)
            }
            .expect("mirror run");
            assert_eq!(mirror.mismatches(&report), Vec::<String>::new());
        }
        let intervals = report.aggregate.accesses / spec.config.promotion_interval_accesses;
        assert!(intervals >= 3, "only {intervals} intervals");
        run::<true>(spec, 1).expect("mirror run")
    }

    #[test]
    fn mirror_equals_engine_under_base_pages() {
        let m = assert_mirrors(&spec(PolicyChoice::BasePages, vec![synthetic(3)]));
        assert_eq!(m.counters.promotions, 0);
        assert!(m.counters.walks > 0 && m.counters.faults_base > 0);
        assert_eq!(m.ledger.record_walk.calls, 0);
    }

    #[test]
    fn mirror_equals_engine_under_pcc() {
        let m = assert_mirrors(&spec(PolicyChoice::pcc_default(), vec![synthetic(3)]));
        assert!(m.counters.promotions > 0, "the PCC should promote");
        assert_eq!(m.counters.shootdowns, m.counters.promotions);
        assert!(m.ledger.record_walk.calls > 0);
        assert_eq!(m.ledger.interval.calls, m.counters.accesses / 50_000);
    }

    #[test]
    fn mirror_equals_engine_with_tenants_and_fragmentation() {
        let mut s = spec(
            PolicyChoice::pcc_default(),
            vec![synthetic(3), synthetic(4), synthetic(5)],
        );
        s.fragmentation = Some((50, 9));
        s.max_accesses_per_core = Some(250_000);
        let m = assert_mirrors(&s);
        assert_eq!(m.counters.accesses, 750_000);
    }

    #[test]
    fn mirror_equals_engine_under_scanning_policies() {
        for policy in [PolicyChoice::LinuxThp, PolicyChoice::HawkEye] {
            let mut s = spec(policy, vec![synthetic(3), synthetic(4)]);
            s.fragmentation = Some((50, 9));
            let m = assert_mirrors(&s);
            assert!(m.counters.promotions + m.counters.faults_huge > 0);
        }
    }

    #[test]
    fn traced_counts_match_untraced_work() {
        let s = spec(PolicyChoice::pcc_default(), vec![synthetic(3)]);
        let m = run::<true>(&s, 1).expect("mirror");
        let l = &m.ledger;
        let c = &m.counters;
        assert_eq!(l.lookup.calls, c.accesses);
        assert_eq!(l.walk.calls, c.walks + c.faults_base + c.faults_huge);
        assert_eq!(l.fill.calls, c.walks);
        assert_eq!(l.fault.calls, c.faults_base + c.faults_huge);
        // Windows are cut at interval boundaries, and the last call finds
        // the trace dry.
        assert!(l.next_window.calls > c.accesses.div_ceil(WINDOW));
        assert!(l.same_page <= c.accesses);
    }

    #[test]
    fn interrupted_samples_are_not_attributed() {
        let (mut span, mut sampler) = (Span::default(), Sampler::new(42));
        for _ in 0..256 {
            sampled::<true, _>(&mut span, &mut sampler, || {
                std::thread::sleep(std::time::Duration::from_micros(60))
            });
        }
        assert_eq!((span.calls, span.self_s), (256, 0.0));
    }

    #[test]
    fn sampler_gaps_average_sample_every() {
        let mut s = Sampler::new(42);
        let picked = (0..640_000).filter(|_| s.due()).count() as f64;
        assert!((picked - 10_000.0).abs() < 300.0, "picked {picked}");
    }
}
