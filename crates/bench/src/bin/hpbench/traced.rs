//! The traced pass: the per-layer metrics of one workload.
//!
//! It runs in a process of its own, after setup:
//!
//! 1. one harness run of the workload (cell count and timings), after
//!    which peak RSS is read, so it covers setup plus one engine run;
//! 2. three alternations over the workload's cells of the engine on one
//!    shard thread, the untraced mirror and the traced mirror;
//! 3. one engine run of each cell on two shard threads, and one with a
//!    counting recorder.
//!
//! The spans reported are those of the alternation whose traced mirror
//! time is the median, so its layer self times plus `sim.unattributed_s`
//! add up to `sim.traced_wall_s`.

use hpage_perf::RunCounters;
use hpage_sim::{Event, NullRecorder, Recorder, SimReport};

use crate::host;
use crate::mirror::{self, Ledger, MirrorReport};
use crate::report::{Metric, WorkloadReport};
use crate::stats::{median, summarize};
use crate::workloads::{digest, CellSpec, DigestCheck, Setup};
use crate::{catch, timed_s};

/// Engine and mirror runs are alternated this many times.
const ALTERNATIONS: usize = 3;

/// Counts recorded events: the cheapest recorder that is `enabled`, so
/// the engine builds every event it would record.
#[derive(Default)]
struct CountingRecorder {
    events: u64,
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _at: u64, _event: Event) {
        self.events += 1;
    }
}

/// Wall times and traced-mirror results of one alternation, summed over
/// the workload's cells.
#[derive(Default)]
struct Alternation {
    st1_s: f64,
    mirror_s: f64,
    traced_s: f64,
    ledger: Ledger,
    counters: RunCounters,
    promotion_failures: u64,
}

impl Alternation {
    fn absorb(&mut self, m: &MirrorReport) {
        self.ledger.add(&m.ledger);
        self.counters = self.counters.merged(&m.counters);
        self.promotion_failures += m.promotion_failures;
    }
}

/// One engine run of `cell` on `threads` shard threads.
fn engine<R: Recorder>(cell: &CellSpec, threads: usize, rec: &mut R) -> Result<SimReport, String> {
    catch(|| cell.run_recorded(threads, rec)).and_then(|r| r.map_err(|e| e.to_string()))
}

/// Runs the traced pass over `setup`, recording per-layer metrics,
/// `peak_rss_mb` and every failed check into `report`.
pub fn run(setup: &Setup, seed: u64, report: &mut WorkloadReport) {
    let mut check = DigestCheck::new(setup.id, seed);

    let log = setup.harness().log();
    let (cells_before, cell_s_before) = (log.cells().len(), log.total_cell_seconds());
    report.attempted += 1;
    let (out, section_s) = timed_s(|| catch(|| setup.run()));
    if let Err(e) = out.and_then(|o| check.check(o.digest)) {
        report.fail(format!("harness run: {e}"));
    }
    if let Some(mb) = host::peak_rss_mb() {
        report
            .end_to_end
            .push(Metric::new("peak_rss_mb", mb, "MiB"));
    }
    let cells = (log.cells().len() - cells_before) as f64;
    let cell_s_sum = log.total_cell_seconds() - cell_s_before;

    let mut alternations: Vec<Alternation> = Vec::with_capacity(ALTERNATIONS);
    let mut st1_digests: Vec<Option<u64>> = vec![None; setup.cells.len()];
    for _ in 0..ALTERNATIONS {
        let mut alt = Alternation::default();
        for (i, cell) in setup.cells.iter().enumerate() {
            let (st1, s) = timed_s(|| engine(cell, 1, &mut NullRecorder));
            alt.st1_s += s;
            let (plain, s) = timed_s(|| catch(|| mirror::run::<false>(cell, seed)).and_then(|r| r));
            alt.mirror_s += s;
            let (traced, s) = timed_s(|| catch(|| mirror::run::<true>(cell, seed)).and_then(|r| r));
            alt.traced_s += s;

            report.attempted += 3;
            let label = &cell.label;
            let st1 = match st1 {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("{label} engine run: {e}"));
                    continue;
                }
            };
            let d = digest(&st1);
            if st1_digests[i].is_some_and(|prev| prev != d) {
                report.fail(format!("{label}: engine rerun changed the digest"));
            }
            st1_digests[i] = Some(d);
            for (kind, m) in [("mirror", plain), ("traced mirror", traced)] {
                match m {
                    Ok(m) => {
                        let diffs = m.mismatches(&st1);
                        if !diffs.is_empty() {
                            report.fail(format!("{label} {kind} != engine: {}", diffs.join(", ")));
                        }
                        if kind == "traced mirror" {
                            alt.absorb(&m);
                        }
                    }
                    Err(e) => report.fail(format!("{label} {kind}: {e}")),
                }
            }
        }
        alternations.push(alt);
    }
    // A single-run workload's harness run is its cell's engine run.
    if let [Some(d)] = st1_digests[..] {
        if let Err(e) = check.check(d) {
            report.fail(format!("engine run: {e}"));
        }
    }

    // Two shard threads must simulate exactly what one does; a recorder
    // must observe without perturbing.
    let (mut st2_s, mut st2_cpu_s, mut recorded_s, mut events) = (0.0, 0.0, 0.0, 0u64);
    for (cell, want) in setup.cells.iter().zip(&st1_digests) {
        let cpu0 = host::cpu_seconds();
        let (st2, s) = timed_s(|| engine(cell, 2, &mut NullRecorder));
        st2_s += s;
        if let (Some(a), Some(b)) = (cpu0, host::cpu_seconds()) {
            st2_cpu_s += b - a;
        }
        let mut rec = CountingRecorder::default();
        let (recorded, s) = timed_s(|| engine(cell, 1, &mut rec));
        recorded_s += s;
        events += rec.events;
        report.attempted += 2;
        for (kind, run) in [("two-thread", st2), ("recorded", recorded)] {
            match run {
                Ok(r) if Some(digest(&r)) == *want => {}
                Ok(_) => report.fail(format!("{} {kind} run differs from one thread", cell.label)),
                Err(e) => report.fail(format!("{} {kind} run: {e}", cell.label)),
            }
        }
    }

    let walls = |f: fn(&Alternation) -> f64| -> Vec<f64> { alternations.iter().map(f).collect() };
    let (Some(st1), Some(plain), Some(st1_summary)) = (
        median(&walls(|a| a.st1_s)),
        median(&walls(|a| a.mirror_s)),
        summarize(&walls(|a| a.st1_s)),
    ) else {
        return;
    };
    // The alternation whose traced time is the median supplies the spans.
    let mut order: Vec<&Alternation> = alternations.iter().collect();
    order.sort_by(|a, b| a.traced_s.total_cmp(&b.traced_s));
    let pick = order[order.len() / 2];
    let (l, c, traced_s) = (&pick.ledger, &pick.counters, pick.traced_s);
    let m = &mut report.per_layer;
    let mut push = |name: &str, value: f64, unit: &str| m.push(Metric::new(name, value, unit));
    for (name, span) in l.spans() {
        push(&format!("{name}.calls"), span.calls as f64, "count");
        push(&format!("{name}.self_s"), span.self_s, "s");
    }
    push(
        "trace.same_page_run_frac",
        l.same_page as f64 / c.accesses.max(1) as f64,
        "ratio",
    );
    push("trace.gen_s", setup.gen_s, "s");
    push("tlb.l1_hits", c.l1_hits as f64, "count");
    push("tlb.l2_hits", c.l2_hits as f64, "count");
    push("walk.levels", c.walk_levels as f64, "count");
    push("os.promotions", c.promotions as f64, "count");
    push("os.shootdowns", c.shootdowns as f64, "count");
    push("os.pages_migrated", c.pages_migrated as f64, "count");
    push(
        "os.promotion_failures",
        pick.promotion_failures as f64,
        "count",
    );
    push("sim.mirror_wall_s", plain, "s");
    push("sim.traced_wall_s", traced_s, "s");
    push("sim.unattributed_s", traced_s - l.attributed_s(), "s");
    push("sim.tracing_overhead", traced_s / plain - 1.0, "ratio");
    push("sim.engine_overhead_frac", 1.0 - plain / st1, "ratio");
    push("sim.shard_speedup", st1 / st2_s, "ratio");
    push("sim.cpu_s", st2_cpu_s, "s");
    push("sim.cells", cells, "count");
    push("sim.cell_s_sum", cell_s_sum, "s");
    push("sim.parallel_eff", cell_s_sum / (2.0 * section_s), "ratio");
    push("obs.events", events as f64, "count");
    push("obs.recorder_overhead", recorded_s / st1, "ratio");
    m.push(Metric::median("sim.st1_wall_s", st1_summary, "s"));
}
