//! The end-to-end rounds: set-up, a warm-up run, then timed rounds of
//! engine runs with tracing off.

use std::path::Path;
use std::time::Instant;

use crate::host;
use crate::report::{Metric, WorkloadReport};
use crate::stats::summarize;
use crate::workloads::{DigestCheck, Setup, WorkloadId};
use crate::{catch, timed_s};

/// Set-ups of every workload; `setup_s` is their median.
const SETUPS: usize = 3;

/// One workload's state across the rounds.
struct Slot {
    id: WorkloadId,
    /// The current set-up; one copy is held at a time.
    setup: Option<Setup>,
    check: DigestCheck,
    report: WorkloadReport,
    walls: Vec<f64>,
    setups: Vec<f64>,
    accesses: u64,
}

impl Slot {
    /// Replaces the set-up with a fresh one, timing it. The old copy is
    /// dropped first.
    fn set_up(&mut self, seed: u64, scratch: &Path) {
        drop(self.setup.take());
        let (built, s) = timed_s(|| Setup::build(self.id, seed, scratch));
        match built {
            Ok(setup) => {
                self.setups.push(s);
                self.setup = Some(setup);
            }
            Err(e) => {
                self.report.attempted += 1;
                self.report.fail(format!("setup: {e}"));
            }
        }
    }

    /// One engine run, checked; its wall time when it succeeded.
    fn attempt(&mut self) -> Option<f64> {
        let setup = self.setup.as_ref()?;
        self.report.attempted += 1;
        let (out, wall) = timed_s(|| catch(|| setup.run()));
        match out.and_then(|o| {
            self.accesses = o.accesses;
            self.check.check(o.digest)
        }) {
            Ok(()) => Some(wall),
            Err(e) => {
                self.report.fail(e);
                None
            }
        }
    }
}

/// Sets up every workload of `ids` [`SETUPS`] times and runs timed
/// rounds for `seconds` seconds per workload, split evenly between the
/// set-ups, so the rounds sample the host across the whole run rather
/// than one stretch of it. Each round runs every workload once, starting
/// from a different workload each time, so bursts of host speed spread
/// across workloads. Each workload gets one untimed warm-up run after its
/// first set-up.
///
/// With `read_rss`, a single workload's `peak_rss_mb` is read after its
/// first set-up and the warm-up run. A run over several workloads holds
/// them all at once, so it reports none.
pub fn run(
    ids: &[WorkloadId],
    seed: u64,
    seconds: u64,
    read_rss: bool,
    scratch: &Path,
) -> Vec<WorkloadReport> {
    let read_rss = read_rss && ids.len() == 1;
    let mut slots: Vec<Slot> = ids
        .iter()
        .map(|&id| Slot {
            id,
            setup: None,
            check: DigestCheck::new(id, seed),
            report: WorkloadReport::new(id),
            walls: Vec::new(),
            setups: Vec::new(),
            accesses: 0,
        })
        .collect();
    let mut round = 0;
    let mut timed_s_total = 0.0;
    for segment in 0..SETUPS {
        for slot in &mut slots {
            if segment == 0 {
                eprintln!("hpbench: setting up {}", slot.id.name());
            }
            slot.set_up(seed, scratch);
            if segment == 0 && slot.attempt().is_some() && read_rss {
                if let Some(mb) = host::peak_rss_mb() {
                    slot.report
                        .end_to_end
                        .push(Metric::new("peak_rss_mb", mb, "MiB"));
                }
            }
        }
        let live: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].setup.is_some())
            .collect();
        if live.is_empty() {
            continue;
        }
        let budget_s = (seconds * live.len() as u64) as f64 / SETUPS as f64;
        let start = Instant::now();
        let mut segment_rounds = 0;
        loop {
            for k in 0..live.len() {
                let slot = &mut slots[live[(round + k) % live.len()]];
                if let Some(wall) = slot.attempt() {
                    slot.walls.push(wall);
                }
            }
            round += 1;
            segment_rounds += 1;
            // Stop at the round boundary nearest the segment's budget.
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / segment_rounds as f64 / 2.0 >= budget_s {
                break;
            }
        }
        timed_s_total += start.elapsed().as_secs_f64();
    }
    eprintln!("hpbench: {round} timed rounds in {timed_s_total:.1} s");

    slots
        .into_iter()
        .map(|slot| {
            let mut report = slot.report;
            let mut metrics = Vec::new();
            // The fastest round: interference from other tenants of the
            // host only ever adds time, and its level drifts over tens of
            // seconds, so the minimum is the steadiest estimate of the
            // simulator's own cost (README.md has the measurements).
            if let Some(w) = summarize(&slot.walls) {
                metrics.push(Metric::new(
                    "accesses_per_s",
                    slot.accesses as f64 / w.min,
                    "1/s",
                ));
                metrics.push(Metric::fastest("wall_s", w, "s"));
            }
            if let Some(s) = summarize(&slot.setups) {
                metrics.push(Metric::median("setup_s", s, "s"));
            }
            metrics.append(&mut report.end_to_end);
            report.end_to_end = metrics;
            report
        })
        .collect()
}
