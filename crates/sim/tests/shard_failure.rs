//! Failure paths of the sharded engine: an error on the coordinator
//! and a panic on a worker thread must end the run — with the same
//! error at any `--sim-threads`, and with a panic rather than a hang.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hpage_sim::{NullRecorder, PolicyChoice, ProcessSpec, SimReport, Simulation};
use hpage_trace::{Pattern, SyntheticBuilder, SyntheticWorkload, TraceSource, Workload};
use hpage_types::{HpageError, MemoryAccess, Region, SystemConfig};

fn tenant(ordinal: usize, mb: u64, accesses: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new(format!("t{ordinal}"), 11 + ordinal as u64);
    let arr = b.array(8, mb * (1 << 20) / 8);
    b.phase(arr, Pattern::UniformRandom { count: accesses }, 0);
    b.build()
}

fn run(
    config: &SystemConfig,
    tenants: &[&dyn Workload],
    sim_threads: usize,
) -> Result<SimReport, HpageError> {
    let specs: Vec<ProcessSpec<'_>> = tenants.iter().map(|&w| ProcessSpec::new(w)).collect();
    Simulation::new(config.clone(), PolicyChoice::pcc_default())
        .with_sim_threads(sim_threads)
        .try_run_recorded(&specs, &mut NullRecorder)
}

/// Runs `f` on a thread of its own and fails the test if it has not
/// finished after two minutes, so a run that never returns fails
/// instead of hanging the test run. A panic in `f` is re-raised here.
fn within_two_minutes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = done_tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => panic::resume_unwind(payload),
        Err(_) => panic!("the run did not return"),
    }
}

#[test]
fn exhausted_memory_is_the_same_error_at_any_shard_count() {
    // Four 8 MiB tenants in 16 MiB of physical memory: base-page
    // allocation runs dry in a fault wave, on the coordinator, while
    // the other shards' workers wait for their grants.
    let config = SystemConfig {
        phys_mem_bytes: 16 << 20,
        ..SystemConfig::tiny()
    };
    let errors = within_two_minutes(move || {
        let tenants: Vec<SyntheticWorkload> = (0..4).map(|i| tenant(i, 8, 60_000)).collect();
        let tenants: Vec<&dyn Workload> = tenants.iter().map(|w| w as &dyn Workload).collect();
        [1, 2, 8].map(|sim_threads| run(&config, &tenants, sim_threads).expect_err("exhaustion"))
    });
    assert!(
        matches!(errors[0], HpageError::OutOfMemory { .. }),
        "{:?}",
        errors[0]
    );
    assert_eq!(errors[1], errors[0], "--sim-threads 2");
    assert_eq!(errors[2], errors[0], "--sim-threads 8");
}

/// A tenant whose trace source panics after `refills` refills, on the
/// thread of whichever shard runs it.
struct PanickingWorkload {
    inner: SyntheticWorkload,
    refills: u32,
}

struct PanickingSource<'a> {
    inner: Box<dyn TraceSource + Send + 'a>,
    left: u32,
}

impl TraceSource for PanickingSource<'_> {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        assert!(self.left > 0, "trace stream failed mid-run");
        self.left -= 1;
        self.inner.refill(out)
    }
}

impl Workload for PanickingWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn regions(&self) -> Vec<Region> {
        self.inner.regions()
    }

    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        Box::new(PanickingSource {
            inner: self.inner.thread_source(thread, threads),
            left: self.refills,
        })
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
fn a_worker_panic_mid_run_panics_the_run() {
    let messages = within_two_minutes(|| {
        let healthy: Vec<SyntheticWorkload> = (0..3).map(|i| tenant(i, 2, 60_000)).collect();
        // 160 refills of 256 accesses: past a producer's first 32 Ki
        // block, well short of the 60 000-access trace.
        let failing = PanickingWorkload {
            inner: tenant(3, 2, 60_000),
            refills: 160,
        };
        // Tenant 1 lives on shard 1, a worker thread, at --sim-threads 2
        // and 8; at 1 it runs on the calling thread.
        let tenants: Vec<&dyn Workload> = vec![&healthy[0], &failing, &healthy[1], &healthy[2]];
        [1, 2, 8].map(|sim_threads| {
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                run(&SystemConfig::tiny(), &tenants, sim_threads)
            }));
            panic_message(outcome.expect_err("the run panics").as_ref())
        })
    });
    assert!(
        messages[0].contains("trace stream failed mid-run"),
        "{:?}",
        messages[0]
    );
    for msg in &messages[1..] {
        assert!(msg.contains("shard worker alive"), "{msg:?}");
    }
}
