//! The process-wide count of CPUs that simulation threads keep busy.
//!
//! A trace producer ([`hpage_trace::Producer`]) pays only on a CPU
//! nobody else is using, so the engine gives its cores producers from
//! the *spare* CPUs: `available_parallelism()` minus every CPU this
//! process has already claimed. Claims are held by [`CpuClaim`] guards:
//!
//! * an engine run claims one CPU per shard thread, the calling thread
//!   among them ([`claim_busy`]);
//! * a [`Harness`](crate::Harness) running cells on *N* workers claims
//!   *N* before it starts them, and each worker marks its thread as
//!   covered ([`cover_thread`]), so the engines inside add nothing for
//!   their calling thread;
//! * a caller that runs engines on threads of its own (`hpsim --jobs 2`
//!   runs its baseline beside the policy run) claims them the same way;
//! * producers claim what is left ([`claim_spare`]).
//!
//! The count is shared by every engine in the process, so concurrent
//! runs never hand out the same spare CPU twice. With one CPU available
//! no producer ever starts.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// CPUs claimed by live [`CpuClaim`]s. A count that publishes no other
/// data, so every access is `Relaxed`.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// CPUs [`claim_spare`] has handed out in this process: an engine run
/// feeds one core from a trace producer per spare CPU it claims. A
/// statistic that publishes no other data, so every access is `Relaxed`.
static PRODUCER_FED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// A live claim already counts this thread's CPU.
    static COVERED: Cell<bool> = const { Cell::new(false) };
}

/// CPUs this process may run on, read once.
fn available() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// CPUs held until the guard drops. Not `Send`: a claim that covers its
/// calling thread uncovers it again on drop.
#[must_use = "the CPUs are released when the claim drops"]
pub struct CpuClaim {
    cpus: usize,
    covers_caller: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl CpuClaim {
    /// CPUs this claim holds.
    pub(crate) fn cpus(&self) -> usize {
        self.cpus
    }
}

impl Drop for CpuClaim {
    fn drop(&mut self) {
        CLAIMED.fetch_sub(self.cpus, Ordering::Relaxed);
        if self.covers_caller {
            COVERED.set(false);
        }
    }
}

/// Claims the CPUs of `threads` threads that run simulation work, the
/// calling thread one of them. A calling thread that a live claim
/// already covers adds nothing for itself.
pub fn claim_busy(threads: usize) -> CpuClaim {
    let covers_caller = !COVERED.replace(true);
    let cpus = threads.saturating_sub(usize::from(!covers_caller));
    CLAIMED.fetch_add(cpus, Ordering::Relaxed);
    CpuClaim {
        cpus,
        covers_caller,
        _thread_bound: PhantomData,
    }
}

/// Marks the calling thread as covered by a claim its spawner made, for
/// the life of the thread.
pub fn cover_thread() {
    COVERED.set(true);
}

/// Cores fed from a trace producer thread, summed over every engine run
/// this process has started. No report depends on it: it only shows
/// whether the producer path ran (`hpsim -v` prints it).
pub fn producer_fed_cores() -> usize {
    PRODUCER_FED.load(Ordering::Relaxed)
}

/// Claims up to `want` CPUs that no live claim holds.
pub(crate) fn claim_spare(want: usize) -> CpuClaim {
    let mut claimed = CLAIMED.load(Ordering::Relaxed);
    let cpus = loop {
        let take = want.min(available().saturating_sub(claimed));
        if take == 0 {
            break 0;
        }
        match CLAIMED.compare_exchange_weak(
            claimed,
            claimed + take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => break take,
            Err(now) => claimed = now,
        }
    };
    PRODUCER_FED.fetch_add(cpus, Ordering::Relaxed);
    CpuClaim {
        cpus,
        covers_caller: false,
        _thread_bound: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run engines concurrently, so only what this thread
    // owns is asserted: its claims' sizes and its covered flag.

    #[test]
    fn a_covered_thread_claims_only_its_other_threads() {
        std::thread::spawn(|| {
            let outer = claim_busy(2);
            assert_eq!(outer.cpus(), 2, "the caller and one more thread");
            let inner = claim_busy(3);
            assert_eq!(inner.cpus(), 2, "the caller is already counted");
            drop(inner);
            assert!(COVERED.get(), "the outer claim still covers the caller");
            drop(outer);
            assert!(!COVERED.get());
            cover_thread();
            assert_eq!(claim_busy(1).cpus(), 0, "a covered worker's engine");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn spare_claims_leave_the_busy_cpus_alone() {
        std::thread::spawn(|| {
            let _busy = claim_busy(1);
            let spare = claim_spare(usize::MAX);
            assert!(spare.cpus() < available());
            assert_eq!(claim_spare(0).cpus(), 0);
        })
        .join()
        .unwrap();
    }
}
