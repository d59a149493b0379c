//! Same-thread supervision of injected task crashes, run by the cluster
//! around every rank's body (`TaskCtx::run_body`).
//!
//! A crashed rank must not tear down its channels: peers may already
//! hold envelopes addressed to it, and the conservation accounting
//! (and any real transport later) wants the endpoint identity stable
//! across a restart. So the supervisor runs *inside* the task's own
//! thread: the task body is an attempt closure, an [`InjectedCrash`]
//! panic unwinds only to the supervisor loop, and the next attempt
//! reuses the same `TaskCtx` — channels, sequence counters and Lamport
//! clock all survive, exactly as a respawned process would recover them
//! from its transport session and checkpoint. Real bugs (any other
//! panic payload) resume unwinding to the cluster's thread-level
//! `catch_unwind` untouched.

use std::panic::{self, AssertUnwindSafe};

use crate::faults::InjectedCrash;

/// Run `attempt(restart_no)` until it returns, restarting on
/// [`InjectedCrash`] panics up to `max_restarts` times. `restart_no`
/// is 0 on the first attempt; a restarted attempt (`restart_no > 0`)
/// is expected to resume from its latest checkpoint. Returns the
/// result and the number of restarts taken. Exceeding `max_restarts`
/// re-raises the crash; any non-injected panic re-raises immediately.
pub(crate) fn run_supervised<R>(max_restarts: u32, mut attempt: impl FnMut(u32) -> R) -> (R, u32) {
    let mut restarts = 0u32;
    loop {
        // EXPECT: an InjectedCrash panic is a planned fault, not a bug —
        // catching it here is the supervisor's whole job; every other
        // payload is re-raised unchanged.
        match panic::catch_unwind(AssertUnwindSafe(|| attempt(restarts))) {
            Ok(r) => return (r, restarts),
            Err(payload) => {
                let crash = payload.downcast_ref::<InjectedCrash>().copied();
                match crash {
                    Some(_) if restarts < max_restarts => restarts += 1,
                    _ => panic::resume_unwind(payload),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Boundary;
    use std::cell::Cell;

    #[test]
    fn clean_body_runs_once() {
        let calls = Cell::new(0u32);
        let (r, restarts) = run_supervised(3, |n| {
            calls.set(calls.get() + 1);
            n
        });
        assert_eq!((r, restarts, calls.get()), (0, 0, 1));
    }

    #[test]
    fn injected_crash_restarts_with_incremented_attempt() {
        let seen = std::cell::RefCell::new(Vec::new());
        let (r, restarts) = run_supervised(3, |n| {
            seen.borrow_mut().push(n);
            if n < 2 {
                panic::panic_any(InjectedCrash {
                    rank: 0,
                    at: Boundary::Pass(n),
                });
            }
            "done"
        });
        assert_eq!((r, restarts), ("done", 2));
        assert_eq!(*seen.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn restart_budget_exhaustion_reraises_the_crash() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_supervised(1, |_n: u32| -> () {
                panic::panic_any(InjectedCrash {
                    rank: 7,
                    at: Boundary::MergeRound(0),
                });
            })
        }))
        .unwrap_err();
        let crash = caught
            .downcast_ref::<InjectedCrash>()
            .expect("payload must still be the InjectedCrash");
        assert_eq!(crash.rank, 7);
    }

    #[test]
    fn real_panics_pass_through_untouched() {
        let calls = Cell::new(0u32);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_supervised(5, |_n: u32| -> () {
                calls.set(calls.get() + 1);
                panic!("genuine bug");
            })
        }))
        .unwrap_err();
        assert_eq!(calls.get(), 1, "real panics must not be retried");
        let msg = caught.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "genuine bug");
    }
}
