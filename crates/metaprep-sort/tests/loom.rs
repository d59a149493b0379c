//! Loom model tests for the scatter single-writer contract that KmerGen's
//! emit into an uninitialised send buffer (`metaprep_core::kmergen`) and
//! the parallel radix comparator's passes
//! ([`metaprep_sort::parallel_lsb_sort`]) rest on.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p metaprep-sort --test loom
//! ```
//!
//! The production scatters run on rayon, whose pool threads the model
//! cannot schedule; what IS modeled is the concurrency primitive the
//! scatter's safety rests on: [`SharedSlice`]'s "each slot has at most
//! one writer" contract and the [`ScatterTracker`] that *asserts* it in
//! debug builds. Under `--cfg loom` the tracker's per-slot flags are
//! modeled atomics, so every interleaving of two scatter writers is
//! explored — and with DPOR, writers on disjoint windows (distinct flag
//! objects, hence independent operations) collapse to a single
//! explored schedule, which the tests pin.
//!
//! Lifetimes: `SharedSlice` borrows its buffer and tracker, but modeled
//! threads need `'static` closures. The tests leak a heap allocation
//! into the model run (`Box::into_raw`), hand `'static` borrows to the
//! writers, and reclaim after every clone is joined and dropped. A
//! sleep-set-aborted run unwinds past the reclaim and leaks its little
//! buffer — bounded by the handful of schedules these models explore,
//! and only in the test process.
#![cfg(loom)]

use loom::model::Builder;
use loom::sync::Arc;
use loom::thread;
use metaprep_sort::{ScatterTracker, SharedSlice};

/// Run `f` with a leaked (buffer, tracker) pair wrapped in a
/// `'static` `SharedSlice`, then reclaim and return the buffer.
///
/// `f` gets the shared slice and must join every writer it spawns
/// before returning (it owns the only other Arc clones).
fn with_leaked_slice<R>(
    n: usize,
    f: impl FnOnce(&Arc<SharedSlice<'static, u64>>) -> R,
) -> (Vec<u64>, R) {
    let data_ptr = Box::into_raw(Box::new(vec![0u64; n]));
    let tracker_ptr = Box::into_raw(Box::new(ScatterTracker::new()));
    // SAFETY: both pointers come from Box::into_raw above, so they are
    // valid, aligned, and uniquely owned; the `'static` borrows they
    // yield live only inside the SharedSlice, whose last clone is
    // dropped below before the boxes are reclaimed.
    let shared =
        Arc::new(unsafe { SharedSlice::new((*data_ptr).as_mut_slice(), &mut *tracker_ptr) });
    let out = f(&shared);
    drop(shared);
    // SAFETY: `f` joined its writers and the local Arc is dropped, so
    // no SharedSlice (and no borrow of either box) survives; the boxes
    // can be reclaimed exactly once.
    let data = unsafe { *Box::from_raw(data_ptr) };
    // SAFETY: same argument as above, for the tracker box.
    drop(unsafe { Box::from_raw(tracker_ptr) });
    (data, out)
}

/// Two writers on disjoint windows — the shape every caller's precomputed
/// cursors produce by construction. Every pair of their operations touches
/// distinct tracker flags, so all operations are independent and DPOR
/// must need exactly ONE schedule to cover every outcome (brute force
/// explores the full interleaving product of the four writes).
#[test]
fn disjoint_scatter_windows_need_one_schedule() {
    let report = Builder {
        max_iters: 250_000,
        dpor: true,
    }
    .check_report(|| {
        let (data, _) = with_leaked_slice(4, |shared| {
            let handles: Vec<_> = [(0usize, 10u64), (2, 30)]
                .into_iter()
                .map(|(base, val)| {
                    let sh = Arc::clone(shared);
                    thread::spawn(move || {
                        for k in 0..2 {
                            // SAFETY: windows [0,2) and [2,4) are disjoint;
                            // each slot has exactly one writer.
                            unsafe { sh.write(base + k, val + k as u64) };
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(data, vec![10, 11, 30, 31], "scatter landed every write");
    });
    assert_eq!(
        report.schedules_explored, 1,
        "disjoint writers are independent; DPOR must not branch on them"
    );
}

/// Two writers racing on the SAME slot — the contract violation the
/// tracker exists to catch. In EVERY interleaving exactly one writer's
/// flag swap observes the other's and trips the assert; the racing
/// data write never executes. The tracker flags only exist under
/// `debug_assertions` (release builds trust the contract), hence the
/// cfg.
#[test]
#[cfg(debug_assertions)]
fn overlapping_writers_trip_the_tracker_in_every_interleaving() {
    let report = Builder {
        max_iters: 250_000,
        dpor: true,
    }
    .check_report(|| {
        let (data, tripped) = with_leaked_slice(2, |shared| {
            let handles: Vec<_> = [7u64, 9]
                .into_iter()
                .map(|val| {
                    let sh = Arc::clone(shared);
                    thread::spawn(move || {
                        // Both writers target slot 0: a deliberate
                        // contract violation. Catch the tracker's
                        // panic so it stays a per-writer observation
                        // instead of failing the whole model.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // SAFETY: violated on purpose — the tracker
                            // must stop the second writer before the
                            // overlapping data write happens.
                            unsafe { sh.write(0, val) };
                        }))
                        .is_err()
                    })
                })
                .collect();
            let tripped: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            tripped
        });
        assert_eq!(
            tripped.iter().filter(|&&t| t).count(),
            1,
            "exactly one of the two overlapping writers must trip the tracker"
        );
        // Whichever writer won wrote slot 0; slot 1 stays untouched.
        assert!(data[0] == 7 || data[0] == 9, "winner's write landed");
        assert_eq!(data[1], 0);
    });
    // The two swaps on one flag are dependent: both orders must be
    // explored (each order trips a different writer).
    assert!(
        report.schedules_explored >= 2,
        "racing swaps must branch, explored only {}",
        report.schedules_explored
    );
}

/// Tracker recycling across passes — the `parallel_lsb_sort` pattern:
/// one tracker serves scatter after scatter, with `prepare` resetting
/// (not reallocating) the flags. A second pass writing the same slots
/// as the first must NOT trip, in any interleaving of its writers.
#[test]
fn tracker_reuse_across_passes_stays_clean() {
    let report = Builder {
        max_iters: 250_000,
        dpor: true,
    }
    .check_report(|| {
        let data_ptr = Box::into_raw(Box::new(vec![0u64; 2]));
        let tracker_ptr = Box::into_raw(Box::new(ScatterTracker::new()));
        for pass in 1..=2u64 {
            // SAFETY: the previous pass's SharedSlice (the only borrow
            // of either box) was dropped at the end of the previous
            // iteration after its writers joined; re-borrowing here is
            // exclusive again. Boxes are reclaimed once, below.
            let shared = Arc::new(unsafe {
                SharedSlice::new((*data_ptr).as_mut_slice(), &mut *tracker_ptr)
            });
            let handles: Vec<_> = [0usize, 1]
                .into_iter()
                .map(|slot| {
                    let sh = Arc::clone(&shared);
                    thread::spawn(move || {
                        // SAFETY: one writer per slot within each pass.
                        unsafe { sh.write(slot, pass * 10 + slot as u64) };
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        // SAFETY: both passes' writers joined and their SharedSlices
        // dropped; the boxes are uniquely owned again.
        let data = unsafe { *Box::from_raw(data_ptr) };
        drop(unsafe { Box::from_raw(tracker_ptr) });
        assert_eq!(data, vec![20, 21], "second pass overwrote the first");
    });
    // Within each pass the writers are independent (distinct slots) and
    // the passes are ordered by joins, so DPOR needs one schedule.
    assert_eq!(
        report.schedules_explored, 1,
        "pool reuse must not introduce dependent operations"
    );
}

/// KmerGen's emit, in miniature: two chunks write their windows of ONE
/// sort bucket of an *uninitialised* buffer (a `Vec`'s spare capacity) —
/// the bucket is laid out chunk-minor, so chunk 0 owns `[0, 2)` and chunk 1
/// `[2, 4)`. Chunk 0 fills one slot of two (the presolve filter dropped
/// its other k-mer). After the join the kept prefixes are checked, moved
/// together, and claimed with `set_len`. The windows are disjoint, so DPOR
/// needs one schedule, and no schedule reads a slot nobody wrote.
#[test]
fn two_chunks_fill_one_bucket_of_an_uninitialised_buffer() {
    let report = Builder {
        max_iters: 250_000,
        dpor: true,
    }
    .check_report(|| {
        let data_ptr = Box::into_raw(Box::new(Vec::<u64>::with_capacity(4)));
        let tracker_ptr = Box::into_raw(Box::new(ScatterTracker::new()));
        // SAFETY: both pointers come from Box::into_raw above, so they are
        // valid and uniquely owned; the `'static` borrows live only inside
        // the SharedSlice, whose last clone is dropped before the boxes
        // are touched again.
        let shared = Arc::new(unsafe {
            SharedSlice::uninit(
                &mut (*data_ptr).spare_capacity_mut()[..4],
                &mut *tracker_ptr,
            )
        });
        // (window start, k-mers kept, first value) per chunk.
        let handles: Vec<_> = [(0usize, 1usize, 10u64), (2, 2, 30)]
            .into_iter()
            .map(|(start, kept, val)| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || {
                    for k in 0..kept {
                        // SAFETY: the windows [0,2) and [2,4) are disjoint
                        // and each writer stays inside its own.
                        unsafe { sh.write(start + k, val + k as u64) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        shared.assert_prefix_written(0..2, 1);
        shared.assert_prefix_written(2..4, 2);
        drop(shared);
        // SAFETY: the writers joined and the only SharedSlice is dropped,
        // so the boxes are uniquely owned again; reclaimed exactly once.
        let mut data = unsafe { *Box::from_raw(data_ptr) };
        // SAFETY: same argument, for the tracker box.
        drop(unsafe { Box::from_raw(tracker_ptr) });
        // Close the gap chunk 0 left, then claim the three written slots.
        data.spare_capacity_mut().copy_within(2..4, 1);
        // SAFETY: slots 0..3 now hold chunk 0's one and chunk 1's two
        // written values; slot 3 (stale) is not claimed.
        unsafe { data.set_len(3) };
        assert_eq!(data, vec![10, 30, 31]);
    });
    assert_eq!(
        report.schedules_explored, 1,
        "chunks of one bucket write disjoint windows; DPOR must not branch"
    );
}
