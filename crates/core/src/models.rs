//! Loom models of the crate's concurrency protocols.
//!
//! Compiled only under `--features loom-model` (`cargo test -p cfl-match
//! --features loom-model`). Each test wraps a protocol in [`model`], which
//! re-executes it under many seeded thread schedules; any execution that
//! deadlocks, leaks a parked thread, or fails an assertion fails the test
//! and prints the seed to replay (`LOOM_SEED=<n>`).
//!
//! Two kinds of test live here:
//!
//! * **protocol models** drive the *real* implementation — the worker
//!   pool's offer/park/claim/finish protocol via [`pool::hooks`] and the
//!   claim cursor of its steal loop — and assert its documented invariants
//!   on every schedule;
//! * **seeded-bug models** (`seeded_*`) inject a representative bug
//!   (dropped notify, non-atomic claim) into a copy of the protocol shape
//!   and assert the checker *fails*, guarding against the model harness
//!   rotting into a vacuous green.
//!
//! `docs/SOUNDNESS.md` is the narrative index of what each model covers.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::pool::{hooks::OwnedPool, parallel_map_model};
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{model, thread, Arc, Condvar, Mutex, PoisonError};

/// Offer/park/claim/finish under every schedule: every index is computed,
/// results commit in index order, and the pool retires cleanly. A lost
/// wakeup anywhere in the protocol (a worker parked forever on
/// `work_ready`, or the caller parked forever on `work_done`) surfaces as
/// a deadlock the scheduler reports; a worker that never exits surfaces as
/// a leaked thread at drain.
#[test]
fn pool_protocol_no_lost_wakeups() {
    model(|| {
        let pool = OwnedPool::with_workers(2);
        let out = parallel_map_model(&pool, 2, 3, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20]);
        pool.shutdown();
    });
}

/// Index-ordered commit determinism: on every schedule the output of
/// `parallel_map` equals the serial map, no matter which participant
/// computed which index. This is the property the byte-identical parallel
/// CPI build rests on.
#[test]
fn commit_order_is_deterministic() {
    model(|| {
        let pool = OwnedPool::with_workers(1);
        let serial: Vec<usize> = (0..4).map(|i| i * i + 1).collect();
        let par = parallel_map_model(&pool, 1, 4, |i| i * i + 1);
        assert_eq!(par, serial);
        pool.shutdown();
    });
}

/// The job slot never outlives `run`: no schedule lets a worker enter the
/// caller's closure after `parallel_map` has returned. This is exactly the
/// invariant the `unsafe` in `pool::JobPtr` rests on — the closure
/// borrows stack data of the `run` frame, so a late call would be a
/// use-after-free in production. The `returned` latch is flipped
/// immediately after the call returns; any straggler observing it trips
/// the assertion (an escaped panic on a modeled thread fails the model).
#[test]
fn job_slot_never_outlives_run() {
    model(|| {
        let pool = OwnedPool::with_workers(2);
        let returned = Arc::new(AtomicBool::new(false));
        {
            let returned = Arc::clone(&returned);
            let out = parallel_map_model(&pool, 2, 3, move |i| {
                assert!(
                    !returned.load(Ordering::SeqCst),
                    "job closure entered after parallel_map returned"
                );
                i
            });
            assert_eq!(out, vec![0, 1, 2]);
        }
        returned.store(true, Ordering::SeqCst);
        pool.shutdown();
    });
}

/// A panicking task must never wedge the pool, on any schedule: whether
/// the caller or a worker claims the poisoned index, `parallel_map`
/// propagates a panic (the task's own, or the completeness assertion) and
/// the pool then serves a fresh round and retires cleanly. A missed
/// cleanup path would show up as a deadlock (caller parked on `work_done`)
/// or a leaked worker at drain.
#[test]
fn worker_panic_cleanup_no_deadlock() {
    model(|| {
        let pool = OwnedPool::with_workers(1);
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_model(&pool, 1, 2, |i| {
                assert!(i != 0, "task failure");
                i
            })
        }));
        assert!(r.is_err(), "a panicking task must fail parallel_map");
        // The pool must have been restored to idle: a second round works.
        let out = parallel_map_model(&pool, 1, 2, |i| i + 5);
        assert_eq!(out, vec![5, 6]);
        pool.shutdown();
    });
}

/// The claim cursor of the pool's steal loop (`pool::steal_loop`): a
/// Relaxed `fetch_add` RMW hands every participant a distinct position, so
/// each task index is claimed exactly once on every schedule.
#[test]
fn cursor_claims_exactly_once() {
    model(|| {
        const ROOTS: usize = 3;
        let cursor = Arc::new(AtomicU64::new(0));
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..ROOTS).map(|_| AtomicU64::new(0)).collect());
        let worker = {
            let cursor = Arc::clone(&cursor);
            let hits = Arc::clone(&hits);
            move || loop {
                let pos = cursor.fetch_add(1, Ordering::Relaxed);
                if pos >= ROOTS as u64 {
                    break;
                }
                hits[pos as usize].fetch_add(1, Ordering::Relaxed);
            }
        };
        let h = thread::spawn(worker.clone());
        worker();
        h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(
                hit.load(Ordering::SeqCst),
                1,
                "task index {i} not claimed exactly once"
            );
        }
    });
}

/// Companion bound to the claim model (the overshoot argument documented
/// on `pool::steal_loop`): each participant performs at most one
/// over-the-end `fetch_add` before exiting its steal loop, so the cursor's
/// final value never exceeds `n + participants` on any schedule.
#[test]
fn cursor_overshoot_is_bounded() {
    model(|| {
        const ROOTS: u64 = 2;
        const PARTICIPANTS: u64 = 3;
        let cursor = Arc::new(AtomicU64::new(0));
        let worker = {
            let cursor = Arc::clone(&cursor);
            move || loop {
                if cursor.fetch_add(1, Ordering::Relaxed) >= ROOTS {
                    break;
                }
            }
        };
        let h1 = thread::spawn(worker.clone());
        let h2 = thread::spawn(worker.clone());
        worker();
        h1.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        h2.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        let overshoot = cursor.load(Ordering::SeqCst);
        assert!(
            overshoot <= ROOTS + PARTICIPANTS,
            "cursor overshot the documented bound: {overshoot}"
        );
    });
}

/// Meta-test: a *dropped notify* — the offer path publishing its predicate
/// but never signalling the condvar — must be caught. Under some schedule
/// the consumer checks the predicate first, parks, and then nothing ever
/// wakes it: the scheduler reports a deadlock, which `model` converts to a
/// panic. If this test ever starts passing its inner model, the checker
/// has gone vacuous.
#[test]
fn seeded_dropped_notify_is_caught() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let consumer = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let (m, cv) = &*pair;
                    let mut ready = m.lock().unwrap_or_else(PoisonError::into_inner);
                    while !*ready {
                        ready = cv.wait(ready).unwrap_or_else(PoisonError::into_inner);
                    }
                })
            };
            {
                let (m, _cv) = &*pair;
                *m.lock().unwrap_or_else(PoisonError::into_inner) = true;
                // BUG (seeded): no `_cv.notify_all()` after publishing.
            }
            consumer
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e));
        });
    }));
    assert!(
        r.is_err(),
        "the model checker failed to catch a dropped condvar notify"
    );
}

/// Meta-test: a *double-claimed index* — the cursor advanced with a
/// non-atomic load-then-store instead of `fetch_add` — must be caught.
/// Under some schedule both participants load the same position, both
/// claim it, and the exactly-once assertion fires inside the model.
#[test]
fn seeded_double_claim_is_caught() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            const ROOTS: usize = 2;
            let cursor = Arc::new(AtomicU64::new(0));
            let hits: Arc<Vec<AtomicU64>> =
                Arc::new((0..ROOTS).map(|_| AtomicU64::new(0)).collect());
            let worker = {
                let cursor = Arc::clone(&cursor);
                let hits = Arc::clone(&hits);
                move || loop {
                    // BUG (seeded): load + store is not an atomic claim.
                    let pos = cursor.load(Ordering::Relaxed);
                    if pos >= ROOTS as u64 {
                        break;
                    }
                    cursor.store(pos + 1, Ordering::Relaxed);
                    hits[pos as usize].fetch_add(1, Ordering::Relaxed);
                }
            };
            let h = thread::spawn(worker.clone());
            worker();
            h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for hit in &**hits {
                assert_eq!(hit.load(Ordering::SeqCst), 1, "index claimed twice");
            }
        });
    }));
    assert!(
        r.is_err(),
        "the model checker failed to catch a double-claimed cursor index"
    );
}
