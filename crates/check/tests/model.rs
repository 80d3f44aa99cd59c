//! Happens-before model checks of the pool's concurrency protocols,
//! plus the mutation regressions that prove the checker's teeth.
//!
//! Always-on tests model the protocols with the tracked primitives
//! from `rayon::chk` (the chunk-cursor claim/merge discipline,
//! `THREAD_OVERRIDE` publication) and seed the ISSUE's two concurrency
//! mutants — a `Relaxed` store on the merge flag and a torn non-atomic
//! counter — asserting the checker reports each. Compiling with `RUSTFLAGS="--cfg dh_check"`
//! additionally model-checks the **real** `rayon::pool::run_indexed_on`,
//! whose internals are then built on the tracked primitives.

use rayon::chk::{explore, explore_default, AtomicBool, AtomicUsize, Explorer, RaceCell};
use std::sync::atomic::Ordering;

// -----------------------------------------------------------------
// The chunk-cursor claim/merge protocol (model replica)
// -----------------------------------------------------------------

/// The pool's protocol in miniature: workers claim chunk ids from a
/// shared cursor with `fetch_add(1, Relaxed)`, write each claimed
/// chunk's output to its slot, and the driver merges *after the scope
/// join*. The claim may be relaxed because claims commute and the
/// join edge — not the cursor — publishes the slot writes. Every
/// interleaving must be race-free and produce the sequential result.
#[test]
fn chunk_cursor_claim_merge_is_race_free_and_deterministic() {
    const CHUNKS: usize = 3;
    let r = explore(Explorer { preemption_bound: 2, max_schedules: 200_000 }, || {
        let cursor = AtomicUsize::new(0);
        let slots: Vec<RaceCell<usize>> =
            (0..CHUNKS).map(|_| RaceCell::new("chunk-slot", usize::MAX)).collect();
        let work = |c: usize| c * 10 + 1;
        rayon::chk::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= CHUNKS {
                            break;
                        }
                        if let Some(slot) = slots.get(c) {
                            slot.set(work(c));
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().expect("worker");
            }
        });
        // post-join merge in chunk order: the sequential answer, on
        // every schedule
        let merged: Vec<usize> = slots.iter().map(RaceCell::get).collect();
        assert_eq!(merged, vec![1, 11, 21], "merge must equal the sequential order");
    });
    assert!(r.race_free(), "claim/merge must be race-free: {:?}", r.races);
    assert!(r.schedules > 10, "explorer must actually branch (got {})", r.schedules);
}

/// Each chunk id is handed out exactly once even though the claim is
/// relaxed: RMW atomicity, checked on every interleaving.
#[test]
fn chunk_claims_are_exactly_once() {
    let r = explore_default(|| {
        let cursor = AtomicUsize::new(0);
        let claims = [RaceCell::new("claim-count", 0usize), RaceCell::new("claim-count", 0)];
        rayon::chk::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        match claims.get(c) {
                            Some(slot) => slot.set(slot.get() + 1),
                            None => break,
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().expect("worker");
            }
        });
        for slot in &claims {
            assert_eq!(slot.get(), 1, "a chunk was claimed twice or never");
        }
    });
    assert!(r.race_free(), "{:?}", r.races);
}

// -----------------------------------------------------------------
// THREAD_OVERRIDE publication
// -----------------------------------------------------------------

/// The pool's `THREAD_OVERRIDE` discipline: a configuration thread
/// stores the worker count (SeqCst), readers load it (SeqCst) and
/// use whichever value they see — old or new, never torn, and any
/// reader that sees the flag also sees the configuration write it
/// publishes.
#[test]
fn thread_override_publication_is_race_free() {
    let r = explore_default(|| {
        let override_n = AtomicUsize::new(0);
        let config = RaceCell::new("pool-config", 0u64);
        rayon::chk::scope(|s| {
            let h = s.spawn(|| {
                config.set(7);
                override_n.store(2, Ordering::SeqCst);
            });
            let n = override_n.load(Ordering::SeqCst);
            if n != 0 {
                // a reader that observes the override also observes
                // the configuration that motivated it
                assert_eq!(config.get(), 7);
            }
            h.join().expect("config thread");
        });
    });
    assert!(r.race_free(), "SeqCst override must publish: {:?}", r.races);
}

// -----------------------------------------------------------------
// Seeded mutants: the checker must catch what it claims to catch
// -----------------------------------------------------------------

/// Mutant 1 (ISSUE satellite): the merge-ready flag stored with
/// `Relaxed` instead of `Release`. The data write is then unpublished
/// — a reader that sees the flag may still read a stale slot. The
/// vector clocks model this exactly (a relaxed store carries no
/// clock), so the checker must report the race.
#[test]
fn mutant_relaxed_merge_flag_is_caught() {
    let r = explore_default(|| {
        let ready = AtomicBool::new(false);
        let slot = RaceCell::new("merge-slot", 0u64);
        rayon::chk::scope(|s| {
            let h = s.spawn(|| {
                slot.set(42);
                ready.store(true, Ordering::Relaxed); // BUG: must be Release
            });
            if ready.load(Ordering::Acquire) {
                let _ = slot.get(); // unsynchronized with the write
            }
            h.join().expect("publisher");
        });
    });
    assert!(
        !r.races.is_empty(),
        "the relaxed merge flag must be reported as a race ({} schedules explored)",
        r.schedules
    );
    // and the correct protocol is clean: Release publishes
    let fixed = explore_default(|| {
        let ready = AtomicBool::new(false);
        let slot = RaceCell::new("merge-slot", 0u64);
        rayon::chk::scope(|s| {
            let h = s.spawn(|| {
                slot.set(42);
                ready.store(true, Ordering::Release);
            });
            if ready.load(Ordering::Acquire) {
                assert_eq!(slot.get(), 42);
            }
            h.join().expect("publisher");
        });
    });
    assert!(fixed.race_free(), "Release/Acquire twin must be clean: {:?}", fixed.races);
}

/// Mutant 2 (ISSUE satellite): a shared counter bumped non-atomically
/// by two workers — the classic torn read-modify-write. Both the race
/// report and (on some schedule) the lost update must surface.
#[test]
fn mutant_torn_counter_is_caught() {
    use std::sync::Mutex;
    let lost_update = Mutex::new(false);
    let r = explore_default(|| {
        let counter = RaceCell::new("torn-counter", 0u64);
        rayon::chk::scope(|s| {
            let h = s.spawn(|| counter.set(counter.get() + 1));
            counter.set(counter.get() + 1);
            h.join().expect("worker");
        });
        if counter.get() != 2 {
            *lost_update.lock().expect("mutex") = true;
        }
    });
    assert!(!r.races.is_empty(), "the torn counter must be reported as a race");
    assert!(
        *lost_update.lock().expect("mutex"),
        "some schedule must also exhibit the lost update ({} schedules)",
        r.schedules
    );
}

// -----------------------------------------------------------------
// The real pool, instrumented (cfg dh_check builds only)
// -----------------------------------------------------------------

/// Model-check the *actual* `pool::run_indexed_on`: under
/// `--cfg dh_check` its cursor and scope are the tracked `chk` types,
/// so the explorer drives the real claim loop, the real scope join
/// and the real sort-by-chunk merge through bounded interleavings.
/// The functional assertion inside the body holds for every schedule:
/// output equals sequential order regardless of claim interleaving.
#[cfg(dh_check)]
#[test]
fn real_pool_run_indexed_on_model_checked() {
    let r = explore(Explorer { preemption_bound: 2, max_schedules: 500_000 }, || {
        let out = rayon::pool::run_indexed_on(4, 1, 2, |i| i * 3);
        assert_eq!(out, vec![0, 3, 6, 9], "merge order must be schedule-invariant");
    });
    assert!(r.race_free(), "real pool protocol must be race-free: {:?}", r.races);
    assert!(r.complete, "bounded search must exhaust within the schedule cap");
    assert!(r.schedules > 10, "explorer must branch on the real pool (got {})", r.schedules);
}

/// The real `set_num_threads`/`current_num_threads` pair under the
/// explorer: concurrent configuration and query cannot wedge, race or
/// tear (the override is a single SeqCst atomic).
#[cfg(dh_check)]
#[test]
fn real_thread_override_model_checked() {
    let r = explore_default(|| {
        rayon::pool::set_num_threads(1);
        rayon::chk::scope(|s| {
            let h = s.spawn(|| rayon::pool::set_num_threads(2));
            let n = rayon::pool::current_num_threads();
            assert!(n == 1 || n == 2, "override reads are never torn (saw {n})");
            h.join().expect("setter");
        });
        rayon::pool::set_num_threads(0);
    });
    assert!(r.race_free(), "{:?}", r.races);
}
