//! A dependency-free parallel map for independent model evaluations.
//!
//! The MACS workflow is embarrassingly parallel at the (kernel ×
//! [`SimConfig`]) granularity: suite reports, ablation grids, and
//! contention sweeps all evaluate independent points. This module gives
//! them a minimal scoped-thread pool — no work stealing, no channels,
//! just an index-ordered queue drained by `std::thread::scope` workers —
//! so results are returned in input order regardless of which thread
//! finished first (deterministic output is what makes the reports
//! byte-diffable across machines).
//!
//! The worker count defaults to the machine's available parallelism and
//! can be pinned with the `MACS_THREADS` environment variable (`1`
//! forces fully serial evaluation, useful for timing baselines).
//!
//! [`SimConfig`]: c240_sim::SimConfig

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Renders a `catch_unwind` payload as the human-readable panic message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "MACS_THREADS";

/// Parses a `MACS_THREADS`-style value: a positive thread count, or
/// `None` for anything absent or unusable (falls back to the default).
///
/// A value that is *set but unusable* — empty, zero, negative, garbage,
/// or beyond `usize` — is rejected with a warning on stderr rather than
/// silently: a user who typed `MACS_THREADS=0` expecting "serial" or
/// "auto" should learn their run is not configured the way they think.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    let raw = value?;
    let parsed = raw.trim().parse::<usize>().ok().filter(|&n| n > 0);
    if parsed.is_none() {
        eprintln!(
            "warning: ignoring {THREADS_ENV}={raw:?}: expected a positive \
             integer thread count (e.g. {THREADS_ENV}=1 for serial); \
             falling back to available parallelism"
        );
    }
    parsed
}

/// The worker count: `MACS_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (1 if unknown).
/// Unusable `MACS_THREADS` values warn on stderr (see `parse_threads`)
/// before falling back.
pub fn threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Maps `f` over `items` on up to [`threads()`] scoped workers,
/// returning results **in input order**.
///
/// Items are claimed from a shared queue one at a time, so uneven work
/// (a fast kernel next to a slow ablation point) balances naturally.
/// With one worker (or one item) it degenerates to a plain serial map
/// with no threads spawned.
///
/// # Panics
///
/// If `f` panics on some item, the pool stops handing out further work,
/// lets in-flight items finish, and re-raises a panic that names the
/// **lowest failing input index** and the original message — instead of
/// poisoning the scope join and losing which input failed. (Supervised
/// evaluation that *recovers* from per-point panics is
/// [`mod@crate::supervise`]'s job; this map stays all-or-nothing.)
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                catch_unwind(AssertUnwindSafe(|| f(item))).unwrap_or_else(|payload| {
                    panic!(
                        "parallel_map: closure panicked on item {index}: {}",
                        panic_message(payload.as_ref())
                    )
                })
            })
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                // The queue lock cannot be poisoned: nothing inside the
                // critical section can panic.
                let next = queue.lock().expect("queue lock").next();
                let Some((index, item)) = next else {
                    break;
                };
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(result) => {
                        results.lock().expect("results lock").push((index, result));
                    }
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        let mut slot = failure.lock().expect("failure lock");
                        // Keep the lowest index so the re-raised message
                        // is deterministic regardless of schedule.
                        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
                            *slot = Some((index, message));
                        }
                        drop(slot);
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    if let Some((index, message)) = failure.into_inner().expect("workers finished") {
        panic!("parallel_map: closure panicked on item {index}: {message}");
    }
    let mut pairs = results.into_inner().expect("workers finished");
    pairs.sort_by_key(|&(index, _)| index);
    pairs.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Stagger the work so later items finish first on any schedule.
        let out = parallel_map((0..64u64).collect(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * i
        });
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        assert_eq!(parallel_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn env_override_parses_strictly() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn unusable_values_reject_rather_than_misconfigure() {
        // Empty / whitespace-only: set but meaningless.
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("   ")), None);
        // Garbage and mixed garbage.
        assert_eq!(parse_threads(Some("4x")), None);
        assert_eq!(parse_threads(Some("1.5")), None);
        assert_eq!(parse_threads(Some("0x10")), None);
        // Beyond usize::MAX overflows the parse and is rejected, not
        // clamped to some surprising value.
        assert_eq!(parse_threads(Some("99999999999999999999999999")), None);
        // A huge-but-representable count is accepted verbatim; the pool
        // clamps to the item count so it is harmless.
        assert_eq!(parse_threads(Some("1000000")), Some(1_000_000));
    }

    #[test]
    fn threads_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn panic_names_the_failing_item() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..32u64).collect(), |i| {
                if i == 13 {
                    panic!("bad point LFK{i}");
                }
                i
            })
        }))
        .unwrap_err();
        let message = panic_message(caught.as_ref());
        assert!(message.contains("item 13"), "got: {message}");
        assert!(message.contains("bad point LFK13"), "got: {message}");
    }

    #[test]
    fn panic_in_serial_path_names_the_item_too() {
        // One item forces the no-thread path.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(vec![7u64], |_| -> u64 { panic!("lone failure") })
        }))
        .unwrap_err();
        let message = panic_message(caught.as_ref());
        assert!(message.contains("item 0"), "got: {message}");
        assert!(message.contains("lone failure"), "got: {message}");
    }

    #[test]
    fn lowest_failing_index_wins_when_several_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..64u64).collect(), |i| {
                if i % 2 == 1 {
                    panic!("odd item");
                }
                i
            })
        }))
        .unwrap_err();
        let message = panic_message(caught.as_ref());
        // Item 1 is claimed first; later odd items may also fail, but
        // the report must stay deterministic.
        assert!(message.contains("item 1:"), "got: {message}");
    }
}
