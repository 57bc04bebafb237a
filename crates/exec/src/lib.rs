//! # laacad-exec — the workspace's parallel substrate
//!
//! One work-stealing-free, dependency-free family of parallel maps built
//! on `std::thread::scope`: workers claim input indices through an atomic
//! counter, so results land in input order regardless of scheduling. This
//! is the single parallel-execution path of the whole workspace — the
//! synchronous LAACAD round engine (`laacad`), scenario campaigns
//! (`laacad-scenario`) and experiment sweeps all route here.
//!
//! Three entry points:
//!
//! * [`parallel_map_with`] — map over owned inputs with an explicit
//!   worker count (`0` = all cores), so callers that already parallelize
//!   at an outer level can bound nesting;
//! * [`parallel_map_visit`] — the same, visiting each result in input
//!   order as soon as its ordered prefix completes;
//! * [`parallel_map_scratched`] — map over the index range `0..len` with
//!   one caller-owned scratch value per worker, for hot loops whose
//!   per-item work reuses large buffers (the round engine's
//!   `RoundScratch`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Resolves a `threads` knob (`0` = auto) against the machine and an
/// upper bound from the workload size.
///
/// Only `threads == 0` asks the machine, and only once per process:
/// `available_parallelism` reads cgroup files on Linux, and the round
/// engine resolves its workers on every step.
pub fn resolve_workers(threads: usize, len: usize) -> usize {
    let chosen = if threads == 0 {
        machine_workers()
    } else {
        threads
    };
    chosen.min(len).max(1)
}

/// The machine's available parallelism (4 when it cannot be queried),
/// queried on first use.
fn machine_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(4)
    })
}

/// Maps `f` over `inputs` on up to `threads` scoped workers (`0` = all
/// cores, never more than there are inputs), preserving input order.
///
/// With one input or one worker it degrades to a plain sequential map.
/// A panic in `f` propagates to the caller.
///
/// # Example
///
/// ```
/// let squares = laacad_exec::parallel_map_with(0, vec![1, 2, 3], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn parallel_map_with<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // One scheduler serves both entry points: this is the visiting map
    // with a no-op sink.
    parallel_map_visit(threads, inputs, f, |_, _| {})
}

/// [`parallel_map_with`] that additionally **visits every result in
/// input order as soon as its ordered prefix completes** — the substrate
/// for streaming consumers (e.g. a campaign runner flushing result rows
/// to disk while later cells are still running).
///
/// Workers claim inputs exactly as in [`parallel_map_with`]; the calling
/// thread drains finished results in input order and hands each to
/// `visit(index, &result)` before the full map is done. `visit` runs on
/// the calling thread, outside any lock, strictly in input order — so a
/// sequential sink (a file writer) needs no synchronization of its own.
/// The returned vector is identical to [`parallel_map_with`]'s.
pub fn parallel_map_visit<T, R, F, V>(threads: usize, inputs: Vec<T>, f: F, mut visit: V) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    V: FnMut(usize, &R),
{
    let n = inputs.len();
    let workers = resolve_workers(threads, n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, item) in inputs.into_iter().enumerate() {
            let result = f(item);
            visit(i, &result);
            out.push(result);
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let live = AtomicUsize::new(workers);
    let inputs: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Wake the draining thread when this worker exits for
                // *any* reason — a panic in `f` included — so it can
                // notice the missing result instead of waiting forever
                // (the scope join then propagates the panic). Taking the
                // slot lock before notifying closes the race against a
                // drainer that just checked `live` and is about to wait.
                struct ExitSignal<'a, R> {
                    live: &'a AtomicUsize,
                    slots: &'a Mutex<Vec<Option<R>>>,
                    ready: &'a Condvar,
                }
                impl<R> Drop for ExitSignal<'_, R> {
                    fn drop(&mut self) {
                        self.live.fetch_sub(1, Ordering::Release);
                        drop(self.slots.lock());
                        self.ready.notify_all();
                    }
                }
                let _exit = ExitSignal {
                    live: &live,
                    slots: &slots,
                    ready: &ready,
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input mutex")
                        .take()
                        .expect("each index is claimed once");
                    let result = f(item);
                    slots.lock().expect("slot mutex")[i] = Some(result);
                    ready.notify_one();
                }
            });
        }
        // Drain the ordered prefix on the calling thread.
        let mut out: Vec<R> = Vec::with_capacity(n);
        let mut guard = slots.lock().expect("slot mutex");
        'drain: for i in 0..n {
            loop {
                if let Some(result) = guard[i].take() {
                    drop(guard);
                    visit(i, &result);
                    out.push(result);
                    guard = slots.lock().expect("slot mutex");
                    break;
                }
                if live.load(Ordering::Acquire) == 0 {
                    // Every worker exited yet slot `i` is empty: a worker
                    // panicked before producing it. Stop draining; the
                    // scope join below re-raises the panic.
                    break 'drain;
                }
                guard = ready.wait(guard).expect("slot mutex");
            }
        }
        drop(guard);
        out
    })
}

/// Maps `f` over the index range `0..len` with one scratch value per
/// worker, preserving index order in the output.
///
/// `scratches` supplies the per-worker state: one worker is spawned per
/// element (callers size it with [`resolve_workers`] and keep it across
/// calls so buffers warm up once). With zero or one scratch the map runs
/// sequentially on the caller's thread using `scratches[0]`.
///
/// Determinism: `f` receives only the claimed index and its worker's
/// scratch, so as long as `f(_, i)` is a pure function of `i` (scratch
/// used for buffers, not for cross-item state), the output is identical
/// for every worker count and schedule.
///
/// # Panics
///
/// Panics when `len > 0` and `scratches` is empty, and propagates panics
/// from `f`.
pub fn parallel_map_scratched<S, R, F>(scratches: &mut [S], len: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    assert!(!scratches.is_empty(), "need at least one scratch value");
    if scratches.len() == 1 {
        let scratch = &mut scratches[0];
        return (0..len).map(|i| f(scratch, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for scratch in scratches.iter_mut() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let result = f(scratch, i);
                *slots[i].lock().expect("slot mutex") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex")
                .expect("every index produces a result")
        })
        .collect()
}

/// Merges (and drains) per-worker telemetry buffers into one aggregate,
/// visiting them in worker-index order. Lives here because the buffers
/// are the telemetry face of [`parallel_map_scratched`]'s per-worker
/// scratches: workers record into their own buffer without
/// synchronization, and this single-threaded fold after the fan-out is
/// what makes the aggregate independent of thread scheduling (the
/// accumulator's sums and min/max are order-independent, and the
/// traversal order is fixed besides).
///
/// Each source buffer is cleared as it is absorbed, so the scratches
/// are ready for the next round's [`laacad_telemetry::WorkerBuffer::arm`].
pub fn merge_worker_telemetry<'a>(
    buffers: impl Iterator<Item = &'a mut laacad_telemetry::WorkerBuffer>,
) -> laacad_telemetry::WorkerBuffer {
    let mut merged = laacad_telemetry::WorkerBuffer::default();
    for buffer in buffers {
        merged.absorb(buffer);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map_with(0, (0..200).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<i32> = parallel_map_with(0, Vec::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_with(0, vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn merge_worker_telemetry_aggregates_and_drains() {
        let mut buffers: Vec<laacad_telemetry::WorkerBuffer> = (0..4)
            .map(|worker| {
                let mut b = laacad_telemetry::WorkerBuffer::default();
                b.arm(true);
                b.ring_search.record(100 * (worker + 1));
                b.geometry.record(10 * (worker + 1));
                b
            })
            .collect();
        let merged = merge_worker_telemetry(buffers.iter_mut());
        assert_eq!(merged.ring_search.count, 4);
        assert_eq!(merged.ring_search.total_nanos, 100 + 200 + 300 + 400);
        assert_eq!(merged.geometry.min_nanos, 10);
        assert_eq!(merged.geometry.max_nanos, 40);
        for buffer in &buffers {
            assert!(buffer.ring_search.is_empty() && buffer.geometry.is_empty());
        }
    }

    #[test]
    fn non_copy_payloads() {
        let out = parallel_map_with(
            0,
            vec!["a".to_string(), "bb".to_string(), "ccc".to_string()],
            |s| s.len(),
        );
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map_with(0, vec![1, 2, 3], |x: i32| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let expect: Vec<i64> = (0..97).map(|x| x * x).collect();
        for threads in [0usize, 1, 2, 3, 8] {
            let got = parallel_map_with(threads, (0..97).collect(), |x: i64| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn scratched_map_is_order_and_threadcount_independent() {
        let expect: Vec<usize> = (0..321).map(|i| i + 1000).collect();
        for workers in [1usize, 2, 5, 8] {
            let mut scratches = vec![0usize; workers];
            let got = parallel_map_scratched(&mut scratches, 321, |s, i| {
                *s += 1; // scratch mutation must not affect results
                i + 1000
            });
            assert_eq!(got, expect, "workers = {workers}");
            // Every item was processed exactly once across workers.
            assert_eq!(scratches.iter().sum::<usize>(), 321);
        }
    }

    #[test]
    fn scratched_map_empty_len_is_fine_without_scratches() {
        let out: Vec<u8> = parallel_map_scratched(&mut Vec::<u8>::new(), 0, |_, _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn visit_map_streams_in_input_order() {
        for threads in [0usize, 1, 2, 7] {
            let mut seen = Vec::new();
            let out = parallel_map_visit(
                threads,
                (0..137).collect(),
                |x: i64| x * 3,
                |i, &r| {
                    assert_eq!(r, i as i64 * 3);
                    seen.push(i);
                },
            );
            assert_eq!(out, (0..137).map(|x| x * 3).collect::<Vec<_>>());
            assert_eq!(seen, (0..137).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    // (The scope join re-raises with its own payload, so no `expected`.)
    #[test]
    #[should_panic]
    fn visit_map_propagates_worker_panics_instead_of_hanging() {
        let _ = parallel_map_visit(
            4,
            (0..64).collect(),
            |x: i32| {
                if x == 13 {
                    panic!("boom");
                }
                x
            },
            |_, _| {},
        );
    }

    #[test]
    fn resolve_workers_bounds() {
        assert_eq!(resolve_workers(3, 100), 3);
        assert_eq!(resolve_workers(8, 2), 2);
        assert_eq!(resolve_workers(5, 0), 1);
        assert!(resolve_workers(0, 1000) >= 1);
        // Explicit counts never consult the machine: the result is
        // `threads` capped by the length, and at least one.
        for threads in 1..=4 {
            for len in 0..=3 {
                assert_eq!(
                    resolve_workers(threads, len),
                    threads.min(len).max(1),
                    "threads {threads} len {len}"
                );
            }
        }
        // Auto is the cached machine answer, capped the same way.
        let hw = machine_workers();
        assert_eq!(machine_workers(), hw, "queried once, then stable");
        for len in 0..=3 {
            assert_eq!(resolve_workers(0, len), hw.min(len).max(1), "len {len}");
        }
    }
}
