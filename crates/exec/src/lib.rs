//! # laacad-exec — the workspace's parallel substrate
//!
//! One work-stealing-free, dependency-free family of parallel maps built
//! on `std::thread::scope`: workers claim input indices through an atomic
//! counter, so results land in input order regardless of scheduling. This
//! is the single parallel-execution path of the whole workspace — the
//! synchronous LAACAD round engine (`laacad`), scenario campaigns
//! (`laacad-scenario`) and experiment sweeps all route here.
//!
//! Two entry points:
//!
//! * [`parallel_map_visit`] — map over owned inputs with an explicit
//!   worker count (`0` = all cores), so callers that already parallelize
//!   at an outer level can bound nesting, visiting each result in input
//!   order as soon as its ordered prefix completes;
//! * [`parallel_for_each_slot`] — visit every element of a mutable slice
//!   with one caller-owned worker value per thread, workers claiming
//!   one element at a time, for loops that update per-item state in
//!   place (the round engine's view store with its kernel scratch, the
//!   session host's sessions). `t` workers means `t` threads in total:
//!   the calling thread runs worker 0 and `t − 1` scoped threads run
//!   the rest.

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
/// cores, never more than there are inputs), preserving input order,
/// and **visits every result in input order as soon as its ordered
/// prefix completes** — the substrate for streaming consumers (e.g. a
/// campaign runner flushing result rows to disk while later cells are
/// still running).
///
/// Workers claim inputs through an atomic counter; the calling thread
/// drains finished results in input order and hands each to
/// `visit(index, &result)` before the full map is done. `visit` runs on
/// the calling thread, outside any lock, strictly in input order — so a
/// sequential sink (a file writer) needs no synchronization of its own.
/// The returned vector holds every result in input order.
///
/// With one input or one worker it degrades to a plain sequential map.
/// A panic in `f` propagates to the caller.
///
/// # Example
///
/// ```
/// let squares = laacad_exec::parallel_map_visit(0, vec![1, 2, 3], |x| x * x, |_, _| {});
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
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

/// Calls `f(worker, i, &mut slots[i])` once for every index of `slots`,
/// with one worker value per thread.
///
/// `workers` supplies the per-thread state, one element per thread in
/// total (callers size it with [`resolve_workers`]): worker 0 runs on
/// the calling thread and one scoped thread is spawned for each of the
/// others. Threads claim one slot at a time from a shared iterator over
/// `slots`, so every slot is borrowed by exactly one thread and no
/// `unsafe` is needed. With one worker the visit runs sequentially on
/// the caller's thread, in index order, and spawns nothing.
///
/// Determinism: as long as `f`'s effect on slot `i` is a pure function
/// of `i` and the slot (the worker used for buffers, or for tallies
/// whose merge does not depend on order), the slots end identical for
/// every worker count and schedule.
///
/// # Panics
///
/// Panics when `slots` is non-empty and `workers` is empty, and
/// propagates panics from `f`.
pub fn parallel_for_each_slot<W, T, F>(workers: &mut [W], slots: &mut [T], f: F)
where
    W: Send,
    T: Send,
    F: Fn(&mut W, usize, &mut T) + Sync,
{
    if slots.is_empty() {
        return;
    }
    assert!(!workers.is_empty(), "need at least one worker");
    if workers.len() == 1 {
        let worker = &mut workers[0];
        for (i, slot) in slots.iter_mut().enumerate() {
            f(worker, i, slot);
        }
        return;
    }
    let claims = Mutex::new(slots.iter_mut().enumerate());
    let claim_loop = |worker: &mut W| loop {
        let claimed = claims.lock().expect("slot mutex").next();
        let Some((i, slot)) = claimed else {
            break;
        };
        f(worker, i, slot);
    };
    let (first, rest) = workers.split_first_mut().expect("checked non-empty");
    std::thread::scope(|scope| {
        for worker in rest {
            scope.spawn(|| claim_loop(worker));
        }
        claim_loop(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain map: [`parallel_map_visit`] with a no-op visitor.
    fn map<T: Send, R: Send>(threads: usize, inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        parallel_map_visit(threads, inputs, f, |_, _| {})
    }

    #[test]
    fn preserves_order() {
        let out = map(0, (0..200).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<i32> = map(0, Vec::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(map(0, vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn non_copy_payloads() {
        let out = map(
            0,
            vec!["a".to_string(), "bb".to_string(), "ccc".to_string()],
            |s| s.len(),
        );
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = map(0, vec![1, 2, 3], |x: i32| {
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
            let got = map(threads, (0..97).collect(), |x: i64| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn slot_visit_is_order_and_threadcount_independent() {
        let expect: Vec<usize> = (0..321).map(|i| i + 1000).collect();
        for workers in [1usize, 2, 5, 8] {
            let mut visits = vec![0usize; workers];
            let mut slots = vec![0usize; 321];
            parallel_for_each_slot(&mut visits, &mut slots, |visited, i, slot| {
                *visited += 1; // worker mutation must not affect results
                *slot += i + 1000;
            });
            assert_eq!(slots, expect, "workers = {workers}");
            // Every slot was visited exactly once across workers.
            assert_eq!(visits.iter().sum::<usize>(), 321);
        }
    }

    #[test]
    fn slot_visit_runs_worker_zero_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut workers = [0usize, 1];
        let mut slots = vec![None; 300];
        parallel_for_each_slot(&mut workers, &mut slots, |&mut worker, _, slot| {
            *slot = Some((worker, std::thread::current().id()));
        });
        let visits: Vec<_> = slots.into_iter().map(|s| s.expect("visited")).collect();
        for &(worker, thread) in &visits {
            if worker == 0 {
                assert_eq!(thread, caller, "worker 0 left the calling thread");
            }
        }
        let mut others = Vec::new();
        for &(_, thread) in &visits {
            if thread != caller && !others.contains(&thread) {
                others.push(thread);
            }
        }
        assert!(
            others.len() <= 1,
            "two workers used {} other threads",
            others.len()
        );
    }

    #[test]
    fn slot_visit_of_no_slots_needs_no_workers() {
        parallel_for_each_slot(&mut Vec::<u8>::new(), &mut Vec::<u8>::new(), |_, _, _| {});
    }

    #[test]
    #[should_panic]
    fn slot_visit_propagates_worker_panics() {
        parallel_for_each_slot(&mut [(), ()], &mut [0u8; 64], |_, i, _| {
            if i == 13 {
                panic!("boom");
            }
        });
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
