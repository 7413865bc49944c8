//! The workspace's one parallel map.
//!
//! Host parallelism exists only across independent work items: experiment
//! points that each boot their own kernel, and model-checker frontier
//! items that each replay their own trace. [`fan_out`] maps such items on
//! scoped threads and returns results in input order, so output never
//! depends on the job count. It guards against two ways a pool loses
//! wall-clock time:
//!
//! * **Oversubscription** — an outer fan-out (experiments) whose items fan
//!   out again (each experiment's benchmark × config grid) would carry
//!   `N × N` runnable threads. Worker threads carry a thread-local flag,
//!   and a nested call from inside a worker runs inline on that worker.
//! * **Phantom parallelism** — a job count above the host's core count
//!   only adds scheduler churn, so the worker count is clamped to
//!   `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// True on threads spawned by [`fan_out`]; nested calls see it and run
    /// inline instead of spawning a second pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The host's usable core count (at least 1).
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `requested` jobs clamped to the host's core count: the widest fan-out
/// that buys real parallelism.
fn effective_jobs(requested: usize) -> usize {
    requested.clamp(1, host_cores())
}

/// Applies `f` to every item on up to `jobs` pool threads (clamped to the
/// host's cores), returning results in input order. Runs inline — no
/// threads at all — when `jobs <= 1`, when there is at most one item, or
/// when called from inside another `fan_out` (nested fan-outs share the
/// outer pool's thread instead of oversubscribing the host).
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn fan_out<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let jobs = effective_jobs(jobs);
    if jobs <= 1 || n <= 1 || IN_POOL.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    let next = Mutex::new(0usize);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = {
                        let mut g = next.lock().expect("work index");
                        let i = *g;
                        *g += 1;
                        i
                    };
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    *results[i].lock().expect("result slot") = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result slot").expect("worker filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(fan_out(jobs, &items, |&i| i * i), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn nested_fan_out_runs_inline() {
        // The inner fan_out must not spawn: its items run on the outer
        // worker's thread, so the inner call sees IN_POOL set and every
        // inner item reports the same thread id as its outer item.
        let outer: Vec<u64> = (0..4).collect();
        let pairs = fan_out(4, &outer, |&o| {
            let tid = std::thread::current().id();
            let inner: Vec<u64> = (0..3).collect();
            let tids = fan_out(4, &inner, |_| std::thread::current().id());
            (o, tids.into_iter().all(|t| t == tid))
        });
        assert_eq!(pairs.len(), 4);
        for (o, inline) in pairs {
            assert!(inline, "item {o}: nested call escaped the outer worker");
        }
    }

    #[test]
    fn clamps_to_host_cores() {
        assert!(effective_jobs(0) >= 1);
        assert!(effective_jobs(10_000) <= host_cores());
        assert_eq!(effective_jobs(1), 1);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(fan_out(4, &[] as &[u64], |&i| i), Vec::<u64>::new());
        assert_eq!(fan_out(4, &[9u64], |&i| i + 1), vec![10]);
    }
}
