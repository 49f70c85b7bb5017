//! Parallel execution of independent simulation runs.
//!
//! Monte-Carlo experiments run hundreds of seeded simulations; each run is
//! single-threaded and deterministic, so the natural parallelism is
//! *across* runs. [`par_map`] fans a list of inputs out over OS threads
//! (`std::thread::scope`, no `'static` bound) and returns results in
//! input order — determinism of the aggregate is preserved because each
//! run's result depends only on its input.
//!
//! This module is the thread pool behind the `exp_*` binaries' seed
//! sweeps; no simulation code runs across threads.
//!
//! # Examples
//!
//! ```
//! use simnet::batch::par_map;
//!
//! let squares = par_map((0u64..100).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

// cmh-lint: allow-file(D4) — the thread pool behind the exp_* seed sweeps:
// fans independent seeded runs across cores; each run stays single-threaded.

use std::sync::Mutex;

/// Applies `f` to every item on a pool of OS threads; results come back in
/// input order. Uses up to `available_parallelism` threads (capped by the
/// number of items).
///
/// # Panics
///
/// Propagates a panic from any worker (the first one observed).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Work queue: (index, item); results slotted back by index.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots_mutex = Mutex::new(&mut slots);
    // A worker that panics inside `f` holds neither lock, so a poisoned
    // mutex here can only follow a panic the scope re-raises anyway.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let next = queue.lock().expect("batch queue poisoned").next();
                let Some((i, item)) = next else { break };
                let r = f(item);
                slots_mutex.lock().expect("batch slots poisoned")[i] = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Convenience for seed sweeps: runs `f(seed)` for every seed in
/// `0..runs`, in parallel, returning results ordered by seed.
pub fn par_seeds<R, F>(runs: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    par_map((0..runs).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let out = par_map((0..1000u64).collect(), |x| x + 1);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = par_map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_seeds_runs_each_seed_once() {
        let out = par_seeds(64, |s| s * 2);
        assert_eq!(out, (0..64).map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_simulations_match_serial() {
        use crate::rng::DetRng;
        // Deterministic per-seed work, executed both ways.
        let work = |seed: u64| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..100).map(|_| rng.next_below(1000)).sum::<u64>()
        };
        let serial: Vec<u64> = (0..32).map(work).collect();
        let parallel = par_seeds(32, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic] // "boom" when serial, "a scoped thread panicked" when scoped
    fn worker_panic_propagates() {
        let _ = par_map(vec![1u64, 2, 3, 4, 5, 6, 7, 8], |x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
