//! A deterministic scoped worker pool shared by the sharded fleet and the
//! bench sweeps.
//!
//! The pool maps a function over owned items on `std::thread::scope`
//! threads, chunking items deterministically (contiguous chunks of
//! `ceil(len / workers)`), so results are always returned in input order
//! and any run with the same inputs produces bit-identical outputs
//! regardless of worker count or interleaving.
//!
//! [`WorkerPool::map_with_setup`] additionally threads one persistent
//! scratch value per worker slot through every call — this is how each
//! fleet shard worker keeps a single [`fedpower_agent::AgentWorkspace`]
//! warm across clients and rounds.

use std::num::NonZeroUsize;

/// A fixed worker-count configuration for scoped parallel maps.
///
/// The pool owns no threads: each call spawns scoped threads and joins
/// them before returning, so borrowing local data is safe and no state
/// leaks between calls (except the explicit per-worker scratch of
/// [`WorkerPool::map_with_setup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool with exactly `workers` worker slots (clamped to ≥1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Creates a pool sized to the machine's available parallelism
    /// (falling back to 1 when that cannot be determined).
    pub fn with_available_parallelism() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. Items are moved into contiguous per-worker chunks; a
    /// panicking `f` propagates after all workers have joined.
    pub fn map<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        let mut scratch: Vec<()> = Vec::new();
        self.map_with_setup(items, &mut scratch, || (), |item, ()| f(item))
    }

    /// [`WorkerPool::map`] threading one persistent per-worker scratch
    /// value through the closure. `scratch` is grown by calling `setup` to
    /// one entry per worker slot and retained across calls, so buffers
    /// warmed in one round stay warm for the next; existing slots are
    /// never re-initialized. This is how fleet shards share one training
    /// workspace per worker while materializing their clients lazily.
    ///
    /// Worker `w` processes the contiguous chunk
    /// `items[w·ceil(n/workers) ..]` with `scratch[w]` — the mapping from
    /// item to scratch slot is deterministic, but results must not depend
    /// on *which* scratch processes an item (scratch is scratch).
    pub fn map_with_setup<I, W, R, S, F>(
        &self,
        items: Vec<I>,
        scratch: &mut Vec<W>,
        setup: S,
        f: F,
    ) -> Vec<R>
    where
        I: Send,
        W: Send,
        R: Send,
        S: FnMut() -> W,
        F: Fn(I, &mut W) -> R + Sync,
    {
        let n = items.len();
        if scratch.len() < self.workers {
            scratch.resize_with(self.workers, setup);
        }
        if n == 0 {
            return Vec::new();
        }
        // Serial fast path: no threads, first scratch slot.
        if self.workers == 1 || n == 1 {
            let ws = &mut scratch[0];
            return items.into_iter().map(|item| f(item, ws)).collect();
        }

        let chunk_size = n.div_ceil(self.workers);
        let mut results: Vec<Option<R>> = Vec::with_capacity(n);
        results.resize_with(n, || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut item_iter = items.into_iter();
            let mut results_rest: &mut [Option<R>] = &mut results;
            let mut scratch_rest: &mut [W] = scratch;
            loop {
                let chunk: Vec<I> = item_iter.by_ref().take(chunk_size).collect();
                if chunk.is_empty() {
                    break;
                }
                let results_slice = std::mem::take(&mut results_rest);
                let (out_chunk, rest) = results_slice.split_at_mut(chunk.len());
                results_rest = rest;
                let scratch_slice = std::mem::take(&mut scratch_rest);
                let (ws_slot, ws_rest) = scratch_slice
                    .split_first_mut()
                    .expect("scratch sized to worker count, one slot per chunk");
                scratch_rest = ws_rest;
                let f = &f;
                handles.push(scope.spawn(move || {
                    for (slot, item) in out_chunk.iter_mut().zip(chunk) {
                        *slot = Some(f(item, ws_slot));
                    }
                }));
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        results
            .into_iter()
            .map(|r| r.expect("every item processed by exactly one worker"))
            .collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for workers in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(workers);
            let out = pool.map((0..37).collect(), |x: i32| x * 2);
            assert_eq!(out, (0..37).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_results_are_independent_of_worker_count() {
        let serial = WorkerPool::new(1).map((0..100).collect(), |x: u64| x.wrapping_mul(0x9E37));
        for workers in [2, 4, 7, 16] {
            let par =
                WorkerPool::new(workers).map((0..100).collect(), |x: u64| x.wrapping_mul(0x9E37));
            assert_eq!(serial, par);
        }
    }

    #[test]
    fn map_with_setup_builds_scratch_from_the_closure() {
        let pool = WorkerPool::new(4);
        // The scratch type has no Default: every slot is built by `setup`
        // from captured configuration.
        let capacity = 16usize;
        let mut scratch: Vec<Vec<u32>> = Vec::new();
        let out = pool.map_with_setup(
            (0..10u32).collect(),
            &mut scratch,
            || Vec::with_capacity(capacity),
            |x, buf| {
                buf.push(x);
                x * 3
            },
        );
        assert_eq!(out, (0..10).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(scratch.len(), 4, "one slot per worker");
        assert!(scratch.iter().all(|s| s.capacity() >= capacity));
        let touched: usize = scratch.iter().map(Vec::len).sum();
        assert_eq!(touched, 10);
        // A second call reuses warmed slots without re-running setup.
        pool.map_with_setup(
            (0..2u32).collect(),
            &mut scratch,
            || panic!("setup must not re-run for existing slots"),
            |x, buf: &mut Vec<u32>| {
                buf.push(x);
                x
            },
        );
        assert_eq!(scratch.iter().map(Vec::len).sum::<usize>(), 12);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = WorkerPool::new(4);
        let out: Vec<i32> = pool.map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_worker_request_is_clamped() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn panics_propagate_after_join() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map((0..8).collect(), |x: i32| {
                assert!(x != 5, "boom");
                x
            })
        }));
        assert!(caught.is_err());
    }
}
