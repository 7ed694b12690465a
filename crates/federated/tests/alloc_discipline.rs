//! Proof that the round engine's per-client accounting is allocation-free.
//!
//! `RoundEngine::handle` records straight into the caller's recorder, so
//! with a [`NullRecorder`] installed the frames that only account for a
//! client — trained, upload retried, dropped or straggling, offline,
//! broadcast delivered or lost — and the frame that ends the round must
//! never touch the heap. A 100k-client fleet round makes at least one such
//! call per client. `BeginRound` (the round's accumulator), `Upload` (the
//! frame bytes) and `CloseRound` (the reference window's copy of θ)
//! allocate by design, so they run with the counter disarmed.
//!
//! Everything lives in a single `#[test]` so concurrent test threads
//! cannot pollute the counter while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use fedpower_federated::{EnginePolicy, FedAvgConfig, Frame, RoundEngine};
use fedpower_telemetry::NullRecorder;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `System` upholds the `GlobalAlloc` contract; the counter
// is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

const CLIENTS: usize = 64;
const ROUNDS: usize = 20;

/// Runs `ROUNDS` rounds in which every client trains and then resolves
/// without a fresh upload, and returns the allocations made by the
/// accounting frames (the allocating frames run disarmed).
fn accounting_burst(engine: &mut RoundEngine) -> u64 {
    let out = &mut NullRecorder;
    let mut allocs = 0;
    for _ in 0..ROUNDS {
        engine.handle(Frame::BeginRound, out);
        allocs += allocations_during(|| {
            for client in 0..CLIENTS {
                engine.handle(Frame::Trained { client }, out);
                let resolved = match client % 3 {
                    0 => {
                        engine.handle(Frame::UploadRetry { client }, out);
                        Frame::UploadDropped { client }
                    }
                    1 => Frame::StragglerStarted { client },
                    _ => Frame::Offline { client },
                };
                engine.handle(resolved, out);
            }
            // The deadline, when one is armed, finds nothing pending.
            engine.tick(out);
        });
        engine.handle(Frame::CloseRound, out);
        allocs += allocations_during(|| {
            for client in 0..CLIENTS {
                let broadcast = if client % 2 == 0 {
                    Frame::Delivered {
                        client,
                        frame_len: 2_792,
                    }
                } else {
                    Frame::DownloadDropped { client }
                };
                engine.handle(broadcast, out);
            }
            engine.handle(Frame::EndRound, out);
        });
    }
    allocs
}

/// Minimum armed-allocation count over three bursts.
///
/// The counter is global, and the libtest main thread lazily allocates a
/// thread-local channel context at an arbitrary moment while it blocks
/// waiting for the test thread — one-time init that can land inside a
/// single armed window. A genuine per-frame allocation repeats in every
/// burst, so the minimum isolates the engine's own behavior.
fn min_allocations_over_bursts(engine: &mut RoundEngine) -> u64 {
    (0..3)
        .map(|_| accounting_burst(engine))
        .min()
        .expect("three bursts ran")
}

#[test]
fn per_client_accounting_frames_do_not_allocate() {
    let in_process = EnginePolicy::from_config(&FedAvgConfig::paper());
    // The standalone server arms a one-tick deadline, which tracks the
    // pending clients each accounting frame resolves.
    let server = EnginePolicy {
        deadline_ticks: Some(1),
        ..in_process
    };
    for (name, policy) in [("in-process", in_process), ("server", server)] {
        let mut engine =
            RoundEngine::new(vec![0.0; 687], policy, (0..CLIENTS).collect()).expect("valid policy");
        for client in 0..CLIENTS {
            engine.handle(
                Frame::Join {
                    client,
                    frame_len: 2_796,
                },
                &mut NullRecorder,
            );
        }
        let allocs = min_allocations_over_bursts(&mut engine);
        assert_eq!(
            allocs, 0,
            "{name}: accounting frames allocated {allocs} times over {ROUNDS} rounds \
             of {CLIENTS} clients"
        );
    }
}
