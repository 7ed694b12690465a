//! Bit-identity contract for the sans-I/O round engine refactor.
//!
//! Each case runs a seeded chaos-faulted federation (or fleet) with a
//! [`MemoryRecorder`], canonicalizes everything observable — the full
//! telemetry event stream, every counter, the per-round client
//! divergence bits, and the final global model bits — and checks the
//! CRC32 of that canonical string against a golden constant captured from
//! the pre-engine `Federation::run_round` / `Fleet::run_round` code.
//!
//! The goldens pin the *exact* event order, byte accounting, and f32
//! arithmetic of the original drivers: any refactor that reorders an
//! emission, changes a byte count, or perturbs the aggregation arithmetic
//! fails here before it can silently drift the determinism suites.
//! (Wall-clock spans are excluded; `PhaseTimings` compares equal by
//! design for the same reason.)

mod common;

use common::{MathClient, MathFleetFactory};
use fedpower::federated::report::RoundReport;
use fedpower::federated::{
    AggregationStrategy, FaultConfig, FaultPlan, FedAvgConfig, Federation, Fleet, FleetConfig,
    ServerOpt,
};
use fedpower::telemetry::MemoryRecorder;
use fedpower::wire::crc32;

/// Canonicalizes a finished run: events, counters, per-round divergence
/// bits, final global bits — everything the engine refactor must
/// preserve, nothing wall-clock.
fn canonicalize(recorder: &MemoryRecorder, reports: &[RoundReport], global: &[f32]) -> String {
    let mut out = String::new();
    for e in recorder.events() {
        out.push_str(&format!(
            "E {} {} {:?} {}\n",
            e.kind.name(),
            e.round,
            e.client,
            e.bytes
        ));
    }
    for c in recorder.counters() {
        out.push_str(&format!(
            "C {} {} {:?} {}\n",
            c.name, c.round, c.client, c.value
        ));
    }
    for r in reports {
        out.push_str(&format!(
            "D {} {:08x}\n",
            r.round,
            r.client_divergence.to_bits()
        ));
    }
    for p in global {
        out.push_str(&format!("G {:08x}\n", p.to_bits()));
    }
    out
}

fn chaos_plan(num_clients: usize, rounds: u64, seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultConfig::chaos(), num_clients, rounds, seed)
}

/// Runs a chaos federation and returns the canonical-stream CRC32.
fn flat_fingerprint(cfg: FedAvgConfig, num_clients: usize, seed: u64) -> u32 {
    let clients: Vec<MathClient> = (0..num_clients).map(MathClient::new).collect();
    let plan = chaos_plan(num_clients, cfg.rounds, seed ^ 0x5eed);
    let mem = MemoryRecorder::new();
    let mut fed = Federation::builder(clients, cfg)
        .seed(seed)
        .fault_plan(&plan)
        .recorder(Box::new(mem.clone()))
        .build()
        .expect("channel links are infallible");
    let reports = fed.run();
    let canonical = canonicalize(&mem, &reports, fed.global_params());
    crc32(canonical.as_bytes())
}

/// Runs a chaos fleet and returns the canonical-stream CRC32.
fn fleet_fingerprint(cfg: FleetConfig, seed: u64) -> u32 {
    let plan = chaos_plan(cfg.num_clients, cfg.fedavg.rounds, seed ^ 0x5eed);
    let mem = MemoryRecorder::new();
    let mut fleet = Fleet::with_options(MathFleetFactory, cfg, Some(&plan), Box::new(mem.clone()))
        .expect("fleet constructs");
    let reports = fleet.run();
    let canonical = canonicalize(&mem, &reports, fleet.global_params());
    crc32(canonical.as_bytes())
}

/// Golden fingerprints captured from the pre-engine drivers. If a change
/// to the round orchestration trips one of these, it changed observable
/// behavior — reports, telemetry, or arithmetic — and is not a pure
/// refactor.
const GOLDEN_FLAT_DENSE: u32 = 0xb94f_00db;
const GOLDEN_FLAT_SPARSE: u32 = 0x38bd_e8f4;
const GOLDEN_FLEET: u32 = 0xf845_f202;

#[test]
fn flat_dense_chaos_stream_matches_pre_engine_golden() {
    let cfg = FedAvgConfig {
        rounds: 12,
        steps_per_round: 3,
        min_quorum: 2,
        ..FedAvgConfig::paper()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), GOLDEN_FLAT_DENSE);
}

/// The dense golden's configuration, which the commit-stage cases below
/// each override in one field. Every such run aggregates all 12 rounds and
/// admits 9 stale (discounted) updates, so the robust strategies also
/// cover their weighted-mean bypass. Their goldens were captured before
/// the commit stage became one private enum.
fn commit_stage_base() -> FedAvgConfig {
    FedAvgConfig {
        rounds: 12,
        steps_per_round: 3,
        min_quorum: 2,
        ..FedAvgConfig::paper()
    }
}

#[test]
fn fedadam_commit_stream_matches_golden() {
    let cfg = FedAvgConfig {
        optimizer: ServerOpt::fedadam(),
        ..commit_stage_base()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), 0x24b9_d1b8);
}

#[test]
fn fedavgm_commit_stream_matches_golden() {
    let cfg = FedAvgConfig {
        server_momentum: 0.7,
        ..commit_stage_base()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), 0xe238_1f19);
}

#[test]
fn fedprox_momentum_commit_stream_matches_golden() {
    let cfg = FedAvgConfig {
        optimizer: ServerOpt::fedprox(),
        server_momentum: 0.5,
        ..commit_stage_base()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), 0x8d03_4b60);
}

#[test]
fn trimmed_mean_combine_stream_matches_golden() {
    let cfg = FedAvgConfig {
        strategy: AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        ..commit_stage_base()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), 0xb67f_e076);
}

#[test]
fn coordinate_median_combine_stream_matches_golden() {
    let cfg = FedAvgConfig {
        strategy: AggregationStrategy::CoordinateMedian,
        ..commit_stage_base()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 11), 0xebaa_906b);
}

#[test]
fn flat_sparse_codec_chaos_stream_matches_pre_engine_golden() {
    // Top-k exercises the reference-window encode/decode path plus the
    // seeded RNG paths (partial participation and update noise) — the
    // refactor must not perturb the RNG call sequence either.
    let cfg = FedAvgConfig {
        rounds: 12,
        steps_per_round: 3,
        min_quorum: 2,
        participation: 0.75,
        update_noise_sigma: 0.05,
        codec: fedpower::federated::wire::Codec::TopK { frac: 0.5 },
        ..FedAvgConfig::paper()
    };
    assert_eq!(flat_fingerprint(cfg, 8, 23), GOLDEN_FLAT_SPARSE);
}

#[test]
fn fleet_chaos_stream_matches_pre_engine_golden() {
    #[allow(deprecated)]
    let cfg = FleetConfig {
        fedavg: FedAvgConfig {
            rounds: 8,
            steps_per_round: 3,
            min_quorum: 2,
            ..FedAvgConfig::paper()
        },
        num_clients: 12,
        shards: 3,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    assert_eq!(fleet_fingerprint(cfg, 31), GOLDEN_FLEET);
}
