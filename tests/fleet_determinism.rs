//! Integration proof of the hierarchical aggregation contract: a sharded
//! fleet round is **bit-identical** to a flat FedAvg round over the same
//! clients — the same global parameters, the same round reports, and the
//! same transport accounting — for any shard count, with and without a
//! seeded chaos fault plan. Robust (non-associative) combiners fail fast
//! with a typed error instead of silently changing semantics.

mod common;

use common::{MathClient, MathFleetFactory};
use fedpower::federated::report::{FaultSummary, RoundReport, TransportStats};
use fedpower::federated::{
    AggregationStrategy, FaultConfig, FaultPlan, FedAvgConfig, FedError, Federation, Fleet,
    FleetConfig,
};
use fedpower::telemetry::NullRecorder;

fn fed_cfg(rounds: u64) -> FedAvgConfig {
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    cfg
}

/// The flat reference: one classic [`Federation`] over persistent
/// [`MathClient`]s.
fn flat_run(
    num_clients: usize,
    rounds: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<f32>, Vec<RoundReport>, TransportStats) {
    let clients: Vec<MathClient> = (0..num_clients).map(MathClient::new).collect();
    let builder = Federation::builder(clients, fed_cfg(rounds)).seed(9);
    let mut fed = match plan {
        Some(p) => builder.fault_plan(p).build(),
        None => builder.build(),
    }
    .expect("flat federation constructs");
    let reports = fed.run();
    (fed.global_params().to_vec(), reports, *fed.transport())
}

/// The hierarchical run: the same clients behind `shards` edge
/// aggregators.
fn fleet_run(
    num_clients: usize,
    shards: usize,
    rounds: u64,
    plan: Option<&FaultPlan>,
) -> (Vec<f32>, Vec<RoundReport>, TransportStats) {
    #[allow(deprecated)]
    let config = FleetConfig {
        fedavg: fed_cfg(rounds),
        num_clients,
        shards,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    let mut fleet = Fleet::with_options(MathFleetFactory, config, plan, Box::new(NullRecorder))
        .expect("fleet constructs");
    let reports = fleet.run();
    (fleet.global_params().to_vec(), reports, *fleet.transport())
}

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 64];

#[test]
fn sharded_rounds_are_bit_identical_to_flat_fedavg() {
    let (flat_global, flat_reports, flat_transport) = flat_run(12, 6, None);
    for shards in SHARD_COUNTS {
        let (global, reports, transport) = fleet_run(12, shards, 6, None);
        assert_eq!(global, flat_global, "{shards} shards: global bits differ");
        assert_eq!(reports, flat_reports, "{shards} shards: reports differ");
        assert_eq!(
            transport, flat_transport,
            "{shards} shards: transport differs"
        );
    }
}

#[test]
fn sharded_rounds_survive_chaos_bit_identically() {
    let rounds = 20;
    let plan = FaultPlan::generate(&FaultConfig::chaos(), 12, rounds, 7);
    assert!(!plan.is_empty(), "the chaos plan must inject faults");
    let (flat_global, flat_reports, flat_transport) = flat_run(12, rounds, Some(&plan));
    let flat_summary = FaultSummary::from_reports(&flat_reports);
    // Chaos exercised the interesting dispositions.
    assert!(flat_summary.uploads_dropped > 0, "{flat_summary:?}");
    assert!(flat_summary.offline > 0, "{flat_summary:?}");

    for shards in SHARD_COUNTS {
        let (global, reports, transport) = fleet_run(12, shards, rounds, Some(&plan));
        assert_eq!(global, flat_global, "{shards} shards: global bits differ");
        assert_eq!(reports, flat_reports, "{shards} shards: reports differ");
        assert_eq!(
            transport, flat_transport,
            "{shards} shards: transport differs"
        );
        assert_eq!(FaultSummary::from_reports(&reports), flat_summary);
    }
}

#[test]
fn fleet_runs_are_seed_deterministic() {
    let plan = FaultPlan::generate(&FaultConfig::chaos(), 8, 10, 3);
    let a = fleet_run(8, 3, 10, Some(&plan));
    let b = fleet_run(8, 3, 10, Some(&plan));
    assert_eq!(a, b);
}

#[test]
fn robust_combiners_under_sharding_fail_fast_with_a_typed_error() {
    for strategy in [
        AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        AggregationStrategy::CoordinateMedian,
    ] {
        #[allow(deprecated)]
        let mut config = FleetConfig {
            fedavg: fed_cfg(1),
            num_clients: 4,
            shards: 2,
            batch: FleetConfig::DEFAULT_BATCH,
        };
        config.fedavg.strategy = strategy;
        let err = Fleet::new(MathFleetFactory, config)
            .expect_err("a buffering combiner cannot run sharded");
        assert_eq!(err, FedError::UnsupportedInFleet { strategy });
        let msg = err.to_string();
        assert!(msg.contains("not associative"), "{msg}");
        // The message names the rejected strategy, not just the rule.
        let name = match strategy {
            AggregationStrategy::TrimmedMean { .. } => "TrimmedMean",
            _ => "CoordinateMedian",
        };
        assert!(msg.contains(name), "{msg}");
        assert!(!strategy.shard_reducible());
    }
}

/// Selecting `--optimizer fedavg` explicitly is bit-identical to the
/// default fleet configuration under the seeded chaos plan.
#[test]
fn explicit_fedavg_optimizer_matches_the_default_fleet_under_chaos() {
    use fedpower::federated::ServerOpt;
    let rounds = 10;
    let plan = FaultPlan::generate(&FaultConfig::chaos(), 8, rounds, 5);
    assert!(!plan.is_empty());
    let default_run = fleet_run(8, 3, rounds, Some(&plan));
    let explicit_run = {
        #[allow(deprecated)]
        let mut config = FleetConfig {
            fedavg: fed_cfg(rounds),
            num_clients: 8,
            shards: 3,
            batch: FleetConfig::DEFAULT_BATCH,
        };
        config.fedavg.optimizer = ServerOpt::FedAvg;
        let mut fleet = Fleet::with_options(
            MathFleetFactory,
            config,
            Some(&plan),
            Box::new(NullRecorder),
        )
        .expect("fleet constructs");
        let reports = fleet.run();
        (fleet.global_params().to_vec(), reports, *fleet.transport())
    };
    assert_eq!(default_run, explicit_run);
}

/// A fleet rejects unusable optimizer hyperparameters with a typed error
/// whose message points at the offending setting.
#[test]
fn invalid_optimizer_configs_are_typed_fleet_errors() {
    use fedpower::federated::ServerOpt;
    let base = |optimizer| {
        #[allow(deprecated)]
        let mut config = FleetConfig {
            fedavg: fed_cfg(1),
            num_clients: 2,
            shards: 1,
            batch: FleetConfig::DEFAULT_BATCH,
        };
        config.fedavg.optimizer = optimizer;
        config
    };
    let err = Fleet::new(
        MathFleetFactory,
        base(ServerOpt::FedAdam {
            lr: -1.0,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        }),
    )
    .expect_err("negative server lr");
    assert!(matches!(err, FedError::InvalidConfig(_)));
    assert!(err.to_string().contains("learning rate"), "{err}");

    let err = Fleet::new(MathFleetFactory, base(ServerOpt::FedProx { mu: -0.1 }))
        .expect_err("negative mu");
    assert!(err.to_string().contains("mu"), "{err}");

    let mut conflicted = base(ServerOpt::fedadam());
    conflicted.fedavg.server_momentum = 0.5;
    let err = Fleet::new(MathFleetFactory, conflicted).expect_err("momentum under FedAdam");
    assert!(err.to_string().contains("server_momentum"), "{err}");
}
