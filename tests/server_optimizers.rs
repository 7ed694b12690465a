//! Reduction properties of the server optimizer layer: each new commit
//! stage collapses to the old FedAvg path bit-for-bit when its knobs are
//! neutralized, so `--optimizer fedavg` (the default) provably cannot
//! change any existing result.

mod common;

use common::MathClient;
use fedpower::core::experiment::run_federated;
use fedpower::core::scenario::table2_scenarios;
use fedpower::core::ExperimentConfig;
use fedpower::federated::{FedAvgConfig, Federation, ServerOpt, ServerOptKind};

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

fn math_cfg(rounds: u64) -> FedAvgConfig {
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    cfg
}

/// Two clients with sub-unit targets keep every per-round aggregate delta
/// inside `[-1, 1]`, which is the domain where the reduction corner's
/// ε-dominated denominator is exact.
fn small_clients() -> Vec<MathClient> {
    vec![
        MathClient::with_target(0, 0.5),
        MathClient::with_target(1, 1.0),
    ]
}

/// FedAdam with β₁ = β₂ = 0, server lr 1.0, and an ε that dominates the
/// second-moment root commits exactly the FedAvg assignment, bit for bit,
/// across a whole multi-round federation.
#[test]
fn fedadam_reduction_corner_is_bit_identical_to_fedavg() {
    let reduction = ServerOpt::FedAdam {
        lr: 1.0,
        beta1: 0.0,
        beta2: 0.0,
        eps: 1.0,
    };
    let mut adam_cfg = math_cfg(8);
    adam_cfg.optimizer = reduction;
    let mut adam = Federation::new(small_clients(), adam_cfg, 7);
    let mut avg = Federation::new(small_clients(), math_cfg(8), 7);
    for round in 0..8 {
        adam.run_round();
        avg.run_round();
        assert_eq!(
            bits(adam.global_params()),
            bits(avg.global_params()),
            "round {round} diverged"
        );
    }
}

/// FedProx with μ = 0 disables the proximal pull entirely: the federated
/// experiment (real controllers, replay buffers, evaluation episodes) is
/// bit-identical to plain FedAvg local training.
#[test]
fn fedprox_mu_zero_is_bit_identical_to_plain_local_training() {
    let scenario = &table2_scenarios()[0];
    let mut cfg = ExperimentConfig::smoke();
    cfg.fedavg.rounds = 3;
    cfg.fedavg.steps_per_round = 40;
    cfg.eval_steps = 5;
    cfg.eval_max_steps = 150;
    let plain = run_federated(scenario, &cfg);
    let mut prox_cfg = cfg;
    prox_cfg.fedavg.optimizer = ServerOpt::FedProx { mu: 0.0 };
    let prox = run_federated(scenario, &prox_cfg);
    for (a, b) in plain.agents.iter().zip(prox.agents.iter()) {
        assert_eq!(bits(&a.params()), bits(&b.params()));
    }
    assert_eq!(plain.series, prox.series);
    assert_eq!(plain.transport, prox.transport);
}

/// A positive μ actually reaches the clients' local objective: the trained
/// policies differ from plain FedAvg's.
#[test]
fn fedprox_positive_mu_changes_local_training() {
    let scenario = &table2_scenarios()[0];
    let mut cfg = ExperimentConfig::smoke();
    cfg.fedavg.rounds = 2;
    cfg.fedavg.steps_per_round = 40;
    cfg.eval_steps = 5;
    cfg.eval_max_steps = 150;
    let plain = run_federated(scenario, &cfg);
    let mut prox_cfg = cfg;
    prox_cfg.fedavg.optimizer = ServerOpt::FedProx { mu: 5.0 };
    let prox = run_federated(scenario, &prox_cfg);
    assert_ne!(
        bits(&plain.agents[0].params()),
        bits(&prox.agents[0].params()),
        "a strong proximal pull must alter the learned policy"
    );
}

/// The optimizer kind travels intact from config to server.
#[test]
fn federation_reports_the_configured_optimizer_kind() {
    let mut cfg = math_cfg(1);
    cfg.optimizer = ServerOpt::fedadam();
    let fed = Federation::new(small_clients(), cfg, 3);
    assert_eq!(fed.optimizer_kind(), ServerOptKind::FedAdam);
    let fed = Federation::new(small_clients(), math_cfg(1), 3);
    assert_eq!(fed.optimizer_kind(), ServerOptKind::FedAvg);
}

/// FedAdam at reference hyperparameters still converges the math
/// federation toward the mean of the client targets — smaller steps, same
/// fixed point.
#[test]
fn fedadam_converges_the_math_federation() {
    let mut cfg = math_cfg(300);
    cfg.optimizer = ServerOpt::fedadam();
    let mut fed = Federation::new(small_clients(), cfg, 11);
    fed.run();
    let mean = 0.75;
    for p in fed.global_params() {
        assert!(
            (p - mean).abs() < 0.05,
            "expected convergence near {mean}, got {p}"
        );
    }
}
