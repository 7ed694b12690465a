//! Workspace-wide determinism: the same master seed reproduces every
//! experiment bit-for-bit; different seeds genuinely differ.

use fedpower::agent::{AgentWorkspace, ControllerConfig, DeviceEnvConfig};
use fedpower::core::experiment::{run_federated, run_fig5, train_profit_collab};
use fedpower::core::scenario::{six_six_split, table2_scenarios};
use fedpower::core::ExperimentConfig;
use fedpower::federated::{
    AgentClient, FaultConfig, FaultPlan, FaultScenario, FedAvgConfig, FederatedClient, Federation,
};
use fedpower::workloads::AppId;

fn tiny() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.fedavg.rounds = 4;
    cfg.fedavg.steps_per_round = 50;
    cfg.eval_steps = 5;
    cfg.eval_max_steps = 150;
    cfg
}

#[test]
fn federated_run_is_bit_reproducible() {
    let scenario = &table2_scenarios()[0];
    let cfg = tiny();
    let a = run_federated(scenario, &cfg);
    let b = run_federated(scenario, &cfg);
    assert_eq!(a.agents[0].params(), b.agents[0].params());
    assert_eq!(a.series, b.series);
    assert_eq!(a.transport, b.transport);
}

#[test]
fn different_seeds_give_different_policies() {
    let scenario = &table2_scenarios()[0];
    let a = run_federated(scenario, &tiny());
    let b = run_federated(scenario, &tiny().with_seed(1234));
    assert_ne!(a.agents[0].params(), b.agents[0].params());
}

#[test]
fn faulty_federated_run_is_bit_reproducible() {
    let scenario = &table2_scenarios()[0];
    let mut cfg = tiny();
    cfg.fault_scenario = FaultScenario::Chaos;
    let a = run_federated(scenario, &cfg);
    let b = run_federated(scenario, &cfg);
    assert_eq!(a.agents[0].params(), b.agents[0].params());
    assert_eq!(a.series, b.series);
    assert_eq!(a.transport, b.transport);
    assert_eq!(
        a.reports, b.reports,
        "identical faults hit identical rounds"
    );
    assert_eq!(a.fault_summary, b.fault_summary);
}

fn agent_clients() -> Vec<AgentClient> {
    vec![
        AgentClient::new(
            0,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]),
            3,
        ),
        AgentClient::new(
            1,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Ocean, AppId::Radix]),
            4,
        ),
    ]
}

/// Selecting `--optimizer fedavg` explicitly is bit-identical to the
/// default configuration, under the seeded chaos plan: the default commit
/// runs exactly the legacy arithmetic.
#[test]
fn explicit_fedavg_optimizer_matches_the_default_under_chaos() {
    use fedpower::federated::ServerOpt;
    let scenario = &table2_scenarios()[0];
    let mut cfg = tiny();
    cfg.fault_scenario = FaultScenario::Chaos;
    let default_run = run_federated(scenario, &cfg);
    let mut explicit_cfg = cfg;
    explicit_cfg.fedavg.optimizer = ServerOpt::FedAvg;
    let explicit_run = run_federated(scenario, &explicit_cfg);
    for (a, b) in default_run.agents.iter().zip(explicit_run.agents.iter()) {
        assert_eq!(a.params(), b.params());
    }
    assert_eq!(default_run.series, explicit_run.series);
    assert_eq!(default_run.transport, explicit_run.transport);
    assert_eq!(default_run.reports, explicit_run.reports);
    assert_eq!(default_run.fault_summary, explicit_run.fault_summary);
}

/// With every fault probability at zero the generated plan is empty, and
/// a plan-wrapped federation reproduces the unwrapped one bit-for-bit —
/// the fault layer costs nothing when turned off.
#[test]
fn zero_probability_link_faults_equal_the_fault_free_run() {
    let mut fed_cfg = FedAvgConfig::paper();
    fed_cfg.rounds = 3;
    fed_cfg.steps_per_round = 30;
    let plain = {
        let mut fed = Federation::builder(agent_clients(), fed_cfg)
            .seed(5)
            .build()
            .expect("transport links");
        fed.run();
        (
            fed.global_params().to_vec(),
            *fed.transport(),
            fed.clients()[0].agent().params(),
        )
    };
    let wrapped = {
        let plan = FaultPlan::generate(&FaultConfig::none(), 2, 3, 77);
        assert!(plan.is_empty(), "zero probabilities must yield no faults");
        let mut fed = Federation::builder(agent_clients(), fed_cfg)
            .seed(5)
            .fault_plan(&plan)
            .build()
            .expect("transport links");
        fed.run();
        (
            fed.global_params().to_vec(),
            *fed.transport(),
            fed.clients()[0].agent().params(),
        )
    };
    assert_eq!(plain.0, wrapped.0, "global θ must be bit-identical");
    assert_eq!(plain.1, wrapped.1, "transport accounting must match");
    assert_eq!(plain.2, wrapped.2, "client policies must match");
}

/// Training through one persistent workspace — dirty from other clients
/// and earlier rounds — is bit-identical to the allocating `train_round`
/// wrapper with throwaway scratch: scratch contents never leak into
/// results.
#[test]
fn persistent_workspace_training_matches_throwaway_scratch() {
    let mut plain = agent_clients();
    let mut reused = agent_clients();
    let mut ws = AgentWorkspace::new();
    for _ in 0..3 {
        for c in &mut plain {
            c.train_round(40);
        }
        for c in &mut reused {
            c.train_round_with(40, &mut ws);
        }
    }
    for (a, b) in plain.iter_mut().zip(&mut reused) {
        assert_eq!(
            a.upload().params,
            b.upload().params,
            "workspace reuse must not change the trained policy"
        );
    }
}

/// Per-phase timings are populated by every round but never participate
/// in report identity — they are measurements, not outcomes.
#[test]
fn phase_timings_are_populated_but_ignored_by_equality() {
    let mut fed_cfg = FedAvgConfig::paper();
    fed_cfg.rounds = 1;
    fed_cfg.steps_per_round = 30;
    let mut fed = Federation::new(agent_clients(), fed_cfg, 5);
    let report = fed.run_round();
    assert!(report.timing.train_s > 0.0, "training time was measured");
    assert!(
        report.timing.transport_s > 0.0,
        "transport time was measured"
    );
    assert!(report.timing.total_s() >= report.timing.train_s);
    let mut other = report;
    other.timing.train_s += 100.0;
    other.timing.aggregate_s += 100.0;
    assert_eq!(report, other, "wall-clock never affects report identity");
}

#[test]
fn collab_baseline_is_reproducible() {
    let scenario = &table2_scenarios()[2];
    let cfg = tiny();
    let a = train_profit_collab(scenario, &cfg);
    let b = train_profit_collab(scenario, &cfg);
    // Compare via the merged global policies.
    let ga = a.global();
    let gb = b.global();
    assert_eq!(ga.len(), gb.len());
    for (key, entry) in ga {
        let other = gb.get(key).expect("same states visited");
        assert_eq!(entry.best_action, other.best_action);
        assert_eq!(entry.visits, other.visits);
        assert!((entry.mean_reward - other.mean_reward).abs() < 1e-12);
    }
}

#[test]
fn fig5_rows_are_reproducible() {
    let cfg = {
        let mut c = tiny();
        c.fedavg.rounds = 3;
        c
    };
    let a = run_fig5(&cfg);
    let b = run_fig5(&cfg);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.app, rb.app);
        assert_eq!(ra.ours.exec_time_s, rb.ours.exec_time_s);
        assert_eq!(ra.baseline.exec_time_s, rb.baseline.exec_time_s);
    }
    // Sanity: the six/six scenario really feeds the experiment.
    assert_eq!(six_six_split().training_apps().len(), 12);
}
