//! **Ablation: byzantine robustness.** The paper's unweighted FedAvg
//! averages whatever clients upload; a single malicious participant can
//! poison the global DVFS policy (and with it, every device's power
//! behaviour). This binary injects a model-poisoning client — via the
//! federation's fault layer ([`FaultPlan::poison`] driving a
//! [`fedpower_federated::FaultyTransport`] that rewrites the upload frame
//! in flight) — and compares plain averaging against the robust
//! aggregation rules.
//!
//! ```text
//! cargo run --release -p fedpower-bench --bin ablation_byzantine [--quick]
//! ```

use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_bench::BenchArgs;
use fedpower_core::eval::{evaluate_on_app, EvalOptions};
use fedpower_core::report::markdown_table;
use fedpower_federated::{AgentClient, AggregationStrategy, FaultPlan, FedAvgConfig, Federation};
use fedpower_workloads::AppId;

/// The classic model-poisoning attack: the update's direction is flipped
/// and amplified (`θ ← −10·θ`), expressed as an `Amplify(−10)` corruption
/// scheduled for every round.
const POISON_FACTOR: f32 = -10.0;

fn run(strategy: AggregationStrategy, with_attacker: bool, rounds: u64) -> f64 {
    let apps: [&[AppId]; 4] = [
        &[AppId::Fft, AppId::Lu],
        &[AppId::Ocean, AppId::Radix],
        &[AppId::Barnes, AppId::Cholesky],
        &[AppId::WaterNs, AppId::Volrend],
    ];
    let mut agents: Vec<AgentClient> = apps
        .iter()
        .enumerate()
        .map(|(i, a)| {
            AgentClient::new(
                i,
                ControllerConfig::paper(),
                DeviceEnvConfig::new(a),
                i as u64 + 1,
            )
        })
        .collect();
    let plan = if with_attacker {
        agents.push(AgentClient::new(
            4,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Fmm]),
            5,
        ));
        FaultPlan::poison(4, rounds, POISON_FACTOR)
    } else {
        FaultPlan::none()
    };
    let mut cfg = FedAvgConfig::paper();
    cfg.strategy = strategy;
    cfg.rounds = rounds;
    let mut fed = Federation::builder(agents, cfg)
        .seed(7)
        .fault_plan(&plan)
        .build()
        .expect("valid federation config");
    fed.run();

    // Evaluate the resulting global policy from an honest client's view.
    let policy = fed.clients()[0].agent().clone();
    let opts = EvalOptions::default();
    [AppId::Fft, AppId::Ocean, AppId::Cholesky]
        .iter()
        .enumerate()
        .map(|(i, &app)| {
            let mut p = policy.clone();
            evaluate_on_app(&mut p, app, &opts, 70 + i as u64).mean_reward
        })
        .sum::<f64>()
        / 3.0
}

fn main() {
    let cfg = BenchArgs::from_env().config();
    let rounds = cfg.fedavg.rounds.min(40);
    eprintln!("byzantine ablation: 4 honest clients (+1 attacker), {rounds} rounds...");

    let strategies = [
        ("uniform mean (paper)", AggregationStrategy::Uniform),
        (
            "trimmed mean (1/side)",
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        ),
        ("coordinate median", AggregationStrategy::CoordinateMedian),
    ];
    let mut rows = Vec::new();
    for (name, strategy) in strategies {
        let clean = run(strategy, false, rounds);
        let attacked = run(strategy, true, rounds);
        rows.push(vec![
            name.to_string(),
            format!("{clean:.3}"),
            format!("{attacked:.3}"),
            format!("{:+.3}", attacked - clean),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["aggregation", "no attacker", "1 poisoning client", "damage"],
            &rows,
        )
    );
    println!(
        "expected: plain averaging is destroyed by a single poisoned upload; trimmed \
         mean and median shrug it off."
    );
}
