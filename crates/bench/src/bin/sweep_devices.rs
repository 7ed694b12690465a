//! **Sweep: federation size.** The paper evaluates N = 2 devices and notes
//! the system "can be naturally extended to use more than two devices".
//! This binary sweeps the fleet size with one application per device (the
//! most non-IID split possible) and measures how convergence and final
//! quality scale with N.
//!
//! ```text
//! cargo run --release -p fedpower-bench --bin sweep_devices [--quick]
//! ```

use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_bench::BenchArgs;
use fedpower_core::eval::{evaluate_on_app, EvalOptions};
use fedpower_core::report::markdown_table;
use fedpower_federated::{AgentClient, FedAvgConfig, Federation, WorkerPool};
use fedpower_sim::rng::derive_seed;
use fedpower_workloads::AppId;

fn main() {
    let cfg = BenchArgs::from_env().config();
    let rounds = cfg.fedavg.rounds;
    let opts = EvalOptions::from_config(&cfg);
    // Probe apps spanning the power spectrum (compute-bound water caps at
    // a low level, memory-bound ocean at a high one); they are excluded
    // from every training set, so this is pure generalization.
    let probes = [AppId::WaterNs, AppId::Ocean, AppId::Fft];
    let pool: Vec<AppId> = AppId::ALL
        .into_iter()
        .filter(|a| !probes.contains(a))
        .collect();

    // Each fleet size is fully determined by its own derived seeds, so the
    // sweep parallelizes over a worker pool with bit-identical, ordered
    // results.
    let workers = WorkerPool::with_available_parallelism();
    let rows: Vec<Vec<String>> = workers.map(vec![1usize, 2, 4, 8, 12], |n| {
        eprintln!("training a {n}-device fleet ({rounds} rounds)...");
        let clients: Vec<AgentClient> = (0..n)
            .map(|d| {
                // One app per device, cycling through the non-probe pool.
                let app = pool[d % pool.len()];
                AgentClient::new(
                    d,
                    ControllerConfig::paper(),
                    DeviceEnvConfig::new(&[app]),
                    derive_seed(cfg.seed, 800 + d as u64),
                )
            })
            .collect();
        let mut fed_cfg = FedAvgConfig::paper();
        fed_cfg.rounds = rounds;
        let mut fed = Federation::new(clients, fed_cfg, derive_seed(cfg.seed, 900 + n as u64));

        // Track how early the policy becomes "good" on unseen apps, and
        // its converged worst-case quality (tail mean denoises the
        // single-episode evals).
        let mut first_good_round = None;
        let mut tail_rewards = Vec::new();
        let mut divergence_sum = 0.0;
        for round in 1..=rounds {
            let report = fed.run_round();
            divergence_sum += report.client_divergence as f64;
            let mut policy = fed.clients()[0].agent().clone();
            // Worst case over the probes: the robustness the paper's
            // federation buys is exactly the ability not to fail on *any*
            // unseen app class.
            let reward: f64 = probes
                .iter()
                .enumerate()
                .map(|(i, &app)| {
                    evaluate_on_app(&mut policy, app, &opts, 50 + round * 7 + i as u64).mean_reward
                })
                .fold(f64::INFINITY, f64::min);
            if first_good_round.is_none() && reward > 0.35 {
                first_good_round = Some(round);
            }
            if round + 10 > rounds {
                tail_rewards.push(reward);
            }
        }
        let tail_mean = tail_rewards.iter().sum::<f64>() / tail_rewards.len().max(1) as f64;
        vec![
            format!("{n}"),
            format!("{tail_mean:.3}"),
            first_good_round
                .map(|r| r.to_string())
                .unwrap_or_else(|| format!(">{rounds}")),
            format!("{:.2}", divergence_sum / rounds as f64),
        ]
    });
    println!(
        "{}",
        markdown_table(
            &[
                "devices",
                "worst unseen-app reward",
                "rounds to reward > 0.35",
                "mean client divergence",
            ],
            &rows,
        )
    );
    println!(
        "reading the table: every device trains on one app (the most non-IID split), \
         and the probe apps are in no training set. The reward column is the mean, over \
         the last 10 rounds, of the worst reward across the probes; \">{rounds}\" means \
         the fleet never passed 0.35 in {rounds} rounds."
    );
}
