//! End-to-end experiment drivers for the paper's evaluation section.

use crate::config::{EvalProtocol, ExperimentConfig, FleetSpec};
use crate::eval::{evaluate_on_app, run_to_completion, CompletionMetrics, EvalOptions};
use crate::metrics::{EvalPoint, EvalSeries, MethodSummary};
use crate::policy::DvfsPolicy;
use crate::scenario::{six_six_split, table2_scenarios, Scenario};
use fedpower_agent::{AgentWorkspace, DeviceEnvConfig, PowerController};
use fedpower_baselines::CollabFederation;
use fedpower_federated::report::{FaultSummary, RoundReport, TransportStats};
use fedpower_federated::{
    AgentClient, FaultPlan, FaultScenario, FedError, FederatedClient, Federation, Fleet,
    FleetClientFactory, FleetConfig,
};
use fedpower_sim::rng::{derive_seed, streams};
use fedpower_telemetry::{Counter, NullRecorder, Recorder};
use fedpower_workloads::AppId;
use serde::{Deserialize, Serialize};

/// Builds the device environment config for one device of a scenario.
fn device_env(apps: &[AppId], cfg: &ExperimentConfig) -> DeviceEnvConfig {
    let mut env = DeviceEnvConfig::new(apps);
    env.control_interval_s = cfg.control_interval_s;
    env.norm = cfg.controller.norm;
    env
}

/// The controller configuration federated clients train under: the
/// experiment's controller settings with the server optimizer's client-side
/// knobs applied — FedProx's μ pulls each client's local objective toward
/// the last broadcast global model. μ stays 0 (a no-op) for FedAvg/FedAdam,
/// so the default path is untouched.
fn client_controller(cfg: &ExperimentConfig) -> fedpower_agent::ControllerConfig {
    let mut ctrl = cfg.controller;
    if let fedpower_federated::ServerOpt::FedProx { mu } = cfg.fedavg.optimizer {
        ctrl.prox_mu = mu;
    }
    ctrl
}

/// Evaluates a policy snapshot after a training round, producing one point
/// of a Fig. 3 curve.
///
/// Matching §IV-A, each round evaluates on *one* of the twelve applications
/// (rotating round-robin so that 100 rounds cover every app several times);
/// the policy is greedy and frozen.
fn eval_point(
    policy: &mut dyn DvfsPolicy,
    round: u64,
    device: usize,
    cfg: &ExperimentConfig,
) -> EvalPoint {
    let opts = EvalOptions::from_config(cfg);
    let apps: Vec<AppId> = match cfg.eval_protocol {
        EvalProtocol::RoundRobin => {
            vec![AppId::ALL[((round - 1) % AppId::ALL.len() as u64) as usize]]
        }
        EvalProtocol::AllApps => AppId::ALL.to_vec(),
    };
    let mut reward = 0.0;
    let mut mean_level = 0.0;
    let mut std_level = 0.0;
    for (i, &app) in apps.iter().enumerate() {
        let seed = derive_seed(
            cfg.seed,
            9_000 + round * 17 + device as u64 + i as u64 * 131,
        );
        let episode = evaluate_on_app(policy, app, &opts, seed);
        reward += episode.mean_reward;
        mean_level += episode.trace.mean_level().unwrap_or(0.0);
        std_level += episode.trace.std_level().unwrap_or(0.0);
    }
    let n = apps.len() as f64;
    EvalPoint {
        round,
        reward: reward / n,
        mean_level: mean_level / n,
        std_level: std_level / n,
    }
}

/// Result of the local-only training runs (left column of Fig. 3).
#[derive(Debug, Clone)]
pub struct LocalOnlyOutcome {
    /// One evaluation series per device (`local-A`, `local-B`).
    pub series: Vec<EvalSeries>,
    /// The final trained controllers, one per device.
    pub agents: Vec<PowerController>,
}

/// Trains one isolated controller per device — no collaboration — and
/// evaluates after every round (§IV-A's local-only setting).
pub fn run_local_only(scenario: &Scenario, cfg: &ExperimentConfig) -> LocalOnlyOutcome {
    let labels = ["local-A", "local-B"];
    let mut series = Vec::new();
    let mut agents = Vec::new();
    // One workspace reused across all devices and rounds keeps the
    // training loop allocation-free once the buffers are warm.
    let mut ws = AgentWorkspace::new();
    for (d, apps) in scenario.devices().into_iter().enumerate() {
        // A local-only device is simply a federation client that never
        // synchronizes: reuse AgentClient for identical training dynamics.
        let mut client = AgentClient::new(
            d,
            cfg.controller,
            device_env(apps, cfg),
            derive_seed(cfg.seed, 10 + d as u64),
        );
        let mut s = EvalSeries::new(labels[d.min(1)]);
        for round in 1..=cfg.fedavg.rounds {
            client.train_round_with(cfg.fedavg.steps_per_round, &mut ws);
            let mut snapshot = client.agent().clone();
            s.points.push(eval_point(&mut snapshot, round, d, cfg));
        }
        series.push(s);
        agents.push(client.agent().clone());
    }
    LocalOnlyOutcome { series, agents }
}

/// Result of a federated training run (right column of Fig. 3).
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// One evaluation series per device (the shared policy evaluated with
    /// per-device seeds — "the reward is similar on both devices").
    pub series: Vec<EvalSeries>,
    /// Communication accounting.
    pub transport: TransportStats,
    /// The final (global) controllers, one per device.
    pub agents: Vec<PowerController>,
    /// Per-round orchestration reports (participation, fault accounting).
    pub reports: Vec<RoundReport>,
    /// Fault/resilience totals over the run (all zero when
    /// [`ExperimentConfig::fault_scenario`] is `None`).
    pub fault_summary: FaultSummary,
}

/// Runs the per-round train/evaluate loop shared by the reliable and
/// fault-injected federated paths.
fn federation_loop(
    federation: &mut Federation<AgentClient>,
    cfg: &ExperimentConfig,
    series: &mut [EvalSeries],
) -> Vec<RoundReport> {
    let eval_apps_per_round = match cfg.eval_protocol {
        EvalProtocol::RoundRobin => 1,
        EvalProtocol::AllApps => AppId::ALL.len() as u64,
    };
    let mut reports = Vec::with_capacity(cfg.fedavg.rounds as usize);
    for round in 1..=cfg.fedavg.rounds {
        reports.push(federation.run_round());
        for (d, device_series) in series.iter_mut().enumerate() {
            // Post-round clients hold the freshly downloaded global model
            // (or, under an injected download drop, their stale copy).
            let mut snapshot = federation.clients()[d].agent().clone();
            device_series
                .points
                .push(eval_point(&mut snapshot, round, d, cfg));
            federation.recorder_mut().counter(Counter::new(
                "eval_apps",
                round,
                Some(d),
                eval_apps_per_round,
            ));
        }
    }
    reports
}

/// Builds the scenario's federation over in-process links, one client
/// per device, injecting a seed-deterministic [`FaultPlan`] into the links
/// when the fault scenario asks for one, and handing `recorder` the
/// federation's telemetry stream. Every federated runner builds its
/// federation here, so each honors [`ExperimentConfig::fault_scenario`].
fn build_federation(
    scenario: &Scenario,
    cfg: &ExperimentConfig,
    recorder: Box<dyn Recorder>,
) -> Federation<AgentClient> {
    let clients: Vec<AgentClient> = scenario
        .devices()
        .into_iter()
        .enumerate()
        .map(|(d, apps)| {
            AgentClient::new(
                d,
                client_controller(cfg),
                device_env(apps, cfg),
                derive_seed(cfg.seed, 20 + d as u64),
            )
        })
        .collect();
    let rounds = cfg.fedavg.rounds;
    let num_devices = clients.len();
    let seed = derive_seed(cfg.seed, 30);
    let plan = (cfg.fault_scenario != FaultScenario::None).then(|| {
        FaultPlan::generate(
            &cfg.fault_scenario.config(),
            num_devices,
            rounds,
            derive_seed(cfg.seed, streams::FAULTS),
        )
    });
    let builder = Federation::builder(clients, cfg.fedavg)
        .seed(seed)
        .recorder(recorder);
    match plan.as_ref() {
        Some(p) => builder.fault_plan(p).build(),
        None => builder.build(),
    }
    .expect("a validated config builds a federation")
}

/// Trains one shared policy across the scenario's devices with federated
/// averaging, evaluating the global policy after every round.
///
/// When [`ExperimentConfig::fault_scenario`] is not `None`, every
/// transport link is wrapped in a [`fedpower_federated::FaultyTransport`]
/// driven by a seed-deterministic [`FaultPlan`], so faults strike the
/// bytes in flight; with `FaultScenario::None` the plain links are used
/// unchanged.
pub fn run_federated(scenario: &Scenario, cfg: &ExperimentConfig) -> FederatedOutcome {
    run_federated_recorded(scenario, cfg, Box::new(NullRecorder))
}

/// [`run_federated`] with a telemetry [`Recorder`] receiving the
/// federation's structured event stream (round lifecycle, per-client
/// train/upload/download dispositions, byte counts, simulator counters).
/// [`run_federated`] is this function with the zero-cost
/// [`NullRecorder`].
pub fn run_federated_recorded(
    scenario: &Scenario,
    cfg: &ExperimentConfig,
    recorder: Box<dyn Recorder>,
) -> FederatedOutcome {
    let mut federation = build_federation(scenario, cfg, recorder);
    let mut series: Vec<EvalSeries> = (0..federation.clients().len())
        .map(|d| EvalSeries::new(format!("federated-{}", (b'A' + d as u8) as char)))
        .collect();
    let reports = federation_loop(&mut federation, cfg, &mut series);
    let agents = federation
        .clients()
        .iter()
        .map(|c| c.agent().clone())
        .collect();
    let transport = *federation.transport();
    federation.recorder_mut().flush();

    let fault_summary = FaultSummary::from_reports(&reports);
    FederatedOutcome {
        series,
        transport,
        agents,
        reports,
        fault_summary,
    }
}

/// Materializes simulated edge devices on demand for a hierarchical
/// (sharded) fleet run.
///
/// Each client `id` runs one application from the paper's twelve
/// (cycling `AppId::ALL`), so an arbitrarily large fleet covers every
/// workload without holding more than one device per worker in memory.
/// Construction is deterministic in `(id, round)` per the
/// [`FleetClientFactory`] contract: the training seed folds the round
/// into the per-client stream.
#[derive(Debug, Clone)]
pub struct DeviceFleetFactory {
    cfg: ExperimentConfig,
    initial: Vec<f32>,
}

impl DeviceFleetFactory {
    /// Builds the factory, seeding the initial global model from the
    /// experiment's master seed (stream 300, matching the convention the
    /// per-client controllers use).
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let initial = PowerController::new(cfg.controller, derive_seed(cfg.seed, 300)).params();
        DeviceFleetFactory { cfg: *cfg, initial }
    }

    /// The application assigned to client `id`.
    pub fn app_for(id: usize) -> AppId {
        AppId::ALL[id % AppId::ALL.len()]
    }
}

impl FleetClientFactory for DeviceFleetFactory {
    type Client = AgentClient;

    fn initial_global(&self) -> Vec<f32> {
        self.initial.clone()
    }

    /// The client's network starts zeroed, not drawn: the fleet installs
    /// the model the client holds with `download` right after this call.
    fn materialize(&self, id: usize, round: u64) -> AgentClient {
        let apps = [Self::app_for(id)];
        let seed = derive_seed(derive_seed(self.cfg.seed, 20 + id as u64), round);
        AgentClient::zeroed(
            id,
            client_controller(&self.cfg),
            device_env(&apps, &self.cfg),
            seed,
        )
    }
}

/// Result of a hierarchical (sharded) federated run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The final global model parameters.
    pub global: Vec<f32>,
    /// Per-round orchestration reports (identical in shape to the flat
    /// engine's).
    pub reports: Vec<RoundReport>,
    /// Communication accounting across all shards.
    pub transport: TransportStats,
    /// Fault/resilience totals over the run.
    pub fault_summary: FaultSummary,
}

/// Runs one hierarchical federated experiment per
/// [`ExperimentConfig::fleet`]: `clients` simulated devices reduced
/// through `shards` edge aggregators, bit-identical to a flat FedAvg
/// round over the same clients.
///
/// # Errors
///
/// Returns [`FedError::InvalidConfig`] when `cfg.fleet` is `None` or the
/// federated settings fall outside the sharded engine's domain, and
/// [`FedError::UnsupportedInFleet`] for non-associative (robust)
/// aggregation strategies.
pub fn run_fleet(cfg: &ExperimentConfig) -> Result<FleetOutcome, FedError> {
    run_fleet_recorded(cfg, Box::new(NullRecorder))
}

/// [`run_fleet`] with a telemetry [`Recorder`] receiving the fleet's
/// structured event stream (round lifecycle, per-client dispositions
/// replayed shard by shard, per-shard counters and spans).
pub fn run_fleet_recorded(
    cfg: &ExperimentConfig,
    recorder: Box<dyn Recorder>,
) -> Result<FleetOutcome, FedError> {
    let spec: FleetSpec = cfg.fleet.ok_or_else(|| {
        FedError::InvalidConfig("fleet run requires a fleet topology (clients/shards)".into())
    })?;
    let plan = (cfg.fault_scenario != FaultScenario::None).then(|| {
        FaultPlan::generate(
            &cfg.fault_scenario.config(),
            spec.clients,
            cfg.fedavg.rounds,
            derive_seed(cfg.seed, streams::FAULTS),
        )
    });
    #[allow(deprecated)]
    let fleet_cfg = FleetConfig {
        fedavg: cfg.fedavg,
        num_clients: spec.clients,
        shards: spec.shards,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    let mut fleet = Fleet::with_options(
        DeviceFleetFactory::new(cfg),
        fleet_cfg,
        plan.as_ref(),
        recorder,
    )?;
    let reports = fleet.run();
    fleet.recorder_mut().flush();
    let fault_summary = FaultSummary::from_reports(&reports);
    Ok(FleetOutcome {
        global: fleet.global_params().to_vec(),
        reports,
        transport: *fleet.transport(),
        fault_summary,
    })
}

/// Trains the *Profit+CollabPolicy* baseline on a scenario and returns the
/// trained federation (clients hold local tables + the merged global
/// policy).
pub fn train_profit_collab(scenario: &Scenario, cfg: &ExperimentConfig) -> CollabFederation {
    let envs = scenario
        .devices()
        .into_iter()
        .map(|apps| device_env(apps, cfg))
        .collect();
    let mut fed = CollabFederation::new(
        cfg.profit,
        envs,
        cfg.fedavg.steps_per_round,
        derive_seed(cfg.seed, 40),
    );
    for _ in 0..cfg.fedavg.rounds {
        fed.run_round();
    }
    fed
}

/// One side-by-side row of the state-of-the-art comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MethodComparison {
    /// Our federated neural controller.
    pub ours: MethodSummary,
    /// Profit+CollabPolicy.
    pub baseline: MethodSummary,
}

/// Runs the Table III experiment: train both methods on every Table II
/// scenario, then measure exec time / IPS / power over all twelve
/// applications, averaged across scenarios.
pub fn run_table3(cfg: &ExperimentConfig) -> MethodComparison {
    let opts = EvalOptions::from_config(cfg);
    let mut ours_runs = Vec::new();
    let mut base_runs = Vec::new();
    for (si, scenario) in table2_scenarios().iter().enumerate() {
        let scenario_cfg = cfg.with_seed(derive_seed(cfg.seed, 50 + si as u64));
        let fed = run_federated_training_only(scenario, &scenario_cfg);
        let collab = train_profit_collab(scenario, &scenario_cfg);
        for (ai, &app) in AppId::ALL.iter().enumerate() {
            let seed = derive_seed(scenario_cfg.seed, 7_000 + ai as u64);
            let mut ours = fed.clone();
            ours_runs.push(run_to_completion(&mut ours, app, &opts, seed));
            let mut base = collab.client(0).clone();
            base_runs.push(run_to_completion(&mut base, app, &opts, seed));
        }
    }
    MethodComparison {
        ours: MethodSummary::from_runs(&ours_runs),
        baseline: MethodSummary::from_runs(&base_runs),
    }
}

/// Trains a federated policy without per-round evaluation (used where only
/// the final policy matters) and returns the global controller.
///
/// It runs the same federation as [`run_federated`], faults included, and
/// returns client 0's final model: [`run_federated`]'s `agents[0]`.
pub fn run_federated_training_only(scenario: &Scenario, cfg: &ExperimentConfig) -> PowerController {
    let mut federation = build_federation(scenario, cfg, Box::new(NullRecorder));
    federation.run();
    federation.clients()[0].agent().clone()
}

/// Outcome of the personalization extension: the shared global policy vs.
/// per-device fine-tuned copies.
#[derive(Debug, Clone)]
pub struct PersonalizedOutcome {
    /// The global policy after federated training.
    pub global: PowerController,
    /// Per-device policies after `fine_tune_rounds` additional local
    /// rounds on their own workloads (no further aggregation).
    pub personalized: Vec<PowerController>,
}

/// Personalization (the paper's future-work direction): federate first,
/// then let each device fine-tune the global policy locally for
/// `fine_tune_rounds` rounds without further aggregation.
///
/// The returned policies let callers compare global vs. personalized
/// performance on each device's own applications and on foreign ones.
pub fn run_personalized(
    scenario: &Scenario,
    cfg: &ExperimentConfig,
    fine_tune_rounds: u64,
) -> PersonalizedOutcome {
    let mut federation = build_federation(scenario, cfg, Box::new(NullRecorder));
    federation.run();
    let global = federation.clients()[0].agent().clone();

    let mut personalized = Vec::new();
    let mut ws = AgentWorkspace::new();
    for client in federation.clients_mut() {
        for _ in 0..fine_tune_rounds {
            client.train_round_with(cfg.fedavg.steps_per_round, &mut ws);
        }
        personalized.push(client.agent().clone());
    }
    PersonalizedOutcome {
        global,
        personalized,
    }
}

/// One application's Fig. 5 comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// The evaluated application.
    pub app: AppId,
    /// Our method's full-run metrics.
    pub ours: CompletionMetrics,
    /// Profit+CollabPolicy's full-run metrics.
    pub baseline: CompletionMetrics,
}

/// Runs the Fig. 5 experiment: six training applications per device (so
/// every evaluation app was seen by one device), then per-application
/// exec time / IPS / power under both methods.
pub fn run_fig5(cfg: &ExperimentConfig) -> Vec<Fig5Row> {
    let scenario = six_six_split();
    let opts = EvalOptions::from_config(cfg);
    let fed = run_federated_training_only(&scenario, cfg);
    let collab = train_profit_collab(&scenario, cfg);
    AppId::ALL
        .iter()
        .enumerate()
        .map(|(ai, &app)| {
            let seed = derive_seed(cfg.seed, 8_000 + ai as u64);
            let mut ours_policy = fed.clone();
            let mut base_policy = collab.client(0).clone();
            Fig5Row {
                app,
                ours: run_to_completion(&mut ours_policy, app, &opts, seed),
                baseline: run_to_completion(&mut base_policy, app, &opts, seed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::smoke();
        cfg.fedavg.rounds = 3;
        cfg.fedavg.steps_per_round = 40;
        cfg.eval_steps = 6;
        cfg.eval_max_steps = 200;
        cfg
    }

    #[test]
    fn local_only_produces_one_series_per_device() {
        let scenario = &table2_scenarios()[0];
        let out = run_local_only(scenario, &tiny_cfg());
        assert_eq!(out.series.len(), 2);
        assert_eq!(out.series[0].points.len(), 3);
        assert_eq!(out.series[0].label, "local-A");
        assert_eq!(out.agents.len(), 2);
        // Two isolated devices with different workloads diverge.
        assert_ne!(out.agents[0].params(), out.agents[1].params());
    }

    #[test]
    fn federated_produces_identical_policies_on_both_devices() {
        let scenario = &table2_scenarios()[0];
        let out = run_federated(scenario, &tiny_cfg());
        assert_eq!(out.series.len(), 2);
        assert_eq!(out.series[0].points.len(), 3);
        assert_eq!(
            out.agents[0].params(),
            out.agents[1].params(),
            "after the final download both devices hold the global policy"
        );
        assert!(out.transport.uploads > 0 && out.transport.downloads > 0);
    }

    #[test]
    fn federated_transport_volume_matches_round_structure() {
        let cfg = tiny_cfg();
        let scenario = &table2_scenarios()[0];
        let out = run_federated(scenario, &cfg);
        // Uploads: 2 per round (seeding θ₁ at construction is not a
        // network transfer — the server initializes the global model).
        assert_eq!(out.transport.uploads, 2 * cfg.fedavg.rounds);
        // Downloads: 2 initial + 2 per round.
        assert_eq!(out.transport.downloads, 2 + 2 * cfg.fedavg.rounds);
    }

    #[test]
    fn collab_training_builds_a_global_policy() {
        let scenario = &table2_scenarios()[1];
        let fed = train_profit_collab(scenario, &tiny_cfg());
        assert!(!fed.global().is_empty());
        assert_eq!(fed.num_devices(), 2);
    }

    #[test]
    fn fig5_covers_all_twelve_apps() {
        let rows = run_fig5(&tiny_cfg());
        assert_eq!(rows.len(), 12);
        let apps: Vec<AppId> = rows.iter().map(|r| r.app).collect();
        assert_eq!(apps, AppId::ALL.to_vec());
        for row in &rows {
            assert!(row.ours.exec_time_s > 0.0);
            assert!(row.baseline.exec_time_s > 0.0);
        }
    }

    #[test]
    fn personalization_diverges_devices_from_the_global_policy() {
        let scenario = &table2_scenarios()[1];
        let out = run_personalized(scenario, &tiny_cfg(), 2);
        assert_eq!(out.personalized.len(), 2);
        for p in &out.personalized {
            assert_ne!(
                p.params(),
                out.global.params(),
                "fine-tuning must move the policy"
            );
        }
        assert_ne!(
            out.personalized[0].params(),
            out.personalized[1].params(),
            "devices fine-tune toward their own workloads"
        );
    }

    #[test]
    fn zero_fine_tune_rounds_returns_the_global_policy() {
        let scenario = &table2_scenarios()[0];
        let out = run_personalized(scenario, &tiny_cfg(), 0);
        for p in &out.personalized {
            assert_eq!(p.params(), out.global.params());
        }
    }

    #[test]
    fn fault_free_runs_report_clean_rounds() {
        let cfg = tiny_cfg();
        let out = run_federated(&table2_scenarios()[0], &cfg);
        assert_eq!(out.reports.len(), 3);
        assert_eq!(out.fault_summary.rounds, 3);
        assert_eq!(out.fault_summary.aggregated_rounds, 3);
        assert_eq!(out.fault_summary.uploads_ok, 6);
        assert_eq!(out.fault_summary.uploads_dropped, 0);
        assert_eq!(out.fault_summary.updates_rejected, 0);
    }

    #[test]
    fn chaotic_fault_scenario_still_completes_with_finite_policies() {
        let mut cfg = tiny_cfg();
        cfg.fedavg.rounds = 6;
        cfg.fault_scenario = fedpower_federated::FaultScenario::Chaos;
        let out = run_federated(&table2_scenarios()[0], &cfg);
        assert_eq!(out.reports.len(), 6);
        for agent in &out.agents {
            assert!(
                agent.params().iter().all(|p| p.is_finite()),
                "faults must never leak NaN into a policy"
            );
        }
        assert_eq!(out.series[0].points.len(), 6, "every round evaluates");
    }

    #[test]
    fn training_only_runs_honor_the_fault_scenario() {
        fn bits(agent: &PowerController) -> Vec<u32> {
            agent.params().iter().map(|p| p.to_bits()).collect()
        }
        let scenario = &table2_scenarios()[0];
        let mut cfg = tiny_cfg();
        cfg.fedavg.rounds = 6;
        let trained = bits(&run_federated_training_only(scenario, &cfg));
        assert_eq!(trained, bits(&run_federated(scenario, &cfg).agents[0]));
        assert_eq!(trained, bits(&run_personalized(scenario, &cfg, 0).global));

        // Client 0 of the same faulty federation in both runners.
        cfg.fault_scenario = FaultScenario::Chaos;
        assert_eq!(
            bits(&run_federated_training_only(scenario, &cfg)),
            bits(&run_federated(scenario, &cfg).agents[0]),
            "a training-only run must inject the configured faults"
        );
    }

    fn tiny_fleet_cfg(clients: usize, shards: usize) -> ExperimentConfig {
        let mut cfg = tiny_cfg();
        cfg.fedavg.rounds = 2;
        cfg.fedavg.steps_per_round = 5;
        cfg.fleet = Some(FleetSpec { clients, shards });
        cfg
    }

    #[test]
    fn fleet_experiment_runs_and_accounts_every_client() {
        let cfg = tiny_fleet_cfg(6, 3);
        let out = run_fleet(&cfg).unwrap();
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0].participants, 6);
        assert_eq!(out.fault_summary.aggregated_rounds, 2);
        assert!(out.global.iter().all(|p| p.is_finite()));
        assert_eq!(out.transport.uploads, 2 * 6);
        // 6 join-handshake downloads + 6 per round.
        assert_eq!(out.transport.downloads, 6 + 2 * 6);
    }

    #[test]
    fn fleet_outcome_is_shard_invariant_and_seed_deterministic() {
        let a = run_fleet(&tiny_fleet_cfg(5, 1)).unwrap();
        let b = run_fleet(&tiny_fleet_cfg(5, 4)).unwrap();
        assert_eq!(a.global, b.global, "shard count must not change the model");
        assert_eq!(a.reports, b.reports);
        let c = run_fleet(&tiny_fleet_cfg(5, 4)).unwrap();
        assert_eq!(b.global, c.global);
    }

    #[test]
    fn fleet_run_without_topology_is_a_typed_error() {
        let cfg = tiny_cfg();
        assert!(matches!(run_fleet(&cfg), Err(FedError::InvalidConfig(_))));
    }

    #[test]
    fn experiments_are_seed_deterministic() {
        let cfg = tiny_cfg();
        let scenario = &table2_scenarios()[0];
        let a = run_federated(scenario, &cfg);
        let b = run_federated(scenario, &cfg);
        assert_eq!(a.agents[0].params(), b.agents[0].params());
        assert_eq!(a.series[0].points, b.series[0].points);
    }
}
