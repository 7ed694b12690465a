//! The experiment configuration (Table I of the paper) and its validating
//! builder.

use fedpower_agent::{ControllerConfig, RewardConfig};
use fedpower_baselines::ProfitConfig;
use fedpower_federated::{Codec, FaultScenario, FedAvgConfig, FedError, ServerOpt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which applications each post-round evaluation covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvalProtocol {
    /// One application per round, rotating through all twelve — §IV-A's
    /// "using one of the twelve evaluation applications". Curves are
    /// noisier (each round reflects a single app), matching the paper's
    /// plots.
    #[default]
    RoundRobin,
    /// Every application every round, averaged — smoother curves at 12×
    /// the evaluation cost.
    AllApps,
}

/// Shard topology for a hierarchical (fleet) federated run: `clients`
/// simulated edge devices reduced through `shards` edge aggregators.
///
/// `None` on [`ExperimentConfig::fleet`] means the classic flat topology;
/// `Some` routes `run` through [`crate::experiment::run_fleet`], which is
/// bit-identical to a flat round per the exact-sum aggregation contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Total simulated clients across all shards (≥ 1).
    pub clients: usize,
    /// Edge aggregators splitting the client range (≥ 1).
    pub shards: usize,
}

/// All hyperparameters of a reproduction run, defaulting to Table I.
///
/// | Parameter | Value | Parameter | Value |
/// |---|---|---|---|
/// | Learning rate α | 0.005 | Hidden layers | 1 |
/// | Max temp τ_max | 0.9 | Neurons/layer | 32 |
/// | Temp decay | 0.0005 | P_crit | 0.6 W |
/// | Min temp τ_min | 0.01 | k_offset | 0.05 W |
/// | Replay capacity C | 4000 | Δ_DVFS | 500 ms |
/// | Batch size C_B | 128 | Rounds R | 100 |
/// | Optim interval H | 20 | Steps/round T | 100 |
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Neural power-controller hyperparameters.
    pub controller: ControllerConfig,
    /// Federated-averaging schedule.
    pub fedavg: FedAvgConfig,
    /// Baseline (Profit) hyperparameters.
    pub profit: ProfitConfig,
    /// DVFS control interval Δ_DVFS in seconds.
    pub control_interval_s: f64,
    /// Control intervals per evaluation episode (Fig. 3 reward curves).
    pub eval_steps: u64,
    /// Safety cap on control intervals for to-completion runs
    /// (Table III / Fig. 5 exec-time accounting).
    pub eval_max_steps: u64,
    /// Which applications each post-round evaluation covers.
    pub eval_protocol: EvalProtocol,
    /// Fault model injected into [`crate::experiment::run_federated`]
    /// (`None` reproduces the paper's reliable synchronous setting).
    pub fault_scenario: FaultScenario,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Hierarchical shard topology (`None` = classic flat federation).
    /// Serialized configs from before the fleet subsystem deserialize to
    /// `None`.
    #[serde(default)]
    pub fleet: Option<FleetSpec>,
}

impl ExperimentConfig {
    /// Starts a validating [`ExperimentConfigBuilder`] from the paper's
    /// configuration. Select the profile first ([`ExperimentConfigBuilder::quick`]),
    /// then apply overrides; [`ExperimentConfigBuilder::build`] validates the result.
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            cfg: ExperimentConfig::paper(),
        }
    }

    /// Re-enters the builder from an existing configuration, for deriving
    /// validated variants (sweeps, capped-round training runs).
    pub fn to_builder(self) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder { cfg: self }
    }

    /// The paper's configuration.
    pub fn paper() -> Self {
        ExperimentConfig {
            controller: ControllerConfig::paper(),
            fedavg: FedAvgConfig::paper(),
            profit: ProfitConfig::paper(),
            control_interval_s: 0.5,
            eval_steps: 30,
            eval_max_steps: 1200,
            eval_protocol: EvalProtocol::RoundRobin,
            fault_scenario: FaultScenario::None,
            seed: 42,
            fleet: None,
        }
    }

    /// A scaled-down configuration for fast tests and smoke runs: fewer
    /// rounds and shorter evaluations, same per-step semantics.
    pub fn smoke() -> Self {
        let mut cfg = ExperimentConfig::paper();
        cfg.fedavg.rounds = 10;
        cfg.eval_steps = 10;
        cfg.eval_max_steps = 400;
        cfg
    }

    /// Returns a copy with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper()
    }
}

/// Why [`ExperimentConfigBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `fedavg.rounds` must be at least 1.
    ZeroRounds,
    /// `fedavg.steps_per_round` must be at least 1.
    ZeroStepsPerRound,
    /// `fedavg` fails [`FedAvgConfig::validate`] (participation,
    /// staleness decay, codec, wire version, server momentum or
    /// optimizer).
    Federation(FedError),
    /// `control_interval_s` must be positive and finite.
    InvalidControlInterval(f64),
    /// `eval_steps` must be at least 1.
    ZeroEvalSteps,
    /// `eval_max_steps` must be at least `eval_steps`.
    EvalCapBelowEpisode {
        /// Control intervals per evaluation episode.
        eval_steps: u64,
        /// The (too small) safety cap on control intervals.
        eval_max_steps: u64,
    },
    /// A [`FleetSpec`] must have at least one client and one shard.
    DegenerateFleet(FleetSpec),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRounds => write!(f, "rounds must be at least 1"),
            ConfigError::ZeroStepsPerRound => write!(f, "steps per round must be at least 1"),
            ConfigError::Federation(e) => write!(f, "{e}"),
            ConfigError::InvalidControlInterval(s) => {
                write!(f, "control interval {s} s must be positive and finite")
            }
            ConfigError::ZeroEvalSteps => write!(f, "eval steps must be at least 1"),
            ConfigError::EvalCapBelowEpisode {
                eval_steps,
                eval_max_steps,
            } => write!(
                f,
                "eval step cap {eval_max_steps} below episode length {eval_steps}"
            ),
            ConfigError::DegenerateFleet(spec) => write!(
                f,
                "fleet topology needs at least one client and one shard, got {} clients / {} shards",
                spec.clients, spec.shards
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ExperimentConfig`], so callers (notably the
/// CLI and benches) assemble runs declaratively instead of mutating config
/// fields in place. Starts from [`ExperimentConfig::paper`]; call
/// [`ExperimentConfigBuilder::quick`] *before* other setters to switch the
/// base profile to [`ExperimentConfig::smoke`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    cfg: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Switches the base profile to [`ExperimentConfig::smoke`] when
    /// `quick` is set — resets *all* fields, so apply it first.
    pub fn quick(mut self, quick: bool) -> Self {
        if quick {
            self.cfg = ExperimentConfig::smoke();
        }
        self
    }

    /// Sets the number of federated rounds `R`.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.cfg.fedavg.rounds = rounds;
        self
    }

    /// Sets the local environment steps per round `T`.
    pub fn steps_per_round(mut self, steps: u64) -> Self {
        self.cfg.fedavg.steps_per_round = steps;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the injected fault scenario.
    pub fn faults(mut self, scenario: FaultScenario) -> Self {
        self.cfg.fault_scenario = scenario;
        self
    }

    /// Sets the reward shape (P_crit sweeps).
    pub fn reward(mut self, reward: RewardConfig) -> Self {
        self.cfg.controller.reward = reward;
        self
    }

    /// Sets the per-round participation fraction.
    pub fn participation(mut self, participation: f64) -> Self {
        self.cfg.fedavg.participation = participation;
        self
    }

    /// Sets the control intervals per evaluation episode.
    pub fn eval_steps(mut self, steps: u64) -> Self {
        self.cfg.eval_steps = steps;
        self
    }

    /// Sets the safety cap on control intervals for to-completion runs.
    pub fn eval_max_steps(mut self, steps: u64) -> Self {
        self.cfg.eval_max_steps = steps;
        self
    }

    /// Sets which applications each post-round evaluation covers.
    pub fn eval_protocol(mut self, protocol: EvalProtocol) -> Self {
        self.cfg.eval_protocol = protocol;
        self
    }

    /// Sets (or clears) the hierarchical shard topology.
    pub fn fleet(mut self, fleet: Option<FleetSpec>) -> Self {
        self.cfg.fleet = fleet;
        self
    }

    /// Sets the server commit stage (FedAvg, FedAdam, or FedProx).
    pub fn optimizer(mut self, optimizer: ServerOpt) -> Self {
        self.cfg.fedavg.optimizer = optimizer;
        self
    }

    /// Sets the upload codec (dense f32, q8/q16 quantized, or top-k
    /// sparse deltas).
    pub fn codec(mut self, codec: Codec) -> Self {
        self.cfg.fedavg.codec = codec;
        self
    }

    /// Validates and returns the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] violated, checked in declaration
    /// order of the enum.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.fedavg.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        if cfg.fedavg.steps_per_round == 0 {
            return Err(ConfigError::ZeroStepsPerRound);
        }
        cfg.fedavg.validate().map_err(ConfigError::Federation)?;
        let dt = cfg.control_interval_s;
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(ConfigError::InvalidControlInterval(dt));
        }
        if cfg.eval_steps == 0 {
            return Err(ConfigError::ZeroEvalSteps);
        }
        if cfg.eval_max_steps < cfg.eval_steps {
            return Err(ConfigError::EvalCapBelowEpisode {
                eval_steps: cfg.eval_steps,
                eval_max_steps: cfg.eval_max_steps,
            });
        }
        if let Some(spec) = cfg.fleet {
            if spec.clients == 0 || spec.shards == 0 {
                return Err(ConfigError::DegenerateFleet(spec));
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message of the federation rule `built` broke.
    fn federation_error(built: Result<ExperimentConfig, ConfigError>) -> String {
        match built {
            Err(ConfigError::Federation(e @ FedError::InvalidConfig(_))) => e.to_string(),
            other => panic!("expected a federation rule error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_match_table1() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.controller.learning_rate, 0.005);
        assert_eq!(cfg.controller.temperature.tau_max, 0.9);
        assert_eq!(cfg.controller.temperature.decay, 0.0005);
        assert_eq!(cfg.controller.temperature.tau_min, 0.01);
        assert_eq!(cfg.controller.replay_capacity, 4000);
        assert_eq!(cfg.controller.batch_size, 128);
        assert_eq!(cfg.controller.optim_interval, 20);
        assert_eq!(cfg.controller.hidden_layers, 1);
        assert_eq!(cfg.controller.hidden_neurons, 32);
        assert_eq!(cfg.controller.reward.p_crit_w, 0.6);
        assert_eq!(cfg.controller.reward.k_offset_w, 0.05);
        assert_eq!(cfg.control_interval_s, 0.5);
        assert_eq!(cfg.fedavg.rounds, 100);
        assert_eq!(cfg.fedavg.steps_per_round, 100);
    }

    #[test]
    fn smoke_is_smaller_but_same_semantics() {
        let cfg = ExperimentConfig::smoke();
        assert!(cfg.fedavg.rounds < 100);
        assert_eq!(cfg.controller, ControllerConfig::paper());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = ExperimentConfig::paper();
        let b = ExperimentConfig::paper().with_seed(7);
        assert_eq!(a.controller, b.controller);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn builder_defaults_to_the_paper_config() {
        let cfg = ExperimentConfig::builder().build().unwrap();
        assert_eq!(cfg, ExperimentConfig::paper());
    }

    #[test]
    fn builder_quick_switches_to_the_smoke_profile() {
        let cfg = ExperimentConfig::builder().quick(true).build().unwrap();
        assert_eq!(cfg, ExperimentConfig::smoke());
        let cfg = ExperimentConfig::builder().quick(false).build().unwrap();
        assert_eq!(cfg, ExperimentConfig::paper());
    }

    #[test]
    fn builder_setters_compose() {
        let cfg = ExperimentConfig::builder()
            .quick(true)
            .rounds(7)
            .seed(9)
            .faults(FaultScenario::Chaos)
            .build()
            .unwrap();
        assert_eq!(cfg.fedavg.rounds, 7);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.fault_scenario, FaultScenario::Chaos);
        assert_eq!(cfg.eval_steps, ExperimentConfig::smoke().eval_steps);
    }

    #[test]
    fn builder_rejects_invalid_configs_with_the_right_error() {
        assert_eq!(
            ExperimentConfig::builder().rounds(0).build(),
            Err(ConfigError::ZeroRounds)
        );
        assert_eq!(
            ExperimentConfig::builder().steps_per_round(0).build(),
            Err(ConfigError::ZeroStepsPerRound)
        );
        for p in [0.0, 1.5] {
            let msg = federation_error(ExperimentConfig::builder().participation(p).build());
            assert!(msg.contains("participation"), "{msg}");
        }
        assert_eq!(
            ExperimentConfig::builder().eval_steps(0).build(),
            Err(ConfigError::ZeroEvalSteps)
        );
        assert_eq!(
            ExperimentConfig::builder()
                .eval_steps(50)
                .eval_max_steps(10)
                .build(),
            Err(ConfigError::EvalCapBelowEpisode {
                eval_steps: 50,
                eval_max_steps: 10
            })
        );
        let msg = ConfigError::ZeroRounds.to_string();
        assert!(msg.contains("rounds"), "{msg}");
    }

    #[test]
    fn builder_accepts_and_validates_fleet_topologies() {
        let spec = FleetSpec {
            clients: 100,
            shards: 8,
        };
        let cfg = ExperimentConfig::builder()
            .fleet(Some(spec))
            .build()
            .unwrap();
        assert_eq!(cfg.fleet, Some(spec));
        assert_eq!(ExperimentConfig::paper().fleet, None);
        for bad in [
            FleetSpec {
                clients: 0,
                shards: 8,
            },
            FleetSpec {
                clients: 100,
                shards: 0,
            },
        ] {
            assert_eq!(
                ExperimentConfig::builder().fleet(Some(bad)).build(),
                Err(ConfigError::DegenerateFleet(bad))
            );
        }
        let msg = ConfigError::DegenerateFleet(FleetSpec {
            clients: 0,
            shards: 0,
        })
        .to_string();
        assert!(msg.contains("fleet"), "{msg}");
    }

    #[test]
    fn paper_setting_commits_with_plain_fedavg() {
        assert_eq!(
            ExperimentConfig::paper().fedavg.optimizer,
            ServerOpt::FedAvg
        );
        assert_eq!(
            ExperimentConfig::smoke().fedavg.optimizer,
            ServerOpt::FedAvg
        );
    }

    #[test]
    fn builder_rejects_invalid_optimizer_hyperparameters() {
        let adam = |lr, beta1, beta2, eps| {
            ExperimentConfig::builder()
                .optimizer(ServerOpt::FedAdam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                })
                .build()
        };
        let msg = federation_error(adam(0.0, 0.9, 0.99, 1e-3));
        assert!(msg.contains("learning rate"), "{msg}");
        let msg = federation_error(adam(0.01, 1.0, 0.99, 1e-3));
        assert!(msg.contains("beta"), "{msg}");
        let msg = federation_error(adam(0.01, 0.9, -0.1, 1e-3));
        assert!(msg.contains("beta"), "{msg}");
        let msg = federation_error(adam(0.01, 0.9, 0.99, 0.0));
        assert!(msg.contains("epsilon"), "{msg}");
        let msg = federation_error(
            ExperimentConfig::builder()
                .optimizer(ServerOpt::FedProx { mu: -0.5 })
                .build(),
        );
        assert!(msg.contains("mu"), "{msg}");
        let mut with_momentum = ExperimentConfig::paper();
        with_momentum.fedavg.server_momentum = 0.5;
        let msg = federation_error(
            with_momentum
                .to_builder()
                .optimizer(ServerOpt::fedadam())
                .build(),
        );
        assert!(msg.contains("under FedAdam"), "{msg}");
        let ok = ExperimentConfig::builder()
            .optimizer(ServerOpt::fedadam())
            .build()
            .unwrap();
        assert_eq!(ok.fedavg.optimizer, ServerOpt::fedadam());
        let msg = federation_error(adam(0.01, 1.5, 0.99, 1e-3));
        assert!(msg.contains("[0, 1)"), "{msg}");
        let msg = federation_error(adam(f32::NAN, 0.9, 0.99, 1e-3));
        assert!(msg.contains("positive and finite"), "{msg}");
        let msg = federation_error(
            ExperimentConfig::builder()
                .optimizer(ServerOpt::FedProx { mu: -1.0 })
                .build(),
        );
        assert!(msg.contains(">= 0"), "{msg}");
    }

    #[test]
    fn paper_setting_is_fault_free() {
        assert_eq!(
            ExperimentConfig::paper().fault_scenario,
            FaultScenario::None
        );
        assert_eq!(
            ExperimentConfig::smoke().fault_scenario,
            FaultScenario::None
        );
    }

    #[test]
    fn builder_sets_and_validates_the_codec() {
        let cfg = ExperimentConfig::builder()
            .codec(Codec::Q8)
            .build()
            .expect("valid codec");
        assert_eq!(cfg.fedavg.codec, Codec::Q8);
        assert_eq!(ExperimentConfig::paper().fedavg.codec, Codec::Dense32);
        let msg = federation_error(
            ExperimentConfig::builder()
                .codec(Codec::TopK { frac: 0.0 })
                .build(),
        );
        assert!(msg.contains("topk fraction"), "{msg}");
    }
}
