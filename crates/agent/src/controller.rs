use crate::policy::{SoftmaxPolicy, TemperatureSchedule};
use crate::replay::{ReplayBuffer, Transition};
use crate::reward::RewardConfig;
use crate::state::{State, StateNorm, STATE_DIM};
use crate::workspace::AgentWorkspace;
use fedpower_nn::{Activation, Adam, Huber, Mlp, NnError, Optimizer, TrainBatch};
use fedpower_sim::rng::{derive_rng, streams};
use fedpower_sim::{FreqLevel, PerfCounters};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the local power controller (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Adam learning rate α (paper: 0.005).
    pub learning_rate: f32,
    /// Softmax temperature schedule (paper: 0.9 → 0.01, decay 5·10⁻⁴).
    pub temperature: TemperatureSchedule,
    /// Replay-buffer capacity `C` (paper: 4000).
    pub replay_capacity: usize,
    /// Training batch size `C_B` (paper: 128).
    pub batch_size: usize,
    /// Optimize every `H` steps (paper: 20).
    pub optim_interval: u64,
    /// Neurons in the (single) hidden layer (paper: 32).
    pub hidden_neurons: usize,
    /// Number of hidden layers (paper: 1).
    pub hidden_layers: usize,
    /// Number of V/f levels `K` — the action-space size (Nano: 15).
    pub num_actions: usize,
    /// Reward shaping (paper: P_crit = 0.6 W, k_offset = 0.05 W).
    pub reward: RewardConfig,
    /// State-feature normalization.
    pub norm: StateNorm,
    /// Huber-loss transition point.
    pub huber_delta: f32,
    /// FedProx proximal coefficient μ: each local gradient step gains a
    /// pull `μ·(θ − θ_global)` toward the last downloaded global model,
    /// limiting client drift on heterogeneous data (0 disables it;
    /// paper: 0 — plain FedAvg).
    pub prox_mu: f32,
}

impl ControllerConfig {
    /// The exact configuration of Table I.
    pub fn paper() -> Self {
        ControllerConfig {
            learning_rate: 0.005,
            temperature: TemperatureSchedule::paper(),
            replay_capacity: 4000,
            batch_size: 128,
            optim_interval: 20,
            hidden_neurons: 32,
            hidden_layers: 1,
            num_actions: 15,
            reward: RewardConfig::paper(),
            norm: StateNorm::jetson_nano(),
            huber_delta: 1.0,
            prox_mu: 0.0,
        }
    }

    /// The MLP layer widths implied by this configuration.
    pub fn network_dims(&self) -> Vec<usize> {
        let mut dims = vec![STATE_DIM];
        dims.extend(std::iter::repeat_n(self.hidden_neurons, self.hidden_layers));
        dims.push(self.num_actions);
        dims
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::paper()
    }
}

/// The neural DVFS power controller of Algorithm 1.
///
/// Maintains an MLP `μ(s, a, θ)` estimating the expected reward of every
/// V/f level in the current state (Eq. (1)), explores with a softmax policy
/// over those estimates (Eq. (3)), and periodically regresses the network
/// toward observed rewards sampled from its replay buffer (Eq. (2)).
///
/// # Example
///
/// ```
/// use fedpower_agent::{ControllerConfig, PowerController, State};
/// use fedpower_sim::FreqLevel;
///
/// let mut agent = PowerController::new(ControllerConfig::paper(), 7);
/// let state = State::from_features([0.5, 0.4, 0.6, 0.1, 0.2]);
/// let action = agent.select_action(&state);
/// agent.observe(&state, action, 0.7);
/// assert_eq!(agent.steps(), 1);
/// assert_eq!(agent.predict_rewards(&state).len(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct PowerController {
    config: ControllerConfig,
    net: Mlp,
    optimizer: Adam,
    replay: ReplayBuffer,
    explore_rng: StdRng,
    replay_rng: StdRng,
    steps: u64,
    updates: u64,
    last_loss: Option<f32>,
    /// The last downloaded global parameters (FedProx anchor).
    prox_reference: Option<Vec<f32>>,
}

impl PowerController {
    /// Creates a controller with freshly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero actions, zero batch
    /// size, zero optimization interval).
    pub fn new(config: ControllerConfig, seed: u64) -> Self {
        PowerController::with_net(config, seed, |dims| {
            Mlp::new(
                dims,
                Activation::Relu,
                fedpower_sim::rng::derive_seed(seed, streams::NN_INIT),
            )
        })
    }

    /// [`PowerController::new`] with an all-zero network instead of the
    /// seeded weight draw, for a caller that installs a model with
    /// [`PowerController::set_params`] before the controller acts — a
    /// fleet client downloads the global right after it is built. The
    /// draw has its own stream (`NN_INIT`), so exploration and replay
    /// sampling draw exactly as under `new` with the same seed.
    ///
    /// # Panics
    ///
    /// As [`PowerController::new`].
    pub fn zeroed(config: ControllerConfig, seed: u64) -> Self {
        PowerController::with_net(config, seed, |dims| Mlp::zeroed(dims, Activation::Relu))
    }

    /// The controller around the network `net` builds for the
    /// configuration's layer widths, with its streams derived from `seed`.
    fn with_net(config: ControllerConfig, seed: u64, net: impl FnOnce(&[usize]) -> Mlp) -> Self {
        assert!(config.num_actions > 0, "need at least one action");
        assert!(config.batch_size > 0, "batch size must be nonzero");
        assert!(
            config.optim_interval > 0,
            "optimization interval must be nonzero"
        );
        let net = net(&config.network_dims());
        let optimizer = Adam::new(config.learning_rate, net.num_params());
        PowerController {
            replay: ReplayBuffer::new(config.replay_capacity),
            explore_rng: derive_rng(seed, streams::EXPLORATION),
            replay_rng: derive_rng(seed, streams::REPLAY),
            steps: 0,
            updates: 0,
            last_loss: None,
            prox_reference: None,
            config,
            net,
            optimizer,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Environment steps taken so far (drives the temperature schedule).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Gradient updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current softmax temperature.
    pub fn temperature(&self) -> f64 {
        self.config.temperature.temperature(self.steps)
    }

    /// Mean Huber loss of the most recent update, if any.
    pub fn last_loss(&self) -> Option<f32> {
        self.last_loss
    }

    /// Read access to the replay buffer.
    pub fn replay(&self) -> &ReplayBuffer {
        &self.replay
    }

    /// Predicted expected reward `μ(s, a, θ)` for every action (Eq. (1)).
    ///
    /// Allocates a fresh output; steady-state callers should prefer
    /// [`PowerController::predict_rewards_with`].
    pub fn predict_rewards(&self, state: &State) -> Vec<f32> {
        self.net
            .forward(state.features())
            .expect("state dim matches network input by construction")
    }

    /// [`PowerController::predict_rewards`] into caller-owned scratch —
    /// zero heap allocations once the workspace is warm. The returned
    /// slice lives in the workspace until its next use.
    pub fn predict_rewards_with<'ws>(
        &self,
        state: &State,
        ws: &'ws mut AgentWorkspace,
    ) -> &'ws [f32] {
        self.net
            .forward_with(state.features(), &mut ws.forward)
            .expect("state dim matches network input by construction")
    }

    /// Samples the next V/f level from the softmax policy (exploration).
    ///
    /// Allocates temporaries; steady-state callers should prefer
    /// [`PowerController::select_action_with`].
    pub fn select_action(&mut self, state: &State) -> FreqLevel {
        let mut ws = AgentWorkspace::default();
        self.select_action_with(state, &mut ws)
    }

    /// [`PowerController::select_action`] borrowing caller-owned scratch —
    /// zero heap allocations once the workspace is warm. Consumes exactly
    /// the same RNG draws as the allocating variant.
    pub fn select_action_with(&mut self, state: &State, ws: &mut AgentWorkspace) -> FreqLevel {
        let mu = self
            .net
            .forward_with(state.features(), &mut ws.forward)
            .expect("state dim matches network input by construction");
        self.select_action_from_mu(mu, &mut ws.probs)
    }

    /// Samples the next V/f level from already-computed reward estimates
    /// `μ(s, ·, θ)`: the policy half of [`PowerController::select_action_with`].
    fn select_action_from_mu(&mut self, mu: &[f32], probs: &mut Vec<f64>) -> FreqLevel {
        let tau = self.temperature();
        FreqLevel(SoftmaxPolicy::sample_with(
            mu,
            tau,
            &mut self.explore_rng,
            probs,
        ))
    }

    /// The greedy V/f level — used during evaluation rounds.
    pub fn greedy_action(&self, state: &State) -> FreqLevel {
        FreqLevel(SoftmaxPolicy::greedy(&self.predict_rewards(state)))
    }

    /// [`PowerController::greedy_action`] borrowing caller-owned scratch —
    /// zero heap allocations once the workspace is warm.
    pub fn greedy_action_with(&self, state: &State, ws: &mut AgentWorkspace) -> FreqLevel {
        FreqLevel(SoftmaxPolicy::greedy(self.predict_rewards_with(state, ws)))
    }

    /// Computes the Eq. (4) reward for an observed counter sample.
    pub fn reward_for(&self, counters: &PerfCounters) -> f64 {
        self.config.reward.reward(
            counters.freq_mhz / self.config.norm.f_max_mhz,
            counters.power_w,
        )
    }

    /// Featurizes raw counters with this controller's normalization.
    pub fn featurize(&self, counters: &PerfCounters) -> State {
        State::from_counters(counters, &self.config.norm)
    }

    /// Retargets the power constraint at runtime — the adaptive-budget
    /// scenario of the paper's future work (battery drain, user
    /// preference changes). Subsequent rewards use the new constraint; the
    /// replay buffer keeps old-constraint samples, so the reward model
    /// re-converges over the next optimization intervals.
    pub fn set_reward_config(&mut self, reward: RewardConfig) {
        self.config.reward = reward;
    }

    /// Records an experience tuple and, every `H` steps, performs one
    /// gradient update on a replay batch (Algorithm 1, lines 8–13).
    ///
    /// # Panics
    ///
    /// Panics if `action` is outside the action space.
    pub fn observe(&mut self, state: &State, action: FreqLevel, reward: f64) {
        let mut ws = AgentWorkspace::default();
        self.observe_with(state, action, reward, &mut ws);
    }

    /// [`PowerController::observe`] borrowing caller-owned scratch — the
    /// whole step (replay push, and every `H` steps a full sample + SGD
    /// update) performs zero heap allocations once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `action` is outside the action space.
    pub fn observe_with(
        &mut self,
        state: &State,
        action: FreqLevel,
        reward: f64,
        ws: &mut AgentWorkspace,
    ) {
        assert!(
            action.index() < self.config.num_actions,
            "action {} out of range for {} levels",
            action.index(),
            self.config.num_actions
        );
        self.replay.push(Transition {
            state: *state,
            action: action.index(),
            reward: reward as f32,
        });
        self.steps += 1;
        if self.steps.is_multiple_of(self.config.optim_interval) {
            self.train_once_with(ws);
        }
    }

    /// Performs one gradient update on a batch sampled from the replay
    /// buffer, returning the pre-update mean loss. No-op (returns `None`)
    /// while the buffer is empty.
    pub fn train_once(&mut self) -> Option<f32> {
        let mut ws = AgentWorkspace::default();
        self.train_once_with(&mut ws)
    }

    /// [`PowerController::train_once`] borrowing caller-owned scratch —
    /// replay sampling, backprop and the optimizer step all reuse the
    /// workspace buffers. Consumes exactly the same RNG draws and computes
    /// bit-identical updates to the allocating variant.
    pub fn train_once_with(&mut self, ws: &mut AgentWorkspace) -> Option<f32> {
        if !self.replay.sample_batch_into(
            self.config.batch_size,
            &mut self.replay_rng,
            &mut ws.replay,
        ) {
            return None;
        }
        let huber = Huber::new(self.config.huber_delta);
        let use_prox = self.config.prox_mu > 0.0 && self.prox_reference.is_some();
        let batch = TrainBatch {
            inputs: &ws.replay.inputs,
            actions: &ws.replay.actions,
            targets: &ws.replay.targets,
        };
        let loss = if use_prox {
            let loss = self
                .net
                .loss_and_gradient_into(&batch, &huber, &mut ws.train)
                .expect("batch sampled from replay is well formed");
            let anchor = self
                .prox_reference
                .as_ref()
                .expect("use_prox checked the anchor exists");
            self.net.params_into(&mut ws.params);
            for ((g, p), a) in ws.train.grad_mut().iter_mut().zip(&ws.params).zip(anchor) {
                *g += self.config.prox_mu * (p - a);
            }
            self.optimizer.step(&mut ws.params, ws.train.grad());
            self.net
                .set_params(&ws.params)
                .expect("params length is stable across a step");
            loss
        } else {
            self.net
                .train_batch_with(&batch, &huber, &mut self.optimizer, &mut ws.train)
        };
        self.updates += 1;
        self.last_loss = Some(loss);
        Some(loss)
    }

    /// The policy network's flat parameters (uploaded to the server).
    pub fn params(&self) -> Vec<f32> {
        self.net.params()
    }

    /// Overwrites the policy network's parameters (download from server).
    ///
    /// The replay buffer, step counter and optimizer moments stay local —
    /// only the model travels, which is the paper's privacy argument.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the parameter count differs.
    pub fn set_params(&mut self, params: &[f32]) -> Result<(), NnError> {
        self.net.set_params(params)?;
        if self.config.prox_mu > 0.0 {
            self.prox_reference = Some(params.to_vec());
        }
        Ok(())
    }

    /// Size in bytes of one dense model upload on the wire (§IV-C reports
    /// 2.8 kB): the encoded [`fedpower_wire`] upload frame for this
    /// network's parameter count, not an estimate.
    pub fn transfer_bytes(&self) -> usize {
        self.transfer_bytes_with(fedpower_wire::Codec::Dense32)
    }

    /// Size in bytes of one upload under `codec` — framed length comes
    /// from the one wire-layer helper
    /// ([`fedpower_wire::Codec::upload_frame_len`]), so telemetry cannot
    /// drift from the real frames.
    pub fn transfer_bytes_with(&self, codec: fedpower_wire::Codec) -> usize {
        codec.upload_frame_len(self.net.num_params())
    }

    /// Serializes the policy network for persistence across device
    /// restarts. The replay buffer is deliberately *not* included: it holds
    /// raw counter traces, and §III's privacy argument rests on those never
    /// leaving volatile device memory.
    pub fn policy_bytes(&self) -> Vec<u8> {
        self.net.to_bytes()
    }

    /// Restores a policy saved with [`PowerController::policy_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on a corrupted blob and
    /// [`NnError::ShapeMismatch`] when the saved architecture differs from
    /// this controller's configuration.
    pub fn load_policy_bytes(&mut self, bytes: &[u8]) -> Result<(), NnError> {
        let net = Mlp::from_bytes(bytes)?;
        if net.dims() != self.config.network_dims() {
            return Err(NnError::ShapeMismatch {
                expected: self.net.num_params(),
                actual: net.num_params(),
                context: "persisted policy architecture".into(),
            });
        }
        self.set_params(&net.params())
    }

    /// Direct access to the underlying network (for tests and analysis).
    pub fn network(&self) -> &Mlp {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(f: f32) -> State {
        State::from_features([f, 0.3, 0.5, 0.1, 0.2])
    }

    #[test]
    fn paper_config_matches_table1() {
        let c = ControllerConfig::paper();
        assert_eq!(c.learning_rate, 0.005);
        assert_eq!(c.replay_capacity, 4000);
        assert_eq!(c.batch_size, 128);
        assert_eq!(c.optim_interval, 20);
        assert_eq!(c.hidden_neurons, 32);
        assert_eq!(c.hidden_layers, 1);
        assert_eq!(c.network_dims(), vec![5, 32, 15]);
    }

    #[test]
    fn observe_trains_every_h_steps() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        for i in 0..40 {
            agent.observe(&state(0.5), FreqLevel(i % 15), 0.4);
        }
        // 40 steps with H=20 → exactly 2 updates.
        assert_eq!(agent.updates(), 2);
        assert!(agent.last_loss().is_some());
    }

    #[test]
    fn train_once_without_data_is_noop() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        assert_eq!(agent.train_once(), None);
        assert_eq!(agent.updates(), 0);
    }

    #[test]
    fn temperature_follows_schedule_with_steps() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        let t0 = agent.temperature();
        for _ in 0..2000 {
            agent.observe(&state(0.1), FreqLevel(0), 0.0);
        }
        assert!(agent.temperature() < t0);
    }

    #[test]
    fn greedy_action_is_argmax_of_predictions() {
        let agent = PowerController::new(ControllerConfig::paper(), 3);
        let s = state(0.7);
        let mu = agent.predict_rewards(&s);
        let greedy = agent.greedy_action(&s);
        let max = mu.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(mu[greedy.index()], max);
    }

    #[test]
    fn controller_learns_a_reward_pattern() {
        // Feed a synthetic environment where action 7 always yields the
        // highest reward; after training the greedy policy must find it.
        let mut agent = PowerController::new(ControllerConfig::paper(), 1);
        let s = state(0.5);
        for step in 0..3000 {
            let a = FreqLevel(step % 15);
            let r = if a.index() == 7 { 0.9 } else { 0.2 };
            agent.observe(&s, a, r);
        }
        assert_eq!(agent.greedy_action(&s), FreqLevel(7));
        let mu = agent.predict_rewards(&s);
        assert!((mu[7] - 0.9).abs() < 0.15, "mu[7]={}", mu[7]);
        assert!((mu[0] - 0.2).abs() < 0.15, "mu[0]={}", mu[0]);
    }

    #[test]
    fn params_roundtrip_preserves_predictions() {
        let a = PowerController::new(ControllerConfig::paper(), 10);
        let mut b = PowerController::new(ControllerConfig::paper(), 20);
        let s = state(0.4);
        assert_ne!(a.predict_rewards(&s), b.predict_rewards(&s));
        b.set_params(&a.params()).unwrap();
        assert_eq!(a.predict_rewards(&s), b.predict_rewards(&s));
    }

    #[test]
    fn zeroed_controller_acts_as_new_does_after_a_download() {
        let cfg = ControllerConfig {
            optim_interval: 4,
            batch_size: 8,
            ..ControllerConfig::paper()
        };
        let global = PowerController::new(cfg, 99).params();
        let mut drawn = PowerController::new(cfg, 7);
        let mut zeroed = PowerController::zeroed(cfg, 7);
        assert!(zeroed.params().iter().all(|&p| p == 0.0));
        drawn.set_params(&global).unwrap();
        zeroed.set_params(&global).unwrap();
        // Exploration and replay sampling draw alike, so training does.
        for step in 0..40 {
            let s = state((step % 10) as f32 / 10.0);
            let action = drawn.select_action(&s);
            assert_eq!(zeroed.select_action(&s), action, "step {step}");
            drawn.observe(&s, action, 0.1 * (step % 7) as f64);
            zeroed.observe(&s, action, 0.1 * (step % 7) as f64);
        }
        assert_eq!(drawn.updates(), 10);
        assert_eq!(zeroed.params(), drawn.params());
    }

    #[test]
    fn set_params_keeps_replay_local() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        agent.observe(&state(0.5), FreqLevel(3), 0.5);
        let other = PowerController::new(ControllerConfig::paper(), 9);
        agent.set_params(&other.params()).unwrap();
        assert_eq!(agent.replay().len(), 1, "replay must survive a download");
        assert_eq!(agent.steps(), 1, "step counter must survive a download");
    }

    #[test]
    fn transfer_size_matches_paper() {
        let agent = PowerController::new(ControllerConfig::paper(), 0);
        let kb = agent.transfer_bytes() as f64 / 1024.0;
        assert!(
            (2.5..3.0).contains(&kb),
            "transfer {kb:.2} kB should be ~2.8 kB"
        );
    }

    #[test]
    fn same_seed_same_behaviour() {
        let mut a = PowerController::new(ControllerConfig::paper(), 5);
        let mut b = PowerController::new(ControllerConfig::paper(), 5);
        let s = state(0.6);
        for _ in 0..50 {
            assert_eq!(a.select_action(&s), b.select_action(&s));
            a.observe(&s, FreqLevel(2), 0.3);
            b.observe(&s, FreqLevel(2), 0.3);
        }
    }

    #[test]
    fn reward_for_uses_measured_power_and_frequency() {
        let agent = PowerController::new(ControllerConfig::paper(), 0);
        let c = PerfCounters {
            freq_mhz: 1479.0,
            power_w: 0.5,
            ..PerfCounters::default()
        };
        assert!((agent.reward_for(&c) - 1.0).abs() < 1e-9);
        let hot = PerfCounters {
            freq_mhz: 1479.0,
            power_w: 0.8,
            ..PerfCounters::default()
        };
        assert_eq!(agent.reward_for(&hot), -1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observing_invalid_action_panics() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        agent.observe(&state(0.5), FreqLevel(15), 0.0);
    }

    #[test]
    fn policy_persists_across_a_simulated_restart() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 8);
        for i in 0..500u64 {
            agent.observe(&state(0.5), FreqLevel((i % 15) as usize), 0.4);
        }
        let saved = agent.policy_bytes();
        // "Reboot": a fresh controller restores the learned policy.
        let mut rebooted = PowerController::new(ControllerConfig::paper(), 999);
        rebooted.load_policy_bytes(&saved).unwrap();
        let s = state(0.5);
        assert_eq!(rebooted.predict_rewards(&s), agent.predict_rewards(&s));
        assert_eq!(rebooted.replay().len(), 0, "raw traces never persist");
    }

    #[test]
    fn loading_a_mismatched_policy_errors() {
        let mut wide_cfg = ControllerConfig::paper();
        wide_cfg.hidden_neurons = 64;
        let wide = PowerController::new(wide_cfg, 0);
        let mut narrow = PowerController::new(ControllerConfig::paper(), 0);
        assert!(narrow.load_policy_bytes(&wide.policy_bytes()).is_err());
        assert!(narrow.load_policy_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn two_hidden_layer_configuration_trains() {
        let mut cfg = ControllerConfig::paper();
        cfg.hidden_layers = 2;
        let mut agent = PowerController::new(cfg, 4);
        assert_eq!(agent.config().network_dims(), vec![5, 32, 32, 15]);
        let s = state(0.5);
        for step in 0..1500u64 {
            let a = FreqLevel((step % 15) as usize);
            let r = if a.index() == 5 { 0.9 } else { 0.2 };
            agent.observe(&s, a, r);
        }
        assert_eq!(agent.greedy_action(&s), FreqLevel(5));
    }

    #[test]
    fn retargeting_the_constraint_changes_rewards_immediately() {
        let mut agent = PowerController::new(ControllerConfig::paper(), 0);
        let c = PerfCounters {
            freq_mhz: 1479.0,
            power_w: 0.65,
            ..PerfCounters::default()
        };
        // 0.65 W violates the default 0.6 W constraint...
        assert!(agent.reward_for(&c) < 0.1);
        // ...but is comfortably inside a relaxed 0.8 W budget.
        agent.set_reward_config(RewardConfig::new(0.8, 0.05));
        assert!((agent.reward_for(&c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prox_term_limits_drift_from_the_global_anchor() {
        let mut plain_cfg = ControllerConfig::paper();
        plain_cfg.prox_mu = 0.0;
        let mut prox_cfg = ControllerConfig::paper();
        prox_cfg.prox_mu = 5.0; // strong pull for a visible effect

        let anchor = PowerController::new(ControllerConfig::paper(), 99).params();
        let mut plain = PowerController::new(plain_cfg, 1);
        let mut prox = PowerController::new(prox_cfg, 1);
        plain.set_params(&anchor).unwrap();
        prox.set_params(&anchor).unwrap();

        let s = state(0.5);
        for i in 0..400u64 {
            let a = FreqLevel((i % 15) as usize);
            plain.observe(&s, a, 0.9);
            prox.observe(&s, a, 0.9);
        }
        let drift = |agent: &PowerController| -> f32 {
            agent
                .params()
                .iter()
                .zip(&anchor)
                .map(|(p, a)| (p - a).abs())
                .sum()
        };
        assert!(
            drift(&prox) < drift(&plain),
            "prox drift {} should be below plain drift {}",
            drift(&prox),
            drift(&plain)
        );
    }

    #[test]
    fn prox_without_downloaded_anchor_behaves_like_plain_training() {
        let mut prox_cfg = ControllerConfig::paper();
        prox_cfg.prox_mu = 5.0;
        let mut prox = PowerController::new(prox_cfg, 2);
        let mut plain = PowerController::new(ControllerConfig::paper(), 2);
        let s = state(0.4);
        for i in 0..100u64 {
            let a = FreqLevel((i % 15) as usize);
            prox.observe(&s, a, 0.5);
            plain.observe(&s, a, 0.5);
        }
        // Never downloaded -> no anchor -> identical trajectories.
        assert_eq!(prox.params(), plain.params());
    }
}
