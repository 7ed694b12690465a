use crate::error::FedError;
use fedpower_agent::{
    AgentWorkspace, ControllerConfig, DeviceEnv, DeviceEnvConfig, PowerController, State,
    StepDriver, StepObservation,
};
use fedpower_nn::NnError;
use fedpower_sim::rng::derive_seed;
use fedpower_sim::FreqLevel;
use fedpower_telemetry::{Counter, Recorder};

/// A locally optimized model uploaded to the server at the end of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelUpdate {
    /// The uploading client's identity.
    pub client_id: usize,
    /// The client's flat model parameters θ_r^n.
    pub params: Vec<f32>,
    /// Environment samples the client collected this round (used by the
    /// sample-weighted aggregation extension).
    pub num_samples: u64,
}

/// A device participating in federated optimization.
///
/// `begin_round` and `try_download` have pass-through default
/// implementations, so reliable clients only implement the core methods.
/// Faults — outages, dropped or late uploads, lost broadcasts — live at
/// the transport layer ([`crate::FaultyTransport`]), never in the client.
///
/// Training goes through [`FederatedClient::train_round_with`], which
/// borrows a per-worker [`FederatedClient::Workspace`] so the steady-state
/// hot path performs zero heap allocations. The [`crate::Federation`] owns
/// one workspace and a [`crate::Fleet`] one per worker thread, each reused
/// across clients and rounds; [`FederatedClient::train_round`] is a
/// convenience wrapper with throwaway scratch.
pub trait FederatedClient: Send {
    /// Reusable scratch borrowed during training. Clients whose training
    /// loop has no reusable buffers use `()`.
    type Workspace: Default + Send + std::fmt::Debug;

    /// The client's stable identity.
    fn id(&self) -> usize;

    /// Performs `steps` local environment interactions, training the local
    /// model per Algorithm 1, reusing the caller-owned workspace.
    fn train_round_with(&mut self, steps: u64, ws: &mut Self::Workspace);

    /// [`FederatedClient::train_round_with`] with throwaway scratch.
    fn train_round(&mut self, steps: u64) {
        self.train_round_with(steps, &mut Self::Workspace::default());
    }

    /// Produces the model update to upload.
    fn upload(&mut self) -> ModelUpdate;

    /// Installs the new global model.
    fn download(&mut self, global: &[f32]);

    /// Serialized size of one upload in bytes (for transport accounting).
    fn transfer_bytes(&self) -> usize;

    /// Serialized size of one upload under `codec` — the true framed
    /// length for the active upload codec. The default conservatively
    /// reports the dense size; codec-aware clients override it to route
    /// through [`crate::wire::Codec::upload_frame_len`].
    fn transfer_bytes_with(&self, codec: crate::wire::Codec) -> usize {
        let _ = codec;
        self.transfer_bytes()
    }

    /// Notifies the client that federated round `round` (1-based) begins,
    /// before it trains.
    fn begin_round(&mut self, _round: u64) {}

    /// Attempts to install the new global model.
    ///
    /// # Errors
    ///
    /// Implementations fail with [`FedError::ShapeMismatch`] when the
    /// model does not fit the client's architecture; the client keeps its
    /// previous parameters.
    fn try_download(&mut self, global: &[f32]) -> Result<(), FedError> {
        self.download(global);
        Ok(())
    }

    /// Emits the client's round-granularity telemetry counters after a
    /// completed local training round (cumulative env steps, simulator
    /// fast-path hits/misses, …). The default emits nothing.
    fn record_telemetry(&self, _round: u64, _recorder: &mut dyn Recorder) {}
}

/// The standard client: a [`PowerController`] attached to a simulated
/// device ([`DeviceEnv`]).
#[derive(Debug, Clone)]
pub struct AgentClient {
    id: usize,
    agent: PowerController,
    env: DeviceEnv,
    /// Last environment observation; the next round's first action is
    /// selected from its state, so training continues seamlessly across
    /// round boundaries.
    last_obs: StepObservation,
    samples_this_round: u64,
}

/// Algorithm 1's per-step training body as a [`StepDriver`], so a whole
/// round runs through [`DeviceEnv::run_steps`]'s batched path.
struct TrainDriver<'a> {
    agent: &'a mut PowerController,
    ws: &'a mut AgentWorkspace,
    /// State the pending action was selected from (set in `decide`,
    /// consumed by `observe` as the transition's origin state).
    prev_state: State,
}

impl StepDriver for TrainDriver<'_> {
    fn decide(&mut self, obs: &StepObservation) -> FreqLevel {
        self.prev_state = obs.state;
        self.agent.select_action_with(&self.prev_state, self.ws)
    }

    fn observe(&mut self, _step: u64, action: FreqLevel, obs: &StepObservation) -> bool {
        let reward = self.agent.reward_for(&obs.counters);
        self.agent
            .observe_with(&self.prev_state, action, reward, self.ws);
        true
    }
}

impl AgentClient {
    /// Creates a client; the device's first state observation is taken
    /// immediately.
    pub fn new(
        id: usize,
        controller: ControllerConfig,
        env_config: DeviceEnvConfig,
        seed: u64,
    ) -> Self {
        AgentClient::build(id, controller, env_config, seed, PowerController::new)
    }

    /// [`AgentClient::new`] with the controller's network zeroed instead
    /// of drawn ([`PowerController::zeroed`]), for a client whose first
    /// act is a download: the fleet builds a client per round and
    /// installs the model it holds right away. Every other part of the
    /// client, its random streams included, is as `new` builds it.
    pub fn zeroed(
        id: usize,
        controller: ControllerConfig,
        env_config: DeviceEnvConfig,
        seed: u64,
    ) -> Self {
        AgentClient::build(id, controller, env_config, seed, PowerController::zeroed)
    }

    /// The client whose controller `agent` builds from the controller
    /// configuration and the client's controller seed.
    fn build(
        id: usize,
        controller: ControllerConfig,
        env_config: DeviceEnvConfig,
        seed: u64,
        agent: fn(ControllerConfig, u64) -> PowerController,
    ) -> Self {
        let mut env = DeviceEnv::new(env_config, derive_seed(seed, 200 + id as u64));
        let agent = agent(controller, derive_seed(seed, 300 + id as u64));
        let last_obs = env.bootstrap();
        AgentClient {
            id,
            agent,
            env,
            last_obs,
            samples_this_round: 0,
        }
    }

    /// Read access to the local power controller.
    pub fn agent(&self) -> &PowerController {
        &self.agent
    }

    /// Mutable access to the local power controller (used by evaluation
    /// harnesses to clone the policy).
    pub fn agent_mut(&mut self) -> &mut PowerController {
        &mut self.agent
    }

    /// Read access to the device environment.
    pub fn env(&self) -> &DeviceEnv {
        &self.env
    }
}

impl FederatedClient for AgentClient {
    type Workspace = AgentWorkspace;

    fn id(&self) -> usize {
        self.id
    }

    fn train_round_with(&mut self, steps: u64, ws: &mut AgentWorkspace) {
        let initial = self.last_obs.clone();
        let mut driver = TrainDriver {
            agent: &mut self.agent,
            ws,
            prev_state: initial.state,
        };
        let (last, executed) = self.env.run_steps(steps, initial, &mut driver);
        self.last_obs = last;
        self.samples_this_round = executed;
    }

    fn upload(&mut self) -> ModelUpdate {
        ModelUpdate {
            client_id: self.id,
            params: self.agent.params(),
            num_samples: self.samples_this_round,
        }
    }

    fn download(&mut self, global: &[f32]) {
        // Kept infallible for the trait: a misshapen global model leaves
        // the previous parameters installed. Callers that need the error
        // use `try_download`, which surfaces it as `FedError::ShapeMismatch`.
        let _ = self.agent.set_params(global);
    }

    fn try_download(&mut self, global: &[f32]) -> Result<(), FedError> {
        self.agent
            .set_params(global)
            .map_err(|e| shape_mismatch_error(self.id, e))
    }

    fn transfer_bytes(&self) -> usize {
        self.agent.transfer_bytes()
    }

    fn transfer_bytes_with(&self, codec: crate::wire::Codec) -> usize {
        self.agent.transfer_bytes_with(codec)
    }

    fn record_telemetry(&self, round: u64, recorder: &mut dyn Recorder) {
        recorder.counter(Counter::new(
            "env_steps",
            round,
            Some(self.id),
            self.env.steps(),
        ));
        let (hits, misses) = self.env.fastpath_stats();
        recorder.counter(Counter::new("optable_hits", round, Some(self.id), hits));
        recorder.counter(Counter::new("optable_misses", round, Some(self.id), misses));
    }
}

/// Maps a model-install failure onto [`FedError::ShapeMismatch`] (keeping
/// other model errors as [`FedError::Model`]).
pub(crate) fn shape_mismatch_error(client_id: usize, e: NnError) -> FedError {
    match e {
        NnError::ShapeMismatch {
            expected, actual, ..
        } => FedError::ShapeMismatch {
            client_id,
            expected,
            actual,
        },
        other => FedError::Model(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedpower_workloads::AppId;

    fn client(id: usize, seed: u64) -> AgentClient {
        AgentClient::new(
            id,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]),
            seed,
        )
    }

    #[test]
    fn train_round_collects_samples_and_steps() {
        let mut c = client(0, 1);
        c.train_round(100);
        assert_eq!(c.agent().steps(), 100);
        assert_eq!(c.upload().num_samples, 100);
        // T=100 steps with H=20 → 5 local updates, as stated in §III-C.
        assert_eq!(c.agent().updates(), 5);
    }

    #[test]
    fn upload_carries_current_params() {
        let mut c = client(0, 2);
        c.train_round(20);
        let update = c.upload();
        assert_eq!(update.params, c.agent().params());
        assert_eq!(update.client_id, 0);
    }

    #[test]
    fn download_overwrites_model_only() {
        let mut c = client(0, 3);
        c.train_round(40);
        let replay_len = c.agent().replay().len();
        let steps = c.agent().steps();
        let fresh = PowerController::new(ControllerConfig::paper(), 99);
        c.download(&fresh.params());
        assert_eq!(c.agent().params(), fresh.params());
        assert_eq!(c.agent().replay().len(), replay_len, "replay stays local");
        assert_eq!(c.agent().steps(), steps, "temperature schedule continues");
    }

    #[test]
    fn distinct_clients_have_distinct_trajectories() {
        let mut a = client(0, 4);
        let mut b = client(1, 4);
        a.train_round(50);
        b.train_round(50);
        assert_ne!(a.upload().params, b.upload().params);
    }

    #[test]
    fn a_zeroed_client_trains_as_a_new_one_after_a_download() {
        let global = client(9, 0).upload().params;
        let mut drawn = client(2, 8);
        let mut zeroed = AgentClient::zeroed(
            2,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]),
            8,
        );
        drawn.download(&global);
        zeroed.download(&global);
        drawn.train_round(60);
        zeroed.train_round(60);
        assert_eq!(zeroed.agent().updates(), 3);
        assert_eq!(zeroed.upload(), drawn.upload());
    }

    #[test]
    fn clients_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AgentClient>();
    }

    #[test]
    fn zero_step_rounds_reset_sample_counts() {
        let mut c = client(0, 6);
        c.train_round(10);
        c.train_round_with(0, &mut AgentWorkspace::default());
        assert_eq!(c.upload().num_samples, 0);
    }

    #[test]
    fn mismatched_download_errors_instead_of_panicking() {
        let mut c = client(0, 5);
        c.train_round(10);
        let before = c.agent().params();
        let err = c.try_download(&[1.0, 2.0]).unwrap_err();
        assert!(
            matches!(
                err,
                FedError::ShapeMismatch {
                    client_id: 0,
                    actual: 2,
                    ..
                }
            ),
            "{err:?}"
        );
        c.download(&[1.0, 2.0]); // infallible path: silently keeps θ
        assert_eq!(c.agent().params(), before, "previous model survives");
        assert!(c.try_download(&before.clone()).is_ok());
    }
}
