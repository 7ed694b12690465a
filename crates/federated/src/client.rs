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
/// one workspace per worker thread and reuses it across clients and rounds;
/// [`FederatedClient::train_round`] is a convenience wrapper with throwaway
/// scratch.
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

    /// Trains a whole block of clients for `steps` local interactions
    /// each, sharing one workspace.
    ///
    /// Semantically this **is** the serial loop — calling
    /// [`FederatedClient::train_round_with`] on each client in order —
    /// and the default implementation does exactly that. Implementations
    /// may override it to batch work across clients (see
    /// [`AgentClient`]'s lockstep action selection), but only when the
    /// per-client results are bit-identical to the serial loop; the fleet
    /// engine relies on that equivalence for its shard-count and
    /// batch-size invariance.
    fn train_block_with(clients: &mut [&mut Self], steps: u64, ws: &mut Self::Workspace)
    where
        Self: Sized,
    {
        for client in clients.iter_mut() {
            client.train_round_with(steps, ws);
        }
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
        let mut env = DeviceEnv::new(env_config, derive_seed(seed, 200 + id as u64));
        let agent = PowerController::new(controller, derive_seed(seed, 300 + id as u64));
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

/// Whether two clients' controllers can share one batched forward pass
/// *and* reach their next optimizer update simultaneously: equal
/// hyperparameters, equal step counters (same temperature and same next
/// train boundary), and bit-identical network weights.
fn lockstep_compatible(a: &AgentClient, b: &AgentClient) -> bool {
    a.agent.config() == b.agent.config()
        && a.agent.steps() == b.agent.steps()
        && a.agent.network() == b.agent.network()
}

/// Runs `window` lockstep steps across a group of weight-sharing clients:
/// per step, one batched forward pass over every client's state, then the
/// per-client sample → execute → observe sequence of [`TrainDriver`], in
/// group order. Each client's trajectory (RNG draws, replay contents,
/// environment evolution) is bit-identical to its serial
/// [`DeviceEnv::run_steps`] run because no state is shared between
/// clients and batched forward rows are bit-identical to single-row
/// forwards (`fedpower-nn`'s kernels accumulate each output row
/// independently in the same order).
fn lockstep_window(group: &mut [&mut AgentClient], window: u64, ws: &mut AgentWorkspace) {
    let rows = group.len();
    let dim = group[0].last_obs.state.features().len();
    let actions = group[0].agent.config().num_actions;
    // Take the batch scratch out of the workspace (a pointer move) so the
    // copied μ rows can outlive per-client borrows of the workspace.
    let mut scratch = std::mem::take(&mut ws.batch);
    for _ in 0..window {
        scratch.states.reset(rows, dim);
        for (row, client) in group.iter().enumerate() {
            scratch
                .states
                .row_mut(row)
                .copy_from_slice(client.last_obs.state.features());
        }
        {
            let net = group[0].agent.network();
            let mu = net
                .forward_batch_with(&scratch.states, &mut ws.forward)
                .expect("state rows match the network input width");
            scratch.mu.clear();
            scratch.mu.extend_from_slice(mu.as_slice());
        }
        for (i, client) in group.iter_mut().enumerate() {
            let mu_row = &scratch.mu[i * actions..(i + 1) * actions];
            let prev = client.last_obs.state;
            let action = client.agent.select_action_from_mu(mu_row, &mut ws.probs);
            let obs = client.env.execute(action);
            let reward = client.agent.reward_for(&obs.counters);
            client.agent.observe_with(&prev, action, reward, ws);
            client.last_obs = obs;
        }
    }
    ws.batch = scratch;
}

/// Trains a group of lockstep-compatible clients, batching action
/// selection while their weights remain bit-identical. Weights diverge at
/// the first optimizer update (each client trains on its own replay
/// buffer), so lockstep windows run up to the shared update boundary and
/// the remainder falls back to the serial per-client path.
fn train_group_lockstep(group: &mut [&mut AgentClient], steps: u64, ws: &mut AgentWorkspace) {
    let mut done = 0u64;
    while done < steps {
        let (interval, taken) = {
            let agent = &group[0].agent;
            (agent.config().optim_interval, agent.steps())
        };
        // Updates fire inside `observe` of the step that lands on the
        // interval; decisions up to and including that step still see
        // shared weights, so the window may include the update step.
        let window = (steps - done).min(interval - taken % interval);
        lockstep_window(group, window, ws);
        done += window;
        if done < steps {
            let (first, rest) = group.split_first().expect("group is non-empty");
            if !rest.iter().all(|c| lockstep_compatible(first, c)) {
                break;
            }
        }
    }
    for client in group.iter_mut() {
        if done < steps {
            client.train_round_with(steps - done, ws);
        }
        client.samples_this_round = steps;
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

    /// Cross-client batched action selection: contiguous runs of clients
    /// holding bit-identical weights (the common case in a fleet round,
    /// where every materialized client just downloaded the same global
    /// model) step their environments in lockstep, evaluating all their
    /// reward predictions through one batched matmul per step. The
    /// per-client results are bit-identical to the serial loop — see
    /// `train_block_matches_serial_training_bitwise`.
    fn train_block_with(clients: &mut [&mut Self], steps: u64, ws: &mut AgentWorkspace) {
        let planner = crate::BatchPlanner::new(clients.len().max(1));
        let mut start = 0;
        while start < clients.len() {
            let end = planner.group_end(start, clients.len(), |a, b| {
                lockstep_compatible(clients[a], clients[b])
            });
            if end - start >= 2 && steps > 0 {
                train_group_lockstep(&mut clients[start..end], steps, ws);
            } else {
                for client in &mut clients[start..end] {
                    client.train_round_with(steps, ws);
                }
            }
            start = end;
        }
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
    fn clients_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AgentClient>();
    }

    /// Asserts two clients are in bit-identical post-training states:
    /// parameters, counters, environment progress, and the observation
    /// the next round resumes from.
    fn assert_clients_bitwise_equal(a: &mut AgentClient, b: &mut AgentClient, ctx: &str) {
        let ua = a.upload();
        let ub = b.upload();
        assert_eq!(ua.num_samples, ub.num_samples, "{ctx}: samples");
        for (i, (x, y)) in ua.params.iter().zip(&ub.params).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: param {i}");
        }
        assert_eq!(a.agent().steps(), b.agent().steps(), "{ctx}: steps");
        assert_eq!(a.agent().updates(), b.agent().updates(), "{ctx}: updates");
        assert_eq!(
            a.agent().replay().len(),
            b.agent().replay().len(),
            "{ctx}: replay"
        );
        assert_eq!(a.env().steps(), b.env().steps(), "{ctx}: env steps");
        assert_eq!(
            a.env().completed_apps(),
            b.env().completed_apps(),
            "{ctx}: completions"
        );
        for (x, y) in a
            .last_obs
            .state
            .features()
            .iter()
            .zip(b.last_obs.state.features())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: resume state");
        }
    }

    /// Builds a block of clients in the fleet-round shape: freshly
    /// materialized, then (optionally) synced to one shared global model.
    fn block(n: usize, synced: bool) -> Vec<AgentClient> {
        let global = PowerController::new(ControllerConfig::paper(), 77).params();
        (0..n)
            .map(|id| {
                let mut c = client(id, 11);
                if synced {
                    c.download(&global);
                }
                c
            })
            .collect()
    }

    #[test]
    fn train_block_matches_serial_training_bitwise() {
        // 45 steps with H=20 covers both regimes: two lockstep windows
        // (the optimizer update at step 20 diverges the weights) and the
        // serial remainder.
        for steps in [4, 45] {
            let mut serial = block(5, true);
            let mut ws = AgentWorkspace::default();
            for c in &mut serial {
                c.train_round_with(steps, &mut ws);
            }

            let mut batched = block(5, true);
            let mut ws = AgentWorkspace::default();
            let mut refs: Vec<&mut AgentClient> = batched.iter_mut().collect();
            FederatedClient::train_block_with(&mut refs, steps, &mut ws);

            for (i, (a, b)) in serial.iter_mut().zip(batched.iter_mut()).enumerate() {
                assert_clients_bitwise_equal(a, b, &format!("steps {steps}, client {i}"));
            }
        }
    }

    #[test]
    fn heterogeneous_blocks_still_match_serial_training() {
        // Unsynced clients hold distinct per-id weights, so the planner
        // degrades to singleton groups; results must still be serial.
        let mut serial = block(3, false);
        let mut ws = AgentWorkspace::default();
        for c in &mut serial {
            c.train_round_with(30, &mut ws);
        }

        let mut batched = block(3, false);
        let mut ws = AgentWorkspace::default();
        let mut refs: Vec<&mut AgentClient> = batched.iter_mut().collect();
        FederatedClient::train_block_with(&mut refs, 30, &mut ws);

        for (i, (a, b)) in serial.iter_mut().zip(batched.iter_mut()).enumerate() {
            assert_clients_bitwise_equal(a, b, &format!("client {i}"));
        }
    }

    #[test]
    fn zero_step_blocks_reset_sample_counts() {
        let mut clients = block(2, true);
        for c in &mut clients {
            c.train_round(10);
        }
        let mut ws = AgentWorkspace::default();
        let mut refs: Vec<&mut AgentClient> = clients.iter_mut().collect();
        FederatedClient::train_block_with(&mut refs, 0, &mut ws);
        for c in &mut clients {
            assert_eq!(c.upload().num_samples, 0);
        }
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
