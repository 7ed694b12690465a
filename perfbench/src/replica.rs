//! A traced rebuild of `AgentClient` from public parts.
//!
//! `AgentClient`'s training loop is private, so the traced run cannot
//! time the calls inside it. [`ReplicaClient`] is the same client rebuilt
//! from `derive_seed`, `PowerController`, `DeviceEnv::run_steps` and a
//! `StepDriver` that makes exactly the calls `AgentClient`'s driver makes
//! — `select_action_with`, `reward_for`, `observe_with`, in that order —
//! with a timer around each. Because the RNG draws and arithmetic are the
//! same, a federation of replicas commits a global model bit-identical to
//! one of `AgentClient`s; the traced run checks exactly that.

use fedpower_agent::{
    AgentWorkspace, ControllerConfig, DeviceEnv, DeviceEnvConfig, PowerController, State,
    StepDriver, StepObservation,
};
use fedpower_federated::{Codec, FedError, FederatedClient, ModelUpdate};
use fedpower_nn::NnError;
use fedpower_sim::rng::derive_seed;
use fedpower_sim::FreqLevel;
use fedpower_telemetry::{Counter, Recorder};
use std::time::Instant;

/// One timed call into a layer: the round it served and its interval.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// The federated round the call belonged to (0 before the first).
    pub round: u64,
    /// When the call was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Call {
    /// The call's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        ns(self.end - self.start)
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call samples of the layers below the client: simulator, agent and
/// network.
#[derive(Debug, Default)]
pub struct StepTrace {
    /// Environment step self time: `decide` returning → `observe` entering.
    pub sim_ns: Vec<u64>,
    /// `select_action_with` (forward pass + softmax sample).
    pub select_ns: Vec<u64>,
    /// `observe_with` on steps that only push to the replay buffer.
    pub push_ns: Vec<u64>,
    /// `observe_with` on optimizer steps (replay sample + SGD step).
    pub sgd_ns: Vec<u64>,
}

/// Everything one replica recorded.
#[derive(Debug, Default)]
pub struct ClientTrace {
    /// Per-step layer samples.
    pub steps: StepTrace,
    /// `train_round_with` calls.
    pub train: Vec<Call>,
    /// `upload` calls (copying the parameters out).
    pub upload: Vec<Call>,
    /// `download`/`try_download` calls (installing a global), in arrival
    /// order: the join ack first, then one per received broadcast.
    pub download: Vec<Call>,
}

/// `AgentClient` rebuilt from public parts, with a timer on every call
/// into the layers below it.
#[derive(Debug)]
pub struct ReplicaClient {
    id: usize,
    agent: PowerController,
    env: DeviceEnv,
    last_obs: StepObservation,
    samples_this_round: u64,
    round: u64,
    /// Per-step samples are kept only in rounds after this one (the
    /// warm-up); calls are kept always, tagged with their round.
    record_after: u64,
    trace: ClientTrace,
}

impl ReplicaClient {
    /// Builds the client `AgentClient::new` would build from the same
    /// arguments, keeping per-step samples from round `record_after + 1`.
    pub fn new(
        id: usize,
        controller: ControllerConfig,
        env: DeviceEnvConfig,
        seed: u64,
        record_after: u64,
    ) -> Self {
        let mut env = DeviceEnv::new(env, derive_seed(seed, 200 + id as u64));
        let agent = PowerController::new(controller, derive_seed(seed, 300 + id as u64));
        let last_obs = env.bootstrap();
        ReplicaClient {
            id,
            agent,
            env,
            last_obs,
            samples_this_round: 0,
            round: 0,
            record_after,
            trace: ClientTrace::default(),
        }
    }

    /// What the client recorded so far.
    pub fn trace(&self) -> &ClientTrace {
        &self.trace
    }

    fn call(&self, start: Instant) -> Call {
        Call {
            round: self.round,
            start,
            end: Instant::now(),
        }
    }
}

/// Algorithm 1's step body, as `AgentClient`'s driver runs it, with a
/// timer around each call.
struct TimedDriver<'a> {
    agent: &'a mut PowerController,
    ws: &'a mut AgentWorkspace,
    prev_state: State,
    decided: Instant,
    /// Where samples go; `None` during the warm-up.
    trace: Option<&'a mut StepTrace>,
}

impl StepDriver for TimedDriver<'_> {
    fn decide(&mut self, obs: &StepObservation) -> FreqLevel {
        self.prev_state = obs.state;
        let start = Instant::now();
        let action = self.agent.select_action_with(&self.prev_state, self.ws);
        self.decided = Instant::now();
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.select_ns.push(ns(self.decided - start));
        }
        action
    }

    fn observe(&mut self, _step: u64, action: FreqLevel, obs: &StepObservation) -> bool {
        let start = Instant::now();
        let reward = self.agent.reward_for(&obs.counters);
        self.agent
            .observe_with(&self.prev_state, action, reward, self.ws);
        let took = ns(start.elapsed());
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.sim_ns.push(ns(start - self.decided));
            if self
                .agent
                .steps()
                .is_multiple_of(self.agent.config().optim_interval)
            {
                trace.sgd_ns.push(took);
            } else {
                trace.push_ns.push(took);
            }
        }
        true
    }
}

impl FederatedClient for ReplicaClient {
    type Workspace = AgentWorkspace;

    fn id(&self) -> usize {
        self.id
    }

    fn train_round_with(&mut self, steps: u64, ws: &mut AgentWorkspace) {
        let start = Instant::now();
        let initial = self.last_obs.clone();
        let mut driver = TimedDriver {
            agent: &mut self.agent,
            ws,
            prev_state: initial.state,
            decided: start,
            trace: (self.round > self.record_after).then_some(&mut self.trace.steps),
        };
        let (last, executed) = self.env.run_steps(steps, initial, &mut driver);
        self.last_obs = last;
        self.samples_this_round = executed;
        let call = self.call(start);
        self.trace.train.push(call);
    }

    fn upload(&mut self) -> ModelUpdate {
        let start = Instant::now();
        let update = ModelUpdate {
            client_id: self.id,
            params: self.agent.params(),
            num_samples: self.samples_this_round,
        };
        let call = self.call(start);
        self.trace.upload.push(call);
        update
    }

    fn download(&mut self, global: &[f32]) {
        let start = Instant::now();
        let _ = self.agent.set_params(global);
        let call = self.call(start);
        self.trace.download.push(call);
    }

    fn try_download(&mut self, global: &[f32]) -> Result<(), FedError> {
        let start = Instant::now();
        let installed = self.agent.set_params(global).map_err(|e| match e {
            NnError::ShapeMismatch {
                expected, actual, ..
            } => FedError::ShapeMismatch {
                client_id: self.id,
                expected,
                actual,
            },
            other => FedError::Model(other),
        });
        let call = self.call(start);
        self.trace.download.push(call);
        installed
    }

    fn transfer_bytes(&self) -> usize {
        self.agent.transfer_bytes()
    }

    fn transfer_bytes_with(&self, codec: Codec) -> usize {
        self.agent.transfer_bytes_with(codec)
    }

    fn begin_round(&mut self, round: u64) {
        self.round = round;
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
