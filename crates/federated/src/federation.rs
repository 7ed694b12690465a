use crate::client::FederatedClient;
use crate::engine::{EnginePolicy, Frame, RoundEngine, MAX_UPLOAD_RETRIES};
use crate::error::FedError;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::report::{RoundReport, Tee, TransportStats};
use crate::server::{AggregationStrategy, ServerOpt};
use crate::transport::{ChannelTransport, Transport, TransportKind};
use crate::wire;
use fedpower_sim::rng::{derive_rng, streams};
use fedpower_telemetry::{NullRecorder, Recorder, Span};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Configuration of the federated optimization (Algorithm 2 + extensions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedAvgConfig {
    /// Number of federated rounds `R` (paper: 100).
    pub rounds: u64,
    /// Local environment steps per round `T` (paper: 100).
    pub steps_per_round: u64,
    /// Server aggregation strategy (paper: unweighted).
    pub strategy: AggregationStrategy,
    /// Fraction of clients participating each round (paper: 1.0 — "each
    /// client participates in all R rounds").
    pub participation: f64,
    /// Standard deviation of Gaussian noise added to uploaded parameters —
    /// a differential-privacy-style knob (0 disables it; paper: 0).
    pub update_noise_sigma: f32,
    /// FedAvgM server momentum β (0 disables it; paper: 0).
    pub server_momentum: f32,
    /// Fewest admitted updates required to aggregate a round. When unmet,
    /// the round is skipped: θ stays unchanged and clients resume from the
    /// previous global model. Clamped to at least 1.
    pub min_quorum: usize,
    /// How the combined round aggregate commits into the global model
    /// (paper: plain FedAvg assignment).
    pub optimizer: ServerOpt,
    /// Upload codec clients encode their round updates with
    /// (paper: dense f32, bit-identical version-1 frames).
    pub codec: wire::Codec,
}

impl FedAvgConfig {
    /// The paper's configuration (Table I): R = 100, T = 100, unweighted
    /// synchronous aggregation, full participation, no update noise, and
    /// quorum 1. The retry budget and staleness decay are the engine's
    /// [`MAX_UPLOAD_RETRIES`] and [`crate::engine::STALENESS_DECAY`].
    pub fn paper() -> Self {
        FedAvgConfig {
            rounds: 100,
            steps_per_round: 100,
            strategy: AggregationStrategy::Uniform,
            participation: 1.0,
            update_noise_sigma: 0.0,
            server_momentum: 0.0,
            min_quorum: 1,
            optimizer: ServerOpt::FedAvg,
            codec: wire::Codec::Dense32,
        }
    }

    /// Checks the configuration: participation in (0, 1] here, every
    /// engine-side rule through [`EnginePolicy::validate`].
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] naming the first rule broken.
    pub fn validate(&self) -> Result<(), FedError> {
        let p = self.participation;
        if !(p > 0.0 && p <= 1.0) {
            return Err(FedError::InvalidConfig(format!(
                "participation must be in (0, 1], got {p}"
            )));
        }
        EnginePolicy::from_config(self).validate()
    }
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig::paper()
    }
}

/// Orchestrates `N` clients and one [`AggregationServer`](crate::AggregationServer)
/// through federated rounds (Fig. 1 of the paper).
///
/// Every model exchange crosses a per-client [`Transport`] link as an
/// encoded [`wire::Envelope`] frame — the server and clients communicate
/// only through bytes. Construction sends each client a join-ack frame
/// carrying the initial global model θ₁ so everyone starts from identical
/// parameters; each [`Federation::run_round`] then performs: local
/// optimization (clients in order) → framed uploads with admission →
/// streaming aggregation → framed broadcast.
///
/// Every round-lifecycle occurrence is emitted as a structured
/// [`Event`](fedpower_telemetry::Event) through the installed [`Recorder`] (a zero-cost
/// [`NullRecorder`] by default), and the [`RoundReport`] /
/// [`TransportStats`] counters are pure reductions over that stream —
/// see [`crate::report`].
#[derive(Debug)]
pub struct Federation<C: FederatedClient> {
    config: FedAvgConfig,
    /// The sans-I/O protocol core: admission, staleness weighting,
    /// quorum, commit, and reference-window tracking all live here —
    /// the federation is a driver feeding it frames.
    engine: RoundEngine,
    clients: Vec<C>,
    links: Vec<Box<dyn Transport>>,
    transport: TransportStats,
    recorder: Box<dyn Recorder>,
    rng: StdRng,
    /// One training workspace, reused across clients and rounds so the
    /// steady-state training loop performs zero heap allocations.
    workspace: C::Workspace,
}

/// Staged construction of a [`Federation`], obtained from
/// [`Federation::builder`].
///
/// This is the redesigned constructor surface: one builder replaces the
/// old combinatorial `with_transport` / `with_transport_and_plan` /
/// `with_options` / `with_links` / `with_links_recorded` constructors,
/// which remain as `#[deprecated]` forwarders until their scheduled
/// removal (see `CHANGELOG.md`).
///
/// ```
/// # use fedpower_federated::{FaultPlan, FedAvgConfig, Federation, TdClient};
/// # use fedpower_agent::{DeviceEnvConfig, TdConfig};
/// # use fedpower_workloads::AppId;
/// # let client = |id| TdClient::new(id, TdConfig::paper_with_gamma(0.9),
/// #     DeviceEnvConfig::new(&[AppId::Fft]), 7);
/// let plan = FaultPlan::none();
/// let federation = Federation::builder(vec![client(0), client(1)], FedAvgConfig::paper())
///     .seed(42)
///     .fault_plan(&plan)
///     .build()
///     .expect("valid configuration");
/// ```
///
/// The lifetime `'p` is that of the optional borrowed [`FaultPlan`];
/// builders without one are `'static`.
#[derive(Debug)]
pub struct FederationBuilder<'p, C: FederatedClient> {
    clients: Vec<C>,
    config: FedAvgConfig,
    seed: u64,
    links: Option<Vec<Box<dyn Transport>>>,
    plan: Option<&'p FaultPlan>,
    recorder: Box<dyn Recorder>,
}

impl<'p, C: FederatedClient> FederationBuilder<'p, C> {
    /// Seed for the federation's participation-sampling RNG (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit transport links, one per client in the same order
    /// (default: one in-process [`ChannelTransport`] per client).
    #[must_use]
    pub fn links(mut self, links: Vec<Box<dyn Transport>>) -> Self {
        self.links = Some(links);
        self
    }

    /// Wraps every link in a [`FaultyTransport`] actuating `plan` on the
    /// bytes in flight — the transport-level fault-injection path.
    #[must_use]
    pub fn fault_plan<'q>(self, plan: &'q FaultPlan) -> FederationBuilder<'q, C> {
        FederationBuilder {
            clients: self.clients,
            config: self.config,
            seed: self.seed,
            links: self.links,
            plan: Some(plan),
            recorder: self.recorder,
        }
    }

    /// Telemetry recorder observing everything from the join handshake
    /// onwards (default: the zero-cost [`NullRecorder`]).
    #[must_use]
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Connects the links (unless supplied explicitly) and assembles the
    /// federation, broadcasting the initial global model to every client.
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] when `clients` is empty, the
    /// configuration fails [`FedAvgConfig::validate`], explicit `links`
    /// and `clients` disagree in length.
    pub fn build(self) -> Result<Federation<C>, FedError> {
        let config = self.config;
        config.validate()?;
        let mut clients = self.clients;
        if clients.is_empty() {
            return Err(FedError::InvalidConfig(
                "federation needs at least one client".to_string(),
            ));
        }
        let links = self.links.unwrap_or_else(|| {
            clients
                .iter()
                .map(|c| Box::new(ChannelTransport::connect(c.id())) as Box<dyn Transport>)
                .collect()
        });
        let links: Vec<Box<dyn Transport>> = match self.plan {
            Some(p) => links
                .into_iter()
                .map(|link| Box::new(FaultyTransport::new(link, p)) as Box<dyn Transport>)
                .collect(),
            None => links,
        };
        if links.len() != clients.len() {
            return Err(FedError::InvalidConfig(format!(
                "federation needs exactly one transport link per client, got {} links for {} clients",
                links.len(),
                clients.len()
            )));
        }
        let initial = clients[0].upload().params;
        let ids: Vec<usize> = clients.iter().map(FederatedClient::id).collect();
        let engine = RoundEngine::new(initial, EnginePolicy::from_config(&config), ids)?;
        let mut fed = Federation {
            config,
            engine,
            clients,
            links,
            transport: TransportStats::new(),
            recorder: self.recorder,
            rng: derive_rng(self.seed, streams::FEDERATION),
            workspace: C::Workspace::default(),
        };
        for i in 0..fed.clients.len() {
            fed.join_client(i);
        }
        Ok(fed)
    }
}

impl<C: FederatedClient> Federation<C> {
    /// Creates a federation over `clients` with default in-process
    /// [`ChannelTransport`] links.
    ///
    /// The initial global model is taken from the first client (all clients
    /// share one architecture) and broadcast to everyone.
    ///
    /// # Panics
    ///
    /// Panics where [`FederationBuilder::build`] returns an error.
    pub fn new(clients: Vec<C>, config: FedAvgConfig, seed: u64) -> Self {
        Self::builder(clients, config)
            .seed(seed)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts staged construction of a federation — the one constructor
    /// surface behind every transport/fault-plan/recorder combination.
    ///
    /// Defaults: seed 0, in-process [`ChannelTransport`] links, no fault
    /// plan, a [`NullRecorder`]. See [`FederationBuilder`].
    pub fn builder(clients: Vec<C>, config: FedAvgConfig) -> FederationBuilder<'static, C> {
        FederationBuilder {
            clients,
            config,
            seed: 0,
            links: None,
            plan: None,
            recorder: Box::new(NullRecorder),
        }
    }

    /// Creates a federation over in-process links (`kind` has the one
    /// value [`TransportKind::Channel`]).
    ///
    /// # Errors
    ///
    /// As [`FederationBuilder::build`].
    #[deprecated(
        since = "0.1.0",
        note = "use `Federation::builder(clients, config).seed(..).build()`"
    )]
    pub fn with_transport(
        clients: Vec<C>,
        config: FedAvgConfig,
        seed: u64,
        kind: TransportKind,
    ) -> Result<Self, FedError> {
        let TransportKind::Channel = kind;
        Self::builder(clients, config).seed(seed).build()
    }

    /// Creates a federation over in-process links, each wrapped in a
    /// [`FaultyTransport`] actuating `plan` on the bytes in flight — the
    /// transport-level fault-injection path.
    ///
    /// # Errors
    ///
    /// As [`FederationBuilder::build`].
    #[deprecated(
        since = "0.1.0",
        note = "use `Federation::builder(..).fault_plan(plan).build()`"
    )]
    pub fn with_transport_and_plan(
        clients: Vec<C>,
        config: FedAvgConfig,
        seed: u64,
        kind: TransportKind,
        plan: &FaultPlan,
    ) -> Result<Self, FedError> {
        let TransportKind::Channel = kind;
        Self::builder(clients, config)
            .seed(seed)
            .fault_plan(plan)
            .build()
    }

    /// The most general `kind`-taking constructor: optional fault plan on
    /// the links, and an explicit telemetry [`Recorder`] that observes
    /// everything from the join handshake onwards.
    ///
    /// # Errors
    ///
    /// As [`FederationBuilder::build`].
    #[deprecated(
        since = "0.1.0",
        note = "use `Federation::builder(..)` with `.fault_plan`/`.recorder`"
    )]
    pub fn with_options(
        clients: Vec<C>,
        config: FedAvgConfig,
        seed: u64,
        kind: TransportKind,
        plan: Option<&FaultPlan>,
        recorder: Box<dyn Recorder>,
    ) -> Result<Self, FedError> {
        let TransportKind::Channel = kind;
        let builder = Self::builder(clients, config).seed(seed).recorder(recorder);
        match plan {
            Some(p) => builder.fault_plan(p).build(),
            None => builder.build(),
        }
    }

    /// Creates a federation over explicitly supplied links (one per
    /// client, same order).
    ///
    /// # Panics
    ///
    /// Panics where [`FederationBuilder::build`] returns an error.
    #[deprecated(
        since = "0.1.0",
        note = "use `Federation::builder(clients, config).seed(..).links(links).build()`"
    )]
    pub fn with_links(
        clients: Vec<C>,
        links: Vec<Box<dyn Transport>>,
        config: FedAvgConfig,
        seed: u64,
    ) -> Self {
        Self::builder(clients, config)
            .seed(seed)
            .links(links)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Federation::with_links`], with an explicit telemetry
    /// [`Recorder`] that observes everything from the join handshake
    /// onwards.
    ///
    /// # Panics
    ///
    /// Panics where [`FederationBuilder::build`] returns an error.
    #[deprecated(
        since = "0.1.0",
        note = "use `Federation::builder(..).links(links).recorder(recorder).build()`"
    )]
    pub fn with_links_recorded(
        clients: Vec<C>,
        links: Vec<Box<dyn Transport>>,
        config: FedAvgConfig,
        seed: u64,
        recorder: Box<dyn Recorder>,
    ) -> Self {
        Self::builder(clients, config)
            .seed(seed)
            .links(links)
            .recorder(recorder)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Delivers the join acknowledgement (initial model) to one client.
    ///
    /// The handshake is control-plane traffic and treated as reliable:
    /// round-based fault plans only start at round 1, and should a link
    /// fail anyway the model is installed directly. The delivery is
    /// recorded as a round-0 `DownloadDelivered` event via the engine's
    /// [`Frame::Join`].
    fn join_client(&mut self, i: usize) {
        let client = &mut self.clients[i];
        let id = client.id();
        let frame = wire::encode_join_ack(id, self.engine.global());
        let delivered = self.links[i]
            .broadcast(&frame)
            .ok()
            .and_then(|bytes| wire::decode_params(&bytes).ok());
        match delivered {
            Some(params) => client.download(&params),
            None => client.download(self.engine.global()),
        }
        // Either path installs θ₁, so the engine records the join either
        // way.
        let mut out = Tee {
            report: None,
            transport: &mut self.transport,
            recorder: &mut *self.recorder,
        };
        self.engine.handle(
            Frame::Join {
                client: i,
                frame_len: frame.len(),
            },
            &mut out,
        );
    }

    /// Installs a telemetry recorder; subsequent rounds emit through it.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The installed telemetry recorder, for harness-side emissions
    /// (e.g. evaluation counters between rounds).
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        &mut *self.recorder
    }

    /// The federation's configuration.
    pub fn config(&self) -> &FedAvgConfig {
        &self.config
    }

    /// Read access to the clients.
    pub fn clients(&self) -> &[C] {
        &self.clients
    }

    /// Mutable access to the clients (used by evaluation harnesses).
    pub fn clients_mut(&mut self) -> &mut [C] {
        &mut self.clients
    }

    /// Which commit stage the server runs.
    pub fn optimizer_kind(&self) -> crate::server::ServerOptKind {
        self.engine.optimizer_kind()
    }

    /// The current global model parameters θ.
    pub fn global_params(&self) -> &[f32] {
        self.engine.global()
    }

    /// The round engine this federation drives (protocol-level state:
    /// reference window, quorum, commit).
    pub fn engine(&self) -> &RoundEngine {
        &self.engine
    }

    /// Communication statistics so far.
    pub fn transport(&self) -> &TransportStats {
        &self.transport
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> u64 {
        self.engine.rounds_run()
    }

    /// Executes one federated round: select participants, local training,
    /// upload (with bounded retries), admission-checked aggregation,
    /// broadcast.
    ///
    /// The round survives every client-side fault: dropped transfers and
    /// corrupt updates are counted and excluded, straggler updates are
    /// applied late at a staleness-discounted weight, offline clients are
    /// skipped, and a panicking client loses only its own round. When
    /// fewer than `min_quorum` updates pass admission the round is skipped
    /// — θ stays unchanged and `RoundReport::aggregated` is `false` — but
    /// `run_round` itself never panics over client behavior.
    pub fn run_round(&mut self) -> RoundReport {
        let participant_ids = self.select_participants();
        let round = self.engine.rounds_run() + 1;
        for client in &mut self.clients {
            client.begin_round(round);
        }
        for link in &mut self.links {
            link.begin_round(round);
        }

        let mut report = RoundReport::begin(round);
        // The engine opens the round (and emits the round-start event
        // plus the commit-stage counter `report::from_events` reconciles
        // against).
        self.feed(&mut report, Frame::BeginRound);

        let mut active: Vec<usize> = Vec::with_capacity(participant_ids.len());
        for &i in &participant_ids {
            if self.links[i].is_online() {
                active.push(i);
            } else {
                self.feed(&mut report, Frame::Offline { client: i });
            }
        }

        let train_start = Instant::now();
        let panicked = self.train_active(&active);
        report.timing.train_s = train_start.elapsed().as_secs_f64();
        self.recorder
            .span(Span::new("train", round, report.timing.train_s));
        for &i in &active {
            if panicked.contains(&i) {
                self.feed(&mut report, Frame::TrainPanicked { client: i });
            } else {
                self.feed(&mut report, Frame::Trained { client: i });
                self.clients[i].record_telemetry(round, &mut *self.recorder);
            }
        }

        let upload_start = Instant::now();
        for &i in &active {
            if panicked.contains(&i) {
                continue;
            }
            // The update and its encoded frame live only in this block,
            // so neither is held while the engine decodes the upload.
            let (sent_len, sent) = {
                let mut update = self.clients[i].upload();
                if self.config.update_noise_sigma > 0.0 {
                    let sigma = self.config.update_noise_sigma;
                    for p in &mut update.params {
                        *p += sigma * gaussian(&mut self.rng);
                    }
                }
                let reference = self.engine.upload_reference(i);
                let frame = wire::encode_upload_with(self.config.codec, round, &update, reference);
                let mut sent = self.links[i].upload(&frame);
                let mut retries = 0;
                while retries < MAX_UPLOAD_RETRIES
                    && matches!(sent, Err(FedError::UploadDropped { .. }))
                {
                    retries += 1;
                    self.feed(&mut report, Frame::UploadRetry { client: i });
                    sent = self.links[i].upload(&frame);
                }
                (frame.len(), sent)
            };
            // Admission — version, shape, codec references — is the
            // engine's decision; the driver only reports what happened
            // on the wire.
            let frame = match sent {
                Ok(bytes) => Frame::Upload {
                    client: i,
                    sent_len,
                    bytes,
                },
                Err(FedError::UploadDropped { .. }) => Frame::UploadDropped { client: i },
                Err(FedError::Straggling { .. }) => Frame::StragglerStarted { client: i },
                // Went offline mid-round (e.g. crash between training
                // and upload); treated like an offline participant.
                Err(_) => Frame::Offline { client: i },
            };
            self.feed(&mut report, frame);
        }
        let upload_s = upload_start.elapsed().as_secs_f64();
        report.timing.transport_s += upload_s;
        self.recorder.span(Span::new("upload", round, upload_s));

        let aggregate_start = Instant::now();
        // Straggler frames whose delay elapsed surface now, discounted by
        // staleness. Every link is polled: a straggler need not be in
        // this round's participant set to deliver its late update.
        for i in 0..self.links.len() {
            if let Some(bytes) = self.links[i].take_stale() {
                self.feed(&mut report, Frame::StaleBytes { client: i, bytes });
            }
        }

        // Quorum check and commit are the engine's: it also advances the
        // reference window to whatever θ goes out this round.
        self.feed(&mut report, Frame::CloseRound);
        report.client_divergence = self.engine.divergence();
        report.timing.aggregate_s = aggregate_start.elapsed().as_secs_f64();
        self.recorder
            .span(Span::new("aggregate", round, report.timing.aggregate_s));

        let broadcast_start = Instant::now();
        for i in 0..self.clients.len() {
            if !self.links[i].is_online() {
                continue;
            }
            let frame = wire::encode_broadcast(round, self.clients[i].id(), self.engine.global());
            let outcome = self.links[i]
                .broadcast(&frame)
                .and_then(|bytes| wire::decode_params(&bytes))
                .and_then(|params| self.clients[i].try_download(&params));
            let engine_frame = match outcome {
                Ok(()) => Frame::Delivered {
                    client: i,
                    frame_len: frame.len(),
                },
                // The model arrived intact but does not fit the client's
                // architecture: an admission failure, not a network one.
                Err(FedError::ShapeMismatch { .. }) => Frame::DownloadRejected { client: i },
                Err(_) => Frame::DownloadDropped { client: i },
            };
            self.feed(&mut report, engine_frame);
        }
        let broadcast_s = broadcast_start.elapsed().as_secs_f64();
        report.timing.transport_s += broadcast_s;
        self.recorder
            .span(Span::new("broadcast", round, broadcast_s));

        self.feed(&mut report, Frame::EndRound);
        report
    }

    /// Feeds one frame to the engine through the telemetry [`Tee`], so
    /// what it records lands in `report`, the running transport stats
    /// and the installed recorder alike.
    fn feed(&mut self, report: &mut RoundReport, frame: Frame) {
        let mut out = Tee {
            report: Some(report),
            transport: &mut self.transport,
            recorder: &mut *self.recorder,
        };
        self.engine.handle(frame, &mut out);
    }

    /// Trains the active participants in order on the federation's one
    /// workspace, containing panics; returns the ids whose training
    /// panicked (their state is suspect, so they are excluded from this
    /// round's upload).
    fn train_active(&mut self, active: &[usize]) -> Vec<usize> {
        let steps = self.config.steps_per_round;
        let mut panicked = Vec::new();
        for &i in active {
            let client = &mut self.clients[i];
            let ws = &mut self.workspace;
            if catch_unwind(AssertUnwindSafe(|| client.train_round_with(steps, ws))).is_err() {
                panicked.push(i);
            }
        }
        panicked
    }

    /// Runs all `config.rounds` rounds, returning one report per round.
    pub fn run(&mut self) -> Vec<RoundReport> {
        (0..self.config.rounds).map(|_| self.run_round()).collect()
    }

    fn select_participants(&mut self) -> Vec<usize> {
        let n = self.clients.len();
        let k = ((n as f64 * self.config.participation).ceil() as usize).clamp(1, n);
        if k == n {
            (0..n).collect()
        } else {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut self.rng);
            ids.truncate(k);
            ids.sort_unstable();
            ids
        }
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ModelUpdate;
    use crate::report::FaultSummary;

    /// A deterministic fake client for orchestration tests.
    #[derive(Debug)]
    struct FakeClient {
        id: usize,
        params: Vec<f32>,
        trained_steps: u64,
        downloads: u64,
    }

    impl FakeClient {
        fn new(id: usize, value: f32) -> Self {
            FakeClient {
                id,
                params: vec![value; 4],
                trained_steps: 0,
                downloads: 0,
            }
        }
    }

    impl FederatedClient for FakeClient {
        type Workspace = ();

        fn id(&self) -> usize {
            self.id
        }
        fn train_round_with(&mut self, steps: u64, _ws: &mut ()) {
            self.trained_steps += steps;
            // Local training drifts each parameter by +id+1.
            for p in &mut self.params {
                *p += self.id as f32 + 1.0;
            }
        }
        fn upload(&mut self) -> ModelUpdate {
            ModelUpdate {
                client_id: self.id,
                params: self.params.clone(),
                num_samples: self.trained_steps,
            }
        }
        fn download(&mut self, global: &[f32]) {
            self.params = global.to_vec();
            self.downloads += 1;
        }
        fn transfer_bytes(&self) -> usize {
            self.params.len() * 4
        }
    }

    fn two_client_federation(config: FedAvgConfig) -> Federation<FakeClient> {
        Federation::new(
            vec![FakeClient::new(0, 0.0), FakeClient::new(1, 10.0)],
            config,
            7,
        )
    }

    #[test]
    fn construction_broadcasts_initial_model() {
        let fed = two_client_federation(FedAvgConfig::paper());
        // Client 0's initial params became the global model for everyone.
        assert_eq!(fed.clients()[0].params, vec![0.0; 4]);
        assert_eq!(fed.clients()[1].params, vec![0.0; 4]);
        assert_eq!(fed.transport().downloads, 2);
    }

    #[test]
    fn one_round_averages_drifted_models() {
        let mut fed = two_client_federation(FedAvgConfig::paper());
        let report = fed.run_round();
        assert_eq!(report.participants, 2);
        // Clients drifted to 1 and 2; mean is 1.5, each is 0.5 away in
        // every one of the 4 coordinates -> distance 1.0.
        assert!((report.client_divergence - 1.0).abs() < 1e-6);
        // Both started at 0; client 0 drifts +1, client 1 drifts +2 → mean 1.5.
        assert_eq!(fed.global_params(), &[1.5; 4]);
        assert_eq!(fed.clients()[0].params, vec![1.5; 4]);
        assert_eq!(fed.clients()[1].params, vec![1.5; 4]);
    }

    #[test]
    fn run_executes_all_rounds() {
        let mut config = FedAvgConfig::paper();
        config.rounds = 5;
        config.steps_per_round = 10;
        let mut fed = two_client_federation(config);
        let reports = fed.run();
        assert_eq!(reports.len(), 5);
        assert_eq!(fed.rounds_run(), 5);
        assert_eq!(fed.clients()[0].trained_steps, 50);
    }

    #[test]
    fn partial_participation_trains_a_subset_but_broadcasts_to_all() {
        let mut config = FedAvgConfig::paper();
        config.participation = 0.5;
        let clients = (0..4).map(|i| FakeClient::new(i, 0.0)).collect();
        let mut fed = Federation::new(clients, config, 3);
        let report = fed.run_round();
        assert_eq!(report.participants, 2);
        let trained: usize = fed.clients().iter().filter(|c| c.trained_steps > 0).count();
        assert_eq!(trained, 2);
        // Everyone still downloaded the new global model (2 initial + 4 now).
        assert_eq!(fed.transport().downloads, 8);
        let g = fed.global_params().to_vec();
        for c in fed.clients() {
            assert_eq!(c.params, g);
        }
    }

    #[test]
    fn update_noise_perturbs_the_global_model() {
        let mut noisy_config = FedAvgConfig::paper();
        noisy_config.update_noise_sigma = 0.5;
        let clean = {
            let mut fed = two_client_federation(FedAvgConfig::paper());
            fed.run_round();
            fed.global_params().to_vec()
        };
        let noisy = {
            let mut fed = two_client_federation(noisy_config);
            fed.run_round();
            fed.global_params().to_vec()
        };
        assert_ne!(clean, noisy);
        // Noise is zero-mean: the perturbation should be moderate.
        for (c, n) in clean.iter().zip(&noisy) {
            assert!((c - n).abs() < 3.0, "noise too large: {c} vs {n}");
        }
    }

    #[test]
    fn transport_accounting_matches_round_structure() {
        let mut fed = two_client_federation(FedAvgConfig::paper());
        let base_downloads = fed.transport().downloads;
        fed.run_round();
        let t = fed.transport();
        assert_eq!(t.uploads, 2);
        assert_eq!(t.downloads, base_downloads + 2);
        // Uploaded bytes are the measured size of the encoded frames, not a
        // client-side estimate: 4-parameter models frame to 60 bytes each.
        assert_eq!(t.uploaded_bytes, 2 * wire::upload_frame_len(4) as u64);
        assert_eq!(
            t.downloaded_bytes,
            (base_downloads + 2) * wire::broadcast_frame_len(4) as u64
        );
    }

    #[test]
    fn empty_fault_plan_on_the_link_is_transparent() {
        let plain = {
            let mut fed = two_client_federation(FedAvgConfig::paper());
            fed.run_round();
            fed.global_params().to_vec()
        };
        let wrapped = {
            let clients = vec![FakeClient::new(0, 0.0), FakeClient::new(1, 10.0)];
            let plan = FaultPlan::default();
            let mut fed = Federation::builder(clients, FedAvgConfig::paper())
                .seed(7)
                .fault_plan(&plan)
                .build()
                .expect("channel links are infallible");
            let report = fed.run_round();
            assert_eq!(report.uploads_ok, 2);
            assert_eq!(report.uploads_dropped, 0);
            fed.global_params().to_vec()
        };
        assert_eq!(plain, wrapped);
    }

    #[test]
    fn panicking_client_loses_only_its_own_round() {
        /// Panics during training in round 2, healthy otherwise.
        #[derive(Debug)]
        struct Flaky {
            inner: FakeClient,
            round: u64,
        }
        impl FederatedClient for Flaky {
            type Workspace = ();

            fn id(&self) -> usize {
                self.inner.id()
            }
            fn train_round_with(&mut self, steps: u64, ws: &mut ()) {
                assert!(self.round != 2, "injected training panic");
                self.inner.train_round_with(steps, ws);
            }
            fn upload(&mut self) -> ModelUpdate {
                self.inner.upload()
            }
            fn download(&mut self, global: &[f32]) {
                self.inner.download(global);
            }
            fn transfer_bytes(&self) -> usize {
                self.inner.transfer_bytes()
            }
            fn begin_round(&mut self, round: u64) {
                self.round = round;
            }
        }

        let clients = vec![
            Flaky {
                inner: FakeClient::new(0, 0.0),
                round: 0,
            },
            Flaky {
                inner: FakeClient::new(1, 0.0),
                round: 0,
            },
        ];
        let mut fed = Federation::new(clients, FedAvgConfig::paper(), 7);
        let r1 = fed.run_round();
        assert_eq!(r1.train_panics, 0);
        let r2 = fed.run_round();
        assert_eq!(r2.train_panics, 2, "both clients panic in round 2");
        assert!(!r2.aggregated, "no survivors, so quorum is unmet");
        let theta_after_r1 = fed.global_params().to_vec();
        assert_eq!(fed.global_params(), theta_after_r1.as_slice());
        let r3 = fed.run_round();
        assert_eq!(r3.train_panics, 0, "clients recover in round 3");
        assert!(r3.aggregated);
    }

    #[test]
    fn unmet_quorum_skips_the_round_and_keeps_theta() {
        let mut config = FedAvgConfig::paper();
        config.min_quorum = 3;
        let mut fed = two_client_federation(config);
        let before = fed.global_params().to_vec();
        let report = fed.run_round();
        assert!(!report.aggregated);
        assert_eq!(report.uploads_ok, 2, "uploads arrive, quorum still unmet");
        assert_eq!(fed.global_params(), before.as_slice());
        assert_eq!(fed.rounds_run(), 1, "the round still counts as run");
    }

    #[test]
    fn fault_summary_tallies_reports() {
        let mut config = FedAvgConfig::paper();
        config.rounds = 4;
        let mut fed = two_client_federation(config);
        let reports = fed.run();
        let summary = FaultSummary::from_reports(&reports);
        assert_eq!(summary.rounds, 4);
        assert_eq!(summary.aggregated_rounds, 4);
        assert_eq!(summary.uploads_ok, 8);
        assert_eq!(summary.uploads_dropped, 0);
        assert_eq!(summary.train_panics, 0);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_federation_panics() {
        let _: Federation<FakeClient> = Federation::new(vec![], FedAvgConfig::paper(), 0);
    }

    #[test]
    fn builder_rejects_missing_clients_and_links_with_typed_errors() {
        let none = Federation::<FakeClient>::builder(vec![], FedAvgConfig::paper()).build();
        assert!(matches!(none, Err(FedError::InvalidConfig(_))));
        let clients = vec![FakeClient::new(0, 0.0), FakeClient::new(1, 1.0)];
        let one_link: Vec<Box<dyn Transport>> =
            vec![Box::new(crate::transport::ChannelTransport::connect(0))];
        let short = Federation::builder(clients, FedAvgConfig::paper())
            .links(one_link)
            .build();
        assert!(matches!(short, Err(FedError::InvalidConfig(_))));
    }

    #[test]
    #[should_panic(expected = "participation")]
    fn invalid_participation_panics() {
        let mut config = FedAvgConfig::paper();
        config.participation = 0.0;
        let _ = Federation::new(vec![FakeClient::new(0, 0.0)], config, 0);
    }

    #[test]
    fn codec_rounds_aggregate_like_dense_on_exact_tensors() {
        // Constant drifts quantize exactly (scale 0) and keep-all top-k
        // deltas are exact, so every codec lands the dense answer.
        for codec in [
            wire::Codec::Q8,
            wire::Codec::Q16,
            wire::Codec::TopK { frac: 1.0 },
        ] {
            let mut config = FedAvgConfig::paper();
            config.codec = codec;
            let mut fed = two_client_federation(config);
            let report = fed.run_round();
            assert_eq!(report.updates_rejected, 0, "{codec}");
            assert_eq!(fed.global_params(), &[1.5; 4], "{codec}");
            // Telemetry carries the codec's true framed length, not the
            // dense one.
            assert_eq!(
                fed.transport().uploaded_bytes,
                2 * codec.upload_frame_len(4) as u64,
                "{codec}"
            );
        }
    }

    #[test]
    fn sparse_codec_rounds_stay_finite_and_committed() {
        let mut config = FedAvgConfig::paper();
        config.codec = wire::Codec::TopK { frac: 0.5 };
        config.rounds = 3;
        let mut fed = two_client_federation(config);
        for report in fed.run() {
            assert!(report.aggregated);
            assert_eq!(report.updates_rejected, 0);
        }
        assert!(fed.global_params().iter().all(|p| p.is_finite()));
    }

    #[test]
    #[should_panic(expected = "topk fraction")]
    fn invalid_topk_fraction_panics() {
        let mut config = FedAvgConfig::paper();
        config.codec = wire::Codec::TopK { frac: 0.0 };
        let _ = Federation::new(vec![FakeClient::new(0, 0.0)], config, 0);
    }
}
