//! Hierarchical (sharded) federated orchestration: one aggregation round
//! over a fleet too large to hold in memory at once.
//!
//! The flat [`crate::Federation`] owns every client object for its whole
//! lifetime — fine for the paper's N ≤ 32, hopeless for a 100 000-device
//! fleet, where the clients' environments alone would exhaust memory.
//! [`Fleet`] keeps the round *algebra* identical while changing the
//! round *topology*:
//!
//! * the client id space is split into contiguous shards;
//! * each shard is reduced by an edge aggregator on a worker slot of
//!   the crate's [`WorkerPool`], materializing clients **one at a time**
//!   from a [`FleetClientFactory`], training each against a persistent
//!   per-worker workspace, folding its update into a shard-local
//!   [`RoundAccumulator`], and dropping it — peak memory per worker is
//!   one client plus one workspace plus one accumulator, independent of
//!   fleet size;
//! * the root merges the shard partials ([`RoundAccumulator::merge`])
//!   and commits through the ordinary
//!   [`AggregationServer::commit_round`](crate::AggregationServer::commit_round)
//!   path.
//!
//! Because the streaming accumulator's sums are [`crate::ExactSum`]
//! integers, the merge is associative and commutative *down to the bit*:
//! for stateless clients the sharded round commits exactly the bytes the
//! flat engine commits, for every shard count, with or without an active
//! [`FaultPlan`] — `tests/fleet_determinism.rs` proves it. Robust
//! combiners ([`AggregationStrategy::TrimmedMean`],
//! [`AggregationStrategy::CoordinateMedian`]) need every update's
//! coordinates at one place and therefore cannot run sharded; [`Fleet`]
//! rejects them up front with [`FedError::UnsupportedInFleet`] rather
//! than buffering 100k updates at the root and blowing the budget the
//! topology exists to hold.
//!
//! Fault semantics mirror the flat engine's exactly, actuated from the
//! plan instead of a per-link state machine: crash outages skip the
//! client by the rule the flat links use ([`FaultPlan::is_offline`]; it
//! later resumes from the model it last held, tracked in a stale-model
//! ledger), upload drops spend the shared retry budget,
//! corruption is rejected by server admission, stragglers surface late at
//! a staleness-discounted weight, and dropped broadcasts leave the client
//! on its own post-round parameters. One documented approximation exists:
//! a client whose *training panicked* and whose broadcast also dropped
//! resumes from its round-start (not mid-panic) parameters.

use crate::client::{FederatedClient, ModelUpdate};
use crate::engine::{EnginePolicy, Frame, RoundEngine, MAX_UPLOAD_RETRIES};
use crate::error::FedError;
use crate::fault::{Fault, FaultPlan};
use crate::federation::FedAvgConfig;
use crate::pool::WorkerPool;
use crate::report::{RoundReport, Tee, TransportStats};
use crate::server::{AggregationStrategy, RoundAccumulator};
use crate::wire;
use fedpower_telemetry::{Counter, Event, EventKind, NullRecorder, Recorder, Span};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Configuration of a sharded fleet round: the ordinary federated
/// settings plus the fleet's shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Round settings shared with the flat engine. Fleet rounds are
    /// full-participation and noise-free (`participation` must be 1.0 and
    /// `update_noise_sigma` 0.0): both knobs draw from the flat engine's
    /// serial RNG stream, which a sharded round cannot reproduce.
    pub fedavg: FedAvgConfig,
    /// Total simulated clients (the paper's N, scaled to fleet size).
    pub num_clients: usize,
    /// Shards the client id space is split into. More shards than
    /// clients is allowed — trailing shards are empty and merge as
    /// identities.
    pub shards: usize,
    /// Ignored: each shard worker trains its clients one at a time.
    #[deprecated(since = "0.1.0", note = "ignored: fleet clients train one at a time")]
    pub batch: usize,
}

impl FleetConfig {
    /// The value [`FleetConfig::batch`] used to default to; ignored.
    #[deprecated(since = "0.1.0", note = "ignored: fleet clients train one at a time")]
    pub const DEFAULT_BATCH: usize = 32;
}

/// Builds fleet clients on demand, one shard worker at a time.
///
/// The fleet never holds more than one client per worker slot, so client
/// state cannot persist across rounds inside the client object. Instead
/// the contract is:
///
/// * `materialize(id, round)` must be a pure function of its arguments —
///   calling it twice yields identical clients (this is what makes a
///   sharded run reproducible and shard-count-independent);
/// * the engine installs the parameters the client actually holds
///   (current global, or its stale model when it missed broadcasts)
///   via [`FederatedClient::download`] right after materialization, so
///   the factory's own initial parameters are irrelevant;
/// * cross-round *model* state is the engine's job (the stale-model
///   ledger); cross-round *environment* state, if desired, must be
///   derived deterministically from `(id, round)`.
pub trait FleetClientFactory: Sync {
    /// The client type this factory builds.
    type Client: FederatedClient;

    /// Initial global model θ₁ (the flat engine takes it from client 0).
    fn initial_global(&self) -> Vec<f32>;

    /// Builds the client `id` for `round`. Must be deterministic in
    /// `(id, round)`.
    fn materialize(&self, id: usize, round: u64) -> Self::Client;
}

/// A straggler's update buffered at the root until its delay elapses.
#[derive(Debug)]
struct StashedStraggler {
    client: usize,
    /// Round the update was trained in.
    origin: u64,
    /// First round it may surface.
    ready: u64,
    update: ModelUpdate,
}

/// Read-only state a shard worker needs to process its clients.
struct ShardContext<'a, F: FleetClientFactory> {
    factory: &'a F,
    /// Global model at the start of the round.
    global: &'a [f32],
    /// Per-client stale models (clients that missed broadcasts); absent
    /// means the client holds the current global.
    ledger: &'a BTreeMap<usize, Vec<f32>>,
    plan: &'a FaultPlan,
    round: u64,
    steps: u64,
    strategy: AggregationStrategy,
    /// Upload codec for shard byte accounting.
    codec: wire::Codec,
}

/// Buffers a shard's telemetry so workers need no shared recorder; the
/// root replays everything through its single emission choke point in
/// shard order.
#[derive(Debug, Default)]
struct ShardTelemetry {
    events: Vec<Event>,
    counters: Vec<Counter>,
    spans: Vec<Span>,
}

impl ShardTelemetry {
    /// Re-records the buffer into `out`: events, then counters, then
    /// spans, each in recording order.
    fn replay(&self, out: &mut dyn Recorder) {
        for &event in &self.events {
            out.event(event);
        }
        for &counter in &self.counters {
            out.counter(counter);
        }
        for &span in &self.spans {
            out.span(span);
        }
    }
}

impl Recorder for ShardTelemetry {
    fn event(&mut self, event: Event) {
        self.events.push(event);
    }
    fn counter(&mut self, counter: Counter) {
        self.counters.push(counter);
    }
    fn span(&mut self, span: Span) {
        self.spans.push(span);
    }
}

/// Reduces one shard of clients into a partial round: a shard-local
/// [`RoundAccumulator`] plus the buffered telemetry and cross-round side
/// effects (straggler stashes, stale-model retentions) the root applies
/// after the merge. Only streaming (mean-based) strategies reach here:
/// [`Fleet::with_options`] rejects robust combiners up front.
#[derive(Debug)]
struct EdgeAggregator {
    shard: usize,
    round: u64,
    acc: RoundAccumulator,
    telemetry: ShardTelemetry,
    stragglers: Vec<StashedStraggler>,
    /// Post-round parameters of clients whose broadcast will drop this
    /// round (they keep training from these until a broadcast lands).
    retained: Vec<(usize, Vec<f32>)>,
    upload_bytes: u64,
    clients_processed: u64,
    secs: f64,
    /// Upload codec the shard's clients nominally encode with — fleet
    /// rounds move no real frames, so the codec only drives the byte
    /// accounting (`upload_bytes` reflects the true framed length).
    codec: wire::Codec,
}

impl EdgeAggregator {
    /// Opens an empty reducer for `shard` in `ctx`'s round.
    fn new<F: FleetClientFactory>(ctx: &ShardContext<'_, F>, shard: usize) -> Self {
        EdgeAggregator {
            shard,
            round: ctx.round,
            acc: RoundAccumulator::for_model(ctx.strategy, ctx.global.len()),
            telemetry: ShardTelemetry::default(),
            stragglers: Vec::new(),
            retained: Vec::new(),
            upload_bytes: 0,
            clients_processed: 0,
            secs: 0.0,
            codec: ctx.codec,
        }
    }

    /// Records the arrival of a fresh upload and admits it at unit
    /// weight, mirroring the flat engine's received-frame path.
    fn deliver(&mut self, id: usize, update: ModelUpdate) {
        let round = self.round;
        let frame_len = self.codec.upload_frame_len(update.params.len());
        self.telemetry.event(Event::with_bytes(
            EventKind::UploadReceived,
            round,
            id,
            frame_len,
        ));
        self.upload_bytes += frame_len as u64;
        let kind = if self.acc.admit(update, 1.0).is_ok() {
            EventKind::UploadAdmitted
        } else {
            EventKind::UpdateRejected
        };
        self.telemetry.event(Event::client_scoped(kind, round, id));
    }

    /// Materializes, trains, and uploads one client, realizing any
    /// scheduled fault exactly as the flat engine's transport layer
    /// would.
    fn process_client<F: FleetClientFactory>(
        &mut self,
        ctx: &ShardContext<'_, F>,
        id: usize,
        ws: &mut <F::Client as FederatedClient>::Workspace,
    ) {
        let round = ctx.round;
        if ctx.plan.is_offline(id, round) {
            self.telemetry
                .event(Event::client_scoped(EventKind::ClientOffline, round, id));
            return;
        }
        // The model this client actually holds: its stale ledger entry if
        // it missed broadcasts, the current global otherwise.
        let resume: &[f32] = ctx.ledger.get(&id).map_or(ctx.global, Vec::as_slice);
        let mut client = ctx.factory.materialize(id, round);
        client.download(resume);
        client.begin_round(round);
        self.clients_processed += 1;
        let trained =
            catch_unwind(AssertUnwindSafe(|| client.train_round_with(ctx.steps, ws))).is_ok();
        if !trained {
            self.telemetry
                .event(Event::client_scoped(EventKind::TrainPanic, round, id));
            if matches!(ctx.plan.fault_at(id, round), Some(Fault::DownloadDrop)) {
                // Documented approximation: the flat engine would retain
                // the panicked client's mid-train parameters, which are
                // not reproducible; retain its round-start model instead.
                self.retained.push((id, resume.to_vec()));
            }
            return;
        }
        self.telemetry
            .event(Event::client_scoped(EventKind::ClientTrained, round, id));
        client.record_telemetry(round, &mut self.telemetry);
        let mut update = client.upload();
        drop(client);

        // In-flight faults, realized from the plan.
        match ctx.plan.fault_at(id, round) {
            Some(Fault::Straggle { delay_rounds }) => {
                self.telemetry
                    .event(Event::client_scoped(EventKind::StragglerStarted, round, id));
                self.stragglers.push(StashedStraggler {
                    client: id,
                    origin: round,
                    ready: round + delay_rounds,
                    update,
                });
            }
            Some(Fault::UploadDrop { attempts }) => {
                for _ in 0..attempts.min(MAX_UPLOAD_RETRIES) {
                    self.telemetry
                        .event(Event::client_scoped(EventKind::UploadRetry, round, id));
                }
                if attempts <= MAX_UPLOAD_RETRIES {
                    self.deliver(id, update);
                } else {
                    self.telemetry
                        .event(Event::client_scoped(EventKind::UploadDropped, round, id));
                }
            }
            Some(Fault::Corrupt(kind)) => {
                kind.apply(&mut update.params);
                self.deliver(id, update);
            }
            Some(Fault::DownloadDrop) => {
                self.retained.push((id, update.params.clone()));
                self.deliver(id, update);
            }
            // A crash cell never reaches the upload phase (the offline
            // check above returned); kept for exhaustiveness.
            Some(Fault::Crash { .. }) | None => self.deliver(id, update),
        }
    }
}

/// Runs one shard: an edge aggregator over a contiguous client range,
/// materializing clients one at a time against the worker's persistent
/// workspace.
fn run_shard<F: FleetClientFactory>(
    ctx: &ShardContext<'_, F>,
    shard: usize,
    clients: Range<usize>,
    ws: &mut <F::Client as FederatedClient>::Workspace,
) -> EdgeAggregator {
    let start = Instant::now();
    let mut edge = EdgeAggregator::new(ctx, shard);
    for id in clients {
        edge.process_client(ctx, id, ws);
    }
    edge.secs = start.elapsed().as_secs_f64();
    edge
}

/// Hierarchical round orchestration over a sharded fleet.
///
/// Construction validates the configuration ([`Fleet::with_options`]);
/// [`Fleet::run_round`] then executes rounds with the same phase
/// structure, event vocabulary, and accounting as the flat
/// [`crate::Federation`], but fanned out over edge-aggregator shards.
/// For stateless clients the committed global model is bit-identical to
/// the flat engine's for every shard count — see the crate docs and
/// `tests/fleet_determinism.rs`.
pub struct Fleet<F: FleetClientFactory> {
    factory: F,
    config: FleetConfig,
    /// The sans-I/O protocol core shared with the flat engine driver:
    /// partial merges, staleness weighting, quorum, and commit all
    /// happen here.
    engine: RoundEngine,
    plan: FaultPlan,
    /// Stale models of clients that missed broadcasts; absence means the
    /// client holds the current global.
    ledger: BTreeMap<usize, Vec<f32>>,
    /// Straggler updates waiting out their delay at the root.
    stash: BTreeMap<usize, StashedStraggler>,
    transport: TransportStats,
    recorder: Box<dyn Recorder>,
    pool: WorkerPool,
    workspaces: Vec<<F::Client as FederatedClient>::Workspace>,
}

// Manual impl: the recorder is a trait object and workspaces need not be
// `Debug`, so derive is unavailable; show the orchestration state only.
impl<F: FleetClientFactory> std::fmt::Debug for Fleet<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("config", &self.config)
            .field("rounds_run", &self.engine.rounds_run())
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

impl<F: FleetClientFactory> Fleet<F> {
    /// Creates a fleet with no fault plan and no telemetry sink.
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::with_options`].
    pub fn new(factory: F, config: FleetConfig) -> Result<Self, FedError> {
        Fleet::with_options(factory, config, None, Box::new(NullRecorder))
    }

    /// Creates a fleet with an optional fault plan and a telemetry
    /// recorder.
    ///
    /// Delivers the join handshake accounting (one round-0
    /// [`EventKind::DownloadDelivered`] per client, like the flat
    /// engine's reliable control-plane join).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::UnsupportedInFleet`] when the aggregation
    /// strategy is a robust (buffering) combiner, and
    /// [`FedError::InvalidConfig`] when the fleet shape is degenerate
    /// (zero clients or shards), the federated settings are
    /// outside the sharded engine's domain (partial participation, update
    /// noise), or [`RoundEngine::new`] rejects the initial model or
    /// policy.
    pub fn with_options(
        factory: F,
        config: FleetConfig,
        plan: Option<&FaultPlan>,
        recorder: Box<dyn Recorder>,
    ) -> Result<Self, FedError> {
        let fed = &config.fedavg;
        if config.num_clients == 0 {
            return Err(FedError::InvalidConfig(
                "fleet needs at least one client".to_string(),
            ));
        }
        if config.shards == 0 {
            return Err(FedError::InvalidConfig(
                "fleet needs at least one shard".to_string(),
            ));
        }
        if fed.participation != 1.0 {
            return Err(FedError::InvalidConfig(format!(
                "fleet rounds are full-participation (participation must be 1.0, got {})",
                fed.participation
            )));
        }
        if fed.update_noise_sigma != 0.0 {
            return Err(FedError::InvalidConfig(format!(
                "fleet rounds cannot reproduce the serial noise stream \
                 (update_noise_sigma must be 0, got {})",
                fed.update_noise_sigma
            )));
        }
        if !fed.strategy.shard_reducible() {
            return Err(FedError::UnsupportedInFleet {
                strategy: fed.strategy,
            });
        }
        // Fleet slots are the dense id space itself.
        let engine = RoundEngine::new(
            factory.initial_global(),
            EnginePolicy::from_config(fed),
            (0..config.num_clients).collect(),
        )?;
        let mut fleet = Fleet {
            factory,
            config,
            engine,
            plan: plan.cloned().unwrap_or_default(),
            ledger: BTreeMap::new(),
            stash: BTreeMap::new(),
            transport: TransportStats::new(),
            recorder,
            pool: WorkerPool::default(),
            workspaces: Vec::new(),
        };
        let join_bytes = wire::encode_join_ack(0, fleet.engine.global()).len();
        let mut out = Tee {
            report: None,
            transport: &mut fleet.transport,
            recorder: &mut *fleet.recorder,
        };
        for id in 0..fleet.config.num_clients {
            fleet.engine.handle(
                Frame::Join {
                    client: id,
                    frame_len: join_bytes,
                },
                &mut out,
            );
        }
        Ok(fleet)
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The current global model parameters.
    pub fn global_params(&self) -> &[f32] {
        self.engine.global()
    }

    /// The sans-I/O round engine driving this fleet's protocol
    /// decisions.
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

    /// Installs a telemetry recorder; subsequent rounds emit through it.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// The installed telemetry recorder, for harness-side emissions.
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        &mut *self.recorder
    }

    /// Feeds one frame to the engine through the telemetry [`Tee`] —
    /// the same single choke point the flat engine uses.
    fn feed(&mut self, report: &mut RoundReport, frame: Frame) {
        let mut out = Tee {
            report: Some(report),
            transport: &mut self.transport,
            recorder: &mut *self.recorder,
        };
        self.engine.handle(frame, &mut out);
    }

    /// Executes one sharded federated round.
    ///
    /// Phases: shard fan-out (materialize → train → upload, reduced by
    /// one edge aggregator per shard), root merge of the shard
    /// partials, straggler surfacing, quorum-checked commit, and
    /// broadcast accounting. Every fault the plan schedules is realized
    /// with the flat engine's semantics; like the flat engine, the round
    /// itself never panics over client behavior.
    pub fn run_round(&mut self) -> RoundReport {
        let round = self.engine.rounds_run() + 1;
        let mut report = RoundReport::begin(round);
        self.feed(&mut report, Frame::BeginRound);

        let global: Vec<f32> = self.engine.global().to_vec();

        let chunk = self.config.num_clients.div_ceil(self.config.shards);
        let ranges: Vec<(usize, Range<usize>)> = (0..self.config.shards)
            .map(|s| {
                let start = (s * chunk).min(self.config.num_clients);
                let end = ((s + 1) * chunk).min(self.config.num_clients);
                (s, start..end)
            })
            .collect();
        let ctx = ShardContext {
            factory: &self.factory,
            global: &global,
            ledger: &self.ledger,
            plan: &self.plan,
            round,
            steps: self.config.fedavg.steps_per_round,
            strategy: self.config.fedavg.strategy,
            codec: self.config.fedavg.codec,
        };
        let fanout_start = Instant::now();
        let outcomes = self.pool.map_with_setup(
            ranges,
            &mut self.workspaces,
            <F::Client as FederatedClient>::Workspace::default,
            |(shard, clients), ws| run_shard(&ctx, shard, clients, ws),
        );
        report.timing.train_s = fanout_start.elapsed().as_secs_f64();

        // Root fold, in shard order: replay each shard's buffered
        // telemetry through the emission choke point, account the shard,
        // merge its partial into the engine's open round, and collect its
        // cross-round side effects.
        let aggregate_start = Instant::now();
        let mut retained: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
        for edge in outcomes {
            let mut out = Tee {
                report: Some(&mut report),
                transport: &mut self.transport,
                recorder: &mut *self.recorder,
            };
            edge.telemetry.replay(&mut out);
            out.counter(Counter::new(
                "shard_clients",
                round,
                Some(edge.shard),
                edge.clients_processed,
            ));
            out.counter(Counter::new(
                "shard_admitted",
                round,
                Some(edge.shard),
                edge.acc.admitted() as u64,
            ));
            out.counter(Counter::new(
                "shard_bytes",
                round,
                Some(edge.shard),
                edge.upload_bytes,
            ));
            out.span(Span::new("shard", round, edge.secs));
            for stashed in edge.stragglers {
                // Like the flat transport's single-slot stash: a client
                // already straggling keeps its first buffered update.
                self.stash.entry(stashed.client).or_insert(stashed);
            }
            for (id, params) in edge.retained {
                retained.insert(id, params);
            }
            self.engine
                .handle(Frame::MergePartial { partial: edge.acc }, &mut out);
        }

        // Straggler updates whose delay elapsed (and whose client is
        // reachable) surface now, discounted by staleness — in client-id
        // order, exactly as the flat engine polls its clients.
        let ready: Vec<usize> = self
            .stash
            .iter()
            .filter(|(&id, s)| round >= s.ready && !self.plan.is_offline(id, round))
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            let stashed = self
                .stash
                .remove(&id)
                .expect("selected from the stash above");
            self.feed(
                &mut report,
                Frame::StaleUpdate {
                    client: id,
                    origin_round: stashed.origin,
                    update: stashed.update,
                },
            );
        }

        self.feed(&mut report, Frame::CloseRound);
        report.client_divergence = self.engine.divergence();
        report.timing.aggregate_s = aggregate_start.elapsed().as_secs_f64();
        self.recorder
            .span(Span::new("aggregate", round, report.timing.aggregate_s));

        // Broadcast accounting: offline clients are skipped silently (as
        // in the flat engine) and keep the model they held at round
        // start, which an existing ledger entry (earlier missed broadcast)
        // already records; a dropped broadcast leaves the client on its
        // own post-round parameters via the ledger; a delivered one syncs
        // it back to the global.
        let broadcast_start = Instant::now();
        let frame_len = wire::broadcast_frame_len(self.engine.global().len());
        for id in 0..self.config.num_clients {
            if self.plan.is_offline(id, round) {
                self.ledger.entry(id).or_insert_with(|| global.clone());
                continue;
            }
            let frame = if matches!(self.plan.fault_at(id, round), Some(Fault::DownloadDrop)) {
                if let Some(params) = retained.remove(&id) {
                    self.ledger.insert(id, params);
                }
                Frame::DownloadDropped { client: id }
            } else {
                self.ledger.remove(&id);
                Frame::Delivered {
                    client: id,
                    frame_len,
                }
            };
            self.feed(&mut report, frame);
        }
        let broadcast_s = broadcast_start.elapsed().as_secs_f64();
        report.timing.transport_s += broadcast_s;
        self.recorder
            .span(Span::new("broadcast", round, broadcast_s));

        self.feed(&mut report, Frame::EndRound);
        report
    }

    /// Runs all `config.fedavg.rounds` rounds, returning one report per
    /// round.
    pub fn run(&mut self) -> Vec<RoundReport> {
        (0..self.config.fedavg.rounds)
            .map(|_| self.run_round())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CorruptionKind, FaultConfig};
    use crate::federation::Federation;
    use fedpower_telemetry::MemoryRecorder;

    /// A deterministic, stateless test client: training is a pure
    /// function of the downloaded parameters, so the fleet's per-round
    /// materialization is semantically identical to the flat engine's
    /// persistent client objects.
    #[derive(Debug, Clone)]
    struct StubClient {
        id: usize,
        params: Vec<f32>,
        target: f32,
    }

    impl StubClient {
        fn new(id: usize, dim: usize) -> Self {
            StubClient {
                id,
                params: vec![0.0; dim],
                target: (id + 1) as f32 * 0.1,
            }
        }
    }

    impl FederatedClient for StubClient {
        type Workspace = ();

        fn id(&self) -> usize {
            self.id
        }

        fn train_round_with(&mut self, steps: u64, _ws: &mut ()) {
            for _ in 0..steps {
                for (i, p) in self.params.iter_mut().enumerate() {
                    *p += 0.3 * (self.target + i as f32 * 0.01 - *p);
                }
            }
        }

        fn upload(&mut self) -> ModelUpdate {
            ModelUpdate {
                client_id: self.id,
                params: self.params.clone(),
                num_samples: 10 + self.id as u64,
            }
        }

        fn download(&mut self, global: &[f32]) {
            self.params = global.to_vec();
        }

        fn transfer_bytes(&self) -> usize {
            self.params.len() * 4
        }
    }

    struct StubFactory {
        dim: usize,
    }

    impl FleetClientFactory for StubFactory {
        type Client = StubClient;

        fn initial_global(&self) -> Vec<f32> {
            vec![0.0; self.dim]
        }

        fn materialize(&self, id: usize, _round: u64) -> StubClient {
            StubClient::new(id, self.dim)
        }
    }

    #[allow(deprecated)]
    fn fleet_config(num_clients: usize, shards: usize, rounds: u64) -> FleetConfig {
        FleetConfig {
            fedavg: FedAvgConfig {
                rounds,
                steps_per_round: 3,
                ..FedAvgConfig::paper()
            },
            num_clients,
            shards,
            batch: FleetConfig::DEFAULT_BATCH,
        }
    }

    /// The flat reference run over the same stub clients.
    fn flat_run(
        num_clients: usize,
        rounds: u64,
        plan: Option<&FaultPlan>,
    ) -> (Vec<f32>, Vec<RoundReport>, TransportStats) {
        let clients: Vec<StubClient> = (0..num_clients).map(|id| StubClient::new(id, 4)).collect();
        let cfg = FedAvgConfig {
            rounds,
            steps_per_round: 3,
            ..FedAvgConfig::paper()
        };
        let builder = Federation::builder(clients, cfg).seed(9);
        let mut fed = match plan {
            Some(p) => builder.fault_plan(p).build(),
            None => builder.build(),
        }
        .expect("flat federation constructs");
        let reports = fed.run();
        (fed.global_params().to_vec(), reports, *fed.transport())
    }

    #[test]
    fn robust_strategies_fail_fast() {
        for strategy in [
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
            AggregationStrategy::CoordinateMedian,
        ] {
            let mut config = fleet_config(4, 2, 1);
            config.fedavg.strategy = strategy;
            let err = Fleet::new(StubFactory { dim: 4 }, config).expect_err("rejected");
            assert_eq!(err, FedError::UnsupportedInFleet { strategy });
        }
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        let bad = |config: FleetConfig| {
            matches!(
                Fleet::new(StubFactory { dim: 4 }, config),
                Err(FedError::InvalidConfig(_))
            )
        };
        assert!(bad(fleet_config(0, 1, 1)), "zero clients");
        assert!(bad(fleet_config(4, 0, 1)), "zero shards");
        let mut partial = fleet_config(4, 2, 1);
        partial.fedavg.participation = 0.5;
        assert!(bad(partial), "partial participation");
        let mut noisy = fleet_config(4, 2, 1);
        noisy.fedavg.update_noise_sigma = 0.1;
        assert!(bad(noisy), "update noise");
    }

    /// Every engine-side rule, broken one at a time, is the same typed
    /// error from all three drivers, and none of them panics.
    #[test]
    fn engine_rules_are_typed_errors_in_every_driver() {
        use crate::netserver::{serve_on, ServeOptions};
        use crate::server::ServerOpt;
        fn adam(lr: f32, beta1: f32, eps: f32) -> ServerOpt {
            ServerOpt::FedAdam {
                lr,
                beta1,
                beta2: 0.99,
                eps,
            }
        }
        // Zero rounds: the server returns before waiting for clients.
        let valid = FedAvgConfig {
            rounds: 0,
            ..FedAvgConfig::paper()
        };
        let with = |breaks: fn(&mut FedAvgConfig)| {
            let mut config = valid;
            breaks(&mut config);
            config
        };
        let invalid_everywhere = |rule: &str, config: FedAvgConfig, dim: usize| {
            let clients = (0..2).map(|id| StubClient::new(id, dim)).collect();
            let flat = Federation::builder(clients, config).build().err();
            #[allow(deprecated)]
            let shape = FleetConfig {
                fedavg: config,
                num_clients: 2,
                shards: 1,
                batch: 1,
            };
            let fleet = Fleet::new(StubFactory { dim }, shape).err();
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback");
            let opts = ServeOptions::new(2, config, vec![0.0; dim]);
            let served = serve_on(listener, &opts, &mut NullRecorder).err();
            for (driver, err) in [("federation", flat), ("fleet", fleet), ("server", served)] {
                assert!(
                    matches!(err, Some(FedError::InvalidConfig(_))),
                    "{driver}, {rule}: {err:?}"
                );
            }
        };
        for (rule, config) in [
            (
                "topk 0",
                with(|c| c.codec = wire::Codec::TopK { frac: 0.0 }),
            ),
            ("momentum 1", with(|c| c.server_momentum = 1.0)),
            ("fedadam lr", with(|c| c.optimizer = adam(-1.0, 0.9, 1e-3))),
            (
                "fedadam beta",
                with(|c| c.optimizer = adam(0.01, 1.0, 1e-3)),
            ),
            ("fedadam eps", with(|c| c.optimizer = adam(0.01, 0.9, 0.0))),
            (
                "fedprox mu",
                with(|c| c.optimizer = ServerOpt::FedProx { mu: -1.0 }),
            ),
            (
                "momentum under fedadam",
                with(|c| {
                    c.optimizer = ServerOpt::fedadam();
                    c.server_momentum = 0.5;
                }),
            ),
        ] {
            invalid_everywhere(rule, config, 4);
        }
        invalid_everywhere("empty model", valid, 0);
    }

    #[test]
    fn shard_count_never_changes_the_round() {
        let reference = {
            let mut fleet =
                Fleet::new(StubFactory { dim: 4 }, fleet_config(13, 1, 3)).expect("constructs");
            let reports = fleet.run();
            (fleet.global_params().to_vec(), reports, *fleet.transport())
        };
        for shards in [2, 5, 13, 64] {
            let mut fleet = Fleet::new(StubFactory { dim: 4 }, fleet_config(13, shards, 3))
                .expect("constructs");
            let reports = fleet.run();
            assert_eq!(
                fleet.global_params(),
                reference.0.as_slice(),
                "{shards} shards"
            );
            assert_eq!(reports, reference.1, "{shards} shards");
            assert_eq!(fleet.transport(), &reference.2, "{shards} shards");
        }
    }

    #[test]
    fn panicking_training_costs_only_that_client() {
        #[derive(Debug, Clone)]
        struct PanickyClient(StubClient);

        impl FederatedClient for PanickyClient {
            type Workspace = ();

            fn id(&self) -> usize {
                self.0.id
            }
            fn train_round_with(&mut self, steps: u64, ws: &mut ()) {
                assert!(self.0.id != 2, "client 2 always panics in training");
                self.0.train_round_with(steps, ws);
            }
            fn upload(&mut self) -> ModelUpdate {
                self.0.upload()
            }
            fn download(&mut self, global: &[f32]) {
                self.0.download(global);
            }
            fn transfer_bytes(&self) -> usize {
                self.0.transfer_bytes()
            }
        }

        struct PanickyFactory;
        impl FleetClientFactory for PanickyFactory {
            type Client = PanickyClient;
            fn initial_global(&self) -> Vec<f32> {
                vec![0.0; 4]
            }
            fn materialize(&self, id: usize, _round: u64) -> PanickyClient {
                PanickyClient(StubClient::new(id, 4))
            }
        }

        let recorder = MemoryRecorder::new();
        let mut fleet = Fleet::with_options(
            PanickyFactory,
            fleet_config(5, 1, 2),
            None,
            Box::new(recorder.clone()),
        )
        .expect("constructs");
        let reports = fleet.run();
        assert_eq!(recorder.count(EventKind::TrainPanic), 2, "one per round");
        for report in &reports {
            assert_eq!(report.train_panics, 1, "round {}", report.round);
            assert_eq!(
                report.uploads_ok, 4,
                "round {}: the others commit",
                report.round
            );
            assert!(report.aggregated, "round {}", report.round);
        }
    }

    #[test]
    fn a_shard_worker_holds_one_client_at_a_time() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        use std::sync::Arc;

        /// Clients alive now, and the most ever alive at once.
        #[derive(Debug, Default)]
        struct Live {
            now: AtomicUsize,
            peak: AtomicUsize,
        }

        #[derive(Debug)]
        struct CountedClient(StubClient, Arc<Live>);

        impl Drop for CountedClient {
            fn drop(&mut self) {
                self.1.now.fetch_sub(1, SeqCst);
            }
        }

        impl FederatedClient for CountedClient {
            type Workspace = ();

            fn id(&self) -> usize {
                self.0.id
            }
            fn train_round_with(&mut self, steps: u64, ws: &mut ()) {
                self.0.train_round_with(steps, ws);
            }
            fn upload(&mut self) -> ModelUpdate {
                self.0.upload()
            }
            fn download(&mut self, global: &[f32]) {
                self.0.download(global);
            }
            fn transfer_bytes(&self) -> usize {
                self.0.transfer_bytes()
            }
        }

        struct CountingFactory(Arc<Live>);
        impl FleetClientFactory for CountingFactory {
            type Client = CountedClient;
            fn initial_global(&self) -> Vec<f32> {
                vec![0.0; 4]
            }
            fn materialize(&self, id: usize, _round: u64) -> CountedClient {
                let now = self.0.now.fetch_add(1, SeqCst) + 1;
                self.0.peak.fetch_max(now, SeqCst);
                CountedClient(StubClient::new(id, 4), Arc::clone(&self.0))
            }
        }

        let live = Arc::new(Live::default());
        let mut fleet = Fleet::new(CountingFactory(Arc::clone(&live)), fleet_config(64, 2, 2))
            .expect("constructs");
        let reports = fleet.run();
        assert!(reports.iter().all(|r| r.uploads_ok == 64));
        assert_eq!(live.now.load(SeqCst), 0, "every client is dropped");
        let peak = live.peak.load(SeqCst);
        assert!(peak <= 2, "{peak} clients alive at once over 2 shards");
    }

    #[test]
    fn fleet_matches_the_flat_engine_bit_for_bit() {
        let (flat_global, flat_reports, flat_transport) = flat_run(6, 4, None);
        let mut fleet =
            Fleet::new(StubFactory { dim: 4 }, fleet_config(6, 3, 4)).expect("constructs");
        let reports = fleet.run();
        assert_eq!(fleet.global_params(), flat_global.as_slice());
        assert_eq!(reports, flat_reports);
        assert_eq!(fleet.transport(), &flat_transport);
    }

    #[test]
    fn fleet_matches_the_flat_engine_under_chaos() {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 8, 12, 21);
        let (flat_global, flat_reports, flat_transport) = flat_run(8, 12, Some(&plan));
        let mut fleet = Fleet::with_options(
            StubFactory { dim: 4 },
            fleet_config(8, 3, 12),
            Some(&plan),
            Box::new(NullRecorder),
        )
        .expect("constructs");
        let reports = fleet.run();
        assert_eq!(fleet.global_params(), flat_global.as_slice());
        assert_eq!(reports, flat_reports);
        assert_eq!(fleet.transport(), &flat_transport);
    }

    #[test]
    fn scripted_faults_mirror_the_flat_engine() {
        // One of each cross-round fault, scripted so the test pins the
        // exact semantics: a straggler delivering late, a dropped
        // broadcast leaving its client on a stale model, a crash outage
        // pinning the pre-crash model, and a corrupt upload rejected by
        // admission.
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Straggle { delay_rounds: 1 });
        plan.insert(1, 1, Fault::DownloadDrop);
        plan.insert(2, 2, Fault::Crash { down_rounds: 2 });
        plan.insert(3, 2, Fault::Corrupt(CorruptionKind::NaN));
        plan.insert(4, 1, Fault::UploadDrop { attempts: 3 });
        let (flat_global, flat_reports, flat_transport) = flat_run(5, 5, Some(&plan));

        let recorder = MemoryRecorder::new();
        let mut fleet = Fleet::with_options(
            StubFactory { dim: 4 },
            fleet_config(5, 2, 5),
            Some(&plan),
            Box::new(recorder.clone()),
        )
        .expect("constructs");
        let reports = fleet.run();
        assert_eq!(fleet.global_params(), flat_global.as_slice());
        assert_eq!(reports, flat_reports);
        assert_eq!(fleet.transport(), &flat_transport);

        assert_eq!(recorder.count(EventKind::StragglerStarted), 1);
        assert_eq!(recorder.count(EventKind::StaleReceived), 1);
        assert_eq!(recorder.count(EventKind::StaleApplied), 1);
        assert_eq!(recorder.count(EventKind::DownloadDropped), 1);
        assert_eq!(recorder.count(EventKind::UpdateRejected), 1, "NaN rejected");
        assert_eq!(
            recorder.count(EventKind::ClientOffline),
            2,
            "two rounds of crash outage"
        );
        assert_eq!(
            recorder.count(EventKind::UploadDropped),
            1,
            "drop budget exhausted"
        );
        assert_eq!(
            recorder.count(EventKind::UploadRetry),
            2,
            "paper budget R=2"
        );
    }

    #[test]
    fn overlapping_crashes_follow_the_flat_links_outage_rule() {
        // The later crash sets the rejoin round: client 0 is down in
        // rounds 1 and 2 and back in round 3, as on a flat link.
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Crash { down_rounds: 3 });
        plan.insert(0, 2, Fault::Crash { down_rounds: 1 });
        let (flat_global, flat_reports, flat_transport) = flat_run(3, 5, Some(&plan));
        let mut fleet = Fleet::with_options(
            StubFactory { dim: 4 },
            fleet_config(3, 2, 5),
            Some(&plan),
            Box::new(NullRecorder),
        )
        .expect("constructs");
        let reports = fleet.run();
        assert_eq!(reports, flat_reports);
        assert_eq!(fleet.global_params(), flat_global.as_slice());
        assert_eq!(fleet.transport(), &flat_transport);
        let offline: Vec<usize> = reports.iter().map(|r| r.offline).collect();
        assert_eq!(offline, [1, 1, 0, 0, 0]);
    }

    #[test]
    fn more_shards_than_clients_merges_empty_partials() {
        let mut fleet =
            Fleet::new(StubFactory { dim: 4 }, fleet_config(3, 8, 2)).expect("constructs");
        let reports = fleet.run();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.participants == 3));
        assert!(reports.iter().all(|r| r.aggregated));
    }

    #[test]
    fn shard_telemetry_accounts_every_client_and_byte() {
        let recorder = MemoryRecorder::new();
        let mut fleet = Fleet::with_options(
            StubFactory { dim: 4 },
            fleet_config(10, 4, 1),
            None,
            Box::new(recorder.clone()),
        )
        .expect("constructs");
        fleet.run_round();
        let counters = recorder.counters();
        let clients: u64 = counters
            .iter()
            .filter(|c| c.name == "shard_clients")
            .map(|c| c.value)
            .sum();
        let bytes: u64 = counters
            .iter()
            .filter(|c| c.name == "shard_bytes")
            .map(|c| c.value)
            .sum();
        let admitted: u64 = counters
            .iter()
            .filter(|c| c.name == "shard_admitted")
            .map(|c| c.value)
            .sum();
        assert_eq!(clients, 10);
        assert_eq!(admitted, 10);
        assert_eq!(bytes, 10 * wire::upload_frame_len(4) as u64);
        let shard_spans = recorder
            .spans()
            .iter()
            .filter(|s| s.name == "shard")
            .count();
        assert_eq!(shard_spans, 4, "one span per shard");
    }

    #[test]
    fn codec_fleet_rounds_account_compressed_bytes_and_commit_identically() {
        let dense = {
            let mut fleet = Fleet::new(StubFactory { dim: 4 }, fleet_config(10, 4, 1)).unwrap();
            fleet.run_round();
            fleet.global_params().to_vec()
        };
        let codec = wire::Codec::Q8;
        let recorder = MemoryRecorder::new();
        let mut cfg = fleet_config(10, 4, 1);
        cfg.fedavg.codec = codec;
        let mut fleet = Fleet::with_options(
            StubFactory { dim: 4 },
            cfg,
            None,
            Box::new(recorder.clone()),
        )
        .expect("constructs");
        fleet.run_round();
        // The codec is byte accounting only in the fleet path: the merged
        // round is bit-identical to dense, while shard_bytes shrink to the
        // compressed framed length.
        assert_eq!(fleet.global_params(), dense.as_slice());
        let bytes: u64 = recorder
            .counters()
            .iter()
            .filter(|c| c.name == "shard_bytes")
            .map(|c| c.value)
            .sum();
        assert_eq!(bytes, 10 * codec.upload_frame_len(4) as u64);
    }
}
