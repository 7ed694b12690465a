//! Fault injection for the federation: seed-deterministic fault plans and
//! a decorator that makes any [`Transport`] unreliable on schedule.
//!
//! Real edge fleets are not the paper's idealized synchronous ring: uploads
//! are lost, devices straggle behind the round cadence, sensors glitch
//! parameters into NaN, and nodes crash and rejoin. This module injects
//! exactly those failures — reproducibly — so the orchestration layer's
//! resilience (quorum, retries, staleness discounting, admission checks)
//! can be tested instead of assumed.
//!
//! Design:
//!
//! * [`FaultPlan`] decides *ahead of time* which fault (if any) hits each
//!   `(client, round)` cell. Plans are pure functions of
//!   `(FaultConfig, clients, rounds, seed)`, so a run with faults is as
//!   reproducible as one without. At most one fault occupies a cell, and a
//!   crash occupies its whole outage exclusively — plan totals therefore
//!   reconcile exactly against [`crate::RoundReport`] accounting.
//! * [`FaultyTransport`] wraps any [`Transport`] and realizes the plan on
//!   *bytes in flight* — drops, stragglers, and corruption happen where
//!   they physically occur, between the encoded frame leaving one end and
//!   arriving at the other. This is the federation's only fault path: the
//!   former client-boundary decorator (`FaultyClient`) duplicated the same
//!   state machine one layer too high and has been retired — wrap the
//!   client's link instead (see `CHANGELOG.md`).

use crate::error::FedError;
use crate::transport::Transport;
use crate::wire;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a corrupt update mangles its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Overwrites one parameter with NaN (a glitched sensor/serializer).
    NaN,
    /// Multiplies every parameter by a factor (a byzantine amplifier;
    /// negative factors flip the update's direction).
    Amplify(f32),
}

impl CorruptionKind {
    /// Applies the corruption to a parameter vector in place.
    pub fn apply(self, params: &mut [f32]) {
        match self {
            CorruptionKind::NaN => {
                if let Some(p) = params.first_mut() {
                    *p = f32::NAN;
                }
            }
            CorruptionKind::Amplify(factor) => {
                for p in params {
                    *p *= factor;
                }
            }
        }
    }

    /// Applies the corruption to a codec-compressed body in place — the
    /// quantized analogue of [`CorruptionKind::apply`]. `NaN` poisons the
    /// reconstruction (a NaN scale or sparse value makes every affected
    /// parameter non-finite); `Amplify` scales what the server will decode
    /// by exactly the same factor as the dense path (for linear
    /// quantization, scaling both `scale` and `zero_point` scales every
    /// reconstructed value).
    pub fn apply_coded(self, update: &mut wire::CodedUpdate) {
        use wire::CodedUpdate;
        match (self, update) {
            (CorruptionKind::NaN, CodedUpdate::Q8 { scale, .. })
            | (CorruptionKind::NaN, CodedUpdate::Q16 { scale, .. }) => *scale = f32::NAN,
            (CorruptionKind::NaN, CodedUpdate::TopK { values, .. }) => {
                if let Some(v) = values.first_mut() {
                    *v = f32::NAN;
                }
            }
            (
                CorruptionKind::Amplify(factor),
                CodedUpdate::Q8 {
                    scale, zero_point, ..
                },
            )
            | (
                CorruptionKind::Amplify(factor),
                CodedUpdate::Q16 {
                    scale, zero_point, ..
                },
            ) => {
                *scale *= factor;
                *zero_point *= factor;
            }
            (CorruptionKind::Amplify(factor), CodedUpdate::TopK { values, .. }) => {
                for v in values {
                    *v *= factor;
                }
            }
        }
    }
}

/// One scheduled fault in a `(client, round)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// The upload is lost in transit `attempts` times before succeeding
    /// (whether it ever succeeds depends on the orchestrator's retry
    /// budget).
    UploadDrop {
        /// Transmissions lost before one can succeed.
        attempts: u64,
    },
    /// The global-model broadcast to this client is lost; it trains the
    /// next round from its stale parameters.
    DownloadDrop,
    /// The client trains but its upload arrives `delay_rounds` rounds
    /// late, to be applied with a staleness-discounted weight.
    Straggle {
        /// Rounds until the update surfaces.
        delay_rounds: u64,
    },
    /// The upload arrives on time but mangled; server admission should
    /// reject it.
    Corrupt(CorruptionKind),
    /// The device goes dark for `down_rounds` rounds (this one included),
    /// then rejoins and receives the current global model.
    Crash {
        /// Rounds offline, starting with the faulted round.
        down_rounds: u64,
    },
}

/// Per-round fault probabilities and magnitude bounds.
///
/// Each `(client, round)` cell draws **one** categorical outcome, so the
/// probabilities must sum to at most 1. Crash outages additionally block
/// the affected client's following `down_rounds − 1` cells from drawing
/// further faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability an upload is dropped in transit.
    pub p_upload_drop: f64,
    /// Probability the broadcast to a client is dropped.
    pub p_download_drop: f64,
    /// Probability a client straggles (its update arrives late).
    pub p_straggle: f64,
    /// Probability an upload arrives corrupted (NaN injection).
    pub p_corrupt: f64,
    /// Probability a client crashes (goes offline for several rounds).
    pub p_crash: f64,
    /// Most transmissions a dropped upload loses before one can succeed.
    pub max_drop_attempts: u64,
    /// Longest straggler delay in rounds.
    pub max_straggle_rounds: u64,
    /// Longest crash outage in rounds.
    pub max_crash_rounds: u64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        FaultConfig {
            p_upload_drop: 0.0,
            p_download_drop: 0.0,
            p_straggle: 0.0,
            p_corrupt: 0.0,
            p_crash: 0.0,
            max_drop_attempts: 1,
            max_straggle_rounds: 1,
            max_crash_rounds: 1,
        }
    }

    /// A congested network: uploads and broadcasts get lost, nothing else.
    pub fn lossy_network() -> Self {
        FaultConfig {
            p_upload_drop: 0.2,
            p_download_drop: 0.1,
            max_drop_attempts: 2,
            ..FaultConfig::none()
        }
    }

    /// Heterogeneous hardware: some clients run behind the round cadence.
    pub fn stragglers() -> Self {
        FaultConfig {
            p_straggle: 0.25,
            max_straggle_rounds: 2,
            ..FaultConfig::none()
        }
    }

    /// Devices crash and rejoin; occasional transit loss.
    pub fn flaky_fleet() -> Self {
        FaultConfig {
            p_crash: 0.1,
            max_crash_rounds: 2,
            p_upload_drop: 0.1,
            max_drop_attempts: 1,
            ..FaultConfig::none()
        }
    }

    /// Everything at once, at moderate rates.
    pub fn chaos() -> Self {
        FaultConfig {
            p_upload_drop: 0.15,
            p_download_drop: 0.1,
            p_straggle: 0.1,
            p_corrupt: 0.05,
            p_crash: 0.05,
            max_drop_attempts: 3,
            max_straggle_rounds: 2,
            max_crash_rounds: 2,
        }
    }

    /// Sum of all fault probabilities.
    pub fn total_probability(&self) -> f64 {
        self.p_upload_drop + self.p_download_drop + self.p_straggle + self.p_corrupt + self.p_crash
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Named fault profiles, so experiment configs and CLI flags can select a
/// fault model without spelling out probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FaultScenario {
    /// Fault-free (the paper's setting).
    #[default]
    None,
    /// [`FaultConfig::lossy_network`].
    LossyNetwork,
    /// [`FaultConfig::stragglers`].
    Stragglers,
    /// [`FaultConfig::flaky_fleet`].
    FlakyFleet,
    /// [`FaultConfig::chaos`].
    Chaos,
}

impl FaultScenario {
    /// Every scenario, for iteration in benches and docs.
    pub const ALL: [FaultScenario; 5] = [
        FaultScenario::None,
        FaultScenario::LossyNetwork,
        FaultScenario::Stragglers,
        FaultScenario::FlakyFleet,
        FaultScenario::Chaos,
    ];

    /// The scenario's fault probabilities.
    pub fn config(self) -> FaultConfig {
        match self {
            FaultScenario::None => FaultConfig::none(),
            FaultScenario::LossyNetwork => FaultConfig::lossy_network(),
            FaultScenario::Stragglers => FaultConfig::stragglers(),
            FaultScenario::FlakyFleet => FaultConfig::flaky_fleet(),
            FaultScenario::Chaos => FaultConfig::chaos(),
        }
    }

    /// The scenario's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::None => "none",
            FaultScenario::LossyNetwork => "lossy-network",
            FaultScenario::Stragglers => "stragglers",
            FaultScenario::FlakyFleet => "flaky-fleet",
            FaultScenario::Chaos => "chaos",
        }
    }

    /// Parses a CLI name (`none`, `lossy-network`, `stragglers`,
    /// `flaky-fleet`, `chaos`).
    pub fn parse(s: &str) -> Option<Self> {
        FaultScenario::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// Totals of a [`FaultPlan`], for reconciling against round reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanCounts {
    /// Scheduled upload-drop faults.
    pub upload_drops: usize,
    /// Scheduled broadcast drops.
    pub download_drops: usize,
    /// Scheduled straggler episodes.
    pub straggles: usize,
    /// Scheduled corruptions.
    pub corruptions: usize,
    /// Scheduled crash episodes.
    pub crashes: usize,
    /// Total client-rounds spent offline across all crashes.
    pub crash_rounds: u64,
}

/// A deterministic schedule of faults: at most one per `(client, round)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    cells: BTreeMap<(usize, u64), Fault>,
    /// The longest crash outage scheduled: how many cells back the
    /// outage rule ([`FaultPlan::is_offline`]) has to look.
    longest_crash: u64,
}

impl FaultPlan {
    /// An empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan for `num_clients` clients over rounds `1..=rounds`.
    ///
    /// The plan is a pure function of its arguments: the same seed always
    /// yields the same schedule, independent of the federation's own RNG
    /// streams. Each cell draws one categorical outcome; a crash blocks the
    /// client's remaining outage rounds from drawing further faults.
    ///
    /// # Panics
    ///
    /// Panics if `config`'s probabilities sum above 1 or a magnitude bound
    /// is zero.
    pub fn generate(config: &FaultConfig, num_clients: usize, rounds: u64, seed: u64) -> Self {
        assert!(
            config.total_probability() <= 1.0,
            "fault probabilities sum to {} > 1",
            config.total_probability()
        );
        assert!(
            config.max_drop_attempts > 0
                && config.max_straggle_rounds > 0
                && config.max_crash_rounds > 0,
            "fault magnitude bounds must be at least 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cells = BTreeMap::new();
        let mut longest_crash = 0;
        for client in 0..num_clients {
            let mut round = 1;
            while round <= rounds {
                let draw: f64 = rng.random();
                let mut threshold = config.p_crash;
                if draw < threshold {
                    let down_rounds = rng.random_range(1..=config.max_crash_rounds);
                    cells.insert((client, round), Fault::Crash { down_rounds });
                    longest_crash = longest_crash.max(down_rounds);
                    round += down_rounds;
                    continue;
                }
                threshold += config.p_straggle;
                if draw < threshold {
                    let delay_rounds = rng.random_range(1..=config.max_straggle_rounds);
                    cells.insert((client, round), Fault::Straggle { delay_rounds });
                } else {
                    threshold += config.p_upload_drop;
                    if draw < threshold {
                        let attempts = rng.random_range(1..=config.max_drop_attempts);
                        cells.insert((client, round), Fault::UploadDrop { attempts });
                    } else {
                        threshold += config.p_download_drop;
                        if draw < threshold {
                            cells.insert((client, round), Fault::DownloadDrop);
                        } else if draw < threshold + config.p_corrupt {
                            cells.insert((client, round), Fault::Corrupt(CorruptionKind::NaN));
                        }
                    }
                }
                round += 1;
            }
        }
        FaultPlan {
            cells,
            longest_crash,
        }
    }

    /// A byzantine plan: `client` uploads an `Amplify(factor)`-corrupted
    /// update every round of `1..=rounds` (the poisoning ablation).
    pub fn poison(client: usize, rounds: u64, factor: f32) -> Self {
        let mut plan = FaultPlan::none();
        for round in 1..=rounds {
            plan.insert(
                client,
                round,
                Fault::Corrupt(CorruptionKind::Amplify(factor)),
            );
        }
        plan
    }

    /// Schedules `fault` for `client` in `round` (replacing any previous
    /// fault in that cell).
    pub fn insert(&mut self, client: usize, round: u64, fault: Fault) {
        if let Fault::Crash { down_rounds } = fault {
            self.longest_crash = self.longest_crash.max(down_rounds);
        }
        self.cells.insert((client, round), fault);
    }

    /// The fault scheduled for `client` in `round`, if any.
    pub fn fault_at(&self, client: usize, round: u64) -> Option<Fault> {
        self.cells.get(&(client, round)).copied()
    }

    /// Whether `client` is inside a crash outage in `round`, by the rule
    /// both fault paths share ([`FaultyTransport`] and [`crate::Fleet`]):
    /// the latest crash cell at or before `round` sets the rejoin round,
    /// so a later crash replaces an earlier outage rather than extending
    /// it.
    pub fn is_offline(&self, client: usize, round: u64) -> bool {
        let from = round.saturating_sub(self.longest_crash);
        in_outage(
            self.cells
                .range((client, from)..=(client, round))
                .map(|(&(_, r), &f)| (r, f)),
            round,
        )
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over `((client, round), fault)` cells in deterministic
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, Fault)> + '_ {
        self.cells.iter().map(|(&(c, r), &f)| (c, r, f))
    }

    /// Tallies the plan per fault kind.
    pub fn counts(&self) -> PlanCounts {
        let mut counts = PlanCounts::default();
        for fault in self.cells.values() {
            match fault {
                Fault::UploadDrop { .. } => counts.upload_drops += 1,
                Fault::DownloadDrop => counts.download_drops += 1,
                Fault::Straggle { .. } => counts.straggles += 1,
                Fault::Corrupt(_) => counts.corruptions += 1,
                Fault::Crash { down_rounds } => {
                    counts.crashes += 1;
                    counts.crash_rounds += down_rounds;
                }
            }
        }
        counts
    }
}

/// The crash-outage rule over one client's `(round, fault)` cells, in
/// round order, that lie at or before `round`: the latest crash among
/// them decides whether its outage still covers `round`.
fn in_outage(cells: impl DoubleEndedIterator<Item = (u64, Fault)>, round: u64) -> bool {
    cells
        .rev()
        .find_map(|(start, fault)| match fault {
            Fault::Crash { down_rounds } => Some(start + down_rounds > round),
            _ => None,
        })
        .unwrap_or(false)
}

/// One client's fault schedule unfolding over rounds: the state machine
/// driving [`FaultyTransport`]'s byte-level actuation.
///
/// Tracks the current round and the remaining transmissions an
/// [`Fault::UploadDrop`] still has to lose.
#[derive(Debug)]
struct FaultState {
    faults: BTreeMap<u64, Fault>,
    round: u64,
    /// The plan's [`FaultPlan::longest_crash`].
    longest_crash: u64,
    pending_drop_attempts: u64,
}

impl FaultState {
    /// Extracts `client_id`'s schedule from `plan`.
    fn from_plan(client_id: usize, plan: &FaultPlan) -> Self {
        let faults = plan
            .cells
            .iter()
            .filter(|((c, _), _)| *c == client_id)
            .map(|(&(_, r), &f)| (r, f))
            .collect();
        FaultState {
            faults,
            round: 0,
            longest_crash: plan.longest_crash,
            pending_drop_attempts: 0,
        }
    }

    /// Advances to `round`, arming any upload-drop scheduled there.
    fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.pending_drop_attempts = match self.faults.get(&round) {
            Some(Fault::UploadDrop { attempts }) => *attempts,
            _ => 0,
        };
    }

    /// Whether the client is outside a crash outage
    /// ([`FaultPlan::is_offline`]'s rule).
    fn is_online(&self) -> bool {
        let from = self.round.saturating_sub(self.longest_crash);
        !in_outage(
            self.faults.range(from..=self.round).map(|(&r, &f)| (r, f)),
            self.round,
        )
    }

    /// The fault scheduled for the current round, if any.
    fn fault_now(&self) -> Option<Fault> {
        self.faults.get(&self.round).copied()
    }

    /// Consumes one pending upload-drop transmission; `true` while the
    /// drop budget still swallows this attempt.
    fn consume_drop_attempt(&mut self) -> bool {
        if self.pending_drop_attempts > 0 {
            self.pending_drop_attempts -= 1;
            true
        } else {
            false
        }
    }
}

/// Wraps any [`Transport`] and makes frames fail *in flight* on a
/// [`FaultPlan`]'s schedule.
///
/// This is where the federation's faults physically belong: an upload
/// drop swallows the encoded frame before the server's end receives it, a
/// straggler's frame sits buffered inside the link until its delay
/// elapses, corruption mangles the payload bytes mid-hop (re-framed so
/// the CRC passes and server *admission* — not the codec — is what
/// rejects it), and a crash makes the whole link unreachable. The inner
/// transport and both endpoints stay byte-faithful.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    state: FaultState,
    /// A straggler's buffered frame and the first round it may surface.
    stash: Option<(Vec<u8>, u64)>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, extracting its fault schedule from `plan` by the
    /// link's client id.
    pub fn new(inner: T, plan: &FaultPlan) -> Self {
        let state = FaultState::from_plan(inner.client_id(), plan);
        FaultyTransport {
            inner,
            state,
            stash: None,
        }
    }

    /// Read access to the wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// Re-frames an upload — dense or codec-compressed — with its payload
    /// mangled by `kind` and a freshly valid CRC, so it is the server's
    /// admission check (not the checksum) that must catch it. Frames that
    /// do not decode as uploads pass through untouched (the wire layer
    /// will reject them anyway).
    fn corrupt_frame(kind: CorruptionKind, frame: &[u8]) -> Vec<u8> {
        let Ok(mut env) = wire::Envelope::decode(frame) else {
            return frame.to_vec();
        };
        match &mut env.payload {
            wire::Payload::ModelUpload { params, .. } => kind.apply(params),
            wire::Payload::CodecUpload { update, .. } => kind.apply_coded(update),
            _ => return frame.to_vec(),
        }
        env.encode()
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn client_id(&self) -> usize {
        self.inner.client_id()
    }

    fn begin_round(&mut self, round: u64) {
        self.state.begin_round(round);
        self.inner.begin_round(round);
    }

    fn is_online(&self) -> bool {
        self.state.is_online() && self.inner.is_online()
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        let client_id = self.client_id();
        if !self.is_online() {
            return Err(FedError::ClientOffline { client_id });
        }
        match self.state.fault_now() {
            Some(Fault::Straggle { delay_rounds }) => {
                let ready_round = self.state.round + delay_rounds;
                if self.stash.is_none() {
                    self.stash = Some((frame.to_vec(), ready_round));
                }
                Err(FedError::Straggling {
                    client_id,
                    ready_round,
                })
            }
            Some(Fault::UploadDrop { .. }) if self.state.consume_drop_attempt() => {
                Err(FedError::UploadDropped { client_id })
            }
            Some(Fault::Corrupt(kind)) => {
                let mangled = FaultyTransport::<T>::corrupt_frame(kind, frame);
                self.inner.upload(&mangled)
            }
            _ => self.inner.upload(frame),
        }
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        let client_id = self.client_id();
        if !self.is_online() {
            return Err(FedError::ClientOffline { client_id });
        }
        if matches!(self.state.fault_now(), Some(Fault::DownloadDrop)) {
            return Err(FedError::DownloadDropped { client_id });
        }
        self.inner.broadcast(frame)
    }

    fn take_stale(&mut self) -> Option<Vec<u8>> {
        if !self.is_online() {
            return None;
        }
        match &self.stash {
            Some((_, ready_round)) if self.state.round >= *ready_round => {
                let (frame, ready_round) = self.stash.take().expect("stash checked above");
                // The buffered frame still has to cross the link; if the
                // hop itself fails, keep buffering and retry next poll.
                match self.inner.upload(&frame) {
                    Ok(bytes) => Some(bytes),
                    Err(_) => {
                        self.stash = Some((frame, ready_round));
                        None
                    }
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ModelUpdate;

    #[test]
    fn plans_are_seed_deterministic() {
        let cfg = FaultConfig::chaos();
        let a = FaultPlan::generate(&cfg, 8, 50, 7);
        let b = FaultPlan::generate(&cfg, 8, 50, 7);
        let c = FaultPlan::generate(&cfg, 8, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ at chaos rates");
    }

    #[test]
    fn zero_probability_plan_is_empty() {
        let plan = FaultPlan::generate(&FaultConfig::none(), 8, 100, 3);
        assert!(plan.is_empty());
        assert_eq!(plan.counts(), PlanCounts::default());
    }

    #[test]
    fn chaos_plan_schedules_every_fault_kind() {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 16, 200, 11);
        let counts = plan.counts();
        assert!(counts.upload_drops > 0, "{counts:?}");
        assert!(counts.download_drops > 0, "{counts:?}");
        assert!(counts.straggles > 0, "{counts:?}");
        assert!(counts.corruptions > 0, "{counts:?}");
        assert!(counts.crashes > 0, "{counts:?}");
        assert!(counts.crash_rounds >= counts.crashes as u64);
    }

    #[test]
    fn crash_outages_occupy_their_cells_exclusively() {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 16, 200, 5);
        for (client, round, fault) in plan.iter() {
            if let Fault::Crash { down_rounds } = fault {
                for later in round + 1..round + down_rounds {
                    assert_eq!(
                        plan.fault_at(client, later),
                        None,
                        "client {client} has a fault inside its outage"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let cfg = FaultConfig::lossy_network();
        let plan = FaultPlan::generate(&cfg, 10, 1000, 13);
        let counts = plan.counts();
        let cells = 10.0 * 1000.0;
        let drop_rate = counts.upload_drops as f64 / cells;
        assert!(
            (drop_rate - cfg.p_upload_drop).abs() < 0.03,
            "upload-drop rate {drop_rate} far from {}",
            cfg.p_upload_drop
        );
    }

    #[test]
    fn scenario_names_round_trip() {
        for scenario in FaultScenario::ALL {
            assert_eq!(FaultScenario::parse(scenario.name()), Some(scenario));
        }
        assert_eq!(FaultScenario::parse("bogus"), None);
        assert!(FaultScenario::None.config().total_probability() == 0.0);
    }

    #[test]
    fn amplify_corruption_scales_parameters() {
        let mut params = vec![1.0, -2.0];
        CorruptionKind::Amplify(-10.0).apply(&mut params);
        assert_eq!(params, vec![-10.0, 20.0]);
    }

    #[test]
    fn poison_plan_corrupts_one_client_every_round() {
        let plan = FaultPlan::poison(4, 10, -10.0);
        assert_eq!(plan.len(), 10);
        for round in 1..=10 {
            assert_eq!(
                plan.fault_at(4, round),
                Some(Fault::Corrupt(CorruptionKind::Amplify(-10.0)))
            );
            assert_eq!(plan.fault_at(0, round), None);
        }
    }

    #[test]
    fn plan_only_applies_to_matching_client_id() {
        let mut plan = FaultPlan::none();
        plan.insert(1, 1, Fault::DownloadDrop);
        let mut unaffected = faulty_link(0, &plan);
        unaffected.begin_round(1);
        assert!(unaffected.broadcast(&[2, 3, 4]).is_ok());
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn overfull_probabilities_panic() {
        let mut cfg = FaultConfig::chaos();
        cfg.p_upload_drop = 0.9;
        let _ = FaultPlan::generate(&cfg, 2, 2, 0);
    }

    use crate::transport::ChannelTransport;

    fn upload_frame(round: u64, client_id: usize) -> Vec<u8> {
        wire::encode_upload(
            round,
            &ModelUpdate {
                client_id,
                params: vec![1.0, 2.0, 3.0],
                num_samples: 10,
            },
        )
    }

    fn faulty_link(client_id: usize, plan: &FaultPlan) -> FaultyTransport<ChannelTransport> {
        FaultyTransport::new(ChannelTransport::connect(client_id), plan)
    }

    #[test]
    fn transport_upload_drop_fails_exactly_attempts_times() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::UploadDrop { attempts: 2 });
        let mut link = faulty_link(0, &plan);
        link.begin_round(1);
        let frame = upload_frame(1, 0);
        assert!(matches!(
            link.upload(&frame),
            Err(FedError::UploadDropped { client_id: 0 })
        ));
        assert!(link.upload(&frame).is_err());
        assert_eq!(link.upload(&frame).unwrap(), frame, "third attempt lands");
        link.begin_round(2);
        assert!(link.upload(&upload_frame(2, 0)).is_ok(), "next round clean");
    }

    #[test]
    fn transport_straggler_buffers_the_frame_in_flight() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Straggle { delay_rounds: 2 });
        let mut link = faulty_link(0, &plan);
        link.begin_round(1);
        let frame = upload_frame(1, 0);
        assert_eq!(
            link.upload(&frame).unwrap_err(),
            FedError::Straggling {
                client_id: 0,
                ready_round: 3
            }
        );
        link.begin_round(2);
        assert_eq!(link.take_stale(), None, "not ready yet");
        link.begin_round(3);
        let delivered = link.take_stale().expect("delay elapsed");
        assert_eq!(delivered, frame, "the round-1 frame surfaces verbatim");
        let (origin, update) = wire::decode_upload(&delivered).unwrap();
        assert_eq!(origin, 1, "origin round rides inside the frame");
        assert_eq!(update.params, vec![1.0, 2.0, 3.0]);
        assert_eq!(link.take_stale(), None, "stash drains once");
    }

    #[test]
    fn transport_corruption_mangles_bytes_but_keeps_the_frame_decodable() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::Corrupt(CorruptionKind::NaN));
        let mut link = faulty_link(0, &plan);
        link.begin_round(1);
        let delivered = link.upload(&upload_frame(1, 0)).unwrap();
        // The frame is re-sealed: the CRC passes, so the rejection must
        // come from server admission, exactly like a glitched-but-framed
        // sensor value would.
        let (_, update) = wire::decode_upload(&delivered).expect("CRC still valid");
        assert!(update.params[0].is_nan());
        assert!(update.params[1..].iter().all(|p| p.is_finite()));
    }

    #[test]
    fn transport_corruption_survives_codec_frames() {
        let update = ModelUpdate {
            client_id: 0,
            params: vec![1.0, 2.0, 3.0],
            num_samples: 10,
        };
        let reference = vec![0.0f32; 3];
        let refs = {
            let mut w = wire::ReferenceWindow::default();
            w.push(0, reference.clone());
            w
        };
        let codecs = [
            wire::Codec::Q8,
            wire::Codec::Q16,
            wire::Codec::TopK { frac: 1.0 },
        ];
        // NaN poisoning re-seals the CRC, so the decode succeeds and it is
        // admission's finite check that must do the rejecting.
        for codec in codecs {
            let mut plan = FaultPlan::none();
            plan.insert(0, 1, Fault::Corrupt(CorruptionKind::NaN));
            let mut link = faulty_link(0, &plan);
            link.begin_round(1);
            let frame = wire::encode_upload_with(codec, 1, &update, Some((0, &reference)));
            let delivered = link.upload(&frame).unwrap();
            let (_, decoded) = wire::decode_upload_with(&delivered, wire::CODEC_VERSION, &refs)
                .expect("CRC still valid");
            assert!(decoded.params.iter().any(|p| p.is_nan()), "{codec}");
        }
        // Amplify scales what the server decodes by exactly the factor,
        // matching the dense corruption semantics.
        for codec in codecs {
            let mut plan = FaultPlan::none();
            plan.insert(0, 1, Fault::Corrupt(CorruptionKind::Amplify(2.0)));
            let mut link = faulty_link(0, &plan);
            link.begin_round(1);
            let frame = wire::encode_upload_with(codec, 1, &update, Some((0, &reference)));
            let delivered = link.upload(&frame).unwrap();
            let (_, mangled) =
                wire::decode_upload_with(&delivered, wire::CODEC_VERSION, &refs).unwrap();
            let (_, clean) = wire::decode_upload_with(&frame, wire::CODEC_VERSION, &refs).unwrap();
            for (c, m) in clean.params.iter().zip(&mangled.params) {
                assert!((2.0 * c - m).abs() < 1e-4, "{codec}: clean {c} mangled {m}");
            }
        }
    }

    #[test]
    fn transport_crash_takes_the_link_offline_then_rejoins() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 2, Fault::Crash { down_rounds: 2 });
        let mut link = faulty_link(0, &plan);
        link.begin_round(1);
        assert!(link.is_online());
        link.begin_round(2);
        assert!(!link.is_online());
        assert!(matches!(
            link.upload(&upload_frame(2, 0)),
            Err(FedError::ClientOffline { .. })
        ));
        assert!(link.broadcast(&[0u8; 8]).is_err());
        link.begin_round(3);
        assert!(!link.is_online(), "outage lasts two rounds");
        link.begin_round(4);
        assert!(link.is_online(), "rejoined");
        assert!(link.broadcast(&upload_frame(4, 0)).is_ok());
    }

    #[test]
    fn transport_download_drop_swallows_the_broadcast() {
        let mut plan = FaultPlan::none();
        plan.insert(0, 1, Fault::DownloadDrop);
        let mut link = faulty_link(0, &plan);
        link.begin_round(1);
        assert!(matches!(
            link.broadcast(&[1, 2, 3]),
            Err(FedError::DownloadDropped { client_id: 0 })
        ));
        link.begin_round(2);
        assert!(link.broadcast(&[1, 2, 3]).is_ok());
    }

    #[test]
    fn empty_plan_transport_is_transparent() {
        let mut link = faulty_link(3, &FaultPlan::none());
        assert_eq!(link.client_id(), 3);
        for round in 1..=5 {
            link.begin_round(round);
            let frame = upload_frame(round, 3);
            assert_eq!(link.upload(&frame).unwrap(), frame);
            assert_eq!(link.broadcast(&frame).unwrap(), frame);
            assert_eq!(link.take_stale(), None);
        }
        assert_eq!(link.into_inner().client_id(), 3);
    }
}
