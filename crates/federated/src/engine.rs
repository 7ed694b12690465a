//! The sans-I/O round engine: every *protocol decision* of a federated
//! round — admission, staleness weighting, quorum, commit, reference
//! tracking — as a frame-in/telemetry-out state machine with no I/O, no
//! clock, and no client objects.
//!
//! [`RoundEngine::handle`] consumes one [`Frame`] (something that
//! happened: an upload arrived, a broadcast was delivered, the round
//! closed) and records the telemetry events and counters it implies
//! straight into the caller's [`Recorder`]; the round's client drift is
//! read back through [`RoundEngine::divergence`]. Drivers own everything
//! physical: training, transport links, retries, RNG, wall-clock spans,
//! thread pools. Three drivers share the engine:
//!
//! * [`crate::Federation`] — the in-process flat loop (frames derived
//!   from owned clients and per-client links);
//! * [`crate::Fleet`] — the sharded loop (edge partials merged in via
//!   [`Frame::MergePartial`]);
//! * the standalone `fedpower-server` binary — one engine thread fed
//!   real socket frames by a blocking reader thread per connection, with
//!   [`RoundEngine::tick`] closing out clients that miss the round
//!   deadline.
//!
//! The engine is *proven bit-identical* to the pre-engine drivers:
//! `tests/engine_identity.rs` pins the CRC32 of the canonical telemetry
//! stream + report fields + committed global bits under seeded chaos
//! faults against goldens captured before the refactor.
//!
//! Clients are addressed by *slot* (dense index `0..n`); the engine maps
//! slots to the telemetry ids supplied at construction, so drivers whose
//! client ids are not dense still emit the right stream.

use crate::client::ModelUpdate;
use crate::error::FedError;
use crate::federation::FedAvgConfig;
use crate::server::{
    AggregationServer, AggregationStrategy, RoundAccumulator, ServerOpt, ServerOptKind,
};
use crate::wire;
use fedpower_telemetry::{Counter, Event, EventKind, Recorder};
use std::collections::BTreeSet;

/// Per-round decay applied to straggler updates: an update arriving `a`
/// rounds late is admitted at weight `STALENESS_DECAY^a` relative to
/// fresh ones.
pub const STALENESS_DECAY: f32 = 0.5;

/// Retries a driver grants a client whose upload was dropped in transit
/// before abandoning it for the round.
pub const MAX_UPLOAD_RETRIES: u64 = 2;

/// The protocol-level configuration a [`RoundEngine`] enforces — the
/// subset of [`FedAvgConfig`] that belongs to the server side of the
/// wire, plus the netserver's deadline knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnginePolicy {
    /// How admitted updates combine.
    pub strategy: AggregationStrategy,
    /// FedAvgM server momentum β.
    pub server_momentum: f32,
    /// The commit stage.
    pub optimizer: ServerOpt,
    /// Fewest admitted updates required to commit a round.
    pub min_quorum: usize,
    /// Upload codec (drives stale-update byte accounting and the
    /// reference-window bookkeeping).
    pub codec: wire::Codec,
    /// Deadline budget in [`RoundEngine::tick`] calls: `Some(n)` arms a
    /// per-round deadline of `n` ticks after which clients that have not
    /// resolved their upload are marked offline for the round. `None`
    /// (the in-process drivers) disables deadline tracking entirely.
    pub deadline_ticks: Option<u32>,
}

impl EnginePolicy {
    /// The engine policy a [`FedAvgConfig`] implies (no deadline — the
    /// in-process drivers resolve every client synchronously).
    pub fn from_config(cfg: &FedAvgConfig) -> Self {
        EnginePolicy {
            strategy: cfg.strategy,
            server_momentum: cfg.server_momentum,
            optimizer: cfg.optimizer,
            min_quorum: cfg.min_quorum,
            codec: cfg.codec,
            deadline_ticks: None,
        }
    }

    /// Checks every engine-side rule: a top-k fraction in (0, 1], and the
    /// commit stage (the [`ServerOpt`] ranges, server momentum in
    /// [0, 1), no momentum under FedAdam).
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] naming the first rule broken.
    pub fn validate(&self) -> Result<(), FedError> {
        if let wire::Codec::TopK { frac } = self.codec {
            if !(frac > 0.0 && frac <= 1.0) {
                return Err(FedError::InvalidConfig(format!(
                    "topk fraction must be in (0, 1], got {frac}"
                )));
            }
        }
        self.optimizer
            .validate_with_momentum(self.server_momentum)
            .map_err(FedError::InvalidConfig)
    }
}

/// One observed occurrence, fed into [`RoundEngine::handle`]. Frames
/// carry *facts* (bytes arrived, a broadcast landed); the engine decides
/// what they mean (admitted, rejected, stale-discounted).
///
/// `client` fields are slots (dense indices), not telemetry ids.
#[derive(Debug)]
pub enum Frame {
    /// A client completed the join handshake and holds the current
    /// global model; `frame_len` is the join-ack frame's encoded length.
    Join {
        /// Slot of the joining client.
        client: usize,
        /// Encoded join-ack frame length, for byte accounting.
        frame_len: usize,
    },
    /// A new round opens (the driver has selected participants).
    BeginRound,
    /// A participant was unreachable (client or link offline, or it went
    /// offline mid-round).
    Offline {
        /// Slot of the offline client.
        client: usize,
    },
    /// A participant finished local training.
    Trained {
        /// Slot of the trained client.
        client: usize,
    },
    /// A participant's local training panicked; it is excluded from the
    /// round's upload phase.
    TrainPanicked {
        /// Slot of the panicked client.
        client: usize,
    },
    /// One upload retry was spent (client-side refusal or in-flight
    /// drop — the budget is the driver's).
    UploadRetry {
        /// Slot of the retrying client.
        client: usize,
    },
    /// An upload frame arrived. `sent_len` is the length the client put
    /// on the wire (what byte accounting records); `bytes` is what the
    /// server received (what admission decodes — faults may have
    /// corrupted it in flight).
    Upload {
        /// Slot of the uploading client.
        client: usize,
        /// Encoded frame length as sent.
        sent_len: usize,
        /// Frame bytes as received.
        bytes: Vec<u8>,
    },
    /// An upload was abandoned after exhausting its retry budget.
    UploadDropped {
        /// Slot of the dropped client.
        client: usize,
    },
    /// A client started straggling; its update will surface in a later
    /// round.
    StragglerStarted {
        /// Slot of the straggling client.
        client: usize,
    },
    /// A straggler's decoded update surfaced (client-layer stashes and
    /// the fleet's root stash hand over decoded updates).
    StaleUpdate {
        /// Slot of the straggler.
        client: usize,
        /// Round the update was trained in.
        origin_round: u64,
        /// The late update.
        update: ModelUpdate,
    },
    /// A straggler's buffered *frame* surfaced (transport-layer stashes
    /// hand over raw bytes; the origin round is decoded from the frame).
    StaleBytes {
        /// Slot of the straggler.
        client: usize,
        /// The buffered upload frame.
        bytes: Vec<u8>,
    },
    /// A shard-local partial accumulator merges into the round (the
    /// fleet topology's edge aggregators).
    MergePartial {
        /// The shard's reduced partial.
        partial: RoundAccumulator,
    },
    /// The upload phase is over: compute divergence, check quorum,
    /// commit (or skip), and advance the reference window.
    CloseRound,
    /// A broadcast frame was delivered and installed; the client now
    /// holds this round's global (its next top-k reference).
    Delivered {
        /// Slot of the receiving client.
        client: usize,
        /// Encoded broadcast frame length, for byte accounting.
        frame_len: usize,
    },
    /// A broadcast arrived intact but did not fit the client's
    /// architecture — an admission failure, not a network one.
    DownloadRejected {
        /// Slot of the rejecting client.
        client: usize,
    },
    /// A broadcast was lost in flight; the client keeps its stale model.
    DownloadDropped {
        /// Slot of the client that missed the broadcast.
        client: usize,
    },
    /// The round is fully over; bookkeeping advances.
    EndRound,
}

/// The sans-I/O federated round state machine. See the module docs.
#[derive(Debug)]
pub struct RoundEngine {
    policy: EnginePolicy,
    server: AggregationServer,
    /// Recently broadcast globals, keyed by round — the references
    /// top-k sparse uploads are reconstructed against at admission.
    reference: wire::ReferenceWindow,
    /// Slot → telemetry id.
    client_ids: Vec<usize>,
    /// Per slot: the round of the last global the client actually
    /// installed (its top-k encoding reference); `None` until it joins.
    client_refs: Vec<Option<u64>>,
    /// The open round's accumulator (`None` between rounds).
    acc: Option<RoundAccumulator>,
    rounds_run: u64,
    /// Joined clients that have not yet resolved their upload this round
    /// (deadline tracking; maintained only when the policy arms one).
    pending: BTreeSet<usize>,
    /// Remaining deadline ticks for the open round.
    deadline: Option<u32>,
    /// Client drift of the last closed round.
    divergence: f32,
}

impl RoundEngine {
    /// Creates an engine over `client_ids.len()` slots with initial
    /// global model θ₁. Every driver builds its engine here, so this is
    /// where a federation configuration is checked.
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] when `initial` is empty or the policy
    /// fails [`EnginePolicy::validate`].
    pub fn new(
        initial: Vec<f32>,
        policy: EnginePolicy,
        client_ids: Vec<usize>,
    ) -> Result<Self, FedError> {
        if initial.is_empty() {
            return Err(FedError::InvalidConfig(
                "the initial global model θ₁ cannot be empty".to_string(),
            ));
        }
        policy.validate()?;
        let server = AggregationServer::with_optimizer(
            initial,
            policy.strategy,
            policy.server_momentum,
            policy.optimizer,
        );
        let n = client_ids.len();
        let mut engine = RoundEngine {
            policy,
            server,
            reference: wire::ReferenceWindow::default(),
            client_ids,
            client_refs: vec![None; n],
            acc: None,
            rounds_run: 0,
            pending: BTreeSet::new(),
            deadline: None,
            divergence: 0.0,
        };
        // The join handshake is round 0: its θ₁ is the first top-k
        // reference.
        engine.reference.push(0, engine.server.global().to_vec());
        Ok(engine)
    }

    /// The engine's policy.
    pub fn policy(&self) -> &EnginePolicy {
        &self.policy
    }

    /// The current global model parameters θ.
    pub fn global(&self) -> &[f32] {
        self.server.global()
    }

    /// Which commit stage the server runs.
    pub fn optimizer_kind(&self) -> ServerOptKind {
        self.server.optimizer_kind()
    }

    /// Rounds completed so far (incremented at [`Frame::EndRound`]).
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Client drift of the last closed round (the root-mean-square L2
    /// distance of its admitted models from their mean; see
    /// [`crate::report::RoundReport::client_divergence`]). Set by
    /// [`Frame::CloseRound`]; 0 before the first close.
    pub fn divergence(&self) -> f32 {
        self.divergence
    }

    /// Rounds that actually committed (aggregated) so far.
    pub fn rounds_committed(&self) -> u64 {
        self.server.rounds_completed()
    }

    /// The round currently open, or `None` between rounds.
    pub fn open_round(&self) -> Option<u64> {
        self.acc.as_ref().map(|_| self.rounds_run + 1)
    }

    /// Updates admitted into the open round so far.
    pub fn admitted(&self) -> usize {
        self.acc.as_ref().map_or(0, RoundAccumulator::admitted)
    }

    /// Whether `slot` has completed the join handshake (and not left).
    pub fn joined(&self, slot: usize) -> bool {
        self.client_refs.get(slot).is_some_and(Option::is_some)
    }

    /// Total client slots this engine was configured with (joined or not).
    pub fn client_count(&self) -> usize {
        self.client_refs.len()
    }

    /// Joined clients whose upload is still unresolved this round
    /// (meaningful only under an armed deadline policy).
    pub fn pending_uploads(&self) -> usize {
        self.pending.len()
    }

    /// Whether `slot`'s upload is still unresolved this round (meaningful
    /// only under an armed deadline policy).
    pub fn upload_pending(&self, slot: usize) -> bool {
        self.pending.contains(&slot)
    }

    /// The `(round, params)` reference `slot`'s next sparse upload
    /// should encode against, if the window still holds it.
    pub fn upload_reference(&self, slot: usize) -> Option<(u64, &[f32])> {
        self.client_refs
            .get(slot)
            .copied()
            .flatten()
            .and_then(|r| self.reference.get(r).map(|params| (r, params)))
    }

    /// Marks `slot` as departed (connection closed): it must re-join
    /// before the engine will track it again. Round accounting for an
    /// in-round departure is the driver's call ([`Frame::Offline`]).
    pub fn leave(&mut self, slot: usize) {
        if let Some(r) = self.client_refs.get_mut(slot) {
            *r = None;
        }
        self.pending.remove(&slot);
    }

    /// Snapshots everything a restarted server needs to continue
    /// bit-identically: round counters, θ, the top-k reference window,
    /// per-slot references, and the commit stage's cross-round state
    /// (serialized into the checkpoint's opaque optimizer blob).
    ///
    /// Call between rounds only — an open round's accumulator is
    /// deliberately not captured; the round-boundary protocol replays an
    /// interrupted round from its start instead.
    pub fn checkpoint(&self) -> wire::checkpoint::Checkpoint {
        debug_assert!(
            self.acc.is_none(),
            "checkpoints are taken at round boundaries"
        );
        wire::checkpoint::Checkpoint {
            rounds_run: self.rounds_run,
            rounds_committed: self.server.rounds_completed(),
            global: self.server.global().to_vec(),
            reference: self
                .reference
                .rounds()
                .map(|r| {
                    let params = self
                        .reference
                        .get(r)
                        .expect("rounds() yields held entries")
                        .to_vec();
                    (r, params)
                })
                .collect(),
            client_refs: self.client_refs.clone(),
            optimizer: self.server.snapshot_opt_state(),
        }
    }

    /// Restores an engine to the state [`RoundEngine::checkpoint`]
    /// captured. The engine must have been constructed from the *same
    /// configuration* (policy, model shape, slot count) as the one that
    /// wrote the checkpoint — only mutated state is restored. Any open
    /// round is discarded; clients re-join after a restore.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the checkpoint's model
    /// shape, slot count, or optimizer blob disagree with this engine's
    /// configuration. The engine is unchanged on error.
    pub fn restore(&mut self, ck: wire::checkpoint::Checkpoint) -> Result<(), FedError> {
        if ck.global.len() != self.server.global().len() {
            return Err(FedError::InvalidConfig(format!(
                "checkpoint global has {} parameters, engine model has {}",
                ck.global.len(),
                self.server.global().len()
            )));
        }
        if ck.client_refs.len() != self.client_refs.len() {
            return Err(FedError::InvalidConfig(format!(
                "checkpoint has {} client slots, engine has {}",
                ck.client_refs.len(),
                self.client_refs.len()
            )));
        }
        self.server.restore_opt_state(&ck.optimizer)?;
        self.server.restore_global(ck.global);
        let mut reference = wire::ReferenceWindow::default();
        for (round, params) in ck.reference {
            reference.push(round, params);
        }
        self.rounds_run = ck.rounds_run;
        self.reference = reference;
        // Checkpoint slot references describe the pre-restart
        // connections; every client re-joins after a restart, so the
        // restored engine starts with no one admitted.
        self.client_refs = vec![None; ck.client_refs.len()];
        self.acc = None;
        self.pending.clear();
        self.deadline = None;
        Ok(())
    }

    /// The telemetry id of `slot`.
    fn id(&self, slot: usize) -> usize {
        self.client_ids[slot]
    }

    /// Resolves `slot`'s upload for deadline purposes.
    fn resolve(&mut self, slot: usize) {
        self.pending.remove(&slot);
    }

    /// Consumes one frame, recording the events and counters it implies
    /// into `out` in the exact order the pre-engine drivers emitted them.
    pub fn handle(&mut self, frame: Frame, out: &mut dyn Recorder) {
        let round = self.rounds_run + 1;
        match frame {
            Frame::Join { client, frame_len } => {
                // A (re)joining client installs the last broadcast
                // global, so its reference is the last completed round.
                self.client_refs[client] = Some(self.rounds_run);
                out.event(Event::with_bytes(
                    EventKind::DownloadDelivered,
                    self.rounds_run,
                    self.id(client),
                    frame_len,
                ));
            }
            Frame::BeginRound => {
                self.acc = Some(self.server.accumulator());
                if let Some(ticks) = self.policy.deadline_ticks {
                    self.deadline = Some(ticks);
                    self.pending = (0..self.client_refs.len())
                        .filter(|&s| self.client_refs[s].is_some())
                        .collect();
                }
                out.event(Event::round_scoped(EventKind::RoundStart, round));
                out.counter(Counter::new(
                    "optimizer",
                    round,
                    None,
                    self.policy.optimizer.kind().code(),
                ));
            }
            Frame::Offline { client } => {
                self.resolve(client);
                self.client_event(out, EventKind::ClientOffline, client);
            }
            Frame::Trained { client } => self.client_event(out, EventKind::ClientTrained, client),
            Frame::TrainPanicked { client } => {
                self.resolve(client);
                self.client_event(out, EventKind::TrainPanic, client);
            }
            Frame::UploadRetry { client } => self.client_event(out, EventKind::UploadRetry, client),
            Frame::Upload {
                client,
                sent_len,
                bytes,
            } => {
                self.resolve(client);
                let id = self.id(client);
                out.event(Event::with_bytes(
                    EventKind::UploadReceived,
                    round,
                    id,
                    sent_len,
                ));
                // Codec frames are decoded back to dense before
                // admission, so the accumulator (and every optimizer or
                // robust combiner behind it) is codec-agnostic;
                // version-negotiation and missing-reference failures
                // land in the rejected branch.
                let acc = self.acc.as_mut().expect("a round is open");
                let admitted =
                    match wire::decode_upload_with(&bytes, wire::CODEC_VERSION, &self.reference) {
                        Ok((_, received)) => acc.admit(received, 1.0).is_ok(),
                        Err(_) => false,
                    };
                let kind = if admitted {
                    EventKind::UploadAdmitted
                } else {
                    EventKind::UpdateRejected
                };
                out.event(Event::client_scoped(kind, round, id));
            }
            Frame::UploadDropped { client } => {
                self.resolve(client);
                self.client_event(out, EventKind::UploadDropped, client);
            }
            Frame::StragglerStarted { client } => {
                self.resolve(client);
                self.client_event(out, EventKind::StragglerStarted, client);
            }
            Frame::StaleUpdate {
                client,
                origin_round,
                update,
            } => {
                let frame_len = self.policy.codec.upload_frame_len(update.params.len());
                out.event(Event::with_bytes(
                    EventKind::StaleReceived,
                    round,
                    self.id(client),
                    frame_len,
                ));
                self.admit_stale(client, Ok((origin_round, update)), out);
            }
            Frame::StaleBytes { client, bytes } => {
                out.event(Event::with_bytes(
                    EventKind::StaleReceived,
                    round,
                    self.id(client),
                    bytes.len(),
                ));
                let decoded =
                    wire::decode_upload_with(&bytes, wire::CODEC_VERSION, &self.reference);
                self.admit_stale(client, decoded, out);
            }
            Frame::MergePartial { partial } => {
                self.acc
                    .as_mut()
                    .expect("a round is open")
                    .merge(partial)
                    .expect("shard accumulators share the root's strategy and shape");
            }
            Frame::CloseRound => {
                let acc = self.acc.take().expect("a round is open");
                self.deadline = None;
                self.pending.clear();
                self.divergence = acc.divergence();
                let quorum_met = acc.admitted() >= self.policy.min_quorum.max(1);
                let committed = quorum_met && self.server.commit_round(acc).is_ok();
                // Whatever goes out this round — committed or unchanged
                // θ — is the reference the next round's top-k deltas
                // encode against.
                self.reference.push(round, self.server.global().to_vec());
                let kind = if committed {
                    EventKind::Aggregated
                } else {
                    EventKind::QuorumSkipped
                };
                out.event(Event::round_scoped(kind, round));
            }
            Frame::Delivered { client, frame_len } => {
                self.client_refs[client] = Some(round);
                out.event(Event::with_bytes(
                    EventKind::DownloadDelivered,
                    round,
                    self.id(client),
                    frame_len,
                ));
            }
            Frame::DownloadRejected { client } => {
                self.client_event(out, EventKind::UpdateRejected, client);
            }
            Frame::DownloadDropped { client } => {
                self.client_event(out, EventKind::DownloadDropped, client);
            }
            Frame::EndRound => {
                self.rounds_run += 1;
                out.event(Event::round_scoped(EventKind::RoundEnd, round));
            }
        }
    }

    /// One deadline interval elapsed. Once the armed budget is spent,
    /// records every still-pending client as offline; records nothing
    /// otherwise (including when no deadline is armed).
    pub fn tick(&mut self, out: &mut dyn Recorder) {
        let Some(remaining) = self.deadline else {
            return;
        };
        if remaining > 1 {
            self.deadline = Some(remaining - 1);
            return;
        }
        self.deadline = None;
        for slot in std::mem::take(&mut self.pending) {
            self.client_event(out, EventKind::ClientOffline, slot);
        }
    }

    /// Records a byte-free `kind` event about `slot` in the open round.
    fn client_event(&self, out: &mut dyn Recorder, kind: EventKind, slot: usize) {
        out.event(Event::client_scoped(
            kind,
            self.rounds_run + 1,
            self.id(slot),
        ));
    }

    /// The shared tail of stale admission, after the receive accounting:
    /// ageing, staleness-discounted admit, applied/rejected verdict. A
    /// frame that failed to decode is rejected.
    fn admit_stale(
        &mut self,
        client: usize,
        decoded: Result<(u64, ModelUpdate), FedError>,
        out: &mut dyn Recorder,
    ) {
        let round = self.rounds_run + 1;
        let id = self.id(client);
        let acc = self.acc.as_mut().expect("a round is open");
        let applied = match decoded {
            Ok((origin_round, update)) => {
                let age = round.saturating_sub(origin_round).max(1);
                let weight = STALENESS_DECAY.powi(age as i32);
                let ok = acc.admit(update, weight).is_ok();
                if ok {
                    out.counter(Counter::new("stale_age", round, Some(id), age));
                }
                ok
            }
            Err(_) => false,
        };
        let kind = if applied {
            EventKind::StaleApplied
        } else {
            EventKind::UpdateRejected
        };
        out.event(Event::client_scoped(kind, round, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ModelUpdate;
    use crate::wire;
    use fedpower_telemetry::{MemoryRecorder, NullRecorder};

    fn engine(n: usize) -> RoundEngine {
        let policy = EnginePolicy::from_config(&FedAvgConfig::paper());
        RoundEngine::new(vec![0.0; 4], policy, (0..n).collect()).expect("valid policy")
    }

    fn upload_frame(round: u64, id: usize, params: Vec<f32>) -> Vec<u8> {
        wire::encode_upload(
            round,
            &ModelUpdate {
                client_id: id,
                params,
                num_samples: 10,
            },
        )
    }

    /// Feeds `frame`, returning what the engine recorded.
    fn feed(eng: &mut RoundEngine, frame: Frame) -> MemoryRecorder {
        let mut rec = MemoryRecorder::new();
        eng.handle(frame, &mut rec);
        rec
    }

    fn kinds(rec: &MemoryRecorder) -> Vec<EventKind> {
        rec.events().iter().map(|e| e.kind).collect()
    }

    fn join(eng: &mut RoundEngine, slot: usize) -> MemoryRecorder {
        feed(
            eng,
            Frame::Join {
                client: slot,
                frame_len: 60,
            },
        )
    }

    fn upload(eng: &mut RoundEngine, slot: usize, bytes: Vec<u8>) -> MemoryRecorder {
        feed(
            eng,
            Frame::Upload {
                client: slot,
                sent_len: bytes.len(),
                bytes,
            },
        )
    }

    #[test]
    fn a_full_round_commits_the_mean() {
        let mut eng = engine(2);
        for slot in 0..2 {
            join(&mut eng, slot);
        }
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        for (slot, value) in [(0, 1.0_f32), (1, 3.0)] {
            let rec = upload(&mut eng, slot, upload_frame(1, slot, vec![value; 4]));
            assert_eq!(
                kinds(&rec),
                [EventKind::UploadReceived, EventKind::UploadAdmitted]
            );
        }
        let rec = feed(&mut eng, Frame::CloseRound);
        assert_eq!(kinds(&rec), [EventKind::Aggregated]);
        eng.handle(Frame::EndRound, &mut NullRecorder);
        assert_eq!(eng.global(), &[2.0; 4]);
        assert_eq!(eng.rounds_run(), 1);
        // Two models at 1 and 3 sit 1 away from their mean in each of 4
        // coordinates: an L2 distance of 2 each.
        assert!((eng.divergence() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_admitted() {
        let mut eng = engine(1);
        join(&mut eng, 0);
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        let mut bytes = upload_frame(1, 0, vec![1.0; 4]);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let rec = upload(&mut eng, 0, bytes);
        assert_eq!(
            kinds(&rec),
            [EventKind::UploadReceived, EventKind::UpdateRejected]
        );
        let rec = feed(&mut eng, Frame::CloseRound);
        assert_eq!(kinds(&rec), [EventKind::QuorumSkipped]);
    }

    #[test]
    fn unmet_quorum_skips_and_keeps_theta() {
        let policy = EnginePolicy {
            min_quorum: 2,
            ..EnginePolicy::from_config(&FedAvgConfig::paper())
        };
        let mut eng = RoundEngine::new(vec![0.5; 4], policy, vec![0]).expect("valid policy");
        join(&mut eng, 0);
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        upload(&mut eng, 0, upload_frame(1, 0, vec![9.0; 4]));
        let rec = feed(&mut eng, Frame::CloseRound);
        assert_eq!(kinds(&rec), [EventKind::QuorumSkipped]);
        assert_eq!(eng.global(), &[0.5; 4]);
    }

    #[test]
    fn stale_updates_are_discounted_and_counted() {
        let stale = |eng: &mut RoundEngine, value: f32| {
            let rec = feed(
                eng,
                Frame::StaleUpdate {
                    client: 1,
                    origin_round: 1,
                    update: ModelUpdate {
                        client_id: 1,
                        params: vec![value; 4],
                        num_samples: 10,
                    },
                },
            );
            assert_eq!(
                kinds(&rec),
                [EventKind::StaleReceived, EventKind::StaleApplied]
            );
            rec.counters()
                .iter()
                .find(|c| c.name == "stale_age")
                .map(|c| c.value)
        };
        let mut eng = engine(2);
        join(&mut eng, 0);
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        eng.handle(Frame::EndRound, &mut NullRecorder);
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        assert_eq!(stale(&mut eng, 2.0), Some(1));
        eng.handle(Frame::CloseRound, &mut NullRecorder);
        eng.handle(Frame::EndRound, &mut NullRecorder);
        assert_eq!(eng.global(), &[2.0; 4], "a lone stale update is the mean");

        // Round 3: a fresh 1.0 beside the round-1 update 11.0, two rounds
        // late and so weighted STALENESS_DECAY²: (1 + 0.25·11) / 1.25 = 3.
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        upload(&mut eng, 0, upload_frame(3, 0, vec![1.0; 4]));
        assert_eq!(stale(&mut eng, 11.0), Some(2));
        eng.handle(Frame::CloseRound, &mut NullRecorder);
        let w = STALENESS_DECAY.powi(2);
        let expected = (1.0 + w * 11.0) / (1.0 + w);
        for &p in eng.global() {
            assert!((p - expected).abs() < 1e-6, "age-2 weight: got {p}");
        }
    }

    #[test]
    fn deadline_tick_marks_pending_clients_offline() {
        let policy = EnginePolicy {
            deadline_ticks: Some(2),
            ..EnginePolicy::from_config(&FedAvgConfig::paper())
        };
        let mut eng = RoundEngine::new(vec![0.0; 4], policy, vec![0, 1]).expect("valid policy");
        for slot in 0..2 {
            join(&mut eng, slot);
        }
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        upload(&mut eng, 0, upload_frame(1, 0, vec![1.0; 4]));
        assert_eq!(eng.pending_uploads(), 1);
        let tick = |eng: &mut RoundEngine| {
            let mut rec = MemoryRecorder::new();
            eng.tick(&mut rec);
            rec
        };
        assert!(tick(&mut eng).is_empty(), "first tick only decrements");
        assert_eq!(kinds(&tick(&mut eng)), [EventKind::ClientOffline]);
        assert_eq!(eng.pending_uploads(), 0);
        assert!(tick(&mut eng).is_empty(), "deadline disarms after expiry");
    }

    #[test]
    fn rejoin_after_leave_references_the_latest_round() {
        let mut eng = engine(1);
        join(&mut eng, 0);
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        upload(&mut eng, 0, upload_frame(1, 0, vec![1.0; 4]));
        eng.handle(Frame::CloseRound, &mut NullRecorder);
        eng.handle(
            Frame::Delivered {
                client: 0,
                frame_len: 60,
            },
            &mut NullRecorder,
        );
        eng.handle(Frame::EndRound, &mut NullRecorder);
        eng.leave(0);
        assert!(!eng.joined(0));
        let rec = join(&mut eng, 0);
        assert_eq!(rec.events()[0].round, 1, "rejoin references round 1");
        assert_eq!(eng.upload_reference(0).map(|(r, _)| r), Some(1));
    }

    /// Runs one committed round with both slots participating.
    fn run_round(eng: &mut RoundEngine, value: f32) {
        let round = eng.rounds_run() + 1;
        eng.handle(Frame::BeginRound, &mut NullRecorder);
        for slot in 0..2 {
            upload(
                eng,
                slot,
                upload_frame(round, slot, vec![value + slot as f32; 4]),
            );
        }
        eng.handle(Frame::CloseRound, &mut NullRecorder);
        for slot in 0..2 {
            eng.handle(
                Frame::Delivered {
                    client: slot,
                    frame_len: 60,
                },
                &mut NullRecorder,
            );
        }
        eng.handle(Frame::EndRound, &mut NullRecorder);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let mut live = engine(2);
        for slot in 0..2 {
            join(&mut live, slot);
        }
        run_round(&mut live, 1.0);
        run_round(&mut live, 2.5);
        let ck = live.checkpoint();
        assert_eq!(ck.rounds_run, 2);
        assert_eq!(ck.rounds_committed, 2);

        // A restarted server: same configuration, fresh engine, restore,
        // clients re-join, then one more round on each side.
        let mut restored = engine(2);
        restored
            .restore(ck.clone())
            .expect("a matching checkpoint restores");
        assert_eq!(restored.rounds_run(), 2);
        assert_eq!(restored.rounds_committed(), 2);
        assert!(!restored.joined(0), "clients re-join after a restart");
        for slot in 0..2 {
            join(&mut restored, slot);
        }
        assert_eq!(
            restored.upload_reference(0).map(|(r, _)| r),
            Some(2),
            "rejoin references the checkpointed round"
        );
        run_round(&mut live, -0.75);
        run_round(&mut restored, -0.75);
        let a: Vec<u32> = live.global().iter().map(|p| p.to_bits()).collect();
        let b: Vec<u32> = restored.global().iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b, "post-restore rounds must be bit-identical");
    }

    #[test]
    fn checkpoint_survives_the_wire_format() {
        let mut eng = engine(2);
        for slot in 0..2 {
            join(&mut eng, slot);
        }
        run_round(&mut eng, 3.0);
        let ck = eng.checkpoint();
        let decoded = wire::checkpoint::Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck, "engine checkpoints encode losslessly");
    }

    #[test]
    fn restore_rejects_a_mismatched_checkpoint() {
        let mut small = engine(1);
        let ck = engine(2).checkpoint();
        assert!(matches!(small.restore(ck), Err(FedError::InvalidConfig(_))));
    }
}
