//! The federation's unified reporting surface.
//!
//! One [`RoundReport`] per round owns the full picture: fault/disposition
//! counters, a per-round [`TransportStats`] delta, and the wall-clock
//! [`PhaseTimings`] split; [`FaultSummary`] tallies a whole run. All of
//! them are *deterministic reductions over the telemetry event stream*:
//! the federation emits one [`Event`] per occurrence and the structs are
//! updated exclusively through [`RoundReport::apply`] /
//! [`TransportStats::apply`] — during a run, only from the in-process
//! drivers' telemetry tee — so a [`MemoryRecorder`] capture of the same
//! run reconstructs them exactly ([`TransportStats::from_events`],
//! [`FaultSummary::from_events`]).
//!
//! [`MemoryRecorder`]: fedpower_telemetry::MemoryRecorder

use fedpower_telemetry::{Counter, Event, EventKind, Recorder, Span};
use serde::{Deserialize, Serialize};

/// Wall-clock split of one federated round across its phases, so sweeps
/// can print where the time goes.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Seconds spent in local training (all participants).
    pub train_s: f64,
    /// Seconds spent encoding, transmitting and decoding uploads and
    /// broadcasts (including client-side install).
    pub transport_s: f64,
    /// Seconds spent on staleness handling, admission bookkeeping and
    /// server-side aggregation.
    pub aggregate_s: f64,
}

impl PhaseTimings {
    /// Total measured wall-clock seconds of the round.
    pub fn total_s(&self) -> f64 {
        self.train_s + self.transport_s + self.aggregate_s
    }
}

/// Timings are measurements, not outcomes: two bit-identical runs take
/// different wall-clock times, so all `PhaseTimings` compare equal and
/// exact determinism assertions over [`RoundReport`]s keep holding.
impl PartialEq for PhaseTimings {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Byte-level accounting of server↔device communication.
///
/// The paper reports 2.8 kB per transfer (§IV-C); this counter lets the
/// bench harness verify the reproduction's communication volume. It is a
/// pure reduction over the telemetry stream — see [`TransportStats::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TransportStats {
    /// Total bytes uploaded (clients → server).
    pub uploaded_bytes: u64,
    /// Total bytes downloaded (server → clients).
    pub downloaded_bytes: u64,
    /// Number of uploads that arrived at the server (whether or not they
    /// later passed admission checks).
    pub uploads: u64,
    /// Number of downloads delivered to clients.
    pub downloads: u64,
    /// Retry attempts spent re-sending dropped uploads.
    pub upload_retries: u64,
    /// Uploads abandoned after exhausting the retry budget.
    pub uploads_dropped: u64,
    /// Broadcasts lost in transit (the client kept its stale model).
    pub downloads_dropped: u64,
    /// Arrived uploads rejected by server-side admission (non-finite
    /// values or shape mismatch).
    pub updates_rejected: u64,
}

impl TransportStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TransportStats::default()
    }

    /// Records one client upload of `bytes`.
    pub fn record_upload(&mut self, bytes: usize) {
        self.uploaded_bytes += bytes as u64;
        self.uploads += 1;
    }

    /// Records one client download of `bytes`.
    pub fn record_download(&mut self, bytes: usize) {
        self.downloaded_bytes += bytes as u64;
        self.downloads += 1;
    }

    /// Records a retry attempt spent on a previously dropped upload.
    pub fn record_upload_retry(&mut self) {
        self.upload_retries += 1;
    }

    /// Records an upload abandoned after its retry budget ran out.
    pub fn record_upload_dropped(&mut self) {
        self.uploads_dropped += 1;
    }

    /// Records a broadcast lost in transit.
    pub fn record_download_dropped(&mut self) {
        self.downloads_dropped += 1;
    }

    /// Records an arrived update rejected by server-side admission.
    pub fn record_update_rejected(&mut self) {
        self.updates_rejected += 1;
    }

    /// Total traffic in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uploaded_bytes + self.downloaded_bytes
    }

    /// Mean bytes per transfer (upload or download), if any occurred.
    pub fn mean_transfer_bytes(&self) -> Option<f64> {
        let transfers = self.uploads + self.downloads;
        if transfers == 0 {
            None
        } else {
            Some(self.total_bytes() as f64 / transfers as f64)
        }
    }

    /// Folds one telemetry event into the statistics — the single
    /// source of truth for how events map onto transport counters.
    pub fn apply(&mut self, event: &Event) {
        match event.kind {
            EventKind::UploadReceived | EventKind::StaleReceived => {
                self.record_upload(event.bytes as usize);
            }
            EventKind::DownloadDelivered => self.record_download(event.bytes as usize),
            EventKind::UploadRetry => self.record_upload_retry(),
            EventKind::UploadDropped => self.record_upload_dropped(),
            EventKind::DownloadDropped => self.record_download_dropped(),
            EventKind::UpdateRejected => self.record_update_rejected(),
            _ => {}
        }
    }

    /// Reduces a recorded event stream to the statistics it implies;
    /// equal to the live stats of the run that emitted the stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut stats = TransportStats::new();
        for event in events {
            stats.apply(event);
        }
        stats
    }
}

/// Summary of one federated round, including full fault accounting: every
/// selected client ends the round in exactly one disposition
/// (`uploads_ok`, `updates_rejected`, `uploads_dropped`,
/// `stragglers_started`, `offline`, or `train_panics`), so the counters
/// reconcile against an injected [`crate::FaultPlan`].
///
/// The counters are a reduction over the round's telemetry events (see
/// [`RoundReport::apply`]); `transport` holds the same round's byte-level
/// delta and `timing` its wall-clock phase split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// One-based round number.
    pub round: u64,
    /// Number of clients that completed local training this round.
    pub participants: usize,
    /// Client drift: the root-mean-square L2 distance of the admitted
    /// models from their coordinate-wise mean (computed from streaming
    /// moments, so the server never buffers the models). Large values
    /// signal heterogeneous local objectives — exactly the non-IID-ness
    /// federated averaging must absorb (and the quantity FedProx bounds).
    pub client_divergence: f32,
    /// Fresh updates that arrived and passed admission.
    pub uploads_ok: usize,
    /// Straggler updates from earlier rounds applied (discounted) now.
    pub stale_applied: usize,
    /// Retry transmissions spent on dropped uploads.
    pub upload_retries: u64,
    /// Uploads abandoned after the retry budget ran out.
    pub uploads_dropped: usize,
    /// Broadcasts lost in transit (those clients keep their stale model).
    pub download_drops: usize,
    /// Arrived updates rejected by admission (non-finite or misshapen).
    pub updates_rejected: usize,
    /// Clients that started straggling: trained, but their update arrives
    /// in a later round.
    pub stragglers_started: usize,
    /// Selected clients that were offline (crashed) this round.
    pub offline: usize,
    /// Clients whose local training panicked (excluded for the round).
    pub train_panics: usize,
    /// Whether the round aggregated (false ⇒ quorum unmet, θ unchanged).
    pub aggregated: bool,
    /// Byte-level transport delta of this round alone (the federation's
    /// [`crate::Federation::transport`] accumulates across rounds).
    pub transport: TransportStats,
    /// Wall-clock split of the round (train / transport / aggregate).
    /// Compares equal regardless of values — see [`PhaseTimings`].
    pub timing: PhaseTimings,
}

impl RoundReport {
    /// A zeroed report for round `round`, ready to fold events into.
    pub fn begin(round: u64) -> Self {
        RoundReport {
            round,
            participants: 0,
            client_divergence: 0.0,
            uploads_ok: 0,
            stale_applied: 0,
            upload_retries: 0,
            uploads_dropped: 0,
            download_drops: 0,
            updates_rejected: 0,
            stragglers_started: 0,
            offline: 0,
            train_panics: 0,
            aggregated: false,
            transport: TransportStats::new(),
            timing: PhaseTimings::default(),
        }
    }

    /// Reduces a recorded event stream to the report of round `round`:
    /// events of other rounds are skipped, matching ones fold through
    /// [`RoundReport::apply`]. Equal to the live report of the run that
    /// emitted the stream in every event-derived field —
    /// `client_divergence` (a property of the admitted models, not of the
    /// event stream) and the wall-clock `timing` are the two fields the
    /// stream does not carry.
    pub fn from_events<'a>(round: u64, events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut report = RoundReport::begin(round);
        for event in events {
            if event.round == round {
                report.apply(event);
            }
        }
        report
    }

    /// Folds one telemetry event into the report — the single source of
    /// truth for how the round lifecycle maps onto its counters. Byte
    /// movements are forwarded into the per-round `transport` delta.
    pub fn apply(&mut self, event: &Event) {
        match event.kind {
            EventKind::ClientTrained => self.participants += 1,
            EventKind::TrainPanic => self.train_panics += 1,
            EventKind::ClientOffline => self.offline += 1,
            EventKind::UploadRetry => self.upload_retries += 1,
            EventKind::UploadAdmitted => self.uploads_ok += 1,
            EventKind::UploadDropped => self.uploads_dropped += 1,
            EventKind::StragglerStarted => self.stragglers_started += 1,
            EventKind::StaleApplied => self.stale_applied += 1,
            EventKind::UpdateRejected => self.updates_rejected += 1,
            EventKind::DownloadDropped => self.download_drops += 1,
            EventKind::Aggregated => self.aggregated = true,
            EventKind::QuorumSkipped => self.aggregated = false,
            _ => {}
        }
        self.transport.apply(event);
    }
}

/// The in-process drivers' single telemetry choke point: every event is
/// folded into the open round's report (if any) and the driver's running
/// transport stats, then forwarded to the installed recorder. Counters
/// and spans pass straight through. `Federation` and `Fleet` hand one to
/// every [`crate::RoundEngine`] call and replay shard telemetry through
/// it, which keeps their reports exact reductions of the emitted stream.
#[derive(Debug)]
pub(crate) struct Tee<'a> {
    /// The open round's report; `None` during the join handshake.
    pub(crate) report: Option<&'a mut RoundReport>,
    pub(crate) transport: &'a mut TransportStats,
    pub(crate) recorder: &'a mut dyn Recorder,
}

impl Recorder for Tee<'_> {
    fn event(&mut self, event: Event) {
        if let Some(report) = self.report.as_deref_mut() {
            report.apply(&event);
        }
        self.transport.apply(&event);
        self.recorder.event(event);
    }
    fn counter(&mut self, counter: Counter) {
        self.recorder.counter(counter);
    }
    fn span(&mut self, span: Span) {
        self.recorder.span(span);
    }
    fn flush(&mut self) {
        self.recorder.flush();
    }
}

/// Fault/resilience totals over a whole federated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Rounds executed.
    pub rounds: usize,
    /// Rounds that met quorum and aggregated.
    pub aggregated_rounds: usize,
    /// Fresh updates admitted.
    pub uploads_ok: usize,
    /// Straggler updates applied with discounted weight.
    pub stale_applied: usize,
    /// Retry transmissions spent on dropped uploads.
    pub upload_retries: u64,
    /// Uploads abandoned after exhausting retries.
    pub uploads_dropped: usize,
    /// Broadcasts lost in transit.
    pub download_drops: usize,
    /// Updates rejected by admission.
    pub updates_rejected: usize,
    /// Straggler episodes started.
    pub stragglers_started: usize,
    /// Client-rounds spent offline.
    pub offline: usize,
    /// Local-training panics contained.
    pub train_panics: usize,
}

impl FaultSummary {
    /// Tallies the reports of a run.
    pub fn from_reports(reports: &[RoundReport]) -> Self {
        let mut s = FaultSummary {
            rounds: reports.len(),
            ..FaultSummary::default()
        };
        for r in reports {
            s.aggregated_rounds += r.aggregated as usize;
            s.uploads_ok += r.uploads_ok;
            s.stale_applied += r.stale_applied;
            s.upload_retries += r.upload_retries;
            s.uploads_dropped += r.uploads_dropped;
            s.download_drops += r.download_drops;
            s.updates_rejected += r.updates_rejected;
            s.stragglers_started += r.stragglers_started;
            s.offline += r.offline;
            s.train_panics += r.train_panics;
        }
        s
    }

    /// Reduces a recorded event stream to the run totals it implies;
    /// equal to [`FaultSummary::from_reports`] over the same run.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut s = FaultSummary::default();
        for event in events {
            match event.kind {
                EventKind::RoundStart => s.rounds += 1,
                EventKind::Aggregated => s.aggregated_rounds += 1,
                EventKind::ClientTrained => {}
                EventKind::UploadAdmitted => s.uploads_ok += 1,
                EventKind::StaleApplied => s.stale_applied += 1,
                EventKind::UploadRetry => s.upload_retries += 1,
                EventKind::UploadDropped => s.uploads_dropped += 1,
                EventKind::DownloadDropped => s.download_drops += 1,
                EventKind::UpdateRejected => s.updates_rejected += 1,
                EventKind::StragglerStarted => s.stragglers_started += 1,
                EventKind::ClientOffline => s.offline += 1,
                EventKind::TrainPanic => s.train_panics += 1,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let mut t = TransportStats::new();
        t.record_upload(2800);
        t.record_upload(2800);
        t.record_download(2800);
        assert_eq!(t.uploaded_bytes, 5600);
        assert_eq!(t.downloaded_bytes, 2800);
        assert_eq!(t.uploads, 2);
        assert_eq!(t.downloads, 1);
        assert_eq!(t.total_bytes(), 8400);
        assert_eq!(t.mean_transfer_bytes(), Some(2800.0));
    }

    #[test]
    fn empty_stats_have_no_mean() {
        assert_eq!(TransportStats::new().mean_transfer_bytes(), None);
    }

    #[test]
    fn fault_counters_accumulate_independently_of_byte_counters() {
        let mut t = TransportStats::new();
        t.record_upload_retry();
        t.record_upload_retry();
        t.record_upload_dropped();
        t.record_download_dropped();
        t.record_update_rejected();
        assert_eq!(t.upload_retries, 2);
        assert_eq!(t.uploads_dropped, 1);
        assert_eq!(t.downloads_dropped, 1);
        assert_eq!(t.updates_rejected, 1);
        assert_eq!(t.total_bytes(), 0, "fault events move no bytes");
        assert_eq!(t.uploads, 0);
    }

    #[test]
    fn transport_reduction_matches_record_calls() {
        let events = [
            Event::with_bytes(EventKind::UploadReceived, 1, 0, 60),
            Event::with_bytes(EventKind::StaleReceived, 1, 1, 60),
            Event::with_bytes(EventKind::DownloadDelivered, 1, 0, 76),
            Event::client_scoped(EventKind::UploadRetry, 1, 0),
            Event::client_scoped(EventKind::UploadDropped, 1, 0),
            Event::client_scoped(EventKind::DownloadDropped, 1, 1),
            Event::client_scoped(EventKind::UpdateRejected, 1, 1),
            // Non-transport events must be ignored.
            Event::round_scoped(EventKind::RoundStart, 1),
            Event::client_scoped(EventKind::ClientTrained, 1, 0),
        ];
        let reduced = TransportStats::from_events(&events);
        let mut direct = TransportStats::new();
        direct.record_upload(60);
        direct.record_upload(60);
        direct.record_download(76);
        direct.record_upload_retry();
        direct.record_upload_dropped();
        direct.record_download_dropped();
        direct.record_update_rejected();
        assert_eq!(reduced, direct);
    }

    #[test]
    fn from_events_filters_to_the_requested_round() {
        let events = [
            Event::client_scoped(EventKind::ClientTrained, 1, 0),
            Event::client_scoped(EventKind::ClientTrained, 2, 0),
            Event::client_scoped(EventKind::ClientTrained, 2, 1),
            Event::with_bytes(EventKind::UploadReceived, 2, 0, 60),
            Event::client_scoped(EventKind::UploadAdmitted, 2, 0),
            Event::round_scoped(EventKind::Aggregated, 2),
            Event::round_scoped(EventKind::Aggregated, 1),
        ];
        let r2 = RoundReport::from_events(2, &events);
        assert_eq!(r2.round, 2);
        assert_eq!(r2.participants, 2, "round-1 events must be excluded");
        assert_eq!(r2.uploads_ok, 1);
        assert_eq!(r2.transport.uploaded_bytes, 60);
        assert!(r2.aggregated);
        let r3 = RoundReport::from_events(3, &events);
        assert_eq!(r3, RoundReport::begin(3), "no round-3 events recorded");
    }

    #[test]
    fn round_report_reduction_covers_every_disposition() {
        let mut report = RoundReport::begin(3);
        let events = [
            Event::client_scoped(EventKind::ClientTrained, 3, 0),
            Event::client_scoped(EventKind::ClientTrained, 3, 1),
            Event::client_scoped(EventKind::TrainPanic, 3, 2),
            Event::client_scoped(EventKind::ClientOffline, 3, 3),
            Event::client_scoped(EventKind::UploadRetry, 3, 0),
            Event::with_bytes(EventKind::UploadReceived, 3, 0, 60),
            Event::client_scoped(EventKind::UploadAdmitted, 3, 0),
            Event::client_scoped(EventKind::UploadDropped, 3, 1),
            Event::client_scoped(EventKind::StragglerStarted, 3, 4),
            Event::with_bytes(EventKind::StaleReceived, 3, 5, 60),
            Event::client_scoped(EventKind::StaleApplied, 3, 5),
            Event::client_scoped(EventKind::UpdateRejected, 3, 6),
            Event::with_bytes(EventKind::DownloadDelivered, 3, 0, 76),
            Event::client_scoped(EventKind::DownloadDropped, 3, 1),
            Event::round_scoped(EventKind::Aggregated, 3),
        ];
        for e in &events {
            report.apply(e);
        }
        assert_eq!(report.participants, 2);
        assert_eq!(report.train_panics, 1);
        assert_eq!(report.offline, 1);
        assert_eq!(report.upload_retries, 1);
        assert_eq!(report.uploads_ok, 1);
        assert_eq!(report.uploads_dropped, 1);
        assert_eq!(report.stragglers_started, 1);
        assert_eq!(report.stale_applied, 1);
        assert_eq!(report.updates_rejected, 1);
        assert_eq!(report.download_drops, 1);
        assert!(report.aggregated);
        // The per-round transport delta saw the same byte movements.
        assert_eq!(report.transport.uploads, 2);
        assert_eq!(report.transport.uploaded_bytes, 120);
        assert_eq!(report.transport.downloads, 1);
        assert_eq!(report.transport.downloaded_bytes, 76);
        // And the whole-run reduction agrees with from_reports.
        let summary = FaultSummary::from_events(&events);
        let mut via_reports = FaultSummary::from_reports(&[report]);
        via_reports.rounds = 0; // no RoundStart event was synthesized
        assert_eq!(summary.uploads_ok, via_reports.uploads_ok);
        assert_eq!(summary.stale_applied, via_reports.stale_applied);
        assert_eq!(summary.upload_retries, via_reports.upload_retries);
        assert_eq!(summary.aggregated_rounds, 1);
    }
}
