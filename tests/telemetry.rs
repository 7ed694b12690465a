//! Integration tests of the telemetry subsystem end to end:
//!
//! * recording is passive — an instrumented run is bit-identical to the
//!   default (`NullRecorder`) run,
//! * the in-memory event stream reconciles exactly with the run's
//!   `FaultSummary` and `TransportStats` under a seeded chaos fault plan,
//! * the JSONL sink round-trips through the `fedpower-analysis` parser.

mod common;

use common::{MathClient, MathFleetFactory};
use fedpower::analysis::telemetry::{parse_jsonl, TelemetryRecord};
use fedpower::core::experiment::{run_federated, run_federated_recorded};
use fedpower::core::scenario::table2_scenarios;
use fedpower::core::ExperimentConfig;
use fedpower::federated::report::{FaultSummary, RoundReport, TransportStats};
use fedpower::federated::{FaultConfig, FaultPlan, FedAvgConfig, Federation, Fleet, FleetConfig};
use fedpower::telemetry::{EventKind, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder};

fn tiny() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.fedavg.rounds = 4;
    cfg.fedavg.steps_per_round = 50;
    cfg.eval_steps = 5;
    cfg.eval_max_steps = 150;
    cfg
}

/// A 20-round MathClient federation observed by `recorder`, its links
/// driven by a seeded chaos fault plan rich enough to exercise every
/// event kind the reports account for.
fn chaos_run(recorder: Box<dyn Recorder>) -> (Federation<MathClient>, FaultSummary) {
    let rounds = 20;
    let plan = FaultPlan::generate(&FaultConfig::chaos(), 4, rounds, 7);
    assert!(!plan.is_empty(), "the chaos plan must inject faults");
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    let clients: Vec<MathClient> = (0..4).map(MathClient::new).collect();
    let mut fed = Federation::builder(clients, cfg)
        .seed(11)
        .fault_plan(&plan)
        .recorder(recorder)
        .build()
        .expect("channel links");
    let reports = fed.run();
    let summary = FaultSummary::from_reports(&reports);
    (fed, summary)
}

/// A 20-round sharded fleet of six MathClients observed by `recorder`,
/// driven by the same kind of seeded chaos plan as [`chaos_run`].
fn chaos_fleet_run(
    recorder: Box<dyn Recorder>,
) -> (
    Fleet<MathFleetFactory>,
    Vec<fedpower::federated::report::RoundReport>,
) {
    let rounds = 20;
    let plan = FaultPlan::generate(&FaultConfig::chaos(), 6, rounds, 7);
    assert!(!plan.is_empty(), "the chaos plan must inject faults");
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    #[allow(deprecated)]
    let config = FleetConfig {
        fedavg: cfg,
        num_clients: 6,
        shards: 3,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    let mut fleet =
        Fleet::with_options(MathFleetFactory, config, Some(&plan), recorder).expect("valid fleet");
    let reports = fleet.run();
    (fleet, reports)
}

/// Fleet mode keeps the reconciliation contract: per-shard buffered
/// telemetry, replayed at the root, reduces back to exactly the live
/// round reports, transport stats, and fault summary — and the per-shard
/// counters account for every client and every uploaded byte.
#[test]
fn fleet_event_stream_reconciles_with_live_accounting() {
    let mem = MemoryRecorder::new();
    let (fleet, reports) = chaos_fleet_run(Box::new(mem.clone()));
    let events = mem.events();

    // Every live round report is reproducible from the stream alone
    // (client_divergence is a property of the admitted models, not of
    // the event stream — patch it before comparing).
    for live in &reports {
        let mut derived = RoundReport::from_events(live.round, &events);
        derived.client_divergence = live.client_divergence;
        assert_eq!(&derived, live, "round {} diverged", live.round);
    }
    assert_eq!(TransportStats::from_events(&events), *fleet.transport());
    assert_eq!(
        FaultSummary::from_events(&events),
        FaultSummary::from_reports(&reports)
    );
    // Chaos actually exercised the sharded fault paths.
    let summary = FaultSummary::from_reports(&reports);
    assert!(summary.uploads_dropped > 0, "{summary:?}");
    assert!(summary.offline > 0, "{summary:?}");
    assert!(mem.rounds_are_monotonic());

    // Per-shard counters: every round's shard_clients (online clients
    // materialized and trained) plus the round's offline count covers
    // the whole fleet, and each round times one span per shard.
    let counters = mem.counters();
    for round in 1..=20 {
        let clients: u64 = counters
            .iter()
            .filter(|c| c.name == "shard_clients" && c.round == round)
            .map(|c| c.value)
            .sum();
        let offline = reports[round as usize - 1].offline as u64;
        assert_eq!(clients + offline, 6, "round {round} lost clients");
        let shard_spans = mem
            .spans()
            .iter()
            .filter(|s| s.name == "shard" && s.round == round)
            .count();
        assert_eq!(shard_spans, 3, "round {round} missed shard spans");
    }
}

/// Fleet observation is passive too: an instrumented sharded run is
/// bit-identical to the `NullRecorder` run.
#[test]
fn recorded_fleet_run_is_bit_identical_to_uninstrumented() {
    let (plain, plain_reports) = chaos_fleet_run(Box::new(NullRecorder));
    let mem = MemoryRecorder::new();
    let (recorded, recorded_reports) = chaos_fleet_run(Box::new(mem.clone()));
    assert_eq!(plain.global_params(), recorded.global_params());
    assert_eq!(plain_reports, recorded_reports);
    assert_eq!(plain.transport(), recorded.transport());
    assert!(!mem.is_empty(), "the instrumented run produced telemetry");
}

/// Observation is passive: a run recorded by `MemoryRecorder` is
/// bit-identical — policies, reward series, transport accounting, round
/// reports — to the default run through `NullRecorder`.
#[test]
fn recorded_run_is_bit_identical_to_uninstrumented() {
    let scenario = &table2_scenarios()[0];
    let cfg = tiny();
    let plain = run_federated(scenario, &cfg);
    let null = run_federated_recorded(scenario, &cfg, Box::new(NullRecorder));
    let mem = MemoryRecorder::new();
    let recorded = run_federated_recorded(scenario, &cfg, Box::new(mem.clone()));

    for out in [&null, &recorded] {
        assert_eq!(plain.agents[0].params(), out.agents[0].params());
        assert_eq!(plain.series, out.series);
        assert_eq!(plain.transport, out.transport);
        assert_eq!(plain.reports, out.reports);
        assert_eq!(plain.fault_summary, out.fault_summary);
    }
    assert!(!mem.is_empty(), "the instrumented run produced telemetry");
    assert!(mem.rounds_are_monotonic());
}

/// Under a seeded chaos plan, the raw event stream reconciles exactly
/// with the run's aggregate views: per-kind event counts equal the
/// `FaultSummary` fields, and the event-stream reductions reproduce both
/// the summary and the live byte-level `TransportStats`.
#[test]
fn memory_recorder_reconciles_with_summary_and_transport() {
    let mem = MemoryRecorder::new();
    let (fed, summary) = chaos_run(Box::new(mem.clone()));

    assert_eq!(mem.count(EventKind::RoundStart), summary.rounds);
    assert_eq!(mem.count(EventKind::RoundEnd), summary.rounds);
    assert_eq!(mem.count(EventKind::Aggregated), summary.aggregated_rounds);
    assert_eq!(mem.count(EventKind::UploadAdmitted), summary.uploads_ok);
    assert_eq!(mem.count(EventKind::StaleApplied), summary.stale_applied);
    assert_eq!(
        mem.count(EventKind::UploadRetry) as u64,
        summary.upload_retries
    );
    assert_eq!(mem.count(EventKind::UploadDropped), summary.uploads_dropped);
    assert_eq!(
        mem.count(EventKind::DownloadDropped),
        summary.download_drops
    );
    assert_eq!(
        mem.count(EventKind::UpdateRejected),
        summary.updates_rejected
    );
    assert_eq!(
        mem.count(EventKind::StragglerStarted),
        summary.stragglers_started
    );
    assert_eq!(mem.count(EventKind::ClientOffline), summary.offline);
    assert_eq!(mem.count(EventKind::TrainPanic), summary.train_panics);
    // Chaos actually exercised the interesting kinds.
    assert!(summary.uploads_dropped > 0, "{summary:?}");
    assert!(summary.offline > 0, "{summary:?}");

    let events = mem.events();
    assert_eq!(FaultSummary::from_events(&events), summary);
    assert_eq!(TransportStats::from_events(&events), *fed.transport());
    // Byte movements in the stream match the live byte counters too.
    let t = fed.transport();
    assert_eq!(
        mem.bytes(EventKind::UploadReceived) + mem.bytes(EventKind::StaleReceived),
        t.uploaded_bytes
    );
    assert_eq!(mem.bytes(EventKind::DownloadDelivered), t.downloaded_bytes);
    assert!(mem.rounds_are_monotonic());
}

/// The JSONL sink is a faithful serialization of the stream: re-running
/// the same seeded chaos federation into a file and parsing it back with
/// `fedpower-analysis` reproduces the in-memory records.
#[test]
fn jsonl_stream_round_trips_through_the_analysis_parser() {
    let mem = MemoryRecorder::new();
    let (_, _) = chaos_run(Box::new(mem.clone()));

    let path = std::env::temp_dir().join(format!(
        "fedpower_telemetry_roundtrip_{}.jsonl",
        std::process::id()
    ));
    let jsonl = JsonlRecorder::create(&path).expect("create jsonl sink");
    let (_, _) = chaos_run(Box::new(jsonl.clone()));
    jsonl.finish().expect("flush jsonl sink");

    let text = std::fs::read_to_string(&path).expect("read back the stream");
    std::fs::remove_file(&path).ok();
    let parsed = parse_jsonl(&text).expect("every line parses");
    assert_eq!(parsed.len(), mem.len(), "no record lost or invented");

    // The runs are seed-deterministic, so events and counters match the
    // in-memory twin field-for-field (spans carry wall-clock seconds, so
    // only their structure is comparable).
    let file_events: Vec<_> = parsed
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Event {
                kind,
                round,
                client,
                bytes,
            } => Some((kind.clone(), *round, *client, *bytes)),
            _ => None,
        })
        .collect();
    let mem_events: Vec<_> = mem
        .events()
        .iter()
        .map(|e| (e.kind.name().to_string(), e.round, e.client, e.bytes))
        .collect();
    assert_eq!(file_events, mem_events);
    for (kind, ..) in &file_events {
        assert!(
            EventKind::parse(kind).is_some(),
            "unknown kind in stream: {kind}"
        );
    }

    let file_counters: Vec<_> = parsed
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Counter {
                name,
                round,
                client,
                value,
            } => Some((name.clone(), *round, *client, *value)),
            _ => None,
        })
        .collect();
    let mem_counters: Vec<_> = mem
        .counters()
        .iter()
        .map(|c| (c.name.to_string(), c.round, c.client, c.value))
        .collect();
    assert_eq!(file_counters, mem_counters);

    let file_spans: Vec<_> = parsed
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Span {
                name,
                round,
                seconds,
            } => {
                assert!(seconds.is_finite() && *seconds >= 0.0);
                Some((name.clone(), *round))
            }
            _ => None,
        })
        .collect();
    let mem_spans: Vec<_> = mem
        .spans()
        .iter()
        .map(|s| (s.name.to_string(), s.round))
        .collect();
    assert_eq!(file_spans, mem_spans);
    assert!(!file_spans.is_empty(), "round phases were timed");
}
