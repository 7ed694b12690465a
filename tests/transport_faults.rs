//! Transport-level fault injection: the same fault plans the federation
//! originally applied at the client layer, now actuated on the encoded
//! frames in flight by `FaultyTransport` middleware over in-process links.

mod common;

use common::MathClient;
use fedpower::federated::report::FaultSummary;
use fedpower::federated::{
    CorruptionKind, Fault, FaultConfig, FaultPlan, FedAvgConfig, FederatedClient, Federation,
    ModelUpdate,
};

fn math_clients(n: usize) -> Vec<MathClient> {
    (0..n).map(MathClient::new).collect()
}

fn config(rounds: u64) -> FedAvgConfig {
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    cfg
}

fn fed_with(
    clients: Vec<MathClient>,
    cfg: FedAvgConfig,
    plan: &FaultPlan,
) -> Federation<MathClient> {
    Federation::builder(clients, cfg)
        .seed(5)
        .fault_plan(plan)
        .build()
        .expect("transport links")
}

/// In-flight frame drops draw from the same retry budget the client-level
/// fault path used; when they exhaust it, the round is skipped bit-cleanly.
#[test]
fn in_flight_upload_drops_exhaust_the_retry_budget() {
    let mut plan = FaultPlan::none();
    for client in 0..3 {
        plan.insert(client, 2, Fault::UploadDrop { attempts: 10 });
    }
    let mut fed = fed_with(math_clients(3), config(3), &plan);

    let r1 = fed.run_round();
    assert!(r1.aggregated);
    let theta_after_r1 = fed.global_params().to_vec();

    let r2 = fed.run_round();
    assert!(!r2.aggregated, "no frame survived, round skipped");
    assert_eq!(r2.uploads_ok, 0);
    assert_eq!(r2.uploads_dropped, 3);
    assert_eq!(r2.upload_retries, 6, "2 retries spent per link");
    assert_eq!(
        fed.global_params(),
        theta_after_r1.as_slice(),
        "skipped round must leave θ bit-identical"
    );

    let r3 = fed.run_round();
    assert!(r3.aggregated, "federation recovers");
    assert_eq!(r3.uploads_ok, 3);
}

/// A frame NaN-corrupted in flight decodes (the middleware re-frames it
/// with a valid CRC) but fails server admission; honest clients alone
/// define the new global.
#[test]
fn frames_corrupted_in_flight_are_rejected_by_admission() {
    let mut plan = FaultPlan::none();
    plan.insert(2, 1, Fault::Corrupt(CorruptionKind::NaN));
    let mut fed = fed_with(math_clients(3), config(1), &plan);
    let report = fed.run_round();
    assert_eq!(report.updates_rejected, 1);
    assert_eq!(report.uploads_ok, 2);
    assert!(report.aggregated);
    // Honest clients 0 and 1 trained one step from 0 toward targets 1
    // and 2: params 0.5 and 1.0, mean 0.75; the corrupt frame is out.
    for &g in fed.global_params() {
        assert!(g.is_finite(), "NaN leaked into θ");
        assert!(
            (g - 0.75).abs() < 1e-6,
            "rejected frame biased the mean: {g}"
        );
    }
}

/// A deterministic client whose upload is a pure function of (id, round) —
/// `params = [10·id + round]` — so weighted aggregation is exactly
/// checkable.
#[derive(Debug)]
struct ScriptClient {
    id: usize,
    round: f32,
    global: Vec<f32>,
}

impl FederatedClient for ScriptClient {
    type Workspace = ();

    fn id(&self) -> usize {
        self.id
    }
    fn train_round_with(&mut self, _steps: u64, _ws: &mut ()) {
        self.round += 1.0;
    }
    fn upload(&mut self) -> ModelUpdate {
        ModelUpdate {
            client_id: self.id,
            params: vec![10.0 * self.id as f32 + self.round],
            num_samples: 1,
        }
    }
    fn download(&mut self, global: &[f32]) {
        self.global = global.to_vec();
    }
    fn transfer_bytes(&self) -> usize {
        4
    }
}

/// A straggling link buffers the encoded frame and delivers it a round
/// late; the server applies it at `STALENESS_DECAY^age` — the frame's own
/// round header carries its origin.
#[test]
fn frames_buffered_by_a_straggling_link_land_late_and_discounted() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::Straggle { delay_rounds: 1 });
    let clients = vec![
        ScriptClient {
            id: 0,
            round: 0.0,
            global: vec![],
        },
        ScriptClient {
            id: 1,
            round: 0.0,
            global: vec![],
        },
    ];
    let mut fed = Federation::builder(clients, config(2))
        .seed(5)
        .fault_plan(&plan)
        .build()
        .expect("transport links");

    // Round 1: client 1's frame is held in flight; only client 0's
    // upload (value 1) lands.
    let r1 = fed.run_round();
    assert_eq!(r1.stragglers_started, 1);
    assert_eq!(r1.uploads_ok, 1);
    assert_eq!(r1.stale_applied, 0);
    assert_eq!(fed.global_params(), &[1.0]);

    // Round 2: fresh uploads 2 and 12, plus the buffered round-1 frame
    // (value 11) at weight 0.5¹: (2 + 12 + 0.5·11) / 2.5 = 7.8.
    let r2 = fed.run_round();
    assert_eq!(r2.stale_applied, 1);
    assert_eq!(r2.uploads_ok, 2);
    let g = fed.global_params()[0];
    assert!((g - 7.8).abs() < 1e-5, "expected 7.8, got {g}");
}

/// A crashed link takes its client offline — no training, uploads, or
/// broadcasts — until the crash window elapses and the client rejoins on
/// the current global model.
#[test]
fn link_crash_takes_the_client_offline_until_rejoin() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::Crash { down_rounds: 2 });
    let mut fed = fed_with(math_clients(2), config(4), &plan);

    let r1 = fed.run_round();
    assert_eq!(r1.offline, 1);
    assert_eq!(r1.participants, 1, "only client 0 trains");
    let _ = fed.run_round();
    assert_eq!(
        fed.clients()[1].downloads,
        1,
        "only the join-ack landed while the link was down"
    );
    assert_ne!(fed.clients()[1].params, fed.global_params());

    let r3 = fed.run_round();
    assert_eq!(r3.offline, 0);
    assert_eq!(r3.participants, 2, "client 1 rejoined");
    assert_eq!(
        fed.clients()[1].params,
        fed.global_params(),
        "rejoined client holds the current global"
    );
    assert_eq!(fed.clients()[1].downloads, 2);
}

/// A broadcast frame lost in flight leaves the client on its stale model;
/// the next round's broadcast resynchronizes it.
#[test]
fn broadcast_frames_dropped_in_flight_leave_the_client_stale() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::DownloadDrop);
    let mut fed = fed_with(math_clients(2), config(2), &plan);
    let r1 = fed.run_round();
    assert_eq!(r1.download_drops, 1);
    assert_ne!(fed.clients()[1].params, fed.global_params());
    let r2 = fed.run_round();
    assert_eq!(r2.download_drops, 0);
    assert_eq!(fed.clients()[1].params, fed.global_params());
}

/// The chaos scenario on the links is seed-deterministic.
#[test]
fn chaotic_link_faults_are_seed_deterministic() {
    let run = || {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 4, 20, 7);
        let mut fed = fed_with(math_clients(4), config(20), &plan);
        let reports = fed.run();
        (fed.global_params().to_vec(), reports)
    };
    let (g1, r1) = run();
    let (g2, r2) = run();
    assert_eq!(g1, g2, "same plan seed must reproduce θ bit-for-bit");
    assert_eq!(r1, r2);
    for &g in &g1 {
        assert!(g.is_finite(), "chaos leaked NaN into θ");
    }
    let summary = FaultSummary::from_reports(&r1);
    assert_eq!(summary.rounds, 20, "every round completed");
}
