//! Integration tests of the federation's fault-injection layer and the
//! orchestrator's resilience guarantees:
//!
//! * dropped uploads don't derail convergence,
//! * quorum-unmet rounds leave θ unchanged (and never panic),
//! * NaN-corrupt updates are rejected via `FedError` and excluded,
//! * straggler updates land late with a staleness-discounted weight,
//! * crashed clients rejoin on the current global model,
//! * every injected fault is accounted for in the round reports.

mod common;

use common::MathClient;
use fedpower::federated::engine::MAX_UPLOAD_RETRIES;
use fedpower::federated::report::FaultSummary;
use fedpower::federated::{
    AggregationServer, AggregationStrategy, CorruptionKind, Fault, FaultConfig, FaultPlan,
    FedAvgConfig, FedError, FederatedClient, Federation, ModelUpdate,
};

/// A federation whose channel links realize `plan` in flight
/// ([`fedpower::federated::FaultyTransport`] wraps every link).
fn faulted<C: FederatedClient>(
    clients: Vec<C>,
    plan: &FaultPlan,
    cfg: FedAvgConfig,
    seed: u64,
) -> Federation<C> {
    Federation::builder(clients, cfg)
        .seed(seed)
        .fault_plan(plan)
        .build()
        .expect("channel links")
}

fn math_clients(n: usize) -> Vec<MathClient> {
    (0..n).map(MathClient::new).collect()
}

fn config(rounds: u64) -> FedAvgConfig {
    let mut cfg = FedAvgConfig::paper();
    cfg.rounds = rounds;
    cfg.steps_per_round = 1;
    cfg
}

/// (a) Upload drops slow the federation down but do not derail it: the
/// lossy run's final global stays close to the fault-free fixed point.
#[test]
fn dropped_uploads_still_converge_near_the_fault_free_global() {
    let rounds = 30;
    let clean_global = {
        let mut fed = Federation::new(math_clients(4), config(rounds), 11);
        fed.run();
        fed.global_params().to_vec()
    };
    // MathClient targets are 1..=4, so the fault-free fixed point is 2.5.
    assert!((clean_global[0] - 2.5).abs() < 1e-3, "{clean_global:?}");

    let faults = FaultConfig {
        p_upload_drop: 0.2,
        max_drop_attempts: 5, // beyond the retry budget: some drops are final
        ..FaultConfig::none()
    };
    let plan = FaultPlan::generate(&faults, 4, rounds, 21);
    assert!(!plan.is_empty(), "the plan must actually inject drops");
    let mut fed = faulted(math_clients(4), &plan, config(rounds), 11);
    let reports = fed.run();
    let lossy_global = fed.global_params().to_vec();

    let summary = FaultSummary::from_reports(&reports);
    assert!(summary.uploads_dropped > 0, "{summary:?}");
    for (c, l) in clean_global.iter().zip(&lossy_global) {
        assert!(
            (c - l).abs() < 1.0,
            "lossy global {l} strayed from fault-free {c}"
        );
    }
}

/// (b) When every upload of a round is lost for good, quorum is unmet:
/// the round is skipped, θ stays bit-identical, and nothing panics.
#[test]
fn quorum_unmet_round_keeps_theta_unchanged() {
    let mut plan = FaultPlan::none();
    for client in 0..3 {
        // More in-flight losses than the retry budget (2) can absorb.
        plan.insert(client, 2, Fault::UploadDrop { attempts: 10 });
    }
    let mut fed = faulted(math_clients(3), &plan, config(3), 5);

    let r1 = fed.run_round();
    assert!(r1.aggregated);
    let theta_after_r1 = fed.global_params().to_vec();

    let r2 = fed.run_round();
    assert!(!r2.aggregated, "no updates survived, round must be skipped");
    assert_eq!(r2.uploads_ok, 0);
    assert_eq!(r2.uploads_dropped, 3);
    assert_eq!(r2.upload_retries, 6, "2 retries spent per client");
    assert_eq!(
        fed.global_params(),
        theta_after_r1.as_slice(),
        "skipped round must leave θ bit-identical"
    );

    let r3 = fed.run_round();
    assert!(r3.aggregated, "federation recovers the next round");
    assert_eq!(r3.uploads_ok, 3);
}

/// (b') A configured minimum quorum above the surviving-update count also
/// skips the round.
#[test]
fn configured_min_quorum_is_respected() {
    let mut plan = FaultPlan::none();
    plan.insert(0, 1, Fault::UploadDrop { attempts: 10 });
    let mut cfg = config(1);
    cfg.min_quorum = 3;
    let mut fed = faulted(math_clients(3), &plan, cfg, 5);
    let report = fed.run_round();
    assert_eq!(report.uploads_ok, 2);
    assert!(!report.aggregated, "2 updates < quorum of 3");
    assert_eq!(fed.global_params(), &[0.0; 4], "θ untouched");
}

/// (c) NaN-corrupted updates are rejected through `FedError` and excluded
/// from the mean — honest clients alone define the new global.
#[test]
fn nan_corrupt_updates_are_rejected_and_excluded() {
    // The server-level admission check is the `FedError` surface…
    let server = AggregationServer::new(vec![0.0; 4], AggregationStrategy::Uniform);
    let corrupt = ModelUpdate {
        client_id: 2,
        params: vec![1.0, f32::NAN, 3.0, 4.0],
        num_samples: 10,
    };
    match server.accumulator().admit(corrupt, 1.0) {
        Err(FedError::CorruptUpdate { client_id, reason }) => {
            assert_eq!(client_id, 2);
            assert!(reason.contains("index 1"), "{reason}");
        }
        other => panic!("expected CorruptUpdate, got {other:?}"),
    }

    // …and the orchestrator applies it: client 2 is excluded this round.
    let mut plan = FaultPlan::none();
    plan.insert(2, 1, Fault::Corrupt(CorruptionKind::NaN));
    let mut fed = faulted(math_clients(3), &plan, config(1), 5);
    let report = fed.run_round();
    assert_eq!(report.updates_rejected, 1);
    assert_eq!(report.uploads_ok, 2);
    assert!(report.aggregated);
    // Honest clients 0 and 1 trained one step from 0 toward targets 1 and
    // 2: params 0.5 and 1.0, mean 0.75. The corrupt third is excluded.
    for &g in fed.global_params() {
        assert!(g.is_finite(), "NaN leaked into θ");
        assert!(
            (g - 0.75).abs() < 1e-6,
            "rejected update biased the mean: {g}"
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

/// (d) A straggler's update surfaces after its delay and is applied with
/// weight `STALENESS_DECAY^age` relative to the round's fresh updates.
#[test]
fn straggler_updates_arrive_late_with_discounted_weight() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::Straggle { delay_rounds: 1 });
    let clients: Vec<ScriptClient> = (0..2)
        .map(|id| ScriptClient {
            id,
            round: 0.0,
            global: vec![],
        })
        .collect();
    let mut fed = faulted(clients, &plan, config(2), 5);

    // Round 1: client 1 straggles; only client 0's upload (value 1) lands.
    let r1 = fed.run_round();
    assert_eq!(r1.stragglers_started, 1);
    assert_eq!(r1.uploads_ok, 1);
    assert_eq!(r1.stale_applied, 0);
    assert_eq!(fed.global_params(), &[1.0]);

    // Round 2: fresh uploads 2 (client 0) and 12 (client 1), plus the
    // stale round-1 update 11 at weight 0.5^1. Weighted mean:
    // (1·2 + 1·12 + 0.5·11) / 2.5 = 7.8 — not the undiscounted 25/3.
    let r2 = fed.run_round();
    assert_eq!(r2.stale_applied, 1);
    assert_eq!(r2.uploads_ok, 2);
    let g = fed.global_params()[0];
    assert!(
        (g - 7.8).abs() < 1e-5,
        "expected discounted mean 7.8, got {g}"
    );
    assert!(
        (g - 25.0 / 3.0).abs() > 0.3,
        "staleness discount was not applied"
    );
}

/// (e) A crashed client misses rounds entirely, then rejoins and receives
/// the *current* global model on its first round back.
#[test]
fn crashed_client_rejoins_on_the_current_global() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::Crash { down_rounds: 2 });
    let mut fed = faulted(math_clients(2), &plan, config(4), 5);

    let r1 = fed.run_round();
    assert_eq!(r1.offline, 1);
    assert_eq!(r1.participants, 1, "only client 0 trains");
    let r2 = fed.run_round();
    assert_eq!(r2.offline, 1);
    // Construction broadcast θ₁ to both; while down, client 1 must not
    // have received anything further.
    assert_eq!(fed.clients()[1].downloads, 1);
    assert_ne!(
        fed.clients()[1].params,
        fed.global_params(),
        "offline client is stale by rounds 1–2"
    );

    let r3 = fed.run_round();
    assert_eq!(r3.offline, 0);
    assert_eq!(r3.participants, 2, "client 1 rejoined and trained");
    assert_eq!(
        fed.clients()[1].params,
        fed.global_params(),
        "rejoined client holds the current global model"
    );
    assert_eq!(fed.clients()[1].downloads, 2);
}

/// A download drop leaves the client training from its stale model while
/// everyone else moves on — and the next broadcast resynchronizes it.
#[test]
fn download_drop_leaves_client_stale_until_next_broadcast() {
    let mut plan = FaultPlan::none();
    plan.insert(1, 1, Fault::DownloadDrop);
    let mut fed = faulted(math_clients(2), &plan, config(2), 5);
    let r1 = fed.run_round();
    assert_eq!(r1.download_drops, 1);
    assert_ne!(fed.clients()[1].params, fed.global_params());
    let r2 = fed.run_round();
    assert_eq!(r2.download_drops, 0);
    assert_eq!(fed.clients()[1].params, fed.global_params());
}

/// Acceptance scenario: 4 clients, 20 % upload drop, one straggler. All
/// rounds complete without panics, the final global is finite, and the
/// reports account for every injected fault.
#[test]
fn lossy_run_with_straggler_accounts_for_every_fault() {
    let rounds = 25;
    let n = 4;
    let faults = FaultConfig {
        p_upload_drop: 0.2,
        max_drop_attempts: 4, // some drops exceed the retry budget of 2
        ..FaultConfig::none()
    };
    let mut plan = FaultPlan::generate(&faults, n, rounds, 17);
    // Exactly one straggler episode, at a round of its own.
    plan.insert(2, 5, Fault::Straggle { delay_rounds: 2 });

    let cfg = config(rounds);

    // Expected totals, derived straight from the plan.
    let mut expected_retries = 0;
    let mut expected_dropped = 0;
    let mut expected_straggles = 0;
    for (_, _, fault) in plan.iter() {
        match fault {
            Fault::UploadDrop { attempts } => {
                expected_retries += attempts.min(MAX_UPLOAD_RETRIES);
                if attempts > MAX_UPLOAD_RETRIES {
                    expected_dropped += 1;
                }
            }
            Fault::Straggle { .. } => expected_straggles += 1,
            other => panic!("unexpected fault in this plan: {other:?}"),
        }
    }
    assert!(expected_dropped > 0, "plan must contain terminal drops");
    assert_eq!(expected_straggles, 1);

    let mut fed = faulted(math_clients(n), &plan, cfg, 11);
    let reports = fed.run();

    assert_eq!(reports.len(), rounds as usize, "every round completed");
    let summary = FaultSummary::from_reports(&reports);
    assert_eq!(summary.upload_retries, expected_retries);
    assert_eq!(summary.uploads_dropped, expected_dropped);
    assert_eq!(summary.stragglers_started, 1);
    assert_eq!(summary.stale_applied, 1, "the late update landed");
    assert_eq!(summary.updates_rejected, 0);
    assert_eq!(summary.offline, 0);
    assert_eq!(summary.train_panics, 0);
    assert_eq!(
        summary.aggregated_rounds, rounds as usize,
        "with 4 clients and 20 % drops every round meets quorum"
    );
    // Every trained client ends each round in exactly one disposition.
    for r in &reports {
        assert_eq!(
            r.uploads_ok + r.uploads_dropped + r.stragglers_started + r.updates_rejected,
            r.participants,
            "round {} dispositions don't add up: {r:?}",
            r.round
        );
    }
    // Fresh-upload arithmetic: every client-round is an arrival except the
    // terminal drops and the straggle round (its update arrives late).
    assert_eq!(
        summary.uploads_ok,
        n * rounds as usize - expected_dropped - 1
    );
    // Transport counters agree with the per-round reports.
    let t = fed.transport();
    assert_eq!(
        t.uploads,
        (summary.uploads_ok + summary.stale_applied + summary.updates_rejected) as u64
    );
    assert_eq!(t.upload_retries, summary.upload_retries);
    assert_eq!(t.uploads_dropped, summary.uploads_dropped as u64);
    assert_eq!(t.downloads_dropped, summary.download_drops as u64);
    assert_eq!(t.updates_rejected, summary.updates_rejected as u64);

    for &g in fed.global_params() {
        assert!(g.is_finite(), "NaN/Inf in the final global");
    }
    assert!(
        (fed.global_params()[0] - 2.5).abs() < 1.0,
        "federation should still approach the fault-free fixed point"
    );
}

/// Wrapping the links with an empty fault plan is bit-identical to not
/// wrapping them at all.
#[test]
fn empty_plan_wrapper_is_bitwise_transparent() {
    let rounds = 10;
    let plain = {
        let mut fed = Federation::new(math_clients(4), config(rounds), 11);
        fed.run();
        (fed.global_params().to_vec(), *fed.transport())
    };
    let wrapped = {
        let plan = FaultPlan::generate(&FaultConfig::none(), 4, rounds, 99);
        assert!(plan.is_empty());
        let mut fed = faulted(math_clients(4), &plan, config(rounds), 11);
        fed.run();
        (fed.global_params().to_vec(), *fed.transport())
    };
    assert_eq!(plain.0, wrapped.0, "globals must match bit-for-bit");
    assert_eq!(plain.1, wrapped.1, "transport accounting must match");
}

/// Same seed, same plan ⇒ bit-identical run; different plan seed ⇒ the
/// fault schedule genuinely differs.
#[test]
fn faulty_runs_are_seed_deterministic() {
    let run = |plan_seed: u64| {
        let plan = FaultPlan::generate(&FaultConfig::chaos(), 4, 20, plan_seed);
        let mut fed = faulted(math_clients(4), &plan, config(20), 11);
        let reports = fed.run();
        (fed.global_params().to_vec(), reports)
    };
    let (g1, r1) = run(7);
    let (g2, r2) = run(7);
    assert_eq!(g1, g2, "same plan seed must reproduce θ bit-for-bit");
    assert_eq!(r1, r2, "and the same round reports");
    let (g3, _) = run(8);
    assert_ne!(g1, g3, "a different plan seed changes the trajectory");
}
