//! Device-fleet goldens: the committed global model and the per-round
//! client divergence of two small `run_fleet` runs at seed 42.
//!
//! `DeviceFleetFactory` builds a fresh `AgentClient` for every client and
//! round, so these pin the whole fleet path on real devices: client
//! materialization, the download that installs the global, local
//! training, shard admission, the shard merges and the root commit.
//! `engine_identity` and `fleet_determinism` cover the fleet engine with
//! synthetic clients only.
//!
//! - At T = 40 (SGD every H = 20 steps) each client takes two Adam steps
//!   per round on replay batches, so the uploads differ per client.
//! - At T = 4, `fleet_100k`'s round length, no SGD step runs: every client
//!   uploads the global it downloaded.

use fedpower::core::config::{ExperimentConfig, FleetSpec};
use fedpower::core::experiment::run_fleet;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs 24 devices over 3 shards for 3 rounds of `steps` steps and
/// fingerprints the committed global followed by each round's divergence.
fn fleet_fingerprint(steps: u64) -> u64 {
    let cfg = ExperimentConfig::builder()
        .seed(42)
        .rounds(3)
        .steps_per_round(steps)
        .fleet(Some(FleetSpec {
            clients: 24,
            shards: 3,
        }))
        .build()
        .expect("valid fleet config");
    let out = run_fleet(&cfg).expect("fleet runs");
    assert_eq!(out.reports.len(), 3);
    for r in &out.reports {
        assert!(
            r.aggregated && r.uploads_ok == 24,
            "round lost clients: {r:?}"
        );
    }
    let divergence = out.reports.iter().map(|r| r.client_divergence);
    fnv1a(out.global.iter().copied().chain(divergence))
}

#[test]
fn trained_device_fleet_matches_golden() {
    let got = fleet_fingerprint(40);
    assert_eq!(got, 0x6c17_3f1d_d4f8_19aa, "fleet at T = 40: {got:#018x}");
}

#[test]
fn untrained_device_fleet_matches_golden() {
    let got = fleet_fingerprint(4);
    assert_eq!(got, 0x98f4_6432_4eca_f815, "fleet at T = 4: {got:#018x}");
}
