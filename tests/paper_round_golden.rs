//! Workspace training golden: the committed global model after three
//! rounds of the paper's configuration.
//!
//! `FedAvgConfig::paper()` (T = 100, SGD every H = 20 steps on batch
//! 128) over two `AgentClient`s, seeded as the benchmark's `paper_round`
//! workload seeds them at seed 42. Each client runs 15 SGD steps, so the
//! FNV-1a fingerprint of the committed θ bits pins the whole client
//! training path: simulator, action selection, replay sampling, the
//! network's forward and backward and the Adam step, and the commit.

use fedpower::agent::{ControllerConfig, DeviceEnvConfig};
use fedpower::federated::{AgentClient, FedAvgConfig, Federation};
use fedpower::sim::rng::derive_seed;
use fedpower::workloads::AppId;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn paper_round_global_after_three_rounds_matches_golden() {
    const SEED: u64 = 42;
    let devices = [[AppId::Fft, AppId::Lu], [AppId::Raytrace, AppId::Volrend]];
    let clients = devices
        .iter()
        .enumerate()
        .map(|(d, apps)| {
            AgentClient::new(
                d,
                ControllerConfig::paper(),
                DeviceEnvConfig::new(apps),
                derive_seed(SEED, 20 + d as u64),
            )
        })
        .collect();
    let cfg = FedAvgConfig {
        rounds: 3,
        ..FedAvgConfig::paper()
    };
    let mut fed = Federation::builder(clients, cfg)
        .seed(derive_seed(SEED, 30))
        .build()
        .expect("channel links are infallible");
    fed.run();
    for client in fed.clients() {
        assert_eq!(client.agent().updates(), 15, "client SGD steps");
    }
    let global = fed.global_params();
    assert!(global.iter().all(|p| p.is_finite()));
    let got = fnv1a(global);
    assert_eq!(got, 0x3df7_295d_48c0_9abb, "committed global: {got:#018x}");
}
