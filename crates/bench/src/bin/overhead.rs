//! Reproduces the **§IV-C runtime-overhead** numbers: per-decision
//! controller latency relative to the 500 ms control interval, the
//! per-round communication volume (paper: 2.8 kB/transfer), and the
//! replay-buffer storage footprint (paper: ~100 kB).
//!
//! ```text
//! cargo run --release -p fedpower-bench --bin overhead
//! ```
//!
//! (The paper's 29 ms latency is dominated by the Jetson Nano's modest CPU
//! running an unoptimized stack; the interesting quantity is the overhead
//! *fraction*, which must stay well below the control interval.)

use fedpower_agent::{DeviceEnvConfig, PowerController, State};
use fedpower_bench::BenchArgs;
use fedpower_core::report::markdown_table;
use fedpower_federated::{AgentClient, Codec, FedAvgConfig, Federation};
use fedpower_sim::FreqLevel;
use fedpower_workloads::AppId;
use std::time::Instant;

/// Runs one short federated round over in-process links with uploads
/// encoded under `codec`, and returns the measured mean upload size in
/// bytes — counted from the encoded frames that actually crossed the
/// link, not estimated.
fn measured_transfer_bytes(cfg: &fedpower_core::ExperimentConfig, codec: Codec) -> f64 {
    let clients: Vec<AgentClient> = [&[AppId::Fft][..], &[AppId::Ocean][..]]
        .iter()
        .enumerate()
        .map(|(d, apps)| AgentClient::new(d, cfg.controller, DeviceEnvConfig::new(apps), cfg.seed))
        .collect();
    let mut fed_cfg = FedAvgConfig::paper();
    fed_cfg.rounds = 1;
    fed_cfg.steps_per_round = 20;
    fed_cfg.codec = codec;
    let mut fed = Federation::new(clients, fed_cfg, cfg.seed);
    fed.run_round();
    let stats = fed.transport();
    stats.uploaded_bytes as f64 / stats.uploads as f64
}

fn main() {
    let cfg = BenchArgs::from_env().config();
    let mut agent = PowerController::new(cfg.controller, cfg.seed);
    let state = State::from_features([0.5, 0.4, 0.6, 0.1, 0.2]);

    // Warm the replay buffer so updates train on a full batch.
    for i in 0..4000u64 {
        agent.observe(&state, FreqLevel((i % 15) as usize), 0.4);
    }

    // Inference latency: forward + softmax sample.
    let n_inf = 100_000;
    let t0 = Instant::now();
    for _ in 0..n_inf {
        let _ = agent.select_action(&state);
    }
    let inference_us = t0.elapsed().as_secs_f64() / n_inf as f64 * 1e6;

    // Training-update latency: one batch of 128 through backprop + Adam.
    let n_train = 2_000;
    let t0 = Instant::now();
    for _ in 0..n_train {
        let _ = agent.train_once();
    }
    let train_us = t0.elapsed().as_secs_f64() / n_train as f64 * 1e6;

    // Amortized per-step cost: one inference every step, one update per H.
    let h = cfg.controller.optim_interval as f64;
    let per_step_us = inference_us + train_us / h;
    let interval_us = cfg.control_interval_s * 1e6;
    let overhead_pct = per_step_us / interval_us * 100.0;

    let transfer = agent.transfer_bytes();
    let measured = measured_transfer_bytes(&cfg, Codec::Dense32);
    // §IV-C reports 2.8 kB per transfer; the paper's 5→32→15 network (687
    // parameters) encodes to exactly 2 792 B dense on our wire.
    assert!(
        (2000.0..=3500.0).contains(&measured),
        "measured wire transfer {measured:.0} B is outside the paper's ~2.8 kB ballpark"
    );
    assert_eq!(
        measured, 2792.0,
        "dense frames are bit-stable: 32 B overhead + 12 B body header + 4 B/param"
    );
    // Every codec's measured on-the-wire size must equal the analytic
    // framed length — the single helper telemetry and `transfer_bytes`
    // route through — within tight absolute bounds on the compression win.
    let mut codec_rows = Vec::new();
    for (codec, lo, hi) in [
        (Codec::Q8, 700.0, 800.0),    // 740 B: 3.77× under dense
        (Codec::Q16, 1400.0, 1500.0), // 1 427 B: 1.96× under dense
        (Codec::parse("topk:0.1").unwrap(), 550.0, 650.0), // 609 B: 4.58×
        (Codec::parse("topk:0.05").unwrap(), 300.0, 400.0), // 337 B: 8.28×
    ] {
        let bytes = measured_transfer_bytes(&cfg, codec);
        assert_eq!(
            bytes,
            agent.transfer_bytes_with(codec) as f64,
            "{codec}: measured frames must match the analytic framed length"
        );
        assert!(
            (lo..=hi).contains(&bytes),
            "{codec}: measured {bytes:.0} B outside [{lo}, {hi}]"
        );
        codec_rows.push(vec![
            format!("upload frame ({codec})"),
            format!("{bytes:.0} B"),
            format!("{:.2}x vs dense", measured / bytes),
        ]);
    }
    let replay_kb = agent.replay().memory_bytes() as f64 / 1024.0;

    println!(
        "{}",
        markdown_table(
            &["quantity", "measured", "paper"],
            &[
                vec![
                    "inference latency".into(),
                    format!("{inference_us:.1} µs"),
                    "(within 29 ms ctrl latency)".into(),
                ],
                vec![
                    "training update (batch 128)".into(),
                    format!("{train_us:.1} µs"),
                    "(within 29 ms ctrl latency)".into(),
                ],
                vec![
                    "amortized per control step".into(),
                    format!("{per_step_us:.1} µs"),
                    "29 ms".into(),
                ],
                vec![
                    "overhead vs 500 ms interval".into(),
                    format!("{overhead_pct:.4} %"),
                    "5.9 %".into(),
                ],
                vec![
                    "model transfer size (frame)".into(),
                    format!("{:.2} kB", transfer as f64 / 1024.0),
                    "2.8 kB".into(),
                ],
                vec![
                    "measured on the wire".into(),
                    format!("{:.2} kB", measured / 1024.0),
                    "2.8 kB".into(),
                ],
                vec![
                    "replay buffer storage".into(),
                    format!("{replay_kb:.0} kB"),
                    "~100 kB".into(),
                ],
            ],
        )
    );
    println!();
    println!(
        "{}",
        markdown_table(&["codec", "measured on the wire", "reduction"], &codec_rows)
    );
    println!(
        "note: our per-step cost is far below the paper's 29 ms because the paper measures a \
         Python stack on the Nano's Cortex-A57; the requirement that matters — overhead ≪ \
         control interval — holds in both."
    );
}
