//! **Hot-path benchmark.** Measures the zero-allocation training/inference
//! hot path end to end and emits a machine-readable `BENCH_hotpath.json`:
//!
//! * `ns_per_forward` — one controller-network inference through
//!   [`Mlp::forward_with`] on warm scratch,
//! * `train_steps_per_sec` — full SGD steps (batch 128, Huber + Adam)
//!   through [`Mlp::train_batch_with`],
//! * `round_steps_per_sec` — environment steps per second of a full quick
//!   Fig. 3 federated round ([`Federation::run_round`], two devices),
//! * `env_steps_per_sec` — raw simulator stepping through
//!   [`DeviceEnv::run_steps`] with a trivial driver (no agent in the loop),
//! * `eval_steps_per_sec` — greedy evaluation episodes through
//!   `evaluate_on_app_with_mode` with the trace off,
//! * `fleet_clients_per_sec` — clients per second through one hierarchical
//!   sharded round ([`fedpower_core::experiment::run_fleet`], 512 clients
//!   over 8 shards),
//! * `fedadam_round_commits_per_sec` — combine-plus-commit rounds per
//!   second through an [`AggregationServer`] running the FedAdam commit
//!   stage on the paper's 687-parameter model (moment buffers are
//!   server-owned and allocated once),
//! * `bytes_per_round_{dense,q8,topk}` — upload bytes per 2-client round
//!   for the paper model under each wire codec (deterministic framed
//!   lengths; the bench asserts q8 ≤ dense/3.5 and topk:0.05 ≤ dense/8),
//! * `encode_decode_updates_per_sec` — full q8 encode → frame → decode →
//!   dense-reconstruct round trips per second on the 687-parameter model,
//! * `allocs_per_step` — heap allocations per warm training step, counted
//!   by a wrapping global allocator (the zero-allocation contract says 0).
//!
//! ```text
//! cargo bench -p fedpower-bench --bench hotpath -- [--quick] [--out PATH] [--baseline PATH]
//! ```
//!
//! With `--baseline PATH` the run compares its throughput metrics
//! (`train_steps_per_sec`, `round_steps_per_sec`, `env_steps_per_sec`,
//! `eval_steps_per_sec`, `fleet_clients_per_sec`, `fedadam_round_commits_per_sec`,
//! `encode_decode_updates_per_sec`) and lower-is-better metrics
//! (`ns_per_forward`, `bytes_per_round_*` — each gated only when the
//! baseline has it) against the baseline JSON and exits nonzero on a
//! regression of more than 30 % — the CI smoke gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fedpower_agent::{ControllerConfig, DeviceEnv, DeviceEnvConfig, StepDriver, StepObservation};
use fedpower_baselines::PerformanceGovernor;
use fedpower_core::eval::{evaluate_on_app_with_mode, EvalOptions};
use fedpower_core::experiment::run_fleet;
use fedpower_core::policy::GovernorPolicy;
use fedpower_core::{ExperimentConfig, FleetSpec};
use fedpower_federated::{
    AgentClient, AggregationServer, AggregationStrategy, Codec, CodedUpdate, Envelope,
    FedAvgConfig, Federation, ModelUpdate, ServerOpt,
};
use fedpower_nn::{Activation, Adam, ForwardScratch, Huber, Mlp, TrainBatch, TrainScratch};
use fedpower_sim::{FreqLevel, TraceMode, VfTable};
use fedpower_workloads::AppId;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `step` repeatedly for at least `window`, returning (iterations,
/// elapsed seconds).
fn measure(window: Duration, mut step: impl FnMut()) -> (u64, f64) {
    let start = Instant::now();
    let mut iters = 0_u64;
    while start.elapsed() < window {
        step();
        iters += 1;
    }
    (iters, start.elapsed().as_secs_f64())
}

struct Results {
    ns_per_forward: f64,
    train_steps_per_sec: f64,
    round_steps_per_sec: f64,
    env_steps_per_sec: f64,
    eval_steps_per_sec: f64,
    fleet_clients_per_sec: f64,
    fedadam_round_commits_per_sec: f64,
    bytes_per_round_dense: f64,
    bytes_per_round_q8: f64,
    bytes_per_round_topk: f64,
    encode_decode_updates_per_sec: f64,
    allocs_per_step: f64,
    quick: bool,
}

impl Results {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"ns_per_forward\": {:.1},\n  \"train_steps_per_sec\": {:.1},\n  \
             \"round_steps_per_sec\": {:.1},\n  \"env_steps_per_sec\": {:.1},\n  \
             \"eval_steps_per_sec\": {:.1},\n  \
             \"fleet_clients_per_sec\": {:.1},\n  \
             \"fedadam_round_commits_per_sec\": {:.1},\n  \
             \"bytes_per_round_dense\": {:.1},\n  \"bytes_per_round_q8\": {:.1},\n  \
             \"bytes_per_round_topk\": {:.1},\n  \
             \"encode_decode_updates_per_sec\": {:.1},\n  \
             \"allocs_per_step\": {:.3},\n  \"quick\": {}\n}}\n",
            self.ns_per_forward,
            self.train_steps_per_sec,
            self.round_steps_per_sec,
            self.env_steps_per_sec,
            self.eval_steps_per_sec,
            self.fleet_clients_per_sec,
            self.fedadam_round_commits_per_sec,
            self.bytes_per_round_dense,
            self.bytes_per_round_q8,
            self.bytes_per_round_topk,
            self.encode_decode_updates_per_sec,
            self.allocs_per_step,
            self.quick
        )
    }
}

/// Trivial [`StepDriver`] cycling through every V/f level — measures the
/// raw simulator step cost with no agent in the loop.
struct CyclingDriver {
    step: u64,
}

impl StepDriver for CyclingDriver {
    fn decide(&mut self, _obs: &StepObservation) -> FreqLevel {
        self.step += 1;
        FreqLevel((self.step % 15) as usize)
    }

    fn observe(&mut self, _step: u64, _action: FreqLevel, _obs: &StepObservation) -> bool {
        true
    }
}

/// Pulls `"key": <number>` out of our own JSON format — no JSON crate in
/// the dependency set, and we only ever parse files this bench wrote.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // Cargo runs benches with the package directory as cwd; resolve
    // relative paths against the workspace root so
    // `--baseline BENCH_hotpath.json` means the committed baseline.
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf();
    let resolve = |p: String| {
        let path = std::path::PathBuf::from(&p);
        if path.is_absolute() {
            path
        } else {
            workspace_root.join(path)
        }
    };
    let out_path = resolve(arg_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string()));
    let baseline_path = arg_value("--baseline").map(resolve);

    let window = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1000)
    };

    // The paper's controller network: 5 → 32 → 15, batch 128, Huber+Adam.
    let dims = [5_usize, 32, 15];
    let mut net = Mlp::new(&dims, Activation::Relu, 42);
    let mut opt = Adam::new(1e-3, net.num_params());
    let huber = Huber::new(1.0);
    let batch_size = 128;
    let x: Vec<f32> = (0..dims[0]).map(|i| (i as f32 * 0.37).sin()).collect();
    let inputs: Vec<f32> = (0..batch_size * dims[0])
        .map(|i| (i as f32 * 0.111).cos())
        .collect();
    let actions: Vec<usize> = (0..batch_size).map(|i| i % dims[2]).collect();
    let targets: Vec<f32> = (0..batch_size).map(|i| (i as f32 * 0.53).sin()).collect();

    let mut fwd = ForwardScratch::new();
    let mut train = TrainScratch::new();
    // Warm the scratch buffers once; everything after this is steady state.
    net.forward_with(&x, &mut fwd).expect("valid input");
    let warm_batch = TrainBatch {
        inputs: &inputs,
        actions: &actions,
        targets: &targets,
    };
    net.train_batch_with(&warm_batch, &huber, &mut opt, &mut train);

    // Spin before the first timed section: on a freshly started process
    // the CPU may still be ramping its clock, and the first window would
    // otherwise absorb the slow cycles (most visible in --quick runs,
    // whose 200 ms windows cannot amortize it).
    measure(Duration::from_millis(300), || {
        std::hint::black_box(net.forward_with(&x, &mut fwd).expect("valid input"));
    });

    eprintln!("measuring forward_with ({window:?} window)...");
    let (fwd_iters, fwd_secs) = measure(window, || {
        let q = net.forward_with(&x, &mut fwd).expect("valid input");
        std::hint::black_box(q[0]);
    });
    let ns_per_forward = fwd_secs * 1e9 / fwd_iters as f64;

    eprintln!("measuring train_batch_with (batch {batch_size})...");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let (train_iters, train_secs) = measure(window, || {
        let batch = TrainBatch {
            inputs: &inputs,
            actions: &actions,
            targets: &targets,
        };
        std::hint::black_box(net.train_batch_with(&batch, &huber, &mut opt, &mut train));
    });
    ARMED.store(false, Ordering::SeqCst);
    let allocs_per_step = ALLOCS.load(Ordering::SeqCst) as f64 / train_iters as f64;
    let train_steps_per_sec = train_iters as f64 / train_secs;

    eprintln!("measuring a quick Fig. 3 federated round (2 devices)...");
    let clients = vec![
        AgentClient::new(
            0,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]),
            3,
        ),
        AgentClient::new(
            1,
            ControllerConfig::paper(),
            DeviceEnvConfig::new(&[AppId::Ocean, AppId::Radix]),
            4,
        ),
    ];
    let fed_cfg = FedAvgConfig::paper();
    let steps_per_round = fed_cfg.steps_per_round;
    let n_clients = clients.len() as u64;
    let mut fed = Federation::new(clients, fed_cfg, 7);
    fed.run_round(); // warm the per-worker workspaces
    let rounds = if quick { 3 } else { 10 };
    let round_start = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(fed.run_round());
    }
    let round_secs = round_start.elapsed().as_secs_f64();
    let round_steps_per_sec = (rounds * steps_per_round * n_clients) as f64 / round_secs;

    eprintln!("measuring raw simulator stepping (DeviceEnv::run_steps)...");
    const ENV_BATCH: u64 = 512;
    let mut env = DeviceEnv::new(DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]), 11);
    let mut driver = CyclingDriver { step: 0 };
    let mut last = env.bootstrap();
    let (env_iters, env_secs) = measure(window, || {
        let (obs, _) = env.run_steps(ENV_BATCH, last.clone(), &mut driver);
        last = obs;
    });
    let env_steps_per_sec = (env_iters * ENV_BATCH) as f64 / env_secs;

    eprintln!("measuring greedy evaluation episodes (trace off)...");
    let eval_opts = EvalOptions::default();
    let mut policy = GovernorPolicy::new(PerformanceGovernor, VfTable::jetson_nano());
    let mut eval_seed = 0_u64;
    let (eval_iters, eval_secs) = measure(window, || {
        eval_seed += 1;
        std::hint::black_box(evaluate_on_app_with_mode(
            &mut policy,
            AppId::Fft,
            &eval_opts,
            eval_seed,
            TraceMode::Off,
        ));
    });
    let eval_steps_per_sec = (eval_iters * eval_opts.steps) as f64 / eval_secs;

    eprintln!("measuring a hierarchical sharded round (512 clients, 8 shards)...");
    let fleet_spec = FleetSpec {
        clients: 512,
        shards: 8,
    };
    let fleet_cfg = ExperimentConfig::builder()
        .quick(true)
        .rounds(1)
        .steps_per_round(4)
        .fleet(Some(fleet_spec))
        .build()
        .expect("valid fleet smoke config");
    run_fleet(&fleet_cfg).expect("fleet warm-up"); // warm allocator/thread state
    let fleet_start = Instant::now();
    let fleet_out = run_fleet(&fleet_cfg).expect("fleet round");
    let fleet_secs = fleet_start.elapsed().as_secs_f64();
    assert_eq!(
        fleet_out.reports[0].participants as usize,
        fleet_spec.clients
    );
    let fleet_clients_per_sec = fleet_spec.clients as f64 / fleet_secs;

    eprintln!("measuring FedAdam server commits (687-param model, 2 updates per round)...");
    let model_len = net.num_params();
    let mut server = AggregationServer::with_optimizer(
        vec![0.05; model_len],
        AggregationStrategy::Uniform,
        0.0,
        ServerOpt::fedadam(),
    );
    let uploads: Vec<Vec<f32>> = (0..2)
        .map(|c| {
            (0..model_len)
                .map(|i| 0.1 * ((i as f32) * 0.017 + c as f32).sin())
                .collect()
        })
        .collect();
    let (commit_iters, commit_secs) = measure(window, || {
        let mut acc = server.accumulator();
        for (c, params) in uploads.iter().enumerate() {
            acc.admit(
                ModelUpdate {
                    client_id: c,
                    params: params.clone(),
                    num_samples: 1,
                },
                1.0,
            )
            .expect("well-formed update");
        }
        let global = server.commit_round(acc).expect("quorum of 2");
        std::hint::black_box(global[0]);
    });
    let fedadam_round_commits_per_sec = commit_iters as f64 / commit_secs;

    // Codec wire economics: deterministic framed upload lengths for one
    // 2-client round of the paper model, plus the q8 encode → frame →
    // decode → dense-reconstruct throughput. The byte ratios are asserted
    // here (not against the baseline) because framed lengths are exact.
    let topk_codec = Codec::parse("topk:0.05").expect("valid codec spec");
    let bytes_per_round_dense = (2 * Codec::Dense32.upload_frame_len(model_len)) as f64;
    let bytes_per_round_q8 = (2 * Codec::Q8.upload_frame_len(model_len)) as f64;
    let bytes_per_round_topk = (2 * topk_codec.upload_frame_len(model_len)) as f64;
    eprintln!(
        "bytes/round (2 clients, {model_len} params): dense {bytes_per_round_dense:.0} B, q8 \
         {bytes_per_round_q8:.0} B ({:.2}x), topk:0.05 {bytes_per_round_topk:.0} B ({:.2}x)",
        bytes_per_round_dense / bytes_per_round_q8,
        bytes_per_round_dense / bytes_per_round_topk
    );
    assert!(
        bytes_per_round_q8 <= bytes_per_round_dense / 3.5,
        "q8 must stay within 2/7 of dense bytes (pure int8 caps the win at 4x)"
    );
    assert!(
        bytes_per_round_topk <= bytes_per_round_dense / 8.0,
        "topk:0.05 must deliver at least the 8x byte reduction"
    );

    eprintln!("measuring q8 encode + decode round trips ({model_len}-param model)...");
    let dense_params: Vec<f32> = (0..model_len)
        .map(|i| 0.1 * ((i as f32) * 0.013).sin())
        .collect();
    let mut reconstructed: Vec<f32> = Vec::with_capacity(model_len);
    let (codec_iters, codec_secs) = measure(window, || {
        let coded = CodedUpdate::quantize_q8(&dense_params);
        let frame = Envelope::codec_upload(1, 0, 64, coded).encode();
        let env = Envelope::decode(&frame).expect("own frame decodes");
        let fedpower_federated::wire::Payload::CodecUpload { update, .. } = &env.payload else {
            unreachable!("encoded a codec upload");
        };
        update
            .reconstruct_into(None, &mut reconstructed)
            .expect("q8 needs no reference");
        std::hint::black_box(reconstructed[0]);
    });
    let encode_decode_updates_per_sec = codec_iters as f64 / codec_secs;

    let results = Results {
        ns_per_forward,
        train_steps_per_sec,
        round_steps_per_sec,
        env_steps_per_sec,
        eval_steps_per_sec,
        fleet_clients_per_sec,
        fedadam_round_commits_per_sec,
        bytes_per_round_dense,
        bytes_per_round_q8,
        bytes_per_round_topk,
        encode_decode_updates_per_sec,
        allocs_per_step,
        quick,
    };
    let json = results.to_json();
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {}", out_path.display());

    if let Some(path) = baseline_path {
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let mut failed = false;
        for key in [
            "train_steps_per_sec",
            "round_steps_per_sec",
            "env_steps_per_sec",
            "eval_steps_per_sec",
            "fleet_clients_per_sec",
            "fedadam_round_commits_per_sec",
            "encode_decode_updates_per_sec",
        ] {
            let Some(base) = json_number(&baseline, key) else {
                eprintln!("baseline {} has no {key}; skipping", path.display());
                continue;
            };
            let now = json_number(&json, key).expect("own JSON is well-formed");
            let ratio = now / base;
            eprintln!(
                "{key}: {now:.1} vs baseline {base:.1} ({:.0} %)",
                ratio * 100.0
            );
            if ratio < 0.7 {
                eprintln!("REGRESSION: {key} fell more than 30 % below the baseline");
                failed = true;
            }
        }
        // Latency and byte keys gate in the opposite direction — lower is
        // better. The byte keys exist only once a codec-aware baseline is
        // committed, so each gates only when both sides have it. (The byte
        // keys are deterministic framed lengths — any drift at all is a
        // wire-format change, but the same 30 % gate keeps the mechanics
        // uniform; the hard ratio contract is asserted above.)
        for (key, unit) in [
            ("ns_per_forward", "ns"),
            ("bytes_per_round_dense", "B"),
            ("bytes_per_round_q8", "B"),
            ("bytes_per_round_topk", "B"),
        ] {
            let (Some(base), Some(now)) = (json_number(&baseline, key), json_number(&json, key))
            else {
                eprintln!("{key} not present on both sides; skipping");
                continue;
            };
            let ratio = now / base;
            eprintln!(
                "{key}: {now:.1} {unit} vs baseline {base:.1} {unit} ({:.0} %)",
                ratio * 100.0
            );
            if ratio > 1.0 / 0.7 {
                eprintln!("REGRESSION: {key} rose more than 30 % above the baseline");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
