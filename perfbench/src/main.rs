//! The fedpower benchmark: closed-loop federated rounds through the
//! public drivers, end-to-end metrics with tracing off, and a separate
//! traced run that breaks the same rounds down by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload paper_round|fleet_100k|server_loopback|chaos|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! the lines before it record the host and a table of every metric with
//! its sample count. A failed output check exits 1. See `README.md` in
//! this directory for the workloads and metrics.

mod decor;
mod heap;
mod inproc;
mod layers;
mod metrics;
mod replica;
mod server;
mod stats;

use metrics::{Def, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Duration;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Its name on the command line.
    pub name: &'static str,
    run: fn(&Opts) -> Report,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_round",
        run: |o| inproc::run_federation(&inproc::FedSpec::paper(o.seed), o),
    },
    Workload {
        name: "fleet_100k",
        run: inproc::run_fleet,
    },
    Workload {
        name: "server_loopback",
        run: server::run,
    },
    Workload {
        name: "chaos",
        run: |o| inproc::run_federation(&inproc::FedSpec::chaos(o.seed), o),
    },
];

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// The timed seconds when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: client seeds, fault plan and federation RNG derive
    /// from it.
    pub seed: u64,
    /// Seconds the timed section runs (split between the two legs of a
    /// traced run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Wall-clock cap on the whole run.
    pub cap: Duration,
}

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Opts), String> {
    let mut workloads = WORKLOADS.to_vec();
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        cap: Duration::ZERO,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if value == "all" => workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = vec![*w];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Set-ups come on top of the timed seconds; anything far beyond
    // that is a hang.
    opts.cap = Duration::from_secs_f64(60.0 + 3.0 * opts.seconds);
    Ok((workloads, opts))
}

/// The CPU's brand string, read with `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend(word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# host: cpu=\"{}\" nproc={nproc} rustc=\"{}\" features=default simd_active={}",
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        fedpower_nn::kernels::simd_active()
    )
}

/// Ends the process when a run outlives its cap: a hung thread cannot be
/// joined, so a hang becomes a failed run instead of a stall.
fn watchdog(cap: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(cap);
        eprintln!("perfbench: run exceeded its {cap:?} cap");
        std::process::exit(2);
    });
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    watchdog(opts.cap * workloads.len() as u32);
    let defs: &[Def] = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", host_line());
    let mut all_correct = true;
    for w in workloads {
        println!(
            "# workload={} seed={} seconds={} trace={}",
            w.name,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let mut report = (w.run)(&opts);
        let line = report.json(defs);
        print!("{}", report.table(defs));
        for p in &report.problems {
            println!("# FAILED: {p}");
        }
        all_correct &= report.correct();
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
