//! # fedpower-bench
//!
//! The benchmark harness regenerating every table and figure of the paper:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig2_reward` | Fig. 2 — reward distribution vs. power per V/f level |
//! | `fig3_local_vs_federated` | Fig. 3 — eval reward per round, local vs. federated, 3 scenarios |
//! | `fig4_frequency_selection` | Fig. 4 — mean ± std of selected frequency, scenario 2 |
//! | `table3_sota_comparison` | Table III — exec time / IPS / power vs. Profit+CollabPolicy |
//! | `fig5_per_app` | Fig. 5 — per-application comparison, six training apps per device |
//! | `overhead` | §IV-C — controller latency, transfer size, replay footprint |
//! | `ablation_*` | design-choice ablations listed in DESIGN.md |
//! | `oracle_regret` | learned policy vs. perfect-knowledge upper bound |
//! | `reward_model_quality` | μ(s,a) prediction error per application |
//! | `table_edp` | energy-delay product vs. the EDP literature |
//!
//! Each binary accepts `--rounds N`, `--seed S` and `--quick` (a scaled-down
//! run for smoke testing) and prints CSV/markdown to stdout. Binaries that
//! run a federation additionally honor `--telemetry off|summary|jsonl:<path>`
//! to stream the federation's structured event log.
//!
//! Timing lives in the separate `perfbench` package (`perfbench/README.md`),
//! which runs whole federated rounds and breaks them down by layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fedpower_core::{ConfigError, ExperimentConfig};
use fedpower_federated::{Codec, FaultScenario, ServerOpt, ServerOptKind};
use fedpower_telemetry::SinkSpec;

/// Command-line options shared by all bench binaries.
// `PartialEq` only: `Codec::TopK` carries an `f32` fraction, which has no
// total equality.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Number of federated rounds (`--rounds N`).
    pub rounds: Option<u64>,
    /// Master seed (`--seed S`).
    pub seed: Option<u64>,
    /// Scaled-down smoke run (`--quick`).
    pub quick: bool,
    /// Fault scenario injected into federated runs (`--faults NAME`).
    pub faults: Option<FaultScenario>,
    /// Telemetry sink for federated runs
    /// (`--telemetry off|summary|jsonl:<path>`); binaries that federate
    /// open it via [`fedpower_telemetry::Sink::open`].
    pub telemetry: SinkSpec,
    /// Server commit stage for federated runs
    /// (`--optimizer fedavg|fedadam|fedprox`).
    pub optimizer: Option<ServerOptKind>,
    /// Upload codec for federated runs
    /// (`--codec dense|q8|q16|topk:<frac>`).
    pub codec: Option<Codec>,
}

impl BenchArgs {
    /// Parses recognized flags from an iterator of arguments (typically
    /// `std::env::args().skip(1)`). Unrecognized arguments are an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on unknown flags or malformed
    /// numbers.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs {
            rounds: None,
            seed: None,
            quick: false,
            faults: None,
            telemetry: SinkSpec::Off,
            optimizer: None,
            codec: None,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--rounds" => {
                    let v = iter.next().ok_or("--rounds needs a value")?;
                    out.rounds = Some(v.parse().map_err(|e| format!("bad --rounds: {e}"))?);
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    out.seed = Some(v.parse().map_err(|e| format!("bad --seed: {e}"))?);
                }
                "--quick" => out.quick = true,
                "--faults" => {
                    let v = iter.next().ok_or("--faults needs a value")?;
                    out.faults = Some(FaultScenario::parse(&v).ok_or_else(|| {
                        format!(
                            "bad --faults: {v:?} (expected none, lossy-network, stragglers, \
                             flaky-fleet, or chaos)"
                        )
                    })?);
                }
                "--telemetry" => {
                    let v = iter.next().ok_or("--telemetry needs a value")?;
                    out.telemetry = SinkSpec::parse(&v).ok_or_else(|| {
                        format!("bad --telemetry: {v:?} (expected off, summary, or jsonl:<path>)")
                    })?;
                }
                "--optimizer" => {
                    let v = iter.next().ok_or("--optimizer needs a value")?;
                    out.optimizer = Some(ServerOptKind::parse(&v).ok_or_else(|| {
                        format!("bad --optimizer: {v:?} (expected fedavg, fedadam, or fedprox)")
                    })?);
                }
                "--codec" => {
                    let v = iter.next().ok_or("--codec needs a value")?;
                    out.codec = Some(Codec::parse(&v).ok_or_else(|| {
                        format!("bad --codec: {v:?} (expected dense, q8, q16, or topk:<frac>)")
                    })?);
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(out)
    }

    /// Parses from the process arguments, exiting with a usage message on
    /// error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--rounds N] [--seed S] [--quick] [--faults SCENARIO] \
                     [--telemetry off|summary|jsonl:<path>] \
                     [--optimizer fedavg|fedadam|fedprox] [--codec dense|q8|q16|topk:<frac>]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Materializes the experiment configuration these arguments select,
    /// checked by [`fedpower_core::ExperimentConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the flags violate, such as
    /// `--rounds 0`.
    pub fn try_config(&self) -> Result<ExperimentConfig, ConfigError> {
        let mut b = ExperimentConfig::builder().quick(self.quick);
        if let Some(rounds) = self.rounds {
            b = b.rounds(rounds);
        }
        if let Some(seed) = self.seed {
            b = b.seed(seed);
        }
        if let Some(faults) = self.faults {
            b = b.faults(faults);
        }
        if let Some(kind) = self.optimizer {
            b = b.optimizer(ServerOpt::from_kind(kind));
        }
        if let Some(codec) = self.codec {
            b = b.codec(codec);
        }
        b.build()
    }

    /// [`BenchArgs::try_config`], exiting with status 2 and the
    /// builder's message on error.
    pub fn config(&self) -> ExperimentConfig {
        self.try_config().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn empty_args_give_paper_config() {
        let args = parse(&[]).unwrap();
        assert!(!args.quick);
        assert_eq!(args.config().fedavg.rounds, 100);
    }

    #[test]
    fn flags_override_defaults() {
        let args = parse(&["--rounds", "7", "--seed", "9", "--quick"]).unwrap();
        let cfg = args.config();
        assert_eq!(cfg.fedavg.rounds, 7);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.eval_steps < ExperimentConfig::paper().eval_steps);
    }

    #[test]
    fn invalid_flags_fail_config_validation() {
        let args = parse(&["--quick", "--rounds", "0"]).unwrap();
        assert_eq!(args.try_config(), Err(ConfigError::ZeroRounds));
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--what"]).is_err());
        assert!(parse(&["--rounds"]).is_err());
        assert!(parse(&["--rounds", "x"]).is_err());
    }

    #[test]
    fn faults_flag_selects_a_scenario() {
        let args = parse(&["--faults", "lossy-network"]).unwrap();
        assert_eq!(args.faults, Some(FaultScenario::LossyNetwork));
        assert_eq!(args.config().fault_scenario, FaultScenario::LossyNetwork);
        assert_eq!(
            parse(&[]).unwrap().config().fault_scenario,
            FaultScenario::None,
            "default stays fault-free"
        );
        assert!(parse(&["--faults", "tsunami"]).is_err());
        assert!(parse(&["--faults"]).is_err());
    }

    #[test]
    fn telemetry_flag_selects_a_sink() {
        assert_eq!(parse(&[]).unwrap().telemetry, SinkSpec::Off);
        assert_eq!(
            parse(&["--telemetry", "summary"]).unwrap().telemetry,
            SinkSpec::Summary
        );
        assert_eq!(
            parse(&["--telemetry", "jsonl:/tmp/t.jsonl"])
                .unwrap()
                .telemetry,
            SinkSpec::Jsonl(std::path::PathBuf::from("/tmp/t.jsonl"))
        );
        assert!(parse(&["--telemetry", "morse"]).is_err());
        assert!(parse(&["--telemetry"]).is_err());
    }

    #[test]
    fn optimizer_flag_selects_a_commit_stage() {
        let args = parse(&["--optimizer", "fedprox"]).unwrap();
        assert_eq!(args.optimizer, Some(ServerOptKind::FedProx));
        assert_eq!(args.config().fedavg.optimizer, ServerOpt::fedprox());
        assert_eq!(
            parse(&[]).unwrap().config().fedavg.optimizer,
            ServerOpt::FedAvg,
            "default stays plain FedAvg"
        );
        let msg = parse(&["--optimizer", "sgd"]).unwrap_err();
        assert!(
            msg.contains("fedavg") && msg.contains("fedadam") && msg.contains("fedprox"),
            "{msg}"
        );
        assert!(parse(&["--optimizer"]).is_err());
    }

    #[test]
    fn codec_flag_selects_an_upload_codec() {
        let args = parse(&["--codec", "topk:0.05"]).unwrap();
        assert_eq!(args.codec, Some(Codec::TopK { frac: 0.05 }));
        assert_eq!(args.config().fedavg.codec, Codec::TopK { frac: 0.05 });
        assert_eq!(
            parse(&[]).unwrap().config().fedavg.codec,
            Codec::Dense32,
            "default stays dense"
        );
        assert!(parse(&["--codec", "gzip"]).is_err());
        assert!(parse(&["--codec", "topk:1.5"]).is_err());
        assert!(parse(&["--codec"]).is_err());
    }
}
