//! # fedpower-cli
//!
//! Library backing the `fedpower` command-line tool: argument parsing and
//! experiment dispatch, separated from `main.rs` so they are unit-testable.
//!
//! ```text
//! fedpower <command> [--rounds N] [--seed S] [--quick] [--out DIR]
//!          [--faults none|lossy-network|stragglers|flaky-fleet|chaos]
//!          [--telemetry off|summary|jsonl:<path>]
//!          [--fleet shards=<k>,clients=<n>] [--optimizer fedavg|fedadam|fedprox]
//!          [--codec dense|q8|q16|topk:<frac>]
//!
//! commands:
//!   fig3        local-only vs federated reward curves (3 scenarios)
//!   fig4        frequency-selection statistics (scenario 2)
//!   table3      state-of-the-art comparison (exec time / IPS / power)
//!   fig5        per-application comparison (six/six split)
//!   pcrit       sweep the power constraint from 0.4 W to 0.8 W
//!   oracle      regret of the trained policy vs a perfect-knowledge oracle
//!   fleet       hierarchical sharded federation at cross-device scale
//!   list        list the application catalog with model characteristics
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod server;

use fedpower_core::{ConfigError, ExperimentConfig, FleetSpec};
use fedpower_federated::{Codec, FaultScenario, ServerOpt, ServerOptKind};
use fedpower_telemetry::SinkSpec;
use std::fmt;
use std::path::PathBuf;

/// A parsed CLI invocation.
// `PartialEq` only: `Codec::TopK` carries an `f32` fraction, which has no
// total equality.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The selected command.
    pub command: Command,
    /// `--rounds N` override.
    pub rounds: Option<u64>,
    /// `--seed S` override.
    pub seed: Option<u64>,
    /// `--quick` scaled-down run.
    pub quick: bool,
    /// `--out DIR` — write CSV artifacts there instead of stdout only.
    pub out: Option<PathBuf>,
    /// `--faults <scenario>` — fault model injected into federated runs.
    pub faults: Option<FaultScenario>,
    /// `--telemetry off|summary|jsonl:<path>` — where the federation's
    /// structured telemetry stream goes (default: off).
    pub telemetry: SinkSpec,
    /// `--fleet shards=<k>,clients=<n>` — hierarchical shard topology for
    /// the `fleet` command (keys accepted in either order).
    pub fleet: Option<FleetSpec>,
    /// `--optimizer fedavg|fedadam|fedprox` — server commit stage
    /// (selected by kind; each kind carries its reference
    /// hyperparameters).
    pub optimizer: Option<ServerOptKind>,
    /// `--codec dense|q8|q16|topk:<frac>` — upload codec clients encode
    /// their round updates with.
    pub codec: Option<Codec>,
}

/// Parses a `--fleet` value of the form `shards=<k>,clients=<n>` (the two
/// `key=value` pairs in either order).
fn parse_fleet_spec(s: &str) -> Option<FleetSpec> {
    let mut clients: Option<usize> = None;
    let mut shards: Option<usize> = None;
    for pair in s.split(',') {
        let (key, value) = pair.split_once('=')?;
        let slot = match key.trim() {
            "clients" => &mut clients,
            "shards" => &mut shards,
            _ => return None,
        };
        if slot.is_some() {
            return None; // duplicate key
        }
        *slot = Some(value.trim().parse().ok()?);
    }
    Some(FleetSpec {
        clients: clients?,
        shards: shards?,
    })
}

/// The available subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Command {
    Fig3,
    Fig4,
    Table3,
    Fig5,
    Pcrit,
    Oracle,
    Fleet,
    List,
}

impl Command {
    fn parse(s: &str) -> Option<Command> {
        match s {
            "fig3" => Some(Command::Fig3),
            "fig4" => Some(Command::Fig4),
            "table3" => Some(Command::Table3),
            "fig5" => Some(Command::Fig5),
            "pcrit" => Some(Command::Pcrit),
            "oracle" => Some(Command::Oracle),
            "fleet" => Some(Command::Fleet),
            "list" => Some(Command::List),
            _ => None,
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Command::Fig3 => "fig3",
            Command::Fig4 => "fig4",
            Command::Table3 => "table3",
            Command::Fig5 => "fig5",
            Command::Pcrit => "pcrit",
            Command::Oracle => "oracle",
            Command::Fleet => "fleet",
            Command::List => "list",
        };
        f.write_str(name)
    }
}

/// Error produced by [`Invocation::parse`]; its `Display` is the message
/// shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseInvocationError(String);

impl fmt::Display for ParseInvocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseInvocationError {}

impl Invocation {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a message suitable for direct display on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ParseInvocationError> {
        let mut iter = args.into_iter();
        let command = match iter.next() {
            Some(c) => Command::parse(&c)
                .ok_or_else(|| ParseInvocationError(format!("unknown command: {c}")))?,
            None => return Err(ParseInvocationError("missing command".into())),
        };
        let mut inv = Invocation {
            command,
            rounds: None,
            seed: None,
            quick: false,
            out: None,
            faults: None,
            telemetry: SinkSpec::Off,
            fleet: None,
            optimizer: None,
            codec: None,
        };
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--rounds" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--rounds needs a value".into()))?;
                    inv.rounds = Some(
                        v.parse()
                            .map_err(|e| ParseInvocationError(format!("bad --rounds: {e}")))?,
                    );
                }
                "--seed" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--seed needs a value".into()))?;
                    inv.seed = Some(
                        v.parse()
                            .map_err(|e| ParseInvocationError(format!("bad --seed: {e}")))?,
                    );
                }
                "--quick" => inv.quick = true,
                "--out" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--out needs a directory".into()))?;
                    inv.out = Some(PathBuf::from(v));
                }
                "--faults" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--faults needs a value".into()))?;
                    inv.faults = Some(FaultScenario::parse(&v).ok_or_else(|| {
                        ParseInvocationError(format!(
                            "bad --faults: {v:?} (expected none, lossy-network, stragglers, \
                             flaky-fleet, or chaos)"
                        ))
                    })?);
                }
                "--telemetry" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--telemetry needs a value".into()))?;
                    inv.telemetry = SinkSpec::parse(&v).ok_or_else(|| {
                        ParseInvocationError(format!(
                            "bad --telemetry: {v:?} (expected off, summary, or jsonl:<path>)"
                        ))
                    })?;
                }
                "--optimizer" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--optimizer needs a value".into()))?;
                    inv.optimizer = Some(ServerOptKind::parse(&v).ok_or_else(|| {
                        ParseInvocationError(format!(
                            "bad --optimizer: {v:?} (expected fedavg, fedadam, or fedprox)"
                        ))
                    })?);
                }
                "--codec" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--codec needs a value".into()))?;
                    inv.codec = Some(Codec::parse(&v).ok_or_else(|| {
                        ParseInvocationError(format!(
                            "bad --codec: {v:?} (expected dense, q8, q16, or topk:<frac>)"
                        ))
                    })?);
                }
                "--fleet" => {
                    let v = iter
                        .next()
                        .ok_or_else(|| ParseInvocationError("--fleet needs a value".into()))?;
                    inv.fleet = Some(parse_fleet_spec(&v).ok_or_else(|| {
                        ParseInvocationError(format!(
                            "bad --fleet: {v:?} (expected shards=<k>,clients=<n>)"
                        ))
                    })?);
                }
                other => return Err(ParseInvocationError(format!("unknown argument: {other}"))),
            }
        }
        Ok(inv)
    }

    /// The experiment configuration this invocation selects: a thin
    /// mapping of the parsed flags onto [`ExperimentConfig::builder`].
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ConfigError`] when the flag combination is
    /// invalid (e.g. `--rounds 0`).
    pub fn config(&self) -> Result<ExperimentConfig, ConfigError> {
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
        if self.fleet.is_some() {
            b = b.fleet(self.fleet);
        }
        if let Some(kind) = self.optimizer {
            b = b.optimizer(ServerOpt::from_kind(kind));
        }
        if let Some(codec) = self.codec {
            b = b.codec(codec);
        }
        b.build()
    }
}

/// The usage text shown on parse errors.
pub const USAGE: &str = "usage: fedpower <fig3|fig4|table3|fig5|pcrit|oracle|fleet|list> \
[--rounds N] [--seed S] [--quick] [--out DIR] \
[--faults none|lossy-network|stragglers|flaky-fleet|chaos] \
[--telemetry off|summary|jsonl:<path>] [--fleet shards=<k>,clients=<n>] \
[--optimizer fedavg|fedadam|fedprox] [--codec dense|q8|q16|topk:<frac>]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, ParseInvocationError> {
        Invocation::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let inv = parse(&["fig3", "--rounds", "12", "--seed", "3", "--out", "/tmp/x"]).unwrap();
        assert_eq!(inv.command, Command::Fig3);
        assert_eq!(inv.rounds, Some(12));
        assert_eq!(inv.seed, Some(3));
        assert_eq!(inv.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(inv.config().unwrap().fedavg.rounds, 12);
    }

    #[test]
    fn quick_selects_smoke_config() {
        let inv = parse(&["table3", "--quick"]).unwrap();
        assert!(inv.config().unwrap().eval_steps < ExperimentConfig::paper().eval_steps);
    }

    #[test]
    fn codec_flag_selects_an_upload_codec() {
        let inv = parse(&["fig3", "--codec", "q8"]).unwrap();
        assert_eq!(inv.codec, Some(Codec::Q8));
        assert_eq!(inv.config().unwrap().fedavg.codec, Codec::Q8);
        let inv = parse(&["fig3", "--codec", "topk:0.1"]).unwrap();
        assert_eq!(inv.codec, Some(Codec::TopK { frac: 0.1 }));
        assert_eq!(
            parse(&["fig3"]).unwrap().config().unwrap().fedavg.codec,
            Codec::Dense32
        );
        assert!(parse(&["fig3", "--codec", "gzip"]).is_err());
        assert!(parse(&["fig3", "--codec", "topk:0"]).is_err());
        assert!(parse(&["fig3", "--codec"]).is_err());
    }

    #[test]
    fn faults_flag_selects_a_scenario() {
        let inv = parse(&["fig3", "--faults", "chaos"]).unwrap();
        assert_eq!(inv.faults, Some(FaultScenario::Chaos));
        assert_eq!(inv.config().unwrap().fault_scenario, FaultScenario::Chaos);
        assert_eq!(
            parse(&["fig3"]).unwrap().config().unwrap().fault_scenario,
            FaultScenario::None
        );
        assert!(parse(&["fig3", "--faults", "gremlins"]).is_err());
        assert!(parse(&["fig3", "--faults"]).is_err());
    }

    #[test]
    fn telemetry_flag_selects_a_sink() {
        assert_eq!(parse(&["fig3"]).unwrap().telemetry, SinkSpec::Off);
        assert_eq!(
            parse(&["fig3", "--telemetry", "summary"])
                .unwrap()
                .telemetry,
            SinkSpec::Summary
        );
        assert_eq!(
            parse(&["fig3", "--telemetry", "jsonl:/tmp/t.jsonl"])
                .unwrap()
                .telemetry,
            SinkSpec::Jsonl(PathBuf::from("/tmp/t.jsonl"))
        );
        assert!(parse(&["fig3", "--telemetry", "carrier-pigeon"]).is_err());
        assert!(parse(&["fig3", "--telemetry"]).is_err());
    }

    #[test]
    fn fleet_flag_parses_both_key_orders() {
        let spec = FleetSpec {
            clients: 100_000,
            shards: 64,
        };
        for v in ["shards=64,clients=100000", "clients=100000,shards=64"] {
            let inv = parse(&["fleet", "--fleet", v]).unwrap();
            assert_eq!(inv.fleet, Some(spec));
            assert_eq!(inv.config().unwrap().fleet, Some(spec));
        }
        assert_eq!(parse(&["fleet"]).unwrap().fleet, None);
        for bad in [
            "shards=64",
            "clients=10",
            "shards=64,clients=ten",
            "shards=1,shards=2",
            "gerbils=9,clients=10",
            "shards=2,clients=4,shards=8",
        ] {
            assert!(parse(&["fleet", "--fleet", bad]).is_err(), "{bad}");
        }
        assert!(parse(&["fleet", "--fleet"]).is_err());
        // Degenerate topologies parse but fail config validation.
        let inv = parse(&["fleet", "--fleet", "shards=0,clients=10"]).unwrap();
        assert!(matches!(
            inv.config(),
            Err(fedpower_core::ConfigError::DegenerateFleet(_))
        ));
    }

    #[test]
    fn optimizer_flag_selects_a_commit_stage() {
        let inv = parse(&["fig3", "--optimizer", "fedadam"]).unwrap();
        assert_eq!(inv.optimizer, Some(ServerOptKind::FedAdam));
        assert_eq!(inv.config().unwrap().fedavg.optimizer, ServerOpt::fedadam());
        assert_eq!(
            parse(&["fig3", "--optimizer", "fedprox"])
                .unwrap()
                .config()
                .unwrap()
                .fedavg
                .optimizer,
            ServerOpt::fedprox()
        );
        // Default (and explicit fedavg) selects the paper's plain commit.
        assert_eq!(
            parse(&["fig3"]).unwrap().config().unwrap().fedavg.optimizer,
            ServerOpt::FedAvg
        );
        assert_eq!(
            parse(&["fig3", "--optimizer", "fedavg"])
                .unwrap()
                .config()
                .unwrap(),
            parse(&["fig3"]).unwrap().config().unwrap()
        );
        let err = parse(&["fig3", "--optimizer", "sgd"]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("fedavg") && msg.contains("fedadam") && msg.contains("fedprox"),
            "parse error must list the accepted names: {msg}"
        );
        assert!(parse(&["fig3", "--optimizer"]).is_err());
    }

    #[test]
    fn invalid_flag_combinations_fail_config_validation() {
        let inv = parse(&["fig3", "--rounds", "0"]).unwrap();
        assert_eq!(inv.config(), Err(fedpower_core::ConfigError::ZeroRounds));
    }

    #[test]
    fn missing_command_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["fig3", "--rounds"]).is_err());
        assert!(parse(&["fig3", "--rounds", "abc"]).is_err());
        assert!(parse(&["fig3", "--wat"]).is_err());
    }

    #[test]
    fn all_commands_roundtrip_through_display() {
        for cmd in [
            Command::Fig3,
            Command::Fig4,
            Command::Table3,
            Command::Fig5,
            Command::Pcrit,
            Command::Oracle,
            Command::Fleet,
            Command::List,
        ] {
            assert_eq!(Command::parse(&cmd.to_string()), Some(cmd));
        }
    }
}
