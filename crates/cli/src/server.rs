//! Argument parsing and dispatch for the `fedpower-server` binary: the
//! standalone federation server (`serve`) and its device-side client
//! (`join`), speaking length-prefixed `fedpower-wire` frames over TCP.
//!
//! Both commands print a deterministic `final sha=…`-style summary line
//! so operational scripts (the CI kill-and-resume smoke job) can diff
//! runs without parsing floats.

use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_federated::{
    run_client, serve, AgentClient, Codec, FedAvgConfig, FederatedClient, JoinOptions,
    ServeOptions, ServerOpt, ServerOptKind,
};
use fedpower_telemetry::{Sink, SinkSpec};
use fedpower_workloads::AppId;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Usage text printed on parse failure.
pub const SERVER_USAGE: &str = "\
usage: fedpower-server serve --clients <n> [--addr 127.0.0.1:7070] [--rounds <r>]
           [--steps <t>] [--codec dense|q8|q16|topk:<frac>]
           [--optimizer fedavg|fedadam|fedprox] [--quorum <n>]
           [--checkpoint <path>] [--wait-for <n>] [--round-timeout-ms <ms>]
           [--halt-after <r>] [--telemetry off|summary|jsonl:<path>]
       fedpower-server join --id <i> [--addr 127.0.0.1:7070] [--rounds <r>]
           [--steps <t>] [--codec dense|q8|q16|topk:<frac>] [--seed <s>]
           [--app <name>] [--reconnect-ms <ms>]";

/// A parse failure, with the offending detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseServerError(pub String);

impl fmt::Display for ParseServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for ParseServerError {}

/// `fedpower-server serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// `--addr` — listen address (default `127.0.0.1:7070`).
    pub addr: String,
    /// `--clients` — client slots (required).
    pub clients: usize,
    /// `--rounds` — total rounds, checkpointed ones included.
    pub rounds: u64,
    /// `--steps` — local steps per round (advertised to clients).
    pub steps: u64,
    /// `--codec` — upload codec the federation runs with.
    pub codec: Codec,
    /// `--optimizer` — server commit stage.
    pub optimizer: ServerOptKind,
    /// `--quorum` — minimum admitted updates per round.
    pub quorum: usize,
    /// `--checkpoint` — checkpoint file; resumes from it when present.
    pub checkpoint: Option<PathBuf>,
    /// `--wait-for` — clients that must join before a round opens
    /// (default: all slots).
    pub wait_for: Option<usize>,
    /// `--round-timeout-ms` — wall-clock round deadline, the longest the
    /// server waits on one frame to a peer that stopped reading, and the
    /// longest a peer may stay silent before its first frame or in the
    /// middle of one. Must be positive: `serve` rejects 0.
    pub round_timeout_ms: u64,
    /// `--halt-after` — exit cleanly after checkpointing this round.
    pub halt_after: Option<u64>,
    /// `--telemetry` — event-stream sink.
    pub telemetry: SinkSpec,
}

/// `fedpower-server join` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinArgs {
    /// `--addr` — server address (default `127.0.0.1:7070`).
    pub addr: String,
    /// `--id` — this client's slot (required).
    pub id: usize,
    /// `--rounds` — stop once the server completed this many rounds.
    pub rounds: u64,
    /// `--steps` — local environment steps per round.
    pub steps: u64,
    /// `--codec` — upload codec (must match the server's admission).
    pub codec: Codec,
    /// `--seed` — base RNG seed; the effective seed is `seed + id` so a
    /// fleet launched from one script gets distinct streams.
    pub seed: u64,
    /// `--app` — workload; defaults to round-robin over the catalog by id.
    pub app: Option<AppId>,
    /// `--reconnect-ms` — budget for (re)joining across restarts, from
    /// the first attempt after the last join ack; a client with no ack
    /// within it gives up.
    pub reconnect_ms: u64,
}

/// A parsed `fedpower-server` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerInvocation {
    /// Run the federation server.
    Serve(ServeArgs),
    /// Run one federated client against a server.
    Join(JoinArgs),
}

fn parse_app(name: &str) -> Option<AppId> {
    AppId::ALL.into_iter().find(|a| a.name() == name)
}

fn value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, ParseServerError> {
    args.next()
        .ok_or_else(|| ParseServerError(format!("{flag} needs a value")))
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ParseServerError> {
    v.parse()
        .map_err(|_| ParseServerError(format!("bad {flag}: {v:?}")))
}

impl ServerInvocation {
    /// Parses `fedpower-server` arguments (everything after the binary
    /// name).
    ///
    /// # Errors
    ///
    /// [`ParseServerError`] naming the missing command, unknown flag, or
    /// unparsable value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ParseServerError> {
        let mut args = args.into_iter();
        let command = args
            .next()
            .ok_or_else(|| ParseServerError("missing command (serve or join)".into()))?;
        match command.as_str() {
            "serve" => Self::parse_serve(&mut args),
            "join" => Self::parse_join(&mut args),
            other => Err(ParseServerError(format!(
                "unknown command {other:?} (expected serve or join)"
            ))),
        }
    }

    fn parse_serve(args: &mut impl Iterator<Item = String>) -> Result<Self, ParseServerError> {
        let defaults = FedAvgConfig::default();
        let mut a = ServeArgs {
            addr: "127.0.0.1:7070".into(),
            clients: 0,
            rounds: defaults.rounds,
            steps: defaults.steps_per_round,
            codec: defaults.codec,
            optimizer: ServerOptKind::FedAvg,
            quorum: defaults.min_quorum,
            checkpoint: None,
            wait_for: None,
            round_timeout_ms: 30_000,
            halt_after: None,
            telemetry: SinkSpec::Off,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--addr" => a.addr = value(&flag, args)?,
                "--clients" => a.clients = number(&flag, &value(&flag, args)?)?,
                "--rounds" => a.rounds = number(&flag, &value(&flag, args)?)?,
                "--steps" => a.steps = number(&flag, &value(&flag, args)?)?,
                "--quorum" => a.quorum = number(&flag, &value(&flag, args)?)?,
                "--checkpoint" => a.checkpoint = Some(PathBuf::from(value(&flag, args)?)),
                "--wait-for" => a.wait_for = Some(number(&flag, &value(&flag, args)?)?),
                "--round-timeout-ms" => a.round_timeout_ms = number(&flag, &value(&flag, args)?)?,
                "--halt-after" => a.halt_after = Some(number(&flag, &value(&flag, args)?)?),
                "--codec" => {
                    let v = value(&flag, args)?;
                    a.codec = Codec::parse(&v).ok_or_else(|| {
                        ParseServerError(format!(
                            "bad --codec: {v:?} (expected dense, q8, q16, or topk:<frac>)"
                        ))
                    })?;
                }
                "--optimizer" => {
                    let v = value(&flag, args)?;
                    a.optimizer = ServerOptKind::parse(&v).ok_or_else(|| {
                        ParseServerError(format!(
                            "bad --optimizer: {v:?} (expected fedavg, fedadam, or fedprox)"
                        ))
                    })?;
                }
                "--telemetry" => {
                    let v = value(&flag, args)?;
                    a.telemetry = SinkSpec::parse(&v).ok_or_else(|| {
                        ParseServerError(format!(
                            "bad --telemetry: {v:?} (expected off, summary, or jsonl:<path>)"
                        ))
                    })?;
                }
                other => return Err(ParseServerError(format!("unknown flag {other:?}"))),
            }
        }
        if a.clients == 0 {
            return Err(ParseServerError(
                "serve requires --clients <n> (≥ 1)".into(),
            ));
        }
        Ok(ServerInvocation::Serve(a))
    }

    fn parse_join(args: &mut impl Iterator<Item = String>) -> Result<Self, ParseServerError> {
        let defaults = FedAvgConfig::default();
        let mut a = JoinArgs {
            addr: "127.0.0.1:7070".into(),
            id: usize::MAX,
            rounds: defaults.rounds,
            steps: defaults.steps_per_round,
            codec: defaults.codec,
            seed: 42,
            app: None,
            reconnect_ms: 30_000,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--addr" => a.addr = value(&flag, args)?,
                "--id" => a.id = number(&flag, &value(&flag, args)?)?,
                "--rounds" => a.rounds = number(&flag, &value(&flag, args)?)?,
                "--steps" => a.steps = number(&flag, &value(&flag, args)?)?,
                "--seed" => a.seed = number(&flag, &value(&flag, args)?)?,
                "--reconnect-ms" => a.reconnect_ms = number(&flag, &value(&flag, args)?)?,
                "--codec" => {
                    let v = value(&flag, args)?;
                    a.codec = Codec::parse(&v).ok_or_else(|| {
                        ParseServerError(format!(
                            "bad --codec: {v:?} (expected dense, q8, q16, or topk:<frac>)"
                        ))
                    })?;
                }
                "--app" => {
                    let v = value(&flag, args)?;
                    a.app = Some(parse_app(&v).ok_or_else(|| {
                        let names: Vec<_> = AppId::ALL.iter().map(|x| x.name()).collect();
                        ParseServerError(format!(
                            "bad --app: {v:?} (expected one of {})",
                            names.join(", ")
                        ))
                    })?);
                }
                other => return Err(ParseServerError(format!("unknown flag {other:?}"))),
            }
        }
        if a.id == usize::MAX {
            return Err(ParseServerError("join requires --id <i>".into()));
        }
        Ok(ServerInvocation::Join(a))
    }
}

/// FNV-1a over the little-endian bytes of `params` — a stable fingerprint
/// scripts can diff without parsing floats.
pub fn fingerprint(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for b in p.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The federation config a `serve`/`join` pair agrees on.
fn config_of(
    rounds: u64,
    steps: u64,
    codec: Codec,
    opt: ServerOptKind,
    quorum: usize,
) -> FedAvgConfig {
    FedAvgConfig {
        rounds,
        steps_per_round: steps,
        codec,
        optimizer: ServerOpt::from_kind(opt),
        min_quorum: quorum,
        ..FedAvgConfig::default()
    }
}

/// The zero-initialized global model matching the default controller
/// architecture — both drivers derive θ₁ the same way, so a fleet
/// launched from defaults always agrees on the shape.
fn initial_global() -> Vec<f32> {
    let mut probe = AgentClient::new(
        0,
        ControllerConfig::default(),
        DeviceEnvConfig::new(&[AppId::Fft]),
        0,
    );
    probe.upload().params.iter().map(|_| 0.0).collect()
}

/// Runs a parsed invocation to completion.
///
/// # Errors
///
/// Propagates federation and sink I/O failures.
pub fn run(inv: &ServerInvocation) -> Result<(), Box<dyn Error>> {
    match inv {
        ServerInvocation::Serve(a) => run_serve(a),
        ServerInvocation::Join(a) => run_join(a),
    }
}

fn run_serve(a: &ServeArgs) -> Result<(), Box<dyn Error>> {
    let config = config_of(a.rounds, a.steps, a.codec, a.optimizer, a.quorum);
    let mut opts = ServeOptions::new(a.clients, config, initial_global());
    opts.addr = a.addr.clone();
    opts.checkpoint = a.checkpoint.clone();
    if let Some(w) = a.wait_for {
        opts.wait_for = w;
    }
    opts.round_timeout = Duration::from_millis(a.round_timeout_ms);
    opts.halt_after = a.halt_after;

    let sink = Sink::open(&a.telemetry)?;
    let mut recorder = sink.recorder();
    let report = serve(&opts, recorder.as_mut())?;
    if let Some(summary) = sink.finish()? {
        println!("{summary}");
    }
    if let Some(from) = report.resumed_from {
        println!("resumed from checkpoint at round {from}");
    }
    println!(
        "server done addr={} rounds_run={} rounds_committed={} global_fnv={:016x}",
        report.addr,
        report.rounds_run,
        report.rounds_committed,
        fingerprint(&report.global)
    );
    Ok(())
}

fn run_join(a: &JoinArgs) -> Result<(), Box<dyn Error>> {
    let config = config_of(a.rounds, a.steps, a.codec, ServerOptKind::FedAvg, 1);
    let app = a.app.unwrap_or(AppId::ALL[a.id % AppId::ALL.len()]);
    let mut client = AgentClient::new(
        a.id,
        ControllerConfig::default(),
        DeviceEnvConfig::new(&[app]),
        a.seed.wrapping_add(a.id as u64),
    );
    let mut join = JoinOptions::new(a.addr.clone(), &config);
    join.reconnect = Duration::from_millis(a.reconnect_ms);
    let global = run_client(&join, &mut client)?;
    println!(
        "client {} done app={} rounds={} global_fnv={:016x}",
        a.id,
        app.name(),
        a.rounds,
        fingerprint(&global)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerInvocation, ParseServerError> {
        ServerInvocation::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn serve_parses_required_and_optional_flags() {
        let inv = parse(&[
            "serve",
            "--clients",
            "4",
            "--rounds",
            "10",
            "--codec",
            "q8",
            "--checkpoint",
            "/tmp/ck.fpck",
            "--halt-after",
            "5",
            "--telemetry",
            "jsonl:/tmp/t.jsonl",
        ])
        .unwrap();
        let ServerInvocation::Serve(a) = inv else {
            panic!("expected serve");
        };
        assert_eq!(a.clients, 4);
        assert_eq!(a.rounds, 10);
        assert_eq!(a.codec, Codec::Q8);
        assert_eq!(a.checkpoint, Some(PathBuf::from("/tmp/ck.fpck")));
        assert_eq!(a.halt_after, Some(5));
        assert_eq!(a.telemetry, SinkSpec::Jsonl(PathBuf::from("/tmp/t.jsonl")));
    }

    #[test]
    fn serve_requires_a_client_count() {
        assert!(parse(&["serve"]).is_err());
        assert!(parse(&["serve", "--clients", "0"]).is_err());
    }

    #[test]
    fn join_parses_and_defaults_the_app_by_id() {
        let inv = parse(&["join", "--id", "3", "--seed", "7", "--app", "ocean"]).unwrap();
        let ServerInvocation::Join(a) = inv else {
            panic!("expected join");
        };
        assert_eq!(a.id, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.app, Some(AppId::Ocean));
        let ServerInvocation::Join(b) = parse(&["join", "--id", "1"]).unwrap() else {
            panic!("expected join");
        };
        assert_eq!(b.app, None);
    }

    #[test]
    fn unknown_commands_and_flags_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["watch"]).is_err());
        assert!(parse(&["serve", "--clients", "2", "--tokio"]).is_err());
        assert!(parse(&["join", "--id", "0", "--app", "fortnite"]).is_err());
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        assert_ne!(fingerprint(&[1.0, 2.0]), fingerprint(&[2.0, 1.0]));
        assert_ne!(fingerprint(&[1.0]), fingerprint(&[1.0, 0.0]));
        assert_eq!(fingerprint(&[0.5; 8]), fingerprint(&[0.5; 8]));
    }
}
