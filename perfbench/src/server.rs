//! `server_loopback`: `serve_on` on one thread over a listener bound to
//! 127.0.0.1:0, and two `run_client` threads, each training, uploading and
//! waiting for the broadcast before its next round (closed loop).

use crate::layers::{self, EndToEnd};
use crate::metrics::Report;
use crate::replica::{Call, ClientTrace, ReplicaClient};
use crate::{heap, stats, Opts};
use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_federated::{
    run_client, serve_on, AgentClient, Codec, FedAvgConfig, FederatedClient, JoinOptions,
    ServeOptions, ServeReport,
};
use fedpower_sim::rng::derive_seed;
use fedpower_telemetry::{Counter, Event, EventKind, Recorder, Span};
use fedpower_workloads::AppId;
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Warm-up rounds before the timed rounds of every session.
pub const WARMUP: u64 = 20;
/// Sessions per untraced run; `setup_s` is the median of their set-ups.
const SETUPS: usize = 9;
/// Server-side round deadline: a client silent this long is closed out,
/// which fails the round's accounting instead of stalling the run.
const ROUND_TIMEOUT: Duration = Duration::from_secs(5);
/// Client-side limits: one blocking read, and (re)connecting in total.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
const RECONNECT: Duration = Duration::from_secs(2);

/// The two devices and their federation: Table I's devices, T = 20 (one
/// SGD step per client per round), q8 uploads, FedAvg.
fn config() -> FedAvgConfig {
    FedAvgConfig {
        steps_per_round: 20,
        codec: Codec::Q8,
        ..FedAvgConfig::paper()
    }
}

const DEVICES: [[AppId; 2]; 2] = [[AppId::Fft, AppId::Lu], [AppId::Raytrace, AppId::Volrend]];

fn clients<C>(seed: u64, make: impl Fn(usize, DeviceEnvConfig, u64) -> C) -> Vec<C> {
    DEVICES
        .iter()
        .enumerate()
        .map(|(d, apps)| {
            make(
                d,
                DeviceEnvConfig::new(apps),
                derive_seed(seed, 20 + d as u64),
            )
        })
        .collect()
}

/// Per-round tallies of the server's events.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Uploads admitted fresh.
    pub admitted: u64,
    /// Straggler updates applied.
    pub stale: u64,
    /// Updates rejected at admission.
    pub rejected: u64,
    /// Upload retries.
    pub retries: u64,
    /// Byte-carrying frames (uploads received, downloads delivered).
    pub frames: u64,
    /// Their framed bytes.
    pub bytes: u64,
    /// Whether the round committed.
    pub committed: bool,
}

/// The server's recorder: commit times and per-round tallies always;
/// with `stamp_all`, every event with its arrival time.
#[derive(Debug)]
pub struct ServerRecorder {
    stamp_all: bool,
    /// Commits that open and close the timed section.
    window: (u64, u64),
    /// `(round, when)` of every commit.
    pub commits: Vec<(u64, Instant)>,
    /// Tallies, indexed by round.
    pub tallies: Vec<Tally>,
    /// Every event and when it arrived (`stamp_all` only).
    pub stamped: Vec<(Instant, Event)>,
    /// When each client joined.
    pub joined: Vec<Instant>,
    /// Peak live heap over the timed section.
    pub peak_mib: f64,
}

impl ServerRecorder {
    /// A recorder whose timed section runs from the commit of round
    /// `first` to the commit of round `last`.
    pub fn new(stamp_all: bool, first: u64, last: u64) -> Self {
        let rounds = last as usize + 1;
        ServerRecorder {
            stamp_all,
            window: (first, last),
            commits: Vec::with_capacity(rounds),
            tallies: vec![Tally::default(); rounds],
            stamped: Vec::new(),
            joined: Vec::new(),
            peak_mib: 0.0,
        }
    }

    /// When round `round` committed.
    pub fn commit_of(&self, round: u64) -> Option<Instant> {
        self.commits
            .iter()
            .find(|(r, _)| *r == round)
            .map(|&(_, at)| at)
    }
}

impl Recorder for ServerRecorder {
    fn event(&mut self, event: Event) {
        let now = (self.stamp_all
            || matches!(event.kind, EventKind::Aggregated | EventKind::ClientJoined))
        .then(Instant::now);
        let round = event.round as usize;
        if self.tallies.len() <= round {
            self.tallies.resize(round + 1, Tally::default());
        }
        let tally = &mut self.tallies[round];
        match event.kind {
            EventKind::Aggregated => {
                tally.committed = true;
                self.commits
                    .push((event.round, now.expect("commits are stamped")));
                if event.round == self.window.0 {
                    heap::reset_peak();
                }
                if event.round == self.window.1 {
                    let own = self.commits.capacity() * size_of::<(u64, Instant)>()
                        + self.tallies.capacity() * size_of::<Tally>();
                    self.peak_mib = heap::peak_mib(own);
                }
            }
            EventKind::UploadAdmitted => tally.admitted += 1,
            EventKind::StaleApplied => tally.stale += 1,
            EventKind::UpdateRejected => tally.rejected += 1,
            EventKind::UploadRetry => tally.retries += 1,
            EventKind::UploadReceived | EventKind::StaleReceived | EventKind::DownloadDelivered => {
                tally.frames += 1;
                tally.bytes += event.bytes;
            }
            EventKind::ClientJoined => self.joined.push(now.expect("joins are stamped")),
            _ => {}
        }
        if let (true, Some(at)) = (self.stamp_all, now) {
            self.stamped.push((at, event));
        }
    }

    fn counter(&mut self, _counter: Counter) {}

    fn span(&mut self, _span: Span) {}
}

/// One server session: set-up, `rounds` rounds, and everything measured.
#[derive(Debug)]
pub struct Session<C> {
    /// Construction start → commit of the last warm-up round.
    pub setup_s: f64,
    /// When the listener was bound.
    pub bound: Instant,
    /// What `serve_on` returned.
    pub served: ServeReport,
    /// The server's recorder.
    pub recorder: ServerRecorder,
    /// Each client's final installed global, and the client.
    pub clients: Vec<(Vec<f32>, C)>,
}

enum Done<C> {
    Server(Result<ServeReport, String>, ServerRecorder),
    Client(usize, Result<Vec<f32>, String>, C),
}

/// Runs one session of `rounds` rounds: binds 127.0.0.1:0 first, hands
/// the listener to `serve_on`, then starts the clients. Errors instead of
/// hanging when the server stops early or anything outlives `cap`.
pub fn session<C: FederatedClient + 'static>(
    start: Instant,
    mut clients: Vec<C>,
    rounds: u64,
    recorder: ServerRecorder,
    cap: Duration,
    halt_after: Option<u64>,
) -> Result<Session<C>, String> {
    let deadline = start + cap;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let bound = Instant::now();
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?
        .to_string();
    let config = config();
    let initial = clients[0].upload().params;
    let serve = ServeOptions {
        rounds,
        round_timeout: ROUND_TIMEOUT,
        halt_after,
        ..ServeOptions::new(clients.len(), config, initial)
    };
    let join = JoinOptions {
        rounds,
        reconnect: RECONNECT,
        read_timeout: READ_TIMEOUT,
        ..JoinOptions::new(addr, &config)
    };

    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    {
        let tx = tx.clone();
        let mut recorder = recorder;
        handles.push(thread::spawn(move || {
            let served = serve_on(listener, &serve, &mut recorder).map_err(|e| e.to_string());
            let _ = tx.send(Done::Server(served, recorder));
        }));
    }
    let count = clients.len();
    for (i, mut client) in clients.drain(..).enumerate() {
        let tx = tx.clone();
        let join = join.clone();
        handles.push(thread::spawn(move || {
            let global = run_client(&join, &mut client).map_err(|e| e.to_string());
            let _ = tx.send(Done::Client(i, global, client));
        }));
    }
    drop(tx);

    let mut server = None;
    let mut finished: Vec<Option<(Vec<f32>, C)>> = (0..count).map(|_| None).collect();
    let mut failure = None;
    for _ in 0..=count {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(Done::Server(served, recorder)) => {
                match &served {
                    Ok(r) if r.rounds_run < rounds => {
                        failure.get_or_insert(format!(
                            "the server stopped after {} of {rounds} rounds",
                            r.rounds_run
                        ));
                    }
                    Err(e) => {
                        failure.get_or_insert(format!("the server failed: {e}"));
                    }
                    Ok(_) => {}
                }
                server = Some((served, recorder));
            }
            Ok(Done::Client(i, global, client)) => match global {
                Ok(g) => finished[i] = Some((g, client)),
                Err(e) => {
                    failure.get_or_insert(format!("client {i} failed: {e}"));
                }
            },
            Err(_) => {
                // Something hangs past the cap: its thread cannot be
                // joined, so the caller must fail the whole run.
                return Err(format!(
                    "the session did not finish within {cap:?}{}",
                    failure.map_or(String::new(), |f| format!(" ({f})"))
                ));
            }
        }
    }
    for h in handles {
        h.join()
            .map_err(|_| "a session thread panicked".to_string())?;
    }
    if let Some(f) = failure {
        return Err(f);
    }
    let (served, recorder) = server.expect("the server reported");
    let served = served.expect("server errors are failures above");
    let setup_s = recorder
        .commit_of(recorder.window.0)
        .map(|at| (at - start).as_secs_f64())
        .ok_or("the warm-up never committed")?;
    Ok(Session {
        setup_s,
        bound,
        served,
        recorder,
        clients: finished
            .into_iter()
            .map(|c| c.expect("every client reported"))
            .collect(),
    })
}

/// FNV-1a over the bit patterns of a parameter vector.
pub fn fingerprint(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Commit-to-commit intervals of rounds `first + 1 ..= last`.
fn intervals(recorder: &ServerRecorder, first: u64, last: u64) -> Vec<f64> {
    (first + 1..=last)
        .filter_map(|r| Some((recorder.commit_of(r)? - recorder.commit_of(r - 1)?).as_secs_f64()))
        .collect()
}

/// Warm-up commit intervals of `s` (its second half, past start-up).
fn warm_intervals<C>(s: &Session<C>) -> Vec<f64> {
    intervals(&s.recorder, WARMUP / 2, WARMUP)
}

/// Timed rounds that fill `seconds` at the median of the `warm` commit
/// intervals (a finished session always has some).
fn rounds_for(warm: &[f64], seconds: f64) -> u64 {
    let interval = stats::median(warm).expect("finished sessions have warm-up commits");
    ((seconds / interval).ceil() as u64).clamp(10, 1_000_000)
}

fn untraced_session(seed: u64, timed: u64, cap: Duration) -> Result<Session<AgentClient>, String> {
    let start = Instant::now();
    let clients = clients(seed, |id, env, s| {
        AgentClient::new(id, ControllerConfig::paper(), env, s)
    });
    let last = WARMUP + timed;
    session(
        start,
        clients,
        last,
        ServerRecorder::new(false, WARMUP, last),
        cap,
        None,
    )
}

/// Checks a session's accounting and fingerprints; returns its
/// end-to-end view over the timed rounds.
fn checked<C>(report: &mut Report, s: &Session<C>, setups_s: Vec<f64>) -> EndToEnd {
    let last = s.served.rounds_run;
    let walls = intervals(&s.recorder, WARMUP, last);
    let mut e = EndToEnd {
        setups_s,
        elapsed_s: walls.iter().sum(),
        rounds_s: walls,
        peak_mib: s.recorder.peak_mib,
        ..EndToEnd::default()
    };
    let slots = s.clients.len() as u64;
    for r in WARMUP + 1..=last {
        let t = s
            .recorder
            .tallies
            .get(r as usize)
            .copied()
            .unwrap_or_default();
        report.check(t.committed && t.admitted == slots, || {
            format!("round {r} does not account for both clients: {t:?}")
        });
        let admitted = if t.committed { t.admitted + t.stale } else { 0 };
        e.tally(t.bytes, slots, admitted);
    }
    let server = fingerprint(&s.served.global);
    for (i, (global, _)) in s.clients.iter().enumerate() {
        report.check(fingerprint(global) == server, || {
            format!("client {i}'s final global differs from the server's")
        });
    }
    e
}

/// Runs `server_loopback`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let cap = opts.cap;
    let outcome = if opts.trace {
        traced(&mut report, opts, cap)
    } else {
        untraced(&mut report, opts, cap)
    };
    if let Err(e) = outcome {
        report.check(false, || e);
    }
    report
}

fn untraced(report: &mut Report, opts: &Opts, cap: Duration) -> Result<(), String> {
    // Every set-up but the last is a warm-up-only session; together they
    // size the last session's timed rounds to fill `seconds`.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm = Vec::new();
    for _ in 1..SETUPS {
        let s = untraced_session(opts.seed, 0, cap)?;
        setups.push(s.setup_s);
        warm.extend(warm_intervals(&s));
    }
    let s = untraced_session(opts.seed, rounds_for(&warm, opts.seconds), cap)?;
    setups.push(s.setup_s);
    let e = checked(report, &s, setups);
    layers::end_to_end(report, &e, &s.served.global);
    Ok(())
}

fn traced(report: &mut Report, opts: &Opts, cap: Duration) -> Result<(), String> {
    let probe = untraced_session(opts.seed, 0, cap)?;
    let timed = rounds_for(&warm_intervals(&probe), opts.seconds / 2.0);
    let plain = untraced_session(opts.seed, timed, cap)?;
    let plain_e2e = checked(report, &plain, Vec::new());

    let start = Instant::now();
    let replicas = clients(opts.seed, |id, env, s| {
        ReplicaClient::new(id, ControllerConfig::paper(), env, s, WARMUP)
    });
    let last = WARMUP + timed;
    let s = session(
        start,
        replicas,
        last,
        ServerRecorder::new(true, WARMUP, last),
        cap,
        None,
    )?;
    let e2e = checked(report, &s, Vec::new());
    layers::same_global(report, &plain.served.global, &s.served.global);
    report.attempted = timed;

    let traces: Vec<&ClientTrace> = s.clients.iter().map(|(_, c)| c.trace()).collect();
    layers::client_layers(report, &traces, WARMUP, timed);
    netserver(report, &s, &traces);
    let rate = |e: &EndToEnd| e.rounds_s.len() as f64 / e.elapsed_s;
    layers::overhead(report, rate(&plain_e2e), rate(&e2e));
    Ok(())
}

/// Server events of one kind, by `(round, client)`.
fn stamps(s: &Session<ReplicaClient>, kind: EventKind) -> Vec<(u64, usize, Instant)> {
    s.recorder
        .stamped
        .iter()
        .filter(|(_, e)| e.kind == kind)
        .map(|&(at, e)| (e.round, e.client.unwrap_or(usize::MAX), at))
        .collect()
}

fn find(stamps: &[(u64, usize, Instant)], round: u64, client: usize) -> Option<Instant> {
    stamps
        .iter()
        .find(|&&(r, c, _)| r == round && c == client)
        .map(|&(_, _, at)| at)
}

fn by_round(calls: &[Call], round: u64) -> Option<Call> {
    calls.iter().copied().find(|c| c.round == round)
}

/// Records the `netserver.*` and `engine.*` metrics, and the unaccounted
/// share along each round's blocking chain.
fn netserver(report: &mut Report, s: &Session<ReplicaClient>, traces: &[&ClientTrace]) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let signed_us = |from: Instant, to: Instant| {
        if to >= from {
            us(to - from)
        } else {
            -us(from - to)
        }
    };
    let received = stamps(s, EventKind::UploadReceived);
    let admitted = stamps(s, EventKind::UploadAdmitted);
    let delivered = stamps(s, EventKind::DownloadDelivered);
    let last = s.served.rounds_run;
    let rounds = last - WARMUP;

    let (mut recv_lag, mut deliver_lag) = (Vec::new(), Vec::new());
    let (mut commit, mut bcast) = (Vec::new(), Vec::new());
    let (mut wall, mut self_times) = (0.0, Vec::new());
    let (mut frames, mut bytes) = (0, 0);
    let mut engine = (0, 0, 0, 0);
    for r in WARMUP + 1..=last {
        let t = s.recorder.tallies[r as usize];
        frames += t.frames;
        bytes += t.bytes;
        engine.0 += t.admitted + t.stale;
        engine.1 += t.retries;
        engine.2 += t.rejected;
        engine.3 += t.stale;
        let (Some(prev), Some(now)) = (s.recorder.commit_of(r - 1), s.recorder.commit_of(r)) else {
            continue;
        };
        let round_admits: Vec<(usize, Instant)> = admitted
            .iter()
            .filter(|&&(rr, _, _)| rr == r)
            .map(|&(_, c, at)| (c, at))
            .collect();
        if let Some(&(_, last_admit)) = round_admits.iter().max_by_key(|(_, at)| *at) {
            commit.push(us(now - last_admit));
        }
        if let Some(last_delivery) = delivered
            .iter()
            .filter(|&&(rr, _, _)| rr == r)
            .map(|&(_, _, at)| at)
            .max()
        {
            bcast.push(us(last_delivery - now));
        }
        for (c, trace) in traces.iter().enumerate() {
            if let (Some(up), Some(got)) = (by_round(&trace.upload, r), find(&received, r, c)) {
                recv_lag.push(signed_us(up.end, got));
            }
            // Downloads arrive in order: the join ack, then one per
            // broadcast, so broadcast `r − 1` is download `r − 1`.
            if let (Some(sent), Some(dl)) = (
                find(&delivered, r - 1, c),
                trace.download.get(r as usize - 1),
            ) {
                deliver_lag.push(signed_us(sent, dl.start));
            }
        }

        // The blocking chain runs through the client admitted last.
        let Some(&(c, admit)) = round_admits.iter().max_by_key(|(_, at)| *at) else {
            continue;
        };
        let trace = traces[c];
        let (Some(dl), Some(train), Some(up), Some(got)) = (
            trace.download.get(r as usize - 1).copied(),
            by_round(&trace.train, r),
            by_round(&trace.upload, r),
            find(&received, r, c),
        ) else {
            continue;
        };
        wall += (now - prev).as_secs_f64();
        let secs = |from: Instant, to: Instant| signed_us(from, to) * 1e-6;
        self_times.extend([
            secs(prev, dl.start),   // broadcast and delivery to this client
            secs(dl.start, dl.end), // client download
            secs(train.start, train.end),
            secs(up.start, up.end),
            secs(up.end, got), // encode, write, pick-up, decode
            secs(got, admit),  // admission
            secs(admit, now),  // commit
        ]);
    }
    report.set_median("netserver.recv_lag_us", &recv_lag);
    report.set_median("netserver.commit_us", &commit);
    report.set_median("netserver.broadcast_us", &bcast);
    report.set_median("netserver.deliver_lag_us", &deliver_lag);
    let n = rounds.max(1) as f64;
    report.set("netserver.frames_per_round", frames as f64 / n, rounds);
    report.set("netserver.bytes_per_round", bytes as f64 / n, rounds);
    if let Some(all) = s.recorder.joined.iter().max() {
        report.set("netserver.join_ms", (*all - s.bound).as_secs_f64() * 1e3, 1);
    }
    let offered = rounds * s.clients.len() as u64;
    report.set(
        "engine.admit_ratio",
        engine.0 as f64 / offered.max(1) as f64,
        offered,
    );
    report.set("engine.retries_per_round", engine.1 as f64 / n, rounds);
    report.set("engine.rejected_per_round", engine.2 as f64 / n, rounds);
    report.set("engine.stale_per_round", engine.3 as f64 / n, rounds);
    layers::record_unaccounted(report, wall, &self_times, rounds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_server_that_stops_early_fails_the_session_instead_of_hanging() {
        let start = Instant::now();
        let agents = clients(7, |id, env, s| {
            AgentClient::new(id, ControllerConfig::paper(), env, s)
        });
        let outcome = session(
            start,
            agents,
            WARMUP + 50,
            ServerRecorder::new(false, WARMUP, WARMUP + 50),
            Duration::from_secs(60),
            Some(3),
        );
        let err = outcome.expect_err("a server halting at round 3 of 70 must fail the session");
        assert!(err.contains("stopped after 3"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "it must not stall"
        );
    }

    #[test]
    fn a_short_session_accounts_every_round() {
        let agents = clients(7, |id, env, s| {
            AgentClient::new(id, ControllerConfig::paper(), env, s)
        });
        let last = WARMUP + 10;
        let s = session(
            Instant::now(),
            agents,
            last,
            ServerRecorder::new(false, WARMUP, last),
            Duration::from_secs(60),
            None,
        )
        .expect("a clean session");
        let mut report = Report::default();
        let e = checked(&mut report, &s, vec![s.setup_s]);
        assert!(report.correct(), "{:?}", report.problems);
        assert_eq!(e.rounds_s.len(), 10);
        assert_eq!(e.admitted, 20);
    }
}
