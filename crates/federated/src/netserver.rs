//! The standalone federation server and its network client driver: real
//! TCP sockets driving the same sans-I/O [`RoundEngine`] the in-process
//! drivers use.
//!
//! [`serve`] waits on its sockets instead of polling them, with std
//! threads and no async runtime. An acceptor thread blocks in `accept`.
//! Every accepted connection gets a reader thread that blocks in `read`
//! and owns the connection's [`FrameReassembler`], so partial reads
//! never desynchronize a stream. The readers send complete frames down
//! one channel to the engine thread. That thread alone owns the engine,
//! the recorder, the checkpoint and every connection's write half, and
//! turns each frame into an engine [`Frame`]. The protocol decisions
//! (admission, staleness weighting, quorum, commit) stay in the engine;
//! this module owns only sockets, threads, the wall clock, and the
//! checkpoint file.
//!
//! # Protocol
//!
//! Frames on the wire are `fedpower-wire` envelopes behind the stream
//! length prefix ([`fedpower_wire::stream`]):
//!
//! 1. A client connects and sends a join request naming its slot. A
//!    request for a slot another connection holds is refused by closing
//!    the newcomer, and so is a second join on a connection that already
//!    holds a slot. The exception is a holder that has *lapsed*: it was
//!    still pending when a round closed at its deadline, and has sent no
//!    frame since that round opened (a device that lost power sends no
//!    FIN, so its socket can stay open for hours). A join for a lapsed
//!    holder's slot reaps the holder like a closed connection, then
//!    proceeds.
//! 2. The server replies with a join ack carrying `(rounds_completed, θ)`
//!    — a freshly started experiment acks round 0, a restarted server
//!    acks wherever its checkpoint left off.
//! 3. The client trains round `rounds_completed + 1` locally and uploads.
//!    A round takes at most one fresh and one stale upload per slot. An
//!    upload stamped with a round that is not open yet is parked until
//!    that round opens: at most one fresh and one stale frame per slot and
//!    round, and none stamped more than two rounds past the last completed
//!    one, further ahead than any legitimate client can be.
//! 4. When every joined client's upload has resolved — or the round
//!    deadline expires, closing out stragglers via [`RoundEngine::tick`]
//!    — the server commits, checkpoints, broadcasts the new global, and
//!    the cycle repeats from 3.
//!
//! # Churn
//!
//! Joins and leaves map onto the same accounting the in-process fault
//! plans use: a connection dying mid-round becomes [`Frame::Offline`]
//! (the round proceeds without it, `clients_offline` accounting), an
//! upload that trained against an earlier round becomes
//! [`Frame::StaleBytes`] (staleness-discounted admission), and a
//! rejoining client is re-admitted through the ordinary join handshake.
//! [`EventKind::ClientJoined`] / [`EventKind::ClientLeft`] record the
//! churn itself — events only this driver emits, so the in-process
//! telemetry streams (and their golden hashes) are unchanged.
//!
//! # Checkpointed resume
//!
//! After every round the engine state is written to the checkpoint path
//! (atomic temp-file + rename, CRC-sealed — see
//! [`fedpower_wire::checkpoint`]). Checkpoints are taken at *round
//! boundaries only*: a server killed mid-round restarts from the last
//! boundary and replays the interrupted round. Round `r` is broadcast
//! before it is checkpointed, so a client may already have trained
//! `r + 1` when a restarted server replays `r`. Clients therefore keep
//! the upload frames of the last two rounds they trained, and a replayed
//! round re-admits the *same* bytes — and because streaming aggregation
//! is admission-order independent ([`crate::ExactSum`]), the replayed
//! commit is bit-identical to the one the crash destroyed.

use crate::client::FederatedClient;
use crate::engine::{EnginePolicy, Frame, RoundEngine};
use crate::error::FedError;
use crate::federation::FedAvgConfig;
use crate::wire;
use fedpower_telemetry::{Event, EventKind, Recorder};
use fedpower_wire::checkpoint::Checkpoint;
use fedpower_wire::stream::{prefix_frame, read_frame, FrameReassembler};
use fedpower_wire::{Envelope, MsgKind, Payload};
use std::collections::BTreeSet;
use std::io::{self, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of one [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7070` (port 0 picks a free port;
    /// the bound address is echoed through [`ServeReport::addr`]).
    pub addr: String,
    /// Client slots: clients identify as `0..slots` in their join
    /// requests; anything else, or a slot another connection holds, is
    /// refused.
    pub slots: usize,
    /// Total rounds to run (absolute — a resumed server counts the
    /// checkpointed rounds toward this target).
    pub rounds: u64,
    /// The federation policy (quorum, optimizer, codec, staleness).
    pub config: FedAvgConfig,
    /// Initial global model θ₁. Must be non-empty and must match what a
    /// restored checkpoint expects; ignored otherwise after a restore.
    pub initial_global: Vec<f32>,
    /// Checkpoint file. When the file exists at startup the server
    /// resumes from it; every completed round overwrites it atomically.
    /// `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// How many clients must have joined before a round opens. Rounds
    /// wait for this population, so deterministic experiments get
    /// deterministic participant sets. Clamped to `1..=slots`.
    pub wait_for: usize,
    /// Wall-clock budget per round: when it expires the engine's
    /// deadline tick closes out still-pending clients as offline. It
    /// also bounds each frame the server writes and each read: a peer
    /// that stops reading is closed once a write has waited this long,
    /// and so is a peer silent this long before its first frame or in
    /// the middle of a frame. Must be positive.
    pub round_timeout: Duration,
    /// Test hook: exit cleanly right after checkpointing this round
    /// (simulates a crash at a round boundary without signal plumbing;
    /// the kill-and-resume CI job uses a real SIGKILL instead).
    pub halt_after: Option<u64>,
}

impl ServeOptions {
    /// Server options for `slots` clients with the given federation
    /// config and initial model: listen on an ephemeral local port, wait
    /// for the full population each round, 30-second round deadline, no
    /// checkpoint.
    pub fn new(slots: usize, config: FedAvgConfig, initial_global: Vec<f32>) -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            slots,
            rounds: config.rounds,
            config,
            initial_global,
            checkpoint: None,
            wait_for: slots,
            round_timeout: Duration::from_secs(30),
            halt_after: None,
        }
    }
}

/// What a completed (or halted) [`serve`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The address the listener actually bound (resolves port 0).
    pub addr: String,
    /// Rounds run in total, including checkpointed ones.
    pub rounds_run: u64,
    /// Rounds that met quorum and committed.
    pub rounds_committed: u64,
    /// The final global model θ.
    pub global: Vec<f32>,
    /// The round count the server resumed from, when it restored a
    /// checkpoint at startup.
    pub resumed_from: Option<u64>,
}

/// One accepted connection as the engine thread sees it: the write half
/// of its socket (its reader thread holds a clone), and the slot it
/// identified as (after its join request).
struct Conn {
    id: u64,
    stream: TcpStream,
    slot: Option<usize>,
    dead: bool,
    /// Whether it has sent a frame since the last round opened.
    heard: bool,
    /// Whether its slot has lapsed: it was still pending when a round
    /// closed at its deadline, and has sent no frame since that round
    /// opened. A join for a lapsed slot takes it over.
    lapsed: bool,
}

/// What the acceptor and the readers send the engine thread.
enum Inbound {
    /// A new connection (numbered in accept order) and its write half.
    Accepted(u64, TcpStream),
    /// One complete frame from a connection.
    Frame(u64, Vec<u8>),
    /// A connection's reader ended: EOF, a read error, a stalled peer,
    /// or a reader that could not be started.
    Closed(u64),
    /// `accept` failed; the acceptor has stopped.
    Failed(io::Error),
}

/// The engine thread's side of the network: the acceptor, the inbox
/// every thread sends to, and the live connections. Dropping it (on
/// every exit from [`serve_on`], a panic included) stops and joins the
/// acceptor, which releases the listener, then shuts every accepted
/// socket down and waits until every reader has returned.
struct Sockets {
    inbox: Receiver<Inbound>,
    conns: Vec<Conn>,
    stop: Arc<AtomicBool>,
    /// An address that reaches the listener, to wake the acceptor.
    wake: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Sockets {
    /// Starts the acceptor on `listener`; every connection it accepts
    /// reads with `read_timeout`.
    fn start(listener: TcpListener, read_timeout: Duration) -> io::Result<Sockets> {
        listener.set_nonblocking(false)?;
        let mut wake = listener.local_addr()?;
        // Not every platform routes a connect to the unspecified address.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (tx, inbox) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            thread::Builder::new()
                .name("fedpower-accept".to_string())
                .spawn(move || accept_loop(&listener, &tx, &stop, read_timeout))?
        };
        Ok(Sockets {
            inbox,
            conns: Vec::new(),
            stop,
            wake,
            acceptor: Some(acceptor),
        })
    }

    /// Drops the connections marked dead, in accept order. A joined
    /// client leaving mid-round is the fault plans' Offline for this
    /// round.
    fn reap(
        &mut self,
        engine: &mut RoundEngine,
        recorder: &mut dyn Recorder,
        ledger: &mut RoundLedger,
    ) {
        self.conns.retain(|conn| {
            if !conn.dead {
                return true;
            }
            if let Some(slot) = conn.slot {
                // Its parked uploads leave with it: whoever holds the
                // slot next must not be credited with them.
                ledger.parked.retain(|&(s, _, _)| s != slot);
                let open = engine.open_round();
                if open.is_some() && engine.upload_pending(slot) {
                    engine.handle(Frame::Offline { client: slot }, recorder);
                }
                recorder.event(Event::client_scoped(
                    EventKind::ClientLeft,
                    open.unwrap_or_else(|| engine.rounds_run()),
                    slot,
                ));
                engine.leave(slot);
            }
            // The reader holds a clone of the socket: the shutdown ends
            // it, and the peer reads EOF.
            let _ = conn.stream.shutdown(Shutdown::Both);
            false
        });
    }

    /// Reaps the holder of `slot` like a closed connection if it has
    /// lapsed, so that a join for the slot can proceed: a device that
    /// lost power sends no FIN, and TCP may keep its socket for hours.
    fn evict_lapsed(
        &mut self,
        slot: usize,
        engine: &mut RoundEngine,
        recorder: &mut dyn Recorder,
        ledger: &mut RoundLedger,
    ) {
        if let Some(holder) = self
            .conns
            .iter_mut()
            .find(|c| c.slot == Some(slot) && c.lapsed)
        {
            holder.dead = true;
            self.reap(engine, recorder, ledger);
        }
    }
}

impl Drop for Sockets {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // A connection wakes the acceptor from `accept`; it sees the
            // flag and returns, dropping the listener. A refused connect
            // means it has already returned.
            let _ = TcpStream::connect(self.wake);
            let _ = acceptor.join();
        }
        for conn in &self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // Every reader holds a sender, so the inbox disconnects once the
        // last reader has returned. A connection accepted but not yet seen
        // by the engine thread is shut down here, so its reader ends too.
        for inbound in self.inbox.iter() {
            if let Inbound::Accepted(_, stream) = inbound {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// The acceptor thread: blocks in `accept`, hands each connection's write
/// half to the engine thread, then starts the connection's reader.
fn accept_loop(
    listener: &TcpListener,
    tx: &Sender<Inbound>,
    stop: &AtomicBool,
    read_timeout: Duration,
) {
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                let _ = tx.send(Inbound::Failed(e));
                return;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let Ok(reader) = stream
            .set_read_timeout(Some(read_timeout))
            .and_then(|()| stream.try_clone())
        else {
            continue;
        };
        if tx.send(Inbound::Accepted(id, stream)).is_err() {
            return;
        }
        let frames = tx.clone();
        let started = thread::Builder::new()
            .name("fedpower-conn".to_string())
            .spawn(move || read_loop(id, reader, &frames));
        if started.is_err() {
            let _ = tx.send(Inbound::Closed(id));
        }
    }
}

/// A connection's reader thread: sends each complete frame to the engine
/// thread, and `Closed` once the connection ends. A read timeout ends it
/// too, unless the peer has sent a frame and is between frames: a joined
/// client may be silent for longer than a round, while it waits for the
/// quorum, but a peer silent before its first frame, or stalled in the
/// middle of one, is closed.
fn read_loop(id: u64, mut stream: TcpStream, tx: &Sender<Inbound>) {
    let mut reasm = FrameReassembler::new();
    let mut framed = false;
    loop {
        match read_frame(&mut stream, &mut reasm) {
            Ok(frame) => {
                framed = true;
                if tx.send(Inbound::Frame(id, frame)).is_err() {
                    return;
                }
            }
            Err(e) => {
                let timed_out = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                let idle = timed_out && framed && reasm.buffered() == 0;
                if !idle && e.kind() != ErrorKind::Interrupted {
                    break;
                }
            }
        }
    }
    let _ = tx.send(Inbound::Closed(id));
}

/// Per-round driver state the engine deliberately does not own.
#[derive(Default)]
struct RoundLedger {
    /// Slots that already had a fresh upload fed in this round (a
    /// reconnecting client re-sends its cached round upload; the
    /// duplicate must not be admitted twice).
    fed: BTreeSet<usize>,
    /// Slots that already had a stale upload (trained against an earlier
    /// round) fed in this round. Gated apart from `fed`: a late upload
    /// must not shadow the slot's fresh one, which the round still waits
    /// for.
    fed_stale: BTreeSet<usize>,
    /// Uploads that arrived while no round they fit was open (a client
    /// racing ahead of the quorum wait), in arrival order as
    /// `(slot, stamped round, frame)`; drained right after the next round
    /// opens. [`park`] bounds it to three frames per slot.
    parked: Vec<(usize, u64, Vec<u8>)>,
}

/// Runs the standalone federation server until `opts.rounds` rounds have
/// completed (or the `halt_after` hook fires).
///
/// The engine records straight into `recorder`; the server keeps no
/// `RoundReport` (`telemetry_replay` rebuilds reports from the log).
///
/// # Errors
///
/// [`FedError::Io`] when the listener cannot bind or accept, its
/// acceptor thread cannot be started, or a checkpoint cannot be
/// written/restored; [`FedError::InvalidConfig`] when there are no
/// client slots, the round timeout is zero, [`RoundEngine::new`] rejects
/// the initial model or policy, or a restored checkpoint disagrees with
/// the configuration. Individual connection failures are *not* errors —
/// they are churn, accounted through the engine.
pub fn serve(opts: &ServeOptions, recorder: &mut dyn Recorder) -> Result<ServeReport, FedError> {
    // A restarted server races the kernel's TIME_WAIT hold on its old
    // port; retry AddrInUse briefly instead of failing the resume.
    let t0 = Instant::now();
    let listener = loop {
        match TcpListener::bind(&opts.addr) {
            Ok(l) => break l,
            Err(e)
                if e.kind() == ErrorKind::AddrInUse && t0.elapsed() < Duration::from_secs(15) =>
            {
                thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e.into()),
        }
    };
    serve_on(listener, opts, recorder)
}

/// [`serve`] on an already-bound listener — for callers that need the
/// port before the server runs (tests, systemd-style socket activation).
/// `opts.addr` is ignored; the listener's address is authoritative.
///
/// # Errors
///
/// As [`serve`].
pub fn serve_on(
    listener: TcpListener,
    opts: &ServeOptions,
    recorder: &mut dyn Recorder,
) -> Result<ServeReport, FedError> {
    if opts.slots == 0 {
        return Err(FedError::InvalidConfig(
            "the server needs at least one client slot".to_string(),
        ));
    }
    // A zero timeout would expire every round before an upload could
    // arrive, and std refuses it as a socket read or write timeout.
    if opts.round_timeout.is_zero() {
        return Err(FedError::InvalidConfig(
            "the round timeout must be positive".to_string(),
        ));
    }
    let addr = listener.local_addr()?.to_string();

    let mut policy = EnginePolicy::from_config(&opts.config);
    // One tick per round: the driver owns the wall clock and spends the
    // whole deadline budget in a single expiry.
    policy.deadline_ticks = Some(1);
    let mut engine = RoundEngine::new(
        opts.initial_global.clone(),
        policy,
        (0..opts.slots).collect(),
    )?;
    let mut resumed_from = None;
    if let Some(path) = &opts.checkpoint {
        if path.exists() {
            let ck = Checkpoint::load(path)?;
            let at = ck.rounds_run;
            engine.restore(ck)?;
            resumed_from = Some(at);
        }
    }
    let wait_for = opts.wait_for.clamp(1, opts.slots);

    let mut net = Sockets::start(listener, opts.round_timeout)?;
    let mut ledger = RoundLedger::default();
    let mut round_opened: Option<Instant> = None;

    while engine.rounds_run() < opts.rounds {
        net.reap(&mut engine, recorder, &mut ledger);

        // Round management.
        if round_opened.is_none() {
            let joined = (0..opts.slots).filter(|&s| engine.joined(s)).count();
            if joined >= wait_for {
                engine.handle(Frame::BeginRound, recorder);
                round_opened = Some(Instant::now());
                ledger.fed.clear();
                ledger.fed_stale.clear();
                for conn in &mut net.conns {
                    conn.heard = false;
                }
                for (slot, origin, bytes) in std::mem::take(&mut ledger.parked) {
                    if engine.joined(slot) {
                        dispatch_upload(slot, origin, bytes, &mut engine, recorder, &mut ledger);
                    }
                }
            }
        }
        if let Some(t0) = round_opened {
            let expired = t0.elapsed() >= opts.round_timeout;
            if expired {
                for conn in &mut net.conns {
                    let pending = conn.slot.is_some_and(|s| engine.upload_pending(s));
                    conn.lapsed |= pending && !conn.heard;
                }
                engine.tick(recorder);
            }
            if expired || engine.pending_uploads() == 0 {
                let round = engine.rounds_run() + 1;
                engine.handle(Frame::CloseRound, recorder);
                broadcast(
                    &mut net.conns,
                    round,
                    &mut engine,
                    recorder,
                    opts.round_timeout,
                );
                engine.handle(Frame::EndRound, recorder);
                round_opened = None;
                // Make the round's telemetry durable before the
                // checkpoint that covers it: a crash-recovery replay
                // (`telemetry_replay`) must never see the log behind
                // the checkpoint.
                recorder.flush();
                if let Some(path) = &opts.checkpoint {
                    engine.checkpoint().save(path)?;
                }
                if opts.halt_after == Some(engine.rounds_run()) {
                    break;
                }
                continue;
            }
        }

        // Block until the acceptor or a reader has something: a frame
        // wakes the loop at once, and an open round's deadline bounds
        // the wait.
        let next = match round_opened {
            Some(t0) => net
                .inbox
                .recv_timeout(opts.round_timeout.saturating_sub(t0.elapsed())),
            None => net.inbox.recv().map_err(RecvTimeoutError::from),
        };
        match next {
            Ok(Inbound::Accepted(id, stream)) => net.conns.push(Conn {
                id,
                stream,
                slot: None,
                dead: false,
                heard: false,
                lapsed: false,
            }),
            Ok(Inbound::Frame(id, frame)) => {
                let env = Envelope::decode(&frame).ok();
                if let Some(conn) = net.conns.iter_mut().find(|c| c.id == id) {
                    conn.heard = true;
                    conn.lapsed = false;
                }
                if let Some(env) = env.as_ref().filter(|e| e.kind() == MsgKind::JoinRequest) {
                    net.evict_lapsed(env.client_id as usize, &mut engine, recorder, &mut ledger);
                }
                if let Some(conn) = net.conns.iter_mut().find(|c| c.id == id) {
                    conn.dead = !handle_frame(
                        conn,
                        frame,
                        env,
                        &mut engine,
                        recorder,
                        &mut ledger,
                        opts.round_timeout,
                    );
                }
            }
            Ok(Inbound::Closed(id)) => {
                if let Some(conn) = net.conns.iter_mut().find(|c| c.id == id) {
                    conn.dead = true;
                }
            }
            Ok(Inbound::Failed(e)) => return Err(e.into()),
            // The deadline passed: the next pass ticks it.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(FedError::Io("the acceptor thread stopped".to_string()))
            }
        }
    }

    Ok(ServeReport {
        addr,
        rounds_run: engine.rounds_run(),
        rounds_committed: engine.rounds_committed(),
        global: engine.global().to_vec(),
        resumed_from,
    })
}

/// Processes one complete frame from `conn` (`env` is its decoded
/// envelope, `None` when it does not decode), giving a reply at most
/// `write_budget` to go out. Returns `false` when the connection violated
/// the protocol or stalled, and should be dropped.
fn handle_frame(
    conn: &mut Conn,
    frame: Vec<u8>,
    env: Option<Envelope>,
    engine: &mut RoundEngine,
    recorder: &mut dyn Recorder,
    ledger: &mut RoundLedger,
    write_budget: Duration,
) -> bool {
    let Some(env) = env else {
        // A structurally broken frame from an identified, not-yet-fed
        // connection still reaches the engine (when a round is open) so
        // the rejection is accounted; anything else is simply dropped.
        return match conn.slot {
            Some(slot) if engine.open_round().is_some() && !ledger.fed.contains(&slot) => {
                ledger.fed.insert(slot);
                engine.handle(
                    Frame::Upload {
                        client: slot,
                        sent_len: frame.len(),
                        bytes: frame,
                    },
                    recorder,
                );
                true
            }
            _ => false,
        };
    };
    match env.kind() {
        MsgKind::JoinRequest => {
            let slot = env.client_id as usize;
            // A slot held by a live connection is not up for grabs: the
            // newcomer is closed before any ack or engine frame. A client
            // reconnecting before its old connection was reaped retries.
            // (A holder that had lapsed was reaped before this frame.)
            // A connection holds at most one slot, since only its last
            // one would be reaped when it closes.
            if conn.slot.is_some() || slot >= engine.client_count() || engine.joined(slot) {
                return false;
            }
            let ack = wire::encode_join_ack_at(engine.rounds_run(), slot, engine.global());
            let ack_len = ack.len();
            if write_frame(&mut conn.stream, &ack, write_budget).is_err() {
                return false;
            }
            // The slot is taken only once the ack is out: a peer that
            // never read it leaves without ever having joined.
            conn.slot = Some(slot);
            engine.handle(
                Frame::Join {
                    client: slot,
                    frame_len: ack_len,
                },
                recorder,
            );
            recorder.event(Event::client_scoped(
                EventKind::ClientJoined,
                engine.rounds_run(),
                slot,
            ));
            true
        }
        MsgKind::ModelUpload | MsgKind::CodecUpload => {
            let Some(slot) = conn.slot else {
                return false; // uploads before the join handshake
            };
            dispatch_upload(slot, env.round, frame, engine, recorder, ledger);
            true
        }
        // Clients never send acks or broadcasts.
        MsgKind::JoinAck | MsgKind::Broadcast => false,
    }
}

/// Routes an upload frame stamped with round `origin` to the right
/// engine admission path: fresh for the open round, staleness-discounted
/// when it trained against an earlier round, parked when no round it
/// fits is open yet. A round feeds at most one fresh and one stale upload
/// per slot, as [`crate::Federation`] feeds a round's fresh uploads and
/// then each link's late ones; re-sent duplicates (a client re-joining
/// mid-round re-submits its cached upload) are dropped — the engine
/// already folded the first copy.
fn dispatch_upload(
    slot: usize,
    origin: u64,
    bytes: Vec<u8>,
    engine: &mut RoundEngine,
    recorder: &mut dyn Recorder,
    ledger: &mut RoundLedger,
) {
    match engine.open_round() {
        Some(round) if is_stale(origin, round) => {
            if ledger.fed_stale.insert(slot) {
                engine.handle(
                    Frame::StaleBytes {
                        client: slot,
                        bytes,
                    },
                    recorder,
                );
            }
        }
        Some(_) if ledger.fed.contains(&slot) => {}
        Some(round) if origin == round || origin == 0 => {
            ledger.fed.insert(slot);
            let sent_len = bytes.len();
            engine.handle(
                Frame::Upload {
                    client: slot,
                    sent_len,
                    bytes,
                },
                recorder,
            );
        }
        // origin > round (a replayed-round race) or no round open: hold
        // the frame until its round opens.
        _ => park(&mut ledger.parked, slot, origin, bytes, engine.rounds_run()),
    }
}

/// Whether an upload stamped with round `origin` is stale in `round`: it
/// trained against an earlier round. An unstamped upload (`origin` 0)
/// counts as fresh.
fn is_stale(origin: u64, round: u64) -> bool {
    origin != 0 && origin < round
}

/// Holds an upload stamped with round `origin` until a round it fits
/// opens, keeping at most three frames per slot: a stale one and a fresh
/// one for the next round (`rounds_run + 1`), and one for the round
/// after.
///
/// - A frame stamped further ahead than `rounds_run + 2` is dropped: no
///   legitimate client is ever there. The server never broadcasts round
///   `r + 1` before it has saved round `r`, so a client holding broadcast
///   `r` faces a server that has run at least `r − 1` rounds, even one
///   restarted from its last checkpoint, and trains at most `r + 1`.
/// - A later frame for a round and kind (stale or fresh) that the slot
///   already has parked is dropped, as a duplicate would be in the open
///   round.
fn park(
    parked: &mut Vec<(usize, u64, Vec<u8>)>,
    slot: usize,
    origin: u64,
    bytes: Vec<u8>,
    rounds_run: u64,
) {
    let next = rounds_run + 1;
    if origin > next + 1 {
        return;
    }
    let round = origin.max(next);
    let stale = is_stale(origin, next);
    if !parked
        .iter()
        .any(|&(s, o, _)| s == slot && o.max(next) == round && is_stale(o, next) == stale)
    {
        parked.push((slot, origin, bytes));
    }
}

/// Broadcasts the round's global model to every joined connection,
/// feeding the engine the delivery outcome per client. A connection
/// whose frame does not go out within `write_budget` is closed and its
/// delivery counted as dropped.
fn broadcast(
    conns: &mut [Conn],
    round: u64,
    engine: &mut RoundEngine,
    recorder: &mut dyn Recorder,
    write_budget: Duration,
) {
    for conn in conns.iter_mut() {
        let Some(slot) = conn.slot else { continue };
        if !engine.joined(slot) {
            continue;
        }
        let frame = wire::encode_broadcast(round, slot, engine.global());
        let frame_len = frame.len();
        let outcome = if write_frame(&mut conn.stream, &frame, write_budget).is_ok() {
            Frame::Delivered {
                client: slot,
                frame_len,
            }
        } else {
            conn.dead = true;
            Frame::DownloadDropped { client: slot }
        };
        engine.handle(outcome, recorder);
    }
}

/// Writes one length-prefixed frame on a blocking server socket, each
/// write waiting at most the budget left. Fails with `TimedOut` (or
/// `WouldBlock`) once the frame has waited `budget` in all: a peer that
/// stops reading fills its socket buffers, and the engine thread must not
/// wait on it forever.
fn write_frame(stream: &mut TcpStream, frame: &[u8], budget: Duration) -> io::Result<()> {
    let wire_bytes = prefix_frame(frame);
    let started = Instant::now();
    let mut written = 0;
    while written < wire_bytes.len() {
        // A spent budget is a timeout; the socket would refuse a zero one.
        let left = budget.saturating_sub(started.elapsed());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(&wire_bytes[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Configuration of one [`run_client`] session.
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Server address to connect to.
    pub addr: String,
    /// Stop once the server has completed this many rounds.
    pub rounds: u64,
    /// Local environment steps per round.
    pub steps_per_round: u64,
    /// Upload codec to encode round updates with.
    pub codec: wire::Codec,
    /// Budget for (re)joining, from the first attempt after the last
    /// join ack — covers both the initial join and re-joining across a
    /// server restart. A client that gets no join ack within it, because
    /// the server is unreachable or keeps refusing the join, gives up.
    pub reconnect: Duration,
    /// How long one blocking read may wait before the client treats the
    /// connection as lost and re-joins. Must comfortably exceed the
    /// server's round duration (slowest client's training time).
    pub read_timeout: Duration,
}

impl JoinOptions {
    /// Client options against `addr` mirroring the server's `config`.
    pub fn new(addr: impl Into<String>, config: &FedAvgConfig) -> Self {
        JoinOptions {
            addr: addr.into(),
            rounds: config.rounds,
            steps_per_round: config.steps_per_round,
            codec: config.codec,
            reconnect: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Runs one federated client against a [`serve`] instance until the
/// server has completed `opts.rounds` rounds; returns the final global
/// model it installed.
///
/// Survives server restarts: on any connection failure the client
/// re-joins. `opts.reconnect` bounds each stretch without a join ack,
/// from the first attempt after the last ack, and a refused join is
/// retried after a short pause. The upload frames of the last two
/// rounds it trained are cached, so a replayed round re-submits the
/// *same* bytes instead of training twice — the property the
/// checkpointed-resume bit-identity guarantee rests on. Two rounds
/// suffice: a server killed between broadcasting round `r` and
/// checkpointing it replays `r`, and this client can have trained at most
/// `r + 1` by then.
///
/// # Errors
///
/// [`FedError::Io`] when the server stays unreachable, or refuses the
/// join, past the reconnect budget, and [`FedError::Wire`] /
/// [`FedError::CorruptUpdate`] when the server speaks a malformed
/// protocol.
pub fn run_client<C: FederatedClient>(
    opts: &JoinOptions,
    client: &mut C,
) -> Result<Vec<f32>, FedError> {
    let slot = client.id();
    // The last trained frame per round parity: rounds r and r + 1 never
    // share an entry.
    let mut cached: [Option<(u64, Vec<u8>)>; 2] = [None, None];
    // The first attempt since the last join ack: the reconnect budget
    // runs from here.
    let mut joining_since: Option<Instant> = None;
    'sessions: loop {
        let since = *joining_since.get_or_insert_with(Instant::now);
        let mut stream = connect_retry(&opts.addr, since, opts.reconnect, opts.read_timeout)?;
        let mut reasm = FrameReassembler::new();
        let acked = stream
            .write_all(&prefix_frame(&Envelope::join_request(slot as u64).encode()))
            .and_then(|()| read_frame(&mut stream, &mut reasm));
        let Ok(ack) = acked else {
            // Closed before the ack: a restarting server, a slot still
            // held by a connection not yet reaped, or a refusal for good.
            if since.elapsed() >= opts.reconnect {
                return Err(FedError::Io(format!(
                    "the server at {} refused the join of slot {slot} for {:?}",
                    opts.addr, opts.reconnect
                )));
            }
            thread::sleep(Duration::from_millis(50));
            continue 'sessions;
        };
        joining_since = None;
        let env = Envelope::decode(&ack)?;
        let (mut completed, global) = match env.payload {
            Payload::JoinAck { params } => (env.round, params),
            other => {
                return Err(FedError::CorruptUpdate {
                    client_id: slot,
                    reason: format!("expected a join ack, got {:?}", other.kind()),
                })
            }
        };
        client.download(&global);
        if completed >= opts.rounds {
            return Ok(global);
        }
        // The (round, params) reference top-k uploads encode against:
        // the last global this client installed.
        let mut reference = (completed, global);
        loop {
            let round = completed + 1;
            let entry = &mut cached[(round % 2) as usize];
            let frame = match entry {
                Some((r, f)) if *r == round => f.clone(),
                _ => {
                    client.begin_round(round);
                    client.train_round(opts.steps_per_round);
                    let update = client.upload();
                    let f = wire::encode_upload_with(
                        opts.codec,
                        round,
                        &update,
                        Some((reference.0, reference.1.as_slice())),
                    );
                    *entry = Some((round, f.clone()));
                    f
                }
            };
            if stream.write_all(&prefix_frame(&frame)).is_err() {
                continue 'sessions;
            }
            let Ok(reply) = read_frame(&mut stream, &mut reasm) else {
                continue 'sessions;
            };
            let env = Envelope::decode(&reply)?;
            let Payload::Broadcast { params } = env.payload else {
                return Err(FedError::CorruptUpdate {
                    client_id: slot,
                    reason: format!("expected a broadcast, got {:?}", env.payload.kind()),
                });
            };
            client.download(&params);
            completed = env.round;
            if completed >= opts.rounds {
                return Ok(params);
            }
            reference = (completed, params);
        }
    }
}

/// Connects with retries until `budget` has elapsed since `since` (the
/// server may still be starting, or restarting after a crash).
fn connect_retry(
    addr: &str,
    since: Instant,
    budget: Duration,
    read_timeout: Duration,
) -> Result<TcpStream, FedError> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_read_timeout(Some(read_timeout))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => {
                if since.elapsed() >= budget {
                    return Err(FedError::Io(format!(
                        "server at {addr} unreachable for {budget:?}: {e}"
                    )));
                }
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}
