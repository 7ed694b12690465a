//! Loopback tests of the standalone federation server: real TCP sockets
//! on 127.0.0.1 driving [`fedpower_federated::serve`] against scripted
//! and real clients, covering the ISSUE-10 churn and checkpointed-resume
//! guarantees.

use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_federated::engine::{EnginePolicy, Frame, RoundEngine};
use fedpower_federated::wire as fedwire;
use fedpower_federated::{
    run_client, serve_on, AgentClient, Codec, Fault, FaultPlan, FedAvgConfig, FedError,
    FederatedClient, Federation, JoinOptions, ModelUpdate, ServeOptions,
};
use fedpower_telemetry::{Event, EventKind, MemoryRecorder, Recorder};
use fedpower_wire::stream::{prefix_frame, read_frame, FrameReassembler};
use fedpower_wire::{Envelope, MsgKind};
use fedpower_workloads::AppId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Binds a loopback listener on a free port. Binding before the server
/// thread starts means clients can connect as soon as they know the
/// address.
fn bind() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (listener, addr)
}

fn small_config(rounds: u64) -> FedAvgConfig {
    FedAvgConfig {
        rounds,
        steps_per_round: 20,
        ..FedAvgConfig::default()
    }
}

fn agent(id: usize, app: AppId, seed: u64) -> AgentClient {
    AgentClient::new(
        id,
        ControllerConfig::default(),
        DeviceEnvConfig::new(&[app]),
        seed,
    )
}

/// A scripted raw-socket client: join handshake plus framed send/recv,
/// used where the test must control exactly when a client disconnects.
struct Scripted {
    stream: TcpStream,
    reasm: FrameReassembler,
}

impl Scripted {
    fn join(addr: &str, slot: u64) -> (Scripted, Envelope) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut c = Scripted {
            stream,
            reasm: FrameReassembler::new(),
        };
        c.send(&Envelope::join_request(slot).encode());
        let ack = c.recv();
        (c, ack)
    }

    fn send(&mut self, frame: &[u8]) {
        self.stream.write_all(&prefix_frame(frame)).expect("send");
    }

    fn recv(&mut self) -> Envelope {
        loop {
            if let Some(frame) = self.reasm.next_frame().expect("stream") {
                return Envelope::decode(&frame).expect("decode");
            }
            let mut chunk = [0u8; 64 * 1024];
            let n = self.stream.read(&mut chunk).expect("recv");
            assert!(n > 0, "server closed the connection mid-script");
            self.reasm.extend(&chunk[..n]);
        }
    }
}

/// Lets the server's reader threads pass whatever the script just did to
/// its engine thread, in order (sockets on loopback settle in
/// microseconds; this is generous).
fn settle() {
    thread::sleep(Duration::from_millis(200));
}

/// Two real [`AgentClient`]s complete a federation over loopback TCP and
/// end up holding the server's final global model.
#[test]
fn loopback_clients_and_server_complete_a_federation() {
    let config = small_config(3);
    let (listener, addr) = bind();
    // The in-process drivers size the global from their first client;
    // the standalone server must know the shape up front.
    let initial: Vec<f32> = agent(0, AppId::Fft, 1)
        .upload()
        .params
        .iter()
        .map(|_| 0.0)
        .collect();
    let opts = ServeOptions::new(2, config, initial);
    let recorder = MemoryRecorder::new();
    let server = {
        let opts = opts.clone();
        let mut rec = recorder.clone();
        thread::spawn(move || serve_on(listener, &opts, &mut rec).expect("serve"))
    };
    let joiners: Vec<_> = [(0, AppId::Fft, 1u64), (1, AppId::Ocean, 2u64)]
        .into_iter()
        .map(|(id, app, seed)| {
            let join = JoinOptions::new(addr.clone(), &opts.config);
            thread::spawn(move || {
                let mut client = agent(id, app, seed);
                run_client(&join, &mut client).expect("client")
            })
        })
        .collect();
    let finals: Vec<Vec<f32>> = joiners.into_iter().map(|j| j.join().unwrap()).collect();
    let report = server.join().unwrap();

    assert_eq!(report.rounds_run, 3);
    assert_eq!(report.rounds_committed, 3);
    assert_eq!(report.resumed_from, None);
    for f in &finals {
        assert_eq!(f, &report.global, "client final diverged from server");
    }
    let events = recorder.events();
    let joins = events
        .iter()
        .filter(|e| e.kind == EventKind::ClientJoined)
        .count();
    assert_eq!(joins, 2, "one join event per client");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == EventKind::RoundEnd)
            .count(),
        3
    );
}

/// Mid-round disconnect + rejoin (ISSUE-10 satellite): client 1's
/// round-1 upload is accepted, it drops mid-round-2 (socket close →
/// `Frame::Offline` → `ClientLeft`), and rejoins for round 3. The TCP
/// run's full telemetry stream is bit-identical to an in-process
/// [`RoundEngine`] run fed the equivalent frame schedule — the same
/// frames a `FaultPlan` crash-and-rejoin produces — and the per-round
/// participation accounting matches an actual `FaultPlan` run with a
/// one-round `Crash` at round 2.
#[test]
fn mid_round_disconnect_and_rejoin_matches_the_fault_plan_accounting() {
    let dim = 4;
    let config = small_config(3);
    let (listener, addr) = bind();
    let opts = ServeOptions::new(2, config, vec![0.25; dim]);
    let recorder = MemoryRecorder::new();
    let server = {
        let opts = opts.clone();
        let mut rec = recorder.clone();
        thread::spawn(move || serve_on(listener, &opts, &mut rec).expect("serve"))
    };

    // Fixed, deterministic client updates: round r, client c uploads
    // params (r + c/10) so every commit is reproducible in the replica.
    let update = |client: usize, round: u64| ModelUpdate {
        client_id: client,
        params: vec![round as f32 + client as f32 / 10.0; dim],
        num_samples: 20,
    };
    let frame = |client: usize, round: u64| {
        fedwire::encode_upload_with(Codec::Dense32, round, &update(client, round), None)
    };

    let (mut a, ack_a) = Scripted::join(&addr, 0);
    assert_eq!(ack_a.round, 0);
    let (mut b, ack_b) = Scripted::join(&addr, 1);
    assert_eq!(ack_b.round, 0);
    settle();

    // Round 1: both upload (A strictly first), both receive θ₁.
    a.send(&frame(0, 1));
    settle();
    b.send(&frame(1, 1));
    let theta1 = a.recv();
    assert_eq!(theta1.round, 1);
    assert_eq!(b.recv().round, 1);

    // Round 2: A uploads; B drops after its round-1 upload was accepted.
    a.send(&frame(0, 2));
    settle();
    drop(b);
    settle();
    let theta2 = a.recv();
    assert_eq!(theta2.round, 2, "round 2 commits without B");

    // Round 3: B rejoins (acked at round 2) and both participate.
    let (mut b, ack_b2) = Scripted::join(&addr, 1);
    assert_eq!(ack_b2.round, 2, "rejoin acks the committed round");
    b.send(&frame(1, 3));
    settle();
    a.send(&frame(0, 3));
    assert_eq!(a.recv().round, 3);
    assert_eq!(b.recv().round, 3);

    let report = server.join().unwrap();
    assert_eq!(report.rounds_run, 3);
    assert_eq!(report.rounds_committed, 3);

    // In-process replica: the same engine fed the equivalent frame
    // schedule — join/join, round 1 both, round 2 A + B offline/left,
    // rejoin, round 3 both — which is exactly the frame sequence a
    // FaultPlan crash-and-rejoin run produces for this schedule.
    let mut replica_rec = MemoryRecorder::new();
    let rec: &mut dyn Recorder = &mut replica_rec;
    let mut policy = EnginePolicy::from_config(&opts.config);
    policy.deadline_ticks = Some(1);
    let mut engine =
        RoundEngine::new(opts.initial_global.clone(), policy, vec![0, 1]).expect("valid policy");
    let join = |engine: &mut RoundEngine, rec: &mut dyn Recorder, slot: usize| {
        let ack = fedwire::encode_join_ack_at(engine.rounds_run(), slot, engine.global());
        engine.handle(
            Frame::Join {
                client: slot,
                frame_len: ack.len(),
            },
            rec,
        );
        rec.event(Event::client_scoped(
            EventKind::ClientJoined,
            engine.rounds_run(),
            slot,
        ));
    };
    let upload = |engine: &mut RoundEngine, rec: &mut dyn Recorder, slot: usize, round: u64| {
        let bytes = frame(slot, round);
        let sent_len = bytes.len();
        engine.handle(
            Frame::Upload {
                client: slot,
                sent_len,
                bytes,
            },
            rec,
        );
    };
    let deliver = |engine: &mut RoundEngine, rec: &mut dyn Recorder, slot: usize, round: u64| {
        let len = fedwire::encode_broadcast(round, slot, engine.global()).len();
        engine.handle(
            Frame::Delivered {
                client: slot,
                frame_len: len,
            },
            rec,
        );
    };
    join(&mut engine, rec, 0);
    join(&mut engine, rec, 1);
    // Round 1.
    engine.handle(Frame::BeginRound, rec);
    upload(&mut engine, rec, 0, 1);
    upload(&mut engine, rec, 1, 1);
    engine.handle(Frame::CloseRound, rec);
    deliver(&mut engine, rec, 0, 1);
    deliver(&mut engine, rec, 1, 1);
    engine.handle(Frame::EndRound, rec);
    // Round 2: B drops mid-round.
    engine.handle(Frame::BeginRound, rec);
    upload(&mut engine, rec, 0, 2);
    engine.handle(Frame::Offline { client: 1 }, rec);
    rec.event(Event::client_scoped(EventKind::ClientLeft, 2, 1));
    engine.leave(1);
    engine.handle(Frame::CloseRound, rec);
    deliver(&mut engine, rec, 0, 2);
    engine.handle(Frame::EndRound, rec);
    // Round 3: B rejoins.
    join(&mut engine, rec, 1);
    engine.handle(Frame::BeginRound, rec);
    upload(&mut engine, rec, 1, 3);
    upload(&mut engine, rec, 0, 3);
    engine.handle(Frame::CloseRound, rec);
    deliver(&mut engine, rec, 0, 3);
    deliver(&mut engine, rec, 1, 3);
    engine.handle(Frame::EndRound, rec);

    assert_eq!(
        engine.global(),
        report.global.as_slice(),
        "TCP and in-process globals diverged"
    );
    assert_eq!(
        recorder.events(),
        replica_rec.events(),
        "TCP and in-process telemetry streams diverged"
    );
    assert_eq!(recorder.counters(), replica_rec.counters());

    // The same churn expressed as a FaultPlan: client 1 crashes in round
    // 2 for one round, rejoining in round 3. Per-round participation and
    // offline accounting match the server's.
    let mut plan = FaultPlan::none();
    plan.insert(1, 2, Fault::Crash { down_rounds: 1 });
    let clients = vec![agent(0, AppId::Fft, 1), agent(1, AppId::Ocean, 2)];
    let mut federation = Federation::builder(clients, opts.config)
        .seed(42)
        .fault_plan(&plan)
        .build()
        .expect("federation");
    let reports = federation.run();
    let planned: Vec<(usize, usize)> = reports
        .iter()
        .map(|r| (r.participants, r.offline))
        .collect();
    let events = recorder.events();
    let served: Vec<(usize, usize)> = (1..=3)
        .map(|round| {
            let of = |kind: EventKind| {
                events
                    .iter()
                    .filter(|e| e.kind == kind && e.round == round)
                    .count()
            };
            (of(EventKind::UploadAdmitted), of(EventKind::ClientOffline))
        })
        .collect();
    assert_eq!(planned, vec![(2, 0), (1, 1), (2, 0)]);
    assert_eq!(
        served, planned,
        "TCP accounting diverged from the FaultPlan run"
    );
}

/// A second connection claiming a slot a live connection holds is closed
/// before any ack: the holder keeps its slot and its broadcasts, and the
/// slot joins exactly once.
#[test]
fn a_join_for_a_held_slot_is_refused() {
    let dim = 4;
    let (listener, addr) = bind();
    let opts = ServeOptions::new(2, small_config(2), vec![0.25; dim]);
    let recorder = MemoryRecorder::new();
    let server = {
        let opts = opts.clone();
        let mut rec = recorder.clone();
        thread::spawn(move || serve_on(listener, &opts, &mut rec).expect("serve"))
    };
    let frame = |client: usize, round: u64| {
        let update = ModelUpdate {
            client_id: client,
            params: vec![round as f32 + client as f32; dim],
            num_samples: 20,
        };
        fedwire::encode_upload_with(Codec::Dense32, round, &update, None)
    };

    let (mut holder, _) = Scripted::join(&addr, 0);
    let (mut other, _) = Scripted::join(&addr, 1);
    settle();
    let mut intruder = TcpStream::connect(&addr).expect("connect");
    intruder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    intruder
        .write_all(&prefix_frame(&Envelope::join_request(0).encode()))
        .expect("send");
    let mut byte = [0u8; 1];
    assert!(
        matches!(intruder.read(&mut byte), Ok(0)),
        "the intruder must read EOF, not a join ack"
    );
    drop(intruder);
    settle();

    for round in 1..=2 {
        holder.send(&frame(0, round));
        other.send(&frame(1, round));
        assert_eq!(holder.recv().round, round, "the holder keeps its slot");
        assert_eq!(other.recv().round, round);
    }
    let report = server.join().unwrap();
    assert_eq!(report.rounds_committed, 2);
    let slot0_joins = recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::ClientJoined && e.client == Some(0))
        .count();
    assert_eq!(slot0_joins, 1, "slot 0 joins once");
}

/// A connection that holds a slot and sends a second join request is
/// closed instead of being acked for another slot. Its first slot is
/// released with it, so a fresh connection can claim that slot and the
/// round completes.
#[test]
fn a_second_join_on_a_joined_connection_is_refused() {
    let dim = 4;
    let (listener, addr) = bind();
    let opts = ServeOptions::new(2, small_config(1), vec![0.25; dim]);
    let recorder = MemoryRecorder::new();
    let server = {
        let opts = opts.clone();
        let mut rec = recorder.clone();
        thread::spawn(move || serve_on(listener, &opts, &mut rec).expect("serve"))
    };
    let frame = |client: usize| {
        let update = ModelUpdate {
            client_id: client,
            params: vec![1.0 + client as f32; dim],
            num_samples: 20,
        };
        fedwire::encode_upload_with(Codec::Dense32, 1, &update, None)
    };

    let (mut greedy, ack) = Scripted::join(&addr, 0);
    assert_eq!(ack.round, 0);
    greedy.send(&Envelope::join_request(1).encode());
    let mut byte = [0u8; 1];
    assert!(
        matches!(greedy.stream.read(&mut byte), Ok(0)),
        "a second join on a joined connection must read EOF, not a second ack"
    );
    drop(greedy);

    let (mut fresh, ack) = Scripted::join(&addr, 0);
    assert_eq!(
        ack.round, 0,
        "slot 0 was released with the closed connection"
    );
    let (mut other, _) = Scripted::join(&addr, 1);
    fresh.send(&frame(0));
    other.send(&frame(1));
    assert_eq!(fresh.recv().round, 1);
    assert_eq!(other.recv().round, 1);

    let report = server.join().unwrap();
    assert_eq!(report.rounds_committed, 1);
    let churn: Vec<(EventKind, Option<usize>)> = recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ClientJoined | EventKind::ClientLeft))
        .map(|e| (e.kind, e.client))
        .collect();
    assert_eq!(
        churn,
        vec![
            (EventKind::ClientJoined, Some(0)),
            (EventKind::ClientLeft, Some(0)),
            (EventKind::ClientJoined, Some(0)),
            (EventKind::ClientJoined, Some(1)),
        ]
    );
}

/// An upload parked before its round opens leaves with its connection: a
/// client that takes over the slot is credited with its own upload, not
/// the departed client's.
#[test]
fn a_parked_upload_is_dropped_when_its_connection_closes() {
    let dim = 4;
    let (listener, addr) = bind();
    let opts = ServeOptions::new(2, small_config(1), vec![0.25; dim]);
    let server = {
        let opts = opts.clone();
        thread::spawn(move || {
            let mut rec = fedpower_telemetry::NullRecorder;
            serve_on(listener, &opts, &mut rec).expect("serve")
        })
    };
    let frame = |client: usize, value: f32| {
        let update = ModelUpdate {
            client_id: client,
            params: vec![value; dim],
            num_samples: 20,
        };
        fedwire::encode_upload_with(Codec::Dense32, 1, &update, None)
    };

    // Round 1 opens only once both slots have joined, so A's upload is
    // parked; then A leaves.
    let (mut a, _) = Scripted::join(&addr, 0);
    a.send(&frame(0, 100.0));
    settle();
    drop(a);
    settle();

    let (mut c, _) = Scripted::join(&addr, 0);
    let (mut b, _) = Scripted::join(&addr, 1);
    c.send(&frame(0, 1.0));
    b.send(&frame(1, 3.0));
    assert_eq!(c.recv().round, 1);
    assert_eq!(b.recv().round, 1);

    let report = server.join().unwrap();
    assert_eq!(
        report.global,
        vec![2.0; dim],
        "the round must average C's and B's uploads, not A's parked one"
    );
}

/// A server killed after broadcasting round r but before checkpointing it
/// replays round r, while the client may already have trained round
/// r + 1. A scripted server plays both incarnations: the first acks
/// round 0, takes the round-1 upload, broadcasts θ₁, takes the round-2
/// upload and closes; the second acks round 0 again, as a restart from
/// the round-0 checkpoint would. The client must re-send the bytes of
/// both rounds' first runs.
#[test]
fn a_replayed_round_resends_the_bytes_of_its_first_run() {
    let (listener, addr) = bind();
    let config = small_config(2);
    let dim = agent(0, AppId::Fft, 1).upload().params.len();
    let theta = |v: f32| vec![v; dim];
    let client = {
        let join = JoinOptions::new(addr, &config);
        thread::spawn(move || {
            let mut client = agent(0, AppId::Fft, 1);
            run_client(&join, &mut client).expect("client")
        })
    };

    // One server incarnation: accept, take the join request, ack round 0.
    let accept = || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut reasm = FrameReassembler::new();
        let join = read_frame(&mut stream, &mut reasm).expect("join request");
        assert_eq!(
            Envelope::decode(&join).expect("decode").kind(),
            MsgKind::JoinRequest
        );
        let ack = fedwire::encode_join_ack_at(0, 0, &theta(0.0));
        stream.write_all(&prefix_frame(&ack)).expect("ack");
        (stream, reasm)
    };
    let send = |stream: &mut TcpStream, frame: &[u8]| {
        stream.write_all(&prefix_frame(frame)).expect("send");
    };

    let (mut first, mut reasm) = accept();
    let round1 = read_frame(&mut first, &mut reasm).expect("round-1 upload");
    assert_eq!(Envelope::decode(&round1).expect("decode").round, 1);
    send(&mut first, &fedwire::encode_broadcast(1, 0, &theta(0.1)));
    let round2 = read_frame(&mut first, &mut reasm).expect("round-2 upload");
    assert_eq!(Envelope::decode(&round2).expect("decode").round, 2);
    drop(first);

    let (mut second, mut reasm) = accept();
    let replayed1 = read_frame(&mut second, &mut reasm).expect("replayed round-1 upload");
    assert!(replayed1 == round1, "the replayed round-1 frame differs");
    send(&mut second, &fedwire::encode_broadcast(1, 0, &theta(0.1)));
    let replayed2 = read_frame(&mut second, &mut reasm).expect("replayed round-2 upload");
    assert!(replayed2 == round2, "the replayed round-2 frame differs");
    send(&mut second, &fedwire::encode_broadcast(2, 0, &theta(0.2)));

    assert_eq!(client.join().unwrap(), theta(0.2));
}

/// A peer that sends a join request and then never reads cannot stall
/// the server: its 16 MiB join ack overfills the socket buffers, the
/// write gives up after `round_timeout`, and the peer is closed without
/// ever having joined, while another client joins and completes the
/// round.
#[test]
fn a_peer_that_stops_reading_cannot_stall_the_server() {
    // 4 Mi parameters: a 16 MiB frame, more than loopback socket buffers
    // hold for a peer that reads nothing.
    let dim = 4 << 20;
    let (listener, addr) = bind();
    let mut opts = ServeOptions::new(2, small_config(1), vec![0.25; dim]);
    opts.wait_for = 1;
    opts.round_timeout = Duration::from_secs(2);
    let recorder = MemoryRecorder::new();
    let server = {
        let opts = opts.clone();
        let mut rec = recorder.clone();
        thread::spawn(move || serve_on(listener, &opts, &mut rec).expect("serve"))
    };

    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled
        .write_all(&prefix_frame(&Envelope::join_request(0).encode()))
        .expect("send");
    settle();
    let (mut live, ack) = Scripted::join(&addr, 1);
    assert_eq!(ack.round, 0);
    let update = ModelUpdate {
        client_id: 1,
        params: vec![0.5; dim],
        num_samples: 20,
    };
    live.send(&fedwire::encode_upload_with(
        Codec::Dense32,
        1,
        &update,
        None,
    ));
    assert_eq!(live.recv().round, 1, "the live client gets the broadcast");

    let report = server.join().unwrap();
    assert_eq!(report.rounds_committed, 1);
    let slot0_churn: Vec<EventKind> = recorder
        .events()
        .iter()
        .filter(|e| e.client == Some(0))
        .map(|e| e.kind)
        .filter(|k| matches!(k, EventKind::ClientJoined | EventKind::ClientLeft))
        .collect();
    assert!(
        slot0_churn.is_empty(),
        "the stalled peer never joined: {slot0_churn:?}"
    );
    drop(stalled);
}

/// Kill-and-resume (ISSUE-10 acceptance): a server halted after round 2
/// restarts from its checkpoint and the remaining rounds are
/// byte-identical to an uninterrupted run — clients re-submit their
/// cached round uploads, and streaming aggregation is admission-order
/// independent, so the replayed commits reproduce exactly.
#[test]
fn halted_server_resumes_bit_identically_after_restart() {
    let rounds = 4;
    let probe = agent(0, AppId::Fft, 1).upload();
    let initial: Vec<f32> = probe.params.iter().map(|_| 0.0).collect();

    let run = |halt_at_2: bool, checkpoint: Option<std::path::PathBuf>| {
        let (listener, addr) = bind();
        let config = small_config(rounds);
        let mut opts = ServeOptions::new(2, config, initial.clone());
        opts.checkpoint = checkpoint;
        let joiners: Vec<_> = [(0usize, AppId::Fft, 1u64), (1, AppId::Ocean, 2)]
            .into_iter()
            .map(|(id, app, seed)| {
                let join = JoinOptions::new(addr.clone(), &opts.config);
                thread::spawn(move || {
                    let mut client = agent(id, app, seed);
                    run_client(&join, &mut client).expect("client")
                })
            })
            .collect();
        let report = if halt_at_2 {
            let halted = {
                let mut opts = opts.clone();
                opts.halt_after = Some(2);
                let incarnation = listener.try_clone().expect("clone listener");
                let mut rec = fedpower_telemetry::NullRecorder;
                serve_on(incarnation, &opts, &mut rec).expect("halted serve")
            };
            assert_eq!(halted.rounds_run, 2, "halt hook fires at round 2");
            // Restart: same listener, same checkpoint. The clients are
            // still out there retrying; they rejoin and resume.
            let mut rec = fedpower_telemetry::NullRecorder;
            serve_on(listener, &opts, &mut rec).expect("resumed serve")
        } else {
            let mut rec = fedpower_telemetry::NullRecorder;
            serve_on(listener, &opts, &mut rec).expect("serve")
        };
        let finals: Vec<Vec<f32>> = joiners.into_iter().map(|j| j.join().unwrap()).collect();
        (report, finals)
    };

    let (uninterrupted, finals_a) = run(false, None);
    assert_eq!(uninterrupted.rounds_run, rounds);

    let ck = std::env::temp_dir().join(format!("fedpower-resume-{}.fpck", std::process::id()));
    let _ = std::fs::remove_file(&ck);
    let (resumed, finals_b) = run(true, Some(ck.clone()));
    let _ = std::fs::remove_file(&ck);

    assert_eq!(resumed.resumed_from, Some(2));
    assert_eq!(resumed.rounds_run, rounds);
    assert_eq!(resumed.rounds_committed, uninterrupted.rounds_committed);
    assert_eq!(
        resumed.global, uninterrupted.global,
        "resumed run diverged from the uninterrupted run"
    );
    assert_eq!(finals_a, finals_b);
    for f in &finals_b {
        assert_eq!(f, &resumed.global);
    }
}

/// A dense round-`round` upload of `dim` copies of `value` from `client`.
fn dense_upload(client: usize, round: u64, value: f32, dim: usize) -> Vec<u8> {
    let update = ModelUpdate {
        client_id: client,
        params: vec![value; dim],
        num_samples: 20,
    };
    fedwire::encode_upload_with(Codec::Dense32, round, &update, None)
}

/// Runs `serve_on` on a thread that reports its result down a channel,
/// so a test can wait for it with a deadline instead of hanging.
fn serve_in_background(
    listener: TcpListener,
    opts: ServeOptions,
    recorder: &MemoryRecorder,
) -> mpsc::Receiver<Result<fedpower_federated::ServeReport, FedError>> {
    let (tx, rx) = mpsc::channel();
    let mut rec = recorder.clone();
    thread::spawn(move || {
        let _ = tx.send(serve_on(listener, &opts, &mut rec));
    });
    rx
}

/// A client whose join is refused for good (its slot is out of range)
/// gives up once its reconnect budget has passed without a join ack,
/// instead of reconnecting forever.
#[test]
fn a_refused_join_gives_up_within_the_reconnect_budget() {
    let dim = 4;
    let (listener, addr) = bind();
    let opts = ServeOptions::new(1, small_config(1), vec![0.25; dim]);
    let served = serve_in_background(listener, opts, &MemoryRecorder::new());

    let (tx, rx) = mpsc::channel();
    {
        let mut join = JoinOptions::new(addr.clone(), &small_config(1));
        join.reconnect = Duration::from_millis(500);
        thread::spawn(move || {
            let mut client = agent(3, AppId::Fft, 1);
            let _ = tx.send(run_client(&join, &mut client));
        });
    }
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a refused client must give up within its reconnect budget");
    assert!(
        matches!(outcome, Err(FedError::Io(_))),
        "a refused join is an I/O error: {outcome:?}"
    );

    // The server still runs its round for the slot it has.
    let (mut c, _) = Scripted::join(&addr, 0);
    c.send(&dense_upload(0, 1, 1.0, dim));
    assert_eq!(c.recv().round, 1);
    let report = served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_on returns")
        .expect("serve");
    assert_eq!(report.rounds_committed, 1);
}

/// A client that floods the server with uploads stamped far ahead of any
/// round a legitimate client can be in gets none of them parked: the
/// round they name later admits the client's own upload. (Parking them
/// held every frame in memory until that round, and the first of them
/// then took the client's place in it.)
#[test]
fn a_flood_of_uploads_stamped_ahead_is_not_parked() {
    let dim = 4;
    let (listener, addr) = bind();
    let opts = ServeOptions::new(1, small_config(5), vec![0.25; dim]);
    let served = serve_in_background(listener, opts, &MemoryRecorder::new());

    // Round 1 opens as slot 0 joins; no legitimate upload is stamped
    // past round 2 yet.
    let (mut c, _) = Scripted::join(&addr, 0);
    let flood = prefix_frame(&dense_upload(0, 5, 100.0, dim));
    let burst: Vec<u8> = (0..20_000).flat_map(|_| flood.iter().copied()).collect();
    c.stream.write_all(&burst).expect("flood");
    for round in 1..=5 {
        c.send(&dense_upload(0, round, round as f32, dim));
        assert_eq!(c.recv().round, round);
    }
    let report = served
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_on returns")
        .expect("serve");
    assert_eq!(report.rounds_committed, 5);
    assert_eq!(
        report.global,
        vec![5.0; dim],
        "round 5 must commit the client's own upload, not a flood frame"
    );
}

/// A joined device that goes silent without closing its connection (a
/// board that lost power sends no FIN) holds its slot only until it has
/// lapsed. Once a round has closed at its deadline with the holder still
/// pending and silent, a join for the slot reaps the holder and proceeds,
/// and later rounds commit with the new client's uploads.
#[test]
fn a_lapsed_holder_is_replaced_by_a_new_join() {
    let config = small_config(8);
    let dim = agent(0, AppId::Fft, 1).upload().params.len();
    let (listener, addr) = bind();
    let mut opts = ServeOptions::new(1, config, vec![0.0; dim]);
    opts.round_timeout = Duration::from_secs(1);
    let recorder = MemoryRecorder::new();
    let served = serve_in_background(listener, opts, &recorder);

    // The holder runs round 1, then stays connected and silent: round 2
    // waits for it until its deadline.
    let (mut holder, _) = Scripted::join(&addr, 0);
    holder.send(&dense_upload(0, 1, 1.0, dim));
    assert_eq!(holder.recv().round, 1);

    let (tx, rx) = mpsc::channel();
    {
        let mut join = JoinOptions::new(addr, &config);
        // Longer than a round, shorter than the seven rounds the server
        // would run without the replacement.
        join.reconnect = Duration::from_secs(3);
        thread::spawn(move || {
            let mut client = agent(0, AppId::Fft, 2);
            let _ = tx.send(run_client(&join, &mut client));
        });
    }
    rx.recv_timeout(Duration::from_secs(30))
        .expect("the replacement finishes")
        .expect("the replacement joins slot 0");
    let report = served
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_on returns")
        .expect("serve");
    assert!(
        report.rounds_committed >= 2,
        "rounds after the holder lapsed commit the replacement's uploads: {report:?}"
    );
    let churn: Vec<(EventKind, Option<usize>)> = recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ClientJoined | EventKind::ClientLeft))
        .map(|e| (e.kind, e.client))
        .collect();
    assert_eq!(
        churn,
        vec![
            (EventKind::ClientJoined, Some(0)),
            (EventKind::ClientLeft, Some(0)),
            (EventKind::ClientJoined, Some(0)),
        ]
    );
    drop(holder);
}

/// A slot's late upload for the previous round and then its fresh upload
/// reach one open round: the round admits both, the late one at its
/// staleness discount, and commits as soon as the fresh one arrives.
/// (Gated together, the fresh upload was dropped as a duplicate of the
/// stale one, and the round waited out its deadline with the slot marked
/// offline.)
#[test]
fn a_stale_upload_does_not_shadow_the_same_slots_fresh_one() {
    let dim = 4;
    let (listener, addr) = bind();
    let mut opts = ServeOptions::new(1, small_config(2), vec![0.25; dim]);
    opts.round_timeout = Duration::from_secs(8);
    let recorder = MemoryRecorder::new();
    let served = serve_in_background(listener, opts, &recorder);

    let (mut c, _) = Scripted::join(&addr, 0);
    c.send(&dense_upload(0, 1, 1.0, dim));
    assert_eq!(c.recv().round, 1);
    // Round 2 is open: a late copy of the round-1 upload, then round 2's.
    let sent = std::time::Instant::now();
    c.send(&dense_upload(0, 1, 1.0, dim));
    c.send(&dense_upload(0, 2, 2.0, dim));
    assert_eq!(c.recv().round, 2);
    let waited = sent.elapsed();
    let report = served
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_on returns")
        .expect("serve");
    let round_2: Vec<EventKind> = recorder
        .events()
        .iter()
        .filter(|e| e.round == 2 && e.client == Some(0))
        .map(|e| e.kind)
        .collect();
    assert!(
        round_2.contains(&EventKind::StaleApplied) && round_2.contains(&EventKind::UploadAdmitted),
        "round 2 must admit both uploads of slot 0: {round_2:?}"
    );
    assert!(
        waited < Duration::from_secs(4),
        "round 2 waited {waited:?}, toward its 8 s deadline"
    );
    // The discounted 1.0 and the fresh 2.0 both reach the commit.
    assert!(
        report.global.iter().all(|&g| 1.0 < g && g < 2.0),
        "{:?}",
        report.global
    );
}

/// A peer that connects and sends nothing is closed once it has been
/// silent for a round timeout, even while the server is still waiting
/// for its clients to join.
#[test]
fn a_silent_peer_is_closed_before_it_joins() {
    let dim = 4;
    let (listener, addr) = bind();
    let mut opts = ServeOptions::new(1, small_config(1), vec![0.25; dim]);
    opts.round_timeout = Duration::from_secs(2);
    let served = serve_in_background(listener, opts, &MemoryRecorder::new());

    let mut silent = TcpStream::connect(&addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    let read = silent.read(&mut byte);
    assert!(
        matches!(read, Ok(0)),
        "a silent peer must read EOF, not {read:?}"
    );

    let (mut c, ack) = Scripted::join(&addr, 0);
    assert_eq!(ack.round, 0);
    c.send(&dense_upload(0, 1, 1.0, dim));
    assert_eq!(c.recv().round, 1);
    let report = served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_on returns")
        .expect("serve");
    assert_eq!(report.rounds_committed, 1);
}

/// A joined peer that writes half an upload and stops is closed once a
/// round timeout passes with the partial frame buffered. It leaves its
/// slot, and a fresh connection claims the slot and completes the round.
#[test]
fn a_peer_stalled_mid_frame_leaves_its_slot() {
    let dim = 4;
    let (listener, addr) = bind();
    // Two slots: no round opens while the stalled peer is the only one
    // joined, so the read timeout is the only deadline in play.
    let mut opts = ServeOptions::new(2, small_config(1), vec![0.25; dim]);
    opts.round_timeout = Duration::from_secs(2);
    let recorder = MemoryRecorder::new();
    let served = serve_in_background(listener, opts, &recorder);

    let (mut stalled, ack) = Scripted::join(&addr, 0);
    assert_eq!(ack.round, 0);
    let wire = prefix_frame(&dense_upload(0, 1, 100.0, dim));
    stalled
        .stream
        .write_all(&wire[..wire.len() / 2])
        .expect("half an upload");
    // Returns once the server closes the connection (or after the
    // script's 10 s read timeout).
    let mut byte = [0u8; 1];
    let _ = stalled.stream.read(&mut byte);
    let left = recorder
        .events()
        .iter()
        .any(|e| e.kind == EventKind::ClientLeft && e.client == Some(0));
    assert!(left, "a peer stalled mid-frame must leave its slot");

    let (mut fresh, ack) = Scripted::join(&addr, 0);
    assert_eq!(ack.round, 0, "the fresh connection claims slot 0");
    let (mut other, _) = Scripted::join(&addr, 1);
    fresh.send(&dense_upload(0, 1, 1.0, dim));
    other.send(&dense_upload(1, 1, 3.0, dim));
    assert_eq!(fresh.recv().round, 1);
    assert_eq!(other.recv().round, 1);
    let report = served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_on returns")
        .expect("serve");
    assert_eq!(
        report.global,
        vec![2.0; dim],
        "the stalled half-upload is never admitted"
    );
    let churn: Vec<(EventKind, Option<usize>)> = recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ClientJoined | EventKind::ClientLeft))
        .map(|e| (e.kind, e.client))
        .collect();
    assert_eq!(
        churn,
        vec![
            (EventKind::ClientJoined, Some(0)),
            (EventKind::ClientLeft, Some(0)),
            (EventKind::ClientJoined, Some(0)),
            (EventKind::ClientJoined, Some(1)),
        ]
    );
}

/// A zero round timeout is refused before the server accepts anything:
/// every round would expire before an upload could arrive.
#[test]
fn a_zero_round_timeout_is_rejected() {
    let (listener, _) = bind();
    let mut opts = ServeOptions::new(1, small_config(1), vec![0.25; 4]);
    opts.round_timeout = Duration::ZERO;
    let served = serve_in_background(listener, opts, &MemoryRecorder::new())
        .recv_timeout(Duration::from_secs(10))
        .expect("serve_on must return instead of waiting for joins");
    assert!(
        matches!(served, Err(FedError::InvalidConfig(_))),
        "{served:?}"
    );
}

/// `serve_on` releases the listener it was handed before it returns,
/// after a full run and after a `halt_after` exit alike: a later connect
/// to its address is refused.
#[test]
fn serve_on_releases_its_listener() {
    let dim = 4;
    for halt_after in [None, Some(1)] {
        let (listener, addr) = bind();
        let mut opts = ServeOptions::new(1, small_config(2), vec![0.25; dim]);
        opts.halt_after = halt_after;
        let served = serve_in_background(listener, opts, &MemoryRecorder::new());
        let (mut c, _) = Scripted::join(&addr, 0);
        for round in 1..=halt_after.unwrap_or(2) {
            c.send(&dense_upload(0, round, 1.0, dim));
            assert_eq!(c.recv().round, round);
        }
        let report = served
            .recv_timeout(Duration::from_secs(10))
            .expect("serve_on returns")
            .expect("serve");
        assert_eq!(report.rounds_run, halt_after.unwrap_or(2));
        assert!(
            TcpStream::connect(&addr).is_err(),
            "the listener outlived serve_on (halt_after {halt_after:?})"
        );
    }
}
