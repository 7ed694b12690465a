//! Bench-owned decorators at the in-process drivers' public seams: a
//! timing [`Transport`], a timing [`FleetClientFactory`], and a
//! [`Recorder`] that checks every round's dispositions and, when tracing,
//! keeps the spans the drivers already emit.
//!
//! All three write into one [`Book`] behind a lock. The drivers only see
//! the public traits, so the decorated run executes the same program as
//! the undecorated one.

use crate::replica::{ns, Call};
use fedpower_federated::{FedError, FleetClientFactory, Transport};
use fedpower_telemetry::{Counter, Event, EventKind, Recorder, Span};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the in-process decorators recorded.
#[derive(Debug, Default)]
pub struct Book {
    /// `Transport::upload` calls.
    pub uploads: Vec<Call>,
    /// `Transport::broadcast` calls.
    pub broadcasts: Vec<Call>,
    /// Every span the driver emitted.
    pub spans: Vec<Span>,
    /// Events per round when tracing, indexed by round (round 0 is the
    /// join handshake).
    pub events: Vec<u64>,
    /// `FleetClientFactory::materialize` calls: `(round, nanoseconds)`.
    pub materialize: Vec<(u64, u64)>,
    /// Rounds that ended.
    pub rounds_ended: u64,
    /// Rounds whose clients did not each end in exactly one disposition.
    pub unaccounted: Vec<(u64, Dispositions)>,
    /// The open round's dispositions so far.
    current: Dispositions,
    /// The last upload-receipt event, telling a fresh rejection from a
    /// stale one.
    last_receipt: Option<EventKind>,
}

/// How a round's selected clients ended it: each in exactly one
/// disposition. Rejections of stale (straggler) frames are not counted —
/// those clients were accounted for in the round they straggled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dispositions {
    /// Fresh uploads admitted.
    pub admitted: u64,
    /// Fresh uploads rejected at admission.
    pub rejected: u64,
    /// Uploads lost after every retry.
    pub dropped: u64,
    /// Uploads that will arrive late.
    pub straggled: u64,
    /// Clients offline this round.
    pub offline: u64,
    /// Clients whose training panicked.
    pub panicked: u64,
}

impl Dispositions {
    /// Clients accounted for.
    pub fn total(&self) -> u64 {
        self.admitted + self.rejected + self.dropped + self.straggled + self.offline + self.panicked
    }
}

impl Book {
    /// The spans called `name`, in emission order.
    pub fn spans_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// A [`Book`] shared between the decorators and the bench.
pub type SharedBook = Arc<Mutex<Book>>;

fn lock(book: &SharedBook) -> std::sync::MutexGuard<'_, Book> {
    book.lock().expect("a decorator panicked while recording")
}

/// Times every `upload`/`broadcast` hop of the link it wraps (including
/// a `FaultyTransport` inside it) and forwards everything else.
#[derive(Debug)]
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    round: u64,
    book: SharedBook,
}

impl TimedTransport {
    /// Wraps `inner`, recording into `book`.
    pub fn new(inner: Box<dyn Transport>, book: SharedBook) -> Self {
        TimedTransport {
            inner,
            round: 0,
            book,
        }
    }

    fn call(&self, start: Instant) -> Call {
        Call {
            round: self.round,
            start,
            end: Instant::now(),
        }
    }
}

impl Transport for TimedTransport {
    fn client_id(&self) -> usize {
        self.inner.client_id()
    }

    fn begin_round(&mut self, round: u64) {
        self.round = round;
        self.inner.begin_round(round);
    }

    fn is_online(&self) -> bool {
        self.inner.is_online()
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        let start = Instant::now();
        let delivered = self.inner.upload(frame);
        let call = self.call(start);
        lock(&self.book).uploads.push(call);
        delivered
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        let start = Instant::now();
        let delivered = self.inner.broadcast(frame);
        let call = self.call(start);
        lock(&self.book).broadcasts.push(call);
        delivered
    }

    fn take_stale(&mut self) -> Option<Vec<u8>> {
        self.inner.take_stale()
    }
}

/// Times every `materialize` of the factory it wraps. The client type is
/// unchanged, so the fleet's lockstep batching is unchanged too.
#[derive(Debug)]
pub struct TimedFactory<F> {
    inner: F,
    book: SharedBook,
}

impl<F> TimedFactory<F> {
    /// Wraps `inner`, recording into `book`.
    pub fn new(inner: F, book: SharedBook) -> Self {
        TimedFactory { inner, book }
    }
}

impl<F: FleetClientFactory> FleetClientFactory for TimedFactory<F> {
    type Client = F::Client;

    fn initial_global(&self) -> Vec<f32> {
        self.inner.initial_global()
    }

    fn materialize(&self, id: usize, round: u64) -> F::Client {
        let start = Instant::now();
        let client = self.inner.materialize(id, round);
        let took = ns(start.elapsed());
        lock(&self.book).materialize.push((round, took));
        client
    }
}

/// Checks, as each round ends, that its `clients` selected clients each
/// ended it in exactly one disposition (all admitted when
/// `fault_free`) — in constant memory, so the check costs the untraced
/// run nothing it measures. With `trace` it also counts events per round
/// and keeps the spans.
#[derive(Debug)]
pub struct BookRecorder {
    book: SharedBook,
    clients: u64,
    fault_free: bool,
    trace: bool,
}

impl BookRecorder {
    /// A recorder writing into `book`.
    pub fn new(book: SharedBook, clients: u64, fault_free: bool, trace: bool) -> Self {
        BookRecorder {
            book,
            clients,
            fault_free,
            trace,
        }
    }
}

impl Recorder for BookRecorder {
    fn event(&mut self, event: Event) {
        let mut book = lock(&self.book);
        if self.trace {
            let round = event.round as usize;
            if book.events.len() <= round {
                book.events.resize(round + 1, 0);
            }
            book.events[round] += 1;
        }
        let fresh = book.last_receipt == Some(EventKind::UploadReceived);
        let d = &mut book.current;
        match event.kind {
            EventKind::RoundStart => *d = Dispositions::default(),
            EventKind::RoundEnd => {
                let d = *d;
                book.rounds_ended += 1;
                if d.total() != self.clients || (self.fault_free && d.admitted != self.clients) {
                    book.unaccounted.push((event.round, d));
                }
            }
            EventKind::UploadAdmitted => d.admitted += 1,
            EventKind::UpdateRejected if fresh => d.rejected += 1,
            EventKind::UploadDropped => d.dropped += 1,
            EventKind::StragglerStarted => d.straggled += 1,
            EventKind::ClientOffline => d.offline += 1,
            EventKind::TrainPanic => d.panicked += 1,
            _ => {}
        }
        if matches!(
            event.kind,
            EventKind::UploadReceived | EventKind::StaleReceived
        ) {
            book.last_receipt = Some(event.kind);
        }
    }

    fn counter(&mut self, _counter: Counter) {}

    fn span(&mut self, span: Span) {
        if self.trace {
            lock(&self.book).spans.push(span);
        }
    }
}
