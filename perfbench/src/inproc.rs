//! The in-process workloads: `paper_round` and `chaos` drive a
//! `Federation` on channel links, `fleet_100k` drives a sharded `Fleet`.

use crate::decor::{Book, BookRecorder, SharedBook, TimedFactory, TimedTransport};
use crate::layers::{self, EndToEnd, COUNTED_ROUNDS};
use crate::metrics::Report;
use crate::replica::ReplicaClient;
use crate::{heap, Opts};
use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
use fedpower_core::experiment::DeviceFleetFactory;
use fedpower_core::{ExperimentConfig, FleetSpec};
use fedpower_federated::report::RoundReport;
use fedpower_federated::{
    AgentClient, ChannelTransport, Codec, FaultConfig, FaultPlan, FaultyTransport, FedAvgConfig,
    FederatedClient, Federation, Fleet, FleetClientFactory, FleetConfig, Transport, WorkerPool,
};
use fedpower_sim::rng::{derive_seed, streams};
use fedpower_workloads::AppId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Set-ups per untraced `fleet_100k` run (each costs a 100k-client round).
const FLEET_SETUPS: usize = 5;

/// A federated round driver the timed loop can run.
pub trait Driver {
    /// Runs one round.
    fn round(&mut self) -> RoundReport;
    /// The committed global model.
    fn global(&self) -> &[f32];
    /// Rounds run so far.
    fn rounds(&self) -> u64;
}

impl<C: FederatedClient> Driver for Federation<C> {
    fn round(&mut self) -> RoundReport {
        self.run_round()
    }
    fn global(&self) -> &[f32] {
        self.global_params()
    }
    fn rounds(&self) -> u64 {
        self.rounds_run()
    }
}

impl<F: FleetClientFactory> Driver for Fleet<F> {
    fn round(&mut self) -> RoundReport {
        self.run_round()
    }
    fn global(&self) -> &[f32] {
        self.global_params()
    }
    fn rounds(&self) -> u64 {
        self.rounds_run()
    }
}

/// What one timed section measured.
#[derive(Debug, Default)]
pub struct Section {
    /// Wall time of each round.
    pub walls_s: Vec<f64>,
    /// Each round's report.
    pub reports: Vec<RoundReport>,
    /// Wall time of the whole section.
    pub elapsed_s: f64,
    /// Peak live heap during the section.
    pub peak_mib: f64,
}

impl Section {
    /// Runs one round of `driver`, recording its wall time and report.
    fn round<D: Driver>(&mut self, driver: &mut D) {
        let t0 = Instant::now();
        let report = driver.round();
        self.walls_s.push(t0.elapsed().as_secs_f64());
        self.reports.push(report);
    }

    /// Rounds run.
    pub fn rounds(&self) -> u64 {
        self.walls_s.len() as u64
    }

    /// Rounds per second of section wall time.
    pub fn rate(&self) -> f64 {
        self.rounds() as f64 / self.elapsed_s
    }
}

/// Round-log slots reserved per timed second, so the log does not grow
/// inside the timed section, where the heap is measured.
const LOG_ROUNDS_PER_SECOND: f64 = 4000.0;

/// Runs back-to-back rounds (closed loop: each starts when the previous
/// one returned) until the round that crosses `seconds` but at least
/// `min` rounds, and at most `cap` rounds, handing each round's report
/// to `each`.
///
/// It also takes `setups` more set-ups, spread evenly over the section
/// and returned with their durations: host load on a shared machine
/// shifts over seconds, so set-ups taken together at the start of a run
/// would sample its first fraction of a second only. The section's clock
/// and heap peak pause while a set-up runs and its driver is dropped.
pub fn timed<D: Driver>(
    driver: &mut D,
    seconds: f64,
    (min, cap): (u64, u64),
    (setups, mut set_up): (usize, impl FnMut() -> f64),
    mut each: impl FnMut(&RoundReport),
) -> (Section, Vec<f64>) {
    let reserve = ((seconds * LOG_ROUNDS_PER_SECOND) as u64).clamp(min, cap) as usize;
    let mut section = Section {
        walls_s: Vec::with_capacity(reserve),
        ..Section::default()
    };
    let mut setups_s = Vec::with_capacity(setups);
    let gap = seconds / (setups + 1) as f64;
    heap::reset_peak();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    while (section.elapsed_s < seconds || section.rounds() < min) && section.rounds() < cap {
        if setups_s.len() < setups && section.elapsed_s >= gap * (setups_s.len() + 1) as f64 {
            let pause = Instant::now();
            let peak = heap::peak();
            setups_s.push(set_up());
            heap::restore_peak(peak);
            paused += pause.elapsed();
        }
        let t0 = Instant::now();
        let report = driver.round();
        section.walls_s.push(t0.elapsed().as_secs_f64());
        each(&report);
        section.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    }
    section.peak_mib = heap::peak_mib(section.walls_s.capacity() * size_of::<f64>());
    // A section its round cap ended early still takes every set-up.
    while setups_s.len() < setups {
        setups_s.push(set_up());
    }
    (section, setups_s)
}

/// Runs the untraced and the traced driver in alternation, one round
/// each, until `seconds` have passed or `cap` rounds ran; the two legs so
/// see the same machine conditions. Each leg's elapsed time is the sum of
/// its own rounds.
pub fn paired<A: Driver, B: Driver>(
    plain: &mut A,
    traced: &mut B,
    seconds: f64,
    cap: u64,
) -> (Section, Section) {
    let (mut a, mut b) = (Section::default(), Section::default());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && a.rounds() < cap {
        a.round(plain);
        b.round(traced);
    }
    for s in [&mut a, &mut b] {
        s.elapsed_s = s.walls_s.iter().sum();
    }
    (a, b)
}

/// Timed rounds the `chaos` fault plan covers after the warm-up: more
/// than a 20 s section runs on the 2-vCPU VM of `README.md`, so the cap
/// rarely ends a section, yet the plan stays a small part of set-up and
/// heap.
const CHAOS_TIMED_ROUNDS: u64 = 16_000;

/// One `Federation` workload's shape.
#[derive(Debug, Clone)]
pub struct FedSpec {
    devices: Vec<Vec<AppId>>,
    config: FedAvgConfig,
    seed: u64,
    /// The fault plan: workload input, generated once from the seed
    /// before any set-up is timed, and shared by every build.
    plan: Option<FaultPlan>,
    /// Heap bytes `plan` holds: the benchmark's, not the program's, so
    /// they are left out of `peak_heap_mib`.
    plan_bytes: usize,
    warmup: u64,
    /// Rounds the fault plan covers (warm-up included); the timed section
    /// stops there at the latest.
    horizon: u64,
}

impl FedSpec {
    /// Table I: two devices with disjoint applications, T = 100, H = 20,
    /// batch 128, dense FedAvg, serial.
    pub fn paper(seed: u64) -> Self {
        FedSpec {
            devices: vec![
                vec![AppId::Fft, AppId::Lu],
                vec![AppId::Raytrace, AppId::Volrend],
            ],
            config: FedAvgConfig::paper(),
            seed,
            plan: None,
            plan_bytes: 0,
            warmup: 20,
            horizon: u64::MAX,
        }
    }

    /// Eight devices, T = 20, top-k 5 % uploads, under a seeded chaos
    /// fault plan.
    pub fn chaos(seed: u64) -> Self {
        const DEVICES: usize = 8;
        const WARMUP: u64 = 20;
        let devices = (0..DEVICES)
            .map(|d| vec![AppId::ALL[(2 * d) % 12], AppId::ALL[(2 * d + 1) % 12]])
            .collect();
        let horizon = WARMUP + CHAOS_TIMED_ROUNDS;
        let before = heap::live();
        let plan = FaultPlan::generate(
            &FaultConfig::chaos(),
            DEVICES,
            horizon,
            derive_seed(seed, streams::FAULTS),
        );
        let plan_bytes = heap::live().saturating_sub(before);
        FedSpec {
            devices,
            config: FedAvgConfig {
                steps_per_round: 20,
                codec: Codec::TopK { frac: 0.05 },
                ..FedAvgConfig::paper()
            },
            seed,
            plan: Some(plan),
            plan_bytes,
            warmup: WARMUP,
            horizon,
        }
    }

    fn clients<C>(&self, make: impl Fn(usize, DeviceEnvConfig, u64) -> C) -> Vec<C> {
        self.devices
            .iter()
            .enumerate()
            .map(|(d, apps)| {
                make(
                    d,
                    DeviceEnvConfig::new(apps),
                    derive_seed(self.seed, 20 + d as u64),
                )
            })
            .collect()
    }

    fn federation_seed(&self) -> u64 {
        derive_seed(self.seed, 30)
    }

    /// The untraced federation, built through the public builder; its
    /// recorder only tallies dispositions into a fresh `book`.
    fn untraced(&self, book: &SharedBook) -> Federation<AgentClient> {
        *book.lock().expect("no recorder panicked") = Book::default();
        let clients = self
            .clients(|id, env, seed| AgentClient::new(id, ControllerConfig::paper(), env, seed));
        let builder = Federation::builder(clients, self.config)
            .seed(self.federation_seed())
            .recorder(Box::new(self.recorder(book, false)));
        match &self.plan {
            Some(p) => builder.fault_plan(p).build(),
            None => builder.build(),
        }
        .expect("channel links are infallible")
    }

    /// The traced federation: replica clients, and every link (fault
    /// middleware included) inside a timing decorator.
    fn traced(&self, book: &SharedBook) -> Federation<ReplicaClient> {
        let clients = self.clients(|id, env, seed| {
            ReplicaClient::new(id, ControllerConfig::paper(), env, seed, self.warmup)
        });
        let links = (0..clients.len())
            .map(|id| {
                let link: Box<dyn Transport> = Box::new(ChannelTransport::connect(id));
                let link: Box<dyn Transport> = match &self.plan {
                    Some(p) => Box::new(FaultyTransport::new(link, p)),
                    None => link,
                };
                Box::new(TimedTransport::new(link, Arc::clone(book))) as Box<dyn Transport>
            })
            .collect();
        Federation::builder(clients, self.config)
            .seed(self.federation_seed())
            .links(links)
            .recorder(Box::new(self.recorder(book, true)))
            .build()
            .expect("explicit links are infallible")
    }

    fn offered(&self) -> u64 {
        self.devices.len() as u64
    }

    fn recorder(&self, book: &SharedBook, trace: bool) -> BookRecorder {
        BookRecorder::new(Arc::clone(book), self.offered(), self.plan.is_none(), trace)
    }

    fn round_cap(&self) -> u64 {
        self.horizon.saturating_sub(self.warmup).max(1)
    }

    /// Timed rounds at least, and at most.
    fn round_range(&self) -> (u64, u64) {
        let cap = self.round_cap();
        (COUNTED_ROUNDS.min(cap), cap)
    }
}

/// Fails the run for every round the book's recorder found unaccounted,
/// and when fewer than `rounds` rounds were checked.
fn check_book(report: &mut Report, book: &SharedBook, rounds: u64) {
    let book = book.lock().expect("no recorder panicked");
    report.check(book.rounds_ended == rounds, || {
        format!("{} of {rounds} rounds were checked", book.rounds_ended)
    });
    for (round, d) in &book.unaccounted {
        report.check(false, || {
            format!("round {round} does not account for every client: {d:?}")
        });
    }
}

/// Builds a driver and runs its warm-up rounds; returns it with the
/// elapsed set-up time.
fn set_up<D: Driver>(build: impl FnOnce() -> D, warmup: u64) -> (D, f64) {
    let start = Instant::now();
    let mut driver = build();
    for _ in 0..warmup {
        driver.round();
    }
    (driver, start.elapsed().as_secs_f64())
}

/// Runs a `Federation` workload.
pub fn run_federation(spec: &FedSpec, opts: &Opts) -> Report {
    let mut report = Report::default();
    let plain_book = SharedBook::default();
    if !opts.trace {
        let (mut fed, first) = set_up(|| spec.untraced(&plain_book), spec.warmup);
        let another = || set_up(|| spec.untraced(&SharedBook::default()), spec.warmup).1;
        let mut e2e = EndToEnd::default();
        let (mut section, mut setups) = timed(
            &mut fed,
            opts.seconds,
            spec.round_range(),
            (SETUPS - 1, another),
            |r| e2e.count(r, spec.offered()),
        );
        section.peak_mib -= heap::mib(spec.plan_bytes);
        setups.push(first);
        check_book(&mut report, &plain_book, fed.rounds());
        layers::end_to_end(&mut report, &e2e.finish(setups, section), fed.global());
        return report;
    }

    let (mut plain, _) = set_up(|| spec.untraced(&plain_book), spec.warmup);
    let book = SharedBook::default();
    let (mut fed, _) = set_up(|| spec.traced(&book), spec.warmup);
    let (untraced, section) = paired(&mut plain, &mut fed, opts.seconds, spec.round_cap());
    check_book(&mut report, &plain_book, plain.rounds());
    check_book(&mut report, &book, fed.rounds());
    layers::same_global(&mut report, plain.global(), fed.global());
    let book = book.lock().expect("no recorder panicked");
    let traces: Vec<_> = fed.clients().iter().map(ReplicaClient::trace).collect();
    layers::federation(&mut report, &traces, &book, &section, spec.offered());
    layers::overhead(&mut report, untraced.rate(), section.rate());
    report
}

/// `fleet_100k`'s shape: 100 000 clients over 64 shards, T = 4, lockstep
/// batch 32, dense FedAvg, one worker per available core.
fn fleet_parts(seed: u64) -> (ExperimentConfig, FleetConfig) {
    const CLIENTS: usize = 100_000;
    const SHARDS: usize = 64;
    let cfg = ExperimentConfig::builder()
        .seed(seed)
        .steps_per_round(4)
        .fleet(Some(FleetSpec {
            clients: CLIENTS,
            shards: SHARDS,
        }))
        .build()
        .expect("valid fleet config");
    let fleet = FleetConfig {
        fedavg: cfg.fedavg,
        num_clients: CLIENTS,
        shards: SHARDS,
        batch: FleetConfig::DEFAULT_BATCH,
    };
    (cfg, fleet)
}

/// Rounds of warm-up before a fleet's timed section.
const FLEET_WARMUP: u64 = 1;

/// Runs `fleet_100k`.
pub fn run_fleet(opts: &Opts) -> Report {
    let (cfg, shape) = fleet_parts(opts.seed);
    let clients = shape.num_clients;
    let mut report = Report::default();
    let check = |report: &mut Report, r: &RoundReport| {
        report.check(
            r.participants == clients && r.uploads_ok == clients && r.aggregated,
            || format!("fleet round {} lost clients: {r:?}", r.round),
        );
    };
    let untraced = || Fleet::new(DeviceFleetFactory::new(&cfg), shape).expect("valid fleet");
    if !opts.trace {
        let (mut fleet, first) = set_up(untraced, FLEET_WARMUP);
        let another = || set_up(untraced, FLEET_WARMUP).1;
        let mut e2e = EndToEnd::default();
        let (section, mut setups) = timed(
            &mut fleet,
            opts.seconds,
            (0, u64::MAX),
            (FLEET_SETUPS - 1, another),
            |r| {
                check(&mut report, r);
                e2e.count(r, clients as u64);
            },
        );
        setups.push(first);
        layers::end_to_end(&mut report, &e2e.finish(setups, section), fleet.global());
        return report;
    }

    let (mut plain, _) = set_up(untraced, FLEET_WARMUP);
    let book = SharedBook::default();
    let mut join_s = 0.0;
    let (mut fleet, _) = set_up(
        || {
            let start = Instant::now();
            let fleet = Fleet::with_options(
                TimedFactory::new(DeviceFleetFactory::new(&cfg), Arc::clone(&book)),
                shape,
                None,
                Box::new(BookRecorder::new(
                    Arc::clone(&book),
                    clients as u64,
                    true,
                    true,
                )),
            )
            .expect("valid fleet");
            join_s = start.elapsed().as_secs_f64();
            fleet
        },
        FLEET_WARMUP,
    );
    let (untimed, section) = paired(&mut plain, &mut fleet, opts.seconds, u64::MAX);
    for r in untimed.reports.iter().chain(&section.reports) {
        check(&mut report, r);
    }
    check_book(&mut report, &book, fleet.rounds());
    layers::same_global(&mut report, plain.global(), fleet.global());
    let book = book.lock().expect("no recorder panicked");
    let workers = WorkerPool::default().workers();
    let shape = (clients as u64, FLEET_WARMUP);
    layers::fleet(&mut report, &book, &section, shape, join_s, workers);
    layers::overhead(&mut report, untimed.rate(), section.rate());
    report
}
