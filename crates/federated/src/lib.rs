//! # fedpower-federated
//!
//! Federated averaging (Algorithm 2 of the paper / McMahan et al. 2017)
//! over neural DVFS power controllers.
//!
//! The paper's setting: `N` homogeneous clients each run a local
//! [`fedpower_agent::PowerController`]; a central server alternates between
//! broadcasting the global model and averaging the clients' locally
//! optimized models. Only model parameters travel — replay buffers (raw
//! performance-counter and power traces) never leave the devices, which is
//! the privacy property motivating the work.
//!
//! Components:
//!
//! * [`AggregationServer`] — synchronous parameter averaging: a
//!   [`RoundAccumulator`] combines each round under an
//!   [`AggregationStrategy`] (the paper's unweighted mean, a
//!   sample-weighted extension, and robust trimmed-mean/median rules), and
//!   [`AggregationServer::commit_round`] commits the result through the
//!   configured [`ServerOpt`] ([`ServerOpt::FedAvg`], [`ServerOpt::FedAdam`],
//!   [`ServerOpt::FedProx`]),
//! * [`AgentClient`] — a [`FederatedClient`] wrapping a power controller
//!   and its simulated device,
//! * [`Federation`] — round orchestration (`R` rounds × `T` local steps),
//!   training its clients in order, with optional partial participation
//!   and Gaussian update noise (differential-privacy-style knob); resilient
//!   to client faults via minimum-quorum aggregation, bounded upload
//!   retries ([`engine::MAX_UPLOAD_RETRIES`]), staleness-discounted
//!   straggler updates ([`engine::STALENESS_DECAY`]), and NaN/shape
//!   admission,
//! * [`Fleet`] — hierarchical (sharded) cross-device orchestration: each
//!   edge aggregator reduces a shard of lazily materialized clients
//!   into an exact partial sum ([`ExactSum`] arithmetic), and the merged
//!   partials commit through the same server path bit-identically to a
//!   flat round — which is what keeps a 100k-client round inside a fixed
//!   memory budget,
//! * [`Transport`] / [`ChannelTransport`] — the in-process link every
//!   model exchange crosses as encoded bytes; real sockets live only in
//!   [`netserver`], the `fedpower-server` driver of the same
//!   [`RoundEngine`],
//! * [`FaultPlan`] / [`FaultyTransport`] — seed-deterministic fault
//!   injection (drops, stragglers, corruption, crash-and-rejoin) applied to
//!   bytes in flight, for resilience testing,
//! * [`report`] — the unified reporting module: [`report::RoundReport`],
//!   [`report::PhaseTimings`], [`report::TransportStats`] (the §IV-C
//!   overhead numbers), and [`report::FaultSummary`], all defined as
//!   deterministic reductions over the [`fedpower_telemetry`] event stream
//!   the federation emits.
//!
//! # Example: two devices with disjoint workloads
//!
//! ```
//! use fedpower_agent::{ControllerConfig, DeviceEnvConfig};
//! use fedpower_federated::{AgentClient, FedAvgConfig, Federation};
//! use fedpower_workloads::AppId;
//!
//! let clients = vec![
//!     AgentClient::new(0, ControllerConfig::default(), DeviceEnvConfig::new(&[AppId::Fft]), 1),
//!     AgentClient::new(1, ControllerConfig::default(), DeviceEnvConfig::new(&[AppId::Ocean]), 2),
//! ];
//! let mut federation = Federation::new(clients, FedAvgConfig::default(), 42);
//! let report = federation.run_round();
//! assert_eq!(report.participants, 2);
//! assert!(federation.transport().uploaded_bytes > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod engine;
mod error;
mod exact;
mod fault;
mod federation;
mod fleet;
pub mod netserver;
mod pool;
pub mod report;
mod server;
mod td_client;
mod transport;
pub mod wire;

pub use client::{AgentClient, FederatedClient, ModelUpdate};
pub use engine::{EnginePolicy, Frame, RoundEngine};
pub use error::FedError;
pub use exact::ExactSum;
pub use fault::{
    CorruptionKind, Fault, FaultConfig, FaultPlan, FaultScenario, FaultyTransport, PlanCounts,
};
pub use federation::{FedAvgConfig, Federation, FederationBuilder};
pub use fleet::{Fleet, FleetClientFactory, FleetConfig};
pub use netserver::{run_client, serve, serve_on, JoinOptions, ServeOptions, ServeReport};
pub use pool::WorkerPool;
pub use server::{
    AggregationServer, AggregationStrategy, RoundAccumulator, ServerOpt, ServerOptKind,
};
pub use td_client::TdClient;
pub use transport::{ChannelTransport, Transport, TransportKind};
pub use wire::{Codec, CodecError, CodedUpdate, Envelope, ReferenceWindow, WireError};

// Compatibility shims: the reporting types moved into [`report`] when the
// telemetry subsystem landed. External code keeps compiling through these
// crate-root aliases; new code should import from `report::`.

/// Moved to [`report::FaultSummary`].
#[deprecated(since = "0.1.0", note = "moved to `report::FaultSummary`")]
pub type FaultSummary = report::FaultSummary;
/// Moved to [`report::PhaseTimings`].
#[deprecated(since = "0.1.0", note = "moved to `report::PhaseTimings`")]
pub type PhaseTimings = report::PhaseTimings;
/// Moved to [`report::RoundReport`].
#[deprecated(since = "0.1.0", note = "moved to `report::RoundReport`")]
pub type RoundReport = report::RoundReport;
/// Moved to [`report::TransportStats`].
#[deprecated(since = "0.1.0", note = "moved to `report::TransportStats`")]
pub type TransportStats = report::TransportStats;
/// Renamed to [`AggregationServer`] when the commit stage generalized
/// beyond plain FedAvg.
#[deprecated(since = "0.1.0", note = "renamed to `AggregationServer`")]
pub type FedAvgServer = AggregationServer;
