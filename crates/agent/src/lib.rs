//! # fedpower-agent
//!
//! The paper's local power controller (Algorithm 1): a neural contextual
//! bandit that alternates between observing the processor state
//! `s = (f, P, ipc, mr, mpki)` and selecting a V/f level, learning online
//! which frequency maximizes performance under the power constraint.
//!
//! Components:
//!
//! * [`RewardConfig`] / [`RewardConfig::reward`] — the piecewise reward of
//!   Eq. (4), trading normalized frequency against power overshoot,
//! * [`State`] — the observed feature vector with its normalization,
//! * [`ReplayBuffer`] — ring buffer of the `C` most recent
//!   state/action/reward samples,
//! * [`SoftmaxPolicy`] — Boltzmann exploration with exponentially decaying
//!   temperature (Eq. (3)),
//! * [`PowerController`] — ties them together around a
//!   [`fedpower_nn::Mlp`] reward model trained with Adam + Huber,
//! * [`DeviceEnv`] — a simulated device: processor + application stream,
//!   exposing the observe/act interface of Fig. 1.
//!
//! # Example: one training episode on a simulated device
//!
//! ```
//! use fedpower_agent::{ControllerConfig, DeviceEnv, DeviceEnvConfig, PowerController};
//! use fedpower_workloads::AppId;
//!
//! let mut env = DeviceEnv::new(DeviceEnvConfig::new(&[AppId::Fft, AppId::Lu]), 1);
//! let mut agent = PowerController::new(ControllerConfig::default(), 1);
//! let mut state = env.bootstrap().state;
//! for _ in 0..50 {
//!     let action = agent.select_action(&state);
//!     let obs = env.execute(action);
//!     let reward = agent.reward_for(&obs.counters);
//!     agent.observe(&state, action, reward);
//!     state = obs.state;
//! }
//! assert_eq!(agent.steps(), 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster_env;
mod controller;
mod env;
mod policy;
mod replay;
mod reward;
mod state;
mod td;
mod workspace;

pub use cluster_env::{ClusterEnv, ClusterEnvConfig, ClusterObservation};
pub use controller::{ControllerConfig, PowerController};
pub use env::{DeviceEnv, DeviceEnvConfig, StepDriver, StepObservation};
pub use policy::{SoftmaxPolicy, TemperatureSchedule};
pub use replay::{ReplayBuffer, ReplayScratch, Transition};
pub use reward::RewardConfig;
pub use state::{State, StateNorm};
pub use td::{TdConfig, TdController, TdTransition};
pub use workspace::AgentWorkspace;
