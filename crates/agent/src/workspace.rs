//! Per-agent scratch bundle for the allocation-free control loop.
//!
//! One [`AgentWorkspace`] holds every buffer a controller touches per
//! environment step: forward activations for reward prediction, softmax
//! probabilities for action sampling, replay sample buffers, backprop
//! scratch for the optimization interval, and flat parameter staging for
//! the (optional) FedProx pull. A federated worker thread owns exactly one
//! workspace and reuses it across all clients and rounds it processes, so
//! steady-state training performs zero heap allocations.

use crate::replay::ReplayScratch;
use fedpower_nn::{ForwardScratch, TrainScratch};

/// Reusable scratch for [`crate::PowerController`] and
/// [`crate::TdController`] hot-path methods (`select_action_with`,
/// `observe_with`, `train_once_with`).
///
/// The workspace is model-agnostic: buffers reshape to whatever network
/// and batch size the borrowing controller uses, reusing capacity.
#[derive(Debug, Clone, Default)]
pub struct AgentWorkspace {
    /// Forward-pass activations for reward prediction.
    pub forward: ForwardScratch,
    /// Backprop scratch for the periodic optimization step.
    pub train: TrainScratch,
    /// Flat replay sample buffers.
    pub replay: ReplayScratch,
    /// Softmax probability buffer for action sampling.
    pub probs: Vec<f64>,
    /// Flat parameter staging (FedProx pull, TD target bootstrap).
    pub params: Vec<f32>,
}

impl AgentWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AgentWorkspace::default()
    }
}
