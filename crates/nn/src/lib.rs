//! # fedpower-nn
//!
//! A minimal, dependency-light dense neural-network library powering the
//! DVFS policy networks of the `fedpower` workspace.
//!
//! The paper (Dietrich et al., DATE 2025) uses a single-hidden-layer MLP
//! (32 ReLU neurons) trained as a regression model with the Adam optimizer
//! and the Huber loss. This crate implements exactly that stack from
//! scratch:
//!
//! * [`Mlp`] — a multi-layer perceptron with explicit forward/backward,
//! * [`Loss`] implementations ([`Huber`], [`Mse`]),
//! * [`Optimizer`] implementations ([`Adam`], [`Sgd`]),
//! * flat parameter access ([`Mlp::params`] / [`Mlp::set_params`]) used by
//!   federated averaging,
//! * binary serialization ([`Mlp::to_bytes`] / [`Mlp::from_bytes`]) used to
//!   account for the per-round communication volume (~2.8 kB for the
//!   paper's 5→32→15 network),
//! * a finite-difference [gradient checker](gradcheck) used by the test
//!   suite to validate backpropagation.
//!
//! # Example
//!
//! ```
//! use fedpower_nn::{Activation, Adam, Huber, Mlp, TrainBatch};
//!
//! // The paper's policy network: 5 state features -> 32 ReLU -> 15 V/f levels.
//! let mut net = Mlp::new(&[5, 32, 15], Activation::Relu, 42);
//! let mut opt = Adam::new(0.005, net.num_params());
//!
//! let batch = TrainBatch {
//!     inputs: &[0.5, 0.6, 0.8, 0.1, 2.0, /* second sample */ 0.2, 0.3, 0.4, 0.2, 8.0],
//!     actions: &[3, 11],
//!     targets: &[0.7, -0.2],
//! };
//! let mut loss = net.train_batch(&batch, &Huber::new(1.0), &mut opt);
//! for _ in 0..50 {
//!     loss = net.train_batch(&batch, &Huber::new(1.0), &mut opt);
//! }
//! assert!(loss < 0.01, "regression should fit two points, got {loss}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod gradcheck;
mod init;
pub mod kernels;
mod linear;
mod loss;
mod matrix;
mod mlp;
mod optim;
mod workspace;

pub use error::NnError;
pub use linear::{Activation, Linear};
pub use loss::{Huber, Loss, Mse};
pub use matrix::Matrix;
pub use mlp::{Mlp, TrainBatch};
pub use optim::{Adam, Optimizer, Sgd};
pub use workspace::{ForwardScratch, TrainScratch};

/// Averages the flat parameter vectors of several models into a new vector.
///
/// This is the arithmetic core of federated averaging (Algorithm 2 of the
/// paper): `out[i] = Σ_n w_n · params_n[i]` with weights `w_n` summing to 1.
/// The unweighted variant used by the paper passes `w_n = 1/N`.
///
/// # Errors
///
/// Returns [`NnError::ShapeMismatch`] if the parameter vectors differ in
/// length, or [`NnError::InvalidArgument`] if `models` is empty or the
/// weight count differs from the model count.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fedpower_nn::NnError> {
/// let a = vec![1.0_f32, 3.0];
/// let b = vec![3.0_f32, 5.0];
/// let avg = fedpower_nn::average_params(&[&a, &b], &[0.5, 0.5])?;
/// assert_eq!(avg, vec![2.0, 4.0]);
/// # Ok(())
/// # }
/// ```
pub fn average_params(models: &[&[f32]], weights: &[f32]) -> Result<Vec<f32>, NnError> {
    if models.is_empty() {
        return Err(NnError::InvalidArgument(
            "cannot average zero models".into(),
        ));
    }
    if models.len() != weights.len() {
        return Err(NnError::InvalidArgument(format!(
            "got {} models but {} weights",
            models.len(),
            weights.len()
        )));
    }
    let len = models[0].len();
    for (i, m) in models.iter().enumerate() {
        if m.len() != len {
            return Err(NnError::ShapeMismatch {
                expected: len,
                actual: m.len(),
                context: format!("parameter vector of model {i}"),
            });
        }
    }
    let mut out = vec![0.0_f32; len];
    for (m, &w) in models.iter().zip(weights) {
        for (o, &p) in out.iter_mut().zip(m.iter()) {
            *o += w * p;
        }
    }
    Ok(out)
}

/// Convenience wrapper for the unweighted mean used by the paper's FedAvg.
///
/// # Errors
///
/// Same as [`average_params`].
pub fn average_params_uniform(models: &[&[f32]]) -> Result<Vec<f32>, NnError> {
    let w = 1.0 / models.len().max(1) as f32;
    let weights = vec![w; models.len()];
    average_params(models, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_average_of_identical_models_is_identity() {
        let p = vec![0.25_f32, -1.5, 3.0];
        let avg = average_params_uniform(&[&p, &p, &p]).unwrap();
        assert_eq!(avg, p);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = vec![0.0_f32, 0.0];
        let b = vec![4.0_f32, 8.0];
        let avg = average_params(&[&a, &b], &[0.75, 0.25]).unwrap();
        assert_eq!(avg, vec![1.0, 2.0]);
    }

    #[test]
    fn averaging_empty_model_list_errors() {
        assert!(matches!(
            average_params(&[], &[]),
            Err(NnError::InvalidArgument(_))
        ));
    }

    #[test]
    fn averaging_mismatched_lengths_errors() {
        let a = vec![1.0_f32];
        let b = vec![1.0_f32, 2.0];
        assert!(matches!(
            average_params(&[&a, &b], &[0.5, 0.5]),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn averaging_weight_count_mismatch_errors() {
        let a = vec![1.0_f32];
        assert!(average_params(&[&a], &[0.5, 0.5]).is_err());
    }
}
