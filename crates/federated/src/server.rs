use crate::client::ModelUpdate;
use crate::error::FedError;
use crate::exact::ExactSum;
use fedpower_nn::average_params;
use serde::{Deserialize, Serialize};

/// How the server combines client models into the next global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AggregationStrategy {
    /// Unweighted mean — "giving the same importance to each client"
    /// (§III-B, the paper's choice).
    #[default]
    Uniform,
    /// Weight each client by the number of samples it trained on this
    /// round (the original FedAvg weighting; an ablation in this repo).
    SampleWeighted,
    /// Coordinate-wise trimmed mean: drop the `trim_each_side` largest and
    /// smallest values per parameter before averaging. Robust to up to
    /// `trim_each_side` byzantine clients (Yin et al. 2018) — an extension
    /// hardening the paper's aggregation against malicious participants.
    TrimmedMean {
        /// Values dropped per side, per coordinate.
        trim_each_side: usize,
    },
    /// Coordinate-wise median — maximally robust, higher variance.
    CoordinateMedian,
}

impl AggregationStrategy {
    /// Whether shard-local partials of this strategy merge associatively
    /// (bit-exactly) into the state of a flat round — the capability the
    /// fleet engine and [`RoundAccumulator::merge`] require. The robust
    /// combiners ([`AggregationStrategy::TrimmedMean`],
    /// [`AggregationStrategy::CoordinateMedian`]) need every update's
    /// coordinates in one place and are not shard-reducible.
    pub fn shard_reducible(self) -> bool {
        !matches!(
            self,
            AggregationStrategy::TrimmedMean { .. } | AggregationStrategy::CoordinateMedian
        )
    }
}

/// Which server optimizer commits combined rounds into θ — the
/// hyperparameter-free selector shared by the CLI (`--optimizer`) and
/// telemetry. [`ServerOpt`] carries the full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServerOptKind {
    /// Plain FedAvg assignment, optionally smoothed by FedAvgM momentum
    /// (the paper's server).
    #[default]
    FedAvg,
    /// Server-side Adam over the round's aggregate delta (adaptive
    /// federated optimization, Reddi et al. 2021).
    FedAdam,
    /// FedAvg commit plus a client-side proximal term μ/2·‖w − θ‖²
    /// (Li et al. 2020).
    FedProx,
}

impl ServerOptKind {
    /// Every selectable kind, in CLI listing order.
    pub const ALL: [ServerOptKind; 3] = [
        ServerOptKind::FedAvg,
        ServerOptKind::FedAdam,
        ServerOptKind::FedProx,
    ];

    /// The CLI name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ServerOptKind::FedAvg => "fedavg",
            ServerOptKind::FedAdam => "fedadam",
            ServerOptKind::FedProx => "fedprox",
        }
    }

    /// Parses a CLI name (`fedavg`, `fedadam`, `fedprox`).
    pub fn parse(s: &str) -> Option<Self> {
        ServerOptKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Stable numeric code recorded in telemetry counters.
    pub fn code(self) -> u64 {
        match self {
            ServerOptKind::FedAvg => 0,
            ServerOptKind::FedAdam => 1,
            ServerOptKind::FedProx => 2,
        }
    }
}

/// Server-optimizer selection with hyperparameters, carried in
/// [`crate::FedAvgConfig::optimizer`].
///
/// `FedAvg` is the paper's server and the default; `fedadam()` /
/// `fedprox()` build the other schemes with their reference defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ServerOpt {
    /// Plain FedAvg commit (composes with `server_momentum` for FedAvgM).
    #[default]
    FedAvg,
    /// Server-side Adam over the aggregate delta.
    FedAdam {
        /// Server learning rate η (must be positive and finite).
        lr: f32,
        /// First-moment decay β₁ ∈ [0, 1).
        beta1: f32,
        /// Second-moment decay β₂ ∈ [0, 1).
        beta2: f32,
        /// Denominator floor ε (must be positive and finite).
        eps: f32,
    },
    /// Client-side proximal term; the server commit is FedAvg's.
    FedProx {
        /// Proximal coefficient μ ≥ 0 (0 disables the pull).
        mu: f32,
    },
}

impl ServerOpt {
    /// FedAdam with the adaptive-federated-optimization defaults used by
    /// this repo's ablations: η = 0.01, β₁ = 0.9, β₂ = 0.99, ε = 10⁻³.
    pub fn fedadam() -> Self {
        ServerOpt::FedAdam {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        }
    }

    /// FedProx with μ = 0.01 (the ablation default).
    pub fn fedprox() -> Self {
        ServerOpt::FedProx { mu: 0.01 }
    }

    /// The configuration a bare CLI kind selects (reference defaults).
    pub fn from_kind(kind: ServerOptKind) -> Self {
        match kind {
            ServerOptKind::FedAvg => ServerOpt::FedAvg,
            ServerOptKind::FedAdam => ServerOpt::fedadam(),
            ServerOptKind::FedProx => ServerOpt::fedprox(),
        }
    }

    /// Which optimizer this configures.
    pub fn kind(self) -> ServerOptKind {
        match self {
            ServerOpt::FedAvg => ServerOptKind::FedAvg,
            ServerOpt::FedAdam { .. } => ServerOptKind::FedAdam,
            ServerOpt::FedProx { .. } => ServerOptKind::FedProx,
        }
    }

    /// The proximal coefficient clients should train under (0 for the
    /// non-proximal optimizers).
    pub fn prox_mu(self) -> f32 {
        match self {
            ServerOpt::FedProx { mu } => mu,
            _ => 0.0,
        }
    }

    /// Checks the hyperparameter domains, returning the first violation
    /// as a message naming the valid range.
    ///
    /// # Errors
    ///
    /// `Err(msg)` when a FedAdam coefficient or the FedProx μ is outside
    /// its domain (η, ε positive finite; β ∈ [0, 1); μ ≥ 0 finite).
    pub fn validate(self) -> Result<(), String> {
        match self {
            ServerOpt::FedAvg => Ok(()),
            ServerOpt::FedAdam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                if !(lr > 0.0 && lr.is_finite()) {
                    return Err(format!(
                        "server learning rate must be positive and finite, got {lr}"
                    ));
                }
                for b in [beta1, beta2] {
                    if !(0.0..1.0).contains(&b) {
                        return Err(format!(
                            "Adam moment coefficient beta must be in [0, 1), got {b}"
                        ));
                    }
                }
                if !(eps > 0.0 && eps.is_finite()) {
                    return Err(format!(
                        "Adam epsilon must be positive and finite, got {eps}"
                    ));
                }
                Ok(())
            }
            ServerOpt::FedProx { mu } => {
                if !(mu >= 0.0 && mu.is_finite()) {
                    return Err(format!(
                        "proximal coefficient mu must be finite and >= 0 \
                         (0 disables the proximal pull), got {mu}"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Commit-stage policy of the two-stage aggregation pipeline.
///
/// Aggregation is split into a *combine* stage — the
/// [`RoundAccumulator`]/[`AggregationStrategy`] machinery reducing the
/// round's admitted updates to one aggregate model — and a *commit* stage
/// deciding how that aggregate folds into the global model θ. A
/// `ServerOptimizer` is the commit stage: `commit` consumes the combine
/// stage's output `next` (same length as `global`, guaranteed by
/// admission) and updates `global` in place. Implementations own whatever
/// cross-round state they need (momentum velocity, Adam moments) and must
/// allocate it once at construction so the steady-state commit stays
/// allocation-free.
pub trait ServerOptimizer {
    /// Folds the combined round model `next` into `global`.
    fn commit(&mut self, global: &mut Vec<f32>, next: Vec<f32>);

    /// Which optimizer this is, for config echo and telemetry.
    fn kind(&self) -> ServerOptKind;
}

/// The FedAvg commit: the aggregate replaces θ directly, or — with
/// FedAvgM momentum β > 0 — through the smoothed velocity
/// `v ← β·v + (θ − next)`, `θ ← θ − v` (Hsu et al. 2019).
#[derive(Debug, Clone, PartialEq)]
pub struct FedAvgCommit {
    momentum: f32,
    velocity: Vec<f32>,
}

impl FedAvgCommit {
    /// A commit stage for models of `model_len` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `momentum ∉ [0, 1)`.
    pub fn new(model_len: usize, momentum: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum must be in [0, 1), got {momentum}"
        );
        FedAvgCommit {
            momentum,
            velocity: vec![0.0; model_len],
        }
    }
}

impl ServerOptimizer for FedAvgCommit {
    fn commit(&mut self, global: &mut Vec<f32>, next: Vec<f32>) {
        if self.momentum > 0.0 {
            #[allow(clippy::needless_range_loop)] // index couples global, next, velocity
            for i in 0..global.len() {
                let delta = global[i] - next[i];
                self.velocity[i] = self.momentum * self.velocity[i] + delta;
                global[i] -= self.velocity[i];
            }
        } else {
            *global = next;
        }
    }

    fn kind(&self) -> ServerOptKind {
        ServerOptKind::FedAvg
    }
}

/// The FedAdam commit (Reddi et al. 2021): the round's pseudo-gradient
/// `g = θ − next` drives per-coordinate Adam moments, and θ moves by the
/// adaptive step instead of the raw aggregate.
///
/// Two deliberate arithmetic choices make the optimizer *reduce to
/// FedAvg bit-for-bit* in the degenerate corner (DESIGN.md §13): the
/// denominator is `max(√v̂, ε)` rather than `√v̂ + ε`, and the write-back
/// is anchored on the aggregate — `θᵢ ← nextᵢ + (gᵢ − stepᵢ)` — rather
/// than on θ. With β₁ = β₂ = 0, η = 1 and an ε-dominated denominator,
/// `stepᵢ = gᵢ` exactly, the parenthesis is zero, and the commit is the
/// FedAvg assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FedAdamCommit {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Rounds committed (Adam's bias-correction step count).
    t: u64,
    /// First moment, allocated once — the commit stage never allocates.
    m: Vec<f32>,
    /// Second moment, allocated once.
    v: Vec<f32>,
}

impl FedAdamCommit {
    /// A commit stage for models of `model_len` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr`/`eps` are not positive finite or a β ∉ [0, 1).
    pub fn new(model_len: usize, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        let opt = ServerOpt::FedAdam {
            lr,
            beta1,
            beta2,
            eps,
        };
        if let Err(msg) = opt.validate() {
            panic!("{msg}");
        }
        FedAdamCommit {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: vec![0.0; model_len],
            v: vec![0.0; model_len],
        }
    }
}

impl ServerOptimizer for FedAdamCommit {
    fn commit(&mut self, global: &mut Vec<f32>, next: Vec<f32>) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        #[allow(clippy::needless_range_loop)] // index couples global, next, moments
        for i in 0..global.len() {
            let g = global[i] - next[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            let step = self.lr * (m_hat / v_hat.sqrt().max(self.eps));
            global[i] = next[i] + (g - step);
        }
    }

    fn kind(&self) -> ServerOptKind {
        ServerOptKind::FedAdam
    }
}

/// The FedProx commit (Li et al. 2020). The proximal term μ/2·‖w − θ‖²
/// acts on the *client* objective — engines thread μ into the clients'
/// local training — so the server-side commit is exactly FedAvg's; the
/// struct carries μ for config echo and reports the right kind.
#[derive(Debug, Clone, PartialEq)]
pub struct FedProxCommit {
    mu: f32,
    inner: FedAvgCommit,
}

impl FedProxCommit {
    /// A commit stage for models of `model_len` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is negative or non-finite, or `momentum ∉ [0, 1)`.
    pub fn new(model_len: usize, momentum: f32, mu: f32) -> Self {
        if let Err(msg) = (ServerOpt::FedProx { mu }).validate() {
            panic!("{msg}");
        }
        FedProxCommit {
            mu,
            inner: FedAvgCommit::new(model_len, momentum),
        }
    }

    /// The proximal coefficient clients train under.
    pub fn mu(&self) -> f32 {
        self.mu
    }
}

impl ServerOptimizer for FedProxCommit {
    fn commit(&mut self, global: &mut Vec<f32>, next: Vec<f32>) {
        self.inner.commit(global, next);
    }

    fn kind(&self) -> ServerOptKind {
        ServerOptKind::FedProx
    }
}

/// The server's optimizer state — an enum delegating to the concrete
/// [`ServerOptimizer`]s rather than a boxed trait object, so
/// [`AggregationServer`] keeps its `Clone`/`PartialEq` derives.
#[derive(Debug, Clone, PartialEq)]
// Variants deliberately mirror [`ServerOpt`]'s names one-to-one.
#[allow(clippy::enum_variant_names)]
enum CommitState {
    FedAvg(FedAvgCommit),
    FedAdam(FedAdamCommit),
    FedProx(FedProxCommit),
}

impl CommitState {
    /// Builds the optimizer state a [`ServerOpt`] selects.
    ///
    /// # Panics
    ///
    /// Panics when the hyperparameters fail [`ServerOpt::validate`], or
    /// when `momentum > 0` is combined with FedAdam (`server_momentum` is
    /// a FedAvg(M) setting; FedAdam maintains its own moments).
    fn from_config(model_len: usize, momentum: f32, opt: ServerOpt) -> Self {
        match opt {
            ServerOpt::FedAvg => CommitState::FedAvg(FedAvgCommit::new(model_len, momentum)),
            ServerOpt::FedAdam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                assert!(
                    momentum == 0.0,
                    "server_momentum is a FedAvg(M) setting and must be 0 under FedAdam \
                     (FedAdam maintains its own moments), got {momentum}"
                );
                CommitState::FedAdam(FedAdamCommit::new(model_len, lr, beta1, beta2, eps))
            }
            ServerOpt::FedProx { mu } => {
                CommitState::FedProx(FedProxCommit::new(model_len, momentum, mu))
            }
        }
    }
}

impl ServerOptimizer for CommitState {
    fn commit(&mut self, global: &mut Vec<f32>, next: Vec<f32>) {
        match self {
            CommitState::FedAvg(o) => o.commit(global, next),
            CommitState::FedAdam(o) => o.commit(global, next),
            CommitState::FedProx(o) => o.commit(global, next),
        }
    }

    fn kind(&self) -> ServerOptKind {
        match self {
            CommitState::FedAvg(o) => o.kind(),
            CommitState::FedAdam(o) => o.kind(),
            CommitState::FedProx(o) => o.kind(),
        }
    }
}

/// The central aggregation server of Algorithm 2.
///
/// Aggregation is synchronous: the caller collects all participating
/// clients' updates before invoking [`AggregationServer::aggregate`]. An
/// optional server momentum (FedAvgM, Hsu et al. 2019) smooths the global
/// trajectory across rounds.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fedpower_federated::FedError> {
/// use fedpower_federated::{AggregationStrategy, AggregationServer, ModelUpdate};
/// let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
/// let global = server.aggregate(&[
///     ModelUpdate { client_id: 0, params: vec![1.0, 2.0], num_samples: 100 },
///     ModelUpdate { client_id: 1, params: vec![3.0, 4.0], num_samples: 100 },
/// ])?;
/// assert_eq!(global, &[2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationServer {
    global: Vec<f32>,
    strategy: AggregationStrategy,
    opt: CommitState,
    rounds_completed: u64,
}

impl AggregationServer {
    /// Creates a server with initial global parameters θ₁, a plain FedAvg
    /// commit, and no momentum.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty.
    pub fn new(initial: Vec<f32>, strategy: AggregationStrategy) -> Self {
        Self::with_momentum(initial, strategy, 0.0)
    }

    /// Creates a server applying FedAvgM server momentum: with β > 0 the
    /// per-round model delta is accumulated as
    /// `v ← β·v + (θ_r − aggregate)` and `θ_{r+1} = θ_r − v`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or `momentum ∉ [0, 1)`.
    pub fn with_momentum(initial: Vec<f32>, strategy: AggregationStrategy, momentum: f32) -> Self {
        Self::with_optimizer(initial, strategy, momentum, ServerOpt::FedAvg)
    }

    /// The fully general constructor: combine under `strategy`, commit
    /// through the [`ServerOptimizer`] that `optimizer` selects.
    /// `momentum` is FedAvgM's β and applies to the FedAvg-commit
    /// optimizers only (it must be 0 under FedAdam).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `momentum ∉ [0, 1)`, or the
    /// optimizer hyperparameters fail [`ServerOpt::validate`].
    pub fn with_optimizer(
        initial: Vec<f32>,
        strategy: AggregationStrategy,
        momentum: f32,
        optimizer: ServerOpt,
    ) -> Self {
        assert!(!initial.is_empty(), "global model cannot be empty");
        let opt = CommitState::from_config(initial.len(), momentum, optimizer);
        AggregationServer {
            global: initial,
            strategy,
            opt,
            rounds_completed: 0,
        }
    }

    /// The current global parameters θ_r.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The configured aggregation strategy.
    pub fn strategy(&self) -> AggregationStrategy {
        self.strategy
    }

    /// Which server optimizer commits this server's rounds.
    pub fn optimizer_kind(&self) -> ServerOptKind {
        self.opt.kind()
    }

    /// Rounds aggregated so far.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Serializes the commit stage's mutable cross-round state (round
    /// count, FedAvgM velocity, Adam moments) into the opaque optimizer
    /// blob a checkpoint carries. Hyperparameters are *not* stored — a
    /// restored server is rebuilt from configuration first, then this
    /// blob reinstates only what training mutated.
    pub(crate) fn snapshot_opt_state(&self) -> Vec<u8> {
        fn put_params(out: &mut Vec<u8>, params: &[f32]) {
            out.extend_from_slice(&(params.len() as u32).to_le_bytes());
            for p in params {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        out.push(self.opt.kind().code() as u8);
        out.extend_from_slice(&self.rounds_completed.to_le_bytes());
        match &self.opt {
            CommitState::FedAvg(o) => put_params(&mut out, &o.velocity),
            CommitState::FedAdam(o) => {
                out.extend_from_slice(&o.t.to_le_bytes());
                put_params(&mut out, &o.m);
                put_params(&mut out, &o.v);
            }
            CommitState::FedProx(o) => put_params(&mut out, &o.inner.velocity),
        }
        out
    }

    /// Restores the commit stage's mutable state from a blob written by
    /// [`AggregationServer::snapshot_opt_state`]. The server must already
    /// be configured identically to the one that wrote the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when the blob's optimizer kind
    /// or state shapes disagree with this server's configuration, or the
    /// blob is truncated/oversized.
    pub(crate) fn restore_opt_state(&mut self, blob: &[u8]) -> Result<(), FedError> {
        let mut cur = OptBlobCursor { buf: blob, pos: 0 };
        let kind = cur.u8()?;
        if kind != self.opt.kind().code() as u8 {
            return Err(FedError::InvalidConfig(format!(
                "checkpoint optimizer kind {kind} does not match the configured {:?}",
                self.opt.kind()
            )));
        }
        let rounds_completed = cur.u64()?;
        let opt = match &self.opt {
            CommitState::FedAvg(o) => CommitState::FedAvg(FedAvgCommit {
                momentum: o.momentum,
                velocity: cur.params(o.velocity.len())?,
            }),
            CommitState::FedAdam(o) => {
                let t = cur.u64()?;
                CommitState::FedAdam(FedAdamCommit {
                    t,
                    m: cur.params(o.m.len())?,
                    v: cur.params(o.v.len())?,
                    ..o.clone()
                })
            }
            CommitState::FedProx(o) => CommitState::FedProx(FedProxCommit {
                mu: o.mu,
                inner: FedAvgCommit {
                    momentum: o.inner.momentum,
                    velocity: cur.params(o.inner.velocity.len())?,
                },
            }),
        };
        if cur.pos != blob.len() {
            return Err(FedError::InvalidConfig(format!(
                "optimizer blob has {} trailing bytes",
                blob.len() - cur.pos
            )));
        }
        self.opt = opt;
        self.rounds_completed = rounds_completed;
        Ok(())
    }

    /// Replaces θ wholesale (checkpoint restore). The shape must match —
    /// the commit stage's per-coordinate state was sized at construction.
    pub(crate) fn restore_global(&mut self, global: Vec<f32>) {
        assert_eq!(
            global.len(),
            self.global.len(),
            "checkpoint global shape must match the configured model"
        );
        self.global = global;
    }

    /// Combines client updates into the next global model and returns it.
    ///
    /// Mean-based strategies compute `θ_{r+1} = Σ w_n · θ_r^n`; the robust
    /// strategies aggregate each coordinate independently.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::EmptyRound`] when no updates were supplied,
    /// [`FedError::Model`] when parameter vectors disagree in shape, and
    /// [`FedError::InvalidConfig`] when a trimmed mean would discard every
    /// contribution.
    pub fn aggregate(&mut self, updates: &[ModelUpdate]) -> Result<&[f32], FedError> {
        if updates.is_empty() {
            return Err(FedError::EmptyRound);
        }
        let models: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        let next = match self.strategy {
            AggregationStrategy::Uniform => {
                let weights = vec![1.0 / updates.len() as f32; updates.len()];
                average_params(&models, &weights)?
            }
            AggregationStrategy::SampleWeighted => {
                let total: u64 = updates.iter().map(|u| u.num_samples).sum();
                let weights: Vec<f32> = if total == 0 {
                    vec![1.0 / updates.len() as f32; updates.len()]
                } else {
                    updates
                        .iter()
                        .map(|u| u.num_samples as f32 / total as f32)
                        .collect()
                };
                average_params(&models, &weights)?
            }
            AggregationStrategy::TrimmedMean { trim_each_side } => {
                if 2 * trim_each_side >= updates.len() {
                    return Err(FedError::InvalidConfig(format!(
                        "trimming {trim_each_side} per side discards all {} updates",
                        updates.len()
                    )));
                }
                Self::coordinate_wise(&models, |sorted| {
                    let kept = &sorted[trim_each_side..sorted.len() - trim_each_side];
                    kept.iter().sum::<f32>() / kept.len() as f32
                })?
            }
            AggregationStrategy::CoordinateMedian => Self::coordinate_wise(&models, |sorted| {
                let n = sorted.len();
                if n % 2 == 1 {
                    sorted[n / 2]
                } else {
                    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
                }
            })?,
        };
        self.commit(next);
        Ok(&self.global)
    }

    /// Combines client updates under explicit per-update weights (used to
    /// discount straggler updates by staleness). Weights are normalized to
    /// sum to 1; the strategy's own weighting is bypassed.
    ///
    /// Note: `aggregate_weighted` with unit weights is *not* guaranteed to
    /// be bit-identical to [`AggregationServer::aggregate`] (normalization
    /// arithmetic differs); callers keep the fault-free path on
    /// `aggregate`.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::EmptyRound`] when no updates were supplied,
    /// [`FedError::InvalidConfig`] when `weights` mismatches `updates` in
    /// length or has a non-positive/non-finite sum, and [`FedError::Model`]
    /// when parameter vectors disagree in shape.
    pub fn aggregate_weighted(
        &mut self,
        updates: &[ModelUpdate],
        weights: &[f32],
    ) -> Result<&[f32], FedError> {
        if updates.is_empty() {
            return Err(FedError::EmptyRound);
        }
        if weights.len() != updates.len() {
            return Err(FedError::InvalidConfig(format!(
                "{} weights for {} updates",
                weights.len(),
                updates.len()
            )));
        }
        let total: f32 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(FedError::InvalidConfig(format!(
                "weights must sum to a positive finite value, got {total}"
            )));
        }
        let models: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
        let normalized: Vec<f32> = weights.iter().map(|w| w / total).collect();
        let next = average_params(&models, &normalized)?;
        self.commit(next);
        Ok(&self.global)
    }

    /// Admission check for an arriving update: every parameter finite and
    /// the shape matching the global model.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::CorruptUpdate`] naming the offending client and
    /// the first violation found.
    pub fn validate_update(&self, update: &ModelUpdate) -> Result<(), FedError> {
        validate_against(self.global.len(), update)
    }

    /// Opens a streaming accumulator for one round of updates.
    ///
    /// Updates admitted into the accumulator are folded incrementally —
    /// for the mean-based strategies the server's memory stays O(1) in the
    /// number of clients, which is what lets `sweep_devices` scale; the
    /// robust strategies ([`AggregationStrategy::TrimmedMean`],
    /// [`AggregationStrategy::CoordinateMedian`]) inherently need every
    /// update and fall back to buffering. Finish the round with
    /// [`AggregationServer::commit_round`].
    pub fn accumulator(&self) -> RoundAccumulator {
        RoundAccumulator::for_model(self.strategy, self.global.len())
    }

    /// Aggregates an accumulated round into the next global model.
    ///
    /// Semantics match the per-`Vec` paths: a round whose admitted updates
    /// all carry unit weight aggregates under the configured strategy
    /// (like [`AggregationServer::aggregate`]); as soon as any update was
    /// staleness-discounted the explicit weights take over and the
    /// strategy is bypassed (like [`AggregationServer::aggregate_weighted`]).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::EmptyRound`] when nothing was admitted, and the
    /// robust strategies' [`FedError::InvalidConfig`] /
    /// [`FedError::Model`] errors unchanged. A failed round leaves θ
    /// intact.
    pub fn commit_round(&mut self, acc: RoundAccumulator) -> Result<&[f32], FedError> {
        if acc.admitted == 0 {
            return Err(FedError::EmptyRound);
        }
        match acc.mode {
            AccMode::Buffered { updates, weights } => {
                if acc.all_unit {
                    self.aggregate(&updates)
                } else {
                    self.aggregate_weighted(&updates, &weights)
                }
            }
            AccMode::Streaming {
                weighted_sum,
                total_weight,
                samples_sum,
                total_samples,
            } => {
                let next: Vec<f32> = if !acc.all_unit {
                    let total = total_weight.to_f64();
                    if !(total.is_finite() && total > 0.0) {
                        return Err(FedError::InvalidConfig(format!(
                            "weights must sum to a positive finite value, got {total}"
                        )));
                    }
                    weighted_sum
                        .iter()
                        .map(|s| (s.to_f64() / total) as f32)
                        .collect()
                } else {
                    match (self.strategy, total_samples) {
                        (AggregationStrategy::SampleWeighted, 1..) => samples_sum
                            .expect("SampleWeighted streams a sample-weighted sum")
                            .iter()
                            .map(|s| (s.to_f64() / total_samples as f64) as f32)
                            .collect(),
                        // Uniform, or SampleWeighted's zero-sample fallback.
                        _ => {
                            let n = acc.admitted as f64;
                            weighted_sum
                                .iter()
                                .map(|s| (s.to_f64() / n) as f32)
                                .collect()
                        }
                    }
                };
                self.commit(next);
                Ok(&self.global)
            }
        }
    }

    /// Hands the combine stage's output to the commit stage (the
    /// configured [`ServerOptimizer`]).
    fn commit(&mut self, next: Vec<f32>) {
        self.opt.commit(&mut self.global, next);
        self.rounds_completed += 1;
    }

    /// Applies `combine` to the sorted per-coordinate value sets.
    fn coordinate_wise<F: Fn(&[f32]) -> f32>(
        models: &[&[f32]],
        combine: F,
    ) -> Result<Vec<f32>, FedError> {
        let len = models[0].len();
        for (i, m) in models.iter().enumerate() {
            if m.len() != len {
                return Err(FedError::Model(fedpower_nn::NnError::ShapeMismatch {
                    expected: len,
                    actual: m.len(),
                    context: format!("parameter vector of update {i}"),
                }));
            }
        }
        let mut out = Vec::with_capacity(len);
        let mut column = vec![0.0_f32; models.len()];
        for i in 0..len {
            for (c, m) in column.iter_mut().zip(models) {
                *c = m[i];
            }
            // total_cmp never panics; admission normally keeps NaN out, but
            // robust aggregation must not be the thing that crashes.
            column.sort_by(|a, b| a.total_cmp(b));
            out.push(combine(&column));
        }
        Ok(out)
    }
}

/// Bounds-checked reader over an optimizer state blob
/// ([`AggregationServer::restore_opt_state`]).
struct OptBlobCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl OptBlobCursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], FedError> {
        if self.buf.len() - self.pos < n {
            return Err(FedError::InvalidConfig(
                "optimizer blob truncated".to_string(),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FedError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, FedError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A parameter vector whose length prefix must equal `expected`.
    fn params(&mut self, expected: usize) -> Result<Vec<f32>, FedError> {
        let declared = u32::from_le_bytes(self.take(4)?.try_into().expect("4")) as usize;
        if declared != expected {
            return Err(FedError::InvalidConfig(format!(
                "optimizer blob state has {declared} parameters, model has {expected}"
            )));
        }
        let bytes = self.take(4 * declared)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }
}

/// The admission check shared by [`AggregationServer::validate_update`] and
/// [`RoundAccumulator::admit`].
fn validate_against(expected_len: usize, update: &ModelUpdate) -> Result<(), FedError> {
    if update.params.len() != expected_len {
        return Err(FedError::CorruptUpdate {
            client_id: update.client_id,
            reason: format!(
                "shape mismatch: {} parameters, global has {}",
                update.params.len(),
                expected_len
            ),
        });
    }
    if let Some(i) = update.params.iter().position(|p| !p.is_finite()) {
        return Err(FedError::CorruptUpdate {
            client_id: update.client_id,
            reason: format!("non-finite value {} at index {i}", update.params[i]),
        });
    }
    Ok(())
}

/// How an accumulator folds its admitted updates.
#[derive(Debug, Clone, PartialEq)]
enum AccMode {
    /// Mean-based strategies: exact running sums, O(1) memory in client
    /// count. The sums are [`ExactSum`]s, so the folded state — and the
    /// model committed from it — is bit-independent of admission order
    /// and of how the round was partitioned into shards.
    Streaming {
        /// `Σ wᵢ·θᵢ` over admitted updates, with `wᵢ` the explicit
        /// (staleness) weight.
        weighted_sum: Vec<ExactSum>,
        /// `Σ wᵢ`.
        total_weight: ExactSum,
        /// `Σ nᵢ·θᵢ` (sample-weighted sum), kept only under
        /// [`AggregationStrategy::SampleWeighted`].
        samples_sum: Option<Vec<ExactSum>>,
        /// `Σ nᵢ`.
        total_samples: u64,
    },
    /// Robust strategies need every update's coordinates; buffer them.
    Buffered {
        updates: Vec<ModelUpdate>,
        weights: Vec<f32>,
    },
}

/// A server-side round in progress: updates are admission-checked and
/// folded into running aggregates as they arrive off the wire.
///
/// Create with [`AggregationServer::accumulator`] (or standalone with
/// [`RoundAccumulator::for_model`]), feed with
/// [`RoundAccumulator::admit`], finish with [`AggregationServer::commit_round`].
/// Besides the aggregate itself the accumulator tracks the per-coordinate
/// first and second moments of the admitted models, from which
/// [`RoundAccumulator::divergence`] derives the round's client-drift
/// metric without buffering.
///
/// Streaming accumulators over the same multiset of admissions are
/// *bit-identical* regardless of admission order, and
/// [`RoundAccumulator::merge`] combines shard-local partials into exactly
/// the state a single flat accumulator would have reached — the property
/// the fleet engine's sharded-equals-flat guarantee rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAccumulator {
    mode: AccMode,
    strategy: AggregationStrategy,
    /// Whether every admitted update carried weight exactly 1.0 (the
    /// fault-free case; selects the strategy path on commit).
    all_unit: bool,
    admitted: usize,
    expected_len: usize,
    /// Per-coordinate `Σ θᵢⱼ` (unweighted, for the divergence metric).
    div_sum: Vec<ExactSum>,
    /// Per-coordinate `Σ θᵢⱼ²`.
    div_sumsq: Vec<ExactSum>,
}

impl RoundAccumulator {
    /// Opens an empty accumulator for models of `expected_len` parameters
    /// under `strategy`.
    ///
    /// Shard-level (edge) aggregators open their own accumulators with
    /// this constructor and later [`RoundAccumulator::merge`] them into
    /// the root's; in the single-server topology prefer
    /// [`AggregationServer::accumulator`], which fills in both arguments from
    /// the server.
    pub fn for_model(strategy: AggregationStrategy, expected_len: usize) -> Self {
        let mode = match strategy {
            AggregationStrategy::Uniform => AccMode::Streaming {
                weighted_sum: vec![ExactSum::ZERO; expected_len],
                total_weight: ExactSum::ZERO,
                samples_sum: None,
                total_samples: 0,
            },
            AggregationStrategy::SampleWeighted => AccMode::Streaming {
                weighted_sum: vec![ExactSum::ZERO; expected_len],
                total_weight: ExactSum::ZERO,
                samples_sum: Some(vec![ExactSum::ZERO; expected_len]),
                total_samples: 0,
            },
            // Every non-shard-reducible (robust) strategy needs the full
            // update set and buffers.
            _ => {
                debug_assert!(!strategy.shard_reducible());
                AccMode::Buffered {
                    updates: Vec::new(),
                    weights: Vec::new(),
                }
            }
        };
        RoundAccumulator {
            mode,
            strategy,
            all_unit: true,
            admitted: 0,
            expected_len,
            div_sum: vec![ExactSum::ZERO; expected_len],
            div_sumsq: vec![ExactSum::ZERO; expected_len],
        }
    }

    /// Admission-checks `update` and folds it in under explicit `weight`
    /// (1.0 for a fresh update; the staleness discount for a late one).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::CorruptUpdate`] — same check and message as
    /// [`AggregationServer::validate_update`] — and leaves the accumulator
    /// untouched.
    pub fn admit(&mut self, update: ModelUpdate, weight: f32) -> Result<(), FedError> {
        validate_against(self.expected_len, &update)?;
        for ((s, q), &p) in self
            .div_sum
            .iter_mut()
            .zip(&mut self.div_sumsq)
            .zip(&update.params)
        {
            s.add(p);
            // p is finite (admission), but p² can overflow f32; saturate so
            // the drift moment degrades gracefully instead of poisoning the
            // exact sum.
            q.add((p * p).min(f32::MAX));
        }
        self.all_unit &= weight == 1.0;
        self.admitted += 1;
        match &mut self.mode {
            AccMode::Streaming {
                weighted_sum,
                total_weight,
                samples_sum,
                total_samples,
            } => {
                for (acc, &p) in weighted_sum.iter_mut().zip(&update.params) {
                    acc.add((weight * p).clamp(f32::MIN, f32::MAX));
                }
                total_weight.add(weight);
                if let Some(sample_acc) = samples_sum {
                    let n = update.num_samples as f32;
                    for (acc, &p) in sample_acc.iter_mut().zip(&update.params) {
                        acc.add((n * p).clamp(f32::MIN, f32::MAX));
                    }
                    *total_samples += update.num_samples;
                }
            }
            AccMode::Buffered { updates, weights } => {
                updates.push(update);
                weights.push(weight);
            }
        }
        Ok(())
    }

    /// Folds a shard-local partial accumulator into this one.
    ///
    /// For streaming (mean-based) strategies the running sums are exact
    /// integers, so merging is associative and commutative down to the
    /// bit: any partition of a round's admissions into shards, merged in
    /// any order, reproduces the state a single flat accumulator would
    /// hold after admitting the same updates. This is what lets an
    /// `EdgeAggregator` reduce its shard independently and the root commit
    /// the merged result through the ordinary
    /// [`AggregationServer::commit_round`] path.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::UnsupportedInFleet`] for buffered (robust)
    /// strategies — trimmed-mean and coordinate-median need every
    /// update's coordinates at one place, so their partials do not merge;
    /// [`FedError::Model`] when the two accumulators disagree on model
    /// shape; and [`FedError::InvalidConfig`] when their strategies
    /// differ. On error `self` is left unchanged.
    pub fn merge(&mut self, other: RoundAccumulator) -> Result<(), FedError> {
        if other.expected_len != self.expected_len {
            return Err(FedError::Model(fedpower_nn::NnError::ShapeMismatch {
                expected: self.expected_len,
                actual: other.expected_len,
                context: "merged shard accumulator".to_string(),
            }));
        }
        if other.strategy != self.strategy {
            return Err(FedError::InvalidConfig(format!(
                "cannot merge accumulators with different strategies ({:?} vs {:?})",
                self.strategy, other.strategy
            )));
        }
        match (&mut self.mode, other.mode) {
            (
                AccMode::Streaming {
                    weighted_sum,
                    total_weight,
                    samples_sum,
                    total_samples,
                },
                AccMode::Streaming {
                    weighted_sum: other_sum,
                    total_weight: other_weight,
                    samples_sum: other_samples,
                    total_samples: other_count,
                },
            ) => {
                for (acc, s) in weighted_sum.iter_mut().zip(&other_sum) {
                    acc.merge(s);
                }
                total_weight.merge(&other_weight);
                if let (Some(acc), Some(s)) = (samples_sum.as_mut(), other_samples.as_ref()) {
                    for (a, b) in acc.iter_mut().zip(s) {
                        a.merge(b);
                    }
                }
                *total_samples += other_count;
            }
            _ => {
                return Err(FedError::UnsupportedInFleet {
                    strategy: self.strategy,
                })
            }
        }
        for (a, b) in self.div_sum.iter_mut().zip(&other.div_sum) {
            a.merge(b);
        }
        for (a, b) in self.div_sumsq.iter_mut().zip(&other.div_sumsq) {
            a.merge(b);
        }
        self.all_unit &= other.all_unit;
        self.admitted += other.admitted;
        Ok(())
    }

    /// Updates admitted so far (fresh and stale alike) — the round's
    /// quorum count.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// The strategy this accumulator folds under.
    pub fn strategy(&self) -> AggregationStrategy {
        self.strategy
    }

    /// Client drift of the admitted models: the root-mean-square L2
    /// distance from their coordinate-wise mean, derived from the running
    /// moments (`√(Σⱼ(Σᵢθᵢⱼ² − m·μⱼ²)/m)`). Zero with fewer than two
    /// updates.
    pub fn divergence(&self) -> f32 {
        if self.admitted < 2 {
            return 0.0;
        }
        let m = self.admitted as f64;
        let mut total = 0.0_f64;
        for (s, q) in self.div_sum.iter().zip(&self.div_sumsq) {
            let mean = s.to_f64() / m;
            // Catastrophic cancellation can take the variance a hair
            // negative; clamp rather than emit NaN.
            total += (q.to_f64() - m * mean * mean).max(0.0);
        }
        (total / m).sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(id: usize, params: Vec<f32>, samples: u64) -> ModelUpdate {
        ModelUpdate {
            client_id: id,
            params,
            num_samples: samples,
        }
    }

    #[test]
    fn uniform_aggregation_is_plain_mean() {
        let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        let global = server
            .aggregate(&[
                update(0, vec![1.0, 2.0], 100),
                update(1, vec![3.0, 6.0], 900),
            ])
            .unwrap();
        assert_eq!(global, &[2.0, 4.0], "sample counts ignored under Uniform");
        assert_eq!(server.rounds_completed(), 1);
    }

    #[test]
    fn sample_weighted_aggregation_respects_counts() {
        let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::SampleWeighted);
        let global = server
            .aggregate(&[
                update(0, vec![0.0, 0.0], 100),
                update(1, vec![4.0, 8.0], 300),
            ])
            .unwrap();
        assert_eq!(global, &[3.0, 6.0]);
    }

    #[test]
    fn sample_weighted_with_zero_samples_falls_back_to_uniform() {
        let mut server = AggregationServer::new(vec![0.0; 1], AggregationStrategy::SampleWeighted);
        let global = server
            .aggregate(&[update(0, vec![2.0], 0), update(1, vec![4.0], 0)])
            .unwrap();
        assert_eq!(global, &[3.0]);
    }

    #[test]
    fn empty_round_errors() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        assert_eq!(server.aggregate(&[]), Err(FedError::EmptyRound));
    }

    #[test]
    fn shape_mismatch_errors_and_preserves_global() {
        let mut server = AggregationServer::new(vec![0.0, 0.0], AggregationStrategy::Uniform);
        let before = server.global().to_vec();
        let result = server.aggregate(&[update(0, vec![1.0, 2.0], 1), update(1, vec![1.0], 1)]);
        assert!(matches!(result, Err(FedError::Model(_))));
        assert_eq!(server.global(), before, "failed round must not corrupt θ");
        assert_eq!(server.rounds_completed(), 0);
    }

    #[test]
    fn aggregating_identical_models_is_identity() {
        let p = vec![0.5_f32, -1.5, 2.0];
        let mut server = AggregationServer::new(vec![0.0; 3], AggregationStrategy::Uniform);
        let global = server
            .aggregate(&[update(0, p.clone(), 10), update(1, p.clone(), 10)])
            .unwrap();
        assert_eq!(global, p.as_slice());
    }

    #[test]
    fn trimmed_mean_discards_a_byzantine_outlier() {
        let mut server = AggregationServer::new(
            vec![0.0; 2],
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        );
        let honest1 = update(0, vec![1.0, 1.0], 1);
        let honest2 = update(1, vec![1.2, 0.8], 1);
        let honest3 = update(2, vec![0.8, 1.2], 1);
        let byzantine = update(3, vec![1e9, -1e9], 1);
        let global = server
            .aggregate(&[honest1, honest2, honest3, byzantine])
            .unwrap();
        // Trimming one value per side removes the poisoned extreme; the
        // result stays within the honest envelope.
        for &v in global {
            assert!((0.8..=1.2).contains(&v), "poison leaked through: {v}");
        }
    }

    #[test]
    fn coordinate_median_ignores_minority_poison() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let global = server
            .aggregate(&[
                update(0, vec![1.0], 1),
                update(1, vec![1.1], 1),
                update(2, vec![-1e9], 1),
            ])
            .unwrap();
        assert_eq!(global, &[1.0]);
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let global = server
            .aggregate(&[
                update(0, vec![1.0], 1),
                update(1, vec![3.0], 1),
                update(2, vec![5.0], 1),
                update(3, vec![100.0], 1),
            ])
            .unwrap();
        assert_eq!(global, &[4.0]);
    }

    #[test]
    fn over_trimming_errors_instead_of_panicking() {
        let mut server = AggregationServer::new(
            vec![0.0],
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        );
        let result = server.aggregate(&[update(0, vec![1.0], 1), update(1, vec![2.0], 1)]);
        assert!(matches!(result, Err(FedError::InvalidConfig(_))));
    }

    #[test]
    fn momentum_free_first_step_matches_plain_fedavg() {
        let updates = [update(0, vec![2.0], 1), update(1, vec![4.0], 1)];
        let mut plain = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let mut momo =
            AggregationServer::with_momentum(vec![0.0], AggregationStrategy::Uniform, 0.9);
        assert_eq!(
            plain.aggregate(&updates).unwrap(),
            momo.aggregate(&updates).unwrap(),
            "velocity starts at zero, so round 1 is identical"
        );
    }

    #[test]
    fn momentum_accelerates_a_consistent_direction() {
        // Clients keep reporting the same target; with momentum the global
        // model overshoots plain averaging after a few rounds.
        let mut momo =
            AggregationServer::with_momentum(vec![0.0], AggregationStrategy::Uniform, 0.5);
        for _ in 0..3 {
            momo.aggregate(&[update(0, vec![1.0], 1)]).unwrap();
        }
        assert!(
            momo.global()[0] > 1.0,
            "momentum should overshoot the target: {}",
            momo.global()[0]
        );
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_panics() {
        let _ = AggregationServer::with_momentum(vec![0.0], AggregationStrategy::Uniform, 1.0);
    }

    #[test]
    fn weighted_aggregation_discounts_low_weight_updates() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let updates = [update(0, vec![0.0], 1), update(1, vec![4.0], 1)];
        // Weights 3:1 → (3·0 + 1·4)/4 = 1.
        let global = server.aggregate_weighted(&updates, &[3.0, 1.0]).unwrap();
        assert_eq!(global, &[1.0]);
        assert_eq!(server.rounds_completed(), 1);
    }

    #[test]
    fn weighted_aggregation_rejects_bad_weights() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let updates = [update(0, vec![1.0], 1)];
        assert!(matches!(
            server.aggregate_weighted(&updates, &[]),
            Err(FedError::InvalidConfig(_))
        ));
        assert!(matches!(
            server.aggregate_weighted(&updates, &[0.0]),
            Err(FedError::InvalidConfig(_))
        ));
        assert!(matches!(
            server.aggregate_weighted(&[], &[]),
            Err(FedError::EmptyRound)
        ));
        assert_eq!(server.global(), &[0.0], "failed rounds leave θ intact");
    }

    #[test]
    fn validate_update_flags_nan_and_shape() {
        let server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        assert!(server
            .validate_update(&update(0, vec![1.0, 2.0], 1))
            .is_ok());
        let nan = server.validate_update(&update(3, vec![1.0, f32::NAN], 1));
        assert!(
            matches!(&nan, Err(FedError::CorruptUpdate { client_id: 3, reason }) if reason.contains("index 1")),
            "{nan:?}"
        );
        let inf = server.validate_update(&update(1, vec![f32::INFINITY, 0.0], 1));
        assert!(matches!(inf, Err(FedError::CorruptUpdate { .. })));
        let shape = server.validate_update(&update(2, vec![1.0], 1));
        assert!(
            matches!(&shape, Err(FedError::CorruptUpdate { client_id: 2, reason }) if reason.contains("shape")),
            "{shape:?}"
        );
    }

    #[test]
    fn robust_strategies_survive_nan_without_panicking() {
        // Admission normally filters NaN, but the sort itself must not panic.
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let result = server.aggregate(&[
            update(0, vec![1.0], 1),
            update(1, vec![f32::NAN], 1),
            update(2, vec![2.0], 1),
        ]);
        assert!(result.is_ok());
    }

    #[test]
    fn trimmed_mean_with_zero_trim_equals_uniform_mean() {
        let updates = [update(0, vec![1.0, 5.0], 1), update(1, vec![3.0, 7.0], 1)];
        let mut trimmed = AggregationServer::new(
            vec![0.0; 2],
            AggregationStrategy::TrimmedMean { trim_each_side: 0 },
        );
        let mut uniform = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        assert_eq!(
            trimmed.aggregate(&updates).unwrap(),
            uniform.aggregate(&updates).unwrap()
        );
    }

    #[test]
    fn streaming_uniform_round_matches_the_plain_mean() {
        let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        acc.admit(update(0, vec![1.0, 2.0], 100), 1.0).unwrap();
        acc.admit(update(1, vec![3.0, 6.0], 900), 1.0).unwrap();
        assert_eq!(acc.admitted(), 2);
        let global = server.commit_round(acc).unwrap();
        assert_eq!(global, &[2.0, 4.0]);
        assert_eq!(server.rounds_completed(), 1);
    }

    #[test]
    fn streaming_sample_weighted_round_respects_counts() {
        let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::SampleWeighted);
        let mut acc = server.accumulator();
        acc.admit(update(0, vec![0.0, 0.0], 100), 1.0).unwrap();
        acc.admit(update(1, vec![4.0, 8.0], 300), 1.0).unwrap();
        assert_eq!(server.commit_round(acc).unwrap(), &[3.0, 6.0]);

        // Zero samples everywhere → uniform fallback, like `aggregate`.
        let mut acc = server.accumulator();
        acc.admit(update(0, vec![2.0, 2.0], 0), 1.0).unwrap();
        acc.admit(update(1, vec![4.0, 4.0], 0), 1.0).unwrap();
        assert_eq!(server.commit_round(acc).unwrap(), &[3.0, 3.0]);
    }

    #[test]
    fn stale_weights_switch_the_accumulator_to_the_weighted_mean() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        // Weights 3:1 → (3·0 + 1·4)/4 = 1, the aggregate_weighted case.
        acc.admit(update(0, vec![0.0], 1), 3.0).unwrap();
        acc.admit(update(1, vec![4.0], 1), 1.0).unwrap();
        let global = server.commit_round(acc).unwrap();
        assert!((global[0] - 1.0).abs() < 1e-6, "{global:?}");
    }

    #[test]
    fn buffered_robust_strategies_go_through_the_legacy_path() {
        let mut streamed = AggregationServer::new(
            vec![0.0; 2],
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        );
        let mut direct = streamed.clone();
        let updates = [
            update(0, vec![1.0, 1.0], 1),
            update(1, vec![1.2, 0.8], 1),
            update(2, vec![0.8, 1.2], 1),
            update(3, vec![1e9, -1e9], 1),
        ];
        let mut acc = streamed.accumulator();
        for u in &updates {
            acc.admit(u.clone(), 1.0).unwrap();
        }
        let via_acc = streamed.commit_round(acc).unwrap().to_vec();
        let via_direct = direct.aggregate(&updates).unwrap().to_vec();
        assert_eq!(via_acc, via_direct, "bit-identical to aggregate()");
    }

    #[test]
    fn accumulator_admission_rejects_like_validate_update() {
        let server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        let nan = acc.admit(update(3, vec![1.0, f32::NAN], 1), 1.0);
        assert_eq!(
            nan.unwrap_err().to_string(),
            server
                .validate_update(&update(3, vec![1.0, f32::NAN], 1))
                .unwrap_err()
                .to_string(),
            "same rejection message as validate_update"
        );
        assert!(acc.admit(update(2, vec![1.0], 1), 1.0).is_err());
        assert_eq!(acc.admitted(), 0, "rejected updates leave no trace");
    }

    #[test]
    fn empty_accumulator_commit_errors() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let acc = server.accumulator();
        assert_eq!(server.commit_round(acc), Err(FedError::EmptyRound));
        assert_eq!(server.rounds_completed(), 0);
    }

    #[test]
    fn merged_shard_accumulators_equal_the_flat_accumulator() {
        let server = AggregationServer::new(vec![0.0; 3], AggregationStrategy::Uniform);
        let updates: Vec<ModelUpdate> = (0..10)
            .map(|i| {
                update(
                    i,
                    vec![0.1 * i as f32, -2.5e-20 * i as f32, (i as f32).sin()],
                    10 + i as u64,
                )
            })
            .collect();
        let mut flat = server.accumulator();
        for u in &updates {
            flat.admit(u.clone(), 1.0).unwrap();
        }
        // Partition 10 admissions into 3 uneven shards, merge out of order.
        let mut shards: Vec<RoundAccumulator> = (0..3)
            .map(|_| RoundAccumulator::for_model(server.strategy(), 3))
            .collect();
        for (i, u) in updates.iter().enumerate() {
            shards[[0, 0, 1, 2, 2, 2, 2, 1, 0, 2][i]]
                .admit(u.clone(), 1.0)
                .unwrap();
        }
        let mut root = RoundAccumulator::for_model(server.strategy(), 3);
        for shard in shards.into_iter().rev() {
            root.merge(shard).unwrap();
        }
        assert_eq!(root, flat, "merged partials must be bit-identical");
        assert_eq!(root.admitted(), 10);
        assert_eq!(root.divergence(), flat.divergence());
    }

    #[test]
    fn merging_buffered_accumulators_is_a_typed_error() {
        let strategy = AggregationStrategy::TrimmedMean { trim_each_side: 1 };
        let mut root = RoundAccumulator::for_model(strategy, 2);
        let shard = RoundAccumulator::for_model(strategy, 2);
        assert_eq!(
            root.merge(shard),
            Err(FedError::UnsupportedInFleet { strategy })
        );
        let mut median = RoundAccumulator::for_model(AggregationStrategy::CoordinateMedian, 2);
        assert!(matches!(
            median.merge(RoundAccumulator::for_model(
                AggregationStrategy::CoordinateMedian,
                2
            )),
            Err(FedError::UnsupportedInFleet { .. })
        ));
    }

    #[test]
    fn merge_rejects_mismatched_shape_or_strategy() {
        let mut root = RoundAccumulator::for_model(AggregationStrategy::Uniform, 2);
        assert!(matches!(
            root.merge(RoundAccumulator::for_model(AggregationStrategy::Uniform, 3)),
            Err(FedError::Model(_))
        ));
        assert!(matches!(
            root.merge(RoundAccumulator::for_model(
                AggregationStrategy::SampleWeighted,
                2
            )),
            Err(FedError::InvalidConfig(_))
        ));
        // Failed merges leave the target untouched.
        assert_eq!(
            root,
            RoundAccumulator::for_model(AggregationStrategy::Uniform, 2)
        );
    }

    #[test]
    fn streaming_admission_order_never_changes_the_committed_bits() {
        let updates: Vec<ModelUpdate> = (0..8)
            .map(|i| {
                update(
                    i,
                    vec![(i as f32 * 0.77).cos() * 10f32.powi(i as i32 - 4)],
                    1,
                )
            })
            .collect();
        let mut forward = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let mut backward = forward.clone();
        let mut acc_f = forward.accumulator();
        for u in &updates {
            acc_f.admit(u.clone(), 1.0).unwrap();
        }
        let mut acc_b = backward.accumulator();
        for u in updates.iter().rev() {
            acc_b.admit(u.clone(), 1.0).unwrap();
        }
        assert_eq!(acc_f, acc_b);
        let a = forward.commit_round(acc_f).unwrap().to_vec();
        let b = backward.commit_round(acc_b).unwrap().to_vec();
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }

    #[test]
    fn accumulator_divergence_matches_the_two_client_geometry() {
        let server = AggregationServer::new(vec![0.0; 4], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        assert_eq!(acc.divergence(), 0.0, "empty round has no drift");
        acc.admit(update(0, vec![1.0; 4], 1), 1.0).unwrap();
        assert_eq!(acc.divergence(), 0.0, "a single model has no drift");
        acc.admit(update(1, vec![2.0; 4], 1), 1.0).unwrap();
        // Mean 1.5, each model 0.5 away in all 4 coordinates → distance 1.
        assert!(
            (acc.divergence() - 1.0).abs() < 1e-6,
            "{}",
            acc.divergence()
        );
    }

    #[test]
    fn shard_reducible_splits_streaming_from_buffered() {
        assert!(AggregationStrategy::Uniform.shard_reducible());
        assert!(AggregationStrategy::SampleWeighted.shard_reducible());
        assert!(!AggregationStrategy::TrimmedMean { trim_each_side: 1 }.shard_reducible());
        assert!(!AggregationStrategy::CoordinateMedian.shard_reducible());
    }

    #[test]
    fn optimizer_kind_round_trips_through_names_and_codes() {
        for kind in ServerOptKind::ALL {
            assert_eq!(ServerOptKind::parse(kind.name()), Some(kind));
            assert_eq!(ServerOpt::from_kind(kind).kind(), kind);
        }
        assert_eq!(ServerOptKind::parse("sgd"), None);
        assert_eq!(ServerOptKind::FedAvg.code(), 0);
        assert_eq!(ServerOptKind::FedAdam.code(), 1);
        assert_eq!(ServerOptKind::FedProx.code(), 2);
    }

    #[test]
    fn optimizer_validation_names_the_valid_range() {
        let bad_lr = ServerOpt::FedAdam {
            lr: 0.0,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
        };
        assert!(bad_lr.validate().unwrap_err().contains("positive"));
        let bad_beta = ServerOpt::FedAdam {
            lr: 0.01,
            beta1: 1.0,
            beta2: 0.99,
            eps: 1e-3,
        };
        assert!(bad_beta.validate().unwrap_err().contains("[0, 1)"));
        let bad_mu = ServerOpt::FedProx { mu: -0.5 };
        assert!(bad_mu.validate().unwrap_err().contains(">= 0"));
        assert!(ServerOpt::fedadam().validate().is_ok());
        assert!(ServerOpt::fedprox().validate().is_ok());
        assert!(ServerOpt::FedAvg.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "server learning rate")]
    fn invalid_fedadam_lr_panics_at_construction() {
        let _ = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::FedAdam {
                lr: f32::NAN,
                beta1: 0.9,
                beta2: 0.99,
                eps: 1e-3,
            },
        );
    }

    #[test]
    #[should_panic(expected = "server_momentum")]
    fn momentum_under_fedadam_panics() {
        let _ = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.5,
            ServerOpt::fedadam(),
        );
    }

    #[test]
    fn fedadam_reduction_corner_commits_the_fedavg_bits() {
        // β₁ = β₂ = 0, η = 1, ε = 1: with |g| ≤ 1 per coordinate the
        // denominator is ε-dominated, step = g exactly, and the commit
        // must equal the plain FedAvg assignment bit-for-bit.
        let reduction = ServerOpt::FedAdam {
            lr: 1.0,
            beta1: 0.0,
            beta2: 0.0,
            eps: 1.0,
        };
        let initial = vec![0.25_f32, -0.5, 0.125];
        let mut adam = AggregationServer::with_optimizer(
            initial.clone(),
            AggregationStrategy::Uniform,
            0.0,
            reduction,
        );
        let mut avg = AggregationServer::new(initial, AggregationStrategy::Uniform);
        for r in 0..5 {
            let updates = [
                update(0, vec![0.3 + 0.01 * r as f32, -0.2, 0.7], 1),
                update(1, vec![-0.1, 0.4, 0.05 * r as f32], 1),
            ];
            let a = adam.aggregate(&updates).unwrap().to_vec();
            let b = avg.aggregate(&updates).unwrap().to_vec();
            let a_bits: Vec<u32> = a.iter().map(|p| p.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|p| p.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "round {r} diverged");
        }
        assert_eq!(adam.optimizer_kind(), ServerOptKind::FedAdam);
    }

    #[test]
    fn fedadam_damps_the_raw_aggregate_step() {
        // With a small server lr the adaptive step moves θ much less than
        // the FedAvg assignment would.
        let mut adam = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedadam(),
        );
        adam.aggregate(&[update(0, vec![1.0], 1)]).unwrap();
        let theta = adam.global()[0];
        assert!(
            theta > 0.0 && theta < 0.5,
            "expected a damped adaptive step toward the aggregate, got {theta}"
        );
    }

    #[test]
    fn fedprox_commit_is_fedavg_on_the_server_side() {
        let updates = [update(0, vec![2.0], 1), update(1, vec![4.0], 1)];
        let mut prox = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedprox(),
        );
        let mut avg = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        assert_eq!(
            prox.aggregate(&updates).unwrap(),
            avg.aggregate(&updates).unwrap()
        );
        assert_eq!(prox.optimizer_kind(), ServerOptKind::FedProx);
        assert_eq!(ServerOpt::fedprox().prox_mu(), 0.01);
        assert_eq!(ServerOpt::FedAvg.prox_mu(), 0.0);
    }

    #[test]
    fn optimizer_state_round_trips_through_the_blob_bitwise() {
        // Train a FedAdam server two rounds, snapshot, rebuild from the
        // same configuration, restore — then a third round must commit
        // bit-identically on both servers (moments and t carried over).
        let mut live = AggregationServer::with_optimizer(
            vec![0.0; 2],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedadam(),
        );
        for r in 0..2 {
            live.aggregate(&[update(0, vec![1.0 + r as f32, -2.0], 1)])
                .unwrap();
        }
        let blob = live.snapshot_opt_state();
        let mut restored = AggregationServer::with_optimizer(
            live.global().to_vec(),
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedadam(),
        );
        restored.restore_opt_state(&blob).unwrap();
        assert_eq!(restored.rounds_completed(), 2);
        let next = [update(0, vec![0.25, 0.75], 1)];
        let a: Vec<u32> = live
            .aggregate(&next)
            .unwrap()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let b: Vec<u32> = restored
            .aggregate(&next)
            .unwrap()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(a, b, "restored Adam moments must continue bit-identically");
    }

    #[test]
    fn momentum_velocity_survives_the_blob() {
        let mut live =
            AggregationServer::with_momentum(vec![0.0], AggregationStrategy::Uniform, 0.5);
        live.aggregate(&[update(0, vec![1.0], 1)]).unwrap();
        let blob = live.snapshot_opt_state();
        let mut restored = AggregationServer::with_momentum(
            live.global().to_vec(),
            AggregationStrategy::Uniform,
            0.5,
        );
        restored.restore_opt_state(&blob).unwrap();
        let a = live.aggregate(&[update(0, vec![1.0], 1)]).unwrap()[0].to_bits();
        let b = restored.aggregate(&[update(0, vec![1.0], 1)]).unwrap()[0].to_bits();
        assert_eq!(a, b, "FedAvgM velocity must carry across restore");
    }

    #[test]
    fn restore_rejects_mismatched_blobs() {
        let mut fedavg = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let adam_blob = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedadam(),
        )
        .snapshot_opt_state();
        assert!(matches!(
            fedavg.restore_opt_state(&adam_blob),
            Err(FedError::InvalidConfig(_))
        ));

        let mut wrong_shape = AggregationServer::new(vec![0.0; 3], AggregationStrategy::Uniform);
        let blob = fedavg.snapshot_opt_state();
        assert!(matches!(
            wrong_shape.restore_opt_state(&blob),
            Err(FedError::InvalidConfig(_))
        ));

        let mut truncated = fedavg.snapshot_opt_state();
        truncated.pop();
        assert!(fedavg.restore_opt_state(&truncated).is_err());
        let mut trailing = fedavg.snapshot_opt_state();
        trailing.push(0);
        assert!(fedavg.restore_opt_state(&trailing).is_err());
    }
}
