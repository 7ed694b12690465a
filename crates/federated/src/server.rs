use crate::client::ModelUpdate;
use crate::error::FedError;
use crate::exact::{ExactSum, LaneSums};
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

    /// Checks this optimizer together with the FedAvgM momentum β it
    /// commits beside: the [`ServerOpt::validate`] ranges, β ∈ [0, 1),
    /// and β = 0 under FedAdam, which maintains its own moments.
    pub(crate) fn validate_with_momentum(self, momentum: f32) -> Result<(), String> {
        self.validate()?;
        if !(0.0..1.0).contains(&momentum) {
            return Err(format!("server_momentum must be in [0, 1), got {momentum}"));
        }
        if momentum != 0.0 && self.kind() == ServerOptKind::FedAdam {
            return Err(format!(
                "server_momentum is a FedAvg(M) setting and must be 0 under FedAdam \
                 (FedAdam maintains its own moments), got {momentum}"
            ));
        }
        Ok(())
    }
}

/// The commit stage of the two-stage aggregation pipeline: how the
/// combine stage's output `next` (one aggregate model, see
/// [`RoundAccumulator`]) folds into the global model θ.
///
/// Each variant owns its cross-round state, allocated once at
/// construction so the steady-state commit never allocates. FedProx
/// commits as [`Commit::Avg`]: its proximal term μ/2·‖w − θ‖² acts on the
/// *client* objective, which the engines thread into local training.
#[derive(Debug, Clone, PartialEq)]
enum Commit {
    /// The FedAvg assignment: the aggregate replaces θ directly, or — with
    /// FedAvgM momentum β > 0 — through the smoothed velocity
    /// `v ← β·v + (θ − next)`, `θ ← θ − v` (Hsu et al. 2019).
    Avg { momentum: f32, velocity: Vec<f32> },
    /// FedAdam (Reddi et al. 2021): the round's pseudo-gradient
    /// `g = θ − next` drives per-coordinate Adam moments `m`, `v`, and θ
    /// moves by the adaptive step instead of the raw aggregate; `t` counts
    /// committed rounds for bias correction.
    ///
    /// Two deliberate arithmetic choices make the optimizer *reduce to
    /// FedAvg bit-for-bit* in the degenerate corner (DESIGN.md §13): the
    /// denominator is `max(√v̂, ε)` rather than `√v̂ + ε`, and the
    /// write-back is anchored on the aggregate — `θᵢ ← nextᵢ + (gᵢ − stepᵢ)`
    /// — rather than on θ. With β₁ = β₂ = 0, η = 1 and an ε-dominated
    /// denominator, `stepᵢ = gᵢ` exactly, the parenthesis is zero, and the
    /// commit is the FedAvg assignment.
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        m: Vec<f32>,
        v: Vec<f32>,
    },
}

impl Commit {
    /// The commit stage `opt` selects, for models of `model_len`
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics when `opt` and `momentum` fail
    /// [`ServerOpt::validate_with_momentum`].
    fn new(model_len: usize, momentum: f32, opt: ServerOpt) -> Self {
        if let Err(msg) = opt.validate_with_momentum(momentum) {
            panic!("{msg}");
        }
        match opt {
            ServerOpt::FedAdam {
                lr,
                beta1,
                beta2,
                eps,
            } => Commit::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t: 0,
                m: vec![0.0; model_len],
                v: vec![0.0; model_len],
            },
            ServerOpt::FedAvg | ServerOpt::FedProx { .. } => Commit::Avg {
                momentum,
                velocity: vec![0.0; model_len],
            },
        }
    }

    /// Folds the combined round model `next` (same length as `global`,
    /// guaranteed by admission) into `global`.
    fn apply(&mut self, global: &mut Vec<f32>, next: Vec<f32>) {
        match self {
            Commit::Avg { momentum, velocity } if *momentum > 0.0 => {
                for ((theta, n), v) in global.iter_mut().zip(&next).zip(velocity) {
                    *v = *momentum * *v + (*theta - n);
                    *theta -= *v;
                }
            }
            Commit::Avg { .. } => *global = next,
            Commit::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                *t += 1;
                let b1t = 1.0 - beta1.powi(*t as i32);
                let b2t = 1.0 - beta2.powi(*t as i32);
                for (((theta, n), mi), vi) in global.iter_mut().zip(&next).zip(m).zip(v) {
                    let g = *theta - n;
                    *mi = *beta1 * *mi + (1.0 - *beta1) * g;
                    *vi = *beta2 * *vi + (1.0 - *beta2) * g * g;
                    let m_hat = *mi / b1t;
                    let v_hat = *vi / b2t;
                    let step = *lr * (m_hat / v_hat.sqrt().max(*eps));
                    *theta = n + (g - step);
                }
            }
        }
    }
}

/// The central aggregation server of Algorithm 2.
///
/// A round is combined by a [`RoundAccumulator`] (opened with
/// [`AggregationServer::accumulator`], fed with
/// [`RoundAccumulator::admit`]) and committed into θ by
/// [`AggregationServer::commit_round`] through the [`ServerOpt`] the
/// server was built with. An optional server momentum (FedAvgM, Hsu et
/// al. 2019) smooths the global trajectory across rounds.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fedpower_federated::FedError> {
/// use fedpower_federated::{AggregationStrategy, AggregationServer, ModelUpdate};
/// let mut server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
/// let mut round = server.accumulator();
/// round.admit(ModelUpdate { client_id: 0, params: vec![1.0, 2.0], num_samples: 100 }, 1.0)?;
/// round.admit(ModelUpdate { client_id: 1, params: vec![3.0, 4.0], num_samples: 100 }, 1.0)?;
/// assert_eq!(server.commit_round(round)?, &[2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationServer {
    global: Vec<f32>,
    strategy: AggregationStrategy,
    kind: ServerOptKind,
    commit: Commit,
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
        Self::with_optimizer(initial, strategy, 0.0, ServerOpt::FedAvg)
    }

    /// The fully general constructor: combine under `strategy`, commit
    /// through the optimizer that `optimizer` selects. `momentum` is
    /// FedAvgM's β — with β > 0 the per-round model delta accumulates as
    /// `v ← β·v + (θ_r − aggregate)` and `θ_{r+1} = θ_r − v` — and applies
    /// to the FedAvg-commit optimizers only (it must be 0 under FedAdam).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, `momentum ∉ [0, 1)`, `momentum > 0`
    /// under FedAdam, or the optimizer hyperparameters fail
    /// [`ServerOpt::validate`]. [`crate::RoundEngine::new`] returns these
    /// as typed errors instead.
    pub fn with_optimizer(
        initial: Vec<f32>,
        strategy: AggregationStrategy,
        momentum: f32,
        optimizer: ServerOpt,
    ) -> Self {
        assert!(!initial.is_empty(), "global model cannot be empty");
        let commit = Commit::new(initial.len(), momentum, optimizer);
        AggregationServer {
            global: initial,
            strategy,
            kind: optimizer.kind(),
            commit,
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
        self.kind
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
        out.push(self.kind.code() as u8);
        out.extend_from_slice(&self.rounds_completed.to_le_bytes());
        match &self.commit {
            Commit::Avg { velocity, .. } => put_params(&mut out, velocity),
            Commit::Adam { t, m, v, .. } => {
                out.extend_from_slice(&t.to_le_bytes());
                put_params(&mut out, m);
                put_params(&mut out, v);
            }
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
        if kind != self.kind.code() as u8 {
            return Err(FedError::InvalidConfig(format!(
                "checkpoint optimizer kind {kind} does not match the configured {:?}",
                self.kind
            )));
        }
        let rounds_completed = cur.u64()?;
        let mut commit = self.commit.clone();
        match &mut commit {
            Commit::Avg { velocity, .. } => *velocity = cur.params(velocity.len())?,
            Commit::Adam { t, m, v, .. } => {
                *t = cur.u64()?;
                *m = cur.params(m.len())?;
                *v = cur.params(v.len())?;
            }
        }
        if cur.pos != blob.len() {
            return Err(FedError::InvalidConfig(format!(
                "optimizer blob has {} trailing bytes",
                blob.len() - cur.pos
            )));
        }
        self.commit = commit;
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

    /// Combines an accumulated round into one aggregate model and commits
    /// it into θ — the only way a round reaches the global model.
    ///
    /// A round whose admitted updates all carry unit weight combines under
    /// the configured strategy; as soon as any update was
    /// staleness-discounted the explicit weights take over and the
    /// strategy is bypassed: the round commits the normalized weighted
    /// mean of every admitted model.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::EmptyRound`] when nothing was admitted,
    /// [`FedError::InvalidConfig`] when a trimmed mean would discard every
    /// update or the explicit weights do not sum to a positive finite
    /// value. A failed round leaves θ intact.
    pub fn commit_round(&mut self, acc: RoundAccumulator) -> Result<&[f32], FedError> {
        let next = acc.combine()?;
        self.commit.apply(&mut self.global, next);
        self.rounds_completed += 1;
        Ok(&self.global)
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

/// How an accumulator folds its admitted updates.
#[derive(Debug, Clone, PartialEq)]
enum AccMode {
    /// Mean-based strategies: exact running sums, O(1) memory in client
    /// count. The sums are exact integers ([`ExactSum`]s, the moments in
    /// `f64` lanes where those hold them exactly), so the folded state —
    /// and the model committed from it — is bit-independent of admission
    /// order and of how the round was partitioned into shards.
    Streaming {
        /// `Σ (wᵢ·θᵢ − θᵢ)` over the admitted updates whose explicit
        /// (staleness) weight `wᵢ` is not 1, with `wᵢ·θᵢ` saturated to the
        /// finite range, so that the unweighted sum plus this is `Σ wᵢ·θᵢ`
        /// exactly. Empty until the first such update: a fault-free round
        /// folds each upload once, into the unweighted sum.
        correction: Vec<ExactSum>,
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
/// The accumulator tracks the per-coordinate first and second moments of
/// the admitted models, from which [`RoundAccumulator::divergence`]
/// derives the round's client-drift metric without buffering; the first
/// moment is also the mean strategies' sum.
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
    /// Per-coordinate `Σ θᵢⱼ`, unweighted: the divergence metric's first
    /// moment and, at unit weights, the streamed sum of the mean.
    sum: LaneSums,
    /// Per-coordinate `Σ θᵢⱼ²`.
    sumsq: LaneSums,
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
                correction: Vec::new(),
                total_weight: ExactSum::ZERO,
                samples_sum: None,
                total_samples: 0,
            },
            AggregationStrategy::SampleWeighted => AccMode::Streaming {
                correction: Vec::new(),
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
            sum: LaneSums::zeroed(expected_len),
            sumsq: LaneSums::zeroed(expected_len),
        }
    }

    /// Admission-checks `update` and folds it in under explicit `weight`
    /// (1.0 for a fresh update; the staleness discount for a late one).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when `weight` is NaN, infinite
    /// or negative (zero is legal: a staleness discount can underflow to
    /// it), and [`FedError::CorruptUpdate`] naming the client and the
    /// first violation — a shape that differs from the model's, or a
    /// non-finite parameter. Either way the accumulator is left untouched.
    pub fn admit(&mut self, update: ModelUpdate, weight: f32) -> Result<(), FedError> {
        if !(weight.is_finite() && weight >= 0.0) {
            return Err(FedError::InvalidConfig(format!(
                "update weight must be finite and non-negative, got {weight}"
            )));
        }
        if update.params.len() != self.expected_len {
            return Err(FedError::CorruptUpdate {
                client_id: update.client_id,
                reason: format!(
                    "shape mismatch: {} parameters, global has {}",
                    update.params.len(),
                    self.expected_len
                ),
            });
        }
        if let Some(i) = update.params.iter().position(|p| !p.is_finite()) {
            return Err(FedError::CorruptUpdate {
                client_id: update.client_id,
                reason: format!("non-finite value {} at index {i}", update.params[i]),
            });
        }
        self.sum.add(&update.params, |p| p);
        // p is finite (admission), but p² can overflow f32; saturate so the
        // drift moment degrades gracefully instead of poisoning the exact
        // sum.
        self.sumsq.add(&update.params, |p| (p * p).min(f32::MAX));
        self.all_unit &= weight == 1.0;
        self.admitted += 1;
        match &mut self.mode {
            AccMode::Streaming {
                correction,
                total_weight,
                samples_sum,
                total_samples,
            } => {
                if weight != 1.0 {
                    if correction.is_empty() {
                        correction.resize(update.params.len(), ExactSum::ZERO);
                    }
                    for (acc, &p) in correction.iter_mut().zip(&update.params) {
                        acc.add((weight * p).clamp(f32::MIN, f32::MAX));
                        acc.add(-p);
                    }
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
                    correction,
                    total_weight,
                    samples_sum,
                    total_samples,
                },
                AccMode::Streaming {
                    correction: other_correction,
                    total_weight: other_weight,
                    samples_sum: other_samples,
                    total_samples: other_count,
                },
            ) => {
                if correction.is_empty() {
                    *correction = other_correction;
                } else {
                    for (acc, c) in correction.iter_mut().zip(&other_correction) {
                        acc.merge(c);
                    }
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
        self.sum.merge(other.sum);
        self.sumsq.merge(other.sumsq);
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
        for j in 0..self.expected_len {
            let mean = self.sum.to_f64(j) / m;
            // Catastrophic cancellation can take the variance a hair
            // negative; clamp rather than emit NaN.
            total += (self.sumsq.to_f64(j) - m * mean * mean).max(0.0);
        }
        (total / m).sqrt() as f32
    }

    /// Reduces the admitted updates to the round's aggregate model — the
    /// combine stage behind [`AggregationServer::commit_round`].
    fn combine(self) -> Result<Vec<f32>, FedError> {
        if self.admitted == 0 {
            return Err(FedError::EmptyRound);
        }
        match self.mode {
            AccMode::Streaming {
                correction,
                total_weight,
                samples_sum,
                total_samples,
            } => {
                if !self.all_unit {
                    let total = total_weight.to_f64();
                    if !(total.is_finite() && total > 0.0) {
                        return Err(FedError::InvalidConfig(format!(
                            "weights must sum to a positive finite value, got {total}"
                        )));
                    }
                    // Σ wᵢ·θᵢ = Σ θᵢ + Σ (wᵢ·θᵢ − θᵢ), an exact integer sum.
                    return Ok(correction
                        .iter()
                        .enumerate()
                        .map(|(j, c)| {
                            let mut s = self.sum.settled(j);
                            s.merge(c);
                            (s.to_f64() / total) as f32
                        })
                        .collect());
                }
                Ok(match (self.strategy, total_samples) {
                    (AggregationStrategy::SampleWeighted, 1..) => samples_sum
                        .expect("SampleWeighted streams a sample-weighted sum")
                        .iter()
                        .map(|s| (s.to_f64() / total_samples as f64) as f32)
                        .collect(),
                    // Uniform, or SampleWeighted's zero-sample fallback.
                    _ => {
                        let n = self.admitted as f64;
                        (0..self.expected_len)
                            .map(|j| (self.sum.to_f64(j) / n) as f32)
                            .collect()
                    }
                })
            }
            AccMode::Buffered { updates, weights } => {
                let models: Vec<&[f32]> = updates.iter().map(|u| u.params.as_slice()).collect();
                if !self.all_unit {
                    let total: f32 = weights.iter().sum();
                    if !(total.is_finite() && total > 0.0) {
                        return Err(FedError::InvalidConfig(format!(
                            "weights must sum to a positive finite value, got {total}"
                        )));
                    }
                    let normalized: Vec<f32> = weights.iter().map(|w| w / total).collect();
                    return Ok(average_params(&models, &normalized)?);
                }
                match self.strategy {
                    AggregationStrategy::TrimmedMean { trim_each_side } => {
                        if 2 * trim_each_side >= models.len() {
                            return Err(FedError::InvalidConfig(format!(
                                "trimming {trim_each_side} per side discards all {} updates",
                                models.len()
                            )));
                        }
                        Ok(coordinate_wise(&models, |sorted| {
                            let kept = &sorted[trim_each_side..sorted.len() - trim_each_side];
                            kept.iter().sum::<f32>() / kept.len() as f32
                        }))
                    }
                    AggregationStrategy::CoordinateMedian => Ok(coordinate_wise(&models, median)),
                    AggregationStrategy::Uniform | AggregationStrategy::SampleWeighted => {
                        unreachable!("the mean strategies stream")
                    }
                }
            }
        }
    }
}

/// Applies `reduce` to each coordinate's values across `models`, sorted
/// ascending. All models have the same length: only admitted updates are
/// buffered, and admission checks the shape.
fn coordinate_wise(models: &[&[f32]], reduce: impl Fn(&[f32]) -> f32) -> Vec<f32> {
    let mut column = vec![0.0_f32; models.len()];
    (0..models[0].len())
        .map(|i| {
            for (c, m) in column.iter_mut().zip(models) {
                *c = m[i];
            }
            // total_cmp never panics; admission keeps NaN out, but robust
            // aggregation must not be the thing that crashes.
            column.sort_by(|a, b| a.total_cmp(b));
            reduce(&column)
        })
        .collect()
}

/// The middle value of an ascending slice (the mean of the middle pair
/// for an even count).
fn median(sorted: &[f32]) -> f32 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
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

    /// Admits each update at unit weight and commits the round.
    fn round<'a>(
        server: &'a mut AggregationServer,
        updates: &[ModelUpdate],
    ) -> Result<&'a [f32], FedError> {
        let mut acc = server.accumulator();
        for u in updates {
            acc.admit(u.clone(), 1.0)?;
        }
        server.commit_round(acc)
    }

    fn fedavgm(initial: Vec<f32>, momentum: f32) -> AggregationServer {
        AggregationServer::with_optimizer(
            initial,
            AggregationStrategy::Uniform,
            momentum,
            ServerOpt::FedAvg,
        )
    }

    #[test]
    fn shape_mismatch_errors_and_preserves_global() {
        let mut server = AggregationServer::new(vec![0.0, 0.0], AggregationStrategy::Uniform);
        let before = server.global().to_vec();
        let result = round(
            &mut server,
            &[update(0, vec![1.0, 2.0], 1), update(1, vec![1.0], 1)],
        );
        assert!(matches!(result, Err(FedError::CorruptUpdate { .. })));
        assert_eq!(server.global(), before, "failed round must not corrupt θ");
        assert_eq!(server.rounds_completed(), 0);
    }

    #[test]
    fn aggregating_identical_models_is_identity() {
        let p = vec![0.5_f32, -1.5, 2.0];
        let mut server = AggregationServer::new(vec![0.0; 3], AggregationStrategy::Uniform);
        let global = round(
            &mut server,
            &[update(0, p.clone(), 10), update(1, p.clone(), 10)],
        )
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
        let global = round(&mut server, &[honest1, honest2, honest3, byzantine]).unwrap();
        // Trimming one value per side removes the poisoned extreme; the
        // result stays within the honest envelope.
        for &v in global {
            assert!((0.8..=1.2).contains(&v), "poison leaked through: {v}");
        }
    }

    #[test]
    fn coordinate_median_ignores_minority_poison() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let global = round(
            &mut server,
            &[
                update(0, vec![1.0], 1),
                update(1, vec![1.1], 1),
                update(2, vec![-1e9], 1),
            ],
        )
        .unwrap();
        assert_eq!(global, &[1.0]);
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::CoordinateMedian);
        let global = round(
            &mut server,
            &[
                update(0, vec![1.0], 1),
                update(1, vec![3.0], 1),
                update(2, vec![5.0], 1),
                update(3, vec![100.0], 1),
            ],
        )
        .unwrap();
        assert_eq!(global, &[4.0]);
    }

    #[test]
    fn over_trimming_errors_instead_of_panicking() {
        let mut server = AggregationServer::new(
            vec![0.0],
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        );
        let result = round(
            &mut server,
            &[update(0, vec![1.0], 1), update(1, vec![2.0], 1)],
        );
        assert!(matches!(result, Err(FedError::InvalidConfig(_))));
    }

    #[test]
    fn momentum_free_first_step_matches_plain_fedavg() {
        let updates = [update(0, vec![2.0], 1), update(1, vec![4.0], 1)];
        let mut plain = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let mut momo = fedavgm(vec![0.0], 0.9);
        assert_eq!(
            round(&mut plain, &updates).unwrap(),
            round(&mut momo, &updates).unwrap(),
            "velocity starts at zero, so round 1 is identical"
        );
    }

    #[test]
    fn momentum_accelerates_a_consistent_direction() {
        // Clients keep reporting the same target; with momentum the global
        // model overshoots plain averaging after a few rounds.
        let mut momo = fedavgm(vec![0.0], 0.5);
        for _ in 0..3 {
            round(&mut momo, &[update(0, vec![1.0], 1)]).unwrap();
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
        let _ = fedavgm(vec![0.0], 1.0);
    }

    #[test]
    fn weighted_aggregation_rejects_bad_weights() {
        // Weights summing to zero have no normalized mean, streamed or
        // buffered.
        for strategy in [
            AggregationStrategy::Uniform,
            AggregationStrategy::TrimmedMean { trim_each_side: 0 },
        ] {
            let mut server = AggregationServer::new(vec![0.0], strategy);
            let mut acc = server.accumulator();
            acc.admit(update(0, vec![1.0], 1), 0.0).unwrap();
            assert!(matches!(
                server.commit_round(acc),
                Err(FedError::InvalidConfig(_))
            ));
            assert_eq!(server.global(), &[0.0], "failed rounds leave θ intact");
            assert_eq!(server.rounds_completed(), 0);
        }
    }

    #[test]
    fn admission_validates_the_weight() {
        // Zero is legal (a staleness discount can underflow to it); a NaN,
        // infinite or negative weight is refused before anything is folded.
        for (weight, legal) in [
            (f32::NAN, false),
            (f32::INFINITY, false),
            (f32::NEG_INFINITY, false),
            (-1.0, false),
            (0.0, true),
        ] {
            for strategy in [
                AggregationStrategy::Uniform,
                AggregationStrategy::TrimmedMean { trim_each_side: 0 },
            ] {
                let mut server = AggregationServer::new(vec![0.0; 3], strategy);
                let mut acc = server.accumulator();
                let verdict = acc.admit(update(0, vec![2.0; 3], 1), weight);
                if legal {
                    assert_eq!(verdict, Ok(()), "{strategy:?}, weight {weight}");
                } else {
                    assert!(
                        matches!(&verdict, Err(FedError::InvalidConfig(m)) if m.contains("weight")),
                        "{strategy:?}, weight {weight}: {verdict:?}"
                    );
                    assert_eq!(
                        acc,
                        server.accumulator(),
                        "a refused weight leaves no trace"
                    );
                }
                acc.admit(update(1, vec![4.0; 3], 1), 1.0).unwrap();
                assert_eq!(acc.admitted(), if legal { 2 } else { 1 });
                assert_eq!(server.commit_round(acc).unwrap(), &[4.0; 3]);
            }
        }
    }

    #[test]
    fn robust_strategies_survive_nan_without_panicking() {
        // Admission filters NaN, but the sort itself must not panic.
        let models: [&[f32]; 3] = [&[1.0], &[f32::NAN], &[2.0]];
        assert_eq!(coordinate_wise(&models, median), vec![2.0]);
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
            round(&mut trimmed, &updates).unwrap(),
            round(&mut uniform, &updates).unwrap()
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

        // Zero samples everywhere → uniform fallback.
        let mut acc = server.accumulator();
        acc.admit(update(0, vec![2.0, 2.0], 0), 1.0).unwrap();
        acc.admit(update(1, vec![4.0, 4.0], 0), 1.0).unwrap();
        assert_eq!(server.commit_round(acc).unwrap(), &[3.0, 3.0]);
    }

    #[test]
    fn stale_weights_switch_the_accumulator_to_the_weighted_mean() {
        let mut server = AggregationServer::new(vec![0.0], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        // Weights 3:1 → (3·0 + 1·4)/4 = 1.
        acc.admit(update(0, vec![0.0], 1), 3.0).unwrap();
        acc.admit(update(1, vec![4.0], 1), 1.0).unwrap();
        let global = server.commit_round(acc).unwrap();
        assert!((global[0] - 1.0).abs() < 1e-6, "{global:?}");
    }

    #[test]
    fn stale_weights_bypass_the_robust_rule() {
        // One discounted update turns a trimmed-mean round into the
        // normalized weighted mean of every buffered model: the outlier 10
        // is not trimmed, so θ = (0 + 1 + 2 + 0.5·10) / 3.5 = 8/3.5.
        let mut server = AggregationServer::new(
            vec![0.0],
            AggregationStrategy::TrimmedMean { trim_each_side: 1 },
        );
        let mut acc = server.accumulator();
        for (id, (p, w)) in [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (10.0, 0.5)]
            .into_iter()
            .enumerate()
        {
            acc.admit(update(id, vec![p], 1), w).unwrap();
        }
        assert_eq!(server.commit_round(acc).unwrap()[0].to_bits(), 0x4012_4925);
    }

    #[test]
    fn admission_flags_nan_inf_and_shape() {
        let server = AggregationServer::new(vec![0.0; 2], AggregationStrategy::Uniform);
        let mut acc = server.accumulator();
        let nan = acc.admit(update(3, vec![1.0, f32::NAN], 1), 1.0);
        assert!(
            matches!(&nan, Err(FedError::CorruptUpdate { client_id: 3, reason }) if reason.contains("index 1")),
            "{nan:?}"
        );
        let inf = acc.admit(update(1, vec![f32::INFINITY, 0.0], 1), 1.0);
        assert!(matches!(inf, Err(FedError::CorruptUpdate { .. })));
        let shape = acc.admit(update(2, vec![1.0], 1), 1.0);
        assert!(
            matches!(&shape, Err(FedError::CorruptUpdate { client_id: 2, reason }) if reason.contains("shape")),
            "{shape:?}"
        );
        assert_eq!(acc.admitted(), 0, "rejected updates leave no trace");
        assert_eq!(acc, server.accumulator());
        acc.admit(update(0, vec![1.0, 2.0], 1), 1.0).unwrap();
        assert_eq!(acc.admitted(), 1);
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
            let a = round(&mut adam, &updates).unwrap().to_vec();
            let b = round(&mut avg, &updates).unwrap().to_vec();
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
        round(&mut adam, &[update(0, vec![1.0], 1)]).unwrap();
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
            round(&mut prox, &updates).unwrap(),
            round(&mut avg, &updates).unwrap()
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
            round(&mut live, &[update(0, vec![1.0 + r as f32, -2.0], 1)]).unwrap();
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
        let a: Vec<u32> = round(&mut live, &next)
            .unwrap()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        let b: Vec<u32> = round(&mut restored, &next)
            .unwrap()
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(a, b, "restored Adam moments must continue bit-identically");
    }

    #[test]
    fn momentum_velocity_survives_the_blob() {
        let mut live = fedavgm(vec![0.0], 0.5);
        round(&mut live, &[update(0, vec![1.0], 1)]).unwrap();
        let blob = live.snapshot_opt_state();
        let mut restored = fedavgm(live.global().to_vec(), 0.5);
        restored.restore_opt_state(&blob).unwrap();
        let a = round(&mut live, &[update(0, vec![1.0], 1)]).unwrap()[0].to_bits();
        let b = round(&mut restored, &[update(0, vec![1.0], 1)]).unwrap()[0].to_bits();
        assert_eq!(a, b, "FedAvgM velocity must carry across restore");
    }

    #[test]
    fn optimizer_blob_layout_is_pinned() {
        // Kind code, rounds (u64 LE), then the FedAvg(M)/FedProx velocity
        // or FedAdam's t (u64 LE), m and v, each vector a u32 LE length
        // plus f32 LE values. Checkpoints already on disk must keep
        // restoring, so this layout must not change.
        let mut prox = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.5,
            ServerOpt::fedprox(),
        );
        let mut adam = AggregationServer::with_optimizer(
            vec![0.0],
            AggregationStrategy::Uniform,
            0.0,
            ServerOpt::fedadam(),
        );
        for server in [&mut prox, &mut adam] {
            round(server, &[update(0, vec![1.0], 1)]).unwrap();
        }
        // g = θ − next = −1: velocity 0.5·0 + g, Adam m = 0.1·g, v = 0.01·g².
        let mut expected = vec![2];
        expected.extend_from_slice(&1u64.to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&(-1.0_f32).to_le_bytes());
        assert_eq!(prox.snapshot_opt_state(), expected);
        let mut expected = vec![1];
        expected.extend_from_slice(&1u64.to_le_bytes());
        expected.extend_from_slice(&1u64.to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&(-(1.0_f32 - 0.9)).to_le_bytes());
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&(1.0_f32 - 0.99).to_le_bytes());
        assert_eq!(adam.snapshot_opt_state(), expected);
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
