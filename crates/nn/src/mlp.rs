use crate::linear::{Activation, Linear};
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optim::Optimizer;
use crate::workspace::{ForwardScratch, TrainScratch};
use crate::NnError;

/// Magic bytes prefixing a serialized [`Mlp`].
const MAGIC: &[u8; 4] = b"FPNN";
/// Serialization format version.
const VERSION: u32 = 1;

/// A batch of bandit training samples for [`Mlp::train_batch`].
///
/// Each sample is a state/action/reward triple `(s, a, r)` from the replay
/// buffer: the network's output unit `a` is regressed toward the observed
/// reward `r`, and all other output units receive zero gradient (only the
/// executed action's reward was observed — Eq. (2) of the paper).
#[derive(Debug, Clone, Copy)]
pub struct TrainBatch<'a> {
    /// Row-major states, `n × in_dim` values.
    pub inputs: &'a [f32],
    /// Per-sample executed action (output-unit index), length `n`.
    pub actions: &'a [usize],
    /// Per-sample observed reward, length `n`.
    pub targets: &'a [f32],
}

/// A multi-layer perceptron trained as a reward-regression model.
///
/// The paper's configuration is `Mlp::new(&[5, 32, K], Activation::Relu, seed)`
/// where `K` is the number of V/f levels (15 on the Jetson Nano): one hidden
/// layer of 32 ReLU units, linear outputs estimating `E[r(s, a)]` per action.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    /// Cached layer widths `[in, h1, ..., out]` — the architecture is fixed
    /// at construction, so [`Mlp::dims`] never rebuilds this.
    dims: Vec<usize>,
    /// Cached total parameter count.
    n_params: usize,
}

impl Mlp {
    /// Builds an MLP with the given layer widths.
    ///
    /// `dims = [in, h1, ..., out]` — hidden layers use `hidden_activation`
    /// (He init), the output layer is linear (Xavier init). The seed fully
    /// determines the initial weights.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given or any dim is zero.
    pub fn new(dims: &[usize], hidden_activation: Activation, seed: u64) -> Self {
        Mlp::with_layers(dims, hidden_activation, |i, w, is_output| {
            let layer_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            if is_output {
                Linear::new_xavier(w[0], w[1], layer_seed)
            } else {
                Linear::new(w[0], w[1], layer_seed)
            }
        })
    }

    /// [`Mlp::new`] with every weight and bias zero instead of drawn, for
    /// a network whose parameters are overwritten before use (a model
    /// about to be downloaded, or one read from bytes). Each layer's draw
    /// seeds its own generator, so skipping it leaves every other random
    /// stream as it was.
    ///
    /// # Panics
    ///
    /// As [`Mlp::new`].
    pub fn zeroed(dims: &[usize], hidden_activation: Activation) -> Self {
        Mlp::with_layers(dims, hidden_activation, |_, w, _| {
            Linear::zeroed(w[0], w[1])
        })
    }

    /// The network over `dims` whose layer `i` (`[in, out]` widths, and
    /// whether it is the output layer) `layer` builds.
    fn with_layers(
        dims: &[usize],
        hidden_activation: Activation,
        mut layer: impl FnMut(usize, &[usize], bool) -> Linear,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be nonzero");
        let layers: Vec<Linear> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| layer(i, w, i == dims.len() - 2))
            .collect();
        let n_params = layers.iter().map(Linear::num_params).sum();
        Mlp {
            layers,
            hidden_activation,
            dims: dims.to_vec(),
            n_params,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension (number of actions for the policy network).
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Layer widths `[in, h1, ..., out]` (cached at construction).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The hidden-layer activation.
    pub fn hidden_activation(&self) -> Activation {
        self.hidden_activation
    }

    /// Total number of trainable parameters (cached at construction).
    pub fn num_params(&self) -> usize {
        self.n_params
    }

    /// Forward pass for a single input vector.
    ///
    /// Allocates a fresh output; steady-state callers should prefer
    /// [`Mlp::forward_with`] with a reused [`ForwardScratch`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.len() != in_dim`.
    pub fn forward(&self, x: &[f32]) -> Result<Vec<f32>, NnError> {
        let mut ws = ForwardScratch::default();
        Ok(self.forward_with(x, &mut ws)?.to_vec())
    }

    /// Forward pass for a single input vector, borrowing caller-owned
    /// scratch. After the first call has sized the buffers, this performs
    /// zero heap allocations. The returned slice (length `out_dim`) lives
    /// in the scratch and is valid until its next use.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.len() != in_dim`.
    pub fn forward_with<'ws>(
        &self,
        x: &[f32],
        ws: &'ws mut ForwardScratch,
    ) -> Result<&'ws [f32], NnError> {
        if x.len() != self.in_dim() {
            return Err(NnError::ShapeMismatch {
                expected: self.in_dim(),
                actual: x.len(),
                context: "Mlp::forward input length".into(),
            });
        }
        ws.input.reset(1, x.len());
        ws.input.as_mut_slice().copy_from_slice(x);
        self.run_forward(&ws.input, &mut ws.acts)?;
        Ok(ws.acts[self.layers.len() - 1].as_slice())
    }

    /// Forward pass for a batch of inputs (`n × in_dim`).
    ///
    /// Allocates a fresh output; steady-state callers should prefer
    /// [`Mlp::forward_batch_with`] with a reused [`ForwardScratch`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input width is wrong.
    pub fn forward_batch(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut ws = ForwardScratch::default();
        self.run_forward(x, &mut ws.acts)?;
        Ok(ws.acts.pop().expect("an MLP has at least one layer"))
    }

    /// Forward pass for a batch of inputs, borrowing caller-owned scratch.
    /// After the first call has sized the buffers, this performs zero heap
    /// allocations. The returned matrix (`n × out_dim`) lives in the
    /// scratch and is valid until its next use.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the input width is wrong.
    pub fn forward_batch_with<'ws>(
        &self,
        x: &Matrix,
        ws: &'ws mut ForwardScratch,
    ) -> Result<&'ws Matrix, NnError> {
        self.run_forward(x, &mut ws.acts)?;
        Ok(&ws.acts[self.layers.len() - 1])
    }

    /// Runs the layer stack over `input`, leaving the post-activation of
    /// layer `l` in `acts[l]` (so `acts[layers.len() - 1]` is the output).
    /// Buffers in `acts` are reshaped in place, reusing their allocations.
    fn run_forward(&self, input: &Matrix, acts: &mut Vec<Matrix>) -> Result<(), NnError> {
        while acts.len() < self.layers.len() {
            acts.push(Matrix::default());
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = acts.split_at_mut(l);
            let cur = if l == 0 { input } else { &prev[l - 1] };
            layer.forward_into(cur, &mut rest[0])?;
            if l < self.layers.len() - 1 {
                self.hidden_activation.apply(rest[0].as_mut_slice());
            }
        }
        Ok(())
    }

    /// Computes the mean loss and flat gradient for a bandit batch.
    ///
    /// Only the output unit matching each sample's executed action receives
    /// loss gradient (Eq. (2)); the gradient layout matches [`Mlp::params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] if the batch is empty or field
    /// lengths are inconsistent, [`NnError::ShapeMismatch`] on bad widths.
    pub fn loss_and_gradient<L: Loss>(
        &self,
        batch: &TrainBatch<'_>,
        loss: &L,
    ) -> Result<(f32, Vec<f32>), NnError> {
        let mut ws = TrainScratch::default();
        let mean_loss = self.loss_and_gradient_into(batch, loss, &mut ws)?;
        Ok((mean_loss, std::mem::take(&mut ws.grad)))
    }

    /// [`Mlp::loss_and_gradient`] into caller-owned scratch: the flat
    /// gradient is left in `ws` ([`TrainScratch::grad`]) and only the mean
    /// loss is returned. After the first call has sized the buffers, this
    /// performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Same as [`Mlp::loss_and_gradient`].
    pub fn loss_and_gradient_into<L: Loss>(
        &self,
        batch: &TrainBatch<'_>,
        loss: &L,
        ws: &mut TrainScratch,
    ) -> Result<f32, NnError> {
        let in_dim = self.in_dim();
        let n = batch.actions.len();
        if n == 0 {
            return Err(NnError::InvalidArgument("empty training batch".into()));
        }
        if batch.inputs.len() != n * in_dim {
            return Err(NnError::ShapeMismatch {
                expected: n * in_dim,
                actual: batch.inputs.len(),
                context: "TrainBatch::inputs length".into(),
            });
        }
        if batch.targets.len() != n {
            return Err(NnError::ShapeMismatch {
                expected: n,
                actual: batch.targets.len(),
                context: "TrainBatch::targets length".into(),
            });
        }
        let out_dim = self.out_dim();
        if let Some(&bad) = batch.actions.iter().find(|&&a| a >= out_dim) {
            return Err(NnError::InvalidArgument(format!(
                "action index {bad} out of range for {out_dim} outputs"
            )));
        }

        let nl = self.layers.len();
        ws.ensure_layers(nl);
        ws.input.reset(n, in_dim);
        ws.input.as_mut_slice().copy_from_slice(batch.inputs);

        // Forward pass caching both pre- and post-activations per layer.
        // The output layer is linear, so its post-activation IS its
        // pre-activation — predictions are read from `pre_acts` directly
        // and the redundant `n × out_dim` copy is skipped.
        for l in 0..nl {
            {
                let cur = if l == 0 { &ws.input } else { &ws.acts[l - 1] };
                self.layers[l].forward_into(cur, &mut ws.pre_acts[l])?;
            }
            if l < nl - 1 {
                ws.acts[l].copy_from(&ws.pre_acts[l]);
                self.hidden_activation.apply(ws.acts[l].as_mut_slice());
            }
        }

        // Masked output delta: gradient only on the executed action's unit.
        let out_idx = nl - 1;
        let mut total_loss = 0.0_f32;
        ws.deltas[out_idx].reset(n, out_dim);
        let inv_n = 1.0 / n as f32;
        for i in 0..n {
            let a = batch.actions[i];
            let pred = ws.pre_acts[out_idx].get(i, a);
            let target = batch.targets[i];
            total_loss += loss.value(pred, target);
            ws.deltas[out_idx].set(i, a, loss.derivative(pred, target) * inv_n);
        }
        let mean_loss = total_loss * inv_n;

        // Output layer: the masked delta has exactly one nonzero per row
        // (the executed action), so its grads and back-propagated delta use
        // that structural mask directly instead of dense matmuls — ~out_dim
        // times less work for the batch sizes of Algorithm 1. The mask is
        // index-based, never a value test, so IEEE semantics hold: a NaN
        // prediction poisons its own delta and propagates from there.
        {
            let input_act = if out_idx == 0 {
                &ws.input
            } else {
                &ws.acts[out_idx - 1]
            };
            ws.grad_w[out_idx].reset(out_dim, input_act.cols());
            ws.grad_b[out_idx].clear();
            ws.grad_b[out_idx].resize(out_dim, 0.0);
            for i in 0..n {
                let a = batch.actions[i];
                let d = ws.deltas[out_idx].get(i, a);
                for (g, &v) in ws.grad_w[out_idx]
                    .row_mut(a)
                    .iter_mut()
                    .zip(input_act.row(i))
                {
                    *g += d * v;
                }
                ws.grad_b[out_idx][a] += d;
            }
            if out_idx > 0 {
                // delta_{out-1} = (delta_out · W_out) ⊙ act'(z_{out-1}),
                // where row i of delta_out · W_out is d_i · W_out[a_i].
                let w = self.layers[out_idx].weight_matrix();
                let (head, tail) = ws.deltas.split_at_mut(out_idx);
                let prev = &mut head[out_idx - 1];
                prev.reset(n, w.cols());
                for i in 0..n {
                    let a = batch.actions[i];
                    let d = tail[0].get(i, a);
                    for (o, &wv) in prev.row_mut(i).iter_mut().zip(w.row(a)) {
                        *o = d * wv;
                    }
                }
                self.hidden_activation
                    .backprop(prev.as_mut_slice(), ws.pre_acts[out_idx - 1].as_slice());
            }
        }

        // Hidden layers: dense backprop, collecting per-layer grads.
        for l in (0..out_idx).rev() {
            // gradW_l = deltaᵀ · a_l (a_l is the layer's input activation).
            // Accumulated transposed (a_lᵀ · delta, `in × out`) so the inner
            // loop runs over the wide output dimension, then copied into the
            // `out × in` weight layout. Per-element accumulation order over
            // the batch is unchanged, so the result is bit-identical to the
            // direct `deltaᵀ · a_l` product.
            {
                let input_act = if l == 0 { &ws.input } else { &ws.acts[l - 1] };
                input_act.t_matmul_into(&ws.deltas[l], &mut ws.grad_wt)?;
            }
            let (w_out, w_in) = (ws.grad_wt.cols(), ws.grad_wt.rows());
            ws.grad_w[l].reset(w_out, w_in);
            for j in 0..w_in {
                let src = ws.grad_wt.row(j);
                for (i, &v) in src.iter().enumerate() {
                    ws.grad_w[l].set(i, j, v);
                }
            }
            ws.deltas[l].column_sums_into(&mut ws.grad_b[l]);
            if l > 0 {
                // delta_{l-1} = (delta_l · W_l) ⊙ act'(z_{l-1})
                let (head, tail) = ws.deltas.split_at_mut(l);
                tail[0].matmul_into(self.layers[l].weight_matrix(), &mut head[l - 1])?;
                self.hidden_activation
                    .backprop(head[l - 1].as_mut_slice(), ws.pre_acts[l - 1].as_slice());
            }
        }

        // Flatten in params() order: per layer, weights then bias.
        ws.grad.clear();
        for l in 0..nl {
            ws.grad.extend_from_slice(ws.grad_w[l].as_slice());
            ws.grad.extend_from_slice(&ws.grad_b[l]);
        }
        Ok(mean_loss)
    }

    /// Applies one optimizer step using the gradient left in `ws` by the
    /// last [`Mlp::loss_and_gradient_into`] call. Parameters are staged in
    /// the scratch, so the step allocates nothing once buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if the scratch gradient length does not match
    /// [`Mlp::num_params`] (i.e. the gradient came from a different
    /// architecture).
    pub fn apply_gradient_step<O: Optimizer>(&mut self, optimizer: &mut O, ws: &mut TrainScratch) {
        self.params_into(&mut ws.params);
        optimizer.step(&mut ws.params, &ws.grad);
        self.set_params(&ws.params)
            .expect("params length is stable across a step");
    }

    /// Performs one gradient step on a bandit batch, returning the mean loss
    /// *before* the update.
    ///
    /// Allocates temporary buffers; steady-state callers should prefer
    /// [`Mlp::train_batch_with`] with a reused [`TrainScratch`].
    ///
    /// # Errors
    ///
    /// Same as [`Mlp::loss_and_gradient`].
    pub fn train_batch<L: Loss, O: Optimizer>(
        &mut self,
        batch: &TrainBatch<'_>,
        loss: &L,
        optimizer: &mut O,
    ) -> f32 {
        let mut ws = TrainScratch::default();
        self.train_batch_with(batch, loss, optimizer, &mut ws)
    }

    /// [`Mlp::train_batch`] borrowing caller-owned scratch. After the first
    /// call has sized the buffers, a full SGD step performs zero heap
    /// allocations (proved by the `alloc_discipline` integration test).
    ///
    /// # Panics
    ///
    /// Panics on a malformed batch, like [`Mlp::train_batch`].
    pub fn train_batch_with<L: Loss, O: Optimizer>(
        &mut self,
        batch: &TrainBatch<'_>,
        loss: &L,
        optimizer: &mut O,
        ws: &mut TrainScratch,
    ) -> f32 {
        let mean_loss = self
            .loss_and_gradient_into(batch, loss, ws)
            .expect("train_batch called with malformed batch");
        self.apply_gradient_step(optimizer, ws);
        mean_loss
    }

    /// Returns all parameters as a flat vector (layer order, weights then
    /// bias per layer). This is the representation exchanged with the
    /// federated server.
    pub fn params(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_params());
        self.params_into(&mut flat);
        flat
    }

    /// Writes all parameters into `out` (cleared first), reusing its
    /// allocation — the zero-allocation counterpart of [`Mlp::params`].
    pub fn params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for layer in &self.layers {
            layer.write_params(out);
        }
    }

    /// Overwrites all parameters from a flat vector (see [`Mlp::params`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `flat.len() != num_params`.
    pub fn set_params(&mut self, flat: &[f32]) -> Result<(), NnError> {
        if flat.len() != self.num_params() {
            return Err(NnError::ShapeMismatch {
                expected: self.num_params(),
                actual: flat.len(),
                context: "Mlp::set_params flat vector".into(),
            });
        }
        let mut rest = flat;
        for layer in &mut self.layers {
            rest = layer.read_params(rest)?;
        }
        Ok(())
    }

    /// Serializes the network (architecture + parameters) to bytes.
    ///
    /// This is the payload a device uploads per federated round; for the
    /// paper's 5→32→15 network it is ~2.8 kB, matching §IV-C.
    pub fn to_bytes(&self) -> Vec<u8> {
        let dims = self.dims();
        let mut out = Vec::with_capacity(16 + dims.len() * 4 + self.num_params() * 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(match self.hidden_activation {
            Activation::Relu => 0,
            Activation::Tanh => 1,
            Activation::Identity => 2,
        });
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for d in dims {
            out.extend_from_slice(&(*d as u32).to_le_bytes());
        }
        for p in self.params() {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out
    }

    /// Reconstructs a network from [`Mlp::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncated or corrupted input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NnError> {
        let err = |msg: &str| NnError::Deserialize(msg.into());
        if bytes.len() < 13 {
            return Err(err("blob shorter than header"));
        }
        if &bytes[..4] != MAGIC {
            return Err(err("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("fixed slice"));
        if version != VERSION {
            return Err(NnError::Deserialize(format!(
                "unsupported format version {version}"
            )));
        }
        let activation = match bytes[8] {
            0 => Activation::Relu,
            1 => Activation::Tanh,
            2 => Activation::Identity,
            other => {
                return Err(NnError::Deserialize(format!(
                    "unknown activation tag {other}"
                )))
            }
        };
        let ndims = u32::from_le_bytes(bytes[9..13].try_into().expect("fixed slice")) as usize;
        if !(2..=64).contains(&ndims) {
            return Err(err("implausible layer count"));
        }
        let mut off = 13;
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            if off + 4 > bytes.len() {
                return Err(err("truncated dims"));
            }
            let d = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("fixed slice"));
            if d == 0 {
                return Err(err("zero layer width"));
            }
            dims.push(d as usize);
            off += 4;
        }
        let mut net = Mlp::zeroed(&dims, activation);
        let expect = net.num_params();
        if bytes.len() != off + expect * 4 {
            return Err(NnError::Deserialize(format!(
                "expected {} parameter bytes, found {}",
                expect * 4,
                bytes.len() - off
            )));
        }
        let mut params = Vec::with_capacity(expect);
        for chunk in bytes[off..].chunks_exact(4) {
            params.push(f32::from_le_bytes(chunk.try_into().expect("fixed slice")));
        }
        net.set_params(&params)?;
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Huber, Mse, Sgd};

    fn paper_net(seed: u64) -> Mlp {
        Mlp::new(&[5, 32, 15], Activation::Relu, seed)
    }

    #[test]
    fn paper_network_has_expected_parameter_count_and_transfer_size() {
        let net = paper_net(0);
        // 5*32 + 32 + 32*15 + 15 = 687 parameters
        assert_eq!(net.num_params(), 687);
        let bytes = net.to_bytes();
        // ~2.8 kB per transfer as reported in §IV-C of the paper.
        assert!(
            (2700..2900).contains(&bytes.len()),
            "transfer size {} outside the ~2.8 kB the paper reports",
            bytes.len()
        );
    }

    #[test]
    fn forward_output_width_matches_action_count() {
        let net = paper_net(1);
        let out = net.forward(&[0.5, 0.4, 0.8, 0.1, 3.0]).unwrap();
        assert_eq!(out.len(), 15);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn forward_rejects_wrong_input_length() {
        let net = paper_net(1);
        assert!(net.forward(&[0.0; 4]).is_err());
    }

    #[test]
    fn serialization_roundtrips_exactly() {
        let net = paper_net(7);
        let restored = Mlp::from_bytes(&net.to_bytes()).unwrap();
        assert_eq!(net.params(), restored.params());
        assert_eq!(net.dims(), restored.dims());
        let x = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(net.forward(&x).unwrap(), restored.forward(&x).unwrap());
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let net = paper_net(7);
        let mut bytes = net.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Mlp::from_bytes(&bytes),
            Err(NnError::Deserialize(_))
        ));
        let bytes = net.to_bytes();
        assert!(Mlp::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(Mlp::from_bytes(&[]).is_err());
    }

    #[test]
    fn params_roundtrip_via_set_params() {
        let a = paper_net(3);
        let mut b = paper_net(4);
        assert_ne!(a.params(), b.params());
        b.set_params(&a.params()).unwrap();
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn zeroed_network_equals_the_drawn_one_once_its_params_are_installed() {
        let drawn = paper_net(5);
        let mut zeroed = Mlp::zeroed(&[5, 32, 15], Activation::Relu);
        assert_eq!(zeroed.dims(), drawn.dims());
        assert!(zeroed.params().iter().all(|&p| p == 0.0));
        zeroed.set_params(&drawn.params()).unwrap();
        assert_eq!(zeroed, drawn);
    }

    #[test]
    fn set_params_rejects_wrong_length() {
        let mut net = paper_net(0);
        assert!(net.set_params(&[0.0; 10]).is_err());
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        let mut net = paper_net(5);
        let mut opt = Adam::new(0.005, net.num_params());
        let inputs: Vec<f32> = (0..8 * 5).map(|i| (i as f32 * 0.37).sin()).collect();
        let actions = [0usize, 3, 7, 11, 14, 2, 5, 9];
        let targets = [0.9, 0.5, -0.2, 0.7, -1.0, 0.3, 0.1, 0.6];
        let batch = TrainBatch {
            inputs: &inputs,
            actions: &actions,
            targets: &targets,
        };
        let first = net.train_batch(&batch, &Huber::new(1.0), &mut opt);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&batch, &Huber::new(1.0), &mut opt);
        }
        assert!(
            last < first * 0.1,
            "loss should drop by >10x: first={first} last={last}"
        );
    }

    #[test]
    fn masked_gradient_leaves_other_actions_untouched_for_linear_net() {
        // Single linear layer: training action 0 must not change rows of W
        // or entries of b belonging to other actions.
        let mut net = Mlp::new(&[2, 3], Activation::Relu, 0);
        let before = net.params();
        let mut opt = Sgd::new(0.1);
        let batch = TrainBatch {
            inputs: &[1.0, -1.0],
            actions: &[0],
            targets: &[5.0],
        };
        net.train_batch(&batch, &Mse, &mut opt);
        let after = net.params();
        // Layout: W row0 (2), W row1 (2), W row2 (2), b (3).
        assert_ne!(before[0..2], after[0..2], "trained action row must move");
        assert_eq!(before[2..6], after[2..6], "untrained weight rows frozen");
        assert_ne!(before[6], after[6], "trained action bias must move");
        assert_eq!(before[7..9], after[7..9], "untrained biases frozen");
    }

    #[test]
    fn loss_and_gradient_validates_batch() {
        let net = paper_net(0);
        let bad_action = TrainBatch {
            inputs: &[0.0; 5],
            actions: &[15],
            targets: &[0.0],
        };
        assert!(net.loss_and_gradient(&bad_action, &Mse).is_err());
        let empty = TrainBatch {
            inputs: &[],
            actions: &[],
            targets: &[],
        };
        assert!(net.loss_and_gradient(&empty, &Mse).is_err());
        let short_targets = TrainBatch {
            inputs: &[0.0; 10],
            actions: &[0, 1],
            targets: &[0.0],
        };
        assert!(net.loss_and_gradient(&short_targets, &Mse).is_err());
    }

    #[test]
    fn scratch_paths_match_allocating_paths_bitwise() {
        let mut a = paper_net(11);
        let mut b = paper_net(11);
        let mut fwd = ForwardScratch::new();
        let mut train = TrainScratch::new();
        let x = [0.3, -0.1, 0.7, 0.2, 1.5];
        assert_eq!(
            a.forward(&x).unwrap(),
            b.forward_with(&x, &mut fwd).unwrap()
        );

        let mut opt_a = Adam::new(0.01, a.num_params());
        let mut opt_b = Adam::new(0.01, b.num_params());
        let inputs: Vec<f32> = (0..4 * 5).map(|i| (i as f32 * 0.21).cos()).collect();
        let batch = TrainBatch {
            inputs: &inputs,
            actions: &[1, 4, 9, 14],
            targets: &[0.2, -0.4, 0.8, 0.0],
        };
        for _ in 0..5 {
            let la = a.train_batch(&batch, &Huber::new(1.0), &mut opt_a);
            let lb = b.train_batch_with(&batch, &Huber::new(1.0), &mut opt_b, &mut train);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.params(), b.params());

        let (loss_alloc, grad_alloc) = a.loss_and_gradient(&batch, &Mse).unwrap();
        let loss_scratch = b.loss_and_gradient_into(&batch, &Mse, &mut train).unwrap();
        assert_eq!(loss_alloc.to_bits(), loss_scratch.to_bits());
        assert_eq!(grad_alloc, train.grad());
    }

    #[test]
    fn same_seed_same_network() {
        let a = paper_net(42);
        let b = paper_net(42);
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn deeper_networks_are_supported() {
        let net = Mlp::new(&[4, 16, 16, 8], Activation::Tanh, 9);
        let out = net.forward(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(out.len(), 8);
        let restored = Mlp::from_bytes(&net.to_bytes()).unwrap();
        assert_eq!(restored.dims(), vec![4, 16, 16, 8]);
        assert_eq!(restored.hidden_activation(), Activation::Tanh);
    }
}
