use crate::init::Init;
use crate::{Matrix, NnError};

/// Elementwise activation function applied after a [`Linear`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)` — the paper's hidden activation.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity (used on the reward-regression output layer).
    Identity,
}

impl Activation {
    /// Applies the activation elementwise in place. The variant is
    /// matched once per slice, so each loop is branch-free: ReLU is a
    /// select (`x < 0 → 0`, so `-0.0` and NaN pass through unchanged).
    pub fn apply(self, xs: &mut [f32]) {
        match self {
            Activation::Relu => {
                for x in xs {
                    *x = if *x < 0.0 { 0.0 } else { *x };
                }
            }
            Activation::Tanh => {
                for x in xs {
                    *x = x.tanh();
                }
            }
            Activation::Identity => {}
        }
    }

    /// Derivative of the activation, evaluated from the *pre-activation* `z`.
    pub fn derivative(self, z: f32) -> f32 {
        match self {
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = z.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// Backpropagates through the activation in place:
    /// `deltas[i] *= derivative(pre[i])`, the variant matched once per
    /// slice. The ReLU multiply is by a selected 1.0 or 0.0, so it stays
    /// branch-free and a NaN or infinite delta still poisons its element.
    /// Identity's factor is exactly 1.0, so it leaves `deltas` untouched.
    pub fn backprop(self, deltas: &mut [f32], pre: &[f32]) {
        debug_assert_eq!(deltas.len(), pre.len());
        match self {
            Activation::Relu => {
                for (d, &z) in deltas.iter_mut().zip(pre) {
                    *d *= if z > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Tanh => {
                for (d, &z) in deltas.iter_mut().zip(pre) {
                    *d *= Activation::Tanh.derivative(z);
                }
            }
            Activation::Identity => {}
        }
    }
}

/// A fully-connected layer: `y = x·Wᵀ + b`.
///
/// Weights are stored row-major as `out_dim × in_dim`; this matches the flat
/// parameter layout exchanged during federated averaging.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// `out_dim × in_dim` weight matrix. Stored as a [`Matrix`] so the
    /// forward pass never re-materializes it from a flat buffer.
    weights: Matrix,
    /// Transposed copy (`in_dim × out_dim`) kept in sync with `weights` on
    /// every parameter write. The forward pass computes `X·Wᵀ + b` as
    /// `X·(Wᵀ) + b` through the register-tiled
    /// [`kernels::matmul_bias`](crate::kernels::matmul_bias), which reads
    /// contiguous rows of `Wᵀ` and vectorizes — unlike the per-element
    /// serial dot of [`Matrix::matmul_t_into`]. Both accumulate each
    /// output element in the same k-order from 0.0, so the results are
    /// bit-identical.
    weights_t: Matrix,
    /// Length `out_dim`.
    bias: Vec<f32>,
}

impl Linear {
    /// Creates a layer with He-uniform weights (zero bias), seeded
    /// deterministically.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let (weights, bias) = Init::HeUniform.sample(in_dim, out_dim, seed);
        Linear::from_parts(in_dim, out_dim, weights, bias)
    }

    /// Creates a layer with Xavier-uniform weights, appropriate for the
    /// linear output layer of a regression network.
    pub fn new_xavier(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let (weights, bias) = Init::XavierUniform.sample(in_dim, out_dim, seed);
        Linear::from_parts(in_dim, out_dim, weights, bias)
    }

    /// Creates a layer whose weights and bias are all zero, for a caller
    /// that overwrites them before use: it skips the initial draw.
    pub(crate) fn zeroed(in_dim: usize, out_dim: usize) -> Self {
        Linear::from_parts(
            in_dim,
            out_dim,
            vec![0.0; in_dim * out_dim],
            vec![0.0; out_dim],
        )
    }

    /// A layer over `out_dim × in_dim` row-major `weights` and `bias`.
    fn from_parts(in_dim: usize, out_dim: usize, weights: Vec<f32>, bias: Vec<f32>) -> Self {
        let mut layer = Linear {
            in_dim,
            out_dim,
            weights: Matrix::from_rows(out_dim, in_dim, weights)
                .expect("weights hold out_dim*in_dim values"),
            weights_t: Matrix::default(),
            bias,
        };
        layer.refresh_transpose();
        layer
    }

    /// Rebuilds the transposed weight copy, reusing its allocation.
    fn refresh_transpose(&mut self) {
        self.weights_t.reset(self.in_dim, self.out_dim);
        for o in 0..self.out_dim {
            for (i, &w) in self.weights.row(o).iter().enumerate() {
                self.weights_t.set(i, o, w);
            }
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable parameters (`out·in + out`).
    pub fn num_params(&self) -> usize {
        self.weights.as_slice().len() + self.bias.len()
    }

    /// Borrow of the weight matrix (`out_dim × in_dim`).
    pub(crate) fn weight_matrix(&self) -> &Matrix {
        &self.weights
    }

    /// Forward pass for a batch: `X (n×in) → Z (n×out)` where
    /// `Z = X·Wᵀ + b`. No activation is applied.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut z = Matrix::default();
        self.forward_into(x, &mut z)?;
        Ok(z)
    }

    /// [`Linear::forward`] writing into caller-owned scratch; `z` is
    /// reshaped (reusing its allocation) and fully overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix) -> Result<(), NnError> {
        if x.cols() != self.in_dim {
            return Err(NnError::ShapeMismatch {
                expected: self.in_dim,
                actual: x.cols(),
                context: "Linear::forward input width".into(),
            });
        }
        x.matmul_bias_into(&self.weights_t, Some(&self.bias), z)
    }

    /// Appends this layer's parameters (weights then bias) to `out`.
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Reads this layer's parameters from the front of `src`, returning the
    /// remainder.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `src` is too short.
    pub fn read_params<'a>(&mut self, src: &'a [f32]) -> Result<&'a [f32], NnError> {
        let n = self.num_params();
        if src.len() < n {
            return Err(NnError::ShapeMismatch {
                expected: n,
                actual: src.len(),
                context: "Linear::read_params source length".into(),
            });
        }
        let nw = self.weights.as_slice().len();
        let nb = self.bias.len();
        self.weights.as_mut_slice().copy_from_slice(&src[..nw]);
        self.bias.copy_from_slice(&src[nw..nw + nb]);
        self.refresh_transpose();
        Ok(&src[n..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_computes_affine_map() {
        let mut layer = Linear::new(2, 2, 0);
        // W = [[1, 2], [3, 4]], b = [10, 20]
        layer
            .read_params(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0])
            .unwrap();
        let x = Matrix::from_rows(1, 2, vec![5.0, 6.0]).unwrap();
        let z = layer.forward(&x).unwrap();
        // z = [5*1+6*2+10, 5*3+6*4+20] = [27, 59]
        assert_eq!(z.as_slice(), &[27.0, 59.0]);
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let layer = Linear::new(3, 2, 0);
        let x = Matrix::zeros(1, 2);
        assert!(layer.forward(&x).is_err());
    }

    #[test]
    fn params_roundtrip() {
        let a = Linear::new(4, 3, 11);
        let mut flat = Vec::new();
        a.write_params(&mut flat);
        assert_eq!(flat.len(), a.num_params());

        let mut b = Linear::new(4, 3, 99);
        let rest = b.read_params(&flat).unwrap();
        assert!(rest.is_empty());
        let mut flat_b = Vec::new();
        b.write_params(&mut flat_b);
        assert_eq!(flat, flat_b);
    }

    #[test]
    fn transposed_forward_is_bit_identical_to_direct_dot() {
        // Regression for the weights_t fast path: X·(Wᵀ) via matmul_into
        // must reproduce the serial-dot X·Wᵀ bit for bit, including after
        // a parameter overwrite refreshes the transpose.
        let mut layer = Linear::new(7, 13, 21);
        let x = Matrix::from_rows(
            3,
            7,
            (0..21).map(|i| (i as f32 * 0.313).sin() * 1.7).collect(),
        )
        .unwrap();
        let check = |layer: &Linear, x: &Matrix| {
            let z = layer.forward(x).unwrap();
            let mut direct = x.matmul_t(&layer.weights).unwrap();
            direct.add_row_bias(&layer.bias).unwrap();
            for (a, b) in z.as_slice().iter().zip(direct.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        };
        check(&layer, &x);
        let params: Vec<f32> = (0..layer.num_params())
            .map(|i| (i as f32 * 0.071).cos())
            .collect();
        layer.read_params(&params).unwrap();
        check(&layer, &x);
    }

    #[test]
    fn read_params_too_short_errors() {
        let mut layer = Linear::new(4, 3, 0);
        assert!(layer.read_params(&[0.0; 3]).is_err());
    }

    #[test]
    fn relu_zeroes_negatives_only() {
        let mut xs = [-1.0, 0.0, 2.5];
        Activation::Relu.apply(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 2.5]);
    }

    #[test]
    fn activation_derivatives_match_definitions() {
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Identity.derivative(-3.0), 1.0);
        let d = Activation::Tanh.derivative(0.0);
        assert!((d - 1.0).abs() < 1e-6);
    }
}
