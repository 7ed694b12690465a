//! Training goldens: FNV-1a fingerprints of the exact f32 bits the
//! network computes.
//!
//! Every other suite compares a run with itself or with an oracle built
//! on the same kernels; these constants pin the numbers themselves. A
//! kernel, activation or optimizer change that keeps every element's
//! summation order leaves each fingerprint unchanged; one that reorders
//! a single sum, fuses a multiply-add or drops a NaN fails here.
//!
//! Covered: the paper's `[5, 32, 15]` ReLU network, a `[5, 32, 32, 15]`
//! ReLU network (its hidden-to-hidden layer runs the dense `delta · W`
//! backward with the ReLU derivative) and a `[4, 16, 16, 8]` Tanh
//! network, each trained for 200 Huber + Adam steps at batch 128,
//! and the single-row and 128-row forward passes of each.

use fedpower_nn::{Activation, Adam, ForwardScratch, Huber, Matrix, Mlp, TrainBatch, TrainScratch};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A deterministic stream of raw 64-bit draws (an LCG; only its bits
/// matter, not its statistical quality).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    /// A value in [-lo, lo).
    fn uniform(&mut self, lo: f32) -> f32 {
        (self.next() as f32 / (1u64 << 53) as f32) * 2.0 * lo - lo
    }
}

/// The batch of training step `step`: states in [-2, 2), every action
/// index, and rewards in [-3, 3) so both Huber branches are taken at
/// δ = 1.
fn batch(step: u64, in_dim: usize, out_dim: usize) -> (Vec<f32>, Vec<usize>, Vec<f32>) {
    const N: usize = 128;
    let mut d = Draws(step.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed);
    let inputs = (0..N * in_dim).map(|_| d.uniform(2.0)).collect();
    let actions = (0..N)
        .map(|_| (d.next() % out_dim as u64) as usize)
        .collect();
    let targets = (0..N).map(|_| d.uniform(3.0)).collect();
    (inputs, actions, targets)
}

/// Trains a fresh network for 200 steps and fingerprints every step's
/// loss followed by the final parameters.
fn train_fingerprint(dims: &[usize], activation: Activation, seed: u64) -> u64 {
    let (in_dim, out_dim) = (dims[0], dims[dims.len() - 1]);
    let mut net = Mlp::new(dims, activation, seed);
    let mut opt = Adam::new(0.005, net.num_params());
    let huber = Huber::new(1.0);
    let mut ws = TrainScratch::new();
    let mut losses = Vec::with_capacity(200);
    for step in 0..200 {
        let (inputs, actions, targets) = batch(step, in_dim, out_dim);
        let b = TrainBatch {
            inputs: &inputs,
            actions: &actions,
            targets: &targets,
        };
        losses.push(net.train_batch_with(&b, &huber, &mut opt, &mut ws));
    }
    assert!(losses.iter().all(|l| l.is_finite()), "training diverged");
    fnv1a(losses.into_iter().chain(net.params()))
}

/// Fingerprints a fresh network's single-row output followed by its
/// 128-row batch output.
fn forward_fingerprint(dims: &[usize], activation: Activation, seed: u64) -> u64 {
    let (in_dim, out_dim) = (dims[0], dims[dims.len() - 1]);
    let net = Mlp::new(dims, activation, seed);
    let (inputs, _, _) = batch(1_000, in_dim, out_dim);
    let mut ws = ForwardScratch::new();
    let row = net
        .forward_with(&inputs[..in_dim], &mut ws)
        .expect("input width matches")
        .to_vec();
    let x = Matrix::from_rows(128, in_dim, inputs).expect("length matches");
    let rows = net
        .forward_batch_with(&x, &mut ws)
        .expect("input width matches")
        .as_slice()
        .to_vec();
    assert_eq!(rows.len(), 128 * out_dim);
    fnv1a(row.into_iter().chain(rows))
}

#[test]
fn paper_network_training_matches_golden() {
    let got = train_fingerprint(&[5, 32, 15], Activation::Relu, 7);
    assert_eq!(
        got, 0x207c_dddc_5b5c_ad4f,
        "[5, 32, 15] ReLU training: {got:#018x}"
    );
}

#[test]
fn two_hidden_layer_relu_training_matches_golden() {
    let got = train_fingerprint(&[5, 32, 32, 15], Activation::Relu, 8);
    assert_eq!(
        got, 0x9ac4_46db_05eb_52c9,
        "[5, 32, 32, 15] ReLU training: {got:#018x}"
    );
}

#[test]
fn tanh_network_training_matches_golden() {
    let got = train_fingerprint(&[4, 16, 16, 8], Activation::Tanh, 9);
    assert_eq!(
        got, 0x6058_46a1_ec06_6117,
        "[4, 16, 16, 8] Tanh training: {got:#018x}"
    );
}

#[test]
fn forward_outputs_match_golden() {
    let got = [
        forward_fingerprint(&[5, 32, 15], Activation::Relu, 7),
        forward_fingerprint(&[5, 32, 32, 15], Activation::Relu, 8),
        forward_fingerprint(&[4, 16, 16, 8], Activation::Tanh, 9),
    ];
    assert_eq!(
        got,
        [
            0x1487_c2a8_305f_991f,
            0x7984_6f4b_d9bc_8019,
            0xb12f_2759_8fc6_5f5d,
        ],
        "forward: {got:#018x?}"
    );
}
