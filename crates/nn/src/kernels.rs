//! Lane-width-aware compute kernels behind the [`Matrix`](crate::Matrix)
//! products.
//!
//! Each kernel is written as fixed-width ([`LANES`]-wide) chunked and
//! unrolled loops with the per-block accumulators held in locals — the
//! shape the autovectorizer keeps (a straight 8-lane multiply–add over
//! `[f32; 8]` blocks) — in safe code with no target-specific intrinsics.
//!
//! Every kernel pins its summation order, which the workspace's
//! bit-identity tests depend on:
//!
//! * [`matmul`] and [`t_matmul`] accumulate every output element
//!   independently in k-order from 0.0 (the axpy form). Chunking over the
//!   *output* dimension keeps each element's exact sequence of f32
//!   rounds, so both are bit-identical to the naive triple loop.
//! * [`dot`] (and [`matmul_t`], which is a dot per output element) folds
//!   strictly left to right, one serial reduction per element.

/// f32 lanes per chunk: the kernels chunk and unroll their column loops
/// to this width.
pub const LANES: usize = 8;

/// Always `false`: there is one kernel path, and it is the lane-chunked
/// safe code in this module. Kept so host reports that print the flag
/// still build.
pub fn simd_active() -> bool {
    false
}

/// `C (m×n) = A (m×k) · B (k×n)`, row-major, `c` fully overwritten.
///
/// Each output element is `Σ_t a[i][t]·b[t][j]` accumulated in t-order
/// from 0.0 — the axpy order.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_exact_mut(n.max(1)).take(m).enumerate() {
        row_times_matrix(&a[i * k..], 1, b, crow, k);
    }
}

/// `C (m×n) = Aᵀ · B` for row-major `A (k×m)` and `B (k×n)`, `c` fully
/// overwritten. Same per-element t-order accumulation as [`matmul`]
/// (coefficients walk a column of `A`), so it is bit-identical to
/// [`matmul`] on an explicit transpose.
pub fn t_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for (i, crow) in c.chunks_exact_mut(n.max(1)).take(m).enumerate() {
        row_times_matrix(&a[i..], m, b, crow, k);
    }
}

/// `C (m×p) = A (m×k) · Bᵀ` for row-major `B (p×k)`, `c` fully
/// overwritten. Every element is a [`dot`] of a row of `A` with a row of
/// `B`.
pub fn matmul_t(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, p: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), p * k);
    debug_assert_eq!(c.len(), m * p);
    if k == 0 {
        // Every element is an empty dot; the loops below would yield no
        // row chunks to walk, and `c` must still be fully overwritten.
        c.fill(0.0);
        return;
    }
    for (i, crow) in c.chunks_exact_mut(p.max(1)).take(m).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        for (cv, brow) in crow.iter_mut().zip(b.chunks_exact(k).take(p)) {
            *cv = dot(arow, brow);
        }
    }
}

/// Dot product of two equal-length slices, folded strictly left to right
/// (the order the rest of the workspace pins in bit-identity tests).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x * y)
        .fold(0.0, |s, v| s + v)
}

/// One output row of [`matmul`]/[`t_matmul`]:
/// `crow[j] = Σ_{t<k} coeffs[t·stride] · b[t·n + j]` with `n = crow.len()`,
/// accumulated in t-order from 0.0.
///
/// [`LANES`]-wide column blocks whose accumulators live in a
/// `[f32; LANES]` local across the whole t-loop — a fixed-width
/// multiply–add the autovectorizer maps straight onto vector registers,
/// and each element still sees the exact scalar summation order.
fn row_times_matrix(coeffs: &[f32], stride: usize, b: &[f32], crow: &mut [f32], k: usize) {
    let n = crow.len();
    debug_assert!(k == 0 || coeffs.len() > (k - 1) * stride);
    debug_assert_eq!(b.len(), k * n);
    crow.fill(0.0);
    if n == 0 {
        return;
    }
    let tail_start = n / LANES * LANES;
    let mut cs = coeffs.iter().step_by(stride);
    for brow in b.chunks_exact(n).take(k) {
        let a = *cs.next().expect("coeffs cover k rows");
        // k-outer axpy split into LANES-wide chunk pairs plus a contiguous
        // sub-width tail: every element accumulates in t-order (elements
        // are independent), and both pieces stay vectorizable.
        let (cmain, ctail) = crow.split_at_mut(tail_start);
        let (bmain, btail) = brow.split_at(tail_start);
        for (cb, bb) in cmain.chunks_exact_mut(LANES).zip(bmain.chunks_exact(LANES)) {
            for l in 0..LANES {
                cb[l] += a * bb[l];
            }
        }
        for (c, &bv) in ctail.iter_mut().zip(btail) {
            *c += a * bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, f: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * f).sin() * 1.5).collect()
    }

    /// The seed's original axpy loop — the summation-order oracle.
    fn matmul_oracle(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for t in 0..k {
                let av = a[i * k + t];
                for j in 0..n {
                    c[i * n + j] += av * b[t * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn scalar_matmul_is_bit_identical_to_the_axpy_oracle() {
        for &(m, k, n) in &[(1, 1, 1), (1, 5, 32), (3, 7, 13), (4, 32, 15), (2, 3, 8)] {
            let a = seq(m * k, 0.37);
            let b = seq(k * n, 0.11);
            let mut c = vec![0.0f32; m * n];
            let oracle = matmul_oracle(&a, &b, m, k, n);
            matmul(&a, &b, &mut c, m, k, n);
            for (x, y) in c.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m}x{k})·({k}x{n})");
            }
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let (m, k, n) = (6, 9, 11);
        let a = seq(k * m, 0.23); // k×m, logically Aᵀ is m×k
        let b = seq(k * n, 0.31);
        let mut at = vec![0.0f32; m * k];
        for t in 0..k {
            for i in 0..m {
                at[i * k + t] = a[t * m + i];
            }
        }
        let mut via_t = vec![0.0f32; m * n];
        let mut via_plain = vec![0.0f32; m * n];
        t_matmul(&a, &b, &mut via_t, m, k, n);
        matmul(&at, &b, &mut via_plain, m, k, n);
        for (x, y) in via_t.iter().zip(&via_plain) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scalar_dot_folds_left_to_right() {
        let a = [1.0e8f32, 1.0, -1.0e8, 1.0];
        let b = [1.0f32, 1.0, 1.0, 1.0];
        // Left-to-right: ((1e8 + 1) + -1e8) + 1 = 1 (the +1 is absorbed).
        assert_eq!(dot(&a, &b), 1.0);
    }

    #[test]
    fn zero_row_and_empty_shapes_are_identities() {
        let mut c = vec![f32::NAN; 0];
        matmul(&[], &[], &mut c, 0, 0, 0);
        let b = seq(6, 0.5);
        let mut c = vec![0.0f32; 0];
        matmul(&[], &b, &mut c, 0, 2, 3);
        let mut c = vec![123.0f32; 4];
        // k = 0: every element is an empty sum.
        matmul(&[], &[], &mut c, 2, 0, 2);
        assert_eq!(c, vec![0.0; 4]);
    }
}
