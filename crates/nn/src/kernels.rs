//! Register-tiled compute kernels behind the [`Matrix`](crate::Matrix)
//! products.
//!
//! [`matmul`] and [`t_matmul`] share one micro-kernel. It computes a
//! tile of [`ROWS`] output rows × [`LANES`] output columns with the tile's
//! accumulators in a `[[f32; LANES]; ROWS]` local that lives across the
//! whole k-loop: per k it loads one row segment of `B`, broadcasts one
//! coefficient per tile row, and does `ROWS × LANES` independent
//! multiply–adds — the shape the autovectorizer maps onto vector
//! registers. Output rows past the last full row block run through the
//! same kernel one row at a time. Everything is safe code with no
//! target-specific intrinsics.
//!
//! The last column tile of a row whose width is not a multiple of
//! [`LANES`] (the 15-action output layer) still reads a full tile: it
//! reads on into `B`'s next row, and the lanes past the row's end are
//! computed and discarded. Only the few k-rows whose full-width read would
//! run past the end of `B` read from a zero-padded copy of `B`'s tail,
//! made once per column tile.
//!
//! Every kernel pins its summation order, which the workspace's
//! bit-identity tests depend on:
//!
//! * [`matmul`] and [`t_matmul`] accumulate every output element
//!   independently in k-order from 0.0, a multiply then an add (never a
//!   fused multiply–add). Tiling runs over the *output* dimensions only,
//!   so each element keeps its exact sequence of f32 rounds and both are
//!   bit-identical to the naive triple loop. An optional bias is added
//!   once in the store, as `Σ + b`.
//! * [`dot`] (and [`matmul_t`], which is a dot per output element) folds
//!   strictly left to right, one serial reduction per element.

/// Output rows per register tile.
pub const ROWS: usize = 4;

/// Output columns (f32 lanes) per register tile.
pub const LANES: usize = 16;

/// Always `false`: there is one kernel path, and it is the register-tiled
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
    matmul_bias(a, b, None, c, m, k, n);
}

/// [`matmul`] plus a bias row: `c[i][j] = Σ_t a[i][t]·b[t][j] + bias[j]`,
/// the sum accumulated exactly as in [`matmul`] and the bias added last,
/// so it is bit-identical to [`matmul`] followed by a separate bias pass.
pub fn matmul_bias(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    tiled(RowMajor { a, k }, b, bias, c, m, k, n);
}

/// `C (m×n) = Aᵀ · B` for row-major `A (k×m)` and `B (k×n)`, `c` fully
/// overwritten. Same per-element t-order accumulation as [`matmul`]
/// (coefficients walk a column of `A`), so it is bit-identical to
/// [`matmul`] on an explicit transpose.
pub fn t_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    tiled(ColMajor { a, m }, b, None, c, m, k, n);
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

/// Where the left-hand coefficients `A[i][t]` of a tiled product live.
trait Lhs: Copy {
    /// `A[i0 + r][t]` for `r < R`.
    fn coeffs<const R: usize>(self, i0: usize, t: usize) -> [f32; R];
}

/// `A` stored row-major as `m × k`: a tile row walks along a row of `a`.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f32],
    k: usize,
}

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn coeffs<const R: usize>(self, i0: usize, t: usize) -> [f32; R] {
        std::array::from_fn(|r| self.a[(i0 + r) * self.k + t])
    }
}

/// `A` read transposed from a row-major `k × m` array: the `R`
/// coefficients of one k-step are contiguous.
#[derive(Clone, Copy)]
struct ColMajor<'a> {
    a: &'a [f32],
    m: usize,
}

impl Lhs for ColMajor<'_> {
    #[inline(always)]
    fn coeffs<const R: usize>(self, i0: usize, t: usize) -> [f32; R] {
        let at = t * self.m + i0;
        self.a[at..at + R].try_into().expect("R coefficients")
    }
}

/// `C (m×n) = A·B (+ bias)` over register tiles, one [`LANES`]-wide
/// column tile at a time: full [`ROWS`]-row blocks, then the remaining
/// rows one at a time.
fn tiled<L: Lhs>(
    lhs: L,
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(bias.is_none_or(|bias| bias.len() == n));
    let full = m / ROWS * ROWS;
    for j0 in (0..n).step_by(LANES) {
        let panel = Panel::new(b, k, n, j0);
        let w = LANES.min(n - j0);
        let store = |c: &mut [f32], acc: &[[f32; LANES]]| {
            for (crow, sums) in c.chunks_exact_mut(n).zip(acc) {
                let out = &mut crow[j0..j0 + w];
                match bias {
                    Some(bias) => {
                        for ((o, &s), &bv) in out.iter_mut().zip(sums).zip(&bias[j0..j0 + w]) {
                            *o = s + bv;
                        }
                    }
                    None => out.copy_from_slice(&sums[..w]),
                }
            }
        };
        for i0 in (0..full).step_by(ROWS) {
            let acc = panel.tile::<ROWS, L>(lhs, i0);
            store(&mut c[i0 * n..(i0 + ROWS) * n], &acc);
        }
        for i in full..m {
            let acc = panel.tile::<1, L>(lhs, i);
            store(&mut c[i * n..(i + 1) * n], &acc);
        }
    }
}

/// One [`LANES`]-wide column tile of `B (k×n)`, starting at column `j0`.
/// The tile of k-row `t` is always read full width: straight from `b`
/// (reading on into the next row when fewer than [`LANES`] columns are
/// left) while that stays inside `b`, and from a zero-padded copy of
/// `b`'s tail for the last few k-rows, whose reads would run past its
/// end.
struct Panel<'a> {
    b: &'a [f32],
    k: usize,
    n: usize,
    j0: usize,
    /// k-rows `0..direct` read straight from `b`.
    direct: usize,
    /// `b[direct·n + j0..]` (fewer than [`LANES`] values), zero-padded:
    /// every later k-row's read starts fewer than [`LANES`] values in.
    tail: [f32; 2 * LANES],
}

impl<'a> Panel<'a> {
    fn new(b: &'a [f32], k: usize, n: usize, j0: usize) -> Self {
        // The first k-row whose read would pass the end is the first `t`
        // with `t·n > k·n − j0 − LANES`; it is at most `k`.
        let direct = match (k * n).checked_sub(j0 + LANES) {
            Some(slack) => slack / n + 1,
            None => 0,
        };
        let mut tail = [0.0f32; 2 * LANES];
        if direct < k {
            let from = direct * n + j0;
            tail[..b.len() - from].copy_from_slice(&b[from..]);
        }
        Panel {
            b,
            k,
            n,
            j0,
            direct,
            tail,
        }
    }

    /// The micro-kernel: `acc[r][l] = Σ_{t<k} A[i0 + r][t] · b[t·n + j0 + l]`,
    /// accumulated in t-order from 0.0. Lanes at or past `n − j0` hold
    /// products of whatever follows the row in `B` and are discarded by
    /// the caller.
    #[inline(always)]
    fn tile<const R: usize, L: Lhs>(&self, lhs: L, i0: usize) -> [[f32; LANES]; R] {
        let mut acc = [[0.0f32; LANES]; R];
        for t in 0..self.direct {
            let at = t * self.n + self.j0;
            let bt: &[f32; LANES] = self.b[at..at + LANES].try_into().expect("LANES values");
            fma_free_step(&mut acc, lhs.coeffs::<R>(i0, t), bt);
        }
        for t in self.direct..self.k {
            let at = (t - self.direct) * self.n;
            let bt: &[f32; LANES] = self.tail[at..at + LANES].try_into().expect("LANES values");
            fma_free_step(&mut acc, lhs.coeffs::<R>(i0, t), bt);
        }
        acc
    }
}

/// One k-step of the micro-kernel: `acc[r][l] += a[r] · bt[l]`, a
/// multiply rounded to f32 and then an add, never fused.
#[inline(always)]
fn fma_free_step<const R: usize>(acc: &mut [[f32; LANES]; R], a: [f32; R], bt: &[f32; LANES]) {
    for (row, &ar) in acc.iter_mut().zip(&a) {
        for (s, &bv) in row.iter_mut().zip(bt) {
            *s += ar * bv;
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
