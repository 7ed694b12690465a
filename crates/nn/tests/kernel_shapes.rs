//! Kernel edge-shape properties.
//!
//! Pins the kernels' contracts on exactly the shapes a lane width gets
//! wrong: 1×1, prime dimensions, zero-row batches, and widths straddling
//! the 8-lane blocks. Two classes of assertion:
//!
//! * every product is **bit-identical** to a naive oracle with the same
//!   summation order (the chunked restructure changed no rounding):
//!   `matmul` to the seed's axpy triple loop, `t_matmul` to that loop on
//!   an explicit transpose, `matmul_t` to a left-to-right dot per element;
//! * NaN/∞ propagate (`0 · NaN`, `0 · ∞` must poison the affected output).

use fedpower_nn::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random fill (splitmix64-ish) in roughly [-2, 2].
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
        })
        .collect()
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_rows(rows, cols, fill(rows * cols, seed)).expect("length matches")
}

/// The seed's original axpy loop — the summation-order oracle for
/// `matmul` (and, via an explicit transpose, `t_matmul`).
fn matmul_oracle(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for t in 0..k {
            let av = a.get(i, t);
            for j in 0..n {
                c[i * n + j] += av * b.get(t, j);
            }
        }
    }
    c
}

fn assert_bits_eq(lhs: &[f32], rhs: &[f32], what: &str) {
    assert_eq!(lhs.len(), rhs.len(), "{what}: length");
    for (i, (x, y)) in lhs.iter().zip(rhs).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// Dimensions a lane width trips over: 1, primes off the 8-lane grid,
/// exact multiples, one-off-a-multiple, and a couple of larger sizes.
const EDGE_DIMS: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33];

/// Row-major transpose of `m`.
fn transpose(m: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(m.cols(), m.rows());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            t.set(j, i, m.get(i, j));
        }
    }
    t
}

/// `a · bᵀ` with every element a dot folded strictly left to right —
/// the summation-order oracle for `matmul_t`.
fn matmul_t_oracle(a: &Matrix, bt: &Matrix) -> Vec<f32> {
    let (m, k, p) = (a.rows(), a.cols(), bt.rows());
    let mut c = vec![0.0f32; m * p];
    for i in 0..m {
        for j in 0..p {
            let mut s = 0.0f32;
            for t in 0..k {
                s += a.get(i, t) * bt.get(j, t);
            }
            c[i * p + j] = s;
        }
    }
    c
}

proptest! {
    /// `matmul` is bit-identical to the seed oracle on every edge shape.
    #[test]
    fn scalar_matmul_matches_oracle_on_edge_shapes(
        mi in 0_usize..14, ki in 0_usize..14, ni in 0_usize..14, seed in 0_u64..1000
    ) {
        let (m, k, n) = (EDGE_DIMS[mi], EDGE_DIMS[ki], EDGE_DIMS[ni]);
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xabcd);
        let oracle = matmul_oracle(&a, &b);
        let c = a.matmul(&b).expect("shapes agree");
        assert_bits_eq(c.as_slice(), &oracle, "scalar matmul vs oracle");
    }

    /// `t_matmul` is bit-identical to the oracle applied to an explicit
    /// transpose, and `matmul_t` to a left-to-right dot per element, on
    /// every edge shape.
    #[test]
    fn t_matmul_and_matmul_t_match_oracles_on_edge_shapes(
        mi in 0_usize..14, ki in 0_usize..14, ni in 0_usize..14, seed in 0_u64..1000
    ) {
        let (m, k, n) = (EDGE_DIMS[mi], EDGE_DIMS[ki], EDGE_DIMS[ni]);
        let at = matrix(k, m, seed.wrapping_add(7));
        let b = matrix(k, n, seed ^ 0x1234);
        let tmm = at.t_matmul(&b).expect("shapes agree");
        assert_bits_eq(tmm.as_slice(), &matmul_oracle(&transpose(&at), &b), "t_matmul vs oracle");

        let a = matrix(m, k, seed);
        let bt = matrix(n, k, seed ^ 0x7777);
        let mmt = a.matmul_t(&bt).expect("shapes agree");
        assert_bits_eq(mmt.as_slice(), &matmul_t_oracle(&a, &bt), "matmul_t vs oracle");
    }
}

#[test]
fn zero_row_batches_are_well_formed() {
    // 0×k · k×n → 0×n, and m×0 · 0×n → m×n of empty sums (all zero).
    let empty_rows = Matrix::zeros(0, 5);
    let b = matrix(5, 9, 3);
    let c = empty_rows.matmul(&b).expect("0-row product is legal");
    assert_eq!((c.rows(), c.cols()), (0, 9));

    let a = Matrix::zeros(4, 0);
    let b0 = Matrix::zeros(0, 3);
    let c = a.matmul(&b0).expect("0-inner product is legal");
    assert_eq!((c.rows(), c.cols()), (4, 3));
    assert!(c.as_slice().iter().all(|&v| v == 0.0), "empty sums are 0");

    let c = b.t_matmul(&matrix(5, 7, 4)).expect("shapes agree");
    assert_eq!((c.rows(), c.cols()), (9, 7));

    let bt = Matrix::zeros(6, 0);
    let c = a.matmul_t(&bt).expect("0-inner dot product is legal");
    assert_eq!((c.rows(), c.cols()), (4, 6));
    assert!(c.as_slice().iter().all(|&v| v == 0.0), "empty dots are 0");
}

#[test]
fn nan_and_infinity_propagate() {
    // Poison a column that only ever meets zero coefficients: IEEE-754
    // demands 0 · NaN = NaN and 0 · ∞ = NaN. The poisoned columns sit past
    // the 8-lane boundary so the sub-lane tail loop is on the hook too.
    let k = 9;
    let n = 11;
    let mut a = Matrix::zeros(2, k);
    for t in 0..k {
        a.set(1, t, 0.5 + t as f32);
    }
    let mut b = matrix(k, n, 99);
    b.set(3, 10, f32::NAN);
    b.set(4, 9, f32::INFINITY);
    let mut at = Matrix::zeros(k, 2);
    for t in 0..k {
        at.set(t, 1, 0.5 + t as f32);
    }

    let mm = a.matmul(&b).expect("shapes agree");
    let tmm = at.t_matmul(&b).expect("shapes agree");
    let mmt = a
        .matmul_t(&matrix(4, k, 5).into_poisoned())
        .expect("shapes agree");
    for c in [&mm, &tmm] {
        assert!(c.get(0, 10).is_nan(), "0 · NaN must stay NaN");
        assert!(c.get(0, 9).is_nan(), "0 · ∞ must become NaN");
        assert!(c.get(1, 0).is_finite(), "clean columns stay finite");
    }
    assert!(mmt.get(0, 0).is_nan(), "matmul_t: 0 · NaN must stay NaN");
}

/// Helper: poison element (0, 0) of a matrix with NaN behind a zero
/// coefficient row (row 0 of `a` above is all zeros).
trait Poison {
    fn into_poisoned(self) -> Matrix;
}

impl Poison for Matrix {
    fn into_poisoned(mut self) -> Matrix {
        self.set(0, 0, f32::NAN);
        self
    }
}

#[test]
fn one_by_one_products_reduce_to_scalar_multiplication() {
    let a = Matrix::from_rows(1, 1, vec![3.5]).unwrap();
    let b = Matrix::from_rows(1, 1, vec![-2.0]).unwrap();
    assert_eq!(a.matmul(&b).unwrap().get(0, 0), -7.0);
    assert_eq!(a.t_matmul(&b).unwrap().get(0, 0), -7.0);
    assert_eq!(a.matmul_t(&b).unwrap().get(0, 0), -7.0);
}
