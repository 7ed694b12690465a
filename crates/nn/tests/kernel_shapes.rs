//! Kernel edge-shape properties.
//!
//! Pins the kernels' contracts on exactly the shapes a register tile gets
//! wrong: 1×1, prime dimensions, zero-row batches, row counts on both
//! sides of the [`ROWS`]-row block, widths straddling the [`LANES`]-wide
//! column tile, and the training step's own shapes. Two classes of
//! assertion:
//!
//! * every product is **bit-identical** to a naive oracle with the same
//!   summation order (tiling changed no rounding): `matmul` to the seed's
//!   axpy triple loop, `t_matmul` to that loop on an explicit transpose,
//!   `matmul_t` to a left-to-right dot per element;
//! * NaN/∞ propagate (`0 · NaN`, `0 · ∞` must poison the affected
//!   output), in the ragged last column tile and in `B`'s last row, where
//!   the kernel reads `B` from a padded copy of its tail, and never leak
//!   into a neighbouring column.
//!
//! Every shape is walked deterministically; the whole file runs in a few
//! seconds in a debug build.

use fedpower_nn::kernels::{LANES, ROWS};
use fedpower_nn::Matrix;

/// Deterministic pseudo-random fill (an LCG) in roughly [-2, 2].
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

fn assert_bits_eq(lhs: &[f32], rhs: &[f32], what: &str) {
    assert_eq!(lhs.len(), rhs.len(), "{what}: length");
    for (i, (x, y)) in lhs.iter().zip(rhs).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// Dimensions a tile trips over: 1, primes off the tile grid, exact
/// multiples, one-off-a-multiple, and a couple of larger sizes.
const EDGE_DIMS: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33];

/// Every `(m, k, n)` over [`EDGE_DIMS`], with a seed per triple.
fn edge_triples() -> impl Iterator<Item = (usize, usize, usize, u64)> {
    EDGE_DIMS.iter().enumerate().flat_map(|(mi, &m)| {
        EDGE_DIMS.iter().enumerate().flat_map(move |(ki, &k)| {
            EDGE_DIMS
                .iter()
                .enumerate()
                .map(move |(ni, &n)| (m, k, n, (mi * 196 + ki * 14 + ni) as u64))
        })
    })
}

/// Checks `matmul` on `m×k · k×n` against the axpy oracle.
fn check_matmul(m: usize, k: usize, n: usize, seed: u64) {
    let a = matrix(m, k, seed);
    let b = matrix(k, n, seed ^ 0xabcd);
    let c = a.matmul(&b).expect("shapes agree");
    assert_bits_eq(
        c.as_slice(),
        &matmul_oracle(&a, &b),
        &format!("matmul ({m}x{k})·({k}x{n})"),
    );
}

/// Checks `t_matmul` on `(k×m)ᵀ · k×n` against the oracle on an explicit
/// transpose.
fn check_t_matmul(m: usize, k: usize, n: usize, seed: u64) {
    let at = matrix(k, m, seed.wrapping_add(7));
    let b = matrix(k, n, seed ^ 0x1234);
    let c = at.t_matmul(&b).expect("shapes agree");
    assert_bits_eq(
        c.as_slice(),
        &matmul_oracle(&transpose(&at), &b),
        &format!("t_matmul ({k}x{m})ᵀ·({k}x{n})"),
    );
}

/// `matmul` is bit-identical to the seed oracle on every edge shape.
#[test]
fn matmul_matches_oracle_on_every_edge_shape() {
    for (m, k, n, seed) in edge_triples() {
        check_matmul(m, k, n, seed);
    }
}

/// `t_matmul` is bit-identical to the oracle applied to an explicit
/// transpose, and `matmul_t` to a left-to-right dot per element, on
/// every edge shape.
#[test]
fn t_matmul_and_matmul_t_match_oracles_on_every_edge_shape() {
    for (m, k, n, seed) in edge_triples() {
        check_t_matmul(m, k, n, seed);
        let a = matrix(m, k, seed);
        let bt = matrix(n, k, seed ^ 0x7777);
        let mmt = a.matmul_t(&bt).expect("shapes agree");
        assert_bits_eq(
            mmt.as_slice(),
            &matmul_t_oracle(&a, &bt),
            &format!("matmul_t ({m}x{k})·({n}x{k})ᵀ"),
        );
    }
}

/// The training step's own products on the paper's `[5, 32, 15]` network
/// at batch 128: both forward layers, and the hidden layer's weight
/// gradient.
#[test]
fn the_training_steps_shapes_match_the_oracle() {
    check_matmul(128, 5, 32, 1);
    check_matmul(128, 32, 15, 2);
    check_t_matmul(5, 128, 32, 3);
    // Single-row inference through both layers.
    check_matmul(1, 5, 32, 4);
    check_matmul(1, 32, 15, 5);
}

/// Row counts on both sides of one and two row blocks, so full blocks,
/// leftover single rows, and blocks followed by leftovers all run, at
/// widths below, at, and across one and two column tiles.
#[test]
fn row_counts_around_the_row_block_match_the_oracle() {
    for m in 0..=2 * ROWS + 1 {
        for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1, 2 * LANES + 3] {
            for k in [1, 3, 32] {
                let seed = (m * 1_000 + n * 10 + k) as u64;
                check_matmul(m, k, n, seed);
                check_t_matmul(m, k, n, seed);
            }
        }
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

/// Poisons `B` and checks that the poison reaches exactly the outputs
/// whose sums include it. Row 0 of `A` is all zeros, where IEEE-754
/// demands 0 · NaN = NaN and 0 · ∞ = NaN; the other rows are positive, so
/// their poisoned outputs are NaN or ±∞. `(t, j, v)` puts `v` at
/// `B[t][j]`.
fn check_poison(m: usize, k: usize, n: usize, poison: &[(usize, usize, f32)]) {
    let mut a = Matrix::zeros(m, k);
    for i in 1..m {
        for t in 0..k {
            a.set(i, t, 0.5 + (i + t) as f32);
        }
    }
    let mut b = matrix(k, n, 99);
    for &(t, j, v) in poison {
        b.set(t, j, v);
    }
    let mm = a.matmul(&b).expect("shapes agree");
    let tmm = transpose(&a).t_matmul(&b).expect("shapes agree");
    let oracle = matmul_oracle(&a, &b);
    for (c, what) in [(&mm, "matmul"), (&tmm, "t_matmul")] {
        let what = format!("{what} ({m}x{k})·({k}x{n}) poisoned at {poison:?}");
        assert_bits_eq(c.as_slice(), &oracle, &what);
        for j in 0..n {
            let poisoned = poison.iter().any(|&(_, pj, _)| pj == j);
            assert_eq!(c.get(0, j).is_nan(), poisoned, "{what}: (0, {j})");
            for i in 1..m {
                assert_eq!(c.get(i, j).is_finite(), !poisoned, "{what}: ({i}, {j})");
            }
        }
    }
}

#[test]
fn nan_and_infinity_propagate() {
    // One row block plus a leftover row, so both tile heights see it.
    let m = ROWS + 1;
    // The ragged last tile of a 15-wide output (one LANES-wide tile) and
    // of a 2·LANES + 3-wide output (three tiles, the last 3 wide): the
    // poison sits in its last column, in a middle row (read straight from
    // `B`) and in `B`'s last row (read from the padded tail).
    for (k, n) in [(9, 15), (32, 15), (9, 2 * LANES + 3), (1, 15), (2, 7)] {
        let last = n - 1;
        check_poison(m, k, n, &[(k / 2, last, f32::NAN)]);
        check_poison(m, k, n, &[(k - 1, last, f32::NAN)]);
        check_poison(m, k, n, &[(k - 1, last, f32::INFINITY)]);
        check_poison(m, k, n, &[(k / 2, last - 1, f32::INFINITY)]);
        // Column 0 of `B`'s last row: the read-on lanes of the row above
        // see it, and must drop it.
        check_poison(m, k, n, &[(k - 1, 0, f32::NAN)]);
        check_poison(m, k, n, &[(k - 1, 0, f32::NEG_INFINITY)]);
    }

    // matmul_t: row 0 of `a` is all zeros, and B's element (0, 0) is NaN.
    let mut a = Matrix::zeros(2, 9);
    for t in 0..9 {
        a.set(1, t, 0.5 + t as f32);
    }
    let mut bt = matrix(4, 9, 5);
    bt.set(0, 0, f32::NAN);
    let mmt = a.matmul_t(&bt).expect("shapes agree");
    assert!(mmt.get(0, 0).is_nan(), "matmul_t: 0 · NaN must stay NaN");
    assert!(
        mmt.get(0, 1).is_finite(),
        "matmul_t: clean columns stay finite"
    );
}

#[test]
fn one_by_one_products_reduce_to_scalar_multiplication() {
    let a = Matrix::from_rows(1, 1, vec![3.5]).unwrap();
    let b = Matrix::from_rows(1, 1, vec![-2.0]).unwrap();
    assert_eq!(a.matmul(&b).unwrap().get(0, 0), -7.0);
    assert_eq!(a.t_matmul(&b).unwrap().get(0, 0), -7.0);
    assert_eq!(a.matmul_t(&b).unwrap().get(0, 0), -7.0);
}
