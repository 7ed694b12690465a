use crate::{kernels, NnError};

/// A dense row-major `f32` matrix.
///
/// The networks in this workspace are tiny (the paper's policy net has 687
/// parameters), so this type favours clarity and checked construction over
/// raw throughput. The matrix products run on the register-tiled
/// [`kernels`](crate::kernels) module (fixed-size tiles the
/// autovectorizer keeps in vector registers).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), fedpower_nn::NnError> {
/// use fedpower_nn::Matrix;
/// let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// assert_eq!(m.get(1, 2), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                expected: rows * cols,
                actual: data.len(),
                context: "Matrix::from_rows data".into(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the row-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes to `rows × cols` with all elements zeroed, reusing the
    /// existing allocation whenever capacity allows. This is the reset
    /// entry point for scratch matrices on the zero-allocation hot path.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Reshapes to `rows × cols` for a kernel that fully overwrites the
    /// storage: skips the zero-fill entirely when the element count is
    /// unchanged (the steady-state scratch-reuse case on the hot path).
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        let len = rows * cols;
        if self.data.len() != len {
            self.data.clear();
            self.data.resize(len, 0.0);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Makes `self` a copy of `other`, reusing the existing allocation
    /// whenever capacity allows.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        self.rows = other.rows;
        self.cols = other.cols;
    }

    /// `self · other` — standard matrix product (m×k · k×n → m×n).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] writing into caller-owned scratch; `out` is
    /// reshaped (reusing its allocation) and fully overwritten.
    ///
    /// The kernel intentionally has no `a == 0.0` skip: the branch blocked
    /// autovectorization and silently turned `0 · NaN` into `0` instead of
    /// propagating the NaN. Every output element accumulates in k-order
    /// from 0.0 ([`kernels::matmul`]), bit-identical to the naive loop.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        self.matmul_bias_into(other, None, out)
    }

    /// [`Matrix::matmul_into`] with an optional bias row added to every
    /// output row in the kernel's store: `out[i][j] = Σ_t self[i][t] ·
    /// other[t][j] + bias[j]`, bit-identical to the product followed by
    /// [`Matrix::add_row_bias`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the inner dimensions disagree
    /// or the bias length is not `other.cols()`.
    pub(crate) fn matmul_bias_into(
        &self,
        other: &Matrix,
        bias: Option<&[f32]>,
        out: &mut Matrix,
    ) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                expected: self.cols,
                actual: other.rows,
                context: "matmul inner dimension".into(),
            });
        }
        if let Some(bias) = bias.filter(|bias| bias.len() != other.cols) {
            return Err(NnError::ShapeMismatch {
                expected: other.cols,
                actual: bias.len(),
                context: "matmul bias length".into(),
            });
        }
        out.reshape_for_overwrite(self.rows, other.cols);
        kernels::matmul_bias(
            &self.data,
            &other.data,
            bias,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
        Ok(())
    }

    /// `selfᵀ · other` without materializing the transpose (k×m · k×n → m×n).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the row counts disagree.
    pub fn t_matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.t_matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::t_matmul`] writing into caller-owned scratch; `out` is
    /// reshaped (reusing its allocation) and fully overwritten. Like
    /// [`Matrix::matmul_into`] there is deliberately no zero-skip branch,
    /// and the same k-order accumulation ([`kernels::t_matmul`]) makes it
    /// bit-identical to [`Matrix::matmul_into`] on an explicit transpose.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the row counts disagree.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                expected: self.rows,
                actual: other.rows,
                context: "t_matmul shared row dimension".into(),
            });
        }
        out.reshape_for_overwrite(self.cols, other.cols);
        kernels::t_matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            self.rows,
            other.cols,
        );
        Ok(())
    }

    /// `self · otherᵀ` without materializing the transpose (m×k · n×k → m×n).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the column counts disagree.
    pub fn matmul_t(&self, other: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.matmul_t_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_t`] writing into caller-owned scratch; `out` is
    /// reshaped (reusing its allocation) and fully overwritten.
    ///
    /// Each output element is a serial dot reduction folded left to right
    /// ([`kernels::matmul_t`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the column counts disagree.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                expected: self.cols,
                actual: other.cols,
                context: "matmul_t shared column dimension".into(),
            });
        }
        out.reshape_for_overwrite(self.rows, other.rows);
        kernels::matmul_t(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
        Ok(())
    }

    /// Adds `bias` (length = `cols`) to every row in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) -> Result<(), NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                expected: self.cols,
                actual: bias.len(),
                context: "add_row_bias bias length".into(),
            });
        }
        for r in 0..self.rows {
            for (v, &b) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(bias)
            {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums the rows into a single vector of length `cols`.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }

    /// [`Matrix::column_sums`] writing into caller-owned scratch; `out` is
    /// cleared and refilled, reusing its allocation whenever capacity
    /// allows.
    pub fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, d: &[f32]) -> Matrix {
        Matrix::from_rows(rows, cols, d.to_vec()).unwrap()
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 2, &[0.0; 4]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn t_matmul_equals_explicit_transpose_product() {
        let a = m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]); // Aᵀ is 2×3 [1 2 3; 4 5 6]
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.t_matmul(&b).unwrap();
        // Aᵀ·B = [1 2 3; 4 5 6] · [[7,8],[9,10],[11,12]] = [[58,64],[139,154]]
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_t_equals_product_with_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 3, &[7.0, 9.0, 11.0, 8.0, 10.0, 12.0]); // Bᵀ is 3×2
        let c = a.matmul_t(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn add_row_bias_applies_to_every_row() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.add_row_bias(&[10.0, 20.0]).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn column_sums_sums_over_rows() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.column_sums(), vec![9.0, 12.0]);
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(Matrix::from_rows(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn matmul_propagates_nan_through_zero_coefficients() {
        // Regression: the old `a == 0.0 { continue }` skip silently turned
        // 0 · NaN into 0; IEEE-754 requires the NaN to propagate.
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 1, &[f32::NAN, 1.0]);
        let c = a.matmul(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "0 · NaN must stay NaN");

        let a = m(2, 1, &[0.0, 1.0]); // aᵀ = [0, 1]
        let b = m(2, 1, &[f32::NAN, 1.0]);
        let c = a.t_matmul(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "t_matmul: 0 · NaN must stay NaN");

        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(1, 2, &[f32::INFINITY, 1.0]);
        let c = a.matmul_t(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "0 · ∞ must be NaN");
    }

    #[test]
    fn into_variants_match_allocating_ops_and_reuse_scratch() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // Deliberately mis-shaped, pre-filled scratch: reset must erase it.
        let mut out = Matrix::zeros(5, 7);
        out.set(0, 0, 99.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());

        let at = m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        at.t_matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, at.t_matmul(&b).unwrap());

        let bt = m(2, 3, &[7.0, 9.0, 11.0, 8.0, 10.0, 12.0]);
        a.matmul_t_into(&bt, &mut out).unwrap();
        assert_eq!(out, a.matmul_t(&bt).unwrap());

        let mut sums = vec![99.0; 9];
        a.column_sums_into(&mut sums);
        assert_eq!(sums, a.column_sums());
    }

    #[test]
    fn reset_and_copy_from_reuse_capacity() {
        let mut s = Matrix::zeros(4, 4);
        let cap_ptr = s.as_slice().as_ptr();
        s.reset(2, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert!(s.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(s.as_slice().as_ptr(), cap_ptr, "no reallocation");
        let src = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        s.copy_from(&src);
        assert_eq!(s, src);
        assert_eq!(s.as_slice().as_ptr(), cap_ptr, "no reallocation");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a.get(1, 0);
    }
}
