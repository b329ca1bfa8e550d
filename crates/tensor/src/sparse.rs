//! Sparse matrices in CSR form.
//!
//! [`BinCsr`] holds the flow-incidence matrix `I ∈ {0,1}^{|E| × |F|}` of
//! Eq. 7: one per GNN layer, with `I[e, f] = 1` iff layer edge `e` carries
//! message flow `f` at that layer. [`CsrMatrix`] is its valued sibling and
//! holds node features: bag-of-words rows such as Cora-sim's are ~1.3%
//! non-zero.

/// An immutable sparse binary matrix stored as CSR (row pointer + column
/// indices). Entries are implicitly `1.0`.
#[derive(Debug, Clone)]
pub struct BinCsr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl BinCsr {
    /// Builds a matrix from per-row column lists.
    ///
    /// # Panics
    ///
    /// Panics if `row_cols.len() != rows` or any column index is `>= cols`.
    pub fn from_rows(rows: usize, cols: usize, row_cols: &[Vec<u32>]) -> Self {
        assert_eq!(
            row_cols.len(),
            rows,
            "BinCsr::from_rows: row count mismatch"
        );
        let nnz: usize = row_cols.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for r in row_cols {
            for &c in r {
                assert!(
                    (c as usize) < cols,
                    "BinCsr::from_rows: column {c} out of bounds for {cols} cols"
                );
                col_idx.push(c);
            }
            row_ptr.push(col_idx.len());
        }
        BinCsr {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Builds a matrix from `(row, col)` pairs; pairs must be grouped but
    /// need not be sorted within a row.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_pairs(rows: usize, cols: usize, pairs: &[(u32, u32)]) -> Self {
        let mut counts = vec![0usize; rows];
        for &(r, c) in pairs {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "index out of bounds"
            );
            counts[r as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut running = 0usize;
        row_ptr.push(running);
        for &c in &counts {
            running += c;
            row_ptr.push(running);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; pairs.len()];
        for &(r, c) in pairs {
            col_idx[cursor[r as usize]] = c;
            cursor[r as usize] += 1;
        }
        BinCsr {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Iterates over `(row, col)` pairs of stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).iter().map(move |&c| (r, c)))
    }

    /// The matrix of rows `rows[0], rows[1], …` of this one, in that order,
    /// over the same columns.
    ///
    /// # Panics
    ///
    /// Panics if a row index is `>= rows`.
    pub fn select_rows(&self, rows: &[usize]) -> BinCsr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for &r in rows {
            col_idx.extend_from_slice(self.row(r));
            row_ptr.push(col_idx.len());
        }
        BinCsr {
            rows: rows.len(),
            cols: self.cols,
            row_ptr,
            col_idx,
        }
    }
}

/// Why a set of CSR arrays does not form a valid [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The offsets are not `rows + 1` long or do not start at 0.
    OffsetsShape,
    /// An offset is smaller than the one before it.
    OffsetsDecrease,
    /// The last offset differs from the number of stored entries.
    OffsetsEnd,
    /// The column and value arrays differ in length.
    LengthMismatch,
    /// A column index is `>= cols`.
    ColumnOutOfRange,
    /// A row's column indices are not strictly ascending.
    ColumnsNotAscending,
    /// A stored value is `0.0` (or `-0.0`): the form never stores a zero.
    ExplicitZero,
}

impl CsrError {
    /// A static description, for typed decode errors.
    pub fn as_str(self) -> &'static str {
        match self {
            CsrError::OffsetsShape => "CSR offsets must be rows + 1 long and start at 0",
            CsrError::OffsetsDecrease => "CSR offsets decrease",
            CsrError::OffsetsEnd => "CSR offsets do not end at the entry count",
            CsrError::LengthMismatch => "CSR column and value counts differ",
            CsrError::ColumnOutOfRange => "CSR column index out of range",
            CsrError::ColumnsNotAscending => "CSR columns not strictly ascending",
            CsrError::ExplicitZero => "CSR stores an explicit zero",
        }
    }
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for CsrError {}

/// An immutable sparse `f32` matrix in CSR form: row offsets, each row's
/// column indices in strictly ascending order, and their values.
///
/// Only non-zero entries are stored (`value != 0.0`, so `-0.0` is not
/// stored either). That makes [`crate::kernels::matmul_csr`] visit exactly
/// the terms [`crate::kernels::matmul_nn_naive`] does not skip, in the same
/// order, and so gives bit-identical products.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// A matrix of `cols` columns and no rows yet.
    fn empty(cols: usize) -> Self {
        CsrMatrix {
            rows: 0,
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Keeps the non-zero entries of a row-major dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_dense(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CsrMatrix::from_dense: length mismatch"
        );
        let mut m = CsrMatrix::empty(cols);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    m.col_idx.push(c as u32);
                    m.values.push(v);
                }
            }
            m.row_ptr.push(m.col_idx.len());
        }
        m.rows = rows;
        m
    }

    /// Validates CSR arrays and assembles them into a matrix.
    ///
    /// # Errors
    ///
    /// A [`CsrError`] naming the first broken invariant.
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, CsrError> {
        if row_ptr.len() != rows + 1 || row_ptr[0] != 0 {
            return Err(CsrError::OffsetsShape);
        }
        if col_idx.len() != values.len() {
            return Err(CsrError::LengthMismatch);
        }
        if row_ptr.windows(2).any(|w| w[1] < w[0]) {
            return Err(CsrError::OffsetsDecrease);
        }
        if row_ptr[rows] != col_idx.len() {
            return Err(CsrError::OffsetsEnd);
        }
        for w in row_ptr.windows(2) {
            let row = &col_idx[w[0]..w[1]];
            if row.last().is_some_and(|&c| c as usize >= cols) {
                return Err(CsrError::ColumnOutOfRange);
            }
            if row.windows(2).any(|p| p[1] <= p[0]) {
                return Err(CsrError::ColumnsNotAscending);
            }
        }
        if values.contains(&0.0) {
            return Err(CsrError::ExplicitZero);
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Stacks matrices of one width on top of each other.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn vstack(parts: &[&CsrMatrix]) -> CsrMatrix {
        let cols = parts.first().map_or(0, |p| p.cols);
        let nnz = parts.iter().map(|p| p.nnz()).sum();
        let mut out = CsrMatrix::empty(cols);
        out.row_ptr.reserve(parts.iter().map(|p| p.rows).sum());
        out.col_idx.reserve(nnz);
        out.values.reserve(nnz);
        for p in parts {
            assert_eq!(p.cols, cols, "CsrMatrix::vstack: widths differ");
            let base = out.col_idx.len();
            out.row_ptr.extend(p.row_ptr[1..].iter().map(|&o| base + o));
            out.col_idx.extend_from_slice(&p.col_idx);
            out.values.extend_from_slice(&p.values);
            out.rows += p.rows;
        }
        out
    }

    /// The rows `rows[0], rows[1], …` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut out = CsrMatrix::empty(self.cols);
        for &r in rows {
            let (c, v) = self.row(r);
            out.col_idx.extend_from_slice(c);
            out.values.extend_from_slice(v);
            out.row_ptr.push(out.col_idx.len());
            out.rows += 1;
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row offsets: row `r` holds entries `row_ptr[r]..row_ptr[r + 1]`.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of every stored entry, row by row.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value of every stored entry, row by row.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row `r`'s ascending column indices and their values.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Row `r` materialised densely.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn dense_row(&self, r: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        let (c, v) = self.row(r);
        for (&c, &v) in c.iter().zip(v) {
            out[c as usize] = v;
        }
        out
    }

    /// The whole matrix materialised as row-major dense data.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.rows * self.cols];
        for r in 0..self.rows {
            let (c, v) = self.row(r);
            let base = r * self.cols;
            for (&c, &v) in c.iter().zip(v) {
                out[base + c as usize] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rows_keeps_the_chosen_rows_in_order() {
        let m = BinCsr::from_rows(3, 4, &[vec![0, 3], vec![], vec![2]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (2, 4, 3));
        assert_eq!(s.row(0), &[2]);
        assert_eq!(s.row(1), &[0, 3]);
    }

    #[test]
    fn from_rows_basic() {
        let m = BinCsr::from_rows(3, 4, &[vec![0, 3], vec![], vec![2]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), &[0, 3]);
        assert_eq!(m.row(1), &[] as &[u32]);
        assert_eq!(m.row(2), &[2]);
    }

    #[test]
    fn from_pairs_matches_from_rows() {
        let a = BinCsr::from_pairs(2, 3, &[(0, 1), (1, 0), (0, 2)]);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(1), &[0]);
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_rows_rejects_bad_col() {
        let _ = BinCsr::from_rows(1, 2, &[vec![2]]);
    }

    #[test]
    fn csr_round_trips_dense_and_drops_zeros() {
        let dense = [0.0, 1.5, 0.0, -0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0];
        let m = CsrMatrix::from_dense(&dense, 3, 4);
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 4, 3));
        assert_eq!(m.row(0), (&[1u32][..], &[1.5f32][..]));
        assert_eq!(m.row(1), (&[0u32][..], &[-2.0f32][..]));
        assert_eq!(m.row(2), (&[3u32][..], &[3.0f32][..]));
        // `-0.0` is not stored, so it reads back as `+0.0`.
        let mut expect = dense;
        expect[3] = 0.0;
        assert_eq!(m.to_dense(), expect);
        assert_eq!(m.dense_row(1), vec![-2.0, 0.0, 0.0, 0.0]);
        assert_eq!(CsrMatrix::from_dense(&[], 5, 0).rows(), 5);
    }

    #[test]
    fn vstack_and_select_rows_keep_rows() {
        let a = CsrMatrix::from_dense(&[1.0, 0.0, 0.0, 2.0], 2, 2);
        let b = CsrMatrix::from_dense(&[0.0, 3.0], 1, 2);
        let ab = CsrMatrix::vstack(&[&a, &b]);
        assert_eq!(ab.to_dense(), vec![1.0, 0.0, 0.0, 2.0, 0.0, 3.0]);
        assert_eq!(ab.row_ptr(), &[0, 1, 2, 3]);
        let picked = ab.select_rows(&[2, 0]);
        assert_eq!(picked.to_dense(), vec![0.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn try_from_parts_names_each_broken_invariant() {
        let parts = |ptr: Vec<usize>, cols: Vec<u32>, vals: Vec<f32>| {
            CsrMatrix::try_from_parts(2, 4, ptr, cols, vals).err()
        };
        assert_eq!(parts(vec![0, 1, 2], vec![0, 3], vec![1.0, 2.0]), None);
        assert_eq!(
            parts(vec![0, 2], vec![0, 3], vec![1.0, 2.0]),
            Some(CsrError::OffsetsShape)
        );
        assert_eq!(
            parts(vec![1, 1, 2], vec![0, 3], vec![1.0, 2.0]),
            Some(CsrError::OffsetsShape)
        );
        assert_eq!(
            parts(vec![0, 2, 1], vec![0, 3], vec![1.0, 2.0]),
            Some(CsrError::OffsetsDecrease)
        );
        assert_eq!(
            parts(vec![0, 1, 1], vec![0, 3], vec![1.0, 2.0]),
            Some(CsrError::OffsetsEnd)
        );
        assert_eq!(
            parts(vec![0, 1, 2], vec![0, 3], vec![1.0]),
            Some(CsrError::LengthMismatch)
        );
        assert_eq!(
            parts(vec![0, 1, 2], vec![0, 4], vec![1.0, 2.0]),
            Some(CsrError::ColumnOutOfRange)
        );
        assert_eq!(
            parts(vec![0, 2, 2], vec![3, 3], vec![1.0, 2.0]),
            Some(CsrError::ColumnsNotAscending)
        );
        assert_eq!(
            parts(vec![0, 1, 2], vec![0, 3], vec![1.0, -0.0]),
            Some(CsrError::ExplicitZero)
        );
    }
}
