//! The serial CSR reference: the single-threaded HPC baseline the parallel
//! kernels are compared against, and the oracle every timed output is
//! checked with.
//!
//! It is built here from the COO triplets, independently of the library's
//! own formats, so a defect in the library cannot also hide in its check.

use symspmv_sparse::CooMatrix;
use symspmv_sparse::VectorBlock;

/// Elementwise tolerance of an output check, relative to `(|A|·|x|)_i`.
/// Reordered summation of one row moves a result by at most about
/// `nnz_row · 2⁻⁵³` of that scale, far below this.
pub const REL_TOL: f64 = 1e-10;

/// Bound on the true relative residual `‖b − A·x‖ / ‖b‖` of a CG solution
/// run to `rel_tol = 1e-8`: the recurrence residual may drift from the true
/// one, but not by two orders of magnitude.
pub const TRUE_RESIDUAL_BOUND: f64 = 1e-6;

/// Full (both triangles) CSR matrix for the serial reference product.
pub struct SerialCsr {
    rowptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SerialCsr {
    pub fn from_coo(coo: &CooMatrix) -> SerialCsr {
        let n = coo.nrows() as usize;
        let mut rowptr = vec![0usize; n + 1];
        for &r in coo.row_indices() {
            rowptr[r as usize + 1] += 1;
        }
        for i in 0..n {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = rowptr.clone();
        let mut cols = vec![0u32; coo.nnz()];
        let mut vals = vec![0.0; coo.nnz()];
        for (r, c, v) in coo.iter() {
            let slot = &mut next[r as usize];
            cols[*slot] = c;
            vals[*slot] = v;
            *slot += 1;
        }
        SerialCsr { rowptr, cols, vals }
    }

    pub fn n(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// `y = A·x`, one thread, row order.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.rowptr[i]..self.rowptr[i + 1];
            *yi = self.cols[row.clone()]
                .iter()
                .zip(&self.vals[row])
                .map(|(&c, &v)| v * x[c as usize])
                .sum();
        }
    }

    /// `y = |A|·|x|`, the scale each output element is checked against.
    fn abs_spmv(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.rowptr[i]..self.rowptr[i + 1];
            *yi = self.cols[row.clone()]
                .iter()
                .zip(&self.vals[row])
                .map(|(&c, &v)| (v * x[c as usize]).abs())
                .sum();
        }
    }

    /// `‖b − A·x‖ / ‖b‖`.
    pub fn rel_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.n()];
        self.spmv(x, &mut ax);
        let r2: f64 = ax.iter().zip(b).map(|(a, bb)| (bb - a) * (bb - a)).sum();
        let b2: f64 = b.iter().map(|v| v * v).sum();
        (r2 / b2).sqrt()
    }
}

/// The reference result for one input vector and its per-element tolerance.
pub struct Expected {
    y: Vec<f64>,
    tol: Vec<f64>,
}

impl Expected {
    pub fn new(a: &SerialCsr, x: &[f64]) -> Expected {
        let mut y = vec![0.0; a.n()];
        let mut tol = vec![0.0; a.n()];
        a.spmv(x, &mut y);
        a.abs_spmv(x, &mut tol);
        for t in &mut tol {
            *t = REL_TOL * *t + f64::MIN_POSITIVE;
        }
        Expected { y, tol }
    }

    /// Expected results for every lane of `x`.
    pub fn lanes(a: &SerialCsr, x: &VectorBlock) -> Vec<Expected> {
        (0..x.lanes())
            .map(|j| Expected::new(a, &x.lane(j)))
            .collect()
    }

    /// Whether `y` matches the reference within tolerance (NaN never does).
    pub fn matches(&self, y: &[f64]) -> bool {
        y.len() == self.y.len() && (0..y.len()).all(|i| self.close(i, y[i]))
    }

    /// Whether every lane of a lane-interleaved block matches its reference:
    /// element (i, j) at `data[i * lanes + j]`, as in `VectorBlock`.
    pub fn block_matches(expected: &[Expected], data: &[f64]) -> bool {
        let lanes = expected.len();
        lanes > 0
            && data.len() == lanes * expected[0].y.len()
            && data
                .chunks_exact(lanes)
                .enumerate()
                .all(|(i, row)| row.iter().zip(expected).all(|(&v, e)| e.close(i, v)))
    }

    fn close(&self, i: usize, v: f64) -> bool {
        (v - self.y[i]).abs() <= self.tol[i]
    }
}
