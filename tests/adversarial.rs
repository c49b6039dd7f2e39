//! Pathological-structure battery: every kernel must handle the shapes
//! that break naive partitioning, conflict analysis, or detection logic.

use symspmv::runtime::ExecutionContext;
use symspmv::sparse::dense::{assert_vec_close, seeded_vector};
use symspmv::sparse::{CooMatrix, Idx};
use symspmv_harness::kernels::{build_kernel, KernelSpec};

fn specs() -> Vec<KernelSpec> {
    [
        "csr",
        "csx",
        "bcsr",
        "csb",
        "csb-sym",
        "sss-naive",
        "sss-eff",
        "sss-idx",
        "sss-atomic",
        "sss-race",
        "csxsym-idx",
    ]
    .iter()
    .map(|s| KernelSpec::parse(s).unwrap())
    .collect()
}

fn check_all(name: &str, coo: &CooMatrix) {
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 0xAD);
    let mut y_ref = vec![0.0; n];
    let mut canon = coo.clone();
    canon.canonicalize();
    canon.spmv_reference(&x, &mut y_ref);
    for p in [1usize, 3, 7] {
        let ctx = ExecutionContext::new(p);
        for spec in specs() {
            let mut k = build_kernel(spec, coo, &ctx)
                .unwrap_or_else(|e| panic!("{name}/{}/{p}: build failed: {e}", spec.name()));
            let mut y = vec![f64::NAN; n];
            k.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-11);
        }
    }
}

fn diag(n: Idx) -> CooMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, (i % 7) as f64 + 1.0);
    }
    coo
}

#[test]
fn diagonal_only() {
    check_all("diagonal_only", &diag(97));
}

#[test]
fn dense_first_column() {
    // Every row conflicts on column 0 — the worst case for the indexing
    // split restriction, coloring, and atomic contention.
    let mut coo = diag(80);
    for r in 1..80u32 {
        coo.push(r, 0, -0.25);
        coo.push(0, r, -0.25);
    }
    check_all("dense_first_column", &coo);
}

#[test]
fn dense_last_row() {
    // Every column conflicts into the final partition.
    let mut coo = diag(80);
    for c in 0..79u32 {
        coo.push(79, c, 0.5);
        coo.push(c, 79, 0.5);
    }
    check_all("dense_last_row", &coo);
}

#[test]
fn arrow_matrix() {
    // Dense first row+column and diagonal — the classic arrow.
    let mut coo = diag(64);
    for k in 1..64u32 {
        coo.push(k, 0, -1.0 / k as f64);
        coo.push(0, k, -1.0 / k as f64);
    }
    check_all("arrow", &coo);
}

#[test]
fn single_dense_block() {
    // One fully dense 24x24 block in a large empty matrix: exercises block
    // detection, CSB block addressing and ragged remainders.
    let mut coo = CooMatrix::new(301, 301);
    for i in 0..301u32 {
        coo.push(i, i, 3.0);
    }
    for r in 100..124u32 {
        for c in 100..124u32 {
            if r != c {
                coo.push(r, c, 0.01 * (r + c) as f64);
                let _ = c;
            }
        }
    }
    // Symmetrize the block (it is already symmetric in values by formula).
    check_all("single_dense_block", &coo);
}

#[test]
fn empty_leading_and_trailing_rows() {
    // Long empty stretches exercise the RJMP path and empty partitions.
    let mut coo = CooMatrix::new(500, 500);
    for (r, c, v) in [
        (200u32, 200u32, 5.0),
        (201, 200, -1.0),
        (200, 201, -1.0),
        (201, 201, 5.0),
    ] {
        coo.push(r, c, v);
    }
    check_all("empty_stretches", &coo);
}

#[test]
fn long_single_row_runs() {
    // One row with a 255+-element horizontal run (unit-size chunking) plus
    // its symmetric counterpart column.
    let n = 600u32;
    let mut coo = diag(n);
    for c in 0..300u32 {
        coo.push(599, c, 0.001 * c as f64 + 0.1);
        coo.push(c, 599, 0.001 * c as f64 + 0.1);
    }
    check_all("long_runs", &coo);
}

#[test]
fn checkerboard() {
    // Anti-diagonal-friendly structure with no horizontal runs.
    let n = 96u32;
    let mut coo = diag(n);
    for r in 0..n {
        let c = n - 1 - r;
        if c < r {
            coo.push(r, c, -0.5);
            coo.push(c, r, -0.5);
        }
    }
    check_all("checkerboard", &coo);
}
