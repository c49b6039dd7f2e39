//! Adversarial cross-validation of the static verifier against the
//! shadow-memory race detector (`--features race-detector`).
//!
//! For each corrupted plan the static layer must *reject the plan before
//! dispatch* and the dynamic layer must *observe the race when the plan is
//! executed anyway* — two independent oracles agreeing on the same defect.
//! A correct plan must satisfy both: certified statically, zero reports
//! dynamically.
#![cfg(feature = "race-detector")]

use std::sync::Arc;
use symspmv_core::plan::CachedSymPlan;
use symspmv_core::{symbolic, ReductionMethod};
use symspmv_runtime::race::{detector_guard, disable, enable, take_reports};
use symspmv_runtime::reduction::{IndexingReduction, ReductionStrategy};
use symspmv_runtime::shared::SharedBuf;
use symspmv_runtime::{
    balanced_ranges, partition::symmetric_row_weights, ExecutionContext, Range, WorkerPool,
};
use symspmv_sparse::SssMatrix;
use symspmv_verify::{certify_race, certify_sym, SymPlanRef, SymStrategyKind, VerifyError};

fn matrix(n: u32) -> SssMatrix {
    let coo = symspmv_sparse::gen::banded_random(n, 12, 6.0, 17);
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

fn certify_parts(sss: &SssMatrix, parts: &[Range]) -> Result<(), VerifyError> {
    let p = parts.len();
    let index = symbolic::analyze(sss, parts);
    let strategy: Arc<dyn ReductionStrategy> = Arc::new(IndexingReduction);
    let layout = strategy.layout(sss.n() as usize, parts);
    let row_chunks = balanced_ranges(&vec![1u64; sss.n() as usize], p);
    certify_sym(
        sss,
        &SymPlanRef {
            parts,
            offsets: &layout.offsets,
            local_len: layout.flat_len,
            strategy: SymStrategyKind::Indexing,
            entries: &index.entries,
            splits: &index.splits,
            row_chunks: &row_chunks,
        },
    )
    .map(|_| ())
}

/// Executes the direct-write phase of a (possibly corrupted) partition:
/// each worker claims its partition's y rows through `range_mut`, exactly
/// as the real kernels do. Returns the detector's reports.
fn run_direct_phase(parts: &[Range], n: usize) -> Vec<symspmv_runtime::race::RaceReport> {
    let mut pool = WorkerPool::new(parts.len());
    let mut y = vec![0.0f64; n];
    let buf = SharedBuf::new(&mut y);
    enable();
    pool.run(&|tid| {
        let part = parts[tid];
        // SAFETY(cert: test-only): deliberately executing an uncertified
        // partition so the shadow layer can observe the overlap; the
        // shadow-map mutex serializes the underlying stores.
        let rows = unsafe { buf.range_mut(part.start as usize, part.end as usize) };
        rows.fill(tid as f64 + 1.0);
    });
    disable();
    take_reports()
}

/// Control: the uncorrupted plan is certified statically and its execution
/// is observed clean dynamically.
#[test]
fn good_plan_passes_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    certify_parts(&sss, &parts).expect("correct plan must certify");
    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(reports.is_empty(), "clean plan raced: {reports:?}");
}

/// Dynamic mutation 1 — shifted boundary: thread 0's partition runs one
/// row past the split, so the boundary row has two direct writers.
#[test]
fn shifted_boundary_caught_by_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let mut parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    parts[0].end += 1;

    let err = certify_parts(&sss, &parts).unwrap_err();
    assert!(
        matches!(err, VerifyError::OverlappingDirectWrites { .. }),
        "static layer: {err:?}"
    );

    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(!reports.is_empty(), "dynamic layer missed the overlap");
    let contested = parts[1].start as usize;
    assert!(
        reports.iter().any(|r| {
            (r.first_tid == 0 && r.second_tid == 1) || (r.first_tid == 1 && r.second_tid == 0)
        }),
        "race must involve the two boundary threads (row {contested}): {reports:?}"
    );
}

/// Dynamic mutation 2 — stolen row: thread 2 reaches back into thread 1's
/// partition, duplicating a row far from its own range.
#[test]
fn stolen_row_caught_by_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let mut parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    parts[2].start -= 3;

    let err = certify_parts(&sss, &parts).unwrap_err();
    assert!(
        matches!(err, VerifyError::OverlappingDirectWrites { .. }),
        "static layer: {err:?}"
    );

    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(!reports.is_empty(), "dynamic layer missed the stolen rows");
}

/// Dynamic mutation 3 — wrong color: a row of the RACE level coloring is
/// moved into the group of a row it shares a write target with, then the
/// two rows run on different workers in the same round (the race kernel's
/// dispatch shape).
#[test]
fn wrong_color_caught_by_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let p = 2;
    let plan = CachedSymPlan::obtain(
        &sss,
        &ExecutionContext::new(p),
        ReductionMethod::Race.strategy(),
    );
    let schedule = plan.schedule.as_ref().expect("race plans carry a schedule");
    certify_race(&sss, &schedule.groups, &schedule.group_parts, p)
        .expect("level coloring must certify");

    // Corrupt: move a row into the group of a row it is coupled to, and
    // re-split the two touched groups so the rounds still tile them.
    let (victim, neighbor) = (0..sss.n())
        .find_map(|r| sss.row(r).0.first().map(|&c| (r, c)))
        .expect("banded matrix has off-diagonal entries");
    let from = schedule.group_of[victim as usize] as usize;
    let home = schedule.group_of[neighbor as usize] as usize;
    let mut groups = schedule.groups.clone();
    let mut group_parts = schedule.group_parts.clone();
    groups[from].retain(|&r| r != victim);
    groups[home].push(victim);
    groups[home].sort_unstable();
    for g in [from, home] {
        group_parts[g] = balanced_ranges(&vec![1u64; groups[g].len()], p);
    }

    let err = certify_race(&sss, &groups, &group_parts, p).unwrap_err();
    assert!(
        matches!(err, VerifyError::ColoringConflict { .. }),
        "static layer: {err:?}"
    );

    // Execute the bad group the way the race kernel would: two workers,
    // each owning one of the conflicting rows, writing y[row] and y[col]
    // in the same barrier-delimited round.
    let n = sss.n() as usize;
    let mut pool = WorkerPool::new(2);
    let mut y = vec![0.0f64; n];
    let buf = SharedBuf::new(&mut y);
    let rows = [victim, neighbor];
    enable();
    pool.run(&|tid| {
        let r = rows[tid];
        let (cols, vals) = sss.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v;
            // SAFETY(cert: test-only): deliberately executing an invalid
            // grouping so the shadow layer can observe the collision; the
            // shadow-map mutex serializes the underlying stores.
            unsafe { buf.add(c as usize, v) };
        }
        // SAFETY(cert: test-only): as above — intentionally racy.
        unsafe { buf.add(r as usize, acc) };
    });
    disable();
    let reports = take_reports();
    assert!(
        !reports.is_empty(),
        "dynamic layer missed the shared target y[{neighbor}]"
    );
}
