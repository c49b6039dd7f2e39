//! Mutation-kill suite: deliberately corrupted plans, each of which the
//! verifier must reject — and each with a *distinct* [`VerifyError`]
//! variant, proving the taxonomy actually discriminates failure modes
//! instead of funnelling everything into one generic error. Mutations 7–9
//! target the lane-lifting path that turns a scalar proof into a block
//! (SpMM) certificate.

use std::sync::Arc;
use symspmv_core::symbolic;
use symspmv_csx::encode::encode_coo;
use symspmv_csx::DetectConfig;
use symspmv_runtime::reduction::{IndexingReduction, ReductionStrategy};
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights, Range};
use symspmv_sparse::dense::seeded_vector;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, Permutation, SssMatrix};
use symspmv_verify::{
    certify_color, certify_csx_chunk, certify_race, certify_race_symbolic, certify_sym,
    certify_sym_symbolic, lift_sym_certificate, lift_symbolic, ColoringFacts, ProofForm,
    RaceCertificate, StructureFacts, SymPlanRef, SymStrategyKind, VerifyError,
};

/// A banded symmetric test matrix with cross-partition conflicts.
fn matrix(n: u32) -> SssMatrix {
    let coo = symspmv_sparse::gen::banded_random(n, 12, 6.0, 99);
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

struct GoodPlan {
    parts: Vec<Range>,
    offsets: Vec<usize>,
    local_len: usize,
    entries: Vec<symspmv_runtime::reduction::IndexEntry>,
    splits: Vec<usize>,
    row_chunks: Vec<Range>,
}

/// Derives a correct indexing-strategy plan the mutations start from.
fn good_plan(sss: &SssMatrix, p: usize) -> GoodPlan {
    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
    let index = symbolic::analyze(sss, &parts);
    let strategy: Arc<dyn ReductionStrategy> = Arc::new(IndexingReduction);
    let layout = strategy.layout(sss.n() as usize, &parts);
    let row_chunks = balanced_ranges(&vec![1u64; sss.n() as usize], p);
    GoodPlan {
        parts,
        offsets: layout.offsets,
        local_len: layout.flat_len,
        entries: index.entries,
        splits: index.splits,
        row_chunks,
    }
}

fn certify(
    sss: &SssMatrix,
    plan: &GoodPlan,
    kind: SymStrategyKind,
) -> Result<RaceCertificate, VerifyError> {
    certify_sym(
        sss,
        &SymPlanRef {
            parts: &plan.parts,
            offsets: &plan.offsets,
            local_len: plan.local_len,
            strategy: kind,
            entries: &plan.entries,
            splits: &plan.splits,
            row_chunks: &plan.row_chunks,
        },
    )
}

#[test]
fn unmutated_plan_certifies() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);
    let cert = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    assert!(cert.proves("disjoint-direct"));
    assert!(cert.proves("reduction-slice"));
}

/// Mutation 1 — off-by-one partition boundary: thread 1 starts one row
/// late, leaving a row nobody owns.
#[test]
fn mutation_shifted_boundary_leaves_gap() {
    let sss = matrix(256);
    let mut plan = good_plan(&sss, 4);
    let orphan = plan.parts[1].start;
    plan.parts[1].start += 1;
    let err = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap_err();
    assert_eq!(err, VerifyError::PartitionGap { at: orphan });
}

/// Mutation 2 — duplicated row: thread 1 reaches one row into thread 0's
/// partition, so both threads write it directly.
#[test]
fn mutation_stolen_row_overlaps_direct_writes() {
    let sss = matrix(256);
    let mut plan = good_plan(&sss, 4);
    plan.parts[1].start -= 1;
    let err = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::OverlappingDirectWrites {
                first: 0,
                second: 1,
                ..
            }
        ),
        "{err:?}"
    );
}

/// Mutation 3 — bad color: move a row into a class whose rows share one of
/// its write targets.
#[test]
fn mutation_bad_color_conflicts() {
    let sss = matrix(256);
    let coloring = symspmv_core::sym_color::color_rows(&sss);
    assert!(certify_color(&sss, &coloring.classes).is_ok());

    // Find a row coupled to another row and force them into one class.
    let mut classes = coloring.classes.clone();
    let (victim, neighbor) = (0..sss.n())
        .find_map(|r| sss.row(r).0.first().map(|&c| (r, c)))
        .expect("banded matrix has off-diagonal entries");
    for class in &mut classes {
        class.retain(|&r| r != victim);
    }
    let home = classes
        .iter()
        .position(|c| c.contains(&neighbor))
        .expect("neighbor is colored");
    classes[home].push(victim);
    classes[home].sort_unstable();
    let err = certify_color(&sss, &classes).unwrap_err();
    assert!(
        matches!(err, VerifyError::ColoringConflict { .. }),
        "{err:?}"
    );
}

/// Mutation 4 — straddling CSX pattern: an encoding computed without the
/// chunk's column split produces a substructure whose transposed writes
/// fall on both sides of the local-vs-direct boundary.
#[test]
fn mutation_straddling_csx_pattern() {
    let n = 64u32;
    let mut coo = CooMatrix::new(n, n);
    // A horizontal run in row 40 crossing the split at 32.
    for c in 28..36 {
        coo.push(40, c, 1.0);
    }
    let stream = encode_coo(&coo, &DetectConfig::default()); // no col_split
    let err = certify_csx_chunk(&stream, Range { start: 32, end: n }, 1).unwrap_err();
    assert!(
        matches!(err, VerifyError::StraddlingPattern { split: 32, .. }),
        "{err:?}"
    );

    // The split-aware encoding of the same rows is accepted.
    let legal = encode_coo(
        &coo,
        &DetectConfig {
            col_split: Some(32),
            ..DetectConfig::default()
        },
    );
    certify_csx_chunk(&legal, Range { start: 32, end: n }, 1).unwrap();
}

/// Mutation 5 — overlapping reduction slice: move a split boundary so two
/// threads' reduction slices share an `idx` value (both would fold — and
/// re-zero — the same output element).
#[test]
fn mutation_overlapping_reduction_slice() {
    // Every row couples to row 0, so each non-first partition contributes
    // an entry with idx 0 and the index groups them adjacently.
    let n = 64u32;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
    }
    for r in 1..n {
        coo.push(r, 0, -1.0);
        coo.push(0, r, -1.0);
    }
    let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
    let mut plan = good_plan(&sss, 4);
    assert!(plan.entries.iter().filter(|e| e.idx == 0).count() >= 2);
    assert!(certify(&sss, &plan, SymStrategyKind::Indexing).is_ok());

    // The analyzer placed all idx-0 entries in one slice; force a split
    // boundary between two of them.
    plan.splits = vec![
        0,
        1,
        plan.entries.len(),
        plan.entries.len(),
        plan.entries.len(),
    ];
    let err = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap_err();
    assert_eq!(
        err,
        VerifyError::ReductionSliceOverlap {
            idx: 0,
            first: 0,
            second: 1
        }
    );
}

/// Mutation 6 — stale certificate: a certificate minted for the original
/// numbering is presented after the matrix was renumbered.
#[test]
fn mutation_stale_certificate_after_renumbering() {
    let n = 256u32;
    let coo = symspmv_sparse::gen::banded_random(n, 12, 6.0, 99);
    let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
    let plan = good_plan(&sss, 4);
    let cert = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    cert.validate_for(sss.fingerprint(), 4, "sym-sss", "idx")
        .unwrap();

    // Renumber with a reversal permutation; same values, new structure.
    let order: Vec<u32> = (0..n).rev().collect();
    let perm = Permutation::from_order(&order).unwrap();
    let renumbered = SssMatrix::from_coo(&perm.apply_symmetric(&coo).unwrap(), 0.0).unwrap();
    assert_ne!(sss.fingerprint(), renumbered.fingerprint());

    let err = cert
        .validate_for(renumbered.fingerprint(), 4, "sym-sss", "idx")
        .unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::StaleCertificate {
                field: "fingerprint",
                ..
            }
        ),
        "{err:?}"
    );
}

/// Correctly lane-scaled lifting succeeds and records what it proved.
#[test]
fn unmutated_lane_lifting_certifies() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);
    let base = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    let lanes = 8;
    let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
    let cert = lift_sym_certificate(
        &base,
        lanes,
        &plan.offsets,
        plan.local_len,
        &block_offsets,
        plan.local_len * lanes,
    )
    .unwrap();
    assert_eq!(cert.lanes, lanes);
    assert!(cert.proves("lane-lifted"));
    assert_eq!(cert.local_elems, base.local_elems * lanes);
    // The lifted certificate still validates for the same dispatch key.
    cert.validate_for(sss.fingerprint(), 4, "sym-sss", "idx")
        .unwrap();
}

/// Mutation 7 — lane-shifted block offset: thread 1's block region starts
/// one element late, so its lane groups drift off the scalar proof's
/// tiling (and its last group would escape into thread 2's region).
#[test]
fn mutation_shifted_block_offset_rejected() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);
    let base = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    let lanes = 4;
    let mut block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
    block_offsets[1] += 1;
    let err = lift_sym_certificate(
        &base,
        lanes,
        &plan.offsets,
        plan.local_len,
        &block_offsets,
        plan.local_len * lanes,
    )
    .unwrap_err();
    assert_eq!(
        err,
        VerifyError::LaneOffsetMismatch {
            tid: 1,
            expected: plan.offsets[1] * lanes,
            actual: plan.offsets[1] * lanes + 1,
        }
    );
}

/// Mutation 8 — short block store: the lease forgot to scale by the lane
/// count, so the last thread's lifted region escapes the store.
#[test]
fn mutation_short_block_store_rejected() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);
    let base = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    let lanes = 4;
    let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
    let err = lift_sym_certificate(
        &base,
        lanes,
        &plan.offsets,
        plan.local_len,
        &block_offsets,
        plan.local_len, // unscaled — too short by (lanes-1)·local_len
    )
    .unwrap_err();
    assert_eq!(
        err,
        VerifyError::LaneRegionMismatch {
            expected: plan.local_len * lanes,
            actual: plan.local_len,
        }
    );
}

/// Mutation 9 — unsupported lane count: lifting must refuse widths the
/// block kernels are not written for (stack accumulators are MAX_LANES
/// wide; a wider block would silently truncate).
#[test]
fn mutation_unsupported_lane_count_rejected() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);
    let base = certify(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    for lanes in [0usize, 3, 32] {
        let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
        let err = lift_sym_certificate(
            &base,
            lanes,
            &plan.offsets,
            plan.local_len,
            &block_offsets,
            plan.local_len * lanes,
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::BadLaneCount { lanes });
    }
}

/// Mutation 10 — dropped sign flip: a kernel that forgets the skew mirror
/// negation computes `D·x + L·x + Lᵀ·x` instead of `D·x + L·x − Lᵀ·x`.
/// The mutant is simulated from the same storage the real kernel uses;
/// the serial reference comparison (the oracle's 1e-12 check) must see a
/// macroscopic difference, i.e. any such mutant is killed, not tolerated.
#[test]
fn mutation_dropped_skew_sign_flip_is_killed() {
    let n = 128u32;
    let coo = symspmv_sparse::gen::skew_convection(n, 9, 5.0, 7);
    let skew = SssMatrix::from_coo_kind(&coo, SymmetryKind::Skew, 0.0).unwrap();
    let x = seeded_vector(n as usize, 3);
    let mut y = vec![0.0; n as usize];
    skew.spmv(&x, &mut y);

    // The mutant: identical storage, mirror contribution `+v` instead of
    // `-v` (the Symmetric ops applied to Skew storage).
    let mut y_mut = vec![0.0; n as usize];
    for r in 0..n {
        let (cols, vals) = skew.row(r);
        let ru = r as usize;
        y_mut[ru] += skew.dvalues()[ru] * x[ru];
        for (&c, &v) in cols.iter().zip(vals) {
            y_mut[ru] += v * x[c as usize];
            y_mut[c as usize] += v * x[ru];
        }
    }
    let max_diff = y
        .iter()
        .zip(&y_mut)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff > 1e-6,
        "sign-flip mutant indistinguishable from the kernel: max diff {max_diff}"
    );
}

/// Mutation 11 — pair array swapped: a kernel that mirrors a structural
/// matrix with the *lower* value (ignoring the paired upper array)
/// computes the symmetrized matrix, not A. Killed the same way.
#[test]
fn mutation_swapped_pair_array_is_killed() {
    let n = 96u32;
    let coo = symspmv_sparse::gen::structural_random(n, 6.0, 0.7, 10, 23);
    let m = SssMatrix::from_coo_kind(&coo, SymmetryKind::Structural, 0.0).unwrap();
    let x = seeded_vector(n as usize, 5);
    let mut y = vec![0.0; n as usize];
    m.spmv(&x, &mut y);

    // The mutant: mirror with `v` (the lower value) where the paired
    // upper value belongs.
    let mut y_mut = vec![0.0; n as usize];
    for r in 0..n {
        let (cols, vals) = m.row(r);
        let ru = r as usize;
        y_mut[ru] += m.dvalues()[ru] * x[ru];
        for (&c, &v) in cols.iter().zip(vals) {
            y_mut[ru] += v * x[c as usize];
            y_mut[c as usize] += v * x[ru];
        }
    }
    let max_diff = y
        .iter()
        .zip(&y_mut)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff > 1e-6,
        "pair-swap mutant indistinguishable from the kernel: max diff {max_diff}"
    );
}

/// The kind side conditions and tags survive the certificate round trip.
#[test]
fn kind_certificates_round_trip_and_prove_side_conditions() {
    let n = 128u32;
    let skew = SssMatrix::from_coo_kind(
        &symspmv_sparse::gen::skew_convection(n, 9, 5.0, 7),
        SymmetryKind::Skew,
        0.0,
    )
    .unwrap();
    let plan = good_plan(&skew, 4);
    let cert = certify(&skew, &plan, SymStrategyKind::Indexing).unwrap();
    assert_eq!(cert.symmetry, "skew");
    assert!(cert.proves("skew-zero-diagonal"));
    let parsed = RaceCertificate::from_json(&cert.to_json().unwrap()).unwrap();
    assert_eq!(parsed, cert);

    let st = SssMatrix::from_coo_kind(
        &symspmv_sparse::gen::structural_random(n, 6.0, 0.7, 10, 23),
        SymmetryKind::Structural,
        0.0,
    )
    .unwrap();
    let plan = good_plan(&st, 4);
    let cert = certify(&st, &plan, SymStrategyKind::Indexing).unwrap();
    assert_eq!(cert.symmetry, "structural");
    assert!(cert.proves("structural-paired"));

    // Pre-kind certificates (no `symmetry` key) parse as symmetric.
    let text = cert.to_json().unwrap();
    let legacy = text.replace("\"symmetry\":\"structural\",", "");
    assert_ne!(legacy, text, "symmetry key not found");
    assert_eq!(
        RaceCertificate::from_json(&legacy).unwrap().symmetry,
        "symmetric"
    );
}

/// Re-derives the per-thread conflict profiles the symbolic certifier
/// consumes (the enumerative checker re-walks the matrix itself).
fn conflicts_for(sss: &SssMatrix, parts: &[Range]) -> Vec<Vec<u32>> {
    symbolic::analyze(sss, parts).conflicts
}

fn certify_symbolically(
    sss: &SssMatrix,
    plan: &GoodPlan,
    kind: SymStrategyKind,
) -> Result<RaceCertificate, VerifyError> {
    certify_sym_symbolic(
        &StructureFacts::of(sss),
        &SymPlanRef {
            parts: &plan.parts,
            offsets: &plan.offsets,
            local_len: plan.local_len,
            strategy: kind,
            entries: &plan.entries,
            splits: &plan.splits,
            row_chunks: &plan.row_chunks,
        },
        &conflicts_for(sss, &plan.parts),
    )
}

/// The symbolic certifier kills the same plan mutants as the enumerative
/// one, with the identical typed errors — replayed here for mutations 1,
/// 2 and 5 (the plan-shape mutants the abstract domain must see through).
#[test]
fn symbolic_certifier_kills_the_same_plan_mutants() {
    let sss = matrix(256);

    let clean = good_plan(&sss, 4);
    let cert = certify_symbolically(&sss, &clean, SymStrategyKind::Indexing).unwrap();
    assert_eq!(cert.proof, ProofForm::Symbolic);

    // Mutation 1 replay: shifted boundary.
    let mut plan = good_plan(&sss, 4);
    let orphan = plan.parts[1].start;
    plan.parts[1].start += 1;
    assert_eq!(
        certify_symbolically(&sss, &plan, SymStrategyKind::Indexing).unwrap_err(),
        VerifyError::PartitionGap { at: orphan }
    );

    // Mutation 2 replay: stolen row.
    let mut plan = good_plan(&sss, 4);
    plan.parts[1].start -= 1;
    assert!(matches!(
        certify_symbolically(&sss, &plan, SymStrategyKind::Indexing).unwrap_err(),
        VerifyError::OverlappingDirectWrites {
            first: 0,
            second: 1,
            ..
        }
    ));

    // Mutation 5 replay: overlapping reduction slice (on the idx-heavy
    // star matrix from mutation 5).
    let n = 64u32;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
    }
    for r in 1..n {
        coo.push(r, 0, -1.0);
        coo.push(0, r, -1.0);
    }
    let star = SssMatrix::from_coo(&coo, 0.0).unwrap();
    let mut plan = good_plan(&star, 4);
    plan.splits = vec![
        0,
        1,
        plan.entries.len(),
        plan.entries.len(),
        plan.entries.len(),
    ];
    assert_eq!(
        certify_symbolically(&star, &plan, SymStrategyKind::Indexing).unwrap_err(),
        VerifyError::ReductionSliceOverlap {
            idx: 0,
            first: 0,
            second: 1
        }
    );
}

/// Mutation 12 — cross-axis (kind × lanes): a kind-flipped certificate
/// request on a lane-lifted plan. The structure facts of a symmetric
/// matrix (nonzero diagonal) are presented as skew; the symbolic
/// certifier must refuse at the kind side condition *before* any lifting
/// can launder the mismatch into a block certificate.
#[test]
fn mutation_kind_flipped_facts_on_lifted_plan_rejected() {
    let sss = matrix(256);
    let plan = good_plan(&sss, 4);

    // The honest pipeline works: symbolic scalar proof, then lane lift.
    let base = certify_symbolically(&sss, &plan, SymStrategyKind::Indexing).unwrap();
    let lanes = 8;
    let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
    let lifted = lift_symbolic(
        &base,
        lanes,
        &plan.offsets,
        plan.local_len,
        &block_offsets,
        plan.local_len * lanes,
    )
    .unwrap();
    assert_eq!(lifted.proof, ProofForm::Symbolic);
    assert!(lifted.proves("lane-lifted"));

    // The mutant: same matrix, same plan, kind flipped to skew.
    let mut facts = StructureFacts::of(&sss);
    assert!(facts.nonzero_diag.is_some(), "banded_random has a diagonal");
    facts.kind = SymmetryKind::Skew;
    let err = certify_sym_symbolic(
        &facts,
        &SymPlanRef {
            parts: &plan.parts,
            offsets: &plan.offsets,
            local_len: plan.local_len,
            strategy: SymStrategyKind::Indexing,
            entries: &plan.entries,
            splits: &plan.splits,
            row_chunks: &plan.row_chunks,
        },
        &conflicts_for(&sss, &plan.parts),
    )
    .unwrap_err();
    assert!(
        matches!(err, VerifyError::KindSideCondition { kind: "skew", .. }),
        "{err:?}"
    );
}

/// Mutation 13 — cross-axis (lanes × kind): a lane-offset mutant on a
/// *skew* plan. The skew side conditions pass (the matrix really is
/// skew), but the block region of thread 2 drifts off the lane-scaled
/// image of the scalar proof; `lift_symbolic` must catch the drift.
#[test]
fn mutation_lane_offset_on_skew_plan_rejected() {
    let n = 128u32;
    let skew = SssMatrix::from_coo_kind(
        &symspmv_sparse::gen::skew_convection(n, 9, 5.0, 7),
        SymmetryKind::Skew,
        0.0,
    )
    .unwrap();
    let plan = good_plan(&skew, 4);
    let base = certify_symbolically(&skew, &plan, SymStrategyKind::Indexing).unwrap();
    assert_eq!(base.symmetry, "skew");
    assert_eq!(base.proof, ProofForm::Symbolic);

    let lanes = 4;
    let mut block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
    block_offsets[2] += 2;
    let err = lift_symbolic(
        &base,
        lanes,
        &plan.offsets,
        plan.local_len,
        &block_offsets,
        plan.local_len * lanes,
    )
    .unwrap_err();
    assert_eq!(
        err,
        VerifyError::LaneOffsetMismatch {
            tid: 2,
            expected: plan.offsets[2] * lanes,
            actual: plan.offsets[2] * lanes + 2,
        }
    );
}

/// A path matrix `0 — 1 — … — n-1`: the lower-triangle write set of row
/// `r` is `{r-1, r}`, so the mod-3 level grouping below is exactly
/// distance-2 disjoint and any boundary slip collides two adjacent rows.
fn path_matrix(n: u32) -> SssMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
    }
    for r in 1..n {
        coo.push(r, r - 1, -1.0);
        coo.push(r - 1, r, -1.0);
    }
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

/// A star matrix (hub 0, leaves 1..=k): every leaf's write set contains
/// the hub, so any grouping that puts two leaves together is racy — the
/// fixture on which a distance-*1* coloring is maximally wrong.
fn star_matrix(k: u32) -> SssMatrix {
    let n = k + 1;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
    }
    for i in 1..n {
        coo.push(i, 0, -1.0);
        coo.push(0, i, -1.0);
    }
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

/// Single-thread per-group tilings for hand-built group tables.
fn serial_parts(groups: &[Vec<u32>]) -> Vec<Vec<Range>> {
    groups
        .iter()
        .map(|g| {
            vec![Range {
                start: 0,
                end: g.len() as u32,
            }]
        })
        .collect()
}

/// The hand-built mod-3 level grouping of the path: `levels[r] = r`,
/// one subcolor per phase, `group_of[r] = r % 3`.
fn path_grouping(n: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    let levels: Vec<u32> = (0..n).collect();
    let subcolors = vec![0u32; n as usize];
    let group_of: Vec<u32> = (0..n).map(|r| r % 3).collect();
    let mut groups = vec![Vec::new(); 3];
    for r in 0..n {
        groups[(r % 3) as usize].push(r);
    }
    (levels, subcolors, group_of, groups)
}

/// The hand-built level grouping of the star: hub at level 0, leaves at
/// level 1 with one subcolor each (they all conflict through the hub).
fn star_grouping(k: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    let n = (k + 1) as usize;
    let mut levels = vec![1u32; n];
    levels[0] = 0;
    let subcolors: Vec<u32> = (0..n as u32).map(|r| r.saturating_sub(1)).collect();
    let group_of: Vec<u32> = (0..n as u32).collect();
    let groups: Vec<Vec<u32>> = (0..n as u32).map(|r| vec![r]).collect();
    (levels, subcolors, group_of, groups)
}

/// The unmutated colorings certify in both certifiers — and produce the
/// *identical* certificate, so the kill tests below start from a proven
/// baseline in each pipeline.
#[test]
fn unmutated_colorings_certify_in_both_certifiers() {
    let path = path_matrix(12);
    let (levels, subcolors, group_of, groups) = path_grouping(12);
    let parts = serial_parts(&groups);
    let enumerative = certify_race(&path, &groups, &parts, 1).unwrap();
    let coloring = ColoringFacts::establish(&path, &levels, &subcolors).unwrap();
    let symbolic_cert = certify_race_symbolic(
        &StructureFacts::of(&path),
        &coloring,
        &group_of,
        &groups,
        &parts,
        1,
    )
    .unwrap();
    assert_eq!(enumerative, symbolic_cert);
    assert!(matches!(
        enumerative.proof,
        ProofForm::ColoringDisjoint { reach: 2, .. }
    ));

    let star = star_matrix(6);
    let (levels, subcolors, group_of, groups) = star_grouping(6);
    let parts = serial_parts(&groups);
    let enumerative = certify_race(&star, &groups, &parts, 1).unwrap();
    let coloring = ColoringFacts::establish(&star, &levels, &subcolors).unwrap();
    let symbolic_cert = certify_race_symbolic(
        &StructureFacts::of(&star),
        &coloring,
        &group_of,
        &groups,
        &parts,
        1,
    )
    .unwrap();
    assert_eq!(enumerative, symbolic_cert);
}

/// Mutation 14 — merged adjacent groups: the hub's singleton group
/// swallows leaf 1. Both rows write `y[0]`, so the enumerative stamping
/// and the symbolic class axiom must each refuse.
#[test]
fn mutation_merged_adjacent_groups_killed_by_both() {
    let star = star_matrix(6);
    let (mut levels, mut subcolors, _, groups) = star_grouping(6);

    // Enumerative form of the merge: one group table holding both rows.
    let mut merged: Vec<Vec<u32>> = vec![vec![0, 1]];
    merged.extend(groups[2..].iter().cloned());
    let parts = serial_parts(&merged);
    let err = certify_race(&star, &merged, &parts, 1).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ColoringConflict {
                row_a: 0,
                row_b: 1,
                target: 0,
                ..
            }
        ),
        "{err:?}"
    );

    // Symbolic form: leaf 1 claims the hub's (level, subcolor) class.
    levels[1] = 0;
    subcolors[1] = 0;
    let err = ColoringFacts::establish(&star, &levels, &subcolors).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ColoringConflict {
                row_a: 0,
                row_b: 1,
                target: 0,
                ..
            }
        ),
        "{err:?}"
    );
}

/// Mutation 15 — group boundary off by one: row 3 of the path slips from
/// its mod-3 group into the next one, landing beside its level-4
/// neighbor. The enumerative checker sees rows 3 and 4 collide on target
/// 3; the symbolic certifier sees the level structure itself break (the
/// stored edge (3, 2) now spans two levels).
#[test]
fn mutation_group_boundary_off_by_one_killed_by_both() {
    let path = path_matrix(12);
    let (mut levels, subcolors, _, mut groups) = path_grouping(12);

    // Enumerative form: move row 3 into the neighboring group.
    groups[0].retain(|&r| r != 3);
    groups[1].push(3);
    groups[1].sort_unstable();
    let parts = serial_parts(&groups);
    let err = certify_race(&path, &groups, &parts, 1).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ColoringConflict {
                row_a: 3,
                row_b: 4,
                target: 3,
                ..
            }
        ),
        "{err:?}"
    );

    // Symbolic form: the same slip as a level boundary off by one.
    levels[3] = 4;
    let err = ColoringFacts::establish(&path, &levels, &subcolors).unwrap_err();
    assert!(matches!(err, VerifyError::MalformedPlan { .. }), "{err:?}");
}

/// Mutation 16 — distance dropped from 2 to 1: a proper *vertex* coloring
/// of the star (hub one color, all leaves the other) is distance-1 valid
/// but distance-2 racy — every leaf writes the hub. Both certifiers must
/// reject the two-group schedule it induces.
#[test]
fn mutation_distance_one_coloring_killed_by_both() {
    let star = star_matrix(6);

    // Enumerative form: the two distance-1 color classes as groups.
    let groups: Vec<Vec<u32>> = vec![vec![0], (1..=6).collect()];
    let parts = serial_parts(&groups);
    let err = certify_race(&star, &groups, &parts, 1).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ColoringConflict {
                row_a: 1,
                row_b: 2,
                target: 0,
                ..
            }
        ),
        "{err:?}"
    );

    // Symbolic form: all leaves share subcolor 0 in level 1 — the class
    // axiom catches the shared hub target.
    let (levels, _, _, _) = star_grouping(6);
    let subcolors = vec![0u32; 7];
    let err = ColoringFacts::establish(&star, &levels, &subcolors).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::ColoringConflict {
                row_a: 1,
                row_b: 2,
                target: 0,
                ..
            }
        ),
        "{err:?}"
    );
}

/// The kill-count pin: one entry per seeded mutant in this suite. A new
/// mutant must be added here (and a removed one deleted), so the count
/// can only change deliberately.
#[test]
fn mutation_kill_count_is_pinned() {
    const KILLED: [&str; 16] = [
        "shifted-boundary",
        "stolen-row",
        "bad-color",
        "straddling-csx-pattern",
        "overlapping-reduction-slice",
        "stale-certificate",
        "lane-shifted-block-offset",
        "short-block-store",
        "unsupported-lane-count",
        "dropped-skew-sign-flip",
        "swapped-pair-array",
        "kind-flipped-facts-on-lifted-plan",
        "lane-offset-on-skew-plan",
        "merged-adjacent-groups",
        "group-boundary-off-by-one",
        "distance-one-coloring",
    ];
    assert_eq!(KILLED.len(), 16);
    // And the symbolic replay above re-kills the plan-shape subset
    // (mutations 1, 2, 5, 12, 13), while mutations 14–16 are killed by
    // the enumerative *and* symbolic coloring certifiers independently —
    // every mutant whose error originates in plan geometry has two
    // independent killers.
}

/// The mutations map onto *distinct* variants — the discriminants of the
/// errors above are pairwise different.
#[test]
fn mutations_produce_distinct_variants() {
    use std::mem::discriminant;
    let variants = [
        discriminant(&VerifyError::PartitionGap { at: 0 }),
        discriminant(&VerifyError::OverlappingDirectWrites {
            row: 0,
            first: 0,
            second: 0,
        }),
        discriminant(&VerifyError::ColoringConflict {
            color: 0,
            row_a: 0,
            row_b: 0,
            target: 0,
        }),
        discriminant(&VerifyError::StraddlingPattern {
            tid: 0,
            row: 0,
            col: 0,
            split: 0,
        }),
        discriminant(&VerifyError::ReductionSliceOverlap {
            idx: 0,
            first: 0,
            second: 0,
        }),
        discriminant(&VerifyError::StaleCertificate {
            field: "",
            expected: 0,
            actual: 0,
        }),
        discriminant(&VerifyError::LaneOffsetMismatch {
            tid: 0,
            expected: 0,
            actual: 0,
        }),
        discriminant(&VerifyError::LaneRegionMismatch {
            expected: 0,
            actual: 0,
        }),
        discriminant(&VerifyError::BadLaneCount { lanes: 0 }),
        discriminant(&VerifyError::KindSideCondition {
            kind: "",
            reason: String::new(),
        }),
    ];
    for (i, a) in variants.iter().enumerate() {
        for b in variants.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}
