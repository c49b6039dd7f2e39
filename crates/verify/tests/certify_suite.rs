//! Acceptance sweep: the verifier certifies every kernel family ×
//! reduction strategy × thread count over the 12-matrix synthetic suite
//! with zero violations — the construction the paper argues race-free is
//! machine-checked across the whole configuration space.

use std::sync::Arc;
use symspmv_core::csx_sym::CsxSymMatrix;
use symspmv_core::symbolic;
use symspmv_csx::DetectConfig;
use symspmv_runtime::reduction::{
    EffectiveRangesReduction, IndexingReduction, NaiveReduction, ReductionStrategy,
};
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights, Range};
use symspmv_sparse::suite::generate_suite;
use symspmv_sparse::SssMatrix;
use symspmv_verify::{certify_csx_chunks, certify_sym, SymPlanRef, SymStrategyKind};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn strategies() -> Vec<(Arc<dyn ReductionStrategy>, SymStrategyKind)> {
    vec![
        (Arc::new(NaiveReduction), SymStrategyKind::Naive),
        (
            Arc::new(EffectiveRangesReduction),
            SymStrategyKind::EffectiveRanges,
        ),
        (Arc::new(IndexingReduction), SymStrategyKind::Indexing),
    ]
}

#[test]
fn whole_suite_certifies_across_all_configurations() {
    let suite = generate_suite(0.002);
    assert_eq!(suite.len(), 12, "the synthetic suite has 12 matrices");
    let mut certificates = 0usize;

    for m in &suite {
        let sss = SssMatrix::from_coo(&m.coo, 0.0).unwrap();
        let n = sss.n();
        let fingerprint = sss.fingerprint();

        for p in THREAD_COUNTS {
            let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
            let row_chunks = balanced_ranges(&vec![1u64; n as usize], p);

            // sym-sss × {naive, eff, idx}.
            for (strategy, kind) in strategies() {
                let index = if strategy.needs_index() {
                    symbolic::analyze(&sss, &parts)
                } else {
                    symbolic::ConflictIndex {
                        entries: Vec::new(),
                        conflicts: vec![Vec::new(); p],
                        splits: vec![0; p + 1],
                        effective_region_len: parts.iter().map(|r| r.start as usize).sum(),
                    }
                };
                let layout = strategy.layout(n as usize, &parts);
                let cert = certify_sym(
                    &sss,
                    &SymPlanRef {
                        parts: &parts,
                        offsets: &layout.offsets,
                        local_len: layout.flat_len,
                        strategy: kind,
                        entries: &index.entries,
                        splits: &index.splits,
                        row_chunks: &row_chunks,
                    },
                )
                .unwrap_or_else(|e| panic!("{} × {:?} × p={p} rejected: {e}", m.spec.name, kind));
                assert_eq!(cert.nthreads, p);
                assert_eq!(cert.fingerprint, fingerprint);
                certificates += 1;
            }

            // csx-sym: the boundary rule over every chunk stream.
            let csx = CsxSymMatrix::from_sss(
                &sss,
                &parts,
                &DetectConfig {
                    min_coverage: 0.0,
                    ..DetectConfig::default()
                },
            );
            let cert = certify_csx_chunks(
                csx.chunks().iter().map(|c| &c.stream),
                &parts,
                fingerprint,
                n,
                sss.kind(),
            )
            .unwrap_or_else(|e| panic!("{} csx-sym p={p} rejected: {e}", m.spec.name));
            assert!(cert.proves("csx-boundary"));
            certificates += 1;
        }
    }

    // 12 matrices × 4 thread counts × (3 strategies + csx).
    assert_eq!(certificates, 12 * 4 * 4);
}

/// Single-thread plans declare an empty conflict region for the
/// direct-write layouts — the verifier proves there is nothing to reduce.
#[test]
fn single_thread_certificates_have_empty_conflict_regions() {
    for m in generate_suite(0.002).iter().take(3) {
        let sss = SssMatrix::from_coo(&m.coo, 0.0).unwrap();
        let parts = vec![Range {
            start: 0,
            end: sss.n(),
        }];
        let row_chunks = parts.clone();
        let index = symbolic::analyze(&sss, &parts);
        assert!(index.entries.is_empty());
        let strategy: Arc<dyn ReductionStrategy> = Arc::new(IndexingReduction);
        let layout = strategy.layout(sss.n() as usize, &parts);
        let cert = certify_sym(
            &sss,
            &SymPlanRef {
                parts: &parts,
                offsets: &layout.offsets,
                local_len: layout.flat_len,
                strategy: SymStrategyKind::Indexing,
                entries: &index.entries,
                splits: &index.splits,
                row_chunks: &row_chunks,
            },
        )
        .unwrap();
        assert_eq!(cert.local_elems, 0);
        assert_eq!(cert.conflict_entries, 0);
        assert_eq!(cert.density(), 0.0);
    }
}
