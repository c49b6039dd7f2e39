//! Kernel factory: builds any evaluated format+method combination from a
//! symmetric COO matrix.

use std::sync::Arc;
use symspmv_core::{CsrParallel, CsxParallel, ParallelSpmv, ReductionMethod, SymFormat, SymSpmv};
use symspmv_csx::detect::DetectConfig;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, SparseError};

/// The kernel configurations the evaluation section compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSpec {
    /// Unsymmetric CSR baseline.
    Csr,
    /// Unsymmetric CSX baseline.
    Csx,
    /// SSS with a given reduction method.
    Sss(ReductionMethod),
    /// CSX-Sym with a given reduction method.
    CsxSym(ReductionMethod),
    /// SSS with atomic conflicting updates (no local vectors) — the
    /// CSB-style alternative from the paper's related work.
    SssAtomic,
    /// Compressed Sparse Blocks, unsymmetric (related work, ref. 8).
    Csb,
    /// Symmetric CSB with banded locals + atomic far updates (ref. 27).
    CsbSym,
    /// Auto-tuned register-blocked BCSR (related work: SPARSITY/OSKI).
    Bcsr,
    /// Adaptive per-chunk CSX-Sym/SSS hybrid with a given reduction method
    /// (extension; coverage threshold 0.5).
    Hybrid(ReductionMethod),
}

impl KernelSpec {
    /// Spec name matching the kernels' `name()` output. Static — report
    /// loops over lineups never allocate for names.
    pub fn name(&self) -> &'static str {
        use ReductionMethod::{EffectiveRanges as Eff, Indexing as Idx, Naive, Race};
        match self {
            KernelSpec::Csr => "csr",
            KernelSpec::Csx => "csx",
            KernelSpec::Sss(Naive) => "sss-naive",
            KernelSpec::Sss(Eff) => "sss-eff",
            KernelSpec::Sss(Idx) => "sss-idx",
            KernelSpec::Sss(Race) => "sss-race",
            KernelSpec::CsxSym(Race) | KernelSpec::Hybrid(Race) => {
                unreachable!("the race schedule supports the SSS format only")
            }
            KernelSpec::SssAtomic => "sss-atomic",
            KernelSpec::Csb => "csb",
            KernelSpec::Bcsr => "bcsr",
            KernelSpec::Hybrid(Naive) => "hybrid-naive",
            KernelSpec::Hybrid(Eff) => "hybrid-eff",
            KernelSpec::Hybrid(Idx) => "hybrid-idx",
            KernelSpec::CsbSym => "csb-sym",
            KernelSpec::CsxSym(Naive) => "csxsym-naive",
            KernelSpec::CsxSym(Eff) => "csxsym-eff",
            KernelSpec::CsxSym(Idx) => "csxsym-idx",
        }
    }

    /// Parses a spec name (factory inverse). Returns `None` for unknown
    /// names.
    pub fn parse(s: &str) -> Option<KernelSpec> {
        let method = |tag: &str| match tag {
            "naive" => Some(ReductionMethod::Naive),
            "eff" => Some(ReductionMethod::EffectiveRanges),
            "idx" => Some(ReductionMethod::Indexing),
            _ => None,
        };
        match s {
            "csr" => Some(KernelSpec::Csr),
            "csx" => Some(KernelSpec::Csx),
            // The scheduled strategy exists for SSS only; `csxsym-race` and
            // `hybrid-race` stay unparseable.
            "sss-race" => Some(KernelSpec::Sss(ReductionMethod::Race)),
            "sss-atomic" => Some(KernelSpec::SssAtomic),
            "csb" => Some(KernelSpec::Csb),
            "bcsr" => Some(KernelSpec::Bcsr),
            "csb-sym" => Some(KernelSpec::CsbSym),
            _ => {
                if let Some(tag) = s.strip_prefix("sss-") {
                    method(tag).map(KernelSpec::Sss)
                } else if let Some(tag) = s.strip_prefix("csxsym-") {
                    method(tag).map(KernelSpec::CsxSym)
                } else if let Some(tag) = s.strip_prefix("hybrid-") {
                    method(tag).map(KernelSpec::Hybrid)
                } else {
                    None
                }
            }
        }
    }

    /// The four-format lineup of Fig. 11/12/13/14.
    pub fn figure11_lineup() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Csr,
            KernelSpec::Csx,
            KernelSpec::Sss(ReductionMethod::Indexing),
            KernelSpec::CsxSym(ReductionMethod::Indexing),
        ]
    }

    /// The related-work lineup (extension experiment): the paper's best
    /// configurations against the §VI alternatives.
    pub fn related_work_lineup() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Csr,
            KernelSpec::Bcsr,
            KernelSpec::Sss(ReductionMethod::Indexing),
            KernelSpec::CsxSym(ReductionMethod::Indexing),
            KernelSpec::Hybrid(ReductionMethod::Indexing),
            KernelSpec::Csb,
            KernelSpec::CsbSym,
            KernelSpec::SssAtomic,
        ]
    }

    /// The reduction-method lineup of Fig. 9/10.
    pub fn figure9_lineup() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Csr,
            KernelSpec::Sss(ReductionMethod::Naive),
            KernelSpec::Sss(ReductionMethod::EffectiveRanges),
            KernelSpec::Sss(ReductionMethod::Indexing),
        ]
    }
}

/// The detection configuration used by all CSX/CSX-Sym kernels in the
/// experiments (full statistics pass, default thresholds).
pub fn experiment_detect_config() -> DetectConfig {
    DetectConfig::default()
}

/// Builds a kernel for `spec` over `coo` on the shared execution context.
/// Every kernel built from the same context borrows the same worker pool
/// and buffer arena.
pub fn build_kernel(
    spec: KernelSpec,
    coo: &CooMatrix,
    ctx: &Arc<ExecutionContext>,
) -> Result<Box<dyn ParallelSpmv>, SparseError> {
    build_kernel_kind(spec, coo, SymmetryKind::Symmetric, ctx)
}

/// The kind-aware factory: builds `spec` over `coo` validated against
/// `kind`. The unsymmetric baselines (CSR, CSX, CSB, BCSR) store the full
/// expanded matrix and are kind-independent — they build identically for
/// every kind; the half-storage kernels thread the kind through their
/// constructors.
pub fn build_kernel_kind(
    spec: KernelSpec,
    coo: &CooMatrix,
    kind: SymmetryKind,
    ctx: &Arc<ExecutionContext>,
) -> Result<Box<dyn ParallelSpmv>, SparseError> {
    let cfg = experiment_detect_config();
    Ok(match spec {
        KernelSpec::Csr => Box::new(CsrParallel::from_coo(coo, ctx)),
        KernelSpec::Csx => Box::new(CsxParallel::from_coo(coo, ctx, &cfg)),
        KernelSpec::Sss(m) => Box::new(SymSpmv::from_coo_kind(coo, kind, ctx, m, SymFormat::Sss)?),
        KernelSpec::CsxSym(m) => Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            m,
            SymFormat::CsxSym(cfg),
        )?),
        KernelSpec::SssAtomic => Box::new(symspmv_core::SssAtomicParallel::from_coo_kind(
            coo, kind, ctx,
        )?),
        KernelSpec::Csb => Box::new(symspmv_core::CsbParallel::from_coo(coo, ctx)),
        KernelSpec::Bcsr => Box::new(symspmv_core::BcsrParallel::from_coo(coo, ctx)),
        KernelSpec::Hybrid(m) => Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            m,
            SymFormat::Hybrid {
                csx: cfg,
                min_coverage: 0.5,
            },
        )?),
        KernelSpec::CsbSym => {
            Box::new(symspmv_core::CsbSymParallel::from_coo_kind(coo, kind, ctx)?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    #[test]
    fn names_round_trip() {
        for spec in [
            KernelSpec::Csr,
            KernelSpec::Csx,
            KernelSpec::Sss(ReductionMethod::Naive),
            KernelSpec::Sss(ReductionMethod::EffectiveRanges),
            KernelSpec::Sss(ReductionMethod::Indexing),
            KernelSpec::Sss(ReductionMethod::Race),
            KernelSpec::CsxSym(ReductionMethod::Indexing),
            KernelSpec::SssAtomic,
            KernelSpec::Csb,
            KernelSpec::CsbSym,
            KernelSpec::Bcsr,
        ] {
            assert_eq!(KernelSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(KernelSpec::parse("nope"), None);
        assert_eq!(KernelSpec::parse("sss-bogus"), None);
        assert_eq!(KernelSpec::parse("csxsym-race"), None);
        assert_eq!(KernelSpec::parse("hybrid-race"), None);
    }

    #[test]
    fn every_spec_builds_and_agrees() {
        let coo = symspmv_sparse::gen::banded_random(200, 12, 8.0, 1);
        let x = seeded_vector(200, 4);
        let mut y_ref = vec![0.0; 200];
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(&x, &mut y_ref);

        let mut all = KernelSpec::figure9_lineup();
        all.extend(KernelSpec::figure11_lineup());
        let ctx = ExecutionContext::new(3);
        let before = symspmv_runtime::WorkerPool::pools_created();
        for spec in all {
            let mut k = build_kernel(spec, &coo, &ctx).unwrap();
            let mut y = vec![f64::NAN; 200];
            k.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
            assert_eq!(k.name(), spec.name());
        }
        // The whole factory sweep ran on the context's single pool.
        assert_eq!(symspmv_runtime::WorkerPool::pools_created(), before);
    }
}
