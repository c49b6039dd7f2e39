//! The multithreaded symmetric SpMV engine (§III + §IV).
//!
//! [`SymSpmv`] binds a symmetric matrix (stored as SSS or CSX-Sym), a
//! static nnz-balanced row partition and a built-in [`ReductionStrategy`]
//! selected by [`ReductionMethod`], and executes `y = A·x` in two timed
//! phases:
//!
//! 1. **multiply** — each thread computes its partition; transposed writes
//!    that would cross partition boundaries go to local vectors (where they
//!    go depends on the strategy's layout);
//! 2. **reduce** — the local vectors are folded into `y` in parallel by the
//!    strategy.
//!
//! The three reduction strategies implement Fig. 3 of the paper (see
//! `symspmv_runtime::reduction` for the details); [`ReductionMethod`]
//! names them (`"naive"`, `"eff"`, `"idx"`, plus the scheduled `"race"`)
//! and resolves each to its strategy. The local vectors themselves are leased
//! from the context's buffer arena per call, so consecutive invocations —
//! and different kernels sharing one context — recycle the same
//! first-touch-initialized pages.

use crate::csx_sym::{
    spmm_sym_stream, spmm_sym_stream_local_only, spmv_sym_stream, spmv_sym_stream_local_only,
    CsxSymMatrix,
};
use crate::error::SymSpmvError;
use crate::plan::{CachedSymPlan, GroupSchedule};
use crate::shared::SharedBuf;
use crate::symbolic::ConflictIndex;
use crate::traits::ParallelSpmv;
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_csx::detect::DetectConfig;
use symspmv_runtime::reduction::ReduceJob;
use symspmv_runtime::reduction::{
    EffectiveRangesReduction, IndexingReduction, NaiveReduction, RaceReduction,
};
use symspmv_runtime::timing::time_into;
use symspmv_runtime::{ExecutionContext, ParallelSpmm, PhaseTimes, Range, ReductionStrategy};
use symspmv_sparse::block::{VectorBlock, MAX_LANES};
use symspmv_sparse::symmetry::{SymmetryKind, SymmetryOps};
use symspmv_sparse::{with_symmetry_ops, CooMatrix, SparseError, SssMatrix, Val};

/// How local vectors are organized and reduced (Fig. 3 b/c/d).
///
/// Each variant names one built-in [`ReductionStrategy`], returned by
/// [`ReductionMethod::strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionMethod {
    /// Full-length local vector per thread (Alg. 3).
    Naive,
    /// Effective ranges (Batista et al., ref. 7 of the paper).
    EffectiveRanges,
    /// Local-vectors indexing (§III-C — the paper's scheme).
    Indexing,
    /// RACE-style coloring schedule (Alappat et al.): distance-2-disjoint
    /// row groups run one barrier apart with direct writes — no local
    /// vectors, no reduction phase at all. SSS format only.
    Race,
}

impl ReductionMethod {
    /// Short name used in kernel identifiers and reports; equal to the
    /// [`ReductionStrategy::name`] of [`ReductionMethod::strategy`].
    pub fn tag(self) -> &'static str {
        match self {
            ReductionMethod::Naive => "naive",
            ReductionMethod::EffectiveRanges => "eff",
            ReductionMethod::Indexing => "idx",
            ReductionMethod::Race => "race",
        }
    }

    /// The strategy that implements this method.
    pub fn strategy(self) -> &'static dyn ReductionStrategy {
        match self {
            ReductionMethod::Naive => &NaiveReduction,
            ReductionMethod::EffectiveRanges => &EffectiveRangesReduction,
            ReductionMethod::Indexing => &IndexingReduction,
            ReductionMethod::Race => &RaceReduction,
        }
    }
}

/// Storage format of the symmetric matrix.
#[derive(Debug, Clone)]
pub enum SymFormat {
    /// Sparse Skyline storage (§II-B): dense diagonal plus the strict
    /// lower triangle in CSR layout. Despite the traditional "Symmetric
    /// Sparse Skyline" name, it carries any [`SymmetryKind`] — skew
    /// matrices mirror with a sign flip, structurally symmetric ones
    /// through a paired upper-value array.
    Sss,
    /// CSX-Sym with the given detection configuration (§IV-B).
    CsxSym(DetectConfig),
    /// Adaptive extension: per thread chunk, encode CSX-Sym only when the
    /// substructure coverage reaches `min_coverage`; chunks below it stay
    /// as plain SSS rows, avoiding the stream-decode cost where the
    /// compression would not pay (motivated by the `ablation` experiment,
    /// where delta-only chunks run fastest on scattered matrices).
    Hybrid {
        /// Detection configuration for the CSX-Sym candidate encoding.
        csx: DetectConfig,
        /// Minimum chunk coverage to adopt the stream encoding.
        min_coverage: f64,
    },
}

enum Storage {
    Sss(SssMatrix),
    CsxSym(CsxSymMatrix),
    /// SSS kept whole; `streams[i]` is the CSX-Sym encoding of chunk `i`
    /// when it cleared the coverage threshold.
    Hybrid {
        sss: SssMatrix,
        csx: CsxSymMatrix,
        use_stream: Vec<bool>,
    },
}

/// The multithreaded symmetric SpMV kernel.
pub struct SymSpmv {
    n: usize,
    nnz_full: usize,
    kind: SymmetryKind,
    method: ReductionMethod,
    storage: Storage,
    /// The certified, context-memoized plan: row partition, local-vector
    /// layout, conflict index, reduction chunks and the race certificate.
    /// The local store itself is leased from the arena per spmv call.
    plan: Arc<CachedSymPlan>,
    /// Lane-lifted block-write certificates, one per SpMM lane count seen.
    block_certs: std::collections::HashMap<usize, Arc<symspmv_verify::RaceCertificate>>,
    ctx: Arc<ExecutionContext>,
    times: PhaseTimes,
    size_bytes: usize,
}

impl SymSpmv {
    /// Builds the kernel from a full symmetric COO matrix.
    pub fn from_coo(
        coo: &CooMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
        Self::from_coo_kind(coo, SymmetryKind::Symmetric, ctx, method, format)
    }

    /// Builds the kernel from a full COO matrix under an explicit symmetry
    /// kind: the matrix is validated against the kind (symmetric, skew or
    /// pattern-symmetric) and the kernel's mirror contributions follow it.
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SparseError> {
        let sss = SssMatrix::from_coo_kind(coo, kind, 0.0)?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    /// Fully validated constructor for matrices from outside the process:
    /// beyond [`SymSpmv::from_coo`]'s square/symmetry checks, rejects
    /// non-finite values, duplicate coordinates and index overflow, and
    /// reports everything as a classified [`SymSpmvError`].
    pub fn try_from_coo(
        coo: &CooMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SymSpmvError> {
        Self::try_from_coo_kind(coo, SymmetryKind::Symmetric, ctx, method, format)
    }

    /// The kind-parameterized twin of [`SymSpmv::try_from_coo`].
    pub fn try_from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Result<Self, SymSpmvError> {
        let sss = SssMatrix::try_from_coo_kind(coo, kind, 0.0)?;
        Ok(Self::from_sss(sss, ctx, method, format))
    }

    /// Builds the kernel from an SSS matrix (symmetry already established;
    /// the matrix's [`SymmetryKind`] carries over to the kernel).
    ///
    /// Format preprocessing (CSX-Sym detection/encoding) and the symbolic
    /// conflict analysis are timed into the `preprocess` phase.
    pub fn from_sss(
        sss: SssMatrix,
        ctx: &Arc<ExecutionContext>,
        method: ReductionMethod,
        format: SymFormat,
    ) -> Self {
        let strategy = method.strategy();
        let n = sss.n() as usize;
        let kind = sss.kind();
        assert!(
            !matches!(format, SymFormat::Hybrid { .. }) || strategy.direct_write(),
            "the hybrid format supports the direct-write methods only"
        );
        assert!(
            matches!(format, SymFormat::Sss) || !strategy.scheduled(),
            "the race schedule supports the SSS format only"
        );
        let mut times = PhaseTimes::new();

        // Partition, layout, conflict index and race certificate all come
        // from the context-memoized plan: a repeat build for the same
        // (matrix, nthreads, strategy) reuses it wholesale and the
        // preprocess phase records (almost) nothing.
        let plan = time_into(&mut times.preprocess, || {
            CachedSymPlan::obtain(&sss, ctx, strategy)
        });
        let parts = Arc::clone(&plan.parts);

        let nnz_full = 2 * sss.lower_nnz() + n;
        let storage = match &format {
            SymFormat::Sss => Storage::Sss(sss),
            SymFormat::CsxSym(cfg) => {
                let m = time_into(&mut times.preprocess, || {
                    CsxSymMatrix::from_sss(&sss, &parts, cfg)
                });
                Storage::CsxSym(m)
            }
            SymFormat::Hybrid { csx, min_coverage } => {
                let m = time_into(&mut times.preprocess, || {
                    CsxSymMatrix::from_sss(&sss, &parts, csx)
                });
                let use_stream: Vec<bool> = m
                    .chunks()
                    .iter()
                    .map(|c| c.coverage >= *min_coverage)
                    .collect();
                Storage::Hybrid {
                    sss,
                    csx: m,
                    use_stream,
                }
            }
        };
        let size_bytes = match &storage {
            Storage::Sss(s) => s.size_bytes(),
            Storage::CsxSym(m) => m.size_bytes(),
            Storage::Hybrid {
                sss,
                csx,
                use_stream,
            } => {
                // Per-chunk: the stream when adopted, SSS rows otherwise;
                // the shared dvalues/rowptr overhead counted once via SSS.
                let mut bytes = 8 * sss.n() as usize + 4 * (sss.n() as usize + 1);
                for (chunk, &streamed) in csx.chunks().iter().zip(use_stream) {
                    if streamed {
                        bytes += chunk.stream.size_bytes();
                    } else {
                        bytes += 12 * chunk.stream.values.len();
                    }
                }
                bytes
            }
        };

        // The write-set certificate covers the partition and reduction for
        // any storage; the CSX-Sym boundary rule (§IV-B) is an additional
        // per-stream obligation, checked here while the encoding is fresh.
        #[cfg(debug_assertions)]
        if let Storage::CsxSym(m) | Storage::Hybrid { csx: m, .. } = &storage {
            if let Err(e) = symspmv_verify::certify_csx_chunks(
                m.chunks().iter().map(|c| &c.stream),
                &parts,
                plan.fingerprint,
                n as u32,
                kind,
            ) {
                unreachable!("CSX-Sym encoding failed boundary certification: {e}");
            }
        }

        SymSpmv {
            n,
            nnz_full,
            kind,
            method,
            storage,
            plan,
            block_certs: std::collections::HashMap::new(),
            ctx: Arc::clone(ctx),
            times,
            size_bytes,
        }
    }

    /// The row partition in use.
    pub fn partitions(&self) -> &[Range] {
        &self.plan.parts
    }

    /// The certified plan this kernel dispatches with.
    pub fn plan(&self) -> &Arc<CachedSymPlan> {
        &self.plan
    }

    /// The race certificate proving the plan's write sets are disjoint.
    pub fn certificate(&self) -> &symspmv_verify::RaceCertificate {
        &self.plan.cert
    }

    /// The lane-lifted block-write certificate for a given lane count,
    /// minted by the first [`ParallelSpmm::spmm`] call with that many
    /// lanes (`None` before then). The scalar certificate's row conflicts
    /// are lane-independent, so the lift re-checks only the lane scaling
    /// of the layout (see `symspmv_verify::lift_sym_certificate`).
    pub fn block_certificate(&self, lanes: usize) -> Option<&Arc<symspmv_verify::RaceCertificate>> {
        self.block_certs.get(&lanes)
    }

    /// Obtains (and memoizes) the lane-lifted certificate for `lanes`.
    fn obtain_block_certificate(&mut self, lanes: usize) -> Arc<symspmv_verify::RaceCertificate> {
        if let Some(cert) = self.block_certs.get(&lanes) {
            return Arc::clone(cert);
        }
        let block_offsets: Vec<usize> = self.plan.offsets.iter().map(|o| o * lanes).collect();
        let cert = match symspmv_verify::lift_sym_certificate(
            &self.plan.cert,
            lanes,
            &self.plan.offsets,
            self.plan.local_len,
            &block_offsets,
            self.plan.local_len * lanes,
        ) {
            Ok(c) => Arc::new(c),
            // The kernel derives the block layout by scaling the certified
            // scalar plan, so a failed lift means the lifter itself broke.
            Err(e) => unreachable!("lane-lifting a certified plan failed: {e}"),
        };
        self.block_certs.insert(lanes, Arc::clone(&cert));
        cert
    }

    /// The symmetry kind the kernel's mirror contributions follow.
    pub fn kind(&self) -> SymmetryKind {
        self.kind
    }

    /// The reduction method in use.
    pub fn method(&self) -> ReductionMethod {
        self.method
    }

    /// Number of color groups of a scheduled (race) plan; `None` for the
    /// reduction-based strategies.
    pub fn schedule_groups(&self) -> Option<usize> {
        self.plan.schedule.as_ref().map(|s| s.groups.len())
    }

    /// Elements of local-vector store leased from the arena per call —
    /// `p·N` for the naive layout, `Σ start_i` for the effective layouts
    /// (the working-set term of Eqs. 3/4/6).
    pub fn local_len(&self) -> usize {
        self.plan.local_len
    }

    /// The conflict index (meaningful for index-consuming strategies).
    pub fn conflict_index(&self) -> &ConflictIndex {
        &self.plan.index
    }

    /// Substructure coverage of the CSX-Sym encoding (0 for SSS).
    pub fn csx_coverage(&self) -> f64 {
        match &self.storage {
            Storage::Sss(_) => 0.0,
            Storage::CsxSym(m) => m.coverage(),
            Storage::Hybrid { csx, .. } => csx.coverage(),
        }
    }

    /// The CSX-Sym storage, when that format is in use.
    pub fn csx_sym(&self) -> Option<&CsxSymMatrix> {
        match &self.storage {
            Storage::Sss(_) => None,
            Storage::CsxSym(m) => Some(m),
            Storage::Hybrid { csx, .. } => Some(csx),
        }
    }

    /// For the hybrid format: which chunks adopted the stream encoding.
    pub fn hybrid_streamed_chunks(&self) -> Option<&[bool]> {
        match &self.storage {
            Storage::Hybrid { use_stream, .. } => Some(use_stream),
            _ => None,
        }
    }

    /// The multiply phase, monomorphized per [`SymmetryKind`] at the
    /// dispatch boundary: the `Symmetric` instantiation compiles to the
    /// pre-kind code (the mirror coefficient is the stored value itself and
    /// the paired load folds away), so the hot path is unchanged.
    fn multiply(&self, x: &[Val], y: &mut [Val], flat_buf: SharedBuf<'_>) {
        with_symmetry_ops!(self.kind, O => self.multiply_ops::<O>(x, y, flat_buf));
    }

    fn multiply_ops<O: SymmetryOps>(&self, x: &[Val], y: &mut [Val], flat_buf: SharedBuf<'_>) {
        let y_buf = SharedBuf::new(y);
        if let Some(schedule) = &self.plan.schedule {
            let Storage::Sss(sss) = &self.storage else {
                unreachable!("the race schedule supports the SSS format only")
            };
            self.multiply_race::<O>(sss, schedule, x, y_buf);
            return;
        }
        let parts: &[Range] = &self.plan.parts;
        let offsets = &self.plan.offsets;
        let n = self.n;
        let direct = self.method.strategy().direct_write();
        match &self.storage {
            Storage::Hybrid {
                sss,
                csx,
                use_stream,
            } => {
                assert!(
                    direct,
                    "the hybrid format supports the direct-write methods only"
                );
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: effective-region): region [off, off+split)
                    // is this thread's declared slice of the leased store.
                    let l = unsafe { flat_buf.range_mut(offsets[tid], offsets[tid] + split) };
                    // SAFETY(cert: disjoint-direct): direct writes stay in
                    // our own rows.
                    let my_y = unsafe { y_buf.range_mut(split, part.end as usize) };
                    if use_stream[tid] {
                        let chunk = &csx.chunks()[tid];
                        let dv = &csx.dvalues()[split..part.end as usize];
                        let xs = &x[split..part.end as usize];
                        for ((slot, &d), &xi) in my_y.iter_mut().zip(dv).zip(xs) {
                            *slot = d * xi;
                        }
                        spmv_sym_stream::<O>(
                            &chunk.stream,
                            chunk.paired_values(),
                            x,
                            my_y,
                            split,
                            l,
                        );
                    } else {
                        sss_multiply_direct::<O>(sss, part, x, my_y, l);
                    }
                });
            }
            Storage::Sss(sss) if !direct => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    // SAFETY(cert: effective-region): the naive layout gives
                    // this thread the private region [tid·n, (tid+1)·n).
                    let l = unsafe { flat_buf.range_mut(offsets[tid], offsets[tid] + n) };
                    let dv = sss.dvalues();
                    for r in part.start..part.end {
                        let (cols, vals, pair) = sss.row_with_paired(r);
                        let xr = x[r as usize];
                        // Same op order as the direct-write path: diagonal
                        // joins at the final fold, not the accumulator seed.
                        let mut acc = 0.0;
                        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                            acc += v * x[c as usize];
                            l[c as usize] += O::transposed(v, u) * xr;
                        }
                        l[r as usize] += dv[r as usize] * xr + acc;
                    }
                });
            }
            Storage::Sss(sss) => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: effective-region): region [off, off+split)
                    // is this thread's declared slice of the leased store.
                    let l = unsafe { flat_buf.range_mut(offsets[tid], offsets[tid] + split) };
                    // SAFETY(cert: disjoint-direct): every direct write
                    // targets our own rows — the row r itself, and transposed
                    // targets c ∈ [split, r). Taking the range as a plain
                    // slice keeps the hot loop free of raw-pointer writes the
                    // compiler can't reason about.
                    let my_y = unsafe { y_buf.range_mut(split, part.end as usize) };
                    sss_multiply_direct::<O>(sss, part, x, my_y, l);
                });
            }
            Storage::CsxSym(m) if !direct => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    // SAFETY(cert: effective-region): the naive layout gives
                    // this thread the full-length private region.
                    let l = unsafe { flat_buf.range_mut(offsets[tid], offsets[tid] + n) };
                    let dv = m.dvalues();
                    for r in part.start..part.end {
                        l[r as usize] += dv[r as usize] * x[r as usize];
                    }
                    let chunk = &m.chunks()[tid];
                    spmv_sym_stream_local_only::<O>(&chunk.stream, chunk.paired_values(), x, l);
                });
            }
            Storage::CsxSym(m) => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: effective-region): region [off, off+split)
                    // is this thread's declared slice of the leased store.
                    let l = unsafe { flat_buf.range_mut(offsets[tid], offsets[tid] + split) };
                    // SAFETY(cert: disjoint-direct): the chunk's direct
                    // writes all land in our own rows (r itself and
                    // transposed c ∈ [split, r)); the csx-boundary check
                    // keeps encoded patterns from crossing the split.
                    let my_y = unsafe { y_buf.range_mut(split, part.end as usize) };
                    let dv = &m.dvalues()[split..part.end as usize];
                    let xs = &x[split..part.end as usize];
                    for ((slot, &d), &xi) in my_y.iter_mut().zip(dv).zip(xs) {
                        *slot = d * xi;
                    }
                    let chunk = &m.chunks()[tid];
                    spmv_sym_stream::<O>(&chunk.stream, chunk.paired_values(), x, my_y, split, l);
                });
            }
        }
    }

    fn reduce(&self, y: &mut [Val], flat_buf: SharedBuf<'_>) {
        self.reduce_lanes(y, flat_buf, 1);
    }

    /// The fold phase over lane-interleaved buffers: the strategy visits
    /// each conflicting row once and folds all `lanes` of its group — the
    /// Eq. 3–6 working-set win multiplied by `k`.
    fn reduce_lanes(&self, y: &mut [Val], flat_buf: SharedBuf<'_>, lanes: usize) {
        let job = ReduceJob {
            y: SharedBuf::new(y),
            locals: flat_buf,
            n: self.n,
            parts: &self.plan.parts,
            offsets: &self.plan.offsets,
            row_chunks: &self.plan.reduce_chunks,
            entries: &self.plan.index.entries,
            splits: &self.plan.index.splits,
            lanes,
        };
        self.ctx
            .with_pool(|pool| self.method.strategy().reduce(pool, &job));
    }

    /// The batched multiply phase: identical dispatch structure to
    /// [`SymSpmv::multiply`], with every buffer lane-interleaved and every
    /// storage arm delegating to its `_block` kernel. Per-thread regions
    /// are the scalar plan's regions scaled by `lanes` — exactly the
    /// scaling the lane-lifted certificate re-checks.
    fn multiply_block(&self, x: &VectorBlock, y: &mut VectorBlock, flat_buf: SharedBuf<'_>) {
        with_symmetry_ops!(self.kind, O => self.multiply_block_ops::<O>(x, y, flat_buf));
    }

    fn multiply_block_ops<O: SymmetryOps>(
        &self,
        x: &VectorBlock,
        y: &mut VectorBlock,
        flat_buf: SharedBuf<'_>,
    ) {
        let lanes = x.lanes();
        let y_buf = SharedBuf::new(y.as_mut_slice());
        let x = x.as_slice();
        if let Some(schedule) = &self.plan.schedule {
            let Storage::Sss(sss) = &self.storage else {
                unreachable!("the race schedule supports the SSS format only")
            };
            self.multiply_race_block::<O>(sss, schedule, lanes, x, y_buf);
            return;
        }
        let parts: &[Range] = &self.plan.parts;
        let offsets = &self.plan.offsets;
        let n = self.n;
        let direct = self.method.strategy().direct_write();
        match &self.storage {
            Storage::Hybrid {
                sss,
                csx,
                use_stream,
            } => {
                assert!(
                    direct,
                    "the hybrid format supports the direct-write methods only"
                );
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: lane-lifted): the scalar effective region
                    // [off, off+split) scales to lane groups without overlap.
                    let l = unsafe {
                        flat_buf.range_mut(offsets[tid] * lanes, (offsets[tid] + split) * lanes)
                    };
                    // SAFETY(cert: lane-lifted): direct lane groups stay in
                    // our own rows, scaled from the disjoint scalar tiling.
                    let my_y = unsafe { y_buf.range_mut(split * lanes, part.end as usize * lanes) };
                    if use_stream[tid] {
                        let chunk = &csx.chunks()[tid];
                        init_diag_block(csx.dvalues(), part, lanes, x, my_y);
                        spmm_sym_stream::<O>(
                            &chunk.stream,
                            chunk.paired_values(),
                            x,
                            my_y,
                            split,
                            l,
                            lanes,
                        );
                    } else {
                        sss_multiply_direct_block::<O>(sss, part, lanes, x, my_y, l);
                    }
                });
            }
            Storage::Sss(sss) if !direct => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    // SAFETY(cert: lane-lifted): the naive layout's private
                    // region [tid·n, (tid+1)·n) scales to lane groups.
                    let l = unsafe {
                        flat_buf.range_mut(offsets[tid] * lanes, (offsets[tid] + n) * lanes)
                    };
                    let dv = sss.dvalues();
                    for r in part.start..part.end {
                        let (cols, vals, pair) = sss.row_with_paired(r);
                        let ru = r as usize;
                        let xr = &x[ru * lanes..(ru + 1) * lanes];
                        let mut acc = [0.0; MAX_LANES];
                        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                            let c = c as usize;
                            let t = O::transposed(v, u);
                            let xc = &x[c * lanes..(c + 1) * lanes];
                            let lt = &mut l[c * lanes..(c + 1) * lanes];
                            for j in 0..lanes {
                                acc[j] += v * xc[j];
                                lt[j] += t * xr[j];
                            }
                        }
                        let lr = &mut l[ru * lanes..(ru + 1) * lanes];
                        let d = dv[ru];
                        for j in 0..lanes {
                            lr[j] += d * xr[j] + acc[j];
                        }
                    }
                });
            }
            Storage::Sss(sss) => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: lane-lifted): the scalar effective region
                    // [off, off+split) scales to lane groups without overlap.
                    let l = unsafe {
                        flat_buf.range_mut(offsets[tid] * lanes, (offsets[tid] + split) * lanes)
                    };
                    // SAFETY(cert: lane-lifted): direct lane groups stay in
                    // our own rows, scaled from the disjoint scalar tiling.
                    let my_y = unsafe { y_buf.range_mut(split * lanes, part.end as usize * lanes) };
                    sss_multiply_direct_block::<O>(sss, part, lanes, x, my_y, l);
                });
            }
            Storage::CsxSym(m) if !direct => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    // SAFETY(cert: lane-lifted): the naive layout's private
                    // full-length region scales to lane groups.
                    let l = unsafe {
                        flat_buf.range_mut(offsets[tid] * lanes, (offsets[tid] + n) * lanes)
                    };
                    let dv = m.dvalues();
                    for r in part.start..part.end {
                        let ru = r as usize;
                        let d = dv[ru];
                        for j in 0..lanes {
                            l[ru * lanes + j] += d * x[ru * lanes + j];
                        }
                    }
                    let chunk = &m.chunks()[tid];
                    spmm_sym_stream_local_only::<O>(
                        &chunk.stream,
                        chunk.paired_values(),
                        x,
                        l,
                        lanes,
                    );
                });
            }
            Storage::CsxSym(m) => {
                self.ctx.run(&|tid| {
                    let part = parts[tid];
                    if part.is_empty() {
                        return;
                    }
                    let split = part.start as usize;
                    // SAFETY(cert: lane-lifted): the scalar effective region
                    // [off, off+split) scales to lane groups without overlap.
                    let l = unsafe {
                        flat_buf.range_mut(offsets[tid] * lanes, (offsets[tid] + split) * lanes)
                    };
                    // SAFETY(cert: lane-lifted): the chunk's direct lane
                    // groups all land in our own rows; the csx-boundary
                    // check keeps encoded patterns from crossing the split.
                    let my_y = unsafe { y_buf.range_mut(split * lanes, part.end as usize * lanes) };
                    let chunk = &m.chunks()[tid];
                    init_diag_block(m.dvalues(), part, lanes, x, my_y);
                    spmm_sym_stream::<O>(
                        &chunk.stream,
                        chunk.paired_values(),
                        x,
                        my_y,
                        split,
                        l,
                        lanes,
                    );
                });
            }
        }
    }

    /// The reduction-free scheduled multiply (ROADMAP item 3, RACE): a
    /// diagonal pre-pass over disjoint row chunks, then one barriered pool
    /// round per group. Within a group the certificate proves the write
    /// sets `{r} ∪ cols(r)` pairwise disjoint, so every thread scatters
    /// into `y` directly — zero local vectors, zero atomics; the reduce
    /// phase never runs (`local_len == 0`).
    fn multiply_race<O: SymmetryOps>(
        &self,
        sss: &SssMatrix,
        schedule: &GroupSchedule,
        x: &[Val],
        y_buf: SharedBuf<'_>,
    ) {
        let chunks: &[Range] = &self.plan.reduce_chunks;
        let dv = sss.dvalues();
        self.ctx.run(&|tid| {
            let chunk = chunks[tid];
            if chunk.is_empty() {
                return;
            }
            // SAFETY(cert: disjoint-direct): the row chunks tile 0..n, so
            // this diagonal pre-pass writes each y[r] exactly once.
            let my_y = unsafe { y_buf.range_mut(chunk.start as usize, chunk.end as usize) };
            let dvs = &dv[chunk.start as usize..chunk.end as usize];
            let xs = &x[chunk.start as usize..chunk.end as usize];
            for ((slot, &d), &xi) in my_y.iter_mut().zip(dvs).zip(xs) {
                *slot = d * xi;
            }
        });
        for (rows, parts) in schedule.groups.iter().zip(&schedule.group_parts) {
            self.ctx.run(&|tid| {
                let part = parts[tid];
                for &r in &rows[part.start as usize..part.end as usize] {
                    let (cols, vals, pair) = sss.row_with_paired(r);
                    let xr = x[r as usize];
                    let mut acc = 0.0;
                    for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                        acc += v * x[c as usize];
                        // SAFETY(cert: color-class): rows of one group never
                        // share a write target, and the barrier between
                        // group rounds orders cross-group writes.
                        unsafe { y_buf.add(c as usize, O::transposed(v, u) * xr) };
                    }
                    // SAFETY(cert: color-class): y[r] is claimed by row r
                    // alone within this group.
                    unsafe { y_buf.add(r as usize, acc) };
                }
            });
        }
    }

    /// The batched twin of [`SymSpmv::multiply_race`]: identical traversal
    /// with lane-interleaved buffers and the lanes innermost, so every lane
    /// computes the scalar schedule's exact float sequence.
    fn multiply_race_block<O: SymmetryOps>(
        &self,
        sss: &SssMatrix,
        schedule: &GroupSchedule,
        lanes: usize,
        x: &[Val],
        y_buf: SharedBuf<'_>,
    ) {
        let chunks: &[Range] = &self.plan.reduce_chunks;
        let dv = sss.dvalues();
        self.ctx.run(&|tid| {
            let chunk = chunks[tid];
            if chunk.is_empty() {
                return;
            }
            let (lo, hi) = (chunk.start as usize * lanes, chunk.end as usize * lanes);
            // SAFETY(cert: lane-lifted): the disjoint row chunks scale to
            // disjoint lane groups.
            let my_y = unsafe { y_buf.range_mut(lo, hi) };
            let split = chunk.start as usize;
            for r in split..chunk.end as usize {
                let d = dv[r];
                let xr = &x[r * lanes..(r + 1) * lanes];
                let yr = &mut my_y[(r - split) * lanes..(r - split + 1) * lanes];
                for j in 0..lanes {
                    yr[j] = d * xr[j];
                }
            }
        });
        for (rows, parts) in schedule.groups.iter().zip(&schedule.group_parts) {
            self.ctx.run(&|tid| {
                let part = parts[tid];
                for &r in &rows[part.start as usize..part.end as usize] {
                    let (cols, vals, pair) = sss.row_with_paired(r);
                    let ru = r as usize;
                    let xr = &x[ru * lanes..(ru + 1) * lanes];
                    let mut acc = [0.0; MAX_LANES];
                    for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                        let c = c as usize;
                        let t = O::transposed(v, u);
                        let xc = &x[c * lanes..(c + 1) * lanes];
                        for j in 0..lanes {
                            acc[j] += v * xc[j];
                            // SAFETY(cert: color-class): lane groups of the
                            // group's pairwise-disjoint targets never
                            // overlap within a group round.
                            unsafe { y_buf.add(c * lanes + j, t * xr[j]) };
                        }
                    }
                    for (j, a) in acc.iter().enumerate().take(lanes) {
                        // SAFETY(cert: color-class): y[r,·] is claimed by
                        // row r alone within this group.
                        unsafe { y_buf.add(ru * lanes + j, *a) };
                    }
                }
            });
        }
    }

    /// Whether the reduce phase has any work at all: with one thread (or a
    /// degenerate partition) the direct-write layouts declare an empty
    /// conflict region, and an index-consuming strategy with zero conflict
    /// entries folds nothing — either way the multiply phase already left
    /// `y` complete and the leased store untouched (all-zero), so the
    /// reduction round is skipped entirely.
    fn reduce_has_work(&self) -> bool {
        if self.plan.local_len == 0 {
            return false;
        }
        !(self.method.strategy().needs_index() && self.plan.index.entries.is_empty())
    }
}

/// The direct-write SSS multiply body for one partition: row results and
/// in-partition transposed writes go to `my_y` (the partition's slice of
/// the output vector, starting at the partition boundary), conflicting
/// transposed writes to the thread's effective-region `local`.
///
/// Monomorphized per symmetry kind: the mirror coefficient is
/// `O::transposed(v, u)` with `u` the paired upper value (aliasing `v` for
/// the numeric kinds, so the `Symmetric` instantiation is the pre-kind
/// loop, bit for bit).
fn sss_multiply_direct<O: SymmetryOps>(
    sss: &SssMatrix,
    part: Range,
    x: &[Val],
    my_y: &mut [Val],
    local: &mut [Val],
) {
    let split = part.start as usize;
    let dv = sss.dvalues();
    for r in part.start..part.end {
        let (cols, vals, pair) = sss.row_with_paired(r);
        let xr = x[r as usize];
        // The accumulator starts at zero and the diagonal term joins at the
        // final write — the exact op order of the serial reference
        // (`SssMatrix::spmv`), so a single-thread direct-write run is
        // bit-identical to it (the conformance oracle's exactness class).
        let mut acc = 0.0;
        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
            let c = c as usize;
            acc += v * x[c];
            let t = O::transposed(v, u);
            if c >= split {
                my_y[c - split] += t * xr;
            } else {
                local[c] += t * xr;
            }
        }
        // Assignment is sound: this thread's earlier transposed writes only
        // target rows below r.
        my_y[r as usize - split] = dv[r as usize] * xr + acc;
    }
}

/// The batched (`lanes` right-hand sides) twin of [`sss_multiply_direct`]:
/// same traversal, same per-lane op order, with `x`/`my_y`/`local` holding
/// lane-interleaved groups. One pass over the matrix updates all lanes, so
/// the matrix traffic is amortized `lanes`-fold while every lane computes
/// the scalar kernel's exact float sequence.
fn sss_multiply_direct_block<O: SymmetryOps>(
    sss: &SssMatrix,
    part: Range,
    lanes: usize,
    x: &[Val],
    my_y: &mut [Val],
    local: &mut [Val],
) {
    let split = part.start as usize;
    let dv = sss.dvalues();
    for r in part.start..part.end {
        let (cols, vals, pair) = sss.row_with_paired(r);
        let ru = r as usize;
        let xr = &x[ru * lanes..(ru + 1) * lanes];
        let mut acc = [0.0; MAX_LANES];
        for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
            let c = c as usize;
            let t = O::transposed(v, u);
            let xc = &x[c * lanes..(c + 1) * lanes];
            let target = if c >= split {
                &mut my_y[(c - split) * lanes..(c - split + 1) * lanes]
            } else {
                &mut local[c * lanes..(c + 1) * lanes]
            };
            for j in 0..lanes {
                acc[j] += v * xc[j];
                target[j] += t * xr[j];
            }
        }
        let yr = &mut my_y[(ru - split) * lanes..(ru - split + 1) * lanes];
        let d = dv[ru];
        for j in 0..lanes {
            yr[j] = d * xr[j] + acc[j];
        }
    }
}

/// Initializes a partition's slice of the block output with the diagonal
/// term `y[r,·] = d_r · x[r,·]` — the batched twin of the scalar stream
/// kernels' diagonal pre-pass.
fn init_diag_block(dvalues: &[Val], part: Range, lanes: usize, x: &[Val], my_y: &mut [Val]) {
    let split = part.start as usize;
    for r in split..part.end as usize {
        let d = dvalues[r];
        let xr = &x[r * lanes..(r + 1) * lanes];
        let yr = &mut my_y[(r - split) * lanes..(r - split + 1) * lanes];
        for j in 0..lanes {
            yr[j] = d * xr[j];
        }
    }
}

impl ParallelSpmv for SymSpmv {
    fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);

        // Dispatch gate: the memoized certificate must describe exactly
        // this configuration. Catches a plan reused across a renumbering
        // or a thread-count change (debug builds only; the re-fingerprint
        // walks the structure).
        #[cfg(debug_assertions)]
        if let Storage::Sss(sss) | Storage::Hybrid { sss, .. } = &self.storage {
            if let Err(e) = self.plan.cert.validate_for(
                sss.fingerprint(),
                self.ctx.nthreads(),
                "sym-sss",
                &self.plan.cert.strategy,
            ) {
                unreachable!("dispatching with a stale race certificate: {e}");
            }
        }

        // The lease must borrow the local Arc, not `self.ctx`, so the
        // timed phases below can still borrow `self`.
        let ctx = Arc::clone(&self.ctx);
        let mut locals = ctx.lease(self.plan.local_len);
        let flat_buf = SharedBuf::new(&mut locals);

        let mut multiply = std::mem::take(&mut self.times.multiply);
        time_into(&mut multiply, || self.multiply(x, y, flat_buf));
        self.times.multiply = multiply;

        if self.reduce_has_work() {
            let mut reduce = std::mem::take(&mut self.times.reduce);
            // The strategy re-zeroes every local element the multiply phase
            // wrote, which is exactly what the lease contract requires.
            time_into(&mut reduce, || self.reduce(y, flat_buf));
            self.times.reduce = reduce;
        }
    }

    fn n(&self) -> usize {
        self.n
    }

    fn nnz_full(&self) -> usize {
        self.nnz_full
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    fn times(&self) -> PhaseTimes {
        self.times
    }

    fn reset_times(&mut self) {
        self.times = PhaseTimes::new();
    }

    fn name(&self) -> Cow<'static, str> {
        let fmt = match self.storage {
            Storage::Sss(_) => "sss",
            Storage::CsxSym(_) => "csxsym",
            Storage::Hybrid { .. } => "hybrid",
        };
        match (fmt, self.method.tag()) {
            ("sss", "naive") => Cow::Borrowed("sss-naive"),
            ("sss", "eff") => Cow::Borrowed("sss-eff"),
            ("sss", "idx") => Cow::Borrowed("sss-idx"),
            ("sss", "race") => Cow::Borrowed("sss-race"),
            ("csxsym", "naive") => Cow::Borrowed("csxsym-naive"),
            ("csxsym", "eff") => Cow::Borrowed("csxsym-eff"),
            ("csxsym", "idx") => Cow::Borrowed("csxsym-idx"),
            ("hybrid", "eff") => Cow::Borrowed("hybrid-eff"),
            ("hybrid", "idx") => Cow::Borrowed("hybrid-idx"),
            (fmt, tag) => unreachable!("{fmt}-{tag} is rejected at construction"),
        }
    }

    fn context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

impl ParallelSpmm for SymSpmv {
    fn spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) {
        assert_eq!(x.n(), self.n, "x block dimension mismatch");
        assert_eq!(y.n(), self.n, "y block dimension mismatch");
        assert_eq!(x.lanes(), y.lanes(), "lane count mismatch");
        let lanes = x.lanes();

        // Mint (or fetch) the lane-lifted block-write certificate — every
        // SpMM dispatch is covered by a certificate proving the scaled
        // layout inherits the scalar plan's disjointness.
        let cert = self.obtain_block_certificate(lanes);
        debug_assert!(cert.proves("lane-lifted"));
        #[cfg(debug_assertions)]
        if let Storage::Sss(sss) | Storage::Hybrid { sss, .. } = &self.storage {
            if let Err(e) = cert.validate_for(
                sss.fingerprint(),
                self.ctx.nthreads(),
                "sym-sss",
                &self.plan.cert.strategy,
            ) {
                unreachable!("dispatching SpMM with a stale block certificate: {e}");
            }
        }

        let ctx = Arc::clone(&self.ctx);
        let mut locals = ctx.lease(self.plan.local_len * lanes);
        let flat_buf = SharedBuf::new(&mut locals);

        let mut multiply = std::mem::take(&mut self.times.multiply);
        time_into(&mut multiply, || self.multiply_block(x, y, flat_buf));
        self.times.multiply = multiply;

        if self.reduce_has_work() {
            let mut reduce = std::mem::take(&mut self.times.reduce);
            time_into(&mut reduce, || {
                self.reduce_lanes(y.as_mut_slice(), flat_buf, lanes)
            });
            self.times.reduce = reduce;
        }
    }

    fn spmm_context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

impl crate::traits::SymbolicDescribe for SymSpmv {
    fn structure_facts(&self) -> Option<symspmv_verify::StructureFacts> {
        match &self.storage {
            Storage::Sss(sss) | Storage::Hybrid { sss, .. } => {
                Some(symspmv_verify::StructureFacts::of(sss))
            }
            // The pure stream encoding discards the row-wise SSS structure
            // the facts are distilled from; its boundary rule is certified
            // by the CSX checker instead.
            Storage::CsxSym(_) => None,
        }
    }

    fn recertify_symbolic(
        &self,
    ) -> Option<Result<symspmv_verify::RaceCertificate, symspmv_verify::VerifyError>> {
        let facts = self.structure_facts()?;
        if let Some(schedule) = &self.plan.schedule {
            let Storage::Sss(sss) = &self.storage else {
                unreachable!("the race schedule supports the SSS format only")
            };
            return Some(
                symspmv_verify::ColoringFacts::establish(
                    sss,
                    &schedule.levels,
                    &schedule.subcolors,
                )
                .and_then(|coloring| {
                    symspmv_verify::certify_race_symbolic(
                        &facts,
                        &coloring,
                        &schedule.group_of,
                        &schedule.groups,
                        &schedule.group_parts,
                        self.ctx.nthreads(),
                    )
                }),
            );
        }
        let kind = symspmv_verify::SymStrategyKind::from_tag(&self.plan.cert.strategy)?;
        let plan_ref = symspmv_verify::SymPlanRef {
            parts: &self.plan.parts,
            offsets: &self.plan.offsets,
            local_len: self.plan.local_len,
            strategy: kind,
            entries: &self.plan.index.entries,
            splits: &self.plan.index.splits,
            row_chunks: &self.plan.reduce_chunks,
        };
        Some(symspmv_verify::certify_sym_symbolic(
            &facts,
            &plan_ref,
            &self.plan.index.conflicts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    fn csx_cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    fn all_engines(coo: &CooMatrix, ctx: &Arc<ExecutionContext>) -> Vec<SymSpmv> {
        let mut v = Vec::new();
        for method in [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ] {
            v.push(SymSpmv::from_coo(coo, ctx, method, SymFormat::Sss).unwrap());
            v.push(SymSpmv::from_coo(coo, ctx, method, SymFormat::CsxSym(csx_cfg())).unwrap());
        }
        // The scheduled strategy supports SSS only.
        v.push(SymSpmv::from_coo(coo, ctx, ReductionMethod::Race, SymFormat::Sss).unwrap());
        v
    }

    #[test]
    fn all_methods_match_serial_sss() {
        let coo = symspmv_sparse::gen::banded_random(400, 30, 10.0, 42);
        let n = 400;
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(n, 5);
        let mut y_ref = vec![0.0; n];
        sss.spmv(&x, &mut y_ref);

        for p in [1usize, 2, 3, 7, 8] {
            let ctx = ExecutionContext::new(p);
            for mut eng in all_engines(&coo, &ctx) {
                let mut y = vec![f64::NAN; n];
                eng.spmv(&x, &mut y);
                assert_vec_close(&y, &y_ref, 1e-12);
                // Second call must give identical results (locals re-zeroed).
                let mut y2 = vec![f64::NAN; n];
                eng.spmv(&x, &mut y2);
                assert_vec_close(&y2, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn high_bandwidth_matrix_all_methods() {
        // Scattered entries exercise the conflict-heavy path.
        let coo = symspmv_sparse::gen::mixed_bandwidth(500, 8.0, 0.3, 5, 77);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(500, 9);
        let mut y_ref = vec![0.0; 500];
        sss.spmv(&x, &mut y_ref);
        let ctx = ExecutionContext::new(6);
        for mut eng in all_engines(&coo, &ctx) {
            let mut y = vec![0.0; 500];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn spmm_lanes_bitwise_match_spmv_all_engines() {
        let coo = symspmv_sparse::gen::mixed_bandwidth(350, 7.0, 0.25, 4, 33);
        for p in [1usize, 3, 8] {
            let ctx = ExecutionContext::new(p);
            for mut eng in all_engines(&coo, &ctx) {
                for lanes in [1usize, 2, 4] {
                    let x = VectorBlock::seeded(350, lanes, 60);
                    let mut y = VectorBlock::zeros(350, lanes);
                    eng.spmm(&x, &mut y);
                    let cert = eng.block_certificate(lanes).unwrap();
                    assert!(cert.proves("lane-lifted"));
                    assert_eq!(cert.lanes, lanes);
                    for j in 0..lanes {
                        let mut yj = vec![0.0; 350];
                        eng.spmv(&x.lane(j), &mut yj);
                        assert_eq!(
                            y.lane(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{} p={p} lanes={lanes}: lane {j} not bit-identical",
                            eng.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn spmm_hybrid_format_matches_spmv() {
        let coo = symspmv_sparse::gen::block_structural(100, 3, 10.0, 15, 9);
        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::Hybrid {
                csx: csx_cfg(),
                min_coverage: 0.0,
            },
        )
        .unwrap();
        let n = eng.n();
        let x = VectorBlock::seeded(n, 8, 3);
        let mut y = VectorBlock::zeros(n, 8);
        eng.spmm(&x, &mut y);
        for j in 0..8 {
            let mut yj = vec![0.0; n];
            eng.spmv(&x.lane(j), &mut yj);
            assert_eq!(
                y.lane(j).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "hybrid lane {j} not bit-identical"
            );
        }
    }

    #[test]
    fn block_matrix_csx_sym_compresses_beyond_sss() {
        let coo = symspmv_sparse::gen::block_structural(120, 3, 12.0, 20, 3);
        let ctx = ExecutionContext::new(4);
        let sss_eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let csx_eng = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(csx_cfg()),
        )
        .unwrap();
        assert!(
            csx_eng.size_bytes() < sss_eng.size_bytes(),
            "CSX-Sym {} vs SSS {}",
            csx_eng.size_bytes(),
            sss_eng.size_bytes()
        );
        assert!(csx_eng.csx_coverage() > 0.5);
    }

    #[test]
    fn phase_times_recorded() {
        let coo = symspmv_sparse::gen::laplacian_2d(30, 30);
        let ctx = ExecutionContext::new(4);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let x = seeded_vector(900, 1);
        let mut y = vec![0.0; 900];
        eng.spmv(&x, &mut y);
        let t = eng.times();
        assert!(t.multiply > std::time::Duration::ZERO);
        eng.reset_times();
        assert_eq!(eng.times().multiply, std::time::Duration::ZERO);
    }

    #[test]
    fn names_identify_configuration() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let e1 = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        assert_eq!(e1.name(), "sss-naive");
        assert!(
            matches!(e1.name(), Cow::Borrowed(_)),
            "built-in names must not allocate"
        );
        let e2 = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(csx_cfg()),
        )
        .unwrap();
        assert_eq!(e2.name(), "csxsym-idx");
    }

    #[test]
    fn asymmetric_input_rejected() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        let ctx = ExecutionContext::new(2);
        assert!(SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).is_err());
    }

    #[test]
    fn indexing_working_set_smaller_than_effective() {
        // The core claim of §III-C: the index touches far fewer elements
        // than the effective regions contain.
        let coo = symspmv_sparse::gen::banded_random(2000, 50, 12.0, 8);
        let ctx = ExecutionContext::new(8);
        let eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let ci = eng.conflict_index();
        assert!(
            ci.entries.len() < ci.effective_region_len / 2,
            "index {} vs effective region {}",
            ci.entries.len(),
            ci.effective_region_len
        );
        assert!(ci.density() < 0.5);
    }

    #[test]
    fn identity_matrix_edge_case() {
        let mut coo = CooMatrix::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 3.0);
        }
        let ctx = ExecutionContext::new(4);
        for mut eng in all_engines(&coo, &ctx) {
            let x = seeded_vector(16, 2);
            let mut y = vec![0.0; 16];
            eng.spmv(&x, &mut y);
            let expect: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
            assert_vec_close(&y, &expect, 1e-12);
        }
    }

    #[test]
    fn every_method_resolves_to_its_strategy() {
        use ReductionMethod::*;
        for m in [Naive, EffectiveRanges, Indexing, Race] {
            let s = m.strategy();
            assert_eq!(s.name(), m.tag());
            assert_eq!(s.direct_write(), m != Naive, "{m:?}");
            assert_eq!(s.needs_index(), m == Indexing, "{m:?}");
            assert_eq!(s.scheduled(), m == Race, "{m:?}");
        }
    }
}

#[cfg(test)]
mod error_taxonomy_tests {
    use super::*;
    use symspmv_sparse::dense::seeded_vector;

    // SymSpmv has no Debug impl, so Result::unwrap_err is unavailable.
    fn expect_err<T>(res: Result<T, SymSpmvError>) -> SymSpmvError {
        match res {
            Err(e) => e,
            Ok(_) => panic!("construction must fail"),
        }
    }

    #[test]
    fn try_from_coo_rejects_nonfinite_and_asymmetric() {
        let ctx = ExecutionContext::new(2);
        let mut bad = CooMatrix::new(2, 2);
        bad.push(0, 0, f64::NAN);
        let err = expect_err(SymSpmv::try_from_coo(
            &bad,
            &ctx,
            ReductionMethod::Naive,
            SymFormat::Sss,
        ));
        assert!(
            matches!(
                err,
                SymSpmvError::InvalidStructure(SparseError::NonFiniteValue { .. })
            ),
            "{err:?}"
        );

        let mut asym = CooMatrix::new(2, 2);
        asym.push(0, 1, 1.0);
        let err = expect_err(SymSpmv::try_from_coo(
            &asym,
            &ctx,
            ReductionMethod::Naive,
            SymFormat::Sss,
        ));
        assert!(matches!(err, SymSpmvError::InvalidStructure(_)), "{err:?}");
    }

    #[test]
    fn injected_multiply_panic_surfaces_as_worker_panicked() {
        let coo = symspmv_sparse::gen::banded_random(300, 20, 8.0, 17);
        let ctx = ExecutionContext::new(4);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let x = seeded_vector(300, 3);
        let mut y = vec![0.0; 300];
        // Warm up so the arena holds the local-vector buffer (no first-touch
        // rounds interleave with the armed round below).
        eng.try_spmv(&x, &mut y).unwrap();

        // Next pool round is the multiply phase of the next spmv.
        ctx.fault_plan().arm_worker_panic(2, 0);
        let err = eng.try_spmv(&x, &mut y).unwrap_err();
        assert!(
            matches!(err, SymSpmvError::WorkerPanicked { tid: 2, .. }),
            "{err:?}"
        );
        assert!(ctx.arena_all_free_zero(), "arena dirty after worker death");

        // The same engine and context recover and compute correctly.
        let mut y_after = vec![0.0; 300];
        eng.try_spmv(&x, &mut y_after).unwrap();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let mut y_ref = vec![0.0; 300];
        sss.spmv(&x, &mut y_ref);
        symspmv_sparse::dense::assert_vec_close(&y_after, &y_ref, 1e-12);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};
    use symspmv_sparse::CooMatrix;

    fn methods() -> [ReductionMethod; 3] {
        [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ]
    }

    #[test]
    fn far_more_threads_than_rows() {
        // Empty trailing partitions must be handled by every method and
        // both formats.
        let coo = symspmv_sparse::gen::laplacian_2d(3, 3); // N = 9
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(9, 1);
        let mut y_ref = vec![0.0; 9];
        sss.spmv(&x, &mut y_ref);
        let dcfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let ctx = ExecutionContext::new(32);
        for method in methods() {
            for format in [SymFormat::Sss, SymFormat::CsxSym(dcfg.clone())] {
                let mut eng = SymSpmv::from_coo(&coo, &ctx, method, format).unwrap();
                let mut y = vec![f64::NAN; 9];
                eng.spmv(&x, &mut y);
                assert_vec_close(&y, &y_ref, 1e-12);
            }
        }
    }

    #[test]
    fn single_thread_skips_reduction_phase() {
        // p = 1: the conflict region is empty (no row can conflict with a
        // partition that owns everything), so the direct-write methods must
        // run the multiply round only — no reduction round, no reduce time.
        let coo = symspmv_sparse::gen::banded_random(200, 12, 6.0, 21);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(200, 7);
        let mut y_ref = vec![0.0; 200];
        sss.spmv(&x, &mut y_ref);

        for method in [ReductionMethod::EffectiveRanges, ReductionMethod::Indexing] {
            let ctx = ExecutionContext::new(1);
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            assert_eq!(eng.local_len(), 0, "p=1 must declare no conflict region");
            assert!(eng.conflict_index().entries.is_empty());

            let rounds_before = ctx.pool_rounds();
            let mut y = vec![f64::NAN; 200];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
            assert_eq!(
                ctx.pool_rounds() - rounds_before,
                1,
                "{method:?}: p=1 spmv must dispatch the multiply round only"
            );
            assert_eq!(eng.times().reduce, std::time::Duration::ZERO);
        }

        // The naive method still needs its fold with p = 1 — everything
        // goes through the local vector.
        let ctx = ExecutionContext::new(1);
        let mut eng =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        assert_eq!(eng.local_len(), 200);
        let rounds_before = ctx.pool_rounds();
        let mut y = vec![f64::NAN; 200];
        eng.spmv(&x, &mut y);
        assert_vec_close(&y, &y_ref, 1e-12);
        assert!(ctx.pool_rounds() - rounds_before >= 2);
    }

    #[test]
    fn one_by_one_matrix() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 5.0);
        let ctx = ExecutionContext::new(2);
        for method in methods() {
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            let mut y = vec![0.0];
            eng.spmv(&[3.0], &mut y);
            assert_eq!(y, vec![15.0]);
        }
    }

    #[test]
    fn dense_column_zero_matrix() {
        // Every row couples to row 0: thread 1..p's conflicts all collapse
        // to a single idx, stressing the split-independence logic.
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
        let x = seeded_vector(n as usize, 2);
        let mut y_ref = vec![0.0; n as usize];
        sss.spmv(&x, &mut y_ref);
        for p in [2usize, 4, 8] {
            let ctx = ExecutionContext::new(p);
            let mut eng =
                SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
            // Index has exactly p-1 entries, all with idx 0 (minus thread 0).
            let nonempty = eng
                .partitions()
                .iter()
                .skip(1)
                .filter(|r| !r.is_empty())
                .count();
            assert_eq!(eng.conflict_index().entries.len(), nonempty);
            let mut y = vec![0.0; n as usize];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn working_set_allocation_matches_method() {
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16); // N = 256
        let ctx = ExecutionContext::new(4);
        let naive = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss).unwrap();
        let idx = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        // Naive leases p*N local elements; indexing only Σ start_i.
        assert_eq!(naive.local_len(), 4 * 256);
        assert!(
            idx.local_len() < 3 * 256,
            "effective regions are Σ start_i < (p-1)N"
        );
    }

    #[test]
    fn race_schedule_is_reduction_free() {
        // The tentpole property of the RACE scheme: zero local vectors,
        // zero conflict index, no reduce round — just the diagonal
        // pre-pass plus one barriered pool round per color group.
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16); // N = 256
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(256, 11);
        let mut y_ref = vec![0.0; 256];
        sss.spmv(&x, &mut y_ref);

        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss).unwrap();
        assert_eq!(eng.name(), "sss-race");
        assert!(
            matches!(eng.name(), Cow::Borrowed(_)),
            "built-in names must not allocate"
        );
        assert_eq!(eng.method(), ReductionMethod::Race);
        assert_eq!(eng.local_len(), 0, "race leases no local vectors");
        assert!(eng.conflict_index().entries.is_empty());

        let groups = eng.plan.schedule.as_ref().unwrap().groups.len();
        assert!(groups >= 2, "a 2-D Laplacian needs at least two colors");

        let rounds_before = ctx.pool_rounds();
        let mut y = vec![f64::NAN; 256];
        eng.spmv(&x, &mut y);
        assert_vec_close(&y, &y_ref, 1e-12);
        assert_eq!(
            ctx.pool_rounds() - rounds_before,
            1 + groups,
            "one diagonal pre-pass plus one barriered round per group"
        );
        assert_eq!(eng.times().reduce, std::time::Duration::ZERO);
    }

    #[test]
    fn race_certificate_carries_coloring_proof() {
        let coo = symspmv_sparse::gen::banded_random(300, 9, 5.0, 3);
        let ctx = ExecutionContext::new(3);
        let eng = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss).unwrap();
        let cert = eng.certificate().clone();
        assert_eq!(cert.strategy, "race");
        assert_eq!(cert.local_elems, 0);
        assert!(cert.proves("color-class"));
        assert!(cert.proves("disjoint-direct"));
        assert!(matches!(
            cert.proof,
            symspmv_verify::ProofForm::ColoringDisjoint { reach: 2, .. }
        ));
        // The symbolic re-derivation must reproduce the plan-time
        // certificate bit-for-bit.
        use crate::traits::SymbolicDescribe;
        let sym = eng.recertify_symbolic().unwrap().unwrap();
        assert_eq!(sym, cert);
    }

    #[test]
    #[should_panic(expected = "the race schedule supports the SSS format only")]
    fn race_rejects_csxsym() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let _ = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Race,
            SymFormat::CsxSym(DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            }),
        );
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    fn hybrid(threshold: f64) -> SymFormat {
        SymFormat::Hybrid {
            csx: DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
            min_coverage: threshold,
        }
    }

    #[test]
    fn hybrid_matches_serial_on_mixed_structure() {
        // Half the rows blocky (high coverage), half scattered: chunks
        // should split between stream and SSS paths.
        let blocky = symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 2);
        let nb = blocky.nrows();
        let n = nb + 180;
        let mut coo = symspmv_sparse::CooMatrix::new(n, n);
        for (r, c, v) in blocky.iter() {
            coo.push(r, c, v);
        }
        // Scattered tail coupled to itself.
        for i in nb..n {
            coo.push(i, i, 5.0);
            if i >= nb + 7 {
                coo.push(i, i - 7, -0.5);
                coo.push(i - 7, i, -0.5);
            }
        }
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = seeded_vector(n as usize, 4);
        let mut y_ref = vec![0.0; n as usize];
        sss.spmv(&x, &mut y_ref);

        let ctx = ExecutionContext::new(4);
        for method in [ReductionMethod::EffectiveRanges, ReductionMethod::Indexing] {
            let mut eng = SymSpmv::from_coo(&coo, &ctx, method, hybrid(0.5)).unwrap();
            let streamed = eng.hybrid_streamed_chunks().unwrap().to_vec();
            assert!(streamed.iter().any(|&b| b), "blocky chunks should stream");
            let mut y = vec![f64::NAN; n as usize];
            eng.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn hybrid_thresholds_select_paths() {
        let coo = symspmv_sparse::gen::block_structural(80, 3, 8.0, 16, 3);
        let ctx = ExecutionContext::new(3);
        // Threshold 0: everything streams. Threshold > 1: nothing does.
        let all = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, hybrid(0.0)).unwrap();
        assert!(all.hybrid_streamed_chunks().unwrap().iter().all(|&b| b));
        let none = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, hybrid(1.1)).unwrap();
        assert!(none.hybrid_streamed_chunks().unwrap().iter().all(|&b| !b));
        assert_eq!(all.name(), "hybrid-idx");
        // Size: the no-stream hybrid approximates the SSS size.
        let sss = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let ratio = none.size_bytes() as f64 / sss.size_bytes() as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "direct-write methods only")]
    fn hybrid_rejects_naive() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let _ = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Naive, hybrid(0.5));
    }
}
