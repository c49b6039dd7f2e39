//! One benchmark run of one workload.
//!
//! A single closed-loop caller drives one `ExecutionContext` with
//! [`THREADS`] workers: it builds the kernel the library picks for itself
//! (`SymSpmv::auto`, cost model, no plan store), then times SpMV, 8-lane
//! SpMM and CG on it for the run's measuring time. Every timed output and
//! every CG solution is checked against the serial CSR reference outside the
//! timed interval.
//!
//! With tracing off the run yields the end-to-end metrics. With tracing on
//! it yields the per-layer metrics: set-up is rebuilt from the same public
//! steps `auto` takes, each in its own span, and the public clocks and
//! counters of the kernel, the context and the solver are read around the
//! timed calls.

use crate::machine::Machine;
use crate::reference::{Expected, SerialCsr, TRUE_RESIDUAL_BOUND};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{Inputs, Size, Workload, LANES, SPMM_INPUTS, SPMV_INPUTS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use symspmv_core::auto::{cost_model_choice, PlanSpec};
use symspmv_core::ws::{ws_indexing, ws_naive};
use symspmv_core::{ParallelSpmmExt, ParallelSpmv, ReductionMethod, SymSpmv};
use symspmv_runtime::ExecutionContext;
use symspmv_solver::{cg, vecops, CgConfig};
use symspmv_sparse::stats::{matrix_stats, sss_size_bytes};
use symspmv_sparse::{CooMatrix, SssMatrix, VectorBlock};

/// Worker threads of the one execution context: fixed, so that a result
/// means the same on hosts with more CPUs.
const THREADS: usize = 2;
/// CG stopping tolerance on the recurrence residual `‖r‖/‖b‖`.
const CG_TOL: f64 = 1e-8;
const CG_MAX_ITERS: usize = 20_000;

/// Set-up repeats: at least `MIN_SETUPS`, then more while `SETUP_BUDGET`
/// lasts, up to `MAX_SETUPS`. The reported set-up time is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Measuring cycles made whatever the measuring time. With the per-cycle
/// call counts of [`Workload::cycle`] this gives at least 100 timed SpMVs
/// and at least 3 solves. A traced run takes p90 from the half of its SpMVs
/// made outside a span, so it makes twice as many cycles: at least 100
/// samples, ten of them beyond the p90.
const MIN_CYCLES: usize = 3;
const WARMUP_CALLS: usize = 3;
/// Repeats of the per-layer micro-measurements in a traced run.
const ROUND_REPS: usize = 1000;
const VECOP_REPS: usize = 200;
const SERIAL_REPS: usize = 10;

const MIB: f64 = 1024.0 * 1024.0;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of the SpMV, SpMM and CG phases together.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Corrupts every output after its timed call, before its check — the
    /// benchmark's own test that a wrong result is counted as a failure.
    pub perturb_outputs: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Facts of the run, each value already JSON-encoded.
    pub record: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn record_value(&self, key: &str) -> Option<&str> {
        self.record
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Operations attempted and failed: set-ups, SpMVs, SpMMs and solves.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// A certified, ready kernel on its own context.
struct Built {
    ctx: Arc<ExecutionContext>,
    kernel: SymSpmv,
    spec: PlanSpec,
    fingerprint: u64,
}

/// The user's path: `ExecutionContext::new` plus `SymSpmv::auto`.
fn setup_auto(coo: &CooMatrix) -> Result<Built, String> {
    let ctx = ExecutionContext::new(THREADS);
    let (kernel, choice) = SymSpmv::auto(&ctx, coo).map_err(|e| e.to_string())?;
    let fingerprint = kernel.plan().fingerprint;
    Ok(Built {
        ctx,
        kernel,
        spec: choice.spec,
        fingerprint,
    })
}

/// The same set-up as [`setup_auto`], one public call per span: the steps
/// `SymSpmv::auto_with` takes when no plan store is given.
fn setup_traced(coo: &CooMatrix, t: &mut Tracer) -> Result<Built, String> {
    t.span("setup", |t| {
        let ctx = t.span("runtime.context_new", |_| ExecutionContext::new(THREADS));
        let sss = t
            .span("sparse.sss_from_coo", |_| SssMatrix::try_from_coo(coo, 0.0))
            .map_err(|e| e.to_string())?;
        let stats = t.span("sparse.matrix_stats", |_| matrix_stats(coo));
        let fingerprint = t.span("sparse.fingerprint", |_| sss.fingerprint());
        let kind = sss.kind();
        let (spec, _) = t.span("core.cost_model", |_| {
            cost_model_choice(&stats, kind, THREADS)
        });
        let kernel = t.span("core.from_sss", |_| {
            SymSpmv::from_sss(sss, &ctx, spec.method, spec.format.to_format())
        });
        t.span("core.certify", |_| {
            kernel
                .certificate()
                .validate_for(fingerprint, THREADS, "sym-sss", spec.method.tag())
        })
        .map_err(|e| format!("plan failed race certification: {e}"))?;
        Ok(Built {
            ctx,
            kernel,
            spec,
            fingerprint,
        })
    })
}

/// Timed calls of one run, pooled over its cycles.
#[derive(Default)]
struct Samples {
    /// SpMV wall times of the calls made outside a span.
    spmv_plain_ms: Vec<f64>,
    /// SpMV wall times of the calls made inside a span (traced runs).
    spmv_spanned_ms: Vec<f64>,
    /// Kernel clock deltas per SpMV (traced runs).
    multiply_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    spmv_uncovered: Vec<f64>,
    spmv_rounds: usize,
    spmm_ms: Vec<f64>,
    solve_s: Vec<f64>,
    iters: usize,
    total_iters: usize,
    cg_rounds: usize,
    vecops_ms_per_iter: Vec<f64>,
    spmv_ms_per_iter: Vec<f64>,
    cg_uncovered: Vec<f64>,
    worst_true_residual: f64,
}

/// The state the timed phases share: the kernel, the inputs and their
/// expected results, the output buffers, the tally and the tracer.
struct Measure<'a> {
    b: Built,
    inputs: &'a Inputs,
    reference: &'a SerialCsr,
    spmv_expected: Vec<Expected>,
    spmm_expected: Vec<Vec<Expected>>,
    y: Vec<f64>,
    yb: VectorBlock,
    perturb: bool,
    tally: Tally,
    t: Tracer,
    s: Samples,
}

impl Measure<'_> {
    fn spmv_calls(&self) -> usize {
        self.s.spmv_plain_ms.len() + self.s.spmv_spanned_ms.len()
    }

    /// One untimed empty pool round, run right before each timed SpMV or
    /// SpMM. The repository's callers make their SpMVs back to back with
    /// other pool rounds: `cg` and `pcg` between the pool rounds of
    /// `vecops`, the plan search's measurer in a plain loop. So their calls
    /// start while the workers still spin on their channel from the round
    /// before. The output check between two timed calls outlasts that spin
    /// and parks the workers; this round restarts them, so that every timed
    /// call takes the same dispatch path as those callers' calls and as
    /// `runtime.round_us`, and not a wake-up from sleep.
    fn wake(&self) {
        self.b.ctx.run(&|_| {});
    }

    fn warm_up(&mut self) {
        for k in 0..WARMUP_CALLS {
            let _ = self
                .b
                .kernel
                .try_spmv(&self.inputs.xs[k % SPMV_INPUTS], &mut self.y);
            let _ = self
                .b
                .kernel
                .try_spmm(&self.inputs.blocks[k % SPMM_INPUTS], &mut self.yb);
        }
    }

    /// `calls` timed SpMVs, each after [`Measure::wake`] and checked after
    /// it returns. A traced run wraps every other call in a span and reads
    /// the kernel clocks and the pool round counter around every call.
    fn spmv(&mut self, calls: usize) {
        let traced = self.t.enabled();
        for _ in 0..calls {
            let i = self.spmv_calls();
            let x = &self.inputs.xs[i % SPMV_INPUTS];
            let spanned = traced && i.is_multiple_of(2);
            self.wake();
            let clock0 = self.b.kernel.times();
            let rounds0 = self.b.ctx.pool_rounds();
            let t0 = Instant::now();
            let res = if spanned {
                self.t
                    .span("core.spmv", |_| self.b.kernel.try_spmv(x, &mut self.y))
            } else {
                self.b.kernel.try_spmv(x, &mut self.y)
            };
            let wall = t0.elapsed().as_secs_f64();
            let s = &mut self.s;
            if traced {
                let clock = self.b.kernel.times();
                let mult = (clock.multiply - clock0.multiply).as_secs_f64();
                let red = (clock.reduce - clock0.reduce).as_secs_f64();
                s.multiply_ms.push(mult * 1e3);
                s.reduce_ms.push(red * 1e3);
                s.spmv_uncovered.push(1.0 - (mult + red) / wall);
                s.spmv_rounds += self.b.ctx.pool_rounds() - rounds0;
            }
            if spanned {
                s.spmv_spanned_ms.push(wall * 1e3);
            } else {
                s.spmv_plain_ms.push(wall * 1e3);
            }
            if self.perturb {
                self.y[0] += 1.0;
            }
            let ok = res.is_ok() && self.spmv_expected[i % SPMV_INPUTS].matches(&self.y);
            self.tally.count(ok);
        }
    }

    /// `calls` timed 8-lane SpMMs, each after [`Measure::wake`] and checked
    /// after it returns.
    fn spmm(&mut self, calls: usize) {
        for _ in 0..calls {
            let k = self.s.spmm_ms.len() % SPMM_INPUTS;
            let x = &self.inputs.blocks[k];
            self.wake();
            let t0 = Instant::now();
            let res = self
                .t
                .span("core.spmm", |_| self.b.kernel.try_spmm(x, &mut self.yb));
            self.s.spmm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if self.perturb {
                self.yb.as_mut_slice()[0] += 1.0;
            }
            let ok =
                res.is_ok() && Expected::block_matches(&self.spmm_expected[k], self.yb.as_slice());
            self.tally.count(ok);
        }
    }

    /// `calls` timed CG solves from x₀ = 0.
    fn cg(&mut self, calls: usize) {
        let cfg = CgConfig {
            max_iters: CG_MAX_ITERS,
            rel_tol: CG_TOL,
            record_history: false,
        };
        for _ in 0..calls {
            let mut x = vec![0.0; self.b.kernel.n()];
            let b = &self.inputs.b;
            let rounds0 = self.b.ctx.pool_rounds();
            let t0 = Instant::now();
            let out = self
                .t
                .span("solver.cg", |_| cg(&mut self.b.kernel, b, &mut x, &cfg));
            let wall = t0.elapsed().as_secs_f64();
            let s = &mut self.s;
            s.cg_rounds += self.b.ctx.pool_rounds() - rounds0;
            s.solve_s.push(wall);
            let iters = out.iterations.max(1) as f64;
            let spmv = (out.times.multiply + out.times.reduce).as_secs_f64();
            let vecops = out.times.vector_ops.as_secs_f64();
            s.iters = out.iterations;
            s.total_iters += out.iterations;
            s.spmv_ms_per_iter.push(spmv * 1e3 / iters);
            s.vecops_ms_per_iter.push(vecops * 1e3 / iters);
            s.cg_uncovered.push(1.0 - (spmv + vecops) / wall);
            if self.perturb {
                x[0] += 1.0;
            }
            let true_residual = self.reference.rel_residual(&x, b);
            s.worst_true_residual = s.worst_true_residual.max(true_residual);
            self.tally
                .count(out.converged && true_residual <= TRUE_RESIDUAL_BOUND);
        }
    }
}

/// p50 of `reps` timed calls of `f`, in microseconds.
fn p50_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Eq. 3–6 reduction working set of the kernel's plan, in bytes.
fn reduction_ws_bytes(kernel: &SymSpmv) -> usize {
    match kernel.method() {
        ReductionMethod::Naive => ws_naive(THREADS, kernel.n()),
        ReductionMethod::EffectiveRanges => 8 * kernel.local_len(),
        ReductionMethod::Indexing => ws_indexing(kernel.conflict_index()),
        ReductionMethod::Race => 0,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let run_id = opts.seed ^ ((opts.workload as u64) << 56) ^ (u64::from(opts.trace) << 63);
    let mut t = Tracer::new(opts.trace, run_id);
    let mut tally = Tally::default();

    // The machine key first, before the matrix claims memory.
    let machine = t.span("machine.triad", |_| Machine::probe());

    let coo = opts.workload.matrix(opts.seed, opts.size);
    let n = coo.nrows() as usize;
    let nnz = coo.nnz();
    let reference = SerialCsr::from_coo(&coo);
    let inputs = Inputs::new(n, opts.seed);
    let spmv_expected: Vec<Expected> = inputs
        .xs
        .iter()
        .map(|x| Expected::new(&reference, x))
        .collect();
    let spmm_expected: Vec<Vec<Expected>> = inputs
        .blocks
        .iter()
        .map(|x| Expected::lanes(&reference, x))
        .collect();

    // Set-up, repeated; the last kernel built is the one measured.
    let mut setup_s = Vec::new();
    let mut preprocess_s = Vec::new();
    let mut built = None;
    let setup_start = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_start.elapsed() < SETUP_BUDGET)
    {
        drop(built.take());
        let t0 = Instant::now();
        let res = if opts.trace {
            setup_traced(&coo, &mut t)
        } else {
            setup_auto(&coo)
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.count(res.is_ok());
        let b = res?;
        preprocess_s.push(b.kernel.times().preprocess.as_secs_f64());
        built = Some(b);
    }
    let mut m = Measure {
        b: built.expect("at least one set-up ran"),
        inputs: &inputs,
        reference: &reference,
        spmv_expected,
        spmm_expected,
        y: vec![0.0; n],
        yb: VectorBlock::zeros(n, LANES),
        perturb: opts.perturb_outputs,
        tally,
        t,
        s: Samples::default(),
    };

    // Whole cycles of SpMV, SpMM and CG until the measuring time is spent,
    // so that every phase samples the whole run rather than one stretch of
    // it, and the call sequence depends on the cycle count alone.
    m.warm_up();
    let cycle = opts.workload.cycle(opts.size);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));
    let min_cycles = if opts.trace { 2 * MIN_CYCLES } else { MIN_CYCLES };
    let mut cycles = 0;
    while cycles < min_cycles || Instant::now() < deadline {
        m.spmv(cycle.spmv);
        m.spmm(cycle.spmm);
        m.cg(cycle.solves);
        cycles += 1;
    }
    let spmv_calls = m.spmv_calls();
    let Measure {
        b, tally, mut t, s, ..
    } = m;

    let mem_mib = (b.kernel.size_bytes() + 8 * b.ctx.arena_retained_elements()) as f64 / MIB;
    let spmv_p50 = median(&s.spmv_plain_ms);
    let spmm_p50 = median(&s.spmm_ms);
    let sss_mib = sss_size_bytes(coo.nrows(), nnz.saturating_sub(n) / 2) as f64 / MIB;

    let mut metrics = Vec::new();
    let mut put = |name, value, unit| metrics.push(Metric { name, value, unit });
    if !opts.trace {
        put("setup_s", median(&setup_s), "s");
        put("spmv_p50_ms", spmv_p50, "ms");
        put("spmm8_p50_ms", spmm_p50, "ms");
        put("cg_solve_s", median(&s.solve_s), "s");
        let ok = tally.attempted - tally.failed;
        put("success_ratio", ok as f64 / tally.attempted as f64, "ratio");
        put("mem_mib", mem_mib, "MiB");
    } else {
        let ctx = Arc::clone(&b.ctx);
        let round_us = t.span("runtime.round", |_| p50_us(ROUND_REPS, || ctx.run(&|_| {})));
        let (xa, xb) = (&inputs.xs[0], &inputs.xs[1]);
        let dot_us = t.span("solver.dot", |_| {
            p50_us(VECOP_REPS, || {
                std::hint::black_box(vecops::dot(&ctx, xa, xb));
            })
        });
        let mut acc = inputs.xs[2].clone();
        let axpy_us = t.span("solver.axpy", |_| {
            p50_us(VECOP_REPS, || vecops::axpy(&ctx, 1e-3, xa, &mut acc))
        });
        let mut yr = vec![0.0; n];
        let serial_ms = t.span("core.serial_csr", |_| {
            p50_us(SERIAL_REPS, || reference.spmv(xa, &mut yr)) / 1e3
        });
        std::hint::black_box((&acc, &yr));

        let k = &b.kernel;
        let mult_p50 = median(&s.multiply_ms);
        let red_p50 = median(&s.reduce_ms);
        let mult_sum: f64 = s.multiply_ms.iter().sum();
        let red_sum: f64 = s.reduce_ms.iter().sum();
        let bytes = (k.size_bytes() + 16 * n + reduction_ws_bytes(k)) as f64;
        let attained_gbs = bytes / ((mult_p50 + red_p50) * 1e-3) / 1e9;

        put("runtime.round_us", round_us, "us");
        put(
            "runtime.rounds_per_spmv",
            s.spmv_rounds as f64 / spmv_calls as f64,
            "count",
        );
        put(
            "runtime.rounds_per_cg_iter",
            s.cg_rounds as f64 / s.total_iters.max(1) as f64,
            "count",
        );
        put(
            "runtime.context_new_ms",
            median(&t.durations("runtime.context_new")) * 1e3,
            "ms",
        );
        put(
            "runtime.pool_failures",
            b.ctx.pool_failures() as f64,
            "count",
        );
        put(
            "runtime.pool_respawns",
            b.ctx.pool_respawns() as f64,
            "count",
        );
        put(
            "runtime.arena_mib",
            8.0 * b.ctx.arena_retained_elements() as f64 / MIB,
            "MiB",
        );
        put(
            "sparse.sss_from_coo_s",
            median(&t.durations("sparse.sss_from_coo")),
            "s",
        );
        put(
            "sparse.matrix_stats_s",
            median(&t.durations("sparse.matrix_stats")),
            "s",
        );
        put(
            "core.cost_model_us",
            median(&t.durations("core.cost_model")) * 1e6,
            "us",
        );
        put(
            "core.from_sss_s",
            median(&t.durations("core.from_sss")),
            "s",
        );
        put("core.preprocess_s", median(&preprocess_s), "s");
        put(
            "core.certify_us",
            median(&t.durations("core.certify")) * 1e6,
            "us",
        );
        put("core.spmv_p90_ms", quantile(&s.spmv_plain_ms, 0.9), "ms");
        put("core.multiply_ms", mult_p50, "ms");
        put("core.format_mib", k.size_bytes() as f64 / MIB, "MiB");
        put("csx.coverage", k.csx_coverage(), "ratio");
        put("core.reduce_ms", red_p50, "ms");
        put("core.reduce_share", red_sum / (mult_sum + red_sum), "ratio");
        put("core.local_len", k.local_len() as f64, "count");
        put("core.bytes_per_spmv", bytes, "B");
        put("core.attained_gbs", attained_gbs, "GB/s");
        put(
            "core.bw_fraction",
            attained_gbs / machine.triad_gbs,
            "ratio",
        );
        put("machine.triad_gbs", machine.triad_gbs, "GB/s");
        put(
            "core.spmm8_per_vector_speedup",
            LANES as f64 * spmv_p50 / spmm_p50,
            "ratio",
        );
        put("core.serial_csr_ms", serial_ms, "ms");
        put("core.speedup_vs_serial", serial_ms / spmv_p50, "ratio");
        put("solver.iters", s.iters as f64, "count");
        put(
            "solver.vecops_ms_per_iter",
            median(&s.vecops_ms_per_iter),
            "ms",
        );
        put("solver.dot_us", dot_us, "us");
        put("solver.axpy_us", axpy_us, "us");
        put("solver.spmv_ms_per_iter", median(&s.spmv_ms_per_iter), "ms");
        put("solver.true_rel_residual", s.worst_true_residual, "ratio");
        put(
            "recon.setup_uncovered_share",
            t.uncovered_share("setup"),
            "ratio",
        );
        put(
            "recon.spmv_uncovered_share",
            median(&s.spmv_uncovered),
            "ratio",
        );
        put("recon.cg_uncovered_share", median(&s.cg_uncovered), "ratio");
        put(
            "trace.overhead_share",
            median(&s.spmv_spanned_ms) / spmv_p50 - 1.0,
            "ratio",
        );
        put("trace.spans", t.spans().len() as f64, "count");
    }

    let matrix_fp = b.fingerprint;
    let record = vec![
        ("workload", json_str(opts.workload.name())),
        ("why", json_str(opts.workload.why())),
        ("seed", opts.seed.to_string()),
        ("run_id", json_str(&format!("{run_id:#018x}"))),
        ("trace", opts.trace.to_string()),
        (
            "matrix_fingerprint",
            json_str(&format!("{matrix_fp:#018x}")),
        ),
        (
            "inputs_fingerprint",
            json_str(&format!("{:#018x}", inputs.fingerprint(matrix_fp))),
        ),
        ("n", n.to_string()),
        ("nnz", nnz.to_string()),
        ("sss_mib", format!("{sss_mib:.3}")),
        ("l2_total_mib", format!("{:.3}", machine.l2_total_mib)),
        ("l3_mib", format!("{:.3}", machine.l3_mib)),
        ("plan", json_str(&b.spec.id())),
        ("threads", THREADS.to_string()),
        ("callers", "1".to_string()),
        ("ncpus", machine.ncpus.to_string()),
        ("cpu_model", json_str(&machine.cpu_model)),
        (
            "caches",
            format!(
                "[{}]",
                machine
                    .caches
                    .iter()
                    .map(|c| json_str(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("triad_gbs", format!("{:.4}", machine.triad_gbs)),
        ("setups", setup_s.len().to_string()),
        ("cycles", cycles.to_string()),
        ("spmv_calls", spmv_calls.to_string()),
        // The samples behind `spmv_p50_ms`, or behind `core.spmv_p90_ms` in
        // a traced run.
        ("spmv_plain_samples", s.spmv_plain_ms.len().to_string()),
        ("spmm_calls", s.spmm_ms.len().to_string()),
        ("solves", s.solve_s.len().to_string()),
        ("cg_iters", s.iters.to_string()),
        ("attempted", tally.attempted.to_string()),
        ("failed", tally.failed.to_string()),
    ];
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        record,
        tracer: t,
    })
}
