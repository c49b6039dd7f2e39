//! The structured bench ledger: machine-annotated, phase-attributed
//! measurement records serialized as `BENCH_<target>.json`.
//!
//! Print-only bench output cannot be compared, gated or plotted after the
//! fact; following the Schubert/Hager/Fehske argument that SpMV numbers are
//! meaningless without machine context, every record carries the
//! [`MachineInfo`] it was measured on, the raw per-sample timings (so later
//! tooling can re-derive any statistic), the size model that converts time
//! into GFLOP/s and effective GB/s, and an optional per-phase breakdown
//! pulled from the `ExecutionContext` ledger.
//!
//! Schema (`bench-v1`): one [`BenchReport`] per bench target —
//! `{schema, target, machine, samples: [SampleSet...]}` — written through
//! the std-only [`symspmv_verify::jsonio`] codec. Medians/MAD/min are *derived*
//! fields: they are emitted for `jq` convenience but recomputed from the
//! raw samples on parse, so a hand-edited baseline cannot disagree with its
//! own data.

use crate::machine::MachineInfo;
use symspmv_runtime::PhaseTimes;
use symspmv_verify::jsonio::Json;

/// Why a ledger document could not be built or understood.
#[derive(Debug)]
pub enum LedgerError {
    /// A measurement is NaN/infinite (or negative where impossible).
    NonFinite {
        /// Which record carried the bad value.
        context: String,
    },
    /// The text is not valid JSON, or a value cannot be written as JSON.
    Json(String),
    /// The JSON is valid but does not follow the `bench-v1` schema.
    Schema {
        /// What is missing or mistyped.
        reason: String,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::NonFinite { context } => {
                write!(fm, "non-finite measurement in {context}")
            }
            LedgerError::Json(e) => write!(fm, "JSON: {e}"),
            LedgerError::Schema { reason } => write!(fm, "not a bench-v1 document: {reason}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Schema tag written into every report.
pub const SCHEMA: &str = "bench-v1";

/// Wall-clock split across the four kernel phases, summed over `iters`
/// benchmark iterations (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// SpMV multiplication phase.
    pub multiply: f64,
    /// Local-vectors reduction phase.
    pub reduce: f64,
    /// Solver vector operations.
    pub vector_ops: f64,
    /// One-time preprocessing.
    pub preprocess: f64,
    /// Iterations the accounting covers (calibration included).
    pub iters: u64,
}

impl PhaseBreakdown {
    /// Converts an [`ExecutionContext`](symspmv_runtime::ExecutionContext)
    /// ledger snapshot covering `iters` iterations.
    pub fn from_times(times: &PhaseTimes, iters: u64) -> Self {
        PhaseBreakdown {
            multiply: times.multiply.as_secs_f64(),
            reduce: times.reduce.as_secs_f64(),
            vector_ops: times.vector_ops.as_secs_f64(),
            preprocess: times.preprocess.as_secs_f64(),
            iters,
        }
    }

    /// Total attributed seconds.
    pub fn total(&self) -> f64 {
        self.multiply + self.reduce + self.vector_ops + self.preprocess
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.push("multiply_s", Json::Num(self.multiply))
            .push("reduce_s", Json::Num(self.reduce))
            .push("vector_ops_s", Json::Num(self.vector_ops))
            .push("preprocess_s", Json::Num(self.preprocess))
            .push("iters", Json::Num(self.iters as f64));
        o
    }

    fn from_json(j: &Json, ctx: &str) -> Result<Self, LedgerError> {
        let field = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| LedgerError::Schema {
                    reason: format!("{ctx}: phases.{k} missing or invalid"),
                })
        };
        Ok(PhaseBreakdown {
            multiply: field("multiply_s")?,
            reduce: field("reduce_s")?,
            vector_ops: field("vector_ops_s")?,
            preprocess: field("preprocess_s")?,
            iters: j
                .get("iters")
                .and_then(Json::as_u64)
                .ok_or_else(|| LedgerError::Schema {
                    reason: format!("{ctx}: phases.iters missing"),
                })?,
        })
    }
}

/// Derived statistics of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median seconds per iteration.
    pub median: f64,
    /// Median absolute deviation around the median (robust spread).
    pub mad: f64,
    /// Fastest sample.
    pub min: f64,
}

/// One benchmarked (group, id) data point: every raw sample plus the size
/// model needed to normalize it.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    /// Group the point belongs to (e.g. `spmv_formats/hood`).
    pub group: String,
    /// Benchmark id within the group (e.g. `csxsym-idx`).
    pub id: String,
    /// Iterations batched per timed sample.
    pub iters: u64,
    /// Seconds per iteration, one entry per sample, in measurement order.
    pub samples: Vec<f64>,
    /// Symmetry-kind tag of the benchmarked operator (`"symmetric"`,
    /// `"skew"`, `"structural"`), when the row measured a kind-aware
    /// kernel. `None` on rows predating the kind axis and on rows where
    /// the kind is not meaningful (e.g. pure encode benches).
    pub kind: Option<String>,
    /// Elements processed per iteration (non-zeros), if declared.
    pub elements: Option<u64>,
    /// Floating-point operations per iteration (`2·nnz` for SpMV).
    pub flops: Option<u64>,
    /// Bytes moved per iteration under the streaming size model
    /// (matrix bytes + input/output vectors).
    pub bytes: Option<u64>,
    /// Per-phase time attribution, when the target recorded one.
    pub phases: Option<PhaseBreakdown>,
}

impl SampleSet {
    /// Robust statistics of the raw samples; `None` when empty.
    pub fn stats(&self) -> Option<Stats> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut dev: Vec<f64> = sorted.iter().map(|s| (s - median).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Some(Stats {
            median,
            mad: dev[dev.len() / 2],
            min: sorted[0],
        })
    }

    /// GFLOP/s at the median, under the declared flop model.
    pub fn gflops(&self) -> Option<f64> {
        let s = self.stats()?;
        self.flops
            .filter(|_| s.median > 0.0)
            .map(|f| f as f64 / s.median / 1e9)
    }

    /// Effective GB/s at the median, under the declared byte model.
    pub fn effective_gbs(&self) -> Option<f64> {
        let s = self.stats()?;
        self.bytes
            .filter(|_| s.median > 0.0)
            .map(|b| b as f64 / s.median / 1e9)
    }

    /// Rejects NaN/inf/negative samples — they must never reach a ledger.
    pub fn validate(&self) -> Result<(), LedgerError> {
        let bad = self.samples.iter().any(|v| !v.is_finite() || *v < 0.0);
        if bad {
            return Err(LedgerError::NonFinite {
                context: format!("{}/{}", self.group, self.id),
            });
        }
        Ok(())
    }

    fn to_json(&self) -> Result<Json, LedgerError> {
        self.validate()?;
        let mut o = Json::obj();
        o.push("group", Json::Str(self.group.clone()))
            .push("id", Json::Str(self.id.clone()))
            .push("iters", Json::Num(self.iters as f64))
            .push(
                "samples_s",
                Json::Arr(self.samples.iter().map(|s| Json::Num(*s)).collect()),
            );
        if let Some(kind) = &self.kind {
            o.push("kind", Json::Str(kind.clone()));
        }
        if let Some(s) = self.stats() {
            o.push("median_s", Json::Num(s.median))
                .push("mad_s", Json::Num(s.mad))
                .push("min_s", Json::Num(s.min));
        }
        for (key, v) in [
            ("elements", self.elements),
            ("flops", self.flops),
            ("bytes", self.bytes),
        ] {
            if let Some(v) = v {
                o.push(key, Json::Num(v as f64));
            }
        }
        if let Some(g) = self.gflops() {
            o.push("gflops", Json::Num(g));
        }
        if let Some(g) = self.effective_gbs() {
            o.push("effective_gbs", Json::Num(g));
        }
        if let Some(p) = &self.phases {
            o.push("phases", p.to_json());
        }
        Ok(o)
    }

    fn from_json(j: &Json) -> Result<Self, LedgerError> {
        let str_field = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LedgerError::Schema {
                    reason: format!("sample missing string field `{k}`"),
                })
        };
        let group = str_field("group")?;
        let id = str_field("id")?;
        let ctx = format!("{group}/{id}");
        let samples: Vec<f64> = j
            .get("samples_s")
            .and_then(Json::as_arr)
            .ok_or_else(|| LedgerError::Schema {
                reason: format!("{ctx}: samples_s missing"),
            })?
            .iter()
            .map(|v| {
                v.as_f64()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| LedgerError::NonFinite {
                        context: ctx.clone(),
                    })
            })
            .collect::<Result<_, _>>()?;
        let opt_u64 = |k: &str| j.get(k).and_then(Json::as_u64);
        Ok(SampleSet {
            iters: opt_u64("iters").ok_or_else(|| LedgerError::Schema {
                reason: format!("{ctx}: iters missing"),
            })?,
            samples,
            kind: j.get("kind").and_then(Json::as_str).map(str::to_string),
            elements: opt_u64("elements"),
            flops: opt_u64("flops"),
            bytes: opt_u64("bytes"),
            phases: j
                .get("phases")
                .map(|p| PhaseBreakdown::from_json(p, &ctx))
                .transpose()?,
            group,
            id,
        })
    }
}

/// A complete bench-target run: machine context plus every sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench target name (`spmv_formats`, `ci`, ...).
    pub target: String,
    /// Host the run was measured on.
    pub machine: MachineInfo,
    /// All recorded data points, in run order.
    pub samples: Vec<SampleSet>,
}

impl BenchReport {
    /// Canonical artifact file name for this target.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.target)
    }

    /// Looks up a data point by group and id.
    pub fn find(&self, group: &str, id: &str) -> Option<&SampleSet> {
        self.samples.iter().find(|s| s.group == group && s.id == id)
    }

    /// Serializes to the `bench-v1` JSON document.
    pub fn to_json(&self) -> Result<String, LedgerError> {
        let mut o = Json::obj();
        o.push("schema", Json::Str(SCHEMA.into()))
            .push("target", Json::Str(self.target.clone()))
            .push("machine", self.machine.to_json());
        let samples: Vec<Json> = self
            .samples
            .iter()
            .map(SampleSet::to_json)
            .collect::<Result<_, _>>()?;
        o.push("samples", Json::Arr(samples));
        o.to_pretty().map_err(LedgerError::Json)
    }

    /// Parses a `bench-v1` document.
    pub fn from_json(text: &str) -> Result<Self, LedgerError> {
        let doc = Json::parse(text).map_err(LedgerError::Json)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            other => {
                return Err(LedgerError::Schema {
                    reason: format!("schema is {other:?}, expected {SCHEMA:?}"),
                })
            }
        }
        let target = doc
            .get("target")
            .and_then(Json::as_str)
            .ok_or_else(|| LedgerError::Schema {
                reason: "target missing".into(),
            })?
            .to_string();
        let machine = doc
            .get("machine")
            .map(MachineInfo::from_json)
            .transpose()?
            .ok_or_else(|| LedgerError::Schema {
                reason: "machine missing".into(),
            })?;
        let samples = doc
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or_else(|| LedgerError::Schema {
                reason: "samples missing".into(),
            })?
            .iter()
            .map(SampleSet::from_json)
            .collect::<Result<_, _>>()?;
        Ok(BenchReport {
            target,
            machine,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> SampleSet {
        SampleSet {
            group: "spmv_formats/hood".into(),
            id: "csxsym-idx".into(),
            iters: 37,
            samples: vec![1.25e-4, 1.5e-4, 1.3e-4, 9.9e-5, 2.0e-4],
            kind: Some("skew".into()),
            elements: Some(1_000_000),
            flops: Some(2_000_000),
            bytes: Some(12_345_678),
            phases: Some(PhaseBreakdown {
                multiply: 0.9,
                reduce: 0.2,
                vector_ops: 0.0,
                preprocess: 0.05,
                iters: 186,
            }),
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            target: "unit".into(),
            machine: MachineInfo::for_tests(),
            samples: vec![
                sample_set(),
                SampleSet {
                    group: "g".into(),
                    id: "bare".into(),
                    iters: 1,
                    samples: vec![0.5],
                    kind: None,
                    elements: None,
                    flops: None,
                    bytes: None,
                    phases: None,
                },
            ],
        }
    }

    // Table-driven round trip: every field shape the schema allows.
    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let text = r.to_json().unwrap();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.file_name(), "BENCH_unit.json");
        assert!(parsed.find("g", "bare").is_some());
        assert!(parsed.find("g", "nope").is_none());
    }

    // Golden file: the committed baseline re-serializes byte for byte, so
    // the codec's layout and number format cannot drift unnoticed.
    #[test]
    fn committed_baseline_round_trips_byte_identically() {
        let text = include_str!("../../../bench/baseline.json");
        let parsed = BenchReport::from_json(text).unwrap();
        assert!(!parsed.samples.is_empty());
        assert_eq!(parsed.to_json().unwrap(), text);
    }

    #[test]
    fn stats_are_robust_and_derived() {
        let s = sample_set();
        let st = s.stats().unwrap();
        assert_eq!(st.median, 1.3e-4);
        assert_eq!(st.min, 9.9e-5);
        assert!(st.mad > 0.0);
        // Derived throughputs follow the declared size model.
        let gflops = s.gflops().unwrap();
        assert!((gflops - 2_000_000.0 / 1.3e-4 / 1e9).abs() < 1e-9);
        let gbs = s.effective_gbs().unwrap();
        assert!((gbs - 12_345_678.0 / 1.3e-4 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_sets_survive_but_carry_no_stats() {
        let mut r = report();
        r.samples[0].samples.clear();
        r.samples.truncate(1);
        assert!(r.samples[0].stats().is_none());
        assert!(r.samples[0].gflops().is_none());
        let text = r.to_json().unwrap();
        assert!(!text.contains("median_s"));
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn nan_and_inf_samples_are_rejected_on_write() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut r = report();
            r.samples[0].samples[2] = bad;
            assert!(matches!(r.to_json(), Err(LedgerError::NonFinite { .. }),));
        }
    }

    #[test]
    fn nan_and_inf_samples_are_rejected_on_parse() {
        // A hand-edited baseline with a negative or overflowing sample
        // must not load.
        let good = report().to_json().unwrap();
        let neg = good.replacen("0.00015,", "-0.00015,", 1);
        assert!(matches!(
            BenchReport::from_json(&neg),
            Err(LedgerError::NonFinite { .. })
        ));
        let inf = good.replacen("0.00015,", "1e999,", 1);
        assert!(BenchReport::from_json(&inf).is_err());
    }

    // Table-driven schema rejection.
    #[test]
    fn malformed_documents_rejected() {
        let good = report().to_json().unwrap();
        let cases: Vec<(String, &str)> = vec![
            ("not json at all".into(), "garbage"),
            ("{}".into(), "empty object"),
            (good.replacen("bench-v1", "bench-v0", 1), "wrong schema"),
            (good.replacen("\"target\"", "\"tarject\"", 1), "no target"),
            (good.replacen("\"machine\"", "\"mach\"", 1), "no machine"),
            (good.replacen("\"samples\"", "\"simples\"", 1), "no samples"),
            (good.replacen("\"iters\": 37,", "", 1), "sample sans iters"),
        ];
        for (text, why) in cases {
            assert!(BenchReport::from_json(&text).is_err(), "{why}");
        }
    }

    #[test]
    fn derived_stats_ignore_hand_edits() {
        // median_s in the file is cosmetic; parse recomputes from samples.
        let text = report().to_json().unwrap();
        let edited = text.replacen("\"median_s\": 0.00013", "\"median_s\": 42", 1);
        let parsed = BenchReport::from_json(&edited).unwrap();
        assert_eq!(parsed.samples[0].stats().unwrap().median, 1.3e-4);
    }

    #[test]
    fn phase_breakdown_from_times() {
        let mut t = PhaseTimes::new();
        t.multiply = std::time::Duration::from_millis(500);
        t.reduce = std::time::Duration::from_millis(250);
        let p = PhaseBreakdown::from_times(&t, 10);
        assert!((p.multiply - 0.5).abs() < 1e-12);
        assert!((p.total() - 0.75).abs() < 1e-12);
        assert_eq!(p.iters, 10);
    }
}
