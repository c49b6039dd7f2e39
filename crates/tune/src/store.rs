//! The versioned on-disk tuned-plan store.
//!
//! One JSON file (`plans.json` inside the store directory, conventionally
//! `<out>/.plan-store` next to the binary matrix cache) holds every tuned
//! plan the machine has measured, keyed by `(matrix fingerprint, ncpus,
//! machine model)`. The format is deliberately boring:
//!
//! ```json
//! {"version": 1,
//!  "plans": [{"fingerprint": "0xabc...", "ncpus": 4, "machine": "...",
//!             "format": "sss", "method": "idx", "nthreads": 4,
//!             "lanes": 8, "predicted_bytes": 1.2e6,
//!             "measured_secs": 3.1e-5, "candidates_measured": 18,
//!             "certified": true}]}
//! ```
//!
//! Failure policy (exercised by the `plan_store` test suite):
//!
//! * a missing file is an **empty store**, not an error;
//! * a `version` other than [`PLAN_STORE_VERSION`] means the schema moved
//!   — the file is **ignored** (the tuner re-measures and rewrites it),
//!   never misinterpreted;
//! * corrupted JSON or a malformed entry surfaces as a typed
//!   [`SymSpmvError`], never a panic;
//! * fingerprints are stored as hex *strings*: the JSON number line is
//!   `f64` and would silently destroy high bits of a 64-bit FNV hash.

use std::path::{Path, PathBuf};
use symspmv_core::auto::{FormatTag, PlanAdvisor, PlanSpec};
use symspmv_core::{ReductionMethod, SymSpmvError};
use symspmv_sparse::SparseError;
use symspmv_verify::jsonio::Json;

/// Schema version of the plan-store file. Bump on any incompatible change
/// to the entry layout; older files are then ignored wholesale.
pub const PLAN_STORE_VERSION: u64 = 1;

/// File name of the store inside its directory.
pub const PLAN_STORE_FILE: &str = "plans.json";

/// The identity a stored plan is valid for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Structural fingerprint of the matrix (values excluded).
    pub fingerprint: u64,
    /// Logical CPUs of the machine the plan was measured on.
    pub ncpus: usize,
    /// CPU model string (`/proc/cpuinfo` "model name" or a stand-in).
    pub machine: String,
}

/// One persisted tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// The winning configuration.
    pub spec: PlanSpec,
    /// The cost model's prediction for the winner (bytes per vector).
    pub predicted_bytes: f64,
    /// Measured per-vector seconds of the winner (median of samples).
    pub measured_secs: f64,
    /// How many cost-model-surviving candidates were measured.
    pub candidates_measured: usize,
    /// Whether the plan passed the symbolic race certifier before being
    /// stored. Always `true` for plans written by this crate — the tuner
    /// refuses to persist an uncertified plan — but kept explicit so a
    /// hand-edited entry cannot masquerade as certified.
    pub certified: bool,
}

fn parse_err(msg: String) -> SymSpmvError {
    SymSpmvError::Parse(SparseError::Parse { line: 0, msg })
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> SymSpmvError {
    SymSpmvError::Parse(SparseError::Io(format!("{what} {}: {e}", path.display())))
}

const INTEGER: &str = "a non-negative integer";

/// Reads field `key` of a store object through a `Json` accessor
/// (`Json::as_str`, `Json::as_u64`, …); a missing or mistyped field is a
/// parse error naming the field and the `expected` type.
fn req<'a, T>(
    obj: &'a Json,
    key: &str,
    expected: &str,
    accessor: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, SymSpmvError> {
    obj.get(key).and_then(accessor).ok_or_else(|| {
        parse_err(format!(
            "plan store field {key:?} is missing or not {expected}"
        ))
    })
}

fn fingerprint_to_json(fp: u64) -> Json {
    Json::Str(format!("{fp:#018x}"))
}

fn fingerprint_from_str(s: &str) -> Result<u64, SymSpmvError> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| parse_err(format!("fingerprint {s:?} is not 0x-prefixed hex")))?;
    u64::from_str_radix(hex, 16)
        .map_err(|e| parse_err(format!("fingerprint {s:?} is not valid hex: {e}")))
}

fn method_from_tag(tag: &str) -> Result<ReductionMethod, SymSpmvError> {
    match tag {
        "naive" => Ok(ReductionMethod::Naive),
        "eff" => Ok(ReductionMethod::EffectiveRanges),
        "idx" => Ok(ReductionMethod::Indexing),
        "race" => Ok(ReductionMethod::Race),
        other => Err(parse_err(format!("unknown reduction method tag {other:?}"))),
    }
}

fn entry_to_json(key: &StoreKey, plan: &TunedPlan) -> Json {
    Json::Obj(vec![
        ("fingerprint".into(), fingerprint_to_json(key.fingerprint)),
        ("ncpus".into(), Json::Num(key.ncpus as f64)),
        ("machine".into(), Json::Str(key.machine.clone())),
        ("format".into(), Json::Str(plan.spec.format.tag().into())),
        ("method".into(), Json::Str(plan.spec.method.tag().into())),
        ("nthreads".into(), Json::Num(plan.spec.nthreads as f64)),
        ("lanes".into(), Json::Num(plan.spec.lanes as f64)),
        ("predicted_bytes".into(), Json::Num(plan.predicted_bytes)),
        ("measured_secs".into(), Json::Num(plan.measured_secs)),
        (
            "candidates_measured".into(),
            Json::Num(plan.candidates_measured as f64),
        ),
        ("certified".into(), Json::Bool(plan.certified)),
    ])
}

fn entry_from_json(obj: &Json) -> Result<(StoreKey, TunedPlan), SymSpmvError> {
    let key = StoreKey {
        fingerprint: fingerprint_from_str(req(obj, "fingerprint", "a string", Json::as_str)?)?,
        ncpus: req(obj, "ncpus", INTEGER, Json::as_u64)? as usize,
        machine: req(obj, "machine", "a string", Json::as_str)?.to_string(),
    };
    let format = FormatTag::parse(req(obj, "format", "a string", Json::as_str)?)
        .ok_or_else(|| parse_err("unknown format tag in plan store".to_string()))?;
    let spec = PlanSpec {
        format,
        method: method_from_tag(req(obj, "method", "a string", Json::as_str)?)?,
        nthreads: req(obj, "nthreads", INTEGER, Json::as_u64)? as usize,
        lanes: req(obj, "lanes", INTEGER, Json::as_u64)? as usize,
    };
    if !spec.is_valid() {
        return Err(parse_err(format!(
            "plan store entry {} is not a buildable configuration",
            spec.id()
        )));
    }
    let plan = TunedPlan {
        spec,
        predicted_bytes: req(obj, "predicted_bytes", "a number", Json::as_f64)?,
        measured_secs: req(obj, "measured_secs", "a number", Json::as_f64)?,
        candidates_measured: req(obj, "candidates_measured", INTEGER, Json::as_u64)? as usize,
        certified: req(obj, "certified", "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })?,
    };
    Ok((key, plan))
}

/// The on-disk plan store, loaded into memory, with an *ambient* machine
/// identity: lookups through the convenience [`PlanStore::get`] and the
/// [`PlanAdvisor`] impl are scoped to the `(ncpus, machine)` this store
/// was opened for, so a file copied from another machine can never serve
/// its plans here.
#[derive(Debug)]
pub struct PlanStore {
    path: PathBuf,
    ncpus: usize,
    machine: String,
    plans: Vec<(StoreKey, TunedPlan)>,
    /// `true` when the file existed but carried a different schema
    /// version and was therefore ignored.
    version_mismatch: bool,
}

impl PlanStore {
    /// Opens (or initializes empty) the store in `dir` for this machine:
    /// [`crate::machine::cpu_model`] and [`crate::machine::ncpus`].
    pub fn open(dir: &Path) -> Result<PlanStore, SymSpmvError> {
        Self::open_for_machine(dir, crate::machine::cpu_model(), crate::machine::ncpus())
    }

    /// Opens the store in `dir` under an explicit machine identity — the
    /// injection point for tests and for serving plans measured elsewhere.
    pub fn open_for_machine(
        dir: &Path,
        machine: String,
        ncpus: usize,
    ) -> Result<PlanStore, SymSpmvError> {
        let path = dir.join(PLAN_STORE_FILE);
        let mut store = PlanStore {
            path,
            ncpus,
            machine,
            plans: Vec::new(),
            version_mismatch: false,
        };
        let text = match std::fs::read_to_string(&store.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(io_err("cannot read plan store", &store.path, &e)),
        };
        let doc =
            Json::parse(&text).map_err(|e| parse_err(format!("corrupt plan store JSON: {e}")))?;
        let version = req(&doc, "version", "a number", Json::as_f64)?;
        if version != PLAN_STORE_VERSION as f64 {
            // A future (or ancient) schema: ignore rather than guess. The
            // next save rewrites the file at the current version.
            store.version_mismatch = true;
            return Ok(store);
        }
        let entries = req(&doc, "plans", "an array", Json::as_arr)?;
        for entry in entries {
            let (key, plan) = entry_from_json(entry)?;
            store.plans.push((key, plan));
        }
        Ok(store)
    }

    /// The file this store reads and writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The ambient machine model string lookups are scoped to.
    pub fn machine(&self) -> &str {
        &self.machine
    }

    /// The ambient logical-CPU count lookups are scoped to.
    pub fn ncpus(&self) -> usize {
        self.ncpus
    }

    /// Number of stored plans (all keys, not only this machine's).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Whether the on-disk file was ignored for carrying a different
    /// schema version.
    pub fn ignored_version_mismatch(&self) -> bool {
        self.version_mismatch
    }

    fn ambient_key(&self, fingerprint: u64) -> StoreKey {
        StoreKey {
            fingerprint,
            ncpus: self.ncpus,
            machine: self.machine.clone(),
        }
    }

    /// The stored plan for `fingerprint` under the ambient machine
    /// identity, if any. Uncertified entries are never served.
    pub fn get(&self, fingerprint: u64) -> Option<&TunedPlan> {
        self.get_key(&self.ambient_key(fingerprint))
    }

    /// Exact-key lookup. Uncertified entries are never served.
    pub fn get_key(&self, key: &StoreKey) -> Option<&TunedPlan> {
        self.plans
            .iter()
            .find(|(k, p)| k == key && p.certified)
            .map(|(_, p)| p)
    }

    /// Inserts or replaces the plan for `fingerprint` under the ambient
    /// machine identity. Refuses uncertified plans — the certifier gate is
    /// part of the store contract, not a caller courtesy.
    pub fn put(&mut self, fingerprint: u64, plan: TunedPlan) -> Result<(), SymSpmvError> {
        if !plan.certified {
            return Err(parse_err(format!(
                "refusing to store uncertified plan {}",
                plan.spec.id()
            )));
        }
        let key = self.ambient_key(fingerprint);
        if let Some(slot) = self.plans.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = plan;
        } else {
            self.plans.push((key, plan));
        }
        Ok(())
    }

    /// Writes the store back to disk (creating the directory if needed),
    /// always at [`PLAN_STORE_VERSION`].
    pub fn save(&self) -> Result<(), SymSpmvError> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| io_err("cannot create", dir, &e))?;
        }
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(PLAN_STORE_VERSION as f64)),
            (
                "plans".into(),
                Json::Arr(
                    self.plans
                        .iter()
                        .map(|(k, p)| entry_to_json(k, p))
                        .collect(),
                ),
            ),
        ]);
        let text = doc
            .write()
            .map_err(|e| parse_err(format!("cannot serialize plan store: {e}")))?;
        std::fs::write(&self.path, text)
            .map_err(|e| io_err("cannot write plan store", &self.path, &e))
    }
}

/// The store *is* an advisor: [`symspmv_core::SymSpmv::auto_with`] queries
/// it with the executing context's thread count and only a stored plan
/// tuned for exactly that count (under the ambient machine key) is served.
impl PlanAdvisor for PlanStore {
    fn lookup(&self, fingerprint: u64, nthreads: usize) -> Option<PlanSpec> {
        let plan = self.get(fingerprint)?;
        (plan.spec.nthreads == nthreads).then_some(plan.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Json {
        let key = StoreKey {
            fingerprint: 7,
            ncpus: 2,
            machine: "m".into(),
        };
        let plan = TunedPlan {
            spec: PlanSpec {
                format: FormatTag::Sss,
                method: ReductionMethod::Indexing,
                nthreads: 2,
                lanes: 1,
            },
            predicted_bytes: 1.0,
            measured_secs: 1.0,
            candidates_measured: 3,
            certified: true,
        };
        entry_to_json(&key, &plan)
    }

    fn with(key: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut fields) = entry() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != key);
        fields.extend(value.map(|v| (key.to_string(), v)));
        Json::Obj(fields)
    }

    #[test]
    fn entry_fields_reject_fractional_negative_missing_and_mistyped() {
        assert!(entry_from_json(&entry()).is_ok());
        for bad in [
            with("nthreads", Some(Json::Num(1.5))),
            with("lanes", Some(Json::Num(-1.0))),
            with("candidates_measured", None),
            with("certified", Some(Json::Str("yes".into()))),
            with("machine", Some(Json::Num(1.0))),
            with("measured_secs", Some(Json::Null)),
        ] {
            assert!(
                matches!(entry_from_json(&bad), Err(SymSpmvError::Parse(_))),
                "{bad:?}"
            );
        }
    }
}
