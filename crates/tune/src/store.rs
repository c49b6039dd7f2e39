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

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SymSpmvError> {
    obj.get(key)
        .ok_or_else(|| parse_err(format!("plan store entry is missing {key:?}")))
}

fn num_field(obj: &Json, key: &str) -> Result<f64, SymSpmvError> {
    match field(obj, key)? {
        Json::Num(v) => Ok(*v),
        other => Err(parse_err(format!(
            "plan store field {key:?} must be a number, got {other:?}"
        ))),
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, SymSpmvError> {
    let v = num_field(obj, key)?;
    if v.fract() != 0.0 || v < 0.0 || v > usize::MAX as f64 {
        return Err(parse_err(format!(
            "plan store field {key:?} must be a non-negative integer, got {v}"
        )));
    }
    Ok(v as usize)
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, SymSpmvError> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s.as_str()),
        other => Err(parse_err(format!(
            "plan store field {key:?} must be a string, got {other:?}"
        ))),
    }
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, SymSpmvError> {
    match field(obj, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(parse_err(format!(
            "plan store field {key:?} must be a boolean, got {other:?}"
        ))),
    }
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
        fingerprint: fingerprint_from_str(str_field(obj, "fingerprint")?)?,
        ncpus: usize_field(obj, "ncpus")?,
        machine: str_field(obj, "machine")?.to_string(),
    };
    let format = FormatTag::parse(str_field(obj, "format")?)
        .ok_or_else(|| parse_err("unknown format tag in plan store".to_string()))?;
    let spec = PlanSpec {
        format,
        method: method_from_tag(str_field(obj, "method")?)?,
        nthreads: usize_field(obj, "nthreads")?,
        lanes: usize_field(obj, "lanes")?,
    };
    if !spec.is_valid() {
        return Err(parse_err(format!(
            "plan store entry {} is not a buildable configuration",
            spec.id()
        )));
    }
    let plan = TunedPlan {
        spec,
        predicted_bytes: num_field(obj, "predicted_bytes")?,
        measured_secs: num_field(obj, "measured_secs")?,
        candidates_measured: usize_field(obj, "candidates_measured")?,
        certified: bool_field(obj, "certified")?,
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
        let version = num_field(&doc, "version")?;
        if version != PLAN_STORE_VERSION as f64 {
            // A future (or ancient) schema: ignore rather than guess. The
            // next save rewrites the file at the current version.
            store.version_mismatch = true;
            return Ok(store);
        }
        let entries = match field(&doc, "plans")? {
            Json::Arr(a) => a,
            other => {
                return Err(parse_err(format!(
                    "plan store \"plans\" must be an array, got {other:?}"
                )))
            }
        };
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
