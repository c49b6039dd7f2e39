//! Host characterization — the stand-in for the paper's Table II
//! (platform description + STREAM-measured sustained bandwidth).
//!
//! The CPU model and count come from [`symspmv_tune::machine`], which keys
//! the plan store by them; this module adds what the ledger records on
//! top: caches, triad bandwidth, toolchain and source revision.

use crate::ledger::LedgerError;
use crate::report::Table;
use std::time::Instant;
pub use symspmv_tune::machine::{cpu_model, ncpus};
use symspmv_verify::jsonio::Json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Cache descriptions from sysfs: (level, type, size).
pub fn caches() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(ctype), Some(size)) = (
            read_trimmed(&format!("{base}/level")),
            read_trimmed(&format!("{base}/type")),
            read_trimmed(&format!("{base}/size")),
        ) else {
            break;
        };
        out.push((level, ctype, size));
    }
    out
}

/// STREAM-triad-style sustained bandwidth estimate in GB/s:
/// `a[i] = b[i] + s·c[i]` over arrays well beyond cache size.
pub fn triad_bandwidth_gbs() -> f64 {
    let n = 8_000_000usize; // 3 arrays x 64 MB total
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0;
    // Warm-up + measure best of 3.
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        best = best.min(dt);
    }
    // 3 x 8 bytes moved per element (2 reads + 1 write).
    (24.0 * n as f64) / best / 1e9
}

/// The machine annotation attached to every bench ledger
/// ([`crate::ledger::BenchReport`]).
///
/// SpMV throughput is only interpretable against the host it was measured
/// on (bandwidth-bound kernels compare against the memory system, not the
/// clock), so the ledger refuses to exist without one of these. Detection
/// never fails — unknown facts degrade to `"unknown"` / empty rather than
/// blocking a measurement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Available hardware parallelism.
    pub ncpus: usize,
    /// CPU model string from /proc/cpuinfo.
    pub cpu_model: String,
    /// Cache descriptions from sysfs, e.g. `"L1 data 32K"`.
    pub caches: Vec<String>,
    /// `rustc --version` of the toolchain that built the bench.
    pub rustc: String,
    /// Short git revision of the measured tree (`+dirty` when modified).
    pub git_rev: String,
}

impl MachineInfo {
    /// Detects the current host, toolchain and source revision.
    pub fn detect() -> MachineInfo {
        MachineInfo {
            ncpus: ncpus(),
            cpu_model: cpu_model(),
            caches: caches()
                .into_iter()
                .map(|(level, ctype, size)| format!("L{level} {} {size}", ctype.to_lowercase()))
                .collect(),
            rustc: command_line("rustc", &["--version"]),
            git_rev: git_revision(),
        }
    }

    /// A fixed instance for deterministic serialization tests.
    pub fn for_tests() -> MachineInfo {
        MachineInfo {
            ncpus: 8,
            cpu_model: "Test CPU \"quoted\"".into(),
            caches: vec!["L1 data 32K".into(), "L2 unified 1024K".into()],
            rustc: "rustc 1.0.0-test".into(),
            git_rev: "deadbee".into(),
        }
    }

    /// The revision with any `+dirty` suffix stripped — the form used in
    /// committed baselines and comparison keys, so a run from a modified
    /// tree is attributed to the commit it is based on instead of minting
    /// a revision string no other run can ever match.
    pub fn git_rev_clean(&self) -> &str {
        self.git_rev.strip_suffix("+dirty").unwrap_or(&self.git_rev)
    }

    /// A copy with [`MachineInfo::git_rev_clean`] applied, for ledgers
    /// that get committed (the bench baseline). Run artifacts keep the
    /// raw `+dirty` marker — it is diagnostic there, and only harmful in
    /// a file that outlives the working tree that produced it.
    pub fn normalized(mut self) -> MachineInfo {
        self.git_rev = self.git_rev_clean().to_string();
        self
    }

    /// Serializes into the ledger's `machine` block.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.push("ncpus", Json::Num(self.ncpus as f64))
            .push("cpu_model", Json::Str(self.cpu_model.clone()))
            .push(
                "caches",
                Json::Arr(self.caches.iter().map(|c| Json::Str(c.clone())).collect()),
            )
            .push("rustc", Json::Str(self.rustc.clone()))
            .push("git_rev", Json::Str(self.git_rev.clone()));
        o
    }

    /// Parses the `machine` block.
    pub fn from_json(j: &Json) -> Result<MachineInfo, LedgerError> {
        let str_field = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| LedgerError::Schema {
                    reason: format!("machine.{k} missing"),
                })
        };
        Ok(MachineInfo {
            ncpus: j
                .get("ncpus")
                .and_then(Json::as_u64)
                .ok_or_else(|| LedgerError::Schema {
                    reason: "machine.ncpus missing".into(),
                })? as usize,
            cpu_model: str_field("cpu_model")?,
            caches: j
                .get("caches")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|i| i.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            rustc: str_field("rustc")?,
            git_rev: str_field("git_rev")?,
        })
    }
}

/// Runs `cmd args...` and returns its trimmed stdout, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Short HEAD revision, suffixed `+dirty` when the tree has modifications.
fn git_revision() -> String {
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    if rev == "unknown" {
        return rev;
    }
    let status = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output();
    match status {
        Ok(o) if o.status.success() && !o.stdout.is_empty() => format!("{rev}+dirty"),
        _ => rev,
    }
}

/// Prints the host description table (Table II substitute, DESIGN.md S5).
pub fn describe() -> Table {
    let mut t = Table::new(&["property", "value"]);
    t.row(vec!["cpu model".into(), cpu_model()]);
    t.row(vec!["available parallelism".into(), ncpus().to_string()]);
    for (level, ctype, size) in caches() {
        t.row(vec![
            format!("L{level} {} cache", ctype.to_lowercase()),
            size,
        ]);
    }
    t.row(vec![
        "triad bandwidth (GB/s)".into(),
        format!("{:.2}", triad_bandwidth_gbs()),
    ]);
    t.row(vec![
        "paper platform A".into(),
        "Dunnington: 4x6 cores, 5.4 GB/s sustained".into(),
    ]);
    t.row(vec![
        "paper platform B".into(),
        "Gainestown: 2x4 cores (16 threads), 2x15.5 GB/s sustained".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_info_detects_and_round_trips() {
        let m = MachineInfo::detect();
        assert!(m.ncpus >= 1);
        assert!(!m.cpu_model.is_empty());
        let parsed = MachineInfo::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn dirty_suffix_is_normalized_out_of_committed_revisions() {
        let mut m = MachineInfo::for_tests();
        m.git_rev = "deadbee+dirty".into();
        assert_eq!(m.git_rev_clean(), "deadbee");
        assert_eq!(m.clone().normalized().git_rev, "deadbee");
        // Already-clean revisions pass through untouched.
        m.git_rev = "deadbee".into();
        assert_eq!(m.git_rev_clean(), "deadbee");
        assert_eq!(m.normalized().git_rev, "deadbee");
    }

    #[test]
    fn machine_info_rejects_missing_fields() {
        let mut j = MachineInfo::for_tests().to_json();
        j = match j {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "rustc").collect())
            }
            other => other,
        };
        assert!(MachineInfo::from_json(&j).is_err());
    }

    #[test]
    fn describe_has_rows() {
        // Cheap structural check only (the bandwidth probe is expensive, so
        // exercise the pieces that don't allocate 192 MB).
        assert!(!cpu_model().is_empty());
        let _ = caches();
    }
}
