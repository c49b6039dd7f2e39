//! Machine identity: the CPU model and the logical CPU count.
//!
//! These two facts key the plan store, and the bench ledger records them
//! with every measurement. Git revision and rustc are deliberately
//! excluded from the store key — a tuned plan is a property of the
//! hardware, not of the tree that measured it.

/// Logical CPUs visible to this process.
pub fn ncpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The CPU model string (`/proc/cpuinfo` "model name"), or a portable
/// stand-in when unavailable. Whitespace is collapsed so the key is
/// stable across kernels that pad the field differently.
pub fn cpu_model() -> String {
    let from_proc = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.split_whitespace().collect::<Vec<_>>().join(" "))
        });
    match from_proc {
        Some(m) if !m.is_empty() => m,
        _ => format!("unknown-cpu-{}", std::env::consts::ARCH),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_key_parts_are_stable_within_a_process() {
        assert_eq!(cpu_model(), cpu_model());
        assert!(!cpu_model().is_empty());
        assert!(ncpus() >= 1);
    }
}
