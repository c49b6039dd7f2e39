//! The machine key recorded with every result, so that runs from unlike
//! machines are never compared: CPU count, CPU model, cache sizes and the
//! triad bandwidth measured in the same run.

use symspmv_harness::machine::{caches, cpu_model, triad_bandwidth_gbs};

pub struct Machine {
    pub ncpus: usize,
    pub cpu_model: String,
    /// `"L<level> <type> <size>"` per cache of CPU 0.
    pub caches: Vec<String>,
    /// Per-core L2 size times the CPU count (the L2 is private per core on
    /// the hosts this benchmark targets), in MiB; 0 when unknown.
    pub l2_total_mib: f64,
    /// Shared last-level (L3) size in MiB; 0 when unknown.
    pub l3_mib: f64,
    pub triad_gbs: f64,
}

impl Machine {
    pub fn probe() -> Machine {
        let ncpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let found = caches();
        let size_of = |level: &str| {
            found
                .iter()
                .find(|(l, ty, _)| l == level && ty != "Instruction")
                .map_or(0.0, |(_, _, size)| parse_mib(size))
        };
        Machine {
            ncpus,
            cpu_model: cpu_model(),
            l2_total_mib: size_of("2") * ncpus as f64,
            l3_mib: size_of("3"),
            caches: found
                .iter()
                .map(|(level, ty, size)| format!("L{level} {} {size}", ty.to_lowercase()))
                .collect(),
            triad_gbs: triad_bandwidth_gbs(),
        }
    }
}

/// Parses a sysfs cache size such as `"2048K"` or `"105M"` into MiB.
fn parse_mib(size: &str) -> f64 {
    let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
    let v: f64 = digits.parse().unwrap_or(0.0);
    match unit {
        "K" => v / 1024.0,
        "M" => v,
        "G" => v * 1024.0,
        _ => v / (1024.0 * 1024.0),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn parses_sysfs_sizes() {
        assert_eq!(super::parse_mib("2048K"), 2.0);
        assert_eq!(super::parse_mib("105M"), 105.0);
        assert_eq!(super::parse_mib("bogus"), 0.0);
    }
}
