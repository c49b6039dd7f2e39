//! The symspmv repository benchmark: what a user gets from the library's
//! own plan choice, end to end (set-up, SpMV, SpMM, CG) and layer by layer
//! (runtime, sparse, core, solver). `README.md` beside this crate names the
//! workloads, the metrics and which layer metric should move which
//! end-to-end metric.

pub mod machine;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
