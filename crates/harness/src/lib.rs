#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! Measurement framework and experiment drivers (§V).
//!
//! The paper's methodology: "we performed 128 consecutive SpM×V operations
//! with randomly created input vectors, swapping the input and output
//! vectors at every iteration", through a common SpMV interface shared by
//! all formats. [`framework`] implements that loop; [`kernels`] is the
//! format factory; [`experiments`] regenerates every table and figure of
//! the evaluation section (see DESIGN.md §6 for the index).

#[cfg(feature = "fault-injection")]
pub mod chaos;
pub mod conformance;
pub mod error;
pub mod experiments;
pub mod framework;
pub mod kernels;
pub mod ledger;
pub mod machine;
pub mod plot;
pub mod report;

/// The bench ledger's JSON codec, shared with the certificates and the
/// plan store.
pub use symspmv_verify::jsonio as json;

pub use error::HarnessError;
pub use framework::{measure, Measurement};
pub use kernels::{build_kernel, KernelSpec};
pub use ledger::{BenchReport, PhaseBreakdown, SampleSet};
pub use machine::MachineInfo;
