//! The workspace-wide error taxonomy.
//!
//! [`SymSpmvError`] is the one error type callers above the format layer
//! (kernels, solvers, the harness) need to handle. It classifies every
//! failure into a small set of recoverable categories:
//!
//! * **`Parse`** — the input file could not be read or understood
//!   (I/O failures, malformed MatrixMarket syntax);
//! * **`InvalidStructure`** — the file parsed but describes a matrix the
//!   requested format rejects: asymmetry, out-of-range or duplicate
//!   indices, non-finite values, index overflow;
//! * **`NotSpd` / `Diverged` / `NonFiniteResidual`** — a solver detected
//!   numerical breakdown instead of silently emitting garbage;
//! * **`WorkerPanicked`** — a pool worker died mid-kernel; the round
//!   drained, the context healed, and the panic is reported as data.
//!
//! `From<SparseError>` performs the `Parse` vs `InvalidStructure`
//! classification, so `?` works across the crate boundary.

use std::fmt;
use symspmv_runtime::{Interrupt, WorkerPanicInfo};
use symspmv_sparse::SparseError;

/// Structured error for every failure mode of the symmetric-SpMV stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SymSpmvError {
    /// The input could not be read or parsed (I/O or syntax).
    Parse(SparseError),
    /// The input parsed but fails structural validation for the requested
    /// format (asymmetry, bad indices, duplicates, non-finite values…).
    InvalidStructure(SparseError),
    /// CG breakdown: the operator is not symmetric positive definite
    /// (`pᵀAp ≤ 0` with a non-negligible residual).
    NotSpd {
        /// Iteration at which the breakdown was detected.
        iteration: usize,
        /// The offending curvature value `pᵀAp`.
        pap: f64,
    },
    /// The iteration stopped making progress and the residual grew beyond
    /// the divergence threshold.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Relative residual norm at that iteration.
        relative_residual: f64,
    },
    /// The residual became NaN or infinite.
    NonFiniteResidual {
        /// Iteration at which the residual left the finite range.
        iteration: usize,
    },
    /// A worker thread panicked during a parallel kernel; the pool drained
    /// the round and remains usable.
    WorkerPanicked {
        /// Thread id of the worker that died.
        tid: usize,
        /// Rendered panic message.
        message: String,
    },
    /// The request's cancellation token was cancelled; the kernel stopped
    /// at the next cooperative checkpoint and the context healed.
    Cancelled,
    /// The request's deadline passed before the kernel finished.
    DeadlineExceeded {
        /// `true` when a worker overran the deadline mid-round and the
        /// round-watchdog marked the pool Wedged while it drained; `false`
        /// when the deadline simply expired between rounds.
        wedged: bool,
    },
    /// The shared pool is currently Wedged (a round is overrunning its
    /// deadline); the request was refused without queueing on the pool so
    /// it can be served by the degraded-mode fallback instead.
    PoolWedged,
    /// A bounded [`RetryPolicy`](crate::RetryPolicy) exhausted its attempts
    /// without a successful run.
    RetriesExhausted {
        /// Attempts made (equal to the policy's `max_attempts`).
        attempts: usize,
        /// The error from the final attempt.
        last: Box<SymSpmvError>,
    },
}

impl fmt::Display for SymSpmvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymSpmvError::Parse(e) => write!(f, "failed to read matrix: {e}"),
            SymSpmvError::InvalidStructure(e) => write!(f, "invalid matrix structure: {e}"),
            SymSpmvError::NotSpd { iteration, pap } => write!(
                f,
                "CG breakdown at iteration {iteration}: matrix is not positive definite \
                 (p^T A p = {pap:e})"
            ),
            SymSpmvError::Diverged {
                iteration,
                relative_residual,
            } => write!(
                f,
                "solver diverged at iteration {iteration} \
                 (relative residual {relative_residual:e})"
            ),
            SymSpmvError::NonFiniteResidual { iteration } => {
                write!(f, "residual became non-finite at iteration {iteration}")
            }
            SymSpmvError::WorkerPanicked { tid, message } => {
                write!(f, "worker thread {tid} panicked during a kernel: {message}")
            }
            SymSpmvError::Cancelled => {
                write!(f, "request cancelled at a cooperative checkpoint")
            }
            SymSpmvError::DeadlineExceeded { wedged: true } => write!(
                f,
                "request deadline exceeded: a worker overran the deadline mid-round \
                 (pool was marked Wedged while the round drained)"
            ),
            SymSpmvError::DeadlineExceeded { wedged: false } => {
                write!(f, "request deadline exceeded between parallel rounds")
            }
            SymSpmvError::PoolWedged => write!(
                f,
                "worker pool is Wedged (a round is overrunning its deadline); \
                 request refused — retry or use the serial fallback"
            ),
            SymSpmvError::RetriesExhausted { attempts, last } => write!(
                f,
                "retry policy exhausted after {attempts} attempt(s); last error: {last}"
            ),
        }
    }
}

impl std::error::Error for SymSpmvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SymSpmvError::Parse(e) | SymSpmvError::InvalidStructure(e) => Some(e),
            SymSpmvError::RetriesExhausted { last, .. } => Some(&**last),
            _ => None,
        }
    }
}

impl From<SparseError> for SymSpmvError {
    /// Classifies a [`SparseError`]: structural rejections become
    /// [`SymSpmvError::InvalidStructure`], I/O and syntax failures become
    /// [`SymSpmvError::Parse`].
    fn from(e: SparseError) -> Self {
        if e.is_structural() {
            SymSpmvError::InvalidStructure(e)
        } else {
            SymSpmvError::Parse(e)
        }
    }
}

impl From<WorkerPanicInfo> for SymSpmvError {
    fn from(info: WorkerPanicInfo) -> Self {
        SymSpmvError::WorkerPanicked {
            tid: info.tid,
            message: info.message,
        }
    }
}

impl From<Interrupt> for SymSpmvError {
    /// Maps a supervision interrupt (raised at a pool checkpoint and caught
    /// by the fallible kernel entry points) to its typed error.
    fn from(i: Interrupt) -> Self {
        match i {
            Interrupt::Cancelled => SymSpmvError::Cancelled,
            Interrupt::DeadlineExceeded { wedged } => SymSpmvError::DeadlineExceeded { wedged },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_errors_classify_by_structure() {
        let io_like = SparseError::Parse {
            line: 3,
            msg: "bad value".into(),
        };
        assert!(matches!(
            SymSpmvError::from(io_like),
            SymSpmvError::Parse(_)
        ));

        let structural = SparseError::NotSymmetric { row: 1, col: 2 };
        assert!(matches!(
            SymSpmvError::from(structural),
            SymSpmvError::InvalidStructure(_)
        ));
    }

    #[test]
    fn display_messages_are_actionable() {
        let e = SymSpmvError::NotSpd {
            iteration: 7,
            pap: -1.5,
        };
        let msg = e.to_string();
        assert!(msg.contains("iteration 7"), "{msg}");
        assert!(msg.contains("not positive definite"), "{msg}");

        let w = SymSpmvError::WorkerPanicked {
            tid: 2,
            message: "index out of bounds".into(),
        };
        assert!(w.to_string().contains("worker thread 2"));
    }

    #[test]
    fn worker_panic_info_converts() {
        let info = WorkerPanicInfo {
            tid: 5,
            message: "boom".into(),
        };
        assert_eq!(
            SymSpmvError::from(info),
            SymSpmvError::WorkerPanicked {
                tid: 5,
                message: "boom".into()
            }
        );
    }

    #[test]
    fn interrupts_convert_to_typed_errors() {
        assert_eq!(
            SymSpmvError::from(Interrupt::Cancelled),
            SymSpmvError::Cancelled
        );
        assert_eq!(
            SymSpmvError::from(Interrupt::DeadlineExceeded { wedged: true }),
            SymSpmvError::DeadlineExceeded { wedged: true }
        );
    }

    #[test]
    fn resilience_errors_display_and_chain() {
        use std::error::Error;
        let e = SymSpmvError::RetriesExhausted {
            attempts: 3,
            last: Box::new(SymSpmvError::WorkerPanicked {
                tid: 1,
                message: "boom".into(),
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("3 attempt"), "{msg}");
        assert!(msg.contains("worker thread 1"), "{msg}");
        assert!(e.source().is_some(), "last error is the source");

        assert!(SymSpmvError::PoolWedged.to_string().contains("Wedged"));
        assert!(SymSpmvError::Cancelled.to_string().contains("cancelled"));
        assert!(SymSpmvError::DeadlineExceeded { wedged: true }
            .to_string()
            .contains("Wedged"));
    }

    #[test]
    fn source_chains_to_sparse_error() {
        use std::error::Error;
        let e = SymSpmvError::InvalidStructure(SparseError::NotSymmetric { row: 0, col: 1 });
        assert!(e.source().is_some());
        let n = SymSpmvError::NonFiniteResidual { iteration: 1 };
        assert!(n.source().is_none());
    }
}
