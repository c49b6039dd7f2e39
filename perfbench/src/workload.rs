//! The three benchmark workloads and the inputs each one derives from a seed.
//!
//! The program under test receives only what is generated here: a COO
//! matrix and seeded vectors. The seed replaces the suite entry's own
//! generator seed (`SuiteSpec.seed`) for the two suite analogs, and picks
//! the right-hand sides for all three.

use symspmv_sparse::dense::seeded_vector;
use symspmv_sparse::suite::{generate, spec_by_name};
use symspmv_sparse::{gen, CooMatrix, VectorBlock};

/// One benchmark workload. See `perfbench/README.md` for why each exists
/// and which layers it stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Suite `ldoor` analog at scale 0.15: dense 3×3 blocks, multiply-bound.
    FemLdoor,
    /// Suite `G3_circuit` analog at scale 0.3: power-law, scrambled,
    /// reduction-bound.
    CircuitG3,
    /// 3-D 7-point Laplacian on a 32³ grid: cache-resident, dispatch-bound CG.
    PoissonCg,
}

/// Timed calls of one measuring cycle.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub spmv: usize,
    pub spmm: usize,
    pub solves: usize,
}

/// Problem size: the benchmark's own sizes, or small analogs for the
/// benchmark's tests (same generators, same code paths, seconds not minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FemLdoor, Workload::CircuitG3, Workload::PoissonCg];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FemLdoor => "fem-ldoor",
            Workload::CircuitG3 => "circuit-g3",
            Workload::PoissonCg => "poisson-cg",
        }
    }

    /// One-sentence reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::FemLdoor => {
                "multiply kernel, format bytes and set-up cost on a 40 MiB blocked FEM matrix; barely touches dispatch"
            }
            Workload::CircuitG3 => {
                "reduction strategy and conflict handling on a scrambled power-law circuit matrix with 0% CSX coverage"
            }
            Workload::PoissonCg => {
                "pool dispatch and vector operations in CG on an L2-resident 32^3 Laplacian; bypasses memory bandwidth"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calls per measuring cycle, sized so that a cycle takes 1.5 to 3
    /// seconds on the reference host (2-CPU Xeon VM). Fixed counts keep the
    /// call sequence, and every count that depends on it, the same for the
    /// same seed and cycle count.
    pub fn cycle(self, size: Size) -> Cycle {
        let (spmv, spmm, solves) = match (self, size) {
            (_, Size::Small) => (34, 4, 1),
            (Workload::FemLdoor, Size::Full) => (80, 12, 2),
            (Workload::CircuitG3, Size::Full) => (34, 5, 1),
            (Workload::PoissonCg, Size::Full) => (600, 150, 12),
        };
        Cycle { spmv, spmm, solves }
    }

    /// The workload's matrix for `seed`.
    pub fn matrix(self, seed: u64, size: Size) -> CooMatrix {
        let full = size == Size::Full;
        match self {
            Workload::FemLdoor => suite_matrix("ldoor", if full { 0.15 } else { 0.004 }, seed),
            Workload::CircuitG3 => suite_matrix("G3_circuit", if full { 0.3 } else { 0.004 }, seed),
            Workload::PoissonCg => {
                let m = if full { 32 } else { 28 };
                gen::laplacian_3d(m, m, m)
            }
        }
    }
}

fn suite_matrix(name: &str, scale: f64, seed: u64) -> CooMatrix {
    let mut spec = *spec_by_name(name).expect("the benchmark names only existing suite entries");
    spec.seed = seed;
    generate(&spec, scale).coo
}

/// Seeded vectors of one run: SpMV inputs, SpMM input blocks and the CG
/// right-hand side (the CG start vector is always zero).
pub struct Inputs {
    pub xs: Vec<Vec<f64>>,
    pub blocks: Vec<VectorBlock>,
    pub b: Vec<f64>,
}

/// Distinct SpMV input vectors cycled through the timed calls.
pub const SPMV_INPUTS: usize = 4;
/// Distinct 8-lane SpMM input blocks cycled through the timed calls.
pub const SPMM_INPUTS: usize = 2;
/// Lane width of the SpMM workload.
pub const LANES: usize = 8;

impl Inputs {
    pub fn new(n: usize, seed: u64) -> Inputs {
        let sub = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
        Inputs {
            xs: (0..SPMV_INPUTS as u64)
                .map(|k| seeded_vector(n, sub(k)))
                .collect(),
            blocks: (0..SPMM_INPUTS as u64)
                .map(|k| VectorBlock::seeded(n, LANES, sub(0x100 + k)))
                .collect(),
            b: seeded_vector(n, sub(0x200)),
        }
    }

    /// FNV-1a over the bits of every input vector, chained onto the matrix
    /// structure fingerprint: differs whenever the seed changes what the
    /// program receives, including on `poisson-cg`, whose matrix is fixed.
    pub fn fingerprint(&self, matrix_fingerprint: u64) -> u64 {
        let mut h = matrix_fingerprint ^ 0xcbf2_9ce4_8422_2325;
        let vectors = self
            .xs
            .iter()
            .map(|x| x.as_slice())
            .chain(self.blocks.iter().map(|b| b.as_slice()))
            .chain(std::iter::once(self.b.as_slice()));
        for v in vectors {
            for x in v {
                for byte in x.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}
