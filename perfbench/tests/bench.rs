//! The benchmark's own checks, on the small analogs of its workloads: a
//! wrong output is counted as a failure, and a seed fixes the inputs and
//! every count the benchmark reports.

use perfbench::run::{run, Options, Report};
use perfbench::workload::{Inputs, Size, Workload};
use symspmv_harness::json::Json;
use symspmv_sparse::SssMatrix;

fn small(workload: Workload, seed: u64, trace: bool, perturb_outputs: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.01,
        trace,
        size: Size::Small,
        perturb_outputs,
    })
    .expect("small run succeeds")
}

#[test]
fn perturbed_outputs_raise_the_failure_count() {
    for w in Workload::ALL {
        let clean = small(w, 3, false, false);
        assert_eq!(clean.failed, 0, "{}", w.name());
        assert_eq!(clean.metric("success_ratio"), Some(1.0));

        let bad = small(w, 3, false, true);
        let setups: usize = bad.record_value("setups").unwrap().parse().unwrap();
        // Every SpMV, SpMM and solve is wrong; only the set-ups pass.
        assert_eq!(bad.failed, bad.attempted - setups, "{}", w.name());
        let ratio = setups as f64 / bad.attempted as f64;
        assert_eq!(bad.metric("success_ratio"), Some(ratio), "{}", w.name());
        assert!(ratio < 0.5);
    }
}

#[test]
fn same_seed_repeats_inputs_and_counts() {
    const COUNTS: [&str; 4] = [
        "solver.iters",
        "runtime.rounds_per_spmv",
        "runtime.rounds_per_cg_iter",
        "core.local_len",
    ];
    const FACTS: [&str; 5] = [
        "matrix_fingerprint",
        "inputs_fingerprint",
        "n",
        "nnz",
        "plan",
    ];
    for w in Workload::ALL {
        let (a, b) = (small(w, 11, true, false), small(w, 11, true, false));
        for name in COUNTS {
            let v = a.metric(name).unwrap();
            assert_eq!(Some(v), b.metric(name), "{} {name}", w.name());
        }
        assert!(a.metric("solver.iters").unwrap() > 0.0);
        let (c, d) = (small(w, 11, false, false), small(w, 11, false, false));
        assert_eq!(c.metric("mem_mib"), d.metric("mem_mib"), "{}", w.name());
        for key in FACTS {
            for other in [&b, &c, &d] {
                assert_eq!(
                    a.record_value(key),
                    other.record_value(key),
                    "{} {key}",
                    w.name()
                );
            }
        }
    }
}

#[test]
fn traced_setup_reaches_the_auto_plan() {
    for w in Workload::ALL {
        let traced = small(w, 5, true, false);
        let plain = small(w, 5, false, false);
        assert_eq!(
            traced.record_value("plan"),
            plain.record_value("plan"),
            "{}",
            w.name()
        );
        for name in ["recon.setup_uncovered_share", "recon.spmv_uncovered_share"] {
            let share = traced.metric(name).unwrap();
            assert!(
                (-0.01..0.5).contains(&share),
                "{} {name} = {share}",
                w.name()
            );
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for w in Workload::ALL {
        let fingerprints: Vec<(u64, u64)> = [1u64, 2]
            .iter()
            .map(|&seed| {
                let coo = w.matrix(seed, Size::Small);
                let fp = SssMatrix::try_from_coo(&coo, 0.0).unwrap().fingerprint();
                let inputs = Inputs::new(coo.nrows() as usize, seed);
                (fp, inputs.fingerprint(fp))
            })
            .collect();
        assert_ne!(fingerprints[0].1, fingerprints[1].1, "{}", w.name());
        // The Laplacian is fixed; the suite analogs are regenerated.
        if w != Workload::PoissonCg {
            assert_ne!(fingerprints[0].0, fingerprints[1].0, "{}", w.name());
        }
    }
}

/// Names and units of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn runs_emit_exactly_the_declared_metrics() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let r = small(Workload::PoissonCg, 9, trace, false);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        let emitted: Vec<(String, String)> = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(emitted, declared(list), "{list}");
    }
}
