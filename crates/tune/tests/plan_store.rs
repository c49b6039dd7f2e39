//! Plan-store round-trip and failure-policy properties (ISSUE 9):
//! key mismatches fall back to the cost model, a version bump makes the
//! store invisible, corrupted JSON is a typed `SymSpmvError` (never a
//! panic), and two tune runs on one seed pick the same plan.

use std::path::PathBuf;
use symspmv_core::auto::{PlanSource, PlanSpec};
use symspmv_core::{ReductionMethod, SymSpmv, SymSpmvError};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::gen;
use symspmv_tune::{
    tune_and_store, tune_matrix, ModelMeasurer, PlanStore, TuneOptions, PLAN_STORE_FILE,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symspmv-plan-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> TuneOptions {
    TuneOptions {
        thread_counts: vec![1, 2],
        lanes: vec![1, 4],
        samples: 3,
        iterations: 2,
        prune_factor: 1.6,
        min_keep: 12,
        seed: 0xA11CE,
    }
}

#[test]
fn round_trip_preserves_the_stored_plan() {
    let dir = tmp_dir("roundtrip");
    let coo = gen::laplacian_2d(16, 16);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, hit) = tune_and_store(&coo, &mut store, &opts(), &mut ModelMeasurer).unwrap();
    assert!(!hit, "first run must measure");
    assert!(outcome.measured >= 12);

    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert_eq!(reloaded.len(), 1);
    let stored = reloaded.get(outcome.fingerprint).expect("plan persisted");
    assert_eq!(*stored, outcome.winner, "JSON round-trip must be lossless");

    // Second run: store hit, no re-measurement, same plan.
    let mut store2 = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (again, hit2) = tune_and_store(&coo, &mut store2, &opts(), &mut ModelMeasurer).unwrap();
    assert!(hit2, "second run must hit the store");
    assert_eq!(again.measured, 0, "a store hit must not re-measure");
    assert_eq!(again.winner, outcome.winner);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_falls_back_to_the_cost_model() {
    let dir = tmp_dir("keymismatch");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &opts(), &mut ModelMeasurer).unwrap();

    // Different machine model, different ncpus, different fingerprint:
    // each alone must miss.
    let other_machine = PlanStore::open_for_machine(&dir, "cpu-B".into(), 2).unwrap();
    assert!(other_machine.get(outcome.fingerprint).is_none());
    let other_ncpus = PlanStore::open_for_machine(&dir, "cpu-A".into(), 4).unwrap();
    assert!(other_ncpus.get(outcome.fingerprint).is_none());
    let same = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(same.get(outcome.fingerprint ^ 1).is_none());
    assert!(same.get(outcome.fingerprint).is_some());

    // Through the engine: a mismatching advisor means the cost model
    // decides (and the build still succeeds).
    let ctx = ExecutionContext::new(2);
    let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&other_machine)).unwrap();
    assert_eq!(choice.source, PlanSource::CostModel);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_plan_is_served_through_the_advisor() {
    let dir = tmp_dir("advisor");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &opts(), &mut ModelMeasurer).unwrap();

    let ctx = ExecutionContext::new(outcome.winner.spec.nthreads);
    let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&store)).unwrap();
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(choice.spec, outcome.winner.spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_makes_the_store_invisible() {
    let dir = tmp_dir("version");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &opts(), &mut ModelMeasurer).unwrap();

    // Rewrite the file under a future schema version.
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("\"version\":1", "\"version\":999", 1);
    assert_ne!(text, bumped, "test must actually bump the version");
    std::fs::write(&path, bumped).unwrap();

    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(reloaded.ignored_version_mismatch());
    assert!(
        reloaded.is_empty(),
        "a future schema must be ignored, not parsed"
    );
    assert!(reloaded.get(outcome.fingerprint).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_json_is_a_typed_error_never_a_panic() {
    let dir = tmp_dir("corrupt");
    let path = dir.join(PLAN_STORE_FILE);
    for garbage in [
        "{",
        "not json at all",
        "{\"version\":1,\"plans\":[{\"fingerprint\":42}]}",
        "{\"version\":1,\"plans\":[{\"fingerprint\":\"0xzz\"}]}",
        "{\"version\":1,\"plans\":{}}",
        "{\"plans\":[]}",
        // A structurally valid entry that names an unbuildable plan.
        "{\"version\":1,\"plans\":[{\"fingerprint\":\"0x0000000000000001\",\
          \"ncpus\":2,\"machine\":\"m\",\"format\":\"hybrid\",\"method\":\"naive\",\
          \"nthreads\":2,\"lanes\":1,\"predicted_bytes\":1.0,\"measured_secs\":1.0,\
          \"candidates_measured\":1,\"certified\":true}]}",
    ] {
        std::fs::write(&path, garbage).unwrap();
        let result = PlanStore::open_for_machine(&dir, "m".into(), 2);
        match result {
            Err(SymSpmvError::Parse(_)) | Err(SymSpmvError::InvalidStructure(_)) => {}
            other => panic!("garbage {garbage:?} produced {other:?}, expected a Parse error"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncertified_plans_are_refused_on_write_and_read() {
    let dir = tmp_dir("uncertified");
    let mut store = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    let plan = symspmv_tune::TunedPlan {
        spec: PlanSpec {
            format: symspmv_core::auto::FormatTag::Sss,
            method: ReductionMethod::Indexing,
            nthreads: 2,
            lanes: 1,
        },
        predicted_bytes: 1.0,
        measured_secs: 1.0,
        candidates_measured: 12,
        certified: false,
    };
    assert!(
        store.put(1, plan.clone()).is_err(),
        "store must refuse uncertified plans"
    );

    // A hand-edited uncertified entry on disk is never served.
    let mut certified = plan;
    certified.certified = true;
    store.put(1, certified).unwrap();
    store.save().unwrap();
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replace("\"certified\":true", "\"certified\":false"),
    )
    .unwrap();
    let reloaded = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    assert!(
        reloaded.get(1).is_none(),
        "uncertified entries must not be served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_tune_runs_on_the_same_seed_pick_the_same_plan() {
    let coo = gen::banded_random(600, 12, 6.0, 5);
    let a = tune_matrix(&coo, &opts(), &mut ModelMeasurer).unwrap();
    let b = tune_matrix(&coo, &opts(), &mut ModelMeasurer).unwrap();
    assert_eq!(a.winner, b.winner, "same seed must reproduce the same plan");
    assert_eq!(a.measured, b.measured);

    // A different seed may pick differently, but must still certify.
    let mut other = opts();
    other.seed = 0xBEEF;
    let c = tune_matrix(&coo, &other, &mut ModelMeasurer).unwrap();
    assert!(c.winner.certified);
}

#[test]
fn missing_store_directory_is_an_empty_store() {
    let dir =
        std::env::temp_dir().join(format!("symspmv-plan-store-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    assert!(store.is_empty());
    assert!(!store.ignored_version_mismatch());
}

#[test]
fn auto_kernel_runs_on_the_stored_thread_count() {
    let dir = tmp_dir("autokernel");
    let coo = gen::laplacian_2d(16, 16);
    let mut store = PlanStore::open_for_machine(
        &dir,
        symspmv_tune::machine::cpu_model(),
        symspmv_tune::machine::ncpus(),
    )
    .unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &opts(), &mut ModelMeasurer).unwrap();
    let (mut kernel, choice) = symspmv_tune::auto_kernel(&coo, Some(&store)).unwrap();
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(kernel.nthreads(), outcome.winner.spec.nthreads);
    let n = kernel.n();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    kernel.spmv(&x, &mut y);
    assert!(y.iter().all(|v: &f64| v.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}
