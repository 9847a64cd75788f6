//! The committed `BENCH_*.json` baselines at the repo root must meet
//! every gate in [`wasabi_bench::GATES`], so a bad re-record fails
//! `cargo test`, not only a CI smoke run.

use std::path::{Path, PathBuf};

use wasabi::JsonValue;
use wasabi_bench::{baseline_file, load_baseline, GATES, THREAD_SCALING};

fn committed(bench: &str) -> JsonValue {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(baseline_file(bench));
    load_baseline(&path).unwrap_or_else(|err| panic!("{err}"))
}

#[test]
fn every_committed_baseline_meets_its_gates() {
    let failures: Vec<String> = GATES
        .iter()
        .filter_map(|gate| gate.check(&committed(gate.bench)).err())
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn committed_thread_scaling_is_gated_only_on_a_multi_core_recording() {
    let parallel = committed(THREAD_SCALING.bench);
    let cores = parallel
        .get("cores")
        .and_then(JsonValue::as_i64)
        .expect("BENCH_parallel.json records `cores`");
    if cores > 1 {
        if let Err(failure) = THREAD_SCALING.check(&parallel) {
            panic!("{failure}");
        }
    }
}
