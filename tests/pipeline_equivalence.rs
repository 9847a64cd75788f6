//! Property test for the fused pipeline (ISSUE 2 acceptance criterion):
//! a fused `Pipeline` run over N analyses produces **bit-identical**
//! per-analysis results to N independent `AnalysisSession` runs, on
//! random well-typed modules.
//!
//! "Bit-identical" is checked two ways: through the structured reports
//! for every registered analysis (deterministic serialization of each
//! analysis' findings — some reports aggregate, so this alone could miss
//! a divergence that preserves aggregates), and through *full internal
//! state* (complete traces, covered-location sets, branch-outcome maps)
//! for concrete analysis types in `full_state_matches_event_for_event`.
//! `eight_table4_analyses_fused_cost_one_pass_each_way` pins the cost
//! side: one session, one execution.

use proptest::prelude::*;

use wasabi_repro::analyses::registry;
use wasabi_repro::core::hooks::{Analysis, HookSet};
use wasabi_repro::core::{AnalysisSession, Wasabi};
use wasabi_repro::workloads::synthetic::{synthetic_app, SyntheticConfig};
use wasabi_repro::workloads::{compile, polybench};

/// Run `names` sequentially, one instrument+execute pass each, and return
/// each analysis' report JSON.
fn sequential_reports(module: &wasabi_repro::wasm::Module, names: &[&str]) -> Vec<String> {
    names
        .iter()
        .map(|name| {
            let mut analysis = registry::by_name(name).expect("registered");
            let session =
                AnalysisSession::for_analysis(module, analysis.as_ref()).expect("instruments");
            session.run(analysis.as_mut(), "main", &[]).expect("runs");
            analysis.report().to_json()
        })
        .collect()
}

/// Run `names` fused in one pipeline pass and return the report JSONs.
fn fused_reports(module: &wasabi_repro::wasm::Module, names: &[&str]) -> Vec<String> {
    let mut analyses: Vec<Box<dyn Analysis>> = names
        .iter()
        .map(|name| registry::by_name(name).expect("registered"))
        .collect();
    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    let mut pipeline = builder.build(module).expect("instruments");
    pipeline.run("main", &[]).expect("runs");
    pipeline
        .reports()
        .iter()
        .map(|report| report.to_json())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fused_pipeline_matches_independent_sessions(
        seed in any::<u64>(),
        function_count in 2usize..6,
        body_statements in 2usize..6,
        // Non-empty subset of the 9 registered analyses, as a bitmask.
        mask in 1u32..512,
    ) {
        let module = synthetic_app(&SyntheticConfig {
            seed,
            function_count,
            body_statements,
        });
        let names: Vec<&str> = registry::NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, name)| *name)
            .collect();

        let expected = sequential_reports(&module, &names);
        let fused = fused_reports(&module, &names);
        prop_assert_eq!(fused, expected);
    }
}

#[test]
fn full_state_matches_event_for_event() {
    // Reports aggregate; this compares the analyses' COMPLETE internal
    // state, so a fused-dispatch bug that reorders or drops single
    // events while preserving aggregates is still caught.
    use wasabi_repro::analyses::{BranchCoverage, InstructionCoverage, MemoryTracing};

    let module = compile(&polybench::by_name("gemm", 8).expect("known kernel"));

    let mut seq_trace = MemoryTracing::new();
    let session = AnalysisSession::for_analysis(&module, &seq_trace).unwrap();
    session.run(&mut seq_trace, "main", &[]).unwrap();
    let mut seq_cov = InstructionCoverage::new();
    let session = AnalysisSession::for_analysis(&module, &seq_cov).unwrap();
    session.run(&mut seq_cov, "main", &[]).unwrap();
    let mut seq_branches = BranchCoverage::new();
    let session = AnalysisSession::for_analysis(&module, &seq_branches).unwrap();
    session.run(&mut seq_branches, "main", &[]).unwrap();

    let mut trace = MemoryTracing::new();
    let mut cov = InstructionCoverage::new();
    let mut branches = BranchCoverage::new();
    let mut pipeline = Wasabi::builder()
        .analysis(&mut trace)
        .analysis(&mut cov)
        .analysis(&mut branches)
        .build(&module)
        .unwrap();
    pipeline.run("main", &[]).unwrap();
    drop(pipeline);

    // Every access in order, every covered location, every outcome set.
    assert_eq!(trace.trace(), seq_trace.trace());
    assert_eq!(cov.covered(), seq_cov.covered());
    assert_eq!(branches.branches(), seq_branches.branches());
    assert!(!trace.trace().is_empty() && !cov.covered().is_empty());
}

#[test]
fn all_nine_analyses_agree_on_a_polybench_kernel() {
    // The deterministic anchor for the property above: every registered
    // analysis at once, on a real workload.
    let module = compile(&polybench::by_name("gemm", 8).expect("known kernel"));
    let names: Vec<&str> = registry::NAMES.to_vec();
    let expected = sequential_reports(&module, &names);
    let fused = fused_reports(&module, &names);
    assert_eq!(fused, expected);
    // And the reports are actually non-trivial.
    assert!(expected
        .iter()
        .any(|json| json.contains("\"total\"") && !json.contains("\"total\":0")));
}

#[test]
fn eight_table4_analyses_fused_cost_one_pass_each_way() {
    let module = compile(&polybench::by_name("gemm", 8).expect("known kernel"));
    let mut analyses = registry::table4();
    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    let mut pipeline = builder.build(&module).expect("instruments");
    assert_eq!(pipeline.len(), 8);
    // ONE instrumentation pass: the pipeline's single session holds the
    // union hook set (several Table-4 analyses use all 23 hooks).
    assert_eq!(pipeline.session().info().enabled, HookSet::all());
    pipeline.run("main", &[]).expect("runs");

    let reports = pipeline.reports();
    for (report, name) in reports.iter().zip(registry::TABLE4_NAMES) {
        assert_eq!(report.analysis, name);
        assert!(!report.data.is_null(), "{name} must report real data");
    }
    // ONE execution pass: every report equals its analysis' own
    // single-run session, which a second fused execution would double.
    let fused: Vec<String> = reports.iter().map(|report| report.to_json()).collect();
    assert_eq!(fused, sequential_reports(&module, &registry::TABLE4_NAMES));
}
