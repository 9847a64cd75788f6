//! # wasabi-bench — harness regenerating and extending the paper's evaluation
//!
//! Two families of binaries. First, one per paper table/figure (see
//! DESIGN.md §4 for the experiment index):
//!
//! | target | paper artifact |
//! |---|---|
//! | `table4` | Table 4 (analyses, hooks, LoC) |
//! | `table5` | Table 5 (instrumentation time & throughput) + §4.4 parallel speedup |
//! | `fig8` | Figure 8 (binary size increase per hook) |
//! | `fig9` | Figure 9 (runtime overhead per hook) |
//! | `monomorphization` | §4.5 (on-demand hook counts vs. eager blow-up) |
//! | `ablation` | per-mechanism cost breakdown |
//!
//! Second, regression baselines for this reproduction's own extensions,
//! each writing a committed `BENCH_*.json` that `ci.sh` gates on:
//!
//! | target | extension measured | artifact |
//! |---|---|---|
//! | `pipeline` | fused multi-analysis pipeline vs. N sequential sessions | `BENCH_pipeline.json` |
//! | `interp` | flat pre-translated IR vs. the structured walk | `BENCH_interp.json` |
//! | `overhead` | host-call intrinsics vs. the generic call path (Fig. 9 revisited) | `BENCH_overhead.json` |
//! | `fleet` | batch engine: shared translated-module cache + work-stealing workers, cold vs. warm, 1 worker vs. all cores | `BENCH_fleet.json` |
//!
//! Every extension binary accepts `--smoke` (a seconds-scale workload for
//! CI) and `--out <path>`; run them in release mode, e.g.
//! `cargo run --release -p wasabi-bench --bin fleet`.
//!
//! The library part of this crate holds what the binaries share: the
//! [`FIGURE_HOOK_GROUPS`] x-axis of Figures 8/9, workload construction
//! ([`subjects`]), and the measurement helpers
//! ([`run_original`], [`run_instrumented`], [`instrumentation_stats`], …).

use std::time::{Duration, Instant};

use wasabi::hooks::{Hook, HookSet, NoAnalysis};
use wasabi::{instrument, AnalysisSession, WasabiHost};
use wasabi_vm::{EmptyHost, Instance, Reference, TranslatedModule};
use wasabi_wasm::encode::encode;
use wasabi_wasm::module::Module;
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};
use wasabi_workloads::{compile, polybench};

/// The per-hook instrumentation groups on the x-axis of Figures 8 and 9.
///
/// `call` covers both `call_pre` and `call_post` (one x-axis entry in the
/// paper); `start` is excluded (it fires at most once and has no figure
/// entry).
pub const FIGURE_HOOK_GROUPS: [(&str, &[Hook]); 21] = [
    ("nop", &[Hook::Nop]),
    ("unreachable", &[Hook::Unreachable]),
    ("memory_size", &[Hook::MemorySize]),
    ("memory_grow", &[Hook::MemoryGrow]),
    ("select", &[Hook::Select]),
    ("drop", &[Hook::Drop]),
    ("load", &[Hook::Load]),
    ("store", &[Hook::Store]),
    ("call", &[Hook::CallPre, Hook::CallPost]),
    ("return", &[Hook::Return]),
    ("const", &[Hook::Const]),
    ("unary", &[Hook::Unary]),
    ("binary", &[Hook::Binary]),
    ("global", &[Hook::Global]),
    ("local", &[Hook::Local]),
    ("begin", &[Hook::Begin]),
    ("end", &[Hook::End]),
    ("if", &[Hook::If]),
    ("br", &[Hook::Br]),
    ("br_if", &[Hook::BrIf]),
    ("br_table", &[Hook::BrTable]),
];

/// A named evaluation subject.
pub struct Subject {
    pub name: String,
    pub module: Module,
    /// `true` for the 30 PolyBench kernels (aggregated in figures).
    pub is_polybench: bool,
}

/// The paper's 32 programs: 30 PolyBench kernels plus the two app-like
/// binaries (scaled to `app_scale` bytes for the smaller one; the paper's
/// full sizes are 9.5 MB and 39.5 MB, ratio preserved).
pub fn subjects(polybench_n: u32, app_scale: usize) -> Vec<Subject> {
    let mut subjects: Vec<Subject> = polybench::all(polybench_n)
        .iter()
        .map(|program| Subject {
            name: program.name.to_string(),
            module: compile(program),
            is_polybench: true,
        })
        .collect();
    subjects.push(Subject {
        name: "pspdfkit-like".to_string(),
        module: synthetic_app(&SyntheticConfig::pspdfkit_like().with_target_bytes(app_scale)),
        is_polybench: false,
    });
    subjects.push(Subject {
        name: "unreal-like".to_string(),
        module: synthetic_app(
            &SyntheticConfig::unreal_like().with_target_bytes(app_scale * 39_510 / 9_615),
        ),
        is_polybench: false,
    });
    subjects
}

/// Encoded binary size in bytes.
pub fn binary_size(module: &Module) -> usize {
    encode(module).len()
}

/// Time one instrumentation run.
pub fn time_instrumentation(module: &Module, hooks: HookSet) -> Duration {
    let start = Instant::now();
    let result = instrument(module, hooks).expect("instruments");
    let elapsed = start.elapsed();
    std::hint::black_box(result);
    elapsed
}

/// Mean and standard deviation of `runs` instrumentation timings.
pub fn instrumentation_stats(module: &Module, hooks: HookSet, runs: usize) -> (Duration, Duration) {
    let times: Vec<f64> = (0..runs)
        .map(|_| time_instrumentation(module, hooks).as_secs_f64())
        .collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
    (
        Duration::from_secs_f64(mean),
        Duration::from_secs_f64(var.sqrt()),
    )
}

/// Outcome of one measured execution.
pub struct RunMeasurement {
    pub wall: Duration,
    /// WebAssembly instructions the VM executed (a deterministic cost
    /// metric that complements wall time).
    pub vm_instrs: u64,
    /// Host calls dispatched through the VM's host-call intrinsic fast
    /// path (`Op::HostCall`/`Op::HostCallConst`).
    pub host_calls_fast: u64,
    /// Host calls dispatched through the generic call machinery.
    pub host_calls_slow: u64,
}

impl RunMeasurement {
    fn from_instance(wall: Duration, instance: &wasabi_vm::Instance) -> Self {
        let (host_calls_fast, host_calls_slow) = instance.host_call_counts();
        RunMeasurement {
            wall,
            vm_instrs: instance.executed_instrs(),
            host_calls_fast,
            host_calls_slow,
        }
    }
}

/// A no-op analysis that **subscribes to all hooks**: every event is built
/// and delivered (to empty handlers). This reproduces the pre-intrinsic
/// runtime cost — [`NoAnalysis`] subscribes to nothing, so since the
/// zero-subscriber skip every hook call under it returns before event
/// construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllHooksNop;

impl wasabi::hooks::Analysis for AllHooksNop {
    fn name(&self) -> &str {
        "all_hooks_nop"
    }

    fn hooks(&self) -> HookSet {
        HookSet::all()
    }
}

/// Run the uninstrumented module's export once and measure it.
pub fn run_original(module: &Module, export: &str) -> RunMeasurement {
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("instantiates");
    let start = Instant::now();
    instance
        .invoke_export(export, &[], &mut host)
        .expect("runs without trap");
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Instrument for `hooks`, run under the no-op analysis, and measure.
/// The measured time excludes instrumentation (like the paper, which
/// instruments offline and measures execution in the browser).
pub fn run_instrumented(module: &Module, hooks: HookSet, export: &str) -> RunMeasurement {
    let session = AnalysisSession::new(module, hooks).expect("instruments");
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(session.info(), &mut analysis);
    let mut instance =
        Instance::instantiate(session.module().clone(), &mut host).expect("instantiates");
    let start = Instant::now();
    instance
        .invoke_export(export, &[], &mut host)
        .expect("runs without trap");
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Best-of-`repeats` original run (minimum wall time suppresses scheduler
/// noise on short-running subjects; the VM instruction count is identical
/// across repeats). The module is validated and translated to the flat IR
/// **once**; each repeat only instantiates.
pub fn run_original_repeated(module: &Module, export: &str, repeats: usize) -> RunMeasurement {
    let translated = TranslatedModule::new(module.clone()).expect("validates");
    (0..repeats.max(1))
        .map(|_| {
            let mut host = EmptyHost;
            let mut instance =
                Instance::instantiate_translated(&translated, &mut host).expect("instantiates");
            let start = Instant::now();
            instance
                .invoke_export(export, &[], &mut host)
                .expect("runs without trap");
            RunMeasurement::from_instance(start.elapsed(), &instance)
        })
        .min_by(|a, b| a.wall.cmp(&b.wall))
        .expect("at least one run")
}

/// Best-of-`repeats` instrumented run (instrumentation done once).
pub fn run_instrumented_repeated(
    module: &Module,
    hooks: HookSet,
    export: &str,
    repeats: usize,
) -> RunMeasurement {
    let session = AnalysisSession::new(module, hooks).expect("instruments");
    (0..repeats.max(1))
        .map(|_| {
            let mut analysis = NoAnalysis;
            let mut host = WasabiHost::new(session.info(), &mut analysis);
            let mut instance = Instance::instantiate_translated(session.translated(), &mut host)
                .expect("instantiates");
            let start = Instant::now();
            instance
                .invoke_export(export, &[], &mut host)
                .expect("runs without trap");
            RunMeasurement::from_instance(start.elapsed(), &instance)
        })
        .min_by(|a, b| a.wall.cmp(&b.wall))
        .expect("at least one run")
}

/// Measure `invocations` consecutive calls of the uninstrumented export
/// (one instantiation; wall time and instruction count are totals). Use
/// for short-running subjects where a single call is below timer
/// resolution.
pub fn run_original_amortized(module: &Module, export: &str, invocations: usize) -> RunMeasurement {
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        instance
            .invoke_export(export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Measure `invocations` consecutive calls of the uninstrumented export
/// executed by the structured-walk [`Reference`] oracle — the seed
/// interpreter semantics, the "before" side of `BENCH_interp.json`.
pub fn run_reference_amortized(
    module: &Module,
    export: &str,
    invocations: usize,
) -> RunMeasurement {
    let reference = Reference::new(module);
    let mut host = EmptyHost;
    let mut instance = Instance::instantiate(module.clone(), &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        reference
            .invoke_export(&mut instance, export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Amortized flat-IR counterpart of [`run_reference_amortized`]: the
/// module is translated once up front, then invoked on one instance.
pub fn run_flat_amortized(
    translated: &TranslatedModule,
    export: &str,
    invocations: usize,
) -> RunMeasurement {
    let mut host = EmptyHost;
    let mut instance =
        Instance::instantiate_translated(translated, &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        instance
            .invoke_export(export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Amortized counterpart of [`run_instrumented`].
pub fn run_instrumented_amortized(
    module: &Module,
    hooks: HookSet,
    export: &str,
    invocations: usize,
) -> RunMeasurement {
    let session = AnalysisSession::new(module, hooks).expect("instruments");
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(session.info(), &mut analysis);
    let mut instance =
        Instance::instantiate_translated(session.translated(), &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        instance
            .invoke_export(export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Amortized instrumented run over the **direct-emit path**
/// (`AnalysisSession::direct`): hook calls are injected at translate time
/// as synthetic imports, never encoded into a rewritten binary. Under
/// [`NoAnalysis`] every hook plan is a no-op, so the VM's instantiation-time
/// `is_noop` mask drops the calls before argument marshalling — the "after"
/// side of the `direct_vs_rewrite` ratio in `BENCH_overhead.json`.
pub fn run_direct_amortized(
    module: &Module,
    hooks: HookSet,
    export: &str,
    invocations: usize,
) -> RunMeasurement {
    let session = AnalysisSession::direct(module, hooks).expect("instruments");
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(session.info(), &mut analysis);
    let mut instance =
        Instance::instantiate_translated(session.translated(), &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        instance
            .invoke_export(export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Amortized instrumented run over the **pre-intrinsic generic-call
/// path**: the instrumented module is translated *without* host-call
/// intrinsics and runs under [`AllHooksNop`], so every hook call goes
/// through the generic call machinery and builds its event — the "before"
/// side of `BENCH_overhead.json`.
pub fn run_instrumented_generic_amortized(
    module: &Module,
    hooks: HookSet,
    export: &str,
    invocations: usize,
) -> RunMeasurement {
    let (instrumented, info) = instrument(module, hooks).expect("instruments");
    let translated =
        TranslatedModule::new_without_host_intrinsics(instrumented).expect("validates");
    let mut analysis = AllHooksNop;
    let mut host = WasabiHost::new(&info, &mut analysis);
    let mut instance =
        Instance::instantiate_translated(&translated, &mut host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        instance
            .invoke_export(export, &[], &mut host)
            .expect("runs without trap");
    }
    RunMeasurement::from_instance(start.elapsed(), &instance)
}

/// Geometric mean.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(sum, n), value| (sum + value.ln(), n + 1));
    if n == 0 {
        return f64::NAN;
    }
    (sum / f64::from(n)).exp()
}

/// Format a byte count like the paper's tables (`9 615 389`).
pub fn format_bytes(bytes: usize) -> String {
    let digits: Vec<char> = bytes.to_string().chars().rev().collect();
    let mut out = String::new();
    for (i, d) in digits.iter().enumerate() {
        if i > 0 && i % 3 == 0 {
            out.push(' ');
        }
        out.push(*d);
    }
    out.chars().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hook_groups_cover_everything_but_start_and_split_call() {
        let mut covered = HookSet::empty();
        for (_, hooks) in FIGURE_HOOK_GROUPS {
            for &hook in hooks {
                covered.insert(hook);
            }
        }
        let mut expected = HookSet::all();
        expected.remove(Hook::Start);
        assert_eq!(covered, expected);
        assert_eq!(FIGURE_HOOK_GROUPS.len(), 21);
    }

    #[test]
    fn subject_corpus_has_32_programs() {
        // Paper §4.1: "We apply Wasabi to 32 programs."
        let subjects = subjects(4, 50_000);
        assert_eq!(subjects.len(), 32);
        assert_eq!(subjects.iter().filter(|s| s.is_polybench).count(), 30);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(9_615_389), "9 615 389");
        assert_eq!(format_bytes(42), "42");
        assert_eq!(format_bytes(1_000), "1 000");
    }

    #[test]
    fn reference_and_flat_execute_identically() {
        let module = compile(&polybench::by_name("jacobi-1d", 6).unwrap());
        let translated = TranslatedModule::new(module.clone()).unwrap();
        let flat = run_flat_amortized(&translated, "main", 2);
        let reference = run_reference_amortized(&module, "main", 2);
        // Superinstructions count as the instructions they were fused from,
        // so both executors must report the same instruction total.
        assert_eq!(flat.vm_instrs, reference.vm_instrs);
    }

    #[test]
    fn overhead_measurement_is_sane() {
        let module = compile(&polybench::by_name("jacobi-1d", 8).unwrap());
        let base = run_original(&module, "main");
        let all = run_instrumented(&module, HookSet::all(), "main");
        // Full instrumentation must execute strictly more VM instructions.
        assert!(all.vm_instrs > base.vm_instrs);
        // ... and its hook calls must ride the intrinsic fast path.
        assert!(all.host_calls_fast > 0);
        assert_eq!(all.host_calls_slow, 0);
        assert_eq!(base.host_calls_fast + base.host_calls_slow, 0);
    }

    #[test]
    fn direct_path_matches_rewrite_counts_and_masks_every_hook() {
        let module = compile(&polybench::by_name("jacobi-1d", 6).unwrap());
        let rewrite = run_instrumented_amortized(&module, HookSet::all(), "main", 1);
        let direct = run_direct_amortized(&module, HookSet::all(), "main", 1);
        // Same injected hook sites, same executed-instruction accounting.
        assert_eq!(direct.vm_instrs, rewrite.vm_instrs);
        assert_eq!(direct.host_calls_fast, rewrite.host_calls_fast);
        // Under NoAnalysis every plan is a no-op, so direct-emit's synthetic
        // imports are all masked at instantiation: zero slow-path calls.
        assert_eq!(direct.host_calls_slow, 0);
    }

    #[test]
    fn generic_path_matches_intrinsic_counts_but_takes_the_slow_route() {
        let module = compile(&polybench::by_name("jacobi-1d", 6).unwrap());
        let fast = run_instrumented_amortized(&module, HookSet::all(), "main", 1);
        let slow = run_instrumented_generic_amortized(&module, HookSet::all(), "main", 1);
        assert_eq!(fast.vm_instrs, slow.vm_instrs);
        assert_eq!(
            slow.host_calls_fast, 0,
            "generic path must not use intrinsics"
        );
        assert_eq!(
            fast.host_calls_fast + fast.host_calls_slow,
            slow.host_calls_slow,
            "same hook calls, different dispatch route"
        );
    }
}
