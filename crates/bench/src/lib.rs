//! # wasabi-bench — harness regenerating and extending the paper's evaluation
//!
//! Two families of binaries. First, one per paper table/figure:
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
//! each recording a committed `BENCH_<target>.json`:
//!
//! | target | extension measured |
//! |---|---|
//! | `pipeline` | fused multi-analysis pipeline vs. N sequential sessions |
//! | `interp` | flat pre-translated IR vs. the structured walk |
//! | `overhead` | host-call intrinsics and direct emit vs. the generic call path (Fig. 9 revisited) |
//! | `fleet` | batch engine: shared translated-module cache + work-stealing workers, cold vs. warm, 1 worker vs. all cores |
//! | `parallel` | function-granular parallel build, and a disk-warm vs. cold process start |
//! | `cohort` | one N-input cohort sweep vs. N warm fleet jobs |
//!
//! Every binary takes one optional argument, `--smoke` (see [`Mode`]);
//! any other argument prints usage and exits 2. Full mode is the
//! recording run: a baseline binary writes `BENCH_<target>.json` to the
//! working directory. Smoke mode shrinks the workload to seconds, writes
//! nothing, and checks the fresh result against [`GATES`], exiting 1 if a
//! gate fails. Run them in release mode, e.g.
//! `cargo run --release -p wasabi-bench --bin fleet -- --smoke`.
//!
//! The library part of this crate holds what the binaries share: the
//! [`FIGURE_HOOK_GROUPS`] x-axis of Figures 8/9, workload construction
//! ([`subjects`], [`kernels`]), the measurement helpers ([`run_flat`],
//! [`run_session`], [`instrumentation_stats`], …), the repetition
//! estimators ([`best_of`], [`median_of`]), and the gate table.

use std::path::Path;
use std::time::{Duration, Instant};

use wasabi::hooks::{Hook, HookSet, NoAnalysis};
use wasabi::{instrument, AnalysisSession, JsonValue, WasabiHost};
use wasabi_vm::{EmptyHost, Host, Instance, Reference, TranslatedModule};
use wasabi_wasm::encode::encode;
use wasabi_wasm::module::Module;
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};
use wasabi_workloads::{compile, polybench};
use Bound::{AtLeast, AtMost};

/// How a bench binary runs, chosen by its one optional argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The recording run at the sizes the baselines were taken at.
    Full,
    /// `--smoke`: a seconds-scale workload for CI.
    Smoke,
}

impl Mode {
    /// Parse a binary's arguments (program name excluded). The only
    /// accepted argument is `--smoke`, so a typo can never fall through
    /// to a full run that overwrites a committed baseline.
    ///
    /// # Errors
    ///
    /// Any other argument, or more than one.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Mode, String> {
        match args {
            [] => Ok(Mode::Full),
            [flag] if flag.as_ref() == "--smoke" => Ok(Mode::Smoke),
            _ => Err(format!(
                "unexpected argument(s): {}",
                args.iter().map(AsRef::as_ref).collect::<Vec<_>>().join(" ")
            )),
        }
    }

    /// [`Mode::parse`] on the process arguments; on an error, print usage
    /// to stderr and exit 2.
    pub fn from_args() -> Mode {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let rest: Vec<String> = args.collect();
        Mode::parse(&rest).unwrap_or_else(|err| {
            eprintln!("{err}\nusage: {bin} [--smoke]");
            std::process::exit(2)
        })
    }

    /// `full` in full mode, `smoke` in smoke mode.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Mode::Full => full,
            Mode::Smoke => smoke,
        }
    }
}

/// Which way a [`Gate`] bounds its number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The number must be `>=` the bound.
    AtLeast(f64),
    /// The number must be `<=` the bound.
    AtMost(f64),
}

/// One performance floor on a number in a `BENCH_<bench>.json` baseline.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The bench binary that records the number.
    pub bench: &'static str,
    /// The gated number: an object key, `/` stepping into a nested object.
    pub key: &'static str,
    /// The floor (or ceiling).
    pub bound: Bound,
    /// Also checked on a fresh smoke run, not only on the committed file.
    pub fresh: bool,
}

impl Gate {
    /// Check `doc` against this gate: `Ok` with a one-line summary, `Err`
    /// with the failure. A missing key or a non-number fails.
    ///
    /// # Errors
    ///
    /// The number is missing, not a number, or past the bound.
    pub fn check(&self, doc: &JsonValue) -> Result<String, String> {
        let value = self
            .key
            .split('/')
            .try_fold(doc, |value, key| value.get(key))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{}: `{}` is missing or not a number", self.bench, self.key))?;
        let (ok, op, bound) = match self.bound {
            AtLeast(bound) => (value >= bound, ">=", bound),
            AtMost(bound) => (value <= bound, "<=", bound),
        };
        let line = format!("{} {} = {value:.3} ({op} {bound})", self.bench, self.key);
        if ok {
            Ok(line)
        } else {
            Err(line)
        }
    }
}

/// Every single-number performance floor on the baselines. Each ratio
/// compares two arms measured in one process, so it holds across hosts
/// of different speed.
///
/// Two rules are not single-key thresholds and live as code: the
/// `overhead` binary's smoke run must keep its same-kernel all-hooks
/// overhead geomean within 1.25x of the committed one, and
/// [`THREAD_SCALING`] applies only to multi-core recordings.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // Flat pre-translated IR vs. the structured walk, geomean over kernels.
    Gate { bench: "interp", key: "geomean_speedup", bound: AtLeast(2.0), fresh: true },
    // Eight Table-4 analyses fused vs. eight sequential sessions.
    Gate { bench: "pipeline", key: "speedup", bound: AtLeast(2.0), fresh: false },
    // All-hooks wall time, generic call path over intrinsic dispatch.
    Gate { bench: "overhead", key: "all/improvement", bound: AtLeast(1.5), fresh: false },
    // All-hooks wall time, direct emit over the rewrite path.
    Gate { bench: "overhead", key: "all/direct_vs_rewrite", bound: AtMost(0.75), fresh: true },
    // Warm cache on all cores vs. cold cache on one worker, jobs/sec.
    Gate { bench: "fleet", key: "warm_allcores_vs_cold_1worker", bound: AtLeast(1.5), fresh: true },
    // Loading prepared sessions from disk vs. building them.
    Gate { bench: "parallel", key: "disk_warm_vs_cold", bound: AtLeast(2.0), fresh: true },
    // One cohort sweep vs. the same inputs as warm 1-worker fleet jobs.
    Gate { bench: "cohort", key: "speedup_cohort_vs_fleet", bound: AtLeast(1.5), fresh: true },
];

/// The build speedup at max threads in `BENCH_parallel.json`. Judged on
/// the committed file only, and only when it was recorded on more than
/// one core (its `cores` key): on one core the sweep is ~1x by
/// construction.
pub const THREAD_SCALING: Gate = Gate {
    bench: "parallel",
    key: "speedup_max_threads",
    bound: AtLeast(1.5),
    fresh: false,
};

/// The [`GATES`] of `bench` that apply to its committed file, or to a
/// fresh smoke run when `fresh`.
pub fn gates_for(bench: &str, fresh: bool) -> impl Iterator<Item = &'static Gate> + '_ {
    GATES
        .iter()
        .filter(move |gate| gate.bench == bench && (gate.fresh || !fresh))
}

/// Print each gate outcome to stderr; exit 1 if any failed.
pub fn enforce(outcomes: impl IntoIterator<Item = Result<String, String>>) {
    let mut failed = false;
    for outcome in outcomes {
        match outcome {
            Ok(line) => eprintln!("gate ok: {line}"),
            Err(line) => {
                eprintln!("gate FAILED: {line}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The committed baseline file of `bench`, relative to the repo root.
pub fn baseline_file(bench: &str) -> String {
    format!("BENCH_{bench}.json")
}

/// Read and parse a baseline file.
///
/// # Errors
///
/// The file is unreadable or not JSON.
pub fn load_baseline(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    wasabi::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// End a baseline binary. Full mode writes `doc` to
/// `BENCH_<bench>.json` in the working directory; smoke mode checks it
/// against the fresh-side gates of `bench` and exits 1 on a failure.
pub fn finish(mode: Mode, bench: &str, doc: &JsonValue) {
    match mode {
        Mode::Full => {
            let path = baseline_file(bench);
            std::fs::write(&path, wasabi::json::emit(doc)).expect("write baseline json");
            println!("wrote {path}");
        }
        Mode::Smoke => enforce(gates_for(bench, true).map(|gate| gate.check(doc))),
    }
}

/// A number rounded to 3 decimals, as the baselines record them.
pub fn round3(value: f64) -> JsonValue {
    JsonValue::Float((value * 1000.0).round() / 1000.0)
}

/// Milliseconds of `wall`.
pub fn ms(wall: Duration) -> f64 {
    wall.as_secs_f64() * 1000.0
}

/// The fastest of `runs` by `wall`: on short deterministic runs the
/// minimum is the stable estimator of the undisturbed run.
pub fn best_of<T>(runs: impl IntoIterator<Item = T>, wall: impl Fn(&T) -> Duration) -> T {
    runs.into_iter()
        .min_by_key(|run| wall(run))
        .expect("at least one run")
}

/// The median of `runs` by `wall` (the upper one for an even count).
pub fn median_of<T>(runs: impl IntoIterator<Item = T>, wall: impl Fn(&T) -> Duration) -> T {
    let mut runs: Vec<T> = runs.into_iter().collect();
    assert!(!runs.is_empty(), "at least one run");
    runs.sort_by_key(|run| wall(run));
    runs.swap_remove(runs.len() / 2)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

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

/// The first `count` PolyBench kernels (in [`polybench::NAMES`] order)
/// at problem size `polybench_n`, compiled.
pub fn kernels(polybench_n: u32, count: usize) -> Vec<(&'static str, Module)> {
    polybench::NAMES
        .iter()
        .take(count)
        .map(|&name| {
            let program = polybench::by_name(name, polybench_n).expect("known kernel");
            (name, compile(&program))
        })
        .collect()
}

/// Encoded binary size in bytes.
pub fn binary_size(module: &Module) -> usize {
    encode(module).len()
}

/// Mean and standard deviation of `runs` instrumentation timings.
pub fn instrumentation_stats(module: &Module, hooks: HookSet, runs: usize) -> (Duration, Duration) {
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let result = instrument(module, hooks).expect("instruments");
            let elapsed = start.elapsed();
            std::hint::black_box(result);
            elapsed.as_secs_f64()
        })
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

/// The one measured loop behind every `run_*` helper: instantiate
/// `translated` against `host` (untimed), then time `invocations`
/// consecutive calls of `export` on that instance — on the flat IR, or
/// on the structured walk when `reference` is given. Wall time and
/// counters are totals, so short subjects rise above timer resolution.
fn timed_invocations(
    translated: &TranslatedModule,
    host: &mut dyn Host,
    export: &str,
    invocations: usize,
    reference: Option<&Reference>,
) -> RunMeasurement {
    let mut instance = Instance::instantiate_translated(translated, host).expect("instantiates");
    let start = Instant::now();
    for _ in 0..invocations.max(1) {
        match reference {
            Some(reference) => reference.invoke_export(&mut instance, export, &[], host),
            None => instance.invoke_export(export, &[], host),
        }
        .expect("runs without trap");
    }
    let wall = start.elapsed();
    let (host_calls_fast, host_calls_slow) = instance.host_call_counts();
    RunMeasurement {
        wall,
        vm_instrs: instance.executed_instrs(),
        host_calls_fast,
        host_calls_slow,
    }
}

/// Uninstrumented run on the flat IR of an already translated module.
pub fn run_flat(translated: &TranslatedModule, export: &str, invocations: usize) -> RunMeasurement {
    timed_invocations(translated, &mut EmptyHost, export, invocations, None)
}

/// Uninstrumented run on the structured-walk [`Reference`] oracle — the
/// seed interpreter semantics, the "before" side of `BENCH_interp.json`.
pub fn run_reference(module: &Module, export: &str, invocations: usize) -> RunMeasurement {
    let translated = TranslatedModule::new(module.clone()).expect("validates");
    let reference = Reference::new(module);
    timed_invocations(
        &translated,
        &mut EmptyHost,
        export,
        invocations,
        Some(&reference),
    )
}

/// Instrumented run of `session` under [`NoAnalysis`]. Instrumentation
/// is done when the session is built, so it is not timed (like the
/// paper, which instruments offline and measures execution in the
/// browser). On a direct-emit session (`AnalysisSession::direct`) every
/// hook plan is a no-op, so the instantiation-time `is_noop` mask drops
/// the calls before argument marshalling — the "after" side of the
/// `direct_vs_rewrite` ratio in `BENCH_overhead.json`.
pub fn run_session(session: &AnalysisSession, export: &str, invocations: usize) -> RunMeasurement {
    let mut analysis = NoAnalysis;
    let mut host = WasabiHost::new(session.info(), &mut analysis);
    timed_invocations(session.translated(), &mut host, export, invocations, None)
}

/// Instrumented run over the **pre-intrinsic generic-call path**: the
/// instrumented module is translated *without* host-call intrinsics and
/// runs under [`AllHooksNop`], so every hook call goes through the
/// generic call machinery and builds its event — the "before" side of
/// `BENCH_overhead.json`.
pub fn run_generic(
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
    timed_invocations(&translated, &mut host, export, invocations, None)
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
    fn only_a_lone_smoke_flag_is_accepted() {
        assert_eq!(Mode::parse::<&str>(&[]), Ok(Mode::Full));
        assert_eq!(Mode::parse(&["--smoke"]), Ok(Mode::Smoke));
        // A typo must not fall through to a full run that overwrites the
        // committed baseline, and the removed knobs must not come back.
        assert!(Mode::parse(&["--smok"]).is_err());
        assert!(Mode::parse(&["--out", "x"]).is_err());
        assert!(Mode::parse(&["12"]).is_err());
        assert!(Mode::parse(&["--smoke", "--smoke"]).is_err());
    }

    #[test]
    fn gates_pass_at_the_bound_and_fail_past_it_or_without_a_number() {
        let doc = |text| wasabi::json::parse(text).unwrap();
        let floor = Gate {
            bench: "b",
            key: "all/ratio",
            bound: AtLeast(2.0),
            fresh: true,
        };
        assert!(floor.check(&doc(r#"{"all":{"ratio":2.0}}"#)).is_ok());
        assert!(floor.check(&doc(r#"{"all":{"ratio":2}}"#)).is_ok());
        assert!(floor.check(&doc(r#"{"all":{"ratio":1.999}}"#)).is_err());
        let ceiling = Gate {
            key: "ratio",
            bound: AtMost(0.75),
            ..floor
        };
        assert!(ceiling.check(&doc(r#"{"ratio":0.75}"#)).is_ok());
        assert!(ceiling.check(&doc(r#"{"ratio":0.751}"#)).is_err());
        // A missing key or a non-number never passes.
        for missing in [
            r#"{"ratio":3.0}"#,
            r#"{"all":{}}"#,
            r#"{"all":{"ratio":"3.0"}}"#,
            r#"{"all":{"ratio":null}}"#,
            r#"{"all":3.0}"#,
        ] {
            assert!(floor.check(&doc(missing)).is_err(), "{missing}");
        }
    }

    #[test]
    fn committed_only_gates_are_skipped_on_the_fresh_side() {
        let keys = |bench, fresh| gates_for(bench, fresh).map(|g| g.key).collect::<Vec<_>>();
        assert_eq!(keys("pipeline", false), ["speedup"]);
        assert!(keys("pipeline", true).is_empty());
        assert_eq!(
            keys("overhead", false),
            ["all/improvement", "all/direct_vs_rewrite"]
        );
        assert_eq!(keys("overhead", true), ["all/direct_vs_rewrite"]);
    }

    #[test]
    fn best_of_is_the_first_minimum_and_median_the_middle() {
        let walls = [5, 2, 9, 2, 7].map(Duration::from_millis);
        let runs = || walls.iter().copied().enumerate();
        // Sorted: 2 (#1), 2 (#3), 5 (#0), 7 (#4), 9 (#2).
        assert_eq!(best_of(runs(), |&(_, wall)| wall).0, 1);
        assert_eq!(median_of(runs(), |&(_, wall)| wall).0, 0);
        // Of an even count, the upper median: 5 (#0) of 2 (#1), 5 (#0).
        assert_eq!(median_of(runs().take(2), |&(_, wall)| wall).0, 0);
    }

    #[test]
    fn reference_and_flat_execute_identically() {
        let module = compile(&polybench::by_name("jacobi-1d", 6).unwrap());
        let translated = TranslatedModule::new(module.clone()).unwrap();
        let flat = run_flat(&translated, "main", 2);
        let reference = run_reference(&module, "main", 2);
        // Superinstructions count as the instructions they were fused from,
        // so both executors must report the same instruction total.
        assert_eq!(flat.vm_instrs, reference.vm_instrs);
    }

    #[test]
    fn overhead_measurement_is_sane() {
        let module = compile(&polybench::by_name("jacobi-1d", 8).unwrap());
        let base = run_flat(&TranslatedModule::new(module.clone()).unwrap(), "main", 1);
        let session = AnalysisSession::new(&module, HookSet::all()).unwrap();
        let all = run_session(&session, "main", 1);
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
        let rewrite = AnalysisSession::new(&module, HookSet::all()).unwrap();
        let rewrite = run_session(&rewrite, "main", 1);
        let direct = AnalysisSession::direct(&module, HookSet::all()).unwrap();
        let direct = run_session(&direct, "main", 1);
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
        let session = AnalysisSession::new(&module, HookSet::all()).unwrap();
        let fast = run_session(&session, "main", 1);
        let slow = run_generic(&module, HookSet::all(), "main", 1);
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
