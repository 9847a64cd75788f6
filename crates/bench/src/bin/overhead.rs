//! The Fig. 9 **overhead artifact**: runtime of instrumented execution
//! relative to the uninstrumented flat baseline, per hook group and for
//! all hooks at once — with the all-hooks row measured on **three**
//! execution paths:
//!
//! - **direct** (direct-emit): hook calls injected at translate time as
//!   synthetic imports (`AnalysisSession::direct`); under `NoAnalysis`
//!   every plan is a no-op, so the instantiation-time `is_noop` mask drops
//!   each call before argument marshalling,
//! - **intrinsic** (rewrite + intrinsics): the binary-rewritten module on
//!   `Op::HostCall` dispatch (argument templates folded) plus the runtime's
//!   zero-subscriber skip (`NoAnalysis` listens to nothing, like Fig. 9's
//!   no-op analysis),
//! - **generic** (pre-intrinsic): the generic call machinery with full
//!   event construction (`AllHooksNop` subscribes to everything).
//!
//! The recorded `improvement` (generic wall / intrinsic wall) and
//! `direct_vs_rewrite` (direct wall / intrinsic wall) are gated in
//! [`wasabi_bench::GATES`]. A smoke run also fails if its all-hooks
//! overhead geomean exceeds the committed one on the same kernels by
//! more than 1.25x.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin overhead [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run (3 kernels, all-hooks row only) while
//! keeping `polybench_n` at the full value so the recorded overhead ratio
//! stays comparable to the committed baseline.

use std::path::Path;

use wasabi::hooks::HookSet;
use wasabi::{AnalysisSession, JsonValue};
use wasabi_bench::{
    baseline_file, best_of, enforce, finish, geomean, kernels, load_baseline, ms, round3, run_flat,
    run_generic, run_session, Mode, RunMeasurement, FIGURE_HOOK_GROUPS,
};
use wasabi_vm::TranslatedModule;

/// Every gated measurement is best of this many runs: the per-kernel wall
/// times are milliseconds-scale, so a single sample carries enough
/// scheduler and cache-state noise to trip a gate.
const REPEATS: usize = 5;

/// The uninstrumented base is the denominator of every gated ratio and
/// one base invocation is sub-millisecond, so it runs this many times
/// more invocations than the instrumented arms and the ratios divide by
/// a per-invocation base time; otherwise base timer noise dominates the
/// recorded overheads.
const BASE_SCALE: usize = 8;

/// Smoke runs read 10-20% above a back-to-back full run of the same
/// binary on the recording host (full-run subset geomean 10.9x, three
/// smoke runs 12.0/12.2/13.2x with no code change), so the tolerance is
/// looser than the ratio gates while still catching real regressions.
const SMOKE_TOLERANCE: f64 = 1.25;

fn main() {
    let mode = Mode::from_args();
    // Keep n and the invocation count at the full values even in smoke
    // mode: the overhead is a ratio, and the smoke gate compares it per
    // kernel against the committed baseline — only the kernel count and
    // the per-hook-group sweep shrink.
    let polybench_n: u32 = 12;
    let invocations: usize = 4;
    let kernels = kernels(polybench_n, mode.pick(8, 3));
    let best = |run: &mut dyn FnMut() -> RunMeasurement| {
        best_of((0..REPEATS).map(|_| run()), |run| run.wall)
    };

    println!(
        "Overhead of instrumented execution vs. uninstrumented flat \
         ({} PolyBench kernels at n={polybench_n}, {invocations} invocation(s))",
        kernels.len()
    );
    println!();

    let bases: Vec<_> = kernels
        .iter()
        .map(|(_, module)| {
            let translated = TranslatedModule::new(module.clone()).expect("validates");
            best(&mut || run_flat(&translated, "main", invocations * BASE_SCALE))
        })
        .collect();
    // Wall seconds and executed instructions of `invocations` base calls
    // (the unit the instrumented arms are measured in).
    let base_wall = |base: &RunMeasurement| base.wall.as_secs_f64() / BASE_SCALE as f64;
    let base_instrs = |base: &RunMeasurement| base.vm_instrs as f64 / BASE_SCALE as f64;

    // Per-hook-group overhead on the intrinsic path (full mode only; the
    // all-hooks row is the gated artifact).
    let mut group_rows = Vec::new();
    if mode == Mode::Full {
        println!("{:<14} {:>12} {:>12}", "hook", "wall", "instrs");
        println!("{:-<14} {:->12} {:->12}", "", "", "");
        for (name, hooks) in FIGURE_HOOK_GROUPS {
            let set = HookSet::of(hooks);
            let mut wall_ratios = Vec::new();
            let mut instr_ratios = Vec::new();
            for ((_, module), base) in kernels.iter().zip(&bases) {
                let session = AnalysisSession::new(module, set).expect("instruments");
                let run = run_session(&session, "main", invocations);
                assert_eq!(run.host_calls_slow, 0, "{name}: intrinsic path only");
                wall_ratios.push(run.wall.as_secs_f64() / base_wall(base));
                instr_ratios.push(run.vm_instrs as f64 / base_instrs(base));
            }
            let wall = geomean(wall_ratios.iter().copied());
            let instrs = geomean(instr_ratios.iter().copied());
            println!("{name:<14} {wall:>11.2}x {instrs:>11.2}x");
            group_rows.push(JsonValue::object([
                ("hook", name.into()),
                ("wall_overhead", round3(wall)),
                ("instr_overhead", round3(instrs)),
            ]));
        }
        println!();
    }

    // The all-hooks row, on all three paths.
    let mut base_ms = 0.0;
    let mut direct_ms = 0.0;
    let mut intrinsic_ms = 0.0;
    let mut generic_ms = 0.0;
    let mut direct_wall_ratios = Vec::new();
    let mut intrinsic_wall_ratios = Vec::new();
    let mut generic_wall_ratios = Vec::new();
    let mut instr_ratios = Vec::new();
    let mut kernel_rows = Vec::new();
    for ((name, module), base) in kernels.iter().zip(&bases) {
        // Each repeat instruments afresh, so the minimum is taken over
        // independently built sessions, not over one session's layout.
        let intrinsic = best(&mut || {
            let session = AnalysisSession::new(module, HookSet::all()).expect("instruments");
            run_session(&session, "main", invocations)
        });
        // The benches must be able to assert the intrinsic path actually
        // fired — that is the artifact being measured.
        assert!(
            intrinsic.host_calls_fast > 0,
            "{name}: intrinsic path did not fire"
        );
        assert_eq!(
            intrinsic.host_calls_slow, 0,
            "{name}: unexpected slow calls"
        );
        let generic = best(&mut || run_generic(module, HookSet::all(), "main", invocations));
        assert_eq!(generic.host_calls_fast, 0, "{name}: generic path leaked");
        assert_eq!(
            generic.host_calls_slow, intrinsic.host_calls_fast,
            "{name}: both paths must make the same hook calls"
        );
        assert_eq!(
            generic.vm_instrs, intrinsic.vm_instrs,
            "{name}: instr counts"
        );
        let direct = best(&mut || {
            let session = AnalysisSession::direct(module, HookSet::all()).expect("instruments");
            run_session(&session, "main", invocations)
        });
        // Direct-emit must inject the same hook sites as the rewrite and,
        // under NoAnalysis, mask every one of them at instantiation.
        assert_eq!(
            direct.vm_instrs, intrinsic.vm_instrs,
            "{name}: direct-emit instr counts"
        );
        assert_eq!(
            direct.host_calls_fast, intrinsic.host_calls_fast,
            "{name}: direct-emit hook-site counts"
        );
        assert_eq!(direct.host_calls_slow, 0, "{name}: direct-emit slow calls");
        let overhead = |run: &RunMeasurement| run.wall.as_secs_f64() / base_wall(base);
        base_ms += base_wall(base) * 1000.0;
        direct_ms += ms(direct.wall);
        intrinsic_ms += ms(intrinsic.wall);
        generic_ms += ms(generic.wall);
        direct_wall_ratios.push(overhead(&direct));
        intrinsic_wall_ratios.push(overhead(&intrinsic));
        generic_wall_ratios.push(overhead(&generic));
        instr_ratios.push(intrinsic.vm_instrs as f64 / base_instrs(base));
        kernel_rows.push(JsonValue::object([
            ("name", (*name).into()),
            ("overhead_direct", round3(overhead(&direct))),
            ("overhead_intrinsic", round3(overhead(&intrinsic))),
            ("overhead_generic", round3(overhead(&generic))),
        ]));
    }
    let overhead_direct = geomean(direct_wall_ratios.iter().copied());
    let overhead_intrinsic = geomean(intrinsic_wall_ratios.iter().copied());
    let overhead_generic = geomean(generic_wall_ratios.iter().copied());
    let overhead_instrs = geomean(instr_ratios.iter().copied());
    let improvement = generic_ms / intrinsic_ms;
    let direct_vs_rewrite = direct_ms / intrinsic_ms;

    println!("all hooks, geomean overhead vs. uninstrumented flat:");
    println!("  direct    (direct-emit): {overhead_direct:>8.2}x wall");
    println!(
        "  intrinsic (rewrite):     {overhead_intrinsic:>8.2}x wall, {overhead_instrs:.2}x instrs"
    );
    println!("  generic   (pre-PR):      {overhead_generic:>8.2}x wall");
    println!();
    println!(
        "totals: base {base_ms:.1} ms, direct {direct_ms:.1} ms, \
         intrinsic {intrinsic_ms:.1} ms, generic {generic_ms:.1} ms \
         -> improvement {improvement:.2}x, direct/rewrite {direct_vs_rewrite:.2}x"
    );

    let doc = JsonValue::object([
        ("polybench_n", polybench_n.into()),
        ("kernel_count", kernels.len().into()),
        ("invocations", invocations.into()),
        ("kernels", JsonValue::Array(kernel_rows)),
        ("hook_groups", JsonValue::Array(group_rows)),
        (
            "all",
            JsonValue::object([
                ("base_ms", round3(base_ms)),
                ("direct_ms", round3(direct_ms)),
                ("intrinsic_ms", round3(intrinsic_ms)),
                ("generic_ms", round3(generic_ms)),
                ("overhead_direct", round3(overhead_direct)),
                ("overhead_intrinsic", round3(overhead_intrinsic)),
                ("overhead_generic", round3(overhead_generic)),
                ("overhead_instrs", round3(overhead_instrs)),
                ("improvement", round3(improvement)),
                ("direct_vs_rewrite", round3(direct_vs_rewrite)),
            ]),
        ),
    ]);
    if mode == Mode::Smoke {
        enforce([same_kernel_overhead(&doc)]);
    }
    finish(mode, "overhead", &doc);
}

/// The smoke run's all-hooks intrinsic overhead geomean against the
/// committed baseline's geomean over the **same** kernels (the smoke
/// subset's geomean differs from the full suite's).
fn same_kernel_overhead(smoke: &JsonValue) -> Result<String, String> {
    let committed = load_baseline(Path::new(&baseline_file("overhead")))?;
    let kernels = |doc: &JsonValue| {
        doc.get("kernels")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .to_vec()
    };
    let overhead =
        |kernel: &JsonValue| kernel.get("overhead_intrinsic").and_then(JsonValue::as_f64);
    let mut measured = Vec::new();
    let mut reference = Vec::new();
    for kernel in kernels(smoke) {
        let name = kernel.get("name");
        let base = kernels(&committed)
            .iter()
            .find(|committed| committed.get("name") == name)
            .and_then(overhead)
            .ok_or_else(|| {
                format!("overhead: kernel {name:?} missing from the committed baseline")
            })?;
        measured.push(overhead(&kernel).expect("this run records every kernel"));
        reference.push(base);
    }
    let (smoke_geo, base_geo) = (geomean(measured), geomean(reference));
    let line = format!(
        "overhead same-kernel all-hooks overhead {smoke_geo:.2}x \
         (<= committed {base_geo:.2}x * {SMOKE_TOLERANCE})"
    );
    if smoke_geo <= base_geo * SMOKE_TOLERANCE {
        Ok(line)
    } else {
        Err(line)
    }
}
