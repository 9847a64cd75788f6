//! Reproduces paper Figure 9: "Runtime of the instrumented programs
//! relative to the uninstrumented runtime, per analysis hook" — 21 hook
//! groups × {PolyBench geomean, app-like}, plus the `all` row (paper: 49x
//! to 163x).
//!
//! Two relative-cost metrics are reported:
//! - wall-clock time in this repository's interpreter (like the paper's
//!   wall-clock in Firefox — absolute values differ, ratios are comparable),
//! - executed VM instructions (deterministic, machine-independent).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin fig9 [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the workload (2 kernels at n=6, single repeats) so CI
//! can exercise the full hook-group × subject matrix in seconds.

use wasabi::hooks::HookSet;
use wasabi::AnalysisSession;
use wasabi_bench::{best_of, geomean, kernels, run_flat, run_session, Mode, FIGURE_HOOK_GROUPS};
use wasabi_vm::TranslatedModule;
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(12, 6);
    // Repeated runs per kernel measurement (minimum wall time is
    // reported), and consecutive invocations of the short-running app
    // subject (totals are compared, so timer resolution stops mattering).
    let repeats = mode.pick(3, 1);
    let app_invocations = mode.pick(300, 30);
    // A representative kernel subset: all 30 kernels × 22 hook sets × VM
    // runs is hours of interpreter time.
    let kernels = kernels(polybench_n, mode.pick(10, 2));
    // App subject: moderate call fan-out (the call tree grows
    // polynomially in the function count with degree ≈ calls per body, so
    // keep the statement count small) — wall time is amortized over
    // repeated invocations below instead.
    let app = synthetic_app(&SyntheticConfig {
        seed: 0x5EED,
        function_count: 128,
        body_statements: 10,
    });

    println!("Figure 9: Runtime relative to the uninstrumented run, per hook");
    println!(
        "(geometric mean over {} PolyBench kernels at n={polybench_n}; app-like subject)",
        kernels.len()
    );
    println!();
    println!(
        "{:<14} {:>16} {:>16} {:>14} {:>14}",
        "hook", "poly wall", "poly instrs", "app wall", "app instrs"
    );
    println!(
        "{:-<14} {:->16} {:->16} {:->14} {:->14}",
        "", "", "", "", ""
    );

    let kernel_base: Vec<_> = kernels
        .iter()
        .map(|(_, module)| {
            let translated = TranslatedModule::new(module.clone()).expect("validates");
            best_of(
                (0..repeats).map(|_| run_flat(&translated, "main", 1)),
                |run| run.wall,
            )
        })
        .collect();
    let app_base = run_flat(
        &TranslatedModule::new(app.clone()).expect("validates"),
        "main",
        app_invocations,
    );

    let mut rows: Vec<(&str, HookSet)> = FIGURE_HOOK_GROUPS
        .iter()
        .map(|(name, hooks)| (*name, HookSet::of(hooks)))
        .collect();
    rows.push(("all", HookSet::all()));

    for (name, hooks) in rows {
        let mut wall_ratios = Vec::new();
        let mut instr_ratios = Vec::new();
        for ((_, module), base) in kernels.iter().zip(&kernel_base) {
            let session = AnalysisSession::new(module, hooks).expect("instruments");
            let run = best_of(
                (0..repeats).map(|_| run_session(&session, "main", 1)),
                |run| run.wall,
            );
            wall_ratios.push(run.wall.as_secs_f64() / base.wall.as_secs_f64());
            instr_ratios.push(run.vm_instrs as f64 / base.vm_instrs as f64);
        }
        let app_session = AnalysisSession::new(&app, hooks).expect("instruments");
        let app_run = run_session(&app_session, "main", app_invocations);
        println!(
            "{name:<14} {:>15.2}x {:>15.2}x {:>13.2}x {:>13.2}x",
            geomean(wall_ratios.iter().copied()),
            geomean(instr_ratios.iter().copied()),
            app_run.wall.as_secs_f64() / app_base.wall.as_secs_f64(),
            app_run.vm_instrs as f64 / app_base.vm_instrs as f64,
        );
    }

    println!();
    println!("expected shape (paper, Firefox): ~1x for nop/unreachable/");
    println!("memory_size/memory_grow/select/drop/unary; return <=1.3x; call");
    println!("<=2.8x; begin/end 1.5-9.9x; load 1.8-20x; store <=6.5x; const");
    println!("2-32x; local 4-48.5x; binary 2.6-77.5x; 'all' 49-163x, with");
    println!("PolyBench overheads higher than the real-world apps.");
}
