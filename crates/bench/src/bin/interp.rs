//! Interpreter hot-loop baseline: run uninstrumented PolyBench kernels
//! under the **structured-walk** semantics (the seed interpreter, kept as
//! `wasabi_vm::Reference`) vs. the **flat pre-translated IR** with fused
//! superinstructions (the production `Instance` path), recorded in
//! `BENCH_interp.json`.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin interp [-- --smoke]
//! ```
//!
//! Each kernel is translated once and invoked `invocations` times on one
//! instance (wall times are totals, best of `repeats` runs per executor,
//! the two executors alternating within each repeat, so one scheduling
//! hiccup on a shared host does not move the ratio); both executors must
//! report identical executed-instruction counts, which the harness
//! asserts.

use std::time::Instant;

use wasabi::JsonValue;
use wasabi_bench::{best_of, finish, geomean, kernels, ms, round3, run_flat, run_reference, Mode};
use wasabi_vm::TranslatedModule;

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(12, 6);
    let kernel_count = mode.pick(8, 2);
    let invocations: usize = 12;
    let repeats: usize = 9;

    println!(
        "Interpreter baseline: structured walk vs. flat pre-translated IR \
         ({kernel_count} PolyBench kernels at n={polybench_n}, \
         {invocations} invocations each, best of {repeats}, uninstrumented)"
    );
    println!();
    println!(
        "{:<16} {:>15} {:>11} {:>9} {:>14} {:>13}",
        "kernel", "structured (ms)", "flat (ms)", "speedup", "translate (ms)", "instructions"
    );
    println!(
        "{:-<16} {:->15} {:->11} {:->9} {:->14} {:->13}",
        "", "", "", "", "", ""
    );

    let mut speedups = Vec::new();
    let (mut total_structured, mut total_flat) = (0.0, 0.0);
    let mut kernel_rows = Vec::new();
    for (name, module) in kernels(polybench_n, kernel_count) {
        let translate_start = Instant::now();
        let translated = TranslatedModule::new(module.clone()).expect("validates");
        let translate_ms = ms(translate_start.elapsed());

        let (flats, structureds): (Vec<_>, Vec<_>) = (0..repeats)
            .map(|_| {
                (
                    run_flat(&translated, "main", invocations),
                    run_reference(&module, "main", invocations),
                )
            })
            .unzip();
        let flat = best_of(flats, |run| run.wall);
        let structured = best_of(structureds, |run| run.wall);
        assert_eq!(
            flat.vm_instrs, structured.vm_instrs,
            "{name}: flat IR and structured walk must count identically"
        );

        let (structured_ms, flat_ms) = (ms(structured.wall), ms(flat.wall));
        let speedup = structured_ms / flat_ms;
        println!(
            "{name:<16} {structured_ms:>15.1} {flat_ms:>11.1} {speedup:>8.2}x {translate_ms:>14.3} {:>13}",
            flat.vm_instrs,
        );
        speedups.push(speedup);
        total_structured += structured_ms;
        total_flat += flat_ms;
        kernel_rows.push(JsonValue::object([
            ("name", name.into()),
            ("structured_ms", round3(structured_ms)),
            ("flat_ms", round3(flat_ms)),
            ("speedup", round3(speedup)),
            ("translate_ms", round3(translate_ms)),
            ("vm_instrs", flat.vm_instrs.into()),
        ]));
    }

    let speedup = geomean(speedups);
    println!();
    println!(
        "total: structured {total_structured:.1} ms vs flat {total_flat:.1} ms \
         (geomean speedup {speedup:.2}x)"
    );

    let doc = JsonValue::object([
        ("polybench_n", polybench_n.into()),
        ("invocations", invocations.into()),
        ("geomean_speedup", round3(speedup)),
        ("total_structured_ms", round3(total_structured)),
        ("total_flat_ms", round3(total_flat)),
        ("kernels", JsonValue::Array(kernel_rows)),
    ]);
    finish(mode, "interp", &doc);
}
