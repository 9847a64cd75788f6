//! Fused-pipeline throughput baseline: run the eight Table-4 analyses over
//! PolyBench kernels **fused** (one instrumentation + execution pass with
//! per-hook dispatch) vs. **sequential** (eight independent
//! `AnalysisSession`s, as the pre-pipeline API forced), and write the
//! comparison as JSON.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin pipeline [-- --smoke]
//! ```

use std::time::Instant;

use wasabi::{AnalysisSession, JsonValue, Wasabi};
use wasabi_analyses::registry;
use wasabi_bench::{finish, kernels, ms, round3, Mode};

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(12, 6);
    let kernel_count = mode.pick(8, 2);

    println!(
        "Pipeline baseline: 8 Table-4 analyses fused vs. sequential \
         ({kernel_count} PolyBench kernels at n={polybench_n})"
    );
    println!();
    println!(
        "{:<16} {:>12} {:>14} {:>9} {:>14}",
        "kernel", "fused (ms)", "sequential", "speedup", "instr passes"
    );
    println!("{:-<16} {:->12} {:->14} {:->9} {:->14}", "", "", "", "", "");

    let (mut total_fused, mut total_sequential) = (0.0, 0.0);
    let mut kernel_rows = Vec::new();
    for (name, module) in kernels(polybench_n, kernel_count) {
        // Fused: one pipeline over all eight analyses, built as one session.
        let mut analyses = registry::table4();
        let start = Instant::now();
        let mut builder = Wasabi::builder();
        for analysis in &mut analyses {
            builder = builder.analysis(analysis.as_mut());
        }
        let mut pipeline = builder.build(&module).expect("instruments");
        pipeline.run("main", &[]).expect("runs");
        let fused_ms = ms(start.elapsed());
        let fused_instrumentations = 1u64;
        drop(pipeline);

        // Sequential: eight independent instrument+execute passes, one
        // session each.
        let mut sequential_instrumentations = 0u64;
        let start = Instant::now();
        for analysis in registry::table4().iter_mut() {
            let session =
                AnalysisSession::for_analysis(&module, analysis.as_ref()).expect("instruments");
            sequential_instrumentations += 1;
            session.run(analysis.as_mut(), "main", &[]).expect("runs");
        }
        let sequential_ms = ms(start.elapsed());

        println!(
            "{name:<16} {fused_ms:>12.1} {sequential_ms:>14.1} {:>8.2}x {:>6} vs {:>4}",
            sequential_ms / fused_ms,
            fused_instrumentations,
            sequential_instrumentations,
        );
        total_fused += fused_ms;
        total_sequential += sequential_ms;
        kernel_rows.push(JsonValue::object([
            ("name", name.into()),
            ("fused_ms", round3(fused_ms)),
            ("sequential_ms", round3(sequential_ms)),
            (
                "fused_instrumentation_passes",
                fused_instrumentations.into(),
            ),
            (
                "sequential_instrumentation_passes",
                sequential_instrumentations.into(),
            ),
        ]));
    }

    println!();
    println!(
        "total: fused {total_fused:.1} ms vs sequential {total_sequential:.1} ms \
         ({:.2}x)",
        total_sequential / total_fused
    );

    let doc = JsonValue::object([
        ("polybench_n", polybench_n.into()),
        ("analyses", 8u32.into()),
        ("total_fused_ms", round3(total_fused)),
        ("total_sequential_ms", round3(total_sequential)),
        ("speedup", round3(total_sequential / total_fused)),
        ("kernels", JsonValue::Array(kernel_rows)),
    ]);
    finish(mode, "pipeline", &doc);
}
