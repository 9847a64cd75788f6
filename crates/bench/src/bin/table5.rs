//! Reproduces paper Table 5: "Time taken to instrument programs" — binary
//! size, instrumentation runtime (mean ± std over repeated runs), and
//! throughput in MB/s — plus the §4.4 single- vs. multi-threaded
//! comparison.
//!
//! Usage (release mode strongly recommended):
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin table5 [-- --smoke]
//! ```
//!
//! The two synthetic app binaries are scaled to 2000 KB for the
//! PSPDFKit-like subject (the paper's full size is 9615 KB); `--smoke`
//! shrinks them and the repetition count for CI.

use wasabi::hooks::HookSet;
use wasabi::Instrumenter;
use wasabi_bench::{binary_size, cores, format_bytes, instrumentation_stats, subjects, Mode};

fn main() {
    let mode = Mode::from_args();
    let app_kb: usize = mode.pick(2000, 100);
    let runs: usize = mode.pick(10, 2);

    println!("Table 5: Time taken to instrument programs (full instrumentation,");
    println!("averaged across {runs} runs; PolyBench averaged over 30 programs)");
    println!();
    println!(
        "{:<16} {:>14} {:>22} {:>8}",
        "Program", "Binary (B)", "Runtime (ms)", "MB/s"
    );
    println!("{:-<16} {:->14} {:->22} {:->8}", "", "", "", "");

    let subjects = subjects(16, app_kb * 1000);

    // PolyBench row: average size and time over the 30 kernels.
    let polybench: Vec<_> = subjects.iter().filter(|s| s.is_polybench).collect();
    let sizes: Vec<usize> = polybench.iter().map(|s| binary_size(&s.module)).collect();
    let mean_size = sizes.iter().sum::<usize>() / sizes.len();
    let mut total_time = 0.0;
    let mut total_std = 0.0;
    for subject in &polybench {
        let (mean, std) = instrumentation_stats(&subject.module, HookSet::all(), runs);
        total_time += mean.as_secs_f64();
        total_std += std.as_secs_f64();
    }
    let mean_time = total_time / polybench.len() as f64;
    let mean_std = total_std / polybench.len() as f64;
    let total_size: usize = sizes.iter().sum();
    println!(
        "{:<16} {:>14} {:>15.3} ± {:>4.3} {:>8.2}",
        "PolyBench (avg.)",
        format_bytes(mean_size),
        mean_time * 1000.0,
        mean_std * 1000.0,
        total_size as f64 / 1e6 / total_time
    );

    for subject in subjects.iter().filter(|s| !s.is_polybench) {
        let size = binary_size(&subject.module);
        let (mean, std) = instrumentation_stats(&subject.module, HookSet::all(), runs);
        println!(
            "{:<16} {:>14} {:>15.1} ± {:>4.1} {:>8.2}",
            subject.name,
            format_bytes(size),
            mean.as_secs_f64() * 1000.0,
            std.as_secs_f64() * 1000.0,
            size as f64 / 1e6 / mean.as_secs_f64()
        );
    }

    // §4.4: parallel speedup on the largest binary.
    println!();
    println!("Parallel instrumentation (paper §4.4; largest subject):");
    let largest = subjects
        .iter()
        .max_by_key(|s| binary_size(&s.module))
        .expect("non-empty corpus");
    for n in [1, cores()] {
        let start = std::time::Instant::now();
        for _ in 0..runs {
            let out = Instrumenter::new(HookSet::all())
                .threads(n)
                .run(&largest.module)
                .expect("instruments");
            std::hint::black_box(out);
        }
        let per_run = start.elapsed().as_secs_f64() / runs as f64;
        println!("  {n:>2} thread(s): {:.1} ms per run", per_run * 1000.0);
    }
    println!(
        "  (paper: 15.5 s multi-threaded vs 26.5 s single-threaded on the\n   39.5 MB Unreal Engine binary, a ratio of ~0.58)"
    );
}
