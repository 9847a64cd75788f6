//! Reproduces paper §4.5's on-demand monomorphization evaluation: the
//! number of low-level hooks generated for full instrumentation of each
//! program, against the astronomic eager alternative.
//!
//! Paper numbers: 110–122 hooks for PolyBench programs, 302 for PSPDFKit,
//! 783 for the Unreal Engine; eagerly generating call hooks for the
//! observed maximum of 22 i32 arguments would need 4^22 ≈ 1.7×10^13
//! variants, and even a 10-argument heuristic limit 4^10 = 1,048,576.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin monomorphization [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the kernels and the app-like subjects for CI.

use wasabi::hookmap::eager_call_hook_count;
use wasabi::hooks::HookSet;
use wasabi::instrument;
use wasabi_bench::{subjects, Mode};

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(16, 6);
    let app_kb: usize = mode.pick(1000, 100);

    println!("On-demand monomorphization (paper §4.5): low-level hooks actually");
    println!("generated under full instrumentation");
    println!();
    println!(
        "{:<16} {:>12} {:>14} {:>22}",
        "Program", "hooks", "max call args", "eager call hooks"
    );
    println!("{:-<16} {:->12} {:->14} {:->22}", "", "", "", "");

    let mut poly_min = usize::MAX;
    let mut poly_max = 0usize;
    for subject in subjects(polybench_n, app_kb * 1000) {
        let (_, info) = instrument(&subject.module, HookSet::all()).expect("instruments");
        let hook_count = info.hooks.len();
        let max_args = subject
            .module
            .functions
            .iter()
            .map(|f| f.type_.params.len())
            .max()
            .unwrap_or(0);
        if subject.is_polybench {
            poly_min = poly_min.min(hook_count);
            poly_max = poly_max.max(hook_count);
        } else {
            println!(
                "{:<16} {hook_count:>12} {max_args:>14} {:>22.3e}",
                subject.name,
                eager_call_hook_count(max_args as u32) as f64
            );
        }
    }
    println!(
        "{:<16} {:>12} {:>14} {:>22}",
        "PolyBench (range)",
        format!("{poly_min}-{poly_max}"),
        "~6",
        format!("{}", eager_call_hook_count(6))
    );

    println!();
    println!(
        "heuristic 10-argument limit would still need {} call hooks (4^10 = 1,048,576 per the paper)",
        eager_call_hook_count(10)
    );
    println!("paper: 110-122 hooks (PolyBench), 302 (PSPDFKit), 783 (Unreal Engine)");
}
