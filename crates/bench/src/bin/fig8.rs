//! Reproduces paper Figure 8: "Binary size increase in percent of the
//! original size, when instrumenting the test programs for different
//! analysis hooks" — 21 hook groups × {PolyBench mean, pspdfkit-like,
//! unreal-like}, plus the `all` row (§4.5 text: between 495% and 743%).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin fig8 [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the kernels and the app-like subjects for CI.

use wasabi::hooks::HookSet;
use wasabi::instrument;
use wasabi_bench::{binary_size, subjects, Mode, Subject, FIGURE_HOOK_GROUPS};

fn size_increase_percent(subject: &Subject, hooks: HookSet) -> f64 {
    let original = binary_size(&subject.module);
    let (instrumented, _) = instrument(&subject.module, hooks).expect("instruments");
    let new_size = binary_size(&instrumented);
    (new_size as f64 - original as f64) / original as f64 * 100.0
}

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(16, 6);
    let app_kb: usize = mode.pick(1000, 100);

    let subjects = subjects(polybench_n, app_kb * 1000);
    let polybench: Vec<&Subject> = subjects.iter().filter(|s| s.is_polybench).collect();
    let apps: Vec<&Subject> = subjects.iter().filter(|s| !s.is_polybench).collect();

    println!("Figure 8: Binary size increase per instrumented hook (percent of");
    println!("original size; PolyBench averaged over 30 programs)");
    println!();
    println!(
        "{:<14} {:>12} {:>15} {:>13}",
        "hook", "PolyBench", "pspdfkit-like", "unreal-like"
    );
    println!("{:-<14} {:->12} {:->15} {:->13}", "", "", "", "");

    let mut rows: Vec<(&str, HookSet)> = FIGURE_HOOK_GROUPS
        .iter()
        .map(|(name, hooks)| (*name, HookSet::of(hooks)))
        .collect();
    rows.push(("all", HookSet::all()));

    for (name, hooks) in rows {
        let poly_mean = polybench
            .iter()
            .map(|s| size_increase_percent(s, hooks))
            .sum::<f64>()
            / polybench.len() as f64;
        let app_values: Vec<f64> = apps
            .iter()
            .map(|s| size_increase_percent(s, hooks))
            .collect();
        println!(
            "{name:<14} {poly_mean:>11.1}% {:>14.1}% {:>12.1}%",
            app_values[0], app_values[1]
        );
    }

    println!();
    println!("expected shape (paper): <1% for nop/unreachable/memory_size/");
    println!("memory_grow/select/br_table; load/store 39-58%; begin/end 11-84%;");
    println!("const 59-71%; local 128-180%; binary 83-190% (PolyBench highest);");
    println!("'all' 495-743%.");
}
