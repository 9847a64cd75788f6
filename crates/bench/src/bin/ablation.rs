//! Ablation benchmarks for Wasabi's design choices:
//!
//! 1. **Temp-local reuse** (Table 3's "freshly generated locals" are reused
//!    across instructions): code size and local count with reuse on/off.
//! 2. **Selective instrumentation** (§2.4.2): size of instrumenting one
//!    hook vs. all hooks (the aggregate view of Figure 8).
//! 3. **On-demand monomorphization** (§2.4.3): generated hooks vs. the
//!    eager alternative (details in the `monomorphization` binary).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin ablation [-- --smoke]
//! ```
//!
//! The run takes well under a second, so `--smoke` runs it unchanged.

use wasabi::hooks::{Hook, HookSet};
use wasabi::Instrumenter;
use wasabi_bench::{binary_size, format_bytes, Mode};
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};
use wasabi_workloads::{compile, polybench};

fn total_locals(module: &wasabi_wasm::Module) -> usize {
    module
        .functions
        .iter()
        .filter_map(|f| f.code())
        .map(|c| c.locals.len())
        .sum()
}

fn main() {
    Mode::from_args();
    let subjects: Vec<(String, wasabi_wasm::Module)> = ["gemm", "cholesky", "adi"]
        .iter()
        .map(|name| {
            (
                name.to_string(),
                compile(&polybench::by_name(name, 16).expect("known")),
            )
        })
        .chain(std::iter::once((
            "app-like".to_string(),
            synthetic_app(&SyntheticConfig::pspdfkit_like().with_target_bytes(500_000)),
        )))
        .collect();

    println!("Ablation 1: temp-local reuse (full instrumentation)");
    println!();
    println!(
        "{:<10} {:>14} {:>14} {:>9} {:>12} {:>12}",
        "program", "reuse (B)", "fresh (B)", "size +", "reuse locals", "fresh locals"
    );
    println!(
        "{:-<10} {:->14} {:->14} {:->9} {:->12} {:->12}",
        "", "", "", "", "", ""
    );
    for (name, module) in &subjects {
        let (reused, _) = Instrumenter::new(HookSet::all())
            .reuse_temps(true)
            .run(module)
            .expect("instruments");
        let (fresh, _) = Instrumenter::new(HookSet::all())
            .reuse_temps(false)
            .run(module)
            .expect("instruments");
        let reused_size = binary_size(&reused);
        let fresh_size = binary_size(&fresh);
        println!(
            "{name:<10} {:>14} {:>14} {:>8.1}% {:>12} {:>12}",
            format_bytes(reused_size),
            format_bytes(fresh_size),
            (fresh_size as f64 - reused_size as f64) / reused_size as f64 * 100.0,
            total_locals(&reused),
            total_locals(&fresh),
        );
    }

    println!();
    println!("Ablation 2: selective vs. full instrumentation (binary size)");
    println!();
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>14}",
        "program", "original", "call only", "binary only", "all hooks"
    );
    println!(
        "{:-<10} {:->12} {:->14} {:->14} {:->14}",
        "", "", "", "", ""
    );
    for (name, module) in &subjects {
        let size = |hooks: HookSet| {
            let (instrumented, _) = Instrumenter::new(hooks).run(module).expect("instruments");
            binary_size(&instrumented)
        };
        println!(
            "{name:<10} {:>12} {:>14} {:>14} {:>14}",
            format_bytes(binary_size(module)),
            format_bytes(size(HookSet::of(&[Hook::CallPre, Hook::CallPost]))),
            format_bytes(size(HookSet::of(&[Hook::Binary]))),
            format_bytes(size(HookSet::all())),
        );
    }
    println!();
    println!("(ablation 3, eager vs. on-demand monomorphization, is the");
    println!(" `monomorphization` binary: the eager variant cannot even be");
    println!(" materialized — 4^22 call hooks.)");
}
