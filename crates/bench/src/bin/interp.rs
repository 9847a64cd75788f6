//! Interpreter hot-loop baseline: run uninstrumented PolyBench kernels
//! under the **structured-walk** semantics (the seed interpreter, kept as
//! `wasabi_vm::Reference`) vs. the **flat pre-translated IR** with fused
//! superinstructions (the production `Instance` path), and write the
//! before/after comparison as JSON.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin interp \
//!     [polybench_n] [kernel_count] [--out <path>] [--smoke]
//! ```
//!
//! Default output path: `BENCH_interp.json` in the current directory.
//! `--smoke` shrinks the workload for CI. Each kernel is translated once
//! and invoked `invocations` times on one instance (wall times are
//! totals, best of `repeats` alternating runs per executor, so one
//! scheduling hiccup on a shared host does not move the ratio); both
//! executors must report identical executed-instruction counts, which
//! the harness asserts.

use std::fmt::Write as _;
use std::time::Instant;

use wasabi_bench::{geomean, run_flat_amortized, run_reference_amortized};
use wasabi_vm::TranslatedModule;
use wasabi_workloads::{compile, polybench};

struct KernelResult {
    name: String,
    structured_ms: f64,
    flat_ms: f64,
    translate_ms: f64,
    vm_instrs: u64,
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    let out_path = raw
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| raw.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let mut positional = raw
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || raw[i - 1] != "--out"))
        .map(|(_, a)| a);
    let default_n: u32 = if smoke { 6 } else { 12 };
    let default_kernels: usize = if smoke { 2 } else { 8 };
    let invocations: usize = 12;
    let repeats: usize = 9;
    let polybench_n: u32 = positional
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_n);
    let kernel_count: usize = positional
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_kernels);

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

    let mut results: Vec<KernelResult> = Vec::new();
    for name in polybench::NAMES.iter().take(kernel_count) {
        let module = compile(&polybench::by_name(name, polybench_n).expect("known kernel"));

        let translate_start = Instant::now();
        let translated = TranslatedModule::new(module.clone()).expect("validates");
        let translate_ms = translate_start.elapsed().as_secs_f64() * 1000.0;

        let mut flat = run_flat_amortized(&translated, "main", invocations);
        let mut structured = run_reference_amortized(&module, "main", invocations);
        for _ in 1..repeats {
            let f = run_flat_amortized(&translated, "main", invocations);
            flat.wall = flat.wall.min(f.wall);
            let s = run_reference_amortized(&module, "main", invocations);
            structured.wall = structured.wall.min(s.wall);
        }
        assert_eq!(
            flat.vm_instrs, structured.vm_instrs,
            "{name}: flat IR and structured walk must count identically"
        );

        let structured_ms = structured.wall.as_secs_f64() * 1000.0;
        let flat_ms = flat.wall.as_secs_f64() * 1000.0;
        println!(
            "{name:<16} {structured_ms:>15.1} {flat_ms:>11.1} {:>8.2}x {translate_ms:>14.3} {:>13}",
            structured_ms / flat_ms,
            flat.vm_instrs,
        );
        results.push(KernelResult {
            name: name.to_string(),
            structured_ms,
            flat_ms,
            translate_ms,
            vm_instrs: flat.vm_instrs,
        });
    }

    let speedup = geomean(results.iter().map(|r| r.structured_ms / r.flat_ms));
    let total_structured: f64 = results.iter().map(|r| r.structured_ms).sum();
    let total_flat: f64 = results.iter().map(|r| r.flat_ms).sum();
    println!();
    println!(
        "total: structured {total_structured:.1} ms vs flat {total_flat:.1} ms \
         (geomean speedup {speedup:.2}x)"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"polybench_n\":{polybench_n},\"invocations\":{invocations},\
         \"repeats\":{repeats},\
         \"geomean_speedup\":{speedup:.3},\
         \"total_structured_ms\":{total_structured:.3},\
         \"total_flat_ms\":{total_flat:.3},\"kernels\":["
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"name\":\"{}\",\"structured_ms\":{:.3},\"flat_ms\":{:.3},\
             \"speedup\":{:.3},\"translate_ms\":{:.3},\"vm_instrs\":{}}}",
            r.name,
            r.structured_ms,
            r.flat_ms,
            r.structured_ms / r.flat_ms,
            r.translate_ms,
            r.vm_instrs,
        );
    }
    json.push_str("]}");
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("wrote {out_path}");
}
