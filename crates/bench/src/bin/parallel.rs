//! Parallel-build + persistent-session-cache benchmark (paper §3 /
//! Table 5 at scale): the fused instrument+translate build is swept over
//! thread counts on the PolyBench kernel set, then a cold process start
//! (build + persist) is contrasted with a disk-warm start (load the
//! prepared sessions back from the on-disk cache tier, no rebuild).
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin parallel [-- --smoke]
//! ```
//!
//! The headline ratios:
//!
//! - **speedup_max_threads** (threads(1) vs threads(max), same builds):
//!   what function-granular fan-out buys — the paper's Table 5 shape.
//!   On a single-core machine this is ~1x by construction; the JSON
//!   records `cores` so the thread-scaling gate can judge it in context.
//! - **disk_warm_vs_cold**: what the persistent session cache saves a
//!   fresh process — decoding prepared code from disk instead of
//!   validating + instrumenting + translating from scratch.

use std::time::{Duration, Instant};

use wasabi::cache::{content_key, ModuleCache};
use wasabi::hooks::HookSet;
use wasabi::{DiskCache, Instrumenter, JsonValue};
use wasabi_bench::{cores, finish, kernels, median_of, ms, round3, Mode};
use wasabi_wasm::module::Module;

struct DiskRow {
    config: &'static str,
    wall: Duration,
    disk_hits: u64,
    disk_misses: u64,
}

/// Build every kernel `repeats` times at the given thread count; the
/// whole sweep is what Table 5 times (instrumentation, all functions).
fn build_pass(kernels: &[Module], repeats: usize, threads: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..repeats {
        for module in kernels {
            let (_translated, info) = Instrumenter::new(HookSet::all())
                .threads(threads)
                .run_direct(module)
                .expect("kernel builds");
            assert!(!info.hooks.is_empty(), "all-hooks build monomorphizes");
        }
    }
    start.elapsed()
}

/// One process "start": a fresh cache over `dir` prepares a session for
/// every kernel. With an empty dir that is a full build + persist; with a
/// populated one, every session decodes from the disk tier.
fn start_process(
    config: &'static str,
    kernels: &[(String, Module)],
    dir: &std::path::Path,
) -> DiskRow {
    let disk = DiskCache::new(dir).expect("disk cache dir");
    let cache = ModuleCache::new().with_disk(disk);
    let start = Instant::now();
    for (key, module) in kernels {
        cache
            .session_for(key, HookSet::all(), module)
            .expect("kernel builds");
    }
    DiskRow {
        config,
        wall: start.elapsed(),
        disk_hits: cache.disk_hits(),
        disk_misses: cache.disk_misses(),
    }
}

fn main() {
    let mode = Mode::from_args();
    let polybench_n: u32 = mode.pick(6, 4);
    let kernel_count = mode.pick(wasabi_workloads::polybench::NAMES.len(), 2);
    // Enough build repetitions that a pass is comfortably above timer
    // noise even though one kernel builds in well under a millisecond.
    let repeats = mode.pick(20, 3);
    let rounds = mode.pick(3, 1);
    let cores = cores();
    // Even on one core, sweep past 1 thread so the fan-out path itself is
    // exercised (its speedup there is ~1x and judged as such).
    let max_threads = cores.max(2);
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t < max_threads {
        thread_counts.push(t);
        t *= 2;
    }
    thread_counts.push(max_threads);

    let named_kernels: Vec<(String, Module)> = kernels(polybench_n, kernel_count)
        .into_iter()
        .map(|(_, module)| (content_key(&wasabi_wasm::encode::encode(&module)), module))
        .collect();
    let kernels: Vec<Module> = named_kernels.iter().map(|(_, m)| m.clone()).collect();
    let functions: usize = kernels.iter().map(|m| m.functions.len()).sum();

    println!(
        "Parallel build: {} kernels ({} functions) x {repeats} repeats per pass \
         (PolyBench n={polybench_n}, {cores} core(s), threads {:?})",
        kernels.len(),
        functions,
        thread_counts,
    );
    println!();
    println!("{:<10} {:>10} {:>9}", "threads", "wall (ms)", "speedup");
    println!("{:-<10} {:->10} {:->9}", "", "", "");

    // Median of `rounds` passes per thread count.
    let walls: Vec<Duration> = thread_counts
        .iter()
        .map(|&threads| {
            median_of(
                (0..rounds).map(|_| build_pass(&kernels, repeats, threads)),
                |&wall| wall,
            )
        })
        .collect();
    let speedup = |wall: &Duration| walls[0].as_secs_f64() / wall.as_secs_f64();
    for (threads, wall) in thread_counts.iter().zip(&walls) {
        println!("{threads:<10} {:>10.1} {:>8.2}x", ms(*wall), speedup(wall));
    }
    let speedup_max = speedup(walls.last().expect("swept"));

    // Disk tier: cold start (empty dir: build + persist) vs warm start
    // (fresh cache, populated dir: decode only). Median-of-rounds each.
    let dir = std::env::temp_dir().join(format!("wasabi-bench-parallel-{}", std::process::id()));
    let (colds, warms): (Vec<_>, Vec<_>) = (0..rounds)
        .map(|_| {
            let _ = std::fs::remove_dir_all(&dir);
            let cold = start_process("cold_start", &named_kernels, &dir);
            (cold, start_process("disk_warm_start", &named_kernels, &dir))
        })
        .unzip();
    let cold = median_of(colds, |row| row.wall);
    let warm = median_of(warms, |row| row.wall);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        cold.disk_misses,
        kernels.len() as u64,
        "a cold start must build every kernel"
    );
    assert_eq!(
        warm.disk_hits,
        kernels.len() as u64,
        "a warm start must serve every kernel from disk"
    );
    let disk_warm_vs_cold = cold.wall.as_secs_f64() / warm.wall.as_secs_f64();

    println!();
    println!(
        "{:<18} {:>10} {:>10} {:>11}",
        "config", "wall (ms)", "disk hits", "disk misses"
    );
    println!("{:-<18} {:->10} {:->10} {:->11}", "", "", "", "");
    for row in [&cold, &warm] {
        println!(
            "{:<18} {:>10.2} {:>10} {:>11}",
            row.config,
            ms(row.wall),
            row.disk_hits,
            row.disk_misses,
        );
    }
    println!();
    println!("build speedup at {max_threads} thread(s): {speedup_max:.2}x");
    println!("disk-warm start vs cold start:  {disk_warm_vs_cold:.2}x");
    if cores == 1 {
        println!("note: single-core machine — thread scaling cannot exceed ~1x here");
    }

    let thread_docs = thread_counts.iter().zip(&walls).map(|(&threads, wall)| {
        JsonValue::object([
            ("threads", threads.into()),
            ("wall_ms", round3(ms(*wall))),
            ("speedup", round3(speedup(wall))),
        ])
    });
    let disk_docs = [&cold, &warm].map(|row| {
        JsonValue::object([
            ("config", row.config.into()),
            ("wall_ms", round3(ms(row.wall))),
            ("disk_hits", row.disk_hits.into()),
            ("disk_misses", row.disk_misses.into()),
        ])
    });
    let doc = JsonValue::object([
        ("polybench_n", polybench_n.into()),
        ("kernels", kernels.len().into()),
        ("functions", functions.into()),
        ("repeats", repeats.into()),
        ("cores", cores.into()),
        ("max_threads", max_threads.into()),
        ("speedup_max_threads", round3(speedup_max)),
        ("disk_warm_vs_cold", round3(disk_warm_vs_cold)),
        ("threads", JsonValue::array(thread_docs)),
        ("disk", JsonValue::array(disk_docs)),
    ]);
    finish(mode, "parallel", &doc);
}
