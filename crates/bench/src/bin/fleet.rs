//! Batch-throughput baseline for the `wasabi::fleet` engine: the same job
//! list (PolyBench kernels × analyses × repeats) is pushed through a
//! `Fleet` at 1 worker vs. all cores, each on a cold vs. a pre-warmed
//! shared `ModuleCache`, and the jobs/sec of each configuration is
//! recorded as JSON.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin fleet [-- --smoke]
//! ```
//!
//! The headline ratios:
//!
//! - **amortization** (warm vs. cold at 1 worker): what the shared
//!   translated-module cache saves once every distinct (module, hook set)
//!   has been validated + instrumented + translated exactly once.
//! - **scaling** (1 worker vs. all cores, both warm): what the
//!   work-stealing worker fleet adds on top. On a single-core machine
//!   this is ~1x by construction — the JSON records `cores` so the numbers
//!   can be judged in context.

use std::sync::Arc;
use std::time::Duration;

use wasabi::cache::ModuleCache;
use wasabi::fleet::Job;
use wasabi::JsonValue;
use wasabi_analyses::registry;
use wasabi_bench::{cores, finish, kernels, median_of, ms, round3, Mode};
use wasabi_wasm::module::Module;

/// The analyses each job runs. Light hook sets keep per-job execution
/// close to uninstrumented speed, so the cold-vs-warm contrast measures
/// the cache, not the analyses.
const JOB_ANALYSES: [&str; 1] = ["call_graph"];

struct Row {
    config: &'static str,
    workers: usize,
    warm: bool,
    wall: Duration,
    jobs: usize,
    jobs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    stolen: u64,
}

fn job_list(kernels: &[(String, Arc<Module>)], repeats: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for _ in 0..repeats {
        for (name, module) in kernels {
            jobs.push(
                Job::new(name.clone(), Arc::clone(module), "main", vec![])
                    .analyses(JOB_ANALYSES.iter().copied()),
            );
        }
    }
    jobs
}

/// One measured batch.
fn run_once(
    config: &'static str,
    kernels: &[(String, Arc<Module>)],
    repeats: usize,
    workers: usize,
    warm: bool,
) -> Row {
    let cache = ModuleCache::shared();
    if warm {
        // Prime every (module, hook set) entry, untimed.
        let mut primer = registry::fleet()
            .workers(workers)
            .cache(Arc::clone(&cache))
            .build();
        for job in job_list(kernels, 1) {
            primer.submit(job);
        }
        assert!(primer.run().all_ok(), "priming batch failed");
    }
    let mut fleet = registry::fleet().workers(workers).cache(cache).build();
    for job in job_list(kernels, repeats) {
        fleet.submit(job);
    }
    let batch = fleet.run();
    assert!(batch.all_ok(), "{config}: a job failed");
    let stolen = batch.jobs.iter().filter(|j| j.stats.stolen).count() as u64;
    Row {
        config,
        workers: batch.workers,
        warm,
        wall: batch.wall,
        jobs: batch.jobs.len(),
        jobs_per_sec: batch.jobs_per_sec(),
        cache_hits: batch.cache_hits,
        cache_misses: batch.cache_misses,
        stolen,
    }
}

fn main() {
    let mode = Mode::from_args();
    // Small n on purpose: per-job execution stays cheap, so the numbers
    // contrast the cache + scheduling, not the kernels.
    let polybench_n: u32 = mode.pick(6, 4);
    // Full mode: every PolyBench kernel exactly once per batch, so a cold
    // batch pays one instrument+translate per job and a warm batch pays
    // none — the purest cold-vs-warm contrast. Smoke keeps a repeat so
    // the intra-batch cache path is exercised too.
    let kernel_count = mode.pick(wasabi_workloads::polybench::NAMES.len(), 2);
    let repeats = mode.pick(1, 2);
    let rounds = mode.pick(3, 1);
    let cores = cores();
    // Even on one core, run the "all cores" configs with >= 2 workers so
    // the steal path is actually exercised.
    let max_workers = cores.max(2);

    let kernels: Vec<(String, Arc<Module>)> = kernels(polybench_n, kernel_count)
        .into_iter()
        .map(|(name, module)| (format!("{name}.wasm"), Arc::new(module)))
        .collect();

    println!(
        "Fleet throughput: {} kernels x {:?} x {repeats} repeats = {} jobs \
         (PolyBench n={polybench_n}, {cores} core(s), max {max_workers} workers)",
        kernels.len(),
        JOB_ANALYSES,
        kernels.len() * repeats,
    );
    println!();
    println!(
        "{:<16} {:>8} {:>6} {:>10} {:>10} {:>6} {:>7} {:>7}",
        "config", "workers", "warm", "wall (ms)", "jobs/sec", "hits", "misses", "stolen"
    );
    println!(
        "{:-<16} {:->8} {:->6} {:->10} {:->10} {:->6} {:->7} {:->7}",
        "", "", "", "", "", "", "", ""
    );

    // Each configuration is the median of `rounds` batches, each on a
    // fresh cache.
    let rows = [
        ("cold_1worker", 1, false),
        ("warm_1worker", 1, true),
        ("cold_allcores", max_workers, false),
        ("warm_allcores", max_workers, true),
    ]
    .map(|(config, workers, warm)| {
        median_of(
            (0..rounds).map(|_| run_once(config, &kernels, repeats, workers, warm)),
            |row| row.wall,
        )
    });
    for row in &rows {
        println!(
            "{:<16} {:>8} {:>6} {:>10.1} {:>10.1} {:>6} {:>7} {:>7}",
            row.config,
            row.workers,
            row.warm,
            ms(row.wall),
            row.jobs_per_sec,
            row.cache_hits,
            row.cache_misses,
            row.stolen,
        );
    }

    let [cold_1worker, warm_1worker, _, warm_allcores] = &rows;
    let amortization = warm_1worker.jobs_per_sec / cold_1worker.jobs_per_sec;
    let scaling_warm = warm_allcores.jobs_per_sec / warm_1worker.jobs_per_sec;
    let warm_allcores_vs_cold_1worker = warm_allcores.jobs_per_sec / cold_1worker.jobs_per_sec;
    println!();
    println!("cache amortization (warm vs cold, 1 worker):   {amortization:.2}x");
    println!("worker scaling (1 -> {max_workers} workers, warm):        {scaling_warm:.2}x");
    println!("warm all-cores vs cold 1-worker:               {warm_allcores_vs_cold_1worker:.2}x");
    if cores == 1 {
        println!("note: single-core machine — worker scaling cannot exceed ~1x here");
    }

    let row_docs = rows.iter().map(|row| {
        JsonValue::object([
            ("config", row.config.into()),
            ("workers", row.workers.into()),
            ("warm", row.warm.into()),
            ("wall_ms", round3(ms(row.wall))),
            ("jobs", row.jobs.into()),
            ("jobs_per_sec", round3(row.jobs_per_sec)),
            ("cache_hits", row.cache_hits.into()),
            ("cache_misses", row.cache_misses.into()),
            ("stolen_jobs", row.stolen.into()),
        ])
    });
    let doc = JsonValue::object([
        ("polybench_n", polybench_n.into()),
        ("kernels", kernels.len().into()),
        ("repeats", repeats.into()),
        ("jobs", (kernels.len() * repeats).into()),
        (
            "analyses",
            JsonValue::array(JOB_ANALYSES.iter().map(|&a| a.into())),
        ),
        ("cores", cores.into()),
        ("max_workers", max_workers.into()),
        ("amortization_warm_vs_cold_1worker", round3(amortization)),
        ("scaling_1worker_to_allcores_warm", round3(scaling_warm)),
        (
            "warm_allcores_vs_cold_1worker",
            round3(warm_allcores_vs_cold_1worker),
        ),
        ("rows", JsonValue::array(row_docs)),
    ]);
    finish(mode, "fleet", &doc);
}
