//! Cohort-sweep throughput (ISSUE 10 headline): the same 1-module ×
//! N-input sweep is executed two ways —
//!
//! - **fleet**: N independent [`wasabi::fleet::Job`]s on a pre-warmed
//!   shared `ModuleCache` (the PR 8/9 path: translation amortized, but
//!   every job still pays dispatch, host-plan construction, analysis
//!   instantiation, and result plumbing), and
//! - **cohort**: one [`wasabi::Pipeline::run_cohort`] sweep — the module
//!   is instrumented + translated + host-planned once, N instances share
//!   them and interleave in chunked rounds, each owning only its memory,
//!   globals, and fuel.
//!
//! ```sh
//! cargo run --release -p wasabi-bench --bin cohort [-- --smoke]
//! ```
//!
//! The headline ratio `speedup_cohort_vs_fleet` (instances/sec over
//! jobs/sec, both at 1 worker on a warm cache) measures exactly the
//! per-job overhead the cohort design amortizes, not parallelism —
//! `cores` is recorded for context.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wasabi::cache::ModuleCache;
use wasabi::fleet::Job;
use wasabi::hooks::Analysis;
use wasabi::{JsonValue, Wasabi};
use wasabi_analyses::registry;
use wasabi_bench::{cores, finish, median_of, ms, round3, Mode};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;

/// Analyses attached to every job / fused into the sweep pipeline. Light
/// on purpose: the contrast is per-job overhead, not hook volume.
const SWEEP_ANALYSES: [&str; 1] = ["call_graph"];

/// `main(x)`: a short arithmetic loop whose trip count depends on `x` —
/// enough per-instance work to be a real program, little enough that
/// per-job fixed costs stay visible.
fn sweep_module() -> Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    builder.function("main", &[ValType::I32], &[ValType::I32], |f| {
        let acc = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        f.get_local(0u32).set_local(acc);
        f.block(None).loop_(None);
        // for i in 0..((x & 63) + 32) { acc = acc * 3 + i }
        f.get_local(i)
            .get_local(0u32)
            .i32_const(63)
            .binary(wasabi_wasm::instr::BinaryOp::I32And)
            .i32_const(32)
            .i32_add()
            .binary(wasabi_wasm::instr::BinaryOp::I32GeS)
            .br_if(1);
        f.get_local(acc)
            .i32_const(3)
            .i32_mul()
            .get_local(i)
            .i32_add()
            .set_local(acc);
        f.get_local(i).i32_const(1).i32_add().set_local(i);
        f.br(0).end().end();
        f.i32_const(0)
            .get_local(acc)
            .store(wasabi_wasm::instr::StoreOp::I32Store, 0);
        f.get_local(acc);
    });
    builder.finish()
}

/// N jobs through a 1-worker fleet on a warm shared cache; returns the
/// per-job results for the cross-check plus the measured wall time.
fn run_fleet(module: &Arc<Module>, inputs: &[i32]) -> (Vec<Vec<Val>>, Duration) {
    let cache = ModuleCache::shared();
    // Prime the (module, hook set) entry, untimed — the measured batch
    // must contrast per-job overhead, not first-touch translation.
    let mut primer = registry::fleet()
        .workers(1)
        .cache(Arc::clone(&cache))
        .build();
    primer.submit(
        Job::new("prime", Arc::clone(module), "main", vec![Val::I32(0)])
            .analyses(SWEEP_ANALYSES.iter().copied()),
    );
    assert!(primer.run().all_ok(), "priming job failed");

    let mut fleet = registry::fleet().workers(1).cache(cache).build();
    for &input in inputs {
        fleet.submit(
            Job::new(
                format!("sweep-{input}"),
                Arc::clone(module),
                "main",
                vec![Val::I32(input)],
            )
            .analyses(SWEEP_ANALYSES.iter().copied()),
        );
    }
    let started = Instant::now();
    let batch = fleet.run();
    let wall = started.elapsed();
    assert!(batch.all_ok(), "a fleet job failed");
    let results = batch
        .jobs
        .into_iter()
        .map(|j| j.result.expect("checked all_ok"))
        .collect();
    (results, wall)
}

/// The same sweep as one cohort; the wall time INCLUDES the one-time
/// instrument+translate+plan build — that's the cost being amortized.
fn run_cohort(module: &Module, inputs: &[i32]) -> (Vec<Vec<Val>>, Duration) {
    let args: Vec<Vec<Val>> = inputs.iter().map(|&i| vec![Val::I32(i)]).collect();
    let started = Instant::now();
    let mut analyses: Vec<Box<dyn Analysis>> = SWEEP_ANALYSES
        .iter()
        .map(|name| registry::by_name(name).expect("known analysis"))
        .collect();
    let mut builder = Wasabi::builder();
    for analysis in &mut analyses {
        builder = builder.analysis(analysis.as_mut());
    }
    let mut pipeline = builder.build(module).expect("module validates");
    let outcomes = pipeline.run_cohort("main", &args);
    let wall = started.elapsed();
    let results = outcomes
        .into_iter()
        .map(|o| o.result.expect("sweep member trapped"))
        .collect();
    (results, wall)
}

fn main() {
    let mode = Mode::from_args();
    let input_count: i32 = mode.pick(100, 40);
    let rounds = mode.pick(5, 3);
    let cores = cores();
    let module = Arc::new(sweep_module());
    let inputs: Vec<i32> = (0..input_count).collect();

    println!(
        "Cohort sweep: 1 module x {input_count} inputs x {:?}, \
         cohort vs {input_count} warm fleet jobs ({cores} core(s), {rounds} round(s))",
        SWEEP_ANALYSES,
    );
    println!();

    let (fleet_results, fleet_wall) = median_of(
        (0..rounds).map(|_| run_fleet(&module, &inputs)),
        |&(_, wall)| wall,
    );
    let (cohort_results, cohort_wall) = median_of(
        (0..rounds).map(|_| run_cohort(&module, &inputs)),
        |&(_, wall)| wall,
    );

    // The two arms are differential witnesses of each other.
    assert_eq!(
        cohort_results, fleet_results,
        "cohort sweep and fleet jobs disagree on results"
    );

    println!(
        "{:<20} {:>10} {:>14}",
        "config", "wall (ms)", "instances/sec"
    );
    println!("{:-<20} {:->10} {:->14}", "", "", "");
    let per_sec = |wall: Duration| f64::from(input_count) / wall.as_secs_f64();
    let rows = [("fleet_warm_1worker", fleet_wall), ("cohort", cohort_wall)];
    for (config, wall) in rows {
        println!("{config:<20} {:>10.1} {:>14.1}", ms(wall), per_sec(wall));
    }
    let speedup = per_sec(cohort_wall) / per_sec(fleet_wall);
    println!();
    println!("cohort vs warm 1-worker fleet:  {speedup:.2}x");

    let row_docs = rows.map(|(config, wall)| {
        JsonValue::object([
            ("config", config.into()),
            ("wall_ms", round3(ms(wall))),
            ("per_sec", round3(per_sec(wall))),
        ])
    });
    let doc = JsonValue::object([
        ("inputs", input_count.into()),
        (
            "analyses",
            JsonValue::array(SWEEP_ANALYSES.iter().map(|&a| a.into())),
        ),
        ("cores", cores.into()),
        ("rounds", rounds.into()),
        ("speedup_cohort_vs_fleet", round3(speedup)),
        ("rows", JsonValue::array(row_docs)),
    ]);
    finish(mode, "cohort", &doc);
}
