//! Seeded workload generation.
//!
//! Everything a run sends to the daemon derives from the `--seed`
//! argument through [`Plan::new`]: the generated modules, which keys the
//! set-up primes or writes to the disk tier, the pool of distinct
//! requests, and the one sequence of draws from that pool that all
//! clients take their next request from. The daemon only ever sees the
//! resulting frames. Equal seeds give byte-identical request sequences
//! (pinned by `tests/plan.rs`).

use std::collections::BTreeSet;

use wasabi::cache::content_key;
use wasabi::report::JsonValue;
use wasabi_server::protocol::{JobSpec, Request};
use wasabi_wasm::builder::ModuleBuilder;
use wasabi_wasm::encode::encode;
use wasabi_wasm::instr::{BinaryOp, LoadOp, StoreOp};
use wasabi_wasm::module::Module;
use wasabi_wasm::types::ValType;
use wasabi_workloads::synthetic::{synthetic_app, SyntheticConfig};

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm execution of PolyBench kernels under fused analyses.
    ExecWarm,
    /// Upload + build churn over both session-cache tiers.
    BuildChurn,
    /// Cohort sweeps streaming one frame per instance.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ExecWarm, Workload::BuildChurn, Workload::Sweep];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecWarm => "exec-warm",
            Workload::BuildChurn => "build-churn",
            Workload::Sweep => "sweep",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The daemon's default session-cache capacity, which `exec-warm` and
/// `sweep` run under.
pub const CACHE_CAPACITY: usize = 64;

/// Requests per cycle (one fresh daemon each; see [`Plan::cycle`]):
/// 3–6 seconds of load per cycle on a 2-core box. `exec-warm` and
/// `sweep` cycles are whole passes over their pools.
pub const EXEC_CYCLE: usize = EXEC_POOL;
/// See [`EXEC_CYCLE`]; one `build-churn` sequence block.
pub const CHURN_CYCLE: usize = 120;
/// See [`EXEC_CYCLE`]; ten passes over the `sweep` pool.
pub const SWEEP_CYCLE: usize = 240;

/// PolyBench kernels uploaded by `exec-warm`.
pub const EXEC_KERNELS: [&str; 8] = [
    "correlation",
    "covariance",
    "gemm",
    "gemver",
    "gesummv",
    "symm",
    "syr2k",
    "syrk",
];

/// Base problem size of the `exec-warm` kernels: the heaviest job
/// (syr2k under the heaviest analysis set) executes for tens of
/// milliseconds.
pub const EXEC_KERNEL_SIZE: u32 = 20;

/// The fixed list of analysis sets `exec-warm` draws from, light to
/// heavy.
pub const EXEC_SETS: [&[&str]; 6] = [
    &["call_graph"],
    &["instruction_coverage"],
    &["branch_coverage", "call_graph"],
    &["basic_block_profiling"],
    &["instruction_mix"],
    &["instruction_mix", "taint_analysis", "memory_tracing"],
];

/// Distinct batches in the `exec-warm` pool: 48 each of 1, 2, 3 and 4
/// jobs, 480 jobs in all, so each of the 48 keys is in exactly 10.
pub const EXEC_POOL: usize = 192;

/// (kernel, set) index shifts from the first job of an `exec-warm` batch
/// to each of its jobs. The second job runs the first's kernel under the
/// set three steps along the light-to-heavy list, so a light and a heavy
/// job start a multi-job batch side by side, and the light one answers
/// first. Seven requests in eight then get their first result from a
/// light job, so `ttfr_p50_ms` falls inside that mode, not in the gap
/// between the light and the heavy mode, where a small shift in timing
/// moves the median a long way.
pub const EXEC_SHIFTS: [(usize, usize); 4] = [(0, 0), (0, 3), (3, 1), (5, 5)];

/// Analysis sets of `build-churn`; each instruments a different hook set,
/// so every (module, set) pair is its own cache key.
pub const CHURN_SETS: [&[&str]; 3] = [
    &["call_graph"],
    &["instruction_coverage"],
    &["memory_tracing"],
];

/// Synthetic apps in the `build-churn` pool.
pub const CHURN_APPS: usize = 40;

/// Smallest and largest `build-churn` module, in bytes (approximate:
/// the generator targets a size). A 10× spread like the 50–500 KB of
/// the workload's description, scaled down 12.5×: the daemon parses an
/// upload frame in time quadratic in its length (`json::parse`
/// re-validates the rest of the input as UTF-8 for every string
/// character), so a 450 KB upload alone costs about 7 s of daemon CPU
/// on a 2-core x86-64 box, and a 10-second run would complete only a
/// handful of requests. At this size the parse still makes the largest
/// uploads set `latency_p90_ms`, and the traced run shows it as
/// `protocol.frame_ms`.
pub const CHURN_BYTES: (usize, usize) = (4_000, 40_000);

/// Zipf exponent of the `build-churn` key popularity.
pub const CHURN_ZIPF: f64 = 0.7;

/// Every requested key by popularity except each `CHURN_DISK_SKIP`th
/// (from a seeded offset) is written to the disk tier before the daemon
/// starts. With this share on disk and the skew above, a cycle's
/// requests split roughly 32% memory hits, 60% disk loads and 8% cold
/// builds: `ttfr_p50_ms` falls well inside the disk-load mode instead of
/// on the edge between two modes, where it would jump from run to run.
pub const CHURN_DISK_SKIP: usize = 8;

/// Analysis sets of `sweep`: light and medium.
pub const SWEEP_SETS: [&[&str]; 2] = [
    &["call_graph"],
    &["basic_block_profiling", "memory_tracing"],
];

/// Sweep modules (variants of one parameterised export).
pub const SWEEP_MODULES: usize = 3;

/// Distinct sweep requests in the pool: 4 per (module, set) pair.
pub const SWEEP_POOL: usize = 24;

/// Instances per sweep request, inclusive range.
pub const SWEEP_INSTANCES: (u64, u64) = (64, 256);

/// Length of the request sequence; a run that outlasts it wraps around.
pub const SEQUENCE_LEN: usize = 8192;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One generated module as the clients upload it.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    /// Human-readable name (kernel name, app seed, sweep variant).
    pub name: String,
    /// The wasm binary.
    pub bytes: Vec<u8>,
    /// Its content key, as the daemon's `uploaded` reply names it.
    pub hash: String,
    /// The export every job on this module invokes.
    pub invoke: String,
    /// That export's parameter types.
    pub params: Vec<ValType>,
}

impl ModuleSpec {
    fn new(name: String, module: &Module, invoke: &str) -> ModuleSpec {
        let bytes = encode(module);
        let params = module
            .functions
            .iter()
            .find(|f| f.export.iter().any(|e| e == invoke))
            .map(|f| f.type_.params.clone())
            .unwrap_or_else(|| panic!("generated module {name} exports {invoke}"));
        ModuleSpec {
            name,
            hash: content_key(&bytes),
            bytes,
            invoke: invoke.to_string(),
            params,
        }
    }
}

/// One job of a request: a module, an analysis set, and the inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobDraw {
    /// Index into [`Plan::modules`].
    pub module: usize,
    /// Index into [`Plan::sets`].
    pub set: usize,
    /// Sweep inputs (one `i32` argument per instance); `None` for a
    /// single invocation with typed zero arguments.
    pub sweep: Option<Vec<i32>>,
}

/// One request: every frame a client sends for one unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestDraw {
    /// Upload the first job's module before submitting.
    pub upload: bool,
    /// The jobs of the one `submit`.
    pub jobs: Vec<JobDraw>,
}

/// Everything a run sends, generated from one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed everything derives from.
    pub seed: u64,
    /// Generated modules.
    pub modules: Vec<ModuleSpec>,
    /// Analysis sets jobs draw from.
    pub sets: Vec<Vec<String>>,
    /// The daemon's session-cache capacity (`--cache-capacity`).
    pub cache_capacity: usize,
    /// Modules uploaded during set-up.
    pub setup_uploads: Vec<usize>,
    /// (module, set) keys submitted during set-up to prime the cache.
    pub prime: Vec<(usize, usize)>,
    /// (module, set) keys written to the disk tier before the daemon
    /// starts.
    pub disk_prepop: Vec<(usize, usize)>,
    /// The distinct requests.
    pub pool: Vec<RequestDraw>,
    /// The order requests are sent in, as indices into `pool`. All
    /// clients take the next request from this one sequence.
    pub sequence: Vec<usize>,
    /// Requests per cycle. A run is a series of cycles, each a fresh
    /// daemon (set up anew) serving the next `cycle` requests of the
    /// sequence, until the run has measured its duration. Every cycle
    /// starts from the same state and sends the same mix, so a run's
    /// numbers do not depend on how far a faster or slower run got into
    /// a workload whose caches fill as it goes.
    pub cycle: usize,
}

impl Plan {
    /// Generate the plan for `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let (mut plan, weights, block) = match workload {
            Workload::ExecWarm => exec_warm(&mut rng),
            Workload::BuildChurn => build_churn(&mut rng),
            Workload::Sweep => sweep(&mut rng),
        };
        plan.workload = workload;
        plan.seed = seed;
        plan.sequence = Plan::sequence(&weights, block, &mut rng);
        plan
    }

    /// A low-variance request sequence: consecutive blocks of `block`
    /// draws, each the [`systematic`] sample of the pool's `weights` in
    /// a new seeded order. Every block has the same mix, so runs with
    /// different seeds measure the same workload. When the weights are
    /// whole numbers summing to `block` (uniform weights and `block`
    /// equal to the pool size, for one), each block holds every entry
    /// exactly its weight many times.
    fn sequence(weights: &[f64], block: usize, rng: &mut Rng) -> Vec<usize> {
        let draws = systematic(weights, block);
        let mut sequence = Vec::with_capacity(SEQUENCE_LEN + block);
        while sequence.len() < SEQUENCE_LEN {
            let mut order = draws.clone();
            rng.shuffle(&mut order);
            sequence.extend(order);
        }
        sequence.truncate(SEQUENCE_LEN);
        sequence
    }

    /// The `i`th request sent (the sequence wraps around).
    pub fn request(&self, i: usize) -> &RequestDraw {
        &self.pool[self.sequence[i % self.sequence.len()]]
    }

    /// The wire job for `job`.
    pub fn job_spec(&self, job: &JobDraw) -> JobSpec {
        let module = &self.modules[job.module];
        let (args, sweep_args) = match &job.sweep {
            Some(inputs) => (
                Vec::new(),
                Some(inputs.iter().map(|&x| vec![JsonValue::from(x)]).collect()),
            ),
            None => (
                module
                    .params
                    .iter()
                    .map(|_| JsonValue::from(0i64))
                    .collect(),
                None,
            ),
        };
        JobSpec {
            hash: module.hash.clone(),
            analyses: self.sets[job.set].clone(),
            invoke: module.invoke.clone(),
            args,
            sweep_args,
            deadline_ms: None,
        }
    }

    /// The request frames of `request`, in send order.
    pub fn frames(&self, request: &RequestDraw) -> Vec<Request> {
        let mut frames = Vec::with_capacity(2);
        if request.upload {
            frames.push(Request::Upload {
                bytes: self.modules[request.jobs[0].module].bytes.clone(),
            });
        }
        frames.push(Request::Submit {
            jobs: request.jobs.iter().map(|j| self.job_spec(j)).collect(),
            tag: String::new(),
        });
        frames
    }

    /// Distinct (module, set) keys any request of the pool names.
    pub fn distinct_keys(&self) -> usize {
        self.pool
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| (j.module, j.set)))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Distinct jobs (the oracle computes one expected result each).
    pub fn distinct_jobs(&self) -> Vec<JobDraw> {
        self.pool
            .iter()
            .flat_map(|r| r.jobs.iter().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }
}

/// The systematic sample of `n` draws from `weights`: the indices under
/// `n` evenly spaced points on their CDF, each in the middle of its
/// `1/n` slice. Every index is drawn its weight's share of `n` times,
/// rounded up or down.
fn systematic(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    (0..n)
        .map(|k| {
            let u = (k as f64 + 0.5) / n as f64;
            cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
        })
        .collect()
}

fn sets(list: &[&[&str]]) -> Vec<Vec<String>> {
    list.iter()
        .map(|set| set.iter().map(|s| s.to_string()).collect())
        .collect()
}

fn empty_plan(modules: Vec<ModuleSpec>, sets: Vec<Vec<String>>) -> Plan {
    Plan {
        workload: Workload::ExecWarm,
        seed: 0,
        modules,
        sets,
        cache_capacity: CACHE_CAPACITY,
        setup_uploads: Vec::new(),
        prime: Vec::new(),
        disk_prepop: Vec::new(),
        pool: Vec::new(),
        sequence: Vec::new(),
        cycle: 0,
    }
}

/// Every (module, set) key of a plan, module-major.
fn all_keys(plan: &Plan) -> Vec<(usize, usize)> {
    (0..plan.modules.len())
        .flat_map(|m| (0..plan.sets.len()).map(move |s| (m, s)))
        .collect()
}

/// The pool, uniform weights, and a block of one pass over the pool.
type Generated = (Plan, Vec<f64>, usize);

fn uniform(plan: Plan) -> Generated {
    let n = plan.pool.len();
    (plan, vec![1.0; n], n)
}

/// `exec-warm`: 8 kernels × 6 sets = 48 keys, all primed. The pool holds
/// 48 batches each of 1, 2, 3 and 4 jobs: for each size, one batch led by
/// each key, its later jobs the leading key shifted by [`EXEC_SHIFTS`].
/// Every key is then equally common in every position of every size. The
/// fleet deals a batch's jobs round-robin onto its workers, so which jobs
/// share a batch decides when its first result arrives and when it is
/// done; with this design that is the same for every seed, and the seed
/// sets the order.
fn exec_warm(rng: &mut Rng) -> Generated {
    let modules = EXEC_KERNELS
        .iter()
        .map(|name| {
            let program =
                wasabi_workloads::polybench::by_name(name, EXEC_KERNEL_SIZE).expect("known kernel");
            let module = wasabi_workloads::compile::compile(&program);
            ModuleSpec::new(name.to_string(), &module, "main")
        })
        .collect::<Vec<_>>();
    let mut plan = empty_plan(modules, sets(&EXEC_SETS));
    plan.setup_uploads = (0..plan.modules.len()).collect();
    plan.prime = all_keys(&plan);
    let (kernels, sets) = (plan.modules.len(), plan.sets.len());
    plan.pool = (1..=EXEC_SHIFTS.len())
        .flat_map(|size| {
            plan.prime.iter().map(move |&(module, set)| RequestDraw {
                upload: false,
                jobs: EXEC_SHIFTS[..size]
                    .iter()
                    .map(|&(dm, ds)| JobDraw {
                        module: (module + dm) % kernels,
                        set: (set + ds) % sets,
                        sweep: None,
                    })
                    .collect(),
            })
        })
        .collect();
    rng.shuffle(&mut plan.pool);
    plan.cycle = EXEC_CYCLE;
    uniform(plan)
}

/// `build-churn`: 40 synthetic apps × 3 sets = 120 keys, Zipf-popular,
/// under the default 64-entry session cache. Each request uploads its module and
/// submits one `entry_0` job.
///
/// Popularity rank `r` is key (app `r % 40`, set `r / 40`), and app `m`
/// is the `(7m mod 40)`th of 40 log-spaced sizes, jittered ±5% by the
/// seed. A sequence block is the [`systematic`] Zipf sample of
/// [`CHURN_CYCLE`] draws, the same for every seed: the 81 keys it draws
/// form the pool, each weighted by its count. All of them but every
/// [`CHURN_DISK_SKIP`]th by popularity (from a seeded offset) are on
/// disk before the daemon starts, so every block has the same number of
/// cold builds. The mix of keys and sizes a run sees stays the same from
/// seed to seed, while the apps' contents, the jitter, the disk subset
/// and the order change.
fn build_churn(rng: &mut Rng) -> Generated {
    let (lo, hi) = CHURN_BYTES;
    let modules = (0..CHURN_APPS)
        .map(|m| {
            let t = ((7 * m) % CHURN_APPS) as f64 / (CHURN_APPS - 1) as f64;
            let jitter = 0.95 + 0.1 * rng.unit();
            let size = (lo as f64 * (hi as f64 / lo as f64).powf(t) * jitter) as usize;
            let seed = rng.next_u64();
            let config = SyntheticConfig {
                seed,
                function_count: 0,
                body_statements: 24,
            }
            .with_target_bytes(size);
            ModuleSpec::new(
                format!("app-{seed:016x}"),
                &synthetic_app(&config),
                "entry_0",
            )
        })
        .collect::<Vec<_>>();
    let mut plan = empty_plan(modules, sets(&CHURN_SETS));
    plan.cycle = CHURN_CYCLE;
    let apps = plan.modules.len();
    let zipf: Vec<f64> = (0..apps * plan.sets.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(CHURN_ZIPF))
        .collect();
    let mut counts = vec![0usize; zipf.len()];
    for rank in systematic(&zipf, CHURN_CYCLE) {
        counts[rank] += 1;
    }
    // The drawn keys by popularity, with their counts per block.
    let drawn: Vec<((usize, usize), usize)> = counts
        .into_iter()
        .enumerate()
        .filter(|&(_, count)| count > 0)
        .map(|(rank, count)| ((rank % apps, rank / apps), count))
        .collect();
    // Positions past the last whole group of `CHURN_DISK_SKIP` are
    // always on disk, so the number of cold keys does not depend on the
    // offset.
    let offset = rng.below(CHURN_DISK_SKIP as u64) as usize;
    let grouped = drawn.len() / CHURN_DISK_SKIP * CHURN_DISK_SKIP;
    let mut disk: Vec<(usize, usize)> = drawn
        .iter()
        .enumerate()
        .filter(|&(i, _)| i >= grouped || i % CHURN_DISK_SKIP != offset)
        .map(|(_, &(key, _))| key)
        .collect();
    disk.sort_unstable();
    plan.disk_prepop = disk;
    let weights = drawn.iter().map(|&(_, count)| count as f64).collect();
    plan.pool = drawn
        .into_iter()
        .map(|((module, set), _)| RequestDraw {
            upload: true,
            jobs: vec![JobDraw {
                module,
                set,
                sweep: None,
            }],
        })
        .collect();
    (plan, weights, CHURN_CYCLE)
}

/// `main(x)` of sweep variant `variant`: a loop of `(x & 63) + 32 +
/// 16 * variant` iterations that reads, updates and writes a word of
/// linear memory per iteration, then returns the accumulator.
pub fn sweep_module(variant: u32) -> Module {
    let mut builder = ModuleBuilder::new();
    builder.memory(1, None);
    let extra = 32 + 16 * variant as i32;
    builder.function("main", &[ValType::I32], &[ValType::I32], move |f| {
        let acc = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        let addr = f.local(ValType::I32);
        f.get_local(0u32).set_local(acc);
        f.block(None).loop_(None);
        f.get_local(i)
            .get_local(0u32)
            .i32_const(63)
            .binary(BinaryOp::I32And)
            .i32_const(extra)
            .i32_add()
            .binary(BinaryOp::I32GeS)
            .br_if(1);
        // addr = (i * 4) & 4095
        f.get_local(i)
            .i32_const(4)
            .i32_mul()
            .i32_const(4095)
            .binary(BinaryOp::I32And)
            .set_local(addr);
        // mem[addr] = mem[addr] * 3 + acc + i
        f.get_local(addr)
            .get_local(addr)
            .load(LoadOp::I32Load, 0)
            .i32_const(3)
            .i32_mul()
            .get_local(acc)
            .i32_add()
            .get_local(i)
            .i32_add()
            .store(StoreOp::I32Store, 0);
        // acc = acc ^ mem[addr]
        f.get_local(acc)
            .get_local(addr)
            .load(LoadOp::I32Load, 0)
            .binary(BinaryOp::I32Xor)
            .set_local(acc);
        f.get_local(i).i32_const(1).i32_add().set_local(i);
        f.br(0).end().end();
        f.get_local(acc);
    });
    builder.finish()
}

/// `sweep`: 3 module variants × 2 sets, all primed; a pool of 24 sweep
/// requests, 4 per (module, set) pair, in seeded order. Instance counts
/// come from 24 equal strata of 64–256, one seeded draw each. Pair `p`
/// of the 6 gets strata `p`, `11 - p`, `12 + p` and `23 - p`, so every
/// pair spans the range with the same total: which pair is heavy does
/// not depend on the seed. The inputs are seeded.
fn sweep(rng: &mut Rng) -> Generated {
    let modules = (0..SWEEP_MODULES as u32)
        .map(|v| ModuleSpec::new(format!("sweep-{v}"), &sweep_module(v), "main"))
        .collect::<Vec<_>>();
    let mut plan = empty_plan(modules, sets(&SWEEP_SETS));
    plan.setup_uploads = (0..plan.modules.len()).collect();
    plan.prime = all_keys(&plan);
    let (lo, hi) = SWEEP_INSTANCES;
    let span = (hi - lo + 1) as f64;
    let pairs = plan.prime.len();
    let mut keys: Vec<((usize, usize), u64)> = (0..pairs)
        .flat_map(|p| [p, 2 * pairs - 1 - p, 2 * pairs + p, 4 * pairs - 1 - p])
        .enumerate()
        .map(|(i, stratum)| {
            let n = lo + (span * (stratum as f64 + rng.unit()) / SWEEP_POOL as f64) as u64;
            (plan.prime[i / 4], n)
        })
        .collect();
    rng.shuffle(&mut keys);
    plan.pool = keys
        .into_iter()
        .map(|((module, set), n)| RequestDraw {
            upload: false,
            jobs: vec![JobDraw {
                module,
                set,
                sweep: Some((0..n).map(|_| rng.next_u64() as i32).collect()),
            }],
        })
        .collect();
    plan.cycle = SWEEP_CYCLE;
    uniform(plan)
}
