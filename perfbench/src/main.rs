//! `perfbench` — run one workload against a fresh `wasabid`.
//!
//! ```sh
//! python3 perfbench/run.py --workload exec-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `run.py` builds `wasabid` and this binary, then runs it with
//! `--wasabid <path> --rev <git revision>` prepended. The last line of
//! stdout is the result object; a second JSON line on stderr carries the
//! provenance, sample counts, status-counter deltas and self-checks.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use perfbench::load::{self, Outcome, Ready, Sample};
use perfbench::oracle::{self, Oracle};
use perfbench::plan::{Plan, Workload};
use perfbench::replay::{Record, Replay, Tracer};
use perfbench::stats::{beyond, median, percentile, Outcomes};
use wasabi::json;
use wasabi::report::JsonValue;
use wasabi_server::protocol::StatusReply;

/// Fewest cycles a run makes.
const MIN_CYCLES: usize = 3;

/// Fewest set-ups an untraced run times: after its cycles it sets up
/// (and stops) extra daemons until it has this many, so `setup_s` is
/// the median of enough samples to be steady.
const MIN_SETUPS: usize = 9;

/// Most requests a traced run replays in-process.
const REPLAY_MAX: usize = 240;

const USAGE: &str = "usage: perfbench --wasabid <path> [--rev <rev>] --workload <exec-warm|build-churn|sweep> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    wasabid: PathBuf,
    rev: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}\n{USAGE}"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        values.insert(name.to_string(), value);
    }
    let take = |name: &str| -> Result<String, String> {
        values
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
    };
    let workload = take("workload")?;
    let trace = take("trace")?;
    Ok(Args {
        wasabid: PathBuf::from(take("wasabid")?),
        rev: values
            .get("rev")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
        workload: Workload::from_name(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}\n{USAGE}"))?,
        seed: take("seed")?
            .parse()
            .map_err(|_| format!("--seed must be an unsigned integer\n{USAGE}"))?,
        seconds: take("seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or_else(|| format!("--seconds must be a positive integer\n{USAGE}"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1\n{USAGE}")),
        },
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// The end-to-end figures of one cycle. A run reports the median of
/// each over its untraced cycles, so a cycle that a burst of load from
/// elsewhere on the machine slowed down does not move the result.
struct Cycle {
    traced: bool,
    req_per_s: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    ttfr_p50_ms: f64,
    cpu_ms_per_req: f64,
    /// The daemon's `VmHWM` at the end of the cycle.
    peak_rss_mb: f64,
}

/// Everything the measured cycles produced.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    cycles: Vec<Cycle>,
    /// Time the clients were sending requests.
    elapsed: Duration,
    /// `status` counter deltas, summed over cycles.
    delta: BTreeMap<&'static str, f64>,
    disk_writes: usize,
    /// Set-up times: one per cycle, then one per extra set-up.
    setup_s: Vec<f64>,
    /// The daemons' flags.
    flags: Vec<String>,
}

/// Serve requests `range` of the plan's sequence from one set-up daemon
/// with `clients` closed-loop clients, and add what it measured to
/// `phase`, its samples marked `traced`.
fn run_cycle(
    plan: &Plan,
    ready: &Ready,
    range: Range<usize>,
    traced: bool,
    clients: usize,
    phase: &mut Phase,
) -> Result<(), String> {
    let daemon = &ready.daemon;
    let disk_entries = || ready.disk_dir.as_deref().map_or(0, load::disk_entries);
    let disk_before = disk_entries();
    let before = load::status(daemon)?;
    let cpu_before = daemon.cpu_ms()?;
    let started = Instant::now();
    let next = AtomicUsize::new(range.start);
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| load::client_loop(plan, &next, range.end, daemon.socket(), traced))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    phase.elapsed += elapsed;
    let cpu_ms = daemon.cpu_ms()? - cpu_before;
    let after = load::status(daemon)?;
    for (name, value) in deltas(&before, &after) {
        *phase.delta.entry(name).or_default() += value;
    }
    let done: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Done)
        .collect();
    let latencies: Vec<f64> = done.iter().map(|s| s.latency_ms()).collect();
    let ttfr: Vec<f64> = done.iter().filter_map(|s| s.ttfr_ms()).collect();
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    phase.cycles.push(Cycle {
        traced,
        req_per_s: done.len() as f64 / elapsed.as_secs_f64(),
        latency_p50_ms: pct(&latencies, 0.5),
        latency_p90_ms: pct(&latencies, 0.9),
        ttfr_p50_ms: pct(&ttfr, 0.5),
        cpu_ms_per_req: cpu_ms / done.len().max(1) as f64,
        peak_rss_mb: daemon.peak_rss_mb()?,
    });
    phase.disk_writes += disk_entries().saturating_sub(disk_before);
    phase.samples.extend(samples);
    Ok(())
}

/// Status counter deltas between two `status` replies.
fn deltas(before: &StatusReply, after: &StatusReply) -> BTreeMap<&'static str, f64> {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    BTreeMap::from([
        ("cache_hits", d(after.cache_hits, before.cache_hits)),
        ("cache_misses", d(after.cache_misses, before.cache_misses)),
        (
            "cache_evictions",
            d(after.cache_evictions, before.cache_evictions),
        ),
        (
            "disk_cache_hits",
            d(after.disk_cache_hits, before.disk_cache_hits),
        ),
        (
            "disk_cache_misses",
            d(after.disk_cache_misses, before.disk_cache_misses),
        ),
        ("dedup_hits", d(after.dedup_hits, before.dedup_hits)),
        ("uploads", d(after.uploads, before.uploads)),
        ("jobs_done", d(after.jobs_done, before.jobs_done)),
        ("build_ms", after.build_ms - before.build_ms),
        (
            "build_worker_ms",
            after.build_worker_ms - before.build_worker_ms,
        ),
    ])
}

/// Compare every completed request against the oracle.
fn check(plan: &Plan, oracle: &Oracle, samples: &[Sample]) -> (Outcomes, Vec<String>) {
    let mut outcomes = Outcomes {
        attempted: samples.len() as u64,
        ..Outcomes::default()
    };
    let mut problems = Vec::new();
    for sample in samples {
        match &sample.outcome {
            Outcome::Refused(e) => {
                outcomes.refused += 1;
                problems.push(format!("refused: {e}"));
            }
            Outcome::Errored(e) => {
                outcomes.errored += 1;
                problems.push(format!("errored: {e}"));
            }
            Outcome::Done => {
                let request = plan.request(sample.index);
                let wrong = request.jobs.iter().enumerate().find_map(|(i, job)| {
                    let frames: Vec<_> = sample.results.iter().filter(|r| r.job == i).collect();
                    oracle::check_job(plan, job, &oracle[job], &frames).err()
                });
                let stray = sample.results.iter().any(|r| r.job >= request.jobs.len());
                if let Some(e) =
                    wrong.or_else(|| stray.then(|| "result for an unknown job".to_string()))
                {
                    outcomes.wrong += 1;
                    problems.push(format!("wrong result: {e}"));
                }
            }
        }
    }
    problems.truncate(5);
    (outcomes, problems)
}

/// The working-set self-check: did the workload exercise the layers its
/// description says it does?
fn self_check(plan: &Plan, phase: &Phase, delta: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut require = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };
    let done: Vec<&Sample> = phase
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Done)
        .collect();
    let jobs: usize = done.iter().map(|s| plan.request(s.index).jobs.len()).sum();
    require(
        delta["jobs_done"] == jobs as f64,
        "status jobs_done != jobs completed",
    );
    match plan.workload {
        Workload::ExecWarm => {
            require(
                delta["cache_misses"] == 0.0,
                "exec-warm: cache misses in the timed phase",
            );
        }
        Workload::BuildChurn => {
            require(
                delta["disk_cache_misses"] > 0.0,
                "build-churn: no cold builds",
            );
            require(
                delta["disk_cache_hits"] > 0.0,
                "build-churn: no disk-tier loads",
            );
            require(phase.disk_writes > 0, "build-churn: no disk-tier writes");
            require(
                delta["dedup_hits"] > 0.0,
                "build-churn: no deduplicated uploads",
            );
            require(
                delta["cache_evictions"] > 0.0,
                "build-churn: no LRU evictions",
            );
            require(
                delta["cache_hits"] > 0.0,
                "build-churn: no memory-tier hits",
            );
        }
        Workload::Sweep => {
            require(
                delta["cache_misses"] == 0.0,
                "sweep: cache misses in the timed phase",
            );
            let frames_ok = done.iter().all(|s| {
                let n = plan.request(s.index).jobs[0]
                    .sweep
                    .as_ref()
                    .map_or(1, Vec::len);
                s.results.len() == n
            });
            require(
                frames_ok,
                "sweep: a request did not receive one frame per instance",
            );
        }
    }
    failures
}

/// A JSON number for `value` (non-finite values become 0 so the output
/// stays valid JSON, and an empty sum's `-0.0` prints as `0.0`).
fn number(value: f64) -> JsonValue {
    JsonValue::Float(if value.is_finite() { value + 0.0 } else { 0.0 })
}

/// The 10th, 20th, …, 90th percentiles, for judging a distribution's
/// shape from the stderr line.
fn deciles(values: &[f64]) -> JsonValue {
    JsonValue::array((1..10).map(|d| number(percentile(values, d as f64 / 10.0).unwrap_or(0.0))))
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::object([("value", number(value)), ("unit", JsonValue::from(unit))])
}

fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One client per core keeps every core busy. With one client on two
    // cores, the idle core was woken at each hand-off of a request
    // (client, connection thread, fleet worker), and on a virtual machine
    // each wake-up adds a delay that varies with the host's load.
    let clients = nproc;
    let plan = Plan::new(args.workload, args.seed);
    // The reference is computed before any set-up is timed.
    let oracle = oracle::build(&plan)?;

    let scratch =
        Scratch(PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id())));
    // The disk-tier entries a workload starts with are written once, like
    // the reference, and copied into place by each set-up.
    let template = scratch.0.join("disk-template");
    let prepop_started = Instant::now();
    let template = if plan.disk_prepop.is_empty() {
        None
    } else {
        load::disk_template(&plan, &template)?;
        Some(template)
    };
    let prepop_s = prepop_started.elapsed().as_secs_f64();
    let mut phase = Phase::default();
    let mut replay = None;
    // A traced run serves each range of the sequence twice, untraced then
    // traced, so `trace.overhead_ratio` compares the same requests.
    let pairs = usize::from(args.trace) + 1;
    loop {
        let k = phase.setup_s.len();
        let measured = phase.elapsed >= Duration::from_secs(args.seconds);
        if measured && k >= MIN_CYCLES && k % pairs == 0 {
            break;
        }
        let start = k / pairs * plan.cycle;
        let dir = scratch.0.join(format!("cycle-{k}"));
        let ready = load::setup(&plan, &args.wasabid, &dir, template.as_deref())?;
        phase.setup_s.push(ready.setup_s);
        if args.trace && replay.is_none() {
            replay = Some(Replay::new(
                &plan,
                &scratch.0,
                ready.disk_dir.as_deref(),
                nproc,
            )?);
        }
        let served = run_cycle(
            &plan,
            &ready,
            start..start + plan.cycle,
            k % pairs == 1,
            clients,
            &mut phase,
        );
        phase.flags = ready.daemon.flags.clone();
        ready.daemon.stop();
        served?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    while !args.trace && phase.setup_s.len() < MIN_SETUPS {
        let dir = scratch.0.join(format!("setup-{}", phase.setup_s.len()));
        let ready = load::setup(&plan, &args.wasabid, &dir, template.as_deref())?;
        phase.setup_s.push(ready.setup_s);
        ready.daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (setup_s, delta) = (&phase.setup_s, &phase.delta);

    let (outcomes, problems) = check(&plan, &oracle, &phase.samples);
    let self_check = self_check(&plan, &phase, delta);

    let done: Vec<&Sample> = phase
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Done)
        .collect();
    let latencies: Vec<f64> = done.iter().map(|s| s.latency_ms()).collect();
    let ttfr: Vec<f64> = done.iter().filter_map(|s| s.ttfr_ms()).collect();
    let bytes_uploaded: usize = done
        .iter()
        .map(|s| plan.request(s.index))
        .filter(|r| r.upload)
        .map(|r| plan.modules[r.jobs[0].module].bytes.len())
        .sum();

    let mut metrics: Vec<(String, JsonValue)> = Vec::new();
    let mut trace_detail = JsonValue::Null;
    if let Some(mut replay) = replay {
        let (layers, detail) = per_layer(&plan, &oracle, &mut replay, &phase, args)?;
        metrics = layers;
        trace_detail = detail;
    } else {
        let over_cycles = |f: fn(&Cycle) -> f64| {
            let values: Vec<f64> = phase.cycles.iter().filter(|c| !c.traced).map(f).collect();
            median(&values).unwrap_or(0.0)
        };
        metrics.extend([
            (
                "req_per_s".to_string(),
                metric(over_cycles(|c| c.req_per_s), "1/s"),
            ),
            (
                "latency_p50_ms".to_string(),
                metric(over_cycles(|c| c.latency_p50_ms), "ms"),
            ),
            (
                "latency_p90_ms".to_string(),
                metric(over_cycles(|c| c.latency_p90_ms), "ms"),
            ),
            (
                "ttfr_p50_ms".to_string(),
                metric(over_cycles(|c| c.ttfr_p50_ms), "ms"),
            ),
            (
                "daemon_cpu_ms_per_req".to_string(),
                metric(over_cycles(|c| c.cpu_ms_per_req), "ms"),
            ),
            (
                "peak_rss_mb".to_string(),
                metric(over_cycles(|c| c.peak_rss_mb), "MiB"),
            ),
            (
                "setup_s".to_string(),
                metric(median(setup_s).unwrap_or(0.0), "s"),
            ),
        ]);
    }

    let correct = outcomes.failed() == 0 && self_check.is_empty();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let detail = JsonValue::object([
        ("workload", JsonValue::from(plan.workload.name())),
        ("seed", JsonValue::from(args.seed)),
        ("trace", JsonValue::from(args.trace)),
        ("nproc", JsonValue::from(nproc)),
        ("clients", JsonValue::from(clients)),
        ("profile", JsonValue::from(profile)),
        ("rev", JsonValue::from(args.rev.clone())),
        (
            "wasabid_flags",
            JsonValue::array(phase.flags.iter().map(|f| JsonValue::from(f.clone()))),
        ),
        ("cache_capacity", JsonValue::from(plan.cache_capacity)),
        ("distinct_keys", JsonValue::from(plan.distinct_keys())),
        ("distinct_requests", JsonValue::from(plan.pool.len())),
        ("bytes_uploaded", JsonValue::from(bytes_uploaded)),
        (
            "module_bytes",
            JsonValue::from(plan.modules.iter().map(|m| m.bytes.len()).sum::<usize>()),
        ),
        (
            "disk_prepop_entries",
            JsonValue::from(plan.disk_prepop.len()),
        ),
        ("disk_prepop_s", number(prepop_s)),
        ("cycles", JsonValue::from(phase.cycles.len())),
        ("requests_per_cycle", JsonValue::from(plan.cycle)),
        ("timed_s", number(phase.elapsed.as_secs_f64())),
        (
            "cycle_latency_p50_ms",
            JsonValue::array(phase.cycles.iter().map(|c| number(c.latency_p50_ms))),
        ),
        (
            "cycle_cpu_ms_per_req",
            JsonValue::array(phase.cycles.iter().map(|c| number(c.cpu_ms_per_req))),
        ),
        (
            "peak_rss_mb_samples",
            JsonValue::array(phase.cycles.iter().map(|c| number(c.peak_rss_mb))),
        ),
        ("latency_samples", JsonValue::from(latencies.len())),
        ("latency_deciles_ms", deciles(&latencies)),
        ("ttfr_deciles_ms", deciles(&ttfr)),
        (
            "latency_p90_beyond",
            JsonValue::from(beyond(&latencies, 0.9)),
        ),
        ("ttfr_samples", JsonValue::from(ttfr.len())),
        (
            "setup_s_samples",
            JsonValue::array(setup_s.iter().map(|&s| number(s))),
        ),
        ("fail_ratio", number(outcomes.fail_ratio())),
        ("refused", JsonValue::from(outcomes.refused)),
        ("errored", JsonValue::from(outcomes.errored)),
        ("wrong", JsonValue::from(outcomes.wrong)),
        (
            "problems",
            JsonValue::array(problems.iter().map(|p| JsonValue::from(p.clone()))),
        ),
        (
            "status_delta",
            JsonValue::object(delta.iter().map(|(k, &v)| (*k, number(v)))),
        ),
        ("disk_writes", JsonValue::from(phase.disk_writes)),
        (
            "self_check_failures",
            JsonValue::array(self_check.iter().map(|p| JsonValue::from(p.clone()))),
        ),
        ("trace_detail", trace_detail),
    ]);
    eprintln!("{}", json::emit(&detail));
    if !self_check.is_empty() {
        eprintln!(
            "perfbench: working-set self-check FAILED: {}",
            self_check.join("; ")
        );
    }
    let result = JsonValue::object([
        ("correct", JsonValue::from(correct)),
        ("attempted", JsonValue::from(outcomes.attempted)),
        ("failed", JsonValue::from(outcomes.failed())),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", json::emit(&result));
    Ok(correct)
}

/// Replay the traced run's requests and reduce the spans to the
/// per-layer metrics.
fn per_layer(
    plan: &Plan,
    oracle: &Oracle,
    replay: &mut Replay<'_>,
    phase: &Phase,
    args: &Args,
) -> Result<(Vec<(String, JsonValue)>, JsonValue), String> {
    let delta = &phase.delta;
    // Replay the first (untraced) cycle in send order: the replay's state
    // mirrors that cycle's freshly set-up daemon, so the cache tiers see
    // what the daemon saw. A request's spans carry its sequence index, in
    // the replay and on the client alike.
    let mut first: Vec<&Sample> = phase
        .samples
        .iter()
        .filter(|s| !s.traced && s.index < plan.cycle)
        .collect();
    first.sort_by_key(|s| s.index);
    let limit = Duration::from_secs(args.seconds * 3);
    let mut records: BTreeMap<usize, Record> = BTreeMap::new();
    for sample in first {
        if records.len() >= REPLAY_MAX || replay.elapsed() > limit {
            break;
        }
        let record = replay.request(sample.index as u64, plan.request(sample.index), oracle)?;
        records.insert(sample.index, record);
    }

    // Client-side spans of the traced live requests.
    let done = |traced: bool| {
        phase
            .samples
            .iter()
            .filter(move |s| s.traced == traced && s.outcome == Outcome::Done)
    };
    let mut client_tracer =
        Tracer::new(phase.samples.first().map_or_else(Instant::now, |s| s.start));
    for sample in done(true) {
        let req = sample.index as u64;
        let root = client_tracer.record(req, "client.request", None, sample.start, sample.end);
        if let Some(uploaded) = sample.uploaded {
            client_tracer.record(req, "client.upload", Some(root), sample.start, uploaded);
        }
        let submit = client_tracer.record(
            req,
            "client.submit",
            Some(root),
            sample.submitted,
            sample.end,
        );
        if let Some(first) = sample.first_result {
            client_tracer.record(
                req,
                "client.first_frame",
                Some(submit),
                sample.submitted,
                first,
            );
        }
    }
    let spans_path = PathBuf::from(".bench_build").join(format!(
        "perfbench-spans-{}-{}.jsonl",
        plan.workload.name(),
        args.seed
    ));
    std::fs::write(
        &spans_path,
        client_tracer.to_json_lines() + &replay.tracer.to_json_lines(),
    )
    .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let med = |values: Vec<f64>| median(&values).unwrap_or(0.0);
    // Median per request over the requests where the layer did work.
    let ms = |name: &str| {
        med(records
            .values()
            .filter_map(|r| r.ms.get(name).copied())
            .collect())
    };
    let count = |name: &str| {
        med(records
            .values()
            .filter_map(|r| r.counts.get(name).copied())
            .collect())
    };
    let total = |name: &str| -> f64 { records.values().filter_map(|r| r.counts.get(name)).sum() };
    let total_ms = |name: &str| -> f64 { records.values().filter_map(|r| r.ms.get(name)).sum() };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let traced: Vec<f64> = done(true).map(Sample::latency_ms).collect();
    let untraced: Vec<f64> = done(false).map(Sample::latency_ms).collect();
    let overhead = med(done(true)
        .filter_map(|s| {
            s.daemon_wall_ms
                .map(|wall| (s.end - s.submitted).as_secs_f64() * 1e3 - wall)
        })
        .collect());
    let unattributed = med(done(true)
        .filter_map(|s| {
            records
                .get(&s.index)
                .map(|r| s.latency_ms() - r.blocking_ms)
        })
        .collect());

    let lookups = total("cache.lookups");
    let disk_hits = total("diskcache.hits");
    let builds = total("build.count");
    let layers: Vec<(&str, f64, &str)> = vec![
        ("protocol.frame_ms", ms("protocol"), "ms"),
        ("protocol.bytes_per_req", count("protocol.bytes"), "bytes"),
        ("protocol.frames_per_req", count("protocol.frames"), "count"),
        ("daemon.overhead_ms", overhead, "ms"),
        ("store.insert_ms", ms("store.insert"), "ms"),
        (
            "store.dedup_ratio",
            ratio(total("store.dedups"), total("store.uploads")),
            "ratio",
        ),
        ("decode.ms", ms("decode"), "ms"),
        (
            "decode.mb_per_s",
            ratio(total("decode.bytes") / 1e6, total_ms("decode") / 1e3),
            "MB/s",
        ),
        (
            "cache.hit_ratio",
            ratio(total("cache.hits"), lookups),
            "ratio",
        ),
        ("cache.evictions", total("cache.evictions"), "count"),
        ("cache.hit_ms", ms("cache.hit"), "ms"),
        ("diskcache.load_ms", ms("diskcache.load"), "ms"),
        ("diskcache.store_ms", ms("diskcache.store"), "ms"),
        (
            "diskcache.hit_ratio",
            ratio(disk_hits, disk_hits + builds),
            "ratio",
        ),
        (
            "diskcache.bytes_written",
            total("diskcache.bytes_written"),
            "bytes",
        ),
        ("build.ms", ms("build"), "ms"),
        (
            "build.kb_per_s",
            ratio(total("build.bytes") / 1e3, total_ms("build") / 1e3),
            "KB/s",
        ),
        (
            "build.parallelism",
            ratio(delta["build_worker_ms"], delta["build_ms"]),
            "ratio",
        ),
        ("interp.instantiate_ms", ms("interp.instantiate"), "ms"),
        ("interp.execute_ms", ms("interp.execute"), "ms"),
        ("interp.instrs", count("interp.instrs"), "count"),
        (
            "interp.minstr_per_s",
            ratio(
                total("interp.instrs") / 1e6,
                total_ms("interp.execute") / 1e3,
            ),
            "M/s",
        ),
        ("runtime.hook_calls", count("runtime.hook_calls"), "count"),
        ("runtime.dispatch_ms", ms("runtime.dispatch"), "ms"),
        (
            "runtime.ns_per_hook",
            ratio(
                total_ms("runtime.dispatch") * 1e6,
                total("runtime.hook_calls"),
            ),
            "ns",
        ),
        ("cohort.run_ms", ms("cohort.run"), "ms"),
        (
            "cohort.instances_per_s",
            ratio(total("cohort.instances"), total_ms("cohort.run") / 1e3),
            "1/s",
        ),
        ("cohort.rounds", count("cohort.rounds"), "count"),
        ("fleet.queue_ms", ms("fleet.queue"), "ms"),
        (
            "fleet.stolen_ratio",
            ratio(total("fleet.stolen"), total("fleet.jobs")),
            "ratio",
        ),
        ("report.render_ms", ms("report.render"), "ms"),
        ("report.bytes", count("report.bytes"), "bytes"),
        ("trace.unattributed_ms", unattributed, "ms"),
        (
            "trace.overhead_ratio",
            ratio(med(traced.clone()), med(untraced.clone())),
            "ratio",
        ),
    ];
    let detail = JsonValue::object([
        ("replayed", JsonValue::from(records.len())),
        ("traced_samples", JsonValue::from(traced.len())),
        ("untraced_samples", JsonValue::from(untraced.len())),
        ("spans", JsonValue::from(spans_path.display().to_string())),
    ]);
    Ok((
        layers
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect(),
        detail,
    ))
}
