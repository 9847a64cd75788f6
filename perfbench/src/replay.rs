//! The traced run's in-process replay and its spans.
//!
//! Each request of a traced run's first cycle is replayed, in send order,
//! through the layers' public functions in the order the daemon calls
//! them: frame
//! I/O ([`write_frame`]/[`read_frame`] plus request/response encode and
//! parse), the content store ([`ContentStore::insert`]), the session
//! cache ([`ModuleCache::session_for`], whose span is named after the
//! tier that answered: memory hit, disk load, or build), and execution
//! (a fused-dispatch run, or [`Pipeline::run_cohort`] for a sweep). Those
//! are the *blocking* spans: they do the daemon's work once, and their
//! lengths add up to what the request cost in-process.
//!
//! *Probe* spans time a layer by a second, separate call whose work is
//! already inside a blocking span or that the daemon does not do on this
//! path: decode + validate of uploaded bytes, `DiskCache::store` of a
//! fresh build into a side directory, the masked (`NoAnalysis`) run that
//! splits execution into interpretation and hook dispatch, rendering the
//! reports with `json::emit`, and `Fleet::run` of the request's batch.
//! Probes are never summed into a request's layer time.
//!
//! No span is recorded inside the program: every replay span starts and
//! ends in this file, around a call into a public function, and the
//! client-side spans come from the load generator's own timestamps.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wasabi::fleet::{Fleet, Job};
use wasabi::hooks::{Analysis, Hook, NoAnalysis};
use wasabi::json;
use wasabi::report::JsonValue;
use wasabi::{DiskCache, ModuleCache, WasabiHost};
use wasabi_analyses::registry;
use wasabi_server::protocol::{read_frame, write_frame, JobResult, Request, Response};
use wasabi_server::ContentStore;
use wasabi_vm::Instance;
use wasabi_wasm::decode::decode;
use wasabi_wasm::validate::validate;

use crate::oracle;
use crate::plan::{Plan, RequestDraw};

/// One timed interval. Spans of one request share `req`; `parent` is
/// the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request it belongs to.
    pub req: u64,
    /// Layer name.
    pub name: &'static str,
    /// Offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Offset from the tracer's epoch, nanoseconds.
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// A probe: timed separately, never summed into the request.
    pub probe: bool,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record an interval measured elsewhere; returns its index.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            probe: false,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span; returns its value and the span's index.
    fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: usize,
        probe: bool,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let id = self.record(req, name, Some(parent), start, Instant::now());
        self.spans[id].probe = probe;
        (value, id)
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&json::emit(&JsonValue::object([
                ("id", JsonValue::from(id)),
                ("req", JsonValue::from(s.req)),
                ("name", JsonValue::from(s.name)),
                ("start_ns", JsonValue::from(s.start_ns)),
                ("end_ns", JsonValue::from(s.end_ns)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                ("probe", JsonValue::from(s.probe)),
            ])));
            out.push('\n');
        }
        out
    }
}

/// What replaying one request measured.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Milliseconds per layer (blocking and probe spans alike, summed
    /// over the request's jobs).
    pub ms: BTreeMap<&'static str, f64>,
    /// Counts per layer (bytes, frames, instructions, hook calls, ...).
    pub counts: BTreeMap<&'static str, f64>,
    /// Summed self time of the blocking spans.
    pub blocking_ms: f64,
}

impl Record {
    fn add_ms(&mut self, name: &'static str, ms: f64) {
        *self.ms.entry(name).or_default() += ms;
    }

    fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }
}

/// The replay's own daemon-shaped state: content store, session cache
/// (with a disk tier when the workload has one) and a side directory for
/// the `DiskCache::store` probe.
pub struct Replay<'p> {
    plan: &'p Plan,
    store: ContentStore,
    cache: Arc<ModuleCache>,
    probe_disk: Option<DiskCache>,
    workers: usize,
    /// Spans of every replayed request.
    pub tracer: Tracer,
}

fn frame_roundtrip(value: &JsonValue, record: &mut Record) -> Result<JsonValue, String> {
    let mut buffer = Vec::new();
    write_frame(&mut buffer, value).map_err(|e| format!("write_frame: {e}"))?;
    record.add("protocol.bytes", buffer.len() as f64);
    record.add("protocol.frames", 1.0);
    read_frame(&mut buffer.as_slice()).map_err(|e| format!("read_frame: {e}"))
}

impl<'p> Replay<'p> {
    /// State mirroring a daemon right after set-up: the set-up uploads
    /// stored, the primed keys cached, and (for a disk-tier workload) a
    /// copy of the daemon's pre-populated disk directory `disk_seed`
    /// under `dir`.
    ///
    /// # Errors
    ///
    /// IO failures or a failing build.
    pub fn new(
        plan: &'p Plan,
        dir: &Path,
        disk_seed: Option<&Path>,
        workers: usize,
    ) -> Result<Replay<'p>, String> {
        let mut cache = ModuleCache::bounded(plan.cache_capacity);
        let mut probe_disk = None;
        if let Some(seed) = disk_seed {
            let disk_dir = dir.join("replay-disk");
            crate::load::copy_dir(seed, &disk_dir)?;
            cache = cache.with_disk(DiskCache::new(&disk_dir).map_err(|e| e.to_string())?);
            probe_disk = Some(DiskCache::new(dir.join("probe-disk")).map_err(|e| e.to_string())?);
        }
        let replay = Replay {
            plan,
            store: ContentStore::new(),
            cache: Arc::new(cache),
            probe_disk,
            workers,
            tracer: Tracer::new(Instant::now()),
        };
        for &m in &plan.setup_uploads {
            replay
                .store
                .insert(&plan.modules[m].bytes)
                .map_err(|e| e.to_string())?;
        }
        for &(m, s) in &plan.prime {
            let module = replay.store.get(&plan.modules[m].hash).ok_or("unstored")?;
            let hooks = oracle::hooks_of(&oracle::analyses(&plan.sets[s])?);
            replay
                .cache
                .session_for(&plan.modules[m].hash, hooks, &module)
                .map_err(|e| e.to_string())?;
        }
        Ok(replay)
    }

    /// Replay one request as request `req`.
    ///
    /// # Errors
    ///
    /// Any layer failing, or a result that differs from the oracle's.
    pub fn request(
        &mut self,
        req: u64,
        request: &RequestDraw,
        oracle: &oracle::Oracle,
    ) -> Result<Record, String> {
        let plan = self.plan;
        let mut record = Record::default();
        let root_start = Instant::now();
        let root = self
            .tracer
            .record(req, "request", None, root_start, root_start);

        // Request frames: encode, frame, read back, parse.
        let frames = plan.frames(request);
        let (parsed, id) = self.tracer.time(req, "protocol", root, false, || {
            frames
                .iter()
                .map(|f| {
                    let value = frame_roundtrip(&f.to_json(), &mut record)?;
                    Request::from_json(&value).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let parsed = parsed?;
        record.add_ms("protocol", self.tracer.spans[id].ms());

        if request.upload {
            let bytes = &plan.modules[request.jobs[0].module].bytes;
            let (receipt, id) = self.tracer.time(req, "store.insert", root, false, || {
                self.store.insert(bytes)
            });
            let receipt = receipt.map_err(|e| e.to_string())?;
            record.add_ms("store.insert", self.tracer.spans[id].ms());
            record.add("store.uploads", 1.0);
            if receipt.dedup {
                record.add("store.dedups", 1.0);
            } else {
                let (decoded, id) = self.tracer.time(req, "decode", root, true, || {
                    decode(bytes)
                        .map_err(|e| e.to_string())
                        .and_then(|m| validate(&m).map_err(|e| e.to_string()))
                });
                decoded?;
                record.add_ms("decode", self.tracer.spans[id].ms());
                record.add("decode.bytes", bytes.len() as f64);
            }
        }

        let Some(Request::Submit { jobs: specs, .. }) = parsed.last() else {
            return Err("request does not end in a submit".to_string());
        };
        let mut responses: Vec<Response> = Vec::new();
        for (index, (draw, spec)) in request.jobs.iter().zip(specs).enumerate() {
            let module = self.store.get(&spec.hash).ok_or("module never uploaded")?;
            let mut analyses = oracle::analyses(&spec.analyses)?;
            let hooks = oracle::hooks_of(&analyses);

            let (hits, disk_hits, evictions) = (
                self.cache.hits(),
                self.cache.disk_hits(),
                self.cache.evictions(),
            );
            let (looked, tier) = self.tracer.time(req, "cache", root, false, || {
                self.cache.session_for(&spec.hash, hooks, &module)
            });
            let looked = looked.map_err(|e| e.to_string())?;
            let tier_name = if self.cache.hits() > hits {
                record.add("cache.hits", 1.0);
                "cache.hit"
            } else if self.cache.disk_hits() > disk_hits {
                record.add("diskcache.hits", 1.0);
                "diskcache.load"
            } else {
                record.add("build.count", 1.0);
                record.add("build.bytes", plan.modules[draw.module].bytes.len() as f64);
                "build"
            };
            record.add("cache.lookups", 1.0);
            record.add(
                "cache.evictions",
                (self.cache.evictions() - evictions) as f64,
            );
            self.tracer.spans[tier].name = tier_name;
            record.add_ms(tier_name, self.tracer.spans[tier].ms());
            if tier_name == "build" {
                if let Some(disk) = &self.probe_disk {
                    let before = dir_bytes(disk.dir());
                    let (_, id) = self.tracer.time(req, "diskcache.store", root, true, || {
                        disk.store(&spec.hash, hooks, &looked.session)
                    });
                    record.add_ms("diskcache.store", self.tracer.spans[id].ms());
                    record.add(
                        "diskcache.bytes_written",
                        dir_bytes(disk.dir()).saturating_sub(before) as f64,
                    );
                }
            }

            let inputs = oracle::inputs(plan, draw)?;
            let session = Arc::clone(&looked.session);
            let (results, reports) = if draw.sweep.is_some() {
                let ((outcomes, reports), id) =
                    self.tracer.time(req, "cohort.run", root, false, || {
                        let mut builder = wasabi::Wasabi::builder();
                        for analysis in &mut analyses {
                            builder = builder.analysis(analysis.as_mut());
                        }
                        let mut pipeline = builder.build_shared(Arc::clone(&session));
                        let outcomes = pipeline.run_cohort(&spec.invoke, &inputs);
                        (outcomes, pipeline.reports())
                    });
                record.add_ms("cohort.run", self.tracer.spans[id].ms());
                record.add("cohort.instances", outcomes.len() as f64);
                let rounds = outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);
                record.add("cohort.rounds", rounds as f64);
                let results = outcomes
                    .into_iter()
                    .map(|o| {
                        o.result
                            .map(|v| oracle::render(&v))
                            .map_err(|t| t.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (results, reports)
            } else {
                // Probe: the same session under a host with every hook
                // masked — pure interpretation.
                let mut none = NoAnalysis;
                let mut host = WasabiHost::new(session.info(), &mut none);
                let (instance, id) =
                    self.tracer.time(req, "interp.instantiate", root, true, || {
                        Instance::instantiate_translated(session.translated(), &mut host)
                    });
                let mut masked_ms = self.tracer.spans[id].ms();
                record.add_ms("interp.instantiate", masked_ms);
                let mut instance = instance.map_err(|e| e.to_string())?;
                let (masked, id) = self.tracer.time(req, "interp.execute", root, true, || {
                    instance.invoke_export(&spec.invoke, &inputs[0], &mut host)
                });
                masked_ms += self.tracer.spans[id].ms();
                record.add_ms("interp.execute", self.tracer.spans[id].ms());
                masked.map_err(|e| e.to_string())?;
                record.add("interp.instrs", instance.executed_instrs() as f64);
                drop(host);

                // Blocking: the job's analyses with fused dispatch, as the
                // daemon's fleet worker runs it.
                let ((result, calls), id) =
                    self.tracer.time(req, "runtime.run", root, false, || {
                        let mut refs: Vec<&mut dyn Analysis> = analyses
                            .iter_mut()
                            .map(|a| a.as_mut() as &mut dyn Analysis)
                            .collect();
                        let mut subscribers = vec![Vec::new(); Hook::ALL.len()];
                        for (i, analysis) in refs.iter().enumerate() {
                            for hook in analysis.hooks().iter() {
                                subscribers[hook as usize].push(i);
                            }
                        }
                        let mut host =
                            WasabiHost::fused(session.info(), refs.as_mut_slice(), &subscribers);
                        let mut instance =
                            match Instance::instantiate_translated(session.translated(), &mut host)
                            {
                                Ok(instance) => instance,
                                Err(e) => return (Err(e.to_string()), (0, 0)),
                            };
                        let result = instance
                            .invoke_export(&spec.invoke, &inputs[0], &mut host)
                            .map_err(|e| e.to_string());
                        (result, instance.host_call_counts())
                    });
                let run_ms = self.tracer.spans[id].ms();
                record.add_ms("runtime.run", run_ms);
                record.add_ms("runtime.dispatch", (run_ms - masked_ms).max(0.0));
                record.add("runtime.hook_calls", (calls.0 + calls.1) as f64);
                let reports = analyses.iter().map(|a| a.report()).collect::<Vec<_>>();
                (vec![oracle::render(&result?)], reports)
            };

            // Probe: render the reports as the result frame will.
            let (rendered, id) = self.tracer.time(req, "report.render", root, true, || {
                reports
                    .iter()
                    .map(|r| json::emit(&r.data).len())
                    .sum::<usize>()
            });
            record.add_ms("report.render", self.tracer.spans[id].ms());
            record.add("report.bytes", rendered as f64);

            let expected = oracle.get(draw).ok_or("job missing from the oracle")?;
            if results != expected.results || oracle::render_reports(&reports) != expected.reports {
                return Err(format!(
                    "replay of {} differs from the reference",
                    plan.modules[draw.module].name
                ));
            }
            let last = results.len() - 1;
            let mut reports = Some(reports);
            for (instance, values) in results.into_iter().enumerate() {
                responses.push(Response::Result(JobResult {
                    job: index,
                    instance: draw.sweep.is_some().then_some(instance as u32),
                    hash: spec.hash.clone(),
                    invoke: spec.invoke.clone(),
                    results: Ok(values),
                    reports: if instance == last {
                        reports.take().unwrap_or_default()
                    } else {
                        Vec::new()
                    },
                    cache_hit: looked.hit,
                }));
            }
        }
        responses.push(Response::Done {
            jobs: request.jobs.len() as u64,
            wall_ms: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        });

        // Response frames: encode, frame, read back, parse.
        let (parsed, id) = self.tracer.time(req, "protocol", root, false, || {
            responses
                .iter()
                .map(|r| {
                    let value = frame_roundtrip(&r.to_json(), &mut record)?;
                    Response::from_json(&value)
                })
                .collect::<Result<Vec<_>, String>>()
        });
        parsed?;
        record.add_ms("protocol", self.tracer.spans[id].ms());

        // Probe: the request's batch through a fleet on the same cache
        // (every key is resident by now), for queueing and stealing.
        if request.jobs.iter().all(|j| j.sweep.is_none()) {
            let mut builder = Fleet::builder()
                .cache(Arc::clone(&self.cache))
                .factory(registry::by_name)
                .workers(self.workers);
            for (draw, spec) in request.jobs.iter().zip(specs) {
                let module = self.store.get(&spec.hash).ok_or("module never uploaded")?;
                let args = oracle::inputs(plan, draw)?.remove(0);
                builder = builder.submit(
                    Job::new(spec.hash.clone(), module, spec.invoke.clone(), args)
                        .analyses(spec.analyses.iter().cloned()),
                );
            }
            let (batch, _) = self
                .tracer
                .time(req, "fleet.run", root, true, || builder.build().run());
            let queue_ms = batch
                .jobs
                .iter()
                .map(|j| j.stats.queue.as_secs_f64() * 1e3)
                .fold(0.0, f64::max);
            record.add_ms("fleet.queue", queue_ms);
            record.add("fleet.jobs", batch.jobs.len() as f64);
            record.add(
                "fleet.stolen",
                batch.jobs.iter().filter(|j| j.stats.stolen).count() as f64,
            );
        }

        // Close the root span and total its blocking children. They have
        // no children of their own, so their self time is their length.
        self.tracer.spans[root].end_ns = self.tracer.ns(Instant::now());
        record.blocking_ms = self.tracer.spans[root + 1..]
            .iter()
            .filter(|s| !s.probe)
            .map(Span::ms)
            .sum();
        Ok(record)
    }

    /// Time since the replay was set up (the caller caps its length).
    pub fn elapsed(&self) -> Duration {
        self.tracer.epoch.elapsed()
    }
}

/// Total bytes of the files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
