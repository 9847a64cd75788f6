//! Set-up and the closed-loop clients.
//!
//! Every client owns one connection and one thread, and sends its next
//! request only after the `done` frame of the previous one (a closed
//! loop, as the CLI, `--batch` callers and `wasabi-client` use the
//! daemon).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wasabi::DiskCache;
use wasabi_server::protocol::{JobResult, StatusReply};
use wasabi_server::{Client, ClientError};

use crate::daemon::Daemon;
use crate::oracle;
use crate::plan::Plan;

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every frame arrived; the results still await the oracle.
    Done,
    /// The daemon answered with an `error` frame.
    Refused(String),
    /// Transport or protocol failure.
    Errored(String),
}

/// One request as one client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Its position in the plan's request sequence.
    pub index: usize,
    /// First frame sent.
    pub start: Instant,
    /// `uploaded` reply received (uploading workloads only).
    pub uploaded: Option<Instant>,
    /// `submit` frame sent.
    pub submitted: Instant,
    /// First `result` frame received.
    pub first_result: Option<Instant>,
    /// `done` frame received, or the failure noticed.
    pub end: Instant,
    /// The `done` frame's batch wall time, as the daemon measured it.
    pub daemon_wall_ms: Option<f64>,
    /// How it ended.
    pub outcome: Outcome,
    /// The result frames, in arrival order.
    pub results: Vec<JobResult>,
    /// Whether this request was sent in a traced cycle of a traced run.
    pub traced: bool,
}

impl Sample {
    /// First frame sent → `done` received, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// `submit` sent → first `result` received, in milliseconds.
    pub fn ttfr_ms(&self) -> Option<f64> {
        self.first_result
            .map(|t| (t - self.submitted).as_secs_f64() * 1e3)
    }
}

fn daemon_error(e: &ClientError) -> Outcome {
    match e {
        ClientError::Daemon { .. } => Outcome::Refused(e.to_string()),
        _ => Outcome::Errored(e.to_string()),
    }
}

/// Send requests, each the next one of the plan's sequence (`next` is
/// shared by all clients), until the sequence reaches `end`, marking
/// each sample `traced`.
pub fn client_loop(
    plan: &Plan,
    next: &AtomicUsize,
    end: usize,
    socket: &Path,
    traced: bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = Client::connect_unix(socket).ok();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= end {
            break;
        }
        let request = plan.request(index);
        let jobs: Vec<_> = request.jobs.iter().map(|j| plan.job_spec(j)).collect();
        let upload = request
            .upload
            .then(|| &plan.modules[request.jobs[0].module]);
        let start = Instant::now();
        let mut sample = Sample {
            index,
            start,
            uploaded: None,
            submitted: start,
            first_result: None,
            end: start,
            daemon_wall_ms: None,
            outcome: Outcome::Done,
            results: Vec::new(),
            traced,
        };
        let Some(c) = conn.as_mut() else {
            sample.outcome = Outcome::Errored("not connected".to_string());
            samples.push(sample);
            conn = Client::connect_unix(socket).ok();
            continue;
        };
        sample.outcome = send(c, upload, jobs, &mut sample);
        sample.end = Instant::now();
        if matches!(sample.outcome, Outcome::Errored(_)) {
            conn = Client::connect_unix(socket).ok();
        }
        samples.push(sample);
    }
    samples
}

fn send(
    client: &mut Client,
    upload: Option<&crate::plan::ModuleSpec>,
    jobs: Vec<wasabi_server::JobSpec>,
    sample: &mut Sample,
) -> Outcome {
    if let Some(module) = upload {
        match client.upload(&module.bytes) {
            Ok((hash, _)) if hash == module.hash => {}
            Ok((hash, _)) => {
                return Outcome::Errored(format!("upload of {} answered {hash}", module.name))
            }
            Err(e) => return daemon_error(&e),
        }
        sample.uploaded = Some(Instant::now());
    }
    sample.submitted = Instant::now();
    let mut stream = match client.submit(jobs) {
        Ok(stream) => stream,
        Err(e) => return daemon_error(&e),
    };
    for frame in stream.by_ref() {
        match frame {
            Ok(result) => {
                if sample.first_result.is_none() {
                    sample.first_result = Some(Instant::now());
                }
                sample.results.push(result);
            }
            Err(e) => return daemon_error(&e),
        }
    }
    match stream.done() {
        Some(done) => {
            sample.daemon_wall_ms = Some(done.wall_ms);
            Outcome::Done
        }
        None => Outcome::Errored("stream ended without done".to_string()),
    }
}

/// A started daemon plus what its set-up cost.
pub struct Ready {
    /// The daemon, primed.
    pub daemon: Daemon,
    /// Spawn → ready, plus uploads and priming.
    pub setup_s: f64,
    /// Its disk-tier directory, when it has one.
    pub disk_dir: Option<PathBuf>,
}

/// Write the plan's pre-populated disk-tier entries into `dir` with
/// `DiskCache::store`. A run does this once; each cycle's set-up copies
/// the files into its daemon's fresh disk directory. Writing them per
/// cycle made `setup_s` follow the `fsync` latency of the machine's
/// storage: its median moved by 37% between two batches of the same
/// runs.
///
/// # Errors
///
/// IO failures or a failing build.
pub fn disk_template(plan: &Plan, dir: &Path) -> Result<(), String> {
    let disk = DiskCache::new(dir).map_err(|e| format!("disk cache: {e}"))?;
    for &(m, s) in &plan.disk_prepop {
        let module = oracle::module(plan, m)?;
        let hooks = oracle::hooks_of(&oracle::analyses(&plan.sets[s])?);
        let session = wasabi::AnalysisSession::direct(&module, hooks).map_err(|e| e.to_string())?;
        disk.store(&plan.modules[m].hash, hooks, &session);
    }
    Ok(())
}

/// Copy every file of `from` into `to`, creating it.
///
/// # Errors
///
/// IO failures.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, to.join(name)).map_err(io)?;
        }
    }
    Ok(())
}

/// Set up one daemon for `plan` in `dir`: copy in the pre-populated disk
/// tier (`disk_template`, for a workload that has one), then spawn, wait
/// until ready, upload and prime. Everything after the copy is timed as
/// `setup_s`; the copy is not, because on a shared machine its cost is
/// storage jitter (15–50 ms for the same 105 files) rather than work the
/// program does.
///
/// # Errors
///
/// Any step failing, including a priming job.
pub fn setup(
    plan: &Plan,
    wasabid: &Path,
    dir: &Path,
    disk_template: Option<&Path>,
) -> Result<Ready, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut flags = vec![
        "--cache-capacity".to_string(),
        plan.cache_capacity.to_string(),
    ];
    let mut disk_dir = None;
    if let Some(template) = disk_template {
        let path = dir.join("disk");
        copy_dir(template, &path)?;
        flags.extend(["--disk-cache".to_string(), path.display().to_string()]);
        disk_dir = Some(path);
    }
    let started = Instant::now();
    let daemon = Daemon::spawn(wasabid, &dir.join("d.sock"), &flags)?;
    let mut client = daemon.connect()?;
    for &m in &plan.setup_uploads {
        client
            .upload(&plan.modules[m].bytes)
            .map_err(|e| format!("set-up upload: {e}"))?;
    }
    if !plan.prime.is_empty() {
        let jobs = plan
            .prime
            .iter()
            .map(|&(module, set)| {
                plan.job_spec(&crate::plan::JobDraw {
                    module,
                    set,
                    sweep: None,
                })
            })
            .collect();
        let mut stream = client.submit(jobs).map_err(|e| format!("prime: {e}"))?;
        for frame in stream.by_ref() {
            let frame = frame.map_err(|e| format!("prime: {e}"))?;
            if let Err(e) = frame.results {
                return Err(format!("prime job failed: {e}"));
            }
        }
        if stream.done().is_none() {
            return Err("prime: no done frame".to_string());
        }
    }
    Ok(Ready {
        daemon,
        setup_s: started.elapsed().as_secs_f64(),
        disk_dir,
    })
}

/// The daemon's status counters.
///
/// # Errors
///
/// Transport or protocol failure.
pub fn status(daemon: &Daemon) -> Result<StatusReply, String> {
    daemon
        .connect()?
        .status()
        .map_err(|e| format!("status: {e}"))
}

/// Number of session files in a disk-tier directory.
pub fn disk_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "wsbc"))
                .count()
        })
        .unwrap_or(0)
}
