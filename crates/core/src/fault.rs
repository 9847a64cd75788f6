//! Deterministic fault injection (failpoints).
//!
//! Production code threads named **sites** through its failure-prone
//! paths — disk-cache I/O, cache build slots, fleet workers, the server
//! frame layer — by calling [`Faults::fire`] on the [`Faults`] handle its
//! owner carries ([`DiskCache`](crate::DiskCache),
//! [`ModuleCache`](crate::ModuleCache), [`Fleet`](crate::Fleet) and
//! [`Pipeline`](crate::Pipeline) each hold one). A disarmed handle (the
//! default) makes every call a single branch, so sites can sit on warm
//! paths without a measurable cost.
//!
//! Handles are scoped, not global: a test arms its own with
//! [`Faults::parse`] and hands it to the objects under test, so tests
//! running in parallel never see each other's failpoints. The default
//! handle, [`Faults::process`], is built once per process from the
//! `WASABI_FAULTS` environment variable; the CLI and `wasabid` run on it.
//! The spec grammar is
//!
//! ```text
//! WASABI_FAULTS="site=action[:prob][:limit];site2=..."
//! WASABI_FAULT_SEED=42          # optional, default 0
//! ```
//!
//! where `action` is `error`, `panic`, or `delay<ms>` (e.g. `delay25`),
//! `prob` is a probability in `(0, 1]` (default 1.0 — always fire), and
//! `limit` caps how many times the site triggers (default unlimited).
//! Example: `disk/store=error;fleet/job=panic:0.5:3`.
//!
//! Randomized sites draw from a per-site SplitMix64 stream seeded from
//! the seed and the site name, so a chaos run is reproducible from its
//! seed alone — same seed, same faults, same order (per site).
//!
//! ## Site catalog
//!
//! | site          | where it fires                          | `error` means                     |
//! |---------------|------------------------------------------|-----------------------------------|
//! | `disk/load`   | `DiskCache::load`, before reading        | entry treated as a miss           |
//! | `disk/store`  | `DiskCache::store`, before writing       | write error (counted, not fatal)  |
//! | `cache/build` | `ModuleCache` build slot, before a build | build retried/reported upstream   |
//! | `fleet/job`   | fleet worker, before running a job       | `JobError::Transient` (retryable) |
//! | `cohort/step` | cohort round loop, before a member step  | that one member retired with a    |
//! |               | (`Pipeline::run_cohort`)                 | trap; siblings undisturbed        |
//! | `server/frame`| daemon result-frame writer               | frame corrupted / write fails     |
//!
//! `panic` at any site must be *contained*: workers catch it, the daemon
//! survives, the client sees a structured error. The chaos suite
//! (`crates/core/tests/chaos.rs` and the ci.sh chaos smoke) asserts
//! exactly that.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats;

#[derive(Debug, Clone, PartialEq)]
enum Action {
    /// Return an injected error message from [`Faults::fire`].
    Error,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
    /// Panic at the site (must be contained by the surrounding layer).
    Panic,
}

#[derive(Debug)]
struct Site {
    action: Action,
    prob: f64,
    limit: Option<u64>,
    hits: u64,
    rng: SmallRng,
}

/// A fault spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn parse_spec(spec: &str, seed: u64) -> Result<HashMap<String, Site>, SpecError> {
    let mut sites = HashMap::new();
    for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
        let (site, rest) = clause
            .split_once('=')
            .ok_or_else(|| SpecError(format!("missing '=' in {clause:?}")))?;
        let site = site.trim();
        let mut parts = rest.trim().split(':');
        let action = parts.next().unwrap_or("");
        let action = if action == "error" {
            Action::Error
        } else if action == "panic" {
            Action::Panic
        } else if let Some(ms) = action.strip_prefix("delay") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| SpecError(format!("bad delay in {clause:?}")))?;
            Action::Delay(Duration::from_millis(ms))
        } else {
            return Err(SpecError(format!("unknown action in {clause:?}")));
        };
        let prob = match parts.next() {
            None | Some("") => 1.0,
            Some(p) => {
                let p: f64 = p
                    .parse()
                    .map_err(|_| SpecError(format!("bad probability in {clause:?}")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(SpecError(format!("probability out of range in {clause:?}")));
                }
                p
            }
        };
        let limit = match parts.next() {
            None | Some("") => None,
            Some(l) => Some(
                l.parse::<u64>()
                    .map_err(|_| SpecError(format!("bad limit in {clause:?}")))?,
            ),
        };
        if parts.next().is_some() {
            return Err(SpecError(format!("trailing fields in {clause:?}")));
        }
        // Per-site stream: mix the site name into the seed so two sites
        // configured with the same probability don't fire in lockstep.
        let mut site_seed = seed;
        for b in site.bytes() {
            site_seed = site_seed
                .wrapping_mul(0x100000001b3)
                .wrapping_add(u64::from(b));
        }
        sites.insert(
            site.to_string(),
            Site {
                action,
                prob,
                limit,
                hits: 0,
                rng: SmallRng::seed_from_u64(site_seed),
            },
        );
    }
    Ok(sites)
}

/// A scoped set of armed failpoints, or none. Cloning shares the set,
/// hit counters and random streams included.
///
/// The [`Default`] is [`Faults::process`].
#[derive(Clone)]
pub struct Faults {
    sites: Option<Arc<Mutex<HashMap<String, Site>>>>,
}

impl Faults {
    /// A handle with no failpoints: [`Faults::fire`] never fires.
    pub fn none() -> Self {
        Faults { sites: None }
    }

    /// Arm the failpoints of `spec` (grammar in the [module docs](self)),
    /// drawing randomized sites from streams seeded by `seed`. An empty
    /// spec gives a disarmed handle.
    ///
    /// # Errors
    ///
    /// Fails if `spec` does not parse.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, SpecError> {
        let sites = parse_spec(spec, seed)?;
        Ok(Faults {
            sites: (!sites.is_empty()).then(|| Arc::new(Mutex::new(sites))),
        })
    }

    /// The process-wide handle, armed once from `WASABI_FAULTS` and
    /// `WASABI_FAULT_SEED` on first use (a malformed spec is reported on
    /// stderr and ignored). Disarmed when the variable is unset.
    pub fn process() -> Self {
        static PROCESS: OnceLock<Faults> = OnceLock::new();
        PROCESS
            .get_or_init(|| {
                let spec = std::env::var("WASABI_FAULTS").unwrap_or_default();
                let seed = std::env::var("WASABI_FAULT_SEED")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                Faults::parse(&spec, seed).unwrap_or_else(|e| {
                    eprintln!("wasabi: ignoring WASABI_FAULTS: {e}");
                    Faults::none()
                })
            })
            .clone()
    }

    /// Whether any failpoint is armed.
    pub fn is_armed(&self) -> bool {
        self.sites.is_some()
    }

    /// How many times `site` has triggered on this handle (and its
    /// clones).
    pub fn hits(&self, site: &str) -> u64 {
        self.sites.as_ref().map_or(0, |sites| {
            let sites = sites.lock().expect("fault registry poisoned");
            sites.get(site).map_or(0, |s| s.hits)
        })
    }

    /// Evaluate the failpoint `site`.
    ///
    /// Returns `Some(message)` when an `error` fault fires (the caller
    /// turns it into its layer's structured error), `None` otherwise. A
    /// `delay` fault sleeps here and then continues; a `panic` fault
    /// panics here (the surrounding layer's containment — `catch_unwind`,
    /// connection handler — is exactly what's under test).
    ///
    /// On a disarmed handle this is one branch.
    #[inline]
    pub fn fire(&self, site: &str) -> Option<String> {
        self.sites.as_ref().and_then(|sites| fire_slow(sites, site))
    }
}

impl Default for Faults {
    fn default() -> Self {
        Faults::process()
    }
}

impl std::fmt::Debug for Faults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Faults")
            .field("armed", &self.is_armed())
            .finish()
    }
}

#[cold]
#[inline(never)]
fn fire_slow(sites: &Mutex<HashMap<String, Site>>, site: &str) -> Option<String> {
    let action = {
        let mut sites = sites.lock().expect("fault registry poisoned");
        let entry = sites.get_mut(site)?;
        if entry.limit.is_some_and(|l| entry.hits >= l) {
            return None;
        }
        if entry.prob < 1.0 && !entry.rng.gen_bool(entry.prob) {
            return None;
        }
        entry.hits += 1;
        entry.action.clone()
    };
    // Lock released before acting: a delay must not serialize unrelated
    // sites, and a panic must not poison the registry.
    stats::record_fault_injected();
    match action {
        Action::Error => Some(format!("injected fault at {site}")),
        Action::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        Action::Panic => panic!("injected fault at {site}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_fire_is_a_no_op() {
        let faults = Faults::none();
        assert!(!faults.is_armed());
        assert_eq!(faults.fire("disk/store"), None);
        assert!(!Faults::parse("", 0).unwrap().is_armed());
    }

    #[test]
    fn error_fault_fires_and_counts() {
        let faults = Faults::parse("disk/store=error", 7).unwrap();
        let before = stats::faults_injected();
        let msg = faults.fire("disk/store").expect("fires");
        assert!(msg.contains("disk/store"), "{msg}");
        assert_eq!(faults.hits("disk/store"), 1);
        assert!(stats::faults_injected() > before);
        // Unconfigured sites stay quiet.
        assert_eq!(faults.fire("disk/load"), None);
    }

    #[test]
    fn clones_share_sites_and_separate_handles_do_not() {
        let faults = Faults::parse("fleet/job=error", 7).unwrap();
        let clone = faults.clone();
        assert!(clone.fire("fleet/job").is_some());
        assert_eq!(faults.hits("fleet/job"), 1, "a clone is the same set");
        let other = Faults::parse("fleet/job=error", 7).unwrap();
        assert_eq!(other.hits("fleet/job"), 0, "a second handle is independent");
        assert_eq!(Faults::none().fire("fleet/job"), None);
    }

    #[test]
    fn limit_bounds_the_number_of_injections() {
        let faults = Faults::parse("fleet/job=error:1:2", 7).unwrap();
        assert!(faults.fire("fleet/job").is_some());
        assert!(faults.fire("fleet/job").is_some());
        assert_eq!(faults.fire("fleet/job"), None);
        assert_eq!(faults.hits("fleet/job"), 2);
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let run = |seed| {
            let faults = Faults::parse("x=error:0.5", seed).unwrap();
            (0..32)
                .map(|_| faults.fire("x").is_some())
                .collect::<Vec<bool>>()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same faults");
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f));
    }

    #[test]
    fn delay_fault_sleeps_then_continues() {
        let faults = Faults::parse("slow=delay20", 0).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(faults.fire("slow"), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn panic_fault_panics_with_the_site_name() {
        let faults = Faults::parse("boom=panic", 0).unwrap();
        let result = std::panic::catch_unwind(|| faults.fire("boom"));
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(Faults::parse("no-equals", 0).is_err());
        assert!(Faults::parse("x=frobnicate", 0).is_err());
        assert!(Faults::parse("x=error:2.0", 0).is_err());
        assert!(Faults::parse("x=delayhuh", 0).is_err());
        assert!(Faults::parse("x=error:0.5:3:extra", 0).is_err());
    }
}
