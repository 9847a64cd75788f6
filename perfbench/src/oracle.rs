//! The in-process reference every response is compared against.
//!
//! Each distinct job of a plan is run once through the library's own
//! pipeline — [`Pipeline::run`] for a single invocation,
//! [`Pipeline::run_cohort`] for a sweep — and its results and reports are
//! rendered exactly as the daemon renders them on the wire.

use std::collections::BTreeMap;

use wasabi::hooks::{Analysis, HookSet};
use wasabi::json;
use wasabi::report::Report;
use wasabi::{Pipeline, Wasabi};
use wasabi_analyses::registry;
use wasabi_server::protocol::{typed_args, JobResult};
use wasabi_wasm::decode::decode;
use wasabi_wasm::instr::Val;
use wasabi_wasm::module::Module;

use crate::plan::{JobDraw, Plan};

/// What one job must answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Rendered results: one list for a single invocation, one per
    /// instance (in instance order) for a sweep.
    pub results: Vec<Vec<String>>,
    /// `(analysis, emitted report data)`, in the job's analysis order.
    pub reports: Vec<(String, String)>,
}

/// Expected answers for every distinct job of a plan.
pub type Oracle = BTreeMap<JobDraw, Expected>;

/// Fresh analyses for `names`, from the daemon's registry.
///
/// # Errors
///
/// An unknown name.
pub fn analyses(names: &[String]) -> Result<Vec<Box<dyn Analysis>>, String> {
    names
        .iter()
        .map(|n| registry::by_name(n).ok_or_else(|| format!("unknown analysis {n}")))
        .collect()
}

/// The hook set the daemon keys a job's session by.
pub fn hooks_of(analyses: &[Box<dyn Analysis>]) -> HookSet {
    analyses
        .iter()
        .fold(HookSet::empty(), |set, a| set.union(a.hooks()))
}

/// A job's typed invocation inputs: one argument list per instance
/// (exactly one for a single invocation).
///
/// # Errors
///
/// Arguments that do not type against the export.
pub fn inputs(plan: &Plan, job: &JobDraw) -> Result<Vec<Vec<Val>>, String> {
    let spec = plan.job_spec(job);
    let params = &plan.modules[job.module].params;
    match &spec.sweep_args {
        Some(rows) => rows.iter().map(|row| typed_args(row, params)).collect(),
        None => Ok(vec![typed_args(&spec.args, params)?]),
    }
}

/// Render results the way the daemon's `result` frames carry them.
pub fn render(values: &[Val]) -> Vec<String> {
    values.iter().map(|v| format!("{v:?}")).collect()
}

/// Render reports as `(analysis, emitted data)` pairs.
pub fn render_reports(reports: &[Report]) -> Vec<(String, String)> {
    reports
        .iter()
        .map(|r| (r.analysis.clone(), json::emit(&r.data)))
        .collect()
}

/// Decode a plan module from the bytes clients upload.
///
/// # Errors
///
/// Bytes that do not decode.
pub fn module(plan: &Plan, index: usize) -> Result<Module, String> {
    decode(&plan.modules[index].bytes).map_err(|e| format!("{}: {e}", plan.modules[index].name))
}

/// Run every distinct job of `plan` in-process.
///
/// # Errors
///
/// Any job that fails: a plan whose jobs fail is a broken benchmark.
pub fn build(plan: &Plan) -> Result<Oracle, String> {
    let mut modules: BTreeMap<usize, Module> = BTreeMap::new();
    let mut oracle = Oracle::new();
    for job in plan.distinct_jobs() {
        let module = match modules.entry(job.module) {
            std::collections::btree_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::btree_map::Entry::Vacant(entry) => {
                entry.insert(module(plan, job.module)?)
            }
        };
        let invoke = &plan.modules[job.module].invoke;
        let inputs = inputs(plan, &job)?;
        let mut analyses = analyses(&plan.sets[job.set])?;
        let mut builder = Wasabi::builder();
        for analysis in &mut analyses {
            builder = builder.analysis(analysis.as_mut());
        }
        let mut pipeline: Pipeline<'_> = builder.build(module).map_err(|e| e.to_string())?;
        let results = if job.sweep.is_some() {
            pipeline
                .run_cohort(invoke, &inputs)
                .into_iter()
                .map(|outcome| outcome.result.map(|v| render(&v)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|trap| {
                    format!(
                        "{}: sweep member trapped: {trap}",
                        plan.modules[job.module].name
                    )
                })?
        } else {
            vec![render(&pipeline.run(invoke, &inputs[0]).map_err(|e| {
                format!("{}: {e}", plan.modules[job.module].name)
            })?)]
        };
        let reports = render_reports(&pipeline.reports());
        oracle.insert(job, Expected { results, reports });
    }
    Ok(oracle)
}

/// Compare the result frames of one job against its expectation.
///
/// # Errors
///
/// The first difference found.
pub fn check_job(
    plan: &Plan,
    job: &JobDraw,
    expected: &Expected,
    frames: &[&JobResult],
) -> Result<(), String> {
    let module = &plan.modules[job.module];
    let sweep = job.sweep.is_some();
    if frames.len() != expected.results.len() {
        return Err(format!(
            "{}: {} result frame(s), expected {}",
            module.name,
            frames.len(),
            expected.results.len()
        ));
    }
    let mut seen = vec![false; expected.results.len()];
    let mut reported = false;
    for frame in frames {
        if frame.hash != module.hash || frame.invoke != module.invoke {
            return Err(format!(
                "{}: frame names {} {}",
                module.name, frame.hash, frame.invoke
            ));
        }
        let slot = match (sweep, frame.instance) {
            (false, None) => 0,
            (true, Some(i)) if (i as usize) < seen.len() => i as usize,
            (_, instance) => {
                return Err(format!("{}: unexpected instance {instance:?}", module.name))
            }
        };
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("{}: instance {slot} answered twice", module.name));
        }
        match &frame.results {
            Ok(values) if *values == expected.results[slot] => {}
            Ok(values) => {
                return Err(format!(
                    "{}: instance {slot} returned {values:?}, expected {:?}",
                    module.name, expected.results[slot]
                ))
            }
            Err(e) => return Err(format!("{}: job failed: {e}", module.name)),
        }
        // A sweep's reports ride exactly one (the last) frame; an
        // ordinary job's ride its only frame.
        if !frame.reports.is_empty() || !sweep {
            if reported {
                return Err(format!("{}: reports on more than one frame", module.name));
            }
            reported = true;
            if render_reports(&frame.reports) != expected.reports {
                return Err(format!(
                    "{}: reports differ from the reference",
                    module.name
                ));
            }
        }
    }
    if !reported && !expected.reports.is_empty() {
        return Err(format!("{}: no frame carried the reports", module.name));
    }
    Ok(())
}
