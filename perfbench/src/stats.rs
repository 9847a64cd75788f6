//! The arithmetic behind every reported number.

/// The `p`-quantile (`0.0..=1.0`) of `values`, by linear interpolation
/// between the two closest ranks (NumPy's default). `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Samples strictly above the `p`-quantile: the percentile is only
/// reported as meaningful when at least ten lie beyond it.
pub fn beyond(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(q) => values.iter().filter(|&&v| v > q).count(),
        None => 0,
    }
}

/// Request outcome counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests sent (each counted once, whatever became of it).
    pub attempted: u64,
    /// Refused by the daemon (`error` frame in reply).
    pub refused: u64,
    /// Transport or protocol failures.
    pub errored: u64,
    /// Completed, but a response differed from the in-process reference.
    pub wrong: u64,
}

impl Outcomes {
    /// Requests that failed in any way.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.wrong
    }

    /// Requests that completed with every response correct.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// (refused + errored + wrong) ÷ attempted; 0 when nothing was sent.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}
