//! The seeded generator and the reporting arithmetic.

use std::collections::BTreeMap;

use perfbench::plan::{Plan, Workload, CACHE_CAPACITY, SEQUENCE_LEN, SWEEP_INSTANCES};
use perfbench::stats::{beyond, median, percentile, Outcomes};
use wasabi::json;

/// Every frame the first `n` requests send, as bytes.
fn wire(plan: &Plan, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..n {
        for frame in plan.frames(plan.request(i)) {
            out.extend_from_slice(json::emit(&frame.to_json()).as_bytes());
            out.push(b'\n');
        }
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_request_sequences() {
    for workload in Workload::ALL {
        let a = Plan::new(workload, 7);
        let b = Plan::new(workload, 7);
        assert_eq!(wire(&a, 128), wire(&b, 128), "{}", workload.name());
        assert_eq!(a.sequence, b.sequence, "{}", workload.name());
        assert_eq!(a.prime, b.prime);
        assert_eq!(a.disk_prepop, b.disk_prepop);
        assert_eq!(a.sequence.len(), SEQUENCE_LEN);
    }
}

#[test]
fn another_seed_gives_another_sequence() {
    for workload in Workload::ALL {
        let a = Plan::new(workload, 7);
        let b = Plan::new(workload, 8);
        assert_ne!(wire(&a, 128), wire(&b, 128), "{}", workload.name());
    }
}

#[test]
fn uniform_workloads_send_each_pool_entry_once_per_pass() {
    for workload in [Workload::ExecWarm, Workload::Sweep] {
        let plan = Plan::new(workload, 5);
        let n = plan.pool.len();
        for pass in plan.sequence.chunks_exact(n).take(4) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{}", workload.name());
        }
    }
}

#[test]
fn churn_blocks_follow_the_zipf_popularity() {
    let plan = Plan::new(Workload::BuildChurn, 5);
    let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
    for &i in &plan.sequence {
        *counts.entry(i).or_default() += 1;
    }
    // The most popular key is drawn most often, and the tail still shows.
    let top = counts[&0];
    assert!(counts.values().all(|&c| c <= top));
    assert!(counts.len() > plan.cache_capacity);
}

#[test]
fn churn_blocks_have_the_same_mix_for_every_seed() {
    // (draws per pool entry, cold keys) of each block of a plan.
    let mixes = |seed| {
        let plan = Plan::new(Workload::BuildChurn, seed);
        let cold = plan.pool.len() - plan.disk_prepop.len();
        plan.sequence
            .chunks_exact(plan.cycle)
            .map(|block| {
                let mut counts = vec![0; plan.pool.len()];
                for &i in block {
                    counts[i] += 1;
                }
                (counts, cold)
            })
            .collect::<Vec<_>>()
    };
    let first = mixes(1);
    assert!(first.iter().all(|mix| *mix == first[0]));
    for seed in 2..6 {
        assert!(
            mixes(seed).iter().all(|mix| *mix == first[0]),
            "seed {seed}"
        );
    }
}

#[test]
fn workloads_have_the_working_sets_they_describe() {
    let warm = Plan::new(Workload::ExecWarm, 1);
    assert!(warm.distinct_keys() <= warm.cache_capacity);
    assert_eq!(warm.prime.len(), 48, "every (kernel, set) key is primed");
    assert!(warm
        .pool
        .iter()
        .all(|r| !r.upload && (1..=4).contains(&r.jobs.len())));

    let churn = Plan::new(Workload::BuildChurn, 1);
    assert_eq!(churn.cache_capacity, CACHE_CAPACITY);
    assert!(churn.distinct_keys() > churn.cache_capacity);
    assert!(churn.pool.iter().all(|r| r.upload && r.jobs.len() == 1));
    let keys: Vec<_> = churn
        .pool
        .iter()
        .map(|r| (r.jobs[0].module, r.jobs[0].set))
        .collect();
    assert!(!churn.disk_prepop.is_empty() && churn.disk_prepop.len() < keys.len());
    assert!(churn.disk_prepop.iter().all(|k| keys.contains(k)));

    let sweep = Plan::new(Workload::Sweep, 1);
    let (lo, hi) = SWEEP_INSTANCES;
    for request in &sweep.pool {
        let n = request.jobs[0].sweep.as_ref().expect("sweep job").len() as u64;
        assert!((lo..=hi).contains(&n));
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&values), Some(5.5));
    assert!((percentile(&values, 0.9).unwrap() - 9.1).abs() < 1e-12);
    assert_eq!(percentile(&values, 0.0), Some(1.0));
    assert_eq!(percentile(&values, 1.0), Some(10.0));
    assert_eq!(percentile(&[4.0], 0.9), Some(4.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Order of the input does not matter.
    let shuffled = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0];
    assert_eq!(median(&shuffled), Some(5.5));
    // p90 of 1..=100 leaves exactly ten samples above it.
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(beyond(&hundred, 0.9), 10);
}

#[test]
fn fail_ratio_counts_refused_errored_and_wrong() {
    let outcomes = Outcomes {
        attempted: 10,
        refused: 1,
        errored: 1,
        wrong: 1,
    };
    assert_eq!(outcomes.failed(), 3);
    assert_eq!(outcomes.succeeded(), 7);
    assert!((outcomes.fail_ratio() - 0.3).abs() < 1e-12);
    assert_eq!(Outcomes::default().fail_ratio(), 0.0);
}
