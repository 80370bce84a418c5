//! Migration-effectiveness and prediction-accuracy accounting (paper
//! §VIII-D, Fig. 12; §IX-C, Fig. 13).
//!
//! The paper classifies each migrated request by comparing its fate with
//! and without migration. We reproduce that by replaying the *identical*
//! trace through a migration-disabled twin (the counterfactual baseline)
//! and diffing per-request latencies:
//!
//! - **Eff.** — violated in the baseline, saved by migration.
//! - **InEff. w/o harm** — violated in neither (moved needlessly, but to a
//!   shorter queue).
//! - **InEff. w/o benefit** — violated in both (moved too late/too little).
//! - **False** — harmful mis-prediction: satisfied SLO in the baseline,
//!   violates after migration.

use schedulers::common::SystemResult;
use simcore::time::SimDuration;
use std::collections::HashSet;

/// A fixed-capacity bitset over trace indices.
///
/// The runtime tags every request it predicts will violate its SLO. On the
/// hot path that tag used to be a `HashSet<usize>` insert — an allocating,
/// hashing operation per staged descriptor. Trace indices are dense in
/// `0..trace_len`, so a word-packed bitset sized once up front gives O(1)
/// insert/contains with zero steady-state allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictedSet {
    words: Vec<u64>,
    len: usize,
}

impl PredictedSet {
    /// Creates a set able to hold indices `0..capacity` without allocating
    /// again.
    pub fn with_capacity(capacity: usize) -> Self {
        PredictedSet {
            words: vec![0u64; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts `idx`, growing if it exceeds the initial capacity (growth only
    /// happens off the pinned-budget path). Returns `true` if newly inserted.
    pub fn insert(&mut self, idx: usize) -> bool {
        let (word, bit) = (idx / 64, idx % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        if fresh {
            self.words[word] |= mask;
            self.len += 1;
        }
        fresh
    }

    /// Whether `idx` has been inserted.
    pub fn contains(&self, idx: usize) -> bool {
        let (word, bit) = (idx / 64, idx % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of distinct indices inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no index has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl FromIterator<usize> for PredictedSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = PredictedSet::default();
        for idx in iter {
            s.insert(idx);
        }
        s
    }
}

/// Per-category counts of migrated requests (Fig. 12(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectivenessBreakdown {
    /// Migrations that saved an SLO violation.
    pub effective: u64,
    /// Migrations of requests that were never in danger.
    pub ineffective_no_harm: u64,
    /// Migrations that failed to save a doomed request.
    pub ineffective_no_benefit: u64,
    /// Harmful mis-predictions that *created* a violation.
    pub false_harmful: u64,
}

impl EffectivenessBreakdown {
    /// Total migrated requests accounted.
    pub fn total(&self) -> u64 {
        self.effective + self.ineffective_no_harm + self.ineffective_no_benefit + self.false_harmful
    }

    /// Fraction of migrations that were effective (the paper reports 42%
    /// at the best operating point).
    pub fn effective_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.effective as f64 / t as f64
        }
    }
}

/// Classifies every migrated request by diffing the Altocumulus run against
/// its migration-disabled counterfactual on the same trace.
///
/// `migrated` holds the trace indices of requests that actually moved.
///
/// # Panics
///
/// Panics if the two results cover different trace lengths.
pub fn classify_effectiveness(
    baseline: &SystemResult,
    with_migration: &SystemResult,
    migrated: &HashSet<usize>,
    trace_len: usize,
    slo: SimDuration,
) -> EffectivenessBreakdown {
    let base = baseline.latencies_by_request(trace_len);
    let with = with_migration.latencies_by_request(trace_len);
    let mut out = EffectivenessBreakdown::default();
    for &idx in migrated {
        let (Some(b), Some(w)) = (
            base.get(idx).copied().flatten(),
            with.get(idx).copied().flatten(),
        ) else {
            continue;
        };
        let b_viol = b > slo;
        let w_viol = w > slo;
        match (b_viol, w_viol) {
            (true, false) => out.effective += 1,
            (false, false) => out.ineffective_no_harm += 1,
            (true, true) => out.ineffective_no_benefit += 1,
            (false, true) => out.false_harmful += 1,
        }
    }
    out
}

/// Prediction accuracy (paper §IV): the ratio of correctly predicted SLO
/// violations to the total number of actual violations. Ground truth is the
/// counterfactual baseline run; a prediction is "correct" when the predicted
/// request would indeed have violated without intervention.
pub fn prediction_accuracy(
    baseline: &SystemResult,
    predicted: &PredictedSet,
    trace_len: usize,
    slo: SimDuration,
) -> f64 {
    let base = baseline.latencies_by_request(trace_len);
    let mut actual = 0u64;
    let mut caught = 0u64;
    for (idx, l) in base.iter().enumerate() {
        let Some(l) = l else { continue };
        if *l > slo {
            actual += 1;
            if predicted.contains(idx) {
                caught += 1;
            }
        }
    }
    if actual == 0 {
        1.0
    } else {
        caught as f64 / actual as f64
    }
}

/// Requests whose SLO fate *changed* between two runs — handy for debugging
/// scheduler changes and for the Fig. 12(c) false-migration count.
pub fn fate_changes(
    baseline: &SystemResult,
    other: &SystemResult,
    trace_len: usize,
    slo: SimDuration,
) -> (u64, u64) {
    let base = baseline.latencies_by_request(trace_len);
    let with = other.latencies_by_request(trace_len);
    let mut saved = 0;
    let mut harmed = 0;
    for idx in 0..trace_len {
        let (Some(b), Some(w)) = (
            base.get(idx).copied().flatten(),
            with.get(idx).copied().flatten(),
        ) else {
            continue;
        };
        match (b > slo, w > slo) {
            (true, false) => saved += 1,
            (false, true) => harmed += 1,
            _ => {}
        }
    }
    (saved, harmed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;
    use workload::request::{Completion, RequestId};

    fn result_with(latencies_ns: &[u64]) -> SystemResult {
        let mut r = SystemResult::with_capacity(latencies_ns.len());
        for (i, &l) in latencies_ns.iter().enumerate() {
            r.record(Completion {
                id: RequestId(i as u64),
                arrival: SimTime::ZERO,
                finish: SimTime::from_ns(l),
                core: 0,
                migrated: false,
            });
        }
        r
    }

    #[test]
    fn four_way_classification() {
        let slo = SimDuration::from_ns(100);
        // idx: 0 eff (150->50), 1 no-harm (50->40), 2 no-benefit (150->140),
        // 3 false (50->150), 4 not migrated (ignored).
        let base = result_with(&[150, 50, 150, 50, 999]);
        let with = result_with(&[50, 40, 140, 150, 999]);
        let migrated: HashSet<usize> = [0, 1, 2, 3].into_iter().collect();
        let b = classify_effectiveness(&base, &with, &migrated, 5, slo);
        assert_eq!(b.effective, 1);
        assert_eq!(b.ineffective_no_harm, 1);
        assert_eq!(b.ineffective_no_benefit, 1);
        assert_eq!(b.false_harmful, 1);
        assert_eq!(b.total(), 4);
        assert!((b.effective_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn accuracy_is_recall_of_violations() {
        let slo = SimDuration::from_ns(100);
        // Violations in baseline: idx 0, 2, 4. Predicted: 0, 2, 3.
        let base = result_with(&[150, 50, 150, 50, 150]);
        let predicted: PredictedSet = [0, 2, 3].into_iter().collect();
        let acc = prediction_accuracy(&base, &predicted, 5, slo);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_without_violations_is_one() {
        let base = result_with(&[10, 20, 30]);
        let acc = prediction_accuracy(&base, &PredictedSet::default(), 3, SimDuration::from_us(1));
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn fate_changes_counts_both_directions() {
        let slo = SimDuration::from_ns(100);
        let base = result_with(&[150, 150, 50, 50]);
        let with = result_with(&[50, 150, 150, 50]);
        let (saved, harmed) = fate_changes(&base, &with, 4, slo);
        assert_eq!(saved, 1);
        assert_eq!(harmed, 1);
    }

    #[test]
    fn predicted_set_semantics() {
        let mut s = PredictedSet::with_capacity(100);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(63), "duplicate insert must report false");
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(!s.contains(1) && !s.contains(1000));
        // Growth past the initial capacity still works (off the hot path).
        assert!(s.insert(1000));
        assert!(s.contains(1000));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_breakdown() {
        let b = EffectivenessBreakdown::default();
        assert_eq!(b.total(), 0);
        assert_eq!(b.effective_ratio(), 0.0);
    }
}
