//! Queue-length pattern classification (paper §VI, Fig. 9).
//!
//! Every period, each manager classifies the synchronized queue-length
//! vector `q` into one of three imbalance patterns, which determine the
//! MIGRATE fan-out:
//!
//! - **Hill**: the longest queue exceeds the second longest by ≥ `Bulk` —
//!   the longest queue sprays batches to several shorter queues.
//! - **Valley**: the shortest queue is below the second shortest by ≥
//!   `Bulk` — every other manager sends one batch to the valley.
//! - **Pairing**: a gradual slope — the i-th longest queue sends to the
//!   i-th shortest.
//!
//! Because `q` is synchronized by UPDATE broadcasts, every manager computes
//! the same classification and only acts in its own role.

/// The detected imbalance pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// One queue towers above the rest.
    Hill,
    /// One queue is starved below the rest.
    Valley,
    /// A gradual imbalance across queues.
    Pairing,
}

impl Pattern {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Hill => "hill",
            Pattern::Valley => "valley",
            Pattern::Pairing => "pairing",
        }
    }
}

/// Classifies `q` (one entry per manager) against batch size `bulk`.
///
/// Returns `None` when queues are too balanced for any migration to be
/// worthwhile (max spread < `bulk`).
///
/// # Examples
///
/// ```
/// use altocumulus::runtime::patterns::{classify, Pattern};
///
/// assert_eq!(classify(&[30, 30, 70, 30], 40), Some(Pattern::Hill));
/// assert_eq!(classify(&[50, 50, 10, 50], 40), Some(Pattern::Valley));
/// assert_eq!(classify(&[80, 65, 50, 35], 20), Some(Pattern::Pairing));
/// assert_eq!(classify(&[30, 31, 32, 33], 40), None);
/// ```
pub fn classify(q: &[u32], bulk: usize) -> Option<Pattern> {
    classify_with(q, bulk, &mut Vec::new())
}

/// [`classify`] with a caller-owned scratch buffer for the sorted queue
/// snapshot, so per-tick callers don't allocate.
fn classify_with(q: &[u32], bulk: usize, sorted: &mut Vec<u32>) -> Option<Pattern> {
    if q.len() < 2 {
        return None;
    }
    let bulk = bulk as u32;
    sorted.clear();
    sorted.extend_from_slice(q);
    sorted.sort_unstable();
    let n = sorted.len();
    let (min, min2) = (sorted[0], sorted[1]);
    let (max2, max) = (sorted[n - 2], sorted[n - 1]);
    if max - min < bulk {
        return None; // balanced enough
    }
    if max - max2 >= bulk {
        Some(Pattern::Hill)
    } else if min2 - min >= bulk {
        Some(Pattern::Valley)
    } else {
        Some(Pattern::Pairing)
    }
}

/// One migration order produced by the planner: send `count` descriptors
/// from the local queue to manager `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOrder {
    /// Destination manager index.
    pub dst: usize,
    /// Number of descriptors to move.
    pub count: usize,
}

/// Reusable planner scratch space: the bounded rank buffers (the
/// `concurrency+1` smallest and `concurrency` largest `(len, index)` keys —
/// all any trigger ever reads) plus the sorted snapshot used by the
/// debug-mode [`classify`] cross-check. One instance per manager lets every
/// tick plan with zero allocations once the buffers reach steady capacity.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// k-smallest `(len, index)` keys, ascending.
    small: Vec<(u32, u32)>,
    /// k-largest `(len, index)` keys, descending.
    large: Vec<(u32, u32)>,
    sorted: Vec<u32>,
}

/// Plans this period's MIGRATE messages for manager `me` (paper Algorithm 1
/// lines 4–13).
///
/// Triggers on either condition: the local queue exceeds the threshold `T`,
/// or the global pattern assigns `me` a sender role. The per-message size is
/// `S = bulk / concurrency`; at most `concurrency` destinations are used.
/// The caller still applies the per-message guard
/// (`q[me] − S < q[dst] + S` forbids) before actually sending.
pub fn plan_migrations(
    me: usize,
    q: &[u32],
    threshold: usize,
    bulk: usize,
    concurrency: usize,
) -> Vec<MigrationOrder> {
    let mut orders = Vec::new();
    plan_migrations_into(
        me,
        q,
        threshold,
        bulk,
        concurrency,
        &mut PlanScratch::default(),
        &mut orders,
    );
    orders
}

/// Allocation-free form of [`plan_migrations`]: clears `orders` and fills it
/// with this period's plan, reusing `scratch` across calls.
#[allow(clippy::too_many_arguments)]
pub fn plan_migrations_into(
    me: usize,
    q: &[u32],
    threshold: usize,
    bulk: usize,
    concurrency: usize,
    scratch: &mut PlanScratch,
    orders: &mut Vec<MigrationOrder>,
) {
    plan_with_patterns(me, q, threshold, bulk, concurrency, true, scratch, orders)
}

/// Ablation variant of [`plan_migrations_into`]: only the threshold
/// trigger, no Hill/Valley/Pairing roles.
#[allow(clippy::too_many_arguments)]
pub fn plan_threshold_only_into(
    me: usize,
    q: &[u32],
    threshold: usize,
    bulk: usize,
    concurrency: usize,
    scratch: &mut PlanScratch,
    orders: &mut Vec<MigrationOrder>,
) {
    plan_with_patterns(me, q, threshold, bulk, concurrency, false, scratch, orders)
}

#[allow(clippy::too_many_arguments)]
fn plan_with_patterns(
    me: usize,
    q: &[u32],
    threshold: usize,
    bulk: usize,
    concurrency: usize,
    use_patterns: bool,
    scratch: &mut PlanScratch,
    orders: &mut Vec<MigrationOrder>,
) {
    assert!(me < q.len(), "manager index out of range");
    assert!(bulk > 0 && concurrency > 0);
    orders.clear();
    if q.len() < 2 {
        return;
    }
    let my_len = q[me] as usize;
    let n = q.len();

    if my_len > threshold {
        // Overloaded: the threshold spray reads the k-smallest ranking no
        // matter how the mesh classifies, so build it in one pass that also
        // tracks the two largest keys — all the classification and the
        // Hill role need. On a congested mesh this is the common case, and
        // it costs exactly one sweep.
        let k_small = (concurrency + 1).max(2).min(n);
        let small = &mut scratch.small;
        small.clear();
        let k0 = (q[0], 0u32);
        let k1 = (q[1], 1u32);
        let (lo, hi) = if k0 < k1 { (k0, k1) } else { (k1, k0) };
        small.push(lo);
        small.push(hi);
        let (mut max1, mut max2) = (hi, lo);
        for (i, &len) in q.iter().enumerate().skip(2) {
            let key = (len, i as u32);
            keep_smallest(small, k_small, key);
            if key > max2 {
                if key > max1 {
                    max2 = max1;
                    max1 = key;
                } else {
                    max2 = key;
                }
            }
        }
        let minima = [small[0], small[1]];
        let pattern = classification_of(use_patterns, bulk, &minima, &[max1, max2]);
        let large = &mut scratch.large;
        large.clear();
        if matches!(pattern, Some(Pattern::Pairing)) {
            rank_large_into(q, concurrency.max(2).min(n), large);
        }
        plan_from_extremes(
            me,
            my_len,
            n,
            threshold,
            bulk,
            concurrency,
            pattern,
            max1.1 as usize,
            small,
            large,
            orders,
        );
        debug_assert_eq!(
            pattern,
            if use_patterns {
                classify_with(q, bulk, &mut scratch.sorted)
            } else {
                None
            },
            "single-pass classification diverged from the sorted oracle"
        );
        return;
    }

    // Below threshold: one branch-cheap pass for the four extreme keys.
    // They are enough to classify the pattern and to decide whether any
    // trigger can involve `me` at all — which on a balanced mesh is the
    // common "no" (the planner runs every period for every manager; most
    // periods plan nothing). The deeper insertion-buffer ranking below then
    // runs only on the periods that actually migrate.
    let mut min1 = (q[0], 0u32);
    let mut min2 = (q[1], 1u32);
    if min2 < min1 {
        core::mem::swap(&mut min1, &mut min2);
    }
    let (mut max1, mut max2) = (min2, min1);
    for (i, &len) in q.iter().enumerate().skip(2) {
        let key = (len, i as u32);
        // Independent branches: with n == 3 the middle key is both the
        // second-smallest and the second-largest.
        if key < min2 {
            if key < min1 {
                min2 = min1;
                min1 = key;
            } else {
                min2 = key;
            }
        }
        if key > max2 {
            if key > max1 {
                max2 = max1;
                max1 = key;
            } else {
                max2 = key;
            }
        }
    }
    let pattern = classification_of(use_patterns, bulk, &[min1, min2], &[max1, max2]);
    // Hill fan-out (only the longest sends) reads k-smallest; Pairing
    // senders are the top `concurrency.min(n/2)` ranks, and whether `me` is
    // among them is unknown without ranking that deep.
    let need_rank = (matches!(pattern, Some(Pattern::Hill)) && me == max1.1 as usize)
        || matches!(pattern, Some(Pattern::Pairing));
    if !need_rank {
        // The only order a non-ranking period can produce is the Valley
        // fan-in: everyone but the shortest sends it one batch.
        if matches!(pattern, Some(Pattern::Valley)) && me != min1.1 as usize {
            orders.push(MigrationOrder {
                dst: min1.1 as usize,
                count: (bulk / concurrency).max(1),
            });
        }
        debug_assert_eq!(
            pattern,
            if use_patterns {
                classify_with(q, bulk, &mut scratch.sorted)
            } else {
                None
            },
            "four-extreme classification diverged from the sorted oracle"
        );
        return;
    }

    // Rare ranking case below threshold: a Hill whose summit is `me`, or a
    // Pairing mesh. Rank only the ends the triggers read: the k-smallest
    // always (Hill fan-out targets, Pairing receivers), the k-largest for
    // Pairing sender ranks. `(len, index)` is a total order, so the k-end
    // contents and order are exactly those of the full sort a naive planner
    // would take.
    let k_small = (concurrency + 1).max(2).min(n);
    let small = &mut scratch.small;
    small.clear();
    for (i, &len) in q.iter().enumerate() {
        keep_smallest(small, k_small, (len, i as u32));
    }
    let large = &mut scratch.large;
    large.clear();
    if matches!(pattern, Some(Pattern::Pairing)) {
        rank_large_into(q, concurrency.max(2).min(n), large);
    }
    plan_from_extremes(
        me,
        my_len,
        n,
        threshold,
        bulk,
        concurrency,
        pattern,
        max1.1 as usize,
        small,
        large,
        orders,
    );
    debug_assert_eq!(
        pattern,
        if use_patterns {
            classify_with(q, bulk, &mut scratch.sorted)
        } else {
            None
        },
        "four-extreme classification diverged from the sorted oracle"
    );
}

/// One capped insertion pass ranking the `k` largest `(len, index)` keys of
/// `q` into `large`, descending — the exact top-k contents and order of a
/// full sort. Only Pairing reads deep top ranks, so this runs on Pairing
/// periods alone.
fn rank_large_into(q: &[u32], k: usize, large: &mut Vec<(u32, u32)>) {
    for (i, &len) in q.iter().enumerate() {
        keep_largest(large, k, (len, i as u32));
    }
}

/// A `(len, index)` key packed into one `u64` whose integer order is the
/// key's lexicographic order.
#[inline]
fn packed((len, idx): (u32, u32)) -> u64 {
    ((len as u64) << 32) | idx as u64
}

/// Position of `key` in the ascending buffer `buf`: the number of entries
/// below it. Buffers hold at most `concurrency + 2` keys, so a branch-free
/// count over all of them beats a binary search whose every probe is a
/// data-dependent branch.
#[inline]
fn rank_ascending(buf: &[(u32, u32)], key: (u32, u32)) -> usize {
    let key = packed(key);
    buf.iter().map(|&e| (packed(e) < key) as usize).sum()
}

/// Position of `key` in the descending buffer `buf` (see
/// [`rank_ascending`]).
#[inline]
fn rank_descending(buf: &[(u32, u32)], key: (u32, u32)) -> usize {
    let key = packed(key);
    buf.iter().map(|&e| (packed(e) > key) as usize).sum()
}

/// Offers `key` to `buf`, the ascending `k` smallest keys seen so far.
#[inline]
fn keep_smallest(buf: &mut Vec<(u32, u32)>, k: usize, key: (u32, u32)) {
    if buf.len() < k || packed(key) < packed(*buf.last().expect("non-empty")) {
        let pos = rank_ascending(buf, key);
        if buf.len() == k {
            buf.pop();
        }
        buf.insert(pos, key);
    }
}

/// Offers `key` to `buf`, the descending `k` largest keys seen so far.
#[inline]
fn keep_largest(buf: &mut Vec<(u32, u32)>, k: usize, key: (u32, u32)) {
    if buf.len() < k || packed(key) > packed(*buf.last().expect("non-empty")) {
        let pos = rank_descending(buf, key);
        if buf.len() == k {
            buf.pop();
        }
        buf.insert(pos, key);
    }
}

/// Reads the pattern classification off the bounded extreme buffers.
fn classification_of(
    use_patterns: bool,
    bulk: usize,
    small: &[(u32, u32)],
    large: &[(u32, u32)],
) -> Option<Pattern> {
    if !use_patterns {
        return None;
    }
    let bulk32 = bulk as u32;
    let (min, min2) = (small[0].0, small[1].0);
    let (max, max2) = (large[0].0, large[1].0);
    if max - min < bulk32 {
        None // balanced enough
    } else if max - max2 >= bulk32 {
        Some(Pattern::Hill)
    } else if min2 - min >= bulk32 {
        Some(Pattern::Valley)
    } else {
        Some(Pattern::Pairing)
    }
}

/// Trigger logic shared by the scan-based and patched planners: everything
/// after the `(len, index)` extreme ranking. `small` must hold the exact
/// k-smallest contents and order of a full sort of the planning array;
/// `large` the k-largest, but only when `pattern` is Pairing (the sole
/// consumer of top ranks — `longest` carries the Hill role separately, so
/// the other callers may pass an empty slice).
#[allow(clippy::too_many_arguments)]
fn plan_from_extremes(
    me: usize,
    my_len: usize,
    n: usize,
    threshold: usize,
    bulk: usize,
    concurrency: usize,
    pattern: Option<Pattern>,
    longest: usize,
    small: &[(u32, u32)],
    large: &[(u32, u32)],
    orders: &mut Vec<MigrationOrder>,
) {
    let s = (bulk / concurrency).max(1);
    let shortest = small[0].1 as usize;

    // Threshold trigger: queue beyond T is predicted to violate; spray the
    // excess over the `concurrency` least-loaded other managers.
    if my_len > threshold {
        let mut excess = my_len - threshold;
        for &(_, dst) in small
            .iter()
            .filter(|&&(_, i)| i as usize != me)
            .take(concurrency)
        {
            if excess == 0 {
                break;
            }
            let count = s.min(excess);
            orders.push(MigrationOrder {
                dst: dst as usize,
                count,
            });
            excess -= count;
        }
    }

    // Pattern trigger, classified by the caller off the four extremes.
    match pattern {
        Some(Pattern::Hill) if me == longest => {
            for &(_, dst) in small
                .iter()
                .filter(|&&(_, i)| i as usize != me)
                .take(concurrency)
            {
                orders.push(MigrationOrder {
                    dst: dst as usize,
                    count: s,
                });
            }
        }
        Some(Pattern::Valley) if me != shortest => {
            orders.push(MigrationOrder {
                dst: shortest,
                count: s,
            });
        }
        Some(Pattern::Pairing) => {
            // The r-th longest sends to the r-th shortest, r = 0.. up to
            // concurrency pairs and only while the sender is actually longer.
            for r in 0..concurrency.min(n / 2) {
                let (sender_len, sender) = large[r];
                let (receiver_len, receiver) = small[r];
                if sender as usize == me && receiver as usize != me && sender_len > receiver_len {
                    orders.push(MigrationOrder {
                        dst: receiver as usize,
                        count: s,
                    });
                }
            }
        }
        _ => {}
    }

    // Deduplicate by destination, keeping the larger count. Unstable sort is
    // fine (and allocation-free): entries sharing a dst merge to the max
    // count regardless of their relative order.
    orders.sort_unstable_by_key(|o| o.dst);
    orders.dedup_by(|a, b| {
        if a.dst == b.dst {
            b.count = b.count.max(a.count);
            true
        } else {
            false
        }
    });
}

/// Bounded `(len, index)` extremes of a *shared* queue-length array, ranked
/// one place deeper than any planner trigger reads. Replacing a single
/// entry of the array (a manager overlaying its live local length onto the
/// shared PR view) can then be patched into exact per-manager extremes in
/// O(concurrency) — [`plan_patched_into`] — instead of rescanning all `n`
/// entries per manager per period.
#[derive(Debug, Clone, Default)]
pub struct SharedExtremes {
    /// `k_small + 1` smallest keys, ascending.
    small: Vec<(u32, u32)>,
    /// `k_large + 1` largest keys, descending.
    large: Vec<(u32, u32)>,
}

impl SharedExtremes {
    /// Ranks `q`'s `(len, index)` keys into `self`, reusing the buffers.
    ///
    /// The extra rank beyond [`plan_with_patterns`]'s `k` covers deletion:
    /// if the overlaid manager's old key sat in a buffer, the (k+1)-th key
    /// is exactly the one that takes its place.
    pub fn rank(&mut self, q: &[u32], concurrency: usize) {
        let n = q.len();
        let k_small = ((concurrency + 1).max(2) + 1).min(n);
        let k_large = (concurrency.max(2) + 1).min(n);
        self.small.clear();
        self.large.clear();
        for (i, &len) in q.iter().enumerate() {
            let key = (len, i as u32);
            keep_smallest(&mut self.small, k_small, key);
            keep_largest(&mut self.large, k_large, key);
        }
    }
}

/// Plans for `me` against a shared array of `n` lengths with `me`'s entry
/// replaced by its live `my_len` — equivalent to [`plan_migrations_into`]
/// (`use_patterns: true`) or [`plan_threshold_only_into`] (`false`) on the
/// overlaid array, but O(concurrency) per call: `ext` must have been
/// [`SharedExtremes::rank`]ed over the shared array this period.
///
/// Exactness of the patch: any non-`me` element among the k smallest of the
/// overlaid array has at most `k - 1` overlaid elements below it, hence at
/// most `k` shared ones (the old `me` key may sit anywhere), so it is
/// already in `ext`'s `k + 1`-deep buffer. Removing the old key and
/// inserting the live one therefore yields a superset of the true k-end,
/// and truncation restores the exact full-sort contents and order. The old
/// key is the buffer's only entry with index `me`, so it is removed by that
/// index alone; inserting the live key unconditionally and truncating
/// leaves the same k-end as inserting only when it ranks inside it.
#[allow(clippy::too_many_arguments)]
pub fn plan_patched_into(
    me: usize,
    my_len: u32,
    n: usize,
    ext: &SharedExtremes,
    threshold: usize,
    bulk: usize,
    concurrency: usize,
    use_patterns: bool,
    scratch: &mut PlanScratch,
    orders: &mut Vec<MigrationOrder>,
) {
    assert!(me < n, "manager index out of range");
    assert!(bulk > 0 && concurrency > 0);
    orders.clear();
    if n < 2 {
        return;
    }
    let k_small = (concurrency + 1).max(2).min(n);
    let k_large = concurrency.max(2).min(n);
    let new_key = (my_len, me as u32);

    let small = &mut scratch.small;
    small.clear();
    small.extend(ext.small.iter().filter(|e| e.1 != me as u32));
    small.insert(rank_ascending(small, new_key), new_key);
    small.truncate(k_small);

    let large = &mut scratch.large;
    large.clear();
    large.extend(ext.large.iter().filter(|e| e.1 != me as u32));
    large.insert(rank_descending(large, new_key), new_key);
    large.truncate(k_large);

    let pattern = classification_of(use_patterns, bulk, small, large);
    plan_from_extremes(
        me,
        my_len as usize,
        n,
        threshold,
        bulk,
        concurrency,
        pattern,
        large[0].1 as usize,
        small,
        large,
        orders,
    );
}

/// The per-message migration guard (Algorithm 1 line 8): forbid a migration
/// that would leave the migrated requests in a *longer* queue than they came
/// from.
pub fn guard_allows(q_src: u32, q_dst: u32, s: usize) -> bool {
    // Paper: skip when q[j] - S < q[dst] + S.
    (q_src as i64 - s as i64) >= (q_dst as i64 + s as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-optimization planner: full `(len, index)` sort, reference
    /// for the bounded-extreme selection in `plan_with_patterns`.
    fn plan_with_full_sort(
        me: usize,
        q: &[u32],
        threshold: usize,
        bulk: usize,
        concurrency: usize,
        use_patterns: bool,
    ) -> Vec<MigrationOrder> {
        let mut orders = Vec::new();
        if q.len() < 2 {
            return orders;
        }
        let s = (bulk / concurrency).max(1);
        let my_len = q[me] as usize;
        let mut by_len: Vec<usize> = (0..q.len()).collect();
        by_len.sort_unstable_by_key(|&i| (q[i], i));
        let shortest = by_len[0];
        let longest = *by_len.last().unwrap();
        if my_len > threshold {
            let mut excess = my_len - threshold;
            for &dst in by_len.iter().filter(|&&i| i != me).take(concurrency) {
                if excess == 0 {
                    break;
                }
                let count = s.min(excess);
                orders.push(MigrationOrder { dst, count });
                excess -= count;
            }
        }
        match if use_patterns {
            classify(q, bulk)
        } else {
            None
        } {
            Some(Pattern::Hill) if me == longest => {
                for &dst in by_len.iter().filter(|&&i| i != me).take(concurrency) {
                    orders.push(MigrationOrder { dst, count: s });
                }
            }
            Some(Pattern::Valley) if me != shortest => {
                orders.push(MigrationOrder {
                    dst: shortest,
                    count: s,
                });
            }
            Some(Pattern::Pairing) => {
                let n = q.len();
                for r in 0..concurrency.min(n / 2) {
                    let sender = by_len[n - 1 - r];
                    let receiver = by_len[r];
                    if sender == me && receiver != me && q[sender] > q[receiver] {
                        orders.push(MigrationOrder {
                            dst: receiver,
                            count: s,
                        });
                    }
                }
            }
            _ => {}
        }
        orders.sort_unstable_by_key(|o| o.dst);
        orders.dedup_by(|a, b| {
            if a.dst == b.dst {
                b.count = b.count.max(a.count);
                true
            } else {
                false
            }
        });
        orders
    }

    proptest::proptest! {
        /// The bounded-extreme planner is order-for-order identical to the
        /// full-sort reference over random queue vectors, both triggers,
        /// with tie-heavy value ranges.
        #[test]
        fn bounded_selection_matches_full_sort(
            q in proptest::collection::vec(0u32..6, 2..80),
            me_raw in 0usize..80,
            threshold in 0usize..8,
            bulk in 1usize..40,
            concurrency_raw in 1usize..12,
            use_patterns in proptest::prelude::any::<bool>(),
        ) {
            let me = me_raw % q.len();
            let concurrency = concurrency_raw.min(bulk);
            let reference =
                plan_with_full_sort(me, &q, threshold, bulk, concurrency, use_patterns);
            let mut got = Vec::new();
            plan_with_patterns(
                me,
                &q,
                threshold,
                bulk,
                concurrency,
                use_patterns,
                &mut PlanScratch::default(),
                &mut got,
            );
            proptest::prop_assert_eq!(got, reference);
        }
    }

    proptest::proptest! {
        /// The patched planner gives exactly the scan planners' orders on
        /// the overlaid array — checked here, in every build profile, not
        /// only by the engine's debug-build cross-check. Tie-heavy lengths,
        /// every manager as `me` (so `me` takes every rank), a live length
        /// that always differs from the shared one, and concurrency up to
        /// `n`.
        #[test]
        fn patched_planner_matches_scan_planners(
            shared in proptest::collection::vec(0u32..8, 2..40),
            shift in 1u32..8,
            threshold in 0usize..10,
            bulk in 1usize..40,
            concurrency_raw in 0usize..40,
        ) {
            let n = shared.len();
            let concurrency = 1 + concurrency_raw % n;
            let mut ext = SharedExtremes::default();
            ext.rank(&shared, concurrency);
            let mut scratch = PlanScratch::default();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for me in 0..n {
                let my_len = (shared[me] + shift) % 8;
                let mut q = shared.clone();
                q[me] = my_len;
                for use_patterns in [true, false] {
                    plan_patched_into(
                        me, my_len, n, &ext, threshold, bulk, concurrency, use_patterns,
                        &mut scratch, &mut got,
                    );
                    plan_with_patterns(
                        me, &q, threshold, bulk, concurrency, use_patterns,
                        &mut PlanScratch::default(), &mut want,
                    );
                    proptest::prop_assert_eq!(&got, &want, "me {} patterns {}", me, use_patterns);
                }
            }
        }
    }

    #[test]
    fn paper_walkthrough_example() {
        // §VI walk-through: Bulk=40, Concurrency=4, q=[30,30,70,30] -> Hill.
        // The 3rd queue's manager sends 10 descriptors to each other queue.
        let q = [30, 30, 70, 30];
        assert_eq!(classify(&q, 40), Some(Pattern::Hill));
        let orders = plan_migrations(2, &q, usize::MAX, 40, 4);
        assert_eq!(orders.len(), 3);
        assert!(orders.iter().all(|o| o.count == 10));
        let dsts: Vec<usize> = orders.iter().map(|o| o.dst).collect();
        assert_eq!(dsts, vec![0, 1, 3]); // QD = {0, 1, 3}
                                         // Non-hill managers send nothing on the pattern trigger.
        assert!(plan_migrations(0, &q, usize::MAX, 40, 4).is_empty());
    }

    #[test]
    fn valley_everyone_sends_to_shortest() {
        let q = [50, 50, 10, 50];
        assert_eq!(classify(&q, 40), Some(Pattern::Valley));
        for me in [0, 1, 3] {
            let orders = plan_migrations(me, &q, usize::MAX, 40, 4);
            assert_eq!(orders.len(), 1, "manager {me}");
            assert_eq!(orders[0].dst, 2);
        }
        // The valley itself sends nothing.
        assert!(plan_migrations(2, &q, usize::MAX, 40, 4).is_empty());
    }

    #[test]
    fn pairing_matches_ranks() {
        // Gradual slope: no single Hill/Valley gap reaches Bulk, but the
        // overall spread does.
        let q = [80, 65, 50, 35];
        assert_eq!(classify(&q, 20), Some(Pattern::Pairing));
        // Longest (0) pairs with shortest (3).
        let o0 = plan_migrations(0, &q, usize::MAX, 20, 2);
        assert_eq!(o0, vec![MigrationOrder { dst: 3, count: 10 }]);
        // 2nd longest (1) pairs with 2nd shortest (2).
        let o1 = plan_migrations(1, &q, usize::MAX, 20, 2);
        assert_eq!(o1, vec![MigrationOrder { dst: 2, count: 10 }]);
        // Receivers don't send.
        assert!(plan_migrations(3, &q, usize::MAX, 20, 2).is_empty());
    }

    #[test]
    fn balanced_queues_no_pattern() {
        assert_eq!(classify(&[100, 101, 99, 100], 16), None);
        assert!(plan_migrations(0, &[100, 101, 99, 100], usize::MAX, 16, 4).is_empty());
    }

    #[test]
    fn threshold_trigger_sprays_excess() {
        // Balanced pattern-wise but over threshold.
        let q = [100, 98, 99, 100];
        let orders = plan_migrations(0, &q, 80, 16, 4);
        // Excess = 20, S = 4: up to ceil(20/4)=5 but capped at concurrency=4
        // destinations of 4 each = 16 moved.
        assert_eq!(orders.len(), q.len() - 1); // 3 other managers
        let total: usize = orders.iter().map(|o| o.count).sum();
        assert!(total <= 20);
        assert!(total >= 12);
        assert!(orders.iter().all(|o| o.dst != 0));
    }

    #[test]
    fn threshold_and_pattern_dedupe() {
        // Hill manager over threshold: destinations must not duplicate.
        let q = [200, 10, 10, 10];
        let orders = plan_migrations(0, &q, 50, 40, 4);
        let mut dsts: Vec<usize> = orders.iter().map(|o| o.dst).collect();
        let before = dsts.len();
        dsts.dedup();
        assert_eq!(before, dsts.len(), "duplicate destinations: {orders:?}");
    }

    #[test]
    fn guard_matches_paper_condition() {
        // q_src - S >= q_dst + S required.
        assert!(guard_allows(70, 30, 10)); // 60 >= 40
        assert!(!guard_allows(40, 30, 10)); // 30 < 40
        assert!(!guard_allows(30, 30, 1)); // equal queues: never worth it
        assert!(guard_allows(32, 30, 1)); // 31 >= 31
    }

    #[test]
    fn single_manager_never_migrates() {
        assert!(plan_migrations(0, &[500], 10, 16, 4).is_empty());
        assert_eq!(classify(&[500], 16), None);
    }

    #[test]
    fn labels() {
        assert_eq!(Pattern::Hill.label(), "hill");
        assert_eq!(Pattern::Valley.label(), "valley");
        assert_eq!(Pattern::Pairing.label(), "pairing");
    }
}
