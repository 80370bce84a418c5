//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time,
//! with ties broken by insertion sequence number so that simulations are
//! bit-reproducible regardless of queue internals.
//!
//! Two implementations share that contract:
//!
//! - [`EventQueue`] — a calendar queue (bucketed timing wheel) tuned for the
//!   short-horizon, high-density event populations of nanosecond-scale RPC
//!   simulation. Near-future events land in O(1) ring buckets. The ring's
//!   window slides forward with every pop, so only events beyond it — far
//!   in the simulated future — wait in a sorted overflow heap, and each
//!   moves into the ring once the window reaches its day.
//! - [`BinaryHeapQueue`] — the classic `BinaryHeap` implementation, kept as
//!   the differential-testing oracle and benchmarking baseline.
//!
//! Both pop events in identical `(time, seq)` order, which the property tests
//! in `tests/prop.rs` check on arbitrary interleavings.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a particular instant.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// `(time, seq)` packed into one integer: `time` in the high 64 bits,
    /// `seq` in the low 64. Integer order on the key is exactly the
    /// lexicographic `(time, seq)` order, so a minimum over keys is the
    /// queue's pop order without a data-dependent tuple-compare branch.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time.as_ps() as u128) << 64) | self.seq as u128
    }
}

/// Index and key of the `(time, seq)`-earliest entry of a non-empty bucket.
///
/// The running minimum is kept with selects rather than a branch: which
/// entry of a bucket is earliest is data-dependent noise to the branch
/// predictor, and this scan runs on every pop.
#[inline]
fn bucket_min<E>(bucket: &[Scheduled<E>]) -> (usize, u128) {
    let mut best = 0;
    let mut best_key = bucket[0].key();
    for (i, s) in bucket.iter().enumerate().skip(1) {
        let key = s.key();
        let earlier = key < best_key;
        best = if earlier { i } else { best };
        best_key = best_key.min(key);
    }
    (best, best_key)
}

/// True iff the entries of `bucket` fall on more than one day at bucket
/// width `1 << width_log2` picoseconds.
fn spans_days<E>(bucket: &[Scheduled<E>], width_log2: u32) -> bool {
    let day = |s: &Scheduled<E>| s.time.as_ps() >> width_log2;
    bucket.iter().any(|s| day(s) != day(&bucket[0]))
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the default bucket width in picoseconds: 2^16 ps = 65.536 ns.
///
/// Power-of-two widths turn the day/slot computation into shifts and masks.
/// At the simulator's typical densities (64 cores × ~1 µs service times →
/// ~64 events/µs) this puts a handful of events in each bucket.
const DEFAULT_BUCKET_WIDTH_LOG2: u32 = 16;

/// Default number of ring buckets (must be a power of two). With the default
/// width the ring covers a ~67 µs window — comfortably wider than the SLOs
/// and timer horizons the schedulers work with.
const DEFAULT_NUM_BUCKETS: usize = 1 << 10;

/// Narrowest bucket width the adaptive geometry will shrink to: 2^6 ps.
const MIN_BUCKET_WIDTH_LOG2: u32 = 6;

/// A popped bucket holding more live events than this triggers a narrowing
/// rehash (quartering the bucket width). The linear within-bucket min scan
/// is what an adversarial dense population degrades; past a few dozen
/// entries the O(n) rehash amortizes against the O(n) scans it replaces.
const NARROW_BUCKET_LIMIT: usize = 48;

/// A single pop that advances the cursor across more than this many empty
/// buckets triggers a widening rehash (4× the bucket width, clamped to the
/// construction-time width). Widening quarters the per-pop scan distance,
/// so a stable population settles within two rehashes; narrowing needs a
/// 48-deep bucket, which a population sparse enough to trip this limit
/// cannot also produce at the widened width.
const WIDEN_SCAN_LIMIT: u64 = 8;

/// A min-time priority queue of simulation events, implemented as a calendar
/// queue (bucketed timing wheel) with a sorted overflow heap.
///
/// Events that share an instant pop in the order they were pushed (FIFO),
/// which keeps runs deterministic. The pop order is bit-identical to
/// [`BinaryHeapQueue`]'s.
///
/// # Examples
///
/// ```
/// use simcore::event::EventQueue;
/// use simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(10), "late");
/// q.push(SimTime::from_ns(5), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Ring of buckets; slot for day `d` is `d & (num_buckets - 1)`.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Log2 of the bucket width in picoseconds.
    width_log2: u32,
    /// First day of the current window. Only events with
    /// `base_day <= day < base_day + num_buckets` live in the ring. Slides
    /// to the day of each popped ring event.
    base_day: u64,
    /// Scan cursor: no ring event has a day earlier than this. Rewinds when
    /// a push lands behind it (still within the window).
    cursor_day: u64,
    /// Number of events currently in the ring.
    ring_len: usize,
    /// Events outside the ring window: days past its end, or pushes behind
    /// `base_day` (which a discrete-event push at or after `now` never is).
    /// Ordered min-first via [`Scheduled`]'s inverted Ord.
    overflow: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    /// Widest width the adaptive geometry may widen back to — the
    /// construction-time width.
    max_width_log2: u32,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_WIDTH_LOG2, DEFAULT_NUM_BUCKETS)
    }

    /// Creates an empty queue with `1 << width_log2` picoseconds per bucket
    /// and `num_buckets` ring buckets.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is not a power of two or `width_log2 >= 64`.
    pub fn with_geometry(width_log2: u32, num_buckets: usize) -> Self {
        assert!(num_buckets.is_power_of_two(), "bucket count must be 2^k");
        assert!(width_log2 < 64, "bucket width must fit in u64");
        EventQueue {
            buckets: (0..num_buckets).map(|_| Vec::new()).collect(),
            width_log2,
            base_day: 0,
            cursor_day: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            max_width_log2: width_log2,
        }
    }

    /// Current bucket width (log2 picoseconds). Adaptive: dense populations
    /// narrow it, sparse ones widen it back toward the construction width.
    pub fn bucket_width_log2(&self) -> u32 {
        self.width_log2
    }

    #[inline]
    fn day_of(&self, time: SimTime) -> u64 {
        time.as_ps() >> self.width_log2
    }

    #[inline]
    fn slot_of(&self, day: u64) -> usize {
        (day as usize) & (self.buckets.len() - 1)
    }

    #[inline]
    fn window_end(&self) -> u64 {
        self.base_day.saturating_add(self.buckets.len() as u64)
    }

    /// True iff an event at `time` would land past the end of the window.
    #[inline]
    fn beyond_window(&self, time: SimTime) -> bool {
        self.day_of(time) >= self.window_end()
    }

    /// Schedules `event` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_scheduled(Scheduled { time, seq, event });
    }

    /// Reserves a contiguous block of `n` sequence numbers and returns its
    /// first value. Subsequent [`push`](Self::push)es draw seqs *after* the
    /// block.
    ///
    /// This is the byte-identity lever behind streaming injection: pop order
    /// depends only on `(time, seq)`, so handing arrival `i` the seq it
    /// would have received from an upfront push (`base + i`) makes the
    /// *physical* injection moment irrelevant to the pop order.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Schedules `event` at `time` under a sequence number previously
    /// obtained from [`reserve_seqs`](Self::reserve_seqs). Each reserved seq
    /// must be pushed at most once.
    #[inline]
    pub fn push_at_seq(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "seq must come from reserve_seqs");
        self.push_scheduled(Scheduled { time, seq, event });
    }

    /// Inserts an already-sequenced entry (also used by [`run`] to put a
    /// beyond-horizon event back without disturbing FIFO order).
    fn push_scheduled(&mut self, s: Scheduled<E>) {
        let day = self.day_of(s.time);
        if day >= self.base_day && day < self.window_end() {
            if day < self.cursor_day {
                self.cursor_day = day;
            }
            let slot = self.slot_of(day);
            self.buckets[slot].push(s);
            self.ring_len += 1;
        } else {
            self.overflow.push(s);
        }
    }

    /// Rebuilds the ring under a new bucket width, re-anchoring the window
    /// at the earliest live day. Pop order is a pure function of
    /// `(time, seq)`, so a rehash is invisible to everything but the cost
    /// of the within-bucket scan — which is exactly what it exists to bound.
    fn rehash(&mut self, new_width_log2: u32) {
        let mut live: Vec<Scheduled<E>> = Vec::with_capacity(self.ring_len);
        for b in &mut self.buckets {
            live.append(b);
        }
        self.ring_len = 0;
        self.width_log2 = new_width_log2;
        let min_day = live
            .iter()
            .map(|s| self.day_of(s.time))
            .min()
            .or_else(|| self.overflow.peek().map(|s| self.day_of(s.time)))
            .unwrap_or(0);
        self.base_day = min_day;
        self.cursor_day = min_day;
        // Events whose day no longer fits the (narrower) window fall into
        // the overflow; pop_from_ring already arbitrates ring vs overflow.
        for s in live {
            self.push_scheduled(s);
        }
        // A wider window may now reach overflow entries.
        self.pull_overflow();
    }

    /// Finds the `(bucket_slot, index_within_bucket)` of the earliest ring
    /// event, advancing the cursor past empty buckets (the count of which is
    /// returned for the widening heuristic). Ring must be non-empty.
    fn ring_min(&mut self) -> (usize, usize, u64) {
        debug_assert!(self.ring_len > 0);
        let start_day = self.cursor_day;
        loop {
            let slot = self.slot_of(self.cursor_day);
            if self.buckets[slot].is_empty() {
                self.cursor_day += 1;
                debug_assert!(self.cursor_day < self.window_end());
                continue;
            }
            // All events in this bucket share a day; the earliest overall is
            // the (time, seq)-minimum within it.
            let (best, _) = bucket_min(&self.buckets[slot]);
            return (slot, best, self.cursor_day - start_day);
        }
    }

    /// Moves the overflow entries whose day lies inside the window into
    /// their ring buckets. The overflow pops min-first, so this stops at
    /// the first entry outside the window.
    fn pull_overflow(&mut self) {
        let end = self.window_end();
        while let Some(head) = self.overflow.peek() {
            let day = self.day_of(head.time);
            if day < self.base_day || day >= end {
                break;
            }
            let s = self.overflow.pop().expect("peeked entry exists");
            let slot = self.slot_of(day);
            self.buckets[slot].push(s);
            self.ring_len += 1;
        }
    }

    /// Removes and returns the earliest entry if it is strictly earlier
    /// than `limit` (`None`: no limit). Otherwise returns `None` and leaves
    /// every entry in place, so the caller may still push events earlier
    /// than the refused one.
    fn pop_before(&mut self, limit: Option<SimTime>) -> Option<Scheduled<E>> {
        // `time < limit` iff `key < limit << 64`: the seq fills the low bits.
        let limit_key = limit.map_or(u128::MAX, |t| (t.as_ps() as u128) << 64);
        loop {
            if self.ring_len == 0 {
                // Re-anchor the drained ring at the earliest instant a
                // pending or still-to-be-pushed event can have: the overflow
                // head, or the limit, where the caller's next pushes start.
                let head = self.overflow.peek().map(|s| self.day_of(s.time));
                let day = head
                    .into_iter()
                    .chain(limit.map(|t| self.day_of(t)))
                    .min()?;
                self.base_day = day;
                self.cursor_day = day;
                self.pull_overflow();
                // A freshly re-anchored window that captured almost nothing
                // while plenty of events wait beyond it means the narrowed
                // width no longer matches the population: widen and retry
                // (a dense burst has drained and normal spacing resumed).
                if self.ring_len > 0
                    && self.ring_len <= 2
                    && self.overflow.len() >= 64
                    && self.width_log2 < self.max_width_log2
                {
                    self.rehash((self.width_log2 + 2).min(self.max_width_log2));
                    continue;
                }
                if self.ring_len == 0 {
                    // Everything pending lies beyond the window, so at or
                    // past the limit it was anchored on.
                    return None;
                }
            }
            let (slot, idx, scanned) = self.ring_min();
            // Adaptive geometry. A bucket denser than the scan limit means
            // the workload packed its live horizon into a sliver of the
            // window (the adversarial dense-churn case): quarter the width
            // and re-find the minimum — unless the narrower width would
            // leave the whole bucket in one bucket again, as a burst of
            // same-instant events (every group's tick at once) does. A pop
            // that had to walk hundreds of empty buckets means the
            // opposite; widen back toward the construction-time width.
            let narrower = self.width_log2.saturating_sub(2).max(MIN_BUCKET_WIDTH_LOG2);
            if self.buckets[slot].len() > NARROW_BUCKET_LIMIT
                && narrower < self.width_log2
                && spans_days(&self.buckets[slot], narrower)
            {
                self.rehash(narrower);
                continue;
            }
            if scanned > WIDEN_SCAN_LIMIT && self.width_log2 < self.max_width_log2 {
                self.rehash((self.width_log2 + 2).min(self.max_width_log2));
                continue;
            }
            return self.pop_from_ring(slot, idx, limit_key);
        }
    }

    /// Removes ring entry `(slot, idx)`, unless the overflow head is earlier
    /// (an event pushed behind the window), which pops instead — in either
    /// case only if its key is below `limit_key`.
    ///
    /// A removed ring entry slides the window to start at its day: no ring
    /// event is earlier than the cursor, and every later push lands at or
    /// after the popped instant, so the days behind it are dead. Overflow
    /// entries the slid window now reaches move into the ring.
    fn pop_from_ring(&mut self, slot: usize, idx: usize, limit_key: u128) -> Option<Scheduled<E>> {
        let ring_key = self.buckets[slot][idx].key();
        // The overflow can only beat the ring with an event pushed behind the
        // window (time strictly earlier than every ring day).
        if let Some(head) = self.overflow.peek() {
            let head_key = head.key();
            if head_key < ring_key {
                return (head_key < limit_key).then(|| self.overflow.pop().expect("peeked"));
            }
        }
        if ring_key >= limit_key {
            return None;
        }
        self.ring_len -= 1;
        let s = self.buckets[slot].swap_remove(idx);
        if self.cursor_day > self.base_day {
            self.base_day = self.cursor_day;
            self.pull_overflow();
        }
        Some(s)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(None).map(|s| (s.time, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring = (self.ring_len > 0).then(|| {
            // Non-mutating scan from the cursor to the first non-empty bucket.
            let mut day = self.cursor_day;
            while self.buckets[self.slot_of(day)].is_empty() {
                day += 1;
            }
            bucket_min(&self.buckets[self.slot_of(day)]).1
        });
        let head = self.overflow.peek().map(Scheduled::key);
        ring.into_iter()
            .chain(head)
            .min()
            .map(|key| SimTime::from_ps((key >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.ring_len = 0;
        self.overflow.clear();
    }
}

/// The classic binary-heap event queue.
///
/// Pops in exactly the same `(time, seq)` order as [`EventQueue`]; retained
/// as the oracle for differential tests and as the baseline for the
/// `calendar_queue` benchmark.
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Reserves `n` sequence numbers; see [`EventQueue::reserve_seqs`].
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Pushes under a reserved seq; see [`EventQueue::push_at_seq`].
    pub fn push_at_seq(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.next_seq, "seq must come from reserve_seqs");
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The world a [`run`] loop drives: a state machine that reacts to events and
/// may schedule further events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles `event` occurring at `now`; may push follow-up events onto
    /// `queue`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Called immediately before [`handle`](Self::handle) with the event's
    /// full `(time, seq)` rank — the queue's total order, which `handle`
    /// itself never sees. Record/replay sinks hook this to capture the
    /// executed event stream; the default is a no-op, so worlds that don't
    /// record pay nothing. Implementations must only *read* state (the
    /// telemetry non-perturbation invariant).
    #[inline]
    fn observe(&mut self, _now: SimTime, _seq: u64, _event: &Self::Event) {}

    /// Called after each event is handled; returning `true` stops the run
    /// early (e.g. once enough requests completed).
    fn should_stop(&self, _now: SimTime) -> bool {
        false
    }
}

/// Outcome of driving a [`World`] to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events dispatched.
    pub events: u64,
    /// Simulated instant at which the run ended.
    pub end_time: SimTime,
    /// True if the run ended because [`World::should_stop`] returned `true`
    /// (as opposed to queue exhaustion or the horizon).
    pub stopped_early: bool,
    /// Largest queue population observed during the run — the memory
    /// high-water mark of the event structure. Streaming injection keeps
    /// this at O(in-flight) instead of O(trace).
    pub peak_queue: usize,
}

/// A lazily-injected, time-ordered stream of externally-generated events
/// (arrivals), consumed by [`run_streamed`].
///
/// The contract that keeps streamed runs byte-identical to upfront pushes:
///
/// 1. `next_time()` is a *lower bound* on the scheduled time of every event
///    the source has not yet injected, and is non-decreasing across
///    injections.
/// 2. `inject_chunk` injects at least one event (in stream order, under
///    seqs reserved via [`EventQueue::reserve_seqs`]) whenever `next_time()`
///    is `Some`.
///
/// How far past one event a chunk reaches is the source's choice: the run
/// loop never pops an event at or after `next_time()`, so a short chunk
/// only costs an extra refill.
pub trait EventSource<E> {
    /// Lower bound on the time of the next not-yet-injected event, or
    /// `None` once the stream is exhausted.
    fn next_time(&self) -> Option<SimTime>;

    /// Injects the next chunk of events into `queue`.
    fn inject_chunk(&mut self, queue: &mut EventQueue<E>);
}

/// Default cap on the arrivals a [`StreamInjector`] pushes per refill.
///
/// Large enough to amortize the refill check, small enough that the queue
/// population stays O(in-flight + chunk) rather than O(trace).
pub const DEFAULT_INJECT_CHUNK: usize = 1024;

/// An [`EventSource`] over an indexed stream `0..len`: `lower_bound(i)`
/// gives the watermark for item `i` without side effects, `make(i)` is
/// called exactly once per item, in order, to produce `(time, event)`.
///
/// A refill injects up to `chunk` items, stopping early at the first whose
/// lower bound lies past the end of the queue's calendar window: an arrival
/// pushed there could only wait in the overflow heap. It always injects at
/// least one item.
///
/// Splitting the two closures lets `make` consume per-arrival state (e.g.
/// a steering RNG) in exactly the order an upfront push loop would have,
/// while `next_time` stays free to call repeatedly.
pub struct StreamInjector<L, M> {
    next: usize,
    len: usize,
    base_seq: u64,
    chunk: usize,
    lower_bound: L,
    make: M,
}

impl<L, M> StreamInjector<L, M> {
    /// Creates an injector over items `0..len` whose reserved seq block
    /// starts at `base_seq`, using [`DEFAULT_INJECT_CHUNK`].
    pub fn new(len: usize, base_seq: u64, lower_bound: L, make: M) -> Self {
        Self::with_chunk(len, base_seq, DEFAULT_INJECT_CHUNK, lower_bound, make)
    }

    /// Creates an injector with an explicit chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(len: usize, base_seq: u64, chunk: usize, lower_bound: L, make: M) -> Self {
        assert!(chunk > 0, "injection chunk must be positive");
        StreamInjector {
            next: 0,
            len,
            base_seq,
            chunk,
            lower_bound,
            make,
        }
    }
}

impl<E, L, M> EventSource<E> for StreamInjector<L, M>
where
    L: Fn(usize) -> SimTime,
    M: FnMut(usize) -> (SimTime, E),
{
    fn next_time(&self) -> Option<SimTime> {
        (self.next < self.len).then(|| (self.lower_bound)(self.next))
    }

    fn inject_chunk(&mut self, queue: &mut EventQueue<E>) {
        let end = (self.next + self.chunk).min(self.len);
        let mut i = self.next;
        while i < end {
            if i > self.next && queue.beyond_window((self.lower_bound)(i)) {
                break;
            }
            let (time, event) = (self.make)(i);
            debug_assert!(
                time >= (self.lower_bound)(i),
                "lower_bound must not exceed the scheduled time"
            );
            debug_assert!(
                i == 0 || (self.lower_bound)(i) >= (self.lower_bound)(i - 1),
                "lower_bound must be non-decreasing in stream order"
            );
            queue.push_at_seq(time, self.base_seq + i as u64, event);
            i += 1;
        }
        self.next = i;
    }
}

/// Drains `queue` through `world` until the queue empties, `horizon` passes,
/// or the world requests a stop.
///
/// Events scheduled beyond `horizon` are left unprocessed. The loop does a
/// single pop per event; a popped beyond-horizon event is reinserted with its
/// original sequence number, so FIFO tie-breaking survives intact.
pub fn run<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
) -> RunSummary {
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    let mut peak = queue.len();
    while let Some(s) = queue.pop_before(None) {
        if s.time > horizon {
            queue.push_scheduled(s);
            return RunSummary {
                events,
                end_time: now,
                stopped_early: false,
                peak_queue: peak,
            };
        }
        debug_assert!(s.time >= now, "event queue went backwards in time");
        now = s.time;
        world.observe(now, s.seq, &s.event);
        world.handle(now, s.event, queue);
        events += 1;
        peak = peak.max(queue.len());
        if world.should_stop(now) {
            return RunSummary {
                events,
                end_time: now,
                stopped_early: true,
                peak_queue: peak,
            };
        }
    }
    RunSummary {
        events,
        end_time: now,
        stopped_early: false,
        peak_queue: peak,
    }
}

/// Like [`run`], but arrivals are pulled lazily from `source` instead of
/// having been pushed upfront, keeping the queue population at
/// O(in-flight + chunk) instead of O(trace).
///
/// Pop order (and therefore the entire simulation) is byte-identical to an
/// upfront push as long as `source` honours the [`EventSource`] contract and
/// its events were assigned reserved seqs in stream order: the loop pops
/// only an event strictly earlier than `next_time()`, and when the queue
/// holds none it refills from the source and tries again. Ties go to the
/// source because a reserved stream seq precedes any dynamically pushed
/// one. Nothing is popped and pushed back on a refill.
///
/// On a horizon stop, not-yet-injected arrivals remain in `source`; the
/// queue alone does not hold the full remaining schedule.
pub fn run_streamed<W: World, S: EventSource<W::Event>>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    source: &mut S,
    horizon: SimTime,
) -> RunSummary {
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    let mut peak = queue.len();
    let mut source_next = source.next_time();
    loop {
        let Some(s) = queue.pop_before(source_next) else {
            // Nothing pending runs before the source's next event. Refill
            // and retry, or stop once both are exhausted.
            if source_next.is_none() {
                break;
            }
            source.inject_chunk(queue);
            source_next = source.next_time();
            peak = peak.max(queue.len());
            continue;
        };
        if s.time > horizon {
            queue.push_scheduled(s);
            return RunSummary {
                events,
                end_time: now,
                stopped_early: false,
                peak_queue: peak,
            };
        }
        debug_assert!(s.time >= now, "event queue went backwards in time");
        now = s.time;
        world.observe(now, s.seq, &s.event);
        world.handle(now, s.event, queue);
        events += 1;
        peak = peak.max(queue.len());
        if world.should_stop(now) {
            return RunSummary {
                events,
                end_time: now,
                stopped_early: true,
                peak_queue: peak,
            };
        }
    }
    RunSummary {
        events,
        end_time: now,
        stopped_early: false,
        peak_queue: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(5), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // A tiny ring (4 buckets × 2^10 ps ≈ 1 ns each) forces overflow use.
        let mut q = EventQueue::with_geometry(10, 4);
        q.push(SimTime::from_us(500), "far");
        q.push(SimTime::from_ns(1), "near");
        q.push(SimTime::from_us(2000), "farther");
        q.push(SimTime::from_ns(2), "near2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(2), "near2")));
        assert_eq!(q.pop(), Some((SimTime::from_us(500), "far")));
        assert_eq!(q.pop(), Some((SimTime::from_us(2000), "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_window_pops_first() {
        let mut q = EventQueue::with_geometry(10, 4);
        // Drain past t=0 so the window advances, then push before it.
        q.push(SimTime::from_us(10), "anchor");
        assert_eq!(q.pop(), Some((SimTime::from_us(10), "anchor")));
        q.push(SimTime::from_us(11), "ahead");
        q.push(SimTime::from_ns(3), "behind");
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), "behind")));
        assert_eq!(q.pop(), Some((SimTime::from_us(11), "ahead")));
    }

    #[test]
    fn interleaved_ties_stay_fifo_across_structures() {
        // Same instant spread across ring and overflow epochs.
        let mut q = EventQueue::with_geometry(10, 4);
        let t = SimTime::from_us(3);
        for i in 0..10 {
            q.push(t, i);
            q.push(SimTime::from_ns(i as u64), 100 + i);
        }
        let mut tied = Vec::new();
        while let Some((time, e)) = q.pop() {
            if time == t {
                tied.push(e);
            }
        }
        assert_eq!(tied, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn heap_queue_matches_basic_order() {
        let mut q = BinaryHeapQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(7), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 3]);
        assert!(q.is_empty());
    }

    /// A world that re-schedules a tick N times then stops.
    struct Ticker {
        remaining: u32,
        period: SimDuration,
        seen: Vec<SimTime>,
    }

    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, now: SimTime, _e: (), queue: &mut EventQueue<()>) {
            self.seen.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.push(now + self.period, ());
            }
        }
        fn should_stop(&self, _now: SimTime) -> bool {
            false
        }
    }

    #[test]
    fn run_loop_drives_world() {
        let mut w = Ticker {
            remaining: 4,
            period: SimDuration::from_ns(10),
            seen: Vec::new(),
        };
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let summary = run(&mut w, &mut q, SimTime::MAX);
        assert_eq!(summary.events, 5);
        assert_eq!(summary.end_time, SimTime::from_ns(40));
        assert!(!summary.stopped_early);
        assert_eq!(w.seen.len(), 5);
    }

    #[test]
    fn run_respects_horizon() {
        let mut w = Ticker {
            remaining: 1000,
            period: SimDuration::from_ns(10),
            seen: Vec::new(),
        };
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        let summary = run(&mut w, &mut q, SimTime::from_ns(35));
        // Events at 0,10,20,30 processed; 40 is beyond the horizon.
        assert_eq!(summary.events, 4);
        assert!(!q.is_empty());
    }

    #[test]
    fn horizon_reinsert_preserves_fifo() {
        // Two events tie at t=40; the run must pop them in push order even
        // though the first was popped and reinserted at the horizon check.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(40), 1);
        q.push(SimTime::from_ns(40), 2);
        struct Recorder(Vec<i32>);
        impl World for Recorder {
            type Event = i32;
            fn handle(&mut self, _now: SimTime, e: i32, _q: &mut EventQueue<i32>) {
                self.0.push(e);
            }
        }
        let mut w = Recorder(Vec::new());
        let summary = run(&mut w, &mut q, SimTime::from_ns(35));
        assert_eq!(summary.events, 0);
        assert_eq!(q.len(), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    struct StopAtThree(u32);
    impl World for StopAtThree {
        type Event = u32;
        fn handle(&mut self, _now: SimTime, e: u32, _q: &mut EventQueue<u32>) {
            self.0 = e;
        }
        fn should_stop(&self, _now: SimTime) -> bool {
            self.0 == 3
        }
    }

    /// Records every handled event; echoes arrivals (`e < 1000`) with a
    /// dynamic follow-up event 15 ns later, exercising the reserved-vs-
    /// dynamic seq interleaving.
    struct Echo(Vec<(SimTime, i32)>);
    impl World for Echo {
        type Event = i32;
        fn handle(&mut self, now: SimTime, e: i32, q: &mut EventQueue<i32>) {
            self.0.push((now, e));
            if e < 1000 {
                q.push(now + SimDuration::from_ns(15), 1000 + e);
            }
        }
    }

    fn arrival_time(i: usize) -> SimTime {
        // Bursty: pairs share an instant, so arrivals tie with each other
        // and with echoes of earlier arrivals.
        SimTime::from_ns(10 * (i as u64 / 2) + 5)
    }

    #[test]
    fn streamed_matches_upfront_push() {
        const N: usize = 500;
        let mut up_q = EventQueue::new();
        for i in 0..N {
            up_q.push(arrival_time(i), i as i32);
        }
        let mut up = Echo(Vec::new());
        let up_summary = run(&mut up, &mut up_q, SimTime::MAX);

        let mut st_q = EventQueue::new();
        let base = st_q.reserve_seqs(N as u64);
        let mut source =
            StreamInjector::with_chunk(N, base, 16, arrival_time, |i| (arrival_time(i), i as i32));
        let mut st = Echo(Vec::new());
        let st_summary = run_streamed(&mut st, &mut st_q, &mut source, SimTime::MAX);

        assert_eq!(up.0, st.0, "event orders diverged");
        assert_eq!(up_summary.events, st_summary.events);
        assert_eq!(up_summary.end_time, st_summary.end_time);
        assert!(
            st_summary.peak_queue < up_summary.peak_queue,
            "streaming should shrink the peak ({} vs {})",
            st_summary.peak_queue,
            up_summary.peak_queue
        );
        // Upfront peak is O(N); streamed is O(chunk + in-flight).
        assert!(up_summary.peak_queue >= N);
        assert!(st_summary.peak_queue < 16 + 64);
    }

    #[test]
    fn streamed_tie_pops_reserved_seq_first() {
        // Arrival 1 lands at t=20ns, exactly when the echo of arrival 0 is
        // due. The arrival holds a reserved (smaller) seq, so it must pop
        // first — which requires the refill check to fire on ties.
        let times = [SimTime::from_ns(5), SimTime::from_ns(20)];
        let mut q = EventQueue::new();
        let base = q.reserve_seqs(2);
        let mut source =
            StreamInjector::with_chunk(2, base, 1, |i| times[i], |i| (times[i], i as i32));
        let mut w = Echo(Vec::new());
        run_streamed(&mut w, &mut q, &mut source, SimTime::MAX);
        let order: Vec<i32> = w.0.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 1000, 1001]);
    }

    #[test]
    fn streamed_respects_horizon() {
        const N: usize = 100;
        let mut q = EventQueue::new();
        let base = q.reserve_seqs(N as u64);
        let mut source =
            StreamInjector::with_chunk(N, base, 8, arrival_time, |i| (arrival_time(i), i as i32));
        let mut w = Echo(Vec::new());
        let horizon = SimTime::from_ns(100);
        let summary = run_streamed(&mut w, &mut q, &mut source, horizon);
        assert!(!summary.stopped_early);
        assert!(w.0.iter().all(|&(t, _)| t <= horizon));
        // The un-simulated remainder lives in queue + source together.
        assert!(source.next_time().is_some() || !q.is_empty());
    }

    /// Tags a far-future follow-up, 500 µs out (a bimodal long's
    /// completion); every other follow-up lands a few µs out.
    const FAR: u32 = 2_000_000;

    /// Counts handled events and the largest number of near events (not
    /// tagged [`FAR`]) found in the overflow after a handler ran. Arrival
    /// `e` (`e < 1_000_000`) pushes one follow-up: 500 µs out when
    /// `far_every` divides it, else `1 + e % 7` µs out.
    struct OverflowWatch {
        far_every: u32,
        handled: u64,
        max_near_overflow: usize,
    }
    impl World for OverflowWatch {
        type Event = u32;
        fn handle(&mut self, now: SimTime, e: u32, q: &mut EventQueue<u32>) {
            if e < 1_000_000 {
                if self.far_every > 0 && e.is_multiple_of(self.far_every) {
                    q.push(now + SimDuration::from_us(500), FAR + e);
                } else {
                    q.push(now + SimDuration::from_us(1 + e as u64 % 7), 1_000_000 + e);
                }
            }
            self.handled += 1;
            let near = q.overflow.iter().filter(|s| s.event < FAR).count();
            self.max_near_overflow = self.max_near_overflow.max(near);
        }
    }

    /// Arrivals up to 60 µs apart, so a full 1024-arrival chunk would span
    /// hundreds of windows and the ring drains between most arrivals.
    /// Injection must stop at the window end, the window must slide with
    /// each pop, and a drained ring must re-anchor at the next arrival
    /// rather than at a pending 500 µs completion. Then nothing but those
    /// completions ever waits in the overflow heap; without them, nothing
    /// at all does.
    #[test]
    fn sparse_streamed_run_overflows_only_far_events() {
        const N: usize = 3000;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut at = Vec::with_capacity(N);
        let mut t = 0u64;
        for _ in 0..N {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t += state % 60_000_000; // gap < 60 µs, in ps
            at.push(SimTime::from_ps(t));
        }
        for far_every in [0, 40] {
            let mut q = EventQueue::new();
            let base = q.reserve_seqs(N as u64);
            let mut source = StreamInjector::new(N, base, |i| at[i], |i| (at[i], i as u32));
            let mut w = OverflowWatch {
                far_every,
                handled: 0,
                max_near_overflow: 0,
            };
            let summary = run_streamed(&mut w, &mut q, &mut source, SimTime::MAX);
            assert_eq!(summary.events, 2 * N as u64);
            assert_eq!(w.handled, 2 * N as u64);
            assert_eq!(
                w.max_near_overflow, 0,
                "near events waited in the overflow (far completions every {far_every})"
            );
        }
    }

    /// A refused `pop_before` is invisible: with the ring populated and
    /// with only far-future overflow left (where it re-anchors the drained
    /// ring), `len`, `peek_time` and every later pop match an untouched
    /// copy.
    #[test]
    fn refused_pop_before_leaves_queue_unchanged() {
        let mut q = EventQueue::new();
        for (i, ns) in [40u64, 40, 55, 3_000, 900_000, 5_000_000]
            .into_iter()
            .enumerate()
        {
            q.push(SimTime::from_ns(ns), i);
        }
        // Pop through each stage, then refuse at the new minimum (a tie is
        // refused too) and halfway to it. After the 3 µs stage the ring has
        // drained and only overflow entries remain.
        for upto_ns in [0u64, 40, 3_000, 900_000] {
            while q
                .peek_time()
                .is_some_and(|t| t <= SimTime::from_ns(upto_ns))
            {
                q.pop();
            }
            let head = q.peek_time().expect("entries remain");
            for limit in [head, SimTime::from_ps(head.as_ps() / 2)] {
                let untouched = q.clone();
                assert!(q.pop_before(Some(limit)).is_none());
                assert_eq!(q.len(), untouched.len());
                assert_eq!(q.peek_time(), untouched.peek_time());
                let mut a = q.clone();
                let mut b = untouched;
                while let Some(got) = a.pop() {
                    assert_eq!(Some(got), b.pop());
                }
                assert!(b.is_empty());
            }
        }
        // A push behind the slid window waits in the overflow ahead of the
        // ring; the limit applies to it all the same.
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), 0);
        q.pop();
        q.push(SimTime::from_us(11), 1);
        q.push(SimTime::from_ns(3), 2);
        assert!(q.pop_before(Some(SimTime::from_ns(3))).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_before(Some(SimTime::from_ns(4))).map(|s| s.event),
            Some(2)
        );
    }

    #[test]
    fn reserved_seqs_interleave_with_dynamic_pushes() {
        let mut q = EventQueue::new();
        let base = q.reserve_seqs(2);
        let t = SimTime::from_ns(50);
        q.push(t, 100); // dynamic: seq 2
        q.push_at_seq(t, base + 1, 1);
        q.push_at_seq(t, base, 0);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 100]);
    }

    #[test]
    fn run_stops_early() {
        let mut w = StopAtThree(0);
        let mut q = EventQueue::new();
        for i in 1..=10 {
            q.push(SimTime::from_ns(i as u64), i);
        }
        let summary = run(&mut w, &mut q, SimTime::MAX);
        assert!(summary.stopped_early);
        assert_eq!(summary.events, 3);
        assert_eq!(q.len(), 7);
    }

    /// The adversarial dense-churn pattern from the calendar-queue bench:
    /// thousands of live events packed into ~2 µs. The adaptive geometry
    /// must narrow (bounding the within-bucket scans) while popping in
    /// exactly the oracle's order.
    #[test]
    fn dense_churn_narrows_and_matches_oracle() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64; // ps
        for _ in 0..4096 {
            let t = SimTime::from_ps(now + rng() % 2_000_000);
            cal.push(t, t);
            heap.push(t, t);
        }
        for _ in 0..20_000 {
            let (tc, ec) = cal.pop().expect("calendar");
            let (th, eh) = heap.pop().expect("heap");
            assert_eq!((tc, ec), (th, eh));
            now = tc.as_ps();
            let t = SimTime::from_ps(now + rng() % 2_000_000);
            cal.push(t, t);
            heap.push(t, t);
        }
        assert!(
            cal.bucket_width_log2() < DEFAULT_BUCKET_WIDTH_LOG2,
            "a 4k-event 2 µs horizon must trigger a narrowing rehash (width 2^{})",
            cal.bucket_width_log2()
        );
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), heap.pop());
        }
        assert!(heap.is_empty());
    }

    /// Every group's tick at one instant makes a bucket deeper than the
    /// narrowing limit that no width can split: narrowing it would only
    /// shrink the window, so the geometry must stay put.
    #[test]
    fn same_instant_burst_does_not_narrow() {
        let mut q = EventQueue::new();
        for i in 0..4 * NARROW_BUCKET_LIMIT {
            q.push(SimTime::from_ns(200), i);
        }
        q.push(SimTime::from_us(20), usize::MAX);
        for i in 0..4 * NARROW_BUCKET_LIMIT {
            assert_eq!(q.pop(), Some((SimTime::from_ns(200), i)));
            assert_eq!(q.bucket_width_log2(), DEFAULT_BUCKET_WIDTH_LOG2);
        }
        assert_eq!(q.pop(), Some((SimTime::from_us(20), usize::MAX)));
    }

    /// After a dense burst drains, normally-spaced traffic must widen the
    /// geometry back toward the construction width instead of staying in
    /// permanent overflow-heap mode.
    #[test]
    fn widens_back_after_dense_burst() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        // Dense burst: 4096 events inside 2 µs.
        for i in 0..4096u64 {
            let t = SimTime::from_ps(i * 488);
            cal.push(t, t);
            heap.push(t, t);
        }
        // Normal tail: one event every ~200 ns for 200 µs.
        for i in 0..1000u64 {
            let t = SimTime::from_ns(2_000 + i * 200);
            cal.push(t, t);
            heap.push(t, t);
        }
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), heap.pop());
        }
        assert!(heap.is_empty());
        assert_eq!(
            cal.bucket_width_log2(),
            DEFAULT_BUCKET_WIDTH_LOG2,
            "sparse traffic after the burst must widen the geometry back"
        );
    }

    /// Geometry adaptation is invisible to the pop order on arbitrary
    /// mixed-density interleavings (the oracle differential, densified).
    #[test]
    fn adaptive_geometry_matches_oracle_on_mixed_densities() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut state = 0x853c49e6748fea9bu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut now = 0u64;
        for step in 0..30_000u32 {
            // Alternate dense (sub-µs) and sparse (hundreds of µs) regimes.
            let span = if (step / 3_000) % 2 == 0 {
                800_000
            } else {
                400_000_000
            };
            let t = SimTime::from_ps(now + rng() % span);
            cal.push(t, t);
            heap.push(t, t);
            if step % 3 != 0 {
                let (tc, ec) = cal.pop().expect("calendar");
                assert_eq!(Some((tc, ec)), heap.pop());
                now = tc.as_ps();
            }
        }
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), heap.pop());
        }
        assert!(heap.is_empty());
    }
}
