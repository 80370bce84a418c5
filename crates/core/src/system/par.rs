//! The quiet-window parallel engine.
//!
//! One run alternates between two regimes, chosen window by window:
//!
//! 1. **Collect.** The main thread pops events off the global calendar
//!    queue (under the streaming-refill protocol of
//!    [`simcore::event::run_streamed`]) for as long as they are *quiet* —
//!    the healthy intra-group request lifecycle (`Enqueue` at a non-dormant
//!    group, `Deliver`, `WorkerDone`, `MgrOpDone`, `RecvDrained`). Quiet
//!    handlers touch only their own group plus three recordable channels
//!    (event pushes, telemetry spans, completions), so events of different
//!    partitions inside one window are independent. The first non-quiet
//!    event (tick, message, or a batch-size cap) becomes the window's
//!    **cut**.
//!
//! 2. **Execute.** Each partition's slice of the batch is shipped to a
//!    worker thread together with the partition's groups (moved out of the
//!    [`GroupStore`], no `unsafe`). The shard replays its events in exact
//!    `(time, seq)` order, running follow-up events scheduled strictly
//!    before the cut locally (a child min-heap ordered by `(time, birth
//!    ordinal)` — within one shard the ordinal order equals the seq order
//!    the serial run would have assigned). Everything observable is
//!    recorded: per event a [`WRec`] (its time plus how to recover its
//!    serial seq), per effect an [`ARec`].
//!
//! 3. **Commit.** The main thread merges the shards' record lists back
//!    into one serial history by ascending `(time, seq)` — batch events
//!    carry their original seq, children get theirs assigned at replay,
//!    which reproduces the exact values the serial loop would have used
//!    because seq reservation happens in serial order. Replay applies
//!    completions and telemetry spans in that order, pushes escaped events
//!    (those at or past the cut) into the real queue under their exact
//!    seqs, and maintains a *virtual ledger* of the serial queue occupancy
//!    so `RunSummary::peak_queue` and the stop-at-`trace.len()` cutoff are
//!    byte-identical to the serial engine. The cut event itself then runs
//!    through the ordinary serial handler.
//!
//! Windows too small to pay for the fan-out (or confined to a single
//! partition) are re-inserted and run serially under the same virtual
//! ledger. Fault plans never reach this module: [`super::Altocumulus`]
//! downgrades faulted runs to the serial engine wholesale.

use super::*;
use simcore::event::EventSource;
use simcore::parengine::with_pool;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Cap on the number of quiet events collected into one window. Bounds
/// shard memory and keeps the commit walk's child heap shallow.
const MAX_BATCH: usize = 4096;

/// Windows smaller than this are not worth two thread hops; they run
/// serially on the main thread instead.
const MIN_PAR_BATCH: usize = 64;

/// A follow-up event scheduled by a quiet handler strictly before the cut:
/// it belongs to the current window and is executed inside the shard.
/// Ordered as a min-heap on `(time, birth ordinal)`; within one shard the
/// birth order equals the order the serial run reserves seqs in, so this
/// tie-break is exactly the serial one.
struct ChildEv {
    at: SimTime,
    ord: u32,
    ev: Ev,
}

impl PartialEq for ChildEv {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ord == other.ord
    }
}
impl Eq for ChildEv {}
impl PartialOrd for ChildEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ChildEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so BinaryHeap (a max-heap) pops the earliest first.
        (other.at, other.ord).cmp(&(self.at, self.ord))
    }
}

/// How the commit walk recovers one shard event's serial seq.
#[derive(Debug, Clone, Copy)]
enum WKey {
    /// A batch event: popped off the real queue pre-window, seq known.
    Batch(u64),
    /// A window-local child: its seq is whatever the walk reserves when
    /// replaying its parent's push (`Cursor::assigned[ord]`).
    Child(u32),
}

/// One event a shard executed, in shard-local order.
#[derive(Debug, Clone, Copy)]
struct WRec {
    time: SimTime,
    key: WKey,
    /// Number of [`ARec`] entries this event produced.
    n_actions: u32,
}

/// One externally-visible effect of a shard event, recorded in exact
/// handler order for the commit walk to replay.
enum ARec {
    /// A push at or past the cut: goes into the real queue at replay,
    /// under the seq reserved at that exact serial position.
    Escaped { at: SimTime, ev: Ev },
    /// A push strictly before the cut: executed in-shard; replay only
    /// reserves its seq (keeping the global counter's serial evolution)
    /// and notes it for the child's own [`WRec`].
    Consumed,
    /// A finished request.
    Complete(Completion),
    /// A telemetry span point (recorded only when the sink is enabled).
    Span {
        track: u32,
        kind: u16,
        loc: u32,
        at: SimTime,
    },
}

/// Round-trip payload of one partition: filled with a batch by the main
/// thread, executed and annotated by a pool worker, drained by the commit
/// walk. Buffers persist across windows to amortize allocation.
struct Shard {
    part: usize,
    /// First group of the partition's contiguous range; group `g` lives at
    /// `groups[g - lo]`.
    lo: usize,
    groups: Vec<Group>,
    batch: Vec<(SimTime, u64, Ev)>,
    cut: SimTime,
    heap: BinaryHeap<ChildEv>,
    recs: Vec<WRec>,
    actions: Vec<ARec>,
    /// Event-record descriptors, aligned with `recs` — shards never retain
    /// the executed [`Ev`], so when a recording sink is attached each
    /// shard computes the `(kind, group, payload)` descriptor at execution
    /// and the commit walk emits it at the exact serial `(time, seq)`.
    /// Empty when the sink records no events.
    descs: Vec<(u8, u32, u64)>,
}

/// The shard-side [`QuietSink`]: records effects instead of applying them.
struct ShardSink<'a> {
    cut: SimTime,
    heap: &'a mut BinaryHeap<ChildEv>,
    next_ord: &'a mut u32,
    actions: &'a mut Vec<ARec>,
    tel_enabled: bool,
}

impl QuietSink for ShardSink<'_> {
    fn push(&mut self, at: SimTime, ev: Ev) {
        if at < self.cut {
            // Strictly before the cut: runs in this window. `at == cut`
            // must escape — the cut's seq predates every child seq, so the
            // serial order puts the cut first on that tie.
            self.heap.push(ChildEv {
                at,
                ord: *self.next_ord,
                ev,
            });
            *self.next_ord += 1;
            self.actions.push(ARec::Consumed);
        } else {
            self.actions.push(ARec::Escaped { at, ev });
        }
    }

    fn span(&mut self, track: u32, kind: u16, loc: u32, at: SimTime) {
        if self.tel_enabled {
            self.actions.push(ARec::Span {
                track,
                kind,
                loc,
                at,
            });
        }
    }

    fn complete(&mut self, c: Completion) {
        self.actions.push(ARec::Complete(c));
    }
}

/// Executes one shard on a pool worker: replays the batch merged with
/// window-local children in `(time, seq)` order, recording every effect.
fn run_shard(
    cfg: &AcConfig,
    trace: &Trace,
    intra: &Transfer,
    dispatch_op: SimDuration,
    tel_enabled: bool,
    rec_enabled: bool,
    mut sh: Shard,
) -> Shard {
    let env = QuietEnv {
        trace,
        cfg,
        intra_transfer: intra,
        dispatch_op,
        epochs: &[],
        mgr_dead: false,
        inflate: false,
    };
    sh.recs.clear();
    sh.actions.clear();
    sh.descs.clear();
    debug_assert!(sh.heap.is_empty(), "child heap leaked across windows");
    let mut next_ord = 0u32;
    let mut bi = 0usize;
    loop {
        let next_batch = sh.batch.get(bi).map(|&(t, s, _)| (t, s));
        let next_child = sh.heap.peek().map(|c| c.at);
        let (time, key, ev) = match (next_batch, next_child) {
            (None, None) => break,
            (Some((t, s)), nc) if nc.is_none_or(|tc| t <= tc) => {
                // Batch beats same-time children: every batch seq was
                // reserved before the window opened, every child seq after.
                let slot = &mut sh.batch[bi];
                let (_, _, ev) = std::mem::replace(slot, (SimTime::ZERO, 0, Ev::RecvDrained(0)));
                bi += 1;
                (t, WKey::Batch(s), ev)
            }
            _ => {
                let c = sh.heap.pop().expect("peeked a child");
                (c.at, WKey::Child(c.ord), c.ev)
            }
        };
        if rec_enabled {
            sh.descs.push(describe_slabless_ev(&ev));
        }
        let before = sh.actions.len();
        let mut sink = ShardSink {
            cut: sh.cut,
            heap: &mut sh.heap,
            next_ord: &mut next_ord,
            actions: &mut sh.actions,
            tel_enabled,
        };
        match ev {
            Ev::Enqueue(g, idx) => {
                let (g, idx) = (g as usize, idx as usize);
                env.enqueue(g, idx, time, &mut sh.groups[g - sh.lo], &mut sink)
            }
            Ev::Deliver(g, w, h) => {
                let (g, w) = (g as usize, w as usize);
                env.deliver(g, w, h, time, &mut sh.groups[g - sh.lo], &mut sink)
            }
            Ev::WorkerDone(g, w, _epoch) => {
                let (g, w) = (g as usize, w as usize);
                env.worker_done(g, w, time, &mut sh.groups[g - sh.lo], &mut sink)
            }
            Ev::MgrOpDone(g) => {
                let g = g as usize;
                env.mgr_op_done(g, time, &mut sh.groups[g - sh.lo], &mut sink)
            }
            Ev::RecvDrained(g) => {
                let grp = &mut sh.groups[g as usize - sh.lo];
                grp.recv_fifo = grp.recv_fifo.saturating_sub(1);
            }
            Ev::Tick(_) | Ev::Msg { .. } | Ev::Fault(_) => {
                unreachable!("serial-only event batched into a quiet window")
            }
        }
        sh.recs.push(WRec {
            time,
            key,
            n_actions: (sh.actions.len() - before) as u32,
        });
    }
    sh.batch.clear();
    sh
}

/// Virtual occupancy of the *serial* engine's queue, maintained so the
/// parallel run reports the exact `peak_queue` and refill schedule the
/// serial run would have. `len` counts every event the serial queue would
/// hold (including ones this engine popped early or never physically
/// pushed); `inj` is the serial injection cursor, which trails the real
/// one (physical refills during collection are invisible to the ledger and
/// replayed virtually at their serial positions).
struct Ledger {
    len: usize,
    peak: usize,
    inj: usize,
}

/// Replays, virtually, every chunk refill the serial loop would have done
/// before handling an event at `t`: the serial pop protocol refills while
/// the source watermark is `<= t` (ties refill; see `run_streamed`).
fn refill_virtual<L, M>(source: &StreamInjector<L, M>, v: &mut Ledger, t: SimTime)
where
    L: Fn(usize) -> SimTime,
{
    while v.inj < source.total() && source.bound_of(v.inj) <= t {
        let n = source.chunk().min(source.total() - v.inj);
        v.inj += n;
        v.len += n;
        v.peak = v.peak.max(v.len);
    }
}

/// One virtual chunk refill plus enough physical injection to keep the
/// real queue a superset of the virtual one.
fn virtual_chunk<L, M>(
    queue: &mut EventQueue<Ev>,
    source: &mut StreamInjector<L, M>,
    v: &mut Ledger,
) where
    L: Fn(usize) -> SimTime,
    M: FnMut(usize) -> (SimTime, Ev),
{
    let n = source.chunk().min(source.total() - v.inj);
    v.inj += n;
    v.len += n;
    while source.injected() < v.inj {
        source.inject_chunk(queue);
    }
    v.peak = v.peak.max(v.len);
}

/// Pops the next event under the serial engine's streaming protocol, but
/// gated on the *virtual* injection cursor, updating the ledger exactly as
/// the serial loop would. Returns `None` when queue and source are both
/// exhausted.
fn pop_virtual<L, M>(
    queue: &mut EventQueue<Ev>,
    source: &mut StreamInjector<L, M>,
    v: &mut Ledger,
) -> Option<(SimTime, u64, Ev)>
where
    L: Fn(usize) -> SimTime,
    M: FnMut(usize) -> (SimTime, Ev),
{
    loop {
        match queue.pop_with_seq() {
            Some((t, s, ev)) => {
                if v.inj >= source.total() || t < source.bound_of(v.inj) {
                    return Some((t, s, ev));
                }
                // The serial run would refill before committing to this
                // pop (a reserved stream seq outranks any dynamic push at
                // the same time).
                queue.push_at_seq(t, s, ev);
                virtual_chunk(queue, source, v);
            }
            None => {
                if v.inj >= source.total() {
                    return None;
                }
                virtual_chunk(queue, source, v);
            }
        }
    }
}

/// Per-shard commit-walk state.
#[derive(Default)]
struct Cursor {
    /// Next [`WRec`] to replay.
    ri: usize,
    /// Next [`ARec`] to replay.
    ai: usize,
    /// Serial seq assigned to child `ord` when its parent's push replayed.
    assigned: Vec<u64>,
}

fn resolve(key: &WKey, cur: &Cursor) -> u64 {
    match *key {
        WKey::Batch(s) => s,
        WKey::Child(ord) => cur.assigned[ord as usize],
    }
}

/// Is `ev` executable inside a quiet window? (Healthy runs only — the
/// engine never sees a non-empty fault plan.)
fn is_quiet<S: TelemetrySink>(ev: &Ev, world: &AcWorld<'_, S>) -> bool {
    match *ev {
        // An arrival at a dormant group must wake it (replaying elided
        // ticks) — a serial-only concern. Dormancy can't change inside a
        // window (only ticks and wakes flip it, and both cut), so this
        // collection-time check holds for the whole window. Dormancy lives
        // in the cold plane, read here on the main thread only.
        Ev::Enqueue(g, _) => !world.cold[g as usize].dormant,
        Ev::Deliver(..) | Ev::WorkerDone(..) | Ev::MgrOpDone(_) | Ev::RecvDrained(_) => true,
        Ev::Tick(_) | Ev::Msg { .. } | Ev::Fault(_) => false,
    }
}

/// Home group of a quiet event.
fn group_of(ev: &Ev) -> usize {
    match *ev {
        Ev::Enqueue(g, _)
        | Ev::Deliver(g, ..)
        | Ev::WorkerDone(g, ..)
        | Ev::MgrOpDone(g)
        | Ev::RecvDrained(g) => g as usize,
        Ev::Tick(_) | Ev::Msg { .. } | Ev::Fault(_) => {
            unreachable!("non-quiet event has no home partition")
        }
    }
}

/// The parallel engine's main loop. Byte-identical to
/// `run_streamed(world, queue, source, SimTime::MAX)` on the same inputs —
/// same completions in the same order, same telemetry, same seq evolution,
/// same [`RunSummary`] — as long as the fault plan is empty (enforced by
/// the caller's downgrade guard).
pub(super) fn run_windows<S, L, M>(
    world: &mut AcWorld<'_, S>,
    queue: &mut EventQueue<Ev>,
    source: &mut StreamInjector<L, M>,
    partitioning: &Partitioning,
) -> RunSummary
where
    S: TelemetrySink,
    L: Fn(usize) -> SimTime,
    M: FnMut(usize) -> (SimTime, Ev),
{
    let cfg = world.cfg;
    let trace = world.trace;
    let intra = world.intra_transfer;
    let dispatch_op = world.dispatch_op;
    let tel_enabled = world.tel.enabled();
    let rec_enabled = world.tel.records_events();
    let trace_len = trace.len();
    let nparts = partitioning.parts();

    let mut v = Ledger {
        len: queue.len(),
        peak: queue.len(),
        inj: 0,
    };
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    let mut stopped = false;

    let mut shells: Vec<Option<Shard>> = partitioning
        .ranges()
        .iter()
        .enumerate()
        .map(|(p, r)| {
            Some(Shard {
                part: p,
                lo: r.start,
                groups: Vec::new(),
                batch: Vec::new(),
                cut: SimTime::MAX,
                heap: BinaryHeap::new(),
                recs: Vec::new(),
                actions: Vec::new(),
                descs: Vec::new(),
            })
        })
        .collect();
    let mut curs: Vec<Cursor> = (0..nparts).map(|_| Cursor::default()).collect();
    let mut heads: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();

    let shard_fn = move |_w: usize, sh: Shard| {
        run_shard(
            cfg,
            trace,
            &intra,
            dispatch_op,
            tel_enabled,
            rec_enabled,
            sh,
        )
    };

    let debug_stats = std::env::var_os("PAR_DEBUG").is_some();
    let mut stat_windows = 0u64;
    let mut stat_win_events = 0u64;
    let mut stat_fallbacks = 0u64;
    let mut stat_fb_events = 0u64;
    let mut t_collect = std::time::Duration::ZERO;
    let mut t_exec = std::time::Duration::ZERO;
    let mut t_commit = std::time::Duration::ZERO;
    let mut t_mark = std::time::Instant::now();

    with_pool(nparts, shard_fn, |pool| {
        'run: loop {
            // ---- Collect: pop quiet events into per-partition batches ----
            let mut batch_total = 0usize;
            let mut active = 0usize;
            let cut: Option<(SimTime, u64, Ev)> = loop {
                // Physical streaming-pop protocol; refills here advance the
                // real cursor only — the ledger replays them virtually at
                // their serial positions during the commit walk.
                let popped = loop {
                    match queue.pop_with_seq() {
                        Some((t, s, ev)) => {
                            if source.next_time().is_none_or(|nt| t < nt) {
                                break Some((t, s, ev));
                            }
                            queue.push_at_seq(t, s, ev);
                            source.inject_chunk(queue);
                        }
                        None => {
                            if source.next_time().is_none() {
                                break None;
                            }
                            source.inject_chunk(queue);
                        }
                    }
                };
                let Some((t, s, ev)) = popped else { break None };
                if batch_total >= MAX_BATCH || !is_quiet(&ev, world) {
                    break Some((t, s, ev));
                }
                let p = partitioning.part_of(group_of(&ev));
                let sh = shells[p].as_mut().expect("shell in place");
                if sh.batch.is_empty() {
                    active += 1;
                }
                sh.batch.push((t, s, ev));
                batch_total += 1;
            };

            if debug_stats {
                t_collect += t_mark.elapsed();
                t_mark = std::time::Instant::now();
            }

            // ---- Small or single-partition window: run it serially ----
            if batch_total < MIN_PAR_BATCH || active < 2 {
                stat_fallbacks += 1;
                stat_fb_events += batch_total as u64;
                if batch_total == 0 {
                    // Cut-only window (a streak of serial-only events):
                    // handle it in place — it already popped in serial
                    // order, no reinsertion round-trip needed.
                    let Some((t, s, ev)) = cut else { break 'run };
                    debug_assert!(t >= now, "window went backwards in time");
                    refill_virtual(source, &mut v, t);
                    v.len -= 1;
                    world.observe(t, s, &ev);
                    world.handle(t, ev, queue);
                    events += 1;
                    now = t;
                    v.len = queue.len() - (source.injected() - v.inj);
                    v.peak = v.peak.max(v.len);
                    if world.completed >= trace_len {
                        stopped = true;
                        break 'run;
                    }
                    continue 'run;
                }
                for shell in &mut shells {
                    let sh = shell.as_mut().expect("shell in place");
                    for (t, s, ev) in sh.batch.drain(..) {
                        queue.push_at_seq(t, s, ev);
                    }
                }
                if let Some((t, s, ev)) = cut {
                    queue.push_at_seq(t, s, ev);
                }
                // Drain what was re-inserted (and whatever it spawns, up to
                // the same budget) under the virtual serial protocol.
                for _ in 0..batch_total + 1 {
                    let Some((t, s, ev)) = pop_virtual(queue, source, &mut v) else {
                        break 'run;
                    };
                    debug_assert!(t >= now, "window went backwards in time");
                    v.len -= 1;
                    world.observe(t, s, &ev);
                    world.handle(t, ev, queue);
                    events += 1;
                    now = t;
                    v.len = queue.len() - (source.injected() - v.inj);
                    v.peak = v.peak.max(v.len);
                    if world.completed >= trace_len {
                        stopped = true;
                        break 'run;
                    }
                }
                continue 'run;
            }

            // ---- Execute: fan the batches out to the pool ----
            stat_windows += 1;
            stat_win_events += batch_total as u64;
            let cut_time = cut.as_ref().map(|c| c.0).unwrap_or(SimTime::MAX);
            let mut in_flight = 0usize;
            for (p, shell) in shells.iter_mut().enumerate() {
                let idle = shell.as_ref().expect("shell in place").batch.is_empty();
                if idle {
                    // A partition sitting this window out still holds the
                    // records of the last window it ran; clear them so the
                    // commit walk below never replays stale history.
                    let sh = shell.as_mut().expect("shell in place");
                    sh.recs.clear();
                    sh.actions.clear();
                    sh.descs.clear();
                    continue;
                }
                let mut sh = shell.take().expect("shell in place");
                sh.cut = cut_time;
                sh.groups = world.groups.take_part(p);
                pool.send(p, sh);
                in_flight += 1;
            }
            for _ in 0..in_flight {
                let mut sh = pool.recv();
                world
                    .groups
                    .put_part(sh.part, std::mem::take(&mut sh.groups));
                let p = sh.part;
                shells[p] = Some(sh);
            }

            if debug_stats {
                t_exec += t_mark.elapsed();
                t_mark = std::time::Instant::now();
            }

            // ---- Commit: replay all shards on the serial (time, seq) order ----
            heads.clear();
            for (p, cur) in curs.iter_mut().enumerate() {
                cur.ri = 0;
                cur.ai = 0;
                cur.assigned.clear();
                let sh = shells[p].as_ref().expect("shell in place");
                if let Some(rec) = sh.recs.first() {
                    heads.push(Reverse((rec.time, resolve(&rec.key, cur), p)));
                }
            }
            while let Some(Reverse((t, seq, p))) = heads.pop() {
                debug_assert!(t >= now, "commit walk went backwards in time");
                refill_virtual(source, &mut v, t);
                v.len -= 1;
                let sh = shells[p].as_mut().expect("shell in place");
                let cur = &mut curs[p];
                let rec = sh.recs[cur.ri];
                if rec_enabled {
                    // The shard computed the descriptor at execution; emit
                    // it here, at the event's exact serial `(time, seq)`
                    // rank and before its effects replay — the same
                    // observe-before-handle order the serial engines use.
                    let (kind, group, payload) = sh.descs[cur.ri];
                    world.tel.event_record(t, seq, kind, group, payload);
                }
                for _ in 0..rec.n_actions {
                    let action = std::mem::replace(&mut sh.actions[cur.ai], ARec::Consumed);
                    cur.ai += 1;
                    match action {
                        ARec::Escaped { at, ev } => {
                            let s = queue.reserve_seqs(1);
                            queue.push_at_seq(at, s, ev);
                            v.len += 1;
                        }
                        ARec::Consumed => {
                            cur.assigned.push(queue.reserve_seqs(1));
                            v.len += 1;
                        }
                        ARec::Complete(c) => {
                            world.result.record(c);
                            world.completed += 1;
                        }
                        ARec::Span {
                            track,
                            kind,
                            loc,
                            at,
                        } => world.tel.span_point(track, kind, loc, at),
                    }
                }
                events += 1;
                now = t;
                v.peak = v.peak.max(v.len);
                if world.completed >= trace_len {
                    stopped = true;
                    break 'run;
                }
                cur.ri += 1;
                if let Some(next) = sh.recs.get(cur.ri) {
                    heads.push(Reverse((next.time, resolve(&next.key, cur), p)));
                }
            }

            // ---- The cut runs through the ordinary serial handler ----
            match cut {
                Some((t, s, ev)) => {
                    refill_virtual(source, &mut v, t);
                    v.len -= 1;
                    world.observe(t, s, &ev);
                    world.handle(t, ev, queue);
                    events += 1;
                    now = t;
                    v.len = queue.len() - (source.injected() - v.inj);
                    v.peak = v.peak.max(v.len);
                    if world.completed >= trace_len {
                        stopped = true;
                        break 'run;
                    }
                }
                None => break 'run,
            }
            debug_assert_eq!(
                v.len,
                queue.len() - (source.injected() - v.inj),
                "virtual ledger diverged from the real queue"
            );
            if debug_stats {
                t_commit += t_mark.elapsed();
                t_mark = std::time::Instant::now();
            }
        }
    });
    if debug_stats {
        eprintln!(
            "par: {stat_windows} windows ({stat_win_events} ev), \
             {stat_fallbacks} fallbacks ({stat_fb_events} ev), \
             collect {t_collect:?} exec {t_exec:?} commit {t_commit:?}"
        );
    }

    RunSummary {
        events,
        end_time: now,
        stopped_early: stopped,
        peak_queue: v.peak,
    }
}
