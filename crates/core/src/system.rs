//! The end-to-end Altocumulus system simulation.
//!
//! Wires together the decentralized software runtime (Algorithm 1), the
//! hardware messaging mechanism (Fig. 6/8) and the two-tier group topology
//! (global d-FCFS across manager NetRX queues, local c-FCFS within each
//! group) into one discrete-event model implementing
//! [`schedulers::common::RpcSystem`], so it can be compared head-to-head
//! with every baseline on identical traces.
//!
//! A run executes on one thread, in the serial [`run_streamed`] loop over
//! the calendar queue; parallelism lives across independent runs
//! (`simcore::parallel_map` over sweep cells and rack servers).

use crate::accounting::PredictedSet;
use crate::config::{AcConfig, Attachment, ControlPlane};
use crate::hw::messages::{Descriptor, Message};
use crate::hw::{RECV_FIFO_SLOTS, SEND_FIFO_SLOTS};
use crate::runtime::patterns::{
    guard_allows, plan_migrations_into, plan_patched_into, plan_threshold_only_into,
    MigrationOrder, PlanScratch, SharedExtremes,
};
use crate::runtime::predictor::LoadEstimator;
use crate::telemetry::span;
use interconnect::noc::MeshNoc;
use interconnect::offchip::MemoryModel;
use rpcstack::nic::{NicModel, Transfer};
use schedulers::common::{OccTable, QueuedRequest, RpcSystem, SystemResult};
use simcore::event::{run_streamed, EventQueue, RunSummary, StreamInjector, World};
use simcore::faults::{NocDecision, NocFaultRng};
use simcore::rng::{stream_rng, streams, BatchedRng, CountingRng};
use simcore::slab::{Handle, Slab};
use simcore::telemetry::{NullSink, Telemetry, TelemetrySink};
use simcore::time::{SimDuration, SimTime};
use simcore::trace::{fnv1a64_fold, Recorder};
use std::cell::Cell;
use std::collections::VecDeque;
use workload::request::Completion;
use workload::trace::Trace;

/// Counters describing the migration machinery's behaviour during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Runtime invocations across all managers.
    pub ticks: u64,
    /// MIGRATE messages sent.
    pub migrate_messages: u64,
    /// Requests that successfully landed at another manager.
    pub migrated_requests: u64,
    /// MIGRATE messages rejected with NACK.
    pub nacked_messages: u64,
    /// Requests bounced back by NACKs.
    pub nacked_requests: u64,
    /// UPDATE broadcasts sent (messages, not ticks).
    pub update_messages: u64,
    /// Migration orders suppressed by the Algorithm-1 line-8 guard.
    pub guard_blocked: u64,
    /// Requests that landed at each destination group (`migrated_requests`
    /// broken down by receiver; the sum equals `migrated_requests`).
    pub migrated_per_group: Vec<u64>,
    /// Trace indices of requests the predictor selected as likely SLO
    /// violators (whether or not the migration succeeded).
    pub predicted: PredictedSet,
}

/// Counters describing fault injection and graceful degradation during a
/// run. All zero on a healthy run (empty [`simcore::faults::FaultPlan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker cores that failed.
    pub worker_failures: u64,
    /// Manager cores that failed.
    pub manager_failures: u64,
    /// Failed-manager takeovers completed by a neighbor group.
    pub takeovers: u64,
    /// Requests returned to a NetRX queue by any recovery action (dead
    /// worker, migrate timeout, takeover adoption).
    pub resteered_requests: u64,
    /// Arrivals steered to a dead manager and redirected to its heir.
    pub redirected_arrivals: u64,
    /// Staged MIGRATEs declared lost after the resilience timeout.
    pub migrate_timeouts: u64,
    /// UPDATE messages dropped by the faulty NoC.
    pub updates_dropped: u64,
    /// Messages delayed by the faulty NoC.
    pub messages_delayed: u64,
    /// Migration orders skipped because the destination was dead or in
    /// NACK/timeout backoff.
    pub backoff_skipped: u64,
    /// Requests evacuated by the emergency drain (a group whose workers all
    /// died pushing its queue to a live peer).
    pub emergency_migrations: u64,
}

/// Per-stream RNG draw counts of one run. Part of the record/replay
/// provenance: two runs that execute identical event sequences must also
/// agree on these counts, so a replay that drifts in *randomness consumed*
/// is caught even when the latency output happens to match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RngDraws {
    /// Logical `u64` words drawn from the NIC steering stream
    /// ([`streams::NIC`]); counts the post-[`BatchedRng`] stream, so the
    /// number is independent of block prefetching.
    pub nic: u64,
    /// Decision draws made by the faulty-NoC decider
    /// ([`streams::FAULTS`]); `0` on healthy runs.
    pub faults: u64,
}

/// Result of an Altocumulus run: the standard [`SystemResult`] plus
/// migration accounting.
#[derive(Debug, Clone)]
pub struct AcResult {
    /// Latency/completion result, comparable with every baseline.
    pub system: SystemResult,
    /// Migration machinery counters.
    pub stats: MigrationStats,
    /// Event-loop accounting (events processed, peak queue population).
    pub summary: RunSummary,
    /// Fault-injection and recovery counters.
    pub faults: FaultStats,
    /// Label of the engine that drove the run, recorded as provenance in
    /// run artifacts. Always `"serial_event_driven"`: one run executes on
    /// one thread, and parallelism lives across independent runs.
    pub engine: &'static str,
    /// Per-stream RNG draw accounting.
    pub rng: RngDraws,
}

/// The simulated Altocumulus system.
#[derive(Debug, Clone)]
pub struct Altocumulus {
    cfg: AcConfig,
}

impl Altocumulus {
    /// Creates the system, validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`AcConfig::validate`]).
    pub fn new(cfg: AcConfig) -> Self {
        cfg.validate();
        Altocumulus { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcConfig {
        &self.cfg
    }

    /// Runs the full simulation, returning latency results plus migration
    /// statistics.
    ///
    /// Arrivals are injected *lazily* in chunks as virtual time advances
    /// (see [`StreamInjector`]): the event queue holds O(in-flight) events
    /// instead of the whole trace. Seqs for all arrivals are reserved up
    /// front in trace order, so the pop order — and therefore every result
    /// byte — is identical to the old upfront pre-push.
    pub fn run_detailed(&mut self, trace: &Trace) -> AcResult {
        // Monomorphized against the no-op sink: the compiled hot path is
        // the telemetry-free one, with zero extra instructions.
        self.run_with(trace, &mut NullSink)
    }

    /// Runs the full simulation while recording request-lifecycle spans and
    /// time-series probes into `tel`.
    ///
    /// Recording is *non-perturbing*: the sink only reads state the
    /// simulation already computed — it never pushes events, consumes RNG
    /// draws, or alters control flow — so the returned [`AcResult`] is
    /// byte-identical to [`run_detailed`](Self::run_detailed) on the same
    /// trace (pinned by the determinism tests in `crates/bench`). Export
    /// the capture with [`crate::telemetry::chrome_trace`],
    /// [`crate::telemetry::phase_table`] and
    /// [`simcore::telemetry::ProbeSet::to_jsonl`].
    pub fn run_traced(&mut self, trace: &Trace, tel: &mut Telemetry) -> AcResult {
        self.run_with(trace, tel)
    }

    /// Runs the full simulation while recording the executed event sequence
    /// (and, depending on [`Recorder`] granularity, the span log) into a
    /// [`Recorder`] for `TRACE/1.0` artifact export and first-divergence
    /// replay (see [`simcore::trace`]).
    ///
    /// Like [`run_traced`](Self::run_traced), recording is non-perturbing:
    /// the sink only observes `(time, seq, event)` ranks the engine already
    /// computed, so the returned [`AcResult`] is byte-identical to
    /// [`run_detailed`](Self::run_detailed) on the same trace.
    pub fn run_recorded(&mut self, trace: &Trace, rec: &mut Recorder) -> AcResult {
        self.run_with(trace, rec)
    }

    fn run_with<S: TelemetrySink>(&mut self, trace: &Trace, tel: &mut S) -> AcResult {
        let cfg = &self.cfg;
        let nic = NicModel::default();
        let attach_transfer = match cfg.attachment {
            Attachment::Integrated => Transfer::coherent(),
            Attachment::RssPcie => Transfer::pcie(),
        };
        let mut steering = cfg.steering.clone();
        // Batched: the xoshiro words are prefetched in blocks of 64. Every
        // steering draw derives from `next_u64`, so the draw sequence is
        // identical to the unbatched stream by construction. The counting
        // wrapper mirrors the *logical* draw count (not prefetched words)
        // into a cell the run can read back after the injector closure has
        // swallowed the generator.
        let nic_draws = Cell::new(0u64);
        let mut nic_rng = CountingRng::new(
            BatchedRng::new(stream_rng(cfg.seed, streams::NIC)),
            &nic_draws,
        );

        let mut queue = EventQueue::new();
        let base_seq = queue.reserve_seqs(trace.len() as u64);

        // With tenancy, a connection's requests only reach its tenant's
        // groups; otherwise the NIC hashes across all NetRX queues. The
        // per-tenant group lists are computed once, not per arrival.
        let tenant_groups: Vec<Vec<usize>> = match &cfg.tenancy {
            Some(t) => (0..t.tenants()).map(|tn| t.groups_of(tn)).collect(),
            None => Vec::new(),
        };
        let requests = trace.requests();
        let mac_delay = nic.mac_delay;
        let mut source = StreamInjector::new(
            trace.len(),
            base_seq,
            // The trace is sorted by arrival (enforced by `Trace::new`) and
            // the transfer latency is non-negative, so this lower bound is
            // non-decreasing and never exceeds the actual delivery time.
            |i: usize| requests[i].arrival + mac_delay,
            |i: usize| {
                let req = &requests[i];
                let g = match &cfg.tenancy {
                    Some(t) => {
                        let owned = &tenant_groups[t.tenant_of_conn(req.conn) as usize];
                        owned[steering.steer(req.conn, owned.len(), &mut nic_rng)]
                    }
                    None => steering.steer(req.conn, cfg.groups, &mut nic_rng),
                };
                let deliver = req.arrival + mac_delay + attach_transfer.latency(req.size_bytes);
                (deliver, Ev::Enqueue(g as u32, i as u32))
            },
        );

        let mem = MemoryModel::default();
        let runtime_cost = cfg.interface.runtime_cost(2 + cfg.concurrency as u32, 2.0);
        // Probe series exist only when a recording sink is attached; the
        // registration order (all series of group 0, then group 1, …) is
        // part of the export schema.
        let probe_ids: Vec<ProbeIds> = if tel.enabled() {
            (0..cfg.groups)
                .map(|g| ProbeIds {
                    netrx: tel.register_series("netrx_depth", g as u32),
                    workers: tel.register_series("worker_queue_depth", g as u32),
                    ewma: tel.register_series("ewma_erlangs", g as u32),
                    send: tel.register_series("send_fifo", g as u32),
                    recv: tel.register_series("recv_fifo", g as u32),
                    migrations: tel.register_series("migrate_sends", g as u32),
                })
                .collect()
        } else {
            Vec::new()
        };
        // Fault-layer state exists only for a non-empty plan; the extra
        // "fault_mark" probe series likewise, so healthy traced runs keep
        // the exact pre-fault-layer export schema.
        let faults: Option<Box<FaultState>> = if cfg.faults.is_empty() {
            None
        } else {
            let fault_probes = if tel.enabled() {
                (0..cfg.groups)
                    .map(|g| tel.register_series("fault_mark", g as u32))
                    .collect()
            } else {
                Vec::new()
            };
            Some(Box::new(FaultState {
                noc: cfg.faults.noc_rng(),
                dead: vec![vec![false; cfg.workers_per_group()]; cfg.groups],
                live_workers: cfg.groups * cfg.workers_per_group(),
                epoch: vec![vec![0; cfg.workers_per_group()]; cfg.groups],
                mgr_dead: vec![false; cfg.groups],
                heir: vec![None; cfg.groups],
                backoff: vec![vec![SimTime::ZERO; cfg.groups]; cfg.groups],
                pending: Vec::new(),
                migrate_timeout: cfg.resilience.migrate_timeout.or_else(|| {
                    (!cfg.faults.manager_failures.is_empty()).then(|| SimDuration::from_us(50))
                }),
                stats: FaultStats::default(),
                probe_ids: fault_probes,
            }))
        };
        let groups: Vec<Group> = (0..cfg.groups)
            .map(|_| Group {
                netrx: VecDeque::new(),
                stage_hint: 0,
                running: vec![None; cfg.workers_per_group()],
                waiting: vec![VecDeque::new(); cfg.workers_per_group()],
                occ: OccTable::new(cfg.workers_per_group()),
                busy: 0,
                slab: Slab::new(),
                mgr_busy_until: SimTime::ZERO,
                dispatch_pending: false,
                recv_fifo: 0,
                arrivals_since_tick: 0,
            })
            .collect();
        let cold: Vec<GroupCold> = (0..cfg.groups)
            .map(|_| GroupCold {
                q_view: vec![0; cfg.groups],
                estimator: LoadEstimator::new(cfg.mean_service, 0.2),
                mailbox: Vec::new(),
                tick_seq: 0,
                dormant: false,
                next_virtual_tick: SimTime::ZERO,
                send_inflight: 0,
                upd_cursor: 0,
                upd_pending: Vec::new(),
            })
            .collect();
        let noc = MeshNoc::new_square(cfg.total_cores() as u32);
        let topo = (0..cfg.groups)
            .map(|g| {
                let peers: Vec<usize> = match &cfg.tenancy {
                    Some(t) => t.groups_of(t.tenant_of_group(g)),
                    None => (0..cfg.groups).collect(),
                };
                let me_local = peers
                    .iter()
                    .position(|&j| j == g)
                    .expect("a group is always its own peer");
                let src_tile = g * cfg.group_size;
                // UPDATE delivery offsets are pure topology: header-sized
                // wire latency plus the injection-port stagger of the
                // broadcast slot. Folding them here keeps the per-tick
                // broadcast loop to one add per peer.
                let upd_bytes = Message::Update {
                    src: g,
                    queue_len: 0,
                }
                .wire_bytes();
                let update_offsets = peers
                    .iter()
                    .copied()
                    .filter(|&j| j != g)
                    .enumerate()
                    .map(|(i, dst)| {
                        let lat = noc.latency(src_tile, dst * cfg.group_size, upd_bytes);
                        (dst as u32, lat + injection_stagger(i))
                    })
                    .collect();
                GroupTopo {
                    peers,
                    me_local,
                    tile: src_tile,
                    update_offsets,
                }
            })
            .collect::<Vec<_>>();

        // Update-log mode (see `AcWorld::upd_log`): Elided control plane,
        // healthy, single-tenant. Faults would interpose per-destination
        // lossy-NoC draws; tenancy would shrink the peer set, breaking the
        // dense `slot(dst) = dst - (dst > src)` reconstruction.
        let upd_log_mode = cfg.control_plane == ControlPlane::Elided
            && cfg.faults.is_empty()
            && cfg.tenancy.is_none()
            && cfg.groups > 1;
        let upd_off_in: Vec<SimDuration> = if upd_log_mode {
            let mut m = vec![SimDuration::ZERO; cfg.groups * cfg.groups];
            for (src, t) in topo.iter().enumerate() {
                for &(dst, off) in &t.update_offsets {
                    m[dst as usize * cfg.groups + src] = off;
                }
            }
            m
        } else {
            Vec::new()
        };
        let upd_max_off = upd_off_in
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO);
        let upd_fast = upd_log_mode && upd_max_off < cfg.period;

        let mut world = AcWorld {
            trace,
            cfg,
            noc,
            dispatch_op: mem.remote_cache, // 70 cycles per manager dispatch op
            intra_transfer: Transfer::coherent(),
            groups,
            cold,
            msg_slab: Slab::new(),
            upd_log_mode,
            upd_log: VecDeque::new(),
            upd_base: 0,
            upd_off_in,
            upd_max_off,
            upd_fold_at: 1024.max(4 * cfg.groups),
            upd_fast,
            upd_gq: vec![0; if upd_fast { cfg.groups } else { 0 }],
            topo,
            scratch: TickScratch::default(),
            completed: 0,
            last_completed_at_tick: 0,
            stalled_ticks: 0,
            runtime_cost,
            tick_stride: runtime_cost + cfg.period,
            tick_block_instant: SimTime::ZERO,
            tick_block_base: 0,
            stats: MigrationStats {
                predicted: PredictedSet::with_capacity(trace.len()),
                migrated_per_group: vec![0; cfg.groups],
                ..MigrationStats::default()
            },
            result: SystemResult::with_capacity(trace.len()),
            tel,
            probe_ids,
            faults,
        };
        if cfg.migration_enabled && cfg.groups > 1 {
            let first = SimTime::ZERO + cfg.period;
            for g in 0..cfg.groups {
                world.schedule_next_tick(g, first, false, &mut queue);
            }
        }
        // Fault strikes from the plan. Pushed after the arrival-seq
        // reservation and the initial ticks, so with an empty plan (no
        // pushes) the queue's seq evolution is untouched.
        if world.faults.is_some() {
            for f in &cfg.faults.worker_failures {
                let g = f.core / cfg.group_size;
                let w = f.core % cfg.group_size - 1;
                queue.push(f.at, Ev::Fault(FaultEv::WorkerFail(g as u32, w as u32)));
            }
            for f in &cfg.faults.manager_failures {
                queue.push(f.at, Ev::Fault(FaultEv::ManagerFail(f.group as u32)));
            }
        }
        let summary = run_streamed(&mut world, &mut queue, &mut source, SimTime::MAX);
        world.finalize_idle_accounting(summary.end_time);
        let fault_stats = world.faults.as_ref().map(|f| f.stats).unwrap_or_default();
        let fault_draws = world
            .faults
            .as_ref()
            .and_then(|f| f.noc.as_ref())
            .map_or(0, |n| n.draws());
        AcResult {
            system: world.result,
            stats: world.stats,
            summary,
            faults: fault_stats,
            engine: "serial_event_driven",
            rng: RngDraws {
                nic: nic_draws.get(),
                faults: fault_draws,
            },
        }
    }
}

impl RpcSystem for Altocumulus {
    fn name(&self) -> String {
        format!(
            "{}({}x{})",
            self.cfg.attachment.label(),
            self.cfg.groups,
            self.cfg.group_size
        )
    }

    fn run(&mut self, trace: &Trace) -> SystemResult {
        self.run_detailed(trace).system
    }
}

/// Human-readable names of the event `kind` tags recorded into `TRACE/1.0`
/// artifacts, indexed by tag. The tag order mirrors the [`Ev`] variant
/// order and is part of the artifact schema — append, never reorder.
pub fn event_kind_names() -> &'static [&'static str] {
    &[
        "Enqueue",
        "Deliver",
        "WorkerDone",
        "MgrOpDone",
        "Tick",
        "Msg",
        "RecvDrained",
        "Fault",
    ]
}

/// Folds one protocol message into a content digest for event records.
/// Descriptor indices are folded individually, so a MIGRATE whose batch
/// differs by a single descriptor diverges.
fn msg_digest(msg: &Message) -> u64 {
    let mut h = 0;
    match msg {
        Message::Migrate {
            src,
            dst,
            descriptors,
            token,
        } => {
            h = fnv1a64_fold(h, 1);
            h = fnv1a64_fold(h, *src as u64);
            h = fnv1a64_fold(h, *dst as u64);
            h = fnv1a64_fold(h, *token);
            for d in descriptors {
                h = fnv1a64_fold(h, d.trace_idx as u64);
            }
        }
        Message::Update { src, queue_len } => {
            h = fnv1a64_fold(h, 2);
            h = fnv1a64_fold(h, *src as u64);
            h = fnv1a64_fold(h, *queue_len as u64);
        }
        Message::Ack {
            src,
            accepted,
            token,
        } => {
            h = fnv1a64_fold(h, 3);
            h = fnv1a64_fold(h, *src as u64);
            h = fnv1a64_fold(h, *accepted as u64);
            h = fnv1a64_fold(h, *token);
        }
        Message::Nack {
            src,
            descriptors,
            token,
        } => {
            h = fnv1a64_fold(h, 4);
            h = fnv1a64_fold(h, *src as u64);
            h = fnv1a64_fold(h, *token);
            for d in descriptors {
                h = fnv1a64_fold(h, d.trace_idx as u64);
            }
        }
    }
    h
}

/// The `(kind, group, payload)` descriptor of one executed event, as
/// recorded into `TRACE/1.0` artifacts (see [`event_kind_names`] for the
/// tag vocabulary). Message payloads are digested by content, and every
/// field the descriptor folds is part of the observable event sequence.
fn describe_ev(ev: &Ev, msg_slab: &Slab<Message>) -> (u8, u32, u64) {
    match ev {
        Ev::Enqueue(g, idx) => (0, *g, *idx as u64),
        Ev::Deliver(g, w, h) => (1, *g, ((*w as u64) << 32) | h.index() as u64),
        Ev::WorkerDone(g, w, epoch) => (2, *g, ((*w as u64) << 32) | *epoch as u64),
        Ev::MgrOpDone(g) => (3, *g, 0),
        Ev::Tick(g) => (4, *g, 0),
        // Observation runs before `handle` takes the payload out of the
        // arena, so the handle always resolves here.
        Ev::Msg { dst, msg, .. } => (5, *dst, msg_slab.get(*msg).map_or(0, msg_digest)),
        Ev::RecvDrained(g) => (6, *g, 0),
        Ev::Fault(fe) => {
            let (group, payload) = match fe {
                FaultEv::WorkerFail(g, w) => (*g, (1u64 << 32) | *w as u64),
                FaultEv::ManagerFail(g) => (*g, 2u64 << 32),
                FaultEv::Takeover(g) => (*g, 3u64 << 32),
                FaultEv::MigrateTimeout(id) => (u32::MAX, (4u64 << 32) | *id as u64),
            };
            (7, group, payload)
        }
    }
}

/// The event vocabulary, deliberately small and `Copy` (24 bytes): the
/// calendar queue's bucket min-scan cost is proportional to entry size, so
/// rare or bulky payloads live in slab arenas ([`simcore::slab::Slab`]) and
/// travel as 8-byte generation-checked [`Handle`]s — request metadata in the
/// owning group's arena, protocol messages in the world's.
#[derive(Clone, Copy)]
enum Ev {
    /// Request reaches its steered manager's NetRX queue.
    Enqueue(u32, u32),
    /// Dispatched request lands at worker `(group, worker)`. The handle
    /// resolves in the group's request arena (`Group::slab`).
    Deliver(u32, u32, Handle),
    /// Worker `(group, worker)` finished its request. The third field is
    /// the worker's liveness epoch at service start: a completion whose
    /// epoch no longer matches is stale — the worker died mid-service and
    /// the request was already resteered. Always `0` on healthy runs.
    WorkerDone(u32, u32, u32),
    /// Serialized manager operation (ACrss dispatch) completed.
    MgrOpDone(u32),
    /// Runtime period boundary for manager `group`.
    Tick(u32),
    /// Protocol message arrives at manager `dst`. Carries its own queue
    /// `seq` so a dormancy wake can replay the exact `(time, seq)`
    /// tie-break the event queue would have applied between this message
    /// and the destination's elided period timer (see
    /// [`AcWorld::wake_group`]).
    Msg {
        /// Destination manager.
        dst: u32,
        /// The queue sequence number this event was pushed under.
        seq: u64,
        /// Payload handle, resolved in the world's message arena
        /// (`AcWorld::msg_slab`).
        msg: Handle,
    },
    /// Receive-FIFO slot at manager `group` drained by the migrator.
    RecvDrained(u32),
    /// A scheduled fault strikes, or a fault-recovery timer fires. Only
    /// pushed when the configured [`simcore::faults::FaultPlan`] is
    /// non-empty.
    Fault(FaultEv),
}

/// Fault-plan events and recovery timers (see [`Ev::Fault`]).
#[derive(Clone, Copy)]
enum FaultEv {
    /// Worker `(group, worker)` fails permanently.
    WorkerFail(u32, u32),
    /// Manager of `group` fails permanently.
    ManagerFail(u32),
    /// A neighbor group adopts failed manager `group`'s NetRX queue.
    Takeover(u32),
    /// The resilience timeout for pending MIGRATE `id` expires.
    MigrateTimeout(u32),
}

/// The *hot* plane of one group: exactly the state the per-event request
/// lifecycle (`Enqueue`/`Deliver`/`WorkerDone`/`MgrOpDone`/`RecvDrained`)
/// reads and writes. Everything only the control plane (ticks, messages,
/// faults) touches lives in [`GroupCold`], a dense parallel `Vec` on
/// [`AcWorld`], keeping this struct — and therefore the cache footprint of
/// a hot handler — small.
struct Group {
    netrx: VecDeque<QueuedRequest>,
    /// Lower bound on the length of the already-migrated run at the tail of
    /// `netrx` (invariant: the last `min(stage_hint, len)` entries all have
    /// `migrated` set). Maintained by [`Group::push_netrx`] and
    /// [`stage_from_tail`]; front pops need no upkeep because consuming into
    /// the hinted region leaves a sub-suffix that is still all migrated.
    stage_hint: u32,
    running: Vec<Option<QueuedRequest>>,
    waiting: Vec<VecDeque<QueuedRequest>>,
    /// Maintained occupancy (`running + waiting + in-transit`) per worker,
    /// with dead workers marked. Kept in lockstep by the dispatch/done
    /// handlers instead of being recomputed per dispatch.
    occ: OccTable,
    /// Sum of `occ` over live workers plus in-transit descriptors headed at
    /// dead workers (which still bounce): the group's total outstanding
    /// work. Replaces three O(workers) scans in the quiescence check and
    /// the `worker_queue_depth` probe.
    busy: u32,
    /// Arena for in-flight request metadata: `Ev::Deliver` carries an
    /// 8-byte handle into this slab instead of a 32-byte `QueuedRequest`.
    slab: Slab<QueuedRequest>,
    mgr_busy_until: SimTime,
    dispatch_pending: bool,
    recv_fifo: usize,
    arrivals_since_tick: u64,
}

/// The *cold* plane of one group: state only the control plane — periodic
/// ticks, protocol messages, dormancy bookkeeping — ever touches. Stored as
/// a dense `Vec<GroupCold>` on [`AcWorld`], indexed by group id in lockstep
/// with the hot [`Group`] vector.
struct GroupCold {
    /// Latest known queue length of every manager (PR `q` vector).
    q_view: Vec<u32>,
    estimator: LoadEstimator,
    /// Elided control plane: UPDATE records parked for this group, applied
    /// lazily by [`AcWorld::drain_mailbox`] at the next tick instead of
    /// costing one simulator event each.
    mailbox: Vec<MailEntry>,
    /// Queue seq of this group's pending (or currently-running) `Ev::Tick`;
    /// the mailbox drain cutoff. Maintained in Elided mode only.
    tick_seq: u64,
    /// True while the group sits in idle-tick fast-forward: no timer event
    /// is scheduled, and `next_virtual_tick` tracks where the period
    /// lattice would fire next.
    dormant: bool,
    /// Next period boundary this group would tick at; valid while
    /// `dormant`.
    next_virtual_tick: SimTime,
    send_inflight: usize,
    /// Update-log mode: absolute index of the first `AcWorld::upd_log`
    /// record this group has not examined yet.
    upd_cursor: u64,
    /// Update-log mode: reconstructed deliveries that were still in flight
    /// at the last drain (their `(deliver_at, seq)` key at or past the
    /// tick's cutoff), parked for a later tick. Older log positions than
    /// `upd_cursor`, so draining pending-then-log preserves seq order.
    upd_pending: Vec<MailEntry>,
}

/// One elided UPDATE delivery parked in a destination mailbox.
///
/// `(deliver_at, seq)` is exactly the `(time, seq)` key the legacy
/// `Ev::Msg` event would have popped under — the seq is reserved from the
/// event queue at send time — so comparing it against the draining tick's
/// `(now, tick_seq)` reproduces the event-based application order
/// bit-for-bit, including same-instant ties.
#[derive(Debug, Clone, Copy)]
struct MailEntry {
    deliver_at: SimTime,
    seq: u64,
    src: u32,
    queue_len: u32,
}

/// One tick's whole UPDATE broadcast as a single shared log record
/// (healthy single-tenant Elided runs only — see `AcWorld::upd_log`).
///
/// The sender reserves the full block of `groups - 1` seqs at once
/// (identical counter evolution to the per-peer reservations it replaces);
/// a destination `dst` reconstructs its own virtual delivery exactly:
/// `seq = base_seq + slot(dst)` where `slot` is `dst`'s position in the
/// sender's broadcast order, and `deliver_at = send_time +` the
/// precomputed per-pair offset. Broadcasting is thereby O(1) per tick
/// instead of O(groups) mailbox pushes.
#[derive(Debug, Clone, Copy)]
struct UpdRec {
    send_time: SimTime,
    base_seq: u64,
    src: u32,
    queue_len: u32,
}

impl Group {
    /// Pushes onto NetRX, maintaining the `stage_hint` tail-run invariant:
    /// a migrated entry extends the known run, anything else breaks it.
    fn push_netrx(&mut self, qr: QueuedRequest) {
        self.stage_hint = if qr.migrated { self.stage_hint + 1 } else { 0 };
        self.netrx.push_back(qr);
    }
}

/// Per-group constants computed once at world construction so the periodic
/// runtime never rebuilds peer lists or recomputes tile ids.
struct GroupTopo {
    /// Managers this group exchanges UPDATE/MIGRATE with (its tenant's
    /// partition, or every group without tenancy). Includes the group itself.
    peers: Vec<usize>,
    /// This group's index within `peers`.
    me_local: usize,
    /// Mesh tile of the group's manager core.
    tile: usize,
    /// UPDATE broadcast schedule: `(dst, wire latency + port stagger)` per
    /// peer slot, in send order. Latency for a header-sized message is a
    /// pure function of the mesh, so the per-tick loop just adds.
    update_offsets: Vec<(u32, SimDuration)>,
}

/// Reusable buffers for [`AcWorld::runtime_tick`]. Ticks run one at a time,
/// so a single set shared by all groups suffices; after warmup every tick
/// works entirely inside these capacities and allocates nothing.
#[derive(Default)]
struct TickScratch {
    /// Snapshot of the manager's `q` vector for this tick.
    q_view: Vec<u32>,
    /// `q_view` projected onto the tenant-local peer list.
    local_q: Vec<u32>,
    /// This tick's migration plan.
    orders: Vec<MigrationOrder>,
    /// Descriptors staged from the NetRX tail for one MIGRATE message.
    staged: Vec<Descriptor>,
    /// Planner-internal rank/sort buffers.
    plan: PlanScratch,
    /// Fast-mode shared planner extremes, ranked over the shared PR view
    /// once per tick instant and patched per group (`ext_instant` tags the
    /// instant they were computed for).
    shared_ext: SharedExtremes,
    ext_instant: SimTime,
    /// Buffers for the debug-build differential check of the patched
    /// planner against the full-scan oracle (reused so the allocation
    /// gates hold in debug too).
    #[allow(dead_code)]
    oracle_orders: Vec<MigrationOrder>,
    #[allow(dead_code)]
    oracle_plan: PlanScratch,
}

/// Pops up to `count` not-yet-migrated requests from the *tail* of `netrx`
/// (the paper migrates from Tail) into `staged`, passing over entries that
/// already migrated once. `allow_remigrate` lifts the at-most-once
/// restriction; only the emergency drain (every worker of the holding group
/// dead) uses it, since leaving a once-migrated request in a workerless
/// group would strand it forever.
///
/// `hint` is the group's [`Group::stage_hint`]: at least the last
/// `min(hint, len)` entries of `netrx` are already-migrated. Because landed
/// migrations can never re-migrate, a busy destination accumulates a long
/// unmigratable tail; the hint lets staging step over it in O(1) instead of
/// re-walking it on every planned order. Staging removes entries *between*
/// migrated ones in place, which closes the gaps — so every entry walked
/// over joins the known-migrated tail run and the hint only grows until the
/// next non-migrated NetRX push resets it.
fn stage_from_tail(
    netrx: &mut VecDeque<QueuedRequest>,
    trace: &Trace,
    count: usize,
    staged: &mut Vec<Descriptor>,
    hint: &mut u32,
    allow_remigrate: bool,
) {
    staged.clear();
    let skip = if allow_remigrate {
        0
    } else {
        (*hint as usize).min(netrx.len())
    };
    debug_assert!(
        netrx.iter().rev().take(skip).all(|qr| qr.migrated),
        "stage_hint must only cover migrated entries"
    );
    // One past the deepest candidate still worth examining.
    let mut idx = netrx.len() - skip;
    let mut walked = 0u32;
    while staged.len() < count && idx > 0 {
        idx -= 1;
        if netrx[idx].migrated && !allow_remigrate {
            walked += 1;
            continue;
        }
        // Removing below the walked-over entries shifts only indices above
        // `idx`, so the downward walk stays valid and the relative order of
        // everything left in the queue is preserved.
        let qr = netrx.remove(idx).expect("index in range");
        staged.push(Descriptor {
            id: trace.requests()[qr.idx].id,
            trace_idx: qr.idx,
            first_enqueued: qr.enqueued,
        });
    }
    *hint = if allow_remigrate {
        // Emergency staging consumes migrated entries too; whatever tail
        // run survives is unknown now.
        0
    } else {
        (skip + walked as usize) as u32
    };
}

/// Lifecycle of one tracked (timeout-armed) MIGRATE exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingState {
    /// Sent; neither landed at the destination nor timed out yet.
    Outstanding,
    /// Landed (accepted) at the destination, or its NACK reached us — the
    /// exchange is settled and the timeout is a no-op.
    Resolved,
    /// The timeout fired first: the source resteered the descriptors, and
    /// any late MIGRATE/ACK/NACK carrying this token is dropped to keep
    /// delivery at-most-once.
    TimedOut,
}

/// Sender-side record of one in-flight MIGRATE, kept only while the
/// resilience migrate-timeout is armed. The descriptors are a clone of the
/// message payload so a timeout can resteer them without the message.
#[derive(Debug)]
struct PendingMigrate {
    src: usize,
    dst: usize,
    descriptors: Vec<Descriptor>,
    state: PendingState,
}

/// All mutable fault-layer state. Boxed behind an `Option` that is `None`
/// exactly when the configured plan is empty, so healthy runs allocate
/// nothing and branch only on the discriminant.
struct FaultState {
    /// NoC drop/delay decider (its RNG stream is isolated from the
    /// workload's).
    noc: Option<NocFaultRng>,
    /// Dead flags per `[group][worker]`.
    dead: Vec<Vec<bool>>,
    /// Workers not yet dead, over every group. At zero no request can ever
    /// complete again, so the managers stop re-arming their timers.
    live_workers: usize,
    /// Liveness epoch per `[group][worker]`; bumped on death so in-flight
    /// `WorkerDone` events from the pre-death service are recognized stale.
    epoch: Vec<Vec<u32>>,
    /// Dead flags per manager.
    mgr_dead: Vec<bool>,
    /// Takeover heir of each dead manager, once elected.
    heir: Vec<Option<usize>>,
    /// `backoff[src][dst]`: until when `src` refuses to plan migrations to
    /// `dst` (NACK-storm / timeout backoff).
    backoff: Vec<Vec<SimTime>>,
    /// Timeout-tracked MIGRATE exchanges, indexed by token - 1.
    pending: Vec<PendingMigrate>,
    /// Effective migrate timeout: the configured resilience value, or a
    /// 50 µs default whenever the plan kills managers (a MIGRATE to a dead
    /// manager would otherwise leak its send-FIFO slot forever).
    migrate_timeout: Option<SimDuration>,
    stats: FaultStats,
    /// Per-group "fault_mark" probe series; registered only when both
    /// telemetry and the fault plan are active, so the healthy export
    /// schema is unchanged.
    probe_ids: Vec<u32>,
}

/// Probe-series ids of one group, handed back by the sink at registration.
#[derive(Debug, Clone, Copy)]
struct ProbeIds {
    netrx: u32,
    workers: u32,
    ewma: u32,
    send: u32,
    recv: u32,
    migrations: u32,
}

struct AcWorld<'t, S: TelemetrySink> {
    trace: &'t Trace,
    cfg: &'t AcConfig,
    noc: MeshNoc,
    dispatch_op: SimDuration,
    intra_transfer: Transfer,
    groups: Vec<Group>,
    /// Cold per-group state, parallel to `groups` by id. Only control-plane
    /// code (ticks, messages, faults, dormancy) touches it.
    cold: Vec<GroupCold>,
    /// Arena for protocol-message payloads: `Ev::Msg` carries an 8-byte
    /// handle into this slab instead of an inline [`Message`] (whose
    /// MIGRATE variant owns a descriptor `Vec`).
    msg_slab: Slab<Message>,
    /// True when UPDATE broadcasts ride the shared log ([`UpdRec`]) instead
    /// of per-destination mailbox pushes: Elided control plane, no fault
    /// plan (no lossy-NoC draws), no tenancy (every group peers with every
    /// other). The mailbox path remains for everything else.
    upd_log_mode: bool,
    /// The shared UPDATE log, ordered by (non-decreasing) send time; one
    /// record per tick broadcast. Destinations consume it lazily through
    /// their `GroupCold::upd_cursor`.
    upd_log: VecDeque<UpdRec>,
    /// Absolute log index of `upd_log.front()` (the fold compaction drops
    /// consumed prefixes without renumbering cursors).
    upd_base: u64,
    /// Transposed delivery-offset matrix, `[dst * groups + src]` = wire
    /// latency + injection stagger of the `src → dst` UPDATE slot. Lets a
    /// destination reconstruct `deliver_at` with one add.
    upd_off_in: Vec<SimDuration>,
    /// Largest entry of `upd_off_in`: records older than `now - max` are
    /// deliverable everywhere and thus foldable.
    upd_max_off: SimDuration,
    /// Log length that triggers a fold compaction.
    upd_fold_at: usize,
    /// Fast drain eligibility: `upd_max_off < period`. Ticks live on a
    /// shared lattice (`period + k·stride`), so every record from a previous
    /// instant then has `deliver_at` *strictly* before any current tick —
    /// no seq tiebreaks, no in-flight parking — and every group's PR view
    /// coincides with one shared array. The drain collapses to a single
    /// per-instant pass over the log ([`Self::drain_update_log_fast`])
    /// instead of one cursor walk per group.
    upd_fast: bool,
    /// Fast-mode shared PR view: last broadcast queue length per source
    /// over all records with `send_time < now`. A ticking group snapshots
    /// this and overlays its own live queue length.
    upd_gq: Vec<u32>,
    topo: Vec<GroupTopo>,
    scratch: TickScratch,
    completed: usize,
    last_completed_at_tick: usize,
    stalled_ticks: u64,
    /// Cost of one runtime invocation through the sw/hw interface; constant
    /// per configuration (status read, update, `concurrency` sends).
    runtime_cost: SimDuration,
    /// Spacing of consecutive ticks of one group: the period is measured
    /// from the *end* of each invocation, so the lattice stride is
    /// `runtime_cost + period`. Every group ticks on the same lattice.
    tick_stride: SimDuration,
    /// Elided mode: the instant the current tick-seq block was reserved
    /// for, and its first seq. Group `g`'s tick at that instant uses slot
    /// `base + g`, so same-instant ticks pop in ascending group order — the
    /// legacy invariant — even when a group re-arms mid-period out of a
    /// dormancy wake.
    tick_block_instant: SimTime,
    tick_block_base: u64,
    stats: MigrationStats,
    result: SystemResult,
    /// Telemetry receiver. Generic so the disabled case ([`NullSink`])
    /// monomorphizes every hook away; hooks must only *read* simulation
    /// state (the non-perturbation invariant).
    tel: &'t mut S,
    /// Per-group probe-series ids; empty when the sink is disabled.
    probe_ids: Vec<ProbeIds>,
    /// Fault-layer state; `None` exactly when the plan is empty, which is
    /// the byte-identity guarantee: every fault branch hides behind this
    /// discriminant.
    faults: Option<Box<FaultState>>,
}

/// Serialization of back-to-back message injections from one runtime
/// invocation: each send occupies the manager tile's NoC injection port for
/// one 16 B flit time (~3 ns), so the `slot`-th message leaves that much
/// later.
///
/// `slot` counts *planned* send slots, not messages actually emitted: in
/// the MIGRATE loop a guard-blocked or empty-staged order keeps its slot,
/// and later sends do not compact forward (the send engine arms per-order
/// FIFO slots when the plan is drawn up, before the guard's register
/// compare resolves, and the port arbiter walks the slots at fixed
/// cadence). Audited in the manager-plane elision PR and pinned by
/// `stagger_is_per_planned_order`.
fn injection_stagger(slot: usize) -> SimDuration {
    SimDuration::from_ns(3) * slot as u64
}

/// Pushes a protocol-message event that carries its own queue seq, so a
/// dormancy wake can replay the exact `(time, seq)` tie-break the queue
/// would have applied (see [`AcWorld::wake_group`]). Consumes exactly one
/// seq — identical counter evolution to a plain `push`. The payload parks
/// in the message arena; the event carries only its handle.
fn push_msg(
    msgs: &mut Slab<Message>,
    q: &mut EventQueue<Ev>,
    at: SimTime,
    dst: usize,
    msg: Message,
) {
    let seq = q.reserve_seqs(1);
    let msg = msgs.insert(msg);
    q.push_at_seq(
        at,
        seq,
        Ev::Msg {
            dst: dst as u32,
            seq,
            msg,
        },
    );
}

/// [`AcWorld::send_msg`] as a free function over just the fault state, so
/// call sites holding borrows of other `AcWorld` fields (the tick's scratch
/// buffers) can still route sends through the faulty NoC. Without NoC faults
/// this is exactly [`push_msg`]. UPDATEs ride the lossy gossip channel (drop
/// or delay); MIGRATE/ACK/NACK ride the reliable channel (delay only) — loss
/// of those is modelled solely by dead destination tiles, which the
/// resilience timeout recovers from.
fn send_msg_via(
    faults: &mut Option<Box<FaultState>>,
    msgs: &mut Slab<Message>,
    q: &mut EventQueue<Ev>,
    at: SimTime,
    dst: usize,
    msg: Message,
) {
    let decision = match faults.as_mut().and_then(|f| f.noc.as_mut()) {
        None => NocDecision::Deliver,
        Some(noc) => match msg {
            Message::Update { .. } => noc.lossy(),
            _ => noc.reliable(),
        },
    };
    match decision {
        NocDecision::Deliver => push_msg(msgs, q, at, dst, msg),
        NocDecision::Drop => {
            faults
                .as_mut()
                .expect("fault decision")
                .stats
                .updates_dropped += 1;
        }
        NocDecision::Delay(d) => {
            faults
                .as_mut()
                .expect("fault decision")
                .stats
                .messages_delayed += 1;
            push_msg(msgs, q, at + d, dst, msg);
        }
    }
}

/// Core id of worker `w` in group `g` (the id completions report).
fn worker_core(cfg: &AcConfig, g: usize, w: usize) -> u32 {
    (g * cfg.group_size + 1 + w) as u32
}

impl<S: TelemetrySink> AcWorld<'_, S> {
    /// Total on-core cost for trace request `idx`.
    fn total_cost(&self, idx: usize) -> SimDuration {
        let req = &self.trace.requests()[idx];
        self.cfg.stack.rx(req.size_bytes) + req.service + self.cfg.stack.tx(64)
    }

    /// Mesh tile of a manager core.
    fn mgr_tile(&self, g: usize) -> usize {
        g * self.cfg.group_size
    }

    fn elided(&self) -> bool {
        self.cfg.control_plane == ControlPlane::Elided
    }

    /// Dead-worker flags of group `g`; the empty slice on healthy runs.
    fn dead_of(&self, g: usize) -> &[bool] {
        match &self.faults {
            Some(f) => &f.dead[g],
            None => &[],
        }
    }

    /// True when group `g`'s manager has failed.
    fn mgr_is_dead(&self, g: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.mgr_dead[g])
    }

    /// Liveness epoch of worker `(g, w)`; `0` on healthy runs.
    fn epoch_of(&self, g: usize, w: usize) -> u32 {
        self.faults.as_ref().map_or(0, |f| f.epoch[g][w])
    }

    /// Follows the takeover-heir chain from `g` to the group currently
    /// responsible for its NetRX queue. Identity on healthy runs, and for a
    /// dead group whose takeover has not completed yet (its queue is
    /// adopted wholesale when it does).
    fn live_group(&self, mut g: usize) -> usize {
        if let Some(fs) = &self.faults {
            while fs.mgr_dead[g] {
                match fs.heir[g] {
                    Some(h) => g = h,
                    None => break,
                }
            }
        }
        g
    }

    /// Samples group `g`'s "fault_mark" probe series with a fault-kind code
    /// (1 = worker fail, 2 = manager fail, 3 = takeover, 4 = migrate
    /// timeout). No-op unless both telemetry and the fault plan are active.
    fn fault_mark(&mut self, g: usize, now: SimTime, code: f64) {
        if self.tel.enabled() {
            if let Some(fs) = &self.faults {
                if !fs.probe_ids.is_empty() {
                    self.tel.probe(fs.probe_ids[g], now, code);
                }
            }
        }
    }

    /// Sends a protocol message through the (possibly faulty) NoC. Without
    /// NoC faults this is exactly [`push_msg`]. UPDATEs ride the lossy
    /// gossip channel (drop or delay); MIGRATE/ACK/NACK ride the reliable
    /// channel (delay only) — loss of those is modelled solely by dead
    /// destination tiles, which the resilience timeout recovers from.
    fn send_msg(&mut self, q: &mut EventQueue<Ev>, at: SimTime, dst: usize, msg: Message) {
        send_msg_via(&mut self.faults, &mut self.msg_slab, q, at, dst, msg);
    }

    /// Applies every mailboxed UPDATE whose legacy event would have popped
    /// before this tick — `(deliver_at, seq) < (now, tick_seq)` — in seq
    /// order (the mailbox is append-ordered by seq). Records still in
    /// flight stay parked for a later tick.
    fn drain_mailbox(&mut self, g: usize, now: SimTime) {
        let c = &mut self.cold[g];
        if c.mailbox.is_empty() {
            return;
        }
        let cutoff = (now, c.tick_seq);
        let mut kept = 0;
        for i in 0..c.mailbox.len() {
            let e = c.mailbox[i];
            if (e.deliver_at, e.seq) < cutoff {
                c.q_view[e.src as usize] = e.queue_len;
            } else {
                c.mailbox[kept] = e;
                kept += 1;
            }
        }
        c.mailbox.truncate(kept);
    }

    /// Fast-mode drain (`upd_max_off < period`): consumes every log record
    /// from previous tick instants into the shared PR view, once per
    /// instant (the first ticking group pays it; peers at the same instant
    /// find the log already at the frontier).
    ///
    /// Exactness: ticks live on the lattice `period + k·stride`, so a
    /// record with `send_time < now` was sent at least a stride ago and
    /// `deliver_at ≤ send_time + max_off < send_time + period ≤ now`
    /// strictly — deliverable to *every* destination with no seq
    /// comparison. A record with `send_time ≥ now` has `deliver_at > now`
    /// (positive offsets) — deliverable to none. Applying in log order is
    /// the mailbox's append-by-seq order, so last-writer-wins per source
    /// leaves the identical view the per-destination drains would.
    fn drain_update_log_fast(&mut self, now: SimTime) {
        while let Some(&rec) = self.upd_log.front() {
            if rec.send_time >= now {
                break;
            }
            self.upd_gq[rec.src as usize] = rec.queue_len;
            self.upd_log.pop_front();
        }
    }

    /// Update-log counterpart of [`Self::drain_mailbox`]: walks group `g`'s
    /// cursor over the shared log, reconstructing each record's
    /// `(deliver_at, seq)` for this destination and applying it against the
    /// same `(now, tick_seq)` cutoff. Parked pending entries (older log
    /// positions, hence smaller seqs) are retried first, so applications
    /// happen in exactly the mailbox's append-by-seq order.
    fn drain_update_log(&mut self, g: usize, now: SimTime) {
        let groups_n = self.cold.len();
        let c = &mut self.cold[g];
        let cutoff = (now, c.tick_seq);
        if !c.upd_pending.is_empty() {
            let mut kept = 0;
            for i in 0..c.upd_pending.len() {
                let e = c.upd_pending[i];
                if (e.deliver_at, e.seq) < cutoff {
                    c.q_view[e.src as usize] = e.queue_len;
                } else {
                    c.upd_pending[kept] = e;
                    kept += 1;
                }
            }
            c.upd_pending.truncate(kept);
        }
        let mut idx = (c.upd_cursor - self.upd_base) as usize;
        while let Some(&rec) = self.upd_log.get(idx) {
            // The log is send-time-sorted and delivery offsets are strictly
            // positive (distinct tiles, ≥ 1 hop), so a record sent at or
            // after `now` cannot beat this tick's cutoff — nor can any
            // later one. Stop; the cursor stays on the frontier.
            if rec.send_time >= now {
                break;
            }
            idx += 1;
            let src = rec.src as usize;
            if src == g {
                continue;
            }
            let slot = if g < src { g } else { g - 1 };
            let seq = rec.base_seq + slot as u64;
            let deliver_at = rec.send_time + self.upd_off_in[g * groups_n + src];
            if (deliver_at, seq) < cutoff {
                c.q_view[src] = rec.queue_len;
            } else {
                c.upd_pending.push(MailEntry {
                    deliver_at,
                    seq,
                    src: rec.src,
                    queue_len: rec.queue_len,
                });
            }
        }
        c.upd_cursor = self.upd_base + idx as u64;
    }

    /// Bounds the shared log: every record old enough to be deliverable
    /// everywhere (`send_time + max offset < now`) is folded directly into
    /// the PR views of the groups still behind it — dormant laggards whose
    /// cursors would otherwise pin the log — and the prefix is dropped.
    ///
    /// Early application is exact. A folded record's delivery key is
    /// strictly below any future tick's cutoff (its `deliver_at < now ≤`
    /// that tick's `now`), so the laggard's next drain would have applied
    /// it anyway; last-writer-wins per source makes the in-order direct
    /// writes equivalent. Ordering against parked pending entries holds
    /// because an older same-source pending entry has an even smaller
    /// `deliver_at`, hence is also past due and flushes first.
    fn fold_update_log(&mut self, now: SimTime) {
        let max_off = self.upd_max_off;
        let point = self
            .upd_log
            .partition_point(|r| r.send_time + max_off < now);
        if point == 0 {
            return;
        }
        let fold_to = self.upd_base + point as u64;
        for g in 0..self.cold.len() {
            let c = &mut self.cold[g];
            if c.upd_cursor >= fold_to {
                continue;
            }
            if !c.upd_pending.is_empty() {
                let mut kept = 0;
                for i in 0..c.upd_pending.len() {
                    let e = c.upd_pending[i];
                    if e.deliver_at < now {
                        c.q_view[e.src as usize] = e.queue_len;
                    } else {
                        c.upd_pending[kept] = e;
                        kept += 1;
                    }
                }
                c.upd_pending.truncate(kept);
            }
            for idx in (c.upd_cursor - self.upd_base) as usize..point {
                let rec = self.upd_log[idx];
                if rec.src as usize != g {
                    c.q_view[rec.src as usize] = rec.queue_len;
                }
            }
            c.upd_cursor = fold_to;
        }
        self.upd_base = fold_to;
        self.upd_log.drain(..point);
    }

    /// Arms group `g`'s next period timer at `at`, or — Elided mode, when
    /// the group is fully quiescent — parks it in idle-tick fast-forward
    /// with no event at all.
    fn schedule_next_tick(
        &mut self,
        g: usize,
        at: SimTime,
        quiescent: bool,
        q: &mut EventQueue<Ev>,
    ) {
        if !self.elided() {
            q.push(at, Ev::Tick(g as u32));
            return;
        }
        if quiescent {
            let c = &mut self.cold[g];
            c.dormant = true;
            c.next_virtual_tick = at;
            return;
        }
        // One block of `G` seqs per tick instant, slot = group index: ticks
        // sharing an instant pop in ascending group order no matter when
        // (or out of which wake) each group armed its timer.
        if self.tick_block_instant != at {
            self.tick_block_instant = at;
            self.tick_block_base = q.reserve_seqs(self.groups.len() as u64);
        }
        let seq = self.tick_block_base + g as u64;
        self.cold[g].tick_seq = seq;
        q.push_at_seq(at, seq, Ev::Tick(g as u32));
    }

    /// Credits `ticks` skipped idle invocations to group `g`, the last of
    /// which would have run at `last`: tick/UPDATE counters move
    /// analytically, the load estimator replays the exact EWMA zero
    /// observations, and on ACrss the manager-occupancy watermark advances
    /// as the latest invocation would have left it.
    fn account_idle_ticks(&mut self, g: usize, ticks: u64, last: SimTime) {
        self.stats.ticks += ticks;
        self.stats.update_messages += ticks * (self.topo[g].peers.len() as u64 - 1);
        self.cold[g]
            .estimator
            .fast_forward_idle(ticks, self.cfg.period);
        if self.cfg.attachment == Attachment::RssPcie {
            let grp = &mut self.groups[g];
            grp.mgr_busy_until = grp.mgr_busy_until.max(last + self.runtime_cost);
        }
    }

    /// Brings a dormant group back to the event loop because a real event —
    /// an arrival (`waker_seq = None`) or a MIGRATE carrying its queue seq —
    /// reaches it at `now`. Credits every virtual idle tick the event-based
    /// path would have run before the waking event, then re-arms the real
    /// timer at the next period boundary.
    fn wake_group(
        &mut self,
        g: usize,
        now: SimTime,
        waker_seq: Option<u64>,
        q: &mut EventQueue<Ev>,
    ) {
        if !self.cold[g].dormant {
            return;
        }
        let stride = self.tick_stride;
        let mut pending = 0u64;
        let mut last = SimTime::ZERO;
        {
            let c = &mut self.cold[g];
            while c.next_virtual_tick < now {
                last = c.next_virtual_tick;
                c.next_virtual_tick = last + stride;
                pending += 1;
            }
        }
        // A period boundary can land exactly on the wake instant; whether
        // the tick precedes the waking event is the same (time, seq)
        // comparison the queue would have made. An arrival holds a
        // trace-reserved seq, smaller than any tick's — event first. A
        // MIGRATE's seq is compared against the tick-seq slot this group
        // owns at the shared instant; the sender armed its own timer for
        // the same instant, so the block is already reserved.
        if self.cold[g].next_virtual_tick == now {
            let tick_first = match waker_seq {
                None => false,
                Some(seq) => {
                    debug_assert_eq!(
                        self.tick_block_instant, now,
                        "a lattice-tied MIGRATE implies a sender that armed this instant"
                    );
                    seq > self.tick_block_base + g as u64
                }
            };
            if tick_first {
                let c = &mut self.cold[g];
                last = c.next_virtual_tick;
                c.next_virtual_tick = last + stride;
                pending += 1;
            }
        }
        if pending > 0 {
            self.account_idle_ticks(g, pending, last);
        }
        self.cold[g].dormant = false;
        let at = self.cold[g].next_virtual_tick;
        self.schedule_next_tick(g, at, false, q);
    }

    /// End-of-run accounting: the event-based path keeps ticking idle
    /// groups until the final completion, so groups still in fast-forward
    /// are credited every virtual tick strictly before `end_time`.
    fn finalize_idle_accounting(&mut self, end_time: SimTime) {
        let stride = self.tick_stride;
        for g in 0..self.cold.len() {
            if !self.cold[g].dormant {
                continue;
            }
            let mut pending = 0u64;
            let mut last = SimTime::ZERO;
            {
                let c = &mut self.cold[g];
                while c.next_virtual_tick < end_time {
                    last = c.next_virtual_tick;
                    c.next_virtual_tick = last + stride;
                    pending += 1;
                }
            }
            if pending > 0 {
                self.account_idle_ticks(g, pending, last);
            }
        }
    }

    /// [`Ev::Enqueue`] after takeover redirection and dormancy wake: the
    /// request lands in its group's NetRX queue.
    fn enqueue(&mut self, g: usize, idx: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let arrival = self.trace.requests()[idx].arrival;
        self.tel
            .span_point(idx as u32, span::ARRIVAL, g as u32, arrival);
        self.tel
            .span_point(idx as u32, span::NETRX_ENQUEUE, g as u32, now);
        let qr = QueuedRequest::new(idx, self.total_cost(idx), now);
        let grp = &mut self.groups[g];
        grp.push_netrx(qr);
        grp.arrivals_since_tick += 1;
        self.try_dispatch(g, now, q);
    }

    /// Intra-group dispatch: hardware (ACint) pushes immediately; ACrss
    /// serializes 70-cycle manager operations carrying up to
    /// `dispatch_batch` descriptors.
    fn try_dispatch(&mut self, g: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.mgr_is_dead(g) {
            // Nobody left to pop NetRX; the takeover heir adopts the queue.
            return;
        }
        let cfg = self.cfg;
        let grp = &mut self.groups[g];
        match cfg.attachment {
            Attachment::Integrated => loop {
                if grp.netrx.is_empty() {
                    return;
                }
                let Some(w) = grp
                    .occ
                    .argmin_under(0..cfg.workers_per_group(), cfg.local_bound as u32)
                else {
                    return;
                };
                let qr = grp.netrx.pop_front().expect("checked non-empty");
                grp.occ.incr(w);
                grp.busy += 1;
                self.tel
                    .span_point(qr.idx as u32, span::DISPATCH, worker_core(cfg, g, w), now);
                let req = &self.trace.requests()[qr.idx];
                let xfer = self.intra_transfer.latency(req.size_bytes);
                let h = grp.slab.insert(qr);
                q.push(now + xfer, Ev::Deliver(g as u32, w as u32, h));
            },
            Attachment::RssPcie => {
                if grp.netrx.is_empty() {
                    return;
                }
                if grp.mgr_busy_until > now {
                    if !grp.dispatch_pending {
                        grp.dispatch_pending = true;
                        q.push(grp.mgr_busy_until, Ev::MgrOpDone(g as u32));
                    }
                    return;
                }
                // One serialized op moves up to dispatch_batch descriptors.
                let mut moved = 0;
                let done_at = now + self.dispatch_op;
                while moved < cfg.dispatch_batch {
                    if grp.netrx.is_empty() {
                        break;
                    }
                    let Some(w) = grp
                        .occ
                        .argmin_under(0..cfg.workers_per_group(), cfg.local_bound as u32)
                    else {
                        break;
                    };
                    let qr = grp.netrx.pop_front().expect("checked non-empty");
                    grp.occ.incr(w);
                    grp.busy += 1;
                    self.tel
                        .span_point(qr.idx as u32, span::DISPATCH, worker_core(cfg, g, w), now);
                    let h = grp.slab.insert(qr);
                    q.push(done_at, Ev::Deliver(g as u32, w as u32, h));
                    moved += 1;
                }
                if moved > 0 {
                    grp.mgr_busy_until = done_at;
                    grp.dispatch_pending = true;
                    q.push(done_at, Ev::MgrOpDone(g as u32));
                }
            }
        }
    }

    /// [`Ev::Deliver`] at a live worker. The handle resolves in the group's
    /// request arena; occupancy is untouched — the request moves from
    /// in-transit to running/waiting within the same worker.
    fn deliver(&mut self, g: usize, w: usize, h: Handle, now: SimTime, q: &mut EventQueue<Ev>) {
        let grp = &mut self.groups[g];
        let qr = grp.slab.take(h);
        self.tel.span_point(
            qr.idx as u32,
            span::WORKER_ARRIVE,
            worker_core(self.cfg, g, w),
            now,
        );
        if grp.running[w].is_none() && grp.waiting[w].is_empty() {
            self.start_worker(g, w, qr, now, q);
        } else {
            grp.waiting[w].push_back(qr);
        }
    }

    fn start_worker(
        &mut self,
        g: usize,
        w: usize,
        qr: QueuedRequest,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        debug_assert!(self.groups[g].running[w].is_none());
        let core = worker_core(self.cfg, g, w);
        self.tel
            .span_point(qr.idx as u32, span::SERVICE_START, core, now);
        // Straggler intervals inflate the wall time of service *started*
        // inside them. `inflate` returns the input bit-for-bit when no
        // straggler covers this core/instant, and the whole branch is
        // absent on healthy runs.
        let wall = if self.faults.is_some() {
            self.cfg.faults.inflate(core as usize, now, qr.remaining)
        } else {
            qr.remaining
        };
        self.groups[g].running[w] = Some(qr);
        q.push(
            now + wall,
            Ev::WorkerDone(g as u32, w as u32, self.epoch_of(g, w)),
        );
    }

    /// [`Ev::WorkerDone`] with a current epoch: record the completion, start
    /// the worker's next local request, and refill from NetRX.
    fn worker_done(&mut self, g: usize, w: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let grp = &mut self.groups[g];
        let qr = grp.running[w].take().expect("done on idle worker");
        grp.occ.decr(w);
        grp.busy -= 1;
        let core = worker_core(self.cfg, g, w);
        self.tel
            .span_point(qr.idx as u32, span::COMPLETE, core, now);
        let req = &self.trace.requests()[qr.idx];
        self.result.record(Completion {
            id: req.id,
            arrival: req.arrival,
            finish: now,
            core: core as usize,
            migrated: qr.migrated,
        });
        self.completed += 1;
        if let Some(next) = grp.waiting[w].pop_front() {
            self.start_worker(g, w, next, now, q);
        }
        self.try_dispatch(g, now, q);
    }

    /// Returns a recovered request to the NetRX queue currently serving
    /// group `g` (the group itself, or its takeover heir), stamping the
    /// resteer span and the fault-stats counter. Returns the target group so
    /// the caller can re-dispatch once per batch.
    fn resteer(&mut self, g: usize, idx: usize, migrated: bool, now: SimTime) -> usize {
        let tgt = self.live_group(g);
        self.tel
            .span_point(idx as u32, span::FAULT_RESTEER, tgt as u32, now);
        let mut qr = QueuedRequest::new(idx, self.total_cost(idx), now);
        qr.migrated = migrated;
        self.groups[tgt].push_netrx(qr);
        if let Some(fs) = &mut self.faults {
            fs.stats.resteered_requests += 1;
        }
        tgt
    }

    /// [`FaultEv::WorkerFail`]: worker `(g, w)` dies permanently. Its
    /// running and locally-queued requests restart from the front of a live
    /// NetRX queue (their partial service is lost — fail-stop, not
    /// checkpointed); descriptors still in intra-group transit bounce when
    /// they arrive (see `Ev::Deliver`).
    fn fault_worker_fail(&mut self, g: usize, w: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        self.wake_group(g, now, None, q);
        {
            let fs = self.faults.as_mut().expect("fault event without plan");
            fs.live_workers -= usize::from(!fs.dead[g][w]);
            fs.dead[g][w] = true;
            fs.epoch[g][w] += 1;
            fs.stats.worker_failures += 1;
        }
        {
            // The dead worker's running/waiting load leaves the group's
            // outstanding count now; descriptors still in transit stay
            // counted until their `Deliver` bounces. Marking the worker dead
            // removes it from every future dispatch argmin.
            let grp = &mut self.groups[g];
            let drained = grp.running[w].is_some() as u32 + grp.waiting[w].len() as u32;
            grp.busy -= drained;
            grp.occ.mark_dead(w);
        }
        let mut tgt = g;
        if let Some(qr) = self.groups[g].running[w].take() {
            tgt = self.resteer(g, qr.idx, qr.migrated, now);
        }
        while let Some(qr) = self.groups[g].waiting[w].pop_front() {
            tgt = self.resteer(g, qr.idx, qr.migrated, now);
        }
        self.fault_mark(g, now, 1.0);
        self.try_dispatch(tgt, now, q);
    }

    /// [`FaultEv::ManagerFail`]: group `g`'s manager tile dies. Its workers
    /// finish what they already hold, but nothing new is dispatched, its
    /// timer never re-arms, and messages addressed to it vanish. Recovery
    /// arrives with the scheduled [`FaultEv::Takeover`].
    fn fault_manager_fail(&mut self, g: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        // Wake first: the idle-tick credit must be taken while the group is
        // still (officially) alive, and the wake's re-armed timer fires
        // harmlessly into the dead tile.
        self.wake_group(g, now, None, q);
        {
            let fs = self.faults.as_mut().expect("fault event without plan");
            fs.mgr_dead[g] = true;
            fs.stats.manager_failures += 1;
        }
        q.push(
            now + self.cfg.resilience.takeover_delay,
            Ev::Fault(FaultEv::Takeover(g as u32)),
        );
        self.fault_mark(g, now, 2.0);
    }

    /// [`FaultEv::Takeover`]: detection delay elapsed; the lowest-numbered
    /// live peer adopts dead group `g`'s NetRX queue and future arrivals
    /// steered at it.
    fn fault_takeover(&mut self, g: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let heir = {
            let fs = self.faults.as_ref().expect("fault event without plan");
            self.topo[g]
                .peers
                .iter()
                .copied()
                .find(|&p| p != g && !fs.mgr_dead[p])
        };
        let Some(h) = heir else {
            // Every peer is dead too; the queue is stranded.
            return;
        };
        {
            let fs = self.faults.as_mut().expect("fault event without plan");
            fs.heir[g] = Some(h);
            fs.stats.takeovers += 1;
        }
        self.wake_group(h, now, None, q);
        while let Some(qr) = self.groups[g].netrx.pop_front() {
            self.tel
                .span_point(qr.idx as u32, span::FAULT_RESTEER, h as u32, now);
            self.groups[h].push_netrx(qr);
            if let Some(fs) = &mut self.faults {
                fs.stats.resteered_requests += 1;
            }
        }
        self.fault_mark(g, now, 3.0);
        self.try_dispatch(h, now, q);
    }

    /// [`FaultEv::MigrateTimeout`]: the resilience window for tracked
    /// exchange `id` expired. If it is still unsettled, declare it lost:
    /// reclaim the send-FIFO slot, back off the destination, and resteer the
    /// staged descriptors locally (they keep their migrated flag, so the
    /// at-most-once rule still holds).
    fn fault_migrate_timeout(&mut self, id: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        let backoff = self.cfg.resilience.nack_backoff;
        let (src, descriptors) = {
            let fs = self.faults.as_mut().expect("fault event without plan");
            let p = &mut fs.pending[id];
            if p.state != PendingState::Outstanding {
                return;
            }
            p.state = PendingState::TimedOut;
            fs.stats.migrate_timeouts += 1;
            let dst = p.dst;
            let src = p.src;
            if let Some(b) = backoff {
                fs.backoff[src][dst] = now + b;
            }
            (src, std::mem::take(&mut fs.pending[id].descriptors))
        };
        self.cold[src].send_inflight = self.cold[src].send_inflight.saturating_sub(1);
        let mut tgt = src;
        for d in descriptors {
            tgt = self.resteer(src, d.trace_idx, true, now);
        }
        self.fault_mark(src, now, 4.0);
        self.try_dispatch(tgt, now, q);
    }

    fn runtime_tick(&mut self, g: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        if self.mgr_is_dead(g) {
            // A tick armed before the manager died fires into a dead tile:
            // nothing runs and the timer is never re-armed.
            return;
        }
        self.stats.ticks += 1;
        let cfg = self.cfg;

        // 0. Elided control plane: fold in UPDATEs whose events would have
        //    popped before this tick. (No-op in EventDriven mode — the
        //    mailbox stays empty and q_view is written by Msg events.)
        if self.upd_fast {
            self.drain_update_log_fast(now);
        } else if self.upd_log_mode {
            // Fold check rides the drain (the log grows ≤ 1 record per
            // tick); folding first is harmless — it applies exactly the
            // records this drain's cutoff would pass anyway.
            if self.upd_log.len() >= self.upd_fold_at {
                self.fold_update_log(now);
            }
            self.drain_update_log(g, now);
        } else {
            self.drain_mailbox(g, now);
        }

        // 1. Refresh the load estimate from the arrival counter.
        let arrivals = self.groups[g].arrivals_since_tick;
        self.groups[g].arrivals_since_tick = 0;
        self.cold[g].estimator.observe(arrivals, cfg.period);
        let offered = self.cold[g].estimator.offered_erlangs();

        // 2. Threshold from the prediction model at the measured load. The
        //    threshold is read only through `own queue > threshold`, so a
        //    queue within the policy's floor (a lower bound on every
        //    threshold it returns) plans identically with the floor and
        //    skips the Erlang-C evaluation.
        let workers = cfg.workers_per_group();
        let floor = cfg.threshold.floor(workers);
        let threshold = if self.groups[g].netrx.len() > floor {
            cfg.threshold.threshold(workers, offered)
        } else {
            floor
        };

        // Telemetry probes sample the tick-time state the runtime just
        // computed. Pure reads — dormant (fast-forwarded) groups simply
        // don't sample, exactly as they don't tick.
        if self.tel.enabled() {
            let ids = self.probe_ids[g];
            let grp = &self.groups[g];
            self.tel.probe(ids.netrx, now, grp.netrx.len() as f64);
            self.tel.probe(ids.workers, now, grp.busy as f64);
            self.tel.probe(ids.ewma, now, offered);
            self.tel
                .probe(ids.send, now, self.cold[g].send_inflight as f64);
            self.tel.probe(ids.recv, now, grp.recv_fifo as f64);
        }

        // 3. Runtime cost through the sw/hw interface (status read, update,
        //    `concurrency` sends); on ACrss it occupies the manager core and
        //    delays dispatching.
        let cost = self.runtime_cost;
        let send_time = now + cost;
        if cfg.attachment == Attachment::RssPcie {
            let grp = &mut self.groups[g];
            grp.mgr_busy_until = grp.mgr_busy_until.max(send_time);
        }

        // 4. Snapshot q: own queue live, remote from UPDATE-fed PR view
        //    (the shared one in fast mode — every group's view coincides).
        let own_len = self.groups[g].netrx.len() as u32;
        let q_view = &mut self.scratch.q_view;
        q_view.clear();
        if self.upd_fast {
            q_view.extend_from_slice(&self.upd_gq);
            q_view[g] = own_len;
        } else {
            self.cold[g].q_view[g] = own_len;
            q_view.extend_from_slice(&self.cold[g].q_view);
        }

        // Under tenancy, UPDATE and MIGRATE stay within the tenant's
        // partition of groups; otherwise every manager is a peer. The peer
        // list and tile ids are precomputed in `topo`.
        let peers = &self.topo[g].peers;
        let src_tile = self.topo[g].tile;

        // 5. Broadcast UPDATE to every other (peer) manager. The elided
        //    path parks the record in the destination's mailbox under the
        //    seq the legacy event would occupy; same physics, zero events.
        // In update-log mode the whole fan-out collapses to one shared log
        // record: the block reservation advances the seq counter exactly as
        // the per-peer single reservations would (nothing between them ever
        // touches the counter), and each destination reconstructs its own
        // `(deliver_at, seq)` from the record at drain time. O(1) per tick
        // instead of O(groups).
        let elided = self.cfg.control_plane == ControlPlane::Elided;
        if self.upd_log_mode {
            let n = self.topo[g].update_offsets.len() as u64;
            let base_seq = q.reserve_seqs(n);
            self.upd_log.push_back(UpdRec {
                send_time,
                base_seq,
                src: g as u32,
                queue_len: own_len,
            });
            self.stats.update_messages += n;
        }
        let fanout = if self.upd_log_mode {
            0 // logged above in one record
        } else {
            self.topo[g].update_offsets.len()
        };
        for idx in 0..fanout {
            // Wire latency + port stagger were folded per slot at
            // construction (`GroupTopo::update_offsets`).
            let (dst, offset) = self.topo[g].update_offsets[idx];
            let dst = dst as usize;
            let mut deliver_at = send_time + offset;
            // UPDATEs ride the lossy gossip channel of the faulty NoC. The
            // draw happens here for both control planes so the decision
            // sequence is a function of send order alone.
            if let Some(noc) = self.faults.as_mut().and_then(|f| f.noc.as_mut()) {
                match noc.lossy() {
                    NocDecision::Deliver => {}
                    NocDecision::Drop => {
                        self.faults
                            .as_mut()
                            .expect("drawn above")
                            .stats
                            .updates_dropped += 1;
                        self.stats.update_messages += 1; // sent, then lost
                        continue;
                    }
                    NocDecision::Delay(d) => {
                        self.faults
                            .as_mut()
                            .expect("drawn above")
                            .stats
                            .messages_delayed += 1;
                        deliver_at += d;
                    }
                }
            }
            if elided {
                let seq = q.reserve_seqs(1);
                self.cold[dst].mailbox.push(MailEntry {
                    deliver_at,
                    seq,
                    src: g as u32,
                    queue_len: own_len,
                });
            } else {
                push_msg(
                    &mut self.msg_slab,
                    q,
                    deliver_at,
                    dst,
                    Message::Update {
                        src: g,
                        queue_len: own_len,
                    },
                );
            }
            self.stats.update_messages += 1;
        }

        // A group is quiescent when this tick saw a system with nothing to
        // do at all: no queued or running work, no arrivals since the last
        // tick, and no protocol exchange in flight. Every future tick would
        // then be a pure no-op (an idle queue plans no migrations), so the
        // timer can be elided and fast-forwarded instead (Elided mode).
        let quiescent = elided && arrivals == 0 && own_len == 0 && {
            // `busy == 0` covers running, waiting and in-transit work in one
            // maintained counter — exactly the three scans it replaced.
            let grp = &self.groups[g];
            grp.netrx.is_empty()
                && grp.busy == 0
                && grp.recv_fifo == 0
                && !grp.dispatch_pending
                && self.cold[g].send_inflight == 0
        };

        // Predict-only mode: mark everything queued beyond T as a predicted
        // violator, touch nothing, and re-arm.
        if cfg.predict_only {
            let netrx = &self.groups[g].netrx;
            if netrx.len() > threshold {
                for qr in netrx.iter().skip(threshold) {
                    self.stats.predicted.insert(qr.idx);
                }
            }
            if self.completed < self.trace.len() {
                self.schedule_next_tick(g, send_time + cfg.period, quiescent, q);
            }
            return;
        }

        // 6. Plan and issue MIGRATE messages over the tenant-local view.
        //
        // Emergency drain: when every worker of this (manager-alive) group
        // has died, the planner's steady-state logic is meaningless — the
        // queue can only shrink by leaving. Override the plan with
        // up-to-`concurrency` bulk evacuations to the best-looking live
        // peer, bypassing the guard and the at-most-once restriction. A
        // peer is live only with its manager and at least one worker
        // alive: a workerless peer would just drain the queue onward, and
        // with every worker dead the stranded queues would bounce around
        // the mesh until the stall bound stopped the timers.
        let emergency = self
            .faults
            .as_ref()
            .is_some_and(|fs| !self.groups[g].netrx.is_empty() && fs.dead[g].iter().all(|&d| d));
        let orders = &mut self.scratch.orders;
        if emergency {
            orders.clear();
            let fs = self.faults.as_ref().expect("emergency implies faults");
            let best = peers
                .iter()
                .copied()
                .filter(|&p| {
                    p != g
                        && !fs.mgr_dead[p]
                        && fs.dead[p].iter().any(|&d| !d)
                        && now >= fs.backoff[g][p]
                })
                .min_by_key(|&p| (q_view[p], p));
            if let Some(dst) = best {
                for _ in 0..cfg.concurrency {
                    orders.push(MigrationOrder {
                        dst,
                        count: cfg.bulk,
                    });
                }
            }
        } else {
            let use_patterns = matches!(cfg.patterns, crate::config::PatternPolicy::All);
            if self.upd_fast {
                // Fast mode: every group plans over the shared view plus a
                // one-entry overlay (its live queue), so the extreme
                // ranking is computed once per tick instant and patched
                // per group in O(concurrency) instead of rescanned in
                // O(groups). The shared view is stable within an instant —
                // records broadcast at it only drain at later ones.
                if self.scratch.ext_instant != now {
                    self.scratch.shared_ext.rank(&self.upd_gq, cfg.concurrency);
                    self.scratch.ext_instant = now;
                }
                plan_patched_into(
                    g,
                    own_len,
                    q_view.len(),
                    &self.scratch.shared_ext,
                    threshold,
                    cfg.bulk,
                    cfg.concurrency,
                    use_patterns,
                    &mut self.scratch.plan,
                    orders,
                );
                #[cfg(debug_assertions)]
                {
                    let oracle = &mut self.scratch.oracle_orders;
                    if use_patterns {
                        plan_migrations_into(
                            g,
                            q_view,
                            threshold,
                            cfg.bulk,
                            cfg.concurrency,
                            &mut self.scratch.oracle_plan,
                            oracle,
                        );
                    } else {
                        plan_threshold_only_into(
                            g,
                            q_view,
                            threshold,
                            cfg.bulk,
                            cfg.concurrency,
                            &mut self.scratch.oracle_plan,
                            oracle,
                        );
                    }
                    debug_assert_eq!(
                        orders, oracle,
                        "patched planner diverged from the full-scan oracle"
                    );
                }
            } else {
                let identity = peers.len() == q_view.len();
                let (me_local, plan_q): (usize, &[u32]) = if identity {
                    // No tenancy: the peer list is the identity permutation,
                    // so plan straight over the view — no projected copy, no
                    // index remap afterwards.
                    (g, q_view)
                } else {
                    let local_q = &mut self.scratch.local_q;
                    local_q.clear();
                    local_q.extend(peers.iter().map(|&j| q_view[j]));
                    (self.topo[g].me_local, local_q)
                };
                if use_patterns {
                    plan_migrations_into(
                        me_local,
                        plan_q,
                        threshold,
                        cfg.bulk,
                        cfg.concurrency,
                        &mut self.scratch.plan,
                        orders,
                    );
                } else {
                    plan_threshold_only_into(
                        me_local,
                        plan_q,
                        threshold,
                        cfg.bulk,
                        cfg.concurrency,
                        &mut self.scratch.plan,
                        orders,
                    );
                }
                if !identity {
                    // Map local destination indices back to global ids.
                    for o in orders.iter_mut() {
                        o.dst = peers[o.dst];
                    }
                }
            }
        }
        let mut migrate_sends = 0u64;
        for (i, order) in self.scratch.orders.iter().enumerate() {
            // Degradation: honor the NACK/timeout backoff window, and stop
            // planning into a failed manager once its takeover completed —
            // that election is the moment failure knowledge propagates, so
            // MIGRATEs sent before it are dropped at the dead receiver and
            // recovered by the migrate timeout. Both branches exist only
            // under a non-empty fault plan.
            if let Some(fs) = &mut self.faults {
                let known_dead = fs.mgr_dead[order.dst] && fs.heir[order.dst].is_some();
                if known_dead || now < fs.backoff[g][order.dst] {
                    fs.stats.backoff_skipped += 1;
                    continue;
                }
            }
            if !emergency
                && cfg.guard_enabled
                && !guard_allows(q_view[g], q_view[order.dst], order.count)
            {
                self.stats.guard_blocked += 1;
                continue;
            }
            if self.cold[g].send_inflight >= SEND_FIFO_SLOTS {
                break; // send FIFO full
            }
            {
                let grp = &mut self.groups[g];
                stage_from_tail(
                    &mut grp.netrx,
                    self.trace,
                    order.count,
                    &mut self.scratch.staged,
                    &mut grp.stage_hint,
                    emergency,
                );
            }
            if self.scratch.staged.is_empty() {
                continue;
            }
            q_view[g] = q_view[g].saturating_sub(self.scratch.staged.len() as u32);
            for d in &self.scratch.staged {
                self.stats.predicted.insert(d.trace_idx);
                self.tel
                    .span_point(d.trace_idx as u32, span::MIGRATE_STAGE, g as u32, now);
            }
            // The message owns its descriptor payload; `take` hands the
            // buffer over, so only actual MIGRATE sends (rare) allocate.
            let descriptors = std::mem::take(&mut self.scratch.staged);
            // With the resilience timeout armed, record the exchange so a
            // destination that dies (or already died) cannot strand the
            // descriptors or leak the send-FIFO slot.
            let mut token = 0u64;
            if let Some(fs) = &mut self.faults {
                if let Some(tmo) = fs.migrate_timeout {
                    let id = fs.pending.len();
                    fs.pending.push(PendingMigrate {
                        src: g,
                        dst: order.dst,
                        descriptors: descriptors.clone(),
                        state: PendingState::Outstanding,
                    });
                    token = id as u64 + 1;
                    q.push(
                        send_time + injection_stagger(i) + tmo,
                        Ev::Fault(FaultEv::MigrateTimeout(id as u32)),
                    );
                }
                if emergency {
                    fs.stats.emergency_migrations += descriptors.len() as u64;
                }
            }
            let msg = Message::Migrate {
                src: g,
                dst: order.dst,
                descriptors,
                token,
            };
            let lat = self
                .noc
                .latency(src_tile, self.topo[order.dst].tile, msg.wire_bytes());
            // `i` enumerates *planned* orders: a guard-blocked or
            // empty-staged order above still advanced the slot index, so
            // this send keeps its original injection slot rather than
            // compacting forward (see `injection_stagger`).
            let stagger = injection_stagger(i);
            self.cold[g].send_inflight += 1;
            self.stats.migrate_messages += 1;
            migrate_sends += 1;
            send_msg_via(
                &mut self.faults,
                &mut self.msg_slab,
                q,
                send_time + lat + stagger,
                order.dst,
                msg,
            );
        }
        if self.tel.enabled() {
            self.tel
                .probe(self.probe_ids[g].migrations, now, migrate_sends as f64);
        }

        // 7. Re-arm the period timer while work remains. The next period is
        //    measured from the *end* of this invocation: a runtime whose
        //    cost exceeds P (e.g. the MSR interface at aggressive periods)
        //    degrades dispatch throughput but can never consume the whole
        //    manager — matching a real software loop, which alternates
        //    between runtime work and dispatching. Once every worker of
        //    every group is dead nothing can complete again, so the timer
        //    stops at once instead of idling out the stall bound.
        let workers_left = self.faults.as_ref().is_none_or(|fs| fs.live_workers > 0);
        if self.completed < self.trace.len() && workers_left {
            if self.completed == self.last_completed_at_tick {
                self.stalled_ticks += 1;
                if self.faults.is_some() {
                    // A faulted run can legitimately never finish (e.g. every
                    // worker died with resilience off). Degrade gracefully:
                    // stop re-arming this group's timer instead of asserting;
                    // the run ends when the queue drains, and the unserved
                    // requests simply never complete.
                    if self.stalled_ticks >= 100_000 {
                        return;
                    }
                } else {
                    assert!(
                        self.stalled_ticks < 10_000_000,
                        "simulation stalled: {} ticks with no completion ({} / {} done)",
                        self.stalled_ticks,
                        self.completed,
                        self.trace.len()
                    );
                }
            } else {
                self.stalled_ticks = 0;
                self.last_completed_at_tick = self.completed;
            }
            self.schedule_next_tick(g, send_time + cfg.period, quiescent, q);
        }
    }

    /// Applies a protocol message's effects and dispatches any NetRX work
    /// it unblocked (MIGRATE landings, NACK returns).
    fn handle_msg(
        &mut self,
        dst: usize,
        seq: u64,
        msg: Message,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        // A dead manager tile receives nothing: the message is lost at the
        // wire. Senders recover via the staged-migration timeout (MIGRATE)
        // or never notice (UPDATE/ACK — an ACK to a dead source is moot,
        // the source's queues were already drained by takeover).
        if self.mgr_is_dead(dst) {
            return;
        }
        match msg {
            Message::Update { src, queue_len } => {
                // EventDriven only; the elided path never creates Update
                // events, and dormancy exists only in Elided mode.
                debug_assert!(!self.cold[dst].dormant, "update at a dormant group");
                self.cold[dst].q_view[src] = queue_len;
            }
            Message::Migrate {
                src,
                descriptors,
                token,
                ..
            } => {
                // A MIGRATE is the one protocol message that can reach a
                // group in idle fast-forward; replay its skipped ticks
                // before it lands.
                self.wake_group(dst, now, Some(seq), q);
                // Exactly-once: if the sender already declared this exchange
                // lost (timeout fired and resteered the descriptors), a
                // late-arriving copy must not also land here.
                if token != 0 {
                    if let Some(fs) = &self.faults {
                        if fs.pending[token as usize - 1].state == PendingState::TimedOut {
                            return;
                        }
                    }
                }
                let src_tile = self.mgr_tile(src);
                let dst_tile = self.mgr_tile(dst);
                let stalled = !self.cfg.faults.fifo_stalls.is_empty()
                    && self.cfg.faults.recv_stalled(dst, now);
                if self.groups[dst].recv_fifo >= RECV_FIFO_SLOTS || stalled {
                    // Full (or fault-stalled) receive FIFO: reject with NACK.
                    self.stats.nacked_messages += 1;
                    self.stats.nacked_requests += descriptors.len() as u64;
                    let nack = Message::Nack {
                        src: dst,
                        descriptors,
                        token,
                    };
                    let lat = self.noc.latency(dst_tile, src_tile, nack.wire_bytes());
                    self.send_msg(q, now + lat, src, nack);
                    return;
                }
                // The exchange is now settled at the destination: the
                // descriptors land here no matter what happens to the ACK,
                // so the sender's timeout must not re-inject them.
                if token != 0 {
                    if let Some(fs) = &mut self.faults {
                        let p = &mut fs.pending[token as usize - 1];
                        p.state = PendingState::Resolved;
                        p.descriptors.clear();
                    }
                }
                self.groups[dst].recv_fifo += 1;
                // The migrator drains the FIFO into the MRs/NetRX at
                // register speed (~1ns per descriptor).
                let drain = SimDuration::from_ns(1) * descriptors.len() as u64;
                q.push(now + drain, Ev::RecvDrained(dst as u32));
                self.stats.migrated_requests += descriptors.len() as u64;
                self.stats.migrated_per_group[dst] += descriptors.len() as u64;
                let accepted = descriptors.len();
                for d in descriptors {
                    self.tel
                        .span_point(d.trace_idx as u32, span::MIGRATE_LAND, dst as u32, now);
                    let mut qr = QueuedRequest::new(d.trace_idx, self.total_cost(d.trace_idx), now);
                    qr.migrated = true;
                    self.groups[dst].push_netrx(qr);
                }
                let ack = Message::Ack {
                    src: dst,
                    accepted,
                    token,
                };
                let lat = self.noc.latency(dst_tile, src_tile, ack.wire_bytes());
                self.send_msg(q, now + lat, src, ack);
                self.try_dispatch(dst, now, q);
            }
            Message::Ack { token, .. } => {
                // The sender keeps send_inflight > 0 until this arrives, so
                // it can never have gone dormant in between.
                debug_assert!(!self.cold[dst].dormant, "ack at a dormant group");
                if token != 0 {
                    if let Some(fs) = &mut self.faults {
                        let p = &mut fs.pending[token as usize - 1];
                        if p.state == PendingState::TimedOut {
                            // Timeout already reclaimed the FIFO slot and
                            // resteered; this stale ACK must change nothing.
                            return;
                        }
                        p.state = PendingState::Resolved;
                        p.descriptors.clear();
                    }
                }
                self.cold[dst].send_inflight = self.cold[dst].send_inflight.saturating_sub(1);
            }
            Message::Nack {
                src: nack_src,
                descriptors,
                token,
            } => {
                debug_assert!(!self.cold[dst].dormant, "nack at a dormant group");
                if token != 0 {
                    if let Some(fs) = &mut self.faults {
                        let p = &mut fs.pending[token as usize - 1];
                        if p.state == PendingState::TimedOut {
                            return;
                        }
                        p.state = PendingState::Resolved;
                        p.descriptors.clear();
                    }
                }
                // NACK-storm backoff: stop hammering a destination that just
                // refused us.
                if let Some(b) = self.cfg.resilience.nack_backoff {
                    if let Some(fs) = &mut self.faults {
                        fs.backoff[dst][nack_src] = now + b;
                    }
                }
                // Rejected migration: requests stay at the source (restored
                // from the MRs). They remain eligible for future migration.
                self.cold[dst].send_inflight = self.cold[dst].send_inflight.saturating_sub(1);
                for d in descriptors {
                    self.tel
                        .span_point(d.trace_idx as u32, span::NACK_RETURN, dst as u32, now);
                    let qr = QueuedRequest::new(d.trace_idx, self.total_cost(d.trace_idx), now);
                    self.groups[dst].push_netrx(qr);
                }
                self.try_dispatch(dst, now, q);
            }
        }
    }
}

impl<S: TelemetrySink> World for AcWorld<'_, S> {
    type Event = Ev;

    #[inline]
    fn observe(&mut self, now: SimTime, seq: u64, ev: &Ev) {
        // Gated exactly like probe-sample computation: against a
        // non-recording sink the descriptor math compiles away.
        if self.tel.records_events() {
            let (kind, group, payload) = describe_ev(ev, &self.msg_slab);
            self.tel.event_record(now, seq, kind, group, payload);
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Enqueue(g, idx) => {
                let idx = idx as usize;
                // NIC steering is oblivious to manager failures until the
                // takeover rewrites the steering table: arrivals aimed at a
                // dead manager land at the group that adopted its queue.
                let g = {
                    let lg = self.live_group(g as usize);
                    if lg != g as usize {
                        if let Some(fs) = &mut self.faults {
                            fs.stats.redirected_arrivals += 1;
                        }
                    }
                    lg
                };
                // Arrivals wake a group out of idle fast-forward; the
                // skipped ticks are replayed before the request lands.
                self.wake_group(g, now, None, q);
                self.enqueue(g, idx, now, q);
            }
            Ev::Deliver(g, w, h) => {
                let (g, w) = (g as usize, w as usize);
                // A group with work in flight can never be dormant.
                debug_assert!(!self.cold[g].dormant, "deliver at a dormant group");
                if self.dead_of(g).get(w).copied().unwrap_or(false) {
                    // The worker died while this descriptor was in transit:
                    // bounce it back to whichever NetRX now serves the group.
                    let qr = self.groups[g].slab.take(h);
                    self.groups[g].busy -= 1;
                    let tgt = self.live_group(g);
                    self.tel
                        .span_point(qr.idx as u32, span::FAULT_RESTEER, tgt as u32, now);
                    let mut back = QueuedRequest::new(qr.idx, self.total_cost(qr.idx), now);
                    back.migrated = qr.migrated;
                    self.groups[tgt].push_netrx(back);
                    if let Some(fs) = &mut self.faults {
                        fs.stats.resteered_requests += 1;
                    }
                    self.try_dispatch(tgt, now, q);
                    return;
                }
                self.deliver(g, w, h, now, q);
            }
            Ev::WorkerDone(g, w, epoch) => {
                let (g, w) = (g as usize, w as usize);
                // A completion from before the worker's death is stale: the
                // request it would complete was already resteered.
                if epoch != self.epoch_of(g, w) {
                    return;
                }
                debug_assert!(!self.cold[g].dormant, "completion at a dormant group");
                self.worker_done(g, w, now, q);
            }
            Ev::MgrOpDone(g) => {
                let g = g as usize;
                self.groups[g].dispatch_pending = false;
                self.try_dispatch(g, now, q);
            }
            Ev::Tick(g) => self.runtime_tick(g as usize, now, q),
            Ev::Msg { dst, seq, msg } => {
                let msg = self.msg_slab.take(msg);
                self.handle_msg(dst as usize, seq, msg, now, q);
            }
            Ev::RecvDrained(g) => {
                let g = g as usize;
                self.groups[g].recv_fifo = self.groups[g].recv_fifo.saturating_sub(1);
            }
            Ev::Fault(fe) => match fe {
                FaultEv::WorkerFail(g, w) => self.fault_worker_fail(g as usize, w as usize, now, q),
                FaultEv::ManagerFail(g) => self.fault_manager_fail(g as usize, now, q),
                FaultEv::Takeover(g) => self.fault_takeover(g as usize, now, q),
                FaultEv::MigrateTimeout(id) => self.fault_migrate_timeout(id as usize, now, q),
            },
        }
    }

    fn should_stop(&self, _now: SimTime) -> bool {
        self.completed >= self.trace.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::predictor::ThresholdPolicy;
    use workload::arrival::PoissonProcess;
    use workload::dist::ServiceDistribution;
    use workload::trace::TraceBuilder;

    fn trace(dist: ServiceDistribution, load: f64, cores: usize, n: usize, conns: u32) -> Trace {
        let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
        TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(n)
            .connections(conns)
            .seed(77)
            .build()
    }

    #[test]
    fn completes_all_requests() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.6, 64, 20_000, 256);
        let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean()));
        let r = ac.run_detailed(&t);
        assert_eq!(r.system.completions.len(), 20_000);
    }

    #[test]
    fn migration_fires_under_imbalance() {
        // Few connections => heavy RSS imbalance across 4 NetRX queues.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.8, 64, 60_000, 5);
        let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean()));
        let r = ac.run_detailed(&t);
        assert!(r.stats.ticks > 0);
        assert!(
            r.stats.migrated_requests > 0,
            "imbalance must trigger migrations: {:?}",
            r.stats
        );
        assert!(r.stats.update_messages > 0);
        // Some completions carry the migrated flag.
        assert!(r.system.completions.iter().any(|c| c.migrated));
    }

    #[test]
    fn migration_improves_tail_under_imbalance() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.8, 64, 60_000, 5);
        let mut on = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean()));
        let mut off_cfg = AcConfig::ac_int(4, 16, dist.mean());
        off_cfg.migration_enabled = false;
        let mut off = Altocumulus::new(off_cfg);
        let p99_on = on.run(&t).p99();
        let p99_off = off.run(&t).p99();
        assert!(
            p99_on < p99_off,
            "migration should cut the tail: on={p99_on} off={p99_off}"
        );
    }

    #[test]
    fn no_migration_when_disabled() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.8, 64, 10_000, 5);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        cfg.migration_enabled = false;
        let r = Altocumulus::new(cfg).run_detailed(&t);
        assert_eq!(r.stats.ticks, 0);
        assert_eq!(r.stats.migrated_requests, 0);
        assert!(r.system.completions.iter().all(|c| !c.migrated));
    }

    #[test]
    fn single_group_never_migrates() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.7, 16, 5000, 64);
        let r = Altocumulus::new(AcConfig::ac_int(1, 16, dist.mean())).run_detailed(&t);
        assert_eq!(r.stats.migrate_messages, 0);
        assert_eq!(r.system.completions.len(), 5000);
    }

    #[test]
    fn at_most_once_migration() {
        // Every completion that migrated did so exactly once by
        // construction; verify staging skips migrated entries by checking
        // stats consistency: migrated_requests counts landings, and no
        // request id can land twice because landed entries are flagged.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 40_000, 5);
        let r = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run_detailed(&t);
        let migrated_completions = r.system.completions.iter().filter(|c| c.migrated).count();
        assert_eq!(migrated_completions as u64, r.stats.migrated_requests);
    }

    #[test]
    fn rss_attachment_has_higher_floor() {
        // PCIe + serialized manager dispatch must show a higher minimum
        // latency than the integrated NIC.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.3, 32, 5000, 64);
        let int = Altocumulus::new(AcConfig::ac_int(2, 16, dist.mean())).run(&t);
        let rss = Altocumulus::new(AcConfig::ac_rss(2, 16, dist.mean())).run(&t);
        assert!(rss.hist.min() > int.hist.min());
    }

    #[test]
    fn deterministic() {
        let dist = ServiceDistribution::bimodal_paper();
        let t = trace(dist, 0.6, 32, 10_000, 16);
        let a = Altocumulus::new(AcConfig::ac_int(2, 16, dist.mean())).run_detailed(&t);
        let b = Altocumulus::new(AcConfig::ac_int(2, 16, dist.mean())).run_detailed(&t);
        assert_eq!(a.system.p99(), b.system.p99());
        assert_eq!(a.stats.migrated_requests, b.stats.migrated_requests);
        assert_eq!(a.stats.migrate_messages, b.stats.migrate_messages);
    }

    #[test]
    fn naive_threshold_migrates_less() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 40_000, 5);
        let model = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run_detailed(&t);
        let mut naive_cfg = AcConfig::ac_int(4, 16, dist.mean());
        naive_cfg.threshold = ThresholdPolicy::NaiveUpperBound { slo_ratio: 10.0 };
        let naive = Altocumulus::new(naive_cfg).run_detailed(&t);
        // k*L+1 = 151 for 15 workers: the queue rarely reaches it, so the
        // threshold trigger fires less often than the model's.
        assert!(
            naive.stats.predicted.len() <= model.stats.predicted.len(),
            "naive predicted {} > model {}",
            naive.stats.predicted.len(),
            model.stats.predicted.len()
        );
    }

    #[test]
    fn predict_only_marks_without_moving() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 40_000, 5);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        cfg.predict_only = true;
        let r = Altocumulus::new(cfg).run_detailed(&t);
        assert!(
            !r.stats.predicted.is_empty(),
            "imbalance must trigger predictions"
        );
        assert_eq!(r.stats.migrate_messages, 0);
        assert_eq!(r.stats.migrated_requests, 0);
        assert!(r.system.completions.iter().all(|c| !c.migrated));
        // Identical dynamics to a migration-disabled run.
        let mut off = AcConfig::ac_int(4, 16, dist.mean());
        off.migration_enabled = false;
        let base = Altocumulus::new(off).run_detailed(&t);
        assert_eq!(r.system.p99(), base.system.p99());
    }

    #[test]
    fn guard_disabled_migrates_more() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 40_000, 5);
        let on = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run_detailed(&t);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        cfg.guard_enabled = false;
        let off = Altocumulus::new(cfg).run_detailed(&t);
        assert_eq!(off.stats.guard_blocked, 0);
        assert!(
            off.stats.migrate_messages >= on.stats.migrate_messages,
            "without the guard at least as many messages fire"
        );
    }

    #[test]
    fn threshold_only_patterns_still_migrate() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 40_000, 5);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        cfg.patterns = crate::config::PatternPolicy::ThresholdOnly;
        let r = Altocumulus::new(cfg).run_detailed(&t);
        assert!(r.stats.migrated_requests > 0);
        assert_eq!(r.system.completions.len(), 40_000);
    }

    #[test]
    fn tenancy_isolates_cores_and_migrations() {
        use crate::tenancy::Tenancy;
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.8, 64, 30_000, 64);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        let tenancy = Tenancy::even(4, 2);
        cfg.tenancy = Some(tenancy.clone());
        let r = Altocumulus::new(cfg).run_detailed(&t);
        assert_eq!(r.system.completions.len(), 30_000);
        // Every request executed on a core of its own tenant's groups.
        for c in &r.system.completions {
            let req = &t.requests()[c.id.0 as usize];
            let group = c.core / 16;
            assert_eq!(
                tenancy.tenant_of_group(group),
                tenancy.tenant_of_conn(req.conn),
                "request leaked across the tenant boundary"
            );
        }
    }

    #[test]
    fn noisy_neighbor_cannot_hurt_isolated_tenant() {
        use crate::tenancy::Tenancy;
        use workload::request::{ConnectionId, Request, RequestId};
        use workload::trace::Trace;
        // Tenant 0 (even conns) sends a massive burst; tenant 1 (odd conns)
        // trickles. Under isolation, tenant 1's latency stays at the floor.
        let svc = SimDuration::from_ns(850);
        let mut reqs = Vec::new();
        let mut id = 0u64;
        let push = |arrival_ns: u64, conn: u32, reqs: &mut Vec<Request>, id: &mut u64| {
            reqs.push(Request {
                id: RequestId(*id),
                arrival: SimTime::from_ns(arrival_ns),
                service: svc,
                kind: workload::request::RequestKind::Generic,
                conn: ConnectionId(conn),
                size_bytes: 300,
            });
            *id += 1;
        };
        let mut t_ns = 0u64;
        for i in 0..30_000u64 {
            t_ns += 20; // tenant 0: 50 MRPS burst, far beyond its half
            push(t_ns, (i % 8) as u32 * 2, &mut reqs, &mut id);
            if i % 100 == 0 {
                push(t_ns + 1, 1 + (i % 8) as u32 * 2, &mut reqs, &mut id);
            }
        }
        reqs.sort_by_key(|r| (r.arrival, r.id.0));
        for (i, r) in reqs.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        let trace = Trace::new(reqs);
        let mut cfg = AcConfig::ac_int(4, 16, svc);
        let tenancy = Tenancy::even(4, 2);
        cfg.tenancy = Some(tenancy.clone());
        let r = Altocumulus::new(cfg).run_detailed(&trace);
        // Tenant 1 (odd conns) latencies stay near the no-load floor.
        let mut victim_worst = SimDuration::ZERO;
        for c in &r.system.completions {
            let req = &trace.requests()[c.id.0 as usize];
            if tenancy.tenant_of_conn(req.conn) == 1 {
                victim_worst = victim_worst.max(c.latency());
            }
        }
        assert!(
            victim_worst < SimDuration::from_us(3),
            "isolated tenant's worst latency {victim_worst} polluted by the noisy neighbor"
        );
    }

    fn staging_trace(n: usize) -> Trace {
        use workload::request::{ConnectionId, Request, RequestId};
        let reqs = (0..n)
            .map(|i| Request {
                id: RequestId(i as u64),
                arrival: SimTime::from_ns(i as u64 * 10),
                service: SimDuration::from_ns(100),
                kind: workload::request::RequestKind::Generic,
                conn: ConnectionId(0),
                size_bytes: 64,
            })
            .collect();
        Trace::new(reqs)
    }

    fn qr(idx: usize, migrated: bool) -> QueuedRequest {
        let mut q =
            QueuedRequest::new(idx, SimDuration::from_ns(100), SimTime::from_ns(idx as u64));
        q.migrated = migrated;
        q
    }

    fn stage(netrx: &mut VecDeque<QueuedRequest>, trace: &Trace, count: usize) -> Vec<Descriptor> {
        let mut staged = Vec::new();
        let mut hint = 0;
        stage_from_tail(netrx, trace, count, &mut staged, &mut hint, false);
        assert_eq!(
            hint as usize,
            netrx
                .iter()
                .rev()
                .take_while(|q| q.migrated)
                .count()
                .min(hint as usize),
            "returned hint must only cover the migrated tail run"
        );
        staged
    }

    #[test]
    fn stage_hint_accumulates_and_short_circuits() {
        let t = staging_trace(6);
        // head -> tail: 0, 1(m), 2, 3(m), 4(m), 5
        let mut netrx: VecDeque<_> = [
            qr(0, false),
            qr(1, true),
            qr(2, false),
            qr(3, true),
            qr(4, true),
            qr(5, false),
        ]
        .into_iter()
        .collect();
        let mut staged = Vec::new();
        let mut hint = 0;
        stage_from_tail(&mut netrx, &t, 2, &mut staged, &mut hint, false);
        assert_eq!(
            staged.iter().map(|d| d.trace_idx).collect::<Vec<_>>(),
            vec![5, 2]
        );
        // Removing 5 and 2 collapsed the walked-over migrated entries into
        // one contiguous tail run, which the hint now covers exactly.
        assert_eq!(
            netrx.iter().map(|q| q.idx).collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
        assert_eq!(hint, 2, "walked-over migrated entries feed the hint");
        // Second staging starts below the hinted run and finds request 0.
        stage_from_tail(&mut netrx, &t, 2, &mut staged, &mut hint, false);
        assert_eq!(
            staged.iter().map(|d| d.trace_idx).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(hint, 3, "the whole remaining queue is known migrated");
        // Third staging is an O(1) no-op: hint covers the queue.
        stage_from_tail(&mut netrx, &t, 2, &mut staged, &mut hint, false);
        assert!(staged.is_empty());
        assert_eq!(netrx.len(), 3);
        // An emergency (re-migration allowed) drain ignores and resets it.
        stage_from_tail(&mut netrx, &t, 8, &mut staged, &mut hint, true);
        assert_eq!(staged.len(), 3);
        assert_eq!(hint, 0);
    }

    #[test]
    fn stage_from_tail_takes_tail_first() {
        let t = staging_trace(4);
        let mut netrx: VecDeque<_> = (0..4).map(|i| qr(i, false)).collect();
        let staged = stage(&mut netrx, &t, 2);
        assert_eq!(
            staged.iter().map(|d| d.trace_idx).collect::<Vec<_>>(),
            vec![3, 2],
            "staging walks the queue from the tail"
        );
        assert_eq!(
            netrx.iter().map(|q| q.idx).collect::<Vec<_>>(),
            vec![0, 1],
            "the head of the queue is untouched"
        );
    }

    #[test]
    fn stage_from_tail_skips_migrated_and_preserves_order() {
        let t = staging_trace(5);
        // head -> tail: 0, 1(migrated), 2(migrated), 3, 4
        let mut netrx: VecDeque<_> = [
            qr(0, false),
            qr(1, true),
            qr(2, true),
            qr(3, false),
            qr(4, false),
        ]
        .into_iter()
        .collect();
        let staged = stage(&mut netrx, &t, 3);
        assert_eq!(
            staged.iter().map(|d| d.trace_idx).collect::<Vec<_>>(),
            vec![4, 3, 0],
            "already-migrated entries are never re-staged"
        );
        assert_eq!(
            netrx.iter().map(|q| q.idx).collect::<Vec<_>>(),
            vec![1, 2],
            "skipped entries keep their relative order"
        );
        assert!(netrx.iter().all(|q| q.migrated));
    }

    #[test]
    fn stage_from_tail_caps_at_count() {
        let t = staging_trace(6);
        let mut netrx: VecDeque<_> = (0..6).map(|i| qr(i, false)).collect();
        let staged = stage(&mut netrx, &t, 2);
        assert_eq!(staged.len(), 2);
        assert_eq!(netrx.len(), 4);
        // Entries beyond the cap — including migrated ones nearer the head —
        // are left exactly where they were.
        assert_eq!(
            netrx.iter().map(|q| q.idx).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn stage_from_tail_drains_short_queue() {
        let t = staging_trace(3);
        let mut netrx: VecDeque<_> = [qr(0, true), qr(1, false)].into_iter().collect();
        let staged = stage(&mut netrx, &t, 10);
        assert_eq!(
            staged.iter().map(|d| d.trace_idx).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            netrx.iter().map(|q| q.idx).collect::<Vec<_>>(),
            vec![0],
            "migrated entry survives a full drain"
        );
        assert!(stage(&mut netrx, &t, 10).is_empty());
        let descriptors = stage(&mut VecDeque::new(), &t, 4);
        assert!(descriptors.is_empty());
    }

    #[test]
    fn streaming_keeps_event_queue_small() {
        // Peak event-queue population is O(in-flight), not O(trace).
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.6, 64, 20_000, 256);
        let mut ac = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean()));
        let r = ac.run_detailed(&t);
        assert_eq!(r.system.completions.len(), 20_000);
        assert!(
            r.summary.peak_queue < 8_000,
            "peak queue {} should stay far below the {}-event trace",
            r.summary.peak_queue,
            t.len()
        );
        // Every request is at least an Enqueue, a Deliver and a WorkerDone.
        assert!(r.summary.events > 60_000, "events: {}", r.summary.events);
    }

    #[test]
    fn injection_stagger_is_3ns_per_slot() {
        assert_eq!(injection_stagger(0), SimDuration::ZERO);
        assert_eq!(injection_stagger(1), SimDuration::from_ns(3));
        assert_eq!(injection_stagger(5), SimDuration::from_ns(15));
    }

    #[test]
    fn stagger_is_per_planned_order() {
        // Pins the audited injection-slot semantics: the MIGRATE loop's
        // stagger index enumerates *planned* orders, so a guard-blocked or
        // empty-staged order keeps its slot and later sends do NOT compact
        // forward. The golden values below come from a run where blocked
        // orders and sends coexist; compacting the slots would shift MIGRATE
        // delivery times and change every number.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.85, 64, 12_000, 5);
        let r = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run_detailed(&t);
        assert!(
            r.stats.guard_blocked > 0 && r.stats.migrate_messages > 0,
            "pin needs blocked orders interleaved with sends: {:?}",
            r.stats
        );
        assert_eq!(r.system.end_time, SimTime::from_ps(192_720_703));
        assert_eq!(r.system.p99(), SimDuration::from_ps(2_244_608));
        assert_eq!(r.stats.migrate_messages, 691);
        assert_eq!(r.stats.guard_blocked, 1646);
        assert_eq!(r.stats.migrated_requests, 2364);
    }

    #[test]
    fn low_load_dormancy_matches_event_driven_oracle() {
        // At 5% load most groups are quiescent most of the time, so the
        // idle-tick fast-forward carries the bulk of the manager plane —
        // and must still be indistinguishable from the event-driven oracle.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let t = trace(dist, 0.05, 64, 5_000, 5);
        let el = Altocumulus::new(AcConfig::ac_int(4, 16, dist.mean())).run_detailed(&t);
        let mut cfg = AcConfig::ac_int(4, 16, dist.mean());
        cfg.control_plane = crate::config::ControlPlane::EventDriven;
        let ev = Altocumulus::new(cfg).run_detailed(&t);
        assert_eq!(el.system.completions, ev.system.completions);
        assert_eq!(el.system.end_time, ev.system.end_time);
        assert_eq!(el.stats.ticks, ev.stats.ticks);
        assert!(el.stats.ticks > 0);
        assert_eq!(el.stats.update_messages, ev.stats.update_messages);
        assert_eq!(el.stats.migrated_requests, ev.stats.migrated_requests);
        assert!(
            el.summary.events * 2 < ev.summary.events,
            "idle elision should remove most events: {} vs {}",
            el.summary.events,
            ev.summary.events
        );
    }

    #[test]
    fn msr_interface_slower_manager() {
        // MSR runtime cost occupies the ACrss manager longer; throughput at
        // saturation must not improve.
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(100));
        let t = trace(dist, 0.95, 32, 40_000, 8);
        let isa = Altocumulus::new(AcConfig::ac_rss(2, 16, dist.mean())).run(&t);
        let mut msr_cfg = AcConfig::ac_rss(2, 16, dist.mean());
        msr_cfg.interface = crate::hw::interface::Interface::Msr;
        let msr = Altocumulus::new(msr_cfg).run(&t);
        assert!(msr.p99() >= isa.p99());
    }
}
