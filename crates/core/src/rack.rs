//! Rack-scale tier: N servers composed under a two-level scheduler.
//!
//! The paper evaluates one 256-core server; a rack of them needs an
//! *inter-server* policy on top of the intra-server migration mesh.
//! Following RackSched (OSDI '20) — and Rain's in-network refinement of the
//! same split — this module adds that tier as a first-class subsystem:
//!
//! - **Level 1 (inter-server, at the ToR):** power-of-k least-load routing
//!   with per-connection affinity. New connections sample `k` candidate
//!   servers from the ToR's request-outstanding estimate and bind to the
//!   least loaded; established connections stick to their server (intra-
//!   server state such as RSS steering and manager queues stays warm)
//!   unless its load spills past a configurable multiple of the sampled
//!   best, or the server is detected dead.
//! - **Level 2 (intra-server):** each server is a full [`Altocumulus`]
//!   world with its own group mesh and migration machinery (or a d-FCFS /
//!   JBSQ baseline for head-to-head rack comparisons), driven through the
//!   same serial calendar-queue engine as a single-server run. Servers are
//!   independent runs, so they fan out across threads.
//!
//! The ToR hop is modeled like the NIC transfer paths ([`rpcstack::nic::
//! Transfer`]): a fixed switch latency plus store-and-forward serialization
//! on the destination downlink, whose occupancy is a per-port drain clock
//! with no buffer limit (queueing delay surfaces in
//! [`RoutingStats::tor_max_queue_ps`]). Per-server fault plans reuse
//! [`simcore::faults`] wholesale, and a whole-server-death scenario layers
//! on top: requests in flight to (or unfinished on) a dead server are
//! retried through the ToR after a client timeout, and connections rebind
//! once the death is detected — the PR-5 takeover machinery then absorbs
//! any *intra*-server faults on the survivors.
//!
//! # Determinism contract
//!
//! Routing is a single serial pass over the global trace in arrival order,
//! drawing only from the isolated [`streams::RACK`] RNG stream (zero draws
//! when the rack has one server, so a 1-server rack is byte-identical to
//! the bare world). Per-server simulations are mutually independent once
//! the routing pass has fixed their sub-traces, so they may run under
//! [`simcore::parallel_map`] at any thread count — results are merged in a
//! fixed (finish, server, completion-seq) order. Completions, stats, RNG
//! draw counts and TRACE/1.0 recordings are therefore byte-identical
//! across `SWEEP_THREADS` values and repeated invocations.

use crate::config::AcConfig;
use crate::system::{AcResult, Altocumulus};
use rand::rngs::StdRng;
use rand::Rng;
use schedulers::common::{RpcSystem, SystemResult};
use schedulers::dfcfs::{DFcfs, DFcfsConfig};
use schedulers::jbsq::{Jbsq, JbsqConfig, JbsqVariant};
use simcore::faults::FaultPlan;
use simcore::rng::{stream_rng, streams, BatchedRng};
use simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use workload::request::{Completion, Request, RequestId};
use workload::trace::Trace;

/// Modeled top-of-rack switch: every request pays one switch hop plus
/// store-and-forward serialization on the destination server's downlink
/// port. Port occupancy is a drain clock per server, so bursts toward one
/// server queue behind each other exactly like a bounded egress FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorConfig {
    /// Fixed one-way switch traversal latency per request.
    pub hop_latency: SimDuration,
    /// Downlink bandwidth in Gbit/s; `0` models an infinitely fast fabric
    /// (no serialization, no port queueing) — used by identity tests.
    pub link_gbps: u64,
    /// Delay between a server dying and the ToR health machinery marking
    /// it dead (until then, new requests are still routed at it and lost
    /// into the void, to be retried).
    pub detect_delay: SimDuration,
    /// Client-side retry timer: a request swallowed by a dead server is
    /// re-sent this long after `max(send time, death instant)`. Must be at
    /// least `detect_delay`, so a retry is never re-routed to the same
    /// dead server and the retry cascade provably terminates.
    pub retry_timeout: SimDuration,
}

impl TorConfig {
    /// Defaults for a commodity rack: 500 ns hop, 100 Gbit/s downlinks,
    /// 50 µs failure detection, 100 µs client retry.
    pub fn paper() -> Self {
        TorConfig {
            hop_latency: SimDuration::from_ns(500),
            link_gbps: 100,
            detect_delay: SimDuration::from_us(50),
            retry_timeout: SimDuration::from_us(100),
        }
    }

    /// A transparent fabric: zero hop latency, infinite bandwidth,
    /// immediate detection. A 1-server rack under this ToR reproduces the
    /// bare server byte-for-byte.
    pub fn ideal() -> Self {
        TorConfig {
            hop_latency: SimDuration::ZERO,
            link_gbps: 0,
            detect_delay: SimDuration::ZERO,
            retry_timeout: SimDuration::from_us(100),
        }
    }

    /// Store-and-forward serialization delay of a `bytes`-byte message on
    /// one downlink (zero for the infinite fabric).
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        if self.link_gbps == 0 {
            SimDuration::ZERO
        } else {
            // bits * (1000 ps per Gbit-bit) / gbps, rounded up.
            SimDuration::from_ps((bytes as u64 * 8_000).div_ceil(self.link_gbps))
        }
    }
}

/// The inter-server routing policy (level 1 of the two-level scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePolicy {
    /// Candidate servers sampled per routing decision (RackSched's
    /// power-of-k). `k >=` live servers degenerates to full least-load.
    pub power_k: usize,
    /// Per-connection affinity: keep a connection on its bound server
    /// (warm RSS steering and manager state) instead of re-deciding per
    /// request.
    pub affinity: bool,
    /// A bound connection spills to the sampled best server when its
    /// server's outstanding estimate exceeds
    /// `spill_factor * best + spill_slack`.
    pub spill_factor: u32,
    /// Additive slack of the spill test (absorbs small-load noise).
    pub spill_slack: u32,
    /// The ToR's a-priori estimate of mean request service time, used only
    /// by its request-outstanding load tracker (the ToR cannot see real
    /// per-server queues, exactly like RackSched's switch).
    pub est_service: SimDuration,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy {
            power_k: 2,
            affinity: true,
            spill_factor: 2,
            spill_slack: 8,
            est_service: SimDuration::from_ns(850),
        }
    }
}

impl RoutePolicy {
    /// Pure least-load over `k` sampled candidates, no affinity — the
    /// stateless lower layer on its own, for A/B routing comparisons.
    pub fn least_load(k: usize) -> Self {
        RoutePolicy {
            power_k: k,
            affinity: false,
            ..Default::default()
        }
    }
}

/// What runs inside each server of the rack.
#[derive(Debug, Clone)]
pub enum ServerSpec {
    /// A full Altocumulus world (group mesh, migration, faults).
    Ac(AcConfig),
    /// A d-FCFS baseline server.
    DFcfs(DFcfsConfig),
    /// A JBSQ hardware-scheduler baseline server.
    Jbsq(JbsqVariant, JbsqConfig),
}

impl ServerSpec {
    /// Worker cores per server.
    pub fn cores(&self) -> usize {
        match self {
            ServerSpec::Ac(cfg) => cfg.total_cores(),
            ServerSpec::DFcfs(cfg) => cfg.cores,
            ServerSpec::Jbsq(_, cfg) => cfg.cores,
        }
    }

    /// Short system label for tables and topology strings.
    pub fn label(&self) -> &'static str {
        match self {
            ServerSpec::Ac(_) => "AC",
            ServerSpec::DFcfs(_) => "d-FCFS",
            ServerSpec::Jbsq(v, _) => v.name(),
        }
    }
}

/// A whole-server-death event: at `at`, every request running, queued or
/// in flight to `server` is gone; completions that finished strictly
/// before `at` survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerDeath {
    /// Index of the dying server.
    pub server: usize,
    /// Instant of death.
    pub at: SimTime,
}

/// Configuration of a rack: `servers` copies of `template` behind one ToR.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Number of servers in the rack.
    pub servers: usize,
    /// Per-server system. Server `i` runs this spec with its seed offset
    /// by `i` (so servers are decorrelated but server 0 reproduces the
    /// template exactly) and `server_faults[i]` installed if present.
    pub template: ServerSpec,
    /// The modeled ToR switch.
    pub tor: TorConfig,
    /// Inter-server routing policy.
    pub policy: RoutePolicy,
    /// Per-server intra-server fault plans: empty for a healthy rack, or
    /// exactly one [`FaultPlan`] per server.
    pub server_faults: Vec<FaultPlan>,
    /// Whole-server deaths (at most one per server).
    pub deaths: Vec<ServerDeath>,
    /// Master seed of the rack tier; routing draws only from its
    /// [`streams::RACK`] stream.
    pub seed: u64,
}

impl RackConfig {
    /// A rack of `servers` ACint servers of `groups`×`group_size` cores
    /// each, under the default ToR and routing policy.
    pub fn ac(servers: usize, groups: usize, group_size: usize, mean_service: SimDuration) -> Self {
        let policy = RoutePolicy {
            est_service: mean_service,
            ..Default::default()
        };
        RackConfig {
            servers,
            template: ServerSpec::Ac(AcConfig::ac_int(groups, group_size, mean_service)),
            tor: TorConfig::paper(),
            policy,
            server_faults: Vec::new(),
            deaths: Vec::new(),
            seed: 0,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on zero servers, zero `power_k`, a fault-plan vector whose
    /// length is neither 0 nor `servers`, a death naming a nonexistent
    /// server or repeating one, or a retry timeout shorter than the
    /// detection delay (which could retry into the undetected dead server
    /// forever).
    pub fn validate(&self) {
        assert!(self.servers >= 1, "rack needs at least one server");
        assert!(self.policy.power_k >= 1, "power-of-k needs k >= 1");
        assert!(
            self.server_faults.is_empty() || self.server_faults.len() == self.servers,
            "server_faults must be empty or one plan per server"
        );
        for plan in &self.server_faults {
            plan.validate();
        }
        let mut seen = vec![false; self.servers];
        for d in &self.deaths {
            assert!(d.server < self.servers, "death targets nonexistent server");
            assert!(!seen[d.server], "server {} dies twice", d.server);
            seen[d.server] = true;
        }
        if !self.deaths.is_empty() {
            assert!(
                self.tor.retry_timeout >= self.tor.detect_delay,
                "retry_timeout must cover detect_delay so retries terminate"
            );
        }
    }

    /// Worker cores per server.
    pub fn cores_per_server(&self) -> usize {
        self.template.cores()
    }

    /// Total simulated cores in the rack.
    pub fn total_cores(&self) -> usize {
        self.servers * self.cores_per_server()
    }

    /// Content fingerprint over the whole rack shape (servers, template,
    /// ToR, policy, fault plans, deaths, seed).
    pub fn fingerprint(&self) -> u64 {
        crate::config::fingerprint_of(&format!("{self:?}"))
    }

    /// Canonical topology string recorded into the TRACE/1.0 run header of
    /// server `server`'s sub-run, so a replay against a drifted rack shape
    /// fails at provenance before any event comparison.
    pub fn topology(&self, server: usize) -> String {
        format!(
            "rack:{}x{}:{}/fp{:016x}/srv{}",
            self.servers,
            self.cores_per_server(),
            self.template.label(),
            self.fingerprint(),
            server
        )
    }

    /// The concrete spec server `idx` runs: the template with its seed
    /// offset by `idx` and the server's fault plan (if any) installed.
    pub fn server_spec(&self, idx: usize) -> ServerSpec {
        let mut spec = self.template.clone();
        let plan = self.server_faults.get(idx);
        match &mut spec {
            ServerSpec::Ac(cfg) => {
                cfg.seed = cfg.seed.wrapping_add(idx as u64);
                if let Some(p) = plan {
                    cfg.faults = p.clone();
                }
            }
            ServerSpec::DFcfs(cfg) => {
                cfg.seed = cfg.seed.wrapping_add(idx as u64);
                if let Some(p) = plan {
                    cfg.faults = p.clone();
                }
            }
            ServerSpec::Jbsq(_, cfg) => {
                if let Some(p) = plan {
                    cfg.faults = p.clone();
                }
            }
        }
        spec
    }

    /// Instant server `s` dies, if a death is scheduled for it.
    pub fn death_of(&self, s: usize) -> Option<SimTime> {
        self.deaths.iter().find(|d| d.server == s).map(|d| d.at)
    }
}

/// Counters of the inter-server routing pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Connections bound to a server for the first time.
    pub new_bindings: u64,
    /// Requests that stayed on their connection's bound server.
    pub affinity_hits: u64,
    /// Connections rebound because their server's load spilled past the
    /// sampled best.
    pub affinity_rebinds: u64,
    /// Connections rebound off a detected-dead server.
    pub dead_rebinds: u64,
    /// `u64` words drawn from the [`streams::RACK`] stream (provenance;
    /// zero for a 1-server rack).
    pub rack_rng_draws: u64,
    /// Worst downlink-port queueing delay observed, in picoseconds.
    pub tor_max_queue_ps: u64,
    /// Requests sent at a dead-but-undetected server (lost in the void,
    /// retried after the client timeout).
    pub limbo_redirects: u64,
    /// Requests running or queued on a server at its death, retried.
    pub death_retries: u64,
    /// Requests dropped because every server was detected dead.
    pub lost: u64,
}

/// The finished simulation of one server.
#[derive(Debug)]
pub enum ServerOutcome {
    /// An Altocumulus server's full result.
    Ac(Box<AcResult>),
    /// A baseline (or empty) server's latency/completion result.
    Baseline(SystemResult),
}

impl ServerOutcome {
    /// The latency/completion result, uniform across systems.
    pub fn system(&self) -> &SystemResult {
        match self {
            ServerOutcome::Ac(r) => &r.system,
            ServerOutcome::Baseline(s) => s,
        }
    }

    /// Simulator events processed (0 for baselines, which do not account
    /// events in their result).
    pub fn events(&self) -> u64 {
        match self {
            ServerOutcome::Ac(r) => r.summary.events,
            ServerOutcome::Baseline(_) => 0,
        }
    }

    /// Peak event-queue population (0 for baselines).
    pub fn peak_queue(&self) -> usize {
        match self {
            ServerOutcome::Ac(r) => r.summary.peak_queue,
            ServerOutcome::Baseline(_) => 0,
        }
    }

    /// Label of the engine that drove the run.
    pub fn engine(&self) -> &'static str {
        match self {
            ServerOutcome::Ac(r) => r.engine,
            ServerOutcome::Baseline(_) => "baseline",
        }
    }
}

/// Output of the serial routing pass: per-server sub-traces plus
/// everything needed to merge and to record the run.
#[derive(Debug)]
pub struct RackRouting {
    /// Per-server workload, with request ids renumbered `0..n` locally
    /// (every server run is a fully standard single-server run).
    pub sub_traces: Vec<Trace>,
    /// Per server: local request id → index into the global trace.
    pub global_of: Vec<Vec<usize>>,
    /// Eagerly-computed simulations of servers that die mid-run (their
    /// results are needed *during* routing to decide which requests
    /// survived and which retry).
    pub dead_runs: Vec<Option<ServerOutcome>>,
    /// Routing counters.
    pub stats: RoutingStats,
}

/// Per-server accounting of a rack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerRun {
    /// `srv<i>` display label.
    pub label: String,
    /// Engine that drove this server's run.
    pub engine: &'static str,
    /// Requests routed into this server's sub-trace.
    pub assigned: usize,
    /// Completions credited to this server after death truncation.
    pub completed: usize,
    /// Simulator events processed.
    pub events: u64,
    /// Peak event-queue population.
    pub peak_queue: usize,
}

/// Result of a whole-rack run.
#[derive(Debug)]
pub struct RackResult {
    /// Merged rack-level latency/completion result. Completion ids and
    /// arrival instants are in *global trace* terms (arrival = ToR
    /// arrival, so latency includes the switch hop and any death/retry
    /// penalty); core ids are globalized as `server * cores_per_server +
    /// core`.
    pub system: SystemResult,
    /// Requests offered to the rack.
    pub offered: usize,
    /// Inter-server routing counters.
    pub routing: RoutingStats,
    /// Per-server accounting, indexed by server.
    pub per_server: Vec<ServerRun>,
    /// Total simulator events across all servers.
    pub events: u64,
    /// Largest per-server peak event-queue population.
    pub peak_queue: usize,
}

/// A rack of servers behind a modeled ToR. See [module docs](self).
#[derive(Debug, Clone)]
pub struct RackWorld {
    cfg: RackConfig,
}

/// Runs one server spec over its sub-trace. Empty sub-traces short-circuit
/// to an empty result (an idle server never enters its event loop).
fn run_server(spec: &ServerSpec, trace: &Trace) -> ServerOutcome {
    if trace.is_empty() {
        return ServerOutcome::Baseline(SystemResult::with_capacity(0));
    }
    match spec {
        ServerSpec::Ac(cfg) => {
            ServerOutcome::Ac(Box::new(Altocumulus::new(cfg.clone()).run_detailed(trace)))
        }
        ServerSpec::DFcfs(cfg) => ServerOutcome::Baseline(DFcfs::new(cfg.clone()).run(trace)),
        ServerSpec::Jbsq(v, cfg) => {
            ServerOutcome::Baseline(Jbsq::with_config(*v, cfg.clone()).run(trace))
        }
    }
}

/// The completions a server is credited with: those that finished strictly
/// before its death (all of them if it never dies). `completions` must be
/// sorted by finish time, so the credited ones are a prefix.
fn credited(completions: &[Completion], death: Option<SimTime>) -> &[Completion] {
    debug_assert!(
        completions.windows(2).all(|w| w[0].finish <= w[1].finish),
        "a server's completions must be sorted by finish time"
    );
    match death {
        Some(d) => &completions[..completions.partition_point(|c| c.finish < d)],
        None => completions,
    }
}

/// Deterministic rack merge: a k-way merge of per-server completion lists,
/// each sorted by finish time, calling `emit(server, completion)` in
/// (finish, server, per-server order). Equal-finish ties therefore never
/// depend on thread scheduling, and a 1-server rack preserves its server's
/// completion order exactly.
fn merge_by_finish(lists: &[&[Completion]], mut emit: impl FnMut(usize, &Completion)) {
    // One entry per non-exhausted list: (head finish, server). A server's
    // next completion enters only after its previous one left, which keeps
    // the per-server order.
    let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = lists
        .iter()
        .enumerate()
        .filter_map(|(s, l)| l.first().map(|c| Reverse((c.finish, s))))
        .collect();
    let mut next = vec![0usize; lists.len()];
    while let Some(mut top) = heads.peek_mut() {
        let Reverse((_, s)) = *top;
        emit(s, &lists[s][next[s]]);
        next[s] += 1;
        match lists[s].get(next[s]) {
            Some(c) => *top = Reverse((c.finish, s)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
}

/// Serial routing-pass state (see [`RackWorld::route`]).
struct Router<'a> {
    cfg: &'a RackConfig,
    trace: &'a Trace,
    rng: BatchedRng<StdRng>,
    /// Connection id → bound server ([`UNBOUND`] if none), dense and grown
    /// on first bind: one slot per connection id up to the largest seen.
    bind: Vec<u32>,
    /// Scratch: servers not yet detected dead at the current send.
    live: Vec<usize>,
    /// Scratch: the sampled power-of-k candidates.
    cands: Vec<usize>,
    /// Per-server downlink drain clock (ps).
    port_busy: Vec<u64>,
    /// Per-server estimated-finish heap: the ToR's outstanding counter.
    load: Vec<BinaryHeap<Reverse<u64>>>,
    /// Sub-traces under construction.
    sub: Vec<Vec<Request>>,
    /// Local id → global trace index.
    map: Vec<Vec<usize>>,
    /// Death instant per server (ps), from the configured schedule.
    death_ps: Vec<Option<u64>>,
    /// Detection instant per server (ps).
    detect_ps: Vec<Option<u64>>,
    /// Finalized sub-traces of dead servers (already simulated).
    final_trace: Vec<Option<Trace>>,
    dead_runs: Vec<Option<ServerOutcome>>,
    /// Pending retry sends: (retry instant ps, global trace index).
    retries: BinaryHeap<Reverse<(u64, usize)>>,
    stats: RoutingStats,
    cores: usize,
    mean_ps: u64,
}

/// [`Router::bind`] slot of a connection with no bound server.
const UNBOUND: u32 = u32::MAX;

impl Router<'_> {
    /// The server connection `conn` is bound to, if any.
    fn bound(&self, conn: u32) -> Option<usize> {
        match self.bind.get(conn as usize) {
            Some(&s) if s != UNBOUND => Some(s as usize),
            _ => None,
        }
    }

    /// Binds `conn` to server `s` and returns the previous binding.
    fn rebind(&mut self, conn: u32, s: usize) -> Option<usize> {
        let slot = conn as usize;
        if slot >= self.bind.len() {
            self.bind.resize(slot + 1, UNBOUND);
        }
        let prev = std::mem::replace(&mut self.bind[slot], s as u32);
        (prev != UNBOUND).then_some(prev as usize)
    }

    fn is_detected_dead(&self, s: usize, now_ps: u64) -> bool {
        self.detect_ps[s].is_some_and(|d| now_ps >= d)
    }

    /// Outstanding estimate of server `s` at `now`: heap entries whose
    /// estimated finish has passed are drained first.
    fn load_of(&mut self, s: usize, now_ps: u64) -> usize {
        while self.load[s].peek().is_some_and(|&Reverse(f)| f <= now_ps) {
            self.load[s].pop();
        }
        self.load[s].len()
    }

    /// Least-loaded of `power_k` sampled candidates from [`Self::live`]
    /// (tie → lowest index). Sampling is skipped — zero draws — when `k`
    /// covers the whole live set.
    fn sample_best(&mut self, now_ps: u64) -> usize {
        let n = self.live.len();
        let k = self.cfg.policy.power_k.min(n);
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        if k == n {
            cands.extend_from_slice(&self.live);
        } else {
            // Live servers are distinct, so testing the server is testing
            // its sampled index.
            while cands.len() < k {
                let s = self.live[self.rng.random_range(0..n)];
                if !cands.contains(&s) {
                    cands.push(s);
                }
            }
        }
        let mut best = cands[0];
        let mut best_load = self.load_of(best, now_ps);
        for &s in &cands[1..] {
            let l = self.load_of(s, now_ps);
            if l < best_load || (l == best_load && s < best) {
                best = s;
                best_load = l;
            }
        }
        self.cands = cands;
        best
    }

    /// Applies the two-level policy over [`Self::live`]: affinity first,
    /// power-of-k least-load where a decision is needed.
    fn pick(&mut self, conn: u32, now_ps: u64) -> usize {
        if self.live.len() == 1 {
            // No choice to make and no RNG to draw (this keeps a 1-server
            // rack byte-identical to the bare server).
            let s = self.live[0];
            if self.cfg.policy.affinity && self.rebind(conn, s) != Some(s) {
                self.stats.new_bindings += 1;
            } else if self.cfg.policy.affinity {
                self.stats.affinity_hits += 1;
            }
            return s;
        }
        let pol = self.cfg.policy;
        let bound = if pol.affinity { self.bound(conn) } else { None };
        if let Some(b) = bound {
            if self.is_detected_dead(b, now_ps) {
                let best = self.sample_best(now_ps);
                self.stats.dead_rebinds += 1;
                self.rebind(conn, best);
                return best;
            }
            let best = self.sample_best(now_ps);
            let lb = self.load_of(b, now_ps) as u64;
            let lbest = self.load_of(best, now_ps) as u64;
            if lb > u64::from(pol.spill_factor) * lbest + u64::from(pol.spill_slack) {
                self.stats.affinity_rebinds += 1;
                self.rebind(conn, best);
                return best;
            }
            self.stats.affinity_hits += 1;
            return b;
        }
        let best = self.sample_best(now_ps);
        if pol.affinity {
            self.stats.new_bindings += 1;
            self.rebind(conn, best);
        }
        best
    }

    /// Routes one send (first attempt or retry) of global request
    /// `global` at instant `send_ps`.
    fn route_one(&mut self, global: usize, send_ps: u64) {
        self.live.clear();
        for s in 0..self.cfg.servers {
            if !self.is_detected_dead(s, send_ps) {
                self.live.push(s);
            }
        }
        if self.live.is_empty() {
            self.stats.lost += 1;
            return;
        }
        let r = self.trace.requests()[global];
        let s = self.pick(r.conn.0, send_ps);

        // ToR hop: switch latency + store-and-forward on the downlink.
        let ser = self.cfg.tor.serialization(r.size_bytes).as_ps();
        let hop = self.cfg.tor.hop_latency.as_ps();
        let start = send_ps.max(self.port_busy[s]);
        let queued = start - send_ps;
        self.port_busy[s] = start + ser;
        self.stats.tor_max_queue_ps = self.stats.tor_max_queue_ps.max(queued);
        let arr = start + ser + hop;

        // The ToR's outstanding estimate grows whether or not the server
        // is secretly dead — it believes it delivered the request.
        let outstanding = self.load_of(s, send_ps) as u64;
        let est = arr + self.mean_ps + self.mean_ps * outstanding / self.cores as u64;
        self.load[s].push(Reverse(est));

        if let Some(d) = self.death_ps[s] {
            if arr >= d {
                // Swallowed by a dead (possibly not-yet-detected) server:
                // the client retries after its timeout.
                self.stats.limbo_redirects += 1;
                let retry = send_ps.max(d) + self.cfg.tor.retry_timeout.as_ps();
                self.retries.push(Reverse((retry, global)));
                return;
            }
        }
        let local = self.sub[s].len() as u64;
        self.sub[s].push(Request {
            id: RequestId(local),
            arrival: SimTime::from_ps(arr),
            service: r.service,
            kind: r.kind,
            conn: r.conn,
            size_bytes: r.size_bytes,
        });
        self.map[s].push(global);
    }

    /// Processes server `s`'s death at `d_ps`: its sub-trace is final
    /// (nothing routes into a dead server), so simulate it now, keep
    /// completions that finished strictly before the death, and schedule
    /// a client retry for everything else.
    fn process_death(&mut self, s: usize, d_ps: u64) {
        let trace = Trace::new(std::mem::take(&mut self.sub[s]));
        let outcome = run_server(&self.cfg.server_spec(s), &trace);
        let mut survived = vec![false; trace.len()];
        for c in &outcome.system().completions {
            if c.finish.as_ps() < d_ps {
                survived[c.id.0 as usize] = true;
            }
        }
        let retry = d_ps + self.cfg.tor.retry_timeout.as_ps();
        for (local, ok) in survived.iter().enumerate() {
            if !ok {
                self.stats.death_retries += 1;
                self.retries.push(Reverse((retry, self.map[s][local])));
            }
        }
        self.final_trace[s] = Some(trace);
        self.dead_runs[s] = Some(outcome);
    }

    /// Runs every death marker and pending retry scheduled at or before
    /// `t_ps`, in time order (deaths first on ties, retries tie-broken by
    /// global index via the heap key).
    fn drain_until(&mut self, t_ps: u64, deaths: &[(u64, usize)], di: &mut usize) {
        loop {
            let next_death = deaths.get(*di).filter(|&&(at, _)| at <= t_ps);
            let next_retry = self
                .retries
                .peek()
                .filter(|&&Reverse((at, _))| at <= t_ps)
                .copied();
            match (next_death, next_retry) {
                (None, None) => break,
                (Some(&(at, s)), r) if r.is_none_or(|Reverse((rt, _))| at <= rt) => {
                    self.process_death(s, at);
                    *di += 1;
                }
                (_, Some(Reverse((rt, global)))) => {
                    self.retries.pop();
                    self.route_one(global, rt);
                }
                // (Some, None) always satisfies the second arm's guard.
                (Some(_), None) => unreachable!(),
            }
        }
    }
}

impl RackWorld {
    /// Creates the rack.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates its invariants (see
    /// [`RackConfig::validate`]).
    pub fn new(cfg: RackConfig) -> Self {
        cfg.validate();
        RackWorld { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &RackConfig {
        &self.cfg
    }

    /// The serial inter-server routing pass: walks the global trace in
    /// arrival order, interleaving death markers and client retries in
    /// time order, and fixes each server's sub-trace. Fully serial and
    /// thread-count independent by construction.
    pub fn route(&self, trace: &Trace) -> RackRouting {
        let n = self.cfg.servers;
        let mut deaths: Vec<(u64, usize)> = self
            .cfg
            .deaths
            .iter()
            .map(|d| (d.at.as_ps(), d.server))
            .collect();
        deaths.sort_unstable();
        let mut death_ps = vec![None; n];
        let mut detect_ps = vec![None; n];
        for &(at, s) in &deaths {
            death_ps[s] = Some(at);
            detect_ps[s] = Some(at + self.cfg.tor.detect_delay.as_ps());
        }
        let mut router = Router {
            cfg: &self.cfg,
            trace,
            rng: BatchedRng::new(stream_rng(self.cfg.seed, streams::RACK)),
            bind: Vec::new(),
            live: Vec::with_capacity(n),
            cands: Vec::with_capacity(n),
            port_busy: vec![0; n],
            load: vec![BinaryHeap::new(); n],
            sub: vec![Vec::new(); n],
            map: vec![Vec::new(); n],
            death_ps,
            detect_ps,
            final_trace: (0..n).map(|_| None).collect(),
            dead_runs: (0..n).map(|_| None).collect(),
            retries: BinaryHeap::new(),
            stats: RoutingStats::default(),
            cores: self.cfg.cores_per_server().max(1),
            mean_ps: self.cfg.policy.est_service.as_ps().max(1),
        };
        let mut di = 0;
        for (i, r) in trace.iter().enumerate() {
            let t = r.arrival.as_ps();
            router.drain_until(t, &deaths, &mut di);
            router.route_one(i, t);
        }
        router.drain_until(u64::MAX, &deaths, &mut di);
        router.stats.rack_rng_draws = router.rng.draws();
        let sub_traces = (0..n)
            .map(|s| {
                router.final_trace[s]
                    .take()
                    .unwrap_or_else(|| Trace::new(std::mem::take(&mut router.sub[s])))
            })
            .collect();
        RackRouting {
            sub_traces,
            global_of: router.map,
            dead_runs: router.dead_runs,
            stats: router.stats,
        }
    }

    /// Runs the rack over `trace`: routing pass, per-server simulations
    /// (order-preserving [`simcore::parallel_map`] across `threads`
    /// workers — byte-identical for every thread count), deterministic
    /// merge. Dead servers were already simulated during routing and are
    /// not re-run.
    pub fn run(&self, trace: &Trace, threads: usize) -> RackResult {
        let mut routing = self.route(trace);
        let dead_runs = std::mem::take(&mut routing.dead_runs);
        let jobs: Vec<(usize, Option<ServerOutcome>)> = dead_runs.into_iter().enumerate().collect();
        let outcomes: Vec<ServerOutcome> = simcore::parallel_map(jobs, threads, |_, (s, pre)| {
            pre.unwrap_or_else(|| run_server(&self.cfg.server_spec(s), &routing.sub_traces[s]))
        });

        let cores = self.cfg.cores_per_server();
        let lists: Vec<&[Completion]> = outcomes
            .iter()
            .enumerate()
            .map(|(s, out)| credited(&out.system().completions, self.cfg.death_of(s)))
            .collect();
        let mut system = SystemResult::with_capacity(lists.iter().map(|l| l.len()).sum());
        merge_by_finish(&lists, |s, c| {
            let global = routing.global_of[s][c.id.0 as usize];
            system.record(Completion {
                id: RequestId(global as u64),
                arrival: trace.requests()[global].arrival,
                finish: c.finish,
                core: s * cores + c.core,
                migrated: c.migrated,
            });
        });

        let per_server = outcomes
            .iter()
            .enumerate()
            .map(|(s, out)| ServerRun {
                label: format!("srv{s}"),
                engine: out.engine(),
                assigned: routing.sub_traces[s].len(),
                completed: lists[s].len(),
                events: out.events(),
                peak_queue: out.peak_queue(),
            })
            .collect::<Vec<_>>();
        let events = per_server.iter().map(|p| p.events).sum();
        let peak_queue = per_server.iter().map(|p| p.peak_queue).max().unwrap_or(0);
        RackResult {
            system,
            offered: trace.len(),
            routing: routing.stats,
            per_server,
            events,
            peak_queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based merge that [`merge_by_finish`] replaced, kept as its
    /// oracle: drop each server's completions at or after its death, then
    /// sort by (finish, server, per-server index).
    fn merge_by_sort(
        lists: &[Vec<Completion>],
        deaths: &[Option<SimTime>],
    ) -> Vec<(usize, Completion)> {
        let mut merged = Vec::new();
        for (s, list) in lists.iter().enumerate() {
            for (ci, c) in list.iter().enumerate() {
                if deaths[s].is_some_and(|d| c.finish >= d) {
                    continue;
                }
                merged.push((c.finish, s, ci));
            }
        }
        merged.sort_unstable();
        merged
            .into_iter()
            .map(|(_, s, ci)| (s, lists[s][ci]))
            .collect()
    }

    /// What [`RackWorld::run`] merges: credited prefixes, k-way merged.
    fn merge_k_way(
        lists: &[Vec<Completion>],
        deaths: &[Option<SimTime>],
    ) -> Vec<(usize, Completion)> {
        let cut: Vec<&[Completion]> = lists
            .iter()
            .zip(deaths)
            .map(|(l, &d)| credited(l, d))
            .collect();
        let mut merged = Vec::new();
        merge_by_finish(&cut, |s, c| merged.push((s, *c)));
        merged
    }

    /// A server's completion list with the given (sorted) finish times in
    /// ns; each id is its position, so the oracle comparison also checks
    /// the per-server order.
    fn completions(finish_ns: &[u64]) -> Vec<Completion> {
        finish_ns
            .iter()
            .enumerate()
            .map(|(i, &f)| Completion {
                id: RequestId(i as u64),
                arrival: SimTime::ZERO,
                finish: SimTime::from_ns(f),
                core: 0,
                migrated: false,
            })
            .collect()
    }

    #[test]
    fn merge_breaks_ties_by_server_then_order_and_cuts_at_death() {
        let lists = vec![
            completions(&[1, 3, 3, 5]),
            completions(&[3, 3, 4]),
            completions(&[0, 3, 9]),
            completions(&[]),
        ];
        // Server 1 dies at its first completion (credits nothing), server 2
        // at its last (credits all but it).
        let deaths = [
            None,
            Some(SimTime::from_ns(3)),
            Some(SimTime::from_ns(9)),
            None,
        ];
        let got = merge_k_way(&lists, &deaths);
        let order: Vec<(usize, u64)> = got.iter().map(|&(s, c)| (s, c.id.0)).collect();
        assert_eq!(order, [(2, 0), (0, 0), (0, 1), (0, 2), (2, 1), (0, 3)]);
        assert_eq!(got, merge_by_sort(&lists, &deaths));
    }

    proptest! {
        #[test]
        fn k_way_merge_matches_the_sort_oracle(
            servers in proptest::collection::vec(
                (proptest::collection::vec(0u64..12, 0..24), 0u8..4, 0u64..14),
                1..6,
            ),
        ) {
            let mut lists = Vec::new();
            let mut deaths = Vec::new();
            for (mut finish_ns, cut, at_ns) in servers {
                // Narrow finish range: many equal finishes across servers.
                finish_ns.sort_unstable();
                let list = completions(&finish_ns);
                deaths.push(match cut {
                    0 => None,
                    1 => list.first().map(|c| c.finish),
                    2 => list.last().map(|c| c.finish),
                    _ => Some(SimTime::from_ns(at_ns)),
                });
                lists.push(list);
            }
            prop_assert_eq!(merge_k_way(&lists, &deaths), merge_by_sort(&lists, &deaths));
        }
    }

    #[test]
    fn serialization_math() {
        let tor = TorConfig::paper(); // 100 Gbit/s
                                      // 300 B = 2400 bits at 100 Gbit/s = 24 ns.
        assert_eq!(tor.serialization(300), SimDuration::from_ns(24));
        assert_eq!(TorConfig::ideal().serialization(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn topology_string_is_stable_per_config() {
        let cfg = RackConfig::ac(4, 2, 8, SimDuration::from_ns(850));
        assert_eq!(cfg.topology(3), cfg.clone().topology(3));
        assert!(cfg.topology(0).starts_with("rack:4x16:AC/fp"));
        assert_ne!(cfg.topology(0), cfg.topology(1));
        let mut other = cfg.clone();
        other.seed = 99;
        assert_ne!(cfg.topology(0), other.topology(0));
    }

    #[test]
    fn fingerprints_match_earlier_recordings() {
        // Values recorded before `AcConfig` and `DFcfsConfig` lost a field
        // (see `config::fingerprint_of`): topology strings in recorded
        // artifacts must keep matching.
        let ac = RackConfig::ac(4, 4, 16, SimDuration::from_ns(850));
        assert_eq!(ac.fingerprint(), 0x2a23f173a801e4c6);
        let mut dfcfs = ac;
        dfcfs.template = ServerSpec::DFcfs(DFcfsConfig::rss(64));
        assert_eq!(dfcfs.fingerprint(), 0xdd27ef94af3a16d0);
    }

    #[test]
    #[should_panic(expected = "retry_timeout must cover detect_delay")]
    fn short_retry_timeout_is_rejected() {
        let mut cfg = RackConfig::ac(2, 2, 4, SimDuration::from_ns(850));
        cfg.deaths = vec![ServerDeath {
            server: 1,
            at: SimTime::from_us(10),
        }];
        cfg.tor.retry_timeout = SimDuration::from_ns(1);
        cfg.tor.detect_delay = SimDuration::from_us(50);
        RackWorld::new(cfg);
    }

    #[test]
    fn server_zero_reproduces_the_template_seed() {
        let cfg = RackConfig::ac(4, 2, 8, SimDuration::from_ns(850));
        let ServerSpec::Ac(s0) = cfg.server_spec(0) else {
            panic!("template is AC")
        };
        let ServerSpec::Ac(t) = cfg.template.clone() else {
            panic!()
        };
        assert_eq!(s0.seed, t.seed);
        let ServerSpec::Ac(s1) = cfg.server_spec(1) else {
            panic!()
        };
        assert_eq!(s1.seed, t.seed.wrapping_add(1));
    }
}
