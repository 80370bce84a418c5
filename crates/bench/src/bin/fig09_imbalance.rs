//! Fig. 9 — temporal load imbalance across 4 network receive queues at the
//! moment the first 10 SLO violations occur, for connection / random /
//! round-robin steering (256 cores: 4 NetRX queues, each a 64-core c-FCFS).
//!
//! Paper shape: in every policy the queue lengths differ noticeably at
//! violation time — the imbalance patterns Altocumulus classifies as Hill /
//! Pairing / Valley.
//!
//! ```sh
//! cargo run -p bench --release --bin fig09_imbalance
//! ```

use bench::poisson_trace;
use rpcstack::nic::Steering;
use simcore::event::{run, EventQueue, World};
use simcore::report::Table;
use simcore::rng::{stream_rng, streams};
use simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use workload::trace::Trace;
use workload::ServiceDistribution;

const GROUPS: usize = 4;
const WORKERS: usize = 64;

enum Ev {
    Arrive(usize, usize), // (group, trace idx)
    Done(usize, usize),   // (group, worker)
}

struct GroupedWorld<'t> {
    trace: &'t Trace,
    queues: Vec<VecDeque<(usize, SimTime)>>,
    busy: Vec<Vec<Option<usize>>>,
    slo: SimDuration,
    violations_seen: usize,
    snapshots: Vec<[u32; GROUPS]>,
}

impl GroupedWorld<'_> {
    fn start(&mut self, g: usize, w: usize, idx: usize, now: SimTime, q: &mut EventQueue<Ev>) {
        self.busy[g][w] = Some(idx);
        q.push(now + self.trace.requests()[idx].service, Ev::Done(g, w));
    }
}

impl World for GroupedWorld<'_> {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Arrive(g, idx) => {
                if let Some(w) = (0..WORKERS).find(|&w| self.busy[g][w].is_none()) {
                    self.start(g, w, idx, now, q);
                } else {
                    self.queues[g].push_back((idx, now));
                }
            }
            Ev::Done(g, w) => {
                let idx = self.busy[g][w].take().expect("done on idle");
                let req = &self.trace.requests()[idx];
                let latency = now.saturating_since(req.arrival);
                if latency > self.slo && self.snapshots.len() < 10 {
                    self.violations_seen += 1;
                    let mut snap = [0u32; GROUPS];
                    for (i, queue) in self.queues.iter().enumerate() {
                        snap[i] = queue.len() as u32;
                    }
                    self.snapshots.push(snap);
                }
                if let Some((next, _)) = self.queues[g].pop_front() {
                    self.start(g, w, next, now, q);
                }
            }
        }
    }
    fn should_stop(&self, _now: SimTime) -> bool {
        self.snapshots.len() >= 10
    }
}

fn run_policy(trace: &Trace, mut steering: Steering, slo: SimDuration) -> Vec<[u32; GROUPS]> {
    let mut rng = stream_rng(0, streams::NIC);
    let mut q = EventQueue::new();
    for (idx, req) in trace.iter().enumerate() {
        let g = steering.steer(req.conn, GROUPS, &mut rng);
        q.push(req.arrival, Ev::Arrive(g, idx));
    }
    let mut world = GroupedWorld {
        trace,
        queues: vec![VecDeque::new(); GROUPS],
        busy: vec![vec![None; WORKERS]; GROUPS],
        slo,
        violations_seen: 0,
        snapshots: Vec::new(),
    };
    run(&mut world, &mut q, SimTime::MAX);
    world.snapshots
}

fn main() {
    let dist = ServiceDistribution::Exponential {
        mean: SimDuration::from_us(1),
    };
    let slo = SimDuration::from_us(10);
    let trace = poisson_trace(dist, 0.99, GROUPS * WORKERS, 1_500_000, 64, 17);
    println!(
        "Fig. 9: queue lengths of 4 NetRX queues when the first 10 SLO \
         violations occur\n(256 cores = 4 x 64-core c-FCFS, load {:.2})\n",
        trace.offered_load(GROUPS * WORKERS)
    );

    let mut t = Table::new(&[
        "policy",
        "RX Q0",
        "RX Q1",
        "RX Q2",
        "RX Q3",
        "spread(max-min)",
    ]);
    for steering in [Steering::rss(), Steering::random(), Steering::round_robin()] {
        let label = steering.label();
        let snaps = run_policy(&trace, steering, slo);
        if snaps.is_empty() {
            t.row(&[label, "-", "-", "-", "-", "no violations"]);
            continue;
        }
        // Average the snapshot over the first 10 violations, as in the
        // paper's bar groups.
        let mut avg = [0f64; GROUPS];
        for s in &snaps {
            for i in 0..GROUPS {
                avg[i] += s[i] as f64;
            }
        }
        for a in &mut avg {
            *a /= snaps.len() as f64;
        }
        let max = avg.iter().cloned().fold(f64::MIN, f64::max);
        let min = avg.iter().cloned().fold(f64::MAX, f64::min);
        t.row(&[
            label,
            &format!("{:.0}", avg[0]),
            &format!("{:.0}", avg[1]),
            &format!("{:.0}", avg[2]),
            &format!("{:.0}", avg[3]),
            &format!("{:.0}", max - min),
        ]);
    }
    t.print();
    println!(
        "\nEvery policy shows a noticeable queue-length spread at violation time —\n\
         the imbalance signatures (Hill / Pairing / Valley) that trigger migration."
    );
}
