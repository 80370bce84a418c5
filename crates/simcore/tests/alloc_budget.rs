//! Steady-state allocation budget for the event loop + streaming injector.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml): the
//! global counter is process-wide, and libtest's own main thread lazily
//! allocates its channel-receive context the first time it blocks waiting
//! for a result — a race that lands inside the measured window often enough
//! to make an exact zero-allocation assertion flaky. A plain `fn main`
//! keeps the process single-threaded for the whole measurement.

use simcore::alloc::CountingAlloc;
use simcore::event::{run_streamed, EventQueue, StreamInjector, World};
use simcore::time::{SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const CORES: usize = 8;
const SERVICE: SimDuration = SimDuration::from_ns(700);
const GAP_NS: u64 = 100; // inter-arrival gap: ~0.875 utilization across 8 cores

#[derive(Clone, Copy)]
enum Ev {
    Arrival(usize),
    Done,
}

/// An M/D/c-ish world built entirely from fixed-size state: arrivals are
/// round-robined to cores, each core serves FCFS by tracking only a
/// busy-until horizon. Handlers never allocate.
struct Fanout {
    busy_until: [SimTime; CORES],
    completed: usize,
    stop_after: usize,
}

impl World for Fanout {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::Arrival(i) => {
                let core = i % CORES;
                let start = self.busy_until[core].max(now);
                let end = start + SERVICE;
                self.busy_until[core] = end;
                q.push(end, Ev::Done);
            }
            Ev::Done => self.completed += 1,
        }
    }

    fn should_stop(&self, _now: SimTime) -> bool {
        self.completed >= self.stop_after
    }
}

fn arrival_time(i: usize) -> SimTime {
    SimTime::from_ns(GAP_NS * i as u64)
}

fn main() {
    const N: usize = 60_000;
    const WARMUP: usize = 15_000;
    const CHUNK: usize = 1024;

    let mut queue = EventQueue::new();
    let base = queue.reserve_seqs(N as u64);
    let mut source = StreamInjector::with_chunk(N, base, CHUNK, arrival_time, |i| {
        (arrival_time(i), Ev::Arrival(i))
    });
    let mut world = Fanout {
        busy_until: [SimTime::ZERO; CORES],
        completed: 0,
        stop_after: WARMUP,
    };

    // Warmup: lets calendar-queue buckets, the overflow heap and injection
    // chunks reach their steady capacities.
    let warm = run_streamed(&mut world, &mut queue, &mut source, SimTime::MAX);
    assert!(warm.stopped_early, "warmup must stop on completion count");

    // Steady state: zero allocations per event, exactly.
    let before = ALLOC.allocations();
    world.stop_after = N;
    let steady = run_streamed(&mut world, &mut queue, &mut source, SimTime::MAX);
    let delta = ALLOC.allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state loop allocated {delta} times over {} events",
        steady.events
    );
    assert_eq!(world.completed, N, "every arrival must complete");

    // The queue never holds more than the injection chunk plus in-flight
    // completions — O(in-flight), not O(trace).
    let peak = warm.peak_queue.max(steady.peak_queue);
    assert!(
        peak <= CHUNK + 2 * CORES + 64,
        "peak queue population {peak} is not O(in-flight) for chunk {CHUNK}"
    );
    assert!(source.next_time().is_none(), "stream must be drained");
    println!("alloc_budget(simcore): steady state allocation-free, peak queue {peak}");
}
