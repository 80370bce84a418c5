//! Trace generation, persistence and replay.
//!
//! A [`Trace`] is the fully materialized request stream one experiment run
//! consumes. Pre-materializing (rather than sampling inside each scheduler)
//! guarantees that competing schedulers are compared on *identical* arrivals
//! and service times.

use crate::arrival::{ArrivalProcess, PoissonProcess};
use crate::dist::ServiceDistribution;
use crate::request::{ConnectionId, Request, RequestId, RequestKind};
use rand::Rng;
use simcore::rng::{stream_rng, streams};
use simcore::time::{SimDuration, SimTime};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// A materialized, time-ordered stream of requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Wraps a request vector.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing in time.
    pub fn new(requests: Vec<Request>) -> Self {
        for pair in requests.windows(2) {
            assert!(
                pair[0].arrival <= pair[1].arrival,
                "trace arrivals must be sorted"
            );
        }
        Trace { requests }
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True iff the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over requests.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Time of the last arrival (zero for an empty trace).
    pub fn span(&self) -> SimTime {
        self.requests.last().map_or(SimTime::ZERO, |r| r.arrival)
    }

    /// Measured arrival rate over the trace span, requests/second.
    pub fn measured_rate(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / span
    }

    /// Mean of the pre-drawn service times.
    pub fn mean_service(&self) -> SimDuration {
        if self.requests.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self
            .requests
            .iter()
            .map(|r| r.service.as_ps() as u128)
            .sum();
        SimDuration::from_ps((total / self.requests.len() as u128) as u64)
    }

    /// Offered load on a `servers`-core system: λ·E\[S\]/k.
    pub fn offered_load(&self, servers: usize) -> f64 {
        assert!(servers > 0);
        self.measured_rate() * self.mean_service().as_secs_f64() / servers as f64
    }

    /// Serializes to a simple line-oriented text format
    /// (`id arrival_ps service_ps kind conn size`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "# altocumulus-trace v1")?;
        for r in &self.requests {
            writeln!(
                w,
                "{} {} {} {} {} {}",
                r.id.0,
                r.arrival.as_ps(),
                r.service.as_ps(),
                r.kind.label(),
                r.conn.0,
                r.size_bytes
            )?;
        }
        w.flush()
    }

    /// Parses the format written by [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed lines and propagates I/O errors.
    pub fn load<R: Read>(r: R) -> io::Result<Trace> {
        let reader = BufReader::new(r);
        let mut requests = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = |msg: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace line {}: {msg}", lineno + 1),
                )
            };
            let mut parts = line.split_ascii_whitespace();
            let mut next = |name: &str| parts.next().ok_or_else(|| bad(name));
            let id: u64 = next("missing id")?.parse().map_err(|_| bad("bad id"))?;
            let arrival: u64 = next("missing arrival")?
                .parse()
                .map_err(|_| bad("bad arrival"))?;
            let service: u64 = next("missing service")?
                .parse()
                .map_err(|_| bad("bad service"))?;
            let kind = match next("missing kind")? {
                "generic" => RequestKind::Generic,
                "get" => RequestKind::Get,
                "set" => RequestKind::Set,
                "scan" => RequestKind::Scan,
                other => return Err(bad(&format!("unknown kind {other:?}"))),
            };
            let conn: u32 = next("missing conn")?.parse().map_err(|_| bad("bad conn"))?;
            let size: u32 = next("missing size")?.parse().map_err(|_| bad("bad size"))?;
            requests.push(Request {
                id: RequestId(id),
                arrival: SimTime::from_ps(arrival),
                service: SimDuration::from_ps(service),
                kind,
                conn: ConnectionId(conn),
                size_bytes: size,
            });
        }
        requests.sort_by_key(|r| (r.arrival, r.id));
        Ok(Trace::new(requests))
    }
}

impl Trace {
    /// Merges several traces into one, interleaving by arrival time and
    /// re-assigning request ids in arrival order. Used to compose
    /// independently-bursty per-connection-cluster streams into one
    /// "real-world" trace whose bursts hit different receive queues at
    /// different times (cf. the temporal imbalance of Fig. 9).
    pub fn merge(traces: Vec<Trace>) -> Trace {
        let mut all: Vec<Request> = traces.into_iter().flat_map(|t| t.requests).collect();
        all.sort_by_key(|r| (r.arrival, r.conn));
        for (i, r) in all.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        Trace::new(all)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

/// Builder that materializes a [`Trace`] from an arrival process and a
/// service distribution.
///
/// # Examples
///
/// ```
/// use workload::arrival::PoissonProcess;
/// use workload::dist::ServiceDistribution;
/// use workload::trace::TraceBuilder;
/// use simcore::time::SimDuration;
///
/// let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
/// let rate = PoissonProcess::rate_for_load(0.8, 16, dist.mean());
/// let trace = TraceBuilder::new(PoissonProcess::new(rate), dist)
///     .requests(10_000)
///     .seed(42)
///     .build();
/// assert_eq!(trace.len(), 10_000);
/// let load = trace.offered_load(16);
/// assert!((load - 0.8).abs() < 0.05, "load={load}");
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder<A> {
    arrivals: A,
    service: ServiceDistribution,
    n_requests: usize,
    n_connections: u32,
    connection_offset: u32,
    seed: u64,
    kind_for_service: bool,
    scan_threshold: SimDuration,
}

impl<A: ArrivalProcess> TraceBuilder<A> {
    /// Starts a builder with 10 000 requests, 64 connections and seed 0.
    pub fn new(arrivals: A, service: ServiceDistribution) -> Self {
        TraceBuilder {
            arrivals,
            service,
            n_requests: 10_000,
            n_connections: 64,
            connection_offset: 0,
            seed: 0,
            kind_for_service: false,
            scan_threshold: SimDuration::from_us(10),
        }
    }

    /// Sets the number of requests to generate.
    pub fn requests(mut self, n: usize) -> Self {
        self.n_requests = n;
        self
    }

    /// Sets the number of client connections requests are spread across.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn connections(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one connection");
        self.n_connections = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Offsets the connection-id range to `[offset, offset + connections)`,
    /// so merged per-cluster traces land on disjoint connections (and thus
    /// distinct RSS queues).
    pub fn connection_offset(mut self, offset: u32) -> Self {
        self.connection_offset = offset;
        self
    }

    /// Classifies requests whose service time is ≥ the threshold as `Scan`
    /// and the rest as `Get`/`Set` (50/50), mimicking the MICA mix.
    pub fn classify_kvs(mut self, scan_threshold: SimDuration) -> Self {
        self.kind_for_service = true;
        self.scan_threshold = scan_threshold;
        self
    }

    /// Materializes the trace.
    pub fn build(mut self) -> Trace {
        let mut arr_rng = stream_rng(self.seed, streams::ARRIVALS);
        let mut svc_rng = stream_rng(self.seed, streams::SERVICE);
        let mut key_rng = stream_rng(self.seed, streams::KEYS);
        let mut now = SimTime::ZERO;
        let mut requests = Vec::with_capacity(self.n_requests);
        for i in 0..self.n_requests {
            now += self.arrivals.next_gap(&mut arr_rng);
            let service = self.service.sample(&mut svc_rng);
            let conn =
                ConnectionId(self.connection_offset + key_rng.random_range(0..self.n_connections));
            let kind = if self.kind_for_service {
                if service >= self.scan_threshold {
                    RequestKind::Scan
                } else if key_rng.random::<bool>() {
                    RequestKind::Get
                } else {
                    RequestKind::Set
                }
            } else {
                RequestKind::Generic
            };
            requests.push(Request {
                id: RequestId(i as u64),
                arrival: now,
                service,
                kind,
                conn,
                size_bytes: 300,
            });
        }
        Trace::new(requests)
    }
}

/// Builds a trace of `requests` Poisson arrivals offering `load` to `cores`
/// cores of `dist` service, over `connections` connections from `seed`.
///
/// `#[inline]` so that the trace loop is compiled in the calling crate (see
/// `bench::poisson_trace`).
#[inline]
pub fn poisson_trace(
    dist: ServiceDistribution,
    load: f64,
    cores: usize,
    requests: usize,
    connections: u32,
    seed: u64,
) -> Trace {
    let rate = PoissonProcess::rate_for_load(load, cores, dist.mean());
    TraceBuilder::new(PoissonProcess::new(rate), dist)
        .requests(requests)
        .connections(connections)
        .seed(seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonProcess;

    fn small_trace() -> Trace {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(1000)
            .seed(9)
            .build()
    }

    #[test]
    fn builder_generates_sorted_arrivals() {
        let t = small_trace();
        assert_eq!(t.len(), 1000);
        for pair in t.requests().windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }

    #[test]
    fn builder_is_deterministic() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let a = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(100)
            .seed(1)
            .build();
        let b = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(100)
            .seed(2)
            .build();
        assert_ne!(a, b);
    }

    #[test]
    fn offered_load_close_to_target() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_ns(850));
        let rate = PoissonProcess::rate_for_load(0.9, 64, dist.mean());
        let t = TraceBuilder::new(PoissonProcess::new(rate), dist)
            .requests(100_000)
            .seed(3)
            .build();
        let load = t.offered_load(64);
        assert!((load - 0.9).abs() < 0.02, "load={load}");
    }

    #[test]
    fn kvs_classification() {
        let dist = ServiceDistribution::mica_mix_paper();
        let t = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(50_000)
            .seed(4)
            .classify_kvs(SimDuration::from_us(10))
            .build();
        let scans = t.iter().filter(|r| r.kind == RequestKind::Scan).count();
        let gets = t.iter().filter(|r| r.kind == RequestKind::Get).count();
        let sets = t.iter().filter(|r| r.kind == RequestKind::Set).count();
        assert_eq!(scans + gets + sets, t.len());
        let p_scan = scans as f64 / t.len() as f64;
        assert!((p_scan - 0.005).abs() < 0.002, "p_scan={p_scan}");
        // GET/SET roughly balanced.
        let ratio = gets as f64 / sets as f64;
        assert!((0.9..1.1).contains(&ratio), "get/set ratio={ratio}");
    }

    #[test]
    fn connections_bounded() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(5000)
            .connections(4)
            .seed(5)
            .build();
        assert!(t.iter().all(|r| r.conn.0 < 4));
        let distinct: std::collections::HashSet<u32> = t.iter().map(|r| r.conn.0).collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn save_load_round_trip() {
        let t = small_trace();
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let loaded = Trace::load(&buf[..]).unwrap();
        assert_eq!(t, loaded);
    }

    #[test]
    fn load_rejects_garbage() {
        let err = Trace::load(&b"1 2 three generic 0 300"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = Trace::load(&b"1 2 3 frobnicate 0 300"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_skips_comments_and_blanks() {
        let text = "# header\n\n0 100 200 get 1 64\n";
        let t = Trace::load(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.requests()[0].kind, RequestKind::Get);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn new_rejects_unsorted() {
        let r1 = Request::synthetic(0, SimTime::from_ns(10), SimDuration::from_ns(1), 0);
        let r2 = Request::synthetic(1, SimTime::from_ns(5), SimDuration::from_ns(1), 0);
        Trace::new(vec![r1, r2]);
    }

    #[test]
    fn merge_interleaves_and_reids() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let a = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(100)
            .connections(2)
            .seed(1)
            .build();
        let b = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(100)
            .connections(2)
            .connection_offset(10)
            .seed(2)
            .build();
        let merged = Trace::merge(vec![a.clone(), b.clone()]);
        assert_eq!(merged.len(), 200);
        for (i, r) in merged.iter().enumerate() {
            assert_eq!(r.id.0, i as u64, "ids re-assigned in arrival order");
        }
        for w in merged.requests().windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Both connection ranges present.
        assert!(merged.iter().any(|r| r.conn.0 < 2));
        assert!(merged.iter().any(|r| r.conn.0 >= 10));
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let merged = Trace::merge(vec![Trace::default(), Trace::default()]);
        assert!(merged.is_empty());
    }

    #[test]
    fn connection_offset_applies() {
        let dist = ServiceDistribution::Fixed(SimDuration::from_us(1));
        let t = TraceBuilder::new(PoissonProcess::new(1e6), dist)
            .requests(50)
            .connections(4)
            .connection_offset(100)
            .seed(3)
            .build();
        assert!(t.iter().all(|r| (100..104).contains(&r.conn.0)));
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.measured_rate(), 0.0);
        assert_eq!(t.mean_service(), SimDuration::ZERO);
        assert_eq!(t.span(), SimTime::ZERO);
    }
}
