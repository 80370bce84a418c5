//! Host-time spans recorded by the harness around each call into a layer.
//!
//! Spans live in memory until the run ends. A span's parent is the span
//! that was open when it started, so a layer's self time is its duration
//! minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, in microseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub cell: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log with one clock origin.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a closed span from two instants and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cell: u64,
    ) -> usize {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// One JSON object per line: `name`, `start_us`, `end_us`, `parent`
    /// (span index or null), `cell` and `self_us`.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_us();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:?},\"end_us\":{:?},\"parent\":{parent},\"cell\":{},\"self_us\":{:?}}}",
                s.name, s.start_us, s.end_us, s.cell, own[i]
            );
        }
        out
    }

    /// Chrome-trace JSON (loads in Perfetto). Each nesting depth is its own
    /// track (`tid`), so spans on one track never overlap.
    pub fn to_chrome_trace(&self) -> String {
        let mut depth = vec![0usize; self.spans.len()];
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                depth[i] = depth[p] + 1;
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.6},\"dur\":{:.6},\"pid\":1,\"tid\":{},\"args\":{{\"cell\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                depth[i],
                s.cell
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn chrome_trace_of_nested_spans_validates() {
        let mut spans = Spans::new();
        let t = Instant::now();
        let at = |us: u64| t + Duration::from_micros(us);
        for cell in 0..3u64 {
            let base = cell * 100;
            let c = spans.push("cell", at(base), at(base + 90), None, cell);
            spans.push("workload.gen", at(base + 1), at(base + 20), Some(c), cell);
            spans.push("system.run", at(base + 20), at(base + 80), Some(c), cell);
            spans.push("stats", at(base + 80), at(base + 85), Some(c), cell);
        }
        let d = spans.push("diag", at(300), at(400), None, 0);
        spans.push("diag.plain", at(300), at(350), Some(d), 0);
        let stats = simcore::telemetry::validate_chrome_trace(&spans.to_chrome_trace())
            .expect("host spans form a valid Chrome trace");
        assert_eq!(stats.events, 14);
        assert_eq!(stats.tracks, 2);
        let own = spans.self_us();
        assert!((own[0] - 6.0).abs() < 1e-6, "cell self time {}", own[0]);
        for line in spans.to_jsonl().lines() {
            simcore::telemetry::parse_json(line).expect("span line parses");
        }
    }
}
