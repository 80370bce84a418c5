//! Versioned record/replay run artifacts — the `TRACE/1.0` contract.
//!
//! Every determinism guarantee in this workspace (the elided/event-driven
//! control-plane oracle, the fault layer's empty-plan byte identity) used
//! to be enforced by sha256 digests of figure stdout,
//! which can only say *something* changed *somewhere*. This module turns a
//! run into a first-class, versioned artifact that a replay can diff
//! against event by event, so a regression reports the exact first
//! divergent `(time, seq)` event instead of a digest mismatch.
//!
//! # Artifact format
//!
//! An artifact is JSON Lines: one meta line, then one *run section* per
//! recorded run. A run section is a header line, body lines, and a footer
//! line:
//!
//! ```text
//! {"artifact":"TRACE/1.0","bin":"fig10_comparison","scenario":"fig10_quick","quick":true,"runs":4}
//! {"run":"AC_rss@0.05","version":"TRACE/1.0","engine":"serial_event_driven","seed":10,
//!  "config_fp":"0x1234","trace_fp":"0x5678","granularity":"summary","checkpoint_every":512,
//!  "params":{"load":"0.05"}}
//! {"e":[t_ps,seq,kind,group,"0xpayload"]}      # full granularity only
//! {"s":[track,kind,loc,t_ps]}                  # full and spans granularity
//! {"c":[index,"0xdigest",t_ps,seq]}            # every granularity
//! {"end":{"events":N,"spans":M,"digest":"0x…","rng":{"nic":A,"faults":B},
//!  "end_ps":T,"completed":C}}
//! ```
//!
//! The header pins the run's full identity: seed, config fingerprint,
//! workload-trace fingerprint, the engine label, and the recording
//! granularity. The body is ordered by the executed
//! `(time, seq)` rank — the event queue's total order — and the rolling
//! FNV-1a digest (checkpointed every `checkpoint_every` events) is
//! computed at *every* granularity, so even a compact summary artifact can
//! localize a divergence to one checkpoint block.
//!
//! The engine field is provenance, not part of the comparison: a replay
//! compares the executed `(time, seq, event)` sequence itself.
//!
//! # Granularities
//!
//! - [`Granularity::Full`]: every event record, every span point, all
//!   checkpoints. Largest, pinpoints divergence to a single event.
//! - [`Granularity::Spans`]: span points and checkpoints, no per-event
//!   records. The PR-4 span log plus block-level divergence.
//! - [`Granularity::Summary`]: header, checkpoints and footer only. The
//!   golden-trace format: a few hundred bytes per thousand events, still
//!   localizes a divergence to a `checkpoint_every`-event block (the
//!   replayer then re-runs at full granularity and prints the block).

use crate::telemetry::{parse_json, Json, SpanLog, SpanPoint, TelemetrySink};
use crate::time::SimTime;

/// Schema version stamped into (and required of) every artifact.
pub const TRACE_VERSION: &str = "TRACE/1.0";

/// Default rolling-digest checkpoint interval, in events.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one little-endian `u64` word into a running FNV-1a state.
pub fn fnv1a64_fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// How much of a run a [`Recorder`] captures (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Per-event records, span points and checkpoints.
    Full,
    /// Span points and checkpoints only.
    Spans,
    /// Checkpoints only (the golden-trace format).
    Summary,
}

impl Granularity {
    /// The schema label (`"full"`, `"spans"`, `"summary"`).
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Full => "full",
            Granularity::Spans => "spans",
            Granularity::Summary => "summary",
        }
    }

    /// Parses a schema label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(Granularity::Full),
            "spans" => Some(Granularity::Spans),
            "summary" => Some(Granularity::Summary),
            _ => None,
        }
    }
}

/// One executed event, as recorded: its `(time, seq)` rank plus a compact
/// world-defined descriptor (kind tag, home group, payload digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRec {
    /// Virtual time of the event, in picoseconds.
    pub t_ps: u64,
    /// The event queue sequence number (the tie-break rank).
    pub seq: u64,
    /// World-defined kind tag (e.g. Enqueue/Deliver/WorkerDone/…).
    pub kind: u8,
    /// Home group / location of the event.
    pub group: u32,
    /// World-defined payload digest (discriminates same-kind events).
    pub payload: u64,
}

impl EventRec {
    /// Folds this record into a running FNV-1a digest state.
    pub fn fold_into(&self, h: u64) -> u64 {
        let h = fnv1a64_fold(h, self.t_ps);
        let h = fnv1a64_fold(h, self.seq);
        let h = fnv1a64_fold(h, ((self.kind as u64) << 32) | self.group as u64);
        fnv1a64_fold(h, self.payload)
    }
}

/// A rolling-digest checkpoint: the digest after the first `index` events,
/// stamped with the rank of the last event it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of events covered (a multiple of `checkpoint_every`).
    pub index: u64,
    /// FNV-1a digest over events `[0, index)`.
    pub digest: u64,
    /// Time of event `index - 1`, in picoseconds.
    pub t_ps: u64,
    /// Seq of event `index - 1`.
    pub seq: u64,
}

/// The recording [`TelemetrySink`]: captures a run's event stream, span
/// log and rolling digest without perturbing the simulation (hooks only
/// read state the simulation already computed; the sink never pushes
/// events, consumes RNG draws, or alters control flow).
///
/// Buffers can be pre-sized with [`Recorder::with_capacity`] so recording
/// stays within an amortized allocation budget; with recording off
/// ([`crate::telemetry::NullSink`]) the hooks compile away entirely and
/// the budget is zero.
#[derive(Debug)]
pub struct Recorder {
    granularity: Granularity,
    checkpoint_every: u64,
    events: Vec<EventRec>,
    spans: SpanLog,
    count: u64,
    digest: u64,
    checkpoints: Vec<Checkpoint>,
    perturb: Option<u64>,
}

impl Recorder {
    /// A recorder at `granularity` with the default checkpoint interval.
    pub fn new(granularity: Granularity) -> Self {
        Self::with_checkpoint_every(granularity, DEFAULT_CHECKPOINT_EVERY)
    }

    /// A recorder with an explicit checkpoint interval (events per block).
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero.
    pub fn with_checkpoint_every(granularity: Granularity, checkpoint_every: u64) -> Self {
        assert!(checkpoint_every > 0, "checkpoint interval must be positive");
        Recorder {
            granularity,
            checkpoint_every,
            events: Vec::new(),
            spans: SpanLog::new(),
            count: 0,
            digest: FNV_OFFSET,
            checkpoints: Vec::new(),
            perturb: None,
        }
    }

    /// Sets the divergence-injection hook: event `idx`'s recorded time is
    /// bumped by +1 ps, simulating a buggy engine so tests can assert that
    /// replay catches the mutation at the exact `(time, seq)`. Off (`None`)
    /// by default.
    pub fn with_perturb(mut self, idx: Option<u64>) -> Self {
        self.perturb = idx;
        self
    }

    /// Pre-sizes the event and span buffers so recording a run of known
    /// size performs a bounded number of (amortized) allocations.
    pub fn with_capacity(granularity: Granularity, events: usize, spans: usize) -> Self {
        let mut r = Self::new(granularity);
        if granularity == Granularity::Full {
            r.events = Vec::with_capacity(events);
            r.checkpoints = Vec::with_capacity(events / DEFAULT_CHECKPOINT_EVERY as usize + 1);
        }
        if granularity != Granularity::Summary {
            r.spans = SpanLog::with_capacity(spans);
        }
        r
    }

    /// The recording granularity.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// The checkpoint interval, in events.
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Recorded event records (empty below [`Granularity::Full`]).
    pub fn events(&self) -> &[EventRec] {
        &self.events
    }

    /// The recorded span log (empty at [`Granularity::Summary`]).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Digest checkpoints so far.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Number of events observed (counted at every granularity).
    pub fn event_count(&self) -> u64 {
        self.count
    }

    /// The rolling FNV-1a digest over all observed events.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl TelemetrySink for Recorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn records_events(&self) -> bool {
        true
    }

    #[inline]
    fn span_point(&mut self, track: u32, kind: u16, loc: u32, at: SimTime) {
        if self.granularity != Granularity::Summary {
            self.spans.record(track, kind, loc, at);
        }
    }

    fn event_record(&mut self, at: SimTime, seq: u64, kind: u8, group: u32, payload: u64) {
        let mut t_ps = at.as_ps();
        if self.perturb == Some(self.count) {
            t_ps += 1;
        }
        let rec = EventRec {
            t_ps,
            seq,
            kind,
            group,
            payload,
        };
        self.digest = rec.fold_into(self.digest);
        self.count += 1;
        if self.count.is_multiple_of(self.checkpoint_every) {
            self.checkpoints.push(Checkpoint {
                index: self.count,
                digest: self.digest,
                t_ps,
                seq,
            });
        }
        if self.granularity == Granularity::Full {
            self.events.push(rec);
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Identity of one recorded run, written into its header line.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Human-readable run label (unique within the artifact; the replayer
    /// keys scenario reconstruction on it).
    pub label: String,
    /// The engine that drove the run (provenance, not compared).
    pub engine: &'static str,
    /// The run's master seed.
    pub seed: u64,
    /// Fingerprint of the full configuration (see the recording system).
    pub config_fp: u64,
    /// Fingerprint of the workload trace.
    pub trace_fp: u64,
    /// Topology of the recorded run within a larger composed system, or
    /// `None` for a standalone single-server run. Rack-tier recordings set
    /// this to a canonical `rack:<servers>x<groups>x<group_size>/...` string
    /// naming the rack shape, ToR model and which server the section
    /// belongs to; the replayer compares it as provenance, so an artifact
    /// replayed against a drifted rack layout fails before any event diff.
    pub topology: Option<String>,
    /// Scenario parameters, as ordered string pairs (e.g. `load = "0.05"`).
    pub params: Vec<(String, String)>,
}

/// Per-run closing totals, written into the footer line.
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Per-stream RNG draw counts (logical `u64` draws, prefetch-adjusted).
    pub rng: Vec<(String, u64)>,
    /// Virtual end time of the run, in picoseconds.
    pub end_ps: u64,
    /// Completed requests.
    pub completed: u64,
}

fn hex(v: u64) -> String {
    format!("\"0x{v:x}\"")
}

/// Appends the artifact meta line.
pub fn write_artifact_meta(out: &mut String, bin: &str, scenario: &str, quick: bool, runs: usize) {
    out.push_str(&format!(
        "{{\"artifact\":{},\"bin\":{},\"scenario\":{},\"quick\":{quick},\"runs\":{runs}}}\n",
        crate::telemetry::json_string(TRACE_VERSION),
        crate::telemetry::json_string(bin),
        crate::telemetry::json_string(scenario),
    ));
}

/// Appends one full run section (header, body, footer) for a finished
/// recording.
pub fn write_run_section(out: &mut String, meta: &RunMeta, rec: &Recorder, totals: &RunTotals) {
    use crate::telemetry::json_string as js;
    out.push_str(&format!(
        "{{\"run\":{},\"version\":{},\"engine\":{},\"seed\":{},\"config_fp\":{},\
         \"trace_fp\":{},\"granularity\":{},\"checkpoint_every\":{}",
        js(&meta.label),
        js(TRACE_VERSION),
        js(meta.engine),
        meta.seed,
        hex(meta.config_fp),
        hex(meta.trace_fp),
        js(rec.granularity().label()),
        rec.checkpoint_every(),
    ));
    // The topology key is written only for composed (rack-tier) runs, so
    // standalone artifacts stay byte-identical to the pre-rack format.
    if let Some(topo) = &meta.topology {
        out.push_str(&format!(",\"topo\":{}", js(topo)));
    }
    out.push_str(",\"params\":{");
    for (i, (k, v)) in meta.params.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", js(k), js(v)));
    }
    out.push_str("}}\n");
    for e in rec.events() {
        out.push_str(&format!(
            "{{\"e\":[{},{},{},{},{}]}}\n",
            e.t_ps,
            e.seq,
            e.kind,
            e.group,
            hex(e.payload)
        ));
    }
    for s in rec.spans().points() {
        out.push_str(&format!(
            "{{\"s\":[{},{},{},{}]}}\n",
            s.track,
            s.kind,
            s.loc,
            s.at.as_ps()
        ));
    }
    for c in rec.checkpoints() {
        out.push_str(&format!(
            "{{\"c\":[{},{},{},{}]}}\n",
            c.index,
            hex(c.digest),
            c.t_ps,
            c.seq
        ));
    }
    out.push_str(&format!(
        "{{\"end\":{{\"events\":{},\"spans\":{},\"digest\":{},\"rng\":{{",
        rec.event_count(),
        rec.spans().len(),
        hex(rec.digest()),
    ));
    for (i, (k, v)) in totals.rng.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", js(k), v));
    }
    out.push_str(&format!(
        "}},\"end_ps\":{},\"completed\":{}}}}}\n",
        totals.end_ps, totals.completed
    ));
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The artifact meta line, parsed.
#[derive(Debug, Clone)]
pub struct ArtifactMeta {
    /// The figure binary that recorded the artifact.
    pub bin: String,
    /// Scenario key (e.g. `fig10_quick`) the replayer reconstructs from.
    pub scenario: String,
    /// Whether the `--quick` sweep shape was recorded.
    pub quick: bool,
    /// Declared run-section count (validated against the body).
    pub runs: u64,
}

/// One parsed run section.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    /// Run label from the header.
    pub label: String,
    /// Recording engine (provenance only).
    pub engine: String,
    /// Master seed.
    pub seed: u64,
    /// Configuration fingerprint.
    pub config_fp: u64,
    /// Workload-trace fingerprint.
    pub trace_fp: u64,
    /// Composed-system topology (rack shape + server slot), if recorded.
    pub topology: Option<String>,
    /// Recording granularity.
    pub granularity: Granularity,
    /// Checkpoint interval.
    pub checkpoint_every: u64,
    /// Scenario parameters.
    pub params: Vec<(String, String)>,
    /// Event records (full granularity only).
    pub events: Vec<EventRec>,
    /// Span points (full and spans granularity).
    pub spans: Vec<SpanPoint>,
    /// Digest checkpoints.
    pub checkpoints: Vec<Checkpoint>,
    /// Footer totals.
    pub footer: Footer,
}

/// A parsed run footer.
#[derive(Debug, Clone, Default)]
pub struct Footer {
    /// Events the recorder observed.
    pub events: u64,
    /// Span points the recorder stored.
    pub spans: u64,
    /// Final rolling digest.
    pub digest: u64,
    /// Per-stream RNG draw counts.
    pub rng: Vec<(String, u64)>,
    /// Virtual end time (ps).
    pub end_ps: u64,
    /// Completed requests.
    pub completed: u64,
}

/// A fully parsed artifact.
#[derive(Debug, Clone)]
pub struct ParsedArtifact {
    /// The meta line.
    pub meta: ArtifactMeta,
    /// All run sections, in artifact order.
    pub runs: Vec<ParsedRun>,
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    let v = j.get(key).ok_or_else(|| format!("missing key '{key}'"))?;
    json_u64(v).ok_or_else(|| format!("key '{key}' is not a u64"))
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string key '{key}'"))
}

/// A `u64` from either a JSON number (exact below 2^53) or a `"0x…"` hex
/// string (used for digests and payloads, which need all 64 bits).
fn json_u64(j: &Json) -> Option<u64> {
    match j {
        Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 9.007_199_254_740_992e15 => {
            Some(*v as u64)
        }
        Json::Str(s) => s
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok()),
        _ => None,
    }
}

fn arr_u64(j: &Json, idx: usize) -> Result<u64, String> {
    j.as_arr()
        .and_then(|a| a.get(idx))
        .and_then(json_u64)
        .ok_or_else(|| format!("array element {idx} is not a u64"))
}

/// Parses a complete artifact.
///
/// # Errors
///
/// Returns a description naming the offending line on malformed JSON, a
/// missing required header key, an unknown schema version, or a truncated
/// run section.
pub fn parse_artifact(text: &str) -> Result<ParsedArtifact, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, meta_line) = lines.next().ok_or("empty artifact")?;
    let meta_json = parse_json(meta_line).map_err(|e| format!("meta line: {e}"))?;
    let version = get_str(&meta_json, "artifact").map_err(|e| format!("meta line: {e}"))?;
    if version != TRACE_VERSION {
        return Err(format!(
            "unsupported artifact version '{version}' (expected '{TRACE_VERSION}')"
        ));
    }
    let meta = ArtifactMeta {
        bin: get_str(&meta_json, "bin")
            .map_err(|e| format!("meta line: {e}"))?
            .to_string(),
        scenario: get_str(&meta_json, "scenario")
            .map_err(|e| format!("meta line: {e}"))?
            .to_string(),
        quick: matches!(meta_json.get("quick"), Some(Json::Bool(true))),
        runs: get_u64(&meta_json, "runs").map_err(|e| format!("meta line: {e}"))?,
    };

    let mut runs: Vec<ParsedRun> = Vec::new();
    let mut cur: Option<ParsedRun> = None;
    for (lineno, line) in lines {
        let ctx = |e: String| format!("line {}: {e}", lineno + 1);
        let j = parse_json(line).map_err(ctx)?;
        if j.get("run").is_some() {
            if let Some(run) = cur.take() {
                return Err(ctx(format!(
                    "run '{}' has no footer before the next header",
                    run.label
                )));
            }
            let version = get_str(&j, "version").map_err(&ctx)?;
            if version != TRACE_VERSION {
                return Err(ctx(format!("unsupported run version '{version}'")));
            }
            let gran_label = get_str(&j, "granularity").map_err(&ctx)?;
            let granularity = Granularity::parse(gran_label)
                .ok_or_else(|| ctx(format!("unknown granularity '{gran_label}'")))?;
            let params = match j.get("params") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or_else(|| ctx(format!("param '{k}' is not a string")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err(ctx("'params' is not an object".into())),
                None => Vec::new(),
            };
            cur = Some(ParsedRun {
                label: get_str(&j, "run").map_err(&ctx)?.to_string(),
                engine: get_str(&j, "engine").map_err(&ctx)?.to_string(),
                seed: get_u64(&j, "seed").map_err(&ctx)?,
                config_fp: get_u64(&j, "config_fp").map_err(&ctx)?,
                trace_fp: get_u64(&j, "trace_fp").map_err(&ctx)?,
                topology: j.get("topo").and_then(Json::as_str).map(String::from),
                granularity,
                checkpoint_every: get_u64(&j, "checkpoint_every").map_err(&ctx)?,
                params,
                events: Vec::new(),
                spans: Vec::new(),
                checkpoints: Vec::new(),
                footer: Footer::default(),
            });
        } else if let Some(e) = j.get("e") {
            let run = cur
                .as_mut()
                .ok_or_else(|| ctx("event outside a run".into()))?;
            run.events.push(EventRec {
                t_ps: arr_u64(e, 0).map_err(&ctx)?,
                seq: arr_u64(e, 1).map_err(&ctx)?,
                kind: arr_u64(e, 2).map_err(&ctx)? as u8,
                group: arr_u64(e, 3).map_err(&ctx)? as u32,
                payload: arr_u64(e, 4).map_err(&ctx)?,
            });
        } else if let Some(s) = j.get("s") {
            let run = cur
                .as_mut()
                .ok_or_else(|| ctx("span outside a run".into()))?;
            run.spans.push(SpanPoint {
                track: arr_u64(s, 0).map_err(&ctx)? as u32,
                kind: arr_u64(s, 1).map_err(&ctx)? as u16,
                loc: arr_u64(s, 2).map_err(&ctx)? as u32,
                at: SimTime::from_ps(arr_u64(s, 3).map_err(&ctx)?),
            });
        } else if let Some(c) = j.get("c") {
            let run = cur
                .as_mut()
                .ok_or_else(|| ctx("checkpoint outside a run".into()))?;
            run.checkpoints.push(Checkpoint {
                index: arr_u64(c, 0).map_err(&ctx)?,
                digest: arr_u64(c, 1).map_err(&ctx)?,
                t_ps: arr_u64(c, 2).map_err(&ctx)?,
                seq: arr_u64(c, 3).map_err(&ctx)?,
            });
        } else if let Some(end) = j.get("end") {
            let mut run = cur
                .take()
                .ok_or_else(|| ctx("footer outside a run".into()))?;
            let rng = match end.get("rng") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        json_u64(v)
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| ctx(format!("rng count '{k}' is not a u64")))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err(ctx("footer missing 'rng' object".into())),
            };
            run.footer = Footer {
                events: get_u64(end, "events").map_err(&ctx)?,
                spans: get_u64(end, "spans").map_err(&ctx)?,
                digest: get_u64(end, "digest").map_err(&ctx)?,
                rng,
                end_ps: get_u64(end, "end_ps").map_err(&ctx)?,
                completed: get_u64(end, "completed").map_err(&ctx)?,
            };
            runs.push(run);
        } else {
            return Err(ctx("unrecognized line (no run/e/s/c/end key)".into()));
        }
    }
    if let Some(run) = cur {
        return Err(format!("run '{}' has no footer", run.label));
    }
    if meta.runs != runs.len() as u64 {
        return Err(format!(
            "meta declares {} runs but the artifact contains {}",
            meta.runs,
            runs.len()
        ));
    }
    Ok(ParsedArtifact { meta, runs })
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Totals a [`validate_artifact`] pass computed, for lint reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArtifactStats {
    /// Run sections validated.
    pub runs: usize,
    /// Event records across all runs.
    pub events: u64,
    /// Span points across all runs.
    pub spans: u64,
    /// Digest checkpoints across all runs.
    pub checkpoints: u64,
}

/// Parses and schema-validates an artifact: version fields, required
/// header keys, strictly monotone `(time, seq)` event rank, ascending
/// aligned checkpoints, and footer/body consistency (counts and — at full
/// granularity — the recomputed rolling digest).
///
/// # Errors
///
/// Returns a description of the first violated rule.
pub fn validate_artifact(text: &str) -> Result<ArtifactStats, String> {
    let artifact = parse_artifact(text)?;
    let mut stats = ArtifactStats {
        runs: artifact.runs.len(),
        ..ArtifactStats::default()
    };
    for run in &artifact.runs {
        let label = &run.label;
        if run.checkpoint_every == 0 {
            return Err(format!("run '{label}': checkpoint_every is zero"));
        }
        let mut prev: Option<(u64, u64)> = None;
        let mut digest = FNV_OFFSET;
        for (i, e) in run.events.iter().enumerate() {
            if let Some((pt, ps)) = prev {
                if (e.t_ps, e.seq) <= (pt, ps) {
                    return Err(format!(
                        "run '{label}': event {i} rank (t={}, seq={}) does not advance past \
                         (t={pt}, seq={ps}) — the (time, seq) order must be strictly monotone",
                        e.t_ps, e.seq
                    ));
                }
            }
            prev = Some((e.t_ps, e.seq));
            digest = e.fold_into(digest);
        }
        let mut prev_idx = 0u64;
        for c in &run.checkpoints {
            if c.index <= prev_idx && prev_idx != 0 {
                return Err(format!(
                    "run '{label}': checkpoint indices not strictly ascending at {}",
                    c.index
                ));
            }
            if c.index % run.checkpoint_every != 0 || c.index == 0 {
                return Err(format!(
                    "run '{label}': checkpoint index {} not a positive multiple of \
                     checkpoint_every={}",
                    c.index, run.checkpoint_every
                ));
            }
            prev_idx = c.index;
        }
        if run.granularity == Granularity::Full {
            if run.footer.events != run.events.len() as u64 {
                return Err(format!(
                    "run '{label}': footer declares {} events, body has {}",
                    run.footer.events,
                    run.events.len()
                ));
            }
            if run.footer.digest != digest {
                return Err(format!(
                    "run '{label}': footer digest 0x{:x} does not match the digest \
                     recomputed over the event body (0x{digest:x})",
                    run.footer.digest
                ));
            }
            for c in &run.checkpoints {
                let mut d = FNV_OFFSET;
                for e in &run.events[..c.index as usize] {
                    d = e.fold_into(d);
                }
                if d != c.digest {
                    return Err(format!(
                        "run '{label}': checkpoint {} digest 0x{:x} does not match the \
                         recomputed prefix digest 0x{d:x}",
                        c.index, c.digest
                    ));
                }
            }
        }
        if run.granularity != Granularity::Summary && run.footer.spans != run.spans.len() as u64 {
            return Err(format!(
                "run '{label}': footer declares {} spans, body has {}",
                run.footer.spans,
                run.spans.len()
            ));
        }
        stats.events += run.footer.events;
        stats.spans += run.footer.spans;
        stats.checkpoints += run.checkpoints.len() as u64;
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// The first point where a replayed run stops matching its recording.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Run identity differs before any event is compared (seed, config or
    /// workload fingerprint): the replay reconstructed a different run.
    Provenance {
        /// Which identity field differs.
        field: &'static str,
        /// Recorded value.
        expected: String,
        /// Replayed value.
        actual: String,
    },
    /// Event-level divergence (needs full granularity on at least the
    /// side that carries `Some`): the first index where the records
    /// disagree, or one side ran out.
    Event {
        /// Index into the event stream (0-based).
        index: u64,
        /// The recorded event, if the recording still had one.
        expected: Option<EventRec>,
        /// The replayed event, if the replay still had one.
        actual: Option<EventRec>,
    },
    /// Digest-block divergence (summary/spans recordings): the first
    /// checkpoint whose digest disagrees localizes the divergence to
    /// events `[start, end)`.
    Block {
        /// First event index of the divergent block.
        start: u64,
        /// One past the last event index of the block (`u64::MAX` when
        /// the divergence is only visible in the final footer digest).
        end: u64,
        /// Recorded digest at the block's closing checkpoint.
        expected_digest: u64,
        /// Replayed digest at the same checkpoint.
        actual_digest: u64,
    },
    /// A per-stream RNG draw count differs.
    Rng {
        /// Stream name (e.g. `nic`, `faults`).
        stream: String,
        /// Recorded draw count.
        expected: u64,
        /// Replayed draw count.
        actual: u64,
    },
    /// A footer total differs (event count, completions, end time).
    Count {
        /// Which total.
        what: &'static str,
        /// Recorded value.
        expected: u64,
        /// Replayed value.
        actual: u64,
    },
}

/// Finds the first divergence between a recorded run and its replay, or
/// `None` when they match. `expected` is the recording (any granularity);
/// `actual` should be a full-granularity re-recording so event-level
/// divergence can be pinpointed whenever the recording carries events or
/// checkpoints.
pub fn first_divergence(expected: &ParsedRun, actual: &ParsedRun) -> Option<Divergence> {
    for (field, e, a) in [
        ("seed", expected.seed, actual.seed),
        ("config_fp", expected.config_fp, actual.config_fp),
        ("trace_fp", expected.trace_fp, actual.trace_fp),
    ] {
        if e != a {
            return Some(Divergence::Provenance {
                field,
                expected: format!("0x{e:x}"),
                actual: format!("0x{a:x}"),
            });
        }
    }
    if expected.topology != actual.topology {
        let show = |t: &Option<String>| t.clone().unwrap_or_else(|| "<standalone>".into());
        return Some(Divergence::Provenance {
            field: "topology",
            expected: show(&expected.topology),
            actual: show(&actual.topology),
        });
    }

    if expected.granularity == Granularity::Full && actual.granularity == Granularity::Full {
        let n = expected.events.len().min(actual.events.len());
        for i in 0..n {
            if expected.events[i] != actual.events[i] {
                return Some(Divergence::Event {
                    index: i as u64,
                    expected: Some(expected.events[i]),
                    actual: Some(actual.events[i]),
                });
            }
        }
        if expected.events.len() != actual.events.len() {
            return Some(Divergence::Event {
                index: n as u64,
                expected: expected.events.get(n).copied(),
                actual: actual.events.get(n).copied(),
            });
        }
    } else if expected.checkpoint_every == actual.checkpoint_every {
        let n = expected.checkpoints.len().min(actual.checkpoints.len());
        for i in 0..n {
            let (e, a) = (&expected.checkpoints[i], &actual.checkpoints[i]);
            if e.digest != a.digest {
                return Some(Divergence::Block {
                    start: if i == 0 {
                        0
                    } else {
                        expected.checkpoints[i - 1].index
                    },
                    end: e.index,
                    expected_digest: e.digest,
                    actual_digest: a.digest,
                });
            }
        }
        if expected.footer.digest != actual.footer.digest {
            let start = expected
                .checkpoints
                .get(n.wrapping_sub(1))
                .map_or(0, |c| c.index);
            return Some(Divergence::Block {
                start,
                end: u64::MAX,
                expected_digest: expected.footer.digest,
                actual_digest: actual.footer.digest,
            });
        }
    }

    if expected.footer.digest != actual.footer.digest {
        return Some(Divergence::Count {
            what: "digest",
            expected: expected.footer.digest,
            actual: actual.footer.digest,
        });
    }
    for (what, e, a) in [
        ("events", expected.footer.events, actual.footer.events),
        (
            "completed",
            expected.footer.completed,
            actual.footer.completed,
        ),
        ("end_ps", expected.footer.end_ps, actual.footer.end_ps),
    ] {
        if e != a {
            return Some(Divergence::Count {
                what,
                expected: e,
                actual: a,
            });
        }
    }
    for (stream, e) in &expected.footer.rng {
        let a = actual
            .footer
            .rng
            .iter()
            .find(|(s, _)| s == stream)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        if *e != a {
            return Some(Divergence::Rng {
                stream: stream.clone(),
                expected: *e,
                actual: a,
            });
        }
    }
    None
}

fn kind_label(kind: u8, kind_names: &[&str]) -> String {
    kind_names
        .get(kind as usize)
        .map(|s| s.to_string())
        .unwrap_or_else(|| format!("kind{kind}"))
}

fn event_line(e: &EventRec, kind_names: &[&str]) -> String {
    format!(
        "t={}ps seq={} {} group={} payload=0x{:x}",
        e.t_ps,
        e.seq,
        kind_label(e.kind, kind_names),
        e.group,
        e.payload
    )
}

fn push_window(
    out: &mut String,
    side: &str,
    events: &[EventRec],
    at: u64,
    window: usize,
    names: &[&str],
) {
    if events.is_empty() {
        return;
    }
    let lo = (at as usize).saturating_sub(window);
    let hi = (at as usize + window + 1).min(events.len());
    out.push_str(&format!("  {side} events [{lo}..{hi}):\n"));
    for (i, e) in events[lo..hi].iter().enumerate() {
        let idx = lo + i;
        let marker = if idx as u64 == at { ">>" } else { "  " };
        out.push_str(&format!("  {marker} #{idx}: {}\n", event_line(e, names)));
    }
}

/// Renders a divergence as a readable multi-line report: the divergent
/// event (expected vs actual), a surrounding window of events from both
/// sides, per-stream RNG draw-count deltas, and engine/config provenance.
///
/// `kind_names` maps the world's kind tags to names (unknown tags render
/// as `kindN`); `window` is the number of context events on each side.
pub fn render_divergence(
    div: &Divergence,
    expected: &ParsedRun,
    actual: &ParsedRun,
    kind_names: &[&str],
    window: usize,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("run '{}': first divergence\n", expected.label));
    match div {
        Divergence::Provenance {
            field,
            expected: e,
            actual: a,
        } => {
            out.push_str(&format!(
                "  provenance mismatch: {field}\n    recorded: {e}\n    replayed: {a}\n  \
                 the replay reconstructed a different run — regenerate the golden \
                 (scripts/regen_golden.sh) if the scenario change is intentional\n"
            ));
        }
        Divergence::Event {
            index,
            expected: e,
            actual: a,
        } => {
            out.push_str(&format!("  first divergent event: index {index}\n"));
            match e {
                Some(e) => out.push_str(&format!("    recorded: {}\n", event_line(e, kind_names))),
                None => out.push_str("    recorded: <event stream ended>\n"),
            }
            match a {
                Some(a) => out.push_str(&format!("    replayed: {}\n", event_line(a, kind_names))),
                None => out.push_str("    replayed: <event stream ended>\n"),
            }
            push_window(
                &mut out,
                "recorded",
                &expected.events,
                *index,
                window,
                kind_names,
            );
            push_window(
                &mut out,
                "replayed",
                &actual.events,
                *index,
                window,
                kind_names,
            );
        }
        Divergence::Block {
            start,
            end,
            expected_digest,
            actual_digest,
        } => {
            if *end == u64::MAX {
                out.push_str(&format!(
                    "  digest diverges after event {start} (tail block): \
                     recorded 0x{expected_digest:x}, replayed 0x{actual_digest:x}\n"
                ));
            } else {
                out.push_str(&format!(
                    "  digest diverges in event block [{start}..{end}): \
                     recorded 0x{expected_digest:x}, replayed 0x{actual_digest:x}\n"
                ));
            }
            if !actual.events.is_empty() {
                let lo = *start as usize;
                let hi = (*end as usize).min(actual.events.len());
                if lo < hi {
                    // A checkpoint block can be hundreds of events; show
                    // only the edges (the recorded side has no per-event
                    // records here, so the exact culprit is unknown).
                    out.push_str("  replayed events in the divergent block:\n");
                    let edge = window.max(1);
                    let head_hi = (lo + edge).min(hi);
                    let tail_lo = hi.saturating_sub(edge).max(head_hi);
                    for (i, e) in actual.events[lo..head_hi].iter().enumerate() {
                        out.push_str(&format!(
                            "     #{}: {}\n",
                            lo + i,
                            event_line(e, kind_names)
                        ));
                    }
                    if tail_lo > head_hi {
                        out.push_str(&format!("     ... {} more events ...\n", tail_lo - head_hi));
                    }
                    for (i, e) in actual.events[tail_lo..hi].iter().enumerate() {
                        out.push_str(&format!(
                            "     #{}: {}\n",
                            tail_lo + i,
                            event_line(e, kind_names)
                        ));
                    }
                }
            }
        }
        Divergence::Rng {
            stream,
            expected: e,
            actual: a,
        } => {
            out.push_str(&format!(
                "  rng draw count diverges on stream '{stream}': recorded {e}, replayed {a}\n"
            ));
        }
        Divergence::Count {
            what,
            expected: e,
            actual: a,
        } => {
            out.push_str(&format!(
                "  footer total '{what}' diverges: recorded {e} (0x{e:x}), \
                 replayed {a} (0x{a:x})\n"
            ));
        }
    }
    out.push_str("  rng draws per stream (recorded -> replayed):\n");
    for (stream, e) in &expected.footer.rng {
        let a = actual
            .footer
            .rng
            .iter()
            .find(|(s, _)| s == stream)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        let delta = a as i64 - *e as i64;
        out.push_str(&format!("    {stream}: {e} -> {a} ({delta:+})\n"));
    }
    out.push_str(&format!(
        "  provenance: engine {} -> {}, seed {}, config_fp 0x{:x}, trace_fp 0x{:x}\n",
        expected.engine, actual.engine, expected.seed, expected.config_fp, expected.trace_fp
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn record_run(n: u64, granularity: Granularity, every: u64) -> Recorder {
        let mut rec = Recorder::with_checkpoint_every(granularity, every);
        for i in 0..n {
            rec.event_record(
                SimTime::from_ps(100 * i + 5),
                i,
                (i % 4) as u8,
                (i % 3) as u32,
                i * 7,
            );
            if granularity != Granularity::Summary && i % 2 == 0 {
                rec.span_point(i as u32, 1, 0, SimTime::from_ps(100 * i));
            }
        }
        rec
    }

    fn artifact_of(rec: &Recorder, label: &str) -> String {
        artifact_with_topology(rec, label, None)
    }

    fn artifact_with_topology(rec: &Recorder, label: &str, topology: Option<String>) -> String {
        let meta = RunMeta {
            label: label.into(),
            engine: "serial_event_driven",
            seed: 7,
            config_fp: 0xABCD,
            trace_fp: 0x1234_5678_9ABC_DEF0,
            topology,
            params: vec![("load".into(), "0.5".into())],
        };
        let totals = RunTotals {
            rng: vec![("nic".into(), 42), ("faults".into(), 0)],
            end_ps: 12_345,
            completed: 99,
        };
        let mut out = String::new();
        write_artifact_meta(&mut out, "test_bin", "test_scenario", true, 1);
        write_run_section(&mut out, &meta, rec, &totals);
        out
    }

    #[test]
    fn roundtrip_full_granularity() {
        let rec = record_run(100, Granularity::Full, 16);
        let text = artifact_of(&rec, "r0");
        let parsed = parse_artifact(&text).expect("parses");
        assert_eq!(parsed.meta.bin, "test_bin");
        assert_eq!(parsed.runs.len(), 1);
        let run = &parsed.runs[0];
        assert_eq!(run.events.len(), 100);
        assert_eq!(run.events, rec.events());
        assert_eq!(run.spans.len(), 50);
        assert_eq!(run.checkpoints.len(), 100 / 16);
        assert_eq!(run.footer.digest, rec.digest());
        assert_eq!(
            run.footer.rng,
            vec![("nic".into(), 42), ("faults".into(), 0)]
        );
        let stats = validate_artifact(&text).expect("validates");
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.events, 100);
    }

    #[test]
    fn topology_roundtrips_and_gates_provenance() {
        let rec = record_run(20, Granularity::Full, 8);
        let topo = "rack:4x2x8/tor500ns100g/srv1";
        let text = artifact_with_topology(&rec, "r0", Some(topo.into()));
        let parsed = parse_artifact(&text).expect("parses");
        assert_eq!(parsed.runs[0].topology.as_deref(), Some(topo));
        validate_artifact(&text).expect("validates");
        // A standalone header omits the key entirely (byte-compatible with
        // pre-rack artifacts) and parses back as None.
        let plain = artifact_of(&rec, "r0");
        assert!(!plain.contains("\"topo\""));
        let none = parse_artifact(&plain).expect("parses");
        assert_eq!(none.runs[0].topology, None);
        // Topology is provenance: a rack section replayed against a drifted
        // layout diverges before any event comparison.
        match first_divergence(&parsed.runs[0], &none.runs[0]) {
            Some(Divergence::Provenance { field, .. }) => assert_eq!(field, "topology"),
            other => panic!("expected provenance divergence, got {other:?}"),
        }
        assert!(first_divergence(&parsed.runs[0], &parsed.runs[0]).is_none());
    }

    #[test]
    fn summary_matches_full_digest() {
        let full = record_run(100, Granularity::Full, 16);
        let summary = record_run(100, Granularity::Summary, 16);
        assert_eq!(full.digest(), summary.digest());
        assert_eq!(full.checkpoints(), summary.checkpoints());
        assert!(summary.events().is_empty());
        assert!(summary.spans().is_empty());
        validate_artifact(&artifact_of(&summary, "r0")).expect("summary validates");
    }

    #[test]
    fn validator_rejects_non_monotone_rank() {
        let mut rec = Recorder::new(Granularity::Full);
        rec.event_record(SimTime::from_ps(100), 5, 0, 0, 0);
        rec.event_record(SimTime::from_ps(100), 5, 0, 0, 1); // same (time, seq)
        let text = artifact_of(&rec, "bad");
        let err = validate_artifact(&text).expect_err("must reject");
        assert!(err.contains("strictly monotone"), "{err}");
    }

    #[test]
    fn validator_rejects_corrupt_digest() {
        let rec = record_run(40, Granularity::Full, 8);
        let text = artifact_of(&rec, "r0");
        // Flip one payload byte in the middle of the body.
        let corrupted = text.replacen("\"0x46\"", "\"0x47\"", 1);
        assert_ne!(corrupted, text, "expected payload 0x46 (10*7) in the body");
        let err = validate_artifact(&corrupted).expect_err("must reject");
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn validator_rejects_wrong_version() {
        let rec = record_run(4, Granularity::Full, 8);
        let text = artifact_of(&rec, "r0").replacen("TRACE/1.0", "TRACE/9.9", 1);
        let err = validate_artifact(&text).expect_err("must reject");
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn first_divergence_pinpoints_flipped_event() {
        let rec = record_run(60, Granularity::Full, 16);
        let base = parse_artifact(&artifact_of(&rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        let mut other = base.clone();
        other.events[33].payload ^= 1;
        let div = first_divergence(&base, &other).expect("diverges");
        match div {
            Divergence::Event { index, .. } => assert_eq!(index, 33),
            other => panic!("expected event divergence, got {other:?}"),
        }
        let report = render_divergence(&div, &base, &other, &["a", "b", "c", "d"], 2);
        assert!(report.contains("index 33"), "{report}");
        assert!(report.contains(">> #33"), "{report}");
    }

    #[test]
    fn first_divergence_pinpoints_dropped_event() {
        let rec = record_run(60, Granularity::Full, 16);
        let base = parse_artifact(&artifact_of(&rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        let mut other = base.clone();
        other.events.remove(20);
        let div = first_divergence(&base, &other).expect("diverges");
        match div {
            Divergence::Event { index, .. } => assert_eq!(index, 20),
            other => panic!("expected event divergence, got {other:?}"),
        }
    }

    #[test]
    fn summary_divergence_localizes_block() {
        let base_rec = record_run(64, Granularity::Summary, 16);
        let base = parse_artifact(&artifact_of(&base_rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        // Re-record with event 40 perturbed, as a buggy engine would.
        let mut other_rec = Recorder::with_checkpoint_every(Granularity::Full, 16);
        for i in 0..64u64 {
            let t = if i == 40 { 100 * i + 6 } else { 100 * i + 5 };
            other_rec.event_record(SimTime::from_ps(t), i, (i % 4) as u8, (i % 3) as u32, i * 7);
        }
        let other = parse_artifact(&artifact_of(&other_rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        let div = first_divergence(&base, &other).expect("diverges");
        match div {
            Divergence::Block { start, end, .. } => {
                assert_eq!((start, end), (32, 48), "block containing event 40");
            }
            other => panic!("expected block divergence, got {other:?}"),
        }
        let report = render_divergence(&div, &base, &other, &[], 8);
        assert!(report.contains("[32..48)"), "{report}");
        assert!(
            report.contains("t=4006ps"),
            "replayed block listing: {report}"
        );
        // A small window elides the middle of the block instead of dumping
        // all of it.
        let short = render_divergence(&div, &base, &other, &[], 2);
        assert!(short.contains("... 12 more events ..."), "{short}");
        assert!(!short.contains("t=4006ps"), "{short}");
    }

    #[test]
    fn rng_divergence_reported() {
        let rec = record_run(8, Granularity::Summary, 16);
        let base = parse_artifact(&artifact_of(&rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        let mut other = base.clone();
        other.footer.rng[0].1 = 43;
        let div = first_divergence(&base, &other).expect("diverges");
        assert_eq!(
            div,
            Divergence::Rng {
                stream: "nic".into(),
                expected: 42,
                actual: 43
            }
        );
        let report = render_divergence(&div, &base, &other, &[], 2);
        assert!(report.contains("nic: 42 -> 43 (+1)"), "{report}");
    }

    #[test]
    fn provenance_divergence_wins() {
        let rec = record_run(8, Granularity::Full, 16);
        let base = parse_artifact(&artifact_of(&rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        let mut other = base.clone();
        other.config_fp ^= 1;
        other.events[0].payload ^= 1;
        match first_divergence(&base, &other).expect("diverges") {
            Divergence::Provenance { field, .. } => assert_eq!(field, "config_fp"),
            other => panic!("expected provenance divergence, got {other:?}"),
        }
    }

    #[test]
    fn matching_runs_have_no_divergence() {
        let rec = record_run(50, Granularity::Full, 16);
        let base = parse_artifact(&artifact_of(&rec, "r0"))
            .unwrap()
            .runs
            .remove(0);
        assert_eq!(first_divergence(&base, &base.clone()), None);
    }

    #[test]
    fn parser_rejects_truncated_section() {
        let rec = record_run(8, Granularity::Full, 16);
        let text = artifact_of(&rec, "r0");
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let err = parse_artifact(&truncated).expect_err("must reject");
        assert!(err.contains("footer"), "{err}");
    }
}
