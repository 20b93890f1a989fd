//! End-to-end request tracing: span ids, stage-boundary events and a
//! Chrome-trace / Perfetto exporter.
//!
//! The paper's whole argument is a latency *attribution* story —
//! two-level batching trades queueing delay for occupancy — so the
//! runtime must be able to say where a request's time went, not just
//! how much there was. Every request is assigned a [`SpanId`] at
//! submission; the span is carried through
//! [`Request`](crate::request::Request) → its tenant's open batch →
//! worker → [`Response`](crate::request::Response), and each layer
//! records a stage-boundary timestamp into the shared [`Tracer`]:
//!
//! | stage | recorded by | meaning |
//! |---|---|---|
//! | `Submitted` | client handle | `submit()` called |
//! | `Enqueued` | client handle | admission returned (gap from `Submitted` = backpressure wait) |
//! | `BatchOpened` | dispatcher | admitted into its tenant's open batch |
//! | `EpochFlushed` | dispatcher | a worker took the batch as an [`Epoch`](crate::request::Epoch) |
//! | `PbsStart`/`PbsEnd` | worker | the epoch's batched blind rotation ran |
//! | `KsStart`/`KsEnd` | worker | the epoch's batched keyswitch tail ran |
//! | `Completed` | worker | response handed to the client registry |
//!
//! Under worker-pull dispatch the request slices below mean:
//! `queue-wait` (`Submitted → BatchOpened`) is the time `submit`
//! blocked on backpressure; `batch-wait` (`BatchOpened → EpochFlushed`)
//! is the wait for a worker, since a request stays in its open batch
//! until a worker asks for work; `execute` (`EpochFlushed → Completed`)
//! is the epoch's execution alone, with no queueing behind a busy
//! worker.
//!
//! Events live in a **bounded ring buffer** (oldest evicted first, the
//! eviction count is reported) behind a mutex whose critical section is
//! a single `VecDeque` push — recording is a few tens of nanoseconds
//! against a multi-millisecond PBS, and sampling (`sample_every`)
//! drops the cost to zero for untraced spans without touching the lock.
//!
//! [`Tracer::chrome_trace_json`] renders the ring as a Chrome
//! trace-event JSON array (`ph: "X"` complete events) that
//! <https://ui.perfetto.dev> and `chrome://tracing` open directly: one
//! track per client, with `queue-wait` / `batch-wait` / `execute`
//! slices per request and `pbs` / `keyswitch` sub-slices from the
//! epoch's execution timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::request::ClientId;
use crate::sync::lock_unpoisoned;

/// Identifies one request end to end, across every runtime layer.
///
/// Allocated by [`Tracer::next_span`]; ids are unique per runtime and
/// strictly increasing in submission order, which is what makes
/// `sample_every`-based sampling uniform over the request stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span-{}", self.0)
    }
}

/// A stage boundary in the life of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// `submit()` was called on the client handle.
    Submitted,
    /// Admission returned (backpressure resolved).
    Enqueued,
    /// The request joined its tenant's open batch.
    BatchOpened,
    /// A worker took the open batch as an epoch.
    EpochFlushed,
    /// The epoch's batched PBS began executing.
    PbsStart,
    /// The epoch's batched PBS finished.
    PbsEnd,
    /// The epoch's batched keyswitch began executing.
    KsStart,
    /// The epoch's batched keyswitch finished.
    KsEnd,
    /// The response was delivered.
    Completed,
}

impl TraceStage {
    /// Short label used by the exporter and debug output.
    pub fn label(self) -> &'static str {
        match self {
            TraceStage::Submitted => "submitted",
            TraceStage::Enqueued => "enqueued",
            TraceStage::BatchOpened => "batch-opened",
            TraceStage::EpochFlushed => "epoch-flushed",
            TraceStage::PbsStart => "pbs-start",
            TraceStage::PbsEnd => "pbs-end",
            TraceStage::KsStart => "ks-start",
            TraceStage::KsEnd => "ks-end",
            TraceStage::Completed => "completed",
        }
    }
}

/// One recorded stage boundary.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// The request's span.
    pub span: SpanId,
    /// Originating client.
    pub client: ClientId,
    /// Position in the client's stream.
    pub seq: u64,
    /// The epoch the request was batched into, once known.
    pub epoch: Option<u64>,
    /// Which boundary this is.
    pub stage: TraceStage,
    /// Microseconds since the tracer's origin (runtime start).
    pub at_us: u64,
}

/// Tracer configuration, set through
/// [`RuntimeConfig`](crate::runtime::RuntimeConfig).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Master switch; a disabled tracer records nothing and allocates
    /// nothing beyond the span counter.
    pub enabled: bool,
    /// Ring capacity in events (~9 events per traced request). When
    /// full, the oldest events are evicted and counted.
    pub capacity: usize,
    /// Trace one request in `sample_every` (1 = all). Untraced spans
    /// skip every recording call before the lock.
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { enabled: true, capacity: 1 << 16, sample_every: 1 }
    }
}

impl TraceConfig {
    /// A tracer that records nothing (still allocates span ids).
    pub fn disabled() -> Self {
        Self { enabled: false, capacity: 0, sample_every: 1 }
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: std::collections::VecDeque<TraceEvent>,
    evicted: u64,
}

/// The shared trace sink: allocates spans, records stage boundaries
/// into a bounded ring, exports Chrome trace JSON.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    origin: Instant,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl Tracer {
    /// Creates a tracer; `origin` (time zero of exported traces) is now.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            origin: Instant::now(),
            next_span: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// A tracer that records nothing (spans still allocate, so request
    /// plumbing is identical with tracing on or off).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Allocates the next span id.
    pub fn next_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether events for `span` are recorded (sampling decision —
    /// constant per span, so a request is traced fully or not at all).
    #[inline]
    pub fn traces(&self, span: SpanId) -> bool {
        self.config.enabled
            && self.config.capacity > 0
            && span.0.is_multiple_of(self.config.sample_every.max(1))
    }

    /// Records a stage boundary for `span` at time `now`.
    #[inline]
    pub fn record(
        &self,
        span: SpanId,
        client: ClientId,
        seq: u64,
        epoch: Option<u64>,
        stage: TraceStage,
    ) {
        self.record_at(span, client, seq, epoch, stage, Instant::now());
    }

    /// As [`Self::record`] with an explicit timestamp — used when one
    /// measured instant (an epoch's PBS start, say) applies to many
    /// spans.
    pub fn record_at(
        &self,
        span: SpanId,
        client: ClientId,
        seq: u64,
        epoch: Option<u64>,
        stage: TraceStage,
        at: Instant,
    ) {
        if !self.traces(span) {
            return;
        }
        let at_us =
            at.saturating_duration_since(self.origin).as_micros().min(u64::MAX as u128) as u64;
        let event = TraceEvent { span, client, seq, epoch, stage, at_us };
        let mut ring = lock_unpoisoned(&self.ring);
        if ring.events.len() >= self.config.capacity {
            ring.events.pop_front();
            ring.evicted += 1;
        }
        ring.events.push_back(event);
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.ring).events.iter().copied().collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        lock_unpoisoned(&self.ring).evicted
    }

    /// Builds the Chrome trace-event representation of the buffer: one
    /// `ph: "X"` complete event per contiguous stage interval of each
    /// span. The `tid` is the client id (one track per client in the
    /// viewer), `pid` is a constant runtime process.
    pub fn chrome_trace(&self) -> Vec<ChromeTraceEvent> {
        chrome_events(&self.events())
    }

    /// Renders [`Self::chrome_trace`] as the JSON array form of the
    /// Chrome trace-event format, accepted by `chrome://tracing` and
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        // lint:allow(panic) plain structs of numbers and strings cannot fail to serialize
        serde_json::to_string(&self.chrome_trace()).expect("trace serialization is infallible")
    }
}

/// One Chrome trace-event "complete" record (`ph: "X"`). Field names
/// follow the trace-event format spec, which is why they are terse.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChromeTraceEvent {
    /// Slice name (`queue-wait`, `batch-wait`, `execute`, `pbs`,
    /// `keyswitch`).
    pub name: String,
    /// Category (`request` for per-span slices, `epoch` for the
    /// execution sub-slices).
    pub cat: String,
    /// Phase; always `"X"` (complete event with duration).
    pub ph: String,
    /// Start, microseconds since the tracer origin.
    pub ts: u64,
    /// Duration in microseconds.
    pub dur: u64,
    /// Process id (constant — one runtime).
    pub pid: u64,
    /// Thread id: the client id, so each client is one track.
    pub tid: u64,
    /// Span/seq/epoch breadcrumbs shown in the viewer's detail pane.
    pub args: ChromeTraceArgs,
}

/// The `args` payload of a [`ChromeTraceEvent`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChromeTraceArgs {
    /// Span id.
    pub span: u64,
    /// Per-client sequence number.
    pub seq: u64,
    /// Epoch id, once the request was batched.
    pub epoch: Option<u64>,
}

/// The slice decomposition the exporter emits per span: each entry is
/// (slice name, category, start stage, end stage).
const SLICES: [(&str, &str, TraceStage, TraceStage); 5] = [
    ("queue-wait", "request", TraceStage::Submitted, TraceStage::BatchOpened),
    ("batch-wait", "request", TraceStage::BatchOpened, TraceStage::EpochFlushed),
    ("execute", "request", TraceStage::EpochFlushed, TraceStage::Completed),
    ("pbs", "epoch", TraceStage::PbsStart, TraceStage::PbsEnd),
    ("keyswitch", "epoch", TraceStage::KsStart, TraceStage::KsEnd),
];

fn chrome_events(events: &[TraceEvent]) -> Vec<ChromeTraceEvent> {
    use std::collections::HashMap;
    // Group stage timestamps per span. A span evicted halfway through
    // the ring simply yields the slices whose endpoints both survive.
    struct SpanAcc {
        client: u64,
        seq: u64,
        epoch: Option<u64>,
        stages: HashMap<TraceStage, u64>,
    }
    let mut spans: Vec<(SpanId, SpanAcc)> = Vec::new();
    let mut index: HashMap<SpanId, usize> = HashMap::new();
    for e in events {
        let i = *index.entry(e.span).or_insert_with(|| {
            spans.push((
                e.span,
                SpanAcc { client: e.client.0, seq: e.seq, epoch: None, stages: HashMap::new() },
            ));
            spans.len() - 1
        });
        let acc = &mut spans[i].1;
        if acc.epoch.is_none() {
            acc.epoch = e.epoch;
        }
        acc.stages.insert(e.stage, e.at_us);
    }
    let mut out = Vec::new();
    for (span, acc) in &spans {
        for &(name, cat, start, end) in &SLICES {
            let (Some(&t0), Some(&t1)) = (acc.stages.get(&start), acc.stages.get(&end)) else {
                continue;
            };
            out.push(ChromeTraceEvent {
                name: name.to_string(),
                cat: cat.to_string(),
                ph: "X".to_string(),
                ts: t0,
                dur: t1.saturating_sub(t0),
                pid: 1,
                tid: acc.client,
                args: ChromeTraceArgs { span: span.0, seq: acc.seq, epoch: acc.epoch },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record_lifecycle(tracer: &Tracer, span: SpanId, client: u64, epoch: u64) {
        let t0 = Instant::now();
        let stages = [
            (TraceStage::Submitted, 0, None),
            (TraceStage::Enqueued, 5, None),
            (TraceStage::BatchOpened, 10, None),
            (TraceStage::EpochFlushed, 20, Some(epoch)),
            (TraceStage::PbsStart, 21, Some(epoch)),
            (TraceStage::PbsEnd, 40, Some(epoch)),
            (TraceStage::KsStart, 40, Some(epoch)),
            (TraceStage::KsEnd, 45, Some(epoch)),
            (TraceStage::Completed, 50, Some(epoch)),
        ];
        for (stage, offset_us, ep) in stages {
            tracer.record_at(
                span,
                ClientId(client),
                0,
                ep,
                stage,
                t0 + Duration::from_micros(offset_us),
            );
        }
    }

    #[test]
    fn span_ids_are_unique_and_increasing() {
        let tracer = Tracer::default();
        let a = tracer.next_span();
        let b = tracer.next_span();
        assert!(b > a);
        assert_eq!(a.to_string(), "span-0");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let span = tracer.next_span();
        assert!(!tracer.traces(span));
        tracer.record(span, ClientId(0), 0, None, TraceStage::Submitted);
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn sampling_traces_every_nth_span() {
        let tracer = Tracer::new(TraceConfig { enabled: true, capacity: 64, sample_every: 4 });
        let sampled: Vec<bool> = (0..8).map(|_| tracer.traces(tracer.next_span())).collect();
        assert_eq!(sampled, [true, false, false, false, true, false, false, false]);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let tracer = Tracer::new(TraceConfig { enabled: true, capacity: 4, sample_every: 1 });
        for _ in 0..6 {
            let span = tracer.next_span();
            tracer.record(span, ClientId(0), 0, None, TraceStage::Submitted);
        }
        assert_eq!(tracer.events().len(), 4);
        assert_eq!(tracer.evicted(), 2);
        // Oldest evicted first: the survivors are the last four spans.
        assert_eq!(tracer.events()[0].span, SpanId(2));
    }

    #[test]
    fn chrome_export_builds_slices_from_stage_pairs() {
        let tracer = Tracer::default();
        let span = tracer.next_span();
        record_lifecycle(&tracer, span, 3, 7);
        let slices = tracer.chrome_trace();
        assert_eq!(slices.len(), SLICES.len());
        let queue = slices.iter().find(|s| s.name == "queue-wait").unwrap();
        assert_eq!(queue.dur, 10);
        assert_eq!(queue.tid, 3);
        assert_eq!(queue.args.epoch, Some(7));
        let pbs = slices.iter().find(|s| s.name == "pbs").unwrap();
        assert_eq!(pbs.dur, 19);
        assert_eq!(pbs.cat, "epoch");
        let exec = slices.iter().find(|s| s.name == "execute").unwrap();
        assert_eq!(exec.dur, 30);
        assert_eq!(exec.ph, "X");
    }

    #[test]
    fn chrome_export_json_round_trips_through_serde() {
        let tracer = Tracer::default();
        record_lifecycle(&tracer, tracer.next_span(), 1, 0);
        record_lifecycle(&tracer, tracer.next_span(), 2, 0);
        let json = tracer.chrome_trace_json();
        let parsed: Vec<ChromeTraceEvent> = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed, tracer.chrome_trace());
        let again = serde_json::to_string(&parsed).unwrap();
        assert_eq!(json, again, "export is a serde fixed point");
    }

    #[test]
    fn partial_spans_emit_only_complete_slices() {
        let tracer = Tracer::default();
        let span = tracer.next_span();
        tracer.record(span, ClientId(0), 0, None, TraceStage::Submitted);
        tracer.record(span, ClientId(0), 0, None, TraceStage::BatchOpened);
        // No flush/completion yet: only the queue-wait slice exists.
        let slices = tracer.chrome_trace();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].name, "queue-wait");
    }
}
