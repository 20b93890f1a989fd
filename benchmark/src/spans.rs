//! The in-memory span recorder of the traced run. Spans are recorded
//! from the benchmark's own files, around its calls into each layer's
//! public functions; nothing inside the crates is instrumented. The
//! recorder is switched off for the run that yields the end-to-end
//! metrics, and then costs one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval, in microseconds from the recorder's start.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: Option<u64>,
}

/// Handle of an open span; `None` when the recorder is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans of the driver thread, innermost last.
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off between legs (no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "recorder toggled inside a span");
        self.enabled = enabled;
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span on the driver thread, nested in the innermost open
    /// one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        self.enter_for(name, None)
    }

    /// As [`Self::enter`], tagged with the request it serves.
    pub fn enter_for(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_us = self.us(Instant::now());
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_us, end_us: start_us, parent, request });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes the span and counts one call at this site.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index].end_us = self.us(Instant::now());
        *self.counts.entry(self.spans[index].name).or_default() += 1;
    }

    /// Records an interval that was not open on the driver thread, such
    /// as a request's life from due time to response.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if !self.enabled {
            return;
        }
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span { name, start_us, end_us, parent: None, request: Some(request) });
        *self.counts.entry(name).or_default() += 1;
    }

    /// Adds `n` to a count kept at a call site.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total and self time per span name, in microseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        totals(&self.spans)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): nested
    /// driver-thread spans as complete events on one track, request
    /// lifetimes as async begin/end pairs keyed by request id.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        for (index, span) in self.spans.iter().enumerate() {
            let mut args = vec![("span".to_string(), Json::Num(index as f64))];
            if let Some(parent) = span.parent {
                args.push(("parent".into(), Json::Num(parent as f64)));
            }
            if let Some(request) = span.request {
                args.push(("request".into(), Json::Num(request as f64)));
            }
            let common = |ph: &str, ts: f64| {
                vec![
                    ("name".to_string(), Json::str(span.name)),
                    ("cat".to_string(), Json::str(span.name.split('.').next().unwrap_or(""))),
                    ("ph".to_string(), Json::str(ph)),
                    ("ts".to_string(), Json::Num(ts)),
                    ("pid".to_string(), Json::Num(1.0)),
                ]
            };
            let on_driver = span.parent.is_some() || span.request.is_none();
            if on_driver {
                let mut e = common("X", span.start_us);
                e.push(("dur".into(), Json::Num(span.end_us - span.start_us)));
                e.push(("tid".into(), Json::Num(1.0)));
                e.push(("args".into(), Json::Obj(args)));
                events.push(Json::Obj(e));
            } else {
                let id = Json::Num(span.request.unwrap_or(0) as f64);
                for (ph, ts) in [("b", span.start_us), ("e", span.end_us)] {
                    let mut e = common(ph, ts);
                    e.push(("tid".into(), Json::Num(2.0)));
                    e.push(("id".into(), id.clone()));
                    e.push(("args".into(), Json::Obj(args.clone())));
                    events.push(Json::Obj(e));
                }
            }
        }
        let counts =
            self.counts.iter().map(|(k, v)| (k.to_string(), Json::Num(*v as f64))).collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("counts", Json::Obj(counts)),
        ])
    }
}

/// Summed duration and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover (children may overlap one another).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_us.max(p.start_us), span.end_us.min(p.end_us));
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for &(start, end) in kids.iter() {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        let duration = span.end_us - span.start_us;
        let total = out.entry(span.name).or_default();
        total.calls += 1;
        total.total_us += duration;
        total.self_us += duration - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent, request: None }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            // Overlaps `a` by 10 us: the union covers 10..60.
            span("b", 30.0, 60.0, Some(0)),
            span("leaf", 12.0, 20.0, Some(1)),
            // Sticks out of its parent; only the inside part counts.
            span("late", 90.0, 130.0, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"], NameTotal { calls: 1, total_us: 100.0, self_us: 40.0 });
        assert_eq!(t["a"], NameTotal { calls: 1, total_us: 30.0, self_us: 22.0 });
        assert_eq!(t["b"].self_us, 30.0);
        assert_eq!(t["leaf"].self_us, 8.0);
    }

    #[test]
    fn self_times_of_a_nested_tree_add_up_to_the_root() {
        let spans = [
            span("root", 0.0, 50.0, None),
            span("x", 5.0, 25.0, Some(0)),
            span("x", 30.0, 45.0, Some(0)),
            span("y", 6.0, 10.0, Some(1)),
        ];
        let t = totals(&spans);
        assert_eq!(t["x"].calls, 2);
        let sum: f64 = t.values().map(|v| v.self_us).sum();
        assert_eq!(sum, 50.0);
    }

    #[test]
    fn recorder_nests_counts_and_exports() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("bench.leg");
        let inner = rec.enter_for("tfhe.bootstrap", Some(7));
        rec.exit(inner);
        rec.exit(outer);
        let now = Instant::now();
        rec.record("bench.request", now, now, 7);
        rec.count("tfhe.pbs", 8);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[2].request, Some(7));
        assert_eq!(rec.counts()["tfhe.bootstrap"], 1);
        assert_eq!(rec.counts()["tfhe.pbs"], 8);
        let trace = Json::parse(&rec.chrome_trace().render()).unwrap();
        // Two complete events plus one async begin/end pair.
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("bench.leg");
        rec.exit(open);
        rec.count("tfhe.pbs", 8);
        rec.record("bench.request", Instant::now(), Instant::now(), 1);
        assert!(rec.spans().is_empty() && rec.counts().is_empty());
    }
}
