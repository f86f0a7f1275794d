//! In-memory spans around the calls into each layer.
//!
//! The benchmark measures from outside: a span brackets one call into a
//! public function of the crates under test. Spans nest through the
//! closure they wrap, stay in memory for the whole run and are written
//! out once at exit. A disabled tracer runs the closure and reads no
//! clock, so untraced end-to-end runs pay nothing.

use cce_util::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trace events (or cell-events) the call processed; 0 when the
    /// span is not per-event work.
    pub events: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name` that processed `events`
    /// events. Spans opened by `f` through the tracer it receives become
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        events: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            events,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_nanos(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::nanos)
            .sum();
        self.spans[idx].nanos().saturating_sub(children)
    }

    /// The trace as one JSON object: context, the spans with their self
    /// time, and whatever `extra` the caller derived from them.
    pub fn to_json(&self, context: Json, extra: Vec<(&str, Json)>) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::Int(i as i64)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("workload", Json::Str(self.workload.to_owned())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("events", Json::Int(s.events as i64)),
                    ("self_ns", Json::Int(self.self_nanos(i) as i64)),
                ])
            })
            .collect();
        let mut pairs = vec![
            ("workload", Json::Str(self.workload.to_owned())),
            ("context", context),
        ];
        pairs.extend(extra);
        pairs.push(("spans", Json::Arr(spans)));
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new("w", true);
        t.span("outer", 0, |t| {
            t.span("inner", 5, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 5, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].nanos() >= 2_000_000);
        assert_eq!(
            t.self_nanos(0),
            spans[0].nanos() - spans[1].nanos() - spans[2].nanos()
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        assert_eq!(t.span("x", 1, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
