//! Spans recorded from the benchmark's side of each public call into the
//! engine: name, start, end, parent, iteration id. Kept in memory and
//! written out when the traced pass ends. A disabled tracer records
//! nothing and reads no clock, so the untraced pass runs the same code.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced iteration (or replay round) the span belongs to.
    pub iteration: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Spans recorded from now on belong to iteration `id`.
    pub fn set_iteration(&mut self, id: u32) {
        self.iteration = id;
    }

    /// Run `f` inside a span called `name`; `f` may open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Run `f` inside a leaf span and return its duration in ms (measured
    /// whether or not the tracer records).
    pub fn timed(&mut self, name: &'static str, f: impl FnOnce()) -> f64 {
        let t0 = Instant::now();
        self.span(name, |_| f());
        t0.elapsed().as_secs_f64() * 1e3
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans called `name` whose iteration id lies
    /// in `iterations`, in recording order.
    pub fn durations_ms(&self, name: &str, iterations: std::ops::Range<u32>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && iterations.contains(&s.iteration))
            .map(Span::ms)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iteration", Json::Num(f64::from(s.iteration))),
                        ("self_us", Json::Num(self_us(&self.spans, id))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut frontier = me.start_us;
    for (a, b) in kids {
        let a = a.max(frontier);
        if b > a {
            covered += b - a;
            frontier = b;
        }
    }
    (me.end_us - me.start_us) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0.0, 100.0, None),
            span("a", 10.0, 30.0, Some(0)),
            span("b", 25.0, 50.0, Some(0)), // overlaps `a` by 5
            span("grandchild", 12.0, 20.0, Some(1)),
            span("c", 90.0, 120.0, Some(0)), // clipped to the parent
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100.
        assert_eq!(self_us(&spans, 0), 50.0);
        // `a` has one child of 8.
        assert_eq!(self_us(&spans, 1), 12.0);
        // Leaves keep their whole duration.
        assert_eq!(self_us(&spans, 3), 8.0);
    }

    #[test]
    fn tracer_nests_spans_and_tags_iterations() {
        let mut tr = Tracer::new(true);
        tr.set_iteration(3);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.iteration == 3));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert!(self_us(spans, 0) >= 0.0);
        assert_eq!(tr.durations_ms("inner", 3..4).len(), 1);
        assert!(tr.durations_ms("inner", 0..3).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 1)), 1);
        assert!(tr.spans().is_empty());
    }
}
