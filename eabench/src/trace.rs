//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code around calls into the
//! program's public functions: name, start, end, parent span and request
//! id. They stay in memory and are written out once, when the run ends.
//! A disabled tracer records nothing and costs one branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no parent".
pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// An open span: [`Tracer::begin`] hands one out, [`Tracer::end`] closes it.
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    id: SpanId,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` for `request`. Ids are assigned at
    /// open time so children can name a parent that has not ended yet.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> Open {
        if !self.enabled {
            return Open { id: 0, start_ns: 0 };
        }
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        Open { id, start_ns }
    }

    pub fn end(&mut self, open: Open) {
        if open.id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.id as usize - 1];
        span.start_ns = open.start_ns;
        span.end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// The instant span times count from; a caller that timestamps work
    /// itself (the load generator) uses it so its spans line up.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span measured elsewhere, in ns after [`Tracer::epoch`].
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children are
    /// merged, so concurrent children are not subtracted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time (ns) per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id name start_ns end_ns parent request self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request,
                t
            )?;
        }
        w.flush()
    }

    /// Measured cost (ns) of recording one span, from a calibration loop
    /// on a scratch tracer.
    pub fn cost_per_span_ns() -> f64 {
        const N: usize = 20_000;
        let mut t = Tracer::new(true);
        let clock = Instant::now();
        for i in 0..N {
            let open = t.begin("calibrate", 0, i as u64);
            t.end(open);
        }
        clock.elapsed().as_nanos() as f64 / N as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 40, 1),
            span("b", 30, 50, 1),
            span("c", 90, 120, 1),
            span("leaf", 12, 20, 2),
        ];
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 30 - 8, 20, 30, 8]);
        let by = t.self_time_by_name();
        assert_eq!(by["root"], 50);
        assert_eq!(by["leaf"], 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("x", 0, 1, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0, 5);
        let pid = outer.id();
        t.time("inner", pid, 5, || ());
        t.end(outer);
        assert_eq!(t.spans[1].parent, 1);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
    }
}
