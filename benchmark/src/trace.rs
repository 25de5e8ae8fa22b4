//! In-memory spans for the traced replay.
//!
//! A span records one call into a layer: its name, start and end (ns since
//! the tracer started), the span that caused it, and the request it belongs
//! to. Spans stay in memory and are written out once, when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration in nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Calls, total time and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_time((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// The spans as one JSON document: `[name, start_ns, end_ns, parent,
    /// request]` rows, `parent` -1 for a root.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"columns\": \
             [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"], \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {parent}, {}]{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of a span over `[start, end)`: its duration minus the union of
/// its children's intervals, each clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30)]), 80);
        // Overlapping children count once; a child running past the end of
        // its parent is clipped.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 50), (90, 120)]), 50);
        // Nested and out-of-range children.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30), (150, 160)]), 50);
        assert_eq!(self_time((0, 100), &[(0, 100), (5, 6)]), 0);
    }

    #[test]
    fn layer_totals_attribute_self_time_per_name() {
        let mut t = Tracer::new();
        let root = t.record("request", None, 1, 0, 1_000);
        t.record("prepare", Some(root), 1, 100, 400);
        let run = t.record("exec.run", Some(root), 1, 400, 900);
        t.record("exec.enumerate", Some(run), 1, 500, 900);
        let totals = t.layer_totals();
        assert_eq!(totals["request"].self_ns, 200);
        assert_eq!(totals["request"].total_ns, 1_000);
        assert_eq!(totals["prepare"].self_ns, 300);
        assert_eq!(totals["exec.run"].self_ns, 100);
        assert_eq!(totals["exec.enumerate"].self_ns, 400);
        let sum: u64 = totals.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 1_000, "self times partition the root span");
        assert!(t
            .to_json("w", 1)
            .contains("[\"exec.run\", 400, 900, 0, 1],"));
    }
}
