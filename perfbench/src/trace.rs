//! In-memory span recorder for the traced run.
//!
//! One span is recorded around each timed call the benchmark makes into a
//! layer of the program: its name, start and end, the span that caused it
//! and an id shared by every span of one request or chunk. Nothing is
//! recorded inside the program. Spans are kept in memory and written out
//! once, after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which part of a traced run a span belongs to: the workload's own loop,
/// or the short fixed probe of a layer the workload does not exercise.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Segment {
    Main,
    Probe,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub segment: Segment,
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call covered (lanes, requests); 1 when not counted.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the calls, so
/// the untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    /// Trace every other round, so that the cost of tracing is measured
    /// against untraced rounds of the same run.
    alternate: bool,
    epoch: Instant,
    segment: Segment,
    spans: Vec<Span>,
}

/// An open span, closed by [`Tracer::close`].
#[derive(Copy, Clone)]
pub struct Open {
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            alternate: false,
            epoch: Instant::now(),
            segment: Segment::Main,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn set_alternate(&mut self, alternate: bool) {
        self.alternate = alternate;
    }

    /// Called at the start of each round of a workload; returns whether
    /// the round is traced.
    pub fn start_round(&mut self, round: usize) -> bool {
        if self.alternate {
            self.enabled = round % 2 == 1;
        }
        self.enabled
    }

    pub fn set_segment(&mut self, segment: Segment) {
        self.segment = segment;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; its end is stamped by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, trace_id: u64, parent: Open) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            segment: self.segment,
            trace_id,
            parent: parent.index,
            start_ns,
            end_ns: start_ns,
            items: 1,
        });
        Open {
            index: Some(self.spans.len() - 1),
        }
    }

    pub fn close(&mut self, open: Open, items: u64) {
        if let Some(i) = open.index {
            let end = self.now_ns();
            let span = &mut self.spans[i];
            span.end_ns = end;
            span.items = items;
        }
    }

    /// Records a span with given bounds (for timings the benchmark already
    /// took, such as a client-side request measured across two calls).
    pub fn record(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Open,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            segment: self.segment,
            trace_id,
            parent: parent.index,
            start_ns: ns(start),
            end_ns: ns(end),
            items,
        });
        Open {
            index: Some(self.spans.len() - 1),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Open,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, trace_id, parent);
        let out = f();
        self.close(open, items);
        out
    }

    /// Self time of each span: its duration minus the part of it that its
    /// children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, total and self time in milliseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let e = out.entry(s.name).or_insert((0u64, 0.0f64, 0.0f64));
            e.0 += 1;
            e.1 += s.duration_ns() as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"segment\":\"{}\",\"trace_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"items\":{}}}",
                s.name,
                if s.segment == Segment::Main { "main" } else { "probe" },
                s.trace_id,
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        out.flush()
    }
}

pub const ROOT: Open = Open { index: None };

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", 0, ROOT, at(0), at(10), 1);
        t.record("a", 0, root, at(1), at(4), 1);
        t.record("b", 0, root, at(3), at(6), 1);
        t.record("c", 0, root, at(8), at(12), 1);
        let self_ns = t.self_times_ns();
        // Children cover 1..6 and 8..10 of the root's 0..10.
        assert_eq!(self_ns[0], 3_000_000);
        assert_eq!(self_ns[1], 3_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 0, ROOT, 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
