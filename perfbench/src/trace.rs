//! In-memory span tracer of the traced run.
//!
//! A span wraps one call into a layer's public function and records its
//! name, start, end, parent span and op id. Spans stay in memory until
//! the run ends; [`Tracer::write_jsonl`] then writes them out. A layer's
//! self time is a span's duration minus the time its child spans cover.
//!
//! A disabled tracer runs the wrapped closure and records nothing, so
//! the untraced run goes through the same code.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer call name, e.g. `core.assembly_seq`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl SpanRecord {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_epoch(enabled, Instant::now())
    }

    /// A tracer sharing `epoch` with others (one per client thread), so
    /// their spans line up on one clock when merged.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, op: 0, stack: Vec::new(), spans: Vec::new() }
    }

    /// Turns recording on or off between ops.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(SpanRecord { name, start_ns: 0, end_ns: 0, parent, op: self.op });
        self.stack.push(index);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        let rec = &mut self.spans[index];
        rec.start_ns = start;
        rec.end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Appends another tracer's spans (a client thread's), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// union of its direct children's intervals.
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
                let mut covered = 0u64;
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

    /// Self time of every call, in seconds, per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(own as f64 * 1e-9);
        }
        out
    }

    /// For every root span named `op`: the share of its duration that its
    /// child layer spans cover.
    pub fn op_coverage(&self) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.parent.is_none() && s.name == "op")
            .map(|(s, own)| 1.0 - own as f64 / s.duration_ns().max(1) as f64)
            .collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any error of `w`.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    fn tracer_of(spans: Vec<SpanRecord>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // op [0, 100) ⊃ a [10, 40) ⊃ a.inner [15, 25); op ⊃ b [50, 90).
        let t = tracer_of(vec![
            rec("op", 0, 100, None),
            rec("a", 10, 40, Some(0)),
            rec("a.inner", 15, 25, Some(1)),
            rec("b", 50, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 20, 10, 40]);
        assert_eq!(t.op_coverage(), vec![0.7]);
        let layers = t.layers();
        assert_eq!(layers["a"].len(), 1);
        assert!((layers["op"][0] - 30e-9).abs() < 1e-18);
    }

    #[test]
    fn overlapping_children_count_once() {
        let t = tracer_of(vec![
            rec("op", 0, 100, None),
            rec("x", 10, 60, Some(0)),
            rec("y", 40, 80, Some(0)),
            rec("z", 90, 120, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 100 - 70 - 10);
    }

    #[test]
    fn spans_record_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("outer", |t| t.span("inner", |_| 5));
        assert_eq!(v, 5);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = t.self_times_ns();
        assert_eq!(own[0], s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = tracer_of(vec![rec("op", 0, 10, None)]);
        let b = tracer_of(vec![rec("op", 0, 10, None), rec("c", 1, 2, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut buf = Vec::new();
        a.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }
}
