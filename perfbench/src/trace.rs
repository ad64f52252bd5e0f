//! In-memory span recording for the traced run. Spans are kept in a
//! vector while the run works and written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the log was created.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Batch or request id; spans of one batch or request share it.
    pub id: u64,
}

/// Per-name totals over a log.
#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    /// Duration minus the time child spans cover, summed.
    pub self_ns: u64,
}

pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, id)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(name, start, end, parent, id);
        r
    }

    /// Each span's self time: its duration minus the union of its
    /// children's intervals (clipped to the span).
    fn self_times(&self) -> Vec<u64> {
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
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Count and summed self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let root = log.record("root", 0, 100, None, 1);
        log.record("a", 10, 30, Some(root), 1);
        log.record("b", 20, 40, Some(root), 1);
        log.record("c", 90, 120, Some(root), 1);
        let totals = log.totals();
        // Children cover 10..40 and 90..100 of the root: 40 ns.
        assert_eq!(totals["root"].self_ns, 60);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["c"].count, 1);
    }
}
