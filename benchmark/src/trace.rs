//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions. The engine has no spans of its own yet, so
//! every span here is timed from outside: it starts just before the
//! benchmark calls a public function and ends when the call returns.
//!
//! Spans and counts go into buffers allocated before the measured work
//! starts and are written out once, when the run ends. A disabled tracer
//! costs one branch per call site, so the same workload code serves the
//! untraced (end-to-end) and traced (per-layer) runs.

use crate::stats;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the module the call enters.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The iteration (or round, or cycle) the span belongs to: spans of
    /// one edit→report request share it.
    pub iteration: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A count recorded at the call site where the work happened.
#[derive(Debug, Clone)]
struct Count {
    name: &'static str,
    value: f64,
    span: u32,
    iteration: u32,
}

/// Span and count buffers for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<u32>,
    iteration: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// A recording tracer with room for `capacity` spans, so the measured
    /// work never waits on a buffer growing.
    pub fn on(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            counts: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            iteration: 0,
        }
    }

    /// A tracer for another thread of the same run: same switch and
    /// epoch, its own buffers. Fold it back with [`Tracer::absorb`].
    pub fn fork(&self, capacity: usize) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::with_capacity(if self.on { capacity } else { 0 }),
            counts: Vec::with_capacity(if self.on { capacity } else { 0 }),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Sets the iteration id stamped on the spans that follow.
    pub fn set_iteration(&mut self, id: usize) {
        self.iteration = id as u32;
    }

    /// Opens a span named `name`, nested under whatever span is open on
    /// this tracer; close it with [`Tracer::exit`]. Spans close in the
    /// reverse of the order they opened.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            iteration: self.iteration,
        });
        self.open.push(id);
        id
    }

    /// Closes the span [`Tracer::enter`] returned.
    pub fn exit(&mut self, id: u32) {
        if self.on {
            let now = self.epoch.elapsed().as_nanos() as u64;
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    /// Records a count against the open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push(Count {
                name,
                value,
                span: self.open.last().copied().unwrap_or(NO_PARENT),
                iteration: self.iteration,
            });
        }
    }

    /// Folds a forked tracer's records in; its top-level spans become
    /// children of the span open here.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let adopt = self.open.last().copied().unwrap_or(NO_PARENT);
        let rebase = |index: u32| {
            if index == NO_PARENT {
                adopt
            } else {
                index + offset
            }
        };
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: rebase(s.parent),
            ..s
        }));
        self.counts.extend(other.counts.into_iter().map(|c| Count {
            span: rebase(c.span),
            ..c
        }));
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds of the spans named `name`; 0 when
    /// the workload never enters that layer.
    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.durations_us(name)).unwrap_or(0.0)
    }

    /// Summed value of the counts named `name`.
    pub fn count_sum(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Per-name `(spans, total seconds, self seconds)`, sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self_times_ns(&self.spans);
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            Default::default();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total as f64 / 1e9, own as f64 / 1e9))
            .collect()
    }

    /// Writes one JSON object per line: every span (with its self time),
    /// then every count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times_ns(&self.spans);
        let parent = |p: u32| {
            if p == NO_PARENT {
                "null".to_string()
            } else {
                p.to_string()
            }
        };
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                out,
                r#"{{"span":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"iteration_id":{},"self_ns":{self_ns}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                parent(s.parent),
                s.iteration
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                r#"{{"count":"{}","value":{},"span":{},"iteration_id":{}}}"#,
                c.name,
                c.value,
                parent(c.span),
                c.iteration
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children are clipped to the parent and
/// overlapping children (two client threads under one pass) are counted
/// once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(siblings) = children.get_mut(span.parent as usize) {
            siblings.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("iteration", 0, 100, NO_PARENT),
            span("workflow.build", 10, 30, 0),
            span("engine.run", 30, 90, 0),
            span("store.get", 40, 50, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span("pass", 100, 200, NO_PARENT),
            span("client", 110, 160, 0),
            span("client", 140, 190, 0),
            // Ends after its parent: only the part inside counts.
            span("client", 195, 250, 0),
        ];
        // Covered: [110,190) ∪ [195,200) = 85 of 100.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn scopes_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::on(8);
        t.set_iteration(3);
        let outer = t.enter("iteration");
        let got = t.scope("engine.run", || 7);
        t.count("nodes.loaded", 4.0);
        t.exit(outer);
        assert_eq!(got, 7);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].iteration, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.count_sum("nodes.loaded"), 4.0);
        assert_eq!(t.counts[0].span, 0);

        let mut off = Tracer::off();
        let outer = off.enter("iteration");
        assert_eq!(off.scope("engine.run", || 1), 1);
        off.exit(outer);
        off.count("nodes.loaded", 1.0);
        assert_eq!(off.span_count(), 0);
        assert_eq!(off.count_sum("nodes.loaded"), 0.0);
        assert_eq!(off.median_us("engine.run"), 0.0);
    }

    #[test]
    fn absorb_reparents_forked_spans_under_the_open_span() {
        let mut main = Tracer::on(8);
        let pass = main.enter("pass");
        let mut fork = main.fork(8);
        let cycle = fork.enter("cycle");
        fork.scope("http.iterate", || ());
        fork.exit(cycle);
        main.absorb(fork);
        main.exit(pass);
        let parents: Vec<u32> = main.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1]);
        assert_eq!(main.summary().len(), 3);
    }
}
