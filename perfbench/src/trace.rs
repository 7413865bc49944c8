//! Spans around the calls the benchmark makes into each layer.
//!
//! Workload code is generic over [`Probe`]: the untraced run uses
//! [`NoProbe`], whose methods compile to nothing, and the traced run uses
//! [`Tracer`], which records one [`Span`] per call (name, start, end, the
//! enclosing span that caused it, and the run id). A run's spans stay in
//! memory until the run ends; they are then folded into per-name duration
//! histograms and per-layer self times, and the first run's spans are kept
//! for writing out.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::Hist;

/// Sentinel parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// The spans of the first run written out at most (bounds the file).
const KEEP_SPANS: usize = 100_000;

/// Instrumentation hooks around one call into a layer.
pub trait Probe {
    /// Whether spans are recorded (lets callers skip work only a trace
    /// needs).
    const TRACED: bool;

    /// Opens a span; returns its handle.
    fn enter(&mut self) -> u32;

    /// Closes the span `id` opened by [`Probe::enter`] and names it.
    fn leave(&mut self, id: u32, name: &'static str);

    /// Marks the start (`true`) or end (`false`) of a timed phase. Shares
    /// are taken over timed-phase time; spans outside it (post-phase
    /// replays) still feed the duration histograms.
    fn timed(&mut self, on: bool);

    /// Starts run (round) `run`: subsequent spans carry its id.
    fn begin_run(&mut self, _run: u32) {}

    /// Ends the current run.
    fn end_run(&mut self) {}

    /// Runs `f` inside a span named `name`.
    #[inline(always)]
    fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter();
        let r = f();
        self.leave(id, name);
        r
    }
}

/// The untraced probe: every hook is a no-op.
#[derive(Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const TRACED: bool = false;

    #[inline(always)]
    fn enter(&mut self) -> u32 {
        0
    }

    #[inline(always)]
    fn leave(&mut self, _id: u32, _name: &'static str) {}

    #[inline(always)]
    fn timed(&mut self, _on: bool) {}
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span name, `layer.what`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span within the run, or [`NO_PARENT`].
    pub parent: u32,
    /// The run (round) the span belongs to.
    pub run: u32,
    /// Whether it was recorded inside a timed phase.
    pub timed: bool,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `children` (intervals are clipped to the parent; overlaps count once).
pub fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| (s.end - s.start) - covered(s.start, s.end, c))
        .collect()
}

/// The recording probe.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    run: u32,
    timed: bool,
    window_start: u64,
    /// Duration histogram per span name (all spans, every run).
    pub durations: BTreeMap<&'static str, Hist>,
    /// Inclusive time per span name, timed-phase spans only.
    pub timed_total: BTreeMap<&'static str, u64>,
    /// Self time per layer, timed-phase spans only.
    pub layer_self: BTreeMap<&'static str, u64>,
    /// Timed-phase time across all runs.
    pub timed_ns: u64,
    kept: Vec<(Span, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            timed: false,
            window_start: 0,
            durations: BTreeMap::new(),
            timed_total: BTreeMap::new(),
            layer_self: BTreeMap::new(),
            timed_ns: 0,
            kept: Vec::new(),
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes the kept spans as CSV.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "run,id,parent,name,start_ns,end_ns,self_ns,timed")?;
        for (i, (s, own)) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.run, i, parent, s.name, s.start, s.end, own, s.timed as u8
            )?;
        }
        Ok(())
    }
}

impl Probe for Tracer {
    const TRACED: bool = true;

    #[inline(always)]
    fn enter(&mut self) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name: "",
            start,
            end: start,
            parent,
            run: self.run,
            timed: self.timed,
        });
        self.stack.push(id);
        id
    }

    #[inline(always)]
    fn leave(&mut self, id: u32, name: &'static str) {
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        let s = &mut self.spans[id as usize];
        s.end = end;
        s.name = name;
    }

    fn begin_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Folds the run's spans into the aggregates and keeps the first
    /// run's spans for [`Tracer::write_csv`].
    fn end_run(&mut self) {
        assert!(self.stack.is_empty(), "a span is still open at run end");
        let selfs = self_times(&self.spans);
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let dur = s.end - s.start;
            self.durations.entry(s.name).or_default().record(dur);
            if s.timed {
                *self.timed_total.entry(s.name).or_default() += dur;
                *self.layer_self.entry(s.layer()).or_default() += own;
            }
        }
        if self.kept.is_empty() {
            self.kept = self
                .spans
                .iter()
                .copied()
                .zip(selfs)
                .take(KEEP_SPANS)
                .collect();
        }
        self.spans.clear();
    }

    fn timed(&mut self, on: bool) {
        let now = self.now();
        if on {
            self.window_start = now;
        } else if self.timed {
            self.timed_ns += now - self.window_start;
        }
        self.timed = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(covered(0, 100, &mut [(10, 20), (50, 70)]), 30);
        // Overlapping children count once.
        assert_eq!(covered(0, 100, &mut [(10, 40), (30, 60)]), 50);
        // Nested and unsorted.
        assert_eq!(covered(0, 100, &mut [(30, 35), (20, 60), (25, 30)]), 40);
        // Children poking out of the parent are clipped.
        assert_eq!(covered(10, 50, &mut [(0, 20), (45, 90)]), 15);
        assert_eq!(covered(0, 10, &mut []), 0);

        let span = |start, end, parent| Span {
            name: "kernel.x",
            start,
            end,
            parent,
            run: 0,
            timed: true,
        };
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 40, 0),
            span(30, 60, 0),
            span(35, 38, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 27, 3]);
    }

    #[test]
    fn tracer_nests_spans_and_splits_self_time_by_layer() {
        let mut t = Tracer::new();
        t.begin_run(0);
        t.timed(true);
        t.call("modelcheck.transition", || {
            let _ = t_noop();
        });
        t.timed(false);
        t.end_run();
        assert_eq!(t.durations["modelcheck.transition"].count(), 1);
        assert!(t.timed_ns > 0);

        let mut t = Tracer::new();
        t.begin_run(3);
        t.timed(true);
        let outer = t.enter();
        let inner = t.enter();
        t.leave(inner, "fault.apply");
        t.leave(outer, "modelcheck.transition");
        t.timed(false);
        let spans = t.spans.clone();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.run == 3 && s.timed));
        t.end_run();
        let inner_ns = spans[1].end - spans[1].start;
        assert_eq!(t.layer_self["fault"], inner_ns);
        assert_eq!(
            t.layer_self["modelcheck"],
            spans[0].end - spans[0].start - inner_ns
        );
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains(",0,fault.apply,"));
    }

    fn t_noop() -> u64 {
        std::hint::black_box(1)
    }
}
