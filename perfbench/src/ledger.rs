//! Spans around calls into a layer, and the ledger arithmetic over them.
//!
//! A span is named `<layer>.<op>` (`sim.stepper.step`,
//! `probe.checkpoint.write`, …); its layer is the name up to the last
//! dot. Spans are kept in memory while the traced run executes and are
//! written out once it ends.
//!
//! Self time follows the usual definition — a span's duration minus the
//! part its child spans cover — extended to children that run on
//! several threads at once: every instant of the traced wall time is
//! split evenly among the innermost spans open at that instant. On one
//! thread that is exactly duration minus children; across threads the
//! per-span self times still add up to the wall time, so the ledger
//! (layer self times plus the root's own, unattributed, time) balances.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Which traced run (repetition or pass) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span name belongs to: everything before the last dot.
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// Layer of a span name (`sim.binio.pull` → `sim.binio`).
pub fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Records spans on one thread. Worker threads [`fork`](Tracer::fork) a
/// tracer whose top-level spans hang under the span open at the fork,
/// and the parent [`absorb`](Tracer::absorb)s it after the join.
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Parent, in the forking tracer's list, of this tracer's top-level
    /// spans (stored as `None` until [`absorb`](Tracer::absorb)).
    fork_parent: Option<usize>,
}

impl Tracer {
    /// A tracer for run `run`, timing from `epoch`.
    pub fn new(epoch: Instant, run: u32) -> Self {
        Tracer {
            epoch,
            run,
            spans: Vec::new(),
            open: Vec::new(),
            fork_parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start run `run`: later spans carry that run id.
    pub fn set_run(&mut self, run: u32) {
        assert!(self.open.is_empty(), "a run starts outside every span");
        self.run = run;
    }

    /// Open a span; close it with [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record a child of the closed span `parent` covering its first `ns`
    /// nanoseconds. For work interleaved call by call with the parent's
    /// own, whose total comes from per-call timing rather than from a
    /// span of its own.
    pub fn add_child(&mut self, parent: usize, name: &'static str, ns: u64) {
        let p = &self.spans[parent];
        let (start_ns, run) = (p.start_ns, p.run);
        let end_ns = (start_ns + ns).min(p.end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            run,
        });
    }

    /// A tracer for a worker thread: same epoch and run, its top-level
    /// spans children of the span open here.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            run: self.run,
            spans: Vec::new(),
            open: Vec::new(),
            fork_parent: self.open.last().copied(),
        }
    }

    /// Append a forked tracer's spans, renumbering their parents.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => other.fork_parent,
            };
            self.spans.push(s);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines: name, layer, start, end, parent,
    /// run.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds (see the module docs for how
/// time under parallel children is split).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    // Events: (time, is_start, span). Ends sort before starts at the same
    // instant so back-to-back spans never look open together.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns > s.start_ns {
            events.push((s.start_ns, true, i));
            events.push((s.end_ns, false, i));
        }
    }
    events.sort_unstable_by_key(|&(t, start, i)| (t, start, i));

    let mut open_children = vec![0usize; spans.len()];
    let mut is_open = vec![false; spans.len()];
    // Innermost open spans: open, with no open child.
    let mut innermost: Vec<usize> = Vec::new();
    let mut out = vec![0.0f64; spans.len()];
    let mut last_t = events.first().map_or(0, |e| e.0);
    for (t, start, i) in events {
        if t > last_t && !innermost.is_empty() {
            let share = (t - last_t) as f64 / innermost.len() as f64;
            for &j in &innermost {
                out[j] += share;
            }
        }
        last_t = t;
        let parent = spans[i].parent.filter(|&p| is_open[p]);
        if start {
            is_open[i] = true;
            if let Some(p) = parent {
                open_children[p] += 1;
                if open_children[p] == 1 {
                    innermost.retain(|&j| j != p);
                }
            }
            if open_children[i] == 0 {
                innermost.push(i);
            }
        } else {
            is_open[i] = false;
            innermost.retain(|&j| j != i);
            if let Some(p) = parent {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    innermost.push(p);
                }
            }
        }
    }
    out
}

/// Per-layer totals of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Duration of the run's root span, ns.
    pub wall_ns: f64,
    /// Self time per layer, ns, root excluded.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Self time of the root span itself: time inside no layer call.
    pub unattributed_ns: f64,
}

impl Ledger {
    /// Self time of `layer`, ns (0 when the layer never ran).
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0.0)
    }

    /// `layer`'s share of the traced wall time.
    pub fn share(&self, layer: &str) -> f64 {
        self.layer_ns(layer) / self.wall_ns
    }

    /// 1 − Σ layer self time ÷ traced wall time.
    pub fn unattributed_share(&self) -> f64 {
        1.0 - self.self_ns.values().sum::<f64>() / self.wall_ns
    }
}

/// The ledger of the subtree rooted at span `root`.
pub fn ledger(spans: &[Span], root: usize) -> Ledger {
    let inside = subtree(spans, root);
    let selfs = self_times(spans);
    let mut led = Ledger {
        wall_ns: spans[root].duration_ns() as f64,
        unattributed_ns: selfs[root],
        ..Ledger::default()
    };
    for (i, s) in spans.iter().enumerate() {
        if inside[i] && i != root {
            *led.self_ns.entry(s.layer()).or_insert(0.0) += selfs[i];
        }
    }
    led
}

/// Which spans lie in the subtree of `root` (root included).
fn subtree(spans: &[Span], root: usize) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    // Parents precede children in a tracer's list, and absorbed worker
    // spans come after the span they hang under, so one forward pass
    // settles membership.
    for i in 0..spans.len() {
        if let Some(p) = spans[i].parent {
            if inside[p] {
                inside[i] = true;
            }
        }
    }
    inside
}

/// Total duration of the spans named `name` under `root`, ns, and how
/// many there were.
pub fn total_ns(spans: &[Span], root: usize, name: &str) -> (u64, u64) {
    let inside = subtree(spans, root);
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| inside[*i] && s.name == name)
        .fold((0, 0), |(ns, n), (_, s)| (ns + s.duration_ns(), n + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    /// cli.run [0, 100)
    /// ├── sim.binio.pull [10, 30)
    /// ├── sim.stepper.step [30, 70)
    /// │   └── probe.timeseries.roll [40, 50)
    /// └── probe.checkpoint.write [80, 95)
    ///     ├── probe.checkpoint.encode [80, 85)
    ///     └── probe.checkpoint.encode [88, 90)
    fn tree() -> Vec<Span> {
        vec![
            span("cli.run", 0, 100, None),
            span("sim.binio.pull", 10, 30, Some(0)),
            span("sim.stepper.step", 30, 70, Some(0)),
            span("probe.timeseries.roll", 40, 50, Some(2)),
            span("probe.checkpoint.write", 80, 95, Some(0)),
            span("probe.checkpoint.encode", 80, 85, Some(4)),
            span("probe.checkpoint.encode", 88, 90, Some(4)),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let selfs = self_times(&tree());
        // root: 100 − (20 + 40 + 15)
        assert_eq!(selfs, vec![25.0, 20.0, 30.0, 10.0, 8.0, 5.0, 2.0]);
        let spans = tree();
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(selfs[i], (s.duration_ns() - children) as f64, "span {i}");
        }
    }

    #[test]
    fn ledger_sums_layers_and_balances() {
        let led = ledger(&tree(), 0);
        assert_eq!(led.wall_ns, 100.0);
        assert_eq!(led.unattributed_ns, 25.0);
        assert_eq!(led.layer_ns("sim.binio"), 20.0);
        assert_eq!(led.layer_ns("sim.stepper"), 30.0);
        assert_eq!(led.layer_ns("probe.timeseries"), 10.0);
        // write (8) + two encodes (5 + 2).
        assert_eq!(led.layer_ns("probe.checkpoint"), 15.0);
        assert_eq!(led.layer_ns("workloads.streaming"), 0.0);
        assert!((led.unattributed_share() - 0.25).abs() < 1e-12);
        let total: f64 = led.self_ns.values().sum::<f64>() + led.unattributed_ns;
        assert_eq!(total, led.wall_ns);
        assert!((led.share("sim.stepper") - 0.30).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_split_the_wall_time() {
        // Two workers under one run span: [10, 60) and [20, 80).
        let spans = vec![
            span("cli.run", 0, 100, None),
            span("sim.concurrent.run", 0, 90, Some(0)),
            span("sim.concurrent.serve", 10, 60, Some(1)),
            span("workloads.streaming.pull", 20, 80, Some(1)),
        ];
        let selfs = self_times(&spans);
        // [0,10) run alone, [10,20) serve alone, [20,60) shared, [60,80)
        // pull alone, [80,90) run alone, [90,100) root alone.
        assert_eq!(selfs, vec![10.0, 20.0, 30.0, 40.0]);
        let led = ledger(&spans, 0);
        assert_eq!(
            led.self_ns.values().sum::<f64>() + led.unattributed_ns,
            100.0
        );
        assert!((led.unattributed_share() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn ledger_is_scoped_to_one_root() {
        let mut spans = tree();
        let base = spans.len();
        spans.push(span("cli.run", 200, 260, None));
        spans.push(span("sim.stepper.step", 210, 250, Some(base)));
        let first = ledger(&spans, 0);
        assert_eq!(first.layer_ns("sim.stepper"), 30.0);
        let second = ledger(&spans, base);
        assert_eq!(second.wall_ns, 60.0);
        assert_eq!(second.layer_ns("sim.stepper"), 40.0);
        assert_eq!(second.unattributed_ns, 20.0);
        assert_eq!(total_ns(&spans, 0, "probe.checkpoint.encode"), (7, 2));
        assert_eq!(total_ns(&spans, base, "probe.checkpoint.encode"), (0, 0));
    }

    #[test]
    fn forked_tracers_hang_under_the_fork_point() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, 3);
        main.enter("cli.run");
        let run = main.enter("sim.concurrent.run");
        let mut worker = main.fork();
        worker.time("sim.concurrent.serve", || {});
        worker.enter("workloads.streaming.pull");
        worker.time("sim.concurrent.serve", || {});
        worker.exit();
        main.absorb(worker);
        main.exit();
        main.exit();
        let spans = main.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(run));
        assert_eq!(spans[3].parent, Some(run));
        assert_eq!(spans[4].parent, Some(3));
        assert!(spans.iter().all(|s| s.run == 3));
        let mut text = Vec::new();
        main.write_jsonl(&mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 5);
    }

    #[test]
    fn layer_names_strip_the_operation() {
        assert_eq!(layer_of("sim.binio.pull"), "sim.binio");
        assert_eq!(layer_of("workloads.streaming.pull"), "workloads.streaming");
        assert_eq!(layer_of("cli.run"), "cli");
        assert_eq!(layer_of("cli"), "cli");
    }
}
