//! In-memory tracing for the traced run: spans at layer boundaries, and
//! per-layer call counters with busy time for calls too frequent to span.
//!
//! Spans carry a name, start and end (nanoseconds since the tracer was
//! created) and the id of the span that caused them. They are kept in
//! memory and written out as JSON lines when the benchmark ends. Hot calls
//! (a spec check per explored node, a menu query per failure-detector
//! step) are aggregated into a [`Stat`] instead, so the trace stays small.
//!
//! The wrappers here implement the explorer's trait objects by delegation,
//! so a wrapped configuration explores exactly the nodes the plain one
//! does; the traced run checks that.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use upsilon_check::{AlgoFactory, CheckConfig, FdMenu, RunSpec};
use upsilon_sim::{FdValue, ProcessId, Run};

/// Calls into one layer function: how many, and the time spent inside.
#[derive(Default, Debug)]
pub struct Stat {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Stat {
    /// Times `f` and adds one call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed().as_nanos() as u64);
        out
    }

    /// Adds one call of `ns` nanoseconds.
    pub fn add(&self, ns: u64) {
        // Statistics only: they publish no other data.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, nanoseconds)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Calls and busy nanoseconds of the wrapped spec, menu and factory so far.
#[derive(Clone, Copy, Debug)]
pub struct Busy([(u64, u64); 3]);

impl Busy {
    /// The wrapped calls made since `before`, as round figures.
    pub fn figures_since(&self, before: &Busy) -> [(&'static str, f64); 6] {
        let d = |i: usize| {
            (
                (self.0[i].0 - before.0[i].0) as f64,
                (self.0[i].1 - before.0[i].1) as f64 * 1e-9,
            )
        };
        let (spec, menu, algos) = (d(0), d(1), d(2));
        [
            ("spec_calls", spec.0),
            ("spec_s", spec.1),
            ("menu_calls", menu.0),
            ("menu_s", menu.1),
            ("world_builds", algos.0),
            ("world_build_s", algos.1),
        ]
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// The innermost open span on this thread: the parent of the next one.
    static OPEN: Cell<Option<u32>> = const { Cell::new(None) };
}

/// The traced run's recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// The specs' `check` calls, all specs together.
    pub spec: Stat,
    /// Per-spec `check` calls, by spec name.
    specs: Mutex<Vec<(String, Arc<Stat>)>>,
    /// `FdMenu::candidates` calls.
    pub menu: Stat,
    /// Algorithm-factory calls: one per fresh world or session restore.
    pub algos: Stat,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            spec: Stat::default(),
            specs: Mutex::new(Vec::new()),
            menu: Stat::default(),
            algos: Stat::default(),
        }
    }

    /// Runs `f` inside a span named `name`, parented to the innermost span
    /// open on this thread, and returns `f`'s result with the span's
    /// duration in seconds.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.replace(Some(id)));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|o| o.set(parent));
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span log lock").push(span);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// The counter of the spec named `name`, created on first use.
    fn spec_stat(&self, name: &str) -> Arc<Stat> {
        let mut specs = self.specs.lock().expect("spec stat lock");
        if let Some((_, s)) = specs.iter().find(|(n, _)| n == name) {
            return Arc::clone(s);
        }
        let s = Arc::new(Stat::default());
        specs.push((name.to_string(), Arc::clone(&s)));
        s
    }

    /// The wrapped layers' totals so far.
    pub fn busy(&self) -> Busy {
        Busy([self.spec.read(), self.menu.read(), self.algos.read()])
    }

    /// `(calls, ns)` of the spec named `name` (zero if never wrapped).
    pub fn spec_read(&self, name: &str) -> (u64, u64) {
        let specs = self.specs.lock().expect("spec stat lock");
        specs
            .iter()
            .find(|(n, _)| n == name)
            .map_or((0, 0), |(_, s)| s.read())
    }

    /// The recorded spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// A copy of `cfg` whose specs, menu and algorithm factory delegate to
    /// the originals through timed wrappers.
    pub fn wrap<D: FdValue>(self: &Arc<Self>, cfg: &CheckConfig<D>) -> CheckConfig<D> {
        let mut out = cfg.clone();
        out.specs = cfg
            .specs
            .iter()
            .map(|s| {
                let wrapped: Arc<dyn RunSpec<D>> = Arc::new(TimedSpec {
                    stat: self.spec_stat(s.name()),
                    inner: Arc::clone(s),
                    tracer: Arc::clone(self),
                });
                wrapped
            })
            .collect();
        out.menu = Arc::new(TimedMenu {
            inner: Arc::clone(&cfg.menu),
            tracer: Arc::clone(self),
        });
        let inner = Arc::clone(&cfg.algos);
        let tracer = Arc::clone(self);
        let algos: AlgoFactory<D> = Arc::new(move || tracer.algos.time(|| inner()));
        out.algos = algos;
        out
    }
}

struct TimedSpec<D: FdValue> {
    inner: Arc<dyn RunSpec<D>>,
    stat: Arc<Stat>,
    tracer: Arc<Tracer>,
}

impl<D: FdValue> RunSpec<D> for TimedSpec<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&self, run: &Run<D>) -> Result<(), String> {
        let start = Instant::now();
        let out = self.inner.check(run);
        let ns = start.elapsed().as_nanos() as u64;
        self.stat.add(ns);
        self.tracer.spec.add(ns);
        out
    }
}

struct TimedMenu<D: FdValue> {
    inner: Arc<dyn FdMenu<D>>,
    tracer: Arc<Tracer>,
}

impl<D: FdValue> FdMenu<D> for TimedMenu<D> {
    fn candidates(&self, p: ProcessId, k: usize) -> Vec<D> {
        self.tracer.menu.time(|| self.inner.candidates(p, k))
    }
}

/// Counts the scheduler steps of every run a spec judges, by delegation;
/// the untraced runs use it where the layer reports no step count of its
/// own. One relaxed add per judged run.
pub struct StepCount<D: FdValue> {
    inner: Arc<dyn RunSpec<D>>,
    steps: Arc<AtomicU64>,
    runs: Arc<AtomicU64>,
}

/// Wraps the first spec of `cfg` in a [`StepCount`]; returns the counters
/// `(steps, runs)`.
pub fn count_steps<D: FdValue>(cfg: &mut CheckConfig<D>) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
    let steps = Arc::new(AtomicU64::new(0));
    let runs = Arc::new(AtomicU64::new(0));
    if let Some(first) = cfg.specs.first_mut() {
        *first = Arc::new(StepCount {
            inner: Arc::clone(first),
            steps: Arc::clone(&steps),
            runs: Arc::clone(&runs),
        });
    }
    (steps, runs)
}

impl<D: FdValue> RunSpec<D> for StepCount<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn check(&self, run: &Run<D>) -> Result<(), String> {
        self.steps.fetch_add(run.total_steps(), Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.check(run)
    }
}
