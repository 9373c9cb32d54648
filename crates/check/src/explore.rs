//! The systematic explorer: sleep-set DPOR over schedules, layered with
//! exhaustive crash injection and failure-detector output branching.
//!
//! # State space
//!
//! A node of the search tree is a *path*: a sequence of [`Choice`]s —
//! `Step(p)` grants one step to `p`, `Crash(p)` crashes `p` at the current
//! point of the schedule — together with a per-process script of
//! failure-detector candidate picks. Every node is executed from scratch
//! through [`SimBuilder`] with a [`Scripted`](upsilon_sim::Scripted)
//! adversary (stateless model checking), checked against the §3.3
//! run-condition validator and every configured [`RunSpec`], and then
//! expanded.
//!
//! # Partial-order reduction
//!
//! Two steps are *dependent* iff they touch the same shared object (by
//! [`Key`], not allocation order) with conflicting [`Access`]es — reads
//! commute with reads, single-writer cell updates commute across distinct
//! cells, everything else conflicts. Query/output/no-op steps are globally
//! independent: detector values are scripted per `(p, k)` so they do not
//! depend on placement. The explorer keeps a *sleep set* of process/footprint
//! pairs whose subtrees were already explored at an ancestor; a sleeping
//! process is skipped until a conflicting step wakes it. Runs pruned this
//! way are Mazurkiewicz-equivalent to explored ones, so any spec that is
//! *trace-closed* (invariant under commuting independent steps — see
//! `DESIGN.md` §8) loses no violations.
//!
//! # Crash canonicalization
//!
//! Crash choices commute with every other process's steps, and shifting a
//! crash across steps of *other* processes changes neither the event
//! sequence nor `correct(F)`. Each equivalence class therefore has one
//! canonical representative, the only one generated: processes that never
//! step crash in one ascending initial block; a process that steps crashes
//! immediately after its own last step ([`Choice::Crash`] allowed only when
//! the path so far is all-crash-ascending or ends with `Step(p)`).
//!
//! # Counterexamples
//!
//! A violating node is packed into a replayable [`ReplayToken`] (`UCHK1:`),
//! minimized with [`ddmin_counted`] over its choice sequence (re-executing
//! each candidate), and reported with both raw and shrunk tokens.

use crate::menu::{FdMenu, MenuOracle, QueryRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use upsilon_analysis::{RunConditionsSpec, RunSpec};
use upsilon_core::shrink::ddmin_counted;
use upsilon_sim::{
    ops_commute, resolve, run_stealing, Access, AlgoFn, EngineKind, FailurePattern, FdValue, Key,
    Memory, OpSig, ProcessId, ReplayToken, ResolvedOp, Run, Session, SessionSave, SessionStep,
    SimBuilder, StealJob, StealScope, StepKind, Time, TokenError, TraceLevel,
};

/// One scheduling decision of the explorer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Grant one step to the process.
    Step(ProcessId),
    /// Crash the process at the current point of the schedule.
    Crash(ProcessId),
}

/// What one executed step touched, for the conflict relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Footprint {
    /// Query, output or no-op: independent of every other step.
    Local,
    /// A shared-object operation.
    Obj {
        /// The object's stable name.
        key: Key,
        /// How the operation touched it.
        access: Access,
        /// The op's signature resolved against the generated commutativity
        /// matrix (`upsilon_sim::commute`), when the exploration records
        /// signatures and the object type is analyzed. `None` falls back to
        /// the `Access` lattice alone. Shared: resolutions are memoized per
        /// exploration and footprints are cloned into sleep sets freely.
        sig: Option<Arc<ResolvedOp>>,
    },
}

impl Footprint {
    /// Whether two steps with these footprints are dependent (do not
    /// commute).
    ///
    /// The base relation is the `Access` lattice on same-key operations; a
    /// lattice conflict is then *removed* when both sides carry resolved
    /// signatures the per-op-pair matrix proves independent (e.g. two
    /// writes of the same value to one register). The refinement is sound
    /// for sleep sets because every matrix verdict is state-independent:
    /// it holds in all object states, not just the one explored.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        match (self, other) {
            (
                Footprint::Obj {
                    key: k1,
                    access: a1,
                    sig: s1,
                },
                Footprint::Obj {
                    key: k2,
                    access: a2,
                    sig: s2,
                },
            ) => {
                let matrix_commutes = match (s1, s2) {
                    (Some(s1), Some(s2)) => ops_commute(s1, s2),
                    _ => false,
                };
                k1 == k2 && a1.conflicts_with(*a2) && !matrix_commutes
            }
            _ => false,
        }
    }
}

/// An axis outside its range: the axis, named as scenario files name it,
/// and the rule its value broke. Returned by [`CheckConfig::validate`] and
/// [`crate::samples::shape`] so that front ends reject outside input with
/// a message instead of panicking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AxisError {
    /// The offending axis (`n_plus_1`, `max_faults`, `k`, `depth`, …).
    pub axis: &'static str,
    /// The broken rule, with the value that broke it.
    pub rule: String,
}

impl AxisError {
    /// An error on `axis` breaking `rule`.
    pub fn new(axis: &'static str, rule: impl Into<String>) -> Self {
        AxisError {
            axis,
            rule: rule.into(),
        }
    }
}

impl std::fmt::Display for AxisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "axis `{}` {}", self.axis, self.rule)
    }
}

impl std::error::Error for AxisError {}

/// The rule that a count axis is at least 1.
///
/// # Errors
///
/// Returns the [`AxisError`] for `axis` when `value` is zero.
pub fn positive(axis: &'static str, value: u64) -> Result<(), AxisError> {
    if value == 0 {
        return Err(AxisError::new(axis, "must be at least 1, got 0"));
    }
    Ok(())
}

/// Produces the per-process algorithms of one run; called once per explored
/// node (stateless re-execution), so it must be deterministic. `None`
/// entries do not participate.
pub type AlgoFactory<D> = Arc<dyn Fn() -> Vec<Option<AlgoFn<D>>> + Send + Sync>;

/// Configuration of one exploration.
#[derive(Clone)]
pub struct CheckConfig<D: FdValue> {
    /// Number of processes.
    pub n_plus_1: usize,
    /// Maximum schedule length (number of `Step` choices per path).
    pub depth: usize,
    /// Maximum number of injected crashes per path (`< n_plus_1`).
    pub max_faults: usize,
    /// Failure-detector candidates per query.
    pub menu: Arc<dyn FdMenu<D>>,
    /// Specifications checked on every explored run, in order; the §3.3
    /// run-condition validator is always checked first. Specs must be
    /// trace-closed for the reduction to be sound.
    pub specs: Vec<Arc<dyn RunSpec<D>>>,
    /// The algorithms under test.
    pub algos: AlgoFactory<D>,
    /// Sleep-set partial-order reduction; `false` explores the full tree
    /// (the naive baseline benchmarked against).
    pub reduction: bool,
    /// Snapshot-resume execution (on by default): nodes run on an
    /// incremental [`Session`] that saves at every node and rewinds by
    /// fast-forward replay, instead of re-executing each path from the
    /// root. Byte-identical reports either way; automatically falls back
    /// to stateless re-execution under [`EngineKind::Threads`] (thread
    /// state machines cannot be rewound).
    pub turbo: bool,
    /// Refine the conflict relation through the generated per-op-pair
    /// commutativity matrix (`upsilon_sim::commute`), off by default: op
    /// signatures are recorded on every node and lattice conflicts the
    /// matrix proves independent stop waking sleeping processes. `false`
    /// (the default) keeps the coarse `Access` lattice, which prunes just
    /// as much on the paper's Fig. 1 and Fig. 2 configs without rendering
    /// a signature per step.
    pub use_matrix: bool,
    /// Engine each node runs under.
    pub engine: EngineKind,
    /// Worker threads for the frontier fan-out (`0` = default pool).
    pub workers: usize,
    /// Path length at which subtrees are fanned out over
    /// `run_stealing`; `0` explores serially.
    pub split_depth: usize,
    /// Node budget (per frontier job when fanned out).
    pub max_nodes: u64,
    /// Stop after this many counterexamples.
    pub max_violations: usize,
    /// Minimize counterexamples with delta debugging.
    pub shrink: bool,
}

impl<D: FdValue> std::fmt::Debug for CheckConfig<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckConfig")
            .field("n_plus_1", &self.n_plus_1)
            .field("depth", &self.depth)
            .field("max_faults", &self.max_faults)
            .field("reduction", &self.reduction)
            .field("turbo", &self.turbo)
            .field("split_depth", &self.split_depth)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> CheckConfig<D> {
    /// A serial configuration with sleep sets over the `Access` lattice, no
    /// crash injection and a one-counterexample budget. The commutativity
    /// matrix starts off; samples whose state space it shrinks opt in with
    /// [`CheckConfig::matrix`].
    pub fn new(
        n_plus_1: usize,
        depth: usize,
        algos: AlgoFactory<D>,
        menu: Arc<dyn FdMenu<D>>,
    ) -> Self {
        CheckConfig {
            n_plus_1,
            depth,
            max_faults: 0,
            menu,
            specs: Vec::new(),
            algos,
            reduction: true,
            turbo: true,
            use_matrix: false,
            engine: EngineKind::Inline,
            workers: 0,
            split_depth: 0,
            max_nodes: 1_000_000,
            max_violations: 1,
            shrink: true,
        }
    }

    /// Adds a specification to check on every explored run.
    pub fn spec(mut self, spec: impl RunSpec<D> + 'static) -> Self {
        self.specs.push(Arc::new(spec));
        self
    }

    /// Sets the crash-injection budget.
    pub fn max_faults(mut self, f: usize) -> Self {
        self.max_faults = f;
        self
    }

    /// Enables or disables the sleep-set reduction.
    pub fn reduction(mut self, on: bool) -> Self {
        self.reduction = on;
        self
    }

    /// Enables or disables snapshot-resume execution (on by default).
    pub fn turbo(mut self, on: bool) -> Self {
        self.turbo = on;
        self
    }

    /// Enables or disables the per-op-pair commutativity refinement of the
    /// conflict relation (off by default).
    pub fn matrix(mut self, on: bool) -> Self {
        self.use_matrix = on;
        self
    }

    /// Fans subtrees out over a worker pool once paths reach `split_depth`.
    pub fn parallel(mut self, split_depth: usize, workers: usize) -> Self {
        self.split_depth = split_depth;
        self.workers = workers;
        self
    }

    /// Sets the counterexample budget.
    pub fn max_violations(mut self, v: usize) -> Self {
        self.max_violations = v;
        self
    }

    /// Checks the range rule [`check`] relies on: the crash budget must
    /// leave at least one process correct.
    ///
    /// # Errors
    ///
    /// Returns the [`AxisError`] for `max_faults` when it is not below
    /// `n_plus_1`.
    pub fn validate(&self) -> Result<(), AxisError> {
        if self.max_faults >= self.n_plus_1 {
            return Err(AxisError::new(
                "max_faults",
                format!(
                    "must leave a correct process: below n_plus_1 = {}, got {}",
                    self.n_plus_1, self.max_faults
                ),
            ));
        }
        Ok(())
    }
}

/// Counters describing one exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckStats {
    /// Executed (and spec-checked) nodes, including the root.
    pub nodes: u64,
    /// Step children skipped because the process was asleep.
    pub sleep_pruned: u64,
    /// Nodes whose last choice was a crash injection.
    pub crash_nodes: u64,
    /// Nodes spawned as failure-detector output variants.
    pub fd_variant_nodes: u64,
    /// Paths that reached the depth budget.
    pub depth_leaves: u64,
    /// Step children that produced no step (the process finished instantly).
    pub no_step_children: u64,
    /// Always 0: no reduction prunes by state fingerprint any more. Kept
    /// until the benchmark stops reading it.
    pub dedup_pruned: u64,
    /// Always 0: no reduction prunes by process symmetry any more. Kept
    /// until the benchmark stops reading it.
    pub symmetry_pruned: u64,
    /// Whether a node or violation budget cut the search short.
    pub truncated: bool,
}

impl CheckStats {
    fn absorb(&mut self, other: CheckStats) {
        self.nodes += other.nodes;
        self.sleep_pruned += other.sleep_pruned;
        self.crash_nodes += other.crash_nodes;
        self.fd_variant_nodes += other.fd_variant_nodes;
        self.depth_leaves += other.depth_leaves;
        self.no_step_children += other.no_step_children;
        self.truncated |= other.truncated;
    }
}

/// A violation found by the explorer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterExample {
    /// Name of the violated specification.
    pub spec: String,
    /// The violation message from the spec checker.
    pub message: String,
    /// Minimized replayable token (equals `raw_token` when shrinking is
    /// off).
    pub token: ReplayToken,
    /// The token of the node where the violation was first found.
    pub raw_token: ReplayToken,
    /// Predicate evaluations the shrink spent.
    pub shrink_evals: u64,
    /// Choices removed by the shrink.
    pub shrink_removed: usize,
}

/// The result of [`check`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport {
    /// Search counters.
    pub stats: CheckStats,
    /// Counterexamples, in deterministic discovery order.
    pub violations: Vec<CounterExample>,
    /// Subtree jobs fanned out over the worker pool (0 when serial).
    pub frontier_jobs: usize,
}

impl CheckReport {
    /// Whether the exploration found no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One executed node: the run, final memory (for object names) and the
/// failure-detector queries as served.
#[derive(Debug)]
pub struct Exec<D: FdValue> {
    /// The recorded run.
    pub run: Run<D>,
    /// The shared memory at the end of the run.
    pub memory: Memory,
    /// The menu oracle's query log.
    pub queries: Vec<QueryRecord>,
}

/// Packs a path and pick script into a replayable token. Crash times count
/// the `Step` choices preceding the crash, matching the simulator's
/// step-indexed clock.
pub fn token_of(n_plus_1: usize, path: &[Choice], picks: &[Vec<u32>]) -> ReplayToken {
    let mut crashes = vec![None; n_plus_1];
    let mut schedule = Vec::new();
    for ch in path {
        match *ch {
            Choice::Step(p) => schedule.push(p),
            Choice::Crash(p) => crashes[p.index()] = Some(Time(schedule.len() as u64)),
        }
    }
    let mut fd_choices = picks.to_vec();
    fd_choices.resize(n_plus_1, Vec::new());
    ReplayToken {
        n_plus_1,
        crashes,
        fd_choices,
        schedule,
    }
}

/// Executes the run a token describes under `engine`, with the
/// configuration's algorithms and menu.
///
/// # Errors
///
/// Returns a [`TokenError`] when the token's process count differs from
/// the configuration's: such a token belongs to another system.
pub fn run_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    engine: EngineKind,
) -> Result<Exec<D>, TokenError> {
    token.check_process_count(cfg.n_plus_1)?;
    Ok(run_checked_token(cfg, token, engine))
}

/// [`run_token`] for a token whose process count matches the config.
fn run_checked_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    engine: EngineKind,
) -> Exec<D> {
    let oracle = MenuOracle::new(
        Arc::clone(&cfg.menu),
        cfg.n_plus_1,
        token.fd_choices.clone(),
    );
    let log = oracle.log();
    let mut builder = SimBuilder::<D>::replay(token)
        .oracle(oracle)
        .engine(engine)
        .record_op_sigs(cfg.use_matrix);
    for (i, a) in (cfg.algos)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let outcome = builder.run();
    let queries = log.lock().expect("query log lock").clone();
    Exec {
        run: outcome.run,
        memory: outcome.memory,
        queries,
    }
}

/// A token replayed under one engine, with every spec's verdict.
#[derive(Debug)]
pub struct ReplayOutcome<D: FdValue> {
    /// The re-executed run.
    pub run: Run<D>,
    /// `(spec name, verdict)` for the run-condition validator and every
    /// configured spec, in checking order.
    pub verdicts: Vec<(String, Result<(), String>)>,
}

/// Replays a counterexample token under `engine` and re-checks every spec —
/// the round-trip used by regression tests and bug reports.
///
/// # Panics
///
/// Panics when the token's process count differs from the
/// configuration's; [`run_token`] reports that as a [`TokenError`].
pub fn replay_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    engine: EngineKind,
) -> ReplayOutcome<D> {
    let exec = run_token(cfg, token, engine).unwrap_or_else(|e| panic!("{e}"));
    let mut verdicts = vec![(
        "run-conditions".to_string(),
        RunConditionsSpec.check(&exec.run),
    )];
    for spec in &cfg.specs {
        verdicts.push((spec.name().to_string(), spec.check(&exec.run)));
    }
    ReplayOutcome {
        run: exec.run,
        verdicts,
    }
}

fn execute<D: FdValue>(cfg: &CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Exec<D> {
    run_checked_token(cfg, &token_of(cfg.n_plus_1, path, picks), cfg.engine)
}

/// First failing spec on a run: the §3.3 run-condition validator first,
/// then the configured specs in order. Returns `(spec name, message)`.
/// Shared by the explorer and by randomized campaign runners
/// (`upsilon-fuzz`) so both report violations identically.
pub fn violation_of<D: FdValue>(cfg: &CheckConfig<D>, run: &Run<D>) -> Option<(String, String)> {
    if let Err(msg) = RunConditionsSpec.check(run) {
        return Some(("run-conditions".to_string(), msg));
    }
    for spec in &cfg.specs {
        if let Err(msg) = spec.check(run) {
            return Some((spec.name().to_string(), msg));
        }
    }
    None
}

/// Reconstructs a choice path from a token — the inverse of [`token_of`]:
/// `Step` choices in schedule order with each crash inserted after the
/// number of steps its time records (simultaneous crashes in ascending
/// process order, matching the canonical-representative rule). Round-trips:
/// `token_of(n, &path_of_token(t), &t.fd_choices) == t` whenever every
/// crash time is at most the schedule length.
pub fn path_of_token(token: &ReplayToken) -> Vec<Choice> {
    let mut crashes: Vec<(u64, ProcessId)> = token
        .crashes
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t.0, ProcessId(i))))
        .collect();
    crashes.sort_unstable();
    let mut crashes = crashes.into_iter().peekable();
    let mut path = Vec::with_capacity(token.schedule.len() + token.crashes.len());
    for (steps, &p) in token.schedule.iter().enumerate() {
        while let Some((_, q)) = crashes.next_if(|&(t, _)| t as usize <= steps) {
            path.push(Choice::Crash(q));
        }
        path.push(Choice::Step(p));
    }
    for (_, q) in crashes {
        path.push(Choice::Crash(q));
    }
    path
}

/// Outcome of shrinking one violating token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShrinkResult {
    /// The minimized token (still violating `spec`).
    pub token: ReplayToken,
    /// Predicate evaluations the shrink spent.
    pub evals: u64,
    /// Choices removed from the original path.
    pub removed: usize,
}

/// Minimizes a violating token with [`ddmin_counted`] over its choice
/// sequence, preserving failure of the named spec — the same shrink the
/// explorer applies to its counterexamples, exposed for campaign runners
/// that find violations by random search rather than enumeration.
pub fn shrink_violation<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    spec: &str,
) -> ShrinkResult {
    let path = path_of_token(token);
    let (token, evals, removed) = shrink_path(cfg, &path, &token.fd_choices, spec);
    ShrinkResult {
        token,
        evals,
        removed,
    }
}

/// The shared ddmin driver behind [`shrink_violation`] and the explorer's
/// counterexample minimization.
fn shrink_path<D: FdValue>(
    cfg: &CheckConfig<D>,
    path: &[Choice],
    picks: &[Vec<u32>],
    spec: &str,
) -> (ReplayToken, u64, usize) {
    let out = ddmin_counted(path, |cand| {
        // Crashing everyone is outside the model; such candidates cannot
        // be the minimal counterexample.
        if faults_in(cand) >= cfg.n_plus_1 {
            return false;
        }
        let exec = execute(cfg, cand, picks);
        violation_of(cfg, &exec.run).is_some_and(|(name, _)| name == spec)
    });
    (
        token_of(cfg.n_plus_1, &out.minimal, picks),
        out.evals,
        out.removed,
    )
}

fn crashed_in(path: &[Choice], p: ProcessId) -> bool {
    path.iter()
        .any(|c| matches!(c, Choice::Crash(q) if *q == p))
}

fn faults_in(path: &[Choice]) -> usize {
    path.iter()
        .filter(|c| matches!(c, Choice::Crash(_)))
        .count()
}

/// The canonical-representative rule: `Crash(p)` may extend `path` only
/// right after `Step(p)`, or inside the ascending all-crash initial block.
fn crash_allowed(path: &[Choice], p: ProcessId) -> bool {
    match path.last() {
        Some(Choice::Step(q)) => *q == p,
        Some(Choice::Crash(q)) => {
            q.index() < p.index() && path.iter().all(|c| matches!(c, Choice::Crash(_)))
        }
        None => true,
    }
}

/// Memoized signature resolutions: `resolve` re-parses the op's `Debug`
/// rendering, and the hot loop resolves the same few signatures at every
/// stepped child.
type ResolveMemo = BTreeMap<OpSig, Option<Arc<ResolvedOp>>>;

fn footprint_of<D: FdValue>(run: &Run<D>, memory: &Memory, memo: &mut ResolveMemo) -> Footprint {
    match &run.events().last().expect("step child has an event").kind {
        StepKind::Op {
            object,
            access,
            sig,
            ..
        } => Footprint::Obj {
            key: memory
                .name_of(*object)
                .expect("every allocated object is named")
                .clone(),
            access: *access,
            sig: sig.as_ref().and_then(|s| {
                if let Some(cached) = memo.get(s) {
                    return cached.clone();
                }
                let resolved = resolve(s).map(Arc::new);
                memo.insert(s.clone(), resolved.clone());
                resolved
            }),
        },
        _ => Footprint::Local,
    }
}

/// Whether a configuration runs its nodes on the snapshot-resume session.
/// The thread engine's state machines live on OS threads and cannot be
/// rewound, so `turbo` silently degrades to stateless re-execution there.
fn turbo_active<D: FdValue>(cfg: &CheckConfig<D>) -> bool {
    cfg.turbo && cfg.engine == EngineKind::Inline
}

/// The snapshot-resume cursor: one live [`Session`] plus a stack of saves,
/// one per node on the current path. Stepping descends in place; a save is
/// taken at every node entered; rewinding is *lazy* — [`TurboCursor::pop`]
/// only marks the session dirty, and the restore (fast-forward replay into
/// fresh futures) happens when the next sibling actually needs the parent
/// state. A leftmost descent therefore never replays at all.
struct TurboCursor<'a, D: FdValue> {
    cfg: &'a CheckConfig<D>,
    session: Session<D>,
    saves: Vec<SessionSave>,
    /// The pick script the live oracle was built with; a pushed step whose
    /// script differs (a detector variant) forces a restore with a fresh
    /// oracle even when the session is otherwise positioned correctly.
    cur_picks: Vec<Vec<u32>>,
    log: Arc<Mutex<Vec<QueryRecord>>>,
    /// Whether the live session has moved past the top save.
    dirty: bool,
}

impl<'a, D: FdValue> TurboCursor<'a, D> {
    fn new(cfg: &'a CheckConfig<D>) -> Self {
        let picks = vec![Vec::new(); cfg.n_plus_1];
        let oracle = MenuOracle::new(Arc::clone(&cfg.menu), cfg.n_plus_1, picks.clone());
        let log = oracle.log();
        // The session records at the stateless replay's trace level.
        let session = Session::new(
            FailurePattern::failure_free(cfg.n_plus_1),
            Arc::clone(&cfg.algos),
            Box::new(oracle),
            TraceLevel::Steps,
            cfg.use_matrix,
        );
        let saves = vec![session.save()];
        TurboCursor {
            cfg,
            session,
            saves,
            cur_picks: picks,
            log,
            dirty: false,
        }
    }

    /// Re-positions the session at the top save if it drifted (or if the
    /// pick script changed, which requires a freshly positioned oracle).
    fn ensure_clean(&mut self, picks: &[Vec<u32>]) {
        if !self.dirty && self.cur_picks == picks {
            return;
        }
        let save = self
            .saves
            .last()
            .expect("cursor always holds the root save");
        let oracle = MenuOracle::with_counts(
            Arc::clone(&self.cfg.menu),
            self.cfg.n_plus_1,
            picks.to_vec(),
            &save.query_counts(),
        );
        self.log = oracle.log();
        self.session.restore(save, Box::new(oracle));
        self.cur_picks = picks.to_vec();
        self.dirty = false;
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        self.ensure_clean(picks);
        match self.session.step(p) {
            SessionStep::Stepped => {
                self.saves.push(self.session.save());
                self.dirty = false;
                true
            }
            SessionStep::NoStep => {
                // The grant consumed no step but marked the process known-
                // finished; the next push's restore erases that.
                self.dirty = true;
                false
            }
        }
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        self.ensure_clean(picks);
        self.session.crash(p);
        self.saves.push(self.session.save());
        self.dirty = false;
    }

    fn pop(&mut self) {
        self.saves.pop();
        self.dirty = true;
    }
}

/// The classic stateless cursor: every pushed node re-executes its whole
/// path from the root through [`SimBuilder`].
struct StatelessCursor<'a, D: FdValue> {
    cfg: &'a CheckConfig<D>,
    path: Vec<Choice>,
    execs: Vec<Exec<D>>,
}

impl<'a, D: FdValue> StatelessCursor<'a, D> {
    fn at_path(cfg: &'a CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Self {
        StatelessCursor {
            cfg,
            path: path.to_vec(),
            execs: vec![execute(cfg, path, picks)],
        }
    }

    fn top(&self) -> &Exec<D> {
        self.execs
            .last()
            .expect("cursor always holds the root exec")
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        let before = self.top().run.total_steps();
        self.path.push(Choice::Step(p));
        let child = execute(self.cfg, &self.path, picks);
        if child.run.total_steps() == before {
            // The process finished without taking a step: no new state.
            self.path.pop();
            return false;
        }
        self.execs.push(child);
        true
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        self.path.push(Choice::Crash(p));
        self.execs.push(execute(self.cfg, &self.path, picks));
    }

    fn pop(&mut self) {
        self.path.pop();
        self.execs.pop();
    }
}

/// Either execution strategy behind one node-navigation interface. Every
/// observer method assumes the cursor is *clean* (positioned exactly at the
/// node of the last successful push), which the explorer guarantees by
/// reading a node before descending into its children.
// The turbo variant is big (a full session plus its save stack), but a
// cursor is created once per subtree job, not per node — boxing it would
// buy nothing on the hot path.
#[allow(clippy::large_enum_variant)]
enum Cursor<'a, D: FdValue> {
    Turbo(TurboCursor<'a, D>),
    Stateless(StatelessCursor<'a, D>),
}

impl<'a, D: FdValue> Cursor<'a, D> {
    fn at_path(cfg: &'a CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Self {
        if turbo_active(cfg) {
            let mut cursor = TurboCursor::new(cfg);
            for ch in path {
                match *ch {
                    Choice::Step(p) => {
                        let stepped = cursor.push_step(p, picks);
                        debug_assert!(stepped, "frontier paths replay step for step");
                    }
                    Choice::Crash(p) => cursor.push_crash(p, picks),
                }
            }
            Cursor::Turbo(cursor)
        } else {
            Cursor::Stateless(StatelessCursor::at_path(cfg, path, picks))
        }
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        match self {
            Cursor::Turbo(c) => c.push_step(p, picks),
            Cursor::Stateless(c) => c.push_step(p, picks),
        }
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        match self {
            Cursor::Turbo(c) => c.push_crash(p, picks),
            Cursor::Stateless(c) => c.push_crash(p, picks),
        }
    }

    fn pop(&mut self) {
        match self {
            Cursor::Turbo(c) => c.pop(),
            Cursor::Stateless(c) => c.pop(),
        }
    }

    fn run(&self) -> &Run<D> {
        match self {
            Cursor::Turbo(c) => c.session.run(),
            Cursor::Stateless(c) => &c.top().run,
        }
    }

    fn is_turbo(&self) -> bool {
        matches!(self, Cursor::Turbo(_))
    }

    /// Footprint of the node's last (just-pushed) step.
    fn last_footprint(&self, memo: &mut ResolveMemo) -> Footprint {
        match self {
            Cursor::Turbo(c) => c
                .session
                .with_memory(|m| footprint_of(c.session.run(), m, memo)),
            Cursor::Stateless(c) => {
                let exec = c.top();
                footprint_of(&exec.run, &exec.memory, memo)
            }
        }
    }

    /// The query record of the node's last step, when that step was a
    /// failure-detector query.
    fn last_query(&self) -> Option<QueryRecord> {
        match self {
            Cursor::Turbo(c) => match &c.session.run().events().last()?.kind {
                StepKind::Query(_) => c.log.lock().expect("query log lock").last().copied(),
                _ => None,
            },
            Cursor::Stateless(c) => match &c.top().run.events().last()?.kind {
                StepKind::Query(_) => c.top().queries.last().copied(),
                _ => None,
            },
        }
    }
}

/// A deferred subtree handed to the work-stealing pool.
struct FrontierJob {
    path: Vec<Choice>,
    picks: Vec<Vec<u32>>,
    sleep: Vec<(ProcessId, Footprint)>,
    steps_used: usize,
}

/// First failing spec on one explored node. Runs driven by the session
/// satisfy the §3.3 run conditions by construction (the engine enforces
/// crash and grant semantics), so the validator runs only as a debug
/// assertion there; the stateless path keeps the full check. They never
/// differ on explorer-generated runs — the differential suite pins this.
fn node_violation<D: FdValue>(
    cfg: &CheckConfig<D>,
    run: &Run<D>,
    turbo: bool,
) -> Option<(String, String)> {
    if turbo {
        debug_assert!(
            RunConditionsSpec.check(run).is_ok(),
            "session runs satisfy the run conditions by construction"
        );
        for spec in &cfg.specs {
            if let Err(msg) = spec.check(run) {
                return Some((spec.name().to_string(), msg));
            }
        }
        None
    } else {
        violation_of(cfg, run)
    }
}

struct Explorer<'a, D: FdValue, F: FnMut(FrontierJob)> {
    cfg: &'a CheckConfig<D>,
    participants: &'a [bool],
    stats: CheckStats,
    violations: Vec<CounterExample>,
    path: Vec<Choice>,
    cursor: Cursor<'a, D>,
    resolve_memo: ResolveMemo,
    frontier: Option<F>,
}

impl<'a, D: FdValue, F: FnMut(FrontierJob)> Explorer<'a, D, F> {
    fn at(
        cfg: &'a CheckConfig<D>,
        participants: &'a [bool],
        path: &[Choice],
        picks: &[Vec<u32>],
        frontier: Option<F>,
    ) -> Self {
        Explorer {
            cfg,
            participants,
            stats: CheckStats::default(),
            violations: Vec::new(),
            path: path.to_vec(),
            cursor: Cursor::at_path(cfg, path, picks),
            resolve_memo: ResolveMemo::new(),
            frontier,
        }
    }

    fn over_budget(&self) -> bool {
        self.stats.nodes >= self.cfg.max_nodes || self.violations.len() >= self.cfg.max_violations
    }

    /// Executes specs on the node the cursor sits at; on violation, records
    /// a (shrunk) counterexample and prunes the subtree.
    fn visit(&mut self, picks: &[Vec<u32>], sleep: Vec<(ProcessId, Footprint)>, steps_used: usize) {
        self.stats.nodes += 1;
        if let Some((spec, message)) =
            node_violation(self.cfg, self.cursor.run(), self.cursor.is_turbo())
        {
            self.record(picks, spec, message);
            return;
        }
        if self.over_budget() {
            self.stats.truncated = true;
            return;
        }
        if steps_used >= self.cfg.depth {
            self.stats.depth_leaves += 1;
            return;
        }
        if self.frontier.is_some() && self.path.len() >= self.cfg.split_depth {
            let job = FrontierJob {
                path: self.path.clone(),
                picks: picks.to_vec(),
                sleep,
                steps_used,
            };
            if let Some(spawn) = self.frontier.as_mut() {
                spawn(job);
            }
            return;
        }
        self.expand(picks, sleep, steps_used);
    }

    /// Generates and explores the children of the node the cursor sits at:
    /// canonical crash injections first, then step extensions under the
    /// sleep set, with failure-detector variants as siblings of query steps.
    /// On return the cursor is back at the entry node (possibly dirty).
    fn expand(
        &mut self,
        picks: &[Vec<u32>],
        mut sleep: Vec<(ProcessId, Footprint)>,
        steps_used: usize,
    ) {
        // The parent's run view is read now, while the cursor is clean; it
        // is not revisited once children start moving the session.
        let finished: Vec<bool> = {
            let run = self.cursor.run();
            (0..self.cfg.n_plus_1)
                .map(|i| run.finished(ProcessId(i)))
                .collect()
        };

        if faults_in(&self.path) < self.cfg.max_faults {
            for i in 0..self.cfg.n_plus_1 {
                let p = ProcessId(i);
                if crashed_in(&self.path, p) || !crash_allowed(&self.path, p) {
                    continue;
                }
                if self.over_budget() {
                    self.stats.truncated = true;
                    return;
                }
                self.path.push(Choice::Crash(p));
                self.cursor.push_crash(p, picks);
                self.stats.crash_nodes += 1;
                self.visit(picks, sleep.clone(), steps_used);
                self.cursor.pop();
                self.path.pop();
            }
        }

        for i in 0..self.cfg.n_plus_1 {
            let p = ProcessId(i);
            if !self.participants[i] || crashed_in(&self.path, p) || finished[i] {
                continue;
            }
            if self.cfg.reduction && sleep.iter().any(|(q, _)| *q == p) {
                self.stats.sleep_pruned += 1;
                continue;
            }
            if self.over_budget() {
                self.stats.truncated = true;
                return;
            }
            self.path.push(Choice::Step(p));
            if !self.cursor.push_step(p, picks) {
                self.stats.no_step_children += 1;
                self.path.pop();
                continue;
            }
            let fp = self.cursor.last_footprint(&mut self.resolve_memo);
            let query = self.cursor.last_query();
            let child_sleep: Vec<_> = sleep
                .iter()
                .filter(|(_, f)| !f.conflicts_with(&fp))
                .cloned()
                .collect();
            self.visit(picks, child_sleep.clone(), steps_used + 1);

            // Sibling branches for the unexplored detector candidates.
            if let Some(rec) = query {
                debug_assert_eq!(rec.pid, p);
                for j in 1..rec.candidates {
                    let mut vpicks = picks.to_vec();
                    vpicks[i].resize(rec.k as usize, 0);
                    vpicks[i].push(j);
                    if self.over_budget() {
                        self.stats.truncated = true;
                        self.cursor.pop();
                        self.path.pop();
                        return;
                    }
                    self.cursor.pop();
                    let stepped = self.cursor.push_step(p, &vpicks);
                    debug_assert!(stepped, "a query step steps under every candidate");
                    self.stats.fd_variant_nodes += 1;
                    self.visit(&vpicks, child_sleep.clone(), steps_used + 1);
                }
            }
            self.cursor.pop();
            self.path.pop();
            if self.cfg.reduction {
                sleep.push((p, fp));
            }
        }
    }

    fn record(&mut self, picks: &[Vec<u32>], spec: String, message: String) {
        let raw_token = token_of(self.cfg.n_plus_1, &self.path, picks);
        let (token, shrink_evals, shrink_removed) = if self.cfg.shrink {
            shrink_path(self.cfg, &self.path, picks, &spec)
        } else {
            (raw_token.clone(), 0, 0)
        };
        self.violations.push(CounterExample {
            spec,
            message,
            token,
            raw_token,
            shrink_evals,
            shrink_removed,
        });
    }
}

/// Runs the exploration a [`CheckConfig`] describes and reports every
/// counterexample found. Deterministic: the same configuration yields the
/// same report at any worker count — frontier subtrees run on a
/// work-stealing pool ([`run_stealing`]) and merge by spawn-sequence
/// coordinate, which reproduces the serial discovery order byte for byte.
///
/// # Panics
///
/// Panics if [`CheckConfig::validate`] rejects the configuration, or if
/// the algorithm factory does not cover every process.
pub fn check<D: FdValue>(cfg: &CheckConfig<D>) -> CheckReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let participants: Vec<bool> = (cfg.algos)().iter().map(Option::is_some).collect();
    assert_eq!(
        participants.len(),
        cfg.n_plus_1,
        "algo factory must cover every process"
    );
    let root_picks: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_plus_1];

    if cfg.split_depth == 0 {
        let mut explorer = Explorer::at(
            cfg,
            &participants,
            &[],
            &root_picks,
            None::<fn(FrontierJob)>,
        );
        explorer.visit(&root_picks, Vec::new(), 0);
        let Explorer {
            stats, violations, ..
        } = explorer;
        return CheckReport {
            stats,
            violations,
            frontier_jobs: 0,
        };
    }

    // Streaming frontier: the serial prefix walk runs as the pool's first
    // job and spawns every deferred subtree the moment it is discovered, so
    // workers descend into subtrees while the prefix is still being carved.
    type JobResult = (CheckStats, Vec<CounterExample>, usize);
    let participants_ref: &[bool] = &participants;
    let root: StealJob<'_, JobResult> = StealJob {
        coord: vec![0],
        run: Box::new(move |scope: &mut StealScope<'_, '_, JobResult>| {
            let mut seq: u32 = 0;
            let mut spawn = |job: FrontierJob| {
                seq += 1;
                scope(StealJob {
                    coord: vec![seq],
                    run: Box::new(move |_: &mut StealScope<'_, '_, JobResult>| {
                        let mut sub = Explorer::at(
                            cfg,
                            participants_ref,
                            &job.path,
                            &job.picks,
                            None::<fn(FrontierJob)>,
                        );
                        sub.expand(&job.picks, job.sleep, job.steps_used);
                        (sub.stats, sub.violations, 0)
                    }),
                });
            };
            let root_picks: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_plus_1];
            let mut explorer =
                Explorer::at(cfg, participants_ref, &[], &root_picks, Some(&mut spawn));
            explorer.visit(&root_picks, Vec::new(), 0);
            let Explorer {
                stats, violations, ..
            } = explorer;
            (stats, violations, seq as usize)
        }),
    };
    let results = run_stealing(vec![root], cfg.workers);

    let mut stats = CheckStats::default();
    let mut violations = Vec::new();
    let mut frontier_jobs = 0;
    for (s, v, jobs) in results {
        stats.absorb(s);
        violations.extend(v);
        frontier_jobs += jobs;
    }
    if violations.len() > cfg.max_violations {
        violations.truncate(cfg.max_violations);
        stats.truncated = true;
    }
    CheckReport {
        stats,
        violations,
        frontier_jobs,
    }
}
