//! The systematic explorer: sleep-set DPOR over schedules, layered with
//! exhaustive crash injection and failure-detector output branching.
//!
//! # State space
//!
//! A node of the search tree is a *path*: a sequence of [`Choice`]s —
//! `Step(p)` grants one step to `p`, `Crash(p)` crashes `p` at the current
//! point of the schedule — together with a per-process script of
//! failure-detector candidate picks. Nodes are executed on one
//! snapshot-resume [`Session`] per search: a save at every node entered, a
//! rewind to the parent's save before each sibling. Each node's run is
//! checked against every configured [`RunSpec`] (the §3.3 run-condition
//! validator holds by construction there), and then expanded.
//! Counterexample tokens and shrink candidates replay from the root through
//! [`SimBuilder`] with a [`Scripted`](upsilon_sim::Scripted) adversary.
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
    ops_commute, resolve, run_batch, Access, AlgoFn, EngineKind, FailurePattern, FdValue, Key,
    Memory, OpSig, Oracle, ProcessId, ProcessSet, ReplayToken, ResolvedOp, Run, Session,
    SessionSave, SessionStep, SimBuilder, StepKind, Time, TokenError, TraceLevel,
};

/// One scheduling decision of the explorer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Let the process take one step.
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

/// Produces the per-process algorithms of one run; called when a search
/// starts its session, whenever the session's rebuild spares run out, and
/// once per token replay, so it must be deterministic. `None` entries do
/// not participate.
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
    /// Refine the conflict relation through the generated per-op-pair
    /// commutativity matrix (`upsilon_sim::commute`), off by default: op
    /// signatures are recorded on every node and lattice conflicts the
    /// matrix proves independent stop waking sleeping processes. `false`
    /// (the default) keeps the coarse `Access` lattice, which prunes just
    /// as much on the paper's Fig. 1 and Fig. 2 configs without rendering
    /// a signature per step.
    pub use_matrix: bool,
    /// Worker threads for the frontier fan-out (`0` = default pool).
    pub workers: usize,
    /// Path length at which the serial prefix walk stops and collects each
    /// subtree for the worker pool (`run_batch`); `0` explores serially.
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
            use_matrix: false,
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
    /// Whether the node budget (`max_nodes`) cut the search short. A search
    /// stopped by its violation budget (`max_violations`) is not truncated.
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

/// Executes the run a token describes, with the configuration's
/// algorithms and menu.
///
/// # Errors
///
/// Returns a [`TokenError`] when the token's process count differs from
/// the configuration's: such a token belongs to another system.
pub fn run_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
) -> Result<Exec<D>, TokenError> {
    token.check_process_count(cfg.n_plus_1)?;
    Ok(run_checked_token(cfg, token))
}

/// [`run_token`] for a token whose process count matches the config.
fn run_checked_token<D: FdValue>(cfg: &CheckConfig<D>, token: &ReplayToken) -> Exec<D> {
    let oracle = MenuOracle::new(
        Arc::clone(&cfg.menu),
        cfg.n_plus_1,
        token.fd_choices.clone(),
    );
    let log = oracle.log();
    let mut builder = SimBuilder::<D>::replay(token)
        .oracle(oracle)
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

/// A replayed token, with every spec's verdict.
#[derive(Debug)]
pub struct ReplayOutcome<D: FdValue> {
    /// The re-executed run.
    pub run: Run<D>,
    /// `(spec name, verdict)` for the run-condition validator and every
    /// configured spec, in checking order.
    pub verdicts: Vec<(String, Result<(), String>)>,
}

/// Replays a counterexample token and re-checks every spec — the
/// round-trip used by regression tests and bug reports. `_engine` is
/// ignored: [`EngineKind`] has one variant.
///
/// # Panics
///
/// Panics when the token's process count differs from the
/// configuration's; [`run_token`] reports that as a [`TokenError`].
pub fn replay_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    _engine: EngineKind,
) -> ReplayOutcome<D> {
    let exec = run_token(cfg, token).unwrap_or_else(|e| panic!("{e}"));
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
    run_checked_token(cfg, &token_of(cfg.n_plus_1, path, picks))
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
        kind @ StepKind::Op { object, access, .. } => Footprint::Obj {
            key: *memory
                .name_of(*object)
                .expect("every allocated object is named"),
            access: *access,
            sig: kind.sig().and_then(|s| {
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

/// The oracle of a cursor's session: the cursor's live [`MenuOracle`],
/// shared so that a rewind moves it back in place instead of building a
/// new one.
struct SharedMenu<D: FdValue>(Arc<Mutex<MenuOracle<D>>>);

impl<D: FdValue> Oracle<D> for SharedMenu<D> {
    fn output(&mut self, p: ProcessId, t: Time) -> D {
        self.0.lock().expect("menu oracle lock").output(p, t)
    }

    fn describe(&self) -> String {
        "menu".to_string()
    }
}

/// The snapshot-resume cursor: one live [`Session`] plus a stack of saves,
/// one per node on the current path. Stepping descends in place; a save is
/// taken at every node entered; rewinding is *lazy* — [`Cursor::pop`]
/// only marks the session dirty, and the rewind happens when the next
/// sibling actually needs the parent state. The session in turn rebuilds a
/// process the rewind left stale only when that process is granted
/// again. A leftmost descent therefore never replays at all.
///
/// Nothing here allocates once the search has reached its depth: a popped
/// save stays on the stack for the next push to overwrite, and a rewind
/// moves the one live menu oracle back to the save point.
///
/// Every observer method assumes the cursor is *clean* (positioned exactly
/// at the node of the last successful push), which the explorer guarantees
/// by reading a node before descending into its children.
struct Cursor<D: FdValue> {
    session: Session<D>,
    /// `saves[..depth]` are the saves of the current path; later entries
    /// are spent saves kept for their storage.
    saves: Vec<SessionSave>,
    depth: usize,
    /// The oracle the session consults, shared through [`SharedMenu`].
    oracle: Arc<Mutex<MenuOracle<D>>>,
    /// The pick script the live oracle plays; a pushed step whose script
    /// differs (a detector variant) forces a rewind and a re-positioned
    /// oracle even when the session is otherwise positioned correctly.
    cur_picks: Vec<Vec<u32>>,
    log: Arc<Mutex<Vec<QueryRecord>>>,
    /// Whether the live session has moved past the top save.
    dirty: bool,
}

impl<D: FdValue> Cursor<D> {
    /// A cursor at the node `path` reaches under `picks`.
    fn at_path(cfg: &CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Self {
        let root_picks = vec![Vec::new(); cfg.n_plus_1];
        let oracle = MenuOracle::new(Arc::clone(&cfg.menu), cfg.n_plus_1, root_picks.clone());
        let log = oracle.log();
        let oracle = Arc::new(Mutex::new(oracle));
        // The session records at the trace level of a token replay, so a
        // node's run is the run its token replays to.
        let session = Session::new(
            FailurePattern::failure_free(cfg.n_plus_1),
            Arc::clone(&cfg.algos),
            Box::new(SharedMenu(Arc::clone(&oracle))),
            TraceLevel::Steps,
            cfg.use_matrix,
        );
        let mut cursor = Cursor {
            session,
            saves: Vec::new(),
            depth: 0,
            oracle,
            cur_picks: root_picks,
            log,
            dirty: false,
        };
        cursor.push_save();
        for ch in path {
            match *ch {
                Choice::Step(p) => {
                    let stepped = cursor.push_step(p, picks);
                    debug_assert!(stepped, "frontier paths replay step for step");
                }
                Choice::Crash(p) => cursor.push_crash(p, picks),
            }
        }
        cursor
    }

    /// Re-positions the session at the top save if it drifted (or if the
    /// pick script changed, which re-positions the oracle too).
    fn ensure_clean(&mut self, picks: &[Vec<u32>]) {
        if !self.dirty && self.cur_picks == picks {
            return;
        }
        self.session.rewind(&self.saves[self.depth - 1]);
        self.cur_picks.clone_from_slice(picks);
        self.oracle
            .lock()
            .expect("menu oracle lock")
            .reposition(picks, self.session.query_counts());
        self.dirty = false;
    }

    /// Saves the node just reached on top of the path's stack.
    fn push_save(&mut self) {
        match self.saves.get_mut(self.depth) {
            Some(save) => self.session.save_into(save),
            None => self.saves.push(self.session.save()),
        }
        self.depth += 1;
        self.dirty = false;
    }

    /// Grants `p` a step below the current node; `false` when `p` had
    /// already returned and took none (no new node).
    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        self.ensure_clean(picks);
        match self.session.step(p) {
            SessionStep::Stepped => {
                self.push_save();
                true
            }
            SessionStep::NoStep => {
                // The grant consumed no step but marked the process known-
                // finished; the next push's rewind erases that.
                self.dirty = true;
                false
            }
        }
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        self.ensure_clean(picks);
        self.session.crash(p);
        self.push_save();
    }

    fn pop(&mut self) {
        self.depth -= 1;
        self.dirty = true;
    }

    fn run(&self) -> &Run<D> {
        self.session.run()
    }

    /// Footprint of the node's last (just-pushed) step.
    fn last_footprint(&self, memo: &mut ResolveMemo) -> Footprint {
        self.session
            .with_memory(|m| footprint_of(self.session.run(), m, memo))
    }

    /// The query record of the node's last step, when that step was a
    /// failure-detector query.
    fn last_query(&self) -> Option<QueryRecord> {
        match &self.session.run().events().last()?.kind {
            StepKind::Query(_) => self.log.lock().expect("query log lock").last().copied(),
            _ => None,
        }
    }
}

/// A subtree the serial prefix walk deferred at the split depth; the
/// collected subtrees run as one batch on the worker pool.
struct FrontierJob {
    path: Vec<Choice>,
    picks: Vec<Vec<u32>>,
    sleep: Vec<(ProcessId, Footprint)>,
    steps_used: usize,
}

/// First failing configured spec on one explored node. A session run
/// satisfies the §3.3 run conditions by construction (the simulator's one
/// step bookkeeping enforces crash and grant semantics), so the validator
/// runs only as a debug assertion here; the check crate's node-level test
/// runs it on every node of its portfolio and replays each node's token.
fn node_violation<D: FdValue>(cfg: &CheckConfig<D>, run: &Run<D>) -> Option<(String, String)> {
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
}

struct Explorer<'a, D: FdValue> {
    cfg: &'a CheckConfig<D>,
    participants: &'a [bool],
    stats: CheckStats,
    violations: Vec<CounterExample>,
    path: Vec<Choice>,
    /// The pick script of the node the cursor sits at. A detector variant
    /// edits its process's script in place and undoes the edit once the
    /// variant's subtree is explored.
    picks: Vec<Vec<u32>>,
    /// The sleep sets of the nodes on the current path, stacked: a node
    /// visited with `base` has the set `sleep[base..]`, grows it as its
    /// step children finish, and leaves the stack as it found it.
    sleep: Vec<(ProcessId, Footprint)>,
    cursor: Cursor<D>,
    resolve_memo: ResolveMemo,
    /// `Some` on the prefix walk: nodes at the split depth land here
    /// instead of being expanded.
    frontier: Option<Vec<FrontierJob>>,
}

impl<'a, D: FdValue> Explorer<'a, D> {
    /// An explorer at the node `path` reaches under `picks`, with sleep set
    /// `sleep`.
    fn at(
        cfg: &'a CheckConfig<D>,
        participants: &'a [bool],
        path: &[Choice],
        picks: Vec<Vec<u32>>,
        sleep: Vec<(ProcessId, Footprint)>,
        frontier: Option<Vec<FrontierJob>>,
    ) -> Self {
        Explorer {
            cfg,
            participants,
            stats: CheckStats::default(),
            violations: Vec::new(),
            path: path.to_vec(),
            cursor: Cursor::at_path(cfg, path, &picks),
            picks,
            sleep,
            resolve_memo: ResolveMemo::new(),
            frontier,
        }
    }

    fn over_budget(&self) -> bool {
        self.stats.nodes >= self.cfg.max_nodes || self.violations.len() >= self.cfg.max_violations
    }

    /// Whether a budget stops the search here. Only the node budget marks
    /// the search `truncated`: a search stopped by its violation budget has
    /// its verdict.
    fn stops(&mut self) -> bool {
        if !self.over_budget() {
            return false;
        }
        self.stats.truncated |= self.stats.nodes >= self.cfg.max_nodes;
        true
    }

    /// Executes specs on the node the cursor sits at, whose sleep set is
    /// `sleep[base..]`; on violation, records a (shrunk) counterexample and
    /// prunes the subtree.
    fn visit(&mut self, base: usize, steps_used: usize) {
        self.stats.nodes += 1;
        if let Some((spec, message)) = node_violation(self.cfg, self.cursor.run()) {
            self.record(spec, message);
            return;
        }
        if self.stops() {
            return;
        }
        if steps_used >= self.cfg.depth {
            self.stats.depth_leaves += 1;
            return;
        }
        if let Some(frontier) = self.frontier.as_mut() {
            if self.path.len() >= self.cfg.split_depth {
                frontier.push(FrontierJob {
                    path: self.path.clone(),
                    picks: self.picks.clone(),
                    sleep: self.sleep[base..].to_vec(),
                    steps_used,
                });
                return;
            }
        }
        let top = self.sleep.len();
        self.expand(base, steps_used);
        self.sleep.truncate(top);
    }

    /// Generates and explores the children of the node the cursor sits at:
    /// canonical crash injections first, then step extensions under the
    /// sleep set `sleep[base..]`, with failure-detector variants as
    /// siblings of query steps. On return the cursor is back at the entry
    /// node (possibly dirty) and the picks are the entry node's; the sleep
    /// set may have grown.
    fn expand(&mut self, base: usize, steps_used: usize) {
        // The parent's run view is read now, while the cursor is clean; it
        // is not revisited once children start moving the session.
        let finished: ProcessSet = {
            let run = self.cursor.run();
            (0..self.cfg.n_plus_1)
                .map(ProcessId)
                .filter(|&p| run.finished(p))
                .collect()
        };

        if faults_in(&self.path) < self.cfg.max_faults {
            for i in 0..self.cfg.n_plus_1 {
                let p = ProcessId(i);
                if crashed_in(&self.path, p) || !crash_allowed(&self.path, p) {
                    continue;
                }
                if self.stops() {
                    return;
                }
                self.path.push(Choice::Crash(p));
                self.cursor.push_crash(p, &self.picks);
                self.stats.crash_nodes += 1;
                // No step child has finished yet, so a crash child's sleep
                // set is this node's: it shares the frame.
                self.visit(base, steps_used);
                self.cursor.pop();
                self.path.pop();
            }
        }

        for i in 0..self.cfg.n_plus_1 {
            let p = ProcessId(i);
            if !self.participants[i] || crashed_in(&self.path, p) || finished.contains(p) {
                continue;
            }
            if self.cfg.reduction && self.sleep[base..].iter().any(|(q, _)| *q == p) {
                self.stats.sleep_pruned += 1;
                continue;
            }
            if self.stops() {
                return;
            }
            self.path.push(Choice::Step(p));
            if !self.cursor.push_step(p, &self.picks) {
                self.stats.no_step_children += 1;
                self.path.pop();
                continue;
            }
            let fp = self.cursor.last_footprint(&mut self.resolve_memo);
            let query = self.cursor.last_query();
            // The child's sleep set: this node's entries independent of the
            // step, stacked above this node's frame.
            let child = self.sleep.len();
            for e in base..child {
                if !self.sleep[e].1.conflicts_with(&fp) {
                    let entry = self.sleep[e].clone();
                    self.sleep.push(entry);
                }
            }
            self.visit(child, steps_used + 1);

            // Sibling branches for the unexplored detector candidates, each
            // playing candidate `j` at the query the step just made.
            if let Some(rec) = query {
                debug_assert_eq!(rec.pid, p);
                let script_len = self.picks[i].len();
                debug_assert!(
                    script_len <= rec.k as usize,
                    "a script holds picks of earlier queries only"
                );
                for j in 1..rec.candidates {
                    if self.stops() {
                        self.cursor.pop();
                        self.path.pop();
                        return;
                    }
                    self.picks[i].resize(rec.k as usize, 0);
                    self.picks[i].push(j);
                    self.cursor.pop();
                    let stepped = self.cursor.push_step(p, &self.picks);
                    debug_assert!(stepped, "a query step steps under every candidate");
                    self.stats.fd_variant_nodes += 1;
                    self.visit(child, steps_used + 1);
                    self.picks[i].truncate(script_len);
                }
            }
            self.sleep.truncate(child);
            self.cursor.pop();
            self.path.pop();
            if self.cfg.reduction {
                self.sleep.push((p, fp));
            }
        }
    }

    fn record(&mut self, spec: String, message: String) {
        let raw_token = token_of(self.cfg.n_plus_1, &self.path, &self.picks);
        let (token, shrink_evals, shrink_removed) = if self.cfg.shrink {
            shrink_path(self.cfg, &self.path, &self.picks, &spec)
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
/// same report at any worker count. With `split_depth > 0` a serial prefix
/// walk collects every subtree at the split depth, the subtrees run on the
/// worker pool ([`run_batch`]), and results merge as the prefix walk's
/// first, then each subtree's in discovery order — which reproduces the
/// serial discovery order byte for byte.
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
    let frontier = (cfg.split_depth > 0).then(Vec::new);
    let mut explorer = Explorer::at(cfg, &participants, &[], root_picks, Vec::new(), frontier);
    explorer.visit(0, 0);
    let Explorer {
        mut stats,
        mut violations,
        frontier,
        ..
    } = explorer;
    let frontier = frontier.unwrap_or_default();
    let frontier_jobs = frontier.len();

    // Boxed, so the pool is not monomorphised over the subtree body.
    type SubtreeJob<'j> = Box<dyn FnOnce() -> (CheckStats, Vec<CounterExample>) + Send + 'j>;
    let participants: &[bool] = &participants;
    let jobs: Vec<SubtreeJob<'_>> = frontier
        .into_iter()
        .map(|job| -> SubtreeJob<'_> {
            Box::new(move || {
                let mut sub =
                    Explorer::at(cfg, participants, &job.path, job.picks, job.sleep, None);
                sub.expand(0, job.steps_used);
                (sub.stats, sub.violations)
            })
        })
        .collect();
    for (s, v) in run_batch(jobs, cfg.workers) {
        stats.absorb(s);
        violations.extend(v);
    }
    if violations.len() > cfg.max_violations {
        violations.truncate(cfg.max_violations);
    }
    CheckReport {
        stats,
        violations,
        frontier_jobs,
    }
}
