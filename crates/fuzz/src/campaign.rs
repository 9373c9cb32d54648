//! The campaign runner: deterministic rounds of randomized executions,
//! coverage-gated corpus growth, and shrunk replayable counterexamples.
//!
//! # Determinism
//!
//! Each execution's RNG is seeded from `(campaign seed, execution index)`
//! alone. A round snapshots the corpus, fans its executions out over the
//! worker pool ([`run_batch`]) in fixed-size chunks, and merges chunk
//! results *in chunk order*; whether one worker or sixteen processed the
//! chunks cannot change the report. Within a chunk, executions are gated
//! against a chunk-local coverage set (so most boring runs are dropped on
//! the worker), and the merger re-gates survivors against the global set —
//! corpus membership is therefore a pure function of the configuration.
//!
//! # Corpus discipline
//!
//! A run enters the corpus iff its [`conflict_coverage`] contributes a
//! window hash the campaign has not seen. Violating runs are reported (and
//! shrunk) instead of entering the corpus; seeding mutation from known-bad
//! runs would just rediscover the same bug.

use crate::plan::{fresh_plan, mutate_plan, run_plan};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use upsilon_check::{
    positive, run_token, shrink_violation, violation_of, AxisError, CheckConfig, ShrinkResult,
};
use upsilon_sim::{
    conflict_coverage, run_batch, FdValue, Fnv64, ReplayToken, RunArena, TokenError,
};

/// Configuration of one fuzzing campaign.
#[derive(Clone)]
pub struct FuzzConfig<D: FdValue> {
    /// The system under test: algorithms, menu, specs; `depth` is
    /// the schedule horizon and `max_faults` the crash budget per run.
    pub target: CheckConfig<D>,
    /// Campaign seed; every execution's randomness derives from it.
    pub seed: u64,
    /// Mutation rounds; the corpus snapshot feeding mutations refreshes
    /// between rounds.
    pub rounds: usize,
    /// Executions per round.
    pub execs_per_round: u64,
    /// Percentage (0–100) of fresh executions scheduled by PCT; the rest
    /// use the uniform seeded-random scheduler.
    pub pct_share: u32,
    /// Maximum PCT bug depth `d`; each PCT execution draws `d` from
    /// `1..=pct_depth`.
    pub pct_depth: usize,
    /// Percentage (0–100) of executions that mutate a corpus entry once
    /// the corpus is non-empty.
    pub mutate_share: u32,
    /// Conflict-pair window length for coverage hashes.
    pub window: usize,
    /// Executions per [`run_batch`] job (fixed, so chunk boundaries —
    /// and hence the report — do not depend on worker count).
    pub chunk: u64,
    /// Worker threads (`0` = default pool).
    pub workers: usize,
    /// Stop after this many distinct counterexamples.
    pub max_violations: usize,
    /// Minimize counterexamples with delta debugging.
    pub shrink: bool,
}

impl<D: FdValue> std::fmt::Debug for FuzzConfig<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzConfig")
            .field("seed", &self.seed)
            .field("rounds", &self.rounds)
            .field("execs_per_round", &self.execs_per_round)
            .field("pct_share", &self.pct_share)
            .field("pct_depth", &self.pct_depth)
            .field("mutate_share", &self.mutate_share)
            .field("window", &self.window)
            .field("chunk", &self.chunk)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> FuzzConfig<D> {
    /// A campaign over `target` with the default budget (4 rounds of 1024
    /// executions), a 60/40 PCT/uniform scheduler mix, 40% corpus
    /// mutations, window-4 coverage and a four-counterexample budget.
    pub fn new(target: CheckConfig<D>) -> Self {
        FuzzConfig {
            target,
            seed: 0,
            rounds: 4,
            execs_per_round: 1024,
            pct_share: 60,
            pct_depth: 3,
            mutate_share: 40,
            window: 4,
            chunk: 256,
            workers: 0,
            max_violations: 4,
            shrink: true,
        }
    }

    /// Sets the campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution budget: `rounds` rounds of `execs_per_round`.
    pub fn budget(mut self, rounds: usize, execs_per_round: u64) -> Self {
        self.rounds = rounds;
        self.execs_per_round = execs_per_round;
        self
    }

    /// Sets the worker pool for the chunk fan-out.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the counterexample budget.
    pub fn max_violations(mut self, v: usize) -> Self {
        self.max_violations = v;
        self
    }

    /// Checks the range rules [`fuzz`] relies on: the target's own
    /// ([`CheckConfig::validate`]), and a positive schedule horizon,
    /// coverage window, chunk size and round size.
    ///
    /// # Errors
    ///
    /// Returns the [`AxisError`] of the first axis out of range.
    pub fn validate(&self) -> Result<(), AxisError> {
        self.target.validate()?;
        positive("depth", self.target.depth as u64)?;
        positive("window", self.window as u64)?;
        positive("chunk", self.chunk)?;
        positive("execs_per_round", self.execs_per_round)
    }
}

/// A violation found (and optionally shrunk) by a campaign.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzViolation {
    /// Name of the violated specification.
    pub spec: String,
    /// The violation message from the spec checker.
    pub message: String,
    /// Minimized replayable token (equals `raw_token` when shrinking is
    /// off).
    pub token: ReplayToken,
    /// The token of the execution that first hit the violation.
    pub raw_token: ReplayToken,
    /// Predicate evaluations the shrink spent.
    pub shrink_evals: u64,
    /// Choices removed by the shrink.
    pub shrink_removed: usize,
    /// Execution index that found it (`0` for corpus seed replays).
    pub exec: u64,
}

/// One point of the coverage growth curve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoveragePoint {
    /// Executions completed when the point was taken.
    pub execs: u64,
    /// Distinct coverage hashes accumulated by then.
    pub coverage: u64,
}

/// The result of [`fuzz`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzReport {
    /// Executions performed (excluding corpus seed replays).
    pub execs: u64,
    /// The global coverage set, sorted.
    pub coverage_hashes: Vec<u64>,
    /// Corpus entries in discovery order (seed entries first).
    pub corpus: Vec<ReplayToken>,
    /// Coverage growth, one point per round.
    pub growth: Vec<CoveragePoint>,
    /// Distinct counterexamples, in discovery order.
    pub violations: Vec<FuzzViolation>,
    /// Whether the violation budget cut the campaign short.
    pub truncated: bool,
}

impl FuzzReport {
    /// Whether the campaign found no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays a token and returns its coverage fingerprint —
/// the round-trip used by corpus integrity checks and property tests.
///
/// # Errors
///
/// Returns a [`TokenError`] when the token's process count differs from
/// the target's.
pub fn coverage_of_token<D: FdValue>(
    target: &CheckConfig<D>,
    token: &ReplayToken,
    window: usize,
) -> Result<Vec<u64>, TokenError> {
    let exec = run_token(target, token)?;
    Ok(conflict_coverage(&exec.run, &exec.memory, window))
}

/// Per-execution RNG seed: a stable hash of campaign seed and index.
fn exec_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(campaign_seed);
    h.write_u64(index);
    h.finish()
}

/// A chunk survivor shipped to the merger.
struct Shipped {
    index: u64,
    token: ReplayToken,
    coverage: Vec<u64>,
    violation: Option<(String, String)>,
}

fn run_chunk<D: FdValue>(
    cfg: &FuzzConfig<D>,
    snapshot: &[ReplayToken],
    range: Range<u64>,
) -> Vec<Shipped> {
    let mut local: BTreeSet<u64> = BTreeSet::new();
    let mut shipped_specs: Vec<String> = Vec::new();
    let mut out = Vec::new();
    // One arena per chunk: every execution in the chunk reuses the same
    // trace-vector allocations (see `RunArena`).
    let mut arena = RunArena::new();
    for index in range {
        let mut rng = ChaCha8Rng::seed_from_u64(exec_seed(cfg.seed, index));
        let plan = if !snapshot.is_empty() && rng.gen_range(0..100u32) < cfg.mutate_share {
            let base = &snapshot[rng.gen_range(0..snapshot.len())];
            mutate_plan(cfg, base, &mut rng)
        } else {
            fresh_plan(cfg, &mut rng)
        };
        let exec = run_plan(&cfg.target, plan, &mut arena);
        let coverage = conflict_coverage(&exec.run, &exec.memory, cfg.window);
        let violation = violation_of(&cfg.target, &exec.run);
        let fresh = coverage.iter().any(|h| !local.contains(h));
        local.extend(coverage.iter().copied());
        match &violation {
            // One shipped counterexample per spec per chunk bounds the
            // merger's shrink work on buggy targets.
            Some((spec, _)) if !shipped_specs.contains(spec) => {
                shipped_specs.push(spec.clone());
                out.push(Shipped {
                    index,
                    token: exec.token,
                    coverage,
                    violation,
                });
            }
            Some(_) => {}
            None if fresh => out.push(Shipped {
                index,
                token: exec.token,
                coverage,
                violation: None,
            }),
            None => {}
        }
        arena.recycle(exec.run);
    }
    out
}

struct Merger<'a, D: FdValue> {
    cfg: &'a FuzzConfig<D>,
    global: BTreeSet<u64>,
    corpus: Vec<ReplayToken>,
    violations: Vec<FuzzViolation>,
    truncated: bool,
}

impl<D: FdValue> Merger<'_, D> {
    fn absorb_violation(&mut self, token: ReplayToken, spec: String, message: String, exec: u64) {
        if self.violations.len() >= self.cfg.max_violations {
            self.truncated = true;
            return;
        }
        let shrunk = if self.cfg.shrink {
            shrink_violation(&self.cfg.target, &token, &spec)
        } else {
            ShrinkResult {
                token: token.clone(),
                evals: 0,
                removed: 0,
            }
        };
        if self
            .violations
            .iter()
            .any(|v| v.spec == spec && v.token == shrunk.token)
        {
            return;
        }
        self.violations.push(FuzzViolation {
            spec,
            message,
            token: shrunk.token,
            raw_token: token,
            shrink_evals: shrunk.evals,
            shrink_removed: shrunk.removed,
            exec,
        });
    }

    fn absorb(&mut self, ship: Shipped) {
        let fresh = ship.coverage.iter().any(|h| !self.global.contains(h));
        self.global.extend(ship.coverage);
        match ship.violation {
            Some((spec, message)) => self.absorb_violation(ship.token, spec, message, ship.index),
            None if fresh => self.corpus.push(ship.token),
            None => {}
        }
    }
}

/// Runs a fuzzing campaign. `seeds` are corpus entries from earlier
/// campaigns (or hand-written tokens); they are replayed first to prime the
/// coverage set, and foreign seeds (wrong process count) are skipped.
/// Deterministic: the same configuration and seeds yield the same report,
/// regardless of worker count.
///
/// # Panics
///
/// Panics if [`FuzzConfig::validate`] rejects the configuration.
pub fn fuzz<D: FdValue>(cfg: &FuzzConfig<D>, seeds: &[ReplayToken]) -> FuzzReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }

    let mut merger = Merger {
        cfg,
        global: BTreeSet::new(),
        corpus: Vec::new(),
        violations: Vec::new(),
        truncated: false,
    };

    // Prime coverage from the seed corpus (serial; corpora are small
    // relative to a round).
    for tok in seeds {
        let Ok(exec) = run_token(&cfg.target, tok) else {
            continue;
        };
        let coverage = conflict_coverage(&exec.run, &exec.memory, cfg.window);
        let violation = violation_of(&cfg.target, &exec.run);
        merger.absorb(Shipped {
            index: 0,
            token: tok.clone(),
            coverage,
            violation,
        });
    }

    let mut growth = Vec::new();
    let mut execs = 0u64;
    for _round in 0..cfg.rounds {
        if merger.violations.len() >= cfg.max_violations {
            merger.truncated = true;
            break;
        }
        let snapshot: Arc<[ReplayToken]> = merger.corpus.clone().into();
        let round_end = execs + cfg.execs_per_round;
        // Boxed, so the pool is not monomorphised over the chunk body.
        let mut jobs: Vec<Box<dyn FnOnce() -> Vec<Shipped> + Send + '_>> = Vec::new();
        let mut start = execs;
        while start < round_end {
            let end = (start + cfg.chunk).min(round_end);
            let snap = Arc::clone(&snapshot);
            jobs.push(Box::new(move || run_chunk(cfg, &snap, start..end)));
            start = end;
        }
        // The pool returns results in job order, so the merge below is
        // identical for any worker count.
        for shipped in run_batch(jobs, cfg.workers) {
            for ship in shipped {
                merger.absorb(ship);
            }
        }
        execs = round_end;
        growth.push(CoveragePoint {
            execs,
            coverage: merger.global.len() as u64,
        });
    }
    if merger.violations.len() >= cfg.max_violations {
        merger.truncated = true;
    }

    FuzzReport {
        execs,
        coverage_hashes: merger.global.into_iter().collect(),
        corpus: merger.corpus,
        growth,
        violations: merger.violations,
        truncated: merger.truncated,
    }
}
