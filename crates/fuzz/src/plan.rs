//! Execution plans: the deterministic recipe for one fuzzed run.
//!
//! A plan fixes everything the simulator quantifies over — the failure
//! pattern, the failure-detector pick script, and the scheduler (a scripted
//! prefix spliced into a PCT or uniform-random tail). Plans are generated
//! or mutated from a per-execution RNG that depends only on the campaign
//! seed and the execution index, so a campaign's runs are reproducible
//! one by one.

use crate::campaign::FuzzConfig;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use upsilon_check::{CheckConfig, MenuOracle};
use upsilon_sim::{
    Adversary, FailurePattern, FdValue, Memory, PctScheduler, ProcessId, ReplayToken, Run,
    RunArena, Scripted, SeededRandom, SimBuilder, Time,
};

/// Values drawn for fd pick scripts: menus in practice offer at most a
/// handful of candidates and the menu oracle clamps overshoots, so a small
/// range keeps mutations meaningful without losing any reachable pick.
const PICK_RANGE: u32 = 4;

/// Upper bound on the length of a freshly generated pick script; queries
/// past the script default to candidate 0 (the base history).
const PICK_SCRIPT_LEN: usize = 6;

/// One fully determined fuzz execution.
#[derive(Clone, Debug)]
pub(crate) struct ExecPlan {
    /// Crash time per process (`None` = correct), within the target's
    /// fault budget.
    pub crashes: Vec<Option<Time>>,
    /// Failure-detector candidate picks, per process.
    pub picks: Vec<Vec<u32>>,
    /// Scripted schedule prefix (empty for fresh executions).
    pub prefix: Vec<ProcessId>,
    /// `Some((seed, depth))` drives the tail with a PCT scheduler; `None`
    /// with the uniform seeded-random scheduler.
    pub pct: Option<(u64, usize)>,
    /// Seed of the uniform tail scheduler when `pct` is `None`.
    pub sched_seed: u64,
}

/// The result of running one plan: the canonical replay token plus the run
/// and memory needed for coverage and spec checking.
#[derive(Debug)]
pub(crate) struct PlanExec<D: FdValue> {
    pub token: ReplayToken,
    pub run: Run<D>,
    pub memory: Memory,
}

fn draw_tail<D: FdValue>(cfg: &FuzzConfig<D>, rng: &mut ChaCha8Rng) -> (Option<(u64, usize)>, u64) {
    let seed = rng.next_u64();
    if rng.gen_range(0..100u32) < cfg.pct_share {
        (Some((seed, rng.gen_range(1..=cfg.pct_depth.max(1)))), seed)
    } else {
        (None, seed)
    }
}

fn fault_budget<D: FdValue>(target: &CheckConfig<D>) -> usize {
    target.max_faults.min(target.n_plus_1.saturating_sub(1))
}

/// A plan drawn from scratch: random crashes within the fault budget,
/// short random pick scripts, and a PCT or uniform scheduler.
pub(crate) fn fresh_plan<D: FdValue>(cfg: &FuzzConfig<D>, rng: &mut ChaCha8Rng) -> ExecPlan {
    let n = cfg.target.n_plus_1;
    let horizon = cfg.target.depth as u64;
    let budget = fault_budget(&cfg.target);
    let faults = if budget == 0 {
        0
    } else {
        rng.gen_range(0..=budget)
    };
    // Fisher–Yates over process indices; the first `faults` crash.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut crashes = vec![None; n];
    for &p in order.iter().take(faults) {
        crashes[p] = Some(Time(rng.gen_range(0..=horizon)));
    }
    let picks = (0..n)
        .map(|_| {
            let len = rng.gen_range(0..=PICK_SCRIPT_LEN);
            (0..len).map(|_| rng.gen_range(0..PICK_RANGE)).collect()
        })
        .collect();
    let (pct, sched_seed) = draw_tail(cfg, rng);
    ExecPlan {
        crashes,
        picks,
        prefix: Vec::new(),
        pct,
        sched_seed,
    }
}

/// A plan derived from a corpus entry by one mutation: a crash move/add/
/// remove (kept within the fault budget), a failure-detector pick tweak,
/// or a schedule splice (truncate the recorded schedule and let a fresh
/// scheduler finish the run). The untouched dimensions replay the corpus
/// entry exactly, so mutants stay near the interesting behaviour that
/// earned the entry its place.
pub(crate) fn mutate_plan<D: FdValue>(
    cfg: &FuzzConfig<D>,
    base: &ReplayToken,
    rng: &mut ChaCha8Rng,
) -> ExecPlan {
    let n = cfg.target.n_plus_1;
    let horizon = cfg.target.depth as u64;
    let mut crashes = base.crashes.clone();
    let mut picks = base.fd_choices.clone();
    picks.resize(n, Vec::new());
    let mut prefix = base.schedule.clone();
    match rng.gen_range(0..3u32) {
        0 => {
            // Crash tweak. Adding is bounded by the fault budget; the base
            // already satisfies it, so one undo restores validity.
            let p = rng.gen_range(0..n);
            if crashes[p].is_some() && rng.gen_bool(0.5) {
                crashes[p] = None;
            } else {
                crashes[p] = Some(Time(rng.gen_range(0..=horizon)));
                if crashes.iter().flatten().count() > fault_budget(&cfg.target) {
                    crashes[p] = None;
                }
            }
        }
        1 => {
            // Failure-detector pick tweak: overwrite or append one pick.
            let p = rng.gen_range(0..n);
            let k = rng.gen_range(0..=picks[p].len());
            let v = rng.gen_range(0..PICK_RANGE);
            if k == picks[p].len() {
                picks[p].push(v);
            } else {
                picks[p][k] = v;
            }
        }
        _ => {
            // Schedule splice: keep a prefix, fresh tail scheduler.
            let cut = rng.gen_range(0..=prefix.len());
            prefix.truncate(cut);
        }
    }
    let (pct, sched_seed) = draw_tail(cfg, rng);
    ExecPlan {
        crashes,
        picks,
        prefix,
        pct,
        sched_seed,
    }
}

/// Runs a plan live and packs the outcome into a
/// canonical [`ReplayToken`]: the recorded schedule, crash times clamped to
/// the schedule length (a crash after the last step is equivalent — same
/// events, same `correct(F)`), and pick scripts normalized to the picks the
/// menu oracle actually served. The token re-executes the run
/// bit-identically via [`upsilon_check::run_token`].
pub(crate) fn run_plan<D: FdValue>(
    target: &CheckConfig<D>,
    plan: ExecPlan,
    arena: &mut RunArena<D>,
) -> PlanExec<D> {
    let n = target.n_plus_1;
    let horizon = target.depth as u64;
    let mut pb = FailurePattern::builder(n);
    for (i, t) in plan.crashes.iter().enumerate() {
        if let Some(t) = t {
            pb = pb.crash(ProcessId(i), *t);
        }
    }
    let oracle = MenuOracle::new(std::sync::Arc::clone(&target.menu), n, plan.picks);
    let log = oracle.log();
    let tail: Box<dyn Adversary> = match plan.pct {
        Some((seed, depth)) => Box::new(PctScheduler::new(seed, depth, horizon.max(1))),
        None => Box::new(SeededRandom::new(plan.sched_seed)),
    };
    let mut builder = SimBuilder::<D>::new(pb.build())
        .oracle(oracle)
        .adversary(Scripted::then(plan.prefix, tail))
        .max_steps(horizon);
    for (i, a) in (target.algos)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let outcome = builder.run_with(arena);
    let schedule = outcome.run.schedule();
    let len = schedule.len() as u64;
    let crashes: Vec<Option<Time>> = plan
        .crashes
        .iter()
        .map(|c| c.map(|t| Time(t.0.min(len))))
        .collect();
    let mut fd_choices: Vec<Vec<u32>> = vec![Vec::new(); n];
    for q in log.lock().expect("query log lock").iter() {
        let script = &mut fd_choices[q.pid.index()];
        if script.len() <= q.k as usize {
            script.resize(q.k as usize + 1, 0);
        }
        script[q.k as usize] = q.pick;
    }
    PlanExec {
        token: ReplayToken {
            n_plus_1: n,
            crashes,
            fd_choices,
            schedule,
        },
        run: outcome.run,
        memory: outcome.memory,
    }
}
