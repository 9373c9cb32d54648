//! Bounded model checking: the k-converge properties (§5.1) and snapshot
//! containment verified over **every** interleaving of small
//! configurations — not a sample, the whole space.
//!
//! Each sweep is one run of the sleep-set explorer (`upsilon_check::check`)
//! over a test-local harness. Every exploration is complete in debug
//! builds too: no budget cuts it short (`!truncated`), and the depth
//! exceeds the harness's total step count, so no path stops at the depth
//! bound (`depth_leaves == 0`) — every path ends with every process that
//! did not crash finished. Node counts are pinned.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use upsilon_check::{check, AlgoFactory, CheckConfig, CheckReport, ConstantMenu, RunSpec};
use upsilon_sim::{algo, Key, Output, ProcessId, Run};
use weakest_failure_detector::converge::{ConvergeFaults, ConvergeInstance};
use weakest_failure_detector::mem::{NativeSnapshot, Snapshot, SnapshotFlavor};

/// Steps of one converge harness process on native snapshots: two
/// updates, two scans and the output step.
const CONVERGE_STEPS: usize = 5;

/// Each process runs one `k`-converge on its input over native snapshots,
/// then takes one output step: `decide(picked)` if it committed,
/// `output(Value(picked))` otherwise.
fn converge_factory(inputs: &[u64], k: usize, faults: ConvergeFaults) -> AlgoFactory<()> {
    let inputs = inputs.to_vec();
    Arc::new(move || {
        let n_plus_1 = inputs.len();
        inputs
            .iter()
            .map(|&v| {
                Some(algo(move |mut ctx| async move {
                    let inst =
                        ConvergeInstance::new(Key::new("cv"), n_plus_1, SnapshotFlavor::Native)
                            .with_faults(faults);
                    let (picked, committed) = inst.converge(&mut ctx, k, v).await;
                    if committed {
                        ctx.decide(picked).await;
                    } else {
                        ctx.output(Output::Value(picked)).await;
                    }
                }))
            })
            .collect()
    })
}

/// Each process's pick as `(value, committed)`, `None` before it picks.
type Picks = Vec<Option<(u64, bool)>>;

/// The picks a converge run has output so far.
fn picks(run: &Run<()>) -> Picks {
    run.last_outputs()
        .into_iter()
        .map(|o| match o? {
            Output::Decide(v) => Some((v, true)),
            Output::Value(v) => Some((v, false)),
            other => panic!("unexpected converge output {other}"),
        })
        .collect()
}

/// Whether every process that did not crash has picked.
fn complete(run: &Run<()>) -> bool {
    let picks = picks(run);
    (0..run.n_plus_1())
        .all(|i| picks[i].is_some() || run.pattern().crash_time(ProcessId(i)).is_some())
}

/// The §5.1 k-converge properties, checked on every explored node. A
/// node's run is a prefix of longer runs, and each property is closed
/// under prefixes: a process that has not stepped yet is, to the others,
/// one that crashed before invoking the routine.
struct ConvergeSpec {
    inputs: Vec<u64>,
    k: usize,
}

impl RunSpec<()> for ConvergeSpec {
    fn name(&self) -> &str {
        "k-converge"
    }

    fn check(&self, run: &Run<()>) -> Result<(), String> {
        let picks = picks(run);
        // C-Termination: with `depth_leaves == 0` every path ends with every
        // non-crashed process finished; a finished process has picked.
        if let Some(i) =
            (0..picks.len()).find(|&i| run.finished(ProcessId(i)) && picks[i].is_none())
        {
            return Err(format!(
                "C-Termination: {} finished without picking",
                ProcessId(i)
            ));
        }
        let picked: BTreeSet<u64> = picks.iter().flatten().map(|&(v, _)| v).collect();
        if let Some(v) = picked.iter().find(|v| !self.inputs.contains(v)) {
            return Err(format!("C-Validity: {v} picked but never proposed"));
        }
        // For k = 1 this is commit-adopt's rule: a commit forces unanimity.
        if picks.iter().flatten().any(|&(_, c)| c) && picked.len() > self.k {
            return Err(format!(
                "C-Agreement: a commit with {picked:?} picked (k = {})",
                self.k
            ));
        }
        let proposed: BTreeSet<u64> = (0..picks.len())
            .filter(|&i| run.steps_by()[i] > 0)
            .map(|i| self.inputs[i])
            .collect();
        if proposed.len() <= self.k && picks.iter().flatten().any(|&(_, c)| !c) {
            return Err(format!(
                "Convergence: {proposed:?} proposed (k = {}) but {picks:?} picked",
                self.k
            ));
        }
        Ok(())
    }
}

/// A named property; its function recognises the runs that break it.
struct Property(&'static str, fn(&Run<()>) -> bool);

impl RunSpec<()> for Property {
    fn name(&self) -> &str {
        self.0
    }

    fn check(&self, run: &Run<()>) -> Result<(), String> {
        if (self.1)(run) {
            Err(format!("outputs {:?}", run.last_outputs()))
        } else {
            Ok(())
        }
    }
}

/// Records the per-process outputs of every complete run it sees.
struct Outcomes(Arc<Mutex<BTreeSet<Picks>>>);

impl RunSpec<()> for Outcomes {
    fn name(&self) -> &str {
        "outcomes"
    }

    fn check(&self, run: &Run<()>) -> Result<(), String> {
        if complete(run) {
            self.0.lock().unwrap().insert(picks(run));
        }
        Ok(())
    }
}

/// The converge sweep over `inputs`, with its spec and a depth one past the
/// harness's total step count.
fn converge(inputs: &[u64], k: usize, faults: ConvergeFaults) -> CheckConfig<()> {
    let n_plus_1 = inputs.len();
    let depth = n_plus_1 * CONVERGE_STEPS + 1;
    CheckConfig::new(
        n_plus_1,
        depth,
        converge_factory(inputs, k, faults),
        Arc::new(ConstantMenu(())),
    )
    .spec(ConvergeSpec {
        inputs: inputs.to_vec(),
        k,
    })
}

/// Runs a sweep that must come back clean and complete; returns its node
/// count.
fn explore_clean(cfg: &CheckConfig<()>) -> u64 {
    let report = check(cfg);
    assert!(report.ok(), "{:?}", report.violations[0]);
    assert_complete(&report);
    report.stats.nodes
}

fn assert_complete(report: &CheckReport) {
    assert!(!report.stats.truncated, "the node budget cut the search");
    assert_eq!(
        report.stats.depth_leaves, 0,
        "a path reached the depth bound"
    );
}

/// Runs a search that must find a counterexample; returns the violated
/// spec, its message and the node count. The search stops at its first
/// counterexample, which the violation budget allows, so the node budget
/// never cuts it; no path may still reach the depth bound.
fn refute(cfg: &CheckConfig<()>) -> (String, String, u64) {
    let report = check(cfg);
    let v = report.violations.first().expect("a counterexample");
    assert!(!report.stats.truncated, "the node budget cut the search");
    assert_eq!(
        report.stats.depth_leaves, 0,
        "a path reached the depth bound"
    );
    (v.spec.clone(), v.message.clone(), report.stats.nodes)
}

/// Commit–adopt (1-converge) between two processes over every
/// interleaving of their 10 steps, for agreeing and disagreeing inputs.
#[test]
fn commit_adopt_two_processes_every_interleaving() {
    for (inputs, nodes) in [([5u64, 5], 112), ([1, 2], 112)] {
        let cfg = converge(&inputs, 1, ConvergeFaults::default());
        assert_eq!(explore_clean(&cfg), nodes, "{inputs:?}");
    }
}

/// 2-converge among three processes with three distinct inputs — the
/// sub-routine Fig. 1's gladiators run with |U| = 3 — over every
/// interleaving, and again with up to two crashes at every point.
#[test]
fn two_converge_three_processes_every_interleaving() {
    let cfg = converge(&[1, 2, 3], 2, ConvergeFaults::default());
    assert_eq!(explore_clean(&cfg), 8_238);
    assert_eq!(explore_clean(&cfg.max_faults(2)), 57_666);
}

/// 1-converge among three processes with two distinct inputs — the mixed
/// case where commits are schedule-dependent but never unsafe. Both
/// behaviours exist: the explorer refutes "no process commits" and
/// "every complete run commits".
#[test]
fn one_converge_three_processes_every_interleaving() {
    let inputs = [7u64, 7, 9];
    let cfg = converge(&inputs, 1, ConvergeFaults::default());
    assert_eq!(explore_clean(&cfg), 8_238);

    let some_commit = cfg.clone().spec(Property("no-commit", |run| {
        picks(run).iter().flatten().any(|&(_, c)| c)
    }));
    let (spec, _, nodes) = refute(&some_commit);
    assert_eq!((spec.as_str(), nodes), ("no-commit", 6));

    let no_commit = cfg.spec(Property("every-complete-run-commits", |run| {
        complete(run) && picks(run).iter().flatten().all(|&(_, c)| !c)
    }));
    let (spec, _, nodes) = refute(&no_commit);
    assert_eq!((spec.as_str(), nodes), ("every-complete-run-commits", 312));
}

/// Snapshot containment over every interleaving of one update + scan
/// round of three processes: each process outputs its scan as a bitmask
/// of the non-empty components; every scan holds its own value, and any
/// two scans are ordered by containment.
#[test]
fn snapshot_containment_every_interleaving() {
    const N: usize = 3;
    let factory: AlgoFactory<()> = Arc::new(|| {
        (0..N)
            .map(|i| {
                Some(algo(move |mut ctx| async move {
                    let snap = NativeSnapshot::<u64>::new(Key::new("S"), N);
                    snap.update(&mut ctx, i as u64 + 1).await;
                    let scan = snap.scan(&mut ctx).await;
                    let mask = (0..N)
                        .filter(|&j| scan[j].is_some())
                        .fold(0u64, |m, j| m | 1 << j);
                    ctx.output(Output::Value(mask)).await;
                }))
            })
            .collect()
    });
    let containment = Property("scan-containment", |run| {
        let scans: Vec<(usize, u64)> = run
            .last_outputs()
            .into_iter()
            .enumerate()
            .filter_map(|(i, o)| match o? {
                Output::Value(mask) => Some((i, mask)),
                _ => None,
            })
            .collect();
        scans.iter().any(|&(i, a)| {
            a & (1 << i) == 0 || scans.iter().any(|&(_, b)| a & b != a && a & b != b)
        })
    });
    let cfg = CheckConfig::new(N, 3 * N + 1, factory, Arc::new(ConstantMenu(()))).spec(containment);
    assert_eq!(explore_clean(&cfg), 370);
}

/// Wait-freedom of commit–adopt: with either process crashed at every
/// point of every interleaving, the survivor still picks (every path ends
/// with it finished), and the safety properties hold among whatever picks
/// exist.
#[test]
fn commit_adopt_every_interleaving_every_crash_point() {
    let cfg = converge(&[4, 9], 1, ConvergeFaults::default()).max_faults(1);
    assert_eq!(explore_clean(&cfg), 336);
}

/// The reduction loses no outcome: on 2-process commit-adopt, with and
/// without a crash, the explorer with reductions off and the sleep-set
/// explorer reach the same set of terminal outcomes (the per-process picks
/// of each run in which every process that did not crash finished).
#[test]
fn sleep_sets_reach_every_brute_force_outcome() {
    let mut naive_nodes = Vec::new();
    let mut outcomes = Vec::new();
    for inputs in [[5u64, 5], [1, 2]] {
        for max_faults in [0, 1] {
            let [naive, reduced] = [false, true].map(|reduction| {
                let seen = Arc::new(Mutex::new(BTreeSet::new()));
                let cfg = converge(&inputs, 1, ConvergeFaults::default())
                    .max_faults(max_faults)
                    .reduction(reduction)
                    .spec(Outcomes(Arc::clone(&seen)));
                let report = check(&cfg);
                assert!(report.ok(), "{:?}", report.violations[0]);
                assert_complete(&report);
                if !reduction {
                    naive_nodes.push(report.stats.nodes);
                }
                drop(cfg);
                Arc::into_inner(seen).unwrap().into_inner().unwrap()
            });
            assert_eq!(naive, reduced, "{inputs:?}, max_faults = {max_faults}");
            outcomes.push(naive.len());
        }
    }
    assert_eq!(naive_nodes, [923, 2_769, 923, 2_769]);
    assert_eq!(outcomes, [1, 3, 5, 11]);
}

/// The converge spec can fail: it reports C-Agreement under each seeded
/// [`ConvergeFaults`] mutant.
#[test]
fn converge_spec_catches_seeded_faults() {
    let slack = ConvergeFaults {
        clean_slack: 1,
        ..ConvergeFaults::default()
    };
    let dropped = ConvergeFaults {
        drop_announce: Some(ProcessId(0)),
        ..ConvergeFaults::default()
    };
    let cases: [(&[u64], usize, ConvergeFaults); 5] = [
        (&[1, 2], 1, slack),
        (&[1, 2, 3], 2, slack),
        (&[1, 2], 1, dropped),
        (&[1, 2, 3], 2, dropped),
        (&[7, 7, 9], 1, dropped),
    ];
    let mut nodes = Vec::new();
    for (inputs, k, faults) in cases {
        let (_, message, n) = refute(&converge(inputs, k, faults));
        assert!(
            message.starts_with("C-Agreement"),
            "{inputs:?}, {faults:?}: {message}"
        );
        nodes.push(n);
    }
    assert_eq!(nodes, [11, 16, 10, 15, 107]);
}
