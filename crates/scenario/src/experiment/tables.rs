//! The E1–E16 tables of EXPERIMENTS.md, one function per experiment.
//! [`render`] runs the experiments named by [`TABLES`] ids and returns the
//! markdown the `upsilon-scenario experiments` command prints; the
//! root-level `experiments_doc` test holds EXPERIMENTS.md to it.
//!
//! Every agreement run goes through `AgreementOutcome::assert_ok`, so a
//! table that renders is a table whose runs met the task spec and the §3.3
//! run conditions.

use upsilon_core::experiment::{
    run_boost, run_fig1, run_fig2, run_fig3, run_omega_consensus, run_upsilon1_consensus,
    run_upsilon1_to_omega, staggered_crashes, AgreementConfig, Sched, StableSource,
};
use upsilon_core::extract::{all_candidates, play, GameConfig, GameVerdict};
use upsilon_core::fd::{
    check_omega, check_upsilon, omega_from_upsilon_two_proc, upsilon_from_omega, LeaderChoice,
    OmegaKChoice, OmegaOracle, UpsilonChoice, UpsilonNoise, UpsilonOracle,
};
use upsilon_core::sim::{
    FailurePattern, Oracle, Output, ProcessId, ProcessSet, SeededRandom, SimBuilder, Time,
};
use upsilon_core::stats::Summary;
use upsilon_core::table::Table;

use crate::matrix::Verdict;
use crate::{EvidenceRecord, Scalar};

/// An experiment id and the function rendering its table.
type Experiment = (&'static str, fn() -> String);

/// Every experiment by id, in document order.
pub const TABLES: &[Experiment] = &[
    ("E1", e1_fig1),
    ("E2", e2_fig2),
    ("E3", e3_fig3),
    ("E4", e4_theorem1),
    ("E5", e5_theorem5),
    ("E6", e6_two_process_equivalence),
    ("E7", e7_upsilon1),
    ("E8", e8_boosting),
    ("E9", e9_baseline),
    ("E10", e10_converge),
    ("E11", e11_snapshots),
    ("E12", e12_remark),
    ("E13", e13_hierarchy),
    ("E14", e14_ablation),
    ("E15", e15_latency_curve),
    ("E16", e16_faithful_zoo),
];

/// Renders the named experiments' tables in [`TABLES`] order, under a
/// two-line header; no ids means every experiment. Ids match
/// case-insensitively.
///
/// # Errors
///
/// An id that names no experiment; the message lists the valid ids. No
/// experiment runs then.
///
/// # Panics
///
/// Panics if an experiment's run misses its specification.
pub fn render<S: AsRef<str>>(ids: &[S]) -> Result<String, String> {
    let names = |arg: &S, id: &str| arg.as_ref().eq_ignore_ascii_case(id);
    if let Some(bad) = ids
        .iter()
        .find(|a| !TABLES.iter().any(|(id, _)| names(a, id)))
    {
        let valid: Vec<&str> = TABLES.iter().map(|(id, _)| *id).collect();
        return Err(format!(
            "unknown experiment {:?}; expected one of {}",
            bad.as_ref(),
            valid.join(" ")
        ));
    }
    let mut out = String::from(
        "# Experiments — \"On the weakest failure detector ever\"\n\n\
         (regenerate with `cargo run --release -p upsilon-scenario -- experiments`)\n\n",
    );
    for (id, table) in TABLES {
        if ids.is_empty() || ids.iter().any(|a| names(a, id)) {
            out.push_str(&table());
        }
    }
    Ok(out)
}

/// The canonical worst-case configuration for latency experiments:
/// lock-step scheduling and constant-Π noise, so decisions genuinely wait
/// for Υ's stabilization.
fn worst_case_config(pattern: FailurePattern, stabilize_at: Time) -> AgreementConfig {
    AgreementConfig::new(pattern)
        .sched(Sched::RoundRobin)
        .noise(UpsilonNoise::ConstantAll)
        .stabilize_at(stabilize_at)
}

/// E16 (§6.1): faithful detectors with *computed* witness maps. Each row is
/// a different detector — the output value the detector reveals about the
/// correct set ranges from a single parity bit to the minimum identifier —
/// and every one of them emulates Υ through Fig. 3 with a φ obtained by
/// brute-force enumeration, not hand-written analysis.
fn e16_faithful_zoo() -> String {
    use upsilon_core::extract::{extraction_algorithm, FaithfulSpec};
    use upsilon_core::fd::{check_upsilon_f, held_variable_samples};

    let n_plus_1 = 4usize;
    let f = 3usize;
    let pattern = FailurePattern::builder(4)
        .crash(ProcessId(1), Time(9_000))
        .build();

    let mut t = Table::new(
        "E16 — §6.1: faithful detectors with computed φ (n+1 = 4, crash p2@9000)",
        &[
            "detector (reveals…)",
            "stable output",
            "emulated Υ set",
            "Υ spec",
        ],
    );

    // Each zoo member: label + output function of the correct set.
    type ZooFn = Box<dyn FnMut(ProcessSet) -> u64>;
    let zoo: Vec<(&str, ZooFn)> = vec![
        (
            "parity of |correct|",
            Box::new(|c: ProcessSet| (c.len() % 2) as u64),
        ),
        (
            "whether |correct| ≥ 3",
            Box::new(|c: ProcessSet| u64::from(c.len() >= 3)),
        ),
        (
            "min id of correct",
            Box::new(|c: ProcessSet| c.min().expect("non-empty").index() as u64),
        ),
        ("|correct| itself", Box::new(|c: ProcessSet| c.len() as u64)),
    ];

    for (label, func) in zoo {
        let spec = FaithfulSpec::from_fn(n_plus_1, func);
        assert!(spec.is_non_trivial(), "{label}");
        let phi = spec.compute_phi(f);
        let oracle = spec.oracle(&pattern, Time(100), 11);
        let stable = spec.output_for(pattern.correct());
        let run = SimBuilder::<u64>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(11))
            .max_steps(40_000)
            .spawn_all(|_| extraction_algorithm(phi.clone()))
            .run()
            .run;
        let published: Vec<_> = run
            .outputs()
            .iter()
            .filter_map(|(tm, p, o)| match o {
                Output::LeaderSet(s) => Some((*tm, *p, *s)),
                _ => None,
            })
            .collect();
        let samples = held_variable_samples(n_plus_1, &published, Time(run.total_steps()));
        let (set, verdict) = match check_upsilon_f(&pattern, f, &samples, 1) {
            Ok(r) => (r.value.to_string(), "satisfied".to_string()),
            Err(e) => ("-".to_string(), format!("VIOLATED: {e}")),
        };
        t.row([label.to_string(), stable.to_string(), set, verdict]);
    }
    format!(
        "{t}\n(Four different single-number summaries of the correct set; φ computed by\n\
         enumerating the 15 candidate correct sets each time. All emulate Υ.)\n\n"
    )
}

/// E15 (the Termination proof of Theorem 2 as a curve): under worst-case
/// noise and lock-step scheduling, decision time is an affine function of
/// Υ's stabilization time — slope 1, protocol-sized intercept.
fn e15_latency_curve() -> String {
    let mut t = Table::new(
        "E15 — Fig. 1 decision time vs Υ stabilization time (worst case, n+1 = 4)",
        &[
            "stab time",
            "decided by",
            "overhead (steps past stab)",
            "rounds",
        ],
    );
    for stab in [100u64, 200, 400, 800, 1_600, 3_200] {
        let out = run_fig1(
            &worst_case_config(FailurePattern::failure_free(4), Time(stab)),
            UpsilonChoice::default(),
        );
        out.assert_ok();
        let decided = out.decided_by.expect("terminates").value();
        t.row([
            stab.to_string(),
            decided.to_string(),
            (decided - stab).to_string(),
            out.rounds.to_string(),
        ]);
    }
    format!(
        "{t}\n(The overhead column is flat: the decision always lands one protocol\n\
         round after stabilization — the curve's slope in stab time is exactly 1.)\n\n"
    )
}

/// E14 (ablation): Fig. 2's line 25 snapshot-minimum adoption is what
/// carries Termination when every citizen is faulty. Scenario: n+1 = 4,
/// f = 2, Υ² pinned to U = {p1,p2,p3}; p3 and p4 crash after contributing
/// their proposals but before any round resolves; only the gladiators
/// p1, p2 survive and must shrink to |U|+f−n−1 = 1 value via the snapshot.
fn e14_ablation() -> String {
    use upsilon_core::agreement::Fig2Config;
    use upsilon_core::experiment::run_fig2_custom;
    use upsilon_core::mem::SnapshotFlavor;

    let mut t = Table::new(
        "E14 — ablation: Fig. 2 without the line 25 min-adoption",
        &["variant", "decided", "terminated", "steps"],
    );
    let pattern = FailurePattern::builder(4)
        .crash(ProcessId(2), Time(20))
        .crash(ProcessId(3), Time(20))
        .build();
    let stable = ProcessSet::from_iter([ProcessId(0), ProcessId(1), ProcessId(2)]);
    for (label, fig2_cfg) in [
        (
            "faithful (min adoption)",
            Fig2Config {
                flavor: SnapshotFlavor::Native,
                ..Fig2Config::new(2)
            },
        ),
        (
            "ablated (keep own value)",
            Fig2Config {
                flavor: SnapshotFlavor::Native,
                ..Fig2Config::ablated(2)
            },
        ),
    ] {
        let cfg = AgreementConfig::new(pattern.clone())
            .sched(Sched::RoundRobin)
            .stabilize_at(Time(0))
            .max_steps(60_000);
        // Pin the stable set so both variants face the identical oracle.
        let out = run_fig2_custom(&cfg, fig2_cfg, UpsilonChoice::Fixed(stable));
        let terminated = out.decided_by.is_some();
        t.row([
            label.to_string(),
            format!("{:?}", out.distinct),
            terminated.to_string(),
            out.total_steps.to_string(),
        ]);
        if fig2_cfg.ablate_min_adoption {
            assert!(
                !terminated,
                "the ablated variant must miss Termination here"
            );
        } else {
            out.assert_ok();
        }
    }
    format!(
        "{t}\n(Same oracle, same schedule, same crashes: only the adoption rule differs.\n\
         The ablated gladiators hold distinct values forever and 1-converge never\n\
         commits — Theorem 6's use of snapshot containment, made visible.)\n\n"
    )
}

/// E1 (Fig. 1 / Theorem 2): Υ + registers solve n-set-agreement wait-free.
/// Worst case (lock-step, constant-Π noise): decisions track stabilization.
/// Average case (random schedule/noise): decisions come far earlier.
fn e1_fig1() -> String {
    let mut t = Table::new(
        "E1 — Fig. 1: Υ-based n-set agreement (worst vs average case)",
        &[
            "n+1",
            "stab time",
            "worst: decided by",
            "worst steps",
            "worst rounds",
            "avg steps (10 seeds)",
            "distinct ≤ n",
        ],
    );
    for n_plus_1 in [3usize, 4, 5, 6, 8] {
        for stab in [200u64, 800] {
            let worst = run_fig1(
                &worst_case_config(FailurePattern::failure_free(n_plus_1), Time(stab)),
                UpsilonChoice::default(),
            );
            worst.assert_ok();
            let avg: Vec<u64> = (0..10)
                .map(|seed| {
                    let out = run_fig1(
                        &AgreementConfig::new(FailurePattern::failure_free(n_plus_1))
                            .seed(seed)
                            .stabilize_at(Time(stab)),
                        UpsilonChoice::default(),
                    );
                    out.assert_ok();
                    out.total_steps
                })
                .collect();
            t.row([
                n_plus_1.to_string(),
                stab.to_string(),
                worst.decided_by.expect("terminates").to_string(),
                worst.total_steps.to_string(),
                worst.rounds.to_string(),
                Summary::of(&avg).mean.to_string(),
                (worst.distinct.len() < n_plus_1).to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E2 (Fig. 2 / Theorem 6): Υ^f + registers solve f-set agreement in E_f.
fn e2_fig2() -> String {
    let mut t = Table::new(
        "E2 — Fig. 2: Υ^f-based f-resilient f-set agreement (n+1 = 5)",
        &["f", "crashes", "decided values", "distinct", "≤ f", "steps"],
    );
    for f in 1..=4usize {
        for crashes in [0usize, f] {
            let pattern = staggered_crashes(5, crashes, 40);
            let cfg = AgreementConfig::new(pattern).seed(3 + f as u64);
            let out = run_fig2(&cfg, f, UpsilonChoice::default());
            out.assert_ok();
            t.row([
                f.to_string(),
                crashes.to_string(),
                format!("{:?}", out.distinct),
                out.distinct.len().to_string(),
                (out.distinct.len() <= f).to_string(),
                out.total_steps.to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E3 (Fig. 3 / Theorem 10): Υ^f extracted from every stable detector.
fn e3_fig3() -> String {
    let mut t = Table::new(
        "E3 — Fig. 3: extraction of Υ^f from stable detectors (n+1 = 4)",
        &[
            "source D",
            "pattern",
            "f",
            "emulated stable set",
            "Υ^f spec",
        ],
    );
    let patterns = [
        FailurePattern::failure_free(4),
        FailurePattern::builder(4)
            .crash(ProcessId(1), Time(12_000))
            .build(),
        FailurePattern::builder(4)
            .crash(ProcessId(0), Time(60))
            .build(),
    ];
    for pattern in &patterns {
        for source in [
            StableSource::Omega(LeaderChoice::MinCorrect),
            StableSource::OmegaK(3, OmegaKChoice::default()),
            StableSource::OmegaK(2, OmegaKChoice::default()),
            StableSource::Perfect,
            StableSource::EventuallyPerfect,
        ] {
            let f = match source {
                StableSource::OmegaK(k, _) => k,
                _ => 3,
            };
            let out = run_fig3(pattern, source, f, Time(150), 7, 60_000);
            let (set, verdict) = match &out.report {
                Ok(r) => (r.value.to_string(), "satisfied".to_string()),
                Err(e) => ("-".to_string(), format!("VIOLATED: {e}")),
            };
            t.row([
                out.source.clone(),
                pattern.to_string(),
                f.to_string(),
                set,
                verdict,
            ]);
        }
    }
    format!("{t}\n")
}

/// E4 (Theorem 1): the adversary game defeats every Υ → Ω_n candidate; the
/// forced-change count grows linearly with the number of phases.
fn e4_theorem1() -> String {
    let mut t = Table::new(
        "E4 — Theorem 1 game: Υ cannot emulate Ω_n (n ≥ 2)",
        &["n+1", "candidate", "phases", "verdict", "forced changes"],
    );
    for n_plus_1 in [3usize, 4, 5] {
        for candidate in all_candidates() {
            for phases in [4usize, 8] {
                let verdict = play(GameConfig::theorem_1(n_plus_1, phases), candidate.as_ref());
                let label = match &verdict {
                    GameVerdict::NeverStabilizes { .. } => "never stabilizes",
                    GameVerdict::Refuted { .. } => "refuted",
                };
                t.row([
                    n_plus_1.to_string(),
                    candidate.name().to_string(),
                    phases.to_string(),
                    label.to_string(),
                    verdict.changes().to_string(),
                ]);
            }
        }
    }
    format!("{t}\n")
}

/// E5 (Theorem 5): generalization to Υ^f vs Ω^f, 2 ≤ f ≤ n.
fn e5_theorem5() -> String {
    let mut t = Table::new(
        "E5 — Theorem 5 game: Υ^f cannot emulate Ω^f (2 ≤ f ≤ n, n+1 = 6)",
        &["f", "candidate", "verdict", "forced changes"],
    );
    for f in 2..=5usize {
        for candidate in all_candidates() {
            let verdict = play(GameConfig::theorem_5(6, f, 5), candidate.as_ref());
            let label = match &verdict {
                GameVerdict::NeverStabilizes { .. } => "never stabilizes",
                GameVerdict::Refuted { .. } => "refuted",
            };
            t.row([
                f.to_string(),
                candidate.name().to_string(),
                label.to_string(),
                verdict.changes().to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E6 (§4): Ω ≡ Υ in a two-process system, both directions.
fn e6_two_process_equivalence() -> String {
    let mut t = Table::new(
        "E6 — §4: Υ and Ω are equivalent for two processes",
        &["pattern", "direction", "stable value", "spec"],
    );
    let patterns = [
        FailurePattern::failure_free(2),
        FailurePattern::builder(2)
            .crash(ProcessId(0), Time(10))
            .build(),
        FailurePattern::builder(2)
            .crash(ProcessId(1), Time(10))
            .build(),
    ];
    for pattern in &patterns {
        let sample = |oracle: &mut dyn FnMut(ProcessId, Time) -> SampleValue| {
            let mut out = Vec::new();
            for t in 0..100u64 {
                for i in 0..2 {
                    let p = ProcessId(i);
                    if !pattern.is_crashed_at(p, Time(t)) {
                        out.push((Time(t), p, oracle(p, Time(t))));
                    }
                }
            }
            out
        };
        // Ω → Υ.
        let omega = OmegaOracle::new(pattern, LeaderChoice::MinCorrect, Time(30), 1);
        let mut ups = upsilon_from_omega(2, omega);
        let samples = sample(&mut |p, tm| SampleValue::Set(ups.output(p, tm)));
        let set_samples: Vec<_> = samples.iter().map(|(t, p, v)| (*t, *p, v.set())).collect();
        let rep = check_upsilon(pattern, &set_samples, 5).expect("Ω→Υ");
        t.row([
            pattern.to_string(),
            "Ω → Υ (complement)".to_string(),
            rep.value.to_string(),
            "Υ satisfied".to_string(),
        ]);
        // Υ → Ω.
        let ups = UpsilonOracle::wait_free(pattern, UpsilonChoice::default(), Time(30), 2);
        let mut omg = omega_from_upsilon_two_proc(ups);
        let samples = sample(&mut |p, tm| SampleValue::Pid(omg.output(p, tm)));
        let pid_samples: Vec<_> = samples.iter().map(|(t, p, v)| (*t, *p, v.pid())).collect();
        let rep = check_omega(pattern, &pid_samples, 5).expect("Υ→Ω");
        t.row([
            pattern.to_string(),
            "Υ → Ω (complement rule)".to_string(),
            rep.value.to_string(),
            "Ω satisfied".to_string(),
        ]);
    }
    format!("{t}\n")
}

/// Helper for E6's heterogeneous sampling.
#[derive(Clone, Copy, PartialEq, Debug)]
enum SampleValue {
    Set(ProcessSet),
    Pid(ProcessId),
}

impl SampleValue {
    fn set(self) -> ProcessSet {
        match self {
            SampleValue::Set(s) => s,
            SampleValue::Pid(_) => unreachable!(),
        }
    }
    fn pid(self) -> ProcessId {
        match self {
            SampleValue::Pid(p) => p,
            SampleValue::Set(_) => unreachable!(),
        }
    }
}

/// E7 (§5.3): Υ¹ → Ω in E_1, and consensus from Υ¹ end to end.
fn e7_upsilon1() -> String {
    let mut t = Table::new(
        "E7 — §5.3: Υ¹ → Ω in E_1, and consensus from Υ¹",
        &[
            "pattern",
            "Υ stable choice",
            "extracted leader",
            "consensus decided",
        ],
    );
    let patterns = [
        FailurePattern::failure_free(4),
        FailurePattern::builder(4)
            .crash(ProcessId(0), Time(60))
            .build(),
        FailurePattern::builder(4)
            .crash(ProcessId(2), Time(90))
            .build(),
    ];
    for pattern in &patterns {
        for choice in [UpsilonChoice::ComplementOfCorrect, UpsilonChoice::All] {
            let report = run_upsilon1_to_omega(pattern, choice, Time(150), 3, 60_000)
                .expect("valid Ω extraction");
            let cfg = AgreementConfig::new(pattern.clone()).seed(3);
            let cons = run_upsilon1_consensus(&cfg, choice);
            cons.assert_ok();
            t.row([
                pattern.to_string(),
                format!("{choice:?}"),
                report.value.to_string(),
                format!("{:?}", cons.distinct),
            ]);
        }
    }
    format!("{t}\n")
}

/// E8 (Corollary 4): Ω_n boosts n-consensus objects to (n+1)-consensus.
fn e8_boosting() -> String {
    let mut t = Table::new(
        "E8 — Corollary 4: (n+1)-consensus from n-consensus objects + Ω_n",
        &[
            "n+1",
            "crashes",
            "decided",
            "steps",
            "Ω-consensus steps (reference)",
        ],
    );
    for n_plus_1 in [3usize, 4, 5] {
        for crashes in [0usize, n_plus_1 - 1] {
            let pattern = staggered_crashes(n_plus_1, crashes, 40);
            let cfg = AgreementConfig::new(pattern.clone()).seed(11);
            let boost = run_boost(&cfg, OmegaKChoice::default());
            boost.assert_ok();
            let omega = run_omega_consensus(&cfg, LeaderChoice::MinCorrect);
            omega.assert_ok();
            t.row([
                n_plus_1.to_string(),
                crashes.to_string(),
                format!("{:?}", boost.distinct),
                boost.total_steps.to_string(),
                omega.total_steps.to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// Loads a checked-in scenario and runs its full matrix; E9–E11 are
/// driven entirely by `scenarios/*.toml` so the tables, the matrix driver
/// and the CI scenario job share one definition of each experiment.
fn scenario_records(name: &str) -> Vec<EvidenceRecord> {
    let doc = crate::load(name).unwrap_or_else(|e| panic!("scenario `{name}` failed to load: {e}"));
    let report = crate::run_matrix(&doc, 0)
        .unwrap_or_else(|e| panic!("scenario `{name}` failed to run: {e}"));
    assert!(
        report.deterministic,
        "scenario `{name}`: repeated coordinates diverged"
    );
    report.records
}

/// Integer axis binding of an evidence record.
fn binding_int(r: &EvidenceRecord, key: &str) -> i64 {
    match r.bindings.iter().find(|(k, _)| k == key) {
        Some((_, Scalar::Int(v))) => *v,
        other => panic!("binding `{key}` missing or non-integer: {other:?}"),
    }
}

/// Extra counter of an evidence record.
fn extra(r: &EvidenceRecord, key: &str) -> i64 {
    match r.out.extras.iter().find(|(k, _)| k == key) {
        Some((_, v)) => *v,
        None => panic!("extra `{key}` missing"),
    }
}

/// E9 (Corollary 3 context): native Υ vs the Ω_n-complement baseline —
/// both solve set agreement; Υ is the (strictly) weaker oracle. The two
/// oracles are the scenario's A/B arms.
fn e9_baseline() -> String {
    let mut t = Table::new(
        "E9 — set agreement: native Υ vs Ω_n-complement baseline (n+1 = 4)",
        &[
            "oracle",
            "crashes",
            "steps mean",
            "steps p95",
            "spec ok (8 seeds)",
        ],
    );
    let records = scenario_records("e9-baseline");
    for crashes in [0i64, 2] {
        for arm in ["native", "baseline"] {
            let cell: Vec<_> = records
                .iter()
                .filter(|r| r.arm == arm && binding_int(r, "crashes") == crashes)
                .collect();
            assert_eq!(cell.len(), 8, "8 seeds per (oracle, crashes) cell");
            let all_ok = cell.iter().all(|r| r.matched);
            let steps: Vec<u64> = cell.iter().map(|r| r.out.states).collect();
            let s = Summary::of(&steps);
            t.row([
                if arm == "native" {
                    "Υ (native)"
                } else {
                    "Ω_3 complemented"
                }
                .to_string(),
                crashes.to_string(),
                s.mean.to_string(),
                s.p95.to_string(),
                all_ok.to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E10 (§5.1): the k-converge routine — Convergence commits exactly when
/// the number of distinct inputs is at most k. The `k` × `distinct` grid
/// is the scenario's axis matrix; commits come back as evidence extras.
fn e10_converge() -> String {
    let mut t = Table::new(
        "E10 — k-converge: commit behaviour vs distinct inputs (4 processes, 20 seeds)",
        &[
            "k",
            "distinct inputs",
            "runs all-commit",
            "runs some-commit",
            "C-Agreement violations",
        ],
    );
    let records = scenario_records("e10-converge");
    for k in 1..=3i64 {
        for distinct in 1..=4i64 {
            let cell: Vec<_> = records
                .iter()
                .filter(|r| binding_int(r, "k") == k && binding_int(r, "distinct") == distinct)
                .collect();
            assert_eq!(cell.len(), 20, "20 seeds per (k, distinct) cell");
            let all_commit = cell.iter().filter(|r| extra(r, "all_commit") == 1).count();
            let some_commit = cell.iter().filter(|r| extra(r, "some_commit") == 1).count();
            let violations = cell
                .iter()
                .filter(|r| r.verdict == Verdict::Violation)
                .count();
            t.row([
                k.to_string(),
                distinct.to_string(),
                format!("{all_commit}/20"),
                format!("{some_commit}/20"),
                violations.to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E11 (snapshots \[1\]): native vs register-only snapshot — identical
/// protocol outcomes, quadratic step overhead for the register version.
/// The two substrates are the scenario's A/B arms.
fn e11_snapshots() -> String {
    let mut t = Table::new(
        "E11 — snapshot substrate: native vs Afek-et-al register-only (Fig. 1 workload)",
        &["n+1", "flavor", "steps mean (5 seeds)", "spec ok"],
    );
    let records = scenario_records("e11-snapshots");
    for n_plus_1 in [3i64, 4] {
        for (arm, shown) in [("native", "Native"), ("register", "RegisterBased")] {
            let cell: Vec<_> = records
                .iter()
                .filter(|r| r.arm == arm && binding_int(r, "n_plus_1") == n_plus_1)
                .collect();
            assert_eq!(cell.len(), 5, "5 seeds per (n+1, flavor) cell");
            let ok = cell.iter().all(|r| r.matched);
            let steps: Vec<u64> = cell.iter().map(|r| r.out.states).collect();
            t.row([
                n_plus_1.to_string(),
                shown.to_string(),
                Summary::of(&steps).mean.to_string(),
                ok.to_string(),
            ]);
        }
    }
    format!("{t}\n")
}

/// E12 (§5.2 Remark): Fig. 1 terminates in round 1 when some process never
/// proposes — the protocol never even needs Υ.
fn e12_remark() -> String {
    let mut t = Table::new(
        "E12 — §5.2 Remark: non-participation forces round-1 commits (n+1 = 4)",
        &["participants", "Υ queries taken", "steps", "decided values"],
    );
    for participants in [2usize, 3, 4] {
        let proposals: Vec<Option<u64>> = (0..4)
            .map(|i| (i < participants).then_some(i as u64 + 1))
            .collect();
        // Υ never stabilizes within the horizon: if the protocol decided,
        // it did so without usable failure information.
        let cfg = AgreementConfig::new(FailurePattern::failure_free(4))
            .proposals(proposals)
            .sched(Sched::RoundRobin)
            .noise(UpsilonNoise::ConstantAll)
            .stabilize_at(Time(5_000_000))
            .max_steps(300_000);
        let out = run_fig1(&cfg, UpsilonChoice::default());
        if participants < 4 {
            out.assert_ok();
        }
        t.row([
            participants.to_string(),
            out.fd_queries.to_string(),
            out.total_steps.to_string(),
            format!("{:?}", out.distinct),
        ]);
    }
    format!(
        "{t}\n(With 4 participants and never-stabilizing Υ the run exhausts its budget —\n\
         exactly the impossibility the oracle exists to break.)\n\n"
    )
}

/// E13 (§6 context): the detector hierarchy around Υ, each edge
/// revalidated live.
fn e13_hierarchy() -> String {
    format!("{}\n", upsilon_core::matrix::hierarchy_table())
}
