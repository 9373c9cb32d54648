//! `check-paper`: exhaustive bounded DPOR over Fig. 1, Fig. 2 and the
//! FD-branching `fig1-mutating`, with the checker CLI's defaults (turbo,
//! commutativity matrix, fingerprint dedup and symmetry all on, serial).
//! Exhaustive, so no seed: every round explores the same nodes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use upsilon_check::{check, CheckConfig, MenuOracle, RunConditionsSpec, RunSpec};
use upsilon_scenario::{resolve_check, AnyCheck, ScenarioDoc};
use upsilon_sim::{FailurePattern, ProcessId, ProcessSet, Session, TraceLevel};

use crate::report::median;
use crate::trace::Tracer;
use crate::{Layers, Round, Setup, Workload};

/// The checked configurations as scenario documents. Every one is clean:
/// Fig. 1 and Fig. 2 never trust the detector for safety.
const DOCS: &[&str] = &[
    r#"
name = "paperbench-fig1"
kind = "check"
protocol = "fig1"
expect = "pass"
[params]
n_plus_1 = 3
depth = 11
max_faults = 1
"#,
    r#"
name = "paperbench-fig2"
kind = "check"
protocol = "fig2"
expect = "pass"
[params]
n_plus_1 = 3
f = 1
depth = 11
max_faults = 1
"#,
    r#"
name = "paperbench-fig1-mutating"
kind = "check"
protocol = "fig1-mutating"
expect = "pass"
[params]
n_plus_1 = 3
depth = 13
budget = 1
"#,
];

/// The checker CLI's counterexample budget.
const CLI_MAX_VIOLATIONS: usize = 16;

/// Repetitions of each isolated probe.
const PROBE_ITERS: usize = 200;

pub struct CheckPaper {
    configs: Vec<(String, CheckConfig<ProcessSet>)>,
}

pub fn setup() -> Result<Setup, String> {
    let start = Instant::now();
    let mut configs = Vec::new();
    for text in DOCS {
        let doc = ScenarioDoc::parse(text).map_err(|d| d.to_string())?;
        for cell in doc.expand() {
            match resolve_check(&cell)? {
                AnyCheck::Set(mut cfg) => {
                    cfg.max_violations = CLI_MAX_VIOLATIONS;
                    configs.push((cell.protocol.clone(), cfg));
                }
                AnyCheck::Unit(_) => {
                    return Err(format!("{}: expected a Υ-based sample", doc.name))
                }
            }
        }
    }
    let resolve_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        workload: Box::new(CheckPaper { configs }),
        resolve_s,
    })
}

impl Workload for CheckPaper {
    fn round(&self, _index: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let mut r = Round::default();
        let mut sum = upsilon_check::CheckStats::default();
        let mut check_s = 0.0;
        let before = tracer.map(|t| t.busy());
        let start = Instant::now();
        for (label, cfg) in &self.configs {
            let report = match tracer {
                None => r.job(label, || check(cfg)),
                Some(t) => {
                    let wrapped_cfg = t.wrap(cfg);
                    r.job(label, || {
                        let (report, s) = t.span(label, || check(&wrapped_cfg));
                        check_s += s;
                        report
                    })
                }
            };
            let Some(report) = report else { continue };
            r.expect(report.ok() && !report.stats.truncated, label, || {
                format!(
                    "expected a clean, complete search; got {} violations (truncated: {})",
                    report.violations.len(),
                    report.stats.truncated
                )
            });
            let s = report.stats;
            sum.nodes += s.nodes;
            sum.sleep_pruned += s.sleep_pruned;
            sum.dedup_pruned += s.dedup_pruned;
            sum.symmetry_pruned += s.symmetry_pruned;
            sum.crash_nodes += s.crash_nodes;
            sum.fd_variant_nodes += s.fd_variant_nodes;
            sum.depth_leaves += s.depth_leaves;
        }
        r.verdict_s = start.elapsed().as_secs_f64();
        r.states = sum.nodes;
        r.execs = sum.depth_leaves;
        r.counts = vec![
            ("check.nodes", sum.nodes),
            ("check.sleep_pruned", sum.sleep_pruned),
            ("check.dedup_pruned", sum.dedup_pruned),
            ("check.symmetry_pruned", sum.symmetry_pruned),
            ("check.crash_nodes", sum.crash_nodes),
            ("check.fd_variant_nodes", sum.fd_variant_nodes),
            ("check.depth_leaves", sum.depth_leaves),
        ];
        if let (Some(t), Some(before)) = (tracer, before) {
            r.figures = vec![("check_s", check_s)];
            r.figures.extend(t.busy().figures_since(&before));
        }
        r
    }

    fn layers(&self, _plain: &[Round], traced: &[Round], tracer: &Arc<Tracer>) -> Layers {
        let first = &traced[0];
        let fig = |name: &str| median(traced.iter().map(|r| r.figure(name)));
        let nodes = first.count("check.nodes") as f64;
        let pruned = (first.count("check.sleep_pruned")
            + first.count("check.dedup_pruned")
            + first.count("check.symmetry_pruned")) as f64;
        let self_s = median(traced.iter().map(|r| {
            r.figure("check_s")
                - r.figure("spec_s")
                - r.figure("menu_s")
                - r.figure("world_build_s")
        }));
        let (kset_n, kset_ns) = tracer.spec_read("k-set-agreement");
        let spec_calls = fig("spec_calls");
        let spec_s = fig("spec_s");
        let world_builds = fig("world_builds");

        let probe = SessionProbe::measure(&self.configs[0].1);
        let values = vec![
            ("check.nodes", nodes),
            (
                "check.sleep_pruned",
                first.count("check.sleep_pruned") as f64,
            ),
            (
                "check.dedup_pruned",
                first.count("check.dedup_pruned") as f64,
            ),
            (
                "check.symmetry_pruned",
                first.count("check.symmetry_pruned") as f64,
            ),
            ("check.prune_yield", pruned / (nodes + pruned)),
            ("check.self_s", self_s),
            ("check.menu_calls", fig("menu_calls")),
            ("check.menu_s", fig("menu_s")),
            ("check.world_builds", world_builds),
            ("check.world_build_s", fig("world_build_s")),
            ("analysis.spec_calls", spec_calls),
            ("analysis.spec_s", spec_s),
            ("analysis.spec_ns", spec_s * 1e9 / spec_calls.max(1.0)),
            (
                "analysis.k-set-agreement.spec_ns",
                kset_ns as f64 / kset_n.max(1) as f64,
            ),
            ("analysis.run-conditions.spec_ns", probe.run_conditions_ns),
            ("sim.session.step_ns", probe.step_ns),
            ("sim.session.save_ns", probe.save_ns),
            ("sim.session.restore_ns", probe.restore_ns),
            ("sim.fingerprint_ns", probe.fingerprint_ns),
            ("sim.opsig_ns", probe.opsig_ns),
            ("sim.trace_full_ns", probe.trace_full_ns),
        ];
        // Per node: one step, one save, one fingerprint and the built-in
        // run-condition check; per factory call after the two each search
        // opens with (participants, then the session), one restore; plus
        // the wrapped spec and menu time.
        let restores = (world_builds - 2.0 * self.configs.len() as f64).max(0.0);
        let model_s = nodes
            * (probe.step_ns + probe.save_ns + probe.fingerprint_ns + probe.run_conditions_ns)
            * 1e-9
            + restores * probe.restore_ns * 1e-9
            + spec_s
            + fig("menu_s");
        Layers { values, model_s }
    }
}

/// Isolated per-call costs of the session layer on one configuration.
struct SessionProbe {
    step_ns: f64,
    save_ns: f64,
    restore_ns: f64,
    fingerprint_ns: f64,
    opsig_ns: f64,
    trace_full_ns: f64,
    run_conditions_ns: f64,
}

impl SessionProbe {
    fn measure(cfg: &CheckConfig<ProcessSet>) -> Self {
        let n = cfg.n_plus_1;
        let fresh = |level: TraceLevel, sigs: bool| {
            let oracle = MenuOracle::new(Arc::clone(&cfg.menu), n, vec![Vec::new(); n]);
            Session::new(
                FailurePattern::failure_free(n),
                Arc::clone(&cfg.algos),
                Box::new(oracle),
                level,
                sigs,
            )
        };
        let next = |s: &Session<ProcessSet>, turn: usize| {
            (0..n)
                .map(|i| ProcessId((i + turn) % n))
                .find(|&p| s.eligible(p))
        };
        // Step cost: round-robin descents to the configured depth, timed
        // without the session construction.
        let step_ns = |level: TraceLevel, sigs: bool| {
            let mut ns = 0u128;
            let mut steps = 0u64;
            for _ in 0..PROBE_ITERS {
                let mut s = fresh(level, sigs);
                let start = Instant::now();
                for turn in 0..cfg.depth {
                    let Some(p) = next(&s, turn) else { break };
                    black_box(s.step(p));
                    steps += 1;
                }
                ns += start.elapsed().as_nanos();
            }
            ns as f64 / steps.max(1) as f64
        };
        // The explorer's configuration: full trace (dedup), signatures on.
        let full_sigs = step_ns(TraceLevel::Full, cfg.use_matrix);
        let full_plain = step_ns(TraceLevel::Full, false);
        let steps_sigs = step_ns(TraceLevel::Steps, cfg.use_matrix);

        // One full descent with a save per level. Saves, fingerprints and
        // run-condition checks cost more on longer prefixes, so each is
        // averaged over every level of the descent.
        let mut s = fresh(TraceLevel::Full, cfg.use_matrix);
        let mut saves = vec![s.save()];
        let (mut save_ns, mut fingerprint_ns, mut run_conditions_ns) = (0.0, 0.0, 0.0);
        let timed = |f: &mut dyn FnMut()| {
            let start = Instant::now();
            for _ in 0..PROBE_ITERS {
                f();
            }
            start.elapsed().as_nanos() as f64 / PROBE_ITERS as f64
        };
        for turn in 0..cfg.depth {
            let Some(p) = next(&s, turn) else { break };
            s.step(p);
            saves.push(s.save());
            save_ns += timed(&mut || {
                black_box(s.save());
            });
            fingerprint_ns += timed(&mut || {
                black_box(s.fingerprint());
            });
            run_conditions_ns += timed(&mut || {
                black_box(RunSpec::<ProcessSet>::check(&RunConditionsSpec, s.run()).is_ok());
            });
        }
        let levels = (saves.len() - 1).max(1) as f64;

        // Backtrack to the leaf's parent after a sibling step: the
        // explorer's commonest restore.
        let parent = &saves[saves.len().saturating_sub(2)];
        let mut restore_ns = 0u128;
        for turn in 0..PROBE_ITERS {
            if let Some(p) = next(&s, turn) {
                s.step(p);
            }
            let oracle = MenuOracle::with_counts(
                Arc::clone(&cfg.menu),
                n,
                vec![Vec::new(); n],
                &parent.query_counts(),
            );
            let start = Instant::now();
            s.restore(parent, Box::new(oracle));
            restore_ns += start.elapsed().as_nanos();
        }

        SessionProbe {
            step_ns: full_sigs,
            save_ns: save_ns / levels,
            restore_ns: restore_ns as f64 / PROBE_ITERS as f64,
            fingerprint_ns: fingerprint_ns / levels,
            opsig_ns: full_sigs - full_plain,
            trace_full_ns: full_sigs - steps_sigs,
            run_conditions_ns: run_conditions_ns / levels,
        }
    }
}
