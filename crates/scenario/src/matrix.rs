//! The matrix driver: fans a scenario's `cells × seeds × repeats` over
//! the [`run_batch`] worker pool and merges the results in
//! job order, so the evidence stream is deterministic and independent of
//! the worker count.
//!
//! Every run yields one [`EvidenceRecord`]; [`to_jsonl`] renders the
//! stream as line-delimited JSON with a fixed field order (no timing
//! fields), which is what the golden result-table snapshots assert on.

use std::fmt;

use upsilon_check::CheckReport;
use upsilon_scenario_schema::{Cell, Expect, Kind, Scalar, ScenarioDoc};
use upsilon_sim::run_batch;

use crate::registry::{resolve_check, resolve_fuzz, AnyCheck};
use crate::{experiment, registry};

/// The §3.3-checked outcome of one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every spec held on every explored/executed run.
    Pass,
    /// At least one counterexample.
    Violation,
}

impl Verdict {
    /// `Pass` for a clean run, `Violation` otherwise.
    pub fn of(clean: bool) -> Verdict {
        if clean {
            Verdict::Pass
        } else {
            Verdict::Violation
        }
    }

    /// The lowercase name used in evidence records and scenario files.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Violation => "violation",
        }
    }

    /// Whether this verdict is the one `expect` asks for: the one rule
    /// every `--expect` gate and every evidence record's `matched` uses.
    pub fn matches(self, expect: Expect) -> bool {
        matches!(
            (self, expect),
            (Verdict::Pass, Expect::Pass) | (Verdict::Violation, Expect::Violation)
        )
    }
}

/// The one rule turning an exploration into a verdict, for `check` calls
/// and check cells alike: a clean search that its node budget cut short
/// has shown nothing, so it is an error, never a pass.
impl TryFrom<&CheckReport> for Verdict {
    type Error = String;

    fn try_from(report: &CheckReport) -> Result<Verdict, String> {
        if report.ok() && report.stats.truncated {
            return Err(format!(
                "no verdict: the search hit its node budget (max_nodes) after {} nodes \
                 with no violation found; lower `depth` or `max_faults`",
                report.stats.nodes
            ));
        }
        Ok(Verdict::of(report.ok()))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What one run produced, before it is joined with its matrix coordinates.
#[derive(Clone, PartialEq, Debug)]
pub struct RunOut {
    /// Pass or violation.
    pub verdict: Verdict,
    /// Work measure: explored states (check), executions (fuzz), or total
    /// steps (experiment).
    pub states: u64,
    /// Counterexample count.
    pub violations: usize,
    /// Name/message of the first violated spec, if any.
    pub spec: Option<String>,
    /// Shrunk `UCHK1:` replay token of the first counterexample, if any.
    pub token: Option<String>,
    /// Protocol-specific counters (deterministic, snapshot-safe).
    pub extras: Vec<(String, i64)>,
}

impl RunOut {
    /// Builds extras from static names.
    pub(crate) fn extras_of(pairs: Vec<(&str, i64)>) -> Vec<(String, i64)> {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// One line of the evidence stream: a run joined with its coordinates.
#[derive(Clone, PartialEq, Debug)]
pub struct EvidenceRecord {
    /// Scenario name.
    pub scenario: String,
    /// Variant arm.
    pub arm: String,
    /// Resolved protocol.
    pub protocol: String,
    /// Cell index in expansion order.
    pub cell: usize,
    /// Concrete axis bindings of the cell.
    pub bindings: Vec<(String, Scalar)>,
    /// Seed of the run.
    pub seed: u64,
    /// Repeat index.
    pub repeat: u32,
    /// The cell's expectation.
    pub expected: Expect,
    /// What actually happened.
    pub verdict: Verdict,
    /// Whether `verdict` matches `expected`.
    pub matched: bool,
    /// The run's [`RunOut`] payload (states, violations, spec, token,
    /// extras).
    pub out: RunOut,
}

/// The merged result of a matrix run.
#[derive(Clone, PartialEq, Debug)]
pub struct MatrixReport {
    /// Scenario name.
    pub scenario: String,
    /// One record per run, in deterministic job order.
    pub records: Vec<EvidenceRecord>,
    /// Whether repeated runs of the same `(cell, seed)` coordinate
    /// produced identical outcomes.
    pub deterministic: bool,
    /// `deterministic` and every record matched its expectation.
    pub ok: bool,
}

fn check_out(cfg: &AnyCheck) -> Result<RunOut, String> {
    let report = cfg.check();
    let first = report.violations.first();
    Ok(RunOut {
        verdict: Verdict::try_from(&report)?,
        states: report.stats.nodes,
        violations: report.violations.len(),
        spec: first.map(|v| v.spec.clone()),
        token: first.map(|v| v.token.to_string()),
        extras: RunOut::extras_of(vec![
            ("sleep_pruned", report.stats.sleep_pruned as i64),
            ("crash_nodes", report.stats.crash_nodes as i64),
        ]),
    })
}

/// Runs one `(cell, seed)` coordinate of a scenario.
pub fn run_one(doc: &ScenarioDoc, cell: &Cell, seed: u64) -> Result<RunOut, String> {
    match doc.kind {
        Kind::Check => {
            check_out(&resolve_check(cell)?).map_err(|e| format!("{}: {e}", cell.label()))
        }
        Kind::Fuzz => {
            let report = resolve_fuzz(doc, cell, seed)?.fuzz(&[]);
            let first = report.violations.first();
            Ok(RunOut {
                verdict: Verdict::of(report.violations.is_empty()),
                states: report.execs,
                violations: report.violations.len(),
                spec: first.map(|v| v.spec.clone()),
                token: first.map(|v| v.token.to_string()),
                extras: RunOut::extras_of(vec![
                    ("coverage", report.coverage_hashes.len() as i64),
                    ("corpus", report.corpus.len() as i64),
                ]),
            })
        }
        Kind::Experiment => experiment::run_cell(cell, seed),
        Kind::Swarm => {
            let cfg = registry::resolve_swarm(doc, cell, seed)?;
            let report = upsilon_swarm::run_swarm(&cfg);
            let unclean = (report.instances - report.spec_ok)
                + (report.instances - report.run_cond_ok)
                + (report.instances - report.finished);
            Ok(RunOut {
                verdict: Verdict::of(report.all_ok()),
                states: report.total_steps,
                violations: unclean as usize,
                spec: (!report.all_ok()).then(|| {
                    format!(
                        "swarm: {}/{} spec_ok, {}/{} run_cond_ok, {}/{} finished",
                        report.spec_ok,
                        report.instances,
                        report.run_cond_ok,
                        report.instances,
                        report.finished,
                        report.instances
                    )
                }),
                token: None,
                // Counters only — byte sizes stay out so golden snapshots
                // survive allocator/capacity-growth changes.
                extras: RunOut::extras_of(vec![
                    ("instances", report.instances as i64),
                    ("decisions", report.decisions as i64),
                    ("fd_queries", report.fd_queries as i64),
                ]),
            })
        }
    }
}

/// Validates that every cell of the scenario resolves, without running any.
pub fn validate_cells(doc: &ScenarioDoc) -> Result<Vec<Cell>, String> {
    let cells = doc.expand();
    for cell in &cells {
        match doc.kind {
            Kind::Check => {
                resolve_check(cell)?;
            }
            Kind::Fuzz => {
                resolve_fuzz(doc, cell, 0)?;
            }
            Kind::Experiment => experiment::validate_cell(cell)?,
            Kind::Swarm => {
                registry::resolve_swarm(doc, cell, 0)?;
            }
        }
    }
    Ok(cells)
}

/// Fans the scenario's full matrix over the worker pool (`workers = 0`
/// uses the default) and merges the evidence stream in job order.
///
/// The job list is `cells × seeds × repeats` in that nesting
/// order, matching [`ScenarioDoc::expand`]'s cell order; `run_batch`
/// returns results in job order regardless of the worker count, so the
/// record stream is deterministic.
pub fn run_matrix(doc: &ScenarioDoc, workers: usize) -> Result<MatrixReport, String> {
    let cells = validate_cells(doc)?;

    let mut coords = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        for &seed in &doc.seeds {
            for repeat in 0..doc.repeats {
                coords.push((ci, cell.clone(), seed, repeat));
            }
        }
    }
    let jobs: Vec<_> = coords
        .iter()
        .map(|(_, cell, seed, _)| {
            let doc = doc.clone();
            let cell = cell.clone();
            let seed = *seed;
            move || run_one(&doc, &cell, seed)
        })
        .collect();
    let outs = run_batch(jobs, workers);

    let mut records = Vec::with_capacity(coords.len());
    for ((ci, cell, seed, repeat), out) in coords.into_iter().zip(outs) {
        let out = out?;
        let verdict = out.verdict;
        records.push(EvidenceRecord {
            scenario: doc.name.clone(),
            arm: cell.arm.clone(),
            protocol: cell.protocol.clone(),
            cell: ci,
            bindings: cell.bindings.clone(),
            seed,
            repeat,
            expected: cell.expect,
            verdict,
            matched: verdict.matches(cell.expect),
            out,
        });
    }

    // Repeats of the same (cell, seed) must be indistinguishable.
    let mut deterministic = true;
    for r in &records {
        if r.repeat == 0 {
            continue;
        }
        let base = records
            .iter()
            .find(|b| b.repeat == 0 && b.cell == r.cell && b.seed == r.seed)
            .expect("repeat 0 precedes higher repeats in job order");
        if base.out != r.out {
            deterministic = false;
        }
    }
    let ok = deterministic && records.iter().all(|r| r.matched);
    Ok(MatrixReport {
        scenario: doc.name.clone(),
        records,
        deterministic,
        ok,
    })
}

/// Per-arm aggregation for A/B comparison between named variant arms.
#[derive(Clone, PartialEq, Debug)]
pub struct ArmSummary {
    /// Arm name.
    pub arm: String,
    /// Total runs of the arm.
    pub runs: usize,
    /// Runs whose verdict matched the expectation.
    pub matched: usize,
    /// Total counterexamples.
    pub violations: usize,
    /// Summed work measure.
    pub total_states: u64,
    /// Mean work measure per run.
    pub mean_states: f64,
}

/// Aggregates the evidence stream per arm, arms in first-appearance order.
pub fn arm_summaries(records: &[EvidenceRecord]) -> Vec<ArmSummary> {
    let mut arms: Vec<ArmSummary> = Vec::new();
    for r in records {
        let slot = match arms.iter_mut().find(|a| a.arm == r.arm) {
            Some(a) => a,
            None => {
                arms.push(ArmSummary {
                    arm: r.arm.clone(),
                    runs: 0,
                    matched: 0,
                    violations: 0,
                    total_states: 0,
                    mean_states: 0.0,
                });
                arms.last_mut().expect("just pushed")
            }
        };
        slot.runs += 1;
        slot.matched += usize::from(r.matched);
        slot.violations += r.out.violations;
        slot.total_states += r.out.states;
    }
    for a in &mut arms {
        a.mean_states = a.total_states as f64 / a.runs as f64;
    }
    arms
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_scalar(v: &Scalar, out: &mut String) {
    match v {
        Scalar::Int(i) => out.push_str(&i.to_string()),
        Scalar::Float(f) => out.push_str(&format!("{f:?}")),
        Scalar::Bool(b) => out.push_str(&b.to_string()),
        Scalar::Str(s) => json_escape(s, out),
    }
}

/// Renders the evidence stream as line-delimited JSON with a fixed field
/// order and no timing fields — byte-stable across runs and worker counts,
/// so golden snapshots can assert on it verbatim.
pub fn to_jsonl(records: &[EvidenceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push('{');
        out.push_str("\"scenario\":");
        json_escape(&r.scenario, &mut out);
        out.push_str(",\"arm\":");
        json_escape(&r.arm, &mut out);
        out.push_str(",\"protocol\":");
        json_escape(&r.protocol, &mut out);
        out.push_str(&format!(",\"cell\":{}", r.cell));
        out.push_str(",\"bindings\":{");
        for (i, (k, v)) in r.bindings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape(k, &mut out);
            out.push(':');
            json_scalar(v, &mut out);
        }
        out.push('}');
        out.push_str(&format!(",\"seed\":{},\"repeat\":{}", r.seed, r.repeat));
        out.push_str(&format!(
            ",\"expected\":\"{}\",\"verdict\":\"{}\",\"matched\":{}",
            r.expected, r.verdict, r.matched
        ));
        out.push_str(&format!(
            ",\"states\":{},\"violations\":{}",
            r.out.states, r.out.violations
        ));
        out.push_str(",\"spec\":");
        match &r.out.spec {
            Some(s) => json_escape(s, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"token\":");
        match &r.out.token {
            Some(t) => json_escape(t, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"extras\":{");
        for (i, (k, v)) in r.out.extras.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_escape(k, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_check::{CheckStats, CounterExample, ReplayToken};

    fn report(violations: usize, truncated: bool) -> CheckReport {
        let token = ReplayToken::parse("UCHK1:n=2;c=-,-;q=-|-;s=0,1").unwrap();
        let cx = CounterExample {
            spec: "k-set-agreement".into(),
            message: "2 distinct decisions".into(),
            token: token.clone(),
            raw_token: token,
            shrink_evals: 0,
            shrink_removed: 0,
        };
        CheckReport {
            stats: CheckStats {
                nodes: 1_000_000,
                truncated,
                ..CheckStats::default()
            },
            violations: vec![cx; violations],
            frontier_jobs: 0,
        }
    }

    #[test]
    fn a_truncated_clean_search_has_no_verdict() {
        let err = Verdict::try_from(&report(0, true)).unwrap_err();
        assert!(
            err.contains("node budget") && err.contains("1000000 nodes"),
            "{err}"
        );
        assert_eq!(Verdict::try_from(&report(0, false)), Ok(Verdict::Pass));
        // A search the node budget cut short after a counterexample still
        // has its verdict.
        assert_eq!(Verdict::try_from(&report(1, true)), Ok(Verdict::Violation));
    }
}
