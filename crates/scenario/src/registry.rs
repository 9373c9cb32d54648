//! The protocol registry: resolves an expanded scenario [`Cell`] into a
//! runnable checker or fuzzer configuration.
//!
//! This is the single place where protocol names from scenario files meet
//! the sample constructors in [`upsilon_check::samples`]. Binding keys are
//! validated *strictly*: a cell may only bind the axes its protocol
//! understands, required axes must be present, and values must lie in the
//! range the sample allows ([`samples::shape`], [`CheckConfig::validate`],
//! [`FuzzConfig::validate`]) — a typo in a checked-in `.toml` fails
//! resolution with a message naming the cell and the axis, instead of
//! silently falling back to a default or panicking in a constructor.
//!
//! The check samples split over two detector value types (`ProcessSet` for
//! the Υ-based figures, `()` for the detector-free commit/report targets),
//! so resolution returns [`AnyCheck`] / [`AnyFuzz`] sums that erase the
//! type parameter while keeping the full typed API reachable.

use upsilon_check::explore::{check, positive, AxisError, CheckConfig, CheckReport};
use upsilon_check::samples;
use upsilon_fuzz::{fuzz, FuzzConfig, FuzzReport};
use upsilon_scenario_schema::{Cell, Expect, Kind, Scalar, ScenarioDoc, KNOWN_PROTOCOLS};
use upsilon_sim::{ProcessId, ProcessSet, ReplayToken};
use upsilon_swarm::{parse_mix, SwarmConfig};

/// A resolved check configuration with the detector value type erased.
#[derive(Clone, Debug)]
pub enum AnyCheck {
    /// A Υ-based sample (`fig1`, `fig1-mutating`, `fig2`, `pinned-upsilon`,
    /// `fig2-dropped`).
    Set(CheckConfig<ProcessSet>),
    /// A detector-free sample (`snapshot-commit`, `stable-report`,
    /// `converge-offby1`).
    Unit(CheckConfig<()>),
}

impl AnyCheck {
    /// Number of processes of the resolved sample.
    pub fn n_plus_1(&self) -> usize {
        match self {
            AnyCheck::Set(c) => c.n_plus_1,
            AnyCheck::Unit(c) => c.n_plus_1,
        }
    }

    /// Schedule depth of the resolved sample.
    pub fn depth(&self) -> usize {
        match self {
            AnyCheck::Set(c) => c.depth,
            AnyCheck::Unit(c) => c.depth,
        }
    }

    /// Runs the exhaustive checker on the resolved configuration.
    pub fn check(&self) -> CheckReport {
        match self {
            AnyCheck::Set(c) => check(c),
            AnyCheck::Unit(c) => check(c),
        }
    }
}

/// A resolved fuzz campaign with the detector value type erased.
#[derive(Clone, Debug)]
pub enum AnyFuzz {
    /// Campaign over a Υ-based target.
    Set(FuzzConfig<ProcessSet>),
    /// Campaign over a detector-free target.
    Unit(FuzzConfig<()>),
}

impl AnyFuzz {
    /// Runs the campaign with the given corpus seed tokens.
    pub fn fuzz(&self, seeds: &[ReplayToken]) -> FuzzReport {
        match self {
            AnyFuzz::Set(c) => fuzz(c, seeds),
            AnyFuzz::Unit(c) => fuzz(c, seeds),
        }
    }
}

/// Strict binding accessor over a cell: every lookup marks the key as
/// consumed, and [`Binds::finish`] rejects leftovers.
pub(crate) struct Binds<'a> {
    cell: &'a Cell,
    used: Vec<&'a str>,
}

impl<'a> Binds<'a> {
    pub(crate) fn new(cell: &'a Cell) -> Self {
        Binds {
            cell,
            used: Vec::new(),
        }
    }

    pub(crate) fn context(&self) -> String {
        format!("cell `{}`", self.cell.label())
    }

    pub(crate) fn raw(&mut self, key: &str) -> Option<&'a Scalar> {
        let hit = self.cell.bindings.iter().find(|(k, _)| k == key);
        if let Some((k, v)) = hit {
            self.used.push(k.as_str());
            return Some(v);
        }
        None
    }

    pub(crate) fn usize_req(&mut self, key: &str) -> Result<usize, String> {
        match self.raw(key) {
            Some(Scalar::Int(v)) if *v >= 0 => Ok(*v as usize),
            Some(other) => Err(format!(
                "{}: axis `{key}` must be a non-negative integer, got {other}",
                self.context()
            )),
            None => Err(format!("{}: missing required axis `{key}`", self.context())),
        }
    }

    pub(crate) fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, String> {
        match self.raw(key) {
            None => Ok(default),
            Some(_) => {
                self.used.pop();
                self.usize_req(key)
            }
        }
    }

    pub(crate) fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, String> {
        match self.raw(key) {
            Some(Scalar::Bool(v)) => Ok(*v),
            Some(other) => Err(format!(
                "{}: axis `{key}` must be a boolean, got {other}",
                self.context()
            )),
            None => Ok(default),
        }
    }

    pub(crate) fn str_req(&mut self, key: &str) -> Result<&'a str, String> {
        match self.raw(key) {
            Some(Scalar::Str(s)) => Ok(s.as_str()),
            Some(other) => Err(format!(
                "{}: axis `{key}` must be a string, got {other}",
                self.context()
            )),
            None => Err(format!("{}: missing required axis `{key}`", self.context())),
        }
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        for (k, _) in &self.cell.bindings {
            if !self.used.contains(&k.as_str()) {
                return Err(format!(
                    "{}: unknown axis `{k}` for protocol `{}`",
                    self.context(),
                    self.cell.protocol
                ));
            }
        }
        Ok(())
    }
}

/// Resolves a check-protocol cell into a runnable configuration.
///
/// Errors if the cell's protocol is not a check sample, its bindings are
/// missing, mistyped, or unknown to the protocol, or an axis is out of the
/// range [`samples::shape`] and [`CheckConfig::validate`] allow.
pub fn resolve_check(cell: &Cell) -> Result<AnyCheck, String> {
    let mut b = Binds::new(cell);
    let cfg = build_check(cell, &mut b)?.ok_or_else(|| {
        format!(
            "cell `{}`: protocol `{}` is not a check protocol",
            cell.label(),
            cell.protocol
        )
    })?;
    b.finish()?;
    let in_cell = |e: AxisError| format!("cell `{}`: {e}", cell.label());
    match &cfg {
        AnyCheck::Set(c) => c.validate(),
        AnyCheck::Unit(c) => c.validate(),
    }
    .map_err(in_cell)?;
    Ok(cfg)
}

/// The protocols [`resolve_check`] (and so [`resolve_fuzz`]) accepts, in
/// [`KNOWN_PROTOCOLS`] order.
pub fn check_protocols() -> impl Iterator<Item = &'static str> {
    KNOWN_PROTOCOLS.iter().copied().filter(|p| {
        let cell = Cell {
            arm: String::new(),
            protocol: p.to_string(),
            expect: Expect::Pass,
            bindings: Vec::new(),
        };
        // With no bindings a check protocol fails on its first required
        // axis; only a protocol of another runner comes back `Ok(None)`.
        !matches!(build_check(&cell, &mut Binds::new(&cell)), Ok(None))
    })
}

/// The name table: builds the sample `cell.protocol` names from the
/// cell's bindings, or `Ok(None)` when no check sample has that name.
fn build_check(cell: &Cell, b: &mut Binds) -> Result<Option<AnyCheck>, String> {
    let in_cell = |e: AxisError| format!("cell `{}`: {e}", cell.label());
    let shape = |n, agreement| samples::shape(n, agreement).map_err(in_cell);
    Ok(Some(match cell.protocol.as_str() {
        "fig1" => {
            let (n, d) = (b.usize_req("n_plus_1")?, b.usize_req("depth")?);
            let faults = b.usize_or("max_faults", 0)?;
            shape(n, None)?;
            AnyCheck::Set(samples::fig1(n, d, faults))
        }
        "fig1-mutating" => {
            let (n, d) = (b.usize_req("n_plus_1")?, b.usize_req("depth")?);
            let faults = b.usize_or("max_faults", 0)?;
            let budget = b.usize_or("budget", 1)?;
            shape(n, None)?;
            AnyCheck::Set(samples::fig1_mutating(n, d, faults, budget))
        }
        "fig2" => {
            let (n, f) = (b.usize_req("n_plus_1")?, b.usize_req("f")?);
            let d = b.usize_req("depth")?;
            let faults = b.usize_or("max_faults", 0)?;
            shape(n, Some(("f", f)))?;
            AnyCheck::Set(samples::fig2(n, f, d, faults))
        }
        "pinned-upsilon" => {
            let (n, f) = (b.usize_req("n_plus_1")?, b.usize_req("f")?);
            let d = b.usize_req("depth")?;
            shape(n, Some(("f", f)))?;
            AnyCheck::Set(samples::pinned_upsilon(n, f, d))
        }
        "fig2-dropped" => {
            let (n, f) = (b.usize_req("n_plus_1")?, b.usize_req("f")?);
            let d = b.usize_req("depth")?;
            let faults = b.usize_or("max_faults", 0)?;
            shape(n, Some(("f", f)))?;
            let dropper = match b.raw("dropper") {
                None => None,
                Some(Scalar::Int(p)) if *p >= 0 && (*p as usize) < n => {
                    Some(ProcessId(*p as usize))
                }
                Some(other) => {
                    return Err(format!(
                        "cell `{}`: axis `dropper` must be a process id below {n}, got {other}",
                        cell.label()
                    ))
                }
            };
            AnyCheck::Set(samples::fig2_dropped_write(n, f, d, faults, dropper))
        }
        "snapshot-commit" => {
            let (n, k) = (b.usize_req("n_plus_1")?, b.usize_req("k")?);
            let d = b.usize_req("depth")?;
            let buggy = b.bool_or("buggy", false)?;
            shape(n, Some(("k", k)))?;
            AnyCheck::Unit(samples::snapshot_commit(n, k, d, buggy))
        }
        "stable-report" => {
            let (n, r) = (b.usize_req("n_plus_1")?, b.usize_req("reports")?);
            let d = b.usize_req("depth")?;
            shape(n, None)?;
            positive("reports", r as u64).map_err(in_cell)?;
            AnyCheck::Unit(samples::stable_report(n, r, d))
        }
        "converge-offby1" => {
            let (n, k) = (b.usize_req("n_plus_1")?, b.usize_req("k")?);
            let d = b.usize_req("depth")?;
            let slack = b.usize_or("slack", 1)?;
            shape(n, Some(("k", k)))?;
            AnyCheck::Unit(samples::converge_offby1(n, k, d, slack))
        }
        _ => return Ok(None),
    }))
}

/// Resolves a fuzz-kind scenario cell into a campaign: the target comes
/// from [`resolve_check`], the knobs from the scenario's `[fuzz]` block,
/// and the campaign seed from the matrix seed axis.
///
/// Errors like [`resolve_check`], and when a knob is out of the range
/// [`FuzzConfig::validate`] allows.
pub fn resolve_fuzz(doc: &ScenarioDoc, cell: &Cell, seed: u64) -> Result<AnyFuzz, String> {
    if doc.kind != Kind::Fuzz {
        return Err(format!(
            "scenario `{}` has kind `{}`, not `fuzz`",
            doc.name, doc.kind
        ));
    }
    let knob = |key: &str, default: u64| -> Result<u64, String> {
        match doc.fuzz.as_ref().and_then(|f| f.get(key)) {
            None => Ok(default),
            Some(Scalar::Int(v)) if *v >= 0 => Ok(*v as u64),
            Some(other) => Err(format!(
                "scenario `{}`: fuzz knob `{key}` must be a non-negative integer, got {other}",
                doc.name
            )),
        }
    };
    macro_rules! apply {
        ($cfg:expr) => {{
            let mut cfg = $cfg.seed(seed);
            cfg.rounds = knob("rounds", cfg.rounds as u64)? as usize;
            cfg.execs_per_round = knob("execs_per_round", cfg.execs_per_round)?;
            cfg.pct_share = knob("pct_share", cfg.pct_share as u64)? as u32;
            cfg.pct_depth = knob("pct_depth", cfg.pct_depth as u64)? as usize;
            cfg.mutate_share = knob("mutate_share", cfg.mutate_share as u64)? as u32;
            cfg.window = knob("window", cfg.window as u64)? as usize;
            cfg.chunk = knob("chunk", cfg.chunk)?;
            cfg.max_violations = knob("max_violations", cfg.max_violations as u64)? as usize;
            if let Some(s) = doc.fuzz.as_ref().and_then(|f| f.get("shrink")) {
                match s {
                    Scalar::Bool(v) => cfg.shrink = *v,
                    other => {
                        return Err(format!(
                            "scenario `{}`: fuzz knob `shrink` must be a boolean, got {other}",
                            doc.name
                        ))
                    }
                }
            }
            cfg.validate()
                .map_err(|e| format!("cell `{}`: fuzz {e}", cell.label()))?;
            cfg
        }};
    }
    Ok(match resolve_check(cell)? {
        AnyCheck::Set(target) => AnyFuzz::Set(apply!(FuzzConfig::new(target))),
        AnyCheck::Unit(target) => AnyFuzz::Unit(apply!(FuzzConfig::new(target))),
    })
}

/// Resolves a swarm-kind scenario cell into a packed-campaign config.
///
/// The campaign knobs come from the `[swarm]` block; the integer knobs
/// (`instances`, `batch`, `window`) may instead be swept as `[params]`
/// axes, with cell bindings taking precedence over the block. The matrix
/// seed becomes the campaign seed. `window = 0` packs the whole campaign
/// up front; positive values stream it through that many live cells.
pub fn resolve_swarm(doc: &ScenarioDoc, cell: &Cell, seed: u64) -> Result<SwarmConfig, String> {
    if doc.kind != Kind::Swarm {
        return Err(format!(
            "scenario `{}` has kind `{}`, not `swarm`",
            doc.name, doc.kind
        ));
    }
    if cell.protocol != "swarm" {
        return Err(format!(
            "cell `{}`: protocol `{}` is not the swarm executor",
            cell.label(),
            cell.protocol
        ));
    }
    fn knob(doc: &ScenarioDoc, b: &mut Binds, key: &str, default: u64) -> Result<u64, String> {
        if let Some(v) = b.raw(key) {
            return match v {
                Scalar::Int(i) if *i >= 0 => Ok(*i as u64),
                other => Err(format!(
                    "{}: axis `{key}` must be a non-negative integer, got {other}",
                    b.context()
                )),
            };
        }
        match doc.swarm.as_ref().and_then(|s| s.get(key)) {
            None => Ok(default),
            Some(Scalar::Int(i)) if *i >= 0 => Ok(*i as u64),
            Some(other) => Err(format!(
                "scenario `{}`: swarm knob `{key}` must be a non-negative integer, got {other}",
                doc.name
            )),
        }
    }
    let mut b = Binds::new(cell);
    let instances = knob(doc, &mut b, "instances", 1024)?;
    let batch = knob(doc, &mut b, "batch", 64)?.max(1);
    let window = knob(doc, &mut b, "window", 0)?;
    let mix = match b.raw("mix") {
        Some(Scalar::Str(s)) => s.clone(),
        Some(other) => {
            return Err(format!(
                "{}: axis `mix` must be a string, got {other}",
                b.context()
            ))
        }
        None => match doc.swarm.as_ref().and_then(|s| s.get("mix")) {
            None => "converge-pair".to_string(),
            Some(Scalar::Str(s)) => s.clone(),
            Some(other) => {
                return Err(format!(
                    "scenario `{}`: swarm knob `mix` must be a string, got {other}",
                    doc.name
                ))
            }
        },
    };
    b.finish()?;
    Ok(SwarmConfig {
        mix: parse_mix(&mix).map_err(|e| format!("scenario `{}`: {e}", doc.name))?,
        instances,
        campaign_seed: seed,
        batch,
        // One worker: a swarm cell is already one job of the matrix pool,
        // and every report counter is worker-invariant anyway.
        workers: 1,
        range: None,
        window: (window > 0).then_some(window as usize),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(protocol: &str, bindings: &[(&str, Scalar)]) -> Cell {
        Cell {
            arm: "default".into(),
            protocol: protocol.into(),
            expect: Expect::Pass,
            bindings: bindings
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    #[test]
    fn resolves_every_check_protocol() {
        let n = ("n_plus_1", Scalar::Int(3));
        let d = ("depth", Scalar::Int(4));
        let f = ("f", Scalar::Int(1));
        let k = ("k", Scalar::Int(1));
        let cases: Vec<Cell> = vec![
            cell("fig1", &[n.clone(), d.clone()]),
            cell(
                "fig1-mutating",
                &[n.clone(), d.clone(), ("budget", Scalar::Int(1))],
            ),
            cell("fig2", &[n.clone(), f.clone(), d.clone()]),
            cell("pinned-upsilon", &[n.clone(), f.clone(), d.clone()]),
            cell(
                "fig2-dropped",
                &[n.clone(), f.clone(), d.clone(), ("dropper", Scalar::Int(1))],
            ),
            cell(
                "snapshot-commit",
                &[
                    n.clone(),
                    k.clone(),
                    d.clone(),
                    ("buggy", Scalar::Bool(true)),
                ],
            ),
            cell(
                "stable-report",
                &[n.clone(), ("reports", Scalar::Int(2)), d.clone()],
            ),
            cell("converge-offby1", &[n.clone(), k.clone(), d.clone()]),
        ];
        for c in &cases {
            let cfg = resolve_check(c).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(cfg.n_plus_1(), 3, "{}", c.label());
            assert_eq!(cfg.depth(), 4, "{}", c.label());
        }
    }

    #[test]
    fn unknown_axis_and_missing_axis_are_rejected() {
        let c = cell(
            "fig1",
            &[
                ("n_plus_1", Scalar::Int(3)),
                ("depth", Scalar::Int(4)),
                ("warble", Scalar::Int(1)),
            ],
        );
        let err = resolve_check(&c).expect_err("unknown axis");
        assert!(err.contains("unknown axis `warble`"), "{err}");

        let c = cell(
            "fig2",
            &[("n_plus_1", Scalar::Int(3)), ("depth", Scalar::Int(4))],
        );
        let err = resolve_check(&c).expect_err("missing axis");
        assert!(err.contains("missing required axis `f`"), "{err}");
    }

    #[test]
    fn type_mismatches_are_rejected() {
        let c = cell(
            "snapshot-commit",
            &[
                ("n_plus_1", Scalar::Int(2)),
                ("k", Scalar::Int(1)),
                ("depth", Scalar::Int(5)),
                ("buggy", Scalar::Int(1)),
            ],
        );
        let err = resolve_check(&c).expect_err("bool expected");
        assert!(err.contains("must be a boolean"), "{err}");
    }

    #[test]
    fn experiment_protocols_are_not_check_protocols() {
        let c = cell("e9-baseline", &[("crashes", Scalar::Int(0))]);
        let err = resolve_check(&c).expect_err("not a check protocol");
        assert!(err.contains("not a check protocol"), "{err}");
    }
}
