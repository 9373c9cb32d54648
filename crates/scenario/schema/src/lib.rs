//! # upsilon-scenario-schema
//!
//! The declarative scenario DSL shared by the model checker, the fuzzer,
//! the swarm executor and the experiment loops: a TOML-subset parser
//! ([`toml::Diag`]-carrying), the validated [`ScenarioDoc`] model, and
//! order-deterministic axis expansion into [`Cell`]s.
//!
//! This crate is deliberately dependency-free: it parses, validates and
//! expands documents without knowing any runner. The execution side —
//! resolving a [`Cell`] to a `CheckConfig`, `FuzzConfig` or experiment
//! loop and fanning the matrix over `run_batch` — lives in the sibling
//! `upsilon-scenario` crate.
//!
//! ## File format
//!
//! ```toml
//! name = "fig2"             # must match the file stem
//! kind = "check"            # check | fuzz | experiment | swarm
//! protocol = "fig2"         # one of KNOWN_PROTOCOLS
//! expect = "pass"           # pass | violation
//! seeds = "0..4"            # int, array, or "A..B" half-open range
//! repeats = 1
//!
//! [params]                  # the axes; arrays and ranges expand
//! n_plus_1 = [3, 4]
//! depth = 7
//!
//! [variant.sound]           # optional named A/B arms
//! buggy = false
//! [variant.buggy]
//! buggy = true
//! expect = "violation"      # arms may override expect and protocol
//! ```
//!
//! Expansion is deterministic: arms in declaration order, axes in
//! declaration order with the leftmost axis varying slowest, and every
//! axis must be duplicate-free. See `DESIGN.md` §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod toml;

use std::fmt;

use crate::toml::{parse_sections, RawValue, Section};
pub use crate::toml::{Diag, Scalar};

/// Protocol names resolvable by the `upsilon-scenario` registry.
///
/// The registry has a test asserting it resolves exactly this list; adding
/// a protocol means extending both in the same change.
pub const KNOWN_PROTOCOLS: &[&str] = &[
    "fig1",
    "fig1-mutating",
    "fig2",
    "pinned-upsilon",
    "snapshot-commit",
    "stable-report",
    "converge-offby1",
    "fig2-dropped",
    "e9-baseline",
    "e10-converge",
    "e11-snapshots",
    "swarm",
];

/// The check samples that must always have a checked-in scenario file;
/// the `upsilon-scenario` registry tests fail if any is missing from
/// `scenarios/`.
pub const REQUIRED_SAMPLES: &[&str] = &[
    "fig1",
    "fig1-mutating",
    "fig2",
    "pinned-upsilon",
    "snapshot-commit",
    "stable-report",
];

/// Which runner consumes the scenario.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Bounded DPOR model checking (`upsilon-check`).
    Check,
    /// Coverage-guided PCT fuzzing (`upsilon-fuzz`).
    Fuzz,
    /// The E9–E11 style simulation experiment loops.
    Experiment,
    /// Packed multi-tenant campaigns (`upsilon-swarm`).
    Swarm,
}

impl Kind {
    /// The stable string form used in scenario files.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Check => "check",
            Kind::Fuzz => "fuzz",
            Kind::Experiment => "experiment",
            Kind::Swarm => "swarm",
        }
    }

    fn from_str(s: &str) -> Option<Kind> {
        match s {
            "check" => Some(Kind::Check),
            "fuzz" => Some(Kind::Fuzz),
            "experiment" => Some(Kind::Experiment),
            "swarm" => Some(Kind::Swarm),
            _ => None,
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The expected verdict of a cell, gating `--expect` runs and A/B tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// No violation may be found.
    Pass,
    /// At least one violation must be found.
    Violation,
}

impl Expect {
    /// The stable string form used in scenario files.
    pub fn as_str(self) -> &'static str {
        match self {
            Expect::Pass => "pass",
            Expect::Violation => "violation",
        }
    }

    fn from_str(s: &str) -> Option<Expect> {
        match s {
            "pass" => Some(Expect::Pass),
            "violation" => Some(Expect::Violation),
            _ => None,
        }
    }
}

impl fmt::Display for Expect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One named axis with its (duplicate-free, declaration-ordered) values.
#[derive(Clone, PartialEq, Debug)]
pub struct AxisDecl {
    /// The parameter name (e.g. `n_plus_1`, `depth`, `buggy`).
    pub key: String,
    /// The values the axis ranges over; a plain scalar is a 1-value axis.
    pub values: Vec<Scalar>,
}

/// One named A/B arm: overrides applied on top of the base `[params]`.
#[derive(Clone, PartialEq, Debug)]
pub struct Variant {
    /// The arm name from the `[variant.NAME]` header.
    pub arm: String,
    /// Arm-local protocol override.
    pub protocol: Option<String>,
    /// Arm-local expectation override.
    pub expect: Option<Expect>,
    /// Arm-local axis overrides (replace same-key base axes, append new).
    pub overrides: Vec<AxisDecl>,
}

/// The `[fuzz]` block: campaign knobs, single-valued (never axes).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FuzzBlock {
    /// `key = scalar` entries in declaration order.
    pub entries: Vec<(String, Scalar)>,
}

impl FuzzBlock {
    /// Looks up a fuzz knob by key.
    pub fn get(&self, key: &str) -> Option<&Scalar> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// The `[swarm]` block: packed-campaign knobs, single-valued (the
/// `instances`, `batch` and `window` knobs may instead appear as `[params]`
/// axes when a scenario sweeps them).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SwarmBlock {
    /// `key = scalar` entries in declaration order.
    pub entries: Vec<(String, Scalar)>,
}

impl SwarmBlock {
    /// Looks up a swarm knob by key.
    pub fn get(&self, key: &str) -> Option<&Scalar> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Keys admitted in the `[swarm]` block, mirroring `SwarmConfig`: the
/// campaign size, the per-sweep step quota, the live-cell window (0 =
/// full pack), and the protocol mix string (`name[:weight],...`).
pub const SWARM_KEYS: &[&str] = &["instances", "batch", "window", "mix"];

/// Keys admitted in the `[fuzz]` block, mirroring `FuzzConfig`.
pub const FUZZ_KEYS: &[&str] = &[
    "rounds",
    "execs_per_round",
    "pct_share",
    "pct_depth",
    "mutate_share",
    "window",
    "chunk",
    "max_violations",
    "shrink",
];

/// A validated scenario document.
///
/// Spans are used only while parsing — the model itself is span-free so
/// that `parse(to_toml(doc)) == doc` holds structurally.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioDoc {
    /// Scenario name; must equal the file stem for checked-in files.
    pub name: String,
    /// Which runner consumes it.
    pub kind: Kind,
    /// Base protocol (an entry of [`KNOWN_PROTOCOLS`]).
    pub protocol: String,
    /// Base expectation (arms may override).
    pub expect: Expect,
    /// Seeds the matrix driver crosses every cell with.
    pub seeds: Vec<u64>,
    /// Repeat count per (cell, seed); detects nondeterminism when > 1.
    pub repeats: u32,
    /// The base axes from `[params]`.
    pub params: Vec<AxisDecl>,
    /// Fuzz campaign knobs; present only when `kind = "fuzz"`.
    pub fuzz: Option<FuzzBlock>,
    /// Swarm campaign knobs; present only when `kind = "swarm"`.
    pub swarm: Option<SwarmBlock>,
    /// Named A/B arms; empty means a single implicit `default` arm.
    pub variants: Vec<Variant>,
}

/// One expanded matrix cell: a concrete binding of every axis under one
/// arm. The matrix driver crosses cells with `seeds × repeats`.
#[derive(Clone, PartialEq, Debug)]
pub struct Cell {
    /// The arm the cell belongs to (`default` when no variants).
    pub arm: String,
    /// The resolved protocol for this cell.
    pub protocol: String,
    /// The resolved expectation for this cell.
    pub expect: Expect,
    /// Concrete `(axis, value)` bindings, axes in declaration order.
    pub bindings: Vec<(String, Scalar)>,
}

impl Cell {
    /// Looks up a binding by axis name.
    pub fn get(&self, key: &str) -> Option<&Scalar> {
        self.bindings.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A stable one-line label: `arm/protocol k1=v1 k2=v2 ...`.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", self.arm, self.protocol);
        for (k, v) in &self.bindings {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
        }
        s
    }
}

/// Arm, cell and run counts of a scenario's matrix, for
/// `upsilon-scenario validate` and `expand`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MatrixSummary {
    /// Number of arms (1 for variant-free scenarios).
    pub arms: usize,
    /// Expanded cell count across all arms.
    pub cells: usize,
    /// Seed count.
    pub seeds: usize,
    /// Repeats per (cell, seed).
    pub repeats: u32,
    /// `cells × seeds × repeats`.
    pub total_runs: usize,
}

/// Root keys with reserved meaning (everything else is rejected; axes
/// belong in `[params]`).
const ROOT_KEYS: &[&str] = &["name", "kind", "protocol", "expect", "seeds", "repeats"];

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Parses `"A..B"` as a half-open integer range.
fn parse_range(s: &str) -> Option<(i64, i64)> {
    let (a, b) = s.split_once("..")?;
    let lo = a.trim().parse::<i64>().ok()?;
    let hi = b.trim().parse::<i64>().ok()?;
    Some((lo, hi))
}

/// The most values one `"A..B"` range may span. Ranges are expanded at
/// parse time, so an unbounded one would exhaust memory.
const MAX_RANGE_VALUES: i128 = 1 << 16;

/// Expands a raw axis value: scalars stay single-valued, arrays keep their
/// order, and a `"A..B"` string becomes the integer range `A..B`.
fn axis_values(raw: &RawValue, line: u32, col: u32) -> Result<Vec<Scalar>, Diag> {
    let values = match raw {
        RawValue::Scalar(Scalar::Str(s)) if s.contains("..") => {
            let (lo, hi) = parse_range(s).ok_or_else(|| {
                Diag::new(
                    line,
                    col,
                    format!("malformed range {s:?} (expected \"A..B\")"),
                )
            })?;
            if lo >= hi {
                return Err(Diag::new(
                    line,
                    col,
                    format!("empty range {s:?} (need A < B)"),
                ));
            }
            if i128::from(hi) - i128::from(lo) > MAX_RANGE_VALUES {
                return Err(Diag::new(
                    line,
                    col,
                    format!("range {s:?} spans more than {MAX_RANGE_VALUES} values"),
                ));
            }
            // Distinct by construction: skip the quadratic duplicate scan.
            return Ok((lo..hi).map(Scalar::Int).collect());
        }
        RawValue::Scalar(s) => vec![s.clone()],
        RawValue::Array(items) => items.clone(),
    };
    for (i, v) in values.iter().enumerate() {
        if values[..i].contains(v) {
            return Err(Diag::new(
                line,
                col,
                format!("duplicate axis value {v} (axes must be duplicate-free)"),
            ));
        }
    }
    Ok(values)
}

fn scalar_str<'a>(raw: &'a RawValue, line: u32, col: u32, what: &str) -> Result<&'a str, Diag> {
    match raw {
        RawValue::Scalar(Scalar::Str(s)) => Ok(s),
        RawValue::Scalar(other) => Err(Diag::new(
            line,
            col,
            format!("{what} must be a string, got {}", other.type_name()),
        )),
        RawValue::Array(_) => Err(Diag::new(line, col, format!("{what} must be a string"))),
    }
}

fn axes_from(section: &Section, where_: &str) -> Result<Vec<AxisDecl>, Diag> {
    let mut axes = Vec::new();
    for entry in &section.entries {
        if ROOT_KEYS.contains(&entry.key.as_str())
            && entry.key != "protocol"
            && entry.key != "expect"
        {
            return Err(Diag::new(
                entry.line,
                entry.col,
                format!("reserved key {:?} is not allowed in {where_}", entry.key),
            ));
        }
        axes.push(AxisDecl {
            key: entry.key.clone(),
            values: axis_values(&entry.value, entry.vline, entry.vcol)?,
        });
    }
    Ok(axes)
}

impl ScenarioDoc {
    /// Parses and validates scenario text.
    ///
    /// # Errors
    ///
    /// Returns the first span-carrying [`Diag`] — a syntax error from the
    /// TOML-subset parser or a validation error (unknown key/section,
    /// unknown protocol, duplicate axis value, malformed range, …).
    pub fn parse(text: &str) -> Result<ScenarioDoc, Diag> {
        let sections = parse_sections(text)?;
        let root = &sections[0];

        let mut name = None;
        let mut kind = None;
        let mut protocol = None;
        let mut expect = Expect::Pass;
        let mut seeds = vec![0u64];
        let mut repeats = 1u32;

        for entry in &root.entries {
            let (line, col) = (entry.vline, entry.vcol);
            match entry.key.as_str() {
                "name" => {
                    let s = scalar_str(&entry.value, line, col, "name")?;
                    if !is_ident(s) {
                        return Err(Diag::new(
                            line,
                            col,
                            format!("name {s:?} must use only [A-Za-z0-9_-]"),
                        ));
                    }
                    name = Some(s.to_string());
                }
                "kind" => {
                    let s = scalar_str(&entry.value, line, col, "kind")?;
                    kind = Some(Kind::from_str(s).ok_or_else(|| {
                        Diag::new(
                            line,
                            col,
                            format!("unknown kind {s:?} (check | fuzz | experiment | swarm)"),
                        )
                    })?);
                }
                "protocol" => {
                    let s = scalar_str(&entry.value, line, col, "protocol")?;
                    protocol = Some(check_protocol(s, line, col)?);
                }
                "expect" => {
                    let s = scalar_str(&entry.value, line, col, "expect")?;
                    expect = parse_expect(s, line, col)?;
                }
                "seeds" => {
                    seeds = axis_values(&entry.value, line, col)?
                        .into_iter()
                        .map(|v| match v {
                            Scalar::Int(i) if i >= 0 => Ok(i as u64),
                            other => Err(Diag::new(
                                line,
                                col,
                                format!("seeds must be non-negative integers, got {other}"),
                            )),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "repeats" => match entry.value {
                    RawValue::Scalar(Scalar::Int(i)) if i >= 1 => repeats = i as u32,
                    _ => {
                        return Err(Diag::new(line, col, "repeats must be a positive integer"));
                    }
                },
                other => {
                    return Err(Diag::new(
                        entry.line,
                        entry.col,
                        format!("unknown top-level key {other:?} (axes belong in [params])"),
                    ));
                }
            }
        }

        let name =
            name.ok_or_else(|| Diag::new(root.line, root.col, "missing required key \"name\""))?;
        let kind =
            kind.ok_or_else(|| Diag::new(root.line, root.col, "missing required key \"kind\""))?;
        let protocol = protocol
            .ok_or_else(|| Diag::new(root.line, root.col, "missing required key \"protocol\""))?;

        let mut params = Vec::new();
        let mut fuzz = None;
        let mut swarm = None;
        let mut variants: Vec<Variant> = Vec::new();

        for section in &sections[1..] {
            match section.path.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["params"] => {
                    if !params.is_empty() {
                        return Err(Diag::new(
                            section.line,
                            section.col,
                            "duplicate [params] section",
                        ));
                    }
                    params = axes_from(section, "[params]")?;
                    for axis in &params {
                        if axis.key == "protocol" || axis.key == "expect" {
                            return Err(Diag::new(
                                section.line,
                                section.col,
                                format!("reserved key {:?} is not allowed in [params]", axis.key),
                            ));
                        }
                    }
                }
                ["fuzz"] => {
                    if fuzz.is_some() {
                        return Err(Diag::new(
                            section.line,
                            section.col,
                            "duplicate [fuzz] section",
                        ));
                    }
                    let mut entries = Vec::new();
                    for entry in &section.entries {
                        if !FUZZ_KEYS.contains(&entry.key.as_str()) {
                            return Err(Diag::new(
                                entry.line,
                                entry.col,
                                format!(
                                    "unknown [fuzz] key {:?} (known: {})",
                                    entry.key,
                                    FUZZ_KEYS.join(", ")
                                ),
                            ));
                        }
                        match &entry.value {
                            RawValue::Scalar(s @ (Scalar::Int(_) | Scalar::Bool(_))) => {
                                entries.push((entry.key.clone(), s.clone()));
                            }
                            _ => {
                                return Err(Diag::new(
                                    entry.vline,
                                    entry.vcol,
                                    format!(
                                        "[fuzz] {:?} must be a single integer or boolean",
                                        entry.key
                                    ),
                                ));
                            }
                        }
                    }
                    fuzz = Some(FuzzBlock { entries });
                }
                ["swarm"] => {
                    if swarm.is_some() {
                        return Err(Diag::new(
                            section.line,
                            section.col,
                            "duplicate [swarm] section",
                        ));
                    }
                    let mut entries = Vec::new();
                    for entry in &section.entries {
                        if !SWARM_KEYS.contains(&entry.key.as_str()) {
                            return Err(Diag::new(
                                entry.line,
                                entry.col,
                                format!(
                                    "unknown [swarm] key {:?} (known: {})",
                                    entry.key,
                                    SWARM_KEYS.join(", ")
                                ),
                            ));
                        }
                        match &entry.value {
                            RawValue::Scalar(s @ Scalar::Str(_)) if entry.key == "mix" => {
                                entries.push((entry.key.clone(), s.clone()));
                            }
                            RawValue::Scalar(s @ Scalar::Int(_)) if entry.key != "mix" => {
                                entries.push((entry.key.clone(), s.clone()));
                            }
                            _ => {
                                return Err(Diag::new(
                                    entry.vline,
                                    entry.vcol,
                                    if entry.key == "mix" {
                                        "[swarm] \"mix\" must be a single string".to_string()
                                    } else {
                                        format!("[swarm] {:?} must be a single integer", entry.key)
                                    },
                                ));
                            }
                        }
                    }
                    swarm = Some(SwarmBlock { entries });
                }
                ["variant", arm] => {
                    if !is_ident(arm) {
                        return Err(Diag::new(
                            section.line,
                            section.col,
                            format!("variant arm {arm:?} must use only [A-Za-z0-9_-]"),
                        ));
                    }
                    if variants.iter().any(|v| v.arm == arm) {
                        return Err(Diag::new(
                            section.line,
                            section.col,
                            format!("duplicate variant arm {arm:?}"),
                        ));
                    }
                    let mut v = Variant {
                        arm: arm.to_string(),
                        protocol: None,
                        expect: None,
                        overrides: Vec::new(),
                    };
                    for entry in &section.entries {
                        let (line, col) = (entry.vline, entry.vcol);
                        match entry.key.as_str() {
                            "protocol" => {
                                let s = scalar_str(&entry.value, line, col, "protocol")?;
                                v.protocol = Some(check_protocol(s, line, col)?);
                            }
                            "expect" => {
                                let s = scalar_str(&entry.value, line, col, "expect")?;
                                v.expect = Some(parse_expect(s, line, col)?);
                            }
                            _ => {}
                        }
                    }
                    let all = axes_from(section, "a [variant] arm")?;
                    v.overrides = all
                        .into_iter()
                        .filter(|a| a.key != "protocol" && a.key != "expect")
                        .collect();
                    variants.push(v);
                }
                _ => {
                    return Err(Diag::new(
                        section.line,
                        section.col,
                        format!(
                            "unknown section [{}] (expected [params], [fuzz], [swarm] or [variant.NAME])",
                            section.path.join(".")
                        ),
                    ));
                }
            }
        }

        if fuzz.is_some() && kind != Kind::Fuzz {
            return Err(Diag::new(
                root.line,
                root.col,
                format!("[fuzz] section requires kind = \"fuzz\", got {kind:?}").to_lowercase(),
            ));
        }
        if swarm.is_some() && kind != Kind::Swarm {
            return Err(Diag::new(
                root.line,
                root.col,
                format!("[swarm] section requires kind = \"swarm\", got {kind:?}").to_lowercase(),
            ));
        }

        for (i, s) in seeds.iter().enumerate() {
            if seeds[..i].contains(s) {
                return Err(Diag::new(
                    root.line,
                    root.col,
                    format!("duplicate seed {s}"),
                ));
            }
        }

        Ok(ScenarioDoc {
            name,
            kind,
            protocol,
            expect,
            seeds,
            repeats,
            params,
            fuzz,
            swarm,
            variants,
        })
    }

    /// Canonically serializes the document; `parse(doc.to_toml()) == doc`.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", Scalar::Str(self.name.clone())));
        out.push_str(&format!("kind = \"{}\"\n", self.kind));
        out.push_str(&format!(
            "protocol = {}\n",
            Scalar::Str(self.protocol.clone())
        ));
        out.push_str(&format!("expect = \"{}\"\n", self.expect));
        let seeds = self
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("seeds = [{seeds}]\n"));
        out.push_str(&format!("repeats = {}\n", self.repeats));
        let push_axes = |out: &mut String, axes: &[AxisDecl]| {
            for axis in axes {
                let vals = axis
                    .values
                    .iter()
                    .map(Scalar::to_string)
                    .collect::<Vec<_>>();
                if vals.len() == 1 {
                    out.push_str(&format!("{} = {}\n", axis.key, vals[0]));
                } else {
                    out.push_str(&format!("{} = [{}]\n", axis.key, vals.join(", ")));
                }
            }
        };
        if !self.params.is_empty() {
            out.push_str("\n[params]\n");
            push_axes(&mut out, &self.params);
        }
        if let Some(fuzz) = &self.fuzz {
            out.push_str("\n[fuzz]\n");
            for (k, v) in &fuzz.entries {
                out.push_str(&format!("{k} = {v}\n"));
            }
        }
        if let Some(swarm) = &self.swarm {
            out.push_str("\n[swarm]\n");
            for (k, v) in &swarm.entries {
                out.push_str(&format!("{k} = {v}\n"));
            }
        }
        for v in &self.variants {
            out.push_str(&format!("\n[variant.{}]\n", v.arm));
            if let Some(p) = &v.protocol {
                out.push_str(&format!("protocol = {}\n", Scalar::Str(p.clone())));
            }
            if let Some(e) = v.expect {
                out.push_str(&format!("expect = \"{e}\"\n"));
            }
            push_axes(&mut out, &v.overrides);
        }
        out
    }

    /// The arms expansion iterates: the declared variants, or one implicit
    /// `default` arm when the scenario declares none.
    fn arms(&self) -> Vec<Variant> {
        if self.variants.is_empty() {
            vec![Variant {
                arm: "default".to_string(),
                protocol: None,
                expect: None,
                overrides: Vec::new(),
            }]
        } else {
            self.variants.clone()
        }
    }

    /// Expands the matrix into cells: arms in declaration order, then the
    /// cartesian product of that arm's axes with the leftmost axis varying
    /// slowest. Deterministic and duplicate-free by construction (axes are
    /// validated duplicate-free and keys are unique per table).
    pub fn expand(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for variant in self.arms() {
            // Merge: base axes in order, overridden in place; new axes
            // appended in the arm's declaration order.
            let mut axes = self.params.clone();
            for over in &variant.overrides {
                match axes.iter_mut().find(|a| a.key == over.key) {
                    Some(slot) => *slot = over.clone(),
                    None => axes.push(over.clone()),
                }
            }
            let protocol = variant.protocol.unwrap_or_else(|| self.protocol.clone());
            let expect = variant.expect.unwrap_or(self.expect);
            let total: usize = axes.iter().map(|a| a.values.len()).product();
            for mut idx in 0..total {
                let mut bindings = Vec::with_capacity(axes.len());
                // Rightmost axis varies fastest == leftmost slowest.
                let mut divisors = Vec::with_capacity(axes.len());
                let mut div = total;
                for a in &axes {
                    div /= a.values.len();
                    divisors.push(div);
                }
                for (a, div) in axes.iter().zip(&divisors) {
                    let pick = idx / div;
                    idx %= div;
                    bindings.push((a.key.clone(), a.values[pick].clone()));
                }
                cells.push(Cell {
                    arm: variant.arm.clone(),
                    protocol: protocol.clone(),
                    expect,
                    bindings,
                });
            }
        }
        cells
    }

    /// Arm, cell and run counts, for `upsilon-scenario validate` and
    /// `expand`.
    pub fn summary(&self) -> MatrixSummary {
        let cells = self.expand().len();
        MatrixSummary {
            arms: self.arms().len(),
            cells,
            seeds: self.seeds.len(),
            repeats: self.repeats,
            total_runs: cells * self.seeds.len() * self.repeats as usize,
        }
    }
}

fn check_protocol(s: &str, line: u32, col: u32) -> Result<String, Diag> {
    if KNOWN_PROTOCOLS.contains(&s) {
        Ok(s.to_string())
    } else {
        Err(Diag::new(
            line,
            col,
            format!(
                "unknown protocol {s:?} (known: {})",
                KNOWN_PROTOCOLS.join(", ")
            ),
        ))
    }
}

fn parse_expect(s: &str, line: u32, col: u32) -> Result<Expect, Diag> {
    Expect::from_str(s).ok_or_else(|| {
        Diag::new(
            line,
            col,
            format!("unknown expect {s:?} (pass | violation)"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "\
name = \"fig2\"
kind = \"check\"
protocol = \"fig2\"
seeds = \"0..3\"

[params]
n_plus_1 = [3, 4]
f = 1
depth = 7
";

    #[test]
    fn parses_and_expands_a_plain_matrix() {
        let doc = ScenarioDoc::parse(FIG2).expect("parses");
        assert_eq!(doc.name, "fig2");
        assert_eq!(doc.kind, Kind::Check);
        assert_eq!(doc.seeds, vec![0, 1, 2]);
        let cells = doc.expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].arm, "default");
        assert_eq!(cells[0].get("n_plus_1"), Some(&Scalar::Int(3)));
        assert_eq!(cells[1].get("n_plus_1"), Some(&Scalar::Int(4)));
        assert_eq!(cells[0].get("depth"), Some(&Scalar::Int(7)));
        let s = doc.summary();
        assert_eq!(s.arms, 1);
        assert_eq!(s.cells, 2);
        assert_eq!(s.total_runs, 6);
    }

    #[test]
    fn leftmost_axis_varies_slowest() {
        let doc = ScenarioDoc::parse(
            "name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\n[params]\na = [1, 2]\nb = [10, 20]\n",
        )
        .expect("parses");
        let picks: Vec<(i64, i64)> = doc
            .expand()
            .iter()
            .map(|c| {
                let a = match c.get("a") {
                    Some(Scalar::Int(i)) => *i,
                    _ => panic!("a"),
                };
                let b = match c.get("b") {
                    Some(Scalar::Int(i)) => *i,
                    _ => panic!("b"),
                };
                (a, b)
            })
            .collect();
        assert_eq!(picks, vec![(1, 10), (1, 20), (2, 10), (2, 20)]);
    }

    #[test]
    fn variants_override_and_extend() {
        let doc = ScenarioDoc::parse(
            "name = \"commit\"\nkind = \"check\"\nprotocol = \"snapshot-commit\"\n\
             [params]\nn_plus_1 = 3\nbuggy = false\n\
             [variant.sound]\n\
             [variant.buggy]\nbuggy = true\nexpect = \"violation\"\nextra = 9\n",
        )
        .expect("parses");
        let cells = doc.expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].arm, "sound");
        assert_eq!(cells[0].expect, Expect::Pass);
        assert_eq!(cells[0].get("buggy"), Some(&Scalar::Bool(false)));
        assert_eq!(cells[1].arm, "buggy");
        assert_eq!(cells[1].expect, Expect::Violation);
        assert_eq!(cells[1].get("buggy"), Some(&Scalar::Bool(true)));
        assert_eq!(cells[1].get("extra"), Some(&Scalar::Int(9)));
    }

    #[test]
    fn round_trips_through_to_toml() {
        let doc = ScenarioDoc::parse(FIG2).expect("parses");
        let rendered = doc.to_toml();
        let again = ScenarioDoc::parse(&rendered).expect("reparses");
        assert_eq!(doc, again);
    }

    #[test]
    fn validation_diagnostics_carry_spans() {
        let d = ScenarioDoc::parse("name = \"x\"\nkind = \"warble\"\nprotocol = \"fig1\"\n")
            .expect_err("bad kind");
        assert_eq!((d.line, d.col), (2, 8));
        assert!(d.msg.contains("unknown kind"), "{d}");

        let d = ScenarioDoc::parse("name = \"x\"\nkind = \"check\"\nprotocol = \"nope\"\n")
            .expect_err("bad protocol");
        assert_eq!((d.line, d.col), (3, 12));

        let d = ScenarioDoc::parse(
            "name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\n[params]\nd = [1, 1]\n",
        )
        .expect_err("dup axis value");
        assert_eq!(d.line, 5);
        assert!(d.msg.contains("duplicate axis value"), "{d}");

        let d =
            ScenarioDoc::parse("name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\nbogus = 1\n")
                .expect_err("unknown root key");
        assert_eq!((d.line, d.col), (4, 1));

        // The scenario schema has no engine selector: there is one engine.
        let d = ScenarioDoc::parse(
            "name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\nengine = \"inline\"\n",
        )
        .expect_err("engine is not a key");
        assert_eq!((d.line, d.col), (4, 1));
        assert!(d.msg.contains("unknown top-level key \"engine\""), "{d}");

        let d = ScenarioDoc::parse(
            "name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\nseeds = \"5..5\"\n",
        )
        .expect_err("empty range");
        assert!(d.msg.contains("empty range"), "{d}");

        // Ranges expand at parse time, so a huge one is refused up front
        // instead of exhausting memory; the widest allowed one expands.
        let seeds = |range: &str| {
            ScenarioDoc::parse(&format!(
                "name = \"x\"\nkind = \"check\"\nprotocol = \"fig1\"\nseeds = \"{range}\"\n"
            ))
        };
        let d = seeds("0..9223372036854775807").expect_err("huge range");
        assert_eq!((d.line, d.col), (4, 9));
        assert!(d.msg.contains("spans more than 65536 values"), "{d}");
        assert!(seeds("-9223372036854775808..9223372036854775807").is_err());
        assert!(seeds("0..65537").is_err());
        assert_eq!(seeds("0..65536").expect("widest range").seeds.len(), 65_536);
    }

    #[test]
    fn fuzz_block_requires_fuzz_kind_and_known_keys() {
        let ok = ScenarioDoc::parse(
            "name = \"f\"\nkind = \"fuzz\"\nprotocol = \"snapshot-commit\"\n[fuzz]\nrounds = 2\nshrink = true\n",
        )
        .expect("parses");
        let fuzz = ok.fuzz.expect("has fuzz block");
        assert_eq!(fuzz.get("rounds"), Some(&Scalar::Int(2)));
        assert_eq!(fuzz.get("shrink"), Some(&Scalar::Bool(true)));

        ScenarioDoc::parse(
            "name = \"f\"\nkind = \"check\"\nprotocol = \"fig1\"\n[fuzz]\nrounds = 2\n",
        )
        .expect_err("fuzz block under check kind");
        let d = ScenarioDoc::parse(
            "name = \"f\"\nkind = \"fuzz\"\nprotocol = \"fig1\"\n[fuzz]\nwarp = 2\n",
        )
        .expect_err("unknown fuzz key");
        assert!(d.msg.contains("unknown [fuzz] key"), "{d}");
    }

    #[test]
    fn swarm_block_requires_swarm_kind_and_known_keys() {
        let ok = ScenarioDoc::parse(
            "name = \"s\"\nkind = \"swarm\"\nprotocol = \"swarm\"\n[swarm]\ninstances = 1000\nbatch = 64\nmix = \"converge-pair:3,fig1:1\"\n",
        )
        .expect("parses");
        let swarm = ok.swarm.as_ref().expect("has swarm block");
        assert_eq!(swarm.get("instances"), Some(&Scalar::Int(1000)));
        assert_eq!(
            swarm.get("mix"),
            Some(&Scalar::Str("converge-pair:3,fig1:1".to_string()))
        );

        ScenarioDoc::parse(
            "name = \"s\"\nkind = \"check\"\nprotocol = \"fig1\"\n[swarm]\ninstances = 10\n",
        )
        .expect_err("swarm block under check kind");
        let d = ScenarioDoc::parse(
            "name = \"s\"\nkind = \"swarm\"\nprotocol = \"swarm\"\n[swarm]\nwarp = 2\n",
        )
        .expect_err("unknown swarm key");
        assert!(d.msg.contains("unknown [swarm] key"), "{d}");
        let d = ScenarioDoc::parse(
            "name = \"s\"\nkind = \"swarm\"\nprotocol = \"swarm\"\n[swarm]\nmix = 3\n",
        )
        .expect_err("mix must be a string");
        assert!(d.msg.contains("must be a single string"), "{d}");

        let rendered = ok.to_toml();
        assert_eq!(ScenarioDoc::parse(&rendered).expect("reparses"), ok);
    }

    #[test]
    fn required_samples_are_known_protocols() {
        for s in REQUIRED_SAMPLES {
            assert!(
                KNOWN_PROTOCOLS.contains(s),
                "{s} missing from KNOWN_PROTOCOLS"
            );
        }
    }
}
