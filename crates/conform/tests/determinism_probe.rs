//! The determinism rules on sources that defeat a line-by-line substring
//! scanner: renamed imports, a banned call after a string holding `//`,
//! banned names inside string literals, scoped threads, and a thread spawn
//! in a `#[cfg(all(test, …))]` module, and identifiers that merely
//! contain a banned name. The exact findings are pinned.

use upsilon_conform::{check_sources, Allowlist, RuleId};

/// `(path, source)` of each probe file, as simulator sources.
const PROBE: &[(&str, &str)] = &[
    (
        "crates/sim/src/probe_alias.rs",
        "\
use std::thread as th;
use std::time::Instant as Clock;
use std::collections::HashMap as Map;

pub fn clock() -> u128 {
    Clock::now().elapsed().as_nanos()
}

pub fn spawn() {
    th::spawn(|| {}).join().expect(\"joined\");
}

pub fn map() -> usize {
    Map::<u8, u8>::new().len()
}
",
    ),
    (
        "crates/sim/src/probe_string.rs",
        "\
pub fn after_url() -> u128 {
    let _u = \"http://x\"; std::time::Instant::now().elapsed().as_nanos()
}
",
    ),
    (
        "crates/sim/src/probe_group.rs",
        "\
use std::time::{Duration, Instant as Clock};

pub fn group() -> Duration {
    Clock::now().elapsed()
}
",
    ),
    (
        "crates/sim/src/probe_names.rs",
        "\
use std::time::Instant as Clock;

pub struct InstantReplay;

pub fn no_thread_rng_here(_: InstantReplay) -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}

pub fn clock() -> u128 {
    Clock::now().elapsed().as_nanos() + std::time::Instant::now().elapsed().as_nanos()
}

#[cfg(test)]
mod tests {
    #[test]
    fn flags_wall_clock_and_thread_rng() {}
}
",
    ),
    (
        "crates/sim/src/probe_clean.rs",
        "\
pub fn names() -> [&'static str; 2] {
    [\"HashMap\", \"Instant::now\"]
}

pub fn scoped() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}

#[cfg(all(test, debug_assertions))]
mod tests {
    #[test]
    fn spawns() {
        std::thread::spawn(|| {}).join().expect(\"joined\");
    }
}
",
    ),
];

#[test]
fn probe_findings_are_pinned() {
    let sources: Vec<(String, String)> = PROBE
        .iter()
        .map(|(path, src)| ((*path).to_string(), (*src).to_string()))
        .collect();
    let report = check_sources(&[], &sources, &Allowlist::empty());
    let found: Vec<(RuleId, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    let alias = "crates/sim/src/probe_alias.rs";
    let group = "crates/sim/src/probe_group.rs";
    let names = "crates/sim/src/probe_names.rs";
    assert_eq!(
        found,
        vec![
            // Each renamed import is flagged where it names the construct,
            // and its uses resolve through the rename.
            (RuleId::WallClock, alias, 2),
            (RuleId::HashCollections, alias, 3),
            (RuleId::WallClock, alias, 6),
            (RuleId::ThreadSpawn, alias, 10),
            (RuleId::HashCollections, alias, 14),
            (RuleId::WallClock, group, 1),
            (RuleId::WallClock, group, 4),
            // Banned names match whole identifiers: `InstantReplay`,
            // `no_thread_rng_here` and `flags_wall_clock_and_thread_rng`
            // are not findings, the banned names beside them are.
            (RuleId::WallClock, names, 1),
            (RuleId::HashCollections, names, 6),
            (RuleId::WallClock, names, 10),
            // The `//` inside the string does not hide the clock read.
            (RuleId::WallClock, "crates/sim/src/probe_string.rs", 2),
        ],
        "{:#?}",
        report.findings
    );
    assert!(report.suppressed.is_empty());
    assert_eq!(report.files.len(), PROBE.len());
}
