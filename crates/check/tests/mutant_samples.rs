//! The seeded-mutant sample configurations behave as designed: faithful
//! variants explore clean, mutated variants yield k-set-agreement
//! counterexamples. The fuzz crate's mutation-detection suite then finds
//! the same bugs by random search; this test pins down that they are
//! findable at all (and that the faithful baselines are not false alarms).

use upsilon_check::samples;
use upsilon_check::{check, replay_token};
use upsilon_sim::{EngineKind, ProcessId};

#[test]
fn converge_offby1_slack_zero_is_clean() {
    let report = check(&samples::converge_offby1(3, 1, 10, 0));
    assert!(report.ok(), "faithful 1-converge must satisfy 1-agreement");
}

#[test]
fn converge_offby1_slack_one_violates() {
    let cfg = samples::converge_offby1(3, 1, 12, 1);
    let report = check(&cfg);
    assert!(!report.ok(), "clean_slack = 1 must break 1-agreement");
    let v = &report.violations[0];
    assert_eq!(v.spec, "k-set-agreement");
    let out = replay_token(&cfg, &v.token, EngineKind::Inline);
    assert!(
        out.verdicts.iter().any(|(n, r)| n == &v.spec && r.is_err()),
        "shrunk token must still violate"
    );
}

#[test]
fn fig2_faithful_opener_is_clean() {
    let report = check(&samples::fig2_dropped_write(2, 1, 9, 0, None));
    assert!(report.ok(), "faithful Fig. 2 opener must satisfy agreement");
}

#[test]
fn fig2_dropped_write_violates() {
    let cfg = samples::fig2_dropped_write(2, 1, 16, 0, Some(ProcessId(1)));
    let report = check(&cfg);
    assert!(
        !report.ok(),
        "dropping p1's opener announce must break f-set agreement"
    );
    let v = &report.violations[0];
    assert_eq!(v.spec, "k-set-agreement");
    let out = replay_token(&cfg, &v.token, EngineKind::Inline);
    assert!(
        out.verdicts.iter().any(|(n, r)| n == &v.spec && r.is_err()),
        "shrunk token must still violate"
    );
}
