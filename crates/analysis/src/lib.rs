//! # upsilon-analysis
//!
//! Four cooperating analysis passes that keep the reproduction honest:
//!
//! 1. **Determinism lint** ([`lint`]) — a source-level scan of the
//!    simulator crates banning constructs that silently break replayability
//!    (unseeded hash collections, wall clocks, `thread_rng`, stray thread
//!    spawns, bare `unwrap()` in simulator hot paths), with an allowlist
//!    file for audited exceptions.
//! 2. **§3.1 conformance checker** ([`upsilon_conform`]) — a
//!    purpose-built lexer/parser that walks every algorithm body in the
//!    protocol crates and enforces the step-atomicity contract: one
//!    `ctx`-mediated shared operation per await point (C1), no host APIs
//!    (C2), no escaping handles (C3), and a static per-invocation step
//!    bound for every `wait_free`-claimed routine (C4).
//! 3. **Run-condition validator** ([`run_conditions`]) — an independent
//!    checker of the §3.3 well-formedness conditions on recorded
//!    [`upsilon_sim::Run`]s: strictly increasing step times, no steps by a
//!    process after its crash time in `F(t)`, query steps consistent with
//!    the failure-detector history `H(p, t)`, irrevocable decisions, and
//!    σ/times alignment in the induced trace of §3.4.
//! 4. **Linearizability checker** ([`linearizability`]) — a Wing–Gong
//!    style checker with partial-order pruning for register and snapshot
//!    histories, used to show that the native snapshot and the Afek et al.
//!    register-only construction implement the *same* sequential object
//!    rather than merely producing look-alike final states.
//!
//! The validator is deliberately independent of the simulator's own
//! bookkeeping: it re-derives every property from the public `Run`
//! accessors, so a bug in the recorder and a bug in the checker would have
//! to coincide to slip through.
//!
//! Every pass runs through `analyze`, the crate's only binary:
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- \
//!     <lint|conform|commute|symmetry|run-conditions|scenario> [--json]
//! ```
//!
//! The four static passes (lint, conform, and the [`upsilon_commute`] and
//! [`upsilon_symmetry`] audits) share one path through it: one
//! [`upsilon_conform::Allowlist`] format, `--json` or human output, and
//! exit status 0 (clean), 1 (findings) or 2 (usage or I/O error).
//! `commute --emit` and `symmetry --emit` print the generated
//! `upsilon_sim::commute` and `upsilon_sim::symmetry` modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod linearizability;
pub mod lint;
pub mod run_conditions;
pub mod spec;

pub use linearizability::{
    check_linearizable, LinError, OpRecord, RegisterSpec, SeqSpec, SnapshotSpec,
};
pub use lint::{Finding, LintReport, Rule};
pub use run_conditions::{
    check_fd_history, check_run, check_run_for, RunStats, RunView, RunViolation,
};
pub use spec::{RunConditionsSpec, RunSpec};
