//! # upsilon-analysis
//!
//! Three cooperating analysis passes that keep the reproduction honest:
//!
//! 1. **Source analyzer** ([`upsilon_conform`]) — a purpose-built
//!    lexer/parser over the workspace sources that enforces the
//!    determinism rules everywhere (no unseeded hash collections, wall
//!    clocks, `thread_rng` or stray thread spawns; no bare `unwrap()` in
//!    the simulator) and, over every algorithm body in the protocol
//!    crates, no host APIs (C2) and a static per-invocation step bound for
//!    every `wait_free`-claimed routine (C4). One shared operation per
//!    atomic step needs no pass: every `Ctx` operation takes `&mut self`,
//!    so the compiler enforces it.
//! 2. **Run-condition validator** ([`run_conditions`]) — an independent
//!    checker of the §3.3 well-formedness conditions on recorded
//!    [`upsilon_sim::Run`]s: strictly increasing step times, no steps by a
//!    process after its crash time in `F(t)`, query steps consistent with
//!    the failure-detector history `H(p, t)`, irrevocable decisions, and
//!    σ/times alignment in the induced trace of §3.4.
//! 3. **Linearizability checker** ([`linearizability`]) — a Wing–Gong
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
//! The two static passes (conform and the [`upsilon_commute`] audit) run
//! through `analyze`, the crate's only binary:
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- <conform|commute> [--json]
//! ```
//!
//! They share one path through it: one [`upsilon_conform::Allowlist`]
//! format, `--json` or human output, and exit status 0 (clean), 1
//! (findings, or a stale allowlist entry) or 2 (usage or I/O error).
//! `commute --emit` prints the generated `upsilon_sim::commute` module.
//! The validator and the linearizability checker are libraries: the
//! explorer, the experiments and the tests call them on the runs they
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod linearizability;
pub mod run_conditions;
pub mod spec;

pub use linearizability::{
    check_linearizable, LinError, OpRecord, RegisterSpec, SeqSpec, SnapshotSpec,
};
pub use run_conditions::{
    check_fd_history, check_run, check_run_for, RunStats, RunView, RunViolation,
};
pub use spec::{RunConditionsSpec, RunSpec};
