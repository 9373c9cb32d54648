//! # upsilon-check
//!
//! Systematic exploration of the simulator's run space: every interleaving
//! (up to partial-order equivalence), every crash scenario (up to
//! crash-commutation symmetry, bounded by `max_faults`) and every scripted
//! failure-detector output (bounded by an [`FdMenu`]) of a configured
//! algorithm, with every explored run checked against the §3.3
//! run-condition validator and a set of trace-closed [`RunSpec`]s.
//!
//! Violations come back as shrunk, replayable `UCHK1:` tokens
//! ([`ReplayToken`]) that [`replay_token`] re-executes bit-identically.
//!
//! ```
//! use upsilon_check::samples;
//! use upsilon_check::check;
//!
//! // The seeded bug: p1 forgets to announce its proposal, and 1-set
//! // agreement between two processes breaks in some interleaving.
//! let report = check(&samples::snapshot_commit(2, 1, 9, true));
//! assert!(!report.ok());
//! let token = &report.violations[0].token;
//! println!("replay with: {token}");
//! ```
//!
//! See `DESIGN.md` §8 for the conflict relation, the crash-injection
//! lattice and the token format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod explore;
pub mod menu;
pub mod samples;

pub use explore::{
    check, path_of_token, positive, replay_token, run_token, shrink_violation, token_of,
    violation_of, AlgoFactory, AxisError, CheckConfig, CheckReport, CheckStats, Choice,
    CounterExample, Exec, Footprint, ReplayOutcome, ShrinkResult,
};
pub use menu::{ConstantMenu, FdMenu, FnMenu, MenuOracle, MutatingMenu, QueryRecord};

pub use upsilon_analysis::{RunConditionsSpec, RunSpec};
pub use upsilon_sim::{ReplayToken, TokenError};
