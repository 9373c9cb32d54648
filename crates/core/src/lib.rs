//! # upsilon-core
//!
//! The facade and experiment harness of the reproduction of *"On the
//! weakest failure detector ever"* (Guerraoui, Herlihy, Kuznetsov, Lynch,
//! Newport; PODC 2007 / Distributed Computing 2009).
//!
//! The repository implements, from scratch:
//!
//! * the asynchronous shared-memory model of §3 ([`sim`]);
//! * registers, atomic snapshots (native and register-only) and consensus
//!   objects ([`mem`]);
//! * the failure detectors Υ, Υ^f, Ω, Ω_k, P, ◇P, anti-Ω with oracles and
//!   specification checkers ([`fd`]);
//! * the k-converge routine ([`converge`]);
//! * the paper's protocols: Fig. 1, Fig. 2, Ω-consensus, Ω_n type boosting
//!   ([`agreement`]);
//! * the minimality machinery: Fig. 3 extraction, witness maps, Theorem 1/5
//!   adversary games, Υ¹ → Ω ([`extract`]);
//! * runnable experiment harnesses for each paper artifact
//!   ([`experiment`]), protocol compositions ([`pipeline`]) and table /
//!   statistics utilities ([`table`], [`stats`]).
//!
//! ## Quickstart
//!
//! ```
//! use upsilon_core::experiment::{run_fig1, AgreementConfig};
//! use upsilon_core::fd::UpsilonChoice;
//! use upsilon_core::sim::FailurePattern;
//!
//! // 3 processes, wait-free 2-set agreement with Υ and registers (Fig. 1).
//! let cfg = AgreementConfig::new(FailurePattern::failure_free(3));
//! let outcome = run_fig1(&cfg, UpsilonChoice::default());
//! outcome.assert_ok();
//! assert!(outcome.distinct.len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod matrix;
pub mod pipeline;
pub mod render;
pub mod shrink;
pub mod stats;
pub mod table;

pub use upsilon_agreement as agreement;
pub use upsilon_converge as converge;
pub use upsilon_extract as extract;
pub use upsilon_fd as fd;
pub use upsilon_mem as mem;
pub use upsilon_sim as sim;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::agreement::{
        check_consensus, check_k_set_agreement, distinct_proposals, Fig1Config, Fig2Config,
        TaskViolation,
    };
    pub use crate::converge::ConvergeInstance;
    pub use crate::experiment::{
        run_baseline_omega_k, run_boost, run_fig1, run_fig2, run_fig2_custom, run_fig3,
        run_omega_consensus, run_upsilon1_consensus, run_upsilon1_to_omega, AgreementConfig,
        AgreementOutcome, ExtractionOutcome, Sched, StableSource,
    };
    pub use crate::extract::{all_candidates, play, Candidate, GameConfig, GameVerdict, Witness};
    pub use crate::fd::{
        check_omega, check_omega_k, check_upsilon, check_upsilon_f, LeaderChoice, OmegaKChoice,
        OmegaKOracle, OmegaOracle, SpecViolation, UpsilonChoice, UpsilonOracle,
    };
    pub use crate::matrix::{hierarchy_table, validated_edges};
    pub use crate::mem::{NativeSnapshot, Register, RegisterArray, Snapshot, SnapshotFlavor};
    pub use crate::render::{render_summary, render_timeline};
    pub use crate::shrink::{ddmin, ddmin_counted, ShrinkOutcome};
    pub use crate::sim::{
        Environment, FailurePattern, Output, ProcessId, ProcessSet, RoundRobin, Run, SeededRandom,
        SimBuilder, Time,
    };
    pub use crate::stats::Summary;
    pub use crate::table::Table;
}
