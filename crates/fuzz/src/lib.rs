//! # upsilon-fuzz
//!
//! Coverage-guided randomized search over the simulator's run space — the
//! probabilistic complement of `upsilon-check`'s exhaustive exploration.
//! Where the checker enumerates every interleaving up to partial-order
//! equivalence (and therefore caps out at small depths), the fuzzer samples
//! *long* runs cheaply and keeps the ones that exhibit new interleaving
//! behaviour:
//!
//! * **Schedules** come from the PCT priority scheduler
//!   ([`PctScheduler`](upsilon_sim::PctScheduler), Burckhardt et al.,
//!   ASPLOS 2010) mixed with the uniform
//!   [`SeededRandom`](upsilon_sim::SeededRandom) scheduler, plus
//!   splice mutations that replay a corpus schedule prefix and let a fresh
//!   scheduler finish the run.
//! * **Crash times** and **failure-detector outputs** are mutated within
//!   [`FailurePattern`](upsilon_sim::FailurePattern) validity and the
//!   target's [`FdMenu`](upsilon_check::FdMenu), reusing `upsilon-check`'s
//!   menu oracle so every sampled history remains a function of `(p, t)`.
//! * **Coverage** is the conflict-pair window signal of
//!   [`conflict_coverage`](upsilon_sim::conflict_coverage): runs that hash
//!   new windows of the conflict sequence enter a corpus (optionally
//!   persisted on disk) that seeds later mutation rounds.
//! * **Violations** of the §3.3 run-condition validator or any configured
//!   trace-closed [`RunSpec`](upsilon_check::RunSpec) are minimized with
//!   the checker's ddmin shrink and reported as replayable `UCHK1:`
//!   tokens that re-execute bit-identically.
//!
//! Campaigns are deterministic: each execution's randomness derives only
//! from `(campaign seed, execution index)`, jobs fan out over the worker
//! pool ([`run_batch`](upsilon_sim::run_batch)) in fixed chunks, and
//! results merge in chunk order — the same configuration yields the same
//! report regardless of worker count.
//!
//! ```
//! use upsilon_check::samples;
//! use upsilon_fuzz::{fuzz, FuzzConfig};
//!
//! // The seeded snapshot-commit bug falls to a short campaign.
//! let cfg = FuzzConfig::new(samples::snapshot_commit(2, 1, 12, true))
//!     .seed(1)
//!     .budget(1, 256);
//! let report = fuzz(&cfg, &[]);
//! assert!(!report.ok());
//! println!("replay with: {}", report.violations[0].token);
//! ```
//!
//! See `DESIGN.md` §10 for the PCT construction, the coverage-hash
//! definition and the corpus format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod corpus;
mod plan;

pub use campaign::{coverage_of_token, fuzz, CoveragePoint, FuzzConfig, FuzzReport, FuzzViolation};
pub use corpus::{load_corpus, save_corpus_entry};

pub use upsilon_check::{CheckConfig, ReplayToken};
