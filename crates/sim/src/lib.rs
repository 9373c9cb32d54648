//! # upsilon-sim
//!
//! A deterministic simulator of the asynchronous shared-memory model with
//! crash failures and failure-detector oracles, as defined in §3 of
//! *"On the weakest failure detector ever"* (Guerraoui, Herlihy, Kuznetsov,
//! Lynch, Newport; PODC 2007 / Distributed Computing 2009).
//!
//! The model, in the paper's terms:
//!
//! * A system `Π = {p_1, …, p_{n+1}}` of processes subject to crash
//!   failures, described by a [`FailurePattern`] `F(t)`.
//! * Processes communicate by *atomic steps* on shared objects
//!   ([`ObjectType`]; registers and snapshots live in `upsilon-mem`) and may
//!   query a failure-detector module ([`Oracle`]) whose history `H(p, t)` is
//!   schedule-independent.
//! * The step order is chosen by an [`Adversary`]; fair built-ins model the
//!   "every correct process takes infinitely many steps" requirement, and
//!   reactive ones reproduce the paper's partial-run impossibility
//!   constructions.
//! * Completed executions are [`Run`]s: the `⟨F, H, S, T⟩` tuple of §3.3
//!   together with the induced trace of §3.4.
//!
//! Algorithms are ordinary sequential Rust `async` closures over a [`Ctx`];
//! each `Ctx` operation costs exactly one granted step, so step complexity
//! in the traces equals step complexity in the paper's model. The compiler
//! turns each algorithm into a resumable state machine, which an
//! [`EngineKind`] drives either on dedicated OS threads
//! ([`EngineKind::Threads`], the historical lockstep runtime) or entirely on
//! one thread ([`EngineKind::Inline`], the default — no channels, locks or
//! context switches on the hot path). Both engines produce bit-identical
//! [`Run`]s; independent runs fan out across a worker pool with
//! [`run_batch`].
//!
//! ```
//! use upsilon_sim::{algo, EngineKind, FailurePattern, SeededRandom, SimBuilder};
//!
//! // Two processes race to write a register; whoever reads the other's
//! // value first decides it.
//! use upsilon_sim::{Key, ObjectType, ProcessId};
//!
//! #[derive(Clone, Debug, Default)]
//! struct Cell(Option<u64>);
//! #[derive(Debug)]
//! enum Op { Write(u64), Read }
//! impl ObjectType for Cell {
//!     type Op = Op;
//!     type Resp = Option<u64>;
//!     fn invoke(&mut self, _p: ProcessId, op: Op) -> Option<u64> {
//!         match op {
//!             Op::Write(v) => { self.0 = Some(v); None }
//!             Op::Read => self.0,
//!         }
//!     }
//! }
//!
//! let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
//!     .adversary(SeededRandom::new(42))
//!     .engine(EngineKind::Inline) // the default; Threads gives the same trace
//!     .spawn_all(|pid| algo(move |ctx| async move {
//!         let me = pid.index() as u64;
//!         let other = 1 - pid.index();
//!         ctx.invoke(&Key::new("c").at(pid.index() as u64), Cell::default, Op::Write(me)).await?;
//!         loop {
//!             let seen = ctx
//!                 .invoke(&Key::new("c").at(other as u64), Cell::default, Op::Read)
//!                 .await?;
//!             if let Some(v) = seen {
//!                 ctx.decide(v).await?;
//!                 return Ok(());
//!             }
//!         }
//!     }))
//!     .run();
//! assert_eq!(outcome.run.decisions(), vec![Some(1), Some(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod builder;
pub mod commute;
mod coverage;
mod engine;
mod error;
mod failure;
mod fingerprint;
mod object;
mod opsig;
mod oracle;
mod phased;
mod process;
mod replay;
mod runtime;
mod sched;
mod session;
mod steal;
mod time;
mod trace;

pub use batch::{default_workers, run_batch};
pub use builder::{algo, AlgoFn, AlgoFuture, RunCell, SimBuilder, SimOutcome};
pub use coverage::{conflict_coverage, conflict_pairs, ConflictPair, Fnv64};
pub use engine::EngineKind;
pub use error::{AlgoResult, Crashed};
pub use failure::{Environment, FailurePattern, FailurePatternBuilder};
pub use fingerprint::{trace_fingerprint, FnvWrite};
pub use object::{Access, Key, Memory, ObjectId, ObjectType};
pub use opsig::{base_type_name, ops_commute, resolve, sigs_commute, OpSig, ResolvedOp};
pub use oracle::{DummyOracle, FdValue, MappedOracle, NullOracle, Oracle};
pub use phased::{Phase, PhasedAdversary};
pub use process::{Iter, ProcessId, ProcessSet};
pub use replay::{ReplayToken, TokenError};
pub use runtime::Ctx;
pub use sched::{
    Adversary, FnAdversary, PctScheduler, RoundRobin, SchedView, Scripted, SeededRandom,
    WeightedRandom,
};
pub use session::{Session, SessionAlgos, SessionSave, SessionStep};
pub use steal::{run_stealing, StealJob, StealScope};
pub use time::Time;
pub use trace::{Event, InducedTrace, Output, Run, RunArena, StepKind, StopReason, TraceLevel};
