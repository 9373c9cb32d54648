#![forbid(unsafe_code)]
//! Executable reproduction of *"On the weakest failure detector ever"*
//! (Guerraoui, Herlihy, Kuznetsov, Lynch, Newport; PODC 2007 / Distributed
//! Computing 2009). See the [`upsilon_core`] facade for the full API; the
//! `examples/` directory for runnable scenarios; and `upsilon-scenario
//! experiments` for the tables regenerating every paper artifact.

pub use upsilon_core::*;
