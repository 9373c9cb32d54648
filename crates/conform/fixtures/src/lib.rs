//! Deliberately **nonconforming** algorithm code.
//!
//! Each module here violates exactly one `upsilon-conform` rule for
//! algorithm files, on purpose: the analyzer's negative golden tests
//! (`crates/conform/tests/fixtures.rs`) scan these sources and assert
//! that every file trips its intended rule — and *only* that rule (the
//! C2 module's clock read also trips `wall-clock`). The code compiles
//! (the violations are semantic, against the §3.1 model contract, not
//! against Rust) but none of it is ever executed.
//!
//! One operation per atomic step has no fixture: every `Ctx` operation
//! takes `&mut self`, so two operations behind one await do not compile.
//! The `compile_fail` doctest on `upsilon_sim::Ctx` pins that.
//!
//! This crate is intentionally **not** among the analyzer's
//! [`SCANNED_TREES`](../upsilon_conform/constant.SCANNED_TREES.html), so
//! the workspace-wide "zero findings" gate stays meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod c2_banned_api;
pub mod c4_unbounded_helping;
