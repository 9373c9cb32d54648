//! `upsilon-swarm` — the multi-tenant swarm executor.
//!
//! The simulator's inline engine makes one protocol instance cost a few
//! hundred nanoseconds per step; what limits campaign scale is not the
//! stepping but the per-run scaffolding (threads, channels, allocation
//! churn). This crate removes that scaffolding: a swarm packs up to
//! millions of *suspended* runs — [`RunCell`](upsilon_sim::RunCell)s —
//! into one arena and drives them all from a single loop with batched
//! round-robin stepping, accounting arena bytes per instance as it goes.
//!
//! The determinism contract, locked by the differential and property
//! suites in `tests/`:
//!
//! * every instance's [`AgreementOutcome`](upsilon_core::experiment::AgreementOutcome)
//!   is **byte-identical** to the same spec run standalone through
//!   `SimBuilder::run` / `run_batch`, witnessed by the run's state
//!   fingerprint wherever per-instance results are collected
//!   ([`run_swarm_collect`], [`run_standalone`]);
//! * per-instance results are invariant under instance count, batch
//!   size, packing order, window and worker count;
//! * campaign seeds are a pure function of `(campaign_seed, index)`, so
//!   OS-level shards of one campaign agree on every instance without
//!   coordination.
//!
//! Campaign shards persist their reports in a content-addressed store
//! ([`shard`]) keyed by record payload, mirroring the fuzz corpus: saves
//! are idempotent, loads are order-independent, and a merge verifies the
//! shard ranges partition the campaign before summing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod shard;
pub mod spec;

pub use executor::{
    campaign_shard_range, run_packed_specs, run_swarm, run_swarm_collect, SwarmConfig, SwarmReport,
};
pub use shard::{load_records, merge_records, save_record, ShardRecord};
pub use spec::{
    campaign_spec, campaign_specs, fold_outcome, instance_seed, mix_to_string, parse_mix,
    run_standalone, run_standalone_batch, sample_specs, swarm_default_workers, template,
    InstanceResult, InstanceSpec, SwarmProtocol, TEMPLATES,
};
