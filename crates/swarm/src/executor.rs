//! The packed executor: many suspended runs, one engine loop.
//!
//! [`run_packed_specs`] drives every instance of a shard through a slot
//! vector of `SwarmCell`s (a suspended [`RunCell`] plus its fold
//! parameters) and sweeps it round-robin, granting each live cell a
//! bounded step quota per sweep. One thread therefore interleaves an
//! arbitrary number of protocol instances with no per-instance thread,
//! channel or context switch — the swarm pays one `poll` per granted step,
//! exactly like a standalone run, plus a pointer chase per cell per sweep.
//!
//! Full-pack mode (`window = None`) builds every cell before the first
//! sweep. Windowed mode admits lazily: a slot holds the index of its
//! pending spec, and the cell is built right before its first quota, so
//! the instance is built, stepped and — for the many that finish within
//! one quota — folded while its memory is still in cache. A retiring
//! slot takes the next spec index, not a pre-built cell.
//!
//! Batched stepping changes *when* an instance's steps happen relative to
//! its neighbours but never *which* steps happen: cells share nothing, and
//! a `RunCell` advanced in arbitrary quota slices is byte-identical to the
//! one-shot run by construction (see `upsilon-sim`). The differential and
//! property suites lock this: per-instance outcomes are invariant under
//! instance count, batch size, packing order, window and worker count.
//!
//! A retiring cell is folded into only what the report sums
//! ([`fold_outcome`]); the `trace_fingerprint` determinism witness is
//! computed only when per-instance results are collected.
//!
//! Worker sharding is contiguous: `workers` jobs over `run_batch`, each
//! packing and sweeping its own slice of the spec list, results merged in
//! spec order. Instances are independent, so the pool parallelises across
//! arena slices without perturbing any run.

use crate::spec::{
    campaign_specs, fold_outcome, fold_witnessed, mix_to_string, InstanceResult, InstanceSpec,
};
use upsilon_sim::{run_batch, ProcessSet, RunCell, StopReason};

/// A swarm campaign: the mix, the arena size, stepping and sharding knobs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SwarmConfig {
    /// Protocol mix as `(template name, weight)` pairs (see
    /// [`parse_mix`](crate::spec::parse_mix)).
    pub mix: Vec<(String, u32)>,
    /// Total campaign instances.
    pub instances: u64,
    /// Campaign seed; instance `i` runs at
    /// [`instance_seed`](crate::spec::instance_seed)`(seed, i)`.
    pub campaign_seed: u64,
    /// Step quota each live cell is granted per sweep.
    pub batch: u64,
    /// Worker threads (arena slices) for this process.
    pub workers: usize,
    /// The slice `[lo, hi)` of the campaign this process runs (an OS-level
    /// shard); `None` runs the whole campaign.
    pub range: Option<(u64, u64)>,
    /// Live-cell window per worker: `None` builds every cell of the slice
    /// before stepping (maximum residency — the "instances packed"
    /// headline); `Some(w)` streams the slice through at most `w` slots,
    /// each building its next instance right before that instance's first
    /// step quota (bounded memory, cache-resident working set — the
    /// throughput mode). Per-instance results and every report field are
    /// window-invariant.
    pub window: Option<usize>,
}

impl SwarmConfig {
    /// A whole-campaign config with the house defaults: batch 64, one
    /// worker, seed 0.
    pub fn new(mix: Vec<(String, u32)>, instances: u64) -> Self {
        SwarmConfig {
            mix,
            instances,
            campaign_seed: 0,
            batch: 64,
            workers: 1,
            range: None,
            window: None,
        }
    }

    /// The instance index range this config covers.
    pub fn effective_range(&self) -> std::ops::Range<u64> {
        match self.range {
            Some((lo, hi)) => lo.min(self.instances)..hi.min(self.instances),
            None => 0..self.instances,
        }
    }

    /// Canonical one-line description (shard records embed it to detect
    /// mixed-campaign merges).
    pub fn campaign_key(&self) -> String {
        format!(
            "mix={} instances={} seed={}",
            mix_to_string(&self.mix),
            self.instances,
            self.campaign_seed
        )
    }
}

/// Aggregate result of a packed run. Every field is a sum over instances
/// (bytes included), so reports are independent of batch size, worker
/// count and packing order — asserted by the property suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SwarmReport {
    /// Instances executed.
    pub instances: u64,
    /// Σ cell `approx_bytes` at admission, before the instance's first
    /// step — in full-pack mode, the arena occupancy right after packing;
    /// in windowed mode, accrued as each cell is built at its first quota.
    pub packed_bytes: u64,
    /// Final arena occupancy: Σ cell `approx_bytes` at retirement — each
    /// cell's high-water mark, since accumulator capacity never shrinks.
    pub arena_bytes: u64,
    /// Steps granted across all instances.
    pub total_steps: u64,
    /// Decisions produced across all instances.
    pub decisions: u64,
    /// Failure-detector queries across all instances.
    pub fd_queries: u64,
    /// Instances whose k-set-agreement spec held.
    pub spec_ok: u64,
    /// Instances whose §3.3 run conditions held.
    pub run_cond_ok: u64,
    /// Instances that ran to completion (`StopReason::AllDone`).
    pub finished: u64,
}

impl SwarmReport {
    /// Final arena occupancy per instance, rounded up.
    pub fn bytes_per_instance(&self) -> u64 {
        if self.instances == 0 {
            0
        } else {
            self.arena_bytes.div_ceil(self.instances)
        }
    }

    /// Whether every instance finished with both verdicts clean.
    pub fn all_ok(&self) -> bool {
        self.spec_ok == self.instances
            && self.run_cond_ok == self.instances
            && self.finished == self.instances
    }

    /// The field-wise sum of two reports, or `None` if any field
    /// overflows.
    pub(crate) fn checked_add(&self, other: &SwarmReport) -> Option<SwarmReport> {
        Some(SwarmReport {
            instances: self.instances.checked_add(other.instances)?,
            packed_bytes: self.packed_bytes.checked_add(other.packed_bytes)?,
            arena_bytes: self.arena_bytes.checked_add(other.arena_bytes)?,
            total_steps: self.total_steps.checked_add(other.total_steps)?,
            decisions: self.decisions.checked_add(other.decisions)?,
            fd_queries: self.fd_queries.checked_add(other.fd_queries)?,
            spec_ok: self.spec_ok.checked_add(other.spec_ok)?,
            run_cond_ok: self.run_cond_ok.checked_add(other.run_cond_ok)?,
            finished: self.finished.checked_add(other.finished)?,
        })
    }
}

/// One packed cell: the suspended run plus its outcome-fold parameters.
struct SwarmCell {
    cell: RunCell<ProcessSet>,
    k: usize,
    proposals: Vec<Option<u64>>,
}

/// One slot of the sweep: the spec index it serves and, once admitted,
/// its cell. A windowed slot starts (and restarts after each retirement)
/// with `cell: None` and builds it at its first grant.
struct Slot {
    idx: usize,
    cell: Option<SwarmCell>,
}

/// Builds and suspends one instance, accruing its admission occupancy
/// into `packed_bytes`.
fn pack(spec: &InstanceSpec, packed_bytes: &mut u64) -> SwarmCell {
    let (builder, k, proposals) = spec.build();
    let cell = builder.into_cell();
    *packed_bytes += cell.approx_bytes() as u64;
    SwarmCell { cell, k, proposals }
}

/// Sweeps `specs` to completion on the calling thread. `window = None`
/// packs every cell before the first sweep; `Some(w)` streams the slice
/// through `w` slots, each building its cell right before the cell's first
/// quota and taking the next spec index when it retires. Returns the
/// aggregate report and, when `collect` is set, every instance's result
/// (fingerprint witness included) in spec order.
fn run_shard(
    specs: &[InstanceSpec],
    batch: u64,
    window: Option<usize>,
    collect: bool,
) -> (SwarmReport, Option<Vec<InstanceResult>>) {
    let batch = batch.max(1);
    let eager = window.is_none();
    let window = window.map_or(specs.len(), |w| w.clamp(1, specs.len().max(1)));
    let mut report = SwarmReport {
        instances: specs.len() as u64,
        ..SwarmReport::default()
    };
    let mut results: Option<Vec<Option<InstanceResult>>> =
        collect.then(|| (0..specs.len()).map(|_| None).collect());

    // Seat the first window. Full-pack mode builds every cell here, before
    // any step runs; windowed slots only note their spec index. Each slot
    // carries that index so results land in spec order whatever the
    // retirement order.
    let mut next = window.min(specs.len());
    let mut slots: Vec<Option<Slot>> = (0..next)
        .map(|idx| {
            let cell = eager.then(|| pack(&specs[idx], &mut report.packed_bytes));
            Some(Slot { idx, cell })
        })
        .collect();

    // Sweep: round-robin batched stepping until every slot retires and no
    // instance awaits admission.
    let mut live = slots.len();
    while live > 0 {
        for slot in &mut slots {
            let Some(Slot { idx, cell }) = slot.as_mut() else {
                continue;
            };
            let packed = cell.get_or_insert_with(|| pack(&specs[*idx], &mut report.packed_bytes));
            if packed.cell.step_quota(batch).is_none() {
                continue;
            }
            let Slot { idx, cell } = slot.take().expect("slot checked live above");
            let packed = cell.expect("cell admitted above");
            report.arena_bytes += packed.cell.approx_bytes() as u64;
            let sim = packed.cell.finish();
            if sim.run.stop_reason() == StopReason::AllDone {
                report.finished += 1;
            }
            let res = if collect {
                fold_witnessed(&sim, packed.k, &packed.proposals)
            } else {
                fold_outcome(&sim, packed.k, &packed.proposals)
            };
            report.total_steps += res.outcome.total_steps;
            report.decisions += res.decisions();
            report.fd_queries += res.outcome.fd_queries as u64;
            report.spec_ok += u64::from(res.outcome.spec.is_ok());
            report.run_cond_ok += u64::from(res.outcome.run_conditions.is_ok());
            if let Some(results) = results.as_mut() {
                results[idx] = Some(res);
            }
            // Streaming refill: the retired slot takes the next spec index
            // and builds its cell at its next grant.
            if next < specs.len() {
                *slot = Some(Slot {
                    idx: next,
                    cell: None,
                });
                next += 1;
            } else {
                live -= 1;
            }
        }
    }

    (report, results.map(|v| v.into_iter().flatten().collect()))
}

/// The contiguous balanced range `[lo, hi)` of campaign instances that
/// OS-level shard `index` of `shards` runs. The ranges over all indices
/// partition `[0, instances)`; the first `instances mod shards` shards are
/// one instance longer.
pub fn campaign_shard_range(instances: u64, shards: u64, index: u64) -> (u64, u64) {
    let shards = shards.max(1);
    let index = index.min(shards - 1);
    let base = instances / shards;
    let rem = instances % shards;
    let lo = index * base + index.min(rem);
    let hi = lo + base + u64::from(index < rem);
    (lo, hi)
}

/// Contiguous balanced partition of `n` items into at most `workers`
/// non-empty chunks.
fn shard_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(n.max(1));
    let base = n / workers;
    let rem = n % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut lo = 0;
    for i in 0..workers {
        let len = base + usize::from(i < rem);
        if len == 0 {
            continue;
        }
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

/// Packs `specs` into `workers` arena slices over the `run_batch` pool and
/// returns the merged report plus (when `collect` is set) every instance's
/// result in spec order. Per-instance results are independent of `batch`,
/// `workers` and the packing order of the surrounding arena.
pub fn run_packed_specs(
    specs: &[InstanceSpec],
    batch: u64,
    workers: usize,
    window: Option<usize>,
    collect: bool,
) -> (SwarmReport, Option<Vec<InstanceResult>>) {
    let ranges = shard_ranges(specs.len(), workers);
    let jobs: Vec<_> = ranges
        .into_iter()
        .map(|(lo, hi)| {
            let slice = specs[lo..hi].to_vec();
            move || run_shard(&slice, batch, window, collect)
        })
        .collect();
    let outs = run_batch(jobs, workers.max(1));
    let mut report = SwarmReport::default();
    let mut results = collect.then(Vec::new);
    for (shard_report, shard_results) in outs {
        report = report
            .checked_add(&shard_report)
            .expect("one process's counters stay far below u64::MAX");
        if let (Some(all), Some(mut shard)) = (results.as_mut(), shard_results) {
            all.append(&mut shard);
        }
    }
    (report, results)
}

/// Runs a campaign slice and returns the aggregate report.
pub fn run_swarm(cfg: &SwarmConfig) -> SwarmReport {
    let specs = campaign_specs(&cfg.mix, cfg.campaign_seed, cfg.effective_range());
    run_packed_specs(&specs, cfg.batch, cfg.workers, cfg.window, false).0
}

/// Runs a campaign slice and returns the report plus per-instance results,
/// each carrying its fingerprint witness.
pub fn run_swarm_collect(cfg: &SwarmConfig) -> (SwarmReport, Vec<InstanceResult>) {
    let specs = campaign_specs(&cfg.mix, cfg.campaign_seed, cfg.effective_range());
    let (report, results) = run_packed_specs(&specs, cfg.batch, cfg.workers, cfg.window, true);
    (report, results.unwrap_or_default())
}
