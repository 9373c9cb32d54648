//! Instance specs: what one swarm tenant runs.
//!
//! A swarm instance is an ordinary protocol run — Fig. 1, Fig. 2 or a bare
//! k-converge round — described by an [`InstanceSpec`] and constructed
//! through the *same* builder path as the standalone experiment runners in
//! `upsilon-core`. That sharing is the determinism contract of the swarm:
//! an instance's [`AgreementOutcome`] is byte-identical whether the run is
//! driven to completion in one shot ([`run_standalone`]) or interleaved
//! with millions of neighbours by the packed executor
//! ([`run_swarm`](crate::run_swarm)), because both paths execute the same
//! `RunCell` scheduler loop on the same configuration.

use upsilon_agreement::to_algorithms;
use upsilon_converge::ConvergeInstance;
use upsilon_core::experiment::{
    fig1_builder, fig2_builder, staggered_crashes, AgreementConfig, AgreementOutcome,
};
use upsilon_fd::UpsilonChoice;
use upsilon_sim::{
    algo, run_batch, trace_fingerprint, Fnv64, Key, ProcessSet, SimBuilder, SimOutcome, Time,
};

/// Which protocol an instance runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwarmProtocol {
    /// The paper's Fig. 1: Υ-based wait-free n-set-agreement.
    Fig1,
    /// The paper's Fig. 2: Υ^f-based f-resilient f-set-agreement.
    Fig2 {
        /// The resilience/agreement parameter `f ≥ 1`.
        f: usize,
    },
    /// The degenerate tenant: every process decides its own proposal in
    /// a single step. With proposals capped at one distinct value this is
    /// a trivially correct 1-set-agreement instance whose entire cost is
    /// the swarm machinery itself.
    Echo,
    /// One bare k-converge round (Yang–Neiger–Gafni): every process
    /// invokes `k-converge` with its proposal and decides the picked
    /// value. Proposals are capped at `k` distinct values, so the
    /// Convergence property forces commits and C-Agreement bounds the
    /// decisions — a valid (and very cheap) k-set-agreement instance
    /// with no failure detector at all.
    Converge {
        /// The convergence parameter `k ≥ 1`.
        k: usize,
    },
}

impl SwarmProtocol {
    /// Short stable label for reports and mix strings.
    pub fn label(&self) -> String {
        match self {
            SwarmProtocol::Fig1 => "fig1".to_string(),
            SwarmProtocol::Echo => "echo".to_string(),
            SwarmProtocol::Fig2 { f } => format!("fig2(f={f})"),
            SwarmProtocol::Converge { k } => format!("converge(k={k})"),
        }
    }
}

/// One swarm tenant: protocol, system size, crash script and seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstanceSpec {
    /// The protocol this instance runs.
    pub protocol: SwarmProtocol,
    /// Number of processes in the instance's system.
    pub n_plus_1: usize,
    /// Processes crashing at staggered times (`p_c` at `20 + 30·c`);
    /// `0` is failure-free.
    pub crashes: usize,
    /// The instance seed (drives scheduler and oracle noise). Campaign
    /// instances derive theirs via [`instance_seed`].
    pub seed: u64,
}

impl InstanceSpec {
    /// The agreement configuration the spec denotes. Oracles stabilize
    /// early (`t = 32`) — swarm instances are throughput tenants, not
    /// stabilization experiments — and the step budget is 200k, far above
    /// any of the packed protocols' worst cases.
    pub fn agreement_config(&self) -> AgreementConfig {
        let pattern = staggered_crashes(self.n_plus_1, self.crashes, 20);
        let mut cfg = AgreementConfig::new(pattern)
            .seed(self.seed)
            .stabilize_at(Time(32))
            .max_steps(200_000);
        match self.protocol {
            SwarmProtocol::Converge { k } => {
                let k = k.max(1);
                cfg = cfg.proposals(
                    (0..self.n_plus_1)
                        .map(|i| Some(1 + (i % k) as u64))
                        .collect(),
                );
            }
            SwarmProtocol::Echo => {
                cfg = cfg.proposals(vec![Some(1); self.n_plus_1]);
            }
            SwarmProtocol::Fig1 | SwarmProtocol::Fig2 { .. } => {}
        }
        cfg
    }

    /// The configured run: the builder, the `k` the outcome is checked
    /// against, and the proposals. Fig. 1/Fig. 2 go through the public
    /// `upsilon-core` builder constructors (the standalone runners' own
    /// path); the converge round is assembled here from the same
    /// `AgreementConfig` pieces.
    pub fn build(&self) -> (SimBuilder<ProcessSet>, usize, Vec<Option<u64>>) {
        let cfg = self.agreement_config();
        match self.protocol {
            SwarmProtocol::Fig1 => {
                let (builder, k) = fig1_builder(&cfg, UpsilonChoice::default());
                (builder, k, cfg.proposals)
            }
            SwarmProtocol::Fig2 { f } => {
                let (builder, k) = fig2_builder(&cfg, f.max(1), UpsilonChoice::default());
                (builder, k, cfg.proposals)
            }
            SwarmProtocol::Echo => {
                let algos = to_algorithms(&cfg.proposals, move |v| {
                    algo(move |mut ctx| async move {
                        ctx.decide(v).await;
                    })
                });
                let mut builder = SimBuilder::<ProcessSet>::new(cfg.pattern.clone())
                    .adversary(cfg.sched.build(cfg.seed, self.n_plus_1))
                    .max_steps(cfg.max_steps);
                for (pid, a) in algos {
                    builder = builder.spawn(pid, a);
                }
                (builder, 1, cfg.proposals)
            }
            SwarmProtocol::Converge { k } => {
                let k = k.max(1);
                let n_plus_1 = self.n_plus_1;
                let flavor = cfg.flavor;
                let algos = to_algorithms(&cfg.proposals, move |v| {
                    algo(move |mut ctx| async move {
                        let inst = ConvergeInstance::new(Key::new("swarm-cv"), n_plus_1, flavor);
                        let (picked, _committed) = inst.converge(&mut ctx, k, v).await;
                        ctx.decide(picked).await;
                    })
                });
                let mut builder = SimBuilder::<ProcessSet>::new(cfg.pattern.clone())
                    .adversary(cfg.sched.build(cfg.seed, n_plus_1))
                    .max_steps(cfg.max_steps);
                for (pid, a) in algos {
                    builder = builder.spawn(pid, a);
                }
                (builder, k, cfg.proposals)
            }
        }
    }
}

/// One instance's final, comparable result: the full [`AgreementOutcome`]
/// and, where per-instance results are collected, the canonical state
/// fingerprint of its run against its final shared memory.
#[derive(Clone, PartialEq, Debug)]
pub struct InstanceResult {
    /// Decisions, spec verdict, §3.3 run-condition verdict, step metrics.
    pub outcome: AgreementOutcome,
    /// [`trace_fingerprint`] of the completed run — the determinism
    /// witness. Set by the paths that return per-instance results
    /// ([`run_standalone`], `run_packed_specs(.., collect = true)`,
    /// [`run_swarm_collect`](crate::run_swarm_collect)); `None` from
    /// [`fold_outcome`], because no aggregate report reads it.
    pub fingerprint: Option<u64>,
}

impl InstanceResult {
    /// Decisions made in this instance.
    pub fn decisions(&self) -> u64 {
        self.outcome.decided.iter().flatten().count() as u64
    }
}

/// Folds a completed run into its [`InstanceResult`] without the
/// fingerprint: everything a [`SwarmReport`](crate::SwarmReport) sums, and
/// nothing more. The fold the counters-only sweep applies.
pub fn fold_outcome(
    outcome: &SimOutcome<ProcessSet>,
    k: usize,
    proposals: &[Option<u64>],
) -> InstanceResult {
    InstanceResult {
        outcome: AgreementOutcome::from_run(&outcome.run, &outcome.memory, k, proposals),
        fingerprint: None,
    }
}

/// [`fold_outcome`] plus the [`trace_fingerprint`] witness — the one fold
/// both the standalone path and the collecting executor apply, so their
/// results compare field for field.
pub(crate) fn fold_witnessed(
    outcome: &SimOutcome<ProcessSet>,
    k: usize,
    proposals: &[Option<u64>],
) -> InstanceResult {
    InstanceResult {
        fingerprint: Some(trace_fingerprint(&outcome.run, &outcome.memory)),
        ..fold_outcome(outcome, k, proposals)
    }
}

/// Runs one instance standalone: build, drive to completion in one shot,
/// fold with the fingerprint witness. The reference the differential suite
/// holds the packed executor against.
pub fn run_standalone(spec: &InstanceSpec) -> InstanceResult {
    let (builder, k, proposals) = spec.build();
    let outcome = builder.run();
    fold_witnessed(&outcome, k, &proposals)
}

/// Runs many instances standalone over the [`run_batch`] worker pool;
/// results come back in spec order at any worker count.
pub fn run_standalone_batch(specs: &[InstanceSpec], workers: usize) -> Vec<InstanceResult> {
    let jobs: Vec<_> = specs
        .iter()
        .cloned()
        .map(|spec| move || run_standalone(&spec))
        .collect();
    run_batch(jobs, workers.max(1))
}

/// Derives the seed of campaign instance `index` from the campaign seed:
/// FNV-1a over `campaign_seed ‖ index`. Deterministic, shard-independent,
/// and collision-free across any practical campaign (locked by a proptest).
pub fn instance_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut w = Fnv64::new();
    w.write_u64(campaign_seed);
    w.write_u64(index);
    w.finish()
}

/// The named instance templates a protocol mix draws from. Each entry is
/// `(name, protocol, n_plus_1, crashes)`; the differential suite runs every
/// one of them packed vs standalone.
pub const TEMPLATES: &[(&str, SwarmProtocol, usize, usize)] = &[
    // The cheapest tenant: four processes decide in one step each;
    // measures pure executor overhead.
    ("echo", SwarmProtocol::Echo, 4, 0),
    // The cheapest real tenant: a 2-process commit–adopt round, ~6 steps
    // each.
    ("converge-pair", SwarmProtocol::Converge { k: 1 }, 2, 0),
    ("converge", SwarmProtocol::Converge { k: 2 }, 3, 0),
    // The throughput tenant: one wide converge round amortizes the
    // per-instance pack/fold overhead over 16 decisions.
    ("converge-wide", SwarmProtocol::Converge { k: 2 }, 16, 0),
    ("converge-crash", SwarmProtocol::Converge { k: 2 }, 3, 1),
    ("fig1", SwarmProtocol::Fig1, 3, 0),
    ("fig1-crash", SwarmProtocol::Fig1, 3, 1),
    ("fig2", SwarmProtocol::Fig2 { f: 1 }, 3, 1),
];

/// Looks a template up by name (seed 0; campaigns overwrite it).
pub fn template(name: &str) -> Option<InstanceSpec> {
    TEMPLATES
        .iter()
        .find(|(n, _, _, _)| *n == name)
        .map(|&(_, protocol, n_plus_1, crashes)| InstanceSpec {
            protocol,
            n_plus_1,
            crashes,
            seed: 0,
        })
}

/// Parses a protocol-mix string: comma-separated `name[:weight]` entries,
/// e.g. `"converge-pair:8,fig1:1,fig2:1"`. Weights default to 1 and must
/// be positive; names must be known [`TEMPLATES`].
pub fn parse_mix(s: &str) -> Result<Vec<(String, u32)>, String> {
    let mut mix = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(format!("empty entry in mix `{s}`"));
        }
        let (name, weight) = match part.split_once(':') {
            Some((n, w)) => {
                let weight: u32 = w
                    .parse()
                    .map_err(|_| format!("bad weight `{w}` in mix entry `{part}`"))?;
                (n.trim(), weight)
            }
            None => (part, 1),
        };
        if weight == 0 {
            return Err(format!("zero weight in mix entry `{part}`"));
        }
        if template(name).is_none() {
            return Err(format!(
                "unknown template `{name}` in mix (known: {})",
                TEMPLATES
                    .iter()
                    .map(|(n, _, _, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        mix.push((name.to_string(), weight));
    }
    Ok(mix)
}

/// Renders a mix back to its canonical string (inverse of [`parse_mix`]).
pub fn mix_to_string(mix: &[(String, u32)]) -> String {
    mix.iter()
        .map(|(n, w)| format!("{n}:{w}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The spec of campaign instance `index`: the template is the weighted
/// round-robin pick at `index mod Σweights` (protocols interleave evenly
/// through the arena), the seed is [`instance_seed`]. A pure function of
/// `(mix, campaign_seed, index)` — shards of the same campaign agree on
/// every instance without coordination.
pub fn campaign_spec(mix: &[(String, u32)], campaign_seed: u64, index: u64) -> InstanceSpec {
    let total: u64 = mix.iter().map(|(_, w)| u64::from(*w)).sum();
    let mut r = index % total.max(1);
    let mut name = mix
        .last()
        .map(|(n, _)| n.as_str())
        .expect("mix validated non-empty");
    for (n, w) in mix {
        if r < u64::from(*w) {
            name = n;
            break;
        }
        r -= u64::from(*w);
    }
    let mut spec = template(name).expect("mix validated against templates");
    spec.seed = instance_seed(campaign_seed, index);
    spec
}

/// The specs of campaign instances `range` (a shard's slice), in index
/// order.
pub fn campaign_specs(
    mix: &[(String, u32)],
    campaign_seed: u64,
    range: std::ops::Range<u64>,
) -> Vec<InstanceSpec> {
    range
        .map(|i| campaign_spec(mix, campaign_seed, i))
        .collect()
}

/// One spec per checked-in template, seeded from `campaign_seed` — the
/// protocol samples the differential suite sweeps.
pub fn sample_specs(campaign_seed: u64) -> Vec<InstanceSpec> {
    TEMPLATES
        .iter()
        .enumerate()
        .map(|(i, &(_, protocol, n_plus_1, crashes))| InstanceSpec {
            protocol,
            n_plus_1,
            crashes,
            seed: instance_seed(campaign_seed, i as u64),
        })
        .collect()
}
