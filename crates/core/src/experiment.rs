//! The experiment harness: one runner per paper artifact (see DESIGN.md's
//! experiment index E1–E16), shared by the experiment tables and cell
//! runners of the scenario layer and by the integration tests.

use upsilon_agreement::{
    baseline, boost, check_k_set_agreement, consensus, fig1, fig2, Fig1Config, Fig2Config,
    TaskViolation,
};
use upsilon_extract::{extraction_algorithm, phi_omega, phi_omega_k, phi_perfect};
use upsilon_fd::{
    check_omega, check_upsilon_f, held_variable_samples, EventuallyPerfectOracle, LeaderChoice,
    OmegaKChoice, OmegaKOracle, OmegaOracle, PerfectOracle, SpecViolation, StabilityReport,
    UpsilonChoice, UpsilonNoise, UpsilonOracle,
};
use upsilon_mem::SnapshotFlavor;
use upsilon_sim::{
    Adversary, FailurePattern, FdValue, Output, ProcessId, ProcessSet, RoundRobin, Run,
    SeededRandom, SimBuilder, Time, WeightedRandom,
};

/// Which scheduler drives an experiment run.
///
/// Round-robin is the adversarially interesting schedule for the agreement
/// protocols: all `n + 1` proposals survive every converge phase (everyone
/// scans after everyone updated), so decisions genuinely wait for Υ.
/// Seeded-random schedules typically let early converges commit by luck —
/// also legal, and worth measuring as the average case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sched {
    /// Fair round-robin (lock-step phases; the worst case for converge).
    RoundRobin,
    /// Fair uniform random from the config seed.
    Random,
    /// Skewed random: process `p_1` runs 10× faster than the rest.
    SkewedRandom,
}

impl Sched {
    /// Builds the adversary this policy denotes for a `n_plus_1`-process
    /// run seeded with `seed` — public so alternative executors construct
    /// schedules identical to the runners in this module.
    pub fn build(self, seed: u64, n_plus_1: usize) -> Box<dyn Adversary> {
        match self {
            Sched::RoundRobin => Box::new(RoundRobin::new()),
            Sched::Random => Box::new(SeededRandom::new(seed)),
            Sched::SkewedRandom => {
                let mut weights = vec![1u32; n_plus_1];
                weights[0] = 10;
                Box::new(WeightedRandom::new(seed, weights))
            }
        }
    }
}

/// Common configuration of an agreement experiment run.
#[derive(Clone, Debug)]
pub struct AgreementConfig {
    /// The failure pattern of the run.
    pub pattern: FailurePattern,
    /// Per-process proposals (`None` = non-participant).
    pub proposals: Vec<Option<u64>>,
    /// When the oracle stabilizes.
    pub stabilize_at: Time,
    /// Seed for the scheduler and oracle noise.
    pub seed: u64,
    /// Snapshot implementation used by the protocol.
    pub flavor: SnapshotFlavor,
    /// Step budget.
    pub max_steps: u64,
    /// Scheduling policy.
    pub sched: Sched,
    /// Υ pre-stabilization noise policy (ignored by non-Υ oracles).
    pub noise: UpsilonNoise,
}

impl AgreementConfig {
    /// Defaults: distinct proposals `1..=n+1`, stabilization at step 100,
    /// seed 0, native snapshots, 800k step budget.
    pub fn new(pattern: FailurePattern) -> Self {
        let n_plus_1 = pattern.n_plus_1();
        AgreementConfig {
            pattern,
            proposals: upsilon_agreement::distinct_proposals(n_plus_1),
            stabilize_at: Time(100),
            seed: 0,
            flavor: SnapshotFlavor::Native,
            max_steps: 800_000,
            sched: Sched::Random,
            noise: UpsilonNoise::Random,
        }
    }

    /// Replaces the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the oracle stabilization time.
    pub fn stabilize_at(mut self, t: Time) -> Self {
        self.stabilize_at = t;
        self
    }

    /// Replaces the snapshot flavor.
    pub fn flavor(mut self, flavor: SnapshotFlavor) -> Self {
        self.flavor = flavor;
        self
    }

    /// Replaces the proposals.
    pub fn proposals(mut self, proposals: Vec<Option<u64>>) -> Self {
        assert_eq!(proposals.len(), self.pattern.n_plus_1());
        self.proposals = proposals;
        self
    }

    /// Replaces the scheduling policy.
    pub fn sched(mut self, sched: Sched) -> Self {
        self.sched = sched;
        self
    }

    /// Replaces the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Replaces the Υ noise policy.
    pub fn noise(mut self, noise: UpsilonNoise) -> Self {
        self.noise = noise;
        self
    }
}

/// What an agreement run produced, plus its specification verdict.
///
/// `PartialEq` compares every field — the swarm differential suite uses it
/// to assert packed executions byte-identical to standalone ones.
#[derive(Clone, PartialEq, Debug)]
pub struct AgreementOutcome {
    /// The agreement parameter `k` the run was checked against.
    pub k: usize,
    /// Decision of each process.
    pub decided: Vec<Option<u64>>,
    /// The distinct decided values.
    pub distinct: Vec<u64>,
    /// Specification verdict.
    pub spec: Result<(), TaskViolation>,
    /// Steps granted in total.
    pub total_steps: u64,
    /// Time of the last decision, if all correct participants decided.
    pub decided_by: Option<Time>,
    /// Steps taken per process.
    pub steps_by: Vec<u64>,
    /// Failure-detector query steps taken across the run.
    pub fd_queries: usize,
    /// Protocol rounds opened (round-indexed converge/board objects seen in
    /// memory); 0 when the protocol has no such objects.
    pub rounds: u64,
    /// Verdict of the §3.3 run-condition validator (`upsilon-analysis`):
    /// `Ok` iff the recorded trace is a well-formed run of the model.
    pub run_conditions: Result<(), String>,
}

impl AgreementOutcome {
    /// Folds a completed run into its outcome: decisions, k-set-agreement
    /// spec verdict, §3.3 run-condition verdict and step metrics. This is
    /// the single fold every runner in this module applies, public so
    /// alternative executors (the `upsilon-swarm` multi-tenant loop) can
    /// produce outcomes guaranteed field-identical to the standalone path.
    pub fn from_run<D: FdValue>(
        run: &Run<D>,
        memory: &upsilon_sim::Memory,
        k: usize,
        proposals: &[Option<u64>],
    ) -> Self {
        // Rounds are visible as the highest first index of any round-keyed
        // object ("n-conv", "f-conv", "ca", "bca", "prop", "B").
        let rounds = memory
            .inventory()
            .filter(|(_, key, _)| {
                matches!(
                    key.name(),
                    "n-conv" | "f-conv" | "ca" | "bca" | "prop" | "B"
                )
            })
            .filter_map(|(_, key, _)| key.indices().first().copied())
            .max()
            .unwrap_or(0);
        let spec = check_k_set_agreement(run, k, proposals);
        let run_conditions = upsilon_analysis::check_run_for(run)
            .map(|_| ())
            .map_err(|v| v.to_string());
        let decided_by =
            run.outputs()
                .iter()
                .filter(|(_, _, o)| matches!(o, Output::Decide(_)))
                .map(|(t, _, _)| *t)
                .max()
                .filter(|_| {
                    run.pattern().correct().iter().all(|p| {
                        proposals[p.index()].is_none() || run.decisions()[p.index()].is_some()
                    })
                });
        AgreementOutcome {
            k,
            decided: run.decisions(),
            distinct: run.decided_values(),
            spec,
            total_steps: run.total_steps(),
            decided_by,
            steps_by: run.steps_by().to_vec(),
            fd_queries: run.fd_samples().len(),
            rounds,
            run_conditions,
        }
    }

    /// Panics with a readable message if the specification was violated or
    /// the recorded trace is not a well-formed §3.3 run.
    pub fn assert_ok(&self) {
        if let Err(e) = &self.spec {
            panic!("agreement specification violated: {e}");
        }
        if let Err(e) = &self.run_conditions {
            panic!("§3.3 run conditions violated: {e}");
        }
    }
}

/// Assembles the [`SimBuilder`] every runner here drives: oracle, the
/// configured scheduling adversary, step budget and one algorithm per
/// participating process.
fn builder_with_oracle<D, O, A>(cfg: &AgreementConfig, oracle: O, algos: A) -> SimBuilder<D>
where
    D: FdValue,
    O: upsilon_sim::Oracle<D> + 'static,
    A: IntoIterator<Item = (ProcessId, upsilon_sim::AlgoFn<D>)>,
{
    let mut builder = SimBuilder::<D>::new(cfg.pattern.clone())
        .oracle(oracle)
        .adversary(cfg.sched.build(cfg.seed, cfg.pattern.n_plus_1()))
        .max_steps(cfg.max_steps);
    for (pid, algo) in algos {
        builder = builder.spawn(pid, algo);
    }
    builder
}

fn run_with_oracle<D, O, A>(
    cfg: &AgreementConfig,
    oracle: O,
    algos: A,
    k: usize,
) -> AgreementOutcome
where
    D: FdValue,
    O: upsilon_sim::Oracle<D> + 'static,
    A: IntoIterator<Item = (ProcessId, upsilon_sim::AlgoFn<D>)>,
{
    let outcome = builder_with_oracle(cfg, oracle, algos).run();
    AgreementOutcome::from_run(&outcome.run, &outcome.memory, k, &cfg.proposals)
}

/// The configured [`SimBuilder`] behind [`run_fig1`], plus the `k` its
/// outcome is checked against. Exposed so alternative executors (the
/// `upsilon-swarm` packed loop) construct instances through the *same*
/// code path as the standalone runner — byte-identical outcomes by
/// construction, not by careful duplication.
pub fn fig1_builder(
    cfg: &AgreementConfig,
    choice: UpsilonChoice,
) -> (SimBuilder<ProcessSet>, usize) {
    let n = cfg.pattern.n();
    let oracle = UpsilonOracle::wait_free(&cfg.pattern, choice, cfg.stabilize_at, cfg.seed)
        .with_noise(cfg.noise);
    let algos = fig1::algorithms(Fig1Config { flavor: cfg.flavor }, &cfg.proposals);
    (builder_with_oracle(cfg, oracle, algos), n)
}

/// E1: the Fig. 1 protocol — Υ-based wait-free n-set-agreement.
pub fn run_fig1(cfg: &AgreementConfig, choice: UpsilonChoice) -> AgreementOutcome {
    let (builder, k) = fig1_builder(cfg, choice);
    let outcome = builder.run();
    AgreementOutcome::from_run(&outcome.run, &outcome.memory, k, &cfg.proposals)
}

/// The configured [`SimBuilder`] behind [`run_fig2`], plus the `k` its
/// outcome is checked against (see [`fig1_builder`] for why this exists).
pub fn fig2_builder(
    cfg: &AgreementConfig,
    f: usize,
    choice: UpsilonChoice,
) -> (SimBuilder<ProcessSet>, usize) {
    let oracle = UpsilonOracle::new(&cfg.pattern, f, choice, cfg.stabilize_at, cfg.seed)
        .with_noise(cfg.noise);
    let algos = fig2::algorithms(
        Fig2Config {
            flavor: cfg.flavor,
            ..Fig2Config::new(f)
        },
        &cfg.proposals,
    );
    (builder_with_oracle(cfg, oracle, algos), f)
}

/// E2: the Fig. 2 protocol — Υ^f-based f-resilient f-set-agreement.
pub fn run_fig2(cfg: &AgreementConfig, f: usize, choice: UpsilonChoice) -> AgreementOutcome {
    let (builder, k) = fig2_builder(cfg, f, choice);
    let outcome = builder.run();
    AgreementOutcome::from_run(&outcome.run, &outcome.memory, k, &cfg.proposals)
}

/// E14 ablation: Fig. 2 with an explicit configuration (e.g. the line 25
/// min-adoption switched off) — see [`Fig2Config::ablated`].
pub fn run_fig2_custom(
    cfg: &AgreementConfig,
    fig2_cfg: Fig2Config,
    choice: UpsilonChoice,
) -> AgreementOutcome {
    let oracle = UpsilonOracle::new(&cfg.pattern, fig2_cfg.f, choice, cfg.stabilize_at, cfg.seed)
        .with_noise(cfg.noise);
    let algos = fig2::algorithms(fig2_cfg, &cfg.proposals);
    run_with_oracle(cfg, oracle, algos, fig2_cfg.f)
}

/// E9 baseline: the paper's protocols running on the complement of an Ω_k
/// oracle (`k`-set-agreement with Ω_k, the pre-paper conjecture's
/// detector). For `k = n` this is literally Fig. 1 on a complemented Ω_n
/// history (Corollary 3's baseline); for `k < n` the complement is a Υ^k
/// history and Fig. 2 with `f = k` delivers the k-set agreement Ω_k was
/// known to support.
pub fn run_baseline_omega_k(
    cfg: &AgreementConfig,
    k: usize,
    choice: OmegaKChoice,
) -> AgreementOutcome {
    let n_plus_1 = cfg.pattern.n_plus_1();
    let omega_k = OmegaKOracle::new(&cfg.pattern, k, choice, cfg.stabilize_at, cfg.seed);
    let oracle = upsilon_fd::upsilon_f_from_omega_k(n_plus_1, omega_k);
    if k == cfg.pattern.n() {
        let algos = baseline::algorithms(Fig1Config { flavor: cfg.flavor }, &cfg.proposals);
        run_with_oracle(cfg, oracle, algos, k)
    } else {
        let algos = fig2::algorithms(
            Fig2Config {
                flavor: cfg.flavor,
                ..Fig2Config::new(k)
            },
            &cfg.proposals,
        );
        run_with_oracle(cfg, oracle, algos, k)
    }
}

/// E7/E8 companion: Ω-based consensus.
pub fn run_omega_consensus(cfg: &AgreementConfig, choice: LeaderChoice) -> AgreementOutcome {
    let oracle = OmegaOracle::new(&cfg.pattern, choice, cfg.stabilize_at, cfg.seed);
    let algos = consensus::algorithms(
        consensus::OmegaConsensusConfig { flavor: cfg.flavor },
        &cfg.proposals,
    );
    run_with_oracle(cfg, oracle, algos, 1)
}

/// E8: (n+1)-process consensus from n-consensus objects + Ω_n.
pub fn run_boost(cfg: &AgreementConfig, choice: OmegaKChoice) -> AgreementOutcome {
    let n = cfg.pattern.n();
    let oracle = OmegaKOracle::new(&cfg.pattern, n, choice, cfg.stabilize_at, cfg.seed);
    let algos = boost::algorithms(boost::BoostConfig { flavor: cfg.flavor }, &cfg.proposals);
    run_with_oracle(cfg, oracle, algos, 1)
}

/// E7: consensus from Υ¹ only (the §5.3 pipeline), legal in `E_1`.
pub fn run_upsilon1_consensus(cfg: &AgreementConfig, choice: UpsilonChoice) -> AgreementOutcome {
    let oracle = UpsilonOracle::new(&cfg.pattern, 1, choice, cfg.stabilize_at, cfg.seed);
    let algos = upsilon_agreement::to_algorithms(&cfg.proposals, |v| {
        crate::pipeline::upsilon1_consensus_algorithm(Default::default(), v)
    });
    run_with_oracle(cfg, oracle, algos, 1)
}

/// A pattern with `crashes` processes failing at staggered times: `p_c`
/// crashes at `first_at + 30·c`. The canonical crash script shared by the
/// E2/E8 tables and the E9/E11 scenario cells.
pub fn staggered_crashes(n_plus_1: usize, crashes: usize, first_at: u64) -> FailurePattern {
    assert!(crashes < n_plus_1);
    let mut builder = FailurePattern::builder(n_plus_1);
    for c in 0..crashes {
        builder = builder.crash(ProcessId(c), Time(first_at + 30 * c as u64));
    }
    builder.build()
}

/// The stable failure detectors Fig. 3 can consume in the harness.
#[derive(Clone, Copy, Debug)]
pub enum StableSource {
    /// Ω with the given stable-leader policy.
    Omega(LeaderChoice),
    /// Ω_k with the given set size and policy.
    OmegaK(usize, OmegaKChoice),
    /// The perfect detector `P`.
    Perfect,
    /// The eventually perfect detector `◇P`.
    EventuallyPerfect,
}

impl StableSource {
    /// A short label for tables.
    pub fn label(&self) -> String {
        match self {
            StableSource::Omega(_) => "Omega".to_string(),
            StableSource::OmegaK(k, _) => format!("Omega_{k}"),
            StableSource::Perfect => "P".to_string(),
            StableSource::EventuallyPerfect => "<>P".to_string(),
        }
    }
}

/// Result of a Fig. 3 extraction run.
#[derive(Clone, Debug)]
pub struct ExtractionOutcome {
    /// Which detector was consumed.
    pub source: String,
    /// The `f` the emulated output was checked against.
    pub f: usize,
    /// The Υ^f spec verdict over the emulated outputs.
    pub report: Result<StabilityReport<ProcessSet>, SpecViolation>,
    /// Steps granted in total.
    pub total_steps: u64,
    /// Number of published output changes across all processes.
    pub publishes: usize,
}

impl ExtractionOutcome {
    /// Panics with a readable message if the emulated output violated Υ^f.
    pub fn assert_ok(&self) {
        if let Err(e) = &self.report {
            panic!(
                "extraction from {} violated the Υ^{} spec: {e}",
                self.source, self.f
            );
        }
    }
}

/// Extracts the published `LeaderSet` outputs of a run as held-variable
/// samples for the Υ^f checker.
pub fn leader_set_samples<D: FdValue>(run: &Run<D>) -> Vec<(Time, ProcessId, ProcessSet)> {
    let published: Vec<_> = run
        .outputs()
        .iter()
        .filter_map(|(t, p, o)| match o {
            Output::LeaderSet(s) => Some((*t, *p, *s)),
            _ => None,
        })
        .collect();
    held_variable_samples(run.n_plus_1(), &published, Time(run.total_steps()))
}

/// Extracts the published `Leader` outputs of a run as held-variable
/// samples for the Ω checker.
pub fn leader_samples<D: FdValue>(run: &Run<D>) -> Vec<(Time, ProcessId, ProcessId)> {
    let published: Vec<_> = run
        .outputs()
        .iter()
        .filter_map(|(t, p, o)| match o {
            Output::Leader(l) => Some((*t, *p, *l)),
            _ => None,
        })
        .collect();
    held_variable_samples(run.n_plus_1(), &published, Time(run.total_steps()))
}

/// E3: the Fig. 3 extraction of Υ^f from a stable detector.
pub fn run_fig3(
    pattern: &FailurePattern,
    source: StableSource,
    f: usize,
    stabilize_at: Time,
    seed: u64,
    max_steps: u64,
) -> ExtractionOutcome {
    let n_plus_1 = pattern.n_plus_1();
    let source_label = source.label();
    let run: Run<ProcessSet> = match source {
        StableSource::Omega(choice) => {
            // Ω has a different value type; run it separately.
            let oracle = OmegaOracle::new(pattern, choice, stabilize_at, seed);
            let r = SimBuilder::<ProcessId>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(max_steps)
                .spawn_all(|_| extraction_algorithm(phi_omega(n_plus_1)))
                .run()
                .run;
            let samples = leader_set_samples(&r);
            return ExtractionOutcome {
                source: source_label,
                f,
                report: check_upsilon_f(pattern, f, &samples, 1),
                total_steps: r.total_steps(),
                publishes: samples.len().saturating_sub(n_plus_1),
            };
        }
        StableSource::OmegaK(k, choice) => {
            let oracle = OmegaKOracle::new(pattern, k, choice, stabilize_at, seed);
            SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(max_steps)
                .spawn_all(|_| extraction_algorithm(phi_omega_k(n_plus_1)))
                .run()
                .run
        }
        StableSource::Perfect => {
            let oracle = PerfectOracle::new(pattern);
            SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(max_steps)
                .spawn_all(|_| extraction_algorithm(phi_perfect(n_plus_1)))
                .run()
                .run
        }
        StableSource::EventuallyPerfect => {
            let oracle = EventuallyPerfectOracle::new(pattern, stabilize_at, seed);
            SimBuilder::<ProcessSet>::new(pattern.clone())
                .oracle(oracle)
                .adversary(SeededRandom::new(seed))
                .max_steps(max_steps)
                .spawn_all(|_| extraction_algorithm(phi_perfect(n_plus_1)))
                .run()
                .run
        }
    };
    let samples = leader_set_samples(&run);
    ExtractionOutcome {
        source: source_label,
        f,
        report: check_upsilon_f(pattern, f, &samples, 1),
        total_steps: run.total_steps(),
        publishes: samples.len().saturating_sub(n_plus_1),
    }
}

/// E6/E7: the Υ¹ → Ω extraction checked against the Ω spec.
pub fn run_upsilon1_to_omega(
    pattern: &FailurePattern,
    choice: UpsilonChoice,
    stabilize_at: Time,
    seed: u64,
    max_steps: u64,
) -> Result<StabilityReport<ProcessId>, SpecViolation> {
    let oracle = UpsilonOracle::new(pattern, 1, choice, stabilize_at, seed);
    let run = SimBuilder::<ProcessSet>::new(pattern.clone())
        .oracle(oracle)
        .adversary(SeededRandom::new(seed))
        .max_steps(max_steps)
        .spawn_all(|_| upsilon_extract::upsilon1_to_omega_algorithm())
        .run()
        .run;
    let samples = leader_samples(&run);
    check_omega(pattern, &samples, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash_pattern(n_plus_1: usize, who: usize, at: u64) -> FailurePattern {
        FailurePattern::builder(n_plus_1)
            .crash(ProcessId(who), Time(at))
            .build()
    }

    #[test]
    fn staggered_crashes_shape() {
        let p = staggered_crashes(5, 3, 40);
        assert_eq!(p.faulty().len(), 3);
        assert_eq!(p.crash_time(ProcessId(0)), Some(Time(40)));
        assert_eq!(p.crash_time(ProcessId(2)), Some(Time(100)));
    }

    #[test]
    fn fig1_runner_reports_metrics() {
        let cfg = AgreementConfig::new(crash_pattern(3, 0, 40)).seed(3);
        let out = run_fig1(&cfg, UpsilonChoice::default());
        out.assert_ok();
        assert!(out.decided_by.is_some());
        assert!(out.distinct.len() <= 2);
        assert!(out.total_steps > 0);
        assert_eq!(out.k, 2);
    }

    #[test]
    fn fig2_runner_covers_f_range() {
        let cfg = AgreementConfig::new(crash_pattern(4, 2, 50)).seed(5);
        for f in 1..=3usize {
            let out = run_fig2(&cfg, f, UpsilonChoice::default());
            out.assert_ok();
            assert!(out.distinct.len() <= f, "f={f}");
        }
    }

    #[test]
    fn baseline_runner_matches_spec() {
        let cfg = AgreementConfig::new(FailurePattern::failure_free(3)).seed(7);
        let out = run_baseline_omega_k(&cfg, 2, OmegaKChoice::default());
        out.assert_ok();
    }

    #[test]
    fn consensus_runners() {
        let cfg = AgreementConfig::new(crash_pattern(3, 1, 60)).seed(9);
        run_omega_consensus(&cfg, LeaderChoice::MinCorrect).assert_ok();
        run_boost(&cfg, OmegaKChoice::default()).assert_ok();
        run_upsilon1_consensus(&cfg, UpsilonChoice::default()).assert_ok();
    }

    #[test]
    fn fig3_runner_covers_all_sources() {
        let pattern = crash_pattern(3, 0, 9_000);
        for source in [
            StableSource::Omega(LeaderChoice::MinCorrect),
            StableSource::OmegaK(2, OmegaKChoice::default()),
            StableSource::Perfect,
            StableSource::EventuallyPerfect,
        ] {
            let out = run_fig3(&pattern, source, 2, Time(100), 11, 40_000);
            out.assert_ok();
            assert!(out.publishes >= 1, "{}", out.source);
        }
    }

    #[test]
    fn upsilon1_to_omega_runner() {
        let pattern = crash_pattern(3, 2, 50);
        let report = run_upsilon1_to_omega(&pattern, UpsilonChoice::All, Time(120), 13, 40_000)
            .expect("valid Ω extraction");
        assert!(pattern.is_correct(report.value));
    }

    #[test]
    fn round_robin_schedule_defers_to_upsilon() {
        // Under round-robin every proposal survives the first n-converge,
        // so the decision time tracks Υ's stabilization time.
        let pattern = FailurePattern::failure_free(3);
        let early = AgreementConfig::new(pattern.clone())
            .sched(Sched::RoundRobin)
            .noise(UpsilonNoise::ConstantAll)
            .stabilize_at(Time(50));
        let late = AgreementConfig::new(pattern)
            .sched(Sched::RoundRobin)
            .noise(UpsilonNoise::ConstantAll)
            .stabilize_at(Time(2_000));
        let out_early = run_fig1(&early, UpsilonChoice::default());
        let out_late = run_fig1(&late, UpsilonChoice::default());
        out_early.assert_ok();
        out_late.assert_ok();
        assert!(
            out_late.total_steps > out_early.total_steps,
            "later stabilization must delay decisions under round-robin: {} vs {}",
            out_late.total_steps,
            out_early.total_steps
        );
    }

    #[test]
    fn skewed_schedule_still_satisfies_spec() {
        let cfg = AgreementConfig::new(crash_pattern(4, 3, 70))
            .sched(Sched::SkewedRandom)
            .seed(5);
        run_fig1(&cfg, UpsilonChoice::default()).assert_ok();
    }

    #[test]
    fn config_builders() {
        let cfg = AgreementConfig::new(FailurePattern::failure_free(3))
            .seed(1)
            .stabilize_at(Time(5))
            .flavor(SnapshotFlavor::RegisterBased)
            .proposals(vec![Some(1), None, Some(2)])
            .sched(Sched::RoundRobin)
            .max_steps(123);
        assert_eq!(cfg.max_steps, 123);
        assert_eq!(cfg.sched, Sched::RoundRobin);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.stabilize_at, Time(5));
        assert_eq!(cfg.flavor, SnapshotFlavor::RegisterBased);
        assert_eq!(cfg.proposals[1], None);
    }
}
