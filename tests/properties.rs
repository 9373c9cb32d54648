//! Property-based tests (proptest): the paper's invariants under random
//! failure patterns, schedules, proposals and oracle shapes.

use proptest::prelude::*;
use weakest_failure_detector::agreement::{
    check_k_set_agreement, fig1, fig2, Fig1Config, Fig2Config,
};
use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::fd::{UpsilonChoice, UpsilonOracle};
use weakest_failure_detector::mem::{scan_contained_in, NativeSnapshot, Snapshot, SnapshotFlavor};
use weakest_failure_detector::sim::algo;
use weakest_failure_detector::sim::{
    FailurePattern, Key, ProcessId, ProcessSet, SeededRandom, SimBuilder, Time,
};

/// Shared per-process (picked, committed) results of a converge run.
type SharedResults = std::sync::Arc<std::sync::Mutex<Vec<Option<(u64, bool)>>>>;

/// A random failure pattern for `n_plus_1` processes with at most `f`
/// crashes at times below `horizon`.
fn arb_pattern(n_plus_1: usize, f: usize, horizon: u64) -> impl Strategy<Value = FailurePattern> {
    let victims = proptest::collection::vec(0..n_plus_1, 0..=f);
    let times = proptest::collection::vec(0..horizon, f);
    (victims, times).prop_map(move |(victims, times)| {
        let mut builder = FailurePattern::builder(n_plus_1);
        let mut victims = victims;
        victims.sort_unstable();
        victims.dedup();
        if victims.len() == n_plus_1 {
            victims.pop();
        }
        for (i, v) in victims.into_iter().enumerate() {
            builder = builder.crash(ProcessId(v), Time(times[i % times.len().max(1)]));
        }
        builder.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Fig. 1 satisfies n-set-agreement for random patterns, seeds,
    /// proposals and stable-set policies.
    #[test]
    fn fig1_always_satisfies_the_spec(
        pattern in arb_pattern(4, 3, 80),
        seed in 0u64..1_000,
        base in 0u64..50,
        stab in 0u64..300,
    ) {
        let proposals: Vec<Option<u64>> = (0..4).map(|i| Some(base + i)).collect();
        let oracle = UpsilonOracle::wait_free(
            &pattern, UpsilonChoice::RandomLegal, Time(stab), seed);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(600_000);
        for (pid, algo) in fig1::algorithms(Fig1Config::default(), &proposals) {
            builder = builder.spawn(pid, algo);
        }
        let run = builder.run().run;
        prop_assert!(check_k_set_agreement(&run, 3, &proposals).is_ok(),
            "{:?}", check_k_set_agreement(&run, 3, &proposals));
    }

    /// Fig. 2 satisfies f-set-agreement for random f and patterns in E_f.
    #[test]
    fn fig2_always_satisfies_the_spec(
        f in 1usize..=3,
        seed in 0u64..1_000,
        stab in 0u64..200,
        crash_time in 0u64..100,
        victim in 0usize..4,
    ) {
        let pattern = FailurePattern::builder(4)
            .crash(ProcessId(victim), Time(crash_time))
            .build();
        prop_assume!(pattern.in_environment(f));
        let proposals: Vec<Option<u64>> = (0..4).map(|i| Some(i + 1)).collect();
        let oracle = UpsilonOracle::new(
            &pattern, f, UpsilonChoice::RandomLegal, Time(stab), seed);
        let mut builder = SimBuilder::<ProcessSet>::new(pattern.clone())
            .oracle(oracle)
            .adversary(SeededRandom::new(seed))
            .max_steps(800_000);
        for (pid, algo) in fig2::algorithms(Fig2Config::new(f), &proposals) {
            builder = builder.spawn(pid, algo);
        }
        let run = builder.run().run;
        prop_assert!(check_k_set_agreement(&run, f, &proposals).is_ok(),
            "f={f}: {:?}", check_k_set_agreement(&run, f, &proposals));
    }

    /// k-converge C-properties for random inputs, k and schedules.
    #[test]
    fn k_converge_properties(
        inputs in proptest::collection::vec(1u64..6, 2..=5),
        k in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        use std::sync::{Arc, Mutex};
        let n = inputs.len();
        let results: SharedResults =
            Arc::new(Mutex::new(vec![None; n]));
        let results2 = Arc::clone(&results);
        let inputs2 = inputs.clone();
        let _ = SimBuilder::<()>::new(FailurePattern::failure_free(n))
            .adversary(SeededRandom::new(seed))
            .spawn_all(move |pid| {
                let results = Arc::clone(&results2);
                let v = inputs2[pid.index()];
                algo(move |mut ctx| async move {
                    let inst = ConvergeInstance::new(
                        Key::new("cv"), ctx.n_plus_1(), SnapshotFlavor::Native);
                    let out = inst.converge(&mut ctx, k, v).await;
                    results.lock().unwrap()[pid.index()] = Some(out);
                })
            })
            .run();
        let outs = results.lock().unwrap().clone();
        // C-Termination.
        prop_assert!(outs.iter().all(|o| o.is_some()));
        let picked: Vec<u64> = outs.iter().flatten().map(|(v, _)| *v).collect();
        // C-Validity.
        prop_assert!(picked.iter().all(|v| inputs.contains(v)));
        // C-Agreement.
        if outs.iter().flatten().any(|(_, c)| *c) {
            let mut d = picked.clone();
            d.sort_unstable();
            d.dedup();
            prop_assert!(d.len() <= k, "committed but {} values picked (k={k})", d.len());
        }
        // Convergence.
        let mut di = inputs.clone();
        di.sort_unstable();
        di.dedup();
        if di.len() <= k {
            prop_assert!(outs.iter().flatten().all(|(_, c)| *c));
        }
    }

    /// Snapshot containment: scans from random concurrent histories are
    /// totally ordered, for both implementations.
    #[test]
    fn snapshot_scans_are_containment_ordered(
        seed in 0u64..1_000,
        rounds in 1usize..4,
        register_based in proptest::bool::ANY,
    ) {
        use std::sync::{Arc, Mutex};
        use weakest_failure_detector::mem::{AfekSnapshot, FlavoredSnapshot};
        let scans: Arc<Mutex<Vec<Vec<Option<u64>>>>> = Arc::new(Mutex::new(Vec::new()));
        let scans2 = Arc::clone(&scans);
        let flavor = if register_based {
            SnapshotFlavor::RegisterBased
        } else {
            SnapshotFlavor::Native
        };
        let _ = SimBuilder::<()>::new(FailurePattern::failure_free(3))
            .adversary(SeededRandom::new(seed))
            .spawn_all(move |pid| {
                let scans = Arc::clone(&scans2);
                algo(move |mut ctx| async move {
                    let snap = FlavoredSnapshot::<u64>::new(flavor, Key::new("S"), 3);
                    for r in 0..rounds as u64 {
                        snap.update(&mut ctx, pid.index() as u64 * 100 + r).await;
                        let s = snap.scan(&mut ctx).await;
                        scans.lock().unwrap().push(s);
                    }
                })
            })
            .run();
        let scans = scans.lock().unwrap();
        for a in scans.iter() {
            for b in scans.iter() {
                prop_assert!(
                    scan_contained_in(a, b) || scan_contained_in(b, a),
                    "not containment-related: {a:?} / {b:?}"
                );
            }
        }
        // Silence unused-import lint paths for the two concrete types.
        let _ = (NativeSnapshot::<u64>::new(Key::new("x"), 1),
                 AfekSnapshot::<u64>::new(Key::new("y"), 1));
    }

    /// Υ oracle histories always satisfy the Υ spec, for random legal
    /// configurations.
    #[test]
    fn upsilon_oracle_histories_satisfy_spec(
        pattern in arb_pattern(4, 3, 50),
        seed in 0u64..1_000,
        stab in 0u64..120,
    ) {
        use weakest_failure_detector::fd::check_upsilon;
        use weakest_failure_detector::sim::Oracle;
        let mut o = UpsilonOracle::wait_free(
            &pattern, UpsilonChoice::RandomLegal, Time(stab), seed);
        let mut samples = Vec::new();
        for t in 0..stab + 60 {
            for i in 0..4 {
                let p = ProcessId(i);
                if !pattern.is_crashed_at(p, Time(t)) {
                    samples.push((Time(t), p, o.output(p, Time(t))));
                }
            }
        }
        prop_assert!(check_upsilon(&pattern, &samples, 10).is_ok());
    }
}
