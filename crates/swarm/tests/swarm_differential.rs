//! The swarm determinism contract, held against the standalone runners:
//! every instance template run packed — at every worker count, batch size
//! and window mode — produces an [`InstanceResult`] **byte-identical** to
//! the same spec driven to completion alone through `SimBuilder::run`.
//! "Byte-identical" is the full `PartialEq` on the result: every decision,
//! the k-set-agreement verdict, each §3.3 run-condition verdict, the step
//! metrics and the canonical state fingerprint — which both collecting
//! paths must set, so the comparison is never `None == None`.
//!
//! The suite also pins the campaign layer: OS-style shard slices merged
//! through the content-addressed store reproduce the whole-campaign
//! report exactly.

use upsilon_swarm::{
    campaign_shard_range, campaign_specs, merge_records, mix_to_string, run_packed_specs,
    run_standalone, run_standalone_batch, run_swarm, run_swarm_collect, sample_specs, template,
    InstanceResult, InstanceSpec, ShardRecord, SwarmConfig, TEMPLATES,
};

/// The packed-mode sweep of the acceptance criteria: worker counts 1/2/8
/// crossed with batch quotas 1/16/4096 in full-pack mode, and with windows
/// 1/7/64 × batches 1/16/64 in streaming mode.
const WORKERS: &[usize] = &[1, 2, 8];
const BATCHES: &[u64] = &[1, 16, 4096];

/// A mixed arena: every template, several seeds each, interleaved so that
/// neighbours in the arena run different protocols.
fn mixed_specs(copies: u64) -> Vec<InstanceSpec> {
    let mut specs = Vec::new();
    for seed_round in 0..copies {
        for spec in sample_specs(seed_round * 1001) {
            specs.push(spec);
        }
    }
    specs
}

/// Asserts every result carries its fingerprint witness.
fn assert_witnessed(results: &[InstanceResult], what: &str) {
    for (i, res) in results.iter().enumerate() {
        assert!(
            res.fingerprint.is_some(),
            "{what}: result {i} has no fingerprint witness"
        );
    }
}

/// Every template, standalone vs packed-with-neighbours, across the full
/// worker × batch sweep: the per-instance results must be equal field for
/// field, fingerprints included.
#[test]
fn every_template_packed_equals_standalone() {
    let specs = mixed_specs(3);
    let standalone: Vec<_> = specs.iter().map(run_standalone).collect();
    assert_witnessed(&standalone, "standalone");
    for &workers in WORKERS {
        for &batch in BATCHES {
            let (report, packed) = run_packed_specs(&specs, batch, workers, None, true);
            let packed = packed.expect("collect requested");
            assert_witnessed(&packed, "packed");
            assert_eq!(report.instances as usize, specs.len());
            assert_eq!(
                packed, standalone,
                "workers={workers} batch={batch}: packed results diverged from standalone"
            );
        }
    }
}

/// The same sweep in streaming mode: a bounded window (smaller than the
/// arena, including the degenerate window of one) changes residency, never
/// results or counters. Small quotas keep lazily admitted cells resident
/// across several sweeps, so cells built at their first grant are stepped
/// beside neighbours that were built sweeps earlier.
#[test]
fn windowed_streaming_equals_full_pack() {
    let specs = mixed_specs(2);
    let (full_report, full) = run_packed_specs(&specs, 64, 1, None, true);
    let full = full.expect("collect requested");
    assert_witnessed(&full, "full pack");
    for &workers in WORKERS {
        for window in [1usize, 7, 64] {
            for batch in [1u64, 16, 64] {
                let (report, windowed) =
                    run_packed_specs(&specs, batch, workers, Some(window), true);
                let windowed = windowed.expect("collect requested");
                assert_witnessed(&windowed, "windowed");
                assert_eq!(
                    windowed, full,
                    "workers={workers} window={window} batch={batch}: \
                     streaming diverged from full pack"
                );
                assert_eq!(
                    report, full_report,
                    "workers={workers} window={window} batch={batch}: \
                     report fields must be window-invariant"
                );
            }
        }
    }
}

/// The standalone reference itself is pool-invariant: `run_standalone_batch`
/// returns the same results at any worker count, in spec order.
#[test]
fn standalone_batch_matches_sequential_reference() {
    let specs = mixed_specs(2);
    let sequential: Vec<_> = specs.iter().map(run_standalone).collect();
    for &workers in WORKERS {
        assert_eq!(
            run_standalone_batch(&specs, workers),
            sequential,
            "workers={workers}: batch pool perturbed a standalone run"
        );
    }
}

/// Every checked-in template finishes cleanly — spec held, §3.3 run
/// conditions held, run completed — both alone and packed. A template that
/// cannot finish would poison every campaign mix that names it.
#[test]
fn every_template_is_clean() {
    for &(name, _, _, _) in TEMPLATES {
        let spec = template(name).expect("checked-in template");
        let alone = run_standalone(&spec);
        assert!(
            alone.outcome.spec.is_ok() && alone.outcome.run_conditions.is_ok(),
            "{name}: standalone run is not clean: {:?}",
            alone.outcome
        );
        let (report, _) = run_packed_specs(std::slice::from_ref(&spec), 16, 1, None, false);
        assert!(report.all_ok(), "{name}: packed run is not clean");
        assert_eq!(report.decisions, alone.decisions(), "{name}: decisions");
    }
}

/// Campaign-level differential: a 9-template-mix campaign collected
/// through [`run_swarm_collect`] equals the per-index standalone runs of
/// the campaign's own spec function.
#[test]
fn campaign_results_equal_standalone_specs() {
    let mix = vec![
        ("echo".to_string(), 2),
        ("converge-pair".to_string(), 3),
        ("fig1".to_string(), 2),
        ("fig2".to_string(), 1),
        ("converge-crash".to_string(), 1),
    ];
    let mut cfg = SwarmConfig::new(mix.clone(), 180);
    cfg.campaign_seed = 0xC0FFEE;
    cfg.batch = 8;
    cfg.workers = 2;
    let (report, packed) = run_swarm_collect(&cfg);
    assert!(report.all_ok(), "campaign must be clean");
    assert_witnessed(&packed, "collected");
    let specs = campaign_specs(&mix, cfg.campaign_seed, 0..180);
    let standalone: Vec<_> = specs.iter().map(run_standalone).collect();
    assert_witnessed(&standalone, "standalone");
    assert_eq!(packed, standalone);
}

/// Sharding differential: splitting a campaign into OS-style shard ranges,
/// running each slice separately and merging the shard records through the
/// content-addressed store reproduces the whole-campaign report exactly —
/// and every shard's collected results line up with the whole campaign's.
#[test]
fn sharded_campaign_merges_to_the_whole() {
    let mix = vec![
        ("converge-pair".to_string(), 2),
        ("fig1-crash".to_string(), 1),
        ("converge".to_string(), 1),
    ];
    let instances = 120;
    let mut whole = SwarmConfig::new(mix.clone(), instances);
    whole.campaign_seed = 7;
    whole.batch = 32;
    let (whole_report, whole_results) = run_swarm_collect(&whole);

    for shards in [2u64, 3, 5] {
        let mut records = Vec::new();
        let mut stitched = Vec::new();
        for index in 0..shards {
            let (lo, hi) = campaign_shard_range(instances, shards, index);
            let mut cfg = whole.clone();
            cfg.range = Some((lo, hi));
            let (report, results) = run_swarm_collect(&cfg);
            records.push(ShardRecord {
                mix: mix_to_string(&cfg.mix),
                instances,
                campaign_seed: cfg.campaign_seed,
                shard_index: index,
                shards,
                lo,
                hi,
                batch: cfg.batch,
                workers: cfg.workers as u64,
                report,
            });
            stitched.extend(results);
        }
        let merged = merge_records(&records).expect("ranges partition the campaign");
        assert_eq!(merged, whole_report, "{shards} shards: merged report");
        assert_eq!(stitched, whole_results, "{shards} shards: stitched results");
    }
}

/// The matrix-facing aggregate: `run_swarm` (counters only) agrees with
/// `run_swarm_collect` (counters + results), and both are worker- and
/// window-invariant.
#[test]
fn report_is_mode_invariant() {
    let mix = vec![("echo".to_string(), 1), ("fig1".to_string(), 1)];
    let mut cfg = SwarmConfig::new(mix, 64);
    cfg.campaign_seed = 99;
    let base = run_swarm(&cfg);
    for &workers in WORKERS {
        for window in [None, Some(5)] {
            let mut alt = cfg.clone();
            alt.workers = workers;
            alt.window = window;
            assert_eq!(run_swarm(&alt), base, "workers={workers} window={window:?}");
            let (collected, results) = run_swarm_collect(&alt);
            assert_eq!(collected, base);
            assert_eq!(results.len() as u64, base.instances);
        }
    }
}
