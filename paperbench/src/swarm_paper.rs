//! `swarm-paper`: a streaming, windowed swarm over the paper mix
//! `converge-pair,fig1,fig2,fig1-crash`. Every instance must finish with
//! its k-set-agreement spec and its §3.3 run conditions holding.
//!
//! The untraced round calls `run_swarm`. The traced round drives the same
//! campaign through the layer's public functions (`InstanceSpec::build`,
//! `SimBuilder::into_cell`, `RunCell::step_quota`, `RunCell::finish`,
//! `fold_outcome`) in the executor's windowed round-robin order, timing
//! each call, and must reproduce `run_swarm`'s report exactly.

use std::sync::Arc;
use std::time::Instant;

use upsilon_scenario::{resolve_swarm, ScenarioDoc};
use upsilon_sim::{RunCell, StopReason};
use upsilon_swarm::{
    campaign_specs, fold_outcome, run_packed_specs, run_swarm, InstanceSpec, SwarmConfig,
    SwarmReport,
};

use crate::report::median;
use crate::trace::Tracer;
use crate::{mix_seed, Layers, Round, Setup, Workload};

const DOC: &str = r#"
name = "paperbench-swarm"
kind = "swarm"
protocol = "swarm"
expect = "pass"
[swarm]
instances = 24000
batch = 64
window = 1024
mix = "converge-pair,fig1,fig2,fig1-crash"
"#;

pub struct SwarmPaper {
    seed: u64,
    cfg: SwarmConfig,
}

pub fn setup(seed: u64, workers: usize) -> Result<Setup, String> {
    let start = Instant::now();
    let doc = ScenarioDoc::parse(DOC).map_err(|d| d.to_string())?;
    let cell = doc
        .expand()
        .into_iter()
        .next()
        .ok_or("the swarm scenario expands to no cell")?;
    let mut cfg = resolve_swarm(&doc, &cell, seed)?;
    cfg.workers = workers;
    let resolve_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        workload: Box::new(SwarmPaper { seed, cfg }),
        resolve_s,
    })
}

/// Busy time per layer call inside one arena slice.
#[derive(Clone, Copy, Default, Debug)]
struct SliceTimes {
    packs: u64,
    pack_ns: u64,
    quotas: u64,
    step_ns: u64,
    folds: u64,
    fold_ns: u64,
}

/// Contiguous balanced partition of `n` items into at most `workers`
/// chunks, as the executor slices its arena.
fn slices(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(n.max(1));
    let (base, rem) = (n / workers, n % workers);
    let mut out = Vec::new();
    let mut lo = 0;
    for i in 0..workers {
        let len = base + usize::from(i < rem);
        if len > 0 {
            out.push((lo, lo + len));
            lo += len;
        }
    }
    out
}

/// The executor's windowed sweep over one slice, one timed call at a time.
fn traced_slice(specs: &[InstanceSpec], batch: u64, window: usize) -> (SwarmReport, SliceTimes) {
    struct Live {
        cell: RunCell<upsilon_sim::ProcessSet>,
        k: usize,
        proposals: Vec<Option<u64>>,
    }
    let mut t = SliceTimes::default();
    let mut report = SwarmReport {
        instances: specs.len() as u64,
        ..SwarmReport::default()
    };
    let pack = |spec: &InstanceSpec, report: &mut SwarmReport, t: &mut SliceTimes| {
        let start = Instant::now();
        let (builder, k, proposals) = spec.build();
        let cell = builder.into_cell();
        t.pack_ns += start.elapsed().as_nanos() as u64;
        t.packs += 1;
        report.packed_bytes += cell.approx_bytes() as u64;
        Live { cell, k, proposals }
    };
    let window = window.clamp(1, specs.len().max(1));
    let mut next = 0;
    let mut slots: Vec<Option<Live>> = Vec::with_capacity(window);
    while next < specs.len() && slots.len() < window {
        slots.push(Some(pack(&specs[next], &mut report, &mut t)));
        next += 1;
    }
    let mut live = slots.len();
    while live > 0 {
        for slot in &mut slots {
            let Some(cell) = slot.as_mut() else { continue };
            let start = Instant::now();
            let done = cell.cell.step_quota(batch);
            t.step_ns += start.elapsed().as_nanos() as u64;
            t.quotas += 1;
            if done.is_none() {
                continue;
            }
            let cell = slot.take().expect("slot checked live above");
            report.arena_bytes += cell.cell.approx_bytes() as u64;
            let start = Instant::now();
            let sim = cell.cell.finish();
            let res = fold_outcome(&sim, cell.k, &cell.proposals);
            t.fold_ns += start.elapsed().as_nanos() as u64;
            t.folds += 1;
            if sim.run.stop_reason() == StopReason::AllDone {
                report.finished += 1;
            }
            report.total_steps += res.outcome.total_steps;
            report.decisions += res.decisions();
            report.fd_queries += res.outcome.fd_queries as u64;
            report.spec_ok += u64::from(res.outcome.spec.is_ok());
            report.run_cond_ok += u64::from(res.outcome.run_conditions.is_ok());
            if next < specs.len() {
                *slot = Some(pack(&specs[next], &mut report, &mut t));
                next += 1;
            } else {
                live -= 1;
            }
        }
    }
    (report, t)
}

fn add(into: &mut SwarmReport, r: &SwarmReport) {
    into.instances += r.instances;
    into.packed_bytes += r.packed_bytes;
    into.arena_bytes += r.arena_bytes;
    into.total_steps += r.total_steps;
    into.decisions += r.decisions;
    into.fd_queries += r.fd_queries;
    into.spec_ok += r.spec_ok;
    into.run_cond_ok += r.run_cond_ok;
    into.finished += r.finished;
}

impl SwarmPaper {
    fn round_cfg(&self, index: u64) -> SwarmConfig {
        let mut cfg = self.cfg.clone();
        cfg.campaign_seed = mix_seed(self.seed, index);
        cfg
    }

    /// The traced campaign: one thread per arena slice, as the executor.
    fn traced(&self, cfg: &SwarmConfig, tracer: &Tracer) -> (SwarmReport, Vec<SliceTimes>) {
        let specs = campaign_specs(&cfg.mix, cfg.campaign_seed, cfg.effective_range());
        let window = cfg.window.unwrap_or(specs.len());
        let parts = slices(specs.len(), cfg.workers);
        let outs: Vec<(SwarmReport, SliceTimes)> = tracer
            .span("swarm", || {
                std::thread::scope(|s| {
                    let handles: Vec<_> = parts
                        .iter()
                        .map(|&(lo, hi)| {
                            let slice = &specs[lo..hi];
                            s.spawn(move || traced_slice(slice, cfg.batch, window))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("traced swarm slice panicked"))
                        .collect()
                })
            })
            .0;
        let mut report = SwarmReport::default();
        for (r, _) in &outs {
            add(&mut report, r);
        }
        (report, outs.into_iter().map(|(_, t)| t).collect())
    }
}

impl Workload for SwarmPaper {
    fn round(&self, index: u64, tracer: Option<&Arc<Tracer>>) -> Round {
        let mut r = Round::default();
        let cfg = self.round_cfg(index);
        let start = Instant::now();
        let out = match tracer {
            None => r.job("swarm", || (run_swarm(&cfg), Vec::new())),
            Some(t) => r.job("swarm", || self.traced(&cfg, t)),
        };
        r.verdict_s = start.elapsed().as_secs_f64();
        let Some((report, times)) = out else { return r };
        r.expect(report.all_ok(), "swarm", || {
            format!(
                "expected every instance finished and clean: instances {}, finished {}, \
                 spec_ok {}, run_cond_ok {}",
                report.instances, report.finished, report.spec_ok, report.run_cond_ok
            )
        });
        r.states = report.total_steps;
        r.execs = report.finished;
        r.counts = vec![
            ("swarm.instances", report.instances),
            ("swarm.finished", report.finished),
            ("swarm.decisions", report.decisions),
            ("swarm.total_steps", report.total_steps),
            ("swarm.fd_queries", report.fd_queries),
            ("swarm.packed_bytes", report.packed_bytes),
            ("swarm.arena_bytes", report.arena_bytes),
        ];
        r.figures = vec![
            ("decisions_per_sec", report.decisions as f64 / r.verdict_s),
            ("bytes_per_instance", report.bytes_per_instance() as f64),
        ];
        if !times.is_empty() {
            let sum = |f: fn(&SliceTimes) -> u64| times.iter().map(f).sum::<u64>() as f64;
            r.figures.extend([
                ("packs", sum(|t| t.packs)),
                ("pack_ns", sum(|t| t.pack_ns)),
                ("quotas", sum(|t| t.quotas)),
                ("step_ns", sum(|t| t.step_ns)),
                ("folds", sum(|t| t.folds)),
                ("fold_ns", sum(|t| t.fold_ns)),
            ]);
        }
        r
    }

    fn layers(&self, plain: &[Round], traced: &[Round], _tracer: &Arc<Tracer>) -> Layers {
        let per_call = |calls: &str, ns: &str| {
            let c: f64 = traced.iter().map(|r| r.figure(calls)).sum();
            let n: f64 = traced.iter().map(|r| r.figure(ns)).sum();
            n / c.max(1.0)
        };
        let pack_ns = per_call("packs", "pack_ns");
        let quota_ns = per_call("quotas", "step_ns");
        let fold_ns = per_call("folds", "fold_ns");
        let cnt = |name: &str| median(plain.iter().map(|r| r.count(name) as f64));
        let fig = |name: &str| median(plain.iter().map(|r| r.figure(name)));
        let steps = cnt("swarm.total_steps");
        let quotas = median(traced.iter().map(|r| r.figure("quotas")));
        let step_ns = quota_ns * quotas / steps.max(1.0);
        let (efficiency, idle_s) = self.pool_probe();
        let values = vec![
            ("sim.pool.parallel_efficiency", efficiency),
            ("sim.pool.idle_s", idle_s),
            ("swarm.pack_ns", pack_ns),
            ("swarm.step_ns", step_ns),
            ("swarm.fold_ns", fold_ns),
            ("swarm.total_steps", steps),
            ("swarm.fd_queries", cnt("swarm.fd_queries")),
            ("swarm.arena_bytes", cnt("swarm.arena_bytes")),
            ("swarm.decisions_per_sec", fig("decisions_per_sec")),
            ("swarm.bytes_per_instance", fig("bytes_per_instance")),
        ];
        let instances = cnt("swarm.instances");
        let model_s =
            (instances * (pack_ns + fold_ns) + quotas * quota_ns) * 1e-9 / self.cfg.workers as f64;
        Layers { values, model_s }
    }
}

impl SwarmPaper {
    /// Times each arena slice alone through `run_packed_specs` with one
    /// worker and compares the sum with the parallel wall time:
    /// `(parallel efficiency, idle worker-seconds)`.
    fn pool_probe(&self) -> (f64, f64) {
        let cfg = self.round_cfg(0);
        let specs = campaign_specs(&cfg.mix, cfg.campaign_seed, cfg.effective_range());
        let w = cfg.workers;
        let run = |specs: &[InstanceSpec], workers: usize| {
            let start = Instant::now();
            std::hint::black_box(run_packed_specs(
                specs, cfg.batch, workers, cfg.window, false,
            ));
            start.elapsed().as_secs_f64()
        };
        let serial: f64 = median((0..3).map(|_| {
            slices(specs.len(), w)
                .into_iter()
                .map(|(lo, hi)| run(&specs[lo..hi], 1))
                .sum::<f64>()
        }));
        let parallel = median((0..3).map(|_| run(&specs, w)));
        let w = w as f64;
        (serial / (w * parallel), w * parallel - serial)
    }
}
