//! `network-cold`: whole-network evaluation from a cold evaluator.
//!
//! One operation is one `NetworkEvaluator::evaluate` call (AMOS on v100)
//! for one network × batch combination; each pass over the [`combos`] builds
//! a fresh evaluator, so every pass explores cold. The seed fixes the order
//! of the combinations within a pass. Exploration (enumeration, lowering,
//! batched screening and timing simulation on wide flat pool waves) is
//! almost all of the time; verification, the disk tier and the service are
//! bypassed.
//!
//! A traced run cannot see inside `evaluate`, so it replays each pass's
//! distinct layer shapes through the staged `Engine` calls, with the
//! evaluator's search settings, as one flat wave on the worker pool.
//!
//! Checks, after the timed section: every pass gives identical costs; one
//! combination re-run at `jobs = 1` matches bit for bit; every network total
//! is finite, positive and at least the sum of the layers' compute lower
//! bounds.

use crate::rng::Rng;
use crate::stats::{cycle_lower_bound, cycles_credible};
use crate::trace::Tracer;
use crate::{Report, Size};
use amos_baselines::{NetworkCost, NetworkEvaluator, System};
use amos_core::{fnv1a, parallel_map, shape_fingerprint, Engine, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_ir::ComputeDef;
use amos_workloads::networks::{self, Network};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Exploration-depth multiplier of every search (`NetworkEvaluator::with_depth`).
pub const DEPTH: usize = 48;

/// Fewest passes a full run makes: 6 × 17 = 102 operations.
const MIN_PASSES: usize = 6;

/// The evaluated (network, batch) combinations: the `record_network` set.
pub fn combos(size: Size) -> Vec<(Network, i64)> {
    if size == Size::Smoke {
        return vec![(networks::mi_lstm(), 1), (networks::shufflenet(), 1)];
    }
    let mut out = Vec::new();
    for b in [1, 2, 4, 8, 16] {
        out.push((networks::resnet18(), b));
        out.push((networks::mobilenet_v1(), b));
    }
    for b in [1, 16] {
        out.push((networks::resnet50(), b));
        out.push((networks::bert_base(), b));
        out.push((networks::shufflenet(), b));
    }
    out.push((networks::mi_lstm(), 1));
    out
}

fn depth(size: Size) -> usize {
    match size {
        Size::Full => DEPTH,
        Size::Smoke => 1,
    }
}

/// The sum of the compute lower bounds of a network's tensor layers.
fn network_bound(net: &Network, batch: i64, accel: &AcceleratorSpec) -> f64 {
    net.groups
        .iter()
        .filter_map(|g| {
            g.op.compute_def(batch)
                .map(|d| cycle_lower_bound(&d, accel) * g.count as f64)
        })
        .sum()
}

/// The distinct layer shapes of a combination in first-appearance order,
/// as `NetworkEvaluator::evaluate` collects them.
fn distinct_shapes(net: &Network, batch: i64) -> Vec<(String, ComputeDef)> {
    let mut seen = HashSet::new();
    net.groups
        .iter()
        .filter_map(|g| g.op.compute_def(batch))
        .filter_map(|def| {
            let fp = shape_fingerprint(&def);
            seen.insert(fp.clone()).then_some((fp, def))
        })
        .collect()
}

/// The search settings `NetworkEvaluator` gives AMOS for one shape.
fn shape_config(fp: &str, depth: usize, jobs: usize) -> ExplorerConfig {
    ExplorerConfig {
        population: 32,
        generations: 8 * depth.max(1),
        survivors: 8,
        measure_top: 6,
        seed: fnv1a(fp),
        jobs,
        ..ExplorerConfig::default()
    }
}

/// Counters summed over a traced replay.
#[derive(Debug, Default)]
struct Counts {
    mappings: usize,
    programs: usize,
    generations: usize,
    measured: usize,
    sim_failures: usize,
    screened: usize,
    memo_hits: usize,
    screen_s: f64,
    problems: Vec<String>,
}

/// The traced operation: one combination's not-yet-explored shapes, staged
/// through `engine` as one flat wave.
fn replay(
    t: &Tracer,
    op_id: u64,
    engine: &Engine,
    shapes: &[(String, ComputeDef)],
    accel: &AcceleratorSpec,
    depth: usize,
    counts: &Mutex<Counts>,
) {
    t.root(op_id, "op", |ctx| {
        // As `evaluate`: several shapes go out as one flat wave of serial
        // searches, a lone shape searches on every thread.
        let inner = if shapes.len() > 1 { 1 } else { 0 };
        parallel_map(amos_core::default_jobs(), shapes.len(), |i| {
            t.child(ctx, "shape", |ctx| {
                let (fp, def) = &shapes[i];
                let set = t.child(ctx, "generate", |_| {
                    engine.generate(engine.analyze_with(shape_config(fp, depth, inner), def, accel))
                });
                // A shape with no valid mapping falls back to the scalar
                // units inside `evaluate`; nothing further to replay.
                let Ok(set) = set else { return };
                let mappings = set.total_mappings();
                let lowered = t.child(ctx, "lower", |_| engine.lower(set));
                let mut c = Counts::default();
                let outcome = lowered.map(|l| {
                    c.programs = l.total_programs();
                    t.child(ctx, "explore", |_| engine.explore(l))
                });
                match outcome {
                    Ok(Ok(e)) => {
                        let r = e.result();
                        if !cycles_credible(e.cycles(), cycle_lower_bound(def, accel)) {
                            c.problems
                                .push(format!("{fp}: {} cycles below its bound", e.cycles()));
                        }
                        c.generations = r.generations_completed;
                        c.measured = r.evaluations.len();
                        c.sim_failures = r.sim_failures;
                        c.screened = r.screening.screened;
                        c.memo_hits =
                            r.screening.survivor_memo_hits + r.screening.measured_memo_hits;
                        c.screen_s = r.screening.screen_seconds;
                    }
                    Ok(Err(e)) | Err(e) => c.problems.push(format!("{fp}: {e}")),
                }
                let mut all = counts.lock().expect("no replay lane panics");
                all.mappings += mappings;
                all.programs += c.programs;
                all.generations += c.generations;
                all.measured += c.measured;
                all.sim_failures += c.sim_failures;
                all.screened += c.screened;
                all.memo_hits += c.memo_hits;
                all.screen_s += c.screen_s;
                all.problems.append(&mut c.problems);
            })
        });
    });
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, t: &Tracer, size: Size) -> Report {
    let mut combos = combos(size);
    Rng::new(seed, 0x7e7).shuffle(&mut combos);
    let depth = depth(size);
    let accel = amos_hw::catalog::v100();
    let min_passes = if size == Size::Full { MIN_PASSES } else { 1 };
    let mut report = Report {
        min_ops: min_passes * combos.len(),
        ..Report::default()
    };
    // Set-up, before the first timed operation: a cold evaluator with its
    // engine and registry, as each pass builds.
    report.setup_s = (0..crate::SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(NetworkEvaluator::new().with_depth(depth));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let validation_before = amos_core::validate::validation_calls();
    let pool_before = amos_core::pool_stats();
    let counts = Mutex::new(Counts::default());
    let mut first: Option<Vec<NetworkCost>> = None;
    let mut passes = 0;
    let mut op_id = 0;
    let (mut l1, mut misses, mut refine_hits, mut refine_misses) = (0, 0, 0, 0);
    let mut registry_s = 0.0;
    while passes < min_passes || report.timed_s < seconds {
        if t.enabled() {
            let start = Instant::now();
            let engine = Engine::new();
            registry_s += start.elapsed().as_secs_f64();
            let mut explored = HashSet::new();
            for (net, batch) in &combos {
                op_id += 1;
                report.attempted += 1;
                let shapes: Vec<_> = distinct_shapes(net, *batch)
                    .into_iter()
                    .filter(|(fp, _)| explored.insert(fp.clone()))
                    .collect();
                let start = Instant::now();
                replay(t, op_id, &engine, &shapes, &accel, depth, &counts);
                let secs = start.elapsed().as_secs_f64();
                report.timed_s += secs;
                report.latencies_ms.push(secs * 1e3);
            }
            let s = engine.cache_stats();
            (l1, misses) = (l1 + s.hits, misses + s.misses);
            refine_hits += engine.refine_hits();
            refine_misses += engine.refine_misses();
        } else {
            let mut ev = NetworkEvaluator::new().with_depth(depth);
            let mut costs = Vec::with_capacity(combos.len());
            for (net, batch) in &combos {
                report.attempted += 1;
                let start = Instant::now();
                let cost = ev.evaluate(System::Amos, net, *batch, &accel);
                let secs = start.elapsed().as_secs_f64();
                report.timed_s += secs;
                report.latencies_ms.push(secs * 1e3);
                costs.push(black_box(cost));
            }
            match &first {
                None => first = Some(costs),
                Some(f) if *f != costs => {
                    report.problem(format!("pass {passes} costs differ from pass 0"))
                }
                Some(_) => {}
            }
        }
        passes += 1;
    }
    let pool = amos_core::pool_stats();

    if let Some(costs) = first {
        for ((net, batch), cost) in combos.iter().zip(&costs) {
            let bound = network_bound(net, *batch, &accel);
            if !cycles_credible(cost.total_cycles, bound) {
                report.problem(format!(
                    "{} @ {batch}: total {} cycles below the layer bound sum {bound}",
                    net.name, cost.total_cycles
                ));
            }
        }
        // One combination, chosen by the seed, re-run on one thread.
        let pick = (seed % combos.len() as u64) as usize;
        let (net, batch) = &combos[pick];
        let serial = NetworkEvaluator::new()
            .with_depth(depth)
            .with_jobs(1)
            .evaluate(System::Amos, net, *batch, &accel);
        if serial != costs[pick] {
            report.problem(format!(
                "{} @ {batch}: jobs = 1 gives {serial:?}, the pass gave {:?}",
                net.name, costs[pick]
            ));
        }
        report.cycles = costs.iter().map(|c| c.total_cycles).collect();
    }

    if t.enabled() {
        let c = counts.into_inner().expect("no replay lane panics");
        report.problems.extend(c.problems);
        let summary = crate::trace::summarize(&t.spans());
        let l = &mut report.layers;
        l.extend([
            ("registry.busy_s", registry_s),
            ("generate.busy_s", summary.total_s("generate")),
            ("generate.mappings", c.mappings as f64),
            (
                "generate.validation_calls",
                (amos_core::validate::validation_calls() - validation_before) as f64,
            ),
            ("lower.busy_s", summary.total_s("lower")),
            ("lower.programs", c.programs as f64),
            ("explore.busy_s", summary.total_s("explore")),
            ("explore.generations", c.generations as f64),
            ("explore.measured", c.measured as f64),
            ("explore.sim_failures", c.sim_failures as f64),
            ("screen.candidates", c.screened as f64),
            ("screen.memo_hits", c.memo_hits as f64),
            ("screen.busy_s", c.screen_s),
            ("pool.waves", (pool.waves - pool_before.waves) as f64),
            ("pool.tasks", (pool.tasks - pool_before.tasks) as f64),
            ("pool.chunks", (pool.chunks - pool_before.chunks) as f64),
            ("cache.l1_hits", l1 as f64),
            ("cache.misses", misses as f64),
            ("cache.refine_hits", refine_hits as f64),
            ("cache.refine_misses", refine_misses as f64),
        ]);
        crate::derive_ratios(l);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_is_the_record_network_set() {
        let c = combos(Size::Full);
        assert_eq!(c.len(), 17);
        let shapes: HashSet<String> = c
            .iter()
            .flat_map(|(n, b)| distinct_shapes(n, *b).into_iter().map(|(fp, _)| fp))
            .collect();
        assert_eq!(shapes.len(), 120);
    }

    #[test]
    fn smoke_run_checks_out() {
        for traced in [false, true] {
            let t = Tracer::new(traced);
            let r = run(5, 0.0, &t, Size::Smoke);
            assert!(r.problems.is_empty(), "{:?}", r.problems);
            assert_eq!((r.attempted, r.failed), (2, 0));
            if traced {
                let s = crate::trace::summarize(&t.spans());
                assert!(s.coverage.iter().all(|&c| c >= 0.9), "{:?}", s.coverage);
                assert!(r.layers["explore.busy_s"] > 0.0);
            } else {
                assert_eq!(r.cycles.len(), 2);
            }
        }
    }
}
