//! `op-verify`: what `amos explore` does for one operator, winner verified.
//!
//! One operation is a cold `Engine`, then `parse_spec` → analyze → generate
//! → lower → explore → emit, and the winner run through the functional
//! simulator (`execute_mapped_with_stats`) on seeded inputs. The operators
//! are the §7.3 configurations of all fifteen families, scaled so every
//! domain passes the CLI's verification gate; the seed orders them and fills
//! their input tensors. Functional simulation is most of the time here; exploration runs
//! on narrow per-generation pool waves.
//!
//! Checks, after the timed section: every output equals the scalar
//! interpreter `amos_ir::interp::execute` on the unmapped operator; for GMM,
//! GMV and DEP a loop nest written here cross-checks the interpreter; every
//! round reproduces the first bit for bit; every cycle count is finite,
//! positive and at least the compute lower bound.

use crate::rng::Rng;
use crate::stats::{cycle_lower_bound, cycles_credible, macs};
use crate::trace::Tracer;
use crate::{Report, Size};
use amos_core::{Engine, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_ir::interp::{execute, make_inputs};
use amos_ir::{ComputeDef, TensorData};
use amos_workloads::ops;
use amos_workloads::spec::parse_spec;
use std::hint::black_box;
use std::time::Instant;

/// Fewest rounds a full run attempts: with over 50 distinct operators a
/// round, every run makes more than 100 operations.
const MIN_ROUNDS: usize = 2;

/// The CLI's functional-verification gate on `ComputeDef::domain_size()`.
const CLI_VERIFY_GATE: i64 = 1 << 22;

/// Largest domain of a dense family after scaling.
const DENSE_MACS: f64 = (1 << 19) as f64;

/// Largest domain of a padding-heavy family (DEP, GMV, MEN, VAR: a few
/// percent of their simulated lanes do real work) after scaling.
const PADDED_MACS: f64 = (1 << 15) as f64;

/// Accepted difference between a simulated and an interpreted output
/// element. Inputs are small integers, so exact agreement is expected.
pub const TOLERANCE: f64 = 1e-6;

/// The seed `amos explore` uses when none is given.
const EXPLORE_SEED: u64 = 2022;

/// One family of §7.3: its §7.3 configurations as constructor parameters,
/// the parameters scaling may halve, and whether it is padding-heavy.
struct Family {
    name: &'static str,
    configs: &'static [&'static [i64]],
    scalable: &'static [usize],
    padded: bool,
}

/// The fifteen families with the parameter tuples of
/// `amos_workloads::configs::operator_configs`.
const FAMILIES: [Family; 15] = [
    Family {
        name: "GMV",
        configs: &[
            &[768, 768],
            &[768, 3072],
            &[3072, 768],
            &[1024, 1024],
            &[4096, 1024],
            &[512, 2048],
            &[256, 256],
            &[1000, 512],
        ],
        scalable: &[0, 1],
        padded: true,
    },
    Family {
        name: "GMM",
        configs: &[
            &[128, 768, 768],
            &[128, 3072, 768],
            &[128, 768, 3072],
            &[512, 768, 768],
            &[64, 1024, 1024],
            &[256, 1024, 4096],
            &[1024, 1024, 1024],
            &[128, 64, 128],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "C1D",
        configs: &[
            &[64, 64, 256, 3],
            &[128, 128, 128, 3],
            &[64, 128, 512, 5],
            &[256, 256, 64, 3],
            &[32, 64, 1024, 3],
            &[128, 256, 256, 5],
            &[512, 512, 32, 3],
            &[96, 96, 300, 7],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "C2D",
        configs: &[
            &[3, 64, 112, 7, 2],
            &[64, 64, 56, 3, 1],
            &[64, 64, 56, 1, 1],
            &[64, 128, 28, 3, 2],
            &[64, 128, 28, 1, 2],
            &[128, 128, 28, 3, 1],
            &[128, 256, 14, 3, 2],
            &[128, 256, 14, 1, 2],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "C3D",
        configs: &[
            &[16, 32, 8, 28],
            &[32, 64, 8, 14],
            &[64, 64, 4, 14],
            &[64, 128, 4, 7],
            &[8, 16, 16, 56],
            &[128, 128, 2, 7],
            &[16, 16, 8, 14],
        ],
        scalable: &[0, 1, 2, 3],
        padded: false,
    },
    Family {
        name: "T2D",
        configs: &[
            &[64, 32, 14],
            &[128, 64, 7],
            &[32, 16, 28],
            &[256, 128, 7],
            &[64, 64, 14],
            &[16, 8, 56],
            &[512, 256, 4],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "GRP",
        configs: &[
            &[8, 30, 30, 28, 1],
            &[8, 60, 60, 14, 1],
            &[4, 34, 34, 28, 3],
            &[8, 120, 120, 7, 1],
            &[4, 68, 68, 14, 3],
            &[2, 58, 58, 28, 3],
            &[8, 12, 30, 56, 1],
        ],
        scalable: &[1, 2, 3],
        padded: false,
    },
    Family {
        name: "DIL",
        configs: &[
            &[64, 64, 56],
            &[128, 128, 28],
            &[256, 256, 14],
            &[512, 512, 7],
            &[64, 128, 28],
            &[128, 256, 14],
            &[32, 32, 56],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "DEP",
        configs: &[
            &[32, 112],
            &[64, 112],
            &[128, 56],
            &[256, 28],
            &[512, 14],
            &[1024, 7],
            &[96, 56],
            &[144, 28],
        ],
        scalable: &[0, 1],
        padded: true,
    },
    Family {
        name: "CAP",
        configs: &[
            &[8, 16, 6],
            &[16, 16, 6],
            &[8, 32, 4],
            &[16, 32, 4],
            &[4, 8, 12],
            &[32, 32, 2],
            &[8, 8, 8],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "BCV",
        configs: &[
            &[8, 16, 16, 28],
            &[8, 32, 32, 14],
            &[16, 16, 32, 14],
            &[8, 64, 64, 7],
            &[16, 32, 64, 7],
            &[4, 16, 16, 56],
            &[8, 8, 16, 28],
        ],
        scalable: &[0, 1, 2, 3],
        padded: false,
    },
    Family {
        name: "GFC",
        configs: &[
            &[4, 64, 64],
            &[8, 32, 64],
            &[16, 16, 64],
            &[4, 128, 128],
            &[8, 64, 128],
            &[2, 256, 256],
            &[16, 32, 32],
        ],
        scalable: &[0, 1, 2],
        padded: false,
    },
    Family {
        name: "MEN",
        configs: &[
            &[128, 768],
            &[512, 768],
            &[128, 1024],
            &[512, 1024],
            &[64, 512],
            &[256, 2048],
            &[1024, 768],
            &[32, 4096],
        ],
        scalable: &[0, 1],
        padded: true,
    },
    Family {
        name: "VAR",
        configs: &[
            &[128, 768],
            &[512, 768],
            &[128, 1024],
            &[512, 1024],
            &[64, 512],
            &[256, 2048],
            &[1024, 768],
            &[32, 4096],
        ],
        scalable: &[0, 1],
        padded: true,
    },
    Family {
        name: "SCN",
        configs: &[
            &[256, 256],
            &[512, 256],
            &[1024, 128],
            &[128, 512],
            &[2048, 64],
            &[64, 1024],
            &[512, 512],
            &[256, 128],
        ],
        scalable: &[0, 1],
        padded: false,
    },
];

/// One drawn operator: a family and its constructor parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Family name (Table 6).
    pub family: &'static str,
    /// Constructor parameters, in the order of [`FAMILIES`].
    pub params: Vec<i64>,
}

impl Operator {
    /// The operator in the CLI's spec grammar; `None` for DIL and CAP,
    /// which the grammar does not cover.
    pub fn spec(&self) -> Option<String> {
        let p = &self.params;
        Some(match self.family {
            "GMV" => format!("gmv:{}x{}", p[0], p[1]),
            "GMM" => format!("gmm:{}x{}x{}", p[0], p[1], p[2]),
            "C1D" => format!("c1d:n1,c{},k{},q{},s{},st1", p[0], p[1], p[2], p[3]),
            "C2D" => format!(
                "c2d:n1,c{},k{},p{},q{},r{},s{},st{}",
                p[0], p[1], p[2], p[2], p[3], p[3], p[4]
            ),
            "C3D" => format!("c3d:n1,c{},k{},d{},p{},q{}", p[0], p[1], p[2], p[3], p[3]),
            "T2D" => format!("t2d:n1,c{},k{},h{},w{},r3", p[0], p[1], p[2], p[2]),
            "GRP" => format!("grp:n1,g{},c{},k{},p{},r{}", p[0], p[1], p[2], p[3], p[4]),
            "DEP" => format!("dep:n1,c{},p{},r3", p[0], p[1]),
            "BCV" => format!("bcv:n{},c{},k{},p{},r3", p[0], p[1], p[2], p[3]),
            "GFC" => format!("gfc:b16,g{},k{},c{}", p[0], p[1], p[2]),
            "MEN" => format!("men:{}x{}", p[0], p[1]),
            "VAR" => format!("var:{}x{}", p[0], p[1]),
            "SCN" => format!("scn:{}x{}", p[0], p[1]),
            _ => return None,
        })
    }

    /// The operator built directly by its `amos_workloads::ops`
    /// constructor, without the spec grammar.
    pub fn build(&self) -> ComputeDef {
        let p = &self.params;
        match self.family {
            "GMV" => ops::gmv(p[0], p[1]),
            "GMM" => ops::gmm(p[0], p[1], p[2]),
            "C1D" => ops::c1d(1, p[0], p[1], p[2], p[3], 1),
            "C2D" => ops::c2d(ops::ConvShape {
                n: 1,
                c: p[0],
                k: p[1],
                p: p[2],
                q: p[2],
                r: p[3],
                s: p[3],
                stride: p[4],
            }),
            "C3D" => ops::c3d(1, p[0], p[1], p[2], p[3], p[3], 3, 3, 3),
            "T2D" => ops::t2d(1, p[0], p[1], p[2], p[2], 3, 3),
            "GRP" => ops::grp(1, p[0], p[1], p[2], p[3], p[3], p[4], p[4]),
            "DIL" => ops::dil(1, p[0], p[1], p[2], p[2], 3, 3),
            "DEP" => ops::dep(1, p[0], p[1], p[1], 3, 3),
            "CAP" => ops::cap(1, p[0], p[1], p[2], p[2], 3, 3, 4),
            "BCV" => ops::bcv(p[0], p[1], p[2], p[3], p[3], 3, 3),
            "GFC" => ops::gfc(16, p[0], p[1], p[2]),
            "MEN" => ops::men(p[0], p[1]),
            "VAR" => ops::var(p[0], p[1]),
            "SCN" => ops::scn(p[0], p[1]),
            other => unreachable!("unknown family {other}"),
        }
    }
}

/// Halves the largest scalable parameter above 2 until the operator's
/// domain is at most `target`.
fn scale(family: &Family, config: &[i64], target: f64) -> Operator {
    let mut op = Operator {
        family: family.name,
        params: config.to_vec(),
    };
    while macs(&op.build()) > target {
        let Some(&i) = family
            .scalable
            .iter()
            .filter(|&&i| op.params[i] > 2)
            .max_by_key(|&&i| (op.params[i], std::cmp::Reverse(i)))
        else {
            break;
        };
        op.params[i] /= 2;
    }
    op
}

/// The operators of a run: every §7.3 configuration of every family (the
/// first of each in a smoke run), scaled, duplicates after scaling dropped,
/// in an order drawn from the seed.
pub fn draw(seed: u64, size: Size) -> Vec<Operator> {
    let mut out: Vec<Operator> = Vec::new();
    for family in &FAMILIES {
        let (configs, shrink) = match size {
            Size::Full => (family.configs, 1.0),
            Size::Smoke => (&family.configs[..1], 1.0 / 64.0),
        };
        let target = if family.padded {
            PADDED_MACS
        } else {
            DENSE_MACS
        } * shrink;
        for config in configs {
            let op = scale(family, config, target);
            if !out.contains(&op) {
                out.push(op);
            }
        }
    }
    Rng::new(seed, 0x0b5e).shuffle(&mut out);
    out
}

/// What one operation produced.
struct Outcome {
    cycles: f64,
    output: TensorData,
    lanes: u64,
    active_lanes: u64,
    mappings: usize,
    programs: usize,
    generations: usize,
    measured: usize,
    sim_failures: usize,
    screened: usize,
    memo_hits: usize,
    screen_s: f64,
    refine_hits: usize,
    refine_misses: usize,
}

impl Outcome {
    /// Adds this operation's counters to the per-layer metrics.
    fn count(&self, l: &mut std::collections::BTreeMap<&'static str, f64>) {
        for (name, v) in [
            ("verify.lanes", self.lanes as f64),
            ("verify.active_lanes", self.active_lanes as f64),
            ("generate.mappings", self.mappings as f64),
            ("lower.programs", self.programs as f64),
            ("explore.generations", self.generations as f64),
            ("explore.measured", self.measured as f64),
            ("explore.sim_failures", self.sim_failures as f64),
            ("screen.candidates", self.screened as f64),
            ("screen.memo_hits", self.memo_hits as f64),
            ("screen.busy_s", self.screen_s),
            ("cache.misses", 1.0),
            ("cache.refine_hits", self.refine_hits as f64),
            ("cache.refine_misses", self.refine_misses as f64),
        ] {
            *l.entry(name).or_default() += v;
        }
    }
}

/// The configuration `amos explore` runs with its default flags.
fn explore_config() -> ExplorerConfig {
    ExplorerConfig {
        seed: EXPLORE_SEED,
        ..ExplorerConfig::default()
    }
}

/// One operation: a cold engine compiles and verifies `op`.
fn operation(t: &Tracer, op_id: u64, op: &Operator, data_seed: u64) -> Result<Outcome, String> {
    t.root(op_id, "op", |ctx| {
        let (engine, accel) = t.child(ctx, "registry", |_| {
            let engine = Engine::with_config(explore_config());
            let accel = engine.accelerator("v100");
            (engine, accel)
        });
        let accel = accel.map_err(|e| e.to_string())?;
        let def = match op.spec() {
            Some(spec) => t.child(ctx, "spec", |_| parse_spec(&spec))?,
            None => t.child(ctx, "build", |_| op.build()),
        };
        let set = t.child(ctx, "generate", |_| {
            engine.generate(engine.analyze(&def, &accel))
        });
        let set = set.map_err(|e| e.to_string())?;
        let mappings = set.total_mappings();
        let lowered = t
            .child(ctx, "lower", |_| engine.lower(set))
            .map_err(|e| e.to_string())?;
        let programs = lowered.total_programs();
        let explored = t
            .child(ctx, "explore", |_| engine.explore(lowered))
            .map_err(|e| e.to_string())?;
        let artifact = t.child(ctx, "emit", |_| engine.emit(&explored));
        black_box(&artifact);
        let tensors = t.child(ctx, "inputs", |_| make_inputs(&def, data_seed));
        let result = explored.result();
        let (output, stats) = t
            .child(ctx, "verify", |_| {
                amos_sim::execute_mapped_with_stats(&result.best_program, &tensors)
            })
            .map_err(|e| e.to_string())?;
        Ok(Outcome {
            cycles: explored.cycles(),
            output,
            lanes: stats.total_lanes,
            active_lanes: stats.active_lanes,
            mappings,
            programs,
            generations: result.generations_completed,
            measured: result.evaluations.len(),
            sim_failures: result.sim_failures,
            screened: result.screening.screened,
            memo_hits: result.screening.survivor_memo_hits + result.screening.measured_memo_hits,
            screen_s: result.screening.screen_seconds,
            refine_hits: engine.refine_hits(),
            refine_misses: engine.refine_misses(),
        })
    })
}

/// FNV-1a over the bit patterns of a tensor's elements.
fn fingerprint(t: &TensorData) -> u64 {
    t.data.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Independent loop nests for GMM, GMV and DEP over the same inputs.
fn hand_reference(op: &Operator, tensors: &[TensorData]) -> Option<Vec<f64>> {
    let p = &op.params;
    match op.family {
        "GMM" => {
            let (m, n, k) = (p[0] as usize, p[1] as usize, p[2] as usize);
            let (a, b) = (&tensors[0].data, &tensors[1].data);
            let mut out = vec![0.0; m * n];
            for i in 0..m {
                for kk in 0..k {
                    for j in 0..n {
                        out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                    }
                }
            }
            Some(out)
        }
        "GMV" => {
            let (m, k) = (p[0] as usize, p[1] as usize);
            let (a, x) = (&tensors[0].data, &tensors[1].data);
            Some(
                (0..m)
                    .map(|i| (0..k).map(|kk| a[i * k + kk] * x[kk]).sum())
                    .collect(),
            )
        }
        "DEP" => {
            let (c, pp) = (p[0] as usize, p[1] as usize);
            let h = pp + 2;
            let (img, wt) = (&tensors[0].data, &tensors[1].data);
            let mut out = vec![0.0; c * pp * pp];
            for ch in 0..c {
                for y in 0..pp {
                    for x in 0..pp {
                        let mut acc = 0.0;
                        for r in 0..3 {
                            for s in 0..3 {
                                acc += img[(ch * h + y + r) * h + x + s] * wt[(ch * 3 + r) * 3 + s];
                            }
                        }
                        out[(ch * pp + y) * pp + x] = acc;
                    }
                }
            }
            Some(out)
        }
        _ => None,
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    // A NaN anywhere makes the whole difference NaN, which fails the check.
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m: f64, d| {
            if m.is_nan() || d.is_nan() {
                f64::NAN
            } else {
                m.max(d)
            }
        })
}

/// Checks the first round's outputs against the interpreter (and the hand
/// loop nests) and every cycle count against the lower bound.
fn check(
    report: &mut Report,
    ops: &[Operator],
    first: &[Outcome],
    data_seed: impl Fn(usize) -> u64,
    accel: &AcceleratorSpec,
) {
    for (i, (op, out)) in ops.iter().zip(first).enumerate() {
        let name = op
            .spec()
            .unwrap_or_else(|| format!("{} {:?}", op.family, op.params));
        let def = op.build();
        let tensors = make_inputs(&def, data_seed(i));
        let reference = match execute(&def, &tensors) {
            Ok(r) => r,
            Err(e) => {
                report.problem(format!("{name}: interpreter failed: {e}"));
                continue;
            }
        };
        if reference.shape != out.output.shape {
            report.problem(format!(
                "{name}: output shape {:?} != {:?}",
                out.output.shape, reference.shape
            ));
            continue;
        }
        let diff = max_abs_diff(&out.output.data, &reference.data);
        if diff.is_nan() || diff > TOLERANCE {
            report.problem(format!(
                "{name}: simulated output differs from the interpreter by {diff}"
            ));
        }
        if let Some(hand) = hand_reference(op, &tensors) {
            let diff = max_abs_diff(&hand, &reference.data);
            if hand.len() != reference.data.len() || diff.is_nan() || diff > TOLERANCE {
                report.problem(format!(
                    "{name}: interpreter differs from the hand loop nest by {diff}"
                ));
            }
        }
        let bound = cycle_lower_bound(&def, accel);
        if !cycles_credible(out.cycles, bound) {
            report.problem(format!(
                "{name}: {} cycles is below the bound {bound}",
                out.cycles
            ));
        }
        if def.domain_size() > CLI_VERIFY_GATE {
            report.problem(format!("{name}: domain above the CLI's verification gate"));
        }
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, t: &Tracer, size: Size) -> Report {
    let ops = draw(seed, size);
    let data_seed = |i: usize| seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
    let min_rounds = if size == Size::Full { MIN_ROUNDS } else { 1 };
    let mut report = Report {
        min_ops: min_rounds * ops.len(),
        ..Report::default()
    };
    // Set-up, before the first timed operation: a cold engine with its
    // registry, as each operation builds.
    report.setup_s = (0..crate::SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let engine = black_box(Engine::with_config(explore_config()));
            black_box(engine.accelerator("v100").is_ok());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let validation_before = amos_core::validate::validation_calls();
    let pool_before = amos_core::pool_stats();
    let mut first: Vec<Outcome> = Vec::new();
    let mut prints: Vec<(u64, u64)> = Vec::new();
    let mut rounds = 0;
    let mut op_id = 0;
    while rounds < min_rounds || report.timed_s < seconds {
        for (i, op) in ops.iter().enumerate() {
            op_id += 1;
            report.attempted += 1;
            let start = Instant::now();
            let outcome = operation(t, op_id, op, data_seed(i));
            let secs = start.elapsed().as_secs_f64();
            report.timed_s += secs;
            match outcome {
                Ok(o) => {
                    report.latencies_ms.push(secs * 1e3);
                    o.count(&mut report.layers);
                    if rounds == 0 {
                        prints.push((o.cycles.to_bits(), fingerprint(&o.output)));
                        first.push(o);
                    } else if prints[i] != (o.cycles.to_bits(), fingerprint(&o.output)) {
                        report.problem(format!(
                            "{:?}: round {rounds} differs from round 0",
                            op.spec()
                        ));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("{:?}: {e}", op.spec()));
                }
            }
        }
        rounds += 1;
    }
    let pool = amos_core::pool_stats();
    let l = &mut report.layers;
    l.insert(
        "generate.validation_calls",
        (amos_core::validate::validation_calls() - validation_before) as f64,
    );
    l.insert("pool.waves", (pool.waves - pool_before.waves) as f64);
    l.insert("pool.tasks", (pool.tasks - pool_before.tasks) as f64);
    l.insert("pool.chunks", (pool.chunks - pool_before.chunks) as f64);

    let accel = amos_hw::Registry::builtin()
        .build("v100")
        .expect("v100 is a builtin");
    if first.len() == ops.len() {
        report.cycles = first.iter().map(|o| o.cycles).collect();
        check(&mut report, &ops, &first, data_seed, &accel);
    }
    finish_layers(&mut report, t);
    report
}

/// Fills the span-derived layer metrics of a traced run.
fn finish_layers(report: &mut Report, t: &Tracer) {
    if !t.enabled() {
        return;
    }
    let summary = crate::trace::summarize(&t.spans());
    let l = &mut report.layers;
    for (metric, span) in [
        ("registry.busy_s", "registry"),
        ("spec.busy_s", "spec"),
        ("generate.busy_s", "generate"),
        ("lower.busy_s", "lower"),
        ("explore.busy_s", "explore"),
        ("emit.busy_s", "emit"),
        ("verify.busy_s", "verify"),
    ] {
        l.insert(metric, summary.total_s(span));
    }
    l.insert("spec.calls", summary.calls("spec") as f64);
    crate::derive_ratios(l);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_round_trip_through_parse_spec() {
        for size in [Size::Full, Size::Smoke] {
            let ops = draw(7, size);
            let families: std::collections::BTreeSet<_> = ops.iter().map(|o| o.family).collect();
            assert_eq!(families.len(), 15, "every family is drawn");
            for op in &ops {
                let built = op.build();
                assert!(built.domain_size() <= CLI_VERIFY_GATE, "{op:?}");
                match op.spec() {
                    Some(spec) => assert_eq!(parse_spec(&spec), Ok(built), "{spec}"),
                    None => assert!(["DIL", "CAP"].contains(&op.family), "{op:?}"),
                }
            }
        }
    }

    #[test]
    fn the_seed_orders_the_operators_only() {
        let (mut a, mut b) = (draw(1, Size::Full), draw(2, Size::Full));
        assert_eq!(a, draw(1, Size::Full), "one seed, one draw");
        assert_ne!(a, b);
        let key = |o: &Operator| (o.family, o.params.clone());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        assert!(a.len() >= 50, "{} distinct operators", a.len());
    }

    #[test]
    fn smoke_run_checks_out() {
        for traced in [false, true] {
            let t = Tracer::new(traced);
            let r = run(3, 0.0, &t, Size::Smoke);
            assert!(r.problems.is_empty(), "{:?}", r.problems);
            assert_eq!((r.attempted, r.failed), (15, 0));
            assert_eq!(r.cycles.len(), 15);
            if traced {
                let s = crate::trace::summarize(&t.spans());
                assert!(s.coverage.iter().all(|&c| c >= 0.9), "{:?}", s.coverage);
                assert!(r.layers["verify.lanes"] > 0.0);
            }
        }
    }
}
