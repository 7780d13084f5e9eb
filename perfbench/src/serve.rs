//! `serve-mixed`: an in-process `amosd` under a closed loop of two clients.
//!
//! The server is `Server::bind` + `run` on a thread with the default
//! workers and queue, a Unix socket and an L2 cache directory. Each client
//! sends one request with `client::request_once` and waits for its reply
//! before the next, as `amos submit` callers do, and never retries. One
//! operation is one request. A round runs five phases on a fresh cache
//! directory:
//!
//! 1. each of [`COLD_SHAPES`] distinct cold specs sent by both clients at
//!    once: one exploration plus one dedup join each, and L2 writes;
//! 2. [`L1_REPEATS`] L1 repeats per client;
//! 3. the hostile specs of [`HOSTILE`];
//! 4. a restart: drain, then bind a new server on the same directory;
//! 5. an L2 replay of the cold specs, then L1 repeats again.
//!
//! The timed section is phases 1–3 and 5. The restart is reported on its
//! own: `serve.restart_s` runs from the drain request until the old
//! server's `run` returned. The old server finishes its drain while later
//! rounds run and is joined at the end of the run. The seed orders the cold
//! specs and draws which spec each repeat asks for; the specs themselves are
//! fixed, so the mappings found (and `sim_cycles_geomean`) do not depend on
//! the seed.
//!
//! Checks, between rounds and at the end, never inside a timed phase: every
//! cold reply's `cycles_bits` equals an in-process `Engine` answer with the
//! server's configuration; joins, L2 replays and repeats repeat their
//! round's cold reply (lines byte for byte, repeats by cycle bits); cycles
//! are finite, positive and at least the compute lower bound; and
//! `ServerStats` moves by exactly what each phase sent.

use crate::rng::Rng;
use crate::stats::{cycle_lower_bound, cycles_credible, median};
use crate::trace::Tracer;
use crate::{Report, Size};
use amos_core::{Engine, ExplorerConfig};
use amos_hw::AcceleratorSpec;
use amos_serve::{client, ExploreRequest, Request, Response, ServeConfig, Server, ServerStats};
use amos_workloads::spec::parse_spec;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

/// Extents of the cold GMM specs.
pub const COLD_SHAPES: [[i64; 3]; 8] = [
    [64, 128, 256],
    [128, 128, 512],
    [32, 256, 256],
    [64, 64, 1024],
    [96, 192, 384],
    [48, 256, 512],
    [128, 256, 320],
    [80, 160, 640],
];

/// L1 repeats per client in each of the two repeat phases. A round is then
/// 988 requests: under 1,000, so its tail is the 90th percentile.
const L1_REPEATS: usize = 240;

/// Hostile specs: the first three hit F1 (zero or negative extents panic
/// the connection handler), the last hits F2 (an overflowing shape is
/// answered `ok` below the compute lower bound).
pub const HOSTILE: [&str; 4] = [
    "gmm:0x4x4",
    "gmm:-5x4x4",
    "dep:c0,p28,r3",
    "gmm:4000000000x4000000000x4000000000",
];

/// What kind of request an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The slower of a cold pair: both wait for one flight, and the request
    /// that opened it waits longest.
    Cold,
    /// The faster of a cold pair: the request that joined the flight.
    Join,
    /// A repeat answered from the in-memory cache.
    L1,
    /// One of [`HOSTILE`].
    Hostile,
    /// A cold spec replayed after the restart, answered from disk.
    L2,
}

/// One request: its kind, spec, latency and raw reply (or socket error).
#[derive(Debug, Clone)]
struct Sent<'a> {
    kind: Kind,
    spec: &'a str,
    ms: f64,
    raw: Result<String, String>,
}

/// The cold specs of a run, in an order drawn from the seed.
pub fn cold_specs(seed: u64, size: Size) -> Vec<String> {
    let n = if size == Size::Full {
        COLD_SHAPES.len()
    } else {
        2
    };
    let mut specs: Vec<String> = COLD_SHAPES[..n]
        .iter()
        .map(|d| format!("gmm:{}x{}x{}", d[0], d[1], d[2]))
        .collect();
    Rng::new(seed, 0x5e7e).shuffle(&mut specs);
    specs
}

fn explore_line(spec: &str) -> String {
    Request::Explore(ExploreRequest {
        spec: spec.to_string(),
        accel: None,
        seed: None,
        deadline_ms: None,
        max_evaluations: None,
        max_measurements: None,
    })
    .encode()
}

/// One timed request.
fn send<'a>(t: &Tracer, op_id: u64, socket: &Path, kind: Kind, spec: &'a str) -> Sent<'a> {
    let line = explore_line(spec);
    let start = Instant::now();
    let reply = t.root(op_id, "op", |ctx| {
        t.child(ctx, "request", |_| client::request_once(socket, &line))
    });
    Sent {
        kind,
        spec,
        ms: start.elapsed().as_secs_f64() * 1e3,
        raw: reply.map_err(|e| e.to_string()),
    }
}

fn stats(socket: &Path) -> Result<ServerStats, String> {
    let raw = client::request_once(socket, &Request::Stats.encode()).map_err(|e| e.to_string())?;
    match Response::decode(&raw) {
        Ok(Response::Stats(s)) => Ok(s),
        other => Err(format!("unexpected stats reply {other:?}")),
    }
}

/// A running server and the thread its accept loop runs on; the thread
/// returns when `run` returned.
struct Running {
    socket: PathBuf,
    thread: JoinHandle<Result<Instant, String>>,
}

fn config(socket: &Path, cache_dir: &Path) -> ServeConfig {
    ServeConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::new(socket)
    }
}

/// Binds a server on `socket` over `cache_dir` and runs it on a thread.
/// Returns it with the seconds `Server::bind` took.
fn start(socket: &Path, cache_dir: &Path) -> Result<(Running, f64), String> {
    let begin = Instant::now();
    let server = Server::bind(config(socket, cache_dir))?;
    let bind_s = begin.elapsed().as_secs_f64();
    let thread = std::thread::spawn(move || server.run().map(|()| Instant::now()));
    Ok((
        Running {
            socket: socket.to_path_buf(),
            thread,
        },
        bind_s,
    ))
}

/// Asks the server to drain; returns when the request was sent.
fn drain(server: &Running) -> Result<Instant, String> {
    let sent = Instant::now();
    let raw = client::request_once(&server.socket, &Request::Drain.encode())
        .map_err(|e| format!("drain: {e}"))?;
    if Response::decode(&raw) != Ok(Response::Drained) {
        return Err(format!("drain answered `{raw}`"));
    }
    Ok(sent)
}

/// Waits for a drained server's accept loop to return; returns when it did.
fn join(server: Running) -> Result<Instant, String> {
    server
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_string())?
}

/// Where a run's servers live, and the restarted-away servers still
/// draining: a restart binds the new server at once and the old one is
/// joined at the end of the run, so its drain does not idle the run.
struct Servers<'a> {
    out_dir: &'a Path,
    tag: String,
    bound: u64,
    draining: Vec<(Running, Instant)>,
}

impl Servers<'_> {
    fn start(&mut self, cache_dir: &Path) -> Result<(Running, f64), String> {
        self.bound += 1;
        start(
            &self
                .out_dir
                .join(format!("{}-{}.sock", self.tag, self.bound)),
            cache_dir,
        )
    }
}

/// The next operation id.
fn bump(op_id: &mut u64) -> u64 {
    *op_id += 1;
    *op_id
}

/// Counters one round checks, gathered at phase ends.
#[derive(Debug, Default)]
struct PhaseStats {
    after_cold: ServerStats,
    after_l1: ServerStats,
    after_hostile: ServerStats,
    after_l2: ServerStats,
    after_restart_l1: ServerStats,
}

/// One round. Returns the operations, the timed seconds, the bind and
/// restart seconds and the counters at each phase end.
fn round<'a>(
    t: &Tracer,
    op_id: &mut u64,
    servers: &mut Servers,
    cache_dir: &Path,
    cold: &'a [String],
    repeats: usize,
    rng: &mut Rng,
) -> Result<(Vec<Sent<'a>>, f64, f64, PhaseStats), String> {
    let (server, bind_s) = servers.start(cache_dir)?;
    let socket = server.socket.clone();
    let socket = socket.as_path();
    let mut ops = Vec::new();
    let mut timed = 0.0;
    let mut st = PhaseStats::default();

    // Phase 1: each cold spec from both clients at once.
    let begin = Instant::now();
    for spec in cold {
        let barrier = Barrier::new(2);
        let ids = [bump(op_id), bump(op_id)];
        let pair: Vec<Sent> = std::thread::scope(|s| {
            let handles: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        send(t, id, socket, Kind::Cold, spec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let (mut a, mut b) = (pair[0].clone(), pair[1].clone());
        if a.ms < b.ms {
            std::mem::swap(&mut a, &mut b);
        }
        b.kind = Kind::Join;
        ops.push(a);
        ops.push(b);
    }
    timed += begin.elapsed().as_secs_f64();
    st.after_cold = stats(socket)?;

    // Phase 2 and the second half of phase 5: closed-loop L1 repeats.
    let repeat_phase = |ops: &mut Vec<Sent<'a>>, rng: &mut Rng, op_id: &mut u64, socket: &Path| {
        let plans: Vec<Vec<(u64, &String)>> = (0..2)
            .map(|_| {
                (0..repeats)
                    .map(|_| (bump(op_id), &cold[rng.below(cold.len())]))
                    .collect()
            })
            .collect();
        let begin = Instant::now();
        let done: Vec<Vec<Sent>> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .iter()
                .map(|plan| {
                    s.spawn(move || {
                        plan.iter()
                            .map(|&(id, spec)| send(t, id, socket, Kind::L1, spec))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        ops.extend(done.into_iter().flatten());
        begin.elapsed().as_secs_f64()
    };
    timed += repeat_phase(&mut ops, rng, op_id, socket);
    st.after_l1 = stats(socket)?;

    // Phase 3: hostile specs, one client.
    let begin = Instant::now();
    for spec in HOSTILE {
        let id = bump(op_id);
        ops.push(send(t, id, socket, Kind::Hostile, spec));
    }
    timed += begin.elapsed().as_secs_f64();
    st.after_hostile = stats(socket)?;

    // Phase 4: restart on the same cache directory.
    let drained = drain(&server)?;
    servers.draining.push((server, drained));
    let (server, _) = servers.start(cache_dir)?;
    let socket = server.socket.clone();
    let socket = socket.as_path();

    // Phase 5: L2 replay, the clients splitting the cold specs, then L1.
    let begin = Instant::now();
    let ids: Vec<u64> = cold.iter().map(|_| bump(op_id)).collect();
    let replayed: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let ids = &ids;
                s.spawn(move || {
                    (c..cold.len())
                        .step_by(2)
                        .map(|i| send(t, ids[i], socket, Kind::L2, &cold[i]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    ops.extend(replayed);
    timed += begin.elapsed().as_secs_f64();
    st.after_l2 = stats(socket)?;
    timed += repeat_phase(&mut ops, rng, op_id, socket);
    st.after_restart_l1 = stats(socket)?;
    drain(&server)?;
    join(server)?;
    Ok((ops, timed, bind_s, st))
}

/// Checks the counters of one round against what its phases sent.
fn check_stats(
    report: &mut Report,
    st: &PhaseStats,
    cold: usize,
    repeats: usize,
    hostile_refused: u64,
) {
    let c = cold as u64;
    let l1 = 2 * repeats as u64;
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            report.problem(format!("ServerStats {what}: {got}, expected {want}"));
        }
    };
    let a = &st.after_cold;
    expect("cold misses after the cold phase", a.cold_misses, c);
    expect(
        "joins plus L1 hits after the cold phase",
        a.dedup_joined + a.l1_hits,
        c,
    );
    // A repeat meets either the L1 entry or, when the other client asks for
    // the same spec at that moment, the other's flight: exactly one of the
    // two counters moves.
    let answered = |s: &ServerStats| s.l1_hits + s.dedup_joined;
    expect(
        "L1 hits plus joins of the repeat phase",
        answered(&st.after_l1) - answered(a),
        l1,
    );
    expect(
        "cold misses after the repeat phase",
        st.after_l1.cold_misses,
        c,
    );
    let h = &st.after_hostile;
    expect(
        "typed errors of the hostile phase",
        h.errors,
        hostile_refused,
    );
    for s in [a, &st.after_l1, h, &st.after_l2, &st.after_restart_l1] {
        expect("shed", s.shed, 0);
        expect("timeouts", s.timeouts, 0);
    }
    expect("L2 hits after the restart", st.after_l2.l2_hits, c);
    expect("cold misses after the restart", st.after_l2.cold_misses, 0);
    expect(
        "L1 hits plus joins after the restart",
        answered(&st.after_restart_l1) - answered(&st.after_l2),
        l1,
    );
}

/// What the checks keep of a run: latencies by kind and each cold spec's
/// reply line, so memory does not grow with the raw replies.
#[derive(Debug, Default)]
struct Tally<'a> {
    cold_ms: Vec<f64>,
    join_ms: Vec<f64>,
    l1_ms: Vec<f64>,
    l2_ms: Vec<f64>,
    cold_lines: HashMap<&'a str, String>,
    bounds: HashMap<&'a str, f64>,
    hostile_refused: u64,
    generations: u64,
    measured: u64,
    mappings: u64,
    spec_s: f64,
    spec_calls: u64,
}

/// The compute lower bound of a spec; `None` when it does not parse (or
/// panics, as the F1 specs do).
fn spec_bound(spec: &str, accel: &AcceleratorSpec) -> Option<f64> {
    std::panic::catch_unwind(|| parse_spec(spec))
        .ok()?
        .ok()
        .map(|def| cycle_lower_bound(&def, accel))
}

impl<'a> Tally<'a> {
    /// Checks one round's replies between rounds (outside every timed
    /// phase): joins and L2 replays repeat the round's cold line byte for
    /// byte, repeats its cycle bits, every answer is credible.
    fn absorb(
        &mut self,
        t: &Tracer,
        sent: Vec<Sent<'a>>,
        accel: &AcceleratorSpec,
        report: &mut Report,
    ) {
        let mut round_lines: HashMap<&str, &str> = HashMap::new();
        for s in &sent {
            if let (Kind::Cold, Ok(raw)) = (s.kind, &s.raw) {
                round_lines.entry(s.spec).or_insert(raw);
            }
        }
        let round_bits: HashMap<&str, Option<u64>> = round_lines
            .iter()
            .map(|(spec, raw)| match Response::decode(raw) {
                Ok(Response::Ok(r)) => (*spec, Some(r.cycles_bits)),
                _ => (*spec, None),
            })
            .collect();
        for s in &sent {
            report.attempted += 1;
            if t.enabled() {
                // The spec layer, timed from outside on each request's spec:
                // the parse the request costs the server.
                let begin = Instant::now();
                let _ = std::hint::black_box(std::panic::catch_unwind(|| parse_spec(s.spec)));
                self.spec_s += begin.elapsed().as_secs_f64();
                self.spec_calls += 1;
            }
            let bound = *self
                .bounds
                .entry(s.spec)
                .or_insert_with(|| spec_bound(s.spec, accel).unwrap_or(f64::INFINITY));
            let decoded = s.raw.as_ref().map(|raw| (raw, Response::decode(raw)));
            let ok = match (s.kind, &decoded) {
                (Kind::Hostile, Ok((_, Ok(Response::Error { .. })))) => {
                    self.hostile_refused += 1;
                    true
                }
                (Kind::Hostile, Ok((_, Ok(Response::Ok(r))))) => cycles_credible(r.cycles, bound),
                (Kind::Hostile, _) => false,
                (kind, Ok((raw, Ok(Response::Ok(r))))) => {
                    if !cycles_credible(r.cycles, bound) {
                        report.problem(format!(
                            "{}: {} cycles is below the bound {bound}",
                            s.spec, r.cycles
                        ));
                    }
                    let same_line = round_lines.get(s.spec) == Some(&raw.as_str());
                    match kind {
                        Kind::Cold => {
                            let first = self
                                .cold_lines
                                .entry(s.spec)
                                .or_insert_with(|| raw.to_string());
                            if first != *raw {
                                report.problem(format!(
                                    "{}: cold replies differ between rounds",
                                    s.spec
                                ));
                            }
                            self.generations += r.generations;
                            self.measured += r.evaluations;
                            self.mappings += r.mappings;
                        }
                        Kind::Join if !same_line => {
                            report.problem(format!(
                                "{}: joiner's reply differs from its owner's",
                                s.spec
                            ));
                        }
                        Kind::L2 if !same_line => {
                            report.problem(format!(
                                "{}: L2 reply differs from the cold reply",
                                s.spec
                            ));
                        }
                        Kind::L1 if round_bits.get(s.spec) != Some(&Some(r.cycles_bits)) => {
                            report
                                .problem(format!("{}: repeat differs from the cold reply", s.spec));
                        }
                        _ => {}
                    }
                    true
                }
                (_, other) => {
                    report.problem(format!("{}: no answer: {other:?}", s.spec));
                    false
                }
            };
            if !ok {
                report.failed += 1;
                continue;
            }
            report.latencies_ms.push(s.ms);
            match s.kind {
                Kind::Cold => self.cold_ms.push(s.ms),
                Kind::Join => self.join_ms.push(s.ms),
                Kind::L1 => self.l1_ms.push(s.ms),
                Kind::L2 => self.l2_ms.push(s.ms),
                Kind::Hostile => {}
            }
        }
    }
}

/// Runs the workload.
pub fn run(
    seed: u64,
    seconds: f64,
    t: &Tracer,
    size: Size,
    out_dir: &Path,
) -> Result<Report, String> {
    let cold = cold_specs(seed, size);
    let repeats = if size == Size::Full { L1_REPEATS } else { 30 };
    let tag = format!("serve-{}-{}", std::process::id(), seed);
    let mut report = Report {
        min_ops: 2 * cold.len() + 4 * repeats + HOSTILE.len() + cold.len(),
        ..Report::default()
    };

    // Set-up: build the engine and bind, then close, before any request.
    let socket = out_dir.join(format!("{tag}-setup.sock"));
    let setup_dir = out_dir.join(format!("{tag}-setup"));
    for _ in 0..crate::SETUP_SAMPLES {
        let begin = Instant::now();
        let server = Server::bind(config(&socket, &setup_dir))?;
        report.setup_s.push(begin.elapsed().as_secs_f64());
        drop(server);
        let _ = std::fs::remove_file(&socket);
    }
    let _ = std::fs::remove_dir_all(&setup_dir);

    let pool_before = amos_core::pool_stats();
    let mut rng = Rng::new(seed, 0x1e1);
    let mut servers = Servers {
        out_dir,
        tag: tag.clone(),
        bound: 0,
        draining: Vec::new(),
    };
    let served = ServeConfig::new(&socket);
    let accel = amos_hw::Registry::builtin()
        .build(&served.default_accel)
        .ok_or("the server's default accelerator is not a builtin")?;
    let mut tally = Tally::default();
    let mut binds = Vec::new();
    let mut phase_stats = Vec::new();
    let mut cache_dirs = Vec::new();
    let mut op_id = 0;
    let begin = Instant::now();
    let mut outcome = loop {
        let cache_dir = out_dir.join(format!("{tag}-r{}", cache_dirs.len()));
        cache_dirs.push(cache_dir.clone());
        match round(
            t,
            &mut op_id,
            &mut servers,
            &cache_dir,
            &cold,
            repeats,
            &mut rng,
        ) {
            Ok((ops, timed, bind_s, st)) => {
                tally.absorb(t, ops, &accel, &mut report);
                report.timed_s += timed;
                binds.push(bind_s);
                phase_stats.push(st);
            }
            Err(e) => break Err(e),
        }
        if begin.elapsed().as_secs_f64() >= seconds {
            break Ok(());
        }
    };
    let pool = amos_core::pool_stats();
    // The restarted-away servers finish their drains.
    let mut restarts = Vec::new();
    for (server, drained) in servers.draining {
        match join(server) {
            Ok(stopped) => restarts.push((stopped - drained).as_secs_f64()),
            Err(e) => outcome = Err(e),
        }
    }
    for dir in &cache_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    if let Err(e) = outcome {
        report.problem(format!("serve round failed: {e}"));
    }

    // Reference answers: an in-process engine with the server's
    // configuration.
    let engine = Engine::with_config(ExplorerConfig {
        seed: served.seed,
        ..served.base.clone()
    });
    let mut reference = Vec::new();
    for spec in &cold {
        let def = parse_spec(spec)?;
        let r = engine.explore_op(&def, &accel).map_err(|e| e.to_string())?;
        reference.push(r.cycles());
        let served = tally
            .cold_lines
            .get(spec.as_str())
            .map(|raw| Response::decode(raw));
        match served {
            Some(Ok(Response::Ok(reply))) if reply.cycles_bits == r.cycles().to_bits() => {}
            other => report.problem(format!(
                "{spec}: served {other:?}, in-process {} cycles",
                r.cycles()
            )),
        }
    }
    for st in &phase_stats {
        let refused = tally.hostile_refused / phase_stats.len() as u64;
        check_stats(&mut report, st, cold.len(), repeats, refused);
    }
    report.cycles = reference;
    let l = &mut report.layers;
    l.extend([
        ("serve.bind_s", median(&binds)),
        ("serve.restart_s", median(&restarts)),
        ("serve.cold_p50_ms", median(&tally.cold_ms)),
        ("serve.join_p50_ms", median(&tally.join_ms)),
        ("serve.l2_p50_ms", median(&tally.l2_ms)),
        ("serve.l1_p50_ms", median(&tally.l1_ms)),
        ("explore.generations", tally.generations as f64),
        ("explore.measured", tally.measured as f64),
        ("generate.mappings", tally.mappings as f64),
        ("pool.waves", (pool.waves - pool_before.waves) as f64),
        ("pool.tasks", (pool.tasks - pool_before.tasks) as f64),
        ("pool.chunks", (pool.chunks - pool_before.chunks) as f64),
    ]);
    let mut sum = |name: &'static str, v: f64| *l.entry(name).or_default() += v;
    for st in &phase_stats {
        let (a, b) = (&st.after_hostile, &st.after_restart_l1);
        sum("cache.l1_hits", (a.l1_hits + b.l1_hits) as f64);
        sum("cache.l2_hits", (a.l2_hits + b.l2_hits) as f64);
        sum("cache.misses", (a.cold_misses + b.cold_misses) as f64);
        sum(
            "serve.dedup_joined",
            (a.dedup_joined + b.dedup_joined) as f64,
        );
        sum("serve.shed", (a.shed + b.shed) as f64);
        sum("serve.timeouts", (a.timeouts + b.timeouts) as f64);
        sum("serve.errors", (a.errors + b.errors) as f64);
    }
    if t.enabled() {
        l.insert("spec.busy_s", tally.spec_s);
        l.insert("spec.calls", tally.spec_calls as f64);
        l.insert("registry.busy_s", report.setup_s.iter().sum());
    }
    crate::derive_ratios(l);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_specs_parse_and_are_distinct() {
        let specs = cold_specs(4, Size::Full);
        let defs: Vec<_> = specs
            .iter()
            .map(|s| parse_spec(s).expect("cold spec parses"))
            .collect();
        let fps: std::collections::HashSet<_> =
            defs.iter().map(amos_core::shape_fingerprint).collect();
        assert_eq!(fps.len(), COLD_SHAPES.len());
        let mut sorted = specs.clone();
        sorted.sort();
        let mut other = cold_specs(5, Size::Full);
        other.sort();
        assert_eq!(sorted, other, "the seed orders a fixed set");
    }

    #[test]
    fn smoke_run_checks_out() {
        let dir = PathBuf::from(crate::OUT_DIR).join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test directory");
        let r = run(6, 0.0, &Tracer::new(false), Size::Smoke, &dir).expect("serve runs");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        // Two cold pairs, 4 x 30 repeats, the hostile specs, two L2 replays.
        assert_eq!(r.attempted, 4 + 120 + 4 + 2);
        assert!(r.failed <= HOSTILE.len() as u64);
    }
}
