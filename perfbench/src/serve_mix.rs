//! `serve-mix`: request latency of the detection server.
//!
//! An in-process `Server` with CLI defaults behind the loopback TCP
//! transport, driven open-loop by one generator process at a fixed rate
//! below saturation over two connections, server and generator on one CPU
//! (see [`pin_to_one_cpu`]). Three kinds of request:
//!
//! * hot — a cached, clean, tiny kernel;
//! * streamed — a racy kernel with `stream: true`;
//! * cold — a never-seen module the size of a typical Table-1 program, on
//!   one block.
//!
//! `serve`, the protocol, the engine pool and the cold front end (`ptx`,
//! `instrument`, decode) do the work while `simt` and `core` do little.
//! Mixing cache hits with misses shows a gain for one kind of request that
//! costs the other.
//!
//! No recorded traffic of this server exists, so the rate, the mix and the
//! cold module size are stated assumptions, each set by the rule given at
//! its definition: [`MIX`] so that p50 reads hot requests and p99 reads
//! cold ones, [`cold_insns`] from the paper's Table 1, and [`RATE`] for the
//! sample count at a load far below saturation.

use crate::layers::{self, StageSums, Target, Tracer};
use crate::loadgen::{drive, push_serve_metrics, Planned, Served, TcpServer};
use crate::report::{max_of, mean, median, median_of_medians, percentile, Outcome};
use crate::{shuffle, Rng, RunOpts};
use barracuda::{BarracudaConfig, Engine, KernelRun};
use barracuda_serve::ParamSpec;
use barracuda_trace::backoff::splitmix;
use barracuda_trace::GridDims;
use barracuda_workloads::all_workloads;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Requests per second. Rule: enough samples that p99 rests on many cold
/// requests (a 30-second run sends 1500 requests, 75 of them cold, and p99
/// is the 15th slowest), while the offered load stays far below
/// saturation: rate × mean service time keeps the server under a fifth
/// busy, and a cold request is done long before the next one is due.
pub const RATE: f64 = 50.0;

/// Generator connections, the machine's core count on the reference box:
/// hot and streamed requests share connection 0 and cold requests have
/// connection 1, so a cold request's long transfer and decode never hold
/// up a small request queued behind it on the same connection.
pub const CONNS: usize = 2;

/// Out of every block of 20 requests: hot, streamed, cold. Rule: cold
/// requests are 5 % of the samples, 5 times the 1 % tail p99 reads, so p99
/// is the 80th percentile of the cold latencies and stays a cold figure
/// unless the cold share changes by that factor (at one in 100 it would
/// read hot requests instead). Cold latencies spread widely within a run,
/// at times in two groups; the 60th percentile of the 38 cold requests a
/// 2.5 % share gave moved by a quarter from run to run, and the 80th
/// percentile of 75 rests on twice the samples, in the upper part of the
/// spread. Hot requests, the fastest kind, are the majority (70 %), so p50
/// is mostly a hot figure. Streamed requests are a quarter of the block:
/// they load the shared connection and the event path, and reach p50
/// directly and through the hot requests queued behind them.
pub const MIX: [(&str, usize); 3] = [("hot", 14), ("streamed", 5), ("cold", 1)];

/// Requests per block of [`MIX`].
const BLOCK: usize = 20;

/// Straight-line instructions in a cold module. Rule: the median static
/// instruction count of the paper's 26 Table-1 programs (the 14th smallest,
/// `dxtc`'s 1578), so a cold request brings a module the size of a typical
/// benchmark program.
pub fn cold_insns() -> usize {
    let mut insns: Vec<u32> = all_workloads()
        .iter()
        .map(|w| w.paper.static_insns)
        .collect();
    insns.sort_unstable();
    insns[insns.len() / 2] as usize
}

/// Threads of the single block a cold module runs on.
const COLD_THREADS: u32 = 64;

/// Human-readable scale for the result stamp.
pub fn scale_label() -> String {
    let mix: Vec<String> = MIX.iter().map(|(k, n)| format!("{n} {k}")).collect();
    format!(
        "{RATE} req/s open loop over {CONNS} connections, server and generator on one CPU; per {BLOCK}: {}; cold modules {} insns x {COLD_THREADS} threads",
        mix.join(", "),
        cold_insns()
    )
}

const HEADER: &str = ".version 4.3\n.target sm_35\n.address_size 64\n";

/// The hot request: every thread stores its id to its own word. Clean.
pub fn hot() -> Target {
    let src = format!(
        "{HEADER}.visible .entry hot(.param .u64 buf)\n{{\n.reg .b32 %r<2>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [buf];\nmov.u32 %r1, %tid.x;\nmul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\nst.global.u32 [%rd3], %r1;\nret;\n}}\n"
    );
    Target {
        name: "hot".into(),
        source: Arc::from(src),
        kernel: "hot".into(),
        dims: GridDims::new(1u32, 32u32),
        params: vec![ParamSpec::Buf(128)],
        expected_races: 0,
    }
}

/// The streamed request: every thread of two blocks stores its id to the
/// same word, so the blocks race on that one location.
pub fn streamed() -> Target {
    let src = format!(
        "{HEADER}.visible .entry racy(.param .u64 buf)\n{{\n.reg .b32 %r<2>;\n.reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [buf];\nmov.u32 %r1, %tid.x;\nst.global.u32 [%rd1], %r1;\nret;\n}}\n"
    );
    Target {
        name: "streamed".into(),
        source: Arc::from(src),
        kernel: "racy".into(),
        dims: GridDims::new(2u32, 64u32),
        params: vec![ParamSpec::Buf(4)],
        expected_races: 1,
    }
}

/// A cold module: [`cold_insns`] straight-line instructions whose opcodes
/// and immediates come from `salt`, with a load and a store of the thread's
/// own word every 16 instructions. Each thread touches only its own word,
/// so it is clean; the instruction-class layout is fixed, so every cold
/// module simulates the same number of instructions.
pub fn cold(salt: u64) -> Target {
    let mut rng = Rng::new(salt);
    let name = format!("cold_{salt:016x}");
    let mut src = format!(
        "{HEADER}.visible .entry {name}(.param .u64 buf)\n{{\n.reg .b32 %r<4>;\n.reg .b64 %rd<4>;\n\
         ld.param.u64 %rd1, [buf];\nmov.u32 %r1, %tid.x;\nmul.wide.u32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\nmov.u32 %r2, {};\n",
        rng.below(1 << 20)
    );
    for i in 0..cold_insns() {
        let imm = rng.below(1 << 16);
        let line = match i % 16 {
            7 => "st.global.u32 [%rd3], %r2;".to_string(),
            15 => "ld.global.u32 %r3, [%rd3];".to_string(),
            _ => match rng.below(4) {
                0 => format!("add.s32 %r2, %r2, {imm};"),
                1 => format!("xor.b32 %r2, %r2, {imm};"),
                2 => format!("or.b32 %r2, %r2, {imm};"),
                _ => format!("and.b32 %r2, %r2, {};", imm | 0x8000_0000),
            },
        };
        let _ = writeln!(src, "{line}");
    }
    src.push_str("ret;\n}\n");
    Target {
        name,
        source: Arc::from(src),
        kernel: format!("cold_{salt:016x}"),
        dims: GridDims::new(1u32, COLD_THREADS),
        params: vec![ParamSpec::Buf(4 * u64::from(COLD_THREADS))],
        expected_races: 0,
    }
}

/// The request schedule for `seed`: `n` requests, each block of [`BLOCK`]
/// in the fixed [`MIX`] proportions. The cold request opens each block, so
/// cold requests come at a fixed cadence; the seed shuffles the other
/// requests within the block and picks every cold module, each one
/// distinct.
pub fn schedule(seed: u64, n: usize) -> Vec<(&'static str, Target)> {
    let (hot, streamed) = (hot(), streamed());
    let mut salts = Rng::new(seed ^ 0xc01d);
    let mut out = Vec::with_capacity(n);
    for b in 0..n.div_ceil(BLOCK) {
        let mut rest: Vec<&'static str> = MIX
            .iter()
            .filter(|(kind, _)| *kind != "cold")
            .flat_map(|&(kind, k)| std::iter::repeat_n(kind, k))
            .collect();
        shuffle(&mut rest, seed ^ splitmix(b as u64));
        rest.insert(0, "cold");
        for kind in rest {
            let t = match kind {
                "hot" => hot.clone(),
                "streamed" => streamed.clone(),
                _ => cold(salts.next_u64()),
            };
            out.push((kind, t));
        }
    }
    out.truncate(n);
    out
}

/// The requests of [`schedule`]`(seed, n)`: streamed requests with
/// `stream: true`, cold requests on connection 1, the rest on connection 0.
pub fn plan(seed: u64, n: usize) -> Vec<Planned> {
    plan_of(&schedule(seed, n))
}

fn plan_of(s: &[(&'static str, Target)]) -> Vec<Planned> {
    s.iter()
        .map(|(k, t)| Planned {
            conn: usize::from(*k == "cold"),
            ..Planned::from_target(k, t, *k == "streamed")
        })
        .collect()
}

/// The warm-up every server gets before measuring: the hot and streamed
/// requests once each, so they are cache hits from then on.
fn warm_plan() -> Vec<Planned> {
    vec![
        Planned::from_target("hot", &hot(), false),
        Planned::from_target("streamed", &streamed(), true),
    ]
}

/// The set-up: generate the schedule of `n` requests, start a server and
/// warm it. Returns the schedule, the server and how many warm-up verdicts
/// were right.
fn setup(seed: u64, n: usize) -> (Vec<(&'static str, Target)>, TcpServer, usize) {
    let sched = schedule(seed, n);
    let server = TcpServer::start();
    let warmed = server.warm(&warm_plan());
    (sched, server, warmed)
}

/// The set-up, timed; shutting the server down again is not timed.
pub fn setup_once(opts: &RunOpts) -> f64 {
    let t0 = Instant::now();
    let (_, server, _) = setup(opts.seed, (RATE * opts.seconds).round() as usize);
    let secs = t0.elapsed().as_secs_f64();
    server.stop();
    secs
}

/// Restricts this process, every thread it starts and every process it
/// spawns (the set-ups and the generator) to the first CPU it may use,
/// with `taskset`. A request hands off between the generator, the
/// connection thread and a pool worker. Spread over two virtual CPUs, each
/// handoff may wake a halted CPU through the hypervisor, and how often
/// that happened, and how long it took, moved the typical latency by half
/// from run to run. On one CPU a handoff is a local context switch, so the
/// latency is mostly the server's work. Call it before any thread is
/// started.
///
/// # Panics
///
/// Panics when the CPU list is unreadable or `taskset` fails.
pub fn pin_to_one_cpu() {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|l| l.trim().split(|c: char| !c.is_ascii_digit()).next())
        .filter(|c| !c.is_empty())
        .expect("allowed CPU list");
    let pinned = Command::new("taskset")
        .args(["-a", "-p", "-c", cpu, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    assert!(pinned, "pin the process to CPU {cpu} with taskset");
}

/// Warp-instructions one request of each kind simulates, from one check of
/// an exemplar on a fresh engine.
fn insns_per_kind(seed: u64) -> Vec<(&'static str, u64)> {
    [
        ("hot", hot()),
        ("streamed", streamed()),
        ("cold", cold(seed)),
    ]
    .into_iter()
    .map(|(k, t)| {
        let mut e = Engine::with_config(BarracudaConfig::default());
        let params = t.alloc(e.gpu_mut());
        let a = e
            .check(&KernelRun {
                source: &t.source,
                kernel: &t.kernel,
                dims: t.dims,
                params: &params,
            })
            .expect("exemplar check");
        (k, a.stats().launch.instructions)
    })
    .collect()
}

/// End-to-end figures of one driven schedule.
struct Window {
    wall_s: f64,
    ok: usize,
    records: u64,
    insns: u64,
    latency_ms: Vec<f64>,
    /// Latencies (ms) by [`WINDOWS`] consecutive stretches of the schedule.
    windows: Vec<Vec<f64>>,
}

/// Alternating untraced and traced passes behind the tracing overhead.
const OVERHEAD_ROUNDS: usize = 5;

/// Stretches of the schedule the typical latency is taken over.
const WINDOWS: usize = 11;

fn window(plan: &[Planned], served: &[Served], insns: &[(&str, u64)]) -> Window {
    let wall_s = served
        .iter()
        .map(|s| s.due_s + s.late_s + s.service_s)
        .fold(0.0, f64::max);
    let per = |kind: &str| insns.iter().find(|(k, _)| *k == kind).map_or(0, |x| x.1);
    Window {
        wall_s,
        ok: served.iter().filter(|s| s.ok).count(),
        records: served.iter().map(|s| s.records).sum(),
        insns: plan
            .iter()
            .zip(served)
            .filter(|(_, s)| s.ok)
            .map(|(p, _)| per(p.kind))
            .sum(),
        latency_ms: served.iter().map(|s| s.latency_s * 1e3).collect(),
        windows: served
            .chunks(served.len().div_ceil(WINDOWS).max(1))
            .map(|c| c.iter().map(|s| s.latency_s * 1e3).collect())
            .collect(),
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let warm = warm_plan();
    let n = (RATE * opts.seconds).round() as usize;
    let n_untraced = if opts.trace { n / 2 } else { n };

    pin_to_one_cpu();
    out.push("setup_s", crate::cold_setup_s("serve-mix", opts), "s");
    let (sched, server, warmed) = setup(opts.seed, n);
    out.attempted += warm.len() as u64;
    out.failed += (warm.len() - warmed) as u64;
    let insns = insns_per_kind(opts.seed);
    let plan = plan_of(&sched);

    let (first, second) = plan.split_at(n_untraced);
    let served = drive(&server, "serve-mix", opts.seed, n, 0..n_untraced, RATE);
    let w = window(first, &served, &insns);
    for s in &served {
        out.tally(s.ok);
    }
    out.counts = vec![
        ("requests", first.len() as u64),
        ("simt.records", w.records),
        ("simt.warp_insns", w.insns),
        (
            "races",
            first
                .iter()
                .zip(&served)
                .filter(|(_, s)| s.ok)
                .map(|(p, _)| p.expected_races)
                .sum(),
        ),
    ];

    out.push("wall_s", w.wall_s, "s");
    out.push("verdicts_per_s", w.ok as f64 / w.wall_s, "1/s");
    out.push("records_per_s", w.records as f64 / w.wall_s, "1/s");
    out.push("sim_insns_per_s", w.insns as f64 / w.wall_s, "1/s");
    out.push("latency_p50_ms", median_of_medians(&w.windows), "ms");
    out.push("latency_p99_ms", percentile(&w.latency_ms, 99.0), "ms");
    for (kind, _) in MIX {
        let of_kind: Vec<&Served> = first
            .iter()
            .zip(&served)
            .filter(|(p, _)| p.kind == kind)
            .map(|(_, s)| s)
            .collect();
        if !of_kind.is_empty() {
            let l: Vec<f64> = of_kind.iter().map(|s| s.latency_s * 1e3).collect();
            let svc: Vec<f64> = of_kind.iter().map(|s| s.service_s * 1e3).collect();
            out.notes.push(format!(
                "{kind}: {} requests, latency p50 {:.3} ms, p99 {:.3} ms; service p50 {:.3} ms",
                l.len(),
                percentile(&l, 50.0),
                percentile(&l, 99.0),
                percentile(&svc, 50.0)
            ));
        }
    }
    out.notes.push(format!(
        "{} requests at {RATE}/s; latency from each due time; p50 is the median of the \
         medians of {WINDOWS} consecutive stretches, p99 is over all requests",
        first.len()
    ));

    if opts.trace {
        // The traced half: the rest of the schedule, then the replays of
        // the same requests layer by layer.
        let served2 = drive(&server, "serve-mix", opts.seed, n, n_untraced..n, RATE);
        for s in &served2 {
            out.tally(s.ok);
        }
        let stats = server.stop();
        push_serve_metrics(second, &warm, &served2, &stats, &mut out);
        traced_layers(&sched[n_untraced..], &mut out);
    } else {
        TcpServer::stop(server);
    }
    out.push("ok_share", 1.0 - out.failed_share(), "share");
    out.push("bench.failed_share", out.failed_share(), "share");
    out.push("bench.latency_samples", w.latency_ms.len() as f64, "count");
    out.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    out
}

/// Checks the traced requests in turn on one warmed engine, first untraced
/// and then with a span around each `Engine::check` on a second engine
/// warmed the same way, then replays them stage by stage. The two passes
/// give the tracing overhead.
fn traced_layers(sched: &[(&'static str, Target)], out: &mut Outcome) {
    let cfg = BarracudaConfig::default();
    let ts: Vec<Target> = sched.iter().map(|(_, t)| t.clone()).collect();
    let warm = [hot(), streamed()];
    let mut tr = Tracer::default();
    let mut shadow = Vec::new();
    let mut queues = [0u64; 3];
    let check = |t: &Target, engine: &mut Engine| {
        let params = t.alloc(engine.gpu_mut());
        engine
            .check(&KernelRun {
                source: &t.source,
                kernel: &t.kernel,
                dims: t.dims,
                params: &params,
            })
            .map(|a| {
                let s = a.stats();
                let q = &s.pipeline;
                let ok = a.race_count() as u64 == t.expected_races && !a.is_degraded();
                let queues = [
                    q.queue_high_water,
                    q.producer_stall_cycles,
                    q.records_dropped,
                ];
                (ok, s.shadow_bytes, queues)
            })
            .unwrap_or((false, 0, [0; 3]))
    };
    let warmed = || {
        let mut engine = Engine::with_config(cfg.clone());
        for t in &warm {
            check(t, &mut engine);
        }
        engine
    };
    // Untraced and traced passes alternate, each on an engine of its own,
    // and the overhead compares their medians; the first pass also pays the
    // process's first-touch costs. Counters come from the last traced pass.
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0.0, 0.0);
    for _ in 0..OVERHEAD_ROUNDS {
        let mut engine = warmed();
        let t0 = Instant::now();
        for t in &ts {
            out.tally(check(t, &mut engine).0);
        }
        untraced_s.push(t0.elapsed().as_secs_f64());

        let mut engine = warmed();
        let (len0, hits0) = (engine.module_cache_len(), engine.module_cache_hits());
        queues = [0; 3];
        let t0 = Instant::now();
        for (op, t) in ts.iter().enumerate() {
            let (ok, bytes, q) = tr.span("runtime.check", op as u64, |_| check(t, &mut engine));
            out.tally(ok);
            shadow.push(bytes);
            queues[0] = queues[0].max(q[0]);
            queues[1] += q[1];
            queues[2] += q[2];
        }
        traced_s.push(t0.elapsed().as_secs_f64());
        misses = (engine.module_cache_len() - len0) as f64;
        hits = (engine.module_cache_hits() - hits0) as f64;
    }
    out.push(
        "bench.tracing_overhead_share",
        median(&traced_s) / median(&untraced_s) - 1.0,
        "share",
    );

    let r = layers::replay(&ts, &warm, &cfg);
    out.failed += r.mismatches;
    out.attempted += ts.len() as u64;
    let st = StageSums::from_tracer(&r.tracer, misses / ts.len().max(1) as f64);
    layers::push_stage_metrics(
        out,
        &st,
        mean(&tr.durations("runtime.check")),
        &r.sum,
        layers::instrumented_fraction(&r.istats),
        max_of(shadow.into_iter()),
    );
    // The server's engines are synchronous, as here: the queues read zero
    // unless that default changes.
    out.push("trace.queue_high_water", queues[0] as f64, "count");
    out.push("trace.producer_stall_cycles", queues[1] as f64, "count");
    out.push("trace.records_dropped", queues[2] as f64, "count");
    out.push("runtime.cache_hits", hits, "count");
    out.push("runtime.cache_misses", misses, "count");
}
