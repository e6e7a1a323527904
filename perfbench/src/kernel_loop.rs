//! `kernel-loop`: simulator throughput on a persistent threaded engine.
//!
//! The four interpreter shapes of `bench_interp` — an ALU loop, a divergent
//! loop, shared memory with barriers, and atomic contention — launched over
//! and over on one persistent `Engine` in the threaded pipeline with
//! default routing and one detection queue. Every launch hits the module
//! cache and detection overlaps with simulation on the second core, so
//! `simt` (interpreter and device-side logging) and the `trace` queues set
//! the time while `core` and the front end do little.

use crate::layers::{self, StageSums, Target, Tracer};
use crate::report::{max_of, median, median_of_medians, percentile, Outcome};
use crate::{run_for, shuffle, RunOpts};
use barracuda::{BarracudaConfig, DetectionMode, Engine, KernelRun, ParamValue};
use barracuda_serve::ParamSpec;
use barracuda_trace::GridDims;
use std::sync::Arc;
use std::time::Instant;

/// Launches of each shape per round.
pub const LAUNCHES_PER_SHAPE: usize = 4;

/// Threads per block and blocks of every shape.
const BLOCK: u32 = 128;
const GRID: u32 = 4;

/// Human-readable scale for the result stamp.
pub fn scale_label() -> String {
    format!("4 shapes x {LAUNCHES_PER_SHAPE} launches per round, grid {GRID} x block {BLOCK}, threaded engine, {QUEUES} detection queue of {QUEUE_CAPACITY} records")
}

fn kernel(body: &str) -> String {
    format!(
        ".version 4.3\n.target sm_35\n.address_size 64\n.visible .entry k(.param .u64 out)\n{{\n{body}\n}}\n"
    )
}

/// The four shapes with their known verdicts. The first three end with
/// every block storing to `out[tid.x]`, so the four blocks race on each of
/// the 128 words; the atomic shape only updates one counter atomically
/// and is race-free.
pub fn shapes() -> Vec<Target> {
    let store = "ld.param.u64 %rd1, [out];\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;";
    let alu = format!(
        ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         add.s32 %r2, %r2, %r1;\n\
         xor.b32 %r2, %r2, %r3;\n\
         mad.lo.s32 %r2, %r2, 3, 7;\n\
         shl.b32 %r4, %r3, 1;\n\
         add.s32 %r2, %r2, %r4;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 256;\n\
         @%p bra L_loop;\n{store}"
    );
    let divergent = format!(
        ".reg .pred %p<3>;\n.reg .b32 %r<8>;\n.reg .b64 %rd<4>;\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         and.b32 %r4, %r1, 1;\n\
         setp.eq.s32 %p2, %r4, 0;\n\
         @%p2 bra L_even;\n\
         mad.lo.s32 %r2, %r2, 3, 1;\n\
         bra.uni L_join;\n\
         L_even:\n\
         mad.lo.s32 %r2, %r2, 5, 2;\n\
         L_join:\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p1, %r3, 200;\n\
         @%p1 bra L_loop;\n{store}"
    );
    let shared_barrier = ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<8>;\n\
         .shared .align 4 .b8 sm[512];\n\
         mov.u32 %r1, %tid.x;\n\
         mov.u64 %rd4, sm;\n\
         mul.wide.s32 %rd2, %r1, 4;\n\
         add.s64 %rd5, %rd4, %rd2;\n\
         xor.b32 %r5, %r1, 1;\n\
         mul.wide.s32 %rd6, %r5, 4;\n\
         add.s64 %rd7, %rd4, %rd6;\n\
         mov.u32 %r2, 0;\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         st.shared.u32 [%rd5], %r1;\n\
         bar.sync 0;\n\
         ld.shared.u32 %r4, [%rd7];\n\
         add.s32 %r2, %r2, %r4;\n\
         bar.sync 0;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 64;\n\
         @%p bra L_loop;\n\
         ld.param.u64 %rd1, [out];\n\
         add.s64 %rd3, %rd1, %rd2;\n\
         st.global.u32 [%rd3], %r2;\n\
         ret;"
        .to_string();
    let atomic = ".reg .pred %p;\n.reg .b32 %r<8>;\n.reg .b64 %rd<2>;\n\
         ld.param.u64 %rd1, [out];\n\
         mov.u32 %r3, 0;\n\
         L_loop:\n\
         atom.global.add.u32 %r1, [%rd1], 1;\n\
         add.s32 %r3, %r3, 1;\n\
         setp.lt.s32 %p, %r3, 128;\n\
         @%p bra L_loop;\n\
         ret;"
        .to_string();
    [
        ("alu_loop", alu, u64::from(BLOCK)),
        ("divergent_loop", divergent, u64::from(BLOCK)),
        ("shared_barrier", shared_barrier, u64::from(BLOCK)),
        ("atomic_contention", atomic, 0),
    ]
    .into_iter()
    .map(|(name, body, races)| Target {
        name: name.to_string(),
        source: Arc::from(kernel(&body)),
        kernel: "k".to_string(),
        dims: GridDims::new(GRID, BLOCK),
        params: vec![ParamSpec::Buf(4 * u64::from(BLOCK))],
        expected_races: races,
    })
    .collect()
}

/// Detection queues, each drained by its own worker thread. One worker
/// beside the simulating thread makes two busy threads, the core count of
/// the 2-core reference host. The CLI default of 1.25 queues per SM spawns
/// 30 workers that spin-yield through every launch; on two cores their
/// launch times measured the scheduler, and the slowest 1 % of launches
/// doubled through the host's slow periods. With one queue, page-sharded
/// routing has nothing to shard, so this workload does not show its cost.
pub const QUEUES: usize = 1;

/// Records per queue: twice the CLI default, more than the 19232 records
/// of the largest launch (`divergent_loop`). A launch never fills the
/// queue, so the simulating thread never waits on a full queue and no
/// record can be shed, however late the worker runs.
pub const QUEUE_CAPACITY: usize = 32 * 1024;

/// The engine configuration: CLI defaults with the threaded pipeline,
/// default routing, [`QUEUES`] detection queues and [`QUEUE_CAPACITY`].
/// The benchmark seed only orders the launches.
///
/// # Panics
///
/// Panics if the queue count does not come out as [`QUEUES`].
pub fn config() -> BarracudaConfig {
    let base = BarracudaConfig::default();
    let cfg = BarracudaConfig {
        mode: DetectionMode::Threaded,
        // `num_queues` rounds SMs × queues per SM up.
        queues_per_sm: (QUEUES as f64 - 0.5) / f64::from(base.gpu.num_sms),
        queue_capacity: QUEUE_CAPACITY,
        ..base
    };
    assert_eq!(cfg.num_queues(), QUEUES, "detection queue count");
    cfg
}

/// A warmed engine: every shape checked once (module cache filled, worker
/// pool spawned), with each shape's buffer allocated.
pub struct Warm {
    /// The engine.
    pub engine: Engine,
    /// Per-shape launch parameters.
    pub params: Vec<Vec<ParamValue>>,
}

/// Builds and warms an engine for `shapes`.
///
/// # Panics
///
/// Panics when a warm-up check fails.
pub fn warm(shapes: &[Target], cfg: &BarracudaConfig) -> Warm {
    let mut engine = Engine::with_config(cfg.clone());
    let params: Vec<Vec<ParamValue>> = shapes.iter().map(|t| t.alloc(engine.gpu_mut())).collect();
    for (t, p) in shapes.iter().zip(&params) {
        engine.check(&kernel_run(t, p)).expect("warm-up check");
    }
    Warm { engine, params }
}

fn kernel_run<'a>(t: &'a Target, params: &'a [ParamValue]) -> KernelRun<'a> {
    KernelRun {
        source: &t.source,
        kernel: &t.kernel,
        dims: t.dims,
        params,
    }
}

/// The set-up, timed: the shapes' PTX, an engine, and one check of each
/// shape (module cache filled, worker pool spawned, queues first touched).
pub fn setup_once() -> f64 {
    let t0 = Instant::now();
    let w = warm(&shapes(), &config());
    let secs = t0.elapsed().as_secs_f64();
    drop(w);
    secs
}

/// One launch of the round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Launched {
    /// Seconds in `Engine::check`.
    pub secs: f64,
    /// Verdict matched the known race count, nothing lost.
    pub ok: bool,
    /// Races reported.
    pub races: u64,
    /// Device log records.
    pub records: u64,
    /// Warp-instructions.
    pub warp_insns: u64,
    /// Queue high-water mark of the launch.
    pub high_water: u64,
    /// Producer stall cycles of the launch.
    pub stalls: u64,
    /// Records dropped.
    pub dropped: u64,
    /// Shadow bytes.
    pub shadow_bytes: u64,
}

/// Checks shape `i` once on the warm engine.
pub fn launch(w: &mut Warm, shapes: &[Target], i: usize) -> Launched {
    let t0 = Instant::now();
    let res = w.engine.check(&kernel_run(&shapes[i], &w.params[i]));
    let secs = t0.elapsed().as_secs_f64();
    match res {
        Ok(a) => {
            let s = a.stats();
            Launched {
                secs,
                ok: a.race_count() as u64 == shapes[i].expected_races && !a.is_degraded(),
                races: a.race_count() as u64,
                records: s.records,
                warp_insns: s.launch.instructions,
                high_water: s.pipeline.queue_high_water,
                stalls: s.pipeline.producer_stall_cycles,
                dropped: s.pipeline.records_dropped,
                shadow_bytes: s.shadow_bytes,
            }
        }
        Err(_) => Launched {
            secs,
            ..Launched::default()
        },
    }
}

/// The launch order of one round: every shape [`LAUNCHES_PER_SHAPE`]
/// times, shuffled by the seed.
pub fn order(n_shapes: usize, seed: u64) -> Vec<usize> {
    let mut o: Vec<usize> = (0..n_shapes)
        .flat_map(|i| std::iter::repeat_n(i, LAUNCHES_PER_SHAPE))
        .collect();
    shuffle(&mut o, seed);
    o
}

fn round_counts(r: &[Launched]) -> Vec<(&'static str, u64)> {
    vec![
        ("simt.warp_insns", r.iter().map(|l| l.warp_insns).sum()),
        ("simt.records", r.iter().map(|l| l.records).sum()),
        ("races", r.iter().map(|l| l.races).sum()),
    ]
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let shapes = shapes();
    let order = order(shapes.len(), opts.seed);

    out.push("setup_s", crate::cold_setup_s("kernel-loop", opts), "s");
    let mut w = warm(&shapes, &cfg);
    let misses_before = w.engine.module_cache_len();
    let hits_before = w.engine.module_cache_hits();

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut rounds: Vec<Vec<Launched>> = Vec::new();
    let mut round_s = Vec::new();
    run_for(budget, 3, || {
        let t0 = Instant::now();
        let r: Vec<Launched> = order.iter().map(|&i| launch(&mut w, &shapes, i)).collect();
        round_s.push(t0.elapsed().as_secs_f64());
        rounds.push(r);
    });
    let first = round_counts(&rounds[0]);
    if rounds.iter().any(|r| round_counts(r) != first) {
        out.notes.push("counts differ between rounds".into());
        out.failed += 1;
    }
    let all: Vec<&Launched> = rounds.iter().flatten().collect();
    for l in &all {
        out.tally(l.ok);
    }
    // Rates divide the work by the median unit time, not the summed time,
    // so one slow unit (a host hiccup) does not move them.
    let total_s = median(&round_s) * rounds.len() as f64;
    let lat: Vec<f64> = all.iter().map(|l| l.secs * 1e3).collect();
    let mut istats = Vec::new();
    for t in &shapes {
        let m = barracuda_ptx::parse(&t.source).expect("shape parses");
        istats.push(barracuda_instrument::instrument_module(&m, &cfg.instrument).1);
    }
    let fraction = layers::instrumented_fraction(&istats);
    out.counts = first;
    out.counts.push((
        "instrument.instrumented_ppm",
        (fraction * 1e6).round() as u64,
    ));

    out.push("wall_s", median(&round_s), "s");
    out.push(
        "verdicts_per_s",
        all.iter().filter(|l| l.ok).count() as f64 / total_s,
        "1/s",
    );
    out.push(
        "records_per_s",
        all.iter().map(|l| l.records).sum::<u64>() as f64 / total_s,
        "1/s",
    );
    out.push(
        "sim_insns_per_s",
        all.iter().map(|l| l.warp_insns).sum::<u64>() as f64 / total_s,
        "1/s",
    );
    let per_round: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.iter().map(|l| l.secs * 1e3).collect())
        .collect();
    out.push("latency_p50_ms", median_of_medians(&per_round), "ms");
    out.push("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.notes.push(format!(
        "{} launches over {} rounds; latency is per Engine::check; p50 is the median of \
         the per-round medians, p99 is over all launches",
        lat.len(),
        rounds.len()
    ));

    if opts.trace {
        let mut tr = Tracer::default();
        let mut traced_round = Vec::new();
        let mut last = Vec::new();
        let mut op = 0u64;
        run_for(opts.seconds / 2.0, 3, || {
            let t0 = Instant::now();
            last = order
                .iter()
                .map(|&i| {
                    op += 1;
                    tr.span("runtime.check", op, |_| launch(&mut w, &shapes, i))
                })
                .collect::<Vec<_>>();
            traced_round.push(t0.elapsed().as_secs_f64());
            for l in &last {
                out.tally(l.ok);
            }
        });
        let launches = (rounds.len() + traced_round.len()) * order.len();
        let misses = (w.engine.module_cache_len() - misses_before) as f64;
        let hits = (w.engine.module_cache_hits() - hits_before) as f64;
        let check_s = tr.mean("runtime.check");
        let ts: Vec<Target> = order.iter().map(|&i| shapes[i].clone()).collect();
        let r = layers::replay(&ts, &[], &cfg);
        out.failed += r.mismatches;
        out.attempted += ts.len() as u64;
        let st = StageSums::from_tracer(&r.tracer, misses / launches as f64);
        layers::push_stage_metrics(
            &mut out,
            &st,
            check_s,
            &r.sum,
            fraction,
            max_of(last.iter().map(|l| l.shadow_bytes)),
        );
        out.push(
            "trace.queue_high_water",
            max_of(last.iter().map(|l| l.high_water)) as f64,
            "count",
        );
        out.push(
            "trace.producer_stall_cycles",
            last.iter().map(|l| l.stalls).sum::<u64>() as f64,
            "count",
        );
        out.push(
            "trace.records_dropped",
            last.iter().map(|l| l.dropped).sum::<u64>() as f64,
            "count",
        );
        // Per round, like the other per-unit counts.
        let per_round = order.len() as f64 / launches as f64;
        out.push("runtime.cache_hits", hits * per_round, "count");
        out.push("runtime.cache_misses", misses * per_round, "count");
        out.push(
            "bench.tracing_overhead_share",
            median(&traced_round) / median(&round_s) - 1.0,
            "share",
        );
        crate::loadgen::probe("kernel-loop", opts.seed, &mut out);
    }
    out.push("ok_share", 1.0 - out.failed_share(), "share");
    out.push("bench.failed_share", out.failed_share(), "share");
    out.push("bench.latency_samples", lat.len() as f64, "count");
    out.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    out
}
