//! `table1`: time to verdict over the paper's Table-1 corpus.
//!
//! The 26 synthetic Table-1 generators at a reduced scale, plus three of
//! them again at a higher thread count, each checked in a fresh default
//! session — the synchronous path the CLI, `serve` and the fleet's child
//! processes take. The `core` detector does almost all the work here; the
//! thread-count step exposes its superlinear cost in threads.

use crate::layers::{self, StageSums, Target, Tracer};
use crate::report::{max_of, median, percentile, Outcome};
use crate::{run_for, shuffle, RunOpts};
use barracuda::{Barracuda, BarracudaConfig, KernelRun};
use barracuda_serve::ParamSpec;
use barracuda_workloads::{all_workloads, Scale};
use std::sync::Arc;
use std::time::Instant;

/// The reduced scale: at most 128 threads (generators with a larger block
/// or a planted cross-block race keep their minimum) and a tenth of the
/// paper's static instruction counts.
pub const SCALE: Scale = Scale {
    max_threads: 128,
    max_alloc_bytes: 1 << 20,
    insn_scale: 0.1,
};

/// The thread-count step: these generators run again at this many threads.
pub const STEP_THREADS: u64 = 1024;

/// Generators repeated at [`STEP_THREADS`].
pub const STEP_TARGETS: [&str; 3] = ["bfs", "gaussian", "kmeans"];

/// Human-readable scale for the result stamp.
pub fn scale_label() -> String {
    format!(
        "max_threads={} insn_scale={} max_alloc={}B; {} at {} threads",
        SCALE.max_threads,
        SCALE.insn_scale,
        SCALE.max_alloc_bytes,
        STEP_TARGETS.join("+"),
        STEP_THREADS
    )
}

/// The session configuration: CLI defaults, simulator seed included. The
/// benchmark seed only orders the targets: a different simulator schedule
/// changes the detector's work on `dwt2d` by up to a third, which would
/// bury a real change under seed-to-seed noise.
pub fn config() -> BarracudaConfig {
    BarracudaConfig::default()
}

/// Generates the targets for `seed`: every generator at [`SCALE`], then the
/// step targets, in a seed-shuffled order.
pub fn targets(seed: u64) -> Vec<Target> {
    let step = Scale {
        max_threads: STEP_THREADS,
        ..SCALE
    };
    let mut out = Vec::new();
    for w in all_workloads() {
        let mut scales = vec![("", SCALE)];
        if STEP_TARGETS.contains(&w.name) {
            scales.push(("@step", step));
        }
        for (suffix, scale) in scales {
            let inst = w.generate(&scale);
            out.push(Target {
                name: format!("{}{suffix}", inst.name),
                source: Arc::from(barracuda_ptx::printer::print_module(&inst.module)),
                kernel: inst.kernel.clone(),
                dims: inst.dims,
                params: vec![ParamSpec::Buf(inst.buf_bytes)],
                expected_races: u64::from(inst.expected_races()),
            });
        }
    }
    shuffle(&mut out, seed);
    out
}

/// The set-up, timed: generating and printing the targets.
pub fn setup_once(opts: &RunOpts) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(targets(opts.seed));
    t0.elapsed().as_secs_f64()
}

/// One check in a fresh default session.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Seconds from creating the session to the verdict.
    pub op_s: f64,
    /// Seconds inside `Engine::check` alone.
    pub check_s: f64,
    /// True when the verdict matched the known race count.
    pub ok: bool,
    /// Races reported.
    pub races: u64,
    /// Device log records.
    pub records: u64,
    /// Warp-instructions simulated.
    pub warp_insns: u64,
    /// Shadow bytes the detector allocated.
    pub shadow_bytes: u64,
    /// Instrumented fraction in parts per million.
    pub instrumented_ppm: u64,
    /// Queue telemetry `(high water, producer stall cycles, dropped)`.
    pub queues: (u64, u64, u64),
    /// The session's module cache `(hits, modules)` after the check.
    pub cache: (u64, u64),
}

/// Checks `t` in a fresh session built from `cfg`.
pub fn check_fresh(t: &Target, cfg: &BarracudaConfig) -> Checked {
    let start = Instant::now();
    let mut bar = Barracuda::with_config(cfg.clone());
    let params = t.alloc(bar.gpu_mut());
    let run = KernelRun {
        source: &t.source,
        kernel: &t.kernel,
        dims: t.dims,
        params: &params,
    };
    let t0 = Instant::now();
    let res = bar.check(&run);
    let check_s = t0.elapsed().as_secs_f64();
    let op_s = start.elapsed().as_secs_f64();
    match res {
        Ok(a) => {
            let s = a.stats();
            Checked {
                op_s,
                check_s,
                ok: a.race_count() as u64 == t.expected_races && !a.is_degraded(),
                races: a.race_count() as u64,
                records: s.records,
                warp_insns: s.launch.instructions,
                shadow_bytes: s.shadow_bytes,
                instrumented_ppm: (s.instrument.instrumented_fraction() * 1e6).round() as u64,
                queues: (
                    s.pipeline.queue_high_water,
                    s.pipeline.producer_stall_cycles,
                    s.pipeline.records_dropped,
                ),
                cache: (
                    bar.engine().module_cache_hits(),
                    bar.engine().module_cache_len() as u64,
                ),
            }
        }
        Err(_) => Checked {
            op_s,
            check_s,
            ..Checked::default()
        },
    }
}

/// One pass over every target; returns each check in target order.
pub fn pass(ts: &[Target], cfg: &BarracudaConfig) -> Vec<Checked> {
    ts.iter().map(|t| check_fresh(t, cfg)).collect()
}

/// The deterministic counts of one pass.
fn pass_counts(p: &[Checked]) -> Vec<(&'static str, u64)> {
    vec![
        ("simt.warp_insns", p.iter().map(|c| c.warp_insns).sum()),
        ("simt.records", p.iter().map(|c| c.records).sum()),
        (
            "instrument.instrumented_ppm",
            p.iter().map(|c| c.instrumented_ppm).sum(),
        ),
        ("races", p.iter().map(|c| c.races).sum()),
    ]
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();

    out.push("setup_s", crate::cold_setup_s("table1", opts), "s");
    let ts = targets(opts.seed);
    let ops_per_pass = ts.len();

    // With tracing on, half the time measures untraced passes (the
    // baseline of the tracing overhead) and half traced ones.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut passes: Vec<Vec<Checked>> = Vec::new();
    let mut pass_s = Vec::new();
    run_for(budget, 2, || {
        let t0 = Instant::now();
        passes.push(pass(&ts, &cfg));
        pass_s.push(t0.elapsed().as_secs_f64());
    });
    for p in &passes {
        for c in p {
            out.tally(c.ok);
        }
    }
    out.counts = pass_counts(&passes[0]);
    if passes.iter().any(|p| pass_counts(p) != out.counts) {
        out.notes.push("counts differ between passes".into());
        out.failed += 1;
    }
    // Each target's fastest check over the passes. The host's speed drifts
    // by a third and more over seconds, and a slow stretch only ever adds
    // time, so the fastest check is the estimate a slow stretch moves
    // least (a median moved with whichever speed held most of the run).
    // The pass time is their sum, rates divide the work of the passes by
    // that time, and the latency percentiles are taken over the targets.
    let per_target: Vec<f64> = (0..ops_per_pass)
        .map(|i| {
            passes
                .iter()
                .map(|p| p[i].op_s)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let wall_s: f64 = per_target.iter().sum();
    let total_s = wall_s * passes.len() as f64;
    let all: Vec<&Checked> = passes.iter().flatten().collect();
    let lat: Vec<f64> = per_target.iter().map(|s| s * 1e3).collect();

    out.push("wall_s", wall_s, "s");
    out.push(
        "verdicts_per_s",
        all.iter().filter(|c| c.ok).count() as f64 / total_s,
        "1/s",
    );
    out.push(
        "records_per_s",
        all.iter().map(|c| c.records).sum::<u64>() as f64 / total_s,
        "1/s",
    );
    out.push(
        "sim_insns_per_s",
        all.iter().map(|c| c.warp_insns).sum::<u64>() as f64 / total_s,
        "1/s",
    );
    out.push("latency_p50_ms", percentile(&lat, 50.0), "ms");
    out.push("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.notes.push(format!(
        "{} checks over {} passes of {} targets; latency is per check, from session \
         creation; p50 and p99 are over the targets, each at its fastest check",
        all.len(),
        passes.len(),
        ops_per_pass
    ));

    if opts.trace {
        traced(opts, &ts, &cfg, &pass_s, &mut out);
    }
    out.push("ok_share", 1.0 - out.failed_share(), "share");
    out.push("bench.failed_share", out.failed_share(), "share");
    out.push("bench.latency_samples", all.len() as f64, "count");
    out.push("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    out
}

/// The traced half: spans around every `Engine::check`, a stage replay,
/// and the serve-layer probe over a few of the targets.
fn traced(
    opts: &RunOpts,
    ts: &[Target],
    cfg: &BarracudaConfig,
    untraced: &[f64],
    out: &mut Outcome,
) {
    let mut tr = Tracer::default();
    let mut traced_pass = Vec::new();
    let mut checks: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
    let mut last: Vec<Checked> = Vec::new();
    let mut op = 0u64;
    run_for(opts.seconds / 2.0, 2, || {
        let t0 = Instant::now();
        last.clear();
        for (i, t) in ts.iter().enumerate() {
            let c = tr.span("runtime.check", op, |_| check_fresh(t, cfg));
            op += 1;
            out.tally(c.ok);
            checks[i].push(c.check_s);
            last.push(c);
        }
        traced_pass.push(t0.elapsed().as_secs_f64());
    });
    // Per-target median check time, averaged over targets: the same
    // per-operation basis as the replayed stage means.
    let check_s = crate::report::mean(&checks.iter().map(|v| median(v)).collect::<Vec<_>>());

    let r = layers::replay(ts, &[], cfg);
    out.failed += r.mismatches;
    out.attempted += ts.len() as u64;
    let st = StageSums::from_tracer(&r.tracer, 1.0);
    let sum_of = |f: fn(&Checked) -> u64| last.iter().map(f).sum::<u64>() as f64;
    layers::push_stage_metrics(
        out,
        &st,
        check_s,
        &r.sum,
        layers::instrumented_fraction(&r.istats),
        max_of(last.iter().map(|c| c.shadow_bytes)),
    );
    // The synchronous path bypasses the queues: these read zero unless the
    // default session stops being synchronous.
    out.push(
        "trace.queue_high_water",
        max_of(last.iter().map(|c| c.queues.0)) as f64,
        "count",
    );
    out.push(
        "trace.producer_stall_cycles",
        sum_of(|c| c.queues.1),
        "count",
    );
    out.push("trace.records_dropped", sum_of(|c| c.queues.2), "count");
    out.push("runtime.cache_hits", sum_of(|c| c.cache.0), "count");
    out.push("runtime.cache_misses", sum_of(|c| c.cache.1), "count");
    out.push(
        "bench.tracing_overhead_share",
        median(&traced_pass) / median(untraced) - 1.0,
        "share",
    );
    // The serve probe: the cheapest targets, through in-process sessions
    // and the TCP transport.
    crate::loadgen::probe("table1", opts.seed, out);
}

/// The targets of the serve probe: the 8 cheapest of [`targets`]`(seed)`.
pub fn probe_targets(seed: u64) -> Vec<Target> {
    let mut small = targets(seed);
    small.sort_by_key(|t| t.dims.total_threads() * t.source.len() as u64);
    small.truncate(8);
    small
}
