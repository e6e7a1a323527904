//! The repository benchmark: end-to-end time to verdict, simulator
//! throughput and serve latency of the BARRACUDA reproduction, with
//! per-layer stage times from a separate traced run.
//!
//! Three workloads (see `README.md` next to this crate for why each):
//!
//! * [`table1`] — the Table-1 corpus, each target checked in a fresh
//!   default session;
//! * [`kernel_loop`] — four interpreter shapes launched repeatedly on one
//!   persistent threaded engine;
//! * [`serve_mix`] — an in-process server behind loopback TCP, driven
//!   open-loop by a generator process.
//!
//! The benchmark calls only public functions of the crates and adds no
//! tracing inside them.

pub mod kernel_loop;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod serve_mix;
pub mod table1;

use barracuda_trace::backoff::splitmix;
use std::time::Instant;

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced end-to-end one.
    pub trace: bool,
}

/// A small deterministic generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed);
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
/// A process pays first-touch page faults and lazy initialisation once,
/// and repeating the set-up inside one process would hide that cost behind
/// the allocator's state.
pub const SETUP_REPS: usize = 15;

/// Runs one set-up of `workload` in this process and returns its seconds
/// (the `setup` subcommand).
///
/// # Errors
///
/// Returns a message for an unknown workload.
pub fn setup_once(workload: &str, opts: &RunOpts) -> Result<f64, String> {
    match workload {
        "table1" => Ok(table1::setup_once(opts)),
        "kernel-loop" => Ok(kernel_loop::setup_once()),
        "serve-mix" => Ok(serve_mix::setup_once(opts)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The median of [`SETUP_REPS`] set-ups of `workload`, each in a fresh
/// process running this binary's `setup` subcommand.
///
/// # Panics
///
/// Panics when a set-up process fails.
pub fn cold_setup_s(workload: &str, opts: &RunOpts) -> f64 {
    let exe = std::env::current_exe().expect("own executable");
    let secs: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["setup", "--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .output()
                .expect("start a set-up process");
            assert!(out.status.success(), "set-up process failed");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .expect("set-up seconds")
        })
        .collect();
    report::median(&secs)
}

/// Calls `step` until `seconds` have passed and it ran at least `min`
/// times.
pub fn run_for(seconds: f64, min: usize, mut step: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        step();
        n += 1;
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "wall_s",
    "verdicts_per_s",
    "records_per_s",
    "sim_insns_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "ok_share",
    "peak_rss_mb",
];

/// The per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: [&str; 31] = [
    "ptx.parse_s",
    "ptx.parse_calls",
    "instrument.rewrite_s",
    "instrument.instrumented_fraction",
    "simt.load_s",
    "simt.native_s",
    "simt.simulate_s",
    "simt.warp_insns",
    "simt.records",
    "trace.queue_high_water",
    "trace.producer_stall_cycles",
    "trace.records_dropped",
    "core.detect_s",
    "core.us_per_record",
    "core.uniform_read_share",
    "core.shadow_bytes",
    "runtime.check_s",
    "runtime.other_s",
    "runtime.cache_hits",
    "runtime.cache_misses",
    "serve.session_s",
    "serve.transport_s",
    "serve.proto_s",
    "serve.rejected",
    "serve.engine_builds",
    "serve.streamed_events",
    "loadgen.late_p99_ms",
    "bench.tracing_overhead_share",
    "bench.stage_sum_share",
    "bench.failed_share",
    "bench.latency_samples",
];
