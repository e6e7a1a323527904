//! Spans around the public calls of each layer, and the stage-by-stage
//! replay of one check.
//!
//! The pipeline is `ptx` parse → `instrument` → `simt` load/simulate →
//! `trace` queues → `core` detector → `runtime` engine → `serve`. The
//! benchmark adds no tracing inside the crates: it times each layer from
//! outside, by calling the same public functions `Engine::check` calls, one
//! at a time, on the same inputs.

use barracuda::BarracudaConfig;
use barracuda_core::{Detector, Worker};
use barracuda_instrument::{instrument_module, InstrumentStats};
use barracuda_ptx::ast::Module;
use barracuda_serve::ParamSpec;
use barracuda_simt::{Gpu, GpuConfig, LoadedKernel, ParamValue, VecSink};
use barracuda_trace::{GridDims, Record};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `ptx.parse`.
    pub name: &'static str,
    /// The operation (check, launch, request) the call served; every span
    /// of one operation shares it.
    pub op: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, from the tracer's origin.
    pub start: Duration,
    /// End, from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An in-memory span recorder, read out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean seconds per span named `name` (0 when there is none).
    pub fn mean(&self, name: &str) -> f64 {
        crate::report::mean(&self.durations(name))
    }
}

/// One check the benchmark asks for: a PTX module, its launch and the
/// verdict it must get.
#[derive(Debug, Clone)]
pub struct Target {
    /// Display name.
    pub name: String,
    /// PTX text.
    pub source: Arc<str>,
    /// Kernel entry.
    pub kernel: String,
    /// Launch geometry.
    pub dims: GridDims,
    /// Kernel parameters.
    pub params: Vec<ParamSpec>,
    /// The known number of distinct racy locations.
    pub expected_races: u64,
}

impl Target {
    /// Allocates the parameters on `gpu`.
    pub fn alloc(&self, gpu: &mut Gpu) -> Vec<ParamValue> {
        self.params
            .iter()
            .map(|p| match *p {
                ParamSpec::Buf(n) => ParamValue::Ptr(gpu.malloc(n)),
                ParamSpec::U32(v) => ParamValue::U32(v),
            })
            .collect()
    }
}

/// What the front end (parse → instrument → load) produced.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The parsed, uninstrumented module (for native runs).
    pub module: Module,
    /// The instrumented kernel.
    pub kernel: LoadedKernel,
    /// Instrumentation statistics.
    pub istats: InstrumentStats,
}

/// Runs the front end of a check stage by stage: `barracuda_ptx::parse`,
/// `instrument_module`, `LoadedKernel::load`.
///
/// # Panics
///
/// Panics when the target does not parse or load: benchmark inputs are
/// generated valid.
pub fn front_end(tr: &mut Tracer, op: u64, t: &Target, cfg: &BarracudaConfig) -> Loaded {
    let module = tr.span("ptx.parse", op, |_| {
        barracuda_ptx::parse(&t.source).expect("benchmark PTX parses")
    });
    let (inst, istats) = tr.span("instrument.rewrite", op, |_| {
        instrument_module(&module, &cfg.instrument)
    });
    let kernel = tr.span("simt.load", op, |_| {
        LoadedKernel::load(&inst, &t.kernel).expect("benchmark kernel loads")
    });
    Loaded {
        module,
        kernel,
        istats,
    }
}

/// Instrumented over static instructions, summed over several modules.
pub fn instrumented_fraction(stats: &[InstrumentStats]) -> f64 {
    let statics: usize = stats.iter().map(|s| s.static_instructions).sum();
    let inst: usize = stats.iter().map(|s| s.instrumented_instructions).sum();
    if statics == 0 {
        0.0
    } else {
        inst as f64 / statics as f64
    }
}

/// Deterministic tallies of one replayed launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackEnd {
    /// Warp-instructions simulated.
    pub warp_insns: u64,
    /// Device log records.
    pub records: u64,
    /// Global reads whose active lanes (two or more) all load one address.
    pub uniform_reads: u64,
    /// Races the standalone detector found.
    pub races: u64,
}

impl BackEnd {
    /// Adds another launch's tallies.
    pub fn add(&mut self, o: &BackEnd) {
        self.warp_insns += o.warp_insns;
        self.records += o.records;
        self.uniform_reads += o.uniform_reads;
        self.races += o.races;
    }
}

/// True for a global read whose two or more active lanes share one address.
pub fn is_uniform_global_read(r: &Record) -> bool {
    if r.kind != 0 || r.space != 0 || r.mask.count_ones() < 2 {
        return false;
    }
    let mut lanes = (0..32).filter(|l| r.mask & (1 << l) != 0);
    let first = r.addrs[lanes.next().expect("mask has lanes")];
    lanes.all(|l| r.addrs[l] == first)
}

/// Runs the back end of a check stage by stage: `Gpu::launch_loaded` into
/// a `VecSink`, then `Worker::process_record` over the records.
///
/// # Panics
///
/// Panics when the launch fails: benchmark inputs are generated to finish.
pub fn back_end(
    tr: &mut Tracer,
    op: u64,
    t: &Target,
    lk: &LoadedKernel,
    gpu: &GpuConfig,
) -> BackEnd {
    let mut gpu = Gpu::new(gpu.clone());
    let params = t.alloc(&mut gpu);
    let sink = VecSink::new();
    let stats = tr.span("simt.simulate", op, |_| {
        gpu.launch_loaded(lk, t.dims, &params, Some(&sink))
            .expect("benchmark launch finishes")
    });
    let recs = sink.take();
    let det = Detector::new(t.dims, lk.kernel.shared_size());
    tr.span("core.detect", op, |_| {
        let mut w = Worker::new(&det);
        for r in &recs {
            w.process_record(r);
        }
    });
    BackEnd {
        warp_insns: stats.instructions,
        records: recs.len() as u64,
        uniform_reads: recs.iter().filter(|r| is_uniform_global_read(r)).count() as u64,
        races: det.races().race_count() as u64,
    }
}

/// A stage-by-stage replay of a list of checks.
#[derive(Debug, Default)]
pub struct Replay {
    /// The stage spans.
    pub tracer: Tracer,
    /// Tallies summed over the replayed launches.
    pub sum: BackEnd,
    /// Replayed launches whose race count missed the known answer.
    pub mismatches: u64,
    /// Instrumentation statistics of each distinct module.
    pub istats: Vec<InstrumentStats>,
}

/// Replays each of `ts` stage by stage the way one engine checks them in
/// turn: the front end only on the first sight of a module (the module
/// cache), then simulation into a `VecSink` and detection. Modules in
/// `warm` count as already cached. The native baseline runs once per
/// distinct module. Each target gets its own operation id.
pub fn replay(ts: &[Target], warm: &[Target], cfg: &BarracudaConfig) -> Replay {
    let mut r = Replay::default();
    let mut cache: HashMap<Arc<str>, LoadedKernel> = HashMap::new();
    let mut warm_spans = Tracer::default();
    for t in warm {
        let loaded = front_end(&mut warm_spans, 0, t, cfg);
        cache.insert(Arc::clone(&t.source), loaded.kernel);
    }
    for (op, t) in ts.iter().enumerate() {
        let op = op as u64;
        if !cache.contains_key(&t.source) {
            let loaded = front_end(&mut r.tracer, op, t, cfg);
            native(&mut r.tracer, op, t, &loaded.module, &cfg.gpu);
            r.istats.push(loaded.istats);
            cache.insert(Arc::clone(&t.source), loaded.kernel);
        }
        let be = back_end(&mut r.tracer, op, t, &cache[&t.source], &cfg.gpu);
        if be.races != t.expected_races {
            r.mismatches += 1;
        }
        r.sum.add(&be);
    }
    r
}

/// Runs the uninstrumented kernel with no sink (`Gpu::launch`): the native
/// baseline the detection overhead is measured against.
///
/// # Panics
///
/// Panics when the launch fails.
pub fn native(tr: &mut Tracer, op: u64, t: &Target, module: &Module, gpu: &GpuConfig) {
    let mut gpu = Gpu::new(gpu.clone());
    let params = t.alloc(&mut gpu);
    tr.span("simt.native", op, |_| {
        gpu.launch(module, &t.kernel, t.dims, &params)
            .expect("benchmark native launch finishes")
    });
}

/// Per-call means of the replayed stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSums {
    /// Front-end calls per operation.
    pub parse_calls: f64,
    /// Seconds per `barracuda_ptx::parse`.
    pub parse_s: f64,
    /// Seconds per `instrument_module`.
    pub rewrite_s: f64,
    /// Seconds per `LoadedKernel::load`.
    pub load_s: f64,
    /// Seconds per `Gpu::launch` without a sink.
    pub native_s: f64,
    /// Seconds per `Gpu::launch_loaded` into a `VecSink`.
    pub simulate_s: f64,
    /// Seconds per detector pass over one launch's records.
    pub detect_s: f64,
    /// Seconds in every detector pass of the replay.
    pub detect_total_s: f64,
}

impl StageSums {
    /// Reads the replay spans of `tr`; `parse_calls` is how many front-end
    /// runs the measured checks made per operation (module-cache misses).
    pub fn from_tracer(tr: &Tracer, parse_calls: f64) -> Self {
        StageSums {
            parse_calls,
            parse_s: tr.mean("ptx.parse"),
            rewrite_s: tr.mean("instrument.rewrite"),
            load_s: tr.mean("simt.load"),
            native_s: tr.mean("simt.native"),
            simulate_s: tr.mean("simt.simulate"),
            detect_s: tr.mean("core.detect"),
            detect_total_s: tr.total("core.detect"),
        }
    }

    /// Replayed seconds per operation of the stages a check runs (the
    /// native baseline is not one of them).
    pub fn per_op(&self) -> f64 {
        self.parse_calls * (self.parse_s + self.rewrite_s + self.load_s)
            + self.simulate_s
            + self.detect_s
    }
}

/// The per-layer metrics derived from a stage replay and the measured
/// `Engine::check` time per operation. `replay` sums the tallies of every
/// replayed launch; `shadow_bytes` is the largest shadow of one check.
pub fn push_stage_metrics(
    out: &mut crate::report::Outcome,
    st: &StageSums,
    check_s: f64,
    replay: &BackEnd,
    instrumented_fraction: f64,
    shadow_bytes: u64,
) {
    out.push("ptx.parse_s", st.parse_s, "s");
    out.push("ptx.parse_calls", st.parse_calls, "calls/op");
    out.push("instrument.rewrite_s", st.rewrite_s, "s");
    out.push(
        "instrument.instrumented_fraction",
        instrumented_fraction,
        "share",
    );
    out.push("simt.load_s", st.load_s, "s");
    out.push("simt.native_s", st.native_s, "s");
    out.push("simt.simulate_s", st.simulate_s, "s");
    out.push("simt.warp_insns", replay.warp_insns as f64, "count");
    out.push("simt.records", replay.records as f64, "count");
    out.push("core.detect_s", st.detect_s, "s");
    let per_record = if replay.records == 0 {
        0.0
    } else {
        st.detect_total_s * 1e6 / replay.records as f64
    };
    out.push("core.us_per_record", per_record, "us");
    out.push(
        "core.uniform_read_share",
        if replay.records == 0 {
            0.0
        } else {
            replay.uniform_reads as f64 / replay.records as f64
        },
        "share",
    );
    out.push("core.shadow_bytes", shadow_bytes as f64, "B");
    out.push("runtime.check_s", check_s, "s");
    out.push("runtime.other_s", check_s - st.per_op(), "s");
    out.push(
        "bench.stage_sum_share",
        if check_s > 0.0 {
            st.per_op() / check_s
        } else {
            0.0
        },
        "share",
    );
}
