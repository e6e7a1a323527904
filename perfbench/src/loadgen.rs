//! The open-loop load generator and the serve-layer measurements.
//!
//! The server runs in the benchmark process behind the loopback TCP
//! transport with [`server_config`]. A separate generator process (this binary,
//! `loadgen` subcommand) rebuilds the requests from the workload, seed and
//! request count on its command line, then sends request `j` at
//! `t0 + j / rate` over the connection the plan gives it, whatever
//! state earlier requests are in. A request held back by the previous request on
//! its connection is timed from when it was due, so a stall counts against
//! every request it delays; a request whose connection was free is timed
//! from when it was sent, so the generator's own wake-up jitter does not
//! count. It checks every verdict against the known answer and prints one
//! line per request.

use crate::layers::Target;
use crate::report::{mean, percentile, Outcome};
use barracuda_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use barracuda_serve::{
    serve_tcp_listener, CheckRequest, Request, Response, Server, ServerConfig, ServerStats,
    TcpClient, Transport,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::ops::Range;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One request of a schedule, with its known verdict.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Request kind (for the per-kind breakdown).
    pub kind: &'static str,
    /// The request.
    pub req: CheckRequest,
    /// Distinct racy locations the verdict must report.
    pub expected_races: u64,
    /// The generator connection that sends it.
    pub conn: usize,
}

impl Planned {
    /// The request checking `t`, streamed or not.
    pub fn from_target(kind: &'static str, t: &Target, stream: bool) -> Self {
        let mut req = CheckRequest::new(&t.source, &t.kernel, t.dims.grid.x, t.dims.block.x);
        req.grid = (t.dims.grid.x, t.dims.grid.y, t.dims.grid.z);
        req.block = (t.dims.block.x, t.dims.block.y, t.dims.block.z);
        req.params.clone_from(&t.params);
        req.stream = stream;
        Planned {
            kind,
            req,
            expected_races: t.expected_races,
            conn: 0,
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    /// Seconds from the schedule start to the due time.
    pub due_s: f64,
    /// Seconds the send started after its due time.
    pub late_s: f64,
    /// Seconds from the send to the terminal frame.
    pub service_s: f64,
    /// Seconds the request waited past its due time for the previous
    /// request on its connection, plus `service_s`.
    pub latency_s: f64,
    /// Terminal verdict matched the known answer.
    pub ok: bool,
    /// Device log records the server reported.
    pub records: u64,
}

/// The terminal body of a response, if it completed.
fn done_body(resp: &Response) -> Option<&barracuda_serve::DoneBody> {
    match resp {
        Response::Done(b) => Some(b),
        Response::LaunchDone { body, .. } => done_body(body),
        _ => None,
    }
}

/// Whether `resp` is the known verdict for a request expecting `races`.
pub fn verdict_ok(resp: &Response, races: u64) -> bool {
    let want = if races > 0 {
        barracuda::exitcode::RACES
    } else {
        barracuda::exitcode::CLEAN
    };
    done_body(resp).is_some_and(|b| b.races == races && !b.degraded) && resp.exit_code() == want
}

/// Sends one request over `client` and returns its terminal frame.
fn send(client: &mut TcpClient, req: &CheckRequest) -> Response {
    if req.stream {
        client
            .submit_streamed(req, &mut |_| {})
            .unwrap_or_else(|e| Response::Error {
                message: format!("transport: {e}"),
            })
    } else {
        Transport::submit(client, req)
    }
}

/// Sleeps until `due`. It does not spin: on a two-core machine a spinning
/// generator takes the core the server needs.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// The requests `workload` drives for `seed`: the `serve-mix` schedule of
/// `n` requests, or the serve probe of `table1` and `kernel-loop` cycled to
/// `n` requests. A pure function of its arguments, so the generator process
/// rebuilds from its command line the plan the benchmark process holds.
///
/// # Panics
///
/// Panics on an unknown workload.
pub fn plan(workload: &str, seed: u64, n: usize) -> Vec<Planned> {
    if workload == "serve-mix" {
        return crate::serve_mix::plan(seed, n);
    }
    probe_targets(workload, seed)
        .into_iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(j, p)| Planned { conn: j % 2, ..p })
        .collect()
}

/// The generator process: `loadgen <addr> <rate> <workload> <seed> <n>
/// <start> <end>` sends requests `start..end` of [`plan`]`(workload, seed,
/// n)`, one connection per distinct `conn`.
///
/// # Panics
///
/// Panics on malformed arguments or when the server cannot be reached.
pub fn child_main(args: &[String]) {
    let [addr, rate, workload, seed, n, start, end] = args else {
        panic!("loadgen takes 7 arguments, got {args:?}");
    };
    let num = |s: &String| -> u64 { s.parse().expect("numeric argument") };
    let rate: f64 = rate.parse().expect("rate");
    let full = plan(workload, num(seed), num(n) as usize);
    let plan = &full[num(start) as usize..num(end) as usize];
    let conns = plan.iter().map(|p| p.conn + 1).max().unwrap_or(1);
    let mut clients: Vec<TcpClient> = (0..conns)
        .map(|_| TcpClient::connect(addr.as_str()).expect("connect to the server"))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let lines = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut free_at = t0;
                    for (j, p) in plan.iter().enumerate().filter(|(_, p)| p.conn == c) {
                        let due = t0 + Duration::from_secs_f64(j as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        let resp = send(client, &p.req);
                        let done = Instant::now();
                        let held = free_at.saturating_duration_since(due);
                        free_at = done;
                        let ok = verdict_ok(&resp, p.expected_races);
                        let records = done_body(&resp).map_or(0, |b| b.records);
                        out.push(format!(
                            "R {j} {} {} {} {} {} {records}",
                            (due - t0).as_nanos(),
                            sent.saturating_duration_since(due).as_nanos(),
                            (done - sent).as_nanos(),
                            held.as_nanos(),
                            u8::from(ok)
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect::<Vec<_>>()
    });
    let mut stdout = std::io::stdout().lock();
    for l in lines {
        writeln!(stdout, "{l}").expect("stdout");
    }
}

/// The server configuration: CLI defaults, with the engine pool sized for
/// the 2-core reference host. The default follows the CPUs the process may
/// use, and `serve-mix` pins itself to one; with a single pool worker every
/// cold request would hold up the hot requests due behind it.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        pool_workers: 2,
        max_resident_engines: 2,
        ..ServerConfig::default()
    }
}

/// A server on an ephemeral loopback port, serving on its own thread.
pub struct TcpServer {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<ServerStats>>,
}

impl TcpServer {
    /// Starts a server with [`server_config`].
    ///
    /// # Panics
    ///
    /// Panics when no loopback port can be bound.
    pub fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let handle = std::thread::spawn(move || serve_tcp_listener(listener, server_config()));
        TcpServer { addr, handle }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends each request once over one connection and waits for its
    /// verdict; returns how many got the known verdict.
    ///
    /// # Panics
    ///
    /// Panics when the server cannot be reached.
    pub fn warm(&self, reqs: &[Planned]) -> usize {
        let mut c = TcpClient::connect(self.addr.as_str()).expect("connect to the server");
        reqs.iter()
            .filter(|p| verdict_ok(&send(&mut c, &p.req), p.expected_races))
            .count()
    }

    /// Shuts the server down and returns its final counters.
    ///
    /// # Panics
    ///
    /// Panics when the server thread failed.
    pub fn stop(self) -> ServerStats {
        let mut c = TcpClient::connect(self.addr.as_str()).expect("connect to the server");
        let _ = c.roundtrip(&Request::Shutdown);
        self.handle
            .join()
            .expect("server thread")
            .expect("server loop")
    }
}

/// Runs requests `range` of [`plan`]`(workload, seed, n)` open-loop at
/// `rate` requests per second from a generator process, each request over
/// its planned connection, returning each request's fate in plan order.
///
/// # Panics
///
/// Panics when the generator process cannot be started or misbehaves.
pub fn drive(
    server: &TcpServer,
    workload: &str,
    seed: u64,
    n: usize,
    range: Range<usize>,
    rate: f64,
) -> Vec<Served> {
    let exe = std::env::current_exe().expect("own executable");
    let mut child = Command::new(exe)
        .args(["loadgen", server.addr(), &rate.to_string(), workload])
        .args([seed, n as u64, range.start as u64, range.end as u64].map(|v| v.to_string()))
        .stdout(Stdio::piped())
        .spawn()
        .expect("start the generator process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut served = vec![Served::default(); range.len()];
    let mut seen = 0;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("generator output");
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 8 || f[0] != "R" {
            continue;
        }
        let j: usize = f[1].parse().expect("index");
        let ns = |i: usize| f[i].parse::<f64>().expect("nanoseconds") / 1e9;
        served[j] = Served {
            due_s: ns(2),
            late_s: ns(3),
            service_s: ns(4),
            latency_s: ns(5) + ns(4),
            ok: f[6] == "1",
            records: f[7].parse().expect("records"),
        };
        seen += 1;
    }
    let status = child.wait().expect("wait for the generator");
    assert!(status.success(), "generator process failed: {status}");
    assert_eq!(seen, range.len(), "generator answered every request");
    served
}

/// Submits `plan` sequentially through an in-process session (after
/// sending `warm` once), returning seconds per request and the server.
fn session_replay(plan: &[Planned], warm: &[Planned]) -> (Vec<f64>, Server, u64) {
    let server = Server::new(server_config());
    let session = server.session().expect("a fresh server opens sessions");
    for p in warm {
        session.submit(p.req.clone());
    }
    let mut wrong = 0;
    let secs = plan
        .iter()
        .map(|p| {
            let t0 = Instant::now();
            let resp = session.submit_streamed(p.req.clone(), &mut |_| {});
            let dt = t0.elapsed().as_secs_f64();
            if !verdict_ok(&resp, p.expected_races) {
                wrong += 1;
            }
            dt
        })
        .collect();
    (secs, server, wrong)
}

/// Seconds per request spent in the protocol encoders and decoders on the
/// frames of `plan`: the request both ways, and the verdict both ways.
fn proto_secs(plan: &[Planned]) -> f64 {
    let t0 = Instant::now();
    for p in plan {
        let req = Request::Check(p.req.clone());
        let line = encode_request(&req);
        let back = decode_request(&line).expect("request round-trips");
        assert!(back == req, "request round-trips unchanged");
        let resp = Response::Done(barracuda_serve::DoneBody {
            races: p.expected_races,
            degraded: false,
            reports: vec![format!("race at {}", p.req.kernel); p.expected_races as usize],
            exit_code: 0,
            records: 0,
            events: 0,
        });
        let rline = encode_response(&resp);
        let rback = decode_response(&rline).expect("response round-trips");
        assert!(rback == resp, "response round-trips unchanged");
    }
    t0.elapsed().as_secs_f64() / plan.len().max(1) as f64
}

/// The serve-layer metrics of a driven plan: in-process session time,
/// transport time (client service time minus session time), protocol time,
/// the server's counters and how late the generator ran. Returns the
/// session replay's cache (hits, misses).
pub fn push_serve_metrics(
    plan: &[Planned],
    warm: &[Planned],
    served: &[Served],
    stats: &ServerStats,
    out: &mut Outcome,
) -> (u64, u64) {
    let (session, server, wrong) = session_replay(plan, warm);
    out.attempted += plan.len() as u64;
    out.failed += wrong;
    let cache = server.module_cache();
    let cache_counts = (cache.hits(), cache.len() as u64);
    let _ = server.shutdown();
    let session_s = mean(&session);
    let service_s = mean(&served.iter().map(|s| s.service_s).collect::<Vec<_>>());
    let late_ms: Vec<f64> = served.iter().map(|s| s.late_s * 1e3).collect();
    out.push("serve.session_s", session_s, "s");
    out.push("serve.transport_s", service_s - session_s, "s");
    out.push("serve.proto_s", proto_secs(plan), "s");
    out.push("serve.rejected", stats.rejected as f64, "count");
    out.push("serve.engine_builds", stats.engine_builds as f64, "count");
    out.push(
        "serve.streamed_events",
        stats.streamed_events as f64,
        "count",
    );
    out.push("loadgen.late_p99_ms", percentile(&late_ms, 99.0), "ms");
    cache_counts
}

/// Requests per second of the serve probe run by the `table1` and
/// `kernel-loop` traced runs.
const PROBE_RATE: f64 = 40.0;

/// The distinct requests of the serve probe of `workload` (`table1` or
/// `kernel-loop`): its smallest targets, racy ones streamed.
///
/// # Panics
///
/// Panics on any other workload.
fn probe_targets(workload: &str, seed: u64) -> Vec<Planned> {
    let targets = match workload {
        "table1" => crate::table1::probe_targets(seed),
        "kernel-loop" => crate::kernel_loop::shapes(),
        other => panic!("no serve probe for workload {other}"),
    };
    targets
        .iter()
        .map(|t| Planned::from_target("probe", t, t.expected_races > 0))
        .collect()
}

/// The serve probe of the non-serving workloads' traced runs: their
/// probe targets sent open-loop over two connections for about a second,
/// then the serve-layer metrics.
pub fn probe(workload: &str, seed: u64, out: &mut Outcome) {
    let n = PROBE_RATE as usize;
    let warm = probe_targets(workload, seed);
    let plan = plan(workload, seed, n);
    let server = TcpServer::start();
    let warmed = server.warm(&warm);
    let served = drive(&server, workload, seed, n, 0..n, PROBE_RATE);
    let stats = server.stop();
    for s in &served {
        out.tally(s.ok);
    }
    out.attempted += warm.len() as u64;
    out.failed += (warm.len() - warmed) as u64;
    push_serve_metrics(&plan, &warm, &served, &stats, out);
}
