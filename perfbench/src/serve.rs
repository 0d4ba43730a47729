//! `serve_pipelined` and `serve_open`: the HTTP service booted exactly as
//! `rls-experiments serve run` boots it with default flags (n=64, m=512,
//! RLS on the complete graph, 8 rings per arrival, telemetry registry
//! attached, `ServerConfig::default()` but an ephemeral port), driven over
//! loopback from this process by the benchmark's own generators.
//!
//! Both mixes alternate arrivals and departures on each connection, so the
//! population never falls below m0 minus the requests in flight and no
//! request can fail by design: every non-2xx reply, transport error or
//! timeout is a real failure.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rls_core::RebalancePolicy;
use rls_graph::Topology;
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, RngExt};
use rls_serve::{
    http, serve, ArriveRequest, DepartRequest, HttpServer, ServeCore, ServePolicy, ServerConfig,
    StatsReply,
};
use rls_workloads::{ArrivalProcess, Workload};

use crate::layers;
use crate::report::{describe, Report};
use crate::stats::{beyond, Latencies, Recorder, Summary, Windowed};
use crate::trace::Tracer;
use crate::Run;

/// The default server shape of `rls-experiments serve run`.
pub const N: usize = 64;
pub const M0: u64 = 512;
/// Requests in flight per connection in the closed loop.
pub const DEPTH: usize = 16;
/// Connections of the closed loop.
pub const CONNECTIONS: usize = 2;
/// Kept latency samples per recorder; bounded so the generator's memory
/// does not grow with the server's throughput.
const KEEP: usize = 1 << 16;
/// Latency samples kept per window and connection.
const KEEP_PER_WINDOW: usize = 4096;
/// Closed-loop throughput and latency percentiles are medians over windows
/// of this length.
const WINDOW_S: f64 = 0.25;
/// Open-loop latency percentiles are medians over windows of this length
/// (each within one rung).
const OPEN_WINDOW_S: f64 = 2.0;
/// Open-loop rungs: offered request rates.  `light` leaves gaps longer than
/// any spin window, so each request takes the server's idle/wake path;
/// `heavy` is over half of what one connection sustains one request at a
/// time (one per `/healthz` round trip, about 50 us on a 2-vCPU Xeon VM).
pub const RUNGS: [(&str, f64); 3] = [("light", 1_000.0), ("medium", 4_000.0), ("heavy", 12_000.0)];
/// Share of reads (`GET /v1/stats`) in the open mix.
const STATS_SHARE: f64 = 0.1;
/// The latency objective of `slo_max_rps`.
const SLO_P99_US: f64 = 1_000.0;
/// An open-loop run is invalid (not slow) when its median send lag exceeds
/// this share of a rung's mean inter-arrival gap.
const MAX_LAG_SHARE: f64 = 0.5;

/// The engine and core `serve run` builds with default flags, telemetry
/// registry attached.
pub fn default_core(seed: u64) -> ServeCore {
    let arrivals = ArrivalProcess::Poisson { rate_per_bin: 1.0 };
    let params = LiveParams::balanced(arrivals, N, M0).expect("default serve params are valid");
    let initial = Workload::Balanced
        .generate(N, M0, &mut rng_from_seed(seed ^ 0x1717))
        .expect("balanced start");
    let engine = LiveEngine::with_policy(
        initial,
        params,
        RebalancePolicy::rls(),
        Topology::Complete,
        seed ^ 0x6AF1,
    )
    .expect("default engine");
    let rings_per_arrival = M0 as f64 / arrivals.total_rate(N);
    let mut core = ServeCore::new(engine, seed, 0.0, ServePolicy { rings_per_arrival });
    core.attach_metrics(&Registry::new());
    core
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

/// The exact request bytes the generators send.
#[derive(Debug, Clone)]
pub struct Requests {
    pub arrive: Vec<u8>,
    pub depart: Vec<u8>,
    pub stats: Vec<u8>,
    pub healthz: Vec<u8>,
}

pub fn requests() -> Requests {
    let build = |method: &str, path: &str| {
        let mut out = Vec::new();
        http::append_request(&mut out, method, path, b"");
        out
    };
    Requests {
        arrive: build("POST", "/v1/arrive"),
        depart: build("POST", "/v1/depart"),
        stats: build("GET", "/v1/stats"),
        healthz: build("GET", "/healthz"),
    }
}

/// Boot `reps` servers, timing each from core construction until its first
/// `/healthz` answer; all but the last are shut down again.  Returns the
/// boot times and the running server.
pub fn boot(seed: u64, reps: usize) -> Result<(Vec<f64>, HttpServer), String> {
    let reqs = requests();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let t = Instant::now();
        let server = serve(default_core(seed), &server_config()).map_err(|e| e.to_string())?;
        let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        let (status, _) = conn.call(&reqs.healthz).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        if status != 200 {
            return Err(format!("boot {i}: /healthz answered {status}"));
        }
        drop(conn);
        if i + 1 == reps {
            last = Some(server);
        } else {
            server.shutdown();
        }
    }
    Ok((times, last.expect("reps >= 1")))
}

/// Set-up time: the boots before the run plus as many after it, so the
/// median spans the run rather than its first milliseconds.
fn setup_after(seed: u64, mut before: Vec<f64>) -> Result<Summary, String> {
    let (after, server) = boot(seed, before.len())?;
    server.shutdown();
    before.extend(after);
    Ok(Summary::of(&before))
}

/// The read half of a keep-alive connection: responses parsed in place
/// with the server's own `parse_frame`.
pub struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Reader {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// Read the next response and hand its status and body to `f`.
    pub fn recv_with<T>(&mut self, f: impl FnOnce(u16, &[u8]) -> T) -> io::Result<T> {
        loop {
            if let Some((frame, used)) = http::parse_frame(&self.buf[self.start..self.end])? {
                let out = f(parse_status(frame.start_line)?, frame.body);
                self.start += used;
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                }
                return Ok(out);
            }
            if self.end == self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
                if self.end == self.buf.len() {
                    self.buf.resize(2 * self.buf.len(), 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..])? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                got => self.end += got,
            }
        }
    }

    pub fn recv_status(&mut self) -> io::Result<u16> {
        self.recv_with(|status, _| status)
    }
}

fn parse_status(start_line: &str) -> io::Result<u16> {
    start_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))
}

/// One keep-alive connection: requests are queued and written in one
/// syscall per burst.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    reader: Reader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let reader = Reader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            out: Vec::with_capacity(4096),
            reader,
        })
    }

    pub fn queue(&mut self, request: &[u8]) {
        self.out.extend_from_slice(request);
    }

    pub fn flush(&mut self) -> io::Result<()> {
        let res = self.stream.write_all(&self.out);
        self.out.clear();
        res
    }

    pub fn recv_status(&mut self) -> io::Result<u16> {
        self.reader.recv_status()
    }

    pub fn recv_with<T>(&mut self, f: impl FnOnce(u16, &[u8]) -> T) -> io::Result<T> {
        self.reader.recv_with(f)
    }

    /// Split into a write half and a read half (the open loop's two
    /// threads).
    pub fn split(self) -> (TcpStream, Reader) {
        (self.stream, self.reader)
    }

    /// One request, one response: `(status, body)`.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.queue(request);
        self.flush()?;
        self.recv_with(|s, b| (s, b.to_vec()))
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one closed-loop connection saw.
struct ConnStats {
    attempted: u64,
    failed: u64,
    ok_arrive: u64,
    ok_depart: u64,
    latency: Windowed,
    flush: Recorder,
    wait: Recorder,
    think: Recorder,
    windows: Vec<u64>,
    tracer: Tracer,
}

/// One closed-loop connection: bursts of `DEPTH` requests alternating
/// arrive and depart, the next burst written when the last reply of the
/// previous one is in.  Latency runs from the burst's write to each reply.
#[allow(clippy::too_many_arguments)]
fn closed_conn(
    addr: SocketAddr,
    reqs: &Requests,
    origin: Instant,
    measure_from: f64,
    end_at: f64,
    windows: usize,
    tracer: Tracer,
    rec_seed: u64,
) -> ConnStats {
    let mut s = ConnStats {
        attempted: 0,
        failed: 0,
        ok_arrive: 0,
        ok_depart: 0,
        latency: Windowed::new(WINDOW_S, windows, KEEP_PER_WINDOW, rec_seed),
        flush: Recorder::new(KEEP, rec_seed ^ 1),
        wait: Recorder::new(KEEP, rec_seed ^ 2),
        think: Recorder::new(KEEP, rec_seed ^ 3),
        windows: vec![0; windows],
        tracer,
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            s.attempted = 1;
            s.failed = 1;
            return s;
        }
    };
    let since = |t: Instant| (t - origin).as_secs_f64();
    let mut last_done: Option<Instant> = None;
    while since(Instant::now()) < end_at {
        for i in 0..DEPTH {
            conn.queue(if i % 2 == 0 {
                &reqs.arrive
            } else {
                &reqs.depart
            });
        }
        let burst = s.tracer.id();
        let burst_start = s.tracer.now_ns();
        let sent = Instant::now();
        let measuring = since(sent) >= measure_from;
        if let (Some(done), true) = (last_done, measuring) {
            s.think.record(us(sent - done));
        }
        s.attempted += DEPTH as u64;
        if conn.flush().is_err() {
            s.failed += DEPTH as u64;
            break;
        }
        let flushed = Instant::now();
        let mut broken = false;
        for i in 0..DEPTH {
            match conn.recv_status() {
                Ok(200) if i % 2 == 0 => s.ok_arrive += 1,
                Ok(200) => s.ok_depart += 1,
                Ok(_) => s.failed += 1,
                Err(_) => {
                    s.failed += (DEPTH - i) as u64;
                    broken = true;
                    break;
                }
            }
            if measuring {
                let now = Instant::now();
                s.latency.record(since(now) - measure_from, us(now - sent));
            }
            if s.tracer.enabled() {
                let id = s.tracer.id();
                let now = s.tracer.now_ns();
                s.tracer
                    .record(id, burst, "client.request", burst_start, now);
            }
        }
        if broken {
            break;
        }
        let done = Instant::now();
        s.tracer
            .record(burst, 0, "client.burst", burst_start, s.tracer.now_ns());
        if measuring {
            s.flush.record(us(flushed - sent));
            s.wait.record(us(done - flushed));
            let slot = ((since(done) - measure_from) / WINDOW_S) as usize;
            if let Some(w) = s.windows.get_mut(slot) {
                *w += DEPTH as u64;
            }
        }
        last_done = Some(done);
    }
    s
}

/// A closed-loop phase over `connections` connections.
pub struct ClosedPhase {
    pub attempted: u64,
    pub failed: u64,
    pub ok_arrive: u64,
    pub ok_depart: u64,
    /// Completed requests per second, per window.
    pub rate: Summary,
    pub latency: Latencies,
    /// Per-window p50 and p90 of the latency.
    pub p50: Summary,
    pub p90: Summary,
    pub flush: Latencies,
    pub wait: Latencies,
    pub think: Latencies,
}

/// Run one closed-loop connection per thread for `warm_s + measure_s`
/// seconds, measuring after the warm-up.
pub fn closed_phase(
    addr: SocketAddr,
    connections: usize,
    warm_s: f64,
    measure_s: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> ClosedPhase {
    let reqs = requests();
    let windows = ((measure_s / WINDOW_S) as usize).max(1);
    let origin = Instant::now();
    let stats: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let reqs = &reqs;
                let t = tracer.child((c as u64 + 1) << 40);
                scope.spawn(move || {
                    closed_conn(
                        addr,
                        reqs,
                        origin,
                        warm_s,
                        warm_s + measure_s,
                        windows,
                        t,
                        seed ^ c as u64,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let windowed: Vec<&Windowed> = stats.iter().map(|s| &s.latency).collect();
    let mut per_window = vec![0u64; windows];
    for s in &stats {
        for (w, c) in per_window.iter_mut().zip(&s.windows) {
            *w += c;
        }
    }
    let rates: Vec<f64> = per_window.iter().map(|&c| c as f64 / WINDOW_S).collect();
    let mut phase = ClosedPhase {
        attempted: 0,
        failed: 0,
        ok_arrive: 0,
        ok_depart: 0,
        rate: Summary::of(&rates),
        latency: Windowed::all(&windowed),
        p50: Summary::of(&Windowed::per_window(&windowed, 0.5)),
        p90: Summary::of(&Windowed::per_window(&windowed, 0.9)),
        flush: Latencies::merge(&stats.iter().map(|s| &s.flush).collect::<Vec<_>>()),
        wait: Latencies::merge(&stats.iter().map(|s| &s.wait).collect::<Vec<_>>()),
        think: Latencies::merge(&stats.iter().map(|s| &s.think).collect::<Vec<_>>()),
    };
    for s in stats {
        phase.attempted += s.attempted;
        phase.failed += s.failed;
        phase.ok_arrive += s.ok_arrive;
        phase.ok_depart += s.ok_depart;
        tracer.absorb(s.tracer);
    }
    phase
}

/// `p{q}` of `l` with the count of samples beyond it, for the ledger.
fn pct(l: &Latencies, q: f64) -> String {
    format!(
        "p{} of {} samples ({} beyond)",
        q * 100.0,
        l.count(),
        beyond(l.count(), q)
    )
}

/// Read `/v1/stats` on a fresh connection.
fn fetch_stats(addr: SocketAddr) -> Result<StatsReply, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let (status, body) = conn.call(&requests().stats).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/v1/stats answered {status}"));
    }
    serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| format!("stats reply: {e}"))
}

pub fn run_pipelined(run: &Run, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let seed = run.derive("serve.boot");
    let (setup, server) = boot(seed, 21)?;
    let addr = server.addr();
    report.info(format!("server config: {:?}", server_config()));
    report.info(format!(
        "closed loop: {CONNECTIONS} connections x depth {DEPTH}, arrive/depart alternating"
    ));
    let warm = 0.5;
    let measure = if run.trace {
        ((run.seconds - 3.0) / 2.0).max(0.5)
    } else {
        (run.seconds - warm - 0.5).max(1.0)
    };
    let mut quiet = Tracer::new(Instant::now(), false, 0);
    let untraced = closed_phase(
        addr,
        CONNECTIONS,
        warm,
        measure,
        run.derive("serve.rec"),
        &mut quiet,
    );
    let traced = run.trace.then(|| {
        closed_phase(
            addr,
            CONNECTIONS,
            0.1,
            measure,
            run.derive("serve.rec.t"),
            tracer,
        )
    });

    // Correctness: m is conserved across the replies and the final stats.
    let phases: Vec<&ClosedPhase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let arrived: u64 = phases.iter().map(|p| p.ok_arrive).sum();
    let departed: u64 = phases.iter().map(|p| p.ok_depart).sum();
    for p in &phases {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }
    let stats = fetch_stats(addr)?;
    report.attempted += 1;
    let expect_m = M0 + arrived - departed;
    report.check(
        format!(
            "/v1/stats m = m0 + arrivals - departures ({} = {M0} + {arrived} - {departed})",
            stats.m
        ),
        stats.m == expect_m
            && stats.counters.arrivals == arrived
            && stats.counters.departures == departed,
    );

    if run.trace {
        let traced = traced.as_ref().expect("traced phase");
        layers::server_layers(addr, report)?;
        let core = server.shutdown();
        check_core(&core, expect_m, report);
        report.set(
            "trace.overhead_ratio",
            untraced.rate.median / traced.rate.median,
            "untraced / traced closed-loop throughput (ns per request, traced over untraced)",
        );
        client_layers(&untraced, report);
        layers::serve_layers(&core, &requests(), run, report)?;
        let e2e_ns = 1e9 / untraced.rate.median;
        let rows = layers::serve_residual(report, e2e_ns, 0.5, 0.5, 0.0);
        layers::reconcile(report, "request", e2e_ns, rows);
        let live = core.engine().clone();
        layers::sim_layers(live.config().clone(), false, 1 << 20, run, report)?;
        layers::engine_layers(&live, run, report)?;
        crate::theorem1::small_campaign_layers(run, report, tracer)?;
        return Ok(());
    }
    let core = server.shutdown();
    check_core(&core, expect_m, report);
    let setup = setup_after(seed, setup)?;
    report.set(
        "setup_s",
        setup.median,
        format!("server boot to first /healthz answer; {}", describe(&setup)),
    );
    report.set(
        "ops_per_s",
        untraced.rate.median,
        format!(
            "requests_per_s: median over {WINDOW_S} s windows; {}",
            describe(&untraced.rate)
        ),
    );
    report.set(
        "latency_p50_us",
        untraced.p50.median,
        format!(
            "burst written -> reply read; per-{WINDOW_S} s-window p50, {}; whole run {}",
            describe(&untraced.p50),
            pct(&untraced.latency, 0.5)
        ),
    );
    report.info(format!(
        "latency tail: per-window p90 {}; whole-run {} = {:.3} us",
        describe(&untraced.p90),
        pct(&untraced.latency, 0.99),
        untraced.latency.quantile(0.99)
    ));
    Ok(())
}

/// The final core must agree with the replies: same m, index in sync.
fn check_core(core: &ServeCore, expect_m: u64, report: &mut Report) {
    let engine = core.engine();
    report.check(
        "final engine: m conserved and Fenwick index matches the loads",
        engine.config().m() == expect_m && engine.index().matches(engine.config()),
    );
}

/// The generator's own costs (they must not move between two commits).
pub fn client_layers(phase: &ClosedPhase, report: &mut Report) {
    report.set(
        "client.flush_us",
        phase.flush.quantile(0.5),
        pct(&phase.flush, 0.5),
    );
    report.set(
        "client.wait_us",
        phase.wait.quantile(0.5),
        pct(&phase.wait, 0.5),
    );
    report.set(
        "client.send_lag_p99_us",
        phase.think.quantile(0.99),
        format!(
            "closed loop: last reply -> next burst; {}",
            pct(&phase.think, 0.99)
        ),
    );
    report.set(
        "client.max_outstanding",
        DEPTH as f64,
        "requests in flight per connection",
    );
}

/// One planned open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Due time, nanoseconds after the plan's origin.
    pub due_ns: u64,
    pub kind: Kind,
    pub rung: usize,
    /// Latency window within the rung (`OPEN_WINDOW_S` long).
    pub window: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Arrive,
    Depart,
    Stats,
}

/// Pause between rungs so one rung's backlog cannot leak into the next.
const RUNG_PAUSE_NS: u64 = 50_000_000;
/// The sender sleeps only while the next due time is further away than
/// this, then yields until it arrives: `sleep` can overshoot by far more
/// than a heavy rung's gap.
const SPIN_NS: u64 = 250_000;
/// Lead time before the first due request.
const LEAD_NS: u64 = 5_000_000;

/// The open-loop schedule: Poisson arrivals at each rung's rate for
/// `rung_s` seconds; about one request in ten reads `/v1/stats`, the rest
/// alternate arrive and depart.
pub fn open_plan(seed: u64, rung_s: f64) -> Vec<Planned> {
    let mut rng = rng_from_seed(seed);
    let mut plan = Vec::new();
    let mut start = LEAD_NS;
    let mut arrive_next = true;
    for (rung, &(_, rate)) in RUNGS.iter().enumerate() {
        let gap = Exponential::new(rate).expect("positive rate");
        let end = start + (rung_s * 1e9) as u64;
        let mut t = start as f64;
        loop {
            t += gap.sample(&mut rng) * 1e9;
            if t >= end as f64 {
                break;
            }
            let kind = if rng.next_f64() < STATS_SHARE {
                Kind::Stats
            } else {
                arrive_next = !arrive_next;
                if arrive_next {
                    Kind::Depart
                } else {
                    Kind::Arrive
                }
            };
            plan.push(Planned {
                due_ns: t as u64,
                kind,
                rung,
                window: ((t - start as f64) / (OPEN_WINDOW_S * 1e9)) as usize,
            });
        }
        start = end + RUNG_PAUSE_NS;
    }
    plan
}

/// What the open loop measured, per rung.
pub struct OpenPhase {
    /// Latency from the due time, in windows, per rung.
    pub latency: Vec<Windowed>,
    /// Send lag (write time minus due time), per rung.
    pub lag: Vec<Latencies>,
    pub wait: Latencies,
    pub flush: Latencies,
    pub achieved: Vec<f64>,
    pub max_outstanding: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl OpenPhase {
    /// Every request of every rung.
    fn pooled(&self) -> Latencies {
        Windowed::all(&self.latency.iter().collect::<Vec<_>>())
    }
}

/// Drive `plan` on one connection: the sender writes each request at its
/// due time whether or not earlier replies are in (everything already due
/// goes out in one write), the receiver times each reply from its due
/// time.  Two threads, one connection.
pub fn open_phase(
    addr: SocketAddr,
    plan: &[Planned],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<OpenPhase, String> {
    let reqs = requests();
    let (mut writer, mut reader) = Conn::connect(addr).map_err(|e| e.to_string())?.split();
    let received = AtomicU64::new(0);
    let write_ns: Vec<AtomicU64> = plan.iter().map(|_| AtomicU64::new(0)).collect();
    let batch_of: Vec<AtomicU64> = plan.iter().map(|_| AtomicU64::new(0)).collect();
    let rungs = RUNGS.len();
    let windows = plan.iter().map(|p| p.window + 1).max().unwrap_or(0);
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let base_ns = tracer.now_ns();
    let mut recv_tracer = tracer.child(1 << 44);

    let (recv_side, send_side) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut latency: Vec<Windowed> = (0..rungs)
                .map(|r| Windowed::new(OPEN_WINDOW_S, windows, KEEP, seed ^ r as u64))
                .collect();
            let mut wait = Recorder::new(KEEP, seed ^ 0x57);
            let mut first_due = vec![u64::MAX; rungs];
            let mut last_done = vec![0u64; rungs];
            let mut count = vec![0u64; rungs];
            let mut failed = 0u64;
            for (i, p) in plan.iter().enumerate() {
                match reader.recv_status() {
                    Ok(200) => {}
                    Ok(_) => failed += 1,
                    Err(_) => {
                        failed += (plan.len() - i) as u64;
                        break;
                    }
                }
                let t = now_ns();
                latency[p.rung].record_in(p.window, t.saturating_sub(p.due_ns) as f64 / 1e3);
                wait.record(t.saturating_sub(write_ns[i].load(Ordering::Acquire)) as f64 / 1e3);
                first_due[p.rung] = first_due[p.rung].min(p.due_ns);
                last_done[p.rung] = t;
                count[p.rung] += 1;
                if recv_tracer.enabled() {
                    let parent = batch_of[i].load(Ordering::Acquire);
                    recv_tracer.record(
                        (1 << 44) + i as u64 + 1,
                        parent,
                        "client.request",
                        base_ns + p.due_ns,
                        base_ns + t,
                    );
                }
                received.store(i as u64 + 1, Ordering::Release);
            }
            let achieved: Vec<f64> = (0..rungs)
                .map(|r| {
                    count[r] as f64 * 1e9 / last_done[r].saturating_sub(first_due[r]).max(1) as f64
                })
                .collect();
            (latency, wait, achieved, failed)
        });

        let mut lag: Vec<Recorder> = (0..rungs)
            .map(|r| Recorder::new(KEEP, seed ^ 0x100 ^ r as u64))
            .collect();
        let mut flush = Recorder::new(KEEP, seed ^ 0x200);
        let mut out = Vec::with_capacity(64 * 1024);
        let mut max_outstanding = 0u64;
        let mut i = 0;
        let mut send_error = false;
        while i < plan.len() {
            let due = plan[i].due_ns;
            let now = now_ns();
            if due > now + SPIN_NS + 100_000 {
                std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
                continue;
            }
            while now_ns() < due {
                std::thread::yield_now();
            }
            let now = now_ns();
            let batch = tracer.id();
            let mut j = i;
            while j < plan.len() && plan[j].due_ns <= now {
                out.extend_from_slice(match plan[j].kind {
                    Kind::Arrive => &reqs.arrive,
                    Kind::Depart => &reqs.depart,
                    Kind::Stats => &reqs.stats,
                });
                j += 1;
            }
            let wrote = now_ns();
            for k in i..j {
                write_ns[k].store(wrote, Ordering::Relaxed);
                batch_of[k].store(batch, Ordering::Relaxed);
            }
            // ORDERING: the Release fence publishes write_ns/batch_of
            // before the bytes can reach the server and come back.
            std::sync::atomic::fence(Ordering::Release);
            if writer.write_all(&out).is_err() {
                send_error = true;
                break;
            }
            out.clear();
            let done = now_ns();
            tracer.record(batch, 0, "client.batch", base_ns + wrote, base_ns + done);
            flush.record((done - wrote) as f64 / 1e3);
            for p in &plan[i..j] {
                lag[p.rung].record((wrote - p.due_ns) as f64 / 1e3);
            }
            let outstanding = j as u64 - received.load(Ordering::Acquire);
            max_outstanding = max_outstanding.max(outstanding);
            i = j;
        }
        let recv_side = receiver.join().expect("receiver thread");
        (recv_side, (lag, flush, max_outstanding, send_error))
    });
    let (latency, wait, achieved, failed) = recv_side;
    let (lag, flush, max_outstanding, send_error) = send_side;
    tracer.absorb(recv_tracer);
    if send_error {
        return Err("open loop: write failed".to_string());
    }
    Ok(OpenPhase {
        latency,
        lag: lag.iter().map(|r| Latencies::merge(&[r])).collect(),
        wait: Latencies::merge(&[&wait]),
        flush: Latencies::merge(&[&flush]),
        achieved,
        max_outstanding,
        attempted: plan.len() as u64,
        failed,
    })
}

/// Replay `plan` through an offline core booted the same way.
fn offline_replay(seed: u64, plans: &[&[Planned]]) -> ServeCore {
    let mut core = default_core(seed);
    for p in plans.iter().flat_map(|p| p.iter()) {
        match p.kind {
            Kind::Arrive => {
                let _ = core.arrive(&ArriveRequest::default());
            }
            Kind::Depart => {
                let _ = core.depart(&DepartRequest::default());
            }
            Kind::Stats => {
                std::hint::black_box(core.stats());
            }
        }
    }
    core
}

pub fn run_open(run: &Run, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let seed = run.derive("serve.boot");
    let (setup, server) = boot(seed, 21)?;
    let addr = server.addr();
    report.info(format!("server config: {:?}", server_config()));
    // Whole windows per rung; a traced run splits its time between an
    // untraced and a traced pass and keeps a few seconds for the probes.
    let usable = if run.trace {
        (run.seconds - 4.0) / 2.0
    } else {
        run.seconds - 1.0
    };
    let rung_s = ((usable / 3.0 / OPEN_WINDOW_S).floor() * OPEN_WINDOW_S).max(OPEN_WINDOW_S);
    let plan = open_plan(run.derive("serve.open"), rung_s);
    let mut quiet = Tracer::new(Instant::now(), false, 0);
    let untraced = open_phase(addr, &plan, run.derive("serve.open.rec"), &mut quiet)?;
    let traced_plan = open_plan(run.derive("serve.open.traced"), rung_s);
    let traced = if run.trace {
        Some(open_phase(
            addr,
            &traced_plan,
            run.derive("serve.open.rec.t"),
            tracer,
        )?)
    } else {
        None
    };
    for p in std::iter::once(&untraced).chain(traced.as_ref()) {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }

    // Validity: the generator must have kept its schedule.
    let mut on_schedule = true;
    let mut slo = 0.0;
    for (r, &(name, rate)) in RUNGS.iter().enumerate() {
        let gap_us = 1e6 / rate;
        let lag = untraced.lag[r].quantile(0.5);
        on_schedule &= lag <= MAX_LAG_SHARE * gap_us;
        let l = Windowed::all(&[&untraced.latency[r]]);
        let p99 = l.quantile(0.99);
        if p99 <= SLO_P99_US && untraced.achieved[r] >= 0.95 * rate {
            slo = rate;
        }
        report.info(format!(
            "rung {name}: offered {rate} req/s, achieved {:.1} req/s; send lag p50 {lag:.2} us (limit {:.1} us), p99 {:.2} us",
            untraced.achieved[r],
            MAX_LAG_SHARE * gap_us,
            untraced.lag[r].quantile(0.99)
        ));
        report.info(format!(
            "open_p50_us.{name} = {:.3} us ({}); open_p99_us.{name} = {p99:.3} us ({}); per-window p50 {}, p99 {}",
            l.quantile(0.5),
            pct(&l, 0.5),
            pct(&l, 0.99),
            describe(&Summary::of(&Windowed::per_window(&[&untraced.latency[r]], 0.5))),
            describe(&Summary::of(&Windowed::per_window(&[&untraced.latency[r]], 0.99)))
        ));
    }
    report.check(
        format!("open-loop generator kept its schedule (median send lag <= {MAX_LAG_SHARE} x mean gap on every rung)"),
        on_schedule,
    );

    if run.trace {
        layers::server_layers(addr, report)?;
    }
    let core = server.shutdown();
    let plans: Vec<&[Planned]> = if run.trace {
        vec![&plan, &traced_plan]
    } else {
        vec![&plan]
    };
    let offline = offline_replay(seed, &plans);
    report.check(
        "final load vector is bit-equal to an offline ServeCore fed the same commands",
        offline.engine().config().loads() == core.engine().config().loads()
            && offline.engine().time().to_bits() == core.engine().time().to_bits(),
    );
    report.check(
        "final engine: Fenwick index matches the loads",
        core.engine().index().matches(core.engine().config()),
    );

    let all = untraced.pooled();
    if let Some(traced) = &traced {
        report.set(
            "trace.overhead_ratio",
            traced.pooled().quantile(0.5) / all.quantile(0.5),
            "traced / untraced median latency from the scheduled send",
        );
        report.set(
            "client.flush_us",
            untraced.flush.quantile(0.5),
            pct(&untraced.flush, 0.5),
        );
        report.set(
            "client.wait_us",
            untraced.wait.quantile(0.5),
            pct(&untraced.wait, 0.5),
        );
        let lag = untraced
            .lag
            .iter()
            .fold(Latencies::default(), |acc, l| acc.union(l));
        report.set(
            "client.send_lag_p99_us",
            lag.quantile(0.99),
            pct(&lag, 0.99),
        );
        report.set(
            "client.max_outstanding",
            untraced.max_outstanding as f64,
            "most requests written but not yet answered",
        );
        layers::serve_layers(&core, &requests(), run, report)?;
        let reads = STATS_SHARE;
        let e2e_ns = all.quantile(0.5) * 1e3;
        let rows = layers::serve_residual(
            report,
            e2e_ns,
            (1.0 - reads) / 2.0,
            (1.0 - reads) / 2.0,
            reads,
        );
        layers::reconcile(report, "request", e2e_ns, rows);
        let live = core.engine().clone();
        layers::sim_layers(live.config().clone(), false, 1 << 20, run, report)?;
        layers::engine_layers(&live, run, report)?;
        crate::theorem1::small_campaign_layers(run, report, tracer)?;
        return Ok(());
    }

    report.info(format!(
        "slo_max_rps = {slo} req/s (highest rung with p99 <= {SLO_P99_US} us and >= 95% of offered achieved)"
    ));
    let setup = setup_after(seed, setup)?;
    report.set(
        "setup_s",
        setup.median,
        format!("server boot to first /healthz answer; {}", describe(&setup)),
    );
    // The heavy rung keeps the server busy, so its latency is the least
    // exposed to how fast an idle virtual CPU wakes up.
    let heavy = RUNGS.len() - 1;
    report.set(
        "ops_per_s",
        untraced.achieved[heavy],
        format!(
            "achieved request rate on the heavy rung (offered {})",
            RUNGS[heavy].1
        ),
    );
    let p50 = Summary::of(&Windowed::per_window(&[&untraced.latency[heavy]], 0.5));
    report.set(
        "latency_p50_us",
        p50.median,
        format!(
            "scheduled send -> reply on the heavy rung; per-{OPEN_WINDOW_S} s-window p50, {}",
            describe(&p50)
        ),
    );
    report.info(format!(
        "all rungs pooled: {} = {:.3} us",
        pct(&all, 0.99),
        all.quantile(0.99)
    ));
    Ok(())
}
