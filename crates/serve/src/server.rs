//! The HTTP server: one event-loop thread that owns the engine.
//!
//! ```text
//!   TcpListener (nonblocking)
//!        │ accept burst (refuse past MAX_CONNECTIONS)
//!   ┌────▼─────────────────────────────────────────┐
//!   │ sweep:  for each connection state machine    │
//!   │   read ──► parse frames (zero-copy) ──► route│
//!   │   ──► execute on the core (inline) ──► buffer│
//!   │   ──► write-back (partial writes resume)     │
//!   │ idle:   park in one bounded blocking read    │
//!   └──────────────────────────────────────────────┘
//!          one thread owns the ServeCore directly
//! ```
//!
//! All engine state lives on the loop thread, so there are no locks and
//! no channel hops on the hot path: requests are routed here
//! (`route`), executed inline (`execute`) and answered in sweep order.
//! For a single connection that is byte-stream order, which is what makes
//! a single-connection drive of the HTTP API deterministic and lets tests
//! cross-check the server against an offline [`ServeCore`] on the same
//! seed.  The loop itself lives in `event_loop.rs`.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rls_live::Snapshot;

use crate::api::{AddBinRequest, ArriveRequest, DepartRequest, DrainBinRequest, RingRequest};
use crate::core::ServeCore;
use crate::metrics::{flight_kind, FLIGHT_NONE};
use crate::ServeError;

/// Open connections the server holds at once.  Connection number
/// `MAX_CONNECTIONS + 1` is accepted, answered `503` with
/// `Connection: close`, and dropped — a refusal, never an unbounded sweep.
pub const MAX_CONNECTIONS: usize = 1024;

/// Bound on one park of an idle server: the longest a request on any
/// connection but the one the loop parked on — or a new connection, or a
/// shutdown — waits for the loop to notice it.  The parked-on connection
/// wakes the loop at once.
pub const PARK: Duration = Duration::from_millis(2);

/// Largest pipelined burst answered from one connection in one sweep.
pub(crate) const MAX_BATCH: usize = 64;

/// How a server is wired.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

/// A running server; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the loop thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    engine: Option<JoinHandle<ServeCore>>,
}

impl HttpServer {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the loop and hand back the final core (its engine holds the
    /// final load vector and counters).  Returns within one park bound
    /// of the loop: a loop blocked in `accept` is woken by a self-connect,
    /// a loop parked in a read times out.
    pub fn shutdown(mut self) -> ServeCore {
        self.signal_stop();
        self.engine
            .take()
            .expect("engine joined exactly once")
            .join()
            .expect("engine thread does not panic")
    }

    fn signal_stop(&self) {
        // Release store / Acquire load pair on the stop flag: a loop that
        // observes the flag also observes everything the stopping thread
        // did first.  (SeqCst would add nothing: there is no second
        // variable whose global order matters here.)
        self.stop.store(true, Ordering::Release);
        // Wake a loop blocked in accept(); a refused connect just means
        // the loop is already gone.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        // Best-effort stop for servers that were never shut down
        // explicitly; the loop exits on its own.
        if self.engine.is_some() {
            self.signal_stop();
        }
    }
}

/// Where a self-connect reaches the listener: the bound address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Boot a server over `core`: bind, go nonblocking, and spawn the one
/// loop thread (it owns the core, so it is the engine thread the
/// shutdown path joins for the final core).  Returns once the listener
/// is bound and the loop is running.
pub fn serve(core: ServeCore, config: &ServerConfig) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let engine = std::thread::Builder::new()
        .name("rls-serve-event-loop".to_string())
        .spawn(move || crate::event_loop::run(core, listener, loop_stop))?;
    Ok(HttpServer {
        addr,
        stop,
        engine: Some(engine),
    })
}

/// A command decoded from one HTTP request.
#[derive(Debug, Clone)]
pub(crate) enum EngineCmd {
    Arrive(ArriveRequest),
    Depart(DepartRequest),
    Ring(RingRequest),
    AddBin(AddBinRequest),
    DrainBin(DrainBinRequest),
    Stats,
    Snapshot,
    Restore(Box<Snapshot>),
    Health,
}

/// Where a routed request is answered.
#[derive(Debug)]
pub(crate) enum Routed {
    /// By the engine: a command for [`execute`].
    Engine(EngineCmd),
    /// From the telemetry atomics: render the metric catalog
    /// (`GET /v1/metrics`).
    Metrics,
    /// From the telemetry atomics: dump the flight recorder
    /// (`GET /v1/debug/flight`).
    Flight,
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Flight-recorder annotation of a command: kind code plus up to two
/// coordinates ([`FLIGHT_NONE`] for absent/sampled ones).
pub(crate) fn flight_coords(cmd: &EngineCmd) -> (u64, u64, u64) {
    let coord = |v: Option<usize>| v.map_or(FLIGHT_NONE, |b| b as u64);
    match cmd {
        EngineCmd::Arrive(req) => (
            flight_kind::ARRIVE,
            coord(req.bin),
            req.weight.unwrap_or(FLIGHT_NONE),
        ),
        EngineCmd::Depart(req) => (flight_kind::DEPART, coord(req.bin), FLIGHT_NONE),
        EngineCmd::Ring(req) => (flight_kind::RING, coord(req.source), coord(req.dest)),
        EngineCmd::Stats => (flight_kind::STATS, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Snapshot => (flight_kind::SNAPSHOT, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Restore(_) => (flight_kind::RESTORE, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::Health => (flight_kind::HEALTH, FLIGHT_NONE, FLIGHT_NONE),
        EngineCmd::AddBin(req) => (
            flight_kind::BIN_ADD,
            req.warm.unwrap_or(false) as u64,
            FLIGHT_NONE,
        ),
        EngineCmd::DrainBin(req) => (flight_kind::BIN_DRAIN, coord(req.bin), FLIGHT_NONE),
    }
}

pub(crate) fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("API replies always encode")
}

/// Apply one command to the core; the answer is a ready-to-send JSON
/// body.
pub(crate) fn execute(core: &mut ServeCore, cmd: &EngineCmd) -> Result<String, ServeError> {
    match cmd {
        EngineCmd::Arrive(req) => core.arrive(req).map(|r| to_json(&r)),
        EngineCmd::Depart(req) => core.depart(req).map(|r| to_json(&r)),
        EngineCmd::Ring(req) => core.ring(req).map(|r| to_json(&r)),
        EngineCmd::Stats => Ok(to_json(&core.stats())),
        EngineCmd::Snapshot => Ok(core.snapshot_json()),
        EngineCmd::Restore(snapshot) => core.restore(snapshot).map(|r| to_json(&r)),
        EngineCmd::Health => Ok(to_json(&core.health())),
        EngineCmd::AddBin(req) => core.add_bin(req).map(|r| to_json(&r)),
        EngineCmd::DrainBin(req) => core.drain_bin(req).map(|r| to_json(&r)),
    }
}

#[derive(serde::Serialize)]
pub(crate) struct ErrorBody {
    pub(crate) error: String,
}

/// Decode a request into an engine command or a telemetry answer (no
/// state access here — pure routing).
pub(crate) fn route(method: &str, path: &str, body: &[u8]) -> Result<Routed, ServeError> {
    let parse_body = |what: &str| -> Result<serde_json::Value, ServeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServeError::bad_request(format!("{what} body is not UTF-8")))?;
        serde_json::parse_value(text)
            .map_err(|e| ServeError::bad_request(format!("{what} body: {e}")))
    };
    // An absent or empty body means "all defaults" for the POST verbs
    // whose fields are all optional.
    macro_rules! body_or_default {
        ($ty:ty, $what:expr) => {
            if body.is_empty() {
                <$ty>::default()
            } else {
                serde_json::from_value(&parse_body($what)?)
                    .map_err(|e| ServeError::bad_request(format!("{} body: {e}", $what)))?
            }
        };
    }

    let engine = |cmd: EngineCmd| Ok(Routed::Engine(cmd));
    match (method, path) {
        ("POST", "/v1/arrive") => {
            engine(EngineCmd::Arrive(body_or_default!(ArriveRequest, "arrive")))
        }
        ("POST", "/v1/depart") => {
            engine(EngineCmd::Depart(body_or_default!(DepartRequest, "depart")))
        }
        ("POST", p) if p.starts_with("/v1/depart/") => {
            let bin = p["/v1/depart/".len()..]
                .parse::<usize>()
                .map_err(|_| ServeError::bad_request(format!("bad bin in path `{p}`")))?;
            engine(EngineCmd::Depart(DepartRequest { bin: Some(bin) }))
        }
        ("POST", "/v1/ring") => engine(EngineCmd::Ring(body_or_default!(RingRequest, "ring"))),
        ("POST", "/v1/bins/add") => engine(EngineCmd::AddBin(body_or_default!(
            AddBinRequest,
            "bin-add"
        ))),
        ("POST", "/v1/bins/drain") => engine(EngineCmd::DrainBin(body_or_default!(
            DrainBinRequest,
            "bin-drain"
        ))),
        ("GET", "/v1/stats") => engine(EngineCmd::Stats),
        ("GET", "/v1/snapshot") => engine(EngineCmd::Snapshot),
        ("POST", "/v1/restore") => {
            let text = std::str::from_utf8(body)
                .map_err(|_| ServeError::bad_request("snapshot body is not UTF-8"))?;
            let snapshot =
                Snapshot::from_json(text).map_err(|e| ServeError::bad_request(e.to_string()))?;
            engine(EngineCmd::Restore(Box::new(snapshot)))
        }
        ("GET", "/healthz") => engine(EngineCmd::Health),
        ("GET", "/v1/metrics") => Ok(Routed::Metrics),
        ("GET", "/v1/debug/flight") => Ok(Routed::Flight),
        (
            _,
            "/v1/arrive" | "/v1/depart" | "/v1/ring" | "/v1/restore" | "/v1/stats" | "/v1/snapshot"
            | "/healthz" | "/v1/metrics" | "/v1/debug/flight" | "/v1/bins/add" | "/v1/bins/drain",
        ) => Err(ServeError::method_not_allowed(method, path)),
        // The path-param depart route also exists for exactly one method.
        (_, p) if p.starts_with("/v1/depart/") => Err(ServeError::method_not_allowed(method, path)),
        _ => Err(ServeError::not_found(path)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_covers_the_api() {
        assert!(matches!(
            route("POST", "/v1/arrive", b"").unwrap(),
            Routed::Engine(EngineCmd::Arrive(r)) if r == ArriveRequest::default()
        ));
        assert!(matches!(
            route("POST", "/v1/arrive", br#"{"bin": 2, "rings": 0}"#).unwrap(),
            Routed::Engine(EngineCmd::Arrive(ArriveRequest {
                bin: Some(2),
                rings: Some(0),
                weight: None
            }))
        ));
        assert!(matches!(
            route("POST", "/v1/depart/7", b"").unwrap(),
            Routed::Engine(EngineCmd::Depart(DepartRequest { bin: Some(7) }))
        ));
        assert!(matches!(
            route("POST", "/v1/ring", br#"{"source": 1}"#).unwrap(),
            Routed::Engine(EngineCmd::Ring(RingRequest {
                source: Some(1),
                dest: None
            }))
        ));
        assert!(matches!(
            route("GET", "/v1/stats", b"").unwrap(),
            Routed::Engine(EngineCmd::Stats)
        ));
        assert!(matches!(
            route("GET", "/v1/snapshot", b"").unwrap(),
            Routed::Engine(EngineCmd::Snapshot)
        ));
        assert!(matches!(
            route("GET", "/healthz", b"").unwrap(),
            Routed::Engine(EngineCmd::Health)
        ));
        assert!(matches!(
            route("POST", "/v1/bins/add", br#"{"warm": true}"#).unwrap(),
            Routed::Engine(EngineCmd::AddBin(AddBinRequest { warm: Some(true) }))
        ));
        assert!(matches!(
            route("POST", "/v1/bins/drain", br#"{"bin": 3}"#).unwrap(),
            Routed::Engine(EngineCmd::DrainBin(DrainBinRequest { bin: Some(3) }))
        ));
        assert!(matches!(
            route("POST", "/v1/bins/drain", b"").unwrap(),
            Routed::Engine(EngineCmd::DrainBin(DrainBinRequest { bin: None }))
        ));
        // Telemetry endpoints are answered from atomics, not the engine.
        assert!(matches!(
            route("GET", "/v1/metrics", b"").unwrap(),
            Routed::Metrics
        ));
        assert!(matches!(
            route("GET", "/v1/debug/flight", b"").unwrap(),
            Routed::Flight
        ));
    }

    #[test]
    fn routing_rejects_what_it_should() {
        assert_eq!(route("GET", "/v1/arrive", b"").unwrap_err().status, 405);
        assert_eq!(route("POST", "/v1/stats", b"").unwrap_err().status, 405);
        assert_eq!(route("POST", "/v1/metrics", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/v1/bins/add", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/v1/bins/drain", b"").unwrap_err().status, 405);
        assert_eq!(
            route("DELETE", "/v1/debug/flight", b"").unwrap_err().status,
            405
        );
        // The path-param depart route is 405 for the wrong method too,
        // not a phantom 404.
        assert_eq!(route("GET", "/v1/depart/3", b"").unwrap_err().status, 405);
        assert_eq!(route("GET", "/nope", b"").unwrap_err().status, 404);
        assert_eq!(
            route("POST", "/v1/arrive", b"not json").unwrap_err().status,
            400
        );
        assert_eq!(route("POST", "/v1/depart/x", b"").unwrap_err().status, 400);
        assert_eq!(route("POST", "/v1/restore", b"{}").unwrap_err().status, 400);
    }
}
