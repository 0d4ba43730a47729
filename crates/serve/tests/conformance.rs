//! Server conformance: every edge of the HTTP surface over real sockets —
//! status codes, framing errors, pipelining and `Connection: close`,
//! half-close, the connection cap — plus the idle loop's wake-up bounds:
//! a parked loop answers its own connection at once, any other connection
//! within a few park bounds, and shuts down promptly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::{
    serve, HttpClient, HttpServer, ServeCore, ServePolicy, ServerConfig, MAX_CONNECTIONS, PARK,
};
use rls_workloads::ArrivalProcess;

fn make_core(seed: u64) -> ServeCore {
    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    ServeCore::new(
        engine,
        seed,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    )
}

fn boot(seed: u64) -> HttpServer {
    serve(make_core(seed), &ServerConfig::default()).expect("ephemeral-port server boots")
}

/// A raw socket with a read timeout, for tests that speak wire bytes.
fn raw_socket(server: &HttpServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

#[test]
fn status_semantics_match_the_api() {
    let server = boot(7);
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // The happy paths answer 200 with the expected JSON shape.
    let body = client.request_ok("GET", "/healthz", b"").unwrap();
    assert!(body.contains("\"ok\""), "{body}");
    let body = client.request_ok("POST", "/v1/arrive", b"").unwrap();
    assert!(body.contains("\"bin\""), "{body}");
    // Path-param depart routes.
    let body = client.request_ok("POST", "/v1/depart/0", b"").unwrap();
    assert!(body.contains("\"bin\":0"), "{body}");

    // The error statuses: wrong method, unknown route, bad JSON, bad
    // bin, bad path parameter.
    let (status, _) = client.request("PUT", "/v1/stats", b"").unwrap();
    assert_eq!(status, 405);
    let (status, _) = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(status, 404);
    let (status, body) = client.request("POST", "/v1/arrive", b"not json").unwrap();
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("error"));
    let (status, _) = client
        .request("POST", "/v1/arrive", br#"{"bin": 99}"#)
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("POST", "/v1/depart/x", b"").unwrap();
    assert_eq!(status, 400);
    // The connection survived every error above.
    let body = client.request_ok("GET", "/healthz", b"").unwrap();
    assert!(body.contains("\"ok\""), "{body}");

    server.shutdown();
}

#[test]
fn oversized_declared_body_gets_a_413_and_close() {
    let server = boot(8);
    let mut stream = raw_socket(&server);
    // Claim a body far over the 64 MB cap: rejected from the head
    // alone (no body bytes ever sent), 413 not 400, then hang up.
    stream
        .write_all(b"POST /v1/restore HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // EOF = server closed
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413 Payload Too Large"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    server.shutdown();
}

#[test]
fn oversized_head_gets_a_413_and_close() {
    let server = boot(9);
    let mut stream = raw_socket(&server);
    let big = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(17 * 1024)
    );
    // The peer may hang up while we are still writing padding; any
    // remaining bytes are moot once the 413 is on the wire.
    let _ = stream.write_all(big.as_bytes());
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413 Payload Too Large"), "{text}");
    server.shutdown();
}

#[test]
fn deeply_nested_json_gets_a_400_and_the_server_lives() {
    let server = boot(12);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // 50,000 nested arrays (~50 KB) used to overflow the parser's stack
    // and abort the whole process; the nesting cap answers 400 instead.
    let body = "[".repeat(50_000);
    for path in ["/v1/arrive", "/v1/restore"] {
        let (status, reply) = client.request("POST", path, body.as_bytes()).unwrap();
        assert_eq!(status, 400, "{path}");
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.contains("nesting"), "{path}: {reply}");
    }
    let health = client.request_ok("GET", "/healthz", b"").unwrap();
    assert!(health.contains("\"ok\""), "{health}");
    server.shutdown();
}

#[test]
fn bad_content_length_gets_a_400_and_close() {
    let server = boot(10);
    let mut stream = raw_socket(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400 Bad Request"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    server.shutdown();
}

#[test]
fn bad_request_line_gets_a_400_and_keeps_the_connection() {
    let server = boot(11);
    let mut stream = raw_socket(&server);
    // A syntactically framed message whose start line has no path:
    // routing (not framing) rejects it, so the connection survives.
    stream.write_all(b"BROKEN\r\n\r\n").unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400 Bad Request"), "{text}");
    assert!(text.contains("bad request line"), "{text}");
    assert!(text.contains("HTTP/1.1 200 OK"), "{text}");
    server.shutdown();
}

#[test]
fn pipelined_close_labels_connection_per_message() {
    let server = boot(12);
    let mut stream = raw_socket(&server);
    // Two pipelined requests; only the second asks to close.  The
    // first response must stay keep-alive (implicit — the HTTP/1.1
    // default, sent headerless), the second must announce `close`,
    // and the server must then hang up.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /v1/stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let responses: Vec<&str> = text.split("HTTP/1.1 200 OK").collect();
    assert_eq!(responses.len(), 3, "expected two 200s: {text}");
    assert!(
        !responses[1].contains("Connection: close"),
        "first response mislabeled: {}",
        responses[1]
    );
    assert!(
        responses[2].contains("Connection: close"),
        "second response mislabeled: {}",
        responses[2]
    );
    server.shutdown();
}

#[test]
fn requests_pipelined_behind_a_close_are_discarded() {
    let server = boot(13);
    let mut stream = raw_socket(&server);
    // A third request rides behind the close: a conforming server
    // answers up to the close and never executes what follows.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n\
              POST /v1/arrive HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    // The discarded arrival never reached the engine.
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, 0);
}

#[test]
fn frames_split_across_writes_are_reassembled() {
    let server = boot(14);
    let mut stream = raw_socket(&server);
    // One request dribbled out in four writes with pauses between
    // them; the server must buffer partial frames across reads.
    for chunk in [
        &b"POST /v1/arrive HTT"[..],
        b"P/1.1\r\nContent-Len",
        b"gth: 10\r\nConnection: close\r\n\r\n{\"bi",
        b"n\": 3}",
    ] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("\"bin\":3"), "{text}");
    server.shutdown();
}

#[test]
fn half_close_answers_buffered_frames_and_drops_partials() {
    let server = boot(15);
    let mut stream = raw_socket(&server);
    // One complete frame plus the torso of a second, then half-close.
    // The complete frame is answered; the partial can never complete,
    // so the server drops it and hangs up.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              POST /v1/arrive HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"b",
        )
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 1, "{text}");
    let core = server.shutdown();
    assert_eq!(core.engine().counters().arrivals, 0);
}

#[test]
fn telemetry_endpoints_404_without_a_registry_and_serve_with_one() {
    // Without an attached registry the telemetry routes do not exist.
    let server = boot(16);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.request("GET", "/v1/metrics", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/debug/flight", b"").unwrap();
    assert_eq!(status, 404);
    server.shutdown();

    // With one, both answer locally with their own content types.
    let registry = Registry::new();
    let mut core = make_core(16);
    core.attach_metrics(&registry);
    let server = serve(core, &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.request_ok("POST", "/v1/arrive", b"").unwrap();
    let metrics = client.request_ok("GET", "/v1/metrics", b"").unwrap();
    assert!(metrics.contains("serve_requests_total"), "{metrics}");
    let flight = client.request_ok("GET", "/v1/debug/flight", b"").unwrap();
    assert!(flight.contains("\"events\""), "{flight}");
    server.shutdown();
}

/// The wake-up tests bound wall-clock latencies, and the cap test runs a
/// server sweeping a thousand connections: on a small machine the two
/// would compete for the CPU, so they take turns.
static TIMED: Mutex<()> = Mutex::new(());

fn timed() -> MutexGuard<'static, ()> {
    TIMED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn connections_past_the_cap_are_refused_with_a_503() {
    let _turn = timed();
    let server = boot(17);
    // Fill the server to the cap.  Connections go in batches well under
    // the listen backlog, each batch confirmed by a request on its last
    // connection: the loop drains the backlog before it reads, so an
    // answer proves every earlier connection of the batch was admitted.
    const BATCH: usize = 64;
    let mut held: Vec<TcpStream> = Vec::with_capacity(MAX_CONNECTIONS);
    let mut probes: Vec<HttpClient> = Vec::new();
    while held.len() + probes.len() < MAX_CONNECTIONS {
        let open = held.len() + probes.len();
        let batch = BATCH.min(MAX_CONNECTIONS - open);
        for _ in 1..batch {
            held.push(raw_socket(&server));
        }
        let mut probe = HttpClient::connect(server.addr()).unwrap();
        probe.request_ok("GET", "/healthz", b"").unwrap();
        probes.push(probe);
    }

    // One more: accepted, told 503 with `Connection: close`, dropped.
    let mut refused = raw_socket(&server);
    let mut raw = Vec::new();
    refused.read_to_end(&mut raw).unwrap(); // EOF = server closed
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 503 Service Unavailable"),
        "{text}"
    );
    assert!(text.contains("Connection: close"), "{text}");
    assert!(text.contains("connection limit"), "{text}");

    // The admitted connections are unaffected.
    let body = probes[0].request_ok("GET", "/healthz", b"").unwrap();
    assert!(body.contains("\"ok\""), "{body}");

    // Closing one frees its slot once the loop reaps it.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.request("GET", "/healthz", b"") {
            Ok((200, _)) => break,
            outcome => assert!(Instant::now() < deadline, "slot never freed: {outcome:?}"),
        }
        std::thread::sleep(PARK);
    }
    drop(held);
    drop(probes);
    server.shutdown();
}

/// Median of a sample, in place.
fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

#[test]
fn an_idle_keep_alive_connection_wakes_the_loop_at_once() {
    let _turn = timed();
    // A client that pauses between requests finds the loop idle every
    // time.  The loop parks in a read on that very connection, so the
    // kernel wakes it with the request: the reply costs a round trip,
    // not a sleep-poll period.
    let server = boot(18);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    let mut replies = Vec::with_capacity(20);
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        let start = Instant::now();
        client.request_ok("GET", "/healthz", b"").unwrap();
        replies.push(start.elapsed());
    }
    let p50 = median(replies.clone());
    assert!(
        p50 < Duration::from_millis(1),
        "median idle-wake reply {p50:?}: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn a_parked_loop_answers_other_connections_within_the_park_bound() {
    let _turn = timed();
    let server = boot(19);
    let mut a = HttpClient::connect(server.addr()).unwrap();
    let mut b = HttpClient::connect(server.addr()).unwrap();
    let mut replies = Vec::new();
    for _ in 0..5 {
        // `b` then `a`: `a` read most recently, so the idle loop parks
        // on `a` — and `b`'s next request has to wait out the park.
        b.request_ok("GET", "/healthz", b"").unwrap();
        a.request_ok("GET", "/healthz", b"").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        b.request_ok("GET", "/healthz", b"").unwrap();
        replies.push(start.elapsed());
    }
    // The median, so one scheduler hiccup on a shared machine does not
    // fail the bound.
    let p50 = median(replies.clone());
    assert!(
        p50 < 5 * PARK,
        "median reply on the unparked connection {p50:?}: {replies:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_while_parked() {
    let _turn = timed();
    // Parked in a read on an open connection: the park times out.
    let server = boot(20);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
    drop(client);

    // Blocked in accept with no connection at all: the self-connect
    // wakes it.
    let server = boot(21);
    std::thread::sleep(Duration::from_millis(20));
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(50), "shutdown took {took:?}");
}
