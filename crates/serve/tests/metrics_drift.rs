//! Metrics drift gate: a telemetry-enabled server driven over real
//! sockets must expose every cataloged metric family on `/v1/metrics`,
//! and every exposed sample must be a finite number.
//!
//! This is the check CI runs to catch telemetry rot: renaming a family
//! without updating [`rls_serve::CATALOG`], dropping an instrumentation
//! hook, or rendering garbage (NaN stage timers, empty histograms where
//! traffic should have landed) all fail here rather than silently
//! shipping a dead dashboard.

use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_obs::Registry;
use rls_serve::{serve, HttpClient, ServeCore, ServePolicy, ServerConfig, CATALOG};
use rls_workloads::ArrivalProcess;

fn boot_with_metrics() -> (rls_serve::HttpServer, Registry) {
    let initial = Config::uniform(16, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 16, 64).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    let mut core = ServeCore::new(
        engine,
        0x0B5,
        0.0,
        ServePolicy {
            rings_per_arrival: 1.0,
        },
    );
    let registry = Registry::new();
    core.attach_metrics(&registry);
    let server = serve(core, &ServerConfig::default()).expect("ephemeral-port server boots");
    (server, registry)
}

/// Drive a short but representative request mix: arrivals (with the
/// auto-rebalance rings they trigger), departures, pinned rings, stats
/// reads, a health check and one deliberate error.
fn drive_traffic(client: &mut HttpClient) {
    for i in 0..40u64 {
        client.request_ok("POST", "/v1/arrive", b"").unwrap();
        if i % 3 == 0 {
            client.request_ok("POST", "/v1/depart", b"").unwrap();
        }
        if i % 5 == 0 {
            client
                .request_ok("POST", "/v1/ring", br#"{"source": 1, "dest": 2}"#)
                .unwrap();
        }
    }
    client.request_ok("GET", "/v1/stats", b"").unwrap();
    client.request_ok("GET", "/healthz", b"").unwrap();
    let (status, _) = client.request("POST", "/v1/arrive", b"not json").unwrap();
    assert_eq!(status, 400);
}

#[test]
fn every_cataloged_metric_is_exposed_and_finite() {
    let (server, _registry) = boot_with_metrics();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    drive_traffic(&mut client);

    let text = client.request_ok("GET", "/v1/metrics", b"").unwrap();

    // Every cataloged family must have at least one sample line (the
    // family name followed by a label set, a histogram suffix, or the
    // value directly).
    for family in CATALOG {
        let found = text.lines().any(|line| {
            !line.starts_with('#')
                && line.starts_with(family)
                && line[family.len()..].starts_with(['{', '_', ' '])
        });
        assert!(found, "family `{family}` has no samples:\n{text}");
    }

    // Every sample value must parse as a finite number — a NaN or a
    // rendering bug here corrupts any scraper downstream.
    let mut samples = 0usize;
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let value = line
            .rsplit(' ')
            .next()
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("unparseable value in `{line}`: {e}"));
        assert!(parsed.is_finite(), "non-finite sample: {line}");
        samples += 1;
    }
    assert!(samples > CATALOG.len(), "suspiciously few samples:\n{text}");

    // Traffic actually landed in the counters (the families are not just
    // registered-but-dead).
    let count_of = |needle: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {needle}:\n{text}"))
    };
    assert!(count_of("rls_engine_arrivals_total") >= 40.0);
    assert!(count_of("rls_engine_departures_total") >= 13.0);
    assert!(count_of("rls_serve_request_bytes_total") > 0.0);
    assert!(count_of("rls_serve_stage_ns_count{stage=\"apply\"}") > 0.0);
    assert!(count_of("rls_serve_errors_total{endpoint=\"arrive\"}") >= 1.0);

    server.shutdown();
}

#[test]
fn flight_recorder_exposes_recent_commands() {
    let (server, _registry) = boot_with_metrics();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    drive_traffic(&mut client);

    let text = client.request_ok("GET", "/v1/debug/flight", b"").unwrap();
    let value = serde_json::parse_value(&text).expect("flight dump is valid JSON");
    let obj = value.as_object().expect("flight dump is an object");
    let events = obj
        .get("events")
        .and_then(|v| v.as_array())
        .expect("events array");
    assert!(!events.is_empty(), "no flight events after traffic: {text}");
    // Sequence numbers are strictly increasing (the ring is coherent).
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| {
            e.as_object()
                .and_then(|o| o.get("seq"))
                .and_then(|v| v.as_u64())
                .expect("seq field")
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");

    server.shutdown();
}

#[test]
fn metrics_endpoints_404_without_telemetry() {
    // A server booted without `attach_metrics` serves the API but has no
    // telemetry to expose — the endpoints must answer 404, not hang or
    // fabricate an empty registry.
    let initial = Config::uniform(8, 4).unwrap();
    let params =
        LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 32).unwrap();
    let engine = LiveEngine::new(initial, params, RlsRule::paper()).unwrap();
    let core = ServeCore::new(
        engine,
        1,
        0.0,
        ServePolicy {
            rings_per_arrival: 0.0,
        },
    );
    let server = serve(core, &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.request("GET", "/v1/metrics", b"").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/v1/debug/flight", b"").unwrap();
    assert_eq!(status, 404);
    // The rest of the API is unaffected.
    client.request_ok("POST", "/v1/arrive", b"").unwrap();
    server.shutdown();
}
