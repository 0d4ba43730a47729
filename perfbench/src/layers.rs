//! The traced run's per-layer costs.  Layers the benchmark cannot reach
//! mid-run are timed from outside: their public calls run in isolation on
//! the workload's own state (its load vector, its engine, its serve core,
//! the exact request bytes it sent) with a probe stream derived from the
//! run's seed.  Each cost is the median of seven timed batches.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rls_core::{Config, RingContext, RlsRule};
use rls_graph::{DestSampler, Topology};
use rls_live::{LiveCommand, LiveEngine, Snapshot};
use rls_obs::Registry;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, Rng64, RngExt};
use rls_serve::{http, ArriveRequest, DepartRequest, ServeCore};
use rls_sim::{RlsPolicy, Simulation};

use crate::report::Report;
use crate::serve::{self, Conn, Requests};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::Run;

/// Median over seven timed batches (after one untimed warm-up batch) of
/// nanoseconds per operation; `batch` performs `ops` operations.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut per_op = Vec::with_capacity(7);
    for _ in 0..7 {
        let t = Instant::now();
        batch();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    Summary::of(&per_op).median
}

/// `Simulation::step` on the given start state: run until perfect balance
/// when `until_balanced` (the Theorem-1 trial), else for `steps` steps.
pub struct SimProbe {
    pub step_ns: f64,
    pub steps: u64,
    pub final_config: Config,
}

pub fn sim_layers(
    start: Config,
    until_balanced: bool,
    steps: u64,
    run: &Run,
    report: &mut Report,
) -> Result<SimProbe, String> {
    let mut sim =
        Simulation::new(start, RlsPolicy::new(RlsRule::paper())).map_err(|e| e.to_string())?;
    let mut rng = rng_from_seed(run.derive("probe.sim"));
    let t = Instant::now();
    let mut done = 0u64;
    while done < steps && !(until_balanced && sim.tracker().is_perfectly_balanced()) {
        black_box(sim.step(&mut rng));
        done += 1;
    }
    let step_ns = t.elapsed().as_nanos() as f64 / done.max(1) as f64;
    report.set(
        "sim.step_ns",
        step_ns,
        format!("Simulation::step, {done} steps on this workload's load vector"),
    );
    report.set(
        "sim.migration_ratio",
        sim.migrations() as f64 / sim.activations().max(1) as f64,
        "migrations / activations of the step probe",
    );
    Ok(SimProbe {
        step_ns,
        steps: done,
        final_config: sim.config().clone(),
    })
}

/// The leaf layers under the live engine, timed on `engine`'s own state.
/// Returns the modelled leaf cost per engine event (see `live.residual_ns`).
pub fn engine_layers(engine: &LiveEngine, run: &Run, report: &mut Report) -> Result<f64, String> {
    let mut rng = rng_from_seed(run.derive("probe.engine"));
    let cfg = engine.config();
    let n = cfg.n();
    let loads = cfg.loads();

    // Uniform 64-bit draws and the holding-time law (constructed per event,
    // as the engine does).
    let mut acc = 0u64;
    let next_u64 = ns_per_op(1 << 20, || {
        for _ in 0..1 << 20 {
            acc ^= rng.next_u64();
        }
    });
    black_box(acc);
    let rate = engine.total_rate();
    let mut accf = 0.0;
    let exp = ns_per_op(1 << 18, || {
        for _ in 0..1 << 18 {
            accf += Exponential::new(rate)
                .expect("positive rate")
                .sample(&mut rng);
        }
    });
    black_box(accf);
    report.set("rng.next_u64_ns", next_u64, "DefaultRng::next_u64");
    report.set(
        "rng.exp_sample_ns",
        exp,
        format!("Exponential::new({rate:.1}) + sample"),
    );

    // Fenwick descent over this workload's loads (random ball ranks).
    let index = engine.index().clone();
    let ranks: Vec<u64> = (0..1 << 16)
        .map(|_| rng.next_below(index.total()))
        .collect();
    let mut depth_sum = 0u64;
    let bin_at = ns_per_op(ranks.len(), || {
        for &r in &ranks {
            let (bin, depth) = index.bin_at_depth(r);
            acc ^= bin as u64;
            depth_sum += u64::from(depth);
        }
    });
    report.set(
        "core.index.bin_at_ns",
        bin_at,
        format!(
            "LoadIndex::bin_at_depth, n={n}, {} random ranks",
            ranks.len()
        ),
    );
    report.set(
        "core.index.depth_mean",
        depth_sum as f64 / (8 * ranks.len()) as f64,
        "mean descent depth",
    );

    // Moves between a ball's bin and a uniform bin, each undone right away
    // so the state (and every later probe) is unchanged.
    let sources: Vec<usize> = ranks.iter().map(|&r| index.bin_at(r)).collect();
    let pairs: Vec<(usize, usize)> = sources
        .iter()
        .map(|&a| {
            let mut b = rng.next_index(n);
            if b == a {
                b = (a + 1) % n;
            }
            (a, b)
        })
        .collect();
    let mut moving = engine.index().clone();
    let index_move = ns_per_op(2 * pairs.len(), || {
        for &(a, b) in &pairs {
            moving.record_move(a, b);
            moving.record_move(b, a);
        }
    });
    report.set(
        "core.index.record_move_ns",
        index_move,
        "LoadIndex::record_move",
    );
    let mut tracker = engine.tracker().clone();
    let tracker_move = ns_per_op(2 * pairs.len(), || {
        for &(a, b) in &pairs {
            let (la, lb) = (loads[a], loads[b]);
            tracker.record_move(la, lb);
            tracker.record_move(lb + 1, la - 1);
        }
    });
    report.set(
        "core.tracker.record_move_ns",
        tracker_move,
        "LoadTracker::record_move",
    );

    // Ring decision (one destination draw inside) and the draw alone.
    let sampler = DestSampler::build(Topology::Complete, n, 0).map_err(|e| e.to_string())?;
    let policy = engine.policy();
    let ctx = RingContext { n, m: cfg.m() };
    let decide = ns_per_op(sources.len(), || {
        for &s in &sources {
            let d = policy.decide(
                ctx,
                s,
                loads[s],
                || sampler.sample(s, &mut rng),
                |b| loads[b],
            );
            acc ^= u64::from(d.moved);
        }
    });
    let sample = ns_per_op(sources.len(), || {
        for &s in &sources {
            acc ^= sampler.sample(s, &mut rng).unwrap_or(0) as u64;
        }
    });
    report.set(
        "core.policy.decide_ns",
        decide,
        format!("RebalancePolicy::decide ({policy})"),
    );
    report.set(
        "graph.sampler.sample_ns",
        sample,
        "DestSampler::sample (complete)",
    );
    let arrivals = engine.params().arrivals;
    let ids = engine.membership().live_ids();
    let place = ns_per_op(1 << 16, || {
        for _ in 0..1 << 16 {
            acc ^= arrivals.place_among(ids, &mut rng) as u64;
        }
    });
    report.set(
        "workloads.arrivals.place_ns",
        place,
        "ArrivalProcess::place_among",
    );
    black_box(acc);

    // The engine itself on a copy of this state.
    let mut live = engine.clone();
    let before = live.counters();
    let horizon = live.time() + f64::from(1u32 << 18) / live.total_rate();
    let t = Instant::now();
    let events = live.run_until(horizon, &mut rng, &mut ());
    let event_ns = t.elapsed().as_nanos() as f64 / events.max(1) as f64;
    let after = live.counters();
    let d = |f: fn(&rls_live::LiveCounters) -> u64| (f(&after) - f(&before)) as f64;
    let events_f = d(|c| c.events).max(1.0);
    let rings = d(|c| c.rings);
    let ring_share = rings / events_f;
    let ring_move_ratio = d(|c| c.migrations) / rings.max(1.0);
    let arrive_share = d(|c| c.arrivals) / events_f;
    let depart_share = d(|c| c.departures) / events_f;
    report.set("live.ring_share", ring_share, "rings / events");
    report.set(
        "live.ring_move_ratio",
        ring_move_ratio,
        "migrations / rings",
    );

    // Modelled leaf cost of one event: holding time and band draw, then per
    // band its rank draw, descent, decision and book-keeping.  Arrivals and
    // departures touch one Fenwick path and one tracker bin (half a move).
    let leaf = exp
        + next_u64
        + ring_share * (next_u64 + bin_at + decide + ring_move_ratio * (index_move + tracker_move))
        + depart_share * (next_u64 + bin_at + 0.5 * (index_move + tracker_move))
        + arrive_share * (place + 0.5 * (index_move + tracker_move));
    report.set(
        "live.residual_ns",
        event_ns - leaf,
        format!("run_until {event_ns:.2} ns/event minus modelled leaf calls {leaf:.2} ns"),
    );

    let cmds = vec![
        LiveCommand::Ring {
            source: None,
            dest: None,
        };
        4096
    ];
    let mut batched = engine.clone();
    let apply_batch = ns_per_op(cmds.len(), || {
        black_box(batched.apply_batch(&cmds, &mut rng, &mut ()));
    });
    report.set(
        "live.apply_batch_ns_per_cmd",
        apply_batch,
        "LiveEngine::apply_batch of 4096 rings",
    );
    Ok(leaf)
}

/// The serve layers on `core`'s own state (`core` is left untouched: the
/// probes run on two twins restored from its snapshot, one with a telemetry
/// registry attached as the server boots it, one bare).
pub fn serve_layers(
    core: &ServeCore,
    reqs: &Requests,
    run: &Run,
    report: &mut Report,
) -> Result<(), String> {
    let frames = [&reqs.arrive, &reqs.depart];
    let mut acc = 0usize;
    let parse = ns_per_op(2048, || {
        for _ in 0..1024 {
            for f in frames {
                acc ^= http::parse_frame(f)
                    .ok()
                    .flatten()
                    .map_or(0, |(_, used)| used);
            }
        }
    });
    report.set(
        "serve.http.parse_frame_ns",
        parse,
        "http::parse_frame on the captured request bytes",
    );

    let snapshot = Snapshot::capture(core.engine(), &rng_from_seed(run.derive("probe.twin")));
    let twin = |attach: bool| -> Result<ServeCore, String> {
        let (engine, _) = snapshot.restore().map_err(|e| e.to_string())?;
        let mut twin = ServeCore::new(engine, core.identity().seed, 0.0, core.policy());
        if attach {
            twin.attach_metrics(&Registry::new());
        }
        Ok(twin)
    };
    let mut tapped = twin(true)?;
    let mut bare = twin(false)?;
    // Arrivals then as many departures per round, so the population returns
    // to where it started; both twins follow the same trajectory.
    let rounds = |core: &mut ServeCore| -> (f64, f64) {
        const K: usize = 512;
        let (mut a, mut d) = (Vec::new(), Vec::new());
        for round in 0..8 {
            let t = Instant::now();
            for _ in 0..K {
                black_box(core.arrive(&ArriveRequest::default()).ok());
            }
            let arrive = t.elapsed().as_nanos() as f64 / K as f64;
            let t = Instant::now();
            for _ in 0..K {
                black_box(core.depart(&DepartRequest::default()).ok());
            }
            let depart = t.elapsed().as_nanos() as f64 / K as f64;
            if round > 0 {
                a.push(arrive);
                d.push(depart);
            }
        }
        (Summary::of(&a).median, Summary::of(&d).median)
    };
    let (bare_a, bare_d) = rounds(&mut bare);
    let (arrive, depart) = rounds(&mut tapped);
    report.set(
        "serve.core.arrive_ns",
        arrive,
        "ServeCore::arrive (8 rings on average), registry attached",
    );
    report.set(
        "serve.core.depart_ns",
        depart,
        "ServeCore::depart, registry attached",
    );
    report.set(
        "obs.tap_ns",
        ((arrive + depart) - (bare_a + bare_d)) / 2.0,
        "per command: registry attached minus bare twin",
    );
    let stats = ns_per_op(256, || {
        for _ in 0..256 {
            black_box(tapped.stats());
        }
    });
    report.set("serve.core.stats_ns", stats, "ServeCore::stats");

    let a = tapped
        .arrive(&ArriveRequest::default())
        .map_err(|e| e.message)?;
    let d = tapped
        .depart(&DepartRequest::default())
        .map_err(|e| e.message)?;
    let s = tapped.stats();
    let mut len = 0usize;
    let mut write = |name: &'static str, f: &mut dyn FnMut() -> usize| {
        let ns = ns_per_op(1024, || {
            for _ in 0..1024 {
                len ^= f();
            }
        });
        report.set(name, ns, "serde_json::to_string of the reply");
    };
    write("serde_json.write_ns.arrive", &mut || {
        serde_json::to_string(&a).map_or(0, |s| s.len())
    });
    write("serde_json.write_ns.depart", &mut || {
        serde_json::to_string(&d).map_or(0, |s| s.len())
    });
    write("serde_json.write_ns.stats", &mut || {
        serde_json::to_string(&s).map_or(0, |s| s.len())
    });
    let body = serde_json::to_string(&a)
        .map_err(|e| e.to_string())?
        .into_bytes();
    let mut out = Vec::with_capacity(1024 * (body.len() + 128));
    let append = ns_per_op(1024, || {
        out.clear();
        for _ in 0..1024 {
            http::append_response(&mut out, 200, &body, true);
        }
    });
    report.set(
        "serve.http.append_response_ns",
        append,
        "http::append_response of an arrive reply",
    );
    black_box((acc, len));
    Ok(())
}

/// `serve.residual_us`: one request's end-to-end cost minus the serve rows
/// (parse, core command with its telemetry, reply serialization, response
/// framing), weighted by the mix.  Returns the rows' sum in ns.
pub fn serve_residual(
    report: &mut Report,
    e2e_ns: f64,
    arrive: f64,
    depart: f64,
    stats: f64,
) -> f64 {
    let get = |k: &str| report.get(k).unwrap_or(f64::NAN);
    let rows = get("serve.http.parse_frame_ns")
        + arrive * (get("serve.core.arrive_ns") + get("serde_json.write_ns.arrive"))
        + depart * (get("serve.core.depart_ns") + get("serde_json.write_ns.depart"))
        + stats * (get("serve.core.stats_ns") + get("serde_json.write_ns.stats"))
        + get("serve.http.append_response_ns");
    report.set(
        "serve.residual_us",
        (e2e_ns - rows) / 1e3,
        format!(
            "{:.3} us per request minus {:.3} us of serve rows",
            e2e_ns / 1e3,
            rows / 1e3
        ),
    );
    rows
}

/// The reconciliation row: layer costs against the end-to-end cost of one
/// operation, and what is left over.
pub fn reconcile(report: &mut Report, op: &str, e2e_ns: f64, layers_ns: f64) {
    report.set(
        "reconcile.e2e_ns_per_op",
        e2e_ns,
        format!("end-to-end ns per {op} (untraced)"),
    );
    report.set(
        "reconcile.layers_ns_per_op",
        layers_ns,
        format!("sum of layer costs per {op}"),
    );
    report.set(
        "reconcile.residual_ns_per_op",
        e2e_ns - layers_ns,
        "end-to-end minus layers",
    );
    report.set(
        "reconcile.residual_share",
        (e2e_ns - layers_ns) / e2e_ns,
        "residual / end-to-end",
    );
}

/// Round trips of `GET /healthz`: back to back, and after 3 ms of idle
/// (the wake-up cost is the difference).
pub fn server_layers(addr: SocketAddr, report: &mut Report) -> Result<(), String> {
    let healthz = serve::requests().healthz;
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let rtt = |conn: &mut Conn| -> Result<f64, String> {
        let t = Instant::now();
        let (status, _) = conn.call(&healthz).map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        Ok(t.elapsed().as_secs_f64() * 1e6)
    };
    let mut hot = Vec::new();
    for _ in 0..400 {
        hot.push(rtt(&mut conn)?);
    }
    let mut idle = Vec::new();
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(3));
        idle.push(rtt(&mut conn)?);
    }
    let hot = Summary::of(&hot[50..]);
    let idle = Summary::of(&idle);
    report.set(
        "serve.server.healthz_rtt_us",
        hot.median,
        format!(
            "back-to-back GET /healthz; {}",
            crate::report::describe(&hot)
        ),
    );
    report.set(
        "serve.server.idle_wake_us",
        idle.median - hot.median,
        format!(
            "GET /healthz after 3 ms idle ({:.2} us) minus back-to-back",
            idle.median
        ),
    );
    Ok(())
}

/// For workloads without a server of their own: boot the default server,
/// cost its layers and drive a short closed loop for the generator rows.
pub fn serve_side_layers(
    run: &Run,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (_, server) = serve::boot(run.derive("serve.boot"), 1)?;
    let addr = server.addr();
    server_layers(addr, report)?;
    let phase = serve::closed_phase(addr, 1, 0.1, 0.4, run.derive("serve.rec"), tracer);
    serve::client_layers(&phase, report);
    let core = server.shutdown();
    serve_layers(&core, &serve::requests(), run, report)?;
    serve_residual(report, 1e9 / phase.rate.median, 0.5, 0.5, 0.0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_reports_the_residual() {
        let mut report = Report::default();
        reconcile(&mut report, "op", 200.0, 150.0);
        assert_eq!(report.get("reconcile.e2e_ns_per_op"), Some(200.0));
        assert_eq!(report.get("reconcile.layers_ns_per_op"), Some(150.0));
        assert_eq!(report.get("reconcile.residual_ns_per_op"), Some(50.0));
        assert_eq!(report.get("reconcile.residual_share"), Some(0.25));
    }

    #[test]
    fn serve_residual_weights_the_mix() {
        let mut report = Report::default();
        for (name, v) in [
            ("serve.http.parse_frame_ns", 100.0),
            ("serve.core.arrive_ns", 1000.0),
            ("serde_json.write_ns.arrive", 200.0),
            ("serve.core.depart_ns", 300.0),
            ("serde_json.write_ns.depart", 100.0),
            ("serve.core.stats_ns", 0.0),
            ("serde_json.write_ns.stats", 0.0),
            ("serve.http.append_response_ns", 50.0),
        ] {
            report.set(name, v, "");
        }
        // 100 + (1200 + 400) / 2 + 50 = 950 ns of rows.
        let rows = serve_residual(&mut report, 5000.0, 0.5, 0.5, 0.0);
        assert_eq!(rows, 950.0);
        assert_eq!(report.get("serve.residual_us"), Some(4.05));
    }
}
