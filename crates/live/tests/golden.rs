//! Online bit identity: per-seed outcomes of `LiveEngine` (and one
//! `ShardedEngine`) pinned to recorded values.  Each case digests the full
//! event stream (FNV-1a over every event's JSON, which carries the time
//! bits and every resolved coordinate) and, separately, the final books:
//! loads, counters, time bits, the tracker's aggregates and histogram and,
//! on weighted engines, the weight and rate indexes and per-ball weights.
//! A change to the draw order, to a decision rule or to the bookkeeping
//! shows up here as a different digest.
//!
//! The cases cover every arrival and membership path the engine has: unit
//! Poisson arrivals, hotspot arrivals (both the biased and the uniform
//! branch), a churned elastic run (epoch above zero, so placement reads
//! the live-id list), a weighted two-speed run, and an `apply_batch` of
//! mixed pinned, unpinned and rejected commands.

use rls_core::{Config, LoadTracker, RebalancePolicy, RlsRule};
use rls_graph::Topology;
use rls_live::{LiveCommand, LiveEngine, LiveEvent, LiveParams, ShardedEngine};
use rls_rng::rng_from_seed;
use rls_workloads::{ArrivalProcess, ChurnProcess, WeightDist};

/// `(seed, event-stream digest, final-books digest)` of one run.
type Golden = (u64, u64, u64);

const N: usize = 12;
const PER_BIN: u64 = 5;
const STEPS: usize = 1500;

/// FNV-1a over a byte stream, continued from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, |h, w| fnv(h, &w.to_le_bytes()))
}

fn event_digest(h: u64, event: &LiveEvent) -> u64 {
    fnv(h, serde_json::to_string(event).unwrap().as_bytes())
}

fn tracker_words(t: &LoadTracker) -> Vec<u64> {
    let bc = t.bin_counts();
    let mut words = vec![
        t.n() as u64,
        t.m(),
        t.min_load(),
        t.max_load(),
        t.overloaded_balls(),
        t.holes(),
        bc.above as u64,
        bc.at as u64,
        bc.below as u64,
        t.phase2_potential() as u64,
    ];
    for (load, bins) in t.histogram() {
        words.extend([load, bins as u64]);
    }
    words
}

fn books_digest(eng: &LiveEngine) -> u64 {
    let c = eng.counters();
    let mut h = fold(FNV_OFFSET, eng.config().loads().iter().copied());
    h = fold(
        h,
        [
            c.arrivals,
            c.departures,
            c.rings,
            c.migrations,
            c.joins,
            c.drains,
            c.events,
            eng.time().to_bits(),
            eng.epoch(),
            eng.live_count() as u64,
        ],
    );
    h = fold(h, tracker_words(eng.tracker()));
    if let (Some(weights), Some(rates)) = (eng.weight_index(), eng.rate_index()) {
        let n = eng.config().n();
        h = fold(h, (0..n).map(|b| weights.load(b)));
        h = fold(h, (0..n).map(|b| rates.load(b)));
        for b in 0..n {
            h = fold(h, eng.ball_weights(b).unwrap_or(&[]).iter().copied());
        }
    }
    h
}

fn params(arrivals: ArrivalProcess) -> LiveParams {
    LiveParams::balanced(arrivals, N, N as u64 * PER_BIN).unwrap()
}

fn poisson() -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_per_bin: 1.5 }
}

/// A skewed start, so rings keep migrating for the whole run.
fn start() -> Config {
    let mut loads = vec![PER_BIN; N];
    loads[0] += 3 * PER_BIN;
    loads[N - 1] = 0;
    Config::from_loads(loads).unwrap()
}

/// Step `eng` `STEPS` times on `seed`'s stream and digest the run.
fn simulate(eng: &mut LiveEngine, seed: u64) -> (u64, u64) {
    let mut rng = rng_from_seed(seed);
    let mut events = FNV_OFFSET;
    for _ in 0..STEPS {
        let event = eng.step(&mut rng).expect("positive arrival rate");
        events = event_digest(events, &event);
    }
    assert!(eng.state().matches(), "books drifted");
    (events, books_digest(eng))
}

fn check(label: &str, cases: &[Golden], run: impl Fn(u64) -> (u64, u64)) {
    for &(seed, events, books) in cases {
        let got = run(seed);
        assert_eq!(
            got,
            (events, books),
            "{label} seed {seed}: got ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn unit_rls_with_poisson_arrivals_is_bit_identical() {
    let cases: [Golden; 3] = [
        (1, 0xb8fb_5a9b_713d_cbfb, 0x7c88_1844_9f46_fb58),
        (2, 0x1531_3ea3_04d8_abea, 0x405c_37a1_4680_e9c9),
        (3, 0xf0a9_778f_d532_6ddd, 0x48b8_ace5_4708_b0f6),
    ];
    check("poisson", &cases, |seed| {
        let mut eng = LiveEngine::new(start(), params(poisson()), RlsRule::paper()).unwrap();
        simulate(&mut eng, seed)
    });
}

#[test]
fn hotspot_arrivals_are_bit_identical() {
    let hot = ArrivalProcess::Hotspot {
        rate_per_bin: 1.5,
        bias: 0.35,
    };
    let cases: [Golden; 3] = [
        (4, 0x877f_2171_3a4d_a843, 0xac7e_ec55_138b_3d07),
        (5, 0x5a02_3c4f_2066_66a3, 0x5004_c8ae_201a_47ca),
        (6, 0xb7fe_ff0f_939f_202c, 0xaf72_c111_29c1_01b0),
    ];
    check("hotspot", &cases, |seed| {
        let mut eng = LiveEngine::new(start(), params(hot), RlsRule::paper()).unwrap();
        simulate(&mut eng, seed)
    });
}

#[test]
fn churned_elastic_runs_are_bit_identical() {
    let cases: [Golden; 3] = [
        (7, 0x59d1_cd6d_3686_8c5f, 0x0f0b_3c12_ba81_da62),
        (8, 0x509a_a34a_b534_5b59, 0x8193_1263_82ff_8ff9),
        (9, 0x8f52_1a77_95ce_9ce7, 0xcb33_5199_1a06_3df4),
    ];
    check("churn", &cases, |seed| {
        let mut eng = LiveEngine::new(start(), params(poisson()), RlsRule::paper()).unwrap();
        eng.set_churn(ChurnProcess::Steady {
            join_rate: 1.0,
            drain_rate: 0.8,
            warm: true,
        })
        .unwrap();
        let digests = simulate(&mut eng, seed);
        let c = eng.counters();
        assert!(c.joins > 0 && c.drains > 0, "the run scales both ways");
        digests
    });
}

#[test]
fn weighted_two_speed_runs_are_bit_identical() {
    let cases: [Golden; 3] = [
        (10, 0x49fa_3a4a_f2bc_69bc, 0x6ade_71d7_5d65_713c),
        (11, 0xda1c_cb09_43bc_53cb, 0x5fe0_d4e7_8454_82fc),
        (12, 0xed46_6597_2d3b_053f, 0x65e2_de5b_f64d_ab0b),
    ];
    check("weighted", &cases, |seed| {
        let speeds = (0..N).map(|b| if b % 2 == 0 { 1 } else { 3 }).collect();
        let mut eng = LiveEngine::with_hetero(
            start(),
            params(poisson()),
            RebalancePolicy::rls(),
            Topology::Complete,
            seed ^ 0x9E37,
            WeightDist::UniformInt { lo: 1, hi: 6 },
            speeds,
            &mut rng_from_seed(seed ^ 0x517C),
        )
        .unwrap();
        simulate(&mut eng, seed)
    });
}

/// A command script of pinned, unpinned and rejected commands.
fn script() -> Vec<LiveCommand> {
    let mut cmds = Vec::new();
    for i in 0..240usize {
        let bin = i * 7 % N;
        cmds.push(match i % 12 {
            0 => LiveCommand::Arrive {
                bin: Some(bin),
                weight: None,
            },
            1 | 6 => LiveCommand::Arrive {
                bin: None,
                weight: None,
            },
            2 => LiveCommand::Depart {
                bin: Some(bin),
                weight: None,
            },
            3 | 9 => LiveCommand::Depart {
                bin: None,
                weight: None,
            },
            4 => LiveCommand::Ring {
                source: Some(bin),
                dest: Some((bin + 5) % N),
            },
            5 => LiveCommand::Ring {
                source: Some(bin),
                dest: None,
            },
            10 if i % 48 == 10 => LiveCommand::AddBin { warm: i % 96 == 10 },
            11 if i % 48 == 35 => LiveCommand::DrainBin { bin: None },
            // Out of range: rejected without touching the engine.
            11 if i % 48 == 11 => LiveCommand::Depart {
                bin: Some(N + 1000),
                weight: None,
            },
            _ => LiveCommand::Ring {
                source: None,
                dest: None,
            },
        });
    }
    cmds
}

#[test]
fn apply_batch_of_mixed_commands_is_bit_identical() {
    let cases: [Golden; 3] = [
        (13, 0x62ad_6986_fddb_a0ed, 0x9674_9eeb_94df_e19e),
        (14, 0x562e_f6f3_168d_6518, 0xb64a_d690_ed5e_82d3),
        (15, 0x89e7_31c1_8bf6_2a66, 0x2ed2_17d0_aa0b_29b3),
    ];
    check("apply_batch", &cases, |seed| {
        let mut eng = LiveEngine::new(start(), params(poisson()), RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(seed);
        let cmds = script();
        let mut events = FNV_OFFSET;
        let (mut ok, mut rejected) = (0, 0);
        for chunk in cmds.chunks(16) {
            for res in eng.apply_batch(chunk, &mut rng, &mut ()) {
                match res {
                    Ok(event) => {
                        ok += 1;
                        events = event_digest(events, &event);
                    }
                    Err(e) => {
                        rejected += 1;
                        events = fnv(events, e.to_string().as_bytes());
                    }
                }
            }
        }
        assert!(
            ok > 0 && rejected > 0,
            "the script mixes accepted and rejected"
        );
        assert!(eng.state().matches(), "books drifted");
        (events, books_digest(&eng))
    });
}

#[test]
fn sharded_churned_runs_are_bit_identical() {
    let cases: [Golden; 2] = [
        (16, 0x334f_fe9b_f4e1_b2f7, 0x85be_ce08_4b9e_f029),
        (17, 0xf99f_7961_8b51_0579, 0xe94f_3490_55d1_4de5),
    ];
    check("sharded", &cases, |seed| {
        let mut eng =
            ShardedEngine::new(start(), params(poisson()), RlsRule::paper(), 3, 0.25, seed)
                .unwrap();
        eng.set_churn(ChurnProcess::Steady {
            join_rate: 0.6,
            drain_rate: 0.5,
            warm: true,
        })
        .unwrap();
        let out = eng.run(20.0, 2.0, 2);
        let c = out.counters;
        let events = fold(
            FNV_OFFSET,
            [
                c.arrivals,
                c.departures,
                c.rings,
                c.migrations,
                c.joins,
                c.drains,
                c.events,
                out.time.to_bits(),
                out.epoch,
                out.live_bins as u64,
            ],
        );
        (events, fold(FNV_OFFSET, out.final_loads.iter().copied()))
    });
}
