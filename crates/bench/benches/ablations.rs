//! Ablations for the design choices called out in DESIGN.md §5:
//!
//! * superposition scheduler vs the per-ball clock heap (same law, different
//!   constants),
//! * incremental `LoadTracker` bookkeeping vs rescanning the load vector,
//! * dynamic vs statically-chunked parallel Monte-Carlo scheduling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rls_core::{Config, LoadTracker, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::clock::ClockEngine;
use rls_sim::parallel::{parallel_map, parallel_map_chunked};
use rls_sim::{Simulation, StopWhen};

fn scheduler_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scheduler");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 64;
    let m = 1024;
    group.bench_function("superposition_engine", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
            sim.run(&mut rng_from_seed(seed), StopWhen::perfectly_balanced())
        });
    });
    group.bench_function("per_ball_clock_heap", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut engine = ClockEngine::new(cfg, RlsRule::paper(), &mut rng_from_seed(seed));
            engine.run(&mut rng_from_seed(seed + 1), StopWhen::perfectly_balanced())
        });
    });
    group.finish();
}

fn bookkeeping_ablation(c: &mut Criterion) {
    // Checking "is perfectly balanced" after every move: incremental tracker
    // vs a full rescan of the load vector.
    let mut group = c.benchmark_group("ablation_configuration_bookkeeping");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [256usize, 1024] {
        // A fixed pseudo-random move trace over an unbalanced configuration
        // (most moves out of the heavy bin are RLS-legal, so the checks are
        // actually exercised).
        let start = Config::all_in_one_bin(n, 16 * n as u64).unwrap();
        let rule = RlsRule::paper();
        let trace: Vec<(usize, usize)> = {
            use rls_rng::RngExt;
            let mut rng = rng_from_seed(7);
            (0..4 * n)
                .map(|i| {
                    let from = if i % 4 == 0 { rng.next_index(n) } else { 0 };
                    (from, rng.next_index(n))
                })
                .filter(|&(from, to)| from != to)
                .collect()
        };
        group.bench_with_input(
            BenchmarkId::new("incremental_tracker", n),
            &trace,
            |b, trace| {
                b.iter(|| {
                    let mut cfg = start.clone();
                    let mut tracker = LoadTracker::new(&cfg);
                    let mut balanced_checks = 0usize;
                    for &(from, to) in trace {
                        if cfg.load(from) == 0 || !rule.permits_loads(cfg.load(from), cfg.load(to))
                        {
                            continue;
                        }
                        let (lf, lt) = (cfg.load(from), cfg.load(to));
                        cfg.apply(rls_core::Move::new(from, to)).unwrap();
                        tracker.record_move(lf, lt);
                        balanced_checks += tracker.is_perfectly_balanced() as usize;
                    }
                    balanced_checks
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("full_rescan", n), &trace, |b, trace| {
            b.iter(|| {
                let mut cfg = start.clone();
                let mut balanced_checks = 0usize;
                for &(from, to) in trace {
                    if cfg.load(from) == 0 || !rule.permits_loads(cfg.load(from), cfg.load(to)) {
                        continue;
                    }
                    cfg.apply(rls_core::Move::new(from, to)).unwrap();
                    balanced_checks += cfg.is_perfectly_balanced() as usize;
                }
                balanced_checks
            });
        });
    }
    group.finish();
}

fn parallel_granularity_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_granularity");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let trials = 32usize;
    let work = |i: usize| {
        let cfg = Config::all_in_one_bin(16, 256).unwrap();
        let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
        sim.run(&mut rng_from_seed(i as u64), StopWhen::perfectly_balanced())
            .activations
    };
    group.bench_function("dynamic_claiming", |b| {
        b.iter(|| parallel_map(trials, 4, work))
    });
    group.bench_function("static_chunking", |b| {
        b.iter(|| parallel_map_chunked(trials, 4, work))
    });
    group.finish();
}

criterion_group!(
    benches,
    scheduler_ablation,
    bookkeeping_ablation,
    parallel_granularity_ablation
);
criterion_main!(benches);
