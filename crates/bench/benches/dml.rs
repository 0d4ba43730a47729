//! E4 / E5: move classification and the Destructive Majorization Lemma.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rls_cli::experiments::{run_experiment, ExperimentId, Scale};
use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::adversary::RandomDestructiveAdversary;
use rls_sim::{NoAdversary, Simulation, StopWhen};

fn figure1_classification(c: &mut Criterion) {
    // E4 is deterministic and tiny; bench the full table generation.
    c.bench_function("e4_figure1_move_classification", |b| {
        b.iter(|| run_experiment(ExperimentId::E4Figure1Moves, Scale::Quick, 1))
    });
}

fn dml_adversarial_runs(c: &mut Criterion) {
    // E5: one run with and one without a destructive adversary, over the
    // same horizon, so the relative slowdown shows up directly.
    let mut group = c.benchmark_group("e5_dml");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let n = 16;
    let m = 128;
    let horizon = 4.0;
    group.bench_function(BenchmarkId::new("plain", "n16_m128"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
            sim.run_with(
                &mut rng_from_seed(seed),
                StopWhen::never().with_max_time(horizon),
                &mut NoAdversary,
                &mut (),
            )
        });
    });
    group.bench_function(BenchmarkId::new("destructive_adversary", "n16_m128"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
            let mut adversary = RandomDestructiveAdversary::new(1, 0.5, None);
            sim.run_with(
                &mut rng_from_seed(seed),
                StopWhen::never().with_max_time(horizon),
                &mut adversary,
                &mut (),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, figure1_classification, dml_adversarial_runs);
criterion_main!(benches);
