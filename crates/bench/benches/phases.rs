//! E8 / E9 / E10: the three phases of the analysis, benchmarked from the
//! starting configurations each lemma assumes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::{Simulation, StopWhen};
use rls_workloads::Workload;

fn phase1(c: &mut Criterion) {
    // Worst-case start, stop at disc ≤ 8 ln n.
    let mut group = c.benchmark_group("e8_phase1_to_log_balance");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [64usize, 128] {
        let m = 16 * n as u64;
        let target = 8.0 * (n as f64).ln();
        let initial = Config::all_in_one_bin(n, m).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &initial, |b, initial| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut sim = Simulation::new(initial.clone(), RlsRule::paper()).unwrap();
                sim.run(&mut rng_from_seed(seed), StopWhen::x_balanced(target))
            });
        });
    }
    group.finish();
}

fn phase2(c: &mut Criterion) {
    // Block-imbalanced (O(ln n)-balanced) start, stop at disc ≤ 1.
    let mut group = c.benchmark_group("e9_phase2_to_one_balance");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [64usize, 128] {
        let m = 16 * n as u64;
        let offset = (4.0 * (n as f64).ln()) as u64;
        let initial = Workload::BlockImbalance {
            offset: offset.min(15),
        }
        .generate(n, m, &mut rng_from_seed(1))
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &initial, |b, initial| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut sim = Simulation::new(initial.clone(), RlsRule::paper()).unwrap();
                sim.run(&mut rng_from_seed(seed), StopWhen::x_balanced(1.0))
            });
        });
    }
    group.finish();
}

fn phase3(c: &mut Criterion) {
    // 1-balanced start with n/4 over/under pairs, stop at perfect balance.
    let mut group = c.benchmark_group("e10_phase3_to_perfect_balance");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [64usize, 128] {
        let avg = 16u64;
        let pairs = n / 4;
        let mut loads = vec![avg; n];
        for i in 0..pairs {
            loads[i] += 1;
            loads[n - 1 - i] -= 1;
        }
        let initial = Config::from_loads(loads).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &initial, |b, initial| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut sim = Simulation::new(initial.clone(), RlsRule::paper()).unwrap();
                sim.run(&mut rng_from_seed(seed), StopWhen::perfectly_balanced())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, phase1, phase2, phase3);
criterion_main!(benches);
