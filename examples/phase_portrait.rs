//! Phase portrait: trace the discrepancy of one large RLS run over time and
//! mark the paper's three analysis phases.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p rls-cli --example phase_portrait
//! ```

use rls_analysis::bounds::{phase1_time_bound, phase2_time_bound, phase3_time_bound};
use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::observer::{PhaseTracker, TimeSeries};
use rls_sim::{NoAdversary, Simulation, StopWhen};

fn main() {
    let n = 256;
    let m = 256 * 64;
    let initial = Config::all_in_one_bin(n, m).expect("valid sizes");
    let ln_n = (n as f64).ln();

    let mut sim = Simulation::new(initial, RlsRule::paper()).expect("m >= 1");
    let mut observers = (
        TimeSeries::new(0.25),
        PhaseTracker::new(vec![8.0 * ln_n, 1.0, 0.999]),
    );
    let mut rng = rng_from_seed(7);
    let outcome = sim.run_with(
        &mut rng,
        StopWhen::perfectly_balanced(),
        &mut NoAdversary,
        &mut observers,
    );
    let (series, phases) = observers;

    println!("# discrepancy trajectory  (n = {n}, m = {m}, all balls in bin 0)");
    println!(
        "{:>10}  {:>12}  {:>12}",
        "time", "discrepancy", "overloaded"
    );
    for p in series.points().iter().take(60) {
        println!(
            "{:>10.2}  {:>12.2}  {:>12}",
            p.time, p.discrepancy, p.overloaded_balls
        );
    }
    if series.points().len() > 60 {
        println!("... ({} samples total)", series.points().len());
    }

    println!("\n# phase boundaries");
    println!(
        "phase 1 ends (disc <= 8 ln n = {:.1}) at t = {:.3}   [Lemma 10-13 bound: O(ln n) ~ {:.1}]",
        8.0 * ln_n,
        phases.hit_time(0).unwrap_or(f64::NAN),
        phase1_time_bound(n)
    );
    println!(
        "phase 2 ends (disc <= 1)            at t = {:.3}   [Lemma 14-16 bound: O(n/avg) ~ {:.1}]",
        phases.hit_time(1).unwrap_or(f64::NAN),
        phase2_time_bound(n, m)
    );
    println!(
        "phase 3 ends (perfect balance)      at t = {:.3}   [Lemma 17 bound: O(n/avg) ~ {:.1}]",
        outcome.time,
        phase3_time_bound(n, m)
    );
}
