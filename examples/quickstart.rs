//! Quickstart: simulate the RLS process once and print what happened.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p rls-cli --example quickstart
//! ```

use rls_analysis::bounds::TheoremOneBound;
use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::{MoveCounter, NoAdversary, Simulation, StopWhen};

fn main() {
    // A system of n = 64 bins and m = 1024 balls, all starting in bin 0 —
    // the worst case the paper's analysis reduces to.
    let n = 64;
    let m = 1024;
    let initial = Config::all_in_one_bin(n, m).expect("valid sizes");
    println!("initial configuration: {initial}");

    // The paper's protocol: on activation, sample a random bin and move
    // there iff it is strictly less loaded.
    let mut sim = Simulation::new(initial, RlsRule::paper()).expect("m >= 1");

    // Run until perfect balance (discrepancy < 1), counting moves.
    let mut counter = MoveCounter::new();
    let mut rng = rng_from_seed(2024);
    let outcome = sim.run_with(
        &mut rng,
        StopWhen::perfectly_balanced(),
        &mut NoAdversary,
        &mut counter,
    );

    println!("reached perfect balance: {}", outcome.reached_goal);
    println!("simulated time:          {:.3}", outcome.time);
    println!("ball activations:        {}", outcome.activations);
    println!("actual migrations:       {}", outcome.migrations);
    println!("migration rate:          {:.3}", counter.migration_rate());
    println!("final discrepancy:       {:.3}", outcome.final_discrepancy);
    println!("final loads (first 8):   {:?}", &sim.config().loads()[..8]);

    // Compare against the Theorem 1 shape.
    let bound = TheoremOneBound::new(n, m);
    println!(
        "Theorem 1 shape ln n + n^2/m = {:.3}  (measured/shape = {:.2})",
        bound.expected_shape(),
        outcome.time / bound.expected_shape()
    );
}
