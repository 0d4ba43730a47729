//! Tier-1 smoke tests pinning the lifted `u32` ball cap: instances with
//! `m > u32::MAX` must construct and run in `O(n)` memory.
//!
//! Before the Fenwick-indexed refactor, `Simulation::new` materialized a
//! `balls: Vec<u32>` (4 bytes per ball) and returned
//! `SimError::TooManyBalls` for `m > u32::MAX`.  These tests would have
//! failed at construction (or allocated ≥ 16 GiB); with exchangeable-ball
//! sampling over the load vector they run in milliseconds.

use rls_core::{Config, RlsRule};
use rls_rng::rng_from_seed;
use rls_sim::{Simulation, StopWhen};

const PAST_CAP: u64 = u32::MAX as u64 + 1; // 2^32 balls

#[test]
fn constructs_and_steps_past_the_old_u32_ball_cap() {
    let n = 256usize;
    let cfg = Config::all_in_one_bin(n, PAST_CAP).unwrap();
    let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
    let mut rng = rng_from_seed(1);
    for _ in 0..2000 {
        sim.step(&mut rng);
    }
    assert_eq!(sim.activations(), 2000);
    assert_eq!(sim.config().m(), PAST_CAP, "moves conserve balls");
    assert!(sim.tracker().matches(sim.config()));
    assert!(sim.index().matches(sim.config()));
    // From the all-in-one-bin start nearly every activation migrates.
    assert!(sim.migrations() > 1000, "migrations {}", sim.migrations());
}

#[test]
fn event_budgeted_run_works_past_the_cap() {
    let n = 64usize;
    let per_bin = PAST_CAP / n as u64 + 1;
    let cfg = Config::uniform(n, per_bin).unwrap();
    assert!(cfg.m() > u32::MAX as u64);
    let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
    let outcome = sim.run(
        &mut rng_from_seed(2),
        StopWhen::perfectly_balanced().with_max_activations(500),
    );
    // A uniform start is already perfectly balanced, so the goal is met
    // immediately — the point is that the engine accepted the instance.
    assert!(outcome.reached_goal);
    assert_eq!(sim.config().m(), n as u64 * per_bin);
}
