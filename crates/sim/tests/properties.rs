//! Property-based tests for the simulation engine: invariants that must
//! hold for every seed, every instance size and every stopping rule.

use proptest::prelude::*;
use rls_core::{Config, RlsRule, RlsVariant};
use rls_rng::rng_from_seed;
use rls_sim::{Simulation, StopWhen};

/// Strategy: a small but varied (n, m, seed) instance.
fn instance() -> impl Strategy<Value = (usize, u64, u64)> {
    (2usize..=12, 1u64..=80, 0u64..=1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balls are conserved along any trajectory and the final state reported
    /// by the tracker always matches the configuration.
    #[test]
    fn simulation_conserves_balls((n, m, seed) in instance()) {
        let initial = Config::all_in_one_bin(n, m).unwrap();
        let mut sim = Simulation::new(initial, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(seed);
        let outcome = sim.run(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(20_000),
        );
        prop_assert_eq!(sim.config().m(), m);
        prop_assert_eq!(sim.config().loads().iter().sum::<u64>(), m);
        prop_assert!(sim.tracker().matches(sim.config()));
        prop_assert!(outcome.migrations <= outcome.activations);
    }

    /// The discrepancy reported at the end never exceeds the initial
    /// discrepancy (RLS never makes things worse), and reaching the goal
    /// means the configuration really is perfectly balanced.
    #[test]
    fn discrepancy_never_increases((n, m, seed) in instance()) {
        let initial = Config::all_in_one_bin(n, m).unwrap();
        let initial_disc = initial.discrepancy();
        let mut sim = Simulation::new(initial, RlsRule::paper()).unwrap();
        let outcome = sim.run(
            &mut rng_from_seed(seed),
            StopWhen::perfectly_balanced().with_max_activations(20_000),
        );
        prop_assert!(outcome.final_discrepancy <= initial_disc + 1e-9);
        if outcome.reached_goal {
            prop_assert!(sim.config().is_perfectly_balanced());
        }
    }

    /// Simulated time is non-decreasing and strictly positive once an event
    /// has happened; the number of activations matches the event count.
    #[test]
    fn time_and_activations_are_consistent((n, m, seed) in instance()) {
        let initial = Config::all_in_one_bin(n, m).unwrap();
        let mut sim = Simulation::new(initial, RlsRule::paper()).unwrap();
        let mut rng = rng_from_seed(seed);
        let mut last_time = 0.0;
        for k in 1..=50u64 {
            let event = sim.step(&mut rng);
            prop_assert!(event.time >= last_time);
            prop_assert_eq!(event.activations, k);
            last_time = event.time;
        }
        prop_assert_eq!(sim.activations(), 50);
        prop_assert!(sim.time() > 0.0);
    }

    /// Both RLS variants, run with the same seed from the same start, end
    /// with the same total number of balls and valid balance states.
    #[test]
    fn both_variants_are_well_behaved((n, m, seed) in instance()) {
        for variant in [RlsVariant::Geq, RlsVariant::Strict] {
            let initial = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(initial, RlsRule::new(variant)).unwrap();
            let outcome = sim.run(
                &mut rng_from_seed(seed),
                StopWhen::perfectly_balanced().with_max_activations(20_000),
            );
            prop_assert_eq!(sim.config().m(), m);
            prop_assert!(outcome.final_discrepancy >= 0.0);
        }
    }

    /// Deterministic replay: identical seeds produce identical outcomes.
    #[test]
    fn replay_is_exact((n, m, seed) in instance()) {
        let run = || {
            let initial = Config::all_in_one_bin(n, m).unwrap();
            let mut sim = Simulation::new(initial, RlsRule::paper()).unwrap();
            sim.run(
                &mut rng_from_seed(seed),
                StopWhen::perfectly_balanced().with_max_activations(10_000),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Stopping at x-balance really stops at x-balance (never overshoots the
    /// goal check), for any threshold.
    #[test]
    fn x_balanced_goal_is_respected((n, m, seed) in instance(), x in 0.5f64..10.0) {
        let initial = Config::all_in_one_bin(n, m).unwrap();
        let mut sim = Simulation::new(initial, RlsRule::paper()).unwrap();
        let outcome = sim.run(
            &mut rng_from_seed(seed),
            StopWhen::x_balanced(x).with_max_activations(20_000),
        );
        if outcome.reached_goal {
            prop_assert!(sim.config().discrepancy() <= x + 1e-9);
        }
    }
}
