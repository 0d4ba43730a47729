//! # rls-bench — shared helpers for the Criterion benchmark harness
//!
//! Each bench target under `benches/` regenerates one family of experiments
//! from EXPERIMENTS.md (see DESIGN.md §4 for the mapping).  The helpers here
//! keep Criterion configuration consistent across targets: small sample
//! counts and short measurement windows, because each "iteration" is a full
//! stochastic simulation rather than a nanosecond-scale kernel.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rls_core::{Config, RlsRule};
use rls_rng::DefaultRng;
use rls_sim::{RunOutcome, Simulation, StopWhen};

/// Run one RLS trajectory from `initial` to perfect balance.
pub fn balance_once(initial: &Config, rng: &mut DefaultRng) -> RunOutcome {
    let mut sim = Simulation::new(initial.clone(), RlsRule::paper())
        .expect("bench instances always contain balls");
    sim.run(rng, StopWhen::perfectly_balanced())
}

/// The (n, m) sweep shared by the scaling benches: small enough that the
/// whole suite finishes in minutes, large enough that the Theorem-1 shape is
/// visible in the reported times.
pub fn scaling_sweep() -> Vec<(usize, u64)> {
    vec![(32, 32), (64, 64), (64, 512), (128, 1024)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn balance_once_reaches_balance() {
        let initial = Config::all_in_one_bin(8, 40).unwrap();
        let outcome = balance_once(&initial, &mut rng_from_seed(1));
        assert!(outcome.reached_goal);
    }

    #[test]
    fn sweep_is_nonempty_and_sorted() {
        let sweep = scaling_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
