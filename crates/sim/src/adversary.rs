//! Destructive-move adversaries (Lemma 2).
//!
//! The Destructive Majorization Lemma states that an adversary who performs
//! an arbitrary number of *destructive* moves (reversals of legal protocol
//! moves) after each ball movement can only slow the protocol down: the
//! discrepancy under the adversarial process stochastically dominates the
//! discrepancy of plain RLS at every time.  The experiments in E5 exercise
//! this with a few concrete adversaries; the analysis-style simplifications
//! ("move every ball back into one bin") are expressible as well.

use rls_core::MoveClass;
use rls_rng::{Rng64, RngExt};

use crate::engine::Simulation;
use crate::events::Event;

/// An adversary that may inject destructive moves after each protocol event.
///
/// Implementations must only ever perform destructive moves (this is what
/// the DML permits); [`Simulation::force_move`] applies whatever it is asked
/// to, so the adversary itself is responsible for checking the class, and
/// the test-suite checks the provided adversaries never perform an
/// improving move.
pub trait Adversary {
    /// Called after every activation (whether or not the ball moved).
    fn after_event<R: Rng64 + ?Sized>(&mut self, event: &Event, sim: &mut Simulation, rng: &mut R);
}

/// The trivial adversary: does nothing.  `P(0)` in the Lemma 2 proof.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAdversary;

impl Adversary for NoAdversary {
    #[inline]
    fn after_event<R: Rng64 + ?Sized>(
        &mut self,
        _event: &Event,
        _sim: &mut Simulation,
        _rng: &mut R,
    ) {
    }
}

/// After each *migration*, attempts up to `attempts` random destructive
/// moves, each performed with probability `probability`, until an optional
/// total budget of adversarial moves is spent (the process `P(k)` from the
/// Lemma 2 proof uses a finite budget `k`).
#[derive(Debug, Clone, Copy)]
pub struct RandomDestructiveAdversary {
    /// Destructive-move attempts per protocol migration.
    pub attempts: usize,
    /// Probability of actually performing each attempted move.
    pub probability: f64,
    /// Remaining budget of adversarial moves (`None` = unlimited).
    pub budget: Option<u64>,
    performed: u64,
}

impl RandomDestructiveAdversary {
    /// Adversary with `attempts` attempts per event, each taken with the
    /// given probability, and an optional total budget.
    pub fn new(attempts: usize, probability: f64, budget: Option<u64>) -> Self {
        Self {
            attempts,
            probability,
            budget,
            performed: 0,
        }
    }

    /// Number of destructive moves performed so far.
    pub fn performed(&self) -> u64 {
        self.performed
    }

    fn budget_left(&self) -> bool {
        self.budget.is_none_or(|b| self.performed < b)
    }
}

impl Adversary for RandomDestructiveAdversary {
    fn after_event<R: Rng64 + ?Sized>(&mut self, event: &Event, sim: &mut Simulation, rng: &mut R) {
        if !event.moved {
            return;
        }
        let n = sim.config().n();
        for _ in 0..self.attempts {
            if !self.budget_left() {
                return;
            }
            if !rng.next_bernoulli(self.probability) {
                continue;
            }
            let from = rng.next_index(n);
            let to = rng.next_index(n);
            if from == to || sim.config().load(from) == 0 {
                continue;
            }
            let class = MoveClass::classify(sim.config().load(from), sim.config().load(to), false);
            if class.is_destructive() && sim.force_move(from, to) {
                self.performed += 1;
            }
        }
    }
}

/// After each migration, moves one ball from a least-loaded bin back into a
/// most-loaded bin (always a destructive move) — the "pile everything back
/// up" adversary, the most aggressive single-move adversary per event.
#[derive(Debug, Clone, Copy, Default)]
pub struct PileUpAdversary {
    performed: u64,
}

impl PileUpAdversary {
    /// A fresh pile-up adversary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of destructive moves performed so far.
    pub fn performed(&self) -> u64 {
        self.performed
    }
}

impl Adversary for PileUpAdversary {
    fn after_event<R: Rng64 + ?Sized>(
        &mut self,
        event: &Event,
        sim: &mut Simulation,
        _rng: &mut R,
    ) {
        if !event.moved {
            return;
        }
        let loads = sim.config().loads();
        let (mut max_bin, mut max_load) = (0usize, 0u64);
        let (mut min_bin, mut min_load) = (0usize, u64::MAX);
        for (i, &l) in loads.iter().enumerate() {
            if l > max_load {
                max_load = l;
                max_bin = i;
            }
            if l < min_load {
                min_load = l;
                min_bin = i;
            }
        }
        // Moving from the minimum to the maximum is destructive whenever the
        // bins differ and the minimum is non-empty.
        if max_bin != min_bin && min_load > 0 && sim.force_move(min_bin, max_bin) {
            self.performed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::StopWhen;
    use rls_core::{Config, RlsRule};
    use rls_rng::rng_from_seed;

    fn sim(n: usize, m: u64) -> Simulation {
        Simulation::new(Config::all_in_one_bin(n, m).unwrap(), RlsRule::paper()).unwrap()
    }

    #[test]
    fn no_adversary_is_a_noop() {
        let mut s = sim(4, 16);
        let mut rng = rng_from_seed(1);
        let before = s.config().clone();
        let event = Event::activation(0.1, 0, 1, true, 1);
        NoAdversary.after_event(&event, &mut s, &mut rng);
        assert_eq!(s.config(), &before);
    }

    #[test]
    fn random_adversary_respects_budget() {
        let mut s = sim(8, 80);
        let mut rng = rng_from_seed(2);
        let mut adv = RandomDestructiveAdversary::new(4, 1.0, Some(5));
        let _ = s.run_with(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(20_000),
            &mut adv,
            &mut (),
        );
        assert!(adv.performed() <= 5);
    }

    #[test]
    fn adversary_slows_down_but_balance_is_still_reached() {
        // With a finite adversarial budget the process still balances.
        let mut plain = sim(8, 64);
        let mut rng1 = rng_from_seed(3);
        let t_plain = plain.run(&mut rng1, StopWhen::perfectly_balanced()).time;

        let mut adv_sim = sim(8, 64);
        let mut rng2 = rng_from_seed(3);
        let mut adv = RandomDestructiveAdversary::new(1, 1.0, Some(50));
        let outcome = adv_sim.run_with(
            &mut rng2,
            StopWhen::perfectly_balanced().with_max_activations(2_000_000),
            &mut adv,
            &mut (),
        );
        assert!(outcome.reached_goal);
        assert!(adv.performed() > 0);
        // Not a strict pathwise guarantee, but with the same seed and 50
        // injected destructive moves the adversarial run should not be
        // faster by more than noise; we only check it still terminates and
        // record the times for sanity.
        assert!(outcome.time > 0.0 && t_plain > 0.0);
    }

    #[test]
    fn pileup_adversary_performs_destructive_moves() {
        let mut s = sim(6, 36);
        let mut rng = rng_from_seed(4);
        let mut adv = PileUpAdversary::new();
        // With a pile-up move after *every* migration, progress toward
        // balance is undone each time; cap the run with a budget.
        let outcome = s.run_with(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(5_000),
            &mut adv,
            &mut (),
        );
        assert!(adv.performed() > 0);
        // The run should not have balanced: the adversary undoes progress.
        assert!(!outcome.reached_goal);
    }

    #[test]
    fn adversaries_keep_ball_count_invariant() {
        let mut s = sim(8, 48);
        let mut rng = rng_from_seed(5);
        let mut adv = RandomDestructiveAdversary::new(2, 0.5, None);
        let _ = s.run_with(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(10_000),
            &mut adv,
            &mut (),
        );
        assert_eq!(s.config().loads().iter().sum::<u64>(), 48);
        assert!(s.tracker().matches(s.config()));
    }
}
