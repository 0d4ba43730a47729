//! Randomized Local Search as a comparison protocol.
//!
//! A thin wrapper around the `rls-sim` engine that reports a
//! [`ProtocolOutcome`], so RLS lines up in the same tables as the
//! synchronous and one-shot baselines.

use rls_core::{Config, RlsRule, RlsVariant};
use rls_rng::Rng64;
use rls_sim::{Simulation, StopWhen};

use crate::outcome::{CostModel, ProtocolOutcome};

/// The RLS protocol (either variant) with an optional activation budget.
#[derive(Debug, Clone, Copy)]
pub struct RlsProtocol {
    variant: RlsVariant,
    max_activations: Option<u64>,
}

impl RlsProtocol {
    /// The `≥` variant analyzed in the paper.
    pub fn paper() -> Self {
        Self {
            variant: RlsVariant::Geq,
            max_activations: None,
        }
    }

    /// The strict `>` variant of [12, 11].
    pub fn strict() -> Self {
        Self {
            variant: RlsVariant::Strict,
            max_activations: None,
        }
    }

    /// Bound the number of activations (for budget-limited comparisons).
    pub fn with_max_activations(mut self, budget: u64) -> Self {
        self.max_activations = Some(budget);
        self
    }

    /// The protocol's display name.
    pub fn name(&self) -> &'static str {
        self.variant.name()
    }

    /// Run to the target discrepancy (`< 1.0` means perfect balance).
    pub fn run<R: Rng64 + ?Sized>(
        &self,
        initial: &Config,
        target_discrepancy: f64,
        rng: &mut R,
    ) -> ProtocolOutcome {
        let mut stop = if target_discrepancy < 1.0 {
            StopWhen::perfectly_balanced()
        } else {
            StopWhen::x_balanced(target_discrepancy)
        };
        if let Some(b) = self.max_activations {
            stop = stop.with_max_activations(b);
        }
        let mut sim = Simulation::new(initial.clone(), RlsRule::new(self.variant))
            .expect("comparison instances always contain balls");
        let outcome = sim.run(rng, stop);
        ProtocolOutcome {
            cost_model: CostModel::ContinuousTime,
            cost: outcome.time,
            activations: outcome.activations,
            migrations: outcome.migrations,
            reached_goal: outcome.reached_goal,
            final_discrepancy: outcome.final_discrepancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn both_variants_balance_small_instances() {
        let initial = Config::all_in_one_bin(8, 64).unwrap();
        for p in [RlsProtocol::paper(), RlsProtocol::strict()] {
            let out = p.run(&initial, 0.0, &mut rng_from_seed(1));
            assert!(out.reached_goal, "{}", p.name());
            assert!(out.final_discrepancy < 1.0);
            assert_eq!(out.cost_model, CostModel::ContinuousTime);
            assert!(out.migrations >= 56);
        }
    }

    #[test]
    fn budget_limits_are_respected() {
        let initial = Config::all_in_one_bin(64, 4096).unwrap();
        let out =
            RlsProtocol::paper()
                .with_max_activations(50)
                .run(&initial, 0.0, &mut rng_from_seed(2));
        assert!(!out.reached_goal);
        assert_eq!(out.activations, 50);
    }

    #[test]
    fn x_balance_target_stops_earlier_than_perfect() {
        let initial = Config::all_in_one_bin(16, 1024).unwrap();
        let loose = RlsProtocol::paper().run(&initial, 8.0, &mut rng_from_seed(3));
        let tight = RlsProtocol::paper().run(&initial, 0.0, &mut rng_from_seed(3));
        assert!(loose.reached_goal && tight.reached_goal);
        assert!(loose.cost <= tight.cost);
        assert!(loose.final_discrepancy <= 8.0);
    }

    #[test]
    fn names() {
        assert_eq!(RlsProtocol::paper().name(), "rls-geq");
        assert_eq!(RlsProtocol::strict().name(), "rls-strict");
    }
}
