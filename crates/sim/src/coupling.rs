//! Coupled runs for the Destructive Majorization Lemma experiments (E5).
//!
//! Lemma 2 claims that, at any fixed time `t`, the discrepancy of the RLS
//! process run *with* an adversary injecting destructive moves
//! stochastically dominates the discrepancy of the plain RLS process.  The
//! experiment estimates both discrepancy distributions at a grid of
//! checkpoint times over many independent trials and checks the empirical
//! CDFs for dominance violations.
//!
//! Two coupling modes are provided:
//!
//! * **paired seeds** — the plain and the adversarial run of a trial share
//!   the activation/destination random stream (the adversary draws from a
//!   separate stream), which reduces variance in the comparison exactly the
//!   way the explicit coupling in the paper's proof does;
//! * **independent** — fully independent streams; dominance in distribution
//!   must still hold, just with more sampling noise.

use rls_core::{Config, RlsRule};
use rls_rng::{StreamFactory, StreamId};
use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::engine::Simulation;
use crate::parallel::parallel_map;
use crate::stats::{dominance_report, DominanceReport};

/// Whether the adversarial run reuses the plain run's protocol randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CouplingMode {
    /// Plain and adversarial runs share the protocol random stream.
    PairedSeeds,
    /// Plain and adversarial runs use independent streams.
    Independent,
}

/// Discrepancy samples of plain vs adversarial runs at one checkpoint time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointComparison {
    /// The checkpoint time.
    pub time: f64,
    /// Discrepancies of the plain runs at this time (one per trial).
    pub plain: Vec<f64>,
    /// Discrepancies of the adversarial runs at this time.
    pub adversarial: Vec<f64>,
    /// Dominance report for the claim "adversarial dominates plain".
    pub report: DominanceReport,
}

/// Configuration of a DML dominance experiment.
#[derive(Debug, Clone)]
pub struct DmlExperiment {
    /// Initial configuration shared by all runs.
    pub initial: Config,
    /// Times at which discrepancies are compared.
    pub checkpoints: Vec<f64>,
    /// Number of independent trials.
    pub trials: usize,
    /// Master seed.
    pub master_seed: u64,
    /// Coupling mode.
    pub mode: CouplingMode,
    /// Worker threads.
    pub threads: usize,
}

impl DmlExperiment {
    /// A new experiment with sensible defaults (paired seeds, one thread).
    pub fn new(initial: Config, checkpoints: Vec<f64>, trials: usize, master_seed: u64) -> Self {
        assert!(trials > 0, "at least one trial");
        assert!(!checkpoints.is_empty(), "at least one checkpoint");
        Self {
            initial,
            checkpoints,
            trials,
            master_seed,
            mode: CouplingMode::PairedSeeds,
            threads: 1,
        }
    }

    /// Select the coupling mode.
    pub fn with_mode(mut self, mode: CouplingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Use the given number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run the experiment against an adversary constructed per trial.
    pub fn run<A, F>(&self, make_adversary: F) -> Vec<CheckpointComparison>
    where
        A: Adversary,
        F: Fn(u64) -> A + Sync,
    {
        let factory = StreamFactory::new(self.master_seed);
        let checkpoints = &self.checkpoints;
        let horizon = checkpoints.iter().copied().fold(0.0f64, f64::max);
        let mode = self.mode;
        let initial = &self.initial;

        // Each trial yields (plain discrepancies, adversarial discrepancies)
        // at every checkpoint.
        let per_trial: Vec<(Vec<f64>, Vec<f64>)> = parallel_map(self.trials, self.threads, |i| {
            let trial = i as u64;
            let plain_stream = StreamId::trial(trial).with_component(0);
            let adv_protocol_stream = match mode {
                CouplingMode::PairedSeeds => plain_stream,
                CouplingMode::Independent => StreamId::trial(trial).with_component(1),
            };
            let adversary_stream = StreamId::trial(trial).with_component(2);

            let plain = discrepancies_at(
                initial.clone(),
                checkpoints,
                horizon,
                &mut factory.rng(plain_stream),
                &mut crate::adversary::NoAdversary,
                &mut factory.rng(adversary_stream),
            );
            let mut adversary = make_adversary(trial);
            let adversarial = discrepancies_at(
                initial.clone(),
                checkpoints,
                horizon,
                &mut factory.rng(adv_protocol_stream),
                &mut adversary,
                &mut factory.rng(adversary_stream),
            );
            (plain, adversarial)
        });

        checkpoints
            .iter()
            .enumerate()
            .map(|(ci, &time)| {
                let plain: Vec<f64> = per_trial.iter().map(|(p, _)| p[ci]).collect();
                let adversarial: Vec<f64> = per_trial.iter().map(|(_, a)| a[ci]).collect();
                let report = dominance_report(&adversarial, &plain);
                CheckpointComparison {
                    time,
                    plain,
                    adversarial,
                    report,
                }
            })
            .collect()
    }
}

/// Run one trajectory up to `horizon`, recording the discrepancy at each
/// checkpoint time (the value *at or just after* the checkpoint, i.e. the
/// configuration in force at that instant).
fn discrepancies_at<A: Adversary>(
    initial: Config,
    checkpoints: &[f64],
    horizon: f64,
    protocol_rng: &mut rls_rng::Xoshiro256PlusPlus,
    adversary: &mut A,
    adversary_rng: &mut rls_rng::Xoshiro256PlusPlus,
) -> Vec<f64> {
    let mut sim = Simulation::new(initial, RlsRule::paper())
        .expect("DML experiment configurations have at least one ball");
    let mut sorted: Vec<(usize, f64)> = checkpoints.iter().copied().enumerate().collect();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal));
    let mut out = vec![0.0; checkpoints.len()];
    let mut idx = 0;

    while idx < sorted.len() {
        // Record every checkpoint that the current time has passed.
        while idx < sorted.len() && sim.time() >= sorted[idx].1 {
            out[sorted[idx].0] = sim.tracker().discrepancy();
            idx += 1;
        }
        if idx >= sorted.len() || sim.time() >= horizon && idx >= sorted.len() {
            break;
        }
        if sim.time() >= horizon {
            break;
        }
        let event = sim.step(protocol_rng);
        adversary.after_event(&event, &mut sim, adversary_rng);
    }
    // Any checkpoints beyond the last event time take the final state.
    while idx < sorted.len() {
        out[sorted[idx].0] = sim.tracker().discrepancy();
        idx += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoAdversary, RandomDestructiveAdversary};

    fn experiment(trials: usize) -> DmlExperiment {
        DmlExperiment::new(
            Config::all_in_one_bin(8, 64).unwrap(),
            vec![0.5, 1.0, 2.0, 4.0],
            trials,
            1234,
        )
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = DmlExperiment::new(Config::uniform(2, 1).unwrap(), vec![1.0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one checkpoint")]
    fn empty_checkpoints_rejected() {
        let _ = DmlExperiment::new(Config::uniform(2, 1).unwrap(), vec![], 1, 1);
    }

    #[test]
    fn adversary_free_comparison_is_symmetric() {
        // With the adversary replaced by a no-op and paired seeds, both runs
        // are identical, so every checkpoint shows zero violation and zero
        // gap.
        let comparisons = experiment(10).run(|_| NoAdversary);
        for c in comparisons {
            assert_eq!(c.plain, c.adversarial);
            assert_eq!(c.report.max_violation, 0.0);
            assert_eq!(c.report.max_cdf_gap, 0.0);
        }
    }

    #[test]
    fn destructive_adversary_dominates_plain_run() {
        // The DML claim: discrepancy with adversary ⪰ discrepancy without.
        // Empirically the violation should be within sampling noise while
        // the gap is clearly positive at intermediate times.
        let comparisons = experiment(60)
            .with_threads(4)
            .run(|_| RandomDestructiveAdversary::new(1, 1.0, None));
        // At every checkpoint the mean adversarial discrepancy is at least
        // the plain one (up to noise), and violations stay small.
        for c in &comparisons {
            assert!(
                c.report.mean_gap > -0.5,
                "adversarial mean below plain at t={}: gap {}",
                c.time,
                c.report.mean_gap
            );
            assert!(
                c.report.max_violation < 0.25,
                "dominance violated at t={}: {}",
                c.time,
                c.report.max_violation
            );
        }
        // And at some intermediate checkpoint the adversary visibly hurts.
        assert!(comparisons.iter().any(|c| c.report.mean_gap > 0.1));
    }

    #[test]
    fn independent_mode_still_shows_dominance_in_means() {
        let comparisons = experiment(60)
            .with_mode(CouplingMode::Independent)
            .with_threads(4)
            .run(|_| RandomDestructiveAdversary::new(1, 1.0, None));
        let total_gap: f64 = comparisons.iter().map(|c| c.report.mean_gap).sum();
        assert!(
            total_gap > 0.0,
            "adversarial runs should be slower on average"
        );
    }
}
