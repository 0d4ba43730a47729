//! Monte-Carlo driver: many independent trials of a stopping-time
//! experiment, sequentially or across threads.
//!
//! Every trial derives its own random stream from the experiment's master
//! seed through [`StreamFactory`], so results are reproducible bit-for-bit
//! regardless of how many threads execute them or in which order.

use rls_core::{Config, RebalancePolicy};
use rls_rng::{StreamFactory, StreamId};
use serde::{Deserialize, Serialize};

use crate::engine::{RunOutcome, Simulation};
use crate::parallel::{default_threads, parallel_map};
use crate::stats::Summary;
use crate::stopping::StopWhen;

/// Result of a single Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Trial index.
    pub trial: u64,
    /// Simulated time at which the run stopped.
    pub time: f64,
    /// Number of activations processed.
    pub activations: u64,
    /// Number of migrations performed.
    pub migrations: u64,
    /// Whether the goal (rather than a budget) stopped the run.
    pub reached_goal: bool,
}

impl TrialResult {
    fn from_outcome(trial: u64, outcome: RunOutcome) -> Self {
        Self {
            trial,
            time: outcome.time,
            activations: outcome.activations,
            migrations: outcome.migrations,
            reached_goal: outcome.reached_goal,
        }
    }
}

/// Aggregated results of a Monte-Carlo experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Per-trial results, in trial order.
    pub trials: Vec<TrialResult>,
    /// Summary of stopping times.
    pub time: Summary,
    /// Summary of activation counts.
    pub activations: Summary,
    /// Summary of migration counts.
    pub migrations: Summary,
    /// Fraction of trials that reached the goal.
    pub goal_rate: f64,
}

impl MonteCarloReport {
    fn from_trials(trials: Vec<TrialResult>) -> Self {
        assert!(
            !trials.is_empty(),
            "Monte-Carlo experiment needs at least one trial"
        );
        let times: Vec<f64> = trials.iter().map(|t| t.time).collect();
        let acts: Vec<f64> = trials.iter().map(|t| t.activations as f64).collect();
        let migs: Vec<f64> = trials.iter().map(|t| t.migrations as f64).collect();
        let goal_rate =
            trials.iter().filter(|t| t.reached_goal).count() as f64 / trials.len() as f64;
        Self {
            time: Summary::from_samples(&times),
            activations: Summary::from_samples(&acts),
            migrations: Summary::from_samples(&migs),
            goal_rate,
            trials,
        }
    }

    /// The stopping times of all trials (convenience for dominance tests and
    /// quantile extraction).
    pub fn times(&self) -> Vec<f64> {
        self.trials.iter().map(|t| t.time).collect()
    }
}

/// A Monte-Carlo experiment: run a policy from (copies of) an initial
/// configuration until a stopping condition, many times.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    trials: usize,
    master_seed: u64,
    threads: usize,
    salt: u64,
}

impl MonteCarlo {
    /// An experiment with the given number of trials and master seed,
    /// defaulting to one thread (fully deterministic *and* observable in
    /// single-threaded profiling); call [`parallel`](Self::parallel) to use
    /// all cores — results are identical either way.
    pub fn new(trials: usize, master_seed: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        Self {
            trials,
            master_seed,
            threads: 1,
            salt: 0,
        }
    }

    /// Use the default number of worker threads.
    pub fn parallel(mut self) -> Self {
        self.threads = default_threads();
        self
    }

    /// Use an explicit number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Distinguish several experiments sharing a master seed (e.g. the
    /// points of a parameter sweep) so they do not reuse random streams.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Run the experiment with a fixed initial configuration and policy.
    pub fn run(
        &self,
        initial: &Config,
        stop: StopWhen,
        policy: impl Into<RebalancePolicy>,
    ) -> MonteCarloReport {
        self.run_with_setup(stop, |_trial| initial.clone(), policy)
    }

    /// Run the experiment with a per-trial initial configuration (e.g. a
    /// random workload drawn from the trial's own stream).
    pub fn run_with_setup<G>(
        &self,
        stop: StopWhen,
        make_initial: G,
        policy: impl Into<RebalancePolicy>,
    ) -> MonteCarloReport
    where
        G: Fn(u64) -> Config + Sync,
    {
        let policy = policy.into();
        let factory = StreamFactory::new(self.master_seed);
        let salt = self.salt;
        let results = parallel_map(self.trials, self.threads, |i| {
            let trial = i as u64;
            let mut rng = factory.rng(StreamId::trial(trial).with_component(1).with_salt(salt));
            let initial = make_initial(trial);
            let mut sim = Simulation::new(initial, policy)
                .expect("experiment initial configurations must have at least one ball");
            let outcome = sim.run(&mut rng, stop);
            TrialResult::from_outcome(trial, outcome)
        });
        MonteCarloReport::from_trials(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_core::RlsRule;

    fn policy() -> RlsRule {
        RlsRule::paper()
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = MonteCarlo::new(0, 1);
    }

    #[test]
    fn report_aggregates_all_trials() {
        let initial = Config::all_in_one_bin(8, 64).unwrap();
        let report =
            MonteCarlo::new(16, 42).run(&initial, StopWhen::perfectly_balanced(), policy());
        assert_eq!(report.trials.len(), 16);
        assert_eq!(report.goal_rate, 1.0);
        assert!(report.time.mean > 0.0);
        assert!(report.activations.mean >= 56.0);
        assert_eq!(report.times().len(), 16);
        // Trials are in order.
        for (i, t) in report.trials.iter().enumerate() {
            assert_eq!(t.trial, i as u64);
        }
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        let initial = Config::all_in_one_bin(6, 48).unwrap();
        let seq = MonteCarlo::new(12, 7).run(&initial, StopWhen::perfectly_balanced(), policy());
        let par = MonteCarlo::new(12, 7).with_threads(4).run(
            &initial,
            StopWhen::perfectly_balanced(),
            policy(),
        );
        assert_eq!(seq.trials, par.trials);
    }

    #[test]
    fn different_salts_give_different_results() {
        let initial = Config::all_in_one_bin(6, 48).unwrap();
        let a = MonteCarlo::new(8, 7).with_salt(0).run(
            &initial,
            StopWhen::perfectly_balanced(),
            policy(),
        );
        let b = MonteCarlo::new(8, 7).with_salt(1).run(
            &initial,
            StopWhen::perfectly_balanced(),
            policy(),
        );
        assert_ne!(a.trials, b.trials);
    }

    #[test]
    fn per_trial_setup_is_used() {
        // Each trial gets a different (but always unbalanced) start; all
        // should still reach perfect balance.
        let report = MonteCarlo::new(6, 3).run_with_setup(
            StopWhen::perfectly_balanced(),
            |trial| Config::all_in_one_bin(4 + (trial as usize % 3), 40).unwrap(),
            policy(),
        );
        assert_eq!(report.goal_rate, 1.0);
    }

    #[test]
    fn budget_limited_runs_report_goal_rate_below_one() {
        let initial = Config::all_in_one_bin(16, 16 * 64).unwrap();
        let report = MonteCarlo::new(4, 9).run(
            &initial,
            StopWhen::perfectly_balanced().with_max_activations(10),
            policy(),
        );
        assert_eq!(report.goal_rate, 0.0);
    }

    #[test]
    fn builder_accessors() {
        let mc = MonteCarlo::new(5, 1).parallel();
        assert_eq!(mc.trials(), 5);
        let mc2 = MonteCarlo::new(5, 1).with_threads(0);
        // with_threads clamps to ≥ 1
        let initial = Config::all_in_one_bin(4, 16).unwrap();
        let _ = mc2.run(&initial, StopWhen::perfectly_balanced(), policy());
    }
}
