//! The superposition simulation engine.
//!
//! The process of Section 3 assigns each ball an independent `Exp(1)` clock.
//! By the superposition property of Poisson processes the time to the *next*
//! ring anywhere in the system is `Exp(m)` and the ringing ball is uniform
//! over the `m` balls.  Balls are exchangeable, so "a uniform ball" is the
//! same law as "a bin with probability `load/m`" — which the 8-ary
//! prefix-sum index over the loads ([`LoadIndex`]) answers in one cache
//! line read per level (4 at n = 4096) with `O(n)` memory.
//! The engine therefore never materializes per-ball state: `m` is a plain
//! `u64` with no `u32::MAX` cap, and a billion-ball instance costs the same
//! memory as a thousand-ball one.  This is an exact simulation of the
//! continuous-time law, not a discretization or an approximation: the
//! sampled bin has exactly the distribution of the activated ball's bin.
//!
//! A ring is one step of the shared ring decision: an index rank picks
//! the source bin, the [`DestSampler`] draws a destination (uniform over
//! all bins on the complete graph, over the source's neighbours on a
//! sparse topology), [`RebalancePolicy::decide`] rules on it, and
//! [`LoadState::move_ball`] applies the migration.  Any offline policy ×
//! topology pair therefore runs on this one engine.  An [`Adversary`]
//! injects the destructive moves of the Lemma 2 experiments.  Progress
//! quantities (discrepancy, overloaded balls, Phase-2 potential) are
//! maintained incrementally through [`LoadTracker`], so checking a stopping
//! condition after every event is O(1) too.

use rls_core::{Config, LoadIndex, LoadState, LoadTracker, RebalancePolicy, RingContext, RlsRule};
use rls_graph::DestSampler;
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};

use crate::adversary::{Adversary, NoAdversary};
use crate::events::Event;
use crate::observer::Observer;
use crate::stopping::StopWhen;

/// The RLS rule as a simulation policy: `RlsPolicy::new(rule)` converts
/// into the same [`RebalancePolicy`] as `rule` itself.
#[derive(Debug, Clone, Copy)]
pub struct RlsPolicy(RlsRule);

impl RlsPolicy {
    /// Wrap an RLS rule.
    pub fn new(rule: RlsRule) -> Self {
        Self(rule)
    }
}

impl From<RlsPolicy> for RebalancePolicy {
    fn from(policy: RlsPolicy) -> Self {
        policy.0.into()
    }
}

/// Outcome of a [`Simulation::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Simulation time when the run stopped.
    pub time: f64,
    /// Total number of ball activations processed.
    pub activations: u64,
    /// Number of activations that resulted in a migration.
    pub migrations: u64,
    /// Whether the run stopped because the goal condition was met (as
    /// opposed to exhausting an event or time budget).
    pub reached_goal: bool,
    /// Discrepancy at the stopping instant.
    pub final_discrepancy: f64,
}

/// Continuous-time simulation state for a sequential-activation protocol.
#[derive(Debug, Clone)]
pub struct Simulation {
    state: LoadState,
    policy: RebalancePolicy,
    sampler: DestSampler,
    time: f64,
    activations: u64,
    migrations: u64,
    waiting_time: Exponential,
}

/// Errors from constructing a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The process needs at least one ball to have any events.
    NoBalls,
    /// The policy's parameters are invalid (e.g. greedy-`d` with `d = 0`).
    InvalidPolicy(String),
    /// The destination sampler covers a different number of bins than the
    /// configuration holds.
    SamplerSize {
        /// Bins in the configuration.
        bins: usize,
        /// Bins the sampler draws from.
        sampler: usize,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::NoBalls => write!(f, "simulation requires at least one ball"),
            SimError::InvalidPolicy(e) => write!(f, "invalid policy: {e}"),
            SimError::SamplerSize { bins, sampler } => write!(
                f,
                "configuration has {bins} bins but the destination sampler covers {sampler}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl Simulation {
    /// Create a simulation starting from `initial` under the given policy
    /// on the complete graph (the paper's model).
    ///
    /// Any `m ≥ 1` up to `u64::MAX` is accepted: the engine holds `O(n)`
    /// state regardless of the ball count.
    pub fn new(initial: Config, policy: impl Into<RebalancePolicy>) -> Result<Self, SimError> {
        let sampler = DestSampler::Complete { n: initial.n() };
        Self::with_sampler(initial, policy, sampler)
    }

    /// Create a simulation whose rings draw destinations through
    /// `sampler` (one bin per vertex of its topology).
    pub fn with_sampler(
        initial: Config,
        policy: impl Into<RebalancePolicy>,
        sampler: DestSampler,
    ) -> Result<Self, SimError> {
        let policy = policy.into();
        policy.validate().map_err(SimError::InvalidPolicy)?;
        if sampler.n() != initial.n() {
            return Err(SimError::SamplerSize {
                bins: initial.n(),
                sampler: sampler.n(),
            });
        }
        let m = initial.m();
        if m == 0 {
            return Err(SimError::NoBalls);
        }
        let waiting_time =
            Exponential::new(m as f64).expect("m ≥ 1 gives a valid exponential rate");
        Ok(Self {
            state: LoadState::new(initial),
            policy,
            sampler,
            time: 0.0,
            activations: 0,
            migrations: 0,
            waiting_time,
        })
    }

    /// Current configuration.
    pub fn config(&self) -> &Config {
        self.state.config()
    }

    /// Incrementally maintained summary of the configuration.
    pub fn tracker(&self) -> &LoadTracker {
        self.state.tracker()
    }

    /// The load index over the loads (exchangeable-ball sampling).
    pub fn index(&self) -> &LoadIndex {
        self.state.index()
    }

    /// The load books (configuration, tracker and index together).
    pub fn state(&self) -> &LoadState {
        &self.state
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Number of activations processed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The policy driving this simulation.
    pub fn policy(&self) -> RebalancePolicy {
        self.policy
    }

    /// Advance by exactly one activation and return the event.  An
    /// isolated vertex's ring (no candidate) is reported as a self-loop.
    pub fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) -> Event {
        let dt = self.waiting_time.sample(rng);
        self.time += dt;
        self.activations += 1;

        // The activated ball is uniform over m balls; exchangeability makes
        // that identical in law to "bin i with probability load_i / m".
        let rank = rng.next_below(self.state.index().total());
        let source = self.state.index().bin_at(rank);
        let cfg = self.state.config();
        let sampler = &self.sampler;
        let ctx = RingContext {
            n: cfg.n(),
            m: cfg.m(),
        };
        let decision = self.policy.decide(
            ctx,
            source,
            cfg.load(source),
            || sampler.sample(source, rng),
            |b| cfg.load(b),
        );
        let dest = decision.dest.unwrap_or(source);
        if decision.moved {
            self.state
                .move_ball(source, dest, None)
                .expect("decided move applies");
            self.migrations += 1;
        }

        Event::activation(self.time, source, dest, decision.moved, self.activations)
    }

    /// Apply an externally chosen (typically destructive) move, relocating
    /// one arbitrary ball from `from` to `to`.  Used by adversaries.
    ///
    /// Returns `false` (and changes nothing) if the source bin is empty,
    /// the bins coincide or an index is out of range.
    pub fn force_move(&mut self, from: usize, to: usize) -> bool {
        self.state.move_ball(from, to, None).is_ok()
    }

    /// Run until the stopping condition triggers.  Convenience wrapper
    /// around [`run_with`](Self::run_with) with no adversary and no
    /// observer.
    pub fn run<R: Rng64 + ?Sized>(&mut self, rng: &mut R, stop: StopWhen) -> RunOutcome {
        self.run_with(rng, stop, &mut NoAdversary, &mut ())
    }

    /// Run until the stopping condition triggers, consulting the adversary
    /// after every event and reporting every event to the observer.
    pub fn run_with<R, A, O>(
        &mut self,
        rng: &mut R,
        stop: StopWhen,
        adversary: &mut A,
        observer: &mut O,
    ) -> RunOutcome
    where
        R: Rng64 + ?Sized,
        A: Adversary,
        O: Observer,
    {
        let mut reached_goal = stop.goal_met(self.tracker(), self.time, self.activations);
        while !reached_goal && !stop.budget_exhausted(self.time, self.activations) {
            let event = self.step(rng);
            adversary.after_event(&event, self, rng);
            observer.on_event(&event, self.state.tracker(), self.time);
            reached_goal = stop.goal_met(self.state.tracker(), self.time, self.activations);
        }
        RunOutcome {
            time: self.time,
            activations: self.activations,
            migrations: self.migrations,
            reached_goal,
            final_discrepancy: self.state.tracker().discrepancy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    fn rls() -> RlsRule {
        RlsRule::paper()
    }

    #[test]
    fn construction_errors() {
        let empty = Config::from_loads(vec![0, 0]).unwrap();
        assert_eq!(
            Simulation::new(empty, rls()).unwrap_err(),
            SimError::NoBalls
        );
        assert!(SimError::NoBalls.to_string().contains("at least one ball"));
        let cfg = Config::uniform(4, 2).unwrap();
        let greedy0 = RebalancePolicy::GreedyD { d: 0 };
        assert!(matches!(
            Simulation::new(cfg.clone(), greedy0).unwrap_err(),
            SimError::InvalidPolicy(_)
        ));
        let small = DestSampler::Complete { n: 3 };
        let err = Simulation::with_sampler(cfg, rls(), small).unwrap_err();
        assert_eq!(
            err,
            SimError::SamplerSize {
                bins: 4,
                sampler: 3
            }
        );
        assert!(err.to_string().contains("4 bins"));
    }

    #[test]
    fn index_matches_loads_at_construction() {
        let cfg = Config::from_loads(vec![2, 0, 3]).unwrap();
        let sim = Simulation::new(cfg, rls()).unwrap();
        assert!(sim.index().matches(sim.config()));
        assert_eq!(sim.index().total(), 5);
    }

    #[test]
    fn step_advances_time_and_counts() {
        let cfg = Config::all_in_one_bin(4, 8).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(1);
        let e = sim.step(&mut rng);
        assert!(e.time > 0.0);
        assert_eq!(e.activations, 1);
        assert_eq!(e.ball(), None, "exchangeable sampling has no identity");
        assert_eq!(sim.activations(), 1);
        assert!(sim.time() > 0.0);
    }

    #[test]
    fn events_keep_tracker_and_index_consistent_with_config() {
        let cfg = Config::all_in_one_bin(8, 40).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..5000 {
            sim.step(&mut rng);
        }
        assert!(sim.state().matches());
        assert_eq!(sim.config().m(), 40, "moves conserve balls");
    }

    #[test]
    fn reaches_perfect_balance_on_small_instance() {
        let cfg = Config::all_in_one_bin(8, 64).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(3);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert!(sim.config().is_perfectly_balanced());
        assert_eq!(sim.config().loads().iter().sum::<u64>(), 64);
        assert!(outcome.migrations >= 56, "needs at least 64 - 8 moves");
        assert!(outcome.final_discrepancy < 1.0);
    }

    #[test]
    fn event_budget_is_respected() {
        let cfg = Config::all_in_one_bin(64, 64 * 64).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(4);
        let outcome = sim.run(
            &mut rng,
            StopWhen::perfectly_balanced().with_max_activations(100),
        );
        assert!(!outcome.reached_goal);
        assert_eq!(outcome.activations, 100);
    }

    #[test]
    fn time_budget_is_respected() {
        let cfg = Config::all_in_one_bin(64, 4096).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(5);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced().with_max_time(0.01));
        assert!(!outcome.reached_goal);
        assert!(outcome.time >= 0.01);
    }

    #[test]
    fn waiting_times_have_rate_m() {
        // Mean inter-event time should be ≈ 1/m.
        let m = 500u64;
        let cfg = Config::all_in_one_bin(10, m).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(6);
        let events = 20_000;
        for _ in 0..events {
            sim.step(&mut rng);
        }
        let mean_gap = sim.time() / events as f64;
        let expected = 1.0 / m as f64;
        assert!(
            (mean_gap - expected).abs() < 0.1 * expected,
            "mean gap {mean_gap}, expected {expected}"
        );
    }

    #[test]
    fn activated_bin_is_load_proportional() {
        // With loads (30, 10) the source of an activation must be bin 0
        // about 75% of the time — the uniform-ball law.
        let cfg = Config::from_loads(vec![30, 10]).unwrap();
        // A threshold no bin exceeds never moves, keeping the loads fixed.
        let frozen = RebalancePolicy::ThresholdFixed {
            threshold: u64::MAX,
        };
        let mut sim = Simulation::new(cfg, frozen).unwrap();
        let mut rng = rng_from_seed(11);
        let trials = 40_000;
        let mut from_heavy = 0u64;
        for _ in 0..trials {
            if sim.step(&mut rng).source == 0 {
                from_heavy += 1;
            }
        }
        let frac = from_heavy as f64 / trials as f64;
        assert!(
            (frac - 0.75).abs() < 0.01,
            "heavy-bin activation fraction {frac}, expected 0.75"
        );
    }

    #[test]
    fn force_move_rejects_invalid_and_applies_valid() {
        let cfg = Config::from_loads(vec![3, 0, 1]).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        assert!(!sim.force_move(1, 0), "empty source");
        assert!(!sim.force_move(0, 0), "self loop");
        assert!(!sim.force_move(0, 9), "out of range");
        assert!(sim.force_move(2, 0), "valid destructive move");
        assert_eq!(sim.config().loads(), &[4, 0, 0]);
        assert!(sim.state().matches());
    }

    #[test]
    fn already_balanced_start_stops_immediately() {
        let cfg = Config::uniform(6, 5).unwrap();
        let mut sim = Simulation::new(cfg, rls()).unwrap();
        let mut rng = rng_from_seed(7);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert_eq!(outcome.activations, 0);
        assert_eq!(outcome.time, 0.0);
    }

    #[test]
    fn strict_variant_also_balances() {
        let cfg = Config::all_in_one_bin(6, 36).unwrap();
        let policy = RebalancePolicy::from(RlsRule::new(rls_core::RlsVariant::Strict));
        assert_eq!(policy.to_string(), "rls-strict");
        let mut sim = Simulation::new(cfg, policy).unwrap();
        let mut rng = rng_from_seed(8);
        let outcome = sim.run(&mut rng, StopWhen::perfectly_balanced());
        assert!(outcome.reached_goal);
        assert!(sim.config().is_perfectly_balanced());
    }
}
