//! Integration test for the Destructive Majorization Lemma (Lemma 2): the
//! discrepancy under adversarial destructive moves stochastically dominates
//! the discrepancy of plain RLS, and the balancing *time* with an adversary
//! of bounded budget is no faster than without (in distribution).

use rls_core::{Config, RlsRule};
use rls_rng::{StreamFactory, StreamId};
use rls_sim::adversary::RandomDestructiveAdversary;
use rls_sim::coupling::{CouplingMode, DmlExperiment};
use rls_sim::stats::dominance_report;
use rls_sim::{Simulation, StopWhen};
use rls_workloads::Workload;

#[test]
fn discrepancy_with_adversary_dominates_without() {
    let initial = Workload::AllInOneBin
        .generate(16, 160, &mut rls_rng::rng_from_seed(7))
        .unwrap();
    let comparisons = DmlExperiment::new(initial, vec![0.5, 1.0, 2.0, 4.0], 80, 7)
        .with_mode(CouplingMode::PairedSeeds)
        .with_threads(4)
        .run(|_| RandomDestructiveAdversary::new(1, 0.75, None));
    for c in &comparisons {
        assert!(
            c.report.max_violation < 0.2,
            "dominance violated at t={}: {}",
            c.time,
            c.report.max_violation
        );
        assert!(
            c.report.mean_gap > -0.4,
            "adversary sped the process up at t={}: gap {}",
            c.time,
            c.report.mean_gap
        );
    }
    // At some checkpoint the adversary's effect is clearly visible.
    assert!(comparisons.iter().any(|c| c.report.mean_gap > 0.2));
}

#[test]
fn balancing_time_with_budgeted_adversary_dominates_plain_time() {
    let n = 8;
    let m = 64;
    let trials = 60u64;
    let factory = StreamFactory::new(99);
    let mut plain_times = Vec::new();
    let mut adv_times = Vec::new();
    for trial in 0..trials {
        let cfg = Config::all_in_one_bin(n, m).unwrap();
        let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
        let mut rng = factory.rng(StreamId::trial(trial).with_component(0));
        plain_times.push(sim.run(&mut rng, StopWhen::perfectly_balanced()).time);

        let cfg = Config::all_in_one_bin(n, m).unwrap();
        let mut sim = Simulation::new(cfg, RlsRule::paper()).unwrap();
        let mut rng = factory.rng(StreamId::trial(trial).with_component(0));
        let adversary_rng = factory.rng(StreamId::trial(trial).with_component(1));
        let mut adversary = RandomDestructiveAdversary::new(1, 1.0, Some(20));
        // Drive manually so the adversary sees every event.
        let stop = StopWhen::perfectly_balanced().with_max_activations(5_000_000);
        let outcome = sim.run_with(&mut rng, stop, &mut adversary, &mut ());
        assert!(outcome.reached_goal);
        let _ = adversary_rng; // adversary uses the protocol rng stream here
        adv_times.push(outcome.time);
    }
    // Claim: adversarial times dominate plain times (in distribution).
    let report = dominance_report(&adv_times, &plain_times);
    assert!(
        report.max_violation < 0.2,
        "time dominance violated: {}",
        report.max_violation
    );
    assert!(
        report.mean_gap > -0.5,
        "adversarial runs were faster on average: {}",
        report.mean_gap
    );
}

#[test]
fn adversary_with_zero_budget_changes_nothing() {
    let initial = Workload::AllInOneBin
        .generate(8, 64, &mut rls_rng::rng_from_seed(3))
        .unwrap();
    let factory = StreamFactory::new(3);
    for trial in 0..5u64 {
        let mut plain = Simulation::new(initial.clone(), RlsRule::paper()).unwrap();
        let mut rng = factory.rng(StreamId::trial(trial));
        let t_plain = plain.run(&mut rng, StopWhen::perfectly_balanced()).time;

        let mut with_adv = Simulation::new(initial.clone(), RlsRule::paper()).unwrap();
        let mut rng = factory.rng(StreamId::trial(trial));
        let mut adversary = RandomDestructiveAdversary::new(4, 1.0, Some(0));
        let t_adv = with_adv
            .run_with(
                &mut rng,
                StopWhen::perfectly_balanced(),
                &mut adversary,
                &mut (),
            )
            .time;
        assert_eq!(t_plain, t_adv);
        assert_eq!(adversary.performed(), 0);
        assert_eq!(plain.config(), with_adv.config());
    }
}
