//! RLS restricted to graph topologies: `Simulation` on a sparse
//! `DestSampler`, where a ringing ball samples a destination among the
//! neighbours of its bin.  Perfect balance stays reachable on connected
//! graphs, but the time degrades with the graph's bottleneck.

use rls_core::{Config, RlsRule};
use rls_graph::{DestSampler, Graph, Topology};
use rls_rng::rng_from_seed;
use rls_sim::{SimError, Simulation, StopWhen};

fn all_in_one(n: usize, m: u64) -> Config {
    Config::all_in_one_bin(n, m).unwrap()
}

fn on(topology: Topology, initial: Config, graph_seed: u64) -> Simulation {
    let sampler = DestSampler::build(topology, initial.n(), graph_seed).unwrap();
    Simulation::with_sampler(initial, RlsRule::paper(), sampler).unwrap()
}

#[test]
fn complete_graph_behaves_like_the_paper_process() {
    let mut sim = on(Topology::Complete, all_in_one(8, 64), 1);
    let out = sim.run(&mut rng_from_seed(2), StopWhen::perfectly_balanced());
    assert!(out.reached_goal);
    assert!(out.final_discrepancy < 1.0);
    assert!(out.migrations >= 56);
}

#[test]
fn cycle_reaches_perfect_balance_but_more_slowly() {
    let (n, m) = (16, 16 * 8);
    let stop = StopWhen::perfectly_balanced().with_max_activations(50_000_000);
    let complete = on(Topology::Complete, all_in_one(n, m), 3).run(&mut rng_from_seed(4), stop);
    let cycle = on(Topology::Cycle, all_in_one(n, m), 3).run(&mut rng_from_seed(5), stop);
    assert!(complete.reached_goal);
    assert!(cycle.reached_goal);
    assert!(
        cycle.time > complete.time,
        "cycle ({}) should be slower than complete ({})",
        cycle.time,
        complete.time
    );
}

#[test]
fn star_balances_through_the_hub() {
    let mut sim = on(Topology::Star, all_in_one(9, 45), 6);
    let out = sim.run(&mut rng_from_seed(7), StopWhen::perfectly_balanced());
    assert!(out.reached_goal);
    assert!(sim.state().matches());
}

#[test]
fn activation_budget_is_respected() {
    let mut sim = on(Topology::Cycle, all_in_one(32, 512), 8);
    let out = sim.run(
        &mut rng_from_seed(9),
        StopWhen::perfectly_balanced().with_max_activations(100),
    );
    assert!(!out.reached_goal);
    assert_eq!(out.activations, 100);
}

#[test]
fn mismatched_sizes_are_an_error() {
    let sampler = DestSampler::build(Topology::Cycle, 8, 10).unwrap();
    let err = Simulation::with_sampler(all_in_one(4, 16), RlsRule::paper(), sampler).unwrap_err();
    assert_eq!(
        err,
        SimError::SamplerSize {
            bins: 4,
            sampler: 8
        }
    );
}

#[test]
fn isolated_vertices_never_receive_balls() {
    // A path plus one isolated vertex: balls can never reach vertex 3, so
    // perfect balance is unreachable, but the process must not panic and
    // must respect its budget.  Rings in the isolated vertex find no
    // candidate and stay put.
    let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    let sampler = DestSampler::Sparse { graph };
    let mut sim = Simulation::with_sampler(all_in_one(4, 12), RlsRule::paper(), sampler).unwrap();
    let out = sim.run(
        &mut rng_from_seed(12),
        StopWhen::perfectly_balanced().with_max_activations(50_000),
    );
    assert!(!out.reached_goal);
    assert_eq!(out.activations, 50_000);
    assert!(out.final_discrepancy >= 1.0);
    assert_eq!(sim.config().load(3), 0);
}

#[test]
fn strict_rule_and_time_budgets_run_on_sparse_graphs() {
    let sampler = DestSampler::build(Topology::Hypercube, 16, 13).unwrap();
    let strict = RlsRule::new(rls_core::RlsVariant::Strict);
    let mut sim = Simulation::with_sampler(all_in_one(16, 64), strict, sampler).unwrap();
    let out = sim.run(
        &mut rng_from_seed(14),
        StopWhen::perfectly_balanced().with_max_time(0.05),
    );
    assert!(!out.reached_goal);
    assert!(out.time >= 0.05);
    assert!(sim.state().matches());
}
