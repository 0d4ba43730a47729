//! Offline bit identity: per-seed outcomes of `Simulation` on the complete
//! graph, pinned to recorded values.  The ring consumes its draws in a
//! fixed order (holding time, source rank, destination); a change to that
//! order, to the decision rule or to the bookkeeping shows up here as a
//! different stopping time, activation count or final load vector.

use rls_core::{Config, RlsRule, RlsVariant};
use rls_rng::rng_from_seed;
use rls_sim::{RandomDestructiveAdversary, Simulation, StopWhen};

/// `(time bits, activations, migrations, final loads)` of one run.
type Golden = (u64, u64, u64, [u64; 12]);

fn start() -> Config {
    Config::all_in_one_bin(12, 100).unwrap()
}

#[test]
fn rls_runs_to_perfect_balance_bit_identically() {
    let cases: [(RlsVariant, u64, Golden); 6] = [
        (
            RlsVariant::Geq,
            1,
            (
                0x4005369e139400ac,
                262,
                155,
                [8, 8, 8, 9, 8, 9, 8, 8, 8, 9, 9, 8],
            ),
        ),
        (
            RlsVariant::Geq,
            2,
            (
                0x4007a794991a58c2,
                268,
                144,
                [9, 9, 8, 8, 9, 8, 9, 8, 8, 8, 8, 8],
            ),
        ),
        (
            RlsVariant::Geq,
            3,
            (
                0x40059f8a6d29a51e,
                269,
                149,
                [9, 9, 8, 8, 9, 8, 9, 8, 8, 8, 8, 8],
            ),
        ),
        (
            RlsVariant::Strict,
            1,
            (
                0x400201178f5da2fc,
                232,
                117,
                [8, 8, 8, 9, 8, 9, 8, 9, 8, 8, 8, 9],
            ),
        ),
        (
            RlsVariant::Strict,
            2,
            (
                0x400f387ef8d8d60d,
                351,
                116,
                [9, 8, 8, 9, 8, 8, 9, 8, 8, 8, 8, 9],
            ),
        ),
        (
            RlsVariant::Strict,
            3,
            (
                0x400c36a8b09ae583,
                344,
                120,
                [8, 9, 9, 8, 9, 8, 9, 8, 8, 8, 8, 8],
            ),
        ),
    ];
    for (variant, seed, (time, activations, migrations, loads)) in cases {
        let mut sim = Simulation::new(start(), RlsRule::new(variant)).unwrap();
        let out = sim.run(&mut rng_from_seed(seed), StopWhen::perfectly_balanced());
        let label = format!("{variant:?} seed {seed}");
        assert!(out.reached_goal, "{label}");
        assert_eq!(out.time.to_bits(), time, "{label}: time");
        assert_eq!(out.activations, activations, "{label}: activations");
        assert_eq!(out.migrations, migrations, "{label}: migrations");
        assert_eq!(sim.config().loads(), &loads, "{label}: final loads");
    }
}

#[test]
fn adversarial_runs_are_bit_identical() {
    let cases: [(u64, Golden); 2] = [
        (
            4,
            (
                0x4003b2d93f8f4506,
                235,
                158,
                [9, 8, 9, 8, 8, 8, 9, 8, 8, 8, 9, 8],
            ),
        ),
        (
            5,
            (
                0x400a8bcc067e3789,
                364,
                186,
                [9, 8, 8, 9, 8, 8, 8, 9, 8, 9, 8, 8],
            ),
        ),
    ];
    for (seed, (time, activations, migrations, loads)) in cases {
        let mut sim = Simulation::new(start(), RlsRule::paper()).unwrap();
        let mut adversary = RandomDestructiveAdversary::new(2, 0.5, Some(40));
        let out = sim.run_with(
            &mut rng_from_seed(seed),
            StopWhen::perfectly_balanced(),
            &mut adversary,
            &mut (),
        );
        assert_eq!(adversary.performed(), 40, "seed {seed}: budget spent");
        assert_eq!(out.time.to_bits(), time, "seed {seed}: time");
        assert_eq!(out.activations, activations, "seed {seed}: activations");
        assert_eq!(out.migrations, migrations, "seed {seed}: migrations");
        assert_eq!(sim.config().loads(), &loads, "seed {seed}: final loads");
    }
}
