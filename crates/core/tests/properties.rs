//! Property-based tests for the core model: the invariants Section 3 of the
//! paper lists as "desirable properties" of RLS, plus structural invariants
//! of the bookkeeping types.

use proptest::prelude::*;
use rls_core::{
    is_close, majorizes, Config, LoadIndex, LoadTracker, Move, Phase2Snapshot, RlsRule, RlsVariant,
};

/// Strategy: a small random configuration (1..=12 bins, loads 0..=20).
fn config_strategy() -> impl Strategy<Value = Config> {
    prop::collection::vec(0u64..=20, 1..=12).prop_map(|loads| Config::from_loads(loads).unwrap())
}

/// Strategy: a configuration plus a random (source, destination) pair.
fn config_and_move() -> impl Strategy<Value = (Config, usize, usize)> {
    config_strategy().prop_flat_map(|cfg| {
        let n = cfg.n();
        (Just(cfg), 0..n, 0..n)
    })
}

proptest! {
    /// Total number of balls is conserved by any applied move.
    #[test]
    fn balls_are_conserved((cfg, from, to) in config_and_move()) {
        let mut cfg2 = cfg.clone();
        let m_before = cfg2.m();
        let _ = cfg2.apply(Move::new(from, to));
        prop_assert_eq!(cfg2.m(), m_before);
        prop_assert_eq!(cfg2.loads().iter().sum::<u64>(), m_before);
    }

    /// Under RLS moves the discrepancy never increases, the maximum load
    /// never increases and the minimum load never decreases (Section 3).
    #[test]
    fn rls_moves_never_hurt((cfg, from, to) in config_and_move()) {
        let rule = RlsRule::new(RlsVariant::Geq);
        let mut next = cfg.clone();
        let moved = rule.step(&mut next, from, to);
        if moved {
            prop_assert!(next.discrepancy() <= cfg.discrepancy() + 1e-9);
            prop_assert!(next.max_load() <= cfg.max_load());
            prop_assert!(next.min_load() >= cfg.min_load());
        } else {
            prop_assert_eq!(next, cfg);
        }
    }

    /// The strict variant only ever performs moves the `≥` variant would
    /// also perform.
    #[test]
    fn strict_moves_are_a_subset((cfg, from, to) in config_and_move()) {
        let mv = Move::new(from, to);
        let geq = RlsRule::new(RlsVariant::Geq);
        let strict = RlsRule::new(RlsVariant::Strict);
        if strict.permits(&cfg, mv) {
            prop_assert!(geq.permits(&cfg, mv));
        }
    }

    /// A move and its reverse: exactly one of them is permitted by RLS
    /// unless the move is neutral or a self-loop (then the forward move is
    /// permitted and so is the reverse after it is taken).
    #[test]
    fn move_or_reverse_is_destructive((cfg, from, to) in config_and_move()) {
        prop_assume!(from != to);
        let mv = Move::new(from, to);
        let class = cfg.classify(mv).unwrap();
        let rev_class = cfg.classify(mv.reversed()).unwrap();
        // At least one direction is destructive (they cannot both be
        // strictly improving).
        prop_assert!(class.is_destructive() || rev_class.is_destructive());
    }

    /// Applying a destructive move never decreases the discrepancy below the
    /// original and the all-in-one-bin configuration majorizes the result of
    /// any sequence of moves on the same (n, m).
    #[test]
    fn all_in_one_bin_majorizes_everything(cfg in config_strategy()) {
        let extreme = Config::all_in_one_bin(cfg.n(), cfg.m()).unwrap();
        prop_assert!(majorizes(&extreme, &cfg));
        // Majorization is reflexive.
        prop_assert!(majorizes(&cfg, &cfg));
    }

    /// A perfectly balanced configuration is majorized by every
    /// configuration with the same n and m.
    #[test]
    fn balanced_is_minimal_in_majorization_order(cfg in config_strategy()) {
        let n = cfg.n() as u64;
        let m = cfg.m();
        let base = m / n;
        let extra = (m % n) as usize;
        let mut loads = vec![base; cfg.n()];
        for load in loads.iter_mut().take(extra) {
            *load += 1;
        }
        let balanced = Config::from_loads(loads).unwrap();
        prop_assert!(balanced.is_perfectly_balanced());
        prop_assert!(majorizes(&cfg, &balanced));
    }

    /// The configuration obtained by one destructive move is "close" to the
    /// original in the sense of Lemma 2's proof.
    #[test]
    fn destructive_move_produces_close_configuration((cfg, from, to) in config_and_move()) {
        prop_assume!(from != to);
        prop_assume!(cfg.load(from) > 0);
        let mv = Move::new(from, to);
        let class = cfg.classify(mv).unwrap();
        prop_assume!(class.is_destructive());
        let mut moved = cfg.clone();
        moved.apply(mv).unwrap();
        prop_assert!(is_close(&cfg, &moved), "cfg {:?} moved {:?}", cfg, moved);
    }

    /// The incremental tracker stays consistent with the configuration over
    /// arbitrary sequences of (legal or destructive) moves.
    #[test]
    fn tracker_matches_after_random_walk(
        cfg in config_strategy(),
        steps in prop::collection::vec((0usize..12, 0usize..12), 0..60),
    ) {
        let mut cfg = cfg;
        let mut tracker = LoadTracker::new(&cfg);
        for (from, to) in steps {
            let from = from % cfg.n();
            let to = to % cfg.n();
            if from == to || cfg.load(from) == 0 {
                continue;
            }
            let (lf, lt) = (cfg.load(from), cfg.load(to));
            cfg.apply(Move::new(from, to)).unwrap();
            tracker.record_move(lf, lt);
            prop_assert!(tracker.matches(&cfg));
            prop_assert!((tracker.discrepancy() - cfg.discrepancy()).abs() < 1e-9);
            prop_assert_eq!(tracker.is_perfectly_balanced(), cfg.is_perfectly_balanced());
        }
    }

    /// The average-relative aggregates (discrepancy, overloaded balls,
    /// holes, bin counts, Phase-2 potential) stay pinned to a freshly
    /// rebuilt tracker under *arbitrary interleavings* of moves, arrivals
    /// and departures, all of which update the tracker incrementally.
    #[test]
    fn tracker_aggregates_match_rebuild_under_mixed_churn(
        cfg in config_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..12), 0..80),
    ) {
        let mut cfg = cfg;
        let mut tracker = LoadTracker::new(&cfg);
        for (kind, a, b) in ops {
            let a = a % cfg.n();
            let b = b % cfg.n();
            match kind {
                0 => {
                    // Arrival into bin `a`.
                    let old = cfg.load(a);
                    if cfg.add_ball(a).is_err() {
                        continue;
                    }
                    tracker.record_insert(old);
                }
                1 => {
                    // Departure from bin `a` (skipped when empty).
                    if cfg.load(a) == 0 {
                        continue;
                    }
                    let old = cfg.load(a);
                    cfg.remove_ball(a).unwrap();
                    tracker.record_remove(old);
                }
                _ => {
                    // Move a → b (legal or destructive; skipped when
                    // impossible).
                    if a == b || cfg.load(a) == 0 {
                        continue;
                    }
                    let (lf, lt) = (cfg.load(a), cfg.load(b));
                    cfg.apply(Move::new(a, b)).unwrap();
                    tracker.record_move(lf, lt);
                }
            }
            let rebuilt = LoadTracker::new(&cfg);
            prop_assert!(tracker.matches(&cfg));
            prop_assert!((tracker.discrepancy() - rebuilt.discrepancy()).abs() < 1e-12);
            prop_assert_eq!(tracker.overloaded_balls(), rebuilt.overloaded_balls());
            prop_assert_eq!(tracker.holes(), rebuilt.holes());
            prop_assert_eq!(tracker.bin_counts(), rebuilt.bin_counts());
            prop_assert_eq!(tracker.phase2_potential(), rebuilt.phase2_potential());
            prop_assert_eq!(tracker.min_load(), rebuilt.min_load());
            prop_assert_eq!(tracker.max_load(), rebuilt.max_load());
        }
    }

    /// The `O(1)` average shifts of `record_insert`/`record_remove` on tiny
    /// instances, where `m` keeps crossing multiples of `n` (`n = 1` and
    /// draining to `m = 0` included), interleaved with moves (neutral swaps
    /// included) and with the rescanning `bin_joined`/`bin_retired`: after
    /// every operation the tracker matches a rebuilt configuration and its
    /// Phase-2 potential equals a fresh snapshot's.
    #[test]
    fn tracker_average_shifts_match_a_rebuild(
        loads in prop::collection::vec(0u64..=4, 1..=6),
        ops in prop::collection::vec((0u8..7, 0usize..8, 0usize..8), 0..120),
    ) {
        const MAX_LOAD: u64 = 4;
        let mut loads = loads;
        let mut tracker = LoadTracker::new(&Config::from_loads(loads.clone()).unwrap());
        for (kind, a, b) in ops {
            let n = loads.len();
            let (a, b) = (a % n, b % n);
            match kind {
                0 if loads[a] < MAX_LOAD => {
                    tracker.record_insert(loads[a]);
                    loads[a] += 1;
                }
                1 | 2 if loads[a] > 0 => {
                    tracker.record_remove(loads[a]);
                    loads[a] -= 1;
                }
                3 if a != b && loads[a] > 0 && loads[b] < MAX_LOAD => {
                    tracker.record_move(loads[a], loads[b]);
                    loads[a] -= 1;
                    loads[b] += 1;
                }
                4 => {
                    // A neutral swap: a ball leaves a bin for one holding
                    // exactly one ball less.
                    let pair = (0..n)
                        .flat_map(|x| (0..n).map(move |y| (x, y)))
                        .find(|&(x, y)| loads[x] == loads[y] + 1);
                    if let Some((x, y)) = pair {
                        tracker.record_move(loads[x], loads[y]);
                        loads.swap(x, y);
                    }
                }
                5 if n < 8 => {
                    let load = b as u64 % 3;
                    tracker.bin_joined(load);
                    loads.push(load);
                }
                6 if n > 1 => {
                    if let Some(empty) = loads.iter().position(|&l| l == 0) {
                        tracker.bin_retired();
                        loads.swap_remove(empty);
                    }
                }
                _ => {}
            }
            let cfg = Config::from_loads(loads.clone()).unwrap();
            prop_assert!(tracker.matches(&cfg), "{:?} vs {:?}", tracker, loads);
            prop_assert_eq!(tracker.phase2_potential(), Phase2Snapshot::capture(&cfg).potential);
        }
    }

    /// The load index tracks the same interleavings: every rank
    /// maps to the bin a cumulative scan would give, and point updates
    /// agree with the configuration.
    #[test]
    fn load_index_matches_config_under_mixed_churn(
        cfg in config_strategy(),
        ops in prop::collection::vec((0u8..3, 0usize..12, 0usize..12), 0..60),
    ) {
        let mut cfg = cfg;
        let mut index = LoadIndex::new(&cfg);
        for (kind, a, b) in ops {
            let a = a % cfg.n();
            let b = b % cfg.n();
            match kind {
                0 => {
                    if cfg.add_ball(a).is_err() {
                        continue;
                    }
                    index.record_insert(a);
                }
                1 => {
                    if cfg.load(a) == 0 {
                        continue;
                    }
                    cfg.remove_ball(a).unwrap();
                    index.record_remove(a);
                }
                _ => {
                    if a == b || cfg.load(a) == 0 {
                        continue;
                    }
                    cfg.apply(Move::new(a, b)).unwrap();
                    index.record_move(a, b);
                }
            }
            prop_assert!(index.matches(&cfg));
        }
        // Rank queries agree with the linear scan on the final state.
        let mut acc = 0u64;
        let mut expect = Vec::new();
        for (i, &l) in cfg.loads().iter().enumerate() {
            for _ in 0..l {
                expect.push(i);
            }
            acc += l;
        }
        prop_assert_eq!(index.total(), acc);
        for (rank, &bin) in expect.iter().enumerate() {
            prop_assert_eq!(index.bin_at(rank as u64), bin);
        }
    }

    /// Elastic churn at u64 scale: `add`, `sub`, `add_bin` and
    /// `retire_bin` interleave with masses near 2⁵⁴, and after every step
    /// each `prefix` and `load` equals a brute-force rebuild's.
    #[test]
    fn u64_scale_churn_agrees_with_a_rebuild(
        loads in prop::collection::vec(0u64..=1 << 54, 1..=20),
        ops in prop::collection::vec((0u8..4, 0u64..=1 << 54, 0usize..200), 0..80),
    ) {
        let mut loads = loads;
        let mut index = LoadIndex::from_loads(&loads);
        for (kind, mass, pick) in ops {
            let bin = pick % loads.len();
            match kind {
                0 => {
                    index.add(bin, mass);
                    loads[bin] += mass;
                }
                1 => {
                    let delta = mass.min(loads[bin]);
                    index.sub(bin, delta);
                    loads[bin] -= delta;
                }
                2 => {
                    prop_assert_eq!(index.add_bin(mass), loads.len());
                    loads.push(mass);
                }
                _ => {
                    prop_assert_eq!(index.retire_bin(bin), loads[bin]);
                    loads[bin] = 0;
                }
            }
            let fresh = LoadIndex::from_loads(&loads);
            prop_assert_eq!(index.total(), fresh.total());
            for (b, &load) in loads.iter().enumerate() {
                prop_assert_eq!(index.load(b), load);
                prop_assert_eq!(index.prefix(b), fresh.prefix(b));
            }
            prop_assert_eq!(index.prefix(loads.len()), index.total());
        }
        let cfg = Config::from_loads(loads.clone()).unwrap();
        prop_assert!(index.matches(&cfg));
        // Ranks on both sides of every bin boundary land where the
        // rebuild puts them.
        let mut acc = 0u64;
        for (b, &l) in loads.iter().enumerate() {
            if l > 0 {
                prop_assert_eq!(index.bin_at(acc), b);
                prop_assert_eq!(index.bin_at(acc + l - 1), b);
            }
            acc += l;
        }
    }

    /// Overloaded balls equal holes whenever n divides m, and both are zero
    /// exactly on perfectly balanced configurations.
    #[test]
    fn overloaded_balls_equal_holes_when_divisible(cfg in config_strategy()) {
        if cfg.divides_evenly() {
            prop_assert_eq!(cfg.overloaded_balls(), cfg.holes());
        }
        prop_assert_eq!(
            cfg.is_perfectly_balanced(),
            cfg.overloaded_balls() == 0 && cfg.holes() == 0
        );
    }

    /// The Phase-2 potential is non-negative and zero only at small
    /// discrepancy (≤ 1) when the average is an integer.
    #[test]
    fn phase2_potential_nonnegative(cfg in config_strategy()) {
        prop_assume!(cfg.divides_evenly());
        let snap = Phase2Snapshot::capture(&cfg);
        prop_assert!(snap.potential >= 0);
        if snap.potential == 0 {
            prop_assert!(cfg.discrepancy() <= 1.0);
        }
    }

    /// Sorted views are permutations of the original loads.
    #[test]
    fn sorted_desc_is_a_permutation(cfg in config_strategy()) {
        let mut sorted = cfg.sorted_desc();
        prop_assert!(sorted.windows(2).all(|w| w[0] >= w[1]));
        sorted.sort_unstable();
        let mut original = cfg.loads().to_vec();
        original.sort_unstable();
        prop_assert_eq!(sorted, original);
    }

    /// The branch-free line-per-level descent agrees with a reference
    /// cumulative scan for *every* rank, on arbitrary load vectors (zero
    /// bins, non-power-of-two lengths) and across elastic add/retire
    /// churn — and the power-of-two capacity invariant holds throughout.
    #[test]
    fn branch_free_descent_matches_reference_scan(
        loads in prop::collection::vec(0u64..=12, 1..=40),
        churn in prop::collection::vec((0u8..2, 0u64..=9, 0usize..40), 0..12),
    ) {
        let mut loads = loads;
        let mut index = LoadIndex::from_loads(&loads);
        prop_assert!(index.capacity().is_power_of_two());
        prop_assert!(index.capacity() >= loads.len());

        // Interleave elastic scale events so the invariant is exercised
        // across capacity-doubling rebuilds, not just at construction.
        for (kind, mass, pick) in churn {
            if kind == 0 {
                let bin = index.add_bin(mass);
                prop_assert_eq!(bin, loads.len());
                loads.push(mass);
            } else {
                let bin = pick % loads.len();
                let drained = index.retire_bin(bin);
                prop_assert_eq!(drained, loads[bin]);
                loads[bin] = 0;
            }
            prop_assert!(index.capacity().is_power_of_two());
            prop_assert!(index.capacity() >= loads.len());
        }

        // Reference path: a cumulative linear scan over the load vector.
        // The descent must agree bin-for-bin on every rank, and its depth
        // must equal the (constant) number of lines it reads: one leaf
        // line of 8 bins, plus one per 8-ary level above the leaves.
        let total: u64 = loads.iter().sum();
        prop_assert_eq!(index.total(), total);
        let mut levels = 1;
        let mut lines = index.capacity().div_ceil(8);
        while lines > 1 {
            lines = lines.div_ceil(8);
            levels += 1;
        }
        let mut rank = 0u64;
        for (bin, &load) in loads.iter().enumerate() {
            for _ in 0..load {
                let (got, depth) = index.bin_at_depth(rank);
                prop_assert_eq!(got, bin);
                prop_assert_eq!(depth, levels);
                rank += 1;
            }
        }
    }

    /// The histogram counts every bin exactly once.
    #[test]
    fn histogram_counts_all_bins(cfg in config_strategy()) {
        let total: usize = cfg.histogram().values().sum();
        prop_assert_eq!(total, cfg.n());
    }

    /// Discrepancy is zero iff all loads are equal, and `is_x_balanced` is
    /// monotone in `x`.
    #[test]
    fn discrepancy_basics(cfg in config_strategy(), x in 0.0f64..30.0) {
        let all_equal = cfg.loads().windows(2).all(|w| w[0] == w[1]);
        if all_equal {
            prop_assert!(cfg.discrepancy() < 1e-9);
        }
        if cfg.is_x_balanced(x) {
            prop_assert!(cfg.is_x_balanced(x + 1.0));
        }
    }
}
