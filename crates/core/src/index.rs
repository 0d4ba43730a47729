//! Cache-line-wide load index: exchangeable-ball sampling in a few line
//! reads.
//!
//! The paper's process only ever needs *a uniformly random ball* — and
//! balls are exchangeable, so the law of the process depends on the load
//! vector alone.  Picking a uniform ball is therefore the same thing as
//! picking a **bin with probability `ℓ_i / m`**: draw a uniform rank
//! `r ∈ [0, m)` and find the first bin whose cumulative load exceeds `r`.
//! [`LoadIndex`] answers that query with an 8-ary prefix-sum tree whose
//! nodes are single 64-byte cache lines.
//!
//! This replaces the engines' historical `balls: Vec<u32>` map (4 bytes
//! *per ball*, hard-capped at `u32::MAX` balls) with a structure whose
//! size is independent of `m`: a billion-ball instance costs the same
//! memory as a thousand-ball one.  The tree is maintained incrementally —
//! one point update per endpoint of every move, arrival or departure,
//! mirroring the [`LoadTracker`](crate::LoadTracker) hooks — so the engines
//! never pay an `O(n)` rebuild on the hot path.
//!
//! The index is deliberately RNG-free (this crate is purely combinatorial):
//! callers draw the rank themselves and ask [`bin_at`](LoadIndex::bin_at)
//! for the bin, which keeps the random-stream accounting in the engines.

use crate::Config;

/// Children per node: one node is one line of `FANOUT` `u64`s.
const FANOUT: usize = 8;

/// `SUFFIX_MASKS[j]` selects slots `j..FANOUT`: the inclusive prefixes
/// that a change to child `j` shifts.  A table load keeps the masked adds
/// branch-free and lets them vectorize.
const SUFFIX_MASKS: [[u64; FANOUT]; FANOUT] = {
    let mut masks = [[0u64; FANOUT]; FANOUT];
    let mut j = 0;
    while j < FANOUT {
        let mut s = j;
        while s < FANOUT {
            masks[j][s] = u64::MAX;
            s += 1;
        }
        j += 1;
    }
    masks
};

/// One tree node, aligned so that it never straddles two cache lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(64))]
struct Line([u64; FANOUT]);

/// An 8-ary prefix-sum tree over the `n` bin loads.
///
/// **Layout.**  The leaves are lines of 8 raw `u64` masses, bin `b` in slot
/// `b % 8` of line `b / 8`, so [`load`](Self::load) is one read.  Above
/// them, each inner level keeps one line per 8 lines of the level below,
/// holding the *inclusive* prefix sums of those children's masses; the top
/// level is a single line.  Slots past the last child repeat the line's
/// total, so a descent can never step into them.
///
/// **Cost model.**  A rank descent ([`bin_at`](Self::bin_at)) reads one
/// line per level: at each inner line a branch-free binary search over the
/// sorted prefixes counts those `≤ rank` in three compares, the prefix
/// below that child is subtracted, and the descent goes down; at the leaf
/// a branch-free running sum finds the bin.  That is
/// `1 + ⌈log₈ ⌈capacity / 8⌉⌉` lines — 4 at n = 4096, 7 at n = 2²⁰ —
/// against `log₂ n + 1` strictly serial steps for a binary Fenwick tree.
/// A point update adds the delta to the leaf slot and, with masked adds,
/// to the slots at and after the child's position in one line per level.
/// The inner levels cost about a seventh of the leaf array.
///
/// ```
/// use rls_core::{Config, LoadIndex, Move};
///
/// let mut cfg = Config::from_loads(vec![3, 0, 5]).unwrap();
/// let mut idx = LoadIndex::new(&cfg);
/// assert_eq!(idx.total(), 8);
/// // Ranks lay the balls out bin by bin: rank 3 is the first ball of
/// // bin 2 (bin 1 is empty), so a uniform rank picks a bin with
/// // probability load/m — the law of activating a uniform ball.
/// assert_eq!(idx.bin_at(2), 0);
/// assert_eq!(idx.bin_at(3), 2);
///
/// // Keep the index in lock-step with the configuration.
/// cfg.apply(Move::new(2, 1)).unwrap();
/// idx.record_move(2, 1);
/// assert!(idx.matches(&cfg));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadIndex {
    /// Raw per-bin masses, 8 bins per line (`⌈capacity / 8⌉` lines).
    /// Slots `len..` are spare: they carry zero mass and are invisible to
    /// rank descent.
    leaves: Vec<Line>,
    /// Inner levels, top (a single line) first; empty when one leaf line
    /// holds every bin.
    inner: Vec<Vec<Line>>,
    /// Number of allocated bins (`≤ capacity`); bin ids are `0..len`.
    len: usize,
    /// Allocated bin slots, kept a power of two by doubling.
    capacity: usize,
    /// Total load `m = Σ ℓ_i` (`u64` end to end — no `u32` ball cap).
    total: u64,
    /// How many O(capacity) rebuilds [`add_bin`](Self::add_bin) has paid.
    /// Capacity doubles on each, so the amortized growth cost stays O(1)
    /// per added bin — a cost model pinned by tests.
    rebuilds: u64,
}

impl LoadIndex {
    /// Build the index for a configuration.
    pub fn new(cfg: &Config) -> Self {
        Self::from_loads(cfg.loads())
    }

    /// Build the index from a raw load vector in `O(n)`.
    ///
    /// # Panics
    /// Panics if `loads` is empty or the total overflows `u64` (a
    /// [`Config`] can never hold either).
    pub fn from_loads(loads: &[u64]) -> Self {
        let n = loads.len();
        assert!(n > 0, "LoadIndex requires at least one bin");
        let total = loads
            .iter()
            .try_fold(0u64, |acc, &l| acc.checked_add(l))
            .expect("total load fits in u64");
        let capacity = n.next_power_of_two();
        let mut leaves = vec![Line::default(); capacity.div_ceil(FANOUT)];
        for (line, chunk) in leaves.iter_mut().zip(loads.chunks(FANOUT)) {
            line.0[..chunk.len()].copy_from_slice(chunk);
        }
        Self {
            inner: build_inner(&leaves),
            leaves,
            len: n,
            capacity,
            total,
            rebuilds: 0,
        }
    }

    /// Number of allocated bins `n` (including retired bins still holding
    /// their zero-mass slot; the elastic engines mask retirees by load).
    #[inline]
    pub fn n(&self) -> usize {
        self.len
    }

    /// Allocated bin capacity (`≥ n`, a power of two); grows by doubling
    /// in [`add_bin`](Self::add_bin).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many capacity-doubling rebuilds this index has performed.
    #[inline]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Allocate a fresh bin id at the end of the index, seeded with `mass`,
    /// and return it.  Amortized O(log n): when `len == capacity` the
    /// inner levels are rebuilt at double capacity (O(capacity), counted in
    /// [`rebuilds`](Self::rebuilds)); otherwise the spare slot is claimed
    /// with one point update.
    ///
    /// # Panics
    /// Panics if the total would overflow `u64`.
    pub fn add_bin(&mut self, mass: u64) -> usize {
        if self.len == self.capacity {
            self.capacity *= 2;
            let lines = self.capacity.div_ceil(FANOUT);
            self.leaves.resize(lines, Line::default());
            self.inner = build_inner(&self.leaves);
            self.rebuilds += 1;
        }
        let bin = self.len;
        self.len += 1;
        if mass > 0 {
            self.add(bin, mass);
        }
        bin
    }

    /// Retire a bin: drain whatever mass it still carries and return it.
    /// The slot keeps its id (ids are never reused) but holds zero mass
    /// forever after, so rank descent can never select it again.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    pub fn retire_bin(&mut self, bin: usize) -> u64 {
        let mass = self.load(bin);
        if mass > 0 {
            self.sub(bin, mass);
        }
        mass
    }

    /// Total load `m` (the number of balls).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of the loads of bins `0..bin` (`bin` may equal `n`): the leaf
    /// slots before `bin` plus, per inner level, the prefix below `bin`'s
    /// ancestor.
    pub fn prefix(&self, bin: usize) -> u64 {
        debug_assert!(bin <= self.n());
        if bin == FANOUT * self.leaves.len() {
            // `bin == n == capacity`: there is no leaf line past the last.
            return self.total;
        }
        let mut k = bin / FANOUT;
        let mut sum: u64 = self.leaves[k].0[..bin % FANOUT].iter().sum();
        for level in self.inner.iter().rev() {
            let j = k % FANOUT;
            k /= FANOUT;
            if j > 0 {
                sum += level[k].0[j - 1];
            }
        }
        sum
    }

    /// Load of a single bin: one leaf read.
    ///
    /// # Panics
    /// Panics if `bin` is out of range.
    #[inline]
    pub fn load(&self, bin: usize) -> u64 {
        assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        self.leaves[bin / FANOUT].0[bin % FANOUT]
    }

    /// The bin holding the ball of rank `rank` when balls are laid out bin
    /// by bin: the first bin whose cumulative load exceeds `rank`.
    ///
    /// Drawing `rank` uniformly from `[0, m)` therefore selects a bin with
    /// probability `ℓ_i / m` — exactly the law of activating a uniformly
    /// random ball.
    ///
    /// # Panics
    /// Panics if `rank >= total` (in particular whenever the index is
    /// empty).
    #[inline]
    pub fn bin_at(&self, rank: u64) -> usize {
        self.bin_at_depth(rank).0
    }

    /// Like [`bin_at`](Self::bin_at), but also reports how many index
    /// lines the descent read — the telemetry layer's "descent depth"
    /// metric, a constant for a given capacity.  `bin_at` is a thin
    /// wrapper, so the selection arithmetic is bit-identical whether or
    /// not the caller keeps the depth.
    ///
    /// # Panics
    /// Panics if `rank >= total` (in particular whenever the index is
    /// empty).
    pub fn bin_at_depth(&self, mut rank: u64) -> (usize, u32) {
        assert!(
            rank < self.total,
            "rank {rank} out of range (total {})",
            self.total
        );
        // Invariant: `rank` is below the mass under `node`.  At the top
        // that mass is `total`; a line's slots past its last child repeat
        // its total, so the count of prefixes `≤ rank` always names a real
        // child and the invariant carries down.
        let mut node = 0usize;
        for level in &self.inner {
            let line = &level[node].0;
            // The prefixes are sorted, so a branch-free binary search
            // counts those `≤ rank` in log₂ 8 = 3 compares, keeping the
            // last prefix it stepped over: the mass below child `idx`.
            let mut idx = 0usize;
            let mut below = 0u64;
            let mut half = FANOUT / 2;
            while half > 0 {
                let prefix = line[idx + half - 1];
                let take = prefix <= rank;
                idx += half & usize::from(take).wrapping_neg();
                below = if take { prefix } else { below };
                half /= 2;
            }
            rank -= below;
            node = node * FANOUT + idx;
        }
        let mut idx = 0usize;
        let mut acc = 0u64;
        for &mass in &self.leaves[node].0 {
            acc += mass;
            idx += usize::from(acc <= rank);
        }
        let depth = u32::try_from(self.inner.len() + 1).expect("at most 22 levels over u64 bins");
        (node * FANOUT + idx, depth)
    }

    /// Add one ball to `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range or the total would overflow.
    #[inline]
    pub fn increment(&mut self, bin: usize) {
        self.add(bin, 1);
    }

    /// Remove one ball from `bin`.
    ///
    /// # Panics
    /// Panics if `bin` is out of range; panics in debug builds if the bin
    /// is empty (release builds would silently corrupt the tree, exactly
    /// like the [`LoadTracker`](crate::LoadTracker) contract).
    #[inline]
    pub fn decrement(&mut self, bin: usize) {
        self.sub(bin, 1);
    }

    /// Add an arbitrary mass `delta` to `bin` — the weighted generalization
    /// of [`increment`](Self::increment).  The index is value-agnostic:
    /// over ball counts a delta is `1`, over ball *weights* it is the
    /// weight of the arriving ball, and over rate mass it is the bin's
    /// speed (per ball gaining a clock).
    ///
    /// # Panics
    /// Panics if `bin` is out of range or the total would overflow.
    #[inline]
    pub fn add(&mut self, bin: usize, delta: u64) {
        assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        self.total = self
            .total
            .checked_add(delta)
            .expect("total load fits in u64");
        self.update(bin, delta);
    }

    /// Remove an arbitrary mass `delta` from `bin` — the weighted
    /// generalization of [`decrement`](Self::decrement).
    ///
    /// # Panics
    /// Panics if `bin` is out of range; panics in debug builds if the bin
    /// holds less than `delta` (release builds would silently corrupt the
    /// tree, exactly like the [`LoadTracker`](crate::LoadTracker)
    /// contract).
    #[inline]
    pub fn sub(&mut self, bin: usize, delta: u64) {
        assert!(bin < self.n(), "bin {bin} outside 0..{}", self.n());
        debug_assert!(
            self.load(bin) >= delta,
            "cannot remove a ball from an empty bin"
        );
        self.total -= delta;
        self.update(bin, delta.wrapping_neg());
    }

    /// Add `delta` (two's complement, so a subtraction is the negated
    /// mass) to `bin`'s leaf slot and to the slots at and after its
    /// ancestor's position in one line per inner level.
    #[inline]
    fn update(&mut self, bin: usize, delta: u64) {
        let mut k = bin / FANOUT;
        let slot = &mut self.leaves[k].0[bin % FANOUT];
        *slot = slot.wrapping_add(delta);
        for level in self.inner.iter_mut().rev() {
            let j = k % FANOUT;
            k /= FANOUT;
            for (prefix, mask) in level[k].0.iter_mut().zip(&SUFFIX_MASKS[j]) {
                *prefix = prefix.wrapping_add(delta & mask);
            }
        }
    }

    /// Record a ball moving from `from` to `to` (the companion of
    /// [`Config::apply`] and [`LoadTracker::record_move`](crate::LoadTracker::record_move)).
    /// Self-loops must not be recorded.
    #[inline]
    pub fn record_move(&mut self, from: usize, to: usize) {
        debug_assert_ne!(from, to, "self-loops must not be recorded");
        self.decrement(from);
        self.increment(to);
    }

    /// Record a dynamic arrival into `bin` (the companion of
    /// [`Config::add_ball`]).
    #[inline]
    pub fn record_insert(&mut self, bin: usize) {
        self.increment(bin);
    }

    /// Record a dynamic departure from `bin` (the companion of
    /// [`Config::remove_ball`]).
    #[inline]
    pub fn record_remove(&mut self, bin: usize) {
        self.decrement(bin);
    }

    /// Verify the index against a configuration (test/debug helper,
    /// `O(n)`): the leaves against the loads, and every inner level
    /// against a rebuild from the leaves.
    pub fn matches(&self, cfg: &Config) -> bool {
        self.n() == cfg.n()
            && self.total == cfg.m()
            && (0..cfg.n()).all(|i| self.load(i) == cfg.load(i))
            && self.inner == build_inner(&self.leaves)
    }
}

/// The inner levels over `leaves`, top first (none over a single leaf
/// line).  The masses sum to at most the (checked) total, so no prefix
/// overflows.
fn build_inner(leaves: &[Line]) -> Vec<Vec<Line>> {
    let mut levels = Vec::new();
    if leaves.len() > 1 {
        levels.push(parent_level(leaves, |leaf| leaf.0.iter().sum()));
    }
    while let Some(top) = levels.last().filter(|top| top.len() > 1) {
        levels.push(parent_level(top, |line| line.0[FANOUT - 1]));
    }
    levels.reverse();
    levels
}

/// One line per `FANOUT` children, holding the inclusive prefix sums of
/// their masses; slots past the last child repeat the line's total.
fn parent_level(children: &[Line], mass: impl Fn(&Line) -> u64) -> Vec<Line> {
    children
        .chunks(FANOUT)
        .map(|group| {
            let mut line = Line::default();
            let mut acc = 0u64;
            for (s, prefix) in line.0.iter_mut().enumerate() {
                acc += group.get(s).map_or(0, &mass);
                *prefix = acc;
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cumulative_bin(loads: &[u64], rank: u64) -> usize {
        let mut acc = 0u64;
        for (i, &l) in loads.iter().enumerate() {
            acc += l;
            if rank < acc {
                return i;
            }
        }
        unreachable!("rank within total")
    }

    #[test]
    fn bin_at_depth_agrees_with_bin_at_and_is_bounded() {
        let loads = [3u64, 0, 7, 1, 0, 5, 2, 9, 4, 6];
        let idx = LoadIndex::from_loads(&loads);
        let total: u64 = loads.iter().sum();
        for rank in 0..total {
            let (bin, depth) = idx.bin_at_depth(rank);
            assert_eq!(bin, idx.bin_at(rank));
            assert_eq!(bin, cumulative_bin(&loads, rank));
            assert!(depth >= 1, "descent must inspect at least one node");
            assert!(
                depth <= 64 - (loads.len() as u64).leading_zeros() + 1,
                "depth {depth} exceeds tree height for {} bins",
                loads.len()
            );
        }
    }

    #[test]
    fn construction_matches_configuration() {
        let cfg = Config::from_loads(vec![3, 0, 5, 1, 0, 2]).unwrap();
        let idx = LoadIndex::new(&cfg);
        assert!(idx.matches(&cfg));
        assert_eq!(idx.n(), 6);
        assert_eq!(idx.total(), 11);
        assert_eq!(idx.prefix(0), 0);
        assert_eq!(idx.prefix(3), 8);
        assert_eq!(idx.prefix(6), 11);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn empty_load_vector_rejected() {
        let _ = LoadIndex::from_loads(&[]);
    }

    #[test]
    fn bin_at_agrees_with_the_cumulative_scan() {
        let loads = [3u64, 0, 5, 1, 0, 2, 7];
        let idx = LoadIndex::from_loads(&loads);
        for rank in 0..idx.total() {
            assert_eq!(
                idx.bin_at(rank),
                cumulative_bin(&loads, rank),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn bin_at_never_returns_an_empty_bin() {
        let loads = [0u64, 4, 0, 0, 1, 0];
        let idx = LoadIndex::from_loads(&loads);
        for rank in 0..idx.total() {
            assert!(loads[idx.bin_at(rank)] > 0, "rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_at_rejects_rank_past_total() {
        let idx = LoadIndex::from_loads(&[2, 1]);
        let _ = idx.bin_at(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn empty_index_cannot_be_sampled() {
        let idx = LoadIndex::from_loads(&[0, 0, 0]);
        let _ = idx.bin_at(0);
    }

    #[test]
    fn updates_track_moves_arrivals_and_departures() {
        let mut cfg = Config::from_loads(vec![4, 1, 0, 3]).unwrap();
        let mut idx = LoadIndex::new(&cfg);

        cfg.apply(crate::Move::new(0, 2)).unwrap();
        idx.record_move(0, 2);
        assert!(idx.matches(&cfg));

        cfg.add_ball(1).unwrap();
        idx.record_insert(1);
        assert!(idx.matches(&cfg));

        cfg.remove_ball(3).unwrap();
        idx.record_remove(3);
        assert!(idx.matches(&cfg));
        assert_eq!(idx.total(), cfg.m());
    }

    #[test]
    fn stays_consistent_over_a_long_random_walk() {
        let mut cfg = Config::all_in_one_bin(13, 77).unwrap();
        let mut idx = LoadIndex::new(&cfg);
        let mut state = 0xDEADBEEFu64;
        for step in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as usize % cfg.n();
            let b = (state >> 13) as usize % cfg.n();
            match step % 4 {
                0 => {
                    cfg.add_ball(a).unwrap();
                    idx.record_insert(a);
                }
                1 if cfg.load(b) > 0 => {
                    cfg.remove_ball(b).unwrap();
                    idx.record_remove(b);
                }
                _ if a != b && cfg.load(a) > 0 => {
                    cfg.apply(crate::Move::new(a, b)).unwrap();
                    idx.record_move(a, b);
                }
                _ => continue,
            }
            assert!(idx.matches(&cfg), "step {step}");
        }
        // Rank queries still agree with a linear scan after the churn.
        for rank in (0..idx.total()).step_by(17) {
            assert_eq!(idx.bin_at(rank), cumulative_bin(cfg.loads(), rank));
        }
    }

    #[test]
    fn weighted_deltas_generalize_the_unit_updates() {
        // A weight-mass index: bins carry arbitrary mass, not ball counts.
        let mut idx = LoadIndex::from_loads(&[10, 0, 3]);
        idx.add(1, 7);
        assert_eq!(idx.load(1), 7);
        assert_eq!(idx.total(), 20);
        idx.sub(0, 4);
        assert_eq!(idx.load(0), 6);
        assert_eq!(idx.total(), 16);
        // Rank descent walks the weighted mass exactly like ball counts.
        assert_eq!(idx.bin_at(5), 0);
        assert_eq!(idx.bin_at(6), 1);
        assert_eq!(idx.bin_at(12), 1);
        assert_eq!(idx.bin_at(13), 2);
        // Delta-1 is exactly the unit path.
        let mut unit = LoadIndex::from_loads(&[2, 2]);
        let mut delta = unit.clone();
        unit.increment(0);
        delta.add(0, 1);
        assert_eq!(unit, delta);
        unit.decrement(1);
        delta.sub(1, 1);
        assert_eq!(unit, delta);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty bin")]
    fn sub_past_the_bin_mass_panics_in_debug() {
        let mut idx = LoadIndex::from_loads(&[3, 1]);
        idx.sub(0, 4);
    }

    #[test]
    fn huge_loads_do_not_overflow() {
        // A four-billion-ball bin: the lifted u32 cap in miniature.
        let big = u32::MAX as u64 + 1;
        let idx = LoadIndex::from_loads(&[big, 1, big]);
        assert_eq!(idx.total(), 2 * big + 1);
        assert_eq!(idx.bin_at(0), 0);
        assert_eq!(idx.bin_at(big - 1), 0);
        assert_eq!(idx.bin_at(big), 1);
        assert_eq!(idx.bin_at(big + 1), 2);
        assert_eq!(idx.bin_at(2 * big), 2);
    }

    #[test]
    fn single_bin_index_works() {
        let mut idx = LoadIndex::from_loads(&[5]);
        assert_eq!(idx.bin_at(4), 0);
        idx.record_insert(0);
        assert_eq!(idx.total(), 6);
        idx.record_remove(0);
        assert_eq!(idx.total(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty bin")]
    fn decrement_on_empty_bin_panics_in_debug() {
        let mut idx = LoadIndex::from_loads(&[1, 0]);
        idx.decrement(1);
    }

    #[test]
    fn add_bin_grows_and_samples_the_new_bin() {
        let mut idx = LoadIndex::from_loads(&[3, 1]);
        assert_eq!(idx.capacity(), 2);
        let bin = idx.add_bin(5);
        assert_eq!(bin, 2);
        assert_eq!(idx.n(), 3);
        assert_eq!(idx.capacity(), 4, "full tree doubles");
        assert_eq!(idx.rebuilds(), 1);
        assert_eq!(idx.total(), 9);
        assert_eq!(idx.load(2), 5);
        // Rank descent reaches the freshly added bin.
        assert_eq!(idx.bin_at(3), 1);
        assert_eq!(idx.bin_at(4), 2);
        assert_eq!(idx.bin_at(8), 2);
        // The spare slot is claimed without another rebuild.
        let bin = idx.add_bin(0);
        assert_eq!(bin, 3);
        assert_eq!(idx.rebuilds(), 1);
        idx.add(3, 2);
        assert_eq!(idx.bin_at(idx.total() - 1), 3);
    }

    #[test]
    fn retire_bin_masks_the_slot_at_zero_rate() {
        let mut idx = LoadIndex::from_loads(&[4, 7, 2]);
        assert_eq!(idx.retire_bin(1), 7);
        assert_eq!(idx.n(), 3, "the id slot survives retirement");
        assert_eq!(idx.total(), 6);
        assert_eq!(idx.load(1), 0);
        for rank in 0..idx.total() {
            assert_ne!(idx.bin_at(rank), 1, "rank {rank} hit a retired bin");
        }
        // Retiring an already-empty bin is a zero-mass no-op.
        assert_eq!(idx.retire_bin(1), 0);
        assert_eq!(idx.total(), 6);
    }

    #[test]
    fn growth_cost_model_is_amortized_doubling() {
        // Pinned cost model: growing 1 → 1024 bins pays exactly
        // log2(1024) = 10 rebuilds, never one per add_bin.
        let mut idx = LoadIndex::from_loads(&[1]);
        for _ in 1..1024 {
            idx.add_bin(1);
        }
        assert_eq!(idx.n(), 1024);
        assert_eq!(idx.capacity(), 1024);
        assert_eq!(idx.rebuilds(), 10);
        assert_eq!(idx.total(), 1024);
        for rank in (0..1024).step_by(97) {
            assert_eq!(idx.bin_at(rank), rank as usize);
        }
    }

    /// `bin_at`, `prefix` and `load` against a linear scan.
    fn assert_agrees_with_scan(idx: &LoadIndex, loads: &[u64]) {
        assert_eq!(idx.n(), loads.len());
        assert_eq!(idx.total(), loads.iter().sum::<u64>());
        let mut acc = 0u64;
        for (b, &l) in loads.iter().enumerate() {
            assert_eq!(idx.load(b), l, "load of bin {b}");
            assert_eq!(idx.prefix(b), acc, "prefix of bin {b}");
            acc += l;
        }
        assert_eq!(idx.prefix(loads.len()), acc);
        for rank in 0..acc {
            assert_eq!(idx.bin_at(rank), cumulative_bin(loads, rank), "rank {rank}");
        }
    }

    #[test]
    fn fan_out_boundary_sizes_agree_with_the_scan() {
        for n in [1usize, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4097] {
            // Every third bin empty, so descents must skip zero-mass
            // children at every level.
            let loads: Vec<u64> = (0..n as u64)
                .map(|b| (b * 7 + 3) % 5 * u64::from(b % 3 != 1))
                .collect();
            let idx = LoadIndex::from_loads(&loads);
            assert_agrees_with_scan(&idx, &loads);
            // The depth is the constant line count: 1 up to 8 bins, one
            // more per factor of 8 in the capacity beyond that.
            let depth = idx.bin_at_depth(0).1;
            let expect = match idx.capacity() {
                1..=8 => 1,
                9..=64 => 2,
                65..=512 => 3,
                513..=4096 => 4,
                _ => 5,
            };
            assert_eq!(depth, expect, "n = {n}");
        }
    }

    #[test]
    fn growth_that_adds_an_inner_level_keeps_sampling_exact() {
        // 8 → 16 adds the first inner level; 64 → 128 adds the second.
        for n in [8usize, 64] {
            let mut loads: Vec<u64> = (0..n as u64).map(|b| b % 4).collect();
            let mut idx = LoadIndex::from_loads(&loads);
            assert_eq!(idx.capacity(), n);
            let before = idx.bin_at_depth(0).1;
            assert_eq!(idx.add_bin(3), n);
            loads.push(3);
            assert_eq!(idx.capacity(), 2 * n);
            assert_eq!(idx.rebuilds(), 1);
            assert_eq!(idx.bin_at_depth(0).1, before + 1, "n = {n}");
            assert_agrees_with_scan(&idx, &loads);
            // Updates after the rebuild reach the new level too.
            idx.add(n, 5);
            idx.sub(0, loads[0]);
            loads[n] += 5;
            loads[0] = 0;
            assert_agrees_with_scan(&idx, &loads);
        }
    }

    #[test]
    fn elastic_interleaving_agrees_with_brute_force_rebuild() {
        let mut idx = LoadIndex::from_loads(&[5, 0, 3]);
        let mut loads = vec![5u64, 0, 3];
        let mut retired = vec![false; 3];
        let mut state = 0x5EED_CAFEu64;
        for step in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pick = (state >> 33) as usize % loads.len();
            match step % 5 {
                0 => {
                    let mass = (state >> 13) % 9;
                    let bin = idx.add_bin(mass);
                    assert_eq!(bin, loads.len());
                    loads.push(mass);
                    retired.push(false);
                }
                1 if !retired[pick] => {
                    idx.add(pick, 2);
                    loads[pick] += 2;
                }
                2 if !retired[pick] && loads[pick] > 0 => {
                    idx.sub(pick, 1);
                    loads[pick] -= 1;
                }
                3 if !retired[pick] && retired.iter().filter(|r| !**r).count() > 1 => {
                    assert_eq!(idx.retire_bin(pick), loads[pick]);
                    loads[pick] = 0;
                    retired[pick] = true;
                }
                _ => continue,
            }
            let fresh = LoadIndex::from_loads(&loads);
            assert_eq!(idx.total(), fresh.total(), "step {step}");
            for b in 0..loads.len() {
                assert_eq!(idx.load(b), fresh.load(b), "step {step} bin {b}");
            }
            for rank in (0..idx.total()).step_by(11) {
                assert_eq!(idx.bin_at(rank), fresh.bin_at(rank), "step {step}");
            }
        }
        assert!(idx.rebuilds() > 0, "the walk must have exercised growth");
    }
}
