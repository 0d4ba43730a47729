//! [`LoadState`]: the one place a ball moves.
//!
//! Every engine keeps the same books in lock-step: the load vector
//! ([`Config`]), its `O(1)` summary ([`LoadTracker`]), the prefix-sum index
//! that samples a uniform ball ([`LoadIndex`]) and, on heterogeneous
//! instances, the [`HeteroBooks`].  `LoadState` owns them all and changes
//! them only through [`move_ball`](LoadState::move_ball),
//! [`insert`](LoadState::insert), [`remove`](LoadState::remove),
//! [`add_bin`](LoadState::add_bin) and [`retire_bin`](LoadState::retire_bin).
//! A mutator that returns an error has changed nothing.
//!
//! The index holds every load in its leaf slots, so the event path reads
//! loads there: the source's leaf was just read by the rank descent, and
//! the destination's leaf is about to be written by the update anyway.
//! The [`Config`] is the written mirror behind [`config`](LoadState::config)
//! for callers that want a load vector (adversaries, exports, checks); at
//! large `n` reading it too would cost a second cold line per bin.
//!
//! ```
//! use rls_core::{Config, LoadState};
//!
//! let mut state = LoadState::new(Config::from_loads(vec![3, 0, 1]).unwrap());
//! state.move_ball(0, 1, None).unwrap();
//! state.insert(2, 1).unwrap();
//! assert_eq!(state.config().loads(), &[2, 1, 2]);
//! assert!(state.move_ball(1, 1, None).is_err(), "self-loops are refused");
//! assert!(state.matches());
//! ```

use crate::{Config, ConfigError, LoadIndex, LoadTracker, Membership, Move};

/// The books of a heterogeneous instance: bin `i` runs at integer speed
/// `s_i ≥ 1`, so its balls' clocks tick at rate `s_i` and the ring and
/// departure laws run on the rate mass `s_i·ℓ_i`.
#[derive(Debug, Clone)]
pub struct HeteroBooks {
    /// Per-bin speeds (all `≥ 1`).
    pub speeds: Vec<u64>,
    /// `Σ s_i` over live bins.
    pub total_speed: u64,
    /// Index over per-bin total ball weight (one read per bin weight).
    pub weight_index: LoadIndex,
    /// Index over per-bin rate mass `s_i·ℓ_i`.
    pub rate_index: LoadIndex,
    /// Per-ball weights, bin by bin; `None` when every ball weighs `1`.
    pub balls: Option<Vec<Vec<u64>>>,
}

/// The load books of one engine, changed only through its mutators.
#[derive(Debug, Clone)]
pub struct LoadState {
    cfg: Config,
    /// Summary of the *live* bins (a retired slot is not a bin).
    tracker: LoadTracker,
    index: LoadIndex,
    /// `retired[b]`: bin `b` has left the live set.  Empty until the
    /// first retirement, so static instances pay nothing for it.
    retired: Vec<bool>,
    /// Boxed: it is absent on the hot unit path, which keeps the books
    /// the ring touches close together.
    hetero: Option<Box<HeteroBooks>>,
}

impl LoadState {
    /// The books of a configuration whose bins are all live.
    pub fn new(cfg: Config) -> Self {
        Self {
            tracker: LoadTracker::new(&cfg),
            index: LoadIndex::new(&cfg),
            cfg,
            retired: Vec::new(),
            hetero: None,
        }
    }

    /// The books of a restored elastic instance: bins outside
    /// `membership`'s live set are retired, must be empty, and are left
    /// out of the tracker.
    pub fn with_live(cfg: Config, membership: &Membership) -> Result<Self, String> {
        if membership.capacity() != cfg.n() {
            return Err(format!(
                "membership log allocates {} bin ids but the load vector has {}",
                membership.capacity(),
                cfg.n()
            ));
        }
        if let Some(bin) = (0..cfg.n()).find(|&b| !membership.is_live(b) && cfg.load(b) != 0) {
            return Err(format!(
                "retired bin {bin} carries load {} (drains relocate every ball)",
                cfg.load(bin)
            ));
        }
        let mut state = Self::new(cfg);
        if membership.is_elastic() {
            let live = membership.live_ids().iter();
            let live = Config::from_loads(live.map(|&b| state.cfg.load(b as usize)).collect())
                .map_err(|e| format!("live loads: {e}"))?;
            state.tracker = LoadTracker::new(&live);
            state.retired = (0..state.cfg.n()).map(|b| !membership.is_live(b)).collect();
        }
        Ok(state)
    }

    /// Attach heterogeneity books: `speeds[i] ≥ 1` per bin, and per-ball
    /// weights (`balls[i]` holds exactly `load(i)` positive weights) or
    /// `None` for unit balls.  The weight and rate indexes are built
    /// from the current loads.
    pub fn attach_hetero(
        &mut self,
        speeds: Vec<u64>,
        balls: Option<Vec<Vec<u64>>>,
    ) -> Result<(), String> {
        let n = self.cfg.n();
        if speeds.len() != n {
            return Err(format!(
                "speed vector has {} entries for {n} bins",
                speeds.len()
            ));
        }
        if speeds.contains(&0) {
            return Err("bin speeds must be at least one".to_string());
        }
        let weights: Vec<u64> = match &balls {
            None => self.cfg.loads().to_vec(),
            Some(balls) => {
                if balls.len() != n {
                    return Err(format!(
                        "ball-weight table has {} bins for {n}",
                        balls.len()
                    ));
                }
                for (b, bin) in balls.iter().enumerate() {
                    if bin.len() as u64 != self.cfg.load(b) {
                        let (len, load) = (bin.len(), self.cfg.load(b));
                        return Err(format!("bin {b} stores {len} ball weights for load {load}"));
                    }
                    if bin.contains(&0) {
                        return Err("ball weights must be positive".to_string());
                    }
                }
                let sums = balls.iter().map(|bin| checked_sum(bin.iter().copied()));
                sums.collect::<Option<_>>()
                    .ok_or("total bin weight overflows u64")?
            }
        };
        let rates: Vec<u64> = speeds
            .iter()
            .zip(self.cfg.loads())
            .map(|(&s, &l)| s.checked_mul(l))
            .collect::<Option<_>>()
            .ok_or("bin rate mass overflows u64")?;
        checked_sum(weights.iter().chain(&rates).copied()).ok_or("total mass overflows u64")?;
        let live_speeds = (0..n).filter(|&b| !self.is_retired(b)).map(|b| speeds[b]);
        let total_speed = checked_sum(live_speeds).ok_or("total speed overflows u64")?;
        self.hetero = Some(Box::new(HeteroBooks {
            speeds,
            total_speed,
            weight_index: LoadIndex::from_loads(&weights),
            rate_index: LoadIndex::from_loads(&rates),
            balls,
        }));
        Ok(())
    }

    /// The load vector (retired slots stay in it at load zero).
    #[inline]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The `O(1)` summary of the live bins.
    #[inline]
    pub fn tracker(&self) -> &LoadTracker {
        &self.tracker
    }

    /// The prefix-sum index over the loads (uniform-ball sampling).
    #[inline]
    pub fn index(&self) -> &LoadIndex {
        &self.index
    }

    /// The heterogeneity books, when attached.
    #[inline]
    pub fn hetero(&self) -> Option<&HeteroBooks> {
        self.hetero.as_deref()
    }

    /// Whether `bin` has retired.
    #[inline]
    pub fn is_retired(&self, bin: usize) -> bool {
        self.retired.get(bin).copied().unwrap_or(false)
    }

    /// Move one ball from `from` to `to` and return its weight.  `picked`
    /// names the ball within `from` when per-ball weights are stored
    /// (`None` takes the last one); unit balls need no name.
    #[inline]
    pub fn move_ball(
        &mut self,
        from: usize,
        to: usize,
        picked: Option<usize>,
    ) -> Result<u64, ConfigError> {
        self.check_bin(from)?;
        self.check_bin(to)?;
        if from == to {
            return Err(ConfigError::SelfLoop { bin: from });
        }
        if self.is_retired(to) {
            return Err(ConfigError::Retired { bin: to });
        }
        let (lf, lt) = (self.index.load(from), self.index.load(to));
        if lf == 0 {
            return Err(ConfigError::EmptyBin { bin: from });
        }
        self.cfg
            .apply(Move::new(from, to))
            .expect("validated move applies");
        self.tracker.record_move(lf, lt);
        self.index.record_move(from, to);
        let Some(h) = &mut self.hetero else {
            return Ok(1);
        };
        let weight = match &mut h.balls {
            Some(balls) => {
                let i = picked.unwrap_or(balls[from].len() - 1);
                let w = balls[from].swap_remove(i);
                balls[to].push(w);
                w
            }
            None => 1,
        };
        h.weight_index.sub(from, weight);
        h.weight_index.add(to, weight);
        h.rate_index.sub(from, h.speeds[from]);
        h.rate_index.add(to, h.speeds[to]);
        Ok(weight)
    }

    /// Add one ball of `weight` to `bin` (the weight counts only with
    /// heterogeneity books).
    #[inline]
    pub fn insert(&mut self, bin: usize, weight: u64) -> Result<(), ConfigError> {
        self.check_bin(bin)?;
        if self.is_retired(bin) {
            return Err(ConfigError::Retired { bin });
        }
        let old = self.index.load(bin);
        self.cfg.add_ball(bin)?;
        self.tracker.record_insert(old);
        self.index.record_insert(bin);
        if let Some(h) = &mut self.hetero {
            h.weight_index.add(bin, weight);
            h.rate_index.add(bin, h.speeds[bin]);
            if let Some(balls) = &mut h.balls {
                balls[bin].push(weight);
            }
        }
        Ok(())
    }

    /// Remove one ball from `bin` and return its weight (`picked` names it
    /// as in [`move_ball`](Self::move_ball)).
    #[inline]
    pub fn remove(&mut self, bin: usize, picked: Option<usize>) -> Result<u64, ConfigError> {
        self.check_bin(bin)?;
        let old = self.index.load(bin);
        self.cfg.remove_ball(bin)?;
        self.tracker.record_remove(old);
        self.index.record_remove(bin);
        let Some(h) = &mut self.hetero else {
            return Ok(1);
        };
        let weight = match &mut h.balls {
            Some(balls) => {
                let i = picked.unwrap_or(balls[bin].len() - 1);
                balls[bin].swap_remove(i)
            }
            None => 1,
        };
        h.weight_index.sub(bin, weight);
        h.rate_index.sub(bin, h.speeds[bin]);
        Ok(weight)
    }

    /// Admit an empty bin at the next id (speed `1` with heterogeneity
    /// books) and return that id.
    pub fn add_bin(&mut self) -> usize {
        let bin = self.cfg.push_bin();
        self.index.add_bin(0);
        self.tracker.bin_joined(0);
        if !self.retired.is_empty() {
            self.retired.push(false);
        }
        if let Some(h) = &mut self.hetero {
            h.speeds.push(1);
            h.total_speed += 1;
            h.weight_index.add_bin(0);
            h.rate_index.add_bin(0);
            if let Some(balls) = &mut h.balls {
                balls.push(Vec::new());
            }
        }
        bin
    }

    /// Retire an empty live bin: its slot keeps the id at zero mass and
    /// leaves the tracker (and the total speed).
    pub fn retire_bin(&mut self, bin: usize) -> Result<(), ConfigError> {
        self.check_bin(bin)?;
        if self.is_retired(bin) {
            return Err(ConfigError::Retired { bin });
        }
        if self.cfg.load(bin) != 0 {
            return Err(ConfigError::NotEmpty { bin });
        }
        if self.tracker.n() <= 1 {
            return Err(ConfigError::LastBin);
        }
        self.tracker.bin_retired();
        if self.retired.is_empty() {
            self.retired = vec![false; self.cfg.n()];
        }
        self.retired[bin] = true;
        if let Some(h) = &mut self.hetero {
            h.total_speed -= h.speeds[bin];
        }
        Ok(())
    }

    /// Verify every book against a from-scratch rebuild (test/debug
    /// helper, `O(n + m)`): the tracker against the live loads, the index
    /// against the load vector, and the heterogeneity books against the
    /// loads.
    pub fn matches(&self) -> bool {
        let live = |b: &usize| !self.is_retired(*b);
        let n = self.cfg.n();
        let live_loads = (0..n).filter(live).map(|b| self.cfg.load(b)).collect();
        let books = (0..n).all(|b| live(&b) || self.cfg.load(b) == 0)
            && Config::from_loads(live_loads).is_ok_and(|c| self.tracker.matches(&c))
            && self.index.matches(&self.cfg);
        let Some(h) = &self.hetero else {
            return books;
        };
        let rebuilt = |index: &LoadIndex, mass: Vec<u64>| {
            Config::from_loads(mass).is_ok_and(|c| index.matches(&c))
        };
        let weights = (0..n).map(|b| match &h.balls {
            Some(balls) => balls[b].iter().sum(),
            None => self.cfg.load(b),
        });
        let rates = (0..n).map(|b| h.speeds[b] * self.cfg.load(b));
        books
            && (0..n).filter(live).map(|b| h.speeds[b]).sum::<u64>() == h.total_speed
            && h.balls
                .as_ref()
                .is_none_or(|balls| (0..n).all(|b| balls[b].len() as u64 == self.cfg.load(b)))
            && rebuilt(&h.weight_index, weights.collect())
            && rebuilt(&h.rate_index, rates.collect())
    }

    #[inline]
    fn check_bin(&self, bin: usize) -> Result<(), ConfigError> {
        let n = self.cfg.n();
        (bin < n)
            .then_some(())
            .ok_or(ConfigError::BinOutOfRange { bin, n })
    }
}

fn checked_sum(mut values: impl Iterator<Item = u64>) -> Option<u64> {
    values.try_fold(0u64, |acc, v| acc.checked_add(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(loads: &[u64]) -> LoadState {
        LoadState::new(Config::from_loads(loads.to_vec()).unwrap())
    }

    #[test]
    fn mutators_keep_every_book_in_step() {
        let mut s = state(&[4, 0, 2]);
        s.move_ball(0, 1, None).unwrap();
        s.insert(1, 1).unwrap();
        assert_eq!(s.remove(2, None), Ok(1));
        assert_eq!(s.config().loads(), &[3, 2, 1]);
        assert!(s.matches());
    }

    #[test]
    fn invalid_mutations_leave_the_state_untouched() {
        let mut s = state(&[2, 0]);
        let before = s.config().clone();
        assert_eq!(
            s.move_ball(0, 5, None),
            Err(ConfigError::BinOutOfRange { bin: 5, n: 2 })
        );
        assert_eq!(
            s.move_ball(1, 0, None),
            Err(ConfigError::EmptyBin { bin: 1 })
        );
        assert_eq!(
            s.move_ball(0, 0, None),
            Err(ConfigError::SelfLoop { bin: 0 })
        );
        assert_eq!(s.remove(1, None), Err(ConfigError::EmptyBin { bin: 1 }));
        assert_eq!(
            s.insert(2, 1),
            Err(ConfigError::BinOutOfRange { bin: 2, n: 2 })
        );
        assert_eq!(s.retire_bin(0), Err(ConfigError::NotEmpty { bin: 0 }));
        assert_eq!(s.config(), &before);
        assert!(s.matches());
        assert!(ConfigError::SelfLoop { bin: 0 }
            .to_string()
            .contains("itself"));
    }

    #[test]
    fn retired_bins_leave_the_tracker_and_take_no_balls() {
        let mut s = state(&[3, 1]);
        let new = s.add_bin();
        assert_eq!(new, 2);
        s.move_ball(0, new, None).unwrap();
        s.move_ball(1, 0, None).unwrap();
        s.retire_bin(1).unwrap();
        assert!(s.is_retired(1));
        assert_eq!(s.tracker().n(), 2);
        assert_eq!(s.retire_bin(1), Err(ConfigError::Retired { bin: 1 }));
        assert_eq!(s.insert(1, 1), Err(ConfigError::Retired { bin: 1 }));
        assert_eq!(
            s.move_ball(0, 1, None),
            Err(ConfigError::Retired { bin: 1 })
        );
        s.move_ball(2, 0, None).unwrap();
        s.retire_bin(2).unwrap();
        assert_eq!(s.retire_bin(0), Err(ConfigError::NotEmpty { bin: 0 }));
        assert!(s.matches());
        let mut lone = state(&[0]);
        assert_eq!(lone.retire_bin(0), Err(ConfigError::LastBin));
    }

    #[test]
    fn weighted_balls_carry_their_weight_and_rate() {
        let mut s = state(&[2, 0]);
        s.attach_hetero(vec![1, 3], Some(vec![vec![5, 7], vec![]]))
            .unwrap();
        assert_eq!(s.move_ball(0, 1, Some(0)), Ok(5));
        s.insert(1, 4).unwrap();
        let h = s.hetero().unwrap();
        assert_eq!(h.balls.as_ref().unwrap()[1], vec![5, 4]);
        assert_eq!(h.rate_index.total(), 1 + 3 + 3);
        assert_eq!(s.remove(1, None), Ok(4));
        assert_eq!(s.hetero().unwrap().weight_index.total(), 12);
        assert!(s.matches());
    }

    #[test]
    fn hetero_books_are_validated() {
        let mut s = state(&[1, 1]);
        assert!(s.attach_hetero(vec![1], None).is_err());
        assert!(s.attach_hetero(vec![1, 0], None).is_err());
        assert!(s.attach_hetero(vec![1, 1], Some(vec![vec![1]])).is_err());
        assert!(s
            .attach_hetero(vec![1, 1], Some(vec![vec![1], vec![0]]))
            .is_err());
        assert!(s
            .attach_hetero(vec![1, 1], Some(vec![vec![u64::MAX], vec![1]]))
            .is_err());
        assert!(s.hetero().is_none());
    }

    #[test]
    fn restored_live_sets_are_validated() {
        let mut membership = Membership::new(3);
        membership.retire(1);
        let cfg = Config::from_loads(vec![2, 0, 1]).unwrap();
        let s = LoadState::with_live(cfg, &membership).unwrap();
        assert!(s.is_retired(1));
        assert_eq!(s.tracker().n(), 2);
        assert!(s.matches());
        let loaded = Config::from_loads(vec![2, 1, 1]).unwrap();
        assert!(LoadState::with_live(loaded, &membership).is_err());
        let short = Config::from_loads(vec![2, 0]).unwrap();
        assert!(LoadState::with_live(short, &membership).is_err());
    }
}
