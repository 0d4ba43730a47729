//! Arrival processes for dynamic (online) instances.
//!
//! The paper analyses a *static* instance — `m` balls placed once — but the
//! live engine (`rls-live`) superposes the RLS clocks with a stream of ball
//! arrivals and departures.  An [`ArrivalProcess`] describes the *law* of
//! that stream: how arrival epochs are spaced in continuous time, how many
//! balls each epoch injects, and where they land.  Like [`Workload`], the
//! variants are plain serializable values so campaign specs can name them
//! in TOML/JSON grids (`"poisson:2"`, `"bursts:2:16"`, `"hotspot:2:0.5"`).
//!
//! Rates are *per bin*: a process with `rate_per_bin = α` injects `α · n`
//! balls per unit of simulated time into an `n`-bin system, so the same
//! spec string keeps the offered load density constant across a grid's `n`
//! axis.
//!
//! [`Workload`]: crate::Workload

use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{Rng64, RngExt};
use serde::{Deserialize, Serialize};

/// The law of a dynamic arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals of single balls, each placed in a uniformly random
    /// bin — the memoryless baseline.
    Poisson {
        /// Arrivals per bin per unit time.
        rate_per_bin: f64,
    },
    /// Adversarial bursts: arrival *epochs* are Poisson with rate
    /// `α · n / size`, and every epoch injects `size` balls at once (uniform
    /// placement), preserving the mean rate `α · n` while maximizing
    /// instantaneous imbalance.
    Bursts {
        /// Mean arrivals per bin per unit time.
        rate_per_bin: f64,
        /// Balls injected per burst epoch.
        size: u64,
    },
    /// A skewed stream: each arriving ball lands in bin 0 with probability
    /// `bias`, otherwise uniformly — the adversarial hotspot that a static
    /// workload cannot express.
    Hotspot {
        /// Arrivals per bin per unit time.
        rate_per_bin: f64,
        /// Probability an arrival targets bin 0 (clamped to `[0, 1]`).
        bias: f64,
    },
}

impl ArrivalProcess {
    /// A short identifier used in tables and spec strings.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursts { .. } => "bursts",
            ArrivalProcess::Hotspot { .. } => "hotspot",
        }
    }

    /// Mean arrivals per bin per unit time.
    pub fn rate_per_bin(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_bin }
            | ArrivalProcess::Bursts { rate_per_bin, .. }
            | ArrivalProcess::Hotspot { rate_per_bin, .. } => rate_per_bin,
        }
    }

    /// Total mean arrival rate into an `n`-bin system.
    pub fn total_rate(&self, n: usize) -> f64 {
        self.rate_per_bin() * n as f64
    }

    /// Rate of arrival *epochs* in an `n`-bin system (for bursts, epochs
    /// are rarer than balls by the burst size).
    pub fn epoch_rate(&self, n: usize) -> f64 {
        match *self {
            ArrivalProcess::Bursts { size, .. } => self.total_rate(n) / size.max(1) as f64,
            _ => self.total_rate(n),
        }
    }

    /// Number of balls injected at one epoch.
    pub fn epoch_size(&self) -> u64 {
        match *self {
            ArrivalProcess::Bursts { size, .. } => size.max(1),
            _ => 1,
        }
    }

    /// Sample the destination bin of one arriving ball.
    ///
    /// The engines sample a live *position* this way and map it to a bin
    /// id with `Membership::live_at`; the hotspot's position `0` is the
    /// first live id.
    pub fn place<R: Rng64 + ?Sized>(&self, n: usize, rng: &mut R) -> usize {
        match *self {
            ArrivalProcess::Hotspot { bias, .. } if rng.next_bernoulli(bias) => 0,
            _ => rng.next_index(n),
        }
    }

    /// Sample the destination among an explicit id list.  The hotspot's
    /// privileged bin is `ids[0]`.
    ///
    /// This is `ids[place(ids.len())]`: the same draws as
    /// [`place`](Self::place), mapped through the list.  No engine calls
    /// it any more (they map `place` through `Membership::live_at`, which
    /// skips the id-list read while the live set is `0..n`); it is kept
    /// only for the benchmark's `workloads.arrivals.place_ns` probe.
    ///
    /// # Panics
    /// Panics if `ids` is empty.
    pub fn place_among<R: Rng64 + ?Sized>(&self, ids: &[u32], rng: &mut R) -> usize {
        match *self {
            ArrivalProcess::Hotspot { bias, .. } if rng.next_bernoulli(bias) => ids[0] as usize,
            _ => ids[rng.next_index(ids.len())] as usize,
        }
    }

    /// Sample the waiting time to the next arrival *epoch* in an `n`-bin
    /// system (`Exp(epoch_rate)` — epochs are Poisson).
    ///
    /// # Panics
    /// Panics if the process fails [`validate`](Self::validate) (the epoch
    /// rate would not be positive).
    pub fn next_epoch_gap<R: Rng64 + ?Sized>(&self, n: usize, rng: &mut R) -> f64 {
        Exponential::new(self.epoch_rate(n))
            .expect("validated arrival process has a positive epoch rate")
            .sample(rng)
    }

    /// Turn the process into an infinite stream of request epochs — the
    /// load generator's view of the same law the live engine simulates.
    ///
    /// Each yielded [`RequestEpoch`] carries the absolute simulated time of
    /// the epoch and how many requests it injects (`1` for Poisson and
    /// hotspot streams, the burst size for bursts).  A serving benchmark
    /// maps simulated time to wall time by a constant factor to hit a
    /// target request rate while preserving the law's shape.
    pub fn schedule<R: Rng64>(&self, n: usize, rng: R) -> RequestSchedule<R> {
        RequestSchedule {
            process: *self,
            n,
            time: 0.0,
            rng,
        }
    }

    /// Whether the parameters are usable (finite positive rate, valid burst
    /// size / bias).
    pub fn validate(&self) -> Result<(), &'static str> {
        let rate = self.rate_per_bin();
        if !(rate.is_finite() && rate > 0.0) {
            return Err("arrival rate must be finite and positive");
        }
        match *self {
            ArrivalProcess::Bursts { size: 0, .. } => Err("burst size must be at least one"),
            ArrivalProcess::Hotspot { bias, .. } if !(0.0..=1.0).contains(&bias) => {
                Err("hotspot bias must lie in [0, 1]")
            }
            _ => Ok(()),
        }
    }
}

/// One entry of a [`RequestSchedule`]: an arrival epoch in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEpoch {
    /// Absolute simulated time of the epoch.
    pub at: f64,
    /// Requests injected at this epoch (≥ 1).
    pub size: u64,
}

/// Infinite iterator over the arrival epochs of an [`ArrivalProcess`] —
/// see [`ArrivalProcess::schedule`].
#[derive(Debug, Clone)]
pub struct RequestSchedule<R> {
    process: ArrivalProcess,
    n: usize,
    time: f64,
    rng: R,
}

impl<R: Rng64> Iterator for RequestSchedule<R> {
    type Item = RequestEpoch;

    fn next(&mut self) -> Option<RequestEpoch> {
        self.time += self.process.next_epoch_gap(self.n, &mut self.rng);
        Some(RequestEpoch {
            at: self.time,
            size: self.process.epoch_size(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rls_rng::rng_from_seed;

    #[test]
    fn rates_and_epochs() {
        let p = ArrivalProcess::Poisson { rate_per_bin: 2.0 };
        assert_eq!(p.total_rate(8), 16.0);
        assert_eq!(p.epoch_rate(8), 16.0);
        assert_eq!(p.epoch_size(), 1);

        let b = ArrivalProcess::Bursts {
            rate_per_bin: 2.0,
            size: 4,
        };
        assert_eq!(b.total_rate(8), 16.0);
        assert_eq!(b.epoch_rate(8), 4.0);
        assert_eq!(b.epoch_size(), 4);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            ArrivalProcess::Poisson { rate_per_bin: 1.0 }.name(),
            "poisson"
        );
        assert_eq!(
            ArrivalProcess::Bursts {
                rate_per_bin: 1.0,
                size: 2
            }
            .name(),
            "bursts"
        );
        assert_eq!(
            ArrivalProcess::Hotspot {
                rate_per_bin: 1.0,
                bias: 0.5
            }
            .name(),
            "hotspot"
        );
    }

    #[test]
    fn hotspot_biases_toward_bin_zero() {
        let hot = ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 0.8,
        };
        let mut rng = rng_from_seed(1);
        let n = 16;
        let hits = (0..10_000).filter(|_| hot.place(n, &mut rng) == 0).count();
        // 0.8 direct + 0.2/16 uniform ≈ 0.8125.
        assert!((hits as f64 / 10_000.0 - 0.8125).abs() < 0.02);
    }

    #[test]
    fn uniform_placement_covers_all_bins() {
        let p = ArrivalProcess::Poisson { rate_per_bin: 1.0 };
        let mut rng = rng_from_seed(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[p.place(8, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn place_among_a_dense_list_is_bit_identical_to_place() {
        let ids: Vec<u32> = (0..16).collect();
        for proc in [
            ArrivalProcess::Poisson { rate_per_bin: 1.0 },
            ArrivalProcess::Hotspot {
                rate_per_bin: 1.0,
                bias: 0.6,
            },
        ] {
            let mut a = rng_from_seed(77);
            let mut b = rng_from_seed(77);
            for _ in 0..2000 {
                assert_eq!(proc.place(16, &mut a), proc.place_among(&ids, &mut b));
            }
        }
    }

    #[test]
    fn place_among_respects_a_sparse_live_set() {
        let ids = [3u32, 9, 4];
        let hot = ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 0.7,
        };
        let mut rng = rng_from_seed(5);
        let mut hits = [0usize; 16];
        for _ in 0..3000 {
            hits[hot.place_among(&ids, &mut rng)] += 1;
        }
        assert_eq!(hits.iter().sum::<usize>(), 3000);
        assert!(
            hits[3] > hits[9] && hits[3] > hits[4],
            "ids[0] is the hotspot"
        );
        for (bin, &h) in hits.iter().enumerate() {
            if ![3usize, 9, 4].contains(&bin) {
                assert_eq!(h, 0, "bin {bin} is not live");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ArrivalProcess::Poisson { rate_per_bin: 1.0 }
            .validate()
            .is_ok());
        assert!(ArrivalProcess::Poisson { rate_per_bin: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson {
            rate_per_bin: f64::NAN
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Bursts {
            rate_per_bin: 1.0,
            size: 0
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 1.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn schedule_mean_rate_matches_the_law() {
        // Poisson at α = 2 over 8 bins: epochs at rate 16/unit.  10k epochs
        // should span ≈ 625 time units.
        let p = ArrivalProcess::Poisson { rate_per_bin: 2.0 };
        let epochs: Vec<_> = p.schedule(8, rng_from_seed(3)).take(10_000).collect();
        assert_eq!(epochs.len(), 10_000);
        assert!(epochs.windows(2).all(|w| w[0].at < w[1].at));
        assert!(epochs.iter().all(|e| e.size == 1));
        let span = epochs.last().unwrap().at;
        assert!((span - 625.0).abs() < 30.0, "span {span}");

        // Bursts keep the ball rate but thin the epochs by the burst size.
        let b = ArrivalProcess::Bursts {
            rate_per_bin: 2.0,
            size: 4,
        };
        let epochs: Vec<_> = b.schedule(8, rng_from_seed(4)).take(2_500).collect();
        assert!(epochs.iter().all(|e| e.size == 4));
        let span = epochs.last().unwrap().at;
        assert!((span - 625.0).abs() < 60.0, "span {span}");
    }

    #[test]
    fn serde_round_trip() {
        for p in [
            ArrivalProcess::Poisson { rate_per_bin: 2.5 },
            ArrivalProcess::Bursts {
                rate_per_bin: 1.0,
                size: 16,
            },
            ArrivalProcess::Hotspot {
                rate_per_bin: 0.5,
                bias: 0.25,
            },
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: ArrivalProcess = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }
}
