//! Order statistics for the ledger: quantiles, median/IQR summaries and a
//! bounded latency recorder whose memory does not grow with throughput
//! (so `peak_rss_mib` measures the program, not the generator).

/// Linearly interpolated quantile (`q ∈ [0, 1]`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// How many of `count` samples lie strictly beyond the `q` quantile (a
/// percentile is reported only with at least ten beyond it).
pub fn beyond(count: u64, q: f64) -> u64 {
    // The epsilon absorbs `1.0 - 0.9 = 0.0999…`.
    ((count as f64) * (1.0 - q) + 1e-9).floor() as u64
}

/// Median, quartiles and sample count of a set of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            count: sorted.len(),
        }
    }
}

/// A bounded uniform sample of latencies (Algorithm R), remembering how
/// many values it has seen so that several recorders merge with the right
/// weights.
#[derive(Debug, Clone)]
pub struct Recorder {
    values: Vec<f64>,
    seen: u64,
    cap: usize,
    state: u64,
}

impl Recorder {
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            values: Vec::with_capacity(cap),
            seen: 0,
            cap,
            state: seed | 1,
        }
    }

    pub fn record(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(value);
            return;
        }
        // xorshift64: cheap, and only decides which sample to keep.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let slot = self.state % self.seen;
        if (slot as usize) < self.cap {
            self.values[slot as usize] = value;
        }
    }
}

/// Weighted quantiles over merged recorders: each kept value stands for
/// `seen / kept` of its recorder's observations.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    points: Vec<(f64, f64)>,
    total: u64,
}

impl Latencies {
    pub fn merge(recorders: &[&Recorder]) -> Self {
        let mut points = Vec::new();
        let mut total = 0;
        for r in recorders {
            if r.values.is_empty() {
                continue;
            }
            let weight = r.seen as f64 / r.values.len() as f64;
            points.extend(r.values.iter().map(|&v| (v, weight)));
            total += r.seen;
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { points, total }
    }

    /// Both samples together, each value keeping its weight.
    pub fn union(&self, other: &Latencies) -> Latencies {
        let mut points = self.points.clone();
        points.extend_from_slice(&other.points);
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        Latencies {
            points,
            total: self.total + other.total,
        }
    }

    /// Observations represented (not just the ones kept).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The smallest kept value whose cumulative weight reaches `q` of the
    /// total (the weighted nearest-rank quantile).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.points.is_empty(), "quantile of an empty sample");
        let mass: f64 = self.points.iter().map(|p| p.1).sum();
        let target = q.clamp(0.0, 1.0) * mass;
        let mut acc = 0.0;
        for &(value, weight) in &self.points {
            acc += weight;
            if acc >= target {
                return value;
            }
        }
        self.points[self.points.len() - 1].0
    }
}

/// Latencies split into fixed time windows, so that a percentile can be
/// reported as its median across windows: a stall that hits one window
/// moves that window's value, not the run's.
#[derive(Debug, Clone)]
pub struct Windowed {
    window_s: f64,
    recs: Vec<Recorder>,
}

impl Windowed {
    pub fn new(window_s: f64, windows: usize, cap: usize, seed: u64) -> Self {
        Self {
            window_s,
            recs: (0..windows)
                .map(|i| Recorder::new(cap, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
        }
    }

    /// Record `value` observed `at_s` seconds into the measurement; values
    /// past the last window are dropped.
    pub fn record(&mut self, at_s: f64, value: f64) {
        if at_s >= 0.0 {
            self.record_in((at_s / self.window_s) as usize, value);
        }
    }

    /// Record `value` in window `window` (dropped if out of range).
    pub fn record_in(&mut self, window: usize, value: f64) {
        if let Some(r) = self.recs.get_mut(window) {
            r.record(value);
        }
    }

    /// Every window of every part, merged.
    pub fn all(parts: &[&Windowed]) -> Latencies {
        let recs: Vec<&Recorder> = parts.iter().flat_map(|p| p.recs.iter()).collect();
        Latencies::merge(&recs)
    }

    /// The `q` quantile of each window (parts merged per window), keeping
    /// only windows with at least ten samples beyond it.
    pub fn per_window(parts: &[&Windowed], q: f64) -> Vec<f64> {
        let windows = parts.iter().map(|p| p.recs.len()).max().unwrap_or(0);
        (0..windows)
            .filter_map(|i| {
                let recs: Vec<&Recorder> = parts.iter().filter_map(|p| p.recs.get(i)).collect();
                let l = Latencies::merge(&recs);
                (beyond(l.count(), q) >= 10).then(|| l.quantile(q))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn summary_reports_median_and_iqr() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn recorder_keeps_everything_below_capacity() {
        let mut r = Recorder::new(100, 7);
        for i in 0..50 {
            r.record(i as f64);
        }
        let l = Latencies::merge(&[&r]);
        assert_eq!(l.count(), 50);
        assert_eq!(l.quantile(0.5), 24.0);
        assert_eq!(l.quantile(1.0), 49.0);
    }

    #[test]
    fn reservoir_quantiles_track_the_stream() {
        let mut r = Recorder::new(4096, 11);
        for i in 0..200_000u64 {
            r.record((i % 1000) as f64);
        }
        let l = Latencies::merge(&[&r]);
        assert_eq!(l.count(), 200_000);
        assert!((l.quantile(0.5) - 500.0).abs() < 40.0);
        assert!((l.quantile(0.99) - 990.0).abs() < 15.0);
    }

    #[test]
    fn windows_isolate_a_stall() {
        let mut w = Windowed::new(1.0, 5, 1000, 3);
        for i in 0..5000 {
            let at = i as f64 / 1000.0;
            // Window 2 stalls: every value in it is 100x slower.
            let v = if (2.0..3.0).contains(&at) { 100.0 } else { 1.0 };
            w.record(at, v);
        }
        w.record(7.5, 5.0); // beyond the last window: dropped
        let p99 = Windowed::per_window(&[&w], 0.99);
        assert_eq!(p99, vec![1.0, 1.0, 100.0, 1.0, 1.0]);
        assert_eq!(Windowed::all(&[&w]).count(), 5000);
        // A window with fewer than ten samples beyond its p99 is skipped.
        let mut sparse = Windowed::new(1.0, 1, 1000, 3);
        for _ in 0..999 {
            sparse.record(0.5, 1.0);
        }
        assert!(Windowed::per_window(&[&sparse], 0.99).is_empty());
    }

    #[test]
    fn merge_weights_recorders_by_what_they_saw() {
        // A recorder that saw 9x more traffic must dominate the median even
        // though both kept the same number of values.
        let mut fast = Recorder::new(100, 1);
        let mut slow = Recorder::new(100, 2);
        for _ in 0..900 {
            fast.record(1.0);
        }
        for _ in 0..100 {
            slow.record(100.0);
        }
        let l = Latencies::merge(&[&fast, &slow]);
        assert_eq!(l.count(), 1000);
        assert_eq!(l.quantile(0.5), 1.0);
        assert_eq!(l.quantile(0.95), 100.0);
    }
}
