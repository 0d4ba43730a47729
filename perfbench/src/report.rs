//! The metric catalogue (mirrored by `BENCHMARK.json`), the human-readable
//! ledger and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed on every untraced run.  Each workload maps
/// them onto its own unit of work (see `README.md` in this directory).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed on every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("campaign.expand_us", "us"),
    ("campaign.run_cell_s", "s"),
    ("campaign.overhead_s", "s"),
    ("sim.step_ns", "ns"),
    ("sim.migration_ratio", "ratio"),
    ("core.tracker.record_move_ns", "ns"),
    ("core.index.bin_at_ns", "ns"),
    ("core.index.depth_mean", "count"),
    ("core.index.record_move_ns", "ns"),
    ("rng.next_u64_ns", "ns"),
    ("rng.exp_sample_ns", "ns"),
    ("core.policy.decide_ns", "ns"),
    ("graph.sampler.sample_ns", "ns"),
    ("workloads.arrivals.place_ns", "ns"),
    ("live.ring_share", "ratio"),
    ("live.ring_move_ratio", "ratio"),
    ("live.residual_ns", "ns"),
    ("live.apply_batch_ns_per_cmd", "ns"),
    ("serve.http.parse_frame_ns", "ns"),
    ("serve.http.append_response_ns", "ns"),
    ("serde_json.write_ns.arrive", "ns"),
    ("serde_json.write_ns.depart", "ns"),
    ("serde_json.write_ns.stats", "ns"),
    ("serve.core.arrive_ns", "ns"),
    ("serve.core.depart_ns", "ns"),
    ("serve.core.stats_ns", "ns"),
    ("obs.tap_ns", "ns"),
    ("serve.server.healthz_rtt_us", "us"),
    ("serve.server.idle_wake_us", "us"),
    ("client.flush_us", "us"),
    ("client.wait_us", "us"),
    ("client.send_lag_p99_us", "us"),
    ("client.max_outstanding", "count"),
    ("serve.residual_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("reconcile.e2e_ns_per_op", "ns"),
    ("reconcile.layers_ns_per_op", "ns"),
    ("reconcile.residual_ns_per_op", "ns"),
    ("reconcile.residual_share", "ratio"),
];

/// Everything one run has to say.
#[derive(Debug, Default)]
pub struct Report {
    /// Values keyed by catalogue name.
    values: BTreeMap<&'static str, f64>,
    /// How each value was obtained (median/IQR/count, samples beyond a
    /// percentile, which workload quantity it stands for).
    details: BTreeMap<&'static str, String>,
    /// Free-form ledger lines (workload-specific figures).
    pub info: Vec<String>,
    /// Named correctness checks.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        self.values.insert(name, value);
        self.details.insert(name, detail.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Render the ledger followed by the JSON result line, restricted to the
    /// catalogue `expected`.  Returns the text and whether the run is
    /// correct (every check passed, every expected metric present and
    /// finite, and nothing failed).
    pub fn render(
        &self,
        expected: &[(&'static str, &'static str)],
        meta: &[(&str, String)],
    ) -> (String, bool) {
        let mut out = String::new();
        for (k, v) in meta {
            let _ = writeln!(out, "meta {k}: {v}");
        }
        for line in &self.info {
            let _ = writeln!(out, "info {line}");
        }
        let _ = writeln!(
            out,
            "info failed_fraction = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut correct = self.failed == 0 && self.attempted > 0;
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *ok { "PASS" } else { "FAIL" });
            correct &= ok;
        }
        let mut json = String::new();
        for (name, unit) in expected {
            let value = self.values.get(name).copied();
            let detail = self.details.get(name).map_or("", String::as_str);
            match value {
                Some(v) if v.is_finite() => {
                    let _ = writeln!(out, "metric {name} = {v} {unit}  [{detail}]");
                    if !json.is_empty() {
                        json.push_str(", ");
                    }
                    // `{:?}` prints the shortest string that reads back
                    // as the same f64: every digit as measured.
                    let _ = write!(
                        json,
                        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => {
                    let _ = writeln!(out, "check FAIL: metric {name} was not measured");
                    correct = false;
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
        (out, correct)
    }
}

/// `median m (IQR [q1, q3], n=count)` for a ledger detail.
pub fn describe(s: &crate::stats::Summary) -> String {
    format!(
        "median {:.6} IQR [{:.6}, {:.6}] n={}",
        s.median, s.q1, s.q3, s.count
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name `BENCHMARK.json` allows: a letter or digit first, then at most
    /// 63 more of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `v[key]` for the vendored `Value`, which has no `Index` impl.
    fn at<'v>(v: &'v serde_json::Value, key: &str) -> &'v serde_json::Value {
        v.as_object().and_then(|m| m.get(key)).expect(key)
    }

    #[test]
    fn names_fit_the_charset() {
        assert!(valid_name("open_p99_us.light"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            at(&doc, key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        at(m, "name").as_str().expect("name").to_string(),
                        at(m, "unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn render_fails_on_a_missing_metric_or_check() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("setup_s", 0.5, "");
        let (_, ok) = r.render(&[("setup_s", "s")], &[]);
        assert!(ok);
        let (text, ok) = r.render(&[("setup_s", "s"), ("ops_per_s", "1/s")], &[]);
        assert!(!ok);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
        r.check("something", false);
        assert!(!r.render(&[("setup_s", "s")], &[]).1);
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.123456789012345, "");
        let (text, _) = r.render(&[("setup_s", "s")], &[]);
        let last = text.lines().last().unwrap();
        let doc = serde_json::parse_value(last).unwrap();
        let value = at(at(at(&doc, "metrics"), "setup_s"), "value");
        assert_eq!(value.as_f64(), Some(0.123456789012345));
        assert_eq!(at(&doc, "attempted").as_u64(), Some(3));
    }
}
