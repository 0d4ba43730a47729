//! Event logs and bit-identical replay.
//!
//! A [`Recorder`] observer captures every event of a live run; together
//! with the initial load vector this forms an [`EventLog`] that fully
//! determines the trajectory — every random choice is resolved in the
//! events themselves, so [`replay`] re-executes the run *without any
//! random numbers* and must reproduce the final load vector and the
//! steady-state observer summary bit-identically.  The footer stores both
//! so replay doubles as an integrity check for archived runs.

// detlint: allow-file(D004) replay treats recorded f64 event times as
// opaque payload: they are carried verbatim and compared bit-for-bit; no
// new float randomness enters a replayed trajectory.

use rls_core::{Config, LoadState, LoadTracker, RebalancePolicy, RlsRule};
use rls_graph::Topology;
use serde::{Deserialize, Serialize};

use crate::event::{LiveEvent, LiveEventKind};
use crate::observer::{LiveObserver, SteadyState, SteadySummary};
use crate::LiveError;

/// Metadata at the head of a log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHeader {
    /// Number of bins.
    pub n: usize,
    /// The load vector the run started from.
    pub initial_loads: Vec<u64>,
    /// RLS rule in force (kept for logs recorded before the engine grew
    /// pluggable policies; superseded by [`policy`](Self::policy)).
    pub rule: RlsRule,
    /// Rebalance policy the run was recorded under (`None` in logs from
    /// older builds, which were always RLS — see [`rule`](Self::rule)).
    pub policy: Option<RebalancePolicy>,
    /// Topology the run was recorded on (`None` = complete graph).
    pub topology: Option<Topology>,
    /// Seed the (sparse) adjacency was drawn from, when `topology` is.
    pub graph_seed: Option<u64>,
    /// Warm-up used by the recorded steady-state observer.
    pub warmup: f64,
    /// Free-form description (arrival law, seed, …) for humans.
    pub description: String,
}

impl LogHeader {
    /// The policy in force when the log was recorded ([`policy`](Self::policy)
    /// when present, else the legacy [`rule`](Self::rule) as an RLS policy).
    pub fn effective_policy(&self) -> RebalancePolicy {
        self.policy.unwrap_or(self.rule.into())
    }

    /// The topology the log was recorded on (absent = complete graph).
    pub fn effective_topology(&self) -> Topology {
        self.topology.unwrap_or(Topology::Complete)
    }
}

/// Closing record of a log: what the recording run ended with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogFooter {
    /// Final simulation time.
    pub time: f64,
    /// Final load vector.
    pub final_loads: Vec<u64>,
    /// Steady-state summary the recording run computed.
    pub summary: SteadySummary,
}

/// A recorded live run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    /// Run metadata.
    pub header: LogHeader,
    /// Every event, in order.
    pub events: Vec<LiveEvent>,
    /// Final state and summary of the recording run.
    pub footer: LogFooter,
}

impl EventLog {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("event logs always encode")
    }

    /// Parse from JSON.
    pub fn from_json(text: &str) -> Result<Self, LiveError> {
        serde_json::from_str(text).map_err(|e| LiveError::log(format!("parse event log: {e}")))
    }
}

/// Observer that captures every event verbatim.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<LiveEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured events.
    pub fn events(&self) -> &[LiveEvent] {
        &self.events
    }

    /// Consume the recorder and return the events.
    pub fn into_events(self) -> Vec<LiveEvent> {
        self.events
    }
}

impl LiveObserver for Recorder {
    fn on_event(&mut self, event: &LiveEvent, _tracker: &LoadTracker) {
        self.events.push(event.clone());
    }
}

/// Result of a replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The load vector replay ended with.
    pub final_loads: Vec<u64>,
    /// The steady-state summary replay recomputed.
    pub summary: SteadySummary,
    /// Events applied.
    pub events: u64,
    /// Whether the final loads match the footer exactly.
    pub loads_match: bool,
    /// Whether the recomputed summary matches the footer bit-identically.
    pub summary_matches: bool,
}

impl ReplayReport {
    /// Whether replay reproduced the recorded run exactly.
    pub fn is_faithful(&self) -> bool {
        self.loads_match && self.summary_matches
    }
}

/// Re-execute a recorded run without randomness and check it against the
/// footer.  Errors mean the log is *structurally* invalid (events that
/// cannot be applied); a clean run with mismatching footer is reported via
/// the `*_match` flags instead.
pub fn replay(log: &EventLog) -> Result<ReplayReport, LiveError> {
    let cfg = Config::from_loads(log.header.initial_loads.clone())
        .map_err(|e| LiveError::log(format!("bad initial loads: {e}")))?;
    let mut state = LoadState::new(cfg);
    let mut observer = SteadyState::new(log.header.warmup);
    observer.on_start(state.tracker(), 0.0);

    let mut last_time = 0.0f64;
    for event in &log.events {
        if event.time < last_time {
            return Err(LiveError::log(format!(
                "event {} goes backwards in time",
                event.seq
            )));
        }
        last_time = event.time;
        apply(&mut state, event)
            .map_err(|e| LiveError::log(format!("event {}: {e}", event.seq)))?;
        observer.on_event(event, state.tracker());
    }

    let summary = observer.finish(log.footer.time);
    let final_loads = state.config().loads();
    let loads_match = final_loads == &log.footer.final_loads[..];
    let summary_matches = summary == log.footer.summary;
    Ok(ReplayReport {
        final_loads: final_loads.to_vec(),
        summary,
        events: log.events.len() as u64,
        loads_match,
        summary_matches,
    })
}

/// Apply one recorded event to the state.
fn apply(state: &mut LoadState, event: &LiveEvent) -> Result<(), Box<dyn std::error::Error>> {
    match &event.kind {
        LiveEventKind::Arrival { bins } => {
            for &bin in bins {
                state.insert(bin as usize, 1)?;
            }
        }
        LiveEventKind::Departure { bin } => {
            state.remove(*bin as usize, None)?;
        }
        LiveEventKind::Ring {
            source,
            dest,
            moved,
        } => {
            if *moved {
                state.move_ball(*source as usize, *dest as usize, None)?;
            }
        }
        // Scale events replay from their resolved records alone: the join
        // id and every donor/destination draw are in the event, so no
        // membership state or randomness is needed — just the moves.
        LiveEventKind::BinsJoined { joins } => {
            for join in joins {
                let bin = state.add_bin();
                if bin != join.bin as usize {
                    let want = join.bin;
                    return Err(
                        format!("join record allocates bin {want} but the next is {bin}").into(),
                    );
                }
                for &donor in &join.warm_from {
                    state.move_ball(donor as usize, bin, None)?;
                }
            }
        }
        // A drain relocates every resident ball, so retiring must find the
        // victim empty.
        LiveEventKind::BinsDrained { drains } => {
            for drain in drains {
                let victim = drain.bin as usize;
                for &dest in &drain.moved_to {
                    state.move_ball(victim, dest as usize, None)?;
                }
                state.retire_bin(victim)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LiveEngine, LiveParams};
    use rls_rng::rng_from_seed;
    use rls_workloads::ArrivalProcess;

    /// Record a run end-to-end and return the log.
    fn recorded_run(seed: u64, until: f64, warmup: f64) -> EventLog {
        let initial = Config::uniform(8, 8).unwrap();
        let params =
            LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 2.0 }, 8, 64).unwrap();
        let mut engine = LiveEngine::new(initial.clone(), params, RlsRule::paper()).unwrap();
        let mut observer = (Recorder::new(), SteadyState::new(warmup));
        engine.run_until(until, &mut rng_from_seed(seed), &mut observer);
        let (recorder, steady) = observer;
        EventLog {
            header: LogHeader {
                n: initial.n(),
                initial_loads: initial.loads().to_vec(),
                rule: RlsRule::paper(),
                policy: Some(RebalancePolicy::rls()),
                topology: Some(Topology::Complete),
                graph_seed: Some(0),
                warmup,
                description: format!("test run, seed {seed}"),
            },
            events: recorder.into_events(),
            footer: LogFooter {
                time: engine.time(),
                final_loads: engine.config().loads().to_vec(),
                summary: steady.finish(engine.time()),
            },
        }
    }

    #[test]
    fn replay_reproduces_the_run_bit_identically() {
        let log = recorded_run(21, 25.0, 5.0);
        assert!(!log.events.is_empty());
        let report = replay(&log).unwrap();
        assert!(report.loads_match, "final loads diverge");
        assert!(report.summary_matches, "summaries diverge");
        assert!(report.is_faithful());
        assert_eq!(report.events, log.events.len() as u64);
    }

    #[test]
    fn replay_survives_a_json_round_trip() {
        let log = recorded_run(22, 15.0, 3.0);
        let json = log.to_json();
        let back = EventLog::from_json(&json).unwrap();
        assert_eq!(log, back);
        let report = replay(&back).unwrap();
        assert!(report.is_faithful());
    }

    #[test]
    fn tampered_footer_is_detected() {
        let mut log = recorded_run(23, 10.0, 2.0);
        log.footer.final_loads[0] += 1;
        let report = replay(&log).unwrap();
        assert!(!report.loads_match);
        assert!(!report.is_faithful());
    }

    #[test]
    fn structurally_broken_logs_error() {
        let mut log = recorded_run(24, 5.0, 1.0);
        // A departure from an empty bin cannot be applied.
        log.events.insert(
            0,
            LiveEvent {
                seq: 0,
                time: 0.0,
                kind: LiveEventKind::Departure { bin: 200 },
            },
        );
        assert!(replay(&log).is_err());

        let mut backwards = recorded_run(25, 5.0, 1.0);
        if backwards.events.len() >= 2 {
            backwards.events[1].time = -1.0;
            assert!(replay(&backwards).is_err());
        }

        assert!(EventLog::from_json("not json").is_err());
    }

    #[test]
    fn impossible_moves_and_retirements_error_instead_of_panicking() {
        let ring = |source, dest| LiveEventKind::Ring {
            source,
            dest,
            moved: true,
        };
        let drain = |bin, moved_to: Vec<u32>| LiveEventKind::BinsDrained {
            drains: vec![crate::event::DrainRecord { bin, moved_to }],
        };
        for (loads, kind) in [
            (vec![8], ring(0, 0)),
            (vec![8], ring(0, 9)),
            (vec![0], drain(0, vec![])),
            (vec![8], drain(9, vec![])),
            (vec![0, 8], drain(1, vec![0; 7])),
            (vec![0, 8], drain(1, vec![1; 8])),
        ] {
            let mut log = recorded_run(26, 1.0, 0.0);
            log.header.initial_loads = loads;
            log.events = vec![LiveEvent {
                seq: 1,
                time: 0.5,
                kind,
            }];
            assert!(replay(&log).is_err(), "{:?}", log.events[0].kind);
        }
    }
}
