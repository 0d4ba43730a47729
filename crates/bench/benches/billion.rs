//! E20 — billion-ball scale: the load-indexed engine past the old `u32`
//! ball cap, and its events/sec against the historical Vec-sampled engine
//! at `m = 10⁷`.
//!
//! Two claims are measured:
//!
//! * **memory model** — `billion_*` constructs and steps an instance with
//!   `m = 2³² + 2¹² > u32::MAX` balls.  The pre-refactor engines stored a
//!   `balls: Vec<u32>` (4 bytes per ball ⇒ ≥ 16 GiB here, and a hard
//!   constructor error); the indexed engine holds `O(n)` state, so the
//!   instance costs a few hundred KiB and the bench runs at full speed.
//! * **throughput** — at `m = 10⁷` (comfortably inside the old cap)
//!   `index_*` must be no slower per event than `vec_*`, a verbatim
//!   replica of the old uniform-slot sampler.  The Vec engine does one
//!   `O(1)` lookup into 40 MB of slot memory, a cache miss at a random
//!   index.  The index over `n = 4096` bins is 32 KiB of leaf lines plus
//!   73 inner lines (about 37 KiB), so its 4-line descent stays in L1/L2
//!   and the index wins on locality.  The ball count does not change the
//!   index's size, so both `m` rows run at the same events/sec.
//!
//! Each iteration steps a fixed event count from the same worst-case
//! start, so wall time per iteration translates directly to events/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use rls_core::{Config, LoadTracker, Move, RlsRule};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, Rng64, RngExt};
use rls_sim::Simulation;

/// Events per bench iteration.
const EVENTS: u64 = 200_000;
const N: usize = 4096;
/// Past the old cap: 2³² + 4096 balls.
const M_BILLION: u64 = u32::MAX as u64 + 1 + N as u64;
/// Inside the old cap, for the head-to-head with the Vec sampler.
const M_TEN_MILLION: u64 = 10_000_000;

/// Verbatim replica of the pre-Fenwick superposition engine: uniform-slot
/// sampling over a `balls: Vec<u32>` map (O(m) memory, `u32::MAX` cap),
/// with the same per-event [`LoadTracker`] bookkeeping the real engine
/// always performed.  A tracker-less twin lives in
/// `crates/sim/tests/cross_validation.rs` for the KS law check — keep the
/// sampling logic of the two in sync.
struct VecEngine {
    cfg: Config,
    balls: Vec<u32>,
    tracker: LoadTracker,
    rule: RlsRule,
    time: f64,
    waiting_time: Exponential,
}

impl VecEngine {
    fn new(initial: Config, rule: RlsRule) -> Self {
        let mut balls = Vec::with_capacity(initial.m() as usize);
        for (bin, &load) in initial.loads().iter().enumerate() {
            for _ in 0..load {
                balls.push(bin as u32);
            }
        }
        let tracker = LoadTracker::new(&initial);
        let waiting_time = Exponential::new(initial.m() as f64).expect("m ≥ 1");
        Self {
            cfg: initial,
            balls,
            tracker,
            rule,
            time: 0.0,
            waiting_time,
        }
    }

    fn step<R: Rng64 + ?Sized>(&mut self, rng: &mut R) {
        self.time += self.waiting_time.sample(rng);
        let ball = rng.next_index(self.balls.len());
        let source = self.balls[ball] as usize;
        let dest = rng.next_index(self.cfg.n());
        if source != dest
            && self
                .rule
                .permits_loads(self.cfg.load(source), self.cfg.load(dest))
        {
            let (lf, lt) = (self.cfg.load(source), self.cfg.load(dest));
            self.cfg
                .apply(Move::new(source, dest))
                .expect("permitted move applies");
            self.tracker.record_move(lf, lt);
            self.balls[ball] = dest as u32;
        }
    }
}

fn worst_case(m: u64) -> Config {
    Config::all_in_one_bin(N, m).expect("bench instance is valid")
}

fn billion_ball_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("billion_ball_scale");
    group.sample_size(10);

    // O(n) memory: constructing + stepping 2³²⁺ balls, impossible for the
    // old Vec engine on any reasonable machine.  Construction (O(n)) stays
    // outside the timed loop in all three benches so the rows compare pure
    // per-event cost; iterations continue the same trajectory, which only
    // drives the instance closer to balance.
    group.bench_function(format!("billion_index_n{N}_m{M_BILLION}"), |b| {
        let mut sim =
            Simulation::new(worst_case(M_BILLION), RlsRule::paper()).expect("no ball cap");
        let mut rng = rng_from_seed(20);
        b.iter(|| {
            for _ in 0..EVENTS {
                sim.step(&mut rng);
            }
            sim.migrations()
        });
    });

    // Throughput at m = 10⁷: the index must be no slower per event than
    // the historical Vec sampler.
    group.bench_function(format!("index_n{N}_m{M_TEN_MILLION}"), |b| {
        let mut sim =
            Simulation::new(worst_case(M_TEN_MILLION), RlsRule::paper()).expect("valid instance");
        let mut rng = rng_from_seed(21);
        b.iter(|| {
            for _ in 0..EVENTS {
                sim.step(&mut rng);
            }
            sim.migrations()
        });
    });
    group.bench_function(format!("vec_n{N}_m{M_TEN_MILLION}"), |b| {
        let mut sim = VecEngine::new(worst_case(M_TEN_MILLION), RlsRule::paper());
        let mut rng = rng_from_seed(21);
        b.iter(|| {
            for _ in 0..EVENTS {
                sim.step(&mut rng);
            }
            sim.time
        });
    });

    group.finish();
}

criterion_group!(benches, billion_ball_scale);
criterion_main!(benches);
