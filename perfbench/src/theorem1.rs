//! `theorem1`: the paper's experiment.  The Theorem-1 scaling grid
//! (`specs/theorem1_scaling.toml`: rls-geq on the complete graph, all balls
//! in one bin, run to perfect balance), widened to n = 4096 at m ∈ {n, 16n}
//! so both the n²/m and the ln n regimes of `O(ln n + n²/m)` appear, run
//! through `Campaign::run` on a fresh `MemoryStore` with one thread.

use std::time::Instant;

use rls_campaign::{
    cell_key, cell_seed, run_cell, spec_from_str, Campaign, CellRecord, MemoryStore, Store,
    ENGINE_VERSION,
};
use rls_core::{Config, RlsRule};
use rls_live::{LiveEngine, LiveParams};
use rls_workloads::ArrivalProcess;

use crate::layers;
use crate::report::{describe, Report};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::Run;

/// Trials per cell.  One pass costs about 30M activations, almost all in
/// the two n = 4096 cells; a trial's balancing time is heavy-tailed (its
/// coefficient of variation is about one half at m = n), which is why the
/// per-pass metrics are normalized per activation.
const TRIALS: usize = 1;

/// The widened grid, seeded by the run.
pub fn spec_text(seed: u64) -> String {
    format!(
        "name = \"theorem1-scaling-wide\"\n\
         seed = {seed}\n\
         trials = {TRIALS}\n\
         [grid]\n\
         n = [16, 64, 256, 1024, 4096]\n\
         m = [\"1x\", \"16x\"]\n\
         protocol = [\"rls-geq\"]\n\
         workload = [\"all-in-one-bin\"]\n\
         topology = [\"complete\"]\n\
         [stop]\n\
         target_discrepancy = 0.0\n"
    )
}

/// A small grid (n ≤ 64, the range of the seed spec), used to cost the
/// campaign layer on workloads where it should stay flat.
pub fn small_spec_text(seed: u64) -> String {
    spec_text(seed).replace("[16, 64, 256, 1024, 4096]", "[16, 32, 64]")
}

/// Parse and expand a spec: the campaign layer's set-up.
pub fn expand(text: &str) -> Result<(Campaign, usize), String> {
    let campaign = Campaign::new(spec_from_str(text).map_err(|e| e.to_string())?);
    let cells = campaign.cells().map_err(|e| e.to_string())?.len();
    Ok((campaign, cells))
}

/// Seconds per expansion in each of `batches` batches of 100 (one
/// expansion takes microseconds, too little to time alone).
pub fn expand_seconds(text: &str, batches: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(expand(text)?);
        }
        times.push(t.elapsed().as_secs_f64() / 100.0);
    }
    Ok(times)
}

/// One pass over the grid.
pub struct Pass {
    pub wall_s: f64,
    pub activations: f64,
    pub migrations: f64,
    pub trials: u64,
    pub unbalanced: u64,
    pub report: rls_campaign::CampaignReport,
}

pub fn pass(campaign: &Campaign) -> Result<Pass, String> {
    let store = MemoryStore::new();
    let t = Instant::now();
    let report = campaign.run(&store, 1).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let mut p = Pass {
        wall_s,
        activations: 0.0,
        migrations: 0.0,
        trials: 0,
        unbalanced: 0,
        report,
    };
    for o in &p.report.outcomes {
        let r = &o.result;
        let trials = r.activations.count as u64;
        p.activations += (r.activations.mean * trials as f64).round();
        p.migrations += (r.migrations.mean * trials as f64).round();
        p.trials += trials;
        // A trial that stopped short of perfect balance lowers the goal rate.
        p.unbalanced += ((1.0 - r.goal_rate) * trials as f64).round() as u64;
        if r.final_discrepancy.max != 0.0 {
            p.unbalanced = p.unbalanced.max(1);
        }
    }
    Ok(p)
}

/// The campaign layer in a traced pass: the whole `Campaign::run` under one
/// span, then every cell again through `run_cell` in isolation (same
/// derived seeds, so the results must match) under one span each.
/// Returns the traced pass.
pub fn campaign_layers(
    campaign: &Campaign,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let run_id = tracer.id();
    let start = tracer.now_ns();
    let traced = pass(campaign)?;
    tracer.record(run_id, 0, "campaign.run", start, tracer.now_ns());

    let iso_id = tracer.id();
    let iso_start = tracer.now_ns();
    let mut cell_s = 0.0;
    let mut identical = true;
    for outcome in &traced.report.outcomes {
        let cell_id = tracer.id();
        let s = tracer.now_ns();
        let t = Instant::now();
        let result = run_cell(
            &outcome.cell,
            cell_seed(campaign.spec().seed, &outcome.cell),
        )
        .map_err(|e| e.to_string())?;
        cell_s += t.elapsed().as_secs_f64();
        tracer.record(cell_id, iso_id, "campaign.run_cell", s, tracer.now_ns());
        identical &= result == outcome.result;
    }
    tracer.record(
        iso_id,
        0,
        "campaign.cells_isolated",
        iso_start,
        tracer.now_ns(),
    );
    report.check(
        "run_cell in isolation reproduces every Campaign::run cell result",
        identical,
    );
    report.set(
        "campaign.run_cell_s",
        cell_s,
        format!(
            "sum of run_cell over {} cells",
            traced.report.outcomes.len()
        ),
    );

    // The campaign's own work besides run_cell, timed directly (the wall
    // difference above is dominated by run-to-run noise): a keyed put per
    // cell into a fresh store, then a run over that store with every cell
    // cached (key hashing, reads, report assembly).
    let seed = campaign.spec().seed;
    let store = MemoryStore::new();
    let t = Instant::now();
    for o in &traced.report.outcomes {
        store
            .put(&CellRecord {
                key: cell_key(seed, &o.cell),
                version: ENGINE_VERSION,
                campaign_seed: seed,
                cell: o.cell.clone(),
                cell_seed: o.seed,
                result: o.result.clone(),
            })
            .map_err(|e| e.to_string())?;
    }
    let cached = campaign.run(&store, 1).map_err(|e| e.to_string())?;
    let overhead = t.elapsed().as_secs_f64();
    report.check(
        "a run over the filled store executes nothing and returns the same results",
        cached.executed == 0
            && cached
                .outcomes
                .iter()
                .zip(&traced.report.outcomes)
                .all(|(a, b)| a.result == b.result),
    );
    report.set(
        "campaign.overhead_s",
        overhead,
        format!(
            "keyed puts + a fully cached Campaign::run; Campaign::run wall minus the run_cell sum was {:.6} s",
            traced.wall_s - cell_s
        ),
    );
    Ok(traced)
}

/// The campaign layer on the small grid, for workloads where it should
/// stay flat.
pub fn small_campaign_layers(
    run: &Run,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let text = small_spec_text(run.derive("theorem1.small"));
    let setup = Summary::of(&expand_seconds(&text, 21)?);
    report.set("campaign.expand_us", setup.median * 1e6, describe(&setup));
    let (campaign, _) = expand(&text)?;
    campaign_layers(&campaign, report, tracer)?;
    Ok(())
}

pub fn run(run: &Run, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let text = spec_text(run.derive("theorem1.campaign"));
    // Set-up is timed at the start and again after every pass, so its
    // median spans the whole run rather than its first milliseconds.
    let mut setup_samples = expand_seconds(&text, 21)?;
    let (campaign, cells) = expand(&text)?;
    report.info(format!(
        "grid: {cells} cells x {TRIALS} trials, seed {}",
        run.seed
    ));
    let started = Instant::now();

    // Untraced passes: at least two (the activation total must repeat),
    // then more while the next one still fits the budget.
    let budget = if run.trace { 0.0 } else { run.seconds };
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass(&campaign)?);
        setup_samples.extend(expand_seconds(&text, 7)?);
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        let enough = passes.len() >= if run.trace { 1 } else { 2 };
        if enough && started.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
    for p in &passes {
        report.attempted += p.trials;
        report.failed += p.unbalanced;
    }
    report.check(
        "every trial of every pass reached perfect balance",
        passes.iter().all(|p| p.unbalanced == 0),
    );
    report.check(
        "activation and migration totals repeat exactly across passes",
        passes.iter().all(|p| {
            p.activations.to_bits() == passes[0].activations.to_bits()
                && p.migrations.to_bits() == passes[0].migrations.to_bits()
        }),
    );
    report.info(format!(
        "activations per pass: {} (migrations {})",
        passes[0].activations, passes[0].migrations
    ));

    let setup = Summary::of(&setup_samples);
    let rates: Vec<f64> = passes.iter().map(|p| p.activations / p.wall_s).collect();
    let rate = Summary::of(&rates);
    if !run.trace {
        report.set(
            "setup_s",
            setup.median,
            format!("spec parse + grid expansion; {}", describe(&setup)),
        );
        report.set(
            "ops_per_s",
            rate.median,
            format!(
                "sim_activations_per_s over Campaign::run passes; {}",
                describe(&rate)
            ),
        );
        // A pass's wall time follows its seed's balancing times (heavy
        // tailed), so the latency is one activation's share of a pass.
        let per_activation: Vec<f64> = passes
            .iter()
            .map(|p| p.wall_s * 1e6 / p.activations)
            .collect();
        let latency = Summary::of(&per_activation);
        report.set(
            "latency_p50_us",
            latency.median,
            format!(
                "one activation: pass wall / pass activations; {} (pass walls {:?} s)",
                describe(&latency),
                passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()
            ),
        );
        return Ok(());
    }

    // Traced run: campaign layer, then the leaf layers on this workload's
    // own state (the largest cell, run from all-in-one-bin to balance).
    report.set("campaign.expand_us", setup.median * 1e6, describe(&setup));
    let untraced = &passes[0];
    let traced = campaign_layers(&campaign, report, tracer)?;
    report.set(
        "trace.overhead_ratio",
        traced.wall_s / untraced.wall_s,
        "traced pass wall / untraced pass wall",
    );
    let migration_ratio = untraced.migrations / untraced.activations;

    let largest = Config::all_in_one_bin(4096, 16 * 4096).map_err(|e| e.to_string())?;
    let probe = layers::sim_layers(largest, true, u64::MAX, run, report)?;
    report.set(
        "sim.migration_ratio",
        migration_ratio,
        "migrations / activations over the whole grid (exact)",
    );
    let (n, m) = (probe.final_config.n(), probe.final_config.m());
    let params = LiveParams::balanced(ArrivalProcess::Poisson { rate_per_bin: 1.0 }, n, m)
        .map_err(|e| e.to_string())?;
    let engine = LiveEngine::new(probe.final_config.clone(), params, RlsRule::paper())
        .map_err(|e| e.to_string())?;
    layers::engine_layers(&engine, run, report)?;
    layers::serve_side_layers(run, report, tracer)?;

    // Reconciliation per activation: the step's leaf calls (holding time,
    // two uniform draws, one Fenwick descent; on a migration the tracker
    // and index updates) plus the campaign's own overhead.
    let get = |k: &str| report.get(k).unwrap_or(f64::NAN);
    let e2e = untraced.wall_s * 1e9 / untraced.activations;
    let layers_ns = get("rng.exp_sample_ns")
        + 2.0 * get("rng.next_u64_ns")
        + get("core.index.bin_at_ns")
        + migration_ratio * (get("core.tracker.record_move_ns") + get("core.index.record_move_ns"))
        + get("campaign.overhead_s") * 1e9 / untraced.activations;
    layers::reconcile(report, "activation", e2e, layers_ns);
    report.info(format!(
        "sim.step_ns measured on n=4096 m=65536 from all-in-one-bin to balance: {:.3} ns over {} steps",
        probe.step_ns, probe.steps
    ));
    Ok(())
}
