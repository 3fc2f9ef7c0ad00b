//! The two sweep workloads.
//!
//! `design_space`: each query is one cold design question — a fresh
//! single-worker [`SweepEngine`] runs a seeded slice of the paper, deep
//! and batch grids for one model on the affine link without faults,
//! then [`advisor::advise`] searches the design space of that model, and
//! both answers are serialized to CSV. The steady-state engine and the
//! compile caches do the work.
//!
//! `contended_sweep`: queries of the same shape (without the advisor)
//! in which every scenario has a link regime that is not contention-free
//! or a fault plan, so every point runs the full event-driven
//! simulation.
//!
//! The engine runs one worker thread: with two, peak memory depended on
//! which expensive scenarios happened to run at the same time, and
//! varied by a quarter from run to run.

use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::{Counters, Rng, Strata, Workload};
use mtp_core::schedule::CompiledSchedule;
use mtp_core::{FailPolicy, PartitionSpec, SystemReport};
use mtp_harness::advisor::{self, Advice, Constraints, DesignSpace};
use mtp_harness::sweep::{
    CostSourceKind, ModelPreset, PlacementPolicy, Scenario, ScheduleKey, Span, SweepEngine,
    SweepGrid, SweepResults, SweepRow, TopologySpec, CSV_HEADER,
};
use mtp_model::InferenceMode;
use mtp_sim::{
    FaultEvent, FaultPlan, Instr, LinkRegime, Machine, MsgId, Program, WarmupCheckpoint,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Largest chip count of the design grids.
const MAX_CHIPS: usize = 64;

/// Rows per sampled query checked against full simulation.
const FULL_SIM_ROWS: usize = 2;

/// Full-simulation oracle rows are drawn among rows of at most this
/// many block instances, which bounds the oracle's cost.
const FULL_SIM_MAX_BLOCKS: usize = 96;

/// Traced queries whose simulated link and fault counters are summed
/// (a fixed query set, so the sums depend on the seed alone).
pub const COUNTED_QUERIES: u64 = 8;

/// Which of the two sweep workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Affine, fault-free grids plus the advisor.
    DesignSpace,
    /// Contended link regimes and fault plans.
    Contended,
}

/// One query's inputs.
#[derive(Debug, Clone)]
pub struct SweepQuery {
    id: u64,
    scenarios: Vec<Scenario>,
    advise: Option<AdviseSpec>,
}

/// The advisor half of a design query.
#[derive(Debug, Clone)]
struct AdviseSpec {
    preset: ModelPreset,
    mode: InferenceMode,
    space: DesignSpace,
    /// Latency limit as a multiple of the fastest paper-default point
    /// the query's own sweep found for this model.
    slack: f64,
}

/// One query's answer.
#[derive(Debug)]
pub struct SweepOutput {
    results: SweepResults,
    advice: Option<(Advice, Constraints)>,
    digest: u64,
}

/// A sweep workload.
#[derive(Debug)]
pub struct SweepWorkload {
    kind: Kind,
    seed: u64,
}

impl SweepWorkload {
    /// The workload for `seed`.
    #[must_use]
    pub fn new(kind: Kind, seed: u64) -> Self {
        SweepWorkload { kind, seed }
    }
}

fn encoder(preset: ModelPreset) -> bool {
    matches!(preset, ModelPreset::MobileBert | ModelPreset::MobileBertDeep(_))
}

/// Model/mode pairs for a preset: decoders in the modes the query drew
/// (`0`: autoregressive, `1`: prompt, `2`: both), encoders in prompt mode
/// only.
fn modes_of(preset: ModelPreset, draw: u8) -> Vec<InferenceMode> {
    let (ar, pr) = (InferenceMode::Autoregressive, InferenceMode::Prompt);
    match draw {
        _ if encoder(preset) => vec![pr],
        0 => vec![ar],
        1 => vec![pr],
        _ => vec![ar, pr],
    }
}

/// Every distinct (preset, mode draw) pair of `models`: three mode draws
/// for a decoder, one for an encoder.
fn model_modes(models: &[ModelPreset]) -> Vec<(ModelPreset, u8)> {
    let mut out = Vec::new();
    for &p in models {
        let draws: &[u8] = if encoder(p) { &[1] } else { &[0, 1, 2] };
        out.extend(draws.iter().map(|&m| (p, m)));
    }
    out
}

fn design_query(seed: u64, id: u64) -> SweepQuery {
    const MODELS: [ModelPreset; 10] = [
        ModelPreset::TinyLlama,
        ModelPreset::TinyLlamaScaled64h,
        ModelPreset::TinyLlamaGqa(2),
        ModelPreset::TinyLlamaGqa(4),
        ModelPreset::TinyLlamaDeep(32),
        ModelPreset::TinyLlamaDeep(96),
        ModelPreset::TinyLlamaDeep(192),
        ModelPreset::MobileBert,
        ModelPreset::MobileBertDeep(48),
        ModelPreset::MobileBertDeep(96),
    ];
    const BATCHES: [&[usize]; 4] = [&[1], &[1, 4], &[1, 16], &[1, 4, 16]];
    // What sets a query's cost — the model and its modes, the batch
    // sizes, and whether the slowest link setting (where some
    // steady-state proofs fail) is in — is one joint draw, so every run
    // holds the same share of each combination; the rest are balanced
    // draws of their own. Every chip count and both topologies are in
    // every query.
    let mut joint = Vec::new();
    for mm in model_modes(&MODELS) {
        for batches in BATCHES {
            joint.extend([(mm, batches, false), (mm, batches, true)]);
        }
    }
    let mut draw = Strata::new(seed, id);
    let ((preset, m), batches, slow_link) = draw.pick(&joint);
    let workloads: Vec<_> =
        modes_of(preset, m).into_iter().map(|mode| (preset.config(mode), mode)).collect();
    let mode = workloads[0].1;
    let placements = draw.pick(&[
        vec![PlacementPolicy::Auto],
        vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
    ]);
    let mut bws = if slow_link { vec![10] } else { Vec::new() };
    bws.extend([draw.pick(&[25, 40, 50, 75]), 100]);
    let grid = SweepGrid::new(workloads, vec![1, 2, 4, 8, 16, 32, 64])
        .with_span(Span::Model)
        .with_topologies(vec![TopologySpec::PaperDefault, TopologySpec::Flat])
        .with_placements(placements)
        .with_link_bw_pcts(bws.clone())
        .with_batch_sizes(batches.to_vec());

    let k = draw.pick(&[3, 4, 5, 6, 7]);
    let mut rng = Rng::new(seed, id);
    let mut ladder = rng.subset(&[10, 20, 30, 40, 50, 60, 70, 80, 90], k);
    ladder.extend(bws);
    let advise = AdviseSpec {
        preset,
        mode,
        space: DesignSpace {
            topologies: vec![TopologySpec::PaperDefault, TopologySpec::Flat],
            placements: vec![PlacementPolicy::Auto, PlacementPolicy::ForceStreamed],
            chip_counts: advisor::valid_chip_counts(&preset.config(mode), MAX_CHIPS),
            link_bw_pcts: ladder,
        },
        slack: 1.0 + rng.below(200) as f64 / 100.0,
    };
    SweepQuery { id, scenarios: grid.scenarios(), advise: Some(advise) }
}

/// Ingress buffer that holds every message a reducing chip can receive
/// at once (up to seven senders under the flat topology on 8 chips),
/// times `mult`: large enough that no credit deadlock can occur, small
/// enough to be finite.
fn fan_in_buffer(preset: ModelPreset, mode: InferenceMode, mult: u64) -> u64 {
    let cfg = preset.config(mode);
    let tokens = match mode {
        InferenceMode::Autoregressive => 1,
        InferenceMode::Prompt => cfg.seq_len,
    };
    (8 * tokens * cfg.embed_dim) as u64 * mult
}

fn contended_query(seed: u64, id: u64) -> SweepQuery {
    const MODELS: [ModelPreset; 5] = [
        ModelPreset::TinyLlama,
        ModelPreset::TinyLlamaScaled64h,
        ModelPreset::TinyLlamaGqa(2),
        ModelPreset::TinyLlamaGqa(4),
        ModelPreset::MobileBert,
    ];
    // One joint draw over the model and its modes, the batch sizes and
    // the topologies, as in `design_query`; every query covers the same
    // chip counts.
    let mut joint = Vec::new();
    for mm in model_modes(&MODELS) {
        for batches in [vec![1], vec![1, 4]] {
            for topologies in [
                vec![TopologySpec::PaperDefault],
                vec![TopologySpec::PaperDefault, TopologySpec::Flat],
            ] {
                joint.push((mm, batches.clone(), topologies));
            }
        }
    }
    let mut draw = Strata::new(seed, id);
    let ((p, m), batches, topologies) = draw.pick(&joint);
    let bws = draw.pick(&[vec![50], vec![100], vec![50, 100]]);
    let chips = vec![2, 4, 8];
    // The link and fault settings are balanced draws too, shared by both
    // modes.
    let mult = draw.pick(&[1, 2]);
    let drop_per_mille = draw.pick(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
    let regime_set: u8 = draw.pick(&[1, 2, 3, 4, 5, 6, 7]);
    let fault_count = draw.pick(&[1, 2, 3, 4, 5, 6]);
    let horizon = 1_000_000 * draw.pick(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut rng = Rng::new(seed, id);
    let plans = vec![
        FaultPlan::seeded(rng.next_u64() % 1000, fault_count, horizon),
        FaultPlan::explicit(vec![FaultEvent::FailStop {
            chip: rng.below(2),
            at: rng.next_u64() % horizon,
        }]),
    ];
    let mut scenarios = Vec::new();
    for mode in modes_of(p, m) {
        let cfg = p.config(mode);
        let buffer = fan_in_buffer(p, mode, mult);
        let all = [
            LinkRegime::parse(&format!("queued:{buffer}")).expect("a positive buffer parses"),
            LinkRegime::parse(&format!("droptail:{buffer}")).expect("a positive buffer parses"),
            LinkRegime::Lossy { drop_per_mille, nack_cycles: LinkRegime::DEFAULT_NACK_CYCLES },
        ];
        let regimes: Vec<LinkRegime> =
            (0..all.len()).filter(|i| regime_set & (1 << i) != 0).map(|i| all[i]).collect();
        // Contended links without faults.
        let link = SweepGrid::single(cfg.clone(), mode, chips.clone())
            .with_span(Span::Model)
            .with_topologies(topologies.clone())
            .with_link_bw_pcts(bws.clone())
            .with_link_regimes(regimes)
            .with_batch_sizes(batches.clone());
        scenarios.extend(link.scenarios());
        // Affine links with seeded stall/slow/flap plans and one
        // fail-stop replayed on a spare chip.
        let faults = SweepGrid::single(cfg, mode, chips.clone())
            .with_span(Span::Model)
            .with_topologies(topologies.clone())
            .with_link_bw_pcts(bws.clone())
            .with_batch_sizes(batches.clone())
            .with_fault_plans(plans.clone())
            .with_fail_policy(FailPolicy::SpareChip);
        scenarios.extend(faults.scenarios());
    }
    SweepQuery { id, scenarios, advise: None }
}

impl AdviseSpec {
    /// The question's constraint: a latency limit of `slack` times the
    /// fastest paper-default (hierarchical, automatic placement, full
    /// bandwidth, single-request) point the sweep found for the advised
    /// model, so a feasible point always exists.
    fn constraints(&self, results: &SweepResults) -> Result<Constraints, String> {
        let cfg = self.preset.config(self.mode);
        let fastest = results
            .rows
            .iter()
            .filter(|r| {
                let s = &r.scenario;
                s.config == cfg
                    && s.mode == self.mode
                    && s.batch == 1
                    && s.link_bw_pct == 100
                    && s.topology == TopologySpec::PaperDefault
                    && s.placement == PlacementPolicy::Auto
            })
            .map(|r| r.report.runtime_ms())
            .min_by(f64::total_cmp)
            .ok_or("the sweep has no paper-default row for the advised model")?;
        Ok(Constraints { max_latency_ms: Some(fastest * self.slack), max_energy_mj: None })
    }

    fn advise(&self, constraints: Constraints) -> Result<Advice, String> {
        advisor::advise(&self.preset.config(self.mode), self.mode, constraints, &self.space)
            .map_err(|e| e.to_string())
    }
}

fn digest(results: &SweepResults, advice: Option<&(Advice, Constraints)>) -> u64 {
    let mut h = Fnv::default();
    h.write(results.to_csv().as_bytes());
    h.line(&results.skipped.len().to_string());
    if let Some((a, _)) = advice {
        h.write(a.to_csv().as_bytes());
    }
    h.finish()
}

/// Concatenates a template `n_blocks` times with fresh message and sync
/// ids per block (stride = largest template id + 1): the program full
/// simulation runs, which the periodic and symbolic engines must match.
fn concat_shifted(template: &[Program], n_blocks: usize) -> Vec<Program> {
    let (mut msg_stride, mut sync_stride) = (0u64, 0u32);
    for p in template {
        for i in p.instrs() {
            match *i {
                Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                    msg_stride = msg_stride.max(msg.0 + 1);
                }
                Instr::Sync(id) => sync_stride = sync_stride.max(id + 1),
                _ => {}
            }
        }
    }
    let mut out = vec![Program::new(); template.len()];
    for block in 0..n_blocks as u64 {
        let (dm, ds) = (block * msg_stride, block as u32 * sync_stride);
        for (o, t) in out.iter_mut().zip(template) {
            o.extend(t.instrs().iter().map(|&instr| match instr {
                Instr::Send { to, msg, bytes } => Instr::Send { to, msg: MsgId(msg.0 + dm), bytes },
                Instr::Recv { from, msg } => Instr::Recv { from, msg: MsgId(msg.0 + dm) },
                Instr::Sync(id) => Instr::Sync(id + ds),
                other => other,
            }));
        }
    }
    out
}

/// Scenarios that give identical reports (the sweep engine's
/// simulation dedup key).
type SimKey = (ScheduleKey, u32, usize, LinkRegime, FaultPlan, FailPolicy);

/// Depth variants that may share one warmup (the sweep engine's warm
/// group key).
type WarmKey = (ScheduleKey, u32, LinkRegime);

impl Workload for SweepWorkload {
    type Query = SweepQuery;
    type Output = SweepOutput;

    fn prepare(&mut self, q: u64) -> SweepQuery {
        match self.kind {
            Kind::DesignSpace => design_query(self.seed, q),
            Kind::Contended => contended_query(self.seed, q),
        }
    }

    fn run(&mut self, query: &SweepQuery) -> Result<SweepOutput, String> {
        let results = SweepEngine::serial().run_scenarios(&query.scenarios);
        let advice = match &query.advise {
            None => None,
            Some(spec) => {
                let constraints = spec.constraints(&results)?;
                Some((spec.advise(constraints)?, constraints))
            }
        };
        let digest = digest(&results, advice.as_ref());
        Ok(SweepOutput { results, advice, digest })
    }

    fn run_traced(
        &mut self,
        query: &SweepQuery,
        t: &mut Tracer,
        c: &mut Counters,
    ) -> Result<SweepOutput, String> {
        // The calls a fresh `SweepEngine::run_scenarios` makes: the
        // schedule key of every point, one compile per new key, then per
        // distinct simulation the exact faulted executor; or, for a group
        // of two or more depths sharing a template and link setting, one
        // `warmup` per group and `simulate_from` per member; or else
        // `simulate` (the periodic engine, which runs the event loop in
        // full on contended links and on four blocks or fewer).
        let keys: Vec<Option<ScheduleKey>> = query
            .scenarios
            .iter()
            .map(|s| t.time("harness.sweep.schedule_key", || s.schedule_key().ok()))
            .collect();
        let mut group_sims: HashMap<WarmKey, HashSet<(usize, FailPolicy)>> = HashMap::new();
        for (s, key) in query.scenarios.iter().zip(&keys) {
            if let Some(key) = key {
                if s.faults.is_empty() && s.cost_source == CostSourceKind::Analytic {
                    group_sims
                        .entry((key.clone(), s.link_bw_pct, s.link_regime))
                        .or_default()
                        .insert((s.n_blocks(), s.fail_policy));
                }
            }
        }
        let mut schedules: HashMap<ScheduleKey, Arc<CompiledSchedule>> = HashMap::new();
        let mut warmups: HashMap<WarmKey, Option<WarmupCheckpoint>> = HashMap::new();
        let mut sims: HashMap<SimKey, Arc<SystemReport>> = HashMap::new();
        let mut rows = Vec::new();
        let mut skipped = 0usize;
        for (s, key) in query.scenarios.iter().zip(keys) {
            let Some(key) = key else {
                skipped += 1;
                continue;
            };
            let compiled = match schedules.get(&key) {
                Some(c) => Arc::clone(c),
                None => {
                    let compiled = t
                        .time("core.schedule.compile", || s.compile_schedule())
                        .map_err(|e| e.to_string())?;
                    let compiled = Arc::new(compiled);
                    schedules.insert(key.clone(), Arc::clone(&compiled));
                    compiled
                }
            };
            let sim_key: SimKey = (
                key.clone(),
                s.link_bw_pct,
                s.n_blocks(),
                s.link_regime,
                s.faults.clone(),
                s.fail_policy,
            );
            if let Some(report) = sims.get(&sim_key) {
                rows.push(SweepRow { scenario: s.clone(), report: Arc::clone(report) });
                continue;
            }
            let (chip, n) = (s.chip(), s.n_blocks());
            let warm_key: WarmKey = (key, s.link_bw_pct, s.link_regime);
            let warm = group_sims.get(&warm_key).is_some_and(|g| g.len() >= 2)
                && n > 4
                && s.link_regime.contention_free()
                && s.faults.is_empty()
                && s.cost_source == CostSourceKind::Analytic;
            let instrs =
                || (compiled.template().iter().map(Program::len).sum::<usize>() * n) as f64;
            let report = if !s.faults.is_empty() {
                c.add("sim.exec.instrs", instrs());
                t.time("sim.exec.run", || {
                    compiled.simulate_faulted(&chip, n, &s.faults, s.fail_policy)
                })
            } else if warm {
                let ckpt = warmups.entry(warm_key).or_insert_with(|| {
                    let ckpt = t.time("sim.steady.derive", || compiled.warmup(&chip)).ok();
                    let proven = ckpt.as_ref().is_some_and(WarmupCheckpoint::converged);
                    c.add("sim.steady.proven", f64::from(u8::from(proven)));
                    ckpt
                });
                match ckpt {
                    Some(ckpt) if ckpt.converged() => {
                        t.time("sim.steady.eval", || compiled.simulate_from(&chip, n, ckpt))
                    }
                    // An unproven checkpoint resumes through the periodic
                    // engine from the start.
                    Some(ckpt) => {
                        t.time("sim.steady.fallback", || compiled.simulate_from(&chip, n, ckpt))
                    }
                    None => t.time("sim.periodic.run", || compiled.simulate(&chip, n)),
                }
            } else if n <= 4 || !s.link_regime.contention_free() {
                c.add("sim.exec.instrs", instrs());
                t.time("sim.exec.run", || compiled.simulate(&chip, n))
            } else {
                t.time("sim.periodic.run", || compiled.simulate(&chip, n))
            };
            let report = Arc::new(report.map_err(|e| e.to_string())?);
            sims.insert(sim_key, Arc::clone(&report));
            rows.push(SweepRow { scenario: s.clone(), report });
        }

        let mut h = Fnv::default();
        h.line(CSV_HEADER);
        for row in &rows {
            let line = t.time("harness.sweep.serialize", || row.to_csv_line());
            h.line(&line);
        }
        h.line(&skipped.to_string());
        let results = SweepResults {
            rows,
            skipped: Vec::new(),
            cache_hits: 0,
            unique_simulated: sims.len(),
            elapsed: std::time::Duration::ZERO,
        };
        let advice = match &query.advise {
            None => None,
            Some(spec) => {
                let constraints = spec.constraints(&results)?;
                let advice = t.time("harness.advisor.advise", || spec.advise(constraints))?;
                c.add("harness.advisor.compiled", advice.compiled as f64);
                c.add("harness.advisor.warmups", advice.warmups as f64);
                let csv = t.time("harness.advisor.serialize", || advice.to_csv());
                h.write(csv.as_bytes());
                Some((advice, constraints))
            }
        };
        Ok(SweepOutput { results, advice, digest: h.finish() })
    }

    fn tally(&self, query: &SweepQuery, out: &SweepOutput, _t: &mut Tracer, c: &mut Counters) {
        c.add("harness.sweep.scenarios", out.results.rows.len() as f64);
        if query.id < COUNTED_QUERIES {
            for row in &out.results.rows {
                let stats = &row.report.stats;
                c.add("link.queue_cycles", stats.total_queueing_cycles() as f64);
                c.add("link.drops", stats.total_drops() as f64);
                c.add("link.retransmits", stats.total_retransmits() as f64);
                c.add("sim.fault.downtime_cycles", stats.total_downtime_cycles() as f64);
            }
        }
    }

    fn items(&self, out: &SweepOutput) -> u64 {
        out.results.rows.len() as u64
    }

    fn digest(&self, out: &SweepOutput) -> u64 {
        out.digest
    }

    fn check(&mut self, _query: &SweepQuery, out: &SweepOutput) -> Result<(), String> {
        // The only expected skips are chip counts the model cannot be
        // partitioned over.
        for s in &out.results.skipped {
            let sc = &s.scenario;
            if PartitionSpec::new(&sc.config, sc.n_chips).is_ok() {
                return Err(format!("unexpected skip of {}: {}", sc.key(), s.reason));
            }
        }
        if out.results.rows.is_empty() {
            return Err("the query evaluated no scenario".to_owned());
        }
        if let Some((advice, constraints)) = &out.advice {
            check_advice(advice, constraints)?;
        }
        Ok(())
    }

    fn deep_check(&mut self, query: &SweepQuery, out: &SweepOutput) -> Result<(), String> {
        let again = self.run(query)?;
        if again.digest != out.digest {
            return Err("the repeated query returned different rows".to_owned());
        }
        let mut rng = Rng::new(self.seed ^ 0x0AC1E, query.id);
        match self.kind {
            Kind::DesignSpace => {
                let small: Vec<&SweepRow> = out
                    .results
                    .rows
                    .iter()
                    .filter(|r| r.scenario.n_blocks() <= FULL_SIM_MAX_BLOCKS)
                    .collect();
                for row in rng.subset(&small, FULL_SIM_ROWS) {
                    check_full_simulation(row)?;
                }
            }
            Kind::Contended => {
                // The engine's cached, deduplicated answer equals the
                // scenario's own uncached run.
                let row = rng.pick(&out.results.rows);
                let direct = row.scenario.run().map_err(|e| e.to_string())?;
                if direct.stats != row.report.stats {
                    return Err(format!(
                        "engine row differs from Scenario::run for {}",
                        row.scenario.key()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The recommendation exists, is feasible, is flagged Pareto-optimal,
/// and no candidate dominates it on (makespan, energy, chips).
fn check_advice(advice: &Advice, constraints: &Constraints) -> Result<(), String> {
    let i = advice.recommended.ok_or("advise recommended nothing")?;
    let rec = &advice.candidates[i];
    if !rec.feasible || !constraints.satisfied_by(&rec.report) {
        return Err(format!("recommended {} is infeasible", rec.point.label()));
    }
    if !rec.pareto {
        return Err(format!("recommended {} is not flagged Pareto-optimal", rec.point.label()));
    }
    let obj = |c: &advisor::Candidate| (c.makespan(), c.report.energy_mj(), c.point.n_chips);
    let (m, e, n) = obj(rec);
    for c in &advice.candidates {
        let (cm, ce, cn) = obj(c);
        if cm <= m && ce <= e && cn <= n && (cm < m || ce < e || cn < n) {
            return Err(format!(
                "{} dominates the recommended {}",
                c.point.label(),
                rec.point.label()
            ));
        }
    }
    Ok(())
}

/// The row's report equals `Machine::run` over the fully concatenated
/// programs.
fn check_full_simulation(row: &SweepRow) -> Result<(), String> {
    let s = &row.scenario;
    let compiled = s.compile_schedule().map_err(|e| e.to_string())?;
    let programs = concat_shifted(compiled.template(), s.n_blocks());
    let full =
        Machine::homogeneous(s.chip(), s.n_chips).run(&programs).map_err(|e| e.to_string())?;
    if full == row.report.stats {
        Ok(())
    } else {
        Err(format!("steady-state row differs from full simulation for {}", s.key()))
    }
}
