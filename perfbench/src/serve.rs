//! The `serve_open_loop` workload: each query is one open-loop serving
//! simulation ([`ServeScenario`]) with a large seeded request count.
//!
//! The mix crosses Poisson and bursty arrivals at 0.5x, 0.9x and 1.5x
//! the measured saturation rate with static and continuous batching,
//! full-context and per-request billing, and the request-level fault
//! profile off and on. Arrivals are open-loop in simulated time; the
//! host loop stays closed (one scenario at a time).

use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::{stratum, Counters, Rng, Workload};
use mtp_core::{
    BatchPolicy, Billing, DistributedSystem, FaultProfile, RequestLatency, RequestOutcome,
    ServeReport, SlotPhase,
};
use mtp_harness::serve::{ServeRow, ServeScenario};
use mtp_harness::sweep::ModelPreset;
use mtp_model::{ArrivalProcess, BatchWorkload, InferenceMode, ServeRequest, ServeWorkload};
use std::collections::HashSet;
use std::sync::Arc;

/// Fleet size (the paper's 8-chip system).
const N_CHIPS: usize = 8;
/// Prompt tokens per request.
const PROMPT_LEN: usize = 16;
/// Decoded tokens per request.
const DECODE_LEN: usize = 8;
/// Batch slots of both admission policies.
const SLOTS: usize = 8;
/// Requests of the saturated run that measures each policy's capacity.
const SATURATION_REQUESTS: usize = 64;
/// Offered load as a multiple of the saturation rate.
const LOADS: [f64; 3] = [0.5, 0.9, 1.5];
/// Requests per query at the cheapest mix points (full-context billing
/// with batch-aligned arrivals, about 0.5 µs of host time per request);
/// costlier points serve fewer, so every point takes a few milliseconds.
const BASE_REQUESTS: usize = 8_000;
/// Requests of the reference point the `sim_serve_*` metrics report.
const REFERENCE_REQUESTS: usize = 8_000;
/// Arrival seed of the reference point: fixed, so the simulated
/// serving metrics describe one modelled configuration.
const REFERENCE_SEED: u64 = 42;

/// One point of the serving mix.
#[derive(Debug, Clone, Copy)]
struct MixPoint {
    bursty: bool,
    load: f64,
    continuous: bool,
    per_request: bool,
    faults: bool,
}

/// One query's inputs.
#[derive(Debug, Clone)]
pub struct ServeQuery {
    scenario: ServeScenario,
}

/// One query's answer: the derived row and its CSV line.
#[derive(Debug)]
pub struct ServeOutput {
    row: ServeRow,
    digest: u64,
}

/// The serving workload with its measured saturation rates.
#[derive(Debug)]
pub struct ServeOpenLoop {
    seed: u64,
    /// Saturation rate in requests per megacycle, indexed by
    /// `[continuous][per_request]`.
    saturation: [[f64; 2]; 2],
    /// Deadline of the fault profile, in kilocycles.
    timeout_kcycles: u64,
    mix: Vec<MixPoint>,
}

fn policy(continuous: bool) -> BatchPolicy {
    if continuous {
        BatchPolicy::Continuous { max_slots: SLOTS }
    } else {
        BatchPolicy::Static { batch: SLOTS }
    }
}

fn billing(per_request: bool) -> Billing {
    if per_request {
        Billing::PerRequest
    } else {
        Billing::FullContext
    }
}

fn system() -> Result<DistributedSystem, String> {
    let cfg = ModelPreset::TinyLlama.config(InferenceMode::Autoregressive);
    DistributedSystem::paper_default(cfg, N_CHIPS).map_err(|e| e.to_string())
}

/// Capacity of one admission policy and billing model: requests per
/// megacycle of a saturated run (every request present at cycle 0).
fn saturation_rate(
    sys: &DistributedSystem,
    continuous: bool,
    per_request: bool,
) -> Result<f64, String> {
    let requests =
        vec![
            ServeRequest { prompt_len: PROMPT_LEN, decode_len: DECODE_LEN, arrival_cycles: 0 };
            SATURATION_REQUESTS
        ];
    let workload = ServeWorkload::new(requests)?;
    let report = sys
        .simulate_serve(&workload, policy(continuous), billing(per_request))
        .map_err(|e| e.to_string())?;
    Ok(SATURATION_REQUESTS as f64 * 1e6 / report.makespan as f64)
}

impl ServeOpenLoop {
    /// Measures the saturation rates and builds the mix.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn new(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let sys = system()?;
        let mut saturation = [[0.0; 2]; 2];
        for (c, row) in saturation.iter_mut().enumerate() {
            for (b, rate) in row.iter_mut().enumerate() {
                *rate = tracer
                    .time("core.serve.saturation", || saturation_rate(&sys, c == 1, b == 1))?;
            }
        }
        let solo = sys
            .simulate_batch(InferenceMode::Prompt, &BatchWorkload::uniform(1, PROMPT_LEN, 0))
            .map_err(|e| e.to_string())?
            .stats
            .makespan;
        let mut mix = Vec::new();
        for bursty in [false, true] {
            for load in LOADS {
                for continuous in [false, true] {
                    for per_request in [false, true] {
                        for faults in [false, true] {
                            mix.push(MixPoint { bursty, load, continuous, per_request, faults });
                        }
                    }
                }
            }
        }
        // A request may wait up to 40 unloaded prefills before it
        // expires.
        Ok(ServeOpenLoop { seed, saturation, timeout_kcycles: 40 * solo / 1000, mix })
    }

    fn scenario(&self, p: MixPoint, n_requests: usize, seed: u64) -> ServeScenario {
        let rate = p.load * self.saturation[usize::from(p.continuous)][usize::from(p.per_request)];
        ServeScenario {
            model: ModelPreset::TinyLlama,
            n_chips: N_CHIPS,
            process: if p.bursty {
                ArrivalProcess::Bursty { rate_per_mcycle: rate, burst: SLOTS }
            } else {
                ArrivalProcess::Poisson { rate_per_mcycle: rate }
            },
            policy: policy(p.continuous),
            billing: billing(p.per_request),
            n_requests,
            prompt_len: PROMPT_LEN,
            decode_len: DECODE_LEN,
            seed,
            faults: if p.faults {
                FaultProfile {
                    fail_per_mille: 20,
                    max_retries: 2,
                    timeout_kcycles: self.timeout_kcycles,
                    queue_cap: 256,
                }
            } else {
                FaultProfile::none()
            },
        }
    }

    /// The mix's heaviest continuous-batching point (Poisson arrivals at
    /// 1.5x saturation, full-context billing, the fault profile on) at a
    /// fixed request count and seed: the point the `sim_serve_*` metrics
    /// report. Admission control and deadlines keep its backlog bounded,
    /// so its TTFT describes the system rather than the request count.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn reference_row(&self) -> Result<ServeRow, String> {
        let p = MixPoint {
            bursty: false,
            load: LOADS[LOADS.len() - 1],
            continuous: true,
            per_request: false,
            faults: true,
        };
        let scenario = self.scenario(p, REFERENCE_REQUESTS, REFERENCE_SEED);
        let (report, solo) = scenario.run()?;
        let row = ServeRow::new(scenario, Arc::new(report), solo);
        check_row(&row)?;
        Ok(row)
    }
}

/// Distinct pass shapes (the keys of the serving engine's pass memo),
/// replayed from the pass trace: a prefill slot bills its prompt, a
/// decode slot its billed context.
fn distinct_pass_shapes(report: &ServeReport, billing: Billing, seq_len: usize) -> usize {
    let mut emitted = vec![0usize; report.requests.len()];
    let mut seen: HashSet<Vec<(bool, usize)>> = HashSet::new();
    for pass in &report.passes {
        let shape = pass
            .slots
            .iter()
            .map(|&(r, phase)| match phase {
                SlotPhase::Prefill => (false, report.requests[r].prompt_len),
                SlotPhase::Decode => (
                    true,
                    match billing {
                        Billing::FullContext => seq_len,
                        Billing::PerRequest => {
                            (report.requests[r].prompt_len + emitted[r]).min(seq_len)
                        }
                    },
                ),
            })
            .collect();
        seen.insert(shape);
        for &(r, phase) in &pass.slots {
            match phase {
                SlotPhase::Prefill => emitted[r] = usize::from(report.requests[r].decode_len >= 1),
                SlotPhase::Decode => emitted[r] += 1,
            }
        }
    }
    seen.len()
}

/// Every request is accounted for, the report's counters agree with the
/// per-request outcomes, and the percentiles are ordered.
fn check_row(row: &ServeRow) -> Result<(), String> {
    let r = &row.report;
    let count = |o: RequestOutcome| r.requests.iter().filter(|l| l.outcome == o).count() as u64;
    let (done, failed, shed, timed_out) = (
        count(RequestOutcome::Completed),
        count(RequestOutcome::Failed),
        count(RequestOutcome::Shed),
        count(RequestOutcome::TimedOut),
    );
    let offered = row.scenario.n_requests as u64;
    if done + failed + shed + timed_out != offered || r.requests.len() as u64 != offered {
        return Err(format!(
            "{}: completed {done} + failed {failed} + shed {shed} + timed out {timed_out} != offered {offered}",
            row.scenario.key()
        ));
    }
    if (failed, shed, timed_out) != (r.failed, r.sheds, r.timeouts) {
        return Err(format!("{}: report counters disagree with outcomes", row.scenario.key()));
    }
    for (name, (p50, p95, p99)) in [("ttft", row.ttft), ("tpot", row.tpot)] {
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "{}: {name} p50 {p50} p95 {p95} p99 {p99} out of order",
                row.scenario.key()
            ));
        }
    }
    Ok(())
}

fn row_digest(row: &ServeRow) -> u64 {
    let mut h = Fnv::default();
    h.line(&row.to_csv_line());
    h.finish()
}

impl Workload for ServeOpenLoop {
    type Query = ServeQuery;
    type Output = ServeOutput;

    fn prepare(&mut self, q: u64) -> ServeQuery {
        // Each pass over the mix visits every point once.
        let p = self.mix[stratum(self.seed ^ 0x5E17E, q, self.mix.len())];
        // Request counts are sized so that every point costs a similar
        // few milliseconds of host time, with a seeded ±10 % jitter.
        // Poisson arrivals into continuous slots mix prefill and decode
        // in one pass; per-request billing then gives every slot its own
        // context, so nearly every pass misses the memo; faults add
        // retried prefills.
        let mixed = p.continuous && !p.bursty;
        let mut base = BASE_REQUESTS;
        if mixed {
            base /= 3;
        }
        if p.per_request {
            base /= if mixed { 100 } else { 4 };
        }
        if p.faults {
            base /= 2;
        }
        let mut rng = Rng::new(self.seed, q);
        let n = rng.range(base * 9 / 10, base * 11 / 10);
        ServeQuery { scenario: self.scenario(p, n, rng.next_u64()) }
    }

    fn run(&mut self, query: &ServeQuery) -> Result<ServeOutput, String> {
        let (report, solo) = query.scenario.run()?;
        let row = ServeRow::new(query.scenario.clone(), Arc::new(report), solo);
        let digest = row_digest(&row);
        Ok(ServeOutput { row, digest })
    }

    fn run_traced(
        &mut self,
        query: &ServeQuery,
        t: &mut Tracer,
        _counters: &mut Counters,
    ) -> Result<ServeOutput, String> {
        // The calls `ServeScenario::run` and `ServeRow::new` make.
        let s = &query.scenario;
        let sys = t.time("core.serve.system", system)?;
        let workload = t.time("model.arrivals.gen", || {
            ServeWorkload::open_loop(&s.process, s.n_requests, s.prompt_len, s.decode_len, s.seed)
        })?;
        let report = t
            .time("core.serve.simulate", || {
                sys.simulate_serve_faulted(&workload, s.policy, s.billing, &s.faults, s.seed)
            })
            .map_err(|e| e.to_string())?;
        let solo = t
            .time("core.serve.solo", || {
                sys.simulate_batch(
                    InferenceMode::Prompt,
                    &BatchWorkload::uniform(1, s.prompt_len, 0),
                )
            })
            .map_err(|e| e.to_string())?
            .stats
            .makespan;
        let (row, line) = t.time("harness.serve.row", || {
            let row = ServeRow::new(s.clone(), Arc::new(report), solo);
            let line = row.to_csv_line();
            (row, line)
        });
        let mut h = Fnv::default();
        h.line(&line);
        Ok(ServeOutput { row, digest: h.finish() })
    }

    fn tally(&self, _query: &ServeQuery, out: &ServeOutput, _t: &mut Tracer, c: &mut Counters) {
        let report = &out.row.report;
        let seq_len = ModelPreset::TinyLlama.config(InferenceMode::Autoregressive).seq_len;
        c.add("core.serve.passes", report.passes.len() as f64);
        c.add(
            "core.serve.pass_shapes",
            distinct_pass_shapes(report, out.row.scenario.billing, seq_len) as f64,
        );
        c.max(
            "harness.serve.latency_bytes",
            (report.requests.len() * std::mem::size_of::<RequestLatency>()) as f64,
        );
    }

    fn items(&self, out: &ServeOutput) -> u64 {
        out.row.scenario.n_requests as u64
    }

    fn digest(&self, out: &ServeOutput) -> u64 {
        out.digest
    }

    fn check(&mut self, _query: &ServeQuery, out: &ServeOutput) -> Result<(), String> {
        check_row(&out.row)
    }
}
