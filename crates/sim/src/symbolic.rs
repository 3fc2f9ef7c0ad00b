//! Closed-form steady-state makespan: solve the proven uniform-delta
//! recurrence symbolically instead of re-running it.
//!
//! The periodic engine's proof (`periodic` module docs) shows that after
//! a warmup of `k` segments the machine state repeats with a uniform
//! per-block advance `delta`; from then on every counter is an affine
//! function of the block count. This module holds the one warmup loop
//! that establishes the proof, and [`SymbolicMakespan`] captures it
//! **once** — including an exact per-prefix snapshot of every warmup
//! boundary — and from it answers *any* block count with zero further
//! simulation:
//!
//! ```text
//! makespan(n) = startup + (n - warm_blocks) * delta      for n >= warm_blocks
//! ```
//!
//! where `startup` is the latest chip clock at the fixed-point boundary,
//! `warm_blocks` is the number of warmup segments the proof consumed, and
//! `delta` is the per-block clock advance. Block counts inside the warmup
//! window read the stored prefix snapshot, which is exact because every
//! prefix boundary satisfied the clean-boundary and per-port
//! send-order-separation obligations, so the concatenated simulation
//! would have produced the identical state (`DESIGN.md` §9 and §15).
//!
//! [`SymbolicPlane`] lifts the model over the link-bandwidth axis: the
//! schedule template never changes with bandwidth, and under the affine
//! link regime the executor reads the link spec *only* through
//! [`crate::LinkPortSpec::transfer_cycles`] of the template's send sizes.
//! Bandwidth settings that price every send identically are therefore
//! timing-isomorphic and share ONE warmup trajectory — an entire
//! `link_bw_pct x depth` plane evaluates from a handful of warmups (often
//! exactly one per distinct pricing class), with `delta` exposed as a
//! piecewise function of bandwidth whose knee is the compute-bound /
//! link-bound crossover.

use crate::periodic::{uniform_delta, MachineState, MAX_WARMUP_SEGMENTS};
use crate::trace::ChipStats;
use crate::{ChipSpec, Instr, LinkRegime, Machine, Program, Result, RunStats, SimError};

/// One exact warmup-boundary snapshot: everything needed to answer a
/// block count that falls inside the warmup window.
#[derive(Debug, Clone)]
pub(crate) struct Prefix {
    /// Per-chip clocks at this boundary (`finish_cycles` of a run that
    /// stops here).
    t: Vec<u64>,
    /// Cumulative per-chip counters over all segments up to and including
    /// this one.
    totals: Vec<ChipStats>,
    /// Distinct sync ids the segment ending at this boundary observed
    /// (constant across segments of one template).
    distinct_syncs: usize,
}

impl Prefix {
    /// Exact [`RunStats`] of the `n_blocks`-deep run that ends at this
    /// boundary.
    pub(crate) fn stats(&self, n_blocks: usize) -> RunStats {
        let per_chip = self
            .totals
            .iter()
            .zip(&self.t)
            .map(|(total, &t)| ChipStats { finish_cycles: t, ..total.clone() })
            .collect();
        RunStats::new(per_chip, self.distinct_syncs * n_blocks)
    }
}

/// What the warmup loop established on one `(machine, template)` pair.
pub(crate) enum Warmup {
    /// The uniform-delta fixed point holds: every depth answers from the
    /// model.
    Proven(SymbolicMakespan),
    /// No fixed point within the segment limit. Holds the boundary
    /// snapshots that passed every check before the loop stopped (empty
    /// when the machine's timing is not shift-invariant).
    Unproven(Vec<Prefix>),
}

/// A symbolically solved `(machine, template)` steady state: exact
/// [`RunStats`] for **every** block count from one warmup trajectory.
///
/// `SymbolicMakespan` is a pure data structure:
/// [`SymbolicMakespan::eval`] is a table lookup plus one multiply-add per
/// counter, and [`SymbolicMakespan::makespan`] is the closed form
/// `startup + (n - warm_blocks) * delta`. Every steady-state answer of
/// the simulator — [`crate::Machine::run_periodic`] included — is
/// produced by [`SymbolicMakespan::try_eval`]. Exactness against the full
/// concatenated simulation is locked by `tests/symbolic_lockstep.rs`.
///
/// ```
/// use mtp_sim::{ChipSpec, Instr, Machine, Program, SymbolicMakespan};
/// use mtp_kernels::Kernel;
///
/// let machine = Machine::homogeneous(ChipSpec::siracusa(), 1);
/// let block = Program::from_instrs([Instr::compute(Kernel::gemv(64, 64))]);
/// let sym = SymbolicMakespan::derive(&machine, std::slice::from_ref(&block))?.unwrap();
/// let direct = machine.run_periodic(std::slice::from_ref(&block), 10_000)?;
/// assert_eq!(sym.eval(10_000), direct);
/// assert_eq!(sym.makespan(10_000), direct.makespan);
/// # Ok::<(), mtp_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicMakespan {
    n_chips: usize,
    /// Boundary snapshots; `prefix[j - 1]` is the state after `j`
    /// segments. The last entry is the fixed-point boundary.
    prefix: Vec<Prefix>,
    /// The steady-state segment's own counters (the per-block increment).
    last: Vec<ChipStats>,
    /// Chip clocks one segment before the fixed-point boundary (their
    /// difference to the boundary clocks is each chip's per-block step;
    /// inactive chips step by zero).
    t_prev: Vec<u64>,
    /// Per-block advance of the latest chip clock — the slope of the
    /// makespan in blocks. Equals the proven uniform state delta whenever
    /// any chip is active (inactive chips never hold the maximum clock).
    delta: u64,
}

impl SymbolicMakespan {
    /// Runs the warmup once on `(machine, template)` and, when the
    /// uniform-delta fixed point is proven within
    /// `MAX_WARMUP_SEGMENTS` (24) segments, captures it together with an
    /// exact snapshot of every warmup boundary.
    ///
    /// Returns `Ok(None)` whenever the proof does not go through — a
    /// contention-bearing link regime, a non-empty fault plan, an unclean
    /// or unseparated boundary, an aperiodic template, or a template
    /// error. Callers then simulate exactly instead.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::ProgramCountMismatch`] when `template` does not
    /// provide one program per chip; every other template problem yields
    /// `Ok(None)` so the caller's exact fallback reports it.
    pub fn derive(machine: &Machine, template: &[Program]) -> Result<Option<Self>> {
        if template.len() != machine.len() {
            return Err(SimError::ProgramCountMismatch {
                chips: machine.len(),
                programs: template.len(),
            });
        }
        Ok(match Self::warm_up(machine, template, MAX_WARMUP_SEGMENTS) {
            Warmup::Proven(model) => Some(model),
            Warmup::Unproven(_) => None,
        })
    }

    /// The one warmup loop behind every steady-state answer: runs at most
    /// `limit` repetitions of `template` segment by segment, carrying the
    /// machine state across boundaries, and stops at the first segment
    /// whose state advance is a uniform delta that also keeps every later
    /// segment's sends separated.
    ///
    /// Send separation is checked per receiver port, both ways: each
    /// segment's earliest send to a port must come strictly after the
    /// latest send to that port in all earlier segments, and at the fixed
    /// point each port's send window must be narrower than the delta (the
    /// next segment's window is this one shifted by it). Sends to
    /// different ports may overlap across segments; see `DESIGN.md` §9
    /// for why port arbitration is the only coupling that matters.
    ///
    /// The loop stops unproven at a segment error, at the first boundary
    /// that is unclean or not send-separated from the earlier segments
    /// (the obligations of `periodic`'s module docs), or at `limit`. A
    /// machine whose timing is not shift-invariant never enters it: a
    /// contention-bearing link regime couples segments through queue
    /// occupancy and per-message drop patterns (`DESIGN.md` §11), and a
    /// fault plan is pinned to absolute cycles.
    pub(crate) fn warm_up(machine: &Machine, template: &[Program], limit: usize) -> Warmup {
        let n = machine.len();
        let mut prefix = Vec::new();
        if machine.chips().iter().any(|c| !c.link_regime.contention_free())
            || !machine.faults().is_empty()
        {
            return Warmup::Unproven(prefix);
        }
        let mut carry = MachineState::zero(n);
        let mut totals = vec![ChipStats::default(); n];
        // Per receiver port: the latest send issue time over all segments
        // so far (`None` while no segment has sent to it).
        let mut latest_send: Vec<Option<u64>> = vec![None; n];
        for _ in 0..limit {
            let Ok(run) = machine.run_segment(template, &carry) else { break };
            let separated = latest_send.iter().zip(&run.send_issue).all(|pair| match pair {
                (Some(prev_max), Some((next_min, _))) => prev_max < next_min,
                _ => true,
            });
            if !run.clean || !separated {
                break;
            }
            for (total, seg) in totals.iter_mut().zip(&run.stats) {
                total.accumulate(seg);
            }
            prefix.push(Prefix {
                t: run.state.t.clone(),
                totals: totals.clone(),
                distinct_syncs: run.distinct_syncs,
            });
            if let Some(state_delta) = uniform_delta(&carry, &run.state) {
                // Separation must keep holding at every extrapolated
                // boundary on every port: the next segment's sends are
                // this segment's shifted by the delta.
                let separated_forever = run
                    .send_issue
                    .iter()
                    .flatten()
                    .all(|&(min, max)| max < min.saturating_add(state_delta));
                if separated_forever {
                    // The makespan slope is the clock advance, which is
                    // the uniform delta when any chip clock is active and
                    // zero when every chip is parked.
                    let delta = run
                        .state
                        .t
                        .iter()
                        .zip(&carry.t)
                        .map(|(&now, &prev)| now - prev)
                        .max()
                        .unwrap_or(0);
                    return Warmup::Proven(SymbolicMakespan {
                        n_chips: n,
                        prefix,
                        last: run.stats,
                        t_prev: carry.t,
                        delta,
                    });
                }
            }
            for (latest, window) in latest_send.iter_mut().zip(&run.send_issue) {
                *latest = (*latest).max(window.map(|(_, max)| max));
            }
            carry = run.state;
        }
        Warmup::Unproven(prefix)
    }

    /// Exact [`RunStats`] for `n_blocks` repetitions — bit-identical to
    /// the full concatenated simulation, with zero simulation:
    /// warmup-window depths read the stored prefix snapshot, deeper ones
    /// apply one checked multiply-add per counter.
    ///
    /// # Panics
    ///
    /// When a counter of the `n_blocks`-deep run leaves `u64`;
    /// [`Self::try_eval`] reports that as an error instead.
    #[must_use]
    pub fn eval(&self, n_blocks: usize) -> RunStats {
        self.try_eval(n_blocks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::eval`] for depths that may not fit the counters.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::Overflow`] when a counter of the
    /// `n_blocks`-deep run leaves `u64` (the same depths where
    /// [`crate::Machine::run_periodic`] returns it).
    pub fn try_eval(&self, n_blocks: usize) -> Result<RunStats> {
        if n_blocks == 0 {
            return Ok(RunStats::new(vec![ChipStats::default(); self.n_chips], 0));
        }
        let warm = self.prefix.len();
        if n_blocks <= warm {
            return Ok(self.prefix[n_blocks - 1].stats(n_blocks));
        }
        // Per chip: the fixed-point totals plus `reps` more copies of the
        // steady segment's additive counters, with the clock advanced by
        // its per-block step each time. Peak queue occupancy is a
        // maximum, not a sum: the steady segment repeats the same
        // occupancy trajectory, so its peak carries over unscaled.
        // Widened to u128 so every counter is exact; one test of the high
        // halves at the end keeps the loop branch-free.
        let fixed = &self.prefix[warm - 1];
        let reps = u128::from((n_blocks - warm) as u64);
        let mut high = 0u128;
        let mut per_chip = Vec::with_capacity(self.n_chips);
        for ((total, seg), (&now, &prev)) in
            fixed.totals.iter().zip(&self.last).zip(fixed.t.iter().zip(&self.t_prev))
        {
            let mut grow = |base: u64, per: u64| {
                let v = u128::from(base) + u128::from(per) * reps;
                high |= v >> 64;
                v as u64
            };
            per_chip.push(ChipStats {
                compute_cycles: grow(total.compute_cycles, seg.compute_cycles),
                dma_l3_l2_exposed_cycles: grow(
                    total.dma_l3_l2_exposed_cycles,
                    seg.dma_l3_l2_exposed_cycles,
                ),
                dma_l2_l1_exposed_cycles: grow(
                    total.dma_l2_l1_exposed_cycles,
                    seg.dma_l2_l1_exposed_cycles,
                ),
                c2c_exposed_cycles: grow(total.c2c_exposed_cycles, seg.c2c_exposed_cycles),
                dma_l3_l2_bytes: grow(total.dma_l3_l2_bytes, seg.dma_l3_l2_bytes),
                dma_l2_l1_bytes: grow(total.dma_l2_l1_bytes, seg.dma_l2_l1_bytes),
                c2c_bytes_sent: grow(total.c2c_bytes_sent, seg.c2c_bytes_sent),
                sync_marks: grow(total.sync_marks, seg.sync_marks),
                // Inactive chips (step 0) stay parked at their clock;
                // active chips advance by the step per block.
                finish_cycles: grow(now, now - prev),
                c2c_queue_cycles: grow(total.c2c_queue_cycles, seg.c2c_queue_cycles),
                c2c_peak_queue_bytes: total.c2c_peak_queue_bytes.max(seg.c2c_peak_queue_bytes),
                c2c_drops: grow(total.c2c_drops, seg.c2c_drops),
                c2c_retransmits: grow(total.c2c_retransmits, seg.c2c_retransmits),
                c2c_gave_up: grow(total.c2c_gave_up, seg.c2c_gave_up),
                fault_stall_cycles: grow(total.fault_stall_cycles, seg.fault_stall_cycles),
                fault_slow_cycles: grow(total.fault_slow_cycles, seg.fault_slow_cycles),
                fault_link_cycles: grow(total.fault_link_cycles, seg.fault_link_cycles),
                fault_transfers_affected: grow(
                    total.fault_transfers_affected,
                    seg.fault_transfers_affected,
                ),
                fault_downtime_cycles: grow(total.fault_downtime_cycles, seg.fault_downtime_cycles),
            });
        }
        let syncs = fixed.distinct_syncs.checked_mul(n_blocks).filter(|_| high == 0);
        Ok(RunStats::new(per_chip, syncs.ok_or(SimError::Overflow { n_blocks })?))
    }

    /// The closed-form makespan: `startup + (n - warm_blocks) * delta`
    /// beyond the warmup window, the stored boundary maximum inside it,
    /// `0` for an empty run. Always equals `self.eval(n_blocks).makespan`.
    ///
    /// # Panics
    ///
    /// When the makespan leaves `u64` (a depth where [`Self::try_eval`]
    /// returns [`SimError::Overflow`]).
    #[must_use]
    pub fn makespan(&self, n_blocks: usize) -> u64 {
        if n_blocks == 0 {
            return 0;
        }
        let warm = self.prefix.len();
        if n_blocks <= warm {
            return self.prefix[n_blocks - 1].t.iter().copied().max().unwrap_or(0);
        }
        ((n_blocks - warm) as u64)
            .checked_mul(self.delta)
            .and_then(|tail| self.startup().checked_add(tail))
            .unwrap_or_else(|| panic!("{}", SimError::Overflow { n_blocks }))
    }

    /// Makespan of the whole warmup window (the `startup` term of the
    /// closed form): the latest chip clock at the fixed-point boundary.
    #[must_use]
    pub fn startup(&self) -> u64 {
        self.makespan(self.prefix.len())
    }

    /// Per-block makespan slope in cycles (the `delta` term of the closed
    /// form).
    #[must_use]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Warmup segments the fixed-point proof consumed (the `warm_blocks`
    /// term of the closed form).
    #[must_use]
    pub fn warm_blocks(&self) -> usize {
        self.prefix.len()
    }

    /// Number of chips the model spans.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }
}

/// The outcome of one [`SymbolicMakespan::derive`] as a single value: the
/// proven model, or `None` when the proof did not go through.
///
/// `mtp-core`'s `CompiledSchedule::warmup` returns it and
/// `CompiledSchedule::simulate_from` evaluates it; the `perfbench`
/// harness is written against that pair.
#[derive(Debug, Clone)]
pub struct WarmupCheckpoint(pub Option<SymbolicMakespan>);

impl WarmupCheckpoint {
    /// `true` when the warmup proved a fixed point.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.0.is_some()
    }

    /// Warmup segments the proof consumed (`None` when not converged).
    #[must_use]
    pub fn warmup_segments(&self) -> Option<usize> {
        self.0.as_ref().map(SymbolicMakespan::warm_blocks)
    }
}

/// One bandwidth equivalence class of a [`SymbolicPlane`]: the settings
/// in `pcts` price every template send identically, so they share the
/// (optional) symbolic model derived from one warmup.
#[derive(Debug, Clone)]
struct PlaneCell {
    /// Bandwidth settings (percent of nominal) in this class, ascending.
    pcts: Vec<u32>,
    /// The shared model; `None` when the warmup did not converge for this
    /// class (callers fall back to exact simulation).
    model: Option<SymbolicMakespan>,
}

/// A `link_bw_pct x depth` plane of exact steady-state answers, derived
/// from one warmup per *pricing class* instead of one per bandwidth
/// setting.
///
/// Under [`LinkRegime::Affine`] the executor's only read of the link
/// bandwidth is `transfer_cycles(bytes)` for each `Send` in the template,
/// so two bandwidth settings whose priced cost vectors coincide are
/// timing-isomorphic and provably share a warmup. Non-affine
/// (contention-bearing or queued) regimes price byte counts outside the
/// template's send sizes, so each setting derives independently there —
/// still exact, just without the sharing.
///
/// ```
/// use mtp_sim::{ChipSpec, Instr, Machine, Program, SymbolicPlane};
/// use mtp_kernels::Kernel;
///
/// let template = vec![
///     Program::from_instrs([Instr::compute(Kernel::gemv(64, 64)), Instr::send(1, 0, 4096)]),
///     Program::from_instrs([Instr::recv(0, 0)]),
/// ];
/// let plane = SymbolicPlane::derive(&ChipSpec::siracusa(), 2, &template, &[25, 50, 100])?;
/// let direct = Machine::homogeneous(plane.chip(100).unwrap(), 2).run_periodic(&template, 96)?;
/// assert_eq!(plane.eval(100, 96).unwrap(), direct);
/// # Ok::<(), mtp_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicPlane {
    base: ChipSpec,
    n_chips: usize,
    cells: Vec<PlaneCell>,
    warmups: usize,
}

/// Scales a chip's link bandwidth to `pct` percent of nominal — the
/// exact expression the sweep engine applies, so plane cells and swept
/// scenarios price transfers bit-identically.
fn scale_link_bw(base: &ChipSpec, pct: u32) -> ChipSpec {
    let mut chip = *base;
    chip.link.bytes_per_cycle *= f64::from(pct) / 100.0;
    chip
}

/// The priced cost of every `Send` in the template, in instruction order
/// — the complete link-timing signature of a bandwidth setting under the
/// affine regime.
fn pricing_signature(chip: &ChipSpec, template: &[Program]) -> Vec<u64> {
    let mut sig = Vec::new();
    for p in template {
        for i in p.instrs() {
            if let Instr::Send { bytes, .. } = *i {
                sig.push(chip.link.transfer_cycles(bytes));
            }
        }
    }
    sig
}

impl SymbolicPlane {
    /// Derives the plane for `template` on `n_chips` chips of `base`
    /// (taken at nominal bandwidth), over the given bandwidth settings in
    /// percent. Duplicate settings collapse; settings are grouped into
    /// pricing classes and one warmup is run per class (per setting for
    /// non-affine regimes). Classes whose warmup does not converge stay
    /// in the plane with no model — [`SymbolicPlane::eval`] returns
    /// `None` for them and callers simulate exactly.
    ///
    /// # Panics
    ///
    /// Panics when any setting is `0` (a zero-bandwidth link prices no
    /// transfer; sweeps reject it at validation).
    ///
    /// # Errors
    ///
    /// [`crate::SimError::ProgramCountMismatch`] when `template` does not
    /// provide one program per chip.
    pub fn derive(
        base: &ChipSpec,
        n_chips: usize,
        template: &[Program],
        pcts: &[u32],
    ) -> Result<Self> {
        if template.len() != n_chips {
            return Err(crate::SimError::ProgramCountMismatch {
                chips: n_chips,
                programs: template.len(),
            });
        }
        let mut sorted: Vec<u32> = pcts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.first().is_none_or(|&p| p > 0), "link bandwidth percent must be at least 1");
        let affine = base.link_regime == LinkRegime::Affine;
        // Group settings into pricing classes; ascending pct order keeps
        // the grouping (and thus the warmup count) deterministic.
        let mut classes: Vec<(Vec<u64>, Vec<u32>)> = Vec::new();
        for &pct in &sorted {
            let sig = pricing_signature(&scale_link_bw(base, pct), template);
            match (affine).then(|| classes.iter_mut().find(|(s, _)| *s == sig)).flatten() {
                Some((_, members)) => members.push(pct),
                None => classes.push((sig, vec![pct])),
            }
        }
        let mut cells = Vec::with_capacity(classes.len());
        let mut warmups = 0usize;
        for (_, members) in classes {
            let chip = scale_link_bw(base, members[0]);
            let machine = Machine::homogeneous(chip, n_chips);
            let model = SymbolicMakespan::derive(&machine, template)?;
            warmups += 1;
            cells.push(PlaneCell { pcts: members, model });
        }
        Ok(SymbolicPlane { base: *base, n_chips, cells, warmups })
    }

    fn cell(&self, pct: u32) -> Option<&PlaneCell> {
        self.cells.iter().find(|c| c.pcts.contains(&pct))
    }

    /// The symbolic model backing a bandwidth setting — `None` when the
    /// setting is not in the plane or its class did not converge.
    #[must_use]
    pub fn model(&self, pct: u32) -> Option<&SymbolicMakespan> {
        self.cell(pct).and_then(|c| c.model.as_ref())
    }

    /// Exact [`RunStats`] at `(pct, n_blocks)` with zero simulation;
    /// `None` when the setting is unknown or its class did not converge.
    #[must_use]
    pub fn eval(&self, pct: u32, n_blocks: usize) -> Option<RunStats> {
        self.model(pct).map(|m| m.eval(n_blocks))
    }

    /// Closed-form makespan at `(pct, n_blocks)`; `None` as in
    /// [`SymbolicPlane::eval`].
    #[must_use]
    pub fn makespan(&self, pct: u32, n_blocks: usize) -> Option<u64> {
        self.model(pct).map(|m| m.makespan(n_blocks))
    }

    /// The per-block makespan slope at a bandwidth setting — one sample
    /// of the piecewise `delta(bw)` function.
    #[must_use]
    pub fn delta(&self, pct: u32) -> Option<u64> {
        self.model(pct).map(SymbolicMakespan::delta)
    }

    /// The chip specification a setting evaluates under (base with the
    /// link scaled) — what a caller should simulate with when the class
    /// did not converge. `None` for settings not in the plane.
    #[must_use]
    pub fn chip(&self, pct: u32) -> Option<ChipSpec> {
        self.cell(pct).map(|_| scale_link_bw(&self.base, pct))
    }

    /// Bandwidth settings the plane covers, ascending.
    #[must_use]
    pub fn pcts(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.cells.iter().flat_map(|c| c.pcts.iter().copied()).collect();
        all.sort_unstable();
        all
    }

    /// The `delta(bw)` curve as `(pct, delta)` samples, ascending in
    /// `pct`, skipping unconverged settings — the piecewise max-plus
    /// function whose knee is the compute/link crossover.
    #[must_use]
    pub fn delta_curve(&self) -> Vec<(u32, u64)> {
        self.pcts().into_iter().filter_map(|p| self.delta(p).map(|d| (p, d))).collect()
    }

    /// The smallest bandwidth setting whose per-block slope already
    /// equals the slope at full bandwidth — the compute-bound / link-bound
    /// crossover. Settings at or above it buy no makespan; below it the
    /// link is the bottleneck. `None` when no setting converged.
    #[must_use]
    pub fn crossover_pct(&self) -> Option<u32> {
        let curve = self.delta_curve();
        let (_, best) = *curve.last()?;
        curve.iter().find(|&&(_, d)| d == best).map(|&(p, _)| p)
    }

    /// Number of warmup trajectories actually simulated — at most one per
    /// pricing class, the whole cost of the plane.
    #[must_use]
    pub fn warmups(&self) -> usize {
        self.warmups
    }

    /// Number of chips the plane spans.
    #[must_use]
    pub fn n_chips(&self) -> usize {
        self.n_chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtp_kernels::Kernel;

    fn machine(n: usize) -> Machine {
        Machine::homogeneous(ChipSpec::siracusa(), n)
    }

    fn ping_pong_template() -> [Program; 2] {
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::gemm(16, 128, 128)),
            Instr::send(1, 0, 2048),
            Instr::recv(1, 1),
        ]);
        let p1 = Program::from_instrs([
            Instr::compute(Kernel::gemv(512, 128)),
            Instr::recv(0, 0),
            Instr::send(0, 1, 2048),
        ]);
        [p0, p1]
    }

    #[test]
    fn eval_is_checked_at_the_u64_boundary() {
        let m = machine(2);
        let template = ping_pong_template();
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        // The deepest run whose makespan still fits a u64, and one past it.
        let last =
            sym.warm_blocks() + usize::try_from((u64::MAX - sym.startup()) / sym.delta()).unwrap();
        let edge = sym.try_eval(last).unwrap();
        assert_eq!(edge.makespan, sym.makespan(last));
        assert!(edge.makespan > u64::MAX - sym.delta());
        assert_eq!(Ok(edge), m.run_periodic(&template, last));
        for n_blocks in [last + 1, usize::MAX] {
            assert_eq!(sym.try_eval(n_blocks), Err(SimError::Overflow { n_blocks }));
            assert_eq!(m.run_periodic(&template, n_blocks), Err(SimError::Overflow { n_blocks }));
        }
        // In range, the checked and panicking forms agree.
        assert_eq!(sym.try_eval(10_000).unwrap(), sym.eval(10_000));
    }

    #[test]
    fn eval_matches_run_periodic_at_every_depth() {
        let m = machine(2);
        let template = ping_pong_template();
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        for n_blocks in [0usize, 1, 2, 3, 4, 5, 9, 40, 96, 10_000] {
            let direct = m.run_periodic(&template, n_blocks).unwrap();
            assert_eq!(sym.eval(n_blocks), direct, "n_blocks={n_blocks}");
            assert_eq!(sym.makespan(n_blocks), direct.makespan, "n_blocks={n_blocks}");
        }
    }

    #[test]
    fn closed_form_terms_are_consistent() {
        let m = machine(2);
        let template = ping_pong_template();
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        let warm = sym.warm_blocks();
        assert!(warm >= 1);
        assert_eq!(sym.makespan(warm), sym.startup());
        assert_eq!(sym.makespan(warm + 7), sym.startup() + 7 * sym.delta());
        assert_eq!(sym.n_chips(), 2);
    }

    #[test]
    fn program_count_mismatch_detected() {
        let m = machine(2);
        assert!(matches!(
            SymbolicMakespan::derive(&m, &[Program::new()]),
            Err(crate::SimError::ProgramCountMismatch { chips: 2, programs: 1 })
        ));
    }

    #[test]
    fn aperiodic_template_yields_none() {
        // A boundary with DMA in flight never proves clean.
        let m = machine(1);
        let template = [Program::from_instrs([
            Instr::DmaAsync { path: crate::MemPath::L3ToL2, bytes: 1 << 20, tag: crate::DmaTag(0) },
            Instr::compute(Kernel::Add { n: 64 }),
        ])];
        assert!(SymbolicMakespan::derive(&m, &template).unwrap().is_none());
    }

    #[test]
    fn contention_regime_and_faults_yield_none() {
        let template = ping_pong_template();
        let mut spec = ChipSpec::siracusa();
        spec.link_regime = LinkRegime::Lossy { drop_per_mille: 100, nack_cycles: 500 };
        let lossy = Machine::homogeneous(spec, 2);
        assert!(SymbolicMakespan::derive(&lossy, &template).unwrap().is_none());

        let plan = crate::FaultPlan::parse("stall:0:5000:2000").unwrap();
        let faulted = machine(2).with_faults(plan);
        assert!(SymbolicMakespan::derive(&faulted, &template).unwrap().is_none());
    }

    #[test]
    fn empty_template_is_delta_zero() {
        let m = machine(1);
        let template = [Program::new()];
        let sym = SymbolicMakespan::derive(&m, &template).unwrap().unwrap();
        assert_eq!(sym.delta(), 0);
        assert_eq!(sym.makespan(1_000_000), sym.startup());
    }

    #[test]
    fn plane_matches_per_pct_simulation() {
        let template = ping_pong_template();
        let plane =
            SymbolicPlane::derive(&ChipSpec::siracusa(), 2, &template, &[25, 50, 75, 100]).unwrap();
        for pct in [25u32, 50, 75, 100] {
            let chip = plane.chip(pct).unwrap();
            let m = Machine::homogeneous(chip, 2);
            for n_blocks in [1usize, 5, 96] {
                let direct = m.run_periodic(&template, n_blocks).unwrap();
                assert_eq!(plane.eval(pct, n_blocks).unwrap(), direct, "pct={pct} n={n_blocks}");
            }
        }
        assert!(plane.warmups() <= 4);
    }

    #[test]
    fn plane_shares_warmups_between_identical_pricings() {
        // A template with no sends prices identically at every bandwidth:
        // the whole plane is one pricing class, one warmup.
        let template = [Program::from_instrs([Instr::compute(Kernel::gemv(256, 256))])];
        let plane =
            SymbolicPlane::derive(&ChipSpec::siracusa(), 1, &template, &[10, 25, 50, 75, 100])
                .unwrap();
        assert_eq!(plane.warmups(), 1);
        let d100 = plane.delta(100).unwrap();
        assert_eq!(plane.delta(10).unwrap(), d100);
        assert_eq!(plane.crossover_pct(), Some(10));
    }

    #[test]
    fn crossover_separates_link_bound_from_compute_bound() {
        // Heavy link traffic against light compute: low bandwidths must
        // show a strictly larger delta than full bandwidth, and the
        // crossover sits above the link-bound settings.
        let p0 = Program::from_instrs([
            Instr::compute(Kernel::Add { n: 64 }),
            Instr::send(1, 0, 1 << 20),
            Instr::recv(1, 1),
        ]);
        let p1 = Program::from_instrs([
            Instr::compute(Kernel::Add { n: 64 }),
            Instr::recv(0, 0),
            Instr::send(0, 1, 1 << 20),
        ]);
        let template = [p0, p1];
        let plane =
            SymbolicPlane::derive(&ChipSpec::siracusa(), 2, &template, &[25, 50, 100]).unwrap();
        assert!(plane.delta(25).unwrap() > plane.delta(100).unwrap());
        let curve = plane.delta_curve();
        assert!(curve.windows(2).all(|w| w[0].1 >= w[1].1), "delta(bw) is non-increasing");
    }

    #[test]
    fn unknown_pct_is_none() {
        let template = ping_pong_template();
        let plane = SymbolicPlane::derive(&ChipSpec::siracusa(), 2, &template, &[50, 100]).unwrap();
        assert!(plane.eval(60, 5).is_none());
        assert!(plane.chip(60).is_none());
        assert_eq!(plane.pcts(), vec![50, 100]);
    }

    #[test]
    #[should_panic(expected = "link bandwidth percent must be at least 1")]
    fn zero_pct_panics() {
        let template = ping_pong_template();
        let _ = SymbolicPlane::derive(&ChipSpec::siracusa(), 2, &template, &[0, 100]);
    }
}
