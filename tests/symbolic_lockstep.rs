//! Exact-equality lockstep suite for the symbolic makespan model
//! (see DESIGN.md §15): [`mtp::sim::SymbolicMakespan::eval`] must be
//! **indistinguishable** — makespan, every per-chip counter, the
//! sync-phase count, all exact `u64` equality — from both
//! [`mtp::sim::Machine::run_periodic`] and a full
//! [`mtp::sim::Machine::run`] of the concatenated programs, across:
//!
//! 1. every valid scenario of the default sweep grid;
//! 2. the deep grid (96+ blocks) and the batch grid (uniform batches as
//!    extra blocks);
//! 3. randomized model configurations via proptest;
//! 4. the closed form itself: `makespan(n) = startup + reps * delta`
//!    must equal the evaluated stats' makespan at every depth;
//! 5. block pipelines whose consecutive blocks overlap in global time
//!    but never on one receiver port (flat-reduction design points and
//!    seeded hub-and-spokes templates), which must prove a fixed point,
//!    and templates that interleave blocks on one port, which must not.
//!
//! Scenarios whose fixed point is not provable (the symbolic model
//! returns `None`) are skipped here — the periodic lockstep suite
//! already covers their fallback path — but the default grid must prove
//! a fixed point for most of its scenarios, which the tests assert.

use mtp::core::schedule::Scheduler;
use mtp::harness::sweep::{ModelPreset, Scenario, SweepGrid, TopologySpec};
use mtp::kernels::Kernel;
use mtp::model::{InferenceMode, TransformerConfig};
use mtp::sim::{
    ChipSpec, Instr, Machine, MsgId, Program, SymbolicMakespan, SymbolicPlane, TraceKind,
};
use proptest::prelude::*;

/// Concatenates a template `n_blocks` times with fresh ids per block —
/// the contract `run_periodic` (and therefore the symbolic model) is
/// defined against, mirrored independently of the implementation.
fn concat_shifted(template: &[Program], n_blocks: usize) -> Vec<Program> {
    let mut max_msg = 0u64;
    let mut max_sync = 0u32;
    let mut any_msg = false;
    let mut any_sync = false;
    for p in template {
        for i in p.instrs() {
            match *i {
                Instr::Send { msg, .. } | Instr::Recv { msg, .. } => {
                    max_msg = max_msg.max(msg.0);
                    any_msg = true;
                }
                Instr::Sync(id) => {
                    max_sync = max_sync.max(id);
                    any_sync = true;
                }
                _ => {}
            }
        }
    }
    let msg_stride = if any_msg { max_msg + 1 } else { 0 };
    let sync_stride = if any_sync { max_sync + 1 } else { 0 };
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

/// Asserts symbolic == periodic == full at every given depth. Returns
/// `false` when no fixed point is provable for this template (skipped).
fn assert_symbolic_lockstep(
    chip: &ChipSpec,
    n_chips: usize,
    template: &[Program],
    depths: &[usize],
    context: &str,
) -> bool {
    let machine = Machine::homogeneous(*chip, n_chips);
    let Some(model) = SymbolicMakespan::derive(&machine, template).unwrap() else {
        return false;
    };
    for &n in depths {
        let sym = model.eval(n);
        let fast = machine.run_periodic(template, n).unwrap();
        let full = machine.run(&concat_shifted(template, n)).unwrap();
        assert_eq!(sym, fast, "symbolic != periodic: {context} n_blocks={n}");
        assert_eq!(sym, full, "symbolic != full: {context} n_blocks={n}");
        assert_eq!(
            model.makespan(n),
            sym.makespan,
            "closed form != evaluated stats: {context} n_blocks={n}"
        );
    }
    true
}

/// Depths that straddle every regime of the closed form: the exact
/// prefix (n at or below the warm segment count), the first
/// extrapolated block, and the target depth.
fn probe_depths(model_depth: usize) -> Vec<usize> {
    let mut d = vec![1, 2, 3, 5, model_depth];
    d.sort_unstable();
    d.dedup();
    d.retain(|&n| n >= 1);
    d
}

fn assert_grid_symbolic(grid: &SweepGrid, min_proven: usize) {
    let mut proven = 0usize;
    for scenario in grid.scenarios() {
        let Ok(compiled) = scenario.compile_schedule() else {
            continue; // invalid partition for this chip count
        };
        let chip = scenario.chip();
        let context = format!(
            "{} x{} {} {}",
            scenario.config.name,
            scenario.n_chips,
            scenario.mode,
            scenario.topology.label()
        );
        if assert_symbolic_lockstep(
            &chip,
            scenario.n_chips,
            compiled.template(),
            &probe_depths(scenario.n_blocks()),
            &context,
        ) {
            proven += 1;
        }
    }
    assert!(
        proven >= min_proven,
        "only {proven} scenarios proved a fixed point (expected at least {min_proven})"
    );
}

#[test]
fn default_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::paper_default(), 20);
}

#[test]
fn deep_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::deep_default(), 4);
}

#[test]
fn batch_grid_scenarios_symbolic_lockstep() {
    assert_grid_symbolic(&SweepGrid::batch_default(), 4);
}

#[test]
fn plane_matches_independent_derivations_on_an_eight_chip_schedule() {
    // The bandwidth plane must be indistinguishable from deriving each
    // bandwidth from scratch, including pricing-class sharing.
    let cfg = TransformerConfig::tiny_llama_42m();
    let chip = ChipSpec::siracusa();
    let template =
        Scheduler::new(&cfg, 8, &chip).unwrap().block_programs(InferenceMode::Autoregressive);
    let pcts = [10, 25, 50, 75, 100];
    let plane = SymbolicPlane::derive(&chip, 8, &template, &pcts).unwrap();
    for &pct in &pcts {
        let mut scaled = chip;
        scaled.link.bytes_per_cycle *= f64::from(pct) / 100.0;
        let machine = Machine::homogeneous(scaled, 8);
        for n in [1, 7, cfg.n_layers, 300] {
            assert_eq!(
                plane.eval(pct, n).expect("pct in plane"),
                machine.run_periodic(&template, n).unwrap(),
                "bw {pct}% n_blocks={n}"
            );
        }
    }
    assert!(plane.warmups() <= pcts.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Symbolic == periodic == full on randomized model configurations:
    /// random architecture, chip count, mode, depth, link bandwidth, and
    /// L2 budget (which moves the residency crossovers).
    #[test]
    fn prop_randomized_models_symbolic_lockstep(
        embed_i in 0usize..3,
        heads in prop::sample::select(vec![2usize, 4, 8]),
        kv_div in prop::sample::select(vec![1usize, 2]),
        ffn_mul in prop::sample::select(vec![1usize, 2, 4]),
        seq in prop::sample::select(vec![8usize, 32, 128]),
        chips in prop::sample::select(vec![1usize, 2, 4, 8]),
        prompt in prop::sample::select(vec![false, true]),
        n_blocks in 1usize..40,
        bw_pct in prop::sample::select(vec![25u32, 50, 100]),
        l2_fraction in prop::sample::select(vec![0.2f64, 0.75]),
    ) {
        let embed = [128usize, 256, 512][embed_i];
        prop_assume!(heads <= embed && embed.is_multiple_of(heads));
        let mut cfg = TransformerConfig::tiny_llama_42m();
        cfg.name = "randomized".to_owned();
        cfg.embed_dim = embed;
        cfg.n_heads = heads;
        cfg.n_kv_heads = heads / kv_div;
        cfg.ffn_dim = embed * ffn_mul;
        cfg.seq_len = seq;
        prop_assume!(cfg.validate().is_ok());
        let mode = if prompt { InferenceMode::Prompt } else { InferenceMode::Autoregressive };
        let mut chip = ChipSpec::siracusa();
        chip.link.bytes_per_cycle *= f64::from(bw_pct) / 100.0;
        chip.l2_usable_fraction = l2_fraction;
        prop_assume!(Scheduler::new(&cfg, chips, &chip).is_ok());
        let template = Scheduler::new(&cfg, chips, &chip).unwrap().block_programs(mode);
        let machine = Machine::homogeneous(chip, chips);
        let Some(model) = SymbolicMakespan::derive(&machine, &template).unwrap() else {
            // Unprovable fixed point: covered by the periodic fallback suite.
            return Ok(());
        };
        let sym = model.eval(n_blocks);
        let fast = machine.run_periodic(&template, n_blocks).unwrap();
        let full = machine.run(&concat_shifted(&template, n_blocks)).unwrap();
        prop_assert_eq!(&sym, &fast);
        prop_assert_eq!(&sym, &full);
        prop_assert_eq!(model.makespan(n_blocks), sym.makespan);
    }
}

/// `true` when, in the joint two-block run, some send of the second
/// block is issued no later than some send of the first: the blocks
/// overlap in global time, which only per-receiver separation can prove.
fn blocks_overlap_globally(machine: &Machine, template: &[Program]) -> bool {
    let (_, trace) = machine.run_traced(&concat_shifted(template, 2)).unwrap();
    let per_block: Vec<usize> = template
        .iter()
        .map(|p| p.instrs().iter().filter(|i| matches!(i, Instr::Send { .. })).count())
        .collect();
    let mut seen = vec![0usize; template.len()];
    let (mut first_max, mut second_min) = (0, u64::MAX);
    for event in trace.events() {
        if let TraceKind::Send { .. } = event.kind {
            if seen[event.chip] < per_block[event.chip] {
                first_max = first_max.max(event.start);
            } else {
                second_min = second_min.min(event.start);
            }
            seen[event.chip] += 1;
        }
    }
    second_min <= first_max
}

#[test]
fn overlapping_block_pipelines_prove_and_match_full_simulation() {
    // Design points whose consecutive blocks overlap in global time but
    // never on one receiver port: each must prove a fixed point and
    // answer every depth exactly.
    let (ar, pr) = (InferenceMode::Autoregressive, InferenceMode::Prompt);
    let mut points = vec![(ModelPreset::TinyLlama, pr, 8, 10)];
    for chips in [16, 32, 64] {
        for mode in [ar, pr] {
            for pct in [10, 50, 100] {
                points.push((ModelPreset::TinyLlamaScaled64h, mode, chips, pct));
            }
        }
    }
    let n_points = points.len();
    let mut overlapping = 0usize;
    for (preset, mode, chips, pct) in points {
        let scenario = Scenario::new(preset.config(mode), mode, chips)
            .with_topology(TopologySpec::Flat)
            .with_link_bw_pct(pct)
            .unwrap();
        let context = format!("{} {mode} x{chips} flat {pct}%", scenario.config.name);
        let compiled = scenario.compile_schedule().unwrap();
        let template = compiled.template();
        let machine = Machine::homogeneous(scenario.chip(), chips);
        let model = SymbolicMakespan::derive(&machine, template)
            .unwrap()
            .unwrap_or_else(|| panic!("no fixed point: {context}"));
        let overlaps = blocks_overlap_globally(&machine, template);
        overlapping += usize::from(overlaps);
        let mut depths = vec![5, 8, 25, 32, 128];
        if chips == 8 {
            assert!(overlaps, "blocks do not overlap globally: {context}");
            depths.push(512);
        }
        for n in depths {
            let full = machine.run(&concat_shifted(template, n)).unwrap();
            assert_eq!(model.eval(n), full, "symbolic != full: {context} n_blocks={n}");
            assert_eq!(model.makespan(n), full.makespan, "closed form: {context} n_blocks={n}");
            assert_eq!(
                machine.run_periodic(template, n).unwrap(),
                full,
                "periodic != full: {context} n_blocks={n}"
            );
        }
    }
    // Most points overlap globally; the rest keep the suite honest on
    // pipelines that were already separated.
    assert!(4 * overlapping >= 3 * n_points, "only {overlapping} of {n_points} points overlap");
}

/// A hub-and-spokes template: every spoke computes a skewed amount, sends
/// its partial to the hub (chip 0), and waits for the hub's reply; the
/// hub gathers in a random order, reduces, and replies to every spoke.
/// Fast spokes start their next block while the hub still replies to slow
/// ones, so consecutive blocks overlap in global time, yet every
/// receiver port sees one block's sends strictly before the next's.
fn converging_template(n_chips: usize, seed: u64) -> Vec<Program> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let reply = |c: usize| (n_chips + c) as u64;
    let mut spokes: Vec<usize> = (1..n_chips).collect();
    let mut programs = vec![Program::new(); n_chips];
    for &c in &spokes {
        let p = &mut programs[c];
        // Skewed compute: spoke c works about c^2 times as long as spoke 1.
        let n = (next() % 64 + 32) as usize;
        p.push(Instr::compute(Kernel::gemv(n * c * c, 64)));
        p.push(Instr::send(0, c as u64, next() % 8_000 + 512));
        p.push(Instr::recv(0, reply(c)));
    }
    for i in (1..spokes.len()).rev() {
        spokes.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let hub = &mut programs[0];
    for &c in &spokes {
        hub.push(Instr::recv(c, c as u64));
    }
    hub.push(Instr::compute(Kernel::Add { n: (next() % 4096 + 64) as usize }));
    for c in 1..n_chips {
        hub.push(Instr::send(c, reply(c), next() % 8_000 + 512));
    }
    programs
}

#[test]
fn converging_senders_with_skewed_compute_prove_per_receiver() {
    let mut chip = ChipSpec::siracusa();
    chip.link.bytes_per_cycle *= 0.1;
    let mut overlapping = 0usize;
    let seeds = 0u64..24;
    let n_seeds = seeds.end as usize;
    for seed in seeds {
        let n_chips = 3 + (seed % 4) as usize;
        let template = converging_template(n_chips, seed);
        let machine = Machine::homogeneous(chip, n_chips);
        let context = format!("seed {seed} x{n_chips}");
        let model = SymbolicMakespan::derive(&machine, &template)
            .unwrap()
            .unwrap_or_else(|| panic!("no fixed point: {context}"));
        overlapping += usize::from(blocks_overlap_globally(&machine, &template));
        for n in [1, 2, 3, 5, 8, 25, 32, 128] {
            let full = machine.run(&concat_shifted(&template, n)).unwrap();
            assert_eq!(model.eval(n), full, "symbolic != full: {context} n_blocks={n}");
            assert_eq!(machine.run_periodic(&template, n).unwrap(), full, "{context} n={n}");
        }
    }
    assert!(4 * overlapping >= 3 * n_seeds, "only {overlapping} of {n_seeds} seeds overlap");
}

#[test]
fn interleaved_sends_on_one_receiver_port_stay_unproven() {
    // Spokes with unequal compute feed one port of chip 0, and nothing
    // holds the fast spokes back: a fast spoke issues its next block's
    // send before a slow spoke's send of the current block, so blocks
    // interleave on port 0 and block-by-block simulation would arbitrate
    // that port in the wrong order. With two spokes the interleaving
    // shows between the first two segments; with three, the warmup
    // reaches a uniform delta first, and only the steady-state window
    // (wider than one delta on port 0) betrays it.
    // Spoke `c` computes `spokes[c - 1]` GEMV rows and sends message `c`
    // to the hub, which gathers the slowest spoke first.
    let gather = |spokes: &[usize], bytes: u64| {
        let hub = (1..=spokes.len()).rev().map(|c| Instr::recv(c, c as u64));
        let mut programs = vec![Program::from_instrs(hub)];
        for (c, &rows) in (1..).zip(spokes) {
            programs.push(Program::from_instrs([
                Instr::compute(Kernel::gemv(rows, 64)),
                Instr::send(0, c as u64, bytes),
            ]));
        }
        programs
    };
    for (spokes, bytes) in [(vec![1, 1024], 4_096), (vec![104, 809, 1290], 16_384)] {
        let template = gather(&spokes, bytes);
        let machine = Machine::homogeneous(ChipSpec::siracusa(), template.len());
        assert!(
            SymbolicMakespan::derive(&machine, &template).unwrap().is_none(),
            "proved interleaved spokes {spokes:?}"
        );
        for n in [2, 3, 5, 8, 25, 32, 128] {
            let full = machine.run(&concat_shifted(&template, n)).unwrap();
            assert_eq!(machine.run_periodic(&template, n).unwrap(), full, "n_blocks={n}");
        }
    }
}
