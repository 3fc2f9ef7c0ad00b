//! The repository benchmark: times the `mtp` library crates end to end
//! and layer by layer on four seeded, oracle-checked workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload design_space --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: a query starts only
//! after the previous answer returned and was checked. With `--trace 0`
//! the run reports the end-to-end metrics; with `--trace 1` it runs the
//! same queries untraced for half the time and traced for the other
//! half, and reports the per-layer metrics and the tracing overhead.
//! Human-readable lines start with `#`; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics.

mod decode;
mod host;
mod paper;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workload;

use decode::FunctionalDecode;
use host::HostRecord;
use paper::PaperPoints;
use serve::ServeOpenLoop;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use sweep::{Kind, SweepWorkload};
use trace::Tracer;
use workload::{Counters, Workload};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] =
    ["design_space", "contended_sweep", "serve_open_loop", "functional_decode"];

/// Every `DEEP_EVERY`-th query (query 0 included) also runs the
/// workload's expensive oracles.
const DEEP_EVERY: u64 = 16;

/// Child processes whose start-up is timed for `setup_s`, in each of two
/// rounds (before and after the timed loop, so that the median spans the
/// host's state over the whole run): at least the minimum, then more
/// until a second of probing, up to the maximum.
const SETUP_PROBES: (usize, usize) = (5, 400);

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up, print `ready`, exit (the `setup_s` probe).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload =
                    Some(*WORKLOADS.iter().find(|&&k| k == w).ok_or(format!(
                        "unknown workload `{w}` (expected one of {WORKLOADS:?})"
                    ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds wants an integer")?;
                if s == 0 {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        "design_space" => bench(&args, |seed, _| Ok(SweepWorkload::new(Kind::DesignSpace, seed))),
        "contended_sweep" => bench(&args, |seed, _| Ok(SweepWorkload::new(Kind::Contended, seed))),
        "serve_open_loop" => bench(&args, ServeOpenLoop::new),
        _ => bench(&args, FunctionalDecode::new),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the timed loop observed.
#[derive(Debug, Default)]
struct LoopStats {
    latencies: Vec<Duration>,
    digests: Vec<u64>,
    /// Work items the successful queries completed.
    items: u64,
    busy: Duration,
    /// Queries whose run or oracles failed.
    failed: BTreeSet<u64>,
    check_time: Duration,
}

/// Runs queries `0, 1, ...` until their summed run time reaches
/// `budget`. Outputs are checked between queries, outside the timed
/// region; `reference` holds the digests another pass over the same
/// query ids produced, which this pass must reproduce.
fn timed_loop<W: Workload>(
    w: &mut W,
    budget: Duration,
    mut tracer: Option<(&mut Tracer, &mut Counters)>,
    reference: &[u64],
    errors: &mut Vec<String>,
) -> LoopStats {
    let mut st = LoopStats::default();
    let mut q = 0u64;
    while st.busy < budget {
        let query = w.prepare(q);
        let t0 = Instant::now();
        let out = match tracer.as_mut() {
            None => w.run(&query),
            Some((t, c)) => {
                t.set_query(q);
                let open = t.enter("bench.query");
                let out = w.run_traced(&query, t, c);
                t.exit(open);
                out
            }
        };
        let dt = t0.elapsed();
        st.busy += dt;
        st.latencies.push(dt);
        let c0 = Instant::now();
        let verdict = out.and_then(|out| {
            if let Some((t, c)) = tracer.as_mut() {
                w.tally(&query, &out, t, c);
            }
            st.items += w.items(&out);
            let digest = w.digest(&out);
            st.digests.push(digest);
            w.check(&query, &out)?;
            if reference.get(q as usize).is_some_and(|&r| r != digest) {
                return Err("the traced query's output differs from the untraced one".to_owned());
            }
            if q.is_multiple_of(DEEP_EVERY) {
                w.deep_check(&query, &out)?;
            }
            Ok(())
        });
        if let Err(e) = verdict {
            st.failed.insert(q);
            errors.push(format!("query {q}: {e}"));
        }
        st.check_time += c0.elapsed();
        q += 1;
    }
    st
}

/// Runs the workload's end-of-run oracles over the last pass's
/// queries; returns how many queries of that pass failed in total.
fn finish<W: Workload>(w: &mut W, last: &LoopStats, errors: &mut Vec<String>) -> u64 {
    let mut failed = last.failed.clone();
    for (q, e) in w.finish() {
        errors.push(format!("query {q}: {e}"));
        failed.insert(q);
    }
    failed.len() as u64
}

/// One round of set-up probes, appended to `samples`: the time from
/// spawning this program in probe mode to its `ready` line, which is
/// process start-up plus the workload's set-up, up to the first timed
/// query.
fn probe_setup(args: &Args, samples: &mut Vec<f64>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let (min, max) = SETUP_PROBES;
    let (mut n, mut spent) = (0, 0.0);
    while n < min || (n < max && spent < 1.0) {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", args.workload, "--seed", &args.seed.to_string(), "--setup-probe"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the set-up probe: {e}"))?;
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line).map_err(|e| e.to_string()),
            None => Err("probe has no stdout".to_owned()),
        };
        let dt = t0.elapsed();
        let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
        read?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
        samples.push(dt.as_secs_f64());
        n += 1;
        spent += dt.as_secs_f64();
    }
    Ok(())
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// Runs one workload end to end and prints its result.
fn bench<W: Workload>(
    args: &Args,
    setup: impl Fn(u64, &mut Tracer) -> Result<W, String>,
) -> Result<(), String> {
    if args.setup_probe {
        let mut w = setup(args.seed, &mut Tracer::new())?;
        let _ = w.prepare(0);
        println!("ready");
        return Ok(());
    }
    // Probe while this process is not set up, so that two copies of a
    // large model are never resident at once.
    let mut setup_samples = Vec::new();
    if !args.trace {
        probe_setup(args, &mut setup_samples)?;
    }
    let host = HostRecord::probe();
    println!("# host {}", host.to_json(args.workload, args.seed));
    let t0 = Instant::now();
    let mut setup_tracer = Tracer::new();
    let mut w = setup(args.seed, &mut setup_tracer)?;
    let own_setup = t0.elapsed();
    let budget = Duration::from_secs(args.seconds);
    let mut errors = Vec::new();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (attempted, failed);
    if args.trace {
        // Same query ids twice: untraced, then traced. The traced outputs
        // must equal the untraced ones.
        let plain = timed_loop(&mut w, budget / 2, None, &[], &mut errors);
        w.restart();
        let (mut tracer, mut counters) = (Tracer::new(), Counters::default());
        let traced = timed_loop(
            &mut w,
            budget / 2,
            Some((&mut tracer, &mut counters)),
            &plain.digests,
            &mut errors,
        );
        attempted = (plain.latencies.len() + traced.latencies.len()) as u64;
        failed = plain.failed.len() as u64 + finish(&mut w, &traced, &mut errors);
        let points = paper_points(args, &mut errors);
        per_layer(
            &plain,
            &traced,
            &tracer,
            &setup_tracer,
            &counters,
            points.as_ref(),
            &mut metrics,
        );
        let path = trace_path(args);
        match tracer.write_chrome(&path) {
            Ok(()) => println!("# trace {} spans written to {}", tracer.len(), path.display()),
            Err(e) => errors.push(format!("cannot write the trace: {e}")),
        }
    } else {
        let st = timed_loop(&mut w, budget, None, &[], &mut errors);
        // The peak of the set-up and the timed queries, before the
        // end-of-run oracles and reference simulations allocate.
        let rss = host::peak_rss_mb()?;
        attempted = st.latencies.len() as u64;
        failed = finish(&mut w, &st, &mut errors);
        let points = paper_points(args, &mut errors);
        drop(w);
        probe_setup(args, &mut setup_samples)?;
        let (setup_s, probes) = (stats::median(&setup_samples), setup_samples.len());
        let lat = stats::summarize(&st.latencies);
        let items_per_s = st.items as f64 / st.busy.as_secs_f64();
        let item = match args.workload {
            "design_space" | "contended_sweep" => "scenarios_per_s",
            "serve_open_loop" => "requests_per_s",
            _ => "tokens_per_s",
        };
        println!(
            "# setup: {setup_s:.4} s median of {probes} probe processes; in-process set-up {:.4} s",
            own_setup.as_secs_f64()
        );
        println!(
            "# queries: {} in {:.3} s busy, checks {:.3} s; {item} = {items_per_s:.1} 1/s",
            lat.n,
            st.busy.as_secs_f64(),
            st.check_time.as_secs_f64()
        );
        println!(
            "# query_tail_ms is p{} with {} of {} samples beyond it",
            lat.tail_pct, lat.tail_beyond, lat.n
        );
        println!(
            "# error_ratio = {failed}/{attempted} = {}",
            failed as f64 / attempted.max(1) as f64
        );
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("query_p50_ms".into(), lat.p50_ms, "ms"));
        metrics.push(("query_tail_ms".into(), lat.tail_ms, "ms"));
        metrics.push(("items_per_s".into(), items_per_s, "1/s"));
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
        if let Some(points) = &points {
            let units = ["sim_ms", "sim_mJ", "x", "sim_ms", "sim_ms", "sim_1/s"];
            for ((name, v), unit) in points.metrics().into_iter().zip(units) {
                metrics.push((name.into(), v, unit));
            }
        }
    }
    for e in &errors {
        println!("# FAILED {e}");
    }
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    print_result(errors.is_empty() && failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// The simulated reference points, with their paper claims printed.
fn paper_points(args: &Args, errors: &mut Vec<String>) -> Option<PaperPoints> {
    let points =
        ServeOpenLoop::new(args.seed, &mut Tracer::new()).and_then(|s| PaperPoints::compute(&s));
    match points {
        Ok(p) => {
            for claim in p.claims() {
                println!("{}", claim.line());
            }
            Some(p)
        }
        Err(e) => {
            errors.push(format!("simulated reference points: {e}"));
            None
        }
    }
}

/// Where the traced run writes its spans: beside the build, which the
/// benchmark's checkout ignores.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().and_then(|d| d.parent()).map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    dir.join("perfbench-traces").join(format!("{}-seed{}.json", args.workload, args.seed))
}

/// The per-layer metrics of a traced run.
fn per_layer(
    plain: &LoopStats,
    traced: &LoopStats,
    tracer: &Tracer,
    setup: &Tracer,
    c: &Counters,
    points: Option<&PaperPoints>,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let q = traced.latencies.len().max(1) as f64;
    let names = tracer.by_name();
    let setup_names = setup.by_name();
    let span = |n: &str| names.get(n).copied().unwrap_or_default();
    let per_query_ms = |n: &str| span(n).busy_ns as f64 / 1e6 / q;
    let per_query = |n: &str| span(n).count as f64 / q;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_setup_ms = |n: &str| {
        let t = setup_names.get(n).copied().unwrap_or_default();
        ratio(t.busy_ns as f64 / 1e6, t.count as f64)
    };
    let mut push = |name: &str, v: f64, unit: &'static str| out.push((name.to_owned(), v, unit));

    push("core.schedule.compiles", per_query("core.schedule.compile"), "count");
    push("core.schedule.compile_ms", per_query_ms("core.schedule.compile"), "ms");
    push(
        "harness.sweep.schedule_reuse_ratio",
        ratio(c.get("harness.sweep.scenarios"), span("core.schedule.compile").count as f64),
        "ratio",
    );
    push("sim.steady.derives", per_query("sim.steady.derive"), "count");
    push("sim.steady.derive_ms", per_query_ms("sim.steady.derive"), "ms");
    push(
        "sim.steady.proven_ratio",
        ratio(c.get("sim.steady.proven"), span("sim.steady.derive").count as f64),
        "ratio",
    );
    push("sim.exec.runs", per_query("sim.exec.run"), "count");
    push("sim.exec.busy_ms", per_query_ms("sim.exec.run"), "ms");
    push(
        "sim.exec.ns_per_instr",
        ratio(span("sim.exec.run").busy_ns as f64, c.get("sim.exec.instrs")),
        "ns",
    );
    push("sim.steady.fallback_ms", per_query_ms("sim.steady.fallback"), "ms");
    push("sim.periodic.runs", per_query("sim.periodic.run"), "count");
    push("sim.periodic.busy_ms", per_query_ms("sim.periodic.run"), "ms");
    push("link.queue_cycles", c.get("link.queue_cycles"), "cycles");
    push("link.drops", c.get("link.drops"), "count");
    push("link.retransmits", c.get("link.retransmits"), "count");
    push("sim.fault.downtime_cycles", c.get("sim.fault.downtime_cycles"), "cycles");
    push("harness.sweep.serialize_ms", per_query_ms("harness.sweep.serialize"), "ms");
    push("harness.advisor.advise_ms", per_query_ms("harness.advisor.advise"), "ms");
    push("harness.advisor.compiled", c.get("harness.advisor.compiled") / q, "count");
    push("harness.advisor.warmups", c.get("harness.advisor.warmups") / q, "count");
    push("model.arrivals.gen_ms", per_query_ms("model.arrivals.gen"), "ms");
    push("core.serve.simulate_ms", per_query_ms("core.serve.simulate"), "ms");
    push("core.serve.passes", c.get("core.serve.passes") / q, "count");
    push(
        "core.serve.pass_memo_hit_ratio",
        ratio(
            c.get("core.serve.passes") - c.get("core.serve.pass_shapes"),
            c.get("core.serve.passes"),
        ),
        "ratio",
    );
    push("harness.serve.row_ms", per_query_ms("harness.serve.row"), "ms");
    push("harness.serve.latency_bytes", c.get("harness.serve.latency_bytes"), "bytes");
    push("core.functional.block_forward_ms", per_query_ms("core.functional.block_forward"), "ms");
    push("model.embed_ms", per_query_ms("model.embed"), "ms");
    push("model.logits_ms", per_query_ms("model.logits"), "ms");
    push(
        "tensor.gemv_gflops",
        ratio(c.get("tensor.gemv_flops"), span("tensor.gemv").busy_ns as f64),
        "GFLOP/s",
    );
    push("model.weights_seed_ms", per_setup_ms("model.weights_seed"), "ms");
    push("core.functional.new_ms", per_setup_ms("core.functional.new"), "ms");
    if let Some(points) = points {
        for (name, v) in points.breakdowns() {
            let unit = if name.ends_with("_bytes") { "bytes" } else { "cycles" };
            push(&name, v, unit);
        }
    }
    let layers = tracer.by_layer();
    for layer in ["bench", "harness", "core", "sim", "model", "tensor"] {
        let t = layers.get(layer).copied().unwrap_or_default();
        push(&format!("layer.{layer}.busy_ms"), t.busy_ns as f64 / 1e6 / q, "ms");
        push(&format!("layer.{layer}.self_ms"), t.self_ns as f64 / 1e6 / q, "ms");
        push(&format!("layer.{layer}.calls"), t.count as f64 / q, "count");
    }
    // Overhead over the query ids both passes ran.
    let n = plain.latencies.len().min(traced.latencies.len());
    let traced_p50 = stats::summarize(&traced.latencies[..n]).p50_ms;
    let plain_p50 = stats::summarize(&plain.latencies[..n]).p50_ms;
    push("trace.query_p50_ms", traced_p50, "ms");
    push("trace.overhead_ms", traced_p50 - plain_p50, "ms");
    push("trace.spans_per_query", tracer.len() as f64 / q, "count");
}
