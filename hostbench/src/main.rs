//! `hostbench`: the host-time benchmark of the ObfusMem simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path hostbench/Cargo.toml -- digest
//! ```
//!
//! A run repeats whole passes of one workload on the main thread until
//! `--seconds` is spent, then checks the simulated output and prints
//! every metric by name and unit, ending with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, built from each
//! job's fastest pass and scaled to a host of nominal speed (see
//! [`end_to_end`]); with `--trace 1`
//! the run alternates untraced and traced passes and reports the
//! per-layer metrics, a self-time rollup per layer, and the spans (written
//! to `hostbench/out/`). `digest` prints the digest table of the
//! program's own output that the check compares against.

mod check;
mod exec;
mod layers;
mod plan;
mod record;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use obfusmem_bench::experiments::{fig4_average, Fig4Row, PAPER_FIG4_AVG};
use obfusmem_cpu::workload::table1_workloads;
use obfusmem_harness::job::JobSpec;
use obfusmem_harness::jsonl::JsonObject;
use obfusmem_harness::measure::Scheme;
use obfusmem_harness::runner::{run_sweep, RunOptions};
use obfusmem_harness::spec::SweepSpec;
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_tenant::fabric::tenant_handshake;

use check::{Unit, Verdict};
use exec::{CellRun, JobRun};
use layers::{Layers, Probes, Traced};
use plan::Plan;
use stats::{median, percentile, tail};
use trace::Tracer;

/// Where runs write their spans, run records and probe files.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Seeds `digest` covers.
const DIGEST_SEEDS: std::ops::RangeInclusive<u64> = 0..=15;

/// Fewest passes an untraced run makes, so every piece of work has a
/// fastest pass to be taken at.
const MIN_PASSES: usize = 3;

/// Runs of the reference kernel before each pass.
const REFERENCE_SAMPLES: usize = 16;

/// Handshakes the traced serve run times on their own.
const DH_PROBES: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(1..=600).contains(&out.seconds) {
        return Err(format!("--seconds must be 1..=600, got {}", out.seconds));
    }
    Ok(out)
}

/// What one pass ran.
enum PassOut {
    /// Each job.
    Grid(Vec<JobRun>),
    Serve(CellRun),
}

struct Pass {
    out: PassOut,
    start: Instant,
    end: Instant,
    timed: bool,
    /// The reference kernel's fastest time just before the pass.
    reference_ns: u64,
}

impl Pass {
    fn wall_ns(&self) -> u64 {
        exec::ns(self.start, self.end)
    }

    /// Wall time less the core replays a traced pass runs after its jobs.
    fn unreplayed_ns(&self) -> u64 {
        match &self.out {
            PassOut::Grid(jobs) => {
                let replays: u64 = jobs.iter().map(|j| j.replay.total_ns).sum();
                self.wall_ns().saturating_sub(replays)
            }
            PassOut::Serve(_) => self.wall_ns(),
        }
    }

    /// The pass cut into the pieces of work every pass repeats, in plan
    /// order: (host ns, set-up ns within it) of each grid job through its
    /// row, or of the serve cell's fabric construction and then each
    /// `run_chunk`.
    fn pieces(&self) -> Vec<(f64, f64)> {
        match &self.out {
            PassOut::Grid(jobs) => jobs
                .iter()
                .map(|j| {
                    (
                        exec::ns(j.t.start, j.t.rendered) as f64,
                        j.t.setup_ns() as f64,
                    )
                })
                .collect(),
            PassOut::Serve(c) => {
                let setup = c.setup_ns() as f64;
                std::iter::once((setup, setup))
                    .chain(c.chunks.iter().map(|k| (k.ns() as f64, 0.0)))
                    .collect()
            }
        }
    }

    fn requests(&self) -> u64 {
        match &self.out {
            PassOut::Grid(jobs) => jobs.iter().map(JobRun::requests).sum(),
            PassOut::Serve(c) => c.requests(),
        }
    }

    fn job_ms(&self) -> Vec<f64> {
        let ms = |ns: u64| ns as f64 / 1e6;
        match &self.out {
            PassOut::Grid(jobs) => jobs.iter().map(|j| ms(j.t.wall_ns())).collect(),
            PassOut::Serve(c) => c.jobs().map(|k| ms(k.ns())).collect(),
        }
    }

    fn units(&self) -> Vec<Unit> {
        match &self.out {
            PassOut::Grid(jobs) => jobs
                .iter()
                .map(|j| Unit {
                    row: j.row.clone(),
                    weight: 1,
                    sim_failures: j.sim_failures,
                })
                .collect(),
            PassOut::Serve(c) => vec![Unit {
                row: c.row.clone(),
                weight: c.served,
                sim_failures: c.auth_failures,
            }],
        }
    }
}

fn run_pass(plan: &Plan, timed: bool) -> Result<Pass, String> {
    let reference_ns = record::reference_ns(REFERENCE_SAMPLES);
    let start = Instant::now();
    let out = match plan {
        Plan::Grid { jobs, .. } => PassOut::Grid(
            jobs.iter()
                .map(|j| {
                    let mut run = exec::run_job(j, timed)?;
                    if !timed {
                        // Only traced passes read the snapshot; dropping it
                        // keeps the benchmark's own memory out of peak RSS.
                        run.metrics = MetricsNode::new();
                    }
                    Ok(run)
                })
                .collect::<Result<_, String>>()?,
        ),
        Plan::Serve { spec, .. } => {
            PassOut::Serve(exec::run_cell(spec, spec.tenants[0], spec.churns[0])?)
        }
    };
    Ok(Pass {
        out,
        start,
        end: Instant::now(),
        timed,
        reference_ns,
    })
}

/// Runs passes until `seconds` are spent (never fewer than `min`, never
/// more than `max`); a traced run alternates untraced and traced passes.
fn run_passes(plan: &Plan, seconds: u64, traced: bool) -> Result<Vec<Pass>, String> {
    let (min, max) = (if traced { 2 } else { MIN_PASSES }, 64);
    let deadline = Duration::from_secs(seconds);
    let began = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let timed = traced && passes.len() % 2 == 1;
        let pass = run_pass(plan, timed)?;
        let last = Duration::from_nanos(pass.wall_ns());
        passes.push(pass);
        if passes.len() >= max || (passes.len() >= min && began.elapsed() + last > deadline) {
            return Ok(passes);
        }
    }
}

fn verify(plan: &Plan, passes: &[Pass], seed: u64) -> Result<Verdict, String> {
    let units: Vec<Vec<Unit>> = passes.iter().map(Pass::units).collect();
    let n = units.first().map_or(0, Vec::len);
    let expected = check::expected_digest(check::DIGESTS, plan.name(), seed);
    let indices = match plan {
        Plan::Grid { .. } => check::cross_checked(n, expected.is_some(), seed),
        Plan::Serve { .. } => vec![0],
    };
    let program = check::program_rows(plan, &indices)?;
    Ok(check::verify(&units, &program, expected))
}

/// Simulated Fig 4 averages of a paper-grid pass and their mean absolute
/// gap to the paper's, in percentage points.
fn paper_error(plan: &Plan, pass: &Pass) -> Option<(Fig4Row, f64)> {
    let (Plan::Grid { jobs, .. }, PassOut::Grid(runs)) = (plan, &pass.out) else {
        return None;
    };
    let result_of = |w: &str, s: Scheme| {
        jobs.iter()
            .zip(runs)
            .find(|(j, _)| j.workload == w && j.scheme == s)
            .map(|(_, r)| &r.result)
    };
    let rows: Vec<Fig4Row> = table1_workloads()
        .iter()
        .map(|w| {
            let base = result_of(w.name, Scheme::Unprotected)?;
            let ovh = |s| result_of(w.name, s).map(|r| r.overhead_vs(base));
            Some(Fig4Row {
                name: w.name,
                encrypt_only: ovh(Scheme::EncryptOnly)?,
                obfusmem: ovh(Scheme::Obfusmem)?,
                obfusmem_auth: ovh(Scheme::ObfusmemAuth)?,
            })
        })
        .collect::<Option<_>>()?;
    let avg = fig4_average(&rows);
    let (e, o, a) = PAPER_FIG4_AVG;
    let err =
        ((avg.encrypt_only - e).abs() + (avg.obfusmem - o).abs() + (avg.obfusmem_auth - a).abs())
            / 3.0;
    Some((avg, err))
}

/// Host speed of a run: the reference kernel's nominal time over its
/// fastest time before any pass (1 on a host as fast as the nominal one,
/// below 1 on a slower one).
fn host_speed(passes: &[Pass]) -> f64 {
    let fastest = passes
        .iter()
        .map(|p| p.reference_ns)
        .min()
        .unwrap_or(u64::MAX);
    record::REFERENCE_NOMINAL_NS / fastest as f64
}

/// End-to-end metrics of an untraced run. Every pass repeats the same
/// simulations piece by piece (see [`Pass::pieces`]), and a busy host
/// only ever adds time to a piece, so each piece is taken at its fastest
/// pass: a slow stretch of host time then inflates only the pieces that
/// no other pass ran faster. `wall_s` and `setup_s` sum those fastest
/// pieces; the job times are the fastest pass of each job. A host that
/// stays slow for a whole run slows the fastest passes too, so every
/// time is scaled by [`host_speed`], the same run's fastest reference
/// kernel: the times are host time on a host as fast as the nominal one.
fn end_to_end(passes: &[Pass]) -> Result<(Vec<f64>, stats::Tail), String> {
    let speed = host_speed(passes);
    let pieces: Vec<Vec<(f64, f64)>> = passes.iter().map(Pass::pieces).collect();
    let fastest = |part: fn(&(f64, f64)) -> f64| {
        let rows: Vec<Vec<f64>> = pieces
            .iter()
            .map(|p| p.iter().map(part).collect())
            .collect();
        stats::fastest(&rows)
    };
    let wall_s = fastest(|p| p.0).iter().sum::<f64>() * speed / 1e9;
    let setup_s = fastest(|p| p.1).iter().sum::<f64>() * speed / 1e9;
    let requests = passes.first().map_or(0, Pass::requests) as f64;
    let jobs: Vec<f64> = stats::fastest(&passes.iter().map(Pass::job_ms).collect::<Vec<_>>())
        .into_iter()
        .map(|ms| ms * speed)
        .collect();
    let t = tail(&jobs).ok_or_else(|| format!("{} jobs are too few for a tail", jobs.len()))?;
    Ok((
        vec![
            wall_s,
            setup_s,
            requests / 1e6 / (wall_s - setup_s),
            percentile(&jobs, 500),
            t.value,
            record::peak_rss_mb()?,
        ],
        t,
    ))
}

/// Records the spans of every traced pass. A grid job's layers are each
/// measured on their own, so the job's self time (its residual) is
/// whatever they fail to account for: backend construction, the stream
/// set-up before the first request, the summed backend calls less the
/// probe's clock reads, the clock reads as calibrated, miss generation as
/// the stream probe prices it, the core as its replay prices it, the
/// drain, and the row. A serve cell's spans are the fabric construction
/// and each `run_chunk`, whole program calls, so its residual is only
/// the time between them.
fn record_spans(plan: &Plan, passes: &[Pass], probes: &Probes, tracer: &mut Tracer) {
    for pass in passes.iter().filter(|p| p.timed) {
        match (&pass.out, plan) {
            (PassOut::Grid(runs), Plan::Grid { jobs, .. }) => {
                for (spec, run) in jobs.iter().zip(runs) {
                    let (t, reqs) = (run.t, run.requests());
                    let job = tracer.next_job();
                    let root = tracer.span("job", job, None, t.start, t.rendered);
                    let at = Some(root);
                    tracer.span("core.backend_new", job, at, t.start, t.built);
                    tracer.span("cpu.stream_setup", job, at, t.built, t.first);
                    let label = format!("backend[{}]", layers::backend_label(spec));
                    let net = t.backend_net_ns(probes.timer_ns);
                    tracer.busy(&label, job, at, t.first, net, t.calls);
                    let clock = (2.0 * probes.timer_ns * t.calls as f64) as u64;
                    tracer.busy("trace.probe", job, at, t.first, clock, t.calls);
                    let gen = probes.gen_ns(spec, run);
                    tracer.busy("cpu.gen (stream probe)", job, at, t.first, gen, reqs);
                    let core = probes.core_ns(spec, run);
                    tracer.busy("cpu.core (replay)", job, at, t.first, core, reqs);
                    tracer.span("core.drain_posted", job, at, t.ran, t.drained);
                    tracer.span("harness.row", job, at, t.drained, t.rendered);
                }
            }
            (PassOut::Serve(cell), _) => {
                let job = tracer.next_job();
                let root = tracer.span("cell", job, None, cell.start, cell.done);
                tracer.span("tenant.fabric_new", job, Some(root), cell.start, cell.built);
                for k in &cell.chunks {
                    tracer.span("tenant.run_chunk", job, Some(root), k.start, k.end);
                }
            }
            _ => {}
        }
    }
}

/// Per-layer metrics of a traced run, including its probes.
fn per_layer(plan: &Plan, passes: &[Pass], seed: u64, probes: &Probes) -> Result<Layers, String> {
    let mut out = layers::zeroed();
    let timed: Vec<&Pass> = passes.iter().filter(|p| p.timed).collect();
    let untimed: Vec<f64> = passes
        .iter()
        .filter(|p| !p.timed)
        .map(|p| p.wall_ns() as f64)
        .collect();
    let traced: Vec<f64> = timed.iter().map(|p| p.unreplayed_ns() as f64).collect();
    out.insert(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untimed) - 1.0),
    );
    match plan {
        Plan::Grid { name, jobs, .. } => {
            let all: Vec<Traced> = timed
                .iter()
                .filter_map(|p| match &p.out {
                    PassOut::Grid(runs) => Some(jobs.iter().zip(runs)),
                    PassOut::Serve(_) => None,
                })
                .flatten()
                .collect();
            let one_pass = &all[..jobs.len().min(all.len())];
            match *name {
                "paper-grid" => {
                    layers::paper_grid(&mut out, &all, one_pass, probes);
                    out.insert("harness.overhead_ms", harness_probe(seed)?);
                }
                "faults" => {
                    let specs = plan::faults_control(seed)?;
                    let runs = traced_probe(&specs)?;
                    let control: Vec<Traced> = specs.iter().zip(&runs).collect();
                    layers::faults(&mut out, &all, one_pass, &control, probes);
                }
                _ => layers::oram_codesign(&mut out, &all, one_pass, probes),
            }
        }
        Plan::Serve { spec, .. } => {
            let cells: Vec<&CellRun> = timed
                .iter()
                .filter_map(|p| match &p.out {
                    PassOut::Serve(c) => Some(c),
                    PassOut::Grid(_) => None,
                })
                .collect();
            layers::serve(&mut out, &cells);
            let cfg = spec
                .fabric_config(spec.tenants[0], spec.churns[0])
                .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            for t in 0..DH_PROBES {
                tenant_handshake(&cfg, t).map_err(|e| e.to_string())?;
            }
            let dh_ms = t0.elapsed().as_secs_f64() * 1e3 / DH_PROBES as f64;
            out.insert("crypto.dh_ms_per_handshake", dh_ms);
            let w = spec.resolve_workload().map_err(|e| e.to_string())?;
            let (new_ns, ns, reqs) = layers::stream_probe(&w, seed, spec.requests);
            out.insert("cpu.stream_new_ms", new_ns as f64 / 1e6);
            out.insert("cpu.gen_ns_per_req", ns as f64 / reqs.max(1) as f64);
        }
    }
    Ok(out)
}

/// Runs `jobs` once with backend calls timed, outside any pass: the
/// fault-free control the faults layers are priced against.
fn traced_probe(jobs: &[JobSpec]) -> Result<Vec<JobRun>, String> {
    jobs.iter().map(|j| exec::run_job(j, true)).collect()
}

/// Host ms `run_sweep` (one thread, timing on) spends beyond the summed
/// wall time of its jobs, over the whole paper grid.
fn harness_probe(seed: u64) -> Result<f64, String> {
    let path = PathBuf::from(OUT_DIR).join(format!("harness-probe-{}.jsonl", std::process::id()));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    let spec = SweepSpec {
        schemes: Scheme::ALL.to_vec(),
        master_seed: seed,
        instructions: plan::PAPER_GRID_INSTRUCTIONS,
        ..SweepSpec::default()
    };
    let opts = RunOptions {
        threads: 1,
        timing: true,
        quiet: true,
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    run_sweep(&spec, &path, &opts).map_err(|e| e.to_string())?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rows = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let jobs_ms: f64 = rows
        .lines()
        .filter_map(|l| l.rsplit_once("\"wall_ms\":"))
        .filter_map(|(_, v)| v.trim_end_matches('}').parse::<f64>().ok())
        .sum();
    Ok(wall_ms - jobs_ms)
}

fn result_json(v: &Verdict, metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut body = Vec::new();
    for &(name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let m = JsonObject::new()
            .f64("value", value)
            .string("unit", unit)
            .finish();
        body.push(format!("\"{name}\":{m}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        v.failed == 0,
        v.attempted,
        v.failed,
        body.join(",")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let rec = record::Recorder::start();
    let plan = Plan::new(&args.workload, args.seed)?;
    let passes = run_passes(&plan, args.seconds, args.trace)?;
    let verdict = verify(&plan, &passes, args.seed)?;
    let jobs: usize = passes.iter().map(|p| p.job_ms().len()).sum();
    println!(
        "hostbench {} seed={} trace={} passes={} jobs={jobs} (host time, one thread)",
        plan.name(),
        args.seed,
        u8::from(args.trace),
        passes.len()
    );
    if let Some((avg, err)) = passes.first().and_then(|p| paper_error(&plan, p)) {
        let (e, o, a) = PAPER_FIG4_AVG;
        println!(
            "  simulated Fig 4 avg overhead: encrypt-only {:.2}% obfusmem {:.2}% obfusmem-auth {:.2}% \
             (paper {e}% {o}% {a}%) -> paper_err_pp {err:.3} pp",
            avg.encrypt_only, avg.obfusmem, avg.obfusmem_auth
        );
    } else {
        println!(
            "  no reference result for {}: simulated numbers are unvalidated",
            plan.name()
        );
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let probes = match &plan {
            Plan::Grid { jobs, .. } => Probes::measure(jobs)?,
            Plan::Serve { .. } => Probes::default(),
        };
        let mut tracer = Tracer::new();
        record_spans(&plan, &passes, &probes, &mut tracer);
        let mut layers = per_layer(&plan, &passes, args.seed, &probes)?;
        let roll = tracer.rollup();
        layers.insert("trace.residual_pct", roll.residual_pct());
        println!(
            "  self time per layer over traced {} (wall {:.1} ms):",
            if matches!(plan, Plan::Serve { .. }) {
                "cells"
            } else {
                "jobs"
            },
            roll.root_ns as f64 / 1e6
        );
        for (name, (own, calls)) in &roll.layers {
            println!(
                "    {name:<40} {:>10.2} ms {:>6.2}% {calls:>9} calls",
                *own as f64 / 1e6,
                100.0 * *own as f64 / roll.root_ns.max(1) as f64
            );
        }
        println!(
            "    {:<40} {:>10.2} ms {:>6.2}% (worst single {:.2}%){}",
            "residual (no layer)",
            roll.residual_ns as f64 / 1e6,
            roll.residual_pct(),
            roll.worst_pct,
            if matches!(plan, Plan::Serve { .. }) {
                ": only the time between program calls"
            } else {
                ""
            }
        );
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", plan.name(), args.seed));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        println!(
            "  spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, layers[name]))
            .collect()
    } else {
        let (values, t) = end_to_end(&passes)?;
        println!(
            "  job_ms_tail is p{} of {} jobs (>= {} beyond), each job at its fastest of {} passes",
            t.permille as f64 / 10.0,
            t.n,
            stats::TAIL_BEYOND,
            passes.len()
        );
        println!(
            "  host speed {:.4}: reference kernel fastest {:.1} us, nominal {:.1} us; times are scaled by it",
            host_speed(&passes),
            passes.iter().map(|p| p.reference_ns).min().unwrap_or(0) as f64 / 1e3,
            record::REFERENCE_NOMINAL_NS / 1e3
        );
        layers::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    for note in &verdict.notes {
        println!("  check: {note}");
    }
    println!(
        "  check: {} failed of {} operations attempted",
        verdict.failed, verdict.attempted
    );
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns() as f64 / 1e9).collect();
    let line = rec.finish(
        &args.workload,
        args.seed,
        args.trace,
        &walls,
        host_speed(&passes),
        OUT_DIR,
    )?;
    println!("  record {line}");
    println!("{}", result_json(&verdict, &metrics)?);
    Ok(())
}

fn digest_table() -> Result<(), String> {
    println!("# workload seed fnv1a64 of the program's own rows (hostbench digest)");
    for seed in DIGEST_SEEDS {
        for w in plan::WORKLOADS {
            let d = check::program_digest(&Plan::new(w, seed)?)?;
            println!("{w} {seed} {d:016x}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("digest") if argv.len() == 1 => digest_table(),
        Some("digest") => Err("usage: hostbench digest".into()),
        _ => parse_args(&argv).and_then(|a| run(&a)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}
