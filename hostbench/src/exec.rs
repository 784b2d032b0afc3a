//! The benchmark's own path through one job: the same public calls the
//! harness makes, with host-time probes between them.
//!
//! A grid job runs exactly what `obfusmem_harness::job::run_job` runs —
//! backend construction, `TraceDrivenCore::run_observed`, `drain_posted`,
//! the metrics snapshot and the JSONL row — but hands the core a
//! [`Probe`] around the backend. The probe notes when the first simulated
//! request arrives (the end of set-up) and, when traced, times every
//! backend call and records its response. A traced job then replays the
//! core alone against those responses, which prices the core without the
//! backend or the probe in the way. A serve job is one
//! `SessionFabric::run_chunk`. The check module compares the rows this
//! path renders with the program's own.

use std::hint::black_box;
use std::time::Instant;

use obfusmem_core::config::FaultPlan;
use obfusmem_core::system::{System, SystemConfig};
use obfusmem_cpu::core::{MemoryBackend, RunResult, TraceDrivenCore};
use obfusmem_harness::job::{JobOutput, JobSpec};
use obfusmem_harness::jsonl::JsonObject;
use obfusmem_harness::measure::{workload_by_name, OramMode, PointSpec};
use obfusmem_harness::serve::ServeSpec;
use obfusmem_harness::sink::encode_row;
use obfusmem_mem::config::MemConfig;
use obfusmem_mem::fault::DeviceFaultPlan;
use obfusmem_mem::request::BlockAddr;
use obfusmem_obs::metrics::{MetricsNode, Observable};
use obfusmem_obs::trace::TraceHandle;
use obfusmem_oram::codesign::CodesignOram;
use obfusmem_oram::detailed::DetailedOram;
use obfusmem_oram::model::OramModel;
use obfusmem_oram::path_oram::OramConfig;
use obfusmem_sim::time::Time;
use obfusmem_tenant::fabric::SessionFabric;
use obfusmem_tenant::qos::TenantClass;

use crate::stats::median;

/// The geometry the harness simulates the serial and codesign ORAM modes
/// with (L = 12, Z = 4, 4096 blocks). The harness keeps it private; a
/// drift between the two shows up as a program cross-check mismatch.
pub const DETAILED_ORAM: OramConfig = OramConfig {
    levels: 12,
    bucket_size: 4,
    blocks: 4096,
};

/// Host instants around one grid job's phases.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Before backend construction: the job starts.
    pub start: Instant,
    /// Backend (or ORAM) constructed.
    pub built: Instant,
    /// The core's first simulated request reached the backend.
    pub first: Instant,
    /// The core retired its instruction budget.
    pub ran: Instant,
    /// Posted writes drained: the job ends.
    pub drained: Instant,
    /// Metrics snapshot taken and JSONL row rendered.
    pub rendered: Instant,
    /// Host time inside backend calls (0 when untraced), timer reads
    /// included.
    pub backend_ns: u64,
    /// Backend calls timed (0 when untraced).
    pub calls: u64,
}

/// Host ns from `from` to `to` (0 if `to` is earlier).
pub fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

impl Phases {
    /// Job wall time: backend construction through `drain_posted`.
    pub fn wall_ns(&self) -> u64 {
        ns(self.start, self.drained)
    }
    /// Set-up: job start to the first simulated request.
    pub fn setup_ns(&self) -> u64 {
        ns(self.start, self.first)
    }
    /// Backend construction.
    pub fn backend_new_ns(&self) -> u64 {
        ns(self.start, self.built)
    }
    /// Core run up to its first request (miss-stream and MSHR set-up).
    pub fn stream_setup_ns(&self) -> u64 {
        ns(self.built, self.first)
    }
    /// Backend busy time with the probe's timer cost taken out:
    /// `timer_ns` per timed call (see [`timer_ns`]).
    pub fn backend_net_ns(&self, timer_ns: f64) -> u64 {
        self.backend_ns
            .saturating_sub((timer_ns * self.calls as f64) as u64)
    }
}

/// The core re-run alone against a traced job's recorded backend
/// responses: the same simulated requests, with no backend work and no
/// per-call timers. All zero for an untraced job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// The whole replay, miss-stream set-up included.
    pub total_ns: u64,
    /// First request to the end of the run: the core's steady state,
    /// miss generation included.
    pub steady_ns: u64,
}

/// One grid job as the benchmark ran it.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The harness JSONL row (no `wall_ms`).
    pub row: String,
    /// Simulation result.
    pub result: RunResult,
    /// Whole-stack metrics snapshot.
    pub metrics: MetricsNode,
    /// Host-time phases.
    pub t: Phases,
    /// The core's replay (traced jobs only).
    pub replay: Replay,
    /// Faults the job could not recover from: unrecovered link or device
    /// faults, plus 1 if the CTR counters failed to re-converge.
    pub sim_failures: u64,
}

impl JobRun {
    /// Simulated requests: demand fills plus write-backs.
    pub fn requests(&self) -> u64 {
        self.result.misses + self.result.writebacks
    }
}

/// Host ns one `Instant::now()` costs on this host: the median of a few
/// batches of back-to-back reads. A timed backend call reads the clock
/// twice; about one read's cost falls inside the measured call and one
/// outside it.
pub fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            ns(t0, Instant::now()) as f64 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

/// A [`MemoryBackend`] wrapper that notes the first request's host time
/// and, when `timed`, the host time spent inside every call and every
/// read's response.
struct Probe<'a, B: ?Sized> {
    inner: &'a mut B,
    timed: bool,
    first: Option<Instant>,
    busy_ns: u64,
    calls: u64,
    responses: Vec<Time>,
}

impl<'a, B: MemoryBackend + ?Sized> Probe<'a, B> {
    fn new(inner: &'a mut B, timed: bool) -> Self {
        Probe {
            inner,
            timed,
            first: None,
            busy_ns: 0,
            calls: 0,
            responses: Vec::new(),
        }
    }

    #[inline]
    fn enter(&mut self) -> Option<Instant> {
        if !self.timed && self.first.is_some() {
            return None;
        }
        let now = Instant::now();
        self.first.get_or_insert(now);
        self.timed.then_some(now)
    }

    #[inline]
    fn leave(&mut self, entered: Option<Instant>) {
        if let Some(t0) = entered {
            self.busy_ns += ns(t0, Instant::now());
            self.calls += 1;
        }
    }
}

impl<B: MemoryBackend + ?Sized> MemoryBackend for Probe<'_, B> {
    fn read(&mut self, at: Time, addr: BlockAddr) -> Time {
        let t0 = self.enter();
        let done = self.inner.read(at, addr);
        self.leave(t0);
        if self.timed {
            self.responses.push(done);
        }
        done
    }

    fn write(&mut self, at: Time, addr: BlockAddr) {
        let t0 = self.enter();
        self.inner.write(at, addr);
        self.leave(t0);
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A backend that answers each read with the next recorded response.
struct Recorded<'a> {
    responses: std::slice::Iter<'a, Time>,
    first: Option<Instant>,
}

impl MemoryBackend for Recorded<'_> {
    fn read(&mut self, at: Time, _addr: BlockAddr) -> Time {
        self.first.get_or_insert_with(Instant::now);
        self.responses.next().copied().unwrap_or(at)
    }

    fn write(&mut self, _at: Time, _addr: BlockAddr) {
        self.first.get_or_insert_with(Instant::now);
    }

    fn label(&self) -> String {
        "recorded".into()
    }
}

/// The point a harness job simulates, built as `run_job` builds it.
fn point_for(spec: &JobSpec) -> Result<PointSpec, String> {
    if spec.leakage.is_some() {
        return Err(format!("{}: the leakage axis is not benchmarked", spec.id));
    }
    let workload = workload_by_name(&spec.workload)
        .ok_or_else(|| format!("{}: unknown workload {:?}", spec.id, spec.workload))?;
    let mut point = PointSpec {
        mem: MemConfig::table2()
            .with_channels(spec.channels)
            .with_backend(spec.backend),
        oram_mode: spec.oram_mode,
        ..PointSpec::paper(workload, spec.scheme, spec.instructions, spec.seed)
    };
    if let Some((kind, rate)) = spec.fault {
        point.obfus.faults = FaultPlan::single(kind, rate, spec.fault_seed);
    }
    if let Some((kind, rate)) = spec.device_fault {
        point.obfus.device_faults = DeviceFaultPlan::single(kind, rate, spec.device_fault_seed);
    }
    Ok(point)
}

/// What driving the core through a [`Probe`] observed.
struct Driven {
    result: RunResult,
    first: Instant,
    ran: Instant,
    busy_ns: u64,
    calls: u64,
    responses: Vec<Time>,
}

/// Drives the core against `backend` through a [`Probe`].
fn drive<B: MemoryBackend + ?Sized>(
    p: &PointSpec,
    backend: &mut B,
    timed: bool,
    metrics: &mut MetricsNode,
) -> Driven {
    let mut probe = Probe::new(backend, timed);
    let result = TraceDrivenCore::new().run_observed(
        &p.workload,
        p.instructions,
        &mut probe,
        p.seed,
        &TraceHandle::disabled(),
        metrics,
    );
    let ran = Instant::now();
    Driven {
        result,
        first: probe.first.unwrap_or(ran),
        ran,
        busy_ns: probe.busy_ns,
        calls: probe.calls,
        responses: probe.responses,
    }
}

/// Re-runs the core of `p` against `responses` and checks that it
/// simulated what the recorded run did.
fn replay(p: &PointSpec, responses: &[Time], want: &RunResult) -> Result<Replay, String> {
    let mut backend = Recorded {
        responses: responses.iter(),
        first: None,
    };
    let start = Instant::now();
    let got = TraceDrivenCore::new().run_observed(
        &p.workload,
        p.instructions,
        &mut backend,
        p.seed,
        &TraceHandle::disabled(),
        &mut MetricsNode::new(),
    );
    let ran = Instant::now();
    if (got.exec_time, got.misses, got.writebacks) != (want.exec_time, want.misses, want.writebacks)
    {
        return Err(format!(
            "{}: the core's replay diverged from the recorded run",
            want.workload
        ));
    }
    Ok(Replay {
        total_ns: ns(start, ran),
        steady_ns: ns(backend.first.unwrap_or(ran), ran),
    })
}

/// Runs one grid job on the benchmark's probed path. `timed` adds a
/// host timer around every backend call (the traced run) and a replay of
/// the core after the job.
///
/// # Errors
///
/// A job the benchmark does not support (leakage axis, unknown
/// workload), or a replay that diverged.
pub fn run_job(spec: &JobSpec, timed: bool) -> Result<JobRun, String> {
    let p = point_for(spec)?;
    let mut metrics = MetricsNode::new();
    let start = Instant::now();
    let (d, built, drained) = match p.scheme.security() {
        Some(security) => {
            let mut system = System::new(SystemConfig {
                security,
                obfus: p.obfus,
                mem: p.mem.clone(),
            });
            let built = Instant::now();
            let d = drive(&p, system.backend_mut(), timed, &mut metrics);
            system.backend_mut().drain_posted();
            let drained = Instant::now();
            system.backend().observe_metrics(&mut metrics);
            (d, built, drained)
        }
        None => match p.oram_mode {
            OramMode::Fixed => {
                let mut model = OramModel::paper();
                let built = Instant::now();
                let d = drive(&p, &mut model, timed, &mut metrics);
                model.observe(metrics.child("oram"));
                let ran = d.ran;
                (d, built, ran)
            }
            OramMode::Serial => {
                let mut oram = DetailedOram::new(DETAILED_ORAM, p.mem.clone(), oram_seed(&p))
                    .map_err(|e| format!("{}: {e}", spec.id))?
                    .with_posmap_chain();
                let built = Instant::now();
                let d = drive(&p, &mut oram, timed, &mut metrics);
                let node = metrics.child("oram");
                oram.oram().observe(node);
                node.set_gauge("mean_access_ns", oram.mean_access_ns());
                let ran = d.ran;
                (d, built, ran)
            }
            OramMode::Codesign => {
                let mut oram = CodesignOram::new(DETAILED_ORAM, p.mem.clone(), oram_seed(&p))
                    .map_err(|e| format!("{}: {e}", spec.id))?;
                let built = Instant::now();
                let d = drive(&p, &mut oram, timed, &mut metrics);
                oram.drain_posted();
                let drained = Instant::now();
                let node = metrics.child("oram");
                oram.oram().observe(node);
                node.set_gauge("mean_access_ns", oram.mean_access_ns());
                (d, built, drained)
            }
        },
    };
    let out = JobOutput {
        spec: spec.clone(),
        result: d.result,
        metrics,
        trace: Vec::new(),
        wall_ms: 0.0,
    };
    let m = &out.metrics;
    let sim_failures = m.counter("link.unrecovered").unwrap_or(0)
        + m.counter("recovery.unrecovered").unwrap_or(0)
        + u64::from(m.counter("link.counters_converged") == Some(0));
    let row = encode_row(&out, false);
    let t = Phases {
        start,
        built,
        first: d.first,
        ran: d.ran,
        drained,
        rendered: Instant::now(),
        backend_ns: d.busy_ns,
        calls: d.calls,
    };
    let replay = if timed {
        replay(&p, &d.responses, &out.result)?
    } else {
        Replay::default()
    };
    Ok(JobRun {
        row,
        result: out.result,
        metrics: out.metrics,
        t,
        replay,
        sim_failures,
    })
}

/// The detailed ORAM's tree seed, derived from the point's seeds as the
/// harness derives it.
fn oram_seed(p: &PointSpec) -> u64 {
    p.seed ^ p.backend_seed.unwrap_or(0).rotate_left(23)
}

/// One `run_chunk` call.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Call start.
    pub start: Instant,
    /// Call end.
    pub end: Instant,
    /// Fill requests it served.
    pub served: u64,
}

impl Chunk {
    /// Host ns the call took.
    pub fn ns(&self) -> u64 {
        ns(self.start, self.end)
    }
}

/// One serve cell as the benchmark ran it.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The serve JSONL row.
    pub row: String,
    /// Fill requests served.
    pub served: u64,
    /// Write-backs posted.
    pub writebacks: u64,
    /// Authentication failures.
    pub auth_failures: u64,
    /// Re-keys and churn storms.
    pub rekeys: u64,
    /// See [`CellRun::rekeys`].
    pub storms: u64,
    /// Before `SessionFabric::new`.
    pub start: Instant,
    /// Fabric built (every tenant handshake done).
    pub built: Instant,
    /// Every `run_chunk` call, including the final empty one.
    pub chunks: Vec<Chunk>,
    /// Row rendered.
    pub done: Instant,
}

impl CellRun {
    /// Simulated requests: served fills plus write-backs.
    pub fn requests(&self) -> u64 {
        self.served + self.writebacks
    }
    /// `SessionFabric::new`.
    pub fn setup_ns(&self) -> u64 {
        ns(self.start, self.built)
    }
    /// Jobs: `run_chunk` calls that served requests.
    pub fn jobs(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(|c| c.served > 0)
    }
}

/// Runs one serve cell the way `obfusmem_harness::serve::run_cell` does,
/// timing the fabric's construction and each `run_chunk`.
///
/// # Errors
///
/// Configuration or fabric errors; a device-fault cell (not benchmarked).
pub fn run_cell(spec: &ServeSpec, tenants: usize, churn: u64) -> Result<CellRun, String> {
    if spec.device_fault.is_some() {
        return Err("the serve device-fault overlay is not benchmarked".into());
    }
    let cfg = spec
        .fabric_config(tenants, churn)
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut fabric = SessionFabric::new(cfg).map_err(|e| format!("fabric error: {e}"))?;
    let built = Instant::now();
    let mut chunks = Vec::new();
    loop {
        let t0 = Instant::now();
        let served = fabric
            .run_chunk(spec.chunk)
            .map_err(|e| format!("fabric error: {e}"))?;
        chunks.push(Chunk {
            start: t0,
            end: Instant::now(),
            served,
        });
        if served == 0 {
            break;
        }
    }
    let report = fabric.report();
    let (hist, stats) = fabric.aggregate_latency();
    let span_ns = report.span.as_ns();
    let throughput_mrps = if span_ns > 0 {
        report.total_served as f64 / (span_ns as f64 / 1e9) / 1e6
    } else {
        0.0
    };
    let mut row = JsonObject::new()
        .string("mode", "serve")
        .u64("tenants", tenants as u64)
        .u64("churn", churn)
        .u64("channels", spec.channels as u64)
        .u64("requests_per_tenant", spec.requests)
        .u64("storm_period", spec.storm_period)
        .u64("seed", spec.seed)
        .string("dh", spec.dh.name())
        .string("workload", &spec.workload)
        .u64("served", report.total_served)
        .u64("auth_failures", report.auth_failures)
        .u64("rekeys", report.rekeys)
        .u64("storms", report.storms)
        .u64("writebacks", report.writebacks)
        .u64("starvation_promotions", report.starvation_promotions)
        .u64("span_ns", span_ns)
        .f64("throughput_mrps", throughput_mrps)
        .u64("p50_ns", hist.quantile(0.50).unwrap_or(0))
        .u64("p99_ns", hist.quantile(0.99).unwrap_or(0))
        .f64("mean_ns", stats.mean());
    for class in TenantClass::ALL {
        let idx = class.arb_class() as usize;
        row = row
            .u64(
                &format!("{}_served", class.name()),
                report.class_served[idx],
            )
            .u64(
                &format!("{}_p99_ns", class.name()),
                report.class_p99_ns[idx],
            );
    }
    let row = row.finish();
    Ok(CellRun {
        row,
        served: report.total_served,
        writebacks: report.writebacks,
        auth_failures: report.auth_failures,
        rekeys: report.rekeys,
        storms: report.storms,
        start,
        built,
        chunks,
        done: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfusmem_core::link::FaultKind;
    use obfusmem_harness::job::run_job as program_run_job;
    use obfusmem_harness::measure::{run_point, Scheme};
    use obfusmem_mem::config::BackendKind;
    use obfusmem_mem::fault::DeviceFaultKind;

    fn micro_job(scheme: Scheme, mode: OramMode) -> JobSpec {
        let mut job = crate::plan::oram_modes(5, &[mode]).remove(0);
        job.workload = "micro".into();
        job.scheme = scheme;
        job.instructions = 20_000;
        job.id = format!("micro/{}/{}", scheme.name(), mode.name());
        job
    }

    #[test]
    fn probed_path_matches_run_point_and_the_harness_row_on_micro() {
        let mut jobs: Vec<JobSpec> = Scheme::ALL
            .into_iter()
            .map(|s| micro_job(s, OramMode::Fixed))
            .chain([OramMode::Serial, OramMode::Codesign].map(|m| micro_job(Scheme::OramModel, m)))
            .collect();
        let mut faulty = micro_job(Scheme::ObfusmemAuth, OramMode::Fixed);
        faulty.channels = 2;
        faulty.backend = BackendKind::Queued;
        faulty.fault = Some((FaultKind::Drop, 0.01));
        faulty.fault_seed = 11;
        jobs.push(faulty.clone());
        faulty.fault = None;
        faulty.device_fault = Some((DeviceFaultKind::BitFlip, 0.02));
        jobs.push(faulty);
        for job in &jobs {
            for timed in [false, true] {
                let ours = run_job(job, timed).unwrap();
                let theirs = program_run_job(job);
                assert_eq!(
                    ours.row,
                    encode_row(&theirs, false),
                    "{} timed={timed}",
                    job.id
                );
                assert_eq!(
                    ours.metrics.to_json(),
                    theirs.metrics.to_json(),
                    "{}",
                    job.id
                );
                let point = run_point(&point_for(job).unwrap());
                assert_eq!(ours.result.exec_time, point.exec_time, "{}", job.id);
                assert_eq!(ours.requests(), point.misses + point.writebacks);
                assert_eq!(ours.sim_failures, 0, "{}", job.id);
                let t = ours.t;
                assert!(t.start <= t.built && t.built <= t.first && t.first <= t.ran);
                assert!(t.ran <= t.drained && t.drained <= t.rendered);
                assert_eq!(t.calls, if timed { ours.requests() } else { 0 });
                let r = ours.replay;
                assert_eq!(
                    r.steady_ns > 0,
                    timed,
                    "{} replays only when traced",
                    job.id
                );
                assert!(r.steady_ns <= r.total_ns);
            }
        }
    }

    #[test]
    fn replay_needs_the_recorded_responses() {
        let job = micro_job(Scheme::Obfusmem, OramMode::Fixed);
        let p = point_for(&job).unwrap();
        let mut system = System::new(SystemConfig {
            security: p.scheme.security().unwrap(),
            obfus: p.obfus,
            mem: p.mem.clone(),
        });
        let d = drive(&p, system.backend_mut(), true, &mut MetricsNode::new());
        assert_eq!(d.responses.len() as u64, d.result.misses);
        assert!(replay(&p, &d.responses, &d.result).is_ok());
        let late: Vec<Time> = d
            .responses
            .iter()
            .map(|&t| t + obfusmem_sim::time::Duration::from_ns(1000))
            .collect();
        assert!(replay(&p, &late, &d.result).is_err());
        assert!(replay(&p, &[], &d.result).is_err());
    }

    #[test]
    fn probed_cell_matches_run_cell() {
        let mut spec = crate::plan::serve_spec(3);
        spec.tenants = vec![4];
        spec.requests = 300;
        spec.chunk = 256;
        spec.dh = obfusmem_tenant::fabric::DhStrength::Toy;
        let ours = run_cell(&spec, 4, 16).unwrap();
        let theirs = obfusmem_harness::serve::run_cell(&spec, 4, 16, true).unwrap();
        assert_eq!(ours.row, theirs.row);
        assert_eq!(ours.served, 1200);
        assert_eq!(ours.jobs().count(), 5, "1200 requests in chunks of 256");
        assert_eq!(ours.jobs().map(|c| c.served).sum::<u64>(), ours.served);
    }
}
