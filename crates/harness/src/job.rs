//! Jobs: the unit of scheduled work.
//!
//! A [`JobSpec`] is a fully self-describing simulation request — workload,
//! scheme, machine knobs, instruction budget, and a seed derived from the
//! master seed and the job's stable id alone. Because the seed never
//! depends on scheduling order, any job can be re-run standalone (or on a
//! machine with a different core count) and reproduce its JSONL row
//! exactly.

use std::time::Instant;

use obfusmem_core::config::FaultPlan;
use obfusmem_core::link::FaultKind;
use obfusmem_cpu::core::RunResult;
use obfusmem_mem::config::{BackendKind, MemConfig};
use obfusmem_mem::fault::{DeviceFaultKind, DeviceFaultPlan};
use obfusmem_obs::metrics::MetricsNode;
use obfusmem_obs::trace::{TraceEvent, TraceHandle};
use obfusmem_sim::rng::SplitMix64;

use crate::measure::{
    run_point_with, workload_by_name, Attachments, LeakagePoint, OramMode, PointSpec, Scheme,
};

/// One schedulable simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable content id, e.g. `mcf/obfusmem-auth/c1/r0`. Checkpointing
    /// and seeding key off this, never off grid position.
    pub id: String,
    /// Workload name (Table 1 benchmark or `micro`).
    pub workload: String,
    /// Protection scheme.
    pub scheme: Scheme,
    /// Memory channels.
    pub channels: usize,
    /// Memory-controller model ([`BackendKind::Reservation`] is the
    /// historical default; `Queued` runs the sharded FR-FCFS controllers).
    pub backend: BackendKind,
    /// Instruction budget.
    pub instructions: u64,
    /// Replicate index (seed variation within one grid point).
    pub replicate: u32,
    /// Derived seed (see [`derive_seed`]).
    pub seed: u64,
    /// Fault axis: `(kind, per-packet rate)`. `None` runs fault-free
    /// (the link stays disengaged and output is bit-identical to
    /// pre-fault harness versions).
    pub fault: Option<(FaultKind, f64)>,
    /// Derived fault-injection stream seed (0 when fault-free).
    pub fault_seed: u64,
    /// Device (array) fault axis: `(kind, rate)`. `None` keeps the
    /// device fault overlay and the recovery ladder disengaged (output
    /// byte-identical to pre-device-fault harness versions).
    pub device_fault: Option<(DeviceFaultKind, f64)>,
    /// Derived device-fault stream seed (0 when device-fault-free).
    pub device_fault_seed: u64,
    /// Leakage axis: the Membuster attacker's window/squeeze setting.
    /// `None` runs unobserved (the bus tap stays disengaged and output
    /// is byte-identical to pre-observatory harness versions).
    pub leakage: Option<LeakagePoint>,
    /// ORAM backend mode. Only meaningful for [`Scheme::OramModel`]
    /// points; the default ([`OramMode::Fixed`]) keeps the historical
    /// fixed-latency model and contributes no id segment, so every
    /// pre-mode sweep id (and checkpoint) stays valid.
    pub oram_mode: OramMode,
}

impl JobSpec {
    /// Builds the stable id for a grid point. Each axis at its default
    /// contributes nothing, so ids (and checkpoint files) written before
    /// an axis existed stay valid: `{workload}/{scheme}/c{channels}`,
    /// then `oram-{mode}` for a non-fixed ORAM mode, the backend name for
    /// a non-reservation backend, `{kind}@{rate}` for a link fault,
    /// `dram-{kind}@{rate}` for a device fault (the prefix keeps the two
    /// axes' `bit-flip` apart), `leak-w{window}[x{squeeze}]` for the
    /// attacker, and `r{replicate}` last.
    #[allow(clippy::too_many_arguments)]
    pub fn make_mode_id(
        workload: &str,
        scheme: Scheme,
        oram_mode: OramMode,
        channels: usize,
        backend: BackendKind,
        fault: Option<(FaultKind, f64)>,
        device_fault: Option<(DeviceFaultKind, f64)>,
        leakage: Option<LeakagePoint>,
        replicate: u32,
    ) -> String {
        let mut id = format!("{workload}/{}/c{channels}", scheme.name());
        if oram_mode != OramMode::Fixed {
            id.push_str(&format!("/oram-{}", oram_mode.name()));
        }
        if backend != BackendKind::Reservation {
            id.push_str(&format!("/{}", backend.name()));
        }
        if let Some((kind, rate)) = fault {
            id.push_str(&format!("/{}@{rate}", kind.name()));
        }
        if let Some((kind, rate)) = device_fault {
            id.push_str(&format!("/dram-{}@{rate}", kind.name()));
        }
        match leakage {
            Some(leak) if leak.squeeze == 1.0 => id.push_str(&format!("/leak-w{}", leak.window)),
            Some(leak) => id.push_str(&format!("/leak-w{}x{}", leak.window, leak.squeeze)),
            None => {}
        }
        id.push_str(&format!("/r{replicate}"));
        id
    }
}

/// Derives the seed for `job_id` under `master_seed`.
///
/// A fresh generator is built from the master seed and split once on the
/// job id, so the result is a function of `(master_seed, job_id)` only —
/// deterministic across thread counts, scheduling orders, and resumes.
pub fn derive_seed(master_seed: u64, job_id: &str) -> u64 {
    SplitMix64::new(master_seed).split_named(job_id).next_u64()
}

/// A completed job: the spec it ran, the simulation result, the metrics
/// snapshot, and how long the simulation took on the wall clock.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The spec that ran.
    pub spec: JobSpec,
    /// Simulation result.
    pub result: RunResult,
    /// Whole-stack metrics snapshot (core, engine, crypto, memory, and —
    /// only when the job injected faults — the `link` subtree with the
    /// per-channel ARQ recovery counters).
    pub metrics: MetricsNode,
    /// Recorded spans (non-empty only for [`run_job_traced`] jobs).
    pub trace: Vec<TraceEvent>,
    /// Host wall-clock milliseconds spent simulating.
    pub wall_ms: f64,
}

impl JobOutput {
    /// The link-layer recovery subtree; `None` when the job ran
    /// fault-free (the link stays disengaged).
    pub fn recovery(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("link")
    }

    /// The device-fault recovery subtree (`recovery.*`); `None` when the
    /// job ran with the device fault overlay disengaged.
    pub fn device_recovery(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("recovery")
    }

    /// The queued-controller scheduler subtree (`mem.queued`); `None`
    /// when the job ran on the reservation backend (or the ORAM model,
    /// which has no memory controller at all).
    pub fn queued_sched(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("mem")?.get_child("queued")
    }

    /// The leakage-observatory subtree (`leakage.*`); `None` when the
    /// job ran without the attacker attached.
    pub fn leakage(&self) -> Option<&MetricsNode> {
        self.metrics.get_child("leakage")
    }
}

/// Runs one job. Pure with respect to the spec (the wall-clock field is
/// the only thing that varies between identical runs).
///
/// # Panics
///
/// Panics if the workload name does not resolve; [`crate::spec::SweepSpec::expand`]
/// validates names before any job is scheduled.
pub fn run_job(spec: &JobSpec) -> JobOutput {
    run_job_with(spec, &TraceHandle::disabled())
}

/// [`run_job`] with span recording enabled: the recorded events land in
/// [`JobOutput::trace`], ready for the Chrome-trace exporter. The
/// simulation result is bit-identical to the untraced run's.
pub fn run_job_traced(spec: &JobSpec) -> JobOutput {
    run_job_with(spec, &TraceHandle::recording())
}

fn run_job_with(spec: &JobSpec, obs: &TraceHandle) -> JobOutput {
    let workload = workload_by_name(&spec.workload)
        .unwrap_or_else(|| panic!("job {}: unknown workload {:?}", spec.id, spec.workload));
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
    let started = Instant::now();
    let with = Attachments {
        trace: obs.clone(),
        leakage: spec.leakage,
        ..Attachments::default()
    };
    let (result, metrics) = run_point_with(&point, &with);
    JobOutput {
        spec: spec.clone(),
        result,
        metrics,
        trace: obs.finish(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Test fixtures shared by the harness's unit tests.
#[cfg(test)]
impl JobSpec {
    /// A replicate-0, one-channel reservation-backend job with every
    /// optional axis off. Tests override axes with struct-update syntax
    /// and then call [`JobSpec::derived`].
    pub(crate) fn fixture(workload: &str, scheme: Scheme, instructions: u64) -> JobSpec {
        JobSpec {
            id: String::new(),
            workload: workload.into(),
            scheme,
            channels: 1,
            backend: BackendKind::Reservation,
            instructions,
            replicate: 0,
            seed: 0,
            fault: None,
            fault_seed: 0,
            device_fault: None,
            device_fault_seed: 0,
            leakage: None,
            oram_mode: OramMode::Fixed,
        }
        .derived()
    }

    /// Re-derives the id and every seed from the axis fields, with the
    /// master seeds of [`crate::spec::SweepSpec::default`].
    pub(crate) fn derived(mut self) -> JobSpec {
        let defaults = crate::spec::SweepSpec::default();
        self.id = JobSpec::make_mode_id(
            &self.workload,
            self.scheme,
            self.oram_mode,
            self.channels,
            self.backend,
            self.fault,
            self.device_fault,
            self.leakage,
            self.replicate,
        );
        self.seed = derive_seed(defaults.master_seed, &self.id);
        self.fault_seed = match self.fault {
            Some(_) => derive_seed(defaults.fault_seed, &self.id),
            None => 0,
        };
        self.device_fault_seed = match self.device_fault {
            Some(_) => derive_seed(defaults.device_fault_seed, &self.id),
            None => 0,
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_only_on_master_and_id() {
        let a = derive_seed(1, "mcf/oram/c1/r0");
        assert_eq!(a, derive_seed(1, "mcf/oram/c1/r0"));
        assert_ne!(
            a,
            derive_seed(2, "mcf/oram/c1/r0"),
            "master seed must matter"
        );
        assert_ne!(a, derive_seed(1, "mcf/oram/c1/r1"), "job id must matter");
    }

    #[test]
    fn job_reruns_identically() {
        let spec = JobSpec::fixture("micro", Scheme::Obfusmem, 20_000);
        let a = run_job(&spec);
        let b = run_job(&spec);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.result.misses, b.result.misses);
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn fault_jobs_report_recovery_counters() {
        let spec = JobSpec {
            fault: Some((FaultKind::BitFlip, 0.01)),
            ..JobSpec::fixture("micro", Scheme::ObfusmemAuth, 20_000)
        }
        .derived();
        assert_eq!(spec.id, "micro/obfusmem-auth/c1/bit-flip@0.01/r0");
        let out = run_job(&spec);
        let rec = out.recovery().expect("faulty job must harvest link stats");
        assert!(
            rec.counter("faults_injected").unwrap_or(0) > 0,
            "1% flips over 20k instructions"
        );
        assert_eq!(rec.counter("unrecovered"), Some(0));
        assert_eq!(rec.counter("counters_converged"), Some(1));
        assert!(
            rec.counter("ch0.retransmits").is_some(),
            "per-channel ARQ counters must be in the snapshot"
        );
    }

    #[test]
    fn device_fault_jobs_report_recovery_counters_and_stay_deterministic() {
        let spec = JobSpec {
            device_fault: Some((DeviceFaultKind::BitFlip, 0.02)),
            ..JobSpec::fixture("micro", Scheme::ObfusmemAuth, 20_000)
        }
        .derived();
        assert_eq!(spec.id, "micro/obfusmem-auth/c1/dram-bit-flip@0.02/r0");
        let out = run_job(&spec);
        let rec = out
            .device_recovery()
            .expect("device-faulty job must harvest recovery stats");
        assert!(
            rec.counter("detected").unwrap_or(0) > 0,
            "2% transient flips over 20k instructions must surface"
        );
        assert_eq!(rec.counter("unrecovered"), Some(0), "ladder must recover");
        assert!(out.recovery().is_none(), "link axis stays disengaged");
        let again = run_job(&spec);
        assert_eq!(out.result.exec_time, again.result.exec_time);
        assert_eq!(out.metrics.to_json(), again.metrics.to_json());
    }

    #[test]
    fn fault_free_jobs_carry_no_recovery_block() {
        let out = run_job(&JobSpec::fixture("micro", Scheme::ObfusmemAuth, 5_000));
        assert!(out.recovery().is_none(), "link must stay disengaged");
        assert!(out.trace.is_empty(), "untraced jobs record no spans");
    }

    #[test]
    fn traced_jobs_match_untraced_results_and_carry_spans() {
        let spec = JobSpec::fixture("micro", Scheme::ObfusmemAuth, 10_000);
        let plain = run_job(&spec);
        let traced = run_job_traced(&spec);
        assert_eq!(plain.result.exec_time, traced.result.exec_time);
        assert_eq!(plain.result.misses, traced.result.misses);
        assert!(plain.trace.is_empty());
        assert!(!traced.trace.is_empty());
        assert_eq!(
            plain.metrics.to_json(),
            traced.metrics.to_json(),
            "metric snapshots must not depend on tracing"
        );
    }

    #[test]
    fn full_ids_collapse_to_the_legacy_forms_on_default_axes() {
        let id = |scheme, channels, backend, fault, replicate| {
            JobSpec::make_mode_id(
                "mcf",
                scheme,
                OramMode::Fixed,
                channels,
                backend,
                fault,
                None,
                None,
                replicate,
            )
        };
        let reservation = BackendKind::Reservation;
        assert_eq!(
            id(Scheme::Obfusmem, 4, reservation, None, 2),
            "mcf/obfusmem/c4/r2"
        );
        assert_eq!(
            id(
                Scheme::ObfusmemAuth,
                1,
                reservation,
                Some((FaultKind::Drop, 0.01)),
                0
            ),
            "mcf/obfusmem-auth/c1/drop@0.01/r0",
        );
        assert_eq!(
            id(Scheme::Obfusmem, 2, BackendKind::Queued, None, 1),
            "mcf/obfusmem/c2/queued/r1",
        );
    }

    #[test]
    fn mode_ids_collapse_to_legacy_forms_on_the_default_mode() {
        let id = |workload, mode, channels, replicate| {
            JobSpec::make_mode_id(
                workload,
                Scheme::OramModel,
                mode,
                channels,
                BackendKind::Reservation,
                None,
                None,
                None,
                replicate,
            )
        };
        assert_eq!(id("mcf", OramMode::Fixed, 1, 0), "mcf/oram/c1/r0");
        assert_eq!(
            id("mcf", OramMode::Codesign, 2, 1),
            "mcf/oram/c2/oram-codesign/r1",
        );
        assert_eq!(
            id("micro", OramMode::Serial, 1, 0),
            "micro/oram/c1/oram-serial/r0",
        );
    }

    #[test]
    fn every_axis_segment_lands_in_canonical_order() {
        let id = JobSpec::make_mode_id(
            "micro",
            Scheme::ObfusmemAuth,
            OramMode::Codesign,
            2,
            BackendKind::Queued,
            Some((FaultKind::BitFlip, 0.001)),
            Some((DeviceFaultKind::StuckCell, 0.002)),
            Some(LeakagePoint {
                window: 128,
                squeeze: 4.0,
            }),
            3,
        );
        assert_eq!(
            id,
            "micro/obfusmem-auth/c2/oram-codesign/queued/bit-flip@0.001/dram-stuck-cell@0.002/leak-w128x4/r3"
        );
    }

    /// The fixed-seed determinism gate for `--oram-mode codesign` rows:
    /// identical specs reproduce identical timing and metrics, and the
    /// serial mode is measurably slower on the same stream.
    #[test]
    fn oram_mode_jobs_rerun_identically_and_codesign_beats_serial() {
        let mk = |oram_mode| {
            JobSpec {
                oram_mode,
                ..JobSpec::fixture("micro", Scheme::OramModel, 20_000)
            }
            .derived()
        };
        let codesign = mk(OramMode::Codesign);
        let a = run_job(&codesign);
        let b = run_job(&codesign);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert!(a.metrics.counter("oram.accesses").unwrap_or(0) > 0);
        let serial = run_job(&mk(OramMode::Serial));
        assert!(
            a.result.exec_time < serial.result.exec_time,
            "codesign rows must be faster than serial rows"
        );
    }

    #[test]
    fn queued_jobs_rerun_identically_and_snapshot_the_scheduler() {
        let spec = JobSpec {
            channels: 2,
            backend: BackendKind::Queued,
            ..JobSpec::fixture("micro", Scheme::ObfusmemAuth, 20_000)
        }
        .derived();
        let a = run_job(&spec);
        let b = run_job(&spec);
        assert_eq!(a.result.exec_time, b.result.exec_time);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let sched = a.queued_sched().expect("queued jobs expose mem.queued");
        assert!(sched.counter("serviced").unwrap_or(0) > 0);
    }

    #[test]
    fn reservation_jobs_carry_no_scheduler_subtree() {
        let out = run_job(&JobSpec::fixture("micro", Scheme::ObfusmemAuth, 5_000));
        assert!(out.queued_sched().is_none());
    }

    #[test]
    fn replicates_differ_via_seed_only() {
        let mk = |replicate| {
            run_job(
                &JobSpec {
                    replicate,
                    ..JobSpec::fixture("micro", Scheme::Unprotected, 20_000)
                }
                .derived(),
            )
        };
        let r0 = mk(0);
        let r1 = mk(1);
        assert_ne!(r0.spec.seed, r1.spec.seed);
        assert_ne!(
            r0.result.exec_time, r1.result.exec_time,
            "different seeds should perturb the miss stream"
        );
    }
}
