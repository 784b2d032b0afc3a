//! The benchmark's workloads: which simulations one pass runs, made from
//! the seed alone.

use obfusmem_core::link::ALL_FAULT_KINDS;
use obfusmem_cpu::workload::table1_workloads;
use obfusmem_harness::job::JobSpec;
use obfusmem_harness::measure::{OramMode, Scheme};
use obfusmem_harness::serve::ServeSpec;
use obfusmem_harness::spec::SweepSpec;
use obfusmem_mem::config::BackendKind;
use obfusmem_mem::fault::ALL_DEVICE_FAULT_KINDS;
use obfusmem_tenant::fabric::DhStrength;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper-grid", "serve", "faults", "oram-codesign"];

/// Instructions per paper-grid job. At 200k instructions the per-job
/// Zipf set-up (up to 2^20 CDF entries) took most of a job; at 3M the
/// steady state takes about two thirds of the grid's host time.
pub const PAPER_GRID_INSTRUCTIONS: u64 = 3_000_000;

/// Instructions per faults job (micro: 20 misses per 1000 instructions).
pub const FAULTS_INSTRUCTIONS: u64 = 400_000;

/// Replicates of each fault point, so a pass has enough jobs for a tail.
pub const FAULTS_REPLICATES: u32 = 5;

/// Link-fault rate per packet and device-fault rate per access.
pub const LINK_FAULT_RATE: f64 = 0.001;
/// See [`LINK_FAULT_RATE`].
pub const DEVICE_FAULT_RATE: f64 = 0.002;

/// Instructions per ORAM job: a codesign job on mcf costs about 0.5 s at
/// 100k instructions, so this keeps a pass of 45 jobs near 5 s.
pub const ORAM_INSTRUCTIONS: u64 = 150_000;

/// The serve cell: tenants, churn period, requests per tenant, storm
/// period, channels.
pub const SERVE_TENANTS: usize = 64;
/// See [`SERVE_TENANTS`].
pub const SERVE_CHURN: u64 = 16;
/// See [`SERVE_TENANTS`].
pub const SERVE_REQUESTS: u64 = 4096;
/// See [`SERVE_TENANTS`].
pub const SERVE_STORM_PERIOD: u64 = 512;
/// See [`SERVE_TENANTS`].
pub const SERVE_CHANNELS: usize = 4;
/// Requests per serve job (`run_chunk`).
pub const SERVE_CHUNK: u64 = 4096;

/// Salts that derive the fault streams' master seeds from the run seed,
/// kept apart from the workload seed as the sweep CLI keeps them.
const FAULT_SEED_SALT: u64 = 0xFA_017;
const DEVICE_FAULT_SEED_SALT: u64 = 0xD_F0_17;

/// What one pass of a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Independent simulation jobs, each one harness grid point.
    Grid {
        /// Workload name.
        name: &'static str,
        /// Jobs in pass order.
        jobs: Vec<JobSpec>,
    },
    /// One session-fabric cell; each `run_chunk` is a job.
    Serve {
        /// The cell's grid spec (one tenant count, one churn period).
        spec: ServeSpec,
    },
}

impl Plan {
    /// The plan for `workload` under `seed`.
    ///
    /// # Errors
    ///
    /// An unknown workload name, or a grid the harness rejects.
    pub fn new(workload: &str, seed: u64) -> Result<Plan, String> {
        match workload {
            "paper-grid" => Ok(Plan::Grid {
                name: "paper-grid",
                jobs: paper_grid(seed),
            }),
            "serve" => Ok(Plan::Serve {
                spec: serve_spec(seed),
            }),
            "faults" => Ok(Plan::Grid {
                name: "faults",
                jobs: faults(seed)?,
            }),
            "oram-codesign" => Ok(Plan::Grid {
                name: "oram-codesign",
                jobs: oram_codesign(seed),
            }),
            other => Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// Workload name.
    pub fn name(&self) -> &'static str {
        match self {
            Plan::Grid { name, .. } => name,
            Plan::Serve { .. } => "serve",
        }
    }
}

/// A fault-free job on the Table 2 machine.
fn grid_job(
    workload: &str,
    scheme: Scheme,
    mode: OramMode,
    instructions: u64,
    seed: u64,
) -> JobSpec {
    JobSpec {
        id: JobSpec::make_mode_id(
            workload,
            scheme,
            mode,
            1,
            BackendKind::Reservation,
            None,
            None,
            None,
            0,
        ),
        workload: workload.to_string(),
        scheme,
        channels: 1,
        backend: BackendKind::Reservation,
        instructions,
        replicate: 0,
        seed,
        fault: None,
        fault_seed: 0,
        device_fault: None,
        device_fault_seed: 0,
        leakage: None,
        oram_mode: mode,
    }
}

/// All 15 Table 1 workloads × every scheme, workload-major. Every job of
/// a workload shares the run seed, so the scheme columns see the same
/// miss stream, as Table 3 and Figure 4 compare them.
pub fn paper_grid(seed: u64) -> Vec<JobSpec> {
    table1_workloads()
        .iter()
        .flat_map(|w| {
            Scheme::ALL.map(|s| grid_job(w.name, s, OramMode::Fixed, PAPER_GRID_INSTRUCTIONS, seed))
        })
        .collect()
}

/// All 15 Table 1 workloads × the fixed, serial and codesign ORAM modes.
/// The fixed model is the ladder's bottom rung. Its jobs, each about one
/// stream set-up long, also put the job median where job times are
/// dense: with serial and codesign alone the median's neighbours in a
/// pass spanned about ±25%, with the fixed jobs about ±10%.
pub fn oram_codesign(seed: u64) -> Vec<JobSpec> {
    oram_modes(
        seed,
        &[OramMode::Fixed, OramMode::Serial, OramMode::Codesign],
    )
}

/// All 15 Table 1 workloads × `modes` of the ORAM scheme.
pub fn oram_modes(seed: u64, modes: &[OramMode]) -> Vec<JobSpec> {
    table1_workloads()
        .iter()
        .flat_map(|w| {
            modes
                .iter()
                .map(|&m| grid_job(w.name, Scheme::OramModel, m, ORAM_INSTRUCTIONS, seed))
        })
        .collect()
}

/// `micro` × obfusmem-auth × queued × 2 channels over every link-fault
/// kind and every device-fault kind.
pub fn faults(seed: u64) -> Result<Vec<JobSpec>, String> {
    let link = SweepSpec {
        fault_kinds: ALL_FAULT_KINDS.to_vec(),
        fault_rates: vec![LINK_FAULT_RATE],
        ..faults_control_spec(seed)
    };
    let device = SweepSpec {
        device_fault_kinds: ALL_DEVICE_FAULT_KINDS.to_vec(),
        device_fault_rates: vec![DEVICE_FAULT_RATE],
        ..faults_control_spec(seed)
    };
    let mut jobs = link.expand().map_err(|e| e.to_string())?;
    jobs.extend(device.expand().map_err(|e| e.to_string())?);
    Ok(jobs)
}

/// The fault-free control jobs of the faults workload's shape, which
/// the traced run prices the link and recovery layers against. They stay
/// out of the workload itself: their cost (about half a link-fault job)
/// would put the job median on the boundary between two job classes.
pub fn faults_control(seed: u64) -> Result<Vec<JobSpec>, String> {
    faults_control_spec(seed)
        .expand()
        .map_err(|e| e.to_string())
}

fn faults_control_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        workloads: vec!["micro".into()],
        schemes: vec![Scheme::ObfusmemAuth],
        channels: vec![2],
        backends: vec![BackendKind::Queued],
        replicates: FAULTS_REPLICATES,
        master_seed: seed,
        instructions: FAULTS_INSTRUCTIONS,
        fault_seed: seed ^ FAULT_SEED_SALT,
        device_fault_seed: seed ^ DEVICE_FAULT_SEED_SALT,
        ..SweepSpec::default()
    }
}

/// The serve cell under `seed`.
pub fn serve_spec(seed: u64) -> ServeSpec {
    ServeSpec {
        tenants: vec![SERVE_TENANTS],
        churns: vec![SERVE_CHURN],
        channels: SERVE_CHANNELS,
        requests: SERVE_REQUESTS,
        storm_period: SERVE_STORM_PERIOD,
        seed,
        dh: DhStrength::Full,
        workload: "micro".into(),
        chunk: SERVE_CHUNK,
        ..ServeSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Jobs in one pass.
    fn jobs_per_pass(plan: &Plan) -> usize {
        match plan {
            Plan::Grid { jobs, .. } => jobs.len(),
            Plan::Serve { spec, .. } => {
                (spec.tenants[0] as u64 * spec.requests).div_ceil(spec.chunk) as usize
            }
        }
    }

    #[test]
    fn plans_have_the_documented_shapes() {
        let grid = Plan::new("paper-grid", 1).unwrap();
        assert_eq!(jobs_per_pass(&grid), 75);
        let faults = Plan::new("faults", 1).unwrap();
        assert_eq!(jobs_per_pass(&faults), 50);
        assert_eq!(faults_control(1).unwrap().len(), FAULTS_REPLICATES as usize);
        let oram = Plan::new("oram-codesign", 1).unwrap();
        assert_eq!(jobs_per_pass(&oram), 45);
        let serve = Plan::new("serve", 1).unwrap();
        assert_eq!(jobs_per_pass(&serve), 64);
        assert!(Plan::new("nope", 1).is_err());
        for w in WORKLOADS {
            let plan = Plan::new(w, 3).unwrap();
            assert_eq!(plan.name(), w);
            let n = jobs_per_pass(&plan);
            assert!(
                crate::stats::tail_permille(n) >= Some(750),
                "{w}: {n} jobs give no p75 tail"
            );
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(faults(7).unwrap(), faults(7).unwrap());
        assert_ne!(faults(7).unwrap(), faults(8).unwrap());
        assert!(paper_grid(9).iter().all(|j| j.seed == 9));
    }
}
