//! Per-layer metrics of the traced run, derived from the probed phases of
//! each job, from the core's replay, from the scheme ladder, from the
//! program's own counters, and from a few probes timed around public
//! constructors.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use obfusmem_cpu::stream::MissStream;
use obfusmem_cpu::workload::WorkloadSpec;
use obfusmem_harness::job::JobSpec;
use obfusmem_harness::measure::{workload_by_name, OramMode, Scheme};
use obfusmem_obs::metrics::MetricsNode;

use crate::exec::{ns, timer_ns, CellRun, Chunk, JobRun, DETAILED_ORAM};
use crate::stats::{ladder, median};

/// End-to-end metrics: name, unit. Host time unless the name says not.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mreq_s", "Mreq/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name, unit. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("cpu.stream_new_ms", "ms"),
    ("cpu.gen_ns_per_req", "ns/req"),
    ("cpu.core_ns_per_req", "ns/req"),
    ("cpu.misses", "count"),
    ("cpu.writebacks", "count"),
    ("cache.mshr_stalls", "count"),
    ("core.backend_new_ms", "ms"),
    ("mem.ns_per_req", "ns/req"),
    ("mem.row_hit_ratio", "ratio"),
    ("crypto.ctr_ns_per_req", "ns/req"),
    ("crypto.counter_cache_hit_ratio", "ratio"),
    ("core.obfuscation_ns_per_req", "ns/req"),
    ("core.paired_dummies", "count"),
    ("crypto.mac_ns_per_req", "ns/req"),
    ("core.link_ns_per_req", "ns/req"),
    ("link.retransmits_per_fault", "ratio"),
    ("link.resyncs", "count"),
    ("core.recovery_ns_per_req", "ns/req"),
    ("recovery.retried_per_detected", "ratio"),
    ("oram.fixed_ns_per_access", "ns/access"),
    ("oram.serial_ns_per_access", "ns/access"),
    ("oram.codesign_ns_per_access", "ns/access"),
    ("oram.bucket_ops_per_access", "ops/access"),
    ("mem.batch_ns_per_access", "ns/access"),
    ("tenant.fabric_new_s", "s"),
    ("tenant.ns_per_req", "ns/req"),
    ("tenant.rekeys", "count"),
    ("tenant.storms", "count"),
    ("crypto.dh_ms_per_handshake", "ms"),
    ("harness.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_pct", "%"),
    ("trace.probe_ns_per_call", "ns/call"),
];

/// A traced grid job with the spec it ran.
pub type Traced<'a> = (&'a JobSpec, &'a JobRun);

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, to be filled in.
pub fn zeroed() -> Layers {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Costs a traced grid run measures apart from its jobs: the probe's
/// clock reads and miss-stream generation.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Host ns of one clock read (see [`timer_ns`]).
    pub timer_ns: f64,
    /// Per workload: (generation host ns, requests generated).
    pub gen: BTreeMap<String, (u64, u64)>,
}

impl Probes {
    /// Times the clock and, once per workload of `jobs`, the miss stream
    /// a job of that workload generates. The stream depends on the
    /// workload and seed only, so one probe covers every scheme or mode.
    ///
    /// # Errors
    ///
    /// An unknown workload.
    pub fn measure(jobs: &[JobSpec]) -> Result<Probes, String> {
        let mut gen = BTreeMap::new();
        for j in jobs {
            if gen.contains_key(&j.workload) {
                continue;
            }
            let w = workload_by_name(&j.workload).ok_or("unknown workload")?;
            let (_, ns, reqs) = stream_probe(&w, j.seed, w.misses_for(j.instructions));
            gen.insert(j.workload.clone(), (ns, reqs));
        }
        Ok(Probes {
            timer_ns: timer_ns(),
            gen,
        })
    }

    /// Generation host ns per request over every probed workload.
    pub fn gen_ns_per_req(&self) -> f64 {
        let (ns, reqs) = self
            .gen
            .values()
            .fold((0, 0), |(n, r), &(ns, reqs)| (n + ns, r + reqs));
        ratio(ns as f64, reqs as f64)
    }

    /// Host ns generating `run`'s requests took, as the stream probe
    /// priced them.
    pub fn gen_ns(&self, spec: &JobSpec, run: &JobRun) -> u64 {
        let (ns, reqs) = self.gen.get(&spec.workload).copied().unwrap_or((0, 0));
        (ratio(ns as f64, reqs as f64) * run.requests() as f64) as u64
    }

    /// The core's own host ns in `run`: its replay's steady state less
    /// generation.
    pub fn core_ns(&self, spec: &JobSpec, run: &JobRun) -> u64 {
        run.replay.steady_ns.saturating_sub(self.gen_ns(spec, run))
    }
}

/// Backend host ns per simulated request over `jobs`, the probe's timer
/// cost taken out.
fn backend_ns_per_req<'a>(jobs: impl Iterator<Item = &'a Traced<'a>>, probes: &Probes) -> f64 {
    let (ns, reqs) = jobs.fold((0u64, 0u64), |(n, r), (_, j)| {
        (n + j.t.backend_net_ns(probes.timer_ns), r + j.requests())
    });
    ratio(ns as f64, reqs as f64)
}

/// Sum of the counter `field` over every `mem.ch<N>` subtree.
fn per_channel(m: &MetricsNode, field: &str) -> u64 {
    m.get_child("mem").map_or(0, |mem| {
        mem.children()
            .filter(|(name, _)| name.starts_with("ch"))
            .map(|(_, ch)| ch.counter(field).unwrap_or(0))
            .sum()
    })
}

fn counter_sum<'a>(jobs: impl Iterator<Item = &'a Traced<'a>>, path: &str) -> u64 {
    jobs.map(|(_, j)| j.metrics.counter(path).unwrap_or(0))
        .sum()
}

/// The span label of a job's backend: scheme, ORAM mode, fault class.
pub fn backend_label(spec: &JobSpec) -> String {
    let mut label = match spec.scheme {
        Scheme::OramModel => format!("oram-{}", spec.oram_mode.name()),
        s => s.name().to_string(),
    };
    if spec.fault.is_some() {
        label.push_str("+link-fault");
    }
    if spec.device_fault.is_some() {
        label.push_str("+device-fault");
    }
    label
}

/// Metrics every grid workload reports: core, stream, MSHR, backend
/// construction and the probe's cost, from `all` traced jobs and
/// `one_pass` of them.
pub fn grid_common(layers: &mut Layers, all: &[Traced], one_pass: &[Traced], probes: &Probes) {
    let jobs = all.len().max(1) as f64;
    let sum = |f: &dyn Fn(&JobRun) -> u64| all.iter().map(|(_, j)| f(j)).sum::<u64>() as f64;
    let reqs = sum(&|j| j.requests());
    layers.insert(
        "cpu.stream_new_ms",
        sum(&|j| j.t.stream_setup_ns()) / jobs / 1e6,
    );
    layers.insert(
        "core.backend_new_ms",
        sum(&|j| j.t.backend_new_ns()) / jobs / 1e6,
    );
    let core = all
        .iter()
        .map(|(spec, j)| probes.core_ns(spec, j))
        .sum::<u64>();
    layers.insert("cpu.core_ns_per_req", ratio(core as f64, reqs));
    layers.insert("cpu.gen_ns_per_req", probes.gen_ns_per_req());
    layers.insert("trace.probe_ns_per_call", 2.0 * probes.timer_ns);
    let one = |path| counter_sum(one_pass.iter(), path) as f64;
    layers.insert("cpu.misses", one("core.misses"));
    layers.insert("cpu.writebacks", one("core.writebacks"));
    layers.insert("cache.mshr_stalls", one("cache.mshr.stalls"));
    layers.insert("mem.row_hit_ratio", row_hit_ratio(all.iter()));
}

/// Row-buffer hits over all row accesses of every memory channel.
fn row_hit_ratio<'a>(jobs: impl Iterator<Item = &'a Traced<'a>>) -> f64 {
    let (hits, all) = jobs.fold((0, 0), |(h, a), (_, j)| {
        let hits = per_channel(&j.metrics, "row_hits");
        let opens = per_channel(&j.metrics, "row_misses_clean")
            + per_channel(&j.metrics, "row_misses_dirty");
        (h + hits, a + hits + opens)
    });
    ratio(hits as f64, all as f64)
}

/// The paper grid's scheme ladder: unprotected → encrypt-only →
/// obfusmem → obfusmem-auth isolates the PCM model, CTR encryption,
/// obfuscation and MACs; the fixed ORAM column prices the ORAM model.
pub fn paper_grid(layers: &mut Layers, all: &[Traced], one_pass: &[Traced], probes: &Probes) {
    grid_common(layers, all, one_pass, probes);
    let of = |s: Scheme| {
        backend_ns_per_req(all.iter().filter(move |(spec, _)| spec.scheme == s), probes)
    };
    let rungs = [
        Scheme::Unprotected,
        Scheme::EncryptOnly,
        Scheme::Obfusmem,
        Scheme::ObfusmemAuth,
    ]
    .map(of);
    let marginal = ladder(&rungs);
    for (name, v) in [
        "mem.ns_per_req",
        "crypto.ctr_ns_per_req",
        "core.obfuscation_ns_per_req",
        "crypto.mac_ns_per_req",
    ]
    .into_iter()
    .zip(marginal)
    {
        layers.insert(name, v);
    }
    layers.insert("oram.fixed_ns_per_access", of(Scheme::OramModel));
    // The row-hit ratio of the reservation PCM model alone: the
    // unprotected column, where no dummy traffic shares the rows.
    layers.insert(
        "mem.row_hit_ratio",
        row_hit_ratio(all.iter().filter(|(s, _)| s.scheme == Scheme::Unprotected)),
    );
    // Request-weighted counter-cache hit ratio over the encrypting columns.
    let (w, n) = all
        .iter()
        .filter_map(|(_, j)| {
            let r = j.metrics.gauge("crypto.counter_cache_hit_ratio")?;
            Some((r * j.requests() as f64, j.requests() as f64))
        })
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    layers.insert("crypto.counter_cache_hit_ratio", ratio(w, n));
    layers.insert(
        "core.paired_dummies",
        counter_sum(one_pass.iter(), "engine.paired_dummies") as f64,
    );
}

/// Link and device recovery, each priced against `control`: fault-free
/// jobs of the same shape.
pub fn faults(
    layers: &mut Layers,
    all: &[Traced],
    one_pass: &[Traced],
    control: &[Traced],
    probes: &Probes,
) {
    grid_common(layers, all, one_pass, probes);
    let control = backend_ns_per_req(control.iter(), probes);
    let link = backend_ns_per_req(all.iter().filter(|(s, _)| s.fault.is_some()), probes);
    let device = backend_ns_per_req(all.iter().filter(|(s, _)| s.device_fault.is_some()), probes);
    layers.insert("core.link_ns_per_req", link - control);
    layers.insert("core.recovery_ns_per_req", device - control);
    let one = |path| counter_sum(one_pass.iter(), path) as f64;
    layers.insert(
        "link.retransmits_per_fault",
        ratio(one("link.retransmits"), one("link.faults_injected")),
    );
    layers.insert("link.resyncs", one("link.resyncs"));
    layers.insert(
        "recovery.retried_per_detected",
        ratio(one("recovery.retried"), one("recovery.detected")),
    );
}

/// The ORAM modes, and the controller batch path serial and codesign
/// differ by.
pub fn oram_codesign(layers: &mut Layers, all: &[Traced], one_pass: &[Traced], probes: &Probes) {
    grid_common(layers, all, one_pass, probes);
    let of =
        |m: OramMode| backend_ns_per_req(all.iter().filter(move |(s, _)| s.oram_mode == m), probes);
    let serial = of(OramMode::Serial);
    let codesign = of(OramMode::Codesign);
    layers.insert("oram.fixed_ns_per_access", of(OramMode::Fixed));
    layers.insert("oram.serial_ns_per_access", serial);
    layers.insert("oram.codesign_ns_per_access", codesign);
    layers.insert("mem.batch_ns_per_access", codesign - serial);
    // The fixed model has no tree of DETAILED_ORAM's geometry.
    let one = |path| {
        let detailed = one_pass
            .iter()
            .filter(|(s, _)| s.oram_mode != OramMode::Fixed);
        counter_sum(detailed, path) as f64
    };
    let slots = one("oram.blocks_read") + one("oram.blocks_written") + one("oram.dummy_writes");
    layers.insert(
        "oram.bucket_ops_per_access",
        ratio(
            slots / DETAILED_ORAM.bucket_size as f64,
            one("oram.accesses"),
        ),
    );
}

/// The session fabric: set-up, per-request cost and churn counts.
pub fn serve(layers: &mut Layers, cells: &[&CellRun]) {
    let setups: Vec<f64> = cells.iter().map(|c| c.setup_ns() as f64 / 1e9).collect();
    layers.insert("tenant.fabric_new_s", median(&setups));
    let (ns, reqs) = cells.iter().fold((0u64, 0u64), |(n, r), c| {
        let busy: u64 = c.chunks.iter().map(Chunk::ns).sum();
        (n + busy, r + c.requests())
    });
    layers.insert("tenant.ns_per_req", ratio(ns as f64, reqs as f64));
    if let Some(c) = cells.first() {
        layers.insert("tenant.rekeys", c.rekeys as f64);
        layers.insert("tenant.storms", c.storms as f64);
        layers.insert("cpu.misses", c.served as f64);
        layers.insert("cpu.writebacks", c.writebacks as f64);
    }
}

/// Times `MissStream::new` and the generation of `events` miss events
/// for `spec`: (construction ns, generation ns, requests generated).
pub fn stream_probe(spec: &WorkloadSpec, seed: u64, events: u64) -> (u64, u64, u64) {
    let t0 = Instant::now();
    let mut stream = MissStream::new(spec.clone(), seed);
    let t1 = Instant::now();
    let mut requests = 0;
    for _ in 0..events {
        let e = black_box(stream.next_event());
        requests += 1 + u64::from(e.writeback.is_some());
    }
    let t2 = Instant::now();
    (ns(t0, t1), ns(t1, t2), requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\"")
                .skip(1)
                .map(|p| p.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&section("end_to_end")), e2e);
        let per: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&section("per_layer")), per);
        let work = names(&section("workloads"));
        assert_eq!(work, crate::plan::WORKLOADS);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn stream_probe_generates_the_requested_events() {
        let spec = obfusmem_cpu::workload::micro_test_workload();
        let (_, _, requests) = stream_probe(&spec, 1, 1000);
        assert!((1000..=2000).contains(&requests), "{requests}");
    }
}
