//! Host-time spans recorded from outside the program, kept in memory and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use obfusmem_harness::jsonl::JsonObject;

/// One span: a named host-time interval, or (for `calls > 1`) the summed
/// busy time of many calls that all sit inside the parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span times, e.g. `core.backend_new`.
    pub name: String,
    /// Job the span belongs to (unique within a run).
    pub job: u64,
    /// Index of the enclosing span; `None` for a job's root span.
    pub parent: Option<usize>,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// Duration (summed busy time for an aggregate span), ns.
    pub dur_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_job: u64,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_job: 0,
        }
    }

    /// A fresh job id.
    pub fn next_job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Records `[start, end)` and returns the span's index.
    pub fn span(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let dur = crate::exec::ns(start, end);
        self.busy(name, job, parent, start, dur, 1)
    }

    /// Records an aggregate of `calls` calls that were busy for `dur_ns`
    /// in total, the first starting at `start`.
    pub fn busy(
        &mut self,
        name: &str,
        job: u64,
        parent: Option<usize>,
        start: Instant,
        dur_ns: u64,
        calls: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            job,
            parent,
            start_ns: crate::exec::ns(self.epoch, start),
            dur_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns as i64;
            }
        }
        own
    }

    /// Per-layer self time, and how much of the root spans' wall time no
    /// layer accounts for.
    pub fn rollup(&self) -> Rollup {
        let own = self.self_times();
        let mut layers: BTreeMap<String, (i64, u64)> = BTreeMap::new();
        let mut root_ns = 0u64;
        let mut residual_ns = 0i64;
        let mut worst_pct = 0.0f64;
        for (s, &own) in self.spans.iter().zip(&own) {
            if s.parent.is_none() {
                root_ns += s.dur_ns;
                residual_ns += own;
                if s.dur_ns > 0 {
                    worst_pct = worst_pct.max(100.0 * own.unsigned_abs() as f64 / s.dur_ns as f64);
                }
            } else {
                let e = layers.entry(s.name.clone()).or_default();
                e.0 += own;
                e.1 += s.calls;
            }
        }
        Rollup {
            layers,
            root_ns,
            residual_ns,
            worst_pct,
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut obj = JsonObject::new()
                .string("name", &s.name)
                .u64("job", s.job)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.start_ns + s.dur_ns)
                .u64("dur_ns", s.dur_ns)
                .u64("calls", s.calls);
            if let Some(p) = s.parent {
                obj = obj.u64("parent", p as u64);
            }
            writeln!(out, "{}", obj.finish())?;
        }
        out.flush()
    }
}

/// Self time per layer over a run's root spans (jobs, or serve cells).
#[derive(Debug, Clone, PartialEq)]
pub struct Rollup {
    /// Layer name → (self ns, calls).
    pub layers: BTreeMap<String, (i64, u64)>,
    /// Summed wall time of the root spans.
    pub root_ns: u64,
    /// Root wall time minus every layer's self time.
    pub residual_ns: i64,
    /// The largest residual of a single root span, % of its wall time.
    pub worst_pct: f64,
}

impl Rollup {
    /// The residual as a share of root wall time, %.
    pub fn residual_pct(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        100.0 * self.residual_ns as f64 / self.root_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_rollup_keeps_the_residual() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let job = t.next_job();
        let root = t.span("job", job, None, at(0), at(100));
        let run = t.span("core.run", job, Some(root), at(10), at(95));
        t.busy("backend", job, Some(run), at(12), 60_000_000, 500);
        t.span("core.backend_new", job, Some(root), at(0), at(10));
        let own = t.self_times();
        assert_eq!(own, vec![5_000_000, 25_000_000, 60_000_000, 10_000_000]);
        let r = t.rollup();
        assert_eq!(r.root_ns, 100_000_000);
        assert_eq!(r.residual_ns, 5_000_000);
        assert_eq!(r.layers["backend"], (60_000_000, 500));
        assert!((r.residual_pct() - 5.0).abs() < 1e-9);
        assert!((r.worst_pct - 5.0).abs() < 1e-9);
        let sum: i64 = r.layers.values().map(|v| v.0).sum::<i64>() + r.residual_ns;
        assert_eq!(
            sum as u64, r.root_ns,
            "self times plus residual tile the wall"
        );
    }
}
