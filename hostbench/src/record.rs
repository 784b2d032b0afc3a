//! The run record: what the host was doing while a run measured, so a
//! slow host can be told apart from a slower program. Linux `/proc` only.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use obfusmem_harness::jsonl::JsonObject;

/// Kernel clock ticks per second in `/proc/stat` and `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Iterations of the reference kernel: about 1 ms on the host below.
const REFERENCE_ITERATIONS: u64 = 350_000;

/// The reference kernel's time, ns, on a host of nominal speed: about its
/// fastest on the 2-vCPU KVM guest of an Intel Xeon (family 6, model 143)
/// the benchmark was tuned on, where runs saw 0.93 to 1.15 ms. End-to-end
/// times are scaled to a host this fast.
pub const REFERENCE_NOMINAL_NS: f64 = 1_000_000.0;

/// Host ns of the fastest of `samples` runs of the reference kernel:
/// integer mixing with a data-dependent branch, in registers only, so its
/// time follows the core's speed (its clock, a busy neighbour on the
/// host) and nothing the simulator leaves in caches or memory.
pub fn reference_ns(samples: usize) -> u64 {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0_u64);
            for i in 0..black_box(REFERENCE_ITERATIONS) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.wrapping_mul(i | 1)) ^ (acc >> 3);
                if x & 7 == 3 {
                    acc = acc.rotate_left(5);
                }
            }
            black_box(acc);
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(u64::MAX)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host-wide steal ticks so far (the 8th value of the `cpu` line).
fn steal_ticks() -> Result<u64, String> {
    let stat = read("/proc/stat")?;
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7)?.parse().ok())
        .ok_or_else(|| "no steal field in /proc/stat".to_string())
}

/// This process's (user, system) CPU seconds.
fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .map(|t| t / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)?, tick(12)?))
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Collects the record from the start of a run to its end.
pub struct Recorder {
    began: Instant,
    steal: Result<u64, String>,
}

impl Recorder {
    /// Starts the record.
    pub fn start() -> Self {
        Recorder {
            began: Instant::now(),
            steal: steal_ticks(),
        }
    }

    /// Finishes the record, appends it to `dir/runs.jsonl` and returns it.
    ///
    /// # Errors
    ///
    /// `/proc` unreadable, or the record file unwritable.
    pub fn finish(
        self,
        workload: &str,
        seed: u64,
        traced: bool,
        pass_walls_s: &[f64],
        host_speed: f64,
        dir: &str,
    ) -> Result<String, String> {
        let (user_s, sys_s) = cpu_seconds()?;
        let steal_s = (steal_ticks()? - self.steal?) as f64 / USER_HZ;
        let passes = pass_walls_s
            .iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ");
        let line = JsonObject::new()
            .string("workload", workload)
            .u64("seed", seed)
            .u64("trace", u64::from(traced))
            .f64("wall_s", self.began.elapsed().as_secs_f64())
            .f64("user_s", user_s)
            .f64("sys_s", sys_s)
            .f64("steal_s", steal_s)
            .string("pass_wall_s", &passes)
            .f64("host_speed", host_speed)
            .u64(
                "nproc",
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            )
            .string("cpu", &cpu_model())
            .finish();
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/runs.jsonl");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_parse() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let (user, sys) = cpu_seconds().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
        steal_ticks().unwrap();
        assert!(!cpu_model().is_empty());
    }

    #[test]
    fn reference_kernel_takes_time() {
        let ns = reference_ns(3);
        assert!(ns > 0 && ns < 1_000_000_000, "{ns} ns");
    }
}
