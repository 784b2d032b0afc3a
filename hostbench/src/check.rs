//! The output check: simulated outputs against the digests kept with the
//! benchmark, against the program's own path, and against themselves
//! across passes.

use obfusmem_harness::job::run_job;
use obfusmem_harness::serve::run_cell;
use obfusmem_harness::sink::encode_row;

use crate::plan::Plan;

/// Digests of each workload's simulated output, made by the program's own
/// path (`hostbench digest`): `workload seed fnv1a64-hex` per line.
pub const DIGESTS: &str = include_str!("../digests.txt");

/// The default seed. The digest table covers it and the seeds around it
/// (`hostbench digest` writes seeds 0 to 15).
pub const DEFAULT_SEED: u64 = 1;

/// One checked unit of a pass: a grid job, or the serve cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The simulated output: the harness row with no host time in it.
    pub row: String,
    /// Operations the unit stands for: 1 per job, served requests for a
    /// cell.
    pub weight: u64,
    /// Operations the simulation itself reported as failed (unrecovered
    /// faults, diverged counters, authentication failures).
    pub sim_failures: u64,
}

/// The output check's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Digest of the first pass's output.
    pub digest: u64,
    /// What each check found, for the report.
    pub notes: Vec<String>,
}

/// FNV-1a 64 over the rows, each terminated by a newline.
pub fn digest<'a>(rows: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for &b in row.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digest `table` keeps for `workload` at `seed`, if any.
pub fn expected_digest(table: &str, workload: &str, seed: u64) -> Option<u64> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// Checks every pass's units. A unit fails when the workload's digest
/// does not match `expected`, when its row differs from the program's own
/// row (`program`: unit index → row), or when it differs from the same
/// unit of the first pass. A unit that passes still counts the failures
/// its simulation reported.
pub fn verify(passes: &[Vec<Unit>], program: &[(usize, String)], expected: Option<u64>) -> Verdict {
    let empty = Vec::new();
    let first = passes.first().unwrap_or(&empty);
    let got = digest(first.iter().map(|u| u.row.as_str()));
    let mut notes = Vec::new();
    let digest_ok = match expected {
        Some(want) if want == got => {
            notes.push(format!("digest {got:016x} matches"));
            true
        }
        Some(want) => {
            notes.push(format!("digest {got:016x} MISMATCH (expected {want:016x})"));
            false
        }
        None => {
            notes.push(format!("digest {got:016x} (no digest kept for this seed)"));
            true
        }
    };
    let mut bad = vec![!digest_ok; first.len()];
    let mut mismatched = 0;
    for (i, row) in program {
        if first.get(*i).is_none_or(|u| u.row != *row) {
            if let Some(b) = bad.get_mut(*i) {
                *b = true;
            }
            mismatched += 1;
        }
    }
    notes.push(format!(
        "program path: {}/{} sampled units match",
        program.len() - mismatched,
        program.len()
    ));
    let (mut attempted, mut failed, mut unstable, mut sim) = (0, 0, 0, 0);
    for pass in passes {
        for (i, u) in pass.iter().enumerate() {
            attempted += u.weight;
            let differs = first.get(i).is_none_or(|f| f.row != u.row);
            unstable += u64::from(differs);
            if differs || bad.get(i).copied().unwrap_or(true) {
                failed += u.weight;
            } else {
                sim += u.sim_failures.min(u.weight);
                failed += u.sim_failures.min(u.weight);
            }
        }
    }
    notes.push(format!(
        "{} passes: {unstable} units differ from the first pass; {sim} simulated failures",
        passes.len()
    ));
    Verdict {
        attempted,
        failed,
        digest: got,
        notes,
    }
}

/// At a seed the digest table covers, one unit in six of a grid workload
/// is re-run on the program's own path every run.
pub const CROSS_CHECK_STRIDE: usize = 6;

/// Indices of the `units` the program path re-runs under `seed`: a
/// seed-rotated sample when a digest covers the seed, else every unit,
/// since nothing else would catch a change in the unsampled ones.
pub fn cross_checked(units: usize, has_digest: bool, seed: u64) -> Vec<usize> {
    let stride = if has_digest { CROSS_CHECK_STRIDE } else { 1 };
    sample(units, stride, seed)
}

/// Indices of the units the program path re-runs in a run under `seed`:
/// every `stride`-th, offset by the seed so successive seeds cover all.
pub fn sample(units: usize, stride: usize, seed: u64) -> Vec<usize> {
    let offset = (seed % stride as u64) as usize;
    (offset..units).step_by(stride).collect()
}

/// The program's own rows for the units of `plan` at `indices`.
///
/// # Errors
///
/// A serve cell the harness rejects.
pub fn program_rows(plan: &Plan, indices: &[usize]) -> Result<Vec<(usize, String)>, String> {
    match plan {
        Plan::Grid { jobs, .. } => Ok(indices
            .iter()
            .map(|&i| (i, encode_row(&run_job(&jobs[i]), false)))
            .collect()),
        Plan::Serve { spec, .. } => {
            let cell =
                run_cell(spec, spec.tenants[0], spec.churns[0], true).map_err(|e| e.to_string())?;
            Ok(vec![(0, cell.row)])
        }
    }
}

/// Digest of the program's own output for `plan` (every unit).
///
/// # Errors
///
/// As for [`program_rows`].
pub fn program_digest(plan: &Plan) -> Result<u64, String> {
    let units = match plan {
        Plan::Grid { jobs, .. } => jobs.len(),
        Plan::Serve { .. } => 1,
    };
    let all: Vec<usize> = (0..units).collect();
    let rows = program_rows(plan, &all)?;
    Ok(digest(rows.iter().map(|(_, r)| r.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use obfusmem_harness::measure::OramMode;

    fn unit(row: &str) -> Unit {
        Unit {
            row: row.into(),
            weight: 1,
            sim_failures: 0,
        }
    }

    #[test]
    fn digest_table_parses() {
        let table = "# comment\npaper-grid 1 00000000000000ff\nserve 1 abc\n";
        assert_eq!(expected_digest(table, "paper-grid", 1), Some(255));
        assert_eq!(expected_digest(table, "serve", 1), Some(0xabc));
        assert_eq!(expected_digest(table, "serve", 2), None);
        assert_eq!(expected_digest(table, "faults", 1), None);
        for w in crate::plan::WORKLOADS {
            assert!(
                expected_digest(DIGESTS, w, DEFAULT_SEED).is_some(),
                "{w} has a digest at the default seed"
            );
        }
    }

    #[test]
    fn clean_passes_have_no_failures() {
        let passes = vec![vec![unit("a"), unit("b")]; 3];
        let want = digest(["a", "b"]);
        let v = verify(&passes, &[(1, "b".into())], Some(want));
        assert_eq!((v.attempted, v.failed), (6, 0));
        assert_eq!(v.digest, want);
    }

    #[test]
    fn corrupted_digest_fails_every_operation() {
        // Real simulated output from the probed path on micro.
        let mut jobs = crate::plan::oram_modes(2, &[OramMode::Serial, OramMode::Codesign]);
        jobs.truncate(2);
        for j in &mut jobs {
            j.workload = "micro".into();
            j.instructions = 10_000;
        }
        let pass: Vec<Unit> = jobs
            .iter()
            .map(|j| unit(&exec::run_job(j, false).unwrap().row))
            .collect();
        let passes = vec![pass.clone(), pass];
        let good = digest(passes[0].iter().map(|u| u.row.as_str()));
        let ok = verify(&passes, &[], Some(good));
        assert_eq!((ok.attempted, ok.failed), (4, 0));
        let corrupted = verify(&passes, &[], Some(good ^ 1));
        assert_eq!((corrupted.attempted, corrupted.failed), (4, 4));
        assert!(corrupted.notes[0].contains("MISMATCH"));
    }

    #[test]
    fn program_mismatch_instability_and_sim_failures_count() {
        let first = vec![unit("a"), unit("b"), unit("c")];
        let mut second = first.clone();
        second[2].row = "c'".into();
        let mut faulty = unit("a");
        faulty.weight = 100;
        faulty.sim_failures = 3;
        let v = verify(&[first, second], &[(1, "B".into())], None);
        // b fails in both passes (program mismatch), c' fails in pass 2.
        assert_eq!((v.attempted, v.failed), (6, 3));
        let v = verify(&[vec![faulty]], &[], None);
        assert_eq!((v.attempted, v.failed), (100, 3));
    }

    #[test]
    fn samples_rotate_with_the_seed() {
        assert_eq!(sample(10, 4, 0), vec![0, 4, 8]);
        assert_eq!(sample(10, 4, 5), vec![1, 5, 9]);
        let mut all: Vec<usize> = (0..4).flat_map(|s| sample(10, 4, s)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn seeds_without_a_digest_cross_check_every_unit() {
        assert_eq!(cross_checked(75, true, 1).len(), 13);
        assert_eq!(cross_checked(75, false, 1), (0..75).collect::<Vec<_>>());
    }
}
