//! Order statistics over host-time samples, and the scheme-ladder
//! subtraction that turns per-configuration costs into per-layer costs.

/// Percentiles a job tail may be reported at, in per mille, lowest first.
pub const TAIL_LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 0-based nearest-rank index of the `permille` percentile among `n`
/// sorted samples (`n >= 1`).
fn rank(permille: u64, n: usize) -> usize {
    let k = (permille * n as u64).div_ceil(1000) as usize;
    k.clamp(1, n) - 1
}

/// The highest ladder percentile (per mille) that has at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, or `None` when `n` is too
/// small for any rung.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND)
}

/// A tail percentile together with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in per mille (950 = p95).
    pub permille: u64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

/// The tail of `samples` under the ≥[`TAIL_BEYOND`]-beyond rule.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let permille = tail_permille(samples.len())?;
    Some(Tail {
        permille,
        value: percentile(samples, permille),
        n: samples.len(),
    })
}

/// Nearest-rank percentile (per mille) of `samples`; NaN when empty.
pub fn percentile(samples: &[f64], permille: u64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(permille, sorted.len())]
}

/// Median (mean of the two middle samples for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Each position's smallest sample over `rows`: given one row per pass
/// of the same pieces of work, each piece at its fastest pass. Rows
/// shorter than the first leave its positions to the others.
pub fn fastest(rows: &[Vec<f64>]) -> Vec<f64> {
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| {
            rows.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Ladder subtraction: given the cost of each configuration on a ladder
/// where every rung adds one layer to the one below, returns the bottom
/// rung's cost followed by each added layer's marginal cost.
pub fn ladder(rungs: &[f64]) -> Vec<f64> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &c)| if i == 0 { c } else { c - rungs[i - 1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(n: usize, permille: u64) -> usize {
        n - 1 - rank(permille, n)
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_and_picks_the_highest_rung() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(19), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        for n in 20..3000 {
            let p = tail_permille(n).expect("a rung exists from 20 samples");
            assert!(beyond(n, p) >= TAIL_BEYOND, "n={n} p={p}");
            if let Some(&higher) = TAIL_LADDER_PERMILLE.iter().find(|&&q| q > p) {
                assert!(beyond(n, higher) < TAIL_BEYOND, "n={n}: {higher} also fits");
            }
        }
    }

    #[test]
    fn tail_reports_value_rung_and_count() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&samples).expect("200 samples have a tail");
        assert_eq!(t.permille, 950);
        assert_eq!(t.n, 200);
        assert_eq!(t.value, 190.0, "nearest rank 190 of 200");
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);
        assert_eq!(tail(&samples[..15]), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 500), 3.0);
    }

    #[test]
    fn fastest_takes_each_piece_at_its_fastest_pass() {
        let passes = vec![
            vec![5.0, 1.0, 9.0],
            vec![4.0, 2.0, 9.5],
            vec![6.0, 3.0, 8.0],
        ];
        assert_eq!(fastest(&passes), vec![4.0, 1.0, 8.0]);
        assert_eq!(fastest(&passes[..1]), passes[0]);
        assert!(fastest(&[]).is_empty());
    }

    #[test]
    fn ladder_subtraction_yields_marginal_layer_costs() {
        // unprotected, +CTR, +obfuscation, +MAC
        let layers = ladder(&[1000.0, 1100.0, 1600.0, 4600.0]);
        assert_eq!(layers, vec![1000.0, 100.0, 500.0, 3000.0]);
        assert_eq!(
            layers.iter().sum::<f64>(),
            4600.0,
            "layers sum to the top rung"
        );
        assert!(ladder(&[]).is_empty());
        assert_eq!(ladder(&[7.0]), vec![7.0]);
    }
}
