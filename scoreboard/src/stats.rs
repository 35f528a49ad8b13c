//! Noise discipline as code: percentiles, the tail rule, equal slices,
//! slice medians and their inter-quartile spread.
//!
//! Every timing the scoreboard prints goes through [`sliced`]: the run's
//! samples are cut into at least [`SLICES`] equal consecutive slices and
//! the statistic is taken per slice. Slices are whole *units* of the
//! workload's script (a block of the query pool, a pipelined round, a
//! write round, a burst), so every slice is the same work and slices
//! differ by noise alone, not by which queries fell into them.
//!
//! The reported value is the slices' **favourable quartile**: the first
//! quartile of a lower-is-better statistic, the third of a
//! higher-is-better one. On this shared two-core sandbox interference
//! only ever slows a slice down, comes in bursts of seconds, and in a bad
//! minute disturbs more than half of a run — ten runs of the slice
//! *median* spread by 25–30 % then, far beyond any bound worth having.
//! The favourable quartile reads the run where it was least disturbed and
//! still needs a quarter of the slices to agree, which a change to the
//! program moves and a noisy neighbour does not. The slices' median-based
//! inter-quartile spread is printed beside every value, so a run that was
//! disturbed says so.

/// Fewest equal consecutive slices a timing is taken over, when the run
/// holds that many whole units.
pub const SLICES: usize = 15;

/// Samples that must lie beyond a tail percentile for it to be quoted.
pub const TAIL_SUPPORT: usize = 10;

/// The percentiles the tail rule chooses from, ascending.
const TAIL_CANDIDATES: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Nearest-rank percentile of `samples` (`p` in `0..=1`).
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// a spread printed here is the spread the acceptance check computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 for a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// The tail rule: the highest percentile that still has at least
/// [`TAIL_SUPPORT`] samples beyond it (p50 when even that has not).
pub fn supported_tail(samples: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|p| samples as f64 * (1.0 - p) >= TAIL_SUPPORT as f64)
        .unwrap_or(0.50)
}

/// Cuts `items` into equal consecutive slices of whole units
/// (`per_unit` items each): [`SLICES`] to `2 * SLICES - 1` slices when
/// there are that many units, one slice per unit when there are fewer; a
/// trailing partial slice is dropped. Fewer items than one unit give one
/// slice of all.
pub fn slices<T>(items: &[T], per_unit: usize) -> Vec<&[T]> {
    let units = items.len() / per_unit.max(1);
    if units == 0 {
        return vec![items];
    }
    let per_slice = (units / SLICES).max(1) * per_unit;
    items.chunks_exact(per_slice).collect()
}

/// Which direction of a statistic is the favourable one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Favour {
    /// Smaller is better (times): the first quartile is reported.
    Low,
    /// Larger is better (rates): the third quartile is reported.
    High,
}

/// The favourable quartile of `values` (the single value of one).
pub fn favourable_quartile(values: &[f64], favour: Favour) -> f64 {
    assert!(!values.is_empty(), "quartile of no values");
    if values.len() == 1 {
        return values[0];
    }
    let (q1, q3) = quartiles(values);
    match favour {
        Favour::Low => q1,
        Favour::High => q3,
    }
}

/// A per-slice statistic reduced to one number, with the slices' spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    /// Favourable quartile of the per-slice statistic.
    pub value: f64,
    /// Inter-quartile range of the per-slice statistic over its median.
    pub spread: f64,
    /// Samples the statistic was taken over, all slices together.
    pub samples: usize,
}

/// Takes `stat` over each slice of `items` (see [`slices`]) and reports
/// the slices' favourable quartile and their spread.
pub fn sliced<T>(
    items: &[T],
    per_unit: usize,
    favour: Favour,
    stat: impl Fn(&[T]) -> f64,
) -> Sliced {
    let values: Vec<f64> = slices(items, per_unit).into_iter().map(stat).collect();
    Sliced {
        value: favourable_quartile(&values, favour),
        spread: spread(&values),
        samples: items.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of(&v, 0.50), 50.0);
        assert_eq!(percentile_of(&v, 0.99), 99.0);
        assert_eq!(percentile_of(&v, 1.0), 100.0);
        assert_eq!(percentile_of(&v, 0.0), 1.0);
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert_eq!((q1, q3), (15.0, 120.0));
        assert_eq!(spread(&[160.0, 10.0, 40.0, 20.0, 80.0]), 105.0 / 40.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // ≈160 commits support p90 (16 beyond) but not p95 (8 beyond).
        assert_eq!(supported_tail(160), 0.90);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(20), 0.50);
        assert_eq!(supported_tail(3), 0.50);
    }

    #[test]
    fn slices_are_whole_units() {
        let v: Vec<u32> = (0..470).collect();
        // 47 units of 10: fifteen slices of 3 units, the last 2 units dropped.
        let s = slices(&v, 10);
        assert_eq!(s.len(), 15);
        assert!(s.iter().all(|x| x.len() == 30));
        assert_eq!(s[1][0], 30);
        // Fewer units than SLICES: one slice per unit.
        assert_eq!(
            slices(&v[..35], 10)
                .iter()
                .map(|x| x.len())
                .collect::<Vec<_>>(),
            [10, 10, 10]
        );
        // Less than one unit: everything in one slice.
        assert_eq!(slices(&v[..7], 10), [&v[..7]]);
    }

    #[test]
    fn the_favourable_quartile_survives_a_run_that_is_mostly_disturbed() {
        // Sixteen slices; a noisy neighbour inflates ten of them. The
        // median slice is a disturbed one, the first quartile is not.
        let mut v = vec![10.0; 160];
        for x in &mut v[30..130] {
            *x = 14.0;
        }
        let s = sliced(&v, 10, Favour::Low, |slice| percentile_of(slice, 0.5));
        assert_eq!(s.value, 10.0);
        assert_eq!(s.samples, 160);
        assert!(s.spread > 0.0);
        // A rate reads the other end.
        assert_eq!(
            sliced(&v, 10, Favour::High, |slice| 1000.0 / slice[0]).value,
            100.0
        );
        // A change to the program moves every slice, and the quartile with it.
        let slower: Vec<f64> = v.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            sliced(&slower, 10, Favour::Low, |slice| percentile_of(slice, 0.5)).value,
            12.0
        );
        assert_eq!(favourable_quartile(&[7.0], Favour::Low), 7.0);
    }
}
