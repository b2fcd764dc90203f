//! Sample statistics shared by every workload: nearest-rank
//! percentiles with the "ten samples beyond" rule, medians, and the
//! rate-ladder search that turns per-rung tail latencies into the
//! highest sustainable rate.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the tail value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100, resolved to a
/// tenth) among `n ≥ 1` samples. Integer arithmetic, so `p = 99` of
/// 1000 samples is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentile `p` of an unsorted sample, sorting it in place (NaN
/// when empty, so a missing figure cannot pass for a measured one).
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        f64::NAN
    } else {
        percentile(values, p)
    }
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Does the percentile `p` of `n` samples have enough samples beyond it?
pub fn tail_ok(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of `n` samples with at least [`MIN_BEYOND`]
/// samples beyond it, as a whole or tenth percentile (`None` when even
/// the median has fewer than that many samples above it).
pub fn highest_percentile(n: usize) -> Option<f64> {
    (500..=999)
        .rev()
        .map(|tenths| tenths as f64 / 10.0)
        .find(|&p| tail_ok(n, p))
}

/// Median of an unsorted sample (the lower middle for even sizes, so
/// the value is always one that was measured).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Geometric mean over `groups` of each group's median, for samples
/// tagged with their group: every group weighs the same, whatever its
/// share of the samples, and no single sample sits on a boundary
/// between groups the way a pooled percentile can.
pub fn geomean_of_medians(groups: &[usize], samples: &[(usize, f64)]) -> f64 {
    let logs: Vec<f64> = groups
        .iter()
        .filter_map(|g| {
            let mine: Vec<f64> = samples
                .iter()
                .filter(|(h, _)| h == g)
                .map(|(_, x)| *x)
                .collect();
            (!mine.is_empty()).then(|| median(&mine).ln())
        })
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// One rung of an open-loop rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency (from due time) of the requests sent at this rate.
    pub p99_us: f64,
    /// Requests still unanswered when the rung's schedule ended.
    pub outstanding_at_end: usize,
}

impl Rung {
    /// A rung passes when its tail meets the limit and the backlog left
    /// at its end is no more than the requests the limit itself allows
    /// to be in flight (`rate × limit`), i.e. the backlog is not growing.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us && (self.outstanding_at_end as f64) <= self.rate * limit_us / 1e6
    }
}

/// The highest sustainable rate on an ascending ladder: the last passing
/// rung, moved towards the first failing one by log-linear interpolation
/// of the tail latency to the limit, so the result is continuous rather
/// than snapping to a rung. `None` when the first rung already fails.
pub fn max_sustainable_rate(rungs: &[Rung], limit_us: f64) -> Option<f64> {
    let fail = rungs.iter().position(|r| !r.passes(limit_us));
    match fail {
        None => rungs.last().map(|r| r.rate),
        Some(0) => None,
        Some(i) => {
            let (lo, hi) = (rungs[i - 1], rungs[i]);
            // A rung that failed on backlog alone gives no latency
            // gradient to interpolate along: stay at the passing rung.
            let frac = if hi.p99_us > limit_us && hi.p99_us > lo.p99_us {
                let (l0, l1) = (lo.p99_us.max(1.0).ln(), hi.p99_us.ln());
                ((limit_us.ln() - l0) / (l1 - l0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            Some(lo.rate + (hi.rate - lo.rate) * frac)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_ok(1000, 99.0));
        assert!(!tail_ok(999, 99.0));
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(tail_ok(200, 95.0));
        assert!(!tail_ok(199, 95.0));
        assert!(!tail_ok(0, 50.0));
        assert!(tail_ok(54, 80.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_beyond() {
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(54), Some(81.4));
        assert_eq!(highest_percentile(19), None);
        for n in [20, 37, 54, 100, 999, 12_345] {
            let p = highest_percentile(n).expect("enough samples");
            assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            assert!(
                samples_beyond(n, p + 0.1) < MIN_BEYOND || p >= 99.9,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn median_is_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_weighs_groups_equally() {
        let samples = [
            (0, 1.0),
            (0, 1.0),
            (0, 1.0),
            (1, 100.0),
            (1, 300.0),
            (1, 100.0),
        ];
        assert!((geomean_of_medians(&[0, 1], &samples) - 10.0).abs() < 1e-9);
        assert!((geomean_of_medians(&[1], &samples) - 100.0).abs() < 1e-9);
    }

    fn rung(rate: f64, p99_us: f64, outstanding_at_end: usize) -> Rung {
        Rung {
            rate,
            p99_us,
            outstanding_at_end,
        }
    }

    #[test]
    fn ladder_interpolates_between_pass_and_fail() {
        let limit = 20_000.0;
        let rungs = [
            rung(4000.0, 2_000.0, 2),
            rung(6000.0, 5_000.0, 3),
            rung(8000.0, 80_000.0, 900),
        ];
        let rate = max_sustainable_rate(&rungs, limit).expect("first rung passes");
        // ln(20/5) / ln(80/5) = 0.5 of the way from 6000 to 8000.
        assert!((rate - 7000.0).abs() < 1e-6, "rate={rate}");
    }

    #[test]
    fn ladder_edges() {
        let limit = 20_000.0;
        // Every rung passes: the top rung is the answer.
        let all = [rung(1000.0, 100.0, 0), rung(2000.0, 200.0, 0)];
        assert_eq!(max_sustainable_rate(&all, limit), Some(2000.0));
        // The first rung fails: no sustainable rate on this ladder.
        assert_eq!(
            max_sustainable_rate(&[rung(1000.0, 50_000.0, 0)], limit),
            None
        );
        // A growing backlog fails a rung even with a good tail; the
        // interpolation then stays at the passing rung.
        let backlog = [rung(1000.0, 1_000.0, 0), rung(2000.0, 1_500.0, 500)];
        assert!(!backlog[1].passes(limit));
        assert_eq!(max_sustainable_rate(&backlog, limit), Some(1000.0));
    }
}
