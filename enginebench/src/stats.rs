//! The benchmark's statistics: medians, quartiles, the tail-percentile
//! rule, and open-loop latency accounting.

/// A timing reported as a median with its spread and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of `values` (see [`quartiles`]).
    pub fn of(values: &[f64]) -> Summary {
        let (q1, value, q3) = quartiles(values);
        Summary {
            value,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A single value with no spread (a count or a once-per-run figure).
    pub fn single(value: f64, n: usize) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the middle two for an even count, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` with the first and third quartile computed as
/// Python's `statistics.quantiles(values, n=4)` does (the default
/// "exclusive" method), so figures compare one to one with that tool.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let quantile = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: for very short inputs the clamp makes `delta` negative,
        // which extrapolates exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), median(&v), quantile(3))
}

/// Percentile `p` over items of a time measured several times per item
/// (`samples[item]`). Each item's time is first reduced to its median, so
/// a stall that hits an item once does not reach the figure; the
/// percentile is then taken over items. The spread reported is the same
/// percentile over the items' first and third quartiles, which brackets
/// the value. Items without samples are skipped.
pub fn item_percentile(samples: &[Vec<f64>], p: f64) -> Summary {
    let (mut q1s, mut meds, mut q3s) = (Vec::new(), Vec::new(), Vec::new());
    for item in samples.iter().filter(|s| !s.is_empty()) {
        let (q1, med, q3) = quartiles(item);
        q1s.push(q1);
        meds.push(med);
        q3s.push(q3);
    }
    Summary {
        value: percentile(&meds, p),
        q1: percentile(&q1s, p),
        q3: percentile(&q3s, p),
        n: samples.iter().map(Vec::len).sum(),
    }
}

/// Appends one repetition's per-item times to the per-item samples.
pub fn add_repetition(samples: &mut Vec<Vec<f64>>, times: impl IntoIterator<Item = f64>) {
    for (i, t) in times.into_iter().enumerate() {
        if i == samples.len() {
            samples.push(Vec::new());
        }
        samples[i].push(t);
    }
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest of the standard percentiles that has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Open-loop latency of one request: the time from when it was due to be
/// sent to when its answer was ready. `lag_ns` is how late the generator
/// actually sent it, and `service_ns` is the service's own submit-to-answer
/// time, so a generator stall is charged to every request it delayed.
pub fn open_loop_latency_ns(scheduled_ns: u64, sent_ns: u64, service_ns: u64) -> u64 {
    sent_ns.saturating_sub(scheduled_ns) + service_ns
}

/// How late each request was sent relative to its schedule.
pub fn generator_lags_ns(scheduled_ns: &[u64], sent_ns: &[u64]) -> Vec<u64> {
    scheduled_ns
        .iter()
        .zip(sent_ns)
        .map(|(&due, &sent)| sent.saturating_sub(due))
        .collect()
}

/// Fixed-interval arrival schedule: request `i` is due at `i / rate_rps`
/// seconds after the phase starts.
pub fn schedule_ns(rate_rps: f64, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| (i as f64 * 1e9 / rate_rps).round() as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn item_percentile_ignores_a_stall_in_one_repetition() {
        // 100 items costing 1..=100 ms; in repetition 1 every item stalls
        // by 50 ms, in repetition 2 only item 0 does.
        let base: Vec<f64> = (1..=100).map(f64::from).collect();
        let stalled: Vec<f64> = base.iter().map(|t| t + 50.0).collect();
        let mut one = base.clone();
        one[0] += 500.0;
        let mut samples = Vec::new();
        for rep in [base.clone(), stalled, one, base] {
            add_repetition(&mut samples, rep);
        }
        assert_eq!(samples.len(), 100);
        let s = item_percentile(&samples, 99.0);
        assert_eq!(s.value, 99.0);
        assert_eq!(s.n, 400);
        assert!(s.q1 <= s.value && s.value <= s.q3);
        assert_eq!(item_percentile(&[], 99.0).n, 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_scheduled_send() {
        // Due at 1 ms, sent at 3 ms (a 2 ms generator stall), answered
        // 0.5 ms after the send: the user waited 2.5 ms.
        assert_eq!(
            open_loop_latency_ns(1_000_000, 3_000_000, 500_000),
            2_500_000
        );
        // A send before its due time (never happens) is not a credit.
        assert_eq!(open_loop_latency_ns(5, 3, 10), 10);
    }

    #[test]
    fn generator_lag_and_schedule() {
        let due = schedule_ns(1000.0, 4);
        assert_eq!(due, vec![0, 1_000_000, 2_000_000, 3_000_000]);
        let sent = vec![10, 1_000_000, 2_500_000, 2_900_000];
        assert_eq!(generator_lags_ns(&due, &sent), vec![10, 0, 500_000, 0]);
    }
}
