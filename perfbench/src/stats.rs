//! Order statistics of measured samples.

/// The median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `samples`; 0 when empty.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The 99th percentile where at least ten samples lie beyond it (1000 or
/// more samples), else the largest sample.
pub fn tail(samples: &[u64]) -> u64 {
    if samples.len() >= 1000 {
        quantile(samples, 0.99)
    } else {
        samples.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&samples, 0.5), 500);
        assert_eq!(tail(&samples), 990);
        assert_eq!(tail(&[5, 9, 1]), 9);
    }
}
