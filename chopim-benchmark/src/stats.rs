//! Order statistics, the report digest, and process memory.

/// The `q`-quantile of `samples` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The fastest of `samples` (0 for none). On a shared machine
/// interference only ever adds time, so the fastest sample tracks the
/// program's own cost far more steadily than the median does.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// A run's time per rep: each rep is split into the same laps (the
/// same slices of the same deterministic work), and this sums, lap by
/// lap, the fastest time any rep took for that lap. Interference on a
/// shared machine only ever adds time, in bursts shorter than a rep as
/// often as longer; a lap's fastest time only needs one rep that ran
/// that lap undisturbed, where the fastest whole rep needs one rep
/// undisturbed from end to end. 0 for no reps.
pub fn lap_floor(reps: &[Vec<f64>]) -> f64 {
    let laps = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..laps)
        .map(|i| {
            reps.iter()
                .filter_map(|r| r.get(i))
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .sum()
}

/// The mean of `values`, or 0 for none.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    ratio(sum, f64::from(n))
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, folded over `bytes` starting from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold the `{:?}` rendering of `value` into a running digest.
pub fn digest_debug(state: u64, value: &impl std::fmt::Debug) -> u64 {
    fnv1a(state, format!("{value:?}").as_bytes())
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(mean(v.into_iter()), 2.5);
        assert_eq!((fastest(&[]), mean(std::iter::empty())), (0.0, 0.0));
    }

    #[test]
    fn lap_floor_sums_each_laps_fastest_rep() {
        let reps = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 4.0],
            vec![2.0, 2.0, 1.0],
        ];
        assert_eq!(lap_floor(&reps), 3.0);
        // It is never above the fastest whole rep.
        let whole: Vec<f64> = reps.iter().map(|r| r.iter().sum()).collect();
        assert!(lap_floor(&reps) <= fastest(&whole));
        assert_eq!(lap_floor(&reps[..1]), 8.0);
        assert_eq!(lap_floor(&[]), 0.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
