//! Service latency models and source stall windows.

#[cfg(test)]
use crate::SimRng;
use crate::{Duration, Time};

/// How long one service operation (an index lookup, a scan page fetch)
/// takes in virtual time.
///
/// The paper's Table 3 uses "sleeps of identical duration" —
/// [`LatencyModel::Fixed`]. The other variants support the robustness
/// ablations (benchmarks confirm the figure shapes survive latency jitter).
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every operation takes exactly this long.
    Fixed(Duration),
    /// Uniform in `[lo, hi]`.
    Uniform { lo: Duration, hi: Duration },
    /// Exponentially distributed with the given mean.
    Exponential { mean: Duration },
}

impl LatencyModel {
    /// Draw one service duration.
    #[cfg(test)]
    fn sample(&self, rng: &mut SimRng) -> Duration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency with lo > hi");
                lo + rng.below(hi - lo + 1)
            }
            LatencyModel::Exponential { mean } => rng.exp(*mean as f64).round() as Duration,
        }
    }

    /// The mean of the model.
    #[cfg(test)]
    fn mean(&self) -> Duration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { lo, hi } => (lo + hi) / 2,
            LatencyModel::Exponential { mean } => *mean,
        }
    }
}

/// Intervals during which a source is unavailable.
///
/// Models the paper's motivating "volatility of distributed data sources":
/// a stalled source accepts no work until the window ends; operations
/// requested during a stall are delayed to the window's end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallWindows {
    /// Sorted, non-overlapping `[start, end)` windows.
    windows: Vec<(Time, Time)>,
}

impl StallWindows {
    /// Build from `[start, end)` pairs; they are sorted and merged.
    pub fn new(mut windows: Vec<(Time, Time)>) -> StallWindows {
        windows.retain(|(s, e)| e > s);
        windows.sort_unstable();
        let mut merged: Vec<(Time, Time)> = Vec::with_capacity(windows.len());
        for (s, e) in windows {
            match merged.last_mut() {
                Some((_, pe)) if s <= *pe => *pe = (*pe).max(e),
                _ => merged.push((s, e)),
            }
        }
        StallWindows { windows: merged }
    }

    /// The earliest time ≥ `t` at which the source is available.
    pub fn next_available(&self, t: Time) -> Time {
        for (s, e) in &self.windows {
            if (*s..*e).contains(&t) {
                return *e;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{secs, secs_f};

    #[test]
    fn fixed_always_same() {
        let m = LatencyModel::Fixed(secs_f(1.5));
        let mut rng = SimRng::new(1);
        assert_eq!(m.sample(&mut rng), 1_500_000);
        assert_eq!(m.sample(&mut rng), 1_500_000);
        assert_eq!(m.mean(), 1_500_000);
    }

    #[test]
    fn uniform_in_bounds() {
        let m = LatencyModel::Uniform { lo: 10, hi: 20 };
        let mut rng = SimRng::new(2);
        for _ in 0..500 {
            let d = m.sample(&mut rng);
            assert!((10..=20).contains(&d));
        }
        assert_eq!(m.mean(), 15);
    }

    #[test]
    fn exponential_mean_close() {
        let m = LatencyModel::Exponential { mean: 1000 };
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean={mean}");
    }

    #[test]
    fn stall_windows_merge_and_query() {
        let w = StallWindows::new(vec![
            (secs(10), secs(20)),
            (secs(15), secs(25)),
            (secs(40), secs(41)),
        ]);
        assert_eq!(w.next_available(secs(9)), secs(9));
        assert_eq!(w.next_available(secs(10)), secs(25));
        assert_eq!(w.next_available(secs(24)), secs(25));
        assert_eq!(w.next_available(secs(25)), secs(25));
        assert_eq!(w.next_available(secs(12)), secs(25));
        assert_eq!(w.next_available(secs(40)), secs(41));
        assert_eq!(w.next_available(secs(5)), secs(5));
    }

    #[test]
    fn empty_windows_never_stall() {
        let w = StallWindows::default();
        assert_eq!(w.next_available(0), 0);
        assert_eq!(w.next_available(123), 123);
    }

    #[test]
    fn degenerate_windows_dropped() {
        let w = StallWindows::new(vec![(5, 5), (7, 6)]);
        assert_eq!(w.next_available(5), 5);
        assert_eq!(w.next_available(6), 6);
    }
}
