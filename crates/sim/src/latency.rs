//! Source stall windows.

use crate::Time;

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
    use crate::secs;

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
