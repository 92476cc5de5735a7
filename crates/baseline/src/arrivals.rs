//! Arrival streams: when each row of a scanned table reaches the query
//! engine, derived from the catalog's [`ScanSpec`]s (rate, start delay,
//! stall windows) — the same model the eddy's scan AMs use.

use std::sync::Arc;
use stems_catalog::{ScanSpec, TableDef};
use stems_sim::{burst_gap, secs_f, StallWindows, Time};
use stems_types::Row;

/// Rows of one table with their arrival times, in time order.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    items: Vec<(Time, Arc<Row>)>,
}

impl ArrivalStream {
    /// Derive arrivals from a table and its scan spec. Chunked specs
    /// deliver rows in bursts — every row of a chunk lands at the instant
    /// the chunk has accumulated, exactly the cadence the eddy's `ScanAm`
    /// uses — so baseline comparisons see the same arrival process.
    pub fn from_scan(table: &TableDef, spec: &ScanSpec) -> ArrivalStream {
        let gap = secs_f(1.0 / spec.rate_tps).max(1);
        let stalls = StallWindows::new(spec.stall_windows.clone());
        let mut items = Vec::with_capacity(table.num_rows());
        let mut t = spec.start_delay_us;
        for burst in table.rows().chunks(spec.chunk.max(1)) {
            t = stalls.next_available(t + burst_gap(gap, burst.len()));
            for row in burst {
                items.push((t, row.clone()));
            }
        }
        ArrivalStream { items }
    }

    pub fn items(&self) -> &[(Time, Arc<Row>)] {
        &self.items
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Time the last row arrives (0 for an empty stream).
    pub fn completion_time(&self) -> Time {
        self.items.last().map_or(0, |(t, _)| *t)
    }

    /// Merge two streams into `(time, which, row)` events, ties broken
    /// toward the first stream (deterministic).
    pub fn merge<'a>(
        a: &'a ArrivalStream,
        b: &'a ArrivalStream,
    ) -> Vec<(Time, bool, &'a Arc<Row>)> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.items.len() || j < b.items.len() {
            let take_a = match (a.items.get(i), b.items.get(j)) {
                (Some((ta, _)), Some((tb, _))) => ta <= tb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_a {
                out.push((a.items[i].0, true, &a.items[i].1));
                i += 1;
            } else {
                out.push((b.items[j].0, false, &b.items[j].1));
                j += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{ColumnType, Schema, Value};

    fn table(n: i64) -> TableDef {
        TableDef::new("t", Schema::of(&[("k", ColumnType::Int)]))
            .with_rows((0..n).map(|k| vec![Value::Int(k)]).collect())
    }

    #[test]
    fn rate_spacing() {
        let s = ArrivalStream::from_scan(&table(3), &ScanSpec::with_rate(10.0));
        let times: Vec<Time> = s.items().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![100_000, 200_000, 300_000]);
        assert_eq!(s.completion_time(), 300_000);
    }

    #[test]
    fn stall_shifts_arrivals() {
        let spec = ScanSpec {
            rate_tps: 10.0,
            start_delay_us: 0,
            stall_windows: vec![(150_000, 400_000)],
            chunk: 1,
        };
        let s = ArrivalStream::from_scan(&table(3), &spec);
        let times: Vec<Time> = s.items().iter().map(|(t, _)| *t).collect();
        // Second row would land at 200k (inside stall) → pushed to 400k.
        assert_eq!(times, vec![100_000, 400_000, 500_000]);
    }

    #[test]
    fn chunked_arrivals_match_scan_am_cadence() {
        // 5 rows, chunk 2 at 10 tps: bursts land at 200ms, 400ms, and the
        // short tail one row-gap later — the ScanAm emission schedule.
        let s = ArrivalStream::from_scan(&table(5), &ScanSpec::with_rate(10.0).with_chunk(2));
        let times: Vec<Time> = s.items().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![200_000, 200_000, 400_000, 400_000, 500_000]);
        // A stall deferring a whole burst defers every row in it.
        let stalled = ScanSpec::with_rate(10.0)
            .with_chunk(2)
            .stalled_during(150_000, 300_000);
        let s = ArrivalStream::from_scan(&table(2), &stalled);
        let times: Vec<Time> = s.items().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![300_000, 300_000]);
    }

    #[test]
    fn merge_is_time_ordered_with_tie_break() {
        let a = ArrivalStream::from_scan(&table(2), &ScanSpec::with_rate(10.0));
        let b = ArrivalStream::from_scan(&table(2), &ScanSpec::with_rate(10.0));
        let merged = ArrivalStream::merge(&a, &b);
        let tags: Vec<bool> = merged.iter().map(|(_, is_a, _)| *is_a).collect();
        assert_eq!(tags, vec![true, false, true, false]);
        let times: Vec<Time> = merged.iter().map(|(t, _, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_stream() {
        let s = ArrivalStream::from_scan(&table(0), &ScanSpec::with_rate(10.0));
        assert!(s.is_empty());
        assert_eq!(s.completion_time(), 0);
    }
}
