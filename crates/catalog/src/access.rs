//! Access-method descriptors.

use stems_types::{Result, Schema, StemsError};

/// Identifier of an access method within the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AmId(pub u32);

/// Performance envelope of a scan access method.
///
/// Scans "only accept a special empty probe tuple we call a seed tuple, and
/// in return, output all tuples in their data source" (paper §2.1.3). In
/// the simulation they deliver rows at `rate_tps` starting after
/// `start_delay_us`, pausing inside stall windows. `chunk` controls the
/// arrival shape: rows accumulate source-side and land `chunk` at a time,
/// so the same average rate can model a smooth local scan (`chunk: 1`) or
/// bursty remote delivery (a page, a network buffer, a message batch).
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSpec {
    /// Delivery rate in tuples per virtual second.
    pub rate_tps: f64,
    /// Delay before the first tuple (connection setup, queueing).
    pub start_delay_us: u64,
    /// `[start, end)` unavailability windows in virtual µs.
    pub stall_windows: Vec<(u64, u64)>,
    /// Rows delivered per emission event. The average rate is unchanged:
    /// a chunk of `n` rows arrives after `n` per-row gaps. `1` is the
    /// paper's row-at-a-time arrival.
    pub chunk: usize,
}

impl Default for ScanSpec {
    fn default() -> Self {
        ScanSpec {
            rate_tps: 1_000.0,
            start_delay_us: 0,
            stall_windows: Vec::new(),
            chunk: 1,
        }
    }
}

impl ScanSpec {
    /// A scan delivering `rate_tps` tuples per virtual second.
    pub fn with_rate(rate_tps: f64) -> ScanSpec {
        ScanSpec {
            rate_tps,
            ..ScanSpec::default()
        }
    }

    /// Deliver rows `chunk` at a time (bursty/remote arrival).
    pub fn with_chunk(mut self, chunk: usize) -> ScanSpec {
        self.chunk = chunk;
        self
    }

    /// Add a stall window (virtual µs).
    pub fn stalled_during(mut self, start: u64, end: u64) -> ScanSpec {
        self.stall_windows.push((start, end));
        self
    }
}

/// Performance envelope of an (asynchronous) index access method.
///
/// The paper's indexes are looked up by binding a set of columns to values
/// ("different sets of bind-fields", §1) and answer asynchronously (§2.1.3,
/// WSQ/DSQ-style). `concurrency` bounds outstanding lookups — the paper's
/// synthetic indexes serialize ("sleeps of identical duration"), i.e.
/// concurrency 1.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSpec {
    /// Columns that must be bound (by position) to perform a lookup.
    pub bind_cols: Vec<usize>,
    /// Latency of one lookup in virtual µs.
    pub latency_us: u64,
    /// Maximum lookups in flight; further probes queue.
    pub concurrency: usize,
    /// `[start, end)` unavailability windows in virtual µs.
    pub stall_windows: Vec<(u64, u64)>,
    /// Reply arrival shape: `0` (the default) delivers a lookup's whole
    /// answer as one burst at `latency_us`; `n > 0` streams it `n` tuples
    /// per wave — the scan `chunk` cadence applied to index replies,
    /// modeling a remote source that pages its answer back.
    pub reply_chunk: usize,
    /// Per-tuple gap of a chunked reply in virtual µs: a wave of `n`
    /// tuples lands `n` gaps after its predecessor. Ignored while
    /// `reply_chunk` is 0.
    pub reply_gap_us: u64,
}

impl IndexSpec {
    /// An index bound on `bind_cols` with the given lookup latency.
    pub fn new(bind_cols: Vec<usize>, latency_us: u64) -> IndexSpec {
        IndexSpec {
            bind_cols,
            latency_us,
            concurrency: 1,
            stall_windows: Vec::new(),
            reply_chunk: 0,
            reply_gap_us: 0,
        }
    }

    pub fn with_concurrency(mut self, c: usize) -> IndexSpec {
        self.concurrency = c.max(1);
        self
    }

    /// Stream each reply `chunk` tuples per wave, `gap_us` virtual µs per
    /// tuple (bursty/remote answer delivery; the first wave still lands
    /// at `latency_us`).
    pub fn with_reply_chunk(mut self, chunk: usize, gap_us: u64) -> IndexSpec {
        self.reply_chunk = chunk.max(1);
        self.reply_gap_us = gap_us.max(1);
        self
    }

    pub fn stalled_during(mut self, start: u64, end: u64) -> IndexSpec {
        self.stall_windows.push((start, end));
        self
    }
}

/// One access method on a source table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessMethodDef {
    Scan(ScanSpec),
    Index(IndexSpec),
}

impl AccessMethodDef {
    pub fn is_scan(&self) -> bool {
        matches!(self, AccessMethodDef::Scan(_))
    }

    pub fn is_index(&self) -> bool {
        matches!(self, AccessMethodDef::Index(_))
    }

    /// Bind columns required to probe this AM (empty for scans — they are
    /// probed with the seed tuple).
    pub(crate) fn bind_cols(&self) -> &[usize] {
        match self {
            AccessMethodDef::Scan(_) => &[],
            AccessMethodDef::Index(ix) => &ix.bind_cols,
        }
    }

    /// Validate against the owning table's schema.
    pub(crate) fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            AccessMethodDef::Scan(s) => {
                if !(s.rate_tps.is_finite() && s.rate_tps > 0.0) {
                    return Err(StemsError::Schema(format!(
                        "scan rate must be positive, got {}",
                        s.rate_tps
                    )));
                }
                if s.chunk == 0 {
                    return Err(StemsError::Schema(
                        "scan chunk must be at least one row per emission".into(),
                    ));
                }
            }
            AccessMethodDef::Index(ix) => {
                if ix.bind_cols.is_empty() {
                    return Err(StemsError::Schema(
                        "index access method needs at least one bind column".into(),
                    ));
                }
                for &c in &ix.bind_cols {
                    if c >= schema.arity() {
                        return Err(StemsError::Schema(format!(
                            "index bind column {c} out of range for arity {}",
                            schema.arity()
                        )));
                    }
                }
                if ix.latency_us == 0 {
                    return Err(StemsError::Schema(
                        "index latency must be non-zero (the simulation needs a service time)"
                            .into(),
                    ));
                }
                if ix.reply_chunk > 0 && ix.reply_gap_us == 0 {
                    return Err(StemsError::Schema(
                        "chunked index replies need a non-zero per-tuple gap".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::ColumnType;

    fn schema() -> Schema {
        Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)])
    }

    #[test]
    fn scan_defaults_and_builders() {
        let s = ScanSpec::with_rate(50.0).stalled_during(10, 20);
        assert_eq!(s.rate_tps, 50.0);
        assert_eq!(s.stall_windows, vec![(10, 20)]);
        assert!(AccessMethodDef::Scan(s).validate(&schema()).is_ok());
    }

    #[test]
    fn scan_rejects_bad_rate() {
        for r in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let s = AccessMethodDef::Scan(ScanSpec::with_rate(r));
            assert!(s.validate(&schema()).is_err(), "rate {r}");
        }
    }

    #[test]
    fn scan_chunk_builder_and_validation() {
        assert_eq!(ScanSpec::default().chunk, 1);
        let s = ScanSpec::with_rate(50.0).with_chunk(64);
        assert_eq!(s.chunk, 64);
        assert!(AccessMethodDef::Scan(s).validate(&schema()).is_ok());
        let zero = AccessMethodDef::Scan(ScanSpec::default().with_chunk(0));
        assert!(zero.validate(&schema()).is_err());
    }

    #[test]
    fn index_validation() {
        let ok = AccessMethodDef::Index(IndexSpec::new(vec![0], 100));
        assert!(ok.validate(&schema()).is_ok());
        let no_bind = AccessMethodDef::Index(IndexSpec::new(vec![], 100));
        assert!(no_bind.validate(&schema()).is_err());
        let oob = AccessMethodDef::Index(IndexSpec::new(vec![5], 100));
        assert!(oob.validate(&schema()).is_err());
        let zero_lat = AccessMethodDef::Index(IndexSpec::new(vec![0], 0));
        assert!(zero_lat.validate(&schema()).is_err());
    }

    #[test]
    fn concurrency_floor_is_one() {
        let ix = IndexSpec::new(vec![0], 10).with_concurrency(0);
        assert_eq!(ix.concurrency, 1);
    }

    #[test]
    fn reply_chunk_builder_and_validation() {
        // Default: whole-reply burst, no gap — the classic behavior.
        let ix = IndexSpec::new(vec![0], 100);
        assert_eq!((ix.reply_chunk, ix.reply_gap_us), (0, 0));
        let chunked = IndexSpec::new(vec![0], 100).with_reply_chunk(4, 50);
        assert_eq!((chunked.reply_chunk, chunked.reply_gap_us), (4, 50));
        assert!(AccessMethodDef::Index(chunked).validate(&schema()).is_ok());
        // The builder floors both knobs; a hand-built zero gap is rejected.
        let floored = IndexSpec::new(vec![0], 100).with_reply_chunk(0, 0);
        assert_eq!((floored.reply_chunk, floored.reply_gap_us), (1, 1));
        let mut bad = IndexSpec::new(vec![0], 100);
        bad.reply_chunk = 2;
        assert!(AccessMethodDef::Index(bad).validate(&schema()).is_err());
    }

    #[test]
    fn bind_cols_accessor() {
        let scan = AccessMethodDef::Scan(ScanSpec::default());
        assert!(scan.bind_cols().is_empty());
        assert!(scan.is_scan() && !scan.is_index());
        let ix = AccessMethodDef::Index(IndexSpec::new(vec![1], 10));
        assert_eq!(ix.bind_cols(), &[1]);
        assert!(ix.is_index());
    }
}
