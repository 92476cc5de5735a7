//! Access Modules: scans and asynchronous indexes (paper §2.1.3).
//!
//! "An Access Module encapsulates a single access method over a data
//! source." Scans accept only the initial *seed* and then push all rows;
//! indexes accept *probe* tuples that bind their lookup columns, answer
//! **asynchronously**, and finish each answer with an EOT tuple so SteMs
//! can tell when a probe's matches are complete.
//!
//! Both AM kinds here are simulation-backed: the rows live in the catalog
//! and are served with the latencies/rates of their [`ScanSpec`] /
//! [`IndexSpec`]. The *protocol* (seeds, probes, bounce-backs, EOTs,
//! in-flight coalescing) is exactly the paper's.

use crate::links::TableLinks;
use crate::stem::{make_eot_row, make_scan_eot_row};
use crate::sync::Arc;
use stems_catalog::{IndexSpec, IndexTable, QuerySpec, ScanSpec, SourceId};
use stems_sim::{burst_gap, secs_f, StallWindows, Time};
use stems_storage::fxhash::FxHashSet;
use stems_types::{Row, TableIdx, Tuple, TupleBatch, Value};

/// A scan access method serving every instance of one source.
///
/// Delivers rows at `rate_tps`, `chunk` rows per emission event ([`ScanSpec`]
/// models bursty/remote arrival; a chunk of `n` rows lands after `n`
/// per-row gaps, so the average rate is chunk-independent), shifted around
/// stall windows. After the last row it emits the full-relation EOT tuple
/// ("in the case of a scan AM, the predicate is simply true", §2.1.3) —
/// always strictly after the final data chunk, exactly once per instance.
#[derive(Debug)]
pub struct ScanAm {
    pub source: SourceId,
    pub instances: Vec<TableIdx>,
    /// The catalog's row list, shared ([`stems_catalog::TableDef::row_list`]).
    rows: Arc<[Arc<Row>]>,
    arity: usize,
    gap_us: u64,
    start_delay_us: u64,
    stalls: StallWindows,
    /// Rows delivered per emission event (the spec's `chunk`, clamped by
    /// the engine to its routing batch size).
    chunk: usize,
    /// Next row to emit.
    pos: usize,
    /// Whether the EOT has been emitted.
    pub finished: bool,
}

impl ScanAm {
    /// [`Self::over`] an owned row list.
    pub fn new(
        source: SourceId,
        instances: Vec<TableIdx>,
        rows: Vec<Arc<Row>>,
        arity: usize,
        spec: &ScanSpec,
    ) -> ScanAm {
        ScanAm::over(source, instances, rows.into(), arity, spec)
    }

    /// A scan serving `rows` — the plan hands it the catalog's own list,
    /// so instantiating a scan costs no pass over its rows.
    pub fn over(
        source: SourceId,
        instances: Vec<TableIdx>,
        rows: Arc<[Arc<Row>]>,
        arity: usize,
        spec: &ScanSpec,
    ) -> ScanAm {
        ScanAm {
            source,
            instances,
            rows,
            arity,
            gap_us: secs_f(1.0 / spec.rate_tps).max(1),
            start_delay_us: spec.start_delay_us,
            stalls: StallWindows::new(spec.stall_windows.clone()),
            chunk: spec.chunk.max(1),
            pos: 0,
            finished: false,
        }
    }

    /// Clamp the emission chunk to the engine's routing batch size: the
    /// eddy routes at most `batch_size` tuples per envelope, so a larger
    /// burst would only be split again at ingestion.
    pub fn clamp_chunk(&mut self, cap: usize) {
        self.chunk = self.chunk.min(cap.max(1)).max(1);
    }

    /// Rows delivered per emission event.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Time of the first emission (when the first chunk has accumulated)
    /// for a scan started at 0.
    pub fn first_emit_time(&self) -> Time {
        self.first_emit_at(0)
    }

    /// Time of the first emission for a scan started at `at`. Stall
    /// windows are absolute virtual instants, as for every later
    /// emission: a window that closed before `at` delays nothing.
    pub fn first_emit_at(&self, at: Time) -> Time {
        let first = self.chunk.min(self.rows.len()).max(1);
        self.stalls
            .next_available(at + self.start_delay_us + burst_gap(self.gap_us, first))
    }

    /// Emit the next batch: up to `chunk` rows as singletons per instance,
    /// or the final EOTs once the data is exhausted. Returns the emitted
    /// batch and, if more remain, the time of the next emission.
    pub fn emit_next(&mut self, now: Time) -> (TupleBatch, Option<Time>) {
        if self.finished {
            return (TupleBatch::new(), None);
        }
        let mut out = TupleBatch::with_capacity(self.chunk * self.instances.len());
        let next = self.emit_next_into(now, &mut out);
        (out, next)
    }

    /// [`Self::emit_next`] appending to a caller-owned batch — the eddy
    /// keeps one across emission events.
    pub fn emit_next_into(&mut self, now: Time, out: &mut TupleBatch) -> Option<Time> {
        if self.finished {
            return None;
        }
        if self.pos < self.rows.len() {
            let take = self.chunk.min(self.rows.len() - self.pos);
            for row in &self.rows[self.pos..self.pos + take] {
                for t in &self.instances {
                    out.push(Tuple::singleton(*t, row.clone()));
                }
            }
            self.pos += take;
            let remaining = self.rows.len() - self.pos;
            // Next event: the next chunk once it has accumulated, or the
            // EOT one per-row gap after the final data chunk (matching
            // row-at-a-time cadence, where the EOT follows the last row).
            let next_gap = if remaining > 0 {
                burst_gap(self.gap_us, self.chunk.min(remaining))
            } else {
                self.gap_us
            };
            Some(self.stalls.next_available(now + next_gap))
        } else {
            for t in &self.instances {
                out.push(Tuple::singleton(*t, make_scan_eot_row(self.arity)));
            }
            self.finished = true;
            None
        }
    }

    /// The rows emitted so far: a prefix of the table's row list, in
    /// emission order — the log a query server subscription reads.
    pub(crate) fn emitted(&self) -> &[Arc<Row>] {
        &self.rows[..self.pos]
    }

    /// Fraction of the table delivered so far.
    pub fn progress(&self) -> f64 {
        if self.rows.is_empty() {
            1.0
        } else {
            self.pos as f64 / self.rows.len() as f64
        }
    }
}

/// What an index AM does with one probe.
#[derive(Debug, PartialEq)]
pub enum IndexProbeOutcome {
    /// A lookup was scheduled: service starts at `start` and the response
    /// lands at `complete`.
    Scheduled { start: Time, complete: Time },
    /// All servers busy: the lookup waits in the AM's pending queue
    /// (prioritized probes wait at the front, paper §4.1) and will be
    /// scheduled by [`IndexAm::dequeue_pending`] when a server frees.
    Queued,
    /// Coalesced with an identical in-flight (or already-answered) lookup
    /// — no new work; the SteM cache will serve the caller.
    Coalesced,
    /// The probe tuple does not bind the index's columns (router bug).
    Unbindable,
}

/// An asynchronous index access method (paper §2.1.3, WSQ/DSQ-style).
///
/// Lookups are serialized across `concurrency` virtual servers, each
/// `latency_us` long — concurrency 1 matches the paper's "sleeps of
/// identical duration". Identical in-flight probes are coalesced, which is
/// how both fig-7 systems end up making ~250 probes for 1000 R tuples.
#[derive(Debug)]
pub struct IndexAm {
    pub source: SourceId,
    pub instances: Vec<TableIdx>,
    pub spec: IndexSpec,
    arity: usize,
    /// Bind values → rows, built once by the catalog and shared by every
    /// plan over it.
    table: Arc<IndexTable>,
    stalls: StallWindows,
    /// Lookups currently in service (≤ concurrency).
    busy: usize,
    /// Keys awaiting a free server: `(key, prioritized)`. Prioritized
    /// lookups are picked first (§4.1).
    pending: std::collections::VecDeque<(Vec<Value>, bool)>,
    in_flight: FxHashSet<Vec<Value>>,
    answered: FxHashSet<Vec<Value>>,
    /// Lookups actually issued (the fig-7(ii) series).
    pub probes_issued: u64,
    /// Probes absorbed by coalescing.
    pub probes_coalesced: u64,
    /// The probe's `(col, value)` bindings and the lookup keys they
    /// spell, worked out per probe in buffers kept across probes.
    bindings: Vec<(usize, Value)>,
    keys: Vec<Vec<Value>>,
}

impl IndexAm {
    /// [`Self::with_table`] over a lookup table built here from `rows`.
    pub fn new(
        source: SourceId,
        instances: Vec<TableIdx>,
        rows: &[Arc<Row>],
        arity: usize,
        spec: IndexSpec,
    ) -> IndexAm {
        let table = Arc::new(IndexTable::build(rows, &spec.bind_cols));
        IndexAm::with_table(source, instances, table, arity, spec)
    }

    /// An index AM answering from `table`, which must be keyed on
    /// `spec.bind_cols` — the plan passes the catalog's
    /// ([`stems_catalog::Catalog::index_table`]).
    pub fn with_table(
        source: SourceId,
        instances: Vec<TableIdx>,
        table: Arc<IndexTable>,
        arity: usize,
        spec: IndexSpec,
    ) -> IndexAm {
        IndexAm {
            source,
            instances,
            stalls: StallWindows::new(spec.stall_windows.clone()),
            busy: 0,
            pending: std::collections::VecDeque::new(),
            arity,
            table,
            spec,
            in_flight: FxHashSet::default(),
            answered: FxHashSet::default(),
            probes_issued: 0,
            probes_coalesced: 0,
            bindings: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Can this probe tuple bind the index's lookup columns (possibly by
    /// fanning out over IN-list members), against the plan-time probe
    /// table of the probed instance? For each bind column an equi-join
    /// predicate from the tuple's span or a constant equality selection
    /// supplies one value, and a multi-member IN list fans out across its
    /// members. The router calls this per tuple per routing decision, so
    /// it only checks that every bind column has a supplier — it never
    /// materializes the cartesian key product built at probe time, and it
    /// allocates nothing. (Binding values are equality-normalized at the
    /// source, so a supplied column is always a usable one — the two
    /// agree.)
    pub fn can_bind_linked(&self, links: &TableLinks, tuple: &Tuple) -> bool {
        self.spec
            .bind_cols
            .iter()
            .all(|c| links.supplies(tuple, *c))
    }

    /// Accept a probe for instance `t`: one lookup per bound key (a
    /// multi-member IN binding fans out across members, each with its own
    /// schedule/queue/coalesce outcome). The probe tuple itself is
    /// bounced back by the engine regardless (AMs "asynchronously bounce
    /// back each probe tuple", Table 1). `prioritized` lookups jump the
    /// pending queue (paper §4.1).
    pub fn probe(
        &mut self,
        tuple: &Tuple,
        t: TableIdx,
        query: &QuerySpec,
        now: Time,
        prioritized: bool,
    ) -> Vec<(IndexProbeOutcome, Option<Vec<Value>>)> {
        let mut out = Vec::new();
        self.probe_linked_into(&TableLinks::of(query, t), tuple, now, prioritized, &mut out);
        out
    }

    /// [`Self::probe`] against the plan-time probe table of the probed
    /// instance, appending the outcomes to a caller-owned buffer — the
    /// eddy's form: the only allocations left are the lookup keys
    /// themselves.
    pub fn probe_linked_into(
        &mut self,
        links: &TableLinks,
        tuple: &Tuple,
        now: Time,
        prioritized: bool,
        out: &mut Vec<(IndexProbeOutcome, Option<Vec<Value>>)>,
    ) {
        let mut keys = std::mem::take(&mut self.keys);
        if bind_keys_into(
            &self.spec.bind_cols,
            links,
            tuple,
            &mut self.bindings,
            &mut keys,
        ) {
            out.extend(
                keys.drain(..)
                    .map(|key| self.probe_key(key, now, prioritized)),
            );
        } else {
            out.push((IndexProbeOutcome::Unbindable, None));
        }
        self.keys = keys;
    }

    /// One key's share of a probe: coalesce against in-flight/answered
    /// lookups, else schedule or queue it.
    fn probe_key(
        &mut self,
        key: Vec<Value>,
        now: Time,
        prioritized: bool,
    ) -> (IndexProbeOutcome, Option<Vec<Value>>) {
        if self.in_flight.contains(&key) || self.answered.contains(&key) {
            self.probes_coalesced += 1;
            return (IndexProbeOutcome::Coalesced, Some(key));
        }
        if self.pending.iter().any(|(k, _)| *k == key) {
            // Already queued; a prioritized duplicate promotes it.
            if prioritized {
                if let Some(pos) = self.pending.iter().position(|(k, p)| *k == key && !*p) {
                    let (k, _) = self.pending.remove(pos).expect("position valid");
                    self.pending.push_front((k, true));
                }
            }
            self.probes_coalesced += 1;
            return (IndexProbeOutcome::Coalesced, Some(key));
        }
        if self.busy < self.spec.concurrency.max(1) {
            let (start, complete) = self.begin_service(key.clone(), now);
            (IndexProbeOutcome::Scheduled { start, complete }, Some(key))
        } else {
            if prioritized {
                self.pending.push_front((key.clone(), true));
            } else {
                self.pending.push_back((key.clone(), false));
            }
            (IndexProbeOutcome::Queued, Some(key))
        }
    }

    fn begin_service(&mut self, key: Vec<Value>, now: Time) -> (Time, Time) {
        let start = self.stalls.next_available(now);
        let complete = start + self.spec.latency_us;
        self.busy += 1;
        self.in_flight.insert(key);
        self.probes_issued += 1;
        (start, complete)
    }

    /// Called by the engine right after a response: pull the next pending
    /// lookup (prioritized first) into the freed server. Returns the key
    /// and its service window for event scheduling.
    pub fn dequeue_pending(&mut self, now: Time) -> Option<(Vec<Value>, Time, Time)> {
        // Prefer a prioritized entry anywhere in the queue.
        let pos = self
            .pending
            .iter()
            .position(|(_, p)| *p)
            .or(if self.pending.is_empty() {
                None
            } else {
                Some(0)
            })?;
        let (key, _) = self.pending.remove(pos).expect("position valid");
        let (start, complete) = self.begin_service(key.clone(), now);
        Some((key, start, complete))
    }

    /// Lookups waiting for a server.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Deliver the response for `key`: matching rows (filtered by the
    /// table's own selection predicates — "the AM applies the others after
    /// the lookup", §2.1.3 fn 2) as singletons per instance, plus the EOT
    /// tuple encoding the probed bindings.
    pub fn respond(&mut self, key: &[Value], query: &QuerySpec) -> Vec<Tuple> {
        self.in_flight.remove(key);
        self.answered.insert(key.to_vec());
        self.busy = self.busy.saturating_sub(1);
        let rows = self.table.get(key);
        let mut out = Vec::new();
        for t in &self.instances {
            // Selections on this instance that the AM can check locally.
            let sels: Vec<&stems_types::Predicate> = query
                .predicates
                .iter()
                .filter(|p| p.is_selection() && p.tables().contains(*t))
                .collect();
            for r in rows {
                let single = Tuple::singleton(*t, r.clone());
                if sels.iter().all(|p| p.eval(&single).unwrap_or(false)) {
                    out.push(single);
                }
            }
            let bindings: Vec<(usize, Value)> = self
                .spec
                .bind_cols
                .iter()
                .zip(key.iter())
                .map(|(c, v)| (*c, v.clone()))
                .collect();
            out.push(Tuple::singleton(*t, make_eot_row(self.arity, &bindings)));
        }
        out
    }

    /// Current backlog estimate: pending lookups (plus in-service ones)
    /// times the per-lookup latency, divided across servers.
    pub fn queue_delay(&self, _now: Time) -> Time {
        let servers = self.spec.concurrency.max(1) as u64;
        (self.pending.len() as u64 + self.busy as u64) * self.spec.latency_us / servers
    }

    /// Shape a response into arrival waves per [`IndexSpec::reply_chunk`]:
    /// the scan `chunk` cadence applied to index replies. The first wave
    /// lands at `now` (the lookup's completion — it accumulated during
    /// service, like a scan's first chunk accumulates before its first
    /// emission), each later wave of `n` tuples `n` per-tuple gaps
    /// ([`burst_gap`]) after its predecessor. An unchunked spec
    /// (`reply_chunk: 0`) returns the whole reply as one `now` wave — the
    /// classic single-burst delivery. Tuple order is preserved, so the
    /// per-instance EOTs [`IndexAm::respond`] appends stay strictly last.
    pub fn chunk_reply(&self, tuples: Vec<Tuple>, now: Time) -> Vec<(Time, Vec<Tuple>)> {
        let chunk = self.spec.reply_chunk;
        if chunk == 0 || tuples.len() <= chunk {
            return vec![(now, tuples)];
        }
        let mut waves = Vec::with_capacity(tuples.len().div_ceil(chunk));
        let mut t = now;
        let mut rest = tuples;
        let mut first = true;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let tail = rest.split_off(take);
            if !first {
                t += burst_gap(self.spec.reply_gap_us, take);
            }
            waves.push((t, rest));
            rest = tail;
            first = false;
        }
        waves
    }
}

/// Spell the lookup keys a probe by `tuple` supplies for `bind_cols` into
/// `keys` (cleared first): per bind column, the one value a linking
/// equi-join or a constant equality fixes — it wins over any IN options on
/// the same column — or else every member of an IN list on it, the keys
/// being the cartesian product in bind-column-major order. `false` (and no
/// keys) when some bind column has no supplier. `bindings` is scratch.
fn bind_keys_into(
    bind_cols: &[usize],
    links: &TableLinks,
    tuple: &Tuple,
    bindings: &mut Vec<(usize, Value)>,
    keys: &mut Vec<Vec<Value>>,
) -> bool {
    links.probe_bindings_into(tuple, bindings);
    keys.clear();
    keys.push(Vec::with_capacity(bind_cols.len()));
    for c in bind_cols {
        if let Some((_, v)) = bindings.iter().find(|(col, _)| col == c) {
            keys.iter_mut().for_each(|key| key.push(v.clone()));
        } else if let Some((_, vals)) = links.in_options().iter().find(|(col, _)| col == c) {
            *keys = keys
                .iter()
                .flat_map(|key| {
                    vals.iter()
                        .map(move |v| [&key[..], std::slice::from_ref(v)].concat())
                })
                .collect();
        } else {
            keys.clear();
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_catalog::{Catalog, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema};

    fn rows(vals: &[(i64, i64)]) -> Vec<Arc<Row>> {
        vals.iter()
            .map(|(a, b)| Row::shared(vec![Value::Int(*a), Value::Int(*b)]))
            .collect()
    }

    /// Unwrap a single-key probe's fan-out (the pre-IN-fan-out shape most
    /// of these tests exercise).
    fn one(
        mut outcomes: Vec<(IndexProbeOutcome, Option<Vec<Value>>)>,
    ) -> (IndexProbeOutcome, Option<Vec<Value>>) {
        assert_eq!(outcomes.len(), 1, "expected a single-key probe");
        outcomes.pop().expect("checked length")
    }

    /// Probe through the eddy's form: the plan-time probe table, outcomes
    /// appended to a caller-owned buffer.
    fn probe_linked(
        am: &mut IndexAm,
        links: &TableLinks,
        tuple: &Tuple,
        now: Time,
    ) -> Vec<(IndexProbeOutcome, Option<Vec<Value>>)> {
        let mut out = Vec::new();
        am.probe_linked_into(links, tuple, now, false, &mut out);
        out
    }

    /// The lookup keys a probe's outcomes name, in fan-out order.
    fn lookup_keys(outcomes: &[(IndexProbeOutcome, Option<Vec<Value>>)]) -> Vec<Vec<Value>> {
        outcomes.iter().filter_map(|(_, key)| key.clone()).collect()
    }

    fn rs_query() -> (Catalog, QuerySpec) {
        let mut c = Catalog::new();
        let r = c
            .add_table(TableDef::new(
                "R",
                Schema::of(&[("key", ColumnType::Int), ("a", ColumnType::Int)]),
            ))
            .unwrap();
        let s = c
            .add_table(TableDef::new(
                "S",
                Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
            ))
            .unwrap();
        c.add_scan(r, ScanSpec::default()).unwrap();
        c.add_index(s, IndexSpec::new(vec![0], 1000)).unwrap();
        let q = QuerySpec::new(
            &c,
            vec![
                TableInstance {
                    source: r,
                    alias: "r".into(),
                },
                TableInstance {
                    source: s,
                    alias: "s".into(),
                },
            ],
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 0),
            )],
            None,
        )
        .unwrap();
        (c, q)
    }

    #[test]
    fn scan_emits_rows_then_eot() {
        let spec = ScanSpec::with_rate(10.0); // 100ms per tuple
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0)],
            rows(&[(1, 10), (2, 20)]),
            2,
            &spec,
        );
        let t0 = scan.first_emit_time();
        assert_eq!(t0, 100_000);
        let (batch1, next1) = scan.emit_next(t0);
        assert_eq!(batch1.len(), 1);
        assert!(!batch1.as_slice()[0].is_eot());
        assert_eq!(next1, Some(200_000));
        let (batch2, next2) = scan.emit_next(next1.unwrap());
        assert_eq!(batch2.len(), 1);
        assert!(next2.is_some());
        let (eot, done) = scan.emit_next(next2.unwrap());
        assert_eq!(eot.len(), 1);
        assert!(eot.as_slice()[0].is_eot());
        assert_eq!(done, None);
        assert!(scan.finished);
        assert_eq!(scan.emit_next(999_999_999).0.len(), 0);
    }

    #[test]
    fn scan_respects_stall_windows() {
        let spec = ScanSpec {
            rate_tps: 10.0,
            start_delay_us: 0,
            stall_windows: vec![(50_000, 500_000)],
            chunk: 1,
        };
        let scan = ScanAm::new(SourceId(0), vec![TableIdx(0)], rows(&[(1, 1)]), 2, &spec);
        // First emission would be at 100ms, inside the stall: pushed to end.
        assert_eq!(scan.first_emit_time(), 500_000);
    }

    #[test]
    fn scan_serves_multiple_instances() {
        let spec = ScanSpec::with_rate(1000.0);
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0), TableIdx(2)],
            rows(&[(5, 6)]),
            2,
            &spec,
        );
        let (batch, _) = scan.emit_next(1000);
        let batch = batch.as_slice();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].span(), stems_types::TableSet::single(TableIdx(0)));
        assert_eq!(batch[1].span(), stems_types::TableSet::single(TableIdx(2)));
        // Same Arc row shared between instances.
        assert!(Arc::ptr_eq(
            &batch[0].components()[0].row,
            &batch[1].components()[0].row
        ));
    }

    #[test]
    fn chunked_scan_emits_batches_then_single_eot() {
        // 5 rows, chunk 2 → data batches of 2, 2, 1 — then one EOT event.
        let spec = ScanSpec::with_rate(10.0).with_chunk(2); // 100ms per row
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0)],
            rows(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]),
            2,
            &spec,
        );
        // First chunk lands when both rows have accumulated.
        let t0 = scan.first_emit_time();
        assert_eq!(t0, 200_000);
        let (b1, n1) = scan.emit_next(t0);
        assert_eq!(b1.len(), 2);
        assert!(b1.iter().all(|t| !t.is_eot()));
        assert_eq!(n1, Some(400_000));
        let (b2, n2) = scan.emit_next(n1.unwrap());
        assert_eq!(b2.len(), 2);
        // Tail chunk is short: only one row remains, so one row-gap away.
        assert_eq!(n2, Some(500_000));
        let (b3, n3) = scan.emit_next(n2.unwrap());
        assert_eq!(b3.len(), 1);
        assert!(b3.iter().all(|t| !t.is_eot()));
        // EOT follows the last data batch by one row gap…
        assert_eq!(n3, Some(600_000));
        assert!(!scan.finished);
        let (eot, done) = scan.emit_next(n3.unwrap());
        // …and fires exactly once.
        assert_eq!(eot.len(), 1);
        assert!(eot.as_slice()[0].is_eot());
        assert_eq!(done, None);
        assert!(scan.finished);
        assert!(scan.emit_next(999_999_999).0.is_empty());
    }

    #[test]
    fn chunk_larger_than_table_delivers_one_batch() {
        let spec = ScanSpec::with_rate(1000.0).with_chunk(100);
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0)],
            rows(&[(1, 1), (2, 2), (3, 3)]),
            2,
            &spec,
        );
        // The first (and only) chunk accumulates in 3 row gaps, not 100.
        assert_eq!(scan.first_emit_time(), 3_000);
        let (b, next) = scan.emit_next(3_000);
        assert_eq!(b.len(), 3);
        let (eot, done) = scan.emit_next(next.unwrap());
        assert_eq!(eot.len(), 1);
        assert!(eot.as_slice()[0].is_eot());
        assert_eq!(done, None);
    }

    #[test]
    fn chunked_scan_eot_respects_stall_windows() {
        // The stall covers the second chunk's natural arrival; both the
        // chunk and the trailing EOT are pushed past the window, and the
        // EOT still strictly follows the last data batch.
        let spec = ScanSpec {
            rate_tps: 10.0, // 100ms per row
            start_delay_us: 0,
            stall_windows: vec![(300_000, 900_000)],
            chunk: 2,
        };
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0)],
            rows(&[(1, 1), (2, 2), (3, 3), (4, 4)]),
            2,
            &spec,
        );
        let t0 = scan.first_emit_time();
        assert_eq!(t0, 200_000);
        let (b1, n1) = scan.emit_next(t0);
        assert_eq!(b1.len(), 2);
        // 400ms is inside the stall → deferred to its end.
        assert_eq!(n1, Some(900_000));
        let (b2, n2) = scan.emit_next(n1.unwrap());
        assert_eq!(b2.len(), 2);
        assert!(b2.iter().all(|t| !t.is_eot()));
        assert_eq!(n2, Some(1_000_000));
        let (eot, done) = scan.emit_next(n2.unwrap());
        assert_eq!(eot.len(), 1);
        assert!(eot.as_slice()[0].is_eot());
        assert_eq!(done, None);
    }

    #[test]
    fn chunked_scan_serves_every_instance_per_row() {
        let spec = ScanSpec::with_rate(1000.0).with_chunk(3);
        let mut scan = ScanAm::new(
            SourceId(0),
            vec![TableIdx(0), TableIdx(1)],
            rows(&[(1, 1), (2, 2), (3, 3)]),
            2,
            &spec,
        );
        let (b, next) = scan.emit_next(3_000);
        // 3 rows × 2 instances, rows-major so per-instance order is the
        // same as row-at-a-time emission.
        assert_eq!(b.len(), 6);
        let spans: Vec<_> = b.iter().map(|t| t.components()[0].table).collect();
        assert_eq!(
            spans,
            vec![
                TableIdx(0),
                TableIdx(1),
                TableIdx(0),
                TableIdx(1),
                TableIdx(0),
                TableIdx(1)
            ]
        );
        // One EOT per instance, once.
        let (eot, done) = scan.emit_next(next.unwrap());
        assert_eq!(eot.len(), 2);
        assert!(eot.iter().all(|t| t.is_eot()));
        assert_eq!(done, None);
        assert!(scan.emit_next(u64::MAX).0.is_empty());
    }

    #[test]
    fn clamp_chunk_caps_at_engine_batch_size() {
        let spec = ScanSpec::with_rate(1000.0).with_chunk(256);
        let mut scan = ScanAm::new(SourceId(0), vec![TableIdx(0)], rows(&[(1, 1)]), 2, &spec);
        assert_eq!(scan.chunk(), 256);
        scan.clamp_chunk(64);
        assert_eq!(scan.chunk(), 64);
        // A zero cap is floored: the scan must still make progress.
        scan.clamp_chunk(0);
        assert_eq!(scan.chunk(), 1);
    }

    #[test]
    fn index_probe_queues_behind_busy_server() {
        let (_c, q) = rs_query();
        let spec = IndexSpec::new(vec![0], 1000);
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (10, 2), (20, 3)]),
            2,
            spec,
        );
        let r1 = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
        let r2 = Tuple::singleton_of(TableIdx(0), vec![Value::Int(2), Value::Int(20)]);
        let (o1, k1) = one(am.probe(&r1, TableIdx(1), &q, 0, false));
        assert_eq!(
            o1,
            IndexProbeOutcome::Scheduled {
                start: 0,
                complete: 1000
            }
        );
        // Second distinct probe waits in the pending queue.
        let (o2, _) = one(am.probe(&r2, TableIdx(1), &q, 10, false));
        assert_eq!(o2, IndexProbeOutcome::Queued);
        assert_eq!(am.probes_issued, 1);
        assert_eq!(am.pending_len(), 1);
        assert!(am.queue_delay(10) > 0);
        // Responses: matches + EOT; then the pending lookup starts.
        let resp = am.respond(&k1.unwrap(), &q);
        assert_eq!(resp.len(), 3); // two x=10 rows + EOT
        assert!(resp.last().unwrap().is_eot());
        let (key2, start2, complete2) = am.dequeue_pending(1000).expect("pending lookup");
        assert_eq!(key2, vec![Value::Int(20)]);
        assert_eq!(start2, 1000);
        assert_eq!(complete2, 2000);
        assert_eq!(am.probes_issued, 2);
        assert!(am.dequeue_pending(2000).is_none());
    }

    #[test]
    fn prioritized_probes_jump_the_pending_queue() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (20, 2), (30, 3), (40, 4)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let mk = |a: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(0), Value::Int(a)]);
        let (_, k1) = one(am.probe(&mk(10), TableIdx(1), &q, 0, false)); // in service
        am.probe(&mk(20), TableIdx(1), &q, 0, false); // pending lo
        am.probe(&mk(30), TableIdx(1), &q, 0, false); // pending lo
        am.probe(&mk(40), TableIdx(1), &q, 0, true); // pending HI
        am.respond(&k1.unwrap(), &q);
        let (key, _, _) = am.dequeue_pending(1000).expect("next");
        assert_eq!(key, vec![Value::Int(40)], "prioritized probe served first");
        // A prioritized duplicate promotes an already-pending key.
        let mut am2 = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (20, 2), (30, 3)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let (_, k1) = one(am2.probe(&mk(10), TableIdx(1), &q, 0, false));
        am2.probe(&mk(20), TableIdx(1), &q, 0, false);
        am2.probe(&mk(30), TableIdx(1), &q, 0, false);
        let (o, _) = one(am2.probe(&mk(30), TableIdx(1), &q, 0, true)); // promote 30
        assert_eq!(o, IndexProbeOutcome::Coalesced);
        am2.respond(&k1.unwrap(), &q);
        let (key, _, _) = am2.dequeue_pending(1000).expect("next");
        assert_eq!(key, vec![Value::Int(30)]);
    }

    #[test]
    fn identical_inflight_probes_coalesce() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let mk = |key: i64, a: i64| {
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
        };
        let (o1, _) = one(am.probe(&mk(1, 10), TableIdx(1), &q, 0, false));
        assert!(matches!(o1, IndexProbeOutcome::Scheduled { .. }));
        // Different R tuple, same bind value: coalesced.
        let (o2, _) = one(am.probe(&mk(2, 10), TableIdx(1), &q, 5, false));
        assert_eq!(o2, IndexProbeOutcome::Coalesced);
        assert_eq!(am.probes_issued, 1);
        assert_eq!(am.probes_coalesced, 1);
        // After the answer, same key is still coalesced (cache hit path).
        am.respond(&[Value::Int(10)], &q);
        let (o3, _) = one(am.probe(&mk(3, 10), TableIdx(1), &q, 2000, false));
        assert_eq!(o3, IndexProbeOutcome::Coalesced);
    }

    #[test]
    fn concurrency_runs_probes_in_parallel() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (20, 2)]),
            2,
            IndexSpec::new(vec![0], 1000).with_concurrency(2),
        );
        let mk = |key: i64, a: i64| {
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
        };
        let (o1, _) = one(am.probe(&mk(1, 10), TableIdx(1), &q, 0, false));
        let (o2, _) = one(am.probe(&mk(2, 20), TableIdx(1), &q, 0, false));
        assert_eq!(
            o1,
            IndexProbeOutcome::Scheduled {
                start: 0,
                complete: 1000
            }
        );
        assert_eq!(
            o2,
            IndexProbeOutcome::Scheduled {
                start: 0,
                complete: 1000
            }
        );
    }

    #[test]
    fn zero_match_probe_still_answers_with_eot() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(77)]);
        let (_, key) = one(am.probe(&r, TableIdx(1), &q, 0, false));
        let resp = am.respond(&key.unwrap(), &q);
        assert_eq!(resp.len(), 1);
        assert!(resp[0].is_eot());
        // EOT encodes the probed binding so the SteM records coverage.
        assert_eq!(resp[0].components()[0].row.get(0), Some(&Value::Int(77)));
    }

    #[test]
    fn multi_member_in_list_fans_out_index_lookups() {
        // S's index binds x, which only `s.x IN (10, 20, 99)` covers: one
        // probe fans out into one lookup per member.
        let (c, q) = rs_query();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 0),
            vec![Value::Int(10), Value::Int(20), Value::Int(99)],
        ));
        // Re-link the join through y so x stays IN-bound only.
        q2.predicates[0] = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (20, 1), (30, 1)]),
            2,
            IndexSpec::new(vec![0], 1000).with_concurrency(3),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(7), Value::Int(1)]);
        let links = TableLinks::of(&q2, TableIdx(1));
        assert!(am.can_bind_linked(&links, &r));
        let outcomes = probe_linked(&mut am, &links, &r, 0);
        assert_eq!(
            lookup_keys(&outcomes),
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(20)],
                vec![Value::Int(99)]
            ]
        );
        assert!(outcomes
            .iter()
            .all(|(o, _)| matches!(o, IndexProbeOutcome::Scheduled { .. })));
        assert_eq!(am.probes_issued, 3);
        // A second prober over the same list coalesces entirely.
        let r2 = Tuple::singleton_of(TableIdx(0), vec![Value::Int(8), Value::Int(1)]);
        let again = am.probe(&r2, TableIdx(1), &q2, 5, false);
        assert!(again
            .iter()
            .all(|(o, _)| *o == IndexProbeOutcome::Coalesced));
        // Each member's response carries its own rows + keyed EOT; the
        // miss (99) answers with a bare EOT.
        let resp10 = am.respond(&[Value::Int(10)], &q2);
        assert_eq!(resp10.len(), 2);
        assert!(resp10.last().unwrap().is_eot());
        let resp99 = am.respond(&[Value::Int(99)], &q2);
        assert_eq!(resp99.len(), 1);
        assert!(resp99[0].is_eot());
        assert_eq!(resp99[0].components()[0].row.get(0), Some(&Value::Int(99)));
    }

    #[test]
    fn in_fan_out_composes_with_fixed_bindings() {
        // A two-column index: x is IN-bound (fan-out), y is join-bound
        // (single value) — the key set is the product.
        let (c, q) = rs_query();
        let mut q2 = q.clone();
        q2.predicates[0] = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 0),
            vec![Value::Int(10), Value::Int(20)],
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 5)]),
            2,
            IndexSpec::new(vec![0, 1], 1000),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(5)]);
        let links = TableLinks::of(&q2, TableIdx(1));
        assert!(am.can_bind_linked(&links, &r));
        let outcomes = probe_linked(&mut am, &links, &r, 0);
        assert_eq!(
            lookup_keys(&outcomes),
            vec![
                vec![Value::Int(10), Value::Int(5)],
                vec![Value::Int(20), Value::Int(5)]
            ]
        );
        // One server: the second key of the product waits its turn.
        assert!(matches!(outcomes[0].0, IndexProbeOutcome::Scheduled { .. }));
        assert_eq!(outcomes[1].0, IndexProbeOutcome::Queued);
    }

    #[test]
    fn unbindable_probe_rejected() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1)]),
            2,
            IndexSpec::new(vec![1], 1000), // binds y, which no pred covers
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
        let (o, k) = one(am.probe(&r, TableIdx(1), &q, 0, false));
        assert_eq!(o, IndexProbeOutcome::Unbindable);
        assert!(k.is_none());
    }

    #[test]
    fn chunked_reply_waves_follow_burst_gap_cadence() {
        let (_c, q) = rs_query();
        // 5 matching rows + 1 EOT = 6 reply tuples; chunk 4, 50µs/tuple.
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (10, 2), (10, 3), (10, 4), (10, 5)]),
            2,
            IndexSpec::new(vec![0], 1000).with_reply_chunk(4, 50),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
        let (_, key) = one(am.probe(&r, TableIdx(1), &q, 0, false));
        let reply = am.respond(&key.unwrap(), &q);
        assert_eq!(reply.len(), 6);
        let waves = am.chunk_reply(reply, 1000);
        assert_eq!(waves.len(), 2);
        // First wave at the completion instant; the 2-tuple tail two
        // per-tuple gaps later.
        assert_eq!(waves[0].0, 1000);
        assert_eq!(waves[0].1.len(), 4);
        assert_eq!(waves[1].0, 1000 + 2 * 50);
        assert_eq!(waves[1].1.len(), 2);
        // Order preserved: the EOT is the last tuple of the last wave.
        assert!(waves[1].1.last().unwrap().is_eot());
        assert!(waves
            .iter()
            .flat_map(|(_, w)| &w[..w.len() - usize::from(w.last().unwrap().is_eot())])
            .all(|t| !t.is_eot()));
    }

    #[test]
    fn unchunked_reply_is_one_immediate_wave() {
        let (_c, q) = rs_query();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (10, 2), (10, 3)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
        let (_, key) = one(am.probe(&r, TableIdx(1), &q, 0, false));
        let reply = am.respond(&key.unwrap(), &q);
        let n = reply.len();
        let waves = am.chunk_reply(reply, 1000);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].0, 1000);
        assert_eq!(waves[0].1.len(), n);
        // A reply no longer than the chunk also stays a single wave.
        let mut am2 = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1)]),
            2,
            IndexSpec::new(vec![0], 1000).with_reply_chunk(8, 50),
        );
        let (_, key2) = one(am2.probe(&r, TableIdx(1), &q, 0, false));
        let reply2 = am2.respond(&key2.unwrap(), &q);
        let waves2 = am2.chunk_reply(reply2, 2000);
        assert_eq!(waves2.len(), 1);
        assert_eq!(waves2[0].0, 2000);
    }

    /// An AM over the catalog's shared table and one over a table built
    /// from the same rows answer every probe identically, down to which
    /// row each reply carries.
    #[test]
    fn a_shared_catalog_table_answers_as_a_private_one() {
        let (mut c, q) = rs_query();
        let s_rows: Vec<Vec<Value>> = (0..40)
            .map(|i| match i % 5 {
                0 => vec![Value::Null, Value::Int(i)],
                1 => vec![Value::Float((i % 7) as f64), Value::Int(i)],
                _ => vec![Value::Int(i % 7), Value::Int(i)],
            })
            .collect();
        let s = c
            .add_table(
                TableDef::new(
                    "S2",
                    Schema::of(&[("x", ColumnType::Float), ("y", ColumnType::Int)]),
                )
                .with_rows(s_rows),
            )
            .unwrap();
        let spec = IndexSpec::new(vec![0], 1000).with_concurrency(4);
        let idx = c.add_index(s, spec.clone()).unwrap();
        let rows = c.table_expect(s).rows();
        let shared = c.index_table(idx).unwrap();
        let mut private = IndexAm::new(s, vec![TableIdx(1)], rows, 2, spec.clone());
        let mut public = IndexAm::with_table(s, vec![TableIdx(1)], shared, 2, spec);
        for (now, a) in (0..12).enumerate() {
            let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(a), Value::Int(a % 9)]);
            let now = now as Time * 10;
            let got = public.probe(&r, TableIdx(1), &q, now, false);
            assert_eq!(got, private.probe(&r, TableIdx(1), &q, now, false));
            for (_, key) in got {
                let key = key.expect("bindable");
                let (want, got) = (private.respond(&key, &q), public.respond(&key, &q));
                assert_eq!(got, want, "key {key:?}");
                for (g, w) in got.iter().zip(&want).filter(|(g, _)| !g.is_eot()) {
                    assert!(Arc::ptr_eq(&g.components()[0].row, &w.components()[0].row));
                }
            }
        }
        assert_eq!(public.probes_issued, private.probes_issued);
        assert_eq!(public.probes_coalesced, private.probes_coalesced);
    }

    #[test]
    fn index_applies_local_selections() {
        let (c, q) = rs_query();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Gt,
            Value::Int(1),
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut am = IndexAm::new(
            SourceId(1),
            vec![TableIdx(1)],
            &rows(&[(10, 1), (10, 5)]),
            2,
            IndexSpec::new(vec![0], 1000),
        );
        let r = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Int(10)]);
        let (_, key) = one(am.probe(&r, TableIdx(1), &q2, 0, false));
        let resp = am.respond(&key.unwrap(), &q2);
        // Only (10,5) passes y > 1; plus EOT.
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].value(TableIdx(1), 1), Some(&Value::Int(5)));
    }
}
