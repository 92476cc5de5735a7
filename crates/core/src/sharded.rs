//! The State Module: one type, one build algorithm, one probe algorithm.
//!
//! [`ShardedStem`] is the SteM the engine instantiates per table instance
//! (paper §2.1.4, Table 2). Its dictionary is one storage lane
//! ([`Shard`]), keeping "one main-memory index on each column involved in
//! a join predicate". The lane owns only what is addressed by its slots:
//! the dictionary and its row slab, the dedup filter and the
//! build-timestamp column. Everything that is a property of the SteM
//! lives once, here: the table instance and AM flags, the EOT index, the
//! timestamp high-water mark and counters, the deferred-bounce queue and
//! its partitioner, the envelope buffers of both paths, and the FIFO
//! window — a queue of slots, so evicting the oldest row is a removal by
//! slot, not a search for the row.
//!
//! The type keeps its name, and [`StemOptions`] its `num_shards`,
//! `workers` and `parallel_min_rows` fields, because `benchmark/` spells
//! them; the fields are ignored.
//!
//! There is no lock in here. Builds and probes both take `&mut self`: one
//! envelope at a time per SteM is the paper's module contract, and the one
//! place a SteM is shared — [`crate::plan::StemCell`] — serializes whole
//! envelopes in front of it.
//!
//! # Build: route → ingest → stamp
//!
//! 1. **Route** — EOT tuples go to the EOT index; every data row goes to
//!    the lane. Nothing is hashed: the lane's index link hashes the key.
//! 2. **Ingest** ([`Shard::ingest`]) — set-semantics dedup plus the
//!    dictionary insert of the envelope's data rows.
//! 3. **Stamp** (batch order) — global build timestamps, the counters, and
//!    the bounce/defer decision, so timestamp assignment is the same
//!    sequence whatever the envelope split.
//!
//! A windowed SteM runs the same three steps one row at a time and
//! evicts the oldest row after each — eviction must interleave with
//! inserts, or an intra-envelope re-arrival of a row the window should
//! already have forgotten would be wrongly absorbed. An evicted row leaves
//! a dead slot in the lane; the lane reclaims them in bulk
//! ([`Shard::forget`]) and the window's slots are renumbered with it, so
//! neither eviction cost nor lane size depends on how long the stream has
//! run.
//!
//! # Probe: resolve → probe
//!
//! 1. **Resolve** — per probe tuple, once: its equality binding — read off
//!    the plan-time probe table ([`TableLinks`]), not re-derived from the
//!    predicate list — with the key hashed ([`HashedKey`]; the dictionary
//!    descent reads that annotation), and its bounce decision.
//! 2. **Probe** ([`Shard::probe`]) — the lane answers the whole envelope
//!    into the caller's reply arena, in batch order. There is nothing to
//!    merge: every store answers in insertion order, which is ascending
//!    build timestamp.

use crate::links::TableLinks;
use crate::stem::{
    BuildResult, CoverScratch, EotIndex, ProbeCtx, ProbeOutcome, ProbeReplySet, ProbeScratch,
    Resolved, Shard, StemOptions,
};
use crate::sync::Arc;
use crate::tuple_state::{CompletionNeed, TupleState};
use std::collections::VecDeque;
use stems_catalog::{QuerySpec, SourceId};
use stems_storage::fxhash::FxBuildHasher;
use stems_storage::Slot;
use stems_types::{HashedKey, Row, TableIdx, Timestamp, Tuple, TupleBatch, Value, UNBUILT_TS};

/// Pooled probe envelope buffers, reused across envelopes (capacity
/// survives; contents are per envelope).
#[derive(Debug, Default)]
struct ProbePool {
    /// Per probe tuple, batch order: the resolve pass's output.
    resolved: Vec<Resolved>,
    /// The lane's probe scratch.
    scratch: ProbeScratch,
    /// The resolve pass's coverage-check binding lists.
    cover: CoverScratch,
}

/// A State Module over one table instance (see the module docs).
pub struct ShardedStem {
    pub instance: TableIdx,
    pub source: SourceId,
    pub has_scan_am: bool,
    pub has_index_am: bool,
    /// The storage lane.
    shard: Shard,
    /// First join column — the column deferred bounce-backs are clustered
    /// by.
    key_col: usize,
    eot: EotIndex,
    /// Max build timestamp among stored tuples.
    max_ts: Timestamp,
    /// Builds accepted (fresh, non-EOT).
    build_count: u64,
    /// Duplicates absorbed (§3.2 competition bookkeeping).
    duplicates_absorbed: u64,
    evictions: u64,
    /// FIFO eviction window.
    window: Option<usize>,
    /// Slots of a windowed SteM's stored rows, oldest first — which is
    /// slot order, since both are insertion order.
    fifo: VecDeque<Slot>,
    /// Grace mode (§3.1): withhold build bounce-backs of non-resident
    /// partitions until [`ShardedStem::release_deferred`].
    deferred_bounce: bool,
    partitions: usize,
    mem_partitions: usize,
    /// Withheld bounce-backs, in build order.
    deferred: Vec<(Tuple, TupleState)>,
    /// Rows a scan will deliver, reserved for at the first build
    /// ([`Self::expect_scan_rows`]); 0 once reserved, or when unknown.
    expected_rows: usize,
    /// Per data row of the build envelope: [`Shard::ingest`]'s verdict
    /// (the slot a fresh row took, `None` for a duplicate).
    fresh: Vec<Option<Slot>>,
    /// [`Shard::ingest`]'s staging buffer for the rows it inserts.
    pending: Vec<Arc<Row>>,
    /// Pooled probe envelope buffers (see [`ProbePool`]).
    probe_pool: ProbePool,
}

impl std::fmt::Debug for ShardedStem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStem")
            .field("instance", &self.instance)
            .field("len", &self.len())
            .field("backend", &self.backend())
            .field("max_ts", &self.max_ts)
            .finish()
    }
}

impl ShardedStem {
    /// Create the SteM for `instance` of `source`, indexing `join_cols`.
    pub fn new(
        instance: TableIdx,
        source: SourceId,
        join_cols: &[usize],
        has_scan_am: bool,
        has_index_am: bool,
        opts: StemOptions,
    ) -> ShardedStem {
        ShardedStem {
            instance,
            source,
            has_scan_am,
            has_index_am,
            shard: Shard::new(&opts.store, join_cols),
            key_col: join_cols.first().copied().unwrap_or(0),
            eot: EotIndex::default(),
            max_ts: 0,
            build_count: 0,
            duplicates_absorbed: 0,
            evictions: 0,
            window: opts.eviction_window,
            fifo: VecDeque::new(),
            deferred_bounce: opts.deferred_bounce,
            partitions: opts.partitions,
            mem_partitions: opts.mem_partitions,
            deferred: Vec::new(),
            expected_rows: 0,
            fresh: Vec::new(),
            pending: Vec::new(),
            probe_pool: ProbePool::default(),
        }
    }

    /// Re-point this SteM at a different table instance. All stored state
    /// (rows, timestamps, dedup, EOT marks) is instance-agnostic — the
    /// instance index only tags tuples routed in and out — so a SteM
    /// built under one query can serve another whose instance numbering
    /// differs. The query server uses this to fold N queries' probes onto
    /// one shared SteM; callers must retarget *before* building or
    /// probing on behalf of the new instance.
    pub fn retarget(&mut self, instance: TableIdx) {
        self.instance = instance;
    }

    /// A scan will deliver `rows` rows (the catalog's count): at the first
    /// build, the lane reserves its slab, timestamp column and dedup
    /// filter for them, capped at the eviction window, instead of
    /// regrowing them — and a SteM nothing is built into, such as a
    /// private SteM the query server folds away, reserves nothing. Called
    /// by the plan and the query server.
    pub(crate) fn expect_scan_rows(&mut self, rows: usize) {
        self.expected_rows = self.window.map_or(rows, |w| rows.min(w));
    }

    /// No row can arrive twice — one scan over rows the catalog checked
    /// pairwise distinct — so the lane does not run the §3.2 duplicate
    /// filter: it keeps only the filter's member count and bytes, and
    /// [`Self::approx_bytes`] reads as if it filtered. Called by the plan
    /// and the query server before the first build; a SteM made by
    /// [`Self::new`] alone always filters.
    pub(crate) fn trust_distinct(&mut self) {
        self.shard.trust_distinct();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Stored (non-EOT) tuples.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lane's row count, as a one-entry list (kept because
    /// `benchmark/` reads it).
    pub fn shard_lens(&self) -> Vec<usize> {
        vec![self.len()]
    }

    /// Has the full relation arrived (scan EOT)?
    pub fn scan_complete(&self) -> bool {
        self.eot.scan_complete()
    }

    /// EOT change counter (keyed EOTs + scan completion); combined with
    /// `build_count` it forms the SteM's version for re-probe gating.
    pub fn eot_version(&self) -> u64 {
        self.eot.version()
    }

    /// Max build timestamp among stored tuples.
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Fresh (non-EOT) builds accepted.
    pub fn build_count(&self) -> u64 {
        self.build_count
    }

    /// Set-semantics duplicates absorbed.
    pub fn duplicates_absorbed(&self) -> u64 {
        self.duplicates_absorbed
    }

    /// FIFO evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate memory footprint: the lane's store and dedup filter.
    pub fn approx_bytes(&self) -> usize {
        self.shard.approx_bytes()
    }

    /// Whether the dictionary is indexed (`"hash"`) or not yet (`"list"`).
    pub fn backend(&self) -> &'static str {
        self.shard.backend()
    }

    /// How many bounce-backs are currently withheld.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    // ------------------------------------------------------------------
    // Build
    // ------------------------------------------------------------------

    /// Build a whole envelope of singleton (or EOT) tuples, consuming
    /// timestamps from `ts_counter` as fresh inserts happen; one
    /// [`BuildResult`] per tuple, batch order. See the module docs for
    /// the three passes.
    ///
    /// The borrowed form of [`Self::build_batch_into`]: it clones the
    /// envelope once, so there is one build path.
    pub fn build_batch(
        &mut self,
        batch: &TupleBatch,
        states: &[TupleState],
        ts_counter: &mut Timestamp,
    ) -> Vec<BuildResult> {
        let mut out = Vec::with_capacity(batch.len());
        self.build_batch_into(&mut batch.clone(), states, ts_counter, &mut out);
        out
    }

    /// [`Self::build_batch`] appending to a caller-owned result buffer —
    /// the eddy keeps one across envelopes — and *moving* the envelope's
    /// fresh singletons instead of copying them: each is stamped in place
    /// and moved into its [`BuildResult::Fresh`] (or the deferred queue),
    /// leaving [`Tuple::empty`] at its position in `batch`. Duplicates and
    /// EOTs stay where they were.
    pub fn build_batch_into(
        &mut self,
        batch: &mut TupleBatch,
        states: &[TupleState],
        ts_counter: &mut Timestamp,
        out: &mut Vec<BuildResult>,
    ) {
        debug_assert_eq!(batch.len(), states.len());
        let tuples = batch.as_mut_slice();
        // A windowed SteM builds one row at a time, so eviction
        // interleaves with inserts (see the module docs).
        let envelope = if self.window.is_some() {
            1
        } else {
            tuples.len().max(1)
        };
        for (tuples, states) in tuples.chunks_mut(envelope).zip(states.chunks(envelope)) {
            self.build_envelope(tuples, states, ts_counter, out);
            self.enforce_window();
        }
    }

    fn build_envelope(
        &mut self,
        tuples: &mut [Tuple],
        states: &[TupleState],
        ts_counter: &mut Timestamp,
        out: &mut Vec<BuildResult>,
    ) {
        if self.expected_rows > 0 {
            self.shard.reserve(std::mem::take(&mut self.expected_rows));
        }
        // Pass 1: route. EOTs touch no dictionary state, so their
        // position within the batch is irrelevant.
        for tuple in tuples.iter() {
            debug_assert!(tuple.is_singleton(), "SteMs store singleton tuples only");
            let comp = &tuple.components()[0];
            debug_assert_eq!(comp.table, self.instance, "build routed to wrong SteM");
            if comp.row.is_eot() {
                self.eot.record(&comp.row);
            }
        }

        // Pass 2: dedup + dictionary insert of the data rows.
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        self.shard.ingest(tuples, &mut fresh, &mut self.pending);

        // Pass 3: global timestamps in batch order.
        let mut verdicts = fresh.iter();
        for (tuple, state) in tuples.iter_mut().zip(states) {
            if tuple.components()[0].row.is_eot() {
                out.push(BuildResult::Eot);
                continue;
            }
            out.push(match verdicts.next().expect("one verdict per data row") {
                Some(slot) => {
                    *ts_counter += 1;
                    self.stamp(*slot, tuple, state, *ts_counter)
                }
                None => {
                    self.duplicates_absorbed += 1;
                    BuildResult::Duplicate
                }
            });
        }
        self.fresh = fresh;
    }

    /// Stamp one freshly ingested row — `tuple`'s, now in `slot` — with
    /// its global build timestamp, take the bounce/defer decision, and
    /// move the stamped singleton out of the envelope.
    fn stamp(
        &mut self,
        slot: Slot,
        tuple: &mut Tuple,
        state: &TupleState,
        ts: Timestamp,
    ) -> BuildResult {
        self.shard.stamp(slot, ts);
        self.max_ts = self.max_ts.max(ts);
        self.build_count += 1;
        if self.window.is_some() {
            self.fifo.push_back(slot);
        }
        tuple.set_timestamp(self.instance, ts);
        let stamped = std::mem::replace(tuple, Tuple::empty());
        if self.deferred_bounce
            && self.partition_of(&stamped.components()[0].row) >= self.mem_partitions
        {
            self.deferred.push((stamped, state.clone()));
            BuildResult::Deferred
        } else {
            BuildResult::Fresh(stamped)
        }
    }

    /// FIFO-evict down to the window (no-op when unbounded): the victim
    /// is always the oldest stored row, evicted by slot — no search,
    /// whatever the stream has delivered so far.
    fn enforce_window(&mut self) {
        while self.window.is_some_and(|w| self.fifo.len() > w) {
            let slot = self.fifo.pop_front().expect("non-empty fifo");
            self.evictions += 1;
            if self.shard.forget(slot) {
                // The lane reclaimed its dead slots: its rows now sit in
                // slots 0.. in insertion order, which is the FIFO's order.
                for (dense, slot) in (0..).zip(self.fifo.iter_mut()) {
                    *slot = dense;
                }
                debug_assert_eq!(self.fifo.len(), self.shard.len());
            }
        }
    }

    // ------------------------------------------------------------------
    // Deferred release (Grace mode)
    // ------------------------------------------------------------------

    /// Bounce partition of a row: rows of partitions below
    /// `mem_partitions` are "memory-resident" and bounce immediately
    /// (Hybrid-Hash, §3.1); the rest are withheld.
    ///
    /// The partition is a function of the key's equality normal form
    /// ([`Value::equality_key`]), so rows that `sql_eq` — `Int(5)` and
    /// `Float(5.0)` share an index chain — are released in one cluster.
    /// NULL/EOT keys have no normal form and hash as themselves.
    pub(crate) fn partition_of(&self, row: &Row) -> usize {
        use std::hash::BuildHasher;
        let key = row.get(self.key_col).unwrap_or(&Value::Null);
        // Only a float is not its own normal form.
        let normal = match key {
            Value::Float(_) => key.equality_key(),
            _ => None,
        };
        let key = normal.as_ref().unwrap_or(key);
        (FxBuildHasher::default().hash_one(key) % self.partitions.max(1) as u64) as usize
    }

    /// Release deferred bounce-backs, clustered by hash partition (the
    /// Grace "asynchronous" bounce, §3.1) and in build order within a
    /// partition. Called by the engine when the table's scan completes.
    pub fn release_deferred(&mut self) -> Vec<(Tuple, TupleState)> {
        let mut out = std::mem::take(&mut self.deferred);
        out.sort_by_cached_key(|(t, _)| self.partition_of(&t.components()[0].row));
        out
    }

    // ------------------------------------------------------------------
    // Probe
    // ------------------------------------------------------------------

    /// SteM BounceBack (paper Table 2, plus the §4.1 refinement for tables
    /// with index AMs).
    fn bounce_decision(
        &self,
        links: &TableLinks,
        tuple: &Tuple,
        cover: &mut CoverScratch,
    ) -> ProbeOutcome {
        if self.eot.covers(links, tuple, cover) {
            return ProbeOutcome::Consumed;
        }
        let all_built = tuple.components().iter().all(|c| c.ts != UNBUILT_TS);
        if !all_built {
            // §3.5: the prober is not cached anywhere, so it must keep
            // re-probing this SteM until coverage (LastMatchTimeStamp
            // prevents duplicate concatenations).
            return ProbeOutcome::Bounced(CompletionNeed::Required);
        }
        match (self.has_scan_am, self.has_index_am) {
            // Scan covers completeness; no index to offer: consume.
            (true, false) => ProbeOutcome::Consumed,
            // Index AM available: bounce so the policy *may* probe it
            // (§4.1; completeness already covered by the scan, so the
            // policy may also drop the tuple).
            (true, true) => ProbeOutcome::Bounced(CompletionNeed::Optional),
            // No scan: the probe MUST complete through an AM (§3.3).
            (false, _) => ProbeOutcome::Bounced(CompletionNeed::Required),
        }
    }

    /// Probe a whole envelope (tuples spanning tables other than this
    /// instance) into the caller-owned reply arena, appending one reply
    /// per tuple in batch order: the concatenated matches passing every
    /// newly evaluable predicate and both timestamp rules, plus the
    /// bounce decision per SteM BounceBack. See the module docs for the
    /// two passes.
    ///
    /// The resolve buffer and the lane's probe scratch live in a pool
    /// reused across envelopes ([`ProbePool`]), so a steady probe stream
    /// allocates no envelope buffers. The pool is taken out for the
    /// envelope and restored after it: a probe that unwinds leaves an
    /// empty pool behind, never a half-written one.
    ///
    /// This form derives the query's [`TableLinks`] for the call; a caller
    /// holding the plan's ([`crate::plan::PlanLayout::links`]) probes
    /// through [`Self::probe_linked_into`].
    pub fn probe_batch_into(
        &mut self,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        let links = TableLinks::of(query, self.instance);
        self.probe_linked_into(&links, batch, states, query, out);
    }

    /// [`Self::probe_batch_into`] with the plan-time probe table of this
    /// SteM's current instance — the eddy's form: nothing about the query
    /// is re-derived per envelope.
    pub fn probe_linked_into(
        &mut self,
        links: &TableLinks,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        let ProbePool {
            mut resolved,
            mut scratch,
            mut cover,
        } = std::mem::take(&mut self.probe_pool);
        debug_assert_eq!(batch.len(), states.len());
        debug_assert_eq!(
            links.table(),
            self.instance,
            "probe table of another instance"
        );

        // Pass 1: resolve — binding, key hash and bounce decision once per
        // tuple, read off the plan-time probe table.
        resolved.clear();
        resolved.extend(batch.iter().map(|tuple| {
            Resolved {
                binding: links
                    .equi_binding(tuple)
                    .map(|(col, val)| (col, HashedKey::new(val.clone()))),
                outcome: self.bounce_decision(links, tuple, &mut cover),
            }
        }));

        // Pass 2: the lane answers the envelope in batch order.
        let ctx = ProbeCtx {
            instance: self.instance,
            query,
            observed_ts: self.max_ts,
            batch,
            states,
            resolved: &resolved,
        };
        self.shard.probe(&ctx, &mut scratch, out);
        self.probe_pool = ProbePool {
            resolved,
            scratch,
            cover,
        };
    }
}

/// Test-only scalar forms — an envelope of one through the one build path
/// and the one probe path — and the fixtures the SteM unit suites share.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use stems_catalog::{Catalog, ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, PredSet, Predicate, Schema};

    /// Everything one probe produces.
    #[derive(Debug, PartialEq)]
    pub(crate) struct OneReply {
        pub(crate) results: Vec<(Tuple, PredSet)>,
        pub(crate) outcome: ProbeOutcome,
        pub(crate) observed_ts: Timestamp,
        pub(crate) raw_matches: usize,
    }

    /// Build one tuple. `ts` is the next global timestamp; it is consumed
    /// only on a fresh insert.
    pub(crate) fn build_one(
        stem: &mut ShardedStem,
        tuple: &Tuple,
        state: &TupleState,
        ts: Timestamp,
    ) -> BuildResult {
        let mut counter = ts.saturating_sub(1);
        let batch = TupleBatch::single(tuple.clone());
        stem.build_batch(&batch, std::slice::from_ref(state), &mut counter)
            .remove(0)
    }

    /// Probe with one tuple.
    pub(crate) fn probe_one(
        stem: &mut ShardedStem,
        tuple: &Tuple,
        state: &TupleState,
        query: &QuerySpec,
    ) -> OneReply {
        let mut set = ProbeReplySet::new();
        stem.probe_batch_into(
            std::slice::from_ref(tuple),
            std::slice::from_ref(state),
            query,
            &mut set,
        );
        assert_eq!(set.len(), 1);
        let (meta, results) = set.iter().next().expect("one reply");
        OneReply {
            results: results.to_vec(),
            outcome: meta.outcome,
            observed_ts: meta.observed_ts,
            raw_matches: meta.raw_matches,
        }
    }

    /// R(key, a) ⋈ S(x, y) on R.a = S.x — S's SteM key column is 0.
    pub(crate) fn setup() -> (Catalog, QuerySpec) {
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
        c.add_scan(s, ScanSpec::default()).unwrap();
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

    pub(crate) fn s_tuple(x: i64, y: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(1), vec![Value::Int(x), Value::Int(y)])
    }

    pub(crate) fn r_tuple(key: i64, a: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(key), Value::Int(a)])
    }

    impl ShardedStem {
        /// The storage lane, for tests that inspect its state.
        pub(crate) fn lane(&self) -> &Shard {
            &self.shard
        }

        /// Does this SteM run the §3.2 duplicate filter (see
        /// [`ShardedStem::trust_distinct`])?
        pub(crate) fn filters_duplicates(&self) -> bool {
            self.shard.filters()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{build_one, probe_one, r_tuple, s_tuple, setup, OneReply};
    use super::*;
    use crate::stem::{make_eot_row, make_scan_eot_row};
    use stems_catalog::Catalog;
    use stems_storage::StoreKind;
    use stems_types::{CmpOp, ColRef, PredId, Predicate};

    /// The same schema joined on S's second column: R.a = S.y, so probes
    /// bind column 1.
    fn y_query(c: &Catalog, q: &QuerySpec) -> QuerySpec {
        QuerySpec::new(
            c,
            q.tables.clone(),
            vec![Predicate::join(
                PredId(0),
                ColRef::new(TableIdx(0), 1),
                CmpOp::Eq,
                ColRef::new(TableIdx(1), 1),
            )],
            None,
        )
        .unwrap()
    }

    /// S's SteM over `join_cols`, scan-fed.
    fn stem_on(join_cols: &[usize], opts: StemOptions) -> ShardedStem {
        ShardedStem::new(TableIdx(1), SourceId(1), join_cols, true, false, opts)
    }

    /// S's SteM joined on its key column.
    fn s_stem(opts: StemOptions) -> ShardedStem {
        stem_on(&[0], opts)
    }

    fn every_store_kind() -> [StoreKind; 3] {
        [
            StoreKind::List,
            StoreKind::Hash,
            StoreKind::Adaptive { threshold: 4 },
        ]
    }

    fn s_null_key(y: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(1), vec![Value::Null, Value::Int(y)])
    }

    /// A mixed build workload: dups, NULL keys, a keyed EOT.
    fn workload() -> TupleBatch {
        let mut tuples: Vec<Tuple> = (0..40).map(|i| s_tuple(i % 13, i)).collect();
        tuples.push(s_null_key(1));
        tuples.push(s_tuple(3, 3)); // duplicate of i=3
        tuples.push(s_null_key(1)); // duplicate of a NULL-keyed row
        tuples.push(Tuple::singleton(
            TableIdx(1),
            make_eot_row(2, &[(0, Value::Int(5))]),
        ));
        tuples.into_iter().collect()
    }

    /// Build `batch` cut into envelopes of `envelope` rows.
    fn build_in_envelopes(
        stem: &mut ShardedStem,
        batch: &TupleBatch,
        envelope: usize,
    ) -> (Vec<BuildResult>, Timestamp) {
        let mut ts = 0;
        let mut results = Vec::new();
        for chunk in batch.as_slice().chunks(envelope) {
            let chunk: TupleBatch = chunk.iter().cloned().collect();
            let states = vec![TupleState::new(); chunk.len()];
            results.extend(stem.build_batch(&chunk, &states, &mut ts));
        }
        (results, ts)
    }

    fn build_workload(stem: &mut ShardedStem) -> (Vec<BuildResult>, Timestamp) {
        let batch = workload();
        build_in_envelopes(stem, &batch, batch.len())
    }

    /// Tuple equality ignores timestamps (execution metadata), so pull
    /// the stamped build timestamps out explicitly for bit-identity
    /// comparisons.
    fn stamped_ts(results: &[BuildResult]) -> Vec<Option<Timestamp>> {
        results
            .iter()
            .map(|r| match r {
                BuildResult::Fresh(t) => Some(t.timestamp()),
                _ => None,
            })
            .collect()
    }

    /// Build timestamps of a reply's matches, in reply order.
    fn match_ts(reply: &OneReply) -> Vec<Timestamp> {
        reply
            .results
            .iter()
            .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
            .collect()
    }

    /// Every build observable of a SteM, for invariance comparisons.
    #[derive(Debug, PartialEq)]
    struct BuildObservables {
        results: Vec<BuildResult>,
        stamps: Vec<Option<Timestamp>>,
        ts_counter: Timestamp,
        len: usize,
        max_ts: Timestamp,
        counters: [u64; 3],
    }

    fn build_observables(
        stem: &ShardedStem,
        (results, ts_counter): (Vec<BuildResult>, Timestamp),
    ) -> BuildObservables {
        BuildObservables {
            stamps: stamped_ts(&results),
            results,
            ts_counter,
            len: stem.len(),
            max_ts: stem.max_ts(),
            counters: [
                stem.build_count(),
                stem.duplicates_absorbed(),
                stem.eot_version(),
            ],
        }
    }

    /// A SteM sized for its scan that trusts its rows distinct — no
    /// duplicate filter, only its count and bytes — builds, evicts,
    /// compacts and answers exactly like one that filters and regrows,
    /// windowed or not, envelope by envelope.
    #[test]
    fn a_trusting_stem_matches_a_filtering_one_over_distinct_rows() {
        let (_c, q) = setup();
        let rows: Vec<Tuple> = (0..150).map(|i| s_tuple(i % 17, i)).collect();
        for window in [None, Some(5)] {
            let opts = StemOptions {
                eviction_window: window,
                ..StemOptions::default()
            };
            let mut filtering = s_stem(opts.clone());
            let mut trusting = s_stem(opts);
            trusting.expect_scan_rows(rows.len());
            trusting.trust_distinct();
            assert!(filtering.filters_duplicates() && !trusting.filters_duplicates());
            let (mut ts_f, mut ts_t) = (0, 0);
            for chunk in rows.chunks(7) {
                let batch: TupleBatch = chunk.iter().cloned().collect();
                let states = vec![TupleState::new(); batch.len()];
                let want = filtering.build_batch(&batch, &states, &mut ts_f);
                let got = trusting.build_batch(&batch, &states, &mut ts_t);
                let cell = format!("window {window:?}");
                assert_eq!(stamped_ts(&got), stamped_ts(&want), "{cell}");
                assert_eq!(trusting.len(), filtering.len(), "{cell}");
                assert_eq!(trusting.approx_bytes(), filtering.approx_bytes(), "{cell}");
                assert_eq!(trusting.evictions(), filtering.evictions(), "{cell}");
            }
            assert_eq!(trusting.duplicates_absorbed(), 0);
            // Key 13 is the last row's: live under the window too.
            let probe = r_tuple(1, 13);
            let (want, got) = (
                probe_one(&mut filtering, &probe, &TupleState::new(), &q),
                probe_one(&mut trusting, &probe, &TupleState::new(), &q),
            );
            assert_eq!(match_ts(&got), match_ts(&want));
            assert!(!want.results.is_empty());
        }
    }

    /// Envelope-split invariance of the one build path at every store
    /// kind: one envelope of N and N envelopes of one produce identical
    /// results, timestamps and counters.
    #[test]
    fn build_results_match_single_shard_bit_for_bit() {
        let batch = workload();
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            let mut whole = s_stem(opts.clone());
            let built = build_in_envelopes(&mut whole, &batch, batch.len());
            let want = build_observables(&whole, built);
            let mut split = s_stem(opts);
            let built = build_in_envelopes(&mut split, &batch, 1);
            assert_eq!(want, build_observables(&split, built), "{store:?}");
        }
    }

    /// The moving build and the borrowing one are one path: on the same
    /// envelope they hand back equal results with equal stamps. A fresh
    /// result holds the caller's own row, moved rather than copied, and
    /// leaves an empty tuple in the envelope; a duplicate or an EOT stays
    /// where it was.
    #[test]
    fn moving_build_matches_borrowing_build_and_keeps_the_callers_rows() {
        let batch = workload();
        let states = vec![TupleState::new(); batch.len()];
        for window in [None, Some(5)] {
            let opts = StemOptions {
                eviction_window: window,
                ..StemOptions::default()
            };
            let mut borrowing = s_stem(opts.clone());
            let mut moving = s_stem(opts);
            let (mut ts_b, mut ts_m) = (0, 0);
            let want = borrowing.build_batch(&batch, &states, &mut ts_b);
            let mut envelope = batch.clone();
            let mut got = Vec::new();
            moving.build_batch_into(&mut envelope, &states, &mut ts_m, &mut got);
            let cell = format!("window {window:?}");
            assert_eq!(got, want, "{cell}");
            assert_eq!(stamped_ts(&got), stamped_ts(&want), "{cell}");
            assert_eq!(ts_m, ts_b, "{cell}");
            let mut fresh = 0;
            for ((result, before), after) in got.iter().zip(&batch).zip(&envelope) {
                match result {
                    BuildResult::Fresh(stamped) => {
                        let (row, caller) =
                            (&stamped.components()[0].row, &before.components()[0].row);
                        assert!(std::sync::Arc::ptr_eq(row, caller), "{cell}");
                        assert!(after.components().is_empty(), "{cell}");
                        fresh += 1;
                    }
                    _ => assert_eq!(after, before, "{cell}"),
                }
            }
            assert_eq!(fresh, moving.build_count(), "{cell}");
        }
    }

    /// Keyed probes at every store kind answer exactly what a scan of the
    /// built rows in build order finds: the rows whose key `sql_eq`s the
    /// probe key, in ascending build timestamp. A missing key and a NULL
    /// key match nothing.
    #[test]
    fn probe_replies_match_single_shard_bit_for_bit() {
        let (_c, q) = setup();
        for store in every_store_kind() {
            let mut stem = s_stem(StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            });
            let (built, _) = build_workload(&mut stem);
            // The naive model: every fresh row with its stamp, build order.
            let stored: Vec<(Value, Timestamp)> = built
                .iter()
                .filter_map(|r| match r {
                    BuildResult::Fresh(t) => {
                        Some((t.value(TableIdx(1), 0)?.clone(), t.timestamp()))
                    }
                    _ => None,
                })
                .collect();
            // Probe after all builds so the TimeStamp rule passes.
            for probe_key in [0i64, 3, 5, 12, 99] {
                let r = r_tuple(1, probe_key).with_timestamp(TableIdx(0), 1_000);
                let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
                let want: Vec<Timestamp> = stored
                    .iter()
                    .filter(|(k, _)| *k == Value::Int(probe_key))
                    .map(|(_, ts)| *ts)
                    .collect();
                assert_eq!(match_ts(&reply), want, "{store:?}, key {probe_key}");
                assert_eq!(reply.raw_matches, want.len(), "{store:?}, key {probe_key}");
            }
            let rn = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Null])
                .with_timestamp(TableIdx(0), 1_000);
            assert!(probe_one(&mut stem, &rn, &TupleState::new(), &q)
                .results
                .is_empty());
        }
    }

    /// A cross product's reply holds every stored row, in global
    /// insertion order (ascending build timestamp).
    #[test]
    fn cartesian_probe_merges_in_global_insertion_order() {
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut stem = s_stem(StemOptions::default());
        build_workload(&mut stem);
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 1_000);
        let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), stem.len());
        let ts = match_ts(&reply);
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    /// A probe bound on a SteM's second join column returns its
    /// candidates in *store* order, which is insertion order.
    #[test]
    fn one_lane_fanout_probe_keeps_store_order() {
        let (c, q) = setup();
        let q = y_query(&c, &q);
        let batch: TupleBatch = (0..40i64).map(|i| s_tuple(100 - i, i % 5)).collect();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        for store in every_store_kind() {
            // Store order, from the store itself.
            let mut reference = store.build(&[0, 1]);
            reference.insert_batch(batch.iter().map(|t| t.components()[0].row.clone()));
            let store_order = reference.lookup_eq(1, &Value::Int(3));
            assert_eq!(store_order.len(), 8);

            let mut stem = stem_on(
                &[0, 1],
                StemOptions {
                    store: store.clone(),
                    ..StemOptions::default()
                },
            );
            build_in_envelopes(&mut stem, &batch, batch.len());
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            let got: Vec<&Arc<Row>> = reply
                .results
                .iter()
                .map(|(t, _)| &t.component(TableIdx(1)).unwrap().row)
                .collect();
            assert_eq!(got, store_order.iter().collect::<Vec<_>>(), "{store:?}");
        }
    }

    #[test]
    fn eot_broadcast_keeps_coverage_and_versioning_global() {
        let (_c, q) = setup();
        let mut stem = ShardedStem::new(
            TableIdx(1),
            SourceId(1),
            &[0],
            false,
            true,
            StemOptions::default(),
        );
        // Keyed EOT for x=10 covers only matching probes.
        build_one(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_eot_row(2, &[(0, Value::Int(10))])),
            &TupleState::new(),
            0,
        );
        assert_eq!(stem.eot_version(), 1);
        let covered = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe_one(&mut stem, &covered, &TupleState::new(), &q).outcome,
            ProbeOutcome::Consumed
        );
        let uncovered = r_tuple(2, 20).with_timestamp(TableIdx(0), 2);
        assert!(matches!(
            probe_one(&mut stem, &uncovered, &TupleState::new(), &q).outcome,
            ProbeOutcome::Bounced(_)
        ));
        // Scan EOT covers everything.
        build_one(
            &mut stem,
            &Tuple::singleton(TableIdx(1), make_scan_eot_row(2)),
            &TupleState::new(),
            0,
        );
        assert!(stem.scan_complete());
        assert_eq!(stem.eot_version(), 2);
        assert_eq!(
            probe_one(&mut stem, &uncovered, &TupleState::new(), &q).outcome,
            ProbeOutcome::Consumed
        );
    }

    /// A windowed SteM decides every build as a plain FIFO of the last
    /// three distinct rows would: a row still in the window is a
    /// duplicate, any other is fresh and pushes the oldest out.
    #[test]
    fn windowed_sharded_stem_sweeps_global_fifo() {
        const WINDOW: usize = 3;
        let mut stem = s_stem(StemOptions {
            eviction_window: Some(WINDOW),
            ..StemOptions::default()
        });
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut evictions = 0;
        let mut ts = 0;
        // Interleave duplicates and evicted re-arrivals.
        for round in 0..6i64 {
            let keys: Vec<i64> = (0..7).map(|i| (round * 3 + i) % 10).collect();
            let batch: TupleBatch = keys.iter().map(|&k| s_tuple(k, k)).collect();
            let states = vec![TupleState::new(); batch.len()];
            let got = stem.build_batch(&batch, &states, &mut ts);
            for (&k, result) in keys.iter().zip(&got) {
                let fresh = !model.contains(&k);
                if fresh {
                    model.push_back(k);
                    if model.len() > WINDOW {
                        model.pop_front();
                        evictions += 1;
                    }
                }
                assert_eq!(
                    matches!(result, BuildResult::Fresh(_)),
                    fresh,
                    "round {round}, key {k}: {result:?}"
                );
            }
            assert_eq!(stem.len(), model.len(), "round {round}");
            assert_eq!(stem.evictions(), evictions, "round {round}");
        }
        assert!(evictions > 0);
    }

    /// Rows that `sql_eq` are released in one Grace cluster: the bounce
    /// partition is taken on the key's equality normal form.
    #[test]
    fn partition_of_agrees_with_sql_equality() {
        let stem = s_stem(StemOptions {
            deferred_bounce: true,
            partitions: 8,
            ..StemOptions::default()
        });
        let part = |key: Value| stem.partition_of(&Row::new(vec![key, Value::Int(0)]));
        let ints: Vec<usize> = (0..64).map(|k| part(Value::Int(k))).collect();
        let floats: Vec<usize> = (0..64).map(|k| part(Value::Float(k as f64))).collect();
        assert_eq!(ints, floats);
        let used: std::collections::HashSet<&usize> = ints.iter().collect();
        assert!(used.len() > 1, "the keys must spread over partitions");
    }

    #[test]
    fn store_kinds_shard_consistently() {
        // A SteM joined on its second column alone: a probe bound on it
        // and an unbound probe (a cross product) answer identically at
        // every store kind, order included.
        let (c, q) = setup();
        let by_y = y_query(&c, &q);
        let cross = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        // Keys descend while build timestamps ascend; y repeats.
        let batch: TupleBatch = (0..40i64).map(|i| s_tuple(100 - i, i % 5)).collect();
        let replies = every_store_kind().map(|store| {
            let mut stem = stem_on(
                &[1],
                StemOptions {
                    store,
                    ..StemOptions::default()
                },
            );
            build_in_envelopes(&mut stem, &batch, batch.len());
            [&by_y, &cross].map(|q| probe_one(&mut stem, &r, &TupleState::new(), q))
        });
        let [list, rest @ ..] = &replies;
        assert_eq!(list[0].results.len(), 8);
        assert_eq!(list[1].results.len(), 40);
        for (kind, got) in rest.iter().enumerate() {
            for (want, got) in list.iter().zip(got) {
                assert_eq!(want, got, "store kind {}", kind + 1);
                assert_eq!(match_ts(want), match_ts(got), "store kind {}", kind + 1);
            }
        }
    }
}
