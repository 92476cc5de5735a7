//! The State Module: one type, one build algorithm, one probe algorithm.
//!
//! [`ShardedStem`] is the SteM the engine instantiates per table instance
//! (paper §2.1.4, Table 2). Its dictionary is split by join-key hash into
//! *lanes* ([`Shard`]): `num_shards` keyed lanes plus a dedicated
//! **overflow lane** for rows whose key is un-hashable (NULL/EOT). A SteM
//! with `num_shards: 1` is the same code with a single lane — nothing to
//! route, nothing to merge — not a separate engine.
//!
//! **Lanes only on one join column.** A SteM keeps its `num_shards` keyed
//! lanes only when it has exactly one join column, and partitions by that
//! column. Any other SteM has one lane: with two or more join columns (the
//! middle of a chain — paper §2.1.4 keeps "one main-memory index on each
//! column involved in a join predicate") a probe bound on any column but
//! the partition column would descend every lane and have its reply
//! re-sorted, and with none every probe is unbound and visits every lane
//! anyway. So every bound probe the plan can make names its one lane.
//!
//! A lane owns only what must exist per lane: the dictionary and its row
//! slab, and the dedup filter and build-timestamp column addressed by the
//! slab's slots. Everything that is a property of the SteM lives once,
//! here: the table instance and AM flags, the EOT index, the timestamp
//! high-water mark and counters, the deferred-bounce queue and its
//! partitioner, the envelope buffers of both paths, and the FIFO window —
//! a queue of `(lane, slot)` handles, so evicting the globally oldest row
//! is a removal by slot, not a search for the row.
//!
//! There is no lock in here. Builds and probes both take `&mut self`: one
//! envelope at a time per SteM is the paper's module contract, and the one
//! place a SteM is shared — [`crate::plan::StemCell`] — serializes whole
//! envelopes in front of it. The concurrent chunks *inside* one envelope
//! get disjoint `&mut` buffers from `iter_mut()`, which the borrow checker
//! verifies.
//!
//! # Build: route → ingest → stamp
//!
//! 1. **Route** (serial) — EOT tuples go to the EOT index; every data row
//!    goes to the lane [`KeyHash::shard`] picks from the high half of the
//!    `stable_key_hash` of its join column's key (the column the deferred
//!    bounce-back partitioner also uses), un-hashable keys to the overflow
//!    lane.
//!    [`stems_types::Value::stable_key_hash`] agrees with equality-key
//!    normalization, so every row a probe key can `sql_eq` lives in the
//!    probe key's lane and partitioned equality lookups stay complete.
//! 2. **Ingest** ([`Shard::ingest`], per lane) — set-semantics dedup plus
//!    the dictionary insert. Duplicates co-locate with their original
//!    (same row ⇒ same key ⇒ same lane), so per-lane dedup is exact. Once
//!    an envelope is large enough the busy lanes run on the persistent
//!    work-stealing pool ([`crate::runtime::WorkerPool`] — long-lived
//!    workers, per-lane affinity), the calling thread keeping a fixed
//!    share of them (`fan_out`). Build lanes are never split: dedup is
//!    order-dependent within a lane.
//! 3. **Stamp** (serial, batch order) — global build timestamps, the
//!    counters, and the bounce/defer decision, so timestamp assignment is
//!    the same sequence at every shard and worker count.
//!
//! A windowed SteM runs the same three steps one row at a time and
//! evicts the globally oldest row after each — eviction must interleave
//! with inserts, or an intra-envelope re-arrival of a row the window
//! should already have forgotten would be wrongly absorbed. An evicted
//! row leaves a dead slot in its lane; the lane reclaims them in bulk
//! ([`Shard::forget`]) and the window's handles into that lane are
//! renumbered with it, so neither eviction cost nor lane size depends on
//! how long the stream has run.
//!
//! # Probe: resolve → lane → probe → merge
//!
//! 1. **Resolve** (serial) — per probe tuple, once: its equality binding
//!    — read off the plan-time probe table ([`TableLinks`]), not
//!    re-derived from the predicate list — with the key hashed
//!    ([`HashedKey`] — the lane index and the dictionary descent read
//!    that same annotation), and its bounce decision.
//! 2. **Lane** — a bound probe goes to its key's lane only (equal keys
//!    co-locate, and overflow rows cannot equal a probe key): on a SteM
//!    with lanes the one join column is the only column a probe can
//!    bind. Only an unbound probe — a cross product — visits every lane.
//!    A lane's share of the envelope is a list of envelope *positions* —
//!    the shape build lanes have — so no tuple is copied, and a one-lane
//!    SteM is simply the lane whose list is `0..n`.
//! 3. **Probe** ([`Shard::probe`], per chunk) — lanes are cut into chunks
//!    of at most `ceil(routed / workers)` rows, so a hot lane (every
//!    probe keyed to one value, say) spreads across idle workers instead
//!    of serializing the envelope. Chunking is deterministic and
//!    read-only, so replies are bit-identical at every worker count; an
//!    envelope below the dispatch threshold runs the same chunks
//!    serially, and an envelope that is a single chunk probes straight
//!    into the caller's arena. The SteM keeps one probe scratch and one
//!    reply arena per chunk *position*, so which buffers a chunk reuses —
//!    like which chunks the calling thread keeps (`fan_out`) — does not
//!    depend on how the pool schedules them.
//! 4. **Merge** (serial) — replies return to batch order. A reply
//!    gathered from several lanes (an unbound probe's) is sorted by
//!    ascending build timestamp — global insertion order. Every store
//!    answers in insertion order, so a reply gathered from one lane is in
//!    timestamp order already: skipping its sort is a shortcut, not a
//!    semantic, and replies are identical at every shard count.
//!
//! `tests/prop_batch_equivalence.rs` locks shard counts {1, 2, 4, 7} and
//! worker budgets verdict-for-verdict to each other.

use crate::links::TableLinks;
use crate::runtime::{default_parallel_min_rows, default_workers, WorkerPool};
use crate::stem::{
    BuildResult, CoverScratch, EotIndex, ProbeBinding, ProbeCtx, ProbeOutcome, ProbeReplySet,
    ProbeScratch, ReplyMeta, Resolved, Shard, StemOptions,
};
use crate::sync::Arc;
use crate::tuple_state::{CompletionNeed, TupleState};
use std::collections::VecDeque;
use stems_catalog::{QuerySpec, SourceId};
use stems_storage::fxhash::FxBuildHasher;
use stems_storage::Slot;
use stems_types::{
    HashedKey, KeyHash, Row, TableIdx, Timestamp, Tuple, TupleBatch, Value, UNBUILT_TS,
};

/// One build lane's reusable envelope buffers: the envelope positions
/// of the tuples routed to the lane, [`Shard::ingest`]'s verdict per
/// member (the slot a fresh row took, `None` for a duplicate) and its
/// staging buffer for the rows it inserts, and the stamp pass's read
/// cursor into the verdicts.
#[derive(Debug, Default)]
struct BuildLane {
    members: Vec<usize>,
    fresh: Vec<Option<Slot>>,
    pending: Vec<Arc<Row>>,
    next: usize,
}

/// Pooled probe envelope buffers, reused across envelopes (capacity
/// survives; contents are per envelope).
#[derive(Debug, Default)]
struct ProbePool {
    /// Per probe tuple, batch order: the resolve pass's output.
    resolved: Vec<Resolved>,
    /// Per probe tuple: its one lane, or `None` when it visits them all.
    lane_of: Vec<Option<usize>>,
    /// Per lane: the envelope positions of the probes routed to it, in
    /// batch order.
    lanes: Vec<Vec<u32>>,
    /// Dispatch units of the current envelope: `(lane, start, end)`
    /// sub-ranges of each lane's position list, lane-major — the
    /// skew-aware chunking of hot lanes (see the module docs).
    tasks: Vec<(usize, usize, usize)>,
    /// One probe scratch per dispatch unit, by position in `tasks` (at
    /// most lanes + workers of them; capacity reused).
    scratches: Vec<ProbeScratch>,
    /// One reply arena per dispatch unit (capacity reused).
    chunk_sets: Vec<ProbeReplySet>,
    /// Per lane: index of the task the merge is currently consuming.
    cursors: Vec<usize>,
    /// The resolve pass's coverage-check binding lists.
    cover: CoverScratch,
}

/// A State Module over one table instance (see the module docs).
pub struct ShardedStem {
    pub instance: TableIdx,
    pub source: SourceId,
    pub has_scan_am: bool,
    pub has_index_am: bool,
    /// The storage lanes: one when `num_shards == 1`; otherwise
    /// `num_shards` keyed lanes followed by the overflow lane.
    shards: Vec<Shard>,
    /// Keyed lanes: the options' fan-out on a SteM with one join column,
    /// 1 on any other (see the module docs).
    num_shards: usize,
    /// First join column — the shard key, and the column deferred
    /// bounce-backs are clustered by.
    key_col: usize,
    eot: EotIndex,
    /// Max build timestamp among stored tuples.
    max_ts: Timestamp,
    /// Builds accepted (fresh, non-EOT).
    build_count: u64,
    /// Duplicates absorbed (§3.2 competition bookkeeping).
    duplicates_absorbed: u64,
    evictions: u64,
    /// FIFO eviction window, enforced across all lanes.
    window: Option<usize>,
    /// Stored rows of a windowed SteM, oldest first: `(lane, slot)`. A
    /// lane's entries are in slot order, since both are insertion order.
    fifo: VecDeque<(usize, Slot)>,
    /// Grace mode (§3.1): withhold build bounce-backs of non-resident
    /// partitions until [`ShardedStem::release_deferred`].
    deferred_bounce: bool,
    partitions: usize,
    mem_partitions: usize,
    /// Withheld bounce-backs, in build order.
    deferred: Vec<(Tuple, TupleState)>,
    /// Worker-pool budget for this SteM's envelope fan-outs (resolved
    /// from [`StemOptions::workers`] at construction).
    workers: usize,
    /// Minimum routed rows before an envelope dispatches to the pool
    /// (resolved from [`StemOptions::parallel_min_rows`]).
    parallel_min_rows: usize,
    /// Rows a scan will deliver, reserved for at the first build
    /// ([`Self::expect_scan_rows`]); 0 once reserved, or when unknown.
    expected_rows: usize,
    /// Pooled build envelope buffers, one per lane.
    build_lanes: Vec<BuildLane>,
    /// Per build tuple: its lane (`None` for an EOT tuple).
    build_route: Vec<Option<usize>>,
    /// Pooled probe envelope buffers (see [`ProbePool`]).
    probe_pool: ProbePool,
}

impl std::fmt::Debug for ShardedStem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStem")
            .field("instance", &self.instance)
            .field("num_shards", &self.num_shards)
            .field("len", &self.len())
            .field("backend", &self.backend())
            .field("max_ts", &self.max_ts)
            .finish()
    }
}

impl ShardedStem {
    /// Create the SteM for `instance` of `source`, indexing `join_cols`
    /// in every lane. A SteM with exactly one join column gets
    /// `opts.num_shards` keyed lanes, partitioned by that column; any
    /// other gets one lane (see the module docs).
    pub fn new(
        instance: TableIdx,
        source: SourceId,
        join_cols: &[usize],
        has_scan_am: bool,
        has_index_am: bool,
        opts: StemOptions,
    ) -> ShardedStem {
        let num_shards = match join_cols {
            [_] => opts.num_shards.max(1),
            _ => 1,
        };
        let n_lanes = if num_shards == 1 { 1 } else { num_shards + 1 };
        ShardedStem {
            instance,
            source,
            has_scan_am,
            has_index_am,
            shards: (0..n_lanes)
                .map(|_| Shard::new(&opts.store, join_cols))
                .collect(),
            num_shards,
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
            workers: opts.workers.unwrap_or_else(default_workers).max(1),
            parallel_min_rows: opts
                .parallel_min_rows
                .unwrap_or_else(default_parallel_min_rows)
                .max(1),
            expected_rows: 0,
            build_lanes: Vec::new(),
            build_route: Vec::new(),
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
    /// build, every lane reserves its slab, timestamp column and dedup
    /// filter for them, capped at the eviction window, instead of
    /// regrowing them — and a SteM nothing is built into, such as a
    /// private SteM the query server folds away, reserves nothing. Keyed
    /// lanes split the rows by hash, so each reserves an even share plus
    /// an eighth of headroom (a lane that overran an exact share would
    /// double and request more than plain growth); the overflow lane
    /// holds only NULL keys and reserves nothing. Called by the plan and
    /// the query server.
    pub(crate) fn expect_scan_rows(&mut self, rows: usize) {
        self.expected_rows = self.window.map_or(rows, |w| rows.min(w));
    }

    /// Make the reservation [`Self::expect_scan_rows`] announced.
    fn reserve_expected(&mut self) {
        let rows = std::mem::take(&mut self.expected_rows);
        if self.num_shards == 1 {
            self.shards[0].reserve(rows);
            return;
        }
        let share = rows.div_ceil(self.num_shards);
        for lane in &mut self.shards[..self.num_shards] {
            lane.reserve(share + share / 8);
        }
    }

    /// No row can arrive twice — one scan over rows the catalog checked
    /// pairwise distinct — so no lane runs the §3.2 duplicate filter: each
    /// keeps only the filter's member count and bytes, and
    /// [`Self::approx_bytes`] reads as if it filtered. Called by the plan
    /// and the query server before the first build; a SteM made by
    /// [`Self::new`] alone always filters.
    pub(crate) fn trust_distinct(&mut self) {
        self.shards.iter_mut().for_each(Shard::trust_distinct);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Keyed shard fan-out (1 = a single storage lane) — the options'
    /// fan-out only on a SteM with one join column.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Stored (non-EOT) tuples across all lanes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-lane row counts (keyed lanes first, overflow last when
    /// sharded) — balance diagnostics for benches and tests.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::len).collect()
    }

    /// Per-lane approximate memory (same order as [`Self::shard_lens`]).
    pub fn shard_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::approx_bytes).collect()
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

    /// Approximate memory footprint: the sum over every keyed lane's
    /// store and dedup filter plus the overflow lane's.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(Shard::approx_bytes).sum()
    }

    /// Whether the dictionary is indexed (`"hash"`) or not yet (`"list"`).
    /// Lanes of an adaptive store index themselves independently; this
    /// reports the first lane's.
    pub fn backend(&self) -> &'static str {
        self.shards[0].backend()
    }

    /// How many bounce-backs are currently withheld.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Virtual service units for one envelope under the parallel-server
    /// cost model (`CostModel::shard_parallel_service`): each lane is an
    /// independent server, so the envelope completes when the *busiest*
    /// lane does — the unit count is the max per-lane load, computed
    /// with the same routing the envelope will actually take (bound
    /// probes hit one lane; unbound probes and EOTs, which every lane's
    /// server must observe, load them all). A one-lane SteM is a serial
    /// server: units = batch length.
    pub fn parallel_service_units(
        &self,
        links: &TableLinks,
        batch: &TupleBatch,
        probe: bool,
    ) -> u64 {
        let mut loads = vec![0u64; self.shards.len()];
        for tuple in batch.iter() {
            let lane = if probe {
                self.probe_lane(&hashed_binding(links, tuple))
            } else {
                let row = &tuple.components()[0].row;
                (!row.is_eot()).then(|| self.lane_of_row(row))
            };
            match lane {
                Some(lane) => loads[lane] += 1,
                None => loads.iter_mut().for_each(|l| *l += 1),
            }
        }
        loads.into_iter().max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// The lane a key with this hash belongs to — the single routing
    /// rule shared by builds, probes and the cost model. Un-hashable keys
    /// (NULL/EOT) route to the overflow lane, which is the last lane (of
    /// a one-lane SteM: the only one).
    fn lane_of_hash(&self, hash: Option<u64>) -> usize {
        match hash {
            Some(h) => KeyHash(h).shard(self.num_shards),
            None => self.shards.len() - 1,
        }
    }

    /// The lane a stored row belongs to. A one-lane SteM has nothing to
    /// route and hashes nothing: its index link hashes the key anyway.
    fn lane_of_row(&self, row: &Row) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.lane_of_hash(row.get(self.key_col).and_then(Value::stable_key_hash))
    }

    /// Lane decision for one resolved probe. `Some(lane)`: an equi
    /// binding pins the probe to its key's lane (equal keys co-locate,
    /// and overflow rows can never equal a probe key — that lane answers
    /// completely). A SteM with lanes has one join column, so a binding
    /// can only be on the column its lanes are partitioned by. `None`: no
    /// binding at all — a cross product, which visits every lane.
    fn probe_lane(&self, binding: &ProbeBinding) -> Option<usize> {
        let (col, key) = binding.as_ref()?;
        debug_assert!(
            self.shards.len() == 1 || *col == self.key_col,
            "probe bound on column {col} of a SteM partitioned by column {}",
            self.key_col
        );
        Some(self.lane_of_hash(key.hash().map(KeyHash::get)))
    }

    // ------------------------------------------------------------------
    // Build
    // ------------------------------------------------------------------

    /// Build a whole envelope of singleton (or EOT) tuples, consuming
    /// timestamps from `ts_counter` as fresh inserts happen; one
    /// [`BuildResult`] per tuple, batch order. See the module docs for
    /// the three passes and why results are identical at any shard and
    /// worker count.
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
            self.reserve_expected();
        }
        let mut lanes = std::mem::take(&mut self.build_lanes);
        let mut route = std::mem::take(&mut self.build_route);
        lanes.resize_with(self.shards.len(), BuildLane::default);
        for lane in &mut lanes {
            lane.members.clear();
            lane.fresh.clear();
            lane.next = 0;
        }
        route.clear();
        let envelope: &[Tuple] = tuples;

        // Pass 1 (serial): route. EOTs touch no dictionary state, so
        // their position within the batch is irrelevant.
        for (i, tuple) in envelope.iter().enumerate() {
            debug_assert!(tuple.is_singleton(), "SteMs store singleton tuples only");
            let comp = &tuple.components()[0];
            debug_assert_eq!(comp.table, self.instance, "build routed to wrong SteM");
            if comp.row.is_eot() {
                self.eot.record(&comp.row);
                route.push(None);
            } else {
                let lane = self.lane_of_row(&comp.row);
                lanes[lane].members.push(i);
                route.push(Some(lane));
            }
        }

        // Pass 2: per-lane dedup + dictionary insert — one pool task per
        // busy lane with the lane index as worker affinity (the worker
        // that last built a lane re-runs it, caches warm) once the
        // envelope is large enough, inline otherwise.
        let routed: usize = lanes.iter().map(|l| l.members.len()).sum();
        let busy_lanes = lanes.iter().filter(|l| !l.members.is_empty()).count();
        let workers = self.workers;
        let pooled = routed >= self.parallel_min_rows && busy_lanes > 1 && workers > 1;
        let busy = self
            .shards
            .iter_mut()
            .zip(&mut lanes)
            .enumerate()
            .filter(|(_, (_, lane))| !lane.members.is_empty());
        if pooled {
            fan_out(workers, busy, |(shard, lane)| {
                shard.ingest(envelope, &lane.members, &mut lane.fresh, &mut lane.pending)
            });
        } else {
            for (_, (shard, lane)) in busy {
                shard.ingest(envelope, &lane.members, &mut lane.fresh, &mut lane.pending);
            }
        }

        // Pass 3 (serial): global timestamps in batch order.
        for ((tuple, state), &lane_i) in tuples.iter_mut().zip(states).zip(&route) {
            let Some(lane_i) = lane_i else {
                out.push(BuildResult::Eot);
                continue;
            };
            let lane = &mut lanes[lane_i];
            lane.next += 1;
            out.push(match lane.fresh[lane.next - 1] {
                Some(slot) => {
                    *ts_counter += 1;
                    self.stamp(lane_i, slot, tuple, state, *ts_counter)
                }
                None => {
                    self.duplicates_absorbed += 1;
                    BuildResult::Duplicate
                }
            });
        }
        self.build_lanes = lanes;
        self.build_route = route;
    }

    /// Stamp one freshly ingested row — `tuple`'s, now in `slot` of
    /// `lane` — with its global build timestamp, take the bounce/defer
    /// decision, and move the stamped singleton out of the envelope.
    fn stamp(
        &mut self,
        lane: usize,
        slot: Slot,
        tuple: &mut Tuple,
        state: &TupleState,
        ts: Timestamp,
    ) -> BuildResult {
        self.shards[lane].stamp(slot, ts);
        self.max_ts = self.max_ts.max(ts);
        self.build_count += 1;
        if self.window.is_some() {
            self.fifo.push_back((lane, slot));
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
    /// is always the globally oldest stored row, whichever lane holds it,
    /// and is evicted by slot — no search, whatever the stream has
    /// delivered so far.
    fn enforce_window(&mut self) {
        while self.window.is_some_and(|w| self.fifo.len() > w) {
            let (lane, slot) = self.fifo.pop_front().expect("non-empty fifo");
            self.evictions += 1;
            if self.shards[lane].forget(slot) {
                // The lane reclaimed its dead slots: its rows now sit in
                // slots 0.. in insertion order, which is the order its
                // entries have in the FIFO.
                let mut dense = 0;
                for (_, slot) in self.fifo.iter_mut().filter(|(l, _)| *l == lane) {
                    *slot = dense;
                    dense += 1;
                }
                debug_assert_eq!(dense as usize, self.shards[lane].len());
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
    /// `Float(5.0)` share a lane and an index chain — are released in one
    /// cluster. NULL/EOT keys have no normal form and hash as themselves.
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
    /// four passes.
    ///
    /// Lane position lists, dispatch chunks and per-chunk scratch and
    /// reply arenas live in a pool reused across envelopes
    /// ([`ProbePool`]), so a steady probe stream allocates no envelope
    /// buffers. The pool is taken out for the envelope and restored
    /// after it, like the build path's lanes: a probe that unwinds leaves
    /// an empty pool behind, never a half-written one.
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
        let mut pool = std::mem::take(&mut self.probe_pool);
        self.probe_envelope(&mut pool, links, batch, states, query, out);
        self.probe_pool = pool;
    }

    fn probe_envelope(
        &self,
        pool: &mut ProbePool,
        links: &TableLinks,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        debug_assert_eq!(batch.len(), states.len());
        let t = self.instance;
        debug_assert_eq!(links.table(), t, "probe table of another instance");
        let n_lanes = self.shards.len();
        let ProbePool {
            resolved,
            lane_of,
            lanes,
            tasks,
            scratches,
            chunk_sets,
            cursors,
            cover,
        } = pool;

        // Pass 1 (serial): resolve — binding, key hash and bounce decision
        // once per tuple, read off the plan-time probe table.
        resolved.clear();
        lane_of.clear();
        for tuple in batch {
            let binding = hashed_binding(links, tuple);
            lane_of.push(self.probe_lane(&binding));
            resolved.push(Resolved {
                binding,
                outcome: self.bounce_decision(links, tuple, cover),
            });
        }

        // Pass 2 (serial): each lane's envelope positions, batch order.
        lanes.resize_with(n_lanes, Vec::new);
        lanes.iter_mut().for_each(Vec::clear);
        for (i, lane) in (0u32..).zip(lane_of.iter()) {
            match lane {
                Some(l) => lanes[*l].push(i),
                None => lanes.iter_mut().for_each(|l| l.push(i)),
            }
        }

        // Pass 3: cut lanes into dispatch chunks and probe them. Unlike
        // the build fan-out, probe parallelism does not require more than
        // one busy lane: chunking splits even a single hot lane across
        // the worker budget.
        let work: usize = lanes.iter().map(Vec::len).sum();
        let parallel = work >= self.parallel_min_rows && self.workers > 1 && work > 1;
        let chunk_target = if parallel {
            work.div_ceil(self.workers).max(1)
        } else {
            usize::MAX
        };
        tasks.clear();
        cursors.clear();
        for (lane, members) in lanes.iter().enumerate() {
            // The merge pass starts each lane at its first chunk.
            cursors.push(tasks.len());
            let mut start = 0;
            while start < members.len() {
                let end = start.saturating_add(chunk_target).min(members.len());
                tasks.push((lane, start, end));
                start = end;
            }
        }
        let ctx = ProbeCtx {
            instance: t,
            query,
            observed_ts: self.max_ts,
            batch,
            states,
            resolved,
        };
        let shards = &self.shards;
        type Chunk<'a> = (
            &'a (usize, usize, usize),
            &'a mut ProbeScratch,
            &'a mut ProbeReplySet,
        );
        let run = |(&(lane, start, end), scratch, set): Chunk<'_>| {
            shards[lane].probe(&ctx, &lanes[lane][start..end], scratch, set);
        };
        scratches.resize_with(tasks.len().max(scratches.len()), ProbeScratch::default);
        if let [task] = &tasks[..] {
            // A single chunk holds every probe of the envelope in batch
            // order: its replies are the envelope's replies.
            return run((task, &mut scratches[0], out));
        }
        chunk_sets.resize_with(tasks.len().max(chunk_sets.len()), ProbeReplySet::new);
        chunk_sets.iter_mut().for_each(ProbeReplySet::clear);
        let chunks = tasks
            .iter()
            .zip(scratches.iter_mut())
            .zip(chunk_sets.iter_mut())
            .map(|((task, scratch), set)| (task, scratch, set));
        if parallel {
            fan_out(self.workers, chunks.map(|c| (c.0 .0, c)), run);
        } else {
            chunks.for_each(run);
        }

        // Pass 4 (serial): merge back into batch order. Each lane's
        // chunks hold its probes in batch order, so one task cursor per
        // lane suffices; replies move between arenas without
        // reallocating. Outcome and observed timestamp were resolved
        // SteM-wide, so any lane's header carries them.
        for lane in lane_of.iter() {
            let gather = match lane {
                Some(l) => *l..*l + 1,
                None => 0..n_lanes,
            };
            let start = out.total_results();
            let mut meta = pull_reply(gather.start, tasks, cursors, chunk_sets, out);
            for lane in gather.start + 1..gather.end {
                let more = pull_reply(lane, tasks, cursors, chunk_sets, out);
                meta.raw_matches += more.raw_matches;
                meta.len += more.len;
            }
            if gather.len() > 1 {
                // Ascending build timestamp = global insertion order
                // (stable sort keeps per-lane order for ties, though
                // stored timestamps are unique).
                out.results_tail_mut(start)
                    .sort_by_key(|(tup, _)| tup.component(t).map(|c| c.ts).unwrap_or(UNBUILT_TS));
            }
            out.push_meta(meta);
        }
    }
}

/// A probe tuple's equality binding on the table `links` leads to, with
/// the key hashed — once; lane routing and the dictionary descent both
/// read the annotation.
fn hashed_binding(links: &TableLinks, tuple: &Tuple) -> ProbeBinding {
    links
        .equi_binding(tuple)
        .map(|(col, val)| (col, HashedKey::new(val.clone())))
}

/// Run one envelope's pool tasks — `(lane, task)` pairs — to completion
/// on `workers` execution streams, the calling thread being one of them:
/// it keeps every `workers`-th task for itself and queues the rest with
/// their lane as worker affinity. The caller's share is fixed by task
/// position, not won in a race against the workers waking up, so which
/// thread — and with it which allocator arena — holds a lane's dictionary
/// and a probe chunk's scratch and result tuples (themselves filed by
/// task position) does not move with host load; a process whose jobs
/// drift between the caller and the workers keeps freed memory in
/// whichever arenas they last ran on, and its resident size drifts with
/// them. Once its own share is done the caller helps drain the queues
/// like any idle worker.
fn fan_out<T: Send>(
    workers: usize,
    tasks: impl Iterator<Item = (usize, T)>,
    run: impl Fn(T) + Sync,
) {
    let run = &run;
    WorkerPool::global().scope(workers, |scope| {
        let mut own = Vec::new();
        for (k, (lane, task)) in tasks.enumerate() {
            if k % workers == 0 {
                own.push(task);
            } else {
                scope.spawn(lane, move || run(task));
            }
        }
        own.into_iter().for_each(run);
    });
}

/// Take the next unconsumed reply of `lane` out of its chunk arenas,
/// moving its results into `out` and returning its header. Chunks are
/// lane-major and each holds its probes in batch order, so advancing the
/// lane's task cursor past drained chunks walks the lane's replies in
/// exactly the order the lane pass pushed its probes.
fn pull_reply(
    lane: usize,
    tasks: &[(usize, usize, usize)],
    cursors: &mut [usize],
    chunk_sets: &mut [ProbeReplySet],
    out: &mut ProbeReplySet,
) -> ReplyMeta {
    let mut ti = cursors[lane];
    loop {
        debug_assert!(
            ti < tasks.len() && tasks[ti].0 == lane,
            "lane {lane} reply underflow"
        );
        if chunk_sets[ti].remaining() > 0 {
            cursors[lane] = ti;
            return chunk_sets[ti].take_results_into(out);
        }
        ti += 1;
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
        /// The storage lanes, for tests that inspect per-lane state.
        pub(crate) fn lanes(&self) -> &[Shard] {
            &self.shards
        }

        /// Does this SteM run the §3.2 duplicate filter (see
        /// [`ShardedStem::trust_distinct`])?
        pub(crate) fn filters_duplicates(&self) -> bool {
            self.shards.iter().all(Shard::filters)
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
    use stems_types::{CmpOp, ColRef, PredId, PredSet, Predicate};

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
    fn stem_on(join_cols: &[usize], num_shards: usize, opts: StemOptions) -> ShardedStem {
        ShardedStem::new(
            TableIdx(1),
            SourceId(1),
            join_cols,
            true,
            false,
            StemOptions { num_shards, ..opts },
        )
    }

    /// S's SteM joined on its key column alone, so it keeps its lanes.
    fn sharded(num_shards: usize, opts: StemOptions) -> ShardedStem {
        stem_on(&[0], num_shards, opts)
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
        tuples.push(s_null_key(1)); // duplicate in the overflow lane
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
    /// compacts and answers exactly like one that filters and regrows, at
    /// one lane and several, windowed or not, envelope by envelope.
    #[test]
    fn a_trusting_stem_matches_a_filtering_one_over_distinct_rows() {
        let (_c, q) = setup();
        let rows: Vec<Tuple> = (0..150).map(|i| s_tuple(i % 17, i)).collect();
        for shards in [1, 4] {
            for window in [None, Some(5)] {
                let opts = StemOptions {
                    eviction_window: window,
                    ..StemOptions::default()
                };
                let mut filtering = sharded(shards, opts.clone());
                let mut trusting = sharded(shards, opts);
                trusting.expect_scan_rows(rows.len());
                trusting.trust_distinct();
                assert!(filtering.filters_duplicates() && !trusting.filters_duplicates());
                let (mut ts_f, mut ts_t) = (0, 0);
                for chunk in rows.chunks(7) {
                    let batch: TupleBatch = chunk.iter().cloned().collect();
                    let states = vec![TupleState::new(); batch.len()];
                    let want = filtering.build_batch(&batch, &states, &mut ts_f);
                    let got = trusting.build_batch(&batch, &states, &mut ts_t);
                    let cell = format!("{shards} shards, window {window:?}");
                    assert_eq!(stamped_ts(&got), stamped_ts(&want), "{cell}");
                    assert_eq!(trusting.shard_lens(), filtering.shard_lens(), "{cell}");
                    assert_eq!(trusting.shard_bytes(), filtering.shard_bytes(), "{cell}");
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
    }

    /// Shard-count × envelope-split invariance of the one build path:
    /// {1, 2, 4, 7} shards × every store kind × {one envelope of N, N
    /// envelopes of one} produce identical results, timestamps and
    /// counters.
    #[test]
    fn build_results_match_single_shard_bit_for_bit() {
        let batch = workload();
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            let mut one = sharded(1, opts.clone());
            let built = build_in_envelopes(&mut one, &batch, batch.len());
            let want = build_observables(&one, built);
            for shards in [1usize, 2, 4, 7] {
                for envelope in [batch.len(), 1] {
                    let mut stem = sharded(shards, opts.clone());
                    let built = build_in_envelopes(&mut stem, &batch, envelope);
                    assert_eq!(
                        want,
                        build_observables(&stem, built),
                        "{store:?}, {shards} shards, envelopes of {envelope}"
                    );
                }
            }
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
        for shards in [1, 4] {
            for window in [None, Some(5)] {
                let opts = StemOptions {
                    eviction_window: window,
                    ..StemOptions::default()
                };
                let mut borrowing = sharded(shards, opts.clone());
                let mut moving = sharded(shards, opts);
                let (mut ts_b, mut ts_m) = (0, 0);
                let want = borrowing.build_batch(&batch, &states, &mut ts_b);
                let mut envelope = batch.clone();
                let mut got = Vec::new();
                moving.build_batch_into(&mut envelope, &states, &mut ts_m, &mut got);
                let cell = format!("{shards} shards, window {window:?}");
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
    }

    /// Shard-count invariance of the one probe path for keyed probes
    /// (one lane answers): {1, 2, 4, 7} shards × every store kind, reply
    /// for reply including match order and timestamps.
    #[test]
    fn probe_replies_match_single_shard_bit_for_bit() {
        let (_c, q) = setup();
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            let mut one = sharded(1, opts.clone());
            build_workload(&mut one);
            for shards in [2usize, 4, 7] {
                let mut many = sharded(shards, opts.clone());
                build_workload(&mut many);
                // Incl. a missing key; probe after all builds so the
                // TimeStamp rule passes.
                for probe_key in [0i64, 3, 5, 12, 99] {
                    let r = r_tuple(1, probe_key).with_timestamp(TableIdx(0), 1_000);
                    let p1 = probe_one(&mut one, &r, &TupleState::new(), &q);
                    let pn = probe_one(&mut many, &r, &TupleState::new(), &q);
                    let ctx = format!("{store:?}, {shards} shards, key {probe_key}");
                    assert_eq!(p1, pn, "{ctx}");
                    assert_eq!(match_ts(&p1), match_ts(&pn), "{ctx}");
                }
                // NULL probe key: routed to the overflow lane, matches
                // nothing (SQL equality), same bounce at every count.
                let rn = Tuple::singleton_of(TableIdx(0), vec![Value::Int(1), Value::Null])
                    .with_timestamp(TableIdx(0), 1_000);
                let p1 = probe_one(&mut one, &rn, &TupleState::new(), &q);
                let pn = probe_one(&mut many, &rn, &TupleState::new(), &q);
                assert!(pn.results.is_empty());
                assert_eq!(p1.outcome, pn.outcome);
            }
        }
    }

    #[test]
    fn cartesian_probe_merges_in_global_insertion_order() {
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        build_workload(&mut one);
        build_workload(&mut four);
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 1_000);
        let p1 = probe_one(&mut one, &r, &TupleState::new(), &q);
        let p4 = probe_one(&mut four, &r, &TupleState::new(), &q);
        assert!(!p4.results.is_empty());
        // Bit-identical: same results in the same (insertion) order.
        assert_eq!(p1, p4);
        // And the order really is ascending build timestamp.
        let ts = match_ts(&p4);
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    /// One lane ⇒ no timestamp re-sort. A SteM joined on both its columns
    /// has one lane at every shard count, so a probe bound on its second
    /// column returns its candidates in *store* order, which is insertion
    /// order: at one shard, at four, and chunked across the pool.
    #[test]
    fn one_lane_fanout_probe_keeps_store_order() {
        let (c, q) = setup();
        let q = y_query(&c, &q);
        let batch: TupleBatch = (0..40i64).map(|i| s_tuple(100 - i, i % 5)).collect();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            // Store order, from the store itself.
            let mut reference = store.build(&[0, 1]);
            reference.insert_batch(batch.iter().map(|t| t.components()[0].row.clone()));
            let store_order = reference.lookup_eq(1, &Value::Int(3));
            assert_eq!(store_order.len(), 8);

            let mut one = stem_on(&[0, 1], 1, opts.clone());
            build_in_envelopes(&mut one, &batch, batch.len());
            let p1 = probe_one(&mut one, &r, &TupleState::new(), &q);
            let got: Vec<&Arc<Row>> = p1
                .results
                .iter()
                .map(|(t, _)| &t.component(TableIdx(1)).unwrap().row)
                .collect();
            assert_eq!(got, store_order.iter().collect::<Vec<_>>(), "{store:?}");
            // The same lane chunked across the pool: its replies come
            // back through the merge, gathered from one lane each.
            let mut pooled = stem_on(
                &[0, 1],
                1,
                StemOptions {
                    workers: Some(4),
                    parallel_min_rows: Some(1),
                    ..opts.clone()
                },
            );
            build_in_envelopes(&mut pooled, &batch, batch.len());
            let probes: TupleBatch = std::iter::repeat_n(r.clone(), 6).collect();
            let states = vec![TupleState::new(); probes.len()];
            for (_, results) in probe_flat(&mut pooled, &probes, &states, &q) {
                assert_eq!(results, p1.results, "{store:?} chunked");
            }

            let mut four = stem_on(&[0, 1], 4, opts);
            assert_eq!(four.lanes().len(), 1, "two join columns, one lane");
            build_in_envelopes(&mut four, &batch, batch.len());
            let p4 = probe_one(&mut four, &r, &TupleState::new(), &q);
            assert_eq!(p4, p1, "{store:?} at 4 shards");
            assert_eq!(match_ts(&p4), match_ts(&p1), "{store:?}");
        }
    }

    /// Reported memory must equal the sum of the lane stores plus the
    /// overflow lane — not one lane's view.
    #[test]
    fn approx_bytes_and_deferred_len_aggregate_across_shards() {
        let mut stem = sharded(4, StemOptions::default());
        build_workload(&mut stem);
        let per_shard = stem.shard_bytes();
        assert_eq!(per_shard.len(), 5, "4 keyed shards + overflow lane");
        assert!(
            per_shard.iter().filter(|b| **b > 0).count() >= 2,
            "workload must actually spread across shards: {per_shard:?}"
        );
        assert_eq!(
            stem.approx_bytes(),
            per_shard.iter().sum::<usize>(),
            "approx_bytes must be the sum of shard stores + overflow lane"
        );
        // The overflow lane holds the NULL-keyed row and is counted.
        assert_eq!(*stem.shard_lens().last().unwrap(), 1);
        // A one-lane SteM has no separate overflow lane.
        assert_eq!(sharded(1, StemOptions::default()).shard_lens().len(), 1);

        // The deferred queue is SteM-wide.
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 4,
            ..StemOptions::default()
        };
        let mut one = sharded(1, opts.clone());
        let mut four = sharded(4, opts);
        let batch: TupleBatch = (0..20).map(|i| s_tuple(i, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let (mut t1, mut t4) = (0, 0);
        one.build_batch(&batch, &states, &mut t1);
        four.build_batch(&batch, &states, &mut t4);
        assert_eq!(one.deferred_len(), 20);
        assert_eq!(four.deferred_len(), 20);
        // Clustered release order is identical at every shard count.
        let r1: Vec<Tuple> = one.release_deferred().into_iter().map(|(t, _)| t).collect();
        let r4: Vec<Tuple> = four
            .release_deferred()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(r1, r4);
        assert_eq!(four.deferred_len(), 0);
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
            StemOptions {
                num_shards: 4,
                ..StemOptions::default()
            },
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
        // Scan EOT covers everything, whichever lanes a probe visits.
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

    #[test]
    fn windowed_sharded_stem_sweeps_global_fifo() {
        let opts = StemOptions {
            eviction_window: Some(3),
            ..StemOptions::default()
        };
        let mut one = sharded(1, opts.clone());
        let mut four = sharded(4, opts);
        let mut ts1 = 0;
        let mut ts4 = 0;
        // Interleave duplicates and evicted re-arrivals; both SteMs must
        // agree on every BuildResult and every counter, batch by batch.
        for round in 0..6i64 {
            let batch: TupleBatch = (0..7)
                .map(|i| {
                    let k = (round * 3 + i) % 10;
                    s_tuple(k, k)
                })
                .collect();
            let states = vec![TupleState::new(); batch.len()];
            let r1 = one.build_batch(&batch, &states, &mut ts1);
            let r4 = four.build_batch(&batch, &states, &mut ts4);
            assert_eq!(r1, r4, "round {round}");
            assert_eq!(ts1, ts4, "round {round}");
            assert_eq!(one.len(), four.len(), "round {round}");
            assert!(four.len() <= 3, "window overrun");
            assert_eq!(one.evictions(), four.evictions(), "round {round}");
        }
        assert!(four.evictions() > 0);
    }

    /// Probe a batch into a fresh arena and flatten it into comparable
    /// per-reply views.
    fn probe_flat(
        stem: &mut ShardedStem,
        probes: &TupleBatch,
        states: &[TupleState],
        q: &QuerySpec,
    ) -> Vec<(ReplyMeta, Vec<(Tuple, PredSet)>)> {
        let mut set = ProbeReplySet::new();
        stem.probe_batch_into(probes.as_slice(), states, q, &mut set);
        set.iter().map(|(m, r)| (*m, r.to_vec())).collect()
    }

    #[test]
    fn parallel_threshold_path_matches_serial_path() {
        // A batch big enough to cross the dispatch threshold: the pooled
        // fan-out must produce exactly what the serial fan-out produces.
        let (_c, q) = setup();
        let rows = crate::runtime::DEFAULT_PARALLEL_MIN_ROWS * 2;
        let batch: TupleBatch = (0..rows as i64).map(|i| s_tuple(i % 101, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        let (mut t1, mut t4) = (0, 0);
        let r1 = one.build_batch(&batch, &states, &mut t1);
        let r4 = four.build_batch(&batch, &states, &mut t4);
        assert_eq!(r1, r4);
        assert!(
            four.shard_lens()[..4].iter().all(|l| *l > 0),
            "a large keyed workload must populate every shard: {:?}",
            four.shard_lens()
        );
        // Large probe envelope (keyed): parallel path, identical replies.
        let probes: TupleBatch = (0..rows as i64)
            .map(|i| r_tuple(i, i % 101).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let p1 = probe_flat(&mut one, &probes, &pstates, &q);
        let p4 = probe_flat(&mut four, &probes, &pstates, &q);
        assert_eq!(p1, p4);
    }

    #[test]
    fn worker_count_is_invariant_for_pooled_fanouts() {
        // Same workload at worker budgets {1, 2, 4, 8} (threshold forced
        // to 1 so every envelope dispatches) and lane counts {one, many}:
        // builds and probe replies must be bit-identical — the pool
        // decides the schedule, never the result.
        let (_c, q) = setup();
        let rows = 600i64;
        let batch: TupleBatch = (0..rows).map(|i| s_tuple(i % 37, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let probes: TupleBatch = (0..rows)
            .map(|i| r_tuple(i, i % 37).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let at = |shards: usize, w: usize| {
            let mut stem = sharded(
                shards,
                StemOptions {
                    workers: Some(w),
                    parallel_min_rows: Some(1),
                    ..StemOptions::default()
                },
            );
            let mut ts = 0;
            let builds = stem.build_batch(&batch, &states, &mut ts);
            let replies = probe_flat(&mut stem, &probes, &pstates, &q);
            let stamps = stamped_ts(&builds);
            (builds, stamps, ts, replies)
        };
        let base = at(4, 1);
        for shards in [1usize, 4] {
            for w in [1usize, 2, 4, 8] {
                assert_eq!(base, at(shards, w), "shards={shards} workers={w} diverged");
            }
        }
    }

    #[test]
    fn skewed_single_lane_chunks_match_serial() {
        // Every probe keyed to ONE value: a single hot lane. The chunked
        // dispatch must split it across workers and still merge replies
        // bit-identically to the serial single-chunk path.
        let (_c, q) = setup();
        let mut stem = sharded(
            4,
            StemOptions {
                workers: Some(4),
                parallel_min_rows: Some(1),
                ..StemOptions::default()
            },
        );
        let mut serial = sharded(
            4,
            StemOptions {
                workers: Some(1),
                ..StemOptions::default()
            },
        );
        let batch: TupleBatch = (0..200i64).map(|i| s_tuple(7, i)).collect();
        let states = vec![TupleState::new(); batch.len()];
        let (mut t1, mut t2) = (0, 0);
        stem.build_batch(&batch, &states, &mut t1);
        serial.build_batch(&batch, &states, &mut t2);
        let probes: TupleBatch = (0..300i64)
            .map(|i| r_tuple(i, 7).with_timestamp(TableIdx(0), 1_000_000))
            .collect();
        let pstates = vec![TupleState::new(); probes.len()];
        let chunked = probe_flat(&mut stem, &probes, &pstates, &q);
        let unchunked = probe_flat(&mut serial, &probes, &pstates, &q);
        assert_eq!(chunked, unchunked);
        // Every probe really matched the whole hot lane.
        assert!(chunked
            .iter()
            .all(|(m, r)| m.raw_matches == 200 && r.len() == 200));
    }

    #[test]
    fn parallel_service_units_take_the_busiest_shard() {
        let (c, q) = setup();
        let mut one = sharded(1, StemOptions::default());
        let mut four = sharded(4, StemOptions::default());
        let batch: TupleBatch = (0..40).map(|i| s_tuple(i, i)).collect();
        let states = vec![TupleState::new(); batch.len()];

        // One lane: a serial server — units are the whole envelope.
        let links = TableLinks::of(&q, TableIdx(1));
        assert_eq!(one.parallel_service_units(&links, &batch, false), 40);

        // Sharded build: units equal the busiest lane's load.
        let build_units = four.parallel_service_units(&links, &batch, false);
        let (mut t1, mut t4) = (0, 0);
        one.build_batch(&batch, &states, &mut t1);
        four.build_batch(&batch, &states, &mut t4);
        let max_lane = *four.shard_lens().iter().max().unwrap() as u64;
        assert_eq!(build_units, max_lane);
        assert!(build_units < 40, "distinct keys must spread across shards");

        // Keyed probes spread the same way …
        let probes: TupleBatch = (0..40)
            .map(|i| r_tuple(i, i).with_timestamp(TableIdx(0), 1_000))
            .collect();
        let probe_units = four.parallel_service_units(&links, &probes, true);
        assert!(probe_units < 40);
        assert_eq!(one.parallel_service_units(&links, &probes, true), 40);

        // … but fan-out probes (no equi binding) load every lane fully.
        let qx = QuerySpec::new(&c, q.tables.clone(), vec![], None).unwrap();
        let unlinked = TableLinks::of(&qx, TableIdx(1));
        assert_eq!(four.parallel_service_units(&unlinked, &probes, true), 40);
        assert_eq!(one.parallel_service_units(&unlinked, &probes, true), 40);
    }

    #[test]
    fn store_kinds_shard_consistently() {
        // A SteM joined on its second column alone, so its lanes are
        // partitioned by that column, at {1, 2, 4, 7} shards: a probe
        // bound on it lands in one lane, an unbound probe (a cross
        // product) visits every lane and has its reply merged — and every
        // store kind answers identically, order included.
        let (c, q) = setup();
        let by_y = y_query(&c, &q);
        let cross = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            // Keys descend while build timestamps ascend; y repeats.
            let batch: TupleBatch = (0..40i64).map(|i| s_tuple(100 - i, i % 5)).collect();
            let mut one = stem_on(&[1], 1, opts.clone());
            build_in_envelopes(&mut one, &batch, batch.len());
            let want = [&by_y, &cross].map(|q| probe_one(&mut one, &r, &TupleState::new(), q));
            assert_eq!(want[0].results.len(), 8);
            assert_eq!(want[1].results.len(), 40);
            for shards in [2usize, 4, 7] {
                let mut many = stem_on(&[1], shards, opts.clone());
                assert_eq!(many.lanes().len(), shards + 1);
                build_in_envelopes(&mut many, &batch, batch.len());
                for (q, p1) in [&by_y, &cross].into_iter().zip(&want) {
                    let pn = probe_one(&mut many, &r, &TupleState::new(), q);
                    assert_eq!(p1, &pn, "{store:?}, {shards} shards");
                    assert_eq!(match_ts(p1), match_ts(&pn), "{store:?}, {shards} shards");
                }
            }
        }
    }

    /// Rows that `sql_eq` are released in one Grace cluster: the bounce
    /// partition is taken on the key's equality normal form.
    #[test]
    fn partition_of_agrees_with_sql_equality() {
        for shards in [1usize, 4] {
            let stem = sharded(
                shards,
                StemOptions {
                    deferred_bounce: true,
                    partitions: 8,
                    ..StemOptions::default()
                },
            );
            let part = |key: Value| stem.partition_of(&Row::new(vec![key, Value::Int(0)]));
            let ints: Vec<usize> = (0..64).map(|k| part(Value::Int(k))).collect();
            let floats: Vec<usize> = (0..64).map(|k| part(Value::Float(k as f64))).collect();
            assert_eq!(ints, floats, "{shards} shards");
            let used: std::collections::HashSet<&usize> = ints.iter().collect();
            assert!(used.len() > 1, "the keys must spread over partitions");
        }
    }

    /// Lanes only on one join column: SteMs over no, one and two join
    /// columns get 1, 1, 1 lanes at one shard and 1, 9, 1 at eight. And
    /// at eight, every bound probe of the one-column SteM — NULL keys
    /// included — lands in exactly one lane.
    #[test]
    fn lanes_follow_the_join_columns() {
        for (shards, want) in [(1, [1, 1, 1]), (8, [1, 9, 1])] {
            let cols: [&[usize]; 3] = [&[], &[0], &[0, 1]];
            let lanes =
                cols.map(|cols| stem_on(cols, shards, StemOptions::default()).lanes().len());
            assert_eq!(lanes, want, "{shards} shards");
        }
        let (_c, q) = setup();
        let mut stem = sharded(8, StemOptions::default());
        build_workload(&mut stem);
        let mut probes: Vec<Tuple> = (0..64)
            .map(|i| r_tuple(i, i % 20).with_timestamp(TableIdx(0), 1_000))
            .collect();
        probes.push(Tuple::singleton_of(
            TableIdx(0),
            vec![Value::Int(1), Value::Null],
        ));
        let probes: TupleBatch = probes.into_iter().collect();
        let states = vec![TupleState::new(); probes.len()];
        probe_flat(&mut stem, &probes, &states, &q);
        let mut visits = vec![0; probes.len()];
        for lane in &stem.probe_pool.lanes {
            lane.iter().for_each(|&i| visits[i as usize] += 1);
        }
        assert!(visits.iter().all(|&v| v == 1), "{visits:?}");
        let busy = stem.probe_pool.lanes.iter().filter(|l| !l.is_empty());
        assert!(busy.count() > 2, "the probes must spread over lanes");
    }

    /// A probe bound on a column the lanes are not partitioned by is a
    /// plan the lane rule rules out; a debug build says so.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "probe bound on column 1")]
    fn a_probe_off_the_partition_column_is_a_plan_bug() {
        let (c, q) = setup();
        let mut stem = sharded(4, StemOptions::default());
        probe_one(
            &mut stem,
            &r_tuple(1, 3),
            &TupleState::new(),
            &y_query(&c, &q),
        );
    }

    /// A strided key column spreads over every lane: lanes are picked from
    /// the high half of the key's hash, and an `Int` key's low hash bits
    /// follow its own low bits. Each lane holds between half and twice its
    /// share at strides 1, 2, 8 and 64.
    #[test]
    fn strided_keys_spread_over_every_lane() {
        const ROWS: i64 = 4000;
        for stride in [1i64, 2, 8, 64] {
            let mut stem = sharded(8, StemOptions::default());
            let batch: TupleBatch = (0..ROWS).map(|i| s_tuple(i * stride, i)).collect();
            build_in_envelopes(&mut stem, &batch, batch.len());
            let lens = stem.shard_lens();
            let share = ROWS as usize / 8;
            assert!(
                lens[..8].iter().all(|&n| share / 2 <= n && n <= share * 2),
                "stride {stride}: {lens:?}"
            );
            assert_eq!(lens[8], 0, "no NULL key, nothing overflows");
        }
    }
}
