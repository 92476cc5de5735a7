//! The State Module (paper §2.1.4): one type, one build algorithm, one
//! probe algorithm.
//!
//! A SteM ([`Stem`]) owns a dictionary of singleton tuples from one table
//! instance — "one main-memory index on each column involved in a join
//! predicate" — and handles:
//!
//! * **build** — insert with set-semantics duplicate absorption (§3.2) and
//!   global timestamp assignment (§3.1); EOT tuples are built into an EOT
//!   index that tracks which probes the SteM can answer *completely*;
//! * **probe** — find matches, concatenate, filter by the TimeStamp and
//!   LastMatchTimeStamp rules, and decide whether to bounce the probe back
//!   (SteM BounceBack, Table 2 + §3.3/§4.1);
//! * **eviction** — optional FIFO window, the CACQ/PSoup-style extension
//!   the paper describes for queries over unbounded streams (§2.3, §6);
//! * **deferred clustered bounce-back** — the §3.1 "asynchronous hash
//!   index" trick that makes routing simulate a Grace hash join: build
//!   acknowledgements are withheld and later released clustered by hash
//!   partition.
//!
//! There is no lock in here, and none around a SteM. A build takes
//! `&mut self`; a probe takes `&self` and works in the caller's
//! [`ProbeReplySet`], which owns the probe's envelope buffers, so any
//! number of probers may read one SteM at once. A SteM has one owner: a
//! query's plan, or the query server's registry, which builds into it only
//! at server instants and lends it read-only to every executor it steps.
//!
//! # One slab and its slot-indexed columns
//!
//! The dictionary keeps its rows in one slab ([`stems_storage::Slab`]) and
//! hands out a dense **slot** per stored row; everything else the SteM
//! knows about a row is filed under that slot, not under the row: the
//! dedup filter maps row value → slot ([`RowSet`], under a whole-row hash
//! computed once per build row — or, where the plan proves no duplicate
//! can arrive, only counts its members), the build timestamps are a plain
//! column, `ts[slot]`, and the FIFO window is a queue of slots, so evicting
//! the oldest row is a removal by slot, not a search for the row. A probe
//! gets candidate *slots* from the dictionary, applies the TimeStamp and
//! LastMatchTimeStamp rules on `ts[slot]` — in a symmetric join the
//! TimeStamp rule alone rejects about half of them — and only then
//! resolves the survivors' rows and clones their handles.
//!
//! # Build: ingest → stamp
//!
//! 1. **Ingest** — one walk over the envelope: EOT tuples go to the EOT
//!    index; data rows pass the set-semantics dedup filter, and the fresh
//!    ones go into the dictionary in one batch insert. Nothing is hashed
//!    to route a row: the index hashes the key.
//! 2. **Stamp** (batch order) — global build timestamps, the counters, and
//!    the bounce/defer decision, so timestamp assignment is the same
//!    sequence whatever the envelope split.
//!
//! Between the two walks a fresh row is stored but unstamped: its column
//! entry reads [`UNBUILT_TS`], which the TimeStamp rule treats as "built
//! after every prober", so a row is invisible until it is stamped.
//!
//! A windowed SteM runs both walks one row at a time and evicts the oldest
//! row after each — eviction must interleave with inserts, or an
//! intra-envelope re-arrival of a row the window should already have
//! forgotten would be wrongly absorbed. An evicted row leaves a dead slot;
//! once the dead slots outnumber the live ones the dictionary is rebuilt
//! dense in insertion order and every slot-indexed column — timestamps,
//! dedup filter, window — is renumbered with it, so neither eviction cost
//! nor the SteM's size depends on how long the stream has run.
//!
//! # Probe: resolve → look up → form results
//!
//! 1. **Resolve** — per probe tuple, once: its bounce decision, and its
//!    equality binding — read off the plan-time probe table
//!    (`TableLinks`), not re-derived from the predicate list — whose key
//!    is hashed ([`HashedKey`]) straight onto its column's key list.
//! 2. **Look up** — one flat index descent per bound column
//!    ([`Store::lookup_eq_flat`]): every key of the envelope is resolved
//!    before any result is formed, level by level across the keys, and
//!    the store reads the precomputed hashes, never re-hashing. Then,
//!    for an envelope of more than one probe, one sweep reads `ts[slot]`
//!    of every candidate, so the timestamp rules of the next pass read
//!    the column from cache: the sweep's loads do not depend on one
//!    another, where pass 3's wait behind each candidate's predicate test
//!    and concatenation.
//! 3. **Form results** — into the caller's reply arena, in batch order.
//!    A candidate past the timestamp rules is tested against the
//!    newly-evaluable predicates as a (probe tuple, row) pair, and only a
//!    survivor is concatenated. There is nothing to merge: every store
//!    answers in insertion order, which is ascending build timestamp.

use crate::links::TableLinks;
use crate::tuple_state::{CompletionNeed, TupleState};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use stems_catalog::{QuerySpec, SourceId};
use stems_storage::fxhash::FxHashSet;
use stems_storage::{CandidateBuf, RowSet, Slot, Store, StoreKind};
use stems_types::{
    ColumnSource, HashedKey, PredSet, Row, TableIdx, TableSet, Timestamp, Tuple, Value, UNBUILT_TS,
};

/// The probe path's envelope buffers, held by the caller's
/// [`ProbeReplySet`]. Everything a probe materializes per envelope —
/// bounce decisions, key groups, flat candidate arenas, plans, the
/// coverage check's binding lists — lives here and keeps its capacity
/// across envelopes, so steady-state probing allocates nothing. A probe
/// clears each buffer before it writes it, so one that unwound midway
/// leaves nothing the next probe reads.
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Per tuple, batch order: its bounce decision.
    outcomes: Vec<ProbeOutcome>,
    /// Per tuple: `(column slot, key slot)` of its binding, if any.
    plans: Vec<Option<(usize, usize)>>,
    /// Distinct probe columns of the current envelope.
    cols: Vec<usize>,
    /// Hashed key list per column slot (capacity pooled across envelopes).
    keys: Vec<Vec<HashedKey>>,
    /// Flat candidate arena per column slot.
    bufs: Vec<CandidateBuf>,
    /// The coverage check's binding lists.
    cover: CoverScratch,
}

/// Configuration of one SteM.
#[derive(Debug, Clone, PartialEq)]
pub struct StemOptions {
    /// When the dictionary indexes its join columns.
    pub store: StoreKind,
    /// FIFO eviction window (None = unbounded, the paper's default for
    /// snapshot queries).
    pub eviction_window: Option<usize>,
    /// Withhold build bounce-backs until the table's scan completes, then
    /// release them clustered by hash partition (§3.1 Grace simulation).
    pub deferred_bounce: bool,
    /// Partition fan-out used to cluster deferred bounce-backs, and how
    /// many of those partitions bounce immediately ("memory-resident",
    /// yielding Hybrid-Hash, §3.1).
    pub partitions: usize,
    pub mem_partitions: usize,
    /// Ignored; removed when `benchmark/` stops naming it.
    pub num_shards: usize,
    /// Ignored; removed when `benchmark/` stops naming it.
    pub workers: Option<usize>,
    /// Ignored; removed when `benchmark/` stops naming it.
    pub parallel_min_rows: Option<usize>,
}

impl Default for StemOptions {
    fn default() -> Self {
        StemOptions {
            store: StoreKind::Hash,
            eviction_window: None,
            deferred_bounce: false,
            partitions: 8,
            mem_partitions: 0,
            num_shards: 1,
            workers: None,
            parallel_min_rows: None,
        }
    }
}

/// Result of building a tuple into a SteM.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildResult {
    /// Inserted; the returned tuple carries its new build timestamp and
    /// must be bounced back to the eddy ("so that \[it\] can probe the other
    /// SteMs", Table 2).
    Fresh(Tuple),
    /// Inserted, but the bounce-back is withheld for clustered release
    /// (Grace mode). The engine gets it later from
    /// `Stem::release_deferred`.
    Deferred,
    /// Absorbed as a set-semantics duplicate (§3.2) — removed from the
    /// dataflow.
    Duplicate,
    /// An EOT tuple; recorded in the EOT index and absorbed.
    Eot,
}

/// Whether a probed tuple is bounced back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// All matches were returned; the probe tuple leaves the SteM's
    /// responsibility ("never bounce back probe tuples" in the
    /// fully-covered case).
    Consumed,
    /// Bounced back per SteM BounceBack; the tuple becomes a prior prober
    /// for this table (Definition 3).
    Bounced(CompletionNeed),
}

/// Header of one probe reply stored flat in a [`ProbeReplySet`] arena:
/// everything a probe produces except the result tuples, which live
/// contiguously in the arena (`len` of them per reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMeta {
    pub outcome: ProbeOutcome,
    /// The SteM's max build timestamp at probe time — recorded into the
    /// prober's LastMatchTimeStamp when bounced (§3.5).
    pub observed_ts: Timestamp,
    /// Matches found before timestamp filtering — policy feedback.
    pub raw_matches: usize,
    /// Result tuples this reply wrote into the arena.
    pub(crate) len: usize,
}

/// Envelope-lifetime probe-reply arena: all replies of one probe envelope,
/// stored as one flat `(tuple, donebits)` vector plus one [`ReplyMeta`]
/// header per probe tuple, in batch order, and the probe's envelope
/// buffers. Callers own the set and reuse it across envelopes, so the
/// steady-state reply path performs **zero per-tuple heap allocations**
/// (`tests/alloc_probe.rs` pins this with a counting allocator).
#[derive(Debug, Default)]
pub struct ProbeReplySet {
    /// Flat result arena: each reply's results are contiguous.
    results: Vec<(Tuple, PredSet)>,
    /// One header per probe tuple, batch order.
    metas: Vec<ReplyMeta>,
    /// The probe's envelope buffers.
    scratch: ProbeScratch,
}

impl ProbeReplySet {
    pub fn new() -> ProbeReplySet {
        ProbeReplySet::default()
    }

    /// Drop contents, keep capacity (arena reuse across envelopes).
    pub fn clear(&mut self) {
        self.results.clear();
        self.metas.clear();
    }

    /// Walk the replies in batch order as `(header, results)` views.
    pub fn iter(&self) -> impl Iterator<Item = (&ReplyMeta, &[(Tuple, PredSet)])> {
        let mut off = 0usize;
        self.metas.iter().map(move |m| {
            let slice = &self.results[off..off + m.len];
            off += m.len;
            (m, slice)
        })
    }

    /// Split-borrow accessor for owning consumption: the headers plus a
    /// draining iterator over the flat results (the engine walks the
    /// headers and takes `meta.len` results for each; dropping the drain
    /// keeps the arena's capacity).
    pub fn metas_and_results(&mut self) -> (&[ReplyMeta], std::vec::Drain<'_, (Tuple, PredSet)>) {
        (&self.metas, self.results.drain(..))
    }
}

/// The dictionary is rebuilt dense ([`Stem::compact`]) once its dead slots
/// outnumber its live ones — and this floor, so a SteM holding a handful
/// of rows is not rebuilt on every eviction.
const COMPACT_MIN_DEAD: usize = 32;

/// A State Module over one table instance (see the module docs).
///
/// Self-joins note: the paper shares one SteM per *source* across FROM
/// instances; we share row storage via `Arc<Row>` but keep per-instance
/// dictionaries, which preserves the memory-sharing benefit while keeping
/// the timestamp bookkeeping per instance.
pub struct Stem {
    /// The instance its builds are tagged with. A probe tags its results
    /// with the instance of the probe table it is given instead.
    pub(crate) instance: TableIdx,
    pub(crate) has_scan_am: bool,
    pub(crate) has_index_am: bool,
    /// The dictionary, whose slab gives every stored row its slot.
    store: Store,
    /// Stored rows by value → their slot (§3.2 duplicate absorption); an
    /// unfiltered set once [`Stem::trust_distinct`].
    dedup: RowSet,
    /// Build timestamp by slot. A row the ingest walk stored but the stamp
    /// walk has not reached yet reads [`UNBUILT_TS`], which no probe's
    /// TimeStamp rule lets through: an unstamped row is invisible.
    ts: Vec<Timestamp>,
    /// First join column — the column deferred bounce-backs are clustered
    /// by.
    key_col: usize,
    eot: EotIndex,
    /// Max build timestamp among stored tuples.
    max_ts: Timestamp,
    /// Builds accepted (fresh, non-EOT).
    build_count: u64,
    evictions: u64,
    /// FIFO eviction window.
    window: Option<usize>,
    /// Slots of a windowed SteM's stored rows, oldest first — which is
    /// slot order, since both are insertion order.
    fifo: VecDeque<Slot>,
    /// Grace mode (§3.1): withhold build bounce-backs of non-resident
    /// partitions until [`Stem::release_deferred`].
    deferred_bounce: bool,
    partitions: usize,
    mem_partitions: usize,
    /// Withheld bounce-backs, in build order.
    deferred: Vec<(Tuple, TupleState)>,
    /// Rows a scan will deliver, reserved for at the first build
    /// ([`Self::expect_scan_rows`]); 0 once reserved, or when unknown.
    expected_rows: usize,
    /// Per indexed column, the distinct keys that scan will deliver,
    /// reserved for with `expected_rows`; empty once reserved.
    expected_keys: Vec<(usize, usize)>,
    /// Per data row of the build envelope: the slot a fresh row took,
    /// `None` for an absorbed duplicate.
    fresh: Vec<Option<Slot>>,
    /// The ingest walk's staging buffer for the rows it inserts.
    pending: Vec<Arc<Row>>,
}

// The query server lends its shared SteMs to executors stepping on
// several threads at once.
const _: () = {
    const fn probes_are_reads<T: Sync>() {}
    probes_are_reads::<Stem>()
};

impl std::fmt::Debug for Stem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stem")
            .field("instance", &self.instance)
            .field("len", &self.len())
            .field("backend", &self.backend())
            .field("max_ts", &self.max_ts)
            .finish()
    }
}

impl Stem {
    /// Create the SteM for `instance`, indexing `join_cols`. `_source` is
    /// unused: the signature stays while `benchmark/` calls it.
    pub fn new(
        instance: TableIdx,
        _source: SourceId,
        join_cols: &[usize],
        has_scan_am: bool,
        has_index_am: bool,
        opts: StemOptions,
    ) -> Stem {
        Stem {
            instance,
            has_scan_am,
            has_index_am,
            store: opts.store.build(join_cols),
            dedup: RowSet::new(),
            ts: Vec::new(),
            key_col: join_cols.first().copied().unwrap_or(0),
            eot: EotIndex::default(),
            max_ts: 0,
            build_count: 0,
            evictions: 0,
            window: opts.eviction_window,
            fifo: VecDeque::new(),
            deferred_bounce: opts.deferred_bounce,
            partitions: opts.partitions,
            mem_partitions: opts.mem_partitions,
            deferred: Vec::new(),
            expected_rows: 0,
            expected_keys: Vec::new(),
            fresh: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A scan will deliver `rows` rows holding `keys(col)` distinct
    /// equality keys in each join column `col` — the catalog's counts
    /// ([`stems_catalog::Catalog::distinct_keys`]). At the first build the
    /// SteM reserves its slab, timestamp column and dedup filter for the
    /// rows and each join index for its column's keys, all capped at the
    /// eviction window, so a build allocates each buffer once instead of
    /// regrowing it; a SteM nothing is built into, such as a private SteM
    /// the query server folds away, reserves nothing. Called by the plan
    /// and the query server for a scan-fed SteM; one fed by index lookups
    /// alone, which deliver an unknown subset, grows as it goes. The
    /// counts are capacity hints: no routing decision, result, virtual
    /// time or byte count reads them.
    pub fn expect_scan_rows(&mut self, rows: usize, keys: impl Fn(usize) -> usize) {
        let cap = |n: usize| self.window.map_or(n, |w| n.min(w));
        self.expected_rows = cap(rows);
        let indexed = self.store.indexed_cols();
        self.expected_keys = indexed.map(|col| (col, cap(keys(col)))).collect();
    }

    /// The reservation [`Self::expect_scan_rows`] left for the first
    /// build: rows, and `(column, keys)` per indexed column.
    #[cfg(test)]
    pub(crate) fn reservation(&self) -> (usize, &[(usize, usize)]) {
        (self.expected_rows, &self.expected_keys)
    }

    /// No row can arrive twice — one scan over rows the catalog checked
    /// pairwise distinct — so the SteM does not run the §3.2 duplicate
    /// filter: it keeps only the filter's member count and bytes, and
    /// [`Self::approx_bytes`] reads as if it filtered. Called by the plan
    /// and the query server before the first build; a SteM made by
    /// [`Self::new`] alone always filters.
    pub(crate) fn trust_distinct(&mut self) {
        debug_assert_eq!(self.store.slab().slots(), 0, "trust_distinct after a build");
        self.dedup = RowSet::unfiltered();
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Stored (non-EOT) tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether nothing is stored (Clippy pairs it with the public `len`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row count, as a one-entry list (kept because `benchmark/` reads
    /// it).
    pub fn shard_lens(&self) -> Vec<usize> {
        vec![self.len()]
    }

    /// Has the full relation arrived (scan EOT)?
    pub(crate) fn scan_complete(&self) -> bool {
        self.eot.scan_complete()
    }

    /// The SteM's change counter: any build, EOT or scan completion bumps
    /// it. A prior prober is offered a re-probe only once the version has
    /// moved past the one it last probed (BoundedRepetition, §3.5).
    pub(crate) fn version(&self) -> u64 {
        self.build_count + self.eot.version()
    }

    /// Fresh (non-EOT) builds accepted.
    pub(crate) fn build_count(&self) -> u64 {
        self.build_count
    }

    /// FIFO evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Approximate memory footprint: the dictionary and the dedup filter.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.store.approx_bytes() + self.dedup.approx_bytes()
    }

    /// Whether the dictionary is indexed (`"hash"`) or not yet (`"list"`).
    pub(crate) fn backend(&self) -> &'static str {
        self.store.backend()
    }

    /// How many bounce-backs are currently withheld.
    pub(crate) fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    // ------------------------------------------------------------------
    // Build
    // ------------------------------------------------------------------

    /// Build a whole envelope of singleton (or EOT) tuples, consuming
    /// timestamps from `ts_counter` as fresh inserts happen; one
    /// [`BuildResult`] per tuple, batch order. See the module docs for
    /// the two walks.
    ///
    /// The borrowed form of `Self::build_batch_into`: it clones the
    /// envelope once, so there is one build path.
    pub fn build_batch(
        &mut self,
        batch: &[Tuple],
        states: &[TupleState],
        ts_counter: &mut Timestamp,
    ) -> Vec<BuildResult> {
        let mut out = Vec::with_capacity(batch.len());
        self.build_batch_into(&mut batch.to_vec(), states, ts_counter, &mut out);
        out
    }

    /// [`Self::build_batch`] appending to a caller-owned result buffer —
    /// the eddy keeps one across envelopes — and *moving* the envelope's
    /// fresh singletons instead of copying them: each is stamped in place
    /// and moved into its [`BuildResult::Fresh`] (or the deferred queue),
    /// leaving [`Tuple::empty`] at its position in `tuples`. Duplicates and
    /// EOTs stay where they were.
    pub(crate) fn build_batch_into(
        &mut self,
        tuples: &mut [Tuple],
        states: &[TupleState],
        ts_counter: &mut Timestamp,
        out: &mut Vec<BuildResult>,
    ) {
        debug_assert_eq!(tuples.len(), states.len());
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
            let rows = std::mem::take(&mut self.expected_rows);
            let keys = std::mem::take(&mut self.expected_keys);
            let keys_of = |col| keys.iter().find(|(c, _)| *c == col).map_or(0, |(_, n)| *n);
            self.store.reserve(rows, keys_of);
            self.ts.reserve(rows);
            self.dedup.reserve(rows);
        }
        // Walk 1: ingest. EOTs touch no dictionary state, so their
        // position within the batch is irrelevant. A filtering SteM hashes
        // each data row once; a duplicate of a row earlier in this same
        // envelope is caught against the staged rows, before the store
        // holds its original.
        let slab = self.store.slab();
        let base = slab.slots();
        self.fresh.clear();
        self.pending.clear();
        for tuple in tuples.iter() {
            debug_assert!(tuple.is_singleton(), "SteMs store singleton tuples only");
            let comp = &tuple.components()[0];
            debug_assert_eq!(comp.table, self.instance, "build routed to wrong SteM");
            if comp.row.is_eot() {
                self.eot.record(&comp.row);
                continue;
            }
            let pending = &self.pending;
            let slot = (base + pending.len()) as Slot;
            let held = |s: Slot| -> &Row {
                match (s as usize).checked_sub(base) {
                    Some(p) => &pending[p],
                    None => slab.row(s).expect("dedup members are live"),
                }
            };
            let inserted = self.dedup.insert(&comp.row, slot, held);
            if inserted {
                self.pending.push(comp.row.clone());
            }
            self.fresh.push(inserted.then_some(slot));
        }
        self.ts.resize(base + self.pending.len(), UNBUILT_TS);
        self.store.insert_batch(self.pending.drain(..));
        debug_assert_eq!(self.store.slab().slots(), self.ts.len());

        // Walk 2: global timestamps in batch order.
        let mut verdicts = 0;
        for (tuple, state) in tuples.iter_mut().zip(states) {
            if tuple.components()[0].row.is_eot() {
                out.push(BuildResult::Eot);
                continue;
            }
            let verdict = self.fresh[verdicts];
            verdicts += 1;
            out.push(match verdict {
                Some(slot) => {
                    *ts_counter += 1;
                    self.stamp(slot, tuple, state, *ts_counter)
                }
                None => BuildResult::Duplicate,
            });
        }
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
        self.ts[slot as usize] = ts;
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
    /// whatever the stream has delivered so far. The row leaves the store
    /// and the dedup filter together (an evicted row may re-enter fresh);
    /// its timestamp dies with its slot.
    fn enforce_window(&mut self) {
        while self.window.is_some_and(|w| self.fifo.len() > w) {
            let slot = self.fifo.pop_front().expect("non-empty fifo");
            self.evictions += 1;
            let row = self.store.remove(slot).expect("evicted slots are live");
            self.dedup.forget(&row, slot);
            let slab = self.store.slab();
            if slab.slots() - slab.live() > slab.live().max(COMPACT_MIN_DEAD) {
                self.compact();
            }
        }
    }

    /// Reclaim the dead slots, so that a windowed SteM's slab and
    /// slot-indexed columns stay proportional to the window rather than
    /// to every row the stream ever delivered: the store rebuilds itself
    /// dense in insertion order, and the timestamp column, the dedup
    /// filter and the window follow the renumbering.
    fn compact(&mut self) {
        for (new, old) in self.store.slab().live_slots().enumerate() {
            self.ts[new] = self.ts[old as usize];
        }
        self.store.compact();
        let slab = self.store.slab();
        self.ts.truncate(slab.slots());
        self.dedup.clear();
        let held = |s: Slot| -> &Row { slab.row(s).expect("a rebuilt slab is dense") };
        for slot in slab.live_slots() {
            let row = held(slot);
            let fresh = self.dedup.insert(row, slot, held);
            debug_assert!(fresh, "stored rows are distinct");
        }
        // The window holds every stored row, oldest first — slot order,
        // which the rebuild has renumbered 0.. .
        for (dense, slot) in (0..).zip(self.fifo.iter_mut()) {
            *slot = dense;
        }
        debug_assert_eq!(self.fifo.len(), self.store.len());
    }

    // ------------------------------------------------------------------
    // Deferred release (Grace mode)
    // ------------------------------------------------------------------

    /// Bounce partition of a row: rows of partitions below
    /// `mem_partitions` are "memory-resident" and bounce immediately
    /// (Hybrid-Hash, §3.1); the rest are withheld.
    ///
    /// The partition is [`HashedKey::partition`] of the key, a function of
    /// its equality normal form, so rows that `sql_eq` — `Int(5)` and
    /// `Float(5.0)` share an index chain — are released in one cluster.
    pub(crate) fn partition_of(&self, row: &Row) -> usize {
        let key = row.get(self.key_col).cloned().unwrap_or(Value::Null);
        HashedKey::new(key).partition(self.partitions)
    }

    /// Release deferred bounce-backs, clustered by hash partition (the
    /// Grace "asynchronous" bounce, §3.1) and in build order within a
    /// partition. Called by the engine when the table's scan completes.
    pub(crate) fn release_deferred(&mut self) -> Vec<(Tuple, TupleState)> {
        let mut out = std::mem::take(&mut self.deferred);
        out.sort_by_cached_key(|(t, _)| self.partition_of(&t.components()[0].row));
        out
    }

    // ------------------------------------------------------------------
    // Probe
    // ------------------------------------------------------------------

    /// Probe a whole envelope (tuples spanning tables other than this
    /// instance) into the caller-owned reply arena, appending one reply
    /// per tuple in batch order: the concatenated matches passing every
    /// newly evaluable predicate and both timestamp rules, plus the
    /// bounce decision per SteM BounceBack. See the module docs for the
    /// three passes; the envelope buffers are the reply set's and keep
    /// their capacity, so a steady probe stream allocates no envelope
    /// buffers.
    ///
    /// This form derives the query's `TableLinks` for the call; a caller
    /// holding the plan's (`crate::plan::PlanLayout::links`) probes
    /// through `Self::probe_linked_into`.
    pub fn probe_batch_into(
        &self,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        let links = TableLinks::of(query, self.instance);
        self.probe_linked_into(&links, batch, states, query, out);
    }

    /// [`Self::probe_batch_into`] with the plan-time probe table of the
    /// instance probed — the eddy's form: nothing about the query is
    /// re-derived per envelope. Results are tagged with `links.table()`,
    /// not with [`Self::instance`]: a SteM the query server shares answers
    /// queries that number the instance differently.
    ///
    /// Candidates are *slots*: both timestamp rules are decided on the
    /// slot's entry in the timestamp column, and the row is resolved only
    /// for a candidate that passed them. The newly-evaluable predicate set
    /// is a bitset re-derived only when `(result span, donebits)` changes
    /// from one probe to the next, and it is tested on the pair (probe
    /// tuple, candidate row) read as one tuple, before anything is built:
    /// a candidate a predicate rejects costs no allocation. The only
    /// per-tuple allocations are the surviving result tuples themselves
    /// (one component vec each, via [`Tuple::concat_row`]).
    pub(crate) fn probe_linked_into(
        &self,
        links: &TableLinks,
        batch: &[Tuple],
        states: &[TupleState],
        query: &QuerySpec,
        out: &mut ProbeReplySet,
    ) {
        debug_assert_eq!(batch.len(), states.len());
        let t = links.table();
        let ProbeReplySet {
            results,
            metas,
            scratch,
        } = out;
        let ProbeScratch {
            outcomes,
            plans,
            cols,
            keys,
            bufs,
            cover,
        } = scratch;
        outcomes.clear();
        plans.clear();
        cols.clear();

        // Pass 1: resolve — bounce decision and binding once per tuple,
        // each bound key hashed straight onto its column's key list.
        for tuple in batch {
            outcomes.push(bounce_decision(
                &self.eot,
                self.has_scan_am,
                self.has_index_am,
                links,
                tuple,
                cover,
            ));
            plans.push(links.equi_binding(tuple).map(|(col, val)| {
                let ci = match cols.iter().position(|c| *c == col) {
                    Some(ci) => ci,
                    None => {
                        cols.push(col);
                        let ci = cols.len() - 1;
                        if keys.len() <= ci {
                            keys.push(Vec::new());
                            bufs.push(CandidateBuf::new());
                        }
                        keys[ci].clear();
                        ci
                    }
                };
                keys[ci].push(HashedKey::new(val.clone()));
                (ci, keys[ci].len() - 1)
            }));
        }

        // Pass 2: one flat descent per column, every key resolved before
        // any result is formed: the store reads the precomputed hashes,
        // never re-hashing. Then, for an envelope of more than one probe,
        // every candidate's build timestamp in one sweep whose loads
        // overlap, for pass 3's timestamp rules.
        for (ci, col) in cols.iter().enumerate() {
            self.store.lookup_eq_flat(*col, &keys[ci], &mut bufs[ci]);
        }
        let slab = self.store.slab();
        if batch.len() > 1 {
            let candidates = plans.iter().flatten();
            let stamps = candidates.flat_map(|(ci, ki)| bufs[*ci].candidates(*ki));
            black_box(stamps.map(|slot| self.ts[*slot as usize]).max());
        }

        // `newly_evaluable` is a pure function of (result span, donebits):
        // as bitsets, the predicates to test and the donebits every
        // surviving result carries are two words, remembered from one
        // probe to the next (envelopes are usually span- and done-uniform,
        // so this is derived once per envelope) and held nowhere else — a
        // SteM shared by several queries must not carry one query's
        // predicate ids into another's probe.
        let mut memo: Option<(TableSet, PredSet, PredSet, PredSet)> = None;

        // Pass 3: per-tuple result formation.
        for (m, (plan, outcome)) in plans.iter().zip(outcomes.iter()).enumerate() {
            let (tuple, state) = (&batch[m], &states[m]);
            debug_assert!(!tuple.span().contains(t), "probe tuple already spans {t}");
            let result_span = tuple.span().with(t);
            let (newly, done_union) = match memo {
                Some((s, d, newly, union)) if s == result_span && d == state.done => (newly, union),
                _ => {
                    let mut newly = PredSet::EMPTY;
                    for p in &query.predicates {
                        if p.evaluable_on(result_span) && !state.done.contains(p.id) {
                            newly.insert(p.id);
                        }
                    }
                    let union = state.done.union(newly);
                    memo = Some((result_span, state.done, newly, union));
                    (newly, union)
                }
            };

            let probe_ts = tuple.timestamp();
            let start = results.len();
            let mut consider = |slot: Slot| {
                let ts_u = self.ts[slot as usize];
                // TimeStamp rule (§3.1): only the later-built side generates
                // the result. LastMatchTimeStamp rule (§3.5): repeated probes
                // skip matches already returned.
                if ts_u >= probe_ts || ts_u <= state.last_match_ts {
                    return;
                }
                let row = slab.row(slot).expect("candidate slots are live");
                let pair = ProbePair {
                    tuple,
                    table: t,
                    row,
                };
                let passes = |p| query.predicate(p).eval(&pair).unwrap_or(false);
                if newly.iter().all(passes) {
                    // A SteM stores no EOT row, so a concatenation holds
                    // one only if its prober does — and the eddy routes an
                    // EOT to builds alone: it tests only singletons.
                    debug_assert!(!row.is_eot(), "a SteM stores no EOT row");
                    results.push((tuple.concat_row(t, row.clone(), ts_u), done_union));
                }
            };
            let raw_matches = match plan {
                Some((ci, ki)) => {
                    let candidates = bufs[*ci].candidates(*ki);
                    candidates.iter().copied().for_each(&mut consider);
                    candidates.len()
                }
                None => {
                    slab.live_slots().for_each(&mut consider);
                    slab.live()
                }
            };
            metas.push(ReplyMeta {
                outcome: *outcome,
                observed_ts: self.max_ts,
                raw_matches,
                len: results.len() - start,
            });
        }
    }
}

/// A probe tuple and one candidate row of `table`, read as their
/// concatenation would be: what the newly-evaluable predicates test before
/// the probe pays for a composite.
struct ProbePair<'a> {
    tuple: &'a Tuple,
    table: TableIdx,
    row: &'a Row,
}

impl ColumnSource for ProbePair<'_> {
    fn value(&self, table: TableIdx, col: usize) -> Option<&Value> {
        if table == self.table {
            self.row.get(col)
        } else {
            self.tuple.value(table, col)
        }
    }
}

/// SteM BounceBack (paper Table 2, plus the §4.1 refinement for tables
/// with index AMs) for one probe tuple: a function of the SteM's EOT index
/// and of the access methods of its table.
fn bounce_decision(
    eot: &EotIndex,
    has_scan_am: bool,
    has_index_am: bool,
    links: &TableLinks,
    tuple: &Tuple,
    cover: &mut CoverScratch,
) -> ProbeOutcome {
    if eot.covers(links, tuple, cover) {
        return ProbeOutcome::Consumed;
    }
    let all_built = tuple.components().iter().all(|c| c.ts != UNBUILT_TS);
    if !all_built {
        // §3.5: the prober is not cached anywhere, so it must keep
        // re-probing this SteM until coverage (LastMatchTimeStamp
        // prevents duplicate concatenations).
        return ProbeOutcome::Bounced(CompletionNeed::Required);
    }
    match (has_scan_am, has_index_am) {
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

/// The SteM's EOT index (§2.1.3): which probes the stored rows answer
/// *completely*.
#[derive(Debug, Default)]
pub(crate) struct EotIndex {
    /// Scan EOT seen: the full relation is present.
    full: bool,
    /// Index-probe EOTs: sorted `(col, value)` binding sets known complete.
    keys: FxHashSet<Vec<(usize, Value)>>,
}

impl EotIndex {
    /// Build an EOT row into the index.
    pub(crate) fn record(&mut self, row: &Row) {
        match eot_bindings(row) {
            Some(bindings) => {
                self.keys.insert(bindings);
            }
            None => self.full = true,
        }
    }

    /// Has the full relation arrived (scan EOT)?
    pub(crate) fn scan_complete(&self) -> bool {
        self.full
    }

    /// EOT change counter (keyed EOTs + scan completion).
    pub(crate) fn version(&self) -> u64 {
        self.keys.len() as u64 + self.full as u64
    }

    /// Does the EOT index guarantee all matches for this probe — by
    /// `tuple`, of the table `links` leads to — are present? `scratch`
    /// holds the binding lists the answer is worked out on (capacity
    /// reused from probe to probe).
    pub(crate) fn covers(
        &self,
        links: &TableLinks,
        tuple: &Tuple,
        scratch: &mut CoverScratch,
    ) -> bool {
        if self.full {
            return true;
        }
        if self.keys.is_empty() {
            return false;
        }
        let CoverScratch {
            bindings,
            merged,
            subset,
        } = scratch;
        links.probe_bindings_into(tuple, bindings);
        let options = links.in_options();
        if options.is_empty() {
            return self.covered_by(bindings, subset);
        }
        // Multi-member IN lists make the probe a family of sub-probes,
        // one per member combination (index AMs answer them with one EOT
        // per member key). The probe is complete only when EVERY
        // combination is covered.
        if self.covered_by(bindings, subset) {
            return true;
        }
        // Fast path, exact for a single list and sufficient for several:
        // if ONE option list has every member covered together with the
        // fixed bindings, every combination is covered (each combination
        // contains some member of that list, so its witness EOT subset
        // applies). This is linear in Σ|list| — no member-combination
        // blowup for the common shapes, however long the list.
        let mut member_covered = |col: usize, v: &Value| {
            merged.clone_from(bindings);
            merged.push((col, v.clone()));
            merged.sort_by_key(|a| a.0);
            merged.dedup();
            self.covered_by(merged, subset)
        };
        if options
            .iter()
            .any(|(col, vals)| vals.iter().all(|v| member_covered(*col, v)))
        {
            return true;
        }
        if options.len() == 1 {
            // One list: the per-member check above was the exact
            // condition, so failing it means genuinely uncovered.
            return false;
        }
        // Several lists and no single list covers alone: EOTs may bind
        // members of multiple lists at once (a multi-bind-col AM), so
        // enumerate member combinations — exactly as many as the lookups
        // an index AM fans out for this probe. A product too large to even
        // count could never have been probed; report uncovered.
        let Some(total) = options
            .iter()
            .try_fold(1usize, |acc, (_, vals)| acc.checked_mul(vals.len()))
        else {
            return false;
        };
        for combo in 0..total {
            merged.clone_from(bindings);
            let mut rem = combo;
            for (col, vals) in options {
                merged.push((*col, vals[rem % vals.len()].clone()));
                rem /= vals.len();
            }
            merged.sort_by_key(|a| a.0);
            merged.dedup();
            if !self.covered_by(merged, subset) {
                return false;
            }
        }
        true
    }

    /// Is one binding set covered by the EOT index? An EOT for binding
    /// set B covers any probe whose bindings ⊇ B; bindings are tiny
    /// (1–3 columns), so enumerate non-empty subsets, each assembled in
    /// `subset`.
    fn covered_by(&self, bindings: &[(usize, Value)], subset: &mut Vec<(usize, Value)>) -> bool {
        if bindings.is_empty() {
            return false;
        }
        let n = bindings.len().min(16);
        for mask in 1u32..(1 << n) {
            subset.clear();
            subset.extend(
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| bindings[i].clone()),
            );
            subset.sort_by_key(|a| a.0);
            if self.keys.contains(subset.as_slice()) {
                return true;
            }
        }
        false
    }
}

/// The binding lists [`EotIndex::covers`] works on, kept in the probe's
/// envelope buffers so a coverage check allocates nothing once warm.
#[derive(Debug, Default)]
pub(crate) struct CoverScratch {
    /// The probe's fixed `(col, value)` bindings.
    bindings: Vec<(usize, Value)>,
    /// Fixed bindings plus one member per IN list.
    merged: Vec<(usize, Value)>,
    /// The subset of a binding set currently looked up.
    subset: Vec<(usize, Value)>,
}

/// Decode an EOT row into its binding set; `None` means a full-relation
/// (scan) EOT. Paper §2.1.3: "the EOT tuple is a regular tuple with a
/// special EOT value in all the non-bound fields".
pub(crate) fn eot_bindings(row: &Row) -> Option<Vec<(usize, Value)>> {
    let bound: Vec<(usize, Value)> = row
        .values()
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_eot())
        .map(|(i, v)| (i, v.clone()))
        .collect();
    if bound.is_empty() {
        None
    } else {
        Some(bound)
    }
}

/// Build the EOT row for an index probe answering `bindings` over a table
/// of the given arity.
pub(crate) fn make_eot_row(arity: usize, bindings: &[(usize, Value)]) -> Arc<Row> {
    let mut vals = vec![Value::Eot; arity];
    for (c, v) in bindings {
        vals[*c] = v.clone();
    }
    Row::shared(vals)
}

/// The full-relation EOT row a scan emits when exhausted.
pub(crate) fn make_scan_eot_row(arity: usize) -> Arc<Row> {
    Row::shared(vec![Value::Eot; arity])
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
        stem: &mut Stem,
        tuple: &Tuple,
        state: &TupleState,
        ts: Timestamp,
    ) -> BuildResult {
        let mut counter = ts.saturating_sub(1);
        let (tuple, state) = (std::slice::from_ref(tuple), std::slice::from_ref(state));
        stem.build_batch(tuple, state, &mut counter).remove(0)
    }

    /// Probe with one tuple.
    pub(crate) fn probe_one(
        stem: &Stem,
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
        assert_eq!(set.metas.len(), 1);
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

    impl Stem {
        /// Does this SteM run the §3.2 duplicate filter (see
        /// [`Stem::trust_distinct`])?
        pub(crate) fn filters_duplicates(&self) -> bool {
            self.dedup.filters()
        }
    }
}

/// The SteM's semantic rules (Table 2 bounce rules, both timestamp rules,
/// EOT coverage, window FIFO, Grace release), driven through
/// the one build path and the one probe path, as envelopes of one and as
/// whole envelopes.
#[cfg(test)]
mod tests {
    use super::testkit::{build_one, probe_one, r_tuple, s_tuple, setup, OneReply};
    use super::*;
    use stems_catalog::{Catalog, ScanSpec, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema};

    /// S's SteM (key column 0) with the given options and AM flags.
    fn s_stem_with(has_scan: bool, has_index: bool, opts: StemOptions) -> Stem {
        Stem::new(TableIdx(1), SourceId(1), &[0], has_scan, has_index, opts)
    }

    fn s_stem(has_scan: bool, has_index: bool) -> Stem {
        s_stem_with(has_scan, has_index, StemOptions::default())
    }

    fn build(stem: &mut Stem, t: &Tuple, ts: Timestamp) -> BuildResult {
        build_one(stem, t, &TupleState::new(), ts)
    }

    fn build_fresh(stem: &mut Stem, t: &Tuple, ts: Timestamp) -> Tuple {
        match build(stem, t, ts) {
            BuildResult::Fresh(stamped) => stamped,
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    fn build_eot_row(stem: &mut Stem, row: Arc<Row>) {
        let eot = Tuple::singleton(TableIdx(1), row);
        assert_eq!(build(stem, &eot, 99), BuildResult::Eot);
    }

    /// The SteM's slot-addressed side structures must agree with the
    /// slab: every live slot is reachable from exactly one dedup chain —
    /// the one its own row is looked up through — and is stamped, no
    /// chain holds a dead slot, the timestamp column covers exactly the
    /// slab, and a window holds exactly the live slots, oldest first.
    /// Eviction and compaction must move all four together.
    fn assert_side_maps_consistent(stem: &Stem) {
        let slab = stem.store.slab();
        assert_eq!(stem.ts.len(), slab.slots(), "ts column vs slab length");
        let live: Vec<Slot> = slab.live_slots().collect();
        if stem.window.is_some() {
            assert!(stem.fifo.iter().eq(&live), "window vs live slots");
        }
        let mut chained: Vec<Slot> = stem.dedup.slots().collect();
        chained.sort_unstable();
        assert_eq!(chained, live, "dedup chains vs live slots");
        assert_eq!(stem.dedup.len(), live.len(), "dedup count vs store len");
        let held = |s: Slot| -> &Row { slab.row(s).expect("chained slots are live") };
        for slot in live {
            let row = held(slot);
            assert_eq!(
                stem.dedup.find(row, held),
                Some(slot),
                "stored row not found through its own chain: {row:?}"
            );
            assert_ne!(stem.ts[slot as usize], UNBUILT_TS, "unstamped: {row:?}");
        }
    }

    #[test]
    fn build_assigns_timestamp_and_bounces() {
        let mut stem = s_stem(true, false);
        let stamped = build_fresh(&mut stem, &s_tuple(10, 1), 5);
        assert_eq!(stamped.timestamp(), 5);
        assert_eq!(stem.len(), 1);
        assert_eq!(stem.max_ts, 5);
        assert_eq!(stem.build_count(), 1);
        assert_eq!(stem.version(), 1);
    }

    #[test]
    fn duplicate_builds_absorbed() {
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        // Same row value from a competing AM: absorbed (§3.2).
        assert_eq!(build(&mut stem, &s_tuple(10, 1), 2), BuildResult::Duplicate);
        assert_eq!(stem.len(), 1);
        // max_ts unchanged — the duplicate consumed no timestamp.
        assert_eq!(stem.max_ts, 1);
    }

    #[test]
    fn probe_finds_matches_and_concatenates() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        build_fresh(&mut stem, &s_tuple(20, 2), 2);
        // r (built later, ts 3) probes: matches only x=10.
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), 1);
        let (result, done) = &reply.results[0];
        assert_eq!(result.span().len(), 2);
        assert!(done.contains(PredId(0)));
        assert_eq!(result.value(TableIdx(1), 1), Some(&Value::Int(1)));
    }

    #[test]
    fn timestamp_rule_suppresses_earlier_side() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        // s built at ts 7, probe r built at ts 3: 7 ≥ 3 ⇒ suppressed;
        // the s tuple's own probe path is responsible for this result.
        build_fresh(&mut stem, &s_tuple(10, 1), 7);
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q);
        assert!(reply.results.is_empty());
        assert_eq!(reply.raw_matches, 1);
    }

    #[test]
    fn unbuilt_probe_sees_everything() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 7);
        // Unbuilt probe has ts = ∞ (paper: "before building, ts is ∞").
        let r = r_tuple(100, 10);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q);
        assert_eq!(reply.results.len(), 1);
    }

    #[test]
    fn last_match_timestamp_dedups_reprobes() {
        let (_c, q) = setup();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        build_fresh(&mut stem, &s_tuple(10, 2), 2);
        // A row under another key raises the max timestamp the prober
        // records — not just its own key's.
        build_fresh(&mut stem, &s_tuple(11, 0), 3);
        let r = r_tuple(100, 10); // unbuilt, re-probing per §3.5
        let mut state = TupleState::new();
        let first = probe_one(&stem, &r, &state, &q);
        assert_eq!(first.results.len(), 2);
        assert_eq!(first.observed_ts, 3);
        // Record observed ts, as the engine does on bounce.
        state.last_match_ts = first.observed_ts;
        // New tuple arrives, then re-probe: only the new one returned.
        build_fresh(&mut stem, &s_tuple(10, 3), 9);
        let second = probe_one(&stem, &r, &state, &q);
        assert_eq!(second.results.len(), 1);
        assert_eq!(
            second.results[0].0.value(TableIdx(1), 1),
            Some(&Value::Int(3))
        );
    }

    #[test]
    fn bounce_rules_follow_table2() {
        let (_c, q) = setup();
        let r_built = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let r_unbuilt = r_tuple(1, 10);
        let state = TupleState::new();
        let outcome = |has_scan: bool, has_index: bool, r: &Tuple| {
            probe_one(&s_stem(has_scan, has_index), r, &state, &q).outcome
        };
        // scan-only, incomplete, prober built ⇒ consumed (scan covers it).
        assert_eq!(outcome(true, false, &r_built), ProbeOutcome::Consumed);
        // index AM present ⇒ optional bounce (§4.1 hybridization hook).
        assert_eq!(
            outcome(true, true, &r_built),
            ProbeOutcome::Bounced(CompletionNeed::Optional)
        );
        // no scan ⇒ required bounce (§3.3 index join flow).
        assert_eq!(
            outcome(false, true, &r_built),
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // unbuilt prober ⇒ required bounce regardless (§3.5 re-probe).
        assert_eq!(
            outcome(true, false, &r_unbuilt),
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
    }

    /// An EOT row knows it is one from the moment it is made: the flag
    /// `Row::new` sets agrees with a scan of the values, for the scan's
    /// full-relation EOT and an index probe's keyed one alike.
    #[test]
    fn eot_rows_carry_the_flag_a_scan_would_find() {
        let scanned = |row: &Row| row.values().iter().any(Value::is_eot);
        let rows = [
            make_scan_eot_row(3),
            make_eot_row(2, &[(0, Value::Int(10))]),
            make_eot_row(3, &[(0, Value::Int(1)), (2, Value::str("k"))]),
            // An EOT over every column is bound everywhere: no EOT value.
            make_eot_row(1, &[(0, Value::Int(7))]),
        ];
        for row in &rows {
            assert_eq!(row.is_eot(), scanned(row), "{row:?}");
        }
        assert!(rows[..3].iter().all(|r| r.is_eot()));
    }

    #[test]
    fn scan_eot_makes_everything_covered() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        build_eot_row(&mut stem, make_scan_eot_row(2));
        assert!(stem.scan_complete());
        assert_eq!(stem.eot.version(), 1);
        assert_eq!(stem.version(), 1);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe_one(&stem, &r, &TupleState::new(), &q).outcome,
            ProbeOutcome::Consumed
        );
        // EOT consumed no timestamp and is not a data row.
        assert_eq!(stem.len(), 0);
        assert_eq!(stem.max_ts, 0);
    }

    #[test]
    fn keyed_eot_covers_matching_probes_only() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        // Index answered bindings {x=10}: EOT row (10, EOT).
        build_eot_row(&mut stem, make_eot_row(2, &[(0, Value::Int(10))]));
        assert_eq!(stem.eot.version(), 1);
        let state = TupleState::new();
        let covered = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        assert_eq!(
            probe_one(&stem, &covered, &state, &q).outcome,
            ProbeOutcome::Consumed
        );
        let uncovered = r_tuple(2, 20).with_timestamp(TableIdx(0), 2);
        assert_eq!(
            probe_one(&stem, &uncovered, &state, &q).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // A scan EOT on top covers everything and moves the version again.
        build_eot_row(&mut stem, make_scan_eot_row(2));
        assert!(stem.scan_complete());
        assert_eq!(stem.eot.version(), 2);
        assert_eq!(
            probe_one(&stem, &uncovered, &state, &q).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn multi_member_in_coverage_requires_every_member() {
        // Query: R ⋈ S on R.a = S.x, plus `S.y IN (1, 2)`. An index AM
        // answers the probe one member key at a time; the SteM may
        // declare the probe complete only once EVERY member's EOT landed.
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            vec![Value::Int(1), Value::Int(2)],
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        assert_eq!(
            TableLinks::of(&q2, TableIdx(1)).in_options(),
            [(1, vec![Value::Int(1), Value::Int(2)])]
        );
        let mut stem = s_stem(false, true);
        let state = TupleState::new();
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);

        // Nothing answered yet.
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // Member 1 answered (the index AM binds the IN column and emits
        // one keyed EOT per member lookup): still incomplete — the
        // member-2 sub-probe has no coverage.
        build_eot_row(&mut stem, make_eot_row(2, &[(1, Value::Int(1))]));
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required)
        );
        // Member 2 answered too: every sub-probe is covered now.
        build_eot_row(&mut stem, make_eot_row(2, &[(1, Value::Int(2))]));
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn huge_in_list_coverage_is_linear_not_capped() {
        // A 1500-member IN list on the indexed column: coverage must
        // complete once every member's EOT landed — the per-member rule
        // is linear in the list, so no combination cap can strand the
        // probe (the old 2^10 cap livelocked index-only queries here).
        let (c, q) = setup();
        let members: Vec<Value> = (0..1500).map(Value::Int).collect();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 0),
            members.clone(),
        ));
        // Join through y instead, so col 0 stays IN-bound only.
        q2.predicates[0] = Predicate::join(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Eq,
            ColRef::new(TableIdx(1), 1),
        );
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        // S joins through y alone.
        let mut stem = Stem::new(
            TableIdx(1),
            SourceId(1),
            &q2.join_cols_of(TableIdx(1)),
            false,
            true,
            StemOptions::default(),
        );
        let state = TupleState::new();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
        for m in &members[..1499] {
            build_eot_row(&mut stem, make_eot_row(2, &[(0, m.clone())]));
        }
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required),
            "one member still unanswered"
        );
        build_eot_row(&mut stem, make_eot_row(2, &[(0, members[1499].clone())]));
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn cross_list_coverage_enumerates_member_combinations() {
        // Two IN lists on different columns, answered by a two-bind-col
        // AM whose EOTs pair one member of each list: no single list is
        // covered alone, so coverage must enumerate the combinations.
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates = vec![
            Predicate::in_list(
                PredId(0),
                ColRef::new(TableIdx(1), 0),
                vec![Value::Int(1), Value::Int(2)],
            ),
            Predicate::in_list(
                PredId(1),
                ColRef::new(TableIdx(1), 1),
                vec![Value::Int(5), Value::Int(6)],
            ),
        ];
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut stem = s_stem(false, true);
        let state = TupleState::new();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
        // Arity-3 EOT rows so a column stays EOT-marked.
        let pair = |x: i64, y: i64| make_eot_row(3, &[(0, Value::Int(x)), (1, Value::Int(y))]);
        for (x, y) in [(1, 5), (1, 6), (2, 5)] {
            build_eot_row(&mut stem, pair(x, y));
        }
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Bounced(CompletionNeed::Required),
            "one member pair still unanswered"
        );
        build_eot_row(&mut stem, pair(2, 6));
        assert_eq!(
            probe_one(&stem, &r, &state, &q2).outcome,
            ProbeOutcome::Consumed
        );
    }

    #[test]
    fn in_list_options_normalize_and_skip_degenerates() {
        let (c, q) = setup();
        let mut q2 = q.clone();
        // Single-member list: a degenerate equality, not an option set.
        q2.predicates.push(Predicate::in_list(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            vec![Value::Int(7)],
        ));
        // Multi-member list with coercing/duplicate/NULL members.
        q2.predicates.push(Predicate::in_list(
            PredId(2),
            ColRef::new(TableIdx(1), 0),
            vec![Value::Int(3), Value::Float(3.0), Value::Null, Value::Int(4)],
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        assert_eq!(
            TableLinks::of(&q2, TableIdx(1)).in_options(),
            [(0, vec![Value::Int(3), Value::Int(4)])]
        );
        assert!(TableLinks::of(&q2, TableIdx(0)).in_options().is_empty());
    }

    #[test]
    fn probe_results_skip_eot_rows() {
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        build_eot_row(&mut stem, make_eot_row(2, &[(0, Value::Int(10))]));
        build_fresh(&mut stem, &s_tuple(10, 5), 2);
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 9);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q);
        // Only the data row joins; the EOT "row" never appears in results.
        assert_eq!(reply.results.len(), 1);
        assert_eq!(
            reply.results[0].0.value(TableIdx(1), 1),
            Some(&Value::Int(5))
        );
    }

    fn windowed(window: usize) -> Stem {
        s_stem_with(
            true,
            false,
            StemOptions {
                eviction_window: Some(window),
                ..StemOptions::default()
            },
        )
    }

    #[test]
    fn eviction_window_fifo() {
        let mut stem = windowed(2);
        build_fresh(&mut stem, &s_tuple(1, 1), 1);
        build_fresh(&mut stem, &s_tuple(2, 2), 2);
        build_fresh(&mut stem, &s_tuple(3, 3), 3);
        assert_eq!(stem.len(), 2);
        assert_eq!(stem.evictions(), 1);
        // Evicted row may re-enter (dedup forgot it).
        build_fresh(&mut stem, &s_tuple(1, 1), 4);
    }

    /// The window evicts the oldest row first: what a cartesian probe
    /// still sees after each build is
    /// exactly the `window` youngest rows, and an evicted row was
    /// forgotten everywhere — it rebuilds fresh.
    #[test]
    fn window_evicts_globally_oldest_row_first() {
        let (c, q) = setup();
        let cartesian = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut stem = windowed(3);
        let r = r_tuple(1, 1);
        for i in 0..8u64 {
            build_fresh(&mut stem, &s_tuple(i as i64, 0), i + 1);
            let mut live: Vec<Timestamp> = probe_one(&stem, &r, &TupleState::new(), &cartesian)
                .results
                .iter()
                .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
                .collect();
            live.sort_unstable();
            let want: Vec<Timestamp> = (i.saturating_sub(2) + 1..=i + 1).collect();
            assert_eq!(live, want, "after build {i}");
            assert_side_maps_consistent(&stem);
        }
        assert_eq!(stem.evictions(), 5);
        build_fresh(&mut stem, &s_tuple(0, 0), 9);
    }

    #[test]
    fn windowed_build_batch_matches_scalar_eviction() {
        // window=2, batch [r1, r2, r3, r1]: inserting r2/r3 evicts r1 and
        // forgets it, so the second r1 must re-enter as Fresh — exactly
        // what envelopes of one do. A batch-deferred insert would wrongly
        // absorb it as a duplicate.
        let tuples = [s_tuple(1, 1), s_tuple(2, 2), s_tuple(3, 3), s_tuple(1, 1)];
        let states = vec![TupleState::new(); 4];
        let mut stem = windowed(2);
        let mut ts = 0;
        let results = stem.build_batch(&tuples, &states, &mut ts);
        for (i, r) in results.iter().enumerate() {
            assert!(
                matches!(r, BuildResult::Fresh(_)),
                "row {i}: evicted row must rebuild mid-batch, got {r:?}"
            );
        }
        assert_eq!(stem.len(), 2);
        assert_eq!(stem.evictions(), 2);
        assert_eq!(ts, 4);
        // Envelope-split invariance: one envelope of 4 ≡ 4 of one.
        let mut split = windowed(2);
        let singly: Vec<BuildResult> = tuples
            .iter()
            .enumerate()
            .map(|(i, t)| build(&mut split, t, i as Timestamp + 1))
            .collect();
        assert_eq!(results, singly);
        assert_eq!(stem.evictions(), split.evictions());
    }

    #[test]
    fn windowed_side_maps_stay_consistent_across_sweeps() {
        let mut stem = windowed(3);
        // Drive far past the window, with duplicates interleaved, so
        // many sweeps run; the maps must agree after every build.
        for i in 0..40i64 {
            let key = i % 10;
            build(&mut stem, &s_tuple(key, key), (i + 1) as u64);
            assert_side_maps_consistent(&stem);
            assert!(stem.len() <= 3, "window overrun at i={i}");
        }
        assert!(stem.evictions() > 0);
        // An evicted row must be forgotten everywhere: it rebuilds
        // Fresh, and the maps stay in step.
        build_fresh(&mut stem, &s_tuple(0, 0), 99);
        assert_side_maps_consistent(&stem);
    }

    #[test]
    fn windowed_side_maps_survive_intra_batch_duplicate_rearrival() {
        // window=2, batch [r1, r2, r3, r1, r1]: inserting r2/r3 evicts r1
        // and must forget it in the store and `dedup`; the first
        // re-arrival rebuilds Fresh (into a new slot, with a new stamp),
        // the second is a true duplicate again. After the sweep, slab,
        // dedup chains and timestamp column agree.
        let batch: Vec<Tuple> = [
            s_tuple(1, 1),
            s_tuple(2, 2),
            s_tuple(3, 3),
            s_tuple(1, 1),
            s_tuple(1, 1),
        ]
        .into_iter()
        .collect();
        let states = vec![TupleState::new(); 5];
        let mut stem = windowed(2);
        let mut ts = 0;
        let results = stem.build_batch(&batch, &states, &mut ts);
        assert!(matches!(results[3], BuildResult::Fresh(_)));
        assert_eq!(results[4], BuildResult::Duplicate);
        assert_side_maps_consistent(&stem);
        assert_eq!(stem.len(), 2);
        // The re-built r1 carries its *new* timestamp in the slot the
        // dedup filter now finds it in.
        let r1 = s_tuple(1, 1);
        let row = &r1.components()[0].row;
        let slab = stem.store.slab();
        let held = |s: Slot| -> &Row { slab.row(s).expect("chained slots are live") };
        let slot = stem.dedup.find(row, held).expect("r1 stored");
        let ts_r1 = stem.ts[slot as usize];
        assert_eq!(ts_r1, 4, "re-arrival must be re-stamped, not stale");
    }

    /// A windowed SteM over a long stream costs what its window costs:
    /// eviction is by slot, and a slab whose dead slots outnumber its
    /// live ones is rebuilt dense, so neither the slab nor the
    /// columns indexed by its slots grow with the rows the stream has
    /// delivered.
    #[test]
    fn windowed_stream_keeps_the_stem_proportional_to_the_window() {
        const WINDOW: usize = 64;
        const ENVELOPE: usize = 64;
        const BUILDS: usize = 50_000;
        let (c, q) = setup();
        let cartesian = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut stem = windowed(WINDOW);
        let mut ts = 0;
        let states = vec![TupleState::new(); ENVELOPE];
        for first in (0..BUILDS).step_by(ENVELOPE) {
            let batch: Vec<Tuple> = (first..BUILDS.min(first + ENVELOPE))
                .map(|i| s_tuple(i as i64, 0))
                .collect();
            stem.build_batch(&batch, &states[..batch.len()], &mut ts);
            let slots = stem.store.slab().slots();
            assert!(
                slots <= 4 * (WINDOW + ENVELOPE),
                "the slab grew to {slots} slots by build {first}"
            );
        }
        assert_eq!(stem.len(), WINDOW);
        assert_eq!(stem.evictions(), (BUILDS - WINDOW) as u64);
        assert_eq!(stem.build_count(), BUILDS as u64);
        assert_side_maps_consistent(&stem);
        // What is left is the window's youngest rows, each still
        // answering under the stamp it was built with.
        let reply = probe_one(&stem, &r_tuple(1, 1), &TupleState::new(), &cartesian);
        let mut live: Vec<Timestamp> = reply
            .results
            .iter()
            .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
            .collect();
        live.sort_unstable();
        let youngest = (BUILDS - WINDOW + 1..=BUILDS).map(|ts| ts as Timestamp);
        assert_eq!(live, youngest.collect::<Vec<_>>());
    }

    #[test]
    fn unbounded_stem_side_maps_consistent() {
        let mut stem = s_stem(true, false);
        for i in 0..10 {
            build(&mut stem, &s_tuple(i, i), (i + 1) as u64);
        }
        // Duplicates leave the maps untouched.
        build(&mut stem, &s_tuple(3, 3), 50);
        assert_side_maps_consistent(&stem);
        assert_eq!(stem.len(), 10);
    }

    #[test]
    fn deferred_bounce_clusters_by_partition() {
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 4,
            ..StemOptions::default()
        };
        let mut stem = s_stem_with(true, false, opts);
        for i in 0..20 {
            let r = build(&mut stem, &s_tuple(i, i), (i + 1) as u64);
            assert_eq!(r, BuildResult::Deferred);
        }
        assert_eq!(stem.deferred_len(), 20);
        let released = stem.release_deferred();
        assert_eq!(released.len(), 20);
        assert_eq!(stem.deferred_len(), 0);
        // Released order is clustered — partition ids are non-decreasing
        // — and in build order within a partition.
        let order: Vec<(usize, Timestamp)> = released
            .iter()
            .map(|(t, _)| (stem.partition_of(&t.components()[0].row), t.timestamp()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn hybrid_mem_partitions_bounce_immediately() {
        let opts = StemOptions {
            deferred_bounce: true,
            partitions: 2,
            mem_partitions: 1,
            ..StemOptions::default()
        };
        let mut stem = s_stem_with(true, false, opts);
        let mut fresh = 0;
        let mut deferred = 0;
        for i in 0..50 {
            match build(&mut stem, &s_tuple(i, i), (i + 1) as u64) {
                BuildResult::Fresh(_) => fresh += 1,
                BuildResult::Deferred => deferred += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Both behaviours must occur (hybrid-hash: memory-resident
        // partitions pipeline, the rest wait).
        assert!(fresh > 0, "no immediate bounces");
        assert!(deferred > 0, "no deferred bounces");
    }

    #[test]
    fn selection_predicates_checked_at_concat() {
        let (c, q) = setup();
        // Add a selection on S.y > 3.
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Gt,
            Value::Int(3),
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1); // fails y > 3
        build_fresh(&mut stem, &s_tuple(10, 9), 2); // passes
        let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q2);
        assert_eq!(reply.results.len(), 1);
        let (tup, done) = &reply.results[0];
        assert_eq!(tup.value(TableIdx(1), 1), Some(&Value::Int(9)));
        assert!(done.contains(PredId(0)) && done.contains(PredId(1)));
    }

    /// The pair a probe tests its newly-evaluable predicates on reads every
    /// column as the concatenated tuple does: comparisons, an `IN` list, a
    /// `SIEVE` UDF, NULL and EOT values on either side, a composite probe
    /// tuple, and a table neither side spans.
    #[test]
    fn a_probe_pair_reads_as_its_concatenation() {
        use stems_types::UdfSpec;
        let (r, s, t, u) = (TableIdx(0), TableIdx(1), TableIdx(2), TableIdx(3));
        let sieve = UdfSpec::hash_sieve(500, 1);
        let list = vec![Value::Int(3), Value::Null, Value::Float(9.0)];
        let preds = [
            Predicate::join(PredId(0), ColRef::new(r, 1), CmpOp::Lt, ColRef::new(s, 1)),
            Predicate::in_list(PredId(1), ColRef::new(s, 1), list),
            Predicate::udf(PredId(2), ColRef::new(s, 0), sieve),
            Predicate::udf(PredId(3), ColRef::new(r, 1), sieve),
            Predicate::selection(PredId(4), ColRef::new(s, 1), CmpOp::Ne, Value::Int(3)),
            Predicate::join(PredId(5), ColRef::new(t, 0), CmpOp::Ge, ColRef::new(s, 0)),
            Predicate::join(PredId(6), ColRef::new(r, 0), CmpOp::Eq, ColRef::new(u, 0)),
            Predicate::selection(PredId(7), ColRef::new(s, 5), CmpOp::Eq, Value::Int(1)),
        ];
        let values = [
            Value::Int(3),
            Value::Int(9),
            Value::Float(3.0),
            Value::Null,
            Value::Eot,
            Value::str("x"),
        ];
        let mut checked = 0;
        for a in &values {
            for b in &values {
                let probe = Tuple::singleton_of(r, vec![a.clone(), b.clone()])
                    .with_timestamp(r, 4)
                    .concat(&Tuple::singleton_of(t, vec![b.clone()]).with_timestamp(t, 5));
                for c in &values {
                    for d in &values {
                        let row = Row::shared(vec![c.clone(), d.clone()]);
                        let joined = probe.concat_row(s, row.clone(), 2);
                        let pair = ProbePair {
                            tuple: &probe,
                            table: s,
                            row: &row,
                        };
                        for p in &preds {
                            assert_eq!(p.eval(&pair), p.eval(&joined), "{p} on {joined}");
                            checked += usize::from(p.eval(&joined).is_some());
                        }
                    }
                }
            }
        }
        // Every predicate but the two over columns nobody has is evaluable.
        assert_eq!(checked, 6 * values.len().pow(4));
    }

    /// A query with no predicates: a probe returns the cross product — every
    /// stored row, in insertion order (ascending build timestamp).
    #[test]
    fn cartesian_probe_scans_store() {
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let mut stem = s_stem(true, false);
        build_workload(&mut stem);
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 1_000);
        let reply = probe_one(&stem, &r, &TupleState::new(), &q);
        assert!(stem.len() > 2);
        assert_eq!(reply.results.len(), stem.len());
        let ts = match_ts(&reply);
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    /// Envelope-split invariance of the one build path at every store kind,
    /// over duplicates, NULL keys and a keyed EOT: one envelope of N ≡ N
    /// envelopes of one — same results, same stamps, same counters, same
    /// side maps.
    #[test]
    fn build_is_invariant_under_envelope_split() {
        let batch = workload();
        for store in every_store_kind() {
            let opts = StemOptions {
                store: store.clone(),
                ..StemOptions::default()
            };
            let mut whole = stem_on(&[0], opts.clone());
            let built = build_in_envelopes(&mut whole, &batch, batch.len());
            let want = build_observables(&whole, built);
            let mut split = stem_on(&[0], opts);
            let built = build_in_envelopes(&mut split, &batch, 1);
            let got = build_observables(&split, built);
            assert_eq!(want, got, "{store:?}");
            let absorbed = got.results.iter().filter(|r| **r == BuildResult::Duplicate);
            assert_eq!(absorbed.count(), 2, "{store:?}");
            assert_side_maps_consistent(&whole);
            assert_side_maps_consistent(&split);
        }
    }

    #[test]
    fn probe_bindings_include_constant_selections() {
        let (c, q) = setup();
        let mut q2 = q.clone();
        q2.predicates.push(Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Eq,
            Value::Int(7),
        ));
        let q2 = QuerySpec::new(&c, q2.tables, q2.predicates, None).unwrap();
        let mut b = Vec::new();
        TableLinks::of(&q2, TableIdx(1)).probe_bindings_into(&r_tuple(1, 10), &mut b);
        assert_eq!(b, vec![(0, Value::Int(10)), (1, Value::Int(7))]);
    }

    /// The probe path reads linking predicates off the plan-time probe
    /// table and re-derives `newly_evaluable` only when `(result_span,
    /// done)` changes from one member to the next; an envelope of one
    /// derives it per tuple. On an
    /// envelope mixing probe spans {R}, {T} and {R,T} with varied
    /// done-sets — including pairs that share a span but differ in done
    /// bits — one envelope of N must equal N envelopes of one, reply for
    /// reply.
    #[test]
    fn span_predicate_cache_matches_per_tuple_recomputation() {
        // Three tables, two joins through S, plus a selection on S:
        // R.a = S.x, S.y = T.b, S.y < 25.
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
        let t = c
            .add_table(TableDef::new("T", Schema::of(&[("b", ColumnType::Int)])))
            .unwrap();
        for src in [r, s, t] {
            c.add_scan(src, ScanSpec::default()).unwrap();
        }
        let inst = |source: SourceId, alias: &str| TableInstance {
            source,
            alias: alias.into(),
        };
        let q = QuerySpec::new(
            &c,
            vec![inst(r, "r"), inst(s, "s"), inst(t, "t")],
            vec![
                Predicate::join(
                    PredId(0),
                    ColRef::new(TableIdx(0), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(1), 0),
                ),
                Predicate::join(
                    PredId(1),
                    ColRef::new(TableIdx(1), 1),
                    CmpOp::Eq,
                    ColRef::new(TableIdx(2), 0),
                ),
                Predicate::selection(
                    PredId(2),
                    ColRef::new(TableIdx(1), 1),
                    CmpOp::Lt,
                    Value::Int(25),
                ),
            ],
            None,
        )
        .unwrap();

        // Mixed envelope: span {R} (live + stale), span {T}, span {R,T},
        // with done-sets that differ *within* a shared span.
        let mut probes: Vec<Tuple> = Vec::new();
        let mut states: Vec<TupleState> = Vec::new();
        let mut push = |tuple: Tuple, done: &[u16]| {
            probes.push(tuple);
            let mut st = TupleState::new();
            for &p in done {
                st.done.insert(PredId(p));
            }
            states.push(st);
        };
        for i in 0..12i64 {
            let r_probe = r_tuple(i, i % 10).with_timestamp(TableIdx(0), 1_000 + i as u64);
            push(r_probe.clone(), &[]);
            push(r_probe, &[2]); // same span, different done bits
            let t_probe = Tuple::singleton_of(TableIdx(2), vec![Value::Int(i % 30)])
                .with_timestamp(TableIdx(2), 2_000 + i as u64);
            push(t_probe.clone(), &[]);
            push(
                r_tuple(i, i % 10)
                    .with_timestamp(TableIdx(0), 3_000 + i as u64)
                    .concat(&t_probe),
                &[2],
            );
        }

        // The same query with T joined by S.y < T.b instead: S has one
        // join column, spans {R} and {R,T} bind it, and span {T} binds
        // nothing, so it scans the slab.
        let mut one_join = q.clone();
        one_join.predicates[1] = Predicate::join(
            PredId(1),
            ColRef::new(TableIdx(1), 1),
            CmpOp::Lt,
            ColRef::new(TableIdx(2), 0),
        );
        let one_join = QuerySpec::new(&c, one_join.tables, one_join.predicates, None).unwrap();
        assert_eq!(one_join.join_cols_of(TableIdx(1)), [0]);

        let cells: [(&[usize], &QuerySpec); 2] = [(&[0, 1], &q), (&[0], &one_join)];
        for (join_cols, q) in cells {
            let mut stem = Stem::new(
                TableIdx(1),
                SourceId(1),
                join_cols,
                true,
                false,
                StemOptions::default(),
            );
            for i in 0..40i64 {
                build_fresh(&mut stem, &s_tuple(i % 10, i), (i + 1) as Timestamp);
            }
            let mut batched = ProbeReplySet::new();
            stem.probe_batch_into(&probes, &states, q, &mut batched);
            assert_eq!(batched.metas.len(), probes.len());
            let mut seen_results = 0usize;
            for ((tuple, state), (meta, results)) in probes.iter().zip(&states).zip(batched.iter())
            {
                let want = probe_one(&stem, tuple, state, q);
                assert_eq!(want.results, results, "probe {tuple}");
                assert_eq!(want.outcome, meta.outcome, "probe {tuple}");
                assert_eq!(want.observed_ts, meta.observed_ts, "probe {tuple}");
                assert_eq!(want.raw_matches, meta.raw_matches, "probe {tuple}");
                seen_results += results.len();
            }
            assert!(seen_results > 0, "workload must form results");
        }
    }

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
    fn stem_on(join_cols: &[usize], opts: StemOptions) -> Stem {
        Stem::new(TableIdx(1), SourceId(1), join_cols, true, false, opts)
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
    fn workload() -> Vec<Tuple> {
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
        stem: &mut Stem,
        batch: &[Tuple],
        envelope: usize,
    ) -> (Vec<BuildResult>, Timestamp) {
        let mut ts = 0;
        let mut results = Vec::new();
        for chunk in batch.chunks(envelope) {
            let states = vec![TupleState::new(); chunk.len()];
            results.extend(stem.build_batch(chunk, &states, &mut ts));
        }
        (results, ts)
    }

    fn build_workload(stem: &mut Stem) -> (Vec<BuildResult>, Timestamp) {
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
        counters: [u64; 2],
    }

    fn build_observables(
        stem: &Stem,
        (results, ts_counter): (Vec<BuildResult>, Timestamp),
    ) -> BuildObservables {
        BuildObservables {
            stamps: stamped_ts(&results),
            results,
            ts_counter,
            len: stem.len(),
            max_ts: stem.max_ts,
            counters: [stem.build_count(), stem.eot.version()],
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
            let mut filtering = stem_on(&[0], opts.clone());
            let mut trusting = stem_on(&[0], opts);
            trusting.expect_scan_rows(rows.len(), |_| rows.len());
            trusting.trust_distinct();
            assert!(filtering.filters_duplicates() && !trusting.filters_duplicates());
            let (mut ts_f, mut ts_t) = (0, 0);
            for batch in rows.chunks(7) {
                let states = vec![TupleState::new(); batch.len()];
                let want = filtering.build_batch(batch, &states, &mut ts_f);
                let got = trusting.build_batch(batch, &states, &mut ts_t);
                let cell = format!("window {window:?}");
                assert!(!got.contains(&BuildResult::Duplicate), "{cell}");
                assert_eq!(stamped_ts(&got), stamped_ts(&want), "{cell}");
                assert_eq!(trusting.len(), filtering.len(), "{cell}");
                assert_eq!(trusting.approx_bytes(), filtering.approx_bytes(), "{cell}");
                assert_eq!(trusting.evictions(), filtering.evictions(), "{cell}");
            }
            // Key 13 is the last row's: live under the window too.
            let probe = r_tuple(1, 13);
            let (want, got) = (
                probe_one(&filtering, &probe, &TupleState::new(), &q),
                probe_one(&trusting, &probe, &TupleState::new(), &q),
            );
            assert_eq!(match_ts(&got), match_ts(&want));
            assert!(!want.results.is_empty());
        }
    }

    /// A windowed SteM never holds more than its window, so it reserves
    /// no more: rows and keys alike are capped at it.
    #[test]
    fn a_windowed_stem_reserves_at_most_its_window() {
        for (window, want) in [
            (None, (150, [(0, 17), (1, 150)])),
            (Some(1000), (150, [(0, 17), (1, 150)])),
            (Some(20), (20, [(0, 17), (1, 20)])),
            (Some(5), (5, [(0, 5), (1, 5)])),
        ] {
            let opts = StemOptions {
                eviction_window: window,
                ..StemOptions::default()
            };
            let mut stem = stem_on(&[1, 0, 1], opts);
            stem.expect_scan_rows(150, |col| [17, 150][col]);
            assert_eq!(
                stem.reservation(),
                (want.0, &want.1[..]),
                "window {window:?}"
            );
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
            let mut borrowing = stem_on(&[0], opts.clone());
            let mut moving = stem_on(&[0], opts);
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
    fn keyed_probes_match_a_scan_of_the_built_rows() {
        let (_c, q) = setup();
        for store in every_store_kind() {
            let mut stem = stem_on(
                &[0],
                StemOptions {
                    store: store.clone(),
                    ..StemOptions::default()
                },
            );
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
                let reply = probe_one(&stem, &r, &TupleState::new(), &q);
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
            assert!(probe_one(&stem, &rn, &TupleState::new(), &q)
                .results
                .is_empty());
        }
    }

    /// A windowed SteM decides every build as a plain FIFO of the last
    /// three distinct rows would: a row still in the window is a
    /// duplicate, any other is fresh and pushes the oldest out.
    #[test]
    fn windowed_stem_matches_a_fifo_model() {
        const WINDOW: usize = 3;
        let mut stem = stem_on(
            &[0],
            StemOptions {
                eviction_window: Some(WINDOW),
                ..StemOptions::default()
            },
        );
        let mut model: VecDeque<i64> = VecDeque::new();
        let mut evictions = 0;
        let mut ts = 0;
        // Interleave duplicates and evicted re-arrivals.
        for round in 0..6i64 {
            let keys: Vec<i64> = (0..7).map(|i| (round * 3 + i) % 10).collect();
            let batch: Vec<Tuple> = keys.iter().map(|&k| s_tuple(k, k)).collect();
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
        let stem = stem_on(
            &[0],
            StemOptions {
                deferred_bounce: true,
                partitions: 8,
                ..StemOptions::default()
            },
        );
        let part = |key: Value| stem.partition_of(&Row::new(vec![key, Value::Int(0)]));
        let ints: Vec<usize> = (0..64).map(|k| part(Value::Int(k))).collect();
        let floats: Vec<usize> = (0..64).map(|k| part(Value::Float(k as f64))).collect();
        assert_eq!(ints, floats);
        let used: FxHashSet<&usize> = ints.iter().collect();
        assert!(used.len() > 1, "the keys must spread over partitions");
    }

    /// A join column whose keys are all multiples of 8 still spreads its
    /// deferred bounce-backs over all 8 Grace partitions.
    #[test]
    fn strided_keys_reach_every_grace_partition() {
        let stem = stem_on(
            &[0],
            StemOptions {
                deferred_bounce: true,
                partitions: 8,
                ..StemOptions::default()
            },
        );
        let parts: std::collections::BTreeSet<usize> = (0..256)
            .map(|k| stem.partition_of(&Row::new(vec![Value::Int(k * 8), Value::Int(0)])))
            .collect();
        assert_eq!(parts.len(), 8, "{parts:?}");
    }

    /// Both SteM shapes the store-order tests below build: one that also
    /// indexes its first column, and one joined on its second alone.
    const SECOND_COLUMN_SHAPES: [&[usize]; 2] = [&[0, 1], &[1]];

    /// Keys descend while build timestamps ascend; y repeats, so y = 3
    /// picks 8 of the 40 rows.
    fn second_column_batch() -> Vec<Tuple> {
        (0..40i64).map(|i| s_tuple(100 - i, i % 5)).collect()
    }

    /// A probe bound on a SteM's second join column returns its
    /// candidates in *store* order, which is insertion order, at every
    /// store kind and whether or not the SteM also indexes its first
    /// column.
    #[test]
    fn second_column_probe_keeps_store_order() {
        let (c, q) = setup();
        let q = y_query(&c, &q);
        let batch = second_column_batch();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        for join_cols in SECOND_COLUMN_SHAPES {
            for store in every_store_kind() {
                // Store order, from the store itself.
                let mut reference = store.build(join_cols);
                reference.insert_batch(batch.iter().map(|t| t.components()[0].row.clone()));
                let store_order = reference.lookup_eq(1, &Value::Int(3));
                assert_eq!(store_order.len(), 8);

                let cell = format!("{store:?} over {join_cols:?}");
                let mut stem = stem_on(
                    join_cols,
                    StemOptions {
                        store,
                        ..StemOptions::default()
                    },
                );
                build_in_envelopes(&mut stem, &batch, batch.len());
                let reply = probe_one(&stem, &r, &TupleState::new(), &q);
                let got: Vec<&Arc<Row>> = reply
                    .results
                    .iter()
                    .map(|(t, _)| &t.component(TableIdx(1)).unwrap().row)
                    .collect();
                assert_eq!(got, store_order.iter().collect::<Vec<_>>(), "{cell}");
            }
        }
    }

    /// A probe bound on the second join column and an unbound probe (a
    /// cross product) answer identically at every store kind, order
    /// included, for both SteM shapes.
    #[test]
    fn store_kinds_answer_alike_on_a_second_column_join() {
        let (c, q) = setup();
        let by_y = y_query(&c, &q);
        let cross = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let batch = second_column_batch();
        let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 1_000);
        for join_cols in SECOND_COLUMN_SHAPES {
            let replies = every_store_kind().map(|store| {
                let mut stem = stem_on(
                    join_cols,
                    StemOptions {
                        store,
                        ..StemOptions::default()
                    },
                );
                build_in_envelopes(&mut stem, &batch, batch.len());
                [&by_y, &cross].map(|q| probe_one(&stem, &r, &TupleState::new(), q))
            });
            let [list, rest @ ..] = &replies;
            assert_eq!(list[0].results.len(), 8, "{join_cols:?}");
            assert_eq!(list[1].results.len(), 40, "{join_cols:?}");
            for (kind, got) in rest.iter().enumerate() {
                let cell = format!("store kind {} over {join_cols:?}", kind + 1);
                assert_eq!(got[1].results.len(), 40, "{cell}");
                for (want, got) in list.iter().zip(got) {
                    assert_eq!(want, got, "{cell}");
                    assert_eq!(match_ts(want), match_ts(got), "{cell}");
                }
            }
        }
    }

    /// A cross product's reply holds every stored row in insertion order
    /// (ascending build timestamp) at every store kind, however the build
    /// was cut into envelopes.
    #[test]
    fn cartesian_probe_answers_in_insertion_order_at_every_store_kind() {
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        let batch = workload();
        let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 1_000);
        for store in every_store_kind() {
            for envelope in [1, 7, batch.len()] {
                let cell = format!("{store:?}, envelopes of {envelope}");
                let mut stem = stem_on(
                    &[0],
                    StemOptions {
                        store: store.clone(),
                        ..StemOptions::default()
                    },
                );
                build_in_envelopes(&mut stem, &batch, envelope);
                let reply = probe_one(&stem, &r, &TupleState::new(), &q);
                assert!(stem.len() > 2, "{cell}");
                assert_eq!(reply.results.len(), stem.len(), "{cell}");
                let ts = match_ts(&reply);
                let mut sorted = ts.clone();
                sorted.sort_unstable();
                assert_eq!(ts, sorted, "{cell}");
            }
        }
    }

    /// Envelope-split invariance with and without an eviction window, at
    /// every store kind: envelopes of one, of seven and one envelope of
    /// the whole workload produce identical results, stamps, counters and
    /// evictions.
    #[test]
    fn build_results_match_at_every_envelope_size_and_window() {
        let batch = workload();
        for store in every_store_kind() {
            for window in [None, Some(5)] {
                let opts = StemOptions {
                    store: store.clone(),
                    eviction_window: window,
                    ..StemOptions::default()
                };
                let mut whole = stem_on(&[0], opts.clone());
                let built = build_in_envelopes(&mut whole, &batch, batch.len());
                let want = build_observables(&whole, built);
                for envelope in [1, 7] {
                    let cell = format!("{store:?}, window {window:?}, envelopes of {envelope}");
                    let mut split = stem_on(&[0], opts.clone());
                    let built = build_in_envelopes(&mut split, &batch, envelope);
                    assert_eq!(want, build_observables(&split, built), "{cell}");
                    assert_eq!(split.evictions(), whole.evictions(), "{cell}");
                    assert_side_maps_consistent(&split);
                }
                assert_side_maps_consistent(&whole);
            }
        }
    }

    /// A probe that unwinds midway leaves nothing behind: an envelope
    /// without states for its tuples is a caller bug the probe path
    /// panics on, after it has written the reply set's buffers. The SteM
    /// and that same reply set still answer the next probe, and the SteM
    /// still builds.
    #[test]
    fn a_probe_that_panicked_leaves_the_stem_and_its_replies_usable() {
        let (_c, q) = setup();
        let state = TupleState::new();
        let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 9);
        let mut stem = s_stem(true, false);
        build_fresh(&mut stem, &s_tuple(10, 1), 1);
        let mut replies = ProbeReplySet::new();
        let probe = |stem: &Stem, replies: &mut ProbeReplySet| {
            replies.clear();
            let (tuples, states) = (std::slice::from_ref(&r), std::slice::from_ref(&state));
            stem.probe_batch_into(tuples, states, &q, replies);
            replies
                .iter()
                .map(|(m, r)| (m.observed_ts, r.len()))
                .collect::<Vec<_>>()
        };
        // Warm the buffers, so the dying probe has them to leave half
        // written.
        assert_eq!(probe(&stem, &mut replies), [(1, 1)]);

        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let batch = [r.clone(), r.clone()];
            stem.probe_batch_into(&batch, &[], &q, &mut replies);
        }));
        assert!(died.is_err());

        assert_eq!(probe(&stem, &mut replies), [(1, 1)]);
        let next = build_fresh(&mut stem, &s_tuple(10, 2), 2);
        assert_eq!(next.timestamp(), 2);
        assert_eq!(probe(&stem, &mut replies), [(2, 2)]);
    }

    /// A probe reads the SteM through `&self`: two threads probing one
    /// SteM at once, each into its own reply set (the query server's wave
    /// drain, `runtime::for_each_parallel`, over two probers), get exactly
    /// what a serial probe gets, round after round.
    #[test]
    fn concurrent_probes_of_one_stem_match_a_serial_probe() {
        const ROUNDS: usize = 200;
        let (_c, q) = setup();
        let mut stem = s_stem(false, true);
        for i in 0..64 {
            build_fresh(&mut stem, &s_tuple(i % 8, i), i as Timestamp + 1);
        }
        build_eot_row(&mut stem, make_eot_row(2, &[(0, Value::Int(3))]));
        let batch: Vec<Tuple> = (0..32)
            .map(|k| r_tuple(k, k % 10).with_timestamp(TableIdx(0), 16 + k as Timestamp))
            .collect();
        let states = vec![TupleState::new(); batch.len()];
        let stem = &stem;
        let probe = |replies: &mut ProbeReplySet| {
            replies.clear();
            stem.probe_batch_into(&batch, &states, &q, replies);
            let replies = replies.iter().map(|(m, r)| (*m, r.to_vec()));
            replies.collect::<Vec<_>>()
        };
        let serial = probe(&mut ProbeReplySet::new());
        assert!(serial
            .iter()
            .any(|(m, _)| m.outcome == ProbeOutcome::Consumed));
        assert!(serial.iter().any(|(_, r)| !r.is_empty()));
        let mut probers: Vec<(ProbeReplySet, usize)> =
            (0..2).map(|_| (ProbeReplySet::new(), 0)).collect();
        crate::runtime::for_each_parallel(&mut probers, 2, |(replies, matched)| {
            *matched = (0..ROUNDS).filter(|_| probe(replies) == serial).count();
        });
        assert!(probers.iter().all(|(_, matched)| *matched == ROUNDS));
    }
}
