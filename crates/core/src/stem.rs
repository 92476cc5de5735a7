//! The State Module's vocabulary and its per-lane half (paper §2.1.4).
//!
//! A SteM — [`crate::sharded::ShardedStem`], the only SteM type — owns a
//! dictionary of singleton tuples from one table instance and handles:
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
//! This module holds what both halves of that design share: the public
//! option/result/reply types, the EOT coverage index ([`EotIndex`]), the
//! binding helpers, and [`Shard`] — one *lane* of a SteM's storage. A
//! shard owns exactly the state that must exist per lane and exposes the
//! two per-lane steps of the SteM's algorithms: [`Shard::ingest`] (dedup +
//! dictionary insert) and [`Shard::probe`] (result formation over
//! prehashed bindings). Everything that is a property of the SteM as a
//! whole lives once, on `ShardedStem` — the envelope buffers of both
//! steps included, so a lane is plain data behind the SteM's `&mut self`
//! and holds no lock.
//!
//! # A lane is one slab and its slot-indexed columns
//!
//! The lane's dictionary keeps its rows in one slab
//! ([`stems_storage::Slab`]) and hands out a dense **slot** per stored
//! row; everything else the lane knows about a row is filed under that
//! slot, not under the row: the dedup filter maps row value → slot
//! ([`RowSet`], under a whole-row hash computed once per build row — or,
//! where the plan proves no duplicate can arrive, only counts its
//! members), and the build timestamps are a plain column, `ts[slot]`. A
//! probe therefore gets candidate *slots* from the dictionary, applies
//! the TimeStamp and LastMatchTimeStamp rules on `ts[slot]` — in a
//! symmetric join the TimeStamp rule alone rejects about half of them —
//! and only then resolves the survivors' rows and clones their handles.
//!
//! Between [`Shard::ingest`] and [`Shard::stamp`] a row is stored but has
//! no timestamp yet: its column entry reads [`UNBUILT_TS`], which the
//! TimeStamp rule treats as "built after every prober", so a row is
//! invisible until the SteM has stamped it. Eviction kills a slot
//! ([`Shard::forget`]); once a lane's dead slots outnumber its live ones
//! it is rebuilt dense in insertion order and every slot-indexed column —
//! here and, for the FIFO window, on `ShardedStem` — is renumbered with
//! it, so a windowed SteM over an unbounded stream stays the size of its
//! window.

use crate::links::TableLinks;
use crate::sync::Arc;
use crate::tuple_state::{CompletionNeed, TupleState};
use stems_catalog::QuerySpec;
use stems_storage::fxhash::FxHashSet;
use stems_storage::{CandidateBuf, RowSet, Slot, Store, StoreKind};
use stems_types::{
    HashedKey, PredSet, Row, TableIdx, TableSet, Timestamp, Tuple, Value, UNBUILT_TS,
};

/// A probe tuple's equality binding, resolved and hashed exactly once at
/// the envelope boundary: the bound store column plus the annotated key.
/// `None` means the probe binds nothing and must scan.
pub(crate) type ProbeBinding = Option<(usize, HashedKey)>;

/// Reusable probe scratch of one dispatch chunk. Everything the probe
/// path materializes per envelope — key groups, flat candidate arenas,
/// plans — lives here and keeps its capacity across envelopes, so
/// steady-state probing allocates nothing. The SteM owns one per chunk
/// *position* of an envelope (`ShardedStem`'s probe pool) and lends each
/// chunk its own by `&mut`, so the chunks of a lane that pool workers
/// ([`crate::runtime::WorkerPool`]) service concurrently never share a
/// buffer, and which scratch a chunk gets does not depend on how the
/// chunks interleave.
#[derive(Debug, Default)]
pub(crate) struct ProbeScratch {
    /// Distinct probe columns of the current envelope.
    cols: Vec<usize>,
    /// Key list per column slot (capacity pooled across envelopes).
    keys: Vec<Vec<HashedKey>>,
    /// Flat candidate arena per column slot.
    bufs: Vec<CandidateBuf>,
    /// Per tuple: `(column slot, key slot)` of its binding, if any.
    plans: Vec<Option<(usize, usize)>>,
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
    /// Hash-partition shard fan-out of the SteM's dictionary
    /// ([`crate::sharded::ShardedStem`]). `1` (the default) is a SteM
    /// with one storage lane; larger values split the storage of a SteM
    /// with exactly one join column by that column's key hash, so
    /// build/probe envelopes parallelize across threads. A SteM with two
    /// or more join columns, or none, keeps one lane: a probe on any but
    /// the partition column would visit every lane.
    pub num_shards: usize,
    /// Worker-pool budget for this SteM's sharded envelope fan-outs.
    /// `None` (the default) inherits `ExecConfig::workers` (and thus
    /// `STEMS_WORKERS` / host parallelism); `Some(n)` pins this SteM's
    /// budget.
    pub workers: Option<usize>,
    /// Minimum routed rows in one envelope before the sharded fan-out
    /// dispatches to the worker pool. `None` (the default) inherits
    /// `ExecConfig::parallel_min_rows` (and thus
    /// `STEMS_PARALLEL_MIN_ROWS` /
    /// [`crate::runtime::DEFAULT_PARALLEL_MIN_ROWS`]).
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
    /// [`crate::sharded::ShardedStem::release_deferred`].
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
    pub len: usize,
}

/// Envelope-lifetime probe-reply arena: all replies of one probe envelope,
/// stored as one flat `(tuple, donebits)` vector plus one [`ReplyMeta`]
/// header per probe tuple, in batch order. Callers own the set and reuse
/// it across envelopes, so the steady-state reply path performs **zero
/// per-tuple heap allocations** (`tests/alloc_probe.rs` pins this with a
/// counting allocator). The lane merge additionally moves replies
/// *between* sets without reallocating
/// ([`ProbeReplySet::take_results_into`]).
#[derive(Debug, Default)]
pub struct ProbeReplySet {
    /// Flat result arena: each reply's results are contiguous.
    results: Vec<(Tuple, PredSet)>,
    /// One header per probe tuple, batch order.
    metas: Vec<ReplyMeta>,
    /// Consumption cursors for [`ProbeReplySet::take_results_into`].
    meta_cursor: usize,
    result_cursor: usize,
}

impl ProbeReplySet {
    pub fn new() -> ProbeReplySet {
        ProbeReplySet::default()
    }

    /// Drop contents, keep capacity (arena reuse across envelopes).
    pub fn clear(&mut self) {
        self.results.clear();
        self.metas.clear();
        self.meta_cursor = 0;
        self.result_cursor = 0;
    }

    /// Number of replies (== probe tuples of the envelope).
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total result tuples across all replies.
    pub fn total_results(&self) -> usize {
        self.results.len()
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
        self.meta_cursor = 0;
        self.result_cursor = 0;
        (&self.metas, self.results.drain(..))
    }

    /// Move the next unconsumed reply's *results* into `out`'s arena
    /// (no header is pushed — the caller merges headers itself: the lane
    /// merge combines several per-lane replies into one) and
    /// return its header. Moved-from slots are left as empty placeholder
    /// tuples; no allocation happens in either set beyond `out`'s arena
    /// growth, which amortizes to zero across reused envelopes.
    pub(crate) fn take_results_into(&mut self, out: &mut ProbeReplySet) -> ReplyMeta {
        let meta = self.metas[self.meta_cursor];
        self.meta_cursor += 1;
        let start = self.result_cursor;
        for slot in &mut self.results[start..start + meta.len] {
            out.results
                .push(std::mem::replace(slot, (Tuple::empty(), PredSet::EMPTY)));
        }
        self.result_cursor = start + meta.len;
        meta
    }

    /// Append a reply header (lane merge tail; results were already
    /// appended via [`ProbeReplySet::take_results_into`]).
    pub(crate) fn push_meta(&mut self, meta: ReplyMeta) {
        self.metas.push(meta);
    }

    /// Replies not yet consumed by [`ProbeReplySet::take_results_into`].
    pub(crate) fn remaining(&self) -> usize {
        self.metas.len() - self.meta_cursor
    }

    /// Mutable tail of the result arena from `start` — the lane merge
    /// sorts a reply gathered from several lanes in place.
    pub(crate) fn results_tail_mut(&mut self, start: usize) -> &mut [(Tuple, PredSet)] {
        &mut self.results[start..]
    }
}

/// What the envelope boundary resolves for one probe tuple, exactly
/// once: its equality binding (hashed — lane routing and the dictionary
/// descent both read this annotation) and its bounce decision (a function
/// of SteM-wide EOT state, so it is the same in whichever lanes the probe
/// visits).
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) binding: ProbeBinding,
    pub(crate) outcome: ProbeOutcome,
}

/// What a lane needs to form probe replies: the SteM-wide facts and the
/// whole probe envelope, which every lane and chunk reads by position.
pub(crate) struct ProbeCtx<'q> {
    /// The table instance the SteM currently serves.
    pub(crate) instance: TableIdx,
    pub(crate) query: &'q QuerySpec,
    /// The SteM's max build timestamp at probe time.
    pub(crate) observed_ts: Timestamp,
    pub(crate) batch: &'q [Tuple],
    pub(crate) states: &'q [TupleState],
    /// Per envelope position: its prehashed binding and bounce decision.
    pub(crate) resolved: &'q [Resolved],
}

/// A lane is rebuilt dense ([`Shard::compact`]) once its dead slots
/// outnumber its live ones — and this floor, so a lane holding a handful
/// of rows is not rebuilt on every eviction.
const COMPACT_MIN_DEAD: usize = 32;

/// One storage lane of a SteM: the dictionary — whose slab gives every
/// stored row its **slot** — and, addressed by that slot, the
/// set-semantics dedup filter and the build-timestamp column.
///
/// Self-joins note: the paper shares one SteM per *source* across FROM
/// instances; we share row storage via `Arc<Row>` but keep per-instance
/// dictionaries, which preserves the memory-sharing benefit while keeping
/// the timestamp bookkeeping per instance.
pub(crate) struct Shard {
    store: Store,
    /// Stored rows by value → their slot (§3.2 duplicate absorption); an
    /// unfiltered set once [`Shard::trust_distinct`].
    dedup: RowSet,
    /// Build timestamp by slot. A row [`Shard::ingest`] stored but
    /// [`Shard::stamp`] has not reached yet reads [`UNBUILT_TS`], which no
    /// probe's TimeStamp rule lets through: an unstamped row is invisible.
    ts: Vec<Timestamp>,
}

impl Shard {
    /// An empty lane indexing `join_cols` ("one main-memory index on each
    /// column involved in a join predicate", §2.1.4).
    pub(crate) fn new(kind: &StoreKind, join_cols: &[usize]) -> Shard {
        Shard {
            store: kind.build(join_cols),
            dedup: RowSet::new(),
            ts: Vec::new(),
        }
    }

    /// Room for `rows` more rows in the slab, the timestamp column and
    /// the dedup filter.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.store.reserve(rows);
        self.ts.reserve(rows);
        self.dedup.reserve(rows);
    }

    /// Stop checking for duplicates: the caller has proved none can
    /// arrive, so the filter keeps only its member count and bytes (and
    /// the lane's accounting does not move). Before the first build only.
    pub(crate) fn trust_distinct(&mut self) {
        debug_assert_eq!(self.store.slab().slots(), 0, "trust_distinct after a build");
        self.dedup = RowSet::unfiltered();
    }

    /// Does this lane run the duplicate filter?
    #[cfg(test)]
    pub(crate) fn filters(&self) -> bool {
        self.dedup.filters()
    }

    /// Number of stored (non-EOT) tuples.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Approximate memory footprint.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.store.approx_bytes() + self.dedup.approx_bytes()
    }

    /// Whether the dictionary is indexed (`"hash"`) or not yet (`"list"`).
    pub(crate) fn backend(&self) -> &'static str {
        self.store.backend()
    }

    /// The per-lane build step: set-semantics dedup plus the dictionary
    /// insert for the (non-EOT) singletons routed to this lane — the
    /// `members` positions of the envelope `tuples`, in batch order.
    /// Appends to `fresh` the slot of every inserted row and `None` for
    /// every absorbed duplicate (§3.2); timestamps are assigned afterwards
    /// by the SteM, serially ([`Shard::stamp`]). `pending` is the lane's
    /// reusable staging buffer for the rows about to be inserted (left
    /// empty).
    ///
    /// A filtering lane hashes each row once; a duplicate of a row earlier
    /// in this same envelope is caught against the pending batch, before
    /// the store holds its original. A lane that trusts its rows distinct
    /// hashes none.
    pub(crate) fn ingest(
        &mut self,
        tuples: &[Tuple],
        members: &[usize],
        fresh: &mut Vec<Option<Slot>>,
        pending: &mut Vec<Arc<Row>>,
    ) {
        let slab = self.store.slab();
        let base = slab.slots();
        pending.clear();
        for &i in members {
            let row = &tuples[i].components()[0].row;
            debug_assert!(!row.is_eot(), "EOT rows never reach a lane");
            let slot = (base + pending.len()) as Slot;
            let held = |s: Slot| -> &Row {
                match (s as usize).checked_sub(base) {
                    Some(p) => &pending[p],
                    None => slab.row(s).expect("dedup members are live"),
                }
            };
            let inserted = self.dedup.insert(row, slot, held);
            if inserted {
                pending.push(row.clone());
            }
            fresh.push(inserted.then_some(slot));
        }
        self.ts.resize(base + pending.len(), UNBUILT_TS);
        self.store.insert_batch(pending.drain(..));
        debug_assert_eq!(self.store.slab().slots(), self.ts.len());
    }

    /// Record the global build timestamp of a row [`Shard::ingest`]
    /// reported fresh, by the slot it reported.
    pub(crate) fn stamp(&mut self, slot: Slot, ts: Timestamp) {
        self.ts[slot as usize] = ts;
    }

    /// Eviction: forget the row in `slot` — in the store and the dedup
    /// filter together (an evicted row may re-enter fresh); its timestamp
    /// dies with its slot. Returns `true` if that tipped the lane into a
    /// rebuild ([`Shard::compact`]): its live slots were renumbered
    /// `0..len` in insertion order, and so must be whatever the caller
    /// holds of them.
    pub(crate) fn forget(&mut self, slot: Slot) -> bool {
        let row = self.store.remove(slot).expect("evicted slots are live");
        self.dedup.forget(&row, slot);
        let slab = self.store.slab();
        let dead = slab.slots() - slab.live();
        let rebuild = dead > slab.live().max(COMPACT_MIN_DEAD);
        if rebuild {
            self.compact();
        }
        rebuild
    }

    /// Reclaim the lane's dead slots, so that a windowed SteM's slab and
    /// slot-indexed columns stay proportional to the window rather than
    /// to every row the stream ever delivered: the store rebuilds itself
    /// dense in insertion order, and the timestamp column and the dedup
    /// filter follow the renumbering.
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
    }

    /// The per-lane probe step: answer the `members` positions of the
    /// envelope in `ctx`, appending one reply per member to `out` in
    /// member order. `ctx.resolved` carries each tuple's prehashed binding
    /// and bounce decision; this lane contributes the candidates. All
    /// equality lookups on one column go through a single
    /// [`Store::lookup_eq_flat`] index descent into a reusable arena of
    /// candidate *slots* (one span per member; unbindable probes walk
    /// the slab's live slots), the newly-evaluable predicate
    /// set is a bitset re-derived only when `(result span, donebits)`
    /// changes from one member to the next, and both timestamp rules are decided on the slot's entry in the
    /// timestamp column — the row itself is resolved, and its handle
    /// cloned, only for a candidate that passed them. Results land in
    /// `out`'s flat arena: the only per-tuple allocations are the
    /// surviving result tuples themselves (one component vec each, via
    /// [`Tuple::concat_row`]).
    ///
    /// `members` may be any sub-range of the lane's routed positions: hot
    /// lanes are chunked across pool workers, each chunk probing with its
    /// own `scratch` and arena.
    pub(crate) fn probe(
        &self,
        ctx: &ProbeCtx<'_>,
        members: &[u32],
        scratch: &mut ProbeScratch,
        out: &mut ProbeReplySet,
    ) {
        let t = ctx.instance;
        let ProbeScratch {
            cols,
            keys,
            bufs,
            plans,
        } = scratch;
        cols.clear();
        plans.clear();

        // Pass 1: group the prehashed keys by column.
        for &m in members {
            let binding = ctx.resolved[m as usize].binding.as_ref();
            plans.push(binding.map(|(col, key)| {
                let ci = match cols.iter().position(|c| c == col) {
                    Some(i) => i,
                    None => {
                        cols.push(*col);
                        let i = cols.len() - 1;
                        if keys.len() <= i {
                            keys.push(Vec::new());
                            bufs.push(CandidateBuf::new());
                        }
                        keys[i].clear();
                        i
                    }
                };
                keys[ci].push(key.clone());
                (ci, keys[ci].len() - 1)
            }));
        }
        // One flat descent per column, every key resolved before any
        // result is formed: the store reads the precomputed hashes, never
        // re-hashing.
        for (ci, col) in cols.iter().enumerate() {
            self.store.lookup_eq_flat(*col, &keys[ci], &mut bufs[ci]);
        }
        let slab = self.store.slab();

        // `newly_evaluable` is a pure function of (result span, donebits):
        // as bitsets, the predicates to test and the donebits every
        // surviving result carries are two words, remembered from one
        // member to the next (envelopes are usually span- and done-uniform,
        // so this is derived once per envelope) and held nowhere else — a
        // SteM shared by several queries must not carry one query's
        // predicate ids into another's probe.
        let mut memo: Option<(TableSet, PredSet, PredSet, PredSet)> = None;

        // Pass 2: per-tuple result formation.
        for (&m, plan) in members.iter().zip(plans.iter()) {
            let m = m as usize;
            let (tuple, state, r) = (&ctx.batch[m], &ctx.states[m], &ctx.resolved[m]);
            debug_assert!(!tuple.span().contains(t), "probe tuple already spans {t}");
            let result_span = tuple.span().with(t);
            let (newly, done_union) = match memo {
                Some((s, d, newly, union)) if s == result_span && d == state.done => (newly, union),
                _ => {
                    let mut newly = PredSet::EMPTY;
                    for p in &ctx.query.predicates {
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
            let start = out.results.len();
            let results = &mut out.results;
            let mut consider = |slot: Slot| {
                let ts_u = self.ts[slot as usize];
                // TimeStamp rule (§3.1): only the later-built side generates
                // the result. LastMatchTimeStamp rule (§3.5): repeated probes
                // skip matches already returned.
                if ts_u >= probe_ts || ts_u <= state.last_match_ts {
                    return;
                }
                let row = slab.row(slot).expect("candidate slots are live");
                let cand = tuple.concat_row(t, row.clone(), ts_u);
                let passes = |p| ctx.query.predicate(p).eval(&cand).unwrap_or(false);
                if newly.iter().all(passes) {
                    results.push((cand, done_union));
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
            out.metas.push(ReplyMeta {
                outcome: r.outcome,
                observed_ts: ctx.observed_ts,
                raw_matches,
                len: out.results.len() - start,
            });
        }
    }
}

/// The SteM's EOT index (§2.1.3): which probes the stored rows answer
/// *completely*. One per SteM — an EOT describes the relation, not a
/// storage lane.
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

/// The binding lists [`EotIndex::covers`] works on, kept by the SteM's
/// probe pool so a coverage check allocates nothing once warm.
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
pub fn make_eot_row(arity: usize, bindings: &[(usize, Value)]) -> Arc<Row> {
    let mut vals = vec![Value::Eot; arity];
    for (c, v) in bindings {
        vals[*c] = v.clone();
    }
    Row::shared(vals)
}

/// The full-relation EOT row a scan emits when exhausted.
pub fn make_scan_eot_row(arity: usize) -> Arc<Row> {
    Row::shared(vec![Value::Eot; arity])
}

/// The SteM's semantic rules (Table 2 bounce rules, both timestamp rules,
/// EOT coverage, window FIFO, Grace release), driven through
/// [`crate::sharded::ShardedStem`]'s one build path and one probe path as
/// envelopes of one, at one lane and at several.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::testkit::{build_one, probe_one, r_tuple, s_tuple, setup};
    use crate::sharded::ShardedStem;
    use stems_catalog::{Catalog, ScanSpec, SourceId, TableDef, TableInstance};
    use stems_types::{CmpOp, ColRef, ColumnType, PredId, Predicate, Schema, TupleBatch};

    /// Shard counts every rule is checked at: one lane, and keyed lanes
    /// plus overflow (on a SteM with one join column; any other has one
    /// lane at both).
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    /// S's SteM (key column 0) with the given options and AM flags.
    fn s_stem_with(
        num_shards: usize,
        has_scan: bool,
        has_index: bool,
        opts: StemOptions,
    ) -> ShardedStem {
        ShardedStem::new(
            TableIdx(1),
            SourceId(1),
            &[0],
            has_scan,
            has_index,
            StemOptions { num_shards, ..opts },
        )
    }

    fn s_stem(num_shards: usize, has_scan: bool, has_index: bool) -> ShardedStem {
        s_stem_with(num_shards, has_scan, has_index, StemOptions::default())
    }

    fn build(stem: &mut ShardedStem, t: &Tuple, ts: Timestamp) -> BuildResult {
        build_one(stem, t, &TupleState::new(), ts)
    }

    fn build_fresh(stem: &mut ShardedStem, t: &Tuple, ts: Timestamp) -> Tuple {
        match build(stem, t, ts) {
            BuildResult::Fresh(stamped) => stamped,
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    fn build_eot_row(stem: &mut ShardedStem, row: Arc<Row>) {
        let eot = Tuple::singleton(TableIdx(1), row);
        assert_eq!(build(stem, &eot, 99), BuildResult::Eot);
    }

    /// In every lane the slot-addressed side structures must agree with
    /// the slab: every live slot is reachable from exactly one dedup
    /// chain — the one its own row is looked up through — and is stamped,
    /// no chain holds a dead slot, and the timestamp column covers exactly
    /// the slab. Eviction and compaction must move all three together.
    fn assert_side_maps_consistent(stem: &ShardedStem) {
        for lane in stem.lanes() {
            let slab = lane.store.slab();
            assert_eq!(lane.ts.len(), slab.slots(), "ts column vs slab length");
            let live: Vec<Slot> = slab.live_slots().collect();
            let mut chained: Vec<Slot> = lane.dedup.slots().collect();
            chained.sort_unstable();
            assert_eq!(chained, live, "dedup chains vs live slots");
            assert_eq!(lane.dedup.len(), live.len(), "dedup count vs store len");
            let held = |s: Slot| -> &Row { slab.row(s).expect("chained slots are live") };
            for slot in live {
                let row = held(slot);
                assert_eq!(
                    lane.dedup.find(row, held),
                    Some(slot),
                    "stored row not found through its own chain: {row:?}"
                );
                assert_ne!(lane.ts[slot as usize], UNBUILT_TS, "unstamped: {row:?}");
            }
        }
    }

    #[test]
    fn build_assigns_timestamp_and_bounces() {
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            let stamped = build_fresh(&mut stem, &s_tuple(10, 1), 5);
            assert_eq!(stamped.timestamp(), 5);
            assert_eq!(stem.len(), 1);
            assert_eq!(stem.max_ts(), 5);
            assert_eq!(stem.build_count(), 1);
        }
    }

    #[test]
    fn duplicate_builds_absorbed() {
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 1);
            // Same row value from a competing AM: absorbed (§3.2).
            assert_eq!(build(&mut stem, &s_tuple(10, 1), 2), BuildResult::Duplicate);
            assert_eq!(stem.len(), 1);
            assert_eq!(stem.duplicates_absorbed(), 1);
            // max_ts unchanged — the duplicate consumed no timestamp.
            assert_eq!(stem.max_ts(), 1);
        }
    }

    #[test]
    fn probe_finds_matches_and_concatenates() {
        let (_c, q) = setup();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 1);
            build_fresh(&mut stem, &s_tuple(20, 2), 2);
            // r (built later, ts 3) probes: matches only x=10.
            let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            assert_eq!(reply.results.len(), 1);
            let (result, done) = &reply.results[0];
            assert_eq!(result.span().len(), 2);
            assert!(done.contains(PredId(0)));
            assert_eq!(result.value(TableIdx(1), 1), Some(&Value::Int(1)));
        }
    }

    #[test]
    fn timestamp_rule_suppresses_earlier_side() {
        let (_c, q) = setup();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            // s built at ts 7, probe r built at ts 3: 7 ≥ 3 ⇒ suppressed;
            // the s tuple's own probe path is responsible for this result.
            build_fresh(&mut stem, &s_tuple(10, 1), 7);
            let r = r_tuple(100, 10).with_timestamp(TableIdx(0), 3);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            assert!(reply.results.is_empty());
            assert_eq!(reply.raw_matches, 1);
        }
    }

    #[test]
    fn unbuilt_probe_sees_everything() {
        let (_c, q) = setup();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 7);
            // Unbuilt probe has ts = ∞ (paper: "before building, ts is ∞").
            let r = r_tuple(100, 10);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            assert_eq!(reply.results.len(), 1);
        }
    }

    #[test]
    fn last_match_timestamp_dedups_reprobes() {
        let (_c, q) = setup();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 1);
            build_fresh(&mut stem, &s_tuple(10, 2), 2);
            // A row in another lane raises the SteM-wide max timestamp the
            // prober records — not just its own lane's.
            build_fresh(&mut stem, &s_tuple(11, 0), 3);
            let r = r_tuple(100, 10); // unbuilt, re-probing per §3.5
            let mut state = TupleState::new();
            let first = probe_one(&mut stem, &r, &state, &q);
            assert_eq!(first.results.len(), 2);
            assert_eq!(first.observed_ts, 3);
            // Record observed ts, as the engine does on bounce.
            state.last_match_ts = first.observed_ts;
            // New tuple arrives, then re-probe: only the new one returned.
            build_fresh(&mut stem, &s_tuple(10, 3), 9);
            let second = probe_one(&mut stem, &r, &state, &q);
            assert_eq!(second.results.len(), 1);
            assert_eq!(
                second.results[0].0.value(TableIdx(1), 1),
                Some(&Value::Int(3))
            );
        }
    }

    #[test]
    fn bounce_rules_follow_table2() {
        let (_c, q) = setup();
        let r_built = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
        let r_unbuilt = r_tuple(1, 10);
        let state = TupleState::new();
        for n in SHARD_COUNTS {
            let outcome = |has_scan: bool, has_index: bool, r: &Tuple| {
                probe_one(&mut s_stem(n, has_scan, has_index), r, &state, &q).outcome
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
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, false, true);
            build_eot_row(&mut stem, make_scan_eot_row(2));
            assert!(stem.scan_complete());
            let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
            assert_eq!(
                probe_one(&mut stem, &r, &TupleState::new(), &q).outcome,
                ProbeOutcome::Consumed
            );
            // EOT consumed no timestamp and is not a data row.
            assert_eq!(stem.len(), 0);
            assert_eq!(stem.max_ts(), 0);
        }
    }

    #[test]
    fn keyed_eot_covers_matching_probes_only() {
        let (_c, q) = setup();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, false, true);
            // Index answered bindings {x=10}: EOT row (10, EOT).
            build_eot_row(&mut stem, make_eot_row(2, &[(0, Value::Int(10))]));
            let state = TupleState::new();
            let covered = r_tuple(1, 10).with_timestamp(TableIdx(0), 1);
            assert_eq!(
                probe_one(&mut stem, &covered, &state, &q).outcome,
                ProbeOutcome::Consumed
            );
            let uncovered = r_tuple(2, 20).with_timestamp(TableIdx(0), 2);
            assert_eq!(
                probe_one(&mut stem, &uncovered, &state, &q).outcome,
                ProbeOutcome::Bounced(CompletionNeed::Required)
            );
        }
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
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, false, true);
            let state = TupleState::new();
            let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);

            // Nothing answered yet.
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Bounced(CompletionNeed::Required)
            );
            // Member 1 answered (the index AM binds the IN column and emits
            // one keyed EOT per member lookup): still incomplete — the
            // member-2 sub-probe has no coverage.
            build_eot_row(&mut stem, make_eot_row(2, &[(1, Value::Int(1))]));
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Bounced(CompletionNeed::Required)
            );
            // Member 2 answered too: every sub-probe is covered now.
            build_eot_row(&mut stem, make_eot_row(2, &[(1, Value::Int(2))]));
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Consumed
            );
        }
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
        for n in SHARD_COUNTS {
            // S joins through y alone, so its lanes partition by y.
            let mut stem = ShardedStem::new(
                TableIdx(1),
                SourceId(1),
                &q2.join_cols_of(TableIdx(1)),
                false,
                true,
                StemOptions {
                    num_shards: n,
                    ..StemOptions::default()
                },
            );
            let state = TupleState::new();
            let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
            for m in &members[..1499] {
                build_eot_row(&mut stem, make_eot_row(2, &[(0, m.clone())]));
            }
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Bounced(CompletionNeed::Required),
                "one member still unanswered"
            );
            build_eot_row(&mut stem, make_eot_row(2, &[(0, members[1499].clone())]));
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Consumed
            );
        }
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
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, false, true);
            let state = TupleState::new();
            let r = r_tuple(1, 3).with_timestamp(TableIdx(0), 5);
            // Arity-3 EOT rows so a column stays EOT-marked.
            let pair = |x: i64, y: i64| make_eot_row(3, &[(0, Value::Int(x)), (1, Value::Int(y))]);
            for (x, y) in [(1, 5), (1, 6), (2, 5)] {
                build_eot_row(&mut stem, pair(x, y));
            }
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Bounced(CompletionNeed::Required),
                "one member pair still unanswered"
            );
            build_eot_row(&mut stem, pair(2, 6));
            assert_eq!(
                probe_one(&mut stem, &r, &state, &q2).outcome,
                ProbeOutcome::Consumed
            );
        }
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
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, false, true);
            build_eot_row(&mut stem, make_eot_row(2, &[(0, Value::Int(10))]));
            build_fresh(&mut stem, &s_tuple(10, 5), 2);
            let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 9);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            // Only the data row joins; the EOT "row" never appears in results.
            assert_eq!(reply.results.len(), 1);
            assert_eq!(
                reply.results[0].0.value(TableIdx(1), 1),
                Some(&Value::Int(5))
            );
        }
    }

    fn windowed(num_shards: usize, window: usize) -> ShardedStem {
        s_stem_with(
            num_shards,
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
        for n in SHARD_COUNTS {
            let mut stem = windowed(n, 2);
            build_fresh(&mut stem, &s_tuple(1, 1), 1);
            build_fresh(&mut stem, &s_tuple(2, 2), 2);
            build_fresh(&mut stem, &s_tuple(3, 3), 3);
            assert_eq!(stem.len(), 2);
            assert_eq!(stem.evictions(), 1);
            // Evicted row may re-enter (dedup forgot it).
            build_fresh(&mut stem, &s_tuple(1, 1), 4);
        }
    }

    /// The window evicts the globally oldest row first, whichever lane
    /// holds it: what a cartesian probe still sees after each build is
    /// exactly the `window` youngest rows, and an evicted row was
    /// forgotten everywhere — it rebuilds fresh.
    #[test]
    fn window_evicts_globally_oldest_row_first() {
        let (c, q) = setup();
        let cartesian = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        for n in SHARD_COUNTS {
            let mut stem = windowed(n, 3);
            let r = r_tuple(1, 1);
            for i in 0..8u64 {
                build_fresh(&mut stem, &s_tuple(i as i64, 0), i + 1);
                let mut live: Vec<Timestamp> =
                    probe_one(&mut stem, &r, &TupleState::new(), &cartesian)
                        .results
                        .iter()
                        .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
                        .collect();
                live.sort_unstable();
                let want: Vec<Timestamp> = (i.saturating_sub(2) + 1..=i + 1).collect();
                assert_eq!(live, want, "{n} shards after build {i}");
                assert_side_maps_consistent(&stem);
            }
            assert_eq!(stem.evictions(), 5);
            build_fresh(&mut stem, &s_tuple(0, 0), 9);
        }
    }

    #[test]
    fn windowed_build_batch_matches_scalar_eviction() {
        // window=2, batch [r1, r2, r3, r1]: inserting r2/r3 evicts r1 and
        // forgets it, so the second r1 must re-enter as Fresh — exactly
        // what envelopes of one do. A batch-deferred insert would wrongly
        // absorb it as a duplicate.
        let tuples = [s_tuple(1, 1), s_tuple(2, 2), s_tuple(3, 3), s_tuple(1, 1)];
        let batch: TupleBatch = tuples.iter().cloned().collect();
        let states = vec![TupleState::new(); 4];
        for n in SHARD_COUNTS {
            let mut stem = windowed(n, 2);
            let mut ts = 0;
            let results = stem.build_batch(&batch, &states, &mut ts);
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
            let mut split = windowed(n, 2);
            let singly: Vec<BuildResult> = tuples
                .iter()
                .enumerate()
                .map(|(i, t)| build(&mut split, t, i as Timestamp + 1))
                .collect();
            assert_eq!(results, singly);
            assert_eq!(stem.evictions(), split.evictions());
        }
    }

    #[test]
    fn windowed_side_maps_stay_consistent_across_sweeps() {
        for n in SHARD_COUNTS {
            let mut stem = windowed(n, 3);
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
    }

    #[test]
    fn windowed_side_maps_survive_intra_batch_duplicate_rearrival() {
        // window=2, batch [r1, r2, r3, r1, r1]: inserting r2/r3 evicts r1
        // and must forget it in the store and `dedup`; the first
        // re-arrival rebuilds Fresh (into a new slot, with a new stamp),
        // the second is a true duplicate again. After the sweep, slab,
        // dedup chains and timestamp column agree.
        let batch: TupleBatch = [
            s_tuple(1, 1),
            s_tuple(2, 2),
            s_tuple(3, 3),
            s_tuple(1, 1),
            s_tuple(1, 1),
        ]
        .into_iter()
        .collect();
        let states = vec![TupleState::new(); 5];
        for n in SHARD_COUNTS {
            let mut stem = windowed(n, 2);
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
            let ts_r1 = stem
                .lanes()
                .iter()
                .find_map(|lane| {
                    let slab = lane.store.slab();
                    let held = |s: Slot| -> &Row { slab.row(s).expect("chained slots are live") };
                    let slot = lane.dedup.find(row, held)?;
                    Some(lane.ts[slot as usize])
                })
                .expect("r1 stored");
            assert_eq!(ts_r1, 4, "re-arrival must be re-stamped, not stale");
        }
    }

    /// A windowed SteM over a long stream costs what its window costs:
    /// eviction is by slot, and a lane whose dead slots outnumber its
    /// live ones is rebuilt dense, so no lane's slab (nor the columns
    /// indexed by its slots) grows with the rows the stream has delivered.
    #[test]
    fn windowed_stream_keeps_every_lane_proportional_to_the_window() {
        const WINDOW: usize = 64;
        const ENVELOPE: usize = 64;
        const BUILDS: usize = 50_000;
        let (c, q) = setup();
        let cartesian = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        for n in [1, 2, 4, 7] {
            let mut stem = windowed(n, WINDOW);
            let mut ts = 0;
            let states = vec![TupleState::new(); ENVELOPE];
            for first in (0..BUILDS).step_by(ENVELOPE) {
                let batch: TupleBatch = (first..BUILDS.min(first + ENVELOPE))
                    .map(|i| s_tuple(i as i64, 0))
                    .collect();
                stem.build_batch(&batch, &states[..batch.len()], &mut ts);
                for lane in stem.lanes() {
                    let slots = lane.store.slab().slots();
                    assert!(
                        slots <= 4 * (WINDOW + ENVELOPE),
                        "{n} shards: a lane's slab grew to {slots} slots by build {first}"
                    );
                }
            }
            assert_eq!(stem.len(), WINDOW);
            assert_eq!(stem.evictions(), (BUILDS - WINDOW) as u64);
            assert_eq!(stem.build_count(), BUILDS as u64);
            assert_side_maps_consistent(&stem);
            // What is left is the window's youngest rows, each still
            // answering under the stamp it was built with.
            let reply = probe_one(&mut stem, &r_tuple(1, 1), &TupleState::new(), &cartesian);
            let mut live: Vec<Timestamp> = reply
                .results
                .iter()
                .map(|(t, _)| t.component(TableIdx(1)).unwrap().ts)
                .collect();
            live.sort_unstable();
            let youngest = (BUILDS - WINDOW + 1..=BUILDS).map(|ts| ts as Timestamp);
            assert_eq!(live, youngest.collect::<Vec<_>>(), "{n} shards");
        }
    }

    #[test]
    fn unbounded_stem_side_maps_consistent() {
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            for i in 0..10 {
                build(&mut stem, &s_tuple(i, i), (i + 1) as u64);
            }
            // Duplicates leave the maps untouched.
            build(&mut stem, &s_tuple(3, 3), 50);
            assert_side_maps_consistent(&stem);
            assert_eq!(stem.len(), 10);
        }
    }

    #[test]
    fn deferred_bounce_clusters_by_partition() {
        for n in SHARD_COUNTS {
            let opts = StemOptions {
                deferred_bounce: true,
                partitions: 4,
                ..StemOptions::default()
            };
            let mut stem = s_stem_with(n, true, false, opts);
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
    }

    #[test]
    fn hybrid_mem_partitions_bounce_immediately() {
        for n in SHARD_COUNTS {
            let opts = StemOptions {
                deferred_bounce: true,
                partitions: 2,
                mem_partitions: 1,
                ..StemOptions::default()
            };
            let mut stem = s_stem_with(n, true, false, opts);
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
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 1); // fails y > 3
            build_fresh(&mut stem, &s_tuple(10, 9), 2); // passes
            let r = r_tuple(1, 10).with_timestamp(TableIdx(0), 5);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q2);
            assert_eq!(reply.results.len(), 1);
            let (tup, done) = &reply.results[0];
            assert_eq!(tup.value(TableIdx(1), 1), Some(&Value::Int(9)));
            assert!(done.contains(PredId(0)) && done.contains(PredId(1)));
        }
    }

    #[test]
    fn cartesian_probe_scans_store() {
        // Query with no predicates: probe returns cross product rows.
        let (c, q) = setup();
        let q = QuerySpec::new(&c, q.tables, vec![], None).unwrap();
        for n in SHARD_COUNTS {
            let mut stem = s_stem(n, true, false);
            build_fresh(&mut stem, &s_tuple(10, 1), 1);
            build_fresh(&mut stem, &s_tuple(20, 2), 2);
            let r = r_tuple(1, 999).with_timestamp(TableIdx(0), 5);
            let reply = probe_one(&mut stem, &r, &TupleState::new(), &q);
            assert_eq!(reply.results.len(), 2);
        }
    }

    /// Envelope-split invariance of the one build path: one envelope of N
    /// ≡ N envelopes of one — same results, same timestamps, same
    /// counters, same side maps — at every lane count.
    #[test]
    fn build_is_invariant_under_envelope_split() {
        let tuples: Vec<Tuple> = (0..20)
            .map(|i| s_tuple(i % 7, i))
            .chain(std::iter::once(s_tuple(3, 3)))
            .collect();
        let batch: TupleBatch = tuples.iter().cloned().collect();
        let states = vec![TupleState::new(); batch.len()];
        for n in SHARD_COUNTS {
            let mut whole = s_stem(n, true, false);
            let mut ts_whole = 0;
            let expected = whole.build_batch(&batch, &states, &mut ts_whole);

            let mut split = s_stem(n, true, false);
            let mut ts_split = 0;
            let got: Vec<BuildResult> = tuples
                .iter()
                .map(|tuple| {
                    let r = build(&mut split, tuple, ts_split + 1);
                    if matches!(r, BuildResult::Fresh(_)) {
                        ts_split += 1;
                    }
                    r
                })
                .collect();

            assert_eq!(expected, got);
            assert_eq!(ts_whole, ts_split);
            assert_eq!(whole.len(), split.len());
            assert_eq!(whole.max_ts(), split.max_ts());
            assert_eq!(whole.build_count(), split.build_count());
            assert_eq!(whole.duplicates_absorbed(), split.duplicates_absorbed());
            assert_eq!(split.duplicates_absorbed(), 1);
            for (a, b) in expected.iter().zip(&got) {
                if let (BuildResult::Fresh(x), BuildResult::Fresh(y)) = (a, b) {
                    assert_eq!(x.timestamp(), y.timestamp());
                }
            }
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

        // The same query with T joined by S.y < T.b instead: S's one
        // join column keeps its lanes, spans {R} and {R,T} bind it, and
        // span {T} binds nothing, so it visits every lane.
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
        for (n, (join_cols, q)) in SHARD_COUNTS.into_iter().flat_map(|n| cells.map(|c| (n, c))) {
            let mut stem = ShardedStem::new(
                TableIdx(1),
                SourceId(1),
                join_cols,
                true,
                false,
                StemOptions {
                    num_shards: n,
                    ..StemOptions::default()
                },
            );
            let lanes = if n > 1 && join_cols.len() == 1 {
                n + 1
            } else {
                1
            };
            assert_eq!(stem.lanes().len(), lanes, "{join_cols:?} at {n} shards");
            for i in 0..40i64 {
                build_fresh(&mut stem, &s_tuple(i % 10, i), (i + 1) as Timestamp);
            }
            let mut batched = ProbeReplySet::new();
            stem.probe_batch_into(&probes, &states, q, &mut batched);
            assert_eq!(batched.len(), probes.len());
            let mut seen_results = 0usize;
            for ((tuple, state), (meta, results)) in probes.iter().zip(&states).zip(batched.iter())
            {
                let want = probe_one(&mut stem, tuple, state, q);
                assert_eq!(want.results, results, "probe {tuple}");
                assert_eq!(want.outcome, meta.outcome, "probe {tuple}");
                assert_eq!(want.observed_ts, meta.observed_ts, "probe {tuple}");
                assert_eq!(want.raw_matches, meta.raw_matches, "probe {tuple}");
                seen_results += results.len();
            }
            assert!(seen_results > 0, "workload must form results");
        }
    }
}
