//! Dictionary stores backing State Modules.
//!
//! A SteM "encapsulates a dictionary data structure over tuples from a
//! table, and handles build (insert) and probe (lookup) requests on that
//! dictionary" (paper §1). The paper stresses that *which* dictionary a
//! SteM uses is an implementation choice the SteM may even adapt on its own
//! (§3.1: "the SteM may use a linked list when it holds a small number of
//! tuples, and switch to a hash-based implementation when the list size
//! increases"), and that different dictionary implementations make routing
//! simulate different classical join algorithms:
//!
//! * hash indexes ⇒ (n-ary) symmetric hash join,
//! * partitioned "asynchronous" stores ⇒ Grace / hybrid-hash joins,
//! * sorted runs (tournament trees) ⇒ sort-merge join.
//!
//! This crate provides those stores behind one trait, [`DictStore`]:
//!
//! * [`ListStore`] — the row slab alone, lookups by filtered scan.
//! * [`HashStore`] — secondary hash indexes on each join column, "pointers
//!   to the same tuples in memory" (paper §2.1.4): slots of the one slab.
//! * [`AdaptiveStore`] — starts as a list, switches to hash at a threshold.
//! * [`PartitionedStore`] — Grace-style hash partitions with clustered
//!   draining, used to delay and batch bounce-backs.
//! * [`SortedStore`] — a sorted run for merge-style access.
//!
//! # One slab, addressed by slot
//!
//! Every backend embeds one [`Slab`]: the store's rows in insertion
//! order, each at a dense **slot** ([`Slot`], the row's insertion
//! ordinal), with the live/bytes accounting and the scan and oldest-row
//! cursors kept once. A backend is then only an *index over slots* — a
//! chain per key hash, a sorted run, a list per partition, or nothing —
//! and the whole store contract deals in slots: `insert` returns one,
//! [`DictStore::lookup_eq_flat`] answers them, `row(slot)` resolves one
//! back to its shared [`Arc<Row>`], removal is by slot. So an index
//! entry is an integer in a flat column rather than a heap block per key,
//! a candidate costs no reference-count traffic until someone actually
//! uses the row, and whoever keeps facts *about* stored rows (a SteM
//! lane's build timestamps, its FIFO window) keeps them in slot-indexed
//! columns instead of maps keyed by the row. Dead slots are reclaimed by
//! [`DictStore::compact`], which renumbers the survivors densely in
//! insertion order.
//!
//! Beside the stores: [`RowSet`], the set-semantics duplicate filter of
//! §3.2 (row value → slot, under a whole-row hash the caller computes
//! once); a small in-repo Fx-style hasher ([`fxhash`]) for hot integer
//! keys; and the flat probe machinery — [`CandidateBuf`] (the
//! caller-owned slot arena behind [`DictStore::lookup_eq_flat`], with
//! key-run dedup) and [`SlotChains`] (hash-once chains threaded through
//! a per-slot column: the hash index's and the dedup filter's common
//! shape).
//!
//! Why a chain walk re-checks the key: a chain holds every slot filed
//! under one 64-bit *hash*, so colliding keys share it. The walker has
//! the slab at hand and compares each slot's own column (or, for dedup,
//! the whole row) with what it is looking for — which keeps `raw_matches`
//! and answer order exact, and is why no index stores key copies.
//!
//! [`Arc<Row>`]: stems_types::Row

pub mod fxhash;

mod adaptive;
mod dedup;
mod flat;
mod hash;
mod list;
mod partitioned;
mod prehash;
mod slab;
mod sorted;
mod store;

pub use adaptive::AdaptiveStore;
pub use dedup::RowSet;
pub use flat::CandidateBuf;
pub use hash::HashStore;
pub use list::ListStore;
pub use partitioned::PartitionedStore;
pub use prehash::SlotChains;
pub use slab::{Slab, Slot};
pub use sorted::SortedStore;
pub use store::{index_key, DictStore, StoreKind};
