//! The dictionary backing State Modules.
//!
//! A SteM "encapsulates a dictionary data structure over tuples from a
//! table, and handles build (insert) and probe (lookup) requests on that
//! dictionary" (paper §1). How the dictionary is implemented is the SteM's
//! own business, which it may even adapt on its own (§3.1: "the SteM may
//! use a linked list when it holds a small number of tuples, and switch to
//! a hash-based implementation when the list size increases").
//!
//! # One store, three ways to ask for it
//!
//! There is one dictionary, [`Store`]: a row slab plus, when it keeps
//! them, a hash index on each join column — "pointers to the same tuples
//! in memory" (§2.1.4), the pointers being slots of the one slab. A
//! [`StoreKind`] only says *when* the indexes exist:
//!
//! * [`StoreKind::List`] — never: the slab alone, lookups by filtered
//!   scan. The micro-bench uses it to show why SteMs index their join
//!   columns.
//! * [`StoreKind::Hash`] — from the first row; the default, and what
//!   makes routing realize the (n-ary) symmetric hash join.
//! * [`StoreKind::Adaptive`] — once the store outgrows a threshold, the
//!   paper's list→hash example; the slab is indexed in place, so slots
//!   survive the switch.
//!
//! The paper's other two simulations are not dictionaries here. A Grace /
//! hybrid-hash join is a matter of *when build tuples bounce back* —
//! `StemOptions::deferred_bounce` (with `partitions` / `mem_partitions`)
//! in `stems-core`, over an ordinary hash store — and its static
//! counterpart is `crates/baseline/src/grace.rs`; sort-merge is
//! `crates/baseline/src/sortmerge.rs`.
//!
//! # One slab, addressed by slot
//!
//! The store embeds one [`Slab`]: its rows in insertion order, each at a
//! dense **slot** ([`Slot`], the row's insertion ordinal), with the
//! live/bytes accounting and the scan and oldest-row cursors. The indexes
//! are chains of slots, and the whole store contract deals in slots:
//! `insert` returns one, [`Store::lookup_eq_flat`] answers them — always
//! in insertion order — `row(slot)` resolves one back to its shared
//! [`Arc<Row>`], removal is by slot. So an index entry is an integer in a
//! flat column rather than a heap block per key, a candidate costs no
//! reference-count traffic until someone actually uses the row, and
//! whoever keeps facts *about* stored rows (a SteM lane's build
//! timestamps, its FIFO window) keeps them in slot-indexed columns
//! instead of maps keyed by the row. Dead slots are reclaimed by
//! [`Store::compact`], which renumbers the survivors densely in insertion
//! order.
//!
//! Beside the store: [`RowSet`], the set-semantics duplicate filter of
//! §3.2 (row value → slot, under a whole-row hash the caller computes
//! once); a small in-repo Fx-style hasher ([`fxhash`]) for hot integer
//! keys; and the flat probe machinery — [`CandidateBuf`] (the
//! caller-owned slot arena behind [`Store::lookup_eq_flat`], one span per
//! probe key, repeats included) and [`SlotChains`] (hash-once chains
//! threaded through a per-slot column: the hash index's and the dedup
//! filter's common shape).
//!
//! Why a chain walk re-checks the key: a chain holds every slot filed
//! under one 64-bit *hash*, so colliding keys share it. The walker has
//! the slab at hand and compares each slot's own column (or, for dedup,
//! the whole row) with what it is looking for — which keeps `raw_matches`
//! and answer order exact, and is why no index stores key copies.
//!
//! [`Arc<Row>`]: stems_types::Row

pub mod fxhash;

mod dedup;
mod flat;
mod prehash;
mod slab;
mod store;

pub use dedup::RowSet;
pub use flat::CandidateBuf;
pub use prehash::SlotChains;
pub use slab::{Slab, Slot};
pub use store::{index_key, Store, StoreKind};

// The per-kind suites, one module per `StoreKind`, so a test's ID names the
// kind it exercises (`hash::tests::…`).

#[cfg(test)]
mod list {
    mod tests {
        use crate::store::conformance;
        use crate::StoreKind;

        #[test]
        fn conformance_suite() {
            conformance::run_suite(StoreKind::List.build(&[1]));
        }
    }
}

#[cfg(test)]
mod hash {
    mod tests {
        use crate::store::conformance::{self, row};
        use crate::{CandidateBuf, StoreKind};
        use std::sync::Arc;
        use stems_types::{HashedKey, Value};

        #[test]
        fn conformance_suite() {
            conformance::run_suite(StoreKind::Hash.build(&[1]));
        }

        #[test]
        fn conformance_without_matching_index() {
            // Same behaviour expected when lookups hit the scan-filter path.
            conformance::run_suite(StoreKind::Hash.build(&[0]));
        }

        #[test]
        fn multiple_secondary_indexes_share_rows() {
            // Mirrors the paper's S table: indexes on both x and y.
            let mut s = StoreKind::Hash.build(&[0, 1]);
            s.insert(row(&[7, 8]));
            let by_x = s.lookup_eq(0, &Value::Int(7));
            let by_y = s.lookup_eq(1, &Value::Int(8));
            assert_eq!(by_x.len(), 1);
            assert_eq!(by_y.len(), 1);
            // same allocation, not a copy
            assert!(Arc::ptr_eq(&by_x[0], &by_y[0]));
        }

        #[test]
        fn duplicate_index_cols_deduped() {
            // Two distinct columns, so two (index, row) pairs accounted.
            let mut s = StoreKind::Hash.build(&[1, 1, 0]);
            let r = row(&[1, 2]);
            s.insert(r.clone());
            assert_eq!(s.approx_bytes(), 64 + r.approx_bytes() + 2 * 16);
            assert_eq!(s.lookup_eq(0, &Value::Int(1)).len(), 1);
            assert_eq!(s.lookup_eq(1, &Value::Int(2)).len(), 1);
        }

        #[test]
        fn removal_cleans_index_entries() {
            let mut s = StoreKind::Hash.build(&[0]);
            let first = s.insert(row(&[5]));
            let second = s.insert(row(&[5]));
            assert!(s.remove(first).is_some());
            assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 1);
            assert!(s.remove(second).is_some());
            assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 0);
            assert_eq!(s.len(), 0);
            // The emptied chain is gone, not dangling: the key indexes afresh.
            let third = s.insert(row(&[5]));
            assert_eq!(s.lookup_eq(0, &Value::Int(5)).len(), 1);
            assert!(s.remove(third).is_some());
        }

        #[test]
        fn out_of_range_index_column_is_harmless() {
            let mut s = StoreKind::Hash.build(&[9]);
            s.insert(row(&[1, 2]));
            assert_eq!(s.len(), 1);
            assert_eq!(s.lookup_eq(9, &Value::Int(1)).len(), 0);
            assert_eq!(s.lookup_eq(0, &Value::Int(1)).len(), 1);
        }

        #[test]
        fn flat_lookup_skips_tombstones_and_answers_every_key() {
            let mut s = StoreKind::Hash.build(&[0]);
            let dead = s.insert(row(&[5, 1]));
            s.insert(row(&[5, 2]));
            s.insert(row(&[6, 3]));
            assert!(s.remove(dead).is_some());
            let keys: Vec<HashedKey> = [
                Value::Int(5),
                Value::Float(5.0),
                Value::Int(6),
                Value::Int(5),
            ]
            .into_iter()
            .map(HashedKey::new)
            .collect();
            let mut buf = CandidateBuf::new();
            s.lookup_eq_flat(0, &keys, &mut buf);
            assert_eq!(buf.num_keys(), 4);
            assert_eq!(buf.candidates(0), [1]);
            assert_eq!(buf.candidates(2), [2]);
            // The coerced and the repeated key answer in full, each in its
            // own span: four keys, four candidates written.
            assert_eq!(buf.candidates(1), buf.candidates(0), "coercion");
            assert_eq!(buf.candidates(3), buf.candidates(0), "repeat");
            assert_eq!(buf.rows_stored(), 4);
        }

        #[test]
        fn accounting_model_terms_are_pinned() {
            // header + rows + 16 bytes per (index, row) pair — the numbers
            // budgets were tuned against. Indexed from construction, join
            // columns or not (the cross-product SteM); unindexed, the
            // header is the list's.
            let mut s = StoreKind::Hash.build(&[0, 1]);
            assert_eq!(s.approx_bytes(), 64);
            let r = row(&[1, 2]);
            s.insert(r.clone());
            assert_eq!(s.approx_bytes(), 64 + r.approx_bytes() + 2 * 16);
            let mut cross = StoreKind::Hash.build(&[]);
            assert_eq!((cross.backend(), cross.approx_bytes()), ("hash", 64));
            cross.insert(r.clone());
            assert_eq!(cross.approx_bytes(), 64 + r.approx_bytes());
            let mut list = StoreKind::List.build(&[0, 1]);
            assert_eq!(list.approx_bytes(), 32);
            list.insert(r.clone());
            assert_eq!(list.approx_bytes(), 32 + r.approx_bytes());
        }
    }
}

#[cfg(test)]
mod adaptive {
    mod tests {
        use crate::store::conformance::{self, row};
        use crate::{CandidateBuf, Slot, StoreKind};
        use std::sync::Arc;
        use stems_types::{HashedKey, Row, Value};

        #[test]
        fn conformance_suite_small_threshold() {
            // Upgrades mid-suite; behaviour must be indistinguishable.
            conformance::run_suite(StoreKind::Adaptive { threshold: 2 }.build(&[1]));
        }

        #[test]
        fn conformance_suite_large_threshold() {
            // Never upgrades; stays a list throughout.
            conformance::run_suite(StoreKind::Adaptive { threshold: 1_000 }.build(&[1]));
        }

        #[test]
        fn upgrade_happens_exactly_once_at_threshold() {
            let mut s = StoreKind::Adaptive { threshold: 3 }.build(&[0]);
            for i in 0..3 {
                s.insert(row(&[i]));
            }
            assert_eq!(s.backend(), "list");
            s.insert(row(&[3]));
            assert_eq!(s.backend(), "hash");
            for i in 4..10 {
                s.insert(row(&[i]));
            }
            // Data survived the upgrade, and each row is indexed once.
            assert_eq!(s.len(), 10);
            for i in 0..10 {
                assert_eq!(s.lookup_eq(0, &Value::Int(i)).len(), 1, "key {i}");
            }
            // Once indexed, always: shrinking below the threshold, and
            // emptying, keep the indexes.
            for slot in 0..8 {
                assert!(s.remove(slot).is_some());
            }
            s.compact();
            assert_eq!((s.len(), s.backend()), (2, "hash"));
            s.clear();
            assert_eq!(s.backend(), "hash");
        }

        #[test]
        fn slots_keep_their_numbers_across_the_upgrade() {
            let mut s = StoreKind::Adaptive { threshold: 3 }.build(&[0]);
            let rows: Vec<Arc<Row>> = (0..4).map(|i| row(&[i % 2, i])).collect();
            for (slot, r) in rows.iter().take(3).enumerate() {
                assert_eq!(s.insert(r.clone()), slot as Slot);
            }
            // A dead slot made while still a list must stay dead — and
            // unnumbered-over — once the store indexes its slab.
            assert!(s.remove(1).is_some());
            for r in &rows {
                s.insert(r.clone());
            }
            assert_eq!(s.backend(), "hash");
            assert_eq!(s.row(1), None);
            for slot in [0, 2, 3, 4, 5, 6] {
                let want = &rows[if slot < 3 { slot } else { slot - 3 }];
                assert!(Arc::ptr_eq(s.row(slot as Slot).unwrap(), want), "{slot}");
            }
            // The index built at the upgrade answers the pre-upgrade slots.
            let mut buf = CandidateBuf::new();
            let key = [HashedKey::new(Value::Int(0))];
            s.lookup_eq_flat(0, &key, &mut buf);
            assert_eq!(buf.candidates(0), [0, 2, 3, 5]);
        }

        #[test]
        fn scan_order_preserved_across_upgrade() {
            let mut s = StoreKind::Adaptive { threshold: 1 }.build(&[0]);
            s.insert(row(&[10]));
            s.insert(row(&[11]));
            s.insert(row(&[12]));
            let keys: Vec<_> = s
                .scan()
                .iter()
                .map(|r| r.get(0).cloned().unwrap())
                .collect();
            assert_eq!(keys, vec![Value::Int(10), Value::Int(11), Value::Int(12)]);
        }
    }
}
