//! Allocation accounting for the build path and for teardown.
//!
//! A store addresses its rows by slot: an index entry is an integer in a
//! flat per-slot column, not a heap block per key, and the dedup filter
//! and the build-timestamp column are more such columns. So building N
//! rows may allocate only for *growth* — a logarithmic number of
//! reallocations of a few vectors and tables — and dropping what was
//! built frees only those, however many distinct keys it indexed. A
//! SteM sized from its catalog (`Stem::expect_scan_rows`: the table's rows
//! and each join column's distinct keys) does not even grow: it reserves
//! every buffer at its first build and allocates none of them again. The
//! counting global allocator of `tests/common/` turns that into
//! assertions; a per-key bucket or position list anywhere on the path
//! shows as thousands of counts against a bound of 128.

mod common;

use common::counted;
use std::sync::Arc;
use stems::catalog::{Catalog, ScanSpec, SourceId, TableDef};
use stems::core::stem::{BuildResult, StemOptions};
use stems::core::{Stem, TupleState};
use stems::storage::StoreKind;
use stems::types::{ColumnType, Row, Schema, TableIdx, Timestamp, Tuple, Value};

const ROWS: usize = 4096;
/// Growth only: a few vectors and tables, each doubling ~12 times.
const GROWTH: usize = 128;

#[test]
fn building_and_dropping_allocate_for_growth_not_per_key() {
    // Distinct keys in both indexed columns: the worst case for anything
    // that keeps a block per key.
    let rows: Vec<Arc<Row>> = (0..ROWS as i64)
        .map(|i| Row::shared(vec![Value::Int(i), Value::Int(-i)]))
        .collect();
    let kinds = [
        StoreKind::List,
        StoreKind::Hash,
        StoreKind::Adaptive { threshold: 128 },
    ];
    let [_, hash, adaptive] = kinds.map(|kind| {
        let mut store = kind.build(&[0, 1]);
        // The test co-owns the rows, so neither the batch handed over nor
        // the rows themselves are the store's to allocate or free.
        let batch = rows.clone();
        let ((allocs, _), ()) = counted(|| store.insert_batch(batch));
        assert_eq!(store.len(), ROWS);
        assert!(
            allocs <= GROWTH,
            "{kind:?}: inserting {ROWS} rows took {allocs} allocations"
        );
        let ((_, frees), ()) = counted(|| drop(store));
        assert!(
            frees <= GROWTH,
            "{kind:?}: dropping a store of {ROWS} rows took {frees} frees"
        );
        allocs
    });
    // One batch path, and indexing the slab in place grows the same tables
    // through the same sizes as indexing from row 0.
    assert!(
        adaptive <= hash,
        "Adaptive took {adaptive} allocations, Hash {hash}"
    );

    // The SteM around the store adds the dedup filter and the timestamp
    // column — more per-slot columns, so more growth, not more per-row
    // blocks. What a build must allocate per row is its bounce-back: the
    // stamped copy of the tuple (one component vector).
    let mut stem = Stem::new(
        TableIdx(0),
        SourceId(0),
        &[0, 1],
        true,
        false,
        StemOptions::default(),
    );
    let batch: Vec<Tuple> = rows
        .iter()
        .map(|r| Tuple::singleton(TableIdx(0), r.clone()))
        .collect();
    let states = vec![TupleState::new(); ROWS];
    let mut ts: Timestamp = 0;
    let ((allocs, _), results) = counted(|| stem.build_batch(&batch, &states, &mut ts));
    assert!(results.iter().all(|r| matches!(r, BuildResult::Fresh(_))));
    assert_eq!((stem.len(), ts), (ROWS, ROWS as Timestamp));
    assert!(
        allocs <= ROWS + 2 * GROWTH,
        "building one envelope of {ROWS} fresh rows took {allocs} allocations"
    );
}

/// A scan-fed SteM sized from its catalog reserves its slab, timestamp
/// column, dedup filter and both join indexes at the first envelope: one
/// index over distinct keys, one over 100 keys that repeat, whose chains
/// link slots.
/// Building the rest of the table 64 rows at a time then allocates the
/// same few blocks per envelope, which are the call's own result and the
/// batch it clones, and no buffer of the SteM grows again. The same SteM
/// unsized regrows its buffers at every power of two.
#[test]
fn a_catalog_sized_stem_allocates_its_buffers_once() {
    let mut catalog = Catalog::new();
    let schema = Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]);
    let rows = (0..ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i % 100)]);
    let def = TableDef::new("R", schema).with_rows(rows.collect());
    let source = catalog.add_table(def).unwrap();
    catalog.add_scan(source, ScanSpec::default()).unwrap();
    let table = catalog.table(source).unwrap();
    let envelopes: Vec<Vec<Tuple>> = table
        .rows()
        .chunks(64)
        .map(|chunk| {
            let tuple = |r: &Arc<Row>| Tuple::singleton(TableIdx(0), r.clone());
            chunk.iter().map(tuple).collect()
        })
        .collect();
    let states = vec![TupleState::new(); 64];
    // Allocations per envelope, in build order.
    let build = |sized: bool| -> Vec<usize> {
        let opts = StemOptions::default();
        let mut stem = Stem::new(TableIdx(0), source, &[0, 1], true, false, opts);
        if sized {
            let keys = |col| catalog.distinct_keys(source, col);
            stem.expect_scan_rows(table.num_rows(), keys);
        }
        let mut ts: Timestamp = 0;
        let allocs = envelopes.iter().map(|batch| {
            let ((allocs, _), results) = counted(|| stem.build_batch(batch, &states, &mut ts));
            assert!(results.iter().all(|r| matches!(r, BuildResult::Fresh(_))));
            allocs
        });
        let allocs = allocs.collect();
        assert_eq!((stem.len(), ts), (ROWS, ROWS as Timestamp));
        allocs
    };
    let sized = build(true);
    let per_call = sized[1];
    assert!(
        sized[1..].iter().all(|&a| a == per_call),
        "a sized SteM allocated again after its first envelope: {sized:?}"
    );
    assert!(
        sized[0] > per_call,
        "the first envelope reserves: {sized:?}"
    );
    let grown = build(false);
    assert!(
        grown[1..].iter().any(|&a| a > per_call),
        "an unsized SteM grows as it builds: {grown:?}"
    );
}

/// A reservation sizes the slab always, and an index only where the
/// store will index the rows it is reserved for: a `List` store never
/// does, and an `Adaptive` one that stays under its threshold does not
/// yet, so both reserve their slab alone — one block, against one per
/// index more for a store that indexes, and one more per index whose
/// keys repeat (its link column).
#[test]
fn only_a_store_that_will_index_reserves_its_indexes() {
    let cases = [
        (StoreKind::List, ROWS, 1),
        (StoreKind::List, 64, 1),
        (StoreKind::Hash, ROWS, 3),
        (StoreKind::Hash, 64, 5),
        (StoreKind::Adaptive { threshold: ROWS }, 64, 1),
        (StoreKind::Adaptive { threshold: 128 }, ROWS, 3),
    ];
    for (kind, keys, want) in cases {
        let mut store = kind.build(&[0, 1]);
        let ((allocs, _), ()) = counted(|| store.reserve(ROWS, |_| keys));
        assert_eq!(allocs, want, "{kind:?} over {keys} keys");
    }
}
