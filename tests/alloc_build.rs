//! Allocation accounting for the build path and for teardown.
//!
//! A store addresses its rows by slot: an index entry is an integer in a
//! flat per-slot column, not a heap block per key, and the dedup filter
//! and the build-timestamp column are more such columns. So building N
//! rows may allocate only for *growth* — a logarithmic number of
//! reallocations of a few vectors and tables — and dropping what was
//! built frees only those, however many distinct keys it indexed. The
//! counting global allocator of `tests/common/` turns that into
//! assertions; a per-key bucket or position list anywhere on the path
//! shows as thousands of counts against a bound of 128.

mod common;

use common::counted;
use std::sync::Arc;
use stems::catalog::SourceId;
use stems::core::stem::{BuildResult, StemOptions};
use stems::core::{Stem, TupleState};
use stems::storage::StoreKind;
use stems::types::{Row, TableIdx, Timestamp, Tuple, Value};

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
