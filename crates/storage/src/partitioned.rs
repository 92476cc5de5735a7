//! Grace-style partitioned store.

use crate::flat::CandidateBuf;
use crate::fxhash::FxBuildHasher;
use crate::slab::{Slab, Slot};
use crate::store::{index_key, DictStore};
use std::hash::BuildHasher;
use std::sync::Arc;
use stems_types::{KeyHash, Row, Value};

/// The fixed term of [`DictStore::approx_bytes`] — a constant of the
/// accounting model (see `HashStore`'s), not the struct's current size.
const HEADER_BYTES: usize = 104;

/// A dictionary hash-partitioned on one column, with a configurable number
/// of memory-resident partitions.
///
/// This backs the paper's §3.1 observation that the *SteM implementation*
/// chooses which classical algorithm a routing simulates: "the following
/// 'asynchronous' hash index implementation simulates a Grace Hash Join ...
/// the SteMs create hash partitions on disk. But instead of bouncing back
/// these build tuples immediately, they do so asynchronously, clustered by
/// the hash partition." Keeping a prefix of partitions in memory and
/// releasing their tuples first yields Hybrid-Hash (DeWitt et al.).
///
/// The partition structure lives here; the *timing* of clustered
/// bounce-backs is engine behaviour (see `stems-core`'s SteM options).
/// Spilled partitions answer lookups too — the store is logically complete;
/// the simulation charges extra latency for spilled access.
#[derive(Debug)]
pub struct PartitionedStore {
    part_col: usize,
    /// Rows in arrival order (the scan / FIFO order); partition-major
    /// order is available via [`PartitionedStore::partition_slots`].
    slab: Slab,
    /// Each partition's slots, ascending (= insertion order).
    partitions: Vec<Vec<Slot>>,
    /// Slots of rows whose partition key is un-indexable (NULL/EOT or a
    /// missing column). They used to land in partition 0 and skew its
    /// residency and spill accounting; the overflow lane keeps every
    /// partition's stats equal to its real key population. Overflow rows
    /// match nothing on the partition column but stay visible to scans
    /// and to lookups on other columns.
    overflow: Vec<Slot>,
    /// Partitions `< mem_resident` are "in memory"; the rest are "spilled".
    mem_resident: usize,
    hasher: FxBuildHasher,
}

impl PartitionedStore {
    /// `part_col`: the column to partition on (the equi-join column).
    /// `num_partitions`: Grace fan-out. `mem_resident`: how many partitions
    /// stay memory-resident (0 = pure Grace, all = plain hash join).
    pub fn new(part_col: usize, num_partitions: usize, mem_resident: usize) -> PartitionedStore {
        assert!(num_partitions > 0, "need at least one partition");
        PartitionedStore {
            part_col,
            slab: Slab::new(),
            partitions: (0..num_partitions).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            mem_resident: mem_resident.min(num_partitions),
            hasher: FxBuildHasher::default(),
        }
    }

    /// The partition a key belongs to. `None` for un-indexable keys
    /// (NULL/EOT), which go to the overflow lane on insert and match
    /// nothing on the partition column.
    pub fn partition_of(&self, key: &Value) -> Option<usize> {
        index_key(key).map(|k| (self.hasher.hash_one(&k) % self.partitions.len() as u64) as usize)
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Is partition `i` memory-resident?
    pub fn is_mem_resident(&self, i: usize) -> bool {
        i < self.mem_resident
    }

    /// Slots of partition `i` in insertion order.
    pub fn partition_slots(&self, i: usize) -> &[Slot] {
        &self.partitions[i]
    }

    /// Slots of the rows whose partition key is un-indexable, in
    /// insertion order.
    pub fn overflow_slots(&self) -> &[Slot] {
        &self.overflow
    }

    /// The lane a row's slot is listed in: its key's partition, or the
    /// overflow lane.
    fn lane_mut(&mut self, row: &Row) -> &mut Vec<Slot> {
        match row.get(self.part_col).and_then(|v| self.partition_of(v)) {
            Some(p) => &mut self.partitions[p],
            None => &mut self.overflow,
        }
    }
}

impl DictStore for PartitionedStore {
    fn slab(&self) -> &Slab {
        &self.slab
    }

    fn insert(&mut self, row: Arc<Row>) -> Slot {
        let slot = self.slab.push(row.clone());
        self.lane_mut(&row).push(slot);
        slot
    }

    fn lookup_slots(&self, col: usize, key: &Value, _hash: KeyHash, out: &mut CandidateBuf) {
        if col == self.part_col {
            // Overflow rows have no indexable partition key, so they can
            // never equal `key` — the partition alone is complete.
            if let Some(p) = self.partition_of(key) {
                let slots = self.partitions[p].iter().copied();
                self.slab.filter_eq(col, key, slots, out);
            }
        } else {
            // Other columns of an overflow row may be perfectly indexable:
            // the logical store is partitions ∪ overflow.
            let slots = self.partitions.iter().flatten().chain(&self.overflow);
            self.slab.filter_eq(col, key, slots.copied(), out);
        }
    }

    fn remove(&mut self, slot: Slot) -> Option<Arc<Row>> {
        let row = self.slab.remove(slot)?;
        let lane = self.lane_mut(&row);
        let pos = lane
            .binary_search(&slot)
            .expect("a live slot is in its lane");
        lane.remove(pos);
        Some(row)
    }

    fn clear(&mut self) {
        self.slab.clear();
        self.partitions.iter_mut().for_each(Vec::clear);
        self.overflow.clear();
    }

    fn approx_bytes(&self) -> usize {
        self.slab.bytes() + HEADER_BYTES
    }

    fn backend(&self) -> &'static str {
        "partitioned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance::row;

    #[test]
    fn rows_land_in_consistent_partitions() {
        let s = {
            let mut s = PartitionedStore::new(0, 4, 0);
            for i in 0..100 {
                s.insert(row(&[i, i * 2]));
            }
            s
        };
        assert_eq!(s.len(), 100);
        let total: usize = (0..4).map(|i| s.partition_slots(i).len()).sum();
        assert_eq!(total, 100);
        // Each key must be findable through its partition.
        for i in 0..100 {
            let hits = s.lookup_eq(0, &Value::Int(i));
            assert_eq!(hits.len(), 1, "key {i}");
        }
    }

    #[test]
    fn lookup_on_non_partition_column_scans_all() {
        let mut s = PartitionedStore::new(0, 4, 0);
        s.insert(row(&[1, 7]));
        s.insert(row(&[2, 7]));
        assert_eq!(s.lookup_eq(1, &Value::Int(7)).len(), 2);
    }

    #[test]
    fn mem_residency_prefix() {
        let s = PartitionedStore::new(0, 4, 2);
        assert!(s.is_mem_resident(0));
        assert!(s.is_mem_resident(1));
        assert!(!s.is_mem_resident(2));
        let all_mem = PartitionedStore::new(0, 3, 9);
        assert!(all_mem.is_mem_resident(2));
    }

    #[test]
    fn null_keys_match_nothing() {
        let mut s = PartitionedStore::new(0, 2, 0);
        s.insert(Arc::new(Row::new(vec![Value::Null])));
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup_eq(0, &Value::Null).len(), 0);
    }

    #[test]
    fn unindexable_keys_take_overflow_lane_not_partition_zero() {
        // Partition 0's stats must reflect its real key population: rows
        // with NULL/EOT partition keys go to the overflow lane.
        let mut s = PartitionedStore::new(0, 4, 1);
        for i in 0..20 {
            s.insert(row(&[i, i]));
        }
        let real_p0 = s.partition_slots(0).len();
        s.insert(Arc::new(Row::new(vec![Value::Null, Value::Int(7)])));
        s.insert(Arc::new(Row::new(vec![Value::Eot, Value::Int(7)])));
        assert_eq!(s.len(), 22);
        assert_eq!(
            s.partition_slots(0).len(),
            real_p0,
            "partition 0 must not absorb un-indexable keys"
        );
        assert_eq!(s.overflow_slots().len(), 2);
        let keyed: usize = (0..4).map(|i| s.partition_slots(i).len()).sum();
        assert_eq!(keyed, 20, "partition stats count exactly the keyed rows");
        assert_eq!(s.scan().len(), 22);
    }

    #[test]
    fn overflow_rows_visible_to_other_column_lookups() {
        let mut s = PartitionedStore::new(0, 2, 0);
        s.insert(row(&[1, 7]));
        s.insert(Arc::new(Row::new(vec![Value::Null, Value::Int(7)])));
        // The NULL-keyed row still answers lookups on column 1 …
        assert_eq!(s.lookup_eq(1, &Value::Int(7)).len(), 2);
        // … and never pollutes partition-column lookups.
        assert_eq!(s.lookup_eq(0, &Value::Int(1)).len(), 1);
    }

    #[test]
    fn overflow_rows_removable() {
        let mut s = PartitionedStore::new(0, 2, 0);
        let null_row = Arc::new(Row::new(vec![Value::Null, Value::Int(7)]));
        let slot = s.insert(null_row.clone());
        s.insert(row(&[1, 2]));
        assert_eq!(s.remove(slot), Some(null_row));
        assert_eq!(s.remove(slot), None);
        assert_eq!(s.len(), 1);
        assert!(s.overflow_slots().is_empty());
        assert_eq!(s.scan().len(), 1);
    }

    #[test]
    fn remove_and_scan() {
        let mut s = PartitionedStore::new(0, 2, 0);
        let first = s.insert(row(&[1]));
        let second = s.insert(row(&[2]));
        assert_eq!(s.remove(first), Some(row(&[1])));
        assert_eq!(s.remove(first), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.scan().len(), 1);
        assert_eq!(s.slab().oldest(), Some(second));
    }
}
