//~ rule: row-keyed-map
//~ path: crates/core/src/stem.rs
// A lane that finds a stored row's build timestamp by hashing the whole
// row again: the row already has a slot, and a slot-indexed column
// answers with one load. (Maps keyed by anything else — the second
// field — stay silent, and so does the test module.)

pub(crate) struct Shard {
    ts_of: FxHashMap<Arc<Row>, Timestamp>,
    eot_keys: FxHashSet<Vec<(usize, Value)>>,
}

#[cfg(test)]
mod tests {
    fn model() -> std::collections::HashSet<Row> {
        Default::default()
    }
}
