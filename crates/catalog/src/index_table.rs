//! An index access method's lookup table, owned by the catalog.

use std::collections::HashMap;
use std::sync::Arc;
use stems_types::{Row, Value};

/// What an index access method serves: bind values → the source's rows
/// carrying them, in catalog order.
///
/// It is a pure function of the table's rows and the index's bind
/// columns, both fixed once the index is registered, so
/// [`crate::Catalog::add_index`] builds it exactly once and every plan over
/// the catalog — each executor, each query of a server, each clone of the
/// catalog — shares it through [`crate::Catalog::index_table`]. Ownership
/// is the only key: the table lives and dies with the catalog entry that
/// built it, so no other catalog's rows can ever answer from it.
///
/// It is read once per index *response*, not per tuple, so it keeps the
/// standard hasher rather than the SteMs' Fx one.
#[derive(Debug, Default)]
pub struct IndexTable {
    rows: HashMap<Vec<Value>, Vec<Arc<Row>>>,
}

impl IndexTable {
    /// Key every row of `rows` on its `bind_cols` values, each normalized
    /// by [`Value::equality_key`] (integral floats key as ints). A row whose
    /// bind value can never satisfy an equality — NULL, the EOT marker —
    /// answers no lookup and is left out.
    pub fn build(rows: &[Arc<Row>], bind_cols: &[usize]) -> IndexTable {
        let mut table: HashMap<Vec<Value>, Vec<Arc<Row>>> = HashMap::new();
        for row in rows {
            let key: Option<Vec<Value>> = bind_cols
                .iter()
                .map(|c| row.get(*c).and_then(Value::equality_key))
                .collect();
            if let Some(key) = key {
                table.entry(key).or_default().push(Arc::clone(row));
            }
        }
        IndexTable { rows: table }
    }

    /// The rows a lookup on `key` answers, in catalog order (empty when
    /// none). `key` must already be in equality-key form, as a probe's
    /// bindings are.
    pub fn get(&self, key: &[Value]) -> &[Arc<Row>] {
        self.rows.get(key).map_or(&[], Vec::as_slice)
    }

    /// Distinct keys.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_equality_normalized_and_rows_keep_catalog_order() {
        let rows: Vec<Arc<Row>> = [
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Float(1.0), Value::Int(11)],
            vec![Value::Null, Value::Int(12)],
            vec![Value::Int(2), Value::Int(13)],
            vec![Value::Int(1), Value::Int(14)],
        ]
        .into_iter()
        .map(Row::shared)
        .collect();
        let table = IndexTable::build(&rows, &[0]);
        assert_eq!(table.len(), 2, "NULL keys nothing");
        let ones: Vec<&Arc<Row>> = table.get(&[Value::Int(1)]).iter().collect();
        assert_eq!(ones.len(), 3);
        for (got, want) in ones.into_iter().zip([&rows[0], &rows[1], &rows[4]]) {
            assert!(Arc::ptr_eq(got, want));
        }
        assert_eq!(table.get(&[Value::Int(2)]).len(), 1);
        assert!(table.get(&[Value::Int(3)]).is_empty());
        assert!(table.get(&[Value::Null]).is_empty());
        // Two bind columns key on the pair.
        let pairs = IndexTable::build(&rows, &[0, 1]);
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs.get(&[Value::Int(1), Value::Int(11)]).len(), 1);
    }
}
