//! The correctness oracle behind `failed`: an order-free digest of a
//! result multiset, and a small left-deep hash join written here (not the
//! engine's) that computes the expected digest at full size.

use crate::workloads::{OracleQuery, Workload};
use std::collections::HashMap;
use stems::types::Value;

/// Row count plus an order-insensitive hash of a result multiset: the
/// wrapping sum of per-row hashes, so neither side needs to sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a [Value]>) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add(row.iter());
        }
        d
    }

    fn add<'a>(&mut self, row: impl Iterator<Item = &'a Value>) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(row_hash(row));
    }
}

/// FNV-1a over a type-tagged rendering of each value: `Int(1)` and
/// `Float(1.0)` are different results.
fn row_hash<'a>(row: impl Iterator<Item = &'a Value>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for v in row {
        match v {
            Value::Null => eat(&[0]),
            Value::Int(i) => {
                eat(&[1]);
                eat(&i.to_le_bytes());
            }
            Value::Float(f) => {
                eat(&[2]);
                eat(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                eat(&[3]);
                eat(s.as_bytes());
                eat(&[0xff]);
            }
            Value::Bool(b) => eat(&[4, u8::from(*b)]),
            Value::Eot => eat(&[5]),
        }
    }
    h
}

/// Integer join key of a generated row (every join column is `Int`).
fn key(row: &[Value], col: usize) -> i64 {
    match row[col] {
        Value::Int(k) => k,
        ref other => panic!("join column {col} holds {other:?}, expected Int"),
    }
}

/// Expected digest of SQL text `q` of `w`: filter each table, then attach
/// the tables in FROM order through one hash table per join.
pub fn expected(w: &Workload, q: &OracleQuery) -> Digest {
    let tables: Vec<Vec<&[Value]>> = w
        .sources
        .iter()
        .enumerate()
        .map(|(t, src)| {
            w.catalog
                .table_expect(*src)
                .rows()
                .iter()
                .map(|r| r.values())
                .filter(|r| (q.filter)(t, r))
                .collect()
        })
        .collect();
    // A partial result is one row reference per table joined so far.
    let mut partial: Vec<Vec<&[Value]>> = tables[0].iter().map(|r| vec![*r]).collect();
    for (i, &(left, left_col, right_col)) in q.joins.iter().enumerate() {
        let mut index: HashMap<i64, Vec<&[Value]>> = HashMap::new();
        for r in &tables[i + 1] {
            index.entry(key(r, right_col)).or_default().push(r);
        }
        let mut next = Vec::new();
        for p in &partial {
            if let Some(matches) = index.get(&key(p[left], left_col)) {
                for m in matches {
                    let mut joined = p.clone();
                    joined.push(m);
                    next.push(joined);
                }
            }
        }
        partial = next;
    }
    let mut d = Digest::default();
    for p in &partial {
        d.add(p.iter().flat_map(|r| r.iter()));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_counts_duplicates() {
        let a = vec![Value::Int(1), Value::str("x")];
        let b = vec![Value::Float(1.0), Value::Null];
        let ab = Digest::of([a.as_slice(), b.as_slice()]);
        let ba = Digest::of([b.as_slice(), a.as_slice()]);
        assert_eq!(ab, ba);
        assert_ne!(ab, Digest::of([a.as_slice()]));
        assert_ne!(ab, Digest::of([a.as_slice(), a.as_slice()]));
        let int_row = vec![Value::Int(1)];
        let float_row = vec![Value::Float(1.0)];
        assert_ne!(
            Digest::of([int_row.as_slice()]),
            Digest::of([float_row.as_slice()])
        );
    }

    #[test]
    fn hash_join_matches_the_nested_loop_reference() {
        for name in crate::workloads::NAMES {
            let w = crate::workloads::generate(name, 7, 40).expect("known workload");
            for (sql, q) in w.sql.iter().zip(&w.oracle).take(2) {
                let query = stems::sql::parse_query(&w.catalog, sql).expect("parses");
                let reference = stems::catalog::reference::execute(&w.catalog, &query);
                let canon = stems::catalog::reference::canonical(&w.catalog, &query, &reference);
                assert_eq!(
                    expected(&w, q),
                    Digest::of(canon.iter().map(Vec::as_slice)),
                    "{name}: {sql}"
                );
            }
        }
    }
}
