//! Malformed SQL is an `Err`, never a panic: token-level mutations of the
//! SQL texts the repo's tests and examples parse must each come back from
//! `parse_query` as `Ok` or `Err`.
//!
//! Every text is mutated exhaustively (drop, duplicate or swap a token,
//! truncate at every token and at every character, replace a literal with
//! one of another type), then by a fixed number of seeded random chains
//! of the same moves over a wider token pool. A panicking mutant fails
//! the test with its seed, the original text and the mutant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use stems_catalog::{Catalog, ScanSpec, TableDef};
use stems_sql::parse_query;
use stems_types::{ColumnType, Schema};

/// Valid texts from the parser's tests, the examples, the paper table and
/// the benchmark, over the catalog below.
const CORPUS: &[&str] = &[
    "SELECT * FROM R, S WHERE R.a = S.x",
    "SELECT r1.key, r2.key FROM R r1, R AS r2 WHERE r1.a = r2.a",
    "SELECT key FROM R, S WHERE a = x AND y > 5",
    "SELECT * FROM R WHERE R.a >= -3 AND R.key <> 7 AND R.a < 2.5",
    "SELECT * FROM people WHERE name = 'O''Brien'",
    "SELECT * FROM R WHERE R.a IN (1, -2, 3)",
    "select * from R where a in (1.5, 'x')",
    "SELECT * FROM R, S WHERE R.a = S.x AND S.y IN (7)",
    "SELECT * FROM R WHERE SIEVE(R.a, 250, 1500)",
    "SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.c < 50",
    "SELECT * FROM R, D WHERE R.key = D.key AND SIEVE(R.a, 500, 200) AND D.g < 8",
    "SELECT * FROM R, S WHERE R.v = S.v AND S.x IN (3, 7, 11)",
    "SELECT R.v FROM R WHERE R.v >= 7",
    "SELECT * FROM R r, S s WHERE r.v = s.v",
    "select * from r where r.A > 1",
];

/// Random chains per corpus text.
const RANDOM_CASES: u64 = 400;
/// Seed of the random chains; a failure prints the case's own seed.
const SEED: u64 = 0x5EED_5A1D;

/// Tokens the random chains insert, beyond the text's own.
const POOL: &[&str] = &[
    "(",
    ")",
    ",",
    ".",
    "*",
    "=",
    "<>",
    "!=",
    "<",
    ">=",
    "'",
    "''",
    "'open",
    "IN",
    "AND",
    "SIEVE",
    "SELECT",
    "FROM",
    "WHERE",
    "AS",
    "R",
    "S.x",
    "R.",
    ".a",
    "-",
    "-0",
    "0",
    "1e309",
    "2.5",
    "99999999999999999999",
    "-9223372036854775808",
    "'z'",
    "NULL",
    "é",
    "\u{0}",
];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let tables: [(&str, &[(&str, ColumnType)]); 5] = [
        (
            "R",
            &[
                ("key", ColumnType::Int),
                ("a", ColumnType::Int),
                ("c", ColumnType::Int),
                ("v", ColumnType::Int),
            ],
        ),
        (
            "S",
            &[
                ("x", ColumnType::Int),
                ("y", ColumnType::Int),
                ("v", ColumnType::Int),
            ],
        ),
        ("T", &[("b", ColumnType::Int), ("w", ColumnType::Int)]),
        ("D", &[("key", ColumnType::Int), ("g", ColumnType::Int)]),
        ("people", &[("name", ColumnType::Str)]),
    ];
    for (name, cols) in tables {
        let id = c.add_table(TableDef::new(name, Schema::of(cols))).unwrap();
        c.add_scan(id, ScanSpec::default()).unwrap();
    }
    c
}

/// Split SQL text into tokens the mutations move around: quoted strings
/// (with `''` escapes), words (identifiers, numbers, qualified names),
/// two-character comparison operators and single punctuation characters.
fn tokens(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let start = i;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '\'' {
            i += 1;
            while i < chars.len() {
                if chars[i] == '\'' && chars.get(i + 1) == Some(&'\'') {
                    i += 2;
                } else if chars[i] == '\'' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
        } else if c.is_alphanumeric() || c == '_' || c == '.' || c == '-' {
            i += 1;
            while i < chars.len() && (chars[i].is_alphanumeric() || "_.".contains(chars[i])) {
                i += 1;
            }
        } else {
            let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            i += if ["<>", "<=", ">=", "!="].contains(&pair.as_str()) {
                2
            } else {
                1
            };
        }
        out.push(chars[start..i].iter().collect());
    }
    out
}

fn is_literal(token: &str) -> bool {
    token.starts_with('\'') || token.parse::<f64>().is_ok()
}

/// Literals of every type the parser reads; a replacement takes one of a
/// type other than the literal's own.
fn other_literals(token: &str) -> Vec<&'static str> {
    let kind = |t: &str| {
        if t.starts_with('\'') {
            0
        } else if t.parse::<i64>().is_ok() {
            1
        } else {
            2
        }
    };
    ["'z'", "7", "2.5"]
        .into_iter()
        .filter(|lit| kind(lit) != kind(token))
        .collect()
}

/// Every single-step mutant of a token list.
fn exhaustive(toks: &[String]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let mut dropped = toks.to_vec();
        dropped.remove(i);
        out.push(dropped);
        let mut doubled = toks.to_vec();
        doubled.insert(i, toks[i].clone());
        out.push(doubled);
        if i + 1 < toks.len() {
            let mut swapped = toks.to_vec();
            swapped.swap(i, i + 1);
            out.push(swapped);
        }
        out.push(toks[..i].to_vec());
        if is_literal(&toks[i]) {
            for lit in other_literals(&toks[i]) {
                let mut replaced = toks.to_vec();
                replaced[i] = lit.to_string();
                out.push(replaced);
            }
        }
    }
    out
}

/// SplitMix64: the random chains' generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One to four random moves: drop, duplicate, swap, truncate, or put a
/// pool token (or a literal of another type) in place of a token.
fn random_mutant(toks: &[String], rng: &mut Rng) -> Vec<String> {
    let mut toks = toks.to_vec();
    for _ in 0..1 + rng.below(4) {
        let i = rng.below(toks.len());
        match rng.below(6) {
            0 if !toks.is_empty() => {
                toks.remove(i);
            }
            1 if !toks.is_empty() => toks.insert(i, toks[i].clone()),
            2 if toks.len() > 1 => {
                let j = rng.below(toks.len());
                toks.swap(i, j);
            }
            3 => toks.truncate(i),
            4 => toks.insert(i, POOL[rng.below(POOL.len())].to_string()),
            _ if i < toks.len() => {
                let others = other_literals(&toks[i]);
                toks[i] = others[rng.below(others.len())].to_string();
            }
            _ => {}
        }
    }
    toks
}

/// Parse `text`, fail the test if the parser panics, and say whether it
/// parsed.
fn must_not_panic(catalog: &Catalog, text: &str, context: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_query(catalog, text)));
    match outcome {
        Ok(parsed) => parsed.is_ok(),
        Err(_) => panic!("parse_query panicked: {context}\n  mutant: {text:?}"),
    }
}

#[test]
fn the_corpus_parses() {
    let c = catalog();
    for text in CORPUS {
        assert!(parse_query(&c, text).is_ok(), "{text}");
    }
}

#[test]
fn token_mutations_never_panic() {
    let c = catalog();
    let (mut cases, mut parsed) = (0u64, 0u64);
    let mut run = |text: &str, context: String| {
        cases += 1;
        parsed += u64::from(must_not_panic(&c, text, &context));
    };
    for (n, text) in CORPUS.iter().enumerate() {
        let toks = tokens(text);
        assert!(toks.len() > 3, "{text}: {toks:?}");
        for mutant in exhaustive(&toks) {
            run(&mutant.join(" "), format!("exhaustive, from {text:?}"));
        }
        for (cut, _) in text.char_indices() {
            run(&text[..cut], format!("truncated, from {text:?}"));
        }
        for case in 0..RANDOM_CASES {
            let seed = SEED ^ (n as u64) << 32 ^ case;
            let mutant = random_mutant(&toks, &mut Rng(seed));
            run(&mutant.join(" "), format!("seed {seed:#x}, from {text:?}"));
        }
    }
    // The count is a function of the corpus and the constants above: a
    // change to either shows here. Most mutants are errors, and some
    // still parse (a duplicated `*`, a swapped conjunct).
    assert_eq!(cases, 7565);
    assert!(
        0 < parsed && parsed < cases / 2,
        "{parsed} of {cases} parsed"
    );
}
