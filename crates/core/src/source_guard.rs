//! Source invariants that no rustc or Clippy lint states, checked on the
//! source text by `cargo test` (the rest sit in `clippy.toml`):
//!
//! * a stored row has a slot: no map or set keyed by a `Row` in non-test
//!   `stem.rs` or `crates/storage/src` — hashing or comparing the whole
//!   row again to find what belongs to it is the cost the slab removed;
//! * a SteM has one owner: a build takes `&mut self` and a probe `&self`,
//!   and the server lends its shared SteMs by borrow, so non-test
//!   `stem.rs` holds no lock, cell or atomic, and nothing in this crate
//!   puts a SteM behind a [`crate::sync::Lock`];
//! * a count keeps no series: no literal `.series("x")` or `curve(_, "x")`
//!   anywhere in the tree (`benchmark/` included, read only) where `x` is
//!   in the `counts` list of the engine's `metric_ids!`;
//! * `crates/core/clippy.toml` repeats every entry of `/clippy.toml`.
//!
//! Comments are skipped; the first two checks skip string and char
//! literals too. A line is test code when it lies inside a `#[cfg(test)]`
//! item, the rule by which [`loc_report`] (ignored; run it with
//! `cargo test -p stems-core --lib source_guard::loc_report -- --ignored
//! --nocapture`) prints the non-test lines of each `crates/core/src` file.

use std::path::{Path, PathBuf};

/// The repository root: this crate is `crates/core`.
fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, skipping build output and dot-directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries.map(Result::unwrap) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `text` with its comments blanked, and its string and char literals too
/// unless `keep_strings`. Line breaks stay, so line numbers do.
fn strip(text: &str, keep_strings: bool) -> String {
    let b = text.as_bytes();
    let ident = |i: usize| b[i].is_ascii_alphanumeric() || b[i] == b'_';
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let hashes = b[i + 1..].iter().take_while(|c| **c == b'#').count();
        let (end, literal) = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => (
                b[i..]
                    .iter()
                    .position(|c| *c == b'\n')
                    .map_or(b.len(), |n| i + n),
                false,
            ),
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (mut depth, mut j) = (0, i);
                loop {
                    match (b.get(j), b.get(j + 1)) {
                        (Some(b'/'), Some(b'*')) => (depth, j) = (depth + 1, j + 2),
                        (Some(b'*'), Some(b'/')) if depth == 1 => break (j + 2, false),
                        (Some(b'*'), Some(b'/')) => (depth, j) = (depth - 1, j + 2),
                        (Some(_), _) => j += 1,
                        (None, _) => break (j, false),
                    }
                }
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                (j + 1, true)
            }
            b'r' if (i == 0
                || !ident(i - 1)
                || (b[i - 1] == b'b' && (i == 1 || !ident(i - 2))))
                && b.get(i + 1 + hashes) == Some(&b'"') =>
            {
                let close = [&[b'"'][..], &vec![b'#'; hashes]].concat();
                let body = i + 2 + hashes;
                let at = b[body..].windows(close.len()).position(|w| w == close);
                (at.map_or(b.len(), |n| body + n + close.len()), true)
            }
            b'\'' => {
                let len = text[i + 1..].chars().next().map_or(0, char::len_utf8);
                if b.get(i + 1) == Some(&b'\\') {
                    let close = b
                        .get(i + 3..)
                        .and_then(|r| r.iter().position(|c| *c == b'\''));
                    (close.map_or(b.len(), |n| i + 3 + n + 1), true)
                } else if len > 0 && b.get(i + 1 + len) == Some(&b'\'') {
                    (i + 2 + len, true)
                } else {
                    (i + 1, false) // a lifetime
                }
            }
            c => {
                out.push(c);
                i += 1;
                continue;
            }
        };
        let end = end.min(b.len());
        let keep = literal && keep_strings;
        out.extend(b[i..end].iter().map(|c| match c {
            b'\n' => b'\n',
            _ if keep => *c,
            _ => b' ',
        }));
        i = end;
    }
    String::from_utf8(out).expect("whole characters are kept or blanked")
}

/// The lines of `code` (comments and literals blanked) outside every
/// `#[cfg(test)]` item, numbered from 1. An item runs from its attribute
/// to the `}` that closes its body, or to the `;` that ends a body-less
/// item.
fn non_test(code: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    // Inside a test item: its bracket depth, and whether its body opened.
    let mut item: Option<(usize, bool)> = None;
    for (n, line) in code.lines().enumerate() {
        let (rest, (mut depth, mut opened)) = match item {
            Some(state) => (line, state),
            None => match line.split_once("#[cfg(test)]") {
                Some((_, after)) => (after, (0, false)),
                None => {
                    lines.push((n + 1, line));
                    continue;
                }
            },
        };
        let mut ended = false;
        for c in rest.chars() {
            match c {
                '{' => (depth, opened) = (depth + 1, true),
                '(' | '[' => depth += 1,
                '}' | ')' | ']' => depth = depth.saturating_sub(1),
                ';' => ended = depth == 0 && !opened,
                _ => {}
            }
            ended |= opened && depth == 0;
            if ended {
                break;
            }
        }
        item = (!ended).then_some((depth, opened));
    }
    lines
}

/// The files of the modules `code` (comments blanked) declares test-only:
/// `x.rs` for a `#[cfg(test)]` line followed by `mod x;`.
fn test_mods(code: &str) -> Vec<String> {
    let lines: Vec<&str> = code.lines().map(str::trim).collect();
    lines
        .windows(2)
        .filter(|pair| pair[0] == "#[cfg(test)]")
        .filter_map(|pair| pair[1].strip_prefix("mod ")?.strip_suffix(';'))
        .map(|name| format!("{}.rs", name.trim()))
        .collect()
}

/// The identifiers of `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The first type argument of every `name<…>` on `line` (`name` a whole
/// word), with an `Arc<…>` around it taken off.
fn first_type_args<'a>(line: &'a str, name: &'a str) -> impl Iterator<Item = &'a str> {
    line.match_indices(name).filter_map(move |(at, _)| {
        let before = line[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            return None;
        }
        let args = line[at + name.len()..].trim_start().strip_prefix('<')?;
        let args = args.trim_start();
        let args = args.strip_prefix("Arc<").unwrap_or(args);
        args.split([',', '>']).next().map(str::trim)
    })
}

/// `row-keyed-map`: the map or set on `line` keyed by a `Row`.
fn row_keyed_map(line: &str) -> Option<&'static str> {
    const MAPS: [&str; 6] = [
        "FxHashMap",
        "FxHashSet",
        "HashMap",
        "HashSet",
        "BTreeMap",
        "BTreeSet",
    ];
    MAPS.into_iter()
        .find(|map| first_type_args(line, map).any(|key| key.rsplit("::").next() == Some("Row")))
}

/// `stem-lock`, inside a SteM: the lock, cell or atomic `line` names.
fn lock_in_stem(line: &str) -> Option<&str> {
    const LOCKS: [&str; 10] = [
        "Lock",
        "lock_ok",
        "lock_recover",
        "Mutex",
        "RwLock",
        "Cell",
        "RefCell",
        "OnceCell",
        "UnsafeCell",
        "atomic",
    ];
    words(line).find(|w| LOCKS.contains(w) || w.starts_with("Atomic"))
}

/// `stem-lock`, around a SteM: whether `line` puts one behind a `Lock`.
fn stem_behind_lock(line: &str) -> bool {
    first_type_args(line, "Lock").any(|arg| arg.rsplit("::").next() == Some("Stem"))
}

/// `series-of-count`: the counts `line` (comments blanked, strings kept)
/// reads as a series — `.series("x")`'s first argument or
/// `curve(_, "x")`'s second, when a literal.
fn count_series_reads<'a>(line: &'a str, counts: &[&str]) -> Vec<&'a str> {
    let mut names = Vec::new();
    for call in [".series(", "curve("] {
        for (at, _) in line.match_indices(call) {
            let before = line[..at].chars().next_back();
            if call == "curve(" && before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let args = &line[at + call.len()..];
            let Some(open) = args.find('"') else { continue };
            let (before, rest) = (&args[..open], &args[open + 1..]);
            let literal = if call == "curve(" {
                before.contains(',') && !before.contains(')')
            } else {
                before.trim().is_empty()
            };
            let name = rest.split('"').next().unwrap_or_default();
            if literal && counts.contains(&name) {
                names.push(name);
            }
        }
    }
    names
}

/// `path:line: what` for every finding, relative to the repository root.
fn report(findings: &[(PathBuf, usize, String)]) -> String {
    let root = repo();
    findings
        .iter()
        .map(|(path, line, what)| {
            let rel = path.strip_prefix(&root).unwrap_or(path);
            format!("{}:{line}: {what}\n", rel.display())
        })
        .collect()
}

#[test]
fn stored_rows_are_addressed_by_slot() {
    let root = repo();
    let mut files = vec![root.join("crates/core/src/stem.rs")];
    rust_files(&root.join("crates/storage/src"), &mut files);
    let mut findings = Vec::new();
    for path in files {
        let code = strip(&read(&path), false);
        for (n, line) in non_test(&code) {
            if let Some(map) = row_keyed_map(line) {
                findings.push((path.clone(), n, format!("`{map}` keyed by a row")));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "address stored rows by slot:\n{}",
        report(&findings)
    );
}

#[test]
fn nothing_locks_a_stem() {
    let root = repo();
    let mut findings = Vec::new();
    let stem = root.join("crates/core/src/stem.rs");
    for (n, line) in non_test(&strip(&read(&stem), false)) {
        if let Some(lock) = lock_in_stem(line) {
            findings.push((stem.clone(), n, format!("`{lock}` inside a SteM")));
        }
    }
    let mut files = Vec::new();
    rust_files(&root.join("crates/core/src"), &mut files);
    for path in files {
        for (n, line) in strip(&read(&path), false).lines().enumerate() {
            if stem_behind_lock(line) {
                findings.push((path.clone(), n + 1, "a SteM behind a `Lock`".into()));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "a SteM has one owner: build through `&mut`, probe through `&`, lend a shared one by borrow:\n{}",
        report(&findings)
    );
}

#[test]
fn no_count_is_read_as_a_series() {
    let counts = crate::engine::COUNTS;
    assert!(counts.contains(&"route_batches") && !counts.contains(&"results"));
    let root = repo();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root.join(top), &mut files);
    }
    let mut findings = Vec::new();
    for path in files {
        for (n, line) in strip(&read(&path), true).lines().enumerate() {
            for name in count_series_reads(line, counts) {
                findings.push((path.clone(), n + 1, format!("`{name}` read as a series")));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "a count keeps no series: read `counter`, or declare it a curve in `metric_ids!`:\n{}",
        report(&findings)
    );
}

/// Non-test lines of each `.rs` file under `dir`, in path order. A file
/// declared `#[cfg(test)] mod x;` is all test.
fn non_test_lines(dir: &Path) -> Vec<(PathBuf, usize)> {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    files.sort();
    let code: Vec<String> = files.iter().map(|p| strip(&read(p), false)).collect();
    let test_files: Vec<PathBuf> = files
        .iter()
        .zip(&code)
        .flat_map(|(path, code)| test_mods(code).into_iter().map(|m| path.with_file_name(m)))
        .collect();
    let lines = |path: &PathBuf, code: &str| {
        if test_files.contains(path) {
            0
        } else {
            non_test(code).len()
        }
    };
    files
        .iter()
        .zip(&code)
        .map(|(path, code)| (path.clone(), lines(path, code)))
        .collect()
}

/// The size report: non-test lines per `crates/core/src` file, in path
/// order, and their total; then one total per other workspace crate's
/// `src`. Run it on a parent checkout too to report a change's size.
#[test]
#[ignore = "a report, not a check"]
fn loc_report() {
    let root = repo().canonicalize().expect("the repository root exists");
    let core = root.join("crates/core/src");
    let files = non_test_lines(&core);
    for (path, lines) in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        println!("{lines:>7}  {}", rel.display());
    }
    let total: usize = files.iter().map(|f| f.1).sum();
    println!("{total:>7}  total non-test lines, {} files", files.len());
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    let mut others: Vec<PathBuf> = crates.map(|e| e.unwrap().path().join("src")).collect();
    others.push(root.join("src"));
    others.retain(|src| src.is_dir() && *src != core);
    others.sort();
    for src in others {
        let files = non_test_lines(&src);
        let total: usize = files.iter().map(|f| f.1).sum();
        let rel = src.strip_prefix(&root).unwrap_or(&src);
        println!("{total:>7}  {}, {} files", rel.display(), files.len());
    }
}

/// Clippy reads only the config file nearest to a crate, so a ban added to
/// `/clippy.toml` and not to `crates/core/clippy.toml` would not hold here.
#[test]
fn core_clippy_config_repeats_the_root_one() {
    let root = repo();
    let core = read(&root.join("crates/core/clippy.toml"));
    let shared = read(&root.join("clippy.toml"));
    let missing: Vec<&str> = shared
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .filter(|line| !core.lines().any(|l| l.trim() == *line))
        .collect();
    assert!(
        missing.is_empty(),
        "crates/core/clippy.toml lacks {missing:#?}"
    );
}

/// The 1-based lines of the sample `text` on which `hit` fires, read as
/// the guard tests read a source file: comments blanked, and strings and
/// test items skipped unless `keep_strings`.
fn flagged(text: &str, keep_strings: bool, hit: &dyn Fn(&str) -> bool) -> Vec<usize> {
    let code = strip(text, keep_strings);
    let lines = if keep_strings {
        code.lines().enumerate().map(|(n, l)| (n + 1, l)).collect()
    } else {
        non_test(&code)
    };
    lines
        .into_iter()
        .filter(|(_, l)| hit(l))
        .map(|(n, _)| n)
        .collect()
}

// Each check finds exactly the violations planted in a sample, and
// nothing in its comments, strings or test items.

#[test]
fn row_keyed_map_fires_on_row_keyed_maps_only() {
    let rows = "\
pub(crate) struct Stem {
    ts_of: FxHashMap<Arc<Row>, Timestamp>, // FxHashSet<Row> in a comment
    eot_keys: FxHashSet<Vec<(usize, Value)>>,
    seen: std::collections::BTreeSet<stems_types::Row>,
    doc: &'static str = \"HashMap<Row, u8>\",
}
#[cfg(test)]
fn model() -> std::collections::HashSet<Row> {
    Default::default()
}
";
    assert_eq!(
        flagged(rows, false, &|l| row_keyed_map(l).is_some()),
        [2, 4]
    );
}

#[test]
fn stem_lock_fires_on_locked_stems_only() {
    let locks = "\
use crate::sync::Lock; /* a Mutex in a comment */
pub struct Stem {
    probe: Lock<ProbeScratch>,
    hits: std::sync::atomic::AtomicU64,
    cells: Vec<Cell<u8>>,
    lifetime: &'a Stemmed,
    seen: Vec<Stem>,
}
#[cfg(test)]
mod tests {
    use crate::sync::Lock;
}
";
    assert_eq!(
        flagged(locks, false, &|l| lock_in_stem(l).is_some()),
        [1, 3, 4, 5]
    );
    let around = "\
pub struct Registry {
    stems: Vec<Arc<Lock<crate::stem::Stem>>>,
    memo: Lock<MemoState>,
    shared: Lock < Stem >,
    note: &'static str = \"Lock<Stem>\",
}
";
    assert_eq!(flagged(around, false, &|l| stem_behind_lock(l)), [2, 4]);
}

#[test]
fn series_of_count_fires_on_count_reads_only() {
    let counts = ["route_batches", "stem_probes"];
    let series = "\
fn panels(report: &Report, name: &str) -> Outcome {
    let batches = report.metrics.series(\"route_batches\");
    let probes = curve(&report.metrics, \"stem_probes\")?;
    let results = curve(&report.metrics, \"results\")?;
    let any = report.metrics.series(name);
    let total = report.counter(\"route_batches\");
    let mine = my_curve(&report.metrics, \"stem_probes\");
    // a mention in a comment: .series(\"route_batches\")
    Ok(())
}
";
    let reads = |l: &str| !count_series_reads(l, &counts).is_empty();
    assert_eq!(flagged(series, true, &reads), [2, 3]);
}

#[test]
fn loc_counts_lines_outside_test_items() {
    // 16 lines, of which 2 + 4 + 4 are test items: a body-less `mod x;`, a
    // test-only method inside an impl and a test module. A brace in a
    // string or a comment does not count.
    let sample = "\
fn a() {
    let s = \"}\"; // {
}
#[cfg(test)]
mod alloc;
impl A {
    #[cfg(test)]
    fn only_in_tests(&self) -> bool {
        true
    }
    fn b() {}
}
#[cfg(test)]
mod tests {
    fn t() {}
}
";
    let code = strip(sample, false);
    assert_eq!(non_test(&code).len(), 6);
    assert_eq!(test_mods(&code), ["alloc.rs"]);
}
