//! `stems-lint` — source-level invariants the compiler can't enforce.
//!
//! Run from anywhere in the workspace:
//!
//! ```text
//! cargo run -p stems-lint              # lint the tree (exit 1 on findings)
//! cargo run -p stems-lint -- --self-test   # prove the rules still bite
//! cargo run -p stems-lint -- --loc         # non-test lines of crates/core/src (a report)
//! ```
//!
//! Rule catalog (see `fixtures/` for a negative example of each):
//!
//! | id | invariant |
//! |----|-----------|
//! | `unsafe-safety` | every `unsafe` carries a `// SAFETY:` argument |
//! | `std-sync-primitive` | no `std::sync` scheduling primitives outside `stems_core::sync` |
//! | `lock-unwrap` | no `.lock().unwrap()` / `.lock().expect(..)` — poison policy goes through `lock_ok` / `lock_recover` |
//! | `std-thread` | no thread spawning outside `runtime.rs` |
//! | `wall-clock` | no `Instant::now` / `SystemTime` outside `crates/bench` (virtual-time discipline) |
//! | `metric-by-name` | no name-taking `.bump(` / `.observe(` in `engine.rs` / `server.rs` — the per-tuple path updates metrics by `MetricId` |
//! | `row-keyed-map` | no map or set keyed by `Arc<Row>` / `Row` in non-test `stem.rs`, `crates/storage/src/` — stored rows are addressed by slot |
//! | `stem-lock` | no `StemCell`, `Mutex<Stem>` or `RwLock<Stem>` in non-test `crates/core/src/`, and no `Mutex` / `RwLock` / `RefCell` / `atomic` / `lock_ok` / `lock_recover` in non-test `stem.rs` — a SteM has one owner: builds take `&mut self`, probes `&self`, and the server lends its shared SteMs by borrow |
//! | `default-hasher` | no `HashMap` / `HashSet` with the default SipHash hasher in non-test `crates/core/src/` — the engine hashes its own data: an Fx map, or an identity map over a precomputed hash |
//! | `series-of-count` | no literal `.series("x")` / `curve(_, "x")` anywhere in the tree (`tests/`, `examples/` and `benchmark/` included) where `x` is in the engine's `metric_ids! { … counts { … } }` list — a count keeps no series |
//!
//! The rules above `series-of-count` cover `crates/`, `src/` and `tools/`;
//! `series-of-count` reads the count list out of `crates/core/src/engine.rs`
//! itself, so moving a metric between `curves` and `counts` moves the rule
//! with it.
//!
//! The scanner is token-level, not syntactic: comments, strings, and
//! char literals are stripped before matching, so banned names in docs
//! or string literals never fire. `--self-test` runs every fixture file
//! through the same engine and fails if any fixture stops producing
//! exactly its expected finding — CI runs it on every leg so a silently
//! dead rule fails the build.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Permanent, reviewed exceptions: (rule id, repo-relative path, why).
/// Deliberately tiny, and **no `crates/core` entries** — the concurrent
/// crate has zero exemptions.
const ALLOWLIST: &[(&str, &str, &str)] = &[(
    "std-thread",
    "crates/storage/src/store.rs",
    "test-only cross-thread Arc-sharing smoke test; no production spawn",
)];

/// Banned `std::sync` items outside the shim. `Arc`, `OnceLock`,
/// `LockResult`, `PoisonError` stay allowed everywhere: they carry no
/// scheduling behaviour.
const SYNC_PRIMITIVES: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "Condvar",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Barrier",
    "mpsc",
    "atomic",
    "Once",
];

/// Interior mutability and the poison helpers, none of which belong
/// inside a SteM (`stem-lock`).
const STEM_LOCKS: &[&str] = &[
    "Mutex",
    "RwLock",
    "RefCell",
    "atomic",
    "lock_ok",
    "lock_recover",
];

#[derive(Debug)]
struct Finding {
    rule: &'static str,
    line: usize,
    message: String,
}

fn main() {
    let flag = |name: &str| std::env::args().any(|a| a == name);
    let root = workspace_root();
    let status = if flag("--self-test") {
        run_self_test(&root)
    } else if flag("--loc") {
        run_loc(&root)
    } else {
        run_lint(&root)
    };
    std::process::exit(status);
}

fn workspace_root() -> PathBuf {
    // tools/stems-lint -> tools -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("stems-lint lives two levels below the workspace root")
        .to_path_buf()
}

// ---------------------------------------------------------------------
// Tree walk
// ---------------------------------------------------------------------

/// Where the engine declares its metrics, and so its counts.
const ENGINE: &str = "crates/core/src/engine.rs";

fn run_lint(root: &Path) -> i32 {
    let counts = match engine_counts(root) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("stems-lint: {e}");
            return 1;
        }
    };
    let mut files = Vec::new();
    for top in ["crates", "src", "tools", "tests", "examples", "benchmark"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    let mut findings_total = 0usize;
    let mut out = String::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        for f in lint_source(&rel, &text, &counts) {
            findings_total += 1;
            let _ = writeln!(out, "{rel}:{}: [{}] {}", f.line, f.rule, f.message);
        }
    }
    if findings_total == 0 {
        println!(
            "stems-lint: {} files clean ({} allowlist entries)",
            files.len(),
            ALLOWLIST.len()
        );
        0
    } else {
        eprint!("{out}");
        eprintln!("stems-lint: {findings_total} finding(s)");
        1
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` are deliberate violations; `target/` is build
            // output.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------
// Size report
// ---------------------------------------------------------------------

/// The source tree `--loc` reports on.
const CORE_SRC: &str = "crates/core/src";

/// `--loc`: the non-test lines ([`non_test_lines`]) of every file under
/// `crates/core/src`, and their total; a file declared `#[cfg(test)] mod
/// x;` is all test. A report, not a gate.
fn run_loc(root: &Path) -> i32 {
    let mut files = Vec::new();
    collect_rs(&root.join(CORE_SRC), &mut files);
    files.sort();
    let mut texts = Vec::new();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            eprintln!("stems-lint --loc: cannot read {}", file.display());
            return 1;
        };
        texts.push(text);
    }
    let test_files: Vec<PathBuf> = files
        .iter()
        .zip(&texts)
        .flat_map(|(file, text)| test_mods(text).map(|name| file.with_file_name(name)))
        .collect();
    let mut total = 0;
    for (file, text) in files.iter().zip(&texts) {
        let lines = if test_files.contains(file) {
            0
        } else {
            non_test_lines(text)
        };
        total += lines;
        let rel = file.strip_prefix(root).unwrap_or(file);
        println!("{lines:>7}  {}", rel.display());
    }
    println!("{total:>7}  total non-test lines, {} files", files.len());
    0
}

/// The files of the modules `text` declares test-only: `x.rs` for a
/// `#[cfg(test)]` line followed by `mod x;`.
fn test_mods(text: &str) -> impl Iterator<Item = String> + '_ {
    let mut stripper = Stripper::default();
    let mut cfg_test = false;
    text.lines().filter_map(move |line| {
        let code = stripper.strip_line(line);
        let code = code.trim();
        let name = cfg_test
            .then(|| code.strip_prefix("mod ")?.strip_suffix(';'))
            .flatten();
        cfg_test = code == "#[cfg(test)]";
        name.map(|name| format!("{}.rs", name.trim()))
    })
}

/// The lines of `text` outside `#[cfg(test)]` items, blank and comment
/// lines included. A test item runs from its attribute to the `}` that
/// closes its body, or to the `;` that ends a body-less item (`mod x;`).
/// Comments, strings and char literals are stripped first, so a brace
/// inside one does not count.
fn non_test_lines(text: &str) -> usize {
    let mut stripper = Stripper::default();
    let (mut lines, mut test) = (0, 0);
    // Inside a test item: its bracket depth, and whether its body opened.
    let mut item: Option<(usize, bool)> = None;
    for line in text.lines() {
        lines += 1;
        let code = stripper.strip_line(line);
        let (rest, (mut depth, mut opened)) = match item {
            Some(state) => (code.as_str(), state),
            None => match code.split_once("#[cfg(test)]") {
                Some((_, after)) => (after, (0, false)),
                None => continue,
            },
        };
        test += 1;
        let mut ended = false;
        for c in rest.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
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
    lines - test
}

// ---------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------

/// Lint one file's source under its repo-relative `path` (the path
/// drives scoping/exemptions — fixtures pass virtual paths). `counts` is
/// the engine's count list ([`engine_counts`]).
fn lint_source(path: &str, text: &str, counts: &[String]) -> Vec<Finding> {
    let original: Vec<&str> = text.lines().collect();
    let mut stripper = Stripper::default();
    let code: Vec<String> = original.iter().map(|l| stripper.strip_line(l)).collect();
    let house = ["crates/", "src/", "tools/"]
        .iter()
        .any(|top| path.starts_with(top));
    let mut findings = if house {
        house_rules(path, &original, &code)
    } else {
        Vec::new()
    };
    findings.extend(series_of_count(&original, &code, counts));
    findings.sort_by_key(|f| f.line);
    findings
}

/// Every rule but `series-of-count`, over one file of `crates/`, `src/`
/// or `tools/`.
fn house_rules(path: &str, original: &[&str], code: &[String]) -> Vec<Finding> {
    let in_shim = path == "crates/core/src/sync.rs";
    let in_bench = path.starts_with("crates/bench/");
    let in_runtime = path == "crates/core/src/runtime.rs";
    let per_tuple_path = path == "crates/core/src/engine.rs" || path == "crates/core/src/server.rs";
    let in_stem = path == "crates/core/src/stem.rs";
    let stores_rows = in_stem || path.starts_with("crates/storage/src/");
    let in_core = path.starts_with("crates/core/src/");

    let mut findings = Vec::new();
    let mut sync_use_block = false;
    // These files keep their test modules at the bottom: everything from
    // the first `#[cfg(test)]` on is test code.
    let mut in_tests = false;
    for (idx, code_line) in code.iter().enumerate() {
        let lineno = idx + 1;
        in_tests |= code_line.contains("#[cfg(test)]");

        // unsafe-safety — everywhere, no exemptions.
        if contains_word(code_line, "unsafe") && !has_safety_comment(original, idx) {
            findings.push(Finding {
                rule: "unsafe-safety",
                line: lineno,
                message: "`unsafe` without a `// SAFETY:` argument in the preceding comment".into(),
            });
        }

        // std-sync-primitive — the shim funnel.
        if !in_shim {
            if let Some(name) = std_sync_primitive(code_line, &mut sync_use_block) {
                findings.push(Finding {
                    rule: "std-sync-primitive",
                    line: lineno,
                    message: format!(
                        "`std::sync::{name}` outside the `stems_core::sync` shim — import it from `crate::sync`"
                    ),
                });
            }
        }

        // lock-unwrap — the poison policy funnel.
        if code_line.contains(".lock().unwrap()") || code_line.contains(".lock().expect(") {
            findings.push(Finding {
                rule: "lock-unwrap",
                line: lineno,
                message: "poison-blind lock acquisition — use `lock_ok` / `lock_recover` from `crate::sync`"
                    .into(),
            });
        }

        // std-thread — spawning is the runtime's business.
        if !in_runtime {
            for pat in [
                "std::thread::spawn",
                "std::thread::scope",
                "std::thread::Builder",
            ] {
                if code_line.contains(pat) && !allowlisted("std-thread", path) {
                    findings.push(Finding {
                        rule: "std-thread",
                        line: lineno,
                        message: format!(
                            "`{pat}` outside `runtime.rs` — go through `runtime::for_each_parallel`"
                        ),
                    });
                }
            }
        }

        // wall-clock — the virtual-time discipline (bench measures real
        // time by design).
        if !in_bench {
            for pat in ["Instant::now", "SystemTime"] {
                if code_line.contains(pat) {
                    findings.push(Finding {
                        rule: "wall-clock",
                        line: lineno,
                        message: format!(
                            "`{pat}` in a virtual-time crate — time comes from the simulation clock"
                        ),
                    });
                }
            }
        }

        // metric-by-name — nothing the eddy does per tuple may look a
        // metric up by name (`.bump_id(` / `.observe_id(` do not match).
        if per_tuple_path {
            for pat in [".bump(", ".observe("] {
                if code_line.contains(pat) {
                    findings.push(Finding {
                        rule: "metric-by-name",
                        line: lineno,
                        message: format!(
                            "`{pat}..)` looks a metric up by name on the per-tuple path — resolve a `MetricId` at build"
                        ),
                    });
                }
            }
        }

        // row-keyed-map — a stored row has a slot; hashing or comparing
        // the whole row again to find what belongs to it is the cost the
        // slab removed.
        if stores_rows && !in_tests {
            if let Some(map) = row_keyed_map(code_line) {
                findings.push(Finding {
                    rule: "row-keyed-map",
                    line: lineno,
                    message: format!("`{map}` keyed by a row — address stored rows by slot"),
                });
            }
        }

        // default-hasher — SipHash's flood resistance buys nothing for
        // keys the engine produced itself, and costs a keyed hash per
        // lookup on the per-tuple path.
        if in_core && !in_tests {
            if let Some(what) = default_hasher(code_line) {
                findings.push(Finding {
                    rule: "default-hasher",
                    line: lineno,
                    message: format!(
                        "`{what}` hashes with SipHash — use an `FxHashMap` / `FxHashSet`, or identity-hash a precomputed hash"
                    ),
                });
            }
        }

        // stem-lock — a build takes `&mut self` and a probe `&self`, so
        // nothing inside a SteM needs interior mutability, and nothing
        // around one needs a lock: the server lends its shared SteMs by
        // borrow and writes them only at its own instants.
        if in_core && !in_tests {
            let inside = STEM_LOCKS
                .iter()
                .copied()
                .find(|n| in_stem && contains_word(code_line, n));
            if let Some(name) = inside.or_else(|| stem_behind_lock(code_line)) {
                findings.push(Finding {
                    rule: "stem-lock",
                    line: lineno,
                    message: format!(
                        "`{name}` locks a SteM — it has one owner: build through `&mut`, probe through `&`, lend a shared one by borrow"
                    ),
                });
            }
        }
    }
    findings
}

/// `series-of-count`: a literal `.series("x")` or `curve(_, "x")` call
/// whose `x` is a count. The call must be code (it survives stripping);
/// the name is read off the original line, since stripping blanks it.
fn series_of_count(original: &[&str], code: &[String], counts: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, (line, code_line)) in original.iter().zip(code).enumerate() {
        let calls = [
            (".series(", code_line.contains(".series(")),
            ("curve(", contains_call(code_line, "curve(")),
        ];
        for (call, in_code) in calls {
            if !in_code {
                continue;
            }
            for name in literal_names(line, call) {
                if counts.iter().any(|c| c == name) {
                    findings.push(Finding {
                        rule: "series-of-count",
                        line: idx + 1,
                        message: format!(
                            "`{call}..\"{name}\")` reads a count as a curve — `{name}` is in the engine's `counts` list and keeps no series; read `counter` or declare it a curve"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// `call` (ending in `(`) appears at a word boundary: `curve(` but not
/// `my_curve(`.
fn contains_call(line: &str, call: &str) -> bool {
    line.match_indices(call)
        .any(|(at, _)| at == 0 || !is_ident_byte(line.as_bytes()[at - 1]))
}

/// The string literals `call` is made with on `line`: `.series("x")`'s
/// first argument, `curve(_, "x")`'s second.
fn literal_names<'a>(line: &'a str, call: &str) -> Vec<&'a str> {
    let mut names = Vec::new();
    for (at, _) in line.match_indices(call) {
        if at > 0 && call == "curve(" && is_ident_byte(line.as_bytes()[at - 1]) {
            continue;
        }
        let args = &line[at + call.len()..];
        let Some(open) = args.find('"') else {
            continue;
        };
        let before = &args[..open];
        let literal_arg = if call == "curve(" {
            before.contains(',') && !before.contains(')')
        } else {
            before.trim().is_empty()
        };
        if !literal_arg {
            continue;
        }
        let rest = &args[open + 1..];
        if let Some(close) = rest.find('"') {
            names.push(&rest[..close]);
        }
    }
    names
}

/// The identifiers of the `counts { … }` list in the engine's
/// `metric_ids! { … }` invocation.
fn engine_counts(root: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(root.join(ENGINE))
        .map_err(|e| format!("cannot read {ENGINE}: {e}"))?;
    let counts = counts_of(&text);
    if counts.is_empty() {
        return Err(format!(
            "no `counts {{ … }}` list in {ENGINE}'s `metric_ids! {{ … }}` — `series-of-count` cannot run"
        ));
    }
    Ok(counts)
}

fn counts_of(text: &str) -> Vec<String> {
    let mut stripper = Stripper::default();
    let code: String = text
        .lines()
        .map(|l| stripper.strip_line(l) + "\n")
        .collect();
    let Some(invocation) = code.find("metric_ids! {") else {
        return Vec::new();
    };
    let after = &code[invocation..];
    let Some(list) = after.find("counts {") else {
        return Vec::new();
    };
    let list = &after[list + "counts {".len()..];
    let list = &list[..list.find('}').unwrap_or(list.len())];
    list.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

/// A map or set type whose key (first type argument) is `Arc<Row>` or
/// `Row`, if the line names one.
fn row_keyed_map(code_line: &str) -> Option<&'static str> {
    const MAPS: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet", "BTreeMap"];
    MAPS.iter().copied().find(|map| {
        code_line.match_indices(map).any(|(at, _)| {
            let key = code_line[at + map.len()..].trim_start();
            let Some(key) = key.strip_prefix('<') else {
                return false;
            };
            let key = key.trim_start();
            let key = key.strip_prefix("Arc<").map_or(key, str::trim_start);
            key.strip_prefix("Row")
                .is_some_and(|rest| !rest.starts_with(is_ident_char))
        })
    })
}

/// A lock around a SteM, if the line names one: a `StemCell`, or a
/// `Mutex` / `RwLock` whose type argument is `Stem` (by any path).
fn stem_behind_lock(code_line: &str) -> Option<&'static str> {
    if contains_word(code_line, "StemCell") {
        return Some("StemCell");
    }
    ["Mutex", "RwLock"].into_iter().find(|lock| {
        code_line.match_indices(lock).any(|(at, _)| {
            let rest = code_line[at + lock.len()..].trim_start();
            let Some(arg) = rest.strip_prefix('<') else {
                return false;
            };
            let arg = arg.split(['>', ',']).next().unwrap_or_default().trim();
            (at == 0 || !is_ident_byte(code_line.as_bytes()[at - 1]))
                && arg.rsplit("::").next() == Some("Stem")
        })
    })
}

/// A `HashMap` / `HashSet` built with the default hasher, if the line
/// names one: a constructor only the default hasher has, or the type
/// written with its hasher argument left out (`HashMap<K, V>`,
/// `HashSet<T>`). `FxHashMap` and friends are other words and do not
/// match; a type whose arguments continue on the next line is not judged.
fn default_hasher(code_line: &str) -> Option<String> {
    for (name, args) in [("HashMap", 3), ("HashSet", 2)] {
        for (at, _) in code_line.match_indices(name) {
            let bytes = code_line.as_bytes();
            let end = at + name.len();
            if (at > 0 && is_ident_byte(bytes[at - 1]))
                || bytes.get(end).is_some_and(|b| is_ident_byte(*b))
            {
                continue;
            }
            let rest = &code_line[end..];
            for ctor in ["::new(", "::with_capacity(", "::from(", "::from_iter("] {
                if rest.starts_with(ctor) {
                    return Some(format!("{name}{}..)", &ctor[..ctor.len() - 1]));
                }
            }
            let generics = rest.trim_start();
            let generics = generics.strip_prefix("::").unwrap_or(generics);
            if let Some(n) = generics.strip_prefix('<').and_then(type_args) {
                if n < args {
                    return Some(format!("{name}<..>"));
                }
            }
        }
    }
    None
}

/// How many top-level arguments the generic list after an opening `<`
/// holds, or `None` if it does not close on this line.
fn type_args(list: &str) -> Option<usize> {
    let (mut depth, mut commas) = (0usize, 0usize);
    for c in list.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            '>' if depth == 0 => return Some(commas + 1),
            '>' => depth -= 1,
            ',' if depth == 0 => commas += 1,
            _ => {}
        }
    }
    None
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn allowlisted(rule: &str, path: &str) -> bool {
    ALLOWLIST.iter().any(|(r, p, _)| *r == rule && *p == path)
}

/// Word-boundary substring search (so `unsafe_op_in_unsafe_fn` in an
/// attribute does not count as the keyword).
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Look upward from the `unsafe` line through its contiguous run of
/// comment/attribute lines for a `SAFETY:` marker (same line counts
/// too — the stripper removed the comment from the code text, not the
/// original).
fn has_safety_comment(original: &[&str], idx: usize) -> bool {
    if original[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    let mut budget = 60; // generous: the runtime's argument is long
    while i > 0 && budget > 0 {
        i -= 1;
        budget -= 1;
        let t = original[i].trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else if t.starts_with("#[") || t.is_empty() {
            // attributes/blank between the argument and the block are ok
        } else {
            return false;
        }
    }
    false
}

/// Detect a banned `std::sync::<primitive>` mention, including the
/// multi-line `use std::sync::{ ... }` form (tracked via
/// `sync_use_block`). Returns the offending item name.
fn std_sync_primitive(code_line: &str, sync_use_block: &mut bool) -> Option<&'static str> {
    if *sync_use_block {
        if let Some(name) = SYNC_PRIMITIVES
            .iter()
            .find(|name| contains_word(code_line, name))
        {
            if code_line.contains('}') {
                *sync_use_block = false;
            }
            return Some(name);
        }
        if code_line.contains('}') {
            *sync_use_block = false;
        }
        return None;
    }
    let mut from = 0;
    while let Some(pos) = code_line[from..].find("std::sync::") {
        let rest = &code_line[from + pos + "std::sync::".len()..];
        let rest = rest.trim_start();
        if let Some(inner) = rest.strip_prefix('{') {
            // Single-line list: check it here; multi-line: arm the
            // block tracker for the following lines.
            if inner.contains('}') {
                let list = &inner[..inner.find('}').unwrap()];
                if let Some(name) = SYNC_PRIMITIVES.iter().find(|n| contains_word(list, n)) {
                    return Some(name);
                }
            } else {
                if let Some(name) = SYNC_PRIMITIVES.iter().find(|n| contains_word(inner, n)) {
                    return Some(name);
                }
                *sync_use_block = true;
            }
        } else {
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if let Some(name) = SYNC_PRIMITIVES.iter().find(|n| **n == ident) {
                return Some(name);
            }
        }
        from += pos + "std::sync::".len();
    }
    None
}

// ---------------------------------------------------------------------
// Comment/string stripping
// ---------------------------------------------------------------------

/// Line-by-line comment, string, and char-literal stripper. Carries
/// block-comment depth and (raw-)string state across lines; stripped
/// regions are blanked so column positions stay roughly stable.
#[derive(Default)]
struct Stripper {
    block_comment_depth: usize,
    in_string: bool,
    /// `Some(n)` while inside a raw string closed by `"` + n `#`s.
    raw_string_hashes: Option<usize>,
}

impl Stripper {
    fn strip_line(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            if let Some(hashes) = self.raw_string_hashes {
                if chars[i] == '"'
                    && chars[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|c| **c == '#')
                        .count()
                        == hashes
                {
                    self.raw_string_hashes = None;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            if self.in_string {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        self.in_string = false;
                        i += 1;
                    }
                    _ => i += 1,
                }
                out.push(' ');
                continue;
            }
            if self.block_comment_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.block_comment_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    self.block_comment_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            match chars[i] {
                '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.block_comment_depth += 1;
                    out.push(' ');
                    i += 2;
                }
                '"' => {
                    self.in_string = true;
                    out.push(' ');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'b') || chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let hashes = chars[j..].iter().take_while(|c| **c == '#').count();
                    j += hashes;
                    // chars[j] is the opening quote
                    self.raw_string_hashes = Some(hashes);
                    out.push(' ');
                    i = j + 1;
                }
                '\'' if is_char_literal(&chars, i) => {
                    // skip 'x', '\x' or '\u{..}' entirely
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'\\') {
                        j += 1;
                        if chars.get(j) == Some(&'u') && chars.get(j + 1) == Some(&'{') {
                            j += chars[j..].iter().position(|c| *c == '}').unwrap_or(0);
                        }
                    }
                    j += 1; // the payload char (or the escape's closing brace)
                    debug_assert_eq!(chars.get(j), Some(&'\''));
                    out.push(' ');
                    i = j + 1;
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        out
    }
}

/// `r"..."` / `r#"..."#` / `br"..."` — only when `r`/`b` is not part of
/// a longer identifier.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    } else if j == i {
        return false; // plain 'b' needs 'r' or '"' next; b"..." handled by '"' arm next round
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"') && j > i
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'a` (lifetime).
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(_) => chars.get(i + 3) == Some(&'\'') || chars.get(i + 2) == Some(&'\''),
        None => false,
    }
}

// ---------------------------------------------------------------------
// Self-test over fixtures
// ---------------------------------------------------------------------

/// Every fixture declares what it expects in `//~` headers:
///
/// ```text
/// //~ rule: std-thread        (or `none` for a clean fixture)
/// //~ path: crates/core/src/engine.rs
/// ```
///
/// The fixture is linted under its virtual path and must fire exactly
/// the declared rule set — a rule that stops biting, or a scanner
/// regression that adds noise, fails the self-test.
fn run_self_test(root: &Path) -> i32 {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut files = Vec::new();
    collect_fixtures(&fixtures, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!(
            "stems-lint --self-test: no fixtures found at {}",
            fixtures.display()
        );
        return 1;
    }
    let counts = match engine_counts(root) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("stems-lint --self-test: {e}");
            return 1;
        }
    };
    let mut failed = 0usize;
    for file in &files {
        let name = file
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("self-test: {name}: unreadable: {e}");
                failed += 1;
                continue;
            }
        };
        let mut expect: Vec<String> = Vec::new();
        let mut vpath = String::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("//~ rule:") {
                let r = rest.trim().to_string();
                if r != "none" {
                    expect.push(r);
                }
            } else if let Some(rest) = line.strip_prefix("//~ path:") {
                vpath = rest.trim().to_string();
            }
        }
        if vpath.is_empty() {
            eprintln!("self-test: {name}: missing `//~ path:` header");
            failed += 1;
            continue;
        }
        let mut fired: Vec<String> = lint_source(&vpath, &text, &counts)
            .into_iter()
            .map(|f| f.rule.to_string())
            .collect();
        fired.sort();
        fired.dedup();
        expect.sort();
        expect.dedup();
        if fired == expect {
            println!(
                "self-test: {name}: ok ({})",
                if expect.is_empty() {
                    "clean".into()
                } else {
                    expect.join(", ")
                }
            );
        } else {
            eprintln!("self-test: {name}: expected {expect:?}, lint fired {fired:?}");
            failed += 1;
        }
    }
    if failed == 0 {
        println!("stems-lint --self-test: {} fixtures ok", files.len());
        0
    } else {
        eprintln!("stems-lint --self-test: {failed} fixture(s) failed");
        1
    }
}

fn collect_fixtures(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `default-hasher` fires on exactly the default-hasher lines of its
    /// fixture — not on the Fx and identity-hashed maps, a hasher-taking
    /// constructor, an import, or the test module.
    #[test]
    fn default_hasher_fires_on_sip_hashed_maps_only() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/default_hasher.rs");
        let text = std::fs::read_to_string(fixture).expect("fixture");
        let lines: Vec<usize> = lint_source("crates/core/src/memo.rs", &text, &[])
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [10, 11, 15, 16, 17]);
        // Outside `crates/core/src/` the rule does not run.
        assert!(lint_source("crates/catalog/src/cat.rs", &text, &[]).is_empty());
    }

    /// `stem-lock` fires on exactly the two locked SteMs of its fixture
    /// — not on the imports, a lock around anything else, the comment or
    /// the test module — and only in non-test `crates/core/src/`.
    #[test]
    fn stem_lock_fires_on_locked_stems_only() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/stem_cell.rs");
        let text = std::fs::read_to_string(fixture).expect("fixture");
        let lines: Vec<usize> = lint_source("crates/core/src/server.rs", &text, &[])
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [11, 14]);
        assert!(lint_source("crates/bench/src/server.rs", &text, &[]).is_empty());
    }

    /// `--loc` counts a file's lines minus its `#[cfg(test)]` items: a
    /// body-less `mod x;`, a test-only method inside an impl and a test
    /// module. A brace in a string or a comment does not count.
    #[test]
    fn loc_counts_lines_outside_test_items() {
        let text = "\
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
        // 16 lines, of which 2 + 4 + 4 are test items.
        assert_eq!(non_test_lines(text), 6);
        assert_eq!(test_mods(text).collect::<Vec<_>>(), ["alloc.rs"]);
    }

    /// `series-of-count` fires on exactly the two count reads of its
    /// fixture — not on the curve, the by-variable call, the `counter`
    /// read or the mention in a comment.
    #[test]
    fn series_of_count_fires_on_count_reads_only() {
        let root = workspace_root();
        let counts = engine_counts(&root).expect("the engine declares its counts");
        for name in ["route_batches", "stem_probes"] {
            assert!(counts.iter().any(|c| c == name), "{name}");
        }
        assert!(!counts.iter().any(|c| c == "results"));
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/series_of_count.rs");
        let text = std::fs::read_to_string(fixture).expect("fixture");
        let lines: Vec<usize> = lint_source("crates/bench/src/paper.rs", &text, &counts)
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [9, 10]);
        // Outside the house roots only this rule runs.
        let wall = "fn t() { let _ = Instant::now(); let _ = m.series(\"stem_probes\"); }";
        let rules: Vec<&str> = lint_source("benchmark/src/run.rs", wall, &counts)
            .iter()
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules, ["series-of-count"]);
    }
}
