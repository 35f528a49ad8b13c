//! Source rules the compiler cannot hold, read with comments dropped and,
//! for most, without `#[cfg(test)]` items: a unit test may do what the
//! code it tests may not.

use std::fs;
use std::path::Path;

/// One `.rs` file with its comments blanked; `code` has its string and
/// char literals blanked too. Newlines stay, so an offset is on the same
/// line in both views.
struct Source {
    path: String,
    code: Vec<u8>,
    text: Vec<u8>,
}

impl Source {
    fn parse(path: String, src: &str) -> Source {
        let (mut code, mut text, mut i) = (src.as_bytes().to_vec(), src.as_bytes().to_vec(), 0);
        while i < code.len() {
            let (end, literal) = token(&code, i);
            let end = end.min(code.len());
            blank(&mut code, i..end);
            if !literal {
                blank(&mut text, i..end);
            }
            i = end.max(i + 1);
        }
        Source { path, code, text }
    }

    /// This file without its `#[cfg(test)]` items.
    fn non_test(mut self) -> Source {
        while let Some(at) = find(&self.code, b"#[cfg(test)]", 0) {
            let item = at..item_end(&self.code, at + "#[cfg(test)]".len());
            blank(&mut self.code, item.clone());
            blank(&mut self.text, item);
        }
        self
    }

    /// The extent of the first `fn name(` item.
    fn span_of(&self, name: &str) -> std::ops::Range<usize> {
        let at = find(&self.code, format!("fn {name}(").as_bytes(), 0).unwrap_or_else(|| panic!("no fn {name}"));
        at..item_end(&self.code, at)
    }
}

fn find(b: &[u8], pat: &[u8], from: usize) -> Option<usize> {
    (from..b.len()).find(|&j| b[j..].starts_with(pat))
}

/// The comment or literal starting at byte `at`, as `(end, is_literal)`;
/// an end of `at` means none starts there.
fn token(b: &[u8], at: usize) -> (usize, bool) {
    let past = |pat: &[u8], from| find(b, pat, from).map_or(b.len(), |j| j + pat.len());
    match (b[at], b.get(at + 1).copied()) {
        (b'/', Some(b'/')) => (past(b"\n", at), false),
        // Block comments do not nest here; none in the workspace does.
        (b'/', Some(b'*')) => (past(b"*/", at + 2), false),
        (b'"', _) => {
            // `r"…"`, `br#"…"#`: no escapes, and the hashes close it.
            let open = at - b[..at].iter().rev().take_while(|&&c| c == b'#').count();
            let word = b[..open].iter().rev().take_while(|c| c.is_ascii_alphanumeric() || **c == b'_').count();
            if matches!(&b[open - word..open], b"r" | b"br") {
                return (past(&[b"\"", &b[open..at]].concat(), at + 1), true);
            }
            let mut j = at + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            (j + 1, true)
        }
        // `'\n'`, `'{'`, `'κ'`; a lifetime `'a` has no closing quote.
        (b'\'', Some(b'\\')) => (past(b"'", at + 3), true),
        (b'\'', Some(c)) => {
            let close = at + 1 + (c.leading_ones() as usize).max(1);
            if b.get(close) == Some(&b'\'') { (close + 1, true) } else { (at, false) }
        }
        _ => (at, false),
    }
}

/// Where the item starting at `from` ends: past its `;` or its closing
/// brace, or before a closer that belongs to the enclosing item.
fn item_end(code: &[u8], from: usize) -> usize {
    let mut depth = 0;
    for (j, &c) in code.iter().enumerate().skip(from) {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return j,
            b'}' if depth == 1 => return j + 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' if depth == 0 => return j + 1,
            _ => {}
        }
    }
    code.len()
}

fn blank(bytes: &mut [u8], range: std::ops::Range<usize>) {
    bytes[range].iter_mut().filter(|b| **b != b'\n').for_each(|b| *b = b' ');
}

/// Every `.rs` file under crates/ and tests/ whose path from the
/// workspace root `keep` accepts.
fn sources(keep: impl Fn(&str) -> bool) -> impl Iterator<Item = Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let (mut dirs, mut files) = (vec![root.join("crates"), root.join("tests")], Vec::new());
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push((path.strip_prefix(&root).unwrap().display().to_string(), path));
            }
        }
    }
    files.sort();
    files.into_iter().filter(move |(path, _)| keep(path)).map(|(path, f)| Source::parse(path, &fs::read_to_string(f).unwrap()))
}

/// The non-test code of every file under one of `dirs`.
fn code_under(dirs: &'static [&'static str]) -> impl Iterator<Item = Source> {
    sources(move |path| dirs.iter().any(|dir| path.starts_with(dir))).map(Source::non_test)
}

/// Fails with `path:line: text` of each of `needles` in `sources` (in
/// `text` when `literals`, else in `code`) that `allowed` does not excuse.
#[track_caller]
fn forbid(rule: &str, sources: impl Iterator<Item = Source>, needles: &[&str], literals: bool, allowed: impl Fn(&Source, usize) -> bool) {
    let (sources, mut hits): (Vec<Source>, _) = (sources.collect(), Vec::new());
    for (s, needle) in sources.iter().flat_map(|s| needles.iter().map(move |n| (s, n.as_bytes()))) {
        let view = if literals { &s.text } else { &s.code };
        for at in (0..view.len()).filter(|&at| view[at..].starts_with(needle) && !allowed(s, at)) {
            let line = view[..at].iter().filter(|&&b| b == b'\n').count();
            let text = String::from_utf8_lossy(view.split(|&b| b == b'\n').nth(line).unwrap()).trim().to_owned();
            hits.push(format!("{}:{}: {text}", s.path, line + 1));
        }
    }
    assert!(hits.is_empty(), "{rule}:\n{}", hits.join("\n"));
}

/// An ignored test is coverage that only looks present.
#[test]
fn no_test_is_ignored() {
    forbid("ignored tests are not allowed", sources(|_| true), &["#[ignore"], false, |_, _| false);
}

/// No crate needs `unsafe`; a packed row is where `get_unchecked` tempts.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let roots = sources(|p| p.contains("/src/bin/") || p.ends_with("/src/lib.rs") || p.ends_with("/src/main.rs"));
    let forbids = |s: &Source| s.code.split(|&b| b == b'\n').any(|l| l == b"#![forbid(unsafe_code)]");
    let bare: Vec<String> = roots.filter(|s| !forbids(s)).map(|s| s.path).collect();
    assert!(bare.is_empty(), "crate roots without #![forbid(unsafe_code)]: {bare:?}");
}

/// A commit patches the name index and path summary; only deriving a
/// fresh bundle (load, recovery) builds them, or a commit costs the document.
#[test]
fn derived_indexes_are_built_only_by_derive() {
    let in_derive = |s: &Source, at| s.path.ends_with("/catalog.rs") && s.span_of("derive").contains(&at);
    let needles = ["PathSummary::build", "NameIndex::build"];
    forbid("an index built outside LoadedDoc::derive", code_under(&["crates/service/src/"]), &needles, false, in_derive);
}

/// One write path: `server::commit` (write verbs, follower apply, preload)
/// or `server::install_recovered` (restart, bootstrap); catalog.rs defines
/// the primitives.
#[test]
fn the_catalog_is_written_only_by_commit() {
    let writes = |s: &Source, at| match s.path.as_str() {
        "crates/service/src/catalog.rs" => true,
        "crates/service/src/server.rs" => ["commit", "install_recovered"].iter().any(|f| s.span_of(f).contains(&at)),
        _ => false,
    };
    let sources = code_under(&["crates/service/src/", "crates/cli/src/"]);
    let needles = ["log_with(", "insert_with_id(", "catalog.replace("];
    forbid("catalog written outside commit / install_recovered", sources, &needles, false, writes);
}

/// One connection state machine: only mux.rs's `Conn` decodes requests.
#[test]
fn requests_are_decoded_only_by_the_mux() {
    let mux = |s: &Source, at: usize| s.path.ends_with("/mux.rs") || s.code[..at].ends_with(b"fn ");
    let needles = ["decode_request(", "decode_line("];
    forbid("a request decoded outside mux.rs", code_under(&["crates/service/src/"]), &needles, false, mux);
}

/// One testkit: no suite redefines its helpers, and no test, integration
/// or unit, writes into the system temp dir.
#[test]
fn suites_share_the_testkit() {
    let suites = sources(|p| p.starts_with("tests/") || p.contains("/tests/"));
    let helpers = ["fn scratch(", "fn test_dir(", "fn wait_until(", "fn wait_for(", "fn trees(", "fn forests("];
    forbid("a suite defines a testkit helper", suites, &helpers, false, |_, _| false);
    forbid("a test writes into the system temp dir", sources(|_| true), &["temp_dir("], false, |_, _| false);
}

/// Every Prometheus family is named in prom.rs's series table only. The
/// one rule that reads string literals.
#[test]
fn prometheus_families_are_named_only_in_the_series_table() {
    let sources = code_under(&["crates/service/src/", "crates/cli/src/"]);
    forbid("a Prometheus family named outside prom.rs", sources, &["\"ruid_"], true, |s, _| s.path.ends_with("/prom.rs"));
}

/// The scanner drops comments, literals (from `code` only) and whole
/// `#[cfg(test)]` items, and nothing else.
#[test]
fn the_scanner_drops_comments_literals_and_test_items() {
    let src = "#[cfg(test)] use a::{b, c};\n// x();\nfn f() { y(\"z(\\\"\", '}', br#\"w\"()\"#); /* v(); */ }\n\
               #[cfg(test)]\nmod t { fn g() {} }\nfn h<'a>(_: &'a [u8; 2]) {}";
    let s = Source::parse("s.rs".into(), src).non_test();
    let code = String::from_utf8(s.code).unwrap();
    assert_eq!(code.lines().count(), 6);
    assert_eq!(code.split_whitespace().collect::<String>(), ";fnf(){y(,,br#);}fnh<'a>(_:&'a[u8;2]){}");
    assert!(String::from_utf8(s.text).unwrap().contains(r##"y("z(\"", '}', br#"w"()"#);"##));
}
