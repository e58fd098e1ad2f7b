//! `unreached-pub-fn` — public fns that no binary, example, benchmark or
//! integration test can reach.
//!
//! rustc's `dead_code` lint already covers private and `pub(crate)` fns;
//! a plain `pub fn` escapes it because another crate *could* call it.
//! This rule asks whether any does. Entries are every `main` of a bin or
//! example (`perfbench/src/main.rs` included), every fn in integration
//! tests, benches and examples, every trait-impl method and trait default
//! body (trait dispatch calls them), and every fn used outside a fn body
//! (a `const`/`static` initializer). A `pub fn` under `crates/*/src`
//! outside `#[cfg(test)]` code and bins that no entry reaches is a
//! finding, worded by whether unit tests still reach it.
//!
//! The rule needs an executable entry in the scanned set: over a fixture
//! or a library alone, every fn would read as unreached.

use crate::dataflow::Analysis;
use crate::findings::Finding;
use crate::symbols::FnDef;

pub fn check(analysis: &Analysis<'_>, out: &mut Vec<Finding>) {
    let symbols = &analysis.symbols;
    let graph = &analysis.graph;
    let path = |f: &FnDef| symbols.paths[f.file].as_str();
    if !symbols.paths.iter().any(|p| is_entry_file(p) || is_bin(p)) {
        return;
    }
    let (mut live, mut test) = (Vec::new(), Vec::new());
    for (idx, f) in symbols.fns.iter().enumerate() {
        let p = path(f);
        let entry = is_entry_file(p) || (is_bin(p) && f.name == "main") || f.trait_item;
        if f.in_test {
            test.push(idx);
        } else if entry {
            live.push(idx);
        }
    }
    for r in &graph.item_refs {
        if symbols.in_test(r.file, r.tok) {
            test.extend(&r.callees);
        } else {
            live.extend(&r.callees);
        }
    }
    let reached = graph.reachable_from(&live);
    test.extend(live);
    let reached_by_tests = graph.reachable_from(&test);

    for (idx, f) in symbols.fns.iter().enumerate() {
        if !is_target(f, path(f)) || reached[idx].is_some() {
            continue;
        }
        let message = if reached_by_tests[idx].is_some() {
            format!(
                "`pub fn {}` is reached only from `#[cfg(test)]` code (via `{}`); delete it \
                 with the tests that only exercise it, move it under `#[cfg(test)]`, or \
                 waive it with the reason it stays",
                f.qualified(),
                graph.chain(symbols, &reached_by_tests, idx)[0],
            )
        } else {
            format!(
                "`pub fn {}` is reached from nothing: no bin, example, bench, integration \
                 test, trait impl or item initializer calls it; delete it",
                f.qualified(),
            )
        };
        out.push(Finding::new("unreached-pub-fn", path(f), f.line, message));
    }
}

/// A `pub fn` the rule judges: library code under `crates/*/src`, not a
/// bin, not test code, not called by trait dispatch.
fn is_target(f: &FnDef, path: &str) -> bool {
    f.is_pub
        && !f.in_test
        && !f.trait_item
        && path.starts_with("crates/")
        && path.contains("/src/")
        && !is_bin(path)
}

/// Files whose every fn is an entry: integration tests, benches and
/// examples, at the workspace root or in a crate.
fn is_entry_file(path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| path.starts_with(dir) || path.contains(&format!("/{dir}")))
}

/// Binary sources, whose `main` is an entry.
fn is_bin(path: &str) -> bool {
    path.ends_with("src/main.rs") || path.contains("/src/bin/")
}
