//! Self-tests: every rule family proves it fires on its `bad.rs` fixture
//! and stays quiet on the matching `good.rs`. The staged path is part of
//! each case — rules scope by workspace-relative path, so the same bytes
//! can be a violation in one crate and fine in another.

use trust_lint::{lint_sources, Config, Report};

fn lint(rel: &str, src: &str) -> Report {
    lint_sources([(rel, src)], &Config::default())
}

/// Unwaived rule ids, in emission order.
fn fired(report: &Report) -> Vec<&'static str> {
    report.unwaived().map(|f| f.rule).collect()
}

/// Asserts `bad` fires `rule` exactly `expect` times and `good` is silent.
fn check_pair(rel: &str, bad: &str, good: &str, rule: &str, expect: usize) {
    let bad_report = lint(rel, bad);
    let hits = fired(&bad_report).iter().filter(|r| **r == rule).count();
    assert_eq!(
        hits,
        expect,
        "{rule} on bad fixture at {rel}: wanted {expect} findings, got:\n{}",
        bad_report.render(true)
    );
    assert_eq!(
        bad_report.unwaived_count(),
        expect,
        "bad fixture at {rel} fired rules besides {rule}:\n{}",
        bad_report.render(true)
    );

    let good_report = lint(rel, good);
    assert_eq!(
        good_report.unwaived_count(),
        0,
        "good fixture at {rel} should be clean, got:\n{}",
        good_report.render(true)
    );
}

#[test]
fn secret_debug_derive() {
    // Two findings: the derive and the Display impl.
    check_pair(
        "crates/crypto/src/schnorr.rs",
        include_str!("fixtures/secret_debug_derive/bad.rs"),
        include_str!("fixtures/secret_debug_derive/good.rs"),
        "secret-debug-derive",
        2,
    );
}

#[test]
fn secret_debug_derive_only_fires_on_the_definition() {
    // An unrelated `KeyPair` in another crate deriving Debug is someone
    // else's type; the manifest scopes by defining file.
    let report = lint(
        "crates/sim/src/geom.rs",
        include_str!("fixtures/secret_debug_derive/bad.rs"),
    );
    assert!(
        !fired(&report).contains(&"secret-debug-derive"),
        "defined_in scoping failed:\n{}",
        report.render(true)
    );
}

#[test]
fn secret_outside_trust() {
    check_pair(
        "crates/bench/src/rogue.rs",
        include_str!("fixtures/secret_outside_trust/bad.rs"),
        include_str!("fixtures/secret_outside_trust/good.rs"),
        "secret-outside-trust",
        2,
    );
}

#[test]
fn secret_outside_trust_is_quiet_inside_the_boundary() {
    // The exact bytes that fire in `crates/bench` are fine in the crypto
    // crate: containment is about *where*, not *what*.
    let report = lint(
        "crates/crypto/src/keys.rs",
        include_str!("fixtures/secret_outside_trust/bad.rs"),
    );
    assert_eq!(
        report.unwaived_count(),
        0,
        "trusted path should not fire:\n{}",
        report.render(true)
    );
}

#[test]
fn secret_format_leak() {
    // One via `println!`, one via `tracer.record(...)`.
    check_pair(
        "crates/core/src/anywhere.rs",
        include_str!("fixtures/secret_format_leak/bad.rs"),
        include_str!("fixtures/secret_format_leak/good.rs"),
        "secret-format-leak",
        2,
    );
}

#[test]
fn secret_format_leak_fires_even_in_trusted_modules() {
    // Trusted code is exactly where a stray `format!` does the most
    // damage; this rule has no safe harbour.
    let report = lint(
        "crates/crypto/src/debugging.rs",
        include_str!("fixtures/secret_format_leak/bad.rs"),
    );
    assert!(
        fired(&report).contains(&"secret-format-leak"),
        "leak rule must apply inside the boundary too:\n{}",
        report.render(true)
    );
}

#[test]
fn secret_payload_field() {
    // One struct field, one enum-variant field.
    check_pair(
        "crates/core/src/messages.rs",
        include_str!("fixtures/secret_payload_field/bad.rs"),
        include_str!("fixtures/secret_payload_field/good.rs"),
        "secret-payload-field",
        2,
    );
}

#[test]
fn secret_payload_field_only_applies_to_payload_files() {
    let report = lint(
        "crates/core/src/pages.rs",
        include_str!("fixtures/secret_payload_field/bad.rs"),
    );
    assert!(
        !fired(&report).contains(&"secret-payload-field"),
        "non-payload files may hold session keys in memory:\n{}",
        report.render(true)
    );
}

#[test]
fn wall_clock() {
    // The `use` line and the `Instant::now()` line.
    check_pair(
        "crates/core/src/timing.rs",
        include_str!("fixtures/wall_clock/bad.rs"),
        include_str!("fixtures/wall_clock/good.rs"),
        "wall-clock",
        2,
    );
}

#[test]
fn os_thread() {
    check_pair(
        "crates/core/src/workers.rs",
        include_str!("fixtures/os_thread/bad.rs"),
        include_str!("fixtures/os_thread/good.rs"),
        "os-thread",
        1,
    );
}

#[test]
fn os_thread_is_sanctioned_only_in_the_shard_worker_pool() {
    // The identical worker-pool source is judged purely by path: silent
    // at the one sanctioned home (`crates/core/src/parallel.rs`), one
    // finding anywhere else. The scope is part of the workspace model,
    // not an in-file waiver, so sim code cannot opt itself out.
    let pool = include_str!("fixtures/os_thread_scoped/pool.rs");
    let sanctioned = lint("crates/core/src/parallel.rs", pool);
    assert_eq!(
        fired(&sanctioned),
        Vec::<&str>::new(),
        "the worker pool is the sanctioned `std::thread` home:\n{}",
        sanctioned.render(true)
    );
    let elsewhere = lint("crates/core/src/engine.rs", pool);
    assert_eq!(
        fired(&elsewhere),
        vec!["os-thread"],
        "the same source outside the pool keeps the rule:\n{}",
        elsewhere.render(true)
    );
    // The scope is exact: a neighboring file whose name merely resembles
    // the pool is still forbidden.
    let neighbor = lint("crates/core/src/parallel_helpers.rs", pool);
    assert_eq!(fired(&neighbor), vec!["os-thread"]);
}

#[test]
fn os_random() {
    // `OsRng` in the use, `thread_rng` in the body.
    check_pair(
        "crates/core/src/noise.rs",
        include_str!("fixtures/os_random/bad.rs"),
        include_str!("fixtures/os_random/good.rs"),
        "os-random",
        2,
    );
}

#[test]
fn unordered_iteration() {
    check_pair(
        "crates/core/src/snap.rs",
        include_str!("fixtures/unordered_iteration/bad.rs"),
        include_str!("fixtures/unordered_iteration/good.rs"),
        "unordered-iteration",
        1,
    );
}

#[test]
fn unordered_iteration_ignores_non_canonical_functions() {
    // The same hash-order loop in a fn whose output is not canonical
    // (no snapshot/digest/export/canonical marker) is fine.
    let renamed = include_str!("fixtures/unordered_iteration/bad.rs").replace("snapshot", "tally");
    let report = lint("crates/core/src/snap.rs", &renamed);
    assert_eq!(
        report.unwaived_count(),
        0,
        "marker scoping failed:\n{}",
        report.render(true)
    );
}

#[test]
fn secret_taint_tracks_a_renamed_binding() {
    // The acceptance case for the dataflow engine: `let k = session.key;
    // tracer.record(.., k)` carries no secret *name* at the sink, so the
    // old `secret-format-leak` heuristic stays silent — `check_pair`
    // asserts the bad fixture fires `secret-taint` and nothing else.
    check_pair(
        "crates/core/src/audit.rs",
        include_str!("fixtures/secret_taint/bad.rs"),
        include_str!("fixtures/secret_taint/good.rs"),
        "secret-taint",
        1,
    );
}

#[test]
fn secret_taint_names_its_origin() {
    let report = lint(
        "crates/core/src/audit.rs",
        include_str!("fixtures/secret_taint/bad.rs"),
    );
    let f = report.unwaived().next().unwrap();
    assert!(
        f.message.contains("Session.key"),
        "the finding should name the tainting field: {}",
        f.message
    );
}

#[test]
fn determinism_reach_follows_the_call_chain() {
    // Staged in `crates/bench`, where the direct wall-clock rule is out
    // of scope — only transitive reachability from `World::run` fires.
    check_pair(
        "crates/bench/src/sim_probe.rs",
        include_str!("fixtures/determinism_reach/bad.rs"),
        include_str!("fixtures/determinism_reach/good.rs"),
        "determinism-reach",
        1,
    );
    let report = lint(
        "crates/bench/src/sim_probe.rs",
        include_str!("fixtures/determinism_reach/bad.rs"),
    );
    let f = report.unwaived().next().unwrap();
    assert!(
        f.message.contains("World::run -> step -> probe"),
        "the finding should print the full call chain: {}",
        f.message
    );
}

#[test]
fn unordered_iteration_tracks_flow_through_renames() {
    // Dataflow, not lookahead: the hash-ordered Vec passes through a
    // second binding before being returned from the canonical fn.
    let src = "\
use std::collections::HashMap;
pub struct Book { pages: HashMap<String, u64> }
impl Book {
    pub fn export(&self) -> Vec<String> {
        let names: Vec<String> = self.pages.keys().cloned().collect();
        let out = names;
        out
    }
}
";
    let report = lint("crates/core/src/snap.rs", src);
    assert_eq!(
        fired(&report),
        vec!["unordered-iteration"],
        "{}",
        report.render(true)
    );
}

#[test]
fn unordered_iteration_sees_a_distant_sort() {
    // The old implementation scanned a fixed 48-token window after the
    // iteration for a `.sort`; a sort separated by unrelated statements
    // fell outside it. The dataflow rule launders wherever the sort is.
    let src = "\
use std::collections::HashMap;
pub struct Book { pages: HashMap<String, u64> }
impl Book {
    pub fn export(&self) -> Vec<String> {
        let mut names: Vec<String> = self.pages.keys().cloned().collect();
        let a = 1u64 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10;
        let b = a * a + a * a + a * a + a * a + a * a + a * a;
        let c = b - a + b - a + b - a + b - a + b - a + b - a;
        let _guard = c + b + a + c + b + a + c + b + a + c;
        names.sort();
        names
    }
}
";
    let report = lint("crates/core/src/snap.rs", src);
    assert_eq!(report.unwaived_count(), 0, "{}", report.render(true));
}

#[test]
fn journal_discipline() {
    check_pair(
        "crates/core/src/server/mod.rs",
        include_str!("fixtures/journal_discipline/bad.rs"),
        include_str!("fixtures/journal_discipline/good.rs"),
        "journal-discipline",
        1,
    );
}

#[test]
fn journal_discipline_only_applies_to_the_durable_file() {
    let report = lint(
        "crates/core/src/device.rs",
        include_str!("fixtures/journal_discipline/bad.rs"),
    );
    assert_eq!(
        report.unwaived_count(),
        0,
        "durable-file scoping failed:\n{}",
        report.render(true)
    );
}

#[test]
fn storage_sync_before_reply() {
    check_pair(
        "crates/core/src/server/mod.rs",
        include_str!("fixtures/storage_sync_before_reply/bad.rs"),
        include_str!("fixtures/storage_sync_before_reply/good.rs"),
        "storage-sync-before-reply",
        1,
    );
}

#[test]
fn storage_sync_before_reply_only_applies_to_the_durable_file() {
    // The same unsynced-reply shape in another file is someone else's
    // state machine — the discipline binds the server's durable path.
    let report = lint(
        "crates/core/src/device.rs",
        include_str!("fixtures/storage_sync_before_reply/bad.rs"),
    );
    assert_eq!(
        report.unwaived_count(),
        0,
        "durable-file scoping failed:\n{}",
        report.render(true)
    );
}

#[test]
fn metrics_trace_parity() {
    // Two bump sites, one finding per offending function.
    let rel = "crates/core/src/flow.rs";
    let bad = include_str!("fixtures/metrics_trace_parity/bad.rs");
    check_pair(
        rel,
        bad,
        include_str!("fixtures/metrics_trace_parity/good.rs"),
        "metrics-trace-parity",
        1,
    );
    let report = lint(rel, bad);
    let f = report.unwaived().next().unwrap();
    assert!(
        f.message.contains("2 site(s)"),
        "per-fn finding should count its bump sites: {}",
        f.message
    );
}

#[test]
fn waiver_syntax() {
    // One reasonless waiver, one unknown rule id.
    check_pair(
        "crates/core/src/waved.rs",
        include_str!("fixtures/waiver_syntax/bad.rs"),
        include_str!("fixtures/waiver_syntax/good.rs"),
        "waiver-syntax",
        2,
    );
}

#[test]
fn a_valid_waiver_downgrades_but_still_reports() {
    let report = lint(
        "crates/core/src/waved.rs",
        include_str!("fixtures/waiver_syntax/good.rs"),
    );
    assert_eq!(report.unwaived_count(), 0);
    assert_eq!(
        report.waived_count(),
        1,
        "the waived wall-clock finding should still be counted:\n{}",
        report.render(true)
    );
}

#[test]
fn allow_file_covers_the_whole_file() {
    let src = "\
// trust-lint: allow-file(wall-clock) -- this whole probe measures wall time on purpose
use std::time::Instant;

pub fn a() -> Instant {
    Instant::now()
}
";
    let report = lint("crates/core/src/clockful.rs", src);
    assert_eq!(report.unwaived_count(), 0, "{}", report.render(true));
    assert_eq!(report.waived_count(), 3);
}

#[test]
fn wall_clock_is_out_of_scope_in_bench_binaries() {
    // Bench binaries measure wall time — that's their product. The direct
    // rule is path-scoped out; `determinism-reach` still guards anything
    // a sim entry can reach, so this is not a blanket exemption.
    let src = "use std::time::Instant;\npub fn t() -> Instant { Instant::now() }\n";
    let report = lint("crates/bench/src/bin/clockful.rs", src);
    assert_eq!(report.unwaived_count(), 0, "{}", report.render(true));
}

#[test]
fn a_waiver_covers_its_whole_statement() {
    // The finding anchors three lines below the waiver — still inside
    // the brace-balanced statement the waiver precedes. The old
    // next-line-only coverage forced one waiver per offending line of a
    // multi-line call; statement extent makes one waiver one decision.
    let waived = "\
pub fn probe() -> (u32, u128) {
    // trust-lint: allow(wall-clock) -- the probe tuple samples host time once for the human table
    let pair = (
        1u32,
        std::time::Instant::now()
            .elapsed()
            .as_nanos(),
    );
    pair
}
";
    let report = lint("crates/core/src/probe.rs", waived);
    assert_eq!(report.unwaived_count(), 0, "{}", report.render(true));
    assert_eq!(report.waived_count(), 1);

    let bare = waived.replace(
        "    // trust-lint: allow(wall-clock) -- the probe tuple samples host time once for the human table\n",
        "",
    );
    let report = lint("crates/core/src/probe.rs", &bare);
    assert_eq!(
        fired(&report),
        vec!["wall-clock"],
        "{}",
        report.render(true)
    );
}

#[test]
fn a_waiver_does_not_cover_other_rules() {
    let src = "\
// trust-lint: allow(os-random) -- wrong rule for the line below
use std::time::Instant;
";
    let report = lint("crates/core/src/x.rs", src);
    assert_eq!(
        fired(&report),
        vec!["wall-clock"],
        "{}",
        report.render(true)
    );
}

#[test]
fn waivers_inside_doc_comments_are_inert() {
    // Documentation *about* waivers (like the lint's own rustdoc) must
    // neither waive anything nor trip waiver-syntax.
    let src = "\
/// Write waivers like `// trust-lint: allow(wall-clock)` with a reason.
//! e.g. // trust-lint: allow(bogus-rule)
pub fn documented() {}
";
    let report = lint("crates/core/src/docs.rs", src);
    assert_eq!(report.unwaived_count(), 0, "{}", report.render(true));
}
