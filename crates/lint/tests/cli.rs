//! End-to-end tests of the `trust_lint` binary: exit codes are the CI
//! contract (0 = clean or fully waived, 1 = unwaived findings, 2 = usage
//! or I/O error).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Stages a throwaway workspace containing one core source file.
fn stage(tag: &str, core_src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trust-lint-cli-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).unwrap();
    fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    fs::write(dir.join("crates/core/src/lib.rs"), core_src).unwrap();
    dir
}

fn run(root: &PathBuf, extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_trust_lint"));
    cmd.arg("--root").arg(root);
    cmd.args(extra);
    cmd.output().expect("spawn trust_lint")
}

#[test]
fn unwaived_findings_fail_the_run() {
    let root = stage("bad", "use std::time::Instant;\n");
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[wall-clock]"), "{stdout}");
    assert!(stdout.contains("1 unwaived, 0 waived"), "{stdout}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn waived_findings_pass_the_run() {
    let root = stage(
        "waived",
        "// trust-lint: allow(wall-clock) -- cli test fixture justifying itself\n\
         use std::time::Instant;\n",
    );
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 unwaived, 1 waived"), "{stdout}");
    // The waived finding is hidden by default, shown with --show-waived.
    assert!(!stdout.contains("waived[wall-clock]"), "{stdout}");
    let shown = run(&root, &["--show-waived"]);
    assert!(
        String::from_utf8_lossy(&shown.stdout).contains("waived[wall-clock]"),
        "{shown:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_reasonless_waiver_cannot_waive_itself() {
    // The malformed waiver both fails to suppress the wall-clock finding
    // and adds a waiver-syntax finding of its own.
    let root = stage(
        "reasonless",
        "// trust-lint: allow(wall-clock)\nuse std::time::Instant;\n",
    );
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[waiver-syntax]"), "{stdout}");
    assert!(stdout.contains("error[wall-clock]"), "{stdout}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_goes_to_stdout_and_diagnostics_to_stderr() {
    // CI archives stdout as the findings artifact; it must be pure JSON
    // even when the run fails, with the human render on stderr.
    let root = stage("json", "use std::time::Instant;\n");
    let out = run(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\n  \"schema\": 1,\n"), "{stdout}");
    assert!(stdout.ends_with("}\n"), "{stdout}");
    assert!(
        stdout.contains("\"rule\": \"wall-clock\", \"path\": \"crates/core/src/lib.rs\""),
        "{stdout}"
    );
    assert!(
        !stdout.contains("error[wall-clock]"),
        "stdout must stay parseable: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[wall-clock]"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_on_a_clean_tree_is_quiet_and_succeeds() {
    let root = stage("json-clean", "pub fn fine() {}\n");
    let out = run(&root, &["--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"unwaived\": 0"), "{stdout}");
    assert!(out.stderr.is_empty(), "{out:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn an_unreached_pub_fn_fails_the_run_once_a_bin_is_scanned() {
    let root = stage("unreached", "pub fn used() {}\n\npub fn orphan() {}\n");
    fs::create_dir_all(root.join("crates/core/src/bin")).unwrap();
    fs::write(
        root.join("crates/core/src/bin/tool.rs"),
        "fn main() {\n    core::used();\n}\n",
    )
    .unwrap();
    let out = run(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "crates/core/src/lib.rs:3: error[unreached-pub-fn]: `pub fn orphan` is reached from \
         nothing: no bin, example, bench, integration test, trait impl or item initializer \
         calls it; delete it\n\
         trust-lint: 2 files scanned, 1 finding(s): 1 unwaived, 0 waived\n"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn list_rules_prints_every_rule_id() {
    let out = Command::new(env!("CARGO_BIN_EXE_trust_lint"))
        .arg("--list-rules")
        .output()
        .expect("spawn trust_lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in trust_lint::RULES {
        assert!(stdout.lines().any(|l| l == *rule), "missing {rule}");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_trust_lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn trust_lint");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
