//! Findings and their rendering.

use std::fmt;

/// Every rule id the engine can emit. Waivers are validated against this
/// list so a typo in `allow(...)` is caught instead of silently waiving
/// nothing.
pub const RULES: &[&str] = &[
    "secret-debug-derive",
    "secret-outside-trust",
    "secret-format-leak",
    "secret-payload-field",
    "wall-clock",
    "os-thread",
    "os-random",
    "unordered-iteration",
    "journal-discipline",
    "storage-sync-before-reply",
    "metrics-trace-parity",
    "secret-taint",
    "determinism-reach",
    "waiver-syntax",
];

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Set when a valid waiver covers this finding; waived findings are
    /// reported in the summary but do not fail the run.
    pub waived: bool,
    /// For interprocedural findings: the call chain (qualified fn names)
    /// from the entry point / taint origin to the flagged site. Empty for
    /// single-site findings.
    pub chain: Vec<String>,
}

impl Finding {
    pub fn new(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
            waived: false,
            chain: Vec::new(),
        }
    }

    pub fn with_chain(mut self, chain: Vec<String>) -> Finding {
        self.chain = chain;
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.waived { "waived" } else { "error" };
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.path, self.line, tag, self.rule, self.message
        )
    }
}

/// A whole run's outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// Renders the report: unwaived findings first (sorted by path/line),
    /// then a one-line summary. This exact format is pinned by a golden
    /// test; change both together.
    pub fn render(&self, show_waived: bool) -> String {
        let mut out = String::new();
        let mut sorted: Vec<&Finding> = self.findings.iter().collect();
        sorted.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        for f in &sorted {
            if !f.waived || show_waived {
                out.push_str(&f.to_string());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "trust-lint: {} files scanned, {} finding(s): {} unwaived, {} waived\n",
            self.files_scanned,
            self.findings.len(),
            self.unwaived_count(),
            self.waived_count(),
        ));
        out
    }

    /// Renders the report as stable machine-readable JSON (`--json`).
    /// Same ordering as [`Report::render`]; schema version bumps on any
    /// shape change. This exact output is pinned by a golden test.
    pub fn render_json(&self) -> String {
        let mut sorted: Vec<&Finding> = self.findings.iter().collect();
        sorted.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"unwaived\": {},\n", self.unwaived_count()));
        out.push_str(&format!("  \"waived\": {},\n", self.waived_count()));
        out.push_str("  \"findings\": [");
        for (k, f) in sorted.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": {}, ", json_str(f.rule)));
            out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"waived\": {}, ", f.waived));
            out.push_str("\"chain\": [");
            for (c, link) in f.chain.iter().enumerate() {
                if c > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(link));
            }
            out.push_str("], ");
            out.push_str(&format!("\"message\": {}", json_str(&f.message)));
            out.push('}');
        }
        if !sorted.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string encoding (the zero-dependency constraint reaches
/// here too).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
