//! Offline frame-hash auditing.
//!
//! "To avoid expensive computation, a server can store the returned frame
//! hash code in a log and perform verification during \[an\] off-line audit
//! process." For every audit entry, the frame hash FLock reported must
//! belong to the finite set of legitimate views of the page the server
//! had served; anything else means the user was shown tampered content.
//!
//! Lock-step entries pin the frame to exactly one page: the one the
//! server served immediately before. Pipelined sessions (the windowed
//! engine) keep up to `w` requests in flight, so an honest device is
//! still displaying the page it *applied* most recently — up to `w`
//! serves behind the stream. Each [`AuditEntry`](crate::server::AuditEntry)
//! therefore carries a `lookback`: the frame must match a legitimate view
//! of one of the previous `lookback` entries' expected pages (lock-step
//! entries have `lookback == 1`, keeping the exact check). A tampered
//! overlay matches no legitimate view of *any* served page, so detection
//! strength is unchanged; what the relaxation admits is precisely the
//! bounded staleness pipelining itself introduces.
//!
//! Verification is *batched*: the audit log is stored per account, and an
//! audit pass checks a whole window of an account's entries in one sweep
//! against the server's per-page view hashes, instead of re-deriving the
//! legitimate views entry at a time. The server computes a page's view
//! hashes the first time any audit meets the page and keeps them, so a
//! page's views are hashed once per server no matter how many accounts,
//! entries, sessions or passes reference it.

use btd_crypto::sha256::Digest;

use crate::server::WebServer;

/// One flagged audit entry.
#[derive(Clone, Debug)]
pub struct AuditFinding {
    /// Index into the *account's* audit window (append order).
    pub log_index: usize,
    /// The account affected.
    pub account: String,
    /// The page the server believes it served.
    pub expected_path: String,
    /// The hash of what the user actually saw.
    pub observed_hash: Digest,
    /// The action the (possibly deceived) user authorized.
    pub action: String,
}

/// The result of an offline audit pass.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Entries examined.
    pub total: usize,
    /// Entries whose frame hash matched a legitimate view.
    pub legitimate: usize,
    /// Entries that did not match any legitimate view, in account order
    /// then window order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether every entry checked out.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn merge(&mut self, other: AuditReport) {
        self.total += other.total;
        self.legitimate += other.legitimate;
        self.findings.extend(other.findings);
    }
}

fn audit_window(server: &WebServer, account: &str, start: usize) -> AuditReport {
    let mut report = AuditReport {
        total: 0,
        legitimate: 0,
        findings: Vec::new(),
    };
    let window = server.audit_log_for(account);
    for (i, entry) in window.iter().enumerate().skip(start) {
        report.total += 1;
        // Scan newest-first: the exact (lock-step) page is checked before
        // any pipelining slack, so the common case stays one lookup.
        let lo = i.saturating_sub(entry.lookback.max(1) as usize - 1);
        let legitimate = (lo..=i)
            .rev()
            .any(|j| server.is_legitimate_view(&window[j].expected_path, &entry.frame_hash));
        if legitimate {
            report.legitimate += 1;
        } else {
            report.findings.push(AuditFinding {
                log_index: i,
                account: entry.account.to_string(),
                expected_path: entry.expected_path.to_string(),
                observed_hash: entry.frame_hash,
                action: entry.action.to_string(),
            });
        }
    }
    report
}

/// Audits the server's entire frame-hash log: every account's whole
/// window, against the server's memoized view hashes. Findings are ordered by
/// account, then by position in that account's window.
pub fn audit_server(server: &WebServer) -> AuditReport {
    let mut report = AuditReport {
        total: 0,
        legitimate: 0,
        findings: Vec::new(),
    };
    for account in server.audit_accounts() {
        report.merge(audit_window(server, account, 0));
    }
    report
}

/// Audits one account's frame-hash window starting at `start` (an index
/// into that account's entries), so a caller can audit only the entries
/// a particular session appended. Findings carry absolute window indices
/// regardless of `start`.
pub fn audit_account_from(server: &WebServer, account: &str, start: usize) -> AuditReport {
    audit_window(server, account, start)
}
