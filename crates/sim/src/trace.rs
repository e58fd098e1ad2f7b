//! Structured trace recording for experiment harnesses.
//!
//! Every experiment binary in `btd-bench` prints table rows; during a run
//! the underlying simulations emit [`TraceEvent`]s into a [`TraceLog`] so
//! tests can assert on *what happened* (e.g. "the server rejected exactly
//! the replayed messages") rather than scraping formatted output.

use std::fmt;

use crate::time::SimTime;

/// Severity of a trace event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Routine progress (touch captured, message delivered).
    Info,
    /// Unusual but handled (low-quality capture discarded).
    Warn,
    /// A security-relevant rejection (MAC failure, replay detected).
    Security,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Security => "SEC ",
        };
        f.write_str(s)
    }
}

/// One recorded event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// When the event occurred on the simulated timeline.
    pub at: SimTime,
    /// Which component emitted it (e.g. `"flock.fp_controller"`).
    pub component: String,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {}] {}: {}",
            self.at, self.severity, self.component, self.message
        )
    }
}

/// An append-only log of [`TraceEvent`]s.
///
/// # Example
///
/// ```
/// use btd_sim::trace::{Severity, TraceLog};
/// use btd_sim::time::SimTime;
///
/// let mut log = TraceLog::new();
/// log.security(SimTime::ZERO, "server", "replayed nonce rejected");
/// assert_eq!(log.events()[0].severity, Severity::Security);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends an event.
    pub fn push(
        &mut self,
        at: SimTime,
        component: &str,
        severity: Severity,
        message: impl Into<String>,
    ) {
        self.events.push(TraceEvent {
            at,
            component: component.to_owned(),
            severity,
            message: message.into(),
        });
    }

    /// Appends a [`Severity::Security`] event.
    pub fn security(&mut self, at: SimTime, component: &str, message: impl Into<String>) {
        self.push(at, component, Severity::Security, message);
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends all events from `other`.
    pub fn absorb(&mut self, other: &TraceLog) {
        self.events.extend(other.events.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut log = TraceLog::new();
        log.info(SimTime::ZERO, "a", "hello");
        log.warn(SimTime::from_nanos(5), "b", "low quality capture");
        log.security(SimTime::from_nanos(9), "c", "mac mismatch");
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_severity(Severity::Info), 1);
        assert_eq!(log.count_severity(Severity::Security), 1);
        assert_eq!(log.matching("quality").count(), 1);
    }

    #[test]
    fn absorb_concatenates() {
        let mut a = TraceLog::new();
        a.info(SimTime::ZERO, "x", "1");
        let mut b = TraceLog::new();
        b.info(SimTime::ZERO, "y", "2");
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn display_formats_event() {
        let e = TraceEvent {
            at: SimTime::from_nanos(1_000),
            component: "srv".into(),
            severity: Severity::Security,
            message: "bad".into(),
        };
        let s = e.to_string();
        assert!(s.contains("srv"));
        assert!(s.contains("bad"));
    }

    impl TraceLog {
        /// Appends an [`Severity::Info`] event.
        pub fn info(&mut self, at: SimTime, component: &str, message: impl Into<String>) {
            self.push(at, component, Severity::Info, message);
        }

        /// Appends a [`Severity::Warn`] event.
        pub fn warn(&mut self, at: SimTime, component: &str, message: impl Into<String>) {
            self.push(at, component, Severity::Warn, message);
        }

        /// How many events carry the given severity.
        pub fn count_severity(&self, severity: Severity) -> usize {
            self.events
                .iter()
                .filter(|e| e.severity == severity)
                .count()
        }

        /// Events whose message contains `needle`.
        pub fn matching<'a>(
            &'a self,
            needle: &'a str,
        ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
            self.events
                .iter()
                .filter(move |e| e.message.contains(needle))
        }
    }
}
