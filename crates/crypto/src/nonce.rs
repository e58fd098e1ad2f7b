//! Fresh nonces and replay protection.
//!
//! Both protocol figures in the paper carry "a cookie comprising a fresh
//! nonce N_WS", and the security analysis states that "with the usage of
//! fresh nonce, session keys and risk factors, we can prevent replay
//! attacks". [`NonceGenerator`] issues unpredictable nonces;
//! [`ReplayGuard`] remembers which nonces a server has already accepted so
//! a replayed message is detected.

use std::collections::HashSet;
use std::fmt;

use crate::entropy::EntropySource;

/// A 128-bit protocol nonce, ordered by its bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nonce(pub [u8; 16]);

impl Nonce {
    /// The nonce bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Lowercase hex rendering.
    pub fn to_hex(&self) -> String {
        crate::sha256::hex(&self.0)
    }
}

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nonce({})", self.to_hex())
    }
}

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Issues fresh nonces from an entropy source.
#[derive(Debug)]
pub struct NonceGenerator<E> {
    entropy: E,
}

impl<E: EntropySource> NonceGenerator<E> {
    /// Creates a generator over `entropy`.
    pub fn new(entropy: E) -> Self {
        NonceGenerator { entropy }
    }

    /// Issues the next nonce.
    pub fn next_nonce(&mut self) -> Nonce {
        let mut n = [0u8; 16];
        self.entropy.fill(&mut n);
        Nonce(n)
    }
}

/// Possible outcomes of presenting a nonce to a [`ReplayGuard`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NonceCheck {
    /// The nonce was expected and fresh; it is now consumed.
    Fresh,
    /// The nonce was already consumed — a replay.
    Replayed,
    /// The nonce was never issued by this guard's owner.
    Unknown,
}

/// Tracks issued and consumed nonces for replay detection.
///
/// # Example
///
/// ```
/// use btd_crypto::nonce::{Nonce, NonceCheck, ReplayGuard};
///
/// let mut guard = ReplayGuard::new();
/// let n = Nonce([7; 16]);
/// guard.issue(n);
/// assert_eq!(guard.consume(n), NonceCheck::Fresh);
/// assert_eq!(guard.consume(n), NonceCheck::Replayed);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ReplayGuard {
    outstanding: HashSet<Nonce>,
    consumed: HashSet<Nonce>,
}

impl ReplayGuard {
    /// Creates an empty guard.
    pub fn new() -> Self {
        ReplayGuard::default()
    }

    /// Records that `nonce` has been issued and may be consumed once.
    pub fn issue(&mut self, nonce: Nonce) {
        self.outstanding.insert(nonce);
    }

    /// Attempts to consume `nonce`.
    // trust-lint: allow(unreached-pub-fn) -- the guard's one-shot check, demonstrated by the type's doc example, which the call graph does not read
    pub fn consume(&mut self, nonce: Nonce) -> NonceCheck {
        if self.consumed.contains(&nonce) {
            return NonceCheck::Replayed;
        }
        if self.outstanding.remove(&nonce) {
            self.consumed.insert(nonce);
            NonceCheck::Fresh
        } else {
            NonceCheck::Unknown
        }
    }

    /// How many nonces have been consumed.
    pub fn consumed_len(&self) -> usize {
        self.consumed.len()
    }

    /// Whether `nonce` has already been consumed.
    pub fn is_consumed(&self, nonce: Nonce) -> bool {
        self.consumed.contains(&nonce)
    }

    /// Forcibly records `nonce` as consumed, regardless of whether this
    /// guard issued it. Used when replaying a journal: an applied record
    /// proves its nonce was accepted, even though the restarted guard
    /// never issued it. Returns false if it was already consumed.
    pub fn mark_consumed(&mut self, nonce: Nonce) -> bool {
        self.outstanding.remove(&nonce);
        self.consumed.insert(nonce)
    }

    /// Forgets that `nonce` was consumed (prunes it from the replay set).
    ///
    /// Used when the session that consumed the nonce is torn down: the
    /// nonce's validity window is over, so the guard no longer needs to
    /// remember it. A pruned nonce presented again is *still* rejected —
    /// it is no longer outstanding either, so it reads as never-issued
    /// ([`NonceCheck::Unknown`]) rather than replayed. Returns whether the
    /// nonce was present.
    pub fn forget_consumed(&mut self, nonce: Nonce) -> bool {
        self.consumed.remove(&nonce)
    }

    /// The consumed-nonce set in sorted (deterministic) order.
    ///
    /// Used to persist replay state: only *consumed* nonces matter for
    /// safety. Outstanding nonces are ephemeral challenges that a restarted
    /// server simply re-issues.
    pub fn consumed_sorted(&self) -> Vec<Nonce> {
        let mut v: Vec<Nonce> = self.consumed.iter().copied().collect();
        v.sort_by_key(|n| n.0);
        v
    }

    /// Rebuilds a guard from a persisted consumed set (no outstanding
    /// nonces — the owner re-issues challenges after restoring).
    pub fn from_consumed(consumed: impl IntoIterator<Item = Nonce>) -> Self {
        ReplayGuard {
            outstanding: HashSet::new(),
            consumed: consumed.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ChaChaEntropy;

    #[test]
    fn generator_produces_distinct_nonces() {
        let mut g = NonceGenerator::new(ChaChaEntropy::from_u64_seed(1));
        let mut seen = HashSet::new();
        for _ in 0..1_000 {
            assert!(seen.insert(g.next_nonce()), "nonce collision");
        }
    }

    #[test]
    fn guard_lifecycle() {
        let mut guard = ReplayGuard::new();
        let n1 = Nonce([1; 16]);
        let n2 = Nonce([2; 16]);
        guard.issue(n1);
        assert_eq!(guard.outstanding_len(), 1);
        assert_eq!(guard.consume(n2), NonceCheck::Unknown);
        assert_eq!(guard.consume(n1), NonceCheck::Fresh);
        assert_eq!(guard.consumed_len(), 1);
        assert_eq!(guard.consume(n1), NonceCheck::Replayed);
        assert_eq!(guard.outstanding_len(), 0);
    }

    #[test]
    fn reissuing_consumed_nonce_still_replays() {
        // A server must never accept a nonce twice even if buggy logic
        // reissues it.
        let mut guard = ReplayGuard::new();
        let n = Nonce([3; 16]);
        guard.issue(n);
        assert_eq!(guard.consume(n), NonceCheck::Fresh);
        guard.issue(n);
        assert_eq!(guard.consume(n), NonceCheck::Replayed);
    }

    #[test]
    fn forgotten_nonce_reads_as_unknown_not_fresh() {
        let mut guard = ReplayGuard::new();
        let n = Nonce([4; 16]);
        guard.issue(n);
        assert_eq!(guard.consume(n), NonceCheck::Fresh);
        assert!(guard.forget_consumed(n));
        assert!(!guard.forget_consumed(n), "already pruned");
        // Pruning must never re-open the validity window.
        assert_eq!(guard.consume(n), NonceCheck::Unknown);
        assert_eq!(guard.consumed_len(), 0);
    }

    #[test]
    fn nonce_display() {
        let n = Nonce([0xAB; 16]);
        assert_eq!(n.to_string(), "ab".repeat(16));
    }

    impl ReplayGuard {
        /// How many nonces are issued but not yet consumed.
        pub fn outstanding_len(&self) -> usize {
            self.outstanding.len()
        }
    }
}
