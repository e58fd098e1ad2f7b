//! The display repeater.
//!
//! In Figure 5 the display output of the SoC's graphics core "is relayed by
//! the display repeater of \[the\] FLock module" on its way to the panel, and
//! the repeater taps each frame into the frame-hash engine. Because the
//! repeater sits *between* the (untrusted) SoC and the glass, whatever hash
//! it records is the ground truth of what the user actually saw — malware
//! can forge requests but cannot forge this hash.

use btd_crypto::sha256::Digest;
use btd_sim::time::SimDuration;

use crate::framehash::{DisplayFrame, FrameHashEngine};

/// The display repeater with its attached frame-hash engine.
#[derive(Clone, Debug, Default)]
pub struct DisplayRepeater {
    engine: FrameHashEngine,
    last_hash: Option<Digest>,
    frames_relayed: u64,
}

impl DisplayRepeater {
    /// Creates a repeater with a default-throughput hash engine.
    pub fn new() -> Self {
        DisplayRepeater::default()
    }

    /// Relays a frame to the panel, hashing it on the way through. Returns
    /// the frame hash and the added latency (hashing is pipelined with
    /// scan-out, so the latency is the engine time, not additive per line).
    pub fn relay(&mut self, frame: &DisplayFrame) -> (Digest, SimDuration) {
        let (digest, took) = self.engine.hash_frame(frame);
        self.last_hash = Some(digest);
        self.frames_relayed += 1;
        (digest, took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_records_last_hash() {
        let mut r = DisplayRepeater::new();
        assert!(r.last_frame_hash().is_none());
        let f1 = DisplayFrame::new(b"page one".to_vec(), 480, 800);
        let f2 = DisplayFrame::new(b"page two".to_vec(), 480, 800);
        let (h1, _) = r.relay(&f1);
        assert_eq!(r.last_frame_hash(), Some(h1));
        let (h2, _) = r.relay(&f2);
        assert_eq!(r.last_frame_hash(), Some(h2));
        assert_ne!(h1, h2);
        assert_eq!(r.frames_relayed(), 2);
    }

    #[test]
    fn hash_matches_what_the_user_saw_not_what_malware_claims() {
        // Malware shows the user a spoofed frame; the repeater hash is of
        // the spoofed frame, so the server's audit will catch the mismatch
        // with the page it actually served.
        let mut r = DisplayRepeater::new();
        let served = DisplayFrame::new(b"transfer $10 to alice".to_vec(), 480, 800);
        let spoofed = DisplayFrame::new(b"transfer $10 to mallory".to_vec(), 480, 800);
        let mut engine = FrameHashEngine::new();
        let (served_hash, _) = engine.hash_frame(&served);
        let (seen_hash, _) = r.relay(&spoofed);
        assert_ne!(served_hash, seen_hash);
    }

    impl DisplayRepeater {
        /// The hash of the most recently displayed frame — what FLock attaches
        /// to outgoing requests ("FrameHash: hash(frame L)").
        pub fn last_frame_hash(&self) -> Option<Digest> {
            self.last_hash
        }

        /// Total frames relayed.
        pub fn frames_relayed(&self) -> u64 {
            self.frames_relayed
        }
    }
}
