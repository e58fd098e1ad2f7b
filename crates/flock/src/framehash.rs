//! Display frames and the frame-hash engine.
//!
//! "The display repeater can intercept displayed contents and sends them to
//! the frame hash engine. The frame hash engine computes a hash value of
//! the displayed frame. The frame hash can be later sent to the server to
//! ensure that the displayed hyper-text page has not been tampered."
//! (paper §III-B). The engine hashes at a fixed bytes-per-cycle rate so the
//! protocol benches can report its throughput.

use btd_crypto::sha256::{Digest, Sha256};
use btd_sim::clock::ClockDomain;
use btd_sim::time::SimDuration;

/// A rendered display frame as the repeater sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DisplayFrame {
    /// Logical page identity (server page id + view transform), so tests
    /// can construct "the same page, zoomed" deterministically.
    pub content: Vec<u8>,
    /// Frame width in pixels (part of the hashed identity).
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
}

impl DisplayFrame {
    /// Builds a frame from page content bytes at a given viewport.
    pub fn new(content: impl Into<Vec<u8>>, width: u32, height: u32) -> Self {
        DisplayFrame {
            content: content.into(),
            width,
            height,
        }
    }

    /// Rewrites this frame as the rendering of the concatenated
    /// `page_parts` under a view transform (zoom/scroll), reusing the
    /// frame's buffer. The finite set of such views is what the server
    /// can precompute ("the displayed view of a web page can only belong
    /// to a finite set").
    pub fn render_view(&mut self, page_parts: &[&[u8]], zoom_percent: u32, scroll_y: u32) {
        self.content.clear();
        let len = page_parts.iter().map(|part| part.len()).sum::<usize>() + 8;
        self.content.reserve(len);
        for part in page_parts {
            self.content.extend_from_slice(part);
        }
        self.content.extend_from_slice(&zoom_percent.to_be_bytes());
        self.content.extend_from_slice(&scroll_y.to_be_bytes());
        self.width = 480;
        self.height = 800;
    }

    /// Total bytes the hash engine must stream.
    pub fn byte_len(&self) -> usize {
        self.content.len() + 8
    }
}

/// The frame-hash engine: streaming SHA-256 at a fixed rate.
#[derive(Clone, Debug)]
pub struct FrameHashEngine {
    clock: ClockDomain,
    bytes_per_cycle: u64,
    frames_hashed: u64,
}

impl FrameHashEngine {
    /// Creates an engine. A modest embedded block: 200 MHz, 8 bytes/cycle.
    pub fn new() -> Self {
        FrameHashEngine {
            clock: ClockDomain::from_mhz(200.0),
            bytes_per_cycle: 8,
            frames_hashed: 0,
        }
    }

    /// Hashes a frame, returning the digest and the engine time it took.
    pub fn hash_frame(&mut self, frame: &DisplayFrame) -> (Digest, SimDuration) {
        let mut h = Sha256::new();
        h.update_field(&frame.width.to_be_bytes());
        h.update_field(&frame.height.to_be_bytes());
        h.update_field(&frame.content);
        let digest = h.finalize();
        let cycles = (frame.byte_len() as u64).div_ceil(self.bytes_per_cycle) + 64;
        self.frames_hashed += 1;
        (digest, self.clock.cycles_to_duration(cycles))
    }
}

impl Default for FrameHashEngine {
    fn default() -> Self {
        FrameHashEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_frame_same_hash() {
        let mut e = FrameHashEngine::new();
        let f = DisplayFrame::new(b"login page".to_vec(), 480, 800);
        let (d1, _) = e.hash_frame(&f);
        let (d2, _) = e.hash_frame(&f.clone());
        assert_eq!(d1, d2);
        assert_eq!(e.frames_hashed(), 2);
    }

    #[test]
    fn tampered_frame_changes_hash() {
        let mut e = FrameHashEngine::new();
        let honest = DisplayFrame::new(b"pay alice $10".to_vec(), 480, 800);
        let spoofed = DisplayFrame::new(b"pay mallory $10".to_vec(), 480, 800);
        assert_ne!(e.hash_frame(&honest).0, e.hash_frame(&spoofed).0);
    }

    #[test]
    fn viewport_is_part_of_identity() {
        let mut e = FrameHashEngine::new();
        let a = DisplayFrame::new(b"page".to_vec(), 480, 800);
        let b = DisplayFrame::new(b"page".to_vec(), 800, 480);
        assert_ne!(e.hash_frame(&a).0, e.hash_frame(&b).0);
    }

    #[test]
    fn zoomed_views_hash_differently_but_deterministically() {
        let mut e = FrameHashEngine::new();
        let view = |zoom| {
            let mut frame = DisplayFrame::new(Vec::new(), 0, 0);
            frame.render_view(&[b"article"], zoom, 0);
            frame
        };
        let (v100, v150, v100_again) = (view(100), view(150), view(100));
        assert_ne!(e.hash_frame(&v100).0, e.hash_frame(&v150).0);
        assert_eq!(e.hash_frame(&v100).0, e.hash_frame(&v100_again).0);
    }

    #[test]
    fn hashing_time_scales_with_frame_size() {
        let mut e = FrameHashEngine::new();
        let small = DisplayFrame::new(vec![0u8; 1_000], 480, 800);
        let large = DisplayFrame::new(vec![0u8; 1_000_000], 480, 800);
        let (_, t_small) = e.hash_frame(&small);
        let (_, t_large) = e.hash_frame(&large);
        assert!(t_large > t_small * 100);
        // A 1 MB frame at 1.6 GB/s is well under a millisecond.
        assert!(t_large < SimDuration::from_millis(1));
    }

    impl FrameHashEngine {
        /// How many frames this engine has hashed.
        pub fn frames_hashed(&self) -> u64 {
            self.frames_hashed
        }
    }
}
