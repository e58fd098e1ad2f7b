//! Hyper-text pages and their finite set of rendered views.
//!
//! The server serves pages; the device renders a page into a
//! [`btd_flock::framehash::DisplayFrame`] under some view transform (zoom,
//! scroll). "Displayed view of a web page can only belong to a finite set
//! of all the possible views of the original page. It is feasible to match
//! the corresponding frame hash code against a finite set of all the
//! possible hash codes" — [`Page::all_view_hashes`] is that set, used by
//! the offline audit.

use std::sync::{Arc, OnceLock};

use btd_crypto::sha256::Digest;
use btd_flock::framehash::{DisplayFrame, FrameHashEngine};

/// The zoom levels the simulated browser supports.
pub const ZOOM_LEVELS: [u32; 4] = [75, 100, 150, 200];
/// The scroll stops the simulated browser supports (pixels).
pub const SCROLL_STOPS: [u32; 5] = [0, 200, 400, 800, 1600];

/// A hyper-text page served by a web server. Both fields are shared, so
/// serving, caching and journaling a page copies no bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Page {
    /// Stable page identifier (path).
    pub path: Arc<str>,
    /// Page content (markup stand-in).
    pub body: Arc<[u8]>,
}

/// One concrete view (zoom + scroll) of a page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct View {
    /// Zoom percentage.
    pub zoom: u32,
    /// Vertical scroll offset, pixels.
    pub scroll: u32,
}

impl Default for View {
    fn default() -> Self {
        View {
            zoom: 100,
            scroll: 0,
        }
    }
}

impl Page {
    /// Creates a page.
    pub fn new(path: &str, body: impl Into<Vec<u8>>) -> Self {
        Page {
            path: Arc::from(path),
            body: Arc::from(body.into()),
        }
    }

    /// Renders the page under `view` into `frame`, reusing its buffer.
    pub fn render_into(&self, view: View, frame: &mut DisplayFrame) {
        let parts: [&[u8]; 3] = [self.path.as_bytes(), &[0], &self.body];
        frame.render_view(&parts, view.zoom, view.scroll);
    }

    /// Every view the browser can produce of this page.
    pub fn all_views() -> impl Iterator<Item = View> {
        ZOOM_LEVELS.into_iter().flat_map(|zoom| {
            SCROLL_STOPS
                .into_iter()
                .map(move |scroll| View { zoom, scroll })
        })
    }

    /// The finite set of legitimate frame hashes for this page.
    pub fn all_view_hashes(&self) -> Vec<Digest> {
        let mut engine = FrameHashEngine::new();
        let mut frame = DisplayFrame::new(Vec::new(), 0, 0);
        Page::all_views()
            .map(|v| {
                self.render_into(v, &mut frame);
                engine.hash_frame(&frame).0
            })
            .collect()
    }
}

/// A page as a server holds it, with its legitimate view hashes
/// memoized: the first audit that meets the page renders and hashes its
/// views, and every later audit on the same server reads them. The memo
/// is derived from the page alone and is never written to a snapshot, a
/// digest or a trace.
#[derive(Clone, Debug)]
pub(crate) struct ServedPage {
    /// The page.
    pub(crate) page: Page,
    views: OnceLock<Box<[Digest]>>,
}

impl ServedPage {
    /// Holds `page`, its view hashes not yet computed.
    pub(crate) fn new(page: Page) -> Self {
        ServedPage {
            page,
            views: OnceLock::new(),
        }
    }

    /// [`Page::all_view_hashes`], computed on the first call.
    pub(crate) fn view_hashes(&self) -> &[Digest] {
        self.views
            .get_or_init(|| self.page.all_view_hashes().into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Page {
        /// Renders the page under `view` into a fresh frame.
        fn render(&self, view: View) -> DisplayFrame {
            let mut frame = DisplayFrame::new(Vec::new(), 0, 0);
            self.render_into(view, &mut frame);
            frame
        }
    }

    #[test]
    fn default_view_renders_deterministically() {
        let p = Page::new("/login", b"login form".to_vec());
        let mut e = FrameHashEngine::new();
        let h1 = e.hash_frame(&p.render(View::default())).0;
        let h2 = e.hash_frame(&p.render(View::default())).0;
        assert_eq!(h1, h2);
    }

    #[test]
    fn rendering_into_a_reused_frame_matches_a_fresh_render() {
        let long = Page::new("/statement/2024", vec![b'x'; 300]);
        let short = Page::new("/a", b"b".to_vec());
        let mut frame = DisplayFrame::new(Vec::new(), 0, 0);
        for v in Page::all_views() {
            // The long page first, so a stale tail would survive into the
            // short page's frame.
            long.render_into(v, &mut frame);
            assert_eq!(frame, long.render(v));
            short.render_into(v, &mut frame);
            assert_eq!(frame, short.render(v));
        }
    }

    #[test]
    fn render_keeps_the_frame_layout() {
        // Path, a zero byte, body, then the view: the bytes every frame
        // hash and audit pin was computed over.
        let p = Page::new("/login", b"login form".to_vec());
        for v in Page::all_views() {
            let mut content = b"/login\0login form".to_vec();
            content.extend_from_slice(&v.zoom.to_be_bytes());
            content.extend_from_slice(&v.scroll.to_be_bytes());
            assert_eq!(p.render(v), DisplayFrame::new(content, 480, 800));
        }
    }

    #[test]
    fn view_set_size() {
        assert_eq!(
            Page::all_views().count(),
            ZOOM_LEVELS.len() * SCROLL_STOPS.len()
        );
    }

    #[test]
    fn served_page_computes_its_view_hashes_once() {
        let served = ServedPage::new(Page::new("/a", b"content a".to_vec()));
        let first = served.view_hashes();
        assert_eq!(first, served.page.all_view_hashes().as_slice());
        assert!(std::ptr::eq(first, served.view_hashes()), "recomputed");
    }

    #[test]
    fn all_view_hashes_contains_every_rendering() {
        let p = Page::new("/account", b"balance: $100".to_vec());
        let hashes = p.all_view_hashes();
        let mut e = FrameHashEngine::new();
        for v in Page::all_views() {
            let h = e.hash_frame(&p.render(v)).0;
            assert!(hashes.contains(&h));
        }
    }

    #[test]
    fn different_pages_share_no_view_hashes() {
        let a = Page::new("/a", b"content a".to_vec()).all_view_hashes();
        let b = Page::new("/b", b"content b".to_vec()).all_view_hashes();
        assert!(a.iter().all(|h| !b.contains(h)));
    }

    #[test]
    fn tampered_body_leaves_the_view_set() {
        let honest = Page::new("/pay", b"pay alice".to_vec());
        let spoofed = Page::new("/pay", b"pay mallory".to_vec());
        let legit = honest.all_view_hashes();
        let mut e = FrameHashEngine::new();
        let spoof_hash = e.hash_frame(&spoofed.render(View::default())).0;
        assert!(!legit.contains(&spoof_hash));
    }
}
