#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Synthetic fingerprint generation, quality assessment, and partial-print
//! matching.
//!
//! The paper's continuous-authentication loop (Fig. 6) assumes that
//! "existing fingerprint match techniques … are robust enough to be applied
//! to partial fingerprints" and that low-quality captures (finger moving
//! too fast, poor touch angle, incomplete data) can be detected and
//! discarded. Real fingers are unavailable to a simulation, so this crate
//! substitutes a *generative* biometric model with known ground truth:
//!
//! * [`pattern`] — a per-finger ridge-flow model seeded from a user id:
//!   smooth orientation field, ridge frequency, and a ground-truth minutiae
//!   constellation.
//! * [`image`] — grayscale raster images and the ridge-field rasterizer the
//!   TFT sensor model samples from.
//! * [`minutiae`] — minutia points (ridge endings / bifurcations) and the
//!   observation model: what a small sensor patch actually sees, with
//!   noise, drop-out, and spurious detections tied to capture quality.
//! * [`extract`] — the image-domain pipeline: Zhang–Suen thinning and
//!   crossing-number minutiae detection on captured patches.
//! * [`quality`] — capture-quality scoring and the accept/discard gate.
//! * [`template`] / [`enroll`] — enrolled reference templates built from
//!   multiple captures.
//! * [`matcher`] — partial-print matching by Hough alignment voting over
//!   minutia pairs plus greedy correspondence scoring.
//! * [`roc`] — FAR/FRR/EER computation for the biometric benches.
//!
//! # Example
//!
//! ```
//! use btd_fingerprint::pattern::FingerPattern;
//! use btd_fingerprint::enroll::enroll;
//! use btd_fingerprint::matcher::{MatchConfig, MatchScratch, TemplateSet};
//! use btd_fingerprint::minutiae::CaptureWindow;
//! use btd_fingerprint::quality::CaptureConditions;
//! use btd_sim::geom::MmPoint;
//! use btd_sim::rng::SimRng;
//!
//! let finger = FingerPattern::generate(1001, 0);
//! let mut rng = SimRng::seed_from(7);
//! let templates = TemplateSet::new(vec![enroll(&finger, 5, &mut rng)]);
//! let window = CaptureWindow::centered(MmPoint::new(0.0, 0.0), 8.0, 8.0);
//! let obs = finger.observe(&window, &CaptureConditions::ideal(), &mut rng);
//! let (_, result) = MatchScratch::new()
//!     .best_match(&templates, &obs.minutiae, &MatchConfig::default())
//!     .unwrap();
//! assert!(result.score > 0.3);
//! ```

pub mod enroll;
pub mod extract;
pub mod image;
pub mod matcher;
pub mod minutiae;
pub mod pattern;
pub mod quality;
pub mod roc;
pub mod template;

pub use matcher::{MatchConfig, MatchResult};
pub use minutiae::{CaptureWindow, Minutia, MinutiaKind, Observation};
pub use pattern::FingerPattern;
pub use quality::{CaptureConditions, QualityGate, QualityReport};
pub use template::Template;
