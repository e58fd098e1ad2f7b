//! Image-domain minutiae extraction.
//!
//! The model-based observation path ([`crate::pattern::FingerPattern::observe`])
//! is what the system experiments use (it gives controlled noise with
//! ground truth). This module is the *real* image pipeline a fingerprint
//! processor would run on the comparator output of the TFT array:
//!
//! 1. binarize the captured image into ridge pixels,
//! 2. thin the ridges to a one-pixel skeleton (Zhang–Suen),
//! 3. classify skeleton pixels by crossing number — CN 1 is a ridge
//!    ending, CN 3 a bifurcation,
//! 4. estimate each minutia's direction by walking the skeleton,
//! 5. suppress border artifacts and near-duplicate detections.
//!
//! Because the renderer embeds a genuine phase dislocation at every
//! ground-truth minutia, what this extractor finds in the pixels
//! corresponds to the constellation the matcher was enrolled with — the
//! `image_extraction_end_to_end` test closes that loop.

use btd_sim::geom::MmPoint;

use crate::image::GrayImage;
use crate::minutiae::{Minutia, MinutiaKind};

/// Extraction tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionConfig {
    /// Binarization threshold on the 8-bit image.
    pub threshold: u8,
    /// Pixels within this many pixels of the border are ignored (the
    /// skeleton frays at image edges).
    pub border_margin_px: usize,
    /// Detections closer than this are merged (skeletonization artifacts
    /// split one minutia into clusters), millimetres.
    pub min_separation_mm: f64,
    /// How many skeleton steps to walk when estimating direction.
    pub direction_walk: usize,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            threshold: 128,
            border_margin_px: 10,
            min_separation_mm: 0.6,
            direction_walk: 6,
        }
    }
}

/// A binary bitmap with image dimensions.
#[derive(Clone, Debug)]
pub struct Bitmap {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl Bitmap {
    /// Binarizes a grayscale image (`true` = ridge).
    pub fn from_image(img: &GrayImage, threshold: u8) -> Self {
        Bitmap {
            width: img.width(),
            height: img.height(),
            bits: img.binarize(threshold),
        }
    }

    /// Bitmap width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pixel value, `false` outside the image.
    pub fn get(&self, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return false;
        }
        self.bits[y as usize * self.width + x as usize]
    }

    fn set(&mut self, x: usize, y: usize, v: bool) {
        self.bits[y * self.width + x] = v;
    }

    /// Number of set pixels.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }

    /// The 8 neighbours of `(x, y)` in Zhang–Suen order (P2..P9: N, NE, E,
    /// SE, S, SW, W, NW).
    fn neighbours(&self, x: isize, y: isize) -> [bool; 8] {
        [
            self.get(x, y - 1),
            self.get(x + 1, y - 1),
            self.get(x + 1, y),
            self.get(x + 1, y + 1),
            self.get(x, y + 1),
            self.get(x - 1, y + 1),
            self.get(x - 1, y),
            self.get(x - 1, y - 1),
        ]
    }
}

/// Thins ridge regions to a one-pixel-wide skeleton (Zhang–Suen, 1984).
pub fn thin(bitmap: &Bitmap) -> Bitmap {
    let mut current = bitmap.clone();
    loop {
        let mut changed = false;
        for phase in 0..2 {
            let mut to_clear = Vec::new();
            for y in 0..current.height as isize {
                for x in 0..current.width as isize {
                    if !current.get(x, y) {
                        continue;
                    }
                    let n = current.neighbours(x, y);
                    let b: usize = n.iter().filter(|v| **v).count();
                    if !(2..=6).contains(&b) {
                        continue;
                    }
                    // A(P1): 0→1 transitions around the ring.
                    let a = (0..8).filter(|i| !n[*i] && n[(*i + 1) % 8]).count();
                    if a != 1 {
                        continue;
                    }
                    // (p2, p4, p6, p8) = (n[0], n[2], n[4], n[6]) — keep
                    // the textbook Zhang–Suen conditions verbatim.
                    #[allow(clippy::nonminimal_bool)]
                    let (p2, p4, p6, p8) = (n[0], n[2], n[4], n[6]);
                    #[allow(clippy::nonminimal_bool)]
                    let cond = if phase == 0 {
                        !(p2 && p4 && p6) && !(p4 && p6 && p8)
                    } else {
                        !(p2 && p4 && p8) && !(p2 && p6 && p8)
                    };
                    if cond {
                        to_clear.push((x as usize, y as usize));
                    }
                }
            }
            if !to_clear.is_empty() {
                changed = true;
                for (x, y) in to_clear {
                    current.set(x, y, false);
                }
            }
        }
        if !changed {
            return current;
        }
    }
}

/// Crossing number of a skeleton pixel: half the number of 0/1 transitions
/// around its 8-neighbour ring. 1 = ridge ending, 2 = ridge continuation,
/// 3+ = bifurcation/crossing.
pub fn crossing_number(skeleton: &Bitmap, x: isize, y: isize) -> usize {
    let n = skeleton.neighbours(x, y);
    (0..8).filter(|i| n[*i] != n[(*i + 1) % 8]).count() / 2
}

/// Extracts minutiae from a captured grayscale patch.
///
/// Returned positions are in millimetres **relative to the patch centre**
/// (the sensor frame used by [`crate::matcher`]); directions point from
/// the minutia into the ridge flow.
pub fn extract_minutiae(img: &GrayImage, config: &ExtractionConfig) -> Vec<Minutia> {
    let bitmap = Bitmap::from_image(img, config.threshold);
    let skeleton = thin(&bitmap);
    let pitch = img.pitch_mm();
    let (w, h) = (skeleton.width as isize, skeleton.height as isize);
    let margin = config.border_margin_px as isize;

    let mut found: Vec<Minutia> = Vec::new();
    for y in margin..h - margin {
        for x in margin..w - margin {
            if !skeleton.get(x, y) {
                continue;
            }
            let cn = crossing_number(&skeleton, x, y);
            let kind = match cn {
                1 => MinutiaKind::Ending,
                3 => MinutiaKind::Bifurcation,
                _ => continue,
            };
            // Ridge orientation from the grayscale structure tensor around
            // the minutia — far more accurate than walking the (curved)
            // skeleton. It is inherently π-periodic, which is what
            // [`MatchConfig::for_image_extraction`]'s mod-π mode matches.
            let angle = tensor_orientation(img, x as usize, y as usize, 8);
            // Image pixel → sensor-frame millimetres (origin at centre).
            let pos = MmPoint::new(
                (x as f64 + 0.5) * pitch - img.width() as f64 * pitch / 2.0,
                (y as f64 + 0.5) * pitch - img.height() as f64 * pitch / 2.0,
            );
            found.push(Minutia::new(pos, angle, kind));
        }
    }

    // Merge near-duplicates (skeleton artifacts split one feature into a
    // small cluster): keep the first of each cluster.
    let mut merged: Vec<Minutia> = Vec::new();
    for m in found {
        if merged
            .iter()
            .all(|k| k.pos.distance_to(m.pos) >= config.min_separation_mm)
        {
            merged.push(m);
        }
    }
    remove_artifacts(merged)
}

/// Classic minutiae post-processing: skeletonization artifacts come in
/// recognizable pairs, which are removed wholesale.
///
/// * Two *opposite-facing* endings a fraction of a ridge period apart are
///   the two sides of a broken ridge (binarization/aliasing), not real
///   features.
/// * An ending right next to a bifurcation is a spur — a hair-thin branch
///   the thinning pass left behind.
fn remove_artifacts(minutiae: Vec<Minutia>) -> Vec<Minutia> {
    const BREAK_DIST_MM: f64 = 0.55;
    const SPUR_DIST_MM: f64 = 0.45;
    let mut drop = vec![false; minutiae.len()];
    for i in 0..minutiae.len() {
        for j in (i + 1)..minutiae.len() {
            let (a, b) = (&minutiae[i], &minutiae[j]);
            let d = a.pos.distance_to(b.pos);
            match (a.kind, b.kind) {
                (MinutiaKind::Ending, MinutiaKind::Ending) if d < BREAK_DIST_MM => {
                    // Facing each other (directions roughly opposite)?
                    let dot = (a.angle - b.angle).cos();
                    if dot < -0.2 {
                        drop[i] = true;
                        drop[j] = true;
                    }
                }
                (MinutiaKind::Ending, MinutiaKind::Bifurcation)
                | (MinutiaKind::Bifurcation, MinutiaKind::Ending)
                    if d < SPUR_DIST_MM =>
                {
                    drop[i] = true;
                    drop[j] = true;
                }
                _ => {}
            }
        }
    }
    minutiae
        .into_iter()
        .zip(drop)
        .filter(|(_, d)| !d)
        .map(|(m, _)| m)
        .collect()
}

/// Dominant gradient orientation (the ridge normal, π-periodic) from the
/// image structure tensor in a square window of `radius` pixels around
/// `(cx, cy)`.
pub fn tensor_orientation(img: &GrayImage, cx: usize, cy: usize, radius: usize) -> f64 {
    let (w, h) = (img.width() as isize, img.height() as isize);
    let (cx, cy) = (cx as isize, cy as isize);
    let r = radius as isize;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for y in (cy - r).max(1)..=(cy + r).min(h - 2) {
        for x in (cx - r).max(1)..=(cx + r).min(w - 2) {
            let gx = img.get((x + 1) as usize, y as usize) as f64
                - img.get((x - 1) as usize, y as usize) as f64;
            let gy = img.get(x as usize, (y + 1) as usize) as f64
                - img.get(x as usize, (y - 1) as usize) as f64;
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    }
    // Dominant gradient direction, folded into [0, π).
    let theta = 0.5 * (2.0 * sxy).atan2(sxx - syy);
    if theta < 0.0 {
        theta + std::f64::consts::PI
    } else {
        theta
    }
}

/// Enrolls a template through the *image* pipeline: rasterize the full
/// fingertip pad, extract minutiae, and store them in the fingertip frame.
///
/// Matching image-extracted observations against an image-extracted
/// template keeps both sides in the same convention — the extractor's
/// systematic biases (skeleton offsets, tensor-orientation bias near the
/// dislocation core) cancel, exactly as they do in a real deployment where
/// enrollment and verification share one extraction pipeline.
pub fn extract_template(
    finger: &crate::pattern::FingerPattern,
    pitch_mm: f64,
    config: &ExtractionConfig,
) -> crate::template::Template {
    use crate::pattern::{FINGER_HALF_H, FINGER_HALF_W};
    let region = btd_sim::geom::MmRect::centered(
        MmPoint::new(0.0, 0.0),
        btd_sim::geom::MmSize::new(2.0 * FINGER_HALF_W + 2.0, 2.0 * FINGER_HALF_H + 2.0),
    );
    let img = crate::image::rasterize(finger, region, pitch_mm);
    // Extracted positions are patch-centred; the patch is centred on the
    // pad origin, so they are already in the fingertip frame.
    let minutiae = extract_minutiae(&img, config);
    crate::template::Template::new(finger.user_id(), finger.finger_index(), minutiae)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{rasterize, GrayImage};
    use crate::pattern::FingerPattern;
    use btd_sim::geom::{MmRect, MmSize};

    /// Builds a bitmap-backed image from ASCII art (`#` = ridge).
    fn image_from_art(art: &[&str]) -> GrayImage {
        let h = art.len();
        let w = art[0].len();
        let mut img = GrayImage::new(w, h, 0.05);
        for (y, row) in art.iter().enumerate() {
            for (x, ch) in row.bytes().enumerate() {
                img.set(x, y, if ch == b'#' { 255 } else { 0 });
            }
        }
        img
    }

    #[test]
    fn thinning_reduces_a_thick_line_to_one_pixel_width() {
        let art = [
            "................",
            "................",
            "..###########...",
            "..###########...",
            "..###########...",
            "................",
            "................",
        ];
        let img = image_from_art(&art);
        let bitmap = Bitmap::from_image(&img, 128);
        let skeleton = thin(&bitmap);
        assert!(skeleton.count() > 0);
        assert!(skeleton.count() < bitmap.count());
        // No skeleton pixel may have a 3x3-full neighbourhood.
        for y in 0..skeleton.height() as isize {
            for x in 0..skeleton.width() as isize {
                if skeleton.get(x, y) {
                    let full = skeleton.neighbours(x, y).iter().all(|v| *v);
                    assert!(!full, "thick pixel survived at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn line_endpoints_have_crossing_number_one() {
        let art = [
            "............",
            "............",
            "..########..",
            "............",
            "............",
        ];
        let img = image_from_art(&art);
        let skeleton = thin(&Bitmap::from_image(&img, 128));
        let mut endings = 0;
        for y in 0..skeleton.height() as isize {
            for x in 0..skeleton.width() as isize {
                if skeleton.get(x, y) && crossing_number(&skeleton, x, y) == 1 {
                    endings += 1;
                }
            }
        }
        assert_eq!(endings, 2, "a line segment has exactly two endings");
    }

    #[test]
    fn y_junction_has_a_bifurcation() {
        let art = [
            "#.....#", ".#...#.", "..#.#..", "...#...", "...#...", "...#...", "...#...",
        ];
        let img = image_from_art(&art);
        let skeleton = thin(&Bitmap::from_image(&img, 128));
        let mut bifurcations = 0;
        for y in 0..skeleton.height() as isize {
            for x in 0..skeleton.width() as isize {
                if skeleton.get(x, y) && crossing_number(&skeleton, x, y) == 3 {
                    bifurcations += 1;
                }
            }
        }
        assert!(bifurcations >= 1, "Y junction must yield a bifurcation");
    }

    #[test]
    fn direction_points_into_the_ridge() {
        let art = [
            "............",
            "............",
            "..########..",
            "............",
            "............",
        ];
        let img = image_from_art(&art);
        let skeleton = thin(&Bitmap::from_image(&img, 128));
        // Find the left endpoint and check its direction points right.
        for y in 0..skeleton.height() as isize {
            for x in 0..skeleton.width() as isize {
                if skeleton.get(x, y) && crossing_number(&skeleton, x, y) == 1 && x < 6 {
                    let dir = direction_at(&skeleton, x, y, 5);
                    assert!(dir.cos() > 0.9, "left ending should point right: {dir}");
                    return;
                }
            }
        }
        panic!("no left ending found");
    }

    #[test]
    fn extraction_finds_rendered_dislocations() {
        // Render a patch of a synthetic finger (whose image embeds a phase
        // dislocation per minutia) and check the extractor recovers a
        // plausible share of the ground truth inside the patch.
        let finger = FingerPattern::generate(7, 0);
        let region = MmRect::centered(MmPoint::new(0.0, 0.0), MmSize::new(8.0, 8.0));
        let img = rasterize(&finger, region, 0.05);
        let extracted = extract_minutiae(&img, &ExtractionConfig::default());
        assert!(
            extracted.len() >= 4,
            "only {} minutiae extracted",
            extracted.len()
        );

        // Ground truth inside the (margin-shrunk) region, in patch-centred
        // coordinates.
        let inner = region.inflate(-0.5);
        let truth: Vec<MmPoint> = finger
            .minutiae()
            .iter()
            .filter(|m| inner.contains(m.pos))
            .map(|m| MmPoint::new(m.pos.x - region.center().x, m.pos.y - region.center().y))
            .collect();
        assert!(!truth.is_empty());
        let recovered = truth
            .iter()
            .filter(|t| extracted.iter().any(|e| e.pos.distance_to(**t) < 0.9))
            .count();
        let recall = recovered as f64 / truth.len() as f64;
        assert!(
            recall >= 0.5,
            "extractor recovered only {recovered}/{} ground-truth minutiae",
            truth.len()
        );
    }

    #[test]
    fn image_extraction_end_to_end() {
        // The full image pipeline: enroll from the model, render a patch,
        // binarize + thin + extract, and match the *extracted* minutiae
        // against the enrolled template. Genuine scores must beat impostor
        // scores under the π-periodic matching mode.
        use crate::matcher::{MatchConfig, MatchScratch, TemplateSet};
        use btd_sim::rng::SimRng;

        let cfg = MatchConfig::for_image_extraction();
        let mut scratch = MatchScratch::new();
        let mut genuine_wins = 0;
        let trials = 6;
        for trial in 0..trials {
            let owner = FingerPattern::generate(200 + trial, 0);
            let other = FingerPattern::generate(900 + trial, 0);
            let mut rng = SimRng::seed_from(50 + trial);
            let template = TemplateSet::new(vec![extract_template(
                &owner,
                0.05,
                &ExtractionConfig::default(),
            )]);
            let region = MmRect::centered(
                MmPoint::new(rng.range_f64(-1.5, 1.5), rng.range_f64(-2.0, 2.0)),
                MmSize::new(8.0, 8.0),
            );
            let genuine_img = rasterize(&owner, region, 0.05);
            let impostor_img = rasterize(&other, region, 0.05);
            let genuine_obs = extract_minutiae(&genuine_img, &ExtractionConfig::default());
            let impostor_obs = extract_minutiae(&impostor_img, &ExtractionConfig::default());
            let mut score = |observed: &[Minutia]| {
                let (_, result) = scratch.best_match(&template, observed, &cfg).unwrap();
                result.score
            };
            let (g, i) = (score(&genuine_obs), score(&impostor_obs));
            if g > i {
                genuine_wins += 1;
            }
        }
        assert!(
            genuine_wins >= 5,
            "image-domain genuine beat impostor only {genuine_wins}/{trials} times"
        );
    }

    #[test]
    fn empty_image_extracts_nothing() {
        let img = GrayImage::new(60, 60, 0.05);
        assert!(extract_minutiae(&img, &ExtractionConfig::default()).is_empty());
    }

    impl Bitmap {
        /// Bitmap height in pixels.
        pub fn height(&self) -> usize {
            self.height
        }
    }

    /// Estimates the ridge direction at a skeleton minutia by walking `steps`
    /// pixels along the skeleton away from it and taking the displacement
    /// direction (used by tests and as a fallback; the extractor itself uses
    /// [`tensor_orientation`]).
    pub fn direction_at(skeleton: &Bitmap, x: isize, y: isize, steps: usize) -> f64 {
        let mut visited = vec![(x, y)];
        let (mut cx, mut cy) = (x, y);
        for _ in 0..steps {
            let mut advanced = false;
            'next: for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (nx, ny) = (cx + dx, cy + dy);
                    if skeleton.get(nx, ny) && !visited.contains(&(nx, ny)) {
                        visited.push((nx, ny));
                        cx = nx;
                        cy = ny;
                        advanced = true;
                        break 'next;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        ((cy - y) as f64).atan2((cx - x) as f64)
    }
}
