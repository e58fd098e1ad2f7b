//! Grayscale fingerprint images and the ridge-field rasterizer.
//!
//! The TFT sensor array ([`btd-sensor`](https://docs.rs) crate) samples the
//! continuous ridge field of a [`crate::pattern::FingerPattern`] at its
//! cell pitch and thresholds each pixel through a comparator. This module
//! provides the raster container plus simple statistics used by the image
//! benches (contrast, coverage).

use std::fmt;

use btd_sim::geom::{MmPoint, MmRect};

use crate::pattern::FingerPattern;

/// An 8-bit grayscale image with physical pixel pitch.
#[derive(Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    /// Pixel pitch, millimetres per pixel.
    pitch_mm: f64,
    pixels: Vec<u8>,
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayImage({}x{} @ {:.3}mm/px)",
            self.width, self.height, self.pitch_mm
        )
    }
}

impl GrayImage {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the pitch is not positive.
    pub fn new(width: usize, height: usize, pitch_mm: f64) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert!(
            pitch_mm.is_finite() && pitch_mm > 0.0,
            "pixel pitch must be positive"
        );
        GrayImage {
            width,
            height,
            pitch_mm,
            pixels: vec![0; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel pitch in millimetres.
    pub fn pitch_mm(&self) -> f64 {
        self.pitch_mm
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = value;
    }

    /// Raw pixel buffer (row-major).
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Mean pixel intensity.
    pub fn mean(&self) -> f64 {
        self.pixels.iter().map(|p| *p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Michelson-style contrast: `(max − min) / 255`.
    // trust-lint: allow(unreached-pub-fn) -- the `rasterize` doc example checks ridge contrast through it, which the call graph does not read
    pub fn contrast(&self) -> f64 {
        let max = *self.pixels.iter().max().expect("non-empty") as f64;
        let min = *self.pixels.iter().min().expect("non-empty") as f64;
        (max - min) / 255.0
    }

    /// Fraction of pixels above `threshold`.
    pub fn fraction_above(&self, threshold: u8) -> f64 {
        self.pixels.iter().filter(|p| **p > threshold).count() as f64 / self.pixels.len() as f64
    }

    /// Binarizes with a threshold, producing a bitmap of ridge pixels.
    pub fn binarize(&self, threshold: u8) -> Vec<bool> {
        self.pixels.iter().map(|p| *p >= threshold).collect()
    }
}

/// Rasterizes the ridge field of `finger` over `region` (fingertip frame)
/// at `pitch_mm` per pixel.
///
/// # Example
///
/// ```
/// use btd_fingerprint::image::rasterize;
/// use btd_fingerprint::pattern::FingerPattern;
/// use btd_sim::geom::{MmPoint, MmRect, MmSize};
///
/// let finger = FingerPattern::generate(1, 0);
/// let region = MmRect::centered(MmPoint::new(0.0, 0.0), MmSize::new(5.0, 5.0));
/// let img = rasterize(&finger, region, 0.05); // 50 µm pitch, ~508 dpi
/// assert_eq!(img.width(), 100);
/// assert!(img.contrast() > 0.5);
/// ```
pub fn rasterize(finger: &FingerPattern, region: MmRect, pitch_mm: f64) -> GrayImage {
    assert!(pitch_mm > 0.0, "pixel pitch must be positive");
    let width = (region.size.w / pitch_mm).round().max(1.0) as usize;
    let height = (region.size.h / pitch_mm).round().max(1.0) as usize;
    let mut img = GrayImage::new(width, height, pitch_mm);
    for y in 0..height {
        for x in 0..width {
            let p = MmPoint::new(
                region.left() + (x as f64 + 0.5) * pitch_mm,
                region.top() + (y as f64 + 0.5) * pitch_mm,
            );
            let v = finger.ridge_value(p);
            img.set(x, y, (v * 255.0).round() as u8);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use btd_sim::geom::MmSize;

    #[test]
    fn construction_and_pixel_access() {
        let mut img = GrayImage::new(4, 3, 0.05);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        img.set(3, 2, 200);
        assert_eq!(img.get(3, 2), 200);
        assert_eq!(img.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let img = GrayImage::new(2, 2, 0.05);
        let _ = img.get(2, 0);
    }

    #[test]
    fn dpi_conversion() {
        let img = GrayImage::new(1, 1, 0.0423);
        assert!((img.dpi() - 600.0).abs() < 1.0); // 42.3 µm ≈ 600 dpi (Table II row 1)
    }

    #[test]
    fn statistics() {
        let mut img = GrayImage::new(2, 1, 0.1);
        img.set(0, 0, 0);
        img.set(1, 0, 255);
        assert_eq!(img.mean(), 127.5);
        assert_eq!(img.contrast(), 1.0);
        assert_eq!(img.fraction_above(127), 0.5);
        assert_eq!(img.binarize(128), vec![false, true]);
    }

    #[test]
    fn rasterized_ridges_have_structure() {
        let finger = FingerPattern::generate(3, 0);
        let region = MmRect::centered(MmPoint::new(0.0, 0.0), MmSize::new(6.0, 6.0));
        let img = rasterize(&finger, region, 0.05);
        assert_eq!(img.width(), 120);
        assert_eq!(img.height(), 120);
        // Ridge field must show strong light/dark alternation.
        assert!(img.contrast() > 0.7, "contrast {}", img.contrast());
        let ridge_frac = img.fraction_above(128);
        assert!(
            (0.25..0.75).contains(&ridge_frac),
            "ridge fraction {ridge_frac}"
        );
    }

    #[test]
    fn different_fingers_rasterize_differently() {
        let region = MmRect::centered(MmPoint::new(0.0, 0.0), MmSize::new(4.0, 4.0));
        let img1 = rasterize(&FingerPattern::generate(1, 0), region, 0.1);
        let img2 = rasterize(&FingerPattern::generate(2, 0), region, 0.1);
        let differing = img1
            .pixels()
            .iter()
            .zip(img2.pixels())
            .filter(|(a, b)| a != b)
            .count();
        assert!(differing > img1.pixels().len() / 2);
    }

    impl GrayImage {
        /// Resolution in dots per inch.
        pub fn dpi(&self) -> f64 {
            25.4 / self.pitch_mm
        }
    }
}
