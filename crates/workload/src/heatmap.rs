//! Touch-density heatmaps (the Figure 7 reproduction).
//!
//! A [`Heatmap`] bins touch positions on a millimetre grid over the panel.
//! The placement optimizer consumes heatmaps as coverage weights; the
//! `fig7_heatmaps` experiment renders them as ASCII density maps and
//! reports the cross-user hot-spot overlap the paper observes.

use btd_sim::geom::{MmPoint, MmRect, MmSize};

use crate::session::TouchSample;

/// A touch-density grid over the panel.
#[derive(Clone, Debug, PartialEq)]
pub struct Heatmap {
    panel: MmSize,
    cell_mm: f64,
    cols: usize,
    rows: usize,
    counts: Vec<u64>,
    total: u64,
}

impl Heatmap {
    /// Creates an empty heatmap over `panel` with square cells of
    /// `cell_mm`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_mm` is not positive or exceeds a panel dimension.
    pub fn new(panel: MmSize, cell_mm: f64) -> Self {
        assert!(
            cell_mm > 0.0 && cell_mm <= panel.w && cell_mm <= panel.h,
            "cell size must be positive and fit the panel"
        );
        let cols = (panel.w / cell_mm).ceil() as usize;
        let rows = (panel.h / cell_mm).ceil() as usize;
        Heatmap {
            panel,
            cell_mm,
            cols,
            rows,
            counts: vec![0; cols * rows],
            total: 0,
        }
    }

    /// Builds a heatmap from touch samples.
    pub fn from_samples(panel: MmSize, cell_mm: f64, samples: &[TouchSample]) -> Self {
        let mut h = Heatmap::new(panel, cell_mm);
        for s in samples {
            h.record(s.pos);
        }
        h
    }

    /// Records one touch at `p` (ignored if off-panel).
    pub fn record(&mut self, p: MmPoint) {
        if p.x < 0.0 || p.y < 0.0 || p.x >= self.panel.w || p.y >= self.panel.h {
            return;
        }
        let c = (p.x / self.cell_mm) as usize;
        let r = (p.y / self.cell_mm) as usize;
        let idx = r.min(self.rows - 1) * self.cols + c.min(self.cols - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total recorded touches.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in grid cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn count(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        self.counts[row * self.cols + col]
    }

    /// The panel rectangle of cell `(row, col)`.
    pub fn cell_rect(&self, row: usize, col: usize) -> MmRect {
        MmRect::new(
            MmPoint::new(col as f64 * self.cell_mm, row as f64 * self.cell_mm),
            MmSize::new(self.cell_mm, self.cell_mm),
        )
    }

    /// The `k` densest cells, ordered densest first, as (row, col, count).
    pub fn hotspots(&self, k: usize) -> Vec<(usize, usize, u64)> {
        let mut cells: Vec<(usize, usize, u64)> = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| (r, c)))
            .map(|(r, c)| (r, c, self.count(r, c)))
            .collect();
        cells.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        cells.truncate(k);
        cells
    }

    /// Jaccard overlap of the top-`k` hot-spot cell sets of two heatmaps.
    ///
    /// # Panics
    ///
    /// Panics if the grids have different shapes.
    pub fn hotspot_overlap(&self, other: &Heatmap, k: usize) -> f64 {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "heatmap shapes differ"
        );
        let a: std::collections::HashSet<(usize, usize)> = self
            .hotspots(k)
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        let b: std::collections::HashSet<(usize, usize)> = other
            .hotspots(k)
            .into_iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        if union == 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Accumulates another heatmap's counts (shapes must match).
    ///
    /// # Panics
    ///
    /// Panics if the grids have different shapes.
    pub fn absorb(&mut self, other: &Heatmap) {
        assert!(
            self.rows == other.rows && self.cols == other.cols,
            "heatmap shapes differ"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Renders the map as ASCII art (` .:-=+*#%@` density ramp), one text
    /// row per grid row — the Figure 7 visual.
    pub fn render_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.counts[r * self.cols + c];
                let idx = ((v as f64 / max as f64) * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::UserProfile;
    use crate::session::SessionGenerator;
    use btd_sim::rng::SimRng;

    fn heatmap_for(profile_idx: usize, n: usize) -> Heatmap {
        let mut rng = SimRng::seed_from(profile_idx as u64 + 10);
        let profile = UserProfile::builtin(profile_idx);
        let panel = profile.panel_size();
        let mut gen = SessionGenerator::new(profile, &mut rng);
        let samples = gen.generate(n, &mut rng);
        Heatmap::from_samples(panel, 4.0, &samples)
    }

    #[test]
    fn record_and_count() {
        let mut h = Heatmap::new(MmSize::new(52.0, 94.0), 4.0);
        h.record(MmPoint::new(1.0, 1.0));
        h.record(MmPoint::new(1.5, 1.5));
        h.record(MmPoint::new(50.0, 90.0));
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(0, 0), 2);
        assert!((h.density(0, 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn off_panel_touches_ignored() {
        let mut h = Heatmap::new(MmSize::new(52.0, 94.0), 4.0);
        h.record(MmPoint::new(-1.0, 10.0));
        h.record(MmPoint::new(10.0, 200.0));
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn mass_in_full_panel_is_one() {
        let h = heatmap_for(0, 3_000);
        let full = MmRect::from_edges(0.0, 0.0, 52.0, 94.0);
        assert!((h.mass_in(full) - 1.0).abs() < 0.02);
    }

    #[test]
    fn mass_in_keyboard_band_is_high_for_texter() {
        let h = heatmap_for(0, 3_000);
        let band = MmRect::from_edges(0.0, 60.0, 52.0, 94.0);
        let mass = h.mass_in(band);
        assert!(mass > 0.55, "keyboard-band mass {mass}");
    }

    #[test]
    fn hotspots_are_sorted_desc() {
        let h = heatmap_for(1, 2_000);
        let hs = h.hotspots(10);
        assert_eq!(hs.len(), 10);
        for w in hs.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn users_overlap_but_not_identically() {
        let h0 = heatmap_for(0, 4_000);
        let h1 = heatmap_for(1, 4_000);
        let h2 = heatmap_for(2, 4_000);
        let o01 = h0.hotspot_overlap(&h1, 25);
        let o02 = h0.hotspot_overlap(&h2, 25);
        let self_overlap = h0.hotspot_overlap(&h0, 25);
        assert_eq!(self_overlap, 1.0);
        // The paper: "there are overlaps and hot-spot touch regions among
        // the three users" — nonzero but far from identical.
        for (name, o) in [("0-1", o01), ("0-2", o02)] {
            assert!(o > 0.02, "users {name} share no hotspots ({o})");
            assert!(o < 0.9, "users {name} are identical ({o})");
        }
    }

    #[test]
    fn ascii_render_has_grid_shape() {
        let h = heatmap_for(2, 1_000);
        let art = h.render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), h.rows());
        assert!(lines.iter().all(|l| l.len() == h.cols()));
        assert!(art.contains('@'), "max-density cell must render as @");
    }

    #[test]
    fn absorb_sums_counts() {
        let mut a = heatmap_for(0, 500);
        let b = heatmap_for(1, 500);
        let before = a.total();
        a.absorb(&b);
        assert_eq!(a.total(), before + b.total());
    }

    impl Heatmap {
        /// Fraction of all touches in cell `(row, col)`.
        pub fn density(&self, row: usize, col: usize) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.count(row, col) as f64 / self.total as f64
            }
        }

        /// Fraction of touches that fall inside `region`.
        pub fn mass_in(&self, region: MmRect) -> f64 {
            if self.total == 0 {
                return 0.0;
            }
            let mut mass = 0u64;
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let cell = self.cell_rect(r, c);
                    if let Some(overlap) = cell.intersect(region) {
                        // Pro-rate cells straddling the region edge by area.
                        let frac = overlap.area() / cell.area();
                        mass += (self.counts[r * self.cols + c] as f64 * frac).round() as u64;
                    }
                }
            }
            (mass as f64 / self.total as f64).min(1.0)
        }
    }
}
