//! Millimetre-denominated 2-D geometry.
//!
//! The touchscreen, the TFT fingerprint sensors, and the placement optimizer
//! all reason about physical positions on the panel. Using millimetre units
//! throughout (rather than pixels) matches how the paper sizes hardware
//! (sensor cell pitch in micrometres, panel size in millimetres) and avoids
//! resolution-dependent conversions leaking into the protocol layers.

use std::fmt;

/// A point on the panel, in millimetres from the top-left corner.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MmPoint {
    /// Horizontal offset from the left edge, millimetres.
    pub x: f64,
    /// Vertical offset from the top edge, millimetres.
    pub y: f64,
}

/// A size in millimetres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MmSize {
    /// Width in millimetres.
    pub w: f64,
    /// Height in millimetres.
    pub h: f64,
}

/// An axis-aligned rectangle on the panel, in millimetres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MmRect {
    /// Top-left corner.
    pub origin: MmPoint,
    /// Extent.
    pub size: MmSize,
}

impl MmPoint {
    /// Creates a point at `(x, y)` millimetres.
    pub const fn new(x: f64, y: f64) -> Self {
        MmPoint { x, y }
    }

    /// Euclidean distance to `other`, in millimetres.
    pub fn distance_to(self, other: MmPoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Component-wise translation.
    pub fn offset(self, dx: f64, dy: f64) -> MmPoint {
        MmPoint::new(self.x + dx, self.y + dy)
    }
}

impl MmSize {
    /// Creates a size of `w × h` millimetres.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is negative or not finite.
    pub fn new(w: f64, h: f64) -> Self {
        assert!(
            w.is_finite() && h.is_finite() && w >= 0.0 && h >= 0.0,
            "size dimensions must be finite and non-negative"
        );
        MmSize { w, h }
    }

    /// Area in square millimetres.
    pub fn area(self) -> f64 {
        self.w * self.h
    }
}

impl MmRect {
    /// Creates a rectangle from its top-left corner and size.
    pub fn new(origin: MmPoint, size: MmSize) -> Self {
        MmRect { origin, size }
    }

    /// Creates a rectangle from edge coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `right < left` or `bottom < top`.
    pub fn from_edges(left: f64, top: f64, right: f64, bottom: f64) -> Self {
        assert!(right >= left && bottom >= top, "degenerate rectangle edges");
        MmRect::new(
            MmPoint::new(left, top),
            MmSize::new(right - left, bottom - top),
        )
    }

    /// Creates a rectangle centred on `center`.
    pub fn centered(center: MmPoint, size: MmSize) -> Self {
        MmRect::new(
            MmPoint::new(center.x - size.w / 2.0, center.y - size.h / 2.0),
            size,
        )
    }

    /// The left edge.
    pub fn left(self) -> f64 {
        self.origin.x
    }

    /// The top edge.
    pub fn top(self) -> f64 {
        self.origin.y
    }

    /// The right edge.
    pub fn right(self) -> f64 {
        self.origin.x + self.size.w
    }

    /// The bottom edge.
    pub fn bottom(self) -> f64 {
        self.origin.y + self.size.h
    }

    /// The centre point.
    pub fn center(self) -> MmPoint {
        MmPoint::new(
            self.origin.x + self.size.w / 2.0,
            self.origin.y + self.size.h / 2.0,
        )
    }

    /// Area in square millimetres.
    pub fn area(self) -> f64 {
        self.size.area()
    }

    /// Whether `p` lies inside (or on the boundary of) this rectangle.
    pub fn contains(self, p: MmPoint) -> bool {
        p.x >= self.left() && p.x <= self.right() && p.y >= self.top() && p.y <= self.bottom()
    }

    /// Whether `other` lies entirely inside this rectangle.
    // trust-lint: allow(unreached-pub-fn) -- the sensor and flock unit tests check layouts with it; a cfg(test) gate would hide it from other crates' tests
    pub fn contains_rect(self, other: MmRect) -> bool {
        other.left() >= self.left()
            && other.right() <= self.right()
            && other.top() >= self.top()
            && other.bottom() <= self.bottom()
    }

    /// The intersection with `other`, or `None` if they do not overlap.
    pub fn intersect(self, other: MmRect) -> Option<MmRect> {
        let left = self.left().max(other.left());
        let top = self.top().max(other.top());
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if right > left && bottom > top {
            Some(MmRect::from_edges(left, top, right, bottom))
        } else {
            None
        }
    }

    /// Whether this rectangle overlaps `other` with positive area.
    pub fn overlaps(self, other: MmRect) -> bool {
        self.intersect(other).is_some()
    }

    /// Clamps `p` to the closest point inside this rectangle.
    pub fn clamp_point(self, p: MmPoint) -> MmPoint {
        MmPoint::new(
            p.x.clamp(self.left(), self.right()),
            p.y.clamp(self.top(), self.bottom()),
        )
    }

    /// Expands every edge outward by `margin` millimetres (clamped to a
    /// non-negative size when `margin` is negative).
    pub fn inflate(self, margin: f64) -> MmRect {
        let w = (self.size.w + 2.0 * margin).max(0.0);
        let h = (self.size.h + 2.0 * margin).max(0.0);
        MmRect::centered(self.center(), MmSize::new(w, h))
    }
}

impl fmt::Display for MmPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}mm, {:.2}mm)", self.x, self.y)
    }
}

impl fmt::Display for MmRect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.2},{:.2} {:.2}x{:.2}mm]",
            self.origin.x, self.origin.y, self.size.w, self.size.h
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = MmPoint::new(0.0, 0.0);
        let b = MmPoint::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rect_contains_boundary_points() {
        let r = MmRect::from_edges(1.0, 2.0, 5.0, 6.0);
        assert!(r.contains(MmPoint::new(1.0, 2.0)));
        assert!(r.contains(MmPoint::new(5.0, 6.0)));
        assert!(!r.contains(MmPoint::new(5.01, 6.0)));
    }

    #[test]
    fn centered_rect_recovers_center() {
        let c = MmPoint::new(10.0, 20.0);
        let r = MmRect::centered(c, MmSize::new(4.0, 6.0));
        assert_eq!(r.center(), c);
        assert_eq!(r.left(), 8.0);
        assert_eq!(r.bottom(), 23.0);
    }

    #[test]
    fn intersection_of_overlapping_rects() {
        let a = MmRect::from_edges(0.0, 0.0, 10.0, 10.0);
        let b = MmRect::from_edges(5.0, 5.0, 15.0, 15.0);
        let i = a.intersect(b).unwrap();
        assert_eq!(i, MmRect::from_edges(5.0, 5.0, 10.0, 10.0));
        assert!((i.area() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn touching_rects_do_not_overlap() {
        let a = MmRect::from_edges(0.0, 0.0, 5.0, 5.0);
        let b = MmRect::from_edges(5.0, 0.0, 10.0, 5.0);
        assert!(!a.overlaps(b));
    }

    #[test]
    fn contains_rect_is_inclusive() {
        let outer = MmRect::from_edges(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(outer));
        assert!(outer.contains_rect(MmRect::from_edges(1.0, 1.0, 9.0, 9.0)));
        assert!(!outer.contains_rect(MmRect::from_edges(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn clamp_point_projects_outside_points() {
        let r = MmRect::from_edges(0.0, 0.0, 10.0, 10.0);
        assert_eq!(
            r.clamp_point(MmPoint::new(-5.0, 3.0)),
            MmPoint::new(0.0, 3.0)
        );
        assert_eq!(
            r.clamp_point(MmPoint::new(20.0, 30.0)),
            MmPoint::new(10.0, 10.0)
        );
    }

    #[test]
    fn inflate_grows_and_shrinks() {
        let r = MmRect::from_edges(2.0, 2.0, 8.0, 8.0);
        let big = r.inflate(1.0);
        assert_eq!(big, MmRect::from_edges(1.0, 1.0, 9.0, 9.0));
        let tiny = r.inflate(-4.0);
        assert_eq!(tiny.area(), 0.0);
    }
}
