//! TSP instances: a named set of cities plus an edge-weight function.

use serde::{Deserialize, Serialize};

use crate::metric::Metric;

/// A city location in the plane (or a DDD.MM lat/lon pair for `GEO`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other` (unrounded, for spatial
    /// index comparisons only — never for tour lengths).
    #[inline(always)]
    pub fn sq_dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// A symmetric TSP instance.
///
/// Cities are identified by dense indices `0..n`. Construction validates
/// nothing beyond basic shape; distance semantics come from the
/// [`Metric`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    name: String,
    points: Vec<Point>,
    metric: Metric,
    /// Length of a known optimal tour, when one exists (from TSPLIB
    /// `COMMENT` conventions, from generator construction, or recorded
    /// as a surrogate from a calibration run).
    known_optimum: Option<i64>,
}

impl Instance {
    /// Create a geometric instance from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is [`Metric::Explicit`] (use
    /// [`Instance::explicit`]) or if fewer than 3 cities are given.
    pub fn new(name: impl Into<String>, points: Vec<Point>, metric: Metric) -> Self {
        assert!(
            metric.is_geometric(),
            "use Instance::explicit for matrix instances"
        );
        assert!(points.len() >= 3, "a TSP instance needs at least 3 cities");
        Instance {
            name: name.into(),
            points,
            metric,
            known_optimum: None,
        }
    }

    /// Create an instance from an explicit full symmetric matrix
    /// (row-major, `n * n` entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n * n` with `n >= 3`, or asymmetric.
    pub fn explicit(name: impl Into<String>, matrix: Vec<i64>, n: usize) -> Self {
        assert!(n >= 3, "a TSP instance needs at least 3 cities");
        assert_eq!(matrix.len(), n * n, "matrix must be n*n row-major");
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(
                    matrix[i * n + j],
                    matrix[j * n + i],
                    "explicit matrix must be symmetric"
                );
            }
        }
        // Placeholder coordinates keep geometric code paths (spatial
        // indexes) from being used accidentally: is_geometric() is false.
        Instance {
            name: name.into(),
            points: vec![Point::default(); n],
            metric: Metric::Explicit(matrix, n),
            known_optimum: None,
        }
    }

    /// Instance name (TSPLIB `NAME` or generator-assigned).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cities `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the instance is empty (never true for valid instances).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The coordinates of city `i`.
    #[inline(always)]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// All coordinates.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The edge-weight function.
    #[inline]
    pub fn metric(&self) -> &Metric {
        &self.metric
    }

    /// Distance between cities `i` and `j`.
    #[inline(always)]
    pub fn dist(&self, i: usize, j: usize) -> i64 {
        match &self.metric {
            Metric::Explicit(m, n) => m[i * n + j],
            m => m.distance(self.points[i], self.points[j]),
        }
    }

    /// Known (or surrogate best-known) optimal tour length, if recorded.
    #[inline]
    pub fn known_optimum(&self) -> Option<i64> {
        self.known_optimum
    }

    /// Record a known optimal tour length (builder style).
    pub fn with_known_optimum(mut self, opt: i64) -> Self {
        self.known_optimum = Some(opt);
        self
    }

    /// Record a known optimal tour length in place.
    pub fn set_known_optimum(&mut self, opt: i64) {
        self.known_optimum = Some(opt);
    }

    /// Check that no tour of this instance can have a length beyond
    /// `i64`, so that no tour length, nor any partial sum of a tour's
    /// edges, can overflow. One edge is bounded from above: by the
    /// bounding box's width plus height, plus one for rounding, for
    /// coordinate metrics; by half the earth's circumference for `GEO`;
    /// by the largest absolute weight for an explicit matrix. That
    /// bound times `n` must fit in `i64`.
    pub fn check_tour_length_bound(&self) -> crate::Result<()> {
        let edge = match &self.metric {
            Metric::Explicit(m, _) => m.iter().map(|w| w.unsigned_abs()).max().unwrap_or(0) as f64,
            Metric::Geo => crate::metric::GEO_EARTH_RADIUS * std::f64::consts::PI + 1.0,
            _ => {
                let (mut lo, mut hi) = (
                    Point::new(f64::MAX, f64::MAX),
                    Point::new(f64::MIN, f64::MIN),
                );
                for p in &self.points {
                    lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                    hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
                }
                (hi.x - lo.x) + (hi.y - lo.y) + 1.0
            }
        };
        // The relative headroom absorbs the rounding of the f64 sums.
        if edge * self.len() as f64 * (1.0 + 1e-6) < i64::MAX as f64 {
            Ok(())
        } else {
            Err(crate::Error::Parse(
                format!(
                    "edges up to {edge:.3e} over {} cities: tour lengths could overflow i64",
                    self.len()
                ),
                None,
            ))
        }
    }

    /// Excess of `length` over the known optimum as a fraction
    /// (e.g. `0.001` = 0.1 % above optimum). `None` when no optimum is
    /// recorded.
    pub fn excess(&self, length: i64) -> Option<f64> {
        self.known_optimum
            .map(|opt| (length - opt) as f64 / opt as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        Instance::new(
            "tiny",
            vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(3.0, 4.0),
            ],
            Metric::Euc2d,
        )
    }

    #[test]
    fn basic_accessors() {
        let inst = tiny();
        assert_eq!(inst.name(), "tiny");
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
        assert_eq!(inst.dist(0, 1), 3);
        assert_eq!(inst.dist(1, 2), 4);
        assert_eq!(inst.dist(0, 2), 5);
        assert_eq!(inst.dist(2, 0), 5);
    }

    #[test]
    fn known_optimum_and_excess() {
        let inst = tiny().with_known_optimum(12);
        assert_eq!(inst.known_optimum(), Some(12));
        let e = inst.excess(15).unwrap();
        assert!((e - 0.25).abs() < 1e-12);
        assert_eq!(inst.excess(12), Some(0.0));
    }

    #[test]
    fn explicit_instance() {
        #[rustfmt::skip]
        let m = vec![
            0, 1, 2,
            1, 0, 3,
            2, 3, 0,
        ];
        let inst = Instance::explicit("m3", m, 3);
        assert_eq!(inst.dist(0, 2), 2);
        assert_eq!(inst.dist(2, 1), 3);
        assert!(!inst.metric().is_geometric());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let m = vec![0, 1, 9, 2, 0, 3, 2, 3, 0];
        Instance::explicit("bad", m, 3);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_small_rejected() {
        Instance::new("p2", vec![Point::default(); 2], Metric::Euc2d);
    }

    #[test]
    fn sq_dist() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.sq_dist(&b), 25.0);
    }
}
