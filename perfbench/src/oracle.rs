//! The benchmark's own oracle, written apart from the engine: a grid
//! bucketing of the points and a closed-boundary point-in-polygon test
//! of its own. It shares no code with `vaq_geom`'s predicates, so an
//! engine fault cannot hide in the check.
//!
//! The orientation sign is evaluated in `f64` and certified with the
//! classic static error bound; a point whose sign the bound cannot
//! certify is *undecided*, and the check then accepts either answer for
//! that point alone (the count is reported, and is 0 on the benchmark's
//! random inputs).

use std::collections::HashMap;
use vaq_geom::{Point, Polygon, Rect};

/// Relative error bound of the `f64` orientation determinant.
const ORIENT_ERR: f64 = 3.330_669_073_875_472e-16;

/// Sign of the orientation of `(a, b, c)` (positive when counter-
/// clockwise), or `None` when `f64` cannot certify it.
fn orient_sign(a: Point, b: Point, c: Point) -> Option<i8> {
    let left = (a.x - c.x) * (b.y - c.y);
    let right = (a.y - c.y) * (b.x - c.x);
    let det = left - right;
    let bound = ORIENT_ERR * (left.abs() + right.abs());
    // Both products hold an exactly-zero factor: the determinant is an
    // exact zero (IEEE differences vanish only for equal operands).
    let exact_zero = (a.x == c.x || b.y == c.y) && (a.y == c.y || b.x == c.x);
    if exact_zero {
        Some(0)
    } else if det.abs() > bound {
        Some(if det > 0.0 { 1 } else { -1 })
    } else {
        None
    }
}

/// A query polygon compiled for the oracle: edges bucketed by horizontal
/// band, so a test looks only at the edges whose y-range meets the
/// point's band.
pub struct OracleArea {
    mbr: Rect,
    ymin: f64,
    inv_band: f64,
    bands: Vec<Vec<(Point, Point)>>,
}

impl OracleArea {
    pub fn new(poly: &Polygon) -> OracleArea {
        let v = poly.vertices();
        let mbr = Rect::from_points(v.iter().copied());
        let nb = (v.len() / 2).clamp(1, 512);
        let h = mbr.height();
        let inv_band = if h > 0.0 { nb as f64 / h } else { 0.0 };
        let mut area = OracleArea {
            mbr,
            ymin: mbr.min.y,
            inv_band,
            bands: vec![Vec::new(); nb],
        };
        for i in 0..v.len() {
            let (a, b) = (v[i], v[(i + 1) % v.len()]);
            let (lo, hi) = (area.band(a.y.min(b.y)), area.band(a.y.max(b.y)));
            for band in &mut area.bands[lo..=hi] {
                band.push((a, b));
            }
        }
        area
    }

    fn band(&self, y: f64) -> usize {
        (((y - self.ymin) * self.inv_band).floor().max(0.0) as usize).min(self.bands.len() - 1)
    }

    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// `Some(true)` when `p` lies inside the polygon or on its boundary,
    /// `Some(false)` outside, `None` when `f64` cannot decide.
    pub fn contains(&self, p: Point) -> Option<bool> {
        if !self.mbr.contains_point(p) {
            return Some(false);
        }
        let mut inside = false;
        let mut uncertain = false;
        for &(a, b) in &self.bands[self.band(p.y)] {
            if p.y < a.y.min(b.y) || p.y > a.y.max(b.y) || p.x > a.x.max(b.x) {
                continue;
            }
            // Exactly one endpoint strictly above the horizontal through p.
            let straddles = (a.y > p.y) != (b.y > p.y);
            if p.x < a.x.min(b.x) {
                // The edge lies strictly right of p: it crosses the ray
                // when it straddles, and cannot hold p.
                inside ^= straddles;
                continue;
            }
            match orient_sign(a, b, p) {
                // Collinear inside the edge's box: p is on the boundary.
                Some(0) => return Some(true),
                Some(s) => {
                    if straddles && (s > 0) == (b.y > a.y) {
                        inside = !inside;
                    }
                }
                None => uncertain = true,
            }
        }
        (!uncertain).then_some(inside)
    }
}

/// The oracle's answer for one area: the ids certainly inside (sorted),
/// the undecided ids (sorted), and how many points lie in the area's MBR.
pub struct Truth<I> {
    pub inside: Vec<I>,
    pub undecided: Vec<I>,
    pub in_mbr: usize,
}

impl<I: Ord + Copy> Truth<I> {
    /// `true` when the engine's ascending answer `got` agrees with the
    /// oracle on every decided point.
    pub fn matches(&self, got: &[I]) -> bool {
        if self.undecided.is_empty() {
            return got == self.inside.as_slice();
        }
        let mut inside = self.inside.iter().peekable();
        for id in got {
            if inside.peek().is_some_and(|&&x| x < *id) {
                return false;
            }
            if inside.peek() == Some(&id) {
                inside.next();
            } else if self.undecided.binary_search(id).is_err() {
                return false;
            }
        }
        inside.next().is_none()
    }
}

/// The grid column (or row) of coordinate `v`, clamped into `0..g`.
fn cell_of(v: f64, min: f64, inv: f64, g: usize) -> usize {
    (((v - min) * inv).floor().max(0.0) as usize).min(g - 1)
}

/// A static point set bucketed into a uniform grid.
pub struct GridOracle {
    pts: Vec<Point>,
    min: Point,
    inv: (f64, f64),
    g: usize,
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl GridOracle {
    pub fn new(points: &[Point]) -> GridOracle {
        let bbox = Rect::from_points(points.iter().copied());
        let g = ((points.len() as f64 / 4.0).sqrt().ceil() as usize).clamp(1, 2048);
        let inv = |extent: f64| if extent > 0.0 { g as f64 / extent } else { 0.0 };
        let (min, inv) = (bbox.min, (inv(bbox.width()), inv(bbox.height())));
        let cell = |p: Point| cell_of(p.y, min.y, inv.1, g) * g + cell_of(p.x, min.x, inv.0, g);
        let mut start = vec![0u32; g * g + 1];
        for &p in points {
            start[cell(p) + 1] += 1;
        }
        for i in 0..g * g {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut ids = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell(p);
            ids[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        GridOracle {
            pts: points.to_vec(),
            min,
            inv,
            g,
            start,
            ids,
        }
    }

    /// Calls `f` for every point inside the closed rectangle `r`.
    pub fn for_each_in(&self, r: &Rect, mut f: impl FnMut(u32, Point)) {
        if self.pts.is_empty() {
            return;
        }
        let (g, min, inv) = (self.g, self.min, self.inv);
        let (x0, x1) = (
            cell_of(r.min.x, min.x, inv.0, g),
            cell_of(r.max.x, min.x, inv.0, g),
        );
        let (y0, y1) = (
            cell_of(r.min.y, min.y, inv.1, g),
            cell_of(r.max.y, min.y, inv.1, g),
        );
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                let c = cy * g + cx;
                for &id in &self.ids[self.start[c] as usize..self.start[c + 1] as usize] {
                    let p = self.pts[id as usize];
                    if r.contains_point(p) {
                        f(id, p);
                    }
                }
            }
        }
    }

    pub fn truth(&self, poly: &Polygon) -> Truth<u32> {
        let area = OracleArea::new(poly);
        let mut t = Truth {
            inside: Vec::new(),
            undecided: Vec::new(),
            in_mbr: 0,
        };
        self.for_each_in(&area.mbr(), |id, p| {
            t.in_mbr += 1;
            match area.contains(p) {
                Some(true) => t.inside.push(id),
                Some(false) => {}
                None => t.undecided.push(id),
            }
        });
        t.inside.sort_unstable();
        t.undecided.sort_unstable();
        t
    }
}

/// The benchmark's own copy of a dynamic engine's live set: every live
/// `(id, point)`, bucketed in a grid over the unit square, plus a dense
/// id list for uniform picks.
pub struct LiveOracle {
    g: usize,
    cells: Vec<Vec<u64>>,
    points: HashMap<u64, Point>,
    ids: Vec<u64>,
    pos: HashMap<u64, usize>,
}

impl LiveOracle {
    pub fn new(base: &[Point]) -> LiveOracle {
        let g = ((base.len() as f64 / 4.0).sqrt().ceil() as usize).clamp(1, 2048);
        let mut o = LiveOracle {
            g,
            cells: vec![Vec::new(); g * g],
            points: HashMap::with_capacity(base.len() * 2),
            ids: Vec::with_capacity(base.len() * 2),
            pos: HashMap::with_capacity(base.len() * 2),
        };
        for (i, &p) in base.iter().enumerate() {
            o.insert(i as u64, p);
        }
        o
    }

    fn cell(&self, p: Point) -> usize {
        let g = self.g;
        cell_of(p.y, 0.0, g as f64, g) * g + cell_of(p.x, 0.0, g as f64, g)
    }

    pub fn insert(&mut self, id: u64, p: Point) {
        let c = self.cell(p);
        self.cells[c].push(id);
        self.points.insert(id, p);
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
    }

    /// A uniformly chosen live id.
    pub fn pick(&self, rng: &mut crate::util::Rng) -> u64 {
        self.ids[rng.below(self.ids.len())]
    }

    pub fn remove(&mut self, id: u64) {
        let p = self.points.remove(&id).expect("removing a live id");
        let c = self.cell(p);
        let at = self.cells[c]
            .iter()
            .position(|&x| x == id)
            .expect("id in its cell");
        self.cells[c].swap_remove(at);
        let i = self.pos.remove(&id).expect("id in the dense list");
        let last = self.ids.pop().expect("non-empty");
        if last != id {
            self.ids[i] = last;
            self.pos.insert(last, i);
        }
    }

    /// Calls `f` for every live point inside the closed rectangle `r`.
    fn for_each_in(&self, r: &Rect, mut f: impl FnMut(u64, Point)) {
        let g = self.g;
        let gf = g as f64;
        for cy in cell_of(r.min.y, 0.0, gf, g)..=cell_of(r.max.y, 0.0, gf, g) {
            for cx in cell_of(r.min.x, 0.0, gf, g)..=cell_of(r.max.x, 0.0, gf, g) {
                for id in &self.cells[cy * g + cx] {
                    let p = self.points[id];
                    if r.contains_point(p) {
                        f(*id, p);
                    }
                }
            }
        }
    }

    pub fn truth(&self, poly: &Polygon) -> Truth<u64> {
        let area = OracleArea::new(poly);
        let mut t = Truth {
            inside: Vec::new(),
            undecided: Vec::new(),
            in_mbr: 0,
        };
        self.for_each_in(&area.mbr(), |id, p| {
            t.in_mbr += 1;
            match area.contains(p) {
                Some(true) => t.inside.push(id),
                Some(false) => {}
                None => t.undecided.push(id),
            }
        });
        t.inside.sort_unstable();
        t.undecided.sort_unstable();
        t
    }
}
