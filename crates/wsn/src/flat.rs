//! Flat dense spatial grid — the spatial index of every point cloud.
//!
//! Each LAACAD round issues `N` radius queries (one expanding-ring
//! search per node). [`FlatGrid`] answers them from one row-major cell
//! array over the point cloud's bounding box: CSR-style
//! `starts`/`entries` arrays built by a counting sort, a per-cell
//! occupancy prefix so point relocation is an O(1) swap-remove +
//! append, and per-point back pointers (`cell_of`/`slot_of`) so
//! `apply_moves` touches only the movers' source and destination cells.
//! A radius query walks contiguous row runs of the cell array — no
//! hashing, no per-bucket allocation.
//!
//! A dense array only stays small while the bounding box is dense in
//! points: a handful of far-flung outliers would inflate it without
//! bound. [`FlatGrid::build`] therefore doubles the requested cell size
//! until the box needs at most `2N + 64` cells. Queries stay exact at
//! any cell size; a coarser cell only makes each query scan more
//! points. Mutations that escape the current box or overflow a cell's
//! slack report failure instead of degrading, and the owner (who holds
//! the positions) rebuilds in O(N).

use laacad_geom::Point;

/// Spare slots reserved per cell at build time, so points can migrate
/// into a cell a few times before the grid asks for a rebuild.
const CELL_SLACK: u32 = 4;

/// A build coarsens its cell until the bounding box needs at most
/// `DENSITY_LIMIT · N + DENSITY_SLACK` cells — the cap on the cell
/// array's memory.
const DENSITY_LIMIT: u128 = 2;
const DENSITY_SLACK: u128 = 64;

/// A dense row-major grid over points.
///
/// Indexes points by their position in an external slice; point `p`
/// lives in cell `floor(p / cell)` per axis.
#[derive(Debug, Clone)]
pub struct FlatGrid {
    cell: f64,
    /// Grid coordinates of the lower-left cell.
    gx0: i64,
    gy0: i64,
    cols: usize,
    rows: usize,
    /// Block boundaries per cell (`ncells + 1` entries): cell `c` owns
    /// `entries[starts[c] .. starts[c + 1]]`, of which the first
    /// `lens[c]` slots are occupied.
    starts: Vec<u32>,
    lens: Vec<u32>,
    entries: Vec<u32>,
    /// Back pointers per point: linear cell index and absolute slot in
    /// `entries` — what makes removal O(1).
    cell_of: Vec<u32>,
    slot_of: Vec<u32>,
}

impl FlatGrid {
    /// Builds a grid over `points` (indexed by position in the slice)
    /// with cell size `cell`, doubled as often as needed to keep the
    /// bounding box within `2N + 64` cells.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not strictly positive and finite, or when
    /// `points` holds more than `u32::MAX / 16` points (the entry
    /// array's `u32` offsets would overflow).
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let n = points.len();
        // Entry count is at most `n + CELL_SLACK · ncells ≤ 9n + 256`;
        // keep it comfortably inside `u32`.
        assert!(
            n <= u32::MAX as usize / 16,
            "{n} points exceed the grid's u32 offsets"
        );
        if n == 0 {
            return FlatGrid {
                cell,
                gx0: 0,
                gy0: 0,
                cols: 0,
                rows: 0,
                starts: vec![0],
                lens: Vec::new(),
                entries: Vec::new(),
                cell_of: Vec::new(),
                slot_of: Vec::new(),
            };
        }
        // Coordinate bounding box, once. `key` is monotone per axis, so
        // the key range at any cell size comes from the box corners and
        // each doubling below is O(1). `key` sends NaN to 0, the key of
        // 0.0, so a NaN coordinate counts as 0.0 here.
        let nan_as_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for p in points {
            let (x, y) = (nan_as_zero(p.x), nan_as_zero(p.y));
            lo = Point::new(lo.x.min(x), lo.y.min(y));
            hi = Point::new(hi.x.max(x), hi.y.max(y));
        }
        let limit = DENSITY_LIMIT * n as u128 + DENSITY_SLACK;
        let mut cell = cell;
        let ((gx0, gy0), cols, rows) = loop {
            let (g0, g1) = (key(lo, cell), key(hi, cell));
            // Span arithmetic in wide integers: a small cell next to
            // spread-out points could overflow i64 spans.
            let cols = (g1.0 as i128 - g0.0 as i128 + 1) as u128;
            let rows = (g1.1 as i128 - g0.1 as i128 + 1) as u128;
            if cols.checked_mul(rows).is_some_and(|c| c <= limit) {
                break (g0, cols as usize, rows as usize);
            }
            // Terminates: once `cell` overflows to infinity every key
            // is 0 and the box is one cell.
            cell *= 2.0;
        };
        let ncells = cols * rows;
        let mut grid = FlatGrid {
            cell,
            gx0,
            gy0,
            cols,
            rows,
            starts: vec![0u32; ncells + 1],
            lens: vec![0u32; ncells],
            entries: Vec::new(),
            cell_of: vec![0u32; n],
            slot_of: vec![0u32; n],
        };
        // Counting sort: count per cell, prefix-sum block starts (each
        // block gets `CELL_SLACK` spare slots), then place the points.
        for &p in points {
            let c = grid.cell_index(key(p, cell)).expect("point inside bbox");
            grid.starts[c + 1] += 1;
        }
        let mut total = 0u32;
        for c in 0..ncells {
            let count = grid.starts[c + 1];
            grid.starts[c] = total;
            total += count + CELL_SLACK;
        }
        grid.starts[ncells] = total;
        grid.entries = vec![0u32; total as usize];
        for (i, &p) in points.iter().enumerate() {
            let c = grid.cell_index(key(p, cell)).expect("point inside bbox");
            let slot = grid.starts[c] + grid.lens[c];
            grid.entries[slot as usize] = i as u32;
            grid.cell_of[i] = c as u32;
            grid.slot_of[i] = slot;
            grid.lens[c] += 1;
        }
        grid
    }

    /// Linear cell index of a grid key, or `None` when the key falls
    /// outside the built bounding box.
    #[inline]
    fn cell_index(&self, (gx, gy): (i64, i64)) -> Option<usize> {
        if gx < self.gx0 || gy < self.gy0 {
            return None;
        }
        let (cx, cy) = ((gx - self.gx0) as usize, (gy - self.gy0) as usize);
        if cx >= self.cols || cy >= self.rows {
            return None;
        }
        Some(cy * self.cols + cx)
    }

    /// Indices of all points within Euclidean distance `radius` of `q`
    /// (inclusive), ascending, appended into a caller-owned buffer
    /// (cleared first).
    pub fn within_into(&self, points: &[Point], q: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_within(points, q, radius, |i| out.push(i));
        out.sort_unstable();
    }

    /// Calls `f` with the index of every point within Euclidean distance
    /// `radius` of `q` (inclusive), in cell order rather than ascending.
    pub(crate) fn for_each_within(
        &self,
        points: &[Point],
        q: Point,
        radius: f64,
        mut f: impl FnMut(usize),
    ) {
        let r = radius.max(0.0);
        let r_sq = r * r + 1e-12;
        let (lo, hi) = self.clamped_range(q, r);
        let Some(((cx0, cx1), (cy0, cy1))) = range_cells(lo, hi) else {
            return;
        };
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for c in (row + cx0)..=(row + cx1) {
                let start = self.starts[c] as usize;
                for &e in &self.entries[start..start + self.lens[c] as usize] {
                    let i = e as usize;
                    if points[i].distance_sq(q) <= r_sq {
                        f(i);
                    }
                }
            }
        }
    }

    /// Whether some indexed point lies within Euclidean distance `radius`
    /// of `q`: a point counts when its squared distance passes the
    /// inclusive [`FlatGrid::within_into`] test *and* its distance is at
    /// most `radius` (a negative `radius` counts as 0). Stops at the
    /// first such point — the form a tight classification loop probes
    /// per node.
    pub fn any_within(&self, points: &[Point], q: Point, radius: f64) -> bool {
        let r = radius.max(0.0);
        let r_sq = r * r + 1e-12;
        let (lo, hi) = self.clamped_range(q, r);
        let Some(((cx0, cx1), (cy0, cy1))) = range_cells(lo, hi) else {
            return false;
        };
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for c in (row + cx0)..=(row + cx1) {
                let start = self.starts[c] as usize;
                for &e in &self.entries[start..start + self.lens[c] as usize] {
                    let d_sq = points[e as usize].distance_sq(q);
                    if d_sq <= r_sq && d_sq.sqrt() <= r {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The query's key range intersected with the grid extent, as
    /// zero-based cell coordinates (`x0 > x1` encodes an empty range).
    #[inline]
    fn clamped_range(&self, q: Point, r: f64) -> ((i64, i64), (i64, i64)) {
        let lo = key(q - laacad_geom::Vector::new(r, r), self.cell);
        let hi = key(q + laacad_geom::Vector::new(r, r), self.cell);
        // Saturating: a far query's key may sit near the `i64` limits.
        let x0 = lo.0.max(self.gx0).saturating_sub(self.gx0);
        let y0 = lo.1.max(self.gy0).saturating_sub(self.gy0);
        let x1 = hi.0.saturating_sub(self.gx0).min(self.cols as i64 - 1);
        let y1 = hi.1.saturating_sub(self.gy0).min(self.rows as i64 - 1);
        ((x0, x1), (y0, y1))
    }

    /// Adds point `i` located at `p`. Returns `false` — leaving the
    /// index unusable until rebuilt — when `p` falls outside the built
    /// bounding box or its cell's slack is exhausted.
    #[must_use]
    pub fn insert(&mut self, i: usize, p: Point) -> bool {
        let Some(c) = self.cell_index(key(p, self.cell)) else {
            return false;
        };
        if self.cell_of.len() <= i {
            self.cell_of.resize(i + 1, 0);
            self.slot_of.resize(i + 1, 0);
        }
        self.place(i, c)
    }

    /// Appends `i` into cell `c`'s block, failing when the block is full.
    #[inline]
    fn place(&mut self, i: usize, c: usize) -> bool {
        let slot = self.starts[c] + self.lens[c];
        if slot == self.starts[c + 1] {
            return false;
        }
        self.entries[slot as usize] = i as u32;
        self.cell_of[i] = c as u32;
        self.slot_of[i] = slot;
        self.lens[c] += 1;
        true
    }

    /// Moves point `i` from `old` to `new`. Returns `false` — leaving
    /// the index unusable until rebuilt — when the destination escapes
    /// the bounding box or overflows its cell.
    #[must_use]
    pub fn relocate(&mut self, i: usize, old: Point, new: Point) -> bool {
        let ko = key(old, self.cell);
        let kn = key(new, self.cell);
        if ko == kn {
            return true;
        }
        let Some(dest) = self.cell_index(kn) else {
            return false;
        };
        // O(1) swap-remove from the source cell's occupied prefix. The
        // in-cell order this perturbs is never observable: every query
        // either sorts its output or returns a distance.
        let c = self.cell_of[i] as usize;
        let s = self.slot_of[i];
        self.lens[c] -= 1;
        let last = self.starts[c] + self.lens[c];
        let moved = self.entries[last as usize];
        self.entries[s as usize] = moved;
        self.slot_of[moved as usize] = s;
        self.place(i, dest)
    }

    /// Applies a batch of moves `(index, old, new)`. The iterator is
    /// always drained in full (callers thread position updates through
    /// it as side effects); on the first failed relocation the index
    /// stops updating and `false` is returned — the caller must rebuild.
    #[must_use]
    pub fn apply_moves(&mut self, moves: impl IntoIterator<Item = (usize, Point, Point)>) -> bool {
        let mut ok = true;
        for (i, old, new) in moves {
            if ok {
                ok = self.relocate(i, old, new);
            }
        }
        ok
    }

    /// The cell size in use: the requested one, doubled as often as the
    /// build needed.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }
}

/// Grid key of a point: `floor(p / cell)` per axis, saturating at the
/// `i64` limits (NaN maps to 0).
#[inline]
fn key(p: Point, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

/// Converts a clamped key range into inclusive `usize` cell coordinate
/// ranges, or `None` when the query box misses the grid entirely.
#[inline]
#[allow(clippy::type_complexity)]
fn range_cells(
    (x0, x1): (i64, i64),
    (y0, y1): (i64, i64),
) -> Option<((usize, usize), (usize, usize))> {
    if x0 > x1 || y0 > y1 {
        return None;
    }
    Some(((x0 as usize, x1 as usize), (y0 as usize, y1 as usize)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(i as f64 * 0.1, j as f64 * 0.1));
            }
        }
        pts
    }

    fn within(grid: &FlatGrid, pts: &[Point], q: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.within_into(pts, q, r, &mut out);
        out
    }

    /// The grid's own inclusion predicate, applied to every point.
    fn brute(pts: &[Point], q: Point, r: f64) -> Vec<usize> {
        let r = r.max(0.0);
        (0..pts.len())
            .filter(|&i| pts[i].distance_sq(q) <= r * r + 1e-12)
            .collect()
    }

    #[test]
    fn within_matches_brute_force() {
        let pts = cloud();
        let grid = FlatGrid::build(&pts, 0.25);
        for &(qx, qy, r) in &[
            (0.5, 0.5, 0.2),
            (0.0, 0.0, 0.15),
            (0.95, 0.5, 0.3),
            (0.5, 0.5, 5.0),
            (-2.0, -2.0, 0.5),
            (2.0, 2.0, 3.0),
        ] {
            let q = Point::new(qx, qy);
            assert_eq!(
                within(&grid, &pts, q, r),
                brute(&pts, q, r),
                "query ({qx},{qy}) r={r}"
            );
        }
    }

    #[test]
    fn zero_radius_returns_coincident_points() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 1.0),
        ];
        let grid = FlatGrid::build(&pts, 0.5);
        assert_eq!(within(&grid, &pts, Point::new(1.0, 1.0), 0.0), vec![0, 2]);
    }

    #[test]
    fn relocate_keeps_queries_correct() {
        let mut pts = cloud();
        let mut grid = FlatGrid::build(&pts, 0.25);
        // In-box move.
        let old = pts[7];
        pts[7] = Point::new(0.51, 0.52);
        assert!(grid.relocate(7, old, pts[7]));
        assert!(within(&grid, &pts, Point::new(0.5, 0.5), 0.05).contains(&7));
        assert!(!within(&grid, &pts, old, 0.05).contains(&7));
        // Same-cell move: no structural change needed.
        let old = pts[50];
        let new = Point::new(old.x + 1e-6, old.y);
        pts[50] = new;
        assert!(grid.relocate(50, old, new));
        assert!(within(&grid, &pts, new, 0.01).contains(&50));
        // Out-of-box move reports a needed rebuild.
        let old = pts[3];
        assert!(!grid.relocate(3, old, Point::new(9.0, 9.0)));
    }

    #[test]
    fn insert_extends_queries_and_reports_overflow() {
        let mut pts = cloud();
        let mut grid = FlatGrid::build(&pts, 0.25);
        pts.push(Point::new(0.55, 0.55));
        assert!(grid.insert(pts.len() - 1, pts[pts.len() - 1]));
        assert!(within(&grid, &pts, Point::new(0.55, 0.55), 0.01).contains(&(pts.len() - 1)));
        // Outside the bounding box: rebuild required.
        assert!(!grid.insert(pts.len(), Point::new(5.0, 5.0)));
        // A cell accepts at most `CELL_SLACK` net arrivals before
        // demanding a rebuild.
        let mut grid = FlatGrid::build(&pts, 0.25);
        let mut accepted = 0;
        for extra in 0..=CELL_SLACK as usize {
            if grid.insert(pts.len() + extra, Point::new(0.3, 0.3)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, CELL_SLACK);
    }

    #[test]
    fn any_within_matches_brute_force() {
        let pts = cloud();
        let grid = FlatGrid::build(&pts, 0.25);
        for &(qx, qy, r) in &[
            (0.52, 0.47, 0.2),
            (1.4, 1.4, 0.3),
            (1.45, 0.5, 0.6),
            (0.55, 0.55, 0.01),
            (0.55, 0.55, 0.1),
            (0.5, 0.5, -1.0),
        ] {
            let q = Point::new(qx, qy);
            let expect = brute(&pts, q, r)
                .into_iter()
                .any(|i| pts[i].distance_sq(q).sqrt() <= r.max(0.0));
            assert_eq!(grid.any_within(&pts, q, r), expect, "({qx},{qy}) r={r}");
        }
        // Fixed rim cases, one point each, at r = 0.25 from q.
        let q = Point::new(0.5, 0.5);
        let r = 0.25;
        for (p, counts, what) in [
            (Point::new(0.75, 0.5), true, "exactly at r"),
            // d² exceeds r² by an ulp and √d² still rounds to r.
            (Point::new(0.75, 0.5 + 3e-9), true, "√d² rounds to r"),
            // Inside the 1e-12 band of the squared test, but √d² > r.
            (Point::new(0.75, 0.5 + 1e-7), false, "in the band, beyond r"),
        ] {
            let d_sq = p.distance_sq(q);
            assert!(d_sq <= r * r + 1e-12, "{what}");
            assert_eq!(d_sq.sqrt() <= r, counts, "{what}");
            let lone = [p];
            assert_eq!(
                FlatGrid::build(&lone, 0.1).any_within(&lone, q, r),
                counts,
                "{what}"
            );
        }
    }

    #[test]
    fn sparse_clouds_coarsen_the_cell_and_stay_exact() {
        let mut cluster_and_outlier: Vec<Point> = (0..200)
            .map(|i| Point::new((i % 20) as f64 * 0.01, (i / 20) as f64 * 0.01))
            .collect();
        cluster_and_outlier.push(Point::new(1e6, 1e6));
        // One row of 10⁶ cells at cell 0.1: a one-shot `sqrt(ncells /
        // limit)` rescale would leave it ~20× over the cap.
        let strip: Vec<Point> = (0..1000)
            .map(|i| Point::new(i as f64 * 100.0, 0.0))
            .collect();
        let clouds: [(&str, Vec<Point>); 6] = [
            (
                "two points 10³ apart",
                vec![Point::ORIGIN, Point::new(1e3, 0.0)],
            ),
            ("cluster plus outlier", cluster_and_outlier),
            ("one-row strip", strip),
            (
                "infinite coordinate",
                vec![
                    Point::new(0.5, 0.5),
                    Point::new(0.6, 0.5),
                    Point::new(f64::INFINITY, 0.5),
                ],
            ),
            (
                "NaN coordinates",
                vec![
                    Point::new(0.5, 0.5),
                    Point::new(f64::NAN, 0.5),
                    Point::new(0.3, f64::NAN),
                ],
            ),
            ("empty", Vec::new()),
        ];
        for (name, pts) in &clouds {
            let grid = FlatGrid::build(pts, 0.1);
            assert!(
                grid.lens.len() <= 2 * pts.len() + 64,
                "{name}: {} cells",
                grid.lens.len()
            );
            let mut queries: Vec<(Point, f64)> = pts
                .iter()
                .filter(|p| p.x.is_finite() && p.y.is_finite())
                .flat_map(|&p| [(p, 0.0), (p, 0.15), (p, 250.0)])
                .collect();
            queries.push((Point::new(-3.0, 7.0), 1e4));
            for (q, r) in queries {
                assert_eq!(
                    within(&grid, pts, q, r),
                    brute(pts, q, r),
                    "{name}: query {q} r={r}"
                );
            }
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let pts = vec![Point::new(-1.0, -1.0), Point::new(-0.9, -1.0)];
        let grid = FlatGrid::build(&pts, 0.3);
        assert_eq!(
            within(&grid, &pts, Point::new(-1.0, -1.0), 0.15),
            vec![0, 1]
        );
        // Query keys saturate at the i64 limits, far from the grid's
        // negative origin.
        for q in [Point::new(1e300, 1e300), Point::new(-1e300, -1e300)] {
            assert!(within(&grid, &pts, q, 1.0).is_empty());
        }
    }

    #[test]
    fn empty_grid_answers_and_grows_via_rebuild_path() {
        let grid = FlatGrid::build(&[], 0.5);
        let mut out = vec![1usize];
        grid.within_into(&[], Point::ORIGIN, 10.0, &mut out);
        assert!(out.is_empty());
        let mut grid = grid;
        assert!(!grid.insert(0, Point::ORIGIN), "empty box has no cells");
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = FlatGrid::build(&[], 0.0);
    }
}
