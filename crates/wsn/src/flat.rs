//! Flat dense spatial grid — the million-node layout of the index.
//!
//! [`crate::spatial::SpatialGrid`] hashes every cell probe and scatters
//! its buckets across the heap; at N = 10⁵–10⁶ the per-query hashing and
//! pointer chasing dominate the radius queries every round performs.
//! [`FlatGrid`] stores the same index as one row-major cell array over
//! the point cloud's bounding box: CSR-style `starts`/`entries` arrays
//! built by a counting sort, a per-cell occupancy prefix so point
//! relocation is an O(1) swap-remove + append, and per-point back
//! pointers (`cell_of`/`slot_of`) so `apply_moves` touches only the
//! movers' source and destination cells. A radius query walks contiguous
//! row runs of the cell array — no hashing, no per-bucket allocation.
//!
//! Both index layouts implement the identical query contracts
//! ([`FlatGrid::within_into`] sorts its output; the
//! [`FlatGrid::min_distance_within`] early-exit contract matches
//! [`crate::spatial::SpatialGrid::min_distance_within`] exactly), so
//! swapping one for the other is invisible to callers — results are
//! bit-identical, which is what lets [`GridIndex`] pick the layout per
//! deployment without perturbing any round.
//!
//! The flat layout only pays off while the bounding box is dense in
//! points: a handful of far-flung outliers would inflate the cell array
//! without bound. [`FlatGrid::try_build`] therefore refuses (returns
//! `None`) when the box would need more than a small multiple of N
//! cells, and [`GridIndex::build`] falls back to the hash grid — the
//! sparse/paged fallback of the flat design. Mutations that escape the
//! current box or overflow a cell's slack report failure instead of
//! degrading, and the owner (who holds the positions) rebuilds in O(N).

use crate::spatial::SpatialGrid;
use laacad_geom::Point;

/// Spare slots reserved per cell at build time, so points can migrate
/// into a cell a few times before the grid asks for a rebuild.
const CELL_SLACK: u32 = 4;

/// A build is refused when the bounding box needs more than
/// `DENSITY_LIMIT · N + DENSITY_SLACK` cells — the point cloud is too
/// sparse for a dense array to pay off.
const DENSITY_LIMIT: u128 = 2;
const DENSITY_SLACK: u128 = 64;

/// A dense row-major grid over points with a fixed cell size.
///
/// Indexes points by their position in an external slice, exactly like
/// [`SpatialGrid`]; the cell decomposition (`floor(p / cell)` per axis)
/// is also identical, so the two layouts index the same point into the
/// same cell.
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
    /// Builds a dense grid with the given cell size over `points`
    /// (indexed by position in the slice), or `None` when the point
    /// cloud's bounding box is too sparse for a dense cell array (or the
    /// index would overflow `u32`).
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not strictly positive.
    pub fn try_build(points: &[Point], cell: f64) -> Option<Self> {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let n = points.len();
        if n == 0 {
            return Some(FlatGrid {
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
            });
        }
        // Entry count is at most `n + CELL_SLACK · ncells ≤ 9n + 256`;
        // keep it comfortably inside `u32`.
        if n > u32::MAX as usize / 16 {
            return None;
        }
        let (mut gx0, mut gy0) = (i64::MAX, i64::MAX);
        let (mut gx1, mut gy1) = (i64::MIN, i64::MIN);
        for &p in points {
            let (gx, gy) = key(p, cell);
            gx0 = gx0.min(gx);
            gy0 = gy0.min(gy);
            gx1 = gx1.max(gx);
            gy1 = gy1.max(gy);
        }
        // Span arithmetic in wide integers: a degenerate cell size next
        // to spread-out points could overflow i64 spans.
        let cols = (gx1 as i128 - gx0 as i128 + 1) as u128;
        let rows = (gy1 as i128 - gy0 as i128 + 1) as u128;
        let ncells = cols.checked_mul(rows)?;
        if ncells > DENSITY_LIMIT * n as u128 + DENSITY_SLACK {
            return None;
        }
        let (cols, rows) = (cols as usize, rows as usize);
        let ncells = ncells as usize;
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
        Some(grid)
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

    /// Like [`SpatialGrid::within_into`]: indices of all points within
    /// Euclidean distance `radius` of `q` (inclusive), ascending,
    /// appended into a caller-owned buffer (cleared first).
    pub fn within_into(&self, points: &[Point], q: Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
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
                        out.push(i);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// **Test-only convenience** mirroring [`SpatialGrid::within`]:
    /// allocates a fresh `Vec` per call, so no hot path uses it —
    /// per-round queries go through [`FlatGrid::within_into`] with a
    /// reused buffer.
    pub fn within(&self, points: &[Point], q: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(points, q, radius, &mut out);
        out
    }

    /// Distance from `q` to the nearest indexed point within `radius`
    /// (`f64::INFINITY` when none), with the same early-exit contract as
    /// [`SpatialGrid::min_distance_within`]: a return value
    /// `> stop_below` is the exact minimum; a value `≤ stop_below`
    /// witnesses some point at that distance.
    pub fn min_distance_within(
        &self,
        points: &[Point],
        q: Point,
        radius: f64,
        stop_below: f64,
    ) -> f64 {
        let r = radius.max(0.0);
        let r_sq = r * r + 1e-12;
        let mut best_sq = f64::INFINITY;
        let stop_sq = stop_below * stop_below;
        let (lo, hi) = self.clamped_range(q, r);
        let Some(((cx0, cx1), (cy0, cy1))) = range_cells(lo, hi) else {
            return best_sq.sqrt();
        };
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            for c in (row + cx0)..=(row + cx1) {
                let start = self.starts[c] as usize;
                for &e in &self.entries[start..start + self.lens[c] as usize] {
                    let d_sq = points[e as usize].distance_sq(q);
                    if d_sq <= r_sq && d_sq < best_sq {
                        best_sq = d_sq;
                        if best_sq <= stop_sq {
                            return best_sq.sqrt();
                        }
                    }
                }
            }
        }
        best_sq.sqrt()
    }

    /// The query's key range intersected with the grid extent, as
    /// zero-based cell coordinates (`x0 > x1` encodes an empty range).
    #[inline]
    fn clamped_range(&self, q: Point, r: f64) -> ((i64, i64), (i64, i64)) {
        let lo = key(q - laacad_geom::Vector::new(r, r), self.cell);
        let hi = key(q + laacad_geom::Vector::new(r, r), self.cell);
        let x0 = (lo.0.max(self.gx0) - self.gx0).max(0);
        let y0 = (lo.1.max(self.gy0) - self.gy0).max(0);
        let x1 = (hi.0 - self.gx0).min(self.cols as i64 - 1);
        let y1 = (hi.1 - self.gy0).min(self.rows as i64 - 1);
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

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }
}

/// Grid key of a point — must stay identical to
/// [`SpatialGrid`]'s cell decomposition.
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

/// The spatial index behind [`crate::Network`]: one of the two
/// bit-identical layouts.
///
/// [`GridIndex::build`] takes the flat layout whenever the point cloud
/// is dense enough, falling back to the hash grid otherwise. The
/// fallible mutations ([`GridIndex::insert`] /
/// [`GridIndex::apply_moves`] / [`GridIndex::relocate`]) report `false`
/// when the flat layout needs a rebuild; the hash layout never does.
#[derive(Debug, Clone)]
pub enum GridIndex {
    /// Hash-bucket layout ([`SpatialGrid`]) — handles any point cloud.
    Hash(SpatialGrid),
    /// Dense row-major layout ([`FlatGrid`]) — the large-N fast path.
    Flat(FlatGrid),
}

impl GridIndex {
    /// Builds an index over `points`: the flat layout when the bounding
    /// box is dense enough, the hash grid otherwise.
    pub fn build(points: &[Point], cell: f64) -> Self {
        match FlatGrid::try_build(points, cell) {
            Some(flat) => GridIndex::Flat(flat),
            None => GridIndex::Hash(SpatialGrid::build(points, cell)),
        }
    }

    /// Whether the flat layout is active.
    pub fn is_flat(&self) -> bool {
        matches!(self, GridIndex::Flat(_))
    }

    /// See [`SpatialGrid::within_into`].
    pub fn within_into(&self, points: &[Point], q: Point, radius: f64, out: &mut Vec<usize>) {
        match self {
            GridIndex::Hash(g) => g.within_into(points, q, radius, out),
            GridIndex::Flat(g) => g.within_into(points, q, radius, out),
        }
    }

    /// See [`SpatialGrid::min_distance_within`].
    pub fn min_distance_within(
        &self,
        points: &[Point],
        q: Point,
        radius: f64,
        stop_below: f64,
    ) -> f64 {
        match self {
            GridIndex::Hash(g) => g.min_distance_within(points, q, radius, stop_below),
            GridIndex::Flat(g) => g.min_distance_within(points, q, radius, stop_below),
        }
    }

    /// Adds point `i` at `p`; `false` means the index must be rebuilt.
    #[must_use]
    pub fn insert(&mut self, i: usize, p: Point) -> bool {
        match self {
            GridIndex::Hash(g) => {
                g.insert(i, p);
                true
            }
            GridIndex::Flat(g) => g.insert(i, p),
        }
    }

    /// Moves point `i`; `false` means the index must be rebuilt.
    #[must_use]
    pub fn relocate(&mut self, i: usize, old: Point, new: Point) -> bool {
        match self {
            GridIndex::Hash(g) => {
                g.relocate(i, old, new);
                true
            }
            GridIndex::Flat(g) => g.relocate(i, old, new),
        }
    }

    /// Applies a move batch, always draining the iterator (side effects
    /// included); `false` means the index must be rebuilt.
    #[must_use]
    pub fn apply_moves(&mut self, moves: impl IntoIterator<Item = (usize, Point, Point)>) -> bool {
        match self {
            GridIndex::Hash(g) => {
                g.apply_moves(moves);
                true
            }
            GridIndex::Flat(g) => g.apply_moves(moves),
        }
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> f64 {
        match self {
            GridIndex::Hash(g) => g.cell_size(),
            GridIndex::Flat(g) => g.cell_size(),
        }
    }
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

    #[test]
    fn within_matches_hash_grid() {
        let pts = cloud();
        let flat = FlatGrid::try_build(&pts, 0.25).expect("dense cloud");
        let hash = SpatialGrid::build(&pts, 0.25);
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
                within(&flat, &pts, q, r),
                hash.within(&pts, q, r),
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
        let grid = FlatGrid::try_build(&pts, 0.5).expect("dense");
        assert_eq!(within(&grid, &pts, Point::new(1.0, 1.0), 0.0), vec![0, 2]);
    }

    #[test]
    fn relocate_keeps_queries_correct() {
        let mut pts = cloud();
        let mut grid = FlatGrid::try_build(&pts, 0.25).expect("dense cloud");
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
        let mut grid = FlatGrid::try_build(&pts, 0.25).expect("dense cloud");
        pts.push(Point::new(0.55, 0.55));
        assert!(grid.insert(pts.len() - 1, pts[pts.len() - 1]));
        assert!(within(&grid, &pts, Point::new(0.55, 0.55), 0.01).contains(&(pts.len() - 1)));
        // Outside the bounding box: rebuild required.
        assert!(!grid.insert(pts.len(), Point::new(5.0, 5.0)));
        // A cell accepts at most `CELL_SLACK` net arrivals before
        // demanding a rebuild.
        let mut grid = FlatGrid::try_build(&pts, 0.25).expect("dense cloud");
        let mut accepted = 0;
        for extra in 0..=CELL_SLACK as usize {
            if grid.insert(pts.len() + extra, Point::new(0.3, 0.3)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, CELL_SLACK);
    }

    #[test]
    fn min_distance_matches_hash_grid() {
        let pts = cloud();
        let flat = FlatGrid::try_build(&pts, 0.25).expect("dense cloud");
        let hash = SpatialGrid::build(&pts, 0.25);
        for &(qx, qy, r) in &[(0.52, 0.47, 0.2), (1.4, 1.4, 0.3), (1.45, 0.5, 0.6)] {
            let q = Point::new(qx, qy);
            let got = flat.min_distance_within(&pts, q, r, 0.0);
            let expect = hash.min_distance_within(&pts, q, r, 0.0);
            if expect.is_infinite() {
                assert!(got.is_infinite(), "({qx},{qy}) r={r}: got {got}");
            } else {
                assert!((got - expect).abs() < 1e-15, "({qx},{qy}) r={r}");
            }
        }
        let witnessed = flat.min_distance_within(&pts, Point::new(0.5, 0.5), 0.5, 0.2);
        assert!(witnessed <= 0.2);
    }

    #[test]
    fn sparse_cloud_refuses_flat_build() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)];
        assert!(FlatGrid::try_build(&pts, 0.1).is_none());
        // And the unified index falls back to the hash layout.
        let index = GridIndex::build(&pts, 0.1);
        assert!(!index.is_flat());
        let mut out = Vec::new();
        index.within_into(&pts, Point::new(0.0, 0.0), 1.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn negative_coordinates_work() {
        let pts = vec![Point::new(-1.0, -1.0), Point::new(-0.9, -1.0)];
        let grid = FlatGrid::try_build(&pts, 0.3).expect("dense");
        assert_eq!(
            within(&grid, &pts, Point::new(-1.0, -1.0), 0.15),
            vec![0, 1]
        );
    }

    #[test]
    fn empty_grid_answers_and_grows_via_rebuild_path() {
        let grid = FlatGrid::try_build(&[], 0.5).expect("empty is dense");
        let mut out = vec![1usize];
        grid.within_into(&[], Point::ORIGIN, 10.0, &mut out);
        assert!(out.is_empty());
        let mut grid = grid;
        assert!(!grid.insert(0, Point::ORIGIN), "empty box has no cells");
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn zero_cell_size_panics() {
        let _ = FlatGrid::try_build(&[], 0.0);
    }
}
