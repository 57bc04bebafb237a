//! Enumeration of the full order-k Voronoi diagram (paper Fig. 1).
//!
//! An order-k cell is the locus of points sharing the same set of `k`
//! nearest sites; it is convex (intersection of dominance half-planes).
//! The number of cells `N̂_k` is `O(k(N − k))` (Lee, ref \[27\]). LAACAD
//! itself never materializes the whole diagram — nodes only compute their
//! own dominating regions — but the diagram is what Fig. 1 visualizes and
//! is a useful oracle: the dominating region of `i` must equal the union
//! of the cells generated by sets containing `i`.

use crate::brute::k_nearest_in_place;
use laacad_geom::{HalfPlane, Point, Polygon};
use std::collections::BTreeSet;

/// One cell of the order-k Voronoi diagram.
#[derive(Debug, Clone)]
pub struct OrderKCell {
    /// Sorted indices of the `k` generator sites.
    pub generators: Vec<usize>,
    /// The convex cell, clipped to the diagram's domain.
    pub polygon: Polygon,
}

/// The order-k Voronoi diagram of `sites` within a convex `domain`.
#[derive(Debug, Clone)]
pub struct OrderKDiagram {
    k: usize,
    cells: Vec<OrderKCell>,
}

impl OrderKDiagram {
    /// The coverage order `k` of the diagram.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The cells (`N̂_k` of them).
    pub fn cells(&self) -> &[OrderKCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the diagram has no cells (degenerate inputs only).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total cell area (= domain area when the diagram is complete).
    pub fn total_area(&self) -> f64 {
        self.cells.iter().map(|c| c.polygon.area()).sum()
    }
}

/// Exact cell for a fixed generator set `gens`: the intersection of
/// `domain` with every dominance half-plane `closer(h, j)`, `h ∈ gens`,
/// `j ∉ gens`. Returns `None` when empty.
fn cell_of_set(gens: &[usize], sites: &[Point], domain: &Polygon) -> Option<Polygon> {
    let mut cell = domain.clone();
    for &h in gens {
        for j in 0..sites.len() {
            if gens.binary_search(&j).is_ok() {
                continue;
            }
            let Some(hp) = HalfPlane::closer_to(sites[h], sites[j]) else {
                continue;
            };
            cell = cell.clip_halfplane(&hp)?;
        }
    }
    Some(cell)
}

/// Builds the order-k diagram by seeding candidate generator sets from a
/// `resolution × resolution` probe grid and expanding each cell exactly.
///
/// The probe grid only *discovers* generator sets; every emitted cell is
/// computed exactly by half-plane clipping. Cells smaller than the probe
/// spacing can be missed — increase `resolution` for dense diagrams (the
/// Fig. 1 experiment uses 256 for 30 sites and verifies the total area).
///
/// # Panics
///
/// Panics when `k` is zero or exceeds the number of sites.
pub fn order_k_diagram(
    sites: &[Point],
    k: usize,
    domain: &Polygon,
    resolution: usize,
) -> OrderKDiagram {
    assert!(k >= 1 && k <= sites.len(), "need 1 ≤ k ≤ N");
    let bb = domain.bounding_box();
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut cells = Vec::new();
    // One reusable index buffer for the whole probe sweep: each probe is
    // a selection (`O(N + k log k)`), not a full `O(N log N)` sort.
    let mut gens = Vec::with_capacity(sites.len());
    for iy in 0..resolution {
        for ix in 0..resolution {
            let p = Point::new(
                bb.min().x + (ix as f64 + 0.5) / resolution as f64 * bb.width(),
                bb.min().y + (iy as f64 + 0.5) / resolution as f64 * bb.height(),
            );
            if !domain.contains(p) {
                continue;
            }
            gens.clear();
            gens.extend(0..sites.len());
            k_nearest_in_place(sites, k, p, &mut gens);
            if !seen.contains(&gens) {
                seen.insert(gens.clone());
                if let Some(polygon) = cell_of_set(&gens, sites, domain) {
                    cells.push(OrderKCell {
                        generators: gens.clone(),
                        polygon,
                    });
                }
            }
        }
    }
    OrderKDiagram { k, cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_region::sampling::SplitMix64;

    fn unit_domain() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0)).unwrap()
    }

    fn random_sites(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Point::new(rng.next_f64(), rng.next_f64()))
            .collect()
    }

    #[test]
    fn order1_diagram_has_n_cells_tiling_domain() {
        let sites = random_sites(12, 5);
        let d = order_k_diagram(&sites, 1, &unit_domain(), 64);
        assert_eq!(d.len(), 12);
        assert!((d.total_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn order_k_diagram_tiles_domain() {
        let sites = random_sites(10, 11);
        for k in 2..=4usize {
            let d = order_k_diagram(&sites, k, &unit_domain(), 96);
            assert!(
                (d.total_area() - 1.0).abs() < 1e-4,
                "k={k} area {}",
                d.total_area()
            );
            // Each cell has exactly k generators.
            assert!(d.cells().iter().all(|c| c.generators.len() == k));
        }
    }

    #[test]
    fn cell_count_grows_with_k_as_lee_bound() {
        let sites = random_sites(14, 3);
        let n1 = order_k_diagram(&sites, 1, &unit_domain(), 96).len();
        let n2 = order_k_diagram(&sites, 2, &unit_domain(), 96).len();
        assert_eq!(n1, 14);
        assert!(n2 > n1, "order-2 diagrams are finer: {n2} vs {n1}");
        // Lee's bound: N̂_k = O(k (N − k)).
        assert!(n2 <= 3 * 2 * (14 - 2));
    }

    #[test]
    fn union_of_cells_is_dominating_region() {
        let sites = random_sites(8, 21);
        let domain = unit_domain();
        let k = 3;
        let diagram = order_k_diagram(&sites, k, &domain, 128);
        for site in [0usize, 4, 7] {
            // The cells `site` generates tile its dominating region
            // (paper Sec. III-C).
            let union_area: f64 = diagram
                .cells()
                .iter()
                .filter(|c| c.generators.binary_search(&site).is_ok())
                .map(|c| c.polygon.area())
                .sum();
            let dr = crate::dominating::dominating_region(site, &sites, k, &domain);
            assert!(
                (union_area - dr.area()).abs() < 1e-4,
                "site {site}: union {union_area} vs region {}",
                dr.area()
            );
        }
    }

    #[test]
    fn degenerate_k_bounds_panic() {
        let sites = random_sites(4, 1);
        let result = std::panic::catch_unwind(|| order_k_diagram(&sites, 5, &unit_domain(), 16));
        assert!(result.is_err());
    }
}
