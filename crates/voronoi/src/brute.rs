//! Brute-force oracles for Voronoi-region membership.
//!
//! These are deliberately naive `O(N)`-per-query implementations of the
//! paper's defining formulas, used as ground truth by the test suites of
//! this and downstream crates.

use laacad_geom::Point;

/// Number of sites **strictly** closer to `v` than `sites[center]` is —
/// the paper's `|S^k_{n_i}(v)|` (Sec. III-C).
///
/// Co-located sites are never strictly closer, matching Eq. (7).
pub fn strictly_closer_count(center: usize, sites: &[Point], v: Point) -> usize {
    let dc = sites[center].distance_sq(v);
    sites
        .iter()
        .enumerate()
        .filter(|&(j, &s)| j != center && s.distance_sq(v) < dc - 1e-12 * (1.0 + dc))
        .count()
}

/// Ground-truth membership in the dominating region `V^k_i`
/// (Proposition 1: at most `k − 1` sites strictly closer).
pub fn in_dominating_region(center: usize, sites: &[Point], k: usize, v: Point) -> bool {
    strictly_closer_count(center, sites, v) < k
}

/// The `k` nearest site indices to `v`, ties broken by index (the unique
/// `k`-smallest set under `(distance, index)` order, returned sorted by
/// index), as used to seed order-k cell enumeration. `order` must hold a
/// permutation of `0..sites.len()` on entry and is truncated to the
/// result, so probe loops reuse one buffer.
///
/// Selection is `select_nth_unstable_by` + a tail sort of the kept
/// prefix — `O(N + k log k)` instead of a full `O(N log N)` sort, which
/// matters to `order_k_diagram`'s 256×256-probe discovery loop.
pub fn k_nearest_in_place(sites: &[Point], k: usize, v: Point, order: &mut Vec<usize>) {
    let by_distance_then_index = |&a: &usize, &b: &usize| {
        sites[a]
            .distance_sq(v)
            .total_cmp(&sites[b].distance_sq(v))
            .then(a.cmp(&b))
    };
    if k < order.len() && k > 0 {
        order.select_nth_unstable_by(k - 1, by_distance_then_index);
    }
    order.truncate(k);
    order.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k_nearest(sites: &[Point], k: usize, v: Point) -> Vec<usize> {
        let mut order: Vec<usize> = (0..sites.len()).collect();
        k_nearest_in_place(sites, k, v, &mut order);
        order
    }

    #[test]
    fn closer_count_ignores_self_and_colocated() {
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0), // co-located with site 0
            Point::new(1.0, 0.0),
        ];
        // At the shared location, nothing is strictly closer than site 0.
        assert_eq!(strictly_closer_count(0, &sites, Point::new(0.0, 0.0)), 0);
        // Near site 2, both other sites are farther.
        assert_eq!(strictly_closer_count(2, &sites, Point::new(1.0, 0.0)), 0);
        // Halfway: ties are not "strictly closer".
        assert_eq!(strictly_closer_count(0, &sites, Point::new(0.5, 0.0)), 0);
    }

    #[test]
    fn membership_thresholds() {
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let v = Point::new(1.9, 0.0);
        assert_eq!(strictly_closer_count(0, &sites, v), 2);
        assert!(!in_dominating_region(0, &sites, 1, v));
        assert!(!in_dominating_region(0, &sites, 2, v));
        assert!(in_dominating_region(0, &sites, 3, v));
    }

    #[test]
    fn k_nearest_breaks_ties_by_index() {
        let sites = vec![
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0), // same distance from the origin
            Point::new(5.0, 0.0),
        ];
        assert_eq!(k_nearest(&sites, 1, Point::ORIGIN), vec![0]);
        assert_eq!(k_nearest(&sites, 2, Point::ORIGIN), vec![0, 1]);
        assert_eq!(k_nearest(&sites, 3, Point::ORIGIN), vec![0, 1, 2]);
    }

    #[test]
    fn k_nearest_selection_matches_full_sort() {
        // The selection path must return the exact (distance, index)-order
        // prefix a full sort would.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let sites: Vec<Point> = (0..60).map(|_| Point::new(next(), next())).collect();
        for trial in 0..20 {
            let v = Point::new(next(), next());
            let mut full: Vec<usize> = (0..sites.len()).collect();
            full.sort_by(|&a, &b| {
                sites[a]
                    .distance_sq(v)
                    .total_cmp(&sites[b].distance_sq(v))
                    .then(a.cmp(&b))
            });
            for k in [1usize, 3, 10, 59, 60] {
                let mut expect = full[..k].to_vec();
                expect.sort_unstable();
                assert_eq!(k_nearest(&sites, k, v), expect, "trial {trial} k {k}");
            }
        }
    }
}
