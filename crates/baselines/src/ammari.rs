//! Ammari & Das \[15\] — Reuleaux-triangle lens k-coverage (Table II
//! baseline).
//!
//! ICDCN 2010 decomposes the area into adjacent Reuleaux triangles of
//! width `r` and drops `k` sensors into each *lens* (the intersection of
//! two adjacent triangles); any point of a Reuleaux triangle of width `r`
//! is within `r` of any other point (constant width), so each lens's `k`
//! sensors k-cover both incident triangles. The node count is
//! `N*_k = 6k|A| / ((4π − 3√3) r²)`.

/// Node count of the Ammari–Das deployment:
/// `N*_k = 6·k·area / ((4π − 3√3)·r²)`, for `k ≥ 3` per the original
/// derivation (the formula is defined for any `k ≥ 1`; Table II uses
/// k = 3..8).
///
/// # Panics
///
/// Panics for non-positive inputs.
pub fn ammari_min_nodes(area: f64, r: f64, k: usize) -> f64 {
    assert!(area > 0.0 && r > 0.0 && k >= 1, "invalid inputs");
    6.0 * k as f64 * area / ((4.0 * std::f64::consts::PI - 3.0 * 3.0f64.sqrt()) * r * r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_numbers_reproduce() {
        // Table II: |A| = 10⁴ m², R*_k from the paper's 180-node runs →
        // N*_k. Spot-check every published column.
        let rows = [
            (3usize, 8.77f64, 318.0f64),
            (4, 10.21, 313.0),
            (5, 11.24, 323.0),
            (6, 12.36, 320.0),
            (7, 13.39, 318.0),
            (8, 14.32, 318.0),
        ];
        for (k, r_star, n_star) in rows {
            let n = ammari_min_nodes(1.0e4, r_star, k);
            let err = (n - n_star).abs() / n_star;
            assert!(err < 0.01, "k={k}: {n} vs paper {n_star}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_inputs_panic() {
        let _ = ammari_min_nodes(1.0, 1.0, 0);
    }
}
