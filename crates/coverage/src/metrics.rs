//! Deployment-quality metrics.

use laacad_wsn::Network;

/// Sensing-range statistics across a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusStats {
    /// Smallest sensing range.
    pub min: f64,
    /// Largest sensing range — the k-CSDP objective `R`.
    pub max: f64,
    /// Mean sensing range.
    pub mean: f64,
    /// Standard deviation of sensing ranges.
    pub std_dev: f64,
}

impl std::fmt::Display for RadiusStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "r ∈ [{:.4}, {:.4}], mean {:.4} ± {:.4}",
            self.min, self.max, self.mean, self.std_dev
        )
    }
}

/// Computes sensing-range statistics (zeroes for an empty network).
pub fn radius_stats(net: &Network) -> RadiusStats {
    let n = net.len();
    if n == 0 {
        return RadiusStats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            std_dev: 0.0,
        };
    }
    let radii = net.sensing_radii();
    let min = radii.iter().copied().fold(f64::INFINITY, f64::min);
    let max = radii.iter().copied().fold(0.0, f64::max);
    let mean = radii.iter().sum::<f64>() / n as f64;
    let var = radii.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n as f64;
    RadiusStats {
        min,
        max,
        mean,
        std_dev: var.sqrt(),
    }
}

/// Sizes of co-location clusters: nodes within `merge_radius` of each
/// other (transitively) count as one cluster.
///
/// Fig. 5's "even clustering" observation predicts that after LAACAD
/// converges with coverage degree `k`, the histogram concentrates on
/// cluster size `k`.
fn cluster_sizes(net: &Network, merge_radius: f64) -> Vec<usize> {
    let n = net.len();
    let positions = net.positions();
    // Union–find over proximity.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..n {
        for j in i + 1..n {
            if positions[i].distance(positions[j]) <= merge_radius {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut counts = std::collections::HashMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        *counts.entry(root).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = counts.into_values().collect();
    sizes.sort_unstable();
    sizes
}

/// Histogram of cluster sizes: `histogram[s]` = number of clusters of
/// size `s` (index 0 unused).
pub fn cluster_histogram(net: &Network, merge_radius: f64) -> Vec<usize> {
    let sizes = cluster_sizes(net, merge_radius);
    let max = sizes.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for s in sizes {
        hist[s] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;
    use laacad_wsn::NodeId;

    #[test]
    fn stats_of_known_radii() {
        let mut net = Network::from_positions(
            1.0,
            [
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
        );
        for (i, r) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            net.set_sensing_radius(NodeId(i), r);
        }
        let s = radius_stats(&net);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn clusters_of_k_colocated_groups() {
        // Two tight pairs and one singleton.
        let net = Network::from_positions(
            1.0,
            [
                Point::new(0.0, 0.0),
                Point::new(0.001, 0.0),
                Point::new(1.0, 1.0),
                Point::new(1.0, 1.001),
                Point::new(5.0, 5.0),
            ],
        );
        let sizes = cluster_sizes(&net, 0.01);
        assert_eq!(sizes, vec![1, 2, 2]);
        let hist = cluster_histogram(&net, 0.01);
        assert_eq!(hist[1], 1);
        assert_eq!(hist[2], 2);
    }

    #[test]
    fn transitive_clusters_merge() {
        // A chain of nodes each within merge radius of the next.
        let net = Network::from_positions(1.0, (0..4).map(|i| Point::new(i as f64 * 0.009, 0.0)));
        assert_eq!(cluster_sizes(&net, 0.01), vec![4]);
    }

    #[test]
    fn empty_network_edge_cases() {
        let net = Network::new(1.0);
        let s = radius_stats(&net);
        assert_eq!(s.max, 0.0);
        assert!(cluster_sizes(&net, 0.1).is_empty());
        assert_eq!(cluster_histogram(&net, 0.1), vec![0]);
    }
}
