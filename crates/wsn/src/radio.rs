//! The unit-disk communication graph.
//!
//! Two nodes can exchange messages iff they are within the transmission
//! range `γ` of each other. Multi-hop communication follows graph paths;
//! [`is_connected`] checks that they join the whole network (boundary
//! nodes of Algorithm 2 stop expanding their rings once the ring
//! saturates their connected component).

use crate::network::Network;
use crate::node::NodeId;
use std::collections::VecDeque;

/// Message-cost bookkeeping for the localized algorithm.
///
/// The paper argues communication cost is negligible post-deployment; we
/// still count messages so experiments can report the cost of autonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Point-to-point transmissions.
    pub unicast: u64,
    /// Local broadcasts (one per node per ring expansion).
    pub broadcast: u64,
}

impl MessageStats {
    /// Adds another counter into this one.
    pub fn absorb(&mut self, other: MessageStats) {
        self.unicast += other.unicast;
        self.broadcast += other.broadcast;
    }

    /// Total message count.
    pub fn total(&self) -> u64 {
        self.unicast + self.broadcast
    }
}

impl std::fmt::Display for MessageStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} unicast + {} broadcast", self.unicast, self.broadcast)
    }
}

/// Connected components of the communication graph, as a component id per
/// node.
fn connected_components(net: &Network) -> Vec<usize> {
    let n = net.len();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = next;
        let mut queue = VecDeque::from([NodeId(s)]);
        while let Some(u) = queue.pop_front() {
            for v in net.one_hop_neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Returns `true` when the whole network is one component.
///
/// The paper's connectivity discussion (Sec. IV-C) argues k-coverage with
/// `γ ≥ r_i` implies degree ≥ 6 and hence connectivity; experiments verify
/// this claim with this function.
pub fn is_connected(net: &Network) -> bool {
    if net.len() <= 1 {
        return true;
    }
    connected_components(net).iter().all(|&c| c == 0)
}

/// Degree statistics of the communication graph: (min, mean, max).
pub fn degree_stats(net: &Network) -> (usize, f64, usize) {
    let n = net.len();
    if n == 0 {
        return (0, 0.0, 0);
    }
    let degrees: Vec<usize> = (0..n)
        .map(|i| net.one_hop_neighbors(NodeId(i)).len())
        .collect();
    let min = *degrees.iter().min().expect("non-empty");
    let max = *degrees.iter().max().expect("non-empty");
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    (min, mean, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    fn chain(n: usize, spacing: f64, gamma: f64) -> Network {
        Network::from_positions(gamma, (0..n).map(|i| Point::new(i as f64 * spacing, 0.0)))
    }

    #[test]
    fn components_and_connectivity() {
        let net = Network::from_positions(
            0.15,
            [
                Point::new(0.0, 0.0),
                Point::new(0.1, 0.0),
                Point::new(2.0, 2.0),
                Point::new(2.1, 2.0),
            ],
        );
        let comp = connected_components(&net);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert!(!is_connected(&net));
        let whole = chain(4, 0.1, 0.15);
        assert!(is_connected(&whole));
    }

    #[test]
    fn degree_statistics() {
        let net = chain(3, 0.1, 0.12);
        let (min, mean, max) = degree_stats(&net);
        assert_eq!(min, 1); // endpoints
        assert_eq!(max, 2); // middle
        assert!((mean - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn message_stats_accumulate() {
        let mut a = MessageStats::default();
        a.absorb(MessageStats {
            unicast: 3,
            broadcast: 2,
        });
        a.absorb(MessageStats {
            unicast: 1,
            broadcast: 0,
        });
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn empty_and_singleton_networks_are_connected() {
        let empty = Network::new(0.1);
        assert!(is_connected(&empty));
        let single = Network::from_positions(0.1, [Point::new(0.0, 0.0)]);
        assert!(is_connected(&single));
    }
}
