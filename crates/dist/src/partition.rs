//! Link-level partition schedules: timed bipartitions and arbitrary
//! link masks with healing events.
//!
//! A [`PartitionSchedule`] opens at tick [`PartitionSchedule::at`] and
//! (optionally) heals at [`PartitionSchedule::heal_at`]. While open, the
//! channel silently drops every message whose endpoints the partition
//! separates — the retry layer keeps hammering, nodes on each side
//! converge against their own island, and after the heal the deployment
//! re-equilibrates toward the fault-free fixed point.
//!
//! Bipartitions are *geometric*: the side assignment is frozen from the
//! node positions at activation time (deterministic — activation is an
//! ordinary event in the serial event order), so nodes that later move
//! across the cut line stay on their original side until the heal, the
//! way a severed backhaul would behave.

use laacad_geom::Point;

/// Axis selector for a geometric bipartition cut line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Vertical cut: sides are `x < at` vs `x ≥ at`.
    X,
    /// Horizontal cut: sides are `y < at` vs `y ≥ at`.
    Y,
}

/// What a partition severs.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionKind {
    /// Geometric bipartition along an axis-aligned line. Sides are
    /// frozen from the positions at activation.
    Bipartition {
        /// Cut axis.
        axis: Axis,
        /// Cut coordinate on that axis.
        at: f64,
    },
    /// An explicit undirected link mask: exactly the listed node pairs
    /// are severed.
    Links {
        /// Severed `(a, b)` node-index pairs (order within a pair does
        /// not matter).
        pairs: Vec<(usize, usize)>,
    },
}

/// One timed partition: opens at `at`, heals at `heal_at` (`None` =
/// never heals).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSchedule {
    /// What the partition severs.
    pub kind: PartitionKind,
    /// Tick at which the partition opens.
    pub at: u64,
    /// Tick at which it heals (`None` = permanent).
    pub heal_at: Option<u64>,
}

impl PartitionSchedule {
    /// Largest node index named by a link mask (`None` for geometric
    /// bipartitions, which name no nodes).
    pub fn max_node(&self) -> Option<usize> {
        match &self.kind {
            PartitionKind::Bipartition { .. } => None,
            PartitionKind::Links { pairs } => pairs.iter().map(|&(a, b)| a.max(b)).max(),
        }
    }
}

/// A partition compiled at activation time into an O(1)-per-message
/// blocking predicate.
#[derive(Debug, Clone)]
pub(crate) enum ActivePartition {
    /// `side[i]` of every node, frozen at activation.
    Bipartition { side: Vec<bool> },
    /// Sorted, normalized (`a < b`) severed pairs.
    Links { pairs: Vec<(usize, usize)> },
}

impl ActivePartition {
    /// Compiles a schedule against the positions at activation time.
    pub(crate) fn compile(kind: &PartitionKind, positions: &[Point]) -> Self {
        match kind {
            PartitionKind::Bipartition { axis, at } => {
                let side = positions
                    .iter()
                    .map(|p| match axis {
                        Axis::X => p.x >= *at,
                        Axis::Y => p.y >= *at,
                    })
                    .collect();
                ActivePartition::Bipartition { side }
            }
            PartitionKind::Links { pairs } => {
                let mut pairs: Vec<(usize, usize)> =
                    pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
                pairs.sort_unstable();
                pairs.dedup();
                ActivePartition::Links { pairs }
            }
        }
    }

    /// Whether this partition severs the `from → to` link.
    pub(crate) fn blocks(&self, from: usize, to: usize) -> bool {
        match self {
            ActivePartition::Bipartition { side } => side[from] != side[to],
            ActivePartition::Links { pairs } => {
                let key = (from.min(to), from.max(to));
                pairs.binary_search(&key).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartition_sides_freeze_at_activation() {
        let positions = vec![
            Point { x: 0.2, y: 0.5 },
            Point { x: 0.8, y: 0.5 },
            Point { x: 0.5, y: 0.1 },
        ];
        let kind = PartitionKind::Bipartition {
            axis: Axis::X,
            at: 0.5,
        };
        let p = ActivePartition::compile(&kind, &positions);
        assert!(p.blocks(0, 1));
        assert!(p.blocks(1, 0));
        assert!(!p.blocks(0, 0));
        // Node 2 sits exactly on the line: the ≥ side.
        assert!(p.blocks(0, 2));
        assert!(!p.blocks(1, 2));
    }

    #[test]
    fn link_masks_are_undirected_and_deduped() {
        let kind = PartitionKind::Links {
            pairs: vec![(3, 1), (1, 3), (0, 2)],
        };
        let p = ActivePartition::compile(&kind, &[]);
        assert!(p.blocks(1, 3));
        assert!(p.blocks(3, 1));
        assert!(p.blocks(2, 0));
        assert!(!p.blocks(0, 1));
    }

    #[test]
    fn max_node_reports_link_masks_only() {
        let links = PartitionSchedule {
            kind: PartitionKind::Links {
                pairs: vec![(0, 7), (2, 3)],
            },
            at: 0,
            heal_at: None,
        };
        assert_eq!(links.max_node(), Some(7));
        let bi = PartitionSchedule {
            kind: PartitionKind::Bipartition {
                axis: Axis::Y,
                at: 0.5,
            },
            at: 0,
            heal_at: Some(10),
        };
        assert_eq!(bi.max_node(), None);
    }
}
