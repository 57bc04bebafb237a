//! One-hop adjacency snapshot in CSR form.
//!
//! A synchronous LAACAD round runs `N` multi-hop BFS searches against
//! the *same* position snapshot; each search visits every ring node and
//! asks for its one-hop neighbors. Answering those from the spatial grid
//! costs cell scans, distance checks and a sort per visit — building
//! the whole adjacency once per round (one grid query per node) and
//! reading slices afterwards is strictly cheaper and trivially
//! shareable across worker threads.
//!
//! Rows are exactly [`Network::one_hop_neighbors`] (ascending ids, node
//! itself excluded), so a BFS over the snapshot is bit-identical to one
//! over live grid queries.
//!
//! Rows live in one contiguous buffer, each followed by `ROW_SLACK`
//! spare slots (the way the flat grid keeps per-cell slack), so a move
//! can be patched in place: [`Adjacency::apply_moves`] re-queries each
//! mover's row, merge-diffs it against the stored one, and removes the
//! mover's id from — or inserts it in sorted position into — only the
//! rows of the non-movers that lost or gained it. That is O(degree) per
//! mover and exact because the one-hop predicate
//! `distance_sq ≤ γ² + 1e-12` is symmetric. A row that outgrows its
//! slack relocates to the buffer's tail; once relocations would grow
//! the buffer past twice its rebuilt length, the patch falls back to a
//! full [`Adjacency::rebuild`] instead and counts it
//! ([`Adjacency::overflow_rebuilds`]).

use crate::network::Network;
use crate::node::NodeId;
use laacad_geom::Point;

/// Spare slots kept after every row at (re)build and relocation time.
const ROW_SLACK: u32 = 4;

/// Where one row lives in the shared buffer.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
}

/// Compressed sparse rows of the one-hop communication graph.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    rows: Vec<Row>,
    /// Slots reserved per row (`len` plus spare).
    caps: Vec<u32>,
    slots: Vec<u32>,
    /// Whether the snapshot was ever built (an empty network's snapshot
    /// is built; a default one is not).
    built: bool,
    /// Buffer length past which a row relocation falls back to a
    /// rebuild: twice the length right after the last rebuild.
    limit: usize,
    /// Rebuilds forced by row-slack overflow during a patch.
    overflow_rebuilds: u64,
    /// Per-node query scratch reused across rebuilds and patches.
    row: Vec<usize>,
    /// A mover's stored row, copied out before it is diffed.
    old: Vec<u32>,
    /// The distinct movers of the batch being patched.
    movers: Vec<usize>,
    /// Epoch-stamped mover marks (no `O(N)` clear per update).
    stamp: Vec<u64>,
    epoch: u64,
}

impl Adjacency {
    /// Builds the adjacency of `net`'s current positions.
    pub fn build(net: &Network) -> Self {
        let mut adj = Adjacency::default();
        adj.rebuild(net);
        adj
    }

    /// Rebuilds in place, reusing the row storage (the round engine
    /// refreshes one instance every round).
    pub fn rebuild(&mut self, net: &Network) {
        self.rows.clear();
        self.caps.clear();
        self.slots.clear();
        let mut row = std::mem::take(&mut self.row);
        for i in 0..net.len() {
            net.one_hop_neighbors_into(NodeId(i), &mut row);
            self.push_row(row.iter().map(|&j| j as u32));
        }
        self.row = row;
        self.seal();
    }

    /// Appends a row followed by its slack.
    fn push_row(&mut self, ids: impl Iterator<Item = u32>) {
        let start = self.slots.len();
        self.slots.extend(ids);
        let len = (self.slots.len() - start) as u32;
        self.slots
            .resize(self.slots.len() + ROW_SLACK as usize, u32::MAX);
        self.rows.push(Row {
            start: start as u32,
            len,
        });
        self.caps.push(len + ROW_SLACK);
    }

    /// Marks a freshly laid-out snapshot built and re-arms the
    /// relocation budget.
    fn seal(&mut self) {
        self.built = true;
        self.limit = 2 * self.slots.len();
    }

    /// Patches the snapshot for a batch of moves `(index, old, new)` —
    /// the move-delta update path of partially-active rounds and of the
    /// asynchronous executor. `net` must hold the post-move positions
    /// and the same population the snapshot was built for; a node may
    /// appear more than once.
    ///
    /// Each distinct mover's row is re-queried at its new position and
    /// merge-diffed against its stored row; the mover's id is then
    /// removed from, or inserted into, only the rows of non-movers that
    /// lost or gained it. The result is bit-identical to a full
    /// [`Adjacency::rebuild`] at the same positions. Returns the number
    /// of rows re-queried (`N` when a row-slack overflow forced a
    /// rebuild).
    ///
    /// # Panics
    ///
    /// Panics (debug) when the snapshot's population differs from
    /// `net`'s — incremental updates cannot span insertions or removals.
    pub fn apply_moves(
        &mut self,
        net: &Network,
        moves: impl IntoIterator<Item = (usize, Point, Point)>,
    ) -> usize {
        let n = net.len();
        debug_assert_eq!(
            self.len(),
            n,
            "incremental adjacency update across a population change"
        );
        self.epoch += 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        let mut movers = std::mem::take(&mut self.movers);
        movers.clear();
        for (i, _, _) in moves {
            if self.stamp[i] != self.epoch {
                self.stamp[i] = self.epoch;
                movers.push(i);
            }
        }
        let mut row = std::mem::take(&mut self.row);
        let mut old = std::mem::take(&mut self.old);
        let mut patched = true;
        for &i in &movers {
            net.one_hop_neighbors_into(NodeId(i), &mut row);
            old.clear();
            old.extend_from_slice(self.neighbors(i));
            if !self.patch_row(i, &old, &row) {
                patched = false;
                break;
            }
        }
        let requeried = movers.len();
        self.movers = movers;
        self.row = row;
        self.old = old;
        if patched {
            requeried
        } else {
            self.overflow_rebuilds += 1;
            self.rebuild(net);
            n
        }
    }

    /// Replaces mover `i`'s row `old` by `new` and mirrors the
    /// difference into the rows of non-movers. Returns `false` when a
    /// row outgrew its slack and the relocation budget is spent.
    fn patch_row(&mut self, i: usize, old: &[u32], new: &[usize]) -> bool {
        let id = i as u32;
        let (mut a, mut b) = (0, 0);
        loop {
            let lost = match (old.get(a), new.get(b)) {
                (None, None) => break,
                (Some(&x), Some(&y)) if x as usize == y => {
                    a += 1;
                    b += 1;
                    continue;
                }
                (Some(&x), Some(&y)) => (x as usize) < y,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if lost {
                let x = old[a] as usize;
                if self.stamp[x] != self.epoch {
                    self.remove(x, id);
                }
                a += 1;
            } else {
                let y = new[b];
                if self.stamp[y] != self.epoch && !self.insert(y, id) {
                    return false;
                }
                b += 1;
            }
        }
        if new.len() as u32 > self.caps[i] && !self.relocate(i, new.len()) {
            return false;
        }
        let start = self.rows[i].start as usize;
        for (slot, &j) in self.slots[start..start + new.len()].iter_mut().zip(new) {
            *slot = j as u32;
        }
        self.rows[i].len = new.len() as u32;
        true
    }

    /// Removes `id` from row `j`.
    fn remove(&mut self, j: usize, id: u32) {
        let Row { start, len } = self.rows[j];
        let row = &mut self.slots[start as usize..(start + len) as usize];
        let pos = row.partition_point(|&x| x < id);
        debug_assert_eq!(row.get(pos), Some(&id), "asymmetric adjacency");
        row.copy_within(pos + 1.., pos);
        self.rows[j].len -= 1;
    }

    /// Inserts `id` into row `j` in sorted position. Returns `false`
    /// when the row is full and the relocation budget is spent.
    fn insert(&mut self, j: usize, id: u32) -> bool {
        let len = self.rows[j].len;
        if len == self.caps[j] && !self.relocate(j, len as usize + 1) {
            return false;
        }
        let start = self.rows[j].start as usize;
        let row = &mut self.slots[start..start + len as usize + 1];
        let pos = row[..len as usize].partition_point(|&x| x < id);
        debug_assert!(
            pos == len as usize || row[pos] != id,
            "asymmetric adjacency"
        );
        row.copy_within(pos..len as usize, pos + 1);
        row[pos] = id;
        self.rows[j].len += 1;
        true
    }

    /// Moves row `j` to the buffer's tail with room for `need` ids plus
    /// slack. Returns `false` when that would push the buffer past its
    /// relocation budget.
    fn relocate(&mut self, j: usize, need: usize) -> bool {
        let cap = need + ROW_SLACK as usize;
        let tail = self.slots.len();
        if tail + cap > self.limit {
            return false;
        }
        let Row { start, len } = self.rows[j];
        self.slots
            .extend_from_within(start as usize..(start + len) as usize);
        self.slots.resize(tail + cap, u32::MAX);
        self.rows[j].start = tail as u32;
        self.caps[j] = cap as u32;
        true
    }

    /// Full rebuilds [`Adjacency::apply_moves`] fell back to because a
    /// row outgrew its slack and the relocation budget was spent.
    pub fn overflow_rebuilds(&self) -> u64 {
        self.overflow_rebuilds
    }

    /// Number of nodes the snapshot covers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the snapshot covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-hop neighbors of node `i`, ascending, `i` excluded.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let Row { start, len } = self.rows[i];
        &self.slots[start as usize..(start + len) as usize]
    }

    /// The compact CSR arrays `(offsets, neighbors)` — the rows without
    /// their slack, so two snapshots of the same graph compare equal
    /// whatever their layout. Empty offsets means an empty (never-built)
    /// snapshot.
    pub fn csr(&self) -> (Vec<u32>, Vec<u32>) {
        if !self.built {
            return (Vec::new(), Vec::new());
        }
        let mut offsets = Vec::with_capacity(self.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for i in 0..self.len() {
            neighbors.extend_from_slice(self.neighbors(i));
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    #[test]
    fn rows_match_live_queries() {
        let net = Network::from_positions(
            0.25,
            (0..25).map(|i| Point::new((i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2)),
        );
        let adj = Adjacency::build(&net);
        assert_eq!(adj.len(), 25);
        for i in 0..net.len() {
            let live: Vec<u32> = net
                .one_hop_neighbors(NodeId(i))
                .into_iter()
                .map(|n| n.index() as u32)
                .collect();
            assert_eq!(adj.neighbors(i), live.as_slice(), "node {i}");
        }
    }

    #[test]
    fn rebuild_reflects_movement() {
        let mut net = Network::from_positions(0.15, [Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let mut adj = Adjacency::build(&net);
        assert!(adj.neighbors(0).is_empty());
        net.move_node(NodeId(1), Point::new(0.1, 0.0));
        adj.rebuild(&net);
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(1), &[0]);
    }

    #[test]
    fn empty_network() {
        let adj = Adjacency::build(&Network::new(0.1));
        assert!(adj.is_empty());
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        // A 7×7 grid; move a few nodes (short nudges and a long jump),
        // patch incrementally, and compare every row with a from-scratch
        // rebuild at the same positions.
        let mut net = Network::from_positions(
            0.22,
            (0..49).map(|i| Point::new((i % 7) as f64 * 0.15, (i / 7) as f64 * 0.15)),
        );
        let mut adj = Adjacency::build(&net);
        let moves = [
            (8usize, Point::new(0.31, 0.02)), // short nudge
            (24, Point::new(0.9, 0.9)),       // long jump across the grid
            (40, Point::new(0.001, 0.001)),   // into the corner
        ];
        let mut deltas = Vec::new();
        for &(i, target) in &moves {
            let from = net.position(NodeId(i));
            net.move_node(NodeId(i), target);
            deltas.push((i, from, target));
        }
        let requeried = adj.apply_moves(&net, deltas.iter().copied());
        assert_eq!(requeried, moves.len(), "only the movers re-query");
        let fresh = Adjacency::build(&net);
        for i in 0..net.len() {
            assert_eq!(adj.neighbors(i), fresh.neighbors(i), "row {i}");
        }
        // A second batch over the patched snapshot stays exact.
        let from = net.position(NodeId(24));
        net.move_node(NodeId(24), Point::new(0.45, 0.47));
        adj.apply_moves(&net, [(24, from, Point::new(0.45, 0.47))]);
        let fresh = Adjacency::build(&net);
        for i in 0..net.len() {
            assert_eq!(
                adj.neighbors(i),
                fresh.neighbors(i),
                "row {i} after second batch"
            );
        }
    }
}
