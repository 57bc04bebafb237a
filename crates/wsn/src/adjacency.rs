//! One-hop adjacency snapshot as 64-node block rows.
//!
//! A synchronous LAACAD round runs `N` multi-hop BFS searches against
//! the *same* position snapshot; each search visits every ring node and
//! asks for its one-hop neighbors. Answering those from the spatial grid
//! costs cell scans, distance checks and a sort per visit — building
//! the whole adjacency once per round (one grid query per node) and
//! reading rows afterwards is strictly cheaper and trivially shareable
//! across worker threads.
//!
//! A row holds node `i`'s neighbours as `(block, mask)` entries: bit `b`
//! of the mask of block `B` stands for node `64·B + b`. Entries are in
//! ascending block order and no mask is zero, so expanding the set bits
//! in order yields exactly [`Network::one_hop_neighbors`] (ascending
//! ids, node itself excluded), and a BFS over the snapshot is
//! bit-identical to one over live grid queries. The block form is what
//! lets [`crate::multihop::RingQuery`] stamp a whole block of
//! neighbours with one AND-NOT against its visited bits. A row is built
//! by OR-ing each neighbour's bit into its block's entry in the order
//! the spatial index reports them, so no id list is sorted. At `N ≤ 64`
//! every row is one entry; with random ids at large `N`, a row holds
//! about one entry per neighbour.
//!
//! Rows live in one contiguous pair of arrays (blocks and masks), each
//! row followed by up to `ROW_SLACK` spare entries (the way the flat
//! grid keeps per-cell slack) — never more than the `⌈N/64⌉` blocks a
//! row can name, so at `N ≤ 64` a row reserves its one entry and never
//! relocates — and a move can be patched in place:
//! [`Adjacency::apply_moves`] re-queries each mover's row, diffs it
//! against the stored one block by block, and clears or sets the
//! mover's bit in only the rows of the non-movers that lost or gained
//! it — removing an entry whose mask empties, inserting one for a block
//! the row did not have. That is O(degree) per mover and exact because
//! the one-hop predicate `distance_sq ≤ γ² + 1e-12` is symmetric. A row
//! that outgrows its slack relocates to the arrays' tail; once
//! relocations would grow them past twice their rebuilt length, the
//! patch falls back to a full [`Adjacency::rebuild`] instead and counts
//! it ([`Adjacency::overflow_rebuilds`]).

use crate::network::Network;
use crate::node::NodeId;
use laacad_geom::Point;

/// Spare entries kept after every row at (re)build and relocation time,
/// up to the row's largest possible length.
const ROW_SLACK: usize = 4;

/// Entries reserved for a row of `len` entries among `n` nodes: `len`
/// plus slack, capped at the `⌈n/64⌉` blocks a row can hold at most.
fn row_cap(len: usize, n: usize) -> usize {
    (len + ROW_SLACK).min(n.div_ceil(64))
}

/// Where one row lives in the shared arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
}

/// The block holding node `j` and `j`'s bit in that block's mask.
#[inline]
pub(crate) fn block_bit(j: usize) -> (u32, u64) {
    ((j / 64) as u32, 1u64 << (j % 64))
}

/// Appends node `i`'s one-hop row to `blocks` and `masks`: each
/// neighbor ORs its bit into its block's entry, or opens one in
/// ascending block position. The neighbors arrive in the spatial
/// index's cell order and are never sorted.
pub(crate) fn append_row(net: &Network, i: usize, blocks: &mut Vec<u32>, masks: &mut Vec<u64>) {
    let start = blocks.len();
    net.for_each_one_hop(NodeId(i), |j| {
        let (block, bit) = block_bit(j);
        let at = start + blocks[start..].partition_point(|&b| b < block);
        if blocks.get(at) == Some(&block) {
            masks[at] |= bit;
        } else {
            blocks.insert(at, block);
            masks.insert(at, bit);
        }
    });
}

/// Block rows of the one-hop communication graph.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    rows: Vec<Row>,
    /// Entries reserved per row (`len` plus spare).
    caps: Vec<u32>,
    /// Block index of every entry.
    blocks: Vec<u32>,
    /// Neighbour bits of every entry.
    masks: Vec<u64>,
    /// Whether the snapshot was ever built (an empty network's snapshot
    /// is built; a default one is not).
    built: bool,
    /// Array length past which a row relocation falls back to a
    /// rebuild: twice the length right after the last rebuild.
    limit: usize,
    /// Rebuilds forced by row-slack overflow during a patch.
    overflow_rebuilds: u64,
    /// A mover's queried row (blocks, masks).
    new: (Vec<u32>, Vec<u64>),
    /// A mover's stored row, copied out before it is diffed.
    old: (Vec<u32>, Vec<u64>),
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
        self.blocks.clear();
        self.masks.clear();
        let n = net.len();
        for i in 0..n {
            let start = self.blocks.len();
            append_row(net, i, &mut self.blocks, &mut self.masks);
            let len = self.blocks.len() - start;
            let cap = row_cap(len, n);
            self.pad(start + cap);
            self.rows.push(Row {
                start: start as u32,
                len: len as u32,
            });
            self.caps.push(cap as u32);
        }
        self.built = true;
        self.limit = 2 * self.blocks.len();
    }

    /// Fills the arrays with spare entries up to length `to`.
    fn pad(&mut self, to: usize) {
        self.blocks.resize(to, u32::MAX);
        self.masks.resize(to, 0);
    }

    /// Patches the snapshot for a batch of moves `(index, old, new)` —
    /// the move-delta update path of partially-active rounds and of the
    /// asynchronous executor. `net` must hold the post-move positions
    /// and the same population the snapshot was built for; a node may
    /// appear more than once.
    ///
    /// Each distinct mover's row is re-queried at its new position and
    /// diffed against its stored row block by block; the mover's bit is
    /// then cleared in, or set in, only the rows of non-movers that lost
    /// or gained it. The result is bit-identical to a full
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
        let (mut new, mut old) = (std::mem::take(&mut self.new), std::mem::take(&mut self.old));
        let mut patched = true;
        for &i in &movers {
            new.0.clear();
            new.1.clear();
            append_row(net, i, &mut new.0, &mut new.1);
            let (blocks, masks) = self.row(i);
            old.0.clear();
            old.0.extend_from_slice(blocks);
            old.1.clear();
            old.1.extend_from_slice(masks);
            if !self.patch_row(i, (&old.0, &old.1), (&new.0, &new.1)) {
                patched = false;
                break;
            }
        }
        let requeried = movers.len();
        self.movers = movers;
        (self.new, self.old) = (new, old);
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
    fn patch_row(&mut self, i: usize, old: (&[u32], &[u64]), new: (&[u32], &[u64])) -> bool {
        let (mut a, mut b) = (0, 0);
        while a < old.0.len() || b < new.0.len() {
            // The next block of either row, with its old and new masks
            // (zero in a row without it; no real block is `u32::MAX`).
            let x = old.0.get(a).copied().unwrap_or(u32::MAX);
            let y = new.0.get(b).copied().unwrap_or(u32::MAX);
            let block = x.min(y);
            let was = if x == block { old.1[a] } else { 0 };
            let now = if y == block { new.1[b] } else { 0 };
            a += usize::from(x == block);
            b += usize::from(y == block);
            let base = block as usize * 64;
            for (changed, gained) in [(was & !now, false), (now & !was, true)] {
                let mut bits = changed;
                while bits != 0 {
                    let j = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.stamp[j] == self.epoch {
                        continue; // a mover: its own row is re-queried
                    }
                    if !gained {
                        self.clear_bit(j, i);
                    } else if !self.set_bit(j, i) {
                        return false;
                    }
                }
            }
        }
        let len = new.0.len();
        if len as u32 > self.caps[i] && !self.relocate(i, len) {
            return false;
        }
        let start = self.rows[i].start as usize;
        self.blocks[start..start + len].copy_from_slice(new.0);
        self.masks[start..start + len].copy_from_slice(new.1);
        self.rows[i].len = len as u32;
        true
    }

    /// The entry range of row `j` and the position of `block` in it: its
    /// entry, or where one would be inserted.
    fn find(&self, j: usize, block: u32) -> (usize, usize, usize) {
        let Row { start, len } = self.rows[j];
        let (start, end) = (start as usize, (start + len) as usize);
        let pos = start + self.blocks[start..end].partition_point(|&x| x < block);
        (start, end, pos)
    }

    /// Clears node `i`'s bit in row `j`, dropping the entry if it
    /// empties.
    fn clear_bit(&mut self, j: usize, i: usize) {
        let (block, bit) = block_bit(i);
        let (_, end, pos) = self.find(j, block);
        debug_assert!(
            pos < end && self.blocks[pos] == block && self.masks[pos] & bit != 0,
            "asymmetric adjacency"
        );
        self.masks[pos] &= !bit;
        if self.masks[pos] == 0 {
            self.blocks.copy_within(pos + 1..end, pos);
            self.masks.copy_within(pos + 1..end, pos);
            self.rows[j].len -= 1;
        }
    }

    /// Sets node `i`'s bit in row `j`, inserting an entry for its block
    /// if the row has none. Returns `false` when that entry does not fit
    /// and the relocation budget is spent.
    fn set_bit(&mut self, j: usize, i: usize) -> bool {
        let (block, bit) = block_bit(i);
        let (_, end, pos) = self.find(j, block);
        if pos < end && self.blocks[pos] == block {
            debug_assert!(self.masks[pos] & bit == 0, "asymmetric adjacency");
            self.masks[pos] |= bit;
            return true;
        }
        let len = self.rows[j].len;
        if len == self.caps[j] && !self.relocate(j, len as usize + 1) {
            return false;
        }
        // The row may have moved; its entries kept their order.
        let (_, end, pos) = self.find(j, block);
        self.blocks.copy_within(pos..end, pos + 1);
        self.masks.copy_within(pos..end, pos + 1);
        self.blocks[pos] = block;
        self.masks[pos] = bit;
        self.rows[j].len += 1;
        true
    }

    /// Moves row `j` to the arrays' tail with room for `need` entries
    /// plus slack. Returns `false` when that would push the arrays past
    /// their relocation budget.
    fn relocate(&mut self, j: usize, need: usize) -> bool {
        let cap = row_cap(need, self.len());
        let tail = self.blocks.len();
        if tail + cap > self.limit {
            return false;
        }
        let Row { start, len } = self.rows[j];
        let range = start as usize..(start + len) as usize;
        self.blocks.extend_from_within(range.clone());
        self.masks.extend_from_within(range);
        self.pad(tail + cap);
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

    /// Node `i`'s row: its block indices (ascending) and the neighbour
    /// bits of each block (never zero).
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[u64]) {
        let Row { start, len } = self.rows[i];
        let range = start as usize..(start + len) as usize;
        (&self.blocks[range.clone()], &self.masks[range])
    }

    /// One-hop neighbors of node `i`, ascending, `i` excluded.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (blocks, masks) = self.row(i);
        blocks.iter().zip(masks).flat_map(|(&block, &mask)| {
            let base = block as usize * 64;
            std::iter::successors(Some(mask), |&m| Some(m & m.wrapping_sub(1)))
                .take_while(|&m| m != 0)
                .map(move |m| base + m.trailing_zeros() as usize)
        })
    }

    /// The compact arrays `(offsets, entries)` — the `(block, mask)`
    /// rows without their slack, so two snapshots of the same graph
    /// compare equal whatever their layout. Empty offsets means an empty
    /// (never-built) snapshot.
    pub fn csr(&self) -> (Vec<u32>, Vec<(u32, u64)>) {
        if !self.built {
            return (Vec::new(), Vec::new());
        }
        let mut offsets = Vec::with_capacity(self.len() + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for i in 0..self.len() {
            let (blocks, masks) = self.row(i);
            entries.extend(blocks.iter().copied().zip(masks.iter().copied()));
            offsets.push(entries.len() as u32);
        }
        (offsets, entries)
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
            let live: Vec<usize> = net
                .one_hop_neighbors(NodeId(i))
                .into_iter()
                .map(|n| n.index())
                .collect();
            assert_eq!(adj.neighbors(i).collect::<Vec<_>>(), live, "node {i}");
        }
    }

    #[test]
    fn rebuild_reflects_movement() {
        let mut net = Network::from_positions(0.15, [Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let mut adj = Adjacency::build(&net);
        assert_eq!(adj.neighbors(0).count(), 0);
        net.move_node(NodeId(1), Point::new(0.1, 0.0));
        adj.rebuild(&net);
        assert_eq!(adj.neighbors(0).collect::<Vec<_>>(), [1]);
        assert_eq!(adj.neighbors(1).collect::<Vec<_>>(), [0]);
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
            assert_eq!(adj.row(i), fresh.row(i), "row {i}");
        }
        // A second batch over the patched snapshot stays exact.
        let from = net.position(NodeId(24));
        net.move_node(NodeId(24), Point::new(0.45, 0.47));
        adj.apply_moves(&net, [(24, from, Point::new(0.45, 0.47))]);
        let fresh = Adjacency::build(&net);
        for i in 0..net.len() {
            assert_eq!(adj.row(i), fresh.row(i), "row {i} after second batch");
        }
    }

    #[test]
    fn rows_at_two_blocks_or_fewer_never_relocate() {
        // At N ≤ 128 every row reserves room for every block it could
        // name, so a long random patch sequence (nudges, jumps, moves
        // onto another node, moves out of reach, batches of one to
        // three) never grows the arrays and never falls back to a
        // rebuild, and every row still equals a fresh build.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [64usize, 100] {
            let mut net = Network::from_positions(0.2, (0..n).map(|_| Point::new(next(), next())));
            let mut adj = Adjacency::build(&net);
            let reserved = adj.blocks.len();
            if n == 64 {
                assert_eq!(reserved, n, "one entry per row");
            }
            for _ in 0..2_000 {
                let mut batch = Vec::new();
                for _ in 0..1 + (next() * 3.0) as usize {
                    let i = (next() * n as f64) as usize;
                    let here = net.position(NodeId(i));
                    let to = match (next() * 4.0) as usize {
                        0 => Point::new(here.x + 0.05 * next(), here.y - 0.05 * next()),
                        1 => net.position(NodeId((next() * n as f64) as usize)),
                        2 => Point::new(3.0 + next(), 3.0 + next()),
                        _ => Point::new(next(), next()),
                    };
                    net.move_node(NodeId(i), to);
                    batch.push((i, here, to));
                }
                adj.apply_moves(&net, batch);
                assert_eq!(adj.blocks.len(), reserved, "N = {n}: a row relocated");
                let fresh = Adjacency::build(&net);
                for i in 0..n {
                    assert_eq!(adj.row(i), fresh.row(i), "N = {n}, row {i}");
                }
            }
            assert_eq!(adj.overflow_rebuilds(), 0, "N = {n}");
        }
    }

    #[test]
    fn patches_open_and_empty_blocks() {
        // 130 nodes on a 0.1 lattice with γ = 0.05: no edges at first.
        // Node 5 sits at (0.5, 0); nodes 100 (block 1), 129 (block 2)
        // and 1 (block 0) move next to it one by one, then 100 leaves.
        let mut net = Network::from_positions(
            0.05,
            (0..130).map(|i| Point::new((i % 12) as f64 * 0.1, (i / 12) as f64 * 0.1)),
        );
        let mut adj = Adjacency::build(&net);
        assert_eq!(adj.row(5), (&[][..], &[][..]));
        let steps = [
            (100, Point::new(0.52, 0.0), vec![(1u32, 1u64 << 36)]),
            (129, Point::new(0.5, 0.02), vec![(1, 1 << 36), (2, 1 << 1)]),
            (
                1,
                Point::new(0.48, 0.0),
                vec![(0, 1 << 1), (1, 1 << 36), (2, 1 << 1)],
            ),
            (100, Point::new(0.95, 0.95), vec![(0, 1 << 1), (2, 1 << 1)]),
        ];
        for (i, to, expect) in steps {
            let from = net.position(NodeId(i));
            net.move_node(NodeId(i), to);
            adj.apply_moves(&net, [(i, from, to)]);
            let (blocks, masks) = adj.row(5);
            let got: Vec<(u32, u64)> = blocks.iter().copied().zip(masks.iter().copied()).collect();
            assert_eq!(got, expect, "after moving {i}");
            assert_eq!(adj.csr(), Adjacency::build(&net).csr(), "after moving {i}");
        }
        assert_eq!(adj.neighbors(5).collect::<Vec<_>>(), [1, 129]);
    }
}
