//! Multi-hop ring neighborhoods `N(n_i, ρ)` (Algorithm 2).
//!
//! The paper gathers the nodes within Euclidean radius `ρ` of `n_i` via
//! multi-hop communication; since hop counts are integral, `ρ` grows in
//! transmission-range (`γ`) increments. A node inside the Euclidean ring
//! but unreachable in `⌈ρ/γ⌉` hops cannot report its position, so the
//! neighborhood is the *intersection* of the Euclidean disk with the
//! h-hop BFS ball — which this module computes, with message accounting.
//!
//! Two forms are provided:
//!
//! * [`ring_neighborhood`] — a one-shot query that runs a fresh BFS (the
//!   reference semantics);
//! * [`RingQuery`] over a reusable [`RingScratch`] — an **incremental**
//!   query for the expanding-ring search: each `ρ += γ` expansion resumes
//!   the BFS frontier where the previous one stopped instead of
//!   restarting from the center, while reporting byte-identical members
//!   and [`MessageStats`] to a fresh query at the same `(ρ, hops)`.
//!
//! The incremental query works on 64-node blocks: it keeps one visited
//! bit per node and expands a frontier node with one AND-NOT per
//! `(block, mask)` entry of its [`Adjacency`] row (or of its live
//! query's ids, grouped the same way), counting each hop level by
//! popcount. The new bits are stamped in ascending id order, the order a
//! per-id scan of the ascending row would stamp them in, so members,
//! message totals and every reported distance are the fresh query's.

use crate::adjacency::{append_row, block_bit, Adjacency};
use crate::network::Network;
use crate::node::NodeId;
use crate::radio::MessageStats;
use laacad_geom::Point;
use std::collections::VecDeque;

/// The result of a ring query: members (center excluded), the hop budget
/// used, and messages spent collecting it.
#[derive(Debug, Clone)]
pub struct RingNeighborhood {
    /// Nodes within Euclidean `ρ` and `⌈ρ/γ⌉` hops, excluding the center.
    pub members: Vec<NodeId>,
    /// Hop budget `⌈ρ/γ⌉` used by the query.
    pub hops: usize,
    /// Messages expended (one broadcast per contacted node, one unicast
    /// reply per member relayed back over its hop distance).
    pub messages: MessageStats,
}

/// Collects `N(n_i, ρ)`: nodes within Euclidean distance `rho` of the
/// center **and** reachable within `⌈ρ/γ⌉` hops.
///
/// # Example
///
/// ```
/// use laacad_geom::Point;
/// use laacad_wsn::{multihop::ring_neighborhood, Network, NodeId};
/// let net = Network::from_positions(
///     0.12,
///     (0..5).map(|i| Point::new(i as f64 * 0.1, 0.0)),
/// );
/// let ring = ring_neighborhood(&net, NodeId(0), 0.25);
/// // Nodes at 0.1 and 0.2 are inside the ring and within 3 hops.
/// assert_eq!(ring.members, vec![NodeId(1), NodeId(2)]);
/// ```
pub fn ring_neighborhood(net: &Network, center: NodeId, rho: f64) -> RingNeighborhood {
    ring_neighborhood_with_slack(net, center, rho, DEFAULT_HOP_SLACK)
}

/// The hop-slack budget of [`ring_neighborhood`] and of the ring search.
///
/// The paper's `N(n_i, ρ)` is defined purely by Euclidean distance; a
/// multi-hop query needs `⌈ρ/γ⌉` hops along a straight path, but sparse
/// graphs route around gaps, so real queries grant extra hops. Two hops
/// of slack make the collected set match the Euclidean definition in all
/// but pathologically stretched topologies — Lemma 1's exactness depends
/// on this set being complete.
pub const DEFAULT_HOP_SLACK: usize = 2;

/// Converts a Euclidean ring radius into the hop budget of the query —
/// `⌈ρ/γ⌉ + slack` (at least `1 + slack`).
pub fn hop_budget(rho: f64, gamma: f64, hop_slack: usize) -> usize {
    (rho / gamma).ceil().max(1.0) as usize + hop_slack
}

/// [`ring_neighborhood`] with an explicit hop-slack budget.
fn ring_neighborhood_with_slack(
    net: &Network,
    center: NodeId,
    rho: f64,
    hop_slack: usize,
) -> RingNeighborhood {
    let gamma = net.gamma();
    let hops = hop_budget(rho, gamma, hop_slack);
    let origin = net.position(center);
    let n = net.len();
    let mut dist = vec![usize::MAX; n];
    dist[center.index()] = 0;
    let mut queue = VecDeque::from([center]);
    let mut contacted = 0u64;
    let mut members = Vec::new();
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        if du >= hops {
            continue;
        }
        contacted += 1; // u broadcasts the query onward
        for v in net.one_hop_neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    let mut replies = 0u64;
    // Squared-distance ring filter; `RingQuery::collect` applies the
    // byte-identical expression so incremental and fresh queries agree.
    let limit = rho + 1e-12;
    let limit_sq = limit * limit;
    for (i, &di) in dist.iter().enumerate() {
        if i != center.index()
            && di != usize::MAX
            && di <= hops
            && net.position(NodeId(i)).distance_sq(origin) <= limit_sq
        {
            members.push(NodeId(i));
            replies += di as u64; // reply relayed over its hop path
        }
    }
    RingNeighborhood {
        members,
        hops,
        messages: MessageStats {
            unicast: replies,
            broadcast: contacted,
        },
    }
}

/// A node stamped by the BFS but not (yet) a member: its id, hop count
/// and squared distance to the center (taken once, when it was
/// stamped).
#[derive(Debug, Clone, Copy)]
struct Pending {
    node: u32,
    hops: u32,
    d_sq: f64,
}

/// Reusable buffers for [`RingQuery`]: the BFS visited bits (one per
/// node, 64 to a word, cleared through the list of words a search
/// touched — no `O(N)` clear between searches), the frontier, a
/// live-query row and the member bookkeeping. Every frontier and
/// pending record carries its node's hop count, so no per-node array is
/// kept.
///
/// One scratch serves any number of consecutive searches over networks
/// of any size; the worker threads of the synchronous round engine each
/// own one.
#[derive(Debug, Clone, Default)]
pub struct RingScratch {
    /// Visited bits: bit `b` of word `w` is node `64·w + b`.
    seen: Vec<u64>,
    /// Words of `seen` set in the current search.
    touched: Vec<u32>,
    /// Nodes stamped in the current search, the center included.
    stamped: usize,
    /// Every stamped node with its hop count, in stamping order (which
    /// is hop order); `frontier[head..]` have not been expanded yet.
    frontier: Vec<(u32, u32)>,
    head: usize,
    /// A live query's row (blocks, masks).
    live: (Vec<u32>, Vec<u64>),
    /// Nodes stamped at each hop count.
    level_counts: Vec<u64>,
    members: Vec<usize>,
    /// Stamped non-members.
    pending: Vec<Pending>,
}

impl RingScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Members of the most recent search (ascending ids, center
    /// excluded). Valid until the next [`RingQuery::begin`] on this
    /// scratch — lets callers consume the member set without
    /// materializing an owned vector.
    pub fn last_members(&self) -> &[usize] {
        &self.members
    }

    /// Pre-sizes the visited bits for searches over `n` nodes, so the
    /// first search of a round does not grow them mid-flight (the round
    /// engine's arena pre-sizing calls this once per worker from `N`).
    pub fn reserve(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if self.seen.len() < words {
            self.seen.resize(words, 0);
        }
    }

    /// Starts a new search over `n` nodes: clears the words the last
    /// search touched and empties the bookkeeping.
    fn reset(&mut self, n: usize) {
        for &w in &self.touched {
            self.seen[w as usize] = 0;
        }
        self.touched.clear();
        self.reserve(n);
        self.stamped = 0;
        self.frontier.clear();
        self.head = 0;
        self.level_counts.clear();
        self.members.clear();
        self.pending.clear();
    }

    /// Marks the nodes of `fresh` in word `w` visited and counts them at
    /// hop `hops`.
    #[inline]
    fn mark(&mut self, w: u32, fresh: u64, hops: u32) {
        let word = &mut self.seen[w as usize];
        if *word == 0 {
            self.touched.push(w);
        }
        *word |= fresh;
        let count = fresh.count_ones() as usize;
        self.stamped += count;
        let level = hops as usize;
        if self.level_counts.len() <= level {
            self.level_counts.resize(level + 1, 0);
        }
        self.level_counts[level] += count as u64;
    }
}

/// One step of an incremental ring query (see [`RingQuery::collect`]).
#[derive(Debug, Clone, Copy)]
pub struct RingStep {
    /// Members gained by this expansion (the set is monotone, so zero new
    /// members means the neighborhood is unchanged).
    pub new_members: usize,
    /// Messages a fresh BFS query ([`ring_neighborhood`]'s) at the same
    /// `(ρ, hops)` would have spent — the paper's accounting, where
    /// every expansion re-floods the ring.
    pub messages: MessageStats,
}

/// An in-progress incremental ring search around one node.
///
/// Created by [`RingQuery::begin`]; each [`RingQuery::collect`] call
/// expands to a larger `(ρ, hops)` and returns the step accounting. The
/// member set, farthest-member distance and message totals it reports
/// are **identical** to running a fresh BFS per expansion — only the
/// work is incremental: the BFS frontier resumes where it stopped, and
/// the visited bits are cleared word by word instead of reallocated.
#[derive(Debug)]
pub struct RingQuery<'net, 'scr> {
    net: &'net Network,
    /// One-hop rows from a shared per-round snapshot, when the caller has
    /// one (synchronous rounds); `None` falls back to live grid queries.
    adjacency: Option<&'net Adjacency>,
    scratch: &'scr mut RingScratch,
    origin: Point,
    member_reply_sum: u64,
    farthest: f64,
    /// The largest squared distance among the members.
    farthest_sq: f64,
}

/// Whether a point at squared distance `d_sq` from the center is
/// provably no farther (by [`Point::distance`]) than one at `far_sq`.
///
/// Both squares come from the same coordinate differences as the
/// distances, each within a few ulps of the true square when it is at
/// least `1e-200` and finite (no underflow or overflow), and `hypot` is
/// within one ulp of the true length. A `1e-6` relative gap between the
/// squares therefore outweighs every rounding, so skipping the `hypot`
/// of such a member leaves the running maximum bit for bit unchanged.
fn surely_nearer(d_sq: f64, far_sq: f64) -> bool {
    far_sq.is_finite() && far_sq > 1e-200 && d_sq < 0.999_999 * far_sq
}

impl<'net, 'scr> RingQuery<'net, 'scr> {
    /// Starts a search around `center` using `scratch`'s buffers, with
    /// one-hop neighborhoods answered by live grid queries.
    pub fn begin(net: &'net Network, center: NodeId, scratch: &'scr mut RingScratch) -> Self {
        Self::begin_inner(net, None, center, scratch)
    }

    /// [`RingQuery::begin`] over a prebuilt [`Adjacency`] snapshot (must
    /// describe `net`'s current positions).
    pub fn begin_indexed(
        net: &'net Network,
        adjacency: &'net Adjacency,
        center: NodeId,
        scratch: &'scr mut RingScratch,
    ) -> Self {
        debug_assert_eq!(adjacency.len(), net.len(), "stale adjacency snapshot");
        Self::begin_inner(net, Some(adjacency), center, scratch)
    }

    fn begin_inner(
        net: &'net Network,
        adjacency: Option<&'net Adjacency>,
        center: NodeId,
        scratch: &'scr mut RingScratch,
    ) -> Self {
        scratch.reset(net.len());
        let (w, bit) = block_bit(center.index());
        scratch.mark(w, bit, 0);
        scratch.frontier.push((center.index() as u32, 0));
        RingQuery {
            origin: net.position(center),
            net,
            adjacency,
            scratch,
            member_reply_sum: 0,
            farthest: 0.0,
            farthest_sq: 0.0,
        }
    }

    /// Expands the search to Euclidean radius `rho` and hop budget
    /// `hops`, both of which must be non-decreasing across calls.
    ///
    /// Returns the accounting a fresh query at `(rho, hops)` would
    /// produce; the member set is monotone across calls.
    pub fn collect(&mut self, rho: f64, hops: usize) -> RingStep {
        // Resume the BFS: explore every node with dist < hops. Once every
        // node is stamped no row can stamp another, so the scan stops
        // (the frontier's nodes were counted when they were stamped).
        let n = self.net.len();
        while self.scratch.stamped < n {
            let Some(&(u, du)) = self.scratch.frontier.get(self.scratch.head) else {
                break;
            };
            if du as usize >= hops {
                break; // frontier is sorted by distance; revisit later
            }
            self.scratch.head += 1;
            match self.adjacency {
                Some(adj) => {
                    let (blocks, masks) = adj.row(u as usize);
                    for (&w, &mask) in blocks.iter().zip(masks) {
                        self.visit_block(w, mask, du + 1);
                    }
                }
                None => {
                    // The live query, as the row a snapshot would hold.
                    let (mut blocks, mut masks) = std::mem::take(&mut self.scratch.live);
                    blocks.clear();
                    masks.clear();
                    append_row(self.net, u as usize, &mut blocks, &mut masks);
                    for (&w, &mask) in blocks.iter().zip(&masks) {
                        self.visit_block(w, mask, du + 1);
                    }
                    self.scratch.live = (blocks, masks);
                }
            }
        }
        // Promote pending nodes that now satisfy both filters. Membership
        // thresholds (rho, hops) only grow, so nodes join exactly once.
        // The squared ring filter is the same expression the fresh query
        // uses, so both report identical member sets.
        let limit = rho + 1e-12;
        let limit_sq = limit * limit;
        // Promoted entries swap to the tail of `pending` (the kept ones
        // end in `swap_remove` order) until they are folded in below.
        let pending = &mut self.scratch.pending;
        let mut end = pending.len();
        let mut i = 0;
        while i < end {
            let p = pending[i];
            if p.hops as usize <= hops && p.d_sq <= limit_sq {
                end -= 1;
                pending.swap(i, end);
                self.scratch.members.push(p.node as usize);
                self.member_reply_sum += u64::from(p.hops);
                self.farthest_sq = self.farthest_sq.max(p.d_sq);
            } else {
                i += 1;
            }
        }
        // Fold the new members into `farthest`, skipping the `hypot` of
        // those provably nearer than the farthest member by squared
        // distance — that member's own `hypot` is always folded in.
        let new_members = pending.len() - end;
        for p in &pending[end..] {
            if !surely_nearer(p.d_sq, self.farthest_sq) {
                self.farthest = self.farthest.max(
                    self.net
                        .position(NodeId(p.node as usize))
                        .distance(self.origin),
                );
            }
        }
        pending.truncate(end);
        if new_members > 0 {
            // Keep members in ascending index order — the order a fresh
            // query reports and the one downstream geometry consumes.
            self.scratch.members.sort_unstable();
        }
        // A fresh query would have every node with dist < hops broadcast
        // and every member reply over its hop path.
        let contacted: u64 = self.scratch.level_counts.iter().take(hops).sum();
        RingStep {
            new_members,
            messages: MessageStats {
                unicast: self.member_reply_sum,
                broadcast: contacted,
            },
        }
    }

    /// Stamps the unvisited nodes among `mask`'s bits of word `w` at hop
    /// distance `hops` — one AND-NOT against the visited bits — queueing
    /// each, in ascending id order, for exploration and for membership
    /// with its squared distance to the center (the center itself is
    /// stamped by `begin`, so it never gets here).
    #[inline]
    fn visit_block(&mut self, w: u32, mask: u64, hops: u32) {
        let mut fresh = mask & !self.scratch.seen[w as usize];
        if fresh == 0 {
            return;
        }
        self.scratch.mark(w, fresh, hops);
        let base = w as usize * 64;
        while fresh != 0 {
            let v = base + fresh.trailing_zeros() as usize;
            fresh &= fresh - 1;
            let d_sq = self.net.position(NodeId(v)).distance_sq(self.origin);
            let scratch = &mut *self.scratch;
            scratch.frontier.push((v as u32, hops));
            scratch.pending.push(Pending {
                node: v as u32,
                hops,
                d_sq,
            });
        }
    }

    /// Current members (ascending ids, center excluded).
    pub fn members(&self) -> &[usize] {
        &self.scratch.members
    }

    /// Euclidean distance from the center to the farthest member (0 when
    /// the neighborhood is empty).
    pub fn farthest_member_distance(&self) -> f64 {
        self.farthest
    }

    /// Euclidean distance from the center to the farthest node the BFS
    /// *ever explored* — members, relays, and every node charged in the
    /// broadcast accounting (0 when nothing beyond the center was
    /// reached).
    ///
    /// This is the query's exact contact radius: a node outside this
    /// distance was never heard from and never influenced the member
    /// set, the hop distances, or the message totals. The conservative
    /// hop-path bound is `hops·γ`; the recorded radius is what the flood
    /// actually covered, which is what lets change-tracking callers
    /// re-activate only the genuinely reachable neighborhood.
    pub fn contact_radius(&self) -> f64 {
        // Every explored node is either a member (folded into `farthest`
        // as it was promoted) or still pending. The square root commutes
        // with the max (both monotone), so one suffices.
        let mut far_sq: f64 = 0.0;
        for p in &self.scratch.pending {
            far_sq = far_sq.max(p.d_sq);
        }
        self.farthest.max(far_sq.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    impl RingQuery<'_, '_> {
        /// Current members as owned [`NodeId`]s.
        fn members_to_vec(&self) -> Vec<NodeId> {
            self.members().iter().map(|&i| NodeId(i)).collect()
        }
    }

    #[test]
    fn euclidean_and_hop_constraints_combine() {
        // A "C" shape: node 3 is Euclidean-close to node 0 but many hops
        // away around the C.
        let net = Network::from_positions(
            0.12,
            [
                Point::new(0.0, 0.0),  // 0
                Point::new(0.1, 0.0),  // 1
                Point::new(0.2, 0.0),  // 2
                Point::new(0.0, 0.05), // 3: close to 0, direct link
            ],
        );
        let ring = ring_neighborhood_with_slack(&net, NodeId(0), 0.12, 0);
        assert_eq!(ring.members, vec![NodeId(1), NodeId(3)]);
        assert_eq!(ring.hops, 1);
    }

    #[test]
    fn disconnected_nodes_never_join() {
        let net = Network::from_positions(
            0.1,
            [
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.0), // inside a ρ=1 ring but > γ away: unreachable
            ],
        );
        let ring = ring_neighborhood(&net, NodeId(0), 1.0);
        assert!(ring.members.is_empty());
    }

    #[test]
    fn hop_limit_truncates_long_chains() {
        // Chain with spacing 0.1, γ = 0.12. ρ = 0.25 ⇒ 3 hops allowed,
        // Euclidean cut at 0.25 keeps nodes 1 and 2 only.
        let net = Network::from_positions(0.12, (0..6).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let ring = ring_neighborhood_with_slack(&net, NodeId(0), 0.25, 0);
        assert_eq!(ring.members, vec![NodeId(1), NodeId(2)]);
        // Wider ring reaches further down the chain.
        let ring2 = ring_neighborhood_with_slack(&net, NodeId(0), 0.45, 0);
        assert_eq!(
            ring2.members,
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn slack_recovers_euclidean_members_over_detours() {
        // Node 3 is Euclidean-close to node 0 but the only path detours
        // through 1 and 2: strict hop budgets miss it, slack finds it.
        let net = Network::from_positions(
            0.12,
            [
                Point::new(0.0, 0.0),   // 0
                Point::new(0.06, 0.09), // 1 (detour, 1 hop from 0)
                Point::new(0.14, 0.09), // 2 (detour, 2 hops from 0)
                Point::new(0.15, 0.0),  // 3: 0.15 from node 0, 3 hops away
            ],
        );
        let strict = ring_neighborhood_with_slack(&net, NodeId(0), 0.16, 0);
        let slack = ring_neighborhood_with_slack(&net, NodeId(0), 0.16, 2);
        assert!(!strict.members.contains(&NodeId(3)), "{:?}", strict.members);
        assert!(slack.members.contains(&NodeId(3)), "{:?}", slack.members);
    }

    #[test]
    fn message_cost_grows_with_ring() {
        let net = Network::from_positions(0.12, (0..8).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let small = ring_neighborhood(&net, NodeId(0), 0.12);
        let large = ring_neighborhood(&net, NodeId(0), 0.6);
        assert!(large.messages.total() > small.messages.total());
    }

    #[test]
    fn incremental_query_matches_fresh_queries_step_by_step() {
        // Expand a query γ by γ and compare every step with a
        // from-scratch BFS at the same (ρ, hops), on a 9×9 grid, a dense
        // pile (a complete graph: the first expansion stamps every node),
        // a chain and a disconnected pair.
        let grid = Network::from_positions(
            0.15,
            (0..9).flat_map(|i| (0..9).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        );
        let pile = Network::from_positions(
            0.15,
            (0..40).map(|i| Point::new(0.002 * (i % 7) as f64, 0.003 * (i / 7) as f64)),
        );
        let chain = Network::from_positions(0.12, (0..12).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let pair = Network::from_positions(0.1, [Point::new(0.0, 0.0), Point::new(0.5, 0.0)]);
        let cases = [
            (grid, vec![0usize, 40, 80]),
            (pile, vec![0, 17, 39]),
            (chain, vec![0, 5, 11]),
            (pair, vec![0, 1]),
        ];
        for (net, centers) in &cases {
            let gamma = net.gamma();
            for &center in centers {
                let mut scratch = RingScratch::new();
                let mut query = RingQuery::begin(net, NodeId(center), &mut scratch);
                let mut rho = 0.0;
                for _ in 0..10 {
                    rho += gamma;
                    let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
                    let step = query.collect(rho, hops);
                    let fresh =
                        ring_neighborhood_with_slack(net, NodeId(center), rho, DEFAULT_HOP_SLACK);
                    let at = format!("n {} center {center} ρ {rho}", net.len());
                    assert_eq!(query.members_to_vec(), fresh.members, "{at}");
                    assert_eq!(step.messages, fresh.messages, "{at}");
                    let expect_far = fresh
                        .members
                        .iter()
                        .map(|&m| net.position(m).distance(net.position(NodeId(center))))
                        .fold(0.0, f64::max);
                    assert_eq!(
                        query.farthest_member_distance().to_bits(),
                        expect_far.to_bits(),
                        "{at}"
                    );
                }
                if net.len() == 40 {
                    // The center's row stamped every node, so no other
                    // row was scanned.
                    assert_eq!(scratch.stamped, net.len());
                    assert_eq!(scratch.frontier.len(), net.len());
                    assert_eq!(scratch.head, 1, "rows scanned after all were stamped");
                }
            }
        }
    }

    /// A fresh BFS to `hops` around `center` with the quantities a
    /// [`RingQuery`] reports, computed the direct way: members, messages,
    /// the farthest member's distance, and the contact radius as the
    /// farthest member against the root of the largest square among the
    /// stamped non-members.
    fn reference_step(
        net: &Network,
        center: usize,
        rho: f64,
        hops: usize,
    ) -> (Vec<NodeId>, MessageStats, f64, f64) {
        let fresh = ring_neighborhood_with_slack(net, NodeId(center), rho, DEFAULT_HOP_SLACK);
        assert_eq!(fresh.hops, hops);
        let origin = net.position(NodeId(center));
        let mut dist = vec![usize::MAX; net.len()];
        dist[center] = 0;
        let mut queue = VecDeque::from([center]);
        while let Some(u) = queue.pop_front() {
            if dist[u] >= hops {
                continue;
            }
            for v in net.one_hop_neighbors(NodeId(u)) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u] + 1;
                    queue.push_back(v.index());
                }
            }
        }
        let far = fresh
            .members
            .iter()
            .map(|&m| net.position(m).distance(origin))
            .fold(0.0, f64::max);
        let pending_sq = (0..net.len())
            .filter(|&i| i != center && dist[i] != usize::MAX)
            .filter(|&i| fresh.members.binary_search(&NodeId(i)).is_err())
            .map(|i| net.position(NodeId(i)).distance_sq(origin))
            .fold(0.0, f64::max);
        (
            fresh.members,
            fresh.messages,
            far,
            far.max(pending_sq.sqrt()),
        )
    }

    #[test]
    fn block_bfs_matches_the_fresh_reference_on_random_clouds() {
        // Clouds whose ids fill one block, end one short of or one past
        // a block boundary, or span five blocks; two disconnected parts,
        // co-located twins, and ids in random order. Both the adjacency
        // path and the live-grid path expand γ by γ and must match a
        // fresh BFS at every step, to the bit.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut steps = 0;
        // One pair of scratches serves every search, across sizes.
        let (mut s1, mut s2) = (RingScratch::new(), RingScratch::new());
        for n in [1usize, 63, 64, 65, 127, 128, 129, 300] {
            let gamma = 1.3 / (n as f64).sqrt();
            let mut pts: Vec<Point> = Vec::with_capacity(n);
            while pts.len() < n {
                let p = match pts.len() % 7 {
                    // A co-located twin of an earlier node.
                    6 => pts[(next() * pts.len() as f64) as usize],
                    // The far part, out of reach of the near one.
                    0 | 1 => Point::new(3.0 + 0.4 * next(), 3.0 + 0.4 * next()),
                    _ => Point::new(0.6 * next(), 0.6 * next()),
                };
                pts.push(p);
            }
            let net = Network::from_positions(gamma, pts);
            let adj = Adjacency::build(&net);
            for center in [0, n / 3, n / 2, n - 1] {
                let mut live = RingQuery::begin(&net, NodeId(center), &mut s1);
                let mut rows = RingQuery::begin_indexed(&net, &adj, NodeId(center), &mut s2);
                let mut rho = 0.0;
                for _ in 0..12 {
                    rho += gamma;
                    let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
                    let (members, messages, far, contact) = reference_step(&net, center, rho, hops);
                    for (path, query) in [("live", &mut live), ("rows", &mut rows)] {
                        let at = format!("{path}: n {n} center {center} ρ {rho}");
                        let step = query.collect(rho, hops);
                        assert_eq!(query.members_to_vec(), members, "{at}");
                        assert_eq!(step.messages, messages, "{at}");
                        assert_eq!(
                            query.farthest_member_distance().to_bits(),
                            far.to_bits(),
                            "{at}"
                        );
                        assert_eq!(query.contact_radius().to_bits(), contact.to_bits(), "{at}");
                    }
                    steps += 1;
                }
            }
        }
        assert_eq!(steps, 8 * 4 * 12);
    }

    #[test]
    fn indexed_query_matches_grid_query() {
        let gamma = 0.15;
        let net = Network::from_positions(
            gamma,
            (0..7).flat_map(|i| (0..7).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        );
        let adj = Adjacency::build(&net);
        for center in [0usize, 24, 48] {
            let mut s1 = RingScratch::new();
            let mut s2 = RingScratch::new();
            let mut grid = RingQuery::begin(&net, NodeId(center), &mut s1);
            let mut csr = RingQuery::begin_indexed(&net, &adj, NodeId(center), &mut s2);
            let mut rho = 0.0;
            for _ in 0..6 {
                rho += gamma;
                let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
                let a = grid.collect(rho, hops);
                let b = csr.collect(rho, hops);
                assert_eq!(a.new_members, b.new_members, "center {center} ρ {rho}");
                assert_eq!(a.messages, b.messages, "center {center} ρ {rho}");
                assert_eq!(grid.members(), csr.members(), "center {center} ρ {rho}");
            }
        }
    }

    #[test]
    fn contact_radius_covers_every_explored_node() {
        // The recorded contact radius must equal the farthest node the
        // BFS stamped (members and pending relays alike) and bound every
        // member distance.
        let gamma = 0.15;
        let net = Network::from_positions(
            gamma,
            (0..9).flat_map(|i| (0..9).map(move |j| Point::new(i as f64 * 0.1, j as f64 * 0.1))),
        );
        for center in [0usize, 40] {
            let mut scratch = RingScratch::new();
            let mut query = RingQuery::begin(&net, NodeId(center), &mut scratch);
            let origin = net.position(NodeId(center));
            let rho = 2.0 * gamma;
            let hops = hop_budget(rho, gamma, DEFAULT_HOP_SLACK);
            query.collect(rho, hops);
            let contact = query.contact_radius();
            // Brute-force BFS to the same hop budget: the stamped set.
            let mut expect: f64 = 0.0;
            let mut dist = vec![usize::MAX; net.len()];
            dist[center] = 0;
            let mut queue = std::collections::VecDeque::from([center]);
            while let Some(u) = queue.pop_front() {
                if dist[u] >= hops {
                    continue;
                }
                for v in net.one_hop_neighbors(NodeId(u)) {
                    if dist[v.index()] == usize::MAX {
                        dist[v.index()] = dist[u] + 1;
                        queue.push_back(v.index());
                    }
                }
            }
            for (i, &d) in dist.iter().enumerate() {
                if i != center && d != usize::MAX && d <= hops {
                    expect = expect.max(net.position(NodeId(i)).distance(origin));
                }
            }
            assert!(
                (contact - expect).abs() < 1e-12,
                "center {center}: contact {contact} vs stamped max {expect}"
            );
            assert!(contact >= query.farthest_member_distance());
        }
    }

    #[test]
    fn scratch_reuse_across_searches_is_clean() {
        let net = Network::from_positions(0.12, (0..6).map(|i| Point::new(i as f64 * 0.1, 0.0)));
        let mut scratch = RingScratch::new();
        for center in 0..net.len() {
            let mut query = RingQuery::begin(&net, NodeId(center), &mut scratch);
            let hops = hop_budget(0.25, 0.12, DEFAULT_HOP_SLACK);
            let step = query.collect(0.25, hops);
            let fresh = ring_neighborhood(&net, NodeId(center), 0.25);
            assert_eq!(query.members_to_vec(), fresh.members, "center {center}");
            assert_eq!(step.messages, fresh.messages, "center {center}");
        }
    }
}
