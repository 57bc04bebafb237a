//! Run history: per-round records and summaries (the data behind Fig. 6).

use laacad_geom::Point;
use laacad_wsn::radio::MessageStats;

/// Per-round record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round index (1-based; round 0 is the initial state).
    pub round: usize,
    /// Maximum circumradius `R^l = max_i R^l_i` — monotone non-increasing
    /// for `α = 1` (paper Prop. 4 and Fig. 6).
    pub max_circumradius: f64,
    /// Minimum circumradius — generally increasing toward `R` (Fig. 6's
    /// load-balance signal).
    pub min_circumradius: f64,
    /// Max over nodes of `R̂^l_i = max_{u∈V} ‖u − u^l_i‖` (the quantity
    /// the convergence proof tracks for α < 1).
    pub max_reach: f64,
    /// Largest `‖u_i − c_i‖` this round (the Algorithm 1 line 4 check).
    pub max_displacement_to_target: f64,
    /// Number of nodes that moved.
    pub nodes_moved: usize,
    /// Messages spent this round on ring searches.
    pub messages: MessageStats,
    /// Whether the round satisfied the global termination condition.
    pub converged: bool,
}

/// Complete run history.
#[derive(Debug, Clone, Default)]
pub struct History {
    rounds: Vec<RoundReport>,
    snapshots: Vec<(usize, Vec<Point>)>,
}

impl History {
    /// Appends a round record.
    pub fn push_round(&mut self, report: RoundReport) {
        self.rounds.push(report);
    }

    /// Appends a position snapshot for `round`.
    pub fn push_snapshot(&mut self, round: usize, positions: Vec<Point>) {
        self.snapshots.push((round, positions));
    }

    /// All per-round records, in order.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// All `(round, positions)` snapshots, in order.
    pub fn snapshots(&self) -> &[(usize, Vec<Point>)] {
        &self.snapshots
    }

    /// The series `(round, max circumradius, min circumradius)` — exactly
    /// what Fig. 6 plots.
    pub fn circumradius_series(&self) -> Vec<(usize, f64, f64)> {
        self.rounds
            .iter()
            .map(|r| (r.round, r.max_circumradius, r.min_circumradius))
            .collect()
    }
}

/// Outcome of a full [`crate::Session::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the ε-termination condition was met (vs. the round limit).
    pub converged: bool,
    /// Final maximum sensing range `R*` — the k-CSDP objective value.
    pub max_sensing_radius: f64,
    /// Final minimum sensing range (≈ `R*` after load balancing).
    pub min_sensing_radius: f64,
    /// Total messages spent over the run.
    pub messages: MessageStats,
    /// Total distance travelled by all nodes (movement energy).
    pub total_distance_moved: f64,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds ({}), R* = {:.5}, r_min = {:.5}, moved {:.3}, messages {}",
            self.rounds,
            if self.converged {
                "converged"
            } else {
                "round limit"
            },
            self.max_sensing_radius,
            self.min_sensing_radius,
            self.total_distance_moved,
            self.messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(round: usize, max_r: f64) -> RoundReport {
        RoundReport {
            round,
            max_circumradius: max_r,
            min_circumradius: max_r / 2.0,
            max_reach: max_r * 1.1,
            max_displacement_to_target: 0.01,
            nodes_moved: 3,
            messages: MessageStats::default(),
            converged: false,
        }
    }

    #[test]
    fn history_accumulates_in_order() {
        let mut h = History::default();
        h.push_round(report(1, 0.5));
        h.push_round(report(2, 0.4));
        h.push_snapshot(2, vec![Point::new(0.0, 0.0)]);
        assert_eq!(h.rounds().len(), 2);
        assert_eq!(h.snapshots().len(), 1);
        let series = h.circumradius_series();
        assert_eq!(series[0], (1, 0.5, 0.25));
        assert_eq!(series[1], (2, 0.4, 0.2));
    }

    #[test]
    fn summary_display_mentions_key_facts() {
        let s = RunSummary {
            rounds: 42,
            converged: true,
            max_sensing_radius: 0.123,
            min_sensing_radius: 0.120,
            messages: MessageStats {
                unicast: 10,
                broadcast: 5,
            },
            total_distance_moved: 7.5,
        };
        let text = s.to_string();
        assert!(text.contains("42 rounds"));
        assert!(text.contains("converged"));
        assert!(text.contains("0.123"));
    }
}
