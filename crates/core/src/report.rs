//! Per-round records and run summaries (the data behind Fig. 6).
//!
//! A session keeps no round records: each [`RoundReport`] goes out with
//! its round's [`RoundDelta`](crate::RoundDelta), and the session keeps
//! only the running totals a [`RunSummary`] needs. A caller that wants
//! the series collects it, for instance with an
//! [`Observer`](crate::Observer) of its own.

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
