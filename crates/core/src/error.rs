//! Error types for the LAACAD crate.

/// Errors raised by configuration validation and simulation construction.
#[derive(Debug, Clone, PartialEq)]
pub enum LaacadError {
    /// Coverage degree `k` must satisfy `1 ≤ k ≤ N`.
    InvalidK {
        /// The requested coverage degree.
        k: usize,
        /// The number of nodes available.
        n: usize,
    },
    /// Step size `α` must lie in `(0, 1]` (paper Prop. 4).
    InvalidAlpha(f64),
    /// Stopping tolerance `ε` must be strictly positive and finite.
    InvalidEpsilon(f64),
    /// Transmission range `γ` must be strictly positive and finite.
    InvalidGamma(f64),
    /// The initial deployment is empty.
    EmptyDeployment,
    /// An initial position lies outside the target area.
    NodeOutsideRegion {
        /// Index of the offending node.
        index: usize,
    },
    /// A [`crate::SessionBuilder`] was finalized before a required
    /// component was provided.
    IncompleteSession {
        /// The missing component (e.g. `"region"`).
        missing: &'static str,
    },
    /// A quantity that must be finite and non-negative is not — a
    /// sensing radius, distance moved or retired distance (only restored
    /// snapshot state can carry one).
    InvalidState {
        /// The offending quantity, e.g. `"sensing radius of node 4"`.
        what: String,
        /// Its value.
        value: f64,
    },
    /// An operation referenced a node id outside the live population.
    UnknownNode {
        /// The offending node id.
        id: usize,
        /// The current population size.
        n: usize,
    },
}

impl std::fmt::Display for LaacadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaacadError::InvalidK { k, n } => {
                write!(f, "coverage degree k={k} must satisfy 1 ≤ k ≤ N={n}")
            }
            LaacadError::InvalidAlpha(a) => {
                write!(f, "step size α={a} must lie in (0, 1]")
            }
            LaacadError::InvalidEpsilon(e) => {
                write!(f, "stopping tolerance ε={e} must be positive and finite")
            }
            LaacadError::InvalidGamma(g) => {
                write!(f, "transmission range γ={g} must be positive and finite")
            }
            LaacadError::EmptyDeployment => write!(f, "initial deployment has no nodes"),
            LaacadError::NodeOutsideRegion { index } => {
                write!(
                    f,
                    "initial position of node {index} lies outside the target area"
                )
            }
            LaacadError::IncompleteSession { missing } => {
                write!(f, "session builder is missing its {missing}")
            }
            LaacadError::InvalidState { what, value } => write!(f, "invalid {what}: {value}"),
            LaacadError::UnknownNode { id, n } => {
                write!(f, "node id {id} is outside the live population 0..{n}")
            }
        }
    }
}

impl std::error::Error for LaacadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            LaacadError::InvalidK { k: 5, n: 3 }.to_string(),
            LaacadError::InvalidAlpha(1.5).to_string(),
            LaacadError::InvalidEpsilon(-1.0).to_string(),
            LaacadError::InvalidGamma(0.0).to_string(),
            LaacadError::EmptyDeployment.to_string(),
            LaacadError::NodeOutsideRegion { index: 7 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(
                m.is_ascii()
                    || m.contains('α')
                    || m.contains('ε')
                    || m.contains('γ')
                    || m.contains('≤')
            );
        }
    }
}
