//! Algorithm configuration.

use crate::error::LaacadError;
use laacad_wsn::ranging::RangingNoise;

/// How nodes obtain the coordinates of their ring neighborhoods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoordinateMode {
    /// Use exact positions (a positioning service or the simulator's
    /// ground truth). This is what the paper's own simulations use.
    Oracle,
    /// Build a local coordinate system from noisy pairwise ranging via
    /// classical MDS (Algorithm 2 line 4, paper ref \[28\]); node positions
    /// entering the geometry are the MDS estimates.
    Ranging(RangingNoise),
}

/// When nodes act on their computed motion targets.
///
/// The paper's nodes run *periodically* ("every τ ms") without a global
/// barrier; the two classic idealizations are:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Jacobi-style: all nodes compute on the same position snapshot,
    /// then all move. Deterministic and the default.
    Synchronous,
    /// Gauss–Seidel-style: nodes compute and move one at a time in id
    /// order, each seeing the already-updated positions of its
    /// predecessors — closer to unsynchronized periodic execution, and
    /// typically converging in fewer rounds.
    Sequential,
}

/// How the searching ring bounds a dominating region (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingCapPolicy {
    /// Cap by the `ρ/2` disk exactly when the ring check succeeded (the
    /// region provably fits) or when the search was truncated; use the
    /// target area as the natural boundary for saturated boundary nodes.
    Exact,
    /// Always cap by the `ρ/2` disk, boundary nodes included — the most
    /// literal reading of Fig. 3 ("the searching ring helps to determine
    /// part of the boundary"); produces a more gradual expansion phase.
    AlwaysCap,
}

/// Full parameter set for a LAACAD run.
///
/// Build with [`LaacadConfig::builder`]; every field has a paper-faithful
/// default except `k` (mandatory) and the transmission range `γ`
/// (scenario-dependent).
#[derive(Debug, Clone, PartialEq)]
pub struct LaacadConfig {
    /// Coverage degree `k ≥ 1`.
    pub k: usize,
    /// Step size `α ∈ (0, 1]` (Algorithm 1 line 5).
    pub alpha: f64,
    /// Stopping tolerance `ε` on `‖u_i − c_i‖` (Algorithm 1 line 4).
    pub epsilon: f64,
    /// Transmission range `γ` — also the ring-expansion granularity.
    pub gamma: f64,
    /// Hard round limit (the convergence proof guarantees termination;
    /// the limit guards mis-parameterized runs).
    pub max_rounds: usize,
    /// Maximum searching-ring radius before a node declares itself a
    /// boundary node (defaults to the region diameter at runtime when
    /// `None`).
    pub max_rho: Option<f64>,
    /// Ring-cap policy for dominating regions.
    pub ring_cap: RingCapPolicy,
    /// Number of vertices of the circumscribed polygon that stands in for
    /// disk caps (it contains the disk, so a cap never truncates the true
    /// dominating region).
    pub cap_vertices: usize,
    /// Coordinate acquisition mode.
    pub coordinates: CoordinateMode,
    /// Execution schedule (synchronous rounds vs sequential updates).
    pub execution: ExecutionMode,
    /// Seed for ranging-noise simulation.
    pub seed: u64,
    /// Threads for the synchronous round engine, the calling thread
    /// included (`0` = all cores, `1` = serial — the default): with `t`
    /// threads a Phase 1 runs on the caller and `t − 1` scoped threads.
    /// Every node's local view is a pure function of the round's shared
    /// position snapshot, so results are bit-identical for every thread
    /// count. Sequential (Gauss–Seidel)
    /// execution and the asynchronous executor (`laacad-dist`) run on
    /// the calling thread and do not read this field.
    pub threads: usize,
}

impl LaacadConfig {
    /// A transmission range adequate for `n` nodes k-covering an area of
    /// the given size.
    ///
    /// The paper assumes `γ ≥ r_i` (Sec. IV-C); at the balanced optimum
    /// every node's range approaches `√(k·|A|/(π·N))`, so `γ` must comfortably
    /// exceed that or the converged k-clusters (spaced ~2r apart) would
    /// disconnect the radio graph and starve the localized computation.
    /// The radio graph of the *initial random* deployment must also be
    /// connected, which for a random geometric graph needs
    /// `γ ≳ √(ln N · |A| / (π N))`. Returns the larger of
    /// `2.5·√(k·|A|/(π·N))` and `1.6·√(ln N·|A|/(π·N))`.
    pub fn recommended_gamma(area: f64, n: usize, k: usize) -> f64 {
        assert!(area > 0.0 && n >= 1 && k >= 1, "invalid gamma inputs");
        let per_node = area / (std::f64::consts::PI * n as f64);
        let balance = 2.5 * (k as f64 * per_node).sqrt();
        let connectivity = 1.6 * ((n as f64).ln().max(1.0) * per_node).sqrt();
        balance.max(connectivity)
    }

    /// Starts a builder for coverage degree `k`.
    pub fn builder(k: usize) -> LaacadConfigBuilder {
        LaacadConfigBuilder {
            config: LaacadConfig {
                k,
                alpha: 0.5,
                epsilon: 1e-4,
                gamma: 0.1,
                max_rounds: 300,
                max_rho: None,
                ring_cap: RingCapPolicy::Exact,
                cap_vertices: 64,
                coordinates: CoordinateMode::Oracle,
                execution: ExecutionMode::Synchronous,
                seed: 0x1AACAD,
                threads: 1,
            },
        }
    }

    /// Validates parameter ranges (`n` = node count, needed for `k ≤ N`).
    pub fn validate(&self, n: usize) -> Result<(), LaacadError> {
        if self.k < 1 || self.k > n {
            return Err(LaacadError::InvalidK { k: self.k, n });
        }
        if self.alpha.is_nan() || self.alpha <= 0.0 || self.alpha > 1.0 {
            return Err(LaacadError::InvalidAlpha(self.alpha));
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(LaacadError::InvalidEpsilon(self.epsilon));
        }
        if !(self.gamma.is_finite() && self.gamma > 0.0) {
            return Err(LaacadError::InvalidGamma(self.gamma));
        }
        Ok(())
    }
}

/// Builder for [`LaacadConfig`] (non-consuming, per the Rust API
/// guidelines' builder pattern).
#[derive(Debug, Clone)]
pub struct LaacadConfigBuilder {
    config: LaacadConfig,
}

impl LaacadConfigBuilder {
    /// Sets the step size `α ∈ (0, 1]`.
    pub fn alpha(&mut self, alpha: f64) -> &mut Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the stopping tolerance `ε`.
    pub fn epsilon(&mut self, epsilon: f64) -> &mut Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Sets the transmission range `γ`.
    pub fn transmission_range(&mut self, gamma: f64) -> &mut Self {
        self.config.gamma = gamma;
        self
    }

    /// Sets the round limit.
    pub fn max_rounds(&mut self, rounds: usize) -> &mut Self {
        self.config.max_rounds = rounds;
        self
    }

    /// Sets the maximum searching-ring radius.
    pub fn max_rho(&mut self, rho: f64) -> &mut Self {
        self.config.max_rho = Some(rho);
        self
    }

    /// Sets the ring-cap policy.
    pub fn ring_cap(&mut self, policy: RingCapPolicy) -> &mut Self {
        self.config.ring_cap = policy;
        self
    }

    /// Sets the disk-cap polygon resolution.
    pub fn cap_vertices(&mut self, n: usize) -> &mut Self {
        self.config.cap_vertices = n.max(8);
        self
    }

    /// Sets the coordinate acquisition mode.
    pub fn coordinates(&mut self, mode: CoordinateMode) -> &mut Self {
        self.config.coordinates = mode;
        self
    }

    /// Sets the execution schedule.
    pub fn execution(&mut self, mode: ExecutionMode) -> &mut Self {
        self.config.execution = mode;
        self
    }

    /// Sets the noise seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the synchronous-round thread count, the calling thread
    /// included (`0` = all cores, `1` = serial). Results are identical
    /// for every value.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated parameter constraint (the `k ≤ N` check
    /// is deferred to [`crate::SessionBuilder::build`], which knows `N`).
    pub fn build(&self) -> Result<LaacadConfig, LaacadError> {
        let c = self.config.clone();
        // Validate everything except k ≤ N (unknown here); use n = usize::MAX.
        c.validate(usize::MAX)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_paper_faithful() {
        let c = LaacadConfig::builder(2).build().unwrap();
        assert_eq!(c.k, 2);
        assert!(c.alpha > 0.0 && c.alpha <= 1.0);
        assert!(c.epsilon > 0.0);
        assert_eq!(c.ring_cap, RingCapPolicy::Exact);
        assert_eq!(c.coordinates, CoordinateMode::Oracle);
        assert_eq!(c.execution, ExecutionMode::Synchronous);
    }

    #[test]
    fn builder_setters_chain() {
        let c = LaacadConfig::builder(3)
            .alpha(1.0)
            .epsilon(1e-6)
            .transmission_range(0.2)
            .max_rounds(500)
            .max_rho(3.0)
            .ring_cap(RingCapPolicy::AlwaysCap)
            .cap_vertices(32)
            .execution(ExecutionMode::Sequential)
            .seed(7)
            .threads(4)
            .build()
            .unwrap();
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.threads, 4);
        assert_eq!(c.max_rho, Some(3.0));
        assert_eq!(c.ring_cap, RingCapPolicy::AlwaysCap);
        assert_eq!(c.cap_vertices, 32);
        assert_eq!(c.execution, ExecutionMode::Sequential);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            LaacadConfig::builder(1).alpha(0.0).build(),
            Err(LaacadError::InvalidAlpha(_))
        ));
        assert!(matches!(
            LaacadConfig::builder(1).alpha(1.1).build(),
            Err(LaacadError::InvalidAlpha(_))
        ));
        assert!(matches!(
            LaacadConfig::builder(1).epsilon(0.0).build(),
            Err(LaacadError::InvalidEpsilon(_))
        ));
        // An infinite tolerance would stop every run after its first
        // round and report it converged.
        for epsilon in [f64::INFINITY, f64::NAN] {
            assert!(matches!(
                LaacadConfig::builder(1).epsilon(epsilon).build(),
                Err(LaacadError::InvalidEpsilon(_))
            ));
        }
        assert!(matches!(
            LaacadConfig::builder(1).transmission_range(-1.0).build(),
            Err(LaacadError::InvalidGamma(_))
        ));
        let c = LaacadConfig::builder(5).build().unwrap();
        assert!(matches!(
            c.validate(3),
            Err(LaacadError::InvalidK { k: 5, n: 3 })
        ));
    }

    #[test]
    fn cap_vertices_floor() {
        let c = LaacadConfig::builder(1).cap_vertices(3).build().unwrap();
        assert_eq!(c.cap_vertices, 8);
    }
}
