//! Sensing-energy model (paper Sec. V-B).
//!
//! "As the sensing range is modeled as a disk centered at `u_i` with
//! radius `r_i`, we naturally define the energy consumption function as
//! `E(r_i) = π r_i²`." The exponent is configurable so ablation
//! experiments can explore super-quadratic sensing costs.

use crate::network::Network;

/// Energy as a function of sensing range: `E(r) = c · r^η`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Multiplicative coefficient `c`.
    pub coefficient: f64,
    /// Exponent `η` (2 for the paper's disk-area model).
    pub exponent: f64,
}

impl EnergyModel {
    /// The paper's model `E(r) = π r²`.
    pub const DISK_AREA: EnergyModel = EnergyModel {
        coefficient: std::f64::consts::PI,
        exponent: 2.0,
    };

    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics for non-positive coefficient or exponent (energy must be
    /// increasing in `r`, as the paper assumes).
    pub fn new(coefficient: f64, exponent: f64) -> Self {
        assert!(
            coefficient > 0.0 && exponent > 0.0,
            "energy model must be increasing"
        );
        EnergyModel {
            coefficient,
            exponent,
        }
    }

    /// Energy drawn by sensing range `r`.
    #[inline]
    pub fn energy(&self, r: f64) -> f64 {
        self.coefficient * r.powf(self.exponent)
    }

    /// Maximum per-node sensing load `max_i E(r_i)` (Fig. 7a).
    pub fn max_load(&self, net: &Network) -> f64 {
        net.sensing_radii()
            .iter()
            .map(|&r| self.energy(r))
            .fold(0.0, f64::max)
    }

    /// Total sensing load `Σ_i E(r_i)` (Fig. 7b).
    pub fn total_load(&self, net: &Network) -> f64 {
        net.sensing_radii().iter().map(|&r| self.energy(r)).sum()
    }

    /// Load-balance ratio `min_i E(r_i) / max_i E(r_i)` — approaches 1 as
    /// LAACAD equalizes sensing ranges (Sec. V-A).
    pub fn balance_ratio(&self, net: &Network) -> f64 {
        let max = self.max_load(net);
        if max <= 0.0 {
            return 1.0;
        }
        let min = net
            .sensing_radii()
            .iter()
            .map(|&r| self.energy(r))
            .fold(f64::INFINITY, f64::min);
        min / max
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::DISK_AREA
    }
}

impl std::fmt::Display for EnergyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E(r) = {:.4}·r^{}", self.coefficient, self.exponent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_geom::Point;

    #[test]
    fn disk_area_model_matches_pi_r_squared() {
        let m = EnergyModel::DISK_AREA;
        assert!((m.energy(2.0) - 4.0 * std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(m.energy(0.0), 0.0);
    }

    #[test]
    fn network_loads() {
        let mut net = Network::from_positions(
            0.1,
            [
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
            ],
        );
        for (i, r) in [0.1, 0.2, 0.3].into_iter().enumerate() {
            net.set_sensing_radius(crate::NodeId(i), r);
        }
        let m = EnergyModel::DISK_AREA;
        assert!((m.max_load(&net) - m.energy(0.3)).abs() < 1e-12);
        let total = m.energy(0.1) + m.energy(0.2) + m.energy(0.3);
        assert!((m.total_load(&net) - total).abs() < 1e-12);
        let ratio = m.energy(0.1) / m.energy(0.3);
        assert!((m.balance_ratio(&net) - ratio).abs() < 1e-12);
    }

    #[test]
    fn custom_exponent() {
        let m = EnergyModel::new(1.0, 4.0);
        assert!((m.energy(2.0) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_network_degenerate_loads() {
        let net = Network::new(0.1);
        let m = EnergyModel::DISK_AREA;
        assert_eq!(m.max_load(&net), 0.0);
        assert_eq!(m.total_load(&net), 0.0);
        assert_eq!(m.balance_ratio(&net), 1.0);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn non_increasing_model_rejected() {
        let _ = EnergyModel::new(1.0, 0.0);
    }
}
