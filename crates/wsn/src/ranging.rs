//! Noisy pairwise ranging.
//!
//! The paper relies "on the ranging ability of each node to construct a
//! local coordinate system" (Sec. III-A). We model a range measurement as
//! `d̂ = d·(1 + ε_rel) + ε_abs` with independent zero-mean Gaussian errors,
//! symmetric per pair (both endpoints see the same measurement, as after
//! a two-way exchange).

use laacad_geom::Point;
use laacad_region::sampling::SplitMix64;

/// Gaussian ranging-noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangingNoise {
    /// Relative (multiplicative) standard deviation.
    pub rel_sigma: f64,
    /// Absolute (additive) standard deviation, in coordinate units.
    pub abs_sigma: f64,
}

impl RangingNoise {
    /// Noise-free ranging (the default for the paper-replication runs).
    pub const NONE: RangingNoise = RangingNoise {
        rel_sigma: 0.0,
        abs_sigma: 0.0,
    };

    /// Creates a noise model.
    ///
    /// # Panics
    ///
    /// Panics on negative sigmas.
    pub fn new(rel_sigma: f64, abs_sigma: f64) -> Self {
        assert!(
            rel_sigma >= 0.0 && abs_sigma >= 0.0,
            "noise sigmas must be non-negative"
        );
        RangingNoise {
            rel_sigma,
            abs_sigma,
        }
    }

    /// Returns `true` when both sigmas are zero.
    pub fn is_none(&self) -> bool {
        self.rel_sigma == 0.0 && self.abs_sigma == 0.0
    }
}

impl Default for RangingNoise {
    fn default() -> Self {
        RangingNoise::NONE
    }
}

/// One standard-normal draw (Box–Muller over SplitMix64).
fn gaussian(rng: &mut SplitMix64) -> f64 {
    let u1 = rng.next_f64().max(1e-12);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Symmetric measured-distance matrix for `points` under `noise`.
///
/// Entry `(i, j)` is the measured range between points `i` and `j`;
/// diagonal entries are zero. Measurements are clamped to be non-negative.
///
/// # Example
///
/// ```
/// use laacad_geom::Point;
/// use laacad_wsn::ranging::{measure_all, RangingNoise};
/// let pts = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
/// let d = measure_all(&pts, &RangingNoise::NONE, 1);
/// assert!((d[0][1] - 5.0).abs() < 1e-12);
/// assert_eq!(d[0][1], d[1][0]);
/// ```
pub fn measure_all(points: &[Point], noise: &RangingNoise, seed: u64) -> Vec<Vec<f64>> {
    let n = points.len();
    let mut rng = SplitMix64::new(seed);
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let true_d = points[i].distance(points[j]);
            let measured = if noise.is_none() {
                true_d
            } else {
                let rel = gaussian(&mut rng) * noise.rel_sigma;
                let abs = gaussian(&mut rng) * noise.abs_sigma;
                (true_d * (1.0 + rel) + abs).max(0.0)
            };
            d[i][j] = measured;
            d[j][i] = measured;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_matrix_is_exact_and_symmetric() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 2.0),
        ];
        let d = measure_all(&pts, &RangingNoise::NONE, 42);
        for i in 0..3 {
            assert_eq!(d[i][i], 0.0);
            for j in 0..3 {
                assert_eq!(d[i][j], d[j][i]);
                assert!((d[i][j] - pts[i].distance(pts[j])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn noise_perturbs_but_stays_nonnegative() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        let noise = RangingNoise::new(0.05, 0.01);
        let d = measure_all(&pts, &noise, 7);
        let mut any_different = false;
        for i in 0..10 {
            for j in 0..10 {
                assert!(d[i][j] >= 0.0);
                if i != j && (d[i][j] - pts[i].distance(pts[j])).abs() > 1e-9 {
                    any_different = true;
                }
            }
        }
        assert!(any_different, "noise must actually perturb");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SplitMix64::new(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let _ = RangingNoise::new(-0.1, 0.0);
    }
}
