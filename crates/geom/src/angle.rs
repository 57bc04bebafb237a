//! Angle normalization and interval helpers.
//!
//! The Algorithm 2 ring check reasons about arcs of a circle, i.e. angular
//! intervals. These helpers keep all angle arithmetic in one tested place.

use std::f64::consts::{PI, TAU};

/// Normalizes an angle (radians) into `[0, 2π)`.
///
/// # Example
///
/// ```
/// use laacad_geom::normalize_angle;
/// use std::f64::consts::{PI, TAU};
/// assert!((normalize_angle(-PI) - PI).abs() < 1e-12);
/// assert!(normalize_angle(TAU) < 1e-12);
/// ```
#[inline]
pub fn normalize_angle(theta: f64) -> f64 {
    // `theta % TAU` is libm's `fmod`, a call and a loop per angle; the
    // arc sweeps feed it operands that are almost always already within
    // one turn of the range. On `[0, 2π)` and `(−2π, 0)` `fmod` returns
    // its operand, and on `[2π, 4π)` it returns `theta − 2π`, which is
    // exact by Sterbenz's lemma — so only operands outside `(−2π, 4π)`
    // (and NaN/∞) still take the call. The bits equal the `fmod` form's.
    let mut t = if theta >= 0.0 {
        if theta < TAU {
            return theta;
        }
        if theta < 2.0 * TAU {
            return theta - TAU;
        }
        theta % TAU
    } else if theta > -TAU {
        theta
    } else {
        theta % TAU
    };
    if t < 0.0 {
        t += TAU;
    }
    // `-1e-30 % TAU` is `-0.0 + TAU == TAU`; clamp the boundary.
    if t >= TAU {
        t -= TAU;
    }
    t
}

/// The `fmod` form [`normalize_angle`] replaced, kept as the test
/// oracle its fast paths are checked against bit for bit.
#[cfg(test)]
pub(crate) fn normalize_angle_fmod(theta: f64) -> f64 {
    let mut t = theta % TAU;
    if t < 0.0 {
        t += TAU;
    }
    if t >= TAU {
        t -= TAU;
    }
    t
}

/// Smallest absolute difference between two angles, in `[0, π]`.
#[inline]
pub fn angular_distance(a: f64, b: f64) -> f64 {
    let d = normalize_angle(a - b);
    if d > PI {
        TAU - d
    } else {
        d
    }
}

/// Returns `true` when angle `theta` lies inside the counter-clockwise
/// interval from `start` to `end` (all radians, any range).
///
/// The interval is closed; when `start == end` it contains only that single
/// direction. An interval spanning the full circle should be handled by the
/// caller (pass `start`, `start + 2π − ε`).
#[inline]
pub fn ccw_contains(start: f64, end: f64, theta: f64) -> bool {
    let span = normalize_angle(end - start);
    let off = normalize_angle(theta - start);
    off <= span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_into_range() {
        for &t in &[-10.0, -PI, -0.5, 0.0, 0.5, PI, TAU, 12.0] {
            let n = normalize_angle(t);
            assert!((0.0..TAU).contains(&n), "normalize({t}) = {n}");
            // Same direction.
            assert!((n.sin() - t.sin()).abs() < 1e-9);
            assert!((n.cos() - t.cos()).abs() < 1e-9);
        }
    }

    #[test]
    fn normalize_is_bit_identical_to_fmod_form() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut cases = vec![
            0.0,
            -0.0,
            TAU,
            -TAU,
            2.0 * TAU,
            -2.0 * TAU,
            ulp_down(TAU),
            ulp_up(TAU),
            ulp_down(2.0 * TAU),
            ulp_up(2.0 * TAU),
            ulp_up(-TAU),
            ulp_down(-TAU),
            -1e-30,
            1e-300,
            -1e-300,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Random values in (−8π, 8π): every branch of the fast form.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            cases.push((2.0 * u - 1.0) * 4.0 * TAU);
        }
        for t in cases {
            let (fast, reference) = (normalize_angle(t), normalize_angle_fmod(t));
            assert!(
                fast.to_bits() == reference.to_bits() || (fast.is_nan() && reference.is_nan()),
                "normalize_angle({t:e}) = {fast:e}, fmod form {reference:e}"
            );
        }
    }

    #[test]
    fn normalize_handles_negative_zero() {
        let n = normalize_angle(-0.0);
        assert!((0.0..TAU).contains(&n));
    }

    #[test]
    fn angular_distance_symmetric() {
        assert!((angular_distance(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((angular_distance(TAU - 0.1, 0.1) - 0.2).abs() < 1e-12);
        assert!((angular_distance(0.0, PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn ccw_contains_wrapping_interval() {
        // Interval from 3π/2 ccw to π/2 passes through 0.
        assert!(ccw_contains(4.712, 1.57, 0.0));
        assert!(!ccw_contains(4.712, 1.57, PI));
        assert!(ccw_contains(0.0, PI, 1.0));
        assert!(!ccw_contains(0.0, PI, 4.0));
    }
}
