//! Adaptive retransmission policies and per-node RTT estimation.
//!
//! The PR 7 retry layer re-sent missing hellos every `ack_timeout`
//! ticks, a fixed cadence that is either too eager (wasted
//! retransmissions when links are merely slow) or too lazy (idle waiting
//! when they are fast and lossy). [`Backoff::ExponentialJittered`]
//! replaces the fixed cadence with a TCP-style adaptive one: each node
//! estimates its hello→ack round-trip time with an EWMA
//! ([`RttEstimator`], smoothed RTT + 4·variance, Karn's rule: no samples
//! from retransmitted rounds), starts its retry timer there, doubles it
//! per attempt, caps it, and stretches it by a deterministic per-node
//! jitter draw so synchronized timeout storms decorrelate. The benefit
//! is observable, not assumed: `ProtocolStats::retransmissions` counts
//! it, and `tests/adversarial.rs` runs fixed vs adaptive at 10 % loss.

use laacad_region::sampling::SplitMix64;

/// Retransmission timeout policy for the hello/ack retry layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Backoff {
    /// Retry every `ack_timeout` ticks — the PR 7 behavior and the
    /// default.
    #[default]
    Fixed,
    /// Adaptive policy: the first retry fires after the node's RTT
    /// estimate (falling back to `ack_timeout` before any sample), each
    /// further attempt doubles the timeout up to `cap`, and every
    /// timeout is stretched by up to `jitter` (a fraction in `[0, 1]`)
    /// drawn from the node's fault stream.
    ExponentialJittered {
        /// Upper bound on any single retry timeout, in ticks.
        cap: u64,
        /// Jitter fraction: each timeout becomes
        /// `t · (1 + jitter · u)`, `u ∈ [0, 1)`.
        jitter: f64,
    },
}

impl Backoff {
    /// The timeout before retry `attempt` (0-based) for a node whose
    /// adaptive base is `rto` and whose fixed cadence is `ack_timeout`.
    /// Draws from `rng` only in the jittered adaptive mode, so the
    /// default policy leaves the random streams untouched.
    pub(crate) fn timeout(
        &self,
        ack_timeout: u64,
        rto: u64,
        attempt: u32,
        rng: &mut SplitMix64,
    ) -> u64 {
        match *self {
            Backoff::Fixed => ack_timeout,
            Backoff::ExponentialJittered { cap, jitter } => {
                let cap = cap.max(1);
                let shift = attempt.min(16);
                let t = rto.max(1).saturating_mul(1u64 << shift).min(cap);
                if jitter > 0.0 {
                    let u = rng.next_f64();
                    let stretched = (t as f64) * (1.0 + jitter.min(1.0) * u);
                    (stretched.round() as u64).clamp(1, cap.saturating_mul(2))
                } else {
                    t
                }
            }
        }
    }
}

/// TCP-style smoothed round-trip estimator over whole scheduler ticks
/// (RFC 6298 coefficients: `srtt ← 7/8·srtt + 1/8·s`,
/// `rttvar ← 3/4·rttvar + 1/4·|srtt − s|`, RTO = `srtt + 4·rttvar`).
/// Everything is deterministic f64 arithmetic on tick counts — no
/// wall-clock anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    samples: u64,
}

impl RttEstimator {
    /// Feeds one hello→ack round-trip observation (ticks).
    pub fn observe(&mut self, sample: u64) {
        let s = sample as f64;
        if self.samples == 0 {
            self.srtt = s;
            self.rttvar = s / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * s;
        }
        self.samples += 1;
    }

    /// Number of samples absorbed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current retransmission timeout: `⌈srtt + 4·rttvar⌉` ticks, or
    /// `fallback` before the first sample. Never below 1.
    pub fn rto(&self, fallback: u64) -> u64 {
        if self.samples == 0 {
            return fallback.max(1);
        }
        ((self.srtt + 4.0 * self.rttvar).ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_converges_on_a_steady_rtt() {
        let mut est = RttEstimator::default();
        for _ in 0..64 {
            est.observe(6);
        }
        // Variance decays toward zero, so the RTO approaches the RTT.
        assert!(est.rto(100) >= 6 && est.rto(100) <= 9, "{}", est.rto(100));
    }

    #[test]
    fn rto_falls_back_before_any_sample() {
        let est = RttEstimator::default();
        assert_eq!(est.rto(4), 4);
        assert_eq!(est.rto(0), 1);
    }

    #[test]
    fn fixed_backoff_never_draws() {
        let mut rng = SplitMix64::new(9);
        let before = rng.state();
        let t = Backoff::Fixed.timeout(4, 99, 3, &mut rng);
        assert_eq!(t, 4);
        assert_eq!(rng.state(), before);
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let mut rng = SplitMix64::new(9);
        let policy = Backoff::ExponentialJittered {
            cap: 32,
            jitter: 0.0,
        };
        assert_eq!(policy.timeout(4, 5, 0, &mut rng), 5);
        assert_eq!(policy.timeout(4, 5, 1, &mut rng), 10);
        assert_eq!(policy.timeout(4, 5, 2, &mut rng), 20);
        assert_eq!(policy.timeout(4, 5, 3, &mut rng), 32);
        assert_eq!(policy.timeout(4, 5, 60, &mut rng), 32);
    }

    #[test]
    fn jitter_stretches_within_bounds() {
        let mut rng = SplitMix64::new(11);
        let policy = Backoff::ExponentialJittered {
            cap: 64,
            jitter: 0.5,
        };
        for attempt in 0..8 {
            let t = policy.timeout(4, 8, attempt, &mut rng);
            let base = (8u64 << attempt.min(16)).min(64);
            assert!(t >= base && t as f64 <= base as f64 * 1.5 + 1.0);
        }
    }
}
