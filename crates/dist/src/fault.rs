//! The pluggable fault model: per-link delay distributions, message
//! loss/duplication, reordering jitter, node crash/recover schedules,
//! Byzantine payload corruption, link-level partition schedules, and
//! per-node clock drift.
//!
//! A [`FaultPlan`] plus the executor seed fully determines a run — every
//! random draw comes from per-node [`SplitMix64`] streams derived from
//! the seed and consumed in deterministic event-processing order,
//! so the same `(seed, plan)` pair replays byte-identically.

use laacad_region::sampling::SplitMix64;

use crate::partition::PartitionSchedule;

/// Per-hop message delay distribution, in whole scheduler ticks on top
/// of the protocol's one-tick base latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayModel {
    /// No extra delay: every message arrives one tick after it is sent
    /// (the synchronous limit).
    #[default]
    None,
    /// A constant extra delay of the given number of ticks.
    Fixed(u64),
    /// Uniform extra delay in `lo..=hi` ticks.
    Uniform {
        /// Minimum extra delay (ticks).
        lo: u64,
        /// Maximum extra delay (ticks, inclusive).
        hi: u64,
    },
    /// Geometric stand-in for an exponential delay with the given mean
    /// (ticks), sampled by inverse CDF and rounded down to whole ticks.
    Exp {
        /// Mean extra delay in ticks (must be positive to have effect).
        mean: f64,
    },
}

impl DelayModel {
    /// Samples one extra delay. Draws from `rng` only when the model can
    /// actually produce a non-zero delay, so a `None` model leaves the
    /// random stream untouched (keeping the zero-fault limit free of
    /// spurious draws).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            DelayModel::None => 0,
            DelayModel::Fixed(ticks) => ticks,
            DelayModel::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    lo + rng.next_u64() % (hi - lo + 1)
                }
            }
            DelayModel::Exp { mean } => {
                if mean <= 0.0 {
                    0
                } else {
                    // Inverse CDF of Exp(1/mean); 1 - u avoids ln(0).
                    let u = 1.0 - rng.next_f64();
                    (-mean * u.ln()).floor().max(0.0) as u64
                }
            }
        }
    }

    /// Whether the model never adds delay.
    pub fn is_zero(&self) -> bool {
        match *self {
            DelayModel::None => true,
            DelayModel::Fixed(ticks) => ticks == 0,
            DelayModel::Uniform { lo, hi } => lo == 0 && hi == 0,
            DelayModel::Exp { mean } => mean <= 0.0,
        }
    }
}

/// One scheduled fail-stop event: the node's coordination plane goes
/// silent at tick `at` (it stops acking, computing and moving — but
/// stays physically deployed and keeps sensing, so neighbors' ring
/// searches still see it), and optionally comes back at `recover_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Index of the node to crash.
    pub node: usize,
    /// Tick at which the crash takes effect.
    pub at: u64,
    /// Tick at which the node recovers (`None` = permanent).
    pub recover_at: Option<u64>,
}

/// The Byzantine payload-corruption model: with probability
/// [`Corruption::rate`] a transmitted hello carries a mutated payload —
/// a position mirrored across the region's bounding box, a stale ρ from
/// the sender's previous round, or a forged sender id.
///
/// With [`Corruption::validate`] on (the default), receivers run a
/// plausibility check on every hello payload — the claimed id must match
/// the link-layer source, the claimed position must be within
/// `γ · (1 + tolerance)` of the receiver, and the claimed ρ must be a
/// finite non-negative number. A claim that fails is rejected and its
/// sender quarantined for [`Corruption::quarantine_ticks`]: the receiver
/// ignores the liar's hellos, the liar exhausts its retries against that
/// neighbor and computes with a partial neighborhood — honest nodes
/// degrade gracefully and the run still terminates.
///
/// With validation off, receivers *believe* what they hear: deviant
/// position claims are absorbed as belief overrides and fed into the
/// victim's next local-view compute, and forged ids misroute acks. The
/// executor counts every absorbed lie
/// ([`crate::ProtocolStats::corrupted_accepted`]) so the divergence is
/// detected and reported, never silent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corruption {
    /// Per-transmitted-hello probability of corruption, in `[0, 1]`.
    pub rate: f64,
    /// Receiver-side payload validation + sender quarantine.
    pub validate: bool,
    /// Ticks a detected liar stays quarantined at the rejecting
    /// receiver.
    pub quarantine_ticks: u64,
    /// Plausibility slack for claimed positions: a claim farther than
    /// `γ · (1 + tolerance)` from the receiver fails validation. The
    /// slack absorbs honest movement during message flight under delay
    /// faults.
    pub tolerance: f64,
}

impl Default for Corruption {
    fn default() -> Self {
        Corruption {
            rate: 0.0,
            validate: true,
            quarantine_ticks: 64,
            tolerance: 0.5,
        }
    }
}

impl Corruption {
    /// Whether this model never mutates a payload.
    pub fn is_zero(&self) -> bool {
        self.rate <= 0.0
    }
}

/// Per-node clock drift/skew: node `i`'s local timers (compute slots,
/// retry timeouts, round gaps) run at rate `1 + U(−rate, rate)` and its
/// first round starts `U{0..=skew}` ticks late, both sampled once per
/// node from a dedicated seed-derived stream at executor construction.
/// Channel latencies are *not* scaled — drift models the node's clock,
/// not the medium.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Drift {
    /// Maximum fractional rate deviation (e.g. `0.2` = clocks run up to
    /// 20% fast or slow). Small rates quantize away on one-tick timers.
    pub rate: f64,
    /// Maximum initial skew in ticks (inclusive).
    pub skew: u64,
}

impl Drift {
    /// Whether this model never perturbs a clock.
    pub fn is_zero(&self) -> bool {
        self.rate <= 0.0 && self.skew == 0
    }
}

/// A complete fault-injection plan for one asynchronous run.
///
/// All probabilities are per message copy in `[0, 1]`. The default plan
/// is fault-free, which is exactly the regime in which the executor is
/// bit-identical to the synchronous [`laacad::Session`] engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a sent message copy is silently dropped.
    pub loss: f64,
    /// Probability that a sent message is delivered twice (the second
    /// copy gets independent delay draws).
    pub duplicate: f64,
    /// Extra per-hop delay distribution.
    pub delay: DelayModel,
    /// Probability that a message copy gets an additional 1–3 ticks of
    /// random latency — the reordering knob: jittered copies overtake
    /// or fall behind their neighbors in the delivery order.
    pub jitter: f64,
    /// Scheduled crash/recover events.
    pub crashes: Vec<CrashEvent>,
    /// Byzantine payload corruption (`None` = all payloads honest).
    pub corruption: Option<Corruption>,
    /// Timed link-level partitions with healing events.
    pub partitions: Vec<PartitionSchedule>,
    /// Per-node clock drift/skew (`None` = ideal clocks).
    pub drift: Option<Drift>,
}

impl FaultPlan {
    /// The fault-free plan (all knobs zero, no crashes).
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_models_sample_deterministically() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let model = DelayModel::Exp { mean: 3.0 };
        let xs: Vec<u64> = (0..32).map(|_| model.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..32).map(|_| model.sample(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x > 0));
    }

    #[test]
    fn zero_delay_models_draw_nothing() {
        let mut rng = SplitMix64::new(1);
        let before = rng.next_u64();
        let mut rng = SplitMix64::new(1);
        assert_eq!(DelayModel::None.sample(&mut rng), 0);
        assert_eq!(DelayModel::Fixed(0).sample(&mut rng), 0);
        // None and Fixed never touch the stream.
        assert_eq!(rng.next_u64(), before);
        assert!(DelayModel::Uniform { lo: 0, hi: 0 }.is_zero());
        assert!(DelayModel::Exp { mean: 0.0 }.is_zero());
        assert!(!DelayModel::Exp { mean: 1.5 }.is_zero());
    }
}
