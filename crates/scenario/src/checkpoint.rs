//! Mid-run checkpointing of synchronous scenario runs.
//!
//! A [`ScenarioCheckpoint`] captures **everything** a running scenario
//! needs to continue: the engine state as a `laacad-snapshot/4` buffer
//! ([`laacad::Session::snapshot`]), the timeline hook's resumable state
//! (next event index, victim/placement RNG state, applied-event log),
//! the per-round series of the outcome rows (the session keeps no round
//! records, so the scenario's own observer collects it, coverage probes
//! included), and the loop verdict of the checkpointed round. Resuming from a checkpoint and running to
//! completion produces a [`crate::ScenarioOutcome`] **bit-identical**
//! to the uninterrupted run — pinned by this module's tests and the
//! `checkpoint_roundtrip` integration test.
//!
//! The wire format is `laacad-checkpoint/3`: the magic line, then the
//! length-prefixed session snapshot, then the hook and round sections,
//! all integers little-endian u64 and floats as IEEE-754 bit patterns
//! (the same conventions as the session snapshot it embeds), then an
//! FNV-1a 64 checksum ([`laacad::fnv1a64`]) of everything before it.
//! The embedded snapshot carries its own checksum, but the loop
//! verdict, the hook's RNG state and the round series lie outside it
//! and have no other consistency check: without this checksum a
//! flipped bit there decodes cleanly and resumes to a different
//! answer. Resume also cross-checks the header round, the length of the
//! round series and the hook's event cursor against the restored
//! session, so a well-formed but inconsistent file is refused rather
//! than re-firing applied events or reporting a round twice.
//!
//! Campaigns opt in with `checkpoint_every = <rounds>` at the top level
//! of the campaign document; the runner then writes
//! `<name>.cell<index>.checkpoint` beside the result files and resumes
//! from it when a killed campaign is rerun (see [`crate::run_campaign`]).
//! A single run checkpoints and resumes through
//! [`crate::CheckpointPolicy`].

use crate::engine::{RoundMetric, RoundProbe};
use crate::events::{AppliedEvent, TimelineHook};
use crate::spec::{ScenarioSpec, SpecError};
use laacad::{fnv1a64, ObservedRound, Session, SessionBuilder};

/// First bytes of every serialized checkpoint; the trailing newline
/// makes `head -1` on a checkpoint file print the version.
pub const CHECKPOINT_MAGIC: &[u8] = b"laacad-checkpoint/3\n";

/// The resumable state of a synchronous scenario run, captured after a
/// completed round (events fired, round recorded).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCheckpoint {
    /// Round the checkpoint was taken after (1-based).
    round: usize,
    /// `laacad-snapshot/4` bytes of the session.
    session: Vec<u8>,
    /// Loop verdict of the checkpointed round: an observer demanded a
    /// stop. Needed so resume does not step past a round the
    /// uninterrupted run ended on.
    stop: bool,
    /// Loop verdict: an observer overrode the convergence stop.
    keep_running: bool,
    /// Timeline hook: index of the next unfired event.
    hook_next: usize,
    /// Timeline hook: SplitMix64 state of the victim/placement stream.
    hook_rng: u64,
    /// Timeline hook: events applied (or skipped) so far.
    hook_log: Vec<AppliedEvent>,
    /// The outcome rows' per-round series so far, one per round.
    rounds: Vec<RoundMetric>,
}

impl ScenarioCheckpoint {
    /// The round this checkpoint was taken after.
    pub fn round(&self) -> usize {
        self.round
    }

    pub(crate) fn capture(
        sim: &Session,
        probe: &RoundProbe,
        hook: &TimelineHook,
        verdict: &ObservedRound,
    ) -> Self {
        let (hook_next, hook_rng, log) = hook.checkpoint();
        ScenarioCheckpoint {
            round: verdict.delta.report.round,
            session: sim.snapshot(),
            stop: verdict.stop,
            keep_running: verdict.keep_running,
            hook_next,
            hook_rng,
            hook_log: log.to_vec(),
            rounds: probe.rounds.clone(),
        }
    }

    /// Rebuilds the run state this checkpoint captured: the session,
    /// the timeline hook and the round series, plus whether the
    /// interrupted run had already ended on the checkpointed round.
    ///
    /// # Errors
    ///
    /// [`SpecError::Build`] when the embedded session snapshot fails
    /// validation, when the header round or the length of the round
    /// series differs from the restored session's round count, or when
    /// the hook's event cursor and log do not match the timeline entries
    /// due by that round.
    pub(crate) fn restore(
        &self,
        spec: &ScenarioSpec,
    ) -> Result<(Session, TimelineHook, RoundProbe, bool), SpecError> {
        let sim = SessionBuilder::restore(&self.session).map_err(|e| {
            SpecError::Build(format!("cannot restore the checkpointed session: {e}"))
        })?;
        if self.round != sim.rounds_executed() {
            return Err(SpecError::Build(format!(
                "checkpoint: header says round {} but the session executed {}",
                self.round,
                sim.rounds_executed()
            )));
        }
        if self.rounds.len() != self.round {
            return Err(SpecError::Build(format!(
                "checkpoint: {} recorded rounds for round {}",
                self.rounds.len(),
                self.round
            )));
        }
        let hook = TimelineHook::restore(
            &spec.events,
            self.round,
            self.hook_next,
            self.hook_rng,
            self.hook_log.clone(),
        )
        .map_err(|e| SpecError::Build(format!("checkpoint: {e}")))?;
        let probe = RoundProbe {
            samples: spec.evaluation.round_coverage_samples,
            rounds: self.rounds.clone(),
        };
        // The interrupted run may have ended on the checkpointed round;
        // re-applying its loop verdict keeps resume from stepping one
        // round further than the uninterrupted run.
        let done = self.stop || (sim.is_converged() && !self.keep_running);
        Ok((sim, hook, probe, done))
    }

    /// Serializes as a `laacad-checkpoint/3` buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 72 + self.session.len());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        put_u64(&mut out, self.round as u64);
        put_u64(&mut out, self.session.len() as u64);
        out.extend_from_slice(&self.session);
        out.push(self.stop as u8);
        out.push(self.keep_running as u8);
        put_u64(&mut out, self.hook_next as u64);
        put_u64(&mut out, self.hook_rng);
        put_u64(&mut out, self.hook_log.len() as u64);
        for e in &self.hook_log {
            put_u64(&mut out, e.round as u64);
            put_str(&mut out, &e.action);
            put_u64(&mut out, e.removed as u64);
            put_u64(&mut out, e.inserted as u64);
            match &e.skipped {
                None => out.push(0),
                Some(reason) => {
                    out.push(1);
                    put_str(&mut out, reason);
                }
            }
        }
        put_u64(&mut out, self.rounds.len() as u64);
        for r in &self.rounds {
            put_u64(&mut out, r.round as u64);
            put_u64(&mut out, r.max_circumradius.to_bits());
            put_u64(&mut out, r.min_circumradius.to_bits());
            put_u64(&mut out, r.nodes_moved as u64);
            match r.covered_fraction {
                None => out.push(0),
                Some(fraction) => {
                    out.push(1);
                    put_u64(&mut out, fraction.to_bits());
                }
            }
        }
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Deserializes a `laacad-checkpoint/3` buffer.
    ///
    /// # Errors
    ///
    /// [`SpecError::Build`] on a wrong magic line, a checksum mismatch,
    /// truncation, trailing bytes, or malformed sections. The embedded
    /// session snapshot is *not* decoded here — [`crate::run_scenario`]
    /// does that when it resumes from the checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SpecError> {
        let corrupt = |m: &str| SpecError::Build(format!("checkpoint: {m}"));
        if bytes.len() < CHECKPOINT_MAGIC.len() + 8
            || &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC
        {
            return Err(corrupt("not a laacad-checkpoint/3 buffer"));
        }
        let (bytes, checksum) = bytes.split_at(bytes.len() - 8);
        if fnv1a64(bytes).to_le_bytes() != checksum {
            return Err(corrupt("checksum mismatch"));
        }
        let mut r = Cursor {
            bytes,
            at: CHECKPOINT_MAGIC.len(),
        };
        let round = r.take_u64()? as usize;
        let session_len = r.take_u64()? as usize;
        let session = r.take_bytes(session_len)?.to_vec();
        let stop = r.take_bool()?;
        let keep_running = r.take_bool()?;
        let hook_next = r.take_u64()? as usize;
        let hook_rng = r.take_u64()?;
        let log_len = r.take_count(8)?;
        let mut hook_log = Vec::with_capacity(log_len);
        for _ in 0..log_len {
            let round = r.take_u64()? as usize;
            let action = r.take_str()?;
            let removed = r.take_u64()? as usize;
            let inserted = r.take_u64()? as usize;
            let skipped = if r.take_bool()? {
                Some(r.take_str()?)
            } else {
                None
            };
            hook_log.push(AppliedEvent {
                round,
                action,
                removed,
                inserted,
                skipped,
            });
        }
        let rounds_len = r.take_count(33)?;
        let mut rounds = Vec::with_capacity(rounds_len);
        for _ in 0..rounds_len {
            rounds.push(RoundMetric {
                round: r.take_u64()? as usize,
                max_circumradius: f64::from_bits(r.take_u64()?),
                min_circumradius: f64::from_bits(r.take_u64()?),
                nodes_moved: r.take_u64()? as usize,
                covered_fraction: if r.take_bool()? {
                    Some(f64::from_bits(r.take_u64()?))
                } else {
                    None
                },
            });
        }
        if r.at != bytes.len() {
            return Err(corrupt("trailing bytes after the round section"));
        }
        Ok(ScenarioCheckpoint {
            round,
            session,
            stop,
            keep_running,
            hook_next,
            hook_rng,
            hook_log,
            rounds,
        })
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn take_bytes(&mut self, len: usize) -> Result<&[u8], SpecError> {
        if self.bytes.len() - self.at < len {
            return Err(SpecError::Build("checkpoint: truncated buffer".into()));
        }
        let slice = &self.bytes[self.at..self.at + len];
        self.at += len;
        Ok(slice)
    }

    fn take_u64(&mut self) -> Result<u64, SpecError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn take_bool(&mut self) -> Result<bool, SpecError> {
        match self.take_bytes(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SpecError::Build(format!(
                "checkpoint: invalid bool byte {other}"
            ))),
        }
    }

    /// An element count, bounded by the bytes actually remaining so a
    /// corrupt length cannot drive a huge allocation.
    fn take_count(&mut self, elem_bytes: usize) -> Result<usize, SpecError> {
        let count = self.take_u64()? as usize;
        if count > (self.bytes.len() - self.at) / elem_bytes.max(1) {
            return Err(SpecError::Build(
                "checkpoint: section count exceeds the remaining bytes".into(),
            ));
        }
        Ok(count)
    }

    fn take_str(&mut self) -> Result<String, SpecError> {
        let len = self.take_count(1)?;
        let bytes = self.take_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SpecError::Build("checkpoint: invalid UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EventAction, EventSpec, PlacementSpec, ScenarioSpec};
    use crate::{run_scenario, CheckpointPolicy, RunOptions, ScenarioOutcome};

    fn run_checkpointed(
        spec: &ScenarioSpec,
        seed: u64,
        every: usize,
        resume: Option<&ScenarioCheckpoint>,
        sink: &mut dyn FnMut(&ScenarioCheckpoint) -> Result<(), SpecError>,
    ) -> Result<ScenarioOutcome, SpecError> {
        let checkpoint = Some(CheckpointPolicy {
            every,
            resume,
            sink,
        });
        run_scenario(
            spec,
            seed,
            RunOptions {
                checkpoint,
                ..RunOptions::default()
            },
        )
    }

    /// A failure+churn scenario exercising every checkpointed component:
    /// RNG-consuming events on both sides of the checkpoint and a
    /// round series with coverage probes.
    fn churn_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::uniform("ckpt", 24, 1);
        spec.laacad.max_rounds = 60;
        spec.evaluation.round_coverage_samples = 400;
        spec.evaluation.coverage_samples = 400;
        spec.events = vec![
            EventSpec {
                round: 3,
                action: EventAction::FailFraction { fraction: 0.2 },
            },
            EventSpec {
                round: 12,
                action: EventAction::Insert {
                    placement: PlacementSpec::Clustered {
                        n: 5,
                        center: (0.5, 0.5),
                        radius: 0.1,
                    },
                },
            },
            EventSpec {
                round: 20,
                action: EventAction::FailFraction { fraction: 0.1 },
            },
        ];
        spec
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let spec = churn_spec();
        let plain = run_scenario(&spec, 41, RunOptions::default()).unwrap();
        let mut seen = 0usize;
        let checkpointed = run_checkpointed(&spec, 41, 5, None, &mut |_| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert!(seen > 1, "expected several checkpoints, saw {seen}");
        assert_eq!(plain, checkpointed);
    }

    #[test]
    fn resume_from_every_checkpoint_is_bit_identical() {
        let spec = churn_spec();
        let plain = run_scenario(&spec, 41, RunOptions::default()).unwrap();
        let mut checkpoints = Vec::new();
        run_checkpointed(&spec, 41, 7, None, &mut |c| {
            checkpoints.push(c.clone());
            Ok(())
        })
        .unwrap();
        assert!(checkpoints.len() > 1);
        for ckpt in &checkpoints {
            let resumed = run_checkpointed(&spec, 41, 0, Some(ckpt), &mut |_| Ok(())).unwrap();
            assert_eq!(plain, resumed, "resume from round {}", ckpt.round());
        }
    }

    #[test]
    fn bytes_round_trip_and_reject_corruption() {
        let spec = churn_spec();
        let mut first = None;
        run_checkpointed(&spec, 9, 10, None, &mut |c| {
            if first.is_none() {
                first = Some(c.clone());
            }
            Ok(())
        })
        .unwrap();
        let ckpt = first.expect("a checkpoint fired");
        let bytes = ckpt.to_bytes();
        assert_eq!(ScenarioCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
        assert!(ScenarioCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(ScenarioCheckpoint::from_bytes(&wrong_magic).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(ScenarioCheckpoint::from_bytes(&trailing).is_err());
        // A resumed copy that went through bytes behaves identically.
        let decoded = ScenarioCheckpoint::from_bytes(&bytes).unwrap();
        let a = run_checkpointed(&spec, 9, 0, Some(&ckpt), &mut |_| Ok(())).unwrap();
        let b = run_checkpointed(&spec, 9, 0, Some(&decoded), &mut |_| Ok(())).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resume_refuses_a_header_or_event_cursor_that_disagrees_with_the_session() {
        let spec = churn_spec();
        let mut round5 = None;
        run_checkpointed(&spec, 41, 5, None, &mut |c| {
            round5.get_or_insert_with(|| c.clone());
            Ok(())
        })
        .unwrap();
        // The round-3 event has fired; the round-12 one has not.
        let ckpt = round5.expect("a checkpoint fired");
        assert_eq!((ckpt.round, ckpt.hook_next), (5, 1));
        let resume =
            |c: &ScenarioCheckpoint| run_checkpointed(&spec, 41, 0, Some(c), &mut |_| Ok(()));
        assert!(resume(&ckpt).is_ok());
        for (what, bad) in [
            (
                "round ahead",
                ScenarioCheckpoint {
                    round: 6,
                    ..ckpt.clone()
                },
            ),
            (
                "re-fires",
                ScenarioCheckpoint {
                    hook_next: 0,
                    hook_log: Vec::new(),
                    ..ckpt.clone()
                },
            ),
            (
                "skips ahead",
                ScenarioCheckpoint {
                    hook_next: 2,
                    ..ckpt.clone()
                },
            ),
            (
                "short log",
                ScenarioCheckpoint {
                    hook_log: Vec::new(),
                    ..ckpt.clone()
                },
            ),
            (
                "short series",
                ScenarioCheckpoint {
                    rounds: ckpt.rounds[1..].to_vec(),
                    ..ckpt.clone()
                },
            ),
        ] {
            let err = resume(&bad).expect_err(what).to_string();
            assert!(err.contains("checkpoint"), "{what}: {err}");
        }
    }

    #[test]
    fn faults_specs_are_rejected() {
        let mut spec = ScenarioSpec::uniform("f", 10, 1);
        spec.laacad.faults = Some(crate::spec::FaultSpec::default());
        let err = run_checkpointed(&spec, 1, 5, None, &mut |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("checkpointing"), "{err}");
    }
}
