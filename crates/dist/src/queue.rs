//! The tick-bucketed event queue.
//!
//! Events live in a slab; an ordered map from tick to a bucket of
//! 4-byte slot indices holds them. A bucket keeps its events in push
//! order, so [`EventQueue::pop_batch`] hands over the minimum tick's
//! whole bucket already in processing order — no heap sift, no batch
//! sort and no sequence numbers. The executor walks each batch serially.
//!
//! An event pushed for the tick currently being processed opens a fresh
//! bucket for that tick and lands in the next batch.

use std::collections::BTreeMap;

use crate::executor::{Event, EventKind};

/// Slab-backed events bucketed by tick.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    slab: Vec<Event>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    buckets: BTreeMap<u64, Vec<u32>>,
    /// Drained bucket vectors, recycled so steady state allocates none.
    spare: Vec<Vec<u32>>,
}

impl EventQueue {
    /// Queues `kind` at `tick`, behind every event already queued there.
    pub(crate) fn push(&mut self, tick: u64, kind: EventKind) {
        let ev = Event { tick, kind };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = ev;
                slot
            }
            None => {
                self.slab.push(ev);
                (self.slab.len() - 1) as u32
            }
        };
        let spare = &mut self.spare;
        self.buckets
            .entry(tick)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push(slot);
    }

    /// Total queued events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Moves every event of the minimum queued tick into `batch`, in
    /// push order. Returns `false` (and leaves `batch` empty) when the
    /// queue is drained.
    pub(crate) fn pop_batch(&mut self, batch: &mut Vec<Event>) -> bool {
        batch.clear();
        let Some((_, mut slots)) = self.buckets.pop_first() else {
            return false;
        };
        batch.extend(slots.iter().map(|&slot| self.slab[slot as usize]));
        self.free.extend_from_slice(&slots);
        slots.clear();
        self.spare.push(slots);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laacad_region::sampling::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// An event tagged with its push index, so a batch can be checked
    /// for both membership and order.
    fn tagged(push_index: usize) -> EventKind {
        EventKind::Crash { node: push_index }
    }

    /// `(tick, push index)` of every event in `batch`.
    fn tags(batch: &[Event]) -> Vec<(u64, usize)> {
        batch
            .iter()
            .map(|e| match e.kind {
                EventKind::Crash { node } => (e.tick, node),
                other => panic!("untagged event {other:?}"),
            })
            .collect()
    }

    /// Randomized comparison against a
    /// `BinaryHeap<Reverse<(tick, push index)>>` reference: pushes and
    /// pops interleaved, same-tick re-pushes between batches, far-future
    /// ticks (≥ 10⁶, as partition, crash and probe schedules produce) and
    /// pops on an empty queue. Every batch must equal the reference's run
    /// of minimum-tick entries.
    #[test]
    fn batches_match_a_reference_heap() {
        let mut rng = SplitMix64::new(0x51ED_0F0E);
        for _ in 0..64 {
            let mut q = EventQueue::default();
            let mut reference: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
            let mut pushed = 0usize;
            let mut now = 0u64;
            let mut batch = Vec::new();
            for _ in 0..400 {
                for _ in 0..rng.next_u64() % 6 {
                    let tick = match rng.next_u64() % 8 {
                        // The tick being processed: lands in the next batch.
                        0 | 1 => now,
                        2 => now + 1_000_000 + rng.next_u64() % 1_000_000,
                        _ => now + 1 + rng.next_u64() % 8,
                    };
                    q.push(tick, tagged(pushed));
                    reference.push(Reverse((tick, pushed)));
                    pushed += 1;
                }
                assert_eq!(q.len(), reference.len());
                if rng.next_u64().is_multiple_of(3) {
                    continue;
                }
                let mut expected = Vec::new();
                if let Some(&Reverse((tick, _))) = reference.peek() {
                    while reference.peek().is_some_and(|Reverse((t, _))| *t == tick) {
                        expected.push(reference.pop().unwrap().0);
                    }
                }
                assert_eq!(q.pop_batch(&mut batch), !expected.is_empty());
                assert_eq!(tags(&batch), expected);
                if let Some(&(tick, _)) = expected.first() {
                    now = tick;
                }
            }
            while q.pop_batch(&mut batch) {
                let mut expected = Vec::new();
                let tick = batch[0].tick;
                while reference.peek().is_some_and(|Reverse((t, _))| *t == tick) {
                    expected.push(reference.pop().unwrap().0);
                }
                assert_eq!(tags(&batch), expected);
            }
            assert!(reference.is_empty());
            assert_eq!(q.len(), 0);
            assert!(!q.pop_batch(&mut batch), "empty queue pops nothing");
            assert!(batch.is_empty());
        }
    }

    /// Events pushed for the current minimum tick between barriers are
    /// picked up by the next batch, never lost.
    #[test]
    fn same_tick_repush_lands_in_next_batch() {
        let mut q = EventQueue::default();
        q.push(5, tagged(0));
        q.push(5, tagged(1));
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch));
        assert_eq!(tags(&batch), [(5, 0), (5, 1)]);
        q.push(5, tagged(2));
        q.push(6, tagged(3));
        assert!(q.pop_batch(&mut batch));
        assert_eq!(tags(&batch), [(5, 2)]);
        assert!(q.pop_batch(&mut batch));
        assert_eq!(tags(&batch), [(6, 3)]);
        assert!(!q.pop_batch(&mut batch));
    }
}
