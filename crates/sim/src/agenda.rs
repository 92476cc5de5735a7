//! The event agenda: a time-ordered queue with stable FIFO tie-breaking.
//!
//! # The current-instant lane
//!
//! Much of what an executor schedules lands at the instant it is
//! processing — a bounce-back, a wave routed on, a module freed — and a
//! binary heap charges each of those a sift on push and another on pop.
//! An event scheduled at the time of the last pop joins a FIFO lane
//! instead. Order is unchanged, exactly `(time, seq)`: nothing may be
//! scheduled before the last pop, so the lane holds the smallest time
//! there is, in increasing `seq`; the only events that can precede its
//! front are heap entries at that same time with a smaller `seq` —
//! scheduled before the clock reached it — and [`EventQueue::pop`] compares
//! the two fronts. The clock cannot move on while the lane holds an event,
//! so the lane never holds two times.

use crate::Time;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An entry in the agenda. Ordered by time, then insertion sequence, so
/// same-time events fire in the order they were scheduled — this is what
/// makes the whole simulation deterministic.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event agenda.
///
/// ```
/// use stems_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b"))); // FIFO among ties
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Events scheduled at `last_popped`, in `seq` order (see the module
    /// doc).
    lane: VecDeque<(u64, E)>,
    next_seq: u64,
    last_popped: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            last_popped: 0,
        }
    }

    /// Schedule `event` at absolute virtual time `time`.
    ///
    /// Panics (debug builds) if `time` is before the last popped event —
    /// scheduling into the past would break causality.
    pub fn push(&mut self, time: Time, event: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if time == self.last_popped {
            self.lane.push_back((seq, event));
        } else {
            self.heap.push(Entry { time, seq, event });
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let heap_first = match (self.lane.front(), self.heap.peek()) {
            (None, None) => return None,
            (Some(&(seq, _)), Some(top)) => (top.time, top.seq) < (self.last_popped, seq),
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        if heap_first {
            let e = self.heap.pop().expect("peeked");
            debug_assert!(self.lane.is_empty() || e.time == self.last_popped);
            self.last_popped = e.time;
            Some((e.time, e.event))
        } else {
            let (_, event) = self.lane.pop_front().expect("peeked");
            Some((self.last_popped, event))
        }
    }

    /// The time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        let lane = self.lane.front().map(|_| self.last_popped);
        let heap = self.heap.peek().map(|e| e.time);
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(5, ());
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(1, "a");
        q.push(5, "c");
        assert_eq!(q.pop(), Some((1, "a")));
        q.push(3, "b");
        q.push(5, "d");
        assert_eq!(q.pop(), Some((3, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), Some((5, "d")));
    }

    /// Events scheduled at an instant before the clock reached it precede
    /// the ones scheduled once it had: the lane waits behind the heap.
    #[test]
    fn earlier_scheduled_ties_precede_the_lane() {
        let mut q = EventQueue::new();
        q.push(5, "first");
        q.push(5, "second");
        assert_eq!(q.pop(), Some((5, "first")));
        q.push(5, "third"); // now == 5: the lane
        q.push(9, "fifth");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((5, "second")));
        q.push(5, "fourth");
        assert_eq!(q.pop(), Some((5, "third")));
        assert_eq!(q.pop(), Some((5, "fourth")));
        assert_eq!(q.pop(), Some((9, "fifth")));
        assert_eq!(q.pop(), None);
    }

    /// The heap-only agenda the lane must reproduce exactly.
    struct HeapOnly(BinaryHeap<Entry<u64>>, u64);

    impl HeapOnly {
        fn push(&mut self, time: Time, event: u64) {
            self.0.push(Entry {
                time,
                seq: self.1,
                event,
            });
            self.1 += 1;
        }
        fn pop(&mut self) -> Option<(Time, u64)> {
            self.0.pop().map(|e| (e.time, e.event))
        }
    }

    /// Random interleavings of pushes and pops, most pushes at the instant
    /// of the last pop, against a heap-only reference: the same pops, the
    /// same `peek_time` and the same `len` at every step.
    #[test]
    fn lane_pops_in_heap_order() {
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut want = HeapOnly(BinaryHeap::new(), 0);
            let mut now: Time = 0;
            for event in 0..rng.below(400) {
                if rng.chance(0.55) {
                    let time = if rng.chance(0.6) {
                        now
                    } else {
                        now + rng.below(6)
                    };
                    q.push(time, event);
                    want.push(time, event);
                } else {
                    let got = q.pop();
                    assert_eq!(got, want.pop(), "seed {seed} event {event}");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                assert_eq!(q.len(), want.0.len(), "seed {seed}");
                assert_eq!(q.is_empty(), want.0.is_empty(), "seed {seed}");
                assert_eq!(q.peek_time(), want.0.peek().map(|e| e.time), "seed {seed}");
            }
            while let Some(next) = want.pop() {
                assert_eq!(q.pop(), Some(next), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None);
        }
    }
}
