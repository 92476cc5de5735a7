//! The wave: the eddy's unit of memory as well as of routing.
//!
//! Tuples move through the eddy in waves — a module's output re-entering
//! the dataflow, a group of same-destination tuples awaiting one policy
//! decision, an envelope queued at a module. All three are the same rows,
//! so they are one buffer type, [`Wave`], that changes hands instead of
//! being copied into a fresh shape at each step:
//!
//! 1. **delivery** — a source (scan emission, index reply, module output,
//!    unpark) fills a wave with tuples, their [`TupleState`]s and a
//!    per-member *clustered* mark (set only by a Grace release, §3.1);
//! 2. **group** — the eddy sorts the delivery's members into groups, one
//!    per distinct candidate signature ([`Wave::actions`]); all members
//!    of a group share the signature, the clustered mark and the priority
//!    flag. A delivery of at most one envelope's members is its own first
//!    group: the members that join it stay where they are, compacted in
//!    place ([`Wave::sift`]), and only the others move out into group
//!    waves from the pool. A key-uniform delivery so becomes a group with
//!    no member moved. A larger delivery moves every member out;
//! 3. **envelope** — a dispatched group is queued at its module as is,
//!    and the module works on it in place where it can (a Select hop
//!    compacts it to the survivors; an index-AM hop marks the states; a
//!    build stamps its fresh singletons and compacts the rest out, a
//!    Grace release inserted clustered) or drains it into a second wave
//!    (a probe's concatenations interleaved with its bounced probers);
//! 4. **output** — that wave waits in the module's runtime slot for the
//!    completion event and re-enters at 1.
//!
//! Whoever finishes with a wave hands it to the executor's [`WavePool`];
//! whoever needs one takes it from there. The pool is **bounded**: at
//! most [`MAX_FREE_WAVES`] buffers, none with room for more than one
//! full envelope's members (`max(batch_size, MIN_KEEP_ROWS)`). The bound
//! is part of the design, not a knob: a server drains dozens of executors
//! at once, and free lists that grew to each executor's high-water mark
//! cost more resident memory than they saved in allocator calls (measured
//! on `server_fold`: +14 % peak RSS unbounded, +4 % bounded). Past the
//! bound a buffer is simply dropped and the next taker allocates.
//!
//! A wave filled from a known count — a *group* that opens on a buffer
//! with no room yet, a scan chunk or index reply, a probe's output — is
//! sized once, for the members it can still receive
//! ([`WavePool::take_sized`]): growing by doubling requests about twice
//! the bytes, in two `Vec`s, and can end above what the pool retains. A
//! member of a wave is a [`Tuple`] and a [`TupleState`] side by side; a
//! singleton `Tuple` carries its component inline, so moving one between
//! waves moves 32 bytes and frees nothing.

use crate::router::Action;
use crate::tuple_state::TupleState;
use stems_types::Tuple;

/// Buffers a [`WavePool`] retains at most.
pub(crate) const MAX_FREE_WAVES: usize = 4;

/// Member capacity every pool is willing to retain whatever the batch
/// size: a tuple-at-a-time engine still sees probe results and index
/// replies arrive a few dozen at a time.
pub(crate) const MIN_KEEP_ROWS: usize = 64;

/// One wave of tuples (see the module docs): the tuples, parallel to them
/// their routing states, and the clustered marks.
#[derive(Debug, Default)]
pub(crate) struct Wave {
    tuples: Vec<Tuple>,
    states: Vec<TupleState>,
    /// The members a Grace release marked clustered, as index runs
    /// `[start, end)` in member order. Almost always empty, so the common
    /// member costs two pushes, not three.
    clustered: Vec<(usize, usize)>,
    /// While the wave is an open or flushed *group*: the candidate
    /// signature its members share. Empty in every other phase.
    pub(crate) actions: Vec<Action>,
}

impl Wave {
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    pub(crate) fn push(&mut self, tuple: Tuple, state: TupleState, clustered: bool) {
        if clustered {
            let i = self.states.len();
            match self.clustered.last_mut() {
                Some(run) if run.1 == i => run.1 += 1,
                _ => self.clustered.push((i, i + 1)),
            }
        }
        self.tuples.push(tuple);
        self.states.push(state);
    }

    pub(crate) fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub(crate) fn states(&self) -> &[TupleState] {
        &self.states
    }

    /// The tuples, mutably, beside their states — a build moves its fresh
    /// singletons out of the envelope instead of copying them.
    pub(crate) fn tuples_mut(&mut self) -> (&mut [Tuple], &[TupleState]) {
        (&mut self.tuples, &self.states)
    }

    /// The clustered mark of a group or envelope — its members share it.
    pub(crate) fn clustered(&self) -> bool {
        self.clustered.first().is_some_and(|run| run.0 == 0)
    }

    /// The priority flag of a group or envelope — its members share it.
    pub(crate) fn prioritized(&self) -> bool {
        self.states.first().is_some_and(|s| s.prioritized)
    }

    /// Move every member out, in order, each with its clustered mark; the
    /// wave keeps its allocations.
    /// `Vec::drain` moves each member out whole and leaves nothing behind
    /// to drop, where a [`Sift`] take leaves an empty placeholder.
    pub(crate) fn drain(
        &mut self,
    ) -> impl ExactSizeIterator<Item = (Tuple, TupleState, bool)> + '_ {
        debug_assert!(self.tuples.len() == self.states.len());
        let runs = std::mem::take(&mut self.clustered);
        // Members come in index order, so one cursor walks the runs.
        let mut next = 0;
        let mut clustered = move |i: usize| {
            while runs.get(next).is_some_and(|run| run.1 <= i) {
                next += 1;
            }
            runs.get(next).is_some_and(|run| run.0 <= i)
        };
        let members = self.tuples.drain(..).zip(self.states.drain(..));
        members
            .enumerate()
            .map(move |(i, (tuple, state))| (tuple, state, clustered(i)))
    }

    /// Walk the members in order, keeping each in place or moving it out
    /// (see [`Sift`]); the wave keeps its allocations.
    pub(crate) fn sift(&mut self) -> Sift<'_> {
        debug_assert!(self.tuples.len() == self.states.len());
        let runs = std::mem::take(&mut self.clustered);
        Sift {
            wave: self,
            runs,
            next_run: 0,
            at: 0,
            kept: 0,
        }
    }

    /// Keep, in place and in order, the members `keep` approves (it may
    /// rewrite them on the way); survivors leave unclustered.
    pub(crate) fn compact(
        &mut self,
        mut keep: impl FnMut(usize, &mut Tuple, &mut TupleState) -> bool,
    ) {
        let mut sift = self.sift();
        let mut i = 0;
        while let Some((tuple, state, _)) = sift.next() {
            if keep(i, tuple, state) {
                sift.keep(false);
            }
            i += 1;
        }
    }

    /// Insert `members` at position `at`, in order and marked clustered,
    /// ahead of the members from `at` on — a Grace release among the
    /// survivors of a compacted build envelope, which holds no marks.
    pub(crate) fn insert_clustered(
        &mut self,
        at: usize,
        members: impl IntoIterator<Item = (Tuple, TupleState)>,
    ) {
        debug_assert!(self.clustered.is_empty() && at <= self.len());
        let end = self.len();
        for (tuple, state) in members {
            self.tuples.push(tuple);
            self.states.push(state);
        }
        let added = self.len() - end;
        if added > 0 {
            self.tuples[at..].rotate_right(added);
            self.states[at..].rotate_right(added);
            self.clustered.push((at, at + added));
        }
    }

    fn clear(&mut self) {
        self.tuples.clear();
        self.states.clear();
        self.clustered.clear();
        self.actions.clear();
    }

    /// Members this buffer has room for without growing.
    fn capacity(&self) -> usize {
        self.states.capacity()
    }
}

/// One in-place pass over a wave's members ([`Wave::sift`]): each member,
/// in order, is either kept — moved down behind the members kept before
/// it, with its clustered mark — or taken out; one left neither is
/// dropped. When the pass ends the wave holds the kept members alone.
pub(crate) struct Sift<'a> {
    wave: &'a mut Wave,
    /// The wave's clustered runs as they were, walked by one cursor.
    runs: Vec<(usize, usize)>,
    next_run: usize,
    /// Members visited so far; the current one is `at - 1`.
    at: usize,
    kept: usize,
}

impl Sift<'_> {
    /// The next member — its tuple, its state (mutable) and its clustered
    /// mark. Keep it or take it before asking for the one after.
    pub(crate) fn next(&mut self) -> Option<(&mut Tuple, &mut TupleState, bool)> {
        let i = self.at;
        let state = self.wave.states.get_mut(i)?;
        self.at += 1;
        while self.runs.get(self.next_run).is_some_and(|run| run.1 <= i) {
            self.next_run += 1;
        }
        let clustered = self.runs.get(self.next_run).is_some_and(|run| run.0 <= i);
        Some((&mut self.wave.tuples[i], state, clustered))
    }

    /// Members not yet visited.
    pub(crate) fn remaining(&self) -> usize {
        self.wave.len() - self.at
    }

    /// Keep the current member in the wave.
    pub(crate) fn keep(&mut self, clustered: bool) {
        let (i, k) = (self.at - 1, self.kept);
        if i != k {
            self.wave.tuples.swap(k, i);
            self.wave.states.swap(k, i);
        }
        if clustered {
            match self.wave.clustered.last_mut() {
                Some(run) if run.1 == k => run.1 += 1,
                _ => self.wave.clustered.push((k, k + 1)),
            }
        }
        self.kept += 1;
    }

    /// Move the current member out of the wave.
    pub(crate) fn take(&mut self) -> (Tuple, TupleState) {
        let i = self.at - 1;
        let tuple = std::mem::replace(&mut self.wave.tuples[i], Tuple::empty());
        (tuple, std::mem::take(&mut self.wave.states[i]))
    }

    /// How many members have been kept.
    pub(crate) fn kept(&self) -> usize {
        self.kept
    }

    /// The wave's signature: the kept members' group's, once it opens.
    pub(crate) fn actions(&mut self) -> &mut Vec<Action> {
        &mut self.wave.actions
    }
}

impl Drop for Sift<'_> {
    fn drop(&mut self) {
        self.wave.tuples.truncate(self.kept);
        self.wave.states.truncate(self.kept);
    }
}

/// An executor's bounded free list of [`Wave`] buffers (see the module
/// docs for the bound and why it exists).
#[derive(Debug)]
pub(crate) struct WavePool {
    free: Vec<Wave>,
    /// Largest member capacity worth retaining.
    keep_rows: usize,
}

impl WavePool {
    /// The pool of an executor routing at most `batch_size` members per
    /// envelope.
    pub(crate) fn new(batch_size: usize) -> WavePool {
        WavePool {
            free: Vec::with_capacity(MAX_FREE_WAVES),
            keep_rows: batch_size.max(MIN_KEEP_ROWS),
        }
    }

    /// An empty wave: the most recently recycled buffer, or a new one.
    pub(crate) fn take(&mut self) -> Wave {
        self.free.pop().unwrap_or_default()
    }

    /// An empty wave for a group of at most `rows` members. A buffer with
    /// no room yet (new, or recycled before it ever held a member) is
    /// sized once and exactly: doubling 4 → 64 in two `Vec`s requests
    /// twice the bytes and can overshoot what [`Self::put`] retains.
    pub(crate) fn take_sized(&mut self, rows: usize) -> Wave {
        let mut wave = self.take();
        if wave.capacity() == 0 {
            wave.tuples = Vec::with_capacity(rows);
            wave.states.reserve_exact(rows);
        }
        wave
    }

    /// Hand a wave back. Whatever it still holds is dropped; the buffer
    /// is retained only within the pool's bound.
    pub(crate) fn put(&mut self, mut wave: Wave) {
        if self.free.len() < MAX_FREE_WAVES && wave.capacity() <= self.keep_rows {
            wave.clear();
            self.free.push(wave);
        }
    }

    /// `(buffers retained, member capacity retained in total)`.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> (usize, usize) {
        (
            self.free.len(),
            self.free.iter().map(Wave::capacity).sum::<usize>(),
        )
    }

    /// Largest total member capacity the pool can ever retain.
    #[cfg(test)]
    pub(crate) fn bound_rows(&self) -> usize {
        MAX_FREE_WAVES * self.keep_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{TableIdx, Value};

    fn t(k: i64) -> Tuple {
        Tuple::singleton_of(TableIdx(0), vec![Value::Int(k)])
    }

    fn filled(n: i64) -> Wave {
        let mut w = Wave::default();
        for k in 0..n {
            w.push(t(k), TupleState::new(), k % 2 == 1);
        }
        w
    }

    #[test]
    fn drain_hands_members_on_in_order() {
        let mut w = filled(3);
        assert_eq!(w.len(), 3);
        assert!(
            !w.clustered(),
            "the first member's mark stands for the group"
        );
        let members: Vec<_> = w.drain().collect();
        assert_eq!(
            members.iter().map(|m| m.0.clone()).collect::<Vec<_>>(),
            vec![t(0), t(1), t(2)]
        );
        assert_eq!(
            members.iter().map(|m| m.2).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert!(w.is_empty() && w.tuples().is_empty());
        assert!(w.capacity() >= 3);
    }

    #[test]
    fn clustered_marks_survive_as_runs() {
        let mut w = Wave::default();
        for (k, mark) in [true, true, false, true, false, false]
            .into_iter()
            .enumerate()
        {
            w.push(t(k as i64), TupleState::new(), mark);
        }
        assert_eq!(w.clustered, vec![(0, 2), (3, 4)]);
        assert!(w.clustered(), "a Grace release leads this wave");
        let marks: Vec<bool> = w.drain().map(|m| m.2).collect();
        assert_eq!(marks, vec![true, true, false, true, false, false]);
        assert!(w.clustered.is_empty() && !w.clustered());
    }

    #[test]
    fn compact_keeps_survivors_in_order_and_unclusters_them() {
        let mut w = filled(6);
        w.compact(|i, tuple, state| {
            assert_eq!(*tuple, t(i as i64));
            state.hops = i as u32;
            i % 3 != 0
        });
        assert_eq!(w.tuples(), &[t(1), t(2), t(4), t(5)]);
        let hops: Vec<u32> = w.states().iter().map(|s| s.hops).collect();
        assert_eq!(hops, vec![1, 2, 4, 5]);
        assert!(w.drain().all(|(_, _, clustered)| !clustered));
    }

    #[test]
    fn sift_keeps_members_in_place_and_moves_the_rest_out() {
        let mut w = filled(6);
        let buffer = w.tuples().as_ptr();
        let mut taken = Vec::new();
        let mut sift = w.sift();
        while let Some((tuple, state, clustered)) = sift.next() {
            let k = match tuple.components()[0].row.values()[0] {
                Value::Int(k) => k,
                _ => unreachable!(),
            };
            assert_eq!(clustered, k % 2 == 1);
            state.hops = k as u32;
            match k {
                0 | 3 | 4 => sift.keep(clustered),
                5 => {} // left: dropped with the pass
                _ => taken.push(sift.take()),
            }
        }
        assert_eq!(sift.kept(), 3);
        drop(sift);
        assert_eq!(w.tuples(), &[t(0), t(3), t(4)]);
        assert_eq!(w.tuples().as_ptr(), buffer, "no member moved buffers");
        let hops: Vec<u32> = w.states().iter().map(|s| s.hops).collect();
        assert_eq!(hops, vec![0, 3, 4]);
        assert_eq!(w.clustered, vec![(1, 2)], "marks follow the kept members");
        let taken: Vec<(Tuple, u32)> = taken.into_iter().map(|(t, s)| (t, s.hops)).collect();
        assert_eq!(taken, vec![(t(1), 1), (t(2), 2)]);
    }

    #[test]
    fn insert_clustered_lands_between_the_members_around_it() {
        let mut w = filled(4);
        w.compact(|_, _, _| true);
        w.insert_clustered(1, [(t(10), TupleState::new()), (t(11), TupleState::new())]);
        assert_eq!(w.tuples(), &[t(0), t(10), t(11), t(1), t(2), t(3)]);
        let marks: Vec<bool> = w.drain().map(|m| m.2).collect();
        assert_eq!(marks, vec![false, true, true, false, false, false]);
        // At the end, and nothing to insert.
        let mut w = filled(2);
        w.compact(|_, _, _| true);
        w.insert_clustered(0, []);
        assert!(w.clustered.is_empty());
        w.insert_clustered(2, [(t(7), TupleState::new())]);
        assert_eq!(w.clustered, vec![(2, 3)]);
    }

    /// A group's wave is sized when it opens: filling it allocates nothing
    /// more, and at exactly one envelope's members it goes back to the pool.
    #[test]
    fn a_group_wave_is_sized_once_and_stays_poolable() {
        let mut pool = WavePool::new(64);
        let (allocs, mut w) = crate::test_alloc::allocs_during(|| pool.take_sized(64));
        assert_eq!((allocs, w.capacity()), (2, 64), "tuples and states, once");
        let members: Vec<Tuple> = (0..64).map(t).collect();
        let (allocs, ()) = crate::test_alloc::allocs_during(|| {
            for m in members {
                w.push(m, TupleState::new(), false);
            }
        });
        assert_eq!((allocs, w.capacity()), (0, 64));
        pool.put(w);
        assert_eq!(pool.retained(), (1, 64));
        // A recycled buffer is taken as it is; one recycled before it ever
        // held a member has no room and is sized like a new one.
        assert_eq!(pool.take_sized(8).capacity(), 64);
        pool.put(Wave::default());
        let w = pool.take_sized(8);
        assert_eq!((w.capacity(), w.tuples.len()), (8, 0));
    }

    #[test]
    fn pool_is_bounded_in_count_and_in_capacity() {
        let mut pool = WavePool::new(1);
        // A 1 024-member wave comes back: too large to be worth keeping.
        pool.put(filled(1024));
        assert_eq!(pool.retained(), (0, 0));
        // Any number of small waves come back: a constant few are kept.
        for _ in 0..10_000 {
            let mut w = pool.take();
            w.push(t(1), TupleState::new(), false);
            w.actions.push(Action::Drop);
            let extra = filled(1);
            pool.put(w);
            pool.put(extra);
        }
        let (buffers, rows) = pool.retained();
        assert!(buffers <= MAX_FREE_WAVES, "{buffers} buffers retained");
        assert!(rows <= pool.bound_rows(), "{rows} member slots retained");
        // A recycled buffer comes back empty, signature included.
        let w = pool.take();
        assert!(w.is_empty() && w.actions.is_empty() && w.tuples().is_empty());
        // An executor with a larger envelope keeps buffers of that size.
        let mut pool = WavePool::new(1024);
        pool.put(filled(1024));
        assert_eq!(pool.retained().0, 1);
    }
}
