//! A hierarchical timer wheel for handler timers.
//!
//! Retransmission-style timers (the Reliable Link Layer's per-frame retx
//! timers, the engine's control-plane pump, TCP's RTOs) are set in large
//! numbers and almost always cancelled before they fire. Keeping them in
//! the global event [`BinaryHeap`](std::collections::BinaryHeap) means
//! every set/fire churns an `O(log n)` structure shared with frame
//! events, and a cancelled timer could only be skipped when it finally
//! popped. The wheel gives timers their own home with `O(log slots)`
//! insert, `O(1)` peek, amortized-cheap pop, and a [`remove`] that
//! looks in one slot per level, so a cancel takes the timer out at once.
//!
//! ## Structure
//!
//! Four levels with slot granularities of `2^13`, `2^19`, `2^25` and
//! `2^31` nanoseconds (≈8.2µs, ≈524µs, ≈33.6ms, ≈2.15s). Unlike the
//! classic circular-buffer wheel, each level is a `BTreeMap` keyed by the
//! *absolute* slot number (`deadline >> shift`). Absolute keys sidestep
//! the wrap-around staleness hazards of a circular wheel: a slot's window
//! start is recoverable from its key alone, so an entry parked far in the
//! future is found by `first_key_value` no matter how long it sits.
//!
//! An entry is placed in the shallowest level whose span covers its
//! distance from `base` (the time of the last pop); entries beyond the
//! deepest span simply live in the deepest level, whose absolute keys
//! have unlimited range. The earliest `(time, seq)` is cached, so peeks
//! (which the event queue does once per event to merge lanes) are free.
//! When the cache must be rebuilt after a pop, any deeper-level slot
//! whose window could precede the level-0 candidate is *cascaded* —
//! spliced down with its level capped one below the source, so entries
//! migrate toward level 0 as their deadline nears and each entry moves at
//! most `levels - 1` times in its lifetime.
//!
//! Ordering is by `(time, seq)` where `seq` comes from the shared event
//! sequence counter — merged with heap events, the pop order is identical
//! to what a single heap would produce.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// Bit shifts defining each level's slot granularity.
const SHIFTS: [u32; 4] = [13, 19, 25, 31];

/// Level `l` spans deltas below `2^SPAN_BITS[l]`; deltas at or beyond the
/// last span still go to the deepest level (absolute keys are unbounded).
const SPAN_BITS: [u32; 4] = [19, 25, 31, 37];

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

/// A deterministic hierarchical timer wheel; pops in `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct TimerWheel<T> {
    levels: [BTreeMap<u64, Vec<Entry<T>>>; 4],
    /// Time of the most recent pop; cascade decisions and level selection
    /// measure distance from here.
    base: SimTime,
    len: usize,
    /// The earliest `(time, seq)` parked anywhere in the wheel.
    cached_min: Option<(SimTime, u64)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel {
            levels: [
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
                BTreeMap::new(),
            ],
            base: SimTime::ZERO,
            len: 0,
            cached_min: None,
        }
    }
}

impl<T> TimerWheel<T> {
    /// Inserts a timer due at `time` with global sequence number `seq`.
    pub fn insert(&mut self, time: SimTime, seq: u64, payload: T) {
        if self.cached_min.is_none_or(|m| (time, seq) < m) {
            self.cached_min = Some((time, seq));
        }
        self.insert_capped(time, seq, payload, SHIFTS.len() - 1);
    }

    fn insert_capped(&mut self, time: SimTime, seq: u64, payload: T, max_level: usize) {
        let delta = time.as_nanos().saturating_sub(self.base.as_nanos());
        let mut level = max_level;
        for (l, &bits) in SPAN_BITS.iter().enumerate().take(max_level) {
            if delta < (1u64 << bits) {
                level = l;
                break;
            }
        }
        let slot = time.as_nanos() >> SHIFTS[level];
        self.levels[level]
            .entry(slot)
            .or_default()
            .push(Entry { time, seq, payload });
        self.len += 1;
    }

    /// Number of timers currently parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The `(time, seq)` of the earliest timer, without removing it.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.cached_min
    }

    /// Removes and returns the earliest timer as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let (time, seq) = self.cached_min?;
        // The globally earliest entry is necessarily in the first slot of
        // whatever level holds it (slot keys are monotone in time).
        let mut found: Option<Entry<T>> = None;
        for level in &mut self.levels {
            let Some((&slot, entries)) = level.first_key_value() else {
                continue;
            };
            if let Some(pos) = entries.iter().position(|e| e.time == time && e.seq == seq) {
                let entries = level.get_mut(&slot).expect("slot exists");
                let entry = entries.swap_remove(pos);
                if entries.is_empty() {
                    level.remove(&slot);
                }
                found = Some(entry);
                break;
            }
        }
        let entry = found.expect("cached minimum must be present in a first slot");
        self.len -= 1;
        if time > self.base {
            self.base = time;
        }
        self.rebuild_min();
        Some((entry.time, entry.seq, entry.payload))
    }

    /// Removes the timer `(time, seq)` and returns its payload, or `None`
    /// if it is not parked here (already popped, or never inserted). An
    /// entry always sits in slot `time >> shift` of the level its insert
    /// or last cascade chose, so at most one slot per level is searched.
    pub fn remove(&mut self, time: SimTime, seq: u64) -> Option<T> {
        for (level, &shift) in self.levels.iter_mut().zip(&SHIFTS) {
            let slot = time.as_nanos() >> shift;
            let Some(entries) = level.get_mut(&slot) else {
                continue;
            };
            let Some(pos) = entries.iter().position(|e| e.seq == seq) else {
                continue;
            };
            let entry = entries.swap_remove(pos);
            if entries.is_empty() {
                level.remove(&slot);
            }
            self.len -= 1;
            if self.cached_min == Some((time, seq)) {
                self.rebuild_min();
            }
            return Some(entry.payload);
        }
        None
    }

    /// Recomputes `cached_min` after a pop or the removal of the minimum.
    /// Scans level 0's first slot for a candidate, then cascades down any
    /// deeper slot whose window start could precede it; repeats until no
    /// deeper level can compete. Each
    /// splice moves entries at least one level down, so an entry cascades
    /// at most `levels - 1` times over its lifetime.
    fn rebuild_min(&mut self) {
        loop {
            let mut candidate: Option<(SimTime, u64)> = None;
            if let Some((_, entries)) = self.levels[0].first_key_value() {
                for e in entries {
                    if candidate.is_none_or(|c| (e.time, e.seq) < c) {
                        candidate = Some((e.time, e.seq));
                    }
                }
            }
            let mut spliced = false;
            for (level, &shift) in SHIFTS.iter().enumerate().skip(1) {
                let Some((&slot, _)) = self.levels[level].first_key_value() else {
                    continue;
                };
                let window_start = slot << shift;
                // `<=` not `<`: an equal-time entry with a smaller seq
                // may hide in this window.
                if candidate.is_none_or(|(t, _)| window_start <= t.as_nanos()) {
                    let entries = self.levels[level].remove(&slot).expect("slot exists");
                    for e in entries {
                        self.len -= 1;
                        self.insert_capped(e.time, e.seq, e.payload, level - 1);
                    }
                    spliced = true;
                    break;
                }
            }
            if !spliced {
                self.cached_min = candidate;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, HashMap};

    use super::*;

    /// Tiny deterministic LCG so the model test needs no RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::default();
        w.insert(SimTime::from_nanos(500), 2, "b");
        w.insert(SimTime::from_nanos(100), 3, "c");
        w.insert(SimTime::from_nanos(500), 1, "a");
        assert_eq!(w.peek(), Some((SimTime::from_nanos(100), 3)));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("c"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("a"));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some("b"));
        assert_eq!(w.pop().map(|(_, _, p)| p), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn spans_pick_expected_levels_and_still_pop_in_order() {
        let mut w = TimerWheel::default();
        // One timer per level span, inserted out of order, plus one far
        // beyond the deepest span (parks in the deepest level).
        let times: [u64; 5] = [
            1 << 36,    // ~69s  -> level 3
            1 << 16,    // ~66µs -> level 0
            1 << 30,    // ~1.1s -> level 2
            1 << 22,    // ~4ms  -> level 1
            1u64 << 40, // ~18min -> beyond spans, deepest level
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(SimTime::from_nanos(t), i as u64, t);
        }
        let mut popped = Vec::new();
        while let Some((t, _, p)) = w.pop() {
            assert_eq!(t.as_nanos(), p);
            popped.push(p);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 5);
    }

    #[test]
    fn matches_a_sorted_model_on_random_workloads() {
        let mut rng = Lcg(0x5eed);
        let (mut removed_min, mut removed_cascaded, mut removed_popped) = (0, 0, 0);
        for round in 0..20 {
            let mut w = TimerWheel::default();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let n = 50 + round * 13;
            for seq in 0..n {
                // Mix of near, mid, and far deadlines.
                let t = match rng.next() % 4 {
                    0 => rng.next() % (1 << 14),
                    1 => rng.next() % (1 << 22),
                    2 => rng.next() % (1 << 30),
                    _ => rng.next() % (1 << 38),
                };
                w.insert(SimTime::from_nanos(t), seq, (t, seq));
                model.push((t, seq));
            }
            model.sort_unstable();
            let mut got = Vec::new();
            while let Some((_, _, p)) = w.pop() {
                got.push(p);
            }
            assert_eq!(got, model, "round {round}");

            // Same shape of workload, now with removals interleaved with
            // the pops; the wheel must track the model after every step.
            let mut w = TimerWheel::default();
            let mut model = BTreeSet::new();
            let mut insert_level = HashMap::new();
            let mut popped = Vec::new();
            for seq in 0..n {
                let t = match rng.next() % 4 {
                    0 => rng.next() % (1 << 14),
                    1 => rng.next() % (1 << 22),
                    2 => rng.next() % (1 << 30),
                    _ => rng.next() % (1 << 38),
                };
                w.insert(SimTime::from_nanos(t), seq, (t, seq));
                model.insert((t, seq));
                insert_level.insert(seq, level_of(&w, seq));
            }
            while let Some(&first) = model.first() {
                match rng.next() % 6 {
                    0 => {
                        // The cached minimum itself.
                        assert_eq!(w.remove(SimTime::from_nanos(first.0), first.1), Some(first));
                        model.remove(&first);
                        removed_min += 1;
                    }
                    1 | 2 => {
                        let (t, seq) = *model
                            .iter()
                            .nth(rng.next() as usize % model.len())
                            .expect("non-empty");
                        if level_of(&w, seq) < insert_level[&seq] {
                            removed_cascaded += 1;
                        }
                        assert_eq!(w.remove(SimTime::from_nanos(t), seq), Some((t, seq)));
                        model.remove(&(t, seq));
                    }
                    3 if !popped.is_empty() => {
                        let (t, seq) = popped[rng.next() as usize % popped.len()];
                        assert_eq!(w.remove(SimTime::from_nanos(t), seq), None);
                        removed_popped += 1;
                    }
                    _ => {
                        let (_, _, p) = w.pop().expect("model is non-empty");
                        assert_eq!(model.pop_first(), Some(p), "round {round}");
                        popped.push(p);
                    }
                }
                assert_eq!(w.len(), model.len());
                let model_min = model.first().map(|&(t, s)| (SimTime::from_nanos(t), s));
                assert_eq!(w.peek(), model_min, "round {round}");
            }
            assert!(w.pop().is_none());
        }
        assert!(removed_min > 0, "no removal of the cached minimum");
        assert!(removed_cascaded > 0, "no removal of a cascaded entry");
        assert!(removed_popped > 0, "no removal of a popped entry");
    }

    /// The level currently holding the entry with sequence number `seq`.
    fn level_of<T>(w: &TimerWheel<T>, seq: u64) -> usize {
        w.levels
            .iter()
            .position(|level| level.values().flatten().any(|e| e.seq == seq))
            .expect("entry is parked")
    }

    #[test]
    fn interleaved_insert_and_pop_stays_ordered() {
        let mut rng = Lcg(42);
        let mut w = TimerWheel::default();
        let mut seq = 0u64;
        let mut last: Option<(SimTime, u64)> = None;
        let mut now = 0u64;
        for _ in 0..400 {
            if !rng.next().is_multiple_of(3) || w.len() == 0 {
                // Timers are always set in the future of the current clock.
                let t = now + rng.next() % (1 << 26);
                seq += 1;
                w.insert(SimTime::from_nanos(t), seq, ());
            } else {
                let (t, s, ()) = w.pop().unwrap();
                now = t.as_nanos();
                if let Some((lt, ls)) = last {
                    assert!((t, s) > (lt, ls), "pop order regressed");
                }
                last = Some((t, s));
            }
        }
    }

    #[test]
    fn clustered_far_future_timers_pop_correctly() {
        // Many timers landing in one deep slot must cascade down and
        // still pop in (time, seq) order.
        let mut w = TimerWheel::default();
        let base = 1u64 << 30;
        for seq in 0..200u64 {
            // All within one level-2 window, sub-ordered by offset.
            let t = base + (199 - seq) * 100;
            w.insert(SimTime::from_nanos(t), seq, t);
        }
        let mut prev = 0;
        let mut count = 0;
        while let Some((t, _, p)) = w.pop() {
            assert_eq!(t.as_nanos(), p);
            assert!(p >= prev);
            prev = p;
            count += 1;
        }
        assert_eq!(count, 200);
    }
}
