//! The discrete-event queue.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use vw_packet::Frame;

use crate::id::{DeviceId, HandlerRef, LinkId, PortRef, TimerId};
use crate::time::SimTime;
use crate::timer_wheel::TimerWheel;

/// The kinds of events the simulator processes.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// A frame committed to `from`'s transmitter reaches the far end of
    /// `link`: serialisation and propagation are both over. The link's
    /// error model and the control impairment are applied now.
    Cross {
        from: PortRef,
        link: LinkId,
        frame: Frame,
    },
    /// A frame arrives at a port with no link crossing left to model
    /// (wire injections, impairment-delayed control frames).
    Arrive { to: PortRef, frame: Frame },
    /// A handler's timer fired.
    Timer {
        node: DeviceId,
        handler: HandlerRef,
        token: u64,
        id: TimerId,
    },
    /// Deliver a start/poke callback to a handler.
    Start { node: DeviceId, handler: HandlerRef },
    /// Continue an outbound frame at hook index `idx` of `node`'s chain.
    OutboundChain {
        node: DeviceId,
        idx: usize,
        frame: Frame,
    },
    /// Continue an inbound frame; the next hook to visit is `next - 1`,
    /// and `next == 0` delivers to the protocol stack.
    InboundChain {
        node: DeviceId,
        next: usize,
        frame: Frame,
    },
}

#[derive(Debug)]
pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    // Reverse ordering: the BinaryHeap is a max-heap, we want earliest
    // first, ties broken by insertion order for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Multiplicative-mix hasher for dense integer ids. The parked-timer map
/// is touched on every timer set, cancel and fire, where sip-hashing a
/// `u64` is pure overhead; the map is never iterated, so ordering is moot.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

/// A deterministic priority queue of events: earliest time first, FIFO
/// within a timestamp.
///
/// Two lanes share one sequence counter, so the merged pop order is
/// byte-identical to a single heap's:
///
/// - a **timer wheel** for handler timers, which are numerous and almost
///   always cancelled before firing (see [`TimerWheel`]); a cancel
///   removes the timer from the wheel at once, so dead timers are never
///   popped;
/// - a **heap** for every other event.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    timers: TimerWheel<EventKind>,
    /// Where each timer still in the wheel is parked, so a cancel can
    /// find it by id.
    parked: HashMap<TimerId, (SimTime, u64), IdBuildHasher>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            seq: self.next_seq,
            kind,
        });
    }

    /// Parks timer `id` in the wheel until it fires or is
    /// [cancelled](Self::cancel_timer). Pop order is unaffected (the
    /// lanes share the sequence counter); only the cost profile changes.
    pub fn push_timer(&mut self, time: SimTime, id: TimerId, kind: EventKind) {
        self.next_seq += 1;
        self.parked.insert(id, (time, self.next_seq));
        self.timers.insert(time, self.next_seq, kind);
    }

    /// Removes timer `id` from the queue. Cancelling a timer that already
    /// fired, or an unknown id, does nothing.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if let Some((time, seq)) = self.parked.remove(&id) {
            self.timers.remove(time, seq);
        }
    }

    /// Which lane holds the next event, by `(time, seq)`, and its time.
    fn min_lane(&self) -> Option<(Lane, SimTime)> {
        let heap = self.heap.peek().map(|e| (e.time, e.seq));
        match (heap, self.timers.peek()) {
            (Some(h), Some(w)) if w < h => Some((Lane::Wheel, w.0)),
            (Some((time, _)), _) => Some((Lane::Heap, time)),
            (None, Some((time, _))) => Some((Lane::Wheel, time)),
            (None, None) => None,
        }
    }

    fn pop_lane(&mut self, lane: Lane) -> Option<Event> {
        match lane {
            Lane::Heap => self.heap.pop(),
            Lane::Wheel => {
                // The wheel's pop cascades deep slots toward level 0;
                // the span makes that (amortized) cost visible.
                let _span = vw_trace::span("timer_wheel_pop", vw_trace::Category::Event);
                let (time, seq, kind) = self.timers.pop()?;
                if let EventKind::Timer { id, .. } = kind {
                    self.parked.remove(&id);
                }
                Some(Event { time, seq, kind })
            }
        }
    }

    pub fn pop(&mut self) -> Option<Event> {
        let (lane, _) = self.min_lane()?;
        self.pop_lane(lane)
    }

    /// Pops the next event only if it is due at `time` exactly — the
    /// run loops use this to drain a whole timestamp batch after a single
    /// [`peek_time`](Self::peek_time). One lane comparison per event.
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event> {
        let (lane, t) = self.min_lane()?;
        if t != time {
            return None;
        }
        self.pop_lane(lane)
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_lane().map(|(_, t)| t)
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone, Copy)]
enum Lane {
    Heap,
    Wheel,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(node: usize) -> EventKind {
        EventKind::Start {
            node: DeviceId::from_index(node),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), start(3));
        q.push(SimTime::from_nanos(10), start(1));
        q.push(SimTime::from_nanos(20), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_nanos(5), start(i));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "same-time events must pop in insertion order");
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(7), start(0));
        q.push(SimTime::from_nanos(3), start(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn timers_merge_by_time_then_seq_and_a_cancel_removes_them() {
        let timer = |id: u64| EventKind::Timer {
            node: DeviceId::from_index(0),
            handler: HandlerRef::Protocol(crate::id::ProtocolId::from_index(0)),
            token: id,
            id: TimerId(id),
        };
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), start(0));
        q.push_timer(SimTime::from_nanos(5), TimerId(1), timer(1));
        q.push_timer(SimTime::from_nanos(3), TimerId(2), timer(2));
        q.push(SimTime::from_nanos(5), start(1));
        q.cancel_timer(TimerId(2));
        q.cancel_timer(TimerId(9));
        assert_eq!(q.len(), 3);
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 4]);
        // Timer 1 fired: cancelling it now is a no-op.
        q.cancel_timer(TimerId(1));
        assert!(q.is_empty());
    }
}
