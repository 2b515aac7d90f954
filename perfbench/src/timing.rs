//! Timing from outside the program: wrappers around the hooks and
//! protocols the benchmark attaches, and per-repetition sample sets.
//!
//! Nothing here reaches inside the crates under test. A [`Timed`] hook or
//! protocol delegates every callback to the object it wraps and adds the
//! callback's wall time to its own total. The simulator applies a
//! callback's effects after the callback returns, so that total is the
//! wrapped layer's own time, never that of the layers below it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vw_netsim::{Context, Hook, Protocol, Verdict};
use vw_packet::Frame;

/// A hook or protocol plus the wall time spent in its callbacks.
pub struct Timed<T> {
    /// The wrapped object.
    pub inner: T,
    /// Wall time spent inside the wrapped object's callbacks.
    pub busy: Duration,
}

impl<T> Timed<T> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
        }
    }

    fn clocked<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.busy += started.elapsed();
        out
    }
}

/// `hook`, boxed for attaching — inside a [`Timed`] wrapper when `traced`.
pub fn hook<H: Hook>(hook: H, traced: bool) -> Box<dyn Hook> {
    if traced {
        Box::new(Timed::new(hook))
    } else {
        Box::new(hook)
    }
}

/// `protocol`, boxed for attaching — inside a [`Timed`] wrapper when
/// `traced`.
pub fn protocol<P: Protocol>(protocol: P, traced: bool) -> Box<dyn Protocol> {
    if traced {
        Box::new(Timed::new(protocol))
    } else {
        Box::new(protocol)
    }
}

impl<H: Hook> Hook for Timed<H> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_outbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.clocked(|h| h.on_outbound(ctx, frame))
    }

    fn on_inbound(&mut self, ctx: &mut Context<'_>, frame: Frame) -> Verdict {
        self.clocked(|h| h.on_inbound(ctx, frame))
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.clocked(|h| h.on_timer(ctx, token));
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clocked(|h| h.on_start(ctx));
    }

    fn on_teardown(&mut self, ctx: &mut Context<'_>) {
        self.clocked(|h| h.on_teardown(ctx));
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clocked(|p| p.on_start(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: Frame) {
        self.clocked(|p| p.on_frame(ctx, frame));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.clocked(|p| p.on_timer(ctx, token));
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Named per-repetition samples, reported as medians.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// Every sample recorded under `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `name` (0 when there are none).
    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(self.get(name)).unwrap_or(0.0)
    }
}

/// Repeats `rep` (passing the repetition number) until `seconds` of wall
/// time have passed, and at least `min_reps` times.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let started = Instant::now();
    let mut n = 0;
    while n < min_reps || started.elapsed().as_secs_f64() < seconds {
        rep(n);
        n += 1;
    }
}

/// Yardstick seconds of the reference host speed that end-to-end numbers
/// are reported at: the yardstick's time on an uncontended 2-CPU host.
pub const YARD_REF_S: f64 = 0.003;

/// Runs `f` between two [`yardstick`] runs. Returns `f`'s result and the
/// factor that rescales a rate measured during `f` to the reference host
/// speed: the yardsticks' mean time over [`YARD_REF_S`]. Divide a time
/// by it, multiply a rate by it.
///
/// The benchmark shares its host: with identical simulated work, the
/// per-repetition rates of one run swing twofold and run medians drift by
/// a quarter over minutes, while the rescaled medians repeat within a few
/// percent. The yardstick is the benchmark's own code, so no change to
/// the program moves it.
pub fn bracketed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = yardstick();
    let out = f();
    let after = yardstick();
    (out, (before + after) / 2.0 / YARD_REF_S)
}

/// Working state of the [`yardstick`]: a 64 Ki-entry timestamp heap and
/// a 64 Ki-key hash map, a few megabytes — a working set that, like the
/// workloads', spills out of the private caches.
struct Yard {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    counts: std::collections::HashMap<u64, u64>,
    x: u64,
}

const YARD_ENTRIES: u64 = 1 << 16;

thread_local! {
    static YARD: std::cell::RefCell<Yard> = std::cell::RefCell::new(Yard {
        heap: (0..YARD_ENTRIES).map(|t| std::cmp::Reverse(t * 7)).collect(),
        counts: (0..YARD_ENTRIES).map(|k| (k, 0)).collect(),
        x: 0x9e37_79b9_7f4a_7c15,
    });
}

/// Wall seconds of a fixed, benchmark-owned computation shaped like a
/// discrete-event loop: 20 000 times, pop the earliest timestamp from the
/// heap, push a later one, bump a hash-map counter and make a small
/// allocation. The heap and map keep their size, so every call does the
/// same work; the first call on a thread builds them before timing.
pub fn yardstick() -> f64 {
    YARD.with(|cell| {
        let yard = &mut *cell.borrow_mut();
        let started = Instant::now();
        let mut sum = 0u64;
        for _ in 0..20_000 {
            yard.x ^= yard.x << 13;
            yard.x ^= yard.x >> 7;
            yard.x ^= yard.x << 17;
            let std::cmp::Reverse(t) = yard.heap.pop().expect("the heap never empties");
            yard.heap.push(std::cmp::Reverse(t + 1 + yard.x % 1024));
            *yard.counts.entry(yard.x % YARD_ENTRIES).or_insert(0) += 1;
            let v = vec![t as u8; 64 + (yard.x % 128) as usize];
            sum = sum.wrapping_add(u64::from(std::hint::black_box(v)[0]));
        }
        std::hint::black_box(sum);
        started.elapsed().as_secs_f64()
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_report_medians() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push("x", v);
        }
        assert_eq!(s.median("x"), 2.0);
        assert_eq!(s.median("missing"), 0.0);
        assert_eq!(s.get("x").len(), 3);
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let mut seen = Vec::new();
        repeat_for(0.0, 3, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
