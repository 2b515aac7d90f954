//! The repository benchmark for the VirtualWire reproduction.
//!
//! Three closed-loop workloads, each driven from one process:
//!
//! * [`tower`] — `tower_tcp`: one long TCP bulk transfer over a 3-node
//!   Rether token ring with per-node engines and the RLL on a lossy
//!   10 Mb/s hub. Exercises netsim, rll, rether and tcpstack.
//! * [`flood`] — `flood_engine`: minimum-size UDP frames at line rate
//!   through a switch, classified against a Fig. 8-style table of
//!   never-matching filters, with a counter cascade on every frame and the
//!   Table II faults on a fixed share. Exercises the engine.
//! * [`sweep`] — `daemon_sweep`: a sweep of short `udp_flood` instances
//!   submitted to an in-process `vw-serve` daemon and streamed back.
//!   Exercises fsl compile, campaign digest/JSONL, framing, checkpointing
//!   and telemetry.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! separate traced run reports the per-layer metrics ([`PER_LAYER`]),
//! timed from outside the program: around the calls the benchmark makes
//! into each crate's public API, and inside [`timing::Timed`] wrappers
//! around the hooks and protocols the benchmark itself attaches. The
//! program's own span collector stays off.

pub mod fingerprint;
pub mod flood;
pub mod probes;
pub mod record;
pub mod sim;
pub mod stats;
pub mod sweep;
pub mod timing;
pub mod tower;

use std::collections::BTreeMap;

use fingerprint::Fingerprint;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tower_tcp", "flood_engine", "daemon_sweep"];

/// End-to-end metrics `(name, unit)`: every untraced run prints all of
/// them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("frames_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints all of them.
/// A layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("fsl.parse_us", "us"),
    ("fsl.compile_us", "us"),
    ("core.install_ms", "ms"),
    ("core.control_frames", "count"),
    ("engine.classified", "count"),
    ("engine.rules_scanned_per_frame", "count"),
    ("engine.index_hit_ratio", "ratio"),
    ("engine.max_cascade_depth", "count"),
    ("engine.faults", "count"),
    ("engine.ns_per_frame", "ns"),
    ("netsim.events", "count"),
    ("netsim.events_per_frame", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.port_drops", "count"),
    ("netsim.world_build_us", "us"),
    ("rll.data_sent", "count"),
    ("rll.retransmissions", "count"),
    ("rether.hook_ns", "ns/frame"),
    ("rether.tokens_passed", "count"),
    ("tcp.proto_ns", "ns/frame"),
    ("udp.app_ns", "ns/frame"),
    ("campaign.instance_p50_ms", "ms"),
    ("campaign.instance_p99_ms", "ms"),
    ("campaign.digest_us", "us"),
    ("campaign.jsonl_us", "us"),
    ("serve.first_outcome_ms", "ms"),
    ("serve.overhead_pct", "%"),
    ("serve.stream_bytes", "bytes"),
    ("serve.checkpoint_records", "count"),
    ("serve.checkpoint_bytes", "bytes"),
    ("obs.telemetry_deltas", "count"),
    ("obs.telemetry_overhead_pct", "%"),
    ("obs.telemetry_spread_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_reps", "count"),
    ("trace.traced_reps", "count"),
    ("host.yardstick_ms", "ms"),
];

/// The seed a run uses when none is given. A claim must also hold on
/// seeds it was not tuned on, so comparisons should vary the seed.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds a run measures when none are given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 35.0;

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed; every generated input derives from it.
    pub seed: u64,
    /// Wall-clock seconds to measure for.
    pub seconds: f64,
    /// Small inputs for smoke tests (a few hundred milliseconds a run).
    pub quick: bool,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: scenario runs, or streamed sweep instances.
    pub attempted: u64,
    /// Operations that failed an output check or were refused.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The work this run measured.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Output checks: counts attempts and failures, keeps the messages.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Failure messages (capped, so a systematic failure stays readable).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation whose check failures are `problems`.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.failures.len() < 16 {
                    self.failures.push(p);
                }
            }
        }
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, opts: Opts, traced: bool) -> Result<Outcome, String> {
    let mut outcome = match workload {
        "tower_tcp" => sim::run(&tower::Tower::generate(opts), opts, traced),
        "flood_engine" => sim::run(&flood::Flood::generate(opts), opts, traced),
        "daemon_sweep" => sweep::run(opts, traced),
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    // The frame-conservation probes ride along with every workload: a
    // DELAY held past STOP and a partially filled REORDER batch must both
    // be flushed at teardown, never lost.
    let mut checks = Checks::default();
    for problems in probes::conservation() {
        checks.record(problems);
    }
    outcome.attempted += checks.attempted;
    outcome.failed += checks.failed;
    outcome.failures.extend(checks.failures);
    if traced {
        // Per-layer times stay as measured; the host's speed while they
        // were taken puts them in context.
        let yards: Vec<f64> = (0..30).map(|_| timing::yardstick() * 1e3).collect();
        let median = stats::median(&yards).unwrap_or(0.0);
        outcome.metrics.insert("host.yardstick_ms", median);
    }
    Ok(outcome)
}

/// SplitMix64: the benchmark's input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload's inputs.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fingerprint::fnv(stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_stream_separated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, "x").next_u64(), Rng::new(2, "x").next_u64());
        assert_ne!(Rng::new(1, "x").next_u64(), Rng::new(1, "y").next_u64());
        let mut r = Rng::new(3, "r");
        assert!((0..100).all(|_| (5..9).contains(&r.range(5, 9))));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = vw_trace::Json::parse(&text).expect("BENCHMARK.json parses");
        let obj = json.as_obj().unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            obj[key]
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_obj().unwrap();
                    let s = |k: &str| match &m[k] {
                        vw_trace::Json::Str(s) => s.clone(),
                        _ => panic!("{k} is not a string"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = obj["workloads"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| match &w.as_obj().unwrap()["name"] {
                vw_trace::Json::Str(s) => s.clone(),
                _ => panic!("workload name"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
