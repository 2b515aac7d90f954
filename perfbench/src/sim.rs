//! The repetition loop shared by the two single-scenario workloads
//! (`tower_tcp`, `flood_engine`): set up, run, check, repeat for the
//! measured time, report medians.

use std::collections::BTreeMap;

use virtualwire::{EngineStats, Report};
use vw_fsl::TableSet;
use vw_netsim::{DeviceId, PortRef, World};

use crate::fingerprint::Fingerprint;
use crate::timing::{bracketed, repeat_for, timed, Samples, YARD_REF_S};
use crate::{Checks, Opts, Outcome};

/// One scenario workload: generated inputs plus how to run them once.
pub trait Scenario {
    /// Workload name.
    fn name(&self) -> &'static str;

    /// The seed the inputs were generated from.
    fn seed(&self) -> u64;

    /// Hash of the generated inputs.
    fn config_hash(&self) -> u64;

    /// One repetition: set up, run, check. `traced` attaches the timing
    /// wrappers.
    fn rep(&self, traced: bool) -> Rep;

    /// Wall seconds the same traffic takes with no engines installed,
    /// over the simulated time `rep` covered — the B side of the
    /// `engine.ns_per_frame` A/B. `None` where the workload cannot run
    /// without engines.
    fn without_engines(&self, _rep: &Rep) -> Option<f64> {
        None
    }
}

/// Measurements and check results of one repetition.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// `vw_fsl::parse` wall seconds.
    pub parse_s: f64,
    /// `vw_fsl::compile` wall seconds.
    pub compile_s: f64,
    /// World, hosts, links and the hooks attached before install, wall
    /// seconds.
    pub world_build_s: f64,
    /// `Runner::install*` + `settle` wall seconds.
    pub install_s: f64,
    /// `Runner::run` wall seconds.
    pub run_s: f64,
    /// Simulated duration of the run, nanoseconds.
    pub sim_ns: u64,
    /// Events processed by `Runner::run`.
    pub events: u64,
    /// Engine counters summed over nodes.
    pub engine: EngineStats,
    /// RLL DATA frames sent, summed over nodes.
    pub rll_data_sent: u64,
    /// RLL retransmissions, summed over nodes.
    pub rll_retransmissions: u64,
    /// Rether tokens passed, summed over nodes.
    pub tokens_passed: u64,
    /// Frames dropped at full transmit queues, all ports.
    pub port_drops: u64,
    /// Wall seconds inside the Rether hooks (traced runs only).
    pub rether_busy_s: f64,
    /// Wall seconds inside the TCP stacks (traced runs only).
    pub tcp_busy_s: f64,
    /// Wall seconds inside the UDP apps (traced runs only).
    pub udp_busy_s: f64,
    /// Application payload delivered to the sink, bytes.
    pub payload_bytes: u64,
    /// Digest of the user-visible outputs.
    pub digest: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
}

impl Rep {
    /// Compile + world build + install + settle.
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.compile_s + self.world_build_s + self.install_s
    }

    /// The simulated quantities that must repeat exactly.
    fn simulated(&self) -> [u64; 8] {
        [
            self.events,
            self.engine.classified,
            self.engine.rules_scanned,
            self.rll_data_sent,
            self.tokens_passed,
            self.port_drops,
            self.payload_bytes,
            self.digest,
        ]
    }
}

/// Parses and compiles one single-scenario script, timing each step.
pub fn compile(script: &str, rep: &mut Rep) -> TableSet {
    let (program, parse_s) = timed(|| vw_fsl::parse(script).expect("generated FSL parses"));
    let (mut sets, compile_s) =
        timed(|| vw_fsl::compile(&program).expect("generated FSL compiles"));
    rep.parse_s = parse_s;
    rep.compile_s = compile_s;
    assert_eq!(sets.len(), 1, "one scenario per generated script");
    sets.remove(0)
}

/// Copies the report's engine totals into `rep`.
pub fn record_report(report: &Report, rep: &mut Rep) {
    rep.engine = report.total_stats();
    rep.sim_ns = report.duration.as_nanos();
}

/// Frames dropped at full transmit queues on the hosts and on ports
/// `0..fabric_ports` of the shared hub or switch.
pub fn port_drops(world: &World, hosts: &[DeviceId], fabric: DeviceId, fabric_ports: u16) -> u64 {
    let hosts = hosts.iter().map(|&device| PortRef { device, port: 0 });
    let fabric = (0..fabric_ports).map(|port| PortRef {
        device: fabric,
        port,
    });
    hosts
        .chain(fabric)
        .map(|p| world.port_stats(p).dropped)
        .sum()
}

/// Runs `scenario` for `opts.seconds` and reports its end-to-end metrics,
/// or — traced — its per-layer metrics.
pub fn run(scenario: &impl Scenario, opts: Opts, traced: bool) -> Outcome {
    let min_reps = 3;
    let mut checks = Checks::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced: Vec<(Rep, Option<f64>)> = Vec::new();
    let mut baseline: Option<[u64; 8]> = None;
    let mut check = |rep: &Rep| {
        let mut problems = rep.problems.clone();
        let simulated = rep.simulated();
        match baseline {
            None => baseline = Some(simulated),
            Some(first) if first != simulated => problems.push(format!(
                "{}: simulated counts differ between repetitions of one seed ({first:?} vs {simulated:?})",
                scenario.name()
            )),
            Some(_) => {}
        }
        checks.record(problems);
    };
    let mut metrics = BTreeMap::new();
    if traced {
        // Untraced repetitions (each paired with the same traffic run
        // without engines) alternate with traced ones, so host drift hits
        // both alike: the ratio of their rates is the wrappers' own cost.
        repeat_for(opts.seconds, 2 * min_reps, |i| {
            let rep = scenario.rep(i % 2 == 1);
            check(&rep);
            if i % 2 == 1 {
                reps.push(rep);
            } else {
                let without = scenario.without_engines(&rep);
                untraced.push((rep, without));
            }
        });
        layer_metrics(&reps, &untraced, &mut metrics);
    } else {
        let mut s = Samples::default();
        repeat_for(opts.seconds, min_reps, |_| {
            let (r, scale) = bracketed(|| scenario.rep(false));
            check(&r);
            s.push("frames_per_s", r.engine.classified as f64 / r.run_s * scale);
            s.push(
                "payload_mb_per_s",
                r.payload_bytes as f64 / 1e6 / r.run_s * scale,
            );
            s.push("instances_per_s", scale / (r.setup_s() + r.run_s));
            s.push("setup_s", r.setup_s() / scale);
            s.push("raw.frames_per_s", r.engine.classified as f64 / r.run_s);
            s.push("host.yardstick_ms", scale * YARD_REF_S * 1e3);
            reps.push(r);
        });
        for name in [
            "frames_per_s",
            "payload_mb_per_s",
            "instances_per_s",
            "setup_s",
            "raw.frames_per_s",
            "host.yardstick_ms",
        ] {
            metrics.insert(name, s.median(name));
        }
        metrics.insert(
            "peak_rss_mb",
            crate::timing::peak_rss_mb().unwrap_or(f64::NAN),
        );
    }
    let first = &reps[0];
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
        fingerprint: Fingerprint {
            workload: scenario.name().to_string(),
            seed: scenario.seed(),
            instances: 1,
            classified: first.engine.classified,
            config_hash: scenario.config_hash(),
            output_digest: first.digest,
            sim_events: first.events,
        },
    }
}

fn layer_metrics(
    traced: &[Rep],
    untraced: &[(Rep, Option<f64>)],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut s = Samples::default();
    for r in traced {
        let frames = r.engine.classified.max(1) as f64;
        s.push("fsl.parse_us", r.parse_s * 1e6);
        s.push("fsl.compile_us", r.compile_s * 1e6);
        s.push("core.install_ms", r.install_s * 1e3);
        s.push("netsim.world_build_us", r.world_build_s * 1e6);
        s.push("events_per_s", r.events as f64 / r.run_s);
        s.push("rether.hook_ns", r.rether_busy_s * 1e9 / frames);
        s.push("tcp.proto_ns", r.tcp_busy_s * 1e9 / frames);
        s.push("udp.app_ns", r.udp_busy_s * 1e9 / frames);
        s.push("reps_per_s", 1.0 / (r.setup_s() + r.run_s));
    }
    for (r, _) in untraced {
        s.push("untraced_reps_per_s", 1.0 / (r.setup_s() + r.run_s));
    }
    for name in [
        "fsl.parse_us",
        "fsl.compile_us",
        "core.install_ms",
        "netsim.world_build_us",
        "rether.hook_ns",
        "tcp.proto_ns",
        "udp.app_ns",
    ] {
        out.insert(name, s.median(name));
    }
    let r = &traced[0];
    let e = &r.engine;
    let frames = e.classified.max(1) as f64;
    out.insert("core.control_frames", e.control_sent as f64);
    out.insert("engine.classified", e.classified as f64);
    out.insert(
        "engine.rules_scanned_per_frame",
        e.rules_scanned as f64 / frames,
    );
    out.insert("engine.index_hit_ratio", e.index_hits as f64 / frames);
    out.insert("engine.max_cascade_depth", f64::from(e.max_cascade_depth));
    out.insert(
        "engine.faults",
        (e.drops + e.dups + e.delays + e.reorders + e.modifies) as f64,
    );
    out.insert("netsim.events", r.events as f64);
    out.insert("netsim.ns_per_event", 1e9 / s.median("events_per_s"));
    out.insert("netsim.events_per_frame", r.events as f64 / frames);
    out.insert("netsim.port_drops", r.port_drops as f64);
    out.insert("rll.data_sent", r.rll_data_sent as f64);
    out.insert("rll.retransmissions", r.rll_retransmissions as f64);
    out.insert("rether.tokens_passed", r.tokens_passed as f64);
    // engine.ns_per_frame: untraced runs with engines against the same
    // traffic without them, paired repetition by repetition.
    let mut ab = Samples::default();
    for (r, without) in untraced {
        if let Some(without) = without {
            let frames = r.engine.classified.max(1) as f64;
            ab.push("with", frames / r.run_s);
            ab.push("without", frames / without);
        }
    }
    let ns_per_frame = if ab.get("with").is_empty() {
        0.0
    } else {
        (1.0 / ab.median("with") - 1.0 / ab.median("without")) * 1e9
    };
    out.insert("engine.ns_per_frame", ns_per_frame);
    let (t, u) = (s.median("reps_per_s"), s.median("untraced_reps_per_s"));
    out.insert("trace.overhead_pct", (u / t - 1.0) * 100.0);
    out.insert("trace.untraced_reps", untraced.len() as f64);
    out.insert("trace.traced_reps", traced.len() as f64);
    for (name, _) in crate::PER_LAYER {
        out.entry(name).or_insert(0.0);
    }
}
