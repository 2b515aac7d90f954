//! `daemon_sweep`: fault injection as a service.
//!
//! A sweep of short `udp_flood` instances — thresholds × seeds × control
//! impairments — submitted to an in-process `vw-serve` daemon: two
//! workers, a unix socket, checkpointing on and the stock shard size.
//! One client streams every outcome line back while one live telemetry
//! subscriber runs at the daemon's default 50 ms cadence. Per-instance
//! compile, install, digest, JSONL, framing and checkpoint fsync dominate;
//! the engine and DES work per instance is small. This is where codec,
//! checkpoint and observability changes show.
//!
//! Each repetition starts a fresh daemon in a fresh state directory,
//! submits the whole sweep and tears the daemon down again. The streamed
//! lines are checked, sorted by instance, against
//! `InstanceRecord::to_jsonl_line` output of an in-process `run_campaign`
//! of the same spec.
//!
//! The seed picks the threshold values and the per-instance world seeds;
//! the instance count is fixed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use virtualwire::{EngineConfig, Report, Runner, ScriptError};
use vw_campaign::{
    run_campaign, run_instances_timed, Axis, CampaignSpec, DigestKey, ExecConfig, InstanceOutcome,
    InstanceRecord, NullProgress, OutcomeDigest, RunConfig, Sampling, Setup,
};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, ControlImpairment, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_serve::checkpoint::{log_file_name, read_log};
use vw_serve::{
    Client, Daemon, DaemonConfig, SetupHandle, SetupRegistry, Severity, Submission, Subscribe,
};

use crate::fingerprint::{Fingerprint, Fnv};
use crate::stats;
use crate::timing::{self, bracketed, peak_rss_mb, repeat_for, timed, Samples, Timed, YARD_REF_S};
use crate::{Checks, Opts, Outcome, Rng};

const SCRIPT: &str = r#"
    FILTER_TABLE
    udp_data: (23 1 0x11), (36 2 0x6363)
    END
    NODE_TABLE
    node1 02:00:00:00:00:01 192.168.1.2
    node2 02:00:00:00:00:02 192.168.1.3
    END
    SCENARIO SweepDrop 500msec
    Sent: (udp_data, node1, node2, SEND)
    Rcvd: (udp_data, node1, node2, RECV)
    (TRUE) >> ENABLE_CNTR(Sent);
    (TRUE) >> ENABLE_CNTR(Rcvd);
    ((Sent = 40)) >> DROP(udp_data, node1, node2, SEND);
    ((Sent = 240)) >> STOP;
    END
"#;

/// Payload bytes of one datagram of the daemon's `udp_flood` setup.
const DATAGRAM: u64 = 200;
const DEADLINE_NS: u64 = 60_000_000_000;
const WORKERS: usize = 2;
/// Scratch directory for daemon state and sockets, relative to the
/// working directory (the checkout root when run as specified): a unix
/// socket path must stay short.
const RUN_DIR: &str = ".perfbench-run";

/// Generated inputs of one `daemon_sweep` run.
#[derive(Debug, Clone)]
pub struct Sweep {
    seed: u64,
    thresholds: Vec<i64>,
    seeds: Vec<u64>,
}

/// What the in-process reference run of the sweep produced.
#[derive(Debug, Clone)]
struct Reference {
    /// Expected JSONL line per instance, ascending by instance.
    lines: Vec<String>,
    /// Instances that did not complete.
    not_completed: u64,
    classified: u64,
    payload_bytes: u64,
    events: u64,
}

/// One daemon round trip.
#[derive(Debug, Default)]
struct DaemonRep {
    setup_s: f64,
    /// Submit to the last outcome line.
    wall_s: f64,
    first_outcome_s: f64,
    /// `(instance, line)` as streamed; dropped once checked.
    lines: Vec<(u64, String)>,
    /// Outcome lines received.
    streamed: u64,
    /// Bytes of outcome lines received.
    stream_bytes: u64,
    /// Whether a telemetry subscriber watched this repetition.
    telemetry: bool,
    deltas: u64,
    checkpoint_records: u64,
    checkpoint_bytes: u64,
    problems: Vec<String>,
}

impl Sweep {
    /// Generates the inputs for `opts.seed`.
    pub fn generate(opts: Opts) -> Sweep {
        let mut rng = Rng::new(opts.seed, "daemon_sweep");
        let (n_thresholds, n_seeds) = if opts.quick { (2, 4) } else { (8, 125) };
        let mut thresholds = Vec::new();
        while thresholds.len() < n_thresholds {
            let t = rng.range(5, 230) as i64;
            if !thresholds.contains(&t) {
                thresholds.push(t);
            }
        }
        let seeds = (0..n_seeds).map(|_| rng.next_u64()).collect();
        Sweep {
            seed: opts.seed,
            thresholds,
            seeds,
        }
    }

    fn axes(&self) -> Vec<Axis> {
        vec![
            Axis::threshold_at("Sent", 0, self.thresholds.clone()),
            Axis::seeds(self.seeds.clone()),
            Axis::impairments(vec![
                ControlImpairment::none(),
                ControlImpairment::dropping(0.05),
            ]),
        ]
    }

    fn defaults() -> RunConfig {
        RunConfig {
            seed: 1,
            impairment: ControlImpairment::none(),
        }
    }

    /// Instances in the sweep.
    pub fn total(&self) -> usize {
        self.thresholds.len() * self.seeds.len() * 2
    }

    fn submission(&self, campaign: &str) -> Submission {
        Submission {
            campaign: campaign.to_string(),
            program: SCRIPT.to_string(),
            setup: "udp_flood".to_string(),
            axes: self.axes(),
            defaults: Sweep::defaults(),
            sampling: Sampling::Exhaustive,
            key: DigestKey::default(),
            deadline_ns: DEADLINE_NS,
            // 0 = the daemon's stock shard size.
            shard_size: 0,
        }
    }

    fn spec(&self) -> CampaignSpec {
        CampaignSpec {
            name: "daemon_sweep".to_string(),
            base: vw_fsl::parse(SCRIPT).expect("sweep script parses"),
            axes: self.axes(),
            defaults: Sweep::defaults(),
            sampling: Sampling::Exhaustive,
        }
    }

    fn exec() -> ExecConfig {
        ExecConfig {
            threads: WORKERS,
            deadline: SimDuration::from_nanos(DEADLINE_NS),
            key: DigestKey::default(),
        }
    }

    fn config_hash(&self) -> u64 {
        Fnv::default()
            .str(SCRIPT)
            .bytes(&self.submission("daemon_sweep").encode())
            .finish()
    }

    /// The in-process run the streamed lines must match. The builtin
    /// setup is wrapped only to count simulated events in `finish`.
    fn reference(&self) -> Reference {
        let counting = CountEvents {
            inner: builtin(),
            events: AtomicU64::new(0),
        };
        let result =
            run_campaign(&self.spec(), &counting, &Sweep::exec()).expect("reference sweep runs");
        let key = DigestKey::default();
        let mut r = Reference {
            lines: result
                .instances
                .iter()
                .map(|rec| rec.to_jsonl_line(&key))
                .collect(),
            not_completed: 0,
            classified: 0,
            payload_bytes: 0,
            events: counting.events.load(Ordering::Relaxed),
        };
        for rec in &result.instances {
            match rec.outcome.digest() {
                Some(d) => {
                    r.classified += d.stats.iter().map(|(_, s)| s.classified).sum::<u64>();
                    r.payload_bytes += d.counter("Rcvd").unwrap_or(0).max(0) as u64 * DATAGRAM;
                }
                None => r.not_completed += 1,
            }
        }
        r
    }

    /// Starts a daemon in `dir`, streams the sweep through it, stops it.
    fn daemon_rep(&self, dir: &Path, campaign: &str, telemetry: bool) -> DaemonRep {
        let mut rep = DaemonRep {
            telemetry,
            ..DaemonRep::default()
        };
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("benchmark run directory");
        let state_dir = dir.join("state");
        let sock = dir.join("d.sock");
        let deltas = Arc::new(AtomicU64::new(0));
        let ((daemon, mut client, watcher), setup_s) = timed(|| {
            let daemon = Daemon::start(
                DaemonConfig {
                    workers: WORKERS,
                    state_dir: state_dir.clone(),
                    ..DaemonConfig::default()
                },
                SetupRegistry::builtin(),
            )
            .expect("daemon starts");
            daemon.bind_unix(&sock).expect("daemon binds");
            let client = Client::connect_unix(&sock).expect("client connects");
            let watcher = telemetry.then(|| {
                let mut watcher = Client::connect_unix(&sock).expect("watcher connects");
                watcher
                    .subscribe(&Subscribe {
                        interval_ms: 50,
                        prometheus_text: false,
                        campaign: String::new(),
                        journal_min_severity: Severity::Info,
                    })
                    .expect("watcher subscribes");
                watcher
            });
            (daemon, client, watcher)
        });
        rep.setup_s = setup_s;
        // The watcher drains deltas until the daemon's shutdown closes
        // its connection.
        let watcher = watcher.map(|mut w| {
            let deltas = Arc::clone(&deltas);
            std::thread::spawn(move || {
                while w.next_telemetry().is_ok() {
                    deltas.fetch_add(1, Ordering::Relaxed);
                }
            })
        });

        let submission = self.submission(campaign);
        let started = Instant::now();
        let mut first = None;
        let streamed = client.submit(&submission).and_then(|accepted| {
            let lines = &mut rep.lines;
            client
                .stream(|instance, line| {
                    first.get_or_insert_with(|| started.elapsed());
                    lines.push((instance, line.to_string()));
                })
                .map(|_| accepted)
        });
        rep.wall_s = started.elapsed().as_secs_f64();
        rep.streamed = rep.lines.len() as u64;
        rep.stream_bytes = rep.lines.iter().map(|(_, l)| l.len() as u64).sum();
        rep.first_outcome_s = first.map_or(rep.wall_s, |d| d.as_secs_f64());
        if let Err(e) = streamed {
            rep.problems
                .push(format!("daemon_sweep: submit/stream failed: {e}"));
        }
        // Outside the measured region: a short sweep can finish before
        // the first tick, so give the subscription time to prove itself.
        let wait = Instant::now() + std::time::Duration::from_secs(5);
        while watcher.is_some() && deltas.load(Ordering::Relaxed) == 0 && Instant::now() < wait {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        daemon.stop();
        if let Some(handle) = watcher {
            if handle.join().is_err() {
                rep.problems
                    .push("daemon_sweep: watcher thread panicked".into());
            }
        }
        rep.deltas = deltas.load(Ordering::Relaxed);
        if telemetry && rep.deltas == 0 {
            rep.problems
                .push("daemon_sweep: the telemetry subscriber saw no deltas".into());
        }
        match read_log(&state_dir.join(log_file_name(campaign))) {
            Ok(log) => {
                rep.checkpoint_records = u64::from(log.submission.is_some())
                    + log.shards.len() as u64
                    + u64::from(log.complete);
                if !log.complete {
                    rep.problems
                        .push("daemon_sweep: checkpoint log has no completion record".into());
                }
            }
            Err(e) => rep
                .problems
                .push(format!("daemon_sweep: checkpoint log unreadable: {e}")),
        }
        rep.checkpoint_bytes =
            std::fs::metadata(state_dir.join(log_file_name(campaign))).map_or(0, |m| m.len());
        let _ = std::fs::remove_dir_all(dir);
        rep
    }
}

fn builtin() -> SetupHandle {
    SetupRegistry::builtin()
        .get("udp_flood")
        .expect("the daemon's builtin setup")
}

/// The builtin setup, counting simulated events as instances finish.
struct CountEvents {
    inner: SetupHandle,
    events: AtomicU64,
}

impl Setup for CountEvents {
    fn build(&self, tables: &TableSet, run: &RunConfig) -> Result<(World, Runner), ScriptError> {
        self.inner.build(tables, run)
    }

    fn finish(&self, world: &mut World, report: &mut Report) {
        self.events
            .fetch_add(world.events_processed(), Ordering::Relaxed);
        self.inner.finish(world, report);
    }
}

/// Checks one repetition's streamed lines against the reference; returns
/// the number of instances that failed (missing, not completed, or not
/// byte-identical) and a description of the first few.
fn check_lines(rep: &DaemonRep, reference: &Reference) -> (u64, Vec<String>) {
    let mut got: Vec<Option<&str>> = vec![None; reference.lines.len()];
    let mut problems = rep.problems.clone();
    for (instance, line) in &rep.lines {
        match got.get_mut(*instance as usize) {
            Some(slot @ None) => *slot = Some(line),
            _ => problems.push(format!(
                "daemon_sweep: instance {instance} streamed twice or out of range"
            )),
        }
    }
    let mut failed = 0;
    for (i, (line, want)) in got.iter().zip(&reference.lines).enumerate() {
        let ok = *line == Some(want.as_str()) && want.contains("\"kind\":\"completed\"");
        if !ok {
            failed += 1;
            if problems.len() < 4 {
                problems.push(format!(
                    "daemon_sweep: instance {i}: streamed {line:?}, in-process run gives {want}"
                ));
            }
        }
    }
    if failed == 0 && !problems.is_empty() {
        failed = 1;
    }
    (failed, problems)
}

/// Runs `daemon_sweep` for `opts.seconds`.
pub fn run(opts: Opts, traced: bool) -> Outcome {
    let sweep = Sweep::generate(opts);
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(RUN_DIR).join(format!(
        "daemon_sweep-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    // The in-process reference comes first, so that every repetition is
    // checked as it ends and its streamed lines never pile up in memory.
    let reference = sweep.reference();
    let mut checks = Checks::default();
    if reference.not_completed > 0 {
        checks.failures.push(format!(
            "daemon_sweep: {} instances did not complete in-process",
            reference.not_completed
        ));
    }
    let mut reps: Vec<DaemonRep> = Vec::new();
    let mut keep = |mut rep: DaemonRep| {
        let (failed, problems) = check_lines(&rep, &reference);
        checks.attempted += reference.lines.len() as u64;
        checks.failed += failed;
        for p in problems.into_iter().take(4) {
            if checks.failures.len() < 16 {
                checks.failures.push(p);
            }
        }
        rep.lines = Vec::new();
        reps.push(rep);
    };
    let mut metrics = std::collections::BTreeMap::new();
    let mut quiet: Vec<f64> = Vec::new();
    let mut inproc: Vec<f64> = Vec::new();
    let mut scales: Vec<f64> = Vec::new();
    let mut counter = 0u64;
    let mut next_name = || {
        counter += 1;
        format!("sweep-{counter}")
    };
    let rep_dir = dir.join("rep");
    if traced {
        // Three quarters of the time cycle through the daemon with a
        // subscriber, the daemon without one and the same spec in-process,
        // interleaved so that host drift hits all three alike; the rest
        // times single instances.
        let total = sweep.total() as f64;
        repeat_for(opts.seconds * 0.75, 9, |i| match i % 3 {
            0 => keep(sweep.daemon_rep(&rep_dir, &next_name(), true)),
            1 => {
                let rep = sweep.daemon_rep(&rep_dir, &next_name(), false);
                quiet.push(total / rep.wall_s);
                keep(rep);
            }
            _ => {
                let (_, s) = timed(|| run_campaign(&sweep.spec(), &builtin(), &Sweep::exec()));
                inproc.push(total / s);
            }
        });
    } else {
        repeat_for(opts.seconds, 3, |_| {
            let (rep, scale) = bracketed(|| sweep.daemon_rep(&rep_dir, &next_name(), true));
            scales.push(scale);
            keep(rep);
        });
        metrics.insert("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }

    // Untraced repetitions carry their host-speed factor; the traced
    // ones compare interleaved variants and stay as measured.
    let mut s = Samples::default();
    for (i, r) in reps.iter().filter(|r| r.telemetry).enumerate() {
        let scale = scales.get(i).copied().unwrap_or(1.0);
        let n = r.streamed as f64;
        s.push("instances_per_s", n / r.wall_s * scale);
        s.push(
            "frames_per_s",
            reference.classified as f64 / r.wall_s * scale,
        );
        s.push(
            "payload_mb_per_s",
            reference.payload_bytes as f64 / 1e6 / r.wall_s * scale,
        );
        s.push("setup_s", r.setup_s / scale);
        s.push("raw.instances_per_s", n / r.wall_s);
        s.push("host.yardstick_ms", scale * YARD_REF_S * 1e3);
        s.push("first_outcome_ms", r.first_outcome_s * 1e3);
        s.push("deltas", r.deltas as f64);
    }
    if traced {
        let problems = layer_metrics(&sweep, &reps, &s, &quiet, &inproc, &mut metrics);
        if !problems.is_empty() {
            checks.failed += 1;
            checks.failures.extend(problems);
        }
    } else {
        for name in [
            "instances_per_s",
            "frames_per_s",
            "payload_mb_per_s",
            "setup_s",
            "raw.instances_per_s",
            "host.yardstick_ms",
        ] {
            metrics.insert(name, s.median(name));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Shared by concurrent runs, so only removed once empty.
    let _ = std::fs::remove_dir(RUN_DIR);
    let mut digest = Fnv::default();
    for line in &reference.lines {
        digest.str(line);
    }
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        metrics,
        fingerprint: Fingerprint {
            workload: "daemon_sweep".to_string(),
            seed: sweep.seed,
            instances: sweep.total() as u64,
            classified: reference.classified,
            config_hash: sweep.config_hash(),
            output_digest: digest.finish(),
            sim_events: reference.events,
        },
    }
}

/// The `udp_flood` testbed, rebuilt here step by step so each step can
/// be timed; [`single_instances`] checks that it digests exactly like the
/// daemon's builtin.
fn timed_instance(tables: TableSet, run: &RunConfig, traced: bool) -> (Report, [f64; 3], u64, f64) {
    let ((mut world, nodes), world_build_s) = timed(|| {
        let mut world = World::with_impairment(run.seed, run.impairment);
        let nodes = Runner::create_hosts(&mut world, &tables);
        let sw = world.add_switch("sw0", 4);
        for &n in &nodes {
            world.connect(n, sw, LinkConfig::fast_ethernet());
        }
        (world, nodes)
    });
    let (runner, install_s) = timed(|| {
        let runner = Runner::try_install(&mut world, tables, EngineConfig::default())
            .expect("udp_flood installs");
        runner.settle(&mut world);
        runner
    });
    let ipv4 = Binding::EtherType(EtherType::IPV4);
    let sink = UdpSink::new(0x6363);
    let flooder = UdpFlooder::new(
        world.host_mac(nodes[1]),
        world.host_ip(nodes[1]),
        0x6363,
        9000,
        2_000_000,
        DATAGRAM as usize,
        30 * DATAGRAM,
    );
    let sink_id = world.add_protocol(nodes[1], ipv4, timing::protocol(sink, traced));
    let flooder_id = world.add_protocol(nodes[0], ipv4, timing::protocol(flooder, traced));
    let (report, run_s) = timed(|| runner.run(&mut world, SimDuration::from_nanos(DEADLINE_NS)));
    let udp_s = if traced {
        let sink = world.protocol::<Timed<UdpSink>>(nodes[1], sink_id);
        let flooder = world.protocol::<Timed<UdpFlooder>>(nodes[0], flooder_id);
        sink.map_or(0.0, |t| t.busy.as_secs_f64()) + flooder.map_or(0.0, |t| t.busy.as_secs_f64())
    } else {
        0.0
    };
    let events = world.events_processed();
    (report, [world_build_s, install_s, run_s], events, udp_s)
}

/// Per-layer numbers of single instances, run through the benchmark's
/// own calls: every instance of the sweep, once untimed and once with the
/// timers — the pair prices the timers themselves.
fn single_instances(sweep: &Sweep, s: &mut Samples) -> Vec<String> {
    let key = DigestKey::default();
    let mut problems = Vec::new();
    let instances = sweep.spec().enumerate().expect("sweep enumerates");
    let reference = builtin();
    let mut engine = virtualwire::EngineStats::default();
    let (mut events, mut faults, mut udp_s, mut run_s) = (0u64, 0u64, 0.0, 0.0);
    for inst in &instances {
        // Untimed: the builtin setup, the same calls the executor makes.
        let (_, plain_s) = timed(|| {
            let tables = vw_fsl::compile(&inst.program).expect("compiles").remove(0);
            let (mut world, runner) = reference.build(&tables, &inst.run).expect("builds");
            let report = runner.run(&mut world, SimDuration::from_nanos(DEADLINE_NS));
            OutcomeDigest::from_report(&report)
        });
        let started = Instant::now();
        let (tables, compile_s) =
            timed(|| vw_fsl::compile(&inst.program).expect("compiles").remove(0));
        let (report, [build_s, install_s, inst_run_s], inst_events, inst_udp_s) =
            timed_instance(tables, &inst.run, true);
        let (digest, digest_s) = timed(|| OutcomeDigest::from_report(&report));
        let record = InstanceRecord {
            index: inst.index,
            labels: inst.labels.clone(),
            outcome: InstanceOutcome::Completed(digest),
            wall_ns: None,
        };
        let (line, jsonl_s) = timed(|| record.to_jsonl_line(&key));
        s.push("traced_per_s", 1.0 / started.elapsed().as_secs_f64());
        s.push("plain_per_s", 1.0 / plain_s);
        s.push("fsl.compile_us", compile_s * 1e6);
        s.push("netsim.world_build_us", build_s * 1e6);
        s.push("core.install_ms", install_s * 1e3);
        s.push("campaign.digest_us", digest_s * 1e6);
        s.push("campaign.jsonl_us", jsonl_s * 1e6);
        let total = report.total_stats();
        engine.classified += total.classified;
        engine.rules_scanned += total.rules_scanned;
        engine.index_hits += total.index_hits;
        engine.control_sent += total.control_sent;
        faults += total.drops + total.dups + total.delays + total.reorders + total.modifies;
        engine.max_cascade_depth = engine.max_cascade_depth.max(total.max_cascade_depth);
        events += inst_events;
        udp_s += inst_udp_s;
        run_s += inst_run_s;
        // The rebuilt testbed must digest exactly like the builtin one.
        let builtin_line = {
            let tables = vw_fsl::compile(&inst.program).expect("compiles").remove(0);
            let (mut world, runner) = reference.build(&tables, &inst.run).expect("builds");
            let report = runner.run(&mut world, SimDuration::from_nanos(DEADLINE_NS));
            InstanceRecord {
                outcome: InstanceOutcome::Completed(OutcomeDigest::from_report(&report)),
                ..record.clone()
            }
            .to_jsonl_line(&key)
        };
        if line != builtin_line && problems.len() < 4 {
            problems.push(format!(
                "daemon_sweep: timed testbed diverges from the builtin on instance {}",
                inst.index
            ));
        }
    }
    let frames = engine.classified.max(1) as f64;
    s.push("core.control_frames", engine.control_sent as f64);
    s.push("engine.classified", engine.classified as f64);
    s.push(
        "engine.rules_scanned_per_frame",
        engine.rules_scanned as f64 / frames,
    );
    s.push("engine.index_hit_ratio", engine.index_hits as f64 / frames);
    s.push(
        "engine.max_cascade_depth",
        f64::from(engine.max_cascade_depth),
    );
    s.push("engine.faults", faults as f64);
    s.push("netsim.events", events as f64);
    s.push("netsim.events_per_frame", events as f64 / frames);
    s.push("netsim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    s.push("udp.app_ns", udp_s * 1e9 / frames);
    problems
}

fn layer_metrics(
    sweep: &Sweep,
    reps: &[DaemonRep],
    daemon: &Samples,
    quiet: &[f64],
    inproc: &[f64],
    out: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Vec<String> {
    let mut s = Samples::default();
    for _ in 0..50 {
        let (_, parse_s) = timed(|| vw_fsl::parse(SCRIPT).expect("parses"));
        s.push("fsl.parse_us", parse_s * 1e6);
    }
    let problems = single_instances(sweep, &mut s);
    let instances = sweep.spec().enumerate().expect("sweep enumerates");
    let timed_runs = run_instances_timed(&instances, &builtin(), &Sweep::exec(), &NullProgress);
    let wall_ms: Vec<f64> = timed_runs.iter().map(|(_, ns)| *ns as f64 / 1e6).collect();
    out.insert(
        "campaign.instance_p50_ms",
        stats::percentile(&wall_ms, 50.0).unwrap_or(0.0),
    );
    out.insert(
        "campaign.instance_p99_ms",
        stats::percentile(&wall_ms, 99.0).unwrap_or(0.0),
    );
    for name in [
        "fsl.parse_us",
        "fsl.compile_us",
        "netsim.world_build_us",
        "core.install_ms",
        "campaign.digest_us",
        "campaign.jsonl_us",
        "core.control_frames",
        "engine.classified",
        "engine.rules_scanned_per_frame",
        "engine.index_hit_ratio",
        "engine.max_cascade_depth",
        "engine.faults",
        "netsim.events",
        "netsim.events_per_frame",
        "netsim.ns_per_event",
        "udp.app_ns",
    ] {
        out.insert(name, s.median(name));
    }
    out.insert(
        "trace.overhead_pct",
        (s.median("plain_per_s") / s.median("traced_per_s") - 1.0) * 100.0,
    );
    out.insert("trace.untraced_reps", s.get("plain_per_s").len() as f64);
    out.insert("trace.traced_reps", s.get("traced_per_s").len() as f64);
    // Overheads compare instance rates: how much longer the same sweep
    // takes through the daemon than in-process, and with a subscriber
    // than without one.
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let watched = daemon.median("instances_per_s");
    out.insert("serve.first_outcome_ms", daemon.median("first_outcome_ms"));
    out.insert("serve.overhead_pct", (med(inproc) / watched - 1.0) * 100.0);
    if let Some(last) = reps.iter().rev().find(|r| r.telemetry) {
        out.insert("serve.stream_bytes", last.stream_bytes as f64);
        out.insert("serve.checkpoint_records", last.checkpoint_records as f64);
        out.insert("serve.checkpoint_bytes", last.checkpoint_bytes as f64);
    }
    out.insert("obs.telemetry_deltas", daemon.median("deltas"));
    out.insert(
        "obs.telemetry_overhead_pct",
        (med(quiet) / watched - 1.0) * 100.0,
    );
    // The resolution of that overhead: how far the estimate moves between
    // the even and the odd repetitions without a subscriber.
    let (even, odd): (Vec<f64>, Vec<f64>) =
        quiet
            .iter()
            .enumerate()
            .fold((Vec::new(), Vec::new()), |(mut e, mut o), (i, &v)| {
                if i % 2 == 0 {
                    e.push(v)
                } else {
                    o.push(v)
                }
                (e, o)
            });
    out.insert(
        "obs.telemetry_spread_pct",
        ((med(&even) - med(&odd)) / med(quiet)).abs() * 100.0,
    );
    for (name, _) in crate::PER_LAYER {
        out.entry(name).or_insert(0.0);
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference {
            lines: vec![
                r#"{"instance":0,"kind":"completed"}"#.to_string(),
                r#"{"instance":1,"kind":"completed"}"#.to_string(),
            ],
            not_completed: 0,
            classified: 0,
            payload_bytes: 0,
            events: 0,
        }
    }

    fn streamed(lines: &[(u64, &str)]) -> DaemonRep {
        DaemonRep {
            lines: lines.iter().map(|(i, l)| (*i, l.to_string())).collect(),
            ..DaemonRep::default()
        }
    }

    #[test]
    fn identical_lines_in_any_order_pass() {
        let r = reference();
        let rep = streamed(&[(1, &r.lines[1]), (0, &r.lines[0])]);
        assert_eq!(check_lines(&rep, &r), (0, Vec::new()));
    }

    #[test]
    fn a_differing_byte_fails_that_instance() {
        let r = reference();
        let rep = streamed(&[
            (0, &r.lines[0]),
            (1, r#"{"instance":1,"kind":"completed" }"#),
        ]);
        let (failed, problems) = check_lines(&rep, &r);
        assert_eq!(failed, 1);
        assert!(problems[0].contains("instance 1"), "{problems:?}");
    }

    #[test]
    fn missing_duplicate_and_incomplete_instances_fail() {
        let r = reference();
        let (failed, _) = check_lines(&streamed(&[(0, &r.lines[0])]), &r);
        assert_eq!(failed, 1, "instance 1 never streamed");
        let dup = streamed(&[(0, &r.lines[0]), (0, &r.lines[0]), (1, &r.lines[1])]);
        let (failed, problems) = check_lines(&dup, &r);
        assert!(failed >= 1 && problems[0].contains("twice"), "{problems:?}");
        let mut crashed = reference();
        crashed.lines[0] = r#"{"instance":0,"kind":"crashed"}"#.to_string();
        let rep = streamed(&[(0, &crashed.lines[0]), (1, &crashed.lines[1])]);
        assert_eq!(
            check_lines(&rep, &crashed).0,
            1,
            "a crash matching the reference still fails"
        );
    }
}
