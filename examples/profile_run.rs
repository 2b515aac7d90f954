//! End-to-end self-profiling demo: run the Section 6.1 TCP
//! congestion-control experiment with span collection on, then export
//! everything the profiler produces —
//!
//! - `target/profile_run/trace.json`: Chrome trace-event JSON; open it
//!   in Perfetto (ui.perfetto.dev) or `chrome://tracing`,
//! - `target/profile_run/stacks.folded`: folded stacks for
//!   `flamegraph.pl` (counts are nanoseconds of self time),
//! - a per-phase self-time table on stdout.
//!
//! ```text
//! cargo run --example profile_run
//! ```
//!
//! The run self-checks: the Chrome export must round-trip through the
//! crate's JSON parser, and the per-category self times must account
//! for the whole measured region.

use virtualwire::{compile_script, EngineConfig, Runner};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_tcpstack::{Endpoint, TcpConfig, TcpStack};
use vw_trace::Category;

const SCRIPT: &str = include_str!("../scripts/tcp_ss_ca.fsl");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== profiling one traced run of the Section 6.1 experiment ===\n");

    // Collect spans from here to `disable()`; one root span brackets the
    // whole measured region so self times partition it exactly.
    vw_trace::enable(1 << 19);
    let (report, trace) = {
        let _run = vw_trace::span("run", Category::Run);

        let tables = compile_script(SCRIPT)?;
        let mut world = World::new(1);
        let nodes = Runner::create_hosts(&mut world, &tables);
        let sw = world.add_switch("sw0", 4);
        for &n in &nodes {
            world.connect(n, sw, LinkConfig::fast_ethernet());
        }
        let runner = Runner::install(&mut world, tables, EngineConfig::default());
        runner.settle(&mut world);

        let tcp_cfg = TcpConfig::default();
        let mut server = TcpStack::new(world.host_mac(nodes[1]), world.host_ip(nodes[1]));
        server.listen(0x4000, tcp_cfg);
        world.add_protocol(
            nodes[1],
            Binding::EtherType(EtherType::IPV4),
            Box::new(server),
        );
        let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
        let handle = client.connect(
            tcp_cfg,
            0x6000,
            Endpoint {
                mac: world.host_mac(nodes[1]),
                ip: world.host_ip(nodes[1]),
                port: 0x4000,
            },
        );
        client.send(handle, &vec![0x42u8; 80_000]);
        world.add_protocol(
            nodes[0],
            Binding::EtherType(EtherType::IPV4),
            Box::new(client),
        );

        let report = runner.run(&mut world, SimDuration::from_secs(10));
        drop(_run);
        (report, vw_trace::disable())
    };

    assert!(
        !trace.is_empty(),
        "the traced run recorded no spans — was the `trace` feature disabled?"
    );

    let out_dir = std::path::Path::new("target/profile_run");
    std::fs::create_dir_all(out_dir)?;

    let chrome = trace.to_chrome_json();
    let events = vw_trace::validate_chrome_json(&chrome)
        .map_err(|e| format!("Chrome export failed validation: {e}"))?;
    let trace_path = out_dir.join("trace.json");
    std::fs::write(&trace_path, &chrome)?;

    let folded = trace.to_folded();
    let folded_path = out_dir.join("stacks.folded");
    std::fs::write(&folded_path, &folded)?;

    let breakdown = trace.phase_breakdown();
    println!(
        "scenario: {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
    println!(
        "spans: {} collected, {} dropped ({} trace events)\n",
        trace.len(),
        trace.dropped,
        events
    );
    print!("{}", breakdown.to_table());
    println!();
    println!(
        "wrote {} ({} bytes) — load it at ui.perfetto.dev",
        trace_path.display(),
        chrome.len()
    );
    println!(
        "wrote {} ({} stack paths) — feed it to flamegraph.pl",
        folded_path.display(),
        folded.lines().count()
    );

    // Self-check: the root span, every engine phase of the Figure 4(b)
    // pipeline and the TCP stack showed up, and self times cover the run.
    for cat in [
        Category::Run,
        Category::Event,
        Category::Classify,
        Category::Cascade,
        Category::Action,
        Category::Tcp,
    ] {
        assert!(
            breakdown.get(cat).is_some_and(|s| s.spans > 0),
            "no spans in category {cat}"
        );
    }
    let (total, wall) = (breakdown.total_self_ns(), breakdown.wall_ns.max(1));
    let error = (total as f64 - wall as f64).abs() / wall as f64;
    assert!(
        error < 0.05,
        "self times ({total} ns) do not cover the wall clock ({wall} ns)"
    );
    println!(
        "\nself-check OK: self times cover {:.2}% of the run",
        100.0 * total as f64 / wall as f64
    );
    Ok(())
}
