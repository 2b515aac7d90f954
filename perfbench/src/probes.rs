//! Frame-conservation probes: scenarios that end with a fault still in
//! flight. A DELAY held past STOP and a REORDER batch that never fills
//! must both be flushed at teardown, not silently lost.

use virtualwire::{compile_script, EngineConfig, Runner};
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

const PROBES: [(&str, &str); 2] = [
    (
        "DELAY-at-STOP",
        r#"
        SCENARIO DelayAtStop
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent = 3)) >> DELAY(udp_data, node1, node2, SEND, 500msec);
        ((Sent = 5)) >> STOP;
        END
        "#,
    ),
    (
        "partial REORDER",
        r#"
        SCENARIO PartialReorder
        Sent: (udp_data, node1, node2, SEND)
        (TRUE) >> ENABLE_CNTR(Sent);
        ((Sent > 3)) >> REORDER(udp_data, node1, node2, SEND, 3, (2 1 0));
        ((Sent = 5)) >> STOP;
        END
        "#,
    ),
];

/// Runs every probe; one list of check failures per probe.
pub fn conservation() -> Vec<Vec<String>> {
    PROBES
        .iter()
        .map(|(name, scenario)| {
            let script = format!(
                r#"
                FILTER_TABLE
                udp_data: (23 1 0x11), (36 2 0x6363)
                END
                NODE_TABLE
                node1 02:00:00:00:00:01 192.168.1.2
                node2 02:00:00:00:00:02 192.168.1.3
                END
                {scenario}
                "#
            );
            let tables = compile_script(&script).expect("probe script compiles");
            let mut world = World::new(11);
            world.trace_mut().set_enabled(false);
            let nodes = Runner::create_hosts(&mut world, &tables);
            let sw = world.add_switch("sw0", 4);
            for &n in &nodes {
                world.connect(n, sw, LinkConfig::fast_ethernet());
            }
            let runner = Runner::install(&mut world, tables, EngineConfig::default());
            runner.settle(&mut world);
            let ipv4 = Binding::EtherType(EtherType::IPV4);
            world.add_protocol(nodes[1], ipv4, Box::new(UdpSink::new(0x6363)));
            let flooder = UdpFlooder::new(
                world.host_mac(nodes[1]),
                world.host_ip(nodes[1]),
                0x6363,
                9000,
                2_000_000,
                200,
                10 * 200,
            );
            world.add_protocol(nodes[0], ipv4, Box::new(flooder));
            let total = runner
                .run(&mut world, SimDuration::from_secs(2))
                .total_stats();
            if total.faults_in_limbo == 0 {
                Vec::new()
            } else {
                vec![format!(
                    "{name} probe: {} frames left in limbo after teardown",
                    total.faults_in_limbo
                )]
            }
        })
        .collect()
}
