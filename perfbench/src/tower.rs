//! `tower_tcp`: one long TCP bulk transfer through the whole tower.
//!
//! Three hosts on a shared 10 Mb/s hub that loses 5% of frames. Each
//! host stacks TCP over a Rether token-ring node over a VirtualWire
//! engine over the RLL — the repository's `full_stack` scenario, scaled
//! up to a 4 MB transfer; the run stops when the receiver acknowledges
//! the last byte. The script
//! holds three filters; the cost sits in the DES (about 34 events per
//! classified frame), the RLL's ARQ, Rether's token and the TCP state
//! machine. It is the workload where a change to netsim, rll, rether or
//! tcpstack shows.
//!
//! The seed picks the world's loss pattern and the payload bytes; the
//! transfer size is fixed, so every seed does comparable work.

use virtualwire::{EngineConfig, Runner, StopReason};
use vw_netsim::{Binding, ErrorModel, LinkConfig, SimDuration, World};
use vw_packet::EtherType;
use vw_rether::{RetherConfig, RetherNode};
use vw_rll::{RllConfig, RllHook};
use vw_tcpstack::{Endpoint, SocketHandle, TcpConfig, TcpStack};

use crate::fingerprint::Fnv;
use crate::sim::{self, Rep, Scenario};
use crate::timing::{self, timed, Timed};
use crate::{Opts, Rng};

/// TCP payload bytes per segment (the stack's default MSS).
const MSS: u64 = 1000;

/// Generated inputs of one `tower_tcp` run.
#[derive(Debug, Clone)]
pub struct Tower {
    seed: u64,
    world_seed: u64,
    fill: u8,
    segments: u64,
    script: String,
    /// The bytes the client sends, generated once so that building them
    /// is not part of any repetition's set-up time.
    payload: Vec<u8>,
}

impl Tower {
    /// Generates the inputs for `opts.seed`.
    pub fn generate(opts: Opts) -> Tower {
        let mut rng = Rng::new(opts.seed, "tower_tcp");
        let segments = if opts.quick { 60 } else { 4_000 };
        // The receiver's first ACK of the last payload byte stops the
        // run: the client's ISS is 1000 and its SYN takes one number.
        let final_ack = TcpConfig::default().iss + 1 + (segments * MSS) as u32;
        let script = format!(
            r#"
            FILTER_TABLE
            tr_token: (12 2 0x9900), (14 2 0x0001)
            TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
            TCP_done: (34 2 0x4000), (36 2 0x6000), (42 4 {final_ack:#010x})
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 192.168.1.1
            node2 02:00:00:00:00:02 192.168.1.2
            node3 02:00:00:00:00:03 192.168.1.3
            END
            SCENARIO FullTower 2sec
            Data: (TCP_data, node1, node3, RECV)
            Done: (TCP_done, node3, node1, SEND)
            (TRUE) >> ENABLE_CNTR(Data); ENABLE_CNTR(Done);
            ((Done = 1)) >> STOP;
            END
            "#
        );
        let world_seed = rng.next_u64();
        let fill = rng.next_u64() as u8;
        Tower {
            seed: opts.seed,
            world_seed,
            fill,
            segments,
            script,
            payload: vec![fill; (segments * MSS) as usize],
        }
    }
}

impl Scenario for Tower {
    fn name(&self) -> &'static str {
        "tower_tcp"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn config_hash(&self) -> u64 {
        Fnv::default()
            .str(&self.script)
            .u64(self.world_seed)
            .u64(u64::from(self.fill))
            .finish()
    }

    fn rep(&self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let tables = sim::compile(&self.script, &mut rep);

        let ((mut world, nodes, hub), world_build_s) = timed(|| {
            let mut world = World::new(self.world_seed);
            world.trace_mut().set_enabled(false);
            let nodes = Runner::create_hosts(&mut world, &tables);
            let hub = world.add_hub("bus", 4);
            for &n in &nodes {
                world.connect(
                    n,
                    hub,
                    LinkConfig::ethernet_10m().errors(ErrorModel::lossy(0.05)),
                );
            }
            let ring: Vec<_> = tables.nodes.iter().map(|n| n.mac).collect();
            for (i, &node) in nodes.iter().enumerate() {
                // The ack timeout must cover a hold's data burst on the
                // 10 Mb/s bus, RLL retransmissions included, or healthy
                // successors are declared dead and the transfer stalls.
                let cfg = RetherConfig {
                    token_ack_timeout: SimDuration::from_millis(250),
                    regen_base: SimDuration::from_millis(800),
                    nrt_quantum_bytes: 8 * 1024,
                    ..RetherConfig::new(ring.clone())
                };
                let mut rether = RetherNode::new(cfg, ring[i]);
                rether.reserve_rt(16 * 1024);
                world.add_hook(node, timing::hook(rether, traced));
            }
            (world, nodes, hub)
        });
        rep.world_build_s = world_build_s;

        let (runner, install_s) = timed(|| {
            let runner = Runner::install_with_rll(
                &mut world,
                tables,
                EngineConfig::default(),
                // Eight 1 KB frames take 6.7 ms to serialise at 10 Mb/s, so
                // a 15 ms timeout only fires on real loss. The default
                // 32-frame window under a 2 ms timeout retransmits most
                // DATA frames on this bus, and its events per frame swing
                // threefold with the seed.
                RllConfig {
                    window: 8,
                    rto: SimDuration::from_millis(15),
                    max_retries: 200,
                    ..RllConfig::default()
                },
            );
            runner.settle(&mut world);
            runner
        });
        rep.install_s = install_s;
        // The stacks go on after the control plane settled, so no segment
        // races the table distribution. Handing them the transfer is the
        // workload's input, not set-up.
        let tcp_cfg = TcpConfig::default();
        let mut server = TcpStack::new(world.host_mac(nodes[2]), world.host_ip(nodes[2]));
        server.listen(0x4000, tcp_cfg);
        let mut client = TcpStack::new(world.host_mac(nodes[0]), world.host_ip(nodes[0]));
        let h = client.connect(
            tcp_cfg,
            0x6000,
            Endpoint {
                mac: world.host_mac(nodes[2]),
                ip: world.host_ip(nodes[2]),
                port: 0x4000,
            },
        );
        client.send(h, &self.payload);
        let ipv4 = Binding::EtherType(EtherType::IPV4);
        let server_id = world.add_protocol(nodes[2], ipv4, timing::protocol(server, traced));
        let client_id = world.add_protocol(nodes[0], ipv4, timing::protocol(client, traced));

        let events_before = world.events_processed();
        let (report, run_s) = timed(|| runner.run(&mut world, SimDuration::from_secs(3600)));
        rep.run_s = run_s;
        rep.events = world.events_processed() - events_before;
        sim::record_report(&report, &mut rep);
        rep.port_drops = sim::port_drops(&world, &nodes, hub, 4);

        for &node in &nodes {
            let rll = world
                .find_hook::<RllHook>(node)
                .expect("RLL installed")
                .stats();
            rep.rll_data_sent += rll.data_sent;
            rep.rll_retransmissions += rll.retransmissions;
            let rether = if traced {
                let t = world
                    .find_hook::<Timed<RetherNode>>(node)
                    .expect("Rether attached");
                rep.rether_busy_s += t.busy.as_secs_f64();
                t.inner.stats()
            } else {
                world
                    .find_hook::<RetherNode>(node)
                    .expect("Rether attached")
                    .stats()
            };
            rep.tokens_passed += rether.tokens_passed;
        }
        let received = if traced {
            rep.tcp_busy_s = [
                world.protocol::<Timed<TcpStack>>(nodes[0], client_id),
                world.protocol::<Timed<TcpStack>>(nodes[2], server_id),
            ]
            .iter()
            .map(|t| t.expect("TCP attached").busy.as_secs_f64())
            .sum();
            let server = world.protocol_mut::<Timed<TcpStack>>(nodes[2], server_id);
            &mut server.expect("server").inner
        } else {
            world
                .protocol_mut::<TcpStack>(nodes[2], server_id)
                .expect("server")
        }
        .socket_mut(SocketHandle::from_index(0))
        .take_received();
        rep.payload_bytes = received.len() as u64;

        // Output checks: the run stops on the receiver's ACK of the last
        // byte, so the whole transfer has reached the server's stack.
        let want = self.segments * MSS;
        let problems = &mut rep.problems;
        if !matches!(report.stop, StopReason::StopAction(_)) {
            problems.push(format!(
                "tower_tcp: run ended by `{}`, not STOP",
                report.stop
            ));
        }
        if !report.passed() {
            problems.push(format!("tower_tcp: flagged errors: {:?}", report.errors));
        }
        let data = report.counter("Data").unwrap_or(0);
        if report.counter("Done").unwrap_or(0) < 1 || data < self.segments as i64 {
            problems.push(format!(
                "tower_tcp: Done = {:?}, Data = {data}; want at least 1 and {}",
                report.counter("Done"),
                self.segments
            ));
        }
        if rep.payload_bytes != want {
            problems.push(format!(
                "tower_tcp: {} payload bytes delivered, want {want}",
                rep.payload_bytes
            ));
        }
        if received.iter().any(|&b| b != self.fill) {
            problems.push("tower_tcp: delivered payload bytes corrupted".to_string());
        }
        if rep.engine.faults_in_limbo != 0 {
            problems.push(format!(
                "tower_tcp: {} frames left in limbo",
                rep.engine.faults_in_limbo
            ));
        }
        let mut digest = Fnv::default();
        digest.str(&report.stop.to_string()).u64(rep.payload_bytes);
        for (node, counter, value) in &report.counters {
            digest.str(node).str(counter).u64(*value as u64);
        }
        rep.digest = digest.finish();
        rep
    }
}
