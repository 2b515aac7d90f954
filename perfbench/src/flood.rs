//! `flood_engine`: minimum-size UDP at line rate through the engines.
//!
//! Two hosts on a 100 Mb/s switch; node1 floods node2 with 64-byte
//! frames (18-byte UDP payload) at about 93% of line rate, leaving room
//! for the frames DUP adds. Each engine holds a Fig. 8-style filter
//! table: 48 never-matching decoys ahead of the real packet definition,
//! under the default indexed classifier. Every sent frame fires a rule
//! cascade through three local counters, and once per 32-frame phase the
//! Table II faults act: DROP, DUP, DELAY and MODIFY on one frame each,
//! REORDER on three. Classification and counting only
//! read a frame; the faults hold or rewrite it — so a classify or cascade
//! gain that slows the fault path shows up in this one workload.
//!
//! Per-frame engine cost dominates; the DES does about 2.5 events per
//! frame. The seed picks the decoys' field values, where in the phase
//! each fault lands and the world seed — never how many decoys, frames
//! or faults there are, so every seed does the same amount of work.

use virtualwire::{EngineConfig, Runner, StopReason};
use vw_fsl::TableSet;
use vw_netsim::apps::{UdpFlooder, UdpSink};
use vw_netsim::{Binding, DeviceId, LinkConfig, SimDuration, World};
use vw_packet::EtherType;

use crate::fingerprint::Fnv;
use crate::sim::{self, Rep, Scenario};
use crate::timing::{self, timed, Timed};
use crate::{Opts, Rng};

/// Frames per fault phase.
pub const PHASE: u64 = 32;
/// Never-matching filters ahead of the real one.
pub const DECOYS: usize = 48;
/// UDP payload bytes: 42 header bytes + 18 = the 60-byte Ethernet
/// minimum, 64 bytes with the FCS.
const PAYLOAD: usize = 18;
/// Offered payload rate: one frame every 7.2 µs against 6.72 µs of wire
/// time per minimum-size frame.
const RATE_BPS: u64 = 20_000_000;
const SINK_PORT: u16 = 0x6363;
/// Local counters chained behind the per-frame beat.
const CASCADE: usize = 3;

/// Generated inputs of one `flood_engine` run.
#[derive(Debug, Clone)]
pub struct Flood {
    seed: u64,
    world_seed: u64,
    frames: u64,
    script: String,
}

impl Flood {
    /// Generates the inputs for `opts.seed`.
    pub fn generate(opts: Opts) -> Flood {
        let mut rng = Rng::new(opts.seed, "flood_engine");
        let frames = PHASE * if opts.quick { 64 } else { 1024 };
        let mut filters = String::new();
        for k in 0..DECOYS {
            let port = loop {
                let p = rng.range(1024, 65_536);
                if p != u64::from(SINK_PORT) {
                    break p;
                }
            };
            let line = match k % 4 {
                0 => format!("decoy{k}: (23 1 0x11), (36 2 {port:#06x})"),
                1 => format!("decoy{k}: (36 2 {port:#06x}), (23 1 0x11)"),
                2 => format!("decoy{k}: (23 1 0x06), (36 2 {port:#06x})"),
                _ => format!(
                    "decoy{k}: (12 2 0x0806), (38 4 {:#010x})",
                    rng.next_u64() as u32
                ),
            };
            filters.push_str(&line);
            filters.push('\n');
        }
        // Five distinct 4-frame slots of the phase, one per fault.
        let mut slots: Vec<u64> = (0..PHASE / 4).collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        let at = |i: usize| slots[i] * 4 + 1;
        let (drop, dup, delay, modify, reorder) = (at(0), at(1), at(2), at(3), at(4));
        // Conditions fire on their false-to-true edge, so the cascade
        // re-arms itself: Beat rises to 1 on every sent frame and is reset
        // at once; each Echo counter then pulls the next one level with it.
        let mut cascade = String::new();
        for c in 1..=CASCADE {
            cascade.push_str(&format!("Echo{c}: (node1)\n"));
        }
        cascade.push_str("(TRUE) >> ENABLE_CNTR(Sent); ENABLE_CNTR(Rcvd);\n");
        cascade.push_str("(TRUE) >> ENABLE_CNTR(Phase); ENABLE_CNTR(Beat);\n");
        cascade.push_str("((Beat = 1)) >> RESET_CNTR(Beat); INCR_CNTR(Echo1, 1);\n");
        for c in 2..=CASCADE {
            let prev = c - 1;
            cascade.push_str(&format!(
                "((Echo{prev} > Echo{c})) >> INCR_CNTR(Echo{c}, 1);\n"
            ));
        }
        let pkt = "udp_data, node1, node2, SEND";
        let script = format!(
            r#"
            FILTER_TABLE
            {filters}
            udp_data: (23 1 0x11), (36 2 {SINK_PORT:#06x})
            END
            NODE_TABLE
            node1 02:00:00:00:00:01 192.168.1.2
            node2 02:00:00:00:00:02 192.168.1.3
            END
            SCENARIO FloodEngine
            Sent: ({pkt})
            Phase: ({pkt})
            Beat: ({pkt})
            Rcvd: (udp_data, node1, node2, RECV)
            {cascade}
            ((Phase = {drop})) >> DROP({pkt});
            ((Phase = {dup})) >> DUP({pkt});
            ((Phase = {delay})) >> DELAY({pkt}, 1msec);
            ((Phase = {modify})) >> MODIFY({pkt}, (40 2 0x0000));
            ((Phase > {r0}) && (Phase <= {r3})) >> REORDER({pkt}, 3, (2 0 1));
            ((Phase = {PHASE})) >> RESET_CNTR(Phase);
            ((Sent = {frames})) >> STOP;
            END
            "#,
            r0 = reorder - 1,
            r3 = reorder + 2,
        );
        Flood {
            seed: opts.seed,
            world_seed: rng.next_u64(),
            frames,
            script,
        }
    }

    fn world(&self, tables: &TableSet) -> (World, Vec<DeviceId>, DeviceId) {
        let mut world = World::new(self.world_seed);
        world.trace_mut().set_enabled(false);
        let nodes = Runner::create_hosts(&mut world, tables);
        let sw = world.add_switch("sw0", 4);
        for &n in &nodes {
            world.connect(n, sw, LinkConfig::fast_ethernet());
        }
        (world, nodes, sw)
    }

    fn flooder(&self, world: &World, sink: DeviceId) -> UdpFlooder {
        UdpFlooder::new(
            world.host_mac(sink),
            world.host_ip(sink),
            SINK_PORT,
            9000,
            RATE_BPS,
            PAYLOAD,
            (self.frames + 2 * PHASE) * PAYLOAD as u64,
        )
    }
}

impl Scenario for Flood {
    fn name(&self) -> &'static str {
        "flood_engine"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn config_hash(&self) -> u64 {
        Fnv::default()
            .str(&self.script)
            .u64(self.world_seed)
            .finish()
    }

    fn rep(&self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let tables = sim::compile(&self.script, &mut rep);
        let ((mut world, nodes, sw), world_build_s) = timed(|| self.world(&tables));
        rep.world_build_s = world_build_s;
        let (runner, install_s) = timed(|| {
            let runner = Runner::install(&mut world, tables, EngineConfig::default());
            runner.settle(&mut world);
            runner
        });
        rep.install_s = install_s;
        // Handing the traffic sources to the world is not set-up.
        let ipv4 = Binding::EtherType(EtherType::IPV4);
        let sink = timing::protocol(UdpSink::new(SINK_PORT), traced);
        let sink_id = world.add_protocol(nodes[1], ipv4, sink);
        let flooder = timing::protocol(self.flooder(&world, nodes[1]), traced);
        let flooder_id = world.add_protocol(nodes[0], ipv4, flooder);

        let events_before = world.events_processed();
        let (report, run_s) = timed(|| runner.run(&mut world, SimDuration::from_secs(30)));
        rep.run_s = run_s;
        rep.events = world.events_processed() - events_before;
        sim::record_report(&report, &mut rep);
        rep.port_drops = sim::port_drops(&world, &nodes, sw, 2);
        let sink = if traced {
            let sink = world
                .protocol::<Timed<UdpSink>>(nodes[1], sink_id)
                .expect("sink");
            let flooder = world
                .protocol::<Timed<UdpFlooder>>(nodes[0], flooder_id)
                .expect("flooder");
            rep.udp_busy_s = (sink.busy + flooder.busy).as_secs_f64();
            &sink.inner
        } else {
            world.protocol::<UdpSink>(nodes[1], sink_id).expect("sink")
        };
        rep.payload_bytes = sink.payload_bytes();
        let delivered = sink.frames();

        // Output checks: every fault fires exactly once per phase (three
        // frames for REORDER), every cascade counter counts every sent
        // frame, and what node2 saw is what node1 let through.
        let n1 = report.stats[0].1;
        let frames = self.frames as i64;
        let phases = frames / PHASE as i64;
        let mut want = vec![
            ("Sent".to_string(), report.counter("Sent"), frames),
            ("drops".to_string(), Some(n1.drops as i64), phases),
            ("dups".to_string(), Some(n1.dups as i64), phases),
            ("delays".to_string(), Some(n1.delays as i64), phases),
            ("modifies".to_string(), Some(n1.modifies as i64), phases),
            ("reorders".to_string(), Some(n1.reorders as i64), 3 * phases),
        ];
        for c in 1..=CASCADE {
            let echo = format!("Echo{c}");
            let got = report.counter(&echo);
            want.push((echo, got, frames));
        }
        let problems = &mut rep.problems;
        for (name, got, value) in want {
            if got != Some(value) {
                problems.push(format!("flood_engine: {name} = {got:?}, want {value}"));
            }
        }
        if !matches!(report.stop, StopReason::StopAction(_)) || !report.passed() {
            problems.push(format!(
                "flood_engine: run ended by `{}` with {} flagged errors",
                report.stop,
                report.errors.len()
            ));
        }
        // One DROP and one DUP per phase cancel out, so node1 lets as
        // many frames through as it sent; the last few are still in
        // flight when STOP freezes the world.
        let rcvd = report.counter("Rcvd").unwrap_or(-1);
        let let_through = self.frames as i64;
        if rcvd > let_through || rcvd < let_through - 2 * PHASE as i64 {
            problems.push(format!(
                "flood_engine: node2 counted {rcvd} frames, node1 let {let_through} through"
            ));
        }
        if delivered != rcvd as u64 || rep.payload_bytes != delivered * PAYLOAD as u64 {
            problems.push(format!(
                "flood_engine: sink took {delivered} datagrams ({} bytes), node2 counted {rcvd}",
                rep.payload_bytes
            ));
        }
        if rep.engine.faults_in_limbo != 0 || rep.port_drops != 0 {
            problems.push(format!(
                "flood_engine: {} frames in limbo, {} dropped at full queues",
                rep.engine.faults_in_limbo, rep.port_drops
            ));
        }
        let mut digest = Fnv::default();
        digest.str(&report.stop.to_string()).u64(delivered);
        for (node, counter, value) in &report.counters {
            digest.str(node).str(counter).u64(*value as u64);
        }
        for (node, s) in &report.stats {
            digest
                .str(node)
                .u64(s.drops)
                .u64(s.dups)
                .u64(s.delays)
                .u64(s.reorders)
                .u64(s.modifies);
        }
        rep.digest = digest.finish();
        rep
    }

    fn without_engines(&self, rep: &Rep) -> Option<f64> {
        let tables = vw_fsl::compile(&vw_fsl::parse(&self.script).ok()?)
            .ok()?
            .remove(0);
        let (mut world, nodes, _) = self.world(&tables);
        let ipv4 = Binding::EtherType(EtherType::IPV4);
        world.add_protocol(nodes[1], ipv4, Box::new(UdpSink::new(SINK_PORT)));
        let flooder = self.flooder(&world, nodes[1]);
        world.add_protocol(nodes[0], ipv4, Box::new(flooder));
        let ((), run_s) = timed(|| world.run_for(SimDuration::from_nanos(rep.sim_ns)));
        Some(run_s)
    }
}
