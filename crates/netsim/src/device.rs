//! Devices: hosts, switches and hubs, and their ports.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use vw_packet::MacAddr;

use crate::hook::Hook;
use crate::id::LinkId;
use crate::protocol::{Binding, Protocol};
use crate::time::SimTime;

/// Default bound on a port's transmit queue, in frames. Finite queues are
/// what make throughput saturate realistically at high offered load.
pub const DEFAULT_TX_QUEUE_CAP: usize = 128;

/// One attachment point on a device: a transmitter that serialises the
/// frames committed to it back to back.
///
/// A frame is committed when it is sent: its serialisation is scheduled
/// to start when the port falls idle ([`busy_until`](Port::busy_until))
/// and its link crossing is one event at the far end. The port keeps only
/// what tail drop and [`PortStats`] need: the end times of the frames
/// that had not finished serialising at the last send.
#[derive(Debug)]
pub(crate) struct Port {
    pub link: Option<LinkId>,
    pub queue_cap: usize,
    /// `(serialisation end, frame bytes)` of committed frames not yet
    /// counted as transmitted, in commit order (ends strictly increase).
    /// Those still serialising at `now` are one on the wire plus the ones
    /// waiting behind it.
    pub committed: VecDeque<(SimTime, usize)>,
    /// Frames dropped due to queue overflow.
    pub dropped: u64,
    /// Frames fully transmitted.
    pub tx_frames: u64,
    /// Bytes fully transmitted (frame bytes, excluding preamble/IFG).
    pub tx_bytes: u64,
}

impl Port {
    pub fn new() -> Self {
        Port {
            link: None,
            queue_cap: DEFAULT_TX_QUEUE_CAP,
            committed: VecDeque::new(),
            dropped: 0,
            tx_frames: 0,
            tx_bytes: 0,
        }
    }

    /// When the port falls idle: the serialisation end of the last
    /// committed frame, or `now` if every committed frame has ended.
    pub fn busy_until(&self, now: SimTime) -> SimTime {
        self.committed.back().map_or(now, |&(end, _)| end.max(now))
    }

    /// Counts the committed frames whose serialisation ended by `now` as
    /// transmitted.
    pub fn retire(&mut self, now: SimTime) {
        while let Some(&(end, bytes)) = self.committed.front() {
            if end > now {
                break;
            }
            self.committed.pop_front();
            self.tx_frames += 1;
            self.tx_bytes += bytes as u64;
        }
    }

    /// The counters as of `now`, without retiring anything.
    pub fn stats(&self, now: SimTime) -> PortStats {
        let mut stats = PortStats {
            dropped: self.dropped,
            tx_frames: self.tx_frames,
            tx_bytes: self.tx_bytes,
            queued: 0,
        };
        let mut serialising = 0usize;
        for &(end, bytes) in &self.committed {
            if end <= now {
                stats.tx_frames += 1;
                stats.tx_bytes += bytes as u64;
            } else {
                serialising += 1;
            }
        }
        // All but the frame on the wire are waiting.
        stats.queued = serialising.saturating_sub(1);
        stats
    }
}

/// Public, copyable snapshot of a port's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Frames dropped because the transmit queue was full.
    pub dropped: u64,
    /// Frames fully transmitted onto the link.
    pub tx_frames: u64,
    /// Bytes fully transmitted onto the link.
    pub tx_bytes: u64,
    /// Frames currently waiting in the transmit queue.
    pub queued: usize,
}

/// A simulated end host: one NIC, a chain of hooks, and a set of protocol
/// handlers.
pub(crate) struct Host {
    pub name: String,
    pub mac: MacAddr,
    pub ip: Ipv4Addr,
    pub port: Port,
    /// Hook chain; index 0 is closest to the protocol stack.
    pub hooks: Vec<Option<Box<dyn Hook>>>,
    pub protocols: Vec<(Binding, Option<Box<dyn Protocol>>)>,
    /// A failed host neither sends nor receives (used by tests; the FSL
    /// `FAIL` action instead installs a blackhole at the FIE).
    pub failed: bool,
    /// A promiscuous host accepts frames regardless of destination MAC.
    pub promiscuous: bool,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("mac", &self.mac)
            .field("ip", &self.ip)
            .field("hooks", &self.hooks.len())
            .field("protocols", &self.protocols.len())
            .field("failed", &self.failed)
            .finish()
    }
}

/// A store-and-forward learning switch.
#[derive(Debug)]
pub(crate) struct Switch {
    pub name: String,
    pub ports: Vec<Port>,
    /// MAC learning table: address → port index.
    pub fdb: HashMap<MacAddr, u16>,
}

/// A dumb hub: every inbound frame is repeated on all other ports.
///
/// This approximates a shared bus as a star of dedicated links; each output
/// port serializes independently, so simultaneous senders are queued rather
/// than collided. Rether's token discipline means at most one station
/// transmits at a time anyway, making the approximation exact in its
/// intended use.
#[derive(Debug)]
pub(crate) struct Hub {
    pub name: String,
    pub ports: Vec<Port>,
}

/// The device arena entry.
#[derive(Debug)]
pub(crate) enum Device {
    Host(Host),
    Switch(Switch),
    Hub(Hub),
}

impl Device {
    pub fn port_mut(&mut self, port: u16) -> Option<&mut Port> {
        match self {
            Device::Host(h) => (port == 0).then_some(&mut h.port),
            Device::Switch(s) => s.ports.get_mut(port as usize),
            Device::Hub(h) => h.ports.get_mut(port as usize),
        }
    }

    pub fn port(&self, port: u16) -> Option<&Port> {
        match self {
            Device::Host(h) => (port == 0).then_some(&h.port),
            Device::Switch(s) => s.ports.get(port as usize),
            Device::Hub(h) => h.ports.get(port as usize),
        }
    }

    pub fn name(&self) -> &str {
        match self {
            Device::Host(h) => &h.name,
            Device::Switch(s) => &s.name,
            Device::Hub(h) => &h.name,
        }
    }

    pub fn as_host(&self) -> Option<&Host> {
        match self {
            Device::Host(h) => Some(h),
            _ => None,
        }
    }

    pub fn as_host_mut(&mut self) -> Option<&mut Host> {
        match self {
            Device::Host(h) => Some(h),
            _ => None,
        }
    }

    /// Index of the first unconnected port, if any.
    pub fn free_port(&self) -> Option<u16> {
        match self {
            Device::Host(h) => h.port.link.is_none().then_some(0),
            Device::Switch(s) => s
                .ports
                .iter()
                .position(|p| p.link.is_none())
                .map(|i| i as u16),
            Device::Hub(h) => h
                .ports
                .iter()
                .position(|p| p.link.is_none())
                .map(|i| i as u16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_free_port_progression() {
        let mut sw = Device::Switch(Switch {
            name: "sw".into(),
            ports: (0..3).map(|_| Port::new()).collect(),
            fdb: HashMap::new(),
        });
        assert_eq!(sw.free_port(), Some(0));
        sw.port_mut(0).unwrap().link = Some(LinkId::from_index(0));
        assert_eq!(sw.free_port(), Some(1));
        sw.port_mut(1).unwrap().link = Some(LinkId::from_index(1));
        sw.port_mut(2).unwrap().link = Some(LinkId::from_index(2));
        assert_eq!(sw.free_port(), None);
    }

    #[test]
    fn host_has_single_port() {
        let host = Device::Host(Host {
            name: "h".into(),
            mac: MacAddr::from_index(1),
            ip: Ipv4Addr::new(10, 0, 0, 1),
            port: Port::new(),
            hooks: Vec::new(),
            protocols: Vec::new(),
            failed: false,
            promiscuous: false,
        });
        assert!(host.port(0).is_some());
        assert!(host.port(1).is_none());
        assert_eq!(host.name(), "h");
        assert!(host.as_host().is_some());
    }
}
