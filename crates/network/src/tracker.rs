//! End-to-end delivery tracking and latency accounting.
//!
//! Latency "spans the instant when the first flit of the packet is
//! created, to the time when its last flit is ejected at the destination
//! node, including source queuing time and assuming immediate ejection"
//! (paper Section 4). The tracker also cross-checks conservation: every
//! flit is delivered exactly once, to the right node.

use noc_engine::stats::{Histogram, RunningStats};
use noc_engine::Cycle;
use noc_topology::NodeId;
use noc_traffic::{Packet, PacketId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

/// A delivery-accounting error the caller can recover from.
///
/// Under fault injection, retransmission legitimately produces duplicate
/// copies of already-delivered flits; the tracker reports them as typed
/// errors so the network can discard the copy (and trace it) instead of
/// double-counting latency. Without faults a duplicate is a conservation
/// bug and the network escalates the error to a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryError {
    /// A flit copy arrived for a `(packet, seq)` that was already
    /// accepted — either the packet is still in flight and the bitmap
    /// has the seq marked, or the whole packet already completed.
    DuplicateDelivery {
        /// The packet the duplicate copy belongs to.
        packet: PacketId,
        /// Sequence number of the duplicate flit.
        seq: u32,
    },
}

impl fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliveryError::DuplicateDelivery { packet, seq } => {
                write!(f, "duplicate delivery of flit {seq} of {packet}")
            }
        }
    }
}

/// In-flight bookkeeping for one packet.
#[derive(Clone, Debug)]
struct Inflight {
    dest: NodeId,
    created_at: Cycle,
    length: u32,
    seen: u64,
    seen_count: u32,
    measured: bool,
}

/// Tracks every injected packet until its last flit ejects.
///
/// # Examples
///
/// ```
/// use noc_engine::Cycle;
/// use noc_network::DeliveryTracker;
/// use noc_topology::NodeId;
/// use noc_traffic::{Packet, PacketId};
///
/// let mut tracker = DeliveryTracker::new(200);
/// tracker.on_inject(&Packet {
///     id: PacketId::new(0), src: NodeId::new(1), dest: NodeId::new(2),
///     length_flits: 1, created_at: Cycle::ZERO,
/// }, true);
/// tracker.on_eject(PacketId::new(0), 0, NodeId::new(2), Cycle::new(27)).unwrap();
/// assert_eq!(tracker.measured_delivered(), 1);
/// assert_eq!(tracker.latency().mean(), 27.0);
/// ```
#[derive(Clone, Debug)]
pub struct DeliveryTracker {
    /// In-flight packets by id. The fixed-key hasher keeps rehash timing,
    /// and so heap-allocation counts, identical from run to run (the keys
    /// are simulator-assigned ids, never outside input); the snapshot
    /// sorts, so iteration order never leaks.
    inflight: HashMap<PacketId, Inflight, BuildHasherDefault<DefaultHasher>>,
    /// Ids of packets whose last flit already ejected, so late duplicate
    /// copies are distinguishable from genuinely unknown packets.
    completed: HashSet<PacketId>,
    latency: RunningStats,
    latency_hist: Histogram,
    measured_delivered: u64,
    measured_outstanding: u64,
    delivered_flits: u64,
    delivered_packets: u64,
}

impl DeliveryTracker {
    /// Creates a tracker; `hist_max` caps the exact latency histogram.
    pub fn new(hist_max: usize) -> Self {
        DeliveryTracker {
            inflight: HashMap::default(),
            completed: HashSet::new(),
            latency: RunningStats::new(),
            latency_hist: Histogram::new(hist_max),
            measured_delivered: 0,
            measured_outstanding: 0,
            delivered_flits: 0,
            delivered_packets: 0,
        }
    }

    /// Registers an injected packet; `measured` marks it as part of the
    /// sample whose latency is reported.
    ///
    /// # Panics
    ///
    /// Panics on duplicate packet ids.
    pub fn on_inject(&mut self, packet: &Packet, measured: bool) {
        let prev = self.inflight.insert(
            packet.id,
            Inflight {
                dest: packet.dest,
                created_at: packet.created_at,
                length: packet.length_flits,
                seen: 0,
                seen_count: 0,
                measured,
            },
        );
        assert!(prev.is_none(), "duplicate packet id {}", packet.id);
        if measured {
            self.measured_outstanding += 1;
        }
    }

    /// Records the ejection of flit `seq` of `packet` at node `at`.
    ///
    /// Returns `Ok(Some(latency))` when this was the packet's last flit,
    /// so the caller can emit a delivery event without re-deriving it,
    /// and `Ok(None)` for earlier flits. A copy of an already-accepted
    /// flit — legitimate under fault-injected retransmission, a bug
    /// otherwise — returns [`DeliveryError::DuplicateDelivery`] and
    /// changes no counter, so latency is never double-counted. Duplicate
    /// detection is exact for packets up to 64 flits (the bitmap width);
    /// fault plans must keep packets within that bound.
    ///
    /// # Panics
    ///
    /// Panics on genuinely unknown packets, wrong destinations and
    /// out-of-range flits — conservation violations no fault model of
    /// this stack can legitimately produce.
    pub fn on_eject(
        &mut self,
        packet: PacketId,
        seq: u32,
        at: NodeId,
        now: Cycle,
    ) -> Result<Option<u64>, DeliveryError> {
        let Some(entry) = self.inflight.get_mut(&packet) else {
            if self.completed.contains(&packet) {
                return Err(DeliveryError::DuplicateDelivery { packet, seq });
            }
            panic!("ejected unknown packet {packet}");
        };
        assert_eq!(entry.dest, at, "packet {packet} ejected at wrong node");
        assert!(seq < entry.length, "flit seq out of range for {packet}");
        if entry.length <= 64 {
            let bit = 1u64 << seq;
            if entry.seen & bit != 0 {
                return Err(DeliveryError::DuplicateDelivery { packet, seq });
            }
            entry.seen |= bit;
        }
        entry.seen_count += 1;
        self.delivered_flits += 1;
        if entry.seen_count == entry.length {
            let latency = now - entry.created_at;
            if entry.measured {
                self.latency.record(latency as f64);
                self.latency_hist.record(latency);
                self.measured_delivered += 1;
                self.measured_outstanding -= 1;
            }
            self.delivered_packets += 1;
            self.inflight.remove(&packet);
            self.completed.insert(packet);
            Ok(Some(latency))
        } else {
            Ok(None)
        }
    }

    /// Latency statistics over delivered measured packets.
    pub fn latency(&self) -> &RunningStats {
        &self.latency
    }

    /// Latency histogram over delivered measured packets.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Measured packets fully delivered.
    pub fn measured_delivered(&self) -> u64 {
        self.measured_delivered
    }

    /// Measured packets still in flight (or queued).
    pub fn measured_outstanding(&self) -> u64 {
        self.measured_outstanding
    }

    /// All flits delivered so far (measured or not).
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// All packets fully delivered so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Packets injected but not yet fully delivered.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

impl noc_metrics::Snapshot for DeliveryTracker {
    /// Canonical dump of the tracker: in-flight packets sorted by id (the
    /// underlying `HashMap` iterates in arbitrary order, which a
    /// deterministic snapshot must never leak), completed count and the
    /// delivery/latency aggregates.
    fn snapshot(&self) -> noc_metrics::Json {
        use noc_metrics::Json;
        let mut inflight: Vec<(&PacketId, &Inflight)> = self.inflight.iter().collect();
        inflight.sort_by_key(|(id, _)| id.raw());
        let inflight: Vec<Json> = inflight
            .into_iter()
            .map(|(id, e)| {
                Json::obj(vec![
                    ("packet".into(), Json::Num(id.raw() as f64)),
                    ("dest".into(), Json::Num(e.dest.raw() as f64)),
                    ("created_at".into(), Json::Num(e.created_at.raw() as f64)),
                    ("length".into(), Json::Num(e.length as f64)),
                    ("seen_count".into(), Json::Num(e.seen_count as f64)),
                    ("seen_bits".into(), Json::Str(format!("{:016x}", e.seen))),
                    ("measured".into(), Json::Bool(e.measured)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("in_flight".into(), Json::Arr(inflight)),
            ("completed".into(), Json::Num(self.completed.len() as f64)),
            (
                "delivered_flits".into(),
                Json::Num(self.delivered_flits as f64),
            ),
            (
                "delivered_packets".into(),
                Json::Num(self.delivered_packets as f64),
            ),
            (
                "measured_delivered".into(),
                Json::Num(self.measured_delivered as f64),
            ),
            (
                "measured_outstanding".into(),
                Json::Num(self.measured_outstanding as f64),
            ),
            (
                "latency_count".into(),
                Json::Num(self.latency.count() as f64),
            ),
            ("latency_mean".into(), Json::Num(self.latency.mean())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64, len: u32, created: u64) -> Packet {
        Packet {
            id: PacketId::new(id),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            length_flits: len,
            created_at: Cycle::new(created),
        }
    }

    #[test]
    fn tracks_multi_flit_delivery() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 3, 10), true);
        t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(30))
            .unwrap();
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(31))
            .unwrap();
        assert_eq!(t.measured_delivered(), 0);
        assert_eq!(t.in_flight(), 1);
        t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(35))
            .unwrap();
        assert_eq!(t.measured_delivered(), 1);
        assert_eq!(t.latency().mean(), 25.0);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.delivered_flits(), 3);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    fn unmeasured_packets_do_not_affect_latency() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), false);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(99))
            .unwrap();
        assert_eq!(t.latency().count(), 0);
        assert_eq!(t.measured_delivered(), 0);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    fn outstanding_counts() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        t.on_inject(&packet(2, 1, 0), true);
        assert_eq!(t.measured_outstanding(), 2);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20))
            .unwrap();
        assert_eq!(t.measured_outstanding(), 1);
    }

    #[test]
    fn single_flit_packet_has_pure_queue_latency() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 10), true);
        let done = t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10));
        // Created and ejected in the same cycle: latency 0 is legal.
        assert_eq!(done, Ok(Some(0)));
        assert_eq!(t.latency().mean(), 0.0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn on_eject_reports_completion_exactly_once() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 3, 10), true);
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20)),
            Ok(None)
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(21)),
            Ok(None)
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(25)),
            Ok(Some(15))
        );
    }

    #[test]
    fn long_packets_complete_via_the_count_path() {
        // Beyond 64 flits the duplicate bitmap no longer fits in a u64;
        // completion falls back to counting (by design, duplicates of
        // such packets are only caught by the flit count).
        let len = 70;
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, len, 0), true);
        for seq in 0..len {
            let done = t.on_eject(PacketId::new(1), seq, NodeId::new(5), Cycle::new(100));
            assert_eq!(done.unwrap().is_some(), seq == len - 1);
        }
        assert_eq!(t.delivered_flits(), len as u64);
        assert_eq!(t.delivered_packets(), 1);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn eject_after_completion_is_a_duplicate_delivery_error() {
        // Once the last flit lands the packet leaves the in-flight map;
        // the completed-set still recognises a late retransmitted copy
        // as a duplicate rather than an unknown packet.
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), false);
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(9)),
            Ok(Some(9))
        );
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(10)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(1),
                seq: 0
            })
        );
        // Nothing was double-counted.
        assert_eq!(t.delivered_flits(), 1);
        assert_eq!(t.delivered_packets(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seq_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 2, 0), true);
        let _ = t.on_eject(PacketId::new(1), 2, NodeId::new(5), Cycle::new(20));
    }

    #[test]
    #[should_panic(expected = "wrong node")]
    fn wrong_destination_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        let _ = t.on_eject(PacketId::new(1), 0, NodeId::new(4), Cycle::new(20));
    }

    #[test]
    fn duplicate_flit_in_flight_is_a_duplicate_delivery_error() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 2, 0), true);
        t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(20))
            .unwrap();
        assert_eq!(
            t.on_eject(PacketId::new(1), 0, NodeId::new(5), Cycle::new(21)),
            Err(DeliveryError::DuplicateDelivery {
                packet: PacketId::new(1),
                seq: 0
            })
        );
        // The rejected copy changed nothing: the packet still completes
        // normally with its real latency.
        assert_eq!(t.delivered_flits(), 1);
        assert_eq!(
            t.on_eject(PacketId::new(1), 1, NodeId::new(5), Cycle::new(30)),
            Ok(Some(30))
        );
        assert_eq!(t.latency().mean(), 30.0);
    }

    #[test]
    #[should_panic(expected = "unknown packet")]
    fn unknown_packet_panics() {
        let mut t = DeliveryTracker::new(100);
        let _ = t.on_eject(PacketId::new(7), 0, NodeId::new(5), Cycle::new(20));
    }

    #[test]
    #[should_panic(expected = "duplicate packet id")]
    fn duplicate_inject_panics() {
        let mut t = DeliveryTracker::new(100);
        t.on_inject(&packet(1, 1, 0), true);
        t.on_inject(&packet(1, 1, 0), true);
    }
}
