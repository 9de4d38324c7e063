//! The end-to-end reliability protocol: source-side retransmit buffers
//! with ACK/NACK and bounded exponential backoff.
//!
//! One [`Reliability`] instance models the retransmit buffers of every
//! source NI in the network (packet ids are globally unique, so the
//! per-source buffers never interact). The network drives it with four
//! calls:
//!
//! * [`Reliability::register`] when a packet is first injected — the
//!   packet is held until acknowledged;
//! * [`Reliability::schedule_nack`] when the destination discards a
//!   CRC-failed flit — a NACK travels back and triggers retransmission;
//! * [`Reliability::schedule_ack`] when the destination accepts the last
//!   flit of a packet — the ACK retires the buffer entry;
//! * [`Reliability::poll`] once per cycle — fires due ACK/NACK/timeout
//!   events and returns the actions the network must take.
//!
//! The protocol is NACK-initiated and timeout-continued: no timer is
//! armed until the first NACK, because the fault model (corruption and
//! drop-as-delay) can never silently lose a flit — every fault is
//! eventually observed at the destination. This is what makes the layer
//! exactly zero-cost when no fault fires: a fault-free run schedules
//! nothing and draws nothing.
//!
//! Every queue is drained in deterministic order (a binary heap keyed by
//! `(cycle, kind, packet)`), so fault runs replay bit-identically.

use noc_traffic::{Packet, PacketId};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

/// Why a retransmission fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetransmitCause {
    /// The destination NACKed a corrupted flit.
    Nack,
    /// The retransmit timer expired without an ACK.
    Timeout,
}

/// One action the network must take after [`Reliability::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReliabilityAction {
    /// Re-inject `packet` from its source NI.
    Retransmit {
        /// The buffered packet to re-send.
        packet: Packet,
        /// Attempt number of this copy (1 for the first retransmission).
        attempt: u32,
        /// What triggered the retransmission.
        cause: RetransmitCause,
    },
    /// An ACK landed: the source retired its buffer entry for `packet`.
    Retired {
        /// The acknowledged packet.
        packet: PacketId,
    },
}

/// Event kinds in the timer heap; the rank is the deterministic
/// tie-break for events due on the same cycle.
const RANK_ACK: u8 = 0;
const RANK_NACK: u8 = 1;
const RANK_TIMEOUT: u8 = 2;

#[derive(Clone, Debug)]
struct Entry {
    packet: Packet,
    /// Retransmissions performed so far.
    attempts: u32,
    /// Deadline of the currently armed timeout; heap events that do not
    /// match are stale (superseded by a re-arm) and ignored.
    armed_timeout: Option<u64>,
    /// True while a NACK is in flight, suppressing duplicate NACKs from
    /// further corrupt flits of the same copy.
    nack_pending: bool,
}

/// The collective retransmit-buffer state of every source NI.
#[derive(Clone, Debug, Default)]
pub struct Reliability {
    /// Keyed by simulator-assigned packet id. A fixed-key hasher (the map
    /// is never iterated) keeps rehash timing, and so heap-allocation
    /// counts, identical from run to run.
    entries: HashMap<u64, Entry, BuildHasherDefault<DefaultHasher>>,
    /// Min-heap of `(due_cycle, kind_rank, packet)` events.
    timers: BinaryHeap<Reverse<(u64, u8, u64)>>,
    /// Base retransmit timeout (cycles).
    timeout: u64,
    /// Cap on backoff doublings.
    max_backoff_exp: u32,
    /// Peak number of simultaneously buffered packets (for metrics).
    peak_buffered: usize,
}

impl Reliability {
    /// Creates the protocol state with the plan's timeout knobs.
    pub fn new(retransmit_timeout: u64, max_backoff_exp: u32) -> Self {
        Reliability {
            timeout: retransmit_timeout.max(1),
            max_backoff_exp,
            ..Reliability::default()
        }
    }

    /// Buffers a freshly injected packet until it is acknowledged.
    /// Re-registering an id (a retransmitted packet re-entering the
    /// source queue) is a no-op: the entry already exists.
    pub fn register(&mut self, packet: Packet) {
        self.entries.entry(packet.id.raw()).or_insert(Entry {
            packet,
            attempts: 0,
            armed_timeout: None,
            nack_pending: false,
        });
        self.peak_buffered = self.peak_buffered.max(self.entries.len());
    }

    /// Schedules the NACK for a corrupt flit of `packet`, due at `at`.
    /// Returns `true` if a NACK was actually scheduled (`false` when one
    /// is already in flight or the packet was already acknowledged).
    pub fn schedule_nack(&mut self, packet: PacketId, at: u64) -> bool {
        match self.entries.get_mut(&packet.raw()) {
            Some(e) if !e.nack_pending => {
                e.nack_pending = true;
                self.timers.push(Reverse((at, RANK_NACK, packet.raw())));
                true
            }
            _ => false,
        }
    }

    /// Schedules the ACK for a completely delivered `packet`, due at `at`.
    pub fn schedule_ack(&mut self, packet: PacketId, at: u64) {
        self.timers.push(Reverse((at, RANK_ACK, packet.raw())));
    }

    /// Fires every event due at or before `now`, in deterministic order,
    /// and returns the resulting actions.
    pub fn poll(&mut self, now: u64, out: &mut Vec<ReliabilityAction>) {
        let (timeout, max_exp) = (self.timeout, self.max_backoff_exp);
        let backoff = |attempt: u32| Self::backoff_after(timeout, max_exp, attempt);
        while let Some(&Reverse((due, rank, id))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            match rank {
                RANK_ACK => {
                    if self.entries.remove(&id).is_some() {
                        out.push(ReliabilityAction::Retired {
                            packet: PacketId::new(id),
                        });
                    }
                }
                RANK_NACK => {
                    if let Some(e) = self.entries.get_mut(&id) {
                        e.nack_pending = false;
                        let (packet, attempt) = (e.packet, e.attempts + 1);
                        e.attempts = attempt;
                        let deadline = now + backoff(attempt);
                        e.armed_timeout = Some(deadline);
                        self.timers.push(Reverse((deadline, RANK_TIMEOUT, id)));
                        out.push(ReliabilityAction::Retransmit {
                            packet,
                            attempt,
                            cause: RetransmitCause::Nack,
                        });
                    }
                }
                _ => {
                    // Timeout: only the most recently armed deadline
                    // counts; earlier heap entries were superseded.
                    if let Some(e) = self.entries.get_mut(&id) {
                        if e.armed_timeout == Some(due) {
                            let (packet, attempt) = (e.packet, e.attempts + 1);
                            e.attempts = attempt;
                            let deadline = now + backoff(attempt);
                            e.armed_timeout = Some(deadline);
                            self.timers.push(Reverse((deadline, RANK_TIMEOUT, id)));
                            out.push(ReliabilityAction::Retransmit {
                                packet,
                                attempt,
                                cause: RetransmitCause::Timeout,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Timeout armed after retransmission `attempt`: the base timeout
    /// doubled once per earlier attempt, capped at `max_exp` doublings.
    fn backoff_after(timeout: u64, max_exp: u32, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(max_exp);
        timeout.saturating_mul(1u64 << exp.min(62))
    }

    /// The timeout this instance arms after retransmission `attempt`.
    #[cfg(test)]
    fn backoff(&self, attempt: u32) -> u64 {
        Self::backoff_after(self.timeout, self.max_backoff_exp, attempt)
    }

    /// Packets currently held in retransmit buffers.
    pub fn buffered(&self) -> usize {
        self.entries.len()
    }

    /// Peak simultaneous retransmit-buffer occupancy.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// True when no packet is buffered and no timer is pending — the
    /// reliability layer is fully drained.
    pub fn is_drained(&self) -> bool {
        self.entries.is_empty() && self.timers.is_empty()
    }

    /// The next cycle at which a timer fires, if any; lets the network's
    /// idle-skip jump straight to it instead of polling every cycle.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse((due, _, _))| *due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::Cycle;
    use noc_topology::NodeId;

    fn packet(id: u64) -> Packet {
        Packet {
            id: PacketId::new(id),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            length_flits: 5,
            created_at: Cycle::ZERO,
        }
    }

    fn poll(r: &mut Reliability, now: u64) -> Vec<ReliabilityAction> {
        let mut out = Vec::new();
        r.poll(now, &mut out);
        out
    }

    #[test]
    fn ack_retires_the_entry() {
        let mut r = Reliability::new(100, 4);
        r.register(packet(1));
        r.schedule_ack(PacketId::new(1), 10);
        assert!(poll(&mut r, 9).is_empty());
        assert_eq!(
            poll(&mut r, 10),
            vec![ReliabilityAction::Retired {
                packet: PacketId::new(1)
            }]
        );
        assert!(r.is_drained());
    }

    #[test]
    fn nack_triggers_retransmit_and_arms_a_timeout() {
        let mut r = Reliability::new(100, 4);
        r.register(packet(1));
        assert!(r.schedule_nack(PacketId::new(1), 20));
        // A second corrupt flit of the same copy is suppressed.
        assert!(!r.schedule_nack(PacketId::new(1), 21));
        let actions = poll(&mut r, 20);
        assert_eq!(
            actions,
            vec![ReliabilityAction::Retransmit {
                packet: packet(1),
                attempt: 1,
                cause: RetransmitCause::Nack,
            }]
        );
        assert_eq!(r.next_deadline(), Some(120));
        // The timeout keeps firing with doubling backoff until an ACK.
        let actions = poll(&mut r, 120);
        assert_eq!(
            actions,
            vec![ReliabilityAction::Retransmit {
                packet: packet(1),
                attempt: 2,
                cause: RetransmitCause::Timeout,
            }]
        );
        assert_eq!(r.next_deadline(), Some(120 + 200));
    }

    #[test]
    fn ack_cancels_pending_timeouts() {
        let mut r = Reliability::new(100, 4);
        r.register(packet(1));
        r.schedule_nack(PacketId::new(1), 5);
        assert_eq!(poll(&mut r, 5).len(), 1);
        r.schedule_ack(PacketId::new(1), 50);
        assert_eq!(
            poll(&mut r, 200),
            vec![ReliabilityAction::Retired {
                packet: PacketId::new(1)
            }]
        );
        // The stale timeout at 105 fired into a removed entry: no-op.
        assert!(r.is_drained());
    }

    #[test]
    fn backoff_is_capped() {
        let r = Reliability::new(10, 3);
        assert_eq!(r.backoff(1), 10);
        assert_eq!(r.backoff(2), 20);
        assert_eq!(r.backoff(4), 80);
        assert_eq!(r.backoff(40), 80);
    }

    #[test]
    fn nack_after_ack_is_ignored() {
        let mut r = Reliability::new(100, 4);
        r.register(packet(1));
        r.schedule_ack(PacketId::new(1), 10);
        poll(&mut r, 10);
        assert!(!r.schedule_nack(PacketId::new(1), 12));
        assert!(poll(&mut r, 100).is_empty());
    }

    #[test]
    fn same_cycle_events_fire_in_deterministic_order() {
        let mut r = Reliability::new(100, 4);
        r.register(packet(1));
        r.register(packet(2));
        r.schedule_nack(PacketId::new(2), 10);
        r.schedule_nack(PacketId::new(1), 10);
        r.schedule_ack(PacketId::new(3), 10);
        let actions = poll(&mut r, 10);
        // ACKs before NACKs, then by packet id. Packet 3 was never
        // registered so its ACK is a silent no-op.
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            ReliabilityAction::Retransmit { packet, attempt: 1, .. } if packet.id.raw() == 1
        ));
        assert!(matches!(
            actions[1],
            ReliabilityAction::Retransmit { packet, attempt: 1, .. } if packet.id.raw() == 2
        ));
    }

    #[test]
    fn peak_occupancy_tracks_the_high_water_mark() {
        let mut r = Reliability::new(100, 4);
        for id in 0..4 {
            r.register(packet(id));
        }
        r.schedule_ack(PacketId::new(0), 1);
        poll(&mut r, 1);
        assert_eq!(r.buffered(), 3);
        assert_eq!(r.peak_buffered(), 4);
    }
}
