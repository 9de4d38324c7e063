//! `Timed<R>`: a router wrapper that times and counts the calls the
//! network makes into a router, for the traced run.
//!
//! It forwards every [`Router`] method unchanged, so a network of
//! wrapped routers simulates bit for bit like one of bare routers (the
//! benchmark checks this through `Network::state_digest`). Only `step`,
//! `receive` and `try_inject` are timed; the wrapper keeps its totals in
//! plain fields because the network owns each router and steps it on one
//! thread.

use noc_engine::Cycle;
use noc_flow::{LinkEvent, Router, RouterCounters, StepOutputs};
use noc_topology::{NodeId, Port};
use noc_traffic::Packet;
use std::time::Instant;

/// Call counts and wall-clock totals of one router (or, summed, of a
/// whole network).
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStats {
    pub step_calls: u64,
    pub step_ns: u64,
    pub receive_calls: u64,
    pub receive_ns: u64,
    pub inject_calls: u64,
    pub inject_ns: u64,
    pub inject_refused: u64,
}

impl CallStats {
    pub fn add(&mut self, o: &CallStats) {
        self.step_calls += o.step_calls;
        self.step_ns += o.step_ns;
        self.receive_calls += o.receive_calls;
        self.receive_ns += o.receive_ns;
        self.inject_calls += o.inject_calls;
        self.inject_ns += o.inject_ns;
        self.inject_refused += o.inject_refused;
    }

    pub fn since(&self, start: &CallStats) -> CallStats {
        CallStats {
            step_calls: self.step_calls - start.step_calls,
            step_ns: self.step_ns - start.step_ns,
            receive_calls: self.receive_calls - start.receive_calls,
            receive_ns: self.receive_ns - start.receive_ns,
            inject_calls: self.inject_calls - start.inject_calls,
            inject_ns: self.inject_ns - start.inject_ns,
            inject_refused: self.inject_refused - start.inject_refused,
        }
    }
}

/// A router whose `step`, `receive` and `try_inject` calls are timed.
pub struct Timed<R> {
    inner: R,
    stats: CallStats,
}

impl<R> Timed<R> {
    pub fn new(inner: R) -> Self {
        Timed {
            inner,
            stats: CallStats::default(),
        }
    }

    pub fn stats(&self) -> &CallStats {
        &self.stats
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl<R: Router> Router for Timed<R> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle) {
        let start = Instant::now();
        self.inner.receive(port, event, now);
        self.stats.receive_ns += ns_since(start);
        self.stats.receive_calls += 1;
    }

    fn try_inject(&mut self, packet: Packet, now: Cycle) -> bool {
        let start = Instant::now();
        let accepted = self.inner.try_inject(packet, now);
        self.stats.inject_ns += ns_since(start);
        self.stats.inject_calls += 1;
        self.stats.inject_refused += u64::from(!accepted);
        accepted
    }

    fn step(&mut self, now: Cycle, out: &mut StepOutputs) {
        let start = Instant::now();
        self.inner.step(now, out);
        self.stats.step_ns += ns_since(start);
        self.stats.step_calls += 1;
    }

    fn occupied_data_buffers(&self, port: Port) -> usize {
        self.inner.occupied_data_buffers(port)
    }

    fn data_buffer_capacity(&self, port: Port) -> usize {
        self.inner.data_buffer_capacity(port)
    }

    fn queued_flits(&self) -> usize {
        self.inner.queued_flits()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn collect_counters(&self, out: &mut RouterCounters) {
        self.inner.collect_counters(out)
    }

    fn emit_stall_provenance(&mut self, now: Cycle) {
        self.inner.emit_stall_provenance(now)
    }

    fn on_link_dead(&mut self, port: Port) {
        self.inner.on_link_dead(port)
    }

    fn bookings_in_flight(&self) -> u64 {
        self.inner.bookings_in_flight()
    }

    fn state_snapshot(&self) -> noc_metrics::Json {
        self.inner.state_snapshot()
    }
}
