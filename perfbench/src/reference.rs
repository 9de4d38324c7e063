//! The host-speed probe: a fixed reference kernel timed beside every
//! chunk of simulation, so host time can be read at a quiet host's speed.
//!
//! On a shared host, other tenants slow the simulator by up to 2× for
//! tens of seconds at a time. The slowdown is not the same for every
//! kind of code: a pure ALU loop slows about 5% and a DRAM pointer chase
//! about 12% while the simulator slows 35–80%. The kernel here does what
//! the simulator's hot paths do — hash-map lookups, inserts and removals
//! with SipHash over a table of a few thousand entries, with
//! data-dependent branches — and its time tracks the simulator's within
//! a few percent (log-log correlation 0.89–0.99 over 2-s windows).
//!
//! The kernel is part of the benchmark, not of the simulator, so a
//! change to the simulator never changes it. Its work is fixed: the
//! same operations on the same keys in every run, whatever the seed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Operations in one probe, about half a millisecond on a quiet host.
const PROBE_OPS: u64 = 10_000;
/// Keys range over `0..KEYS`; the table holds about half of them.
const KEYS: u64 = 8_192;
/// Host nanoseconds per operation on a quiet 2-core Xeon host (the
/// fastest probes of several runs). It only sets the scale: a run reads
/// host time at this speed.
const QUIET_NS_PER_OP: f64 = 40.0;

/// The reference kernel and its state between probes.
pub struct Probe {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
}

impl Probe {
    /// Builds the table and warms it to its steady size.
    pub fn new() -> Self {
        let mut probe = Probe {
            table: HashMap::default(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        probe.work(20 * PROBE_OPS);
        probe
    }

    fn work(&mut self, ops: u64) {
        let mut s = self.state;
        for _ in 0..ops {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let key = s % KEYS;
            if s & 1 == 0 {
                self.table.insert(key, s);
            } else {
                self.table.remove(&key);
            }
            if let Some(v) = self.table.get(&(key ^ 5)) {
                s = s.wrapping_add(*v);
            }
        }
        self.state = black_box(s);
    }

    /// Runs one probe and returns how much slower than a quiet host the
    /// host ran it: 1.0 at quiet speed, 2.0 at half speed.
    pub fn slowdown(&mut self) -> f64 {
        let start = Instant::now();
        self.work(PROBE_OPS);
        start.elapsed().as_nanos() as f64 / (PROBE_OPS as f64 * QUIET_NS_PER_OP)
    }
}
