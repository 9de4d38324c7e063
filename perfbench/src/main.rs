//! Repo benchmark: what the FR6 and VC8 networks cost, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload busy8|sparse8|faulty8 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is the paper's setup: an 8×8 mesh with XY routing,
//! uniform traffic from open-loop constant-rate sources and 5-flit
//! packets. Both router families are built through the public `Network`
//! API and warmed up. Each then runs a fixed-cycle timed window on one
//! simulation thread, the two windows' chunks alternating, and runs on
//! until every packet injected in its window has been delivered.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs each
//! family twice over the same cycles, bare and traced (`Timed` routers,
//! engine profiler), with the counting allocator on. It prints the
//! per-layer metrics and fails unless both runs agree on every simulated
//! metric, the final `state_digest` and the allocation counts.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The command exits
//! non-zero if any correctness check fails. See `README.md` beside this
//! package for why each workload and metric is there.

mod alloc;
mod reference;
mod timed;

use flit_reservation::{FrConfig, FrRouter};
use noc_engine::stats::Histogram;
use noc_engine::trace::NullSink;
use noc_engine::Rng;
use noc_faults::{DeadLink, FaultPlan};
use noc_flow::{LinkTiming, Router, RouterCounters};
use noc_metrics::{MetricsRegistry, NullRecorder, Recorder};
use noc_network::profile::{EngineProfile, PROFILE_TAILS};
use noc_network::Network;
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::{LoadSpec, TrafficGenerator};
use noc_vc::{VcConfig, VcRouter};
use reference::Probe;
use std::time::Instant;
use timed::{CallStats, Timed};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given (the paper's publication year).
const DEFAULT_SEED: u64 = 2000;
const MESH_K: u16 = 8;
const PACKET_FLITS: u32 = 5;
/// Cycles each network runs before its timed window.
const WARMUP_CYCLES: u64 = 2_000;
/// The timed window is split into this many equal chunks, of a few
/// milliseconds each. In the untimed run a host-speed probe runs between
/// every two chunks, and each chunk's host time is divided by the mean
/// slowdown of the probes on either side of it (see `reference.rs`).
const CHUNKS: u64 = 4_000;
/// A chunk's host time slows as the probes' slowdown to this power. The
/// simulator suffers more from a slow spell than the probe does: fitted
/// slopes were 1.05-1.4 over 2-s windows within runs and 1.1-1.25
/// across 30-s runs on all three workloads. A set-up build slows as the
/// probe does (power 1).
const CHUNK_SLOWDOWN_POWER: f64 = 1.2;
/// A set-up sample is taken after every this many chunk pairs.
const SETUP_EVERY: u64 = 10;
/// Share of `--seconds` each family's window is sized to take at its
/// nominal rate; the two windows together take 70% of the run, the
/// probes most of the rest.
const WINDOW_SHARE: f64 = 0.35;
/// Progress watchdog threshold, in cycles. Above the fault plan's
/// largest retransmit backoff (256 << 4), so only a real stall trips it.
const WATCHDOG_CYCLES: u64 = 20_000;
/// Cycles after the window within which every measured packet must
/// have been delivered.
const DRAIN_CAP: u64 = 200_000;
/// Fewest latency samples a percentile may rest on.
const MIN_SAMPLES: u64 = 1_000;
/// Largest relative gap between accepted and offered load: every
/// workload runs below saturation, so the network must keep up.
const ACCEPT_TOLERANCE: f64 = 0.05;

struct Workload {
    name: &'static str,
    /// Offered load as a fraction of the mesh's capacity.
    load: f64,
    faults: bool,
    /// Simulated cycles per second, FR6 then VC8, that sizes the window:
    /// measured on a shared 2-core Xeon host while it was busy.
    nominal: [f64; 2],
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "busy8",
        load: 0.5,
        faults: false,
        nominal: [7_000.0, 14_500.0],
    },
    Workload {
        name: "sparse8",
        load: 0.02,
        faults: false,
        nominal: [72_000.0, 144_000.0],
    },
    Workload {
        name: "faulty8",
        load: 0.35,
        faults: true,
        nominal: [8_000.0, 17_000.0],
    },
];

fn mesh() -> Mesh {
    Mesh::new(MESH_K, MESH_K)
}

/// A router family the benchmark builds: FR6 or VC8 with the paper's
/// on-chip timing.
trait Family: Router + Sized {
    const LABEL: &'static str;
    /// Prefix of the family's router-layer metrics.
    const LAYER: &'static str;
    /// Index into [`Workload::nominal`].
    const INDEX: usize;
    fn timing() -> LinkTiming;
    fn control_lanes() -> u32;
    fn make(mesh: Mesh, node: NodeId, rng: Rng) -> Self;
}

impl Family for FrRouter {
    const LABEL: &'static str = "fr6";
    const LAYER: &'static str = "flit-reservation";
    const INDEX: usize = 0;
    fn timing() -> LinkTiming {
        FrConfig::fr6().timing
    }
    fn control_lanes() -> u32 {
        FrConfig::fr6().control_lanes
    }
    fn make(mesh: Mesh, node: NodeId, rng: Rng) -> Self {
        FrRouter::new(mesh, node, FrConfig::fr6(), rng)
    }
}

impl Family for VcRouter {
    const LABEL: &'static str = "vc8";
    const LAYER: &'static str = "vc";
    const INDEX: usize = 1;
    fn timing() -> LinkTiming {
        LinkTiming::fast_control()
    }
    fn control_lanes() -> u32 {
        2
    }
    fn make(mesh: Mesh, node: NodeId, rng: Rng) -> Self {
        VcRouter::new(mesh, node, VcConfig::vc8(), rng)
    }
}

/// `faulty8`'s plan. Rates and the dead link are pinned, so a new seed
/// changes only when faults strike, never how many are due.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        data_corrupt_rate: 1e-3,
        control_drop_rate: 1e-3,
        dead_links: vec![DeadLink {
            node: mesh().node_at(3, 4),
            port: Port::East,
            at_cycle: 500,
        }],
        ..FaultPlan::quiet(seed)
    }
}

/// Builds one network of family `F`, each router wrapped by `wrap`, with
/// the same seeds as `FlowControl::run`.
fn build<F: Family, W: Router, M: Recorder>(
    wl: &Workload,
    seed: u64,
    wrap: fn(F) -> W,
    metrics: M,
) -> Network<W, NullSink, M> {
    let mesh = mesh();
    let root = Rng::from_seed(seed);
    let load = LoadSpec::fraction_of_capacity(wl.load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, load, root.fork(0x7261_6666_6963));
    let mut net = Network::with_instruments(
        mesh,
        F::timing(),
        F::control_lanes(),
        generator,
        |node| wrap(F::make(mesh, node, root.fork(node.raw() as u64))),
        NullSink,
        metrics,
    );
    if wl.faults {
        net.set_fault_plan(fault_plan(seed));
    }
    net.set_watchdog(Some(WATCHDOG_CYCLES));
    net
}

fn bare<F: Family>(wl: &Workload, seed: u64) -> Network<F> {
    build(wl, seed, |r: F| r, NullRecorder)
}

/// What one family's run simulated. Two runs of the same workload, seed
/// and window length must produce equal values.
#[derive(Clone, Debug, PartialEq)]
struct Sim {
    window_cycles: u64,
    p50: Option<f64>,
    p99: Option<f64>,
    /// Measured packets delivered (exactly once: duplicates are dropped
    /// by the delivery tracker) and injected.
    delivered: u64,
    injected: u64,
    accepted_frac: f64,
    watchdog_tripped: bool,
    /// `Network::state_digest` after the drain; taken on traced runs only.
    digest: Option<String>,
}

/// One family's timed window: `cycles` cycles, split into [`CHUNKS`]
/// chunks, during which every injected packet is marked as measured.
/// The chunks of two windows can be interleaved so that a slow spell
/// on a shared host slows both alike.
struct Window {
    cycles: u64,
    done: u64,
    /// Host nanoseconds of each chunk run so far.
    chunk_ns: Vec<u64>,
    wall_ns: u64,
    delivered0: u64,
    alloc: alloc::AllocCount,
}

impl Window {
    fn open<W: Router, M: Recorder>(net: &mut Network<W, NullSink, M>, cycles: u64) -> Self {
        net.set_measuring(true);
        Window {
            cycles,
            done: 0,
            chunk_ns: Vec::with_capacity(CHUNKS as usize),
            wall_ns: 0,
            delivered0: net.tracker().delivered_flits(),
            alloc: alloc::AllocCount::default(),
        }
    }

    /// Runs chunk `i`, calling `between` after every cycle (the traced
    /// run samples there). With `count`, the counting allocator is on.
    fn chunk<W: Router, M: Recorder>(
        &mut self,
        net: &mut Network<W, NullSink, M>,
        i: u64,
        count: bool,
        mut between: impl FnMut(&Network<W, NullSink, M>),
    ) {
        let n = if i + 1 == CHUNKS {
            self.cycles - self.done
        } else {
            self.cycles / CHUNKS
        };
        let mut run = || {
            let start = Instant::now();
            for _ in 0..n {
                net.cycle();
                between(net);
            }
            start.elapsed().as_nanos() as u64
        };
        let ns = if count {
            let (ns, c) = alloc::counted(run);
            self.alloc.allocs += c.allocs;
            self.alloc.bytes += c.bytes;
            ns
        } else {
            run()
        };
        self.done += n;
        self.wall_ns += ns;
        self.chunk_ns.push(ns);
    }

    /// Ends the window and returns the accepted load as a fraction of
    /// capacity.
    fn close<W: Router, M: Recorder>(&self, net: &mut Network<W, NullSink, M>) -> f64 {
        net.set_measuring(false);
        let mesh = net.mesh();
        (net.tracker().delivered_flits() - self.delivered0) as f64
            / (mesh.node_count() as f64 * self.cycles as f64)
            / mesh.capacity_flits_per_node_cycle()
    }

    /// Cycles per second of a quiet host: the window's cycles over the
    /// sum of its chunk times, each divided by its probes' `slowdown`
    /// to the [`CHUNK_SLOWDOWN_POWER`].
    fn quiet_rate(&self, slowdown: &[f64]) -> f64 {
        let quiet_ns: f64 = self
            .chunk_ns
            .iter()
            .zip(slowdown)
            .map(|(&ns, s)| ns as f64 / s.powf(CHUNK_SLOWDOWN_POWER))
            .sum();
        self.cycles as f64 / (quiet_ns / 1e9)
    }

    /// Window cycles over the window's host time.
    fn mean_rate(&self) -> f64 {
        self.cycles as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Keeps the traffic flowing until every measured packet is delivered
/// (or the cap passes), then reads the simulated metrics.
fn drain<W: Router, M: Recorder>(
    net: &mut Network<W, NullSink, M>,
    window_cycles: u64,
    accepted_frac: f64,
    digest: bool,
) -> Sim {
    let deadline = net.now().raw() + DRAIN_CAP;
    while net.tracker().measured_outstanding() > 0 && net.now().raw() < deadline {
        net.cycle();
    }
    let t = net.tracker();
    let hist = t.latency_histogram();
    Sim {
        window_cycles,
        p50: percentile(hist, 0.5),
        p99: percentile(hist, 0.99),
        delivered: t.measured_delivered(),
        injected: t.measured_delivered() + t.measured_outstanding(),
        accepted_frac,
        watchdog_tripped: net.watchdog_tripped(),
        digest: digest.then(|| net.state_digest()),
    }
}

/// The `q` percentile of integer latencies, interpolated within its
/// bucket as if the samples of value `v` spread evenly over
/// `[v - 0.5, v + 0.5)`, so it moves smoothly instead of in whole
/// cycles. `None` when it falls beyond the histogram's exact range.
fn percentile(hist: &Histogram, q: f64) -> Option<f64> {
    let target = q * hist.count() as f64;
    let mut below = 0u64;
    for (value, n) in hist.iter() {
        if (below + n) as f64 >= target {
            return Some(value as f64 - 0.5 + (target - below as f64) / n as f64);
        }
        below += n;
    }
    None
}

fn window_cycles<F: Family>(wl: &Workload, seconds: u64) -> u64 {
    ((wl.nominal[F::INDEX] * seconds as f64 * WINDOW_SHARE) as u64).max(CHUNKS)
}

/// Everything the traced run of one family measured.
struct Traced {
    /// The bare reference run over the same cycles.
    reference: Sim,
    reference_window: Window,
    sim: Sim,
    window: Window,
    calls: CallStats,
    counters: RouterCounters,
    profile: EngineProfile,
    awake_sum: u64,
    bookings_peak: u64,
    faults: noc_faults::FaultCounters,
    retransmit_peak: usize,
    delivered_packets: u64,
}

fn call_totals<R: Router>(net: &Network<Timed<R>, NullSink, MetricsRegistry>) -> CallStats {
    let mut total = CallStats::default();
    for r in net.routers() {
        total.add(r.stats());
    }
    total
}

fn counter_totals<W: Router, M: Recorder>(net: &Network<W, NullSink, M>) -> RouterCounters {
    let mut total = RouterCounters::default();
    for r in net.routers() {
        let mut c = RouterCounters::default();
        r.collect_counters(&mut c);
        total.absorb(&c);
    }
    total
}

fn fault_counters<W: Router, M: Recorder>(
    net: &Network<W, NullSink, M>,
) -> noc_faults::FaultCounters {
    net.fault_summary().unwrap_or_default().counters
}

/// Runs family `F` bare and traced over the same cycles, their window
/// chunks interleaved, with the counting allocator on in both windows.
fn run_traced<F: Family>(wl: &Workload, seed: u64, seconds: u64) -> Traced {
    let cycles = window_cycles::<F>(wl, seconds);
    let mut bare_net = bare::<F>(wl, seed);
    let mut net = build::<F, _, _>(wl, seed, Timed::new, MetricsRegistry::new());
    net.set_metrics_period(0);
    net.set_profiling(true);
    bare_net.run_cycles(WARMUP_CYCLES);
    net.run_cycles(WARMUP_CYCLES);

    let calls0 = call_totals(&net);
    let counters0 = counter_totals(&net);
    let profile0 = net.engine_profile();
    let faults0 = fault_counters(&net);
    let delivered0 = net.tracker().delivered_packets();
    let mut awake_sum = 0u64;
    let mut bookings_peak = 0u64;
    let mut reference_window = Window::open(&mut bare_net, cycles);
    let mut window = Window::open(&mut net, cycles);
    for i in 0..CHUNKS {
        reference_window.chunk(&mut bare_net, i, true, |_| {});
        window.chunk(&mut net, i, true, |n| {
            awake_sum += n.awake_routers() as u64;
            let bookings: u64 = n.routers().map(|r| r.bookings_in_flight()).sum();
            bookings_peak = bookings_peak.max(bookings);
        });
    }
    let reference_accepted = reference_window.close(&mut bare_net);
    let accepted = window.close(&mut net);

    let mut profile = net.engine_profile();
    for (p, p0) in profile.phase_ns.iter_mut().zip(profile0.phase_ns) {
        *p -= p0;
    }
    for (t, t0) in profile.tail_ns.iter_mut().zip(profile0.tail_ns) {
        *t -= t0;
    }
    let calls = call_totals(&net).since(&calls0);
    let counters = counter_totals(&net).delta(&counters0);
    let faults = fault_counters(&net);
    let delivered_packets = net.tracker().delivered_packets() - delivered0;
    Traced {
        reference: drain(&mut bare_net, cycles, reference_accepted, true),
        reference_window,
        sim: drain(&mut net, cycles, accepted, true),
        window,
        calls,
        counters,
        profile,
        awake_sum,
        bookings_peak,
        faults: faults_delta(&faults, &faults0),
        retransmit_peak: net.fault_summary().map_or(0, |s| s.retransmit_peak),
        delivered_packets,
    }
}

fn faults_delta(
    now: &noc_faults::FaultCounters,
    then: &noc_faults::FaultCounters,
) -> noc_faults::FaultCounters {
    noc_faults::FaultCounters {
        data_corrupted: now.data_corrupted - then.data_corrupted,
        control_dropped: now.control_dropped - then.control_dropped,
        corrupt_discarded: now.corrupt_discarded - then.corrupt_discarded,
        duplicate_discarded: now.duplicate_discarded - then.duplicate_discarded,
        acks: now.acks - then.acks,
        nacks: now.nacks - then.nacks,
        retransmits: now.retransmits - then.retransmits,
        timeout_retransmits: now.timeout_retransmits - then.timeout_retransmits,
        links_masked: now.links_masked - then.links_masked,
    }
}

/// The `q` quantile of `values` (nearest rank).
pub(crate) fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// Host seconds to build both networks, as one `setup_s` sample.
fn setup_sample(wl: &Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let fr = std::hint::black_box(bare::<FrRouter>(wl, seed));
    let vc = std::hint::black_box(bare::<VcRouter>(wl, seed));
    let t = start.elapsed().as_secs_f64();
    drop((fr, vc));
    t
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The metrics and checks one invocation reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.fail(format!("{name} is not a finite number"));
        }
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Counts `sim`'s measured packets and checks it delivered them all,
    /// kept up with the offered load and has percentiles to report.
    fn check_sim(&mut self, label: &str, offered: f64, sim: &Sim) {
        self.attempted += sim.injected;
        self.failed += sim.injected - sim.delivered;
        self.check(sim.delivered == sim.injected, || {
            format!(
                "{label}: {} of {} measured packets undelivered after the drain",
                sim.injected - sim.delivered,
                sim.injected
            )
        });
        self.check(!sim.watchdog_tripped, || {
            format!("{label}: progress watchdog tripped")
        });
        self.check(sim.delivered >= MIN_SAMPLES, || {
            format!("{label}: only {} latency samples", sim.delivered)
        });
        self.check(sim.p50.is_some() && sim.p99.is_some(), || {
            format!("{label}: latency percentile beyond the histogram")
        });
        self.check(
            (sim.accepted_frac / offered - 1.0).abs() <= ACCEPT_TOLERANCE,
            || {
                format!(
                    "{label}: accepted {:.4} of capacity against {offered} offered",
                    sim.accepted_frac
                )
            },
        );
    }

    /// Prints every metric by name and unit, then the JSON result line.
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<48} {value:>16.6} {unit}");
        }
        for why in &self.failures {
            println!("CHECK FAILED: {why}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn end_to_end(wl: &Workload, seed: u64, seconds: u64, report: &mut Report) {
    let mut fr_net = bare::<FrRouter>(wl, seed);
    let mut vc_net = bare::<VcRouter>(wl, seed);
    fr_net.run_cycles(WARMUP_CYCLES);
    vc_net.run_cycles(WARMUP_CYCLES);
    let fr_cycles = window_cycles::<FrRouter>(wl, seconds);
    let vc_cycles = window_cycles::<VcRouter>(wl, seconds);
    let mut fr_window = Window::open(&mut fr_net, fr_cycles);
    let mut vc_window = Window::open(&mut vc_net, vc_cycles);
    let mut probe = Probe::new();
    let mut fr_slowdown = Vec::with_capacity(CHUNKS as usize);
    let mut vc_slowdown = Vec::with_capacity(CHUNKS as usize);
    // One build takes under a millisecond, too short to time once;
    // sampled between chunks, it is read at quiet speed like the chunks.
    let mut setup = Vec::with_capacity((CHUNKS / SETUP_EVERY) as usize);
    let mut before = probe.slowdown();
    // The mean slowdown of the probes before and after what just ran.
    let mut bracket = |probe: &mut Probe| {
        let after = probe.slowdown();
        let mean = (before + after) / 2.0;
        before = after;
        mean
    };
    for i in 0..CHUNKS {
        fr_window.chunk(&mut fr_net, i, false, |_| {});
        fr_slowdown.push(bracket(&mut probe));
        vc_window.chunk(&mut vc_net, i, false, |_| {});
        vc_slowdown.push(bracket(&mut probe));
        if i % SETUP_EVERY == 0 {
            let t = setup_sample(wl, seed);
            setup.push(t / bracket(&mut probe));
        }
    }
    let fr_accepted = fr_window.close(&mut fr_net);
    let vc_accepted = vc_window.close(&mut vc_net);
    let fr = drain(&mut fr_net, fr_cycles, fr_accepted, false);
    let vc = drain(&mut vc_net, vc_cycles, vc_accepted, false);
    report.metric("setup_s", quantile(&mut setup, 0.5), "s");
    report.metric(
        "fr6_cycles_per_s",
        fr_window.quiet_rate(&fr_slowdown),
        "cycles/s",
    );
    report.metric(
        "vc8_cycles_per_s",
        vc_window.quiet_rate(&vc_slowdown),
        "cycles/s",
    );
    let mut all: Vec<f64> = fr_slowdown.iter().chain(&vc_slowdown).copied().collect();
    println!(
        "host: fr6 {:.0} and vc8 {:.0} cycles per wall second, median probe slowdown {:.3}",
        fr_window.mean_rate(),
        vc_window.mean_rate(),
        quantile(&mut all, 0.5)
    );
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.fail("peak RSS unreadable from /proc/self/status".into()),
    }
    for (label, sim) in [("fr6", &fr), ("vc8", &vc)] {
        report.check_sim(label, wl.load, sim);
        println!(
            "{label}: {} window cycles, {} latency samples",
            sim.window_cycles, sim.delivered
        );
        let q = |v: Option<f64>| v.unwrap_or(f64::NAN);
        report.metric(format!("{label}_latency_p50_cycles"), q(sim.p50), "cycles");
        report.metric(format!("{label}_latency_p99_cycles"), q(sim.p99), "cycles");
        report.metric(format!("{label}_accepted_frac"), sim.accepted_frac, "frac");
    }
    report.metric(
        "delivered_packet_frac",
        (fr.delivered + vc.delivered) as f64 / (fr.injected + vc.injected).max(1) as f64,
        "frac",
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of one traced family, plus the zero-perturbation
/// checks against its bare reference.
fn layer_metrics<F: Family>(wl: &Workload, t: &Traced, report: &mut Report) {
    let f = F::LABEL;
    report.check_sim(f, wl.load, &t.sim);
    report.check(t.sim == t.reference, || {
        format!(
            "{f}: traced run diverged from the bare run: {:?} vs {:?}",
            t.sim, t.reference
        )
    });
    let cycles = t.sim.window_cycles;
    let sim = &t.sim;
    println!(
        "{f}: {cycles} window cycles, {} latency samples, p50 {:?}, p99 {:?}, accepted {}, digest {:?}",
        sim.delivered, sim.p50, sim.p99, sim.accepted_frac, sim.digest
    );
    let (alloc, reference_alloc) = (t.window.alloc, t.reference_window.alloc);
    println!("{f}: window allocations: bare {reference_alloc:?}, traced {alloc:?}");
    // The delivery tracker's and retransmit buffer's hash tables use
    // randomly keyed hashers, so when they rehash (one allocation each
    // time) varies from run to run. An instrument that allocated even
    // once per thousand cycles would still fail this check.
    report.check(
        alloc.allocs.abs_diff(reference_alloc.allocs) <= cycles / 1000,
        || format!("{f}: traced run allocated {alloc:?}, bare run {reference_alloc:?}"),
    );
    let per_cycle = |ns: u64| ns as f64 / cycles as f64;
    let p = &t.profile;
    for (i, phase) in noc_network::profile::PROFILE_PHASES.iter().enumerate() {
        report.metric(
            format!("network.{f}.{phase}_ns_per_cycle"),
            per_cycle(p.phase_ns[i]),
            "ns/cycle",
        );
    }
    for tail in ["traffic_gen", "eject_commit", "fault_events"] {
        let i = PROFILE_TAILS
            .iter()
            .position(|t| *t == tail)
            .expect("tail name from PROFILE_TAILS");
        report.metric(
            format!("network.{f}.{tail}_ns_per_cycle"),
            per_cycle(p.tail_ns[i]),
            "ns/cycle",
        );
    }
    let routers = mesh().node_count() as u64;
    report.metric(
        format!("network.{f}.awake_router_frac"),
        ratio(t.awake_sum, routers * cycles),
        "frac",
    );
    let phases: u64 = p.phase_ns.iter().sum();
    report.metric(
        format!("network.{f}.unattributed_frac"),
        1.0 - phases as f64 / t.window.wall_ns as f64,
        "frac",
    );
    report.metric(
        format!("trace.{f}.overhead_frac"),
        1.0 - t.window.mean_rate() / t.reference_window.mean_rate(),
        "frac",
    );
    report.metric(
        format!("alloc.{f}.allocs_per_cycle"),
        ratio(alloc.allocs, cycles),
        "count/cycle",
    );
    report.metric(
        format!("alloc.{f}.bytes_per_cycle"),
        ratio(alloc.bytes, cycles),
        "B/cycle",
    );

    let layer = F::LAYER;
    let c = &t.calls;
    report.metric(
        format!("{layer}.step_calls_per_cycle"),
        ratio(c.step_calls, cycles),
        "calls/cycle",
    );
    report.metric(
        format!("{layer}.step_ns_per_call"),
        ratio(c.step_ns, c.step_calls),
        "ns/call",
    );
    report.metric(
        format!("{layer}.receive_ns_per_call"),
        ratio(c.receive_ns, c.receive_calls),
        "ns/call",
    );
    report.metric(
        format!("{layer}.try_inject_ns_per_call"),
        ratio(c.inject_ns, c.inject_calls),
        "ns/call",
    );
    report.metric(
        format!("{layer}.try_inject_refused_frac"),
        ratio(c.inject_refused, c.inject_calls),
        "frac",
    );
    let k = &t.counters;
    if F::INDEX == 0 {
        report.metric(
            "flit-reservation.reservation_hit_frac",
            ratio(
                k.reservation_hits,
                k.reservation_hits + k.reservation_misses,
            ),
            "frac",
        );
        report.metric(
            "flit-reservation.zero_turnaround_frac",
            ratio(k.zero_turnaround_departures, k.data_flits_sent),
            "frac",
        );
        report.metric(
            "flit-reservation.control_flits_per_cycle",
            ratio(k.control_flits_sent, cycles),
            "count/cycle",
        );
        report.metric(
            "flit-reservation.bookings_in_flight_peak",
            t.bookings_peak as f64,
            "count",
        );
    } else {
        for (name, n) in [
            ("credit_stalls", k.credit_stalls),
            ("vc_alloc_conflicts", k.vc_alloc_conflicts),
            ("switch_arb_retries", k.switch_arb_retries),
        ] {
            report.metric(
                format!("vc.{name}_per_cycle"),
                ratio(n, cycles),
                "count/cycle",
            );
        }
    }
}

/// The `faults.*` metrics, summed over both families' traced windows.
fn fault_metrics(fr: &Traced, vc: &Traced, report: &mut Report) {
    let sum = |f: fn(&noc_faults::FaultCounters) -> u64| f(&fr.faults) + f(&vc.faults);
    let retransmits = sum(|c| c.retransmits);
    report.metric(
        "faults.retransmits_per_delivered",
        ratio(retransmits, fr.delivered_packets + vc.delivered_packets),
        "frac",
    );
    report.metric(
        "faults.timeout_retransmit_frac",
        ratio(sum(|c| c.timeout_retransmits), retransmits),
        "frac",
    );
    report.metric(
        "faults.corrupt_discarded",
        sum(|c| c.corrupt_discarded) as f64,
        "count",
    );
    report.metric(
        "faults.control_dropped",
        sum(|c| c.control_dropped) as f64,
        "count",
    );
    report.metric(
        "faults.retransmit_peak",
        fr.retransmit_peak.max(vc.retransmit_peak) as f64,
        "count",
    );
}

fn per_layer(wl: &Workload, seed: u64, seconds: u64, report: &mut Report) {
    let fr = run_traced::<FrRouter>(wl, seed, seconds);
    let vc = run_traced::<VcRouter>(wl, seed, seconds);
    layer_metrics::<FrRouter>(wl, &fr, report);
    layer_metrics::<VcRouter>(wl, &vc, report);
    fault_metrics(&fr, &vc, report);
    report.metric(
        "alloc.off_overhead_ns_per_alloc",
        alloc::off_overhead_ns(),
        "ns",
    );
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload busy8|sparse8|faulty8 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let wl = args.workload;
    println!(
        "perfbench {} seed={} seconds={} trace={}: 8x8 mesh, load {} of capacity, {}-flit packets{}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.load,
        PACKET_FLITS,
        if wl.faults { ", fault plan armed" } else { "" },
    );
    let mut report = Report::default();
    if args.trace {
        per_layer(wl, args.seed, args.seconds, &mut report);
    } else {
        end_to_end(wl, args.seed, args.seconds, &mut report);
    }
    report.print();
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
