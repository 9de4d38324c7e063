//! The windowed-telemetry acceptance suite.
//!
//! The telemetry layer's contract has two halves:
//!
//! * **Zero perturbation** — arming windows and the runtime profiler
//!   must not change the simulation by a single bit. Proven here by
//!   recomputing the golden network-trace fingerprints of
//!   `tests/golden/staged_traces.txt` with telemetry on: any divergence
//!   from the fixture (captured with telemetry off) fails the suite.
//! * **Shard-merge determinism** — a windowed export is a function of
//!   the simulated history, not of how the stepping was parallelised.
//!   Proven by byte-comparing stripped exports across 1/2/4/8 worker
//!   threads (plus CI's `FRFC_THREADS` pin) and across *random* shard
//!   partitions — arbitrary cut points, empty shards, single-node
//!   shards.
//!
//! On top sit the accounting identities: every Sum window's values must
//! sum exactly to the aggregate counter of the same name, and the
//! profiler must attribute the engine's measured wall-clock to named
//! phases.

use frfc::engine::propcheck::{check, vec_of};
use frfc::engine::trace::{TraceEvent, VecSink};
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::faults::{DeadLink, FaultPlan};
use frfc::flow::{LinkTiming, Router};
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::{strip_nondeterministic, MetricsRegistry, RunManifest, WindowKind};
use frfc::network::{
    run, FlowControl, Instrument, Network, RunOutput, Scenario, ShardPlan, SimConfig,
};
use frfc::topology::{Mesh, Port};
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::{VcConfig, VcRouter};
use std::collections::HashMap;
use std::fmt::Write as _;

const MESH: (u16, u16) = (4, 4);
const PACKET_FLITS: u32 = 5;
const LOADS: [f64; 3] = [0.2, 0.55, 0.8];
const WINDOW_LOG2: u32 = 6;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/staged_traces.txt"
);

/// Same FNV-1a fingerprint as `tests/staged_golden.rs` — the fixture
/// lines were written with it.
fn fingerprint(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for event in events {
        line.clear();
        write!(line, "{event:?}").expect("format into string");
        for &b in line.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x0a;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The staged-golden fault plan, bit for bit.
fn fault_plan(seed: u64, mesh: Mesh) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.data_corrupt_rate = 2e-3;
    plan.control_drop_rate = 2e-3;
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    plan.dead_links.push(DeadLink {
        node: mesh.node_at(1, 1),
        port: Port::East,
        at_cycle: 300,
    });
    plan
}

/// A telemetry-armed network: network-level tracer for the fingerprint,
/// metrics registry with windows and the profiler on.
fn fr_net_telemetry(load: f64, seed: u64) -> Network<FrRouter, VecSink, MetricsRegistry> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let cfg = FrConfig::fr6();
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let mut net = Network::with_instruments(
        mesh,
        cfg.timing,
        cfg.control_lanes,
        generator,
        |node| FrRouter::new(mesh, node, cfg, root.fork(node.raw() as u64)),
        VecSink::new(),
        MetricsRegistry::new(),
    );
    net.set_telemetry_windows(WINDOW_LOG2);
    net.set_profiling(true);
    net
}

fn vc_net_telemetry(load: f64, seed: u64) -> Network<VcRouter, VecSink, MetricsRegistry> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let mut net = Network::with_instruments(
        mesh,
        LinkTiming::fast_control(),
        2,
        generator,
        |node| VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64)),
        VecSink::new(),
        MetricsRegistry::new(),
    );
    net.set_telemetry_windows(WINDOW_LOG2);
    net.set_profiling(true);
    net
}

/// The staged-golden drive: 500 cycles of injection, then bounded drain
/// chunks. `threads == 0` is the sequential engine.
fn run_to_drain<R: Router + Send>(net: &mut Network<R, VecSink, MetricsRegistry>, threads: usize) {
    let chunk = |net: &mut Network<R, VecSink, MetricsRegistry>, cycles: u64| {
        if threads == 0 {
            net.run_cycles(cycles);
        } else {
            net.run_cycles_sharded(cycles, threads);
        }
    };
    chunk(net, 500);
    net.stop_injection();
    for _ in 0..20 {
        if net.tracker().in_flight() == 0 {
            break;
        }
        chunk(net, 1_000);
    }
    assert_eq!(net.tracker().in_flight(), 0, "network failed to drain");
}

/// Parses the golden fixture's network-level lines into
/// `(family, load-in-hundredths, faults) -> (events, fnv)`.
fn golden_net_lines() -> HashMap<(String, u64, bool), (usize, u64)> {
    let fixture = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing; run staged_golden with FRFC_BLESS=1 first");
    let mut map = HashMap::new();
    for line in fixture.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 || fields[0] != "net" {
            continue;
        }
        let family = fields[1].to_string();
        let load: f64 = fields[2]
            .strip_prefix("load=")
            .expect("load field")
            .parse()
            .expect("load value");
        let faults = fields[3] == "faults=true";
        let events: usize = fields[4]
            .strip_prefix("events=")
            .expect("events field")
            .parse()
            .expect("event count");
        let fnv = u64::from_str_radix(fields[5].strip_prefix("fnv=").expect("fnv field"), 16)
            .expect("fnv hash");
        map.insert(
            (family, (load * 100.0).round() as u64, faults),
            (events, fnv),
        );
    }
    assert!(!map.is_empty(), "no net lines parsed from the fixture");
    map
}

/// Telemetry on, profiler on: the network trace must still match the
/// golden fingerprints captured with both off — on the sequential
/// engine and under concurrent shard rounds.
#[test]
fn telemetry_does_not_perturb_golden_traces() {
    let golden = golden_net_lines();
    let mesh = Mesh::new(MESH.0, MESH.1);
    for family in ["vc8", "fr6"] {
        for &load in &LOADS {
            for faults in [false, true] {
                let seed = 0x60_1D + (load * 100.0) as u64;
                for threads in [0usize, 4] {
                    let events = match family {
                        "vc8" => {
                            let mut net = vc_net_telemetry(load, seed);
                            if faults {
                                net.set_fault_plan(fault_plan(0xFA_01, mesh));
                            }
                            run_to_drain(&mut net, threads);
                            net.tracer().events().to_vec()
                        }
                        _ => {
                            let mut net = fr_net_telemetry(load, seed);
                            if faults {
                                net.set_fault_plan(fault_plan(0xFA_02, mesh));
                            }
                            run_to_drain(&mut net, threads);
                            net.tracer().events().to_vec()
                        }
                    };
                    let key = (family.to_string(), (load * 100.0).round() as u64, faults);
                    let &(want_events, want_fnv) = golden
                        .get(&key)
                        .unwrap_or_else(|| panic!("fixture has no net line for {key:?}"));
                    assert_eq!(
                        (events.len(), fingerprint(&events)),
                        (want_events, want_fnv),
                        "{family}@{load} faults={faults} threads={threads}: \
                         telemetry-on trace diverged from the golden fixture"
                    );
                }
            }
        }
    }
}

/// The tiny methodology config shared with `parallel_equivalence.rs`.
fn tiny_sim() -> SimConfig {
    SimConfig {
        warmup: WarmupConfig {
            min_cycles: 400,
            max_cycles: 3_000,
            window: 4,
            tolerance: 0.1,
        },
        sample_packets: 150,
        drain_cap: 6_000,
        warmup_probe_period: 16,
    }
}

/// Thread counts the windowed export must be byte-identical under, with
/// CI's `FRFC_THREADS` pin appended like the rest of the tier-1 suite.
fn thread_matrix() -> Vec<usize> {
    let mut threads = vec![1, 2, 4, 8];
    if let Ok(v) = std::env::var("FRFC_THREADS") {
        let n: usize = v
            .parse()
            .unwrap_or_else(|_| panic!("FRFC_THREADS must be a positive integer, got {v}"));
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads
}

fn families() -> [FlowControl; 2] {
    [
        FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control()),
        FlowControl::FlitReservation(FrConfig::fr6()),
    ]
}

/// Runs `fc` at `load` on `threads` workers with `instrument` attached.
fn run_on(
    fc: &FlowControl,
    load: f64,
    seed: u64,
    threads: usize,
    instrument: Instrument,
) -> RunOutput {
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let scenario = Scenario {
        threads,
        ..Scenario::new(fc.clone(), Mesh::new(MESH.0, MESH.1), spec, seed)
    };
    run(&scenario, &tiny_sim(), instrument).expect("untraced runs cannot fail")
}

/// Windows of `1 << WINDOW_LOG2` cycles, series every 32 cycles.
const TELEMETRY: Instrument = Instrument::Telemetry {
    sample_period: 32,
    window_log2: WINDOW_LOG2,
};

/// One telemetry run rendered with a fixed manifest and stripped of
/// wall-clock data, so only the simulated history remains.
fn stripped_export(fc: &FlowControl, load: f64, seed: u64, threads: usize) -> String {
    let registry = run_on(fc, load, seed, threads, TELEMETRY)
        .registry
        .expect("telemetry");
    let manifest = RunManifest::new("telemetry", seed, "tiny", fc.label());
    let mut doc = registry.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    doc.render()
}

#[test]
fn windowed_export_is_byte_identical_across_thread_counts() {
    for fc in families() {
        let label = fc.label();
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = 0x7E1E + i as u64;
            let base = stripped_export(&fc, load, seed, 1);
            assert!(
                base.contains("\"windows\""),
                "{label}@{load}: export carries no windows object"
            );
            for &threads in &thread_matrix()[1..] {
                let export = stripped_export(&fc, load, seed, threads);
                assert_eq!(
                    base, export,
                    "{label}@{load}: {threads}-thread windowed export diverged"
                );
            }
        }
    }
}

/// Drives one telemetry run under an arbitrary shard partition and
/// byte-compares the stripped export against the sequential baseline.
fn partition_export(cuts: Option<&[usize]>) -> String {
    let mut net = fr_net_telemetry(0.55, 0x9A9A);
    match cuts {
        None => {
            net.run_cycles(500);
            net.stop_injection();
            net.run_cycles(6_000);
        }
        Some(cuts) => {
            let nodes = net.mesh().node_count();
            let plan = ShardPlan::from_cuts(nodes, cuts);
            let shards = plan.shards();
            net.set_shard_plan(plan);
            net.run_cycles_sharded(500, shards);
            net.stop_injection();
            net.run_cycles_sharded(6_000, shards);
        }
    }
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    net.flush_metrics();
    let registry = std::mem::take(net.metrics_mut());
    let manifest = RunManifest::new("telemetry", 0x9A9A, "tiny", "FR6");
    let mut doc = registry.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    doc.render()
}

#[test]
fn windowed_export_is_byte_identical_across_random_shard_partitions() {
    let sequential = partition_export(None);
    assert!(sequential.contains("\"windows\""));
    // Cuts may exceed the node count (from_cuts clamps), repeat (empty
    // shards) or be absent entirely (one shard).
    check(8, vec_of(0usize..20, 0..6), |cuts| {
        assert_eq!(
            sequential,
            partition_export(Some(&cuts)),
            "partition {cuts:?} changed the windowed export"
        );
    });
}

#[test]
fn window_sums_equal_aggregate_totals_and_profiler_attributes() {
    for fc in families() {
        let label = fc.label();
        for threads in [1usize, 4] {
            let out = run_on(&fc, 0.55, 0xACC7, threads, TELEMETRY);
            let reg = out.registry.as_ref().expect("telemetry");
            let profile = out.profile.as_ref().expect("profiled");
            let mut sums = 0;
            for (name, w) in reg.windows() {
                if w.kind == WindowKind::Sum {
                    assert_eq!(
                        reg.window_total(name),
                        reg.counter(name) as f64,
                        "{label} threads={threads}: window {name} does not sum to its aggregate"
                    );
                    sums += 1;
                }
            }
            assert!(
                sums >= 8,
                "{label} threads={threads}: expected >= 8 Sum windows, found {sums}"
            );
            // The delivered-packet windows must also account for every
            // latency sample the run measured plus the warm-up/drain
            // deliveries — i.e. everything the tracker saw.
            assert!(
                reg.counter("net.delivered_packets") >= out.result.delivered,
                "{label} threads={threads}: fewer deliveries recorded than sampled"
            );
            // Debug builds time the same phases release builds do; the
            // release gate in telemetry_report --quick holds the 95%
            // acceptance line, this guards against gross regressions.
            assert!(
                profile.attributed_fraction() >= 0.90,
                "{label} threads={threads}: profiler attributes only {:.1}%",
                profile.attributed_fraction() * 100.0
            );
            assert_eq!(profile.threads as usize, threads);
        }
    }
}

/// Arming telemetry must not change the measurement record either: the
/// full methodology run (warm-up detection included) lands on the same
/// numbers as the uninstrumented harness.
#[test]
fn telemetry_run_result_matches_uninstrumented_run() {
    for fc in families() {
        let label = fc.label();
        let plain = run_on(&fc, 0.55, 0xBEE, 1, Instrument::None).result;
        let telem = run_on(&fc, 0.55, 0xBEE, 1, TELEMETRY);
        assert_eq!(plain.delivered, telem.result.delivered, "{label}");
        assert_eq!(plain.end_cycle, telem.result.end_cycle, "{label}");
        assert_eq!(plain.measure_start, telem.result.measure_start, "{label}");
        assert_eq!(
            plain.mean_latency().to_bits(),
            telem.result.mean_latency().to_bits(),
            "{label}"
        );
        assert_eq!(
            plain.accepted_fraction.to_bits(),
            telem.result.accepted_fraction.to_bits(),
            "{label}"
        );
    }
}
