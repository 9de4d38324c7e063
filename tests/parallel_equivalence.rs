//! The parallel-determinism suite: sharded multi-core stepping is a pure
//! performance feature, bit-identical to the sequential engine.
//!
//! The sharded engine runs deliver/offer/step concurrently on per-shard
//! slabs and hands cross-shard flits over in per-shard outboxes published
//! at the phase barrier, never mid-step. Its contract is equality, not
//! similarity: for every thread count, both router families and loads
//! from light to near-saturation, a sharded run must reproduce the
//! sequential run's **network trace** (every injection, ejection and
//! delivery, in order) and its **metrics export** (every counter, gauge
//! and series, byte-identical after wall-clock stripping).
//!
//! On top of the fixed thread-count matrix, property tests drive the
//! engine with *random* shard partitions — arbitrary cut points, empty
//! shards, single-node shards — and check the physical invariants
//! directly: every injected packet is delivered exactly once
//! (conservation) and the network drains to empty.

use frfc::engine::propcheck::{check, vec_of};
use frfc::engine::trace::{TraceEvent, TraceKind, VecSink};
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::flow::{LinkTiming, Router};
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::{strip_nondeterministic, RunManifest};
use frfc::network::{run, FlowControl, Instrument, Network, Scenario, ShardPlan, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::{VcConfig, VcRouter};
use std::collections::BTreeSet;

const MESH: (u16, u16) = (4, 4);
const PACKET_FLITS: u32 = 5;

/// The load matrix from the issue: light, moderate, near-saturation.
const LOADS: [f64; 3] = [0.2, 0.55, 0.8];

/// The thread-count matrix. 1 exercises the planned engine's inline
/// path; 2/4/8 exercise real concurrent shard rounds (8 shards on a
/// 16-node mesh leaves two nodes per shard, maximising hand-off
/// traffic). CI's `FRFC_THREADS` matrix appends its value so the tier-1
/// suite re-proves equivalence at whatever width the job pins.
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

fn fr_net(load: f64, seed: u64, sink: VecSink) -> Network<FrRouter, VecSink> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let cfg = FrConfig::fr6();
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    Network::with_tracer(
        mesh,
        cfg.timing,
        cfg.control_lanes,
        generator,
        |node| FrRouter::new(mesh, node, cfg, root.fork(node.raw() as u64)),
        sink,
    )
}

fn vc_net(load: f64, seed: u64, sink: VecSink) -> Network<VcRouter, VecSink> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    Network::with_tracer(
        mesh,
        LinkTiming::fast_control(),
        2,
        generator,
        |node| VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64)),
        sink,
    )
}

/// Injects, stops, drains; returns the full network-level event stream.
/// `threads == 0` is the sequential baseline ([`Network::cycle`]);
/// anything else steps sharded.
fn run_trace<R: Router + Send>(
    mut net: Network<R, VecSink>,
    threads: usize,
    cycles: u64,
    drain: u64,
) -> Vec<TraceEvent> {
    if threads == 0 {
        net.run_cycles(cycles);
        net.stop_injection();
        net.run_cycles(drain);
    } else {
        net.run_cycles_sharded(cycles, threads);
        net.stop_injection();
        net.run_cycles_sharded(drain, threads);
    }
    assert_eq!(net.tracker().in_flight(), 0, "network must drain");
    net.tracer().events().to_vec()
}

#[test]
fn fr_trace_is_identical_across_all_thread_counts_and_loads() {
    for (i, &load) in LOADS.iter().enumerate() {
        let seed = 0xF100 + i as u64;
        let sequential = run_trace(fr_net(load, seed, VecSink::new()), 0, 500, 6_000);
        assert!(!sequential.is_empty(), "FR6@{load}: run produced no events");
        for threads in thread_matrix() {
            let sharded = run_trace(fr_net(load, seed, VecSink::new()), threads, 500, 6_000);
            assert_eq!(
                sequential, sharded,
                "FR6@{load}: {threads}-thread trace diverged from sequential"
            );
        }
    }
}

#[test]
fn vc_trace_is_identical_across_all_thread_counts_and_loads() {
    for (i, &load) in LOADS.iter().enumerate() {
        let seed = 0xC100 + i as u64;
        let sequential = run_trace(vc_net(load, seed, VecSink::new()), 0, 500, 6_000);
        assert!(!sequential.is_empty(), "VC8@{load}: run produced no events");
        for threads in thread_matrix() {
            let sharded = run_trace(vc_net(load, seed, VecSink::new()), threads, 500, 6_000);
            assert_eq!(
                sequential, sharded,
                "VC8@{load}: {threads}-thread trace diverged from sequential"
            );
        }
    }
}

/// A sim small enough to run the full metered matrix in the debug
/// profile while still exercising warm-up, measurement and drain.
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

fn families() -> [FlowControl; 2] {
    [
        FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control()),
        FlowControl::FlitReservation(FrConfig::fr6()),
    ]
}

/// One metered run on `threads` workers: the result and the registry.
fn metered(
    fc: &FlowControl,
    load: f64,
    seed: u64,
    threads: usize,
) -> (frfc::network::RunResult, frfc::metrics::MetricsRegistry) {
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let scenario = Scenario {
        threads,
        ..Scenario::new(fc.clone(), Mesh::new(MESH.0, MESH.1), spec, seed)
    };
    let metered = Instrument::Metered { sample_period: 32 };
    let out = run(&scenario, &tiny_sim(), metered).expect("untraced runs cannot fail");
    (out.result, out.registry.expect("metered"))
}

/// Stripped JSON export of one metered sharded run, plus the facts of
/// its `RunResult` that must be thread-count invariant.
fn metered_export(fc: &FlowControl, load: f64, seed: u64, threads: usize) -> (String, Vec<u64>) {
    let (result, reg) = metered(fc, load, seed, threads);
    let manifest = RunManifest::new("parallel-equivalence", seed, "tiny", fc.label());
    let mut doc = reg.to_json(&manifest);
    strip_nondeterministic(&mut doc);
    let facts = vec![
        result.delivered,
        result.end_cycle,
        result.measure_start,
        u64::from(result.completed),
        result.mean_latency().to_bits(),
        result.accepted_fraction.to_bits(),
    ];
    (doc.render(), facts)
}

#[test]
fn metrics_export_is_identical_across_all_thread_counts_and_loads() {
    for fc in families() {
        let label = fc.label();
        for (i, &load) in LOADS.iter().enumerate() {
            let seed = 0xE100 + i as u64;
            // threads == 1 runs the sequential engine.
            let (base_json, base_facts) = metered_export(&fc, load, seed, 1);
            for &threads in &thread_matrix()[1..] {
                let (json, facts) = metered_export(&fc, load, seed, threads);
                assert_eq!(
                    base_facts, facts,
                    "{label}@{load}: {threads}-thread RunResult diverged"
                );
                assert_eq!(
                    base_json, json,
                    "{label}@{load}: {threads}-thread metrics export diverged"
                );
            }
        }
    }
}

/// Anchors the matrix above to the plain sequential harness: a metered
/// run on four threads must equal the sequential one exactly.
#[test]
fn metered_sharded_run_matches_the_sequential_harness() {
    for fc in families() {
        let label = fc.label();
        let (seq_result, seq_reg) = metered(&fc, 0.55, 0xA11, 1);
        let (shr_result, shr_reg) = metered(&fc, 0.55, 0xA11, 4);
        assert_eq!(seq_result.delivered, shr_result.delivered, "{label}");
        assert_eq!(seq_result.end_cycle, shr_result.end_cycle, "{label}");
        assert_eq!(
            seq_result.mean_latency().to_bits(),
            shr_result.mean_latency().to_bits(),
            "{label}"
        );
        let manifest = RunManifest::new("parallel-equivalence", 0xA11, "tiny", label.clone());
        let mut seq_doc = seq_reg.to_json(&manifest);
        let mut shr_doc = shr_reg.to_json(&manifest);
        strip_nondeterministic(&mut seq_doc);
        strip_nondeterministic(&mut shr_doc);
        assert_eq!(
            seq_doc.render(),
            shr_doc.render(),
            "{label}: sharded metered export diverged from the sequential one"
        );
    }
}

fn injected_set(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketInjected { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

fn delivered_set(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketDelivered { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

/// Drives one run under an arbitrary shard partition and checks the
/// physical invariants plus trace equality against `sequential`.
fn check_partition<R: Router + Send>(
    mut net: Network<R, VecSink>,
    cuts: &[usize],
    sequential: &[TraceEvent],
) {
    let nodes = net.mesh().node_count();
    let plan = ShardPlan::from_cuts(nodes, cuts);
    let shards = plan.shards();
    net.set_shard_plan(plan);
    net.run_cycles_sharded(500, shards);
    net.stop_injection();
    net.run_cycles_sharded(6_000, shards);
    // Drained invariant: nothing in flight once injection stops and the
    // drain window passes.
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "partition {cuts:?} left flits in flight"
    );
    let events = net.tracer().events();
    // Conservation: every injected packet is delivered, none invented.
    let injected = injected_set(events);
    let delivered = delivered_set(events);
    assert!(!injected.is_empty(), "partition {cuts:?} injected nothing");
    assert_eq!(
        injected, delivered,
        "partition {cuts:?} broke packet conservation"
    );
    // And the full stream still matches the sequential engine.
    assert_eq!(
        sequential, events,
        "partition {cuts:?} diverged from the sequential trace"
    );
}

#[test]
fn random_shard_partitions_preserve_fr_invariants() {
    let sequential = run_trace(fr_net(0.55, 0x9A9A, VecSink::new()), 0, 500, 6_000);
    // Cuts may exceed the node count (from_cuts clamps), repeat (empty
    // shards) or be absent entirely (one shard).
    check(10, vec_of(0usize..20, 0..6), |cuts| {
        check_partition(fr_net(0.55, 0x9A9A, VecSink::new()), &cuts, &sequential);
    });
}

#[test]
fn random_shard_partitions_preserve_vc_invariants() {
    let sequential = run_trace(vc_net(0.55, 0x9B9B, VecSink::new()), 0, 500, 6_000);
    check(6, vec_of(0usize..20, 0..6), |cuts| {
        check_partition(vc_net(0.55, 0x9B9B, VecSink::new()), &cuts, &sequential);
    });
}
