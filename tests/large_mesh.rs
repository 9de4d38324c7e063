//! Large-mesh smoke: the full stack at scale, under heavy load.
//!
//! Every other suite runs on small meshes where a bug that only shows at
//! scale — a buffer pool that leaks one slot per thousand allocations, a
//! shard boundary off-by-one on meshes wider than a shard, a provenance
//! fold that misattributes long multi-hop spans — would never fire. This
//! suite pushes both router families across a large mesh at load 0.8
//! (near saturation) and checks the strongest end-state claims we have:
//! full delivery, a clean invariant audit with every buffer freed
//! ([`InvariantChecker::assert_drained`]), exact per-flit provenance
//! sums, and sharded-equals-sequential at a scale where shards span
//! multiple mesh rows.
//!
//! Two sizes share the test bodies:
//!
//! * the default **quick** variant (16×16) runs in the tier-1 suite and
//!   CI's debug profile;
//! * `FRFC_LARGE=full` switches to the full 32×32 mesh — minutes, not
//!   seconds, meant for release-profile soak runs.

use frfc::engine::trace::{InvariantChecker, SharedSink, VecSink};
use frfc::engine::warmup::WarmupConfig;
use frfc::engine::Rng;
use frfc::flow::LinkTiming;
use frfc::fr::{FrConfig, FrRouter};
use frfc::network::{run, FlowControl, Instrument, Network, Scenario, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::{VcConfig, VcRouter};

const LOAD: f64 = 0.8;
const PACKET_FLITS: u32 = 5;

/// One scale of the smoke run.
struct Scale {
    mesh: Mesh,
    /// Cycles of injection before the drain.
    inject: u64,
    /// Drain budget: cycles allowed for the last flit to land.
    drain_cap: u64,
}

/// `FRFC_LARGE=full` selects the 32×32 mesh; anything else (including
/// unset — the CI quick variant) the 16×16 mesh.
fn scale() -> Scale {
    if std::env::var("FRFC_LARGE").as_deref() == Ok("full") {
        Scale {
            mesh: Mesh::new(32, 32),
            inject: 400,
            drain_cap: 40_000,
        }
    } else {
        Scale {
            mesh: Mesh::new(16, 16),
            inject: 150,
            drain_cap: 16_000,
        }
    }
}

/// Stops injection and steps until the tracker reports empty, within the
/// scale's drain budget.
fn drain<R: frfc::flow::Router, S: frfc::engine::trace::TraceSink>(
    net: &mut Network<R, S>,
    cap: u64,
) {
    net.stop_injection();
    let mut waited = 0;
    while net.tracker().in_flight() > 0 && waited < cap {
        net.run_cycles(200);
        waited += 200;
    }
    assert_eq!(
        net.tracker().in_flight(),
        0,
        "mesh failed to drain within {cap} cycles of stopping injection"
    );
}

/// Full-delivery + drained-audit smoke for the FR family: every router
/// feeds the invariant checker, so the end state proves every buffer
/// freed and every injected flit ejected exactly once.
#[test]
fn fr_large_mesh_at_heavy_load_delivers_everything_and_drains() {
    let s = scale();
    let shared = SharedSink::new(InvariantChecker::new());
    let root = Rng::from_seed(0x1A26E);
    let cfg = FrConfig::fr6();
    let spec = LoadSpec::fraction_of_capacity(LOAD, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(s.mesh, spec, root.fork(99));
    let router_sink = shared.clone();
    let mesh = s.mesh;
    let mut net = Network::with_tracer(
        mesh,
        cfg.timing,
        cfg.control_lanes,
        generator,
        move |node| {
            FrRouter::with_tracer(
                mesh,
                node,
                cfg,
                root.fork(node.raw() as u64),
                router_sink.clone(),
            )
        },
        shared.clone(),
    );
    net.run_cycles(s.inject);
    drain(&mut net, s.drain_cap);
    let delivered = net.tracker().delivered_packets();
    assert!(
        delivered > mesh.node_count() as u64,
        "heavy load must deliver a dense sample, got {delivered} packets"
    );
    drop(net);
    let checker = shared.into_inner();
    assert!(checker.events_seen() > 100_000, "expect a dense audit");
    checker.assert_drained();
}

/// The same smoke for the VC baseline.
#[test]
fn vc_large_mesh_at_heavy_load_delivers_everything_and_drains() {
    let s = scale();
    let shared = SharedSink::new(InvariantChecker::new());
    let root = Rng::from_seed(0x1A26F);
    let spec = LoadSpec::fraction_of_capacity(LOAD, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(s.mesh, spec, root.fork(99));
    let router_sink = shared.clone();
    let mesh = s.mesh;
    let mut net = Network::with_tracer(
        mesh,
        LinkTiming::fast_control(),
        2,
        generator,
        move |node| {
            VcRouter::with_tracer(
                mesh,
                node,
                VcConfig::vc8(),
                root.fork(node.raw() as u64),
                router_sink.clone(),
            )
        },
        shared.clone(),
    );
    net.run_cycles(s.inject);
    drain(&mut net, s.drain_cap);
    assert!(net.tracker().delivered_packets() > mesh.node_count() as u64);
    drop(net);
    let checker = shared.into_inner();
    assert!(checker.events_seen() > 100_000, "expect a dense audit");
    checker.assert_drained();
}

/// Sharded stepping at a scale where a shard owns multiple full mesh
/// rows: the network trace (every injection, ejection, delivery) must
/// match the sequential engine flit for flit.
#[test]
fn large_mesh_sharded_trace_matches_sequential() {
    let s = scale();
    let mesh = s.mesh;
    let run = |threads: usize| {
        let root = Rng::from_seed(0x5CA1E);
        let cfg = FrConfig::fr6();
        let spec = LoadSpec::fraction_of_capacity(LOAD, PACKET_FLITS);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
        let mut net = Network::with_tracer(
            mesh,
            cfg.timing,
            cfg.control_lanes,
            generator,
            |node| FrRouter::new(mesh, node, cfg, root.fork(node.raw() as u64)),
            VecSink::new(),
        );
        if threads > 1 {
            net.run_cycles_sharded(s.inject, threads);
            net.stop_injection();
            let mut waited = 0;
            while net.tracker().in_flight() > 0 && waited < s.drain_cap {
                net.run_cycles_sharded(200, threads);
                waited += 200;
            }
        } else {
            net.run_cycles(s.inject);
            drain(&mut net, s.drain_cap);
        }
        assert_eq!(net.tracker().in_flight(), 0, "{threads}-thread drain");
        (
            net.tracker().delivered_packets(),
            net.tracer().events().to_vec(),
        )
    };
    let (seq_delivered, seq) = run(1);
    assert!(!seq.is_empty());
    let (par_delivered, par) = run(4);
    assert_eq!(seq_delivered, par_delivered);
    assert_eq!(seq, par, "sharded large-mesh trace diverged");
}

/// Exact provenance sums at scale: on long multi-hop paths every
/// sampled flit's phase attribution must still tile its measured
/// end-to-end latency cycle for cycle, for both families.
#[test]
fn large_mesh_provenance_sums_are_exact() {
    let s = scale();
    let sim = SimConfig {
        warmup: WarmupConfig {
            min_cycles: 200,
            max_cycles: 1_500,
            window: 4,
            tolerance: 0.1,
        },
        sample_packets: 200,
        drain_cap: s.drain_cap,
        warmup_probe_period: 16,
    };
    let spec = LoadSpec::fraction_of_capacity(LOAD, PACKET_FLITS);
    for fc in [
        FlowControl::FlitReservation(FrConfig::fr6()),
        FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control()),
    ] {
        let label = fc.label();
        // Sample sparsely: the claim is exactness per record, not volume.
        let scenario = Scenario::new(fc, s.mesh, spec, 0xB16_F1A7);
        let report = run(&scenario, &sim, Instrument::Traced { sample_every: 61 })
            .expect("sequential")
            .provenance
            .expect("traced");
        assert_eq!(report.malformed, 0, "{label}: malformed folds");
        assert!(!report.records.is_empty(), "{label}: nothing sampled");
        for r in &report.records {
            let mut prev_depart = 0;
            for hop in &r.hops {
                assert!(hop.arrive >= prev_depart, "{label}: hops out of order");
                prev_depart = hop.depart;
            }
            assert_eq!(
                r.attributed(),
                r.end_to_end(),
                "{label}: flit ({}, {}) attribution != end-to-end latency",
                r.packet,
                r.seq
            );
        }
    }
}
