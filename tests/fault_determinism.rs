//! Fault-layer determinism: the entire fault schedule is part of the
//! seed path.
//!
//! Three claims, each load-bearing for reproducibility:
//!
//! * **same seed, same faults** — two runs under the same randomized
//!   [`FaultPlan`] replay bit-identical event streams and export
//!   byte-identical metrics JSON (after stripping wall-clock data);
//! * **zero-cost when off** — a rate-zero (inactive) plan produces an
//!   event stream bit-identical to a run that never loaded the fault
//!   layer at all, and no `fault.*` metrics keys appear;
//! * **plans matter** — changing only the fault rates changes the
//!   stream, so the determinism above is not vacuous.

use frfc::engine::trace::{SharedSink, TraceEvent, VecSink};
use frfc::engine::Rng;
use frfc::faults::FaultPlan;
use frfc::flow::LinkTiming;
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::{strip_nondeterministic, MetricsRegistry, RunManifest};
use frfc::network::{run_simulation, Network, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::{VcConfig, VcRouter};

type Shared = SharedSink<VecSink>;

fn traced_fr(mesh: Mesh, load: f64, seed: u64, sink: Shared) -> Network<FrRouter<Shared>, Shared> {
    let root = Rng::from_seed(seed);
    let cfg = FrConfig::fr6();
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let router_sink = sink.clone();
    Network::with_tracer(
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
        sink,
    )
}

fn traced_vc(mesh: Mesh, load: f64, seed: u64, sink: Shared) -> Network<VcRouter<Shared>, Shared> {
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let router_sink = sink.clone();
    Network::with_tracer(
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
        sink,
    )
}

/// A short-run plan derived from [`FaultPlan::randomized`] with the
/// recovery knobs tightened so the drain converges quickly.
fn fast_plan(seed: u64, mesh: Mesh) -> FaultPlan {
    let mut plan = FaultPlan::randomized(seed, mesh);
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    for d in &mut plan.dead_links {
        d.at_cycle = d.at_cycle.min(256);
    }
    plan
}

/// Event stream of one FR run, optionally under a fault plan.
fn fr_trace(load: f64, seed: u64, plan: Option<&FaultPlan>) -> Vec<TraceEvent> {
    let shared = SharedSink::new(VecSink::new());
    let mut net = traced_fr(Mesh::new(4, 4), load, seed, shared.clone());
    if let Some(p) = plan {
        net.set_fault_plan(p.clone());
    }
    net.run_cycles(1_500);
    net.stop_injection();
    net.run_cycles(8_000);
    assert_eq!(net.tracker().in_flight(), 0, "run must drain");
    drop(net);
    shared.into_inner().into_events()
}

/// Event stream of one VC run, optionally under a fault plan.
fn vc_trace(load: f64, seed: u64, plan: Option<&FaultPlan>) -> Vec<TraceEvent> {
    let shared = SharedSink::new(VecSink::new());
    let mut net = traced_vc(Mesh::new(4, 4), load, seed, shared.clone());
    if let Some(p) = plan {
        net.set_fault_plan(p.clone());
    }
    net.run_cycles(1_500);
    net.stop_injection();
    net.run_cycles(8_000);
    assert_eq!(net.tracker().in_flight(), 0, "run must drain");
    drop(net);
    shared.into_inner().into_events()
}

#[test]
fn same_seed_fault_runs_replay_identical_event_streams() {
    let mesh = Mesh::new(4, 4);
    for plan_seed in [11u64, 12, 13] {
        let plan = fast_plan(plan_seed, mesh);
        let a = fr_trace(0.4, 21, Some(&plan));
        let b = fr_trace(0.4, 21, Some(&plan));
        assert!(!a.is_empty());
        assert_eq!(a, b, "plan seed {plan_seed}: fault runs diverged");
        let va = vc_trace(0.4, 21, Some(&plan));
        let vb = vc_trace(0.4, 21, Some(&plan));
        assert_eq!(va, vb, "plan seed {plan_seed}: VC fault runs diverged");
    }
}

#[test]
fn inactive_plan_is_bit_identical_to_no_fault_layer() {
    let quiet = FaultPlan::quiet(5);
    assert!(!quiet.is_active());
    let bare = fr_trace(0.4, 22, None);
    let quieted = fr_trace(0.4, 22, Some(&quiet));
    assert!(!bare.is_empty());
    assert_eq!(
        bare, quieted,
        "a rate-zero plan must not perturb a single event"
    );
    let bare_vc = vc_trace(0.4, 22, None);
    let quieted_vc = vc_trace(0.4, 22, Some(&quiet));
    assert_eq!(bare_vc, quieted_vc);
}

#[test]
fn fault_rates_actually_change_the_stream() {
    let mesh = Mesh::new(4, 4);
    let mut low = fast_plan(31, mesh);
    low.data_corrupt_rate = 1e-3;
    low.control_drop_rate = 1e-3;
    let mut high = low.clone();
    high.data_corrupt_rate = 5e-3;
    high.control_drop_rate = 5e-3;
    let a = fr_trace(0.4, 23, Some(&low));
    let b = fr_trace(0.4, 23, Some(&high));
    assert_ne!(a, b, "different fault rates must diverge somewhere");
}

/// Metrics export under a randomized plan: two same-seed runs must
/// render byte-identical JSON once nondeterministic fields (wall-clock)
/// are stripped, and the export must carry the `fault.*` counters.
#[test]
fn fault_metrics_exports_are_byte_identical_across_reruns() {
    let mesh = Mesh::new(4, 4);
    let plan = fast_plan(41, mesh);
    let seed = 24;
    let sim = SimConfig {
        sample_packets: 300,
        ..SimConfig::quick()
    };
    let export = || {
        let root = Rng::from_seed(seed);
        let cfg = FrConfig::fr6();
        let spec = LoadSpec::fraction_of_capacity(0.4, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(0x7261_6666_6963));
        let mut net = Network::with_instruments(
            mesh,
            cfg.timing,
            cfg.control_lanes,
            generator,
            |node| FrRouter::new(mesh, node, cfg, root.fork(node.raw() as u64)),
            frfc::engine::trace::NullSink,
            MetricsRegistry::new(),
        );
        net.set_fault_plan(plan.clone());
        run_simulation(&mut net, &sim);
        let registry = std::mem::take(net.metrics_mut());
        let mut manifest = RunManifest::new("fault_determinism", seed, "test", "FR6");
        manifest.config = plan.summary();
        let mut doc = registry.to_json(&manifest);
        strip_nondeterministic(&mut doc);
        doc
    };
    let a = export();
    let b = export();
    let counters = a.get("counters").expect("export has counters");
    for key in ["fault.data_corrupted", "fault.retransmits", "fault.acks"] {
        assert!(
            counters.get(key).is_some(),
            "faulty export missing counter {key}"
        );
    }
    assert_eq!(
        a.render(),
        b.render(),
        "same-seed faulty metrics exports differ"
    );
}

/// Zero-cost-when-off at the metrics layer: no plan and an inactive
/// plan must both export without any `fault.*` keys, byte-identically.
#[test]
fn inactive_plan_exports_no_fault_keys() {
    let mesh = Mesh::new(4, 4);
    let seed = 25;
    let sim = SimConfig {
        sample_packets: 300,
        ..SimConfig::quick()
    };
    let export = |plan: Option<FaultPlan>| {
        let root = Rng::from_seed(seed);
        let spec = LoadSpec::fraction_of_capacity(0.4, 5);
        let generator = TrafficGenerator::uniform(mesh, spec, root.fork(0x7261_6666_6963));
        let mut net = Network::with_instruments(
            mesh,
            LinkTiming::fast_control(),
            2,
            generator,
            |node| VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64)),
            frfc::engine::trace::NullSink,
            MetricsRegistry::new(),
        );
        if let Some(p) = plan {
            net.set_fault_plan(p);
        }
        run_simulation(&mut net, &sim);
        let registry = std::mem::take(net.metrics_mut());
        let manifest = RunManifest::new("fault_determinism", seed, "test", "VC8");
        let mut doc = registry.to_json(&manifest);
        strip_nondeterministic(&mut doc);
        doc
    };
    let bare = export(None);
    let quieted = export(Some(FaultPlan::quiet(9)));
    let counters = bare.get("counters").expect("export has counters");
    assert!(
        counters.get("fault.retransmits").is_none(),
        "fault keys must not appear in a fault-free export"
    );
    assert_eq!(bare.render(), quieted.render());
}
