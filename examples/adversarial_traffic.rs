//! Flit-reservation flow control under adversarial spatial patterns.
//!
//! The paper evaluates uniform random traffic; this example stresses both
//! flow controls with transpose, tornado and hotspot patterns — the
//! workloads a NoC designer would try next.
//!
//! ```sh
//! cargo run --release --example adversarial_traffic
//! ```

use frfc::engine::Rng;
use frfc::flow::LinkTiming;
use frfc::fr::{FrConfig, FrRouter};
use frfc::network::{run_simulation, Network, SimConfig};
use frfc::topology::Mesh;
use frfc::traffic::{
    Hotspot, InjectionKind, LoadSpec, Tornado, TrafficGenerator, TrafficPattern, Transpose,
};
use frfc::vc::{VcConfig, VcRouter};

/// Root seed of every run (the paper's publication year).
const SEED: u64 = 2000;

fn run_fr(mesh: Mesh, pattern: Box<dyn TrafficPattern>, load: f64, sim: &SimConfig) -> f64 {
    let root = Rng::from_seed(SEED);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::new(
        mesh,
        spec,
        pattern,
        InjectionKind::ConstantRate,
        root.fork(1),
    );
    let cfg = FrConfig::fr6();
    let mut network = Network::new(mesh, cfg.timing, cfg.control_lanes, generator, |node| {
        FrRouter::new(mesh, node, cfg, root.fork(node.raw() as u64))
    });
    run_simulation(&mut network, sim).mean_latency()
}

fn run_vc(mesh: Mesh, pattern: Box<dyn TrafficPattern>, load: f64, sim: &SimConfig) -> f64 {
    let root = Rng::from_seed(SEED);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::new(
        mesh,
        spec,
        pattern,
        InjectionKind::ConstantRate,
        root.fork(1),
    );
    let mut network = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |node| {
        VcRouter::new(mesh, node, VcConfig::vc8(), root.fork(node.raw() as u64))
    });
    run_simulation(&mut network, sim).mean_latency()
}

type PatternFactory = Box<dyn Fn() -> Box<dyn TrafficPattern>>;

fn main() {
    let mesh = Mesh::new(8, 8);
    let sim = SimConfig::quick();
    let load = 0.35;
    println!(
        "adversarial traffic at {:.0}% of (uniform) capacity, 5-flit packets\n",
        load * 100.0
    );
    println!("{:<12} {:>10} {:>10}", "pattern", "VC8", "FR6");
    let hotspot_node = mesh.node_at(4, 4);
    let patterns: Vec<(&str, PatternFactory)> = vec![
        ("transpose", Box::new(|| Box::new(Transpose))),
        ("tornado", Box::new(|| Box::new(Tornado))),
        (
            "hotspot10%",
            Box::new(move || Box::new(Hotspot::new(hotspot_node, 0.1))),
        ),
    ];
    for (name, make) in &patterns {
        let vc = run_vc(mesh, make(), load, &sim);
        let fr = run_fr(mesh, make(), load, &sim);
        println!("{name:<12} {vc:>9.1}c {fr:>9.1}c");
    }
    println!("\nAdvance reservations help under non-uniform loads too: the");
    println!("control network sees the contention first and schedules around");
    println!("busy cycles instead of stalling data flits in buffers.");
}
