//! Extension: bursty (on/off) traffic. Burstiness stresses buffer
//! turnaround — the resource flit-reservation flow control recycles
//! instantly — so the FR advantage should persist or grow relative to
//! smooth constant-rate sources at equal mean load.

use flit_reservation::{FrConfig, FrRouter};
use noc_bench::{seed_from_env, Scale};
use noc_engine::Rng;
use noc_flow::LinkTiming;
use noc_network::{run_simulation, Network};
use noc_topology::Mesh;
use noc_traffic::{InjectionKind, LoadSpec, TrafficGenerator, Uniform};
use noc_vc::{VcConfig, VcRouter};

fn run(kind: InjectionKind, load: f64, fr: bool, seed: u64, sim: &noc_network::SimConfig) -> f64 {
    let mesh = Mesh::new(8, 8);
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, 5);
    let generator = TrafficGenerator::new(mesh, spec, Box::new(Uniform), kind, root.fork(1));
    if fr {
        let cfg = FrConfig::fr6();
        let mut net = Network::new(mesh, cfg.timing, cfg.control_lanes, generator, |n| {
            FrRouter::new(mesh, n, cfg, root.fork(n.raw() as u64))
        });
        run_simulation(&mut net, sim).mean_latency()
    } else {
        let mut net = Network::new(mesh, LinkTiming::fast_control(), 2, generator, |n| {
            VcRouter::new(mesh, n, VcConfig::vc8(), root.fork(n.raw() as u64))
        });
        run_simulation(&mut net, sim).mean_latency()
    }
}

fn main() {
    let seed = seed_from_env();
    let sim = Scale::from_env().sim();
    println!("Extension: smooth vs bursty injection at equal mean load (5-flit packets)");
    println!(
        "\n{:>8} {:>16} {:>16} {:>16} {:>16}",
        "load", "VC8 smooth", "VC8 bursty", "FR6 smooth", "FR6 bursty"
    );
    for load in [0.3, 0.45, 0.6] {
        let bursty = InjectionKind::OnOff {
            peak_rate: 0.5,
            mean_on: 16.0,
        };
        println!(
            "{:>7.0}% {:>15.1}c {:>15.1}c {:>15.1}c {:>15.1}c",
            load * 100.0,
            run(InjectionKind::ConstantRate, load, false, seed, &sim),
            run(bursty, load, false, seed, &sim),
            run(InjectionKind::ConstantRate, load, true, seed, &sim),
            run(bursty, load, true, seed, &sim),
        );
    }
}
