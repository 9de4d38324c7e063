//! Regenerates paper Figure 7: FR6 latency-throughput with the scheduling
//! horizon swept from 16 to 128 cycles — throughput should be relatively
//! insensitive beyond 32 cycles.

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;

fn main() {
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim();
    let loads = default_loads();
    println!("Figure 7: FR6 with scheduling horizon 16/32/64/128, 5-flit packets");
    println!("(paper: within 10% of optimum at 16; little gain beyond 32)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for horizon in [16u64, 32, 64, 128] {
        let fc = FlowControl::FlitReservation(FrConfig::fr6().with_horizon(horizon));
        let mut curve = sweep_loads(&fc, mesh, 5, &loads, seed, &sim, threads);
        curve.label = format!("FR6/s={horizon}");
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig7", scale, seed, "FR6 horizon sweep");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
}
