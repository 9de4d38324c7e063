//! Regenerates paper Figure 8: FR6 with *leading control* — control flits
//! injected 1, 2 or 4 cycles ahead of their data flits on a network whose
//! wires all have a 1-cycle delay. Throughput should be independent of
//! the lead time.

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;

fn main() {
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim();
    let loads = default_loads();
    println!("Figure 8: FR6 leading control, lead = 1/2/4 cycles, all wires 1 cycle");
    println!("(paper: throughput independent of lead; ~75% capacity)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for lead in [1u64, 2, 4] {
        let cfg = FrConfig::fr6().with_timing(LinkTiming::leading_control(lead));
        let fc = FlowControl::FlitReservation(cfg);
        let mut curve = sweep_loads(&fc, mesh, 5, &loads, seed, &sim, threads);
        curve.label = format!("FR6/lead={lead}");
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig8", scale, seed, "FR6 lead sweep");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
}
