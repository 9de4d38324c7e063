//! Section 5 ablation: per-flit versus all-or-nothing scheduling with
//! wide control flits (d = 4). Per-flit scheduling lets scheduled data
//! flits move on and free their buffers, so it sustains higher load.

use flit_reservation::{FrConfig, SchedulingPolicy};
use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;

fn main() {
    let mesh = Mesh::new(8, 8);
    let seed = seed_from_env();
    let sim = Scale::from_env().sim();
    let loads = default_loads();
    // d = 4 control flits need room for 4-flit reservations, so the
    // comparison runs on the 13-buffer pool (a 5-flit packet needs 2
    // control flits: head leading 4 data flits plus a tail leading 1 —
    // the paper's Section 5 example of excess control capacity).
    println!("Ablation: per-flit vs all-or-nothing scheduling (FR13, d=4, 5-flit packets)");
    println!("(paper: per-flit attains higher throughput — scheduled flits free their buffers)");
    let mut curves = Vec::new();
    for (name, policy) in [
        ("per-flit", SchedulingPolicy::PerFlit),
        ("per-flit-greedy", SchedulingPolicy::PerFlitGreedy),
        ("all-or-nothing", SchedulingPolicy::AllOrNothing),
    ] {
        let cfg = FrConfig::fr13()
            .with_flits_per_control(4)
            .with_policy(policy);
        let fc = FlowControl::FlitReservation(cfg);
        let mut curve = sweep_loads(&fc, mesh, 5, &loads, seed, &sim, sweep_threads());
        curve.label = format!("FR13/d=4/{name}");
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
}
