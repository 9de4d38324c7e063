//! Section 5 ablation: virtual-channel flow control with a shared buffer
//! pool [TamFra92] versus private per-VC queues. The paper "saw no
//! improvement in network throughput" from the shared pool — the win of
//! flit-reservation flow control comes from advance scheduling, not from
//! pooling.

use noc_bench::{default_loads, print_curve, print_summary, seed_from_env, sweep_threads, Scale};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl};
use noc_topology::Mesh;
use noc_vc::VcConfig;

fn main() {
    let mesh = Mesh::new(8, 8);
    let seed = seed_from_env();
    let sim = Scale::from_env().sim();
    let loads = default_loads();
    let t = LinkTiming::fast_control();
    println!("Ablation: VC8 private queues vs shared buffer pool [TamFra92], 5-flit packets");
    println!("(paper: no throughput improvement from the shared pool)");
    let mut curves = Vec::new();
    for (name, cfg) in [
        ("VC8/private", VcConfig::vc8()),
        ("VC8/shared-pool", VcConfig::vc8().with_shared_pool()),
    ] {
        let fc = FlowControl::VirtualChannel(cfg, t);
        let mut curve = sweep_loads(&fc, mesh, 5, &loads, seed, &sim, sweep_threads());
        curve.label = name.to_string();
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
}
