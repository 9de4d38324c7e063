//! Regenerates paper Figure 5: latency versus offered traffic for
//! virtual-channel (VC8, VC16) and flit-reservation (FR6, FR13) flow
//! control with 5-flit packets under fast control.
//!
//! `--trace-out <path>` additionally records an FR6 run at 50% offered
//! load with latency-provenance tracing and writes a Chrome-trace /
//! Perfetto file there (sampling via `FRFC_PROV_SAMPLE`, default 4).

use flit_reservation::FrConfig;
use noc_bench::report::{manifest, write_curves_json};
use noc_bench::{
    default_loads, print_curve, print_summary, seed_from_env, sweep_threads, trace_out_arg,
    write_provenance_trace, Scale,
};
use noc_flow::LinkTiming;
use noc_network::{sweep_loads, FlowControl, Scenario};
use noc_topology::Mesh;
use noc_traffic::LoadSpec;
use noc_vc::VcConfig;

fn main() {
    let trace_out = trace_out_arg("fig5");
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim();
    let loads = default_loads();
    let t = LinkTiming::fast_control();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::vc8(), t),
        FlowControl::VirtualChannel(VcConfig::vc16(), t),
        FlowControl::FlitReservation(FrConfig::fr6()),
        FlowControl::FlitReservation(FrConfig::fr13()),
    ];
    println!("Figure 5: latency vs offered traffic, 5-flit packets, fast control");
    println!("(paper saturation: VC8 63%, VC16 80%, FR6 77%, FR13 85%; base latency VC 32, FR 27)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for fc in &configs {
        let curve = sweep_loads(fc, mesh, 5, &loads, seed, &sim, threads);
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig5", scale, seed, "VC8/VC16/FR6/FR13");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
    if let Some(path) = trace_out {
        let fr6 = FlowControl::FlitReservation(FrConfig::fr6());
        let load = LoadSpec::fraction_of_capacity(0.5, 5);
        write_provenance_trace(&Scenario::new(fr6, mesh, load, seed), &sim, "FR6", &path);
    }
}
