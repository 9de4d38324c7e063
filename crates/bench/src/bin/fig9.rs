//! Regenerates paper Figure 9: flit-reservation with a 1-cycle leading
//! control versus virtual-channel flow control, on 1-cycle wires with
//! 5-flit packets.
//!
//! `--trace-out <path>` additionally records an FR6/lead=1 run at 50%
//! offered load with latency-provenance tracing and writes a
//! Chrome-trace / Perfetto file there (sampling via `FRFC_PROV_SAMPLE`,
//! default 4).

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
    let trace_out = trace_out_arg("fig9");
    let mesh = Mesh::new(8, 8);
    let scale = Scale::from_env();
    let seed = seed_from_env();
    let sim = scale.sim();
    let loads = default_loads();
    let wires = LinkTiming::leading_control(1);
    let vc_wires = wires.vc_baseline_of();
    let configs = [
        FlowControl::VirtualChannel(VcConfig::vc8(), vc_wires),
        FlowControl::VirtualChannel(VcConfig::vc16(), vc_wires),
        FlowControl::FlitReservation(FrConfig::fr6().with_timing(wires)),
        FlowControl::FlitReservation(FrConfig::fr13().with_timing(wires)),
    ];
    println!("Figure 9: FR (1-cycle leading control) vs VC, 1-cycle wires, 5-flit packets");
    println!("(paper: equal base latency 15; FR6 75% vs VC8 65%; latency 19 vs 21 at 50%)");
    let threads = sweep_threads();
    let mut curves = Vec::new();
    for fc in &configs {
        let mut curve = sweep_loads(fc, mesh, 5, &loads, seed, &sim, threads);
        if matches!(fc, FlowControl::FlitReservation(_)) {
            curve.label = format!("{}/lead=1", curve.label);
        }
        print_curve(&curve);
        curves.push(curve);
    }
    print_summary(&curves);
    let mut m = manifest("fig9", scale, seed, "VC8/VC16/FR6/FR13 lead=1");
    m.threads = threads as u64;
    write_curves_json(&m, &curves);
    if let Some(path) = trace_out {
        let fc = FlowControl::FlitReservation(FrConfig::fr6().with_timing(wires));
        let load = LoadSpec::fraction_of_capacity(0.5, 5);
        let scenario = Scenario::new(fc, mesh, load, seed);
        write_provenance_trace(&scenario, &sim, "FR6/lead=1", &path);
    }
}
