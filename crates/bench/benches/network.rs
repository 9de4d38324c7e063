//! Whole-network throughput benchmarks: simulated cycles per second for
//! each flow control at a moderate load — the figure of merit for the
//! simulator itself (how long the paper's figures take to regenerate).
//!
//! Run with `cargo bench -p noc-bench --features bench`.

use flit_reservation::FrConfig;
use noc_bench::harness::Harness;
use noc_engine::trace::{NullSink, SharedSink, TraceSink, VecSink};
use noc_flow::LinkTiming;
use noc_metrics::NullRecorder;
use noc_network::{FlowControl, Network, NetworkTask, Scenario, Stepping};
use noc_topology::Mesh;
use noc_traffic::LoadSpec;
use noc_vc::VcConfig;

const CYCLES: u64 = 2_000;

/// Steps a freshly built network `CYCLES` cycles and reports the flits
/// it delivered.
struct Cycles;

impl<S: TraceSink> NetworkTask<S, NullRecorder> for Cycles {
    type Output = u64;

    fn run<R: Stepping>(self, mut net: Network<R, S>) -> u64 {
        net.run_cycles(CYCLES);
        net.tracker().delivered_flits()
    }
}

fn bench_networks(h: &mut Harness) {
    let at_half_load = |flow| {
        let load = LoadSpec::fraction_of_capacity(0.5, 5);
        Scenario::new(flow, Mesh::new(8, 8), load, 1)
    };
    let vc8 = at_half_load(FlowControl::VirtualChannel(
        VcConfig::vc8(),
        LinkTiming::fast_control(),
    ));
    let fr6 = at_half_load(FlowControl::FlitReservation(FrConfig::fr6()));

    h.bench("network_cycles/vc8@50%", |b| {
        b.iter(|| vc8.with_network(NullSink, NullSink, NullRecorder, Cycles));
    });
    h.bench("network_cycles/fr6@50%", |b| {
        b.iter(|| fr6.with_network(NullSink, NullSink, NullRecorder, Cycles));
    });

    // The disabled-tracing path: every sink is a `NullSink`, whose emit
    // sites const-fold away, so this row repeats the one above and the
    // two must agree within noise (< 2%).
    h.bench("network_cycles/fr6@50%+nullsink", |b| {
        b.iter(|| fr6.with_network(NullSink, NullSink, NullRecorder, Cycles));
    });

    // Full recording into a shared in-memory sink: the honest price of
    // tracing when it is actually on.
    h.bench("network_cycles/fr6@50%+vecsink", |b| {
        b.iter(|| {
            let sink = SharedSink::new(VecSink::new());
            let delivered = fr6.with_network(sink.clone(), sink.clone(), NullRecorder, Cycles);
            (delivered, sink.with(|s| s.events().len()))
        });
    });
}

fn main() {
    let mut h = Harness::new().samples(9);
    bench_networks(&mut h);
}
