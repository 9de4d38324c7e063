//! Experiment harness: run a [`Scenario`] under the measurement
//! methodology with one of the instruments, sweep offered loads — the
//! machinery behind every figure and table of the paper.

use crate::runner::run_simulation_with;
use crate::scenario::{NetworkTask, Stepping};
use crate::{EngineProfile, FaultSummary, Network, RunResult, Scenario, SimConfig};
use flit_reservation::FrConfig;
use noc_engine::sweep;
use noc_engine::trace::{NullSink, SharedSink, TraceSink};
use noc_flow::LinkTiming;
use noc_metrics::{MetricsRegistry, NullRecorder, Recorder};
use noc_provenance::{ProvenanceCollector, ProvenanceReport};
use noc_topology::Mesh;
use noc_traffic::LoadSpec;
use noc_vc::VcConfig;

/// Which flow control to simulate, with its full configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowControl {
    /// Virtual-channel baseline (Dally '92); carries the link timing since
    /// the VC network has no control wires of its own.
    VirtualChannel(VcConfig, LinkTiming),
    /// Flit-reservation flow control (timing lives in [`FrConfig`]).
    FlitReservation(FrConfig),
}

impl FlowControl {
    /// Short label used in tables and plots (e.g. `VC8`, `FR6`, `WH8`,
    /// `VCT24`, `SAF24`).
    pub fn label(&self) -> String {
        match self {
            FlowControl::VirtualChannel(cfg, _) => {
                let b = cfg.buffers_per_input();
                match cfg.allocation {
                    noc_vc::AllocationUnit::StoreAndForward => format!("SAF{b}"),
                    noc_vc::AllocationUnit::CutThrough => format!("VCT{b}"),
                    noc_vc::AllocationUnit::Flit if cfg.num_vcs == 1 => format!("WH{b}"),
                    noc_vc::AllocationUnit::Flit => format!("VC{b}"),
                }
            }
            FlowControl::FlitReservation(cfg) => format!("FR{}", cfg.data_buffers),
        }
    }

    /// The preset a serialised label names — `VC8` or `VC32` (on the
    /// fast-control timing), `FR6` or `FR13` — or `None`.
    pub fn from_label(label: &str) -> Option<FlowControl> {
        let vc = |cfg| Some(FlowControl::VirtualChannel(cfg, LinkTiming::fast_control()));
        match label {
            "VC8" => vc(VcConfig::vc8()),
            "VC32" => vc(VcConfig::vc32()),
            "FR6" => Some(FlowControl::FlitReservation(FrConfig::fr6())),
            "FR13" => Some(FlowControl::FlitReservation(FrConfig::fr13())),
            _ => None,
        }
    }
}

/// What a [`run`] observes besides its [`RunResult`]. No instrument feeds
/// back into the simulation, so every choice yields the same result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instrument {
    /// Nothing: the null sink and null recorder.
    None,
    /// A metrics registry whose time-axis series sample every
    /// `sample_period` cycles (0 disables series; counters and gauges
    /// are always collected).
    Metered {
        /// Series sampling period in cycles.
        sample_period: u64,
    },
    /// [`Instrument::Metered`] plus epoch-bucketed windows of
    /// `1 << window_log2` cycles and the engine's wall-clock profiler.
    Telemetry {
        /// Series sampling period in cycles.
        sample_period: u64,
        /// Window length exponent.
        window_log2: u32,
    },
    /// Latency provenance over packets with `id % sample_every == 0`
    /// (1 = every packet). Sequential only: the shared collector is not
    /// `Send`.
    Traced {
        /// Packet sampling stride.
        sample_every: u64,
    },
}

/// Everything one [`run`] produced: the measurement record plus whatever
/// the scenario and instrument asked for.
#[derive(Debug)]
pub struct RunOutput {
    /// The measurement record, identical across instruments.
    pub result: RunResult,
    /// The fault layer's activity; `Some` when the scenario carries a
    /// plan.
    pub faults: Option<FaultSummary>,
    /// The filled registry (windows included under telemetry); `Some`
    /// for [`Instrument::Metered`] and [`Instrument::Telemetry`].
    pub registry: Option<MetricsRegistry>,
    /// The engine's wall-clock profile (nondeterministic by nature);
    /// `Some` for [`Instrument::Telemetry`].
    pub profile: Option<EngineProfile>,
    /// The reconstructed provenance; `Some` for [`Instrument::Traced`].
    pub provenance: Option<ProvenanceReport>,
}

/// The methodology run, as a task on the scenario's network: arms the
/// instrument, runs warm-up / measure / drain, and collects the results.
struct Measure<'a> {
    scenario: &'a Scenario,
    sim: &'a SimConfig,
    instrument: Instrument,
}

impl<S: TraceSink, M: Recorder + Default> NetworkTask<S, M> for Measure<'_> {
    type Output = (RunResult, Option<FaultSummary>, M, Option<EngineProfile>);

    fn run<R: Stepping>(self, mut net: Network<R, S, M>) -> Self::Output {
        let profiled = match self.instrument {
            Instrument::Metered { sample_period } => {
                net.set_metrics_period(sample_period);
                false
            }
            Instrument::Telemetry {
                sample_period,
                window_log2,
            } => {
                net.set_metrics_period(sample_period);
                net.set_telemetry_windows(window_log2);
                net.set_profiling(true);
                true
            }
            Instrument::None | Instrument::Traced { .. } => false,
        };
        let threads = self.scenario.threads;
        let result = run_simulation_with(&mut net, self.sim, |n| R::cycle_on(n, threads));
        let armed = self.scenario.fault.is_some();
        let faults = armed.then(|| net.fault_summary().unwrap_or_default());
        let profile = profiled.then(|| net.engine_profile());
        (result, faults, std::mem::take(net.metrics_mut()), profile)
    }
}

/// Runs `scenario` under the warm-up / measure / drain methodology `sim`
/// with `instrument` attached.
///
/// Same scenario, same `RunResult`: instruments only observe, and the
/// sharded engine (`scenario.threads > 1`) is bit-identical to the
/// sequential one, so deterministic registry sections match too (after
/// [`noc_metrics::strip_nondeterministic`] removes wall-clock data).
///
/// # Errors
///
/// [`Instrument::Traced`] with `threads > 1`: the provenance collector is
/// shared through a [`SharedSink`], which cannot cross threads.
pub fn run(
    scenario: &Scenario,
    sim: &SimConfig,
    instrument: Instrument,
) -> Result<RunOutput, String> {
    let measure = Measure {
        scenario,
        sim,
        instrument,
    };
    let (result, faults, registry, profile, provenance) = match instrument {
        Instrument::None => {
            let (result, faults, NullRecorder, _) =
                scenario.with_network(NullSink, NullSink, NullRecorder, measure);
            (result, faults, None, None, None)
        }
        Instrument::Metered { .. } | Instrument::Telemetry { .. } => {
            let (result, faults, registry, profile) =
                scenario.with_network(NullSink, NullSink, MetricsRegistry::new(), measure);
            (result, faults, Some(registry), profile, None)
        }
        Instrument::Traced { sample_every } => {
            if scenario.threads > 1 {
                return Err(format!(
                    "traced runs are sequential only, got {} threads",
                    scenario.threads
                ));
            }
            let sink = SharedSink::new(ProvenanceCollector::new(sample_every));
            let (result, faults, NullRecorder, _) =
                scenario.with_network(sink.clone(), sink.clone(), NullRecorder, measure);
            (result, faults, None, None, Some(sink.into_inner().finish()))
        }
    };
    Ok(RunOutput {
        result,
        faults,
        registry,
        profile,
        provenance,
    })
}

/// One point of a latency-throughput curve.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load as a fraction of capacity.
    pub offered: f64,
    /// Full measurement record.
    pub result: RunResult,
}

/// A labelled latency-throughput curve.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Configuration label (`VC8`, `FR6`, ...).
    pub label: String,
    /// Points in increasing offered load.
    pub points: Vec<LoadPoint>,
}

impl Curve {
    /// Mean latency at the point closest to `offered` (`None` if that
    /// point saturated).
    pub fn latency_at(&self, offered: f64) -> Option<f64> {
        let point = self.points.iter().min_by(|a, b| {
            (a.offered - offered)
                .abs()
                .partial_cmp(&(b.offered - offered).abs())
                .expect("loads are finite")
        })?;
        point.result.completed.then(|| point.result.mean_latency())
    }

    /// Highest offered load whose run completed with latency below
    /// `latency_limit` — the measured saturation throughput.
    pub fn saturation_throughput(&self, latency_limit: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.result.completed && p.result.mean_latency() <= latency_limit)
            .map(|p| p.offered)
            .fold(0.0, f64::max)
    }

    /// Lowest measured mean latency — the base (zero-load) latency when
    /// the sweep includes a low-load point.
    pub fn base_latency(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.result.completed)
            .map(|p| p.result.mean_latency())
            .fold(f64::INFINITY, f64::min)
    }
}

/// Sweeps `loads` (fractions of capacity) for one flow control, running
/// points across `threads` workers. Point `i` runs on its own seed
/// derived from `seed`.
pub fn sweep_loads(
    flow: &FlowControl,
    mesh: Mesh,
    packet_length: u32,
    loads: &[f64],
    seed: u64,
    sim: &SimConfig,
    threads: usize,
) -> Curve {
    let points = sweep::run_parallel(loads, threads, |i, &fraction| {
        let load = LoadSpec::fraction_of_capacity(fraction, packet_length);
        let point_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
        let scenario = Scenario::new(flow.clone(), mesh, load, point_seed);
        let output = run(&scenario, sim, Instrument::None);
        LoadPoint {
            offered: fraction,
            result: output.expect("untraced runs cannot fail").result,
        }
    });
    Curve {
        label: flow.label(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_engine::warmup::WarmupConfig;

    fn tiny_sim() -> SimConfig {
        SimConfig {
            warmup: WarmupConfig {
                min_cycles: 300,
                max_cycles: 2_000,
                window: 4,
                tolerance: 0.1,
            },
            sample_packets: 120,
            drain_cap: 8_000,
            warmup_probe_period: 16,
        }
    }

    #[test]
    fn labels_match_paper_names() {
        let vc8 = FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control());
        assert_eq!(vc8.label(), "VC8");
        let vc32 = FlowControl::VirtualChannel(VcConfig::vc32(), LinkTiming::fast_control());
        assert_eq!(vc32.label(), "VC32");
        let fr6 = FlowControl::FlitReservation(FrConfig::fr6());
        assert_eq!(fr6.label(), "FR6");
        let fr13 = FlowControl::FlitReservation(FrConfig::fr13());
        assert_eq!(fr13.label(), "FR13");
        for preset in [vc8, vc32, fr6, fr13] {
            assert_eq!(FlowControl::from_label(&preset.label()), Some(preset));
        }
        assert_eq!(FlowControl::from_label("SAF24"), None);
    }

    #[test]
    fn traced_run_refuses_threads() {
        let fr6 = FlowControl::FlitReservation(FrConfig::fr6());
        let load = LoadSpec::fraction_of_capacity(0.3, 5);
        let scenario = Scenario {
            threads: 2,
            ..Scenario::new(fr6, Mesh::new(4, 4), load, 4)
        };
        let traced = run(
            &scenario,
            &tiny_sim(),
            Instrument::Traced { sample_every: 1 },
        );
        assert!(
            traced.is_err(),
            "a traced run must not silently go sequential"
        );
    }

    #[test]
    fn sweep_produces_monotone_low_load_points() {
        let mesh = Mesh::new(4, 4);
        let fr6 = FlowControl::FlitReservation(FrConfig::fr6());
        let curve = sweep_loads(&fr6, mesh, 5, &[0.1, 0.3], 2, &tiny_sim(), 1);
        assert_eq!(curve.label, "FR6");
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].result.completed);
        assert!(curve.points[1].result.completed);
        // Latency grows (weakly) with load.
        assert!(
            curve.points[0].result.mean_latency() <= curve.points[1].result.mean_latency() + 2.0
        );
        let base = curve.base_latency();
        assert!(base > 10.0 && base < 80.0);
        assert!(curve.latency_at(0.1).is_some());
    }

    #[test]
    fn saturation_throughput_uses_latency_limit() {
        let mesh = Mesh::new(4, 4);
        let vc8 = FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control());
        let curve = sweep_loads(&vc8, mesh, 5, &[0.2, 0.5, 1.2], 3, &tiny_sim(), 1);
        let base = curve.base_latency();
        let sat = curve.saturation_throughput(base * 3.0);
        assert!(sat >= 0.2, "low load must sustain (got {sat})");
        assert!(sat < 1.2, "overload must not count as sustained");
    }
}
