//! # noc-network
//!
//! Network composition and measurement: wires `noc-vc` or
//! `flit-reservation` routers into the paper's 8×8 mesh, drives the
//! warm-up / measure / drain methodology, and provides the sweep harness
//! every figure and table is built from. A [`Scenario`] names what is
//! simulated; [`Scenario::with_network`] is the one place that builds a
//! router family from it.
//!
//! # Examples
//!
//! ```no_run
//! use noc_network::{run, sweep_loads, FlowControl, Instrument, Scenario, SimConfig};
//! use noc_flow::LinkTiming;
//! use noc_topology::Mesh;
//! use noc_traffic::LoadSpec;
//! use noc_vc::VcConfig;
//!
//! let mesh = Mesh::new(8, 8);
//! let vc8 = FlowControl::VirtualChannel(VcConfig::vc8(), LinkTiming::fast_control());
//! let curve = sweep_loads(&vc8, mesh, 5, &[0.2, 0.4, 0.6], 1, &SimConfig::quick(), 1);
//! println!("VC8 base latency ≈ {:.1} cycles", curve.base_latency());
//!
//! // One point, metered: the same `RunResult` plus a metrics registry.
//! let scenario = Scenario::new(vc8, mesh, LoadSpec::fraction_of_capacity(0.4, 5), 1);
//! let out = run(&scenario, &SimConfig::quick(), Instrument::Metered { sample_period: 64 })?;
//! println!("accepted {:.1}%", out.result.accepted_fraction * 100.0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
mod experiment;
mod network;
pub mod profile;
mod runner;
mod scenario;
mod shard;
mod tracker;

pub use blackbox::{
    capture_at_cycle, replay_to_cycle, run_blackbox, BlackboxRun, Recording, ReplayReport, Trigger,
};
pub use experiment::{run, sweep_loads, Curve, FlowControl, Instrument, LoadPoint, RunOutput};
pub use network::{FaultSummary, Network, ProbeState};
pub use profile::{EngineProfile, ProfileSample};
pub use runner::{run_simulation, RunResult, SimConfig};
pub use scenario::{NetworkTask, Scenario, Stepping};
pub use shard::ShardPlan;
pub use tracker::{DeliveryError, DeliveryTracker};
