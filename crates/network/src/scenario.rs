//! One simulated experiment as a value, and the one place that turns it
//! into a network.
//!
//! A [`Scenario`] names *what* is simulated; how it is measured is the
//! caller's [`crate::SimConfig`] and [`crate::Instrument`] (or a
//! blackbox [`crate::blackbox::Recording`]). [`Scenario::with_network`]
//! is the single family dispatch: it builds a VC or FR network with the
//! harness recipe and hands it to a [`NetworkTask`] written once for
//! both families.

use crate::{FlowControl, Network};
use flit_reservation::FrRouter;
use noc_engine::trace::{SharedSink, TraceSink};
use noc_engine::Rng;
use noc_faults::{DeadLink, FaultPlan};
use noc_flow::Router;
use noc_metrics::{Json, Recorder};
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::{LengthDistribution, LoadSpec, TrafficGenerator};
use noc_vc::VcRouter;
use std::ops::RangeBounds;

/// Fork of the root RNG that drives uniform traffic ("raffic").
const TRAFFIC_FORK: u64 = 0x7261_6666_6963;

/// What one run simulates. Two runs of equal scenarios (under the same
/// methodology) are bit-identical, whatever their thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Router family and its configuration.
    pub flow: FlowControl,
    /// The mesh.
    pub mesh: Mesh,
    /// Offered uniform-random load.
    pub load: LoadSpec,
    /// Root RNG seed: traffic forks from it on a fixed constant, router
    /// `i` on `fork(i)`.
    pub seed: u64,
    /// Fault plan to arm, if any.
    pub fault: Option<FaultPlan>,
    /// Progress-watchdog threshold in cycles; `None` disables it.
    pub watchdog: Option<u64>,
    /// Worker threads stepping the network: 1 runs the sequential
    /// engine, more shard every cycle (bit-identical either way).
    pub threads: usize,
}

impl Scenario {
    /// A fault-free, watchdog-free, sequential scenario.
    pub fn new(flow: FlowControl, mesh: Mesh, load: LoadSpec, seed: u64) -> Self {
        Scenario {
            flow,
            mesh,
            load,
            seed,
            fault: None,
            watchdog: None,
            threads: 1,
        }
    }

    /// Builds the scenario's network and runs `task` on it — the only
    /// place a router family is chosen. Every router traces to a clone of
    /// `tracer`; the network's own events go to `sink` and its metrics to
    /// `metrics`. The fault plan and watchdog are armed before the first
    /// cycle.
    pub fn with_network<T, S, M, V>(&self, tracer: T, sink: S, metrics: M, task: V) -> V::Output
    where
        T: TraceSink + Clone,
        S: TraceSink,
        M: Recorder,
        VcRouter<T>: Stepping,
        FrRouter<T>: Stepping,
        V: NetworkTask<S, M>,
    {
        let mesh = self.mesh;
        let root = Rng::from_seed(self.seed);
        let generator = TrafficGenerator::uniform(mesh, self.load, root.fork(TRAFFIC_FORK));
        let router_rng = |node: NodeId| root.fork(node.raw() as u64);
        match &self.flow {
            FlowControl::VirtualChannel(cfg, timing) => {
                task.run(self.arm(Network::with_instruments(
                    mesh,
                    *timing,
                    2,
                    generator,
                    |node| {
                        VcRouter::with_tracer(mesh, node, *cfg, router_rng(node), tracer.clone())
                    },
                    sink,
                    metrics,
                )))
            }
            FlowControl::FlitReservation(cfg) => task.run(self.arm(Network::with_instruments(
                mesh,
                cfg.timing,
                cfg.control_lanes,
                generator,
                |node| FrRouter::with_tracer(mesh, node, *cfg, router_rng(node), tracer.clone()),
                sink,
                metrics,
            ))),
        }
    }

    /// Arms the fault plan and watchdog on a freshly built network.
    fn arm<R: Router, S: TraceSink, M: Recorder>(
        &self,
        mut net: Network<R, S, M>,
    ) -> Network<R, S, M> {
        if let Some(plan) = &self.fault {
            net.set_fault_plan(plan.clone());
        }
        net.set_watchdog(self.watchdog);
        net
    }

    /// Renders the scenario as a JSON object: the flow control by its
    /// preset label, the load as fraction plus fixed packet length.
    ///
    /// # Errors
    ///
    /// Refuses a scenario that would not rebuild from its document: a
    /// flow control that is not exactly the preset its label names (say
    /// `VC8` with a shared pool), or a non-fixed packet length.
    pub fn to_json(&self) -> Result<Json, String> {
        let label = self.flow.label();
        if FlowControl::from_label(&label).as_ref() != Some(&self.flow) {
            return Err(format!(
                "`{label}` is not exactly the `{label}` preset, so its label cannot rebuild it"
            ));
        }
        let LengthDistribution::Fixed(packet_flits) = self.load.lengths() else {
            return Err("only fixed packet lengths serialise".into());
        };
        let int = |v: u64| Json::Num(v as f64);
        Ok(Json::obj(vec![
            ("config".into(), Json::str(label)),
            ("mesh_width".into(), int(self.mesh.width().into())),
            ("mesh_height".into(), int(self.mesh.height().into())),
            ("load".into(), Json::Num(self.load.fraction())),
            ("packet_flits".into(), int(packet_flits.into())),
            ("seed".into(), int(self.seed)),
            ("watchdog".into(), self.watchdog.map_or(Json::Null, int)),
            (
                "fault".into(),
                self.fault.as_ref().map_or(Json::Null, fault_plan_to_json),
            ),
        ]))
    }

    /// Parses [`Scenario::to_json`]'s layout, refusing values the
    /// simulator would reject; keys of other sections sharing the object
    /// are ignored. The thread count is a property of the host, not of
    /// the document: the parsed scenario is sequential.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let label = doc
            .get("config")
            .and_then(Json::as_str)
            .ok_or("missing `config`")?;
        let flow = FlowControl::from_label(label)
            .ok_or_else(|| format!("unknown flow-control preset `{label}`"))?;
        let load = real(doc, "load")?;
        if !(load > 0.0 && load.is_finite()) {
            return Err(format!("load {load} must be positive"));
        }
        let (width, height) = (
            int_in(doc, "mesh_width", 1..)?,
            int_in(doc, "mesh_height", 1..)?,
        );
        let nodes = u32::from(width) * u32::from(height);
        if nodes > 1 << 16 {
            return Err(format!("a {width}x{height} mesh overflows 16-bit node ids"));
        }
        let fault = present(doc, "fault")
            .map(fault_plan_from_json)
            .transpose()?;
        if let Some(d) = fault
            .iter()
            .flat_map(|p| &p.dead_links)
            .find(|d| u32::from(d.node.raw()) >= nodes)
        {
            return Err(format!(
                "dead link at node {} lies outside the mesh",
                d.node.raw()
            ));
        }
        Ok(Scenario {
            fault,
            watchdog: present(doc, "watchdog")
                .map(|_| int_in(doc, "watchdog", 1..))
                .transpose()?,
            ..Scenario::new(
                flow,
                Mesh::new(width, height),
                LoadSpec::fraction_of_capacity(load, int_in(doc, "packet_flits", 1..)?),
                num(doc, "seed")?,
            )
        })
    }
}

/// The integer at `key` of `doc`.
pub(crate) fn num(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

/// The integer at `key` of `doc`, converted to `T` without truncation and
/// required to lie in `range`.
pub(crate) fn int_in<T>(doc: &Json, key: &str, range: impl RangeBounds<T>) -> Result<T, String>
where
    T: TryFrom<u64> + PartialOrd,
{
    let v = num(doc, key)?;
    T::try_from(v)
        .ok()
        .filter(|t| range.contains(t))
        .ok_or_else(|| format!("`{key}` = {v} is out of range"))
}

/// The number at `key` of `doc`.
fn real(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

/// The value at `key` of `doc`, unless it is missing or `null`.
fn present<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get(key).filter(|v| **v != Json::Null)
}

/// Work done on the network a [`Scenario`] builds, written once for both
/// router families.
pub trait NetworkTask<S: TraceSink, M: Recorder> {
    /// What the task returns.
    type Output;

    /// Runs the task on a freshly built (and armed) network.
    fn run<R: Stepping>(self, net: Network<R, S, M>) -> Self::Output;
}

/// A router [`Scenario::with_network`] can build, with the engine its
/// tracer allows: untraced routers step sharded across threads, routers
/// sharing one [`SharedSink`] (which is not `Send`) step sequentially.
pub trait Stepping: Router + Sized {
    /// Runs `n` cycles on the sharded engine with `t` worker threads (see
    /// [`Network::run_cycles_sharded`]).
    ///
    /// # Panics
    ///
    /// Always, for shared-sink routers.
    fn run_sharded<S: TraceSink, M: Recorder>(net: &mut Network<Self, S, M>, n: u64, t: usize);

    /// Advances `net` one cycle: sequentially for `threads <= 1`, sharded
    /// otherwise.
    fn cycle_on<S: TraceSink, M: Recorder>(net: &mut Network<Self, S, M>, threads: usize) {
        if threads <= 1 {
            net.cycle();
        } else {
            Self::run_sharded(net, 1, threads);
        }
    }
}

impl Stepping for VcRouter {
    fn run_sharded<S: TraceSink, M: Recorder>(net: &mut Network<Self, S, M>, n: u64, t: usize) {
        net.run_cycles_sharded(n, t);
    }
}

impl Stepping for FrRouter {
    fn run_sharded<S: TraceSink, M: Recorder>(net: &mut Network<Self, S, M>, n: u64, t: usize) {
        net.run_cycles_sharded(n, t);
    }
}

impl<C: TraceSink> Stepping for VcRouter<SharedSink<C>> {
    fn run_sharded<S: TraceSink, M: Recorder>(_: &mut Network<Self, S, M>, _: u64, _: usize) {
        panic!("routers sharing a SharedSink cannot step sharded");
    }
}

impl<C: TraceSink> Stepping for FrRouter<SharedSink<C>> {
    fn run_sharded<S: TraceSink, M: Recorder>(_: &mut Network<Self, S, M>, _: u64, _: usize) {
        panic!("routers sharing a SharedSink cannot step sharded");
    }
}

/// Renders a fault plan as JSON (a scenario's `fault` section).
fn fault_plan_to_json(plan: &FaultPlan) -> Json {
    let int = |v: u64| Json::Num(v as f64);
    let dead = plan.dead_links.iter().map(|d| {
        Json::obj(vec![
            ("node".into(), int(d.node.raw().into())),
            ("port".into(), Json::str(format!("{:?}", d.port))),
            ("at_cycle".into(), int(d.at_cycle)),
        ])
    });
    Json::obj(vec![
        ("seed".into(), int(plan.seed)),
        (
            "data_corrupt_rate".into(),
            Json::Num(plan.data_corrupt_rate),
        ),
        (
            "control_drop_rate".into(),
            Json::Num(plan.control_drop_rate),
        ),
        ("repair_delay".into(), int(plan.repair_delay)),
        ("ack_latency".into(), int(plan.ack_latency)),
        ("retransmit_timeout".into(), int(plan.retransmit_timeout)),
        ("max_backoff_exp".into(), int(plan.max_backoff_exp.into())),
        ("dead_links".into(), Json::Arr(dead.collect())),
    ])
}

/// Parses a fault plan from [`fault_plan_to_json`]'s layout.
fn fault_plan_from_json(doc: &Json) -> Result<FaultPlan, String> {
    let mut dead_links = Vec::new();
    for entry in doc
        .get("dead_links")
        .and_then(Json::as_array)
        .ok_or("fault plan: missing `dead_links`")?
    {
        let name = entry.get("port").and_then(Json::as_str);
        let port = (Port::ALL.into_iter())
            .find(|p| Some(format!("{p:?}").as_str()) == name)
            .ok_or_else(|| format!("dead link: bad port {name:?}"))?;
        dead_links.push(DeadLink {
            node: NodeId::new(int_in(entry, "node", ..)?),
            port,
            at_cycle: num(entry, "at_cycle")?,
        });
    }
    Ok(FaultPlan {
        seed: num(doc, "seed")?,
        data_corrupt_rate: real(doc, "data_corrupt_rate")?,
        control_drop_rate: real(doc, "control_drop_rate")?,
        repair_delay: num(doc, "repair_delay")?,
        ack_latency: num(doc, "ack_latency")?,
        retransmit_timeout: num(doc, "retransmit_timeout")?,
        max_backoff_exp: int_in(doc, "max_backoff_exp", ..)?,
        dead_links,
    })
}
