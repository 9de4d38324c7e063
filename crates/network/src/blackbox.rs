//! Black-box flight recording, crash sidecars and manifest-driven replay.
//!
//! The observability layer's "what happened?" machinery: a run armed
//! through [`run_blackbox`] carries a bounded [`RingSink`] flight
//! recorder and the network's progress watchdog; when the watchdog
//! fires, or a conservation/contract panic unwinds out of the cycle
//! loop, the harness captures a **crash sidecar** — one JSON document
//! holding the ring's recent events, the complete
//! [`Network::state_snapshot`] dump with its digest, the reproduction
//! manifest and the `replay` section (the [`Scenario`] plus its
//! [`Recording`]) that rebuilds the run.
//!
//! Because the whole simulator is deterministic from its seed, the
//! sidecar is *executable*: [`replay_to_cycle`] rebuilds the network
//! through the same [`Scenario::with_network`] dispatch as every other
//! run, re-runs it to the captured cycle (on any thread count) and
//! verifies that the live [`Network::state_digest`] matches the dump bit
//! for bit. That replay check is also the state-serialization substrate
//! for checkpoint / restore: a state dump that replays bit-identically is
//! a state dump that can be trusted to restore from.

use crate::scenario::{int_in, num, NetworkTask, Stepping};
use crate::{Network, Scenario};
use noc_engine::trace::{NullSink, RingSink};
use noc_metrics::{json_diff, Json, JsonDiff, NullRecorder, RunManifest};

/// Version of the crash-sidecar document layout.
pub const SIDECAR_SCHEMA_VERSION: u64 = 1;

/// The blackbox harness's schedule and flight-recorder size. Together
/// with the [`Scenario`] it forms a sidecar's `replay` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recording {
    /// Cycles of active injection before the drain begins.
    pub inject_cycles: u64,
    /// Maximum drain cycles after injection stops.
    pub drain_cap: u64,
    /// Flight-recorder capacity exponent (the ring holds `1 << ring_log2`
    /// events).
    pub ring_log2: u32,
}

impl Default for Recording {
    /// 500 injection cycles, a 20,000-cycle drain, a 1,024-event ring.
    fn default() -> Self {
        Recording {
            inject_cycles: 500,
            drain_cap: 20_000,
            ring_log2: 10,
        }
    }
}

/// Renders a sidecar's `replay` section: the scenario's fields followed
/// by the recording's.
///
/// # Errors
///
/// When the scenario does not serialise (see [`Scenario::to_json`]).
fn replay_to_json(scenario: &Scenario, recording: &Recording) -> Result<Json, String> {
    let Json::Obj(mut pairs) = scenario.to_json()? else {
        unreachable!("a scenario renders as an object")
    };
    let int = |v: u64| Json::Num(v as f64);
    pairs.extend([
        ("inject_cycles".into(), int(recording.inject_cycles)),
        ("drain_cap".into(), int(recording.drain_cap)),
        ("ring_log2".into(), int(recording.ring_log2.into())),
    ]);
    Ok(Json::Obj(pairs))
}

/// Parses a `replay` section back into its (sequential) scenario and
/// recording. The ring is bounded as `frfc-sim --flight-ring` bounds it,
/// so a document cannot ask for an unbounded allocation.
fn replay_from_json(doc: &Json) -> Result<(Scenario, Recording), String> {
    let recording = Recording {
        inject_cycles: num(doc, "inject_cycles")?,
        drain_cap: num(doc, "drain_cap")?,
        ring_log2: int_in(doc, "ring_log2", ..24)?,
    };
    Ok((Scenario::from_json(doc)?, recording))
}

/// What ended a blackbox run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The run drained cleanly: nothing to capture.
    Completed,
    /// The progress watchdog fired (no delivery progress with traffic in
    /// flight).
    Watchdog,
    /// A panic — invariant, contract or conservation violation — unwound
    /// out of the cycle loop; the payload message rides in the sidecar.
    Panic,
    /// The drain cap elapsed with traffic still in flight (throughput
    /// collapse rather than a hard deadlock).
    DrainCap,
}

impl Trigger {
    /// Stable lower-case label used in sidecar documents.
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::Completed => "completed",
            Trigger::Watchdog => "watchdog",
            Trigger::Panic => "panic",
            Trigger::DrainCap => "drain_cap",
        }
    }
}

/// Outcome of [`run_blackbox`]: the trigger, a human-readable detail
/// line, and — for every non-clean trigger — the captured crash sidecar.
#[derive(Clone, Debug)]
pub struct BlackboxRun {
    /// What ended the run.
    pub trigger: Trigger,
    /// One-line diagnosis (panic message, stall length, ...).
    pub detail: String,
    /// The crash sidecar; `None` when the run completed cleanly.
    pub sidecar: Option<Json>,
    /// Cycles executed.
    pub cycles: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The blackbox harness as a task on the scenario's network: either the
/// inject-then-drain schedule until a trigger, or a plain run to a fixed
/// cycle followed by an unconditional capture.
struct Harness<'a> {
    scenario: &'a Scenario,
    recording: &'a Recording,
    /// The rendered `replay` section (validated before the build).
    replay: Json,
    /// `Some(cycle)`: run to exactly `cycle` and capture.
    stop_at: Option<u64>,
}

impl Harness<'_> {
    /// Assembles a crash sidecar: schema version, trigger, manifest,
    /// replay section, ring contents and the full state dump with its
    /// digest.
    fn capture<R: Stepping>(
        &self,
        net: &Network<R, RingSink>,
        trigger: Trigger,
        detail: String,
    ) -> BlackboxRun {
        let s = self.scenario;
        let mut manifest = RunManifest::new(
            "blackbox",
            s.seed,
            format!(
                "{}x{}@{:.2}",
                s.mesh.width(),
                s.mesh.height(),
                s.load.fraction()
            ),
            s.flow.label(),
        );
        manifest.threads = s.threads.max(1) as u64;
        let ring = net.tracer();
        let events: Vec<Json> = ring.events().map(|e| Json::Str(format!("{e:?}"))).collect();
        let state = net.state_snapshot();
        let digest = noc_metrics::state_digest(&state);
        let int = |v: u64| Json::Num(v as f64);
        let sidecar = Json::obj(vec![
            ("schema_version".into(), int(SIDECAR_SCHEMA_VERSION)),
            ("trigger".into(), Json::str(trigger.label())),
            ("detail".into(), Json::str(&detail)),
            ("cycle".into(), int(net.now().raw())),
            ("in_flight".into(), int(net.tracker().in_flight() as u64)),
            (
                "delivered_flits".into(),
                int(net.tracker().delivered_flits()),
            ),
            ("manifest".into(), manifest.to_json()),
            ("replay".into(), self.replay.clone()),
            (
                "ring".into(),
                Json::obj(vec![
                    ("capacity".into(), int(ring.capacity() as u64)),
                    ("dropped".into(), int(ring.dropped())),
                    ("events".into(), Json::Arr(events)),
                ]),
            ),
            ("state".into(), state),
            ("state_digest".into(), Json::Str(digest)),
        ]);
        BlackboxRun {
            trigger,
            detail,
            sidecar: Some(sidecar),
            cycles: net.now().raw(),
            delivered_flits: net.tracker().delivered_flits(),
        }
    }
}

impl NetworkTask<RingSink, NullRecorder> for Harness<'_> {
    type Output = BlackboxRun;

    fn run<R: Stepping>(self, mut net: Network<R, RingSink>) -> BlackboxRun {
        let threads = self.scenario.threads;
        let inject = self.recording.inject_cycles;
        let end = self
            .stop_at
            .unwrap_or(inject.saturating_add(self.recording.drain_cap));
        for t in 0..end {
            if t == inject {
                net.stop_injection();
            }
            if self.stop_at.is_some() {
                R::cycle_on(&mut net, threads);
                continue;
            }
            if t >= inject && net.tracker().in_flight() == 0 {
                break;
            }
            // Catch panics, so invariant violations become capturable
            // triggers instead of aborting the harness.
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                R::cycle_on(&mut net, threads)
            }));
            if let Err(payload) = step {
                return self.capture(&net, Trigger::Panic, panic_message(payload.as_ref()));
            }
            if net.watchdog_tripped() {
                let detail = format!(
                    "no delivery progress for {} cycles with {} packets in flight",
                    self.scenario.watchdog.unwrap_or(0),
                    net.tracker().in_flight()
                );
                return self.capture(&net, Trigger::Watchdog, detail);
            }
        }
        if end >= inject {
            // The run may have ended on the boundary cycle itself;
            // stopping again is idempotent.
            net.stop_injection();
        }
        let in_flight = net.tracker().in_flight();
        match self.stop_at {
            Some(cycle) => {
                let detail = format!("manual capture at cycle {cycle}");
                self.capture(&net, Trigger::Completed, detail)
            }
            None if in_flight > 0 => {
                let detail = format!(
                    "drain cap of {} cycles elapsed with {in_flight} packets in flight",
                    self.recording.drain_cap
                );
                self.capture(&net, Trigger::DrainCap, detail)
            }
            None => BlackboxRun {
                trigger: Trigger::Completed,
                detail: format!("drained at cycle {}", net.now().raw()),
                sidecar: None,
                cycles: net.now().raw(),
                delivered_flits: net.tracker().delivered_flits(),
            },
        }
    }
}

/// Builds the scenario's network with the ring as its sink and runs the
/// harness on it.
fn harness(
    scenario: &Scenario,
    recording: &Recording,
    stop_at: Option<u64>,
) -> Result<BlackboxRun, String> {
    let task = Harness {
        scenario,
        recording,
        replay: replay_to_json(scenario, recording)?,
        stop_at,
    };
    let ring = RingSink::new(1usize << recording.ring_log2);
    Ok(scenario.with_network(NullSink, ring, NullRecorder, task))
}

/// Runs `scenario` end to end with the flight recorder and watchdog
/// armed: `inject_cycles` of traffic, then a drain of at most
/// `drain_cap` cycles. A watchdog trip, a panic out of the cycle loop, or
/// an exhausted drain cap each capture a crash sidecar; a clean drain
/// returns [`Trigger::Completed`] with no sidecar.
///
/// # Errors
///
/// When the scenario does not serialise into a sidecar (see
/// [`Scenario::to_json`]); nothing is run then.
pub fn run_blackbox(scenario: &Scenario, recording: &Recording) -> Result<BlackboxRun, String> {
    harness(scenario, recording, None)
}

/// Runs `scenario` to exactly `cycle` cycles (honouring the
/// injection-stop schedule) and captures an unconditional sidecar — the
/// checkpoint write path, and the harness the replay-equality tests
/// drive.
///
/// # Errors
///
/// As [`run_blackbox`].
pub fn capture_at_cycle(
    scenario: &Scenario,
    recording: &Recording,
    cycle: u64,
) -> Result<Json, String> {
    let run = harness(scenario, recording, Some(cycle))?;
    Ok(run.sidecar.expect("a capture always writes a sidecar"))
}

/// Result of replaying a sidecar: the captured and live digests plus any
/// structural differences between the dumps.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Cycle the replay ran to.
    pub cycle: u64,
    /// Digest recorded in the sidecar.
    pub expected_digest: String,
    /// Digest of the replayed network's live state.
    pub live_digest: String,
    /// Structural differences between the captured and live dumps
    /// (empty exactly when the digests match).
    pub diffs: Vec<JsonDiff>,
}

impl ReplayReport {
    /// True when the live state matched the capture bit for bit.
    pub fn matches(&self) -> bool {
        self.expected_digest == self.live_digest && self.diffs.is_empty()
    }
}

/// Replays a crash sidecar: rebuilds the network from its `replay`
/// section, runs to the captured cycle on `threads` workers, and
/// compares the live state dump against the captured one bit for bit.
pub fn replay_to_cycle(sidecar: &Json, threads: usize) -> Result<ReplayReport, String> {
    let (mut scenario, recording) =
        replay_from_json(sidecar.get("replay").ok_or("sidecar: missing `replay`")?)?;
    scenario.threads = threads;
    let cycle = sidecar
        .get("cycle")
        .and_then(Json::as_u64)
        .ok_or("sidecar: missing `cycle`")?;
    let expected_digest = sidecar
        .get("state_digest")
        .and_then(Json::as_str)
        .ok_or("sidecar: missing `state_digest`")?
        .to_string();
    let expected_state = sidecar.get("state").ok_or("sidecar: missing `state`")?;
    let live = capture_at_cycle(&scenario, &recording, cycle)?;
    let live_state = live.get("state").expect("captures carry a state dump");
    let live_digest = noc_metrics::state_digest(live_state);
    let diffs = json_diff(expected_state, live_state);
    Ok(ReplayReport {
        cycle,
        expected_digest,
        live_digest,
        diffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowControl;
    use noc_faults::{DeadLink, FaultPlan};
    use noc_flow::LinkTiming;
    use noc_topology::{NodeId, Port};
    use noc_vc::VcConfig;

    /// FR6 on a 4×4 mesh at 30% load with a 500-cycle watchdog.
    fn small(seed: u64, inject_cycles: u64) -> (Scenario, Recording) {
        let fr6 = FlowControl::FlitReservation(flit_reservation::FrConfig::fr6());
        let load = noc_traffic::LoadSpec::fraction_of_capacity(0.3, 5);
        let scenario = Scenario {
            watchdog: Some(500),
            ..Scenario::new(fr6, noc_topology::Mesh::new(4, 4), load, seed)
        };
        let recording = Recording {
            inject_cycles,
            ..Recording::default()
        };
        (scenario, recording)
    }

    #[test]
    fn replay_spec_round_trips_through_json() {
        let (mut scenario, recording) = small(77, 500);
        scenario.fault = Some(FaultPlan {
            data_corrupt_rate: 1e-3,
            dead_links: vec![DeadLink {
                node: NodeId::new(5),
                port: Port::West,
                at_cycle: 123,
            }],
            ..FaultPlan::quiet(9)
        });
        let doc = replay_to_json(&scenario, &recording).expect("serialises");
        assert_eq!(Scenario::from_json(&doc).expect("parse"), scenario);
        let back = replay_from_json(&doc).expect("parse");
        assert_eq!(back, (scenario.clone(), recording));
        // And through the text renderer too.
        let text = doc.render();
        let reparsed = Json::parse(&text).expect("reparse");
        assert_eq!(
            replay_from_json(&reparsed).expect("parse"),
            (scenario, recording)
        );
    }

    #[test]
    fn schema_v1_replay_section_still_parses() {
        // A `replay` section exactly as schema-v1 sidecars were written:
        // the recording's fields sit between the seed and the watchdog.
        let v1 = r#"{"config": "VC32", "mesh_width": 4, "mesh_height": 3,
            "load": 0.25, "packet_flits": 5, "seed": 4660,
            "inject_cycles": 150, "drain_cap": 9000, "ring_log2": 8,
            "watchdog": null,
            "fault": {"seed": 9, "data_corrupt_rate": 0.001,
                "control_drop_rate": 0, "repair_delay": 2,
                "ack_latency": 8, "retransmit_timeout": 400,
                "max_backoff_exp": 4,
                "dead_links": [{"node": 5, "port": "West", "at_cycle": 123}]}}"#;
        let (scenario, recording) =
            replay_from_json(&Json::parse(v1).expect("json")).expect("v1 parses");
        assert_eq!(
            scenario.flow,
            FlowControl::VirtualChannel(VcConfig::vc32(), LinkTiming::fast_control())
        );
        assert_eq!(scenario.mesh, noc_topology::Mesh::new(4, 3));
        assert_eq!(
            scenario.load,
            noc_traffic::LoadSpec::fraction_of_capacity(0.25, 5)
        );
        assert_eq!(
            (scenario.seed, scenario.threads, scenario.watchdog),
            (4660, 1, None)
        );
        let fault = scenario.fault.expect("fault plan");
        assert_eq!(fault.dead_links[0].port, Port::West);
        assert_eq!(fault.retransmit_timeout, 400);
        assert_eq!(
            recording,
            Recording {
                inject_cycles: 150,
                drain_cap: 9000,
                ring_log2: 8
            }
        );
    }

    #[test]
    fn malformed_replay_sections_are_errors() {
        let (mut scenario, recording) = small(1, 500);
        scenario.fault = Some(FaultPlan::quiet(3));
        let good = replay_to_json(&scenario, &recording).expect("serialises");
        assert!(replay_from_json(&good).is_ok());
        let dead_link = Json::parse(
            r#"{"seed": 3, "data_corrupt_rate": 0, "control_drop_rate": 0,
                "repair_delay": 2, "ack_latency": 8, "retransmit_timeout": 400,
                "max_backoff_exp": 4,
                "dead_links": [{"node": 16, "port": "East", "at_cycle": 0}]}"#,
        )
        .expect("json");
        for (key, bad) in [
            ("config", Json::str("SAF24")),
            ("mesh_width", Json::Num(0.0)),
            ("mesh_height", Json::Num(70_000.0)),
            ("packet_flits", Json::Num(0.0)),
            ("load", Json::Num(-0.5)),
            ("watchdog", Json::Num(0.0)),
            ("ring_log2", Json::Num(40.0)),
            ("fault", dead_link),
        ] {
            let mut doc = good.clone();
            if let Json::Obj(pairs) = &mut doc {
                pairs.iter_mut().find(|(k, _)| k == key).expect("key").1 = bad;
            }
            assert!(replay_from_json(&doc).is_err(), "`{key}` was accepted");
        }
    }

    #[test]
    fn config_the_label_cannot_rebuild_is_refused() {
        // `VC8` with a shared pool labels as `VC8`, but the label rebuilds
        // the plain preset: writing it would replay the wrong network.
        let (mut scenario, recording) = small(1, 100);
        scenario.flow = FlowControl::VirtualChannel(
            VcConfig::vc8().with_shared_pool(),
            LinkTiming::fast_control(),
        );
        assert_eq!(scenario.flow.label(), "VC8");
        assert!(scenario.to_json().is_err());
        assert!(run_blackbox(&scenario, &recording).is_err());
        assert!(capture_at_cycle(&scenario, &recording, 50).is_err());
    }

    #[test]
    fn clean_run_produces_no_sidecar() {
        let (scenario, recording) = small(0x0B_5E, 120);
        let run = run_blackbox(&scenario, &recording).expect("run");
        assert_eq!(run.trigger, Trigger::Completed);
        assert!(run.sidecar.is_none());
        assert!(run.delivered_flits > 0);
    }

    #[test]
    fn capture_and_replay_agree_on_the_digest() {
        let (scenario, recording) = small(0xD1_6E, 150);
        let sidecar = capture_at_cycle(&scenario, &recording, 200).expect("capture");
        let report = replay_to_cycle(&sidecar, 1).expect("replay");
        assert!(
            report.matches(),
            "replay diverged: {:?}",
            report.diffs.first()
        );
    }
}
