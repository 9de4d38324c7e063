//! Acceptance suite for the blackbox observability layer.
//!
//! Three properties pin the flight recorder, the state-dump/replay
//! substrate and the progress watchdog:
//!
//! * **Zero perturbation** — running with a `RingSink` flight recorder
//!   teed next to a full `VecSink` reproduces the committed golden trace
//!   fingerprints (`tests/golden/staged_traces.txt`) bit for bit, and
//!   the ring holds exactly the tail of the full stream with an exact
//!   dropped count. The recorder observes; it never steers.
//! * **Replay equality** — a state dump captured at a cycle replays to
//!   the identical `state_digest` on 1, 4 and 8 threads, for both
//!   router families, with and without an active fault plan.
//! * **Watchdog** — a constructed dead-link livelock (every eastbound
//!   link out of column 0 cut at cycle 0) trips the progress watchdog,
//!   and the captured crash sidecar round-trips through the text form
//!   and replays cleanly.
//!
//! The network-construction helpers mirror `tests/staged_golden.rs`
//! exactly (same seeds, same RNG forks) — the golden fingerprints were
//! blessed through those recipes, and this suite's whole point is to
//! rerun them with the recorder armed.

use frfc::engine::trace::{RingSink, TeeSink, TraceEvent, TraceSink, VecSink};
use frfc::engine::Rng;
use frfc::faults::{DeadLink, FaultPlan};
use frfc::flow::{LinkTiming, Router};
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::{json_diff, Json};
use frfc::network::{
    capture_at_cycle, replay_to_cycle, run_blackbox, FlowControl, Network, Recording, Scenario,
    Trigger,
};
use frfc::topology::{Mesh, Port};
use frfc::traffic::{LoadSpec, TrafficGenerator};
use frfc::vc::{VcConfig, VcRouter};
use std::fmt::Write as _;

const MESH: (u16, u16) = (4, 4);
const PACKET_FLITS: u32 = 5;
/// Small enough that every golden cell overflows it, so the wraparound
/// path (not just the filling path) is what the proof exercises.
const RING_CAP: usize = 256;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/staged_traces.txt"
);

/// FNV-1a over the debug rendering of every event — the same
/// fingerprint `tests/staged_golden.rs` blessed the fixture with.
fn fingerprint(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for event in events {
        line.clear();
        write!(line, "{event:?}").expect("format into string");
        for &b in line.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x0a;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The staged-golden fault plan: transient corruption, control drops
/// and one permanent link failure at cycle 300.
fn fault_plan(seed: u64, mesh: Mesh) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.data_corrupt_rate = 2e-3;
    plan.control_drop_rate = 2e-3;
    plan.repair_delay = 4;
    plan.ack_latency = 8;
    plan.retransmit_timeout = 64;
    plan.max_backoff_exp = 2;
    plan.dead_links.push(DeadLink {
        node: mesh.node_at(1, 1),
        port: Port::East,
        at_cycle: 300,
    });
    plan
}

fn vc_net<S: TraceSink + Clone>(load: f64, seed: u64, sink: S) -> Network<VcRouter<S>, S> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let router_sink = sink.clone();
    Network::with_tracer(
        mesh,
        LinkTiming::fast_control(),
        2,
        generator,
        move |node| {
            VcRouter::with_tracer(
                mesh,
                node,
                VcConfig::vc8(),
                root.fork(node.raw() as u64),
                router_sink.clone(),
            )
        },
        sink,
    )
}

fn fr_net<S: TraceSink + Clone>(load: f64, seed: u64, sink: S) -> Network<FrRouter<S>, S> {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let root = Rng::from_seed(seed);
    let cfg = FrConfig::fr6();
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = TrafficGenerator::uniform(mesh, spec, root.fork(99));
    let router_sink = sink.clone();
    Network::with_tracer(
        mesh,
        cfg.timing,
        cfg.control_lanes,
        generator,
        move |node| {
            FrRouter::with_tracer(
                mesh,
                node,
                cfg,
                root.fork(node.raw() as u64),
                router_sink.clone(),
            )
        },
        sink,
    )
}

/// Sequential inject-then-drain schedule from the golden suite.
/// FR6 on the 4×4 mesh at 30% load with a 500-cycle watchdog.
fn fr6_small(seed: u64) -> Scenario {
    let fr6 = FlowControl::FlitReservation(FrConfig::fr6());
    let load = LoadSpec::fraction_of_capacity(0.3, PACKET_FLITS);
    Scenario {
        watchdog: Some(500),
        ..Scenario::new(fr6, Mesh::new(MESH.0, MESH.1), load, seed)
    }
}

fn run_to_drain<R: Router, S: TraceSink>(net: &mut Network<R, S>) {
    net.run_cycles(500);
    net.stop_injection();
    for _ in 0..20 {
        if net.tracker().in_flight() == 0 {
            break;
        }
        net.run_cycles(1_000);
    }
    assert_eq!(net.tracker().in_flight(), 0, "network failed to drain");
}

/// Looks up one `net` line of the golden fixture: (event count, fnv).
fn golden_net_line(family: &str, load: f64, faults: bool) -> (usize, u64) {
    let fixture = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing; bless it via tests/staged_golden.rs");
    let needle = format!("net {family} load={load:.2} faults={faults} ");
    let line = fixture
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("fixture has no line starting with `{needle}`"));
    let field = |prefix: &str| -> &str {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("`{line}` lacks a {prefix} field"))
    };
    let count = field("events=").parse().expect("events field parses");
    let hash = u64::from_str_radix(field("fnv="), 16).expect("fnv field parses");
    (count, hash)
}

/// The ring must be a pure observer: with a `RingSink` teed next to the
/// full recording, the full stream still matches the golden fingerprint
/// blessed *without* any ring, and the ring holds exactly the stream's
/// tail with an exact eviction count.
#[test]
fn ring_recorder_is_zero_perturbation() {
    let load = 0.55;
    let seed = 0x60_1D + (load * 100.0) as u64;
    let mesh = Mesh::new(MESH.0, MESH.1);
    for family in ["vc8", "fr6"] {
        for faults in [false, true] {
            let tee = TeeSink::new(VecSink::new(), RingSink::new(RING_CAP));
            let (full, ring) = match family {
                "vc8" => {
                    let mut net = vc_net(load, seed, tee);
                    if faults {
                        net.set_fault_plan(fault_plan(0xFA_01, mesh));
                    }
                    run_to_drain(&mut net);
                    (net.tracer().a.events().to_vec(), net.tracer().b.clone())
                }
                "fr6" => {
                    let mut net = fr_net(load, seed, tee);
                    if faults {
                        net.set_fault_plan(fault_plan(0xFA_02, mesh));
                    }
                    run_to_drain(&mut net);
                    (net.tracer().a.events().to_vec(), net.tracer().b.clone())
                }
                other => panic!("unknown family {other}"),
            };
            let cell = format!("{family} load={load:.2} faults={faults}");
            let (want_count, want_hash) = golden_net_line(family, load, faults);
            assert_eq!(full.len(), want_count, "{cell}: event count perturbed");
            assert_eq!(
                fingerprint(&full),
                want_hash,
                "{cell}: ring-armed trace diverged from the golden fingerprint"
            );
            let tail: Vec<TraceEvent> = ring.events().copied().collect();
            assert!(
                full.len() > RING_CAP,
                "{cell}: cell too small to wrap the ring"
            );
            assert_eq!(tail.len(), RING_CAP, "{cell}: ring not full");
            assert_eq!(
                tail.as_slice(),
                &full[full.len() - RING_CAP..],
                "{cell}: ring does not hold the stream's tail"
            );
            assert_eq!(
                ring.dropped() as usize,
                full.len() - RING_CAP,
                "{cell}: eviction count wrong"
            );
        }
    }
}

/// A dump captured at a cycle replays to the identical digest on 1, 4
/// and 8 threads, for both families — and a capture taken *by* a
/// sharded run equals the sequential capture.
#[test]
fn replay_digest_matches_across_thread_counts() {
    let recording = Recording {
        inject_cycles: 150,
        ..Recording::default()
    };
    for config in ["FR6", "VC8"] {
        let mut scenario = fr6_small(0xB1_AC);
        scenario.flow = FlowControl::from_label(config).expect("preset");
        let sidecar = capture_at_cycle(&scenario, &recording, 220).expect("capture");
        for threads in [1usize, 4, 8] {
            let report = replay_to_cycle(&sidecar, threads).expect("replay");
            assert!(
                report.matches(),
                "{config}: replay at {threads} threads diverged \
                 (expected {} got {}, first diff {:?})",
                report.expected_digest,
                report.live_digest,
                report.diffs.first()
            );
        }
        scenario.threads = 4;
        let sharded = capture_at_cycle(&scenario, &recording, 220).expect("sharded capture");
        assert_eq!(
            sidecar.get("state_digest").and_then(Json::as_str),
            sharded.get("state_digest").and_then(Json::as_str),
            "{config}: sharded capture digest differs from sequential"
        );
    }
}

/// Replay equality holds with the staged-golden fault plan active —
/// capture lands after the dead link fires, mid-retransmission.
#[test]
fn replay_digest_matches_under_an_active_fault_plan() {
    let mut scenario = fr6_small(0xFA_CE);
    scenario.fault = Some(fault_plan(0xFA_02, Mesh::new(MESH.0, MESH.1)));
    let recording = Recording {
        inject_cycles: 350,
        ..Recording::default()
    };
    let sidecar = capture_at_cycle(&scenario, &recording, 450).expect("capture");
    for threads in [1usize, 4, 8] {
        let report = replay_to_cycle(&sidecar, threads).expect("replay");
        assert!(
            report.matches(),
            "faulted replay at {threads} threads diverged \
             (expected {} got {}, first diff {:?})",
            report.expected_digest,
            report.live_digest,
            report.diffs.first()
        );
    }
}

/// The livelock `frfc-inspect --self-check` also runs: cutting every
/// eastbound link out of column 0 strands eastbound traffic injected
/// there, so after the deliverable packets drain the network makes no
/// progress with packets still in flight.
fn livelock_scenario() -> Scenario {
    let mesh = Mesh::new(MESH.0, MESH.1);
    let mut scenario = fr6_small(0xDEAD_0001);
    scenario.watchdog = Some(500);
    scenario.fault = Some(FaultPlan {
        dead_links: (0..MESH.1)
            .map(|y| DeadLink {
                node: mesh.node_at(0, y),
                port: Port::East,
                at_cycle: 0,
            })
            .collect(),
        ..FaultPlan::quiet(0xFA_11)
    });
    scenario
}

/// The watchdog catches the constructed livelock, and the crash sidecar
/// survives a text round trip and replays bit for bit.
#[test]
fn watchdog_catches_a_dead_link_livelock() {
    let run = run_blackbox(&livelock_scenario(), &Recording::default()).expect("run");
    assert_eq!(
        run.trigger,
        Trigger::Watchdog,
        "expected a watchdog trip, got: {}",
        run.detail
    );
    let sidecar = run.sidecar.expect("watchdog trip captures a sidecar");
    assert_eq!(
        sidecar.get("trigger").and_then(Json::as_str),
        Some("watchdog")
    );
    assert!(
        sidecar.get("in_flight").and_then(Json::as_u64).unwrap_or(0) > 0,
        "a livelock sidecar must show packets still in flight"
    );
    let ring_events = sidecar
        .get("ring")
        .and_then(|r| r.get("events"))
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    assert!(ring_events > 0, "flight recorder captured nothing");

    // The sidecar is a disk artefact: render -> parse must be lossless.
    let reparsed = Json::parse(&sidecar.render()).expect("sidecar reparses");
    assert!(
        json_diff(&sidecar, &reparsed).is_empty(),
        "sidecar changed across the text round trip"
    );

    for threads in [1usize, 4] {
        let report = replay_to_cycle(&reparsed, threads).expect("replay");
        assert!(
            report.matches(),
            "livelock replay at {threads} threads diverged \
             (expected {} got {}, first diff {:?})",
            report.expected_digest,
            report.live_digest,
            report.diffs.first()
        );
    }
}

/// A mid-injection FR dump carries live reservation-table timelines —
/// the `busy` strings `frfc-inspect show` renders must have substance.
#[test]
fn state_dump_carries_reservation_timelines() {
    let mut scenario = fr6_small(0x71_3E);
    scenario.load = LoadSpec::fraction_of_capacity(0.6, PACKET_FLITS);
    let sidecar = capture_at_cycle(&scenario, &Recording::default(), 120).expect("capture");
    let routers = sidecar
        .get("state")
        .and_then(|s| s.get("routers"))
        .and_then(Json::as_array)
        .expect("dump has routers");
    let reserved: usize = routers
        .iter()
        .flat_map(|r| {
            r.get("reservation")
                .and_then(|s| s.get("tables"))
                .and_then(Json::as_array)
                .into_iter()
                .flatten()
        })
        .filter_map(|e| {
            e.get("table")
                .and_then(|t| t.get("busy"))
                .and_then(Json::as_str)
        })
        .map(|busy| busy.chars().filter(|&c| c == 'X').count())
        .sum();
    assert!(
        reserved > 0,
        "mid-injection FR dump shows no reserved output slots"
    );
}
