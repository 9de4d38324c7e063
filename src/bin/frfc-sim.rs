//! `frfc-sim` — command-line driver for one simulation run.
//!
//! ```sh
//! frfc-sim --flow fr6 --load 0.5 --length 5
//! frfc-sim --flow vc16 --timing lead:2 --pattern transpose --mesh 6x6
//! frfc-sim --flow fr13 --horizon 64 --injection onoff:0.5,16 --scale tiny
//! frfc-sim --help
//! ```
//!
//! Prints a one-run report: mean latency with 95% CI, p50/p95/p99, accepted
//! throughput and the occupancy probe.

use frfc::engine::trace::NullSink;
use frfc::engine::Rng;
use frfc::flow::{LinkTiming, Router};
use frfc::fr::{FrConfig, FrRouter};
use frfc::metrics::{write_json_file, MetricsRegistry, RunManifest};
use frfc::network::{run_simulation, EngineProfile, Network, RunResult, SimConfig};
use frfc::topology::{Mesh, NodeId};
use frfc::traffic::{
    BitComplement, Hotspot, InjectionKind, LoadSpec, Tornado, TrafficGenerator, TrafficPattern,
    Transpose, Uniform,
};
use frfc::vc::{CreditMode, VcConfig, VcRouter};

const HELP: &str = "frfc-sim — one flit-level simulation run (Peh & Dally, HPCA 2000)

USAGE:
    frfc-sim [OPTIONS]

OPTIONS:
    --flow <CFG>        fr6 | fr13 | vc8 | vc16 | vc32 | wormhole:<bufs>
                        | vc8-shared            [default: fr6]
    --load <F>          offered load as a fraction of capacity, (0, 1.5]
                        [default: 0.5]
    --length <N>        packet length in flits  [default: 5]
    --mesh <WxH>        mesh dimensions         [default: 8x8]
    --timing <T>        fast | lead:<N>         [default: fast]
    --horizon <N>       FR scheduling horizon   [default: 32]
    --pattern <P>       uniform | transpose | tornado | bitcomp
                        | hotspot:<frac>        [default: uniform]
    --injection <I>     constant | bernoulli | onoff:<peak>,<mean_on>
                        [default: constant]
    --error-rate <F>    control-wire corruption probability [default: 0]
    --sync-margin <N>   plesiochronous buffer-release margin [default: 0]
    --scale <S>         tiny | quick | paper    [default: quick]
    --seed <N>          root seed               [default: 2000]
    --telemetry-out <P> write a windowed-telemetry JSON sidecar to <P>
                        (plus <P minus .json>.profile.json with the
                        runtime profile and Chrome trace)
    --window-log2 <N>   telemetry window = 2^N cycles [default: 9]
    --flight-ring <N>   blackbox mode: arm a 2^N-event flight recorder
    --watchdog <N>      blackbox mode: progress-watchdog threshold in
                        cycles (fires on no-delivery-progress)
    --dump-state-out <P> blackbox mode: write the crash/state sidecar
                        (ring + full state dump + manifest) to <P>
    -h, --help          print this help

Any of the last three flags switches to blackbox mode: a fixed
inject-then-drain schedule with the flight recorder and watchdog armed,
capturing a replayable crash sidecar on watchdog trip, panic or drain
failure (inspect it with frfc-inspect). Blackbox mode supports
--flow vc8|vc32|fr6|fr13 on the uniform pattern.
";

#[derive(Debug)]
struct Args {
    flow: String,
    load: f64,
    length: u32,
    mesh: (u16, u16),
    timing: LinkTiming,
    horizon: u64,
    pattern: String,
    injection: InjectionKind,
    error_rate: f64,
    sync_margin: u64,
    scale: String,
    seed: u64,
    telemetry_out: Option<std::path::PathBuf>,
    window_log2: u32,
    flight_ring: Option<u32>,
    watchdog: Option<u64>,
    dump_state_out: Option<std::path::PathBuf>,
}

impl Args {
    /// Any blackbox knob switches the driver into blackbox mode.
    fn blackbox_mode(&self) -> bool {
        self.flight_ring.is_some() || self.watchdog.is_some() || self.dump_state_out.is_some()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        flow: "fr6".into(),
        load: 0.5,
        length: 5,
        mesh: (8, 8),
        timing: LinkTiming::fast_control(),
        horizon: 32,
        pattern: "uniform".into(),
        injection: InjectionKind::ConstantRate,
        error_rate: 0.0,
        sync_margin: 0,
        scale: "quick".into(),
        seed: 2000,
        telemetry_out: None,
        window_log2: 9,
        flight_ring: None,
        watchdog: None,
        dump_state_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "-h" || flag == "--help" {
            print!("{HELP}");
            std::process::exit(0);
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--flow" => args.flow = value.clone(),
            "--load" => {
                args.load = value.parse().map_err(|_| format!("bad load {value}"))?;
                if args.load <= 0.0 || args.load > 1.5 {
                    return Err("load must be in (0, 1.5]".into());
                }
            }
            "--length" => args.length = value.parse().map_err(|_| format!("bad length {value}"))?,
            "--mesh" => {
                let (w, h) = value
                    .split_once('x')
                    .ok_or_else(|| format!("mesh must look like 8x8, got {value}"))?;
                args.mesh = (
                    w.parse().map_err(|_| format!("bad width {w}"))?,
                    h.parse().map_err(|_| format!("bad height {h}"))?,
                );
            }
            "--timing" => {
                args.timing = if value == "fast" {
                    LinkTiming::fast_control()
                } else if let Some(lead) = value.strip_prefix("lead:") {
                    LinkTiming::leading_control(
                        lead.parse().map_err(|_| format!("bad lead {lead}"))?,
                    )
                } else {
                    return Err(format!("timing must be fast or lead:<N>, got {value}"));
                };
            }
            "--horizon" => {
                args.horizon = value.parse().map_err(|_| format!("bad horizon {value}"))?
            }
            "--pattern" => args.pattern = value.clone(),
            "--injection" => {
                args.injection = if value == "constant" {
                    InjectionKind::ConstantRate
                } else if value == "bernoulli" {
                    InjectionKind::Bernoulli
                } else if let Some(spec) = value.strip_prefix("onoff:") {
                    let (peak, on) = spec
                        .split_once(',')
                        .ok_or_else(|| format!("onoff needs <peak>,<mean_on>, got {spec}"))?;
                    InjectionKind::OnOff {
                        peak_rate: peak.parse().map_err(|_| format!("bad peak {peak}"))?,
                        mean_on: on.parse().map_err(|_| format!("bad mean_on {on}"))?,
                    }
                } else {
                    return Err(format!("unknown injection {value}"));
                };
            }
            "--error-rate" => {
                args.error_rate = value
                    .parse()
                    .map_err(|_| format!("bad error rate {value}"))?
            }
            "--sync-margin" => {
                args.sync_margin = value.parse().map_err(|_| format!("bad margin {value}"))?
            }
            "--scale" => args.scale = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--telemetry-out" => args.telemetry_out = Some(value.into()),
            "--window-log2" => {
                args.window_log2 = value
                    .parse()
                    .map_err(|_| format!("bad window log2 {value}"))?;
                if args.window_log2 >= 32 {
                    return Err("window log2 must be below 32".into());
                }
            }
            "--flight-ring" => {
                let log2: u32 = value
                    .parse()
                    .map_err(|_| format!("bad ring log2 {value}"))?;
                if log2 >= 24 {
                    return Err("flight ring log2 must be below 24".into());
                }
                args.flight_ring = Some(log2);
            }
            "--watchdog" => {
                let cycles: u64 = value
                    .parse()
                    .map_err(|_| format!("bad watchdog threshold {value}"))?;
                if cycles == 0 {
                    return Err("watchdog threshold must be positive".into());
                }
                args.watchdog = Some(cycles);
            }
            "--dump-state-out" => args.dump_state_out = Some(value.into()),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
        i += 2;
    }
    Ok(args)
}

fn make_pattern(name: &str, mesh: Mesh) -> Result<Box<dyn TrafficPattern>, String> {
    Ok(match name {
        "uniform" => Box::new(Uniform),
        "transpose" => Box::new(Transpose),
        "tornado" => Box::new(Tornado),
        "bitcomp" => Box::new(BitComplement),
        other => {
            if let Some(frac) = other.strip_prefix("hotspot:") {
                let f: f64 = frac.parse().map_err(|_| format!("bad fraction {frac}"))?;
                let centre = mesh.node_at(mesh.width() / 2, mesh.height() / 2);
                Box::new(Hotspot::new(centre, f))
            } else {
                return Err(format!("unknown pattern {other}"));
            }
        }
    })
}

fn sim_for_scale(scale: &str) -> Result<SimConfig, String> {
    Ok(match scale {
        "quick" => SimConfig::quick(),
        "paper" => SimConfig::paper_scale(),
        "tiny" => {
            let mut s = SimConfig::quick();
            s.sample_packets = 800;
            s.warmup.min_cycles = 1_000;
            s
        }
        other => return Err(format!("unknown scale {other}")),
    })
}

/// `foo.json` → `foo<suffix>` (e.g. `foo.profile.json`), next to the
/// telemetry sidecar.
fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let stem = path.with_extension("");
    std::path::PathBuf::from(format!("{}{suffix}", stem.display()))
}

/// Runs one telemetry-armed simulation and writes the sidecars: the
/// metrics export (aggregates, series and windowed telemetry) to
/// `--telemetry-out`, plus the runtime profile and its Chrome trace next
/// to it.
fn simulate_telemetry<R: Router + Send>(
    mut net: Network<R, NullSink, MetricsRegistry>,
    sim: &SimConfig,
    args: &Args,
    label: &str,
) -> Result<(RunResult, u64), String> {
    if args.error_rate > 0.0 {
        net.set_control_error_rate(args.error_rate, args.seed ^ 0xE44);
    }
    net.set_telemetry_windows(args.window_log2);
    net.set_profiling(true);
    let wall = std::time::Instant::now();
    let r = run_simulation(&mut net, sim);
    let retries = net.control_retries();
    let profile: EngineProfile = net.engine_profile();
    let registry = std::mem::take(net.metrics_mut());
    let out = args.telemetry_out.as_ref().expect("telemetry path set");
    let mut manifest = RunManifest::new("frfc-sim", args.seed, args.scale.clone(), label);
    manifest.wall_ms = wall.elapsed().as_millis() as u64;
    let write = |path: &std::path::Path, doc: &frfc::metrics::Json| {
        write_json_file(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(out, &registry.to_json(&manifest))?;
    let profile_path = sibling(out, ".profile.json");
    write(&profile_path, &profile.to_json())?;
    let trace_path = sibling(out, ".trace.json");
    write(&trace_path, &profile.chrome_trace())?;
    eprintln!(
        "telemetry : {} (+ {} / {})",
        out.display(),
        profile_path.display(),
        trace_path.display()
    );
    Ok((r, retries))
}

/// Blackbox mode: a fixed inject-then-drain schedule with the flight
/// recorder and progress watchdog armed. Any abnormal ending (watchdog,
/// panic, exhausted drain) captures a crash sidecar; with
/// `--dump-state-out` a clean run also writes an unconditional state
/// capture at its final cycle, which is the checkpoint write path.
fn run_blackbox_mode(args: &Args) -> Result<(), String> {
    use frfc::network::blackbox::{capture_at_cycle, run_blackbox, Recording, Trigger};
    use frfc::network::{FlowControl, Scenario};
    let config = match args.flow.as_str() {
        "vc8" => "VC8",
        "vc32" => "VC32",
        "fr6" => "FR6",
        "fr13" => "FR13",
        other => {
            return Err(format!(
                "blackbox mode supports vc8|vc32|fr6|fr13, got {other}"
            ))
        }
    };
    if args.pattern != "uniform" {
        return Err("blackbox mode supports only the uniform pattern".into());
    }
    let inject_cycles = match args.scale.as_str() {
        "tiny" => 500,
        "quick" => 2_000,
        "paper" => 10_000,
        other => return Err(format!("unknown scale {other}")),
    };
    let scenario = Scenario {
        watchdog: Some(args.watchdog.unwrap_or(2_000)),
        ..Scenario::new(
            FlowControl::from_label(config).expect("a paper preset"),
            Mesh::new(args.mesh.0, args.mesh.1),
            LoadSpec::fraction_of_capacity(args.load, args.length),
            args.seed,
        )
    };
    let recording = Recording {
        inject_cycles,
        drain_cap: 20 * inject_cycles,
        ring_log2: args.flight_ring.unwrap_or(10),
    };
    let run = run_blackbox(&scenario, &recording)?;
    println!(
        "{config} blackbox on {}x{} mesh | {:.0}% load | seed {} | ring 2^{} | watchdog {}",
        args.mesh.0,
        args.mesh.1,
        args.load * 100.0,
        args.seed,
        recording.ring_log2,
        scenario.watchdog.expect("armed above"),
    );
    println!(
        "outcome   : {} after {} cycles ({} flits delivered) — {}",
        run.trigger.label(),
        run.cycles,
        run.delivered_flits,
        run.detail
    );
    let sidecar = match run.sidecar {
        Some(doc) => Some(doc),
        None => match &args.dump_state_out {
            // Clean run: only capture when the caller asked for a dump.
            Some(_) => Some(capture_at_cycle(&scenario, &recording, run.cycles)?),
            None => None,
        },
    };
    if let Some(doc) = sidecar {
        let default_path = std::path::PathBuf::from(format!(
            "results/state/frfc-sim-{}-{}.json",
            config.to_lowercase(),
            args.seed
        ));
        let path = args.dump_state_out.clone().unwrap_or(default_path);
        write_json_file(&path, &doc)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let digest = doc
            .get("state_digest")
            .and_then(frfc::metrics::Json::as_str)
            .unwrap_or("?");
        println!("sidecar   : {} (state digest {digest})", path.display());
        println!("inspect   : frfc-inspect show {}", path.display());
    }
    if run.trigger != Trigger::Completed {
        std::process::exit(1);
    }
    Ok(())
}

/// Builds the network from `make_router` and runs it: telemetry-armed
/// with `--telemetry-out`, plain otherwise, with `--error-rate` applied.
fn simulate<R: Router + Send>(
    args: &Args,
    label: String,
    (timing, control_lanes): (LinkTiming, u32),
    make_router: impl FnMut(NodeId) -> R,
) -> Result<(String, RunResult, u64), String> {
    let mesh = Mesh::new(args.mesh.0, args.mesh.1);
    let sim = sim_for_scale(&args.scale)?;
    let load = LoadSpec::fraction_of_capacity(args.load, args.length);
    let pattern = make_pattern(&args.pattern, mesh)?;
    let traffic_rng = Rng::from_seed(args.seed).fork(1);
    let generator = TrafficGenerator::new(mesh, load, pattern, args.injection, traffic_rng);
    if args.telemetry_out.is_some() {
        let net = Network::with_instruments(
            mesh,
            timing,
            control_lanes,
            generator,
            make_router,
            NullSink,
            MetricsRegistry::new(),
        );
        let (r, retries) = simulate_telemetry(net, &sim, args, &label)?;
        return Ok((label, r, retries));
    }
    let mut net = Network::new(mesh, timing, control_lanes, generator, make_router);
    if args.error_rate > 0.0 {
        net.set_control_error_rate(args.error_rate, args.seed ^ 0xE44);
    }
    let r = run_simulation(&mut net, &sim);
    Ok((label, r, net.control_retries()))
}

fn run(args: &Args) -> Result<(String, RunResult, u64), String> {
    let mesh = Mesh::new(args.mesh.0, args.mesh.1);
    let root = Rng::from_seed(args.seed);
    let rng = |n: NodeId| root.fork(n.raw() as u64);
    let vc = |cfg: VcConfig| {
        let label = format!("VC{}", cfg.buffers_per_input());
        simulate(args, label, (args.timing, 2), |n| {
            VcRouter::new(mesh, n, cfg, rng(n))
        })
    };
    match args.flow.as_str() {
        "vc8" => vc(VcConfig::vc8()),
        "vc16" => vc(VcConfig::vc16()),
        "vc32" => vc(VcConfig::vc32()),
        "vc8-shared" => vc(VcConfig::vc8().with_shared_pool()),
        flow => {
            if let Some(bufs) = flow.strip_prefix("wormhole:") {
                let b: usize = bufs
                    .parse()
                    .map_err(|_| format!("bad buffer count {bufs}"))?;
                return vc(VcConfig::new(1, b, CreditMode::PerVc));
            }
            let base = match flow {
                "fr6" => FrConfig::fr6(),
                "fr13" => FrConfig::fr13(),
                other => return Err(format!("unknown flow control {other}")),
            };
            let cfg = base
                .with_timing(args.timing)
                .with_horizon(args.horizon)
                .with_sync_margin(args.sync_margin);
            let label = format!("FR{}", cfg.data_buffers);
            simulate(args, label, (cfg.timing, cfg.control_lanes), |n| {
                FrRouter::new(mesh, n, cfg, rng(n))
            })
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    };
    if args.blackbox_mode() {
        if let Err(e) = run_blackbox_mode(&args) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let (label, r, retries) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{label} on {}x{} mesh | {} pattern | {:.0}% load | {}-flit packets | seed {}",
        args.mesh.0,
        args.mesh.1,
        args.pattern,
        args.load * 100.0,
        args.length,
        args.seed
    );
    if r.completed {
        println!(
            "latency   : {:.1} ± {:.1} cycles (p50 {}, p95 {}, p99 {})",
            r.mean_latency(),
            r.latency.ci95_half_width(),
            r.p50_latency.map_or("-".into(), |v| v.to_string()),
            r.p95_latency.map_or("-".into(), |v| v.to_string()),
            r.p99_latency.map_or("-".into(), |v| v.to_string()),
        );
    } else {
        println!(
            "latency   : SATURATED ({} of {} sample packets delivered)",
            r.delivered,
            r.delivered + 1 // at least one outstanding
        );
    }
    println!(
        "throughput: {:.1}% of capacity accepted ({:.4} flits/node/cycle)",
        r.accepted_fraction * 100.0,
        r.accepted_flits_per_node_cycle
    );
    println!(
        "probe     : centre pool full {:.1}% of cycles, mean occupancy {:.1}%",
        r.probe_full_fraction * 100.0,
        r.probe_mean_occupancy * 100.0
    );
    if retries > 0 {
        println!("errors    : {retries} control flits retransmitted");
    }
    println!(
        "window    : warm-up ended at cycle {}, run ended at cycle {}",
        r.measure_start, r.end_cycle
    );
}
