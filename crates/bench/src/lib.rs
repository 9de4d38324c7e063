//! # noc-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper. Each `[[bin]]` target prints the same rows/series the paper
//! reports; `cargo run -p noc-bench --release --bin fig5` etc.
//!
//! All simulation harnesses honour two environment variables:
//!
//! * `FRFC_SCALE` — `tiny` (seconds, CI), `quick` (default, ~minutes) or
//!   `paper` (the paper's 10k-cycle warm-up / 100k-packet samples; hours
//!   on one core);
//! * `FRFC_SEED` — root seed (default 2000, the publication year).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

use noc_engine::warmup::WarmupConfig;
use noc_network::{run, Curve, Instrument, Scenario, SimConfig};

/// Measurement scale selected by `FRFC_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Hundreds of packets; shapes only. Seconds per figure.
    Tiny,
    /// Thousands of packets; good curves. Default.
    Quick,
    /// The paper's methodology (10k-cycle warm-up, 100k packets).
    Paper,
}

impl Scale {
    /// Reads `FRFC_SCALE` (default `quick`).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value.
    pub fn from_env() -> Scale {
        match std::env::var("FRFC_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("paper") => Scale::Paper,
            Ok("quick") | Err(_) => Scale::Quick,
            Ok(other) => panic!("FRFC_SCALE must be tiny|quick|paper, got {other}"),
        }
    }

    /// The scale's name as spelled in `FRFC_SCALE` and run manifests.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// The corresponding measurement configuration.
    pub fn sim(self) -> SimConfig {
        match self {
            Scale::Tiny => SimConfig {
                warmup: WarmupConfig {
                    min_cycles: 1_000,
                    max_cycles: 6_000,
                    window: 8,
                    tolerance: 0.08,
                },
                sample_packets: 800,
                drain_cap: 20_000,
                warmup_probe_period: 32,
            },
            Scale::Quick => SimConfig::quick(),
            Scale::Paper => SimConfig::paper_scale(),
        }
    }
}

/// Reads the root seed from `FRFC_SEED` (default 2000).
pub fn seed_from_env() -> u64 {
    std::env::var("FRFC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000)
}

/// Packet sampling divisor of traced runs: `FRFC_PROV_SAMPLE` (default
/// 4; 1 traces every packet).
pub fn prov_sample() -> u64 {
    std::env::var("FRFC_PROV_SAMPLE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// The `--trace-out <path>` argument of a figure bin, if given; any other
/// command line prints `bin`'s usage and exits with status 2.
pub fn trace_out_arg(bin: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace-out" => Some(path.clone()),
        _ => {
            eprintln!("usage: {bin} [--trace-out <path>]");
            std::process::exit(2)
        }
    }
}

/// Traces `scenario` (sampling per [`prov_sample`]) and writes its
/// Chrome-trace / Perfetto file to `path`, exiting with status 2 when the
/// file cannot be written. `label` names the run in the message.
pub fn write_provenance_trace(scenario: &Scenario, sim: &SimConfig, label: &str, path: &str) {
    let traced = Instrument::Traced {
        sample_every: prov_sample(),
    };
    let report = run(scenario, sim, traced)
        .expect("sequential traced runs cannot fail")
        .provenance
        .expect("traced runs report provenance");
    let doc = noc_provenance::chrome_trace(&report, scenario.mesh.width());
    match noc_metrics::write_json_file(std::path::Path::new(path), &doc) {
        Ok(()) => println!(
            "wrote {path}: {label} @ {:.0}% load, {} flit spans (open in ui.perfetto.dev)",
            scenario.load.fraction() * 100.0,
            report.records.len()
        ),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Worker threads the experiment bins fan their load sweeps across:
/// `FRFC_THREADS` when set (clamped to at least 1), otherwise the
/// machine's available parallelism capped at 4. Every sweep point is an
/// isolated simulation with its own forked seed, so results are
/// independent of this count; bins record the value actually used in
/// their `RunManifest` so wall-clock comparisons stay attributable.
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("FRFC_THREADS") {
        return v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("FRFC_THREADS must be a positive integer, got {v}"))
            .max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

/// Default offered-load sweep (fractions of capacity) used by the
/// latency-throughput figures.
pub fn default_loads() -> Vec<f64> {
    vec![
        0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9,
    ]
}

/// Formats an optional cycle quantile as a fixed-width cell.
fn quantile_cell(q: Option<u64>) -> String {
    q.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Prints one curve in the fixed-width format shared by all figures,
/// including the tail-latency percentiles of the sample.
pub fn print_curve(curve: &Curve) {
    println!("\n{}", curve.label);
    println!(
        "{:>10} {:>12} {:>10} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "offered", "latency", "ci95", "p50", "p95", "p99", "accepted", "status"
    );
    for p in &curve.points {
        let status = if p.result.completed {
            "ok"
        } else {
            "saturated"
        };
        let lat = if p.result.completed {
            format!("{:.1}", p.result.mean_latency())
        } else {
            "-".to_string()
        };
        println!(
            "{:>9.0}% {:>12} {:>10.2} {:>6} {:>6} {:>6} {:>9.1}% {:>10}",
            p.offered * 100.0,
            lat,
            p.result.latency.ci95_half_width(),
            quantile_cell(p.result.p50_latency),
            quantile_cell(p.result.p95_latency),
            quantile_cell(p.result.p99_latency),
            p.result.accepted_fraction * 100.0,
            status
        );
    }
}

/// Prints a one-line per-curve summary: base latency, saturation
/// throughput under a `3 × base` latency knee criterion, and the tail
/// latencies (p50/p95/p99) at the highest completed load.
pub fn print_summary(curves: &[Curve]) {
    println!(
        "\n{:>8} {:>14} {:>22} {:>20}",
        "config", "base latency", "saturation throughput", "tail p50/p95/p99"
    );
    for c in curves {
        let base = c.base_latency();
        let sat = c.saturation_throughput(base * 3.0);
        let tail = c
            .points
            .iter()
            .filter(|p| p.result.completed)
            .max_by(|a, b| a.offered.total_cmp(&b.offered))
            .map_or_else(
                || "-".to_string(),
                |p| {
                    format!(
                        "{}/{}/{}",
                        quantile_cell(p.result.p50_latency),
                        quantile_cell(p.result.p95_latency),
                        quantile_cell(p.result.p99_latency)
                    )
                },
            );
        println!(
            "{:>8} {:>13.1}c {:>21.0}% {:>20}",
            c.label,
            base,
            sat * 100.0,
            tail
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sims_are_ordered() {
        let tiny = Scale::Tiny.sim();
        let quick = Scale::Quick.sim();
        let paper = Scale::Paper.sim();
        assert!(tiny.sample_packets < quick.sample_packets);
        assert!(quick.sample_packets < paper.sample_packets);
        assert_eq!(paper.sample_packets, 100_000);
        assert_eq!(paper.warmup.min_cycles, 10_000);
    }

    #[test]
    fn default_loads_cover_both_saturation_points() {
        let loads = default_loads();
        assert!(loads.iter().any(|&l| (l - 0.6).abs() < 0.06));
        assert!(loads.iter().any(|&l| l > 0.8));
        assert!(loads.windows(2).all(|w| w[0] < w[1]));
    }
}
