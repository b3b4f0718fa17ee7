//! adm2d benchmark: four fixed, seeded workloads measured from outside
//! the program.
//!
//! ```text
//! perfbench --workload <naca-fig11|highlift-bl|plate-pslg|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics (see README.md). The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every output is checked by [`check`] before it counts. An operation
//! that errs, panics or returns an output that fails a check counts as
//! failed, and the process then exits non-zero.
//!
//! `setup_s` is measured in [`SETUP_PROBES`] fresh processes of this
//! binary, started with `--setup-probe`: each builds the workload's
//! input (and on serve-mix starts the server) and prints the seconds
//! from its own start until its first job is ready.

mod alloc;
mod check;
mod exact;
mod mesh;
mod serve;
mod util;

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    /// Operations that returned an error or panicked instead of giving
    /// an output.
    pub failed: u64,
    /// Outputs that the checker rejected.
    pub incorrect: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Process start, the origin of a set-up probe's measurement.
    pub t_start: Instant,
}

/// Set-up probes per untraced run; `setup_s` is their median.
const SETUP_PROBES: usize = 5;

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tri_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A workload that does not
/// run a layer reports it as 0 (README.md lists which rows each workload
/// fills).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("blayer.build_s", "s"),
    ("blayer.points", "count"),
    ("partition.bl_mesh_s", "s"),
    ("partition.leaves", "count"),
    ("decouple.split_s", "s"),
    ("decouple.regions", "count"),
    ("delaunay.refine_s", "s"),
    ("delaunay.refine.circumcenters", "count"),
    ("delaunay.refine.segment_splits", "count"),
    ("delaunay.refine.allocs", "count"),
    ("inviscid.interface_repair_s", "s"),
    ("merge.tree_s", "s"),
    ("merge.finish_s", "s"),
    ("merge.conformity_s", "s"),
    ("merge.finish.allocs", "count"),
    ("merge.root_serial_s", "s"),
    ("mpirt.parallel_mesh_s", "s"),
    ("mpirt.rank_busy_s", "s"),
    ("mpirt.rank_wait_s", "s"),
    ("mpirt.lb.requests", "count"),
    ("pslg.validate_s", "s"),
    ("pslg.components", "count"),
    ("shard.write_s", "s"),
    ("shard.bytes", "bytes"),
    ("shard.verify_s", "s"),
    ("shard.reconstruct_s", "s"),
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.hit.allocs", "count"),
    ("serve.mesh_job_ms", "ms"),
    ("serve.response_encode_ms", "ms"),
    ("serve.mesh_jobs", "count"),
    ("serve.hits_mem", "count"),
    ("serve.hits_disk", "count"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.mem_hit_p50_us", "us"),
    ("serve.mem_hit_p99_us", "us"),
    ("serve.disk_hit_p50_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "share"),
];

fn usage() -> String {
    "usage: perfbench --workload <naca-fig11|highlift-bl|plate-pslg|serve-mix> \
     --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

/// Parsed command line: the workload, the options, and whether this
/// process is a set-up probe.
fn parse_args() -> Result<(String, Opts, bool), String> {
    let t_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        argv.get(i + 1)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let probe = argv.iter().any(|a| a == "--setup-probe");
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
            t_start,
        },
        probe,
    ))
}

/// Seconds from this process's start until its first job is ready.
fn set_up(workload: &str, opts: &Opts) -> Result<f64, String> {
    match workload {
        "naca-fig11" | "highlift-bl" | "plate-pslg" => mesh::set_up(workload, opts),
        "serve-mix" => serve::set_up(opts),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    }
}

/// Median set-up time over [`SETUP_PROBES`] fresh processes of this
/// binary, run one after another before the measured window.
fn probe_setup(workload: &str, opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = opts.seed.to_string();
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROBES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed])
            .args(["--seconds", "1", "--trace", "0", "--setup-probe"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("set-up probe exited with {}", out.status));
        }
        samples.push(
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))?,
        );
    }
    Ok(util::median(&samples))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips,
        // so every measured digit survives.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, opts, probe) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if probe {
        return match set_up(&workload, &opts) {
            Ok(s) => {
                println!("{s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let setup = if opts.trace {
        None
    } else {
        match probe_setup(&workload, &opts) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let result = match workload.as_str() {
        "naca-fig11" | "highlift-bl" | "plate-pslg" => mesh::run(&workload, &opts),
        "serve-mix" => serve::run(&opts),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(s) = setup {
        report.metrics.push(("setup_s", s, "s"));
    }
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::new();
    for &(name, unit) in expected {
        let found = report.metrics.iter().find(|m| m.0 == name);
        if let Some(m) = found {
            assert_eq!(m.2, unit, "unit of {name}");
        } else if !opts.trace {
            eprintln!("error: {workload} did not measure {name}");
            return ExitCode::from(1);
        }
        let value = found.map(|m| m.1).unwrap_or(0.0);
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
        eprintln!("{workload:>12} {name:<32} {value:>16.6} {unit}");
    }
    let correct = report.incorrect == 0 && report.attempted > 0;
    // An output that fails a check is a failed operation too.
    let failed = report.failed + report.incorrect;
    eprintln!(
        "{workload:>12} attempted {} failed {failed} ({} errors, {} rejected outputs)",
        report.attempted, report.failed, report.incorrect
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.attempted,
        body.join(", ")
    );
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and this binary list the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').unwrap()].to_string();
                    let u = entry.find("\"unit\": \"").expect("unit") + 9;
                    let unit = entry[u..u + entry[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }
}
