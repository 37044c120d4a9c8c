//! The repository benchmark: four workloads against the production code
//! paths, with output checks, end-to-end metrics (tracing off) and a traced
//! run that gives per-layer metrics. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any output check failed.

mod node;
mod replay;
mod stats;

use std::process::ExitCode;

use replay::{Policy, Replay};

/// The seed the pinned decision digests were recorded with.
pub const DEFAULT_SEED: u64 = 2018;
/// A seed held out from tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 4099;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Every end-to-end metric and its unit, printed on every workload with
/// `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("pass_p50_us", "us"),
    ("pass_p99_us", "us"),
    ("reconfig_p50_us", "us"),
    ("reconfig_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric and its unit, printed on every workload with
/// `--trace 1`. A layer the workload does not touch reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("slurm.policy.busy_share", "share"),
    ("slurm.policy.passes", "count"),
    ("slurm.policy.queue_seen_mean", "jobs"),
    ("slurm.policy.running_seen_mean", "jobs"),
    ("slurm.policy.actions", "count"),
    ("slurm.policy.acting_pass_ratio", "share"),
    ("slurm.policy.idle_pass_p50_us", "us"),
    ("slurm.policy.acting_pass_p50_us", "us"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.engine.stale_ratio", "share"),
    ("slurm.controller.started", "count"),
    ("slurm.controller.shrinks", "count"),
    ("slurm.controller.expands", "count"),
    ("slurm.controller.resize_races", "count"),
    ("sim.trace.generate_s", "s"),
    ("slurm.launcher.launch_p50_us", "us"),
    ("slurm.launcher.complete_p50_us", "us"),
    ("core.poll_update_p50_us", "us"),
    ("ompsim.drom_tool.apply_p50_us", "us"),
    ("core.init_p50_us", "us"),
    ("core.finalize_p50_us", "us"),
    ("core.poll_noop_p50_ns", "ns"),
    ("core.poll_noop_p99_ns", "ns"),
    ("ompsim.drom_tool.polls", "count"),
    ("ompsim.drom_tool.mask_changes", "count"),
    ("shmem.polls", "count"),
    ("shmem.poll_updates", "count"),
    ("shmem.mask_sets", "count"),
    ("shmem.steals", "count"),
    ("shmem.preregisters", "count"),
    ("region_p50_us", "us"),
    ("tracing.events_per_s_overhead", "share"),
    ("tracing.reconfig_p50_overhead", "share"),
];

/// The workloads, by the names the command line and later claims use.
/// `churn-10k-malleable` is not listed in `BENCHMARK.json`: its wall-clock
/// spread on the shared host exceeds the bound a listed workload must meet,
/// so it serves paired comparisons and work counts only (see `README.md`).
const WORKLOADS: &[&str] = &[
    "churn-10k-malleable",
    "churn-10k-backfill",
    "churn-10k-firstfit",
    "node-reconfig",
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: stats::Values,
    /// Human-readable detail printed before the result.
    pub lines: Vec<String>,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("invalid --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let replay = |policy, jobs| Replay {
        policy,
        jobs,
        nodes: replay::NODES,
    };
    match args.workload.as_str() {
        "churn-10k-malleable" => replay::run(
            replay(Policy::Malleable, 3_000),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "churn-10k-backfill" => replay::run(
            replay(Policy::Backfill, 15_000),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "churn-10k-firstfit" => replay::run(
            replay(Policy::FirstFit, 30_000),
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => node::run(args.seed, args.seconds, args.trace, node::CYCLES_PER_ROUND),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.values.insert("peak_rss_mb", stats::peak_rss_mb());

    println!(
        "perfbench: workload {} seed {} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) \
         seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.lines {
        println!("perfbench: {line}");
    }
    for e in &out.errors {
        println!("perfbench: CHECK FAILED: {e}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("perfbench: {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    let correct = out.failed == 0 && out.errors.is_empty();
    println!(
        "perfbench: failed {} of {} attempted ({:.4}%)",
        out.failed,
        out.attempted,
        100.0 * out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer values that are work counts, not times: they must
    /// repeat exactly for one seed.
    fn counts(out: &Outcome) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(name, unit)| {
                matches!(*unit, "count" | "jobs")
                    || (name.ends_with("_ratio") && !name.starts_with("tracing."))
            })
            .map(|(name, _)| (*name, out.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }

    fn small_replay(seed: u64) -> Outcome {
        let spec = Replay {
            policy: Policy::Malleable,
            jobs: 300,
            nodes: 64,
        };
        replay::run(spec, seed, 0.01, true).expect("small replay runs")
    }

    #[test]
    fn same_seed_replays_give_identical_counts() {
        let (a, b) = (small_replay(11), small_replay(11));
        assert!(a.errors.is_empty() && a.failed == 0, "{:?}", a.errors);
        assert!(a.values["slurm.policy.passes"] > 0.0);
        assert!(a.values["slurm.controller.shrinks"] > 0.0);
        assert_eq!(counts(&a), counts(&b));
        assert_ne!(counts(&a), counts(&small_replay(12)));
    }

    #[test]
    fn same_seed_node_rounds_give_identical_counts() {
        let run = || node::run(11, 0.01, true, 20).expect("node rounds run");
        let (a, b) = (run(), run());
        assert!(a.errors.is_empty() && a.failed == 0, "{:?}", a.errors);
        assert_eq!(a.values["ompsim.drom_tool.mask_changes"], 40.0);
        assert_eq!(a.values["shmem.steals"], 40.0);
        assert_eq!(counts(&a), counts(&b));
    }

    #[test]
    fn benchmark_json_lists_runnable_workloads_and_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads = &json[json.find("\"workloads\"").unwrap()..];
        let workloads = &workloads[..workloads.find(']').unwrap()];
        let names: Vec<&str> = workloads
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert!(names.len() >= 2);
        for name in names {
            assert!(WORKLOADS.contains(&name), "{name}");
        }
        let listed = |name: &str| json.matches(&format!("\"name\": \"{name}\"")).count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(listed(name), 1, "{name}");
            let at = json.find(&format!("\"name\": \"{name}\"")).unwrap();
            assert!(
                json[at..].contains(&format!("\"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let metrics = json.matches("\"better\"").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
    }
}
