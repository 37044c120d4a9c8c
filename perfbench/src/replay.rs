//! The three 10k-node policy replays: `queue_churn_trace` on
//! `ClusterSim::new(10_000, 16)` under one production policy each.
//!
//! Every `schedule` call is timed from outside the program by
//! [`TimedPolicy`], a `SchedulerPolicy` that forwards to the production
//! policy. That one clock pair per pass gives the pass latency and the
//! event cycle; the traced run also records what each pass saw and emitted.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use drom_sim::{queue_churn_trace, ClusterRunReport, ClusterSim, TraceJob};
use drom_slurm::policy::{ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy};
use drom_slurm::{BackfillPolicy, FirstFitPolicy, MalleablePolicy};

use crate::stats::{median, ns, percentile, run_for, Fnv, Units, Values};
use crate::{Outcome, DEFAULT_SEED, HELD_OUT_SEED, SETUP_REPS};

/// Cluster shape and offered load shared by every replay, so the replays
/// differ only in the policy (and so in which layer does the work).
pub const NODES: usize = 10_000;
pub const NODE_CPUS: usize = 16;
pub const LOAD: f64 = 1.3;

/// The production policy a replay runs (always `::default()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Malleable,
    Backfill,
    FirstFit,
}

impl Policy {
    fn build(self) -> Box<dyn SchedulerPolicy> {
        match self {
            Policy::Malleable => Box::new(MalleablePolicy::default()),
            Policy::Backfill => Box::new(BackfillPolicy::default()),
            Policy::FirstFit => Box::new(FirstFitPolicy::default()),
        }
    }
}

/// One replay workload: its policy and trace length.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub policy: Policy,
    pub jobs: usize,
    pub nodes: usize,
}

/// Decision digests pinned for the workloads' traces at the default and the
/// held-out seed, keyed by (policy, jobs, seed): a change that alters any
/// decision of the production policies fails the run.
const PINNED: &[(Policy, usize, u64, u64)] = &[
    (
        Policy::Malleable,
        3_000,
        DEFAULT_SEED,
        0xfc13_c7c2_b4e2_17dd,
    ),
    (
        Policy::Malleable,
        3_000,
        HELD_OUT_SEED,
        0x7e14_0b92_b9bc_4c41,
    ),
    (
        Policy::Backfill,
        15_000,
        DEFAULT_SEED,
        0x039a_0c90_06d7_2da4,
    ),
    (
        Policy::Backfill,
        15_000,
        HELD_OUT_SEED,
        0xe5f7_3140_3727_c57b,
    ),
    (
        Policy::FirstFit,
        30_000,
        DEFAULT_SEED,
        0x1f91_49c0_a539_3aa5,
    ),
    (
        Policy::FirstFit,
        30_000,
        HELD_OUT_SEED,
        0x1cb4_6dff_9e4d_70ed,
    ),
];

/// What one pass saw and did (traced runs only).
#[derive(Default)]
struct LayerLog {
    queue_seen: u64,
    running_seen: u64,
    actions: u64,
    acting_passes: u64,
    idle_ns: Vec<u64>,
    acting_ns: Vec<u64>,
}

/// Per-pass timings of one replay.
#[derive(Default)]
struct PassLog {
    /// Duration of every `schedule` call.
    pass_ns: Vec<u64>,
    /// End of one pass to the end of the next: applying the previous
    /// actions, the engine's event handling, index maintenance and the pass.
    cycle_ns: Vec<u64>,
    layer: Option<LayerLog>,
}

/// Forwards to a production policy and times every pass. The log moves to
/// `sink` when the engine drops the policy at the end of the replay.
struct TimedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    log: PassLog,
    last_end: Option<Instant>,
    sink: Arc<Mutex<Option<PassLog>>>,
}

impl SchedulerPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: u64,
    ) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = self.inner.schedule(view, queue, now_us);
        let end = Instant::now();
        let pass = ns(end - start);
        self.log.pass_ns.push(pass);
        if let Some(prev) = self.last_end {
            self.log.cycle_ns.push(ns(end - prev));
        }
        self.last_end = Some(end);
        if let Some(layer) = &mut self.log.layer {
            layer.queue_seen += queue.len() as u64;
            layer.running_seen += view.running.len() as u64;
            layer.actions += actions.len() as u64;
            if actions.is_empty() {
                layer.idle_ns.push(pass);
            } else {
                layer.acting_passes += 1;
                layer.acting_ns.push(pass);
            }
        }
        actions
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            *sink = Some(std::mem::take(&mut self.log));
        }
    }
}

/// One finished replay: the engine's report plus the outside timings.
struct ReplayRun {
    report: ClusterRunReport,
    wall_s: f64,
    log: PassLog,
}

fn replay_once(
    sim: &ClusterSim,
    policy: Policy,
    trace: &[TraceJob],
    traced: bool,
) -> Result<ReplayRun, String> {
    let capacity = trace.len() * 3;
    let sink = Arc::new(Mutex::new(None));
    let timed = TimedPolicy {
        inner: policy.build(),
        log: PassLog {
            pass_ns: Vec::with_capacity(capacity),
            cycle_ns: Vec::with_capacity(capacity),
            layer: traced.then(|| LayerLog {
                idle_ns: Vec::with_capacity(capacity),
                acting_ns: Vec::with_capacity(capacity),
                ..LayerLog::default()
            }),
        },
        last_end: None,
        sink: Arc::clone(&sink),
    };
    let started = Instant::now();
    let report = sim
        .run(Box::new(timed), trace)
        .map_err(|e| format!("replay failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let log = sink
        .lock()
        .map_err(|_| "pass log poisoned".to_string())?
        .take()
        .ok_or("the engine did not drop the policy")?;
    Ok(ReplayRun {
        report,
        wall_s,
        log,
    })
}

/// Digest of every decision a replay made: the job records in completion
/// order, the controller's counters and the number of engine events.
fn digest(report: &ClusterRunReport) -> u64 {
    let mut h = Fnv::new();
    for job in report.jobs() {
        h.bytes(job.name.as_bytes());
        h.u64(job.submit);
        h.u64(job.start);
        h.u64(job.end);
    }
    let s = &report.stats;
    for v in [
        s.started,
        s.completed,
        s.shrinks,
        s.expands,
        s.resize_races,
        s.requeues,
        report.events_processed,
    ] {
        h.u64(v);
    }
    h.finish()
}

/// Output checks of one replay; returns the failures found.
fn check(report: &ClusterRunReport, jobs: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let jobs = jobs as u64;
    if report.jobs().len() as u64 != jobs {
        errors.push(format!(
            "{} of {jobs} jobs have records",
            report.jobs().len()
        ));
    }
    if report.stats.started != jobs || report.stats.completed != jobs {
        errors.push(format!(
            "started {} / completed {} of {jobs} jobs",
            report.stats.started, report.stats.completed
        ));
    }
    let util = report.utilization_fraction();
    if !(util > 0.0 && util <= 1.0) {
        errors.push(format!("utilization {util} outside (0, 1]"));
    }
    errors
}

/// Work counts of one traced replay: equal across replays of one trace.
fn counts(run: &ReplayRun, jobs: usize) -> Values {
    let layer = run.log.layer.as_ref().expect("traced replay");
    let passes = run.log.pass_ns.len() as f64;
    let events = run.report.events_processed;
    let stale = events.saturating_sub(2 * jobs as u64);
    let s = &run.report.stats;
    Values::from([
        ("slurm.policy.passes", passes),
        (
            "slurm.policy.queue_seen_mean",
            layer.queue_seen as f64 / passes,
        ),
        (
            "slurm.policy.running_seen_mean",
            layer.running_seen as f64 / passes,
        ),
        ("slurm.policy.actions", layer.actions as f64),
        (
            "slurm.policy.acting_pass_ratio",
            layer.acting_passes as f64 / passes,
        ),
        ("sim.engine.events", events as f64),
        ("sim.engine.stale_ratio", stale as f64 / events as f64),
        ("slurm.controller.started", s.started as f64),
        ("slurm.controller.shrinks", s.shrinks as f64),
        ("slurm.controller.expands", s.expands as f64),
        ("slurm.controller.resize_races", s.resize_races as f64),
    ])
}

/// Timings of one replay: the end-to-end values, plus the layer ones when
/// it was traced.
fn timings(run: &mut ReplayRun) -> Values {
    let us = |v: u64| v as f64 / 1e3;
    let log = &mut run.log;
    let mut v = Values::from([
        (
            "events_per_s",
            run.report.events_processed as f64 / run.wall_s,
        ),
        ("pass_p50_us", us(percentile(&mut log.pass_ns, 50.0))),
        ("pass_p99_us", us(percentile(&mut log.pass_ns, 99.0))),
        ("reconfig_p50_us", us(percentile(&mut log.cycle_ns, 50.0))),
        ("reconfig_p99_us", us(percentile(&mut log.cycle_ns, 99.0))),
    ]);
    if let Some(layer) = &mut log.layer {
        let busy_s = log.pass_ns.iter().sum::<u64>() as f64 / 1e9;
        v.extend([
            ("slurm.policy.busy_share", busy_s / run.wall_s),
            ("sim.engine.self_s", run.wall_s - busy_s),
            (
                "slurm.policy.idle_pass_p50_us",
                us(percentile(&mut layer.idle_ns, 50.0)),
            ),
            (
                "slurm.policy.acting_pass_p50_us",
                us(percentile(&mut layer.acting_ns, 50.0)),
            ),
        ]);
    }
    v
}

/// Runs one replay workload for `seconds`: the trace is generated
/// [`SETUP_REPS`] times (set-up), then replayed whole as often as the budget
/// allows. With `traced`, untraced and traced replays alternate; the traced
/// ones give the layer values, the pair gives the tracing overhead.
pub fn run(spec: Replay, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut trace = Vec::new();
    let mut sim = ClusterSim::new(1, 1);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        trace = queue_churn_trace(seed, spec.jobs, spec.nodes, NODE_CPUS, LOAD).generate();
        generate_s.push(t.elapsed().as_secs_f64());
        sim = ClusterSim::new(spec.nodes, NODE_CPUS);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Warm-up, not measured: the first fifth of the trace, so the heap has
    // grown and the caches hold the engine's state before timing starts.
    replay_once(&sim, spec.policy, &trace[..trace.len() / 5], false)?;

    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let mut units = Units::default();
    run_for(seconds, if traced { 2 } else { 1 }, |i| {
        let traced_unit = traced && i % 2 == 1;
        out.attempted += spec.jobs as u64;
        let mut run = match replay_once(&sim, spec.policy, &trace, traced_unit) {
            Ok(run) => run,
            Err(e) => {
                out.failed += spec.jobs as u64;
                out.errors.push(e);
                return Ok(());
            }
        };
        let errors = check(&run.report, spec.jobs);
        let incomplete = (spec.jobs as u64).saturating_sub(run.report.stats.completed);
        out.failed += incomplete + errors.len() as u64;
        out.errors.extend(errors);
        digests.push(digest(&run.report));
        let counts = traced_unit.then(|| counts(&run, spec.jobs));
        if !units.push(timings(&mut run), counts) {
            out.failed += 1;
            out.errors
                .push("work counts differ between replays of one trace".into());
        }
        Ok(())
    })?;

    // Decision checks: every replay of the trace made the same decisions,
    // and they match the pinned digest when this seed has one.
    let Some(&first) = digests.first() else {
        return Err("no replay finished".into());
    };
    if digests.iter().any(|&d| d != first) {
        out.failed += 1;
        out.errors
            .push("replays of one trace made different decisions".into());
    }
    out.lines.push(format!("decision digest {first:#018x}"));
    let key = (spec.policy, spec.jobs, seed);
    if let Some(&(_, _, _, pinned)) = PINNED.iter().find(|(p, j, s, _)| (*p, *j, *s) == key) {
        if pinned != first {
            out.failed += 1;
            out.errors.push(format!(
                "decision digest {first:#018x} differs from the pinned {pinned:#018x}"
            ));
        }
    }
    out.lines.push(format!(
        "{} replays of {} jobs ({} traced)",
        digests.len(),
        spec.jobs,
        units.traced()
    ));

    out.values = units.values();
    out.values.insert("setup_s", median(&setup_s));
    out.values
        .insert("sim.trace.generate_s", median(&generate_s));
    Ok(out)
}
