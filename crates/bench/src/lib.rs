//! Shared experiment harness for the per-figure binaries and the benches.
//!
//! Every figure of the paper's evaluation compares the *Serial* and *DROM*
//! scenarios over some set of application configurations. This crate holds the
//! sweep logic once; the `fig*` binaries in `src/bin/` select the slice of the
//! sweep their figure plots and print it as a table (and CSV on request).

#![forbid(unsafe_code)]

use drom_apps::{AppConfig, AppKind, Table1};
use drom_metrics::{Scenario, Table};
use drom_sim::{
    high_priority_workload, in_situ_workload, SimJob, SimulationResult, WorkloadSimulator,
};

/// Delay (seconds) after which the analytics job of use case 1 is submitted.
pub const ANALYTICS_DELAY_S: f64 = 100.0;
/// Delay (seconds) after which the high-priority job of use case 2 is submitted.
pub const HIGH_PRIORITY_DELAY_S: f64 = 200.0;

/// One cell of the use-case-1 sweep: a (simulation, analytics) configuration
/// pair simulated under both scenarios.
pub struct UseCase1Result {
    /// The simulation configuration (NEST or CoreNeuron).
    pub simulation: AppConfig,
    /// The analytics configuration (Pils or STREAM).
    pub analytics: AppConfig,
    /// The workload that was simulated.
    pub workload: Vec<SimJob>,
    /// Serial-scenario result.
    pub serial: SimulationResult,
    /// DROM-scenario result.
    pub drom: SimulationResult,
}

impl UseCase1Result {
    /// Runs one (simulation, analytics) pair under both scenarios.
    pub fn run(simulation: AppConfig, analytics: AppConfig) -> Self {
        let workload = in_situ_workload(simulation, analytics, ANALYTICS_DELAY_S);
        let serial = WorkloadSimulator::new(Scenario::Serial).run(&workload);
        let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);
        UseCase1Result {
            simulation,
            analytics,
            workload,
            serial,
            drom,
        }
    }

    /// Row label like `"NEST Conf. 1 + Pils Conf. 2"`.
    pub fn label(&self) -> String {
        format!(
            "{} {} + {} {}",
            self.simulation.kind.name(),
            self.simulation.short_label(),
            self.analytics.kind.name(),
            self.analytics.short_label()
        )
    }

    /// Name of the simulation job inside the workload.
    pub fn simulation_name(&self) -> &str {
        &self.workload[0].name
    }

    /// Name of the analytics job inside the workload.
    pub fn analytics_name(&self) -> &str {
        &self.workload[1].name
    }

    /// Total run time of a scenario in seconds.
    pub fn total_run_time_s(&self, scenario: Scenario) -> f64 {
        self.result(scenario).report.total_run_time() as f64 / 1e6
    }

    /// Average response time of a scenario in seconds.
    pub fn average_response_s(&self, scenario: Scenario) -> f64 {
        self.result(scenario).report.average_response_time() / 1e6
    }

    /// Response time of one job (by name) in seconds.
    pub fn response_s(&self, scenario: Scenario, job_name: &str) -> f64 {
        self.result(scenario)
            .report
            .response_time_of(job_name)
            .unwrap_or(0) as f64
            / 1e6
    }

    /// The result of one scenario.
    pub fn result(&self, scenario: Scenario) -> &SimulationResult {
        match scenario {
            Scenario::Serial => &self.serial,
            _ => &self.drom,
        }
    }
}

/// Runs the use-case-1 sweep for one simulator against every analytics
/// configuration of the paper (Pils Conf. 1–3 and STREAM).
pub fn use_case1_sweep(simulator: AppKind) -> Vec<UseCase1Result> {
    let sim_configs = Table1::of(simulator);
    let analytics = Table1::analytics();
    let mut results = Vec::new();
    for sim_config in &sim_configs {
        for ana_config in &analytics {
            results.push(UseCase1Result::run(*sim_config, *ana_config));
        }
    }
    results
}

/// Restricts a sweep to one analytics kind (e.g. only Pils pairs).
pub fn filter_analytics(results: &[UseCase1Result], kind: AppKind) -> Vec<&UseCase1Result> {
    results
        .iter()
        .filter(|r| r.analytics.kind == kind)
        .collect()
}

/// The use-case-2 workload simulated under both scenarios.
pub fn use_case2() -> (Vec<SimJob>, SimulationResult, SimulationResult) {
    let workload = high_priority_workload(HIGH_PRIORITY_DELAY_S);
    let serial = WorkloadSimulator::new(Scenario::Serial).run(&workload);
    let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);
    (workload, serial, drom)
}

/// Builds the standard "Serial vs DROM vs improvement" table for a
/// lower-is-better metric given `(label, serial, drom)` rows.
pub fn improvement_table(title: &str, metric: &str, rows: &[(String, f64, f64)]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "workload",
            &format!("Serial {metric}"),
            &format!("DROM {metric}"),
            "improvement [%]",
        ],
    );
    for (label, serial, drom) in rows {
        let improvement = drom_metrics::workload::percent_improvement(*serial, *drom);
        table.add_row(&[
            label.clone(),
            format!("{serial:.0}"),
            format!("{drom:.0}"),
            format!("{improvement:+.1}"),
        ]);
    }
    table
}

/// Prints a table and, when `--csv` was passed on the command line, its CSV
/// form as well.
pub fn emit(table: &Table) {
    println!("{}", table.render());
    if std::env::args().any(|a| a == "--csv") {
        println!("{}", table.to_csv());
    }
}

/// Shared fixtures for the scheduling-pass benchmarks (`sched_scale`) and
/// the CI perf-regression guard (`sched_guard`), so both measure exactly the
/// same loaded cluster snapshot.
pub mod sched_fixtures {
    use std::collections::HashMap;

    use drom_apps::AppKind;
    use drom_slurm::policy::{AdmissionOrder, JobAllocation, QueuedJob, RunningJob, SchedIndex};
    use drom_slurm::SpeedupCurve;

    /// CPUs per node of the bench clusters.
    pub const NODE_CPUS: usize = 16;

    /// The index and admission order a fixture's `ClusterView` borrows:
    /// the index rebuilt from the fixture's free vector and running jobs,
    /// the order built over its queue.
    pub fn view_state(
        free: &[usize],
        running: &[RunningJob],
        queue: &[QueuedJob],
    ) -> (SchedIndex, AdmissionOrder) {
        (
            SchedIndex::rebuild(free, running),
            AdmissionOrder::from_queue(queue),
        )
    }

    /// A loaded cluster snapshot: ~1.5 running jobs per node (1–4 nodes
    /// each, some shrunk; the shape mix saturates the cluster just before
    /// the cap) plus a `nodes/2`-job queue — the steady state of the
    /// `cluster_sweep` trace. At 128 nodes this is exactly the 181-running /
    /// 64-queued view the committed `BENCH_sched.json` baseline measured.
    pub fn loaded_state(nodes: usize) -> (Vec<usize>, Vec<RunningJob>, Vec<QueuedJob>) {
        let cap = nodes * 3 / 2;
        let mut free = vec![NODE_CPUS; nodes];
        let mut running = Vec::new();
        let mut id = 1u64;
        // Deterministic placement: walk the nodes, dropping jobs of rotating
        // shapes until the cluster is ~89% allocated.
        let shapes = [(1usize, 4usize), (2, 8), (4, 16), (1, 8), (2, 4)];
        let mut node = 0usize;
        for i in 0.. {
            let (span, width) = shapes[i % shapes.len()];
            let indices: Vec<usize> = (0..span).map(|k| (node + k) % nodes).collect();
            if indices.iter().any(|&n| free[n] < width) {
                node += 1;
                if running.len() >= cap || i > 4 * nodes {
                    break;
                }
                continue;
            }
            for &n in &indices {
                free[n] -= width;
            }
            let shrunk = i % 3 == 0 && width > 2;
            running.push(RunningJob {
                job: QueuedJob::new(id, span, width)
                    .malleable((width / 4).max(1))
                    .with_expected_duration_us(1_000_000 + 10_000 * id),
                alloc: JobAllocation {
                    job_id: id,
                    node_indices: indices,
                    cpus_per_node: if shrunk { (width / 2).max(1) } else { width },
                },
                start_us: 0,
                expected_end_us: Some(1_000_000 + 10_000 * id),
            });
            if shrunk {
                // The shrink freed half the width on each node.
                let half = width - (width / 2).max(1);
                for &n in &running.last().unwrap().alloc.node_indices {
                    free[n] += half;
                }
            }
            id += 1;
            node += span;
            if running.len() >= cap {
                break;
            }
        }
        let queue: Vec<QueuedJob> = (0..nodes / 2)
            .map(|i| {
                let (span, width) = shapes[i % shapes.len()];
                QueuedJob::new(10_000 + i as u64, span, width)
                    .malleable((width / 4).max(1))
                    .with_submit_us(i as u64)
                    .with_expected_duration_us(500_000 + 1_000 * i as u64)
            })
            .collect();
        (free, running, queue)
    }

    /// A reservation-stress snapshot: every node runs one rigid
    /// three-quarter-width job with a *distinct* completion estimate, and the
    /// queue holds a single cluster-wide full-width rigid job. Nothing can be
    /// shrunk (no donors), so the whole pass cost is the drain-reservation
    /// forecast — which only succeeds at the very last release, making the
    /// pass walk every candidate instant. Under the pre-timeline replay that
    /// is O(running × nodes) fit probes; under the release-timeline walk it
    /// is O(running) delta applications plus one probe. This is the fixture
    /// behind `malleable_reservation_pass_1024n` and the reservation half of
    /// `sched_guard`.
    pub fn reservation_stress_state(nodes: usize) -> (Vec<usize>, Vec<RunningJob>, Vec<QueuedJob>) {
        let width = NODE_CPUS * 3 / 4;
        let free = vec![NODE_CPUS - width; nodes];
        let running: Vec<RunningJob> = (0..nodes)
            .map(|n| {
                let id = n as u64 + 1;
                RunningJob {
                    job: QueuedJob::new(id, 1, width)
                        .with_expected_duration_us(1_000_000 + 10_000 * id),
                    alloc: JobAllocation {
                        job_id: id,
                        node_indices: vec![n],
                        cpus_per_node: width,
                    },
                    start_us: 0,
                    expected_end_us: Some(1_000_000 + 10_000 * id),
                }
            })
            .collect();
        let queue =
            vec![QueuedJob::new(100_000, nodes, NODE_CPUS).with_expected_duration_us(600_000_000)];
        (free, running, queue)
    }

    /// The same loaded snapshot with the calibrated application models
    /// attached: every job — running and queued — carries the speedup curve
    /// of a deterministically rotating application kind, so a pass over this
    /// view pays the curve-scaled estimate arithmetic instead of the linear
    /// `div_ceil`. This is the fixture of the `malleable_model_pass_128n`
    /// bench and the model half of `sched_guard`.
    pub fn loaded_state_model(nodes: usize) -> (Vec<usize>, Vec<RunningJob>, Vec<QueuedJob>) {
        let (free, mut running, mut queue) = loaded_state(nodes);
        let kinds = [
            AppKind::Nest,
            AppKind::CoreNeuron,
            AppKind::Pils,
            AppKind::Stream,
        ];
        let mut curves: HashMap<(AppKind, usize), SpeedupCurve> = HashMap::new();
        let mut attach = |job: &mut QueuedJob, salt: u64| {
            let kind = kinds[salt as usize % kinds.len()];
            let width = job.cpus_per_node;
            let curve = curves
                .entry((kind, width))
                .or_insert_with(|| drom_sim::speedup_curve(kind, width, width))
                .clone();
            job.speedup = Some(curve);
        };
        for r in running.iter_mut() {
            let id = r.alloc.job_id;
            attach(&mut r.job, id);
        }
        for q in queue.iter_mut() {
            let id = q.id;
            attach(q, id);
        }
        (free, running, queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn use_case1_sweep_covers_all_pairs() {
        let results = use_case1_sweep(AppKind::Nest);
        // 2 NEST configurations x 4 analytics configurations.
        assert_eq!(results.len(), 8);
        assert_eq!(filter_analytics(&results, AppKind::Pils).len(), 6);
        assert_eq!(filter_analytics(&results, AppKind::Stream).len(), 2);
        for r in &results {
            assert!(r.total_run_time_s(Scenario::Serial) > 0.0);
            assert!(r.total_run_time_s(Scenario::Drom) > 0.0);
            assert!(r.label().contains("NEST"));
            assert!(r.response_s(Scenario::Drom, r.analytics_name()) > 0.0);
            assert!(r.response_s(Scenario::Serial, r.simulation_name()) > 0.0);
            assert!(r.average_response_s(Scenario::Drom) > 0.0);
        }
    }

    #[test]
    fn use_case2_runs_both_scenarios() {
        let (workload, serial, drom) = use_case2();
        assert_eq!(workload.len(), 2);
        assert!(serial.report.total_run_time() > 0);
        assert!(drom.report.total_run_time() > 0);
    }

    #[test]
    fn improvement_table_formats_rows() {
        let table = improvement_table(
            "demo",
            "[s]",
            &[
                ("a".to_string(), 100.0, 90.0),
                ("b".to_string(), 50.0, 55.0),
            ],
        );
        let text = table.render();
        assert!(text.contains("+10.0"));
        assert!(text.contains("-10.0"));
        assert_eq!(table.num_rows(), 2);
    }
}
