//! Pluggable cluster-scheduling policies over a CPU-level cluster view.
//!
//! The paper deliberately leaves `slurmctld` untouched ("the purpose is to
//! give a proof of integration of DROM APIs, not to present new scheduling
//! policies"). This module is the step beyond that proof: it defines the
//! [`SchedulerPolicy`] trait — a cluster-wide decision procedure fed a
//! [`ClusterView`] and a queue of [`QueuedJob`]s — and three implementations:
//!
//! * [`FirstFitPolicy`] — the baseline: FCFS order, first-fit placement,
//!   head-of-line blocking. This is the paper's unmodified-controller
//!   behaviour lifted to CPU granularity.
//! * [`BackfillPolicy`] — conservative EASY-style backfill: one reservation
//!   for the blocked head job; only jobs with a declared time limit that
//!   finish before the reservation may jump the queue.
//! * [`MalleablePolicy`] — the DROM-enabled policy: when the head job does not
//!   fit, running malleable jobs are *shrunk* (down to their per-node floor)
//!   to admit it, and re-expanded toward their full request whenever CPUs free
//!   up. On the execution path the shrink/expand actions map onto the
//!   `DROM_PreInit` steal and pending-mask machinery (see
//!   [`Slurmd::shrink_job`](crate::Slurmd::shrink_job) and
//!   [`Slurmd::release_resources`](crate::Slurmd::release_resources)); in the
//!   trace-driven simulator they map onto virtual-time reallocation.
//!
//! Policies are pure decision procedures: they never mutate cluster state.
//! The [`PolicyScheduler`](crate::PolicyScheduler) applies (and validates)
//! the returned [`SchedulerAction`]s, so a buggy policy cannot oversubscribe
//! a node. The scheduler also maintains a [`SchedIndex`] — per-node free /
//! reclaimable CPUs and donor lists, updated event-by-event — and an
//! [`AdmissionOrder`] over the queue; every [`ClusterView`] carries both, so
//! each policy has exactly one production path, and the malleable pass never
//! rescans the running set, which is what makes it sub-linear in cluster
//! size. The reference implementations those paths replaced live in
//! [`oracle`], for differential tests and benches only.
//! `docs/scheduling.md` documents the exact semantics of each policy, the
//! complexity budget, and how a shrink composes with the registry's
//! pending-mask rules.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use drom_metrics::TimeUs;

use crate::job::JobSpec;

pub mod oracle;

/// Fixed-point speedup curve of one job: how fast the job progresses at each
/// per-node width, relative to its full request width.
///
/// `rates[w]` is the job's progress rate at `w` CPUs per node, in fixed-point
/// work units per microsecond; index `rates.len() - 1` is the request width.
/// A job running at full width for `duration_us` delivers exactly
/// `duration_us × full_rate()` work units, so only rate *ratios* matter —
/// the absolute scale is the curve builder's choice. The curve
/// is application-agnostic — the scheduler never sees the model that
/// produced it, only the integer rate table — which is what lets the
/// calibrated `drom-apps` performance models (static data partitions,
/// memory-bound saturation, init phases) drive scheduler estimates without a
/// `drom-slurm → drom-apps` dependency edge. `drom_sim::rate` builds curves
/// from the models; a job without a curve scales linearly
/// (`rate ∝ width`), which reproduces the PR 3/4 behaviour bit for bit.
///
/// Invariants (checked by [`from_rates`](Self::from_rates)): rates are
/// monotone non-decreasing in the width (an expand can never slow a job
/// down), every rate above width 0 is non-zero, and `rates[0]` is 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeedupCurve {
    rates: Vec<u64>,
}

impl SpeedupCurve {
    /// Fixed-point unit: the rate at the full request width. 2^20 keeps the
    /// quantization error of a rate ratio below one part per million while
    /// `duration × FP` stays far from u64/u128 overflow for any virtual
    /// duration the traces use.
    pub const FP: u64 = 1 << 20;

    /// Builds a curve from the per-width rate table (`rates[w]` = rate at
    /// `w` CPUs per node; the last index is the request width).
    ///
    /// # Panics
    ///
    /// Panics if the table has fewer than two entries (a request width of at
    /// least 1 plus the zero-width entry), if `rates[0] != 0`, if any rate
    /// above width 0 is zero, or if the table is not monotone non-decreasing.
    pub fn from_rates(rates: Vec<u64>) -> Self {
        assert!(rates.len() >= 2, "a curve needs at least width 0 and 1");
        assert_eq!(rates[0], 0, "zero CPUs deliver zero work");
        for w in 1..rates.len() {
            assert!(rates[w] > 0, "rate at width {w} must be positive");
            assert!(
                rates[w] >= rates[w - 1],
                "rates must be monotone: expanding to width {w} may not slow the job"
            );
        }
        SpeedupCurve { rates }
    }

    /// The linear curve for `request` CPUs per node: `rate(w) = w × FP`,
    /// quantization-free at every width (`⌈d·request·FP / (w·FP)⌉` equals
    /// `⌈d·request / w⌉` exactly), so a linear curve is byte-identical to no
    /// curve at all. Only used by tests and differential checks — an absent
    /// curve already means linear.
    pub fn linear(request: usize) -> Self {
        Self::from_rates((0..=request.max(1) as u64).map(|w| w * Self::FP).collect())
    }

    /// The request width the curve was built for.
    pub fn request_width(&self) -> usize {
        self.rates.len() - 1
    }

    /// Progress rate (fixed-point work units per µs) at `width` CPUs per
    /// node. Widths beyond the request clamp to the full rate: per the
    /// static-partition cap, CPUs beyond the launch width cannot speed the
    /// job up further.
    // PANIC: the width clamps to the table's last index, never out of bounds.
    pub fn rate(&self, width: usize) -> u64 {
        self.rates[width.min(self.rates.len() - 1)]
    }

    /// The rate at the full request width ([`Self::FP`] for curves built by
    /// `drom_sim::rate`, `request × FP` for [`linear`](Self::linear) ones).
    // PANIC: `from_rates` rejects empty tables.
    pub fn full_rate(&self) -> u64 {
        *self.rates.last().expect("from_rates guarantees non-empty")
    }

    /// Expected duration at `width` CPUs per node of a job declared to take
    /// `duration_us` at full width: `⌈duration × full_rate / rate(width)⌉`.
    /// Rounds **up** for the same reason the linear estimate does — a
    /// truncated estimate promises CPUs an instant before the engine's exact
    /// completion releases them.
    pub fn scaled_duration_us(&self, duration_us: TimeUs, width: usize) -> TimeUs {
        let rate = self.rate(width).max(1);
        let scaled = (duration_us as u128 * self.full_rate() as u128).div_ceil(rate as u128);
        TimeUs::try_from(scaled).unwrap_or(TimeUs::MAX)
    }

    /// Rate carried by the CPU that took the job from `width - 1` to `width`.
    /// 0 at width 0 and beyond the request width (where the table clamps
    /// flat); never negative, by the monotonicity invariant.
    pub fn marginal_rate(&self, width: usize) -> u64 {
        if width == 0 {
            0
        } else {
            self.rate(width) - self.rate(width - 1)
        }
    }

    /// Relative marginal cost (fixed-point) of the CPU that took the job
    /// from `width - 1` to `width`:
    /// `marginal_rate(width) × request_width × FP / full_rate`, normalised
    /// so one CPU of a linear job is worth exactly [`Self::FP`].
    ///
    /// This is the malleable policy's victim-ranking and expansion-targeting
    /// key: "what fraction of a linear CPU's throughput does this CPU
    /// actually carry". The division truncates toward zero on the FP grid —
    /// exact for linear curves (the numerator is a multiple of `full_rate`)
    /// and at worst one FP-grid step (< 1 ppm of a CPU) low for model
    /// curves, far below the gaps the ranking discriminates.
    pub fn relative_marginal_cost(&self, width: usize) -> u64 {
        let num =
            self.marginal_rate(width) as u128 * self.request_width() as u128 * Self::FP as u128;
        (num / self.full_rate() as u128) as u64
    }

    /// Relative rate (fixed-point) at `width`:
    /// `rate(width) × request_width × FP / full_rate`, truncating — exactly
    /// `width × FP` for a linear curve. The gain side of the malleable
    /// policy's shrink-economics comparison, in the same normalised units as
    /// [`relative_marginal_cost`](Self::relative_marginal_cost).
    pub fn relative_rate(&self, width: usize) -> u64 {
        let num = self.rate(width) as u128 * self.request_width() as u128 * Self::FP as u128;
        (num / self.full_rate() as u128) as u64
    }

    /// Length of the zero-marginal tail below `width`, capped at `limit`:
    /// the largest `g ≤ limit` with `rate(width - g) == rate(width)` — CPUs
    /// the job can give up without losing any throughput at all. 0 for a
    /// linear curve.
    pub fn zero_cost_run(&self, width: usize, limit: usize) -> usize {
        let limit = limit.min(width);
        let mut g = 0;
        while g < limit && self.rate(width - g - 1) == self.rate(width) {
            g += 1;
        }
        g
    }

    /// Length of the equal-marginal run below `width`, capped at `limit`:
    /// the largest `g ≤ limit` such that each of the `g` CPUs donated on the
    /// way from `width` down to `width - g` carries the same marginal rate
    /// as the first one. The malleable carve-out shrinks a victim by whole
    /// runs; for a linear curve the run is all of `limit`, which is exactly
    /// the pre-curve chunked-donation behaviour.
    pub fn equal_cost_run(&self, width: usize, limit: usize) -> usize {
        let limit = limit.min(width);
        if limit == 0 {
            return 0;
        }
        let top = self.marginal_rate(width);
        let mut g = 1;
        while g < limit && self.marginal_rate(width - g) == top {
            g += 1;
        }
        g
    }

    /// `true` when the curve is flat from `width` through the request: more
    /// CPUs cannot speed the job up, so expansion must skip it.
    pub fn saturated_at(&self, width: usize) -> bool {
        self.rate(width) == self.full_rate()
    }
}

/// A job submission as the scheduling policies see it: pure resource shape,
/// no application payload.
///
/// Widths are *per node*: a job asks for `nodes × cpus_per_node` CPUs and a
/// malleable job may run anywhere between `nodes × min_cpus_per_node` and its
/// full request (the allocation width is uniform across its nodes, matching
/// the block task distribution every workload of the paper uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Unique job identifier.
    pub id: u64,
    /// Submission time (virtual µs).
    pub submit_us: TimeUs,
    /// Number of nodes requested.
    pub nodes: usize,
    /// CPUs requested on each of those nodes.
    pub cpus_per_node: usize,
    /// Smallest per-node width the job tolerates (= `cpus_per_node` for a
    /// rigid job; typically one CPU per task for a malleable one).
    pub min_cpus_per_node: usize,
    /// `true` if the job tolerates having its CPUs changed at run time.
    pub malleable: bool,
    /// Scheduling priority (larger is more urgent).
    pub priority: u32,
    /// Expected duration (virtual µs) at full request width, if declared.
    /// Backfill reservations treat `None` as "unbounded".
    pub expected_duration_us: Option<TimeUs>,
    /// The job's speedup curve, when its application model is known. `None`
    /// means linear speedup (`rate ∝ width`) — the PR 3/4 behaviour. Every
    /// duration estimate the policies and the controller derive for a
    /// non-full width consults this curve, so drain reservations stay honest
    /// when shrinking a static-partition job costs more than linear.
    pub speedup: Option<SpeedupCurve>,
}

impl QueuedJob {
    /// Creates a rigid job: `nodes × cpus_per_node`, no time limit.
    pub fn new(id: u64, nodes: usize, cpus_per_node: usize) -> Self {
        QueuedJob {
            id,
            submit_us: 0,
            nodes: nodes.max(1),
            cpus_per_node: cpus_per_node.max(1),
            min_cpus_per_node: cpus_per_node.max(1),
            malleable: false,
            priority: 0,
            expected_duration_us: None,
            speedup: None,
        }
    }

    /// Marks the job malleable, able to shrink to `min_cpus_per_node`.
    pub fn malleable(mut self, min_cpus_per_node: usize) -> Self {
        self.malleable = true;
        self.min_cpus_per_node = min_cpus_per_node.clamp(1, self.cpus_per_node);
        self
    }

    /// Sets the submission time.
    pub fn with_submit_us(mut self, submit_us: TimeUs) -> Self {
        self.submit_us = submit_us;
        self
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Declares the expected duration (enables backfilling around this job).
    pub fn with_expected_duration_us(mut self, duration_us: TimeUs) -> Self {
        self.expected_duration_us = Some(duration_us);
        self
    }

    /// Attaches the job's speedup curve (model-aware scaling for every
    /// shrunk-width duration estimate).
    pub fn with_speedup(mut self, curve: SpeedupCurve) -> Self {
        self.speedup = Some(curve);
        self
    }

    /// Expected duration (µs) of this job granted `width` CPUs per node
    /// instead of its full request: the speedup curve when the job carries
    /// one, linear `⌈duration × request / width⌉` scaling otherwise. Rounds
    /// **up** — a truncated (optimistic) estimate lets a drain reservation
    /// promise an instant the shrunk job itself still occupies.
    pub fn scaled_duration_us(&self, duration_us: TimeUs, width: usize) -> TimeUs {
        match &self.speedup {
            Some(curve) => curve.scaled_duration_us(duration_us, width),
            None => scaled_duration(duration_us, self.cpus_per_node, width),
        }
    }

    /// Derives the policy-level shape from a [`JobSpec`]: the per-node width
    /// is the widest node's `tasks × threads`, the malleable floor is one CPU
    /// per task, and the expected duration is the declared time limit.
    pub fn from_spec(spec: &JobSpec) -> Self {
        let tasks_widest = spec.tasks_per_node().into_iter().max().unwrap_or(1).max(1);
        let request = tasks_widest * spec.threads_per_task.max(1);
        QueuedJob {
            id: spec.id,
            submit_us: spec.submit_time,
            nodes: spec.nodes.max(1),
            cpus_per_node: request,
            min_cpus_per_node: if spec.malleable {
                tasks_widest
            } else {
                request
            },
            malleable: spec.malleable,
            priority: spec.priority,
            expected_duration_us: spec.time_limit_us,
            speedup: None,
        }
    }

    /// Total CPUs of the full request.
    pub fn total_cpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }
}

/// Where a running job's CPUs live: a set of nodes and the uniform per-node
/// width currently granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobAllocation {
    /// The allocated job.
    pub job_id: u64,
    /// Indices (into the cluster's node list) of the allocated nodes.
    pub node_indices: Vec<usize>,
    /// CPUs currently granted on each of those nodes.
    pub cpus_per_node: usize,
}

impl JobAllocation {
    /// Total CPUs of the allocation.
    pub fn total_cpus(&self) -> usize {
        self.node_indices.len() * self.cpus_per_node
    }
}

/// A running job in the [`ClusterView`]: its request, its current allocation
/// and the controller's completion estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningJob {
    /// The job's original request.
    pub job: QueuedJob,
    /// Current allocation.
    pub alloc: JobAllocation,
    /// When the job started (virtual µs).
    pub start_us: TimeUs,
    /// Estimated completion time, refreshed by the engine driving the
    /// scheduler; `None` when no estimate exists.
    pub expected_end_us: Option<TimeUs>,
}

impl RunningJob {
    /// `true` if the job currently holds fewer CPUs than it requested.
    pub fn is_shrunk(&self) -> bool {
        self.alloc.cpus_per_node < self.job.cpus_per_node
    }

    /// CPUs per node this job could still give up (0 for rigid jobs).
    pub fn reclaimable_per_node(&self) -> usize {
        if self.job.malleable {
            self.alloc
                .cpus_per_node
                .saturating_sub(self.job.min_cpus_per_node)
        } else {
            0
        }
    }
}

/// What a policy may ask the cluster to do. Actions are validated and applied
/// by [`PolicyScheduler::tick`](crate::PolicyScheduler::tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerAction {
    /// Start a queued job on the given nodes at the given per-node width
    /// (which may be below its request if the job is malleable).
    Start {
        /// The queued job to start.
        job_id: u64,
        /// Node indices of the allocation.
        node_indices: Vec<usize>,
        /// CPUs granted on each node.
        cpus_per_node: usize,
    },
    /// Change a running malleable job's per-node width (shrink or expand),
    /// keeping its node set.
    Resize {
        /// The running job to resize.
        job_id: u64,
        /// The new per-node width.
        cpus_per_node: usize,
    },
}

/// Read-only cluster state handed to a policy: homogeneous node capacity,
/// every running job, and the driver's event-maintained [`SchedIndex`] and
/// [`AdmissionOrder`].
///
/// [`PolicyScheduler`](crate::PolicyScheduler) builds its view from the
/// index and order it updates at every event. A view built anywhere else
/// (tests, benches) uses [`SchedIndex::rebuild`] and
/// [`AdmissionOrder::from_queue`], which derive the same state from scratch.
/// Free CPUs have one source, [`free`](Self::free), read off the index.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// CPUs per node (the cluster is homogeneous, like the paper's).
    pub node_cpus: usize,
    /// Every running job with its current allocation.
    pub running: &'a [RunningJob],
    /// Per-node free / reclaimable CPUs, donor lists and the release
    /// timeline over `running`.
    pub index: &'a SchedIndex,
    /// The admission order over the queue handed to
    /// [`SchedulerPolicy::schedule`] alongside this view.
    pub order: &'a AdmissionOrder,
}

impl<'a> ClusterView<'a> {
    /// Free CPUs on each node, indexed by node.
    pub fn free(&self) -> &'a [usize] {
        self.index.free()
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.free().len()
    }

    /// Total free CPUs across the cluster.
    pub fn total_free(&self) -> usize {
        self.free().iter().sum()
    }

    /// Checks that `job` could start if every CPU of the cluster were free.
    /// Returns the reason it never can, if so — the admission guard that
    /// keeps impossible jobs out of the queue (error, not livelock).
    pub fn fits_ever(&self, job: &QueuedJob) -> Result<(), String> {
        if job.cpus_per_node == 0 || job.nodes == 0 {
            return Err("job requests zero CPUs".into());
        }
        if job.nodes > self.num_nodes() {
            return Err(format!(
                "wants {} nodes, cluster has {}",
                job.nodes,
                self.num_nodes()
            ));
        }
        if job.cpus_per_node > self.node_cpus {
            return Err(format!(
                "wants {} CPUs per node, nodes have {}",
                job.cpus_per_node, self.node_cpus
            ));
        }
        if job.min_cpus_per_node > job.cpus_per_node {
            return Err(format!(
                "malleable floor {} exceeds request {}",
                job.min_cpus_per_node, job.cpus_per_node
            ));
        }
        Ok(())
    }
}

/// The release timeline: per-node CPU release deltas keyed by estimated
/// completion instant, over the running jobs that carry an estimate.
///
/// This is the input of the drain-reservation forecast shared by
/// [`BackfillPolicy`] and [`MalleablePolicy`]: instead of re-sorting every
/// running allocation by end time and replaying the releases with a
/// first-fit probe per candidate instant (O(candidates × nodes) per
/// forecast — the reservation-heavy scaling wall at 1024+ nodes), the
/// forecast walks these pre-aggregated deltas in end order and maintains a
/// *count* of nodes satisfying the probe width, probing placement exactly
/// once (`earliest_timeline_fit`). [`SchedIndex`] keeps one up to date in
/// O(job's nodes × log running) per applied start / resize / completion /
/// estimate change, so a pass never pays the sort either.
///
/// Canonical form (what [`PartialEq`] compares, and what the debug rebuild
/// oracle re-derives from the running set): one entry per distinct estimated
/// end instant, mapping each node to the **sum** of the estimated widths
/// releasing there; zero-width node entries and empty instants are never
/// stored. Jobs without an estimate simply do not appear — the walk treats
/// their CPUs as never released, exactly like the replay it replaces.
/// Widths are positive by construction (no allocation is zero-wide).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReleaseTimeline {
    /// `by_end[t][node]` = CPUs released on `node` at estimated instant `t`.
    by_end: BTreeMap<TimeUs, BTreeMap<usize, usize>>,
    /// The instant each estimated job is currently keyed under — what lets
    /// an estimate change re-key the job without knowing its old estimate.
    ends: HashMap<u64, TimeUs>,
}

impl ReleaseTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of estimated jobs on the timeline.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no job carries an estimate.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn add_deltas(&mut self, end_us: TimeUs, node_indices: &[usize], width: usize) {
        let at = self.by_end.entry(end_us).or_default();
        for &n in node_indices {
            *at.entry(n).or_insert(0) += width;
        }
    }

    // PANIC: callers subtract exactly what `add` inserted, so the end instant
    // and its per-node deltas are present (the SchedIndex timeline invariant).
    fn sub_deltas(&mut self, end_us: TimeUs, node_indices: &[usize], width: usize) {
        let at = self
            .by_end
            .get_mut(&end_us)
            .expect("an indexed job's end instant is on the timeline");
        for &n in node_indices {
            let d = at.get_mut(&n).expect("an indexed job's nodes carry deltas");
            *d -= width;
            if *d == 0 {
                at.remove(&n);
            }
        }
        if at.is_empty() {
            self.by_end.remove(&end_us);
        }
    }

    /// Enters a job holding `width` CPUs on each of `node_indices` until
    /// `end_us`. A job without an estimate (`None`) is not tracked — call
    /// [`set_end`](Self::set_end) when it gains one.
    pub fn add(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        if let Some(end) = end_us {
            self.ends.insert(job_id, end);
            self.add_deltas(end, node_indices, width);
        }
    }

    /// Removes a job (no-op when it carried no estimate). `node_indices` and
    /// `width` must be the allocation currently on the timeline.
    pub fn remove(&mut self, job_id: u64, node_indices: &[usize], width: usize) {
        if let Some(end) = self.ends.remove(&job_id) {
            self.sub_deltas(end, node_indices, width);
        }
    }

    /// Re-prices a tracked job's release from `old_width` to `new_width` at
    /// its current end instant — the resize hook (a resize keeps the node
    /// set; the estimate is refreshed separately via
    /// [`set_end`](Self::set_end)). No-op for unestimated jobs.
    pub fn update_width(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        old_width: usize,
        new_width: usize,
    ) {
        if let Some(&end) = self.ends.get(&job_id) {
            self.sub_deltas(end, node_indices, old_width);
            self.add_deltas(end, node_indices, new_width);
        }
    }

    /// Re-keys a job's release to a new estimate (in place: remove at the
    /// old instant, insert at the new), `None` dropping it from the
    /// timeline. `node_indices`/`width` are the job's current allocation.
    pub fn set_end(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        self.remove(job_id, node_indices, width);
        self.add(job_id, node_indices, width, end_us);
    }
}

/// Incrementally maintained, per-node indexed scheduler state: free CPUs,
/// the reclaimable-CPU summary, the donor index (which running malleable
/// jobs hold CPUs on each node) and the [`ReleaseTimeline`] over the
/// estimated completions.
///
/// [`PolicyScheduler`](crate::PolicyScheduler) owns one and updates it on
/// every start / resize / completion **event** instead of letting policies
/// recompute the same per-node sums from `running` on every pass. The
/// recomputation was the malleable policy's scaling wall: its availability
/// and victim scans were O(queue × nodes × running) per pass (~2 ms on a
/// loaded 128-node view, `BENCH_sched.json`), while the event-driven updates
/// here are O(nodes of the affected job) each.
///
/// Invariants (checked in debug builds against
/// [`rebuild_from_capacity`](SchedIndex::rebuild_from_capacity), which
/// re-derives everything — the free vector included — from the cluster
/// shape and the running jobs alone):
///
/// * `free[n]` equals the node capacity minus all allocations on `n`;
/// * `reclaim[n]` equals `Σ width − shrink_floor` (clamped at zero per job)
///   over the running malleable jobs on `n`, where the floor is the
///   malleable policy's [`shrink bound`](MalleablePolicy) — its declared
///   floor, but never below half its request;
/// * `cheap[n]` is the part of `reclaim[n]` the donors' speedup curves
///   price at zero — the curve-aware ordering summary
///   ([`SpeedupCurve::zero_cost_run`] under the same shrink bound, 0 for
///   curve-less linear jobs) that lets `shrink_to_admit` prefer nodes whose
///   reclaimable CPUs cost no throughput, without a per-pass curve scan;
/// * `donors[n]` lists exactly the running malleable jobs on `n`, in the
///   order they appear in the driver's `running` vector (start order), which
///   is what keeps indexed victim selection byte-identical to the reference
///   scan;
/// * `timeline` holds exactly `{(r.expected_end_us, r.alloc.node_indices,
///   r.alloc.cpus_per_node)}` over the running jobs whose estimate is
///   `Some`, in [`ReleaseTimeline`] canonical form — kept current by
///   [`on_estimate`](SchedIndex::on_estimate) whenever the driver refreshes
///   an estimate.
///
/// Completion consistency is the driver's job: the trace engine tags its
/// completion events with a generation counter and drops stale ones *before*
/// calling [`PolicyScheduler::job_finished`](crate::PolicyScheduler::job_finished),
/// so a completion superseded by a resize can never unwind the index twice.
///
/// On top of the per-node state the index keeps **per-width-class dirty
/// generations** for the probe memo ([`free_gen`](Self::free_gen) /
/// [`avail_gen`](Self::avail_gen)): `free_gen[w]` is bumped every time any
/// node's free-CPU count rises from below `w` to at least `w`, and
/// `avail_gen[w]` the same for free + reclaimable. An unchanged generation
/// therefore proves no node entered width class `w` since it was read —
/// the per-class count of qualifying nodes cannot have increased — which is
/// what makes skipping a re-probe sound (see `docs/scheduling.md`). The
/// generations are *not* part of the index's value ([`PartialEq`] ignores
/// them): two equal cluster states reached through different event
/// histories carry different generations by design.
#[derive(Debug, Clone)]
pub struct SchedIndex {
    free: Vec<usize>,
    reclaim: Vec<usize>,
    cheap: Vec<usize>,
    donors: Vec<Vec<u64>>,
    timeline: ReleaseTimeline,
    /// `free_gen[w]`: bumped when any node's free CPUs cross up into ≥ `w`.
    /// Grown on demand — a class never crossed is generation 0.
    free_gen: Vec<u64>,
    /// `avail_gen[w]`: same for free + reclaimable CPUs.
    avail_gen: Vec<u64>,
    /// Unique per index instance (fresh on every `new`/`rebuild`), so a
    /// probe memo recorded against one index can never validate against the
    /// zeroed generations of a freshly rebuilt one.
    epoch: u64,
}

/// Source of unique [`SchedIndex::epoch`] values. Starts at 1 so an epoch of
/// 0 can mean "no index seen yet" in a probe memo.
static INDEX_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_index_epoch() -> u64 {
    // SAFETY(ordering): epoch allocator; only uniqueness matters.
    INDEX_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Bumps the generations of every width class the value `old → new` crossed
/// up into (`old+1 ..= new`); a downward or flat move bumps nothing. The
/// generation vector grows on demand, so rebuilt indices need no capacity.
// PANIC: the vector is resized to `new + 1` right above the indexed range.
fn bump_gens(gens: &mut Vec<u64>, old: usize, new: usize) {
    if new > old {
        if gens.len() <= new {
            gens.resize(new + 1, 0);
        }
        for g in &mut gens[old + 1..=new] {
            *g += 1;
        }
    }
}

impl PartialEq for SchedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.free == other.free
            && self.reclaim == other.reclaim
            && self.cheap == other.cheap
            && self.donors == other.donors
            && self.timeline == other.timeline
    }
}

impl Eq for SchedIndex {}

impl SchedIndex {
    /// An index over `num_nodes` empty nodes of `node_cpus` CPUs.
    pub fn new(num_nodes: usize, node_cpus: usize) -> Self {
        SchedIndex {
            free: vec![node_cpus; num_nodes],
            reclaim: vec![0; num_nodes],
            cheap: vec![0; num_nodes],
            donors: vec![Vec::new(); num_nodes],
            timeline: ReleaseTimeline::new(),
            free_gen: Vec::new(),
            avail_gen: Vec::new(),
            epoch: next_index_epoch(),
        }
    }

    /// Rebuilds the full index — including the free vector, derived from
    /// node capacity minus every running allocation — from nothing but the
    /// cluster shape and the running jobs. This is the debug-mode oracle the
    /// incremental updates are checked against: unlike [`rebuild`]
    /// (which trusts the free vector it is given), a drifted `free[n]`
    /// cannot escape this one.
    ///
    /// [`rebuild`]: SchedIndex::rebuild
    // PANIC: running allocations name nodes within the capacity they were
    // validated against.
    pub fn rebuild_from_capacity(
        num_nodes: usize,
        node_cpus: usize,
        running: &[RunningJob],
    ) -> Self {
        let mut free = vec![node_cpus; num_nodes];
        for r in running {
            for &n in &r.alloc.node_indices {
                free[n] -= r.alloc.cpus_per_node;
            }
        }
        Self::rebuild(&free, running)
    }

    /// Rebuilds the index from a free vector and the running jobs — how a
    /// [`ClusterView`] is built outside a
    /// [`PolicyScheduler`](crate::PolicyScheduler) (tests, benches), with
    /// the given free vector as the source of truth.
    // ALLOC(pass): O(nodes) full rebuild — per-node columns, donor lists and
    // the release timeline from scratch; the incremental on_* path exists so
    // steady-state ticks never pay this.
    // PANIC: running allocations index nodes inside the free vector.
    pub fn rebuild(free: &[usize], running: &[RunningJob]) -> Self {
        let mut index = SchedIndex {
            free: free.to_vec(),
            reclaim: vec![0; free.len()],
            cheap: vec![0; free.len()],
            donors: vec![Vec::new(); free.len()],
            timeline: ReleaseTimeline::new(),
            free_gen: Vec::new(),
            avail_gen: Vec::new(),
            epoch: next_index_epoch(),
        };
        for r in running {
            if r.job.malleable {
                let spare = Self::spare(&r.job, r.alloc.cpus_per_node);
                let cheap = Self::cheap_spare(&r.job, r.alloc.cpus_per_node);
                for &n in &r.alloc.node_indices {
                    index.donors[n].push(r.alloc.job_id);
                    index.reclaim[n] += spare;
                    index.cheap[n] += cheap;
                }
            }
            index.timeline.add(
                r.alloc.job_id,
                &r.alloc.node_indices,
                r.alloc.cpus_per_node,
                r.expected_end_us,
            );
        }
        index
    }

    /// Free CPUs on each node.
    pub fn free(&self) -> &[usize] {
        &self.free
    }

    /// Reclaimable CPUs on each node: what the running malleable jobs there
    /// could give up before hitting the malleable policy's shrink bound.
    pub fn reclaim(&self) -> &[usize] {
        &self.reclaim
    }

    /// Zero-marginal-cost reclaimable CPUs on each node: the part of
    /// [`reclaim`](Self::reclaim) the donors' speedup curves price at zero
    /// (saturated tails). 0 everywhere on a curve-less cluster.
    pub fn cheap(&self) -> &[usize] {
        &self.cheap
    }

    /// Ids of the running malleable jobs holding CPUs on `node`, in start
    /// order.
    // PANIC: callers pass node indices below the cluster's node count, the
    // length of every per-node column.
    pub fn donors(&self, node: usize) -> &[u64] {
        &self.donors[node]
    }

    /// The end-time-ordered release timeline over the estimated completions.
    pub fn timeline(&self) -> &ReleaseTimeline {
        &self.timeline
    }

    /// Dirty generation of free-CPU width class `width`: bumped whenever any
    /// node's free count crosses up into ≥ `width`. Unchanged ⟹ the number
    /// of nodes with ≥ `width` free CPUs has not increased since it was read.
    pub fn free_gen(&self, width: usize) -> u64 {
        self.free_gen.get(width).copied().unwrap_or(0)
    }

    /// Dirty generation of availability (free + reclaimable) width class
    /// `width` — same contract as [`free_gen`](Self::free_gen).
    pub fn avail_gen(&self, width: usize) -> u64 {
        self.avail_gen.get(width).copied().unwrap_or(0)
    }

    /// Unique instance epoch — what lets a probe memo detect that the index
    /// it recorded against was rebuilt (fresh generations, all zero).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-job clamped spare width under the shrink bound.
    fn spare(job: &QueuedJob, width: usize) -> usize {
        width.saturating_sub(shrink_floor(job.min_cpus_per_node, job.cpus_per_node))
    }

    /// Per-job zero-marginal-cost part of [`spare`](Self::spare): what the
    /// job's curve says it can donate for free at `width`.
    fn cheap_spare(job: &QueuedJob, width: usize) -> usize {
        match &job.speedup {
            Some(curve) => curve.zero_cost_run(width, Self::spare(job, width)),
            None => 0,
        }
    }

    /// A job started on `node_indices` at `width` CPUs per node, with the
    /// driver's completion estimate (entered on the release timeline when
    /// `Some`).
    // PANIC: started allocations name nodes inside the driver's free vector.
    pub fn on_start(
        &mut self,
        job: &QueuedJob,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        let spare = Self::spare(job, width);
        let cheap = Self::cheap_spare(job, width);
        for &n in node_indices {
            self.free[n] -= width;
            if job.malleable {
                self.donors[n].push(job.id);
                self.reclaim[n] += spare;
                self.cheap[n] += cheap;
            }
        }
        // No generation bumps: a start lowers free CPUs, and lowers
        // availability too (the malleable spare it adds, `width − floor`,
        // never exceeds the `width` it takes), so no width-class count rises.
        self.timeline.add(job.id, node_indices, width, end_us);
    }

    /// A running job resized from `old_width` to `new_width` CPUs per node.
    // PANIC: resized allocations name nodes inside the driver's free vector.
    pub fn on_resize(
        &mut self,
        job: &QueuedJob,
        node_indices: &[usize],
        old_width: usize,
        new_width: usize,
    ) {
        let old_spare = Self::spare(job, old_width);
        let new_spare = Self::spare(job, new_width);
        let old_cheap = Self::cheap_spare(job, old_width);
        let new_cheap = Self::cheap_spare(job, new_width);
        for &n in node_indices {
            let old_free = self.free[n];
            let old_avail = old_free + self.reclaim[n];
            self.free[n] = self.free[n] + old_width - new_width;
            if job.malleable {
                self.reclaim[n] = self.reclaim[n] + new_spare - old_spare;
                self.cheap[n] = self.cheap[n] + new_cheap - old_cheap;
            }
            bump_gens(&mut self.free_gen, old_free, self.free[n]);
            bump_gens(
                &mut self.avail_gen,
                old_avail,
                self.free[n] + self.reclaim[n],
            );
        }
        // The release the timeline promises at the job's (unchanged) end
        // instant is the new width; the driver refreshes the estimate itself
        // afterwards via `on_estimate`.
        self.timeline
            .update_width(job.id, node_indices, old_width, new_width);
    }

    /// The driver refreshed a running job's completion estimate:
    /// re-keys its release (current allocation) to the new instant in place.
    pub fn on_estimate(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        self.timeline.set_end(job_id, node_indices, width, end_us);
    }

    /// A running job completed, releasing `width` CPUs on each of its nodes.
    // PANIC: completed allocations name nodes inside the driver's free vector.
    pub fn on_complete(&mut self, job: &QueuedJob, node_indices: &[usize], width: usize) {
        let spare = Self::spare(job, width);
        let cheap = Self::cheap_spare(job, width);
        for &n in node_indices {
            let old_free = self.free[n];
            let old_avail = old_free + self.reclaim[n];
            self.free[n] += width;
            if job.malleable {
                self.donors[n].retain(|&id| id != job.id);
                self.reclaim[n] -= spare;
                self.cheap[n] -= cheap;
            }
            bump_gens(&mut self.free_gen, old_free, self.free[n]);
            bump_gens(
                &mut self.avail_gen,
                old_avail,
                self.free[n] + self.reclaim[n],
            );
        }
        self.timeline.remove(job.id, node_indices, width);
    }
}

/// A cluster-wide scheduling policy: given the current state and queue, emit
/// the actions to take *now*. Called at every scheduling event (submission,
/// completion, explicit tick); must be deterministic for a given input.
pub trait SchedulerPolicy: Send {
    /// Short policy name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Decides what to start/resize right now. Implementations must not
    /// assume their actions are applied — the scheduler validates them.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction>;
}

/// The admission key shared by all built-in policies: priority (desc),
/// submission time, id. The id component makes the key total and unique
/// per job, so the ordered map below never collides.
type AdmissionKey = (std::cmp::Reverse<u32>, TimeUs, u64);

fn admission_key(job: &QueuedJob) -> AdmissionKey {
    (std::cmp::Reverse(job.priority), job.submit_us, job.id)
}

/// Incrementally maintained admission order over the waiting queue:
/// an ordered map from the admission key —
/// `(Reverse(priority), submit_us, id)` — to the job's position in the
/// driver's queue vector.
///
/// The key of a waiting job is invariant between submission and
/// admission/requeue (priority and submit time never change while it
/// waits), so the order is maintained in O(log queue) per queue **event**
/// (submit / admitted start / requeue) and a scheduling pass never pays an
/// O(queue log queue) sort: it walks [`positions`](Self::positions), which
/// come out sorted by construction. The mapped positions let the driver
/// store its queue as an unordered `Vec` (and remove admitted jobs with a
/// `swap_remove` + one [`set_pos`](Self::set_pos) fixup).
///
/// [`PolicyScheduler`](crate::PolicyScheduler) owns one next to its
/// [`SchedIndex`] and hands it to policies through [`ClusterView::order`];
/// in debug builds every tick checks that it covers the queue exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionOrder {
    by_key: BTreeMap<AdmissionKey, usize>,
    key_by_id: HashMap<u64, AdmissionKey>,
}

impl AdmissionOrder {
    /// An empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order over `queue`, each job tracked at its index — how a
    /// [`ClusterView`] is built outside a
    /// [`PolicyScheduler`](crate::PolicyScheduler) (tests, benches).
    /// Job ids must be distinct, as [`insert`](Self::insert) requires.
    pub fn from_queue(queue: &[QueuedJob]) -> Self {
        let mut order = Self::new();
        for (pos, job) in queue.iter().enumerate() {
            order.insert(job, pos);
        }
        order
    }

    /// Number of tracked jobs.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` when no job is tracked.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Tracks `job`, stored at position `pos` of the driver's queue vector.
    ///
    /// Each id is tracked at most once: re-inserting a tracked id replaces
    /// its entry, dropping the older key and position. The driver never
    /// does that — [`PolicyScheduler`](crate::PolicyScheduler) rejects an
    /// id that is already waiting with
    /// [`SlurmError::DuplicateJob`](crate::SlurmError::DuplicateJob) before
    /// it inserts.
    pub fn insert(&mut self, job: &QueuedJob, pos: usize) {
        let key = admission_key(job);
        if let Some(stale) = self.key_by_id.insert(job.id, key) {
            self.by_key.remove(&stale);
        }
        self.by_key.insert(key, pos);
    }

    /// Stops tracking `job_id`, returning the queue position it mapped to.
    pub fn remove(&mut self, job_id: u64) -> Option<usize> {
        let key = self.key_by_id.remove(&job_id)?;
        self.by_key.remove(&key)
    }

    /// Records that `job_id` now lives at `pos` of the queue vector (the
    /// `swap_remove` fixup for the job moved into the freed hole).
    pub fn set_pos(&mut self, job_id: u64, pos: usize) {
        if let Some(key) = self.key_by_id.get(&job_id) {
            if let Some(p) = self.by_key.get_mut(key) {
                *p = pos;
            }
        }
    }

    /// The queue position of `job_id`, when tracked.
    pub fn position_of(&self, job_id: u64) -> Option<usize> {
        self.by_key.get(self.key_by_id.get(&job_id)?).copied()
    }

    /// Queue positions in admission order.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_key.values().copied()
    }

    /// The jobs of `queue` — the queue this order was maintained over — in
    /// admission order: one scheduling pass's walk, with no sort and no
    /// allocation.
    pub(crate) fn jobs<'s, 'q: 's>(
        &'s self,
        queue: &'q [QueuedJob],
    ) -> impl Iterator<Item = &'q QueuedJob> + 's {
        self.by_key.values().filter_map(|&pos| queue.get(pos))
    }

    /// `true` when the order tracks exactly the jobs of `queue`: one entry
    /// per job, each keyed by the job's current admission key and mapping
    /// to the position that holds it. The controller's debug oracle.
    pub(crate) fn covers(&self, queue: &[QueuedJob]) -> bool {
        self.by_key.len() == queue.len()
            && self.key_by_id.len() == queue.len()
            && self.by_key.iter().all(|(key, &pos)| {
                queue.get(pos).is_some_and(|job| {
                    admission_key(job) == *key && self.key_by_id.get(&job.id) == Some(key)
                })
            })
    }
}

/// One pass-local adjustment layered over a base [`ReleaseTimeline`] during
/// a forecast walk: at `end_us`, each node of `node_indices` releases
/// `delta` more (new starts of this pass, `+width`) or fewer (victims this
/// pass shrank, `width − original_width` ≤ 0) CPUs than the base promises.
struct TimelineDelta<'a> {
    end_us: TimeUs,
    node_indices: &'a [usize],
    delta: i64,
}

/// Earliest time ≥ `now_us` at which a `nodes × width` allocation fits:
/// the `oracle::earliest_release_fit` forecast computed by walking a
/// maintained [`ReleaseTimeline`] (plus a sorted pass-local `overlay`) with
/// a running count of nodes at ≥ `width` free CPUs, instead of sorting the
/// holders and probing a first-fit per candidate instant.
///
/// Decision equivalence with the replay, instant by instant: the candidate
/// instants are the distinct estimated ends (base keys ∪ overlay ends —
/// exactly the estimated holders' ends); all deltas at one instant apply
/// before it is probed (the replay's equal-end grouping); instants ≤
/// `now_us` release without becoming candidates (overdue estimates); and a
/// first-fit at `width` succeeds **iff** at least `nodes` nodes carry ≥
/// `width` free CPUs — so the count crossing the threshold at a future
/// instant is exactly the replay's first successful probe, and placement is
/// computed once, there. Base deltas apply before overlay deltas within an
/// instant: a shrunk victim's negative overlay correction lands on top of
/// the base release it corrects, so the running free count never
/// underflows. O(nodes + total deltas) per forecast.
// ALLOC(pass): O(nodes) scratch free vector per timeline probe.
// PANIC: timeline deltas index nodes within the scratch vector they were
// recorded for; the eligibility count is exact before `fit_first` runs.
fn earliest_timeline_fit(
    nodes: usize,
    width: usize,
    free: &[usize],
    timeline: &ReleaseTimeline,
    overlay: &[TimelineDelta<'_>],
    now_us: TimeUs,
) -> Option<(TimeUs, Vec<usize>)> {
    if nodes == 0 {
        return None; // a zero-node fit is never satisfied, like fit_first
    }
    let mut eligible = free.iter().filter(|&&f| f >= width).count();
    if eligible >= nodes {
        let found = fit_first(free, nodes, width).expect("eligible count is exact");
        return Some((now_us, found));
    }
    let mut free_at = free.to_vec();
    let raise = |free_at: &mut [usize], eligible: &mut usize, n: usize, delta: i64| {
        let was = free_at[n] >= width;
        free_at[n] = (free_at[n] as i64 + delta) as usize;
        match (was, free_at[n] >= width) {
            (false, true) => *eligible += 1,
            (true, false) => *eligible -= 1,
            _ => {}
        }
    };
    let mut base = timeline.by_end.iter().peekable();
    let mut over = overlay.iter().peekable();
    loop {
        let t = match (base.peek(), over.peek()) {
            (None, None) => return None,
            (Some((&bt, _)), None) => bt,
            (None, Some(o)) => o.end_us,
            (Some((&bt, _)), Some(o)) => bt.min(o.end_us),
        };
        if let Some((&bt, deltas)) = base.peek() {
            if bt == t {
                for (&n, &w) in deltas.iter() {
                    raise(&mut free_at, &mut eligible, n, w as i64);
                }
                base.next();
            }
        }
        while let Some(o) = over.peek() {
            if o.end_us != t {
                break;
            }
            for &n in o.node_indices {
                raise(&mut free_at, &mut eligible, n, o.delta);
            }
            over.next();
        }
        if t > now_us && eligible >= nodes {
            let found = fit_first(&free_at, nodes, width).expect("eligible count is exact");
            return Some((t, found));
        }
    }
}

/// TEST ONLY — a deliberately unsound probe-memo mode that reintroduces one
/// of the hazards the dirty tracking exists to prevent.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hazard {
    /// The "missed release" hazard: trust any recorded signature, ignoring
    /// the generations entirely.
    StaleSkip,
    /// The "widened skip" hazard (backfill): on a memo-valid blocked head,
    /// keep admitting FCFS followers instead of stopping, letting a later
    /// candidate leapfrog the head without the end-before-reservation
    /// proof.
    SkipContinues,
}

/// One recorded probe failure: the dirty generations of the width classes
/// whose node counts proved the job could not start. Valid (skippable)
/// while those generations are unchanged — no node has crossed up into a
/// class the job needs, so the counts cannot have grown and the failure
/// still holds.
#[derive(Debug, Clone, Copy)]
struct ProbeSig {
    /// [`SchedIndex::free_gen`] at the job's request width when the
    /// count-proven fit failure was recorded.
    fit_gen: u64,
    /// [`SchedIndex::avail_gen`] at the job's shrink floor when the
    /// count-proven shrink-admission failure was recorded (malleable pass
    /// only; `None` for first-fit/backfill signatures).
    avail_gen: Option<u64>,
}

/// Fibonacci-mix hasher for the probe memo's job-id keys. The memo is
/// consulted once per waiting job per pass, so on a deep queue the default
/// SipHash costs more than the histogram-guarded probe the memo exists to
/// skip; one multiply plus an xor-shift (to feed the table's low bucket
/// bits) is collision-adequate for sequential ids at a fraction of the
/// cost.
#[derive(Clone, Default)]
struct JobIdHasher(u64);

impl std::hash::Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type JobIdBuildHasher = std::hash::BuildHasherDefault<JobIdHasher>;

/// Per-policy memo of the waiting jobs' last failed probes, keyed by job id.
/// Sound only against the index instance it recorded from — `sync_epoch`
/// clears it when the driver's index was rebuilt.
#[derive(Debug, Clone, Default)]
struct ProbeMemo {
    epoch: u64,
    sigs: HashMap<u64, ProbeSig, JobIdBuildHasher>,
}

impl ProbeMemo {
    /// Drops every signature when `epoch` is not the one they were recorded
    /// against (a fresh index has fresh, all-zero generations that must not
    /// validate old signatures).
    fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.sigs.clear();
        }
    }

    fn record(&mut self, job_id: u64, fit_gen: u64, avail_gen: Option<u64>) {
        self.sigs.insert(job_id, ProbeSig { fit_gen, avail_gen });
    }

    fn forget(&mut self, job_id: u64) {
        self.sigs.remove(&job_id);
    }

    /// `true` when `job`'s recorded probe failure is provably still valid:
    /// a signature exists, the free generation at its request width is
    /// unchanged, no pass-local shrink raised free CPUs into that class
    /// (`raised`, the malleable pass's in-pass counters), and — for a
    /// malleable signature — the availability generation at its shrink
    /// floor is unchanged too.
    fn still_blocked(
        &self,
        job: &QueuedJob,
        index: &SchedIndex,
        raised: Option<&[u64]>,
        ignore_gens: bool,
    ) -> bool {
        let Some(sig) = self.sigs.get(&job.id) else {
            return false;
        };
        if ignore_gens {
            return true; // TEST ONLY: the unsound stale-skip hazard
        }
        if index.free_gen(job.cpus_per_node) != sig.fit_gen {
            return false;
        }
        if raised.is_some_and(|r| r.get(job.cpus_per_node).copied().unwrap_or(0) != 0) {
            return false;
        }
        match sig.avail_gen {
            None => true,
            Some(gen) => {
                let floor = shrink_floor(job.min_cpus_per_node, job.cpus_per_node);
                index.avail_gen(floor) == gen
            }
        }
    }
}

/// Exact per-value histogram over a bounded CPU-count vector (free CPUs, or
/// free + reclaimable; both are ≤ the node capacity): `counts[v]` nodes
/// currently carry value `v`. [`count_ge`](Self::count_ge) answers "how many
/// nodes offer at least `w`" in O(node capacity) — the O(1)-per-node-count
/// admission guard that lets a scheduling pass reject a doomed fit or
/// shrink probe without an O(nodes) scan. The guard is exact in the reject
/// direction (a first-fit at `width` succeeds iff ≥ `nodes` nodes qualify),
/// so skipping the scan never changes a decision.
#[derive(Clone)]
struct FreeHist {
    counts: Vec<usize>,
}

impl FreeHist {
    /// Histogram of `values` (each ≤ `cap`), counting only nodes where
    /// `tracked` holds.
    // ALLOC(pass): bucket vector sized by the node-CPU cap, once per memo.
    // PANIC: every tracked value is ≤ cap by the caller contract.
    fn new(values: &[usize], cap: usize, tracked: impl Fn(usize) -> bool) -> Self {
        let mut counts = vec![0; cap + 1];
        for (n, &v) in values.iter().enumerate() {
            if tracked(n) {
                counts[v] += 1;
            }
        }
        FreeHist { counts }
    }

    /// Number of tracked nodes with value ≥ `v` (0 when `v` exceeds the
    /// capacity bound).
    fn count_ge(&self, v: usize) -> usize {
        self.counts.get(v..).map_or(0, |tail| tail.iter().sum())
    }

    /// A tracked node's value changed from `old` to `new`.
    // PANIC: old/new widths stay within the cap the histogram was sized with.
    fn update(&mut self, old: usize, new: usize) {
        self.counts[old] -= 1;
        self.counts[new] += 1;
    }
}

/// First-fit placement: the first `nodes` nodes (in index order) with at
/// least `width` free CPUs. Two passes — find the last needed node first,
/// then collect — so a failed probe performs no allocation at all (the
/// malleable pass probes far more often than it places).
// ALLOC(pass): the result vector, sized to the requested node count.
// PANIC: scans indices below `free.len()`.
fn fit_first(free: &[usize], nodes: usize, width: usize) -> Option<Vec<usize>> {
    if nodes == 0 {
        return None;
    }
    let mut seen = 0;
    let mut last = 0;
    for (idx, &f) in free.iter().enumerate() {
        if f >= width {
            seen += 1;
            if seen == nodes {
                last = idx;
                break;
            }
        }
    }
    if seen < nodes {
        return None;
    }
    let mut selected = Vec::with_capacity(nodes);
    for (idx, &f) in free[..=last].iter().enumerate() {
        if f >= width {
            selected.push(idx);
        }
    }
    Some(selected)
}

/// The baseline: FCFS order, first-fit placement, head-of-line blocking.
///
/// This is the unmodified-controller behaviour of the paper's Section 5
/// lifted to CPU granularity: a job starts only at its full request width,
/// and a blocked head job blocks everything behind it.
///
/// The pass walks the maintained [`AdmissionOrder`] (no queue sort) and
/// keeps a `ProbeMemo`: when the head's fit failure was count-proven
/// (`fit_first` fails iff fewer than `nodes` nodes carry ≥ `width` free
/// CPUs) and the free generation of its width class is unchanged, the pass
/// ends without re-probing — head-of-line blocking means a still-blocked
/// head blocks exactly as before, so the skip is decision-identical.
#[derive(Debug, Default, Clone)]
pub struct FirstFitPolicy {
    memo: ProbeMemo,
    #[cfg(test)]
    hazard: Option<Hazard>,
}

impl FirstFitPolicy {
    /// TEST ONLY: trusts stale signatures (hazard: a missed release).
    #[cfg(test)]
    fn unsound_stale_skip() -> Self {
        FirstFitPolicy {
            memo: ProbeMemo::default(),
            hazard: Some(Hazard::StaleSkip),
        }
    }
}

impl SchedulerPolicy for FirstFitPolicy {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    // ALLOC(pass): one candidate node vector per admission attempt.
    // PANIC: fit results index the view's free vector.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        _now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let index = view.index;
        self.memo.sync_epoch(index.epoch());
        #[cfg(test)]
        let ignore_gens = self.hazard == Some(Hazard::StaleSkip);
        #[cfg(not(test))]
        let ignore_gens = false;
        // Borrowed until the first start: a fully blocked pass (the common
        // case under load) allocates nothing at all.
        let mut free: Cow<'_, [usize]> = Cow::Borrowed(view.free());
        let mut actions = Vec::new();
        for job in view.order.jobs(queue) {
            if self.memo.still_blocked(job, index, None, ignore_gens) {
                break; // provably still the blocked head
            }
            match fit_first(&free, job.nodes, job.cpus_per_node) {
                Some(node_indices) => {
                    let free = free.to_mut();
                    for &idx in &node_indices {
                        free[idx] -= job.cpus_per_node;
                    }
                    self.memo.forget(job.id);
                    actions.push(SchedulerAction::Start {
                        job_id: job.id,
                        node_indices,
                        cpus_per_node: job.cpus_per_node,
                    });
                }
                None => {
                    // The failure is count-proven (fit_first is exact), and
                    // this pass's own starts only lowered free CPUs, so the
                    // recorded generation over-approximates the blocked
                    // state — sound to skip on while unchanged.
                    self.memo
                        .record(job.id, index.free_gen(job.cpus_per_node), None);
                    break;
                }
            }
        }
        actions
    }
}

/// Conservative EASY-style backfill.
///
/// Jobs start in FCFS order at full width. When the head job does not fit,
/// its start is *reserved* at the earliest instant enough CPUs free up
/// (using the running jobs' expected completion times), and later queued
/// jobs may start out of order only when they declare a time limit and are
/// guaranteed to finish before that reservation — so the head job is never
/// delayed. If any running job on the needed CPUs has no completion
/// estimate, no reservation exists and nothing is backfilled.
///
/// The pass walks the maintained [`AdmissionOrder`] (no queue sort) and
/// keeps a `ProbeMemo` over count-proven fit failures: a memo-valid FCFS
/// job ends the FCFS phase exactly like a re-probed failure would (it
/// becomes the reserved head — never leapfrogged, because the reservation
/// and the end-before-it guarantee are recomputed every pass), and a
/// memo-valid backfill candidate is passed over exactly like its re-probed
/// count failure would be.
#[derive(Debug, Default, Clone)]
pub struct BackfillPolicy {
    memo: ProbeMemo,
    #[cfg(test)]
    hazard: Option<Hazard>,
}

impl BackfillPolicy {
    /// TEST ONLY: on a memo-valid blocked head, keeps admitting followers
    /// (hazard: a stale-signature candidate leapfrogs the EASY head).
    #[cfg(test)]
    fn unsound_skip_continues() -> Self {
        BackfillPolicy {
            memo: ProbeMemo::default(),
            hazard: Some(Hazard::SkipContinues),
        }
    }
}

impl SchedulerPolicy for BackfillPolicy {
    fn name(&self) -> &'static str {
        "backfill"
    }

    // ALLOC(pass): backfill working set — shadow free vector, started-job
    // list and timeline overlay are rebuilt per pass.
    // PANIC: reservation and fit indices stay within the shadow free vector.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let index = view.index;
        self.memo.sync_epoch(index.epoch());
        #[cfg(test)]
        let (ignore_gens, continue_past_head) = (
            self.hazard == Some(Hazard::StaleSkip),
            self.hazard == Some(Hazard::SkipContinues),
        );
        #[cfg(not(test))]
        let (ignore_gens, continue_past_head) = (false, false);
        let mut free = view.free().to_vec();
        // Exact per-pass reject guard: a fit at `width` exists iff enough
        // nodes carry ≥ `width` free CPUs, so a failed count skips the
        // O(nodes) probe without changing any decision.
        let mut hist = FreeHist::new(&free, view.node_cpus, |_| true);
        let mut actions = Vec::new();
        // Only the jobs this very call starts are tracked here — the running
        // jobs' releases come off the release timeline below, so the pass
        // never clones the running allocations.
        let mut started: Vec<(Option<TimeUs>, Vec<usize>, usize)> = Vec::new();
        let start = |job: &QueuedJob,
                     node_indices: Vec<usize>,
                     free: &mut [usize],
                     hist: &mut FreeHist,
                     actions: &mut Vec<SchedulerAction>,
                     started: &mut Vec<(Option<TimeUs>, Vec<usize>, usize)>| {
            for &idx in &node_indices {
                hist.update(free[idx], free[idx] - job.cpus_per_node);
                free[idx] -= job.cpus_per_node;
            }
            started.push((
                job.expected_duration_us.map(|d| now_us.saturating_add(d)),
                node_indices.clone(),
                job.cpus_per_node,
            ));
            actions.push(SchedulerAction::Start {
                job_id: job.id,
                node_indices,
                cpus_per_node: job.cpus_per_node,
            });
        };
        let mut ordered = view.order.jobs(queue);
        let mut head = None;
        for job in ordered.by_ref() {
            if self.memo.still_blocked(job, index, None, ignore_gens) {
                if continue_past_head {
                    continue; // TEST ONLY: the widened-skip hazard
                }
                head = Some(job); // still blocked: FCFS phase ends here
                break;
            }
            let fit = if hist.count_ge(job.cpus_per_node) >= job.nodes {
                fit_first(&free, job.nodes, job.cpus_per_node)
            } else {
                None
            };
            match fit {
                Some(node_indices) => {
                    self.memo.forget(job.id);
                    start(
                        job,
                        node_indices,
                        &mut free,
                        &mut hist,
                        &mut actions,
                        &mut started,
                    );
                }
                None => {
                    // Count-proven: the guard and fit_first agree exactly,
                    // and this pass only lowered free CPUs.
                    self.memo
                        .record(job.id, index.free_gen(job.cpus_per_node), None);
                    head = Some(job);
                    break;
                }
            }
        }
        let Some(head) = head else {
            return actions;
        };
        // Reserve the head job's start at the earliest provable fit: walk
        // the maintained release timeline overlaid with this pass's own
        // starts.
        let mut overlay: Vec<TimelineDelta<'_>> = started
            .iter()
            .filter_map(|(end, node_indices, width)| {
                end.map(|end_us| TimelineDelta {
                    end_us,
                    node_indices,
                    delta: *width as i64,
                })
            })
            .collect();
        overlay.sort_by_key(|d| d.end_us);
        let Some((reservation_us, _)) = earliest_timeline_fit(
            head.nodes,
            head.cpus_per_node,
            &free,
            index.timeline(),
            &overlay,
            now_us,
        ) else {
            return actions; // no provable reservation: nothing may jump
        };
        for job in ordered {
            let Some(duration) = job.expected_duration_us else {
                continue; // no limit declared: could delay the reservation
            };
            if now_us.saturating_add(duration) > reservation_us {
                continue;
            }
            // The memo check sits behind the per-pass duration/window tests
            // (those depend on the reservation, recomputed every pass, and
            // cannot be memoized) and replaces only the count/fit probe — a
            // memo-valid candidate is passed over exactly like a re-probed
            // count failure, so the outcome is identical either way.
            if self.memo.still_blocked(job, index, None, ignore_gens) {
                continue;
            }
            if hist.count_ge(job.cpus_per_node) < job.nodes {
                self.memo
                    .record(job.id, index.free_gen(job.cpus_per_node), None);
                continue; // exact reject: no fit exists, skip the probe
            }
            if let Some(node_indices) = fit_first(&free, job.nodes, job.cpus_per_node) {
                self.memo.forget(job.id);
                start(
                    job,
                    node_indices,
                    &mut free,
                    &mut hist,
                    &mut actions,
                    &mut started,
                );
            }
        }
        actions
    }
}

/// The DROM-enabled malleable policy: shrink running jobs to admit queued
/// work, drain nodes for jobs that cannot be admitted by shrinking, and
/// re-expand shrunk jobs when CPUs free up.
///
/// Admission is FCFS. A queued job starts at full width when it fits; when
/// it does not, the policy picks the nodes with the most *available* CPUs
/// (free plus what running malleable jobs could give up), shrinks victims
/// greedily — cheapest marginal rate loss per reclaimed CPU first, per the
/// donors' [`SpeedupCurve`]s, so a saturated job donates before one whose
/// CPUs still carry throughput — and starts the job at the widest per-node
/// width the selection supports. Three bounds keep this healthy:
///
/// * **Shrink depth**: no job is ever pushed below half its request (nor
///   below its declared floor). Unbounded shrink-to-admit degenerates into
///   deep time-sharing that fragments the cluster and hurts every metric —
///   the bound is the paper's two-jobs-per-node equipartition generalised
///   to a width rule (measured in `docs/scheduling.md`).
/// * **Shrink economics**: an admission that requires shrinking proceeds
///   only when the newcomer's relative rate gain covers the donors'
///   aggregate relative rate loss (both normalised so one linear CPU is
///   worth [`SpeedupCurve::FP`]); otherwise the shrinks are rolled back and
///   the job waits for a drain reservation instead. A curve-less cluster
///   never fails the check — every donated CPU costs exactly what an
///   admitted CPU gains — so linear traces replay the pre-curve policy
///   byte for byte.
/// * **Head reservation**: when even shrinking cannot admit the head job
///   (typically a rigid or cluster-wide one), the policy reserves the nodes
///   that drain soonest — no later start and no expansion may touch them
///   unless it provably completes before the reservation — and keeps
///   admitting queue followers on the rest of the cluster. Without the
///   drain, a malleable-packed cluster never again offers a fully idle
///   node and rigid jobs starve behind it.
///
/// After admissions, every unsaturated malleable job running below its
/// request is expanded into the remaining (non-reserved) free CPUs, one CPU
/// per node per sweep — steepest marginal gain first within a sweep, and
/// jobs whose curve is flat at their current width are skipped entirely
/// (free CPUs are never wasted on a saturated job). This is how jobs regain
/// their CPUs when a co-runner completes.
///
/// # Complexity
///
/// The pass runs over indexed state (`PassState`, seeded from the driver's
/// event-maintained [`SchedIndex`]): victim selection reads the per-node
/// donor list, availability reads the per-node free + reclaimable summary,
/// and the one reservation mask of the pass is shared by every admission
/// attempt. One pass is O(running + queue × nodes) instead of the reference
/// scan's O(queue × nodes × running) — see [`oracle::MalleableScanPolicy`] and
/// `docs/scheduling.md` for the measured difference.
#[derive(Debug, Clone)]
pub struct MalleablePolicy {
    /// Fixed-point tolerance on the shrink-economics gate
    /// ([`SpeedupCurve::FP`] = 1.0): a shrinking admission is kept when
    /// `gain × tolerance ≥ loss`. The default, exactly `FP`, reduces to the
    /// strict `gain ≥ loss` rule; a larger tolerance trades aggregate
    /// throughput for admitting (and thus responding to) more jobs sooner.
    loss_tolerance_fp: u64,
    memo: ProbeMemo,
    #[cfg(test)]
    hazard: Option<Hazard>,
}

impl Default for MalleablePolicy {
    fn default() -> Self {
        Self::with_loss_tolerance(SpeedupCurve::FP)
    }
}

impl MalleablePolicy {
    /// A policy whose shrink-economics gate accepts up to
    /// `tolerance_fp / FP` of relative-rate loss per unit of admission gain.
    /// `with_loss_tolerance(SpeedupCurve::FP)` is exactly the default gate.
    pub fn with_loss_tolerance(tolerance_fp: u64) -> Self {
        MalleablePolicy {
            loss_tolerance_fp: tolerance_fp,
            memo: ProbeMemo::default(),
            #[cfg(test)]
            hazard: None,
        }
    }

    /// TEST ONLY: trusts stale signatures (hazard: a missed release).
    #[cfg(test)]
    fn unsound_stale_skip() -> Self {
        MalleablePolicy {
            hazard: Some(Hazard::StaleSkip),
            ..Self::default()
        }
    }
}

/// The width below which the malleable policy will not push a job: its
/// declared floor, but never less than half its request.
fn shrink_floor(declared_floor: usize, request: usize) -> usize {
    declared_floor.max(request.div_ceil(2)).max(1)
}

/// Mutable working copy of one running (or newly started) job during a
/// [`MalleablePolicy::schedule`] pass. Borrows the job's speedup curve so
/// both malleable implementations price donations and expansions through
/// the exact same helpers — decision equivalence by construction. Node sets
/// are borrowed from the view for already-running jobs (a pass never moves
/// a job between nodes, and cloning ~running Vecs per pass dominated the
/// seeding cost at 1024+ nodes) and owned only for jobs started this pass.
struct Slot<'a> {
    job_id: u64,
    node_indices: Cow<'a, [usize]>,
    width: usize,
    original_width: Option<usize>, // None for jobs started this pass
    floor: usize,
    request: usize,
    malleable: bool,
    expected_end_us: Option<TimeUs>,
    speedup: Option<&'a SpeedupCurve>,
    /// `true` once the pass reserved a node this job overlaps (cached so the
    /// indexed pass never re-scans `node_indices` per candidate victim).
    reserved_overlap: bool,
}

impl Slot<'_> {
    // PANIC: reservation masks are node-count sized like every per-node vector.
    fn on_reserved(&self, reserved: Option<&[bool]>) -> bool {
        reserved.is_some_and(|r| self.node_indices.iter().any(|&n| r[n]))
    }

    fn shrink_floor(&self) -> usize {
        shrink_floor(self.floor, self.request)
    }

    /// CPUs per node above the shrink floor.
    fn spare(&self) -> usize {
        self.width.saturating_sub(self.shrink_floor())
    }

    /// Relative marginal cost of the next CPU this slot would donate —
    /// [`SpeedupCurve::FP`] exactly for a curve-less linear job.
    fn donor_cost(&self) -> u64 {
        match self.speedup {
            Some(curve) => curve.relative_marginal_cost(self.width),
            None => SpeedupCurve::FP,
        }
    }

    /// CPUs this slot donates per carve-out step: the equal-marginal run
    /// under its shrink floor (all of its spare for a linear job, so the
    /// curve-less donation chunks are unchanged).
    fn donor_run(&self) -> usize {
        match self.speedup {
            Some(curve) => curve.equal_cost_run(self.width, self.spare()),
            None => self.spare(),
        }
    }

    /// CPUs this slot could give up without losing any throughput.
    fn zero_cost_spare(&self) -> usize {
        match self.speedup {
            Some(curve) => curve.zero_cost_run(self.width, self.spare()),
            None => 0,
        }
    }

    /// Relative marginal gain of one more CPU per node —
    /// [`SpeedupCurve::FP`] for a curve-less linear job.
    fn expand_gain(&self) -> u64 {
        match self.speedup {
            Some(curve) => curve.relative_marginal_cost(self.width + 1),
            None => SpeedupCurve::FP,
        }
    }

    /// `true` when more CPUs cannot speed this job up at all.
    fn saturated(&self) -> bool {
        self.speedup.is_some_and(|c| c.saturated_at(self.width))
    }
}

/// Relative rate (fixed-point) of `job` granted `width` CPUs per node —
/// `width × FP` for a curve-less linear job. Multiplied by the job's node
/// count, this is the gain side of the shrink-economics comparison.
fn admission_gain(job: &QueuedJob, width: usize) -> u64 {
    match &job.speedup {
        Some(curve) => curve.relative_rate(width),
        None => width as u64 * SpeedupCurve::FP,
    }
}

/// Expected duration of a malleable job granted `width` CPUs per node
/// instead of its full `request`, under the linear-speedup model — the
/// fallback when a job carries no [`SpeedupCurve`] (all estimate sites go
/// through [`QueuedJob::scaled_duration_us`], which dispatches). Rounds
/// **up**: truncating here made the estimate optimistic, and an optimistic
/// completion estimate lets the policy place a drain reservation at an
/// instant the shrunk job itself still occupies — a reservation violated by
/// the very job the policy shrank. Shared with
/// `PolicyScheduler::apply_start` so the controller's recorded estimate can
/// never diverge from the one the policy planned around.
pub(crate) fn scaled_duration(duration_us: TimeUs, request: usize, width: usize) -> TimeUs {
    duration_us
        .saturating_mul(request as u64)
        .div_ceil(width.max(1) as u64)
}

/// The indexed working state of one [`MalleablePolicy::schedule`] pass:
/// per-node free and reclaimable CPUs plus the per-node donor index (slot
/// positions of the malleable jobs holding CPUs there), every one maintained
/// incrementally as the pass shrinks victims and admits jobs.
///
/// Seeded from the view's event-maintained [`SchedIndex`], so the pass never
/// rescans the running jobs per node — victim selection reads
/// `donors[node]`, availability reads `free[node] + reclaim[node]`.
struct PassState<'a> {
    node_cpus: usize,
    free: Vec<usize>,
    reclaim: Vec<usize>,
    cheap: Vec<usize>,
    donors: Vec<Vec<usize>>,
    slots: Vec<Slot<'a>>,
    /// The index's release timeline at pass start — the drain-reservation
    /// forecast walks it with this pass's own changes overlaid.
    timeline: &'a ReleaseTimeline,
    /// Per-value histograms of free and free+reclaimable CPUs — the exact
    /// reject guards that let admission attempts skip O(nodes) probes. The
    /// `open_*` pair is restricted to non-reserved nodes; until
    /// [`apply_reservation`](Self::apply_reservation) rebuilds them they
    /// track all nodes, identically to the unrestricted pair.
    free_hist: FreeHist,
    avail_hist: FreeHist,
    open_free_hist: FreeHist,
    open_avail_hist: FreeHist,
    /// Number of non-reserved nodes (all of them until a reservation lands).
    open_nodes: usize,
    /// In-pass dirty counters, mirroring [`SchedIndex::free_gen`] for the
    /// pass-local free vector: `raised[w]` counts the upward crossings into
    /// width class `w` this pass's own shrinks caused. A memo skip is valid
    /// only while `raised[request] == 0` — the index generations cannot see
    /// pass-local movement. Never decremented: an unshrink leaves the
    /// counter high, which can only disable a skip (conservative).
    raised: Vec<u64>,
    /// Plain (unreserved) availability — per-node free + reclaim as the
    /// *index* accounts it, i.e. ignoring the reservation's donor stripping
    /// — plus its histogram. `None` until a reservation lands (before that,
    /// `avail_hist` *is* plain). Probe-memo availability failures must be
    /// proven against this state, not the stripped one: the reservation
    /// mask is recomputed every pass and can change with no generation
    /// bump, so a stripped-count failure is not stable — a plain-count
    /// failure is (plain availability only falls as jobs start).
    plain_avail: Option<(Vec<usize>, FreeHist)>,
}

impl<'a> PassState<'a> {
    // ALLOC(pass): the O(nodes) pass seeding ROADMAP names as the next perf
    // wall — clones the index's free, reclaim and cheap columns, donor
    // lists and slot table every pass; the work-list is a reusable scratch
    // arena so steady-state passes stop paying this.
    // PANIC: seeded vectors index nodes of the fixed cluster size.
    fn new(view: &ClusterView<'a>) -> Self {
        let index = view.index;
        let slots: Vec<Slot<'a>> = view
            .running
            .iter()
            .map(|r| Slot {
                job_id: r.alloc.job_id,
                node_indices: Cow::Borrowed(r.alloc.node_indices.as_slice()),
                width: r.alloc.cpus_per_node,
                original_width: Some(r.alloc.cpus_per_node),
                floor: r.job.min_cpus_per_node,
                request: r.job.cpus_per_node,
                malleable: r.job.malleable,
                expected_end_us: r.expected_end_us,
                speedup: r.job.speedup.as_ref(),
                reserved_overlap: false,
            })
            .collect();
        let free = view.free().to_vec();
        let reclaim = index.reclaim().to_vec();
        let cheap = index.cheap().to_vec();
        let mut donors = vec![Vec::new(); free.len()];
        // The id → slot-position map costs O(running) hashing, so it is
        // built only on the first node that actually lists donors (a
        // rigid-heavy cluster skips it entirely).
        let mut by_id: Option<HashMap<u64, usize>> = None;
        for (node, donors) in donors.iter_mut().enumerate() {
            let ids = index.donors(node);
            if ids.is_empty() {
                continue;
            }
            let by_id = by_id.get_or_insert_with(|| {
                slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.job_id, i))
                    .collect()
            });
            // Donor ids are kept in running order, so the mapped slot
            // positions come out ascending — the tie-break order the
            // reference scan uses.
            donors.extend(ids.iter().map(|id| by_id[id]));
        }
        let avail: Vec<usize> = free.iter().zip(&reclaim).map(|(f, r)| f + r).collect();
        let free_hist = FreeHist::new(&free, view.node_cpus, |_| true);
        let avail_hist = FreeHist::new(&avail, view.node_cpus, |_| true);
        PassState {
            node_cpus: view.node_cpus,
            open_free_hist: free_hist.clone(),
            open_avail_hist: avail_hist.clone(),
            free_hist,
            avail_hist,
            open_nodes: free.len(),
            free,
            reclaim,
            cheap,
            donors,
            slots,
            timeline: index.timeline(),
            raised: vec![0; view.node_cpus + 1],
            plain_avail: None,
        }
    }

    /// [`fit_first`] behind the exact histogram reject guard: when fewer
    /// than `nodes` nodes carry ≥ `width` free CPUs, no first-fit exists and
    /// the O(nodes) probe is skipped without changing any decision.
    fn guarded_fit_first(&self, nodes: usize, width: usize) -> Option<Vec<usize>> {
        if self.free_hist.count_ge(width) < nodes {
            return None;
        }
        fit_first(&self.free, nodes, width)
    }

    /// [`fit_first_masked`] behind the same guard, counted over open
    /// (non-reserved) nodes only.
    fn guarded_fit_first_masked(
        &self,
        reserved: &[bool],
        nodes: usize,
        width: usize,
    ) -> Option<Vec<usize>> {
        if self.open_free_hist.count_ge(width) < nodes {
            return None;
        }
        fit_first_masked(&self.free, reserved, nodes, width)
    }

    /// The donor on `node` whose next donated CPU costs the least relative
    /// rate (per its [`SpeedupCurve`] — a saturated tail costs nothing),
    /// excluding jobs overlapping a reserved node (slowing one down would
    /// push its completion — and the reservation — later). Ties go to the
    /// donor with the most spare above its shrink floor, then to the
    /// earliest-started job — so on a curve-less cluster, where every cost
    /// is FP, the rule reduces exactly to the pre-curve widest-donor order.
    /// The reference scan uses the same key.
    // PANIC: per-node columns are sized to the cluster's node count.
    fn best_donor(&self, node: usize) -> Option<usize> {
        self.donors[node]
            .iter()
            .copied()
            .filter(|&i| {
                let s = &self.slots[i];
                s.width > s.shrink_floor() && !s.reserved_overlap
            })
            .min_by_key(|&i| {
                let s = &self.slots[i];
                (s.donor_cost(), std::cmp::Reverse(s.spare()), i)
            })
    }

    /// Shrinks `victim` by `give` CPUs per node, releasing them on every one
    /// of its nodes. Only ever called on unreserved donors, so the spare the
    /// victim loses is spare the reclaim summary was counting — and every
    /// node it touches is open, so both free histograms move (availability,
    /// free + reclaim, is unchanged by a shrink).
    // PANIC: victim slot positions and node indices were recorded while
    // seeding this very pass.
    fn shrink_victim(&mut self, victim: usize, give: usize) {
        let old_cheap = self.slots[victim].zero_cost_spare();
        self.slots[victim].width -= give;
        let new_cheap = self.slots[victim].zero_cost_spare();
        for &n in self.slots[victim].node_indices.iter() {
            self.free_hist.update(self.free[n], self.free[n] + give);
            self.open_free_hist
                .update(self.free[n], self.free[n] + give);
            // The only pass-local upward free movement: flag the crossed
            // width classes so the probe memo stops skipping on them
            // (availability, free + reclaim, is unchanged by a shrink).
            bump_gens(&mut self.raised, self.free[n], self.free[n] + give);
            self.free[n] += give;
            self.reclaim[n] -= give;
            self.cheap[n] = self.cheap[n] - old_cheap + new_cheap;
        }
    }

    /// Rolls one [`shrink_victim`](Self::shrink_victim) back — the undo side
    /// of the shrink-economics check, restoring width, free, reclaim, the
    /// cheap summary and the histograms exactly.
    // PANIC: victim slot positions and node indices were recorded while
    // seeding this very pass.
    fn unshrink_victim(&mut self, victim: usize, give: usize) {
        let old_cheap = self.slots[victim].zero_cost_spare();
        self.slots[victim].width += give;
        let new_cheap = self.slots[victim].zero_cost_spare();
        for &n in self.slots[victim].node_indices.iter() {
            self.free_hist.update(self.free[n], self.free[n] - give);
            self.open_free_hist
                .update(self.free[n], self.free[n] - give);
            self.free[n] -= give;
            self.reclaim[n] += give;
            self.cheap[n] = self.cheap[n] - old_cheap + new_cheap;
        }
    }

    /// Carves `width` free CPUs out of every selected node by shrinking
    /// donors — cheapest marginal cost first, whole equal-cost runs at a
    /// time — then checks the shrink economics: `gain` (the newcomer's
    /// relative rate × its node count, both sides FP-normalised) must cover
    /// the donors' aggregate relative rate loss. On a failed check every
    /// shrink is rolled back, the pass state is exactly as before, and the
    /// caller falls through to the drain-reservation path.
    ///
    /// The loss counts each donated width-unit once (a donor's curve prices
    /// per-node width; CPUs freed on its other nodes are reabsorbed by
    /// expansion). On a curve-less cluster every donated CPU costs FP and
    /// the gives sum to at most `nodes × width`, so at the default tolerance
    /// `gain ≥ loss` always holds — the check can only fire when curves are
    /// present (or the tolerance is set below `FP`).
    // ALLOC(pass): one carve vector per admission candidate.
    // PANIC: carving walks node-count-sized columns; the unreachable! arm
    // guards an eligibility count proven exact before the walk.
    fn carve_out(
        &mut self,
        node_indices: &[usize],
        width: usize,
        gain: u128,
        tolerance_fp: u64,
    ) -> bool {
        let mut donations: Vec<(usize, usize)> = Vec::new();
        let mut loss: u128 = 0;
        for &node in node_indices {
            while self.free[node] < width {
                let needed = width - self.free[node];
                let Some(victim) = self.best_donor(node) else {
                    unreachable!("plan_admission guaranteed the capacity");
                };
                let give = needed.min(self.slots[victim].donor_run());
                loss += give as u128 * self.slots[victim].donor_cost() as u128;
                self.shrink_victim(victim, give);
                donations.push((victim, give));
            }
        }
        // Both sides carry one FP factor already; scaling gain by the
        // tolerance and loss by FP keeps the comparison in the same
        // fixed-point units (and exactly `gain ≥ loss` at the default).
        if gain * tolerance_fp as u128 >= loss * SpeedupCurve::FP as u128 {
            return true;
        }
        for &(victim, give) in donations.iter().rev() {
            self.unshrink_victim(victim, give);
        }
        false
    }

    /// Starts `job` on `node_indices` at `width`, entering it into the free,
    /// reclaim and donor indices (it may donate to later admissions of the
    /// same pass).
    // PANIC: start updates per-node columns at indices from the carve result.
    fn start(
        &mut self,
        job: &'a QueuedJob,
        node_indices: Vec<usize>,
        width: usize,
        now_us: TimeUs,
        reserved: Option<&[bool]>,
    ) {
        let idx = self.slots.len();
        let slot = Slot {
            job_id: job.id,
            node_indices: Cow::Owned(node_indices),
            width,
            original_width: None,
            floor: job.min_cpus_per_node,
            request: job.cpus_per_node,
            malleable: job.malleable,
            expected_end_us: job
                .expected_duration_us
                .map(|d| now_us.saturating_add(job.scaled_duration_us(d, width))),
            speedup: job.speedup.as_ref(),
            reserved_overlap: false,
        };
        let spare = slot.spare();
        let cheap = slot.zero_cost_spare();
        let overlap = slot.on_reserved(reserved);
        for &n in slot.node_indices.iter() {
            let old_free = self.free[n];
            let old_avail = self.free[n] + self.reclaim[n];
            self.free[n] -= width;
            if slot.malleable && !overlap {
                self.donors[n].push(idx);
                self.reclaim[n] += spare;
                self.cheap[n] += cheap;
            }
            let new_avail = self.free[n] + self.reclaim[n];
            self.free_hist.update(old_free, self.free[n]);
            self.avail_hist.update(old_avail, new_avail);
            // An ends-before-the-reservation start may land on reserved
            // nodes; those are absent from the open histograms.
            if !reserved.is_some_and(|m| m[n]) {
                self.open_free_hist.update(old_free, self.free[n]);
                self.open_avail_hist.update(old_avail, new_avail);
            }
            // Plain availability follows index semantics: a malleable start
            // donates its spare whether or not it overlaps the reservation.
            if let Some((plain, plain_hist)) = &mut self.plain_avail {
                let new_plain = plain[n] - width + if slot.malleable { spare } else { 0 };
                plain_hist.update(plain[n], new_plain);
                plain[n] = new_plain;
            }
        }
        self.slots.push(Slot {
            reserved_overlap: overlap,
            ..slot
        });
    }

    /// Records a freshly placed reservation: overlapping jobs stop donating
    /// (their reclaimable spare leaves the summary, they are filtered from
    /// victim selection) and reserved nodes stop being admission targets.
    /// Runs at most once per pass, so the availability histograms are simply
    /// rebuilt in one O(nodes) sweep (free CPUs are untouched here, the
    /// all-node free histogram stands).
    // ALLOC(pass): rebuilds the masked donor view when a reservation overlaps.
    // PANIC: the reservation mask is node-count sized.
    fn apply_reservation(&mut self, mask: &[bool]) {
        // Snapshot the plain availability before the donor stripping below:
        // at this point `avail_hist` still histograms exactly free + reclaim
        // (starts so far updated it plain, shrinks leave it unchanged), so
        // the clone *is* the plain histogram. The probe memo records
        // availability failures against this state — the only one whose
        // failures are stable across passes (see the field's doc).
        let plain: Vec<usize> = self
            .free
            .iter()
            .zip(&self.reclaim)
            .map(|(f, r)| f + r)
            .collect();
        self.plain_avail = Some((plain, self.avail_hist.clone()));
        for slot in self.slots.iter_mut() {
            if slot.node_indices.iter().any(|&n| mask[n]) {
                slot.reserved_overlap = true;
                if slot.malleable {
                    let spare = slot.spare();
                    let cheap = slot.zero_cost_spare();
                    for &n in slot.node_indices.iter() {
                        self.reclaim[n] -= spare;
                        self.cheap[n] -= cheap;
                    }
                }
            }
        }
        let avail: Vec<usize> = self
            .free
            .iter()
            .zip(&self.reclaim)
            .map(|(f, r)| f + r)
            .collect();
        self.avail_hist = FreeHist::new(&avail, self.node_cpus, |_| true);
        self.open_free_hist = FreeHist::new(&self.free, self.node_cpus, |n| !mask[n]);
        self.open_avail_hist = FreeHist::new(&avail, self.node_cpus, |n| !mask[n]);
        self.open_nodes = mask.iter().filter(|&&m| !m).count();
    }

    /// Number of nodes whose **plain** availability (free + reclaim under
    /// index semantics, no reservation stripping) is ≥ `width` — the count
    /// the probe memo's availability failures are proven against.
    fn plain_avail_count_ge(&self, width: usize) -> usize {
        match &self.plain_avail {
            Some((_, hist)) => hist.count_ge(width),
            None => self.avail_hist.count_ge(width),
        }
    }
}

impl SchedulerPolicy for MalleablePolicy {
    fn name(&self) -> &'static str {
        "malleable"
    }

    // ALLOC(pass): the per-pass action list.
    // PANIC: indices address PassState's node-count-sized columns.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let mut state = PassState::new(view);
        let index = view.index;
        self.memo.sync_epoch(index.epoch());
        #[cfg(test)]
        let ignore_gens = self.hazard == Some(Hazard::StaleSkip);
        #[cfg(not(test))]
        let ignore_gens = false;
        // Reservation for the first job that could not be admitted at all:
        // (earliest provable start time, per-node reserved flag). The flag
        // vector is shared by every later admission attempt of the pass —
        // `shrink_to_admit` and the masked fits read it directly instead of
        // rebuilding a masked free vector per queued job.
        let mut reservation: Option<(TimeUs, Vec<bool>)> = None;

        for job in view.order.jobs(queue) {
            // A memo-valid job is provably still unadmittable (no width
            // class it needs gained nodes since its count-proven failure,
            // neither in the index nor from this pass's own shrinks), so it
            // falls straight through to the not-admitted flow below — the
            // reservation forecast is still paid, exactly as a re-probed
            // failure would.
            let skip = self
                .memo
                .still_blocked(job, index, Some(&state.raised), ignore_gens);
            let mut admitted = false;
            if !skip {
                let placement = Self::plan_admission(job, &state, &reservation, now_us);
                if let Some((node_indices, width)) = placement {
                    // Carve out the CPUs: shrink victims until every selected
                    // node has `width` free, then allocate — unless the donors'
                    // aggregate rate loss exceeds the newcomer's gain, in which
                    // case the carve rolls itself back and the job falls through
                    // to the reservation path below.
                    let gain = node_indices.len() as u128 * admission_gain(job, width) as u128;
                    if state.carve_out(&node_indices, width, gain, self.loss_tolerance_fp) {
                        let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
                        state.start(job, node_indices, width, now_us, reserved_mask);
                        self.memo.forget(job.id);
                        admitted = true;
                    }
                } else {
                    // Record only *count-proven* failures: the plain fit
                    // count and the plain availability count at the shrink
                    // floor both fall short. Mask- or economics-induced
                    // failures are never recorded — they depend on per-pass
                    // state the generations cannot witness.
                    let floor = shrink_floor(job.min_cpus_per_node, job.cpus_per_node);
                    if state.free_hist.count_ge(job.cpus_per_node) < job.nodes
                        && state.plain_avail_count_ge(floor) < job.nodes
                    {
                        self.memo.record(
                            job.id,
                            index.free_gen(job.cpus_per_node),
                            Some(index.avail_gen(floor)),
                        );
                    }
                }
            }
            if admitted {
                continue;
            }
            if reservation.is_some() {
                continue; // one reservation at a time; revisit next tick
            }
            match Self::earliest_full_fit(job, &state, now_us) {
                Some((at_us, nodes)) => {
                    let mut mask = vec![false; state.free.len()];
                    for &n in &nodes {
                        mask[n] = true;
                    }
                    state.apply_reservation(&mask);
                    reservation = Some((at_us, mask));
                }
                // No provable drain (a holder lacks an estimate): stop
                // admitting rather than risk starving the head forever.
                None => break,
            }
        }

        let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
        let PassState {
            ref mut free,
            ref mut slots,
            ..
        } = state;
        expand_shrunk(slots, free, reserved_mask);
        emit_actions(slots)
    }
}

impl MalleablePolicy {
    /// Decides whether (and how) `job` can start right now, honouring an
    /// existing reservation: a job whose declared duration provably ends
    /// before the reservation may use any free CPUs at full width; otherwise
    /// reserved nodes are off limits, for the start and for its victims.
    fn plan_admission(
        job: &QueuedJob,
        state: &PassState<'_>,
        reservation: &Option<(TimeUs, Vec<bool>)>,
        now_us: TimeUs,
    ) -> Option<(Vec<usize>, usize)> {
        match reservation {
            None => state
                .guarded_fit_first(job.nodes, job.cpus_per_node)
                .map(|nodes| (nodes, job.cpus_per_node))
                .or_else(|| Self::shrink_to_admit(job, state, None)),
            Some((reserved_at, mask)) => {
                let ends_first = job
                    .expected_duration_us
                    .is_some_and(|d| now_us.saturating_add(d) <= *reserved_at);
                if ends_first {
                    if let Some(nodes) = state.guarded_fit_first(job.nodes, job.cpus_per_node) {
                        return Some((nodes, job.cpus_per_node));
                    }
                }
                // Reserved nodes are off limits for the start and its victims.
                state
                    .guarded_fit_first_masked(mask, job.nodes, job.cpus_per_node)
                    .map(|nodes| (nodes, job.cpus_per_node))
                    .or_else(|| Self::shrink_to_admit(job, state, Some(mask)))
            }
        }
    }

    /// Plans an admission that requires shrinking: picks the `job.nodes`
    /// nodes with the most available (free + reclaimable) CPUs and the widest
    /// feasible width. `None` if even the floors don't fit. Availability is
    /// read straight off the pass indices — no rescan of the running jobs —
    /// and the top nodes are found with a linear-time selection instead of a
    /// full sort.
    ///
    /// Among equally available nodes, the one whose reclaimable CPUs cost
    /// the least throughput wins (more zero-marginal-cost spare per the
    /// donors' curves — the `cheap` summary). On a curve-less cluster every
    /// `cheap` entry is 0 and the order reduces to the pre-curve
    /// availability-then-index rule exactly.
    // ALLOC(pass): candidate shrink plans are collected per admission attempt.
    // PANIC: plan indices address pass-local slot and node vectors.
    fn shrink_to_admit(
        job: &QueuedJob,
        state: &PassState<'_>,
        reserved: Option<&[bool]>,
    ) -> Option<(Vec<usize>, usize)> {
        // Exact histogram reject: the k-th most available open node offers
        // ≥ the shrink floor iff at least k open nodes do, so a failed
        // count means the selection below cannot reach the floor either —
        // skip the O(nodes) gather entirely (the common case on a loaded
        // cluster, where most queued jobs cannot be admitted at all).
        let floor = shrink_floor(job.min_cpus_per_node, job.cpus_per_node);
        let (hist, open) = match reserved {
            None => (&state.avail_hist, state.free.len()),
            Some(_) => (&state.open_avail_hist, state.open_nodes),
        };
        if open < job.nodes || hist.count_ge(floor) < job.nodes {
            return None;
        }
        let mut avail: Vec<(usize, usize, usize)> = (0..state.free.len())
            .filter(|&node| !reserved.is_some_and(|m| m[node]))
            .map(|node| {
                (
                    node,
                    state.free[node] + state.reclaim[node],
                    state.cheap[node],
                )
            })
            .collect();
        if avail.len() < job.nodes {
            return None;
        }
        // Most available first, cheapest reclaim next; index order breaks
        // remaining ties deterministically. The ordering is total, so
        // selecting the top `job.nodes` yields the same node set the
        // reference scan's full sort produces.
        if avail.len() > job.nodes {
            avail.select_nth_unstable_by_key(job.nodes - 1, |&(node, a, cheap)| {
                (std::cmp::Reverse(a), std::cmp::Reverse(cheap), node)
            });
        }
        let selected = &avail[..job.nodes];
        let width = selected
            .iter()
            .map(|&(_, a, _)| a)
            .min()
            .unwrap_or(0)
            .min(job.cpus_per_node);
        // A job is admitted shrunk only down to its own shrink floor: deeper
        // admission would just move the time-sharing to the newcomer.
        if width < shrink_floor(job.min_cpus_per_node, job.cpus_per_node) {
            return None;
        }
        let mut node_indices: Vec<usize> = selected.iter().map(|&(n, _, _)| n).collect();
        node_indices.sort_unstable();
        Some((node_indices, width))
    }

    /// Earliest time ≥ `now` at which `job` fits at full width — the
    /// drain-reservation forecast. Returns the time and the node set; `None`
    /// when a holder on a needed node has no completion estimate.
    ///
    /// Computed as a [`earliest_timeline_fit`] walk over the driver's
    /// maintained [`ReleaseTimeline`] plus a pass-local overlay: jobs this
    /// pass started release their full current width at their estimated
    /// end, and victims this pass shrank release `width − original_width`
    /// **less** than the base timeline promises at theirs. Base + overlay
    /// releases sum to each slot's current width at its estimated end —
    /// exactly what the reference replay
    /// ([`oracle::MalleableScanPolicy`]'s `earliest_release_fit` over the slots)
    /// accumulates, so the forecast is decision-identical. A slot's
    /// estimated end never changes mid-pass (re-estimates happen in the
    /// controller after a resize is applied), so shrink corrections always
    /// land on the instant the base already keys.
    // ALLOC(pass): scratch future-free vector per estimate probe.
    // PANIC: the timeline walk indexes the scratch vector it sized.
    fn earliest_full_fit(
        job: &QueuedJob,
        state: &PassState<'_>,
        now_us: TimeUs,
    ) -> Option<(TimeUs, Vec<usize>)> {
        let mut overlay: Vec<TimelineDelta<'_>> = state
            .slots
            .iter()
            .filter_map(|s| {
                let end_us = s.expected_end_us?;
                let delta = match s.original_width {
                    None => s.width as i64,
                    Some(original) => s.width as i64 - original as i64,
                };
                (delta != 0).then_some(TimelineDelta {
                    end_us,
                    node_indices: &s.node_indices[..],
                    delta,
                })
            })
            .collect();
        overlay.sort_by_key(|d| d.end_us);
        earliest_timeline_fit(
            job.nodes,
            job.cpus_per_node,
            &state.free,
            state.timeline,
            &overlay,
            now_us,
        )
    }
}

/// Expansion, shared by both malleable implementations: hands the remaining
/// free CPUs on non-reserved nodes to shrunk malleable jobs, one CPU per
/// node per sweep so concurrent victims recover evenly. Within a sweep the
/// steepest relative marginal gain goes first (stable sort — slot order, the
/// pre-curve round-robin, breaks ties) and saturated jobs are skipped
/// entirely: a curve flat from the current width through the request cannot
/// convert a CPU into progress, so the CPU goes to a job that can. A job on
/// a zero-marginal plateau *below* saturation still participates (ranked
/// last) — those stepping-stone CPUs are what reach the rising part of its
/// curve on later sweeps. Reserved nodes do not participate: consuming
/// their free CPUs could push the reserved job's start past its
/// reservation. On a curve-less cluster every gain is FP and the sweep is
/// byte-identical to the pre-curve round-robin.
// ALLOC(pass): collects expandable slot positions once per pass tail.
// PANIC: slot positions and node indices are pass-local by construction.
fn expand_shrunk(slots: &mut [Slot<'_>], free: &mut [usize], reserved: Option<&[bool]>) {
    let expandable = |n: usize| !reserved.is_some_and(|m| m[n]);
    let mut progressed = true;
    while progressed {
        progressed = false;
        let mut order: Vec<usize> = (0..slots.len())
            .filter(|&i| {
                let s = &slots[i];
                s.malleable && s.width < s.request && !s.saturated()
            })
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(slots[i].expand_gain()));
        for i in order {
            let slot = &mut slots[i];
            let headroom = slot
                .node_indices
                .iter()
                .map(|&n| if expandable(n) { free[n] } else { 0 })
                .min()
                .unwrap_or(0);
            if headroom == 0 {
                continue;
            }
            slot.width += 1;
            for &n in slot.node_indices.iter() {
                free[n] -= 1;
            }
            progressed = true;
        }
    }
}

/// Emits the actions of a finished malleable pass from the FINAL slot state
/// (a job admitted mid-pass may have been shrunk or expanded again by later
/// admissions), in an order that is valid to apply sequentially: shrinks
/// release CPUs, then starts consume them, then expands absorb the leftovers.
// ALLOC(pass): the emitted action list plus per-start node vectors — the
// pass's output, proportional to the jobs it admitted.
fn emit_actions(slots: &[Slot<'_>]) -> Vec<SchedulerAction> {
    let mut actions: Vec<SchedulerAction> = Vec::new();
    for slot in slots {
        if slot.original_width.is_some_and(|o| slot.width < o) {
            actions.push(SchedulerAction::Resize {
                job_id: slot.job_id,
                cpus_per_node: slot.width,
            });
        }
    }
    for slot in slots {
        if slot.original_width.is_none() {
            actions.push(SchedulerAction::Start {
                job_id: slot.job_id,
                node_indices: slot.node_indices.to_vec(),
                cpus_per_node: slot.width,
            });
        }
    }
    for slot in slots {
        if slot.original_width.is_some_and(|o| slot.width > o) {
            actions.push(SchedulerAction::Resize {
                job_id: slot.job_id,
                cpus_per_node: slot.width,
            });
        }
    }
    actions
}

/// First-fit placement that skips reserved nodes — the shared-mask
/// equivalent of masking the free vector to zero, without materialising a
/// masked copy per queued job.
// ALLOC(pass): the result vector, sized to the requested node count.
// PANIC: scans indices below `free.len()`; the mask is node-count sized.
fn fit_first_masked(
    free: &[usize],
    reserved: &[bool],
    nodes: usize,
    width: usize,
) -> Option<Vec<usize>> {
    if nodes == 0 {
        return None;
    }
    let mut seen = 0;
    let mut last = 0;
    for (idx, &f) in free.iter().enumerate() {
        if !reserved[idx] && f >= width {
            seen += 1;
            if seen == nodes {
                last = idx;
                break;
            }
        }
    }
    if seen < nodes {
        return None;
    }
    let mut selected = Vec::with_capacity(nodes);
    for (idx, &f) in free[..=last].iter().enumerate() {
        if !reserved[idx] && f >= width {
            selected.push(idx);
        }
    }
    Some(selected)
}

#[cfg(test)]
mod tests {
    use super::oracle::{earliest_release_fit, AlwaysProbe, Holder, MalleableScanPolicy};
    use super::*;

    /// One pass of `policy` over a view built from scratch: the index from
    /// `free` and `running`, the admission order from `queue`.
    fn pass(
        mut policy: impl SchedulerPolicy,
        node_cpus: usize,
        free: &[usize],
        running: &[RunningJob],
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let index = SchedIndex::rebuild(free, running);
        let order = AdmissionOrder::from_queue(queue);
        let view = ClusterView {
            node_cpus,
            running,
            index: &index,
            order: &order,
        };
        policy.schedule(&view, queue, now_us)
    }

    fn running(
        id: u64,
        nodes: Vec<usize>,
        width: usize,
        request: usize,
        floor: usize,
    ) -> RunningJob {
        RunningJob {
            job: QueuedJob::new(id, nodes.len(), request).malleable(floor),
            alloc: JobAllocation {
                job_id: id,
                node_indices: nodes,
                cpus_per_node: width,
            },
            start_us: 0,
            expected_end_us: None,
        }
    }

    #[test]
    fn first_fit_starts_in_order_and_blocks() {
        let free = [16, 16];
        let queue = vec![
            QueuedJob::new(1, 1, 16),
            QueuedJob::new(2, 2, 16), // does not fit once job 1 holds a node
            QueuedJob::new(3, 1, 1),  // would fit, but the head blocks it
        ];
        let actions = pass(FirstFitPolicy::default(), 16, &free, &[], &queue, 0);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            SchedulerAction::Start {
                job_id: 1,
                cpus_per_node: 16,
                ..
            }
        ));
    }

    #[test]
    fn first_fit_respects_priority() {
        let free = [16];
        let queue = vec![
            QueuedJob::new(1, 1, 16),
            QueuedJob::new(2, 1, 16).with_priority(5),
        ];
        let actions = pass(FirstFitPolicy::default(), 16, &free, &[], &queue, 0);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            SchedulerAction::Start { job_id: 2, .. }
        ));
    }

    #[test]
    fn backfill_jumps_only_safe_jobs() {
        // Node 0 busy until t=100s; head job wants both nodes.
        let holders = [running(10, vec![0], 16, 16, 16)];
        let mut holders = holders.to_vec();
        holders[0].expected_end_us = Some(100_000_000);
        let free = [0, 16];
        let queue = vec![
            QueuedJob::new(1, 2, 16), // head: blocked until t=100s
            QueuedJob::new(2, 1, 8).with_expected_duration_us(50_000_000), // safe
            QueuedJob::new(3, 1, 8).with_expected_duration_us(200_000_000), // would delay head
            QueuedJob::new(4, 1, 8),  // no estimate: never backfilled
        ];
        let actions = pass(BackfillPolicy::default(), 16, &free, &holders, &queue, 0);
        assert_eq!(actions.len(), 1, "only the safe job jumps: {actions:?}");
        assert!(matches!(
            &actions[0],
            SchedulerAction::Start { job_id: 2, .. }
        ));
    }

    #[test]
    fn backfill_without_estimates_never_jumps() {
        let holders = vec![running(10, vec![0], 16, 16, 16)]; // no expected end
        let free = [0, 16];
        let queue = vec![
            QueuedJob::new(1, 2, 16),
            QueuedJob::new(2, 1, 4).with_expected_duration_us(1),
        ];
        let actions = pass(BackfillPolicy::default(), 16, &free, &holders, &queue, 0);
        assert!(
            actions.is_empty(),
            "no reservation, no backfill: {actions:?}"
        );
    }

    #[test]
    fn malleable_shrinks_to_admit_and_expands_back() {
        // One malleable job owns both nodes fully; a rigid half-node job queues.
        let holders = vec![running(1, vec![0, 1], 16, 16, 4)];
        let free = [0, 0];
        let queue = vec![QueuedJob::new(2, 1, 8)];
        let actions = pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0);
        // Shrink job 1 (on both nodes), start job 2 on one node, and re-expand
        // job 1 by the slack the shrink left on the other node? The width is
        // uniform, so job 1 stays at 8 and node 1 keeps 8 CPUs free.
        assert!(actions.contains(&SchedulerAction::Resize {
            job_id: 1,
            cpus_per_node: 8
        }));
        assert!(actions.iter().any(|a| matches!(
            a,
            SchedulerAction::Start {
                job_id: 2,
                cpus_per_node: 8,
                ..
            }
        )));
        // Shrinks come before starts.
        let shrink_pos = actions
            .iter()
            .position(|a| matches!(a, SchedulerAction::Resize { job_id: 1, .. }))
            .unwrap();
        let start_pos = actions
            .iter()
            .position(|a| matches!(a, SchedulerAction::Start { .. }))
            .unwrap();
        assert!(shrink_pos < start_pos);
    }

    #[test]
    fn malleable_expands_into_free_cpus() {
        // A shrunk malleable job and an empty queue: pure expansion.
        let holders = vec![running(1, vec![0, 1], 8, 16, 4)];
        let free = [8, 8];
        let actions = pass(MalleablePolicy::default(), 16, &free, &holders, &[], 0);
        assert_eq!(
            actions,
            vec![SchedulerAction::Resize {
                job_id: 1,
                cpus_per_node: 16
            }]
        );
    }

    #[test]
    fn malleable_respects_floors() {
        // The running job can only shrink to 12; the queued job needs 8 on
        // its node: 4 free + 4 reclaimable = admitted at its floor width.
        let holders = vec![running(1, vec![0], 16, 16, 12)];
        let free = [0];
        let queue = vec![QueuedJob::new(2, 1, 8).malleable(4)];
        let actions = pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0);
        assert!(actions.contains(&SchedulerAction::Resize {
            job_id: 1,
            cpus_per_node: 12
        }));
        assert!(actions.iter().any(|a| matches!(
            a,
            SchedulerAction::Start {
                job_id: 2,
                cpus_per_node: 4,
                ..
            }
        )));
    }

    #[test]
    fn malleable_blocks_when_floors_exceed_capacity() {
        let holders = vec![running(1, vec![0], 16, 16, 16)]; // rigid-in-effect
        let free = [0];
        let queue = vec![QueuedJob::new(2, 1, 8)];
        let actions = pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0);
        assert!(actions.is_empty());
    }

    /// Regression (shrunk-duration rounding): a job admitted shrunk in this
    /// pass must carry a **rounded-up** completion estimate. With the old
    /// truncating scaling, J1 (101 µs at 7 CPUs, admitted at width 5) was
    /// estimated to end at 141 instead of 142, so the drain reservation for
    /// J2 landed at an instant J1 still occupies — and J3, whose duration
    /// ends exactly when the CPUs really free up, was refused the backfill
    /// it is entitled to.
    #[test]
    fn shrunk_admission_estimate_rounds_up_for_reservations() {
        let mut holders = vec![
            running(10, vec![0], 13, 13, 13), // rigid-in-effect, node 0
            running(11, vec![1], 11, 11, 11), // rigid-in-effect, node 1
        ];
        holders[0].expected_end_us = Some(50_000);
        holders[1].expected_end_us = Some(50_000);
        let free = [3, 5];
        let queue = vec![
            // Admitted shrunk at width 5 on node 1: ends at ⌈101·7/5⌉ = 142.
            QueuedJob::new(1, 1, 7)
                .malleable(1)
                .with_submit_us(0)
                .with_expected_duration_us(101),
            // Blocked: reservation at t = 142 over both nodes.
            QueuedJob::new(2, 2, 3)
                .with_submit_us(1)
                .with_expected_duration_us(1_000),
            // Ends exactly at the reservation instant: must backfill.
            QueuedJob::new(3, 1, 2)
                .with_submit_us(2)
                .with_expected_duration_us(142),
        ];
        let actions = pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                SchedulerAction::Start {
                    job_id: 1,
                    cpus_per_node: 5,
                    ..
                }
            )),
            "job 1 admitted shrunk: {actions:?}"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                SchedulerAction::Start {
                    job_id: 3,
                    cpus_per_node: 2,
                    ..
                }
            )),
            "job 3 ends exactly at the (rounded-up) reservation and must \
             backfill: {actions:?}"
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, SchedulerAction::Start { job_id: 2, .. })),
            "job 2 stays reserved: {actions:?}"
        );
    }

    /// The indexed pass and the reference scan make identical decisions on a
    /// hand-built view: the indexed pass reads the rebuilt index, the scan
    /// recomputes everything from `running`.
    #[test]
    fn indexed_and_scan_policies_agree_on_handbuilt_views() {
        let mut holders = vec![
            running(1, vec![0, 1], 16, 16, 4),
            running(2, vec![2], 10, 16, 2),
            running(3, vec![1, 2], 3, 8, 1),
        ];
        holders[1].expected_end_us = Some(700);
        holders[2].expected_end_us = Some(900);
        let free = [0, 3, 3, 16];
        let queue = vec![
            QueuedJob::new(10, 2, 12)
                .malleable(3)
                .with_expected_duration_us(500),
            QueuedJob::new(11, 4, 16)
                .with_submit_us(1)
                .with_expected_duration_us(400),
            QueuedJob::new(12, 1, 4)
                .with_submit_us(2)
                .with_expected_duration_us(100),
            QueuedJob::new(13, 1, 2).malleable(1).with_submit_us(3),
        ];
        let indexed = pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 50);
        let scanned = pass(
            MalleableScanPolicy::default(),
            16,
            &free,
            &holders,
            &queue,
            50,
        );
        assert_eq!(indexed, scanned);
    }

    /// The event-maintained index equals a from-scratch rebuild after any
    /// start/resize/complete sequence, including donor-list order.
    #[test]
    fn sched_index_updates_match_rebuild() {
        let mut index = SchedIndex::new(3, 16);
        let j1 = QueuedJob::new(1, 2, 8).malleable(2);
        let j2 = QueuedJob::new(2, 1, 16).malleable(4);
        let j3 = QueuedJob::new(3, 2, 4); // rigid: never a donor
        index.on_start(&j1, &[0, 1], 8, Some(1_000));
        index.on_start(&j2, &[2], 12, Some(2_000));
        index.on_start(&j3, &[1, 2], 4, None);
        index.on_resize(&j2, &[2], 12, 9);
        index.on_resize(&j1, &[0, 1], 8, 5);
        // A resize refresh re-keys j1's releases in the timeline in place.
        index.on_estimate(1, &[0, 1], 5, Some(1_500));
        let running = vec![
            RunningJob {
                alloc: JobAllocation {
                    job_id: 1,
                    node_indices: vec![0, 1],
                    cpus_per_node: 5,
                },
                job: j1.clone(),
                start_us: 0,
                expected_end_us: Some(1_500),
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 2,
                    node_indices: vec![2],
                    cpus_per_node: 9,
                },
                job: j2.clone(),
                start_us: 0,
                expected_end_us: Some(2_000),
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 3,
                    node_indices: vec![1, 2],
                    cpus_per_node: 4,
                },
                job: j3.clone(),
                start_us: 0,
                expected_end_us: None,
            },
        ];
        assert_eq!(index, SchedIndex::rebuild(&[11, 7, 3], &running));
        assert_eq!(index.free(), &[11, 7, 3]);
        // j1 at width 5 with shrink floor max(2, 4) = 4 → 1 reclaimable;
        // j2 at width 9 with shrink floor max(4, 8) = 8 → 1 reclaimable.
        assert_eq!(index.reclaim(), &[1, 1, 1]);
        assert_eq!(index.donors(1), &[1]);
        assert_eq!(index.donors(2), &[2]);
        index.on_complete(&j1, &[0, 1], 5);
        index.on_complete(&j3, &[1, 2], 4);
        assert_eq!(index, SchedIndex::rebuild(&[16, 16, 7], &running[1..2]));
    }

    #[test]
    fn speedup_curve_linear_matches_the_linear_fallback_exactly() {
        let curve = SpeedupCurve::linear(4);
        assert_eq!(curve.request_width(), 4);
        assert_eq!(curve.rate(2), 2 * SpeedupCurve::FP);
        assert_eq!(curve.rate(9), curve.full_rate(), "beyond request clamps");
        for d in [1u64, 2, 3, 100, 101, 999_999] {
            for w in 1..=4usize {
                assert_eq!(
                    curve.scaled_duration_us(d, w),
                    scaled_duration(d, 4, w),
                    "linear curve must be byte-identical to no curve (d={d}, w={w})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn speedup_curve_rejects_non_monotone_rates() {
        SpeedupCurve::from_rates(vec![0, SpeedupCurve::FP, SpeedupCurve::FP / 2]);
    }

    /// A job carrying a sub-linear curve gets curve-scaled (not linear)
    /// estimates from every policy path that starts it shrunk.
    #[test]
    fn shrunk_admission_estimate_consults_the_speedup_curve() {
        // Request 7, but shrinking costs double the linear slowdown:
        // rate(w) = w·FP/14 below the request, FP at it.
        let rates: Vec<u64> = (0..=7u64)
            .map(|w| {
                if w == 7 {
                    SpeedupCurve::FP
                } else {
                    w * SpeedupCurve::FP / 14
                }
            })
            .collect();
        let curve = SpeedupCurve::from_rates(rates);
        let holders = vec![running(10, vec![0], 11, 11, 11)]; // rigid-in-effect
        let free = [5];
        let queue = vec![QueuedJob::new(1, 1, 7)
            .malleable(1)
            .with_expected_duration_us(101)
            .with_speedup(curve.clone())];
        for actions in [
            pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0),
            pass(
                MalleableScanPolicy::default(),
                16,
                &free,
                &holders,
                &queue,
                0,
            ),
        ] {
            assert!(
                actions.iter().any(|a| matches!(
                    a,
                    SchedulerAction::Start {
                        job_id: 1,
                        cpus_per_node: 5,
                        ..
                    }
                )),
                "job 1 admitted shrunk at width 5: {actions:?}"
            );
        }
        // The estimate the policy plans around: ⌈101·FP / rate(5)⌉ = 283
        // virtual µs — twice the linear ⌈101·7/5⌉ = 142 (minus rounding).
        assert_eq!(curve.scaled_duration_us(101, 5), 283);
        assert_eq!(scaled_duration(101, 7, 5), 142);
    }

    /// STREAM-like saturated curve for `request` CPUs per node: half rate at
    /// one CPU, full (memory-bound) rate from two CPUs on.
    fn stream_curve(request: usize) -> SpeedupCurve {
        let rates = (0..=request as u64)
            .map(|w| match w {
                0 => 0,
                1 => SpeedupCurve::FP / 2,
                _ => SpeedupCurve::FP,
            })
            .collect();
        SpeedupCurve::from_rates(rates)
    }

    fn with_curve(mut r: RunningJob, curve: SpeedupCurve) -> RunningJob {
        r.job.speedup = Some(curve);
        r
    }

    /// Regression (model-blind expansion): a STREAM job saturated at its
    /// current width must never be handed free CPUs while an unsaturated
    /// job on the same node is below its request. Pre-fix the round-robin
    /// sweep split the 8 free CPUs evenly between both.
    #[test]
    fn saturated_job_is_never_expanded_while_an_unsaturated_peer_wants_cpus() {
        let holders = vec![
            with_curve(running(1, vec![0], 4, 8, 4), stream_curve(8)),
            running(2, vec![0], 4, 8, 4), // linear: every CPU still helps
        ];
        let free = [8];
        for actions in [
            pass(MalleablePolicy::default(), 16, &free, &holders, &[], 0),
            pass(MalleableScanPolicy::default(), 16, &free, &holders, &[], 0),
        ] {
            assert_eq!(
                actions,
                vec![SchedulerAction::Resize {
                    job_id: 2,
                    cpus_per_node: 8
                }],
                "only the unsaturated job expands; the saturated STREAM job \
                 gains nothing from more CPUs"
            );
        }
    }

    /// Regression (model-blind victim selection): a saturated STREAM job
    /// donates its zero-marginal-cost tail before an uneven static-partition
    /// job loses real throughput — even when the static job has the larger
    /// raw spare, which is what the pre-fix widest-donor rule keyed on.
    #[test]
    fn saturated_stream_job_is_preferred_donor_over_uneven_static_partition() {
        // Static-partition-like curve: every width below the request costs
        // real rate (linear profile), so its marginal cost is FP per CPU.
        let static_rates: Vec<u64> = (0..=16u64).map(|w| w * (SpeedupCurve::FP / 16)).collect();
        let holders = vec![
            // STREAM at width 12 of 16, shrink floor 8: 4 CPUs of spare, all
            // on the flat tail (zero marginal cost).
            with_curve(running(1, vec![0], 12, 16, 1), stream_curve(16)),
            // Static partition at width 16 of 16, shrink floor 8: 8 CPUs of
            // spare (the pre-fix rule's pick), every one costing throughput.
            with_curve(
                running(2, vec![0], 16, 16, 1),
                SpeedupCurve::from_rates(static_rates),
            ),
        ];
        let free = [4];
        let queue = vec![QueuedJob::new(3, 1, 8)];
        for actions in [
            pass(MalleablePolicy::default(), 32, &free, &holders, &queue, 0),
            pass(
                MalleableScanPolicy::default(),
                32,
                &free,
                &holders,
                &queue,
                0,
            ),
        ] {
            assert!(
                actions.contains(&SchedulerAction::Resize {
                    job_id: 1,
                    cpus_per_node: 8
                }),
                "the free-to-shrink STREAM job donates: {actions:?}"
            );
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, SchedulerAction::Resize { job_id: 2, .. })),
                "the static-partition job keeps its throughput: {actions:?}"
            );
            assert!(
                actions.iter().any(|a| matches!(
                    a,
                    SchedulerAction::Start {
                        job_id: 3,
                        cpus_per_node: 8,
                        ..
                    }
                )),
                "the queued job still starts: {actions:?}"
            );
        }
    }

    /// Regression (shrink economics): an admission whose donors lose more
    /// aggregate rate than the newcomer gains is refused. The donor's curve
    /// cliffs at width 12 — the first donated CPU costs 3/4 of its full rate
    /// (relative cost 12·FP) while the 8-CPU newcomer only brings 8·FP.
    #[test]
    fn admission_is_rejected_when_donor_loss_exceeds_newcomer_gain() {
        let cliff_rates: Vec<u64> = (0..=16u64)
            .map(|w| match w {
                0 => 0,
                1..=11 => SpeedupCurve::FP / 4,
                _ => SpeedupCurve::FP,
            })
            .collect();
        let holders = vec![with_curve(
            running(1, vec![0], 12, 16, 1),
            SpeedupCurve::from_rates(cliff_rates),
        )];
        let free = [4];
        let queue = vec![QueuedJob::new(2, 1, 8)];
        for actions in [
            pass(MalleablePolicy::default(), 16, &free, &holders, &queue, 0),
            pass(
                MalleableScanPolicy::default(),
                16,
                &free,
                &holders,
                &queue,
                0,
            ),
        ] {
            assert!(
                actions.is_empty(),
                "shrinking off the cliff loses 12·FP to gain 8·FP — the \
                 admission must be refused: {actions:?}"
            );
        }
    }

    /// Edge cases of the marginal-rate helpers: a flat single-entry curve
    /// (request width 1), a zero-marginal STREAM tail, a zero shrink limit
    /// (width already at the floor), and linear exactness.
    #[test]
    fn marginal_rate_helpers_handle_degenerate_curves() {
        // Request width 1: the one CPU carries the whole rate, nothing below
        // it, and the table clamps flat beyond it.
        let single = SpeedupCurve::from_rates(vec![0, SpeedupCurve::FP]);
        assert_eq!(single.marginal_rate(0), 0);
        assert_eq!(single.marginal_rate(1), SpeedupCurve::FP);
        assert_eq!(
            single.marginal_rate(5),
            0,
            "beyond the request the curve is flat"
        );
        assert_eq!(single.relative_marginal_cost(1), SpeedupCurve::FP);
        assert_eq!(single.zero_cost_run(1, 1), 0);
        assert_eq!(single.equal_cost_run(1, 1), 1);
        assert!(single.saturated_at(1));
        assert!(!single.saturated_at(0));

        // Zero-marginal tail: every STREAM CPU past the second is free to
        // donate, and a zero-cost run is in particular an equal-cost run.
        let stream = stream_curve(8);
        assert_eq!(stream.marginal_rate(8), 0);
        assert_eq!(stream.relative_marginal_cost(8), 0);
        assert_eq!(stream.zero_cost_run(8, 6), 6);
        assert_eq!(
            stream.zero_cost_run(8, 3),
            3,
            "the tail is capped by the limit"
        );
        assert_eq!(stream.equal_cost_run(8, 6), 6);
        assert!(stream.saturated_at(2));
        assert!(!stream.saturated_at(1));

        // Width already at the shrink floor (`min_cpus_per_node`): the limit
        // is 0 and both runs are empty — such a slot is never a donor.
        assert_eq!(stream.zero_cost_run(2, 0), 0);
        assert_eq!(stream.equal_cost_run(2, 0), 0);

        // Linear curves are exact on the FP grid at every width: one CPU is
        // always worth exactly FP, and nothing is ever free.
        let linear = SpeedupCurve::linear(4);
        for w in 1..=4usize {
            assert_eq!(linear.relative_marginal_cost(w), SpeedupCurve::FP);
            assert_eq!(linear.relative_rate(w), w as u64 * SpeedupCurve::FP);
            assert_eq!(linear.zero_cost_run(w, w), 0);
            assert_eq!(linear.equal_cost_run(w, w), w);
            assert!(!linear.saturated_at(w) || w == 4);
        }
    }

    /// Fixed-point rounding at a saturation knee: the documented truncation
    /// of `relative_marginal_cost` / `relative_rate`, pinned on a curve
    /// whose full rate (9) does not divide the FP numerator.
    #[test]
    fn marginal_cost_truncates_on_the_fp_grid_at_the_knee() {
        // rates 0, 3, 7, 9 at request width 3: marginals 3, 4, 2.
        let knee = SpeedupCurve::from_rates(vec![0, 3, 7, 9]);
        // Cost of the knee CPU: 2 · 3 · FP / 9 = 699050.666… → 699050.
        assert_eq!(knee.relative_marginal_cost(3), 699_050);
        assert_eq!(knee.relative_marginal_cost(2), 4 * 3 * SpeedupCurve::FP / 9);
        // The request width itself is exact (rate == full_rate cancels).
        assert_eq!(knee.relative_rate(3), 3 * SpeedupCurve::FP);
        // Below it the same truncation applies: 7 · 3 · FP / 9 → 2446677.
        assert_eq!(knee.relative_rate(2), 2_446_677);
        // The knee bounds the equal-cost run: marginal(3) = 2 ≠ marginal(2).
        assert_eq!(knee.equal_cost_run(3, 3), 1);
        assert_eq!(knee.zero_cost_run(3, 3), 0);
    }

    /// The incrementally-maintained zero-cost reclaim summary
    /// (`SchedIndex::cheap`) matches a from-scratch rebuild through starts,
    /// resizes and completions of curved and curve-less jobs alike.
    #[test]
    fn sched_index_cheap_summary_matches_rebuild() {
        let mut index = SchedIndex::new(2, 32);
        let linear = QueuedJob::new(1, 2, 8).malleable(2); // shrink floor 4
        let stream = QueuedJob::new(2, 1, 16)
            .malleable(1) // shrink floor 8
            .with_speedup(stream_curve(16));
        index.on_start(&linear, &[0, 1], 8, None);
        assert_eq!(index.cheap(), &[0, 0], "linear spare is never cheap");
        index.on_start(&stream, &[0], 12, None);
        assert_eq!(
            index.cheap(),
            &[4, 0],
            "all 4 spare CPUs sit on the flat tail"
        );
        index.on_resize(&stream, &[0], 12, 9);
        let running = vec![
            RunningJob {
                alloc: JobAllocation {
                    job_id: 1,
                    node_indices: vec![0, 1],
                    cpus_per_node: 8,
                },
                job: linear.clone(),
                start_us: 0,
                expected_end_us: None,
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 2,
                    node_indices: vec![0],
                    cpus_per_node: 9,
                },
                job: stream.clone(),
                start_us: 0,
                expected_end_us: None,
            },
        ];
        assert_eq!(index, SchedIndex::rebuild(&[15, 24], &running));
        assert_eq!(index.cheap(), &[1, 0]);
        index.on_resize(&stream, &[0], 9, 16);
        assert_eq!(index.cheap(), &[8, 0]);
        index.on_complete(&stream, &[0], 16);
        assert_eq!(index, SchedIndex::rebuild(&[24, 24], &running[..1]));
        assert_eq!(index.cheap(), &[0, 0]);
    }

    #[test]
    fn fits_ever_diagnoses_impossible_jobs() {
        let index = SchedIndex::new(2, 16);
        let order = AdmissionOrder::new();
        let v = ClusterView {
            node_cpus: 16,
            running: &[],
            index: &index,
            order: &order,
        };
        assert!(v.fits_ever(&QueuedJob::new(1, 2, 16)).is_ok());
        assert!(v.fits_ever(&QueuedJob::new(2, 3, 1)).is_err());
        assert!(v.fits_ever(&QueuedJob::new(3, 1, 17)).is_err());
        assert_eq!(v.num_nodes(), 2);
        assert_eq!(v.total_free(), 32);
    }

    /// The whole current state expressed as a base [`ReleaseTimeline`] (the
    /// indexed forecast's input when the pass changed nothing).
    fn timeline_of(holders: &[Holder<'_>]) -> ReleaseTimeline {
        let mut timeline = ReleaseTimeline::new();
        for (id, h) in holders.iter().enumerate() {
            timeline.add(id as u64, h.node_indices, h.width, h.end_us);
        }
        timeline
    }

    /// The timeline walk and the reference replay must agree — time, node
    /// set and unprovability alike — on the same holder state.
    fn assert_timeline_matches_replay(
        nodes: usize,
        width: usize,
        free: &[usize],
        holders: &[Holder<'_>],
        now_us: TimeUs,
    ) {
        assert_eq!(
            earliest_timeline_fit(nodes, width, free, &timeline_of(holders), &[], now_us),
            earliest_release_fit(nodes, width, free, holders, now_us),
            "timeline walk diverged from the reference replay \
             (nodes={nodes}, width={width}, now={now_us})"
        );
    }

    /// A holder with no completion estimate never releases: a fit that needs
    /// its CPUs is unprovable (`None`) no matter how many estimated holders
    /// release around it — but CPUs it does not hold stay provable.
    #[test]
    fn release_fit_unestimated_holder_blocks_only_its_own_cpus() {
        // Node 0 is held half by an estimated job, half by one without an
        // estimate: a full-width fit on node 0 is never provable.
        let free = [0usize, 0];
        let holders = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: None,
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: None,
                node_indices: &[1],
                width: 16,
            },
        ];
        assert_eq!(earliest_release_fit(1, 16, &free, &holders, 10), None);
        // The estimated half of node 0 is still provable, at its end.
        assert_eq!(
            earliest_release_fit(1, 8, &free, &holders, 10),
            Some((100, vec![0]))
        );
        assert_timeline_matches_replay(1, 16, &free, &holders, 10);
        assert_timeline_matches_replay(1, 8, &free, &holders, 10);
    }

    /// Overdue estimates (end ≤ now) release before the first future
    /// candidate, but their own end instant is never a candidate start time —
    /// and when *no* future end exists, the fit stays unprovable even though
    /// the overdue releases alone would satisfy it.
    #[test]
    fn release_fit_overdue_estimates_release_but_are_no_candidates() {
        let free = [0usize];
        let holders = [
            Holder {
                end_us: Some(50),
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 4,
            },
            Holder {
                end_us: Some(200),
                node_indices: &[0],
                width: 4,
            },
        ];
        // now = 100: the ends at 50 and 100 are overdue — their CPUs count,
        // but the earliest candidate instant is the first future end.
        assert_eq!(
            earliest_release_fit(1, 16, &free, &holders, 100),
            Some((200, vec![0]))
        );
        // Drop the future holder: 12 CPUs would be free once the overdue
        // holders release, but with no future end there is no candidate.
        assert_eq!(earliest_release_fit(1, 12, &free, &holders[..2], 100), None);
        assert_timeline_matches_replay(1, 16, &free, &holders, 100);
        assert_timeline_matches_replay(1, 12, &free, &holders[..2], 100);
    }

    /// Holders sharing an end instant release together *before* the fit is
    /// probed at that instant — each release alone is too small here, so any
    /// probe-per-holder implementation would miss the fit or place it later.
    #[test]
    fn release_fit_groups_holders_sharing_an_end_instant() {
        let free = [0usize, 0, 16];
        let holders = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 16,
            },
            Holder {
                end_us: Some(100),
                node_indices: &[1],
                width: 16,
            },
        ];
        assert_eq!(
            earliest_release_fit(3, 16, &free, &holders, 10),
            Some((100, vec![0, 1, 2]))
        );
        // The shared instant is one candidate: a 2×16 fit lands there too,
        // on the first two nodes in index order.
        assert_eq!(
            earliest_release_fit(2, 16, &free, &holders, 10),
            Some((100, vec![0, 1]))
        );
        assert_timeline_matches_replay(3, 16, &free, &holders, 10);
        assert_timeline_matches_replay(2, 16, &free, &holders, 10);
    }

    /// A base timeline at pass-start widths plus an overlay of the pass's
    /// own changes — a shrink correction and a fresh start — walks to the
    /// same forecast as replaying the current widths directly.
    #[test]
    fn timeline_overlay_corrections_match_replay_of_current_widths() {
        // Pass start: A held 16 on node 0 (end 100), B holds 8 on node 1
        // (end 200). The pass shrank A to 10 (its 6 CPUs were consumed by
        // C, started 6-wide on node 1 with estimated end 150).
        let free = [6usize, 2];
        let mut base = ReleaseTimeline::new();
        base.add(1, &[0], 16, Some(100));
        base.add(2, &[1], 8, Some(200));
        let overlay = [
            TimelineDelta {
                end_us: 100,
                node_indices: &[0][..],
                delta: -6,
            },
            TimelineDelta {
                end_us: 150,
                node_indices: &[1][..],
                delta: 6,
            },
        ];
        let current = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 10,
            },
            Holder {
                end_us: Some(150),
                node_indices: &[1],
                width: 6,
            },
            Holder {
                end_us: Some(200),
                node_indices: &[1],
                width: 8,
            },
        ];
        for nodes in 0..=2 {
            for width in [1usize, 4, 6, 8, 10, 16, 17] {
                for now in [0u64, 99, 100, 149, 150, 250] {
                    assert_eq!(
                        earliest_timeline_fit(nodes, width, &free, &base, &overlay, now),
                        earliest_release_fit(nodes, width, &free, &current, now),
                        "overlaid walk diverged (nodes={nodes}, width={width}, now={now})"
                    );
                }
            }
        }
    }

    #[test]
    fn from_spec_derives_widths() {
        let spec = JobSpec::new(9, "hybrid")
            .with_tasks(4)
            .with_threads_per_task(4)
            .with_nodes(2)
            .with_time_limit_us(1_000);
        let q = QueuedJob::from_spec(&spec);
        assert_eq!(q.nodes, 2);
        assert_eq!(q.cpus_per_node, 8); // 2 tasks × 4 threads per node
        assert_eq!(q.min_cpus_per_node, 2); // one CPU per task
        assert!(q.malleable);
        assert_eq!(q.expected_duration_us, Some(1_000));
        assert_eq!(q.total_cpus(), 16);

        let rigid = QueuedJob::from_spec(&JobSpec::new(1, "r").with_tasks(2).rigid());
        assert_eq!(rigid.min_cpus_per_node, rigid.cpus_per_node);
    }

    /// Regression battery for the two ways a dirty-tracked skip could go
    /// wrong, each reproduced by a `#[cfg(test)]`-only policy variant that
    /// reintroduces the hazard on purpose. The sound (default) pass and the
    /// deliberately broken one run the same scenario: the broken one takes
    /// the wrong decision, proving the generation checks in
    /// [`ProbeMemo::still_blocked`] are what prevents it — with them
    /// bypassed, these tests fail exactly as a pre-fix implementation did.
    mod dirty_tracking_hazards {
        use super::*;

        /// A rigid holder at full width with an optional completion estimate.
        fn rigid_holder(
            id: u64,
            nodes: Vec<usize>,
            width: usize,
            end_us: Option<TimeUs>,
        ) -> RunningJob {
            RunningJob {
                job: QueuedJob::new(id, nodes.len(), width),
                alloc: JobAllocation {
                    job_id: id,
                    node_indices: nodes,
                    cpus_per_node: width,
                },
                start_us: 0,
                expected_end_us: end_us,
            }
        }

        fn iview<'a>(
            running: &'a [RunningJob],
            index: &'a SchedIndex,
            order: &'a AdmissionOrder,
        ) -> ClusterView<'a> {
            ClusterView {
                node_cpus: 16,
                running,
                index,
                order,
            }
        }

        /// Hazard (a), first-fit: a job is recorded blocked, then a release
        /// lands on its nodes. The sound pass re-probes (the release bumped
        /// the free generation of its width class) and starts it; a pass
        /// that trusts the stale signature skips the job forever.
        #[test]
        fn missed_release_must_invalidate_a_recorded_block_first_fit() {
            let holder = [rigid_holder(10, vec![0], 16, None)];
            let free_before = [0usize];
            let mut index = SchedIndex::rebuild(&free_before, &holder);
            let queue = vec![QueuedJob::new(1, 1, 16)];
            let order = AdmissionOrder::from_queue(&queue);

            let mut sound = FirstFitPolicy::default();
            let mut probe = AlwaysProbe(FirstFitPolicy::default());
            let mut unsound = FirstFitPolicy::unsound_stale_skip();
            let before = iview(&holder, &index, &order);
            assert!(sound.schedule(&before, &queue, 0).is_empty());
            assert!(probe.schedule(&before, &queue, 0).is_empty());
            assert!(unsound.schedule(&before, &queue, 0).is_empty());

            // The holder completes: the driver frees the node and feeds the
            // event to the index, bumping every width class the release
            // crossed (1..=16) — the recorded signature is now stale.
            index.on_complete(&holder[0].job, &[0], 16);
            let after = iview(&[], &index, &order);

            let expected = probe.schedule(&after, &queue, 1);
            assert_eq!(
                expected.len(),
                1,
                "the always-probe reference starts the job after the release"
            );
            assert_eq!(
                sound.schedule(&after, &queue, 1),
                expected,
                "the dirty-tracked pass must re-probe after the release"
            );
            assert!(
                unsound.schedule(&after, &queue, 1).is_empty(),
                "hazard reproduced: trusting the stale signature skips the \
                 now-startable job — the generation check is load-bearing"
            );
        }

        /// Hazard (a), malleable: same missed-release shape through the
        /// malleable pass (whose signatures also witness the availability
        /// generation at the shrink floor).
        #[test]
        fn missed_release_must_invalidate_a_recorded_block_malleable() {
            let holder = [rigid_holder(10, vec![0], 16, None)];
            let free_before = [0usize];
            let mut index = SchedIndex::rebuild(&free_before, &holder);
            let queue = vec![QueuedJob::new(1, 1, 16)];
            let order = AdmissionOrder::from_queue(&queue);

            let mut sound = MalleablePolicy::default();
            let mut probe = AlwaysProbe(MalleablePolicy::default());
            let mut unsound = MalleablePolicy::unsound_stale_skip();
            let before = iview(&holder, &index, &order);
            assert!(sound.schedule(&before, &queue, 0).is_empty());
            assert!(probe.schedule(&before, &queue, 0).is_empty());
            assert!(unsound.schedule(&before, &queue, 0).is_empty());

            index.on_complete(&holder[0].job, &[0], 16);
            let after = iview(&[], &index, &order);

            let expected = probe.schedule(&after, &queue, 1);
            assert_eq!(expected.len(), 1);
            assert_eq!(
                sound.schedule(&after, &queue, 1),
                expected,
                "the dirty-tracked malleable pass must re-probe after the release"
            );
            assert!(
                unsound.schedule(&after, &queue, 1).is_empty(),
                "hazard reproduced: the stale signature skips the startable job"
            );
        }

        /// Hazard (b), backfill: a memo-valid blocked FCFS job must *end the
        /// FCFS phase* (become the reserved head), exactly like a re-probed
        /// failure. A pass that instead skips onwards lets a later candidate
        /// — whose declared duration overruns the head's reservation — start
        /// in the head's place: the EASY guarantee is violated and the head
        /// is leapfrogged.
        #[test]
        fn memo_valid_head_must_not_be_leapfrogged() {
            let holder = [rigid_holder(10, vec![0], 8, Some(100_000_000))];
            let free = [8usize];
            let index = SchedIndex::rebuild(&free, &holder);
            // Head wants the whole node (reserved at the holder's release,
            // t = 100 s); the candidate fits *now* but runs 500 s — far past
            // the reservation, so EASY must refuse it.
            let queue = vec![
                QueuedJob::new(1, 1, 16).with_expected_duration_us(1_000_000_000),
                QueuedJob::new(2, 1, 8).with_expected_duration_us(500_000_000),
            ];
            let order = AdmissionOrder::from_queue(&queue);
            let view = iview(&holder, &index, &order);
            let now = 10_000_000;

            let mut sound = BackfillPolicy::default();
            let mut unsound = BackfillPolicy::unsound_skip_continues();
            // Pass 1 probes the head fresh and records its count-proven
            // failure; the candidate is refused by the reservation window.
            assert!(sound.schedule(&view, &queue, now).is_empty());
            assert!(unsound.schedule(&view, &queue, now).is_empty());
            // Pass 2, unchanged state: the head's signature is memo-valid.
            assert!(
                sound.schedule(&view, &queue, now).is_empty(),
                "the memo-valid head stays the reserved head — nothing starts"
            );
            let leapfrog = unsound.schedule(&view, &queue, now);
            assert_eq!(
                leapfrog.len(),
                1,
                "hazard reproduced: skipping past the memo-valid head admits \
                 a candidate the reservation window forbids: {leapfrog:?}"
            );
            assert!(
                matches!(leapfrog[0], SchedulerAction::Start { job_id: 2, .. }),
                "the overrunning candidate leapfrogged the EASY head"
            );
        }
    }

    mod timeline_replay_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One running-or-started job as the property generator sees it:
        /// `original − shrink` is its current width; `fresh` marks a job the
        /// pass started itself (absent from the base timeline, its full
        /// current width rides in the overlay).
        #[derive(Debug, Clone)]
        struct PropHolder {
            nodes: Vec<usize>,
            original: usize,
            shrink: usize,
            end: Option<TimeUs>,
            fresh: bool,
        }

        fn holder(num_nodes: usize) -> impl Strategy<Value = PropHolder> {
            (
                proptest::collection::btree_set(0..num_nodes, 1..=3),
                1..=8usize,
                0..8usize,
                (any::<bool>(), 0u64..300),
                any::<bool>(),
            )
                .prop_map(|(nodes, original, shrink, (estimated, end), fresh)| {
                    PropHolder {
                        nodes: nodes.into_iter().collect(),
                        original,
                        shrink: shrink % original, // keep the current width ≥ 1
                        end: estimated.then_some(end),
                        fresh,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// On arbitrary holder sets, the timeline walk equals the
            /// reference replay under BOTH production formulations: the
            /// whole current state as the base (empty overlay), and the
            /// pass-start state as the base with the pass's own shrinks and
            /// starts as overlay corrections.
            #[test]
            fn walk_matches_replay_on_arbitrary_holders(
                holders in proptest::collection::vec(holder(6), 0..8),
                free in proptest::collection::vec(0..=8usize, 6),
                nodes in 0..=4usize,
                width in 1..=10usize,
                now in 0u64..250,
            ) {
                let current: Vec<Holder<'_>> = holders
                    .iter()
                    .map(|h| Holder {
                        end_us: h.end,
                        node_indices: &h.nodes,
                        width: h.original - h.shrink,
                    })
                    .collect();
                let replay = earliest_release_fit(nodes, width, &free, &current, now);

                // Formulation 1: current state as base, nothing overlaid.
                let mut base_all = ReleaseTimeline::new();
                for (id, h) in holders.iter().enumerate() {
                    base_all.add(id as u64, &h.nodes, h.original - h.shrink, h.end);
                }
                prop_assert_eq!(
                    earliest_timeline_fit(nodes, width, &free, &base_all, &[], now),
                    replay.clone()
                );

                // Formulation 2: pass-start widths as base, the pass's own
                // shrinks (negative) and fresh starts (positive) overlaid.
                let mut base = ReleaseTimeline::new();
                let mut overlay: Vec<TimelineDelta<'_>> = Vec::new();
                for (id, h) in holders.iter().enumerate() {
                    if h.fresh {
                        if let Some(end_us) = h.end {
                            overlay.push(TimelineDelta {
                                end_us,
                                node_indices: &h.nodes,
                                delta: (h.original - h.shrink) as i64,
                            });
                        }
                    } else {
                        base.add(id as u64, &h.nodes, h.original, h.end);
                        if h.shrink > 0 {
                            if let Some(end_us) = h.end {
                                overlay.push(TimelineDelta {
                                    end_us,
                                    node_indices: &h.nodes,
                                    delta: -(h.shrink as i64),
                                });
                            }
                        }
                    }
                }
                overlay.sort_by_key(|d| d.end_us);
                prop_assert_eq!(
                    earliest_timeline_fit(nodes, width, &free, &base, &overlay, now),
                    replay
                );
            }
        }
    }
}
