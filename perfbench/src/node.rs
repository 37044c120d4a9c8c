//! `node-reconfig`: the paper's two-node MareNostrum III set-up with DROM on,
//! driven by the benchmark acting as the resource manager in a closed loop
//! with one client.
//!
//! A 4-task host job keeps running (two tasks, 8 CPUs each, per node). Task 0
//! drives an `OmpRuntime` of pool 2 with `DromOmptTool` attached; tasks 1–3
//! are polled Listing-1 style by the same thread. Each cycle launches a
//! 2-task guest over both nodes, which shrinks every host task 8 → 4 CPUs,
//! runs a few parallel regions, finalizes and completes the guest, and the
//! host tasks expand 4 → 8 again. Two threads in all: this one and the
//! runtime's one worker.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use drom_core::DromProcess;
use drom_cpuset::CpuSet;
use drom_ompsim::{DromOmptTool, OmpRuntime, ParallelContext};
use drom_shmem::ShmemStats;
use drom_slurm::{Cluster, JobSpec, LaunchedJob, Srun};

use crate::stats::{median, ns, percentile, run_for, SplitMix, Units, Values};
use crate::{Outcome, SETUP_REPS};

/// Cycles in one round; every round replays the same seeded cycle sequence,
/// so its work counters repeat exactly.
pub const CYCLES_PER_ROUND: usize = 1000;
const HOST_TASKS: usize = 4;
const GUEST_TASKS: usize = 2;
/// CPUs of one host task alone on its node, and beside a guest task.
const HOST_WIDE: usize = 8;
const HOST_NARROW: usize = 4;
const GUEST_WIDTH: usize = 8;
/// OpenMP pool of host task 0: the main thread plus one worker, so the
/// workload never runs more threads than the host's two cores.
const POOL: usize = 2;
/// Iterations of the arithmetic each team member does per region.
const REGION_WORK: u64 = 256;
/// No-op polls timed together; one clock pair per poll would cost a third
/// of what it measures.
const NOOP_BATCH: u64 = 64;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The running host job and everything it runs on.
struct Node {
    cluster: Arc<Cluster>,
    srun: Srun,
    nodes: Vec<String>,
    host: LaunchedJob,
    procs: Vec<Arc<DromProcess>>,
    rt: OmpRuntime,
    tool: Arc<DromOmptTool>,
}

/// Timings and counts of one round.
#[derive(Default)]
struct RoundLog {
    /// Per cycle, the mean of its `Srun::launch` and `Srun::complete` calls.
    /// Pooling the two calls instead would put the median between their
    /// two modes, where it jumps with noise.
    pass_ns: Vec<u64>,
    /// Per cycle, the mean of its shrink and its expand reconfiguration:
    /// from the launch / complete call until the last host task applied its
    /// new mask (task 0: entry into the next region).
    reconfig_ns: Vec<u64>,
    /// Regions after the one that closed a reconfiguration.
    region_ns: Vec<u64>,
    launch_ns: Vec<u64>,
    complete_ns: Vec<u64>,
    poll_update_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    init_ns: Vec<u64>,
    finalize_ns: Vec<u64>,
    /// Wall time of a batch of [`NOOP_BATCH`] no-op polls.
    noop_batch_ns: Vec<u64>,
}

fn region_body(ctx: &ParallelContext) {
    let mut acc = ctx.thread_num as u64;
    for i in 0..REGION_WORK {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    black_box(acc);
}

impl Node {
    fn start() -> Result<Node, String> {
        let cluster = Arc::new(Cluster::marenostrum3(2));
        let srun = Srun::new(Arc::clone(&cluster), true);
        let nodes = cluster.node_names();
        let spec = JobSpec::new(1, "host")
            .with_tasks(HOST_TASKS)
            .with_nodes(nodes.len());
        let host = srun.launch(&spec, &nodes).map_err(err("host launch"))?;
        let procs = host
            .tasks
            .iter()
            .map(|t| {
                let shmem = cluster.shmem(&t.node).map_err(err("host shmem"))?;
                DromProcess::init_from_environ(&t.environ, shmem)
                    .map(Arc::new)
                    .map_err(err("host init"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rt = OmpRuntime::new(POOL);
        let tool = DromOmptTool::attach(&rt, Arc::clone(&procs[0]));
        Ok(Node {
            cluster,
            srun,
            nodes,
            host,
            procs,
            rt,
            tool,
        })
    }

    fn stop(self) -> Result<(), String> {
        self.rt.unregister_tool();
        drop(self.rt);
        for p in &self.procs {
            p.finalize().map_err(err("host finalize"))?;
        }
        self.srun.complete(&self.host).map_err(err("host complete"))
    }

    /// Work counters of both nodes' shared memory and of the OMPT tool.
    fn counters(&self) -> Result<Values, String> {
        let mut total = ShmemStats::default();
        for node in &self.nodes {
            let s = self.cluster.shmem(node).map_err(err("shmem"))?.stats();
            total.polls += s.polls;
            total.poll_updates += s.poll_updates;
            total.mask_sets += s.mask_sets;
            total.steals += s.steals;
            total.preregisters += s.preregisters;
        }
        Ok(Values::from([
            ("shmem.polls", total.polls as f64),
            ("shmem.poll_updates", total.poll_updates as f64),
            ("shmem.mask_sets", total.mask_sets as f64),
            ("shmem.steals", total.steals as f64),
            ("shmem.preregisters", total.preregisters as f64),
            ("ompsim.drom_tool.polls", self.tool.polls() as f64),
            (
                "ompsim.drom_tool.mask_changes",
                self.tool.mask_changes() as f64,
            ),
        ]))
    }

    /// Brings every host task to its posted mask: tasks 1–3 poll, task 0
    /// picks it up at its next region's `parallel_begin` (or, traced, at an
    /// explicit timed `poll_and_apply`). Returns the time from `t0` until
    /// task 0's team entered that region.
    fn follow(
        &self,
        t0: Instant,
        width: usize,
        traced: bool,
        log: &mut RoundLog,
    ) -> Result<u64, String> {
        for p in &self.procs[1..] {
            let t = Instant::now();
            let mask = p.poll_drom().map_err(err("poll"))?;
            if traced {
                log.poll_update_ns.push(ns(t.elapsed()));
            }
            match mask {
                Some(m) if m.count() == width => {}
                other => {
                    return Err(format!(
                        "host pid {} polled {:?} CPUs, expected {width}",
                        p.pid(),
                        other.map(|m| m.count())
                    ))
                }
            }
        }
        if traced {
            let t = Instant::now();
            let applied = self.tool.poll_and_apply();
            log.apply_ns.push(ns(t.elapsed()));
            if !applied {
                return Err("the OMPT tool found no mask to apply".into());
            }
        }
        let entered = AtomicU64::new(0);
        self.rt.parallel(|ctx| {
            if ctx.thread_num == 0 {
                entered.store(ns(t0.elapsed()), Ordering::Relaxed);
            }
            region_body(ctx);
        });
        Ok(entered.load(Ordering::Relaxed))
    }

    /// Runs `count` more regions, timing each.
    fn regions(&self, count: usize, log: &mut RoundLog) {
        for _ in 0..count {
            let t = Instant::now();
            self.rt.parallel(region_body);
            log.region_ns.push(ns(t.elapsed()));
        }
    }

    /// Output check after a reconfiguration: every host task (and task 0's
    /// team binding) holds `width` CPUs, every guest `GUEST_WIDTH`, no mask
    /// is left unapplied, no CPU is held twice, and held plus free CPUs
    /// cover each node exactly.
    fn check(&self, width: usize, guests: &[DromProcess]) -> Result<(), String> {
        for p in &self.procs {
            if p.num_cpus() != width {
                return Err(format!(
                    "host pid {} holds {} CPUs, expected {width}",
                    p.pid(),
                    p.num_cpus()
                ));
            }
        }
        let binding = self.rt.settings().binding().count();
        if binding != width {
            return Err(format!(
                "task 0's team is bound to {binding} CPUs, expected {width}"
            ));
        }
        for g in guests {
            if g.num_cpus() != GUEST_WIDTH {
                return Err(format!("guest pid {} holds {} CPUs", g.pid(), g.num_cpus()));
            }
        }
        for node in &self.nodes {
            let shmem = self.cluster.shmem(node).map_err(err("shmem"))?;
            let entries = shmem.entries();
            let mut held = CpuSet::new();
            for e in &entries {
                if e.pending_mask.is_some() {
                    return Err(format!("{node}: pid {} has an unapplied mask", e.pid));
                }
                if !held.is_disjoint(&e.current_mask) {
                    return Err(format!("{node}: pid {} holds a CPU already held", e.pid));
                }
                held = held.union(&e.current_mask);
                for cpu in e.current_mask.iter() {
                    let owner = shmem.cpu_owner(cpu);
                    if !owner.is_some_and(|o| entries.iter().any(|x| x.pid == o)) {
                        return Err(format!("{node}: CPU {cpu} has owner {owner:?}"));
                    }
                }
            }
            let free = shmem.free_cpus();
            if !free.is_disjoint(&held) || free.union(&held).count() != shmem.node_cpus() {
                return Err(format!(
                    "{node}: held and free CPUs do not partition the node"
                ));
            }
        }
        Ok(())
    }

    /// One shrink/expand cycle with guest job `job_id`; `regions` is the
    /// number of regions task 0 runs after each reconfiguration.
    fn cycle(
        &self,
        job_id: u64,
        regions: [usize; 2],
        traced: bool,
        log: &mut RoundLog,
    ) -> Result<u64, String> {
        let mut excluded = 0u64;
        let spec = JobSpec::new(job_id, "guest")
            .with_tasks(GUEST_TASKS)
            .with_nodes(self.nodes.len());

        // Shrink: launching the guest reserves half of each node through
        // DROM_PreInit, posting 4-CPU masks to the host tasks.
        let t0 = Instant::now();
        let guest = self
            .srun
            .launch(&spec, &self.nodes)
            .map_err(err("guest launch"))?;
        let launch = ns(t0.elapsed());
        if traced {
            log.launch_ns.push(launch);
        }
        let shrink = self.follow(t0, HOST_NARROW, traced, log)?;
        let mut guests = Vec::with_capacity(guest.tasks.len());
        for t in &guest.tasks {
            let shmem = self.cluster.shmem(&t.node).map_err(err("guest shmem"))?;
            let ti = Instant::now();
            let p = DromProcess::init_from_environ(&t.environ, shmem).map_err(err("guest init"))?;
            if traced {
                log.init_ns.push(ns(ti.elapsed()));
            }
            guests.push(p);
        }
        let tc = Instant::now();
        self.check(HOST_NARROW, &guests)?;
        excluded += ns(tc.elapsed());
        self.regions(regions[0] - 1, log);

        // Expand: the guest finalizes, the resource manager completes it and
        // the freed CPUs return to the host tasks.
        for g in &guests {
            let tf = Instant::now();
            g.finalize().map_err(err("guest finalize"))?;
            if traced {
                log.finalize_ns.push(ns(tf.elapsed()));
            }
        }
        drop(guests);
        let t1 = Instant::now();
        self.srun.complete(&guest).map_err(err("guest complete"))?;
        let complete = ns(t1.elapsed());
        if traced {
            log.complete_ns.push(complete);
        }
        let expand = self.follow(t1, HOST_WIDE, traced, log)?;
        log.pass_ns.push((launch + complete) / 2);
        log.reconfig_ns.push((shrink + expand) / 2);
        let tc = Instant::now();
        self.check(HOST_WIDE, &[])?;
        excluded += ns(tc.elapsed());
        self.regions(regions[1] - 1, log);

        if traced {
            let p = &self.procs[1];
            let tn = Instant::now();
            for _ in 0..NOOP_BATCH {
                if black_box(p.poll_drom().map_err(err("no-op poll"))?).is_some() {
                    return Err("a no-op poll returned a mask".into());
                }
            }
            let batch = ns(tn.elapsed());
            log.noop_batch_ns.push(batch);
            excluded += batch;
        }
        Ok(excluded)
    }

    /// One round of `cycles` cycles from a fresh seeded sequence. Returns
    /// its timings and its work counts.
    fn round(&self, seed: u64, cycles: usize, traced: bool) -> Result<(Values, Values), String> {
        let mut log = RoundLog::default();
        let mut rng = SplitMix::new(seed);
        let before = self.counters()?;
        let started = Instant::now();
        let mut excluded = 0;
        for c in 0..cycles {
            let regions = [2 + (rng.next() % 3) as usize, 2 + (rng.next() % 3) as usize];
            excluded += self.cycle(2 + c as u64, regions, traced, &mut log)?;
        }
        let active_s = ns(started.elapsed()).saturating_sub(excluded) as f64 / 1e9;
        let after = self.counters()?;
        let counts = after.iter().map(|(k, v)| (*k, v - before[k])).collect();
        Ok((log.timings(cycles, active_s), counts))
    }
}

impl RoundLog {
    /// Summarizes one round; its samples are dropped, so memory does not
    /// grow with the number of rounds.
    fn timings(mut self, cycles: usize, active_s: f64) -> Values {
        let mut v = Values::from([
            ("events_per_s", 2.0 * cycles as f64 / active_s),
            ("pass_p50_us", p_us(&mut self.pass_ns, 50.0)),
            ("pass_p99_us", p_us(&mut self.pass_ns, 99.0)),
            ("reconfig_p50_us", p_us(&mut self.reconfig_ns, 50.0)),
            ("reconfig_p99_us", p_us(&mut self.reconfig_ns, 99.0)),
            ("region_p50_us", p_us(&mut self.region_ns, 50.0)),
        ]);
        if !self.launch_ns.is_empty() {
            let batch = NOOP_BATCH as f64;
            v.extend([
                (
                    "slurm.launcher.launch_p50_us",
                    p_us(&mut self.launch_ns, 50.0),
                ),
                (
                    "slurm.launcher.complete_p50_us",
                    p_us(&mut self.complete_ns, 50.0),
                ),
                (
                    "core.poll_update_p50_us",
                    p_us(&mut self.poll_update_ns, 50.0),
                ),
                (
                    "ompsim.drom_tool.apply_p50_us",
                    p_us(&mut self.apply_ns, 50.0),
                ),
                ("core.init_p50_us", p_us(&mut self.init_ns, 50.0)),
                ("core.finalize_p50_us", p_us(&mut self.finalize_ns, 50.0)),
                (
                    "core.poll_noop_p50_ns",
                    percentile(&mut self.noop_batch_ns, 50.0) as f64 / batch,
                ),
                (
                    "core.poll_noop_p99_ns",
                    percentile(&mut self.noop_batch_ns, 99.0) as f64 / batch,
                ),
            ]);
        }
        v
    }
}

fn p_us(samples: &mut [u64], p: f64) -> f64 {
    percentile(samples, p) as f64 / 1e3
}

/// Runs `node-reconfig` for `seconds` in rounds of `cycles` cycles. With
/// `traced`, untraced and traced rounds alternate.
///
/// The main thread starts each set-up pinned to the first allowed CPU, so
/// the OpenMP worker inherits that CPU, and then moves to the second: where
/// the scheduler happens to place the two threads otherwise changes the
/// fork-join cost of a region by up to 2×.
pub fn run(seed: u64, seconds: f64, traced: bool, cycles: usize) -> Result<Outcome, String> {
    let cpus = affinity::allowed();
    let worker_cpu = cpus.first().copied();
    let main_cpu = cpus.get(1).copied().or(worker_cpu);
    let mut setup_s = Vec::new();
    let mut node = None;
    for rep in 0..SETUP_REPS {
        if let Some(cpu) = worker_cpu {
            affinity::pin(cpu);
        }
        let t = Instant::now();
        let n = Node::start()?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(cpu) = main_cpu {
            affinity::pin(cpu);
        }
        if rep + 1 < SETUP_REPS {
            n.stop()?;
        } else {
            node = Some(n);
        }
    }
    let node = node.ok_or("no set-up repetitions")?;
    let mut out = Outcome::default();
    let mut units = Units::default();
    // A tenth of a round warms up first, checked but not measured.
    let warm_up = node.round(seed, cycles / 10, false);
    let measured = warm_up.and_then(|_| {
        run_for(seconds, if traced { 2 } else { 1 }, |i| {
            let traced_unit = traced && i % 2 == 1;
            let (timings, counts) = node.round(seed, cycles, traced_unit)?;
            out.attempted += 2 * cycles as u64;
            if !units.push(timings, traced_unit.then_some(counts)) {
                out.failed += 1;
                out.errors
                    .push("work counts differ between rounds of one seed".into());
            }
            Ok(())
        })
    });
    if let Err(e) = measured {
        // The failing reconfiguration stops the run; count it.
        out.attempted += 2;
        out.failed += 1;
        out.errors.push(e);
        return Ok(out);
    }
    if let Err(e) = node.stop() {
        out.failed += 1;
        out.errors.push(e);
    }
    let cpu = |c: Option<usize>| c.map_or("any".to_string(), |c| c.to_string());
    out.lines.push(format!(
        "{} rounds of {cycles} cycles ({} traced); main thread on CPU {}, \
         OpenMP worker on CPU {}",
        units.len(),
        units.traced(),
        cpu(main_cpu),
        cpu(worker_cpu)
    ));

    out.values = units.values();
    out.values.insert("setup_s", median(&setup_s));
    Ok(out)
}

/// CPU affinity of the calling thread, through the C library.
mod affinity {
    /// Words of a 1024-CPU `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs this thread may run on, ascending (empty if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread to `cpu`; threads it creates afterwards
    /// inherit the pin. Best effort: a refused pin leaves the thread free.
    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}
