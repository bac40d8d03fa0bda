//! The big.LITTLE platform simulator.
//!
//! Threads are distributed round-robin over every core of every cluster;
//! each core owns a private L1D, each cluster shares an L2, and all clusters
//! share DRAM. Memory-access streams are generated statistically per thread
//! (see [`crate::workload`]) and — for tractability — sampled: up to
//! [`SystemConfig::sample_accesses_per_thread`] references are simulated per
//! thread and the counters scaled back to the full run.
//!
//! Stall accounting (what reaches the core's execution time):
//!
//! - an L1 hit is pipelined away (no stall),
//! - an L1 miss exposes the L2 read-hit latency,
//! - an L2 miss additionally exposes the DRAM latency, and the returning
//!   fill must be *written into the L2 array* — with an STT-MRAM L2 this
//!   write is slow and partially exposed ([`FILL_WRITE_EXPOSURE`]),
//! - dirty evictions from L1 write the L2 array too, mostly hidden behind
//!   buffers ([`WRITEBACK_EXPOSURE`]).
//!
//! [`System::run_group`] simulates one kernel on several platforms in fused
//! passes: platforms that differ only below the L1 share the stream
//! synthesis and L1 filtering, and share an L2 back-end where their L2s
//! behave identically. Every report equals the platform's own run bit for
//! bit; the single-platform entry points are groups of one.

use std::sync::Arc;

use mss_exec::supervise::{CancelToken, PartialSweep, SupervisorConfig};
use mss_exec::{par_map, ParallelConfig};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::core::CoreModel;
use crate::dram::{DramSim, RowBufferConfig};
use crate::faultmem::{FaultMemConfig, FaultMemory};
use crate::stats::{CacheActivity, CoreActivity, SimReport};
use crate::workload::{AccessStream, Kernel, MemoryAccess};
use crate::GemsimError;

/// Fraction of an L2 fill-write latency exposed to the core.
pub const FILL_WRITE_EXPOSURE: f64 = 0.35;
/// Fraction of an L1→L2 write-back latency exposed to the core.
pub const WRITEBACK_EXPOSURE: f64 = 0.15;

/// Accesses synthesized per [`AccessStream::fill`] batch. Batching
/// amortizes the generator call and keeps the per-access state in
/// registers; it does not change the consumption order, so reports are
/// bit-identical to the one-at-a-time loop.
const DEFAULT_CHUNK: usize = 1024;

/// One cluster: homogeneous cores + private L1Ds + a shared L2.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Cluster display name ("big", "LITTLE").
    pub name: String,
    /// Core timing model.
    pub core: CoreModel,
    /// Number of cores.
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
}

impl mss_pipe::StableHash for ClusterConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        h.write_str(&self.name);
        self.core.stable_hash(h);
        h.write_u32(self.cores);
        self.l1d.stable_hash(h);
        self.l2.stable_hash(h);
    }
}

/// The platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Clusters (the default platform has big + LITTLE).
    pub clusters: Vec<ClusterConfig>,
    /// DRAM access latency, seconds.
    pub dram_latency: f64,
    /// DRAM energy per transaction, joules.
    pub dram_energy: f64,
    /// DRAM background power, watts.
    pub dram_background_power: f64,
    /// Optional row-buffer model; `None` charges the flat latency per
    /// transaction, `Some` makes open-row hits cost
    /// [`RowBufferConfig::hit_latency`] instead.
    pub row_buffer: Option<RowBufferConfig>,
    /// Next-line prefetch into the L2 on every demand miss (opt-in): the
    /// sequential follower line is fetched alongside, hiding the DRAM
    /// latency of streaming kernels at the cost of extra DRAM traffic.
    pub l2_next_line_prefetch: bool,
    /// Per-thread cap on simulated memory references (sampling).
    pub sample_accesses_per_thread: u64,
    /// Optional fault-aware main-memory array: every DRAM-level transaction
    /// runs through a seeded fault injector and an ECC controller (see
    /// [`crate::faultmem`]). `None` models a perfect array.
    pub fault: Option<FaultMemConfig>,
}

fn sram_l1(name: &str) -> CacheConfig {
    CacheConfig {
        name: name.to_string(),
        capacity: 32 << 10,
        associativity: 4,
        line_bytes: 64,
        read_latency: 1.0e-9,
        write_latency: 1.0e-9,
        read_energy: 10e-12,
        write_energy: 12e-12,
        leakage_power: 8e-3,
    }
}

impl mss_pipe::StableHash for SystemConfig {
    fn stable_hash(&self, h: &mut mss_pipe::StableHasher) {
        self.clusters.stable_hash(h);
        h.write_f64(self.dram_latency);
        h.write_f64(self.dram_energy);
        h.write_f64(self.dram_background_power);
        match &self.row_buffer {
            None => h.write_u8(0),
            Some(rb) => {
                h.write_u8(1);
                rb.stable_hash(h);
            }
        }
        self.l2_next_line_prefetch.stable_hash(h);
        h.write_u64(self.sample_accesses_per_thread);
        match &self.fault {
            None => h.write_u8(0),
            Some(f) => {
                h.write_u8(1);
                f.stable_hash(h);
            }
        }
    }
}

impl SystemConfig {
    /// The default Exynos-5-style big.LITTLE platform with all-SRAM caches
    /// (the paper's Full-SRAM reference scenario).
    pub fn big_little_default() -> Self {
        Self {
            clusters: vec![
                ClusterConfig {
                    name: "big".into(),
                    core: CoreModel::big(),
                    cores: 4,
                    l1d: sram_l1("big.L1D"),
                    l2: CacheConfig {
                        name: "big.L2".into(),
                        capacity: 2 << 20,
                        associativity: 16,
                        line_bytes: 64,
                        read_latency: 5.0e-9,
                        write_latency: 5.0e-9,
                        read_energy: 120e-12,
                        write_energy: 130e-12,
                        leakage_power: 0.35,
                    },
                },
                ClusterConfig {
                    name: "LITTLE".into(),
                    core: CoreModel::little(),
                    cores: 4,
                    l1d: sram_l1("LITTLE.L1D"),
                    l2: CacheConfig {
                        name: "LITTLE.L2".into(),
                        capacity: 512 << 10,
                        associativity: 8,
                        line_bytes: 64,
                        read_latency: 4.0e-9,
                        write_latency: 4.0e-9,
                        read_energy: 60e-12,
                        write_energy: 65e-12,
                        leakage_power: 0.09,
                    },
                },
            ],
            dram_latency: 80e-9,
            dram_energy: 15e-9,
            dram_background_power: 0.15,
            row_buffer: None,
            l2_next_line_prefetch: false,
            sample_accesses_per_thread: 150_000,
            fault: None,
        }
    }

    /// Validates the platform.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidSystem`] / [`GemsimError::InvalidCache`].
    pub fn validate(&self) -> Result<(), GemsimError> {
        if self.clusters.is_empty() {
            return Err(GemsimError::InvalidSystem {
                reason: "no clusters".into(),
            });
        }
        if self.clusters.iter().all(|c| c.cores == 0) {
            return Err(GemsimError::InvalidSystem {
                reason: "no cores in any cluster".into(),
            });
        }
        if self.dram_latency <= 0.0 || self.sample_accesses_per_thread == 0 {
            return Err(GemsimError::InvalidSystem {
                reason: "DRAM latency and sampling cap must be positive".into(),
            });
        }
        for c in &self.clusters {
            c.l1d.validate()?;
            c.l2.validate()?;
        }
        if let Some(rb) = &self.row_buffer {
            rb.validate()?;
        }
        if let Some(fault) = &self.fault {
            fault.validate()?;
        }
        Ok(())
    }

    /// Total cores across all clusters.
    pub fn total_cores(&self) -> u32 {
        self.clusters.iter().map(|c| c.cores).sum()
    }
}

/// Where a kernel's threads are allowed to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Threads spread over every core of every cluster (default).
    AllClusters,
    /// Threads pinned to the named cluster; the other cluster idles (and
    /// only leaks).
    Cluster(String),
}

/// The platform simulator.
#[derive(Debug, Clone)]
pub struct System {
    config: SystemConfig,
    /// Each cluster's L1D and L2 configuration, shared by every report of
    /// this platform.
    cache_configs: Vec<(Arc<CacheConfig>, Arc<CacheConfig>)>,
}

impl System {
    /// Validates and wraps a platform configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemConfig::validate`].
    pub fn new(config: SystemConfig) -> Result<Self, GemsimError> {
        config.validate()?;
        let cache_configs = config
            .clusters
            .iter()
            .map(|c| (Arc::new(c.l1d.clone()), Arc::new(c.l2.clone())))
            .collect();
        Ok(Self {
            config,
            cache_configs,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs one kernel spread over every cluster (see [`System::run_placed`]).
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] for malformed kernels.
    pub fn run(&self, kernel: &Kernel, seed: u64) -> Result<SimReport, GemsimError> {
        self.run_placed(kernel, seed, &Placement::AllClusters)
    }

    /// Runs a batch of kernels in parallel (one task per kernel), returning
    /// reports **in kernel order**.
    ///
    /// Every kernel replays its own deterministic access streams from
    /// `seed`, so the batch is bit-identical to running the kernels one by
    /// one — threads only change the wall time.
    ///
    /// # Errors
    ///
    /// The first kernel error in kernel order.
    pub fn run_many(
        &self,
        kernels: &[Kernel],
        seed: u64,
        exec: &ParallelConfig,
    ) -> Result<Vec<SimReport>, GemsimError> {
        let _span = mss_obs::span("gemsim.run_many");
        par_map(exec, kernels, |_, kernel| self.run(kernel, seed))
            .into_iter()
            .collect()
    }

    /// Runs a batch of kernels under the sweep supervisor: each kernel is
    /// isolated (a panic or failure becomes a [`mss_exec::TaskFailure`]),
    /// bounded by the supervisor's per-task deadline (observed at access
    /// chunk boundaries), retried deterministically, and the batch returns
    /// a [`PartialSweep`] with completed reports in kernel order.
    ///
    /// Completed reports are bit-identical to [`System::run_many`] output
    /// for the same kernels at any thread count.
    pub fn run_many_supervised(
        &self,
        kernels: &[Kernel],
        seed: u64,
        exec: &ParallelConfig,
        sup: &SupervisorConfig,
    ) -> PartialSweep<SimReport> {
        let _span = mss_obs::span("gemsim.run_many");
        let sup = if sup.label.is_empty() {
            sup.with_label("gemsim.run_many")
        } else {
            *sup
        };
        mss_exec::supervised_map(exec, &sup, kernels, |ctx, kernel| {
            self.run_cancellable(kernel, seed, &Placement::AllClusters, ctx.token())
        })
    }

    /// [`System::run_placed`] with a cooperative cancellation token checked
    /// at every access-chunk boundary.
    ///
    /// # Errors
    ///
    /// [`GemsimError::Cancelled`] when the token trips mid-run, plus every
    /// [`System::run_placed`] error.
    pub fn run_cancellable(
        &self,
        kernel: &Kernel,
        seed: u64,
        placement: &Placement,
        token: &CancelToken,
    ) -> Result<SimReport, GemsimError> {
        Self::run_group(&[self], kernel, seed, placement, Some(token)).map(one_report)
    }

    /// Runs one kernel with an explicit thread placement and reports system
    /// activity.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] for malformed kernels, and
    /// [`GemsimError::InvalidSystem`] when a pinned cluster name does not
    /// exist.
    pub fn run_placed(
        &self,
        kernel: &Kernel,
        seed: u64,
        placement: &Placement,
    ) -> Result<SimReport, GemsimError> {
        Self::run_group(&[self], kernel, seed, placement, None).map(one_report)
    }

    /// Runs one kernel on every platform of `systems` and returns one report
    /// per platform, **in `systems` order**. Each report is bit-identical to
    /// that platform's own [`System::run_placed`] (or
    /// [`System::run_cancellable`] when `token` is set); grouping only
    /// removes repeated work.
    ///
    /// Platforms whose clusters, core counts, core models, L1 geometry and
    /// sampling cap match share one fused pass: every thread's access stream
    /// is synthesized once and filtered once through its core's L1, and the
    /// L1 misses and dirty victims are replayed into one L2/DRAM back-end
    /// per distinct behavioural configuration. Platforms share a back-end
    /// when the cluster's L2 geometry (capacity, associativity, line) and
    /// the prefetch flag match — per cluster when `row_buffer` and `fault`
    /// are both `None`, and across the whole platform otherwise, since the
    /// row buffer and the fault array carry state from one cluster to the
    /// next. Each platform still adds up its own stall time with its own
    /// latencies, term by term in the order [`System::run_placed`] does.
    ///
    /// # Errors
    ///
    /// [`GemsimError::InvalidWorkload`] for malformed kernels,
    /// [`GemsimError::InvalidSystem`] when a pinned cluster name is missing
    /// from any platform, and [`GemsimError::Cancelled`] when `token` trips.
    pub fn run_group(
        systems: &[&System],
        kernel: &Kernel,
        seed: u64,
        placement: &Placement,
        token: Option<&CancelToken>,
    ) -> Result<Vec<SimReport>, GemsimError> {
        kernel.validate()?;
        if let Placement::Cluster(name) = placement {
            if systems
                .iter()
                .any(|s| !s.config.clusters.iter().any(|c| &c.name == name))
            {
                return Err(GemsimError::InvalidSystem {
                    reason: format!("no cluster named '{name}' to pin to"),
                });
            }
        }
        // Fused passes in order of first appearance.
        let mut passes: Vec<Vec<usize>> = Vec::new();
        for (i, system) in systems.iter().enumerate() {
            let lead = |pass: &&mut Vec<usize>| &systems[pass[0]].config;
            match passes
                .iter_mut()
                .find(|p| shares_prefix(lead(p), &system.config, placement))
            {
                Some(pass) => pass.push(i),
                None => passes.push(vec![i]),
            }
        }
        let mut reports: Vec<Option<SimReport>> = vec![None; systems.len()];
        for pass in &passes {
            let members: Vec<&System> = pass.iter().map(|&i| systems[i]).collect();
            let ran = run_pass(&members, kernel, seed, placement, token)?;
            for (&i, report) in pass.iter().zip(ran) {
                reports[i] = Some(report);
            }
        }
        Ok(reports
            .into_iter()
            .map(|r| r.expect("every platform runs in exactly one pass"))
            .collect())
    }
}

/// The report of a group of one.
fn one_report(mut reports: Vec<SimReport>) -> SimReport {
    reports.pop().expect("a group of one yields one report")
}

/// Same clusters, core counts and models, L1 geometry, active set and
/// sampling cap: the two platforms synthesize and L1-filter identical
/// access streams.
fn shares_prefix(a: &SystemConfig, b: &SystemConfig, placement: &Placement) -> bool {
    a.sample_accesses_per_thread == b.sample_accesses_per_thread
        && a.clusters.len() == b.clusters.len()
        && a.clusters.iter().zip(&b.clusters).all(|(x, y)| {
            x.cores == y.cores
                && x.core == y.core
                && same_geometry(&x.l1d, &y.l1d)
                && is_active(x, placement) == is_active(y, placement)
        })
}

/// Same DRAM-side behaviour: equal row buffer, fault array and prefetch
/// flag, and an equal L2 geometry in every cluster, so both platforms send
/// DRAM the same transaction sequence.
fn shares_memory(a: &SystemConfig, b: &SystemConfig) -> bool {
    a.row_buffer == b.row_buffer
        && a.fault == b.fault
        && a.l2_next_line_prefetch == b.l2_next_line_prefetch
        && a.clusters.len() == b.clusters.len()
        && a.clusters
            .iter()
            .zip(&b.clusters)
            .all(|(x, y)| same_geometry(&x.l2, &y.l2))
}

/// Equal hit/miss behaviour: timing and energy never feed back into the
/// replacement state.
fn same_geometry(a: &CacheConfig, b: &CacheConfig) -> bool {
    a.capacity == b.capacity && a.associativity == b.associativity && a.line_bytes == b.line_bytes
}

fn is_active(cluster: &ClusterConfig, placement: &Placement) -> bool {
    match placement {
        Placement::AllClusters => true,
        Placement::Cluster(name) => &cluster.name == name,
    }
}

/// One L1 miss as the L2 back-ends see it: the demand line, and the dirty
/// victim it displaced, which is written into the L2 after the fetch.
#[derive(Debug, Clone, Copy)]
struct L1Miss {
    address: u64,
    dirty_victim: Option<u64>,
}

/// One platform's view of a back-end: its own stall terms, each computed
/// exactly as the per-platform loop writes it, and the stall it has run up
/// on the current core.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// Index of the platform in its pass.
    platform: usize,
    /// L2 read-hit latency, charged on every L1 miss.
    read: f64,
    /// Flat DRAM latency plus the exposed fill write, on an L2 miss.
    fill: f64,
    /// Open-row DRAM latency plus the exposed fill write (row buffer only).
    row_fill: f64,
    /// Exposed share of an L1 victim's write into the L2.
    writeback: f64,
    stall: f64,
}

/// DRAM-side state that lives across clusters: the row buffer and the
/// fault-aware array of one platform-wide back-end.
struct MemSide {
    dram: Option<DramSim>,
    fault: Option<FaultMemory>,
}

/// One cluster's L2 plus the platforms whose L2 behaves identically.
struct Backend {
    l2: Cache,
    prefetch: bool,
    /// The platform-wide DRAM side, `None` for a per-cluster back-end.
    mem: Option<usize>,
    dram_reads: u64,
    dram_writes: u64,
    taps: Vec<Tap>,
}

impl Backend {
    /// Replays one chunk's L1 misses, in order, through the L2, DRAM and
    /// fault array, and charges every tap its stall.
    fn replay(&mut self, misses: &[L1Miss], mems: &mut [MemSide]) {
        let (mut dram, mut fault) = match self.mem {
            Some(i) => (mems[i].dram.as_mut(), mems[i].fault.as_mut()),
            None => (None, None),
        };
        let line_bytes = self.l2.config().line_bytes as u64;
        for miss in misses {
            // L1 miss: read the line from L2.
            let l2_out = self.l2.access(miss.address, false);
            let mut row_hit = false;
            if !l2_out.hit {
                // L2 miss: DRAM fetch + fill write into the L2 array.
                self.dram_reads += 1;
                if let Some(fm) = fault.as_deref_mut() {
                    fm.read(miss.address / line_bytes);
                }
                if self.prefetch {
                    // Pull the follower line in alongside; a line already
                    // present is left untouched.
                    let next = miss.address + line_bytes;
                    let pf = self.l2.prefetch(next);
                    if pf.allocated {
                        self.dram_reads += 1;
                        if let Some(fm) = fault.as_deref_mut() {
                            fm.read(next / line_bytes);
                        }
                    }
                    if pf.writeback {
                        self.dram_writes += 1;
                        if let Some(fm) = fault.as_deref_mut() {
                            let v = pf.victim.expect("writeback implies victim");
                            fm.write(v / line_bytes);
                        }
                    }
                }
                row_hit = dram.as_deref_mut().is_some_and(|d| d.access(miss.address));
            }
            if l2_out.writeback {
                self.dram_writes += 1;
                if let Some(fm) = fault.as_deref_mut() {
                    // The line going to DRAM is the evicted victim, not the
                    // line being fetched.
                    let v = l2_out.victim.expect("writeback implies victim");
                    fm.write(v / line_bytes);
                }
            }
            if let Some(victim) = miss.dirty_victim {
                // Dirty L1 victim written into the L2 array at its real line
                // address.
                let wb = self.l2.access(victim, true);
                if wb.writeback {
                    self.dram_writes += 1;
                    if let Some(fm) = fault.as_deref_mut() {
                        let v = wb.victim.expect("writeback implies victim");
                        fm.write(v / line_bytes);
                    }
                }
            }
            for tap in &mut self.taps {
                tap.stall += tap.read;
                if !l2_out.hit {
                    tap.stall += if row_hit { tap.row_fill } else { tap.fill };
                }
                if miss.dirty_victim.is_some() {
                    tap.stall += tap.writeback;
                }
            }
        }
    }
}

/// The report under construction for one platform of a pass.
#[derive(Default)]
struct PlatformOut {
    cores: Vec<CoreActivity>,
    caches: Vec<CacheActivity>,
    dram_reads: u64,
    dram_writes: u64,
    dram_row_hits: u64,
    runtime: f64,
}

/// One fused pass over platforms that all share the lead's prefix (see
/// [`shares_prefix`]); reports come back in `platforms` order.
fn run_pass(
    systems: &[&System],
    kernel: &Kernel,
    seed: u64,
    placement: &Placement,
    token: Option<&CancelToken>,
) -> Result<Vec<SimReport>, GemsimError> {
    let _span = mss_obs::span("gemsim.run");
    let platforms: Vec<&SystemConfig> = systems.iter().map(|s| &s.config).collect();
    let lead = platforms[0];
    let total_cores: u64 = lead
        .clusters
        .iter()
        .filter(|c| is_active(c, placement))
        .map(|c| c.cores as u64)
        .sum();
    let threads = kernel.threads as u64;
    // Thread t -> core (t mod cores). Work is balanced by compute
    // throughput (frequency / CPI), modelling the work-stealing runtimes
    // Parsec kernels use: every core finishes its compute share
    // simultaneously, so memory stalls decide the critical path.
    let total_weight: f64 = {
        let mut w = 0.0;
        let mut core_id = 0u64;
        for cluster in lead.clusters.iter().filter(|c| is_active(c, placement)) {
            for _ in 0..cluster.cores {
                let owned = (0..threads).filter(|t| t % total_cores == core_id).count();
                w += owned as f64 * cluster.core.frequency / cluster.core.base_cpi;
                core_id += 1;
            }
        }
        w
    };

    // Platform-wide DRAM sides, one per class of platforms that send DRAM
    // the same transactions. They are rebuilt per pass so identical seeds
    // replay an identical fault history.
    let mut mems: Vec<MemSide> = Vec::new();
    let mut mem_leads: Vec<usize> = Vec::new();
    let mut mem_of: Vec<Option<usize>> = Vec::with_capacity(platforms.len());
    for (p, cfg) in platforms.iter().enumerate() {
        if cfg.row_buffer.is_none() && cfg.fault.is_none() {
            mem_of.push(None);
            continue;
        }
        let shared = mem_leads
            .iter()
            .position(|&q| shares_memory(platforms[q], cfg));
        mem_of.push(Some(shared.unwrap_or(mems.len())));
        if shared.is_none() {
            mems.push(MemSide {
                dram: cfg.row_buffer.map(DramSim::new).transpose()?,
                fault: cfg.fault.map(FaultMemory::new).transpose()?,
            });
            mem_leads.push(p);
        }
    }

    let mut outs: Vec<PlatformOut> = platforms.iter().map(|_| PlatformOut::default()).collect();
    let mut backend_count = 0usize;

    // Reusable buffers for the whole pass: streams are drained in chunks so
    // the generator, the L1 loop and each back-end's replay stay tight.
    // Chunking does not reorder consumption, so reports are bit-identical
    // to the historic one-access-at-a-time loop.
    let mut buf = vec![
        MemoryAccess {
            address: 0,
            write: false
        };
        DEFAULT_CHUNK
    ];
    let mut misses: Vec<L1Miss> = Vec::with_capacity(DEFAULT_CHUNK);

    let mut global_core_index = 0u32;
    for (ci, cluster) in lead.clusters.iter().enumerate() {
        if !is_active(cluster, placement) {
            // Idle cluster: cores retire nothing, caches see no traffic;
            // their leakage is still accounted by the power layer.
            for (system, out) in systems.iter().zip(&mut outs) {
                let own = &system.config.clusters[ci];
                for _ in 0..own.cores {
                    out.cores.push(CoreActivity {
                        kind: own.core.kind,
                        instructions: 0,
                        busy_seconds: 0.0,
                        ipc: 0.0,
                    });
                }
                let (l1d, l2) = &system.cache_configs[ci];
                for cache in [l1d, l2] {
                    out.caches.push(CacheActivity {
                        name: cache.name.clone(),
                        config: Arc::clone(cache),
                        stats: CacheStats::default(),
                    });
                }
            }
            continue;
        }
        let weight = cluster.core.frequency / cluster.core.base_cpi;
        let instr_per_thread = (kernel.instructions as f64 * weight / total_weight) as u64;
        let mem_per_thread = (instr_per_thread as f64 * kernel.memory_ratio) as u64;
        let sim_per_thread = mem_per_thread.min(lead.sample_accesses_per_thread);
        let scale = if sim_per_thread == 0 {
            1.0
        } else {
            mem_per_thread as f64 / sim_per_thread as f64
        };

        // This cluster's back-ends: one per distinct (L2 geometry,
        // prefetch, DRAM side).
        let mut backends: Vec<Backend> = Vec::new();
        for (p, cfg) in platforms.iter().enumerate() {
            let l2 = &cfg.clusters[ci].l2;
            let tap = Tap {
                platform: p,
                read: l2.read_latency,
                fill: cfg.dram_latency + FILL_WRITE_EXPOSURE * l2.write_latency,
                row_fill: cfg.row_buffer.map_or(0.0, |rb| {
                    rb.hit_latency + FILL_WRITE_EXPOSURE * l2.write_latency
                }),
                writeback: WRITEBACK_EXPOSURE * l2.write_latency,
                stall: 0.0,
            };
            match backends.iter_mut().find(|b| {
                b.mem == mem_of[p]
                    && b.prefetch == cfg.l2_next_line_prefetch
                    && same_geometry(b.l2.config(), l2)
            }) {
                Some(b) => b.taps.push(tap),
                None => backends.push(Backend {
                    l2: Cache::new(l2.clone())?,
                    prefetch: cfg.l2_next_line_prefetch,
                    mem: mem_of[p],
                    dram_reads: 0,
                    dram_writes: 0,
                    taps: vec![tap],
                }),
            }
        }
        backend_count += backends.len();
        let row_hits_before: Vec<u64> = mems
            .iter()
            .map(|m| m.dram.as_ref().map_or(0, DramSim::hits))
            .collect();
        let mut l1_total = CacheStats::default();
        for local_core in 0..cluster.cores {
            let core_id = global_core_index + local_core;
            // Threads owned by this core.
            let owned: Vec<u64> = (0..threads)
                .filter(|t| t % total_cores == core_id as u64)
                .collect();
            let mut l1 = Cache::new(cluster.l1d.clone())?;
            for tap in backends.iter_mut().flat_map(|b| &mut b.taps) {
                tap.stall = 0.0;
            }
            for &t in &owned {
                let mut stream = AccessStream::new(kernel, t as u32, seed);
                let mut done = 0u64;
                while done < sim_per_thread {
                    // Cancellation checkpoint: one poll per synthesis chunk
                    // keeps the hot loop tight while bounding the reaction
                    // latency to ~a thousand accesses.
                    if token.is_some_and(|t| t.is_cancelled()) {
                        return Err(GemsimError::Cancelled);
                    }
                    let n = DEFAULT_CHUNK.min((sim_per_thread - done) as usize);
                    stream.fill(&mut buf[..n]);
                    misses.clear();
                    for acc in &buf[..n] {
                        let l1_out = l1.access(acc.address, acc.write);
                        if !l1_out.hit {
                            misses.push(L1Miss {
                                address: acc.address,
                                dirty_victim: l1_out.victim.filter(|_| l1_out.writeback),
                            });
                        }
                    }
                    for backend in &mut backends {
                        backend.replay(&misses, &mut mems);
                    }
                    done += n as u64;
                }
            }
            let instructions = instr_per_thread * owned.len() as u64;
            for tap in backends.iter().flat_map(|b| &b.taps) {
                let core = &platforms[tap.platform].clusters[ci].core;
                let stall_cycles = core.cycles(tap.stall * scale);
                let busy = core.execution_seconds(instructions, stall_cycles);
                let ipc = if busy > 0.0 {
                    instructions as f64 / (busy * core.frequency)
                } else {
                    0.0
                };
                let out = &mut outs[tap.platform];
                out.runtime = out.runtime.max(busy);
                out.cores.push(CoreActivity {
                    kind: core.kind,
                    instructions,
                    busy_seconds: busy,
                    ipc,
                });
            }
            l1_total.merge(l1.stats());
        }
        let l1_stats = scale_stats(&l1_total, scale);
        for b in &backends {
            let l2_stats = scale_stats(b.l2.stats(), scale);
            // The row-hit counter is cumulative across clusters: take this
            // cluster's own delta, scaled by this cluster's factor.
            let row_hits = b.mem.and_then(|i| {
                let d = mems[i].dram.as_ref()?;
                Some(d.hits() - row_hits_before[i])
            });
            for tap in &b.taps {
                let (l1d, l2) = &systems[tap.platform].cache_configs[ci];
                let out = &mut outs[tap.platform];
                out.caches.push(CacheActivity {
                    name: l1d.name.clone(),
                    config: Arc::clone(l1d),
                    stats: l1_stats,
                });
                out.caches.push(CacheActivity {
                    name: l2.name.clone(),
                    config: Arc::clone(l2),
                    stats: l2_stats,
                });
                out.dram_reads += (b.dram_reads as f64 * scale) as u64;
                out.dram_writes += (b.dram_writes as f64 * scale) as u64;
                if let Some(hits) = row_hits {
                    out.dram_row_hits += (hits as f64 * scale) as u64;
                }
            }
        }
        global_core_index += cluster.cores;
    }

    let simulated_fraction = {
        // Report the first active cluster's sampling ratio (diagnostic
        // only).
        let c0 = lead
            .clusters
            .iter()
            .find(|c| is_active(c, placement))
            .expect("at least one active cluster");
        let w = c0.core.frequency / c0.core.base_cpi;
        let instr = (kernel.instructions as f64 * w / total_weight) as u64;
        let mem = (instr as f64 * kernel.memory_ratio) as u64;
        let sim = mem.min(lead.sample_accesses_per_thread);
        if mem == 0 {
            1.0
        } else {
            sim as f64 / mem as f64
        }
    };
    let reports: Vec<SimReport> = outs
        .into_iter()
        .zip(&mem_of)
        .map(|(out, mem)| SimReport {
            kernel: kernel.name.clone(),
            runtime_seconds: out.runtime,
            cores: out.cores,
            caches: out.caches,
            dram_reads: out.dram_reads,
            dram_writes: out.dram_writes,
            dram_row_hits: out.dram_row_hits,
            simulated_fraction,
            fault: mem.and_then(|i| mems[i].fault.as_ref().map(|fm| *fm.stats())),
        })
        .collect();
    if mss_obs::enabled() {
        mss_obs::counter_add("gemsim.group.platforms", platforms.len() as u64);
        mss_obs::counter_add("gemsim.group.backends", backend_count as u64);
        reports.iter().for_each(record_report);
    }
    Ok(reports)
}

/// Per-report telemetry: one `gemsim.runs` per platform report.
fn record_report(report: &SimReport) {
    mss_obs::counter_add("gemsim.runs", 1);
    mss_obs::counter_add("gemsim.instructions", report.total_instructions());
    mss_obs::counter_add("gemsim.dram.reads", report.dram_reads);
    mss_obs::counter_add("gemsim.dram.writes", report.dram_writes);
    for cache in &report.caches {
        mss_obs::counter_add("gemsim.cache.hits", cache.stats.hits());
        mss_obs::counter_add("gemsim.cache.misses", cache.stats.misses());
    }
    mss_obs::record_value("gemsim.runtime_seconds", report.runtime_seconds);
}

fn scale_stats(s: &CacheStats, scale: f64) -> CacheStats {
    let f = |v: u64| (v as f64 * scale).round() as u64;
    CacheStats {
        reads: f(s.reads),
        writes: f(s.writes),
        read_hits: f(s.read_hits),
        write_hits: f(s.write_hits),
        writebacks: f(s.writebacks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SystemConfig {
        let mut c = SystemConfig::big_little_default();
        c.sample_accesses_per_thread = 8_000;
        c
    }

    #[test]
    fn default_platform_validates() {
        SystemConfig::big_little_default().validate().unwrap();
    }

    #[test]
    fn bad_platforms_rejected() {
        let mut c = SystemConfig::big_little_default();
        c.clusters.clear();
        assert!(System::new(c).is_err());
        let mut c = SystemConfig::big_little_default();
        c.dram_latency = 0.0;
        assert!(System::new(c).is_err());
        let mut c = SystemConfig::big_little_default();
        c.clusters[0].l2.line_bytes = 63;
        assert!(System::new(c).is_err());
    }

    #[test]
    fn run_produces_consistent_counters() {
        let sys = System::new(quick_config()).unwrap();
        let report = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(report.runtime_seconds > 0.0);
        assert_eq!(report.cores.len(), 8);
        assert_eq!(report.caches.len(), 4);
        for c in &report.caches {
            assert_eq!(c.stats.hits() + c.stats.misses(), c.stats.accesses());
        }
        // DRAM traffic exists for an 8 MiB working set over 2.5 MiB of L2.
        assert!(report.dram_reads > 0);
        // IPC is positive and below issue limits.
        for core in &report.cores {
            assert!(core.ipc > 0.0 && core.ipc < 2.0);
        }
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let sys = System::new(quick_config()).unwrap();
        let kernels = [
            Kernel::bodytrack(),
            Kernel::swaptions(),
            Kernel::streamcluster(),
        ];
        let batch = sys
            .run_many(&kernels, 9, &ParallelConfig::serial().with_threads(4))
            .unwrap();
        assert_eq!(batch.len(), kernels.len());
        for (kernel, report) in kernels.iter().zip(&batch) {
            assert_eq!(report, &sys.run(kernel, 9).unwrap());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sys = System::new(quick_config()).unwrap();
        let a = sys.run(&Kernel::bodytrack(), 7).unwrap();
        let b = sys.run(&Kernel::bodytrack(), 7).unwrap();
        assert_eq!(a, b);
        let c = sys.run(&Kernel::bodytrack(), 8).unwrap();
        assert_ne!(a.runtime_seconds, c.runtime_seconds);
    }

    #[test]
    fn slower_l2_write_latency_slows_the_run() {
        let base = quick_config();
        let mut slow = base.clone();
        for cl in &mut slow.clusters {
            cl.l2.write_latency = 15e-9; // STT-MRAM-like write
        }
        let t_base = System::new(base)
            .unwrap()
            .run(&Kernel::fluidanimate(), 3)
            .unwrap()
            .runtime_seconds;
        let t_slow = System::new(slow)
            .unwrap()
            .run(&Kernel::fluidanimate(), 3)
            .unwrap()
            .runtime_seconds;
        assert!(t_slow > t_base, "slow {t_slow} vs base {t_base}");
    }

    #[test]
    fn larger_l2_reduces_dram_traffic() {
        // Enough samples to get past the cold-start window, so capacity
        // effects are visible.
        let mut base = quick_config();
        base.sample_accesses_per_thread = 40_000;
        let mut big = base.clone();
        for cl in &mut big.clusters {
            cl.l2.capacity *= 4;
        }
        let k = Kernel::freqmine();
        let r_base = System::new(base).unwrap().run(&k, 4).unwrap();
        let r_big = System::new(big).unwrap().run(&k, 4).unwrap();
        assert!(
            r_big.dram_reads < r_base.dram_reads,
            "big {} vs base {}",
            r_big.dram_reads,
            r_base.dram_reads
        );
        // The capacity win lands on whichever cores' reuse distances fit the
        // bigger array (here the LITTLE cluster); the critical-path core may
        // be capacity-insensitive, so compare aggregate busy time, not the
        // max.
        let busy = |r: &SimReport| r.cores.iter().map(|c| c.busy_seconds).sum::<f64>();
        assert!(busy(&r_big) < busy(&r_base));
        assert!(r_big.runtime_seconds <= r_base.runtime_seconds);
    }

    #[test]
    fn compute_bound_kernel_is_insensitive_to_l2() {
        let base = quick_config();
        let mut slow = base.clone();
        for cl in &mut slow.clusters {
            cl.l2.write_latency = 15e-9;
        }
        let k = Kernel::swaptions(); // tiny working set
        let t_base = System::new(base)
            .unwrap()
            .run(&k, 5)
            .unwrap()
            .runtime_seconds;
        let t_slow = System::new(slow)
            .unwrap()
            .run(&k, 5)
            .unwrap()
            .runtime_seconds;
        let slowdown = t_slow / t_base;
        assert!(slowdown < 1.10, "slowdown = {slowdown}");
    }

    #[test]
    fn pinning_isolates_a_cluster() {
        let sys = System::new(quick_config()).unwrap();
        let k = Kernel::bodytrack();
        let little = sys
            .run_placed(&k, 3, &Placement::Cluster("LITTLE".into()))
            .unwrap();
        // Only LITTLE cores retire instructions.
        for c in &little.cores {
            match c.kind {
                crate::core::CoreKind::Big => assert_eq!(c.instructions, 0),
                crate::core::CoreKind::Little => assert!(c.instructions > 0),
            }
        }
        // The big cluster's caches see no traffic.
        assert_eq!(little.cache("big.L2").unwrap().stats.accesses(), 0);
        assert!(little.cache("LITTLE.L2").unwrap().stats.accesses() > 0);
        // Pinned-LITTLE runs are slower than spreading over all cores.
        let all = sys.run(&k, 3).unwrap();
        assert!(little.runtime_seconds > all.runtime_seconds);
    }

    #[test]
    fn pinning_to_unknown_cluster_errors() {
        let sys = System::new(quick_config()).unwrap();
        assert!(sys
            .run_placed(&Kernel::bodytrack(), 1, &Placement::Cluster("mid".into()))
            .is_err());
    }

    #[test]
    fn next_line_prefetch_helps_streaming() {
        let base = quick_config();
        let mut pf = base.clone();
        pf.l2_next_line_prefetch = true;
        let k = Kernel::streamcluster();
        let plain = System::new(base).unwrap().run(&k, 11).unwrap();
        let fetched = System::new(pf).unwrap().run(&k, 11).unwrap();
        // The prefetcher converts demand misses into hits...
        let mr_plain = plain.cache("LITTLE.L2").unwrap().stats.miss_ratio();
        let mr_pf = fetched.cache("LITTLE.L2").unwrap().stats.miss_ratio();
        assert!(mr_pf < mr_plain, "pf {mr_pf} vs plain {mr_plain}");
        // ...which shortens the run at the cost of extra DRAM traffic.
        assert!(fetched.runtime_seconds < plain.runtime_seconds);
        assert!(fetched.dram_reads > plain.dram_reads);
    }

    #[test]
    fn row_buffer_speeds_up_streaming_kernels() {
        let base = quick_config();
        let mut with_rb = base.clone();
        with_rb.row_buffer = Some(crate::dram::RowBufferConfig::lpddr_default());
        let k = Kernel::streamcluster();
        let flat = System::new(base).unwrap().run(&k, 6).unwrap();
        let rb = System::new(with_rb).unwrap().run(&k, 6).unwrap();
        assert_eq!(rb.dram_reads, flat.dram_reads);
        assert!(rb.dram_row_hits > 0);
        assert!(
            rb.runtime_seconds < flat.runtime_seconds,
            "rb {} vs flat {}",
            rb.runtime_seconds,
            flat.runtime_seconds
        );
        assert_eq!(flat.dram_row_hits, 0);
    }

    #[test]
    fn fault_free_runs_report_no_fault_stats() {
        let sys = System::new(quick_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(r.fault.is_none());
    }

    fn faulty_config() -> SystemConfig {
        use mss_fault::{FaultModel, FaultPlan};
        use mss_vaet::ecc::EccScheme;
        let mut c = quick_config();
        let mut m = FaultModel::none();
        m.write_fail_rate = 0.002;
        m.read_disturb_rate = 0.0005;
        c.fault = Some(FaultMemConfig::new(
            FaultPlan::new(77, m).unwrap(),
            EccScheme::bch(2, 512),
        ));
        c
    }

    #[test]
    fn faulty_memory_degrades_gracefully() {
        let sys = System::new(faulty_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        let f = r.fault.expect("fault stats present");
        // DRAM traffic ran through the array...
        assert!(f.reads > 0 && f.writes > 0);
        assert!(f.injected_bits > 0);
        // ...every read got a verdict, and nothing panicked on the way.
        assert_eq!(
            f.reads_clean + f.reads_corrected + f.reads_detected + f.reads_uncorrectable,
            f.reads
        );
        // Timing and traffic are unchanged by error accounting.
        let clean = System::new(quick_config())
            .unwrap()
            .run(&Kernel::bodytrack(), 1)
            .unwrap();
        assert_eq!(r.runtime_seconds, clean.runtime_seconds);
        assert_eq!(r.dram_reads, clean.dram_reads);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let sys = System::new(faulty_config()).unwrap();
        let a = sys.run(&Kernel::bodytrack(), 7).unwrap();
        let b = sys.run(&Kernel::bodytrack(), 7).unwrap();
        assert_eq!(a, b);
        let batch = sys
            .run_many(
                &[Kernel::bodytrack(), Kernel::streamcluster()],
                7,
                &ParallelConfig::serial().with_threads(2),
            )
            .unwrap();
        assert_eq!(batch[0], a);
    }

    #[test]
    fn bad_fault_config_rejected() {
        use mss_fault::FaultPlan;
        use mss_vaet::ecc::EccScheme;
        let mut c = quick_config();
        let mut plan = FaultPlan::disabled();
        plan.model.stuck_at_rate = -1.0;
        c.fault = Some(FaultMemConfig::new(plan, EccScheme::bch(1, 64)));
        assert!(System::new(c).is_err());
    }

    #[test]
    fn cancelled_token_aborts_at_chunk_boundary() {
        let sys = System::new(quick_config()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            sys.run_cancellable(&Kernel::bodytrack(), 1, &Placement::AllClusters, &token),
            Err(GemsimError::Cancelled)
        );
        // A live token changes nothing: the run equals the plain path.
        let live = CancelToken::new();
        let r = sys
            .run_cancellable(&Kernel::bodytrack(), 1, &Placement::AllClusters, &live)
            .unwrap();
        assert_eq!(r, sys.run(&Kernel::bodytrack(), 1).unwrap());
    }

    #[test]
    fn supervised_batch_isolates_a_poisoned_kernel() {
        let sys = System::new(quick_config()).unwrap();
        let mut bad = Kernel::swaptions();
        bad.threads = 0; // fails validation
        let kernels = [Kernel::bodytrack(), bad, Kernel::streamcluster()];
        let sweep = sys.run_many_supervised(
            &kernels,
            9,
            &ParallelConfig::serial().with_threads(2),
            &SupervisorConfig::disabled(),
        );
        assert_eq!(sweep.completed_count(), 2);
        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(sweep.failures[0].index, 1);
        // Survivors equal the plain per-kernel runs.
        assert_eq!(
            sweep.results[0].as_ref().unwrap(),
            &sys.run(&kernels[0], 9).unwrap()
        );
        assert_eq!(
            sweep.results[2].as_ref().unwrap(),
            &sys.run(&kernels[2], 9).unwrap()
        );
    }

    #[test]
    fn sampling_fraction_reported() {
        let sys = System::new(quick_config()).unwrap();
        let r = sys.run(&Kernel::bodytrack(), 1).unwrap();
        assert!(r.simulated_fraction > 0.0 && r.simulated_fraction <= 1.0);
    }

    #[test]
    fn l1_victim_writebacks_hit_their_real_l2_lines() {
        // Single cluster sized so the L2 holds the whole working set
        // exactly: swaptions touches 2048 lines per thread over 8 threads;
        // the contiguous per-thread line ranges spread them 8-per-set over
        // 4096 sets with 8 ways. With L1 victims written back at their real
        // line addresses every write-back must HIT in the L2 and nothing
        // can spill to DRAM. The old aliasing hack (`addr ^ 0x8000_0000`)
        // fabricated tags that missed, overflowed the sets and bled dirty
        // lines to DRAM — this test fails against it.
        let mut c = SystemConfig::big_little_default();
        c.clusters.truncate(1);
        c.clusters[0].l1d.capacity = 4 << 10; // tiny L1: plenty of victims
        c.clusters[0].l2.capacity = 2 << 20;
        c.clusters[0].l2.associativity = 8;
        c.sample_accesses_per_thread = 30_000;
        let sys = System::new(c).unwrap();
        let r = sys.run(&Kernel::swaptions(), 3).unwrap();
        let l2 = &r.cache("big.L2").unwrap().stats;
        assert!(l2.writes > 0, "the tiny L1 must produce victim write-backs");
        assert_eq!(
            l2.write_hits, l2.writes,
            "every L1 victim write-back must hit its resident L2 line"
        );
        assert_eq!(l2.writebacks, 0, "a fitting L2 evicts nothing");
        assert_eq!(r.dram_writes, 0, "no dirty traffic may reach DRAM");
    }
}
