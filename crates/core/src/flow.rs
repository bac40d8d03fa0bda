//! The MAGPIE evaluation flow: characterise → estimate → simulate → account.
//!
//! Every stage routes through the content-addressed [`mss_pipe`] cache, so a
//! sweep over nodes, kernels or scenarios reuses the upstream artifacts
//! (characterised cell libraries, estimated array macros, simulated activity
//! reports) that its points share. Memoization is semantically transparent:
//! every stage computation is pure, so the report is bit-identical at any
//! thread count and any cache temperature.

use std::sync::{Arc, Mutex};

use mss_exec::supervise::{CancelToken, SupervisorConfig};
use mss_exec::{par_map, ParallelConfig, TaskFailure};
use mss_gemsim::cache::CacheConfig;
use mss_gemsim::stats::SimReport;
use mss_gemsim::system::{Placement, System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_mcpat::{evaluate as mcpat_evaluate, McpatConfig, PowerReport};
use mss_mtj::{MechanismConfig, MssStack, SotParams};
use mss_nvsim::config::MemoryConfig;
use mss_nvsim::model::{estimate_cached, ArrayMetrics, MemoryTechnology};
use mss_pdk::charlib::{
    characterize_sot_with_cached, characterize_with_cached, CellLibrary, SotCellLibrary,
};
use mss_pdk::tech::{TechNode, TechParams};
use mss_pipe::checkpoint::{SweepJournal, TaskState};
use mss_pipe::{digest_of, PipeCache, Stage};

use crate::scenario::{CacheTech, Scenario};
use crate::MagpieError;

/// STT-MRAM over SRAM density advantage used for iso-area replacement.
///
/// `146 F² / 40 F²` rounds to 4× when keeping power-of-two cache sets.
pub const ISO_AREA_CAPACITY_FACTOR: u64 = 4;

/// SOT-MRAM over SRAM density advantage used for iso-area replacement.
///
/// The characterised three-terminal cell — its write access device sized
/// for the channel's SHE critical current (~20 F wide at 45 nm) plus the
/// 1.5× routing overhead of the second terminal — lands at ~154 F²,
/// essentially the 6T SRAM footprint. The iso-area LITTLE replacement is
/// therefore **capacity-neutral**: SOT's win is write latency and energy,
/// not density (that is STT's trade).
pub const ISO_AREA_CAPACITY_FACTOR_SOT: u64 = 1;

/// Inputs of one flow evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct MagpieInputs {
    /// Technology node (the paper's Fig. 12 uses 45 nm).
    pub node: TechNode,
    /// Kernels to execute.
    pub kernels: Vec<Kernel>,
    /// Scenarios to compare.
    pub scenarios: Vec<Scenario>,
    /// Simulation seed.
    pub seed: u64,
    /// Per-thread memory-access sampling cap for `mss-gemsim`.
    pub sample_cap: u64,
    /// Switching-mechanism configuration for the MRAM cells. The default
    /// [`MechanismConfig::Stt`] reproduces the paper exactly;
    /// [`MechanismConfig::Sot`] overrides the channel parameters the SOT
    /// scenarios are characterised with (SOT scenarios run with
    /// [`SotParams::default`] otherwise).
    pub mechanism: MechanismConfig,
}

impl MagpieInputs {
    /// The paper-default knobs for the fields beyond the sweep grid:
    /// the STT mechanism. Construction sites that only care about the grid
    /// spread this.
    pub fn defaults() -> Self {
        Self {
            node: TechNode::N45,
            kernels: Vec::new(),
            scenarios: Vec::new(),
            seed: 0,
            sample_cap: 50_000,
            mechanism: MechanismConfig::Stt,
        }
    }

    /// The SOT channel parameters SOT scenarios characterise with: the
    /// override carried by [`MechanismConfig::Sot`], or the β-W defaults.
    pub fn sot_params(&self) -> SotParams {
        match &self.mechanism {
            MechanismConfig::Sot(p) => p.clone(),
            MechanismConfig::Stt => SotParams::default(),
        }
    }

    /// Validates the inputs before any stage runs.
    ///
    /// # Errors
    ///
    /// [`MagpieError::InvalidInputs`] with a distinct reason per defect:
    /// empty kernel list, empty scenario list, zero sampling cap, a kernel
    /// whose own [`Kernel::validate`] rejects it, or out-of-range SOT
    /// channel parameters.
    pub fn validate(&self) -> Result<(), MagpieError> {
        if self.kernels.is_empty() {
            return Err(MagpieError::InvalidInputs {
                reason: "kernels must be non-empty".into(),
            });
        }
        if self.scenarios.is_empty() {
            return Err(MagpieError::InvalidInputs {
                reason: "scenarios must be non-empty".into(),
            });
        }
        if self.sample_cap == 0 {
            return Err(MagpieError::InvalidInputs {
                reason: "sample_cap must be non-zero".into(),
            });
        }
        for kernel in &self.kernels {
            kernel.validate().map_err(|e| MagpieError::InvalidInputs {
                reason: format!("kernel {}: {e}", kernel.name),
            })?;
        }
        if let MechanismConfig::Sot(p) = &self.mechanism {
            p.validate().map_err(|e| MagpieError::InvalidInputs {
                reason: format!("SOT mechanism: {e}"),
            })?;
        }
        Ok(())
    }
}

/// One (kernel, scenario) evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelScenarioResult {
    /// Scenario evaluated.
    pub scenario: Scenario,
    /// Kernel name.
    pub kernel: String,
    /// Execution time, seconds.
    pub runtime: f64,
    /// Total system energy, joules.
    pub energy: f64,
    /// Energy-delay product, J·s.
    pub edp: f64,
    /// Component-level energy breakdown, shared with the stage cache.
    pub power: Arc<PowerReport>,
    /// Raw system activity, shared with the stage cache and with every
    /// result of the same simulation.
    pub activity: Arc<SimReport>,
}

/// Silicon-area accounting for one scenario (the paper's Fig. 10 output:
/// "total performance, total energy and total area").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioArea {
    /// Scenario this area belongs to.
    pub scenario: Scenario,
    /// Total core area (big + LITTLE), m².
    pub cores: f64,
    /// All L1 data caches, m².
    pub l1: f64,
    /// big-cluster L2 macro, m².
    pub l2_big: f64,
    /// LITTLE-cluster L2 macro, m².
    pub l2_little: f64,
}

impl ScenarioArea {
    /// Total accounted silicon, m².
    pub fn total(&self) -> f64 {
        self.cores + self.l1 + self.l2_big + self.l2_little
    }
}

/// The complete flow report.
#[derive(Debug, Clone, PartialEq)]
pub struct MagpieReport {
    /// Every (kernel, scenario) outcome.
    pub results: Vec<KernelScenarioResult>,
    /// Per-scenario area accounting.
    pub areas: Vec<ScenarioArea>,
}

/// The flow driver.
#[derive(Debug, Clone)]
pub struct MagpieFlow {
    inputs: MagpieInputs,
    tech: TechParams,
    stt_lib: CellLibrary,
    /// The three-terminal SOT cell library — characterised only when the
    /// grid contains a SOT scenario, so pure-STT flows never pay for (or
    /// key on) the second characterisation.
    sot_lib: Option<SotCellLibrary>,
    cache: Arc<PipeCache>,
}

impl MagpieFlow {
    /// Runs the circuit-level characterisation and prepares the flow,
    /// memoizing through the process-global [`mss_pipe`] cache.
    ///
    /// # Errors
    ///
    /// [`MagpieError::InvalidInputs`] on invalid inputs (see
    /// [`MagpieInputs::validate`]); characterisation failures propagate.
    pub fn new(inputs: MagpieInputs) -> Result<Self, MagpieError> {
        Self::new_with_cache(inputs, mss_pipe::global())
    }

    /// [`new`](Self::new) against an explicit cache — use this to isolate
    /// flows from each other (tests) or to share a warm cache across sweeps.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn new_with_cache(
        inputs: MagpieInputs,
        cache: Arc<PipeCache>,
    ) -> Result<Self, MagpieError> {
        inputs.validate()?;
        let tech = TechParams::node(inputs.node);
        let stack = MssStack::builder().build()?;
        let stt_lib = {
            let _span = mss_obs::span("flow.characterize");
            (*characterize_with_cached(&tech, &stack, &cache)?).clone()
        };
        let sot_lib = if inputs.scenarios.iter().any(|s| s.uses_sot()) {
            let _span = mss_obs::span("flow.characterize_sot");
            let params = inputs.sot_params();
            Some((*characterize_sot_with_cached(&tech, &stack, &params, &cache)?).clone())
        } else {
            None
        };
        Ok(Self {
            tech,
            stt_lib,
            sot_lib,
            inputs,
            cache,
        })
    }

    /// The characterised STT cell library (cell configuration file).
    pub fn cell_library(&self) -> &CellLibrary {
        &self.stt_lib
    }

    /// The characterised SOT cell library; `None` when the scenario grid
    /// contains no SOT scenario.
    pub fn sot_cell_library(&self) -> Option<&SotCellLibrary> {
        self.sot_lib.as_ref()
    }

    /// The stage cache this flow memoizes through.
    pub fn cache(&self) -> &Arc<PipeCache> {
        &self.cache
    }

    /// Estimates one cache macro with NVSim and converts it into the
    /// simulator's cache record.
    fn cache_config(
        &self,
        name: &str,
        capacity: u64,
        associativity: u32,
        tech_kind: CacheTech,
    ) -> Result<(CacheConfig, ArrayMetrics), MagpieError> {
        let line = 64u32;
        let mem_cfg = MemoryConfig::new(
            capacity,
            (line * 8).min(512),
            1,
            subarray_rows_for(capacity),
            512,
            mss_nvsim::config::MemoryKind::Cache {
                associativity,
                line_bytes: line,
            },
        )?;
        let technology = match tech_kind {
            CacheTech::Sram => MemoryTechnology::Sram,
            CacheTech::Stt => MemoryTechnology::SttMram(self.stt_lib.clone()),
            CacheTech::Sot => {
                let lib = self
                    .sot_lib
                    .as_ref()
                    .ok_or_else(|| MagpieError::InvalidInputs {
                        reason: format!(
                            "{name}: SOT macro requested but no SOT scenario in the grid"
                        ),
                    })?;
                MemoryTechnology::SotMram(lib.clone())
            }
        };
        let m = (*estimate_cached(&self.tech, &mem_cfg, &technology, &self.cache)?).clone();
        Ok((
            CacheConfig {
                name: name.to_string(),
                capacity,
                associativity,
                line_bytes: line,
                read_latency: m.read_latency,
                write_latency: m.write_latency,
                read_energy: m.read_energy,
                write_energy: m.write_energy,
                leakage_power: m.leakage_power,
            },
            m,
        ))
    }

    /// Builds the platform configuration for a scenario, with every cache's
    /// timing/energy/leakage coming from the NVSim layer.
    ///
    /// # Errors
    ///
    /// Estimation failures propagate.
    pub fn system_config(&self, scenario: Scenario) -> Result<SystemConfig, MagpieError> {
        let mut base = SystemConfig::big_little_default();
        base.sample_accesses_per_thread = self.inputs.sample_cap;

        // L1s: always SRAM, re-estimated from the node for consistency.
        for cluster in &mut base.clusters {
            let (l1, _) =
                self.cache_config(&cluster.l1d.name.clone(), 32 << 10, 4, CacheTech::Sram)?;
            cluster.l1d = l1;
        }

        // big L2: 2 MiB; iso-capacity replacement when MRAM.
        let big_tech = scenario.big_l2_tech();
        let (big_l2, _) = self.cache_config("big.L2", 2 << 20, 16, big_tech)?;
        base.clusters[0].l2 = big_l2;

        // LITTLE L2: 512 KiB SRAM; iso-area replacement when MRAM (4x
        // capacity for the STT cell, 2x for the larger three-terminal SOT
        // cell).
        let little_tech = scenario.little_l2_tech();
        let little_capacity = (512 << 10) * little_iso_area_factor(little_tech);
        let (little_l2, _) = self.cache_config("LITTLE.L2", little_capacity, 8, little_tech)?;
        base.clusters[1].l2 = little_l2;

        Ok(base)
    }

    /// Area accounting for a scenario: McPAT core areas plus NVSim macro
    /// areas for every cache.
    ///
    /// # Errors
    ///
    /// Estimation failures propagate.
    pub fn scenario_area(&self, scenario: Scenario) -> Result<ScenarioArea, MagpieError> {
        let mcpat_cfg = McpatConfig::default();
        let base = SystemConfig::big_little_default();
        let cores = base.clusters[0].cores as f64 * mcpat_cfg.big.area
            + base.clusters[1].cores as f64 * mcpat_cfg.little.area;
        let (_, l1m) = self.cache_config("l1.probe", 32 << 10, 4, CacheTech::Sram)?;
        let l1 = l1m.area * base.clusters.iter().map(|c| c.cores as f64).sum::<f64>();
        let (_, big) = self.cache_config("big.L2", 2 << 20, 16, scenario.big_l2_tech())?;
        let little_tech = scenario.little_l2_tech();
        let little_capacity = (512 << 10) * little_iso_area_factor(little_tech);
        let (_, little) = self.cache_config("LITTLE.L2", little_capacity, 8, little_tech)?;
        Ok(ScenarioArea {
            scenario,
            cores,
            l1,
            l2_big: big.area,
            l2_little: little.area,
        })
    }

    /// Runs every (kernel, scenario) pair.
    ///
    /// Parallelism policy comes from the environment (`MSS_THREADS` or all
    /// cores); use [`run_with`](Self::run_with) for explicit control. The
    /// report is independent of the thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures.
    pub fn run(&self) -> Result<MagpieReport, MagpieError> {
        self.run_with(&ParallelConfig::from_env())
    }

    /// [`run`](Self::run) with an explicit thread policy. Scenarios are
    /// prepared in parallel. Then every (scenario, kernel) pair's
    /// simulate-stage key is looked up, and the misses are simulated one
    /// task per kernel: a single [`System::run_group`] pass covers all of a
    /// kernel's missing scenarios, which share the kernel's access streams
    /// and L1 filtering. Each report is stored under its own pair's key, and
    /// results are reduced in scenario-major order.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with(&self, exec: &ParallelConfig) -> Result<MagpieReport, MagpieError> {
        let _flow_span = mss_obs::span("flow.run");
        let mcpat_cfg = McpatConfig::default();
        let prepare_span = mss_obs::span("flow.prepare");
        // Stage 1: per-scenario estimation (NVSim/McPAT) and platform build.
        let (areas, systems) = self.prepare()?;
        drop(prepare_span);
        let simulate_span = mss_obs::span("flow.simulate");

        // Stage 2: scenario-major pairs, so the report order matches the
        // sequential flow.
        let pairs = self.pairs();
        let keys: Vec<String> = pairs
            .iter()
            .map(|&(s, k)| self.pair_sim_key(&systems, s, k))
            .collect();
        let activities =
            self.cache
                .get_or_compute_artifacts(Stage::SimulateKernel, &keys, |missing| {
                    // The missing pairs of each kernel, kernels in order of
                    // first appearance.
                    let mut by_kernel: Vec<(usize, Vec<usize>)> = Vec::new();
                    for (m, &i) in missing.iter().enumerate() {
                        let k = pairs[i].1;
                        match by_kernel.iter_mut().find(|(kk, _)| *kk == k) {
                            Some((_, ms)) => ms.push(m),
                            None => by_kernel.push((k, vec![m])),
                        }
                    }
                    let ran = par_map(exec, &by_kernel, |_, (k, ms)| {
                        let group: Vec<&System> =
                            ms.iter().map(|&m| &systems[pairs[missing[m]].0]).collect();
                        System::run_group(
                            &group,
                            &self.inputs.kernels[*k],
                            self.inputs.seed,
                            &Placement::AllClusters,
                            None,
                        )
                    });
                    let mut reports: Vec<Option<SimReport>> = vec![None; missing.len()];
                    for ((_, ms), ran) in by_kernel.iter().zip(ran) {
                        for (&m, report) in ms.iter().zip(ran?) {
                            reports[m] = Some(report);
                        }
                    }
                    Ok::<_, MagpieError>(
                        reports
                            .into_iter()
                            .map(|r| r.expect("every missing pair was simulated"))
                            .collect(),
                    )
                })?;
        let evaluated = par_map(exec, &pairs, |i, &(s, k)| {
            self.account_pair(&mcpat_cfg, s, k, &keys[i], &activities[i])
        });
        let results = evaluated.into_iter().collect::<Result<Vec<_>, _>>()?;
        drop(simulate_span);
        Ok(MagpieReport { results, areas })
    }

    /// Estimates every scenario's arrays and builds its platform, in
    /// scenario order.
    ///
    /// Serial on purpose: scenarios share `EstimateArray` stage keys, and
    /// concurrent workers could both miss one key and estimate it twice,
    /// making the cache counts depend on the thread count. The few
    /// scenarios take milliseconds, and every span nests under
    /// `flow.prepare` on the calling thread.
    fn prepare(&self) -> Result<(Vec<ScenarioArea>, Vec<System>), MagpieError> {
        self.inputs
            .scenarios
            .iter()
            .map(|&scenario| {
                let area = self.scenario_area(scenario)?;
                let system = System::new(self.system_config(scenario)?)?;
                Ok((area, system))
            })
            .collect()
    }

    /// Every (scenario, kernel) index pair, scenario-major.
    fn pairs(&self) -> Vec<(usize, usize)> {
        (0..self.inputs.scenarios.len())
            .flat_map(|s| (0..self.inputs.kernels.len()).map(move |k| (s, k)))
            .collect()
    }

    /// [`run_with`](Self::run_with) under the sweep supervisor: each
    /// (scenario, kernel) simulation is panic-isolated, deadline-bounded,
    /// and retried per `sup`, and a failure removes only its own pair from
    /// the report instead of aborting the sweep.
    ///
    /// Completed pairs are bit-identical to the corresponding
    /// [`run_with`](Self::run_with) results at any thread count.
    ///
    /// # Errors
    ///
    /// Only preparation failures (characterisation/estimation/platform
    /// build) are hard errors; simulation failures are returned in the
    /// partial report's failure manifest.
    pub fn run_supervised(
        &self,
        exec: &ParallelConfig,
        sup: &SupervisorConfig,
    ) -> Result<PartialMagpieReport, MagpieError> {
        self.run_supervised_inner(exec, sup, None)
    }

    /// [`run_supervised`](Self::run_supervised) with a checkpoint journal:
    /// every terminal task outcome (done with its stage digest, or failed
    /// with its cause) is durably appended to `journal` as it happens, so a
    /// killed process leaves an accurate manifest behind and a resumed run
    /// finds every completed pair's artifacts in the disk cache.
    ///
    /// The journal should be opened against
    /// [`sweep_digest`](Self::sweep_digest) so manifests from different
    /// sweep configurations never alias.
    ///
    /// # Errors
    ///
    /// Same as [`run_supervised`](Self::run_supervised); journal append
    /// failures are non-fatal (the sweep's results are still returned).
    pub fn run_supervised_journaled(
        &self,
        exec: &ParallelConfig,
        sup: &SupervisorConfig,
        journal: &mut SweepJournal,
    ) -> Result<PartialMagpieReport, MagpieError> {
        self.run_supervised_inner(exec, sup, Some(journal))
    }

    fn run_supervised_inner(
        &self,
        exec: &ParallelConfig,
        sup: &SupervisorConfig,
        journal: Option<&mut SweepJournal>,
    ) -> Result<PartialMagpieReport, MagpieError> {
        let _flow_span = mss_obs::span("flow.run");
        let mcpat_cfg = McpatConfig::default();
        let prepare_span = mss_obs::span("flow.prepare");
        let (areas, systems) = self.prepare()?;
        drop(prepare_span);
        let simulate_span = mss_obs::span("flow.simulate");

        let pairs = self.pairs();
        let journal = journal.map(Mutex::new);
        let sup = if sup.label.is_empty() {
            sup.with_label("flow.sweep")
        } else {
            *sup
        };
        let sweep = mss_exec::supervised_map(exec, &sup, &pairs, |ctx, &(s, k)| {
            let result = self.evaluate_pair(&systems, &mcpat_cfg, s, k, ctx.token())?;
            if let Some(journal) = &journal {
                // Journal appends are best-effort: losing a checkpoint line
                // costs a future resume one cheap disk-cache hit, which is
                // not worth failing a completed simulation over.
                let digest = self.pair_sim_key(&systems, s, k);
                if let Ok(mut j) = journal.lock() {
                    let _ = j.record(&self.pair_task_name(s, k), TaskState::Done { digest });
                }
            }
            Ok::<_, MagpieError>(result)
        });
        drop(simulate_span);
        if let Some(journal) = journal {
            if let Ok(j) = &mut journal.lock() {
                for failure in &sweep.failures {
                    let (s, k) = pairs[failure.index];
                    let _ = j.record(
                        &self.pair_task_name(s, k),
                        TaskState::Failed {
                            cause: failure.kind.to_string(),
                        },
                    );
                }
            }
        }
        let results = sweep.results.into_iter().flatten().collect();
        Ok(PartialMagpieReport {
            report: MagpieReport { results, areas },
            failures: sweep.failures,
        })
    }

    /// The structural digest identifying this flow's sweep: open checkpoint
    /// journals against it so manifests from different inputs never alias.
    ///
    /// The mechanism is folded in **only when it is not the default**: a
    /// default-STT sweep hashes exactly as it did before the mechanism knob
    /// existed, so historic journals and disk caches stay valid.
    pub fn sweep_digest(&self) -> String {
        let kernels: Vec<&str> = self
            .inputs
            .kernels
            .iter()
            .map(|k| k.name.as_str())
            .collect();
        let scenarios: Vec<String> = self
            .inputs
            .scenarios
            .iter()
            .map(ToString::to_string)
            .collect();
        let base = (
            format!("{:?}", self.inputs.node),
            kernels.join(","),
            scenarios.join(","),
            (self.inputs.seed, self.inputs.sample_cap),
        );
        if self.inputs.mechanism.is_default() {
            digest_of(&base)
        } else {
            digest_of(&(base, self.inputs.mechanism.clone()))
        }
    }

    /// Stable journal key of one (scenario, kernel) task.
    fn pair_task_name(&self, s: usize, k: usize) -> String {
        format!(
            "{}/{}",
            self.inputs.scenarios[s], self.inputs.kernels[k].name
        )
    }

    /// The simulate-stage cache key of one (scenario, kernel) pair.
    ///
    /// The platform configuration fully determines the (deterministic)
    /// simulation, so the key is (system, kernel, seed) — scenarios that
    /// build identical platforms share the activity report.
    fn pair_sim_key(&self, systems: &[System], s: usize, k: usize) -> String {
        digest_of(&(
            systems[s].config(),
            &self.inputs.kernels[k],
            self.inputs.seed,
        ))
    }

    /// Evaluates one (scenario, kernel) pair through the cached simulate and
    /// account stages, honouring a cancellation token at the simulator's
    /// chunk boundaries (a group of one).
    fn evaluate_pair(
        &self,
        systems: &[System],
        mcpat_cfg: &McpatConfig,
        s: usize,
        k: usize,
        token: &CancelToken,
    ) -> Result<KernelScenarioResult, MagpieError> {
        let kernel = &self.inputs.kernels[k];
        let sim_key = self.pair_sim_key(systems, s, k);
        // SimReport is a disk-capable artifact, so completed simulations
        // survive a process kill and a resumed sweep reloads them instead
        // of recomputing.
        let activity =
            self.cache
                .get_or_compute_artifact(Stage::SimulateKernel, &sim_key, || {
                    systems[s]
                        .run_cancellable(kernel, self.inputs.seed, &Placement::AllClusters, token)
                        .map_err(MagpieError::from)
                })?;
        self.account_pair(mcpat_cfg, s, k, &sim_key, &activity)
    }

    /// The account stage of one pair: McPAT power over its simulated
    /// activity, cached under the simulate key and the pair's label.
    fn account_pair(
        &self,
        mcpat_cfg: &McpatConfig,
        s: usize,
        k: usize,
        sim_key: &str,
        activity: &Arc<SimReport>,
    ) -> Result<KernelScenarioResult, MagpieError> {
        let scenario = self.inputs.scenarios[s];
        let kernel = &self.inputs.kernels[k];
        let label = format!("{} / {}", kernel.name, scenario);
        // The label is part of the key: a shared activity report must not
        // leak another scenario's label into this one's power report.
        let power_key = digest_of(&(sim_key, mcpat_cfg, label.as_str()));
        let power = self
            .cache
            .get_or_compute(Stage::McpatAccount, &power_key, || {
                let mut power = mcpat_evaluate(mcpat_cfg, activity);
                power.label = label.clone();
                Ok::<_, MagpieError>(power)
            })?;
        Ok(KernelScenarioResult {
            scenario,
            kernel: kernel.name.clone(),
            runtime: activity.runtime_seconds,
            energy: power.total_energy(),
            edp: power.edp(),
            power,
            activity: Arc::clone(activity),
        })
    }
}

/// Outcome of a supervised flow run: the completed pairs plus the terminal
/// failures that were isolated away from them.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMagpieReport {
    /// The report over completed pairs only, in scenario-major order. All
    /// [`MagpieReport`] renderers tolerate the holes (missing pairs render
    /// as absent rows, not zeros).
    pub report: MagpieReport,
    /// Terminal failures, sorted by task index.
    pub failures: Vec<TaskFailure>,
}

impl PartialMagpieReport {
    /// True when every pair completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failure manifest as NDJSON, one line per failed pair (empty
    /// string when complete).
    pub fn failure_manifest(&self) -> String {
        self.failures
            .iter()
            .map(TaskFailure::to_json_line)
            .map(|l| l + "\n")
            .collect()
    }
}

/// Iso-area capacity multiplier of the LITTLE L2 replacement for a cell
/// technology (1× for SRAM itself).
fn little_iso_area_factor(tech: CacheTech) -> u64 {
    match tech {
        CacheTech::Sram => 1,
        CacheTech::Stt => ISO_AREA_CAPACITY_FACTOR,
        CacheTech::Sot => ISO_AREA_CAPACITY_FACTOR_SOT,
    }
}

/// Picks a subarray row count that divides the capacity sensibly.
fn subarray_rows_for(capacity: u64) -> u32 {
    let bits = capacity * 8;
    if bits >= (512 * 512) as u64 {
        512
    } else {
        ((bits / 512).max(64) as u32).next_power_of_two()
    }
}

impl MagpieReport {
    /// Looks up one result.
    pub fn result(&self, kernel: &str, scenario: Scenario) -> Option<&KernelScenarioResult> {
        self.results
            .iter()
            .find(|r| r.kernel == kernel && r.scenario == scenario)
    }

    /// Kernel names present, in first-seen order.
    pub fn kernels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.results {
            if !out.contains(&r.kernel) {
                out.push(r.kernel.clone());
            }
        }
        out
    }

    /// (time, energy, EDP) of a scenario normalised to Full-SRAM for one
    /// kernel; `None` when either result is missing.
    pub fn normalized(&self, kernel: &str, scenario: Scenario) -> Option<(f64, f64, f64)> {
        let reference = self.result(kernel, Scenario::FullSram)?;
        let r = self.result(kernel, scenario)?;
        Some((
            r.runtime / reference.runtime,
            r.energy / reference.energy,
            r.edp / reference.edp,
        ))
    }

    /// Area record of a scenario.
    pub fn area(&self, scenario: Scenario) -> Option<&ScenarioArea> {
        self.areas.iter().find(|a| a.scenario == scenario)
    }

    /// Renders the Fig. 10-style output summary: total performance, total
    /// energy and total area per scenario, for one kernel.
    pub fn fig10_summary(&self, kernel: &str) -> String {
        use mss_units::fmt::Eng;
        let mut out = format!(
            "== Fig.10 outputs: performance / energy / area, kernel {kernel} ==\n{:<20} | {:>12} | {:>12} | {:>12}\n",
            "scenario", "runtime", "energy", "area"
        );
        for s in Scenario::ALL_WITH_SOT {
            let Some(r) = self.result(kernel, s) else {
                continue;
            };
            // A scenario without an area record renders as "n/a": a silent
            // 0.000 mm2 would read as a real (and absurd) measurement.
            let area = match self.area(s) {
                Some(a) => format!("{:>9.3} mm2", a.total() * 1e6),
                None => format!("{:>13}", "n/a"),
            };
            out.push_str(&format!(
                "{:<20} | {:>12} | {:>12} | {area}\n",
                s.to_string(),
                Eng(r.runtime, "s").to_string(),
                Eng(r.energy, "J").to_string(),
            ));
        }
        out
    }

    /// Renders the Fig. 11 energy-breakdown table for one kernel: one column
    /// block per scenario, one row per component.
    pub fn fig11_table(&self, kernel: &str) -> String {
        use mss_units::fmt::Eng;
        let mut out = format!("== Fig.11: energy breakdown by component, kernel {kernel} ==\n");
        let scenarios: Vec<Scenario> = Scenario::ALL_WITH_SOT
            .into_iter()
            .filter(|s| self.result(kernel, *s).is_some())
            .collect();
        // Component names from the reference scenario.
        let Some(reference) = scenarios.first().and_then(|s| self.result(kernel, *s)) else {
            return out + "(no results)\n";
        };
        out.push_str(&format!("{:<16}", "component"));
        for s in &scenarios {
            out.push_str(&format!(" | {:>20}", s.to_string()));
        }
        out.push('\n');
        for comp in &reference.power.components {
            out.push_str(&format!("{:<16}", comp.name));
            for s in &scenarios {
                let cell = self
                    .result(kernel, *s)
                    .and_then(|r| r.power.component(&comp.name))
                    .map(|c| Eng(c.total(), "J").to_string())
                    .unwrap_or_else(|| "n/a".into());
                out.push_str(&format!(" | {cell:>20}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<16}", "TOTAL"));
        for s in &scenarios {
            let cell = self
                .result(kernel, *s)
                .map(|r| Eng(r.energy, "J").to_string())
                .unwrap_or_else(|| "n/a".into());
            out.push_str(&format!(" | {cell:>20}"));
        }
        out.push('\n');
        out
    }

    /// Serialises the Fig. 11 breakdown as CSV (component, one column per
    /// scenario; values in joules).
    pub fn fig11_csv(&self, kernel: &str) -> String {
        let scenarios: Vec<Scenario> = Scenario::ALL_WITH_SOT
            .into_iter()
            .filter(|s| self.result(kernel, *s).is_some())
            .collect();
        let mut out = String::from("component");
        for s in &scenarios {
            out.push_str(&format!(",{s}"));
        }
        out.push('\n');
        let Some(reference) = scenarios.first().and_then(|s| self.result(kernel, *s)) else {
            return out;
        };
        for comp in &reference.power.components {
            out.push_str(&comp.name);
            for s in &scenarios {
                match self
                    .result(kernel, *s)
                    .and_then(|r| r.power.component(&comp.name))
                {
                    Some(c) => out.push_str(&format!(",{:.6e}", c.total())),
                    None => out.push_str(",n/a"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialises the Fig. 12 normalised merits as CSV
    /// (`kernel,scenario,time,energy,edp`).
    pub fn fig12_csv(&self) -> String {
        let mut out = String::from("kernel,scenario,time,energy,edp\n");
        for kernel in self.kernels() {
            for s in Scenario::ALL_WITH_SOT {
                if s == Scenario::FullSram {
                    continue;
                }
                if let Some((t, e, edp)) = self.normalized(&kernel, s) {
                    out.push_str(&format!("{kernel},{s},{t:.6},{e:.6},{edp:.6}\n"));
                }
            }
        }
        out
    }

    /// Renders the Fig. 12 table: per kernel, execution time / energy / EDP
    /// of each STT scenario normalised to Full-SRAM.
    pub fn fig12_table(&self) -> String {
        let mut out =
            String::from("== Fig.12: execution time / energy / EDP normalised to Full-SRAM ==\n");
        out.push_str(&format!(
            "{:<14} | {:<20} | {:>8} | {:>8} | {:>8}\n",
            "kernel", "scenario", "time", "energy", "EDP"
        ));
        for kernel in self.kernels() {
            for s in Scenario::ALL_WITH_SOT {
                if s == Scenario::FullSram {
                    continue;
                }
                if let Some((t, e, edp)) = self.normalized(&kernel, s) {
                    out.push_str(&format!(
                        "{:<14} | {:<20} | {:>8.3} | {:>8.3} | {:>8.3}\n",
                        kernel,
                        s.to_string(),
                        t,
                        e,
                        edp
                    ));
                }
            }
        }
        out
    }

    /// Figure metadata as `key,value` CSV: the figure name and the grid
    /// shape, written next to the figure CSVs.
    pub fn metadata_csv(&self, figure: &str) -> String {
        let mut out = String::from("key,value\n");
        out.push_str(&format!("figure,{figure}\n"));
        out.push_str(&format!("kernels,{}\n", self.kernels().len()));
        out.push_str(&format!("scenarios,{}\n", self.areas.len()));
        out.push_str(&format!("results,{}\n", self.results.len()));
        out
    }

    /// The STT-vs-SOT mechanism comparison: for every kernel and every
    /// replacement shape present in *both* mechanisms, the normalised
    /// (time, energy, EDP) of the STT scenario next to its SOT twin.
    ///
    /// Empty when the report contains no SOT scenario — the comparison is
    /// only rendered for grids that asked for it.
    pub fn mechanism_comparison(&self) -> Vec<MechanismComparison> {
        let mut rows = Vec::new();
        for kernel in self.kernels() {
            for stt in [
                Scenario::LittleL2Stt,
                Scenario::BigL2Stt,
                Scenario::FullL2Stt,
            ] {
                let Some(sot) = stt.sot_counterpart() else {
                    continue;
                };
                let (Some(stt_m), Some(sot_m)) =
                    (self.normalized(&kernel, stt), self.normalized(&kernel, sot))
                else {
                    continue;
                };
                rows.push(MechanismComparison {
                    kernel: kernel.clone(),
                    stt,
                    sot,
                    stt_merits: stt_m,
                    sot_merits: sot_m,
                });
            }
        }
        rows
    }

    /// Renders [`mechanism_comparison`](Self::mechanism_comparison) as a
    /// table (merits normalised to Full-SRAM; the `EDP gain` column is
    /// STT-EDP / SOT-EDP, > 1 when SOT wins).
    pub fn mechanism_comparison_table(&self) -> String {
        let rows = self.mechanism_comparison();
        let mut out =
            String::from("== STT vs SOT: time / energy / EDP normalised to Full-SRAM ==\n");
        if rows.is_empty() {
            return out + "(no SOT scenarios in this report)\n";
        }
        out.push_str(&format!(
            "{:<14} | {:<20} | {:>23} | {:>23} | {:>8}\n",
            "kernel", "replacement", "STT time/energy/EDP", "SOT time/energy/EDP", "EDP gain"
        ));
        for r in &rows {
            let (st, se, sd) = r.stt_merits;
            let (ot, oe, od) = r.sot_merits;
            out.push_str(&format!(
                "{:<14} | {:<20} | {:>23} | {:>23} | {:>8.3}\n",
                r.kernel,
                r.replacement(),
                format!("{st:.3} / {se:.3} / {sd:.3}"),
                format!("{ot:.3} / {oe:.3} / {od:.3}"),
                r.edp_gain(),
            ));
        }
        out
    }

    /// Serialises the STT-vs-SOT comparison as CSV
    /// (`kernel,replacement,stt_time,stt_energy,stt_edp,sot_time,sot_energy,sot_edp,edp_gain`).
    pub fn mechanism_comparison_csv(&self) -> String {
        let mut out = String::from(
            "kernel,replacement,stt_time,stt_energy,stt_edp,sot_time,sot_energy,sot_edp,edp_gain\n",
        );
        for r in self.mechanism_comparison() {
            let (st, se, sd) = r.stt_merits;
            let (ot, oe, od) = r.sot_merits;
            out.push_str(&format!(
                "{},{},{st:.6},{se:.6},{sd:.6},{ot:.6},{oe:.6},{od:.6},{:.6}\n",
                r.kernel,
                r.replacement(),
                r.edp_gain(),
            ));
        }
        out
    }
}

/// One row of the STT-vs-SOT comparison: the same replacement shape under
/// both mechanisms, merits normalised to the Full-SRAM reference.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismComparison {
    /// Kernel name.
    pub kernel: String,
    /// The STT scenario of the pair.
    pub stt: Scenario,
    /// Its SOT twin.
    pub sot: Scenario,
    /// STT (time, energy, EDP) normalised to Full-SRAM.
    pub stt_merits: (f64, f64, f64),
    /// SOT (time, energy, EDP) normalised to Full-SRAM.
    pub sot_merits: (f64, f64, f64),
}

impl MechanismComparison {
    /// The mechanism-neutral replacement-shape label (`LITTLE-L2`,
    /// `big-L2`, `Full-L2`).
    pub fn replacement(&self) -> &'static str {
        match self.stt {
            Scenario::LittleL2Stt => "LITTLE-L2",
            Scenario::BigL2Stt => "big-L2",
            _ => "Full-L2",
        }
    }

    /// STT EDP over SOT EDP: > 1 when the SOT replacement wins.
    pub fn edp_gain(&self) -> f64 {
        self.stt_merits.2 / self.sot_merits.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn flow_report() -> &'static (MagpieFlow, MagpieReport) {
        static CELL: OnceLock<(MagpieFlow, MagpieReport)> = OnceLock::new();
        CELL.get_or_init(|| {
            let flow = MagpieFlow::new(MagpieInputs {
                node: TechNode::N45,
                kernels: vec![Kernel::bodytrack(), Kernel::streamcluster()],
                scenarios: Scenario::ALL.to_vec(),
                seed: 7,
                sample_cap: 150_000,
                ..MagpieInputs::defaults()
            })
            .unwrap();
            let report = flow.run().unwrap();
            (flow, report)
        })
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(MagpieFlow::new(MagpieInputs {
            node: TechNode::N45,
            kernels: vec![],
            scenarios: Scenario::ALL.to_vec(),
            seed: 0,
            sample_cap: 1000,
            ..MagpieInputs::defaults()
        })
        .is_err());
    }

    #[test]
    fn validation_failures_name_the_defect() {
        let base = MagpieInputs {
            node: TechNode::N45,
            kernels: vec![Kernel::bodytrack()],
            scenarios: Scenario::ALL.to_vec(),
            seed: 0,
            sample_cap: 1000,
            ..MagpieInputs::defaults()
        };
        let reason = |inputs: MagpieInputs| match inputs.validate() {
            Err(MagpieError::InvalidInputs { reason }) => reason,
            other => panic!("expected InvalidInputs, got {other:?}"),
        };

        let mut inputs = base.clone();
        inputs.kernels.clear();
        assert_eq!(reason(inputs), "kernels must be non-empty");

        let mut inputs = base.clone();
        inputs.scenarios.clear();
        assert_eq!(reason(inputs), "scenarios must be non-empty");

        let mut inputs = base.clone();
        inputs.sample_cap = 0;
        assert_eq!(reason(inputs), "sample_cap must be non-zero");

        // A structurally broken kernel is caught per-kernel with its name.
        let mut inputs = base.clone();
        inputs.kernels[0].memory_ratio = 2.0;
        let r = reason(inputs);
        assert!(r.starts_with("kernel bodytrack:"), "{r}");
        assert!(r.contains("memory_ratio"), "{r}");

        // Out-of-range SOT channel parameters are rejected up front.
        let mut inputs = base.clone();
        inputs.mechanism = MechanismConfig::Sot(SotParams {
            spin_hall_angle: 0.0,
            ..SotParams::default()
        });
        let r = reason(inputs);
        assert!(r.starts_with("SOT mechanism:"), "{r}");

        assert!(base.validate().is_ok());
    }

    #[test]
    fn csv_exports_are_golden_stable() {
        // The figure CSVs must be byte-identical run to run, at any thread
        // count, warm or cold cache. The shared report is warm by now; the
        // serial rerun re-reduces through the cache, and the fresh-cache
        // flow recomputes every stage from scratch.
        let (flow, report) = flow_report();
        let fig11 = report.fig11_csv("bodytrack");
        let fig12 = report.fig12_csv();

        let serial = flow.run_with(&ParallelConfig::serial()).unwrap();
        assert_eq!(serial.fig11_csv("bodytrack"), fig11);
        assert_eq!(serial.fig12_csv(), fig12);

        let threaded = flow
            .run_with(&ParallelConfig::serial().with_threads(3))
            .unwrap();
        assert_eq!(threaded.fig11_csv("bodytrack"), fig11);
        assert_eq!(threaded.fig12_csv(), fig12);

        let cold_flow = MagpieFlow::new_with_cache(
            flow.inputs.clone(),
            std::sync::Arc::new(mss_pipe::PipeCache::memory_only()),
        )
        .unwrap();
        let cold = cold_flow.run().unwrap();
        assert_eq!(cold.fig11_csv("bodytrack"), fig11);
        assert_eq!(cold.fig12_csv(), fig12);
    }

    #[test]
    fn stt_l2_has_slower_writes_and_less_leakage() {
        let (flow, _) = flow_report();
        let sram = flow.system_config(Scenario::FullSram).unwrap();
        let stt = flow.system_config(Scenario::FullL2Stt).unwrap();
        let sram_big = &sram.clusters[0].l2;
        let stt_big = &stt.clusters[0].l2;
        assert!(stt_big.write_latency > 1.5 * sram_big.write_latency);
        assert!(stt_big.leakage_power < 0.3 * sram_big.leakage_power);
        // LITTLE iso-area replacement quadruples capacity.
        assert_eq!(
            stt.clusters[1].l2.capacity,
            4 * sram.clusters[1].l2.capacity
        );
        assert_eq!(stt_big.capacity, sram_big.capacity);
    }

    #[test]
    fn flow_is_thread_count_invariant() {
        let (flow, report) = flow_report();
        let serial = flow.run_with(&ParallelConfig::serial()).unwrap();
        assert_eq!(&serial, report);
        let four = flow
            .run_with(&ParallelConfig::serial().with_threads(4))
            .unwrap();
        assert_eq!(&four, report);
    }

    #[test]
    fn all_scenarios_produce_results() {
        let (_, report) = flow_report();
        assert_eq!(report.results.len(), 8);
        for s in Scenario::ALL {
            assert!(report.result("bodytrack", s).is_some());
        }
    }

    #[test]
    fn stt_scenarios_save_energy() {
        let (_, report) = flow_report();
        for kernel in ["bodytrack", "streamcluster"] {
            for s in [
                Scenario::LittleL2Stt,
                Scenario::BigL2Stt,
                Scenario::FullL2Stt,
            ] {
                let (_, e, _) = report.normalized(kernel, s).unwrap();
                assert!(e < 1.0, "{kernel}/{s}: energy ratio {e}");
            }
        }
    }

    #[test]
    fn little_stt_speeds_up_capacity_sensitive_kernel() {
        // bodytrack's working set fits the 4x larger STT L2 but not the
        // SRAM one — the paper's up-to-50% LITTLE speedup case.
        let (_, report) = flow_report();
        let (t, _, _) = report
            .normalized("bodytrack", Scenario::LittleL2Stt)
            .unwrap();
        assert!(t < 0.95, "time ratio {t}");
    }

    #[test]
    fn big_stt_slows_execution() {
        // Iso-capacity STT big L2 exposes the write latency: never faster,
        // and visibly slower for the streaming kernel.
        let (_, report) = flow_report();
        let (t, _, _) = report.normalized("bodytrack", Scenario::BigL2Stt).unwrap();
        assert!(t >= 1.0, "time ratio {t}");
        let (ts, _, _) = report
            .normalized("streamcluster", Scenario::BigL2Stt)
            .unwrap();
        assert!(ts >= 1.0, "time ratio {ts}");
    }

    #[test]
    fn tables_render() {
        let (_, report) = flow_report();
        let f11 = report.fig11_table("bodytrack");
        assert!(f11.contains("big.L2"));
        assert!(f11.contains("Full-SRAM"));
        let f12 = report.fig12_table();
        assert!(f12.contains("streamcluster"));
        assert!(f12.contains("LITTLE-L2-STT-MRAM"));
    }

    #[test]
    fn csv_exports_are_machine_readable() {
        let (_, report) = flow_report();
        let csv11 = report.fig11_csv("bodytrack");
        let mut lines = csv11.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("component,"));
        let cols = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
            // Every value cell parses as a float.
            for cell in line.split(',').skip(1) {
                cell.parse::<f64>().unwrap();
            }
        }
        let csv12 = report.fig12_csv();
        assert!(csv12.starts_with("kernel,scenario,time,energy,edp"));
        // 2 kernels x 3 scenarios data rows.
        assert_eq!(csv12.lines().count(), 1 + 2 * 3);
        for line in csv12.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 5);
            for cell in &cells[2..] {
                cell.parse::<f64>().unwrap();
            }
        }
    }

    #[test]
    fn area_accounting_follows_the_replacement_policy() {
        let (flow, report) = flow_report();
        let sram = flow.scenario_area(Scenario::FullSram).unwrap();
        let full = flow.scenario_area(Scenario::FullL2Stt).unwrap();
        // Iso-capacity big L2 in the denser technology shrinks a lot.
        assert!(full.l2_big < 0.5 * sram.l2_big);
        // Iso-area LITTLE L2 stays in the same area class (4x capacity at
        // ~3.7x density): within +/-30%.
        let ratio = full.l2_little / sram.l2_little;
        assert!((0.7..1.3).contains(&ratio), "LITTLE L2 area ratio {ratio}");
        // Total chip area never grows when adopting STT L2s.
        assert!(full.total() < sram.total() * 1.02);
        // Report carries the same records.
        assert_eq!(report.areas.len(), 4);
        assert!(report.area(Scenario::FullSram).is_some());
        let summary = report.fig10_summary("bodytrack");
        assert!(summary.contains("mm2"));
        assert!(summary.contains("Full-SRAM"));
    }

    #[test]
    fn missing_records_render_as_na_not_zero() {
        let mut report = flow_report().1.clone();
        // No area record: the Fig. 10 cell must say so instead of claiming
        // a 0.000 mm2 chip.
        report.areas.clear();
        let summary = report.fig10_summary("bodytrack");
        assert!(summary.contains("n/a"), "{summary}");
        assert!(!summary.contains("0.000 mm2"), "{summary}");
        // A component present in the reference scenario but absent from
        // another renders as n/a in that column (table and CSV).
        let victim = report
            .results
            .iter_mut()
            .find(|r| r.kernel == "bodytrack" && r.scenario != Scenario::FullSram)
            .unwrap();
        let dropped = Arc::make_mut(&mut victim.power).components.remove(0).name;
        let table = report.fig11_table("bodytrack");
        let row = table
            .lines()
            .find(|l| l.starts_with(&dropped))
            .expect("dropped component still has its reference row");
        assert!(row.contains("n/a"), "{row}");
        let csv = report.fig11_csv("bodytrack");
        let row = csv.lines().find(|l| l.starts_with(&dropped)).unwrap();
        assert!(row.contains(",n/a"), "{row}");
        assert!(!row.contains(",0.000000e0"), "{row}");
    }

    #[test]
    fn supervised_run_is_bit_identical_and_journals_every_pair() {
        let (flow, report) = flow_report();
        let dir = std::env::temp_dir().join(format!("mss-flow-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sweep.ndjson");
        let digest = flow.sweep_digest();

        let mut journal = SweepJournal::open(&path, &digest).unwrap();
        let partial = flow
            .run_supervised_journaled(
                &ParallelConfig::serial().with_threads(3),
                &SupervisorConfig::disabled(),
                &mut journal,
            )
            .unwrap();
        assert!(partial.is_complete());
        assert!(partial.failure_manifest().is_empty());
        assert_eq!(&partial.report, report);

        // Every pair left a durable done record that a resumed process sees.
        assert_eq!(journal.len(), report.results.len());
        let reopened = SweepJournal::open(&path, &digest).unwrap();
        assert_eq!(reopened.done().count(), report.results.len());
        for r in &report.results {
            assert!(reopened.is_done(&format!("{}/{}", r.scenario, r.kernel)));
        }
        // A different sweep configuration sees none of it.
        assert!(SweepJournal::open(&path, "0000000000000000")
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The STT-vs-SOT comparison grid over the same kernels/seed/cap as
    /// [`flow_report`], sharing the process-global cache so the four STT
    /// scenarios are pure cache hits.
    fn sot_flow_report() -> &'static (MagpieFlow, MagpieReport) {
        static CELL: OnceLock<(MagpieFlow, MagpieReport)> = OnceLock::new();
        CELL.get_or_init(|| {
            let flow = MagpieFlow::new(MagpieInputs {
                node: TechNode::N45,
                kernels: vec![Kernel::bodytrack(), Kernel::streamcluster()],
                scenarios: Scenario::ALL_WITH_SOT.to_vec(),
                seed: 7,
                sample_cap: 150_000,
                ..MagpieInputs::defaults()
            })
            .unwrap();
            let report = flow.run().unwrap();
            (flow, report)
        })
    }

    #[test]
    fn sot_grid_leaves_stt_rows_byte_identical() {
        // Adding the SOT scenarios to the grid must not perturb a single
        // STT byte: every fig12 row of the pure-STT report reappears
        // verbatim in the extended report's CSV.
        let (_, stt_report) = flow_report();
        let (_, sot_report) = sot_flow_report();
        let extended = sot_report.fig12_csv();
        for line in stt_report.fig12_csv().lines() {
            assert!(
                extended.lines().any(|l| l == line),
                "STT row lost or perturbed by the SOT grid: {line}"
            );
        }
        // And the extended grid actually carries the SOT rows.
        assert!(extended.contains("big-L2-SOT-MRAM"));
        assert_eq!(sot_report.results.len(), 2 * 7);
    }

    #[test]
    fn sot_scenarios_write_faster_than_stt() {
        let (flow, report) = sot_flow_report();
        // The platform view: the SOT big L2 macro writes much faster than
        // the STT one (channel write, no damping limit).
        let stt = flow.system_config(Scenario::BigL2Stt).unwrap();
        let sot = flow.system_config(Scenario::BigL2Sot).unwrap();
        assert!(
            sot.clusters[0].l2.write_latency < 0.5 * stt.clusters[0].l2.write_latency,
            "SOT write {} vs STT write {}",
            sot.clusters[0].l2.write_latency,
            stt.clusters[0].l2.write_latency
        );
        // The system view: for the iso-capacity big-L2 replacement, SOT
        // never runs slower than its STT twin.
        for kernel in ["bodytrack", "streamcluster"] {
            let (t_stt, _, _) = report.normalized(kernel, Scenario::BigL2Stt).unwrap();
            let (t_sot, _, _) = report.normalized(kernel, Scenario::BigL2Sot).unwrap();
            assert!(t_sot <= t_stt, "{kernel}: SOT {t_sot} vs STT {t_stt}");
        }
        // Iso-area LITTLE replacement factors differ per mechanism.
        assert_eq!(
            flow.system_config(Scenario::LittleL2Sot).unwrap().clusters[1]
                .l2
                .capacity,
            (512 << 10) * ISO_AREA_CAPACITY_FACTOR_SOT
        );
    }

    #[test]
    fn mechanism_comparison_pairs_every_replacement() {
        let (_, report) = sot_flow_report();
        let rows = report.mechanism_comparison();
        // 2 kernels x 3 replacement shapes.
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.stt.sot_counterpart(), Some(r.sot));
            assert!(r.edp_gain().is_finite() && r.edp_gain() > 0.0);
        }
        let table = report.mechanism_comparison_table();
        assert!(table.contains("EDP gain"), "{table}");
        let csv = report.mechanism_comparison_csv();
        assert!(csv.starts_with("kernel,replacement,stt_time"));
        assert_eq!(csv.lines().count(), 1 + 6);
        // A pure-STT report renders an empty comparison, not a panic.
        let (_, stt_report) = flow_report();
        assert!(stt_report.mechanism_comparison().is_empty());
        assert_eq!(stt_report.mechanism_comparison_csv().lines().count(), 1);
    }

    #[test]
    fn sot_areas_follow_the_replacement_policy() {
        let (flow, _) = sot_flow_report();
        let sram = flow.scenario_area(Scenario::FullSram).unwrap();
        let stt = flow.scenario_area(Scenario::FullL2Stt).unwrap();
        let sot = flow.scenario_area(Scenario::FullL2Sot).unwrap();
        // SOT's three-terminal cell is far bigger than STT's 1T-1MTJ (the
        // channel write device) and lands back at roughly the 6T SRAM
        // footprint: the iso-capacity big L2 stays in the SRAM area class.
        assert!(sot.l2_big > 1.5 * stt.l2_big);
        let ratio = sot.l2_big / sram.l2_big;
        assert!((0.8..1.3).contains(&ratio), "big L2 area ratio {ratio}");
        // Chip-level area stays within a few percent of the SRAM reference
        // (capacity-neutral LITTLE, ~iso-area big).
        assert!(sot.total() < sram.total() * 1.05);
        assert!(sot.total() > stt.total());
    }

    #[test]
    fn sweep_digest_gates_the_new_knobs() {
        // The default mechanism hashes exactly as the pre-mechanism flow
        // did: the digest is reproducible from the old four-field shape.
        let (flow, _) = flow_report();
        let kernels = "bodytrack,streamcluster";
        let scenarios = Scenario::ALL.map(|s| s.to_string()).join(",");
        let old_shape = digest_of(&(
            "N45".to_string(),
            kernels.to_string(),
            scenarios,
            (7u64, 150_000u64),
        ));
        assert_eq!(flow.sweep_digest(), old_shape);

        // Setting the mechanism forks the digest.
        let mut inputs = flow.inputs.clone();
        inputs.mechanism = MechanismConfig::Sot(SotParams::default());
        let sot_flow = MagpieFlow::new(inputs).unwrap();
        assert_ne!(sot_flow.sweep_digest(), old_shape);
    }

    #[test]
    fn normalized_reference_is_unity() {
        let (_, report) = flow_report();
        let (t, e, edp) = report.normalized("bodytrack", Scenario::FullSram).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        assert!((e - 1.0).abs() < 1e-12);
        assert!((edp - 1.0).abs() < 1e-12);
    }
}
