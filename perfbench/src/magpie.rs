//! The MAGPIE-flow workloads: `fig12_grid` (the Fig. 12 artifact with its
//! SOT rerun) and `seed_sweep` (one platform, many unshared seeds).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use mss_core::flow::{KernelScenarioResult, MagpieFlow, MagpieInputs, MagpieReport};
use mss_core::scenario::Scenario;
use mss_exec::{par_map, ParallelConfig};
use mss_gemsim::reference;
use mss_gemsim::system::{Placement, SystemConfig};
use mss_gemsim::workload::{AccessStream, Kernel, MemoryAccess};
use mss_pdk::tech::TechNode;
use mss_pipe::{digest_of, PipeCache, Stage};
use mss_units::rng::{Rng, SplitMix64};

use crate::host::{self, Env, Spans};
use crate::{Args, Outcome};

/// Seed of the committed Fig. 12 results.
pub const FIG12_SEED: u64 = 0x000F_1612;
/// Per-thread sampled accesses, as in the Fig. 12 artifact.
const SAMPLE_CAP: u64 = 250_000;
/// Distinct seeds one `seed_sweep` iteration simulates.
pub const SWEEP_SEEDS: u64 = 4;
/// Synthesis chunk of the floor replay, as in `System::run`.
const CHUNK: usize = 1024;

/// A workload's flows. The flows of one group share a stage cache; every
/// group gets a fresh memory-only cache on every set-up.
struct Grid {
    groups: Vec<Vec<MagpieInputs>>,
    /// Reference spot checks: (flow index, scenario, kernel index).
    spot: Vec<(usize, Scenario, usize)>,
    /// Compare with the committed `results/fig12*.csv`.
    committed: bool,
}

impl Grid {
    fn flows(&self) -> impl Iterator<Item = &MagpieInputs> {
        self.groups.iter().flatten()
    }

    /// Operations (kernel, scenario pairs) of one pass.
    fn ops(&self) -> u64 {
        self.flows()
            .map(|i| (i.kernels.len() * i.scenarios.len()) as u64)
            .sum()
    }
}

/// A seed-chosen index below `n`: picks the spot-checked pairs.
fn pick(seed: u64, n: usize) -> usize {
    (SplitMix64::new(seed).next_u64() % n as u64) as usize
}

fn inputs(seed: u64, scenarios: &[Scenario]) -> MagpieInputs {
    MagpieInputs {
        node: TechNode::N45,
        kernels: Kernel::parsec_extended(),
        scenarios: scenarios.to_vec(),
        seed,
        sample_cap: SAMPLE_CAP,
        ..MagpieInputs::defaults()
    }
}

fn fig12_grid_inputs(seed: u64) -> Grid {
    let kernels = Kernel::parsec_extended().len();
    let committed = seed == FIG12_SEED;
    // One sampled pair per scenario, taken from the SOT rerun (flow 1),
    // which holds every scenario.
    let spot = if committed {
        Vec::new()
    } else {
        Scenario::ALL_WITH_SOT
            .iter()
            .enumerate()
            .map(|(i, &s)| (1, s, pick(seed ^ i as u64, kernels)))
            .collect()
    };
    Grid {
        groups: vec![vec![
            inputs(seed, &Scenario::ALL),
            inputs(seed, &Scenario::ALL_WITH_SOT),
        ]],
        spot,
        committed,
    }
}

fn seed_sweep_inputs(seed: u64) -> Grid {
    let kernels = Kernel::parsec_extended().len();
    Grid {
        groups: (0..SWEEP_SEEDS)
            .map(|i| vec![inputs(seed.wrapping_add(i), &[Scenario::LittleL2Stt])])
            .collect(),
        spot: vec![(
            pick(seed, SWEEP_SEEDS as usize),
            Scenario::LittleL2Stt,
            pick(!seed, kernels),
        )],
        committed: false,
    }
}

/// The `fig12_grid` workload.
pub fn fig12_grid(args: &Args, env: &Env) -> Result<Outcome, String> {
    let grid = fig12_grid_inputs(args.seed);
    if args.trace {
        traced(&grid, env)
    } else {
        timed(&grid, args, env)
    }
}

/// The `seed_sweep` workload.
pub fn seed_sweep(args: &Args, env: &Env) -> Result<Outcome, String> {
    let grid = seed_sweep_inputs(args.seed);
    if args.trace {
        traced(&grid, env)
    } else {
        timed(&grid, args, env)
    }
}

/// Set-up: every flow constructed cold (characterisation) on fresh caches.
fn build(grid: &Grid) -> Result<Vec<MagpieFlow>, String> {
    let mut flows = Vec::new();
    for group in &grid.groups {
        let cache = Arc::new(PipeCache::memory_only());
        for inputs in group {
            flows.push(
                MagpieFlow::new_with_cache(inputs.clone(), cache.clone())
                    .map_err(|e| format!("flow set-up: {e}"))?,
            );
        }
    }
    Ok(flows)
}

/// The timed region: every flow run in order.
fn run_all(flows: &[MagpieFlow], exec: &ParallelConfig) -> Result<Vec<MagpieReport>, String> {
    flows
        .iter()
        .map(|f| f.run_with(exec).map_err(|e| format!("flow run: {e}")))
        .collect()
}

fn timed(grid: &Grid, args: &Args, env: &Env) -> Result<Outcome, String> {
    let exec = env.parallel();
    let (samples, outputs) = host::measure(
        args.seconds,
        || build(grid),
        |flows| flows.and_then(|f| run_all(&f, &exec)),
    );
    let mut out = Outcome {
        attempted: grid.ops() * outputs.len() as u64,
        failed: check(grid, &outputs, env)?,
        ..Outcome::default()
    };
    host::record_timed(&mut out, &samples);
    Ok(out)
}

/// Checks every pass's reports and returns the failed-op count.
///
/// - A pass that errored fails all its ops.
/// - Every result must be finite and positive, and equal the first good
///   pass's (the flow is deterministic).
/// - On the first good pass: the committed CSVs (one op per differing
///   row) and the reference spot checks (one op per mismatch).
fn check(
    grid: &Grid,
    passes: &[Result<Vec<MagpieReport>, String>],
    env: &Env,
) -> Result<u64, String> {
    let mut failed = 0;
    let mut first: Option<&Vec<MagpieReport>> = None;
    for pass in passes {
        let reports = match pass {
            Ok(r) => r,
            Err(why) => {
                eprintln!("perfbench: pass failed: {why}");
                failed += grid.ops();
                continue;
            }
        };
        let base = *first.get_or_insert(reports);
        for (report, base) in reports.iter().zip(base) {
            for (r, b) in report.results.iter().zip(&base.results) {
                if !plausible(r) || r != b {
                    failed += 1;
                }
            }
        }
    }
    let Some(reports) = first else {
        return Ok(failed);
    };
    if grid.committed {
        failed += csv_mismatches(&env.root.join("results/fig12.csv"), &reports[0].fig12_csv())?;
        failed += csv_mismatches(
            &env.root.join("results/fig12_sot.csv"),
            &reports[1].mechanism_comparison_csv(),
        )?;
    }
    failed += spot_check(grid, reports, env)?;
    Ok(failed)
}

fn plausible(r: &KernelScenarioResult) -> bool {
    [r.runtime, r.energy, r.edp]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0)
}

/// Rows of `actual` that differ from the committed CSV at `path`.
fn csv_mismatches(path: &std::path::Path, actual: &str) -> Result<u64, String> {
    let expected = std::fs::read_to_string(path)
        .map_err(|e| format!("committed results {}: {e}", path.display()))?;
    let (e, a): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let differing = e.iter().zip(&a).filter(|(x, y)| x != y).count();
    let missing = e.len().abs_diff(a.len());
    if differing + missing > 0 {
        eprintln!(
            "perfbench: {} rows of {} differ from the committed file",
            differing + missing,
            path.display()
        );
    }
    Ok((differing + missing) as u64)
}

/// Re-simulates the sampled pairs with the naive executable spec and counts
/// those whose activity report differs.
fn spot_check(grid: &Grid, reports: &[MagpieReport], env: &Env) -> Result<u64, String> {
    let flows: Vec<&MagpieInputs> = grid.flows().collect();
    let mismatches = par_map(&env.parallel(), &grid.spot, |_, &(f, scenario, k)| {
        let inputs = flows[f];
        let kernel = &inputs.kernels[k];
        let flow = MagpieFlow::new_with_cache(inputs.clone(), Arc::new(PipeCache::memory_only()))
            .map_err(|e| e.to_string())?;
        let config = flow.system_config(scenario).map_err(|e| e.to_string())?;
        let naive = reference::run_placed(&config, kernel, inputs.seed, &Placement::AllClusters)
            .map_err(|e| e.to_string())?;
        let result = reports[f].result(&kernel.name, scenario);
        let ok = result.is_some_and(|r| r.activity == naive);
        if !ok {
            eprintln!(
                "perfbench: {} / {scenario} (seed {}) differs from the naive reference",
                kernel.name, inputs.seed
            );
        }
        Ok::<_, String>(u64::from(!ok))
    });
    mismatches.into_iter().sum()
}

/// The grid's distinct simulations, (platform, kernel, seed), in grid
/// order: what the flows must simulate at least once.
fn simulations<'a>(
    grid: &'a Grid,
    flows: &[MagpieFlow],
) -> Result<Vec<(SystemConfig, &'a Kernel, u64)>, String> {
    let mut seen = BTreeSet::new();
    let mut sims = Vec::new();
    for (inputs, flow) in grid.flows().zip(flows) {
        for &scenario in &inputs.scenarios {
            let config = flow.system_config(scenario).map_err(|e| e.to_string())?;
            for kernel in &inputs.kernels {
                if seen.insert((digest_of(&config), kernel.name.as_str(), inputs.seed)) {
                    sims.push((config.clone(), kernel, inputs.seed));
                }
            }
        }
    }
    Ok(sims)
}

/// The (thread id, sampled accesses) streams `System::run` synthesises for
/// `kernel` on `config` with every cluster active: thread `t` runs on core
/// `t mod cores`, and each cluster samples at most the platform's cap per
/// thread of its compute-weighted share. (The report's statistics are
/// scaled to the full kernel, so the sampled counts are rebuilt here.)
fn sampled_streams(config: &SystemConfig, kernel: &Kernel) -> Vec<(u32, u64)> {
    let total_cores: u64 = config.clusters.iter().map(|c| u64::from(c.cores)).sum();
    let threads = u64::from(kernel.threads);
    let owned = |core: u64| (0..threads).filter(move |t| t % total_cores == core);
    let weight = |c: &mss_gemsim::system::ClusterConfig| c.core.frequency / c.core.base_cpi;
    let mut total_weight = 0.0;
    let mut core = 0;
    for cluster in &config.clusters {
        for _ in 0..cluster.cores {
            total_weight += owned(core).count() as f64 * weight(cluster);
            core += 1;
        }
    }
    let mut streams = Vec::new();
    let mut core = 0;
    for cluster in &config.clusters {
        let instr = (kernel.instructions as f64 * weight(cluster) / total_weight) as u64;
        let mem = (instr as f64 * kernel.memory_ratio) as u64;
        let sampled = mem.min(config.sample_accesses_per_thread);
        for _ in 0..cluster.cores {
            streams.extend(owned(core).map(|t| (t as u32, sampled)));
            core += 1;
        }
    }
    streams
}

/// The synthesis floor of `sims`: every distinct (kernel, tid, seed)
/// stream synthesised once, alone, at the longest count any simulation
/// samples of it. Returns (seconds, floor accesses, sampled accesses of
/// all simulations).
fn synthesis_floor(sims: &[(SystemConfig, &Kernel, u64)]) -> (f64, u64, u64) {
    let mut streams: BTreeMap<(&str, u32, u64), (&Kernel, u64)> = BTreeMap::new();
    let mut sampled = 0;
    for (config, kernel, seed) in sims {
        for (tid, count) in sampled_streams(config, kernel) {
            sampled += count;
            let longest = streams
                .entry((kernel.name.as_str(), tid, *seed))
                .or_insert((kernel, 0));
            longest.1 = longest.1.max(count);
        }
    }
    let mut buf = vec![
        MemoryAccess {
            address: 0,
            write: false
        };
        CHUNK
    ];
    let mut floor = 0;
    let t = Instant::now();
    for (&(_, tid, seed), &(kernel, count)) in &streams {
        let mut stream = AccessStream::new(kernel, tid, seed);
        let mut done = 0;
        while done < count {
            let n = CHUNK.min((count - done) as usize);
            stream.fill(&mut buf[..n]);
            std::hint::black_box(&buf);
            done += n as u64;
        }
        floor += count;
    }
    (t.elapsed().as_secs_f64(), floor, sampled)
}

/// Simulated L1 and L2 miss ratios and DRAM transactions over every
/// (kernel, scenario) result of `reports`.
fn simulated_stats(reports: &[MagpieReport]) -> (f64, f64, u64) {
    let (mut l1, mut l2) = ((0u64, 0u64), (0u64, 0u64));
    let mut dram = 0;
    for result in reports.iter().flat_map(|r| &r.results) {
        for cache in &result.activity.caches {
            let level = if cache.name.ends_with(".L2") {
                &mut l2
            } else {
                &mut l1
            };
            level.0 += cache.stats.misses();
            level.1 += cache.stats.accesses();
        }
        dram += result.activity.dram_reads + result.activity.dram_writes;
    }
    let ratio = |(m, a): (u64, u64)| m as f64 / a.max(1) as f64;
    (ratio(l1), ratio(l2), dram)
}

/// The traced run: the workload's own set-up and `MagpieFlow::run_with` at
/// one thread with the `mss_obs` registry on; the layer times are the
/// program's spans.
fn traced(grid: &Grid, env: &Env) -> Result<Outcome, String> {
    let t = Instant::now();
    let flows = build(grid)?;
    let traced = run_all(&flows, &ParallelConfig::serial());
    let trace_wall = t.elapsed().as_secs_f64();
    let spans = Spans::snapshot()?;
    let mut caches: Vec<&Arc<PipeCache>> = Vec::new();
    for flow in &flows {
        if !caches.iter().any(|c| Arc::ptr_eq(c, flow.cache())) {
            caches.push(flow.cache());
        }
    }
    let stage = |s: Stage| {
        caches.iter().fold((0, 0), |(h, l), c| {
            let st = c.stats(s);
            (h + st.hits, l + st.lookups())
        })
    };
    let (sim_hits, sim_lookups) = stage(Stage::SimulateKernel);
    let (est_hits, est_lookups) = stage(Stage::EstimateArray);

    // After the stage counts: `system_config` looks the estimates up again.
    let sims = simulations(grid, &flows)?;
    let (floor_s, floor_accesses, sampled) = synthesis_floor(&sims);
    let (l1_miss, l2_miss, dram) = traced.as_deref().map_or((0.0, 0.0, 0), simulated_stats);

    // The same flows untraced at `nproc` threads: the parallel wall for the
    // efficiency ratio, and a check that the traced pass gave the same
    // reports.
    let parallel_flows = build(grid)?;
    let t = Instant::now();
    let parallel = run_all(&parallel_flows, &env.parallel());
    let parallel_wall = t.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: 2 * grid.ops(),
        ..Outcome::default()
    };
    out.failed = check(grid, &[traced, parallel], env)?;

    let characterize_s =
        spans.seconds("flow.characterize") + spans.seconds("flow.characterize_sot");
    let prepare_s = spans.seconds("flow.prepare");
    let simulate_s = spans.seconds("flow.simulate");
    let (runs, run_s, run_max_s) = spans.get("gemsim.run");
    let layer_s = characterize_s + prepare_s + simulate_s;

    out.set("pdk.characterize_s", characterize_s);
    out.set("core.prepare_s", prepare_s);
    out.set("gemsim.run_s", run_s);
    out.set("gemsim.runs", runs as f64);
    out.set("gemsim.run_max_s", run_max_s);
    out.set("gemsim.synth_floor_s", floor_s);
    out.set("gemsim.sampled_accesses", sampled as f64);
    out.set(
        "gemsim.stream_reuse",
        sampled as f64 / floor_accesses.max(1) as f64,
    );
    out.set("gemsim.ns_per_access", run_s * 1e9 / sampled.max(1) as f64);
    out.set("gemsim.l1_miss_ratio", l1_miss);
    out.set("gemsim.l2_miss_ratio", l2_miss);
    out.set("gemsim.dram_accesses", dram as f64);
    out.set("mcpat.evaluate_s", spans.seconds("pipe.mcpat_account"));
    out.set(
        "pipe.simulate_hit_ratio",
        sim_hits as f64 / sim_lookups.max(1) as f64,
    );
    out.set("pipe.simulate_misses", (sim_lookups - sim_hits) as f64);
    out.set(
        "pipe.estimate_hit_ratio",
        est_hits as f64 / est_lookups.max(1) as f64,
    );
    out.set("vaet.context_s", 0.0);
    out.set("vaet.mc_s", 0.0);
    out.set("vaet.samples_per_s", 0.0);
    out.set("exec.mc_speedup", 0.0);
    out.set(
        "exec.flow_efficiency",
        (prepare_s + simulate_s) / (env.nproc as f64 * parallel_wall),
    );
    out.set("trace.wall_s", trace_wall);
    out.set("trace.layer_s", layer_s);
    out.set("trace.coverage", layer_s / trace_wall);
    out.note("parallel_threads", env.nproc);
    out.note("parallel_wall_s", format!("{parallel_wall:.4}"));
    out.note("simulations", sims.len());
    Ok(out)
}
