//! The `table1_mc` workload: the Table 1 artifact's VAET Monte Carlo over
//! {N45, N65} × {STT, SOT}.

use std::time::Instant;

use mss_bench::{standard_context, standard_sot_context};
use mss_exec::ParallelConfig;
use mss_pdk::tech::TechNode;
use mss_vaet::context::VaetContext;
use mss_vaet::montecarlo::{run_with, MonteCarloOptions};
use mss_vaet::report::VaetReport;

use crate::host::{self, Env, Spans};
use crate::{Args, Outcome};

/// Seed of the Table 1 artifact.
pub const TABLE1_SEED: u64 = 0x007A_B1E1;
/// Monte Carlo samples per run, as in the artifact.
const SAMPLES: usize = 2000;
/// Samples of the thread-parity check.
const PARITY_SAMPLES: usize = 256;
/// The artifact's runs, in its order: STT at both nodes, then SOT.
const RUNS: [(TechNode, bool); 4] = [
    (TechNode::N45, false),
    (TechNode::N65, false),
    (TechNode::N45, true),
    (TechNode::N65, true),
];
/// The `table1` binary's output at [`TABLE1_SEED`].
const COMMITTED: &str = include_str!("../expected/table1.stdout");

fn context(node: TechNode, sot: bool) -> VaetContext {
    if sot {
        standard_sot_context(node)
    } else {
        standard_context(node)
    }
}

/// Set-up: the four VAET contexts, built cold.
fn contexts() -> Vec<VaetContext> {
    RUNS.iter().map(|&(node, sot)| context(node, sot)).collect()
}

fn options(seed: u64, samples: usize) -> MonteCarloOptions {
    MonteCarloOptions {
        samples,
        seed,
        word_bits: None,
    }
}

/// One Monte Carlo run per context.
fn run_all(
    contexts: &[VaetContext],
    opts: &MonteCarloOptions,
    exec: &ParallelConfig,
) -> Vec<Result<VaetReport, String>> {
    contexts
        .iter()
        .map(|ctx| run_with(ctx, opts, exec).map_err(|e| e.to_string()))
        .collect()
}

/// The `table1_mc` workload.
pub fn table1_mc(args: &Args, env: &Env) -> Result<Outcome, String> {
    if args.trace {
        return traced(args, env);
    }
    let opts = options(args.seed, SAMPLES);
    let exec = env.parallel();
    let (samples, passes) =
        host::measure(args.seconds, contexts, |ctxs| run_all(&ctxs, &opts, &exec));
    let mut out = Outcome {
        attempted: (RUNS.len() * passes.len()) as u64,
        failed: check(args.seed, &passes),
        ..Outcome::default()
    };
    let (parity_runs, parity_failed) = thread_parity(args.seed, env);
    out.attempted += parity_runs;
    out.failed += parity_failed;
    host::record_timed(&mut out, &samples);
    Ok(out)
}

/// Counts failed runs: errors, passes that differ from the first (the
/// reports are bit-identical by contract), and at the artifact's seed any
/// report whose rendered table is not in the committed output, in order.
fn check(seed: u64, passes: &[Vec<Result<VaetReport, String>>]) -> u64 {
    let fingerprint = |r: &Result<VaetReport, String>| r.as_ref().ok().map(|r| format!("{r:?}"));
    let mut failed = 0;
    let first: Vec<Option<String>> = passes[0].iter().map(fingerprint).collect();
    for pass in passes {
        for (run, base) in pass.iter().zip(&first) {
            match run {
                Err(why) => {
                    eprintln!("perfbench: monte carlo failed: {why}");
                    failed += 1;
                }
                Ok(_) if fingerprint(run) != *base => failed += 1,
                Ok(_) => {}
            }
        }
    }
    if seed == TABLE1_SEED {
        let mut rest = COMMITTED;
        for run in &passes[0] {
            let table = run.as_ref().map(VaetReport::to_table).unwrap_or_default();
            match rest.find(&table) {
                Some(at) if !table.is_empty() => rest = &rest[at + table.len()..],
                _ => {
                    eprintln!("perfbench: a Table 1 report differs from the committed output");
                    failed += 1;
                }
            }
        }
    }
    failed
}

/// Reduced-sample reports at one thread and at `nproc` threads must be
/// bit-identical; returns (runs compared, runs differing).
fn thread_parity(seed: u64, env: &Env) -> (u64, u64) {
    let opts = options(seed, PARITY_SAMPLES);
    let ctxs = contexts();
    let serial = run_all(&ctxs, &opts, &ParallelConfig::serial());
    let parallel = run_all(&ctxs, &opts, &env.parallel());
    let differing = serial
        .iter()
        .zip(&parallel)
        .filter(|(s, p)| match (s, p) {
            (Ok(s), Ok(p)) => format!("{s:?}") != format!("{p:?}"),
            _ => true,
        })
        .count();
    if differing > 0 {
        eprintln!(
            "perfbench: {differing} Monte Carlo reports differ between 1 and {} threads",
            env.nproc
        );
    }
    (RUNS.len() as u64, differing as u64)
}

/// The traced run: the artifact's calls in its order at one thread —
/// build each context, run its Monte Carlo — with the `mss_obs` registry
/// on, then the same runs at `nproc` threads for the speed-up. The context
/// builds, which have no span of their own, are timed here.
fn traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let opts = options(args.seed, SAMPLES);
    let mut build_s = 0.0;
    let mut ctxs = Vec::new();
    let mut serial = Vec::new();
    let start = Instant::now();
    for &(node, sot) in &RUNS {
        let t = Instant::now();
        let ctx = context(node, sot);
        build_s += t.elapsed().as_secs_f64();
        serial.push(run_with(&ctx, &opts, &ParallelConfig::serial()).map_err(|e| e.to_string()));
        ctxs.push(ctx);
    }
    let trace_wall = start.elapsed().as_secs_f64();
    let spans = Spans::snapshot()?;
    // The context builds characterise through the global stage cache.
    let pdk_s = spans.seconds("pipe.characterize_cells");
    let mc_s = spans.seconds("vaet.mc.run");

    let t = Instant::now();
    let parallel = run_all(&ctxs, &opts, &env.parallel());
    let parallel_s = t.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: 2 * RUNS.len() as u64,
        failed: check(args.seed, &[serial, parallel]),
        ..Outcome::default()
    };
    let estimates = mss_pipe::global().stats(mss_pipe::Stage::EstimateArray);
    let layer_s = build_s + mc_s;
    for name in [
        "core.prepare_s",
        "gemsim.run_s",
        "gemsim.runs",
        "gemsim.run_max_s",
        "gemsim.synth_floor_s",
        "gemsim.sampled_accesses",
        "gemsim.stream_reuse",
        "gemsim.ns_per_access",
        "gemsim.l1_miss_ratio",
        "gemsim.l2_miss_ratio",
        "gemsim.dram_accesses",
        "mcpat.evaluate_s",
        "pipe.simulate_hit_ratio",
        "pipe.simulate_misses",
    ] {
        out.set(name, 0.0);
    }
    out.set("pdk.characterize_s", pdk_s);
    out.set(
        "pipe.estimate_hit_ratio",
        estimates.hits as f64 / estimates.lookups().max(1) as f64,
    );
    out.set("vaet.context_s", build_s - pdk_s);
    out.set("vaet.mc_s", mc_s);
    out.set("vaet.samples_per_s", (RUNS.len() * SAMPLES) as f64 / mc_s);
    out.set("exec.mc_speedup", mc_s / parallel_s);
    out.set(
        "exec.flow_efficiency",
        mc_s / (env.nproc as f64 * parallel_s),
    );
    out.set("trace.wall_s", trace_wall);
    out.set("trace.layer_s", layer_s);
    out.set("trace.coverage", layer_s / trace_wall);
    out.note("parallel_threads", env.nproc);
    Ok(out)
}
