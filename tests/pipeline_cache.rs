//! Integration: the content-addressed stage pipeline (`mss-pipe`) makes
//! sweeps incremental without changing a single output bit.
//!
//! The acceptance regression here is the paper's Fig. 12 node sweep: once a
//! cache is warm, re-running the sweep (fresh `MagpieFlow`s, same cache)
//! must skip every `CharacterizeCells` and `EstimateArray` recomputation —
//! verified both through [`PipeCache::stats`] and the mirrored `mss-obs`
//! counters — while producing a byte-identical report.
//!
//! Tests share global observability counters, so they serialize on [`LOCK`].

use std::sync::{Arc, Mutex};

use great_mss::core::flow::{MagpieFlow, MagpieInputs, MagpieReport};
use great_mss::core::scenario::Scenario;
use great_mss::exec::ParallelConfig;
use great_mss::gemsim::workload::Kernel;
use great_mss::obs;
use great_mss::pdk::tech::TechNode;
use great_mss::pipe::{PipeCache, Stage};

static LOCK: Mutex<()> = Mutex::new(());

fn sweep_inputs(node: TechNode) -> MagpieInputs {
    MagpieInputs {
        node,
        kernels: vec![Kernel::swaptions()],
        scenarios: vec![Scenario::FullSram, Scenario::FullL2Stt],
        seed: 11,
        sample_cap: 20_000,
        ..MagpieInputs::defaults()
    }
}

fn run_sweep(cache: &Arc<PipeCache>) -> Vec<MagpieReport> {
    TechNode::ALL
        .into_iter()
        .map(|node| {
            MagpieFlow::new_with_cache(sweep_inputs(node), Arc::clone(cache))
                .expect("flow setup")
                .run()
                .expect("flow run")
        })
        .collect()
}

#[test]
fn warm_node_sweep_skips_upstream_recomputation() {
    let _serial = LOCK.lock().unwrap();
    obs::init_with_mode(obs::Mode::Metrics);
    assert!(obs::enabled(), "metrics must be on for counter assertions");

    let cache = Arc::new(PipeCache::memory_only());
    let cold_reports = run_sweep(&cache);

    let char_cold = cache.stats(Stage::CharacterizeCells);
    let est_cold = cache.stats(Stage::EstimateArray);
    let sim_cold = cache.stats(Stage::SimulateKernel);
    let pow_cold = cache.stats(Stage::McpatAccount);
    assert_eq!(
        char_cold.misses,
        TechNode::ALL.len() as u64,
        "one characterisation per node on the cold sweep"
    );
    assert!(est_cold.misses > 0, "cold sweep estimates array macros");
    assert!(sim_cold.misses > 0 && pow_cold.misses > 0);

    let obs_char_hits = obs::counter("pipe.characterize_cells.hit");
    let obs_est_hits = obs::counter("pipe.estimate_array.hit");

    // Warm sweep: brand-new flows over the same cache.
    let warm_reports = run_sweep(&cache);
    for (warm, cold) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(warm, cold, "warm report must be bit-identical");
        assert_eq!(warm.fig12_csv(), cold.fig12_csv());
        assert_eq!(warm.fig11_csv("swaptions"), cold.fig11_csv("swaptions"));
    }

    let char_warm = cache.stats(Stage::CharacterizeCells);
    let est_warm = cache.stats(Stage::EstimateArray);
    let sim_warm = cache.stats(Stage::SimulateKernel);
    let pow_warm = cache.stats(Stage::McpatAccount);
    assert_eq!(
        char_warm.misses, char_cold.misses,
        "warm sweep must not re-characterise"
    );
    assert_eq!(
        est_warm.misses, est_cold.misses,
        "warm sweep must not re-estimate"
    );
    assert_eq!(
        sim_warm.misses, sim_cold.misses,
        "warm sweep must not re-simulate"
    );
    assert_eq!(
        pow_warm.misses, pow_cold.misses,
        "warm sweep must not re-account"
    );
    assert!(char_warm.hits > char_cold.hits);
    assert!(est_warm.hits > est_cold.hits);

    // The same evidence flows into the shared observability registry.
    assert!(obs::counter("pipe.characterize_cells.hit") > obs_char_hits);
    assert!(obs::counter("pipe.estimate_array.hit") > obs_est_hits);
}

#[test]
fn disk_tier_carries_artifacts_across_cache_instances() {
    let _serial = LOCK.lock().unwrap();
    obs::init_with_mode(obs::Mode::Metrics);

    let dir = std::env::temp_dir().join(format!("mss-pipe-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache = Arc::new(PipeCache::with_disk(&dir));
    let cold = MagpieFlow::new_with_cache(sweep_inputs(TechNode::N45), Arc::clone(&cold_cache))
        .expect("cold setup")
        .run()
        .expect("cold run");
    assert!(
        cold_cache.stats(Stage::CharacterizeCells).stores > 0,
        "cold run persists the cell library"
    );
    assert!(cold_cache.stats(Stage::EstimateArray).stores > 0);

    // A fresh cache instance (empty memory tier) over the same directory:
    // artifact stages load from disk instead of recomputing.
    let warm_cache = Arc::new(PipeCache::with_disk(&dir));
    let warm = MagpieFlow::new_with_cache(sweep_inputs(TechNode::N45), Arc::clone(&warm_cache))
        .expect("warm setup")
        .run()
        .expect("warm run");
    assert_eq!(warm, cold, "disk-warmed report must be bit-identical");
    assert_eq!(warm.fig12_csv(), cold.fig12_csv());

    let char_stats = warm_cache.stats(Stage::CharacterizeCells);
    let est_stats = warm_cache.stats(Stage::EstimateArray);
    assert_eq!(char_stats.misses, 0, "cell library must come from disk");
    assert!(char_stats.disk_hits >= 1);
    assert_eq!(est_stats.misses, 0, "array metrics must come from disk");
    assert!(est_stats.disk_hits >= 1);
    assert_eq!(char_stats.load_failures, 0);
    assert_eq!(est_stats.load_failures, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces the value of the first JSON field `key` in `text`.
fn set_field(text: &str, key: &str, value: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag).expect("field present") + tag.len();
    let end = start + text[start..].find([',', '}']).expect("field ends");
    format!("{}{value}{}", &text[..start], &text[end..])
}

#[test]
fn damaged_and_outdated_sim_reports_load_as_misses() {
    let _serial = LOCK.lock().unwrap();
    obs::init_with_mode(obs::Mode::Metrics);

    let dir = std::env::temp_dir().join(format!("mss-pipe-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = MagpieFlow::new_with_cache(
        sweep_inputs(TechNode::N45),
        Arc::new(PipeCache::with_disk(&dir)),
    )
    .expect("cold setup")
    .run()
    .expect("cold run");

    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&format!("{}-", Stage::SimulateKernel.name())))
        })
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 2, "one simulate entry per scenario");
    // The header carries `version` and the report's first line `cores`;
    // neither key appears anywhere else in an entry.
    let rewrite = |path: &std::path::Path, edit: &dyn Fn(&str) -> String| {
        let text = std::fs::read_to_string(path).expect("entry");
        std::fs::write(path, edit(&text)).expect("rewrite entry");
    };
    // A damaged entry: a core count no file could back.
    rewrite(&entries[0], &|text| {
        set_field(text, "cores", &u64::MAX.to_string())
    });
    // An entry in the version-1 format, which still carried
    // `extrapolated_accesses`.
    rewrite(&entries[1], &|text| {
        set_field(text, "version", "1").replacen(
            ",\"cores\":",
            ",\"extrapolated_accesses\":0,\"cores\":",
            1,
        )
    });

    let warm_cache = Arc::new(PipeCache::with_disk(&dir));
    let warm = MagpieFlow::new_with_cache(sweep_inputs(TechNode::N45), Arc::clone(&warm_cache))
        .expect("warm setup")
        .run()
        .expect("warm run");
    let sim = warm_cache.stats(Stage::SimulateKernel);
    assert_eq!(sim.load_failures, 2, "both entries must fail to load");
    assert_eq!(sim.misses, 2, "both pairs must be re-simulated");
    assert_eq!(warm, cold, "recomputed report must be bit-identical");
    assert_eq!(warm.fig12_csv(), cold.fig12_csv());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn estimate_array_counts_do_not_depend_on_thread_count() {
    let _serial = LOCK.lock().unwrap();
    let estimate_stats = |threads: usize| {
        let cache = Arc::new(PipeCache::memory_only());
        let inputs = MagpieInputs {
            scenarios: Scenario::ALL_WITH_SOT.to_vec(),
            sample_cap: 2_000,
            ..sweep_inputs(TechNode::N45)
        };
        MagpieFlow::new_with_cache(inputs, Arc::clone(&cache))
            .expect("flow setup")
            .run_with(&ParallelConfig::serial().with_threads(threads))
            .expect("flow run");
        cache.stats(Stage::EstimateArray)
    };
    let serial = estimate_stats(1);
    for run in 0..5 {
        assert_eq!(estimate_stats(8), serial, "8-thread run {run}");
    }
}
