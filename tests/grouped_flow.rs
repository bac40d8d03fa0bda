//! Integration: `MagpieFlow::run_with` simulates each kernel's missing
//! scenarios in one fused gemsim pass, and that must change nothing but
//! the time taken. Its report equals the per-pair supervised path's bit for
//! bit, at any thread count, and the simulate stage sees the same lookups
//! and misses either way.

use std::sync::Arc;

use great_mss::core::flow::{MagpieFlow, MagpieInputs, MagpieReport};
use great_mss::core::scenario::Scenario;
use great_mss::exec::supervise::SupervisorConfig;
use great_mss::exec::ParallelConfig;
use great_mss::gemsim::workload::Kernel;
use great_mss::pdk::tech::TechNode;
use great_mss::pipe::{PipeCache, Stage, StageStats};

fn flow() -> MagpieFlow {
    MagpieFlow::new_with_cache(
        MagpieInputs {
            node: TechNode::N45,
            kernels: vec![Kernel::bodytrack(), Kernel::streamcluster(), Kernel::x264()],
            scenarios: Scenario::ALL_WITH_SOT.to_vec(),
            seed: 0x5EED,
            sample_cap: 4_000,
            ..MagpieInputs::defaults()
        },
        Arc::new(PipeCache::memory_only()),
    )
    .expect("flow setup")
}

fn assert_bit_equal(a: &MagpieReport, b: &MagpieReport, what: &str) {
    assert_eq!(a, b, "{what}");
    for (x, y) in a.results.iter().zip(&b.results) {
        for (u, v) in [
            (x.runtime, y.runtime),
            (x.energy, y.energy),
            (x.edp, y.edp),
            (x.activity.runtime_seconds, y.activity.runtime_seconds),
        ] {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: {} / {}",
                x.kernel,
                x.scenario
            );
        }
    }
}

fn simulate_stats(flow: &MagpieFlow) -> StageStats {
    flow.cache().stats(Stage::SimulateKernel)
}

#[test]
fn grouped_flow_equals_the_per_pair_path() {
    let per_pair_flow = flow();
    let per_pair = per_pair_flow
        .run_supervised(&ParallelConfig::serial(), &SupervisorConfig::disabled())
        .expect("supervised run");
    assert!(per_pair.is_complete());
    assert_eq!(per_pair.report.results.len(), 21);
    let per_pair_stats = simulate_stats(&per_pair_flow);

    for threads in [1, 2] {
        let grouped_flow = flow();
        let exec = ParallelConfig::serial().with_threads(threads);
        let grouped = grouped_flow.run_with(&exec).expect("grouped run");
        assert_bit_equal(&grouped, &per_pair.report, &format!("{threads} threads"));
        let stats = simulate_stats(&grouped_flow);
        assert_eq!(
            stats.lookups(),
            per_pair_stats.lookups(),
            "{threads} threads"
        );
        assert_eq!(stats.misses, per_pair_stats.misses, "{threads} threads");
        assert_eq!(
            grouped_flow.cache().stats(Stage::McpatAccount),
            per_pair_flow.cache().stats(Stage::McpatAccount)
        );

        // A warm rerun finds every report and simulates nothing.
        let warm = grouped_flow.run_with(&exec).expect("warm run");
        assert_bit_equal(&warm, &grouped, "warm rerun");
        assert_eq!(simulate_stats(&grouped_flow).misses, stats.misses);
    }
}
