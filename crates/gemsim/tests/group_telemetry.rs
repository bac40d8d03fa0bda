//! Telemetry of fused passes: one `gemsim.run` span per pass, one
//! `gemsim.runs` count per platform report, and the
//! `gemsim.group.platforms` / `gemsim.group.backends` counters that show
//! how much a pass shared. One process, one `#[test]`: the global registry
//! is initialised exactly once.

use mss_gemsim::system::{Placement, System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_obs::Mode;

/// The count of the `gemsim.run` span in the registry's NDJSON report.
fn run_spans() -> u64 {
    mss_obs::report_ndjson()
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"span\"") && l.contains("\"path\":\"gemsim.run\""))
        .map(|l| {
            let count = l.split("\"count\":").nth(1).expect("span count");
            count[..count.find(',').expect("count ends")]
                .parse::<u64>()
                .expect("numeric count")
        })
        .sum()
}

#[test]
fn a_fused_pass_is_one_span_and_counts_what_it_shared() {
    assert!(
        mss_obs::init_with_mode(Mode::Metrics),
        "this test must own registry initialisation"
    );
    let base = {
        let mut c = SystemConfig::big_little_default();
        c.sample_accesses_per_thread = 2_000;
        c
    };
    // The four Fig. 12 STT shapes: one big-L2 geometry, two LITTLE ones.
    let mut little = base.clone();
    little.clusters[1].l2.capacity *= 4;
    let mut big = base.clone();
    big.clusters[0].l2.write_latency *= 3.0;
    let mut full = little.clone();
    full.clusters[0].l2.write_latency *= 3.0;
    let systems: Vec<System> = [base.clone(), little, big, full]
        .into_iter()
        .map(|c| System::new(c).unwrap())
        .collect();
    let group: Vec<&System> = systems.iter().collect();
    let k = Kernel::bodytrack();

    System::run_group(&group, &k, 1, &Placement::AllClusters, None).unwrap();
    assert_eq!(run_spans(), 1);
    assert_eq!(mss_obs::counter("gemsim.runs"), 4);
    assert_eq!(mss_obs::counter("gemsim.group.platforms"), 4);
    assert_eq!(mss_obs::counter("gemsim.group.backends"), 3);

    // A platform run alone is a group of one: one span, one back-end per
    // cluster.
    systems[0].run(&k, 1).unwrap();
    assert_eq!(run_spans(), 2);
    assert_eq!(mss_obs::counter("gemsim.runs"), 5);
    assert_eq!(mss_obs::counter("gemsim.group.platforms"), 5);
    assert_eq!(mss_obs::counter("gemsim.group.backends"), 5);

    // A mismatched L1 splits the group into two passes.
    let mut small_l1 = base;
    small_l1.clusters[0].l1d.capacity /= 2;
    let odd = System::new(small_l1).unwrap();
    System::run_group(&[&systems[0], &odd], &k, 1, &Placement::AllClusters, None).unwrap();
    assert_eq!(run_spans(), 4);
    assert_eq!(mss_obs::counter("gemsim.runs"), 7);
    assert_eq!(mss_obs::counter("gemsim.group.backends"), 9);
}
