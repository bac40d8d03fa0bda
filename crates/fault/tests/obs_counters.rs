//! Campaign counters reach the global observability registry. One process,
//! one `#[test]`: the registry is initialised exactly once, by this test,
//! so no sibling campaign can set it up from the environment first.

use mss_exec::ParallelConfig;
use mss_fault::{run_ecc_campaign, CampaignOptions, FaultModel, FaultPlan};
use mss_vaet::ecc::EccScheme;

#[test]
fn campaign_increments_obs_counters() {
    assert!(
        mss_obs::init_with_mode(mss_obs::Mode::Metrics),
        "this test must own registry initialisation"
    );
    let before = counter("fault.campaign.blocks");
    let mut m = FaultModel::none();
    m.write_fail_rate = 0.02;
    let p = FaultPlan::new(3, m).expect("valid model");
    let opts =
        CampaignOptions::new(300, EccScheme::bch(1, 64)).with_parallel(ParallelConfig::serial());
    let r = run_ecc_campaign(&p, &opts).expect("campaign");
    assert_eq!(counter("fault.campaign.blocks") - before, 300);
    assert!(counter("fault.campaign.injected") >= r.bit_errors);
}

fn counter(name: &str) -> u64 {
    mss_obs::counter(name)
}
