//! Group parity: every report of a fused [`System::run_group`] pass must be
//! **bit-for-bit identical** to that platform's own run — `==` on the whole
//! report and `to_bits` on the runtime — whatever the group's order, size or
//! mix of knobs. Sharing the stream/L1 prefix and the L2 back-ends is an
//! optimisation only; any drift in what a platform sees, or in the order
//! its stall time is summed, fails these tests.

use mss_exec::supervise::CancelToken;
use mss_gemsim::cache::CacheConfig;
use mss_gemsim::dram::RowBufferConfig;
use mss_gemsim::system::{Placement, System, SystemConfig};
use mss_gemsim::workload::Kernel;
use mss_gemsim::GemsimError;

/// Small sampling cap: parity is a per-access property, so a few thousand
/// references per thread reach every path (misses, write-backs,
/// prefetches, row hits) while keeping the debug-profile suite fast.
const SAMPLE_CAP: u64 = 3_000;

/// An L2 macro in one of the three cell technologies, with timing in the
/// ratios the NVSim layer gives them: STT reads about as fast as SRAM but
/// writes slowly, SOT writes fast.
fn l2(name: &str, capacity: u64, associativity: u32, tech: &str) -> CacheConfig {
    let (read, write, leak) = match tech {
        "sram" => (4.0e-9, 4.0e-9, 0.2),
        "stt" => (4.6e-9, 11.5e-9, 0.03),
        "sot" => (4.3e-9, 1.9e-9, 0.05),
        other => panic!("unknown cell technology {other}"),
    };
    CacheConfig {
        name: name.into(),
        capacity,
        associativity,
        line_bytes: 64,
        read_latency: read,
        write_latency: write,
        read_energy: 80e-12,
        write_energy: 95e-12,
        leakage_power: leak,
    }
}

/// The seven Fig. 12 platform shapes: the big L2 is replaced iso-capacity,
/// the LITTLE L2 iso-area (4× for STT, 1× for SOT). Order: Full-SRAM,
/// LITTLE-STT, big-STT, Full-STT, LITTLE-SOT, big-SOT, Full-SOT.
fn fig12_platforms() -> Vec<System> {
    let shapes = [
        ("sram", "sram"),
        ("sram", "stt"),
        ("stt", "sram"),
        ("stt", "stt"),
        ("sram", "sot"),
        ("sot", "sram"),
        ("sot", "sot"),
    ];
    shapes
        .iter()
        .map(|&(big, little)| {
            let mut c = SystemConfig::big_little_default();
            c.sample_accesses_per_thread = SAMPLE_CAP;
            c.clusters[0].l2 = l2("big.L2", 2 << 20, 16, big);
            let factor = if little == "stt" { 4 } else { 1 };
            c.clusters[1].l2 = l2("LITTLE.L2", (512 << 10) * factor, 8, little);
            System::new(c).unwrap()
        })
        .collect()
}

/// Asserts that the fused group equals each platform's own run.
fn assert_group_parity(systems: &[&System], kernel: &Kernel, seed: u64, placement: &Placement) {
    let grouped = System::run_group(systems, kernel, seed, placement, None).unwrap();
    assert_eq!(grouped.len(), systems.len());
    for (i, (system, report)) in systems.iter().zip(&grouped).enumerate() {
        let alone = system.run_placed(kernel, seed, placement).unwrap();
        assert_eq!(
            report, &alone,
            "{} @ {placement:?}: platform {i} drifted",
            kernel.name
        );
        assert_eq!(
            report.runtime_seconds.to_bits(),
            alone.runtime_seconds.to_bits(),
            "{}: platform {i} runtime bits",
            kernel.name
        );
    }
}

#[test]
fn every_kernel_matches_under_both_placements() {
    let platforms = fig12_platforms();
    let stt: Vec<&System> = platforms[..4].iter().collect();
    for kernel in Kernel::parsec_extended() {
        for placement in [Placement::AllClusters, Placement::Cluster("LITTLE".into())] {
            assert_group_parity(&stt, &kernel, 2024, &placement);
        }
    }
}

#[test]
fn fig12_platforms_match_in_given_and_permuted_order() {
    let platforms = fig12_platforms();
    let given: Vec<&System> = platforms.iter().collect();
    let permuted: Vec<&System> = [6, 2, 0, 5, 3, 1, 4]
        .iter()
        .map(|&i| &platforms[i])
        .collect();
    for kernel in [Kernel::bodytrack(), Kernel::streamcluster()] {
        assert_group_parity(&given, &kernel, 0xF1612, &Placement::AllClusters);
        assert_group_parity(&permuted, &kernel, 0x3, &Placement::AllClusters);
    }
    // A platform listed twice gets two identical reports.
    let twice = [&platforms[1], &platforms[3], &platforms[1]];
    assert_group_parity(&twice, &Kernel::canneal(), 7, &Placement::AllClusters);
}

#[test]
fn mismatched_prefixes_split_into_separate_passes() {
    let platforms = fig12_platforms();
    let mut small_l1 = platforms[1].config().clone();
    small_l1.clusters[1].l1d.capacity = 16 << 10;
    let mut other_cap = platforms[2].config().clone();
    other_cap.sample_accesses_per_thread = SAMPLE_CAP / 2;
    let mut fewer_cores = platforms[3].config().clone();
    fewer_cores.clusters[0].cores = 2;
    let variants: Vec<System> = [small_l1, other_cap, fewer_cores]
        .into_iter()
        .map(|c| System::new(c).unwrap())
        .collect();
    let group = [
        &platforms[0],
        &variants[0],
        &platforms[1],
        &variants[1],
        &variants[2],
        &platforms[3],
    ];
    for kernel in [Kernel::fluidanimate(), Kernel::x264()] {
        assert_group_parity(&group, &kernel, 11, &Placement::AllClusters);
        assert_group_parity(&group, &kernel, 11, &Placement::Cluster("big".into()));
    }
}

#[test]
fn memory_side_knobs_match_alone_and_mixed() {
    use mss_fault::{FaultModel, FaultPlan};
    use mss_gemsim::faultmem::FaultMemConfig;
    use mss_vaet::ecc::EccScheme;
    let platforms = fig12_platforms();
    let with = |i: usize, f: &dyn Fn(&mut SystemConfig)| {
        let mut c = platforms[i].config().clone();
        f(&mut c);
        System::new(c).unwrap()
    };
    let row_buffer = |c: &mut SystemConfig| c.row_buffer = Some(RowBufferConfig::lpddr_default());
    let prefetch = |c: &mut SystemConfig| c.l2_next_line_prefetch = true;
    let fault = |c: &mut SystemConfig| {
        let mut m = FaultModel::none();
        m.write_fail_rate = 0.002;
        m.read_disturb_rate = 0.0005;
        c.fault = Some(FaultMemConfig::new(
            FaultPlan::new(77, m).unwrap(),
            EccScheme::bch(2, 512),
        ));
    };
    let knobs: [&dyn Fn(&mut SystemConfig); 3] = [&row_buffer, &prefetch, &fault];
    let mixed: Vec<System> = knobs
        .iter()
        .flat_map(|knob| [with(0, knob), with(1, knob), with(3, knob)])
        .collect();
    let kernel = Kernel::streamcluster();
    // Each knob on its own: the knobbed platforms group with each other.
    for trio in mixed.chunks(3) {
        let group: Vec<&System> = trio.iter().collect();
        assert_group_parity(&group, &kernel, 5, &Placement::AllClusters);
    }
    // Every knob mixed with plain platforms in one group.
    let mut group: Vec<&System> = mixed.iter().collect();
    group.insert(4, &platforms[2]);
    group.push(&platforms[0]);
    assert_group_parity(&group, &kernel, 5, &Placement::AllClusters);
    assert_group_parity(
        &group,
        &Kernel::bodytrack(),
        9,
        &Placement::Cluster("LITTLE".into()),
    );
}

#[test]
fn cancelled_token_aborts_the_group() {
    let platforms = fig12_platforms();
    let group: Vec<&System> = platforms.iter().collect();
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(
        System::run_group(
            &group,
            &Kernel::bodytrack(),
            1,
            &Placement::AllClusters,
            Some(&token)
        ),
        Err(GemsimError::Cancelled)
    );
    // A live token changes nothing.
    let live = CancelToken::new();
    let reports = System::run_group(
        &group[..2],
        &Kernel::bodytrack(),
        1,
        &Placement::AllClusters,
        Some(&live),
    )
    .unwrap();
    assert_eq!(reports[1], group[1].run(&Kernel::bodytrack(), 1).unwrap());
}

#[test]
fn group_errors_match_the_single_platform_errors() {
    let platforms = fig12_platforms();
    let group: Vec<&System> = platforms.iter().collect();
    assert_eq!(
        System::run_group(&[], &Kernel::bodytrack(), 1, &Placement::AllClusters, None),
        Ok(Vec::new())
    );
    let mut bad = Kernel::swaptions();
    bad.threads = 0;
    assert_eq!(
        System::run_group(&group, &bad, 1, &Placement::AllClusters, None).unwrap_err(),
        group[0].run(&bad, 1).unwrap_err()
    );
    let mid = Placement::Cluster("mid".into());
    assert_eq!(
        System::run_group(&group, &Kernel::bodytrack(), 1, &mid, None).unwrap_err(),
        group[0]
            .run_placed(&Kernel::bodytrack(), 1, &mid)
            .unwrap_err()
    );
}
