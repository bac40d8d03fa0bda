//! Parity: the VAET Monte Carlo (`montecarlo::run_with`, which evaluates
//! only the variation fields each side of an access reads) is bit-identical
//! to the naive reference sampler (`reference::run`, a full stack draw per
//! bit and side) at every thread count — for healthy cards and for cards
//! whose ±4σ box fails to build, where both must fail alike.

use std::sync::OnceLock;

use great_mss::exec::ParallelConfig;
use great_mss::mtj::{MssStack, SotParams};
use great_mss::nvsim::config::{MemoryConfig, MemoryKind};
use great_mss::pdk::tech::TechNode;
use great_mss::units::rng::Variation;
use great_mss::units::stats::DistributionSummary;
use great_mss::vaet::context::VaetContext;
use great_mss::vaet::montecarlo::{run_with, MonteCarloOptions};
use great_mss::vaet::reference;
use great_mss::vaet::report::VaetReport;

const SEEDS: [u64; 3] = [0x7AB1E1, 1, 77];
const WORD_BITS: [Option<u32>; 3] = [None, Some(1), Some(64)];
const THREADS: [usize; 3] = [1, 2, 8];
const SAMPLES: usize = 48;
/// Three batches of 16 samples, so the thread count reorders the work.
const CHUNK: usize = 16;

fn stt(node: TechNode) -> &'static VaetContext {
    static C45: OnceLock<VaetContext> = OnceLock::new();
    static C65: OnceLock<VaetContext> = OnceLock::new();
    let cell = match node {
        TechNode::N45 => &C45,
        TechNode::N65 => &C65,
    };
    cell.get_or_init(|| VaetContext::standard(node).expect("STT context"))
}

fn sot(node: TechNode) -> &'static VaetContext {
    static C45: OnceLock<VaetContext> = OnceLock::new();
    static C65: OnceLock<VaetContext> = OnceLock::new();
    let cell = match node {
        TechNode::N45 => &C45,
        TechNode::N65 => &C65,
    };
    cell.get_or_init(|| {
        let stack = MssStack::builder().build().expect("stack");
        let config =
            MemoryConfig::new(1024 * 1024 / 8, 1024, 1, 1024, 1024, MemoryKind::Ram).expect("org");
        VaetContext::build_sot(node, stack, config, SotParams::default()).expect("SOT context")
    })
}

fn summary_bits(d: &DistributionSummary) -> [u64; 5] {
    [
        d.mean.to_bits(),
        d.std_dev.to_bits(),
        d.min.to_bits(),
        d.max.to_bits(),
        d.samples,
    ]
}

/// `==` on the report plus `to_bits` equality of every f64 in it.
fn assert_bit_equal(a: &VaetReport, b: &VaetReport, what: &str) {
    assert_eq!(a, b, "{what}");
    let nominal = |r: &VaetReport| {
        [
            r.nominal_write_latency,
            r.nominal_write_energy,
            r.nominal_read_latency,
            r.nominal_read_energy,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(nominal(a), nominal(b), "{what}: nominal bits");
    let dists = |r: &VaetReport| {
        [
            &r.write_latency,
            &r.write_energy,
            &r.read_latency,
            &r.read_energy,
        ]
        .map(summary_bits)
    };
    assert_eq!(dists(a), dists(b), "{what}: distribution bits");
}

/// Runs both samplers over the seed × word × thread grid; returns how many
/// grid points ended in a report (the rest ended in an equal error).
fn assert_parity(ctx: &VaetContext, label: &str) -> usize {
    let mut reports = 0;
    for seed in SEEDS {
        for word_bits in WORD_BITS {
            let opts = MonteCarloOptions {
                samples: SAMPLES,
                seed,
                word_bits,
            };
            let spec = reference::run(ctx, &opts, CHUNK);
            for threads in THREADS {
                let cfg = ParallelConfig::serial()
                    .with_threads(threads)
                    .with_chunk(CHUNK);
                let what = format!("{label} seed {seed:#x} word {word_bits:?} threads {threads}");
                match (&spec, run_with(ctx, &opts, &cfg)) {
                    (Ok(want), Ok(got)) => assert_bit_equal(want, &got, &what),
                    (Err(want), Err(got)) => {
                        assert_eq!(want.to_string(), got.to_string(), "{what}")
                    }
                    (want, got) => panic!("{what}: reference {want:?} vs montecarlo {got:?}"),
                }
            }
            reports += usize::from(spec.is_ok());
        }
    }
    reports
}

#[test]
fn stt_n45_matches_reference() {
    assert_parity(stt(TechNode::N45), "STT N45");
}

#[test]
fn stt_n65_matches_reference() {
    assert_parity(stt(TechNode::N65), "STT N65");
}

#[test]
fn sot_n45_matches_reference() {
    assert_parity(sot(TechNode::N45), "SOT N45");
}

#[test]
fn sot_n65_matches_reference() {
    assert_parity(sot(TechNode::N65), "SOT N65");
}

/// Thickness spreads whose ±4σ box leaves the buildable region: 4.5 %
/// (the +4σ corner loses perpendicular anisotropy, samples rarely do),
/// 20 % and 50 % (a −4σ film thinner than the 0.3 nm floor or negative).
#[test]
fn failing_corner_cards_match_reference() {
    let mut reports = 0;
    let mut errors = 0;
    for base in [stt(TechNode::N45), sot(TechNode::N45)] {
        for sigma in [0.045, 0.2, 0.5] {
            let mut ctx = base.clone();
            ctx.variation.mtj.thickness = Variation::relative(sigma);
            let ok = assert_parity(&ctx, &format!("{:?} thickness σ {sigma}", ctx.mechanism));
            reports += ok;
            errors += SEEDS.len() * WORD_BITS.len() - ok;
        }
    }
    assert!(reports > 0, "no failing-corner run produced a report");
    assert!(errors > 0, "no failing-corner run produced an error");
}
