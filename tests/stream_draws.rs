//! Exactness of bulk random draws and of the stream synthesis fed by them.
//!
//! `Xoshiro256PlusPlus::fill_u64` must return exactly the next outputs of
//! the generator and leave it where that many `next_u64` calls would, on
//! the SIMD lane path (hosts with AVX-512F) and on the scalar loop (every
//! other host, and every length below one lane chunk). gemsim's
//! `AccessStream` reads all of its draws from a buffer refilled by
//! `fill_u64`; it must still match `reference::NaiveStream`, which draws
//! one word at a time, access for access.

use great_mss::gemsim::reference::NaiveStream;
use great_mss::gemsim::workload::{AccessStream, Kernel};
use great_mss::units::rng::{Rng, Xoshiro256PlusPlus};

/// `B`: the draws one SIMD lane supplies per chunk.
const B: usize = Xoshiro256PlusPlus::FILL_LANE_DRAWS;
/// Draws per lane chunk, which is also the size of a stream's draw buffer.
const CHUNK: usize = Xoshiro256PlusPlus::FILL_LANES * B;

/// Fills `lens` one after another from one generator and checks every
/// word, and the generator state after each fill, against a twin that
/// calls `next_u64`.
fn check_fills(seed: u64, lens: &[usize]) {
    let mut bulk = Xoshiro256PlusPlus::seed_from_u64(seed);
    let mut one = bulk.clone();
    for &len in lens {
        let mut out = vec![0u64; len];
        bulk.fill_u64(&mut out);
        for (i, &word) in out.iter().enumerate() {
            assert_eq!(word, one.next_u64(), "seed {seed}, fill of {len}: word {i}");
        }
        assert_eq!(bulk, one, "seed {seed}: state after a fill of {len}");
    }
}

/// Lengths below one lane chunk run on the scalar loop on every host; on a
/// host without SIMD lanes the longest length does too.
#[test]
fn fill_u64_scalar_lengths_equal_next_u64() {
    for seed in [1, 0xD1CE] {
        for len in [0, 1, B - 1, B, B + 1, 3 * CHUNK + 5] {
            check_fills(seed, &[len]);
        }
        check_fills(seed, &[0, 1, B - 1, B, B + 1]);
    }
}

/// Whole lane chunks run on SIMD lanes, from any offset in the sequence.
#[test]
fn fill_u64_simd_lengths_equal_next_u64() {
    if !Xoshiro256PlusPlus::fill_u64_is_vectorized() {
        eprintln!("fill_u64 has no SIMD lane path on this host (needs AVX-512F): skipped");
        return;
    }
    for seed in [2, 0xBEEF] {
        check_fills(seed, &[CHUNK, 3 * CHUNK + 5]);
        // Chunks that start at odd offsets and follow a scalar tail.
        check_fills(seed, &[1, CHUNK, B + 1, 2 * CHUNK + 7, CHUNK]);
    }
}

/// Every access draws at least three words (write coin, far coin, then a
/// far distance, or a reuse coin and an address offset), so this many
/// accesses consume more than `4 · CHUNK` words: at least three refills
/// after the first fill of the stream's buffer.
const ACCESSES: usize = 4 * CHUNK / 3 + 1;

fn assert_stream_matches(kernel: &Kernel, tid: u32, seed: u64, accesses: usize) {
    let mut fast = AccessStream::new(kernel, tid, seed);
    let mut naive = NaiveStream::new(kernel, tid, seed);
    for i in 0..accesses {
        assert_eq!(
            fast.next_access(),
            naive.next_access(),
            "{} (mean reuse distance {}): tid {tid}, seed {seed}, access {i}",
            kernel.name,
            kernel.mean_reuse_distance
        );
    }
}

#[test]
fn access_stream_matches_naive_stream_for_every_kernel() {
    for kernel in Kernel::parsec_extended() {
        for tid in [0, 7] {
            for seed in [42, 0x5EED_0F57] {
                assert_stream_matches(&kernel, tid, seed, ACCESSES);
            }
        }
    }
}

/// `mean_reuse_distance = 1e6`: reuse runs hit the 4095-line cap (4096
/// draws each, half a buffer) and straddle refills. `mean_reuse_distance
/// = 1`: the geometric threshold is 2⁵³ + 1, every run stops at its first
/// draw, and a 64-bit `threshold << 11` would overflow.
#[test]
fn access_stream_matches_naive_stream_at_extreme_reuse_distances() {
    for mean_reuse_distance in [1e6, 1.0] {
        let kernel = Kernel {
            name: format!("bodytrack-reuse-{mean_reuse_distance}"),
            mean_reuse_distance,
            ..Kernel::bodytrack()
        };
        kernel.validate().unwrap();
        for tid in [0, 7] {
            assert_stream_matches(&kernel, tid, 9, ACCESSES);
        }
    }
}
