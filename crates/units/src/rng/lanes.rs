//! Exact bulk xoshiro256++ output across eight SIMD lanes.
//!
//! xoshiro256++'s state transition `s ↦ M·s` is linear over GF(2); only
//! the output scrambler `rotl(s0 + s3, 23) + s0` is not (Blackman & Vigna,
//! 2019, the basis of their `jump()`). So the draws `j·B … (j+1)·B − 1` of
//! a generator in state `s` are the first `B` draws of a generator in state
//! `M^{jB}·s`. Eight lanes started at `s, M^B·s, …, M^{7B}·s` therefore
//! produce the next `8·B` draws of one stream, lane `j` supplying positions
//! `j·B … (j+1)·B − 1`, and lane 7 ends in state `M^{8B}·s`, which is
//! where `8·B` calls of `next_u64` leave the generator.
//!
//! `M^B` is built once per process by running the scalar transition `B`
//! steps from each of the 256 unit states (column `k` of `M^B` is `M^B·e_k`)
//! and is kept as a nibble table: a jump is 64 lookups and XORs.
//!
//! The lanes run in AVX-512F registers, chosen at run time with
//! `is_x86_feature_detected!`. Every other host has no lane path:
//! [`fill`] returns 0 and the caller's scalar loop does all the work. No
//! other module of the workspace's libraries has `unsafe` code or uses
//! `std::arch`.

use std::sync::OnceLock;

/// SIMD lanes per chunk.
pub(super) const LANES: usize = 8;
/// Consecutive draws each lane supplies per chunk (`B`). A multiple of
/// [`LANES`], so each lane's run is a whole number of 8×8 transposes.
pub(super) const LANE_DRAWS: usize = 512;
/// Draws per chunk: the unit [`fill`] works in.
pub(super) const CHUNK: usize = LANES * LANE_DRAWS;

/// Fills the longest whole-chunk prefix of `out` with the next draws of the
/// generator in state `s` and advances `s` past them. Returns the length
/// filled: a multiple of [`CHUNK`], or 0 when this host has no lane path.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(super) fn fill(s: &mut [u64; 4], out: &mut [u64]) -> usize {
    let n = out.len() / CHUNK * CHUNK;
    if n == 0 || !available() {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `available()` returned true, so this CPU supports
        // AVX-512F, the only target feature `fill_chunks` enables.
        unsafe { avx512::fill_chunks(s, &mut out[..n], jump_table()) };
    }
    n
}

/// Index of the first word of `draws` with `(word >> 11) < threshold`, on
/// SIMD lanes where the host has them.
pub(super) fn first_below(draws: &[u64], threshold: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` returned true, so this CPU supports
        // AVX-512F, the only target feature `first_below` enables.
        return unsafe { avx512::first_below(draws, threshold) };
    }
    draws.iter().position(|&w| (w >> 11) < threshold)
}

/// True when this host runs [`fill`] on SIMD lanes.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `M^B` as a nibble table: entry `[n][x]` is `M^B` applied to the state
/// whose only set bits are nibble `n`'s bits of `x` (bit `b` of word `w`
/// is state bit `64·w + b`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct JumpTable(Box<[[[u64; 4]; 16]; 64]>);

impl JumpTable {
    fn build() -> Self {
        // Built on the heap: a 32 KiB array on the stack would stay
        // resident in the building thread's stack.
        let mut table: Box<[[[u64; 4]; 16]; 64]> = vec![[[0u64; 4]; 16]; 64]
            .into_boxed_slice()
            .try_into()
            .expect("64 nibble rows");
        for bit in 0..256 {
            let mut e = [0u64; 4];
            e[bit / 64] = 1 << (bit % 64);
            let mut g = super::Xoshiro256PlusPlus { s: e };
            for _ in 0..LANE_DRAWS {
                super::Rng::next_u64(&mut g);
            }
            let (nibble, b) = (bit / 4, bit % 4);
            for (x, entry) in table[nibble].iter_mut().enumerate() {
                if x >> b & 1 == 1 {
                    for (acc, col) in entry.iter_mut().zip(g.s) {
                        *acc ^= col;
                    }
                }
            }
        }
        Self(table)
    }
}

/// The process-wide jump table, built on first use.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn jump_table() -> &'static JumpTable {
    static TABLE: OnceLock<JumpTable> = OnceLock::new();
    TABLE.get_or_init(JumpTable::build)
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{JumpTable, CHUNK, LANES, LANE_DRAWS};

    /// One xoshiro256++ step on all eight lanes; returns each lane's output.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn step(v: &mut [__m512i; 4]) -> __m512i {
        let out = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(v[0], v[3])), v[0]);
        let t = _mm512_slli_epi64::<17>(v[1]);
        v[2] = _mm512_xor_si512(v[2], v[0]);
        v[3] = _mm512_xor_si512(v[3], v[1]);
        v[1] = _mm512_xor_si512(v[1], v[2]);
        v[0] = _mm512_xor_si512(v[0], v[3]);
        v[2] = _mm512_xor_si512(v[2], t);
        v[3] = _mm512_rol_epi64::<45>(v[3]);
        out
    }

    /// Transposes an 8×8 block of `u64`: `r[i]` holds step `i` of every
    /// lane, the result's row `j` holds lane `j`'s eight steps in order.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn transpose(r: [__m512i; 8]) -> [__m512i; 8] {
        // Pairs of rows interleaved within 128-bit blocks.
        let t = [
            _mm512_unpacklo_epi64(r[0], r[1]),
            _mm512_unpackhi_epi64(r[0], r[1]),
            _mm512_unpacklo_epi64(r[2], r[3]),
            _mm512_unpackhi_epi64(r[2], r[3]),
            _mm512_unpacklo_epi64(r[4], r[5]),
            _mm512_unpackhi_epi64(r[4], r[5]),
            _mm512_unpacklo_epi64(r[6], r[7]),
            _mm512_unpackhi_epi64(r[6], r[7]),
        ];
        // 0x88 takes 128-bit blocks 0 and 2 of each operand, 0xDD blocks
        // 1 and 3.
        let u = [
            _mm512_shuffle_i64x2::<0x88>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0xDD>(t[0], t[2]),
            _mm512_shuffle_i64x2::<0x88>(t[1], t[3]),
            _mm512_shuffle_i64x2::<0xDD>(t[1], t[3]),
            _mm512_shuffle_i64x2::<0x88>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0xDD>(t[4], t[6]),
            _mm512_shuffle_i64x2::<0x88>(t[5], t[7]),
            _mm512_shuffle_i64x2::<0xDD>(t[5], t[7]),
        ];
        [
            _mm512_shuffle_i64x2::<0x88>(u[0], u[4]),
            _mm512_shuffle_i64x2::<0x88>(u[2], u[6]),
            _mm512_shuffle_i64x2::<0x88>(u[1], u[5]),
            _mm512_shuffle_i64x2::<0x88>(u[3], u[7]),
            _mm512_shuffle_i64x2::<0xDD>(u[0], u[4]),
            _mm512_shuffle_i64x2::<0xDD>(u[2], u[6]),
            _mm512_shuffle_i64x2::<0xDD>(u[1], u[5]),
            _mm512_shuffle_i64x2::<0xDD>(u[3], u[7]),
        ]
    }

    /// `M^B·s`, the state `B` steps after `s`: one 32-byte table row
    /// XORed in per nibble of `s`, one accumulator per word of `s`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    pub(super) fn jump(table: &JumpTable, s: &[u64; 4]) -> [u64; 4] {
        let mut acc = [_mm256_setzero_si256(); 4];
        for (w, (&word, acc)) in s.iter().zip(&mut acc).enumerate() {
            for k in 0..16 {
                let row = &table.0[16 * w + k][(word >> (4 * k) & 15) as usize];
                // SAFETY: `row` is four initialized `u64`s, exactly the 32
                // bytes the load reads; `loadu` needs no alignment.
                let row = unsafe { _mm256_loadu_si256(row.as_ptr().cast()) };
                *acc = _mm256_xor_si256(*acc, row);
            }
        }
        let sum = _mm256_xor_si256(
            _mm256_xor_si256(acc[0], acc[1]),
            _mm256_xor_si256(acc[2], acc[3]),
        );
        [
            _mm256_extract_epi64::<0>(sum) as u64,
            _mm256_extract_epi64::<1>(sum) as u64,
            _mm256_extract_epi64::<2>(sum) as u64,
            _mm256_extract_epi64::<3>(sum) as u64,
        ]
    }

    /// Lane 7 of `v`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn last_lane(v: __m512i) -> u64 {
        _mm256_extract_epi64::<3>(_mm512_extracti64x4_epi64::<1>(v)) as u64
    }

    /// Index of the first word of `draws` with `(word >> 11) < threshold`.
    #[target_feature(enable = "avx512f")]
    pub(super) fn first_below(draws: &[u64], threshold: u64) -> Option<usize> {
        let threshold_v = _mm512_set1_epi64(threshold as i64);
        let below = |block: &[u64; 8]| {
            // SAFETY: `block` is eight initialized `u64`s, exactly the 64
            // bytes the load reads; `loadu` needs no alignment.
            let words = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
            _mm512_cmplt_epu64_mask(_mm512_srli_epi64::<11>(words), threshold_v)
        };
        let (blocks, tail) = draws.as_chunks::<8>();
        // Four blocks per branch: geometric runs are tens of draws long.
        let mut quads = blocks.chunks_exact(4);
        let mut base = 0;
        for quad in &mut quads {
            let hits = below(&quad[0]) as u32
                | (below(&quad[1]) as u32) << 8
                | (below(&quad[2]) as u32) << 16
                | (below(&quad[3]) as u32) << 24;
            if hits != 0 {
                return Some(base + hits.trailing_zeros() as usize);
            }
            base += 32;
        }
        for block in quads.remainder() {
            let hits = below(block);
            if hits != 0 {
                return Some(base + hits.trailing_zeros() as usize);
            }
            base += 8;
        }
        tail.iter()
            .position(|&w| (w >> 11) < threshold)
            .map(|k| base + k)
    }

    /// Fills `out`, whose length is a multiple of [`CHUNK`], with the next
    /// draws of the generator in state `s` and advances `s` past them.
    #[target_feature(enable = "avx512f")]
    pub(super) fn fill_chunks(s: &mut [u64; 4], out: &mut [u64], table: &JumpTable) {
        for chunk in out.chunks_exact_mut(CHUNK) {
            // Lane j starts at M^{jB}·s.
            let mut starts = [*s; LANES];
            for j in 1..LANES {
                starts[j] = jump(table, &starts[j - 1]);
            }
            let mut v: [__m512i; 4] = std::array::from_fn(|w| {
                let word = starts.map(|start| start[w] as i64);
                _mm512_setr_epi64(
                    word[0], word[1], word[2], word[3], word[4], word[5], word[6], word[7],
                )
            });
            for i in (0..LANE_DRAWS).step_by(8) {
                let mut r = [_mm512_setzero_si512(); 8];
                for ri in &mut r {
                    *ri = step(&mut v);
                }
                for (j, row) in transpose(r).into_iter().enumerate() {
                    let dst = &mut chunk[j * LANE_DRAWS + i..][..8];
                    // SAFETY: `dst` is eight initialized `u64`s, exactly the
                    // 64 bytes the store writes; `storeu` needs no alignment.
                    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), row) };
                }
            }
            // Lane 7 ends at M^{8B}·s.
            *s = v.map(|w| last_lane(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, Xoshiro256PlusPlus};

    /// `M^B·s` by definition: the XOR of the table's single-bit columns
    /// over the set bits of `s`.
    fn jump_by_columns(table: &JumpTable, s: &[u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for bit in 0..256 {
            if s[bit / 64] >> (bit % 64) & 1 == 1 {
                let column = table.0[bit / 4][1 << (bit % 4)];
                for (o, c) in out.iter_mut().zip(column) {
                    *o ^= c;
                }
            }
        }
        out
    }

    /// The nibble table is linear in its index and its jump equals
    /// `LANE_DRAWS` scalar steps from any state, on the SIMD path too.
    #[test]
    fn jump_matches_lane_draws_scalar_steps() {
        let table = jump_table();
        for row in table.0.iter() {
            assert_eq!(row[0], [0; 4]);
            for x in 1..16usize {
                let low = x & x.wrapping_neg();
                let mut sum = row[low];
                for (s, b) in sum.iter_mut().zip(row[x ^ low]) {
                    *s ^= b;
                }
                assert_eq!(row[x], sum, "nibble value {x}");
            }
        }
        for seed in 0..16 {
            let mut g = Xoshiro256PlusPlus::seed_from_u64(seed);
            let start = g.s;
            for _ in 0..LANE_DRAWS {
                g.next_u64();
            }
            assert_eq!(jump_by_columns(table, &start), g.s, "seed {seed}");
            #[cfg(target_arch = "x86_64")]
            if available() {
                // SAFETY: `available()` returned true: the CPU has AVX-512F.
                let simd = unsafe { avx512::jump(table, &start) };
                assert_eq!(simd, g.s, "seed {seed}");
            }
        }
    }

    /// The lane scan agrees with a scalar `position` at every length (whole
    /// 32-word groups, 8-word blocks and tails) and at the extreme
    /// thresholds, including 2⁵³ + 1 and `u64::MAX`.
    #[test]
    fn first_below_matches_scalar_position() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut draws = vec![0u64; 100];
        for threshold in [0, 1, (1 << 53) / 40, (1 << 53) + 1, u64::MAX] {
            for len in 0..draws.len() {
                g.fill_u64(&mut draws);
                let draws = &draws[..len];
                let want = draws.iter().position(|&w| (w >> 11) < threshold);
                assert_eq!(first_below(draws, threshold), want, "len {len}");
            }
        }
    }

    #[test]
    fn fill_is_exact_or_declines() {
        let mut g = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut reference = g.clone();
        let mut out = vec![0u64; 2 * CHUNK + 7];
        let n = fill(&mut g.s, &mut out);
        assert_eq!(n, if available() { 2 * CHUNK } else { 0 });
        for (i, &v) in out[..n].iter().enumerate() {
            assert_eq!(v, reference.next_u64(), "draw {i}");
        }
        assert_eq!(g, reference);
    }
}
