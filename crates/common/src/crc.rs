//! CRC32 (IEEE 802.3 polynomial), implemented from scratch: a
//! carry-less-multiply folding kernel where the CPU has one, slice-by-8
//! tables everywhere else. Both compute the same function bit for bit.
//!
//! Used to frame records in the KV store's write-ahead log, to protect
//! SSTable blocks, and as the trailer checksum on every TCP RPC frame —
//! the same role CRC32C plays in RocksDB. The RPC data plane pushes
//! every payload byte through this function twice (once on the sending
//! side, once on the receiving side), so its speed bounds TCP bandwidth:
//! the table kernel manages roughly 1.4 GB/s on the reference box
//! (the folding kernel ~20 GB/s), which made a 1 MiB `pwrite` spend a
//! third of its time here.
//!
//! * **Folding kernel** (`x86_64` with `pclmulqdq` + `sse4.1`, detected
//!   at run time; inputs of at least 64 bytes): folds 64 bytes
//!   per iteration with four independent carry-less multiplies, then
//!   reduces 512 → 128 → 64 → 32 bits (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009; the constants are the bit-reflected ones zlib's
//!   `crc32_simd` uses for this polynomial).
//! * **Table kernel** (short inputs, the sub-16-byte tail of long ones,
//!   other targets, Miri): slice-by-8 — eight bytes per iteration
//!   through eight precomputed tables whose lookups are independent.
//!   The tables are built in a `const` block, so the flat 8 KiB array
//!   lands in rodata with no lazy init. It is also the oracle the tests
//!   hold the folding kernel to.

use std::sync::atomic::{AtomicBool, Ordering};

/// Shortest input handed to the folding kernel: it consumes one whole
/// 64-byte block before its loop, and below that the table kernel is
/// as fast.
const SIMD_MIN: usize = 64;

/// Test hook state: see [`force_table_kernel`].
static FORCE_TABLE: AtomicBool = AtomicBool::new(false);

/// Eight 256-entry tables for the reflected IEEE polynomial
/// `0xEDB88320`. `TABLES[0]` is the classic bytewise table;
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which is what lets eight adjacent input bytes be looked up
/// independently and combined with XOR.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB88320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            t[n][i] = (t[n - 1][i] >> 8) ^ t[0][(t[n - 1][i] & 0xFF) as usize];
            i += 1;
        }
        n += 1;
    }
    t
};

/// Compute the CRC32 of `data` (initial value 0).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continue a CRC computation: `crc` is the value returned by a
/// previous call for the preceding bytes. Incremental use is exact —
/// feeding a buffer in arbitrary splits yields the same value as one
/// shot, which is what lets the TCP transport checksum a vectored
/// frame (header + borrowed payload segments) without assembling it.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= SIMD_MIN
        && !FORCE_TABLE.load(Ordering::Relaxed)
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = data.split_at(data.len() & !15);
        // SAFETY: both CPU features `fold_pclmul` is compiled for were
        // detected on this machine just above, and `blocks` is at least
        // 64 bytes long and a multiple of 16, as it requires.
        let state = unsafe { fold_pclmul(!crc, blocks) };
        return !table_update(state, tail);
    }
    crc32_update_table(crc, data)
}

/// [`crc32_update`] on the portable table kernel whatever the CPU —
/// the reference the folding kernel is tested and benchmarked against.
pub fn crc32_update_table(crc: u32, data: &[u8]) -> u32 {
    !table_update(!crc, data)
}

/// Make every later [`crc32_update`] in this process use the table
/// kernel (`true`) or choose by CPU again (`false`). For tests that
/// need data *written* by the table kernel — on-disk formats must read
/// back identically under either. Results never differ, so flipping it
/// under concurrent callers is harmless.
#[doc(hidden)]
pub fn force_table_kernel(on: bool) {
    FORCE_TABLE.store(on, Ordering::Relaxed);
}

/// Slice-by-8 over the raw (pre-inverted) register value.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        // Fold the current CRC into the first four bytes, then look all
        // eight bytes up in their position-shifted tables. The eight
        // loads are independent — no serial shift chain.
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][ch[4] as usize]
            ^ TABLES[2][ch[5] as usize]
            ^ TABLES[1][ch[6] as usize]
            ^ TABLES[0][ch[7] as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The folding kernel over the raw (pre-inverted) register value:
/// returns the register after `data`, which the caller may carry into
/// [`table_update`] for a tail.
///
/// Four 128-bit lanes hold the running remainder of the last 64 bytes;
/// each step multiplies every lane by x^512 mod P (carry-less, low and
/// high halves separately with `k1`/`k2`) and XORs in the next 64 input
/// bytes, so the four multiplies per step are independent. The lanes
/// are then folded into one with x^128 mod P (`k3`/`k4`), remaining
/// 16-byte blocks are folded the same way, and 128 bits are reduced to
/// 32 by one more fold (`k5`) and a Barrett reduction (`P`, `µ`). All
/// constants are for the bit-reflected IEEE polynomial, so bytes are
/// consumed in memory order with no shuffles.
///
/// # Safety
///
/// The CPU must support `pclmulqdq` and `sse4.1`. `data.len()` must be
/// at least 64 and a multiple of 16 (checked by assertion — the loads
/// below stay in bounds only then).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
// SAFETY: unsafe to call only because of `target_feature` — see the
// `# Safety` section above for what the one caller guarantees.
unsafe fn fold_pclmul(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    assert!(data.len() >= 64 && data.len().is_multiple_of(16));

    let load = |block: &[u8]| {
        assert!(block.len() == 16);
        // SAFETY: `block` is 16 readable bytes (asserted) and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    };
    // `x` times x^(128·lanes) mod P — the halves multiplied apart —
    // plus the block that many lanes further on.
    let fold = |x: __m128i, k: __m128i, with: __m128i| {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), with)
    };

    let (first, rest) = data.split_at(64);
    let mut x1 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32));
    let mut x2 = load(&first[16..32]);
    let mut x3 = load(&first[32..48]);
    let mut x4 = load(&first[48..]);

    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut quads = rest.chunks_exact(64);
    for q in &mut quads {
        x1 = fold(x1, k1k2, load(&q[..16]));
        x2 = fold(x2, k1k2, load(&q[16..32]));
        x3 = fold(x3, k1k2, load(&q[32..48]));
        x4 = fold(x4, k1k2, load(&q[48..]));
    }

    let k3k4 = _mm_set_epi64x(K4, K3);
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    for block in quads.remainder().chunks_exact(16) {
        x1 = fold(x1, k3k4, load(block));
    }

    // 128 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    let x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_clmulepi64_si128(x1, _mm_set_epi64x(0, K5), 0x00);
    x1 = _mm_xor_si128(x1, x2);

    // Barrett reduction, 64 → 32 bits.
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let mut x2 = _mm_and_si128(x1, low32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x10);
    x2 = _mm_and_si128(x2, low32);
    x2 = _mm_clmulepi64_si128(x2, poly_mu, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    _mm_extract_epi32(x1, 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original bytewise loop, kept as the cross-check reference
    /// for the slice-by-8 implementation.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Both kernels through their public entry points: the table
    /// kernel always, and whatever `crc32_update` picks on this CPU
    /// (the folding kernel where it exists — `folding_kernel_runs_here`
    /// says whether it did).
    fn both(data: &[u8]) -> [u32; 2] {
        [crc32_update_table(0, data), crc32(data)]
    }

    #[test]
    fn folding_kernel_runs_here() {
        // Not an assertion about the build machine, only a visible
        // record of which kernel the equivalence tests below compared.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        let simd = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let simd = false;
        println!("crc32 folding kernel available: {simd}");
    }

    #[test]
    fn reference_vectors() {
        // Values from zlib's crc32, an independent implementation.
        // The first five are shorter than SIMD_MIN (table kernel on any
        // CPU); the rest are long enough for the folding kernel.
        let quad: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) % 256) as u8)
            .collect();
        let pangrams = b"The quick brown fox jumps over the lazy dog".repeat(3);
        let cases: [(&[u8], u32); 12] = [
            (b"123456789", 0xCBF43926), // the canonical check value
            (b"", 0),
            (b"The quick brown fox jumps over the lazy dog", 0x414FA339),
            (&[0u8; 32], 0x190A55AD),
            (&[0xFFu8; 32], 0xFF6CAB0B),
            (&[0u8; 64], 0x758D6336),
            (&[0xFFu8; 80], 0x85C190EA),
            (&(0..=255u8).collect::<Vec<_>>(), 0x29058C73),
            (&pangrams, 0xD99691F3),
            (&quad, 0x06BEAFD4),
            (&quad[3..1000], 0x8E5426ED),
            (&vec![0x5Au8; 1 << 20], 0x8D02798E),
        ];
        for (data, want) in cases {
            if cfg!(miri) && data.len() > 4096 {
                continue; // minutes under the interpreter
            }
            assert_eq!(both(data), [want; 2], "{} bytes", data.len());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // table vs table there, and 16k calls
    fn kernels_agree_on_every_length_and_alignment() {
        // Lengths 0..=1024 cross the SIMD threshold, every count of
        // whole 64-byte blocks up to 16, every count of trailing
        // 16-byte blocks, and every table-kernel tail; the 16 start
        // offsets move the unaligned loads across every alignment.
        let data: Vec<u8> = (0..1024 + 16u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &data[start..start + len];
                let [table, live] = both(s);
                assert_eq!(table, live, "start {start} len {len}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // table vs table there, and 13 MB of input
    fn kernels_agree_on_random_splits() {
        // A buffer fed through `crc32_update` in seeded random pieces —
        // some below the threshold, some above — must equal the table
        // kernel's one-shot value: the carried register is the whole
        // state, whichever kernel produced it.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |m: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m as u64) as usize
        };
        let data: Vec<u8> = (0..64 * 1024).map(|_| rand(256) as u8).collect();
        let want = crc32_update_table(0, &data);
        for _ in 0..200 {
            let mut crc = 0;
            let mut rest = &data[..];
            while !rest.is_empty() {
                let max = if rand(2) == 0 { 100 } else { 5000 };
                let (part, tail) = rest.split_at((1 + rand(max)).min(rest.len()));
                crc = crc32_update(crc, part);
                rest = tail;
            }
            assert_eq!(crc, want);
        }
    }

    #[test]
    fn forcing_the_table_kernel_changes_nothing() {
        let data = vec![0xC3u8; 4096];
        let live = crc32(&data);
        force_table_kernel(true);
        let forced = crc32(&data);
        force_table_kernel(false);
        assert_eq!(live, forced);
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_all_lengths() {
        // Every length 0..=64 plus some larger ones, so every
        // remainder path of the 8-byte main loop is exercised.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
        for len in (0..=64).chain([255, 1023, 4096]) {
            assert_eq!(
                crc32_update_table(0, &data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Unaligned starts too: `chunks_exact` begins at the slice
        // head, so the table math must hold regardless of alignment.
        for start in 1..9 {
            assert_eq!(
                crc32_update_table(0, &data[start..]),
                crc32_bytewise(&data[start..]),
                "start {start}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        // Arbitrary split sizes, including splits inside an 8-byte
        // block (the incremental state must not assume alignment).
        for chunk in [1usize, 3, 7, 8, 13, 64] {
            let mut c = 0;
            for part in data.chunks(chunk) {
                c = crc32_update(c, part);
            }
            assert_eq!(whole, c, "chunk size {chunk}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xAAu8; 256];
        let before = crc32(&data);
        data[100] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }
}
