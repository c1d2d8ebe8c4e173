//! CRC32 (IEEE 802.3 polynomial), implemented from scratch: three
//! kernels that compute the same function bit for bit — two
//! carry-less-multiply folding kernels where the CPU has the
//! instructions, slice-by-8 tables everywhere else.
//!
//! Used to frame records in the KV store's write-ahead log, to protect
//! SSTable blocks, and as the trailer checksum on every TCP RPC frame —
//! the same role CRC32C plays in RocksDB. The RPC data plane pushes
//! every payload byte through this function twice (once on the sending
//! side, once on the receiving side), and a daemon's chunk path shares
//! its CPU with everything else the daemon does, so the kernel's speed
//! is a share of what every MiB costs there. On the reference box the
//! table kernel manages about 1.4 GiB/s, the 128-bit folding kernel
//! about 23 GiB/s and the 512-bit one 65–80 GiB/s (EXPERIMENTS.md
//! "PR 37").
//!
//! * **512-bit folding kernel** (`x86_64` with `vpclmulqdq` + `avx512f`,
//!   detected at run time): four zmm accumulators — sixteen 128-bit
//!   lanes — take 256 bytes per step, every lane multiplied by x^2048
//!   mod P. x^512 mod P then collapses them into one zmm, which also
//!   folds in any whole 64-byte blocks left; its four 128-bit lanes go
//!   to the shared tail.
//! * **128-bit folding kernel** (`pclmulqdq` + `sse4.1`): four xmm lanes
//!   take 64 bytes per step, every lane multiplied by x^512 mod P, then
//!   go to the shared tail.
//! * **The shared tail** folds four lanes into one with x^128 mod P,
//!   then any whole 16-byte blocks left the same way, and reduces 128 →
//!   64 → 32 bits with x^64 mod P and a Barrett reduction (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel 2009).
//! * **Table kernel** (short inputs, the sub-16-byte tail of long ones,
//!   other targets, Miri): slice-by-8 — eight bytes per iteration
//!   through eight precomputed tables whose lookups are independent.
//!   The tables are built in a `const` block, so the flat 8 KiB array
//!   lands in rodata with no lazy init. It is also the oracle the tests
//!   hold the folding kernels to.
//!
//! **Dispatch.** [`crc32_update`] splits its input into a run of whole
//! 16-byte blocks and a tail of fewer than 16 bytes. The run goes to
//! the 512-bit kernel when it is at least `FOLD512_MIN` (512) bytes and
//! the CPU has that kernel, otherwise to the 128-bit kernel when it is
//! at least `FOLD128_MIN` (64) bytes, otherwise — with the tail — to
//! the tables. A folding kernel hands its register on to the tables for
//! the tail. The thresholds are constants: below them a kernel's fixed
//! cost (its first loads, the collapse, the reduction) is not repaid.
//!
//! **Constants.** Every folding constant is bit-reflected, so bytes are
//! consumed in memory order with no shuffles. A fold by D bits
//! multiplies a lane's low half by reflect(x^(D+32) mod P) << 1 and its
//! high half by reflect(x^(D−32) mod P) << 1, for D = 2048 (the 512-bit
//! main loop), 512 (the 128-bit main loop and the 512-bit collapse) and
//! 128 (the lane fold); the 128 → 64-bit step uses the D = 32 low
//! constant, reflect(x^64 mod P) << 1, and the Barrett step uses P and
//! µ = floor(x^64 / P), each reflected over its 33 bits.
//! `constants_follow_from_the_polynomial` recomputes every one of them
//! from P.

use std::sync::atomic::{AtomicU8, Ordering};

/// Shortest run of whole 16-byte blocks handed to the 128-bit kernel: it
/// consumes one whole 64-byte block before its loop.
const FOLD128_MIN: usize = 64;

/// Shortest run of whole 16-byte blocks handed to the 512-bit kernel. It
/// needs 256 bytes for its first loads; below 512 its collapse and the
/// zmm set-up are not repaid against the 128-bit kernel.
const FOLD512_MIN: usize = 512;

/// One CRC32 implementation, named by the widest kernel it dispatches
/// to: `Fold512` still sends runs shorter than 512 bytes to the
/// 128-bit kernel, and every kernel sends sub-16-byte tails to the
/// tables. A kernel the CPU does not have is never run: it is clamped to
/// the widest the CPU has.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Slice-by-8 tables, on every CPU: the reference.
    Table,
    /// 128-bit carry-less multiply (`pclmulqdq` + `sse4.1`).
    Fold128,
    /// 512-bit carry-less multiply (`vpclmulqdq` + `avx512f`).
    Fold512,
}

/// Test hook state: the widest kernel [`crc32_update`] may use (see
/// [`use_kernel`]), as a [`Kernel`] discriminant.
static CEILING: AtomicU8 = AtomicU8::new(Kernel::Fold512 as u8);

impl Kernel {
    /// Every kernel this CPU runs, the table kernel first.
    pub fn available() -> Vec<Kernel> {
        let widest = Kernel::widest();
        [Kernel::Table, Kernel::Fold128, Kernel::Fold512]
            .into_iter()
            .filter(|&k| k <= widest)
            .collect()
    }

    /// The widest kernel this CPU has.
    fn widest() -> Kernel {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return if std::arch::is_x86_feature_detected!("vpclmulqdq")
                && std::arch::is_x86_feature_detected!("avx512f")
            {
                Kernel::Fold512
            } else {
                Kernel::Fold128
            };
        }
        Kernel::Table
    }

    /// [`crc32_update`] dispatching to at most this kernel.
    pub fn update(self, crc: u32, data: &[u8]) -> u32 {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if data.len() >= FOLD128_MIN && self > Kernel::Table {
            let (blocks, tail) = data.split_at(data.len() & !15);
            let state = match self.min(Kernel::widest()) {
                Kernel::Fold512 if blocks.len() >= FOLD512_MIN => {
                    // SAFETY: `widest` detected every CPU feature
                    // `fold512` is compiled for, and `blocks` is a
                    // multiple of 16 bytes and at least FOLD512_MIN
                    // (≥ 256) long, as it requires.
                    unsafe { clmul::fold512(!crc, blocks) }
                }
                Kernel::Fold512 | Kernel::Fold128 => {
                    // SAFETY: `widest` detected both CPU features
                    // `fold128` is compiled for, and `blocks` is a
                    // multiple of 16 bytes and at least 64 long (the
                    // input is), as it requires.
                    unsafe { clmul::fold128(!crc, blocks) }
                }
                Kernel::Table => return !table_update(!crc, data),
            };
            return !table_update(state, tail);
        }
        !table_update(!crc, data)
    }
}

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
/// shot, whichever kernels the pieces went to, which is what lets the
/// TCP transport checksum a vectored frame (header + borrowed payload
/// segments) without assembling it.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let kernel = match CEILING.load(Ordering::Relaxed) {
        0 => Kernel::Table,
        1 => Kernel::Fold128,
        _ => Kernel::Fold512,
    };
    kernel.update(crc, data)
}

/// Make every later [`crc32_update`] in this process dispatch to at
/// most `kernel` (`Kernel::Fold512`, the default, lets the CPU decide).
/// For tests that need data *written* by one kernel and read by another
/// — on-disk formats must read back identically under any. Results
/// never differ, so switching it under concurrent callers is harmless.
#[doc(hidden)]
pub fn use_kernel(kernel: Kernel) {
    CEILING.store(kernel as u8, Ordering::Relaxed);
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

/// The folding kernels and the tail they share. Each kernel takes the
/// raw (pre-inverted) register value and returns the register after its
/// blocks, which the caller may carry into [`table_update`] for a tail.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::*;

    /// `(low, high)` halves' multipliers of a fold by 2048 bits, by 512
    /// and by 128 (module docs, "Constants").
    pub(super) const K2048: (i64, i64) = (0x1_1542_778a, 0x1_322d_1430);
    pub(super) const K512: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    pub(super) const K128: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// The 128 → 64-bit step's multiplier, reflect(x^64 mod P) << 1.
    pub(super) const K64: i64 = 0x1_63cd_6124;
    /// P and µ = floor(x^64 / P), reflected: the Barrett reduction.
    pub(super) const POLY: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// One fold constant pair as the lanes' multiplier.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn pair((low, high): (i64, i64)) -> __m128i {
        _mm_set_epi64x(high, low)
    }

    /// A 16-byte block as a lane.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() == 16);
        // SAFETY: `block` is 16 readable bytes (asserted) and `loadu`
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` times the fold constant `k` — the halves multiplied apart —
    /// plus the lane `with` that the fold lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(x: __m128i, k: __m128i, with: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), with)
    }

    /// The 128-bit kernel. Four 128-bit lanes hold the running remainder
    /// of the last 64 bytes; each step multiplies every lane by x^512
    /// mod P and XORs in the next 64 input bytes, so the four multiplies
    /// per step are independent.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`. `data.len()` must
    /// be at least 64 and a multiple of 16 (checked by assertion — the
    /// loads below stay in bounds only then).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    // SAFETY: unsafe to call only because of `target_feature` — see the
    // `# Safety` section above for what the one caller guarantees.
    pub(super) unsafe fn fold128(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len().is_multiple_of(16));
        let (first, rest) = data.split_at(64);
        let mut x1 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&first[16..32]);
        let mut x3 = load(&first[32..48]);
        let mut x4 = load(&first[48..]);

        let k = pair(K512);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            x1 = fold(x1, k, load(&q[..16]));
            x2 = fold(x2, k, load(&q[16..32]));
            x3 = fold(x3, k, load(&q[32..48]));
            x4 = fold(x4, k, load(&q[48..]));
        }
        reduce([x1, x2, x3, x4], quads.remainder())
    }

    /// The 512-bit kernel. Four zmm accumulators — sixteen 128-bit
    /// lanes — hold the running remainder of the last 256 bytes; each
    /// step multiplies every lane by x^2048 mod P and XORs in the next
    /// 256 input bytes. x^512 mod P then collapses the four accumulators
    /// into one (each lane lands on the same lane 64 bytes on), which
    /// folds in whatever whole 64-byte blocks are left the same way; its
    /// four lanes are the last 64 bytes' remainder, the shared tail's
    /// input.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`, `vpclmulqdq`, `pclmulqdq` and
    /// `sse4.1`. `data.len()` must be at least 256 and a multiple of 16
    /// (checked by assertion — the loads below stay in bounds only then).
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "pclmulqdq",
        enable = "sse4.1"
    )]
    // SAFETY: unsafe to call only because of `target_feature` — see the
    // `# Safety` section above for what the one caller guarantees.
    pub(super) unsafe fn fold512(crc: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 256 && data.len().is_multiple_of(16));
        let load_zmm = |block: &[u8]| {
            assert!(block.len() == 64);
            // SAFETY: `block` is 64 readable bytes (asserted) and
            // `loadu` has no alignment requirement.
            unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
        };
        let fold_zmm = |x: __m512i, k: __m512i, with: __m512i| {
            let lo = _mm512_clmulepi64_epi128::<0x00>(x, k);
            let hi = _mm512_clmulepi64_epi128::<0x11>(x, k);
            _mm512_xor_si512(_mm512_xor_si512(lo, hi), with)
        };

        let (first, rest) = data.split_at(256);
        let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(crc as i32));
        let mut x1 = _mm512_xor_si512(load_zmm(&first[..64]), seed);
        let mut x2 = load_zmm(&first[64..128]);
        let mut x3 = load_zmm(&first[128..192]);
        let mut x4 = load_zmm(&first[192..]);

        let k = _mm512_broadcast_i32x4(pair(K2048));
        let mut steps = rest.chunks_exact(256);
        for s in &mut steps {
            x1 = fold_zmm(x1, k, load_zmm(&s[..64]));
            x2 = fold_zmm(x2, k, load_zmm(&s[64..128]));
            x3 = fold_zmm(x3, k, load_zmm(&s[128..192]));
            x4 = fold_zmm(x4, k, load_zmm(&s[192..]));
        }

        let k = _mm512_broadcast_i32x4(pair(K512));
        x1 = fold_zmm(x1, k, x2);
        x1 = fold_zmm(x1, k, x3);
        x1 = fold_zmm(x1, k, x4);
        let mut quads = steps.remainder().chunks_exact(64);
        for q in &mut quads {
            x1 = fold_zmm(x1, k, load_zmm(q));
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(x1),
            _mm512_extracti32x4_epi32::<1>(x1),
            _mm512_extracti32x4_epi32::<2>(x1),
            _mm512_extracti32x4_epi32::<3>(x1),
        ];
        reduce(lanes, quads.remainder())
    }

    /// The tail both kernels share: fold `lanes` — the last 64 bytes'
    /// remainder, earliest lane first — into one with x^128 mod P, fold
    /// in `blocks` (whole 16-byte blocks, fewer than four) the same way,
    /// then reduce 128 → 64 bits with x^64 mod P and 64 → 32 by Barrett.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn reduce(lanes: [__m128i; 4], blocks: &[u8]) -> u32 {
        let k = pair(K128);
        let [mut x1, x2, x3, x4] = lanes;
        x1 = fold(x1, k, x2);
        x1 = fold(x1, k, x3);
        x1 = fold(x1, k, x4);
        for block in blocks.chunks_exact(16) {
            x1 = fold(x1, k, load(block));
        }

        // 128 → 64 bits.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128(x1, k, 0x10);
        x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
        let x2 = _mm_srli_si128(x1, 4);
        x1 = _mm_and_si128(x1, low32);
        x1 = _mm_clmulepi64_si128(x1, _mm_set_epi64x(0, K64), 0x00);
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

    #[test]
    fn folding_kernel_runs_here() {
        // Not an assertion about the build machine, only a visible
        // record of which kernels the equivalence tests below compared
        // with the table kernel — and of a kernel they could not.
        let here = Kernel::available();
        println!("crc32 kernels on this CPU: {here:?}");
        if !here.contains(&Kernel::Fold512) {
            println!("crc32: no vpclmulqdq + avx512f: the 512-bit kernel was NOT exercised");
        }
        assert_eq!(here[0], Kernel::Table);
    }

    #[test]
    fn reference_vectors() {
        // Values from zlib's crc32, an independent implementation.
        // The first five are shorter than FOLD128_MIN (table kernel on
        // any CPU); the rest are long enough for a folding kernel, and
        // the last three for the 512-bit one.
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
            assert_eq!(crc32(data), want, "{} bytes", data.len());
            for k in Kernel::available() {
                assert_eq!(k.update(0, data), want, "{k:?}, {} bytes", data.len());
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // table vs table there, and 33k calls
    fn kernels_agree_on_every_length_and_alignment() {
        // Lengths 0..=2048 cross both thresholds, every count of the
        // 512-bit kernel's 256-byte steps up to 8 and of its trailing
        // 64-byte blocks, every count of whole 16-byte blocks handed to
        // the lane fold, and every table-kernel tail; the 16 start
        // offsets move the unaligned loads across every alignment.
        let data: Vec<u8> = (0..2048 + 16u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let kernels = Kernel::available();
        for start in 0..16 {
            // The reference grows a byte at a time (incremental use is
            // exact), which keeps a debug build's table kernel quick.
            let mut want = 0;
            for len in 0..=2048 {
                let s = &data[start..start + len];
                want = Kernel::Table.update(want, &s[len.saturating_sub(1)..]);
                for &k in &kernels[1..] {
                    assert_eq!(k.update(0, s), want, "{k:?}: start {start} len {len}");
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // nothing to compare there, and 13 MB per kernel
    fn kernels_agree_on_random_splits() {
        // A buffer fed through each folding kernel in seeded random pieces —
        // some below the 128-bit threshold, some between the two, some
        // above both — must equal the table kernel's one-shot value:
        // the carried register is the whole state, whichever kernel
        // produced it.
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |m: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m as u64) as usize
        };
        let data: Vec<u8> = (0..64 * 1024).map(|_| rand(256) as u8).collect();
        let want = Kernel::Table.update(0, &data);
        for &k in &Kernel::available()[1..] {
            for _ in 0..200 {
                let mut crc = 0;
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let max = [100, 1000, 5000][rand(3)];
                    let (part, tail) = rest.split_at((1 + rand(max)).min(rest.len()));
                    crc = k.update(crc, part);
                    rest = tail;
                }
                assert_eq!(crc, want, "{k:?}");
            }
        }
    }

    /// What P yields under the module docs' rules — a fold constant is
    /// reflect(x^n mod P) << 1 — computed bit by bit in GF(2)[x].
    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn constants_follow_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7; // x^32 + ..., unreflected
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        let x_pow_mod_p = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 == 1 {
                    r ^= P;
                }
            }
            r
        };
        let fold_constant = |n: u32| (reflect(x_pow_mod_p(n), 32) << 1) as i64;
        for (d, (lo, hi)) in [(2048, clmul::K2048), (512, clmul::K512), (128, clmul::K128)] {
            let derived = (fold_constant(d + 32), fold_constant(d - 32));
            assert_eq!(derived, (lo, hi), "fold by {d} bits");
        }
        assert_eq!(fold_constant(64), clmul::K64);

        // µ = floor(x^64 / P) by long division.
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 == 1 {
                rem ^= u128::from(P) << (bit - 32);
                mu |= 1 << (bit - 32);
            }
        }
        assert_eq!(reflect(P, 33) as i64, clmul::POLY);
        assert_eq!(reflect(mu, 33) as i64, clmul::MU);
        // And the tables' polynomial is the same P.
        assert_eq!(reflect(P, 32), 0xEDB8_8320);
    }

    #[test]
    fn forcing_any_kernel_changes_nothing() {
        let data = vec![0xC3u8; 4096];
        let live = crc32(&data);
        for k in Kernel::available() {
            use_kernel(k);
            assert_eq!(crc32(&data), live, "{k:?}");
        }
        use_kernel(Kernel::Fold512);
    }

    #[test]
    fn slice_by_8_matches_bytewise_on_all_lengths() {
        // Every length 0..=64 plus some larger ones, so every
        // remainder path of the 8-byte main loop is exercised.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
        for len in (0..=64).chain([255, 1023, 4096]) {
            assert_eq!(
                Kernel::Table.update(0, &data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        // Unaligned starts too: `chunks_exact` begins at the slice
        // head, so the table math must hold regardless of alignment.
        for start in 1..9 {
            assert_eq!(
                Kernel::Table.update(0, &data[start..]),
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
