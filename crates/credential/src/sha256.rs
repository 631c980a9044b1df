//! A from-scratch SHA-256 (FIPS 180-4).
//!
//! Digests certificate contents before signing and verification, and
//! checksums every journal frame and every state snapshot. Implemented
//! here because no cryptography crate is on the approved dependency
//! list; the algorithm is the real one and is validated against the
//! FIPS test vectors in this module's tests.
//!
//! Two block functions compute the same compression: a portable scalar
//! one, and on x86-64 hosts whose CPU has the SHA extensions one built
//! on them (about five times faster, EXPERIMENTS.md). [`Sha256::new`]
//! picks the accelerated one when the CPU has it; the scalar one is the
//! fallback and the oracle the tests hold the accelerated one to.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use gridauthz_credential::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher, compressing with the SHA extensions when
    /// the CPU has them.
    pub fn new() -> Self {
        Sha256::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length_bytes: 0, kernel }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                self.kernel.compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            self.kernel.compress(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        let buffered = self.buffered;
        self.buffer[buffered] = 0x80;
        if buffered >= 56 {
            // No room for the length in this block: pad it out,
            // compress, and put the length in an all-padding block.
            self.buffer[buffered + 1..].fill(0);
            self.kernel.compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        } else {
            self.buffer[buffered + 1..56].fill(0);
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which block function a hasher compresses with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The portable [`compress`].
    Scalar,
    /// [`sha_ni::compress_blocks`]. Only [`Kernel::detect`] constructs
    /// it, so the CPU is known to have the instructions it uses.
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Scalar => {
                for block in blocks.chunks_exact(64) {
                    compress(state, block.try_into().expect("64-byte block"));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` exists only once `sha_ni::available()`
            // returned true on this CPU.
            Kernel::ShaNi => unsafe { sha_ni::compress_blocks(state, blocks) },
        }
    }
}

/// The scalar FIPS 180-4 compression of one block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The compression on the x86 SHA extensions (`sha256rnds2` runs two
/// rounds, `sha256msg1`/`sha256msg2` extend the message schedule).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// True when this CPU has every instruction [`compress_blocks`] uses.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    ///
    /// # Safety
    ///
    /// The CPU must have the SHA, SSE2, SSSE3 and SSE4.1 extensions
    /// ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: every load and store is unaligned (`loadu`/`storeu`)
        // and stays inside `state` (2 × 16 bytes), `K` (16 × 16 bytes)
        // or the current 64-byte block.
        unsafe {
            // Byte order: the message words are big-endian.
            let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let k = |i: usize| _mm_loadu_si128(K.as_ptr().add(4 * i).cast::<__m128i>());

            // The instructions keep the working variables as ABEF and
            // CDGH: repack the DCBA / HGFE state words into that layout.
            let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

            for block in blocks.chunks_exact(64) {
                let (abef_in, cdgh_in) = (abef, cdgh);
                let word = |i: usize| {
                    let raw = _mm_loadu_si128(block.as_ptr().add(16 * i).cast::<__m128i>());
                    _mm_shuffle_epi8(raw, be_words)
                };
                // w[j] holds message words 4i..4i+4 for the round group i
                // with i % 4 == j.
                let mut w = [word(0), word(1), word(2), word(3)];
                for i in 0..16 {
                    if i >= 4 {
                        let next = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                        let next =
                            _mm_add_epi32(next, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
                        w[i % 4] = _mm_sha256msg2_epu32(next, w[(i + 3) % 4]);
                    }
                    let wk = _mm_add_epi32(w[i % 4], k(i));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }
                abef = _mm_add_epi32(abef, abef_in);
                cdgh = _mm_add_epi32(cdgh, cdgh_in);
            }

            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
            let hgfe = _mm_alignr_epi8(dchg, feba, 8);
            _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
        }
    }
}

/// One-shot convenience wrapper around [`Sha256`].
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The first 8 digest bytes as a big-endian integer — the "message
/// representative" signed by the toy-RSA module.
pub fn sha256_prefix_u64(data: &[u8]) -> u64 {
    let d = sha256(data);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The accelerated kernel, or `None` (reported as skipped) on a CPU
    /// without the SHA extensions.
    fn accelerated(test: &str) -> Option<Kernel> {
        let kernel = Kernel::detect();
        if kernel == Kernel::Scalar {
            eprintln!("{test}: accelerated half skipped: this CPU lacks the SHA extensions");
            return None;
        }
        Some(kernel)
    }

    /// Every kernel this CPU runs, scalar first.
    fn kernels(test: &str) -> Vec<Kernel> {
        std::iter::once(Kernel::Scalar).chain(accelerated(test)).collect()
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// Deterministic non-repeating test bytes.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i.wrapping_mul(167) ^ (i >> 8)) as u8).collect()
    }

    // FIPS 180-4 / NIST CAVP test vectors, through every kernel.
    #[test]
    fn fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for kernel in kernels("fips_vectors") {
            for (data, expected) in vectors {
                assert_eq!(
                    hex(&digest_with(kernel, data)),
                    expected,
                    "{kernel:?}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn new_picks_the_accelerated_kernel_when_the_cpu_has_it() {
        let expected = accelerated("new_picks_the_accelerated_kernel").unwrap_or(Kernel::Scalar);
        assert_eq!(Sha256::new().kernel, expected);
    }

    /// Every length from 0 to 16 blocks: the padding boundary at 56
    /// bytes, whole blocks, and multi-block runs handed to one call.
    #[test]
    fn accelerated_matches_scalar_for_every_length() {
        let Some(kernel) = accelerated("accelerated_matches_scalar_for_every_length") else {
            return;
        };
        let data = bytes(1024);
        for len in 0..=data.len() {
            assert_eq!(
                digest_with(kernel, &data[..len]),
                digest_with(Kernel::Scalar, &data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        /// Splitting the input across `update` calls never changes the
        /// digest, on either kernel.
        #[test]
        fn any_update_split_matches_the_scalar_oneshot(
            len in 0usize..1500,
            cuts in prop::collection::vec(0usize..1500, 0..8),
        ) {
            let data = bytes(len);
            let expected = digest_with(Kernel::Scalar, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            for kernel in kernels("any_update_split_matches_the_scalar_oneshot") {
                let mut h = Sha256::with_kernel(kernel);
                let mut at = 0;
                for &cut in cuts.iter().chain([&len]) {
                    h.update(&data[at..cut]);
                    at = cut;
                }
                prop_assert_eq!(h.finalize(), expected);
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk_size in [1, 3, 7, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn prefix_u64_is_stable() {
        // e3b0c44298fc1c14 is the first 8 bytes of the empty-string digest.
        assert_eq!(sha256_prefix_u64(b""), 0xe3b0c44298fc1c14);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"policy-a"), sha256(b"policy-b"));
    }
}
