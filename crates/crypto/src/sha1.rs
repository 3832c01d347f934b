//! SHA-1 (FIPS PUB 180-1) — the hash the paper uses (`MessageDigest("SHA")`,
//! 20-byte digests).
//!
//! SHA-1 is cryptographically broken for collision resistance today; it is
//! provided for fidelity with the paper's evaluation. Production deployments
//! should select [`crate::digest::HashAlgorithm::Sha256`].

/// Digest size in bytes.
pub(crate) const SHA1_OUTPUT_LEN: usize = 20;

const H0: [u32; 5] = [
    0x6745_2301,
    0xefcd_ab89,
    0x98ba_dcfe,
    0x1032_5476,
    0xc3d2_e1f0,
];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                compress_blocks(&mut self.state, &block);
                self.buffer_len = 0;
            }
        }
        // Full blocks straight from the input — no buffer copies.
        let full = rest.len() & !63;
        if full > 0 {
            compress_blocks(&mut self.state, &rest[..full]);
            rest = &rest[full..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finalize(self) -> [u8; SHA1_OUTPUT_LEN] {
        let mut state = self.state;
        let tail = final_blocks(&self.buffer, self.buffer_len, self.total_len);
        compress_blocks(&mut state, tail.as_slice());
        let mut out = [0u8; SHA1_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest: compresses full blocks directly from `data` and
    /// builds the padded tail on the stack, skipping the incremental
    /// hasher's buffering entirely. Provenance checksums hash thousands of
    /// sub-block inputs (node prefixes, digest chains), so the fixed
    /// overhead here is a first-order cost.
    pub fn digest(data: &[u8]) -> [u8; SHA1_OUTPUT_LEN] {
        let mut state = H0;
        let full = data.len() & !63;
        if full > 0 {
            compress_blocks(&mut state, &data[..full]);
        }
        let rem = &data[full..];
        let mut buffer = [0u8; 64];
        buffer[..rem.len()].copy_from_slice(rem);
        let tail = final_blocks(&buffer, rem.len(), data.len() as u64);
        compress_blocks(&mut state, tail.as_slice());
        let mut out = [0u8; SHA1_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Padded final block(s): the buffered tail, `0x80`, zero padding, and the
/// 64-bit message bit length — one block if the tail leaves 8 spare bytes,
/// two otherwise.
pub(crate) struct FinalBlocks {
    bytes: [u8; 128],
    len: usize,
}

impl FinalBlocks {
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

pub(crate) fn final_blocks(buffer: &[u8; 64], buffer_len: usize, total_len: u64) -> FinalBlocks {
    let mut bytes = [0u8; 128];
    bytes[..buffer_len].copy_from_slice(&buffer[..buffer_len]);
    bytes[buffer_len] = 0x80;
    let len = if buffer_len < 56 { 64 } else { 128 };
    let bit_len = total_len.wrapping_mul(8);
    bytes[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
    FinalBlocks { bytes, len }
}

/// Compresses a run of whole 64-byte blocks into `state`.
///
/// All 80 rounds are written out, in 16 groups of five, over a 16-word
/// rolling message schedule. A round adds into `e` and rotates `b`, then
/// the next round takes the registers in rotated roles (`e` becomes `a`,
/// `a` becomes `b`, …), so no round moves a register; after five rounds
/// the roles are back where they started.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;

        // Round `$i`'s message word. `$i` is a literal sum, so the branch
        // folds away; `& 15` keeps the dead arm's index in range.
        macro_rules! word {
            ($i:expr) => {
                if $i < 16 {
                    w[$i & 15]
                } else {
                    let s = $i & 15;
                    w[s] = (w[(s + 13) & 15] ^ w[(s + 8) & 15] ^ w[(s + 2) & 15] ^ w[s])
                        .rotate_left(1);
                    w[s]
                }
            };
        }
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $i:expr) => {
                $e = $e
                    .wrapping_add($a.rotate_left(5))
                    .wrapping_add($f($b, $c, $d))
                    .wrapping_add($k)
                    .wrapping_add(word!($i));
                $b = $b.rotate_left(30);
            };
        }
        macro_rules! five {
            ($f:ident, $k:expr, $i:expr) => {
                round!(a, b, c, d, e, $f, $k, $i);
                round!(e, a, b, c, d, $f, $k, $i + 1);
                round!(d, e, a, b, c, $f, $k, $i + 2);
                round!(c, d, e, a, b, $f, $k, $i + 3);
                round!(b, c, d, e, a, $f, $k, $i + 4);
            };
        }

        five!(choose, 0x5a82_7999, 0);
        five!(choose, 0x5a82_7999, 5);
        five!(choose, 0x5a82_7999, 10);
        five!(choose, 0x5a82_7999, 15);
        five!(parity, 0x6ed9_eba1, 20);
        five!(parity, 0x6ed9_eba1, 25);
        five!(parity, 0x6ed9_eba1, 30);
        five!(parity, 0x6ed9_eba1, 35);
        five!(majority, 0x8f1b_bcdc, 40);
        five!(majority, 0x8f1b_bcdc, 45);
        five!(majority, 0x8f1b_bcdc, 50);
        five!(majority, 0x8f1b_bcdc, 55);
        five!(parity, 0xca62_c1d6, 60);
        five!(parity, 0xca62_c1d6, 65);
        five!(parity, 0xca62_c1d6, 70);
        five!(parity, 0xca62_c1d6, 75);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[inline(always)]
fn choose(b: u32, c: u32, d: u32) -> u32 {
    d ^ (b & (c ^ d))
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn majority(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (d & (b | c))
}

/// The rolled form of the compression: one `round!` per loop iteration,
/// moving all five registers each round. Tests hold [`compress_blocks`]
/// equal to it on every input.
#[cfg(test)]
fn compress_reference(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    let [mut h0, mut h1, mut h2, mut h3, mut h4] = *state;
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let (mut a, mut b, mut c, mut d, mut e) = (h0, h1, h2, h3, h4);

        macro_rules! schedule {
            ($i:expr) => {{
                let s = $i & 15;
                w[s] = (w[(s + 13) & 15] ^ w[(s + 8) & 15] ^ w[(s + 2) & 15] ^ w[s]).rotate_left(1);
                w[s]
            }};
        }
        macro_rules! round {
            ($f:expr, $k:expr, $wi:expr) => {{
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add($f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add($wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }};
        }

        for &wi in &w {
            round!(d ^ (b & (c ^ d)), 0x5a82_7999, wi);
        }
        for i in 16..20 {
            round!(d ^ (b & (c ^ d)), 0x5a82_7999, schedule!(i));
        }
        for i in 20..40 {
            round!(b ^ c ^ d, 0x6ed9_eba1, schedule!(i));
        }
        for i in 40..60 {
            round!((b & c) | (d & (b | c)), 0x8f1b_bcdc, schedule!(i));
        }
        for i in 60..80 {
            round!(b ^ c ^ d, 0xca62_c1d6, schedule!(i));
        }

        h0 = h0.wrapping_add(a);
        h1 = h1.wrapping_add(b);
        h2 = h2.wrapping_add(c);
        h3 = h3.wrapping_add(d);
        h4 = h4.wrapping_add(e);
    }
    *state = [h0, h1, h2, h3, h4];
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex::to_hex;

    /// Deterministic filler (xorshift64*), so a failure names its bytes.
    pub(crate) fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// `Sha1::digest` computed through [`compress_reference`].
    fn digest_reference(data: &[u8]) -> [u8; SHA1_OUTPUT_LEN] {
        let mut state = H0;
        let full = data.len() & !63;
        compress_reference(&mut state, &data[..full]);
        let mut buffer = [0u8; 64];
        buffer[..data.len() - full].copy_from_slice(&data[full..]);
        let tail = final_blocks(&buffer, data.len() - full, data.len() as u64);
        compress_reference(&mut state, tail.as_slice());
        let mut out = [0u8; SHA1_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn kernel_matches_reference_at_every_length() {
        let buf = seeded_bytes(2009, 1024);
        for len in 0..=1024 {
            let data = &buf[..len];
            let want = digest_reference(data);
            assert_eq!(Sha1::digest(data), want, "digest: len {len}");
            // 37-byte pieces cross the block boundary at every offset mod 64.
            let mut h = Sha1::new();
            for piece in data.chunks(37) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), want, "hasher: len {len}");
        }
    }

    #[test]
    fn kernel_matches_reference_at_every_split() {
        let data = seeded_bytes(31337, 300);
        let want = digest_reference(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn kernel_matches_reference_over_64_kib() {
        let data = seeded_bytes(1, 64 * 1024);
        let (mut kernel, mut reference) = (H0, H0);
        compress_blocks(&mut kernel, &data);
        compress_reference(&mut reference, &data);
        assert_eq!(kernel, reference);
        assert_eq!(Sha1::digest(&data), digest_reference(&data));
    }

    #[test]
    fn fips_test_vectors() {
        // FIPS 180-1 Appendix A/B and well-known vectors.
        assert_eq!(
            to_hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            to_hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            to_hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            to_hex(&Sha1::digest(
                b"The quick brown fox jumps over the lazy dog"
            )),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "split={split}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"tamper-evident provenance";
        let mut h = Sha1::new();
        for &b in data.iter() {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), Sha1::digest(data));
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/57, 63/64/65).
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha1::new();
            h.update(&data);
            // Equality with an independently-split computation exercises padding.
            let mut h2 = Sha1::new();
            h2.update(&data[..len / 2]);
            h2.update(&data[len / 2..]);
            assert_eq!(h.finalize(), h2.finalize(), "len={len}");
        }
    }
}
