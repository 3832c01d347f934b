//! SHA-256 (FIPS PUB 180-4), the recommended modern hash for provenance
//! checksums.

/// Digest size in bytes.
pub(crate) const SHA256_OUTPUT_LEN: usize = 32;

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

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

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
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

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; SHA256_OUTPUT_LEN] {
        let mut state = self.state;
        let tail = crate::sha1::final_blocks(&self.buffer, self.buffer_len, self.total_len);
        compress_blocks(&mut state, tail.as_slice());
        let mut out = [0u8; SHA256_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest: full blocks are compressed directly from `data` and
    /// the padded tail is built on the stack (see `Sha1::digest`
    /// for why the fixed overhead matters on short provenance inputs).
    pub fn digest(data: &[u8]) -> [u8; SHA256_OUTPUT_LEN] {
        let mut state = H0;
        let full = data.len() & !63;
        if full > 0 {
            compress_blocks(&mut state, &data[..full]);
        }
        let rem = &data[full..];
        let mut buffer = [0u8; 64];
        buffer[..rem.len()].copy_from_slice(rem);
        let tail = crate::sha1::final_blocks(&buffer, rem.len(), data.len() as u64);
        compress_blocks(&mut state, tail.as_slice());
        let mut out = [0u8; SHA256_OUTPUT_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses a run of whole 64-byte blocks into `state`.
///
/// All 64 rounds are written out, in eight groups of eight, over a 16-word
/// rolling message schedule (each expanded word is computed in place as
/// its round consumes it). A round adds into `d` and `h`, then the next
/// round takes the registers in rotated roles (`h` becomes `a`, `a`
/// becomes `b`, …), so no round moves a register; after eight rounds the
/// roles are back where they started.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // Round `$i`'s message word. `$i` is a literal sum, so the branch
        // folds away; `& 15` keeps the dead arm's index in range.
        macro_rules! word {
            ($i:expr) => {
                if $i < 16 {
                    w[$i & 15]
                } else {
                    let s = $i & 15;
                    let w15 = w[(s + 1) & 15];
                    let w2 = w[(s + 14) & 15];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[s] = w[s]
                        .wrapping_add(s0)
                        .wrapping_add(w[(s + 9) & 15])
                        .wrapping_add(s1);
                    w[s]
                }
            };
        }
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = $g ^ ($e & ($f ^ $g));
                $h = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$i])
                    .wrapping_add(word!($i));
                $d = $d.wrapping_add($h);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) | ($c & ($a | $b));
                $h = $h.wrapping_add(s0).wrapping_add(maj);
            };
        }
        macro_rules! eight {
            ($i:expr) => {
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            };
        }

        eight!(0);
        eight!(8);
        eight!(16);
        eight!(24);
        eight!(32);
        eight!(40);
        eight!(48);
        eight!(56);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The rolled form of the compression: one `round!` per loop iteration,
/// moving all eight registers each round. Tests hold [`compress_blocks`]
/// equal to it on every input.
#[cfg(test)]
fn compress_reference(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        macro_rules! round {
            ($k:expr, $wi:expr) => {{
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = g ^ (e & (f ^ g));
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add($k)
                    .wrapping_add($wi);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) | (c & (a | b));
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }};
        }

        for i in 0..16 {
            round!(K[i], w[i]);
        }
        for (i, &k) in K.iter().enumerate().skip(16) {
            let s = i & 15;
            let w15 = w[(s + 1) & 15];
            let w2 = w[(s + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[s] = w[s]
                .wrapping_add(s0)
                .wrapping_add(w[(s + 9) & 15])
                .wrapping_add(s1);
            round!(k, w[s]);
        }

        let add = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::to_hex;
    use crate::sha1::final_blocks;
    use crate::sha1::tests::seeded_bytes;

    /// `Sha256::digest` computed through [`compress_reference`].
    fn digest_reference(data: &[u8]) -> [u8; SHA256_OUTPUT_LEN] {
        let mut state = H0;
        let full = data.len() & !63;
        compress_reference(&mut state, &data[..full]);
        let mut buffer = [0u8; 64];
        buffer[..data.len() - full].copy_from_slice(&data[full..]);
        let tail = final_blocks(&buffer, data.len() - full, data.len() as u64);
        compress_reference(&mut state, tail.as_slice());
        let mut out = [0u8; SHA256_OUTPUT_LEN];
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
            assert_eq!(Sha256::digest(data), want, "digest: len {len}");
            // 37-byte pieces cross the block boundary at every offset mod 64.
            let mut h = Sha256::new();
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
            let mut h = Sha256::new();
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
        assert_eq!(Sha256::digest(&data), digest_reference(&data));
    }

    #[test]
    fn nist_test_vectors() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 10_000];
        for _ in 0..100 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for split in [0usize, 1, 31, 63, 64, 65, 400, 776, 777] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
        // Concatenation ambiguity check: ("ab","c") vs ("a","bc") hash the
        // same bytes — same digest — which is why the canonical encoding in
        // tep-model length-prefixes fields.
        let mut h1 = Sha256::new();
        h1.update(b"ab");
        h1.update(b"c");
        let mut h2 = Sha256::new();
        h2.update(b"a");
        h2.update(b"bc");
        assert_eq!(h1.finalize(), h2.finalize());
    }
}
