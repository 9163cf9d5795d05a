//! Content addressing for the snapshot distribution plane.
//!
//! Proto-Faaslet snapshots ship through the state tier as immutable,
//! hash-keyed chunks: a chunk's key *is* its SHA-256 digest, so identical
//! memory pages across proto versions collapse to one stored chunk, and a
//! fetcher can verify every byte it received against the key it asked for
//! (a corrupt or substituted chunk fails the digest check, never the
//! restore). The hash is a self-contained SHA-256 (FIPS 180-4) — the
//! workspace is offline, so no crypto crate.
//!
//! **Why SHA-256 and not a faster hash.** `proto/chunk/<hex>` is one
//! namespace for every tenant, and publish skips any chunk whose key
//! already `exists`. With a hash whose collisions can be found, one tenant
//! could pre-publish bytes under another tenant's page digest: the
//! victim's publish would dedup against them, its manifest would then
//! point at the attacker's bytes, and those bytes would pass
//! verify-on-fetch. Collision resistance is what makes sharing the
//! namespace — and so cross-function dedup — safe.
//!
//! **What it costs.** Hashing sits on the cold-start path twice: the
//! capturing host digests every page it publishes, and every fetching host
//! digests every chunk it did not have. The scalar compression runs at
//! 240–265 MB/s (64 KiB input, release build, 2-core x86-64 VM) — about
//! 1.1 ms to chunk a four-page proto, against a restore of a few µs. On
//! x86-64 CPUs with the SHA extensions the same compression runs on
//! `sha256rnds2` at 1.4–1.6 GB/s on the same machine (chunking: about
//! 0.28 ms). The path is chosen from what the CPU reports, with no setting;
//! both give the same digests, and the scalar one stays as the only path
//! elsewhere and as the test oracle.

/// A 32-byte SHA-256 digest: the identity of one content-addressed chunk.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Digest of `data`.
    pub fn of(data: &[u8]) -> Digest {
        Digest(sha256(data, compress_blocks))
    }

    /// Lower-case hex form (the chunk key suffix).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Parse a 64-char lower/upper-case hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..12])
    }
}

/// The state-tier key a content-addressed chunk lives under. One namespace
/// for every proto of every function — that is what makes cross-version
/// dedup automatic.
pub fn chunk_key(digest: &Digest) -> String {
    format!("proto/chunk/{}", digest.to_hex())
}

/// The state-tier key a function's proto manifest lives under (the only
/// mutable key in the plane: republishing a proto swaps the manifest, the
/// chunks it points at are immutable).
pub fn manifest_key(user: &str, function: &str) -> String {
    format!("proto/manifest/{user}/{function}")
}

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

/// SHA-256 of `data`, with `compress_blocks` run over the whole 64-byte
/// blocks and then over the padded tail.
fn sha256(data: &[u8], compress_blocks: fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let (whole, rem) = data.split_at(data.len() - data.len() % 64);
    compress_blocks(&mut h, whole);
    // Pad: message || 0x80 || zeros || bit-length (big-endian u64), to a
    // multiple of 64 bytes — two blocks when the 0x80 leaves no room for
    // the length in the first.
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let end = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut h, &tail[..end]);
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `h` on the
/// fastest path this CPU reports.
fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available` has just confirmed every CPU feature
        // `sha_ni::compress_blocks` is compiled for.
        return unsafe { sha_ni::compress_blocks(h, blocks) };
    }
    scalar_blocks(h, blocks);
}

/// The portable path, and the oracle the accelerated one is tested against.
fn scalar_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(h, block.try_into().expect("64-byte block"));
    }
}

/// SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2` does
/// two rounds, `sha256msg1`/`msg2` extend the message schedule four words
/// at a time).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress_blocks`] needs.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// The state lives in the two registers `sha256rnds2` works on: lanes
    /// (a, b, e, f) and (c, d, g, h), highest lane first. Words are loaded
    /// by value, so nothing here reads through a pointer.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, hh] = h.map(|x| x as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, hh);
        for block in blocks.chunks_exact(64) {
            let mut m = [0i32; 16];
            for (m, word) in m.iter_mut().zip(block.chunks_exact(4)) {
                *m = u32::from_be_bytes(word.try_into().expect("4-byte word")) as i32;
            }
            // w0..w3 hold the next sixteen message words, lowest lane first.
            let mut w0 = _mm_set_epi32(m[3], m[2], m[1], m[0]);
            let mut w1 = _mm_set_epi32(m[7], m[6], m[5], m[4]);
            let mut w2 = _mm_set_epi32(m[11], m[10], m[9], m[8]);
            let mut w3 = _mm_set_epi32(m[15], m[14], m[13], m[12]);
            let (abef0, cdgh0) = (abef, cdgh);
            for k in K.chunks_exact(4) {
                let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
                let wk = _mm_add_epi32(w0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                // W[t] from W[t-16], W[t-15], W[t-7] and W[t-2], four at a
                // time (the last four groups compute words nobody reads).
                let t = _mm_sha256msg1_epu32(w0, w1);
                let t = _mm_add_epi32(t, _mm_alignr_epi8::<4>(w3, w2));
                (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(t, w3));
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        *h = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|x| x as u32);
    }
}

fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Digest::of` (whichever path the CPU selects) against the scalar
    /// oracle on every length up to 65 blocks — every padding edge
    /// (55/56/63/64 bytes into a block) at every block count — from eight
    /// start offsets of one buffer, so the slices are misaligned.
    #[test]
    fn selected_path_matches_the_scalar_path_on_every_length_and_offset() {
        let buf: Vec<u8> = (0..4_160u32 + 8)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=4_160 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    Digest::of(data),
                    Digest(sha256(data, scalar_blocks)),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// A CPU that reports the SHA extensions gets the accelerated path: a
    /// detection that quietly fell back to scalar would fail here, not
    /// just run slower.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn a_cpu_with_the_sha_extensions_takes_the_accelerated_path() {
        assert_eq!(
            sha_ni::available(),
            std::arch::is_x86_feature_detected!("sha")
        );
    }

    /// FIPS 180-4 test vectors plus padding-boundary lengths (55/56/63/64
    /// land the 0x80 byte and the length field in every branch of the
    /// padding logic). The vectors also run on the scalar path directly:
    /// on a CPU with the SHA extensions `Digest::of` never reaches it, and
    /// it is the oracle the accelerated path is checked against.
    #[test]
    fn sha256_known_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(Digest::of(input).to_hex(), *want);
            assert_eq!(Digest(sha256(input, scalar_blocks)).to_hex(), *want);
        }
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![b'a'; len];
            // Self-consistency across the boundary: digest differs from the
            // next length and roundtrips through hex.
            let d = Digest::of(&data);
            assert_eq!(Digest::from_hex(&d.to_hex()), Some(d), "len {len}");
            assert_ne!(d, Digest::of(&vec![b'a'; len + 1]), "len {len}");
        }
        // The classic million-'a' vector pins the multi-block path.
        let big = vec![b'a'; 1_000_000];
        for d in [Digest::of(&big), Digest(sha256(&big, scalar_blocks))] {
            assert_eq!(
                d.to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
            );
        }
    }

    #[test]
    fn hex_parsing_rejects_garbage() {
        assert!(Digest::from_hex("zz").is_none());
        assert!(Digest::from_hex(&"g".repeat(64)).is_none());
        let d = Digest::of(b"x");
        assert_eq!(Digest::from_hex(&d.to_hex().to_uppercase()), Some(d));
    }

    #[test]
    fn keys_are_stable() {
        let d = Digest::of(b"page");
        assert!(chunk_key(&d).starts_with("proto/chunk/"));
        assert_eq!(manifest_key("alice", "fn"), "proto/manifest/alice/fn");
    }
}
