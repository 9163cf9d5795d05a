//! Deterministic guest randomness for the `getrandom` host call.
//!
//! The paper's `getrandom` "uses underlying host /dev/urandom" (Tab. 2); for
//! a reproducible test/bench suite we substitute a per-Faaslet splitmix64
//! stream seeded from the Faaslet id.

/// A splitmix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed a stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = faasm_telemetry::splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Fill a buffer with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fill_covers_partial_chunks() {
        let mut r = SplitMix64::new(1);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn reasonable_distribution() {
        let mut r = SplitMix64::new(42);
        let mut ones = 0u32;
        for _ in 0..1000 {
            ones += r.next_u64().count_ones();
        }
        // ~32000 expected; loose bounds.
        assert!((28_000..36_000).contains(&ones), "ones = {ones}");
    }
}
