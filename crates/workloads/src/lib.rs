//! The paper's evaluation workloads (§6), implemented once against the
//! platform-agnostic [`env::FaasEnv`] and run on both FAASM and the
//! container baseline.
//!
//! * [`sgd`] — HOGWILD! SGD text classification on an RCV1-like dataset
//!   (§6.2, Fig. 6).
//! * [`inference`] — mobilenet-lite model serving (§6.3, Fig. 7).
//! * [`matmul`] — chained divide-and-conquer matrix multiplication
//!   (§6.4, Fig. 8).
//! * [`data`] — seeded dataset/image generators.

#![warn(missing_docs)]

pub mod data;
pub mod env;
pub mod inference;
pub mod matmul;
pub mod minidyn;
pub mod polybench;
pub mod sgd;

/// A tiny deterministic generator for synthetic weights (xorshift64*).
#[derive(Debug, Clone)]
pub struct MiniRng(u64);

impl MiniRng {
    /// Seed a stream (zero is remapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> MiniRng {
        MiniRng(if seed == 0 { 0x9e3779b97f4a7c15 } else { seed })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minirng_deterministic_and_in_range() {
        let mut a = MiniRng::new(5);
        let mut b = MiniRng::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut z = MiniRng::new(0);
        for _ in 0..100 {
            let f = z.next_f32();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
