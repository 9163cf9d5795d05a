//! Seeded input generation and order statistics.

/// splitmix64: the benchmark's only randomness. Every input a workload
/// sends is drawn from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) ranks over `n` items by inverse-CDF lookup: rank 0 is the
/// hottest item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cum.push(acc);
        }
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64() * self.cum[self.cum.len() - 1];
        self.cum.partition_point(|c| *c < x).min(self.cum.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0 when
/// empty. Sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * (samples.len() - 1) as f64).round() as usize;
    samples[rank]
}

/// Median of an `f64` sample; 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_one_share_matches_harmonic_number() {
        // P(rank 0) = 1 / H(n); H(4096) at s = 1 is 8.895.
        let zipf = Zipf::new(4096, 1.0);
        let mut rng = Rng::new(42);
        let draws = 200_000;
        let hot = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let share = hot as f64 / draws as f64;
        assert!((share - 1.0 / 8.895).abs() < 0.005, "rank-1 share {share}");
    }

    #[test]
    fn zipf_is_a_pure_function_of_the_seed() {
        let zipf = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..256).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&r| r < 64));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.0), 1);
        assert_eq!(percentile(&mut s, 50.0), 51);
        assert_eq!(percentile(&mut s, 99.0), 99);
        assert_eq!(percentile(&mut s, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
