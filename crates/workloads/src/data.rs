//! Synthetic dataset generators.
//!
//! The paper trains on Reuters RCV1 (~800 K documents, ~47 K features,
//! highly sparse) and serves inference on images. Both are replaced by
//! seeded generators with matching structure so experiments are reproducible
//! without external data; scale factors are recorded by the harness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse text-classification dataset in triplet form.
#[derive(Debug, Clone)]
pub struct SparseDataset {
    /// Number of examples (documents).
    pub examples: usize,
    /// Feature dimensionality.
    pub features: usize,
    /// `(example, feature, value)` non-zeros.
    pub triplets: Vec<(u32, u32, f64)>,
    /// Labels in `{-1, +1}`.
    pub labels: Vec<f64>,
}

/// Generate an RCV1-like dataset: each example draws a small number of
/// features (Zipf-ish reuse of common features), with labels from a planted
/// weight vector so SGD has signal to learn.
pub fn rcv1_like(
    examples: usize,
    features: usize,
    nnz_per_example: usize,
    seed: u64,
) -> SparseDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Planted ground-truth weights.
    let truth: Vec<f64> = (0..features).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut triplets = Vec::with_capacity(examples * nnz_per_example);
    let mut labels = Vec::with_capacity(examples);
    for ex in 0..examples {
        let mut dot = 0.0;
        for _ in 0..nnz_per_example {
            // Zipf-ish: bias toward low feature ids (common words).
            let r: f64 = rng.gen_range(0.0f64..1.0);
            let feat = ((r * r) * features as f64) as u32 % features as u32;
            let val: f64 = rng.gen_range(0.1..1.0);
            triplets.push((ex as u32, feat, val));
            dot += truth[feat as usize] * val;
        }
        labels.push(if dot >= 0.0 { 1.0 } else { -1.0 });
    }
    SparseDataset {
        examples,
        features,
        triplets,
        labels,
    }
}

impl SparseDataset {
    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Serialise to compressed-sparse-column layout over **examples as
    /// columns** (the paper's SGD partitions work by example/column ranges):
    /// returns `(values, row_features, col_ptr)` where `col_ptr[e]..col_ptr[e+1]`
    /// spans example `e`'s non-zeros.
    pub fn to_csc(&self) -> (Vec<f64>, Vec<u32>, Vec<u32>) {
        let mut order: Vec<usize> = (0..self.triplets.len()).collect();
        order.sort_by_key(|&i| (self.triplets[i].0, self.triplets[i].1));
        let mut vals = Vec::with_capacity(self.triplets.len());
        let mut feats = Vec::with_capacity(self.triplets.len());
        let mut col_ptr = vec![0u32; self.examples + 1];
        for &i in &order {
            let (ex, feat, v) = self.triplets[i];
            vals.push(v);
            feats.push(feat);
            col_ptr[ex as usize + 1] += 1;
        }
        for e in 0..self.examples {
            col_ptr[e + 1] += col_ptr[e];
        }
        (vals, feats, col_ptr)
    }
}

/// Little-endian f64 vector encoding.
pub fn f64s_to_bytes(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Little-endian f64 vector decoding.
///
/// # Panics
///
/// Panics on misaligned input length (an internal invariant).
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len().is_multiple_of(8), "f64 buffer misaligned");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Little-endian u32 vector encoding.
pub fn u32s_to_bytes(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Little-endian u32 vector decoding.
///
/// # Panics
///
/// Panics on misaligned input length (an internal invariant).
pub fn bytes_to_u32s(bytes: &[u8]) -> Vec<u32> {
    assert!(bytes.len().is_multiple_of(4), "u32 buffer misaligned");
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

/// A synthetic greyscale image batch for inference serving: `count` images
/// of `side × side` pixels with a few bright blobs each.
pub fn synth_images(count: usize, side: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut img = vec![0u8; side * side];
            for _ in 0..4 {
                let cx = rng.gen_range(0..side) as i64;
                let cy = rng.gen_range(0..side) as i64;
                let bright: u8 = rng.gen_range(128..=255);
                for dy in -2i64..=2 {
                    for dx in -2i64..=2 {
                        let (x, y) = (cx + dx, cy + dy);
                        if x >= 0 && y >= 0 && (x as usize) < side && (y as usize) < side {
                            let falloff = (dx.abs() + dy.abs()) as u8;
                            let px = &mut img[y as usize * side + x as usize];
                            *px = (*px).max(bright.saturating_sub(falloff * 40));
                        }
                    }
                }
            }
            img
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape_and_determinism() {
        let d1 = rcv1_like(100, 500, 12, 7);
        let d2 = rcv1_like(100, 500, 12, 7);
        assert_eq!(d1.triplets, d2.triplets, "seeded determinism");
        assert_eq!(d1.examples, 100);
        assert_eq!(d1.labels.len(), 100);
        assert_eq!(d1.nnz(), 1200);
        assert!(d1
            .triplets
            .iter()
            .all(|&(e, f, _)| (e as usize) < 100 && (f as usize) < 500));
        assert!(d1.labels.iter().all(|&l| l == 1.0 || l == -1.0));
        // Both classes present (planted weights are balanced).
        assert!(d1.labels.contains(&1.0));
        assert!(d1.labels.iter().any(|&l| l == -1.0));
    }

    #[test]
    fn csc_layout_is_consistent() {
        let d = rcv1_like(50, 100, 8, 3);
        let (vals, feats, col_ptr) = d.to_csc();
        assert_eq!(vals.len(), d.nnz());
        assert_eq!(feats.len(), d.nnz());
        assert_eq!(col_ptr.len(), 51);
        assert_eq!(col_ptr[0], 0);
        assert_eq!(col_ptr[50] as usize, d.nnz());
        // Per-example spans hold that example's nnz count.
        for e in 0..50 {
            let span = (col_ptr[e + 1] - col_ptr[e]) as usize;
            assert_eq!(span, 8);
        }
    }

    #[test]
    fn byte_codecs_roundtrip() {
        let f = vec![1.5f64, -2.25, 0.0];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&f)), f);
        let u = vec![0u32, 7, u32::MAX];
        assert_eq!(bytes_to_u32s(&u32s_to_bytes(&u)), u);
    }

    #[test]
    fn images_are_deterministic_and_sized() {
        let a = synth_images(3, 28, 9);
        let b = synth_images(3, 28, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|img| img.len() == 28 * 28));
        assert!(a[0].iter().any(|&p| p > 100), "blobs present");
    }
}
