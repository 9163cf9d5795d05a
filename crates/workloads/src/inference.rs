//! Machine-learning inference serving (§6.3, Fig. 7).
//!
//! The paper serves MobileNet through TensorFlow Lite compiled to
//! WebAssembly; this reproduction serves **mobilenet-lite**, a from-scratch
//! depthwise-separable CNN. The serving shape is preserved: the model is
//! loaded from a file (the read-global filesystem on FAASM, a private fetch
//! per container on the baseline), each request classifies one image, cold
//! starts dominate tail latency on the container platform, and Proto-Faaslet
//! restores keep FAASM's tail flat.

use std::sync::Arc;

use faasm_baseline::{BaselinePlatform, ContainerApi, ContainerGuest};
use faasm_core::{Cluster, NativeApi, NativeGuest};

use crate::env::{publish_file, ContainerEnv, FaasEnv, FaasmEnv};

/// Image side length (pixels).
pub const SIDE: usize = 28;
/// Classes in the classifier head.
pub const CLASSES: usize = 10;
/// Channels after the first convolution.
const C1: usize = 8;
/// Channels after the pointwise convolution.
const C2: usize = 16;

/// Path of the published model file.
pub const MODEL_PATH: &str = "shared/models/mobilenet-lite.bin";

/// A depthwise-separable CNN: conv3x3 → ReLU → depthwise3x3 → pointwise1x1
/// → ReLU → global average pool → dense → softmax.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// First convolution kernels: `C1 × 3 × 3`.
    conv1: Vec<f32>,
    /// First convolution biases: `C1`.
    bias1: Vec<f32>,
    /// Depthwise kernels: `C1 × 3 × 3`.
    depthwise: Vec<f32>,
    /// Pointwise kernels: `C2 × C1`.
    pointwise: Vec<f32>,
    /// Pointwise biases: `C2`.
    bias2: Vec<f32>,
    /// Dense weights: `CLASSES × C2`.
    dense: Vec<f32>,
    /// Dense biases: `CLASSES`.
    bias3: Vec<f32>,
}

impl Model {
    /// Generate deterministic pseudo-random weights.
    pub fn generate(seed: u64) -> Model {
        let mut s = crate::MiniRng::new(seed);
        let gen = |s: &mut crate::MiniRng, n: usize| -> Vec<f32> {
            (0..n).map(|_| s.next_f32() * 0.5 - 0.25).collect()
        };
        Model {
            conv1: gen(&mut s, C1 * 9),
            bias1: gen(&mut s, C1),
            depthwise: gen(&mut s, C1 * 9),
            pointwise: gen(&mut s, C2 * C1),
            bias2: gen(&mut s, C2),
            dense: gen(&mut s, CLASSES * C2),
            bias3: gen(&mut s, CLASSES),
        }
    }

    /// Serialise the model (the "model file" served to functions).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for part in [
            &self.conv1,
            &self.bias1,
            &self.depthwise,
            &self.pointwise,
            &self.bias2,
            &self.dense,
            &self.bias3,
        ] {
            out.extend_from_slice(&(part.len() as u32).to_le_bytes());
            for v in part.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Deserialise a model file; `None` on malformed input.
    pub fn from_bytes(mut b: &[u8]) -> Option<Model> {
        let mut part = |expect: usize| -> Option<Vec<f32>> {
            if b.len() < 4 {
                return None;
            }
            let n = u32::from_le_bytes(b[0..4].try_into().ok()?) as usize;
            b = &b[4..];
            if n != expect || b.len() < n * 4 {
                return None;
            }
            let vals = b[..n * 4]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            b = &b[n * 4..];
            Some(vals)
        };
        let m = Model {
            conv1: part(C1 * 9)?,
            bias1: part(C1)?,
            depthwise: part(C1 * 9)?,
            pointwise: part(C2 * C1)?,
            bias2: part(C2)?,
            dense: part(CLASSES * C2)?,
            bias3: part(CLASSES)?,
        };
        if b.is_empty() {
            Some(m)
        } else {
            None
        }
    }

    /// Classify one `SIDE × SIDE` greyscale image; returns class scores.
    ///
    /// # Panics
    ///
    /// Panics if the image has the wrong length (callers validate).
    pub fn infer(&self, image: &[u8]) -> [f32; CLASSES] {
        assert_eq!(image.len(), SIDE * SIDE, "image shape");
        let img: Vec<f32> = image.iter().map(|&p| p as f32 / 255.0).collect();

        // conv3x3 (stride 1, valid padding) + ReLU.
        let s1 = SIDE - 2;
        let mut feat1 = vec![0.0f32; C1 * s1 * s1];
        for c in 0..C1 {
            let k = &self.conv1[c * 9..(c + 1) * 9];
            for y in 0..s1 {
                for x in 0..s1 {
                    let mut acc = self.bias1[c];
                    for ky in 0..3 {
                        for kx in 0..3 {
                            acc += k[ky * 3 + kx] * img[(y + ky) * SIDE + (x + kx)];
                        }
                    }
                    feat1[c * s1 * s1 + y * s1 + x] = acc.max(0.0);
                }
            }
        }

        // depthwise3x3 then pointwise1x1 + ReLU.
        let s2 = s1 - 2;
        let mut dw = vec![0.0f32; C1 * s2 * s2];
        for c in 0..C1 {
            let k = &self.depthwise[c * 9..(c + 1) * 9];
            for y in 0..s2 {
                for x in 0..s2 {
                    let mut acc = 0.0;
                    for ky in 0..3 {
                        for kx in 0..3 {
                            acc += k[ky * 3 + kx] * feat1[c * s1 * s1 + (y + ky) * s1 + (x + kx)];
                        }
                    }
                    dw[c * s2 * s2 + y * s2 + x] = acc;
                }
            }
        }
        let mut feat2 = vec![0.0f32; C2 * s2 * s2];
        for o in 0..C2 {
            for y in 0..s2 {
                for x in 0..s2 {
                    let mut acc = self.bias2[o];
                    for c in 0..C1 {
                        acc += self.pointwise[o * C1 + c] * dw[c * s2 * s2 + y * s2 + x];
                    }
                    feat2[o * s2 * s2 + y * s2 + x] = acc.max(0.0);
                }
            }
        }

        // Global average pool + dense + softmax.
        let mut pooled = [0.0f32; C2];
        for (o, p) in pooled.iter_mut().enumerate() {
            let sum: f32 = feat2[o * s2 * s2..(o + 1) * s2 * s2].iter().sum();
            *p = sum / (s2 * s2) as f32;
        }
        let mut logits = [0.0f32; CLASSES];
        for (cls, l) in logits.iter_mut().enumerate() {
            let mut acc = self.bias3[cls];
            for (o, p) in pooled.iter().enumerate() {
                acc += self.dense[cls * C2 + o] * p;
            }
            *l = acc;
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut exp = [0.0f32; CLASSES];
        let mut total = 0.0;
        for (e, l) in exp.iter_mut().zip(&logits) {
            *e = (l - max).exp();
            total += *e;
        }
        for e in &mut exp {
            *e /= total;
        }
        exp
    }
}

/// The serving function: load the model file, classify the input image,
/// output `[argmax: u8][scores: CLASSES × f32]`.
///
/// # Errors
///
/// Platform error messages.
pub fn infer_fn<E: FaasEnv>(env: &mut E) -> Result<i32, String> {
    let image = env.input();
    if image.len() != SIDE * SIDE {
        return Err(format!("bad image size {}", image.len()));
    }
    let model_bytes = env.load_file(MODEL_PATH)?;
    let model = Model::from_bytes(&model_bytes).ok_or("corrupt model file")?;
    let scores = model.infer(&image);
    let argmax = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
        .map(|(i, _)| i as u8)
        .expect("non-empty scores");
    env.write_output(&[argmax]);
    for s in scores {
        env.write_output(&s.to_le_bytes());
    }
    Ok(0)
}

/// Publish the model and register the serving function on a FAASM cluster.
pub fn setup_faasm(cluster: &Cluster, user: &str, seed: u64) {
    publish_file(
        Some(cluster),
        None,
        MODEL_PATH,
        &Model::generate(seed).to_bytes(),
    );
    let guest: Arc<dyn NativeGuest> = Arc::new(|api: &mut NativeApi<'_>| {
        let mut env = FaasmEnv::new(api);
        infer_fn(&mut env).map_err(faasm_fvm::Trap::host)
    });
    cluster.register_native(user, "infer", guest);
}

/// Publish the model and register the serving function on the baseline.
pub fn setup_baseline(platform: &BaselinePlatform, user: &str, seed: u64) {
    publish_file(
        None,
        Some(platform),
        MODEL_PATH,
        &Model::generate(seed).to_bytes(),
    );
    let guest: Arc<dyn ContainerGuest> = Arc::new(|api: &mut ContainerApi<'_>| {
        let mut env = ContainerEnv::new(api);
        infer_fn(&mut env)
    });
    platform.register(user, "infer", guest);
}

/// Decode a serving response into `(argmax, scores)`.
pub fn decode_response(out: &[u8]) -> Option<(u8, Vec<f32>)> {
    if out.len() != 1 + CLASSES * 4 {
        return None;
    }
    let scores = out[1..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Some((out[0], scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synth_images;

    #[test]
    fn model_roundtrip() {
        let m = Model::generate(3);
        let bytes = m.to_bytes();
        assert_eq!(Model::from_bytes(&bytes), Some(m));
        assert!(Model::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Model::from_bytes(&[]).is_none());
    }

    #[test]
    fn inference_is_deterministic_and_normalised() {
        let m = Model::generate(3);
        let imgs = synth_images(2, SIDE, 7);
        let s1 = m.infer(&imgs[0]);
        let s2 = m.infer(&imgs[0]);
        assert_eq!(s1, s2);
        let total: f32 = s1.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "softmax sums to 1: {total}");
        assert!(s1.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // Different images usually produce different scores.
        assert_ne!(m.infer(&imgs[0]), m.infer(&imgs[1]));
    }

    #[test]
    fn serving_on_faasm() {
        let cluster = Cluster::new(2);
        setup_faasm(&cluster, "serve", 9);
        let imgs = synth_images(4, SIDE, 11);
        let model = Model::generate(9);
        for img in &imgs {
            let r = cluster.invoke("serve", "infer", img.clone());
            assert_eq!(r.return_code(), 0, "status {:?}", r.status);
            let (argmax, scores) = decode_response(&r.output).unwrap();
            let expected = model.infer(img);
            for (a, b) in scores.iter().zip(&expected) {
                assert!((a - b).abs() < 1e-5);
            }
            let expected_argmax = expected
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0 as u8;
            assert_eq!(argmax, expected_argmax);
        }
    }

    #[test]
    fn serving_on_baseline() {
        let platform = BaselinePlatform::with_config(faasm_baseline::BaselineConfig {
            hosts: 1,
            image: faasm_baseline::ImageConfig {
                image_bytes: 128 * 1024,
                layers: 2,
                boot_passes: 1,
            },
            ..Default::default()
        });
        setup_baseline(&platform, "serve", 9);
        let img = &synth_images(1, SIDE, 11)[0];
        let r = platform.invoke("serve", "infer", img.clone());
        assert_eq!(r.return_code(), 0, "status {:?}", r.status);
        let (argmax, _) = decode_response(&r.output).unwrap();
        assert_eq!(argmax, {
            let expected = Model::generate(9).infer(img);
            expected
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0 as u8
        });
    }

    #[test]
    fn bad_image_rejected() {
        let cluster = Cluster::new(1);
        setup_faasm(&cluster, "serve", 9);
        let r = cluster.invoke("serve", "infer", vec![0; 10]);
        assert!(matches!(r.status, faasm_core::CallStatus::Error(_)));
    }
}
