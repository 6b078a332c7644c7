//! Batch normalization.

use crate::Layer;
use saps_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Per-channel batch normalization (NCHW, or `[batch, features]` treating
/// each feature as a channel).
///
/// Training mode normalizes with batch statistics and updates running
/// estimates (momentum 0.9); eval mode normalizes with the running
/// estimates. γ (scale) and β (shift) are the learnable parameters — they
/// take part in model exchange like any other parameter.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    channels: usize,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Backward cache.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` channels
    /// (γ = 1, β = 0, running stats at standard normal).
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_xhat: None,
            cached_inv_std: Vec::new(),
        }
    }

    /// Decomposes a supported shape into `(batch, spatial)`.
    fn plan(&self, shape: &[usize]) -> (usize, usize) {
        match shape.len() {
            2 => {
                assert_eq!(shape[1], self.channels, "channel mismatch");
                (shape[0], 1)
            }
            4 => {
                assert_eq!(shape[1], self.channels, "channel mismatch");
                (shape[0], shape[2] * shape[3])
            }
            _ => panic!("BatchNorm expects 2-D or 4-D input"),
        }
    }
}

/// Splits NCHW (or `[batch, features]`, `spatial = 1`) data into its
/// `(channel, plane)` pairs in memory order.
fn planes(data: &[f32], channels: usize, spatial: usize) -> impl Iterator<Item = (usize, &[f32])> {
    (0..channels).cycle().zip(data.chunks_exact(spatial))
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (batch, spatial) = self.plan(input.shape());
        let m = (batch * spatial) as f32;
        let x = input.data();
        let c = self.channels;

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for (ch, plane) in planes(x, c, spatial) {
                let mut sum = mean[ch];
                for &v in plane {
                    sum += v;
                }
                mean[ch] = sum;
            }
            for mu in &mut mean {
                *mu /= m;
            }
            for (ch, plane) in planes(x, c, spatial) {
                let (mu, mut sum) = (mean[ch], var[ch]);
                for &v in plane {
                    sum += (v - mu) * (v - mu);
                }
                var[ch] = sum;
            }
            for s in &mut var {
                *s /= m;
            }
            for ch in 0..c {
                self.running_mean[ch] = 0.9 * self.running_mean[ch] + 0.1 * mean[ch];
                self.running_var[ch] = 0.9 * self.running_var[ch] + 0.1 * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&s| 1.0 / (s + EPS).sqrt()).collect();
        let g = self.gamma.data();
        let b = self.beta.data();
        let mut out = vec![0.0f32; x.len()];
        // x̂ is only kept for backward, so eval mode never materializes it.
        let mut xhat = if train {
            vec![0.0f32; x.len()]
        } else {
            Vec::new()
        };
        for (i, (ch, plane)) in planes(x, c, spatial).enumerate() {
            let (mu, is, gc, bc) = (mean[ch], inv_std[ch], g[ch], b[ch]);
            let span = i * spatial..(i + 1) * spatial;
            if train {
                let dst = xhat[span.clone()].iter_mut().zip(&mut out[span]);
                for ((h, o), &v) in dst.zip(plane) {
                    *h = (v - mu) * is;
                    *o = gc * *h + bc;
                }
            } else {
                for (o, &v) in out[span].iter_mut().zip(plane) {
                    *o = gc * ((v - mu) * is) + bc;
                }
            }
        }
        self.cached_xhat = train.then(|| Tensor::from_vec(xhat, input.shape()));
        if train {
            self.cached_inv_std = inv_std;
        }
        Tensor::from_vec(out, input.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self
            .cached_xhat
            .take()
            .expect("backward called without a preceding training forward");
        let (batch, spatial) = self.plan(grad_out.shape());
        let m = (batch * spatial) as f32;
        let c = self.channels;
        let dy = grad_out.data();
        let xh = xhat.data();

        // Per-channel sums.
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        for ((ch, dy), xh) in planes(dy, c, spatial).zip(xh.chunks_exact(spatial)) {
            let (mut s, mut sx) = (sum_dy[ch], sum_dy_xhat[ch]);
            for (&d, &h) in dy.iter().zip(xh) {
                s += d;
                sx += d * h;
            }
            (sum_dy[ch], sum_dy_xhat[ch]) = (s, sx);
        }
        for ch in 0..c {
            self.grad_beta.data_mut()[ch] += sum_dy[ch];
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat[ch];
        }
        let g = self.gamma.data();
        let mut gin = vec![0.0f32; dy.len()];
        for (i, ((ch, dy), xh)) in planes(dy, c, spatial)
            .zip(xh.chunks_exact(spatial))
            .enumerate()
        {
            let scale = g[ch] * self.cached_inv_std[ch] / m;
            let (sdy, sdx) = (sum_dy[ch], sum_dy_xhat[ch]);
            let dst = &mut gin[i * spatial..(i + 1) * spatial];
            for ((o, &d), &h) in dst.iter_mut().zip(dy).zip(xh) {
                *o = scale * (m * d - sdy - h * sdx);
            }
        }
        Tensor::from_vec(gin, grad_out.shape())
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.scale_assign(0.0);
        self.grad_beta.scale_assign(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[64, 2], 3.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x, true);
        // Per-channel mean ~0, var ~1 after normalization.
        for ch in 0..2 {
            let vals: Vec<f32> = (0..64).map(|r| y.at2(r, ch)).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 64.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        // Feed many training batches so running stats converge.
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 1], 2.0, &mut rng).map(|v| v + 10.0);
            let _ = bn.forward(&x, true);
        }
        // Eval on a constant input: output should be ~(10-10)/2 γ + β = 0.
        let x = Tensor::full(&[4, 1], 10.0);
        let y = bn.forward(&x, false);
        for &v in y.data() {
            assert!(v.abs() < 0.2, "eval output {v}");
        }
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[5, 2], 1.0, &mut rng);
        // Random upstream gradient; L = Σ r ⊙ y.
        let r = Tensor::randn(&[5, 2], 1.0, &mut rng);
        let y = bn.forward(&x, true);
        let _ = y;
        let gin = bn.backward(&r);
        let eps = 1e-2f32;
        for k in [0usize, 3, 9] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let mut bn_p = BatchNorm::new(2);
            let mut bn_m = BatchNorm::new(2);
            let lp: f32 = bn_p
                .forward(&xp, true)
                .data()
                .iter()
                .zip(r.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = bn_m
                .forward(&xm, true)
                .data()
                .iter()
                .zip(r.data())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gin.data()[k] - numeric).abs() < 0.02 * numeric.abs().max(1.0),
                "x[{k}]: {} vs {}",
                gin.data()[k],
                numeric
            );
        }
    }

    #[test]
    fn nchw_input_supported() {
        let mut bn = BatchNorm::new(3);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = bn.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
        let g = bn.backward(&Tensor::full(x.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn params_are_gamma_beta() {
        let bn = BatchNorm::new(4);
        assert_eq!(bn.param_count(), 8);
    }

    #[test]
    #[should_panic(expected = "without a preceding training forward")]
    fn backward_after_eval_forward_panics() {
        let mut bn = BatchNorm::new(2);
        let x = Tensor::full(&[2, 2, 2, 2], 1.0);
        bn.forward(&x, true);
        bn.forward(&x, false);
        let _ = bn.backward(&x);
    }

    /// Naive batch norm over flat indices — channel `(i / spatial) % C`,
    /// every per-channel sum accumulated in ascending `i` — returning
    /// the training output, the eval output (from the running statistics
    /// that training forward leaves behind), dγ, dβ and dx.
    fn naive(x: &Tensor, dy: &Tensor, gamma: &[f32], beta: &[f32]) -> [Vec<f32>; 5] {
        let c = gamma.len();
        let spatial = x.shape()[2..].iter().product::<usize>();
        let m = (x.len() / c) as f32;
        let ch = |i: usize| (i / spatial) % c;
        let (x, dy) = (x.data(), dy.data());
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        for (i, &v) in x.iter().enumerate() {
            mean[ch(i)] += v;
        }
        mean.iter_mut().for_each(|mu| *mu /= m);
        for (i, &v) in x.iter().enumerate() {
            var[ch(i)] += (v - mean[ch(i)]) * (v - mean[ch(i)]);
        }
        var.iter_mut().for_each(|s| *s /= m);
        let normalize = |mean: &[f32], var: &[f32]| -> (Vec<f32>, Vec<f32>) {
            let inv: Vec<f32> = var.iter().map(|&s| 1.0 / (s + EPS).sqrt()).collect();
            let xhat: Vec<f32> = (0..x.len())
                .map(|i| (x[i] - mean[ch(i)]) * inv[ch(i)])
                .collect();
            let y = (0..x.len())
                .map(|i| gamma[ch(i)] * xhat[i] + beta[ch(i)])
                .collect();
            (xhat, y)
        };
        let (xhat, y) = normalize(&mean, &var);
        let run_mean: Vec<f32> = mean.iter().map(|&mu| 0.9 * 0.0 + 0.1 * mu).collect();
        let run_var: Vec<f32> = var.iter().map(|&s| 0.9 * 1.0 + 0.1 * s).collect();
        let (_, y_eval) = normalize(&run_mean, &run_var);
        let inv: Vec<f32> = var.iter().map(|&s| 1.0 / (s + EPS).sqrt()).collect();
        let (mut sdy, mut sdx) = (vec![0.0f32; c], vec![0.0f32; c]);
        for i in 0..x.len() {
            sdy[ch(i)] += dy[i];
            sdx[ch(i)] += dy[i] * xhat[i];
        }
        let gx = (0..x.len())
            .map(|i| {
                let k = ch(i);
                gamma[k] * inv[k] / m * (m * dy[i] - sdy[k] - xhat[i] * sdx[k])
            })
            .collect();
        [y, y_eval, sdx, sdy, gx]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_and_backward_match_naive_bits() {
        for (seed, shape) in [[32, 8, 16, 16], [32, 16, 8, 8], [3, 5, 3, 7], [64, 4, 1, 1]]
            .iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(10 + seed as u64);
            let c = shape[1];
            let mut bn = BatchNorm::new(c);
            bn.gamma = Tensor::randn(&[c], 1.0, &mut rng);
            bn.beta = Tensor::randn(&[c], 1.0, &mut rng);
            let x = Tensor::randn(shape, 2.0, &mut rng).map(|v| v + 0.5);
            let dy = Tensor::randn(shape, 1.0, &mut rng);
            let [y, y_eval, dgamma, dbeta, gx] = naive(&x, &dy, bn.gamma.data(), bn.beta.data());
            assert_eq!(bits(bn.forward(&x, true).data()), bits(&y), "y {shape:?}");
            assert_eq!(bits(bn.backward(&dy).data()), bits(&gx), "dx {shape:?}");
            assert_eq!(
                bits(bn.grads()[0].data()),
                bits(&dgamma),
                "dgamma {shape:?}"
            );
            assert_eq!(bits(bn.grads()[1].data()), bits(&dbeta), "dbeta {shape:?}");
            assert_eq!(
                bits(bn.forward(&x, false).data()),
                bits(&y_eval),
                "eval y {shape:?}"
            );
        }
    }
}
