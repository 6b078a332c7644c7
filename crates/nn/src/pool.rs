//! Pooling layers.

use crate::Layer;
use saps_tensor::Tensor;

/// 2-D max pooling with square window and stride equal to the window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    channels: usize,
    in_h: usize,
    in_w: usize,
    cached_argmax: Option<Vec<u32>>,
    cached_batch: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer for `channels × in_h × in_w` inputs.
    pub fn new(window: usize, channels: usize, in_h: usize, in_w: usize) -> Self {
        assert!(window >= 1);
        assert!(
            in_h.is_multiple_of(window) && in_w.is_multiple_of(window),
            "pooling window must tile the input exactly"
        );
        MaxPool2d {
            window,
            channels,
            in_h,
            in_w,
            cached_argmax: None,
            cached_batch: 0,
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.in_h / self.window
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.in_w / self.window
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(
            input.shape(),
            &[input.shape()[0], self.channels, self.in_h, self.in_w],
            "MaxPool2d input shape mismatch"
        );
        let batch = input.shape()[0];
        let (c, oh, ow, k) = (self.channels, self.out_h(), self.out_w(), self.window);
        let x = input.data();
        let mut out = vec![0.0f32; batch * c * oh * ow];
        let mut argmax = vec![0u32; batch * c * oh * ow];
        for n in 0..batch {
            for ci in 0..c {
                let plane = (n * c + ci) * self.in_h * self.in_w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0u32;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = plane + (oy * k + ky) * self.in_w + (ox * k + kx);
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx as u32;
                                }
                            }
                        }
                        let o = ((n * c + ci) * oh + oy) * ow + ox;
                        out[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        self.cached_argmax = train.then_some(argmax);
        self.cached_batch = batch;
        Tensor::from_vec(out, &[batch, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self
            .cached_argmax
            .take()
            .expect("backward called without a preceding forward");
        let batch = self.cached_batch;
        let mut gin = vec![0.0f32; batch * self.channels * self.in_h * self.in_w];
        for (o, &src) in argmax.iter().enumerate() {
            gin[src as usize] += grad_out.data()[o];
        }
        Tensor::from_vec(gin, &[batch, self.channels, self.in_h, self.in_w])
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

/// Global average pooling: NCHW → `[batch, channels]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    channels: usize,
    in_h: usize,
    in_w: usize,
    cached_batch: usize,
}

impl GlobalAvgPool {
    /// Creates a global average pool for `channels × in_h × in_w` inputs.
    pub fn new(channels: usize, in_h: usize, in_w: usize) -> Self {
        GlobalAvgPool {
            channels,
            in_h,
            in_w,
            cached_batch: 0,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let batch = input.shape()[0];
        assert_eq!(input.shape(), &[batch, self.channels, self.in_h, self.in_w]);
        let area = (self.in_h * self.in_w) as f32;
        let mut out = vec![0.0f32; batch * self.channels];
        for n in 0..batch {
            for c in 0..self.channels {
                let plane = (n * self.channels + c) * self.in_h * self.in_w;
                let s: f32 = input.data()[plane..plane + self.in_h * self.in_w]
                    .iter()
                    .sum();
                out[n * self.channels + c] = s / area;
            }
        }
        self.cached_batch = batch;
        Tensor::from_vec(out, &[batch, self.channels])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = self.cached_batch;
        let area = (self.in_h * self.in_w) as f32;
        let mut gin = vec![0.0f32; batch * self.channels * self.in_h * self.in_w];
        for n in 0..batch {
            for c in 0..self.channels {
                let g = grad_out.data()[n * self.channels + c] / area;
                let plane = (n * self.channels + c) * self.in_h * self.in_w;
                for v in &mut gin[plane..plane + self.in_h * self.in_w] {
                    *v = g;
                }
            }
        }
        Tensor::from_vec(gin, &[batch, self.channels, self.in_h, self.in_w])
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_known_values() {
        let mut p = MaxPool2d::new(2, 1, 4, 4);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 1, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avg_pool_values_and_gradient() {
        let mut p = GlobalAvgPool::new(2, 2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[2.5, 10.0]);
        let g = p.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "tile the input")]
    fn maxpool_rejects_non_tiling_window() {
        let _ = MaxPool2d::new(3, 1, 4, 4);
    }
}
