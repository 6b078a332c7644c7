//! 2-D convolution via im2col.

use crate::Layer;
use rand::Rng;
use saps_tensor::Tensor;
use std::ops::Range;

/// A 2-D convolution layer (stride-1 or stride-2, symmetric zero padding),
/// NCHW layout.
///
/// Implemented as im2col + GEMM: the input patches are unrolled into a
/// `[batch·H_out·W_out, C_in·k·k]` matrix and multiplied by the
/// `[C_in·k·k, C_out]` kernel matrix.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_h: usize,
    in_w: usize,
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    /// im2col columns of the last training forward, read by backward and
    /// overwritten in place by the next training forward.
    cols: Vec<f32>,
    /// Batch of the training forward `cols` belongs to; `None` once
    /// backward has consumed it or after an eval-mode forward.
    cached_batch: Option<usize>,
}

impl Conv2d {
    /// Creates a convolution for inputs of spatial size `in_h × in_w`.
    /// Kaiming-uniform initialization.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(stride >= 1 && kernel >= 1);
        let fan_in = in_channels * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_h,
            in_w,
            w: Tensor::uniform(&[fan_in, out_channels], bound, rng),
            b: Tensor::zeros(&[out_channels]),
            grad_w: Tensor::zeros(&[fan_in, out_channels]),
            grad_b: Tensor::zeros(&[out_channels]),
            cols: Vec::new(),
            cached_batch: None,
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The kernel taps `0..k` that land inside an input axis of length
    /// `len` for output coordinate `o`; the rest fall on zero padding.
    fn valid_taps(&self, o: usize, len: usize) -> Range<usize> {
        let start = o * self.stride;
        let first = self.padding.saturating_sub(start);
        let last = (len + self.padding).saturating_sub(start).min(self.kernel);
        first..last.max(first)
    }

    /// Writes the in-bounds taps of the im2col rows `[batch·oh·ow,
    /// C_in·k·k]` of `x` into `cols`, one row per output position.
    ///
    /// Padding taps are never written. `cols` must be zero wherever a
    /// padding tap falls, which holds for a freshly zeroed buffer and for
    /// one only ever written by this method: which taps are padding
    /// depends on the output position alone, not on the input.
    fn im2col(&self, x: &[f32], cols: &mut [f32]) {
        let (c, h, w, k) = (self.in_channels, self.in_h, self.in_w, self.kernel);
        let (s, p) = (self.stride, self.padding);
        let mut rows = cols.chunks_exact_mut(c * k * k);
        for image in x.chunks_exact(c * h * w) {
            for oy in 0..self.out_h() {
                let ky = self.valid_taps(oy, h);
                for ox in 0..self.out_w() {
                    let kx = self.valid_taps(ox, w);
                    let ix = ox * s + kx.start - p;
                    let row = rows.next().expect("one im2col row per output position");
                    if kx.is_empty() {
                        continue;
                    }
                    for (plane, taps) in image.chunks_exact(h * w).zip(row.chunks_exact_mut(k * k))
                    {
                        for ty in ky.clone() {
                            let iy = oy * s + ty - p;
                            copy_run(
                                &mut taps[ty * k + kx.start..][..kx.len()],
                                &plane[iy * w + ix..][..kx.len()],
                            );
                        }
                    }
                }
            }
        }
    }

    /// Scatters im2col-row gradients back onto an NCHW input gradient,
    /// adding each input's contributions in ascending output position.
    fn col2im(&self, grad_cols: &[f32], batch: usize) -> Tensor {
        let (c, h, w, k) = (self.in_channels, self.in_h, self.in_w, self.kernel);
        let (s, p) = (self.stride, self.padding);
        let mut out = vec![0.0f32; batch * c * h * w];
        let mut rows = grad_cols.chunks_exact(c * k * k);
        for image in out.chunks_exact_mut(c * h * w) {
            for oy in 0..self.out_h() {
                let ky = self.valid_taps(oy, h);
                for ox in 0..self.out_w() {
                    let kx = self.valid_taps(ox, w);
                    let ix = ox * s + kx.start - p;
                    let row = rows.next().expect("one im2col row per output position");
                    if kx.is_empty() {
                        continue;
                    }
                    for (plane, taps) in image.chunks_exact_mut(h * w).zip(row.chunks_exact(k * k))
                    {
                        for ty in ky.clone() {
                            let iy = oy * s + ty - p;
                            let dst = &mut plane[iy * w + ix..][..kx.len()];
                            let src = &taps[ty * k + kx.start..][..kx.len()];
                            add_run(dst, src);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, c, h, w])
    }

    /// Rearranges `[batch·oh·ow, C_out]` column output into NCHW, adding
    /// the per-channel bias.
    fn cols_to_nchw(&self, out_cols: &Tensor, batch: usize) -> Tensor {
        let (hw, oc) = (self.out_h() * self.out_w(), self.out_channels);
        let mut out = vec![0.0f32; batch * oc * hw];
        let bias = self.b.data();
        for (dst, src) in out
            .chunks_exact_mut(oc * hw)
            .zip(out_cols.data().chunks_exact(hw * oc))
        {
            for (pos, row) in src.chunks_exact(oc).enumerate() {
                for ((co, &v), &b) in row.iter().enumerate().zip(bias) {
                    dst[co * hw + pos] = v + b;
                }
            }
        }
        Tensor::from_vec(out, &[batch, oc, self.out_h(), self.out_w()])
    }

    /// Rearranges an NCHW gradient into `[batch·oh·ow, C_out]` columns.
    fn nchw_to_cols(&self, grad: &Tensor, batch: usize) -> Tensor {
        let (hw, oc) = (self.out_h() * self.out_w(), self.out_channels);
        let mut out = vec![0.0f32; batch * hw * oc];
        for (dst, src) in out
            .chunks_exact_mut(hw * oc)
            .zip(grad.data().chunks_exact(oc * hw))
        {
            for (pos, row) in dst.chunks_exact_mut(oc).enumerate() {
                for (co, v) in row.iter_mut().enumerate() {
                    *v = src[co * hw + pos];
                }
            }
        }
        Tensor::from_vec(out, &[batch * hw, oc])
    }
}

// im2col moves taps in runs of at most `k`. Slice operations this short
// compile to a `memcpy` call or a vector loop with a scalar tail, so the
// full rows of 3×3 kernels — nearly every run in the model zoo — go
// through fixed-size arrays.

/// `dst = src` for one run of taps.
fn copy_run(dst: &mut [f32], src: &[f32]) {
    match (
        <&mut [f32; 3]>::try_from(&mut *dst),
        <&[f32; 3]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// `dst += src` for one run of taps.
fn add_run(dst: &mut [f32], src: &[f32]) {
    let add = |dst: &mut [f32], src: &[f32]| dst.iter_mut().zip(src).for_each(|(d, &g)| *d += g);
    match (
        <&mut [f32; 3]>::try_from(&mut *dst),
        <&[f32; 3]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => add(d, s),
        _ => add(dst, src),
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 4, "Conv2d expects NCHW input");
        let batch = input.shape()[0];
        assert_eq!(input.shape()[1], self.in_channels, "channel mismatch");
        assert_eq!(input.shape()[2], self.in_h, "height mismatch");
        assert_eq!(input.shape()[3], self.in_w, "width mismatch");
        let shape = [batch * self.out_h() * self.out_w(), self.w.shape()[0]];
        // Training reuses the layer's column buffer and keeps it for
        // backward; eval mode unrolls into a temporary.
        let mut cols = if train {
            std::mem::take(&mut self.cols)
        } else {
            Vec::new()
        };
        cols.resize(shape[0] * shape[1], 0.0);
        self.im2col(input.data(), &mut cols);
        let cols = Tensor::from_vec(cols, &shape);
        let out = self.cols_to_nchw(&cols.matmul(&self.w), batch);
        if train {
            self.cols = cols.into_vec();
        }
        self.cached_batch = train.then_some(batch);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = self
            .cached_batch
            .take()
            .expect("backward called without a preceding forward");
        let grad_cols = self.nchw_to_cols(grad_out, batch);
        // dW = colsᵀ · dy_cols.
        let cols = Tensor::from_vec(
            std::mem::take(&mut self.cols),
            &[grad_cols.shape()[0], self.w.shape()[0]],
        );
        let gw = cols.t_matmul(&grad_cols);
        self.cols = cols.into_vec();
        self.grad_w.add_scaled_assign(&gw, 1.0);
        // db = column-sum of dy_cols.
        let oc = self.out_channels;
        let gb = self.grad_b.data_mut();
        for row in grad_cols.data().chunks_exact(oc) {
            for (g, &v) in gb.iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx = col2im(dy_cols · Wᵀ).
        let grad_input_cols = grad_cols.matmul_t(&self.w);
        self.col2im(grad_input_cols.data(), batch)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_w, &self.grad_b]
    }

    fn zero_grads(&mut self) {
        self.grad_w.scale_assign(0.0);
        self.grad_b.scale_assign(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_passthrough() {
        // 1×1 kernel with weight 1 reproduces the input.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 3, 3, &mut rng);
        conv.params_mut()[0].data_mut()[0] = 1.0;
        conv.params_mut()[0].scale_assign(1.0);
        conv.w.data_mut()[0] = 1.0;
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn known_3x3_convolution() {
        // 3×3 all-ones kernel over a 3×3 all-ones image with padding 1:
        // centre sees 9, edges 6, corners 4.
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 3, 3, &mut rng);
        for v in conv.w.data_mut() {
            *v = 1.0;
        }
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(3, 8, 3, 2, 1, 8, 8, &mut rng);
        assert_eq!(conv.out_h(), 4);
        assert_eq!(conv.out_w(), 4);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 4, 4, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        let gin = conv.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-2f32;
        // Weight gradient at a few positions.
        let analytic_w = conv.grads()[0].clone();
        for k in [0usize, 7, 23] {
            let orig = conv.w.data()[k];
            conv.w.data_mut()[k] = orig + eps;
            let lp = conv.forward(&x, true).sum();
            conv.w.data_mut()[k] = orig - eps;
            let lm = conv.forward(&x, true).sum();
            conv.w.data_mut()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic_w.data()[k] - numeric).abs() < 0.05 * numeric.abs().max(1.0),
                "w[{k}]: {} vs {}",
                analytic_w.data()[k],
                numeric
            );
        }
        // Input gradient at a few positions.
        for k in [0usize, 17, 40] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let lp = conv.forward(&xp, true).sum();
            let lm = conv.forward(&xm, true).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gin.data()[k] - numeric).abs() < 0.05 * numeric.abs().max(1.0),
                "x[{k}]: {} vs {}",
                gin.data()[k],
                numeric
            );
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        // dL/db for L = sum(y) equals batch · oh · ow per channel.
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 4, 4, &mut rng);
        let x = Tensor::randn(&[3, 1, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::full(y.shape(), 1.0));
        for &g in conv.grads()[1].data() {
            assert!((g - 48.0).abs() < 1e-3); // 3 batch × 16 positions
        }
    }

    #[test]
    fn param_count_formula() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv2d::new(3, 16, 5, 1, 2, 32, 32, &mut rng);
        assert_eq!(conv.param_count(), 3 * 5 * 5 * 16 + 16);
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 4, 4, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true);
        conv.forward(&x, false);
        let _ = conv.backward(&Tensor::full(y.shape(), 1.0));
    }

    /// Input `(n, ci, iy, ix)` of the tap `(ky, kx)` at output `(oy, ox)`,
    /// or `None` on padding.
    fn tap(conv: &Conv2d, oy: usize, ox: usize, ky: usize, kx: usize) -> Option<(usize, usize)> {
        let iy = (oy * conv.stride + ky).checked_sub(conv.padding)?;
        let ix = (ox * conv.stride + kx).checked_sub(conv.padding)?;
        (iy < conv.in_h && ix < conv.in_w).then_some((iy, ix))
    }

    /// Naive forward, weight, bias and input gradients, each summed from
    /// `+0.0` in the order the layer promises: taps `(ci, ky, kx)`
    /// ascending for outputs, output positions `(n, oy, ox)` ascending for
    /// the weight/bias/input gradients.
    fn naive(conv: &Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f32>; 4] {
        let (c, oc, k) = (conv.in_channels, conv.out_channels, conv.kernel);
        let (h, w, oh, ow) = (conv.in_h, conv.in_w, conv.out_h(), conv.out_w());
        let batch = x.shape()[0];
        let (wd, bd, xd, g) = (conv.w.data(), conv.b.data(), x.data(), dy.data());
        let xi = |n: usize, ci: usize, iy: usize, ix: usize| ((n * c + ci) * h + iy) * w + ix;
        let yi = |n: usize, co: usize, oy: usize, ox: usize| ((n * oc + co) * oh + oy) * ow + ox;
        let mut y = vec![0.0f32; batch * oc * oh * ow];
        let mut gw = vec![0.0f32; c * k * k * oc];
        let mut gb = vec![0.0f32; oc];
        let mut gx = vec![0.0f32; xd.len()];
        for n in 0..batch {
            for oy in 0..oh {
                for ox in 0..ow {
                    for co in 0..oc {
                        let mut acc = 0.0f32;
                        for ci in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let v = tap(conv, oy, ox, ky, kx)
                                        .map_or(0.0, |(iy, ix)| xd[xi(n, ci, iy, ix)]);
                                    acc += v * wd[((ci * k + ky) * k + kx) * oc + co];
                                }
                            }
                        }
                        y[yi(n, co, oy, ox)] = acc + bd[co];
                        gb[co] += g[yi(n, co, oy, ox)];
                    }
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let j = (ci * k + ky) * k + kx;
                                let mut acc = 0.0f32;
                                for co in 0..oc {
                                    acc += g[yi(n, co, oy, ox)] * wd[j * oc + co];
                                }
                                if let Some((iy, ix)) = tap(conv, oy, ox, ky, kx) {
                                    gx[xi(n, ci, iy, ix)] += acc;
                                }
                            }
                        }
                    }
                }
            }
        }
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let j = (ci * k + ky) * k + kx;
                    for co in 0..oc {
                        let mut acc = 0.0f32;
                        for n in 0..batch {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let v = tap(conv, oy, ox, ky, kx)
                                        .map_or(0.0, |(iy, ix)| xd[xi(n, ci, iy, ix)]);
                                    acc += v * g[yi(n, co, oy, ox)];
                                }
                            }
                        }
                        gw[j * oc + co] = acc;
                    }
                }
            }
        }
        [y, gw, gb, gx]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_and_backward_match_naive_bits() {
        // (C_in, C_out, k, stride, pad, H, W): the resnet_tiny stem, block
        // convs, stride-2 convs and 1×1 projection, plus odd shapes.
        let shapes = [
            (1, 8, 3, 1, 1, 16, 16),
            (8, 8, 3, 1, 1, 16, 16),
            (8, 16, 3, 2, 1, 16, 16),
            (8, 16, 1, 2, 0, 16, 16),
            (16, 16, 3, 1, 1, 8, 8),
            (3, 4, 3, 2, 0, 7, 5),
            (2, 3, 5, 1, 2, 6, 6),
            (2, 2, 2, 2, 1, 5, 4),
        ];
        for (seed, &(c, oc, k, s, p, h, w)) in shapes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(100 + seed as u64);
            let mut conv = Conv2d::new(c, oc, k, s, p, h, w, &mut rng);
            conv.b = Tensor::randn(&[oc], 0.1, &mut rng);
            // Post-ReLU inputs: about half exact zeros.
            let x = Tensor::randn(&[3, c, h, w], 1.0, &mut rng).map(|v| v.max(0.0));
            let dy = Tensor::randn(&[3, oc, conv.out_h(), conv.out_w()], 1.0, &mut rng);
            let [y, gw, gb, gx] = naive(&conv, &x, &dy);
            // Twice, so the second pass runs on the recycled column buffer.
            for _ in 0..2 {
                conv.zero_grads();
                let shape = format!("{:?}", (c, oc, k, s, p, h, w));
                assert_eq!(bits(conv.forward(&x, true).data()), bits(&y), "y {shape}");
                assert_eq!(
                    bits(conv.forward(&x, false).data()),
                    bits(&y),
                    "eval y {shape}"
                );
                conv.forward(&x, true);
                let got_gx = conv.backward(&dy);
                assert_eq!(bits(conv.grads()[0].data()), bits(&gw), "dW {shape}");
                assert_eq!(bits(conv.grads()[1].data()), bits(&gb), "db {shape}");
                assert_eq!(bits(got_gx.data()), bits(&gx), "dx {shape}");
            }
        }
    }
}
