//! Fully connected layer.

use crate::Layer;
use rand::Rng;
use saps_tensor::Tensor;

/// A dense (fully connected) layer: `y = x W + b`.
///
/// Input `[batch, in_dim]`, output `[batch, out_dim]`; `W` is
/// `[in_dim, out_dim]`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialization
    /// (`bound = sqrt(6 / in_dim)`), biases at zero.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let bound = (6.0 / in_dim as f32).sqrt();
        Dense {
            w: Tensor::uniform(&[in_dim, out_dim], bound, rng),
            b: Tensor::zeros(&[out_dim]),
            grad_w: Tensor::zeros(&[in_dim, out_dim]),
            grad_b: Tensor::zeros(&[out_dim]),
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Dense expects [batch, in_dim]");
        assert_eq!(input.shape()[1], self.in_dim(), "input dim mismatch");
        let mut out = input.matmul(&self.w);
        let (batch, od) = (out.shape()[0], out.shape()[1]);
        let b = self.b.data();
        let data = out.data_mut();
        for r in 0..batch {
            for c in 0..od {
                data[r * od + c] += b[c];
            }
        }
        self.cached_input = train.then(|| input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called without a preceding forward");
        // dW = xᵀ · dy, db = column-sum(dy), dx = dy · Wᵀ.
        let gw = input.t_matmul(grad_out);
        self.grad_w.add_scaled_assign(&gw, 1.0);
        let (batch, od) = (grad_out.shape()[0], grad_out.shape()[1]);
        let gb = self.grad_b.data_mut();
        let g = grad_out.data();
        for r in 0..batch {
            for c in 0..od {
                gb[c] += g[r * od + c];
            }
        }
        grad_out.matmul_t(&self.w)
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
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        // Zero weights isolate the bias.
        d.params_mut()[0].scale_assign(0.0);
        d.params_mut()[1].data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.data(), &[1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Dense::new(10, 5, &mut rng);
        assert_eq!(d.param_count(), 55);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dW for L = sum(y).
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = d.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        d.backward(&ones);
        let analytic = d.grads()[0].clone();
        let eps = 1e-3f32;
        for k in [0usize, 5, 11] {
            let orig = d.w.data()[k];
            d.w.data_mut()[k] = orig + eps;
            let lp = d.forward(&x, true).sum();
            d.w.data_mut()[k] = orig - eps;
            let lm = d.forward(&x, true).sum();
            d.w.data_mut()[k] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic.data()[k] - numeric).abs() < 1e-2,
                "k={k}: analytic {} vs numeric {}",
                analytic.data()[k],
                numeric
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(&[1, 3], 1.0, &mut rng);
        let _ = d.forward(&x, true);
        let gin = d.backward(&Tensor::full(&[1, 2], 1.0));
        let eps = 1e-3f32;
        for k in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let lp = d.forward(&xp, true).sum();
            let lm = d.forward(&xm, true).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((gin.data()[k] - numeric).abs() < 1e-2);
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::full(&[1, 2], 1.0);
        let g = Tensor::full(&[1, 2], 1.0);
        d.forward(&x, true);
        d.backward(&g);
        let after_one = d.grads()[0].data()[0];
        d.forward(&x, true);
        d.backward(&g);
        assert!((d.grads()[0].data()[0] - 2.0 * after_one).abs() < 1e-6);
        d.zero_grads();
        assert_eq!(d.grads()[0].data()[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut d = Dense::new(2, 2, &mut rng);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn backward_after_eval_forward_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::full(&[1, 2], 1.0);
        d.forward(&x, true);
        d.forward(&x, false);
        let _ = d.backward(&Tensor::zeros(&[1, 2]));
    }
}
