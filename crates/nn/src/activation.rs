//! Element-wise activation layers.

use crate::Layer;
use saps_tensor::Tensor;

/// Rectified linear unit: `y = max(x, 0)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.cached_input = train.then(|| input.clone());
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called without a preceding forward");
        assert_eq!(input.shape(), grad_out.shape());
        let data = input
            .data()
            .iter()
            .zip(grad_out.data())
            .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
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

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let out = input.map(f32::tanh);
        self.cached_output = train.then(|| out.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .take()
            .expect("backward called without a preceding forward");
        let data = out
            .data()
            .iter()
            .zip(grad_out.data())
            .map(|(&y, &g)| g * (1.0 - y * y))
            .collect();
        Tensor::from_vec(data, grad_out.shape())
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
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -0.7], &[2]);
        let _ = t.forward(&x, true);
        let g = t.backward(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
        let eps = 1e-3f32;
        for k in 0..2 {
            let fp = (x.data()[k] + eps).tanh();
            let fm = (x.data()[k] - eps).tanh();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((g.data()[k] - numeric).abs() < 1e-4);
        }
    }

    #[test]
    fn activations_have_no_params() {
        let r = Relu::new();
        assert_eq!(r.param_count(), 0);
        assert!(r.grads().is_empty());
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn relu_backward_after_eval_forward_panics() {
        let mut r = Relu::new();
        let x = Tensor::full(&[2], 1.0);
        r.forward(&x, true);
        r.forward(&x, false);
        let _ = r.backward(&x);
    }
}
