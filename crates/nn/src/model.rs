//! Model composition: sequential stacks, residual blocks and flat
//! parameter access.

use crate::{accuracy, softmax_cross_entropy, BatchNorm, Conv2d, Layer, Relu};
use rand::Rng;
use saps_data::{Batch, Dataset};
use saps_tensor::Tensor;

/// A feed-forward model: a sequence of layers plus the input shape
/// (excluding the batch dimension) used to fold flat feature rows into
/// the first layer's expected layout.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Vec<usize>,
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("layers", &self.layers.len())
            .field("input_shape", &self.input_shape)
            .field("params", &self.num_params())
            .finish()
    }
}

impl Model {
    /// Builds a model from layers. `input_shape` is the per-example shape,
    /// e.g. `[784]` for an MLP or `[1, 28, 28]` for a conv net.
    pub fn new(layers: Vec<Box<dyn Layer>>, input_shape: Vec<usize>) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        Model {
            layers,
            input_shape,
        }
    }

    /// Per-example input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-example flattened input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// Total scalar parameter count `N`.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass over a flat feature batch (`rows × input_dim`).
    pub fn forward(&mut self, features: &[f32], rows: usize, train: bool) -> Tensor {
        assert_eq!(features.len(), rows * self.input_dim(), "feature size");
        let mut shape = vec![rows];
        shape.extend_from_slice(&self.input_shape);
        let mut x = Tensor::from_vec(features.to_vec(), &shape);
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Backward pass from a loss gradient on the logits.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Computes loss/accuracy on a batch and accumulates gradients
    /// (does **not** update parameters or clear gradients).
    pub fn compute_grads(&mut self, batch: &Batch) -> (f32, f32) {
        let logits = self.forward(&batch.features, batch.len(), true);
        let (loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
        let acc = accuracy(&logits, &batch.labels);
        self.backward(&grad);
        (loss, acc)
    }

    /// One plain-SGD step (Algorithm 2's `SGD` procedure:
    /// `net.x ← net.x − γ·∇`): forward, backward, update, zero grads.
    /// Returns `(loss, accuracy)` on the batch.
    pub fn train_step(&mut self, batch: &Batch, lr: f32) -> (f32, f32) {
        self.zero_grads();
        let (loss, acc) = self.compute_grads(batch);
        self.apply_sgd(lr);
        self.zero_grads();
        (loss, acc)
    }

    /// Applies `param ← param − lr · grad` to every parameter.
    pub fn apply_sgd(&mut self, lr: f32) {
        for layer in &mut self.layers {
            // Gradients and parameters are aligned by index; clone the
            // gradient values first to satisfy the borrow checker.
            let grads: Vec<Tensor> = layer.grads().into_iter().cloned().collect();
            for (p, g) in layer.params_mut().into_iter().zip(&grads) {
                p.add_scaled_assign(g, -lr);
            }
        }
    }

    /// Validation accuracy over up to `max_samples` examples of `ds`
    /// (eval mode; deterministic order).
    pub fn evaluate(&mut self, ds: &Dataset, max_samples: usize) -> f32 {
        let n = ds.len().min(max_samples);
        if n == 0 {
            return 0.0;
        }
        let chunk = 256usize;
        let mut correct = 0.0f64;
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let sub = ds.subset(&idx);
            let mut features = Vec::with_capacity((end - start) * ds.feature_dim());
            for i in 0..sub.len() {
                features.extend_from_slice(sub.features_of(i));
            }
            let logits = self.forward(&features, end - start, false);
            correct += (accuracy(&logits, sub.labels()) as f64) * (end - start) as f64;
            start = end;
        }
        (correct / n as f64) as f32
    }

    /// Copies all parameters into one flat vector (layer order, each
    /// layer's tensors in `params()` order) — the `x ∈ R^N` every
    /// distributed algorithm exchanges.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        self.copy_flat_params_into(&mut out);
        out
    }

    /// [`Model::flat_params`] into a caller-owned buffer, reusing its
    /// capacity — the allocation-free variant the per-round exchange
    /// paths use with their scratch buffers.
    pub fn copy_flat_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.num_params());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
    }

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`Model::flat_params`]).
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter size");
        let mut off = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
    }

    /// Copies all accumulated gradients into one flat vector aligned with
    /// [`Model::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }
}

/// A ResNet basic block: `ReLU(BN(conv(ReLU(BN(conv(x))))) + shortcut(x))`
/// with an optional 1×1 projection shortcut when shape changes.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm,
    projection: Option<(Conv2d, BatchNorm)>,
    cached_pre_relu: Option<Tensor>,
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_channels × in_h × in_w` to
    /// `out_channels × (in_h/stride) × (in_w/stride)`.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, stride, 1, in_h, in_w, rng);
        let (oh, ow) = (conv1.out_h(), conv1.out_w());
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, 1, oh, ow, rng);
        let projection = if stride != 1 || in_channels != out_channels {
            let proj = Conv2d::new(in_channels, out_channels, 1, stride, 0, in_h, in_w, rng);
            let bn = BatchNorm::new(out_channels);
            Some((proj, bn))
        } else {
            None
        };
        ResidualBlock {
            conv1,
            bn1: BatchNorm::new(out_channels),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm::new(out_channels),
            projection,
            cached_pre_relu: None,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut main = self.conv1.forward(input, train);
        main = self.bn1.forward(&main, train);
        main = self.relu1.forward(&main, train);
        main = self.conv2.forward(&main, train);
        main = self.bn2.forward(&main, train);
        let shortcut = match &mut self.projection {
            Some((proj, bn)) => {
                let s = proj.forward(input, train);
                bn.forward(&s, train)
            }
            None => input.clone(),
        };
        let pre = main.add(&shortcut);
        let out = pre.map(|v| v.max(0.0));
        self.cached_pre_relu = train.then_some(pre);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let pre = self
            .cached_pre_relu
            .take()
            .expect("backward called without a preceding forward");
        // Through the final ReLU.
        let grad_pre = Tensor::from_vec(
            pre.data()
                .iter()
                .zip(grad_out.data())
                .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
                .collect(),
            grad_out.shape(),
        );
        // Main path.
        let mut g = self.bn2.backward(&grad_pre);
        g = self.conv2.backward(&g);
        g = self.relu1.backward(&g);
        g = self.bn1.backward(&g);
        let grad_in_main = self.conv1.backward(&g);
        // Shortcut path.
        let grad_in_shortcut = match &mut self.projection {
            Some((proj, bn)) => {
                let g = bn.backward(&grad_pre);
                proj.backward(&g)
            }
            None => grad_pre,
        };
        grad_in_main.add(&grad_in_shortcut)
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        out.extend(self.conv1.params());
        out.extend(self.bn1.params());
        out.extend(self.conv2.params());
        out.extend(self.bn2.params());
        if let Some((proj, bn)) = &self.projection {
            out.extend(proj.params());
            out.extend(bn.params());
        }
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        out.extend(self.conv1.params_mut());
        out.extend(self.bn1.params_mut());
        out.extend(self.conv2.params_mut());
        out.extend(self.bn2.params_mut());
        if let Some((proj, bn)) = &mut self.projection {
            out.extend(proj.params_mut());
            out.extend(bn.params_mut());
        }
        out
    }

    fn grads(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        out.extend(self.conv1.grads());
        out.extend(self.bn1.grads());
        out.extend(self.conv2.grads());
        out.extend(self.bn2.grads());
        if let Some((proj, bn)) = &self.projection {
            out.extend(proj.grads());
            out.extend(bn.grads());
        }
        out
    }

    fn zero_grads(&mut self) {
        self.conv1.zero_grads();
        self.bn1.zero_grads();
        self.conv2.zero_grads();
        self.bn2.zero_grads();
        if let Some((proj, bn)) = &mut self.projection {
            proj.zero_grads();
            bn.zero_grads();
        }
    }
}

/// Flattens NCHW activations to `[batch, C·H·W]` between conv and dense
/// stages.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_shape = input.shape().to_vec();
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        input.clone().reshape(&[batch, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.cached_shape)
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
    use crate::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saps_data::SyntheticSpec;

    fn tiny_mlp(rng: &mut StdRng) -> Model {
        Model::new(
            vec![
                Box::new(Dense::new(16, 24, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(24, 4, rng)),
            ],
            vec![16],
        )
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = tiny_mlp(&mut rng);
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.num_params());
        let mut changed = flat.clone();
        changed[0] += 1.0;
        m.set_flat_params(&changed);
        assert_eq!(m.flat_params(), changed);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = tiny_mlp(&mut rng);
        let ds = SyntheticSpec::tiny().samples(512).generate(3);
        let first = {
            let b = ds.sample_batch(64, &mut rng);
            m.train_step(&b, 0.0).0 // lr 0: measure initial loss
        };
        for _ in 0..150 {
            let b = ds.sample_batch(64, &mut rng);
            m.train_step(&b, 0.1);
        }
        let last = {
            let b = ds.sample_batch(256, &mut rng);
            m.compute_grads(&b).0
        };
        assert!(last < first * 0.6, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn evaluate_beats_chance_after_training() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = tiny_mlp(&mut rng);
        let ds = SyntheticSpec::tiny().samples(1200).generate(5);
        let (train, val) = ds.split(0.2, 1);
        for _ in 0..300 {
            let b = train.sample_batch(64, &mut rng);
            m.train_step(&b, 0.1);
        }
        let acc = m.evaluate(&val, usize::MAX);
        assert!(acc > 0.5, "val accuracy {acc} (chance = 0.25)");
    }

    #[test]
    fn residual_block_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut block = ResidualBlock::new(4, 8, 2, 8, 8, &mut rng);
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        let g = block.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
        // Projection shortcut present because shape changed.
        assert!(block.projection.is_some());
    }

    #[test]
    fn residual_block_identity_shortcut() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut block = ResidualBlock::new(4, 4, 1, 6, 6, &mut rng);
        assert!(block.projection.is_none());
        let x = Tensor::randn(&[1, 4, 6, 6], 1.0, &mut rng);
        let y = block.forward(&x, true);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn residual_block_gradient_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut block = ResidualBlock::new(2, 2, 1, 4, 4, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.5, &mut rng);
        let _ = block.forward(&x, true);
        let gin = block.backward(&Tensor::full(&[1, 2, 4, 4], 1.0));
        let eps = 1e-2f32;
        for k in [0usize, 9, 21] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            // Fresh blocks with identical params (clone via flat copy).
            let lp = {
                let mut b2 = ResidualBlock::new(2, 2, 1, 4, 4, &mut StdRng::seed_from_u64(7));
                b2.forward(&xp, true).sum()
            };
            let lm = {
                let mut b2 = ResidualBlock::new(2, 2, 1, 4, 4, &mut StdRng::seed_from_u64(7));
                b2.forward(&xm, true).sum()
            };
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gin.data()[k] - numeric).abs() < 0.08 * numeric.abs().max(1.0),
                "x[{k}]: {} vs {}",
                gin.data()[k],
                numeric
            );
        }
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut StdRng::seed_from_u64(8));
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn two_models_same_seed_have_same_params() {
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let a = tiny_mlp(&mut r1);
        let b = tiny_mlp(&mut r2);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    #[should_panic(expected = "without a preceding forward")]
    fn residual_backward_after_eval_forward_panics() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut block = ResidualBlock::new(2, 4, 2, 4, 4, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let y = block.forward(&x, true);
        block.forward(&x, false);
        let _ = block.backward(&Tensor::full(y.shape(), 1.0));
    }
}
