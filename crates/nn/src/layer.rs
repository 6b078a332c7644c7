//! The layer abstraction.

use saps_tensor::Tensor;

/// A differentiable layer.
///
/// The contract is classic define-by-run backprop: a training-mode
/// [`Layer::forward`] caches whatever it needs, and the next
/// [`Layer::backward`] call consumes that cache (one backward per
/// forward). An eval-mode forward caches nothing and drops any earlier
/// cache, so a backward after it panics. Parameter gradients accumulate
/// into the layer until [`Layer::zero_grads`].
///
/// `Send + Sync` are supertraits so whole models can move between the
/// round engine's worker threads (and be read through `&` from several
/// of them); layers are plain tensors plus caches with no interior
/// mutability, so every implementation satisfies both for free.
pub trait Layer: Send + Sync {
    /// Computes the layer output. `train` distinguishes training-mode
    /// behaviour (e.g. batch-norm statistics) and whether the backward
    /// cache is kept.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable views of the layer's parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's parameter tensors, in the same order
    /// as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable views of the accumulated parameter gradients, aligned
    /// with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Clears accumulated gradients.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
