//! Embedding optimizers executed on the parameter server.
//!
//! DLRM systems apply sparse-feature gradients on the PS so only gradients
//! travel over the wire. Optimizer state lives *inside the entry payload*,
//! immediately after the weights, so flush-backs and checkpoints capture
//! the exact training state and recovery resumes bit-identically.
//!
//! Payload layout: `[w_0..w_dim | state...]` where state is
//! - SGD: empty,
//! - AdaGrad: `dim` accumulator values,
//! - Adam: `dim` first moments, `dim` second moments, 1 step counter.
//!
//! # Kernel layout
//!
//! The applies are written as explicit `chunks_exact(KERNEL_LANES)`
//! loops plus a scalar remainder, the shape LLVM reliably turns into
//! SIMD (the fixed-width inner loop has no bounds checks and no
//! cross-iteration dependence). No fma intrinsics: every per-element
//! operation is the *same* correctly-rounded IEEE op the scalar
//! reference performs, in the same order, so the vectorized kernels are
//! bit-identical to [`Optimizer::apply_reference`] — the property the
//! `kernel_equiv` sweep and the `parallel_equiv` suite pin down.
//! [`Optimizer::apply_batch`] runs one kernel over `rows` contiguous
//! payload/gradient rows so a coalesced shard group amortizes dispatch
//! (and, for stateless SGD, collapses to a single flat kernel over the
//! whole run).

/// SIMD-friendly inner-loop width (f32 lanes per unrolled step).
pub const KERNEL_LANES: usize = 8;

/// Optimizer selection + hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD: `w -= lr * g`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// AdaGrad: `acc += g²; w -= lr * g / (√acc + eps)`. The standard
    /// choice for sparse embeddings (per-coordinate rates).
    Adagrad {
        /// Learning rate.
        lr: f32,
        /// Denominator stabilizer.
        eps: f32,
    },
    /// Adam with bias correction; step counter stored per entry.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Denominator stabilizer.
        eps: f32,
    },
}

impl OptimizerKind {
    /// Extra `f32`s of per-entry state for dimension `dim`.
    pub fn state_f32s(&self, dim: usize) -> usize {
        match self {
            OptimizerKind::Sgd { .. } => 0,
            OptimizerKind::Adagrad { .. } => dim,
            OptimizerKind::Adam { .. } => 2 * dim + 1,
        }
    }

    /// Build the stateless applier (vectorized kernels).
    pub fn build(self) -> Optimizer {
        Optimizer { kind: self }
    }

    /// True if the update is *linear in the gradient*, so duplicate
    /// gradients for one key may be summed and applied in a single step:
    /// `w -= lr·g₁; w -= lr·g₂` ≡ `w -= lr·(g₁+g₂)` for SGD. Stateful
    /// optimizers (AdaGrad's accumulator, Adam's moments) update their
    /// state *between* applies, so coalescing would change the result —
    /// they fall back to sequential per-occurrence applies.
    pub fn coalescible(&self) -> bool {
        matches!(self, OptimizerKind::Sgd { .. })
    }
}

/// A gradient/payload length mismatch caught before any element is
/// touched. Carried as a structured error (not a `debug_assert`) so a
/// short gradient can never silently update a prefix of the row and
/// leave stale state behind in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeError {
    /// Embedding dimension the apply was issued for.
    pub dim: usize,
    /// Gradient f32s actually supplied (wanted `dim` per row).
    pub grad_len: usize,
    /// Payload f32s actually supplied.
    pub payload_len: usize,
    /// Payload f32s the optimizer's state layout requires per row.
    pub payload_expected: usize,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "optimizer shape mismatch: dim {} wants grad {} and payload {}, got grad {} and payload {}",
            self.dim, self.dim, self.payload_expected, self.grad_len, self.payload_len
        )
    }
}

impl std::error::Error for ShapeError {}

/// Applies gradients to an entry payload in place.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    kind: OptimizerKind,
}

impl Optimizer {
    /// The configured kind.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// See [`OptimizerKind::coalescible`].
    pub fn coalescible(&self) -> bool {
        self.kind.coalescible()
    }

    fn check(&self, dim: usize, payload_len: usize, grad_len: usize) -> Result<(), ShapeError> {
        let payload_expected = dim + self.kind.state_f32s(dim);
        if grad_len != dim || payload_len != payload_expected {
            return Err(ShapeError {
                dim,
                grad_len,
                payload_len,
                payload_expected,
            });
        }
        Ok(())
    }

    /// Apply gradient `grad` (length `dim`) to `payload`
    /// (length `dim + state_f32s(dim)`), updating weights and state.
    /// Panics on a length mismatch, before touching any element; a
    /// shape straight off the wire is refused by the server first, and
    /// [`Self::apply_batch`] reports one as a [`ShapeError`].
    pub fn apply(&self, dim: usize, payload: &mut [f32], grad: &[f32]) {
        if let Err(e) = self.check(dim, payload.len(), grad.len()) {
            panic!("{e}");
        }
        self.row_vectorized(dim, payload, grad);
    }

    /// One kernel over `rows` contiguous rows: `payloads` is `rows`
    /// payload rows back to back (`stride` f32s each, where
    /// `stride = dim + state_f32s(dim)`) and `grads` is `rows` gradient
    /// rows (`dim` f32s each). Bit-identical to applying each row
    /// separately; for stateless SGD the whole run collapses into a
    /// single flat kernel because payload rows are exactly weight rows.
    pub fn apply_batch(
        &self,
        dim: usize,
        payloads: &mut [f32],
        grads: &[f32],
        rows: usize,
    ) -> Result<(), ShapeError> {
        let stride = dim + self.kind.state_f32s(dim);
        if payloads.len() != rows * stride || grads.len() != rows * dim {
            return Err(ShapeError {
                dim,
                grad_len: grads.len(),
                payload_len: payloads.len(),
                payload_expected: rows * stride,
            });
        }
        if let OptimizerKind::Sgd { lr } = self.kind {
            // stride == dim: the run is one contiguous weight/grad pair.
            sgd_kernel(lr, payloads, grads);
            return Ok(());
        }
        for (p, g) in payloads
            .chunks_exact_mut(stride)
            .zip(grads.chunks_exact(dim))
        {
            self.row_vectorized(dim, p, g);
        }
        Ok(())
    }

    /// The scalar reference implementation: one element at a time,
    /// exactly the ops of the vectorized kernels in the same order.
    /// Public as the ground truth of the `kernel_equiv` bit-identity
    /// sweep; no apply on the pull/push path reaches it.
    pub fn apply_reference(&self, dim: usize, payload: &mut [f32], grad: &[f32]) {
        if let Err(e) = self.check(dim, payload.len(), grad.len()) {
            panic!("{e}");
        }
        self.row_scalar(dim, payload, grad);
    }

    /// Never inlined: next to the length check in `apply_reference` LLVM
    /// drops the bounds checks and vectorizes these loops, and the
    /// reference would stop being one element at a time.
    #[inline(never)]
    fn row_scalar(&self, dim: usize, payload: &mut [f32], grad: &[f32]) {
        match self.kind {
            OptimizerKind::Sgd { lr } => {
                let (w, _) = payload.split_at_mut(dim);
                for i in 0..dim {
                    w[i] -= lr * grad[i];
                }
            }
            OptimizerKind::Adagrad { lr, eps } => {
                let (w, acc) = payload.split_at_mut(dim);
                for i in 0..dim {
                    let g = grad[i];
                    acc[i] += g * g;
                    w[i] -= lr * g / (acc[i].sqrt() + eps);
                }
            }
            OptimizerKind::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let (w, state) = payload.split_at_mut(dim);
                let (m, rest) = state.split_at_mut(dim);
                let (v, t_slot) = rest.split_at_mut(dim);
                let t = t_slot[0] + 1.0;
                t_slot[0] = t;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                for i in 0..dim {
                    let g = grad[i];
                    m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                    v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                    let m_hat = m[i] / bc1;
                    let v_hat = v[i] / bc2;
                    w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    fn row_vectorized(&self, dim: usize, payload: &mut [f32], grad: &[f32]) {
        match self.kind {
            OptimizerKind::Sgd { lr } => {
                let (w, _) = payload.split_at_mut(dim);
                sgd_kernel(lr, w, grad);
            }
            OptimizerKind::Adagrad { lr, eps } => {
                let (w, acc) = payload.split_at_mut(dim);
                adagrad_kernel(lr, eps, w, acc, grad);
            }
            OptimizerKind::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let (w, state) = payload.split_at_mut(dim);
                let (m, rest) = state.split_at_mut(dim);
                let (v, t_slot) = rest.split_at_mut(dim);
                let t = t_slot[0] + 1.0;
                t_slot[0] = t;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                adam_kernel(lr, beta1, beta2, eps, bc1, bc2, w, m, v, grad);
            }
        }
    }
}

/// `w -= lr * g`, `KERNEL_LANES` elements per unrolled step.
fn sgd_kernel(lr: f32, w: &mut [f32], g: &[f32]) {
    let mut wc = w.chunks_exact_mut(KERNEL_LANES);
    let mut gc = g.chunks_exact(KERNEL_LANES);
    for (wv, gv) in wc.by_ref().zip(gc.by_ref()) {
        for l in 0..KERNEL_LANES {
            wv[l] -= lr * gv[l];
        }
    }
    for (wv, gv) in wc.into_remainder().iter_mut().zip(gc.remainder()) {
        *wv -= lr * gv;
    }
}

/// `acc += g²; w -= lr * g / (√acc + eps)` over lanes. `sqrt`/`div` are
/// correctly-rounded IEEE ops, so SIMD lanes equal the scalar loop bit
/// for bit.
fn adagrad_kernel(lr: f32, eps: f32, w: &mut [f32], acc: &mut [f32], g: &[f32]) {
    let mut wc = w.chunks_exact_mut(KERNEL_LANES);
    let mut ac = acc.chunks_exact_mut(KERNEL_LANES);
    let mut gc = g.chunks_exact(KERNEL_LANES);
    for ((wv, av), gv) in wc.by_ref().zip(ac.by_ref()).zip(gc.by_ref()) {
        for l in 0..KERNEL_LANES {
            let g = gv[l];
            av[l] += g * g;
            wv[l] -= lr * g / (av[l].sqrt() + eps);
        }
    }
    for ((wv, av), gv) in wc
        .into_remainder()
        .iter_mut()
        .zip(ac.into_remainder().iter_mut())
        .zip(gc.remainder())
    {
        let g = *gv;
        *av += g * g;
        *wv -= lr * g / (av.sqrt() + eps);
    }
}

/// Adam inner loop with the bias corrections precomputed per row (the
/// `powf` runs once per apply in both the scalar and vector paths).
#[allow(clippy::too_many_arguments)]
fn adam_kernel(
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
) {
    let mut wc = w.chunks_exact_mut(KERNEL_LANES);
    let mut mc = m.chunks_exact_mut(KERNEL_LANES);
    let mut vc = v.chunks_exact_mut(KERNEL_LANES);
    let mut gc = g.chunks_exact(KERNEL_LANES);
    for (((wv, mv), vv), gv) in wc
        .by_ref()
        .zip(mc.by_ref())
        .zip(vc.by_ref())
        .zip(gc.by_ref())
    {
        for l in 0..KERNEL_LANES {
            let g = gv[l];
            mv[l] = beta1 * mv[l] + (1.0 - beta1) * g;
            vv[l] = beta2 * vv[l] + (1.0 - beta2) * g * g;
            let m_hat = mv[l] / bc1;
            let v_hat = vv[l] / bc2;
            wv[l] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
    for (((wv, mv), vv), gv) in wc
        .into_remainder()
        .iter_mut()
        .zip(mc.into_remainder().iter_mut())
        .zip(vc.into_remainder().iter_mut())
        .zip(gc.remainder())
    {
        let g = *gv;
        *mv = beta1 * *mv + (1.0 - beta1) * g;
        *vv = beta2 * *vv + (1.0 - beta2) * g * g;
        let m_hat = *mv / bc1;
        let v_hat = *vv / bc2;
        *wv -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step() {
        let opt = OptimizerKind::Sgd { lr: 0.5 }.build();
        let mut p = vec![1.0f32, 2.0];
        opt.apply(2, &mut p, &[0.2, -0.4]);
        assert_eq!(p, vec![0.9, 2.2]);
    }

    #[test]
    fn adagrad_accumulates_and_shrinks_steps() {
        let opt = OptimizerKind::Adagrad { lr: 1.0, eps: 0.0 }.build();
        let mut p = vec![0.0f32, 0.0]; // dim=1: [w, acc]
        opt.apply(1, &mut p, &[2.0]);
        // acc = 4, step = 1*2/2 = 1.
        assert!((p[0] + 1.0).abs() < 1e-6);
        assert!((p[1] - 4.0).abs() < 1e-6);
        let w_before = p[0];
        opt.apply(1, &mut p, &[2.0]);
        // Second identical gradient takes a *smaller* step.
        let step2 = (w_before - p[0]).abs();
        assert!(step2 < 1.0);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        let (lr, b1, b2, eps) = (0.1, 0.9, 0.999, 1e-8);
        let opt = OptimizerKind::Adam {
            lr,
            beta1: b1,
            beta2: b2,
            eps,
        }
        .build();
        let mut p = vec![0.0f32; 1 + 2 + 1]; // w, m, v, t
        opt.apply(1, &mut p, &[1.0]);
        // After bias correction the first step is ≈ lr regardless of betas.
        assert!((p[0] + lr).abs() < 1e-4, "w={}", p[0]);
        assert_eq!(p[3], 1.0, "step counter advanced");
        opt.apply(1, &mut p, &[1.0]);
        assert_eq!(p[3], 2.0);
    }

    #[test]
    fn coalescibility_gate() {
        assert!(OptimizerKind::Sgd { lr: 0.1 }.coalescible());
        assert!(!OptimizerKind::Adagrad { lr: 0.1, eps: 0.0 }.coalescible());
        assert!(!OptimizerKind::Adam {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8
        }
        .coalescible());
    }

    #[test]
    fn sgd_coalesced_matches_sequential_exactly() {
        // Power-of-two values: both orders of summation are exact in f32,
        // so coalescing must be *bit-identical* to sequential applies.
        let opt = OptimizerKind::Sgd { lr: 1.0 }.build();
        let g1 = [0.5f32, -0.25];
        let g2 = [0.25f32, 0.5];
        let mut seq = vec![2.0f32, -4.0];
        opt.apply(2, &mut seq, &g1);
        opt.apply(2, &mut seq, &g2);
        let mut coalesced = vec![2.0f32, -4.0];
        let sum: Vec<f32> = g1.iter().zip(&g2).map(|(a, b)| a + b).collect();
        opt.apply(2, &mut coalesced, &sum);
        assert_eq!(seq, coalesced);
    }

    #[test]
    fn state_sizes() {
        assert_eq!(OptimizerKind::Sgd { lr: 0.1 }.state_f32s(8), 0);
        assert_eq!(
            OptimizerKind::Adagrad { lr: 0.1, eps: 0.0 }.state_f32s(8),
            8
        );
        assert_eq!(
            OptimizerKind::Adam {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8
            }
            .state_f32s(8),
            17
        );
    }

    #[test]
    fn gradient_descent_reduces_quadratic_loss() {
        // Minimize f(w) = (w - 3)² with each optimizer.
        for kind in [
            OptimizerKind::Sgd { lr: 0.1 },
            OptimizerKind::Adagrad { lr: 0.8, eps: 1e-8 },
            OptimizerKind::Adam {
                lr: 0.3,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ] {
            let opt = kind.build();
            let mut p = vec![0.0f32; 1 + kind.state_f32s(1)];
            for _ in 0..200 {
                let g = 2.0 * (p[0] - 3.0);
                opt.apply(1, &mut p, &[g]);
            }
            assert!(
                (p[0] - 3.0).abs() < 0.2,
                "{kind:?} failed to converge: w={}",
                p[0]
            );
        }
    }

    #[test]
    fn short_gradient_is_a_structured_error_and_leaves_state_untouched() {
        for kind in [
            OptimizerKind::Sgd { lr: 0.1 },
            OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 },
            OptimizerKind::Adam {
                lr: 0.1,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ] {
            let opt = kind.build();
            let dim = 4;
            let before: Vec<f32> = (0..dim + kind.state_f32s(dim))
                .map(|i| i as f32 * 0.5)
                .collect();
            let mut p = before.clone();
            let err = opt
                .apply_batch(dim, &mut p, &[1.0, 2.0], 1) // short gradient
                .expect_err("short gradient must not apply");
            assert_eq!(err.dim, dim);
            assert_eq!(err.grad_len, 2);
            assert_eq!(p, before, "{kind:?}: no element may move on a bad shape");
            // Payload length mismatches are caught the same way.
            let mut short_payload = vec![0.0f32; dim];
            if kind.state_f32s(dim) > 0 {
                opt.apply_batch(dim, &mut short_payload, &[1.0; 4], 1)
                    .expect_err("short payload must not apply");
            }
        }
    }

    #[test]
    fn batch_apply_matches_per_row() {
        for kind in [
            OptimizerKind::Sgd { lr: 0.1 },
            OptimizerKind::Adagrad { lr: 0.1, eps: 1e-8 },
            OptimizerKind::Adam {
                lr: 0.01,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
        ] {
            let opt = kind.build();
            let dim = 5; // odd: exercises the remainder path
            let stride = dim + kind.state_f32s(dim);
            let rows = 3;
            let mut batch: Vec<f32> = (0..rows * stride).map(|i| (i as f32).sin()).collect();
            let grads: Vec<f32> = (0..rows * dim).map(|i| (i as f32).cos()).collect();
            let mut per_row = batch.clone();
            for r in 0..rows {
                opt.apply(
                    dim,
                    &mut per_row[r * stride..(r + 1) * stride],
                    &grads[r * dim..(r + 1) * dim],
                );
            }
            opt.apply_batch(dim, &mut batch, &grads, rows).unwrap();
            let a: Vec<u32> = batch.iter().map(|f| f.to_bits()).collect();
            let b: Vec<u32> = per_row.iter().map(|f| f.to_bits()).collect();
            assert_eq!(a, b, "{kind:?}: batched kernel must be bit-identical");
        }
    }

    #[test]
    fn batch_apply_rejects_bad_shapes() {
        let opt = OptimizerKind::Sgd { lr: 0.1 }.build();
        let mut p = vec![0.0f32; 8];
        assert!(opt.apply_batch(4, &mut p, &[0.0; 7], 2).is_err());
        assert!(opt.apply_batch(4, &mut p[..7], &[0.0; 8], 2).is_err());
    }
}
