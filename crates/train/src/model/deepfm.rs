//! DeepFM: factorization-machine second-order interactions + a deep MLP
//! over the concatenated field embeddings (Guo et al. 2017, the model
//! the paper trains in its evaluation).
//!
//! The sparse embeddings live on the parameter server; this struct holds
//! only the dense part and computes, per example, the loss and the
//! gradient *with respect to each field's embedding vector*, which the
//! trainer aggregates per key and pushes back to the PS.

use super::mlp::Mlp;
use super::{bce_loss, sigmoid};

/// DeepFM hyper-parameters.
#[derive(Debug, Clone)]
pub struct DeepFmConfig {
    /// Embedding dimension (must match the PS).
    pub dim: usize,
    /// Sparse fields per example.
    pub fields: usize,
    /// Extra dense features appended to the MLP input (13 for Criteo).
    pub dense_features: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Dense-part SGD learning rate.
    pub dense_lr: f32,
    /// Init seed.
    pub seed: u64,
}

impl DeepFmConfig {
    /// Small default for tests.
    pub fn small(dim: usize, fields: usize) -> Self {
        Self {
            dim,
            fields,
            dense_features: 0,
            hidden: vec![32, 16],
            dense_lr: 0.01,
            seed: 99,
        }
    }
}

/// The dense part of a DeepFM plus the FM interaction math.
pub struct DeepFm {
    cfg: DeepFmConfig,
    mlp: Mlp,
    /// Global bias.
    bias: f32,
    bias_grad: f32,
    sum_d: Vec<f32>,
}

impl DeepFm {
    /// Build from config.
    pub fn new(cfg: DeepFmConfig) -> Self {
        let input = cfg.fields * cfg.dim + cfg.dense_features;
        let mut dims = vec![input];
        dims.extend(&cfg.hidden);
        dims.push(1);
        let mlp = Mlp::new(&dims, cfg.seed);
        Self {
            bias: 0.0,
            bias_grad: 0.0,
            sum_d: vec![0.0; cfg.dim],
            mlp,
            cfg,
        }
    }

    /// Config in use.
    pub fn config(&self) -> &DeepFmConfig {
        &self.cfg
    }

    /// Dense parameter bytes (for the dense-checkpoint cost model).
    pub fn dense_param_bytes(&self) -> usize {
        self.mlp.param_bytes() + 4
    }

    /// FM second-order term via the sum-square trick:
    /// `0.5 · Σ_d [ (Σ_f v_fd)² − Σ_f v_fd² ]`.
    fn fm_forward(&mut self, emb: &[f32]) -> f32 {
        let (dim, fields) = (self.cfg.dim, self.cfg.fields);
        self.sum_d.iter_mut().for_each(|s| *s = 0.0);
        let mut sq = 0.0f32;
        for f in 0..fields {
            for d in 0..dim {
                let v = emb[f * dim + d];
                self.sum_d[d] += v;
                sq += v * v;
            }
        }
        0.5 * (self.sum_d.iter().map(|s| s * s).sum::<f32>() - sq)
    }

    /// Forward-only prediction (no gradient state kept).
    pub fn predict(&mut self, emb: &[f32], dense: &[f32]) -> f32 {
        let logit = self.forward_logit(emb, dense);
        sigmoid(logit)
    }

    fn forward_logit(&mut self, emb: &[f32], dense: &[f32]) -> f32 {
        assert_eq!(emb.len(), self.cfg.fields * self.cfg.dim);
        assert_eq!(dense.len(), self.cfg.dense_features);
        let fm = self.fm_forward(emb);
        let mut x = Vec::with_capacity(self.mlp.input_dim());
        x.extend_from_slice(emb);
        x.extend_from_slice(dense);
        self.bias + fm + self.mlp.forward(&x)
    }

    /// Train on one example: returns `(loss, d_emb)` where `d_emb` is
    /// the gradient wrt the field embeddings (`fields × dim`). Dense
    /// gradients accumulate internally until [`Self::step_dense`].
    pub fn train_example(&mut self, emb: &[f32], dense: &[f32], label: f32) -> (f32, Vec<f32>) {
        let logit = self.forward_logit(emb, dense);
        let p = sigmoid(logit);
        let loss = bce_loss(p, label);
        let dlogit = p - label;

        // MLP path gradient wrt its input.
        let dx = self.mlp.backward(dlogit);
        self.bias_grad += dlogit;

        // FM path gradient: d fm / d v_fd = sum_d − v_fd.
        let (dim, fields) = (self.cfg.dim, self.cfg.fields);
        let mut d_emb = vec![0.0f32; fields * dim];
        for f in 0..fields {
            for d in 0..dim {
                let i = f * dim + d;
                d_emb[i] = dlogit * (self.sum_d[d] - emb[i]) + dx[i];
            }
        }
        (loss, d_emb)
    }

    /// Apply accumulated dense gradients (call once per batch — the
    /// synchronous allreduce equivalent).
    pub fn step_dense(&mut self) {
        self.mlp.step(self.cfg.dense_lr);
        self.bias -= self.cfg.dense_lr * self.bias_grad;
        self.bias_grad = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb_for(fields: usize, dim: usize, seed: f32) -> Vec<f32> {
        (0..fields * dim)
            .map(|i| ((i as f32 + seed) * 0.37).sin() * 0.3)
            .collect()
    }

    #[test]
    fn fm_sum_square_trick_matches_naive() {
        let cfg = DeepFmConfig::small(3, 4);
        let mut fm = DeepFm::new(cfg);
        let emb = emb_for(4, 3, 1.0);
        let fast = fm.fm_forward(&emb);
        // Naive pairwise: Σ_{f<g} <v_f, v_g>.
        let mut naive = 0.0f32;
        for f in 0..4 {
            for g in (f + 1)..4 {
                for d in 0..3 {
                    naive += emb[f * 3 + d] * emb[g * 3 + d];
                }
            }
        }
        assert!((fast - naive).abs() < 1e-4, "{fast} vs {naive}");
    }

    #[test]
    fn embedding_gradient_check() {
        let cfg = DeepFmConfig::small(3, 2);
        let mut fm = DeepFm::new(cfg);
        let emb = emb_for(2, 3, 2.0);
        let (_, d_emb) = fm.train_example(&emb, &[], 1.0);
        let eps = 1e-3f32;
        for i in 0..emb.len() {
            let mut ep = emb.clone();
            ep[i] += eps;
            let mut em = emb.clone();
            em[i] -= eps;
            // Loss at perturbed points (fresh model state is fine:
            // forward is deterministic and dense grads don't apply
            // until step_dense).
            let lp = {
                let p = fm.predict(&ep, &[]);
                crate::model::bce_loss(p, 1.0)
            };
            let lm = {
                let p = fm.predict(&em, &[]);
                crate::model::bce_loss(p, 1.0)
            };
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - d_emb[i]).abs() < 2e-2,
                "d_emb[{i}]: analytic {} vs numeric {num}",
                d_emb[i]
            );
        }
    }

    #[test]
    fn loss_decreases_when_training_embeddings() {
        // Fixed synthetic task: two "users" with opposite labels; only
        // the embeddings (our gradients) adapt.
        let cfg = DeepFmConfig::small(4, 3);
        let mut fm = DeepFm::new(cfg);
        let mut emb_a = emb_for(3, 4, 1.0);
        let mut emb_b = emb_for(3, 4, 9.0);
        let lr = 0.1f32;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let (la, da) = fm.train_example(&emb_a, &[], 1.0);
            for (w, g) in emb_a.iter_mut().zip(&da) {
                *w -= lr * g;
            }
            let (lb, db) = fm.train_example(&emb_b, &[], 0.0);
            for (w, g) in emb_b.iter_mut().zip(&db) {
                *w -= lr * g;
            }
            fm.step_dense();
            let total = la + lb;
            first.get_or_insert(total);
            last = total;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss fell: {} → {last}",
            first.unwrap()
        );
    }

    #[test]
    fn dense_features_enter_the_mlp() {
        let mut cfg = DeepFmConfig::small(2, 2);
        cfg.dense_features = 3;
        let mut fm = DeepFm::new(cfg);
        let emb = emb_for(2, 2, 0.0);
        let a = fm.predict(&emb, &[0.0, 0.0, 0.0]);
        let b = fm.predict(&emb, &[1.0, -1.0, 0.5]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn wrong_embedding_shape_panics() {
        let mut fm = DeepFm::new(DeepFmConfig::small(4, 4));
        fm.predict(&[0.0; 3], &[]);
    }
}
