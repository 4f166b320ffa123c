//! A minimal dense multi-layer perceptron with manual backprop.
//!
//! Layers are fully connected with ReLU between hidden layers and a
//! linear final output. Gradients accumulate into internal buffers
//! (so a batch can sum example gradients) and [`Mlp::step`] applies a
//! plain-SGD update — the dense part of a DLRM is tiny (<1 % of
//! parameters, paper §II-A) and its optimizer choice is immaterial to
//! the systems results.

use oe_core::init::splitmix64;

struct Layer {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f32>,  // out × in, row-major
    b: Vec<f32>,  // out
    gw: Vec<f32>, // accumulated gradients
    gb: Vec<f32>,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        // He initialization scaled by fan-in.
        let scale = (2.0 / in_dim as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|i| {
                let h = splitmix64(seed ^ (i as u64));
                ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0 * scale
            })
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f32], y: &mut Vec<f32>) {
        y.clear();
        y.reserve(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            y.push(acc);
        }
    }

    /// dy: gradient wrt outputs; x: cached input. Accumulates gw/gb and
    /// writes gradient wrt input into dx.
    fn backward(&mut self, x: &[f32], dy: &[f32], dx: &mut Vec<f32>) {
        dx.clear();
        dx.resize(self.in_dim, 0.0);
        for (o, &g) in dy.iter().enumerate().take(self.out_dim) {
            self.gb[o] += g;
            let row = o * self.in_dim;
            for i in 0..self.in_dim {
                self.gw[row + i] += g * x[i];
                dx[i] += g * self.w[row + i];
            }
        }
    }

    fn step(&mut self, lr: f32) {
        for (w, g) in self.w.iter_mut().zip(self.gw.iter_mut()) {
            *w -= lr * *g;
            *g = 0.0;
        }
        for (b, g) in self.b.iter_mut().zip(self.gb.iter_mut()) {
            *b -= lr * *g;
            *g = 0.0;
        }
    }
}

/// A dense MLP: hidden layers with ReLU, linear scalar output.
pub struct Mlp {
    layers: Vec<Layer>,
    /// Cached activations per layer input (for backprop).
    acts: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

impl Mlp {
    /// `dims = [input, hidden..., 1]`; deterministic init from `seed`.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        assert_eq!(*dims.last().unwrap(), 1, "scalar logit output");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, d)| Layer::new(d[0], d[1], splitmix64(seed ^ (i as u64) << 17)))
            .collect();
        Self {
            layers,
            acts: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Forward pass, caching activations; returns the scalar logit.
    pub fn forward(&mut self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_dim());
        self.acts.clear();
        self.acts.push(x.to_vec());
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = Vec::new();
            layer.forward(self.acts.last().unwrap(), &mut y);
            if i + 1 < n {
                for v in &mut y {
                    *v = v.max(0.0); // ReLU
                }
            }
            self.acts.push(y);
        }
        self.acts.last().unwrap()[0]
    }

    /// Backward from `dlogit` (d loss / d logit) using the activations
    /// cached by the immediately preceding [`Self::forward`]. Returns
    /// the gradient wrt the input vector. Parameter gradients
    /// accumulate until [`Self::step`].
    pub fn backward(&mut self, dlogit: f32) -> Vec<f32> {
        let n = self.layers.len();
        let mut dy = vec![dlogit];
        for i in (0..n).rev() {
            // Undo ReLU for hidden outputs: dy *= 1[pre-act > 0]. The
            // cached act is post-ReLU, which is zero exactly where the
            // pre-activation was clamped.
            if i + 1 < n {
                let act = &self.acts[i + 1];
                for (d, &a) in dy.iter_mut().zip(act) {
                    if a <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let x = std::mem::take(&mut self.acts[i]);
            self.layers[i].backward(&x, &dy, &mut self.scratch);
            self.acts[i] = x;
            dy = self.scratch.clone();
        }
        dy
    }

    /// Apply accumulated gradients with SGD and reset them.
    pub fn step(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.step(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_init() {
        let mut a = Mlp::new(&[4, 8, 1], 7);
        let mut b = Mlp::new(&[4, 8, 1], 7);
        let x = [0.5, -0.25, 1.0, 0.0];
        assert_eq!(a.forward(&x), b.forward(&x));
        let mut c = Mlp::new(&[4, 8, 1], 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut mlp = Mlp::new(&[3, 5, 4, 1], 42);
        let x = [0.3f32, -0.7, 0.9];
        // Analytic input gradient of logit wrt x.
        mlp.forward(&x);
        let dx = mlp.backward(1.0);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let num = (mlp.forward(&xp) - mlp.forward(&xm)) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 2e-2,
                "dx[{i}]: analytic {} vs numeric {num}",
                dx[i]
            );
        }
    }

    #[test]
    fn learns_xor_like_separation() {
        // Fit y = 1 if x0*x1 > 0 else 0 — requires the hidden layer.
        let mut mlp = Mlp::new(&[2, 16, 1], 3);
        let data = [
            ([1.0f32, 1.0], 1.0f32),
            ([-1.0, -1.0], 1.0),
            ([1.0, -1.0], 0.0),
            ([-1.0, 1.0], 0.0),
        ];
        for _ in 0..1500 {
            for (x, y) in &data {
                let logit = mlp.forward(x);
                let p = super::super::sigmoid(logit);
                mlp.backward(p - y);
            }
            mlp.step(0.05);
        }
        let mut correct = 0;
        for (x, y) in &data {
            let p = super::super::sigmoid(mlp.forward(x));
            if (p > 0.5) == (*y > 0.5) {
                correct += 1;
            }
        }
        assert_eq!(correct, 4, "XOR learned");
    }

    #[test]
    fn step_resets_gradients() {
        let mut mlp = Mlp::new(&[2, 3, 1], 1);
        mlp.forward(&[1.0, 2.0]);
        mlp.backward(1.0);
        mlp.step(0.1);
        let w_after = mlp.forward(&[1.0, 2.0]);
        // A second step with no new backward must not move weights.
        mlp.step(0.1);
        assert_eq!(mlp.forward(&[1.0, 2.0]), w_after);
    }
}
