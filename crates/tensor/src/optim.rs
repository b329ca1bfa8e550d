//! First-order optimizers over collections of leaf tensors.

use crate::tensor::Tensor;

/// Rescales gradients so their global L2 norm is at most `max_norm`,
/// returning the pre-clip norm. A standard guard against late-training loss
/// spikes.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if p.has_grad() {
            total += p.grad_vec().iter().map(|g| g * g).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if p.has_grad() {
                let scaled: Vec<f32> = p.grad_vec().iter().map(|g| g * scale).collect();
                p.zero_grad();
                p.accumulate_grad_public(&scaled);
            }
        }
    }
    norm
}

/// A first-order optimizer over a fixed set of parameters.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated on
    /// the parameters.
    fn step(&mut self);

    /// Clears the gradients of all managed parameters.
    fn zero_grad(&mut self);
}

/// Plain stochastic gradient descent with optional L2 weight decay.
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Sgd {
            params,
            lr,
            weight_decay: 0.0,
        }
    }

    /// Sets the L2 weight-decay coefficient.
    #[must_use]
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for p in &self.params {
            if !p.has_grad() {
                continue;
            }
            let g = p.grad_vec();
            let (lr, wd) = (self.lr, self.weight_decay);
            p.update_data(|d| {
                for (x, gi) in d.iter_mut().zip(&g) {
                    *x -= lr * (gi + wd * *x);
                }
            });
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

/// Hyperparameters for [`Adam`].
#[derive(Debug, Clone, Copy)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015).
pub struct Adam {
    params: Vec<Tensor>,
    cfg: AdamConfig,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and default
    /// moment coefficients.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self::with_config(
            params,
            AdamConfig {
                lr,
                ..AdamConfig::default()
            },
        )
    }

    /// Creates an Adam optimizer with explicit hyperparameters.
    pub fn with_config(params: Vec<Tensor>, cfg: AdamConfig) -> Self {
        let m = params.iter().map(|p| vec![0.0; p.len()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        Adam {
            params,
            cfg,
            m,
            v,
            t: 0,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let c = self.cfg;
        let bc1 = 1.0 - c.beta1.powi(self.t as i32);
        let bc2 = 1.0 - c.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            if !p.has_grad() {
                continue;
            }
            let g = p.grad_vec();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            p.update_data(|d| {
                for j in 0..d.len() {
                    let grad = g[j] + c.weight_decay * d[j];
                    m[j] = c.beta1 * m[j] + (1.0 - c.beta1) * grad;
                    v[j] = c.beta2 * v[j] + (1.0 - c.beta2) * grad * grad;
                    let mh = m[j] / bc1;
                    let vh = v[j] / bc2;
                    d[j] -= c.lr * mh / (vh.sqrt() + c.eps);
                }
            });
        }
    }

    fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise (x - 3)^2 and check convergence.
    fn quadratic_descent(mut opt: impl Optimizer, x: Tensor, iters: usize) -> f32 {
        for _ in 0..iters {
            opt.zero_grad();
            let diff = x.add_scalar(-3.0);
            let loss = diff.mul(&diff).sum_all();
            loss.backward();
            opt.step();
        }
        x.item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = Tensor::scalar(0.0).requires_grad();
        let v = quadratic_descent(Sgd::new(vec![x.clone()], 0.1), x, 100);
        assert!((v - 3.0).abs() < 1e-3, "got {v}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = Tensor::scalar(0.0).requires_grad();
        let v = quadratic_descent(Adam::new(vec![x.clone()], 0.1), x, 300);
        assert!((v - 3.0).abs() < 1e-2, "got {v}");
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let x = Tensor::scalar(1.0).requires_grad();
        let mut opt = Sgd::new(vec![x.clone()], 0.1).with_weight_decay(1.0);
        for _ in 0..10 {
            opt.zero_grad();
            // Zero loss gradient; only decay acts.
            let loss = x.mul_scalar(0.0).sum_all();
            loss.backward();
            opt.step();
        }
        assert!(x.item() < 1.0);
        assert!(x.item() > 0.0);
    }

    #[test]
    fn step_skips_params_without_grad() {
        let x = Tensor::scalar(5.0).requires_grad();
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step();
        assert_eq!(x.item(), 5.0);
    }
}
