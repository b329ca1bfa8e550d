//! Weight initialisers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// Uniform initialisation in `[-bound, bound]`.
pub fn uniform(rows: usize, cols: usize, bound: f32, seed: u64) -> Tensor {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

/// Glorot / Xavier uniform initialisation: `bound = sqrt(6 / (fan_in + fan_out))`.
pub fn glorot_uniform(rows: usize, cols: usize, seed: u64) -> Tensor {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, bound, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_respects_bound_and_is_deterministic() {
        let a = glorot_uniform(10, 20, 42);
        let b = glorot_uniform(10, 20, 42);
        assert_eq!(a.to_vec(), b.to_vec());
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(a.to_vec().iter().all(|v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(4, 4, 1.0, 1);
        let b = uniform(4, 4, 1.0, 2);
        assert_ne!(a.to_vec(), b.to_vec());
    }
}
