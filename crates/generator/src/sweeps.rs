//! The paper's "sane defaults" and query sizes, plus a small numeric helper
//! shared by the generators.
//!
//! The scalability experiments vary one dataset parameter at a time around
//! these defaults; the swept axes themselves live in the harness's
//! experiment catalogue, anchored at whatever `ExperimentScale` is run.

use rand::Rng;

/// Query sizes (in edges) used throughout the paper (§4.3).
pub const PAPER_QUERY_SIZES: &[usize] = &[4, 8, 16, 32];

/// The paper's "sane defaults" for the synthetic sweeps: 200 nodes,
/// density 0.025, 20 labels, 1000 graphs.
pub const SANE_DEFAULT_NODES: usize = 200;
/// Default density of the sane-default configuration.
pub const SANE_DEFAULT_DENSITY: f64 = 0.025;
/// Default label alphabet size of the sane-default configuration.
pub const SANE_DEFAULT_LABELS: u32 = 20;
/// Default dataset size of the sane-default configuration.
pub const SANE_DEFAULT_GRAPHS: usize = 1000;

/// Draws a sample from a normal distribution with the given mean and
/// standard deviation using the Box–Muller transform. We implement this
/// directly (rather than pulling in `rand_distr`) to keep the dependency set
/// to the sanctioned crates.
pub fn normal_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64, stddev: f64) -> f64 {
    if stddev <= 0.0 {
        return mean;
    }
    // Box–Muller: u1 in (0,1], u2 in [0,1)
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + stddev * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sample_mean_and_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20000)
            .map(|_| normal_sample(&mut rng, 10.0, 2.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "stddev {}", var.sqrt());
    }

    #[test]
    fn normal_sample_zero_stddev_returns_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(normal_sample(&mut rng, 42.0, 0.0), 42.0);
        assert_eq!(normal_sample(&mut rng, 42.0, -1.0), 42.0);
    }

    #[test]
    fn sane_defaults_match_paper() {
        assert_eq!(SANE_DEFAULT_NODES, 200);
        assert_eq!(SANE_DEFAULT_LABELS, 20);
        assert_eq!(SANE_DEFAULT_GRAPHS, 1000);
        assert!((SANE_DEFAULT_DENSITY - 0.025).abs() < 1e-12);
    }
}
