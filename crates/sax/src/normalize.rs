//! Z-normalisation of time series.
//!
//! SAX assumes the input series has zero mean and unit variance; the
//! Gaussian breakpoints are only equiprobable under that assumption
//! (Lin et al. 2003, §3.1).

/// Standard deviation below which a series is treated as constant and left
/// centred-but-unscaled, avoiding division blow-up. Keogh's reference
/// implementation uses a similar guard.
pub const FLAT_EPSILON: f32 = 1e-6;

/// Z-normalises `series` into a new vector: subtract the mean, divide by
/// the population standard deviation.
///
/// Constant (or near-constant, see [`FLAT_EPSILON`]) series are returned as
/// all-zeros rather than dividing by ~0.
///
/// # Example
///
/// ```rust
/// let z = relcnn_sax::normalize::z_normalize(&[2.0, 4.0, 6.0, 8.0]);
/// assert!(z.iter().sum::<f32>().abs() < 1e-5);
/// ```
pub fn z_normalize(series: &[f32]) -> Vec<f32> {
    if series.is_empty() {
        return Vec::new();
    }
    let mean = series.iter().sum::<f32>() / series.len() as f32;
    let var = series.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / series.len() as f32;
    let std_dev = var.sqrt();
    if std_dev < FLAT_EPSILON {
        return vec![0.0; series.len()];
    }
    series.iter().map(|v| (v - mean) / std_dev).collect()
}

/// Returns `(mean, std_dev)` of a series (population convention).
///
/// Returns `(0.0, 0.0)` for an empty series.
pub fn moments(series: &[f32]) -> (f32, f32) {
    if series.is_empty() {
        return (0.0, 0.0);
    }
    let mean = series.iter().sum::<f32>() / series.len() as f32;
    let var = series.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / series.len() as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_series_has_zero_mean_unit_var() {
        let series: Vec<f32> = (0..100)
            .map(|i| (i as f32 * 0.3).cos() * 5.0 + 2.0)
            .collect();
        let z = z_normalize(&series);
        let (mean, std_dev) = moments(&z);
        assert!(mean.abs() < 1e-4, "mean {mean}");
        assert!((std_dev - 1.0).abs() < 1e-3, "std {std_dev}");
    }

    #[test]
    fn constant_series_becomes_zeros() {
        let z = z_normalize(&[4.0; 10]);
        assert_eq!(z, vec![0.0; 10]);
    }

    #[test]
    fn near_constant_series_guarded() {
        let z = z_normalize(&[1.0, 1.0 + 1e-8, 1.0, 1.0 - 1e-8]);
        assert!(z.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn empty_series_ok() {
        assert!(z_normalize(&[]).is_empty());
        assert_eq!(moments(&[]), (0.0, 0.0));
    }

    #[test]
    fn normalization_is_shift_scale_invariant() {
        let base: Vec<f32> = (0..50).map(|i| ((i * 7) % 13) as f32).collect();
        let shifted: Vec<f32> = base.iter().map(|v| v * 3.0 + 11.0).collect();
        let za = z_normalize(&base);
        let zb = z_normalize(&shifted);
        for (a, b) in za.iter().zip(zb.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
