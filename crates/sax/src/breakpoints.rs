//! Equiprobable Gaussian breakpoints.
//!
//! SAX discretises PAA means against the `a-1` quantiles of the standard
//! normal distribution at probabilities `1/a, 2/a, …, (a-1)/a`, so that
//! each of the `a` symbols is equally likely under z-normalised data
//! (Lin et al. 2003, Table 3). Breakpoints are computed with Acklam's
//! rational approximation of the inverse normal CDF (|relative error|
//! < 1.15e-9), so any alphabet size in `2..=26` is supported without a
//! lookup table.

use crate::SaxError;

/// Largest supported alphabet ('a'..='z').
pub const MAX_ALPHABET: usize = 26;

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Peter Acklam's rational approximation; sufficient precision for SAX
/// breakpoints by a wide margin.
///
/// # Panics
///
/// Panics if `p` is outside the open interval `(0, 1)`.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p={p} outside (0,1)");

    // Coefficients for the central and tail rational approximations.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Returns the `alphabet - 1` breakpoints dividing the standard normal
/// distribution into `alphabet` equiprobable regions, in ascending order.
///
/// # Errors
///
/// Returns [`SaxError::BadAlphabet`] unless `2 <= alphabet <= 26`.
///
/// # Example
///
/// ```rust
/// let bp = relcnn_sax::breakpoints::gaussian_breakpoints(4)?;
/// assert_eq!(bp.len(), 3);
/// assert!((bp[1]).abs() < 1e-9); // median of N(0,1) is 0
/// # Ok::<(), relcnn_sax::SaxError>(())
/// ```
pub fn gaussian_breakpoints(alphabet: usize) -> Result<Vec<f64>, SaxError> {
    if !(2..=MAX_ALPHABET).contains(&alphabet) {
        return Err(SaxError::BadAlphabet { size: alphabet });
    }
    Ok((1..alphabet)
        .map(|i| inverse_normal_cdf(i as f64 / alphabet as f64))
        .collect())
}

/// Maps a value to its symbol index under the breakpoints (binary search).
///
/// Index `k` means the value lies in `(bp[k-1], bp[k]]`'s region, i.e.
/// `value <= bp[0]` gives 0 and `value > bp.last()` gives `bp.len()`.
pub fn symbol_index(value: f64, breakpoints: &[f64]) -> usize {
    breakpoints.partition_point(|&b| b < value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of Lin et al. (2003), alphabet sizes 3..=10 (rounded to 2dp).
    const PAPER_TABLE: &[(usize, &[f64])] = &[
        (3, &[-0.43, 0.43]),
        (4, &[-0.67, 0.0, 0.67]),
        (5, &[-0.84, -0.25, 0.25, 0.84]),
        (6, &[-0.97, -0.43, 0.0, 0.43, 0.97]),
        (7, &[-1.07, -0.57, -0.18, 0.18, 0.57, 1.07]),
        (8, &[-1.15, -0.67, -0.32, 0.0, 0.32, 0.67, 1.15]),
        (9, &[-1.22, -0.76, -0.43, -0.14, 0.14, 0.43, 0.76, 1.22]),
        (
            10,
            &[-1.28, -0.84, -0.52, -0.25, 0.0, 0.25, 0.52, 0.84, 1.28],
        ),
    ];

    #[test]
    fn matches_published_table() {
        for &(a, expected) in PAPER_TABLE {
            let got = gaussian_breakpoints(a).unwrap();
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(expected.iter()) {
                assert!((g - e).abs() < 0.005, "alphabet {a}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn breakpoints_ascending_and_symmetric() {
        for a in 2..=MAX_ALPHABET {
            let bp = gaussian_breakpoints(a).unwrap();
            for w in bp.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Symmetry: bp[i] == -bp[len-1-i]
            for i in 0..bp.len() {
                assert!(
                    (bp[i] + bp[bp.len() - 1 - i]).abs() < 1e-9,
                    "alphabet {a} not symmetric"
                );
            }
        }
    }

    #[test]
    fn rejects_out_of_range_alphabets() {
        assert!(gaussian_breakpoints(0).is_err());
        assert!(gaussian_breakpoints(1).is_err());
        assert!(gaussian_breakpoints(27).is_err());
        assert!(gaussian_breakpoints(2).is_ok());
        assert!(gaussian_breakpoints(26).is_ok());
    }

    #[test]
    fn inverse_cdf_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-12);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-5);
        // Tails exercised.
        assert!(inverse_normal_cdf(1e-10) < -6.0);
        assert!(inverse_normal_cdf(1.0 - 1e-10) > 6.0);
    }

    #[test]
    #[should_panic(expected = "outside (0,1)")]
    fn inverse_cdf_rejects_zero() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn symbol_index_bins_correctly() {
        let bp = gaussian_breakpoints(4).unwrap(); // [-0.67, 0, 0.67]
        assert_eq!(symbol_index(-2.0, &bp), 0);
        assert_eq!(symbol_index(-0.5, &bp), 1);
        assert_eq!(symbol_index(0.5, &bp), 2);
        assert_eq!(symbol_index(2.0, &bp), 3);
        // Boundary convention: exactly on a breakpoint -> lower region.
        assert_eq!(symbol_index(bp[1], &bp), 1);
    }

    #[test]
    fn symbols_equiprobable_under_gaussian_samples() {
        // Deterministic pseudo-gaussian via CLT of a simple LCG.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            let mut acc = 0.0f64;
            for _ in 0..12 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            acc - 6.0 // ~N(0,1)
        };
        let bp = gaussian_breakpoints(8).unwrap();
        let mut counts = [0usize; 8];
        let n = 100_000;
        for _ in 0..n {
            counts[symbol_index(next(), &bp)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 0.125).abs() < 0.01,
                "symbol {i} frequency {frac} not ~1/8"
            );
        }
    }
}
