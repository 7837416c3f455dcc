//! Distances between SAX words.
//!
//! [`mindist`] is the headline result of Lin et al. (2003): a distance on
//! SAX words that *lower-bounds* the Euclidean distance between the original
//! z-normalised series. For the paper's qualifier this matters because it
//! makes rejection sound: if `MINDIST(word, reference) > τ` then the true
//! Euclidean distance also exceeds `τ`, so the shape genuinely is not an
//! octagon — no false acceptance can be introduced by the symbolic step.

use crate::breakpoints::gaussian_breakpoints;
use crate::{SaxError, SaxWord};

/// The symbol-pair distance table `cell(r, c)` from Lin et al. (2003):
/// zero for adjacent-or-equal symbols, otherwise the gap between the
/// enclosing breakpoints.
///
/// # Errors
///
/// Returns [`SaxError::BadAlphabet`] for unsupported alphabet sizes.
fn dist_table(alphabet: usize) -> Result<Vec<Vec<f64>>, SaxError> {
    let bp = gaussian_breakpoints(alphabet)?;
    let mut table = vec![vec![0.0f64; alphabet]; alphabet];
    for (r, row) in table.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            let (lo, hi) = if r < c { (r, c) } else { (c, r) };
            *cell = if hi - lo <= 1 {
                0.0
            } else {
                bp[hi - 1] - bp[lo]
            };
        }
    }
    Ok(table)
}

/// MINDIST between two SAX words (Lin et al. 2003, eq. 6):
///
/// ```text
/// MINDIST(Q̂, Ĉ) = sqrt(n / w) * sqrt( Σᵢ cell(q̂ᵢ, ĉᵢ)² )
/// ```
///
/// where `n` is the original series length and `w` the word length.
///
/// # Errors
///
/// Returns [`SaxError::ConfigMismatch`] if the words have different
/// lengths, alphabets or original series lengths.
pub fn mindist(a: &SaxWord, b: &SaxWord) -> Result<f64, SaxError> {
    a.check_comparable(b)?;
    if a.series_len() != b.series_len() {
        return Err(SaxError::ConfigMismatch {
            reason: format!("series lengths {} vs {}", a.series_len(), b.series_len()),
        });
    }
    let table = dist_table(a.alphabet())?;
    let sum_sq: f64 = a
        .symbols()
        .iter()
        .zip(b.symbols().iter())
        .map(|(&x, &y)| {
            let d = table[x as usize][y as usize];
            d * d
        })
        .sum();
    let n = a.series_len() as f64;
    let w = a.len() as f64;
    Ok((n / w).sqrt() * sum_sq.sqrt())
}

/// Euclidean distance between two equal-length raw series; the quantity
/// MINDIST lower-bounds (after z-normalisation).
///
/// # Errors
///
/// Returns [`SaxError::ConfigMismatch`] if the lengths differ.
pub fn euclidean(a: &[f32], b: &[f32]) -> Result<f64, SaxError> {
    if a.len() != b.len() {
        return Err(SaxError::ConfigMismatch {
            reason: format!("series lengths {} vs {}", a.len(), b.len()),
        });
    }
    Ok(a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SaxConfig, SaxEncoder};

    #[test]
    fn table_zero_on_and_off_diagonal_neighbours() {
        let t = dist_table(6).unwrap();
        for i in 0..6 {
            assert_eq!(t[i][i], 0.0);
            if i + 1 < 6 {
                assert_eq!(t[i][i + 1], 0.0);
                assert_eq!(t[i + 1][i], 0.0);
            }
        }
        // Distant symbols strictly positive and symmetric.
        assert!(t[0][5] > 0.0);
        assert_eq!(t[0][5], t[5][0]);
        assert!(t[0][5] > t[0][2]);
    }

    #[test]
    fn table_matches_hand_computation_alphabet4() {
        // breakpoints: [-0.6745, 0, 0.6745]
        let t = dist_table(4).unwrap();
        let bp = gaussian_breakpoints(4).unwrap();
        assert!((t[0][2] - (bp[1] - bp[0])).abs() < 1e-12);
        assert!((t[0][3] - (bp[2] - bp[0])).abs() < 1e-12);
        assert!((t[1][3] - (bp[2] - bp[1])).abs() < 1e-12);
    }

    #[test]
    fn mindist_zero_for_identical_and_adjacent_words() {
        let a = SaxWord::parse("abca", 4, 64).unwrap();
        assert_eq!(mindist(&a, &a).unwrap(), 0.0);
        let b = SaxWord::parse("babb", 4, 64).unwrap(); // every symbol adjacent
        assert_eq!(mindist(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn mindist_scales_with_series_length() {
        let a1 = SaxWord::parse("aaaa", 4, 64).unwrap();
        let d1 = SaxWord::parse("dddd", 4, 64).unwrap();
        let a2 = SaxWord::parse("aaaa", 4, 256).unwrap();
        let d2 = SaxWord::parse("dddd", 4, 256).unwrap();
        let m1 = mindist(&a1, &d1).unwrap();
        let m2 = mindist(&a2, &d2).unwrap();
        assert!((m2 / m1 - 2.0).abs() < 1e-9, "sqrt(256/64)=2 scaling");
    }

    #[test]
    fn mindist_rejects_mismatched_words() {
        let a = SaxWord::parse("aaaa", 4, 64).unwrap();
        let b = SaxWord::parse("aaaa", 4, 32).unwrap();
        assert!(mindist(&a, &b).is_err());
        let c = SaxWord::parse("aaa", 4, 64).unwrap();
        assert!(mindist(&a, &c).is_err());
    }

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(euclidean(&[0.0], &[0.0, 1.0]).is_err());
    }

    /// The lower-bounding theorem, exercised on deterministic series pairs.
    #[test]
    fn mindist_lower_bounds_euclidean() {
        let enc = SaxEncoder::new(SaxConfig::new(8, 8).unwrap());
        let mk = |f: &dyn Fn(usize) -> f32| -> Vec<f32> { (0..128).map(f).collect() };
        let series: Vec<Vec<f32>> = vec![
            mk(&|i| (i as f32 / 9.0).sin()),
            mk(&|i| (i as f32 / 9.0).cos() * 3.0),
            mk(&|i| i as f32 * 0.1),
            mk(&|i| ((i * 37) % 17) as f32 - 8.0),
            mk(&|i| if i < 64 { 1.0 } else { -1.0 }),
            mk(&|i| (i as f32 / 4.0).sin() + (i as f32 / 31.0).cos()),
        ];
        for (i, s1) in series.iter().enumerate() {
            for s2 in series.iter().skip(i + 1) {
                let z1 = crate::normalize::z_normalize(s1);
                let z2 = crate::normalize::z_normalize(s2);
                let w1 = enc.encode_normalized(&z1).unwrap();
                let w2 = enc.encode_normalized(&z2).unwrap();
                let md = mindist(&w1, &w2).unwrap();
                let ed = euclidean(&z1, &z2).unwrap();
                assert!(md <= ed + 1e-6, "MINDIST {md} exceeds Euclidean {ed}");
            }
        }
    }
}
