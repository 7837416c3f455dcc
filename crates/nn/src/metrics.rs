//! Classification metrics: accuracy and confusion matrices.
//!
//! The paper compares "both the confusion matrices of the original and
//! replaced filters and the accuracy" (§III-B); this module provides the
//! artefacts for that comparison (experiment X1).

use crate::error::NnError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A square confusion matrix: `counts[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "confusion matrix needs at least one class");
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one observation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for out-of-range class indices.
    pub fn record(&mut self, actual: usize, predicted: usize) -> Result<(), NnError> {
        if actual >= self.classes || predicted >= self.classes {
            return Err(NnError::BadInput {
                layer: "confusion_matrix",
                reason: format!(
                    "class pair ({actual}, {predicted}) out of range for {} classes",
                    self.classes
                ),
            });
        }
        self.counts[actual * self.classes + predicted] += 1;
        Ok(())
    }

    /// Count at `(actual, predicted)`.
    pub fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.classes + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (1.0 for an empty matrix).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let correct: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        correct as f64 / total as f64
    }

    /// Precision of one class; `None` when the class was never predicted.
    pub fn precision(&self, class: usize) -> Option<f64> {
        let col: u64 = (0..self.classes).map(|a| self.count(a, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / col as f64)
        }
    }

    /// Element-wise absolute difference from another matrix — the
    /// "compare both confusion matrices" operation of §III-B.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when sizes differ.
    pub fn abs_diff(&self, other: &ConfusionMatrix) -> Result<u64, NnError> {
        if self.classes != other.classes {
            return Err(NnError::BadInput {
                layer: "confusion_matrix",
                reason: format!("class counts {} vs {}", self.classes, other.classes),
            });
        }
        Ok(self
            .counts
            .iter()
            .zip(other.counts.iter())
            .map(|(&a, &b)| a.abs_diff(b))
            .sum())
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion matrix ({} classes, rows=actual):",
            self.classes
        )?;
        write!(f, "      ")?;
        for p in 0..self.classes {
            write!(f, "{p:>6}")?;
        }
        writeln!(f)?;
        for a in 0..self.classes {
            write!(f, "{a:>5}:")?;
            for p in 0..self.classes {
                write!(f, "{:>6}", self.count(a, p))?;
            }
            writeln!(f)?;
        }
        write!(f, "accuracy: {:.4}", self.accuracy())
    }
}

/// Plain accuracy over `(actual, predicted)` pairs (1.0 for empty input).
pub fn accuracy(pairs: &[(usize, usize)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    pairs.iter().filter(|(a, p)| a == p).count() as f64 / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(3);
        // class 0: 8 correct, 2 -> class 1
        for _ in 0..8 {
            m.record(0, 0).unwrap();
        }
        for _ in 0..2 {
            m.record(0, 1).unwrap();
        }
        // class 1: 9 correct, 1 -> class 2
        for _ in 0..9 {
            m.record(1, 1).unwrap();
        }
        m.record(1, 2).unwrap();
        // class 2: all 10 correct
        for _ in 0..10 {
            m.record(2, 2).unwrap();
        }
        m
    }

    #[test]
    fn accuracy_and_counts() {
        let m = sample_matrix();
        assert_eq!(m.total(), 30);
        assert!((m.accuracy() - 27.0 / 30.0).abs() < 1e-12);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.classes(), 3);
    }

    #[test]
    fn per_class_metrics() {
        let m = sample_matrix();
        // Precision of class 1: 9 true / (9 + 2 from class 0) = 9/11.
        assert!((m.precision(1).unwrap() - 9.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_classes_give_none() {
        let m = ConfusionMatrix::new(2);
        assert_eq!(m.precision(0), None);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn record_validates() {
        let mut m = ConfusionMatrix::new(2);
        assert!(m.record(2, 0).is_err());
        assert!(m.record(0, 2).is_err());
        assert!(m.record(1, 1).is_ok());
    }

    #[test]
    fn abs_diff_measures_matrix_distance() {
        let a = sample_matrix();
        let mut b = sample_matrix();
        assert_eq!(a.abs_diff(&b).unwrap(), 0);
        b.record(0, 2).unwrap();
        assert_eq!(a.abs_diff(&b).unwrap(), 1);
        let c = ConfusionMatrix::new(2);
        assert!(a.abs_diff(&c).is_err());
    }

    #[test]
    fn display_contains_rows() {
        let m = sample_matrix();
        let s = m.to_string();
        assert!(s.contains("accuracy"));
        assert!(s.contains("rows=actual"));
    }

    #[test]
    fn plain_accuracy_helper() {
        assert_eq!(accuracy(&[]), 1.0);
        assert_eq!(accuracy(&[(0, 0), (1, 1), (1, 0), (2, 2)]), 0.75);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        ConfusionMatrix::new(0);
    }
}
