use crate::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a [`Tensor`](crate::Tensor), in row-major order.
///
/// A `Shape` is an immutable list of dimension sizes. Rank-0 (scalar) shapes
/// are permitted and have volume 1.
///
/// # Example
///
/// ```rust
/// use relcnn_tensor::Shape;
///
/// let s = Shape::d3(2, 3, 4);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.volume(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape { dims: dims.into() }
    }

    /// Creates a scalar (rank-0) shape with volume 1.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Creates a rank-1 shape.
    pub fn d1(n: usize) -> Self {
        Shape { dims: vec![n] }
    }

    /// Creates a rank-2 shape (rows, cols).
    pub fn d2(rows: usize, cols: usize) -> Self {
        Shape {
            dims: vec![rows, cols],
        }
    }

    /// Creates a rank-3 shape (channels, height, width).
    pub fn d3(c: usize, h: usize, w: usize) -> Self {
        Shape {
            dims: vec![c, h, w],
        }
    }

    /// Creates a rank-4 shape (count, channels, height, width).
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape {
            dims: vec![n, c, h, w],
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The total number of elements (product of dimensions; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// The size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides for this shape.
    ///
    /// The last axis has stride 1; each preceding axis has the stride of the
    /// following axis multiplied by that axis' size.
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank does not
    /// match or any coordinate exceeds its dimension.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                dims: self.dims.clone(),
            });
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for axis in (0..self.dims.len()).rev() {
            if index[axis] >= self.dims[axis] {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    dims: self.dims.clone(),
                });
            }
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        Ok(off)
    }

    /// Converts a flat row-major offset back into a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `offset >= volume()`.
    pub fn unravel(&self, offset: usize) -> Result<Vec<usize>, TensorError> {
        if offset >= self.volume() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![offset],
                dims: self.dims.clone(),
            });
        }
        let mut rem = offset;
        let mut index = vec![0usize; self.dims.len()];
        for (axis, stride) in self.strides().iter().enumerate() {
            index[axis] = rem / stride;
            rem %= stride;
        }
        Ok(index)
    }

    /// Returns a new shape with the same volume, reinterpreted with the
    /// given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshaped(&self, dims: impl Into<Vec<usize>>) -> Result<Shape, TensorError> {
        let new = Shape::new(dims);
        if new.volume() != self.volume() {
            return Err(TensorError::LengthMismatch {
                expected: self.volume(),
                actual: new.volume(),
            });
        }
        Ok(new)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_volume_one() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::d4(2, 3, 4, 5).strides(), vec![60, 20, 5, 1]);
        assert_eq!(Shape::d1(7).strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::d3(3, 4, 5);
        for flat in 0..s.volume() {
            let idx = s.unravel(flat).unwrap();
            assert_eq!(s.offset(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn offset_rejects_bad_rank_and_bounds() {
        let s = Shape::d2(2, 2);
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 2]).is_err());
        assert!(s.unravel(4).is_err());
    }

    #[test]
    fn reshape_preserves_volume() {
        let s = Shape::d2(6, 4);
        let r = s.reshaped(vec![2, 3, 4]).unwrap();
        assert_eq!(r.volume(), 24);
        assert!(s.reshaped(vec![5, 5]).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::d3(1, 2, 3).to_string(), "[1x2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn zero_dim_volume_is_zero() {
        let s = Shape::new(vec![0, 5]);
        assert_eq!(s.volume(), 0);
    }

    #[test]
    fn from_conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
    }
}
