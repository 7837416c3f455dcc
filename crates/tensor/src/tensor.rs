use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout `relcnn`:
/// images, feature maps, filter banks, weight matrices and time series are
/// all `Tensor`s with an appropriate [`Shape`].
///
/// # Example
///
/// ```rust
/// use relcnn_tensor::{Tensor, Shape};
///
/// let t = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: Shape) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// `shape.volume()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let volume = shape.volume();
        let mut data = Vec::with_capacity(volume);
        let mut index = vec![0usize; shape.rank()];
        for _ in 0..volume {
            data.push(f(&index));
            // Increment the multi-index in row-major order.
            for axis in (0..index.len()).rev() {
                index[axis] += 1;
                if index[axis] < shape.dim(axis) {
                    break;
                }
                index[axis] = 0;
            }
        }
        Tensor { shape, data }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|e| panic!("tensor get: {e}"));
        self.data[off]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self
            .shape
            .offset(index)
            .unwrap_or_else(|e| panic!("tensor set: {e}"));
        self.data[off] = value;
    }

    /// Returns a copy with the same data and a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: impl Into<Vec<usize>>) -> Result<Tensor, TensorError> {
        let shape = self.shape.reshaped(dims)?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Consuming variant of [`Tensor::reshape`]; avoids copying the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn into_reshaped(self, dims: impl Into<Vec<usize>>) -> Result<Tensor, TensorError> {
        let shape = self.shape.reshaped(dims)?;
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Iterator over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Extracts the `i`-th slab along axis 0 (e.g. one image of a batch, or
    /// one channel of a CHW tensor) as an owned tensor of rank `rank - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors and
    /// [`TensorError::IndexOutOfBounds`] if `i` exceeds axis 0.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor, TensorError> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                expected: 1,
                actual: 0,
                op: "index_axis0",
            });
        }
        if i >= self.shape.dim(0) {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                dims: self.shape.dims().to_vec(),
            });
        }
        let sub_dims = self.shape.dims()[1..].to_vec();
        let sub_volume: usize = sub_dims.iter().product();
        let start = i * sub_volume;
        Ok(Tensor {
            shape: Shape::new(sub_dims),
            data: self.data[start..start + sub_volume].to_vec(),
        })
    }

    /// Stacks equal-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if `parts` is empty and
    /// [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = parts.first().ok_or_else(|| TensorError::InvalidGeometry {
            reason: "cannot stack zero tensors".into(),
        })?;
        let mut dims = Vec::with_capacity(first.shape.rank() + 1);
        dims.push(parts.len());
        dims.extend_from_slice(first.shape.dims());
        let mut data = Vec::with_capacity(first.len() * parts.len());
        for p in parts {
            if p.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    expected: first.shape.dims().to_vec(),
                    actual: p.shape.dims().to_vec(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&p.data);
        }
        Ok(Tensor {
            shape: Shape::new(dims),
            data,
        })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix tensors.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "transpose",
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            shape: Shape::d2(c, r),
            data: out,
        })
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const MAX: usize = 8;
        for (i, v) in self.data.iter().take(MAX).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > MAX {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a Tensor {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert!(z.iter().all(|&v| v == 0.0));
        let o = Tensor::ones(Shape::d1(4));
        assert!(o.iter().all(|&v| v == 1.0));
        let f = Tensor::full(Shape::d1(4), 2.5);
        assert!(f.iter().all(|&v| v == 2.5));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(Shape::d2(2, 3), |idx| (idx[0] * 10 + idx[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(Shape::d3(2, 2, 2));
        t.set(&[1, 0, 1], 7.0);
        assert_eq!(t.get(&[1, 0, 1]), 7.0);
    }

    #[test]
    fn reshape_keeps_data() {
        let t = Tensor::from_vec(Shape::d1(6), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![2, 3]).unwrap();
        assert_eq!(r.get(&[1, 2]), 6.0);
        assert!(t.reshape(vec![4]).is_err());
    }

    #[test]
    fn index_axis0_extracts_slab() {
        let t = Tensor::from_fn(Shape::d3(2, 2, 2), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as f32
        });
        let s = t.index_axis0(1).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.get(&[0, 1]), 101.0);
        assert!(t.index_axis0(2).is_err());
        assert!(Tensor::scalar(1.0).index_axis0(0).is_err());
    }

    #[test]
    fn stack_roundtrips_index_axis0() {
        let a = Tensor::full(Shape::d2(2, 2), 1.0);
        let b = Tensor::full(Shape::d2(2, 2), 2.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2, 2]);
        assert_eq!(s.index_axis0(0).unwrap(), a);
        assert_eq!(s.index_axis0(1).unwrap(), b);
        assert!(Tensor::stack(&[]).is_err());
        let c = Tensor::full(Shape::d1(3), 0.0);
        assert!(Tensor::stack(&[a, c]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]), 6.0);
        assert!(Tensor::scalar(0.0).transpose().is_err());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(Shape::d1(20));
        let s = t.to_string();
        assert!(s.contains("…"));
        assert!(!Tensor::scalar(0.0).to_string().is_empty());
    }

    #[test]
    fn default_is_zero_scalar() {
        let d = Tensor::default();
        assert_eq!(d.shape().rank(), 0);
        assert_eq!(d.as_slice(), &[0.0]);
    }
}
