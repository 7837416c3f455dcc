//! Connected-component analysis of binary masks.
//!
//! The qualifier isolates the candidate sign as the largest connected
//! component of the edge mask before computing its centroid and radial
//! signature, so background clutter cannot perturb the shape word.

use crate::VisionError;
use relcnn_tensor::{Shape, Tensor};
use std::collections::VecDeque;

/// A connected component of foreground pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Blob {
    /// Pixel coordinates `(y, x)` belonging to the component.
    pixels: Vec<(usize, usize)>,
}

impl Blob {
    /// Number of pixels in the component.
    pub fn area(&self) -> usize {
        self.pixels.len()
    }

    /// The component's pixels as `(y, x)` pairs.
    pub fn pixels(&self) -> &[(usize, usize)] {
        &self.pixels
    }

    /// Centroid `(cy, cx)` of the component.
    pub fn centroid(&self) -> (f32, f32) {
        let n = self.pixels.len() as f32;
        let (sy, sx) = self
            .pixels
            .iter()
            .fold((0.0f32, 0.0f32), |(sy, sx), &(y, x)| {
                (sy + y as f32, sx + x as f32)
            });
        (sy / n, sx / n)
    }

    /// Renders the component back into a fresh binary mask of shape
    /// `[h, w]`.
    pub fn to_mask(&self, h: usize, w: usize) -> Tensor {
        let mut mask = Tensor::zeros(Shape::d2(h, w));
        for &(y, x) in &self.pixels {
            if y < h && x < w {
                mask.set(&[y, x], 1.0);
            }
        }
        mask
    }
}

/// Labels all 8-connected components of foreground (`> 0.5`) pixels.
///
/// # Errors
///
/// Returns [`VisionError::NotGrayscale`] for non-rank-2 input.
pub fn connected_components(mask: &Tensor) -> Result<Vec<Blob>, VisionError> {
    if mask.shape().rank() != 2 {
        return Err(VisionError::NotGrayscale {
            rank: mask.shape().rank(),
        });
    }
    let (h, w) = (mask.shape().dim(0), mask.shape().dim(1));
    let data = mask.as_slice();
    let mut visited = vec![false; h * w];
    let mut blobs = Vec::new();

    for start in 0..h * w {
        if visited[start] || data[start] <= 0.5 {
            continue;
        }
        // BFS flood fill with 8-connectivity.
        let mut pixels = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(p) = queue.pop_front() {
            let (y, x) = (p / w, p % w);
            pixels.push((y, x));
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dy == 0 && dx == 0 {
                        continue;
                    }
                    let ny = y as i64 + dy;
                    let nx = x as i64 + dx;
                    if ny < 0 || nx < 0 || ny >= h as i64 || nx >= w as i64 {
                        continue;
                    }
                    let np = ny as usize * w + nx as usize;
                    if !visited[np] && data[np] > 0.5 {
                        visited[np] = true;
                        queue.push_back(np);
                    }
                }
            }
        }
        blobs.push(Blob { pixels });
    }
    Ok(blobs)
}

/// Returns the largest connected component of the mask.
///
/// # Errors
///
/// * [`VisionError::EmptyMask`] when the mask has no foreground;
/// * [`VisionError::NotGrayscale`] for non-rank-2 input.
pub fn largest_component(mask: &Tensor) -> Result<Blob, VisionError> {
    connected_components(mask)?
        .into_iter()
        .max_by_key(Blob::area)
        .ok_or(VisionError::EmptyMask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw;

    #[test]
    fn single_blob_found_with_centroid() {
        let mut mask = Tensor::zeros(Shape::d2(32, 32));
        draw::fill_circle(&mut mask, (16.0, 16.0), 6.0, 1.0);
        let blobs = connected_components(&mask).unwrap();
        assert_eq!(blobs.len(), 1);
        let (cy, cx) = blobs[0].centroid();
        assert!((cy - 15.5).abs() < 1.0, "cy {cy}");
        assert!((cx - 15.5).abs() < 1.0, "cx {cx}");
    }

    #[test]
    fn separates_distinct_blobs() {
        let mut mask = Tensor::zeros(Shape::d2(32, 32));
        draw::fill_circle(&mut mask, (8.0, 8.0), 3.0, 1.0);
        draw::fill_circle(&mut mask, (24.0, 24.0), 5.0, 1.0);
        let blobs = connected_components(&mask).unwrap();
        assert_eq!(blobs.len(), 2);
        let largest = largest_component(&mask).unwrap();
        let (cy, cx) = largest.centroid();
        assert!(cy > 16.0 && cx > 16.0, "largest is the radius-5 circle");
    }

    #[test]
    fn diagonal_pixels_are_connected() {
        let mut mask = Tensor::zeros(Shape::d2(4, 4));
        mask.set(&[0, 0], 1.0);
        mask.set(&[1, 1], 1.0);
        mask.set(&[2, 2], 1.0);
        let blobs = connected_components(&mask).unwrap();
        assert_eq!(blobs.len(), 1, "8-connectivity joins diagonals");
        assert_eq!(blobs[0].area(), 3);
    }

    #[test]
    fn empty_mask_errors() {
        let mask = Tensor::zeros(Shape::d2(8, 8));
        assert_eq!(connected_components(&mask).unwrap().len(), 0);
        assert!(matches!(
            largest_component(&mask),
            Err(VisionError::EmptyMask)
        ));
    }

    #[test]
    fn mask_roundtrip() {
        let mut mask = Tensor::zeros(Shape::d2(16, 16));
        draw::fill_polygon(
            &mut mask,
            &[(4.0, 4.0), (12.0, 4.0), (12.0, 10.0), (4.0, 10.0)],
            1.0,
        );
        let blob = largest_component(&mask).unwrap();
        let rendered = blob.to_mask(16, 16);
        assert_eq!(rendered, mask);
    }

    #[test]
    fn rejects_rgb_input() {
        let rgb = Tensor::zeros(Shape::d3(3, 4, 4));
        assert!(connected_components(&rgb).is_err());
    }

    #[test]
    fn blob_ring_shape_centroid_is_centre() {
        // An edge ring (not filled): centroid still the centre.
        let mut filled = Tensor::zeros(Shape::d2(64, 64));
        draw::fill_circle(&mut filled, (32.0, 32.0), 20.0, 1.0);
        let edges = crate::sobel::gradient_magnitude(&filled).unwrap();
        let mask = crate::threshold::binarize(&edges, 0.5);
        let blob = largest_component(&mask).unwrap();
        let (cy, cx) = blob.centroid();
        assert!((cy - 31.5).abs() < 1.5);
        assert!((cx - 31.5).abs() < 1.5);
    }
}
