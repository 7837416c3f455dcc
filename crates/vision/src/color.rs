use crate::VisionError;
use relcnn_tensor::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// An RGB colour with components in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rgb {
    /// Red component.
    pub r: f32,
    /// Green component.
    pub g: f32,
    /// Blue component.
    pub b: f32,
}

impl Rgb {
    /// Creates a colour, clamping components into `[0, 1]`.
    pub fn new(r: f32, g: f32, b: f32) -> Self {
        Rgb {
            r: r.clamp(0.0, 1.0),
            g: g.clamp(0.0, 1.0),
            b: b.clamp(0.0, 1.0),
        }
    }

    /// Traffic-sign red (approximates RAL 3020, the European sign red).
    pub fn sign_red() -> Self {
        Rgb::new(0.80, 0.08, 0.10)
    }

    /// Traffic-sign blue (RAL 5017).
    pub fn sign_blue() -> Self {
        Rgb::new(0.0, 0.26, 0.56)
    }

    /// Plain white.
    pub fn white() -> Self {
        Rgb::new(1.0, 1.0, 1.0)
    }

    /// Plain black.
    pub fn black() -> Self {
        Rgb::new(0.0, 0.0, 0.0)
    }

    /// Linear interpolation towards `other` (`t` clamped to `[0, 1]`).
    pub fn lerp(&self, other: Rgb, t: f32) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        Rgb::new(
            self.r + (other.r - self.r) * t,
            self.g + (other.g - self.g) * t,
            self.b + (other.b - self.b) * t,
        )
    }
}

/// Converts a `[3, h, w]` CHW colour image to a `[h, w]` grayscale image
/// using BT.601 luma weights — the deterministic first step of the
/// qualifier's edge pipeline.
///
/// # Errors
///
/// Returns [`VisionError::NotRgb`] unless the input is `[3, h, w]`.
pub fn rgb_to_gray(image: &Tensor) -> Result<Tensor, VisionError> {
    if image.shape().rank() != 3 || image.shape().dim(0) != 3 {
        return Err(VisionError::NotRgb {
            dims: image.shape().dims().to_vec(),
        });
    }
    let (h, w) = (image.shape().dim(1), image.shape().dim(2));
    let plane = h * w;
    let x = image.as_slice();
    let mut out = Vec::with_capacity(plane);
    for i in 0..plane {
        out.push(0.299 * x[i] + 0.587 * x[plane + i] + 0.114 * x[2 * plane + i]);
    }
    Ok(Tensor::from_vec(Shape::d2(h, w), out).expect("buffer sized to plane"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamping() {
        let c = Rgb::new(2.0, -1.0, 0.5);
        assert_eq!((c.r, c.g, c.b), (1.0, 0.0, 0.5));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Rgb::black();
        let b = Rgb::white();
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Rgb::new(0.5, 0.5, 0.5));
        assert_eq!(a.lerp(b, 7.0), b, "t clamped");
    }

    #[test]
    fn gray_conversion_known_values() {
        let mut img = Tensor::zeros(Shape::d3(3, 1, 2));
        // Pixel 0: pure red; pixel 1: white.
        img.set(&[0, 0, 0], 1.0);
        img.set(&[0, 0, 1], 1.0);
        img.set(&[1, 0, 1], 1.0);
        img.set(&[2, 0, 1], 1.0);
        let gray = rgb_to_gray(&img).unwrap();
        assert!((gray.get(&[0, 0]) - 0.299).abs() < 1e-6);
        assert!((gray.get(&[0, 1]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gray_conversion_rejects_bad_shapes() {
        assert!(rgb_to_gray(&Tensor::zeros(Shape::d2(4, 4))).is_err());
        assert!(rgb_to_gray(&Tensor::zeros(Shape::d3(1, 4, 4))).is_err());
    }

    #[test]
    fn sign_palette_distinct() {
        assert_ne!(Rgb::sign_red(), Rgb::sign_blue());
        assert!(Rgb::sign_red().r > Rgb::sign_red().g);
        assert!(Rgb::sign_blue().b > Rgb::sign_blue().r);
    }
}
