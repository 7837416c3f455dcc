//! Rasterisation primitives: filled polygons, circles and strokes on
//! grayscale or CHW colour tensors.
//!
//! These back both the vision test-suite and the synthetic GTSRB renderer
//! (`relcnn-gtsrb`), which draws traffic-sign geometry with them.

use crate::Rgb;
use relcnn_tensor::Tensor;

/// Vertices of a regular polygon with `sides` sides, circumradius `radius`,
/// centred at `(cx, cy)` and rotated by `rotation` radians.
///
/// Vertices are ordered counter-clockwise in image coordinates (x right,
/// y down). Returns an empty vector when `sides < 3`.
pub fn regular_polygon(
    sides: usize,
    center: (f32, f32),
    radius: f32,
    rotation: f32,
) -> Vec<(f32, f32)> {
    if sides < 3 {
        return Vec::new();
    }
    (0..sides)
        .map(|i| {
            let theta = rotation + std::f32::consts::TAU * i as f32 / sides as f32;
            (
                center.0 + radius * theta.cos(),
                center.1 + radius * theta.sin(),
            )
        })
        .collect()
}

/// Tests whether a point lies inside a polygon (even-odd rule).
fn point_in_polygon(point: (f32, f32), vertices: &[(f32, f32)]) -> bool {
    let (px, py) = point;
    let mut inside = false;
    let n = vertices.len();
    if n < 3 {
        return false;
    }
    let mut j = n - 1;
    for i in 0..n {
        let (xi, yi) = vertices[i];
        let (xj, yj) = vertices[j];
        if ((yi > py) != (yj > py)) && (px < (xj - xi) * (py - yi) / (yj - yi) + xi) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

/// Iterates pixel centres inside the polygon's bounding box, invoking `f`
/// for those inside the polygon.
fn for_each_polygon_pixel(
    dims: (usize, usize),
    vertices: &[(f32, f32)],
    mut f: impl FnMut(usize, usize),
) {
    if vertices.len() < 3 {
        return;
    }
    let (h, w) = dims;
    let min_x = vertices.iter().map(|v| v.0).fold(f32::INFINITY, f32::min);
    let max_x = vertices
        .iter()
        .map(|v| v.0)
        .fold(f32::NEG_INFINITY, f32::max);
    let min_y = vertices.iter().map(|v| v.1).fold(f32::INFINITY, f32::min);
    let max_y = vertices
        .iter()
        .map(|v| v.1)
        .fold(f32::NEG_INFINITY, f32::max);
    let x0 = (min_x.floor().max(0.0)) as usize;
    let x1 = (max_x.ceil().min(w as f32 - 1.0)).max(0.0) as usize;
    let y0 = (min_y.floor().max(0.0)) as usize;
    let y1 = (max_y.ceil().min(h as f32 - 1.0)).max(0.0) as usize;
    for y in y0..=y1.min(h.saturating_sub(1)) {
        for x in x0..=x1.min(w.saturating_sub(1)) {
            if point_in_polygon((x as f32 + 0.5, y as f32 + 0.5), vertices) {
                f(x, y);
            }
        }
    }
}

/// Fills a polygon on a grayscale `[h, w]` image with `value`.
///
/// Out-of-range vertices are clipped to the image; polygons with fewer
/// than three vertices draw nothing.
///
/// # Panics
///
/// Panics if `image` is not rank 2.
pub fn fill_polygon(image: &mut Tensor, vertices: &[(f32, f32)], value: f32) {
    assert_eq!(image.shape().rank(), 2, "fill_polygon needs a [h,w] image");
    let (h, w) = (image.shape().dim(0), image.shape().dim(1));
    let data = image.as_mut_slice();
    for_each_polygon_pixel((h, w), vertices, |x, y| {
        data[y * w + x] = value;
    });
}

/// Fills a regular polygon on a grayscale image — convenience wrapper
/// combining [`regular_polygon`] and [`fill_polygon`].
///
/// # Panics
///
/// Panics if `image` is not rank 2.
pub fn fill_regular_polygon(
    image: &mut Tensor,
    sides: usize,
    center: (f32, f32),
    radius: f32,
    rotation: f32,
    value: f32,
) {
    let vertices = regular_polygon(sides, center, radius, rotation);
    fill_polygon(image, &vertices, value);
}

/// Fills a polygon on a `[3, h, w]` colour image.
///
/// # Panics
///
/// Panics if `image` is not `[3, h, w]`.
pub fn fill_polygon_rgb(image: &mut Tensor, vertices: &[(f32, f32)], color: Rgb) {
    assert!(
        image.shape().rank() == 3 && image.shape().dim(0) == 3,
        "fill_polygon_rgb needs a [3,h,w] image"
    );
    let (h, w) = (image.shape().dim(1), image.shape().dim(2));
    let plane = h * w;
    let data = image.as_mut_slice();
    for_each_polygon_pixel((h, w), vertices, |x, y| {
        data[y * w + x] = color.r;
        data[plane + y * w + x] = color.g;
        data[2 * plane + y * w + x] = color.b;
    });
}

/// Fills a circle on a grayscale image.
///
/// # Panics
///
/// Panics if `image` is not rank 2.
pub fn fill_circle(image: &mut Tensor, center: (f32, f32), radius: f32, value: f32) {
    assert_eq!(image.shape().rank(), 2, "fill_circle needs a [h,w] image");
    let (h, w) = (image.shape().dim(0), image.shape().dim(1));
    let data = image.as_mut_slice();
    for_each_circle_pixel((h, w), center, radius, |x, y| {
        data[y * w + x] = value;
    });
}

/// Fills a circle on a `[3, h, w]` colour image.
///
/// # Panics
///
/// Panics if `image` is not `[3, h, w]`.
pub fn fill_circle_rgb(image: &mut Tensor, center: (f32, f32), radius: f32, color: Rgb) {
    assert!(
        image.shape().rank() == 3 && image.shape().dim(0) == 3,
        "fill_circle_rgb needs a [3,h,w] image"
    );
    let (h, w) = (image.shape().dim(1), image.shape().dim(2));
    let plane = h * w;
    let data = image.as_mut_slice();
    for_each_circle_pixel((h, w), center, radius, |x, y| {
        data[y * w + x] = color.r;
        data[plane + y * w + x] = color.g;
        data[2 * plane + y * w + x] = color.b;
    });
}

fn for_each_circle_pixel(
    dims: (usize, usize),
    center: (f32, f32),
    radius: f32,
    mut f: impl FnMut(usize, usize),
) {
    if radius <= 0.0 {
        return;
    }
    let (h, w) = dims;
    let (cx, cy) = center;
    let x0 = ((cx - radius).floor().max(0.0)) as usize;
    let x1 = ((cx + radius).ceil().min(w as f32 - 1.0)).max(0.0) as usize;
    let y0 = ((cy - radius).floor().max(0.0)) as usize;
    let y1 = ((cy + radius).ceil().min(h as f32 - 1.0)).max(0.0) as usize;
    let r2 = radius * radius;
    for y in y0..=y1.min(h.saturating_sub(1)) {
        for x in x0..=x1.min(w.saturating_sub(1)) {
            let dx = x as f32 + 0.5 - cx;
            let dy = y as f32 + 0.5 - cy;
            if dx * dx + dy * dy <= r2 {
                f(x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_tensor::Shape;

    #[test]
    fn regular_polygon_geometry() {
        let sq = regular_polygon(4, (0.0, 0.0), 1.0, 0.0);
        assert_eq!(sq.len(), 4);
        for (x, y) in &sq {
            assert!(((x * x + y * y).sqrt() - 1.0).abs() < 1e-5);
        }
        assert!(regular_polygon(2, (0.0, 0.0), 1.0, 0.0).is_empty());
    }

    #[test]
    fn point_in_polygon_square() {
        let sq = vec![(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        assert!(point_in_polygon((5.0, 5.0), &sq));
        assert!(!point_in_polygon((-1.0, 5.0), &sq));
        assert!(!point_in_polygon((5.0, 11.0), &sq));
        assert!(!point_in_polygon((5.0, 5.0), &sq[..2]));
    }

    #[test]
    fn fill_polygon_area_close_to_analytic() {
        let mut img = Tensor::zeros(Shape::d2(100, 100));
        // A 60x40 axis-aligned rectangle.
        let rect = vec![(20.0, 30.0), (80.0, 30.0), (80.0, 70.0), (20.0, 70.0)];
        fill_polygon(&mut img, &rect, 1.0);
        let area = img.sum();
        assert!((area - 2400.0).abs() < 150.0, "area {area}");
    }

    #[test]
    fn fill_octagon_area() {
        let mut img = Tensor::zeros(Shape::d2(128, 128));
        fill_regular_polygon(&mut img, 8, (64.0, 64.0), 40.0, 0.0, 1.0);
        // Regular octagon area = 2*sqrt(2)*R^2 with circumradius R.
        let analytic = 2.0 * 2.0f32.sqrt() * 40.0 * 40.0;
        let area = img.sum();
        assert!(
            (area - analytic).abs() / analytic < 0.05,
            "area {area} vs analytic {analytic}"
        );
    }

    #[test]
    fn fill_circle_area() {
        let mut img = Tensor::zeros(Shape::d2(100, 100));
        fill_circle(&mut img, (50.0, 50.0), 30.0, 1.0);
        let analytic = std::f32::consts::PI * 30.0 * 30.0;
        let area = img.sum();
        assert!((area - analytic).abs() / analytic < 0.03, "area {area}");
        // Zero radius draws nothing.
        let mut img2 = Tensor::zeros(Shape::d2(10, 10));
        fill_circle(&mut img2, (5.0, 5.0), 0.0, 1.0);
        assert_eq!(img2.sum(), 0.0);
    }

    #[test]
    fn clipping_out_of_bounds_shapes() {
        let mut img = Tensor::zeros(Shape::d2(20, 20));
        fill_circle(&mut img, (0.0, 0.0), 10.0, 1.0);
        assert!(img.sum() > 0.0, "clipped quarter-circle drawn");
        fill_regular_polygon(&mut img, 4, (30.0, 30.0), 5.0, 0.0, 1.0);
        // Entirely outside: no panic, no change beyond the circle.
    }

    #[test]
    fn rgb_fills() {
        let mut img = Tensor::full(Shape::d3(3, 16, 16), 0.5);
        fill_circle_rgb(&mut img, (8.0, 8.0), 4.0, Rgb::sign_red());
        fill_polygon_rgb(
            &mut img,
            &regular_polygon(3, (8.0, 8.0), 3.0, 0.0),
            Rgb::white(),
        );
        // Centre pixel is white (triangle on top of circle).
        assert!((img.get(&[0, 8, 8]) - 1.0).abs() < 1e-6);
        assert!((img.get(&[1, 8, 8]) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "needs a [h,w] image")]
    fn fill_polygon_rejects_rgb_tensor() {
        let mut img = Tensor::zeros(Shape::d3(3, 8, 8));
        fill_polygon(&mut img, &[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)], 1.0);
    }
}
