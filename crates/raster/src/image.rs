use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

/// An 8-bit RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rgb8 {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb8 {
    /// Creates a colour from components.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb8 { r, g, b }
    }

    /// Euclidean distance in RGB space (the paper differentiates elements
    /// "using RGB euclidean distance").
    pub fn distance(self, other: Rgb8) -> f32 {
        let dr = self.r as f32 - other.r as f32;
        let dg = self.g as f32 - other.g as f32;
        let db = self.b as f32 - other.b as f32;
        (dr * dr + dg * dg + db * db).sqrt()
    }
}

/// Errors produced by image operations.
#[derive(Debug)]
pub enum ImageError {
    /// Channel/shape mismatch between images or against an operation's
    /// requirement.
    ShapeMismatch {
        /// Human-readable description of the expectation.
        expected: String,
        /// What was found instead.
        found: String,
    },
    /// Underlying I/O failure when writing image files.
    Io(std::io::Error),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::ShapeMismatch { expected, found } => {
                write!(
                    f,
                    "image shape mismatch: expected {expected}, found {found}"
                )
            }
            ImageError::Io(e) => write!(f, "image io error: {e}"),
        }
    }
}

impl Error for ImageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ImageError {
    fn from(e: std::io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// A float image in CHW layout with values in `[0, 1]`.
///
/// One channel for the connectivity image, three for everything else. The
/// CHW layout matches the NCHW tensors of [`pop-nn`](../pop_nn/index.html),
/// so feature assembly is a plain copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    channels: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a zero-filled image.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(width: usize, height: usize, channels: usize) -> Self {
        assert!(width > 0 && height > 0 && channels > 0, "empty image");
        Image {
            width,
            height,
            channels,
            data: vec![0.0; width * height * channels],
        }
    }

    /// Creates an image filled with an RGB colour (3 channels).
    pub fn filled_rgb(width: usize, height: usize, color: Rgb8) -> Self {
        assert!(width > 0 && height > 0, "empty image");
        let mut data = Vec::with_capacity(3 * width * height);
        for v in [color.r, color.g, color.b] {
            data.resize(data.len() + width * height, v as f32 / 255.0);
        }
        Image::from_data(width, height, 3, data)
    }

    /// Writes `color` into the pixel rectangle `xs × ys` of a 3-channel
    /// image: one slice fill per plane and row.
    pub(crate) fn fill_rect(&mut self, xs: Range<usize>, ys: Range<usize>, color: Rgb8) {
        assert!(self.channels >= 3 && xs.end <= self.width && ys.end <= self.height);
        for (c, v) in [color.r, color.g, color.b].into_iter().enumerate() {
            let plane = &mut self.data[c * self.width * self.height..];
            for y in ys.clone() {
                plane[y * self.width..][xs.clone()].fill(v as f32 / 255.0);
            }
        }
    }

    /// Wraps raw CHW data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * channels`.
    pub fn from_data(width: usize, height: usize, channels: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height * channels, "data length");
        Image {
            width,
            height,
            channels,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of channels (1 or 3 in this crate).
    #[inline]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Raw CHW data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw CHW data, by value.
    #[inline]
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Mutable raw CHW data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads one channel value.
    #[inline]
    pub fn get(&self, x: usize, y: usize, c: usize) -> f32 {
        self.data[c * self.width * self.height + y * self.width + x]
    }

    /// Writes one channel value.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: usize, v: f32) {
        self.data[c * self.width * self.height + y * self.width + x] = v;
    }

    /// Reads a pixel as an 8-bit colour (3-channel images; 1-channel images
    /// return the value replicated to gray).
    pub fn pixel_rgb8(&self, x: usize, y: usize) -> Rgb8 {
        let q = unit_to_u8;
        if self.channels >= 3 {
            Rgb8::new(
                q(self.get(x, y, 0)),
                q(self.get(x, y, 1)),
                q(self.get(x, y, 2)),
            )
        } else {
            let g = q(self.get(x, y, 0));
            Rgb8::new(g, g, g)
        }
    }

    /// Writes an 8-bit colour into a 3-channel pixel.
    ///
    /// # Panics
    ///
    /// Panics if the image has fewer than 3 channels.
    pub fn set_rgb8(&mut self, x: usize, y: usize, color: Rgb8) {
        assert!(self.channels >= 3, "set_rgb8 needs 3 channels");
        self.set(x, y, 0, color.r as f32 / 255.0);
        self.set(x, y, 1, color.g as f32 / 255.0);
        self.set(x, y, 2, color.b as f32 / 255.0);
    }

    /// Mean absolute difference to another image of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ShapeMismatch`] when shapes differ.
    pub fn mean_abs_diff(&self, other: &Image) -> Result<f32, ImageError> {
        self.check_same_shape(other)?;
        let sum: f32 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        Ok(sum / self.data.len() as f32)
    }

    pub(crate) fn check_same_shape(&self, other: &Image) -> Result<(), ImageError> {
        if (self.width, self.height, self.channels) != (other.width, other.height, other.channels) {
            return Err(ImageError::ShapeMismatch {
                expected: format!("{}x{}x{}", self.width, self.height, self.channels),
                found: format!("{}x{}x{}", other.width, other.height, other.channels),
            });
        }
        Ok(())
    }

    /// Writes the image as binary PPM (3 channels) or PGM (1 channel) — the
    /// dependency-free stand-in for the paper's JPEG files.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Io`] on filesystem failure.
    pub fn write_pnm(&self, path: impl AsRef<Path>) -> Result<(), ImageError> {
        let mut w = BufWriter::new(File::create(path)?);
        if self.channels >= 3 {
            write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
            for y in 0..self.height {
                for x in 0..self.width {
                    let p = self.pixel_rgb8(x, y);
                    w.write_all(&[p.r, p.g, p.b])?;
                }
            }
        } else {
            write!(w, "P5\n{} {}\n255\n", self.width, self.height)?;
            for y in 0..self.height {
                for x in 0..self.width {
                    w.write_all(&[unit_to_u8(self.get(x, y, 0))])?;
                }
            }
        }
        w.flush()?;
        Ok(())
    }
}

/// `v` in `[0, 1]` as an 8-bit level: `(v.clamp(0, 1)·255).round() as u8`,
/// NaN to 0. The product is truncated and one added when the remainder is
/// at least ½ — both exact below 2²³, so this is `round`'s half-away-from-
/// zero result without its libm call (one per channel of every pixel a
/// score decodes on baseline x86-64).
#[inline]
fn unit_to_u8(v: f32) -> u8 {
    let scaled = v.clamp(0.0, 1.0) * 255.0;
    let whole = scaled as u8;
    whole + u8::from(scaled - f32::from(whole) >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expression [`unit_to_u8`] replaces.
    fn rounded(v: f32) -> u8 {
        (v.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    /// The first input of `bits` whose level differs from `rounded`'s.
    fn first_mismatch(bits: impl Iterator<Item = u32>) -> Option<u32> {
        bits.map(f32::from_bits)
            .find(|&v| unit_to_u8(v) != rounded(v))
            .map(f32::to_bits)
    }

    /// Every half-level boundary with its neighbours, the specials and a
    /// strided sweep of all bit patterns.
    #[test]
    fn unit_to_u8_is_the_rounded_product() {
        let halves = (0..=255u32).flat_map(|l| {
            let edge = ((l as f32 + 0.5) / 255.0).to_bits();
            edge - 8..=edge + 8
        });
        let specials = [
            0.0f32,
            -0.0,
            1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ]
        .map(f32::to_bits);
        let sweep = (0..=u32::MAX).step_by(997);
        let all = halves.chain(specials).chain(sweep);
        assert_eq!(first_mismatch(all), None);
    }

    /// `unit_to_u8` against the rounded product on all 2³² inputs:
    /// `cargo test --release -p pop-raster --lib -- --ignored every_level`.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs, run in release"]
    fn unit_to_u8_is_the_rounded_product_on_every_level_input() {
        assert_eq!(first_mismatch(0..=u32::MAX), None);
        println!("unit_to_u8 equals the rounded product on all 2^32 inputs");
    }

    #[test]
    fn rgb_roundtrip() {
        let mut img = Image::zeros(4, 4, 3);
        let c = Rgb8::new(173, 216, 230);
        img.set_rgb8(2, 1, c);
        assert_eq!(img.pixel_rgb8(2, 1), c);
        assert_eq!(img.pixel_rgb8(0, 0), Rgb8::new(0, 0, 0));
    }

    #[test]
    fn grayscale_pixel_replicates() {
        let mut img = Image::zeros(2, 2, 1);
        img.set(1, 1, 0, 0.5);
        let p = img.pixel_rgb8(1, 1);
        assert_eq!(p.r, p.g);
        assert_eq!(p.g, p.b);
        assert_eq!(p.r, 128);
    }

    #[test]
    fn mean_abs_diff_basics() {
        let a = Image::zeros(2, 2, 1);
        let mut b = Image::zeros(2, 2, 1);
        b.set(0, 0, 0, 1.0);
        assert!((a.mean_abs_diff(&b).unwrap() - 0.25).abs() < 1e-6);
        let c = Image::zeros(3, 2, 1);
        assert!(a.mean_abs_diff(&c).is_err());
    }

    #[test]
    fn color_distance() {
        assert_eq!(Rgb8::new(0, 0, 0).distance(Rgb8::new(0, 0, 0)), 0.0);
        let d = Rgb8::new(255, 255, 255).distance(Rgb8::new(0, 0, 0));
        assert!((d - (3.0f32).sqrt() * 255.0).abs() < 1e-3);
    }

    #[test]
    fn write_pnm_produces_file() {
        let dir = std::env::temp_dir().join("pop_raster_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p3 = dir.join("t.ppm");
        Image::filled_rgb(3, 2, Rgb8::new(1, 2, 3))
            .write_pnm(&p3)
            .unwrap();
        let bytes = std::fs::read(&p3).unwrap();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), "P6\n3 2\n255\n".len() + 18);
        let p1 = dir.join("t.pgm");
        Image::zeros(2, 2, 1).write_pnm(&p1).unwrap();
        assert!(std::fs::read(&p1).unwrap().starts_with(b"P5\n"));
    }

    #[test]
    #[should_panic(expected = "empty image")]
    fn zero_size_panics() {
        let _ = Image::zeros(0, 4, 3);
    }
}
