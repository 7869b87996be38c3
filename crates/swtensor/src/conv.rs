//! Multi-channel 2-D convolution: shape bookkeeping and the naive MAC
//! reference (the paper's Algorithm 1).

use std::ops::Range;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Shape of a convolution operator, following the paper's notation:
/// batch `B`, input channels `Ni`, output channels `No`, output spatial
/// `Ro × Co`, kernel `Kr × Kc`, plus stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    pub b: usize,
    pub ni: usize,
    pub no: usize,
    pub ro: usize,
    pub co: usize,
    pub kr: usize,
    pub kc: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvShape {
    /// Square-image, 3×3, stride-1, unpadded convolution (the shape family
    /// of the paper's Listing 1 sweep).
    pub fn square(b: usize, ni: usize, no: usize, ro: usize) -> Self {
        ConvShape { b, ni, no, ro, co: ro, kr: 3, kc: 3, stride: 1, pad: 0 }
    }

    /// Input rows needed for the configured output size.
    pub fn ri(&self) -> usize {
        (self.ro - 1) * self.stride + self.kr - 2 * self.pad
    }

    /// Input columns needed for the configured output size.
    pub fn ci(&self) -> usize {
        (self.co - 1) * self.stride + self.kc - 2 * self.pad
    }

    /// Input tensor shape in NCHW.
    pub fn input_shape(&self) -> Shape {
        Shape::from([self.b, self.ni, self.ri(), self.ci()])
    }

    /// Weight tensor shape `[No][Ni][Kr][Kc]`.
    pub fn weight_shape(&self) -> Shape {
        Shape::from([self.no, self.ni, self.kr, self.kc])
    }

    /// Output tensor shape in NCHW.
    pub fn output_shape(&self) -> Shape {
        Shape::from([self.b, self.no, self.ro, self.co])
    }

    /// MAC count of the direct convolution.
    pub fn macs(&self) -> u64 {
        (self.b * self.no * self.ro * self.co) as u64 * (self.ni * self.kr * self.kc) as u64
    }

    /// FLOP count (2 per MAC), the normaliser for all efficiency numbers —
    /// including Winograd, which is why its "efficiency" can exceed 100%.
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }

    /// Whether the Winograd F(2×2,3×3) method applies (3×3, stride 1).
    pub fn winograd_applicable(&self) -> bool {
        self.kr == 3 && self.kc == 3 && self.stride == 1
    }
}

/// Direct convolution with the semantics of Algorithm 1 (the naive MAC
/// loop nest over `(B, Ro, Co, Kr, Kc, No, Ni)`).
/// Input NCHW, weight `[No][Ni][Kr][Kc]`, output NCHW.
///
/// The contract is bit-exact, not just numerical: every output element
/// starts at `0.0` and accumulates its in-bounds taps one multiply-add at a
/// time in `(kr, kc, ni)` order, exactly as Algorithm 1 does, so validation
/// verdicts and `verify_tolerance` margins do not depend on the traversal.
/// The traversal is `b → no → kr → kc → ni → ro → co` over raw slices, with
/// `co` contiguous innermost, so the golden reference runs at memory speed.
/// `tests/prop.rs` pins the result bit-for-bit against the literal
/// Algorithm-1 nest.
pub fn conv2d_ref(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape(), "input shape");
    assert_eq!(weight.shape(), &shape.weight_shape(), "weight shape");
    let mut out = Tensor::zeros(shape.output_shape());
    let ConvShape { ni, no, ro, co, kr, kc, stride, pad, .. } = *shape;
    let (ri, ci) = (shape.ri(), shape.ci());
    let (x, w) = (input.data(), weight.data());
    for (plane, y) in out.data_mut().chunks_exact_mut(ro * co).enumerate() {
        let (b, o) = (plane / no, plane % no);
        for r in 0..kr {
            let rows = valid_taps(ro, ri, stride, r, pad);
            for c in 0..kc {
                let cols = valid_taps(co, ci, stride, c, pad);
                if cols.is_empty() {
                    continue;
                }
                let ix0 = cols.start * stride + c - pad;
                for i in 0..ni {
                    let wv = w[((o * ni + i) * kr + r) * kc + c];
                    let x_plane = &x[(b * ni + i) * ri * ci..][..ri * ci];
                    for oy in rows.clone() {
                        let x_row = &x_plane[(oy * stride + r - pad) * ci..][..ci];
                        let y_row = &mut y[oy * co..][cols.clone()];
                        for (yv, xv) in y_row.iter_mut().zip(x_row[ix0..].iter().step_by(stride)) {
                            *yv += xv * wv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Output positions `o` in `0..n` whose input tap `o·stride + k − pad`
/// falls inside `0..len` (the rest read zero padding and are skipped).
pub(crate) fn valid_taps(
    n: usize,
    len: usize,
    stride: usize,
    k: usize,
    pad: usize,
) -> Range<usize> {
    let lo = pad.saturating_sub(k).div_ceil(stride);
    let hi = (len + pad).saturating_sub(k).div_ceil(stride).min(n);
    lo..hi.max(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_tensor;

    #[test]
    fn shape_arithmetic() {
        let s = ConvShape::square(2, 8, 4, 6);
        assert_eq!(s.ri(), 8);
        assert_eq!(s.ci(), 8);
        assert_eq!(s.input_shape().dims(), &[2, 8, 8, 8]);
        assert_eq!(s.output_shape().dims(), &[2, 4, 6, 6]);
        assert_eq!(s.macs(), (2 * 4 * 6 * 6 * 8 * 9) as u64);
        assert!(s.winograd_applicable());
    }

    #[test]
    fn strided_shape() {
        let s = ConvShape { b: 1, ni: 3, no: 8, ro: 16, co: 16, kr: 3, kc: 3, stride: 2, pad: 0 };
        assert_eq!(s.ri(), 33);
        assert!(!s.winograd_applicable());
    }

    #[test]
    fn padded_shape() {
        // Same-padding 3×3 conv: pad 1 keeps spatial size.
        let s = ConvShape { b: 1, ni: 2, no: 2, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 };
        assert_eq!(s.ri(), 8);
        assert_eq!(s.ci(), 8);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1×1 kernel with weight = identity over channels copies the input.
        let s = ConvShape { b: 1, ni: 2, no: 2, ro: 4, co: 4, kr: 1, kc: 1, stride: 1, pad: 0 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 11);
        let mut w = Tensor::zeros(s.weight_shape().dims().to_vec());
        *w.at_mut(&[0, 0, 0, 0]) = 1.0;
        *w.at_mut(&[1, 1, 0, 0]) = 1.0;
        let out = conv2d_ref(&s, &input, &w);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn averaging_kernel() {
        // All-ones 2×2 kernel over a constant image sums 4·Ni values.
        let s = ConvShape { b: 1, ni: 3, no: 1, ro: 3, co: 3, kr: 2, kc: 2, stride: 1, pad: 0 };
        let input = Tensor::from_fn(s.input_shape().dims().to_vec(), |_| 0.5);
        let w = Tensor::from_fn(s.weight_shape().dims().to_vec(), |_| 1.0);
        let out = conv2d_ref(&s, &input, &w);
        assert!(out.data().iter().all(|&x| (x - 6.0).abs() < 1e-6));
    }

    #[test]
    fn padding_zeroes_border_contributions() {
        let s = ConvShape { b: 1, ni: 1, no: 1, ro: 3, co: 3, kr: 3, kc: 3, stride: 1, pad: 1 };
        let input = Tensor::from_fn(s.input_shape().dims().to_vec(), |_| 1.0);
        let w = Tensor::from_fn(s.weight_shape().dims().to_vec(), |_| 1.0);
        let out = conv2d_ref(&s, &input, &w);
        // Corner output sees only a 2×2 valid window; centre sees 3×3.
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(out.at(&[0, 0, 1, 1]), 9.0);
    }
}
