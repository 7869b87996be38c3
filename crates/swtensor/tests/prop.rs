//! Property-based tests for the tensor substrate: every decomposition of
//! convolution must agree with the naive MAC reference on arbitrary shapes,
//! and the golden references themselves must be bit-identical to the
//! literal Algorithm-1 loop nest.

use proptest::prelude::*;
use swtensor::compare::allclose;
use swtensor::conv::{conv2d_ref, ConvShape};
use swtensor::conv_grad::{conv2d_backward_data_ref, conv2d_backward_filter_ref};
use swtensor::gemm::{gemm_ref, MatLayout};
use swtensor::im2col::conv2d_explicit_ref;
use swtensor::init::random_tensor;
use swtensor::winograd::conv2d_winograd_ref;
use swtensor::Tensor;

fn arb_shape() -> impl Strategy<Value = ConvShape> {
    (1usize..3, 1usize..6, 1usize..6, 2usize..8, 1usize..3, 0usize..2).prop_map(
        |(b, ni, no, ro, stride, pad)| ConvShape {
            b,
            ni,
            no,
            ro,
            co: ro,
            kr: 3,
            kc: 3,
            stride,
            pad,
        },
    )
}

/// Algorithm 1 verbatim: the 7-deep `(B, Ro, Co, Kr, Kc, No, Ni)` MAC nest
/// over multi-index accessors. The oracle the fast references must match
/// bit for bit.
fn alg1_conv(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(shape.output_shape());
    let (ri, ci) = (shape.ri(), shape.ci());
    for b in 0..shape.b {
        for ro in 0..shape.ro {
            for co in 0..shape.co {
                for kr in 0..shape.kr {
                    for kc in 0..shape.kc {
                        let r = (ro * shape.stride + kr) as isize - shape.pad as isize;
                        let c = (co * shape.stride + kc) as isize - shape.pad as isize;
                        if r < 0 || c < 0 || r as usize >= ri || c as usize >= ci {
                            continue; // zero padding
                        }
                        let (r, c) = (r as usize, c as usize);
                        for no in 0..shape.no {
                            let mut acc = out.at(&[b, no, ro, co]);
                            for ni in 0..shape.ni {
                                acc += input.at(&[b, ni, r, c]) * weight.at(&[no, ni, kr, kc]);
                            }
                            *out.at_mut(&[b, no, ro, co]) = acc;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Backward-data oracle: the hand-rotated filter through [`alg1_conv`].
fn alg1_backward_data(shape: &ConvShape, d_out: &Tensor, weight: &Tensor) -> Tensor {
    let mut w_rot = Tensor::zeros([shape.ni, shape.no, shape.kr, shape.kc]);
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    *w_rot.at_mut(&[ni, no, shape.kr - 1 - kr, shape.kc - 1 - kc]) =
                        weight.at(&[no, ni, kr, kc]);
                }
            }
        }
    }
    let grad_shape = ConvShape {
        b: shape.b,
        ni: shape.no,
        no: shape.ni,
        ro: shape.ri(),
        co: shape.ci(),
        kr: shape.kr,
        kc: shape.kc,
        stride: 1,
        pad: shape.kr - 1 - shape.pad,
    };
    alg1_conv(&grad_shape, d_out, &w_rot)
}

/// Backward-filter oracle: the `(no, ni, kr, kc)` nest summing over
/// `(b, ro, co)` through multi-index accessors.
fn alg1_backward_filter(shape: &ConvShape, input: &Tensor, d_out: &Tensor) -> Tensor {
    let (ri, ci) = (shape.ri(), shape.ci());
    let mut dw = Tensor::zeros(shape.weight_shape());
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    let mut acc = 0.0f32;
                    for b in 0..shape.b {
                        for ro in 0..shape.ro {
                            for co in 0..shape.co {
                                let r = (ro * shape.stride + kr) as isize - shape.pad as isize;
                                let c = (co * shape.stride + kc) as isize - shape.pad as isize;
                                if r < 0 || c < 0 || r as usize >= ri || c as usize >= ci {
                                    continue;
                                }
                                acc += d_out.at(&[b, no, ro, co])
                                    * input.at(&[b, ni, r as usize, c as usize]);
                            }
                        }
                    }
                    *dw.at_mut(&[no, ni, kr, kc]) = acc;
                }
            }
        }
    }
    dw
}

/// Convolutions with kernel 1/3/5/7, stride `1..=max_stride`, padding
/// `0..k`, batch 1-3 and non-square output (`ro ≠ co`). Output sizes start
/// at the smallest that leaves a non-empty input.
fn arb_bitexact_shape(max_stride: usize) -> impl Strategy<Value = ConvShape> {
    (0usize..4, 1..max_stride + 1, 0usize..7, 0usize..4, 0usize..4, 1usize..4, 1usize..4, 1usize..4)
        .prop_map(|(ki, stride, pad, dr, dc, b, ni, no)| {
            let k = [1, 3, 5, 7][ki];
            let pad = pad % k;
            // Smallest output with (o - 1)·stride + k > 2·pad.
            let min_out = 1 + (2 * pad + 1).saturating_sub(k).div_ceil(stride);
            let ro = min_out + dr;
            let co = if dc == dr { ro + 1 } else { min_out + dc };
            ConvShape { b, ni, no, ro, co, kr: k, kc: k, stride, pad }
        })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Explicit (im2col) convolution equals direct convolution for any
    /// shape, stride and padding.
    #[test]
    fn explicit_equals_direct(shape in arb_shape(), seed in 0u64..1000) {
        let input = random_tensor(shape.input_shape().dims().to_vec(), seed);
        let weight = random_tensor(shape.weight_shape().dims().to_vec(), seed + 1);
        let a = conv2d_ref(&shape, &input, &weight);
        let b = conv2d_explicit_ref(&shape, &input, &weight);
        prop_assert!(allclose(a.data(), b.data(), 1e-3, 1e-4));
    }

    /// Winograd F(2×2,3×3) equals direct convolution whenever applicable.
    #[test]
    fn winograd_equals_direct(shape in arb_shape(), seed in 0u64..1000) {
        prop_assume!(shape.winograd_applicable());
        let input = random_tensor(shape.input_shape().dims().to_vec(), seed);
        let weight = random_tensor(shape.weight_shape().dims().to_vec(), seed + 1);
        let a = conv2d_ref(&shape, &input, &weight);
        let b = conv2d_winograd_ref(&shape, &input, &weight);
        prop_assert!(allclose(a.data(), b.data(), 5e-3, 5e-4));
    }

    /// GEMM with any operand layout equals row-major GEMM.
    #[test]
    fn gemm_layouts_agree(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        a_col: bool, b_col: bool, seed in 0u64..1000,
    ) {
        let a = random_tensor([m, k], seed);
        let b = random_tensor([k, n], seed + 1);
        let mut c_rm = vec![0.0f32; m * n];
        swtensor::gemm::gemm_rowmajor(m, n, k, a.data(), b.data(), &mut c_rm);

        let (a_dat, la, lda) = if a_col {
            (a.permuted(&[1, 0]), MatLayout::ColMajor, m)
        } else {
            (a.clone(), MatLayout::RowMajor, k)
        };
        let (b_dat, lb, ldb) = if b_col {
            (b.permuted(&[1, 0]), MatLayout::ColMajor, k)
        } else {
            (b.clone(), MatLayout::RowMajor, n)
        };
        let mut c = vec![0.0f32; m * n];
        gemm_ref(m, n, k, 1.0, a_dat.data(), la, lda, b_dat.data(), lb, ldb, 0.0,
                 &mut c, MatLayout::RowMajor, n);
        prop_assert!(allclose(&c_rm, &c, 1e-4, 1e-5));
    }

    /// Permutation round-trips through its inverse for any rank-3 tensor.
    #[test]
    fn permute_roundtrip(d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5, seed in 0u64..1000) {
        let t = random_tensor([d0, d1, d2], seed);
        let perms: [[usize; 3]; 6] =
            [[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]];
        for perm in perms {
            let p = t.permuted(&perm);
            // inverse[perm[i]] = i
            let mut inv = [0usize; 3];
            for (i, &x) in perm.iter().enumerate() {
                inv[x] = i;
            }
            let back = p.permuted(&inv);
            prop_assert_eq!(&back, &t);
        }
    }

    /// Padding then cropping is the identity.
    #[test]
    fn pad_crop_roundtrip(r in 1usize..6, c in 1usize..6, pr in 0usize..4, pc in 0usize..4, seed in 0u64..1000) {
        let t = random_tensor([r, c], seed);
        let p = t.padded_to(&[r + pr, c + pc]);
        prop_assert_eq!(Tensor::cropped_to(&p, &[r, c]), t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The forward reference is bit-identical to Algorithm 1.
    #[test]
    fn conv_ref_is_bit_identical_to_alg1(shape in arb_bitexact_shape(3), seed in 0u64..1000) {
        prop_assert!(shape.ro != shape.co);
        let input = random_tensor(shape.input_shape().dims().to_vec(), seed);
        let weight = random_tensor(shape.weight_shape().dims().to_vec(), seed + 1);
        let fast = conv2d_ref(&shape, &input, &weight);
        prop_assert_eq!(bits(&fast), bits(&alg1_conv(&shape, &input, &weight)));
    }

    /// Backward-data (stride 1 only) is bit-identical to its oracle.
    #[test]
    fn backward_data_ref_is_bit_identical(shape in arb_bitexact_shape(1), seed in 0u64..1000) {
        let d_out = random_tensor(shape.output_shape().dims().to_vec(), seed);
        let weight = random_tensor(shape.weight_shape().dims().to_vec(), seed + 1);
        let fast = conv2d_backward_data_ref(&shape, &d_out, &weight);
        prop_assert_eq!(bits(&fast), bits(&alg1_backward_data(&shape, &d_out, &weight)));
    }

    /// Backward-filter is bit-identical to its oracle.
    #[test]
    fn backward_filter_ref_is_bit_identical(shape in arb_bitexact_shape(3), seed in 0u64..1000) {
        let input = random_tensor(shape.input_shape().dims().to_vec(), seed);
        let d_out = random_tensor(shape.output_shape().dims().to_vec(), seed + 1);
        let fast = conv2d_backward_filter_ref(&shape, &input, &d_out);
        prop_assert_eq!(bits(&fast), bits(&alg1_backward_filter(&shape, &input, &d_out)));
    }
}
