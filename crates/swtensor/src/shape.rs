//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// A dense tensor shape (outermost dimension first).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    pub fn rank(&self) -> usize {
        self.0.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (innermost dimension has stride 1).
    pub fn row_major_strides(&self) -> Vec<usize> {
        let mut s = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Linear row-major offset of a multi-index (Horner's rule over the
    /// dims, so no stride vector is built).
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        idx.iter().zip(&self.0).fold(0, |off, (i, d)| off * d + i)
    }

    /// Permute the dimensions: `perm[i]` is the source axis of new axis `i`.
    pub fn permute(&self, perm: &[usize]) -> Shape {
        assert_eq!(perm.len(), self.rank());
        Shape(perm.iter().map(|&p| self.0[p]).collect())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_and_offsets() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.row_major_strides(), vec![12, 4, 1]);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 0, 0]), 0);

        // Every index of ranks 1-5 maps to the stride dot product, and the
        // row-major walk visits offsets 0, 1, 2, ... in order.
        for dims in [vec![7], vec![3, 5], vec![2, 3, 4], vec![2, 1, 3, 2], vec![2, 3, 1, 2, 3]] {
            let s = Shape::new(dims.clone());
            let strides = s.row_major_strides();
            let mut idx = vec![0usize; dims.len()];
            for expect in 0..s.numel() {
                let dot: usize = idx.iter().zip(&strides).map(|(i, st)| i * st).sum();
                assert_eq!(s.offset(&idx), dot, "{s} at {idx:?}");
                assert_eq!(dot, expect, "{s} at {idx:?}");
                for d in (0..dims.len()).rev() {
                    idx[d] += 1;
                    if idx[d] < dims[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
    }

    #[test]
    fn permute_moves_dims() {
        let s = Shape::from([2, 3, 4]);
        let p = s.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::from([5, 6]).to_string(), "[5×6]");
    }
}
