//! Dense 2-D `f32` tensors (matrices). Scalars are `1×1`, row vectors `1×n`.
//!
//! Dense products run on `openea_math::kernel`'s register microkernels; the
//! `*_naive` loops they replaced stay as the bit-exact test oracles.

use openea_math::kernel;
use openea_runtime::rng::Rng;

/// A dense row-major 2-D tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    pub fn scalar(v: f32) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, scale: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Xavier/Glorot uniform init.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f32).sqrt();
        Self::random_uniform(rows, cols, scale, rng)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The scalar value of a `1×1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() requires a scalar tensor");
        self.data[0]
    }

    pub fn same_shape(&self, other: &Tensor) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// `self · b` on the matmul microkernel: each element folds its `k`
    /// terms in order from `+0.0`, bit-identical to [`Tensor::matmul_naive`]
    /// for finite operands.
    pub fn matmul(&self, b: &Tensor) -> Tensor {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, b.cols);
        kernel::matmul(
            self.rows,
            self.cols,
            b.cols,
            &self.data,
            &b.data,
            &mut out.data,
        );
        out
    }

    /// Reference loop for [`Tensor::matmul`], kept as its test oracle: skips
    /// zero multipliers, folds the rest in `k` order from `+0.0`.
    pub fn matmul_naive(&self, b: &Tensor) -> Tensor {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let av = self.get(i, k);
                if av == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

/// Gradients of `A·B` given the upstream gradient `g`: `(g·Bᵀ, Aᵀ·g)`,
/// each a microkernel product over a transposed operand, so every element
/// keeps the summation order of [`matmul_grads_naive`].
pub fn matmul_grads(a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    (g.matmul(&b.transpose()), a.transpose().matmul(g))
}

/// Reference loops for [`matmul_grads`], kept as its test oracle.
pub fn matmul_grads_naive(a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    let mut ga = Tensor::zeros(a.rows, a.cols);
    for i in 0..a.rows {
        for j in 0..b.cols {
            let gv = g.get(i, j);
            if gv == 0.0 {
                continue;
            }
            for k in 0..a.cols {
                ga.row_mut(i)[k] += gv * b.get(k, j);
            }
        }
    }
    let mut gb = Tensor::zeros(b.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let av = a.get(i, k);
            if av == 0.0 {
                continue;
            }
            for (o, &gv) in gb.row_mut(k).iter_mut().zip(g.row(i)) {
                *o += av * gv;
            }
        }
    }
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "scalar tensor")]
    fn item_on_matrix_panics() {
        let _ = Tensor::zeros(2, 2).item();
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = SmallRng::seed_from_u64(0);
        let t = Tensor::xavier(10, 10, &mut rng);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(t.data.iter().all(|&x| x.abs() <= bound + 1e-6));
    }
}
