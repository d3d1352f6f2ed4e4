//! A constant CSR sparse matrix, used for the normalized adjacency `Â` in
//! graph-convolution layers. Sparse matrices carry no gradient; only the
//! dense operand of an `spmm` is differentiated.

use crate::tensor::Tensor;

/// Compressed sparse row matrix with `f32` values.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds from triplets `(row, col, value)`; duplicate entries are summed.
    pub fn from_triplets(rows: usize, cols: usize, mut triplets: Vec<(u32, u32, f32)>) -> Self {
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut counts = vec![0usize; rows];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(triplets.len());
        let mut prev: Option<(u32, u32)> = None;
        for &(r, c, v) in &triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "triplet out of range"
            );
            if prev == Some((r, c)) {
                *values.last_mut().expect("previous value") += v;
            } else {
                counts[r as usize] += 1;
                col_idx.push(c);
                values.push(v);
                prev = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r] + counts[r];
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Row-normalized adjacency with self-loops: `D̂^(−1/2)·(A+I)·D̂^(−1/2)`,
    /// the GCN propagation matrix of Eq. 3, built from undirected edges.
    pub fn gcn_normalized(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let weighted: Vec<(u32, u32, f32)> = edges.iter().map(|&(a, b)| (a, b, 1.0)).collect();
        Self::gcn_normalized_weighted(num_nodes, &weighted)
    }

    /// Weighted variant of [`SparseMatrix::gcn_normalized`]: edge weights are
    /// kept (duplicates take the maximum), self-loops have weight 1.
    pub fn gcn_normalized_weighted(num_nodes: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut weights: std::collections::HashMap<(u32, u32), f32> =
            std::collections::HashMap::with_capacity(edges.len() * 2);
        for &(a, b, w) in edges {
            if a == b {
                continue;
            }
            let e1 = weights.entry((a, b)).or_insert(0.0);
            *e1 = e1.max(w);
            let e2 = weights.entry((b, a)).or_insert(0.0);
            *e2 = e2.max(w);
        }
        let mut triplets: Vec<(u32, u32, f32)> =
            weights.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        for i in 0..num_nodes as u32 {
            triplets.push((i, i, 1.0));
        }
        // Degrees of Â = A + I.
        let mut deg = vec![0.0f64; num_nodes];
        for &(r, _, v) in &triplets {
            deg[r as usize] += v as f64;
        }
        for t in &mut triplets {
            let d = (deg[t.0 as usize] * deg[t.1 as usize]).sqrt().max(1e-12);
            t.2 /= d as f32;
        }
        Self::from_triplets(num_nodes, num_nodes, triplets)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `selfᵀ`, with each row's entries in ascending source-row order: the
    /// order [`SparseMatrix::matmul_t`] scatters them in, so
    /// `transpose().spmm(m)` is bit-identical to `matmul_t(m)`.
    pub fn transpose(&self) -> SparseMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.col_idx[k] as usize];
                col_idx[*slot] = r as u32;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dense product `self · m` on the CSR row-gather microkernel:
    /// bit-identical to [`SparseMatrix::matmul`].
    pub fn spmm(&self, m: &Tensor) -> Tensor {
        assert_eq!(self.cols, m.rows, "spmm shape mismatch");
        let mut out = Tensor::zeros(self.rows, m.cols);
        openea_math::kernel::csr_matmul(
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            &m.data,
            m.cols,
            &mut out.data,
        );
        out
    }

    /// Reference loop for [`SparseMatrix::spmm`], kept as its test oracle.
    pub fn matmul(&self, m: &Tensor) -> Tensor {
        assert_eq!(self.cols, m.rows, "spmm shape mismatch");
        let mut out = Tensor::zeros(self.rows, m.cols);
        for r in 0..self.rows {
            let out_row = out.row_mut(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let v = self.values[k];
                for (o, &x) in out_row.iter_mut().zip(m.row(c)) {
                    *o += v * x;
                }
            }
        }
        out
    }

    /// Reference loop for the transposed product `selfᵀ · m`, kept as the
    /// test oracle of the `spmm` backward pass (which runs
    /// `transpose().spmm(m)`).
    pub fn matmul_t(&self, m: &Tensor) -> Tensor {
        assert_eq!(self.rows, m.rows, "spmmᵀ shape mismatch");
        let mut out = Tensor::zeros(self.cols, m.cols);
        for r in 0..self.rows {
            let m_row = m.row(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k] as usize;
                let v = self.values[k];
                let out_row = out.row_mut(c);
                for (o, &x) in out_row.iter_mut().zip(m_row) {
                    *o += v * x;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_construction_and_product() {
        // [[1, 2], [0, 3]]
        let s = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        assert_eq!(s.nnz(), 3);
        let x = Tensor::from_vec(2, 1, vec![10.0, 20.0]);
        let y = s.matmul(&x);
        assert_eq!(y.data, vec![50.0, 60.0]);
    }

    #[test]
    fn duplicates_are_summed() {
        let s = SparseMatrix::from_triplets(1, 1, vec![(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(s.nnz(), 1);
        let y = s.matmul(&Tensor::scalar(2.0));
        assert_eq!(y.item(), 7.0);
    }

    #[test]
    fn transpose_product_matches_dense() {
        // s = [[1, 2], [3, 0]]; sᵀ·x with x = [1, 1]ᵀ gives [4, 2]ᵀ.
        let s = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        let x = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
        let y = s.matmul_t(&x);
        assert_eq!(y.data, vec![4.0, 2.0]);
    }

    #[test]
    fn gcn_normalization_rows_behave() {
        // Path graph 0-1-2.
        let s = SparseMatrix::gcn_normalized(3, &[(0, 1), (1, 2)]);
        // Rows of D̂^(−1/2)·Â·D̂^(−1/2) are positive and close to stochastic
        // (symmetric normalization bounds them near 1, not exactly at 1).
        let ones = Tensor::from_vec(3, 1, vec![1.0; 3]);
        let y = s.matmul(&ones);
        for &v in &y.data {
            assert!(v > 0.0 && v <= 1.3, "row sum {v}");
        }
        // Symmetric normalization: entry (0,1) equals entry (1,0).
        let e01 = {
            let mut x = Tensor::zeros(3, 1);
            x.data[1] = 1.0;
            s.matmul(&x).data[0]
        };
        let e10 = {
            let mut x = Tensor::zeros(3, 1);
            x.data[0] = 1.0;
            s.matmul(&x).data[1]
        };
        assert!((e01 - e10).abs() < 1e-6);
    }

    #[test]
    fn empty_rows_are_fine() {
        let s = SparseMatrix::from_triplets(3, 2, vec![(2, 1, 4.0)]);
        let x = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
        let y = s.matmul(&x);
        assert_eq!(y.data, vec![0.0, 0.0, 4.0]);
    }
}
