//! Differential conformance of the autodiff products: the dense `matmul`
//! (forward `A·B`, backward `g·Bᵀ` and `Aᵀ·g`) and the CSR `spmm` (forward
//! `S·M`, backward `Sᵀ·g` over the transpose built once per constant) run on
//! `mathkit::kernel`'s register microkernels, and must be **bit-identical**
//! to the naive loops they replaced — `Tensor::matmul_naive`,
//! `matmul_grads_naive`, `SparseMatrix::matmul` and `matmul_t`, which never
//! touch the dispatch layer — on every ISA backend the host supports.
//!
//! Shapes include empty sides, `1×N` and `N×1`, dims 1/3/7/33/64 that
//! straddle the panel rows and every vector remainder, all-zero rows and
//! columns, and CSR matrices with empty rows and duplicate triplets. Values
//! include ±0.0 and subnormals. All inputs are finite: that is the domain
//! in which an unskipped zero multiplier equals the oracle's skip.
//!
//! The dispatch knob is process-global, so every test that forces a backend
//! serializes on [`lock`] and restores auto-detection before releasing it.

use std::sync::{Mutex, MutexGuard};

use openea::autodiff::tensor::{matmul_grads, matmul_grads_naive};
use openea::autodiff::{Graph, SparseMatrix, Tensor};
use openea::math::kernel;
use openea_runtime::testkit::prelude::*;

/// Serializes access to the process-global backend dispatcher.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Finite edge palette: ±0.0, subnormals from both ends of the range,
/// magnitudes whose products overflow to ±inf, and ordinary values.
const PALETTE: [f32; 12] = [
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1.0e-45,
    6.0e-39,
    -6.0e-39,
    2.0e19,
    -2.0e19,
    1.0,
    -1.5,
    0.125,
];

/// `n` palette values from `levels`, cycled from position `skip`.
fn paint(levels: &[u8], n: usize, skip: usize) -> Vec<f32> {
    (0..n)
        .map(|i| PALETTE[levels[(i + skip) % levels.len()] as usize % PALETTE.len()])
        .collect()
}

/// Deterministic mixed-magnitude values with exact zeros.
fn pseudo(n: usize, salt: u32) -> Vec<f32> {
    (0..n as u32)
        .map(|i| {
            let x = i.wrapping_mul(2654435761).wrapping_add(salt);
            ((x % 4001) as f32 - 2000.0) / 500.0
        })
        .collect()
}

fn bits(t: &Tensor) -> (usize, usize, Vec<u32>) {
    (t.rows, t.cols, t.data.iter().map(|v| v.to_bits()).collect())
}

/// `A·B` and its two gradients against the naive loops, on every backend.
fn check_dense(a: &Tensor, b: &Tensor, g: &Tensor, ctx: &str) {
    let want = bits(&a.matmul_naive(b));
    let (want_ga, want_gb) = matmul_grads_naive(a, b, g);
    for backend in kernel::supported_backends() {
        kernel::force_backend(Some(backend));
        let label = backend.label();
        assert_eq!(bits(&a.matmul(b)), want, "{ctx} A·B backend={label}");
        let (ga, gb) = matmul_grads(a, b, g);
        assert_eq!(bits(&ga), bits(&want_ga), "{ctx} g·Bᵀ backend={label}");
        assert_eq!(bits(&gb), bits(&want_gb), "{ctx} Aᵀ·g backend={label}");
    }
    kernel::force_backend(None);
}

/// `S·M` and `Sᵀ·g` against `SparseMatrix::matmul` / `matmul_t`.
fn check_sparse(s: &SparseMatrix, m: &Tensor, g: &Tensor, ctx: &str) {
    let want = bits(&s.matmul(m));
    let want_t = bits(&s.matmul_t(g));
    let st = s.transpose();
    for backend in kernel::supported_backends() {
        kernel::force_backend(Some(backend));
        let label = backend.label();
        assert_eq!(bits(&s.spmm(m)), want, "{ctx} S·M backend={label}");
        assert_eq!(bits(&st.spmm(g)), want_t, "{ctx} Sᵀ·g backend={label}");
    }
    kernel::force_backend(None);
}

/// Deterministic adversarial dense shapes `(rows, dim, cols)`: empty sides,
/// `1×N`, `N×1`, dims 1/3/7/33/64, with a zeroed row of `A`, a zeroed
/// column of `B` and a zeroed row of `g` wherever the shape has one.
#[test]
fn adversarial_dense_shapes_conform_on_every_backend() {
    let _guard = lock();
    let shapes = [
        (0usize, 3usize, 5usize),
        (5, 3, 0),
        (4, 0, 6),
        (1, 33, 1),
        (1, 7, 64),
        (64, 7, 1),
        (1, 1, 1),
        (3, 3, 3),
        (7, 7, 7),
        (9, 33, 33),
        (6, 64, 64),
        (33, 64, 3),
        (70, 32, 32),
    ];
    for &(rows, dim, cols) in &shapes {
        let mut a = Tensor::from_vec(rows, dim, pseudo(rows * dim, 1));
        let mut b = Tensor::from_vec(dim, cols, pseudo(dim * cols, 2));
        let mut g = Tensor::from_vec(rows, cols, pseudo(rows * cols, 3));
        if rows > 1 && dim > 0 {
            a.row_mut(1).fill(0.0);
        }
        if cols > 2 {
            for d in 0..dim {
                b.row_mut(d)[2] = -0.0;
            }
        }
        if rows > 0 && cols > 0 {
            g.row_mut(rows - 1).fill(0.0);
        }
        check_dense(&a, &b, &g, &format!("shape ({rows},{dim},{cols})"));
    }
}

/// Deterministic adversarial sparse shapes: a 0-row matrix, `1×N`, `N×1`,
/// empty rows, duplicate triplets (summed at build), explicit zero values
/// and dense operands of width 1/3/7/33/64.
#[test]
fn adversarial_sparse_shapes_conform_on_every_backend() {
    let _guard = lock();
    type Case = (usize, usize, Vec<(u32, u32, f32)>);
    let cases: Vec<Case> = vec![
        (0, 4, vec![]),
        (3, 0, vec![]),
        (1, 5, vec![(0, 4, 1.5), (0, 0, -0.0), (0, 4, 0.25)]),
        (5, 1, vec![(0, 0, 2.0), (3, 0, -1.0), (3, 0, 6.0e-39)]),
        (4, 4, vec![]),
        (
            6,
            5,
            vec![
                (0, 1, 0.5),
                (0, 1, 0.5),
                (2, 0, -1.5),
                (2, 4, 0.0),
                (5, 3, 1.0e-45),
                (5, 0, 2.0e19),
                (5, 3, -0.125),
            ],
        ),
    ];
    for (rows, cols, triplets) in cases {
        let s = SparseMatrix::from_triplets(rows, cols, triplets);
        for width in [1usize, 3, 7, 33, 64] {
            let mut m = Tensor::from_vec(cols, width, pseudo(cols * width, 4));
            if cols > 0 {
                m.row_mut(0).fill(0.0);
            }
            let g = Tensor::from_vec(rows, width, pseudo(rows * width, 5));
            check_sparse(&s, &m, &g, &format!("sparse {rows}x{cols} width {width}"));
        }
    }
}

/// The transpose keeps each row's entries in ascending source-row order:
/// a probe whose sum depends on the order (`1e8 - 1e8 + 1` is 1, the
/// reverse `1 - 1e8 + 1e8` is 0) must sum as `matmul_t` does.
#[test]
fn sparse_transpose_orders_rows_by_source() {
    let s = SparseMatrix::from_triplets(3, 2, vec![(2, 0, 1.0), (0, 0, 1.0), (1, 0, 1.0)]);
    let st = s.transpose();
    assert_eq!((st.rows(), st.cols(), st.nnz()), (2, 3, 3));
    let probe = Tensor::from_vec(3, 1, vec![1.0e8, -1.0e8, 1.0]);
    assert_eq!(st.spmm(&probe).data, vec![1.0, 0.0]);
    assert_eq!(s.matmul_t(&probe).data, vec![1.0, 0.0]);
}

/// Through the tape: the gradients `Graph::backward` produces for a
/// `spmm → matmul` chain equal the naive oracles applied by hand.
#[test]
fn tape_gradients_match_the_oracles() {
    let s = SparseMatrix::from_triplets(
        5,
        4,
        vec![
            (0, 1, 0.5),
            (1, 1, -2.0),
            (3, 0, 1.25),
            (4, 3, 0.75),
            (4, 0, 1.0),
        ],
    );
    let x = Tensor::from_vec(4, 3, pseudo(12, 6));
    let w = Tensor::from_vec(3, 7, pseudo(21, 7));
    let up = Tensor::from_vec(5, 7, pseudo(35, 8));
    let mut g = Graph::new();
    let id = g.add_sparse(s.clone());
    let (xv, wv) = (g.leaf(x.clone()), g.leaf(w.clone()));
    let p = g.spmm(id, xv);
    let y = g.matmul(p, wv);
    let upv = g.leaf(up.clone());
    let weighted = g.mul(y, upv);
    let loss = g.sum(weighted);
    g.backward(loss);
    // d loss / d y = 1.0 * up exactly, so the oracle chain starts from `up`.
    let p_naive = s.matmul(&x);
    let (gp, gw) = matmul_grads_naive(&p_naive, &w, &up);
    let gx = s.matmul_t(&gp);
    assert_eq!(bits(g.value(y)), bits(&p_naive.matmul_naive(&w)));
    assert_eq!(bits(&g.grad(wv)), bits(&gw));
    assert_eq!(bits(&g.grad(xv)), bits(&gx));
}

props! {
    #![cases = 48]

    /// Random dense shapes over the edge palette stay bit-identical to the
    /// naive loops on every backend.
    #[test]
    fn palette_dense_products_match_oracles(
        rows in 0usize..10,
        dim in 0usize..35,
        cols in 0usize..35,
        levels in vec_of(0u8..12, 1..64)
    ) {
        let a = Tensor::from_vec(rows, dim, paint(&levels, rows * dim, 0));
        let b = Tensor::from_vec(dim, cols, paint(&levels, dim * cols, 1));
        let g = Tensor::from_vec(rows, cols, paint(&levels, rows * cols, 2));
        let _guard = lock();
        check_dense(&a, &b, &g, "palette");
    }

    /// Random CSR matrices with duplicate triplets and empty rows, over
    /// the edge palette, on every backend.
    #[test]
    fn palette_sparse_products_match_oracles(
        rows in 1usize..12,
        cols in 1usize..12,
        width in 1usize..40,
        entries in vec_of((0u32..12, 0u32..12, 0u8..12), 0..40),
        levels in vec_of(0u8..12, 1..64)
    ) {
        let triplets = entries
            .iter()
            .map(|&(r, c, v)| (r % rows as u32, c % cols as u32, PALETTE[v as usize]))
            .collect();
        let s = SparseMatrix::from_triplets(rows, cols, triplets);
        let m = Tensor::from_vec(cols, width, paint(&levels, cols * width, 0));
        let g = Tensor::from_vec(rows, width, paint(&levels, rows * width, 1));
        let _guard = lock();
        check_sparse(&s, &m, &g, "palette");
    }
}
