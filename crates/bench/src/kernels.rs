//! `openea-bench kernels` — micro-benchmarks of the similarity kernel layer
//! (naive vs cache-tiled vs tiled + streaming top-k), the baseline that the
//! 100K-analog scaling work is measured against.
//!
//! Every run first proves the kernels equivalent on a fixed seed (tiled must
//! be bit-identical to naive for all four metrics; top-k must equal the
//! full-matrix argsort prefix) and exits non-zero on divergence — the bench
//! numbers are only meaningful if the fast path computes the same thing.
//! `--smoke` runs just the equivalence gate plus one tiny timing grid (CI
//! budget: well under 30 s) and writes no JSON.
//!
//! The autodiff section gates the tape's products the same way: one
//! full-batch GCN step at the `train_eval` shape (a medium D-Y pair,
//! dim 32) must produce bit-identical gradients on the microkernel path
//! under every backend and on the naive loops it replaced, and the kernel
//! step must run at least [`GCN_STEP_RATCHET`]x the naive step.

use crate::HarnessConfig;
use openea::align::{Metric, SimilarityMatrix, TopKMatrix, DEFAULT_TILE};
use openea::approaches::gcn::union_edges;
use openea::autodiff::tensor::{matmul_grads, matmul_grads_naive};
use openea::autodiff::{SparseMatrix, Tensor};
use openea::math::{kernel, vecops};
use openea::prelude::{k_fold_splits, DatasetFamily, PresetConfig};
use openea_runtime::json::{object, Json, ToJson};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use std::time::Instant;

/// Top-k width of the streaming kernel under test (Hits@10 needs k = 10).
const K: usize = 10;

fn embeddings(n: usize, dim: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Milliseconds per call: one warm-up/calibration call decides how many
/// timed repetitions fit a sensible budget, then the fastest is reported.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first = t0.elapsed().as_secs_f64();
    let reps = if first >= 0.5 {
        1
    } else {
        ((0.25 / first.max(1e-6)) as usize).clamp(1, 10)
    };
    let mut best = first;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e3
}

/// Asserts the determinism contract on a fixed seed: tiled output is
/// bit-identical to naive for every ISA backend × metric × tile × thread
/// combination, and streaming top-k equals the full-matrix stable argsort
/// prefix. The backend sweep (`force_backend` over everything the host
/// supports) is what lets a single CI box certify scalar, SSE2 and AVX2 at
/// once. Returns the number of combinations checked.
fn check_equivalence(seed: u64) -> Result<usize, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut checked = 0usize;
    for &(rows, cols, dim) in &[(157usize, 211usize, 17usize), (600, 600, 32)] {
        let src = embeddings(rows, dim, &mut rng);
        let dst = embeddings(cols, dim, &mut rng);
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(&src, &dst, dim, metric, 1);
            for backend in kernel::supported_backends() {
                kernel::force_backend(Some(backend));
                for &tile in &[1usize, 7, 64] {
                    for &threads in &[1usize, 2, 8] {
                        let tiled =
                            SimilarityMatrix::compute_tiled(&src, &dst, dim, metric, threads, tile);
                        for i in 0..rows {
                            for j in 0..cols {
                                let (a, b) = (naive.get(i, j), tiled.get(i, j));
                                if a.to_bits() != b.to_bits() {
                                    kernel::force_backend(None);
                                    return Err(format!(
                                        "{} backend={} tile={tile} threads={threads} \
                                         ({rows}x{cols}): tiled[{i},{j}]={b} != naive {a}",
                                        metric.label(),
                                        backend.label()
                                    ));
                                }
                            }
                        }
                        let topk =
                            TopKMatrix::compute_tiled(&src, &dst, dim, metric, K, threads, tile);
                        for i in 0..rows {
                            for (rank, &(j, s)) in topk.row(i).iter().enumerate() {
                                let (ej, es) = naive.topk_row(i, K)[rank];
                                if j as usize != ej || s.to_bits() != es.to_bits() {
                                    kernel::force_backend(None);
                                    return Err(format!(
                                        "{} backend={} tile={tile} threads={threads}: \
                                         topk[{i}][{rank}] = ({j},{s}) != argsort ({ej},{es})",
                                        metric.label(),
                                        backend.label()
                                    ));
                                }
                            }
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    kernel::force_backend(None);
    Ok(checked)
}

/// One timing config of the grid. Each entry records the kernel backend the
/// dispatcher resolved plus the tile/panel register geometry, so a JSON
/// number is never read without knowing which microkernel produced it.
struct Entry {
    n: usize,
    dim: usize,
    threads: usize,
    backend: &'static str,
    tile: usize,
    panel_rows: usize,
    naive_ms: f64,
    tiled_ms: f64,
    topk_ms: f64,
}

impl ToJson for Entry {
    fn to_json(&self) -> Json {
        object([
            ("entities", self.n.to_json()),
            ("dim", self.dim.to_json()),
            ("threads", self.threads.to_json()),
            ("kernel_backend", self.backend.to_json()),
            ("tile", self.tile.to_json()),
            ("panel_rows", self.panel_rows.to_json()),
            ("naive_ms", self.naive_ms.to_json()),
            ("tiled_ms", self.tiled_ms.to_json()),
            ("tiled_topk_ms", self.topk_ms.to_json()),
            ("speedup_tiled", (self.naive_ms / self.tiled_ms).to_json()),
            ("speedup_topk", (self.naive_ms / self.topk_ms).to_json()),
        ])
    }
}

/// Minimum speedup of the microkernel GCN step over the naive-loop step.
/// On a 2-core AVX2 VM the kernel step measured about 2.2x (seed 7).
const GCN_STEP_RATCHET: f64 = 1.5;

/// Which implementation of the tape's products a GCN step runs.
#[derive(Clone, Copy)]
enum Products {
    /// The register microkernels, as `Graph` runs them.
    Kernel,
    /// The naive loops they replaced, kept as oracles.
    Naive,
}

impl Products {
    fn matmul(self, a: &Tensor, b: &Tensor) -> Tensor {
        match self {
            Products::Kernel => a.matmul(b),
            Products::Naive => a.matmul_naive(b),
        }
    }

    fn matmul_grads(self, a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
        match self {
            Products::Kernel => matmul_grads(a, b, g),
            Products::Naive => matmul_grads_naive(a, b, g),
        }
    }

    fn spmm(self, s: &SparseMatrix, m: &Tensor) -> Tensor {
        match self {
            Products::Kernel => s.spmm(m),
            Products::Naive => s.matmul(m),
        }
    }

    /// `sᵀ · g`, through the prebuilt transpose `st` on the kernel path.
    fn spmm_t(self, s: &SparseMatrix, st: &SparseMatrix, g: &Tensor) -> Tensor {
        match self {
            Products::Kernel => st.spmm(g),
            Products::Naive => s.matmul_t(g),
        }
    }
}

/// GCNAlign's inputs on one `train_eval` pair: the normalized union-graph
/// adjacency, input features, two layer weights and the training seeds,
/// each with a fixed negative.
struct GcnFixture {
    adj: SparseMatrix,
    adj_t: SparseMatrix,
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    seeds: Vec<(usize, usize, usize)>,
}

impl GcnFixture {
    fn new(seed: u64) -> Self {
        const DIM: usize = 32;
        let pair = PresetConfig::new(DatasetFamily::DY, 1500, false, seed).generate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let fold = k_fold_splits(&pair.alignment, 5, &mut rng).swap_remove(0);
        let (n, edges) = union_edges(&pair, false);
        let adj = SparseMatrix::gcn_normalized_weighted(n, &edges);
        let n1 = pair.kg1.num_entities();
        let seeds = fold
            .train
            .iter()
            .map(|&(a, b)| (a.idx(), n1 + b.idx(), rng.gen_range(0..n)))
            .collect();
        Self {
            adj_t: adj.transpose(),
            adj,
            x: Tensor::xavier(n, DIM, &mut rng),
            w1: Tensor::xavier(DIM, DIM, &mut rng),
            w2: Tensor::xavier(DIM, DIM, &mut rng),
            seeds,
        }
    }

    /// One full-batch step of a two-layer GCN, `H₂ = Â·tanh(Â·X·W₁)·W₂`,
    /// under a Manhattan hinge on the seeds (every term active). Returns
    /// the gradients of `X`, `W₁` and `W₂`.
    fn step(&self, p: Products) -> [Tensor; 3] {
        let xw = p.matmul(&self.x, &self.w1);
        let mut h1 = p.spmm(&self.adj, &xw);
        h1.data.iter_mut().for_each(|v| *v = v.tanh());
        let hw = p.matmul(&h1, &self.w2);
        let h2 = p.spmm(&self.adj, &hw);
        let mut g = Tensor::zeros(h2.rows, h2.cols);
        let scale = 1.0 / self.seeds.len().max(1) as f32;
        for &(a, b, n) in &self.seeds {
            for j in 0..h2.cols {
                let pos = (h2.get(a, j) - h2.get(b, j)).signum() * scale;
                let neg = (h2.get(a, j) - h2.get(n, j)).signum() * scale;
                g.row_mut(a)[j] += pos - neg;
                g.row_mut(b)[j] -= pos;
                g.row_mut(n)[j] += neg;
            }
        }
        let g_hw = p.spmm_t(&self.adj, &self.adj_t, &g);
        let (mut g_h1, g_w2) = p.matmul_grads(&h1, &self.w2, &g_hw);
        for (gv, &y) in g_h1.data.iter_mut().zip(&h1.data) {
            *gv *= 1.0 - y * y;
        }
        let g_xw = p.spmm_t(&self.adj, &self.adj_t, &g_h1);
        let (g_x, g_w1) = p.matmul_grads(&self.x, &self.w1, &g_xw);
        [g_x, g_w1, g_w2]
    }
}

fn tensor_bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.data.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The autodiff gate's timing row.
struct GcnStepEntry {
    nodes: usize,
    nnz: usize,
    dim: usize,
    seeds: usize,
    backend: &'static str,
    naive_ms: f64,
    kernel_ms: f64,
}

impl ToJson for GcnStepEntry {
    fn to_json(&self) -> Json {
        object([
            ("nodes", self.nodes.to_json()),
            ("nnz", self.nnz.to_json()),
            ("dim", self.dim.to_json()),
            ("seeds", self.seeds.to_json()),
            ("threads", 1usize.to_json()),
            ("kernel_backend", self.backend.to_json()),
            ("naive_step_ms", self.naive_ms.to_json()),
            ("kernel_step_ms", self.kernel_ms.to_json()),
            ("speedup", (self.naive_ms / self.kernel_ms).to_json()),
        ])
    }
}

/// Gates the GCN step's gradients bit-identical between the naive loops and
/// the microkernels under every supported backend, then times both paths
/// at the host's backend and enforces [`GCN_STEP_RATCHET`].
fn check_gcn_step(seed: u64) -> Result<GcnStepEntry, String> {
    let f = GcnFixture::new(seed);
    let want = tensor_bits(&f.step(Products::Naive));
    for backend in kernel::supported_backends() {
        kernel::force_backend(Some(backend));
        let got = tensor_bits(&f.step(Products::Kernel));
        kernel::force_backend(None);
        if let Some(k) = (0..3).find(|&k| got[k] != want[k]) {
            let name = ["X", "W1", "W2"][k];
            return Err(format!(
                "backend={}: gradient of {name} diverges from the naive step",
                backend.label()
            ));
        }
    }
    let naive_ms = time_ms(|| {
        std::hint::black_box(f.step(Products::Naive));
    });
    let kernel_ms = time_ms(|| {
        std::hint::black_box(f.step(Products::Kernel));
    });
    Ok(GcnStepEntry {
        nodes: f.x.rows,
        nnz: f.adj.nnz(),
        dim: f.x.cols,
        seeds: f.seeds.len(),
        backend: kernel::active_backend().label(),
        naive_ms,
        kernel_ms,
    })
}

pub fn kernels(cfg: &HarnessConfig, smoke: bool) {
    print!("equivalence gate (seed {}): ", cfg.seed);
    match check_equivalence(cfg.seed) {
        Ok(n) => println!("{n} metric/tile/thread combinations bit-identical"),
        Err(msg) => {
            eprintln!("FAILED — tiled kernels diverge from naive: {msg}");
            std::process::exit(1);
        }
    }

    let (sizes, dims, thread_counts): (&[usize], &[usize], &[usize]) = if smoke {
        (&[600], &[32], &[1, 2])
    } else {
        (&[600, 2400, 9600], &[32, 64], &[1, 2, 8])
    };

    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6b65726e);
    let mut entries: Vec<Entry> = Vec::new();
    println!(
        "metric=cosine k={K} backend={} tile={DEFAULT_TILE} panel_rows={} \
         (times are best-of-reps, ms)",
        kernel::active_backend().label(),
        vecops::PANEL
    );
    println!(
        "{:>8} {:>5} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "entities", "dim", "threads", "naive_ms", "tiled_ms", "topk_ms", "speedup"
    );
    for &n in sizes {
        for &dim in dims {
            let src = embeddings(n, dim, &mut rng);
            let dst = embeddings(n, dim, &mut rng);
            for &threads in thread_counts {
                let naive_ms = time_ms(|| {
                    std::hint::black_box(SimilarityMatrix::compute_naive(
                        &src,
                        &dst,
                        dim,
                        Metric::Cosine,
                        threads,
                    ));
                });
                let tiled_ms = time_ms(|| {
                    std::hint::black_box(SimilarityMatrix::compute(
                        &src,
                        &dst,
                        dim,
                        Metric::Cosine,
                        threads,
                    ));
                });
                let topk_ms = time_ms(|| {
                    std::hint::black_box(TopKMatrix::compute(
                        &src,
                        &dst,
                        dim,
                        Metric::Cosine,
                        K,
                        threads,
                    ));
                });
                println!(
                    "{n:>8} {dim:>5} {threads:>8} {naive_ms:>12.2} {tiled_ms:>12.2} {topk_ms:>12.2} {:>7.2}x",
                    naive_ms / tiled_ms
                );
                entries.push(Entry {
                    n,
                    dim,
                    threads,
                    backend: kernel::active_backend().label(),
                    tile: DEFAULT_TILE,
                    panel_rows: vecops::PANEL,
                    naive_ms,
                    tiled_ms,
                    topk_ms,
                });
            }
        }
    }

    print!("autodiff gate (seed {}): ", cfg.seed);
    let gcn = match check_gcn_step(cfg.seed) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("FAILED — microkernel GCN step diverges: {msg}");
            std::process::exit(1);
        }
    };
    println!(
        "GCN step gradients bit-identical on every backend; {} nodes, nnz {}, dim {}: \
         naive {:.2} ms, kernel {:.2} ms ({:.2}x, backend {})",
        gcn.nodes,
        gcn.nnz,
        gcn.dim,
        gcn.naive_ms,
        gcn.kernel_ms,
        gcn.naive_ms / gcn.kernel_ms,
        gcn.backend
    );
    if gcn.naive_ms / gcn.kernel_ms < GCN_STEP_RATCHET {
        eprintln!(
            "FAILED — microkernel GCN step is {:.2}x the naive step, below the {GCN_STEP_RATCHET}x ratchet",
            gcn.naive_ms / gcn.kernel_ms
        );
        std::process::exit(1);
    }

    if smoke {
        println!("[kernels smoke OK]");
        return;
    }

    let doc = object([
        ("experiment", "kernels".to_json()),
        ("metric", "cosine".to_json()),
        ("k", K.to_json()),
        ("seed", (cfg.seed as i64).to_json()),
        (
            "equivalence",
            "tiled bit-identical to naive on every supported ISA backend; \
             topk equals stable argsort prefix"
                .to_json(),
        ),
        ("kernel_backend", kernel::active_backend().label().to_json()),
        ("entries", entries.to_json()),
        ("autodiff_gcn_step", gcn.to_json()),
    ]);
    cfg.write_json("BENCH_kernels", &doc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_gate_passes_on_default_seed() {
        // Smaller shapes than the binary uses, same logic: regenerate the
        // gate's first shape only (keep the test fast).
        let mut rng = SmallRng::seed_from_u64(7);
        let src = embeddings(37, 9, &mut rng);
        let dst = embeddings(53, 9, &mut rng);
        for metric in Metric::ALL {
            let naive = SimilarityMatrix::compute_naive(&src, &dst, 9, metric, 1);
            let tiled = SimilarityMatrix::compute_tiled(&src, &dst, 9, metric, 2, 7);
            for i in 0..37 {
                for j in 0..53 {
                    assert_eq!(naive.get(i, j).to_bits(), tiled.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn entry_serializes_speedups_and_geometry() {
        let e = Entry {
            n: 600,
            dim: 32,
            threads: 2,
            backend: "avx2",
            tile: DEFAULT_TILE,
            panel_rows: vecops::PANEL,
            naive_ms: 9.0,
            tiled_ms: 3.0,
            topk_ms: 4.5,
        };
        let j = e.to_json();
        assert_eq!(j.get("entities").and_then(Json::as_f64), Some(600.0));
        assert_eq!(j.get("speedup_tiled").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("speedup_topk").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("kernel_backend").and_then(Json::as_str), Some("avx2"));
        assert_eq!(
            j.get("tile").and_then(Json::as_f64),
            Some(DEFAULT_TILE as f64)
        );
        assert_eq!(
            j.get("panel_rows").and_then(Json::as_f64),
            Some(vecops::PANEL as f64)
        );
    }
}
