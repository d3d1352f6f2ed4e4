//! Register-blocked SIMD microkernels with runtime ISA dispatch.
//!
//! This module owns the innermost loops under the dimension-major
//! ("transposed-tile") block kernels in [`crate::vecops`] and under the
//! autodiff tape's matrix products: one or four source rows swept against
//! a tile stored `tile_t[d * cols + j]` (or, for a CSR row, against the
//! dense rows its entries name), with `d` as the outer loop. Each output column keeps its
//! own accumulator that folds **sequentially in `d`** — the same op
//! sequence at every vector width — so the scalar, SSE2 and AVX2 backends
//! are *bit-identical* to each other and to the naive per-pair kernels
//! (`dot`, `euclidean`, `manhattan`). Vectorizing across columns instead of
//! across `d` is what makes that possible: no horizontal reduction, no
//! reassociation, no FMA (fused rounding would differ from `mul` + `add`).
//!
//! Float-order contract per accumulation op:
//! - inner product: seeds from `-0.0` (the IEEE additive identity
//!   `f32::sum` folds from), `acc + x*b` per step;
//! - squared Euclidean: seeds from `+0.0`, `acc + (x-b)*(x-b)` per step;
//! - Manhattan: seeds from `+0.0`, `acc + |x-b|` per step, where `|v|` is a
//!   sign-bit clear (`f32::abs`) on every backend;
//! - matrix products ([`matmul`], [`csr_matmul`]): seed from `+0.0`,
//!   `acc + x*b` per step — the fold of a zero-initialized `out += x*b`
//!   loop, so the autodiff tape's dense and sparse products keep the bits
//!   of the naive loops they replaced.
//!
//! Register geometry: single-row kernels block four vectors of columns per
//! `d`-pass (32 f32 lanes at AVX2); the [`PANEL_ROWS`]-row panel kernels
//! block 4 rows × 2 vectors = 8 wide-register accumulators, so each tile
//! lane load is amortized over four source rows. Remainders fall through to
//! narrower vector loops and finally a scalar tail with the identical fold.
//!
//! Dispatch: the backend is detected once (AVX2 via
//! `is_x86_feature_detected!`, else SSE2 which is baseline on `x86_64`,
//! else scalar) and cached in an atomic. The `OPENEA_KERNEL_BACKEND` env
//! var (`scalar` | `sse2` | `avx2`, clamped to what the host supports)
//! overrides detection, and [`force_backend`] re-points the dispatch at
//! runtime — that is how CI exercises every backend on any host. Because
//! all backends are bit-identical, concurrent readers racing a
//! `force_backend` call still compute the same numbers.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m128, __m256, _mm256_add_ps, _mm256_andnot_ps, _mm256_loadu_ps, _mm256_mul_ps,
    _mm256_set1_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_andnot_ps, _mm_loadu_ps,
    _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps,
};
use std::sync::atomic::{AtomicU8, Ordering};

/// Source rows per register panel (see [`panel_dot`] and friends).
pub const PANEL_ROWS: usize = 4;

/// Environment variable that pins the kernel backend for a whole process
/// (`scalar` | `sse2` | `avx2`); requests above what the host supports are
/// clamped down, unknown values fall back to auto-detection.
pub const BACKEND_ENV: &str = "OPENEA_KERNEL_BACKEND";

/// A kernel instruction-set backend, ordered weakest → strongest so that
/// "clamp to the best supported" is a plain `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Backend {
    /// Portable scalar loops — the reference every other backend must match
    /// bit-for-bit, and the only backend off `x86_64`.
    Scalar = 1,
    /// 128-bit SSE2 lanes (baseline on `x86_64`, no detection needed).
    Sse2 = 2,
    /// 256-bit AVX2 lanes (runtime-detected).
    Avx2 = 3,
}

impl Backend {
    /// Every backend the dispatcher knows about, weakest first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Sse2, Backend::Avx2];

    /// Stable label, also the accepted [`BACKEND_ENV`] value.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parses a [`label`](Self::label) (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Backend {
        match v {
            1 => Backend::Scalar,
            2 => Backend::Sse2,
            3 => Backend::Avx2,
            _ => unreachable!("invalid backend tag {v}"),
        }
    }
}

/// Cached dispatch decision; 0 = not yet resolved.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The strongest backend this host can execute.
pub fn best_supported() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Backend::Scalar
    }
}

/// Clamps a requested backend to what this host can execute, so forcing
/// `avx2` on an SSE2-only box degrades gracefully instead of faulting.
pub fn clamp_to_supported(b: Backend) -> Backend {
    b.min(best_supported())
}

/// Backends this host can actually execute (always includes `Scalar`).
pub fn supported_backends() -> Vec<Backend> {
    Backend::ALL
        .into_iter()
        .filter(|&b| clamp_to_supported(b) == b)
        .collect()
}

fn resolve_auto() -> Backend {
    match std::env::var(BACKEND_ENV) {
        Ok(s) => match Backend::parse(&s) {
            Some(b) => clamp_to_supported(b),
            None => best_supported(),
        },
        Err(_) => best_supported(),
    }
}

/// The backend every block kernel currently dispatches to. Resolved on
/// first use from [`BACKEND_ENV`] / CPU detection and cached.
pub fn active_backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let b = resolve_auto();
            ACTIVE.store(b as u8, Ordering::Relaxed);
            b
        }
        v => Backend::from_u8(v),
    }
}

/// Re-points the dispatcher: `Some(b)` selects `b` (clamped to the host's
/// capabilities), `None` restores [`BACKEND_ENV`] / auto-detection. Returns
/// the backend that actually took effect. Safe to race with concurrent
/// kernel calls — every backend computes identical bits.
pub fn force_backend(b: Option<Backend>) -> Backend {
    let eff = match b {
        Some(b) => clamp_to_supported(b),
        None => resolve_auto(),
    };
    ACTIVE.store(eff as u8, Ordering::Relaxed);
    eff
}

// --------------------------------------------------------------- SIMD lanes

/// A vector of `N` f32 lanes. All ops are lane-wise; `abs` clears the sign
/// bit exactly like `f32::abs`. Methods are `unsafe` because the wide impls
/// lower to ISA intrinsics: callers must only reach them through a frame
/// whose target features match (the `#[target_feature]` wrappers below).
trait Lanes: Copy {
    const N: usize;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn splat(x: f32) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn abs(self) -> Self;
}

impl Lanes for f32 {
    const N: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        x
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        self.abs()
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m128 {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm_add_ps(self, o)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        _mm_sub_ps(self, o)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        _mm_mul_ps(self, o)
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        // Sign-bit clear: bit-identical to `f32::abs` per lane.
        _mm_andnot_ps(_mm_set1_ps(-0.0), self)
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for __m256 {
    const N: usize = 8;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self)
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        _mm256_add_ps(self, o)
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        _mm256_sub_ps(self, o)
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        _mm256_mul_ps(self, o)
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        _mm256_andnot_ps(_mm256_set1_ps(-0.0), self)
    }
}

// -------------------------------------------------------- accumulation ops

/// One fold step of a column accumulator. `SEED` is the additive identity
/// the chain starts from (part of the float-order contract above).
trait Accum {
    const SEED: f32;
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V;
}

/// `acc + x*b`, seeded from `-0.0` like `f32::sum`.
struct DotA;
impl Accum for DotA {
    const SEED: f32 = -0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        acc.add(x.mul(b))
    }
}

/// `acc + (x-b)*(x-b)`, seeded from `+0.0`.
struct SqA;
impl Accum for SqA {
    const SEED: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        let t = x.sub(b);
        acc.add(t.mul(t))
    }
}

/// `acc + |x-b|`, seeded from `+0.0`.
struct AbsA;
impl Accum for AbsA {
    const SEED: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        acc.add(x.sub(b).abs())
    }
}

/// `acc + x*b`, seeded from `+0.0`: the fold of a zero-initialized
/// `out += x*b` loop, which is what matrix products accumulate.
struct MulAddA;
impl Accum for MulAddA {
    const SEED: f32 = 0.0;
    #[inline(always)]
    unsafe fn step<V: Lanes>(acc: V, x: V, b: V) -> V {
        acc.add(x.mul(b))
    }
}

// --------------------------------------------------------- generic kernels

/// One source row against columns `[start, cols)` of `a.len()` tile rows,
/// where `row_at(d)` points at the `cols` values of tile row `d`: a
/// four-vector register block, then one vector at a time, then a scalar
/// tail — every column folds the identical op sequence in `d`. A
/// dimension-major tile passes `row_at(d) = tile_t + d*cols`; the CSR
/// row-gather passes the dense row a sparse entry points at.
///
/// Safety: `row_at(d)` must be readable for `cols` f32s for every
/// `d < a.len()`, `out` must be writable for `cols`, and `V`'s ISA must be
/// live in the calling frame.
#[inline(always)]
unsafe fn row_kernel<V: Lanes, A: Accum>(
    a: &[f32],
    row_at: impl Fn(usize) -> *const f32,
    cols: usize,
    start: usize,
    out: *mut f32,
) {
    let mut j = start;
    while j + 4 * V::N <= cols {
        let seed = V::splat(A::SEED);
        let (mut c0, mut c1, mut c2, mut c3) = (seed, seed, seed, seed);
        for (d, &x) in a.iter().enumerate() {
            let base = row_at(d).add(j);
            let xv = V::splat(x);
            c0 = A::step(c0, xv, V::load(base));
            c1 = A::step(c1, xv, V::load(base.add(V::N)));
            c2 = A::step(c2, xv, V::load(base.add(2 * V::N)));
            c3 = A::step(c3, xv, V::load(base.add(3 * V::N)));
        }
        c0.store(out.add(j));
        c1.store(out.add(j + V::N));
        c2.store(out.add(j + 2 * V::N));
        c3.store(out.add(j + 3 * V::N));
        j += 4 * V::N;
    }
    while j + V::N <= cols {
        let mut c = V::splat(A::SEED);
        for (d, &x) in a.iter().enumerate() {
            c = A::step(c, V::splat(x), V::load(row_at(d).add(j)));
        }
        c.store(out.add(j));
        j += V::N;
    }
    while j < cols {
        let mut c = A::SEED;
        for (d, &x) in a.iter().enumerate() {
            c = A::step(c, x, *row_at(d).add(j));
        }
        *out.add(j) = c;
        j += 1;
    }
}

/// Four source rows against a dimension-major tile: 4 rows × 2 vectors = 8
/// register accumulators, each tile lane load amortized over the four rows.
/// Column remainders fall through to [`row_kernel`] per row (same fold, so
/// still bit-identical).
///
/// Safety: `a` must hold `PANEL_ROWS * dim` f32s, `tile_t` must hold
/// `dim * cols`, each `out` pointer must be writable for `cols`, and `V`'s
/// ISA must be live in the calling frame.
#[inline(always)]
unsafe fn panel_kernel<V: Lanes, A: Accum>(
    a: *const f32,
    dim: usize,
    tile_t: *const f32,
    cols: usize,
    out: [*mut f32; PANEL_ROWS],
) {
    let (a0, a1, a2, a3) = (a, a.add(dim), a.add(2 * dim), a.add(3 * dim));
    let mut j = 0;
    while j + 2 * V::N <= cols {
        let seed = V::splat(A::SEED);
        let (mut c00, mut c01) = (seed, seed);
        let (mut c10, mut c11) = (seed, seed);
        let (mut c20, mut c21) = (seed, seed);
        let (mut c30, mut c31) = (seed, seed);
        for d in 0..dim {
            let base = tile_t.add(d * cols + j);
            let b0 = V::load(base);
            let b1 = V::load(base.add(V::N));
            let x0 = V::splat(*a0.add(d));
            c00 = A::step(c00, x0, b0);
            c01 = A::step(c01, x0, b1);
            let x1 = V::splat(*a1.add(d));
            c10 = A::step(c10, x1, b0);
            c11 = A::step(c11, x1, b1);
            let x2 = V::splat(*a2.add(d));
            c20 = A::step(c20, x2, b0);
            c21 = A::step(c21, x2, b1);
            let x3 = V::splat(*a3.add(d));
            c30 = A::step(c30, x3, b0);
            c31 = A::step(c31, x3, b1);
        }
        c00.store(out[0].add(j));
        c01.store(out[0].add(j + V::N));
        c10.store(out[1].add(j));
        c11.store(out[1].add(j + V::N));
        c20.store(out[2].add(j));
        c21.store(out[2].add(j + V::N));
        c30.store(out[3].add(j));
        c31.store(out[3].add(j + V::N));
        j += 2 * V::N;
    }
    if j < cols {
        for (r, &o) in out.iter().enumerate() {
            let row = std::slice::from_raw_parts(a.add(r * dim), dim);
            row_kernel::<V, A>(row, |d| tile_t.add(d * cols), cols, j, o);
        }
    }
}

// ------------------------------------------------------ dispatch wrappers

macro_rules! dispatch_kernels {
    (
        $acc:ty,
        $row:ident, $row_sse2:ident, $row_avx2:ident, $row_doc:literal,
        $panel:ident, $panel_sse2:ident, $panel_avx2:ident, $panel_doc:literal
    ) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn $row_sse2(a: &[f32], tile_t: *const f32, cols: usize, out: *mut f32) {
            row_kernel::<__m128, $acc>(a, |d| tile_t.add(d * cols), cols, 0, out)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $row_avx2(a: &[f32], tile_t: *const f32, cols: usize, out: *mut f32) {
            row_kernel::<__m256, $acc>(a, |d| tile_t.add(d * cols), cols, 0, out)
        }

        #[doc = $row_doc]
        pub fn $row(a: &[f32], tile_t: &[f32], out: &mut [f32]) {
            let cols = out.len();
            assert_eq!(tile_t.len(), a.len() * cols, "tile_t shape");
            let (t, o) = (tile_t.as_ptr(), out.as_mut_ptr());
            match active_backend() {
                // Safety: bounds asserted above; wide wrappers only run
                // after their ISA was detected (or clamped) at dispatch.
                Backend::Scalar => unsafe {
                    row_kernel::<f32, $acc>(a, |d| t.add(d * cols), cols, 0, o)
                },
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => unsafe { $row_sse2(a, t, cols, o) },
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => unsafe { $row_avx2(a, t, cols, o) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unsafe { row_kernel::<f32, $acc>(a, |d| t.add(d * cols), cols, 0, o) },
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        unsafe fn $panel_sse2(
            a: *const f32,
            dim: usize,
            tile_t: *const f32,
            cols: usize,
            out: [*mut f32; PANEL_ROWS],
        ) {
            panel_kernel::<__m128, $acc>(a, dim, tile_t, cols, out)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $panel_avx2(
            a: *const f32,
            dim: usize,
            tile_t: *const f32,
            cols: usize,
            out: [*mut f32; PANEL_ROWS],
        ) {
            panel_kernel::<__m256, $acc>(a, dim, tile_t, cols, out)
        }

        #[doc = $panel_doc]
        pub fn $panel(a: &[f32], dim: usize, tile_t: &[f32], out: [&mut [f32]; PANEL_ROWS]) {
            assert_eq!(a.len(), PANEL_ROWS * dim, "panel source shape");
            let cols = out[0].len();
            assert!(out.iter().all(|o| o.len() == cols), "ragged panel out");
            assert_eq!(tile_t.len(), dim * cols, "tile_t shape");
            let [o0, o1, o2, o3] = out;
            let o = [
                o0.as_mut_ptr(),
                o1.as_mut_ptr(),
                o2.as_mut_ptr(),
                o3.as_mut_ptr(),
            ];
            let (ap, t) = (a.as_ptr(), tile_t.as_ptr());
            match active_backend() {
                // Safety: as in the row dispatcher above.
                Backend::Scalar => unsafe { panel_kernel::<f32, $acc>(ap, dim, t, cols, o) },
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => unsafe { $panel_sse2(ap, dim, t, cols, o) },
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => unsafe { $panel_avx2(ap, dim, t, cols, o) },
                #[cfg(not(target_arch = "x86_64"))]
                _ => unsafe { panel_kernel::<f32, $acc>(ap, dim, t, cols, o) },
            }
        }
    };
}

dispatch_kernels!(
    DotA,
    row_dot,
    row_dot_sse2,
    row_dot_avx2,
    "`out[j] = Σ_d a[d] * tile_t[d*cols + j]`, folded sequentially in `d` \
     from `-0.0` — bit-identical to `vecops::dot` per column.",
    panel_dot,
    panel_dot_sse2,
    panel_dot_avx2,
    "Four-row inner-product panel over one dimension-major tile; \
     `out[r][j]` is bit-identical to [`row_dot`] of row `r`."
);

dispatch_kernels!(
    SqA,
    row_sqdist,
    row_sqdist_sse2,
    row_sqdist_avx2,
    "`out[j] = Σ_d (a[d] - tile_t[d*cols + j])²`, folded sequentially in \
     `d` from `+0.0` — bit-identical to `vecops::euclidean_sq` per column.",
    panel_sqdist,
    panel_sqdist_sse2,
    panel_sqdist_avx2,
    "Four-row squared-Euclidean panel over one dimension-major tile; \
     `out[r][j]` is bit-identical to [`row_sqdist`] of row `r`."
);

dispatch_kernels!(
    AbsA,
    row_absdist,
    row_absdist_sse2,
    row_absdist_avx2,
    "`out[j] = Σ_d |a[d] - tile_t[d*cols + j]|`, folded sequentially in \
     `d` from `+0.0` — bit-identical to `vecops::manhattan` per column.",
    panel_absdist,
    panel_absdist_sse2,
    panel_absdist_avx2,
    "Four-row Manhattan panel over one dimension-major tile; `out[r][j]` \
     is bit-identical to [`row_absdist`] of row `r`."
);

// ------------------------------------------------------- matrix products

/// A whole-operation kernel body, generic over the lane type, so one
/// dispatcher serves every product below and the backend is resolved once
/// per call rather than once per row.
trait Body {
    /// Safety: the caller checked the body's bounds, and `V`'s ISA is live
    /// in the calling frame.
    unsafe fn run<V: Lanes>(&self);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn run_sse2<B: Body>(body: &B) {
    body.run::<__m128>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<B: Body>(body: &B) {
    body.run::<__m256>()
}

/// Safety: `body`'s bounds must have been checked.
unsafe fn run_body<B: Body>(body: &B) {
    match active_backend() {
        Backend::Scalar => body.run::<f32>(),
        // Wide wrappers only run after their ISA was detected (or clamped).
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => run_sse2(body),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => run_avx2(body),
        #[cfg(not(target_arch = "x86_64"))]
        _ => body.run::<f32>(),
    }
}

/// Dense product: `rows × dim` times `dim × cols`, both row-major.
struct Dense<'a> {
    a: &'a [f32],
    b: &'a [f32],
    out: *mut f32,
    rows: usize,
    dim: usize,
    cols: usize,
}

impl Body for Dense<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(&self) {
        let (a, b, (dim, cols)) = (self.a.as_ptr(), self.b.as_ptr(), (self.dim, self.cols));
        // A row-major `dim × cols` right operand is a dimension-major tile.
        let mut i = 0;
        while i + PANEL_ROWS <= self.rows {
            let out = std::array::from_fn(|r| self.out.add((i + r) * cols));
            panel_kernel::<V, MulAddA>(a.add(i * dim), dim, b, cols, out);
            i += PANEL_ROWS;
        }
        for i in i..self.rows {
            let row = std::slice::from_raw_parts(a.add(i * dim), dim);
            let out = self.out.add(i * cols);
            row_kernel::<V, MulAddA>(row, |d| b.add(d * cols), cols, 0, out);
        }
    }
}

/// CSR times dense: output row `r` gathers the dense rows its entries name.
struct Csr<'a> {
    row_ptr: &'a [usize],
    col_idx: &'a [u32],
    values: &'a [f32],
    m: &'a [f32],
    out: *mut f32,
    cols: usize,
}

impl Body for Csr<'_> {
    #[inline(always)]
    unsafe fn run<V: Lanes>(&self) {
        let (m, cols) = (self.m.as_ptr(), self.cols);
        for (r, span) in self.row_ptr.windows(2).enumerate() {
            let idx = &self.col_idx[span[0]..span[1]];
            let row_at = |k: usize| m.add(idx[k] as usize * cols);
            let vals = &self.values[span[0]..span[1]];
            row_kernel::<V, MulAddA>(vals, row_at, cols, 0, self.out.add(r * cols));
        }
    }
}

/// Dense product `out = A·B` for row-major `a` (`rows × dim`), `b`
/// (`dim × cols`) and `out` (`rows × cols`). Every `out[i][j]` folds
/// `acc + a[i][d]*b[d][j]` sequentially in `d` from `+0.0`, on every
/// backend: bit-identical to a zero-initialized `out += a*b` loop over
/// `d`, and, for finite `b`, to one that skips zero multipliers (a `+0.0`
/// seed never turns into `-0.0`, so adding `±0.0` leaves it unchanged).
pub fn matmul(rows: usize, dim: usize, cols: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), rows * dim, "matmul left operand shape");
    assert_eq!(b.len(), dim * cols, "matmul right operand shape");
    assert_eq!(out.len(), rows * cols, "matmul output shape");
    let body = Dense {
        a,
        b,
        out: out.as_mut_ptr(),
        rows,
        dim,
        cols,
    };
    // Safety: every extent the body touches was asserted above.
    unsafe { run_body(&body) }
}

/// Sparse-times-dense product `out = S·M` for a CSR matrix `S`
/// (`row_ptr`, `col_idx`, `values`, with `row_ptr.len() - 1` rows) and a
/// row-major `m` with `cols` columns. Every `out[r][j]` folds
/// `acc + values[k]*m[col_idx[k]][j]` over the row's entries in storage
/// order from `+0.0`, on every backend: bit-identical to a zero-initialized
/// `out += v*m` loop over the same entries. Empty rows come out `+0.0`.
pub fn csr_matmul(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f32],
    m: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    assert!(!row_ptr.is_empty(), "row_ptr holds rows + 1 offsets");
    assert_eq!(col_idx.len(), values.len(), "one column per value");
    assert!(
        row_ptr.windows(2).all(|w| w[0] <= w[1]) && row_ptr[row_ptr.len() - 1] <= values.len(),
        "row_ptr must be ascending and within the entries"
    );
    assert!(
        col_idx.iter().all(|&c| (c as usize + 1) * cols <= m.len()),
        "column index past the dense operand"
    );
    assert_eq!(
        out.len(),
        (row_ptr.len() - 1) * cols,
        "csr_matmul output shape"
    );
    let body = Csr {
        row_ptr,
        col_idx,
        values,
        m,
        out: out.as_mut_ptr(),
        cols,
    };
    // Safety: every index the body dereferences was asserted above.
    unsafe { run_body(&body) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that force a backend: the knob is global, and
    /// `forcing_clamps_to_host_support` asserts what it restores.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pseudo(n: usize, salt: u32) -> Vec<f32> {
        // Deterministic mixed-magnitude data including exact zeros and
        // negatives; no RNG dependency needed at this layer.
        (0..n)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((x % 2001) as f32 - 1000.0) / 250.0
            })
            .collect()
    }

    fn transpose(tile: &[f32], dim: usize) -> Vec<f32> {
        let rows = tile.len() / dim;
        let mut out = vec![0.0; tile.len()];
        for (j, row) in tile.chunks_exact(dim).enumerate() {
            for (d, &v) in row.iter().enumerate() {
                out[d * rows + j] = v;
            }
        }
        out
    }

    fn scalar_ref(a: &[f32], tile: &[f32], dim: usize, op: &str) -> Vec<f32> {
        tile.chunks_exact(dim)
            .map(|b| match op {
                "dot" => a.iter().zip(b).map(|(x, y)| x * y).sum(),
                "sq" => a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum(),
                "abs" => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn labels_parse_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.label()), Some(b));
            assert_eq!(Backend::parse(&b.label().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::parse("neon"), None);
        assert!(supported_backends().contains(&Backend::Scalar));
    }

    #[test]
    fn forcing_clamps_to_host_support() {
        let _guard = lock();
        // Single test owns force_backend assertions (the knob is global);
        // other tests only *compute*, which is backend-invariant.
        let prev = active_backend();
        for b in Backend::ALL {
            let eff = force_backend(Some(b));
            assert_eq!(eff, clamp_to_supported(b));
            assert!(supported_backends().contains(&eff));
        }
        force_backend(None);
        assert_eq!(active_backend(), prev);
    }

    #[test]
    fn every_backend_matches_the_scalar_fold_bitwise() {
        let _guard = lock();
        // Shapes chosen to hit the 4-vector block, the 1-vector loop and
        // the scalar tail on every backend (cols 67 = 2*32 + 3 at AVX2).
        for &(rows, dim) in &[(1usize, 1usize), (5, 3), (67, 16), (97, 7)] {
            let tile = pseudo(rows * dim, 7);
            let tile_t = transpose(&tile, dim);
            let a = pseudo(PANEL_ROWS * dim, 1312);
            for op in ["dot", "sq", "abs"] {
                let run_row = |x: &[f32], out: &mut [f32]| match op {
                    "dot" => row_dot(x, &tile_t, out),
                    "sq" => row_sqdist(x, &tile_t, out),
                    "abs" => row_absdist(x, &tile_t, out),
                    _ => unreachable!(),
                };
                let want = scalar_ref(&a[..dim], &tile, dim, op);
                for b in supported_backends() {
                    force_backend(Some(b));
                    let mut got = vec![9.0f32; rows];
                    run_row(&a[..dim], &mut got);
                    for j in 0..rows {
                        assert_eq!(
                            got[j].to_bits(),
                            want[j].to_bits(),
                            "{op} row kernel, backend {}, col {j}",
                            b.label()
                        );
                    }
                    // Panel result must equal the row kernel per row.
                    let mut p = vec![9.0f32; PANEL_ROWS * rows];
                    let (p0, rest) = p.split_at_mut(rows);
                    let (p1, rest) = rest.split_at_mut(rows);
                    let (p2, p3) = rest.split_at_mut(rows);
                    match op {
                        "dot" => panel_dot(&a, dim, &tile_t, [p0, p1, p2, p3]),
                        "sq" => panel_sqdist(&a, dim, &tile_t, [p0, p1, p2, p3]),
                        "abs" => panel_absdist(&a, dim, &tile_t, [p0, p1, p2, p3]),
                        _ => unreachable!(),
                    }
                    for r in 0..PANEL_ROWS {
                        let want_r = scalar_ref(&a[r * dim..(r + 1) * dim], &tile, dim, op);
                        for j in 0..rows {
                            assert_eq!(
                                p[r * rows + j].to_bits(),
                                want_r[j].to_bits(),
                                "{op} panel kernel, backend {}, row {r} col {j}",
                                b.label()
                            );
                        }
                    }
                }
                force_backend(None);
            }
        }
    }

    #[test]
    fn dot_seeds_from_negative_zero_on_every_backend() {
        let _guard = lock();
        // dot(-1, 0) = -0.0 exactly like `f32::sum`; distances seed +0.0.
        let a = [-1.0f32];
        let tile_t = [0.0f32; 9];
        for b in supported_backends() {
            force_backend(Some(b));
            let mut out = [9.0f32; 9];
            row_dot(&a, &tile_t, &mut out);
            for (j, o) in out.iter().enumerate() {
                assert_eq!(o.to_bits(), (-0.0f32).to_bits(), "{} col {j}", b.label());
            }
            row_sqdist(&a, &tile_t, &mut out);
            assert_eq!(out[0].to_bits(), 1.0f32.to_bits());
        }
        force_backend(None);
    }

    #[test]
    fn matrix_products_match_their_loops_on_every_backend() {
        let _guard = lock();
        // Rows straddle the 4-row panel; cols hit every column path.
        for &(rows, dim, cols) in &[(0usize, 3usize, 5usize), (1, 1, 1), (6, 7, 33), (9, 4, 3)] {
            let a = pseudo(rows * dim, 3);
            let b = pseudo(dim * cols, 11);
            let mut want = vec![0.0f32; rows * cols];
            for i in 0..rows {
                for d in 0..dim {
                    for j in 0..cols {
                        want[i * cols + j] += a[i * dim + d] * b[d * cols + j];
                    }
                }
            }
            // CSR over `b`'s rows: row 0 is empty, every other row names
            // one dense row twice.
            let row_ptr: Vec<usize> = (0..=rows).map(|r| (r * 2).saturating_sub(2)).collect();
            let col_idx: Vec<u32> = (0..row_ptr[rows]).map(|k| (k / 2 % dim) as u32).collect();
            let values = pseudo(col_idx.len(), 5);
            let mut want_csr = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for k in row_ptr[r]..row_ptr[r + 1] {
                    for j in 0..cols {
                        want_csr[r * cols + j] += values[k] * b[col_idx[k] as usize * cols + j];
                    }
                }
            }
            for be in supported_backends() {
                force_backend(Some(be));
                let mut got = vec![9.0f32; rows * cols];
                matmul(rows, dim, cols, &a, &b, &mut got);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "matmul {} {rows}x{dim}x{cols}",
                    be.label()
                );
                csr_matmul(&row_ptr, &col_idx, &values, &b, cols, &mut got);
                assert_eq!(bits(&got), bits(&want_csr), "csr {}", be.label());
            }
            force_backend(None);
        }
    }

    #[test]
    fn empty_dim_writes_the_seed() {
        let mut out = [5.0f32; 3];
        row_dot(&[], &[], &mut out);
        assert!(out.iter().all(|o| o.to_bits() == (-0.0f32).to_bits()));
        row_absdist(&[], &[], &mut out);
        assert!(out.iter().all(|o| o.to_bits() == 0.0f32.to_bits()));
    }
}
