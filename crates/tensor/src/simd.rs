//! Explicit AVX2(+FMA) kernels — the x86-64 SIMD backend.
//!
//! Every f32 kernel here preserves the bit-identity contract documented in
//! [`crate::backend`]: an output element accumulates its reduction terms
//! in ascending-`k` order within a single SIMD lane, using [`vmadd`] —
//! whose FMA/mul-add choice is keyed on the *same* `cfg(target_feature =
//! "fma")` as the scalar [`crate::tensor::madd`] — so the result is bit
//! for bit the [`crate::naive`] answer. Vector width only decides how many
//! *independent* output columns advance per instruction; it never reorders
//! any one element's chain.
//!
//! Kernels are picked by the number of output rows `m`. With `m >= 4`
//! the transposed flavours (`matmul_t`, the attention score dot) first
//! pack the transposed operand into a pooled [`crate::workspace`] scratch
//! — k·n moves, amortized over the m·k·n multiply-adds — and then run the
//! same register-tiled GEMM, which turns the scalar path's stride-`k`
//! gather into contiguous row streams. Decode shapes (`m < 4`, no 4-row
//! tile) are bound by reading the weights once, and at `m = 1` a pack
//! moves as many elements as the product multiplies, so they get their
//! own scratch-free kernels: [`gemv_avx2`] streams `b` row by row into
//! register-held output columns, and [`gemv_t_avx2`] / [`gemv_t_avx512`]
//! read eight / sixteen `b` rows contiguously and transpose each tile in
//! registers. Half-precision operands widen exactly to f32 scratch and
//! reuse the f32 GEMM; int8 uses a widening 32-bit integer kernel that is
//! exact, so all backends agree bit for bit on every dtype.

#![allow(unsafe_code)] // The one module allowed to: every unsafe fn is
                       // `#[target_feature(enable = "avx2")]` and only
                       // reachable behind runtime AVX2 detection, with
                       // slice bounds asserted in the safe wrappers.

use crate::backend::Backend;
use crate::element::F16;
use crate::tensor::madd;
use crate::workspace::with_scratch;
use core::arch::x86_64::*;

/// The AVX2 backend. Only constructible when the host supports it — use
/// [`SimdBackend::try_new`] (tests) or the process-wide selector in
/// [`crate::backend`].
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    _guard: (),
}

static INSTANCE: SimdBackend = SimdBackend { _guard: () };

/// The shared instance handed out by [`crate::backend::active`]; callers
/// there have already verified AVX2 support.
pub(crate) fn backend_static() -> &'static dyn Backend {
    &INSTANCE
}

impl SimdBackend {
    /// The AVX2 backend, or `None` when this host lacks AVX2. This is the
    /// race-free way for tests to pin a specific backend without touching
    /// the process-wide selection.
    #[must_use]
    pub fn try_new() -> Option<SimdBackend> {
        if std::arch::is_x86_feature_detected!("avx2") {
            Some(INSTANCE)
        } else {
            None
        }
    }
}

/// Eight-lane multiply-accumulate with the same rounding behaviour as the
/// scalar [`madd`]: fused when the crate is compiled with the `fma` target
/// feature (one rounding), separate multiply + add otherwise — keyed on
/// the identical `cfg`, which is what makes SIMD lanes bit-match scalar
/// chains.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vmadd(acc: __m256, a: __m256, b: __m256) -> __m256 {
    #[cfg(target_feature = "fma")]
    {
        _mm256_fmadd_ps(a, b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }
}

/// Sixteen-lane multiply-accumulate, same rounding contract as [`vmadd`]
/// and the scalar [`madd`] — keyed on the identical `fma` `cfg`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vmadd512(acc: __m512, a: __m512, b: __m512) -> __m512 {
    #[cfg(target_feature = "fma")]
    {
        _mm512_fmadd_ps(a, b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        _mm512_add_ps(acc, _mm512_mul_ps(a, b))
    }
}

/// Strided f32 GEMM: `out[i,j] (+)= sum_p a[i,p] * b[p,j]`, ascending-`p`
/// chains per element. Row `i` of `a` starts at `a_stride * i` (and so on
/// for `b`, `out`), which lets attention address head slabs in place.
///
/// Shape: a 16-column panel loop (two `ymm` of output columns held in
/// registers) around a 4-row micro-tile, so each `b` element is loaded
/// once per four output rows and `out` traffic is one store per element —
/// the register-accumulator structure the scalar kernel can't express.
/// The `m % 4` rows left over below the last tile go to [`gemv_avx2`].
///
/// # Safety
///
/// Requires AVX2, and the slices must cover `(rows-1)*stride + row_len`
/// elements for their respective `(m|k) x (k|n)` shapes — asserted by the
/// safe wrappers before dispatch.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let m4 = m - m % 4;
    let mut j = 0usize;
    // 16-column panels: 4x16 register tiles (8 accumulator ymm).
    while j + 16 <= n {
        let mut i = 0usize;
        while i < m4 {
            let a0 = a.add(i * a_stride);
            let a1 = a.add((i + 1) * a_stride);
            let a2 = a.add((i + 2) * a_stride);
            let a3 = a.add((i + 3) * a_stride);
            let o0 = out.add(i * out_stride + j);
            let o1 = out.add((i + 1) * out_stride + j);
            let o2 = out.add((i + 2) * out_stride + j);
            let o3 = out.add((i + 3) * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm256_loadu_ps(o0),
                        _mm256_loadu_ps(o0.add(8)),
                        _mm256_loadu_ps(o1),
                        _mm256_loadu_ps(o1.add(8)),
                        _mm256_loadu_ps(o2),
                        _mm256_loadu_ps(o2.add(8)),
                        _mm256_loadu_ps(o3),
                        _mm256_loadu_ps(o3.add(8)),
                    )
                } else {
                    let z = _mm256_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut bp = b.add(j);
            for p in 0..k {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                let x0 = _mm256_set1_ps(*a0.add(p));
                c00 = vmadd(c00, x0, b0);
                c01 = vmadd(c01, x0, b1);
                let x1 = _mm256_set1_ps(*a1.add(p));
                c10 = vmadd(c10, x1, b0);
                c11 = vmadd(c11, x1, b1);
                let x2 = _mm256_set1_ps(*a2.add(p));
                c20 = vmadd(c20, x2, b0);
                c21 = vmadd(c21, x2, b1);
                let x3 = _mm256_set1_ps(*a3.add(p));
                c30 = vmadd(c30, x3, b0);
                c31 = vmadd(c31, x3, b1);
                bp = bp.add(b_stride);
            }
            _mm256_storeu_ps(o0, c00);
            _mm256_storeu_ps(o0.add(8), c01);
            _mm256_storeu_ps(o1, c10);
            _mm256_storeu_ps(o1.add(8), c11);
            _mm256_storeu_ps(o2, c20);
            _mm256_storeu_ps(o2.add(8), c21);
            _mm256_storeu_ps(o3, c30);
            _mm256_storeu_ps(o3.add(8), c31);
            i += 4;
        }
        j += 16;
    }
    // 8-column panel tail: 4x8 tiles.
    while j + 8 <= n {
        let mut i = 0usize;
        while i < m4 {
            let a0 = a.add(i * a_stride);
            let a1 = a.add((i + 1) * a_stride);
            let a2 = a.add((i + 2) * a_stride);
            let a3 = a.add((i + 3) * a_stride);
            let o0 = out.add(i * out_stride + j);
            let o1 = out.add((i + 1) * out_stride + j);
            let o2 = out.add((i + 2) * out_stride + j);
            let o3 = out.add((i + 3) * out_stride + j);
            let (mut c0, mut c1, mut c2, mut c3) = if accumulate {
                (_mm256_loadu_ps(o0), _mm256_loadu_ps(o1), _mm256_loadu_ps(o2), _mm256_loadu_ps(o3))
            } else {
                let z = _mm256_setzero_ps();
                (z, z, z, z)
            };
            let mut bp = b.add(j);
            for p in 0..k {
                let bv = _mm256_loadu_ps(bp);
                c0 = vmadd(c0, _mm256_set1_ps(*a0.add(p)), bv);
                c1 = vmadd(c1, _mm256_set1_ps(*a1.add(p)), bv);
                c2 = vmadd(c2, _mm256_set1_ps(*a2.add(p)), bv);
                c3 = vmadd(c3, _mm256_set1_ps(*a3.add(p)), bv);
                bp = bp.add(b_stride);
            }
            _mm256_storeu_ps(o0, c0);
            _mm256_storeu_ps(o1, c1);
            _mm256_storeu_ps(o2, c2);
            _mm256_storeu_ps(o3, c3);
            i += 4;
        }
        j += 8;
    }
    // Scalar column tail (< 8 columns): same ascending-`p` madd chains.
    gemm_cols_scalar(a, a_stride, b, b_stride, out, out_stride, m4, k, j, n, accumulate);
    // The `m % 4` leftover rows form no 4-row tile: the decode kernel.
    if m4 < m {
        gemv_rows_avx2(
            a.add(m4 * a_stride),
            a_stride,
            b,
            b_stride,
            out.add(m4 * out_stride),
            out_stride,
            m - m4,
            k,
            n,
            accumulate,
        );
    }
}

/// Fused pack-and-compute GEMM over the leading `n16` (multiple of 16)
/// columns of `b`. Identical arithmetic (and therefore identical bits) to
/// [`gemm_avx2`]: every output element keeps its ascending-`p` chain.
///
/// The motivation is cache behaviour: for typical layer widths `b_stride`
/// is a 2 KiB stride, so walking a column panel of `b` conflict-misses L1
/// on every reduction step and caps the kernel well below FMA throughput.
/// Each 16-column panel is therefore staged once into contiguous
/// panel-major scratch (`bp[j0*k + p*16 ..][.. 16]`) and all subsequent
/// row tiles stream it at 64 sequential bytes per step.
///
/// The staging is *fused*: the first 4-row tile of each panel has to read
/// the strided panel anyway, so it stores each 16-wide slab to scratch as
/// a side effect — packing costs only stores, never a separate read pass
/// over `b`. Later tiles read the packed panel with a 2-step reduction
/// unroll (`(acc + x_p*b_p) + x_{p+1}*b_{p+1}` — still the ascending
/// chain, just fewer loop-carried dependencies per iteration).
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller); `m >= 4` (the packing tile
/// must exist); `a` must cover `(m-1)*a_stride + k`, `b` must cover
/// `(k-1)*b_stride + n16`, `out` must cover `(m-1)*out_stride + n16`, and
/// `bp` must hold at least `k * n16` elements.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2_packing(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    bp: *mut f32,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n16: usize,
    accumulate: bool,
) {
    debug_assert!(m >= 4, "fused packing needs a full first row tile");
    let mut j = 0usize;
    while j < n16 {
        let panel = bp.add(j * k);
        // Tile 0 (rows 0..4): compute *and* pack the panel.
        {
            let a0 = a;
            let a1 = a.add(a_stride);
            let a2 = a.add(2 * a_stride);
            let a3 = a.add(3 * a_stride);
            let o0 = out.add(j);
            let o1 = out.add(out_stride + j);
            let o2 = out.add(2 * out_stride + j);
            let o3 = out.add(3 * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm256_loadu_ps(o0),
                        _mm256_loadu_ps(o0.add(8)),
                        _mm256_loadu_ps(o1),
                        _mm256_loadu_ps(o1.add(8)),
                        _mm256_loadu_ps(o2),
                        _mm256_loadu_ps(o2.add(8)),
                        _mm256_loadu_ps(o3),
                        _mm256_loadu_ps(o3.add(8)),
                    )
                } else {
                    let z = _mm256_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut pdst = panel;
            for p in 0..k {
                let src = b.add(p * b_stride + j);
                let b0 = _mm256_loadu_ps(src);
                let b1 = _mm256_loadu_ps(src.add(8));
                _mm256_storeu_ps(pdst, b0);
                _mm256_storeu_ps(pdst.add(8), b1);
                pdst = pdst.add(16);
                let x0 = _mm256_set1_ps(*a0.add(p));
                c00 = vmadd(c00, x0, b0);
                c01 = vmadd(c01, x0, b1);
                let x1 = _mm256_set1_ps(*a1.add(p));
                c10 = vmadd(c10, x1, b0);
                c11 = vmadd(c11, x1, b1);
                let x2 = _mm256_set1_ps(*a2.add(p));
                c20 = vmadd(c20, x2, b0);
                c21 = vmadd(c21, x2, b1);
                let x3 = _mm256_set1_ps(*a3.add(p));
                c30 = vmadd(c30, x3, b0);
                c31 = vmadd(c31, x3, b1);
            }
            _mm256_storeu_ps(o0, c00);
            _mm256_storeu_ps(o0.add(8), c01);
            _mm256_storeu_ps(o1, c10);
            _mm256_storeu_ps(o1.add(8), c11);
            _mm256_storeu_ps(o2, c20);
            _mm256_storeu_ps(o2.add(8), c21);
            _mm256_storeu_ps(o3, c30);
            _mm256_storeu_ps(o3.add(8), c31);
        }
        // Remaining full tiles read the packed panel, two reduction steps
        // per iteration.
        let mut i = 4usize;
        while i + 4 <= m {
            let a0 = a.add(i * a_stride);
            let a1 = a.add((i + 1) * a_stride);
            let a2 = a.add((i + 2) * a_stride);
            let a3 = a.add((i + 3) * a_stride);
            let o0 = out.add(i * out_stride + j);
            let o1 = out.add((i + 1) * out_stride + j);
            let o2 = out.add((i + 2) * out_stride + j);
            let o3 = out.add((i + 3) * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm256_loadu_ps(o0),
                        _mm256_loadu_ps(o0.add(8)),
                        _mm256_loadu_ps(o1),
                        _mm256_loadu_ps(o1.add(8)),
                        _mm256_loadu_ps(o2),
                        _mm256_loadu_ps(o2.add(8)),
                        _mm256_loadu_ps(o3),
                        _mm256_loadu_ps(o3.add(8)),
                    )
                } else {
                    let z = _mm256_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut bpr = panel;
            let mut p = 0usize;
            while p + 2 <= k {
                let b0 = _mm256_loadu_ps(bpr);
                let b1 = _mm256_loadu_ps(bpr.add(8));
                let b2 = _mm256_loadu_ps(bpr.add(16));
                let b3 = _mm256_loadu_ps(bpr.add(24));
                let x0 = _mm256_set1_ps(*a0.add(p));
                let y0 = _mm256_set1_ps(*a0.add(p + 1));
                c00 = vmadd(vmadd(c00, x0, b0), y0, b2);
                c01 = vmadd(vmadd(c01, x0, b1), y0, b3);
                let x1 = _mm256_set1_ps(*a1.add(p));
                let y1 = _mm256_set1_ps(*a1.add(p + 1));
                c10 = vmadd(vmadd(c10, x1, b0), y1, b2);
                c11 = vmadd(vmadd(c11, x1, b1), y1, b3);
                let x2 = _mm256_set1_ps(*a2.add(p));
                let y2 = _mm256_set1_ps(*a2.add(p + 1));
                c20 = vmadd(vmadd(c20, x2, b0), y2, b2);
                c21 = vmadd(vmadd(c21, x2, b1), y2, b3);
                let x3 = _mm256_set1_ps(*a3.add(p));
                let y3 = _mm256_set1_ps(*a3.add(p + 1));
                c30 = vmadd(vmadd(c30, x3, b0), y3, b2);
                c31 = vmadd(vmadd(c31, x3, b1), y3, b3);
                bpr = bpr.add(32);
                p += 2;
            }
            if p < k {
                let b0 = _mm256_loadu_ps(bpr);
                let b1 = _mm256_loadu_ps(bpr.add(8));
                let x0 = _mm256_set1_ps(*a0.add(p));
                c00 = vmadd(c00, x0, b0);
                c01 = vmadd(c01, x0, b1);
                let x1 = _mm256_set1_ps(*a1.add(p));
                c10 = vmadd(c10, x1, b0);
                c11 = vmadd(c11, x1, b1);
                let x2 = _mm256_set1_ps(*a2.add(p));
                c20 = vmadd(c20, x2, b0);
                c21 = vmadd(c21, x2, b1);
                let x3 = _mm256_set1_ps(*a3.add(p));
                c30 = vmadd(c30, x3, b0);
                c31 = vmadd(c31, x3, b1);
            }
            _mm256_storeu_ps(o0, c00);
            _mm256_storeu_ps(o0.add(8), c01);
            _mm256_storeu_ps(o1, c10);
            _mm256_storeu_ps(o1.add(8), c11);
            _mm256_storeu_ps(o2, c20);
            _mm256_storeu_ps(o2.add(8), c21);
            _mm256_storeu_ps(o3, c30);
            _mm256_storeu_ps(o3.add(8), c31);
            i += 4;
        }
        while i < m {
            let ar = a.add(i * a_stride);
            let o = out.add(i * out_stride + j);
            let (mut c0, mut c1) = if accumulate {
                (_mm256_loadu_ps(o), _mm256_loadu_ps(o.add(8)))
            } else {
                (_mm256_setzero_ps(), _mm256_setzero_ps())
            };
            let mut bpr = panel;
            for p in 0..k {
                let x = _mm256_set1_ps(*ar.add(p));
                c0 = vmadd(c0, x, _mm256_loadu_ps(bpr));
                c1 = vmadd(c1, x, _mm256_loadu_ps(bpr.add(8)));
                bpr = bpr.add(16);
            }
            _mm256_storeu_ps(o, c0);
            _mm256_storeu_ps(o.add(8), c1);
            i += 1;
        }
        j += 16;
    }
}

/// AVX-512 flavour of [`gemm_avx2_packing`]: 32-column panels, 4x32
/// register tiles (8 `zmm` accumulators). Same fused first-tile packing,
/// same bit-identity argument — a `zmm` lane is still one output column's
/// ascending-`p` chain, and [`vmadd512`] is keyed on the same `fma` `cfg`
/// as the scalar [`madd`]. Doubling the lane count matters on cores with
/// two 512-bit FMA pipes, where the 256-bit kernel leaves half the peak
/// on the table.
///
/// # Safety
///
/// Requires AVX-512F (runtime-detected by the caller); `m >= 4`; same
/// bounds contract as [`gemm_avx2_packing`] with `n32` a multiple of 32.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512_packing(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    bp: *mut f32,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n32: usize,
    accumulate: bool,
) {
    debug_assert!(m >= 4, "fused packing needs a full first row tile");
    let mut j = 0usize;
    while j < n32 {
        let panel = bp.add(j * k);
        // Tile 0 (rows 0..4): compute *and* pack the panel.
        {
            let a0 = a;
            let a1 = a.add(a_stride);
            let a2 = a.add(2 * a_stride);
            let a3 = a.add(3 * a_stride);
            let o0 = out.add(j);
            let o1 = out.add(out_stride + j);
            let o2 = out.add(2 * out_stride + j);
            let o3 = out.add(3 * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm512_loadu_ps(o0),
                        _mm512_loadu_ps(o0.add(16)),
                        _mm512_loadu_ps(o1),
                        _mm512_loadu_ps(o1.add(16)),
                        _mm512_loadu_ps(o2),
                        _mm512_loadu_ps(o2.add(16)),
                        _mm512_loadu_ps(o3),
                        _mm512_loadu_ps(o3.add(16)),
                    )
                } else {
                    let z = _mm512_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut pdst = panel;
            for p in 0..k {
                let src = b.add(p * b_stride + j);
                let b0 = _mm512_loadu_ps(src);
                let b1 = _mm512_loadu_ps(src.add(16));
                _mm512_storeu_ps(pdst, b0);
                _mm512_storeu_ps(pdst.add(16), b1);
                pdst = pdst.add(32);
                let x0 = _mm512_set1_ps(*a0.add(p));
                c00 = vmadd512(c00, x0, b0);
                c01 = vmadd512(c01, x0, b1);
                let x1 = _mm512_set1_ps(*a1.add(p));
                c10 = vmadd512(c10, x1, b0);
                c11 = vmadd512(c11, x1, b1);
                let x2 = _mm512_set1_ps(*a2.add(p));
                c20 = vmadd512(c20, x2, b0);
                c21 = vmadd512(c21, x2, b1);
                let x3 = _mm512_set1_ps(*a3.add(p));
                c30 = vmadd512(c30, x3, b0);
                c31 = vmadd512(c31, x3, b1);
            }
            _mm512_storeu_ps(o0, c00);
            _mm512_storeu_ps(o0.add(16), c01);
            _mm512_storeu_ps(o1, c10);
            _mm512_storeu_ps(o1.add(16), c11);
            _mm512_storeu_ps(o2, c20);
            _mm512_storeu_ps(o2.add(16), c21);
            _mm512_storeu_ps(o3, c30);
            _mm512_storeu_ps(o3.add(16), c31);
        }
        // Remaining full tiles stream the packed panel.
        let mut i = 4usize;
        while i + 4 <= m {
            let a0 = a.add(i * a_stride);
            let a1 = a.add((i + 1) * a_stride);
            let a2 = a.add((i + 2) * a_stride);
            let a3 = a.add((i + 3) * a_stride);
            let o0 = out.add(i * out_stride + j);
            let o1 = out.add((i + 1) * out_stride + j);
            let o2 = out.add((i + 2) * out_stride + j);
            let o3 = out.add((i + 3) * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm512_loadu_ps(o0),
                        _mm512_loadu_ps(o0.add(16)),
                        _mm512_loadu_ps(o1),
                        _mm512_loadu_ps(o1.add(16)),
                        _mm512_loadu_ps(o2),
                        _mm512_loadu_ps(o2.add(16)),
                        _mm512_loadu_ps(o3),
                        _mm512_loadu_ps(o3.add(16)),
                    )
                } else {
                    let z = _mm512_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut bpr = panel;
            for p in 0..k {
                let b0 = _mm512_loadu_ps(bpr);
                let b1 = _mm512_loadu_ps(bpr.add(16));
                let x0 = _mm512_set1_ps(*a0.add(p));
                c00 = vmadd512(c00, x0, b0);
                c01 = vmadd512(c01, x0, b1);
                let x1 = _mm512_set1_ps(*a1.add(p));
                c10 = vmadd512(c10, x1, b0);
                c11 = vmadd512(c11, x1, b1);
                let x2 = _mm512_set1_ps(*a2.add(p));
                c20 = vmadd512(c20, x2, b0);
                c21 = vmadd512(c21, x2, b1);
                let x3 = _mm512_set1_ps(*a3.add(p));
                c30 = vmadd512(c30, x3, b0);
                c31 = vmadd512(c31, x3, b1);
                bpr = bpr.add(32);
            }
            _mm512_storeu_ps(o0, c00);
            _mm512_storeu_ps(o0.add(16), c01);
            _mm512_storeu_ps(o1, c10);
            _mm512_storeu_ps(o1.add(16), c11);
            _mm512_storeu_ps(o2, c20);
            _mm512_storeu_ps(o2.add(16), c21);
            _mm512_storeu_ps(o3, c30);
            _mm512_storeu_ps(o3.add(16), c31);
            i += 4;
        }
        while i < m {
            let ar = a.add(i * a_stride);
            let o = out.add(i * out_stride + j);
            let (mut c0, mut c1) = if accumulate {
                (_mm512_loadu_ps(o), _mm512_loadu_ps(o.add(16)))
            } else {
                (_mm512_setzero_ps(), _mm512_setzero_ps())
            };
            let mut bpr = panel;
            for p in 0..k {
                let x = _mm512_set1_ps(*ar.add(p));
                c0 = vmadd512(c0, x, _mm512_loadu_ps(bpr));
                c1 = vmadd512(c1, x, _mm512_loadu_ps(bpr.add(16)));
                bpr = bpr.add(32);
            }
            _mm512_storeu_ps(o, c0);
            _mm512_storeu_ps(o.add(16), c1);
            i += 1;
        }
        j += 32;
    }
}

/// Scalar column tail shared by the strided kernels: columns `j0..n` of
/// every row, each one ascending-`p` [`madd`] chain.
///
/// # Safety
///
/// Same bounds contract as [`gemm_avx2`].
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_cols_scalar(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    j0: usize,
    n: usize,
    accumulate: bool,
) {
    for i in 0..m {
        for j in j0..n {
            let o = out.add(i * out_stride + j);
            let mut acc = if accumulate { *o } else { 0.0 };
            for p in 0..k {
                acc = madd(acc, *a.add(i * a_stride + p), *b.add(p * b_stride + j));
            }
            *o = acc;
        }
    }
}

/// Most weight rows one [`gemv_avx2`] chunk streams before its column
/// blocks store their chains back to `out`.
const GEMV_ROWS: usize = 16;

/// Floats of `b` one [`gemv_avx2`] chunk may span (16 KiB), so a chunk
/// and the next one it prefetches fit in L1 together.
const GEMV_CHUNK_FLOATS: usize = 4096;

/// Decode-shape strided GEMM for `M < 4` output rows, where no 4-row
/// tile forms: `out[i,j] (+)= sum_p a[i,p] * b[p,j]` in row-streaming
/// (axpy) form. The reduction runs in chunks of up to [`GEMV_ROWS`]
/// weight rows and [`GEMV_CHUNK_FLOATS`] elements; within a chunk each
/// 32-column block broadcasts `a[i,p]` and
/// streams its slice of `b`'s row `p` into register-held output columns,
/// so `b` is read once, row-major, for all `M` rows — the order a
/// hardware prefetcher follows — while `out` is loaded and stored once
/// per chunk. Every lane is one output element's ascending-`p`
/// [`vmadd`] chain, resumed from `out` at each chunk boundary.
///
/// # Safety
///
/// Requires AVX2; same bounds contract as [`gemm_avx2`] with `m = M`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemv_avx2<const M: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let n8 = n - n % 8;
    let chunk = (GEMV_CHUNK_FLOATS / n.max(1)).clamp(1, GEMV_ROWS);
    let mut p0 = 0usize;
    // At least one chunk, so `k = 0` still zeroes a non-accumulating `out`.
    loop {
        let rows = (k - p0).min(chunk);
        let resume = accumulate || p0 > 0;
        let (ap, bp) = (a.add(p0), b.add(p0 * b_stride));
        let mut j = 0usize;
        while j + 32 <= n8 {
            gemv_cols_avx2::<M, 4>(
                ap,
                a_stride,
                bp.add(j),
                b_stride,
                out.add(j),
                out_stride,
                rows,
                chunk,
                resume,
            );
            j += 32;
        }
        while j < n8 {
            gemv_cols_avx2::<M, 1>(
                ap,
                a_stride,
                bp.add(j),
                b_stride,
                out.add(j),
                out_stride,
                rows,
                chunk,
                resume,
            );
            j += 8;
        }
        p0 += rows;
        if p0 >= k {
            break;
        }
    }
    gemm_cols_scalar(a, a_stride, b, b_stride, out, out_stride, M, k, n8, n, accumulate);
}

/// [`gemv_avx2`] for a runtime row count `m < 4` (`m = 0` does nothing).
///
/// # Safety
///
/// Same contract as [`gemv_avx2`] with `M = m`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemv_rows_avx2(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    debug_assert!(m < 4, "decode kernel takes fewer than 4 rows");
    match m {
        1 => gemv_avx2::<1>(a, a_stride, b, b_stride, out, out_stride, k, n, accumulate),
        2 => gemv_avx2::<2>(a, a_stride, b, b_stride, out, out_stride, k, n, accumulate),
        3 => gemv_avx2::<3>(a, a_stride, b, b_stride, out, out_stride, k, n, accumulate),
        _ => {}
    }
}

/// One `M x (8·NB)` register block of [`gemv_avx2`], starting at column 0
/// of the (offset) `b` and `out` pointers; it prefetches its slice of the
/// rows `ahead` rows further down (the next chunk).
///
/// # Safety
///
/// Requires AVX2; `b` and `out` must cover `8·NB` columns of `k` and `M`
/// rows at their strides.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gemv_cols_avx2<const M: usize, const NB: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    k: usize,
    ahead: usize,
    accumulate: bool,
) {
    let mut acc = [[_mm256_setzero_ps(); NB]; M];
    if accumulate {
        for (i, row) in acc.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(out.add(i * out_stride + 8 * c));
            }
        }
    }
    for p in 0..k {
        let b_row = b.add(p * b_stride);
        // Request this block's slice of the next chunk's row now: with
        // weights in DRAM, one core's read rate is set by the misses in
        // flight. A hint past the end of `b` is harmless (no fault).
        for c in (0..NB).step_by(2) {
            let next = b_row.wrapping_add(ahead * b_stride + 8 * c);
            _mm_prefetch::<_MM_HINT_T0>(next.cast::<i8>());
        }
        let mut bv = [_mm256_setzero_ps(); NB];
        for (c, v) in bv.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(b_row.add(8 * c));
        }
        for (i, row) in acc.iter_mut().enumerate() {
            let x = _mm256_set1_ps(*a.add(i * a_stride + p));
            for (v, &bc) in row.iter_mut().zip(&bv) {
                *v = vmadd(*v, x, bc);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            _mm256_storeu_ps(out.add(i * out_stride + 8 * c), v);
        }
    }
}

/// In-register 8x8 transpose: `rows[t]` lane `s` becomes `cols[s]` lane
/// `t` (unpack, 64-bit unpack, 128-bit lane permute — 24 shuffles).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(rows: &[__m256; 8]) -> [__m256; 8] {
    let mut t = [_mm256_setzero_ps(); 8];
    for q in 0..4 {
        t[2 * q] = _mm256_unpacklo_ps(rows[2 * q], rows[2 * q + 1]);
        t[2 * q + 1] = _mm256_unpackhi_ps(rows[2 * q], rows[2 * q + 1]);
    }
    // u[4g + c]: rows 4g..4g+4 of columns c and 4 + c (one per 128-bit half).
    let mut u = [_mm256_setzero_ps(); 8];
    for g in 0..2 {
        let (lo, hi) = (_mm256_castps_pd(t[4 * g]), _mm256_castps_pd(t[4 * g + 2]));
        let (lo1, hi1) = (_mm256_castps_pd(t[4 * g + 1]), _mm256_castps_pd(t[4 * g + 3]));
        u[4 * g] = _mm256_castpd_ps(_mm256_unpacklo_pd(lo, hi));
        u[4 * g + 1] = _mm256_castpd_ps(_mm256_unpackhi_pd(lo, hi));
        u[4 * g + 2] = _mm256_castpd_ps(_mm256_unpacklo_pd(lo1, hi1));
        u[4 * g + 3] = _mm256_castpd_ps(_mm256_unpackhi_pd(lo1, hi1));
    }
    let mut cols = [_mm256_setzero_ps(); 8];
    for c in 0..4 {
        cols[c] = _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]);
        cols[4 + c] = _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]);
    }
    cols
}

/// Decode-shape transposed product for `M < 4` rows:
/// `out[i*n + j] = scale * sum_p a[i,p] * b[j,p]`. Reads `b`'s rows
/// contiguously eight at a time, transposes each 8x8 tile in registers
/// and keeps one ascending-`p` [`vmadd`] chain per output lane — no
/// `k·n` pack, and each weight row is streamed once for all `M` rows.
///
/// # Safety
///
/// Requires AVX2; `a` must cover `(M-1)*a_stride + k`, `b` must cover
/// `(n-1)*b_stride + k`, `out` must cover `M*n`; `n >= 1`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemv_t_avx2<const M: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    scale: f32,
    out: *mut f32,
    k: usize,
    n: usize,
) {
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let tail_mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((k % 8) as i32), lane);
    let sv = _mm256_set1_ps(scale);
    let mut j = 0usize;
    while j < n {
        let nr = (n - j).min(8);
        // Lanes past `n` re-read the last real row; they are never stored.
        let mut rp = [b; 8];
        for (t, r) in rp.iter_mut().enumerate() {
            *r = b.add((j + t.min(nr - 1)) * b_stride);
        }
        let mut acc = [_mm256_setzero_ps(); M];
        let mut p = 0usize;
        while p + 8 <= k {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (v, r) in rows.iter_mut().zip(&rp) {
                *v = _mm256_loadu_ps(r.add(p));
            }
            let cols = transpose8(&rows);
            for (s, &col) in cols.iter().enumerate() {
                for (i, v) in acc.iter_mut().enumerate() {
                    *v = vmadd(*v, _mm256_set1_ps(*a.add(i * a_stride + p + s)), col);
                }
            }
            p += 8;
        }
        if p < k {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (v, r) in rows.iter_mut().zip(&rp) {
                *v = _mm256_maskload_ps(r.add(p), tail_mask);
            }
            let cols = transpose8(&rows);
            for (s, &col) in cols[..k - p].iter().enumerate() {
                for (i, v) in acc.iter_mut().enumerate() {
                    *v = vmadd(*v, _mm256_set1_ps(*a.add(i * a_stride + p + s)), col);
                }
            }
        }
        for (i, &v) in acc.iter().enumerate() {
            let o = out.add(i * n + j);
            let r = _mm256_mul_ps(v, sv);
            if nr == 8 {
                _mm256_storeu_ps(o, r);
            } else {
                let mut lanes = [0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), r);
                core::ptr::copy_nonoverlapping(lanes.as_ptr(), o, nr);
            }
        }
        j += 8;
    }
}

/// In-register 16x16 transpose: `rows[t]` lane `s` becomes `cols[s]` lane
/// `t` (two unpack rounds within 128-bit lanes, then two 128-bit lane
/// shuffle rounds — 64 shuffles).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose16(rows: &[__m512; 16]) -> [__m512; 16] {
    let mut t = [_mm512_setzero_ps(); 16];
    for q in 0..8 {
        t[2 * q] = _mm512_unpacklo_ps(rows[2 * q], rows[2 * q + 1]);
        t[2 * q + 1] = _mm512_unpackhi_ps(rows[2 * q], rows[2 * q + 1]);
    }
    // u[4g + c]: rows 4g..4g+4 of columns c, 4+c, 8+c, 12+c (one per
    // 128-bit lane).
    let mut u = [_mm512_setzero_ps(); 16];
    for g in 0..4 {
        let (lo, hi) = (_mm512_castps_pd(t[4 * g]), _mm512_castps_pd(t[4 * g + 2]));
        let (lo1, hi1) = (_mm512_castps_pd(t[4 * g + 1]), _mm512_castps_pd(t[4 * g + 3]));
        u[4 * g] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi));
        u[4 * g + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi));
        u[4 * g + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo1, hi1));
        u[4 * g + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo1, hi1));
    }
    let mut cols = [_mm512_setzero_ps(); 16];
    for c in 0..4 {
        // [rows 0-3 | rows 4-7] (resp. rows 8-15) of columns c, 8+c
        // (`even`) and 4+c, 12+c (`odd`).
        let even01 = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
        let odd01 = _mm512_shuffle_f32x4::<0xdd>(u[c], u[4 + c]);
        let even23 = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
        let odd23 = _mm512_shuffle_f32x4::<0xdd>(u[8 + c], u[12 + c]);
        cols[c] = _mm512_shuffle_f32x4::<0x88>(even01, even23);
        cols[8 + c] = _mm512_shuffle_f32x4::<0xdd>(even01, even23);
        cols[4 + c] = _mm512_shuffle_f32x4::<0x88>(odd01, odd23);
        cols[12 + c] = _mm512_shuffle_f32x4::<0xdd>(odd01, odd23);
    }
    cols
}

/// AVX-512 flavour of [`gemv_t_avx2`]: sixteen `b` rows per tile, a
/// 16x16 in-register transpose, masked loads for the `k % 16` tail and a
/// masked store for the `n % 16` tail. Same chains, same bits.
///
/// # Safety
///
/// Requires AVX-512F (runtime-detected by the caller); same bounds
/// contract as [`gemv_t_avx2`].
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn gemv_t_avx512<const M: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    scale: f32,
    out: *mut f32,
    k: usize,
    n: usize,
) {
    let tail_mask: __mmask16 = (1u16 << (k % 16)).wrapping_sub(1);
    let sv = _mm512_set1_ps(scale);
    let mut j = 0usize;
    while j < n {
        let nr = (n - j).min(16);
        // Lanes past `n` re-read the last real row; they are never stored.
        let mut rp = [b; 16];
        for (t, r) in rp.iter_mut().enumerate() {
            *r = b.add((j + t.min(nr - 1)) * b_stride);
        }
        let mut acc = [_mm512_setzero_ps(); M];
        let mut p = 0usize;
        while p + 16 <= k {
            let mut rows = [_mm512_setzero_ps(); 16];
            for (v, r) in rows.iter_mut().zip(&rp) {
                *v = _mm512_loadu_ps(r.add(p));
            }
            let cols = transpose16(&rows);
            for (s, &col) in cols.iter().enumerate() {
                for (i, v) in acc.iter_mut().enumerate() {
                    *v = vmadd512(*v, _mm512_set1_ps(*a.add(i * a_stride + p + s)), col);
                }
            }
            p += 16;
        }
        if p < k {
            let mut rows = [_mm512_setzero_ps(); 16];
            for (v, r) in rows.iter_mut().zip(&rp) {
                *v = _mm512_maskz_loadu_ps(tail_mask, r.add(p));
            }
            let cols = transpose16(&rows);
            for (s, &col) in cols[..k - p].iter().enumerate() {
                for (i, v) in acc.iter_mut().enumerate() {
                    *v = vmadd512(*v, _mm512_set1_ps(*a.add(i * a_stride + p + s)), col);
                }
            }
        }
        let store_mask: __mmask16 = if nr == 16 { !0 } else { (1u16 << nr) - 1 };
        for (i, &v) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(out.add(i * n + j), store_mask, _mm512_mul_ps(v, sv));
        }
        j += 16;
    }
}

/// The decode-shape transposed product for a runtime row count
/// `1 <= m < 4`: [`gemv_t_avx512`] when the host has AVX-512F, else
/// [`gemv_t_avx2`].
///
/// # Safety
///
/// Requires AVX2; same bounds contract as [`gemv_t_avx2`] with `M = m`.
#[allow(clippy::too_many_arguments)]
unsafe fn gemv_t_rows(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    scale: f32,
    out: *mut f32,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!((1..4).contains(&m), "decode kernel takes 1 to 3 rows");
    if std::arch::is_x86_feature_detected!("avx512f") {
        match m {
            1 => gemv_t_avx512::<1>(a, a_stride, b, b_stride, scale, out, k, n),
            2 => gemv_t_avx512::<2>(a, a_stride, b, b_stride, scale, out, k, n),
            _ => gemv_t_avx512::<3>(a, a_stride, b, b_stride, scale, out, k, n),
        }
    } else {
        match m {
            1 => gemv_t_avx2::<1>(a, a_stride, b, b_stride, scale, out, k, n),
            2 => gemv_t_avx2::<2>(a, a_stride, b, b_stride, scale, out, k, n),
            _ => gemv_t_avx2::<3>(a, a_stride, b, b_stride, scale, out, k, n),
        }
    }
}

/// `row *= scale` — one correctly-rounded multiply per element, matching
/// the scalar path's final `acc * scale`.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn scale_inplace_avx2(row: &mut [f32], scale: f32) {
    let s = _mm256_set1_ps(scale);
    let p = row.as_mut_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), s));
        i += 8;
    }
    while i < len {
        *p.add(i) *= scale;
        i += 1;
    }
}

/// Widening int8 matmul: exact i32 accumulation, eight columns per step.
///
/// # Safety
///
/// Requires AVX2; slice bounds are asserted by the safe wrapper.
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_avx2(a: *const i8, b: *const i8, out: *mut i32, m: usize, k: usize, n: usize) {
    for i in 0..m {
        let o_row = out.add(i * n);
        core::ptr::write_bytes(o_row, 0, n);
        for p in 0..k {
            let x = i32::from(*a.add(i * k + p));
            if x == 0 {
                continue; // exact: adding zero terms is a no-op for integers
            }
            let xv = _mm256_set1_epi32(x);
            let b_row = b.add(p * n);
            let mut j = 0usize;
            while j + 8 <= n {
                let b8 = _mm_loadl_epi64(b_row.add(j).cast::<__m128i>());
                let bv = _mm256_cvtepi8_epi32(b8);
                let o = o_row.add(j).cast::<__m256i>();
                let sum = _mm256_add_epi32(_mm256_loadu_si256(o), _mm256_mullo_epi32(xv, bv));
                _mm256_storeu_si256(o, sum);
                j += 8;
            }
            while j < n {
                *o_row.add(j) += x * i32::from(*b_row.add(j));
                j += 1;
            }
        }
    }
}

/// Vectorized max-reduction. Max over finite values is associative and
/// commutative, so lane order does not affect the result the softmax
/// subtracts.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn row_max_avx2(row: &[f32]) -> f32 {
    let len = row.len();
    let p = row.as_ptr();
    let mut best = f32::NEG_INFINITY;
    let mut i = 0usize;
    if len >= 8 {
        let mut acc = _mm256_loadu_ps(p);
        i = 8;
        while i + 8 <= len {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        best = lanes.iter().copied().fold(best, f32::max);
    }
    while i < len {
        best = best.max(*p.add(i));
        i += 1;
    }
    best
}

/// `row /= denom` — one IEEE divide per element.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn div_inplace_avx2(row: &mut [f32], denom: f32) {
    let d = _mm256_set1_ps(denom);
    let p = row.as_mut_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), d));
        i += 8;
    }
    while i < len {
        *p.add(i) /= denom;
        i += 1;
    }
}

/// LayerNorm apply: `v = (v - mean) * inv_std * gamma + beta` with the
/// scalar operation order — explicit sub/mul/mul/add, deliberately *not*
/// fused, because the scalar expression rounds after each step.
///
/// # Safety
///
/// Requires AVX2; `gamma`/`beta` at least as long as `row` (asserted by
/// the wrapper).
#[target_feature(enable = "avx2")]
unsafe fn norm_apply_avx2(row: &mut [f32], mean: f32, inv_std: f32, gamma: &[f32], beta: &[f32]) {
    let mv = _mm256_set1_ps(mean);
    let iv = _mm256_set1_ps(inv_std);
    let p = row.as_mut_ptr();
    let g = gamma.as_ptr();
    let bt = beta.as_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        let x = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv);
        let scaled = _mm256_mul_ps(_mm256_mul_ps(x, iv), _mm256_loadu_ps(g.add(i)));
        _mm256_storeu_ps(p.add(i), _mm256_add_ps(scaled, _mm256_loadu_ps(bt.add(i))));
        i += 8;
    }
    while i < len {
        *p.add(i) = (*p.add(i) - mean) * inv_std * *g.add(i) + *bt.add(i);
        i += 1;
    }
}

/// RMSNorm apply: `v = v * inv_rms * gamma`, two multiplies per element in
/// scalar order.
///
/// # Safety
///
/// Requires AVX2; `gamma` at least as long as `row`.
#[target_feature(enable = "avx2")]
unsafe fn rms_apply_avx2(row: &mut [f32], inv_rms: f32, gamma: &[f32]) {
    let iv = _mm256_set1_ps(inv_rms);
    let p = row.as_mut_ptr();
    let g = gamma.as_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        let x = _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), iv);
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(x, _mm256_loadu_ps(g.add(i))));
        i += 8;
    }
    while i < len {
        *p.add(i) = *p.add(i) * inv_rms * *g.add(i);
        i += 1;
    }
}

// The argument list mirrors `Backend::gemm_strided`'s (slice, stride)
// pairs; bundling them into a struct would obscure the 1:1 mapping.
#[allow(clippy::too_many_arguments)]
fn check_gemm_bounds(
    a_len: usize,
    a_stride: usize,
    b_len: usize,
    b_stride: usize,
    out_len: usize,
    out_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(a_stride >= k && b_stride >= n && out_stride >= n, "gemm strides below row widths");
    assert!(
        a_len >= (m - 1) * a_stride + k
            && (k == 0 || b_len >= (k - 1) * b_stride + n)
            && out_len >= (m - 1) * out_stride + n,
        "gemm operand slices too short for {m}x{k}x{n}"
    );
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn matmul_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.gemm_strided(a, k, b, n, out, n, m, k, n, false);
    }

    fn matmul_t_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.scaled_dot_t(a, k, b, k, 1.0, out, m, k, n);
    }

    fn gemm_strided(
        &self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        out: &mut [f32],
        out_stride: usize,
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        check_gemm_bounds(a.len(), a_stride, b.len(), b_stride, out.len(), out_stride, m, k, n);
        if m == 0 || n == 0 {
            return;
        }
        if m < 4 {
            // Decode shapes form no 4-row tile: stream `b` row by row.
            // SAFETY: AVX2 by construction; bounds asserted above.
            unsafe {
                gemv_rows_avx2(
                    a.as_ptr(),
                    a_stride,
                    b.as_ptr(),
                    b_stride,
                    out.as_mut_ptr(),
                    out_stride,
                    m,
                    k,
                    n,
                    accumulate,
                );
            }
            return;
        }
        // With enough output rows to amortize the O(k*n) copy, pack `b`
        // into panel-major scratch so the hot loop streams it sequentially
        // (identical chains, identical bits — only the addressing order of
        // loads changes). Fewer rows get too little reuse out of packing,
        // so they take the direct-stride kernel.
        let n16 = n - n % 16;
        if m >= 8 && k > 0 && n16 > 0 {
            // Leading 32-column panels go to the AVX-512 tile when the
            // host has it (the detection macro caches after first use).
            let n32 = n - n % 32;
            let start16 = if n32 > 0 && std::arch::is_x86_feature_detected!("avx512f") {
                with_scratch(k * n32, |bpack| {
                    // SAFETY: AVX-512F detected just above; bounds asserted
                    // above, `bpack` is exactly `k * n32`, and `m >= 8 >= 4`.
                    unsafe {
                        gemm_avx512_packing(
                            a.as_ptr(),
                            a_stride,
                            b.as_ptr(),
                            b_stride,
                            bpack.as_mut_ptr(),
                            out.as_mut_ptr(),
                            out_stride,
                            m,
                            k,
                            n32,
                            accumulate,
                        );
                    }
                });
                n32
            } else {
                0
            };
            if start16 < n16 {
                with_scratch(k * (n16 - start16), |bpack| {
                    // SAFETY: AVX2 by construction; bounds asserted above,
                    // `bpack` is exactly `k * (n16 - start16)`, and
                    // `m >= 8 >= 4`. The column-offset views stay inside
                    // the asserted bounds.
                    unsafe {
                        gemm_avx2_packing(
                            a.as_ptr(),
                            a_stride,
                            b.as_ptr().add(start16),
                            b_stride,
                            bpack.as_mut_ptr(),
                            out.as_mut_ptr().add(start16),
                            out_stride,
                            m,
                            k,
                            n16 - start16,
                            accumulate,
                        );
                    }
                });
            }
            if n16 < n {
                // SAFETY: AVX2 by construction; the column-offset views
                // stay inside the bounds asserted above.
                unsafe {
                    gemm_avx2(
                        a.as_ptr(),
                        a_stride,
                        b.as_ptr().add(n16),
                        b_stride,
                        out.as_mut_ptr().add(n16),
                        out_stride,
                        m,
                        k,
                        n - n16,
                        accumulate,
                    );
                }
            }
            return;
        }
        // SAFETY: AVX2 is guaranteed by construction of `SimdBackend`, and
        // the bounds check above covers every address the kernel forms.
        unsafe {
            gemm_avx2(
                a.as_ptr(),
                a_stride,
                b.as_ptr(),
                b_stride,
                out.as_mut_ptr(),
                out_stride,
                m,
                k,
                n,
                accumulate,
            );
        }
    }

    fn scaled_dot_t(
        &self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        scale: f32,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 {
            return;
        }
        assert!(a_stride >= k && b_stride >= k, "scaled_dot_t strides below k");
        assert!(
            a.len() >= (m - 1) * a_stride + k
                && b.len() >= (n - 1) * b_stride + k
                && out.len() >= m * n,
            "scaled_dot_t operand slices too short for {m}x{k}x{n}"
        );
        if m < 4 {
            // Decode shapes: a pack would move as much as the product
            // computes, so transpose `b` in registers instead.
            // SAFETY: AVX2 by construction; bounds asserted above.
            unsafe {
                gemv_t_rows(
                    a.as_ptr(),
                    a_stride,
                    b.as_ptr(),
                    b_stride,
                    scale,
                    out.as_mut_ptr(),
                    m,
                    k,
                    n,
                );
            }
            return;
        }
        // Pack b^T once (k*n moves against m*k*n multiply-adds): bt[p, j]
        // = b[j, p]. The f32 GEMM then streams it — and re-dispatches
        // onto the panel-packed kernel when `m` is large enough to
        // amortize it (prefill/attention shapes).
        with_scratch(k * n, |bt| {
            for j in 0..n {
                let b_row = &b[j * b_stride..][..k];
                for (p, &v) in b_row.iter().enumerate() {
                    bt[p * n + j] = v;
                }
            }
            self.gemm_strided(a, a_stride, bt, n, out, n, m, k, n, false);
        });
        if scale != 1.0 {
            // SAFETY: AVX2 by construction.
            unsafe { scale_inplace_avx2(&mut out[..m * n], scale) };
        }
    }

    fn matmul_f16(&self, a: &[F16], b: &[F16], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "f16 matmul operand slices too short for {m}x{k}x{n}"
        );
        if m == 0 || n == 0 {
            return;
        }
        // Widen both operands exactly into f32 scratch, then reuse the f32
        // GEMM — identical ascending-`p` chains to the scalar f16 kernel.
        with_scratch(m * k, |a32| {
            for (dst, src) in a32.iter_mut().zip(a) {
                *dst = src.to_f32();
            }
            with_scratch(k * n, |b32| {
                for (dst, src) in b32.iter_mut().zip(b) {
                    *dst = src.to_f32();
                }
                // SAFETY: AVX2 by construction; scratch is sized exactly.
                unsafe {
                    gemm_avx2(
                        a32.as_ptr(),
                        k,
                        b32.as_ptr(),
                        n,
                        out.as_mut_ptr(),
                        n,
                        m,
                        k,
                        n,
                        false,
                    );
                }
            });
        });
    }

    fn matmul_i8_i32(&self, a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "i8 matmul operand slices too short for {m}x{k}x{n}"
        );
        // SAFETY: AVX2 by construction; bounds asserted above.
        unsafe {
            matmul_i8_avx2(a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), m, k, n);
        }
    }

    fn row_max(&self, row: &[f32]) -> f32 {
        // SAFETY: AVX2 by construction; operates on the slice directly.
        unsafe { row_max_avx2(row) }
    }

    fn div_inplace(&self, row: &mut [f32], denom: f32) {
        // SAFETY: AVX2 by construction.
        unsafe { div_inplace_avx2(row, denom) }
    }

    fn norm_apply(&self, row: &mut [f32], mean: f32, inv_std: f32, gamma: &[f32], beta: &[f32]) {
        assert!(
            gamma.len() >= row.len() && beta.len() >= row.len(),
            "norm params shorter than row"
        );
        // SAFETY: AVX2 by construction; param bounds asserted above.
        unsafe { norm_apply_avx2(row, mean, inv_std, gamma, beta) }
    }

    fn rms_apply(&self, row: &mut [f32], inv_rms: f32, gamma: &[f32]) {
        assert!(gamma.len() >= row.len(), "rms gamma shorter than row");
        // SAFETY: AVX2 by construction; param bounds asserted above.
        unsafe { rms_apply_avx2(row, inv_rms, gamma) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScalarBackend;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-mixed, magnitude-varied values.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed);
                (x as f32 / u32::MAX as f32 - 0.5) * (1.0 + (i % 7) as f32)
            })
            .collect()
    }

    // Edge-heavy size set: exercises 16-panels, the 8-panel tail, scalar
    // column tails, and 4-row/1-row boundaries.
    const SIZES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 0, 5),
        (3, 7, 5),
        (4, 8, 8),
        (5, 16, 17),
        (8, 32, 16),
        (2, 5, 23),
        (7, 33, 40),
        (9, 12, 31),
        (16, 24, 64),
        (12, 10, 55),
        (8, 17, 96),
    ];

    /// [`SIZES`] plus the decode shapes (`m < 4`, no 4-row tile) at
    /// model-sized reductions, covering every row, column and reduction
    /// tail of the GEMV kernels.
    fn sizes() -> impl Iterator<Item = (usize, usize, usize)> {
        let decode = [1, 2, 3].into_iter().flat_map(|m| {
            [64, 100, 512]
                .into_iter()
                .flat_map(move |k| [17, 64, 256, 1000].into_iter().map(move |n| (m, k, n)))
        });
        SIZES.iter().copied().chain(decode)
    }

    #[test]
    #[ignore = "manual perf probe"]
    fn perf_probe() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let (m, k, n) = (64usize, 512usize, 512usize);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        let mut bpack = vec![0.0f32; k * n];
        let reps = 50;
        let gmac = (m * k * n) as f64 / 1e9;
        // Best-of-N: robust against contention spikes on shared hosts.
        let best = |mut f: Box<dyn FnMut() + '_>| {
            let mut lo = f64::INFINITY;
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                f();
                lo = lo.min(t0.elapsed().as_secs_f64() * 1e6);
            }
            lo
        };

        let (ap, bp, op, bpp) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), bpack.as_mut_ptr());
        let fused_us = best(Box::new(|| unsafe {
            gemm_avx2_packing(ap, k, bp, n, bpp, op, n, m, k, n, false);
        }));
        let direct_us = best(Box::new(|| unsafe {
            gemm_avx2(ap, k, bp, n, op, n, m, k, n, false);
        }));
        let full_us = best(Box::new(|| simd.matmul_f32(&a, &b, &mut out, m, k, n)));

        println!(
            "fused gemm {fused_us:.0}us ({:.1} GMAC/s) | direct gemm {direct_us:.0}us ({:.1} GMAC/s) | full {full_us:.0}us",
            gmac / (fused_us / 1e6),
            gmac / (direct_us / 1e6),
        );
    }

    #[test]
    fn simd_matmul_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for (m, k, n) in sizes() {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![9.0f32; m * n];
            scalar.matmul_f32(&a, &b, &mut want, m, k, n);
            simd.matmul_f32(&a, &b, &mut got, m, k, n);
            assert_eq!(got, want, "matmul {m}x{k}x{n}");

            let bt = fill(n * k, 3);
            let mut want_t = vec![0.0f32; m * n];
            let mut got_t = vec![9.0f32; m * n];
            scalar.matmul_t_f32(&a, &bt, &mut want_t, m, k, n);
            simd.matmul_t_f32(&a, &bt, &mut got_t, m, k, n);
            assert_eq!(got_t, want_t, "matmul_t {m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_strided_gemm_and_scaled_dot_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for (m, k, n) in sizes() {
            // Embed operands in wider slabs to exercise real strides.
            let (a_stride, b_stride, o_stride) = (k + 3, n + 5, n + 2);
            let a = fill(m.max(1) * a_stride, 4);
            let b = fill(k.max(1) * b_stride, 5);
            let base = fill(m.max(1) * o_stride, 6);
            for accumulate in [false, true] {
                let mut want = base.clone();
                let mut got = base.clone();
                scalar.gemm_strided(
                    &a, a_stride, &b, b_stride, &mut want, o_stride, m, k, n, accumulate,
                );
                simd.gemm_strided(
                    &a, a_stride, &b, b_stride, &mut got, o_stride, m, k, n, accumulate,
                );
                assert_eq!(got, want, "gemm_strided {m}x{k}x{n} acc={accumulate}");
            }

            let bt = fill(n.max(1) * (k + 2), 7);
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![0.0f32; m * n];
            scalar.scaled_dot_t(&a, a_stride, &bt, k + 2, 0.125, &mut want, m, k, n);
            simd.scaled_dot_t(&a, a_stride, &bt, k + 2, 0.125, &mut got, m, k, n);
            assert_eq!(got, want, "scaled_dot_t {m}x{k}x{n}");
        }
    }

    /// Runs one transposed decode kernel variant directly, bypassing the
    /// runtime AVX-512 selection.
    #[allow(clippy::too_many_arguments)]
    fn gemv_t_variant(
        avx512: bool,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert!(a.len() >= (m - 1) * a_stride + k && b.len() >= (n - 1) * b_stride + k);
        assert!(out.len() >= m * n);
        let (a, b, o) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        // SAFETY: the caller checked the host features; bounds asserted
        // above.
        unsafe {
            match (avx512, m) {
                (false, 1) => gemv_t_avx2::<1>(a, a_stride, b, b_stride, 0.5, o, k, n),
                (false, 2) => gemv_t_avx2::<2>(a, a_stride, b, b_stride, 0.5, o, k, n),
                (false, _) => gemv_t_avx2::<3>(a, a_stride, b, b_stride, 0.5, o, k, n),
                (true, 1) => gemv_t_avx512::<1>(a, a_stride, b, b_stride, 0.5, o, k, n),
                (true, 2) => gemv_t_avx512::<2>(a, a_stride, b, b_stride, 0.5, o, k, n),
                (true, _) => gemv_t_avx512::<3>(a, a_stride, b, b_stride, 0.5, o, k, n),
            }
        }
    }

    #[test]
    fn decode_kernel_variants_bit_identical_to_scalar() {
        if SimdBackend::try_new().is_none() {
            return;
        }
        // An AVX-512 host still checks the AVX2 kernel it never selects.
        let mut variants = vec![false];
        if std::arch::is_x86_feature_detected!("avx512f") {
            variants.push(true);
        }
        let scalar = ScalarBackend;
        for (m, k, n) in sizes().filter(|&(m, _, _)| m < 4) {
            let (a_stride, b_stride) = (k + 3, k + 1);
            let a = fill(m * a_stride, 31);
            let b = fill(n * b_stride, 32);
            let mut want = vec![0.0f32; m * n];
            scalar.scaled_dot_t(&a, a_stride, &b, b_stride, 0.5, &mut want, m, k, n);
            for &avx512 in &variants {
                let mut got = vec![9.0f32; m * n];
                gemv_t_variant(avx512, &a, a_stride, &b, b_stride, &mut got, m, k, n);
                assert_eq!(got, want, "gemv_t avx512={avx512} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn simd_f16_and_i8_matmul_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for (m, k, n) in sizes() {
            let a16: Vec<F16> = fill(m * k, 8).into_iter().map(F16::from_f32).collect();
            let b16: Vec<F16> = fill(k * n, 9).into_iter().map(F16::from_f32).collect();
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![9.0f32; m * n];
            scalar.matmul_f16(&a16, &b16, &mut want, m, k, n);
            simd.matmul_f16(&a16, &b16, &mut got, m, k, n);
            assert_eq!(got, want, "f16 matmul {m}x{k}x{n}");

            let a8: Vec<i8> = fill(m * k, 10).iter().map(|v| (v * 40.0) as i8).collect();
            let b8: Vec<i8> = fill(k * n, 11).iter().map(|v| (v * 40.0) as i8).collect();
            let mut want_i = vec![0i32; m * n];
            let mut got_i = vec![7i32; m * n];
            scalar.matmul_i8_i32(&a8, &b8, &mut want_i, m, k, n);
            simd.matmul_i8_i32(&a8, &b8, &mut got_i, m, k, n);
            assert_eq!(got_i, want_i, "i8 matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_elementwise_helpers_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let base = fill(len, 12);
            let gamma = fill(len, 13);
            let beta = fill(len, 14);

            assert_eq!(simd.row_max(&base), scalar.row_max(&base), "row_max len={len}");

            let mut a = base.clone();
            let mut b = base.clone();
            scalar.div_inplace(&mut a, 3.7);
            simd.div_inplace(&mut b, 3.7);
            assert_eq!(a, b, "div len={len}");

            let mut a = base.clone();
            let mut b = base.clone();
            scalar.norm_apply(&mut a, 0.21, 1.9, &gamma, &beta);
            simd.norm_apply(&mut b, 0.21, 1.9, &gamma, &beta);
            assert_eq!(a, b, "norm len={len}");

            let mut a = base.clone();
            let mut b = base;
            scalar.rms_apply(&mut a, 0.83, &gamma);
            simd.rms_apply(&mut b, 0.83, &gamma);
            assert_eq!(a, b, "rms len={len}");
        }
    }
}
