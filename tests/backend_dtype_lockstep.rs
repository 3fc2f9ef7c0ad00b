//! Lockstep and error-bound suite for the backend/dtype layer (PR 8):
//!
//! 1. **Backend bit-identity** — every available [`mtp::tensor::Backend`]
//!    (the scalar fallback, and the SIMD backend where the host supports
//!    it) produces bit-identical f32 GEMM results to the retained naive
//!    triple loops, over arbitrary shapes including the vector-width tail
//!    mixes.
//! 2. **f16 error bounds** — the half-precision matmul is bit-identical
//!    to an f32 matmul of the *rounded* operands (widening is exact and
//!    the accumulation chains are shared), and its deviation from the
//!    unrounded f32 product stays inside the analytic representation
//!    bound, asserted per output element.
//! 3. **int8 error bounds** — symmetric quantization round-trips within
//!    half a quantization step, saturates exactly at the ±127 codes, and
//!    the i32-accumulated integer matmul lands within the analytic
//!    quantization-noise bound of the f32 product.
//! 4. **Workspace alias/reuse** — over arbitrary acquire/release
//!    interleavings no two live scratch buffers overlap, and in steady
//!    state (a warmed pool seeing a repeating size mix) the allocation
//!    count is pinned while acquisitions keep climbing — including when
//!    driven through the real backend-dispatched kernels.

use mtp::tensor::{
    dequantize, naive, quantize_symmetric, reset_thread_workspace, thread_workspace_stats, Backend,
    ScalarBackend, Shape, Tensor, Workspace,
};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix in [-1, 1] with exact zeros
/// sprinkled in (same generator family as `perf_lockstep.rs`).
fn tensor_with_zeros(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(Shape::mat(rows, cols), |(r, c)| {
        let mut z =
            seed.wrapping_add(r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        if z.is_multiple_of(7) {
            0.0
        } else {
            ((z >> 40) as f32 / (1 << 24) as f32) * 2.0 - 1.0
        }
    })
}

/// Every backend reachable on this host, with its name for diagnostics.
fn all_backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    let mut backends: Vec<(&'static str, Box<dyn Backend>)> =
        vec![("scalar", Box::new(ScalarBackend))];
    #[cfg(target_arch = "x86_64")]
    if let Some(simd) = mtp::tensor::SimdBackend::try_new() {
        backends.push(("simd", Box::new(simd)));
    }
    backends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// f32 GEMM bit-identity: every backend == naive, for matmul and
    /// matmul_t, across shapes covering zmm/ymm panels and scalar tails.
    #[test]
    fn prop_every_backend_bit_matches_naive(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..70,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(1));
        let bt = tensor_with_zeros(n, k, seed.wrapping_add(2));
        let golden = naive::matmul(&a, &b).unwrap();
        let golden_t = naive::matmul_t(&a, &bt).unwrap();
        for (name, be) in all_backends() {
            let mut out = vec![f32::NAN; m * n];
            be.matmul_f32(a.as_slice(), b.as_slice(), &mut out, m, k, n);
            for (i, (x, y)) in out.iter().zip(golden.as_slice()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} matmul elem {}", name, i);
            }
            let mut out_t = vec![f32::NAN; m * n];
            be.matmul_t_f32(a.as_slice(), bt.as_slice(), &mut out_t, m, k, n);
            for (i, (x, y)) in out_t.iter().zip(golden_t.as_slice()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} matmul_t elem {}", name, i);
            }
        }
    }

    /// f16 matmul: bit-identical to the f32 product of the rounded
    /// operands, and within the analytic representation bound of the
    /// unrounded product.
    #[test]
    fn prop_f16_matmul_bit_exact_on_rounded_and_bounded_vs_f32(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(3));
        let (ah, bh) = (a.to_f16(), b.to_f16());
        let half = ah.try_matmul(&bh).unwrap();
        // Bit-identity leg: widening is exact, so the f16 matmul must
        // equal the f32 matmul of the widened (rounded) operands bit for
        // bit — same kernels, same chains.
        let rounded = naive::matmul(&ah.to_f32_tensor(), &bh.to_f32_tensor()).unwrap();
        for (i, (x, y)) in half.as_slice().iter().zip(rounded.as_slice()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "f16 vs rounded-f32 elem {}", i);
        }
        // Error-bound leg: each operand rounds with relative error at
        // most 2^-11, so each product term errs by ~2*2^-11 relative;
        // bound the output error by that factor of the absolute-value
        // product (plus f32 accumulation slack).
        let exact = naive::matmul(&a, &b).unwrap();
        let abs_a = Tensor::from_fn(a.shape(), |(r, c)| a.at(r, c).abs());
        let abs_b = Tensor::from_fn(b.shape(), |(r, c)| b.at(r, c).abs());
        let abs_dot = naive::matmul(&abs_a, &abs_b).unwrap();
        for (i, (x, y)) in half.as_slice().iter().zip(exact.as_slice()).enumerate() {
            let bound = 2.5e-3 * abs_dot.as_slice()[i] + 1e-5;
            prop_assert!(
                (x - y).abs() <= bound,
                "f16 elem {} err {} exceeds bound {}",
                i,
                (x - y).abs(),
                bound
            );
        }
    }

    /// Symmetric int8 quantization: round-trip within half a step, codes
    /// saturate exactly at ±127, and the max-magnitude element uses the
    /// extreme code.
    #[test]
    fn prop_quant_roundtrip_bounded_and_saturating(
        rows in 1usize..10,
        cols in 1usize..24,
        scale_mille in 1000u32..50_000,
        seed in 0u64..10_000,
    ) {
        let t = tensor_with_zeros(rows, cols, seed).scaled(scale_mille as f32 / 1000.0);
        let q = quantize_symmetric(&t);
        let step = q.quantization().scale;
        let back = dequantize(&q);
        prop_assert!(t.max_abs_diff(&back).unwrap() <= step * 0.5 + step * 1e-4);
        prop_assert!(q.as_slice().iter().all(|&v| (-127..=127).contains(&v)),
            "a code escaped the symmetric range");
        if t.max_abs() > 0.0 {
            prop_assert!(q.as_slice().iter().any(|&v| v.abs() == 127),
                "the max-magnitude element must map to the extreme code");
        }
    }

    /// Integer matmul with i32 accumulation: exact in integers (all
    /// backends agree bit for bit) and within the analytic
    /// quantization-noise bound of the f32 product.
    #[test]
    fn prop_int8_matmul_error_bounded(
        m in 1usize..10,
        k in 1usize..32,
        n in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(4));
        let (qa, qb) = (quantize_symmetric(&a), quantize_symmetric(&b));
        let (acc, shape, scale) = qa.matmul_i32(&qb).unwrap();
        // Integer exactness: the scalar backend must reproduce the active
        // backend's accumulators exactly.
        let mut scalar_acc = vec![0i32; m * n];
        ScalarBackend.matmul_i8_i32(qa.as_slice(), qb.as_slice(), &mut scalar_acc, m, k, n);
        prop_assert_eq!(&acc, &scalar_acc, "integer sums must be backend-independent");
        // Error bound: |a - sa*qa| <= sa/2 per element (no saturation for
        // scales derived from max_abs), so each output errs by at most
        // sum_k |a|*sb/2 + |b|*sa/2 + sa*sb/4.
        let (sa, sb) = (qa.quantization().scale, qb.quantization().scale);
        let exact = naive::matmul(&a, &b).unwrap();
        let approx = Tensor::from_vec(shape, acc.iter().map(|&v| v as f32 * scale).collect()).unwrap();
        for i in 0..m {
            let row_abs: f32 = (0..k).map(|p| a.at(i, p).abs()).sum();
            for j in 0..n {
                let col_abs: f32 = (0..k).map(|p| b.at(p, j).abs()).sum();
                let bound = 0.5 * sb * row_abs + 0.5 * sa * col_abs
                    + 0.25 * sa * sb * k as f32 + 1e-4;
                let err = (exact.at(i, j) - approx.at(i, j)).abs();
                prop_assert!(err <= bound, "({},{}) err {} exceeds bound {}", i, j, err, bound);
            }
        }
    }

    /// Workspace alias safety: over arbitrary acquire/release
    /// interleavings, the address ranges of live buffers never overlap.
    #[test]
    fn prop_workspace_live_buffers_never_alias(
        n_ops in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = Workspace::new();
        let mut live: Vec<Vec<f32>> = Vec::new();
        for _ in 0..n_ops {
            let (op, len) = (next() % 2, (next() % 511 + 1) as usize);
            if op == 0 || live.is_empty() {
                live.push(w.acquire(len));
            } else {
                let buf = live.remove(len % live.len());
                w.release(buf);
            }
            // Pairwise non-overlap of every live buffer's address range.
            for i in 0..live.len() {
                for j in (i + 1)..live.len() {
                    let (ai, ni) = (live[i].as_ptr() as usize, live[i].capacity() * 4);
                    let (aj, nj) = (live[j].as_ptr() as usize, live[j].capacity() * 4);
                    prop_assert!(
                        ai + ni <= aj || aj + nj <= ai,
                        "live buffers {} and {} overlap",
                        i,
                        j
                    );
                }
            }
        }
        for buf in live {
            w.release(buf);
        }
    }

    /// Workspace steady state: once the pool has seen one round of a
    /// repeating size mix, further rounds acquire without allocating.
    #[test]
    fn prop_workspace_steady_state_allocation_free(
        n_sizes in 1usize..8,
        rounds in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sizes: Vec<usize> = (0..n_sizes).map(|_| (next() % 1023 + 1) as usize).collect();
        let mut w = Workspace::new();
        let run_round = |w: &mut Workspace| {
            let held: Vec<Vec<f32>> = sizes.iter().map(|&s| w.acquire(s)).collect();
            for buf in held {
                w.release(buf);
            }
        };
        run_round(&mut w);
        let warm = w.stats().allocations;
        for _ in 0..rounds {
            run_round(&mut w);
        }
        let s = w.stats();
        prop_assert_eq!(s.allocations, warm, "steady state allocated");
        prop_assert_eq!(s.acquisitions, (rounds as u64 + 1) * sizes.len() as u64);
    }
}

/// Decode-shape (`m = 1`) products take no workspace scratch at all: a
/// steady-state LM-head `matmul_t_into` and a per-chip `matmul_into`
/// leave the thread's acquisition counter where it was, so no k·n pack
/// buffer is taken per token or left in the pool.
#[test]
fn decode_shapes_take_no_workspace_scratch() {
    let x = tensor_with_zeros(1, 512, 4);
    let table = tensor_with_zeros(4096, 512, 5);
    let w = tensor_with_zeros(512, 256, 6);
    let (mut logits, mut h) = (Tensor::default(), Tensor::default());
    reset_thread_workspace();
    x.matmul_t_into(&table, &mut logits).unwrap();
    x.matmul_into(&w, &mut h).unwrap();
    let warm = thread_workspace_stats();
    for _ in 0..4 {
        x.matmul_t_into(&table, &mut logits).unwrap();
        x.matmul_into(&w, &mut h).unwrap();
    }
    let steady = thread_workspace_stats();
    assert_eq!(steady.acquisitions, warm.acquisitions, "m = 1 products acquired scratch");
    assert_eq!(steady.pooled, 0, "a decode product left scratch in the thread's pool");
    reset_thread_workspace();
}

/// The real dispatched kernels hold the steady-state property end to
/// end: after one warm pass, repeated matmul/matmul_t calls on the same
/// shapes draw every packing buffer from the pool.
#[test]
fn kernel_scratch_is_allocation_free_in_steady_state() {
    let a = tensor_with_zeros(16, 96, 1);
    let b = tensor_with_zeros(96, 64, 2);
    let bt = tensor_with_zeros(64, 96, 3);
    let mut out = Tensor::default();
    let mut out_t = Tensor::default();
    reset_thread_workspace();
    a.matmul_into(&b, &mut out).unwrap();
    a.matmul_t_into(&bt, &mut out_t).unwrap();
    let warm = thread_workspace_stats();
    for _ in 0..10 {
        a.matmul_into(&b, &mut out).unwrap();
        a.matmul_t_into(&bt, &mut out_t).unwrap();
    }
    let steady = thread_workspace_stats();
    assert_eq!(
        steady.allocations, warm.allocations,
        "steady-state kernels allocated fresh scratch"
    );
    assert!(steady.acquisitions >= warm.acquisitions, "acquisition counter must be monotone");
    reset_thread_workspace();
}
