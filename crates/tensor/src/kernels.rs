//! Cache-blocked matmul kernels for the tape's hot loop.
//!
//! Three kernels cover the forward product and both backward
//! accumulations of `C = A @ B`:
//!
//! * [`matmul`] — `out = A @ B` (overwrite) in 16-column panels with
//!   a 4-row register tile, run by the AVX2 body in [`crate::simd`]
//!   when the CPU has it. With four or more rows, each panel of B is
//!   packed contiguously once and shared by every row. Below the
//!   4-row tile (the model's `[1,k]×[k,c]` decoder steps) no row
//!   would share a pack, so full panels read B in place with its own
//!   row stride. An edge panel narrower than 16 columns is packed
//!   zero-padded to 16 lanes and runs the same fixed-width tile into
//!   a scratch tile, of which only the real lanes are copied out. A
//!   single-column B (`c == 1`: attention vectors, the decoder's
//!   `scores·v`) skips the panels: eight rows of A run at a time, one
//!   independent accumulator each.
//! * [`matmul_grad_a`] — `gA += G @ Bᵀ`. B is transposed once per call
//!   into a `[c,k]` scratch so each `g != 0` term becomes a contiguous
//!   saxpy into a per-row accumulator — the same memory shape as the
//!   forward kernel, instead of the strided dot grid it used to be.
//! * [`matmul_grad_b`] — `gB += Aᵀ @ G`, a blocked saxpy accumulation
//!   that keeps a small panel of `gB` rows hot while streaming `G`.
//!
//! **Determinism contract.** Every kernel performs, for each
//! output element, *exactly* the same sequence of float operations as
//! its `*_naive` reference (single left-to-right accumulator over the
//! contraction index; same zero-skip conditions). Blocking, packing
//! and AVX2 lanes only reorder *independent* elements, never the
//! summands of one element (the zero-padded edge lanes are separate
//! elements that are never copied out), so results are bit-identical
//! to the reference — which is what keeps `tests/determinism.rs`
//! meaningful and is enforced by the `kernel_props` proptests.
//!
//! The `*_naive` references are kept `pub` on purpose: the equivalence
//! proptests and the `tensor_kernels` bench both compare against them.

use crate::simd;
use std::cell::RefCell;

/// Column-tile width of the forward kernel's register accumulator.
/// 16 f32 = four SSE / two AVX registers; a narrower edge panel is
/// zero-padded to this width.
const NR: usize = 16;

thread_local! {
    /// Per-thread scratch: the packed B panel (`k × NR`) and the edge
    /// panel's `r × NR` output tile. Thread-local keeps the kernel
    /// allocation-free after warm-up without threading a scratch buffer
    /// through every call site.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Reference forward product `out = A @ B` (`A [r,k]`, `B [k,c]`,
/// `out [r,c]`, all row-major). The i-k-j saxpy loop this replaces as
/// the hot kernel; per output element the accumulation is a single
/// left-to-right sum over `kk` starting from 0.
pub fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(out.len(), r * c);
    out.iter_mut().for_each(|o| *o = 0.0);
    for i in 0..r {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * c..(i + 1) * c];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * c..(kk + 1) * c];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked forward product `out = A @ B` (overwrite). Bit-identical to
/// [`matmul_naive`].
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(out.len(), r * c);
    rtp_obs::counter!("tensor.matmul.fwd").inc();
    if r == 0 || c == 0 {
        return;
    }
    if k == 0 {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    if c == 1 {
        matvec(a, b, out, k);
        return;
    }
    PACK.with(|s| {
        let (pack, tile) = &mut *s.borrow_mut();
        let mut jb = 0;
        while jb < c {
            let nr = NR.min(c - jb);
            if nr == NR && r < 4 {
                // Fewer rows than the register tile: no row would share
                // a packed panel, so read B's rows where they lie.
                panel(a, &b[jb..], c, out, r, k, c, jb);
            } else if nr == NR {
                // Pack the B column panel [k × NR] contiguously; reused
                // by every row of A, so the pack cost amortises over r.
                pack.clear();
                pack.reserve(k * NR);
                for kk in 0..k {
                    pack.extend_from_slice(&b[kk * c + jb..kk * c + jb + NR]);
                }
                panel(a, pack, NR, out, r, k, c, jb);
            } else {
                // Edge panel: pack it zero-padded to NR lanes so it runs
                // the same fixed-width tile, into a scratch tile of
                // which only the nr real lanes are copied out.
                pack.clear();
                for kk in 0..k {
                    pack.extend_from_slice(&b[kk * c + jb..kk * c + jb + nr]);
                    pack.resize((kk + 1) * NR, 0.0);
                }
                tile.clear();
                tile.resize(r * NR, 0.0);
                panel(a, pack, NR, tile, r, k, NR, 0);
                for i in 0..r {
                    out[i * c + jb..(i + 1) * c].copy_from_slice(&tile[i * NR..i * NR + nr]);
                }
            }
            jb += nr;
        }
    });
}

/// Rows of A per block of the mat-vec path, and the width of its
/// fixed-size steps along k.
const MV: usize = 8;

/// The `c == 1` forward product: B is a contiguous column vector, so
/// each output is one dot product. [`MV`] rows run at a time, each with
/// its own accumulator, so their add chains overlap instead of waiting
/// on one another. The main loop steps k by [`MV`] over fixed-size
/// arrays, which lets the compiler drop the bounds checks and keep the
/// block in vector registers. Each accumulator still sums its own row
/// left to right from 0 — bit-identical to the reference.
#[allow(clippy::needless_range_loop)] // one index walks rows and accumulators together
fn matvec(a: &[f32], b: &[f32], out: &mut [f32], k: usize) {
    let b = &b[..k];
    let whole = k - k % MV;
    let mut blocks = a.chunks_exact(MV * k);
    let mut outs = out.chunks_exact_mut(MV);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let rows: [&[f32]; MV] = std::array::from_fn(|l| &block[l * k..(l + 1) * k]);
        let mut acc = [0.0f32; MV];
        for kk in (0..whole).step_by(MV) {
            let bc: &[f32; MV] = b[kk..kk + MV].try_into().expect("MV-wide step");
            for l in 0..MV {
                let rc: &[f32; MV] = rows[l][kk..kk + MV].try_into().expect("MV-wide step");
                let mut s = acc[l];
                for j in 0..MV {
                    s += rc[j] * bc[j];
                }
                acc[l] = s;
            }
        }
        for kk in whole..k {
            for l in 0..MV {
                acc[l] += rows[l][kk] * b[kk];
            }
        }
        o.copy_from_slice(&acc);
    }
    for (arow, o) in blocks.remainder().chunks_exact(k).zip(outs.into_remainder()) {
        let mut acc = 0.0f32;
        for (&av, &bv) in arow.iter().zip(b) {
            acc += av * bv;
        }
        *o = acc;
    }
}

/// One NR-wide column panel of the forward product:
/// `out[i*ldc + jb ..][..NR] = Σ_kk a[i][kk] * b[kk*ldb ..][..NR]`,
/// where `b` starts at the panel's first column and `ldb` is its row
/// stride (`NR` for a packed panel, `c` when reading B in place).
///
/// Four rows of A share each B load in a 4×NR register tile, giving
/// eight independent vector accumulators so the add latency chains
/// overlap. Each row's accumulator is still a single left-to-right sum
/// over `kk` — bit-identical to the reference.
#[allow(clippy::too_many_arguments)]
fn panel(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    r: usize,
    k: usize,
    ldc: usize,
    jb: usize,
) {
    // The AVX2 body reads and writes through raw pointers, so these
    // bounds are checked in release builds too.
    assert!(
        r >= 1
            && a.len() >= r * k
            && b.len() >= (k - 1) * ldb + NR
            && out.len() >= (r - 1) * ldc + jb + NR,
        "matmul panel out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    if simd::have_avx2() {
        // SAFETY: AVX2 just checked, and the assert above is the
        // kernel's bounds contract.
        unsafe { simd::fwd_panel_avx2(a, b, ldb, out, r, k, ldc, jb) };
        return;
    }
    panel_scalar(a, b, ldb, out, r, k, ldc, jb);
}

/// Portable body of [`panel`], with the same per-element op sequence
/// as the AVX2 one.
#[allow(clippy::too_many_arguments)]
fn panel_scalar(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    r: usize,
    k: usize,
    ldc: usize,
    jb: usize,
) {
    let mut i = 0;
    while i + 4 <= r {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut c0 = [0.0f32; NR];
        let mut c1 = [0.0f32; NR];
        let mut c2 = [0.0f32; NR];
        let mut c3 = [0.0f32; NR];
        for kk in 0..k {
            let bp: &[f32; NR] = b[kk * ldb..kk * ldb + NR].try_into().expect("panel tile");
            let (v0, v1, v2, v3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            for j in 0..NR {
                c0[j] += v0 * bp[j];
                c1[j] += v1 * bp[j];
                c2[j] += v2 * bp[j];
                c3[j] += v3 * bp[j];
            }
        }
        out[i * ldc + jb..i * ldc + jb + NR].copy_from_slice(&c0);
        out[(i + 1) * ldc + jb..(i + 1) * ldc + jb + NR].copy_from_slice(&c1);
        out[(i + 2) * ldc + jb..(i + 2) * ldc + jb + NR].copy_from_slice(&c2);
        out[(i + 3) * ldc + jb..(i + 3) * ldc + jb + NR].copy_from_slice(&c3);
        i += 4;
    }
    while i < r {
        let arow = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f32; NR];
        for (kk, &av) in arow.iter().enumerate() {
            let bp = &b[kk * ldb..kk * ldb + NR];
            for (ac, &bv) in acc.iter_mut().zip(bp) {
                *ac += av * bv;
            }
        }
        out[i * ldc + jb..i * ldc + jb + NR].copy_from_slice(&acc);
        i += 1;
    }
}

/// Reference backward accumulation `gA += G @ Bᵀ` (`G [r,c]`,
/// `B [k,c]`, `gA [r,k]`): per element, a zero-initialised dot over
/// `j` (skipping `g == 0` terms) added once into `gA`.
pub fn matmul_grad_a_naive(g: &[f32], b: &[f32], ga: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(ga.len(), r * k);
    for i in 0..r {
        let grow = &g[i * c..(i + 1) * c];
        let garow = &mut ga[i * k..(i + 1) * k];
        for (kk, gout) in garow.iter_mut().enumerate() {
            let brow = &b[kk * c..(kk + 1) * c];
            let mut acc = 0.0f32;
            for (&gv, &bv) in grow.iter().zip(brow) {
                if gv != 0.0 {
                    acc += gv * bv;
                }
            }
            *gout += acc;
        }
    }
}

thread_local! {
    /// Per-thread scratch for [`matmul_grad_a`]: `(Bᵀ [c,k], acc [k])`.
    static GRAD_A_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Panel-wise `gA += G @ Bᵀ`, bit-identical to
/// [`matmul_grad_a_naive`].
///
/// The old kernel walked `B` column-wise (stride `c`) inside dot
/// products, so every inner step was a strided load — ~9× slower than
/// the forward kernel. Here `B` is transposed **once per call** into a
/// `[c,k]` scratch; for each output row, a zeroed accumulator row
/// collects `acc[kk] += g[i,j] * Bᵀ[j,kk]` as contiguous saxpies
/// (vectorized across the independent `kk` outputs via
/// [`crate::simd::axpy`]) and lands in `gA` with one final add.
///
/// Per element `(i,kk)` that is *exactly* the reference sequence: a
/// zero-initialised left-to-right sum over ascending `j` with the same
/// `g != 0` skip, then a single `+=` into `gA` — only independent
/// elements were reordered, so bits match with or without AVX2.
pub fn matmul_grad_a(g: &[f32], b: &[f32], ga: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(b.len(), k * c);
    debug_assert_eq!(ga.len(), r * k);
    rtp_obs::counter!("tensor.matmul.grad_a").inc();
    if r == 0 || k == 0 {
        return;
    }
    GRAD_A_SCRATCH.with(|s| {
        let (bt, acc) = &mut *s.borrow_mut();
        bt.clear();
        bt.resize(c * k, 0.0);
        for kk in 0..k {
            let brow = &b[kk * c..(kk + 1) * c];
            for (j, &bv) in brow.iter().enumerate() {
                bt[j * k + kk] = bv;
            }
        }
        for i in 0..r {
            let grow = &g[i * c..(i + 1) * c];
            let garow = &mut ga[i * k..(i + 1) * k];
            acc.clear();
            acc.resize(k, 0.0);
            for (j, &gv) in grow.iter().enumerate() {
                if gv != 0.0 {
                    simd::axpy(acc, &bt[j * k..(j + 1) * k], gv);
                }
            }
            for (gout, &av) in garow.iter_mut().zip(acc.iter()) {
                *gout += av;
            }
        }
    });
}

/// Reference backward accumulation `gB += Aᵀ @ G` (`A [r,k]`,
/// `G [r,c]`, `gB [k,c]`): streaming saxpy, per element accumulated in
/// ascending `i` (skipping `a == 0` rows).
pub fn matmul_grad_b_naive(a: &[f32], g: &[f32], gb: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(gb.len(), k * c);
    for i in 0..r {
        let grow = &g[i * c..(i + 1) * c];
        for kk in 0..k {
            let av = a[i * k + kk];
            if av != 0.0 {
                let gbrow = &mut gb[kk * c..(kk + 1) * c];
                for (gbv, &gv) in gbrow.iter_mut().zip(grow) {
                    *gbv += av * gv;
                }
            }
        }
    }
}

/// Blocked `gB += Aᵀ @ G`: processes `gB` in panels of 8 rows so the
/// panel stays cache-hot while `G` streams through once per panel.
/// Bit-identical to [`matmul_grad_b_naive`].
pub fn matmul_grad_b(a: &[f32], g: &[f32], gb: &mut [f32], r: usize, k: usize, c: usize) {
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(g.len(), r * c);
    debug_assert_eq!(gb.len(), k * c);
    rtp_obs::counter!("tensor.matmul.grad_b").inc();
    const KB: usize = 8;
    let mut kk0 = 0;
    while kk0 < k {
        let kb = KB.min(k - kk0);
        let panel = &mut gb[kk0 * c..(kk0 + kb) * c];
        for i in 0..r {
            let grow = &g[i * c..(i + 1) * c];
            let arow = &a[i * k + kk0..i * k + kk0 + kb];
            for (dk, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let gbrow = &mut panel[dk * c..(dk + 1) * c];
                    for (gbv, &gv) in gbrow.iter_mut().zip(grow) {
                        *gbv += av * gv;
                    }
                }
            }
        }
        kk0 += kb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // tiny deterministic LCG; values in [-1, 1)
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocked_forward_matches_naive_bitwise() {
        for &(r, k, c) in &[
            (1, 1, 1),
            (3, 5, 7),
            (16, 16, 16),
            (17, 33, 19),
            (2, 64, 1),
            (40, 24, 48),
            (1, 48, 192),
            (86, 48, 12),
        ] {
            let a = fill(r * k, 1 + r as u32);
            let b = fill(k * c, 2 + c as u32);
            let mut out1 = vec![f32::NAN; r * c];
            let mut out2 = vec![f32::NAN; r * c];
            matmul_naive(&a, &b, &mut out1, r, k, c);
            matmul(&a, &b, &mut out2, r, k, c);
            assert_eq!(bits(&out1), bits(&out2), "forward mismatch at ({r},{k},{c})");
        }
    }

    /// The portable panel body behind the AVX2 one, over both operand
    /// layouts `matmul` feeds it: B read in place (`ldb = c`) and a
    /// packed panel (`ldb = NR`).
    #[test]
    fn scalar_panel_matches_naive_bitwise() {
        for &(r, k, c) in &[(1, 48, 32), (3, 7, 16), (5, 9, 48), (9, 48, 16)] {
            let a = fill(r * k, 8 + r as u32);
            let b = fill(k * c, 9 + c as u32);
            let mut want = vec![f32::NAN; r * c];
            matmul_naive(&a, &b, &mut want, r, k, c);
            let mut direct = vec![f32::NAN; r * c];
            let mut packed = vec![f32::NAN; r * c];
            for jb in (0..c).step_by(NR) {
                panel_scalar(&a, &b[jb..], c, &mut direct, r, k, c, jb);
                let pack: Vec<f32> =
                    (0..k).flat_map(|kk| b[kk * c + jb..kk * c + jb + NR].to_vec()).collect();
                panel_scalar(&a, &pack, NR, &mut packed, r, k, c, jb);
            }
            assert_eq!(bits(&want), bits(&direct), "direct panel mismatch at ({r},{k},{c})");
            assert_eq!(bits(&want), bits(&packed), "packed panel mismatch at ({r},{k},{c})");
        }
    }

    #[test]
    fn blocked_backward_kernels_match_naive_bitwise() {
        for &(r, k, c) in &[(1, 1, 1), (3, 5, 7), (17, 33, 19), (8, 4, 32)] {
            let a = fill(r * k, 3);
            let b = fill(k * c, 4);
            let g = fill(r * c, 5);
            let mut ga1 = fill(r * k, 6);
            let mut ga2 = ga1.clone();
            matmul_grad_a_naive(&g, &b, &mut ga1, r, k, c);
            matmul_grad_a(&g, &b, &mut ga2, r, k, c);
            assert_eq!(bits(&ga1), bits(&ga2), "grad_a mismatch at ({r},{k},{c})");
            let mut gb1 = fill(k * c, 7);
            let mut gb2 = gb1.clone();
            matmul_grad_b_naive(&a, &g, &mut gb1, r, k, c);
            matmul_grad_b(&a, &g, &mut gb2, r, k, c);
            assert_eq!(bits(&gb1), bits(&gb2), "grad_b mismatch at ({r},{k},{c})");
        }
    }
}
