//! Runtime-dispatched AVX2/FMA kernels and the quantized i8 inference
//! path, in two numerics tiers (see DESIGN.md "Numerics policy"):
//!
//! * **Bit-exact tier** ([`axpy`], [`fwd_panel_avx2`]): every output
//!   element sees *exactly* the scalar reference's left-to-right f32
//!   op sequence; AVX2 lanes only spread *independent* output elements
//!   across a register. Crucially these use separate
//!   `_mm256_mul_ps` + `_mm256_add_ps` — never `_mm256_fmadd_ps`,
//!   which skips the intermediate rounding and changes bits. This tier
//!   backs the default kernels in [`crate::kernels`], so thread-count
//!   determinism and twin-server byte comparisons hold by construction.
//! * **Fast tier** ([`matmul_fast_avx2fma`], [`dot_fast_avx2fma`]):
//!   FMA contraction and multi-accumulator reductions. Different
//!   rounding (usually *more* accurate), so it is opt-in and never
//!   used where gradients flow.
//! * **Quantized tier** ([`QuantizedMatrix`], [`matmul_q8`]):
//!   per-output-channel i8 weights (symmetric, clamped to ±127) with
//!   dynamic per-row activation quantization and i8×i8→i32 dots via
//!   `maddubs`. The i32 accumulation is exact and order-free; all
//!   rounding happens at quantization and the final two f32 multiplies.
//!
//! Dispatch is per-call via [`have_avx2`] / [`have_fma`] (cached CPUID
//! behind `is_x86_feature_detected!`); every entry point has a scalar
//! fallback with identical semantics (for the bit-exact tier: identical
//! bits), so non-x86 builds and pre-AVX2 boxes run the same code paths
//! the proptests verify.

use std::cell::RefCell;

use crate::params::{ParamId, ParamStore};

// -------------------------------------------------------------------
// Feature detection
// -------------------------------------------------------------------

/// Whether the running CPU has AVX2 (cached by the std detection
/// macro; false on non-x86_64 targets).
#[inline]
pub fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU has AVX2 *and* FMA (the fast tier needs
/// both; false on non-x86_64 targets).
#[inline]
pub fn have_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel dispatch, for bench
/// metadata and `--version`-style diagnostics.
pub fn detected_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            f.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            f.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
    }
    f
}

// -------------------------------------------------------------------
// Bit-exact tier
// -------------------------------------------------------------------

/// `dst[i] += s * x[i]` over `min(dst.len(), x.len())` elements.
///
/// Per element this is one f32 multiply then one f32 add — exactly the
/// scalar sequence — so it is bit-identical to the plain loop whether
/// the AVX2 path runs or not. The destination elements are independent
/// outputs, which is what makes vectorizing them legal under the
/// determinism contract.
#[inline]
pub fn axpy(dst: &mut [f32], x: &[f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if have_avx2() {
        // SAFETY: AVX2 presence just checked; the kernel handles any
        // slice lengths itself.
        unsafe { axpy_avx2(dst, x, s) };
        return;
    }
    for (d, &xv) in dst.iter_mut().zip(x) {
        *d += s * xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(dst: &mut [f32], x: &[f32], s: f32) {
    use std::arch::x86_64::*;
    let n = dst.len().min(x.len());
    let d = dst.as_mut_ptr();
    let xp = x.as_ptr();
    let vs = _mm256_set1_ps(s);
    let mut i = 0;
    // Two independent 8-lane streams per iteration so the add latency
    // chains overlap. mul+add, NOT fmadd: bit-exact tier.
    while i + 16 <= n {
        let d0 = _mm256_loadu_ps(d.add(i));
        let d1 = _mm256_loadu_ps(d.add(i + 8));
        let x0 = _mm256_loadu_ps(xp.add(i));
        let x1 = _mm256_loadu_ps(xp.add(i + 8));
        _mm256_storeu_ps(d.add(i), _mm256_add_ps(d0, _mm256_mul_ps(vs, x0)));
        _mm256_storeu_ps(d.add(i + 8), _mm256_add_ps(d1, _mm256_mul_ps(vs, x1)));
        i += 16;
    }
    while i + 8 <= n {
        let d0 = _mm256_loadu_ps(d.add(i));
        let x0 = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(d.add(i), _mm256_add_ps(d0, _mm256_mul_ps(vs, x0)));
        i += 8;
    }
    while i < n {
        *d.add(i) += s * *xp.add(i);
        i += 1;
    }
}

/// Bit-exact AVX2 body for one 16-column panel of the forward matmul:
/// `out[i*c + jb..][..16] = Σ_kk a[i][kk] * b[kk*ldb..][..16]`, the
/// same 4-row register tile as the scalar blocked kernel with each
/// accumulator update done as mul-then-add. `b` starts at the panel's
/// first column; `ldb` is its row stride — 16 for a packed panel, the
/// matrix width when B is read in place. `c` is the row stride of
/// `out` and `jb` the panel's first column in it.
///
/// # Safety
/// Caller must ensure AVX2 is available, `b.len() >= (k-1) * ldb + 16`,
/// `a.len() >= r * k`, `out.len() >= (r-1) * c + jb + 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn fwd_panel_avx2(
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    r: usize,
    k: usize,
    c: usize,
    jb: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(k == 0 || b.len() >= (k - 1) * ldb + 16);
    let ap = a.as_ptr();
    let pp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= r {
        let (mut c0l, mut c0h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c1l, mut c1h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c2l, mut c2h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c3l, mut c3h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * ldb));
            let bh = _mm256_loadu_ps(pp.add(kk * ldb + 8));
            let v0 = _mm256_set1_ps(*ap.add(i * k + kk));
            let v1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
            let v2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
            let v3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
            c0l = _mm256_add_ps(c0l, _mm256_mul_ps(v0, bl));
            c0h = _mm256_add_ps(c0h, _mm256_mul_ps(v0, bh));
            c1l = _mm256_add_ps(c1l, _mm256_mul_ps(v1, bl));
            c1h = _mm256_add_ps(c1h, _mm256_mul_ps(v1, bh));
            c2l = _mm256_add_ps(c2l, _mm256_mul_ps(v2, bl));
            c2h = _mm256_add_ps(c2h, _mm256_mul_ps(v2, bh));
            c3l = _mm256_add_ps(c3l, _mm256_mul_ps(v3, bl));
            c3h = _mm256_add_ps(c3h, _mm256_mul_ps(v3, bh));
        }
        _mm256_storeu_ps(op.add(i * c + jb), c0l);
        _mm256_storeu_ps(op.add(i * c + jb + 8), c0h);
        _mm256_storeu_ps(op.add((i + 1) * c + jb), c1l);
        _mm256_storeu_ps(op.add((i + 1) * c + jb + 8), c1h);
        _mm256_storeu_ps(op.add((i + 2) * c + jb), c2l);
        _mm256_storeu_ps(op.add((i + 2) * c + jb + 8), c2h);
        _mm256_storeu_ps(op.add((i + 3) * c + jb), c3l);
        _mm256_storeu_ps(op.add((i + 3) * c + jb + 8), c3h);
        i += 4;
    }
    while i < r {
        let (mut cl, mut ch) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * ldb));
            let bh = _mm256_loadu_ps(pp.add(kk * ldb + 8));
            let v = _mm256_set1_ps(*ap.add(i * k + kk));
            cl = _mm256_add_ps(cl, _mm256_mul_ps(v, bl));
            ch = _mm256_add_ps(ch, _mm256_mul_ps(v, bh));
        }
        _mm256_storeu_ps(op.add(i * c + jb), cl);
        _mm256_storeu_ps(op.add(i * c + jb + 8), ch);
        i += 1;
    }
}

// -------------------------------------------------------------------
// Fast tier (FMA + multi-accumulator; opt-in, inference only)
// -------------------------------------------------------------------

thread_local! {
    /// Packed B panel scratch for the fast-tier matmul.
    static FAST_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Fast-tier forward product `out = A @ B` (overwrite): the blocked
/// panel kernel with FMA contraction. Accuracy differs from the exact
/// tier only in rounding (FMA keeps the infinitely precise product
/// before adding), so results are within normal f32 dot-product error
/// of the reference — but NOT bit-identical. Falls back to the exact
/// kernel where AVX2+FMA is unavailable.
///
/// Returns `true` if the FMA path ran (so callers can fall back to the
/// exact blocked kernel otherwise without double-counting).
pub fn matmul_fast(a: &[f32], b: &[f32], out: &mut [f32], r: usize, k: usize, c: usize) -> bool {
    if !have_fma() || r == 0 || c == 0 || k == 0 {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if c == 1 {
            for i in 0..r {
                // SAFETY: FMA presence checked above; slices sized by
                // the matmul contract.
                out[i] = unsafe { dot_fast_avx2fma(&a[i * k..(i + 1) * k], b) };
            }
            return true;
        }
        FAST_PACK.with(|p| {
            let mut pack = p.borrow_mut();
            let mut jb = 0;
            while jb < c {
                let nr = 16.min(c - jb);
                if nr == 16 {
                    pack.clear();
                    pack.reserve(k * 16);
                    for kk in 0..k {
                        pack.extend_from_slice(&b[kk * c + jb..kk * c + jb + 16]);
                    }
                    // SAFETY: FMA presence checked; pack is k*16.
                    unsafe { fwd_panel_fma(a, &pack, out, r, k, c, jb) };
                } else {
                    // Edge panel: scalar mul_add (compiles to scalar
                    // FMA under x86-64-v3); tiny share of the work.
                    for i in 0..r {
                        for j in jb..jb + nr {
                            let mut acc = 0.0f32;
                            for kk in 0..k {
                                acc = a[i * k + kk].mul_add(b[kk * c + j], acc);
                            }
                            out[i * c + j] = acc;
                        }
                    }
                }
                jb += nr;
            }
        });
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Fast-tier dot product: 4 independent FMA accumulator chains folded
/// at the end (different summation order than the reference — fast
/// tier only).
///
/// # Safety
/// Caller must ensure AVX2+FMA are available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_fast_avx2fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0;
    while i + 32 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        acc1 =
            _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 8)), _mm256_loadu_ps(bp.add(i + 8)), acc1);
        acc2 =
            _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 16)), _mm256_loadu_ps(bp.add(i + 16)), acc2);
        acc3 =
            _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i + 24)), _mm256_loadu_ps(bp.add(i + 24)), acc3);
        i += 32;
    }
    while i + 8 <= n {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        i += 8;
    }
    let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    let hi = _mm256_extractf128_ps(acc, 1);
    let lo = _mm256_castps256_ps128(acc);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    let mut total = _mm_cvtss_f32(s);
    while i < n {
        total = (*ap.add(i)).mul_add(*bp.add(i), total);
        i += 1;
    }
    total
}

/// Fast-tier panel body: [`fwd_panel_avx2`] with `fmadd` contraction.
///
/// # Safety
/// Same contract as [`fwd_panel_avx2`] with `ldb = 16` (a packed
/// panel), plus FMA availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fwd_panel_fma(
    a: &[f32],
    pack: &[f32],
    out: &mut [f32],
    r: usize,
    k: usize,
    c: usize,
    jb: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(pack.len() >= k * 16);
    let ap = a.as_ptr();
    let pp = pack.as_ptr();
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= r {
        let (mut c0l, mut c0h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c1l, mut c1h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c2l, mut c2h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c3l, mut c3h) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * 16));
            let bh = _mm256_loadu_ps(pp.add(kk * 16 + 8));
            let v0 = _mm256_set1_ps(*ap.add(i * k + kk));
            let v1 = _mm256_set1_ps(*ap.add((i + 1) * k + kk));
            let v2 = _mm256_set1_ps(*ap.add((i + 2) * k + kk));
            let v3 = _mm256_set1_ps(*ap.add((i + 3) * k + kk));
            c0l = _mm256_fmadd_ps(v0, bl, c0l);
            c0h = _mm256_fmadd_ps(v0, bh, c0h);
            c1l = _mm256_fmadd_ps(v1, bl, c1l);
            c1h = _mm256_fmadd_ps(v1, bh, c1h);
            c2l = _mm256_fmadd_ps(v2, bl, c2l);
            c2h = _mm256_fmadd_ps(v2, bh, c2h);
            c3l = _mm256_fmadd_ps(v3, bl, c3l);
            c3h = _mm256_fmadd_ps(v3, bh, c3h);
        }
        _mm256_storeu_ps(op.add(i * c + jb), c0l);
        _mm256_storeu_ps(op.add(i * c + jb + 8), c0h);
        _mm256_storeu_ps(op.add((i + 1) * c + jb), c1l);
        _mm256_storeu_ps(op.add((i + 1) * c + jb + 8), c1h);
        _mm256_storeu_ps(op.add((i + 2) * c + jb), c2l);
        _mm256_storeu_ps(op.add((i + 2) * c + jb + 8), c2h);
        _mm256_storeu_ps(op.add((i + 3) * c + jb), c3l);
        _mm256_storeu_ps(op.add((i + 3) * c + jb + 8), c3h);
        i += 4;
    }
    while i < r {
        let (mut cl, mut ch) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for kk in 0..k {
            let bl = _mm256_loadu_ps(pp.add(kk * 16));
            let bh = _mm256_loadu_ps(pp.add(kk * 16 + 8));
            let v = _mm256_set1_ps(*ap.add(i * k + kk));
            cl = _mm256_fmadd_ps(v, bl, cl);
            ch = _mm256_fmadd_ps(v, bh, ch);
        }
        _mm256_storeu_ps(op.add(i * c + jb), cl);
        _mm256_storeu_ps(op.add(i * c + jb + 8), ch);
        i += 1;
    }
}

// -------------------------------------------------------------------
// Quantized tier (i8 weights, dynamic i8 activations, i32 dots)
// -------------------------------------------------------------------

/// i8 lane width the quantized dot operates in; weight rows and the
/// activation scratch are zero-padded to a multiple of this so the dot
/// kernel has no remainder loop (zero products are exact in i32).
const Q_LANES: usize = 32;

/// Minimum contraction dim for a parameter to be worth quantizing;
/// below this the f32 kernel wins and the relative quantization error
/// budget is spent on too few summands.
pub const QUANT_MIN_K: usize = 16;
/// Minimum output channels for quantization (column vectors and tiny
/// heads stay f32).
pub const QUANT_MIN_C: usize = 4;

/// A weight matrix `B [k,c]` quantized symmetrically per output
/// channel: column `j` is stored as i8 values in `[-127, 127]` with a
/// f32 scale `s_j = max|B[:,j]| / 127`, laid out *transposed*
/// (`qt[j][0..k]`, padded to [`Q_LANES`]) so the quantized dot reads
/// both operands contiguously.
///
/// The ±127 clamp (never −128) caps `|qa·qw| ≤ 127·127`, so the
/// `maddubs` pairwise i16 sum (≤ 32258) cannot saturate.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// Transposed quantized weights, `c` rows of `k_pad` i8 each.
    qt: Vec<i8>,
    /// Per-output-channel scale, length `c`.
    scales: Vec<f32>,
    /// Contraction dim (rows of the original B).
    pub k: usize,
    /// Output channels (cols of the original B).
    pub c: usize,
    k_pad: usize,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[k,c]` weight matrix.
    pub fn from_weights(b: &[f32], k: usize, c: usize) -> Self {
        assert_eq!(b.len(), k * c, "quantize shape mismatch");
        let k_pad = k.div_ceil(Q_LANES) * Q_LANES;
        let mut qt = vec![0i8; c * k_pad];
        let mut scales = vec![0f32; c];
        for j in 0..c {
            let amax = (0..k).map(|kk| b[kk * c + j].abs()).fold(0.0f32, f32::max);
            if amax == 0.0 || !amax.is_finite() {
                continue; // all-zero channel (scale 0 ⇒ output 0)
            }
            scales[j] = amax / 127.0;
            let inv = 127.0 / amax;
            for kk in 0..k {
                let q = (b[kk * c + j] * inv).round().clamp(-127.0, 127.0);
                qt[j * k_pad + kk] = q as i8;
            }
        }
        Self { qt, scales, k, c, k_pad }
    }

    /// Reconstructs the f32 weights (`[k,c]` row-major). Round-trip
    /// error per element is at most `scales[j] / 2` (symmetric
    /// round-to-nearest); the proptests pin this bound.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.k * self.c];
        for j in 0..self.c {
            let s = self.scales[j];
            for kk in 0..self.k {
                out[kk * self.c + j] = s * self.qt[j * self.k_pad + kk] as f32;
            }
        }
        out
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Heap bytes of the quantized representation.
    pub fn bytes(&self) -> usize {
        self.qt.len() + self.scales.len() * 4
    }
}

thread_local! {
    /// Per-row quantized-activation scratch (`k_pad` i8, zero padded).
    static QA: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
}

/// Quantized forward product `out = A @ dequant(QB)` (overwrite):
/// each activation row is dynamically quantized to i8 with its own
/// scale, dotted against the pre-quantized weight rows in exact i32,
/// and rescaled as `(sa_i * s_j) * dot`. `q.k` must equal `k` and
/// `q.c` must equal `c`.
pub fn matmul_q8(a: &[f32], q: &QuantizedMatrix, out: &mut [f32], r: usize, k: usize, c: usize) {
    assert_eq!(q.k, k, "quantized weight k mismatch");
    assert_eq!(q.c, c, "quantized weight c mismatch");
    debug_assert_eq!(a.len(), r * k);
    debug_assert_eq!(out.len(), r * c);
    rtp_obs::counter!("tensor.matmul.q8").inc();
    let use_avx2 = have_avx2();
    QA.with(|s| {
        let mut qa = s.borrow_mut();
        qa.clear();
        qa.resize(q.k_pad, 0);
        for i in 0..r {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * c..(i + 1) * c];
            let amax = arow.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            if amax == 0.0 || !amax.is_finite() {
                orow.iter_mut().for_each(|o| *o = 0.0);
                continue;
            }
            let sa = amax / 127.0;
            let inv = 127.0 / amax;
            for (dst, &v) in qa.iter_mut().zip(arow) {
                *dst = (v * inv).round().clamp(-127.0, 127.0) as i8;
            }
            for (j, o) in orow.iter_mut().enumerate() {
                let w = &q.qt[j * q.k_pad..(j + 1) * q.k_pad];
                let dot = if use_avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: AVX2 checked; both slices are k_pad long,
                    // a multiple of Q_LANES.
                    unsafe {
                        dot_i8_avx2(&qa, w)
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    dot_i8_scalar(&qa, w)
                } else {
                    dot_i8_scalar(&qa, w)
                };
                *o = (sa * q.scales[j]) * dot as f32;
            }
        }
    });
}

/// Exact i32 reference dot (also the non-AVX2 fallback). Order-free:
/// integer addition is associative, so this and the SIMD version agree
/// exactly.
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// i8×i8→i32 dot over `Q_LANES`-padded rows: `maddubs` needs one
/// unsigned operand, so the sign of `a` is moved onto `b`
/// (`|a| · sign(a)·b == a·b`); the pairwise i16 sums (≤ 2·127·127)
/// cannot saturate thanks to the ±127 clamp, and `madd` widens them to
/// i32 exactly.
///
/// # Safety
/// Caller must ensure AVX2 and `a.len() == b.len()`, a multiple of
/// [`Q_LANES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % Q_LANES, 0);
    let ap = a.as_ptr() as *const __m256i;
    let bp = b.as_ptr() as *const __m256i;
    let ones = _mm256_set1_epi16(1);
    let mut acc = _mm256_setzero_si256();
    for t in 0..a.len() / Q_LANES {
        let va = _mm256_loadu_si256(ap.add(t));
        let vb = _mm256_loadu_si256(bp.add(t));
        let abs_a = _mm256_sign_epi8(va, va);
        let sgn_b = _mm256_sign_epi8(vb, va);
        let pairs = _mm256_maddubs_epi16(abs_a, sgn_b);
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
    }
    let hi = _mm256_extracti128_si256(acc, 1);
    let lo = _mm256_castsi256_si128(acc);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 1));
    _mm_cvtsi128_si32(s)
}

// -------------------------------------------------------------------
// Quantized parameter set
// -------------------------------------------------------------------

/// Quantized snapshots of every eligible parameter in a
/// [`ParamStore`], indexed by [`ParamId`]. Built once per trained
/// model (weights are frozen at serve time); a [`crate::Tape`] running
/// `--numerics quantized` carries an `Arc` of this and swaps
/// param-RHS matmuls to [`matmul_q8`].
///
/// Eligibility: `rows >= QUANT_MIN_K && cols >= QUANT_MIN_C` — biases,
/// gains, scalar log-variances and other small tensors stay f32 (their
/// ops are not matmuls anyway, or too small to win).
#[derive(Debug)]
pub struct QuantSet {
    by_param: Vec<Option<QuantizedMatrix>>,
}

impl QuantSet {
    /// Quantizes every eligible parameter of `store`.
    pub fn build(store: &ParamStore) -> Self {
        let by_param = store
            .iter_ids()
            .map(|id| {
                let (rows, cols) = store.shape(id);
                (rows >= QUANT_MIN_K && cols >= QUANT_MIN_C)
                    .then(|| QuantizedMatrix::from_weights(store.data(id), rows, cols))
            })
            .collect();
        Self { by_param }
    }

    /// The quantized form of `id`, if it was eligible.
    pub fn get(&self, id: ParamId) -> Option<&QuantizedMatrix> {
        self.by_param.get(id.index()).and_then(|q| q.as_ref())
    }

    /// How many parameters carry a quantized snapshot.
    pub fn quantized_params(&self) -> usize {
        self.by_param.iter().filter(|q| q.is_some()).count()
    }

    /// Total heap bytes of all quantized snapshots.
    pub fn bytes(&self) -> usize {
        self.by_param.iter().flatten().map(QuantizedMatrix::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100] {
            let x = fill(n, 3 + n as u32);
            let mut d1 = fill(n, 5 + n as u32);
            let mut d2 = d1.clone();
            let s = 0.37f32;
            axpy(&mut d1, &x, s);
            for (d, &xv) in d2.iter_mut().zip(&x) {
                *d += s * xv;
            }
            let b1: Vec<u32> = d1.iter().map(|v| v.to_bits()).collect();
            let b2: Vec<u32> = d2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b1, b2, "axpy bits diverge at n={n}");
        }
    }

    #[test]
    fn quantized_dot_matches_scalar_reference() {
        for n in [32usize, 64, 96, 352] {
            let fa = fill(n, 11);
            let fb = fill(n, 13);
            let qa: Vec<i8> = fa.iter().map(|v| (v * 127.0) as i8).collect();
            let qb: Vec<i8> = fb.iter().map(|v| (v * 127.0) as i8).collect();
            let want = dot_i8_scalar(&qa, &qb);
            if have_avx2() {
                #[cfg(target_arch = "x86_64")]
                {
                    let got = unsafe { dot_i8_avx2(&qa, &qb) };
                    assert_eq!(got, want, "i8 dot mismatch at n={n}");
                }
            }
        }
    }

    #[test]
    fn quantize_dequantize_error_is_within_half_scale() {
        let (k, c) = (40, 9);
        let b = fill(k * c, 17);
        let q = QuantizedMatrix::from_weights(&b, k, c);
        let back = q.dequantize();
        for j in 0..c {
            let tol = q.scales()[j] * 0.5 + 1e-7;
            for kk in 0..k {
                let d = (b[kk * c + j] - back[kk * c + j]).abs();
                assert!(d <= tol, "round-trip error {d} > {tol} at ({kk},{j})");
            }
        }
    }

    #[test]
    fn all_zero_rows_and_channels_quantize_to_zero() {
        let (k, c) = (32, 4);
        let b = vec![0.0f32; k * c];
        let q = QuantizedMatrix::from_weights(&b, k, c);
        assert!(q.scales().iter().all(|&s| s == 0.0));
        let a = vec![0.0f32; 2 * k];
        let mut out = vec![f32::NAN; 2 * c];
        matmul_q8(&a, &q, &mut out, 2, k, c);
        assert!(out.iter().all(|&v| v == 0.0), "zero inputs must give exact zeros: {out:?}");
    }
}
