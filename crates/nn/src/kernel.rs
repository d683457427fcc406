//! Cache-blocked matmul kernels behind [`crate::Matrix::matmul`].
//!
//! The strategy is the classic GEMM decomposition: pack `B` into
//! column panels of width `NR` (k-major, so the micro-kernel streams it
//! linearly), pack each `MR`-row block of `A` k-major with zero-padded
//! fringe rows, and drive a register-tiled micro-kernel over the
//! `MR×NR` output tiles. Three micro-kernels are selected once per
//! process by runtime CPU feature detection:
//!
//! * AVX-512: 12×32 tile — 24 accumulator vectors + 2 panel loads,
//!   FMA, masked stores straight into the output (no spill buffer);
//! * AVX2+FMA: 6×16 tile with a small store-through buffer;
//! * portable: 4×8 tile in scalar Rust (autovectorizes to SSE2).
//!
//! Above `PAR_MIN_FLOPS` the row dimension is split into `MR`-aligned
//! blocks across the `saccs-rt` pool; below it the same kernel runs on
//! the calling thread. Every output element is a pure function of its
//! row of `A` and the shared packed `B` with a fixed k-ascending
//! accumulation order, so serial and parallel runs (and any two thread
//! counts) are **bitwise identical** — see `tests/parallel_determinism`.
//! Matrices smaller than `BLOCK_MIN_FLOPS` skip packing entirely and
//! use the plain i-k-j zero-skip reference loop: below that size `B`
//! fits in L1, the axpy inner loop autovectorizes, and the pack step
//! costs more than blocking saves.

/// `m·k·n` threshold below which packing costs more than it saves.
/// Training-shaped matmuls (`seq×dim` against `dim×dim` blocks, a few
/// masked rows against the vocab head) all fall under this and run the
/// reference loop, exactly like the pre-blocking kernel; only genuinely
/// large products (index build batches, the bench sizes) get packed.
const BLOCK_MIN_FLOPS: usize = 1_048_576;

/// Whether `m×k · k×n` always runs the zero-skip loop, row by row.
pub(crate) fn rows_independent(m: usize, k: usize, n: usize) -> bool {
    m * k * n < BLOCK_MIN_FLOPS
}

/// `m·k·n` threshold for fanning row blocks out across the pool; under
/// it the per-scope queue traffic outweighs the win even on wide hosts.
const PAR_MIN_FLOPS: usize = 2_000_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Avx512,
    Avx2Fma,
    Portable,
}

impl Kind {
    /// Micro-kernel register tile: (row count MR, panel width NR).
    fn tile(self) -> (usize, usize) {
        match self {
            Kind::Avx512 => (12, 32),
            Kind::Avx2Fma => (6, 16),
            Kind::Portable => (4, 8),
        }
    }
}

fn kind() -> Kind {
    static KIND: std::sync::OnceLock<Kind> = std::sync::OnceLock::new();
    *KIND.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Kind {
    if is_x86_feature_detected!("avx512f") {
        Kind::Avx512
    } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        Kind::Avx2Fma
    } else {
        Kind::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Kind {
    Kind::Portable
}

/// Name of the selected micro-kernel (bench/telemetry label).
pub fn kernel_name() -> &'static str {
    match kind() {
        Kind::Avx512 => "avx512_12x32",
        Kind::Avx2Fma => "avx2_6x16",
        Kind::Portable => "portable_4x8",
    }
}

/// `out += nothing; out = A·B` for row-major `a` (`m×k`), `b` (`k×n`)
/// into zeroed `out` (`m×n`), fanned out over at most `width` threads.
pub(crate) fn matmul_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    width: usize,
) {
    let flops = m * k * n;
    if flops < BLOCK_MIN_FLOPS || k == 0 || n == 0 {
        reference_zero_skip_into(a, b, m, k, n, out);
        return;
    }
    // Content dispatch: post-ReLU activations and masked gradients are
    // often half exact zeros, and the zero-skip axpy loop drops a whole
    // `n`-wide row of work per zero — the dense blocked kernel cannot.
    // The choice depends only on the *values* of `A` (never on thread
    // count or pool width), so every width still sees identical bits.
    let zeros = a.iter().filter(|&&x| x == 0.0).count();
    if zeros * 8 >= a.len() * 3 {
        reference_zero_skip_into(a, b, m, k, n, out);
        return;
    }
    let _span = saccs_obs::span!("nn.matmul");
    let kind = kind();
    let (mr, nr) = kind.tile();
    // Reuse a thread-local pack buffer across calls (`mem::take` so a
    // re-entrant call would simply allocate fresh instead of aliasing).
    let mut packed = PACK_B_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    pack_b(b, k, n, nr, &mut packed);
    let tasks = if width > 1 && flops >= PAR_MIN_FLOPS {
        width.min(m.div_ceil(mr))
    } else {
        1
    };
    if tasks <= 1 {
        saccs_obs::counter!("nn.matmul.serial").inc();
        run_rows(kind, a, 0, m, k, n, &packed, out);
    } else {
        saccs_obs::counter!("nn.matmul.parallel").inc();
        // MR-aligned row blocks; each task owns a disjoint slice of
        // `out`, so chunk boundaries never change any output bit.
        let chunk_rows = m.div_ceil(tasks).div_ceil(mr) * mr;
        saccs_rt::parallel_for_chunks(out, chunk_rows * n, |ci, chunk| {
            run_rows(
                kind,
                a,
                ci * chunk_rows,
                chunk.len() / n,
                k,
                n,
                &packed,
                chunk,
            );
        });
    }
    PACK_B_SCRATCH.with(|c| *c.borrow_mut() = packed);
}

thread_local! {
    /// Per-thread `pack_b` destination, reused across calls.
    static PACK_B_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Per-worker `A`-block pack buffer for [`run_rows`].
    static PACK_A_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The pre-blocking serial kernel (i-k-j with the zero-skip branch),
/// kept verbatim as the bench baseline and correctness oracle.
pub(crate) fn reference_zero_skip_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Pack `b` (`k×n` row-major) into `NR`-wide column panels, k-major:
/// panel `p` holds columns `[p·NR, p·NR+NR)` as `k` consecutive groups
/// of `NR` floats (zero-padded past column `n`).
fn pack_b(b: &[f32], k: usize, n: usize, nr: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    // `clear` + `resize` zero-fills like a fresh allocation (the fringe
    // padding must be zero) while keeping the capacity.
    packed.clear();
    packed.resize(panels * k * nr, 0.0);
    for p in 0..panels {
        let c0 = p * nr;
        let w = nr.min(n - c0);
        let dst = &mut packed[p * k * nr..(p + 1) * k * nr];
        for kk in 0..k {
            dst[kk * nr..kk * nr + w].copy_from_slice(&b[kk * n + c0..kk * n + c0 + w]);
        }
    }
}

/// Pack `mr` rows of `a` starting at row `i0` k-major with an `MR`
/// interleave: for each `kk`, `MR` consecutive values (rows past `mr`
/// zero-padded so fringe blocks reuse the full-tile micro-kernel).
fn pack_a_block(a: &[f32], i0: usize, mr: usize, k: usize, mr_tile: usize, dst: &mut [f32]) {
    for kk in 0..k {
        for r in 0..mr {
            dst[kk * mr_tile + r] = a[(i0 + r) * k + kk];
        }
        for r in mr..mr_tile {
            dst[kk * mr_tile + r] = 0.0;
        }
    }
}

/// Compute `rows` output rows starting at global row `i0` into `out`
/// (the row-major slice for exactly those rows).
#[allow(clippy::too_many_arguments)]
fn run_rows(
    kind: Kind,
    a: &[f32],
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    out: &mut [f32],
) {
    let (mr_tile, nr) = kind.tile();
    let panels = n.div_ceil(nr);
    // Per-worker reusable block buffer; `pack_a_block` writes every
    // slot (zero-padding the fringe itself), so stale contents are fine.
    let mut apack = PACK_A_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));
    apack.resize(k * mr_tile, 0.0);
    let mut i = 0;
    while i < rows {
        let mr = mr_tile.min(rows - i);
        pack_a_block(a, i0 + i, mr, k, mr_tile, &mut apack);
        for p in 0..panels {
            let c0 = p * nr;
            let w = nr.min(n - c0);
            let bp = &packed[p * k * nr..(p + 1) * k * nr];
            let dst_off = i * n + c0;
            match kind {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `kind()` returned Avx512 only after runtime
                // detection; pointers cover apack (k·12), the panel
                // (k·32) and `mr` out rows of ≥`w` floats each.
                Kind::Avx512 => unsafe {
                    x86::micro_avx512(
                        apack.as_ptr(),
                        bp.as_ptr(),
                        k,
                        out.as_mut_ptr().add(dst_off),
                        n,
                        mr,
                        w,
                    );
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, gated on avx2+fma detection.
                Kind::Avx2Fma => unsafe {
                    x86::micro_avx2(
                        apack.as_ptr(),
                        bp.as_ptr(),
                        k,
                        out.as_mut_ptr().add(dst_off),
                        n,
                        mr,
                        w,
                    );
                },
                #[cfg(not(target_arch = "x86_64"))]
                Kind::Avx512 | Kind::Avx2Fma => unreachable!("non-x86 detect() is Portable-only"),
                Kind::Portable => micro_portable(&apack, bp, k, out, dst_off, n, mr, w),
            }
        }
        i += mr;
    }
    PACK_A_SCRATCH.with(|c| *c.borrow_mut() = apack);
}

/// 4×8 scalar micro-kernel (the compiler autovectorizes the inner
/// accumulate); same packed layout as the SIMD kernels.
#[allow(clippy::too_many_arguments)]
fn micro_portable(
    apack: &[f32],
    bp: &[f32],
    k: usize,
    out: &mut [f32],
    dst_off: usize,
    n: usize,
    mr: usize,
    w: usize,
) {
    const MR: usize = 4;
    const NR: usize = 8;
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = &bp[kk * NR..kk * NR + NR];
        let arow = &apack[kk * MR..kk * MR + MR];
        for r in 0..MR {
            let av = arow[r];
            for (c, &bv) in brow.iter().enumerate() {
                acc[r][c] += av * bv;
            }
        }
    }
    for r in 0..mr {
        let dst = &mut out[dst_off + r * n..dst_off + r * n + w];
        dst.copy_from_slice(&acc[r][..w]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `target_feature` micro-kernels; callers guarantee detection.

    /// 12×32 AVX-512 tile: 24 zmm accumulators, FMA against two panel
    /// vectors, software prefetch 8 panel rows ahead, masked stores of
    /// the live `w × mr` window directly into the output.
    ///
    /// # Safety
    /// Requires AVX-512F at runtime; `ap` must hold `k·12` floats, `bp`
    /// `k·32` floats, and `out` must be writable for `mr` rows of at
    /// least `w` floats at stride `n`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn micro_avx512(
        ap: *const f32,
        bp: *const f32,
        k: usize,
        out: *mut f32,
        n: usize,
        mr: usize,
        w: usize,
    ) {
        use std::arch::x86_64::*;
        const MR: usize = 12;
        const NR: usize = 32;
        let mut c: [[__m512; 2]; MR] = [[_mm512_setzero_ps(); 2]; MR];
        for kk in 0..k {
            _mm_prefetch::<_MM_HINT_T0>(bp.add(kk * NR + 8 * NR) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(bp.add(kk * NR + 8 * NR + 16) as *const i8);
            let b0 = _mm512_loadu_ps(bp.add(kk * NR));
            let b1 = _mm512_loadu_ps(bp.add(kk * NR + 16));
            let arow = ap.add(kk * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*arow.add(r));
                cr[0] = _mm512_fmadd_ps(av, b0, cr[0]);
                cr[1] = _mm512_fmadd_ps(av, b1, cr[1]);
            }
        }
        let m0: u16 = if w >= 16 {
            0xFFFF
        } else {
            (1u32 << w) as u16 - 1
        };
        let m1: u16 = if w >= NR {
            0xFFFF
        } else if w > 16 {
            ((1u32 << (w - 16)) - 1) as u16
        } else {
            0
        };
        for (r, cr) in c.iter().enumerate().take(mr) {
            let dst = out.add(r * n);
            _mm512_mask_storeu_ps(dst, m0, cr[0]);
            if m1 != 0 {
                _mm512_mask_storeu_ps(dst.add(16), m1, cr[1]);
            }
        }
    }

    /// 6×16 AVX2+FMA tile; stores through a stack buffer because AVX2
    /// has no masked f32 store cheap enough to beat the copy.
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime; `ap` must hold `k·6` floats,
    /// `bp` `k·16` floats, and `out` must be writable for `mr` rows of
    /// at least `w` floats at stride `n`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro_avx2(
        ap: *const f32,
        bp: *const f32,
        k: usize,
        out: *mut f32,
        n: usize,
        mr: usize,
        w: usize,
    ) {
        use std::arch::x86_64::*;
        const MR: usize = 6;
        const NR: usize = 16;
        let mut c: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp.add(kk * NR));
            let b1 = _mm256_loadu_ps(bp.add(kk * NR + 8));
            let arow = ap.add(kk * MR);
            for (r, cr) in c.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*arow.add(r));
                cr[0] = _mm256_fmadd_ps(av, b0, cr[0]);
                cr[1] = _mm256_fmadd_ps(av, b1, cr[1]);
            }
        }
        let mut buf = [0.0f32; NR];
        for (r, cr) in c.iter().enumerate().take(mr) {
            _mm256_storeu_ps(buf.as_mut_ptr(), cr[0]);
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), cr[1]);
            let dst = out.add(r * n);
            for (cc, &v) in buf.iter().enumerate().take(w) {
                *dst.add(cc) = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, k: usize, seed: u32) -> Vec<f32> {
        (0..m * k)
            .map(|i| {
                ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    /// The blocked path must match the reference loop to fp tolerance
    /// for awkward shapes (fringe rows, fringe panels, tiny k). Driven
    /// through `pack_b` + `run_rows` directly so the shapes stay small
    /// regardless of where the dispatch threshold sits.
    #[test]
    fn blocked_matches_reference_on_fringe_shapes() {
        for &(m, k, n) in &[
            (1usize, 64usize, 300usize),
            (13, 40, 33),
            (64, 64, 64),
            (65, 31, 47),
            (128, 17, 129),
        ] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let mut want = vec![0.0f32; m * n];
            reference_zero_skip_into(&a, &b, m, k, n, &mut want);
            let mut got = vec![0.0f32; m * n];
            let kind = kind();
            let (_, nr) = kind.tile();
            let mut packed = Vec::new();
            pack_b(&b, k, n, nr, &mut packed);
            run_rows(kind, &a, 0, m, k, n, &packed, &mut got);
            let max = want
                .iter()
                .zip(&got)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max < 1e-3, "{m}x{k}x{n}: max diff {max}");
        }
    }

    #[test]
    fn zero_dims_are_safe() {
        let mut out = vec![0.0f32; 0];
        matmul_into(&[], &[], 0, 0, 0, &mut out, 4);
        let a = vec![1.0f32; 5];
        let mut out = vec![0.0f32; 0];
        matmul_into(&a, &[], 5, 1, 0, &mut out, 4);
    }

    #[test]
    fn kernel_name_is_stable() {
        // Whatever the host supports, repeated queries agree (dispatch
        // is cached) — the determinism contract depends on this.
        assert_eq!(kernel_name(), kernel_name());
    }
}
