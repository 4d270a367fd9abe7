//! Blocked, register-tiled f32 GEMM — the single kernel entry point behind
//! every matrix product in the workspace.
//!
//! [`gemm_into`] computes `C (+)= op(A) · op(B)` where each operand is
//! optionally transposed *logically* (no transposed copy is ever
//! materialised). The four transpose variants (NN, TN, NT, TT) share one
//! dispatch, so `Matrix::matmul`, `matmul_acc`, and the transpose-fused
//! backward products (`Aᵀ·B`, `A·Bᵀ`) all have a single owner.
//!
//! # Determinism contract
//!
//! Every output element is produced by exactly one accumulation chain that
//! adds the `k` terms in strictly increasing `k` order, starting from the
//! element's prior value (zero when not accumulating):
//!
//! ```text
//! c_ij = ((((c0 + a_i0·b_0j) + a_i1·b_1j) + …) + a_i,K-1·b_K-1,j)
//! ```
//!
//! There is no K-blocking of partial sums, no FMA contraction, and no
//! per-element sparsity branch, so the blocked/packed path, the small-matrix
//! path, and a naive branch-free triple loop all produce bit-identical
//! results. Parallelism only ever splits the *output rows* into disjoint
//! blocks — each element still has one owner and one chain — so results are
//! bit-identical for every thread count. This mirrors the discovery runtime's
//! determinism contract and is what lets data-parallel training reproduce the
//! sequential loss trajectory exactly.
//!
//! # Kernel layout
//!
//! The blocked path packs `op(B)` once into K-major `NR`-wide column panels
//! and walks the output in `MR x NR` register tiles; `op(A)` is packed per
//! `MR`-row strip into a K-major tile so the micro-kernel's inner loop is a
//! pure streaming multiply-add over two contiguous buffers. The micro-kernel
//! and the panel width `NR` come from [`crate::simd`]'s runtime-dispatched
//! backend (AVX2 uses 16-wide panels, SSE2/scalar 8-wide); every backend
//! honours the same per-element chain, so the choice is invisible in the
//! output bits. Small products skip packing entirely and use cache-friendly
//! loop orders chosen per transpose variant (the chain order is the same
//! either way).

use crate::matrix::Matrix;
use crate::simd::{self, GemmSpec, MR};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Output rows handed to one parallel task (multiple of `MR`).
const ROW_BLOCK: usize = 64;
/// Below this many multiply-adds the packed path costs more than it saves.
const PACK_MIN_WORK: usize = 8 * 1024;
/// Below this many multiply-adds threading costs more than it saves.
const PAR_MIN_WORK: usize = 256 * 1024;

/// Worker threads GEMM may use: 0 = auto (hardware), 1 = sequential.
static GEMM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker-thread budget for subsequent GEMM calls (process-wide).
///
/// `0` means "use the hardware parallelism", `1` (the default) keeps GEMM
/// sequential — the right setting whenever an outer layer (minibatch shards,
/// discovery chunks) already owns the threads. Results are bit-identical for
/// every setting; this knob only trades wall-clock.
pub fn set_gemm_threads(n: usize) {
    GEMM_THREADS.store(n, Ordering::Relaxed);
}

/// Current GEMM worker-thread budget (see [`set_gemm_threads`]).
pub fn gemm_threads() -> usize {
    GEMM_THREADS.load(Ordering::Relaxed)
}

/// A borrowed row-major matrix: `rows x cols` floats, row `r` at
/// `data[r * cols..]`. Lets a product run over a row range of a larger
/// matrix (one row group of a feature-stacked value) without copying it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    /// Rows `[start, end)` of `m`.
    pub(crate) fn rows(m: &'a Matrix, start: usize, end: usize) -> View<'a> {
        assert!(start <= end && end <= m.rows(), "row range out of bounds");
        let cols = m.cols();
        View {
            data: &m.as_slice()[start * cols..end * cols],
            rows: end - start,
            cols,
        }
    }

    #[inline]
    fn row(&self, r: usize) -> &'a [f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl<'a> From<&'a Matrix> for View<'a> {
    fn from(m: &'a Matrix) -> View<'a> {
        View::rows(m, 0, m.rows())
    }
}

#[inline]
fn op_shape(m: View, transposed: bool) -> (usize, usize) {
    if transposed {
        (m.cols, m.rows)
    } else {
        (m.rows, m.cols)
    }
}

/// `C (+)= op(A) · op(B)` — the one kernel entry point.
///
/// `ta` / `tb` select the logical transpose of each operand; `accumulate`
/// chooses between `C +=` and `C =`. See the module docs for the determinism
/// contract.
///
/// # Panics
/// Panics on inner-dimension or output-shape mismatch.
pub fn gemm_into(ta: bool, tb: bool, a: &Matrix, b: &Matrix, out: &mut Matrix, accumulate: bool) {
    let (m, n) = (op_shape(a.into(), ta).0, op_shape(b.into(), tb).1);
    assert_eq!(
        out.shape(),
        (m, n),
        "gemm output shape: expected {}x{}, got {}x{}",
        m,
        n,
        out.rows(),
        out.cols()
    );
    gemm_view(ta, tb, a.into(), b.into(), out.as_mut_slice(), accumulate);
}

/// [`gemm_into`] over borrowed operands: `out` is the row-major
/// `op(A).rows x op(B).cols` output.
pub(crate) fn gemm_view(ta: bool, tb: bool, a: View, b: View, out: &mut [f32], accumulate: bool) {
    let (m, ka) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(
        ka, kb,
        "matmul shape mismatch: op(A) is {}x{}, op(B) is {}x{}",
        m, ka, kb, n
    );
    assert_eq!(out.len(), m * n, "gemm output size mismatch");
    if !accumulate {
        out.fill(0.0);
    }
    if m == 0 || n == 0 || ka == 0 {
        return;
    }

    let work = m * n * ka;
    if work < PACK_MIN_WORK {
        gemm_small(ta, tb, a, b, out, n);
        return;
    }

    // Pack op(B) once into K-major panels (width set by the active SIMD
    // backend), shared by every row block.
    let spec = simd::gemm_spec();
    let packed_b = pack_b(b, tb, ka, n, spec.nr);

    let threads = if work >= PAR_MIN_WORK {
        let blocks = m.div_ceil(ROW_BLOCK);
        cohortnet_parallel::resolve_threads(gemm_threads(), blocks)
    } else {
        1
    };

    let row_chunk = ROW_BLOCK * n;
    if threads <= 1 {
        for (block, chunk) in out.chunks_mut(row_chunk).enumerate() {
            gemm_row_block(ta, a, &packed_b, chunk, block * ROW_BLOCK, n, ka, spec);
        }
    } else {
        let packed_b = &packed_b;
        cohortnet_parallel::par_chunks_mut(threads, out, row_chunk, |block, chunk| {
            gemm_row_block(ta, a, packed_b, chunk, block * ROW_BLOCK, n, ka, spec)
        });
    }
}

/// Packs `op(B)` (K x n) into ceil(n/panel_nr) panels, each K-major and
/// `panel_nr` floats wide, zero-padded on the right edge. Panel `p` holds
/// columns `p*panel_nr .. (p+1)*panel_nr`; within a panel, the `k`-th row of
/// `panel_nr` values is contiguous, so the micro-kernel streams it with unit
/// stride. The width comes from the active backend's [`GemmSpec`]; packing
/// layout never affects the per-element chains, so backends with different
/// widths remain bit-identical.
fn pack_b(b: View, tb: bool, k_dim: usize, n: usize, panel_nr: usize) -> Vec<f32> {
    let panels = n.div_ceil(panel_nr);
    let mut packed = vec![0.0f32; panels * k_dim * panel_nr];
    for p in 0..panels {
        let j0 = p * panel_nr;
        let nr = panel_nr.min(n - j0);
        let panel = &mut packed[p * k_dim * panel_nr..(p + 1) * k_dim * panel_nr];
        if tb {
            // op(B)[k][j] = B[j][k]: walk B rows j0..j0+nr once each.
            for j in 0..nr {
                let src = b.row(j0 + j);
                for k in 0..k_dim {
                    panel[k * panel_nr + j] = src[k];
                }
            }
        } else {
            for k in 0..k_dim {
                let src = &b.row(k)[j0..j0 + nr];
                panel[k * panel_nr..k * panel_nr + nr].copy_from_slice(src);
            }
        }
    }
    packed
}

/// Computes one ROW_BLOCK-rows slice of the output against all packed panels.
/// `chunk` is the row-major output storage for rows `i0 ..` (its length
/// determines how many rows this block really has).
#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    ta: bool,
    a: View,
    packed_b: &[f32],
    chunk: &mut [f32],
    i0: usize,
    n: usize,
    k_dim: usize,
    spec: GemmSpec,
) {
    debug_assert_eq!(chunk.len() % n, 0);
    let block_rows = chunk.len() / n;
    let panel_nr = spec.nr;
    let panels = n.div_ceil(panel_nr);
    let mut a_tile = vec![0.0f32; k_dim * MR];
    let mut strip = 0;
    while strip < block_rows {
        let mr = MR.min(block_rows - strip);
        pack_a_strip(a, ta, i0 + strip, mr, k_dim, &mut a_tile);
        for p in 0..panels {
            let j0 = p * panel_nr;
            let nr = panel_nr.min(n - j0);
            let panel = &packed_b[p * k_dim * panel_nr..(p + 1) * k_dim * panel_nr];
            (spec.kernel)(
                k_dim,
                &a_tile,
                panel,
                &mut chunk[strip * n + j0..],
                n,
                mr,
                nr,
            );
        }
        strip += MR;
    }
}

/// Packs `mr` rows of `op(A)` starting at row `i0` into a K-major MR-wide
/// tile (`tile[k*MR + i] = op(A)[i0+i][k]`), zero-padding unused rows.
fn pack_a_strip(a: View, ta: bool, i0: usize, mr: usize, k_dim: usize, tile: &mut [f32]) {
    debug_assert!(tile.len() >= k_dim * MR);
    if ta {
        // op(A)[i][k] = A[k][i]: walk A rows (= k index) once each.
        for k in 0..k_dim {
            let src = &a.row(k)[i0..i0 + mr];
            let dst = &mut tile[k * MR..k * MR + MR];
            dst[..mr].copy_from_slice(src);
            dst[mr..].fill(0.0);
        }
    } else {
        for k in 0..k_dim {
            let dst = &mut tile[k * MR..k * MR + MR];
            for i in 0..mr {
                dst[i] = a.row(i0 + i)[k];
            }
            dst[mr..].fill(0.0);
        }
    }
}

/// Unpacked path for small products: per-variant loop orders that keep the
/// inner loop contiguous where possible. Accumulation order per element is
/// identical to the packed path (increasing k, starting from the prior
/// value), so the two paths are bit-identical. `out` has `n` columns.
fn gemm_small(ta: bool, tb: bool, a: View, b: View, out: &mut [f32], n: usize) {
    let k_dim = op_shape(a, ta).1;
    match (ta, tb) {
        (false, false) => {
            // i-k-j: stream A row i and B row k. No `a_ik == 0.0` skip —
            // the branch costs more than the multiply on dense data and
            // breaks chain-identity with the packed path for signed zeros.
            for (a_row, out_row) in a.data.chunks_exact(a.cols).zip(out.chunks_exact_mut(n)) {
                for (&a_ik, b_row) in a_row.iter().zip(b.data.chunks_exact(n)) {
                    for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
        (true, false) => {
            // Aᵀ·B, k-i-j: stream A row k (holding op(A) column k entries)
            // and B row k; k outer keeps every element's chain k-increasing.
            for (a_row, b_row) in a.data.chunks_exact(a.cols).zip(b.data.chunks_exact(n)) {
                for (out_row, &a_ik) in out.chunks_exact_mut(n).zip(a_row) {
                    for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
        (false, true) => {
            // A·Bᵀ, i-j-k: each element is a dot of two contiguous rows.
            for (a_row, out_row) in a.data.chunks_exact(a.cols).zip(out.chunks_exact_mut(n)) {
                for (o, b_row) in out_row.iter_mut().zip(b.data.chunks_exact(b.cols)) {
                    let mut s = *o;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        s += x * y;
                    }
                    *o = s;
                }
            }
        }
        (true, true) => {
            // Aᵀ·Bᵀ: rare (completeness only) — direct indexing.
            for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = b.row(j);
                    let mut s = *o;
                    for k in 0..k_dim {
                        s += a.row(k)[i] * b_row[k];
                    }
                    *o = s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Branch-free naive reference: the chain every path must match exactly.
    fn naive(ta: bool, tb: bool, a: &Matrix, b: &Matrix, init: Option<&Matrix>) -> Matrix {
        let (m, k_dim) = op_shape(a.into(), ta);
        let (_, n) = op_shape(b.into(), tb);
        let mut out = match init {
            Some(c) => c.clone(),
            None => Matrix::zeros(m, n),
        };
        for i in 0..m {
            for j in 0..n {
                let mut s = out[(i, j)];
                for k in 0..k_dim {
                    let a_ik = if ta { a[(k, i)] } else { a[(i, k)] };
                    let b_kj = if tb { b[(j, k)] } else { b[(k, j)] };
                    s += a_ik * b_kj;
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0..2.0))
    }

    fn assert_bits_equal(got: &Matrix, want: &Matrix, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
        for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{ctx}: element {idx} differs: {g} vs {w}"
            );
        }
    }

    #[test]
    fn all_variants_match_naive_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Sizes straddle both the small-path and packed-path thresholds and
        // exercise ragged tile edges (non-multiples of MR/NR).
        for &(m, k_dim, n) in &[(1, 1, 1), (3, 5, 2), (7, 9, 11), (33, 17, 29), (64, 40, 50)] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let a = if ta {
                    random_matrix(&mut rng, k_dim, m)
                } else {
                    random_matrix(&mut rng, m, k_dim)
                };
                let b = if tb {
                    random_matrix(&mut rng, n, k_dim)
                } else {
                    random_matrix(&mut rng, k_dim, n)
                };
                let mut out = Matrix::zeros(m, n);
                gemm_into(ta, tb, &a, &b, &mut out, false);
                let want = naive(ta, tb, &a, &b, None);
                assert_bits_equal(&out, &want, &format!("{m}x{k_dim}x{n} ta={ta} tb={tb}"));

                // Accumulating variant: chain must start from the prior value.
                let init = random_matrix(&mut rng, m, n);
                let mut out = init.clone();
                gemm_into(ta, tb, &a, &b, &mut out, true);
                let want = naive(ta, tb, &a, &b, Some(&init));
                assert_bits_equal(&out, &want, &format!("acc {m}x{k_dim}x{n} ta={ta} tb={tb}"));
            }
        }
    }

    #[test]
    fn packed_path_matches_naive_on_large_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, 150, 70);
        let b = random_matrix(&mut rng, 70, 90);
        let mut out = Matrix::zeros(150, 90);
        gemm_into(false, false, &a, &b, &mut out, false);
        assert_bits_equal(&out, &naive(false, false, &a, &b, None), "packed 150x70x90");
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let a = random_matrix(&mut rng, 200, 80);
        let b = random_matrix(&mut rng, 80, 96);
        let mut reference = Matrix::zeros(200, 96);
        set_gemm_threads(1);
        gemm_into(false, false, &a, &b, &mut reference, false);
        for threads in [2, 4, 8] {
            set_gemm_threads(threads);
            let mut out = Matrix::zeros(200, 96);
            gemm_into(false, false, &a, &b, &mut out, false);
            assert_bits_equal(&out, &reference, &format!("threads={threads}"));
        }
        set_gemm_threads(1);
    }

    #[test]
    fn every_backend_matches_naive_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        // Large enough for the packed path, ragged against both the 8-wide
        // and 16-wide panel edges.
        let a = random_matrix(&mut rng, 70, 45);
        let b = random_matrix(&mut rng, 45, 37);
        let want = naive(false, false, &a, &b, None);
        let before = crate::simd::active();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            let mut out = Matrix::zeros(70, 37);
            gemm_into(false, false, &a, &b, &mut out, false);
            assert_bits_equal(&out, &want, &format!("backend={}", backend.name()));
        }
        crate::simd::set_backend(before);
    }

    #[test]
    fn signed_zero_columns_stay_branch_free() {
        // A zero in A must still contribute `0.0 * b` to the chain: with the
        // old sparsity skip, (-0.0) + 0.0*b = -0.0 vs skipped = -0.0 is fine
        // but 0-chain prefixes differ once mixed signs appear. Lock the
        // branch-free behaviour down with exact bits.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![-0.0, -0.0]);
        let mut out = Matrix::zeros(1, 1);
        gemm_into(false, false, &a, &b, &mut out, false);
        // 0.0 + 0.0*(-0.0) + 1.0*(-0.0) = 0.0 + 0.0 + (-0.0) = 0.0
        assert_eq!(out[(0, 0)].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn empty_inner_dim_is_identity_for_accumulate() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut out = Matrix::full(2, 3, 7.0);
        gemm_into(false, false, &a, &b, &mut out, true);
        assert!(out.as_slice().iter().all(|&x| x == 7.0));
        gemm_into(false, false, &a, &b, &mut out, false);
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }
}
