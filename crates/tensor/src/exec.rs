//! One forward pass, two executors.
//!
//! [`Exec`] is the op set a model forward is written against. Two types
//! implement it:
//!
//! * [`Tape`] records every op for reverse-mode autodiff (training, discovery,
//!   interpretation);
//! * [`Eval`] computes values directly, with no graph: each value is a
//!   plain [`Matrix`] freed as soon as the forward drops it, and
//!   weight-consuming ops read a compiled [`Weights`] table in place instead
//!   of copying the weight per call (serving).
//!
//! Both executors compute every op with the same per-element expression,
//! iteration order and GEMM kernel, so a forward written once over [`Exec`]
//! is bit-identical under either (the op-level contract is tested below; the
//! model-level one by `cohortnet`'s `infer_identity` suite).
//!
//! ## Row groups
//!
//! A value may be *stacked*: `G` equal row groups, group `g` owning rows
//! `g·B .. g·B+B`. The weight-consuming ops take one [`ParamId`] per group
//! (`matmul_w`, `add_bias`, `gate_sigmoid`, `gate_tanh`; a single id is the
//! plain op), so one op runs `G` per-channel layers at once — the MFLM runs
//! each layer once per time step for all of its feature channels this way.
//! Group `g`'s rows see only weight `g`, and every element keeps the
//! arithmetic of the unstacked op: a GEMM element is one k-ascending chain
//! seeded at 0 whatever the row count, and `qgemm` quantizes each row on
//! its own.
//!
//! Every op maps an input row to the output row at the same position without
//! reading other rows, except [`Exec::fil_attention`], which reads the rows
//! at the same offset in every group — the same patient. Matmuls keep this
//! by the GEMM contract: parallelism splits output rows and each element is
//! one k-ascending chain. So a patient's outputs do not depend on which
//! other patients share the batch.

use crate::gemm::{gemm_view, View};
use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::quant::QuantMatrix;
use crate::tape::{Tape, Var};

/// The ops a model forward may use, written once for both executors.
///
/// Ops — and the layers built on them (`Linear::forward`, `GruCell::step`)
/// — borrow their operands, so a forward never has to clone a value to feed
/// it to several consumers.
pub trait Exec {
    /// Handle to an intermediate value.
    type V: Clone;
    /// Where weight-consuming ops look their [`ParamId`]s up.
    type Params;

    /// A constant (non-differentiable) input.
    fn constant(&mut self, m: Matrix) -> Self::V;
    /// Reads a value.
    fn value<'a>(&'a self, v: &'a Self::V) -> &'a Matrix;
    /// Matrix product `a · b`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `a · bᵀ`.
    fn matmul_nt(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Row-grouped `x · W`: `x` holds `w.len()` equal row groups (see the
    /// module docs) and group `g` is multiplied by `w[g]`. One id is the
    /// plain `x · W`.
    fn matmul_w(&mut self, ps: &Self::Params, x: &Self::V, w: &[ParamId]) -> Self::V;
    /// Row-grouped bias: adds the `(1 x c)` row `b[g]` to every row of
    /// group `g` of `x`.
    fn add_bias(&mut self, ps: &Self::Params, x: &Self::V, b: &[ParamId]) -> Self::V;
    /// Fused gate `σ(a + b + bias)`, with one bias row per row group.
    fn gate_sigmoid(
        &mut self,
        ps: &Self::Params,
        a: &Self::V,
        b: &Self::V,
        bias: &[ParamId],
    ) -> Self::V;
    /// Fused gate `tanh(a + b + bias)`, with one bias row per row group.
    fn gate_tanh(
        &mut self,
        ps: &Self::Params,
        a: &Self::V,
        b: &Self::V,
        bias: &[ParamId],
    ) -> Self::V;
    /// Fused GRU state blend `(1 - z) ⊙ h + z ⊙ cand`.
    fn gru_blend(&mut self, z: &Self::V, h: &Self::V, cand: &Self::V) -> Self::V;
    /// Element-wise sum.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Element-wise (Hadamard) product.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `(r x c) * (r x 1)`: scales row `r` of `a` by `w[r]`.
    fn mul_col_broadcast(&mut self, a: &Self::V, w: &Self::V) -> Self::V;
    /// Element-wise hyperbolic tangent.
    fn tanh(&mut self, a: &Self::V) -> Self::V;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: &Self::V) -> Self::V;
    /// Horizontal concatenation.
    fn concat_cols(&mut self, parts: &[&Self::V]) -> Self::V;
    /// The FIL attention core over `nf` features stacked in row groups
    /// (`q`, `k`: `(nf·B x d)`, `v`: `(nf·B x d_v)`), per batch row `r`:
    /// `α_ij = softmax_j((q_i·k_j) · scale)` and `u_i = Σ_j α_ij v_j`
    /// (written once in `exec::kernels`). Returns `(u, α)` stacked the same
    /// way: `u` is `(nf·B x d_v)`, and row `i·B + r` of the `(nf·B x nf)`
    /// `α` is feature `i`'s attention row. `α` is an output only: no
    /// gradient flows back through it.
    fn fil_attention(
        &mut self,
        q: &Self::V,
        k: &Self::V,
        v: &Self::V,
        nf: usize,
        scale: f32,
    ) -> (Self::V, Self::V);
    /// Splits a value of `groups` equal row groups into its groups.
    fn split_rows(&mut self, x: &Self::V, groups: usize) -> Vec<Self::V>;
}

impl Exec for Tape {
    type V = Var;
    type Params = ParamStore;

    fn constant(&mut self, m: Matrix) -> Var {
        Tape::constant(self, m)
    }
    fn value<'a>(&'a self, v: &'a Var) -> &'a Matrix {
        Tape::value(self, *v)
    }
    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }
    fn matmul_nt(&mut self, a: &Var, b: &Var) -> Var {
        let bt = self.transpose(*b);
        Tape::matmul(self, *a, bt)
    }
    fn matmul_w(&mut self, ps: &ParamStore, x: &Var, w: &[ParamId]) -> Var {
        let w0 = self.params(ps, w);
        self.matmul_groups(*x, w0, w.len())
    }
    fn add_bias(&mut self, ps: &ParamStore, x: &Var, b: &[ParamId]) -> Var {
        let b0 = self.params(ps, b);
        self.add_bias_groups(*x, b0, b.len())
    }
    fn gate_sigmoid(&mut self, ps: &ParamStore, a: &Var, b: &Var, bias: &[ParamId]) -> Var {
        let bias0 = self.params(ps, bias);
        self.gate_groups(*a, *b, bias0, bias.len(), false)
    }
    fn gate_tanh(&mut self, ps: &ParamStore, a: &Var, b: &Var, bias: &[ParamId]) -> Var {
        let bias0 = self.params(ps, bias);
        self.gate_groups(*a, *b, bias0, bias.len(), true)
    }
    fn gru_blend(&mut self, z: &Var, h: &Var, cand: &Var) -> Var {
        Tape::gru_blend(self, *z, *h, *cand)
    }
    fn add(&mut self, a: &Var, b: &Var) -> Var {
        Tape::add(self, *a, *b)
    }
    fn mul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::mul(self, *a, *b)
    }
    fn mul_col_broadcast(&mut self, a: &Var, w: &Var) -> Var {
        Tape::mul_col_broadcast(self, *a, *w)
    }
    fn tanh(&mut self, a: &Var) -> Var {
        Tape::tanh(self, *a)
    }
    fn softmax_rows(&mut self, a: &Var) -> Var {
        Tape::softmax_rows(self, *a)
    }
    fn concat_cols(&mut self, parts: &[&Var]) -> Var {
        let parts: Vec<Var> = parts.iter().map(|&&v| v).collect();
        Tape::concat_cols(self, &parts)
    }
    fn fil_attention(&mut self, q: &Var, k: &Var, v: &Var, nf: usize, scale: f32) -> (Var, Var) {
        Tape::fil_attention(self, *q, *k, *v, nf, scale)
    }
    fn split_rows(&mut self, x: &Var, groups: usize) -> Vec<Var> {
        Tape::split_rows(self, *x, groups)
    }
}

/// One compiled weight: the f32 matrix, or its int8 per-channel
/// quantization (see [`crate::quant`]).
#[derive(Debug, Clone)]
enum Weight {
    /// Full-precision weight, bit-identical to the [`ParamStore`] value.
    F32(Matrix),
    /// Int8 twin of a weight that is only ever the right operand of `x · W`.
    Int8(QuantMatrix),
}

/// The per-[`ParamId`] weight table [`Eval`] reads in place.
#[derive(Debug, Clone)]
pub struct Weights(Vec<Weight>);

impl Weights {
    /// Snapshots every parameter of `ps` at f32.
    pub fn from_store(ps: &ParamStore) -> Weights {
        Weights(ps.entries().map(|e| Weight::F32(e.value.clone())).collect())
    }

    /// Replaces weight `id` with its int8 quantization. Only weights used
    /// as the `W` of [`Exec::matmul_w`] may be quantized; a quantized bias
    /// panics at its first use.
    pub fn set_int8(&mut self, id: ParamId, q: QuantMatrix) {
        self.0[id.0] = Weight::Int8(q);
    }

    fn f32(&self, id: ParamId) -> &Matrix {
        match &self.0[id.0] {
            Weight::F32(m) => m,
            Weight::Int8(_) => panic!("weight {id:?} is used as a bias but is quantized"),
        }
    }

    fn weight(&self, id: ParamId) -> kernels::WeightRef<'_> {
        match &self.0[id.0] {
            Weight::F32(m) => kernels::WeightRef::F32(m),
            Weight::Int8(q) => kernels::WeightRef::Int8(q),
        }
    }
}

/// The non-recording executor: values are owned [`Matrix`]es dropped as
/// soon as the forward is done with them, and weights come from a compiled
/// [`Weights`] table.
///
/// Values are deliberately plain matrices, not `Arc<Matrix>`: a refcounted
/// handle costs a second heap allocation per op, and since every op borrows
/// its operands nothing needs sharing. The MFLM issues a fixed number of
/// ops per time step for all of its feature channels (41), so a patient
/// takes ~2.5·10³ ops at the paper's shape, F=32 and T=48.
#[derive(Debug)]
pub struct Eval;

impl Exec for Eval {
    type V = Matrix;
    type Params = Weights;

    fn constant(&mut self, m: Matrix) -> Matrix {
        m
    }
    fn value<'a>(&'a self, v: &'a Matrix) -> &'a Matrix {
        v
    }
    fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b)
    }
    fn matmul_nt(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul_nt(b)
    }
    fn matmul_w(&mut self, ps: &Weights, x: &Matrix, w: &[ParamId]) -> Matrix {
        kernels::matmul_groups(Vec::with_capacity, x, w.len(), |g| ps.weight(w[g]))
    }
    fn add_bias(&mut self, ps: &Weights, x: &Matrix, b: &[ParamId]) -> Matrix {
        let buf = Vec::with_capacity(x.len());
        kernels::add_row_broadcast(buf, x, b.len(), |g| ps.f32(b[g]))
    }
    fn gate_sigmoid(&mut self, ps: &Weights, a: &Matrix, b: &Matrix, bias: &[ParamId]) -> Matrix {
        let buf = Vec::with_capacity(a.len());
        kernels::gate(buf, a, b, bias.len(), |g| ps.f32(bias[g]), kernels::sigmoid)
    }
    fn gate_tanh(&mut self, ps: &Weights, a: &Matrix, b: &Matrix, bias: &[ParamId]) -> Matrix {
        let buf = Vec::with_capacity(a.len());
        kernels::gate(buf, a, b, bias.len(), |g| ps.f32(bias[g]), f32::tanh)
    }
    fn gru_blend(&mut self, z: &Matrix, h: &Matrix, cand: &Matrix) -> Matrix {
        kernels::gru_blend(Vec::with_capacity(z.len()), z, h, cand)
    }
    fn add(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        a.add(b)
    }
    fn mul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        a.mul(b)
    }
    fn mul_col_broadcast(&mut self, a: &Matrix, w: &Matrix) -> Matrix {
        kernels::mul_col_broadcast(Vec::with_capacity(a.len()), a, w)
    }
    fn tanh(&mut self, a: &Matrix) -> Matrix {
        a.map(f32::tanh)
    }
    fn softmax_rows(&mut self, a: &Matrix) -> Matrix {
        a.softmax_rows()
    }
    fn concat_cols(&mut self, parts: &[&Matrix]) -> Matrix {
        Matrix::concat_cols(parts)
    }
    fn fil_attention(
        &mut self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        nf: usize,
        scale: f32,
    ) -> (Matrix, Matrix) {
        kernels::fil_attention(q, k, v, nf, scale, Vec::with_capacity)
    }
    fn split_rows(&mut self, x: &Matrix, groups: usize) -> Vec<Matrix> {
        let rows = kernels::group_rows(x.rows(), groups);
        (0..groups)
            .map(|g| x.slice_rows(g * rows, (g + 1) * rows))
            .collect()
    }
}

/// The broadcast, grouped and fused kernels, written once for both
/// executors: the tape passes a recycled arena buffer, the evaluator a fresh
/// one (most serving values are a few floats, so an amortised-growth
/// allocation is a measurable share of an op). The plain element-wise ops
/// compute the same expressions on both executors — the tape into its arena
/// through `map`/`zip`, the evaluator through [`Matrix::add`] and friends,
/// which measured ~3% faster at batch 1.
pub(crate) mod kernels {
    use super::{gemm_view, View};
    use crate::matrix::{softmax_in_place, Matrix};
    use crate::quant::{qgemm_rows, QuantMatrix};

    /// Logistic sigmoid.
    pub(crate) fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Rows per group of a `total`-row value split into `groups` equal row
    /// groups.
    pub(crate) fn group_rows(total: usize, groups: usize) -> usize {
        assert!(
            groups > 0 && total.is_multiple_of(groups),
            "{total} rows do not split into {groups} equal row groups"
        );
        total / groups
    }

    /// A weight as a kernel reads it.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum WeightRef<'a> {
        /// Full precision.
        F32(&'a Matrix),
        /// Int8 per-channel quantization, run through `qgemm`.
        Int8(&'a QuantMatrix),
    }

    impl WeightRef<'_> {
        /// `(k, n)` of `x · W`.
        fn shape(self) -> (usize, usize) {
            match self {
                WeightRef::F32(m) => m.shape(),
                WeightRef::Int8(q) => (q.k(), q.n()),
            }
        }

        /// Whether both refer to the same stored weight.
        fn same(self, other: WeightRef) -> bool {
            match (self, other) {
                (WeightRef::F32(a), WeightRef::F32(b)) => std::ptr::eq(a, b),
                (WeightRef::Int8(a), WeightRef::Int8(b)) => std::ptr::eq(a, b),
                _ => false,
            }
        }
    }

    /// Row-grouped `x · W_g` for `groups` equal row groups of `x`, group `g`
    /// multiplied by `w(g)`. Consecutive groups that share one stored weight
    /// run as one product over their rows; that changes no bit, because a
    /// GEMM element is one k-ascending chain seeded at 0 whatever the row
    /// count and `qgemm` quantizes each row on its own. `buf(n)` supplies
    /// the output buffer (`n` floats).
    pub(crate) fn matmul_groups<'w>(
        buf: impl FnOnce(usize) -> Vec<f32>,
        x: &Matrix,
        groups: usize,
        w: impl Fn(usize) -> WeightRef<'w>,
    ) -> Matrix {
        let rows = group_rows(x.rows(), groups);
        let (k, n) = w(0).shape();
        let mut out = buf(x.rows() * n);
        out.resize(x.rows() * n, 0.0);
        let mut qrow = Vec::new();
        let mut g0 = 0;
        while g0 < groups {
            let wg = w(g0);
            assert_eq!(wg.shape(), (k, n), "row-group weights differ in shape");
            let mut g1 = g0 + 1;
            while g1 < groups && w(g1).same(wg) {
                g1 += 1;
            }
            let (r0, r1) = (g0 * rows, g1 * rows);
            let dst = &mut out[r0 * n..r1 * n];
            match wg {
                WeightRef::F32(m) => {
                    gemm_view(false, false, View::rows(x, r0, r1), m.into(), dst, false)
                }
                WeightRef::Int8(q) => {
                    assert_eq!(x.cols(), k, "qgemm inner dimension mismatch");
                    qrow.resize(k, 0);
                    qgemm_rows(&x.as_slice()[r0 * k..r1 * k], q, dst, &mut qrow);
                }
            }
            g0 = g1;
        }
        Matrix::from_vec(x.rows(), n, out)
    }

    /// Element-wise `f(x)`.
    pub(crate) fn map(mut buf: Vec<f32>, a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        buf.extend(a.as_slice().iter().map(|&x| f(x)));
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// Element-wise `f(x, y)` of two equally shaped matrices.
    pub(crate) fn zip(
        mut buf: Vec<f32>,
        a: &Matrix,
        b: &Matrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "element-wise shape mismatch");
        buf.extend(
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f(x, y)),
        );
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// Row-grouped `(r x c) + (1 x c)`: adds the row vector `bias(g)` to
    /// every row of group `g` of `a`.
    pub(crate) fn add_row_broadcast<'b>(
        mut buf: Vec<f32>,
        a: &Matrix,
        groups: usize,
        bias: impl Fn(usize) -> &'b Matrix,
    ) -> Matrix {
        let rows = group_rows(a.rows(), groups);
        for g in 0..groups {
            let bias = bias(g);
            assert_eq!(bias.rows(), 1, "bias must be a row vector");
            assert_eq!(a.cols(), bias.cols(), "bias width mismatch");
            let bias_row = bias.row(0);
            for r in g * rows..(g + 1) * rows {
                buf.extend(a.row(r).iter().zip(bias_row).map(|(&x, &b)| x + b));
            }
        }
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// `(r x c) * (r x 1)`: scales row `r` of `a` by `w[r]`.
    pub(crate) fn mul_col_broadcast(mut buf: Vec<f32>, a: &Matrix, w: &Matrix) -> Matrix {
        assert_eq!(w.cols(), 1, "weight must be a column vector");
        assert_eq!(a.rows(), w.rows(), "weight height mismatch");
        for r in 0..a.rows() {
            let s = w[(r, 0)];
            buf.extend(a.row(r).iter().map(|&x| x * s));
        }
        Matrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// Fused gate `act(a + b + bias(g))` for `groups` equal row groups. The
    /// pre-activation `(x + y) + c` is SIMD-dispatched (lane-per-element,
    /// scalar add order — bit-identical across backends); the
    /// transcendental stays scalar libm.
    pub(crate) fn gate<'b>(
        mut buf: Vec<f32>,
        a: &Matrix,
        b: &Matrix,
        groups: usize,
        bias: impl Fn(usize) -> &'b Matrix,
        act: impl Fn(f32) -> f32,
    ) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "gate operand shape mismatch");
        let (rows, cols) = (group_rows(a.rows(), groups), a.cols());
        buf.resize(a.len(), 0.0);
        for g in 0..groups {
            let bias = bias(g);
            assert_eq!(bias.rows(), 1, "gate bias must be a row vector");
            assert_eq!(bias.cols(), cols, "gate bias width mismatch");
            for r in g * rows..(g + 1) * rows {
                let row = &mut buf[r * cols..(r + 1) * cols];
                crate::simd::add3(row, a.row(r), b.row(r), bias.row(0));
            }
        }
        for p in buf.iter_mut() {
            *p = act(*p);
        }
        Matrix::from_vec(a.rows(), cols, buf)
    }

    /// Fused GRU state blend `(1 - z) ⊙ h + z ⊙ cand`, SIMD-dispatched with
    /// the scalar operation order.
    pub(crate) fn gru_blend(mut buf: Vec<f32>, z: &Matrix, h: &Matrix, cand: &Matrix) -> Matrix {
        assert_eq!(z.shape(), h.shape(), "blend shape mismatch");
        assert_eq!(z.shape(), cand.shape(), "blend shape mismatch");
        buf.resize(z.len(), 0.0);
        crate::simd::gru_blend_slices(&mut buf, z.as_slice(), h.as_slice(), cand.as_slice());
        Matrix::from_vec(z.rows(), z.cols(), buf)
    }

    /// The FIL attention core (Eq. 2) for `nf` features stacked in row
    /// groups of `q`, `k` and `v`: per batch row `r`,
    /// `α_ij = softmax_j((q_i·k_j) · scale)` and `u_i = Σ_j α_ij v_j`, where
    /// `x_j` is row `j·B + r` of `x`. Returns `(u, α)` stacked the same way;
    /// `buf(n)` supplies each output's buffer (`n` floats).
    ///
    /// Every element is computed in the order of the composed op chain
    /// (`mul` → `sum_cols` → `scale` → `concat_cols` → `softmax_rows` →
    /// `slice_cols` → `mul_col_broadcast` → `add`) that FIL was written as
    /// before this kernel, so existing snapshots score to the same bits: a
    /// score is the product row summed by `Iterator::sum` (its `-0.0` seed
    /// included) and then scaled; the softmax is [`Matrix::softmax_rows`]'s
    /// own body; and `u_i` starts at `α_i0 v_0`, not at `0.0`, then adds
    /// `α_ij v_j` for `j` ascending. Patients never mix, so a row's outputs
    /// do not depend on its batch.
    pub(crate) fn fil_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        nf: usize,
        scale: f32,
        mut buf: impl FnMut(usize) -> Vec<f32>,
    ) -> (Matrix, Matrix) {
        assert!(nf > 0, "FIL attention needs at least one feature");
        let batch = group_rows(q.rows(), nf);
        let d_v = v.cols();
        assert_eq!(k.shape(), q.shape(), "FIL q/k shape mismatch");
        assert_eq!(v.rows(), q.rows(), "FIL v shape mismatch");
        let mut a = buf(q.rows() * nf);
        a.resize(q.rows() * nf, 0.0);
        let mut u = buf(q.rows() * d_v);
        u.resize(q.rows() * d_v, 0.0);
        for row in 0..q.rows() {
            let r = row % batch;
            let q_row = q.row(row);
            let a_row = &mut a[row * nf..(row + 1) * nf];
            for (j, s) in a_row.iter_mut().enumerate() {
                let dot: f32 = q_row
                    .iter()
                    .zip(k.row(j * batch + r))
                    .map(|(&x, &y)| x * y)
                    .sum();
                *s = dot * scale;
            }
            softmax_in_place(a_row);
            let u_row = &mut u[row * d_v..(row + 1) * d_v];
            for (o, &x) in u_row.iter_mut().zip(v.row(r)) {
                *o = x * a_row[0];
            }
            for (j, &a_j) in a_row.iter().enumerate().skip(1) {
                for (o, &x) in u_row.iter_mut().zip(v.row(j * batch + r)) {
                    *o += x * a_j;
                }
            }
        }
        (
            Matrix::from_vec(q.rows(), d_v, u),
            Matrix::from_vec(q.rows(), nf, a),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::qgemm;

    fn m(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic awkward fill: mixes signs, magnitudes and zeros.
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0;
            v * 0.37
        })
    }

    /// Parameter ids of the op fixtures: plain weights and a bias, plus
    /// three weights and three biases for the three-group ops.
    #[derive(Clone, Copy)]
    struct Ids {
        w: ParamId,
        bias: ParamId,
        q: ParamId,
        ws: [ParamId; 3],
        biases: [ParamId; 3],
    }

    fn store() -> (ParamStore, Ids) {
        let mut ps = ParamStore::new();
        let w = ps.register("w", m(5, 3, 6));
        let bias = ps.register("bias", m(1, 5, 3));
        let q = ps.register("q", m(5, 7, 8));
        let ws = [10, 11, 12].map(|s| ps.register(format!("w{s}"), m(5, 3, s)));
        let biases = [20, 21, 22].map(|s| ps.register(format!("b{s}"), m(1, 5, s)));
        let ids = Ids {
            w,
            bias,
            q,
            ws,
            biases,
        };
        (ps, ids)
    }

    /// Runs every [`Exec`] op once on executor `e`, returning each result:
    /// the plain ops, then the three-group ops over `(12 x 5)` values, then
    /// the stacked FIL outputs and the group split.
    fn every_op<E: Exec>(e: &mut E, ps: &E::Params, ids: Ids) -> Vec<Matrix> {
        let a = e.constant(m(4, 5, 1));
        let b = e.constant(m(4, 5, 2));
        let col = e.constant(m(4, 1, 4));
        let rhs = e.constant(m(5, 3, 5));
        let z = e.softmax_rows(&a);
        let cand = e.tanh(&b);
        let sa = e.constant(m(12, 5, 13));
        let sb = e.constant(m(12, 5, 14));
        let sv = e.tanh(&sb);
        let (u, alpha) = e.fil_attention(&sa, &sb, &sv, 3, 0.7);
        let parts = e.split_rows(&sa, 3);
        let outs = [
            e.matmul(&a, &rhs),
            e.matmul_nt(&a, &b),
            e.matmul_w(ps, &a, &[ids.w]),
            e.matmul_w(ps, &a, &[ids.q]),
            e.add_bias(ps, &a, &[ids.bias]),
            e.gate_sigmoid(ps, &a, &b, &[ids.bias]),
            e.gate_tanh(ps, &a, &b, &[ids.bias]),
            e.gru_blend(&z, &a, &cand),
            e.add(&a, &b),
            e.mul(&a, &b),
            e.mul_col_broadcast(&a, &col),
            cand.clone(),
            z.clone(),
            e.concat_cols(&[&a, &col, &b]),
            e.matmul_w(ps, &sa, &ids.ws),
            e.matmul_w(ps, &sa, &[ids.w; 3]),
            e.add_bias(ps, &sa, &ids.biases),
            e.gate_sigmoid(ps, &sa, &sb, &ids.biases),
            e.gate_tanh(ps, &sa, &sb, &ids.biases),
            u,
            alpha,
        ];
        outs.iter()
            .chain(&parts)
            .map(|v| e.value(v).clone())
            .collect()
    }

    fn assert_bits_eq(got: &[Matrix], want: &[Matrix], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.shape(), w.shape(), "op {i} shape");
            for (gv, wv) in g.as_slice().iter().zip(w.as_slice()) {
                assert_eq!(gv.to_bits(), wv.to_bits(), "op {i} drifted ({what})");
            }
        }
    }

    /// Rows `[g·rows, (g+1)·rows)` of `x`.
    fn group(x: &Matrix, g: usize, rows: usize) -> Matrix {
        x.slice_rows(g * rows, (g + 1) * rows)
    }

    /// Every [`Exec`] op computes the same bits on the tape and on the
    /// evaluator, so a drift in one op fails here before any model-level
    /// identity test does.
    #[test]
    fn every_op_matches_tape_bitwise() {
        let (ps, ids) = store();
        let want = every_op(&mut Tape::new(), &ps, ids);
        let got = every_op(&mut Eval, &Weights::from_store(&ps), ids);
        assert_bits_eq(&got, &want, "eval vs tape");
    }

    /// A row-grouped op computes, on each group, the bits of the plain op
    /// on that group alone — for distinct weights, a shared weight and one
    /// group — so stacking channels changes no bit.
    #[test]
    fn grouped_ops_match_per_group_ops() {
        let (ps, ids) = store();
        let weights = Weights::from_store(&ps);
        let e = &mut Eval;
        let (x, y) = (m(12, 5, 13), m(12, 5, 14));
        let shared = [ids.w; 3];
        let cases: [(&[ParamId], &[ParamId]); 3] = [
            (&ids.ws, &ids.biases),
            (&shared, &[ids.bias; 3]),
            (&ids.ws[1..2], &ids.biases[1..2]),
        ];
        for (ws, bs) in cases {
            let rows = 12 / ws.len();
            let stacked = [
                e.matmul_w(&weights, &x, ws),
                e.add_bias(&weights, &x, bs),
                e.gate_sigmoid(&weights, &x, &y, bs),
                e.gate_tanh(&weights, &x, &y, bs),
            ];
            for g in 0..ws.len() {
                let (xg, yg) = (group(&x, g, rows), group(&y, g, rows));
                let want = [
                    e.matmul_w(&weights, &xg, &ws[g..=g]),
                    e.add_bias(&weights, &xg, &bs[g..=g]),
                    e.gate_sigmoid(&weights, &xg, &yg, &bs[g..=g]),
                    e.gate_tanh(&weights, &xg, &yg, &bs[g..=g]),
                ];
                let got: Vec<Matrix> = stacked.iter().map(|s| group(s, g, rows)).collect();
                assert_bits_eq(&got, &want, &format!("group {g} of {}", ws.len()));
                assert_bits_eq(&want[..1], &[xg.matmul(ps.value(ws[g]))], "plain matmul");
            }
        }
    }

    /// An int8 weight routes `matmul_w` through `qgemm`; every other op is
    /// untouched.
    #[test]
    fn int8_weight_runs_the_quantized_kernel() {
        let (ps, ids) = store();
        let f32_outs = every_op(&mut Eval, &Weights::from_store(&ps), ids);
        let mut weights = Weights::from_store(&ps);
        let qm = QuantMatrix::quantize(ps.value(ids.q));
        weights.set_int8(ids.q, qm.clone());
        let q_outs = every_op(&mut Eval, &weights, ids);
        let x = m(4, 5, 1);
        let mut want = Matrix::zeros(4, 7);
        qgemm(&x, &qm, &mut want);
        assert_bits_eq(&q_outs[3..4], &[want], "qgemm");
        assert_bits_eq(&q_outs[..3], &f32_outs[..3], "untouched ops");
        assert_bits_eq(&q_outs[4..], &f32_outs[4..], "untouched ops");
    }

    /// Groups of one grouped `matmul_w` may mix f32 and int8 weights: each
    /// group runs its own kernel, `qgemm` row by row for the int8 ones.
    #[test]
    fn mixed_f32_and_int8_groups() {
        let (ps, ids) = store();
        let mut weights = Weights::from_store(&ps);
        let q1 = QuantMatrix::quantize(ps.value(ids.ws[1]));
        weights.set_int8(ids.ws[1], q1.clone());
        let x = m(12, 5, 13);
        let got = Eval.matmul_w(&weights, &x, &ids.ws);
        let mut mid = Matrix::zeros(4, 3);
        qgemm(&group(&x, 1, 4), &q1, &mut mid);
        let want = Matrix::concat_rows(&[
            &group(&x, 0, 4).matmul(ps.value(ids.ws[0])),
            &mid,
            &group(&x, 2, 4).matmul(ps.value(ids.ws[2])),
        ]);
        assert_bits_eq(&[got], &[want], "mixed groups");
    }

    /// The fused gate/blend ops, plain and row-grouped, are bit-identical
    /// under every SIMD backend the host supports (including ragged row
    /// widths).
    #[test]
    fn gate_kernels_bit_identical_across_backends() {
        let mut ps = ParamStore::new();
        let bias = ps.register("bias", m(1, 19, 9));
        let biases = [30, 31, 32].map(|s| ps.register(format!("b{s}"), m(1, 19, s)));
        let weights = Weights::from_store(&ps);
        let e = &mut Eval;
        let a = e.constant(m(5, 19, 7));
        let b = e.constant(m(5, 19, 8));
        let sa = e.constant(m(15, 19, 17));
        let sb = e.constant(m(15, 19, 18));
        let z = e.softmax_rows(&a);
        let cand = e.tanh(&b);
        let mut run = || {
            vec![
                e.gate_sigmoid(&weights, &a, &b, &[bias]),
                e.gate_tanh(&weights, &a, &b, &[bias]),
                e.gru_blend(&z, &a, &cand),
                e.gate_sigmoid(&weights, &sa, &sb, &biases),
                e.gate_tanh(&weights, &sa, &sb, &biases),
            ]
        };

        let before = crate::simd::active();
        assert!(crate::simd::set_backend(crate::simd::Backend::Scalar));
        let want = run();
        for backend in crate::simd::supported_backends() {
            assert!(crate::simd::set_backend(backend));
            assert_bits_eq(&run(), &want, &format!("{backend:?}"));
        }
        crate::simd::set_backend(before);
    }

    /// The FIL attention chain `fil_attention` replaced, composed from
    /// separate tape ops: the test-only oracle for the fused op's values
    /// and gradients.
    fn composed_fil(
        t: &mut Tape,
        q: &[Var],
        k: &[Var],
        v: &[Var],
        scale: f32,
    ) -> (Vec<Var>, Vec<Var>) {
        let mut us = Vec::new();
        let mut alphas = Vec::new();
        for &qi in q {
            let scores: Vec<Var> = k
                .iter()
                .map(|&kj| {
                    let qk = t.mul(qi, kj);
                    let s = t.sum_cols(qk);
                    t.scale(s, scale)
                })
                .collect();
            let mat = t.concat_cols(&scores);
            let alpha = t.softmax_rows(mat);
            let mut u: Option<Var> = None;
            for (j, &vj) in v.iter().enumerate() {
                let a_j = t.slice_cols(alpha, j, j + 1);
                let w = t.mul_col_broadcast(vj, a_j);
                u = Some(match u {
                    Some(acc) => t.add(acc, w),
                    None => w,
                });
            }
            us.push(u.unwrap());
            alphas.push(alpha);
        }
        (us, alphas)
    }

    /// Inputs for one FIL case: `nf` features of `(batch x d)` with zeros,
    /// negative values and signed zeros mixed in.
    fn fil_inputs(nf: usize, batch: usize, d: usize, seed: u32) -> [Vec<Matrix>; 3] {
        [0, 1, 2].map(|set| {
            (0..nf)
                .map(|f| {
                    let s = seed as usize + set * 7919 + f * 131;
                    Matrix::from_fn(batch, d, |r, c| match (r * 5 + c * 3 + s) % 11 {
                        0 => 0.0,
                        1 => -0.0,
                        n => (n as f32 - 5.5) * 0.29 + (s % 7) as f32 * 0.013,
                    })
                })
                .collect()
        })
    }

    /// The per-feature matrices stacked into one feature-major value.
    fn stack(ms: &[Matrix]) -> Matrix {
        Matrix::concat_rows(&ms.iter().collect::<Vec<_>>())
    }

    /// A stacked value split back into its `nf` per-feature matrices.
    fn unstack(x: &Matrix, nf: usize) -> Vec<Matrix> {
        Eval.split_rows(x, nf)
    }

    /// Runs FIL on a fresh tape, fused (over stacked inputs) or composed
    /// (over per-feature ones), with a loss that gives every `u_i` element
    /// its own gradient; returns `(u, α, dq, dk, dv)` per feature.
    fn fil_on_tape(fused: bool, inputs: &[Vec<Matrix>; 3], scale: f32) -> [Vec<Matrix>; 5] {
        let mut t = Tape::new();
        let nf = inputs[0].len();
        let loss = |t: &mut Tape, us: &[Var]| {
            let joined = t.concat_cols(us);
            let (rows, cols) = t.value(joined).shape();
            let target =
                Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 * 0.2 - 0.4);
            let loss = t.mse(joined, target);
            t.backward(loss);
        };
        let values = |t: &Tape, vs: &[Var]| vs.iter().map(|&v| t.value(v).clone()).collect();
        if fused {
            let [q, k, v] = inputs.each_ref().map(|ms| t.constant(stack(ms)));
            let (u, alpha) = t.fil_attention(q, k, v, nf, scale);
            let us = t.split_rows(u, nf);
            loss(&mut t, &us);
            let grad = |x: Var| unstack(t.grad(x).unwrap(), nf);
            return [
                values(&t, &us),
                unstack(t.value(alpha), nf),
                grad(q),
                grad(k),
                grad(v),
            ];
        }
        let [q, k, v] = inputs
            .clone()
            .map(|ms| ms.into_iter().map(|m| t.constant(m)).collect::<Vec<_>>());
        let (us, alphas) = composed_fil(&mut t, &q, &k, &v, scale);
        loss(&mut t, &us);
        let grads = |t: &Tape, vs: &[Var]| vs.iter().map(|&v| t.grad(v).unwrap().clone()).collect();
        [
            values(&t, &us),
            values(&t, &alphas),
            grads(&t, &q),
            grads(&t, &k),
            grads(&t, &v),
        ]
    }

    /// The fused op computes the composed chain's bits — forward on both
    /// executors, and the tape's gradients — at one, a few and many
    /// features, odd widths, batch 1 and 5, with zeros of both signs.
    #[test]
    fn fil_attention_matches_composed_oracle_bitwise() {
        for (nf, d, batch) in [
            (1, 3, 1),
            (1, 4, 5),
            (3, 5, 1),
            (3, 7, 5),
            (33, 5, 1),
            (33, 8, 5),
        ] {
            let scale = 1.0 / (d as f32).sqrt();
            let inputs = fil_inputs(nf, batch, d, (nf * 10 + d) as u32);
            let want = fil_on_tape(false, &inputs, scale);
            let got = fil_on_tape(true, &inputs, scale);
            let what = format!("F={nf} d={d} batch={batch}");
            for (part, name) in ["u", "alpha", "dq", "dk", "dv"].iter().enumerate() {
                assert_bits_eq(&got[part], &want[part], &format!("{name}, {what}"));
            }
            let [q, k, v] = inputs.each_ref().map(|ms| stack(ms));
            let (u, alpha) = Eval.fil_attention(&q, &k, &v, nf, scale);
            let (us, alphas) = (unstack(&u, nf), unstack(&alpha, nf));
            assert_bits_eq(&us, &want[0], &format!("eval u, {what}"));
            assert_bits_eq(&alphas, &want[1], &format!("eval alpha, {what}"));
        }
    }

    /// In the feature-stacked layout one patient's rows are spread over
    /// every group (row `f·B + r`). Patient `r`'s outputs of every stacked
    /// op depend on its own rows only: rewriting every other patient's rows
    /// leaves them unchanged, and so does scoring the patient alone — at
    /// batch 1, 5 and 17.
    #[test]
    fn stacked_ops_rows_are_independent() {
        let nf = 3;
        let mut ps = ParamStore::new();
        let ws: Vec<ParamId> = (0..nf as u32)
            .map(|s| ps.register(format!("w{s}"), m(4, 3, 40 + s)))
            .collect();
        let bs: Vec<ParamId> = (0..nf as u32)
            .map(|s| ps.register(format!("b{s}"), m(1, 4, 50 + s)))
            .collect();
        let weights = Weights::from_store(&ps);
        // Every stacked op on inputs `x`, `y` of `nf` groups.
        let run = |x: &Matrix, y: &Matrix| -> Vec<Matrix> {
            let e = &mut Eval;
            let v = e.tanh(y);
            let (u, alpha) = e.fil_attention(x, y, &v, nf, 0.5);
            let mut outs = vec![
                e.matmul_w(&weights, x, &ws),
                e.add_bias(&weights, x, &bs),
                e.gate_sigmoid(&weights, x, y, &bs),
                e.gate_tanh(&weights, x, y, &bs),
                u,
                alpha,
            ];
            outs.extend(e.split_rows(x, nf));
            outs
        };
        // Patient `r`'s rows of a stacked `(nf·batch x c)` value.
        let patient = |x: &Matrix, batch: usize, r: usize| -> Matrix {
            let rows: Vec<Matrix> = (0..x.rows() / batch)
                .map(|f| x.slice_rows(f * batch + r, f * batch + r + 1))
                .collect();
            Matrix::concat_rows(&rows.iter().collect::<Vec<_>>())
        };
        for batch in [1, 5, 17] {
            let r = batch / 2;
            let (x, y) = (m(nf * batch, 4, 60), m(nf * batch, 4, 61));
            let (x2, y2) = (m(nf * batch, 4, 70), m(nf * batch, 4, 71));
            // Patient r's rows kept, every other row rewritten.
            let splice = |base: &Matrix, other: &Matrix| {
                Matrix::from_fn(nf * batch, 4, |i, c| {
                    if i % batch == r {
                        base[(i, c)]
                    } else {
                        other[(i, c)]
                    }
                })
            };
            let want: Vec<Matrix> = run(&x, &y).iter().map(|o| patient(o, batch, r)).collect();
            let spliced: Vec<Matrix> = run(&splice(&x, &x2), &splice(&y, &y2))
                .iter()
                .map(|o| patient(o, batch, r))
                .collect();
            let what = format!("batch {batch}");
            assert_bits_eq(&spliced, &want, &format!("other rows rewritten, {what}"));
            let alone = run(&patient(&x, batch, r), &patient(&y, batch, r));
            assert_bits_eq(&alone, &want, &format!("alone, {what}"));
        }
    }

    /// `Matrix::matmul` (fresh, non-accumulating) equals the tape's
    /// accumulate-into-zeros matmul bit-for-bit: both are one k-ascending
    /// chain per element seeded at 0.
    #[test]
    fn matmul_matches_tape_bitwise() {
        let a = m(6, 7, 5);
        let b = m(7, 4, 6);
        let mut t = Tape::new();
        let av = t.constant(a.clone());
        let bv = t.constant(b.clone());
        let want = t.matmul(av, bv);
        let got = a.matmul(&b);
        for (g, w) in got.as_slice().iter().zip(t.value(want).as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
