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
//! model-level one by `cohortnet`'s `infer_identity` suite). Every op maps
//! input row `r` to output row `r` without reading other rows — matmuls by
//! the GEMM contract: parallelism splits output rows and each element is one
//! k-ascending chain — so a patient's outputs do not depend on which other
//! patients share the batch.

use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use crate::quant::{qgemm, QuantMatrix};
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
    /// `x · W` for the weight `w`.
    fn matmul_w(&mut self, ps: &Self::Params, x: &Self::V, w: ParamId) -> Self::V;
    /// `(r x c) + (1 x c)`: adds the bias row `b` to every row of `x`.
    fn add_bias(&mut self, ps: &Self::Params, x: &Self::V, b: ParamId) -> Self::V;
    /// Fused gate `σ(a + b + bias)`.
    fn gate_sigmoid(
        &mut self,
        ps: &Self::Params,
        a: &Self::V,
        b: &Self::V,
        bias: ParamId,
    ) -> Self::V;
    /// Fused gate `tanh(a + b + bias)`.
    fn gate_tanh(&mut self, ps: &Self::Params, a: &Self::V, b: &Self::V, bias: ParamId) -> Self::V;
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
    /// The FIL attention core over `F = q.len()` features, per batch row:
    /// `α_ij = softmax_j((q_i·k_j) · scale)` and `u_i = Σ_j α_ij v_j`
    /// (written once in `exec::kernels`). Returns `(u, α)`: `u[i]` is
    /// `(batch x d_v)`, `α[i]` the `(batch x F)` attention row of feature
    /// `i`. `α` is an output only: no gradient flows back through it.
    fn fil_attention(
        &mut self,
        q: &[Self::V],
        k: &[Self::V],
        v: &[Self::V],
        scale: f32,
    ) -> (Vec<Self::V>, Vec<Self::V>);
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
    fn matmul_w(&mut self, ps: &ParamStore, x: &Var, w: ParamId) -> Var {
        let w = self.param(ps, w);
        Tape::matmul(self, *x, w)
    }
    fn add_bias(&mut self, ps: &ParamStore, x: &Var, b: ParamId) -> Var {
        let b = self.param(ps, b);
        self.add_row_broadcast(*x, b)
    }
    fn gate_sigmoid(&mut self, ps: &ParamStore, a: &Var, b: &Var, bias: ParamId) -> Var {
        let bias = self.param(ps, bias);
        Tape::gate_sigmoid(self, *a, *b, bias)
    }
    fn gate_tanh(&mut self, ps: &ParamStore, a: &Var, b: &Var, bias: ParamId) -> Var {
        let bias = self.param(ps, bias);
        Tape::gate_tanh(self, *a, *b, bias)
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
    fn fil_attention(
        &mut self,
        q: &[Var],
        k: &[Var],
        v: &[Var],
        scale: f32,
    ) -> (Vec<Var>, Vec<Var>) {
        Tape::fil_attention(self, q, k, v, scale)
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
}

/// The non-recording executor: values are owned [`Matrix`]es dropped as
/// soon as the forward is done with them, and weights come from a compiled
/// [`Weights`] table.
///
/// Values are deliberately plain matrices, not `Arc<Matrix>`: a refcounted
/// handle costs a second heap allocation per op (a patient takes ~6.5·10⁴
/// ops at the paper's shape, F=32 and T=48; at ~3.6·10⁵, before FIL was one
/// op, the handles made batch-1 scoring ~1.8× slower), and since every op
/// borrows its operands nothing needs sharing.
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
    fn matmul_w(&mut self, ps: &Weights, x: &Matrix, w: ParamId) -> Matrix {
        match &ps.0[w.0] {
            Weight::F32(w) => x.matmul(w),
            Weight::Int8(q) => {
                let mut out = Matrix::zeros(x.rows(), q.n());
                qgemm(x, q, &mut out);
                out
            }
        }
    }
    fn add_bias(&mut self, ps: &Weights, x: &Matrix, b: ParamId) -> Matrix {
        kernels::add_row_broadcast(Vec::with_capacity(x.len()), x, ps.f32(b))
    }
    fn gate_sigmoid(&mut self, ps: &Weights, a: &Matrix, b: &Matrix, bias: ParamId) -> Matrix {
        kernels::gate(
            Vec::with_capacity(a.len()),
            a,
            b,
            ps.f32(bias),
            kernels::sigmoid,
        )
    }
    fn gate_tanh(&mut self, ps: &Weights, a: &Matrix, b: &Matrix, bias: ParamId) -> Matrix {
        kernels::gate(Vec::with_capacity(a.len()), a, b, ps.f32(bias), f32::tanh)
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
        q: &[Matrix],
        k: &[Matrix],
        v: &[Matrix],
        scale: f32,
    ) -> (Vec<Matrix>, Vec<Matrix>) {
        kernels::fil_attention(q, k, v, scale, Vec::with_capacity)
    }
}

/// The broadcast and fused kernels, written once for both executors: the
/// tape passes a recycled arena buffer, the evaluator a fresh one of
/// exactly the output size (most serving values are a few floats, so an
/// amortised-growth allocation is a measurable share of an op). The plain
/// element-wise ops compute the same expressions on both executors — the
/// tape into its arena through `map`/`zip`, the evaluator through
/// [`Matrix::add`] and friends, which measured ~3% faster at batch 1.
pub(crate) mod kernels {
    use crate::matrix::{softmax_in_place, Matrix};
    use std::borrow::Borrow;

    /// Logistic sigmoid.
    pub(crate) fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
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

    /// `(r x c) + (1 x c)`: adds the row vector `bias` to every row of `a`.
    pub(crate) fn add_row_broadcast(mut buf: Vec<f32>, a: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(a.cols(), bias.cols(), "bias width mismatch");
        let bias_row = bias.row(0);
        for r in 0..a.rows() {
            buf.extend(a.row(r).iter().zip(bias_row).map(|(&x, &b)| x + b));
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

    /// Fused gate `act(a + b + bias)`. The pre-activation `(x + y) + c` is
    /// SIMD-dispatched (lane-per-element, scalar add order — bit-identical
    /// across backends); the transcendental stays scalar libm.
    pub(crate) fn gate(
        mut buf: Vec<f32>,
        a: &Matrix,
        b: &Matrix,
        bias: &Matrix,
        act: impl Fn(f32) -> f32,
    ) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "gate operand shape mismatch");
        assert_eq!(bias.rows(), 1, "gate bias must be a row vector");
        assert_eq!(bias.cols(), a.cols(), "gate bias width mismatch");
        let cols = a.cols();
        buf.resize(a.len(), 0.0);
        for r in 0..a.rows() {
            let row = &mut buf[r * cols..(r + 1) * cols];
            crate::simd::add3(row, a.row(r), b.row(r), bias.row(0));
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

    /// The FIL attention core (Eq. 2) for `F = q.len()` features: per batch
    /// row, `α_ij = softmax_j((q_i·k_j) · scale)` and `u_i = Σ_j α_ij v_j`.
    /// Returns `(u, α)` per query feature; `buf(n)` supplies each output's
    /// buffer (`n` floats).
    ///
    /// Every element is computed in the order of the composed op chain
    /// (`mul` → `sum_cols` → `scale` → `concat_cols` → `softmax_rows` →
    /// `slice_cols` → `mul_col_broadcast` → `add`) that FIL was written as
    /// before this kernel, so existing snapshots score to the same bits: a
    /// score is the product row summed by `Iterator::sum` (its `-0.0` seed
    /// included) and then scaled; the softmax is [`Matrix::softmax_rows`]'s
    /// own body; and `u_i` starts at `α_i0 v_0`, not at `0.0`, then adds
    /// `α_ij v_j` for `j` ascending. Rows never mix, so a row's outputs do
    /// not depend on its batch.
    pub(crate) fn fil_attention<M: Borrow<Matrix>>(
        q: &[M],
        k: &[M],
        v: &[M],
        scale: f32,
        mut buf: impl FnMut(usize) -> Vec<f32>,
    ) -> (Vec<Matrix>, Vec<Matrix>) {
        let nf = q.len();
        assert!(nf > 0, "FIL attention needs at least one feature");
        assert!(
            k.len() == nf && v.len() == nf,
            "FIL attention needs one q, k and v per feature"
        );
        let (batch, d) = q[0].borrow().shape();
        let d_v = v[0].borrow().cols();
        for m in q.iter().chain(k) {
            assert_eq!(m.borrow().shape(), (batch, d), "FIL q/k shape mismatch");
        }
        for m in v {
            assert_eq!(m.borrow().shape(), (batch, d_v), "FIL v shape mismatch");
        }
        let mut us = Vec::with_capacity(nf);
        let mut alphas = Vec::with_capacity(nf);
        for qi in q {
            let qi = qi.borrow();
            let mut a = buf(batch * nf);
            a.resize(batch * nf, 0.0);
            let mut u = buf(batch * d_v);
            u.resize(batch * d_v, 0.0);
            for r in 0..batch {
                let q_row = qi.row(r);
                let a_row = &mut a[r * nf..(r + 1) * nf];
                for (s, kj) in a_row.iter_mut().zip(k) {
                    let dot: f32 = q_row
                        .iter()
                        .zip(kj.borrow().row(r))
                        .map(|(&x, &y)| x * y)
                        .sum();
                    *s = dot * scale;
                }
                softmax_in_place(a_row);
                let u_row = &mut u[r * d_v..(r + 1) * d_v];
                for (o, &x) in u_row.iter_mut().zip(v[0].borrow().row(r)) {
                    *o = x * a_row[0];
                }
                for (&a_j, vj) in a_row.iter().zip(v).skip(1) {
                    for (o, &x) in u_row.iter_mut().zip(vj.borrow().row(r)) {
                        *o += x * a_j;
                    }
                }
            }
            us.push(Matrix::from_vec(batch, d_v, u));
            alphas.push(Matrix::from_vec(batch, nf, a));
        }
        (us, alphas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Deterministic awkward fill: mixes signs, magnitudes and zeros.
        Matrix::from_fn(rows, cols, |r, c| {
            let v = ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0;
            v * 0.37
        })
    }

    /// Runs every [`Exec`] op once on executor `e`, returning each result.
    fn every_op<E: Exec>(e: &mut E, ps: &E::Params, ids: [ParamId; 3]) -> Vec<Matrix> {
        let [w, bias, q] = ids;
        let a = e.constant(m(4, 5, 1));
        let b = e.constant(m(4, 5, 2));
        let col = e.constant(m(4, 1, 4));
        let rhs = e.constant(m(5, 3, 5));
        let z = e.softmax_rows(&a);
        let cand = e.tanh(&b);
        let (us, alphas) = e.fil_attention(
            &[a.clone(), b.clone()],
            &[b.clone(), a.clone()],
            &[cand.clone(), a.clone()],
            0.7,
        );
        let outs = [
            e.matmul(&a, &rhs),
            e.matmul_nt(&a, &b),
            e.matmul_w(ps, &a, w),
            e.matmul_w(ps, &a, q),
            e.add_bias(ps, &a, bias),
            e.gate_sigmoid(ps, &a, &b, bias),
            e.gate_tanh(ps, &a, &b, bias),
            e.gru_blend(&z, &a, &cand),
            e.add(&a, &b),
            e.mul(&a, &b),
            e.mul_col_broadcast(&a, &col),
            cand.clone(),
            z.clone(),
            e.concat_cols(&[&a, &col, &b]),
        ];
        outs.iter()
            .chain(&us)
            .chain(&alphas)
            .map(|v| e.value(v).clone())
            .collect()
    }

    fn store() -> (ParamStore, [ParamId; 3]) {
        let mut ps = ParamStore::new();
        let w = ps.register("w", m(5, 3, 6));
        let bias = ps.register("bias", m(1, 5, 3));
        let q = ps.register("q", m(5, 7, 8));
        (ps, [w, bias, q])
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

    /// An int8 weight routes `matmul_w` through `qgemm`; every other op is
    /// untouched.
    #[test]
    fn int8_weight_runs_the_quantized_kernel() {
        let (ps, ids) = store();
        let f32_outs = every_op(&mut Eval, &Weights::from_store(&ps), ids);
        let mut weights = Weights::from_store(&ps);
        let qm = QuantMatrix::quantize(ps.value(ids[2]));
        weights.set_int8(ids[2], qm.clone());
        let q_outs = every_op(&mut Eval, &weights, ids);
        let x = m(4, 5, 1);
        let mut want = Matrix::zeros(4, 7);
        qgemm(&x, &qm, &mut want);
        assert_bits_eq(&q_outs[3..4], &[want], "qgemm");
        assert_bits_eq(&q_outs[..3], &f32_outs[..3], "untouched ops");
        assert_bits_eq(&q_outs[4..], &f32_outs[4..], "untouched ops");
    }

    /// The fused gate/blend ops are bit-identical under every SIMD backend
    /// the host supports (including ragged row widths).
    #[test]
    fn gate_kernels_bit_identical_across_backends() {
        let mut ps = ParamStore::new();
        let bias = ps.register("bias", m(1, 19, 9));
        let weights = Weights::from_store(&ps);
        let e = &mut Eval;
        let a = e.constant(m(5, 19, 7));
        let b = e.constant(m(5, 19, 8));
        let z = e.softmax_rows(&a);
        let cand = e.tanh(&b);
        let mut run = || {
            vec![
                e.gate_sigmoid(&weights, &a, &b, bias),
                e.gate_tanh(&weights, &a, &b, bias),
                e.gru_blend(&z, &a, &cand),
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

    /// Runs FIL on a fresh tape, fused or composed, with a loss that gives
    /// every `u_i` element its own gradient; returns `(u, α, dq, dk, dv)`.
    fn fil_on_tape(fused: bool, inputs: &[Vec<Matrix>; 3], scale: f32) -> [Vec<Matrix>; 5] {
        let mut t = Tape::new();
        let [q, k, v] = inputs
            .clone()
            .map(|ms| ms.into_iter().map(|m| t.constant(m)).collect::<Vec<_>>());
        let (us, alphas) = if fused {
            t.fil_attention(&q, &k, &v, scale)
        } else {
            composed_fil(&mut t, &q, &k, &v, scale)
        };
        let joined = t.concat_cols(&us);
        let (rows, cols) = t.value(joined).shape();
        let target = Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 * 0.2 - 0.4);
        let loss = t.mse(joined, target);
        t.backward(loss);
        let values = |t: &Tape, vs: &[Var]| vs.iter().map(|&v| t.value(v).clone()).collect();
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
            let [q, k, v] = &inputs;
            let (us, alphas) = Eval.fil_attention(q, k, v, scale);
            assert_bits_eq(&us, &want[0], &format!("eval u, {what}"));
            assert_bits_eq(&alphas, &want[1], &format!("eval alpha, {what}"));
        }
    }

    /// Row `r`'s outputs depend on row `r` of the inputs only: rewriting
    /// every other row leaves them unchanged, and so does scoring the row
    /// alone.
    #[test]
    fn fil_attention_rows_are_independent() {
        let (nf, batch, d) = (4, 5, 3);
        let [q, k, v] = fil_inputs(nf, batch, d, 3);
        let [q2, k2, v2] = fil_inputs(nf, batch, d, 9);
        let r = 2;
        let splice = |base: &[Matrix], other: &[Matrix]| -> Vec<Matrix> {
            base.iter()
                .zip(other)
                .map(|(b, o)| {
                    Matrix::from_fn(batch, d, |i, c| if i == r { b[(i, c)] } else { o[(i, c)] })
                })
                .collect()
        };
        let (want_u, want_a) = Eval.fil_attention(&q, &k, &v, 0.5);
        let (got_u, got_a) =
            Eval.fil_attention(&splice(&q, &q2), &splice(&k, &k2), &splice(&v, &v2), 0.5);
        let row = |ms: &[Matrix], i: usize| -> Vec<Matrix> {
            ms.iter()
                .map(|m| Matrix::from_vec(1, m.cols(), m.row(i).to_vec()))
                .collect()
        };
        assert_bits_eq(&row(&got_u, r), &row(&want_u, r), "u under other rows");
        assert_bits_eq(&row(&got_a, r), &row(&want_a, r), "alpha under other rows");
        let (solo_u, solo_a) = Eval.fil_attention(&row(&q, r), &row(&k, r), &row(&v, r), 0.5);
        assert_bits_eq(&solo_u, &row(&want_u, r), "u alone");
        assert_bits_eq(&solo_a, &row(&want_a, r), "alpha alone");
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
