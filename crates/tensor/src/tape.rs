//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a computation graph of [`Matrix`] values for one forward
//! pass (typically one mini-batch). Calling [`Tape::backward`] propagates
//! gradients from a scalar loss to every node; [`Tape::flush_grads`] then
//! accumulates gradients of parameter leaves into the shared
//! [`crate::param::ParamStore`].
//!
//! The op set is deliberately small — just what recurrent/attention models
//! over EHR data need — and every op's backward rule is validated against
//! finite differences in `crate::gradcheck` tests.
//!
//! ## Buffer arena
//!
//! A tape owns free-lists of `f32` buffers recycled across training steps:
//! call [`Tape::reset`] instead of constructing a fresh tape each minibatch
//! and every node value/gradient allocated by the previous step is reused.
//! One epoch then settles into a steady state with essentially zero allocator
//! traffic from the tape — the dominant cost of the small per-feature models
//! this workspace trains (thousands of tiny nodes per batch).

use crate::exec::kernels;
use crate::gemm::{gemm_view, View};
use crate::matrix::Matrix;
use crate::param::{ParamId, ParamStore};
use std::collections::BTreeMap;

/// The buffer arena: recycled buffers keyed by capacity. A request for `n`
/// floats reuses a free buffer of capacity exactly `n`, else allocates one,
/// so a step that repeats the previous step's shapes allocates nothing and
/// no buffer holds a value much smaller than itself. (With one free-list
/// for all sizes, the many small parameter leaves inherited the capacity of
/// large feature-stacked values and the tape's memory grew by half.)
/// [`Arena::trim`] keeps, per size, only as many buffers as the last step
/// asked for, so sizes nobody requests (constants, say) cannot pile up.
#[derive(Default)]
struct Arena {
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Requests per size since the last trim.
    demand: BTreeMap<usize, usize>,
}

impl Arena {
    /// An empty buffer with capacity for `n` floats.
    fn grab(&mut self, n: usize) -> Vec<f32> {
        *self.demand.entry(n).or_default() += 1;
        match self.free.get_mut(&n).and_then(Vec::pop) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(n),
        }
    }

    /// Returns a buffer for reuse.
    fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.entry(buf.capacity()).or_default().push(buf);
        }
    }

    /// Frees the buffers beyond the last step's demand for their size.
    fn trim(&mut self) {
        let demand = std::mem::take(&mut self.demand);
        self.free.retain(|size, bufs| {
            bufs.truncate(demand.get(size).copied().unwrap_or(0));
            !bufs.is_empty()
        });
    }
}

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// The operation that produced a node, holding parent handles.
#[derive(Debug, Clone)]
enum Op {
    /// Constant input (no gradient flows past it).
    Leaf,
    /// Parameter leaf; gradient is flushed to the store.
    Param(ParamId),
    /// Row-grouped `a · b_g`: `a` holds `groups` equal row groups and group
    /// `g` is multiplied by node `b + g` (the right operands are consecutive
    /// nodes — one param leaf per group for weights). One group is `a · b`.
    MatMul {
        a: Var,
        b: Var,
        groups: usize,
    },
    Add(Var, Var),
    /// Row-grouped `(r x c) + (1 x c)` bias addition, bias rows at nodes
    /// `bias .. bias + groups`.
    AddRowBroadcast {
        a: Var,
        bias: Var,
        groups: usize,
    },
    Sub(Var, Var),
    Mul(Var, Var),
    /// `(r x c) * (r x 1)` — per-row scaling (attention weights).
    MulColBroadcast(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Transpose(Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    SoftmaxRows(Var),
    SumCols(Var),
    SumRows(Var),
    MeanAll(Var),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize),
    /// Rows `[start, start + rows)` of a node, one part of
    /// [`Tape::split_rows`].
    SliceRows(Var, usize),
    /// Mean binary-cross-entropy over all elements, from logits.
    /// Stores targets (and optional per-element weights) as constants.
    BceWithLogits(Var, Matrix),
    /// Mean squared error against a constant target.
    Mse(Var, Matrix),
    /// Fused gate: `act(a + b + bias_g)` (`tanh` when `tanh`, else `σ`),
    /// row-grouped like [`Op::AddRowBroadcast`]. Collapses the add /
    /// add_row_broadcast / activation chain every GRU/LSTM gate records into
    /// one node. Both derivatives are computable from the output value
    /// alone, which is what makes the fusion cheap in backward too.
    GateAct {
        a: Var,
        b: Var,
        bias: Var,
        groups: usize,
        tanh: bool,
    },
    /// Fused GRU state blend: `(1-z) ⊙ h + z ⊙ cand`.
    GruBlend(Var, Var, Var),
    /// The stacked `u` of one FIL attention call ([`Tape::fil_attention`]);
    /// `alpha` is the constant node holding the stacked attention rows.
    FilAttention {
        q: Var,
        k: Var,
        v: Var,
        alpha: Var,
        nf: usize,
        scale: f32,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A single-pass computation graph.
pub struct Tape {
    nodes: Vec<Node>,
    /// Recycled `f32` buffers; see the module docs.
    pool: Arena,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(1024),
            pool: Arena::default(),
        }
    }

    /// Clears the graph for the next forward pass, recycling every node's
    /// value and gradient buffer into the arena. Reusing one tape via
    /// `reset` across minibatches is the allocation-free fast path; a fresh
    /// [`Tape::new`] per step stays correct but re-allocates every buffer.
    pub fn reset(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.reclaim(node.value);
            if let Some(g) = node.grad {
                self.reclaim(g);
            }
        }
        self.nodes = nodes;
        self.pool.trim();
    }

    /// Returns a value buffer to the arena.
    fn reclaim(&mut self, m: Matrix) {
        self.pool.put(m.into_vec());
    }

    /// An empty arena buffer for `n` floats.
    fn grab(&mut self, n: usize) -> Vec<f32> {
        self.pool.grab(n)
    }

    /// An empty arena buffer the size of `a`'s value.
    fn grab_like(&mut self, a: Var) -> Vec<f32> {
        self.grab(self.nodes[a.0].value.len())
    }

    /// An all-zero `rows x cols` matrix backed by the arena.
    fn alloc_zero(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.grab(rows * cols);
        buf.resize(rows * cols, 0.0);
        Matrix::from_vec(rows, cols, buf)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` if no gradient
    /// reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    // ---------------------------------------------------------------- leaves

    /// Records a constant (non-differentiable) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a parameter leaf by copying its current value from the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let src = store.value(id);
        let mut buf = self.grab(src.len());
        buf.extend_from_slice(src.as_slice());
        let v = Matrix::from_vec(src.rows(), src.cols(), buf);
        self.push(v, Op::Param(id))
    }

    /// Records one parameter leaf per id, as consecutive nodes, and returns
    /// the first: the right operands of a row-grouped op. A weight shared by
    /// several groups still gets one leaf per group, so each group's
    /// gradient reaches the store as its own term, in group order.
    pub(crate) fn params(&mut self, store: &ParamStore, ids: &[ParamId]) -> Var {
        assert!(!ids.is_empty(), "a row-grouped op needs at least one group");
        let first = Var(self.nodes.len());
        for &id in ids {
            self.param(store, id);
        }
        first
    }

    // ------------------------------------------------------------------ ops

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.matmul_groups(a, b, 1)
    }

    /// Row-grouped product (see [`Op::MatMul`]).
    pub(crate) fn matmul_groups(&mut self, a: Var, b: Var, groups: usize) -> Var {
        let buf = self.grab(self.nodes[a.0].value.rows() * self.nodes[b.0].value.cols());
        let nodes = &self.nodes;
        let v = kernels::matmul_groups(
            |_| buf,
            &nodes[a.0].value,
            groups,
            |g| kernels::WeightRef::F32(&nodes[b.0 + g].value),
        );
        self.push(v, Op::MatMul { a, b, groups })
    }

    /// Element-wise sum of equally shaped nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab_like(a);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = kernels::zip(buf, am, bm, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// `(r x c) + (1 x c)`: adds a row vector (bias) to every row.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        self.add_bias_groups(a, bias, 1)
    }

    /// Row-grouped bias addition (see [`Op::AddRowBroadcast`]).
    pub(crate) fn add_bias_groups(&mut self, a: Var, bias: Var, groups: usize) -> Var {
        let buf = self.grab_like(a);
        let nodes = &self.nodes;
        let v = kernels::add_row_broadcast(buf, &nodes[a.0].value, groups, |g| {
            &nodes[bias.0 + g].value
        });
        self.push(v, Op::AddRowBroadcast { a, bias, groups })
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab_like(a);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = kernels::zip(buf, am, bm, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let buf = self.grab_like(a);
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = kernels::zip(buf, am, bm, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// `(r x c) * (r x 1)`: scales each row of `a` by the matching entry of
    /// the column vector `w` (e.g. per-sample attention weights).
    pub fn mul_col_broadcast(&mut self, a: Var, w: Var) -> Var {
        let buf = self.grab_like(a);
        let (am, wm) = (&self.nodes[a.0].value, &self.nodes[w.0].value);
        let v = kernels::mul_col_broadcast(buf, am, wm);
        self.push(v, Op::MulColBroadcast(a, w))
    }

    /// Multiplication by a compile-time scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let buf = self.grab_like(a);
        let v = kernels::map(buf, &self.nodes[a.0].value, |x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// Addition of a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let buf = self.grab_like(a);
        let v = kernels::map(buf, &self.nodes[a.0].value, |x| x + s);
        self.push(v, Op::AddScalar(a))
    }

    /// Convenience for `1 - a`, common in gated RNN cells.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let neg = self.scale(a, -1.0);
        self.add_scalar(neg, 1.0)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let buf = self.grab_like(a);
        let v = kernels::map(buf, &self.nodes[a.0].value, kernels::sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let buf = self.grab_like(a);
        let v = kernels::map(buf, &self.nodes[a.0].value, f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let buf = self.grab_like(a);
        let v = kernels::map(buf, &self.nodes[a.0].value, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Fused sigmoid gate: `σ(a + b + bias)` in one node.
    ///
    /// Semantically identical to `sigmoid(add_row_broadcast(add(a, b), bias))`
    /// but records one node instead of three — the shape every GRU/LSTM gate
    /// takes (`x·W + h·U + b`).
    pub fn gate_sigmoid(&mut self, a: Var, b: Var, bias: Var) -> Var {
        self.gate_groups(a, b, bias, 1, false)
    }

    /// Fused tanh gate: `tanh(a + b + bias)` in one node (see
    /// [`Tape::gate_sigmoid`]).
    pub fn gate_tanh(&mut self, a: Var, b: Var, bias: Var) -> Var {
        self.gate_groups(a, b, bias, 1, true)
    }

    /// Row-grouped fused gate (see [`Op::GateAct`]).
    pub(crate) fn gate_groups(
        &mut self,
        a: Var,
        b: Var,
        bias: Var,
        groups: usize,
        tanh: bool,
    ) -> Var {
        let buf = self.grab_like(a);
        let nodes = &self.nodes;
        let (am, bm) = (&nodes[a.0].value, &nodes[b.0].value);
        let bias_g = |g: usize| &nodes[bias.0 + g].value;
        let v = if tanh {
            kernels::gate(buf, am, bm, groups, bias_g, f32::tanh)
        } else {
            kernels::gate(buf, am, bm, groups, bias_g, kernels::sigmoid)
        };
        let op = Op::GateAct {
            a,
            b,
            bias,
            groups,
            tanh,
        };
        self.push(v, op)
    }

    /// Fused GRU state blend: `(1 - z) ⊙ h + z ⊙ cand` in one node.
    ///
    /// Replaces the `one_minus` / `mul` / `mul` / `add` five-node chain at
    /// the end of every GRU step.
    pub fn gru_blend(&mut self, z: Var, h: Var, cand: Var) -> Var {
        let buf = self.grab_like(z);
        let (zm, hm, cm) = (
            &self.nodes[z.0].value,
            &self.nodes[h.0].value,
            &self.nodes[cand.0].value,
        );
        let v = kernels::gru_blend(buf, zm, hm, cm);
        self.push(v, Op::GruBlend(z, h, cand))
    }

    /// The FIL attention core over `nf` stacked features (see
    /// [`crate::Exec::fil_attention`]).
    ///
    /// Records the stacked attention rows `α` as a constant and the stacked
    /// `u` as one node with a hand-written backward that reproduces, bit for
    /// bit, the gradient of the composed op chain the kernel replaced.
    pub fn fil_attention(&mut self, q: Var, k: Var, v: Var, nf: usize, scale: f32) -> (Var, Var) {
        let (u, alpha) = {
            let (nodes, pool) = (&self.nodes, &mut self.pool);
            let (qm, km, vm) = (&nodes[q.0].value, &nodes[k.0].value, &nodes[v.0].value);
            kernels::fil_attention(qm, km, vm, nf, scale, |n| pool.grab(n))
        };
        let alpha = self.push(alpha, Op::Leaf);
        let op = Op::FilAttention {
            q,
            k,
            v,
            alpha,
            nf,
            scale,
        };
        (self.push(u, op), alpha)
    }

    /// Splits a node of `groups` equal row groups into one node per group.
    pub fn split_rows(&mut self, a: Var, groups: usize) -> Vec<Var> {
        let rows = kernels::group_rows(self.nodes[a.0].value.rows(), groups);
        (0..groups)
            .map(|g| {
                let cols = self.nodes[a.0].value.cols();
                let mut buf = self.grab(rows * cols);
                let src = &self.nodes[a.0].value.as_slice()[g * rows * cols..(g + 1) * rows * cols];
                buf.extend_from_slice(src);
                let v = Matrix::from_vec(rows, cols, buf);
                self.push(v, Op::SliceRows(a, g * rows))
            })
            .collect()
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row sums: `(r x c) -> (r x 1)`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_cols();
        self.push(v, Op::SumCols(a))
    }

    /// Column sums: `(r x c) -> (1 x c)`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.sum_rows();
        self.push(v, Op::SumRows(a))
    }

    /// Mean of all elements: `-> (1 x 1)`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.mean()]);
        self.push(v, Op::MeanAll(a))
    }

    /// Horizontal concatenation of nodes sharing a row count.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one node");
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let v = Matrix::concat_cols(&mats);
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Copy of columns `[start, end)` of `a`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.nodes[a.0].value.slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start))
    }

    /// Mean binary cross-entropy from logits against constant 0/1 targets.
    ///
    /// Numerically stable (`log1p`-based). Result is `1 x 1`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.shape(), targets.shape(), "bce target shape mismatch");
        let n = z.len() as f32;
        let mut total = 0.0f64;
        for (&zi, &yi) in z.as_slice().iter().zip(targets.as_slice()) {
            // max(z,0) - z*y + ln(1 + e^{-|z|})
            let l = zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p();
            total += l as f64;
        }
        let v = Matrix::from_vec(1, 1, vec![(total / n as f64) as f32]);
        self.push(v, Op::BceWithLogits(logits, targets))
    }

    /// Mean squared error against a constant target. Result is `1 x 1`.
    pub fn mse(&mut self, pred: Var, targets: Matrix) -> Var {
        let p = &self.nodes[pred.0].value;
        assert_eq!(p.shape(), targets.shape(), "mse target shape mismatch");
        let n = p.len() as f32;
        let total: f32 = p
            .as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum();
        let v = Matrix::from_vec(1, 1, vec![total / n]);
        self.push(v, Op::Mse(pred, targets))
    }

    // ------------------------------------------------------------- backward

    fn grad_buf(&mut self, v: Var) -> &mut Matrix {
        if self.nodes[v.0].grad.is_none() {
            let (r, c) = self.nodes[v.0].value.shape();
            let m = self.alloc_zero(r, c);
            self.nodes[v.0].grad = Some(m);
        }
        self.nodes[v.0].grad.as_mut().unwrap()
    }

    /// Takes ownership of a node's gradient buffer (a zeroed arena buffer if
    /// none exists yet) so backward rules can accumulate into it while still
    /// reading other nodes' values; the caller must put it back.
    fn take_grad(&mut self, v: Var) -> Matrix {
        match self.nodes[v.0].grad.take() {
            Some(g) => g,
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                self.alloc_zero(r, c)
            }
        }
    }

    /// Runs reverse-mode differentiation seeded at `root` (gradient 1 for
    /// every element of `root`, which is normally a `1 x 1` loss).
    pub fn backward(&mut self, root: Var) {
        {
            if let Some(old) = self.nodes[root.0].grad.take() {
                self.reclaim(old);
            }
            let (r, c) = self.nodes[root.0].value.shape();
            let mut seed = self.alloc_zero(r, c);
            seed.as_mut_slice().fill(1.0);
            self.nodes[root.0].grad = Some(seed);
        }
        for i in (0..=root.0).rev() {
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            let out_value = std::mem::replace(&mut self.nodes[i].value, Matrix::zeros(0, 0));
            self.propagate(&op, &out_value, &g);
            self.nodes[i].value = out_value;
            self.nodes[i].grad = Some(g);
        }
    }

    fn propagate(&mut self, op: &Op, out: &Matrix, g: &Matrix) {
        match op {
            Op::Leaf | Op::Param(_) => {}
            &Op::MatMul { a, b, groups } => {
                // Per group: dA_g += g_g · B_gᵀ ; dB_g += A_gᵀ · g_g —
                // transpose-fused GEMM, no transposed copies and no
                // gradient temporaries.
                let rows = g.rows() / groups;
                let mut ga = self.take_grad(a);
                let width = ga.cols();
                for grp in 0..groups {
                    let (r0, r1) = (grp * rows, (grp + 1) * rows);
                    let bg = &self.nodes[b.0 + grp].value;
                    let dst = &mut ga.as_mut_slice()[r0 * width..r1 * width];
                    gemm_view(false, true, View::rows(g, r0, r1), bg.into(), dst, true);
                }
                self.nodes[a.0].grad = Some(ga);
                for grp in 0..groups {
                    let (r0, r1) = (grp * rows, (grp + 1) * rows);
                    let bg = Var(b.0 + grp);
                    let mut gb = self.take_grad(bg);
                    let a_rows = View::rows(&self.nodes[a.0].value, r0, r1);
                    gemm_view(
                        true,
                        false,
                        a_rows,
                        View::rows(g, r0, r1),
                        gb.as_mut_slice(),
                        true,
                    );
                    self.nodes[bg.0].grad = Some(gb);
                }
            }
            Op::Add(a, b) => {
                self.grad_buf(*a).add_assign(g);
                self.grad_buf(*b).add_assign(g);
            }
            &Op::AddRowBroadcast { a, bias, groups } => {
                self.grad_buf(a).add_assign(g);
                let rows = g.rows() / groups;
                for grp in 0..groups {
                    let mut db = self.alloc_zero(1, g.cols());
                    for r in grp * rows..(grp + 1) * rows {
                        for (o, &x) in db.as_mut_slice().iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    self.grad_buf(Var(bias.0 + grp)).add_assign(&db);
                    self.reclaim(db);
                }
            }
            Op::Sub(a, b) => {
                self.grad_buf(*a).add_assign(g);
                self.grad_buf(*b).add_scaled_assign(g, -1.0);
            }
            Op::Mul(a, b) => {
                let mut ga = self.take_grad(*a);
                for ((o, &gi), &bi) in ga
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[b.0].value.as_slice())
                {
                    *o += gi * bi;
                }
                self.nodes[a.0].grad = Some(ga);
                let mut gb = self.take_grad(*b);
                for ((o, &gi), &ai) in gb
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[a.0].value.as_slice())
                {
                    *o += gi * ai;
                }
                self.nodes[b.0].grad = Some(gb);
            }
            Op::MulColBroadcast(a, w) => {
                let wm = self.nodes[w.0].value.clone();
                let am = self.nodes[a.0].value.clone();
                // dA[r,c] = g[r,c] * w[r]
                let mut da = g.clone();
                for r in 0..da.rows() {
                    let s = wm[(r, 0)];
                    for c in 0..da.cols() {
                        da[(r, c)] *= s;
                    }
                }
                self.grad_buf(*a).add_assign(&da);
                // dW[r] = sum_c g[r,c] * a[r,c]
                let dw = g.mul(&am).sum_cols();
                self.grad_buf(*w).add_assign(&dw);
            }
            Op::Scale(a, s) => {
                self.grad_buf(*a).add_scaled_assign(g, *s);
            }
            Op::AddScalar(a) => {
                self.grad_buf(*a).add_assign(g);
            }
            Op::Transpose(a) => {
                let da = g.transpose();
                self.grad_buf(*a).add_assign(&da);
            }
            Op::Sigmoid(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += gi * yi * (1.0 - yi);
                }
            }
            Op::Tanh(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += gi * (1.0 - yi * yi);
                }
            }
            Op::Relu(a) => {
                let buf = self.grad_buf(*a);
                for ((o, &gi), &yi) in buf
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    if yi > 0.0 {
                        *o += gi;
                    }
                }
            }
            Op::SoftmaxRows(a) => {
                // dx = y * (g - <g, y>_row)
                let mut da = Matrix::zeros(out.rows(), out.cols());
                for r in 0..out.rows() {
                    let dot: f32 = out
                        .row(r)
                        .iter()
                        .zip(g.row(r).iter())
                        .map(|(&y, &gi)| y * gi)
                        .sum();
                    for c in 0..out.cols() {
                        da[(r, c)] = out[(r, c)] * (g[(r, c)] - dot);
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::SumCols(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Matrix::zeros(r, c);
                for i in 0..r {
                    let gi = g[(i, 0)];
                    for j in 0..c {
                        da[(i, j)] = gi;
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::SumRows(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let mut da = Matrix::zeros(r, c);
                for i in 0..r {
                    for j in 0..c {
                        da[(i, j)] = g[(0, j)];
                    }
                }
                self.grad_buf(*a).add_assign(&da);
            }
            Op::MeanAll(a) => {
                let (r, c) = self.nodes[a.0].value.shape();
                let s = g[(0, 0)] / (r * c) as f32;
                let da = Matrix::full(r, c, s);
                self.grad_buf(*a).add_assign(&da);
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for p in parts {
                    let w = self.nodes[p.0].value.cols();
                    let dp = g.slice_cols(offset, offset + w);
                    self.grad_buf(*p).add_assign(&dp);
                    offset += w;
                }
            }
            Op::SliceRows(a, start) => {
                let cols = g.cols();
                let buf = self.grad_buf(*a);
                let dst = &mut buf.as_mut_slice()[start * cols..start * cols + g.len()];
                for (o, &x) in dst.iter_mut().zip(g.as_slice()) {
                    *o += x;
                }
            }
            Op::SliceCols(a, start) => {
                let (r, _) = g.shape();
                let buf = self.grad_buf(*a);
                for i in 0..r {
                    for j in 0..g.cols() {
                        buf[(i, start + j)] += g[(i, j)];
                    }
                }
            }
            Op::BceWithLogits(logits, targets) => {
                let z = &self.nodes[logits.0].value;
                let n = z.len() as f32;
                let s = g[(0, 0)] / n;
                let dz = z.zip(targets, |zi, yi| {
                    let p = 1.0 / (1.0 + (-zi).exp());
                    (p - yi) * s
                });
                self.grad_buf(*logits).add_assign(&dz);
            }
            Op::Mse(pred, targets) => {
                let p = &self.nodes[pred.0].value;
                let n = p.len() as f32;
                let s = 2.0 * g[(0, 0)] / n;
                let dp = p.zip(targets, |a, b| (a - b) * s);
                self.grad_buf(*pred).add_assign(&dp);
            }
            &Op::GateAct {
                a,
                b,
                bias,
                groups,
                tanh,
            } => {
                // Pre-activation gradient gp = g · act'(y), with act'
                // computed from the output value alone:
                // σ: y(1-y); tanh: 1-y². Both summed operands receive gp,
                // each group's bias its group's column sums.
                let deriv = |gi: f32, yi: f32| {
                    if tanh {
                        gi * (1.0 - yi * yi)
                    } else {
                        gi * yi * (1.0 - yi)
                    }
                };
                let mut ga = self.take_grad(a);
                for ((o, &gi), &yi) in ga
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += deriv(gi, yi);
                }
                self.nodes[a.0].grad = Some(ga);
                let mut gb = self.take_grad(b);
                for ((o, &gi), &yi) in gb
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(out.as_slice())
                {
                    *o += deriv(gi, yi);
                }
                self.nodes[b.0].grad = Some(gb);
                let rows = out.rows() / groups;
                for grp in 0..groups {
                    let bias_g = Var(bias.0 + grp);
                    let mut gbias = self.take_grad(bias_g);
                    let row = gbias.row_mut(0);
                    for r in grp * rows..(grp + 1) * rows {
                        for ((o, &gi), &yi) in row.iter_mut().zip(g.row(r)).zip(out.row(r)) {
                            *o += deriv(gi, yi);
                        }
                    }
                    self.nodes[bias_g.0].grad = Some(gbias);
                }
            }
            Op::GruBlend(z, h, cand) => {
                // y = (1-z)⊙h + z⊙cand:
                // dz += g⊙(cand-h); dh += g⊙(1-z); dcand += g⊙z.
                let mut gz = self.take_grad(*z);
                for (((o, &gi), &ci), &hi) in gz
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[cand.0].value.as_slice())
                    .zip(self.nodes[h.0].value.as_slice())
                {
                    *o += gi * (ci - hi);
                }
                self.nodes[z.0].grad = Some(gz);
                let mut gh = self.take_grad(*h);
                for ((o, &gi), &zi) in gh
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[z.0].value.as_slice())
                {
                    *o += gi * (1.0 - zi);
                }
                self.nodes[h.0].grad = Some(gh);
                let mut gc = self.take_grad(*cand);
                for ((o, &gi), &zi) in gc
                    .as_mut_slice()
                    .iter_mut()
                    .zip(g.as_slice())
                    .zip(self.nodes[z.0].value.as_slice())
                {
                    *o += gi * zi;
                }
                self.nodes[cand.0].grad = Some(gc);
            }
            &Op::FilAttention {
                q,
                k,
                v,
                alpha,
                nf,
                scale,
            } => self.fil_attention_backward([q, k, v], alpha, nf, scale, g),
        }
    }

    /// Backward of `u_i = Σ_j α_ij v_j`, `α_i = softmax_j(s · q_i·k_j)` per
    /// batch row, given the stacked `g = ∂L/∂u`. Query features run from
    /// the last to the first — the order in which the per-query nodes FIL
    /// was recorded as before it was stacked ran backward — and for each:
    ///
    /// * `dv_j += α_ij g` and `dα_ij = g·v_j`, for `j` descending;
    /// * softmax backward `dS_ij = α_ij (dα_ij − Σ_j' α_ij' dα_ij')`;
    /// * `dq_i += s dS_ij k_j` and `dk_j += s dS_ij q_i`, for `j` descending.
    ///
    /// Every sum runs in the order of the backward of the composed chain
    /// FIL was written as before the fused op (`mul` / `sum_cols` / `scale` /
    /// `concat_cols` / `softmax_rows` / `slice_cols` / `mul_col_broadcast` /
    /// `add`), so training computes that chain's gradient bits. The chain
    /// also passed each intermediate through a freshly zeroed buffer
    /// (`0.0 + x`), which only turns `-0.0` into `0.0`; that is skipped here
    /// because a signed zero can change no accumulated gradient: every
    /// gradient buffer starts at `+0.0` and only accumulates, so it never
    /// holds `-0.0`, and `x + ±0.0 = x` for every other `x`.
    fn fil_attention_backward(
        &mut self,
        [q, k, v]: [Var; 3],
        alpha: Var,
        nf: usize,
        scale: f32,
        g: &Matrix,
    ) {
        let batch = g.rows() / nf;
        // dα, then dS in place; every entry is written before it is read.
        let mut ds = self.alloc_zero(batch, nf);
        for i in (0..nf).rev() {
            let row_i = i * batch;
            for j in (0..nf).rev() {
                let mut dv = self.take_grad(v);
                let (v_val, a_val) = (&self.nodes[v.0].value, &self.nodes[alpha.0].value);
                for r in 0..batch {
                    let a = a_val[(row_i + r, j)];
                    let g_row = g.row(row_i + r);
                    for (o, &x) in dv.row_mut(j * batch + r).iter_mut().zip(g_row) {
                        *o += x * a;
                    }
                    ds[(r, j)] = g_row
                        .iter()
                        .zip(v_val.row(j * batch + r))
                        .map(|(&x, &y)| x * y)
                        .sum();
                }
                self.nodes[v.0].grad = Some(dv);
            }
            let a_val = &self.nodes[alpha.0].value;
            for r in 0..batch {
                let a_row = a_val.row(row_i + r);
                let d_row = ds.row_mut(r);
                let dot: f32 = a_row.iter().zip(d_row.iter()).map(|(&y, &gi)| y * gi).sum();
                for (d, &y) in d_row.iter_mut().zip(a_row) {
                    *d = y * (*d - dot);
                }
            }
            for j in (0..nf).rev() {
                let row_j = j * batch;
                for (dst, dst_row, src, src_row) in [(q, row_i, k, row_j), (k, row_j, q, row_i)] {
                    let mut grad = self.take_grad(dst);
                    let src_val = &self.nodes[src.0].value;
                    for r in 0..batch {
                        let gs = ds[(r, j)] * scale;
                        let src_r = src_val.row(src_row + r);
                        for (o, &x) in grad.row_mut(dst_row + r).iter_mut().zip(src_r) {
                            *o += gs * x;
                        }
                    }
                    self.nodes[dst.0].grad = Some(grad);
                }
            }
        }
        self.reclaim(ds);
    }

    /// Accumulates parameter-leaf gradients into the store.
    ///
    /// Call after [`Tape::backward`]. Nodes whose gradient never materialised
    /// (dead branches) are skipped.
    pub fn flush_grads(&self, store: &mut ParamStore) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(g)) = (&node.op, &node.grad) {
                store.accumulate_grad(*id, g);
            }
        }
    }

    /// Accumulates parameter-leaf gradients into a detached
    /// [`crate::param::GradBuffer`] instead of the shared store — the
    /// per-shard half of data-parallel training, where workers must not
    /// touch the store concurrently.
    pub fn flush_grads_into(&self, buf: &mut crate::param::GradBuffer) {
        for node in &self.nodes {
            if let (Op::Param(id), Some(g)) = (&node.op, &node.grad) {
                buf.accumulate(*id, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_match_matrix_ops() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.constant(Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c).as_slice(), &[19., 22., 43., 50.]);
        let d = t.add(a, b);
        assert_eq!(t.value(d).as_slice(), &[6., 8., 10., 12.]);
    }

    #[test]
    fn backward_through_matmul() {
        // loss = mean(A*B); check dA and dB shapes/values.
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(1, 2, vec![1., 2.]));
        let b = t.constant(Matrix::from_vec(2, 1, vec![3., 4.]));
        let c = t.matmul(a, b); // 1x1 = 11
        let l = t.mean_all(c);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().as_slice(), &[3., 4.]);
        assert_eq!(t.grad(b).unwrap().as_slice(), &[1., 2.]);
    }

    #[test]
    fn backward_through_sigmoid_chain() {
        // y = sigmoid(x); loss = mean(y). dy/dx = y(1-y)/n
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 1, vec![0.0]));
        let y = t.sigmoid(x);
        let l = t.mean_all(y);
        t.backward(l);
        let g = t.grad(x).unwrap()[(0, 0)];
        assert!((g - 0.25).abs() < 1e-6);
    }

    #[test]
    fn one_minus_matches_manual() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 2, vec![0.3, 0.9]));
        let y = t.one_minus(x);
        assert_eq!(t.value(y).as_slice(), &[0.7, 0.100000024]);
    }

    #[test]
    fn bce_with_logits_value() {
        // logit 0 against target 1 => ln 2
        let mut t = Tape::new();
        let z = t.constant(Matrix::from_vec(1, 1, vec![0.0]));
        let l = t.bce_with_logits(z, Matrix::from_vec(1, 1, vec![1.0]));
        assert!((t.value(l)[(0, 0)] - std::f32::consts::LN_2).abs() < 1e-6);
        t.backward(l);
        // d/dz = sigma(0) - 1 = -0.5
        assert!((t.grad(z).unwrap()[(0, 0)] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn bce_with_logits_extreme_logits_are_finite() {
        let mut t = Tape::new();
        let z = t.constant(Matrix::from_vec(1, 2, vec![100.0, -100.0]));
        let l = t.bce_with_logits(z, Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        assert!(t.value(l).all_finite());
        assert!(t.value(l)[(0, 0)] < 1e-3);
    }

    #[test]
    fn flush_grads_accumulates_into_store() {
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![2.0]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let x = t.constant(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.mul(wv, x);
        let l = t.mean_all(y);
        t.backward(l);
        t.flush_grads(&mut ps);
        assert_eq!(ps.grad(w)[(0, 0)], 3.0);
    }

    #[test]
    fn grad_accumulates_across_multiple_uses() {
        // y = w*x1 + w*x2 — w used twice, grads must sum.
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut t = Tape::new();
        let wv = t.param(&ps, w);
        let x1 = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let x2 = t.constant(Matrix::from_vec(1, 1, vec![5.0]));
        let a = t.mul(wv, x1);
        let b = t.mul(wv, x2);
        let y = t.add(a, b);
        let l = t.mean_all(y);
        t.backward(l);
        t.flush_grads(&mut ps);
        assert_eq!(ps.grad(w)[(0, 0)], 7.0);
    }

    #[test]
    fn concat_slice_round_trip_grads() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 1, vec![1., 2.]));
        let b = t.constant(Matrix::from_vec(2, 2, vec![3., 4., 5., 6.]));
        let c = t.concat_cols(&[a, b]);
        let s = t.slice_cols(c, 1, 3); // recover b
        assert_eq!(t.value(s).as_slice(), &[3., 4., 5., 6.]);
        let l = t.mean_all(s);
        t.backward(l);
        // Gradient reaches b, not a.
        assert_eq!(t.grad(b).unwrap().as_slice(), &[0.25; 4]);
        assert!(t.grad(a).unwrap().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn softmax_rows_grad_sums_to_zero() {
        // For softmax followed by picking one coordinate, gradient over the
        // input row sums to ~0 (shift invariance).
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 3, vec![0.1, 0.5, -0.2]));
        let s = t.softmax_rows(x);
        let p = t.slice_cols(s, 1, 2);
        let l = t.mean_all(p);
        t.backward(l);
        let g = t.grad(x).unwrap();
        assert!(g.sum().abs() < 1e-6);
    }

    #[test]
    fn reset_recycles_buffers_and_keeps_results_identical() {
        // Train-loop shape: one tape reused across steps via reset() must
        // produce bit-identical values and gradients to fresh tapes.
        let mut ps = ParamStore::new();
        let w = ps.register("w", Matrix::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.1]));
        let run = |t: &mut Tape, ps: &ParamStore| -> (f32, Matrix) {
            let wv = t.param(ps, w);
            let x = t.constant(Matrix::from_vec(2, 2, vec![1.0, 2.0, -1.0, 0.5]));
            let y = t.matmul(x, wv);
            let s = t.sigmoid(y);
            let l = t.mean_all(s);
            t.backward(l);
            (t.value(l)[(0, 0)], t.grad(wv).unwrap().clone())
        };
        let mut reused = Tape::new();
        for _ in 0..3 {
            reused.reset();
            let (loss_reused, grad_reused) = run(&mut reused, &ps);
            let mut fresh = Tape::new();
            let (loss_fresh, grad_fresh) = run(&mut fresh, &ps);
            assert_eq!(loss_reused.to_bits(), loss_fresh.to_bits());
            for (a, b) in grad_reused.as_slice().iter().zip(grad_fresh.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn reset_empties_the_graph() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::zeros(4, 4));
        let _ = t.sigmoid(a);
        assert_eq!(t.len(), 2);
        t.reset();
        assert!(t.is_empty());
        // The tape is fully usable after reset.
        let b = t.constant(Matrix::full(2, 2, 1.0));
        let c = t.tanh(b);
        assert_eq!(t.value(c).shape(), (2, 2));
    }

    #[test]
    fn mul_col_broadcast_forward_and_backward() {
        let mut t = Tape::new();
        let a = t.constant(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let w = t.constant(Matrix::from_vec(2, 1, vec![10., 100.]));
        let y = t.mul_col_broadcast(a, w);
        assert_eq!(t.value(y).as_slice(), &[10., 20., 300., 400.]);
        let l = t.mean_all(y);
        t.backward(l);
        let gw = t.grad(w).unwrap();
        // dW[r] = sum_c a[r,c] / 4
        assert_eq!(gw.as_slice(), &[0.75, 1.75]);
    }
}
