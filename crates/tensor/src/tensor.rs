//! The [`Tensor`] type: a reference-counted 2-D `f32` matrix that records the
//! operation which produced it, enabling reverse-mode differentiation.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use crate::ops::Op;

thread_local! {
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

/// Hashes a tensor id with one multiply. Ids come from a thread-local
/// counter, so SipHash's resistance to chosen keys buys nothing here; the
/// multiply spreads consecutive ids over the high bits the table's probe
/// tags are taken from.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The tensor ids one backward pass has visited.
type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

fn fresh_id() -> u64 {
    NEXT_ID.with(|c| {
        let id = c.get();
        c.set(id + 1);
        id
    })
}

pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: RefCell<Vec<f32>>,
    pub(crate) grad: RefCell<Option<Vec<f32>>>,
    /// Tensors flagged for gradient accumulation: leaves such as model
    /// parameters and explanation masks, or an op output whose gradient is
    /// to be retained.
    pub(crate) requires_grad: Cell<bool>,
    /// Whether the running backward pass routes a gradient here: the tensor
    /// is flagged or some ancestor is. Recomputed for every tensor a pass
    /// visits, before any gradient moves.
    pub(crate) needs_grad: Cell<bool>,
    pub(crate) op: Option<Op>,
}

/// A 2-D `f32` matrix with optional gradient tracking.
///
/// Cloning a `Tensor` is cheap (it clones an `Rc`); both clones refer to the
/// same storage and gradient buffer.
#[derive(Clone)]
pub struct Tensor {
    pub(crate) inner: Rc<Inner>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("id", &self.inner.id)
            .field("rows", &self.inner.rows)
            .field("cols", &self.inner.cols)
            .field("requires_grad", &self.inner.requires_grad.get())
            .field("is_leaf", &self.inner.op.is_none())
            .finish()
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a leaf tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Tensor::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self::new_leaf(data, rows, cols)
    }

    /// Creates a `rows × cols` tensor filled with `value`.
    pub fn full(value: f32, rows: usize, cols: usize) -> Self {
        Self::new_leaf(vec![value; rows * cols], rows, cols)
    }

    /// Creates a `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(0.0, rows, cols)
    }

    /// Creates a `rows × cols` tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(1.0, rows, cols)
    }

    /// Creates a `1 × 1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::full(value, 1, 1)
    }

    pub(crate) fn new_leaf(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                rows,
                cols,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: Cell::new(false),
                needs_grad: Cell::new(false),
                op: None,
            }),
        }
    }

    /// Records `op` as the producer of a fresh tensor: the one checked
    /// entry every op method records through. Runs the op's shape rule
    /// ([`Op::output_shape`]) before `forward` computes the row-major data.
    ///
    /// # Panics
    ///
    /// Panics with the rule's message if the operands do not fit `op`.
    pub(crate) fn record(op: Op, forward: impl FnOnce() -> Vec<f32>) -> Tensor {
        let (rows, cols) = match op.output_shape() {
            Ok(shape) => shape,
            Err(e) => panic!("{e}"),
        };
        Tensor::new_from_op(forward(), rows, cols, op)
    }

    fn new_from_op(data: Vec<f32>, rows: usize, cols: usize, op: Op) -> Self {
        assert_eq!(data.len(), rows * cols, "internal op produced wrong shape");
        Tensor {
            inner: Rc::new(Inner {
                id: fresh_id(),
                rows,
                cols,
                data: RefCell::new(data),
                grad: RefCell::new(None),
                requires_grad: Cell::new(false),
                needs_grad: Cell::new(false),
                op: Some(op),
            }),
        }
    }

    /// Flags this tensor for gradient accumulation and returns it.
    ///
    /// Intended for leaf tensors (parameters, masks). Flagging an op output
    /// makes [`Tensor::backward`] route a gradient to it and retain it.
    #[must_use]
    pub fn requires_grad(self) -> Self {
        self.inner.requires_grad.set(true);
        self
    }

    /// Sets or clears the gradient-accumulation flag in place (what
    /// freezing and unfreezing a model's parameters toggle).
    pub fn set_requires_grad(&self, on: bool) {
        self.inner.requires_grad.set(on);
    }

    /// Whether this tensor accumulates gradients as a leaf.
    pub fn requires_grad_flag(&self) -> bool {
        self.inner.requires_grad.get()
    }

    // ------------------------------------------------------------------
    // Shape / data access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.inner.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.inner.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.inner.rows, self.inner.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.rows * self.inner.cols
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the row-major data.
    pub fn data(&self) -> Ref<'_, Vec<f32>> {
        self.inner.data.borrow()
    }

    /// Copies the row-major data out.
    pub fn to_vec(&self) -> Vec<f32> {
        self.inner.data.borrow().clone()
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows() && c < self.cols(), "index out of bounds");
        self.inner.data.borrow()[r * self.cols() + c]
    }

    /// Returns the value of a `1 × 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.inner.data.borrow()[0]
    }

    /// Overwrites the data of a leaf tensor in place (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if `new_data.len()` does not match the tensor length.
    pub fn set_data(&self, new_data: &[f32]) {
        let mut d = self.inner.data.borrow_mut();
        assert_eq!(new_data.len(), d.len(), "set_data: length mismatch");
        d.copy_from_slice(new_data);
    }

    /// Applies `f` to the data buffer in place (used by optimizers).
    pub fn update_data(&self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.inner.data.borrow_mut());
    }

    /// A stable identifier unique to this tensor's storage.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The recorded operation that produced this tensor, or `None` for a
    /// leaf. This is the entry point for static tape analysis
    /// (`revelio-analysis` walks the op graph through it without executing
    /// anything).
    pub fn op(&self) -> Option<&Op> {
        self.inner.op.as_ref()
    }

    /// Records `op` as the producer of a fresh tensor **without** validating
    /// that the claimed shape is consistent with the operand shapes.
    ///
    /// Exists so the static analyzer's tests can seed deliberately defective
    /// tapes; real forward code must go through the checked op methods,
    /// which run [`Op::output_shape`] first.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` (the data buffer itself must be
    /// coherent; only op-vs-operand consistency is left unchecked).
    #[doc(hidden)]
    pub fn from_op_unchecked(data: Vec<f32>, rows: usize, cols: usize, op: Op) -> Tensor {
        Tensor::new_from_op(data, rows, cols, op)
    }

    /// Returns a detached copy: same data, no history, no gradient.
    pub fn detach(&self) -> Tensor {
        Tensor::new_leaf(self.to_vec(), self.rows(), self.cols())
    }

    // ------------------------------------------------------------------
    // Gradients
    // ------------------------------------------------------------------

    /// Copies the accumulated gradient out, or zeros if none was recorded.
    pub fn grad_vec(&self) -> Vec<f32> {
        self.inner
            .grad
            .borrow()
            .clone()
            .unwrap_or_else(|| vec![0.0; self.len()])
    }

    /// Whether a gradient has been accumulated.
    pub fn has_grad(&self) -> bool {
        self.inner.grad.borrow().is_some()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Adds `g` into the accumulated gradient (used by gradient clipping).
    pub fn accumulate_grad_public(&self, g: &[f32]) {
        assert_eq!(g.len(), self.len(), "gradient shape mismatch");
        self.accumulate_grad(g);
    }

    pub(crate) fn accumulate_grad(&self, g: &[f32]) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                for (e, v) in existing.iter_mut().zip(g) {
                    *e += v;
                }
            }
            None => *slot = Some(g.to_vec()),
        }
    }

    /// [`Tensor::accumulate_grad`] for an owned buffer: the first gradient
    /// a tensor receives is moved into its slot instead of copied.
    pub(crate) fn accumulate_grad_vec(&self, g: Vec<f32>) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                for (e, v) in existing.iter_mut().zip(&g) {
                    *e += v;
                }
            }
            None => *slot = Some(g),
        }
    }

    /// Whether the running backward pass routes a gradient to this tensor.
    pub(crate) fn needs_grad(&self) -> bool {
        self.inner.needs_grad.get()
    }

    /// Runs reverse-mode differentiation from this tensor.
    ///
    /// The tensor must be a scalar (`1 × 1`); the seed gradient is `1.0`.
    /// Gradients reach only the tensors flagged with
    /// [`Tensor::requires_grad`] and the intermediates on a path to them:
    /// a branch that leads to no flagged tensor (a constant input, a frozen
    /// weight) is never differentiated, and an unflagged leaf never gets a
    /// gradient. Flagged tensors accumulate (sum) across passes, so call
    /// [`Tensor::zero_grad`] on parameters between steps; unflagged
    /// intermediates keep no gradient after the pass.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 × 1`.
    pub fn backward(&self) {
        assert_eq!(
            self.shape(),
            (1, 1),
            "backward() must be called on a scalar loss"
        );
        self.backward_with_grad(vec![1.0]);
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient of
    /// the same shape as `self` (see [`Tensor::backward`] for which tensors
    /// receive gradients).
    pub fn backward_with_grad(&self, seed: Vec<f32>) {
        assert_eq!(seed.len(), self.len(), "seed gradient shape mismatch");

        // Topological order over the op graph: every tensor after its
        // parents.
        let mut order: Vec<Tensor> = Vec::new();
        let mut visited = IdSet::default();
        // Iterative DFS to avoid stack overflow on deep graphs (e.g. many
        // mask-learning epochs chained by accident).
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((t, children_done)) = stack.pop() {
            if children_done {
                order.push(t);
                continue;
            }
            if !visited.insert(t.inner.id) {
                continue;
            }
            stack.push((t.clone(), true));
            if let Some(op) = &t.inner.op {
                for p in op.operands() {
                    if !visited.contains(&p.inner.id) {
                        stack.push((p.clone(), false));
                    }
                }
            }
        }

        // Decided here, not when the op was built, so a tensor flagged
        // after the fact (GradCAM's feature map) still gets its gradient.
        for t in &order {
            let needs = t.inner.requires_grad.get() || t.inner.op.as_ref().is_some_and(feeds_grad);
            t.inner.needs_grad.set(needs);
        }
        if !self.needs_grad() {
            return;
        }

        self.accumulate_grad_vec(seed);
        for t in order.iter().rev() {
            // A flagged tensor whose ancestors need nothing (a leaf, or an
            // op output flagged to retain its gradient) ends the walk.
            let Some(op) = t.inner.op.as_ref().filter(|op| feeds_grad(op)) else {
                continue;
            };
            // Match PyTorch semantics: intermediate (op-produced) tensors do
            // not retain gradients across passes unless explicitly flagged
            // via `requires_grad()` (retain_grad), so an unflagged one hands
            // its buffer on instead of copying it.
            let grad_out = if t.inner.requires_grad.get() {
                t.inner.grad.borrow().clone()
            } else {
                t.inner.grad.borrow_mut().take()
            };
            if let Some(g) = grad_out {
                op.backward(t, &g);
            }
        }
    }
}

/// Whether some operand of `op` needs a gradient in the running pass.
fn feeds_grad(op: &Op) -> bool {
    op.operands().any(Tensor::needs_grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert_eq!(t.get(1, 2), 6.0);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], 2, 3);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn detach_breaks_history() {
        let a = Tensor::scalar(2.0).requires_grad();
        let b = a.mul_scalar(3.0);
        let d = b.detach();
        assert!(d.inner.op.is_none());
        assert_eq!(d.item(), 6.0);
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let a = Tensor::scalar(2.0).requires_grad();
        let b = a.mul_scalar(3.0);
        b.backward();
        b.backward();
        assert_eq!(a.grad_vec(), vec![6.0]);
        a.zero_grad();
        assert!(!a.has_grad());
    }

    #[test]
    fn clone_shares_storage() {
        let a = Tensor::scalar(1.0);
        let b = a.clone();
        a.set_data(&[9.0]);
        assert_eq!(b.item(), 9.0);
    }
}
