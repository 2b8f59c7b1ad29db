//! Reverse-mode automatic differentiation.
//!
//! A [`Tensor`] is a cheap-to-clone handle to a node in a dynamically built
//! computation DAG plus the node's value. Operators record a backward
//! closure that maps the incoming output gradient to per-parent input
//! gradients; [`Tensor::backward`] runs a topological sweep accumulating
//! gradients into every node that requires them.
//!
//! The graph is rebuilt for every forward pass (define-by-run), so recurrent
//! models simply unroll in time. Nodes are freed when the last handle drops.
//! The graph holds nodes, not values: a value lives only while a handle or a
//! backward closure that reads it does, so a training step keeps only what
//! its backward needs.

use crate::array::Array;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static NO_GRAD_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

pub(crate) fn no_grad_active() -> bool {
    NO_GRAD_DEPTH.with(|d| d.get() > 0)
}

/// Run `f` with gradient recording disabled on this thread: ops executed
/// inside produce constants (no backward closures, no graph retention),
/// which makes pure inference cheaper and lighter on memory. Nestable.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    NO_GRAD_DEPTH.with(|d| d.set(d.get() + 1));
    // Restore the depth even if `f` panics.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            NO_GRAD_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _reset = Reset;
    f()
}

/// Backward closure: receives the gradient flowing into this node and returns
/// one optional gradient per parent (in parent order). `None` means the parent
/// receives no gradient from this edge.
pub(crate) type BackwardFn = Box<dyn Fn(&Array) -> Vec<Option<Array>>>;

/// A graph node. It holds no value: parents are nodes, not tensors, so the
/// graph never keeps an output alive that no backward closure reads.
struct Node {
    id: u64,
    grad: RefCell<Option<Array>>,
    requires_grad: bool,
    /// Shape of the value, for the seed and gradient shape checks.
    shape: Vec<usize>,
    parents: Vec<Rc<Node>>,
    backward: Option<BackwardFn>,
}

impl Drop for Node {
    fn drop(&mut self) {
        // Long op chains (unrolled RNNs) would otherwise drop recursively
        // through `parents` and overflow the stack; unlink iteratively.
        let mut stack = std::mem::take(&mut self.parents);
        while let Some(mut rc) = stack.pop() {
            if let Some(node) = Rc::get_mut(&mut rc) {
                stack.append(&mut node.parents);
            }
            // `rc` drops here with an already-emptied parent list.
        }
    }
}

/// A handle to a node in the autodiff graph and to its [`Array`] value.
/// Clones share both, so an in-place update through one clone (`set_value`,
/// `apply_grad`) is seen by all of them.
#[derive(Clone)]
pub struct Tensor {
    node: Rc<Node>,
    value: Rc<RefCell<Array>>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor{{id: {}, value: {:?}, requires_grad: {}}}",
            self.node.id,
            self.value.borrow(),
            self.node.requires_grad
        )
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Wrap an array as a constant (no gradient tracked).
    pub fn constant(value: Array) -> Self {
        Self::new_node(value, false, Vec::new(), None)
    }

    /// Wrap an array as a trainable parameter (gradient accumulated).
    pub fn parameter(value: Array) -> Self {
        Self::new_node(value, true, Vec::new(), None)
    }

    /// Internal: build an op node.
    pub(crate) fn from_op(value: Array, parents: Vec<Tensor>, backward: BackwardFn) -> Self {
        let requires_grad = !no_grad_active() && parents.iter().any(|p| p.node.requires_grad);
        #[cfg(feature = "sanitize")]
        // relaxed: node ids only need fetch_add's uniqueness, not ordering
        crate::sanitize::check_op_output(NEXT_ID.load(Ordering::Relaxed), &value);
        // Without gradients there is no reason to retain the graph.
        if !requires_grad {
            return Self::new_node(value, false, Vec::new(), None);
        }
        let parents = parents.into_iter().map(|p| p.node).collect();
        Self::new_node(value, true, parents, Some(backward))
    }

    fn new_node(
        value: Array,
        requires_grad: bool,
        parents: Vec<Rc<Node>>,
        backward: Option<BackwardFn>,
    ) -> Self {
        crate::profile::charge_node(&value);
        Tensor {
            node: Rc::new(Node {
                // relaxed: node ids only need fetch_add's uniqueness, not ordering
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                grad: RefCell::new(None),
                requires_grad,
                shape: value.shape().to_vec(),
                parents,
                backward,
            }),
            value: Rc::new(RefCell::new(value)),
        }
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Snapshot of the current value.
    pub fn value(&self) -> Array {
        self.value.borrow().clone()
    }

    /// Run `f` over the value without cloning.
    pub fn with_value<R>(&self, f: impl FnOnce(&Array) -> R) -> R {
        f(&self.value.borrow())
    }

    /// Shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.value.borrow().shape().to_vec()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.value.borrow().numel()
    }

    /// Scalar value of a one-element tensor.
    pub fn item(&self) -> f32 {
        self.value.borrow().item()
    }

    /// Whether gradients flow through/into this tensor.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Accumulated gradient, if any.
    pub fn grad(&self) -> Option<Array> {
        self.node.grad.borrow().clone()
    }

    /// Stable identity of the underlying node (used by optimizers).
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Reset the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Replace the stored gradient outright (gradient clipping).
    pub fn replace_grad(&self, grad: Option<Array>) {
        if let Some(g) = &grad {
            assert_eq!(g.shape(), self.node.shape, "replace_grad shape mismatch");
        }
        *self.node.grad.borrow_mut() = grad;
    }

    /// A new constant tensor sharing this value but cut from the graph.
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value())
    }

    /// Overwrite the value in place (used by optimizers on parameters).
    pub fn set_value(&self, value: Array) {
        let mut v = self.value.borrow_mut();
        assert_eq!(
            v.shape(),
            value.shape(),
            "set_value must preserve the parameter shape"
        );
        *v = value;
    }

    /// Apply an in-place update `f(value, grad)` (optimizer step helper).
    /// Does nothing if the tensor has no gradient.
    pub fn apply_grad(&self, f: impl FnOnce(&mut Array, &Array)) {
        let grad = self.node.grad.borrow();
        if let Some(g) = grad.as_ref() {
            f(&mut self.value.borrow_mut(), g);
        }
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Back-propagate from this (typically scalar loss) tensor, accumulating
    /// `d self / d leaf` into every reachable node with `requires_grad`.
    pub fn backward(&self) {
        let seed = Array::ones(&self.node.shape);
        self.backward_with(seed);
    }

    /// Back-propagate with an explicit seed gradient (same shape as value).
    pub fn backward_with(&self, seed: Array) {
        let _prof = crate::profile::op_scope("backward");
        assert_eq!(
            seed.shape(),
            self.node.shape,
            "backward seed must match the output shape"
        );
        if !self.node.requires_grad {
            return;
        }
        // Topological order (parents before children in `order`, we iterate
        // reversed so gradients flow output -> inputs).
        let mut order: Vec<Rc<Node>> = Vec::new();
        let mut visited: HashMap<u64, ()> = HashMap::new();
        // Iterative DFS to avoid stack overflow on long unrolled RNN graphs.
        let mut stack: Vec<(Rc<Node>, usize)> = vec![(self.node.clone(), 0)];
        visited.insert(self.node.id, ());
        while let Some((node, child_idx)) = stack.pop() {
            if child_idx < node.parents.len() {
                let parent = node.parents[child_idx].clone();
                stack.push((node, child_idx + 1));
                if parent.requires_grad && !visited.contains_key(&parent.id) {
                    visited.insert(parent.id, ());
                    stack.push((parent, 0));
                }
            } else {
                order.push(node);
            }
        }

        // Seed and sweep.
        accumulate(&self.node, seed);
        for node in order.iter().rev() {
            // Leaves have no closure and keep their gradient.
            let Some(backward) = node.backward.as_ref() else {
                continue;
            };
            // Non-leaf gradients are transient: consume and clear so a
            // second backward() pass does not double-count (leaf parameters
            // keep accumulating, as optimizers expect).
            let Some(grad_out) = node.grad.borrow_mut().take() else {
                continue;
            };
            #[cfg(feature = "sanitize")]
            crate::sanitize::check_grad("output gradient", node.id, &grad_out, &node.shape);
            let parent_grads = backward(&grad_out);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (parent, grad) in node.parents.iter().zip(parent_grads) {
                if let Some(g) = grad {
                    #[cfg(feature = "sanitize")]
                    crate::sanitize::check_grad("parent gradient", parent.id, &g, &parent.shape);
                    if parent.requires_grad {
                        accumulate(parent, g);
                    }
                }
            }
        }
    }
}

fn accumulate(node: &Node, grad: Array) {
    let mut slot = node.grad.borrow_mut();
    match slot.as_mut() {
        Some(existing) => existing.add_scaled_assign(&grad, 1.0),
        None => *slot = Some(grad),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_do_not_track() {
        let a = Tensor::constant(Array::scalar(1.0));
        let b = Tensor::constant(Array::scalar(2.0));
        let c = a.add(&b);
        assert!(!c.requires_grad());
        c.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn simple_chain_gradient() {
        // y = (a + b) * a ; dy/da = 2a + b ; dy/db = a
        let a = Tensor::parameter(Array::scalar(3.0));
        let b = Tensor::parameter(Array::scalar(4.0));
        let y = a.add(&b).mul(&a);
        assert_eq!(y.item(), 21.0);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 10.0);
        assert_eq!(b.grad().unwrap().item(), 3.0);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let a = Tensor::parameter(Array::scalar(2.0));
        let y = a.mul(&a);
        y.backward();
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 8.0); // 2 * (2a)
        a.zero_grad();
        assert!(a.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // y = a*a + a*a: two paths, dy/da = 4a.
        let a = Tensor::parameter(Array::scalar(3.0));
        let p = a.mul(&a);
        let y = p.add(&p);
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn detach_stops_gradient() {
        let a = Tensor::parameter(Array::scalar(5.0));
        let d = a.detach();
        let y = d.mul(&d);
        y.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut x = Tensor::parameter(Array::scalar(1.0));
        let one = Tensor::constant(Array::scalar(1.0000001));
        for _ in 0..20_000 {
            x = x.mul(&one);
        }
        x.backward();
        // Gradient is finite and roughly 1.
        let g = x.grad(); // grad of the head is the seed
        assert!(g.is_some() || x.requires_grad());
    }

    #[test]
    fn no_grad_disables_recording_and_restores() {
        let a = Tensor::parameter(Array::scalar(2.0));
        let y = crate::tensor::no_grad(|| a.mul(&a));
        assert!(!y.requires_grad());
        y.backward();
        assert!(a.grad().is_none());
        // Recording resumes outside the scope.
        let z = a.mul(&a);
        assert!(z.requires_grad());
        z.backward();
        assert_eq!(a.grad().unwrap().item(), 4.0);
    }

    #[test]
    fn no_grad_nests_and_survives_panic() {
        let caught = std::panic::catch_unwind(|| {
            crate::tensor::no_grad(|| {
                crate::tensor::no_grad(|| panic!("boom"));
            })
        });
        assert!(caught.is_err());
        // Depth restored: recording works again.
        let a = Tensor::parameter(Array::scalar(1.0));
        assert!(a.mul(&a).requires_grad());
    }

    #[test]
    fn clones_of_a_parameter_share_one_value() {
        let a = Tensor::parameter(Array::from_vec(&[2], vec![1.0, 2.0]).unwrap());
        let b = a.clone();
        b.set_value(Array::from_vec(&[2], vec![3.0, 4.0]).unwrap());
        assert_eq!(a.value().data(), &[3.0, 4.0]);
        // The next op reads the updated value: 3² + 4² = 25, grad 2a.
        let y = a.mul(&a).sum_all();
        assert_eq!(y.item(), 25.0);
        y.backward();
        assert_eq!(b.grad().unwrap().data(), &[6.0, 8.0]);
        a.apply_grad(|v, g| v.add_scaled_assign(g, -0.5));
        assert_eq!(b.value().data(), &[0.0, 0.0]);
        assert_eq!(b.mul(&a).add_scalar(1.0).sum_all().item(), 2.0);
    }

    #[test]
    fn set_value_keeps_shape() {
        let a = Tensor::parameter(Array::zeros(&[2, 2]));
        a.set_value(Array::ones(&[2, 2]));
        assert_eq!(a.value().sum_all(), 4.0);
    }

    #[test]
    #[should_panic(expected = "preserve the parameter shape")]
    fn set_value_rejects_shape_change() {
        let a = Tensor::parameter(Array::zeros(&[2, 2]));
        a.set_value(Array::ones(&[3]));
    }
}
