//! Total ordering for `f64` edge weights and distances.
//!
//! `f64` is only [`PartialOrd`], so comparator code is forever tempted to
//! write `a.partial_cmp(&b).unwrap()` — which panics on NaN — or
//! `.unwrap_or(Ordering::Equal)` — which silently treats NaN as equal to
//! everything and can corrupt a heap or sort. Every weight and distance in
//! this workspace is finite (edge constructors assert it), so the right
//! tool is IEEE 754 `totalOrder`: deterministic, panic-free, and agreeing
//! with `<` on the finite values we actually produce.
//!
//! Use [`OrdF64`] where an `Ord` *type* is needed (heap entries, sort
//! keys, `BTreeMap` keys) and [`cmp_f64`] where a comparator *function* is
//! needed (`sort_by`, manual `Ord` impls). The `clippy.toml` entry that
//! disallows `partial_cmp` points offending code here.

use std::cmp::Ordering;

/// An `f64` with the IEEE 754 `totalOrder` as its [`Ord`] implementation.
///
/// ```
/// use tc_graph::OrdF64;
/// use std::collections::BinaryHeap;
///
/// let mut heap = BinaryHeap::new();
/// heap.push(OrdF64(1.5));
/// heap.push(OrdF64(0.5));
/// assert_eq!(heap.pop(), Some(OrdF64(1.5)));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(x: f64) -> Self {
        Self(x)
    }
}

/// Total-order comparator for `f64`, shaped for `slice::sort_by` and for
/// manual `Ord` implementations over float fields.
///
/// ```
/// use tc_graph::cmp_f64;
/// let mut xs = vec![2.0, 0.5, 1.0];
/// xs.sort_by(cmp_f64);
/// assert_eq!(xs, vec![0.5, 1.0, 2.0]);
/// ```
pub fn cmp_f64(a: &f64, b: &f64) -> Ordering {
    a.total_cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_agrees_with_lt_on_finite_values() {
        assert_eq!(cmp_f64(&1.0, &2.0), Ordering::Less);
        assert_eq!(cmp_f64(&2.0, &1.0), Ordering::Greater);
        assert_eq!(cmp_f64(&1.0, &1.0), Ordering::Equal);
        assert!(OrdF64(0.25) < OrdF64(0.5));
        assert!(OrdF64(3.0) == OrdF64(3.0));
    }

    #[test]
    fn nan_neither_panics_nor_equates_to_numbers() {
        // total_cmp puts positive NaN above +inf; the point is that it is
        // deterministic and never panics.
        assert_eq!(cmp_f64(&f64::NAN, &f64::NAN), Ordering::Equal);
        assert_eq!(cmp_f64(&f64::INFINITY, &f64::NAN), Ordering::Less);
        assert_ne!(cmp_f64(&f64::NAN, &1.0), Ordering::Equal);
    }

    #[test]
    fn sorts_with_wrapper_as_key() {
        let mut xs = [(1.5, "b"), (0.5, "a"), (2.5, "c")];
        xs.sort_by_key(|&(w, _)| OrdF64(w));
        let order: Vec<&str> = xs.iter().map(|&(_, s)| s).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn conversion_round_trip() {
        let x = OrdF64::from(4.25);
        assert_eq!(x.get(), 4.25);
        assert_eq!(OrdF64::default().get(), 0.0);
    }
}
