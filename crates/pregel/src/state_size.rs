//! Per-vertex state accounting for BPPA property 1.
//!
//! BPPA's first property bounds the *storage* each vertex uses by
//! `O(d(v))`. To measure it we need every vertex value type to report its
//! size, including heap content (the diameter algorithm's history set is the
//! canonical violation: it grows to `Θ(n)` vertex ids per vertex).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Reports the total size in bytes of a value, including owned heap data.
///
/// Implementations count `size_of::<Self>()` plus the *elements* of owned
/// containers; spare capacity is deliberately excluded so measurements
/// reflect the algorithm's storage demand rather than allocator growth
/// policy.
pub trait StateSize {
    /// Total bytes attributable to `self`.
    fn state_bytes(&self) -> usize;
}

macro_rules! impl_pod_state_size {
    ($($t:ty),* $(,)?) => {
        $(impl StateSize for $t {
            #[inline]
            fn state_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        })*
    };
}

impl_pod_state_size!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    char
);

impl<T: StateSize> StateSize for Option<T> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.as_ref().map_or(0, |v| {
                v.state_bytes().saturating_sub(std::mem::size_of::<T>())
            })
    }
}

impl<T: StateSize> StateSize for Vec<T> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(StateSize::state_bytes).sum::<usize>()
    }
}

impl<T: StateSize> StateSize for Box<T> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.as_ref().state_bytes()
    }
}

impl StateSize for String {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.len()
    }
}

impl<T: StateSize, const N: usize> StateSize for [T; N] {
    fn state_bytes(&self) -> usize {
        self.iter().map(StateSize::state_bytes).sum::<usize>()
    }
}

impl<A: StateSize, B: StateSize> StateSize for (A, B) {
    fn state_bytes(&self) -> usize {
        self.0.state_bytes() + self.1.state_bytes()
    }
}

impl<A: StateSize, B: StateSize, C: StateSize> StateSize for (A, B, C) {
    fn state_bytes(&self) -> usize {
        self.0.state_bytes() + self.1.state_bytes() + self.2.state_bytes()
    }
}

impl<K: StateSize, V: StateSize, S> StateSize for HashMap<K, V, S> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .iter()
                .map(|(k, v)| k.state_bytes() + v.state_bytes())
                .sum::<usize>()
    }
}

impl<T: StateSize, S> StateSize for HashSet<T, S> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(StateSize::state_bytes).sum::<usize>()
    }
}

impl<K: StateSize, V: StateSize> StateSize for BTreeMap<K, V> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .iter()
                .map(|(k, v)| k.state_bytes() + v.state_bytes())
                .sum::<usize>()
    }
}

impl<T: StateSize> StateSize for BTreeSet<T> {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.iter().map(StateSize::state_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_sizes() {
        assert_eq!(0u32.state_bytes(), 4);
        assert_eq!(0u64.state_bytes(), 8);
        assert_eq!(true.state_bytes(), 1);
        assert_eq!(().state_bytes(), 0);
    }

    #[test]
    fn vec_counts_elements() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(v.state_bytes(), std::mem::size_of::<Vec<u32>>() + 12);
        let empty: Vec<u64> = Vec::with_capacity(100);
        // Spare capacity excluded by design.
        assert_eq!(empty.state_bytes(), std::mem::size_of::<Vec<u64>>());
    }

    #[test]
    fn nested_vec() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        let inner = std::mem::size_of::<Vec<u8>>();
        assert_eq!(
            v.state_bytes(),
            std::mem::size_of::<Vec<Vec<u8>>>() + 2 * inner + 3
        );
    }

    #[test]
    fn hashset_grows_with_content() {
        let mut s: HashSet<u64> = HashSet::new();
        let base = s.state_bytes();
        for i in 0..10 {
            s.insert(i);
        }
        assert_eq!(s.state_bytes(), base + 80);
    }

    #[test]
    fn option_and_tuple() {
        let some: Option<Vec<u32>> = Some(vec![1, 2]);
        assert!(some.state_bytes() > None::<Vec<u32>>.state_bytes());
        let t = (1u32, vec![1u8, 2u8]);
        assert_eq!(t.state_bytes(), 4 + std::mem::size_of::<Vec<u8>>() + 2);
    }

    #[test]
    fn string_counts_bytes() {
        assert_eq!(
            "hello".to_string().state_bytes(),
            std::mem::size_of::<String>() + 5
        );
    }
}
