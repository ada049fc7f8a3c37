//! Vertex-to-worker partitioning strategies.
//!
//! The paper's introduction lists "graph partitioning and re-partitioning"
//! among the optimization techniques designed for vertex-centric systems;
//! the partitioning ablation measures how the strategy moves the BSP cost
//! model's `w = max_i w_i` and `h = max_i max(s_i, r_i)` terms (maxima
//! over workers — exactly what load imbalance inflates).

use vcgp_graph::VertexId;

/// How vertices are assigned to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioning {
    /// `v mod W` — spreads id-correlated hubs across workers; the default.
    #[default]
    Hash,
    /// Contiguous ranges of `ceil(n / W)` vertices per worker — better
    /// locality for id-clustered graphs, worse balance for id-correlated
    /// skew (e.g. R-MAT's low-id hubs).
    Range,
}

/// A resolved partitioning for a concrete `(n, W)`.
///
/// `owner`/`local_index` sit on the per-message hot path (one owner lookup
/// per send, one local-index lookup per delivery), so the `%`/`/` pair is
/// strength-reduced for *every* divisor — hardware division is tens of
/// cycles, comparable to the rest of the per-message work combined.
/// Power-of-two divisors use mask/shift; the rest use a Lemire fastmod
/// reciprocal (`m = floor(2^64 / d) + 1`), exact for all `u32` numerators
/// when `d >= 2`. Non-power-of-two worker counts (W=3, W=5, ...) used to
/// take the slow division path on every send — and so did *range*
/// partitioning's block divisor for every worker count.
#[derive(Debug, Clone, Copy)]
pub struct Partitioner {
    strategy: Partitioning,
    num_workers: usize,
    /// `log2(W)` when `W` is a power of two; `u32::MAX` otherwise.
    shift: u32,
    /// Lemire reciprocal of `W` when `W` is not a power of two.
    magic: u64,
    /// Range block size (`ceil(n / W)`); unused for hash.
    block: usize,
    /// `log2(block)` when the block is a power of two; `u32::MAX` otherwise.
    block_shift: u32,
    /// Lemire reciprocal of `block` when it is not a power of two.
    block_magic: u64,
}

/// `floor(2^64 / d) + 1`, the fastdiv/fastmod reciprocal. Requires
/// `2 <= d <= u32::MAX` for exact `u32` quotients and remainders; callers
/// route `d == 1` and powers of two through the shift path instead (so the
/// smallest divisor reaching here is 3).
#[inline]
fn reciprocal(d: usize) -> u64 {
    debug_assert!(d >= 2 && d <= u32::MAX as usize);
    (u64::MAX / d as u64) + 1
}

/// `v / d` via the reciprocal: take the high 64 bits of `m * v`.
#[inline]
fn fastdiv(m: u64, v: u32) -> usize {
    (((m as u128) * v as u128) >> 64) as usize
}

/// `v % d` via the reciprocal: scale the low 64 bits of `m * v` by `d`.
#[inline]
fn fastmod(m: u64, v: u32, d: usize) -> usize {
    let low = m.wrapping_mul(v as u64);
    (((low as u128) * d as u128) >> 64) as usize
}

impl Partitioner {
    /// Resolves `strategy` for a graph of `n` vertices on `w` workers.
    pub fn new(strategy: Partitioning, n: usize, w: usize) -> Self {
        assert!(w >= 1);
        assert!(
            w <= u32::MAX as usize,
            "worker count exceeds reciprocal range"
        );
        let block = n.div_ceil(w).max(1);
        Partitioner {
            strategy,
            num_workers: w,
            shift: if w.is_power_of_two() {
                w.trailing_zeros()
            } else {
                u32::MAX
            },
            magic: if w.is_power_of_two() {
                0
            } else {
                reciprocal(w)
            },
            block,
            block_shift: if block.is_power_of_two() {
                block.trailing_zeros()
            } else {
                u32::MAX
            },
            block_magic: if block.is_power_of_two() {
                0
            } else {
                reciprocal(block)
            },
        }
    }

    /// The worker that owns vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        match self.strategy {
            Partitioning::Hash => {
                if self.shift != u32::MAX {
                    v as usize & (self.num_workers - 1)
                } else {
                    fastmod(self.magic, v, self.num_workers)
                }
            }
            Partitioning::Range => {
                let q = if self.block_shift != u32::MAX {
                    v as usize >> self.block_shift
                } else {
                    fastdiv(self.block_magic, v)
                };
                q.min(self.num_workers - 1)
            }
        }
    }

    /// The owner-local index of vertex `v`.
    #[inline]
    pub fn local_index(&self, v: VertexId) -> usize {
        match self.strategy {
            Partitioning::Hash => {
                if self.shift != u32::MAX {
                    v as usize >> self.shift
                } else {
                    fastdiv(self.magic, v)
                }
            }
            Partitioning::Range => v as usize - self.owner(v) * self.block,
        }
    }

    /// The number of workers this partitioner routes over.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(strategy: Partitioning, n: usize, w: usize) {
        let p = Partitioner::new(strategy, n, w);
        let mut counts = vec![0usize; w];
        let mut seen = vec![vec![]; w];
        for v in 0..n as VertexId {
            let o = p.owner(v);
            assert!(o < w, "owner out of range");
            let li = p.local_index(v);
            counts[o] += 1;
            seen[o].push((li, v));
        }
        // Local indices are dense and unique per worker.
        for (o, entries) in seen.iter().enumerate() {
            let mut idx: Vec<usize> = entries.iter().map(|&(li, _)| li).collect();
            idx.sort_unstable();
            assert_eq!(idx, (0..counts[o]).collect::<Vec<_>>(), "worker {o}");
        }
    }

    #[test]
    fn hash_partitioning_dense_local_indices() {
        for (n, w) in [(10, 3), (16, 4), (1, 1), (7, 8), (100, 7)] {
            roundtrip(Partitioning::Hash, n, w);
        }
    }

    #[test]
    fn range_partitioning_dense_local_indices() {
        for (n, w) in [(10, 3), (16, 4), (1, 1), (7, 8), (100, 7)] {
            roundtrip(Partitioning::Range, n, w);
        }
    }

    #[test]
    fn range_is_contiguous() {
        let p = Partitioner::new(Partitioning::Range, 10, 3);
        // block = 4: [0..4) -> 0, [4..8) -> 1, [8..10) -> 2.
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(3), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.owner(9), 2);
        assert_eq!(p.local_index(9), 1);
    }

    #[test]
    fn power_of_two_fast_path_matches_division() {
        // The mask/shift fast path must agree with the plain `%`/`/`
        // formulas for every strategy-independent input.
        for w in [1usize, 2, 3, 4, 5, 6, 7, 8, 16] {
            let p = Partitioner::new(Partitioning::Hash, 1000, w);
            for v in 0..1000u32 {
                assert_eq!(p.owner(v), v as usize % w, "owner v={v} w={w}");
                assert_eq!(p.local_index(v), v as usize / w, "local v={v} w={w}");
            }
        }
    }

    #[test]
    fn reciprocal_path_matches_division_for_odd_worker_counts() {
        // Non-power-of-two worker counts take the Lemire fastmod path; it
        // must agree with `%`/`/` across the id range, including ids far
        // beyond n (owner() is also used on message destinations, which the
        // engine asserts are in range, but the arithmetic itself must hold
        // anywhere a u32 can point).
        for w in [3usize, 5, 6, 7, 9, 12, 33, 100, 999, 1024] {
            let p = Partitioner::new(Partitioning::Hash, 10_000, w);
            for v in (0..100_000u32)
                .step_by(17)
                .chain([u32::MAX, u32::MAX - 1, u32::MAX / 3])
            {
                assert_eq!(p.owner(v), v as usize % w, "owner v={v} w={w}");
                assert_eq!(p.local_index(v), v as usize / w, "local v={v} w={w}");
            }
        }
    }

    #[test]
    fn range_reciprocal_matches_division() {
        // Range partitioning divides by the block size, which is rarely a
        // power of two; cover blocks of 1 (n <= w), odd blocks, and the
        // final short block.
        for (n, w) in [
            (10usize, 3usize),
            (3, 7),
            (100, 7),
            (1000, 3),
            (12_345, 5),
            (999, 999),
        ] {
            let p = Partitioner::new(Partitioning::Range, n, w);
            let block = n.div_ceil(w).max(1);
            for v in 0..n as u32 {
                let expect = (v as usize / block).min(w - 1);
                assert_eq!(p.owner(v), expect, "owner v={v} n={n} w={w}");
                assert_eq!(
                    p.local_index(v),
                    v as usize - expect * block,
                    "local v={v} n={n} w={w}"
                );
            }
        }
    }

    #[test]
    fn hash_spreads_consecutive_ids() {
        let p = Partitioner::new(Partitioning::Hash, 100, 4);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(1), 1);
        assert_eq!(p.owner(5), 1);
        assert_eq!(p.local_index(5), 1);
    }
}
