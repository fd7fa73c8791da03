//! In-tree shim of `rayon`'s parallel-iterator surface (the subset this
//! workspace uses: `par_iter().map(..).collect()`, optionally with
//! `enumerate`). Scheduling is dynamic work-claiming: worker threads pull
//! the next item index from a shared atomic counter, so an expensive item
//! never pins a whole pre-chunked shard on one thread (the failure mode of
//! hand-rolled `chunks(n)` parallelism this replaces).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Re-exports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// `.par_iter()` entry point for slice-like containers.
pub trait IntoParallelRefIterator<'data> {
    /// Element type.
    type Item: Sync + 'data;
    /// Start a parallel iterator over `&self`.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { slice: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'data, T> {
    slice: &'data [T],
}

/// Enumerated variant.
pub struct ParEnumerate<'data, T> {
    slice: &'data [T],
}

/// Mapped, ready to collect.
pub struct ParMap<'data, T, F> {
    slice: &'data [T],
    enumerated: bool,
    f: F,
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Pair each element with its index.
    pub fn enumerate(self) -> ParEnumerate<'data, T> {
        ParEnumerate { slice: self.slice }
    }

    /// Apply `f` to each element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, ItemFn<F>>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap { slice: self.slice, enumerated: false, f: ItemFn(f) }
    }
}

impl<'data, T: Sync> ParEnumerate<'data, T> {
    /// Apply `f` to each `(index, element)` pair in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, PairFn<F>>
    where
        R: Send,
        F: Fn((usize, &'data T)) -> R + Sync,
    {
        ParMap { slice: self.slice, enumerated: true, f: PairFn(f) }
    }
}

/// Adapter: closure over a bare item.
pub struct ItemFn<F>(F);
/// Adapter: closure over an `(index, item)` pair.
pub struct PairFn<F>(F);

/// Internal: apply the stored closure to the item at `i`.
pub trait IndexedCall<'data, T>: Sync {
    /// Result type.
    type Out: Send;
    /// Call for slice index `i`.
    fn call(&self, i: usize, item: &'data T) -> Self::Out;
}

impl<'data, T: Sync + 'data, R: Send, F: Fn(&'data T) -> R + Sync> IndexedCall<'data, T>
    for ItemFn<F>
{
    type Out = R;
    fn call(&self, _i: usize, item: &'data T) -> R {
        (self.0)(item)
    }
}

impl<'data, T: Sync + 'data, R: Send, F: Fn((usize, &'data T)) -> R + Sync> IndexedCall<'data, T>
    for PairFn<F>
{
    type Out = R;
    fn call(&self, i: usize, item: &'data T) -> R {
        (self.0)((i, item))
    }
}

impl<'data, T: Sync, F: IndexedCall<'data, T>> ParMap<'data, T, F> {
    /// Run the map across the pool and collect results in slice order.
    pub fn collect<C: From<Vec<F::Out>>>(self) -> C {
        let _ = self.enumerated; // encoded in the adapter; kept for clarity
        C::from(run_indexed(self.slice, &self.f))
    }
}

/// Number of worker threads to use for `n` items. The hardware count is
/// read once per process: on Linux `available_parallelism` re-reads the
/// affinity mask and the cgroup quota files on every call, and callers fan
/// out once per search.
fn pool_size(n: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()));
    hw.min(n)
}

fn run_indexed<'data, T: Sync, F: IndexedCall<'data, T>>(slice: &'data [T], f: &F) -> Vec<F::Out> {
    let n = slice.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = pool_size(n);
    if threads <= 1 {
        return slice.iter().enumerate().map(|(i, item)| f.call(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, F::Out)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f.call(i, &slice[i])));
                }
                out.lock().expect("rayon shim: worker poisoned the sink").extend(local);
            });
        }
    });
    let mut pairs = out.into_inner().expect("rayon shim: sink poisoned");
    pairs.sort_unstable_by_key(|p| p.0);
    pairs.into_iter().map(|p| p.1).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let data: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = data.par_iter().map(|v| v * 2).collect();
        assert_eq!(doubled, (0..1000).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_passes_true_indices() {
        let data = vec!["a", "b", "c"];
        let tagged: Vec<(usize, &str)> =
            data.par_iter().enumerate().map(|(i, s)| (i, *s)).collect();
        assert_eq!(tagged, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete correctly.
        let data: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = data
            .par_iter()
            .map(|&v| {
                let spins = if v % 16 == 0 { 200_000 } else { 10 };
                let mut acc = v;
                for _ in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(acc);
                v
            })
            .collect();
        assert_eq!(out, data);
    }

    #[test]
    fn empty_input() {
        let data: Vec<u64> = Vec::new();
        let out: Vec<u64> = data.par_iter().map(|v| *v).collect();
        assert!(out.is_empty());
    }
}
