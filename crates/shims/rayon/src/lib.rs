//! API-compatible stand-in for the `rayon` crate, backed by the
//! workspace's persistent work-stealing executor (`parcolor-exec`).
//!
//! The build environment for this repository has no network access and no
//! vendored crates.io sources, so the real rayon cannot be compiled in.
//! This shim keeps the workspace's `par_iter()` / `into_par_iter()` call
//! sites compiling — but unlike its earlier fully-sequential incarnation,
//! the reduction terminal now genuinely runs multicore:
//!
//! * **`fold(||id, op).reduce(||id, op)` is parallel.**  The two-closure
//!   rayon shape is driven through [`parcolor_exec::par_fold`]: workers
//!   steal index blocks off one shared counter, fold each block with the
//!   per-split identity, and merge partials with the reduce operator.
//!   This matches rayon's fold-per-split semantics, so the usual rayon
//!   caveat applies verbatim: the operators must be grouping-invariant
//!   (associative + commutative with a neutral identity) for the result
//!   to be deterministic.  Every fold in this workspace reduces
//!   integer-valued counts, which qualify exactly.
//! * **`par_sort_unstable` is parallel.**  Slices are cut into fixed
//!   stripes sorted by stealing workers and merged in pairwise parallel
//!   rounds ([`parcolor_exec::par_sort_unstable`]); the output is the
//!   sorted permutation, so it is bit-identical at every worker count
//!   with no operator caveats at all.
//! * **Everything else is sequential in source order.**  `collect`,
//!   `for_each`, `sum`, `max`, `all`, `find_first`, … walk the index
//!   space `0..len` in order, so they are bit-reproducible and
//!   `find_first`/tie-breaks trivially match rayon's "first in original
//!   order" guarantee.  Small inputs never touch the pool: parallel
//!   reduces below [`MIN_PARALLEL_LEN`] take the same sequential walk.
//!
//! Parallel roots are **ranges** (`(0..n).into_par_iter()`) and **slice
//! borrows** (`slice.par_iter()`).  Owned `Vec`s (`vec.into_par_iter()`)
//! and `par_iter_mut()` deliberately stay on plain `std` iterators: the
//! workspace only uses them for machine-count-sized outer loops, and a
//! `std` receiver keeps `zip`/`enumerate`/`map` with `FnMut` closures
//! working unchanged.
//!
//! Genuine multi-threading elsewhere in the workspace (seed search,
//! striped round simulation) calls `parcolor-exec` directly rather than
//! going through this shim.  Only the surface actually used by the
//! workspace is provided; this is not a general rayon replacement.

use std::ops::Range;

/// Below this many source indices a `fold().reduce()` stays sequential —
/// pool scheduling would cost more than the walk.
pub const MIN_PARALLEL_LEN: usize = 4096;

/// Block size (in source indices) stolen at a time by parallel reduces.
const FOLD_BLOCK: usize = 1024;

/// The traits user code expects from `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSliceMut,
    };
}

/// Number of worker threads the executor resolves for auto (`0`)
/// requests: `PARCOLOR_THREADS`, else all hardware threads.
pub fn current_num_threads() -> usize {
    parcolor_exec::resolve_workers(0)
}

// ---------------------------------------------------------------------
// The parallel-iterator framework
// ---------------------------------------------------------------------

/// A data-parallel pipeline over a fixed index space `0..par_len()`.
///
/// Unlike the previous shim, these are *not* `std` iterators: adapters
/// form a pull-free "drive" pipeline — `drive(range, sink)` pushes the
/// items originating from the given source-index range into `sink` —
/// which is what lets the `fold().reduce()` terminal evaluate disjoint
/// index blocks from multiple pool workers.
pub trait ParallelIterator: Sized {
    /// The element type of the pipeline.
    type Item;

    /// Number of *source* indices feeding the pipeline (items produced
    /// may be fewer — `filter` — or more — `flat_map_iter`).
    fn par_len(&self) -> usize;

    /// Push every item originating from source indices `range` into
    /// `sink`, in ascending source order.  The first argument to the
    /// sink is the originating source index (used by `enumerate`).
    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, Self::Item));

    // ---- adapters -------------------------------------------------

    /// Map each item through `f`.
    fn map<R, F: Fn(Self::Item) -> R>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Keep items satisfying `p`.
    fn filter<P: Fn(&Self::Item) -> bool>(self, p: P) -> Filter<Self, P> {
        Filter { inner: self, p }
    }

    /// Map-and-keep-`Some` in one pass.
    fn filter_map<R, F: Fn(Self::Item) -> Option<R>>(self, f: F) -> FilterMap<Self, F> {
        FilterMap { inner: self, f }
    }

    /// rayon's serially-flattening `flat_map`: each item expands to a
    /// sequential iterator, spliced in source order.
    fn flat_map_iter<U: IntoIterator, F: Fn(Self::Item) -> U>(self, f: F) -> FlatMapIter<Self, F> {
        FlatMapIter { inner: self, f }
    }

    /// Copy referenced items out (rayon's `copied`).
    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Copy + 'a,
    {
        Copied { inner: self }
    }

    /// Pair each item with its **source index** — identical to rayon's
    /// `enumerate` for the indexed roots it is used on (ranges, slices).
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Pair lockstep with another indexed pipeline; length is the
    /// shorter of the two.
    fn zip<Z: IndexedParallelIterator>(self, other: Z) -> Zip<Self, Z>
    where
        Self: IndexedParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Splitting hint; the executor steals fixed blocks, so this is a
    /// no-op kept for API compatibility.
    fn with_min_len(self, _len: usize) -> Self {
        self
    }

    // ---- sequential terminals ------------------------------------

    /// Collect into any `Default + Extend` container, in source order.
    fn collect<C: Default + Extend<Self::Item>>(self) -> C {
        let mut out = C::default();
        let len = self.par_len();
        self.drive(0..len, &mut |_, item| out.extend(std::iter::once(item)));
        out
    }

    /// Apply `f` to every item, in source order.
    fn for_each<F: Fn(Self::Item)>(self, f: F) {
        let len = self.par_len();
        self.drive(0..len, &mut |_, item| f(item));
    }

    /// Number of items produced.
    fn count(self) -> usize {
        let mut n = 0usize;
        let len = self.par_len();
        self.drive(0..len, &mut |_, _| n += 1);
        n
    }

    /// Sum of all items, as a flat left-to-right fold in source order —
    /// bit-identical to the `std` walk even for floats.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        let mut items = Vec::new();
        let len = self.par_len();
        self.drive(0..len, &mut |_, item| items.push(item));
        items.into_iter().sum()
    }

    /// Maximum item (`std` semantics: the last of equal maxima).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let mut best: Option<Self::Item> = None;
        let len = self.par_len();
        self.drive(0..len, &mut |_, item| {
            if best.as_ref().is_none_or(|b| &item >= b) {
                best = Some(item);
            }
        });
        best
    }

    /// Whether every item satisfies `p` (early-exits between blocks).
    fn all<P: Fn(Self::Item) -> bool>(self, p: P) -> bool {
        let len = self.par_len();
        let mut ok = true;
        let mut s = 0;
        while s < len && ok {
            let e = (s + FOLD_BLOCK).min(len);
            self.drive(s..e, &mut |_, item| {
                if ok && !p(item) {
                    ok = false;
                }
            });
            s = e;
        }
        ok
    }

    /// Whether any item satisfies `p` (early-exits between blocks).
    fn any<P: Fn(Self::Item) -> bool>(self, p: P) -> bool {
        let len = self.par_len();
        let mut hit = false;
        let mut s = 0;
        while s < len && !hit {
            let e = (s + FOLD_BLOCK).min(len);
            self.drive(s..e, &mut |_, item| {
                if !hit && p(item) {
                    hit = true;
                }
            });
            s = e;
        }
        hit
    }

    /// First item (in source order) satisfying `p` — rayon's guarantee,
    /// free here because the walk is ordered (early-exits between
    /// blocks).
    fn find_first<P: Fn(&Self::Item) -> bool>(self, p: P) -> Option<Self::Item> {
        let len = self.par_len();
        let mut found: Option<Self::Item> = None;
        let mut s = 0;
        while s < len && found.is_none() {
            let e = (s + FOLD_BLOCK).min(len);
            self.drive(s..e, &mut |_, item| {
                if found.is_none() && p(&item) {
                    found = Some(item);
                }
            });
            s = e;
        }
        found
    }

    // ---- the parallel terminal -----------------------------------

    /// rayon's two-closure fold: each split starts from `identity()` and
    /// folds its items with `fold_op`, yielding a pipeline of partial
    /// accumulators for [`Fold::reduce`] to merge.  This is the ONE
    /// terminal that runs on the executor pool — see the crate docs for
    /// the grouping-invariance requirement that implies.
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        ID: Fn() -> T,
        F: Fn(T, Self::Item) -> T,
    {
        Fold {
            inner: self,
            identity,
            fold_op,
        }
    }
}

/// Pipelines with O(1) random access by source index (ranges, slices,
/// and index-preserving adapters over them); required by `zip`.
pub trait IndexedParallelIterator: ParallelIterator {
    /// The item originating from source index `i` (`i < par_len()`).
    fn at(&self, i: usize) -> Self::Item;
}

// ---- adapter types --------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I: ParallelIterator, R, F: Fn(I::Item) -> R> ParallelIterator for Map<I, F> {
    type Item = R;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, R)) {
        let f = &self.f;
        self.inner.drive(range, &mut |i, item| sink(i, f(item)));
    }
}

impl<I: IndexedParallelIterator, R, F: Fn(I::Item) -> R> IndexedParallelIterator for Map<I, F> {
    fn at(&self, i: usize) -> R {
        (self.f)(self.inner.at(i))
    }
}

/// See [`ParallelIterator::filter`].
pub struct Filter<I, P> {
    inner: I,
    p: P,
}

impl<I: ParallelIterator, P: Fn(&I::Item) -> bool> ParallelIterator for Filter<I, P> {
    type Item = I::Item;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, I::Item)) {
        let p = &self.p;
        self.inner.drive(range, &mut |i, item| {
            if p(&item) {
                sink(i, item);
            }
        });
    }
}

/// See [`ParallelIterator::filter_map`].
pub struct FilterMap<I, F> {
    inner: I,
    f: F,
}

impl<I: ParallelIterator, R, F: Fn(I::Item) -> Option<R>> ParallelIterator for FilterMap<I, F> {
    type Item = R;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, R)) {
        let f = &self.f;
        self.inner.drive(range, &mut |i, item| {
            if let Some(r) = f(item) {
                sink(i, r);
            }
        });
    }
}

/// See [`ParallelIterator::flat_map_iter`].
pub struct FlatMapIter<I, F> {
    inner: I,
    f: F,
}

impl<I: ParallelIterator, U: IntoIterator, F: Fn(I::Item) -> U> ParallelIterator
    for FlatMapIter<I, F>
{
    type Item = U::Item;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, U::Item)) {
        let f = &self.f;
        self.inner.drive(range, &mut |i, item| {
            for x in f(item) {
                sink(i, x);
            }
        });
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<I> {
    inner: I,
}

impl<'a, T: Copy + 'a, I: ParallelIterator<Item = &'a T>> ParallelIterator for Copied<I> {
    type Item = T;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, T)) {
        self.inner.drive(range, &mut |i, item| sink(i, *item));
    }
}

impl<'a, T: Copy + 'a, I: IndexedParallelIterator<Item = &'a T>> IndexedParallelIterator
    for Copied<I>
{
    fn at(&self, i: usize) -> T {
        *self.inner.at(i)
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    inner: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, (usize, I::Item))) {
        self.inner.drive(range, &mut |i, item| sink(i, (i, item)));
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {
    fn at(&self, i: usize) -> (usize, I::Item) {
        (i, self.inner.at(i))
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, (A::Item, B::Item))) {
        let end = range.end.min(self.par_len());
        for i in range.start..end {
            sink(i, (self.a.at(i), self.b.at(i)));
        }
    }
}

// ---- the parallel fold/reduce terminal ------------------------------

/// Pending two-closure fold; [`Fold::reduce`] merges the per-split
/// partials — on the executor pool when the index space is large enough.
pub struct Fold<I, ID, F> {
    inner: I,
    identity: ID,
    fold_op: F,
}

impl<I, T, ID, F> Fold<I, ID, F>
where
    I: ParallelIterator + Sync,
    T: Send,
    ID: Fn() -> T + Sync,
    F: Fn(T, I::Item) -> T + Sync,
{
    /// Merge the fold's per-split partials with `reduce_op`, starting
    /// from `reduce_identity`.  Deterministic at every worker count iff
    /// the operators are grouping-invariant (see the crate docs).
    pub fn reduce<RID, R>(self, reduce_identity: RID, reduce_op: R) -> T
    where
        RID: Fn() -> T + Sync,
        R: Fn(T, T) -> T + Sync,
    {
        let len = self.inner.par_len();
        let workers = parcolor_exec::resolve_workers(0)
            .min(len / FOLD_BLOCK)
            .max(1);
        if len < MIN_PARALLEL_LEN || workers <= 1 {
            // One split: fold everything sequentially.
            let mut acc = Some((self.identity)());
            self.inner.drive(0..len, &mut |_, item| {
                let a = acc.take().expect("fold accumulator");
                acc = Some((self.fold_op)(a, item));
            });
            return reduce_op(reduce_identity(), acc.expect("fold accumulator"));
        }
        let inner = &self.inner;
        let identity = &self.identity;
        let fold_op = &self.fold_op;
        let reduce_op = &reduce_op;
        parcolor_exec::par_fold(
            parcolor_exec::Executor::global(),
            workers,
            0..len as u64,
            FOLD_BLOCK as u64,
            || (),
            &reduce_identity,
            |start, blen, acc: T, _scratch: &mut ()| {
                let mut block = Some(identity());
                inner.drive(start as usize..(start + blen) as usize, &mut |_, item| {
                    let b = block.take().expect("block accumulator");
                    block = Some(fold_op(b, item));
                });
                reduce_op(acc, block.expect("block accumulator"))
            },
            reduce_op,
        )
    }
}

// ---- parallel roots -------------------------------------------------

/// Parallel pipeline over an integer range (the root behind
/// `(0..n).into_par_iter()`).
pub struct ParRange<T> {
    start: T,
    len: usize,
}

macro_rules! par_range_impl {
    ($($ty:ty),*) => {$(
        impl ParallelIterator for ParRange<$ty> {
            type Item = $ty;

            fn par_len(&self) -> usize {
                self.len
            }

            fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, $ty)) {
                for i in range {
                    sink(i, self.start + i as $ty);
                }
            }
        }

        impl IndexedParallelIterator for ParRange<$ty> {
            fn at(&self, i: usize) -> $ty {
                self.start + i as $ty
            }
        }

        impl IntoParallelIterator for Range<$ty> {
            type Iter = ParRange<$ty>;

            fn into_par_iter(self) -> ParRange<$ty> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                ParRange { start: self.start, len }
            }
        }
    )*};
}

par_range_impl!(u32, u64, usize);

/// Parallel pipeline borrowing a slice (the root behind `par_iter()`).
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn drive(&self, range: Range<usize>, sink: &mut dyn FnMut(usize, &'a T)) {
        for i in range {
            sink(i, &self.slice[i]);
        }
    }
}

impl<'a, T> IndexedParallelIterator for ParSlice<'a, T> {
    fn at(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

// ---- entry-point traits ---------------------------------------------

/// `into_par_iter()` on owned collections and ranges.  Ranges become
/// parallel [`ParRange`] roots; owned `Vec`s stay plain `std` iterators
/// (machine-count-sized outer loops — see the crate docs).
pub trait IntoParallelIterator {
    /// The iterator type produced.
    type Iter;

    /// Convert into a (potentially parallel) iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T> IntoParallelIterator for Vec<T> {
    type Iter = std::vec::IntoIter<T>;

    fn into_par_iter(self) -> std::vec::IntoIter<T> {
        self.into_iter()
    }
}

/// `par_iter()` on slices (and everything that derefs to a slice).
pub trait IntoParallelRefIterator {
    /// Element type.
    type Item;

    /// Borrowing parallel pipeline over the elements.
    fn par_iter(&self) -> ParSlice<'_, Self::Item>;
}

impl<T> IntoParallelRefIterator for [T] {
    type Item = T;

    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
}

/// `par_iter_mut()` on slices.  Stays a `std` iterator: every workspace
/// use is a disjoint-row fill where sequential order is load-bearing
/// for reproducibility of the surrounding diagnostics.
pub trait IntoParallelRefMutIterator {
    /// Element type.
    type Item;

    /// Mutably borrowing iterator over the elements.
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, Self::Item>;
}

impl<T> IntoParallelRefMutIterator for [T] {
    type Item = T;

    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.iter_mut()
    }
}

/// Parallel slice sorts.
pub trait ParallelSliceMut<T> {
    /// Unstable sort, pool-backed: sorted stripes + pairwise parallel
    /// merges via [`parcolor_exec::par_sort_unstable`].  The `Send +
    /// Copy` bounds (absent in real rayon, which only needs `Ord +
    /// Send`) let elements transit the merge scratch buffer by memcpy;
    /// every sort key in this workspace is a small integer tuple, so the
    /// narrowing is free here.  Output is the sorted permutation —
    /// bit-identical at every worker count.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send + Sync + Copy;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send + Sync + Copy,
    {
        parcolor_exec::par_sort_unstable(
            parcolor_exec::Executor::global(),
            parcolor_exec::resolve_workers(0),
            self,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::MIN_PARALLEL_LEN;

    #[test]
    fn combinators_compile_and_agree_with_std() {
        let v: Vec<u32> = (0..10u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10u32).map(|x| x * 2).collect::<Vec<_>>());
        let s: u32 = v.par_iter().copied().sum();
        assert_eq!(s, 90);
        let mut w = vec![3u32, 1, 2];
        w.par_sort_unstable();
        assert_eq!(w, vec![1, 2, 3]);
        // Large enough to take the pool-backed stripe + merge path.
        let mut big: Vec<u32> = (0..40_000u32)
            .map(|i| i.wrapping_mul(2654435761) % 997)
            .collect();
        let mut expected = big.clone();
        expected.sort_unstable();
        big.par_sort_unstable();
        assert_eq!(big, expected);
        let found = (0..100u64).into_par_iter().find_first(|&x| x > 41);
        assert_eq!(found, Some(42));
        assert!((0..50u32).into_par_iter().all(|x| x < 50));
        assert!((0..50u32).into_par_iter().any(|x| x == 49));
        assert_eq!(
            (0..1000usize)
                .into_par_iter()
                .filter(|&x| x % 3 == 0)
                .count(),
            334
        );
        assert_eq!((0..7u32).into_par_iter().max(), Some(6));
        let fm: Vec<u32> = (0..4u32)
            .into_par_iter()
            .flat_map_iter(|x| vec![x, x + 10])
            .collect();
        assert_eq!(fm, vec![0, 10, 1, 11, 2, 12, 3, 13]);
    }

    #[test]
    fn enumerate_and_zip_are_index_aligned() {
        let xs = [10u32, 20, 30];
        let pairs: Vec<(usize, u32)> = xs
            .par_iter()
            .copied()
            .enumerate()
            .map(|(i, x)| (i, x))
            .collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
        let ys = [1u32, 2, 3, 4];
        let zipped: Vec<u32> = xs
            .par_iter()
            .zip(ys.par_iter())
            .map(|(&a, &b)| a + b)
            .collect();
        assert_eq!(zipped, vec![11, 22, 33]);
    }

    /// The executor-backed `fold().reduce()` must agree with the serial
    /// walk on a range large enough to take the parallel path.
    #[test]
    fn parallel_fold_reduce_matches_sequential() {
        let n = (4 * MIN_PARALLEL_LEN) as u64;
        let serial: (u64, u64) = (0..n)
            .map(|x| (1u64, x % 97))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let par = (0..n)
            .into_par_iter()
            .map(|x| (1u64, x % 97))
            .fold(|| (0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
            .reduce(|| (0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        assert_eq!(par, serial);
    }

    /// A filtered parallel fold (the graphops shape) over a large range.
    #[test]
    fn filtered_fold_reduce_counts_exactly() {
        let n = (4 * MIN_PARALLEL_LEN) as u32;
        let (count, weight) = (0..n)
            .into_par_iter()
            .filter(|&v| v % 5 == 0)
            .map(|v| (1usize, (v % 11) as u64))
            .fold(|| (0usize, 0u64), |a, b| (a.0 + b.0, a.1 + b.1))
            .reduce(|| (0usize, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        let serial: (usize, u64) = (0..n)
            .filter(|&v| v % 5 == 0)
            .map(|v| (1usize, (v % 11) as u64))
            .fold((0, 0), |a: (usize, u64), b| (a.0 + b.0, a.1 + b.1));
        assert_eq!((count, weight), serial);
    }

    /// `f64::max` reduces with a NEG_INFINITY identity must not clamp
    /// all-negative inputs (the reduce.rs:310 regression class).
    #[test]
    fn max_fold_with_neg_infinity_identity_handles_negatives() {
        let vals: Vec<f64> = (0..(2 * MIN_PARALLEL_LEN))
            .map(|i| -1.0 - (i % 7) as f64)
            .collect();
        let m = vals
            .par_iter()
            .copied()
            .fold(|| f64::NEG_INFINITY, f64::max)
            .reduce(|| f64::NEG_INFINITY, f64::max);
        assert_eq!(m, -1.0);
    }

    #[test]
    fn vec_receiver_stays_sequential_std() {
        let parts = vec![vec![1u32, 2], vec![3], vec![]];
        let sizes: Vec<(usize, usize)> = parts
            .into_par_iter()
            .enumerate()
            .map(|(i, p)| (i, p.len()))
            .collect();
        assert_eq!(sizes, vec![(0, 2), (1, 1), (2, 0)]);
    }
}
