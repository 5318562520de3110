//! [`InlineList`]: a short list of `Copy` values kept inline, spilling to
//! the heap only when it outgrows its inline capacity.
//!
//! The simulator's per-event bookkeeping is full of lists that are
//! nearly always tiny — the links of one transfer, the flows crossing
//! one connection link, the processes joining one process — and a `Vec`
//! costs a heap allocation for each of them. An `InlineList` holds up to
//! `N` items in place, so those lists cost none, while a list that does
//! grow (the store backbone's member list) moves to a `Vec` once and
//! keeps that allocation as it shrinks and grows again.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list of up to `N` `Copy` values stored inline, or any number on
/// the heap.
///
/// It dereferences to a slice, so reads (iteration, indexing,
/// `binary_search`, `partition_point`) are the slice methods. A list
/// that spilled to the heap stays there; an empty list owns no
/// allocation.
#[derive(Clone)]
pub struct InlineList<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// `items[..len]` are the list; the rest are stale copies, never read.
    Inline { len: u8, items: [T; N] },
    /// Past the inline capacity — or empty, before any push.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineList<T, N> {
    const FITS: () = assert!(
        N > 0 && N <= u8::MAX as usize,
        "inline capacity must be 1..=255"
    );

    /// An empty list; allocates nothing.
    pub const fn new() -> Self {
        InlineList(Repr::Heap(Vec::new()))
    }

    /// Appends `item`, moving the list to the heap if it was full.
    pub fn push(&mut self, item: T) {
        let () = Self::FITS;
        match &mut self.0 {
            Repr::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                spilled.push(item);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(v) if v.capacity() == 0 => {
                self.0 = Repr::Inline {
                    len: 1,
                    items: [item; N],
                };
            }
            Repr::Heap(v) => v.push(item),
        }
    }

    /// Inserts `item` at `index`, shifting the items after it right.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, item: T) {
        assert!(index <= self.len(), "insert index out of bounds");
        self.push(item);
        self[index..].rotate_right(1);
    }

    /// Removes and returns the item at `index`, shifting the items after
    /// it left.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let live = &mut items[..*len as usize];
                let item = live[index];
                live[index..].rotate_left(1);
                *len -= 1;
                item
            }
            Repr::Heap(v) => v.remove(index),
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T: Copy, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> From<&[T]> for InlineList<T, N> {
    fn from(slice: &[T]) -> Self {
        let mut list = InlineList::new();
        list.extend(slice.iter().copied());
        list
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineList<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineList::new();
        list.extend(iter);
        list
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the list still lives inline.
    fn inline<T: Copy, const N: usize>(list: &InlineList<T, N>) -> bool {
        matches!(list.0, Repr::Inline { .. })
    }

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut list: InlineList<u32, 2> = InlineList::new();
        assert!(list.is_empty() && !inline(&list));
        list.push(1);
        list.push(2);
        assert!(inline(&list));
        assert_eq!(&*list, &[1, 2]);
        list.push(3);
        assert!(!inline(&list));
        assert_eq!(&*list, &[1, 2, 3]);
        // A spilled list keeps its allocation as it shrinks.
        for _ in 0..3 {
            list.remove(0);
        }
        assert!(list.is_empty() && !inline(&list));
        list.push(4);
        assert!(!inline(&list));
        assert_eq!(&*list, &[4]);
    }

    #[test]
    fn insert_and_remove_keep_order_like_a_vec() {
        let mut list: InlineList<u32, 3> = InlineList::new();
        let mut reference = Vec::new();
        for (i, &x) in [5u32, 1, 9, 3, 7, 2].iter().enumerate() {
            let at = reference.partition_point(|&r| r < x);
            list.insert(at, x);
            reference.insert(at, x);
            assert_eq!(&*list, reference.as_slice(), "after insert {i}");
        }
        while !reference.is_empty() {
            let at = reference.len() / 2;
            assert_eq!(list.remove(at), reference.remove(at));
            assert_eq!(&*list, reference.as_slice());
        }
        let mut small: InlineList<u32, 3> = [4, 6].as_slice().into();
        small.insert(1, 5);
        assert!(inline(&small));
        assert_eq!(small.remove(0), 4);
        assert_eq!(&*small, &[5, 6]);
    }

    #[test]
    fn conversions_keep_the_items() {
        let a: InlineList<u8, 4> = [1u8, 2, 3].as_slice().into();
        let b: InlineList<u8, 4> = (1u8..=3).collect();
        assert_eq!(&*a, &*b);
        assert_eq!(format!("{:?}", a), "[1, 2, 3]");
        let long: InlineList<u8, 4> = (0u8..10).collect();
        assert_eq!(&*long, (0u8..10).collect::<Vec<_>>().as_slice());
        assert!(InlineList::<u8, 4>::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_past_the_end_panics() {
        let mut list: InlineList<u32, 2> = [1].as_slice().into();
        list.remove(1);
    }
}
