//! A dense, fixed-capacity bit set.
//!
//! Liveness and reaching-definitions iterate set unions millions of times on
//! the larger corpus routines; a flat `Vec<u64>` representation keeps those
//! unions word-parallel. Chaitin's own implementation used the same trick for
//! the interference bit matrix.

use std::fmt;

/// A set of small integers in `0..capacity`, stored one bit each.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DenseBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseBitSet {
    /// Create an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `value`. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    #[inline]
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(value < self.capacity, "bitset value {value} out of range");
        let (w, b) = (value / 64, value % 64);
        let old = self.words[w];
        self.words[w] = old | (1 << b);
        old & (1 << b) == 0
    }

    /// Remove `value`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        let (w, b) = (value / 64, value % 64);
        let old = self.words[w];
        self.words[w] = old & !(1 << b);
        old & (1 << b) != 0
    }

    /// True if `value` is in the set.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.words[value / 64] & (1 << (value % 64)) != 0
    }

    /// Remove every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∪= other`. Returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∩= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// `self −= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn subtract(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Copy `other`'s contents into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterate over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterate over the elements `>= start` in increasing order.
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let word_idx = start / 64;
        let bits = self
            .words
            .get(word_idx)
            .map_or(0, |&w| w & (!0 << (start % 64)));
        Iter {
            set: self,
            word_idx,
            bits,
        }
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for DenseBitSet {
    /// Builds a set sized to the maximum element (capacity = max + 1).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = DenseBitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl<'a> IntoIterator for &'a DenseBitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the elements of a [`DenseBitSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a DenseBitSet,
    word_idx: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseBitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn boundary_values() {
        let mut s = DenseBitSet::new(65);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        DenseBitSet::new(10).insert(10);
    }

    #[test]
    fn union_reports_change() {
        let mut a = DenseBitSet::new(128);
        let mut b = DenseBitSet::new(128);
        b.insert(100);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(100));
    }

    #[test]
    fn subtract_and_intersect() {
        let mut a: DenseBitSet = [1usize, 2, 3, 64].into_iter().collect();
        let mut c = a.clone();
        let b: DenseBitSet = {
            let mut s = DenseBitSet::new(a.capacity());
            s.insert(2);
            s.insert(64);
            s
        };
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3]);
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![2, 64]);
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let s = DenseBitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        let s = DenseBitSet::new(200);
        assert_eq!(s.iter().count(), 0);
    }

    proptest! {
        #[test]
        fn matches_btreeset_semantics(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..100),
                                      start in 0usize..210) {
            let mut bits = DenseBitSet::new(200);
            let mut model = BTreeSet::new();
            for (v, ins) in ops {
                if ins {
                    prop_assert_eq!(bits.insert(v), model.insert(v));
                } else {
                    prop_assert_eq!(bits.remove(v), model.remove(&v));
                }
            }
            prop_assert_eq!(bits.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(bits.iter_from(start).collect::<Vec<_>>(), model.range(start..).copied().collect::<Vec<_>>());
            prop_assert_eq!(bits.count(), model.len());
        }

        #[test]
        fn union_is_set_union(a in proptest::collection::btree_set(0usize..150, 0..60),
                              b in proptest::collection::btree_set(0usize..150, 0..60)) {
            let mut x = DenseBitSet::new(150);
            x.extend(a.iter().copied());
            let mut y = DenseBitSet::new(150);
            y.extend(b.iter().copied());
            x.union_with(&y);
            let expect: BTreeSet<_> = a.union(&b).copied().collect();
            prop_assert_eq!(x.iter().collect::<BTreeSet<_>>(), expect);
        }
    }
}
