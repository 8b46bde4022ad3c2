//! A small, dense, fixed-capacity bitset.
//!
//! The simulation algorithms maintain, for each pattern node, the set of candidate data-graph
//! nodes. Those sets are queried (`contains`) extremely often and mutated (`remove`) in tight
//! refinement loops, so a dense `u64`-word bitset is used instead of `HashSet<NodeId>`.

/// Dense bitset over indices `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Creates a bitset with every index in `0..capacity` set.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Maximum index (exclusive) this bitset can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the set and re-sizes it to a new capacity, reusing the word storage.
    /// Equivalent to `*self = BitSet::new(capacity)` without the allocation when the
    /// capacity shrinks or stays within the existing storage.
    pub fn reset(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
        self.len = 0;
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` when `index` is set. Out-of-range indices are reported as absent.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets `index`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics when `index >= capacity`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bitset index {index} out of capacity {}",
            self.capacity
        );
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Clears `index`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// The backing words: index `i` is bit `i % 64` of word `i / 64`, and bits at or
    /// past the capacity are always clear.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Removes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates over the set indices in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Keeps only the bits that are also present in `other`.
    ///
    /// # Panics
    /// Panics when the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut len = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= *o;
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Adds every bit present in `other`.
    ///
    /// # Panics
    /// Panics when the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut len = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= *o;
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Adds every index on which `a` and `b` disagree (their symmetric difference).
    /// Used by the incremental matcher to accumulate, per pattern node, the data nodes
    /// whose candidacy an update changed.
    ///
    /// # Panics
    /// Panics when any of the three capacities differ.
    pub fn union_symmetric_diff(&mut self, a: &BitSet, b: &BitSet) {
        assert_eq!(a.capacity, b.capacity, "bitset capacity mismatch");
        assert_eq!(self.capacity, a.capacity, "bitset capacity mismatch");
        let mut len = 0;
        for ((w, x), y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *w |= *x ^ *y;
            len += w.count_ones() as usize;
        }
        self.len = len;
    }

    /// Returns `true` when the two sets share at least one index.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if every bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Collects the set indices into a vector (ascending).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a bitset sized to the largest element plus one.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let capacity = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(capacity);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over set bits; see [`BitSet::iter`].
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.len(), 3);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(200));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = BitSet::new(300);
        for i in [5usize, 299, 0, 63, 64, 65, 128] {
            s.insert(i);
        }
        assert_eq!(s.to_vec(), vec![0, 5, 63, 64, 65, 128, 299]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_operations() {
        let a: BitSet = [1usize, 2, 3, 64].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(2);
        b.insert(64);
        b.insert(10);

        let mut inter = a.clone();
        inter.intersect_with(&b);
        assert_eq!(inter.to_vec(), vec![2, 64]);

        let mut uni = a.clone();
        uni.union_with(&b);
        assert_eq!(uni.to_vec(), vec![1, 2, 3, 10, 64]);

        assert!(a.intersects(&b));
        assert!(inter.is_subset_of(&a));
        assert!(!a.is_subset_of(&inter));
    }

    #[test]
    fn empty_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [3usize, 7].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.len(), 2);
    }
}
