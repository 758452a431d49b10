use crate::{AccessKind, Tally, Trie, TrieLevel, Value, WORD_BYTES};

/// A LeapFrog-TrieJoin cursor over a [`Trie`] (Veldhuizen, ICDT'14).
///
/// The cursor is positioned on a node of one trie level (or "above the
/// root"). [`open`](Self::open) descends to the first child,
/// [`up`](Self::up) ascends, [`next`](Self::next) advances to the following
/// sibling, and [`seek`](Self::seek) performs the lowest-upper-bound search
/// that the paper's LUB hardware unit implements with binary search.
///
/// Every value or child-range word fetched from the trie is reported to the
/// caller's [`Tally`]. With [`crate::Counting`] (an [`crate::AccessCounter`])
/// that is how the software engines reproduce the paper's memory-access
/// comparison (Figure 17); with [`crate::NoTally`] the instrumentation
/// compiles away entirely and the cursor runs at full speed.
///
/// # Example
///
/// ```
/// use triejax_relation::{AccessCounter, Relation, Trie, TrieCursor};
///
/// let trie = Trie::build(&Relation::from_pairs(vec![(1, 2), (1, 5), (3, 4)]));
/// let mut cur = TrieCursor::new(&trie);
/// let mut c = AccessCounter::default();
/// cur.open(&mut c);
/// assert_eq!(cur.key(), 1);
/// assert!(cur.seek(2, &mut c)); // lowest upper bound of 2 is 3
/// assert_eq!(cur.key(), 3);
/// cur.open(&mut c);
/// assert_eq!(cur.key(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct TrieCursor<'a> {
    trie: &'a Trie,
    /// Per-depth level views, computed once at construction. The views are
    /// `Copy` borrows into the trie's flat word buffer; caching them keeps
    /// the per-probe hot path (`key`, `open`, `seek`) to a single indexed
    /// read instead of re-slicing the buffer on every call.
    levels: Vec<TrieLevel<'a>>,
    /// One frame per open level: sibling range `[lo, hi)` and position.
    frames: Vec<Frame>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    lo: usize,
    hi: usize,
    pos: usize,
}

impl<'a> TrieCursor<'a> {
    /// Creates a cursor positioned above the root of `trie`.
    pub fn new(trie: &'a Trie) -> Self {
        TrieCursor {
            trie,
            levels: (0..trie.arity()).map(|i| trie.level(i)).collect(),
            frames: Vec::with_capacity(trie.arity()),
        }
    }

    /// The trie this cursor walks.
    pub fn trie(&self) -> &'a Trie {
        self.trie
    }

    /// Current depth: number of open levels (0 = above root).
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// `true` once the cursor stepped past the last sibling of the current
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    #[inline]
    pub fn at_end(&self) -> bool {
        let f = self.frames.last().expect("cursor is above the root");
        f.pos >= f.hi
    }

    /// Value of the current node.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or at the end of a level.
    #[inline]
    pub fn key(&self) -> Value {
        let f = self.frames.last().expect("cursor is above the root");
        assert!(f.pos < f.hi, "cursor is at end");
        self.levels[self.frames.len() - 1].values()[f.pos]
    }

    /// Index of the current node within its level's value array.
    ///
    /// The PJR cache stores these indexes alongside values so cached entries
    /// can be re-expanded by Midwife (paper §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or at the end of a level.
    #[inline]
    pub fn pos(&self) -> usize {
        let f = self.frames.last().expect("cursor is above the root");
        assert!(f.pos < f.hi, "cursor is at end");
        f.pos
    }

    /// Sibling range `[lo, hi)` of the current level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    pub fn sibling_range(&self) -> (usize, usize) {
        let f = self.frames.last().expect("cursor is above the root");
        (f.lo, f.hi)
    }

    /// Descends to the first child of the current node (or to the first
    /// root-level node when above the root), reading the child-range words.
    ///
    /// Returns `false` if the child range is empty (only possible on an
    /// empty trie at the root).
    ///
    /// # Panics
    ///
    /// Panics when called on a leaf-level node or on an ended level.
    #[inline]
    pub fn open<T: Tally>(&mut self, counter: &mut T) -> bool {
        let (lo, hi) = if self.frames.is_empty() {
            (0, self.levels[0].len())
        } else {
            let depth = self.frames.len();
            assert!(depth < self.trie.arity(), "cannot open past the leaf level");
            let f = self.frames.last().expect("non-empty frames");
            assert!(f.pos < f.hi, "cannot open an ended level");
            // Midwife reads child_starts[pos] and child_starts[pos + 1].
            counter.record(AccessKind::IndexRead, 2 * WORD_BYTES);
            self.levels[depth - 1].child_range(f.pos)
        };
        if lo >= hi {
            return false;
        }
        // Fetch the first child's value.
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        self.frames.push(Frame { lo, hi, pos: lo });
        true
    }

    /// Descends to the root level restricted to values in `[min, sup)`
    /// (`sup = None` means unbounded above), reading the bounding child
    /// range and locating the bounds by counted binary search.
    ///
    /// This is the shard-entry operation of the parallel engines: each
    /// root-range shard opens every participating trie's root level
    /// clamped to its slice of the first join variable's domain, so the
    /// subsequent leapfrog never probes outside the shard.
    ///
    /// Returns `false` (leaving the cursor above the root) when no root
    /// value falls inside the range.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not above the root.
    pub fn open_root_range<T: Tally>(
        &mut self,
        min: Value,
        sup: Option<Value>,
        counter: &mut T,
    ) -> bool {
        assert!(
            self.frames.is_empty(),
            "root range opens from above the root"
        );
        let values = self.levels[0].values();
        // An unbounded side needs no probing, so the first shard (min 0)
        // and the last (sup None) pay only for the bound they actually
        // have — and a fully unbounded "range" costs the same as `open`.
        let lo = if min == 0 {
            0
        } else {
            lower_bound(values, 0, values.len(), min, counter)
        };
        let hi = match sup {
            Some(s) => lower_bound(values, lo, values.len(), s, counter),
            None => values.len(),
        };
        if lo >= hi {
            return false;
        }
        // Fetch the first in-range value.
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        self.frames.push(Frame { lo, hi, pos: lo });
        true
    }

    /// Clones this cursor with the root level opened and restricted to
    /// values in `[min, sup)`, or `None` when the range holds no root
    /// value.
    ///
    /// Shard-handoff convenience over
    /// [`open_root_range`](Self::open_root_range) for callers that keep a
    /// prototype cursor per trie and want a positioned, range-clamped
    /// clone per shard (the in-tree engine drivers construct their own
    /// cursors and clamp them with `open_root_range` directly). The
    /// bounding binary searches are untallied — handoff is scheduling
    /// work, not simulated memory traffic; a shard's own accesses are
    /// counted when its driver opens the range.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is not above the root.
    pub fn clone_at_root_range(&self, min: Value, sup: Option<Value>) -> Option<TrieCursor<'a>> {
        assert!(
            self.frames.is_empty(),
            "root range clones from above the root"
        );
        let mut clone = TrieCursor::new(self.trie);
        if clone.open_root_range(min, sup, &mut crate::NoTally) {
            Some(clone)
        } else {
            None
        }
    }

    /// Ascends one level.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root.
    pub fn up(&mut self) {
        self.frames.pop().expect("cursor is above the root");
    }

    /// Advances to the next sibling. Returns `false` (and leaves the cursor
    /// `at_end`) when the level is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or already at the end.
    #[inline]
    pub fn next<T: Tally>(&mut self, counter: &mut T) -> bool {
        let f = self.frames.last_mut().expect("cursor is above the root");
        assert!(f.pos < f.hi, "cursor is already at end");
        f.pos += 1;
        if f.pos < f.hi {
            counter.record(AccessKind::IndexRead, WORD_BYTES);
            true
        } else {
            false
        }
    }

    /// Descends one level directly to an absolute index, without touching
    /// memory.
    ///
    /// This is the cache-hit replay path of Cached TrieJoin: a PJR-cache
    /// entry stores `(value, index)` pairs, so the engine re-opens the level
    /// at the stored index without any child-range read or search. The
    /// pushed frame is a singleton range — during replay the engine never
    /// iterates siblings at the cached level.
    ///
    /// # Panics
    ///
    /// Panics when called on a leaf-level node or with `pos` outside the
    /// level.
    pub fn open_at(&mut self, pos: usize) {
        let depth = self.frames.len();
        assert!(depth < self.trie.arity(), "cannot open past the leaf level");
        assert!(
            pos < self.levels[depth].len(),
            "open_at index outside level"
        );
        self.frames.push(Frame {
            lo: pos,
            hi: pos + 1,
            pos,
        });
    }

    /// Repositions the cursor at an absolute index of the current level,
    /// without touching memory.
    ///
    /// Used when replaying positions stored in a partial-join-result cache:
    /// the cached entry already holds both the value and its index, so no
    /// probe is needed (paper §3.5).
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or `pos` lies outside the
    /// current sibling range.
    pub fn jump(&mut self, pos: usize) {
        let f = self.frames.last_mut().expect("cursor is above the root");
        assert!(
            pos >= f.lo && pos < f.hi,
            "jump target outside sibling range"
        );
        f.pos = pos;
    }

    /// Seeks the lowest upper bound of `v` among the remaining siblings.
    /// Returns `false` when every remaining sibling is smaller than `v`.
    ///
    /// Seeking is forward-only: positions before the current one are never
    /// revisited, as required by LeapFrog TrieJoin. Because successive seeks
    /// within a level are monotone, the target is usually *near* the current
    /// position, so the search gallops (exponential probe strides from
    /// `pos`) before binary-searching the bracketed gap — `O(log d)` probes
    /// for a target `d` ahead, instead of `O(log (hi - pos))` for a
    /// restart-from-`pos` binary search. Every probed word is tallied
    /// (one counted probe per value read), keeping Counting-mode figures
    /// honest.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is above the root or already at the end.
    #[inline]
    pub fn seek<T: Tally>(&mut self, v: Value, counter: &mut T) -> bool {
        let depth = self.frames.len();
        let f = self.frames.last_mut().expect("cursor is above the root");
        assert!(f.pos < f.hi, "cursor is already at end");
        let values = self.levels[depth - 1].values();
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        if values[f.pos] >= v {
            return true;
        }
        // Invariant: values[lo] < v. Gallop until a probe lands >= v (new
        // exclusive upper bracket) or the stride runs off the sibling range.
        let (mut lo, mut hi) = (f.pos, f.hi);
        let mut step = 1usize;
        while lo + step < f.hi {
            counter.record(AccessKind::IndexRead, WORD_BYTES);
            if values[lo + step] < v {
                lo += step;
                step <<= 1;
            } else {
                hi = lo + step;
                break;
            }
        }
        f.pos = lower_bound(values, lo + 1, hi, v, counter);
        f.pos < f.hi
    }
}

/// First index in `values[lo..hi]` whose value is `>= v` (counting one
/// probe per midpoint read, like [`TrieCursor::seek`]).
fn lower_bound<T: Tally>(
    values: &[Value],
    mut lo: usize,
    mut hi: usize,
    v: Value,
    counter: &mut T,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        counter.record(AccessKind::IndexRead, WORD_BYTES);
        if values[mid] < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessCounter, Relation};

    fn trie() -> Trie {
        // Level 0: [1, 3, 7]; children: 1 -> [2, 5], 3 -> [4], 7 -> [1, 9]
        Trie::build(&Relation::from_pairs(vec![
            (1, 2),
            (1, 5),
            (3, 4),
            (7, 1),
            (7, 9),
        ]))
    }

    #[test]
    fn galloping_seek_counts_every_probe() {
        // Single level holding 0..16 so probe sequences are hand-checkable.
        let rel =
            Relation::from_tuples(1, (0..16u32).map(|v| vec![v]).collect::<Vec<_>>()).unwrap();
        let t = Trie::build(&rel);
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        // Seek to the current key: the initial probe answers it.
        let mut c = AccessCounter::default();
        assert!(cur.seek(0, &mut c));
        assert_eq!((cur.key(), c.index_reads), (0, 1));
        // Seek 5 from pos 0: initial probe at 0, gallop probes at 1, 3, 7,
        // binary probes at 5 and 4 — exactly 6 tallied reads.
        let mut c = AccessCounter::default();
        assert!(cur.seek(5, &mut c));
        assert_eq!((cur.key(), c.index_reads), (5, 6));
        // Adjacent seek: initial probe at 5, gallop probe at 6 brackets an
        // empty gap — exactly 2 tallied reads (a restart-from-pos binary
        // search would have paid ~log2(11)).
        let mut c = AccessCounter::default();
        assert!(cur.seek(6, &mut c));
        assert_eq!((cur.key(), c.index_reads), (6, 2));
        // Seek past the end: probes at 6, 7, 9, 13, then binary probe at 15
        // — exactly 5 tallied reads, and the cursor reports exhaustion.
        let mut c = AccessCounter::default();
        assert!(!cur.seek(99, &mut c));
        assert_eq!(c.index_reads, 5);
    }

    #[test]
    fn open_next_walks_root_level() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open(&mut c));
        assert_eq!(cur.key(), 1);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 7);
        assert!(!cur.next(&mut c));
        assert!(cur.at_end());
    }

    #[test]
    fn open_descends_into_children() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.next(&mut c); // at 3
        assert!(cur.open(&mut c));
        assert_eq!(cur.depth(), 2);
        assert_eq!(cur.key(), 4);
        assert!(!cur.next(&mut c));
        cur.up();
        assert_eq!(cur.key(), 3);
    }

    #[test]
    fn seek_finds_lowest_upper_bound() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        assert!(cur.seek(2, &mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.seek(3, &mut c), "seek to the current key stays put");
        assert_eq!(cur.key(), 3);
        assert!(!cur.seek(8, &mut c));
        assert!(cur.at_end());
    }

    #[test]
    fn seek_is_forward_only() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.seek(7, &mut c);
        assert_eq!(cur.key(), 7);
        // Seeking a smaller value must not move backwards.
        assert!(cur.seek(1, &mut c));
        assert_eq!(cur.key(), 7);
    }

    #[test]
    fn seek_within_child_range_is_bounded() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.seek(7, &mut c);
        cur.open(&mut c); // children of 7: [1, 9]
        assert!(cur.seek(2, &mut c));
        assert_eq!(cur.key(), 9);
        let (lo, hi) = cur.sibling_range();
        assert_eq!(hi - lo, 2);
    }

    #[test]
    fn accesses_are_counted() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c); // 1 value read
        assert_eq!(c.index_reads, 1);
        cur.open(&mut c); // 2 child-range words + 1 value read
        assert_eq!(c.index_reads, 3);
        assert_eq!(c.index_bytes, (1 + 2 + 1) * WORD_BYTES);
    }

    #[test]
    fn empty_trie_open_returns_false() {
        let t = Trie::build(&Relation::new(2).unwrap());
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(!cur.open(&mut c));
        assert_eq!(cur.depth(), 0);
    }

    #[test]
    fn open_root_range_clamps_both_bounds() {
        // Root level: [1, 3, 7].
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(cur.open_root_range(2, Some(7), &mut c));
        assert_eq!(cur.key(), 3);
        let (lo, hi) = cur.sibling_range();
        assert_eq!(hi - lo, 1, "only 3 lies in [2, 7)");
        assert!(!cur.next(&mut c));
        cur.up();
        // Unbounded above: [3, inf) holds 3 and 7.
        assert!(cur.open_root_range(3, None, &mut c));
        assert_eq!(cur.key(), 3);
        assert!(cur.next(&mut c));
        assert_eq!(cur.key(), 7);
        assert!(c.index_reads > 0, "range probes are counted");
    }

    #[test]
    fn open_root_range_rejects_empty_ranges() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        assert!(!cur.open_root_range(4, Some(7), &mut c));
        assert_eq!(cur.depth(), 0, "cursor stays above the root");
        assert!(!cur.open_root_range(8, None, &mut c));
        assert!(
            cur.open_root_range(0, None, &mut c),
            "full range still opens"
        );
        assert_eq!(cur.key(), 1);
    }

    #[test]
    fn clone_at_root_range_hands_off_a_positioned_cursor() {
        let t = trie();
        let proto = TrieCursor::new(&t);
        let mut shard = proto
            .clone_at_root_range(3, Some(8))
            .expect("range holds 3 and 7");
        assert_eq!(shard.depth(), 1);
        assert_eq!(shard.key(), 3);
        let mut c = AccessCounter::default();
        assert!(shard.next(&mut c));
        assert_eq!(shard.key(), 7);
        assert!(proto.clone_at_root_range(4, Some(7)).is_none());
        // The prototype itself is untouched (still above the root).
        assert_eq!(proto.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "above the root")]
    fn open_root_range_below_root_panics() {
        let t = trie();
        let mut cur = TrieCursor::new(&t);
        let mut c = AccessCounter::default();
        cur.open(&mut c);
        cur.open_root_range(0, None, &mut c);
    }

    #[test]
    #[should_panic(expected = "above the root")]
    fn key_above_root_panics() {
        let t = trie();
        let cur = TrieCursor::new(&t);
        let _ = cur.key();
    }
}
