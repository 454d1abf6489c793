#![warn(missing_docs)]
//! # hdsd-hindex
//!
//! The h-index kernels at the heart of the local nucleus-decomposition
//! algorithms (Sarıyüce–Seshadhri–Pinar, PVLDB'18, §2.2 and §4.4).
//!
//! `H(K)` is the largest `h` such that at least `h` elements of the multiset
//! `K` are `≥ h`. The update operator of the paper computes, for every
//! r-clique `R`, the h-index of the ρ values of the s-cliques containing
//! `R`; iterating converges to the κ indices (core numbers for (1,2),
//! truss numbers for (2,3), …).
//!
//! Kernels:
//!
//! * [`h_index_sorted_ref`] — the textbook `O(n log n)` sort-based
//!   definition, kept as the reference for testing.
//! * [`HBuffer::compute`] — the paper's linear-time counting kernel
//!   (§4.4): values are clamped to the set size and bucket-counted, then a
//!   suffix scan finds `h`. The buffer is reusable, so hot loops never
//!   allocate after warm-up.
//! * [`StreamingH`] — push-style accumulator for call sites that produce
//!   values one at a time (on-the-fly s-clique enumeration).
//! * [`preserves_h`] — the paper's plateau shortcut for non-initial
//!   iterations: early-exits once `h` values `≥ h` have been seen, so
//!   re-checking a converged r-clique is `O(h)` instead of a full pass.

/// Reference `O(n log n)` h-index: sort descending, scan.
///
/// ```
/// use hdsd_hindex::h_index_sorted_ref;
/// assert_eq!(h_index_sorted_ref(&[3, 0, 6, 1, 5]), 3);
/// assert_eq!(h_index_sorted_ref(&[]), 0);
/// ```
pub fn h_index_sorted_ref(values: &[u32]) -> u32 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let mut h = 0u32;
    for (i, &x) in v.iter().enumerate() {
        if x as usize > i {
            h = i as u32 + 1;
        } else {
            break;
        }
    }
    h
}

/// Reusable counting buffer for linear-time h-index computation.
///
/// The h-index of `n` values is at most `n`, so every value is clamped to
/// `n` and bucket-counted; a suffix scan then locates the answer. The
/// internal buffer grows monotonically and is zeroed lazily after each
/// call, so repeated use is allocation-free once warmed up. Each worker
/// thread of the parallel algorithms owns one `HBuffer`.
#[derive(Default, Clone, Debug)]
pub struct HBuffer {
    counts: Vec<u32>,
}

impl HBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer pre-sized for sets of up to `n` values.
    pub fn with_capacity(n: usize) -> Self {
        HBuffer { counts: vec![0; n + 1] }
    }

    /// Linear-time h-index of `values`.
    pub fn compute(&mut self, values: &[u32]) -> u32 {
        self.compute_iter(values.len(), values.iter().copied())
    }

    /// Linear-time h-index of an iterator whose length is known in advance.
    ///
    /// `len` must equal the number of items yielded; the h-index can never
    /// exceed it, which is what keeps the bucket array bounded.
    ///
    /// # Panics
    /// Panics (in every build mode) when the iterator yields a different
    /// number of items than `len`. The internal bucket array is restored to
    /// its clean state *before* panicking, so a caller that catches the
    /// unwind — or reuses a buffer shared across tests — can never observe
    /// corrupted counts in subsequent computations.
    pub fn compute_iter(&mut self, len: usize, values: impl Iterator<Item = u32>) -> u32 {
        if len == 0 {
            let yielded = values.count();
            assert_eq!(yielded, 0, "compute_iter: len is 0 but iterator yielded {yielded} items");
            return 0;
        }
        if self.counts.len() < len + 1 {
            self.counts.resize(len + 1, 0);
        }
        let cap = len as u32;
        let mut yielded = 0usize;
        for v in values {
            if yielded == len {
                // Over-long iterator: restore the buffer before reporting,
                // so the contract violation cannot poison later calls.
                for c in self.counts[..=len].iter_mut() {
                    *c = 0;
                }
                panic!("compute_iter: iterator yielded more than len = {len} items");
            }
            self.counts[v.min(cap) as usize] += 1;
            yielded += 1;
        }
        if yielded != len {
            for c in self.counts[..=len].iter_mut() {
                *c = 0;
            }
            panic!("compute_iter: iterator yielded {yielded} items, len said {len}");
        }
        // Suffix scan: h = largest i with (# values >= i) >= i.
        let mut at_least = 0u32;
        let mut h = 0u32;
        for i in (1..=len).rev() {
            at_least += self.counts[i];
            if at_least >= i as u32 {
                h = i as u32;
                break;
            }
        }
        for c in self.counts[..=len].iter_mut() {
            *c = 0;
        }
        h
    }

    /// Opens a push-style session for up to `cap` values. Used by the
    /// decomposition loops, where ρ values are produced by a callback-based
    /// container walk rather than an iterator.
    pub fn session(&mut self, cap: usize) -> HSession<'_> {
        if self.counts.len() < cap + 1 {
            self.counts.resize(cap + 1, 0);
        }
        HSession { buf: self, cap, pushed: 0 }
    }

    /// Fused ρ-min + h-index kernel over a flat (CSR) container slice.
    ///
    /// `others` is the packed other-member array of one r-clique: each
    /// consecutive `group` ids form one container (one s-clique), so the
    /// container count is `others.len() / group`. For every container the
    /// kernel computes `ρ = min τ(other)` and bucket-counts it in the same
    /// pass — no callback dispatch, no intermediate ρ buffer, one linear
    /// walk over contiguous memory. This is the hot inner loop of the
    /// flat-cache sweep path (see `hdsd-nucleus`'s container cache).
    ///
    /// # Panics
    /// Panics when `group == 0` or `others.len()` is not a multiple of
    /// `group`.
    // Out of line on purpose: inlined into `recompute`, it keeps `recompute`
    // from inlining into the sweep loops, and Snd on an 800 k-edge truss
    // space measured 20–30 % slower that way.
    #[inline(never)]
    pub fn fused_rho_h<F: Fn(u32) -> u32>(
        &mut self,
        others: &[u32],
        group: usize,
        tau_of: F,
    ) -> u32 {
        assert!(group > 0, "fused_rho_h: group must be positive");
        assert!(
            others.len().is_multiple_of(group),
            "fused_rho_h: slice length {} is not a multiple of group {group}",
            others.len()
        );
        let n = others.len() / group;
        if n == 0 {
            return 0;
        }
        if self.counts.len() < n + 1 {
            self.counts.resize(n + 1, 0);
        }
        let cap = n as u32;
        for container in others.chunks_exact(group) {
            let mut rho = u32::MAX;
            for &o in container {
                rho = rho.min(tau_of(o));
            }
            self.counts[rho.min(cap) as usize] += 1;
        }
        let mut at_least = 0u32;
        let mut h = 0u32;
        for i in (1..=n).rev() {
            at_least += self.counts[i];
            if at_least >= i as u32 {
                h = i as u32;
                break;
            }
        }
        for c in self.counts[..=n].iter_mut() {
            *c = 0;
        }
        h
    }
}

/// Fused ρ-min + plateau check over a flat (CSR) container slice: is the
/// h-index of the per-container ρ values at least `h`? Early-exits after
/// `h` qualifying containers, so re-checking a converged r-clique touches
/// `O(h · group)` contiguous words. Companion of [`HBuffer::fused_rho_h`]
/// (the §4.4 "preserve τ" shortcut, specialized for the flat layout).
pub fn fused_rho_preserves<F: Fn(u32) -> u32>(
    others: &[u32],
    group: usize,
    h: u32,
    tau_of: F,
) -> bool {
    assert!(group > 0, "fused_rho_preserves: group must be positive");
    if h == 0 {
        return true;
    }
    let mut qualifying = 0u32;
    for container in others.chunks_exact(group) {
        let mut rho = u32::MAX;
        for &o in container {
            rho = rho.min(tau_of(o));
        }
        if rho >= h {
            qualifying += 1;
            if qualifying >= h {
                return true;
            }
        }
    }
    false
}

/// In-progress h-index computation over a reusable [`HBuffer`].
///
/// Dropping a session without calling [`HSession::finish`] leaves the
/// buffer dirty only within `0..=cap`; `finish` (and only `finish`) resets
/// it, so sessions must always be finished. A debug assertion guards
/// against over-pushing.
pub struct HSession<'a> {
    buf: &'a mut HBuffer,
    cap: usize,
    pushed: usize,
}

impl HSession<'_> {
    /// Feeds one value (clamped at the session cap).
    #[inline]
    pub fn push(&mut self, v: u32) {
        debug_assert!(self.pushed < self.cap || self.cap == 0, "HSession over-pushed");
        self.buf.counts[(v.min(self.cap as u32)) as usize] += 1;
        self.pushed += 1;
    }

    /// Number of values pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.pushed
    }

    /// True when nothing has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Computes the h-index of the pushed values and resets the buffer.
    pub fn finish(self) -> u32 {
        let mut at_least = 0u32;
        let mut h = 0u32;
        let upper = self.cap.min(self.pushed);
        // Values clamped at cap; h cannot exceed pushed count.
        let mut i = self.cap;
        // Accumulate counts at indices > upper down to upper first.
        let mut tail = 0u32;
        while i > upper {
            tail += self.buf.counts[i];
            i -= 1;
        }
        at_least += tail;
        let mut j = upper;
        while j >= 1 {
            at_least += self.buf.counts[j];
            if at_least >= j as u32 {
                h = j as u32;
                break;
            }
            j -= 1;
        }
        for c in self.buf.counts[..=self.cap].iter_mut() {
            *c = 0;
        }
        h
    }
}

/// Push-style exact h-index accumulator.
///
/// This is the paper's §4.4 scheme with the "hashmap of items greater than
/// the current h" realized as a dense histogram clamped at a cap (exact,
/// because the final h-index never exceeds the number of pushed items as
/// long as `cap` is an upper bound on that count).
#[derive(Clone, Debug, Default)]
pub struct StreamingH {
    hist: Vec<u32>,
    seen: usize,
}

impl StreamingH {
    /// New accumulator; `cap` must upper-bound the number of pushes.
    pub fn with_cap(cap: usize) -> Self {
        StreamingH { hist: vec![0; cap + 1], seen: 0 }
    }

    /// Feeds one value.
    #[inline]
    pub fn push(&mut self, v: u32) {
        let cap = (self.hist.len() - 1) as u32;
        self.hist[v.min(cap) as usize] += 1;
        self.seen += 1;
    }

    /// Number of values pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.seen
    }

    /// True if nothing has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Finishes and returns the h-index of everything pushed.
    ///
    /// # Panics
    /// Debug-panics when more values were pushed than `cap` allows, since
    /// clamping could then under-report the index.
    pub fn finish(self) -> u32 {
        debug_assert!(
            self.seen < self.hist.len() || self.seen == 0,
            "StreamingH: pushed {} values into cap {}",
            self.seen,
            self.hist.len() - 1
        );
        let mut at_least = 0u32;
        for i in (1..self.hist.len()).rev() {
            at_least += self.hist[i];
            if at_least >= i as u32 {
                return i as u32;
            }
        }
        0
    }
}

/// The paper's plateau shortcut: is `H(values) >= h`? Early-exits after
/// seeing `h` qualifying values.
///
/// ```
/// use hdsd_hindex::preserves_h;
/// assert!(preserves_h([5, 5, 1, 5].into_iter(), 3));
/// assert!(!preserves_h([5, 5, 1, 2].into_iter(), 3));
/// assert!(preserves_h(std::iter::empty(), 0));
/// ```
pub fn preserves_h(values: impl Iterator<Item = u32>, h: u32) -> bool {
    if h == 0 {
        return true;
    }
    let mut qualifying = 0u32;
    for v in values {
        if v >= h {
            qualifying += 1;
            if qualifying >= h {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_known_values() {
        assert_eq!(h_index_sorted_ref(&[]), 0);
        assert_eq!(h_index_sorted_ref(&[0]), 0);
        assert_eq!(h_index_sorted_ref(&[1]), 1);
        assert_eq!(h_index_sorted_ref(&[100]), 1);
        assert_eq!(h_index_sorted_ref(&[1, 1, 1]), 1);
        assert_eq!(h_index_sorted_ref(&[2, 2, 2]), 2);
        // Values from the paper's worked examples:
        assert_eq!(h_index_sorted_ref(&[4, 3, 3, 2]), 3); // truss toy, edge ab
        assert_eq!(h_index_sorted_ref(&[2, 3]), 2); // core toy, τ1(a)
        assert_eq!(h_index_sorted_ref(&[1, 2]), 1); // core toy, τ2(a)
    }

    #[test]
    fn buffer_matches_reference_small() {
        let mut buf = HBuffer::new();
        let cases: &[&[u32]] = &[
            &[],
            &[0],
            &[0, 0],
            &[5],
            &[1, 2, 3, 4, 5],
            &[5, 5, 5, 5, 5],
            &[3, 0, 6, 1, 5],
            &[u32::MAX, u32::MAX],
        ];
        for c in cases {
            assert_eq!(buf.compute(c), h_index_sorted_ref(c), "case {c:?}");
        }
    }

    #[test]
    fn buffer_reuse_is_clean() {
        let mut buf = HBuffer::new();
        assert_eq!(buf.compute(&[9, 9, 9, 9]), 4);
        assert_eq!(buf.compute(&[1]), 1);
        assert_eq!(buf.compute(&[]), 0);
        assert_eq!(buf.compute(&[2, 2]), 2);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = HBuffer::with_capacity(16);
        let mut b = HBuffer::new();
        let vals = [3u32, 1, 4, 1, 5];
        assert_eq!(a.compute(&vals), b.compute(&vals));
    }

    #[test]
    fn session_matches_compute() {
        let mut buf = HBuffer::new();
        let cases: &[&[u32]] = &[&[], &[0], &[5], &[1, 2, 3, 4, 5], &[9, 9, 9]];
        for c in cases {
            let mut s = buf.session(c.len());
            for &v in *c {
                s.push(v);
            }
            let h = s.finish();
            assert_eq!(h, h_index_sorted_ref(c), "case {c:?}");
            // buffer must be clean for the next use
            assert_eq!(buf.compute(&[1, 1]), 1);
        }
    }

    #[test]
    fn session_with_cap_larger_than_pushes() {
        let mut buf = HBuffer::new();
        let mut s = buf.session(100);
        for v in [7u32, 8, 9] {
            s.push(v);
        }
        assert_eq!(s.finish(), 3);
    }

    #[test]
    fn streaming_matches_reference() {
        let cases: &[&[u32]] = &[&[], &[7], &[1, 1, 1], &[4, 4, 4, 4], &[3, 1, 4, 1, 5, 9, 2, 6]];
        for c in cases {
            let mut s = StreamingH::with_cap(c.len());
            for &v in *c {
                s.push(v);
            }
            assert_eq!(s.len(), c.len());
            assert_eq!(s.finish(), h_index_sorted_ref(c), "case {c:?}");
        }
    }

    #[test]
    fn compute_iter_rejects_length_mismatch_without_corrupting_buffer() {
        // Under-long iterator: must panic, and the buffer must stay clean.
        let mut buf = HBuffer::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.compute_iter(5, [9u32, 9].into_iter())
        }));
        assert!(r.is_err(), "under-long iterator must be rejected");
        assert_eq!(buf.compute(&[1, 1]), 1, "buffer corrupted by failed call");

        // Over-long iterator: same contract.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.compute_iter(2, [9u32, 9, 9, 9].into_iter())
        }));
        assert!(r.is_err(), "over-long iterator must be rejected");
        assert_eq!(buf.compute(&[3, 3, 3]), 3, "buffer corrupted by failed call");

        // len = 0 with a non-empty iterator is also a mismatch.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.compute_iter(0, [1u32].into_iter())
        }));
        assert!(r.is_err());
        assert_eq!(buf.compute(&[2, 2]), 2);
    }

    fn rho_of(flat: &[u32], group: usize, tau: &[u32]) -> Vec<u32> {
        flat.chunks_exact(group)
            .map(|c| c.iter().map(|&o| tau[o as usize]).min().unwrap())
            .collect()
    }

    #[test]
    fn fused_rho_h_matches_two_pass_reference() {
        let tau = [4u32, 1, 7, 3, 5, 2, 6, 0];
        let mut buf = HBuffer::new();
        for group in 1..=3usize {
            // Containers over ids 0..8, several per test case.
            let flat: Vec<u32> = (0..24).map(|i| (i * 5 + 3) % 8).collect();
            let flat = &flat[..(24 / group) * group];
            let rhos = rho_of(flat, group, &tau);
            let expect = h_index_sorted_ref(&rhos);
            let got = buf.fused_rho_h(flat, group, |o| tau[o as usize]);
            assert_eq!(got, expect, "group {group}");
            // Buffer stays clean between calls.
            assert_eq!(buf.compute(&[1, 1]), 1);
        }
        assert_eq!(buf.fused_rho_h(&[], 2, |_| 0), 0);
    }

    #[test]
    fn fused_preserve_matches_definition() {
        let tau = [4u32, 1, 7, 3, 5, 2, 6, 0];
        for group in 1..=3usize {
            let flat: Vec<u32> = (0..24).map(|i| (i * 7 + 1) % 8).collect();
            let flat = &flat[..(24 / group) * group];
            let rhos = rho_of(flat, group, &tau);
            let h = h_index_sorted_ref(&rhos);
            assert!(fused_rho_preserves(flat, group, h, |o| tau[o as usize]));
            assert!(!fused_rho_preserves(flat, group, h + 1, |o| tau[o as usize]));
            assert!(fused_rho_preserves(flat, group, 0, |o| tau[o as usize]));
        }
    }

    #[test]
    fn preserves_h_agrees_with_definition() {
        let vals = [5u32, 2, 8, 8, 1, 3];
        let h = h_index_sorted_ref(&vals);
        assert!(preserves_h(vals.iter().copied(), h));
        assert!(!preserves_h(vals.iter().copied(), h + 1));
    }

    proptest! {
        #[test]
        fn prop_buffer_equals_reference(vals in proptest::collection::vec(0u32..50, 0..200)) {
            let mut buf = HBuffer::new();
            prop_assert_eq!(buf.compute(&vals), h_index_sorted_ref(&vals));
        }

        #[test]
        fn prop_streaming_equals_reference(vals in proptest::collection::vec(0u32..1000, 0..100)) {
            let mut s = StreamingH::with_cap(vals.len());
            for &v in &vals {
                s.push(v);
            }
            prop_assert_eq!(s.finish(), h_index_sorted_ref(&vals));
        }

        #[test]
        fn prop_h_at_most_len_and_max(vals in proptest::collection::vec(0u32..100, 0..100)) {
            let h = h_index_sorted_ref(&vals);
            prop_assert!(h as usize <= vals.len());
            prop_assert!(h <= vals.iter().copied().max().unwrap_or(0));
        }

        #[test]
        fn prop_monotone_in_values(
            vals in proptest::collection::vec(0u32..40, 1..60),
            bumps in proptest::collection::vec(0u32..5, 1..60),
        ) {
            // Raising values never lowers H — the monotonicity Theorem 1 leans on.
            let bumped: Vec<u32> =
                vals.iter().zip(bumps.iter().cycle()).map(|(&v, &b)| v + b).collect();
            prop_assert!(h_index_sorted_ref(&bumped) >= h_index_sorted_ref(&vals));
        }

        #[test]
        fn prop_preserves_iff_reference(
            vals in proptest::collection::vec(0u32..30, 0..60),
            h in 0u32..35,
        ) {
            let truth = h_index_sorted_ref(&vals) >= h;
            prop_assert_eq!(preserves_h(vals.iter().copied(), h), truth);
        }

        #[test]
        fn prop_adding_element_changes_h_by_at_most_one(
            vals in proptest::collection::vec(0u32..50, 0..100),
            extra in 0u32..60,
        ) {
            let h0 = h_index_sorted_ref(&vals);
            let mut v2 = vals.clone();
            v2.push(extra);
            let h1 = h_index_sorted_ref(&v2);
            prop_assert!(h1 == h0 || h1 == h0 + 1);
        }
    }
}
