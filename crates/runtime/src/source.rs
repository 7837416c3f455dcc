//! Pull-based trial ingestion.
//!
//! A [`TrialSource`] is where a run's per-trial *inputs* come from. The
//! engine's workers pull one chunk's worth of items at a time
//! ([`fill`](TrialSource::fill)), immediately before executing the chunk
//! — so a generated or streamed dataset is materialised only chunk by
//! chunk, per worker, never as a whole. The eager path (a dataset that
//! already sits in memory) is just one impl, [`SliceSource`], which
//! yields references into the slice; [`FnSource`] synthesises items on
//! demand from the trial index.
//!
//! Determinism: an item depends only on its trial index, never on which
//! worker pulled it or when — the same contract trial RNG streams obey.
//! A source is therefore required to be a pure function of the index,
//! and the CI determinism matrix byte-diffs an eager run against a
//! streaming run of the same dataset to enforce it.

/// A deterministic, index-addressed supplier of per-trial inputs.
///
/// Implementations must be pure: `fill(start, len, ..)` yields exactly
/// the items `start..start + len` of a fixed virtual sequence, however
/// the calls are interleaved across worker threads. Chunks are pulled at
/// most once per execution, in whatever order the steal schedule runs
/// them — item `i` must not depend on which other items have been pulled.
pub trait TrialSource: Sync {
    /// The per-trial input item.
    type Item: Send;

    /// Total number of trials this source yields.
    fn len(&self) -> u64;

    /// Whether the source yields no trials at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the items for trials `start..start + len` to `out`, in
    /// index order. The caller clears and reuses the buffer across
    /// chunks, so a steady-state worker allocates nothing.
    fn fill(&self, start: u64, len: u64, out: &mut Vec<Self::Item>);
}

/// The eager impl: a dataset already materialised as a slice. Items are
/// *references* into the slice, so pulling a chunk copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a, T> {
    items: &'a [T],
}

impl<'a, T> SliceSource<'a, T> {
    /// Wraps `items`; trial `i` yields `&items[i]`.
    pub fn new(items: &'a [T]) -> Self {
        SliceSource { items }
    }
}

impl<'a, T: Sync> TrialSource for SliceSource<'a, T> {
    type Item = &'a T;

    fn len(&self) -> u64 {
        self.items.len() as u64
    }

    fn fill(&self, start: u64, len: u64, out: &mut Vec<&'a T>) {
        let start = start as usize;
        out.extend(&self.items[start..start + len as usize]);
    }
}

/// The streaming impl: items are generated on demand from the trial
/// index, so a campaign over a synthetic dataset never materialises it.
#[derive(Debug, Clone, Copy)]
pub struct FnSource<F> {
    len: u64,
    generate: F,
}

impl<F> FnSource<F> {
    /// A source of `len` trials whose item `i` is `generate(i)`.
    /// `generate` must be a pure function of the index (see the trait
    /// docs); anything else breaks the run's schedule independence.
    pub fn new(len: u64, generate: F) -> Self {
        FnSource { len, generate }
    }
}

impl<I: Send, F: Fn(u64) -> I + Sync> TrialSource for FnSource<F> {
    type Item = I;

    fn len(&self) -> u64 {
        self.len
    }

    fn fill(&self, start: u64, len: u64, out: &mut Vec<I>) {
        out.extend((start..start + len).map(&self.generate));
    }
}

/// The degenerate source behind the classic index-driven [`Engine::run`]
/// path: every item is `()` (zero-sized, so chunk pulls compile away)
/// and the trial works from `TrialCtx` alone.
///
/// [`Engine::run`]: crate::Engine::run
#[derive(Debug, Clone, Copy)]
pub(crate) struct IndexSource {
    trials: u64,
}

impl IndexSource {
    pub fn new(trials: u64) -> Self {
        IndexSource { trials }
    }
}

impl TrialSource for IndexSource {
    type Item = ();

    fn len(&self) -> u64 {
        self.trials
    }

    fn fill(&self, _start: u64, len: u64, out: &mut Vec<()>) {
        out.extend(std::iter::repeat_n((), len as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_yields_references_in_order() {
        let data = vec![10u32, 11, 12, 13, 14];
        let source = SliceSource::new(&data);
        assert_eq!(source.len(), 5);
        assert!(!source.is_empty());
        let mut out = Vec::new();
        source.fill(1, 3, &mut out);
        assert_eq!(out, vec![&11, &12, &13]);
        // Refilling appends (the engine clears between chunks).
        source.fill(0, 1, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn fn_source_generates_from_the_index() {
        let source = FnSource::new(100, |i| i * i);
        assert_eq!(source.len(), 100);
        let mut out = Vec::new();
        source.fill(7, 2, &mut out);
        assert_eq!(out, vec![49, 64]);
        // Pulling the same range twice yields the same items: the purity
        // contract every chunking relies on.
        let mut again = Vec::new();
        source.fill(7, 2, &mut again);
        assert_eq!(out, again);
    }

    #[test]
    fn index_source_is_unit_items() {
        let source = IndexSource::new(3);
        let mut out = Vec::new();
        source.fill(0, 3, &mut out);
        assert_eq!(out.len(), 3);
        assert!(SliceSource::<u8>::new(&[]).is_empty());
    }
}
