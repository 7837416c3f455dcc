//! Per-worker partial aggregation.
//!
//! Every result reaches a sink as part of a [`PartialAggregate`]: a
//! *worker* folds a chunk's results into a chunk-local partial in place,
//! only the partial crosses the channel, and the aggregator hands
//! partials to the sink in the deterministic `(shard, offset)` watermark
//! order. What a partial holds is the sink's choice: a few counters
//! ([`CampaignReport`](crate::CampaignReport) for a campaign,
//! [`TrialCount`] for a count), or the results themselves, in order, for
//! a sink that keeps them ([`Block`]).
//!
//! # Algebra
//!
//! A partial is a **monoid** over trial results:
//!
//! * [`Default`] is the identity element (an empty fold);
//! * [`fold`](PartialAggregate::fold) absorbs one result;
//! * [`merge`](PartialAggregate::merge) combines two partials, and must be
//!   associative with `fold` (folding items one by one equals folding
//!   them in groups and merging the groups, in order, at any split).
//!
//! Partials are only ever merged in ascending trial order (by a sink's
//! `absorb` and by [`merge_in_order`]), so associativity is enough for
//! bit-identical aggregates. The counter partials are also commutative;
//! [`Block`] (concatenation) is not, and does not need to be.

/// The aggregator's out-of-order envelope buffer, with residency
/// accounting.
///
/// Envelopes arrive in arbitrary schedule order and are released in
/// `(shard, in-shard offset)` watermark order; whatever arrived ahead of
/// the watermark waits here. The buffer tracks its residency in *trials*
/// (the sum of buffered envelope lengths) and records the maximum observed
/// at each steady state: [`observe`](ReorderBuffer::observe) is called
/// after every drain-to-frontier pass, so the recorded depth is what the
/// buffer actually holds while waiting on a stalled frontier, not the
/// transient spike of an envelope that releases immediately on arrival.
#[derive(Debug)]
pub(crate) struct ReorderBuffer<E> {
    pending: std::collections::BTreeMap<(usize, u64), (u64, E)>,
    /// Trials currently buffered (sum of pending envelope lengths).
    resident: u64,
    /// Maximum steady-state residency observed (see `observe`).
    max_resident: u64,
}

impl<E> ReorderBuffer<E> {
    pub fn new() -> Self {
        ReorderBuffer {
            pending: std::collections::BTreeMap::new(),
            resident: 0,
            max_resident: 0,
        }
    }

    /// Buffers an envelope covering `len` trials of `shard` starting at
    /// in-shard offset `offset`.
    pub fn insert(&mut self, shard: usize, offset: u64, len: u64, envelope: E) {
        self.resident += len;
        self.pending.insert((shard, offset), (len, envelope));
    }

    /// Removes and returns the envelope at exactly `(shard, offset)` —
    /// the only release position the watermark ever asks for.
    pub fn pop(&mut self, shard: usize, offset: u64) -> Option<E> {
        let (len, envelope) = self.pending.remove(&(shard, offset))?;
        self.resident -= len;
        Some(envelope)
    }

    /// Records the current residency into the running maximum. Called
    /// once per steady state (after each drain-to-frontier pass).
    pub fn observe(&mut self) {
        self.max_resident = self.max_resident.max(self.resident);
    }

    /// Drops everything buffered (early abort: results past the stop
    /// point are discarded).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.resident = 0;
    }

    /// Current residency, in trials (the live-gauge counterpart of
    /// [`max_resident`](ReorderBuffer::max_resident)).
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Maximum steady-state residency observed over the run, in trials.
    pub fn max_resident(&self) -> u64 {
        self.max_resident
    }
}

/// A chunk-local monoid fold over trial results.
///
/// Implementations must satisfy the monoid laws above; the runtime's
/// determinism guarantee ("aggregates are bit-identical at any worker
/// count, chunk size and steal schedule") reduces to them. For integer
/// counter aggregates (the campaign report) the laws hold exactly; a
/// floating-point partial must itself use an order-insensitive
/// representation (e.g. integer bins or compensated sums) to keep the
/// bit-identity promise.
pub trait PartialAggregate<T>: Default + Send {
    /// Folds the result of trial `index` into the partial.
    fn fold(&mut self, index: u64, item: T);

    /// Merges another partial into this one. `other` must cover trials
    /// strictly after this partial's.
    fn merge(&mut self, other: Self);

    /// Resets the partial to the identity element. The engine calls it
    /// once the sink has absorbed a partial, then recycles the partial
    /// for a later envelope; a partial that owns storage overrides it to
    /// keep that storage.
    fn clear(&mut self) {
        *self = Self::default();
    }

    /// Capacity hint: `additional` more results are about to be folded
    /// (the engine calls it once per chunk). Only a partial that stores
    /// results needs it; the default ignores it.
    fn reserve(&mut self, _additional: usize) {}
}

/// Merges a sequence of partials — each covering a disjoint, ascending
/// slice of the trial space (e.g. one shard window per cluster task) —
/// into a single aggregate, exactly as the in-process aggregator would
/// have: identity fold, then `merge` in iteration order. The cluster
/// head's merge entry point.
pub fn merge_in_order<T, P>(parts: impl IntoIterator<Item = P>) -> P
where
    P: PartialAggregate<T>,
{
    let mut acc = P::default();
    for part in parts {
        acc.merge(part);
    }
    acc
}

/// The partial of a sink that keeps every result
/// ([`CollectSink`](crate::CollectSink), [`JsonlSink`](crate::JsonlSink)):
/// the results themselves, in trial order, with the index of the first.
/// `fold` pushes and `merge` appends; [`clear`](PartialAggregate::clear)
/// keeps the storage, so recycled blocks stop allocating once they have
/// grown to an envelope's size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block<T> {
    /// Global index of `items[0]`.
    start: u64,
    items: Vec<T>,
}

impl<T> Default for Block<T> {
    fn default() -> Self {
        Block {
            start: 0,
            items: Vec::new(),
        }
    }
}

impl<T> Block<T> {
    /// Removes every result in trial order, as `(index, result)` pairs,
    /// keeping the block's storage for reuse.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        (self.start..).zip(self.items.drain(..))
    }
}

impl<T: Send> PartialAggregate<T> for Block<T> {
    fn fold(&mut self, index: u64, item: T) {
        // Folds are contiguous, so this only ever changes on the first.
        self.start = index - self.items.len() as u64;
        self.items.push(item);
    }

    fn merge(&mut self, mut other: Self) {
        if self.items.is_empty() {
            self.start = other.start;
        }
        self.items.append(&mut other.items);
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
    }
}

/// Partial that counts trials (the [`CountSink`](crate::CountSink)
/// aggregate): the simplest non-trivial monoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialCount(pub u64);

impl<T> PartialAggregate<T> for TrialCount {
    fn fold(&mut self, _index: u64, _item: T) {
        self.0 += 1;
    }

    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_buffer_tracks_steady_state_residency() {
        let mut buf: ReorderBuffer<&str> = ReorderBuffer::new();
        // An envelope that releases immediately never counts: insert,
        // drain, then observe.
        buf.insert(0, 0, 10, "frontier");
        assert_eq!(buf.pop(0, 0), Some("frontier"));
        buf.observe();
        assert_eq!(buf.max_resident(), 0);
        // Two envelopes stuck behind a missing frontier envelope count
        // in trials, not in envelopes.
        buf.insert(0, 30, 10, "c");
        buf.insert(0, 10, 20, "b");
        buf.observe();
        assert_eq!(buf.max_resident(), 30);
        assert_eq!(buf.pop(0, 0), None, "frontier envelope not here yet");
        // Draining in watermark order empties the residency; the max
        // sticks.
        assert_eq!(buf.pop(0, 10), Some("b"));
        assert_eq!(buf.pop(0, 30), Some("c"));
        buf.observe();
        assert_eq!(buf.max_resident(), 30);
        // clear() resets residency (abort path) but keeps the max.
        buf.insert(1, 0, 5, "post-abort");
        buf.clear();
        buf.observe();
        assert_eq!(buf.max_resident(), 30);
    }

    #[test]
    fn count_partial_obeys_the_monoid_laws() {
        // fold-one-by-one == fold-in-groups-then-merge, at every split,
        // for each partial kind.
        fn laws<P: PartialAggregate<u32> + Clone + PartialEq + std::fmt::Debug>() -> P {
            fn fold_all<P: PartialAggregate<u32>>(items: &[u32], base: u64) -> P {
                let mut acc = P::default();
                for (i, item) in items.iter().enumerate() {
                    acc.fold(base + i as u64, *item);
                }
                acc
            }
            let items: Vec<u32> = (0..17).collect();
            let serial: P = fold_all(&items, 0);
            for split in 0..items.len() {
                let (a, b) = items.split_at(split);
                let mut left: P = fold_all(a, 0);
                left.merge(fold_all(b, split as u64));
                assert_eq!(left, serial, "split at {split}");
            }
            // Identity element.
            let mut with_identity = serial.clone();
            with_identity.merge(P::default());
            assert_eq!(with_identity, serial);
            serial
        }
        assert_eq!(laws::<TrialCount>(), TrialCount(17));
        let mut block = laws::<Block<u32>>();
        assert_eq!(
            block.drain().collect::<Vec<_>>(),
            (0..17).map(|i| (i as u64, i)).collect::<Vec<_>>()
        );
        // A drained block resets without giving its storage back.
        let capacity = block.items.capacity();
        PartialAggregate::<u32>::clear(&mut block);
        assert_eq!(block, Block::default());
        assert_eq!(block.items.capacity(), capacity);
    }
}
