//! The unit of schedulable work.

use rand_chacha::ChaCha8Rng;

/// Everything a trial may depend on. Handed to [`Trial::run`] fresh per
/// trial; every field is a pure function of the [`RunPlan`](crate::RunPlan).
#[derive(Debug)]
pub struct TrialCtx {
    /// Global trial index in `0..plan.trials`.
    pub index: u64,
    /// Index of the shard this trial belongs to.
    pub shard: usize,
    /// Legacy per-trial seed: `plan.seed + index` (the contract the
    /// fault-injection campaigns document for reproduction commands).
    pub seed: u64,
    /// A private ChaCha8 stream, forked deterministically from the
    /// shard's `(plan.seed, shard_index)` stream.
    pub rng: ChaCha8Rng,
}

/// A unit of work executed by the engine's workers.
///
/// Implementations must be deterministic in `(state, ctx)` for engine
/// runs to be reproducible; `state` is per-worker scratch (e.g. an
/// inference arena) that must not leak information between trials that
/// would change their outputs.
pub trait Trial: Sync {
    /// Per-worker state, built once per worker thread.
    type State: Send;
    /// The result of one trial.
    type Output: Send;

    /// Builds the worker-local state (e.g. an empty inference arena).
    fn init(&self, worker_index: usize) -> Self::State;

    /// Runs one trial.
    fn run(&self, state: &mut Self::State, ctx: &mut TrialCtx) -> Self::Output;
}

/// A unit of work that consumes a per-trial input pulled from a
/// [`TrialSource`](crate::TrialSource).
///
/// This is the engine's fundamental trial shape: the classic
/// index-driven [`Trial`] runs through it with `()` items (see
/// [`Engine::run`](crate::Engine::run)), and sourced runs receive the
/// chunk-pulled item by value. The same determinism contract applies:
/// the output must be a pure function of `(state, item, ctx)`.
pub trait SourcedTrial<I>: Sync {
    /// Per-worker state, built once per worker thread.
    type State: Send;
    /// The result of one trial.
    type Output: Send;

    /// Builds the worker-local state (e.g. an empty inference arena).
    fn init(&self, worker_index: usize) -> Self::State;

    /// Runs one trial on its pulled input.
    fn run(&self, state: &mut Self::State, item: I, ctx: &mut TrialCtx) -> Self::Output;
}

/// Adapts an index-driven [`Trial`] to the sourced engine core by
/// ignoring the (unit) items of the degenerate index source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Indexed<'a, T>(pub &'a T);

impl<T: Trial> SourcedTrial<()> for Indexed<'_, T> {
    type State = T::State;
    type Output = T::Output;

    fn init(&self, worker_index: usize) -> T::State {
        self.0.init(worker_index)
    }

    fn run(&self, state: &mut T::State, _item: (), ctx: &mut TrialCtx) -> T::Output {
        self.0.run(state, ctx)
    }
}

/// Adapts a plain `Fn(Item, &mut TrialCtx) -> R` closure into a
/// stateless [`SourcedTrial`].
#[derive(Debug, Clone, Copy)]
pub struct FnSourcedTrial<F> {
    f: F,
}

impl<F> FnSourcedTrial<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnSourcedTrial { f }
    }
}

impl<I, R, F> SourcedTrial<I> for FnSourcedTrial<F>
where
    F: Fn(I, &mut TrialCtx) -> R + Sync,
    I: Send,
    R: Send,
{
    type State = ();
    type Output = R;

    fn init(&self, _worker_index: usize) -> Self::State {}

    fn run(&self, _state: &mut (), item: I, ctx: &mut TrialCtx) -> R {
        (self.f)(item, ctx)
    }
}

/// Adapts a plain `Fn(&mut TrialCtx) -> R` closure into a stateless
/// [`Trial`].
#[derive(Debug, Clone, Copy)]
pub struct FnTrial<F> {
    f: F,
}

impl<F> FnTrial<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        FnTrial { f }
    }
}

impl<R, F> Trial for FnTrial<F>
where
    F: Fn(&mut TrialCtx) -> R + Sync,
    R: Send,
{
    type State = ();
    type Output = R;

    fn init(&self, _worker_index: usize) -> Self::State {}

    fn run(&self, _state: &mut (), ctx: &mut TrialCtx) -> R {
        (self.f)(ctx)
    }
}
