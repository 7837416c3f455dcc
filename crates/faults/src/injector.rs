use crate::bits;
use crate::model::{FaultDuration, FaultKind, FaultSite, OpContext};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Counters maintained by every injector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectorStats {
    /// Values pulled through the injector.
    pub exposures: u64,
    /// Exposures on which a fault actually fired.
    pub injected: u64,
    /// Fired faults whose corrupted value happened to equal the original
    /// (possible for stuck-at and replace faults) — these are *masked at
    /// source* and undetectable by any comparison scheme.
    pub masked: u64,
}

/// A source of (possible) corruption for elementary `f32` operations.
///
/// Implementations must be deterministic given their seed so that every
/// experiment in the repository regenerates identically.
pub trait FaultInjector: Send {
    /// Passes `value` through the fault model for the given operation
    /// context, returning the (possibly corrupted) value.
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32;

    /// Counters accumulated so far.
    fn stats(&self) -> InjectorStats;

    /// Resets counters (not the fault schedule or RNG position).
    fn reset_stats(&mut self);
}

/// A borrowed injector is an injector: whatever is built around `&mut I`
/// (an ALU, say) advances the caller's own fault stream and counters, so
/// they stand where execution stopped — also when it stopped on an abort.
impl<I: FaultInjector + ?Sized> FaultInjector for &mut I {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        (**self).perturb(ctx, value)
    }

    fn stats(&self) -> InjectorStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }
}

/// The no-fault injector: passes every value through untouched.
///
/// Used for baseline timing runs (Table 1 is measured fault-free).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults {
    stats: InjectorStats,
}

impl NoFaults {
    /// Creates a pass-through injector.
    pub fn new() -> Self {
        NoFaults::default()
    }
}

impl FaultInjector for NoFaults {
    fn perturb(&mut self, _ctx: OpContext, value: f32) -> f32 {
        self.stats.exposures += 1;
        value
    }

    fn stats(&self) -> InjectorStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = InjectorStats::default();
    }
}

/// Uniform bit-error-rate injector: on every exposure, with probability
/// `ber`, flips one uniformly random bit of the value (transient SEU).
///
/// Optionally restricted to a subset of [`FaultSite`]s.
#[derive(Debug, Clone)]
pub struct BerInjector {
    rng: ChaCha8Rng,
    ber: f64,
    sites: Option<Vec<FaultSite>>,
    stats: InjectorStats,
}

impl BerInjector {
    /// Creates an injector with the given seed and per-exposure bit error
    /// rate (clamped to `[0, 1]`).
    pub fn new(seed: u64, ber: f64) -> Self {
        BerInjector {
            rng: ChaCha8Rng::seed_from_u64(seed),
            ber: ber.clamp(0.0, 1.0),
            sites: None,
            stats: InjectorStats::default(),
        }
    }

    /// Restricts injection to the given sites; exposures at other sites
    /// pass through clean.
    pub fn with_sites(mut self, sites: impl Into<Vec<FaultSite>>) -> Self {
        self.sites = Some(sites.into());
        self
    }

    /// The configured bit error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }
}

impl FaultInjector for BerInjector {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        self.stats.exposures += 1;
        if let Some(sites) = &self.sites {
            if !sites.contains(&ctx.site) {
                return value;
            }
        }
        if self.rng.random::<f64>() < self.ber {
            self.stats.injected += 1;
            let bit = self.rng.random_range(0..bits::WORD_BITS);
            bits::flip_bit(value, bit)
        } else {
            value
        }
    }

    fn stats(&self) -> InjectorStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = InjectorStats::default();
    }
}

/// One precisely scheduled fault for [`ScriptedInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScriptedFault {
    /// Fires when `ctx.op_index == op_index`.
    pub op_index: u64,
    /// Fires only for this replica (`None` = any replica).
    pub replica: Option<u8>,
    /// Fires only at this site (`None` = any site).
    pub site: Option<FaultSite>,
    /// Corruption applied.
    pub kind: FaultKind,
    /// Persistence model. [`FaultDuration::Transient`] faults are consumed
    /// on first firing; others re-arm.
    pub duration: FaultDuration,
}

impl ScriptedFault {
    /// A transient single-bit flip at a specific operation (any replica,
    /// any site) — the workhorse of deterministic unit tests.
    pub fn transient_flip(op_index: u64, bit: u32) -> Self {
        ScriptedFault {
            op_index,
            replica: None,
            site: None,
            kind: FaultKind::BitFlip { bit },
            duration: FaultDuration::Transient,
        }
    }

    /// Restricts the fault to one replica.
    pub fn on_replica(mut self, replica: u8) -> Self {
        self.replica = Some(replica);
        self
    }

    /// Restricts the fault to one site.
    pub fn at_site(mut self, site: FaultSite) -> Self {
        self.site = Some(site);
        self
    }

    /// Makes the fault permanent (fires on every matching exposure,
    /// including retries of the same `op_index`).
    pub fn permanent(mut self) -> Self {
        self.duration = FaultDuration::Permanent;
        self
    }
}

/// Deterministic injector that fires faults exactly where a script says.
///
/// Used by unit/property tests ("a transient flip in replica 1 of op 7
/// must be detected and recovered by one rollback") and by the
/// leaky-bucket dynamics experiments that need *exact* burst patterns.
#[derive(Debug, Clone, Default)]
pub struct ScriptedInjector {
    // op_index -> scripted faults at that index.
    schedule: HashMap<u64, Vec<ScriptedFault>>,
    // Count of transient faults already consumed, keyed by schedule slot.
    consumed: HashMap<(u64, usize), bool>,
    rng: Option<ChaCha8Rng>,
    stats: InjectorStats,
}

impl ScriptedInjector {
    /// Creates an injector from a fault script.
    pub fn new(faults: impl IntoIterator<Item = ScriptedFault>) -> Self {
        let mut schedule: HashMap<u64, Vec<ScriptedFault>> = HashMap::new();
        for f in faults {
            schedule.entry(f.op_index).or_default().push(f);
        }
        ScriptedInjector {
            schedule,
            consumed: HashMap::new(),
            rng: None,
            stats: InjectorStats::default(),
        }
    }

    /// The stream of faults that need randomness
    /// ([`FaultKind::RandomBitFlip`], [`FaultKind::MultiBitFlip`],
    /// [`FaultDuration::Intermittent`]): seed 0, so a script replays
    /// identically.
    fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng.get_or_insert_with(|| ChaCha8Rng::seed_from_u64(0))
    }

    fn apply_kind(&mut self, kind: FaultKind, value: f32) -> f32 {
        match kind {
            FaultKind::BitFlip { bit } => bits::flip_bit(value, bit),
            FaultKind::RandomBitFlip => {
                let bit = self.rng().random_range(0..bits::WORD_BITS);
                bits::flip_bit(value, bit)
            }
            FaultKind::MultiBitFlip { count } => {
                let count = count.min(bits::WORD_BITS);
                let mut v = value;
                let mut chosen = Vec::with_capacity(count as usize);
                while chosen.len() < count as usize {
                    let bit = self.rng().random_range(0..bits::WORD_BITS);
                    if !chosen.contains(&bit) {
                        chosen.push(bit);
                        v = bits::flip_bit(v, bit);
                    }
                }
                v
            }
            FaultKind::StuckBit { bit, high } => bits::stick_bit(value, bit, high),
            FaultKind::Replace { value: v } => v,
        }
    }
}

impl FaultInjector for ScriptedInjector {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        self.stats.exposures += 1;
        let Some(slot) = self.schedule.get(&ctx.op_index).cloned() else {
            return value;
        };
        let mut out = value;
        for (i, fault) in slot.iter().enumerate() {
            if fault.replica.is_some_and(|r| r != ctx.replica) {
                continue;
            }
            if fault.site.is_some_and(|s| s != ctx.site) {
                continue;
            }
            let fires = match fault.duration {
                FaultDuration::Transient => {
                    let key = (ctx.op_index, i);
                    if self.consumed.get(&key).copied().unwrap_or(false) {
                        false
                    } else {
                        self.consumed.insert(key, true);
                        true
                    }
                }
                FaultDuration::Intermittent { activation } => {
                    self.rng().random::<f64>() < activation
                }
                FaultDuration::Permanent => true,
            };
            if fires {
                let corrupted = self.apply_kind(fault.kind, out);
                self.stats.injected += 1;
                if corrupted.to_bits() == out.to_bits() {
                    self.stats.masked += 1;
                }
                out = corrupted;
            }
        }
        out
    }

    fn stats(&self) -> InjectorStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = InjectorStats::default();
    }
}

/// Permanent stuck-bit fault pinned to one processing element.
///
/// Models the paper's §II scenario — "the failure of one of 128 processing
/// elements" — where a single PE of a parallel compute unit develops a
/// hard defect. All exposures on other PEs pass through clean.
#[derive(Debug, Clone)]
pub struct StuckBitInjector {
    pe: u32,
    site: FaultSite,
    bit: u32,
    high: bool,
    stats: InjectorStats,
}

impl StuckBitInjector {
    /// Creates a permanent stuck-bit fault at `site` of processing element
    /// `pe`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    pub fn new(pe: u32, site: FaultSite, bit: u32, high: bool) -> Self {
        assert!(bit < bits::WORD_BITS, "bit index {bit} out of range");
        StuckBitInjector {
            pe,
            site,
            bit,
            high,
            stats: InjectorStats::default(),
        }
    }

    /// The afflicted processing element.
    pub fn pe(&self) -> u32 {
        self.pe
    }
}

impl FaultInjector for StuckBitInjector {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        self.stats.exposures += 1;
        if ctx.pe != self.pe || ctx.site != self.site {
            return value;
        }
        let out = bits::stick_bit(value, self.bit, self.high);
        self.stats.injected += 1;
        if out.to_bits() == value.to_bits() {
            self.stats.masked += 1;
        }
        out
    }

    fn stats(&self) -> InjectorStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = InjectorStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(op: u64) -> OpContext {
        OpContext::new(FaultSite::Multiplier, op)
    }

    #[test]
    fn no_faults_passes_through() {
        let mut inj = NoFaults::new();
        for i in 0..100 {
            assert_eq!(inj.perturb(ctx(i), 1.25), 1.25);
        }
        assert_eq!(inj.stats().exposures, 100);
        assert_eq!(inj.stats().injected, 0);
        inj.reset_stats();
        assert_eq!(inj.stats().exposures, 0);
    }

    #[test]
    fn ber_zero_never_fires_ber_one_always_fires() {
        let mut clean = BerInjector::new(1, 0.0);
        let mut dirty = BerInjector::new(1, 1.0);
        for i in 0..200 {
            assert_eq!(clean.perturb(ctx(i), 2.0), 2.0);
            assert_ne!(dirty.perturb(ctx(i), 2.0).to_bits(), 2.0f32.to_bits());
        }
        assert_eq!(clean.stats().injected, 0);
        assert_eq!(dirty.stats().injected, 200);
    }

    #[test]
    fn ber_rate_statistically_plausible() {
        let mut inj = BerInjector::new(7, 0.05);
        for i in 0..20_000 {
            inj.perturb(ctx(i), 1.0);
        }
        let rate = inj.stats().injected as f64 / inj.stats().exposures as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn ber_is_deterministic_per_seed() {
        let run = |seed| {
            let mut inj = BerInjector::new(seed, 0.3);
            (0..64)
                .map(|i| inj.perturb(ctx(i), 5.5).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn ber_site_restriction() {
        let mut inj = BerInjector::new(3, 1.0).with_sites(vec![FaultSite::WeightLoad]);
        let clean = inj.perturb(OpContext::new(FaultSite::Multiplier, 0), 1.0);
        assert_eq!(clean, 1.0);
        let dirty = inj.perturb(OpContext::new(FaultSite::WeightLoad, 1), 1.0);
        assert_ne!(dirty.to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn scripted_transient_fires_once() {
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(5, bits::SIGN_BIT)]);
        assert_eq!(inj.perturb(ctx(4), 1.0), 1.0);
        assert_eq!(inj.perturb(ctx(5), 1.0), -1.0); // fires
        assert_eq!(inj.perturb(ctx(5), 1.0), 1.0); // consumed: retry sees clean
        assert_eq!(inj.stats().injected, 1);
    }

    #[test]
    fn scripted_permanent_fires_every_time() {
        let mut inj =
            ScriptedInjector::new([ScriptedFault::transient_flip(2, bits::SIGN_BIT).permanent()]);
        assert_eq!(inj.perturb(ctx(2), 1.0), -1.0);
        assert_eq!(inj.perturb(ctx(2), 1.0), -1.0);
        assert_eq!(inj.stats().injected, 2);
    }

    #[test]
    fn scripted_replica_and_site_filters() {
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, 31)
            .on_replica(1)
            .at_site(FaultSite::Accumulator)]);
        // Wrong replica: clean.
        assert_eq!(
            inj.perturb(OpContext::new(FaultSite::Accumulator, 1), 3.0),
            3.0
        );
        // Wrong site: clean.
        assert_eq!(
            inj.perturb(
                OpContext::new(FaultSite::Multiplier, 1).with_replica(1),
                3.0
            ),
            3.0
        );
        // Both match: fires.
        assert_eq!(
            inj.perturb(
                OpContext::new(FaultSite::Accumulator, 1).with_replica(1),
                3.0
            ),
            -3.0
        );
    }

    #[test]
    fn scripted_multi_bit_flips_distinct_bits() {
        let mut inj = ScriptedInjector::new([ScriptedFault {
            op_index: 0,
            replica: None,
            site: None,
            kind: FaultKind::MultiBitFlip { count: 3 },
            duration: FaultDuration::Transient,
        }]);
        let out = inj.perturb(ctx(0), 1.0);
        assert_eq!(bits::hamming_f32(1.0, out), 3);
    }

    #[test]
    fn scripted_replace_and_masking() {
        let mut inj = ScriptedInjector::new([ScriptedFault {
            op_index: 0,
            replica: None,
            site: None,
            kind: FaultKind::Replace { value: 4.0 },
            duration: FaultDuration::Permanent,
        }]);
        // Replacing 4.0 with 4.0 is injected but masked at source.
        assert_eq!(inj.perturb(ctx(0), 4.0), 4.0);
        assert_eq!(inj.stats().injected, 1);
        assert_eq!(inj.stats().masked, 1);
    }

    #[test]
    fn intermittent_fires_sometimes() {
        let mut inj = ScriptedInjector::new([ScriptedFault {
            op_index: 0,
            replica: None,
            site: None,
            kind: FaultKind::BitFlip { bit: 31 },
            duration: FaultDuration::Intermittent { activation: 0.5 },
        }]);
        let mut fired = 0;
        for _ in 0..200 {
            if inj.perturb(ctx(0), 1.0) < 0.0 {
                fired += 1;
            }
        }
        assert!((50..150).contains(&fired), "fired {fired}/200");
    }

    #[test]
    fn stuck_bit_only_hits_its_pe_and_site() {
        let mut inj = StuckBitInjector::new(3, FaultSite::Multiplier, bits::SIGN_BIT, true);
        let healthy = inj.perturb(OpContext::new(FaultSite::Multiplier, 0).with_pe(2), 1.0);
        assert_eq!(healthy, 1.0);
        let wrong_site = inj.perturb(OpContext::new(FaultSite::Accumulator, 1).with_pe(3), 1.0);
        assert_eq!(wrong_site, 1.0);
        let hit = inj.perturb(OpContext::new(FaultSite::Multiplier, 2).with_pe(3), 1.0);
        assert_eq!(hit, -1.0);
        // Already-negative value: stuck-high sign bit masks.
        let masked = inj.perturb(OpContext::new(FaultSite::Multiplier, 3).with_pe(3), -2.0);
        assert_eq!(masked, -2.0);
        assert_eq!(inj.stats().masked, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stuck_bit_rejects_bad_bit() {
        StuckBitInjector::new(0, FaultSite::Multiplier, 32, true);
    }

    #[test]
    fn injectors_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NoFaults>();
        assert_send::<BerInjector>();
        assert_send::<ScriptedInjector>();
        assert_send::<StuckBitInjector>();
    }
}
