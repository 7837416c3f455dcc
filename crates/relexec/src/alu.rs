use crate::cost::OpCost;
use crate::policy::RedundancyMode;
use crate::qualified::Qualified;
use relcnn_faults::{FaultInjector, FaultSite, InjectorStats, OpContext};

/// A qualified arithmetic-logic unit: the "overloaded multiplication and
/// overloaded addition" of Algorithm 3.
///
/// Every logical operation (multiply or accumulate) consumes one global
/// operation index; redundant modes execute the operation once per replica
/// through the fault injector and derive the qualifier by comparison or
/// vote. Operand fetches ([`load_weight`](QualifiedAlu::load_weight) /
/// [`load_activation`](QualifiedAlu::load_activation)) are exposed to the
/// injector **once**, before replication — faithfully modelling the
/// common-mode weakness of redundant execution: a value corrupted in
/// memory feeds *all* replicas identically and no comparison can see it.
/// (This is why the paper's §II-C points at vendor ECC for memory and
/// why the guarantee analysis in `relcnn-core` scopes the DMR guarantee to
/// processing-element faults.)
pub trait QualifiedAlu {
    /// The redundancy mode this ALU implements.
    fn mode(&self) -> RedundancyMode;

    /// Fetches a weight through the (common-mode) fault model.
    fn load_weight(&mut self, value: f32) -> f32;

    /// Fetches an activation through the (common-mode) fault model.
    fn load_activation(&mut self, value: f32) -> f32;

    /// Qualified multiplication; advances the operation index.
    fn mul(&mut self, a: f32, b: f32) -> Qualified<f32>;

    /// Qualified accumulation; advances the operation index.
    fn acc(&mut self, acc: f32, addend: f32) -> Qualified<f32>;

    /// Qualified rectification `max(a, 0)` — the elementary operation of
    /// a reliably executed ReLU layer (extending the DCNN partition past
    /// conv-1, the paper's §V-B future-work direction); advances the
    /// operation index.
    fn max_zero(&mut self, a: f32) -> Qualified<f32>;

    /// Rolls the operation index back by one so a retry re-executes the
    /// *same* logical operation (rollback distance = one operation).
    fn rollback_op(&mut self);

    /// Sets the processing element executing subsequent operations.
    fn set_pe(&mut self, pe: u32);

    /// Logical operations issued so far (retries re-use indices and are
    /// not double counted).
    fn op_count(&self) -> u64;

    /// Accumulated cost-model cycles.
    fn cycles(&self) -> u64;

    /// Fault-injector counters.
    fn injector_stats(&self) -> InjectorStats;
}

/// The qualified ALU: every operation executes on `N` replicas through the
/// fault injector `I`, and the replica count picks the qualifier rule —
/// see the three aliases [`PlainAlu`], [`DmrAlu`] and [`TmrAlu`]. Any
/// other `N` fails to compile.
///
/// Every ALU in the workspace is built around `&mut injector`: it
/// advances the caller's own fault stream and counters, which stand where
/// execution stopped, also on an abort. Production and the Table-1 timings
/// build theirs inside [`reliable_partition`](crate::conv::reliable_partition).
///
/// How the kernel reaches the ALU moves time, not bits: called out of line
/// on a caller's `&mut Alu`, [`reliable_conv2d`](crate::conv::reliable_conv2d)
/// stores the ALU's operation index, its cycles and the exposure counter
/// around every replica's `black_box`, while inlined into
/// `reliable_partition` over a local ALU (as in every build checked) it
/// keeps index and cycles in registers and stores only the injector's
/// exposure counter, once per operation.
///
/// ```compile_fail
/// use relcnn_faults::NoFaults;
/// use relcnn_relexec::{Alu, QualifiedAlu};
///
/// // No redundancy mode has four replicas.
/// Alu::<_, 4>::new(&mut NoFaults::new()).mul(1.0, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Alu<I, const N: usize> {
    injector: I,
    op_index: u64,
    /// The processing element executing every replica: redundancy is
    /// *temporal*, so a permanent PE defect is common-mode and
    /// undetectable by comparison (the paper's §II-B caveat).
    pe: u32,
    cycles: u64,
    cost: OpCost,
}

/// **Algorithm 1**: non-redundant execution. "This operation simply returns
/// a product and a predefined qualifier, set to True. We use operations
/// like this to determine baseline performance characteristics."
///
/// Note the safety implication the paper builds on: a fault striking a
/// plain operation is *silent* — the constant-true qualifier waves the
/// corrupted value straight through.
pub type PlainAlu<I> = Alu<I, 1>;

/// **Algorithm 2**: dual modular redundant execution. "Here the qualifier
/// is set to True should the two products be the same."
///
/// Comparison is bit-exact, matching a hardware comparator on the result
/// bus; both replicas compute from the *same latched operands*, so
/// identical inputs must yield identical bits on a healthy unit.
pub type DmrAlu<I> = Alu<I, 2>;

/// Triple modular redundancy with a 2-of-3 majority vote on whole words:
/// the paper's "in the case of triple modular redundancy, agreed upon by
/// execution of the algorithm three times and voting on the result".
///
/// Two replicas whose results are bit-identical outvote the third. A fault
/// confined to one replica is *corrected* in place (qualifier true, no
/// retry needed). The vote is not bitwise: two replicas faulted in
/// different bits leave no two words equal, and the qualifier fails.
pub type TmrAlu<I> = Alu<I, 3>;

impl<I: FaultInjector, const N: usize> Alu<I, N> {
    /// The mode `N` replicas implement. Every qualified operation names
    /// it, so an ALU with any other replica count does not compile.
    const MODE: RedundancyMode = match N {
        1 => RedundancyMode::Plain,
        2 => RedundancyMode::Dmr,
        3 => RedundancyMode::Tmr,
        _ => panic!("an ALU has 1 (plain), 2 (DMR) or 3 (TMR) replicas"),
    };

    /// Creates the ALU around `injector`, which every caller in the
    /// workspace passes as `&mut injector`. The parameter still takes any
    /// injector only because the benchmark package's probe builds its ALUs
    /// around an owned `NoFaults`, the owned form's last caller; it narrows
    /// to `&'a mut I` once that probe calls `reliable_partition`.
    pub fn new(injector: I) -> Self {
        Alu {
            injector,
            op_index: 0,
            pe: 0,
            cycles: 0,
            cost: OpCost::default(),
        }
    }

    fn ctx(&self, site: FaultSite, replica: u8) -> OpContext {
        OpContext::new(site, self.op_index)
            .with_replica(replica)
            .with_pe(self.pe)
    }

    fn load(&mut self, site: FaultSite, value: f32) -> f32 {
        self.cycles += self.cost.load;
        // Loads are common-mode: one exposure, replica 0, shared by all
        // replicas of the consuming operation.
        let ctx = self.ctx(site, 0);
        self.injector.perturb(ctx, value)
    }

    /// Executes `compute` once per replica through the injector at `site`
    /// and qualifies the per-replica results.
    ///
    /// Each replica's computation is wrapped in [`std::hint::black_box`]:
    /// the replicas model physically distinct execution units, so the
    /// optimiser must not common-subexpression them into a single
    /// multiply — that would silently turn Algorithm 2 back into
    /// Algorithm 1 (and falsify every timing comparison against the
    /// paper's Table 1).
    fn replicate(&mut self, site: FaultSite, compute: impl Fn() -> f32) -> Qualified<f32> {
        let mut r = [0.0f32; N];
        for (replica, slot) in r.iter_mut().enumerate() {
            let ctx = self.ctx(site, replica as u8);
            *slot = self.injector.perturb(ctx, std::hint::black_box(compute()));
        }
        self.op_index += 1;
        let same = |a: usize, b: usize| r[a].to_bits() == r[b].to_bits();
        match Self::MODE {
            RedundancyMode::Plain => Qualified::passed(r[0]),
            RedundancyMode::Dmr => Qualified::new(r[0], same(0, 1)),
            RedundancyMode::Tmr => {
                if same(0, 1) || same(0, 2) {
                    Qualified::passed(r[0])
                } else if same(1, 2) {
                    Qualified::passed(r[1])
                } else {
                    Qualified::failed(r[0])
                }
            }
        }
    }
}

impl<I: FaultInjector, const N: usize> QualifiedAlu for Alu<I, N> {
    fn mode(&self) -> RedundancyMode {
        Self::MODE
    }

    fn load_weight(&mut self, value: f32) -> f32 {
        self.load(FaultSite::WeightLoad, value)
    }

    fn load_activation(&mut self, value: f32) -> f32 {
        self.load(FaultSite::ActivationLoad, value)
    }

    fn mul(&mut self, a: f32, b: f32) -> Qualified<f32> {
        self.cycles += self.cost.mul_op(Self::MODE);
        self.replicate(FaultSite::Multiplier, || a * b)
    }

    fn acc(&mut self, acc: f32, addend: f32) -> Qualified<f32> {
        self.cycles += self.cost.acc_op(Self::MODE);
        self.replicate(FaultSite::Accumulator, || acc + addend)
    }

    fn max_zero(&mut self, a: f32) -> Qualified<f32> {
        self.cycles += self.cost.acc_op(Self::MODE);
        self.replicate(FaultSite::Comparator, || a.max(0.0))
    }

    fn rollback_op(&mut self) {
        self.op_index = self.op_index.saturating_sub(1);
        self.cycles += self.cost.rollback;
    }

    fn set_pe(&mut self, pe: u32) {
        self.pe = pe;
    }

    fn op_count(&self) -> u64 {
        self.op_index
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn injector_stats(&self) -> InjectorStats {
        self.injector.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcnn_faults::{bits, NoFaults, ScriptedFault, ScriptedInjector};

    #[test]
    fn plain_always_qualifies_even_when_corrupted() {
        // A transient flip at op 0 silently passes Algorithm 1's constant
        // qualifier — the motivating failure mode.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT)]);
        let mut alu = PlainAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(q.is_ok(), "Algorithm 1 qualifier is constantly true");
        assert_eq!(q.value(), -6.0, "…but the value is corrupted");
    }

    #[test]
    fn dmr_detects_single_replica_fault() {
        let mut inj =
            ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(1)]);
        let mut alu = DmrAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(!q.is_ok(), "replica disagreement must fail the qualifier");
        assert_eq!(q.value(), 6.0, "replica 0 was healthy");
    }

    #[test]
    fn dmr_misses_common_mode_load_fault() {
        // Fault on the weight load corrupts the shared operand: both
        // replicas agree on the wrong product.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT)
            .at_site(relcnn_faults::FaultSite::WeightLoad)]);
        let mut alu = DmrAlu::new(&mut inj);
        let w = alu.load_weight(2.0);
        assert_eq!(w, -2.0);
        let q = alu.mul(w, 3.0);
        assert!(q.is_ok(), "common-mode corruption is invisible to DMR");
        assert_eq!(q.value(), -6.0);
    }

    #[test]
    fn dmr_identical_double_fault_is_undetectable() {
        // Same bit flipped in both replicas -> comparison passes. This is
        // the residual risk the guarantee analysis quantifies as ~p².
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(0),
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(1),
        ]);
        let mut alu = DmrAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(q.is_ok());
        assert_eq!(q.value(), -6.0);
    }

    #[test]
    fn tmr_corrects_single_replica_fault() {
        let mut inj =
            ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(0)]);
        let mut alu = TmrAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(q.is_ok(), "vote masks the minority replica");
        assert_eq!(
            q.value(),
            6.0,
            "majority value wins even when replica 0 is bad"
        );
    }

    #[test]
    fn tmr_corrects_a_fault_in_any_single_replica() {
        for replica in 0..3 {
            let mut inj = ScriptedInjector::new([
                ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(replica)
            ]);
            let q = TmrAlu::new(&mut inj).mul(2.0, 3.0);
            assert!(q.is_ok(), "replica {replica}: the other two agree");
            assert_eq!(q.value(), 6.0, "replica {replica}");
        }
    }

    #[test]
    fn tmr_two_identical_bad_replicas_outvote_truth() {
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(0),
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(1),
        ]);
        let mut alu = TmrAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(q.is_ok(), "vote cannot distinguish a corrupted majority");
        assert_eq!(q.value(), -6.0);
    }

    #[test]
    fn tmr_three_way_disagreement_fails() {
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(0),
            ScriptedFault::transient_flip(0, 23).on_replica(1),
        ]);
        let mut alu = TmrAlu::new(&mut inj);
        let q = alu.mul(2.0, 3.0);
        assert!(!q.is_ok());
    }

    #[test]
    fn fault_free_all_modes_agree_with_arithmetic() {
        let mut plain_inj = NoFaults::new();
        let mut plain = PlainAlu::new(&mut plain_inj);
        let mut dmr_inj = NoFaults::new();
        let mut dmr = DmrAlu::new(&mut dmr_inj);
        let mut tmr_inj = NoFaults::new();
        let mut tmr = TmrAlu::new(&mut tmr_inj);
        for (a, b) in [(1.5f32, 2.0f32), (-3.0, 0.25), (0.0, 7.0)] {
            for q in [plain.mul(a, b), dmr.mul(a, b), tmr.mul(a, b)] {
                assert!(q.is_ok());
                assert_eq!(q.value(), a * b);
            }
            for q in [plain.acc(a, b), dmr.acc(a, b), tmr.acc(a, b)] {
                assert!(q.is_ok());
                assert_eq!(q.value(), a + b);
            }
        }
    }

    #[test]
    fn rollback_reuses_op_index() {
        // Permanent scripted fault at op 0 must hit the retry too.
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT)
            .on_replica(1)
            .permanent()]);
        let mut alu = DmrAlu::new(&mut inj);
        let q1 = alu.mul(2.0, 3.0);
        assert!(!q1.is_ok());
        assert_eq!(alu.op_count(), 1);
        alu.rollback_op();
        assert_eq!(alu.op_count(), 0);
        let q2 = alu.mul(2.0, 3.0);
        assert!(!q2.is_ok(), "permanent fault persists across rollback");
    }

    #[test]
    fn transient_fault_clears_on_rollback_retry() {
        let mut inj =
            ScriptedInjector::new([ScriptedFault::transient_flip(0, bits::SIGN_BIT).on_replica(1)]);
        let mut alu = DmrAlu::new(&mut inj);
        assert!(!alu.mul(2.0, 3.0).is_ok());
        alu.rollback_op();
        let retry = alu.mul(2.0, 3.0);
        assert!(retry.is_ok(), "transient SEU gone on re-execution");
        assert_eq!(retry.value(), 6.0);
    }

    #[test]
    fn cycle_accounting_ordered_by_mode() {
        let mut plain_inj = NoFaults::new();
        let mut plain = PlainAlu::new(&mut plain_inj);
        let mut dmr_inj = NoFaults::new();
        let mut dmr = DmrAlu::new(&mut dmr_inj);
        let mut tmr_inj = NoFaults::new();
        let mut tmr = TmrAlu::new(&mut tmr_inj);
        for _ in 0..10 {
            plain.mul(1.0, 1.0);
            dmr.mul(1.0, 1.0);
            tmr.mul(1.0, 1.0);
        }
        assert!(plain.cycles() < dmr.cycles());
        assert!(dmr.cycles() < tmr.cycles());
    }

    #[test]
    fn op_counting_and_exposures() {
        let mut inj = NoFaults::new();
        let mut dmr = DmrAlu::new(&mut inj);
        dmr.load_weight(1.0);
        dmr.load_activation(2.0);
        dmr.mul(1.0, 2.0);
        dmr.acc(0.0, 2.0);
        assert_eq!(dmr.op_count(), 2, "loads do not consume op indices");
        // 2 loads + 2 replicas * 2 ops = 6 exposures.
        assert_eq!(dmr.injector_stats().exposures, 6);
        assert_eq!(dmr.injector_stats().injected, 0);
    }

    #[test]
    fn temporal_redundancy_is_blind_to_a_stuck_pe() {
        use relcnn_faults::{FaultSite, StuckBitInjector};
        // Both replicas run on PE 0: the stuck bit corrupts both
        // identically and the comparison passes: SILENT.
        let mut inj = StuckBitInjector::new(0, FaultSite::Multiplier, bits::SIGN_BIT, true);
        let mut dmr = DmrAlu::new(&mut inj);
        let q = dmr.mul(2.0, 3.0);
        assert!(q.is_ok(), "temporal DMR cannot see a shared-PE defect");
        assert_eq!(q.value(), -6.0, "…and the value is silently wrong");
    }

    #[test]
    fn pe_is_threaded_to_injector() {
        use relcnn_faults::{FaultSite, StuckBitInjector};
        let mut inj = StuckBitInjector::new(5, FaultSite::Multiplier, bits::SIGN_BIT, true);
        let mut alu = PlainAlu::new(&mut inj);
        alu.set_pe(4);
        assert_eq!(alu.mul(2.0, 3.0).value(), 6.0, "healthy PE");
        alu.set_pe(5);
        assert_eq!(alu.mul(2.0, 3.0).value(), -6.0, "stuck PE corrupts");
    }
}
