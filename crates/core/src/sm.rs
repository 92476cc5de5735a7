//! Selection Modules (paper §2.1.2).
//!
//! "Selection modules are simple. When a selection module receives an input
//! tuple, it returns it to the eddy if it passes the selection predicate,
//! and removes it from the dataflow otherwise. To track the progress made,
//! if the tuple passes the predicate, the SM marks this fact in the tuple's
//! TupleState."
//!
//! # Conjunction fusion
//!
//! The engine may hand an SM a batch together with *sibling* SMs — other
//! pending selections over the same table instance that every batch
//! member is also eligible for. [`Sm::apply_batch_fused`] then evaluates
//! the whole conjunction in one pass: each predicate runs column-at-a-time
//! over the rows still alive (via the kernels' masked entry point),
//! short-circuiting a row out of later predicates the moment one fails.
//! A row's [`FusedVerdict`] is three words — verdict, donebits, and how
//! many links of the chain it was evaluated on — so the pass allocates
//! nothing per row. From that count [`FusedVerdict::evals`] rebuilds the
//! per-predicate outcomes exactly as a sequential scalar cascade through
//! separate SMs would report them: one `(pred, passed)` observation per
//! evaluation actually performed, none for predicates a row never
//! reached.

//! # Expensive UDF predicates
//!
//! A UDF-style predicate ([`stems_types::ExprKind::Udf`]) charges a
//! virtual latency per *computed* verdict, so the SM takes a dedicated
//! batch path ([`Sm::apply_batch_udf`]) that (a) groups the envelope's
//! rows by input key — by each key's precomputed stable hash
//! ([`HashedKey`], the hash-once plumbing), in identity-hashed slot chains
//! with no list per key — and evaluates one representative per distinct
//! key, scattering the verdict to every duplicate, and (b) consults an
//! optional [`MemoCell`] shared across envelopes — and, under the query
//! server, across queries — so a verdict is computed once per distinct
//! key ever seen. Both layers are
//! verdict-for-verdict identical to the scalar cascade
//! (`tests/prop_memo_equivalence.rs`); only the computed-call count (and
//! therefore virtual time) changes.

use crate::memo::{MemoCell, MemoCounters};
use stems_storage::{Slot, SlotChains};
use stems_types::{ConstKernel, HashedKey, PredId, PredSet, Predicate, Tuple};

/// A selection module wrapping one predicate. The predicate's columnar
/// kernel is derived **once** here — IN-list kernels sort and dedup their
/// member list at construction, so envelopes must not re-derive them per
/// batch.
#[derive(Debug, Clone)]
pub struct Sm {
    pub(crate) pred: Predicate,
    kernel: Option<ConstKernel>,
    /// Verdict memo for UDF predicates (`None`: memoization off or not a
    /// UDF). Shared handles mean shared entries (server folding).
    memo: Option<MemoCell>,
}

/// Outcome of one UDF batch: per-row verdicts plus the cost accounting
/// the engine needs to charge virtual latency for the calls actually
/// made and to surface memo observability counters.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfOutcome {
    /// One verdict per batch member, in batch order — identical to
    /// mapping [`Sm::apply`] over the batch.
    pub verdicts: Vec<Option<bool>>,
    /// Verdict-function invocations actually performed (each one costs
    /// the predicate's `cost_us` of virtual time).
    pub computed: u64,
    /// Memo hit/miss/eviction counts for this batch (all zero when the
    /// SM has no memo attached).
    pub memo: MemoCounters,
}

/// Per-tuple outcome of a fused selection cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedVerdict {
    /// `Some(true)` — every predicate in the chain passed; `Some(false)` —
    /// dropped at the first failing predicate; `None` — a predicate was
    /// unexpectedly not evaluable on the tuple's span (router error).
    pub verdict: Option<bool>,
    /// Donebits earned: the predicates that evaluated to `true`.
    pub passed: PredSet,
    /// How far down the chain the row got: the first `evaluated` links
    /// were evaluated on it, and all of them passed except — when
    /// `verdict` is `Some(false)` — the last. A link that was not
    /// evaluable counts no evaluation.
    pub evaluated: u32,
}

impl FusedVerdict {
    /// Chain-order `(pred, passed)` observations for policy feedback —
    /// exactly the `Feedback::Selected` events a sequential scalar cascade
    /// would have generated — rebuilt from [`FusedVerdict::evaluated`].
    /// `lead` and `siblings` are the chain the verdict came from
    /// ([`Sm::apply_batch_fused`]'s receiver and argument).
    pub fn evals<'s>(
        self,
        lead: &'s Sm,
        siblings: &'s [&'s Sm],
    ) -> impl Iterator<Item = (PredId, bool)> + 's {
        let n = self.evaluated as usize;
        let failed = self.verdict == Some(false);
        std::iter::once(lead)
            .chain(siblings.iter().copied())
            .take(n)
            .enumerate()
            .map(move |(k, sm)| (sm.pred_id(), !(failed && k + 1 == n)))
    }
}

impl Sm {
    pub fn new(pred: Predicate) -> Sm {
        debug_assert!(pred.is_selection(), "SMs wrap selection predicates");
        let kernel = pred.const_kernel();
        Sm {
            pred,
            kernel,
            memo: None,
        }
    }

    pub(crate) fn pred_id(&self) -> PredId {
        self.pred.id
    }

    /// Whether this SM wraps an expensive UDF-style predicate (routed
    /// through [`Sm::apply_batch_udf`] and excluded from conjunction
    /// fusion).
    pub fn is_udf(&self) -> bool {
        self.pred.udf_spec().is_some()
    }

    /// Attach (or replace) the verdict memo. The engine attaches a
    /// private cell per UDF spec; the query server folds a shared cell
    /// across compatible queries.
    pub fn set_memo(&mut self, memo: Option<MemoCell>) {
        debug_assert!(memo.is_none() || self.is_udf(), "memo on a non-UDF SM");
        self.memo = memo;
    }

    /// Apply the predicate to every tuple of a batch: one verdict per
    /// member, in batch order — `Some(true)` passes, `Some(false)` fails,
    /// `None` is not evaluable on the member's span — verdict-for-verdict
    /// identical to [`Predicate::eval`] in a loop. Constant selections run as the typed
    /// partial-gather kernel cached at construction (see
    /// `stems_types::kernel` for the dispatch rules); everything else
    /// takes the scalar loop, which remains the semantic ground truth
    /// (`tests/prop_kernel_equivalence.rs`).
    pub fn apply_batch(&self, batch: &[Tuple]) -> Vec<Option<bool>> {
        self.eval_masked(batch, None)
    }

    /// One pass of this SM's predicate over the (masked) batch, through
    /// the cached kernel when there is one. Kernel-less predicates defer
    /// to [`Predicate::eval_batch_masked`], whose own kernel derivation is
    /// a cheap `None` for exactly these shapes.
    fn eval_masked(&self, batch: &[Tuple], mask: Option<&[bool]>) -> Vec<Option<bool>> {
        match &self.kernel {
            Some(k) => k.eval_masked(&self.pred, batch, mask),
            None => self.pred.eval_batch_masked(batch, mask),
        }
    }

    /// Apply this SM's predicate *and* the `siblings` chain to every tuple
    /// of a batch in one pass — conjunction fusion. The chain order is
    /// this SM's predicate first, then `siblings` in the given order; a
    /// row that fails (or turns out not evaluable) short-circuits out of
    /// every later predicate. Every link runs through its own SM's cached
    /// kernel. With an empty `siblings` slice this is [`Sm::apply_batch`]
    /// plus bookkeeping.
    pub fn apply_batch_fused(&self, batch: &[Tuple], siblings: &[&Sm]) -> Vec<FusedVerdict> {
        let n = batch.len();
        let fresh = FusedVerdict {
            verdict: Some(true),
            passed: PredSet::EMPTY,
            evaluated: 0,
        };
        let mut out = vec![fresh; n];
        let mut alive = vec![true; n];
        let mut alive_count = n;
        for (k, sm) in std::iter::once(&self).chain(siblings.iter()).enumerate() {
            if alive_count == 0 {
                break;
            }
            // The first predicate sees every row; later ones gather only
            // the survivors through the kernels' mask.
            let mask = if k == 0 { None } else { Some(alive.as_slice()) };
            let verdicts = sm.eval_masked(batch, mask);
            let pred_id = sm.pred_id();
            for (i, v) in verdicts.into_iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let row = &mut out[i];
                match v {
                    Some(true) => {
                        row.evaluated += 1;
                        row.passed.insert(pred_id);
                    }
                    Some(false) => {
                        row.evaluated += 1;
                        row.verdict = Some(false);
                        alive[i] = false;
                        alive_count -= 1;
                    }
                    None => {
                        row.verdict = None;
                        alive[i] = false;
                        alive_count -= 1;
                    }
                }
            }
        }
        out
    }

    /// Evaluate a UDF predicate over a batch: verdict-for-verdict
    /// identical to [`Predicate::eval`] in a loop, but computing the verdict
    /// function as few times as the configuration allows.
    ///
    /// * `dedup: true` groups rows by input key first and evaluates one
    ///   representative per distinct key (the envelope-level dedup);
    /// * an attached memo (see [`Sm::set_memo`]) is consulted before any
    ///   computation and learns every computed verdict (the cross-batch,
    ///   cross-query layer).
    ///
    /// NULL/EOT inputs short-circuit to `Some(false)` without invoking —
    /// or charging for — the verdict function, matching
    /// [`stems_types::UdfSpec::verdict`]; rows that do not span the
    /// predicate's table yield `None` exactly like every other selection.
    pub fn apply_batch_udf(&self, batch: &[Tuple], dedup: bool) -> UdfOutcome {
        let spec = *self.pred.udf_spec().expect("apply_batch_udf on a UDF SM");
        let n = batch.len();
        let mut out = UdfOutcome {
            verdicts: vec![None; n],
            computed: 0,
            memo: MemoCounters::default(),
        };
        // Rows with a hashable key, annotated once (hash-once pipeline).
        let mut keyed: Vec<(usize, HashedKey)> = Vec::with_capacity(n);
        for (i, t) in batch.iter().enumerate() {
            let Some(v) = self.pred.left.resolve(t) else {
                continue; // wrong span: not evaluable
            };
            if v.is_null() || v.is_eot() {
                out.verdicts[i] = Some(false);
                continue;
            }
            keyed.push((i, HashedKey::new(v.clone())));
        }
        let verdict_of = |hk: &HashedKey, out: &mut UdfOutcome| -> bool {
            if let Some(memo) = &self.memo {
                if let Some(v) = memo.lookup(hk) {
                    out.memo.hits += 1;
                    return v;
                }
                let v = spec.verdict(hk.raw());
                out.computed += 1;
                out.memo.misses += 1;
                out.memo.evictions += memo.insert(hk, v);
                return v;
            }
            out.computed += 1;
            spec.verdict(hk.raw())
        };
        if dedup {
            // The representatives so far, by position in `keyed`, chained
            // under their key's precomputed hash: one bucket jump, never a
            // re-hash, and keys that collide share a chain.
            let mut reps = SlotChains::new();
            reps.reserve(keyed.len());
            for k in 0..keyed.len() {
                let (i, ref hk) = keyed[k];
                let hash = hk.hash().expect("keyed rows are hashable").get();
                let same = |r: &Slot| keyed[*r as usize].1.same_lookup(hk);
                if let Some(rep) = reps.chain(hash).find(same) {
                    // Duplicate of an earlier row: scatter its verdict.
                    out.verdicts[i] = out.verdicts[keyed[rep as usize].0];
                    continue;
                }
                reps.push(hash, k as Slot);
                let v = verdict_of(hk, &mut out);
                out.verdicts[i] = Some(v);
            }
        } else {
            for (i, hk) in &keyed {
                let v = verdict_of(hk, &mut out);
                out.verdicts[*i] = Some(v);
            }
        }
        out
    }

    /// Observed selectivity helpers are kept by the policy, not here; the
    /// SM itself is stateless, as in the paper.
    pub(crate) fn describe(&self) -> String {
        self.pred.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{CmpOp, ColRef, TableIdx, Tuple, Value};

    fn sm_gt(threshold: i64) -> Sm {
        Sm::new(Predicate::selection(
            PredId(0),
            ColRef::new(TableIdx(0), 0),
            CmpOp::Gt,
            Value::Int(threshold),
        ))
    }

    #[test]
    fn passes_and_fails() {
        let sm = sm_gt(10);
        let hi = Tuple::singleton_of(TableIdx(0), vec![Value::Int(99)]);
        let lo = Tuple::singleton_of(TableIdx(0), vec![Value::Int(3)]);
        assert_eq!(sm.pred.eval(&hi), Some(true));
        assert_eq!(sm.pred.eval(&lo), Some(false));
    }

    #[test]
    fn not_evaluable_on_wrong_span() {
        let sm = sm_gt(10);
        let other = Tuple::singleton_of(TableIdx(1), vec![Value::Int(99)]);
        assert_eq!(sm.pred.eval(&other), None);
    }

    #[test]
    fn applies_to_composites() {
        let sm = sm_gt(10);
        let a = Tuple::singleton_of(TableIdx(0), vec![Value::Int(50)]);
        let b = Tuple::singleton_of(TableIdx(1), vec![Value::Int(1)]);
        assert_eq!(sm.pred.eval(&a.concat(&b)), Some(true));
    }

    #[test]
    fn describe_mentions_predicate() {
        assert!(sm_gt(7).describe().contains('>'));
        assert_eq!(sm_gt(7).pred_id(), PredId(0));
    }

    #[test]
    fn apply_batch_agrees_with_scalar_apply() {
        let sm = sm_gt(10);
        let batch = vec![
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(99)]),
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(3)]),
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(10)]),
            Tuple::singleton_of(TableIdx(1), vec![Value::Int(50)]), // wrong span
            Tuple::singleton_of(TableIdx(0), vec![Value::Null]),
        ];
        let want: Vec<_> = batch.iter().map(|t| sm.pred.eval(t)).collect();
        assert_eq!(sm.apply_batch(&batch), want);
        assert_eq!(
            want,
            vec![Some(true), Some(false), Some(false), None, Some(false)]
        );
    }

    #[test]
    fn fused_chain_short_circuits_and_reports_per_pred() {
        // p0: c0 > 10, p1: c1 < 5 over table 0.
        let p1 = Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(0), 1),
            CmpOp::Lt,
            Value::Int(5),
        );
        let sm = sm_gt(10);
        let sm1 = Sm::new(p1);
        let t = |a: i64, b: i64| Tuple::singleton_of(TableIdx(0), vec![a.into(), b.into()]);
        let batch = vec![t(99, 1), t(3, 1), t(99, 9)];
        let siblings = [&sm1];
        let out = sm.apply_batch_fused(&batch, &siblings);
        let evals = |v: FusedVerdict| v.evals(&sm, &siblings).collect::<Vec<_>>();
        // Row 0 passes both: both donebits, both feedback events.
        assert_eq!(out[0].verdict, Some(true));
        assert!(out[0].passed.contains(PredId(0)) && out[0].passed.contains(PredId(1)));
        assert_eq!(out[0].evaluated, 2);
        assert_eq!(evals(out[0]), vec![(PredId(0), true), (PredId(1), true)]);
        // Row 1 fails p0: p1 is never evaluated (short circuit).
        assert_eq!(out[1].verdict, Some(false));
        assert_eq!(out[1].evaluated, 1);
        assert_eq!(evals(out[1]), vec![(PredId(0), false)]);
        // Row 2 passes p0, fails p1.
        assert_eq!(out[2].verdict, Some(false));
        assert!(out[2].passed.contains(PredId(0)));
        assert_eq!(evals(out[2]), vec![(PredId(0), true), (PredId(1), false)]);
    }

    #[test]
    fn fused_chain_counts_no_evaluation_for_an_unevaluable_link() {
        // p0: c0 > 10 over table 0; p1: c0 < 5 over table 1, which a
        // table-0 row does not span. A row that passes p0 reaches p1 and
        // is dropped there without a verdict: one evaluation, one
        // observation, like the scalar cascade.
        let p1 = Predicate::selection(
            PredId(1),
            ColRef::new(TableIdx(1), 0),
            CmpOp::Lt,
            Value::Int(5),
        );
        let sm = sm_gt(10);
        let sm1 = Sm::new(p1);
        let siblings = [&sm1];
        let t = |a: i64| Tuple::singleton_of(TableIdx(0), vec![a.into()]);
        let batch = vec![t(99), t(3)];
        let out = sm.apply_batch_fused(&batch, &siblings);
        assert_eq!(out[0].verdict, None);
        assert_eq!(out[0].evaluated, 1);
        assert_eq!(
            out[0].evals(&sm, &siblings).collect::<Vec<_>>(),
            vec![(PredId(0), true)]
        );
        assert_eq!(out[1].verdict, Some(false));
        assert_eq!(
            out[1].evals(&sm, &siblings).collect::<Vec<_>>(),
            vec![(PredId(0), false)]
        );
    }

    #[test]
    fn udf_batch_dedup_and_memo_agree_with_scalar() {
        use crate::memo::MemoCache;
        use stems_types::UdfSpec;
        let spec = UdfSpec::hash_sieve(500, 1000);
        let pred = Predicate::udf(PredId(0), ColRef::new(TableIdx(0), 0), spec);
        let batch: Vec<Tuple> = [7, 3, 7, 7, 3, 11]
            .iter()
            .map(|&v| Tuple::singleton_of(TableIdx(0), vec![Value::Int(v)]))
            .chain([
                Tuple::singleton_of(TableIdx(0), vec![Value::Null]),
                Tuple::singleton_of(TableIdx(1), vec![Value::Int(7)]), // wrong span
            ])
            .collect();
        let plain = Sm::new(pred.clone());
        let want: Vec<_> = batch.iter().map(|t| plain.pred.eval(t)).collect();

        // No memo, no dedup: one call per evaluable non-null row.
        let out = plain.apply_batch_udf(&batch, false);
        assert_eq!(out.verdicts, want);
        assert_eq!(out.computed, 6);
        assert_eq!(out.memo, crate::memo::MemoCounters::default());

        // Dedup alone: one call per distinct key (7, 3, 11).
        let out = plain.apply_batch_udf(&batch, true);
        assert_eq!(out.verdicts, want);
        assert_eq!(out.computed, 3);

        // Memo alone: first batch misses per row until the cache warms
        // within the batch (row-at-a-time memo consult).
        let mut memoed = Sm::new(pred.clone());
        memoed.set_memo(Some(MemoCache::cell(2, 1 << 16)));
        let out = memoed.apply_batch_udf(&batch, false);
        assert_eq!(out.verdicts, want);
        assert_eq!(out.computed, 3, "duplicates hit the warming memo");
        assert_eq!(out.memo.hits, 3);
        assert_eq!(out.memo.misses, 3);
        // Second batch: all hits, nothing computed.
        let out = memoed.apply_batch_udf(&batch, true);
        assert_eq!(out.verdicts, want);
        assert_eq!(out.computed, 0);
        assert_eq!(out.memo.hits, 3, "one lookup per distinct key");
    }

    /// The selection hop allocates per envelope, never per row: a fused
    /// cascade, and a UDF pass over a warm memo with and without envelope
    /// dedup, make as many allocations for 128 rows as for 64.
    #[test]
    fn selection_allocations_do_not_grow_with_the_envelope() {
        use crate::memo::MemoCache;
        use crate::test_alloc::allocs_during;
        use stems_types::UdfSpec;
        let row = |i: i64| Tuple::singleton_of(TableIdx(0), vec![(i % 40).into(), (i % 7).into()]);
        let (small, large): (Vec<Tuple>, Vec<Tuple>) =
            ((0..64).map(row).collect(), (0..128).map(row).collect());

        let sm = sm_gt(10);
        let col = |c| ColRef::new(TableIdx(0), c);
        let lt = Sm::new(Predicate::selection(
            PredId(1),
            col(1),
            CmpOp::Lt,
            Value::Int(5),
        ));
        let ne = Sm::new(Predicate::selection(
            PredId(2),
            col(0),
            CmpOp::Ne,
            Value::Int(30),
        ));
        let siblings = [&lt, &ne];
        let fused = |b: &[Tuple]| allocs_during(|| sm.apply_batch_fused(b, &siblings)).0;
        assert_eq!(fused(&small), fused(&large));

        let mut udf = Sm::new(Predicate::udf(
            PredId(3),
            col(0),
            UdfSpec::hash_sieve(500, 1000),
        ));
        udf.set_memo(Some(MemoCache::cell(8, 1 << 16)));
        // Warm: the large envelope holds every key of both.
        udf.apply_batch_udf(&large, true);
        for dedup in [true, false] {
            let warm = |b: &[Tuple]| {
                let (allocs, out) = allocs_during(|| udf.apply_batch_udf(b, dedup));
                assert_eq!(out.computed, 0, "memo is warm");
                allocs
            };
            assert_eq!(warm(&small), warm(&large), "dedup {dedup}");
        }
    }

    #[test]
    fn fused_with_no_siblings_matches_apply_batch() {
        let sm = sm_gt(10);
        let batch = vec![
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(99)]),
            Tuple::singleton_of(TableIdx(0), vec![Value::Int(3)]),
            Tuple::singleton_of(TableIdx(1), vec![Value::Int(50)]),
        ];
        let fused = sm.apply_batch_fused(&batch, &[]);
        let plain = sm.apply_batch(&batch);
        assert_eq!(fused.iter().map(|f| f.verdict).collect::<Vec<_>>(), plain);
        // Not-evaluable rows report no feedback, like the scalar engine.
        assert_eq!(fused[2].evaluated, 0);
        assert_eq!(fused[2].evals(&sm, &[]).count(), 0);
    }

    /// A panic while a shard lock is held poisons it; `lock_recover` must
    /// clear that shard and keep the cache (and the SM using it) fully
    /// functional — memoized verdicts still match scalar after recovery.
    #[test]
    fn poisoned_cache_recovers_and_stays_correct() {
        use crate::memo::MemoCache;
        use stems_types::UdfSpec;
        let pred = Predicate::udf(
            PredId(0),
            ColRef::new(TableIdx(0), 1),
            UdfSpec::hash_sieve(500, 1_000),
        );
        let cell = MemoCache::cell(2, 1 << 16);
        let mut sm = Sm::new(pred.clone());
        sm.set_memo(Some(cell.clone()));
        let batch: Vec<Tuple> = (0..40)
            .map(|i: i64| Tuple::singleton_of(TableIdx(0), vec![Value::Int(i), Value::Int(i % 8)]))
            .collect();
        let want: Vec<Option<bool>> = batch.iter().map(|t| pred.eval(t)).collect();
        assert_eq!(sm.apply_batch_udf(&batch, true).verdicts, want);
        assert!(cell.len() > 0, "warm-up should populate the cache");
        // Poison the cache: panic while holding its lock.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with_lock(|_| panic!("poison the cache"));
        }));
        assert!(result.is_err());
        assert!(cell.is_poisoned(), "panic under the lock must poison");
        // Recovery: the poisoned cache comes back empty, verdicts stay
        // correct.
        let out = sm.apply_batch_udf(&batch, true);
        assert_eq!(out.verdicts, want, "verdicts diverged after recovery");
        assert!(!cell.is_poisoned(), "lock_recover must clear the poison");
        // And the cache works again: a second pass hits.
        let again = sm.apply_batch_udf(&batch, true);
        assert_eq!(again.verdicts, want);
        assert!(again.memo.hits > 0, "recovered cache never hit");
    }
}
