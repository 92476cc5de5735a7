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
//! over the rows still alive (a row's running verdict is its liveness),
//! short-circuiting a row out of later predicates the moment one fails.
//! A row's [`FusedVerdict`] is three words — verdict, donebits, and how
//! many links of the chain it was evaluated on — and every link writes
//! straight into it. From that count [`FusedVerdict::evals`] rebuilds the
//! per-predicate outcomes exactly as a sequential scalar cascade through
//! separate SMs would report them: one `(pred, passed)` observation per
//! evaluation actually performed, none for predicates a row never
//! reached.
//!
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
//! key ever seen; the envelope takes the memo's lock once. Both layers
//! are verdict-for-verdict identical to the scalar cascade
//! (`tests/prop_memo_equivalence.rs`); only the computed-call count (and
//! therefore virtual time) changes.
//!
//! # What allocates
//!
//! Nothing, once warm. Each path has a scratch form that writes into
//! buffers its caller keeps — [`Sm::apply_batch_into`],
//! [`Sm::apply_chain_into`] and [`Sm::apply_batch_udf_into`], whose keyed
//! rows and dedup chains live in a [`UdfScratch`] — and the eddy owns one
//! set per executor, so a Select envelope allocates only when it is larger
//! than every envelope before it, and a UDF envelope only for what its
//! memo keeps (new entries). [`Sm::apply_batch`],
//! [`Sm::apply_batch_fused`] and [`Sm::apply_batch_udf`] are the
//! owned-return forms: each wraps its scratch form around fresh buffers.

use crate::memo::{MemoCell, MemoCounters, MemoState};
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
    /// mapping [`Predicate::eval`] over the batch.
    pub verdicts: Vec<Option<bool>>,
    /// Verdict-function invocations actually performed (each one costs
    /// the predicate's `cost_us` of virtual time).
    pub computed: u64,
    /// Memo hit/miss/eviction counts for this batch (all zero when the
    /// SM has no memo attached).
    pub memo: MemoCounters,
}

/// What one UDF batch cost: [`UdfOutcome`] without the verdicts, which
/// [`Sm::apply_batch_udf_into`] writes into its caller's buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfCalls {
    /// As [`UdfOutcome::computed`].
    pub computed: u64,
    /// As [`UdfOutcome::memo`].
    pub memo: MemoCounters,
}

/// The UDF path's working lists, kept by the caller across envelopes
/// ([`Sm::apply_batch_udf_into`]): the rows with a hashable key, and the
/// dedup pass's chains of representatives. Cleared, never shrunk, per
/// envelope.
#[derive(Debug, Default)]
pub struct UdfScratch {
    keyed: Vec<(usize, HashedKey)>,
    reps: SlotChains,
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
    /// A row no link has evaluated yet: alive, no donebits.
    const FRESH: FusedVerdict = FusedVerdict {
        verdict: Some(true),
        passed: PredSet::EMPTY,
        evaluated: 0,
    };

    /// Chain-order `(pred, passed)` observations for policy feedback —
    /// exactly the `Feedback::Selected` events a sequential scalar cascade
    /// would have generated — rebuilt from [`FusedVerdict::evaluated`].
    /// `lead` and `siblings` are the chain the verdict came from
    /// ([`Sm::apply_batch_fused`]'s receiver and argument).
    pub fn evals<'s>(
        self,
        lead: &'s Sm,
        siblings: impl IntoIterator<Item = &'s Sm, IntoIter: 's>,
    ) -> impl Iterator<Item = (PredId, bool)> + 's {
        let n = self.evaluated as usize;
        let failed = self.verdict == Some(false);
        std::iter::once(lead)
            .chain(siblings)
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
    /// kernel cached at construction (see
    /// `stems_types::kernel` for the dispatch rules); everything else
    /// takes the scalar loop, which remains the semantic ground truth
    /// (`tests/prop_kernel_equivalence.rs`).
    pub fn apply_batch(&self, batch: &[Tuple]) -> Vec<Option<bool>> {
        let mut out = Vec::new();
        self.apply_batch_into(batch, &mut out);
        out
    }

    /// [`Self::apply_batch`] into `out`, whose old contents are replaced:
    /// allocates only to grow `out`.
    pub fn apply_batch_into(&self, batch: &[Tuple], out: &mut Vec<Option<bool>>) {
        out.clear();
        out.resize(batch.len(), None);
        self.pred.eval_slots(
            self.kernel.as_ref(),
            batch,
            out,
            |_| true,
            |v, verdict| {
                *v = verdict;
            },
        );
    }

    /// Apply this SM's predicate *and* the `siblings` chain to every tuple
    /// of a batch in one pass — conjunction fusion. The chain order is
    /// this SM's predicate first, then `siblings` in the given order; a
    /// row that fails (or turns out not evaluable) short-circuits out of
    /// every later predicate. Every link runs through its own SM's cached
    /// kernel. With an empty `siblings` slice this is [`Sm::apply_batch`]
    /// plus bookkeeping.
    pub fn apply_batch_fused(&self, batch: &[Tuple], siblings: &[&Sm]) -> Vec<FusedVerdict> {
        let mut out = Vec::new();
        self.apply_chain_into(batch, siblings.iter().copied(), &mut out);
        out
    }

    /// [`Self::apply_batch_fused`] into `out`, whose old contents are
    /// replaced, over a chain handed over as an iterator — so a caller
    /// that finds the siblings elsewhere (the eddy, in its module table)
    /// collects them into no list. Allocates only to grow `out`: each
    /// link writes its verdicts straight into the rows' `FusedVerdict`s
    /// and skips the rows already out.
    pub fn apply_chain_into<'s>(
        &'s self,
        batch: &[Tuple],
        siblings: impl IntoIterator<Item = &'s Sm>,
        out: &mut Vec<FusedVerdict>,
    ) {
        out.clear();
        out.resize(batch.len(), FusedVerdict::FRESH);
        let mut alive = batch.len();
        for sm in std::iter::once(self).chain(siblings) {
            if alive == 0 {
                break;
            }
            let pred_id = sm.pred_id();
            let live = |row: &FusedVerdict| row.verdict == Some(true);
            sm.pred.eval_slots(
                sm.kernel.as_ref(),
                batch,
                out,
                live,
                |row, verdict| match verdict {
                    Some(true) => {
                        row.evaluated += 1;
                        row.passed.insert(pred_id);
                    }
                    Some(false) => {
                        row.evaluated += 1;
                        row.verdict = Some(false);
                        alive -= 1;
                    }
                    None => {
                        row.verdict = None;
                        alive -= 1;
                    }
                },
            );
        }
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
        let mut verdicts = Vec::new();
        let calls =
            self.apply_batch_udf_into(batch, dedup, &mut UdfScratch::default(), &mut verdicts);
        UdfOutcome {
            verdicts,
            computed: calls.computed,
            memo: calls.memo,
        }
    }

    /// [`Self::apply_batch_udf`] into `verdicts`, whose old contents are
    /// replaced, with its working lists in `scratch`; the memo, if any,
    /// is locked once for the whole batch and consulted key by key in
    /// batch order. Allocates only to grow `verdicts` and `scratch`, and
    /// for the entries the memo keeps.
    pub fn apply_batch_udf_into(
        &self,
        batch: &[Tuple],
        dedup: bool,
        scratch: &mut UdfScratch,
        verdicts: &mut Vec<Option<bool>>,
    ) -> UdfCalls {
        let spec = *self.pred.udf_spec().expect("apply_batch_udf on a UDF SM");
        verdicts.clear();
        verdicts.resize(batch.len(), None);
        let UdfScratch { keyed, reps } = scratch;
        // Rows with a hashable key, annotated once (hash-once pipeline).
        keyed.clear();
        keyed.reserve(batch.len());
        for (i, t) in batch.iter().enumerate() {
            let Some(v) = self.pred.left.resolve(t) else {
                continue; // wrong span: not evaluable
            };
            if v.is_null() || v.is_eot() {
                verdicts[i] = Some(false);
                continue;
            }
            keyed.push((i, HashedKey::new(v.clone())));
        }
        let mut pass = |mut memo: Option<&mut MemoState>| {
            let mut calls = UdfCalls::default();
            let mut verdict_of = |hk: &HashedKey| -> bool {
                if let Some(memo) = memo.as_deref_mut() {
                    if let Some(v) = memo.lookup(hk) {
                        calls.memo.hits += 1;
                        return v;
                    }
                    let v = spec.verdict(hk.raw());
                    calls.computed += 1;
                    calls.memo.misses += 1;
                    calls.memo.evictions += memo.insert(hk, v);
                    return v;
                }
                calls.computed += 1;
                spec.verdict(hk.raw())
            };
            if dedup {
                // The representatives so far, by position in `keyed`,
                // chained under their key's precomputed hash: one bucket
                // jump, never a re-hash, and keys that collide share a
                // chain.
                reps.clear();
                reps.reserve(keyed.len());
                for (k, (i, hk)) in keyed.iter().enumerate() {
                    let hash = hk.hash().expect("keyed rows are hashable").get();
                    let same = |r: &Slot| keyed[*r as usize].1.same_lookup(hk);
                    if let Some(rep) = reps.chain(hash).find(same) {
                        // Duplicate of an earlier row: scatter its verdict.
                        verdicts[*i] = verdicts[keyed[rep as usize].0];
                        continue;
                    }
                    reps.push(hash, k as Slot);
                    verdicts[*i] = Some(verdict_of(hk));
                }
            } else {
                for (i, hk) in keyed.iter() {
                    verdicts[*i] = Some(verdict_of(hk));
                }
            }
            calls
        };
        match &self.memo {
            Some(memo) => memo.locked(|state| pass(Some(state))),
            None => pass(None),
        }
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
        let evals = |v: FusedVerdict| v.evals(&sm, siblings).collect::<Vec<_>>();
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
            out[0].evals(&sm, siblings).collect::<Vec<_>>(),
            vec![(PredId(0), true)]
        );
        assert_eq!(out[1].verdict, Some(false));
        assert_eq!(
            out[1].evals(&sm, siblings).collect::<Vec<_>>(),
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

    /// The scratch forms allocate nothing once their buffers have held a
    /// batch as large: kernel and fused verdicts go straight into the
    /// caller's buffer, and the UDF path's keyed rows and dedup chains
    /// are reused, with a warm memo locked once per batch.
    #[test]
    fn warm_scratch_forms_allocate_nothing() {
        use crate::memo::MemoCache;
        use crate::test_alloc::allocs_during;
        use stems_types::UdfSpec;
        let row = |i: i64| {
            let k = if i == 5 {
                Value::Null
            } else {
                Value::Int(i % 40)
            };
            Tuple::singleton_of(TableIdx(0), vec![k, (i % 7).into()])
        };
        let large: Vec<Tuple> = (0..128).map(row).collect();
        let small = &large[..64];
        let col = |c| ColRef::new(TableIdx(0), c);
        let sm = sm_gt(10);
        let lt = Sm::new(Predicate::selection(
            PredId(1),
            col(1),
            CmpOp::Lt,
            Value::Int(5),
        ));
        let (mut verdicts, mut fused) = (Vec::new(), Vec::new());
        sm.apply_batch_into(&large, &mut verdicts);
        sm.apply_chain_into(&large, [&lt], &mut fused);
        for b in [small, &large[..]] {
            let (allocs, ()) = allocs_during(|| sm.apply_batch_into(b, &mut verdicts));
            assert_eq!((allocs, verdicts.len()), (0, b.len()));
            let (allocs, ()) = allocs_during(|| sm.apply_chain_into(b, [&lt], &mut fused));
            assert_eq!((allocs, fused.len()), (0, b.len()));
        }

        let mut udf = Sm::new(Predicate::udf(
            PredId(3),
            col(0),
            UdfSpec::hash_sieve(500, 1000),
        ));
        udf.set_memo(Some(MemoCache::cell(8, 1 << 16)));
        let mut scratch = UdfScratch::default();
        for dedup in [true, false] {
            udf.apply_batch_udf_into(&large, dedup, &mut scratch, &mut verdicts);
            for b in [small, &large[..]] {
                let (allocs, calls) = allocs_during(|| {
                    udf.apply_batch_udf_into(b, dedup, &mut scratch, &mut verdicts)
                });
                assert_eq!(calls.computed, 0, "memo is warm");
                assert!(calls.memo.hits > 0);
                assert_eq!(allocs, 0, "dedup {dedup}, {} rows", b.len());
            }
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
