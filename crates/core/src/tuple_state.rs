//! Per-tuple routing state — the paper's "TupleState" (§2.1.1).
//!
//! "Each tuple also carries some state with it, called its TupleState, to
//! track the work it has done in furthering query progress. ... as a bare
//! minimum, the TupleState must contain (a) the tables spanned by the
//! tuple, and (b) the predicates that the tuple has passed." The span is
//! derivable from the tuple itself ([`stems_types::Tuple::span`]); this
//! struct carries the rest, including the prior-prober marker of
//! Definition 3 and the LastMatchTimeStamp of §3.5.

use stems_types::{PredSet, TableIdx, TableSet, Timestamp};

/// Why a prior prober must (or need not) complete its probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionNeed {
    /// The bounced probe is the only way to reach the table's remaining
    /// matches (no scan AM covers completeness): the tuple must stay in the
    /// dataflow until probed into a completion AM or its SteM completes.
    Required,
    /// A scan AM (plus the tuple's own components being cached in SteMs)
    /// guarantees completeness; the bounce exists only to *offer* the
    /// routing policy an index probe (paper §4.1 / §4.3 hybridization).
    /// The policy may drop the tuple instead.
    Optional,
}

/// The prior-prober marker (paper Definition 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorProber {
    /// The probe completion table.
    pub table: TableIdx,
    /// Whether completion is required for correctness.
    pub need: CompletionNeed,
}

/// Routing state carried by every tuple in the dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleState {
    /// Predicates this tuple has passed — the paper's "donebits".
    pub done: PredSet,
    /// SteMs (by table instance) this tuple has already probed.
    pub(crate) probed_stems: TableSet,
    /// Tables whose access methods this tuple has already probed.
    pub(crate) probed_ams: TableSet,
    /// Prior-prober marker: set when a SteM bounces this tuple's probe.
    pub prior_prober: Option<PriorProber>,
    /// LastMatchTimeStamp (§3.5): matches with build timestamps ≤ this were
    /// already returned to this tuple by an earlier probe.
    pub last_match_ts: Timestamp,
    /// Version (build/EOT count) of the probed SteM at this tuple's last
    /// probe — re-probes are offered only when the SteM has changed, which
    /// is what makes BoundedRepetition hold under the §3.5 relaxation.
    pub(crate) last_probe_version: u64,
    /// Total routing hops, the BoundedRepetition safety valve.
    pub(crate) hops: u32,
    /// The index AM whose response produced this tuple, if any — used by
    /// adaptive policies to attribute freshness feedback.
    pub(crate) origin_am: Option<usize>,
    /// Whether the tuple matches the user's priority predicate (§4.1).
    pub(crate) prioritized: bool,
}

impl Default for TupleState {
    fn default() -> Self {
        TupleState::new()
    }
}

impl TupleState {
    pub fn new() -> TupleState {
        TupleState {
            done: PredSet::EMPTY,
            probed_stems: TableSet::EMPTY,
            probed_ams: TableSet::EMPTY,
            prior_prober: None,
            last_match_ts: 0,
            last_probe_version: 0,
            hops: 0,
            origin_am: None,
            prioritized: false,
        }
    }

    /// The state a probe *result* (concatenation) starts with: donebits are
    /// merged by the SteM; routing history does not transfer — the result
    /// is a new tuple that has probed nothing yet.
    pub fn for_result(done: PredSet) -> TupleState {
        TupleState {
            done,
            ..TupleState::new()
        }
    }

    /// Mark a completed SteM probe of table `t`.
    pub fn mark_probed(&mut self, t: TableIdx) {
        self.probed_stems.insert(t);
    }

    /// Mark a completed AM probe on table `t`.
    pub(crate) fn mark_am_probed(&mut self, t: TableIdx) {
        self.probed_ams.insert(t);
    }

    /// Is this tuple a prior prober that *must* still complete its probe?
    pub(crate) fn completion_required(&self) -> bool {
        matches!(
            self.prior_prober,
            Some(PriorProber {
                need: CompletionNeed::Required,
                ..
            })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::PredId;

    #[test]
    fn fresh_state_is_empty() {
        let s = TupleState::new();
        assert!(s.done.is_empty());
        assert!(s.probed_stems.is_empty());
        assert!(s.prior_prober.is_none());
        assert_eq!(s.last_match_ts, 0);
        assert!(!s.completion_required());
    }

    #[test]
    fn result_state_keeps_only_donebits() {
        let mut parent = TupleState::new();
        parent.mark_probed(TableIdx(1));
        parent.hops += 7;
        assert_eq!(parent.hops, 7);
        let mut done = PredSet::EMPTY;
        done.insert(PredId(2));
        let child = TupleState::for_result(done);
        assert!(child.done.contains(PredId(2)));
        assert!(child.probed_stems.is_empty());
        assert_eq!(child.hops, 0);
    }

    #[test]
    fn completion_required_flags() {
        let mut s = TupleState::new();
        s.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Required,
        });
        assert!(s.completion_required());
        s.prior_prober = Some(PriorProber {
            table: TableIdx(1),
            need: CompletionNeed::Optional,
        });
        assert!(!s.completion_required());
    }

    #[test]
    fn probe_marks() {
        let mut s = TupleState::new();
        s.mark_probed(TableIdx(3));
        s.mark_am_probed(TableIdx(2));
        assert!(s.probed_stems.contains(TableIdx(3)));
        assert!(s.probed_ams.contains(TableIdx(2)));
        assert!(!s.probed_stems.contains(TableIdx(2)));
    }
}
