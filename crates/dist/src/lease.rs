//! The coordinator's ledger of one work list: for every lease entry,
//! who holds it and until when, who voted on it with which digest, and
//! — once decided — the accepted output, until the coordinator drains
//! it. It is the job's only record of each lease.
//!
//! One entry per leasable unit (a campaign chunk or a guided slot
//! sub-range), in fold order. Claims hand out the **lowest-indexed**
//! entry that still needs executions — so results arrive roughly in
//! fold order and the drain keeps up. An entry needs executions while it
//! is undecided and its unexpired leases plus votes number fewer than
//! the redundancy; a holder never gets the same entry twice (its vote,
//! or its outstanding lease, excludes it), which is what makes K votes K
//! *distinct* workers. Expiry is passive: nothing scans the table on a
//! timer; an expired lease is pruned at the next claim. The coordinator's
//! state machine closes a silent worker's connection at the first `Tick`
//! a lease timeout after its last frame, and that connection's `Closed`
//! returns its leases. Re-leasing is semantically free — the per-range
//! RNG law makes the re-execution byte-identical (RELIABILITY.md §1,
//! DISTRIBUTED.md).
//!
//! A delivered result is a [`LeaseTable::vote`]. Votes group by content
//! digest ([`Candidate`]); once `redundancy` distinct holders have voted,
//! the entry is accepted if they agree and it is not audited. Otherwise
//! the coordinator re-executes the range and [`LeaseTable::adjudicate`]s
//! with its own output as the truth, disqualifying every holder that
//! voted another digest. Accepted outputs leave through
//! [`LeaseTable::drain`] in lease order: a campaign folds them as they
//! come, a guided generation all at once at its barrier.
//!
//! Time is an explicit `now_ms` parameter rather than an ambient clock
//! read, so expiry logic is unit-testable with a fake clock and the
//! table itself stays deterministic in its inputs.

use crate::proto::RangeOutput;
use crate::verify::Candidate;

/// What a delivered result did to its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// Dropped: an unknown index, a decided entry or one whose quorum
    /// is already full (a re-lease race — the duplicate re-execution is
    /// byte-identical, so dropping it is safe), or a holder that already
    /// voted here.
    Duplicate,
    /// The quorum is still open; the range stays out with other workers.
    Pending,
    /// Every vote agrees: the output is accepted, to be drained.
    Accepted,
    /// The votes diverge, or agree on an audited entry: the coordinator
    /// re-executes the range and adjudicates.
    Adjudicate,
}

#[derive(Debug, Default)]
struct Entry {
    /// Live leases: `(holder, deadline_ms)`, in claim order.
    leases: Vec<(u64, u64)>,
    /// Votes awaiting a decision, grouped by digest in delivery order.
    votes: Vec<Candidate>,
    /// Whether the coordinator re-executes the range before accepting
    /// it (a spot check).
    audit: bool,
    /// Decided; the output stays in `accepted` until drained.
    done: bool,
    accepted: Option<RangeOutput>,
}

impl Entry {
    fn holds(&self, holder: u64) -> bool {
        self.leases.iter().any(|&(h, _)| h == holder)
    }

    fn voted(&self, holder: u64) -> bool {
        self.votes.iter().any(|c| c.holders.contains(&holder))
    }

    fn ballots(&self) -> usize {
        self.votes.iter().map(|c| c.holders.len()).sum()
    }
}

/// The ledger. Index order is fold order; the table never reorders
/// entries (ordered `Vec`, not a hash container — the fold depends on
/// it). The default is an empty ledger: no work, so all done.
#[derive(Debug, Default)]
pub struct LeaseTable {
    entries: Vec<Entry>,
    timeout_ms: u64,
    redundancy: usize,
    /// Entries decided so far.
    decided: usize,
    /// Entries drained so far — always a prefix.
    drained: usize,
}

impl LeaseTable {
    /// A ledger of `len` open entries whose leases expire `timeout_ms`
    /// after claim or renewal, each decided by `redundancy` distinct
    /// holders' votes. The entries `audit` picks are re-executed by the
    /// coordinator before they are accepted.
    #[must_use]
    pub fn open(
        len: usize,
        timeout_ms: u64,
        redundancy: u32,
        audit: impl Fn(usize) -> bool,
    ) -> Self {
        let entry = |index| Entry {
            audit: audit(index),
            ..Entry::default()
        };
        Self {
            entries: (0..len).map(entry).collect(),
            timeout_ms: timeout_ms.max(1),
            redundancy: redundancy.max(1) as usize,
            ..Self::default()
        }
    }

    /// True when every entry is decided.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.decided == self.entries.len()
    }

    /// Claim the lowest-indexed entry that still needs an execution
    /// `holder` can provide: undecided, not already voted on or leased by
    /// `holder`, and with live leases plus votes below the redundancy.
    /// Expired leases are pruned on the way. Returns the claimed index,
    /// or `None` when nothing is claimable by this holder.
    pub fn claim(&mut self, holder: u64, now_ms: u64) -> Option<usize> {
        let deadline_ms = now_ms.saturating_add(self.timeout_ms);
        for (index, entry) in self.entries.iter_mut().enumerate() {
            if entry.done || entry.voted(holder) {
                continue;
            }
            entry.leases.retain(|&(_, deadline)| deadline >= now_ms);
            if entry.holds(holder) {
                continue;
            }
            if entry.leases.len() + entry.ballots() < self.redundancy {
                entry.leases.push((holder, deadline_ms));
                return Some(index);
            }
        }
        None
    }

    /// Extend `holder`'s lease on `index` (a heartbeat landed). Returns
    /// false when the entry is no longer leased to `holder` — it
    /// expired and was pruned by a re-claim, or was decided.
    pub fn renew(&mut self, index: usize, holder: u64, now_ms: u64) -> bool {
        let deadline_ms = now_ms.saturating_add(self.timeout_ms);
        let entry = self.entries.get_mut(index);
        let lease = entry.and_then(|e| e.leases.iter_mut().find(|(h, _)| *h == holder));
        lease.map(|lease| lease.1 = deadline_ms).is_some()
    }

    /// Drop every lease `holder` still holds — its connection died.
    /// Votes it already cast stand (the results were delivered), and
    /// decided entries stay decided. Returns how many leases were
    /// released.
    pub fn release_holder(&mut self, holder: u64) -> usize {
        let mut released = 0;
        for entry in &mut self.entries {
            let before = entry.leases.len();
            entry.leases.retain(|&(h, _)| h != holder);
            released += before - entry.leases.len();
        }
        released
    }

    /// Record `holder`'s result for `index`, whose content digest is
    /// `digest`, converting its lease into a vote. The first output
    /// delivered with a digest is the one kept for it.
    pub fn vote(&mut self, index: usize, holder: u64, digest: u64, output: RangeOutput) -> Vote {
        let need = self.redundancy;
        let Some(entry) = self.entries.get_mut(index) else {
            return Vote::Duplicate;
        };
        if entry.done || entry.voted(holder) || entry.ballots() >= need {
            return Vote::Duplicate;
        }
        entry.leases.retain(|&(h, _)| h != holder);
        match entry.votes.iter_mut().find(|c| c.digest == digest) {
            Some(c) => c.holders.push(holder),
            None => entry.votes.push(Candidate {
                digest,
                holders: vec![holder],
                output,
            }),
        }
        if entry.ballots() < need {
            return Vote::Pending;
        }
        if entry.audit || entry.votes.len() > 1 {
            return Vote::Adjudicate;
        }
        if let Some(agreed) = entry.votes.pop() {
            self.accept(index, agreed.output);
        }
        Vote::Accepted
    }

    /// Decide `index` on the coordinator's own re-execution: `output`,
    /// whose digest is `truth`, is accepted, and every holder that voted
    /// another digest is disqualified. Returns those holders with the
    /// digests they voted. An entry decided meanwhile (its quorum formed
    /// again after a disqualification) keeps its output and names no one.
    pub fn adjudicate(&mut self, index: usize, truth: u64, output: RangeOutput) -> Vec<(u64, u64)> {
        let Some(entry) = self.entries.get(index).filter(|e| !e.done) else {
            return Vec::new();
        };
        let mut liars = Vec::new();
        for c in entry.votes.iter().filter(|c| c.digest != truth) {
            liars.extend(c.holders.iter().map(|&holder| (holder, c.digest)));
        }
        self.accept(index, output);
        for &(holder, _) in &liars {
            self.disqualify(holder);
        }
        liars
    }

    /// Quarantine `holder`: drop its leases *and* its votes from every
    /// undecided entry, reopening those entries for other workers.
    /// Returns how many votes were voided.
    pub fn disqualify(&mut self, holder: u64) -> usize {
        let mut voided = 0;
        for entry in &mut self.entries {
            entry.leases.retain(|&(h, _)| h != holder);
            let before = entry.ballots();
            for c in &mut entry.votes {
                c.holders.retain(|&h| h != holder);
            }
            entry.votes.retain(|c| !c.holders.is_empty());
            voided += before - entry.ballots();
        }
        voided
    }

    /// Hand over accepted outputs in lease order, each once: every entry
    /// from the first not yet drained up to the first undecided one.
    pub fn drain(&mut self) -> impl Iterator<Item = (usize, RangeOutput)> + '_ {
        std::iter::from_fn(|| {
            let output = self.entries.get_mut(self.drained)?.accepted.take()?;
            self.drained += 1;
            Some((self.drained - 1, output))
        })
    }

    /// Mark `index` decided with `output`: its leases and votes go.
    fn accept(&mut self, index: usize, output: RangeOutput) {
        if let Some(entry) = self.entries.get_mut(index).filter(|e| !e.done) {
            *entry = Entry {
                done: true,
                accepted: Some(output),
                ..Entry::default()
            };
            self.decided += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LeaseTable {
        /// Entry `index`'s live leases, `(holder, deadline_ms)` in claim
        /// order.
        pub(crate) fn leases(&self, index: usize) -> &[(u64, u64)] {
            self.entries.get(index).map_or(&[], |e| &e.leases)
        }

        /// Whether entry `index` is decided.
        pub(crate) fn is_decided(&self, index: usize) -> bool {
            self.entries.get(index).is_some_and(|e| e.done)
        }
    }

    /// A ledger of `len` entries under a 1 s timeout, none audited.
    fn ledger(len: usize, redundancy: u32) -> LeaseTable {
        LeaseTable::open(len, 1_000, redundancy, |_| false)
    }

    /// A vote's output: the ledger compares digests, never outputs.
    fn out() -> RangeOutput {
        RangeOutput::Guided(Vec::new())
    }

    fn drained(t: &mut LeaseTable) -> Vec<usize> {
        t.drain().map(|(index, _)| index).collect()
    }

    #[test]
    fn claims_hand_out_entries_in_index_order() {
        let mut t = ledger(3, 1);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(1));
        assert_eq!(t.claim(1, 0), Some(2));
        assert_eq!(t.claim(3, 0), None, "all leased, none expired");
    }

    #[test]
    fn expired_leases_are_reclaimable_and_renewal_extends_them() {
        let mut t = ledger(1, 1);
        assert_eq!(t.claim(1, 0), Some(0));
        // Before the deadline the lease holds…
        assert_eq!(t.claim(2, 500), None);
        // …a heartbeat extends it past the original deadline…
        assert!(t.renew(0, 1, 900));
        assert_eq!(t.claim(2, 1_500), None);
        // …and only silence lets another worker take it over.
        assert_eq!(t.claim(2, 2_000), Some(0));
        // The usurped original holder can no longer renew.
        assert!(!t.renew(0, 1, 2_000));
    }

    #[test]
    fn release_returns_a_dead_holders_leases_only() {
        let mut t = ledger(3, 1);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(1));
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Accepted);
        assert_eq!(t.release_holder(1), 0, "decided entries stay decided");
        assert_eq!(t.release_holder(2), 1);
        assert!(t.leases(1).is_empty());
        assert!(t.is_decided(0));
        assert_eq!(
            t.claim(3, 0),
            Some(1),
            "the released entry is claimable again"
        );
    }

    #[test]
    fn duplicate_completions_fold_once() {
        let mut t = ledger(2, 1);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Accepted, "first result folds");
        assert_eq!(
            t.vote(0, 2, 7, out()),
            Vote::Duplicate,
            "the re-leased duplicate is dropped"
        );
        assert_eq!(
            t.vote(7, 1, 7, out()),
            Vote::Duplicate,
            "unknown indices are refused"
        );
        assert!(!t.all_done());
        assert_eq!(t.vote(1, 2, 7, out()), Vote::Accepted);
        assert!(t.all_done());
        assert_eq!(drained(&mut t), [0, 1]);
        assert!(drained(&mut t).is_empty(), "each output is drained once");
    }

    #[test]
    fn empty_tables_are_born_done() {
        let mut t = ledger(0, 1);
        assert!(t.all_done());
        assert!(drained(&mut t).is_empty());
        assert!(LeaseTable::default().all_done());
    }

    #[test]
    fn redundant_claims_go_to_distinct_holders() {
        let mut t = ledger(2, 2);
        // Holder 1 gets entry 0, then cannot double-lease it: its
        // second claim falls through to entry 1.
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(1, 0), Some(1));
        // Entry 0 still needs a second distinct worker.
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.claim(3, 0), Some(1));
        assert_eq!(t.claim(4, 0), None, "both entries fully leased");
    }

    #[test]
    fn votes_exclude_their_holder_and_count_distinctly() {
        let mut t = ledger(1, 2);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(
            t.vote(0, 1, 7, out()),
            Vote::Pending,
            "delivery converts the lease into a vote"
        );
        assert_eq!(
            t.vote(0, 1, 7, out()),
            Vote::Duplicate,
            "one vote per holder per entry"
        );
        // The voter cannot re-claim its own entry even though a lease
        // slot is free…
        assert_eq!(t.claim(1, 0), None);
        // …but a distinct worker can, and completes the quorum.
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.vote(0, 2, 7, out()), Vote::Accepted);
        assert_eq!(t.vote(0, 3, 7, out()), Vote::Duplicate);
    }

    #[test]
    fn disqualification_voids_votes_and_reopens_entries() {
        let mut t = ledger(2, 2);
        assert_eq!(t.claim(66, 0), Some(0));
        assert_eq!(t.vote(0, 66, 6, out()), Vote::Pending);
        assert_eq!(t.claim(66, 0), Some(1));
        // Entry 0: one byzantine vote; entry 1: a byzantine lease.
        assert_eq!(t.disqualify(66), 1);
        // Both entries are fully reopened to honest workers.
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Pending);
        assert_eq!(t.vote(0, 2, 7, out()), Vote::Accepted);
        // Decided entries keep their votes when a holder is disqualified.
        assert_eq!(t.disqualify(1), 0);
        assert!(t.is_decided(0));
    }

    #[test]
    fn expired_leases_do_not_block_redundant_quorums() {
        let mut t = ledger(1, 2);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.claim(3, 0), None, "two live leases fill the quorum");
        // Holder 2 goes silent; past its deadline a third worker claims.
        assert_eq!(t.claim(3, 2_000), Some(0));
        // The expired holder's late result still counts as a vote —
        // byte-identical by the RNG law — and the quorum closes.
        assert_eq!(t.vote(0, 2, 7, out()), Vote::Pending);
        assert_eq!(t.vote(0, 3, 7, out()), Vote::Accepted);
        // Holder 1's result comes after the quorum: a duplicate.
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Duplicate);
    }

    /// A guided generation's results arrive in any order; the ledger
    /// hands them over as a contiguous prefix in lease order.
    #[test]
    fn drains_accepted_outputs_in_lease_order() {
        let mut t = ledger(3, 1);
        assert_eq!(t.vote(2, 1, 7, out()), Vote::Accepted);
        assert!(drained(&mut t).is_empty(), "entry 0 is still open");
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Accepted);
        assert_eq!(drained(&mut t), [0]);
        assert_eq!(t.vote(1, 1, 7, out()), Vote::Accepted);
        assert_eq!(drained(&mut t), [1, 2]);
    }

    /// An audited entry is adjudicated even when its votes agree; while
    /// it is, the full quorum turns further votes away, and once decided
    /// a late adjudication changes nothing.
    #[test]
    fn audited_entries_wait_for_the_coordinators_truth() {
        let mut t = LeaseTable::open(2, 1_000, 1, |index| index == 0);
        assert_eq!(t.vote(0, 1, 7, out()), Vote::Adjudicate);
        assert_eq!(t.vote(0, 2, 7, out()), Vote::Duplicate);
        assert_eq!(t.claim(3, 0), Some(1), "entry 0 is being adjudicated");
        assert!(
            t.adjudicate(0, 7, out()).is_empty(),
            "an honest vote is kept"
        );
        assert!(t.adjudicate(0, 8, out()).is_empty(), "decided once");
        assert_eq!(drained(&mut t), [0]);
    }
}
