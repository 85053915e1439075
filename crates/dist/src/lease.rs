//! The coordinator's lease table: who holds which work range, until
//! when — and, under `--redundancy K`, who has *voted* on it.
//!
//! One table entry per leasable unit (a campaign chunk or a guided slot
//! sub-range), in fold order. Claims hand out the **lowest-indexed**
//! entry that still needs executions — so results arrive roughly in
//! fold order and the coordinator's contiguous-prefix fold drains
//! promptly. An entry needs executions while it is not done and its
//! unexpired leases plus recorded votes number fewer than the
//! redundancy; a holder never gets the same entry twice (its vote, or
//! its outstanding lease, excludes it), which is what makes K votes K
//! *distinct* workers. Expiry is passive: nothing scans the table on a
//! timer; an expired lease is pruned at the next claim. The coordinator's
//! state machine closes a silent worker's connection at the first `Tick`
//! a lease timeout after its last frame, and that connection's `Closed`
//! returns its leases. Re-leasing is semantically free — the per-range
//! RNG law makes the re-execution byte-identical (RELIABILITY.md §1,
//! DISTRIBUTED.md).
//!
//! Time is an explicit `now_ms` parameter rather than an ambient clock
//! read, so expiry logic is unit-testable with a fake clock and the
//! table itself stays deterministic in its inputs.

/// A compatibility view of one entry's lifecycle, for tests and
/// introspection: `Pending → Leased → Done`. Under redundancy an entry
/// can hold several live leases; `Leased` reports the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No live lease and not done.
    Pending,
    /// Held by at least one worker; the first lease shown.
    Leased {
        /// The holder's worker id.
        holder: u64,
        /// Expiry instant, in the coordinator's monotone milliseconds.
        deadline_ms: u64,
    },
    /// Result received, verified, and folded (or parked for folding).
    Done,
}

/// What recording a vote did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteOutcome {
    /// The vote counts; `votes` distinct holders have now delivered.
    Recorded {
        /// Distinct holders that have voted on this entry.
        votes: u32,
    },
    /// Dropped: unknown index, an already-done entry (a re-lease race —
    /// the duplicate re-execution is byte-identical, so dropping it is
    /// safe), or a holder that already voted here.
    Duplicate,
}

#[derive(Debug, Clone, Default)]
struct Slot {
    done: bool,
    /// Live leases: `(holder, deadline_ms)`, in claim order.
    leases: Vec<(u64, u64)>,
    /// Holders whose results are recorded, awaiting quorum.
    voters: Vec<u64>,
}

impl Slot {
    fn holds(&self, holder: u64) -> bool {
        self.leases.iter().any(|&(h, _)| h == holder)
    }

    fn voted(&self, holder: u64) -> bool {
        self.voters.contains(&holder)
    }
}

/// The lease table. Index order is fold order; the table never reorders
/// entries (ordered `Vec`, not a hash container — the fold depends on
/// it).
#[derive(Debug)]
pub struct LeaseTable {
    slots: Vec<Slot>,
    timeout_ms: u64,
    redundancy: u32,
    done: usize,
}

impl LeaseTable {
    /// A table of `len` pending entries whose leases expire `timeout_ms`
    /// after claim/renewal, each needing one execution (`redundancy 1`).
    #[must_use]
    pub fn new(len: usize, timeout_ms: u64) -> Self {
        Self::with_redundancy(len, timeout_ms, 1)
    }

    /// As [`LeaseTable::new`], but each entry needs `redundancy`
    /// distinct holders' results before it can complete.
    #[must_use]
    pub fn with_redundancy(len: usize, timeout_ms: u64, redundancy: u32) -> Self {
        Self {
            slots: vec![Slot::default(); len],
            timeout_ms: timeout_ms.max(1),
            redundancy: redundancy.max(1),
            done: 0,
        }
    }

    /// A fresh table of `len` pending entries under this table's
    /// timeout and redundancy — what each guided generation starts on.
    #[must_use]
    pub fn renewed(&self, len: usize) -> Self {
        Self::with_redundancy(len, self.timeout_ms, self.redundancy)
    }

    /// Total entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table has no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries completed so far.
    #[must_use]
    pub fn done(&self) -> usize {
        self.done
    }

    /// True when every entry is done.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.done == self.slots.len()
    }

    /// Claim the lowest-indexed entry that still needs an execution
    /// `holder` can provide: not done, not already voted on or leased by
    /// `holder`, and with live leases plus votes below the redundancy.
    /// Expired leases are pruned on the way. Returns the claimed index,
    /// or `None` when nothing is claimable by this holder.
    pub fn claim(&mut self, holder: u64, now_ms: u64) -> Option<usize> {
        let deadline_ms = now_ms.saturating_add(self.timeout_ms);
        let need = self.redundancy as usize;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.done || slot.voted(holder) {
                continue;
            }
            slot.leases.retain(|&(_, deadline)| deadline >= now_ms);
            if slot.holds(holder) {
                continue;
            }
            if slot.leases.len() + slot.voters.len() < need {
                slot.leases.push((holder, deadline_ms));
                return Some(index);
            }
        }
        None
    }

    /// Extend `holder`'s lease on `index` (a heartbeat landed). Returns
    /// false when the entry is no longer leased to `holder` — it
    /// expired and was pruned by a re-claim, or completed.
    pub fn renew(&mut self, index: usize, holder: u64, now_ms: u64) -> bool {
        let deadline_ms = now_ms.saturating_add(self.timeout_ms);
        let Some(slot) = self.slots.get_mut(index) else {
            return false;
        };
        if slot.done {
            return false;
        }
        for lease in &mut slot.leases {
            if lease.0 == holder {
                lease.1 = deadline_ms;
                return true;
            }
        }
        false
    }

    /// Drop every lease `holder` still holds — its connection died.
    /// Votes it already cast stand (the results were delivered), and
    /// completed entries stay done. Returns how many leases were
    /// released.
    pub fn release_holder(&mut self, holder: u64) -> usize {
        let mut released = 0;
        for slot in &mut self.slots {
            let before = slot.leases.len();
            slot.leases.retain(|&(h, _)| h != holder);
            released += before - slot.leases.len();
        }
        released
    }

    /// Record that `holder` delivered a result for `index`, converting
    /// its lease into a vote. The verification layer decides when the
    /// votes constitute a quorum; the table only guarantees
    /// distinctness.
    pub fn record_vote(&mut self, index: usize, holder: u64) -> VoteOutcome {
        let Some(slot) = self.slots.get_mut(index) else {
            return VoteOutcome::Duplicate;
        };
        if slot.done || slot.voted(holder) {
            return VoteOutcome::Duplicate;
        }
        slot.leases.retain(|&(h, _)| h != holder);
        slot.voters.push(holder);
        VoteOutcome::Recorded {
            votes: slot.voters.len() as u32,
        }
    }

    /// Quarantine `holder`: drop its leases *and* its votes from every
    /// entry that has not completed, reopening those entries for other
    /// workers. Returns how many votes were voided.
    pub fn disqualify(&mut self, holder: u64) -> usize {
        let mut voided = 0;
        for slot in &mut self.slots {
            slot.leases.retain(|&(h, _)| h != holder);
            if slot.done {
                continue;
            }
            let before = slot.voters.len();
            slot.voters.retain(|&h| h != holder);
            voided += before - slot.voters.len();
        }
        voided
    }

    /// Mark `index` done. Returns true when the entry was **newly**
    /// completed — false for an unknown index or a duplicate result
    /// (e.g. an expired lease whose original holder also finished; the
    /// re-execution is byte-identical, so the duplicate is simply
    /// dropped).
    pub fn complete(&mut self, index: usize) -> bool {
        match self.slots.get_mut(index) {
            Some(slot) if !slot.done => {
                slot.done = true;
                slot.leases.clear();
                self.done += 1;
                true
            }
            _ => false,
        }
    }

    /// The compatibility state of entry `index`, if it exists.
    #[must_use]
    pub fn state(&self, index: usize) -> Option<SlotState> {
        let slot = self.slots.get(index)?;
        if slot.done {
            return Some(SlotState::Done);
        }
        match slot.leases.first() {
            Some(&(holder, deadline_ms)) => Some(SlotState::Leased {
                holder,
                deadline_ms,
            }),
            None => Some(SlotState::Pending),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_hand_out_entries_in_index_order() {
        let mut t = LeaseTable::new(3, 1_000);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(1));
        assert_eq!(t.claim(1, 0), Some(2));
        assert_eq!(t.claim(3, 0), None, "all leased, none expired");
    }

    #[test]
    fn expired_leases_are_reclaimable_and_renewal_extends_them() {
        let mut t = LeaseTable::new(1, 1_000);
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
        let mut t = LeaseTable::new(3, 1_000);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(1));
        assert!(t.complete(0));
        assert_eq!(t.release_holder(1), 0, "done entries stay done");
        assert_eq!(t.release_holder(2), 1);
        assert_eq!(t.state(1), Some(SlotState::Pending));
        assert_eq!(t.state(0), Some(SlotState::Done));
    }

    #[test]
    fn duplicate_completions_fold_once() {
        let mut t = LeaseTable::new(2, 1_000);
        assert_eq!(t.claim(1, 0), Some(0));
        assert!(t.complete(0), "first result folds");
        assert!(!t.complete(0), "the re-leased duplicate is dropped");
        assert!(!t.complete(7), "unknown indices are refused");
        assert_eq!(t.done(), 1);
        assert!(!t.all_done());
        assert!(t.complete(1));
        assert!(t.all_done());
    }

    #[test]
    fn empty_tables_are_born_done() {
        let t = LeaseTable::new(0, 1_000);
        assert!(t.is_empty());
        assert!(t.all_done());
    }

    #[test]
    fn redundant_claims_go_to_distinct_holders() {
        let mut t = LeaseTable::with_redundancy(2, 1_000, 2);
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
        let mut t = LeaseTable::with_redundancy(1, 1_000, 2);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(
            t.record_vote(0, 1),
            VoteOutcome::Recorded { votes: 1 },
            "delivery converts the lease into a vote"
        );
        assert_eq!(
            t.record_vote(0, 1),
            VoteOutcome::Duplicate,
            "one vote per holder per entry"
        );
        // The voter cannot re-claim its own entry even though a lease
        // slot is free…
        assert_eq!(t.claim(1, 0), None);
        // …but a distinct worker can, and completes the quorum.
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.record_vote(0, 2), VoteOutcome::Recorded { votes: 2 });
        assert!(t.complete(0));
        assert_eq!(t.record_vote(0, 3), VoteOutcome::Duplicate);
    }

    #[test]
    fn disqualification_voids_votes_and_reopens_entries() {
        let mut t = LeaseTable::with_redundancy(2, 1_000, 2);
        assert_eq!(t.claim(66, 0), Some(0));
        assert_eq!(t.record_vote(0, 66), VoteOutcome::Recorded { votes: 1 });
        assert_eq!(t.claim(66, 0), Some(1));
        // Entry 0: one byzantine vote; entry 1: a byzantine lease.
        assert_eq!(t.disqualify(66), 1);
        // Both entries are fully reopened to honest workers.
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.record_vote(0, 1), VoteOutcome::Recorded { votes: 1 });
        assert_eq!(t.record_vote(0, 2), VoteOutcome::Recorded { votes: 2 });
        // Done entries keep their votes when a holder is disqualified.
        assert!(t.complete(0));
        assert_eq!(t.disqualify(1), 0);
        assert_eq!(t.state(0), Some(SlotState::Done));
    }

    #[test]
    fn expired_leases_do_not_block_redundant_quorums() {
        let mut t = LeaseTable::with_redundancy(1, 1_000, 2);
        assert_eq!(t.claim(1, 0), Some(0));
        assert_eq!(t.claim(2, 0), Some(0));
        assert_eq!(t.claim(3, 0), None, "two live leases fill the quorum");
        // Holder 2 goes silent; past its deadline a third worker claims.
        assert_eq!(t.claim(3, 2_000), Some(0));
        // The expired holder's late result still counts as a vote —
        // byte-identical by the RNG law — and the quorum closes.
        assert_eq!(t.record_vote(0, 2), VoteOutcome::Recorded { votes: 1 });
        assert_eq!(t.record_vote(0, 3), VoteOutcome::Recorded { votes: 2 });
    }
}
