//! The earliest-critical-time-first tentative schedule (§3.4 of the paper).
//!
//! RUA builds its output by tentatively inserting each job (with its
//! dependents) into an ECF-ordered list, resolving conflicts between the
//! critical-time order and the dependency order by *advancing* a dependent's
//! effective critical time (Figures 4 and 5 of the paper), and keeping the
//! insertion only if every entry can still finish by its effective critical
//! time.

use lfrt_sim::{JobId, SimTime, Ticks};

use crate::ops::OpsCounter;

/// One entry of the tentative schedule: a job with its (possibly advanced)
/// effective critical time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The scheduled job.
    pub job: JobId,
    /// The critical time used for ordering and feasibility — advanced below
    /// the job's own critical time when a dependent must precede a
    /// shorter-deadline successor.
    pub effective_critical_time: SimTime,
    /// The job's remaining execution time, copied from its view when it is
    /// inserted, so that the feasibility walk reads nothing but the entries.
    pub remaining: Ticks,
}

/// An ECF-ordered tentative schedule.
///
/// Lookup, insert, and remove are charged at their `O(log n)` textbook cost
/// through the caller's [`OpsCounter`], matching the paper's §3.6 cost
/// accounting.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TentativeSchedule {
    entries: Vec<Entry>,
}

impl Clone for TentativeSchedule {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
        }
    }

    /// Copies `source` into this schedule's own buffer: schedule construction
    /// takes its tentative copy once per examined job.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl TentativeSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, head (next to run) first.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The scheduled jobs, head first.
    pub fn jobs(&self) -> Vec<JobId> {
        self.entries.iter().map(|e| e.job).collect()
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the schedule, keeping its buffer.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Position of `job`, if scheduled.
    pub fn position(&self, job: JobId, ops: &mut OpsCounter) -> Option<usize> {
        ops.charge_log(self.entries.len());
        self.entries.iter().position(|e| e.job == job)
    }

    /// Where an entry with critical time `critical` goes in ECF order: the
    /// first index whose effective critical time is not earlier, so that it
    /// lands before equal-critical entries.
    pub fn ecf_position(&self, critical: SimTime) -> usize {
        self.entries
            .partition_point(|e| e.effective_critical_time < critical)
    }

    /// Inserts `entry` at the ECF position of its critical time but never at
    /// or after `limit` (the position of the already-inserted successor that
    /// depends on it). When the ECF position would violate the limit, the
    /// job is placed immediately before the successor with its effective
    /// critical time advanced to the successor's (the paper's Figure 4
    /// "Case 2"). Returns the insertion position.
    pub fn insert_before(
        &mut self,
        mut entry: Entry,
        limit: Option<usize>,
        ops: &mut OpsCounter,
    ) -> usize {
        ops.charge_log(self.entries.len());
        let critical = entry.effective_critical_time;
        let ecf_pos = self.ecf_position(critical);
        let pos = match limit {
            Some(lim) if ecf_pos > lim => {
                // Dependency order wins: advance the critical time.
                entry.effective_critical_time =
                    critical.min(self.entries[lim].effective_critical_time);
                lim
            }
            _ => ecf_pos,
        };
        self.entries.insert(pos, entry);
        pos
    }

    /// Inserts `entry` at `pos`, which the caller found with
    /// [`TentativeSchedule::ecf_position`] and has already paid for.
    pub(crate) fn insert_at(&mut self, pos: usize, entry: Entry) {
        self.entries.insert(pos, entry);
    }

    /// Removes the entry at `pos` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    pub fn remove(&mut self, pos: usize, ops: &mut OpsCounter) -> Entry {
        ops.charge_log(self.entries.len());
        self.entries.remove(pos)
    }

    /// Tests feasibility: walking the schedule head-to-tail and accumulating
    /// each entry's remaining execution time from `now`, every entry must
    /// finish at or before its effective critical time. Charges one
    /// operation per entry walked.
    pub fn is_feasible(&self, now: SimTime, ops: &mut OpsCounter) -> bool {
        let mut finish = now;
        for entry in &self.entries {
            ops.tick();
            finish += entry.remaining;
            if finish > entry.effective_critical_time {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(i: usize) -> JobId {
        JobId::new(i)
    }

    /// Job `i`, critical at `critical`, with `remaining` work left.
    fn entry(i: usize, critical: SimTime, remaining: Ticks) -> Entry {
        Entry {
            job: j(i),
            effective_critical_time: critical,
            remaining,
        }
    }

    #[test]
    fn ecf_order_maintained() {
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        s.insert_before(entry(1, 300, 10), None, &mut ops);
        s.insert_before(entry(2, 100, 10), None, &mut ops);
        s.insert_before(entry(3, 200, 10), None, &mut ops);
        assert_eq!(s.jobs(), vec![j(2), j(3), j(1)]);
    }

    #[test]
    fn tie_inserts_before_equal_entries() {
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        s.insert_before(entry(1, 100, 10), None, &mut ops);
        s.insert_before(entry(2, 100, 10), None, &mut ops);
        assert_eq!(s.jobs(), vec![j(2), j(1)]);
    }

    #[test]
    fn dependency_limit_advances_critical_time() {
        // Paper Figure 4, Case 2: dependent T2 (C=500) must precede T1
        // (C=200); T2 is inserted before T1 with C2 := C1 = 200.
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        let p1 = s.insert_before(entry(1, 200, 10), None, &mut ops);
        let p2 = s.insert_before(entry(2, 500, 10), Some(p1), &mut ops);
        assert_eq!(p2, 0);
        assert_eq!(s.jobs(), vec![j(2), j(1)]);
        assert_eq!(s.entries()[0].effective_critical_time, 200);
        assert_eq!(s.entries()[0].remaining, 10, "only the critical time moves");
    }

    #[test]
    fn dependency_limit_case_one_keeps_ecf_position() {
        // Case 1: C2 < C1 — ECF order already satisfies the dependency.
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        let p1 = s.insert_before(entry(1, 500, 10), None, &mut ops);
        let p2 = s.insert_before(entry(2, 200, 10), Some(p1), &mut ops);
        assert_eq!(p2, 0);
        assert_eq!(s.entries()[0].effective_critical_time, 200, "unchanged");
    }

    #[test]
    fn remove_and_position() {
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        s.insert_before(entry(1, 100, 10), None, &mut ops);
        s.insert_before(entry(2, 200, 10), None, &mut ops);
        assert_eq!(s.position(j(2), &mut ops), Some(1));
        let removed = s.remove(1, &mut ops);
        assert_eq!(removed.job, j(2));
        assert_eq!(s.position(j(2), &mut ops), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn feasibility_accumulates_remaining() {
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        s.insert_before(entry(1, 100, 100), None, &mut ops);
        s.insert_before(entry(2, 200, 100), None, &mut ops);
        assert!(s.is_feasible(0, &mut ops));
        assert!(!s.is_feasible(1, &mut ops), "the walk starts at `now`");
        // Tighten: second job's critical time now too early (cumulative
        // 200 > 150).
        let mut s2 = TentativeSchedule::new();
        s2.insert_before(entry(1, 100, 100), None, &mut ops);
        s2.insert_before(entry(2, 150, 100), None, &mut ops);
        assert!(!s2.is_feasible(0, &mut ops));
    }

    #[test]
    fn feasibility_charges_one_operation_per_entry_walked() {
        let mut s = TentativeSchedule::new();
        let mut ops = OpsCounter::new();
        s.insert_before(entry(1, 100, 10), None, &mut ops);
        s.insert_before(entry(2, 105, 10), None, &mut ops);
        s.insert_before(entry(3, 300, 10), None, &mut ops);
        let before = ops.total();
        assert!(!s.is_feasible(90, &mut ops));
        assert_eq!(ops.total() - before, 2, "the walk stops at the first miss");
    }

    #[test]
    fn empty_schedule_is_feasible() {
        assert!(TentativeSchedule::new().is_feasible(0, &mut OpsCounter::new()));
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut ops = OpsCounter::new();
        let mut source = TentativeSchedule::new();
        source.insert_before(entry(1, 100, 10), None, &mut ops);
        let mut copy = TentativeSchedule::new();
        for i in 0..8 {
            copy.insert_before(entry(i, 100, 10), None, &mut ops);
        }
        let buffer = copy.entries().as_ptr();
        copy.clone_from(&source);
        assert_eq!(copy, source);
        assert_eq!(copy.entries().as_ptr(), buffer);
        copy.clear();
        assert!(copy.is_empty());
    }
}
