use crossbeam::utils::Backoff;

use crate::stats::OpStats;
use crate::sync::{AtomicU64, Ordering};

/// A lock-free atomic multi-cell snapshot.
///
/// The paper's §7 names "the snapshot abstraction" as future work: reading a
/// *consistent* view of several shared cells without locks. This is the
/// classic double-collect construction: each cell packs a 32-bit value with
/// a 32-bit sequence number into one CAS word; [`AtomicSnapshot::scan`]
/// collects all cells twice and succeeds when no sequence number moved —
/// otherwise it retries, and the retry is exactly the interference that the
/// paper's Theorem 2 bounds for scheduled tasks.
///
/// Double-collect scans are lock-free (not wait-free): a scan can starve
/// only while writers keep committing, and some operation always completes.
///
/// # Examples
///
/// ```
/// use lfrt_lockfree::AtomicSnapshot;
///
/// let snap = AtomicSnapshot::new(3);
/// snap.write(0, 10);
/// snap.write(2, 30);
/// assert_eq!(snap.scan(), vec![10, 0, 30]);
/// ```
#[derive(Debug)]
pub struct AtomicSnapshot {
    cells: Vec<AtomicU64>,
    stats: OpStats,
}

fn pack(value: u32, seq: u32) -> u64 {
    (u64::from(seq) << 32) | u64::from(value)
}

fn unpack(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

impl AtomicSnapshot {
    /// Creates `cells` zeroed cells.
    pub fn new(cells: usize) -> Self {
        Self {
            cells: (0..cells).map(|_| AtomicU64::new(0)).collect(),
            stats: OpStats::new(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the snapshot has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomically replaces cell `index` with `value`, bumping its sequence
    /// number so in-flight scans observe the interference.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn write(&self, index: usize, value: u32) {
        let backoff = Backoff::new();
        let cell = &self.cells[index];
        let mut current = cell.load(Ordering::Acquire);
        loop {
            let (_, seq) = unpack(current);
            let next = pack(value, seq.wrapping_add(1));
            // Relaxed failure ordering: the observed word is only unpacked
            // for its sequence number and retried, never dereferenced, so
            // no acquire edge is needed (ordlint ORD005; pinned by
            // tests/ordering_pins.rs).
            match cell.compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => {
                    current = actual;
                    backoff.spin();
                }
            }
        }
    }

    /// Reads one cell (always consistent by itself).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn read(&self, index: usize) -> u32 {
        unpack(self.cells[index].load(Ordering::Acquire)).0
    }

    /// Returns a *consistent* snapshot of all cells: a vector of values that
    /// all coexisted at one instant. Retries while writers interfere; each
    /// retry is recorded in [`AtomicSnapshot::stats`].
    pub fn scan(&self) -> Vec<u32> {
        let backoff = Backoff::new();
        loop {
            self.stats.attempt();
            let first: Vec<u64> = self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect();
            let second: Vec<u64> = self
                .cells
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect();
            if first == second {
                return first.into_iter().map(|w| unpack(w).0).collect();
            }
            self.stats.retry();
            backoff.spin();
        }
    }

    /// The attempt/retry counters of scans on this snapshot.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_threaded_scan_reflects_writes() {
        let snap = AtomicSnapshot::new(4);
        snap.write(1, 11);
        snap.write(3, 33);
        assert_eq!(snap.scan(), vec![0, 11, 0, 33]);
        assert_eq!(snap.read(3), 33);
        assert_eq!(snap.stats().retries(), 0);
    }

    #[test]
    fn empty_snapshot_scans_to_empty() {
        let snap = AtomicSnapshot::new(0);
        assert!(snap.is_empty());
        assert_eq!(snap.scan(), Vec::<u32>::new());
    }

    #[test]
    fn packing_round_trips() {
        for (v, s) in [(0u32, 0u32), (u32::MAX, 1), (42, u32::MAX)] {
            assert_eq!(unpack(pack(v, s)), (v, s));
        }
    }

    #[test]
    fn concurrent_scans_are_consistent() {
        // Writers keep all cells equal (they sweep the same value across
        // every cell); a consistent scan must never observe two cells more
        // than one "sweep" apart.
        const CELLS: usize = 4;
        let snap = Arc::new(AtomicSnapshot::new(CELLS));
        let writer = {
            let snap = Arc::clone(&snap);
            std::thread::spawn(move || {
                for round in 1..=8_000u32 {
                    for i in 0..CELLS {
                        snap.write(i, round);
                    }
                }
            })
        };
        let scanners: Vec<_> = (0..3)
            .map(|_| {
                let snap = Arc::clone(&snap);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        let view = snap.scan();
                        let min = *view.iter().min().expect("non-empty");
                        let max = *view.iter().max().expect("non-empty");
                        // Within one sweep, later cells may lag the earlier
                        // ones by exactly one round — never more, and never
                        // a torn mix of distant rounds.
                        assert!(max - min <= 1, "inconsistent snapshot: {view:?}");
                    }
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        for s in scanners {
            s.join().expect("scanner panicked");
        }
    }
}
