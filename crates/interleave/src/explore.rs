//! Schedule exploration: exhaustive DFS and bounded-preemption search.

use std::str::FromStr;

use crate::runtime::{
    decision_thread, run_once, MemoryMode, Outcome, Plan, FLUSH_BASE, REORDER_BASE,
};
use crate::schedule::Schedule;

/// Exploration settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Name of the scenario; used for failing-schedule artifacts
    /// (`$INTERLEAVE_FAILURE_DIR/<name>.schedule`) and error messages.
    pub name: &'static str,
    /// Maximum preemptions per schedule, CHESS-style (Musuvathi & Qadeer):
    /// a preemption is switching away from a thread that could have
    /// continued. `None` explores exhaustively. Small bounds (2–3) catch
    /// almost all known concurrency bugs at a fraction of the cost.
    ///
    /// Under a store-buffer memory mode a flush step taken while the
    /// last-run thread is still enabled counts as a preemption too, so
    /// bounded search under-explores weak behaviors — prefer exhaustive
    /// exploration (with tight scenarios) for weak-memory runs.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored schedules; exceeding it panics so an
    /// accidentally unbounded test fails loudly instead of hanging CI.
    pub max_schedules: usize,
    /// Per-execution decision budget; schedules that exceed it (unfair
    /// spinning) are pruned, not failed.
    pub max_steps: usize,
    /// The memory model executions run under; [`MemoryMode::Sc`] unless the
    /// config asks for store buffering.
    pub memory: MemoryMode,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            name: "interleave",
            preemption_bound: None,
            max_schedules: 500_000,
            max_steps: 10_000,
            memory: MemoryMode::Sc,
        }
    }
}

impl Config {
    /// An exhaustive-exploration config with the given scenario name.
    pub fn exhaustive(name: &'static str) -> Self {
        Self {
            name,
            ..Self::default()
        }
    }

    /// A bounded-preemption config: explores every schedule with at most
    /// `bound` preemptions.
    pub fn preemptions(name: &'static str, bound: usize) -> Self {
        Self {
            name,
            preemption_bound: Some(bound),
            ..Self::default()
        }
    }

    /// An exhaustive config running under [`MemoryMode::StoreBuffer`] with
    /// the default buffer depth: `Relaxed`/`Release` stores made through the
    /// `_ord` operations commit at explicit flush steps the explorer
    /// enumerates alongside thread steps.
    pub fn store_buffer(name: &'static str) -> Self {
        Self {
            name,
            memory: MemoryMode::StoreBuffer {
                bound: MemoryMode::DEFAULT_BOUND,
            },
            ..Self::default()
        }
    }

    /// An exhaustive config running under [`MemoryMode::Relaxed`]
    /// (ARM/POWER-class) with the default buffer depth and stale-value
    /// window: on top of the store-buffer flush steps, `Relaxed` loads may
    /// be granted *stale-read* decisions (ids ≥ [`crate::REORDER_BASE`])
    /// returning values up to [`MemoryMode::DEFAULT_WINDOW`] versions old —
    /// the load–load/load–store reorderings TSO forbids.
    pub fn relaxed(name: &'static str) -> Self {
        Self {
            name,
            memory: MemoryMode::Relaxed {
                bound: MemoryMode::DEFAULT_BOUND,
                window: MemoryMode::DEFAULT_WINDOW,
            },
            ..Self::default()
        }
    }

    /// [`Config::relaxed`] for explorations of the faithful structures: the
    /// nightly CI job sets `INTERLEAVE_EXTENDED=1` to deepen the store buffer
    /// to 6 and the stale window to 3 (more stale-read branching per load);
    /// per-PR runs keep the defaults so the suites stay fast.
    pub fn relaxed_extended(name: &'static str) -> Self {
        let mut config = Self::relaxed(name);
        if std::env::var_os("INTERLEAVE_EXTENDED").is_some() {
            config.memory = MemoryMode::Relaxed {
                bound: 6,
                window: 3,
            };
        }
        config
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread or post-check panicked.
    Panic,
    /// Every unfinished thread was spin-parked with nobody to unblock it.
    Livelock,
}

/// A failing interleaving: replay it with [`replay`] or
/// `INTERLEAVE_SCHEDULE=<schedule> cargo test <name>` patterns built on it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The exact interleaving that failed.
    pub schedule: Schedule,
    /// The panic message, or a livelock description.
    pub message: String,
    /// Panic or livelock.
    pub kind: FailureKind,
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Scenario name from the [`Config`].
    pub name: &'static str,
    /// Number of complete schedules executed.
    pub schedules: usize,
    /// Schedules cut off by the step budget (unfair spinning).
    pub pruned: usize,
    /// The first failing schedule, if any. Exploration stops at the first
    /// failure.
    pub failure: Option<Failure>,
}

impl Report {
    /// `[interleave] scenario schedules pruned` on stderr: a pure function of
    /// the scenario, so CI diffs a one-CPU run's lines against an unpinned one.
    fn print_counts(&self) {
        eprintln!(
            "[interleave] {} {} {}",
            self.name, self.schedules, self.pruned
        );
    }

    /// Asserts the exploration found no failure.
    ///
    /// On failure, writes `<name>.schedule` under `$INTERLEAVE_FAILURE_DIR`
    /// (when set — CI uploads that directory as an artifact) and panics with
    /// the replayable schedule string.
    pub fn assert_ok(&self) {
        self.print_counts();
        if let Some(failure) = &self.failure {
            persist_failure(self.name, failure);
            panic!(
                "scenario '{}' failed after {} schedules ({:?}): {}\n\
                 replay with schedule string: {}",
                self.name, self.schedules, failure.kind, failure.message, failure.schedule
            );
        }
    }

    /// Asserts the exploration *did* find a failure (for seeded-bug models)
    /// and returns it.
    pub fn assert_fails(&self) -> &Failure {
        self.print_counts();
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "scenario '{}' unexpectedly passed all {} schedules ({} pruned)",
                self.name, self.schedules, self.pruned
            )
        })
    }
}

fn persist_failure(name: &str, failure: &Failure) {
    let Ok(dir) = std::env::var("INTERLEAVE_FAILURE_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let _ = std::fs::create_dir_all(&dir);
    let body = format!(
        "scenario: {name}\nkind: {:?}\nschedule: {}\nmessage: {}\n",
        failure.kind, failure.schedule, failure.message
    );
    let _ = std::fs::write(format!("{dir}/{name}.schedule"), body);
}

/// One decision point on the DFS stack.
struct Frame {
    /// Enabled threads at this decision (sorted).
    enabled: Vec<usize>,
    /// Visit order over indices into `enabled`: the default continuation
    /// first, then the remaining indices ascending. The first child taken
    /// need not be index 0 (the default prefers the last-run thread), so
    /// siblings must be enumerated as a permutation, not a suffix.
    order: Vec<usize>,
    /// Position in `order` of the choice taken on the current path.
    pos: usize,
    /// The previously scheduled thread when this decision was reached.
    last: Option<usize>,
    /// Preemptions accumulated on the path *before* this decision.
    preemptions: usize,
}

impl Frame {
    /// The thread id chosen on the current path.
    fn chosen(&self) -> usize {
        self.enabled[self.order[self.pos]]
    }

    /// Whether picking `enabled[idx]` here preempts a runnable thread.
    /// Decisions are resolved to the thread they step ([`decision_thread`]):
    /// granting the last-run thread a *stale* read continues it — no
    /// preemption — while a flush (no thread) taken where it could have
    /// continued is one.
    fn preempts(&self, idx: usize) -> bool {
        match self.last {
            Some(last) => {
                self.enabled.contains(&last) && decision_thread(self.enabled[idx]) != Some(last)
            }
            None => false,
        }
    }
}

/// Explores interleavings of the scenario produced by `factory`, depth-first,
/// until the tree is exhausted or a failure is found.
///
/// `factory` is called once per schedule and must build an identical
/// [`Plan`] every time (same threads, same initial state); nondeterministic
/// factories make replay meaningless and are detected as enabled-set
/// mismatches.
pub fn explore<F: FnMut() -> Plan>(config: &Config, mut factory: F) -> Report {
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules = 0usize;
    let mut pruned = 0usize;

    loop {
        assert!(
            schedules < config.max_schedules,
            "scenario '{}' exceeded max_schedules = {} (tighten the bounds \
             or set a preemption_bound)",
            config.name,
            config.max_schedules
        );
        schedules += 1;
        // Progress heartbeat for diagnosing explosively large trees:
        // `INTERLEAVE_DEBUG=1 cargo test ...` prints one line per 10k
        // schedules.
        if std::env::var_os("INTERLEAVE_DEBUG").is_some() && schedules.is_multiple_of(10_000) {
            eprintln!(
                "[interleave] {}: {} schedules, stack depth {}",
                config.name,
                schedules,
                stack.len()
            );
        }

        let mut depth = 0usize;
        let result = run_once(
            factory(),
            config.max_steps,
            config.memory,
            &mut |enabled, last| {
                let k = depth;
                depth += 1;
                if k < stack.len() {
                    let frame = &stack[k];
                    assert_eq!(
                        frame.enabled, enabled,
                        "scenario '{}' is nondeterministic: decision {k} saw \
                     enabled set {enabled:?}, previously {:?} — model state \
                     must be a pure function of the schedule",
                        config.name, frame.enabled
                    );
                    frame.chosen()
                } else {
                    // Default continuation: keep running the last thread when
                    // possible (zero preemptions), else the lowest enabled tid.
                    // Bounded-preemption search stays sound because the default
                    // suffix never adds a preemption.
                    let chosen = match last {
                        Some(l) if enabled.contains(&l) => l,
                        _ => enabled[0],
                    };
                    let preemptions = stack
                        .last()
                        .map(|f| f.preemptions + usize::from(f.preempts(f.order[f.pos])))
                        .unwrap_or(0);
                    let first = enabled.iter().position(|&t| t == chosen).unwrap();
                    let mut order = vec![first];
                    order.extend((0..enabled.len()).filter(|&i| i != first));
                    stack.push(Frame {
                        enabled: enabled.to_vec(),
                        order,
                        pos: 0,
                        last,
                        preemptions,
                    });
                    chosen
                }
            },
        );

        match result.outcome {
            Outcome::Ok => {}
            Outcome::Pruned => pruned += 1,
            Outcome::Failed(message) => {
                return Report {
                    name: config.name,
                    schedules,
                    pruned,
                    failure: Some(Failure {
                        schedule: schedule_of(&stack, depth),
                        message,
                        kind: FailureKind::Panic,
                    }),
                };
            }
            Outcome::Livelock => {
                return Report {
                    name: config.name,
                    schedules,
                    pruned,
                    failure: Some(Failure {
                        schedule: schedule_of(&stack, depth),
                        message: "livelock: every unfinished thread was \
                                  spin-parked with nobody left to make progress"
                            .to_string(),
                        kind: FailureKind::Livelock,
                    }),
                };
            }
        }

        // The run may have ended before consuming the whole stored prefix
        // (e.g. a shorter path after backtracking); drop unreached frames.
        stack.truncate(depth);

        if !advance(&mut stack, config.preemption_bound) {
            return Report {
                name: config.name,
                schedules,
                pruned,
                failure: None,
            };
        }
    }
}

/// Moves the DFS stack to the next unexplored path. Returns `false` when the
/// tree is exhausted.
fn advance(stack: &mut Vec<Frame>, preemption_bound: Option<usize>) -> bool {
    while let Some(mut frame) = stack.pop() {
        let mut next = frame.pos + 1;
        while next < frame.order.len() {
            let cost = frame.preemptions + usize::from(frame.preempts(frame.order[next]));
            if preemption_bound.is_none_or(|bound| cost <= bound) {
                frame.pos = next;
                stack.push(frame);
                return true;
            }
            next += 1;
        }
    }
    false
}

fn schedule_of(stack: &[Frame], depth: usize) -> Schedule {
    Schedule::new(
        stack[..depth.min(stack.len())]
            .iter()
            .map(Frame::chosen)
            .collect(),
    )
}

/// Re-runs the exact interleaving described by `schedule` (as printed by a
/// failing exploration) under [`MemoryMode::Sc`]. Decisions beyond the
/// schedule's end fall back to the default continuation, so a prefix is
/// enough to reach the bug.
///
/// # Panics
///
/// Panics with the model's failure message if the execution fails — i.e. a
/// replayed failing schedule fails again, as a normal test failure — and
/// panics if the schedule diverges from the model's enabled sets.
pub fn replay<F: FnOnce() -> Plan>(schedule: &Schedule, factory: F) {
    replay_in(MemoryMode::Sc, schedule, factory);
}

/// [`replay`] under an explicit memory mode: a schedule found by a
/// [`Config::store_buffer`] exploration contains flush decisions (ids ≥
/// [`crate::FLUSH_BASE`]), one found by a [`Config::relaxed`] exploration
/// may additionally contain stale-read decisions (ids ≥
/// [`crate::REORDER_BASE`]), and either only replays under a mode that
/// models those steps.
///
/// # Panics
///
/// As [`replay`]; additionally panics up front when `schedule` contains
/// flush decisions but `memory` is [`MemoryMode::Sc`], or stale-read
/// decisions but `memory` keeps no version window.
pub fn replay_in<F: FnOnce() -> Plan>(memory: MemoryMode, schedule: &Schedule, factory: F) {
    let steps = schedule.steps();
    if memory == MemoryMode::Sc {
        if let Some(flush) = steps.iter().find(|&&id| id >= FLUSH_BASE) {
            panic!(
                "schedule {schedule} contains flush decision {flush} but is \
                 being replayed under MemoryMode::Sc — use replay_in with the \
                 store-buffer mode that produced it"
            );
        }
    }
    let windowless = !matches!(memory, MemoryMode::Relaxed { window, .. } if window > 0);
    if windowless {
        if let Some(reorder) = steps.iter().find(|&&id| id >= REORDER_BASE) {
            panic!(
                "schedule {schedule} contains stale-read decision {reorder} \
                 but is being replayed under {memory:?}, which models no load \
                 reordering — use replay_in with the relaxed mode that \
                 produced it"
            );
        }
    }
    let mut depth = 0usize;
    let result = run_once(
        factory(),
        10_000 + steps.len(),
        memory,
        &mut |enabled, last| {
            let k = depth;
            depth += 1;
            match steps.get(k) {
                Some(&tid) => {
                    assert!(
                        enabled.contains(&tid),
                        "schedule diverged at decision {k}: wants decision {tid}, \
                         enabled {enabled:?}"
                    );
                    tid
                }
                None => match last {
                    Some(l) if enabled.contains(&l) => l,
                    _ => enabled[0],
                },
            }
        },
    );
    match result.outcome {
        Outcome::Ok => {}
        Outcome::Failed(message) => panic!("replay of schedule {schedule} failed: {message}"),
        Outcome::Livelock => panic!("replay of schedule {schedule} livelocked"),
        Outcome::Pruned => panic!("replay of schedule {schedule} exceeded the step budget"),
    }
}

/// Parses a schedule string and replays it (convenience for pasting the
/// string printed by [`Report::assert_ok`]).
///
/// # Panics
///
/// Panics on an unparsable schedule string, and as [`replay`] does.
pub fn replay_str<F: FnOnce() -> Plan>(schedule: &str, factory: F) {
    let schedule = Schedule::from_str(schedule)
        .unwrap_or_else(|e| panic!("bad schedule string {schedule:?}: {e}"));
    replay(&schedule, factory);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::Atomic;
    use std::sync::Arc;

    /// Two racing unsynchronized increments: load + store. The lost-update
    /// interleaving must be found by exhaustive search.
    fn racy_counter_plan() -> Plan {
        let counter = Arc::new(Atomic::new(0u64));
        let mk = |c: Arc<Atomic<u64>>| {
            move || {
                let v = c.load();
                c.store(v + 1);
            }
        };
        let check = {
            let c = Arc::clone(&counter);
            move || assert_eq!(c.load_plain(), 2, "lost update")
        };
        Plan::new()
            .thread(mk(Arc::clone(&counter)))
            .thread(mk(Arc::clone(&counter)))
            .check(check)
    }

    #[test]
    fn finds_lost_update_and_replays_it() {
        let report = explore(&Config::exhaustive("racy-counter"), racy_counter_plan);
        let failure = report.assert_fails();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("lost update"), "{failure:?}");
        // The failing schedule replays to the same failure.
        let err = std::panic::catch_unwind(|| replay(&failure.schedule, racy_counter_plan))
            .expect_err("replay must reproduce the failure");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lost update"), "{msg}");
    }

    /// CAS-based increments: no schedule loses an update.
    fn cas_counter_plan() -> Plan {
        let counter = Arc::new(Atomic::new(0u64));
        let mk = |c: Arc<Atomic<u64>>| {
            move || loop {
                let v = c.load();
                if c.compare_exchange(v, v + 1).is_ok() {
                    return;
                }
            }
        };
        let check = {
            let c = Arc::clone(&counter);
            move || assert_eq!(c.load_plain(), 2)
        };
        Plan::new()
            .thread(mk(Arc::clone(&counter)))
            .thread(mk(Arc::clone(&counter)))
            .check(check)
    }

    #[test]
    fn cas_counter_survives_exhaustive_exploration() {
        let report = explore(&Config::exhaustive("cas-counter"), cas_counter_plan);
        report.assert_ok();
        assert!(report.schedules > 1, "must explore more than one schedule");
    }

    #[test]
    fn preemption_bound_zero_runs_threads_sequentially() {
        // With no preemptions allowed, each thread runs to completion before
        // the next starts: exactly n! thread orders minus shared prefixes —
        // for the racy counter the bug needs a preemption, so it passes.
        let report = explore(
            &Config::preemptions("racy-counter-pb0", 0),
            racy_counter_plan,
        );
        assert!(report.failure.is_none(), "pb=0 cannot interleave mid-op");
        // Two threads, two orders.
        assert_eq!(report.schedules, 2);
    }

    #[test]
    fn preemption_bound_one_finds_the_lost_update() {
        let report = explore(
            &Config::preemptions("racy-counter-pb1", 1),
            racy_counter_plan,
        );
        assert!(report.failure.is_some(), "one preemption exposes the race");
    }

    #[test]
    fn exhaustive_schedule_count_matches_interleaving_math() {
        // Two threads, two steps each, no early termination:
        // C(4,2) = 6 distinct interleavings.
        let plan = || {
            let a = Arc::new(Atomic::new(0u64));
            let mk = |c: Arc<Atomic<u64>>| {
                move || {
                    c.fetch_add(1);
                    c.fetch_add(1);
                }
            };
            Plan::new()
                .thread(mk(Arc::clone(&a)))
                .thread(mk(Arc::clone(&a)))
        };
        let report = explore(&Config::exhaustive("count-check"), plan);
        report.assert_ok();
        assert_eq!(report.schedules, 6);
    }

    #[test]
    fn livelock_is_reported_with_schedule() {
        let plan = || {
            let flag = Arc::new(Atomic::new(false));
            let f = Arc::clone(&flag);
            Plan::new().thread(move || loop {
                if f.load() {
                    return;
                }
                crate::runtime::spin_hint();
            })
        };
        let report = explore(&Config::exhaustive("lonely-spinner"), plan);
        let failure = report.assert_fails();
        assert_eq!(failure.kind, FailureKind::Livelock);
    }

    #[test]
    fn replay_str_parses_and_runs() {
        replay_str("0.0.1.1", || {
            let a = Arc::new(Atomic::new(0u64));
            let mk = |c: Arc<Atomic<u64>>| {
                move || {
                    c.fetch_add(1);
                    c.fetch_add(1);
                }
            };
            Plan::new()
                .thread(mk(Arc::clone(&a)))
                .thread(mk(Arc::clone(&a)))
        });
    }
}
