//! Multiprocessors (the paper's §7 future work).
//!
//! The simulator has one event loop, [`Engine`], over `m` identical
//! processors; [`MpEngine`] is the constructor that takes `m` and a
//! [`DispatchPolicy`]. At every scheduling event the [`UaScheduler`]
//! produces one priority order and the engine assigns the first `m`
//! runnable jobs to processors (keeping already-placed jobs on their
//! processor when possible), or under partitioned dispatch each processor
//! takes the first runnable job of its own tasks.
//!
//! The new physics at `m > 1` is **true concurrency on shared objects**:
//!
//! * lock-free accesses can now interfere *without preemption* — two jobs
//!   on different processors access the same object simultaneously; the
//!   first commit bumps the version and the other attempt retries. The
//!   single-processor retry bound of Theorem 2 does not cover this (the
//!   paper proves it for one processor only), which is exactly why the
//!   authors flag multiprocessors as future work;
//! * lock-based accesses block across processors: the owner keeps running
//!   on its CPU while the requester parks.
//!
//! Simplifications versus a real SMP kernel, kept deliberately: the
//! scheduler's overhead window freezes all processors (a global kernel
//! lock), migration is free, and a scheduling quantum
//! ([`SimConfig::quantum`]) is one global tick that reschedules every
//! processor at once.

use lfrt_uam::ArrivalTrace;

use crate::engine::{Engine, SimConfig, SimOutcome};
use crate::error::SimError;
use crate::scheduler::UaScheduler;
use crate::task::TaskSpec;

/// How jobs are mapped to processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// One global priority order; the first `m` runnable jobs run, on any
    /// processor (migration is free).
    Global,
    /// Each task is pinned to a processor (`assignment[task] = cpu`); a
    /// processor only runs jobs of its own tasks, in the scheduler's
    /// priority order. The classic partitioned alternative to global
    /// scheduling in the multiprocessor literature.
    Partitioned(Vec<usize>),
}

/// [`Engine`] on `m` identical processors. See the [module docs](self) for
/// the model.
///
/// # Examples
///
/// Two independent jobs on two processors truly run in parallel:
///
/// ```
/// use lfrt_sim::mp::MpEngine;
/// use lfrt_sim::{Segment, SharingMode, SimConfig, TaskSpec};
/// use lfrt_sim::scheduler::{Decision, SchedulerContext, UaScheduler};
/// use lfrt_tuf::Tuf;
/// use lfrt_uam::{ArrivalTrace, Uam};
///
/// struct Fifo;
/// impl UaScheduler for Fifo {
///     fn name(&self) -> &str { "fifo" }
///     fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
///         let order: Vec<_> = ctx.jobs.iter().map(|j| j.id).collect();
///         Decision { order, ops: 1, ..Decision::default() }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mk = |name: &str| -> Result<TaskSpec, Box<dyn std::error::Error>> {
///     Ok(TaskSpec::builder(name)
///         .tuf(Tuf::step(1.0, 10_000)?)
///         .uam(Uam::periodic(10_000))
///         .segments(vec![Segment::Compute(1_000)])
///         .build()?)
/// };
/// let outcome = MpEngine::new(
///     vec![mk("a")?, mk("b")?],
///     vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
///     SimConfig::new(SharingMode::Ideal),
///     2,
/// )?
/// .run(Fifo);
/// assert!(outcome.records.iter().all(|r| r.resolved_at == 1_000));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MpEngine(Engine);

impl MpEngine {
    /// Creates an engine with `processors` identical CPUs under
    /// [`DispatchPolicy::Global`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] under the same conditions as [`Engine::new`],
    /// and [`SimError::ZeroProcessors`] if `processors` is zero.
    pub fn new(
        tasks: Vec<TaskSpec>,
        traces: Vec<ArrivalTrace>,
        config: SimConfig,
        processors: usize,
    ) -> Result<Self, SimError> {
        Engine::new(tasks, traces, config)?
            .with_processors(processors)
            .map(Self)
    }

    /// Switches to [`DispatchPolicy::Partitioned`] with the given
    /// task→processor assignment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadPartition`] if the assignment's length differs
    /// from the task count or maps a task to a nonexistent processor.
    pub fn with_partitioning(self, assignment: Vec<usize>) -> Result<Self, SimError> {
        self.0.with_partitioning(assignment).map(Self)
    }

    /// Runs the simulation to completion.
    pub fn run<S: UaScheduler>(self, scheduler: S) -> SimOutcome {
        self.0.run(scheduler)
    }
}
