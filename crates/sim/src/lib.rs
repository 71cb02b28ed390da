//! A discrete-event RTOS simulator for utility-accrual scheduling
//! experiments, on one processor ([`Engine::new`]) or `m` ([`mp`]).
//!
//! This crate is the testbed substrate of the reproduction of *Lock-Free
//! Synchronization for Dynamic Embedded Real-Time Systems* (Cho, Ravindran,
//! Jensen — DATE 2006). The paper evaluated on QNX Neutrino 6.3 with an
//! application-level meta-scheduler; here the same mechanisms are modelled
//! explicitly so experiments are deterministic and hardware-independent:
//!
//! * **jobs and tasks** ([`TaskSpec`], [`Job`]) with TUF time constraints and
//!   UAM-driven arrivals;
//! * **shared objects** under three sharing disciplines ([`SharingMode`]):
//!   lock-based (blocking, lock/unlock scheduling events), lock-free
//!   (interference-triggered retries), and ideal (zero-cost, the paper's
//!   "ideal RUA" yardstick);
//! * **abort exceptions** on critical-time expiry, per the paper's §3.5
//!   abortion model;
//! * **scheduler overhead charging** ([`OverheadModel`]): every scheduler
//!   invocation reports an operation count and the simulator charges
//!   proportional processor time — the mechanism behind the paper's
//!   Critical-time Miss Load experiment (Figure 9);
//! * **metrics** ([`SimMetrics`]): accrued utility ratio (AUR), critical-time
//!   meet ratio (CMR), sojourn times, retries, blockings.
//!
//! Schedulers implement [`UaScheduler`]; the paper's RUA variants live in
//! the `lfrt-core` crate.
//!
//! # Examples
//!
//! ```
//! use lfrt_sim::{
//!     AccessKind, Engine, ObjectId, OverheadModel, Segment, SharingMode, SimConfig, TaskSpec,
//! };
//! use lfrt_sim::scheduler::{Decision, SchedulerContext, UaScheduler};
//! use lfrt_tuf::Tuf;
//! use lfrt_uam::{ArrivalTrace, Uam};
//!
//! /// A trivial FIFO scheduler: run jobs in arrival order.
//! struct Fifo;
//! impl UaScheduler for Fifo {
//!     fn name(&self) -> &str { "fifo" }
//!     fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
//!         // Sort the views themselves: every key is read from the view in
//!         // hand, never looked up by id (`ctx.job` is a linear scan).
//!         let mut jobs: Vec<_> = ctx.jobs.iter().collect();
//!         jobs.sort_by_key(|j| j.arrival);
//!         let order = jobs.iter().map(|j| j.id).collect();
//!         Decision { order, ops: ctx.jobs.len() as u64, ..Decision::default() }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let task = TaskSpec::builder("t0")
//!     .tuf(Tuf::step(10.0, 1_000)?)
//!     .uam(Uam::periodic(1_000))
//!     .segments(vec![
//!         Segment::Compute(100),
//!         Segment::Access { object: ObjectId::new(0), kind: AccessKind::Write },
//!         Segment::Compute(100),
//!     ])
//!     .build()?;
//! let trace = ArrivalTrace::new(vec![0, 1_000, 2_000]);
//! let outcome = Engine::new(
//!     vec![task],
//!     vec![trace],
//!     SimConfig::new(SharingMode::LockFree { access_ticks: 10 })
//!         .overhead(OverheadModel::zero()),
//! )?
//! .run(Fifo);
//! assert_eq!(outcome.metrics.released(), 3);
//! assert_eq!(outcome.metrics.completed(), 3);
//! assert!(outcome.metrics.aur() > 0.99);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
pub mod csv;
mod engine;
mod error;
mod event;
mod ids;
mod job;
mod metrics;
pub mod mp;
mod object;
mod overhead;
pub mod scheduler;
mod segment;
mod task;
pub mod tracelog;
pub mod workload;

pub use engine::{Engine, SimConfig, SimOutcome};
pub use error::SimError;
pub use ids::{JobId, ObjectId, TaskId};
pub use job::{Job, JobPhase, JobRecord};
pub use metrics::{aggregate, sojourn_percentiles, SimMetrics, SojournPercentiles, TaskMetrics};
pub use mp::{DispatchPolicy, MpEngine};
pub use object::ObjectTable;
pub use overhead::OverheadModel;
pub use scheduler::{Decision, JobView, SchedulerContext, UaScheduler};
pub use segment::{AccessKind, Segment};
pub use task::{ExecTimeModel, SharingMode, TaskSpec, TaskSpecBuilder};
pub use tracelog::{AbortReason, TraceEvent, TraceLog, TraceRecord};

/// Simulated time in integer ticks (1 tick ≈ 1 µs in the experiments).
pub type SimTime = u64;
/// A duration in ticks.
pub type Ticks = u64;
