use lfrt_uam::ArrivalTrace;

use crate::calendar::Calendar;
use crate::error::SimError;
use crate::event::EventKind;
use crate::ids::{JobId, ObjectId, TaskId};
use crate::job::{Job, JobPhase, JobRecord};
use crate::metrics::SimMetrics;
use crate::mp::DispatchPolicy;
use crate::object::ObjectTable;
use crate::overhead::OverheadModel;
use crate::scheduler::{JobView, SchedulerContext, UaScheduler};
use crate::segment::{AccessKind, Segment};
use crate::task::{ExecTimeModel, SharingMode, TaskSpec};
use crate::tracelog::{AbortReason, TraceEvent, TraceLog};
use crate::{SimTime, Ticks};

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    sharing: SharingMode,
    overhead: OverheadModel,
    record_jobs: bool,
    exec_time: ExecTimeModel,
    trace: bool,
    capacities: Vec<u32>,
    quantum: Option<Ticks>,
}

impl SimConfig {
    /// Creates a configuration for the given sharing discipline, with zero
    /// scheduler overhead and per-job records enabled.
    pub fn new(sharing: SharingMode) -> Self {
        Self {
            sharing,
            overhead: OverheadModel::zero(),
            record_jobs: true,
            exec_time: ExecTimeModel::Nominal,
            trace: false,
            capacities: Vec::new(),
            quantum: None,
        }
    }

    /// Sets the scheduler-overhead model.
    #[must_use]
    pub fn overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Enables or disables per-job [`JobRecord`] collection.
    #[must_use]
    pub fn record_jobs(mut self, record: bool) -> Self {
        self.record_jobs = record;
        self
    }

    /// Sets the execution-time model (default: nominal, no jitter).
    #[must_use]
    pub fn exec_time(mut self, model: ExecTimeModel) -> Self {
        self.exec_time = model;
        self
    }

    /// Enables fine-grained transition tracing (default off); the log is
    /// returned in [`SimOutcome::trace`].
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The configured sharing discipline.
    pub fn sharing(&self) -> SharingMode {
        self.sharing
    }

    /// Enables quantum-based scheduling: the scheduler is additionally
    /// invoked at every multiple of `ticks` while jobs are live, the
    /// discipline of Anderson et al.'s quantum-based lock-free work (the
    /// paper's §1.1, reference \[2\]: with a sensible quantum, "each object
    /// access needs to be retried at most once").
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is zero.
    #[must_use]
    pub fn quantum(mut self, ticks: Ticks) -> Self {
        assert!(ticks > 0, "quantum must be positive");
        self.quantum = Some(ticks);
        self
    }

    /// Sets per-object lock capacities (units), indexed by object id;
    /// unspecified objects keep capacity 1 (mutual exclusion). Capacities
    /// above 1 model RUA's *multiunit resources* — counting semaphores.
    #[must_use]
    pub fn object_capacities(mut self, capacities: Vec<u32>) -> Self {
        self.capacities = capacities;
        self
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Aggregated metrics.
    pub metrics: SimMetrics,
    /// Per-job records (empty if disabled in [`SimConfig::record_jobs`]).
    pub records: Vec<JobRecord>,
    /// Fine-grained transition log (empty unless [`SimConfig::trace`]).
    pub trace: TraceLog,
}

/// The discrete-event simulation engine.
///
/// # Model
///
/// `m` identical processors each execute at most one job at a time;
/// [`Engine::new`] builds the uniprocessor (`m = 1`) and
/// [`MpEngine::new`](crate::mp::MpEngine::new) takes `m` (see the
/// [`mp`](crate::mp) module for what changes when `m > 1`). *Scheduling
/// events* are job arrivals, job departures (completion or abort at the
/// critical time), and — under [`SharingMode::LockBased`] — lock and unlock
/// requests. At each scheduling event the engine invokes the
/// [`UaScheduler`], charges the reported operation count as processor time
/// through the [`OverheadModel`] (a *kernel-busy window* during which no job
/// progresses on any processor, and during which further scheduling is
/// deferred), and then dispatches the first `m` runnable jobs of the
/// returned order under the [`DispatchPolicy`].
///
/// If fewer than `m` jobs in the returned order are runnable but ready jobs
/// exist, the engine dispatches ready jobs by earliest critical time rather
/// than idling; RUA's "rejected" jobs thus still consume otherwise-idle
/// processor time, as they would in the ready queue of a real RTOS.
///
/// Object accesses follow the paper's two disciplines:
///
/// * **lock-based** — an access is a critical section of `r` ticks; a
///   request for a held lock blocks the job (a scheduling event) until the
///   owner's unlock (another scheduling event) wakes the waiters;
/// * **lock-free** — an access attempt runs for `s` ticks; if another job
///   *committed a write* to the same object while the attempt was in flight
///   (i.e. since it started, including across preemptions), the attempt
///   fails and retries from scratch — one retry of the kind bounded by the
///   paper's Theorem 2.
///
/// Critical-time expiry aborts a live job: its abort handler runs
/// immediately (charged as kernel-busy time), rolls back, and releases any
/// held lock (§3.5 of the paper).
#[derive(Debug)]
pub struct Engine {
    tasks: Vec<TaskSpec>,
    config: SimConfig,
    policy: DispatchPolicy,
    calendar: Calendar,
    jobs: Vec<Job>,
    live: Vec<JobId>,
    objects: ObjectTable,
    schedule: Vec<JobId>,
    /// The job dispatched on each processor; a dispatched job is `Ready`.
    running: Vec<Option<JobId>>,
    /// `running` as it was when the current reschedule began, and the jobs
    /// picked by the current global dispatch: scratch kept across calls so a
    /// reschedule allocates nothing.
    previously: Vec<Option<JobId>>,
    chosen: Vec<JobId>,
    kernel_busy_until: SimTime,
    resched_queued: bool,
    now: SimTime,
    metrics: SimMetrics,
    records: Vec<JobRecord>,
    exec_rng: Option<rand::rngs::StdRng>,
    trace: TraceLog,
}

impl Engine {
    /// Creates a uniprocessor engine for `tasks`, releasing jobs at the
    /// times in `traces` (one trace per task, same order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TraceCountMismatch`] if the trace count differs
    /// from the task count, and [`SimError::NestedRequiresLockBased`] if a
    /// task uses explicit `Acquire`/`Release` segments without lock-based
    /// sharing.
    pub fn new(
        tasks: Vec<TaskSpec>,
        traces: Vec<ArrivalTrace>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        if tasks.len() != traces.len() {
            return Err(SimError::TraceCountMismatch {
                tasks: tasks.len(),
                traces: traces.len(),
            });
        }
        if !config.sharing.uses_locks() {
            if let Some(task) = tasks.iter().find(|t| t.uses_explicit_locks()) {
                return Err(SimError::NestedRequiresLockBased {
                    task: task.name().to_string(),
                });
            }
        }
        let num_objects = tasks
            .iter()
            .flat_map(|t| t.segments().iter())
            .filter_map(Segment::object)
            .map(|o| o.index() + 1)
            .max()
            .unwrap_or(0);
        let mut calendar = Calendar::new();
        for (idx, trace) in traces.iter().enumerate() {
            for &t in trace.times() {
                calendar.push(
                    t,
                    EventKind::Arrival {
                        task: TaskId::new(idx),
                    },
                );
            }
        }
        let mut objects = ObjectTable::new(num_objects);
        objects.set_capacities(&config.capacities);
        let metrics = SimMetrics::new(tasks.len());
        let exec_rng = match config.exec_time {
            ExecTimeModel::Nominal => None,
            ExecTimeModel::Uniform { seed, .. } => Some(
                <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed),
            ),
        };
        Ok(Self {
            tasks,
            config,
            policy: DispatchPolicy::Global,
            calendar,
            jobs: Vec::new(),
            live: Vec::new(),
            objects,
            schedule: Vec::new(),
            running: vec![None],
            previously: Vec::new(),
            chosen: Vec::new(),
            kernel_busy_until: 0,
            resched_queued: false,
            now: 0,
            metrics,
            records: Vec::new(),
            exec_rng,
            trace: TraceLog::new(),
        })
    }

    /// Gives the engine `processors` identical CPUs instead of one.
    pub(crate) fn with_processors(mut self, processors: usize) -> Result<Self, SimError> {
        if processors == 0 {
            return Err(SimError::ZeroProcessors);
        }
        self.running = vec![None; processors];
        Ok(self)
    }

    /// Switches from global to partitioned dispatch with the given
    /// task→processor assignment.
    pub(crate) fn with_partitioning(mut self, assignment: Vec<usize>) -> Result<Self, SimError> {
        let processors = self.running.len();
        if assignment.len() != self.tasks.len() || assignment.iter().any(|&cpu| cpu >= processors) {
            return Err(SimError::BadPartition {
                tasks: self.tasks.len(),
                processors,
                assignment,
            });
        }
        self.policy = DispatchPolicy::Partitioned(assignment);
        Ok(self)
    }

    /// Runs the simulation to completion (all jobs resolved) and returns the
    /// outcome.
    pub fn run<S: UaScheduler>(mut self, mut scheduler: S) -> SimOutcome {
        loop {
            let mut next = match (self.calendar.peek_time(), self.next_internal()) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            // Quantum scheduling: wake the scheduler at every boundary while
            // jobs are live.
            if let Some(q) = self.config.quantum {
                if !self.live.is_empty() {
                    let boundary = (self.now / q + 1) * q;
                    next = next.min(boundary);
                }
            }
            debug_assert!(next >= self.now, "time went backwards");
            let mut resched = self.advance_to(next);
            if let Some(q) = self.config.quantum {
                if self.now.is_multiple_of(q) && !self.live.is_empty() {
                    resched = true;
                }
            }

            // Internal happenings, in processor order: a running job
            // finished its current activity (segment completion, lock
            // release, or a lock-free commit/retry decision). One completion
            // per processor per decision point; a follow-on zero-length
            // segment is handled on the next pass, after same-instant
            // external events.
            for cpu in 0..self.running.len() {
                resched |= self.handle_activity_completion(cpu);
            }

            // External events due now.
            while let Some((_, event)) = self.calendar.pop_due(self.now) {
                match event {
                    EventKind::Arrival { task } => {
                        self.release_job(task);
                        resched = true;
                    }
                    EventKind::CriticalTimeExpiry { job } => {
                        if self.jobs[job.index()].phase.is_live() {
                            self.abort_job(job, AbortReason::CriticalTime);
                            resched = true;
                        }
                    }
                    EventKind::Reschedule => {
                        self.resched_queued = false;
                        resched = true;
                    }
                }
            }

            if resched {
                self.request_reschedule(&mut scheduler);
            } else if self.now >= self.kernel_busy_until && self.prepare_running() {
                // A running job crossed into an access segment without an
                // intervening scheduling event; under lock-based sharing the
                // implied lock request is itself a scheduling event.
                self.request_reschedule(&mut scheduler);
            }
        }
        SimOutcome {
            metrics: self.metrics,
            records: self.records,
            trace: self.trace,
        }
    }

    // `run` and `request_reschedule` are generic over the scheduler, so they
    // are compiled in the caller's crate; the `#[inline]` on the per-event
    // helpers they call lets those be inlined across the crate boundary
    // (measured: the one-CPU sweep is ~3 % slower without them).
    #[inline]
    fn trace_event(&mut self, event: TraceEvent) {
        if self.config.trace {
            self.trace.push(self.now, event);
        }
    }

    /// When the first dispatched job's current activity will end, accounting
    /// for the kernel-busy window and any injected crash point; `None` when
    /// no processor has a dispatched job.
    #[inline]
    fn next_internal(&self) -> Option<SimTime> {
        let mut dispatched = self.running.iter().flatten();
        if self.now < self.kernel_busy_until {
            // Jobs resume after the kernel finishes; re-evaluate then.
            return dispatched.next().map(|_| self.kernel_busy_until);
        }
        let ends = dispatched.map(|id| {
            let job = &self.jobs[id.index()];
            let mut left = self.activity_duration(job).saturating_sub(job.seg_progress);
            if let Some(crash) = self.tasks[job.task.index()].crash_after() {
                left = left.min(crash.saturating_sub(job.executed));
            }
            self.now + left
        });
        ends.min()
    }

    fn activity_duration(&self, job: &Job) -> Ticks {
        match self.tasks[job.task.index()].segments()[job.seg_idx] {
            // Actual compute time is the nominal duration scaled by the
            // job's context factor; schedulers keep seeing the nominal. A
            // factor of exactly 1 (every job under `ExecTimeModel::Nominal`)
            // skips the float round trip: `round` is a libm call, and this
            // runs twice per event per processor.
            Segment::Compute(t) if job.exec_scale == 1.0 => t,
            Segment::Compute(t) => (t as f64 * job.exec_scale).round() as Ticks,
            Segment::Access { .. } => self.config.sharing.access_cost(),
            // Explicit lock structuring is instantaneous; the cost of the
            // protected work is carried by the segments in between.
            Segment::Acquire { .. } | Segment::Release { .. } => 0,
        }
    }

    /// Moves time to `next`, executing the dispatched jobs outside the
    /// kernel-busy window. Failure injection: a job that reaches its crash
    /// point halts forever, keeping its locks — before any completion
    /// handling. Returns whether a job crashed (a scheduling event).
    #[inline]
    fn advance_to(&mut self, next: SimTime) -> bool {
        let ran = next.saturating_sub(self.now.max(self.kernel_busy_until));
        self.now = next;
        self.metrics.makespan = self.metrics.makespan.max(next);
        let mut crashed = false;
        for cpu in 0..self.running.len() {
            let Some(id) = self.running[cpu] else {
                continue;
            };
            let job = &mut self.jobs[id.index()];
            job.seg_progress += ran;
            job.executed += ran;
            self.metrics.busy_ticks += ran;
            if let Some(crash) = self.tasks[job.task.index()].crash_after() {
                if job.executed >= crash && next >= self.kernel_busy_until {
                    self.crash_job(id);
                    crashed = true;
                }
            }
        }
        crashed
    }

    /// If the job on `cpu` has finished its current activity, moves it on.
    /// Returns whether a scheduling event occurred.
    #[inline]
    fn handle_activity_completion(&mut self, cpu: usize) -> bool {
        let Some(id) = self.running[cpu] else {
            return false;
        };
        let idx = id.index();
        let job = &self.jobs[idx];
        if self.now < self.kernel_busy_until || job.seg_progress < self.activity_duration(job) {
            return false;
        }
        let task_idx = job.task.index();
        let segment = self.tasks[task_idx].segments()[job.seg_idx];
        let mut resched = false;
        match segment {
            Segment::Compute(_) => {
                self.advance_segment(idx);
            }
            Segment::Access { object, kind } => match self.config.sharing {
                SharingMode::LockBased { .. } => {
                    // Critical section done: unlock (a scheduling event) and
                    // wake the waiters.
                    debug_assert!(self.jobs[idx].holds.contains(&object));
                    self.release_lock(idx, id, object);
                    if kind == AccessKind::Write {
                        self.objects.commit_write(object);
                    }
                    self.advance_segment(idx);
                    resched = true;
                }
                SharingMode::LockFree { .. } => {
                    let started = self.jobs[idx]
                        .access_start_version
                        .expect("lock-free access completed without a start version");
                    let current = self.objects.version(object);
                    if current != started {
                        // Interference: another job committed a write while
                        // this attempt was in flight. Retry from scratch.
                        let job = &mut self.jobs[idx];
                        job.retries += 1;
                        job.seg_progress = 0;
                        job.access_start_version = Some(current);
                        self.trace_event(TraceEvent::Retried { job: id, object });
                    } else {
                        if kind == AccessKind::Write {
                            self.objects.commit_write(object);
                        }
                        self.jobs[idx].access_start_version = None;
                        self.advance_segment(idx);
                    }
                }
                SharingMode::Ideal => {
                    self.advance_segment(idx);
                }
            },
            Segment::Acquire { object } => {
                // The grant happened in `prepare_running`; crossing the
                // zero-length segment is bookkeeping only (the request
                // itself was already a scheduling event).
                debug_assert!(self.jobs[idx].holds.contains(&object));
                self.advance_segment(idx);
            }
            Segment::Release { object } => {
                self.release_lock(idx, id, object);
                // Writes made inside the explicit critical section become
                // visible on release.
                self.objects.commit_write(object);
                self.advance_segment(idx);
                resched = true;
            }
        }
        if self.jobs[idx].phase.is_live()
            && self.jobs[idx].seg_idx >= self.tasks[task_idx].segments().len()
        {
            self.complete_job(id);
            resched = true;
        }
        resched
    }

    fn advance_segment(&mut self, idx: usize) {
        let job = &mut self.jobs[idx];
        job.seg_idx += 1;
        job.seg_progress = 0;
    }

    /// Unlocks `object` held by job `id`, waking its waiters.
    fn release_lock(&mut self, idx: usize, id: JobId, object: ObjectId) {
        let woken = self.objects.unlock(object, id);
        for w in woken {
            self.jobs[w.index()].phase = JobPhase::Ready;
            self.trace_event(TraceEvent::Woken { job: w, object });
        }
        self.jobs[idx].holds.retain(|&o| o != object);
        self.trace_event(TraceEvent::LockReleased { job: id, object });
    }

    fn release_job(&mut self, task: TaskId) {
        let spec = &self.tasks[task.index()];
        let id = JobId::new(self.jobs.len());
        let critical = spec.tuf().critical_time();
        let max_utility = spec.tuf().max_utility();
        let mut job = Job::new(id, task, self.now, critical);
        if let (
            ExecTimeModel::Uniform {
                min_factor,
                max_factor,
                ..
            },
            Some(rng),
        ) = (self.config.exec_time, self.exec_rng.as_mut())
        {
            job.exec_scale = rand::RngExt::random_range(rng, min_factor..=max_factor);
        }
        self.calendar.push(
            job.absolute_critical_time,
            EventKind::CriticalTimeExpiry { job: id },
        );
        self.jobs.push(job);
        self.live.push(id);
        self.trace_event(TraceEvent::Released { job: id, task });
        let tm = self.metrics.task_mut(task.index());
        tm.released += 1;
        tm.utility_possible += max_utility;
    }

    fn complete_job(&mut self, id: JobId) {
        let idx = id.index();
        let task_idx = self.jobs[idx].task.index();
        let sojourn = self.now - self.jobs[idx].arrival;
        let critical = self.tasks[task_idx].tuf().critical_time();
        if sojourn >= critical {
            // Completing exactly at (or past) the critical time accrues
            // nothing; account it as the abort that would have raced it.
            self.abort_job(id, AbortReason::CriticalTime);
            return;
        }
        let utility = self.tasks[task_idx].tuf().utility(sojourn);
        self.trace_event(TraceEvent::Completed { job: id, utility });
        let tm = self.metrics.task_mut(task_idx);
        tm.completed += 1;
        tm.utility_accrued += utility;
        tm.sojourn_sum += sojourn;
        tm.sojourn_max = tm.sojourn_max.max(sojourn);
        self.resolve(id, JobPhase::Completed, utility);
    }

    fn abort_job(&mut self, id: JobId, reason: AbortReason) {
        let idx = id.index();
        let task_idx = self.jobs[idx].task.index();
        // The abort handler runs immediately: roll back and release every
        // held lock (innermost first, though order is immaterial here).
        let held = std::mem::take(&mut self.jobs[idx].holds);
        for object in held.into_iter().rev() {
            let woken = self.objects.unlock(object, id);
            for w in woken {
                self.jobs[w.index()].phase = JobPhase::Ready;
            }
        }
        if let JobPhase::Blocked(object) = self.jobs[idx].phase {
            self.objects.remove_waiter(object, id);
        }
        self.trace_event(TraceEvent::Aborted { job: id, reason });
        let handler = self.tasks[task_idx].abort_handler_ticks();
        if handler > 0 {
            self.kernel_busy_until = self.kernel_busy_until.max(self.now) + handler;
        }
        self.metrics.task_mut(task_idx).aborted += 1;
        self.resolve(id, JobPhase::Aborted, 0.0);
    }

    /// Failure injection: halt `id` forever. Locks stay held (the crashed
    /// activity cannot run its handler), so lock-based blockers starve —
    /// the §1.1 failure mode lock-free sharing is immune to.
    fn crash_job(&mut self, id: JobId) {
        self.trace_event(TraceEvent::Crashed { job: id });
        self.metrics
            .task_mut(self.jobs[id.index()].task.index())
            .crashed += 1;
        self.resolve(id, JobPhase::Crashed, 0.0);
    }

    /// Takes `id` out of the simulation in its final `phase`: off its
    /// processor and the live list, its counters into the task's metrics.
    fn resolve(&mut self, id: JobId, phase: JobPhase, utility: f64) {
        let job = &mut self.jobs[id.index()];
        job.phase = phase;
        job.resolved_at = Some(self.now);
        let tm = self.metrics.task_mut(job.task.index());
        tm.retries += job.retries;
        tm.blockings += job.blockings;
        tm.preemptions += job.preemptions;
        self.live.retain(|&j| j != id);
        if let Some(slot) = self.running.iter_mut().find(|slot| **slot == Some(id)) {
            *slot = None;
        }
        if self.config.record_jobs {
            self.records.push(JobRecord {
                id,
                task: job.task,
                arrival: job.arrival,
                resolved_at: self.now,
                completed: phase == JobPhase::Completed,
                utility,
                retries: job.retries,
                blockings: job.blockings,
                preemptions: job.preemptions,
            });
        }
    }

    /// Runs the scheduler now, or defers it to the end of the kernel-busy
    /// window if the kernel is still charging a previous invocation.
    fn request_reschedule<S: UaScheduler>(&mut self, scheduler: &mut S) {
        if self.now < self.kernel_busy_until {
            if !self.resched_queued {
                self.calendar
                    .push(self.kernel_busy_until, EventKind::Reschedule);
                self.resched_queued = true;
            }
            return;
        }
        self.previously.clone_from(&self.running);
        // Lock requests made during dispatch are themselves scheduling
        // events, so scheduling and dispatching iterate to a fixed point.
        // Each iteration either blocks one more job or grants one lock to
        // a dispatched job, so the loop terminates.
        loop {
            let decision = {
                let ctx = self.scheduler_context();
                scheduler.schedule(&ctx)
            };
            let charge = self.config.overhead.charge(decision.ops);
            self.trace_event(TraceEvent::SchedulerInvoked { ops: decision.ops });
            self.metrics.sched_invocations += 1;
            self.metrics.sched_ops += decision.ops;
            self.metrics.overhead_ticks += charge;
            self.kernel_busy_until = self.kernel_busy_until.max(self.now) + charge;
            // Deadlock resolution (§3.3): the scheduler may demand aborts;
            // executing them changes the situation, so schedule again.
            let mut aborted_any = false;
            for &victim in &decision.aborts {
                if self.jobs[victim.index()].phase.is_live() {
                    self.abort_job(victim, AbortReason::Deadlock);
                    aborted_any = true;
                }
            }
            if aborted_any {
                continue;
            }
            self.schedule = decision.order;
            self.dispatch();
            if !self.prepare_running() {
                break;
            }
        }
        for cpu in 0..self.running.len() {
            let (prev, now_running) = (self.previously[cpu], self.running[cpu]);
            if now_running == prev {
                continue;
            }
            // A context switch away from a job that is still ready (not
            // blocked, not resolved, not migrated to another processor) is a
            // preemption — the quantity Lemma 1 bounds.
            if let Some(prev) = prev {
                if !self.running.contains(&Some(prev))
                    && self.jobs[prev.index()].phase == JobPhase::Ready
                {
                    self.jobs[prev.index()].preemptions += 1;
                    self.trace_event(TraceEvent::Preempted { job: prev });
                    lfrt_trace::emit(
                        lfrt_trace::EventKind::SchedPreempt,
                        lfrt_trace::Site::Sched,
                        prev.index() as u64,
                    );
                }
            }
            if let Some(job) = now_running {
                self.trace_event(TraceEvent::Dispatched { job });
            }
        }
    }

    fn scheduler_context(&self) -> SchedulerContext<'_> {
        let jobs = self
            .live
            .iter()
            .map(|&id| {
                let job = &self.jobs[id.index()];
                let spec = &self.tasks[job.task.index()];
                JobView {
                    id,
                    task: job.task,
                    arrival: job.arrival,
                    absolute_critical_time: job.absolute_critical_time,
                    window: spec.uam().window(),
                    tuf: spec.tuf(),
                    remaining: job.remaining_exec(spec.segments(), self.config.sharing),
                    blocked_on: match job.phase {
                        JobPhase::Blocked(o) => Some(o),
                        _ => None,
                    },
                    holds: job.holds.clone(),
                }
            })
            .collect();
        SchedulerContext {
            now: self.now,
            jobs,
        }
    }

    /// Assigns ready jobs to processors, in place, under the dispatch
    /// policy.
    #[inline]
    fn dispatch(&mut self) {
        let Self {
            policy,
            running,
            chosen,
            schedule,
            live,
            jobs,
            ..
        } = self;
        let ready = |id: JobId| jobs[id.index()].phase == JobPhase::Ready;
        let critical_time = |id: &JobId| jobs[id.index()].absolute_critical_time;
        match policy {
            DispatchPolicy::Global => {
                // The first `m` ready jobs of the schedule; then, work
                // conserving, rejected-but-ready jobs use otherwise-idle
                // processors, earliest critical time first.
                chosen.clear();
                for &id in schedule.iter() {
                    if chosen.len() == running.len() {
                        break;
                    }
                    if ready(id) && !chosen.contains(&id) {
                        chosen.push(id);
                    }
                }
                while chosen.len() < running.len() {
                    let idle_filler = live
                        .iter()
                        .copied()
                        .filter(|&id| ready(id) && !chosen.contains(&id))
                        .min_by_key(critical_time);
                    let Some(id) = idle_filler else { break };
                    chosen.push(id);
                }
                // Affinity: a chosen job that is already placed stays on its
                // processor; the rest fill the free processors in priority
                // order (migration is free).
                for slot in running.iter_mut() {
                    if slot.is_some_and(|id| !chosen.contains(&id)) {
                        *slot = None;
                    }
                }
                let mut free = 0;
                for &id in chosen.iter() {
                    if !running.contains(&Some(id)) {
                        while running[free].is_some() {
                            free += 1;
                        }
                        running[free] = Some(id);
                    }
                }
            }
            DispatchPolicy::Partitioned(assignment) => {
                // Each processor independently picks the first ready job of
                // its own tasks in the schedule's priority order, falling
                // back to earliest critical time among its ready jobs.
                for (cpu, slot) in running.iter_mut().enumerate() {
                    let mine =
                        |id: &JobId| assignment[jobs[id.index()].task.index()] == cpu && ready(*id);
                    *slot =
                        schedule.iter().copied().find(mine).or_else(|| {
                            live.iter().copied().filter(mine).min_by_key(critical_time)
                        });
                }
            }
        }
    }

    /// Ensures every dispatched job can execute its current segment. Returns
    /// whether doing so raised a new scheduling event (a lock request).
    #[inline]
    fn prepare_running(&mut self) -> bool {
        let mut lock_requested = false;
        for cpu in 0..self.running.len() {
            let Some(id) = self.running[cpu] else {
                continue;
            };
            let idx = id.index();
            let job = &self.jobs[idx];
            let Some(&segment) = self.tasks[job.task.index()].segments().get(job.seg_idx) else {
                continue;
            };
            match (segment, self.config.sharing) {
                (
                    Segment::Access { object, .. } | Segment::Acquire { object },
                    SharingMode::LockBased { .. },
                ) if !job.holds.contains(&object) => {
                    // The lock request is a scheduling event whether granted
                    // or not (§3 of the paper).
                    self.request_lock(cpu, id, object);
                    lock_requested = true;
                }
                (Segment::Access { object, .. }, SharingMode::LockFree { .. })
                    if job.access_start_version.is_none() =>
                {
                    self.jobs[idx].access_start_version = Some(self.objects.version(object));
                }
                _ => {}
            }
        }
        lock_requested
    }

    fn request_lock(&mut self, cpu: usize, id: JobId, object: ObjectId) {
        let job = &mut self.jobs[id.index()];
        if self.objects.try_lock(object, id) {
            job.holds.push(object);
            self.trace_event(TraceEvent::LockAcquired { job: id, object });
        } else {
            job.phase = JobPhase::Blocked(object);
            job.blockings += 1;
            self.running[cpu] = None;
            self.trace_event(TraceEvent::Blocked { job: id, object });
        }
    }
}
