use std::error::Error;
use std::fmt;

/// Error returned when constructing an invalid task or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A task was given no execution segments.
    EmptySegments {
        /// The task's name.
        task: String,
    },
    /// A task's total compute time was zero.
    ZeroComputeTime {
        /// The task's name.
        task: String,
    },
    /// A required task field was missing from the builder.
    MissingField {
        /// The field's name.
        field: &'static str,
    },
    /// The number of arrival traces did not match the number of tasks.
    TraceCountMismatch {
        /// Tasks supplied.
        tasks: usize,
        /// Traces supplied.
        traces: usize,
    },
    /// A task references more objects than the simulation declares.
    UnknownObject {
        /// The task's name.
        task: String,
        /// The out-of-range object index.
        object: usize,
    },
    /// A task's explicit `Acquire`/`Release` segments are not properly
    /// nested (LIFO), re-acquire a held object, or leave a lock held at
    /// job completion.
    UnbalancedLocking {
        /// The task's name.
        task: String,
        /// What went wrong.
        detail: String,
    },
    /// Explicit `Acquire`/`Release` segments (nested critical sections)
    /// only make sense under lock-based sharing.
    NestedRequiresLockBased {
        /// The offending task's name.
        task: String,
    },
    /// A simulation was asked to run on zero processors.
    ZeroProcessors,
    /// A partitioned-dispatch assignment does not map every task to an
    /// existing processor.
    BadPartition {
        /// Tasks in the simulation.
        tasks: usize,
        /// Processors in the simulation.
        processors: usize,
        /// The rejected task→processor assignment.
        assignment: Vec<usize>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptySegments { task } => {
                write!(f, "task {task} has no execution segments")
            }
            SimError::ZeroComputeTime { task } => {
                write!(f, "task {task} has zero total compute time")
            }
            SimError::MissingField { field } => {
                write!(f, "task builder is missing required field `{field}`")
            }
            SimError::TraceCountMismatch { tasks, traces } => {
                write!(f, "{tasks} tasks but {traces} arrival traces supplied")
            }
            SimError::UnknownObject { task, object } => {
                write!(f, "task {task} accesses undeclared object index {object}")
            }
            SimError::UnbalancedLocking { task, detail } => {
                write!(f, "task {task} has unbalanced explicit locking: {detail}")
            }
            SimError::NestedRequiresLockBased { task } => write!(
                f,
                "task {task} uses explicit acquire/release segments, which require lock-based sharing"
            ),
            SimError::ZeroProcessors => {
                write!(f, "a simulation needs at least one processor, got 0")
            }
            SimError::BadPartition {
                tasks,
                processors,
                assignment,
            } => write!(
                f,
                "partition {assignment:?} must name one of {processors} processors (0-based) for each of {tasks} tasks"
            ),
        }
    }
}

impl Error for SimError {}
