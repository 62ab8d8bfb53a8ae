//! The unified `overlap` error hierarchy.
//!
//! Every fallible entry point of the high-level API — the [`Simulation`]
//! builder, the pipeline helpers, planning — reports this one [`Error`]
//! type, so callers match on a single enum instead of juggling per-crate
//! errors. Lower-level crates keep their own precise errors
//! ([`OverlapError`], [`RunError`]); they convert in via `From`.
//!
//! [`Simulation`]: crate::simulation::Simulation

use crate::overlap::OverlapError;
use overlap_sim::engine::RunError;

/// Any failure of the high-level simulation API.
#[derive(Debug)]
pub enum Error {
    /// OVERLAP planning failed (stage-1/2 killing removed every
    /// processor).
    Overlap(OverlapError),
    /// The engine could not complete the run — includes fault-tolerance
    /// failures such as [`RunError::ColumnLost`] and
    /// [`RunError::RetriesExhausted`].
    Run(RunError),
    /// The placement strategy does not apply to this guest topology.
    /// Line, ring and task-graph guests take every strategy; 2-D mesh,
    /// torus and 3-D mesh guests take only `Auto` (Theorem 8); binary-tree
    /// guests take `Auto` (subtree blocks) or `Blocked` (heap-order
    /// blocks). See [`plan_placement`](crate::pipeline::plan_placement).
    /// An explicit assignment places any guest.
    InapplicableStrategy,
    /// The builder was configured inconsistently (missing host, a cost
    /// table that does not fit the host, …).
    Config(String),
    /// A configuration value is outside its valid domain (e.g. a
    /// disconnected host). Unlike [`Error::Config`] (free-form,
    /// builder-level inconsistencies) the offending option is named, so
    /// clients — the CLI, the daemon's scenario validator — can point at
    /// the exact field.
    InvalidConfig {
        /// The offending option (`"host"`, …).
        option: &'static str,
        /// Why the value is invalid.
        reason: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Overlap(e) => write!(f, "overlap planning: {e}"),
            Error::Run(e) => write!(f, "engine: {e}"),
            Error::InapplicableStrategy => write!(
                f,
                "strategy does not apply to this guest topology: line, ring and \
                 task-graph guests accept every strategy; mesh, torus and 3-D mesh \
                 guests accept auto; binary-tree guests accept auto or blocked"
            ),
            Error::Config(msg) => write!(f, "configuration: {msg}"),
            Error::InvalidConfig { option, reason } => {
                write!(f, "invalid value for {option}: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Overlap(e) => Some(e),
            Error::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OverlapError> for Error {
    fn from(e: OverlapError) -> Self {
        Error::Overlap(e)
    }
}

impl From<RunError> for Error {
    fn from(e: RunError) -> Self {
        Error::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = OverlapError::HostKilled.into();
        assert!(matches!(e, Error::Overlap(_)));
        assert!(e.to_string().contains("overlap planning"));
        let e: Error = RunError::TickLimit(9).into();
        assert!(matches!(e, Error::Run(RunError::TickLimit(9))));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::Config("no host".into());
        assert!(e.to_string().contains("no host"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::InvalidConfig {
            option: "threads",
            reason: "must be ≥ 1".into(),
        };
        assert!(e.to_string().contains("invalid value for threads"));
    }
}
