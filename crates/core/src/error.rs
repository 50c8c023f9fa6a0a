//! Structured errors for the batched public API.
//!
//! Every `run_*` entry point returns `Result<_, ReglaError>` instead of
//! panicking: malformed shapes and options are reported as values, and
//! simulator-side launch failures (device-limit violations, contained
//! kernel panics) are wrapped so a caller can match on the cause. The
//! remaining panics in this crate are internal invariants, unreachable
//! from the public API.

use regla_gpu_sim::LaunchError;

/// Error returned by the batched `api::*` entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReglaError {
    /// An option combination is invalid (e.g. `force_threads` that is not
    /// a perfect square, `panel == 0` on the tiled path).
    InvalidConfig(String),
    /// The input batches have incompatible or unsupported shapes.
    DimensionMismatch(String),
    /// The batch holds zero problems.
    EmptyBatch,
    /// The requested operation has no kernel on the chosen path.
    Unsupported(String),
    /// The simulated device rejected or aborted the launch.
    Launch(LaunchError),
    /// No fleet device can take work: every circuit breaker is open (or
    /// the fleet has no devices) and the CPU degraded mode is disabled.
    /// Structured so callers can shed load instead of hanging.
    FleetUnavailable(String),
}

impl From<LaunchError> for ReglaError {
    fn from(e: LaunchError) -> Self {
        ReglaError::Launch(e)
    }
}

impl std::fmt::Display for ReglaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReglaError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ReglaError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            ReglaError::EmptyBatch => write!(f, "the batch holds zero problems"),
            ReglaError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            ReglaError::Launch(e) => write!(f, "launch failed: {e}"),
            ReglaError::FleetUnavailable(msg) => {
                write!(f, "fleet unavailable: {msg}")
            }
        }
    }
}

impl std::error::Error for ReglaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReglaError::Launch(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_errors_wrap_with_source() {
        let e = ReglaError::from(LaunchError::EmptyGrid);
        assert!(matches!(e, ReglaError::Launch(LaunchError::EmptyGrid)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("launch failed"));
    }

    #[test]
    fn display_is_informative() {
        let e = ReglaError::InvalidConfig("panel must be >= 1".into());
        assert!(e.to_string().contains("panel must be >= 1"));
    }
}
