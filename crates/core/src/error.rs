//! Error type for the LAORAM layer.

use std::error::Error;
use std::fmt;

use oram_protocol::ProtocolError;

/// Errors produced by the look-ahead client.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaOramError {
    /// The underlying protocol failed.
    Protocol(ProtocolError),
    /// An access did not match the preprocessed plan: LAORAM is
    /// trace-driven, the request stream must equal the look-ahead stream.
    PlanDivergence {
        /// Stream position at which the divergence occurred.
        position: usize,
        /// Index the plan expected.
        expected: u32,
        /// Index actually requested.
        got: u32,
    },
    /// More accesses were issued than the plan contains.
    StreamExhausted {
        /// Length of the planned stream.
        planned: usize,
    },
    /// A new plan window was installed before the current one finished.
    PlanIncomplete {
        /// Accesses served from the current window.
        served: usize,
        /// Accesses the current window plans.
        planned: usize,
    },
    /// A plan window was staged while another staged window was pending —
    /// staging is a one-slot handoff to the next activation.
    PlanBacklog,
    /// [`advance_plan`](crate::LaOram::advance_plan) was called with no
    /// staged window.
    NoStagedPlan,
    /// Configuration rejected at construction time.
    InvalidConfig(String),
    /// A fused update's optimizer family or gradient width disagrees
    /// with the declared [`OptimizerLayout`](crate::OptimizerLayout).
    UpdateMismatch {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for LaOramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaOramError::Protocol(e) => write!(f, "protocol error: {e}"),
            LaOramError::PlanDivergence { position, expected, got } => write!(
                f,
                "access {got} at position {position} diverges from the planned index {expected}"
            ),
            LaOramError::StreamExhausted { planned } => {
                write!(f, "planned stream of {planned} accesses already exhausted")
            }
            LaOramError::PlanIncomplete { served, planned } => {
                write!(f, "current plan window only served {served} of {planned} accesses")
            }
            LaOramError::PlanBacklog => {
                write!(f, "a staged plan window is already pending")
            }
            LaOramError::NoStagedPlan => {
                write!(f, "no staged plan window to advance to")
            }
            LaOramError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            LaOramError::UpdateMismatch { detail } => {
                write!(f, "fused update does not match the optimizer layout: {detail}")
            }
        }
    }
}

impl Error for LaOramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LaOramError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for LaOramError {
    fn from(e: ProtocolError) -> Self {
        LaOramError::Protocol(e)
    }
}

impl From<oram_tree::TreeError> for LaOramError {
    fn from(e: oram_tree::TreeError) -> Self {
        LaOramError::Protocol(ProtocolError::Tree(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LaOramError::PlanDivergence { position: 3, expected: 1, got: 2 };
        assert!(e.to_string().contains("position 3"));
        let e = LaOramError::StreamExhausted { planned: 10 };
        assert!(e.to_string().contains("10"));
        let e: LaOramError = ProtocolError::PayloadsDisabled.into();
        assert!(e.source().is_some());
    }
}
