//! Error types shared by the SDF model and everything built on top of it.

use std::error::Error;
use std::fmt;

use crate::graph::{ActorId, EdgeId};

/// Errors produced while constructing, analysing or executing SDF graphs and
/// schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdfError {
    /// An actor id did not belong to the graph it was used with.
    UnknownActor(ActorId),
    /// An edge id did not belong to the graph it was used with.
    UnknownEdge(EdgeId),
    /// An edge was declared with a zero production or consumption rate.
    ZeroRate {
        /// Source actor of the offending edge.
        src: ActorId,
        /// Sink actor of the offending edge.
        snk: ActorId,
    },
    /// The balance equations have no positive solution: the graph is
    /// sample-rate inconsistent and admits no valid schedule.
    Inconsistent {
        /// The first edge whose balance equation failed.
        edge: EdgeId,
    },
    /// The graph contains a delayless cycle (or the schedule ran out of
    /// tokens), so execution cannot make progress.
    Deadlock {
        /// The actor that could not fire.
        actor: ActorId,
    },
    /// An operation requiring an acyclic graph was applied to a cyclic one.
    Cyclic,
    /// An operation requiring a connected graph was applied to a
    /// disconnected one.
    Disconnected,
    /// An operation requiring a chain-structured graph was applied to a
    /// graph that is not a chain.
    NotChainStructured,
    /// The graph has no actors.
    EmptyGraph,
    /// A schedule did not fire every actor the number of times required by
    /// the repetitions vector, or left tokens displaced from their initial
    /// state.
    InvalidSchedule(String),
    /// A schedule that must be single-appearance mentioned some actor more
    /// than once (or not at all).
    NotSingleAppearance(ActorId),
    /// An exact integer quantity the analysis needs (such as a
    /// repetitions count) does not fit in a `u64`.
    Overflow(String),
    /// A text input is malformed; [`crate::lex`] has the grammar.
    Parse {
        /// The 1-based line of the fault.
        line: usize,
        /// What is wrong, then (usually) the line as written.
        message: String,
    },
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnknownActor(a) => write!(f, "actor {a} does not belong to this graph"),
            SdfError::UnknownEdge(e) => write!(f, "edge {e} does not belong to this graph"),
            SdfError::ZeroRate { src, snk } => {
                write!(
                    f,
                    "edge {src} -> {snk} has a zero production or consumption rate"
                )
            }
            SdfError::Inconsistent { edge } => {
                write!(
                    f,
                    "balance equation violated on edge {edge}: graph is inconsistent"
                )
            }
            SdfError::Deadlock { actor } => {
                write!(
                    f,
                    "actor {actor} cannot fire: insufficient input tokens (deadlock)"
                )
            }
            SdfError::Cyclic => write!(f, "operation requires an acyclic graph"),
            SdfError::Disconnected => write!(f, "operation requires a connected graph"),
            SdfError::NotChainStructured => {
                write!(f, "operation requires a chain-structured graph")
            }
            SdfError::EmptyGraph => write!(f, "graph has no actors"),
            SdfError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            SdfError::NotSingleAppearance(a) => {
                write!(f, "schedule is not single-appearance for actor {a}")
            }
            SdfError::Overflow(what) => write!(f, "arithmetic overflow: {what}"),
            SdfError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl Error for SdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SdfError::ZeroRate {
            src: ActorId::from_index(0),
            snk: ActorId::from_index(1),
        };
        let msg = e.to_string();
        assert!(msg.contains("zero production or consumption"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_trait_object() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SdfError>();
    }
}
