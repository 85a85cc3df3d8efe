use pop_core::CoreError;
use std::error::Error;
use std::fmt;

/// Errors of the scenario/data-generation pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// A scenario failed validation (unknown design preset, zero counts,
    /// out-of-range utilization, …).
    BadScenario(String),
    /// A generation stage failed; carries the first failure in job order.
    Core(CoreError),
    /// A worker died (panicked) before delivering its results, so the
    /// named design's dataset is incomplete.
    Incomplete {
        /// The design whose pairs went missing.
        design: String,
    },
    /// An epoch stream's producer thread panicked before it had sent
    /// every epoch of its range: the stream ends here, short.
    Truncated {
        /// The first epoch that was not delivered.
        epoch: usize,
        /// The producer's panic message.
        panic: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::BadScenario(msg) => write!(f, "bad scenario: {msg}"),
            PipelineError::Core(e) => write!(f, "generation stage failed: {e}"),
            PipelineError::Incomplete { design } => {
                write!(f, "pipeline lost a worker while generating '{design}'")
            }
            PipelineError::Truncated { epoch, panic } => write!(
                f,
                "epoch stream truncated at epoch {epoch}: its producer panicked: {panic}"
            ),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for PipelineError {
    fn from(e: CoreError) -> Self {
        PipelineError::Core(e)
    }
}
