use std::error::Error;
use std::fmt;

/// Errors produced by the serving engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is at capacity (backpressure signal of
    /// [`try_submit`](crate::ForecastClient::try_submit)).
    QueueFull,
    /// The engine is shutting down (or has shut down) and no longer accepts
    /// or can complete requests.
    ShuttingDown,
    /// The input tensor does not match the served model's expected shape.
    BadInput(String),
    /// The engine configuration is invalid (zero batch size, capacity or
    /// worker count).
    BadConfig(String),
    /// Model loading or inference failed.
    Model(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "forecast queue is full"),
            ServeError::ShuttingDown => write!(f, "forecast engine is shutting down"),
            ServeError::BadInput(m) => write!(f, "bad forecast input: {m}"),
            ServeError::BadConfig(m) => write!(f, "bad engine config: {m}"),
            ServeError::Model(m) => write!(f, "forecast model failed: {m}"),
        }
    }
}

impl Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ServeError::QueueFull.to_string().contains("full"));
        assert!(ServeError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(ServeError::BadInput("x".into()).to_string().contains("x"));
        assert!(ServeError::BadConfig("w".into()).to_string().contains("w"));
        assert!(ServeError::Model("y".into()).to_string().contains("y"));
    }
}
