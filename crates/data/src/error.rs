//! Error types for dataset import/export.

use std::fmt;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Structural or numeric problem in the file, with row context.
    Format(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "dataset I/O: {e}"),
            IoError::Format(m) => write!(f, "dataset format: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}
