//! Error types for ISA construction and assembly parsing.

use std::error::Error;
use std::fmt;

/// Error constructing or validating an ISA-level entity.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// A register name could not be parsed or is out of range.
    BadRegister(String),
    /// A label referenced by a branch was never defined.
    UndefinedLabel(String),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadRegister(name) => write!(f, "invalid register name `{name}`"),
            IsaError::UndefinedLabel(l) => write!(f, "branch to undefined label `{l}`"),
        }
    }
}

impl Error for IsaError {}

/// Error while assembling textual assembly into a [`crate::Program`].
///
/// Carries the 1-based source line on which assembly failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    message: String,
}

impl AsmError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        AsmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending source line.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

impl From<IsaError> for AsmError {
    fn from(err: IsaError) -> Self {
        AsmError::new(0, err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            IsaError::BadRegister("v9".into()).to_string(),
            "invalid register name `v9`"
        );
        assert_eq!(
            IsaError::UndefinedLabel("L1".into()).to_string(),
            "branch to undefined label `L1`"
        );
        let e = AsmError::new(12, "unknown mnemonic `frob`");
        assert_eq!(e.to_string(), "line 12: unknown mnemonic `frob`");
        assert_eq!(e.line(), 12);
    }
}
