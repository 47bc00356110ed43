//! Simulator errors.

use std::error::Error;
use std::fmt;

/// Error during a simulated run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The run exceeded the configured instruction limit (runaway loop).
    InstructionLimit {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// Control flow ran past the last instruction without a `halt`.
    FellOffEnd {
        /// Program counter at which the fetch failed.
        pc: usize,
    },
    /// A scalar or vector memory access used a byte address that is
    /// negative, unaligned, or past the end of the data space. For a
    /// vector access this is its first or last element's address.
    BadAddress {
        /// The offending byte address.
        byte_addr: i64,
    },
    /// Instruction not supported by this simulator build.
    Unsupported {
        /// Program counter of the instruction.
        pc: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InstructionLimit { limit } => {
                write!(f, "instruction limit of {limit} exceeded (runaway loop?)")
            }
            SimError::FellOffEnd { pc } => {
                write!(f, "control flow ran past the end of the program at pc {pc}")
            }
            SimError::BadAddress { byte_addr } => {
                write!(
                    f,
                    "byte address {byte_addr} is negative, unaligned or outside the data space"
                )
            }
            SimError::Unsupported { pc } => write!(f, "unsupported instruction at pc {pc}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SimError::InstructionLimit { limit: 5 }
            .to_string()
            .contains("5"));
        assert!(SimError::FellOffEnd { pc: 3 }.to_string().contains("pc 3"));
        assert!(SimError::BadAddress { byte_addr: -8 }
            .to_string()
            .contains("-8"));
    }
}
