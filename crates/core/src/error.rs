//! Error types for configuration construction and move application.

use crate::Move;

/// Errors arising when constructing or changing a [`Config`](crate::Config)
/// or the [`LoadState`](crate::LoadState) books around it.  A failed change
/// leaves everything untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A configuration needs at least one bin.
    NoBins,
    /// A total (balls, weight or rate mass) cannot be represented.
    TotalOverflow,
    /// A bin index is out of range (arrival/departure operations).
    BinOutOfRange {
        /// The offending bin index.
        bin: usize,
        /// Number of bins in the configuration.
        n: usize,
    },
    /// The bin holds no ball to move or remove.
    EmptyBin {
        /// The offending bin index.
        bin: usize,
    },
    /// A move names the same bin as source and destination.
    SelfLoop {
        /// The bin on both ends.
        bin: usize,
    },
    /// The bin has retired: it takes no balls and cannot retire again.
    Retired {
        /// The offending bin index.
        bin: usize,
    },
    /// A retiring bin still holds balls.
    NotEmpty {
        /// The offending bin index.
        bin: usize,
    },
    /// Retiring the bin would leave no live bin.
    LastBin,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NoBins => write!(f, "a configuration requires at least one bin"),
            ConfigError::TotalOverflow => {
                write!(f, "a total (balls, weight or rate) overflows u64")
            }
            ConfigError::BinOutOfRange { bin, n } => {
                write!(f, "bin {bin} is outside 0..{n}")
            }
            ConfigError::EmptyBin { bin } => write!(f, "bin {bin} holds no ball"),
            ConfigError::SelfLoop { bin } => write!(f, "move from bin {bin} to itself"),
            ConfigError::Retired { bin } => write!(f, "bin {bin} is retired"),
            ConfigError::NotEmpty { bin } => write!(f, "bin {bin} still holds balls"),
            ConfigError::LastBin => write!(f, "cannot retire the last live bin"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors arising when applying a [`Move`](crate::Move) to a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoveError {
    /// The source or destination bin index is out of range.
    BinOutOfRange {
        /// The offending move.
        mv: Move,
        /// Number of bins in the configuration.
        n: usize,
    },
    /// The source bin holds no ball to move.
    EmptySource {
        /// The offending move.
        mv: Move,
    },
}

impl core::fmt::Display for MoveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MoveError::BinOutOfRange { mv, n } => {
                write!(f, "move {mv} references a bin outside 0..{n}")
            }
            MoveError::EmptySource { mv } => {
                write!(f, "move {mv} has an empty source bin")
            }
        }
    }
}

impl std::error::Error for MoveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let mv = Move::new(3, 1);
        let e1 = MoveError::BinOutOfRange { mv, n: 2 };
        assert!(e1.to_string().contains("outside 0..2"));
        let e2 = MoveError::EmptySource { mv };
        assert!(e2.to_string().contains("empty source"));
        assert!(ConfigError::NoBins.to_string().contains("at least one bin"));
        assert!(ConfigError::TotalOverflow.to_string().contains("overflows"));
    }
}
