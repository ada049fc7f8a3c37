//! Monoid aggregators, as in Pregel/Giraph.
//!
//! Each vertex may fold values into named aggregators during a superstep;
//! the merged result is visible to every vertex (and the master) in the
//! *next* superstep. Aggregators are reset to the operation's identity at
//! the start of every superstep unless declared `persistent`.

/// A dynamically-typed aggregator value. Using a small closed enum keeps the
/// engine free of type-erasure machinery while covering every aggregator the
//  twenty workloads need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// Signed integer payload.
    I64(i64),
    /// Floating payload.
    F64(f64),
    /// Boolean payload.
    Bool(bool),
}

/// A dynamic-type error from an aggregator accessor or fold: the payload's
/// variant did not match what the caller (or the fold operation) expected.
///
/// Carried by the `try_*` accessors so a service layer can turn a malformed
/// request into an error response instead of unwinding an executor thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggTypeMismatch {
    /// The variant the caller expected (`"I64"`, `"F64"`, `"Bool"`).
    pub expected: &'static str,
    /// The value actually held.
    pub got: AggValue,
}

impl std::fmt::Display for AggTypeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {}, got {:?}", self.expected, self.got)
    }
}

impl std::error::Error for AggTypeMismatch {}

impl AggValue {
    /// Extracts an `i64`, or reports the mismatch.
    pub fn try_as_i64(self) -> Result<i64, AggTypeMismatch> {
        match self {
            AggValue::I64(v) => Ok(v),
            got => Err(AggTypeMismatch {
                expected: "I64",
                got,
            }),
        }
    }

    /// Extracts an `f64`, or reports the mismatch.
    pub fn try_as_f64(self) -> Result<f64, AggTypeMismatch> {
        match self {
            AggValue::F64(v) => Ok(v),
            got => Err(AggTypeMismatch {
                expected: "F64",
                got,
            }),
        }
    }

    /// Extracts a `bool`, or reports the mismatch.
    pub fn try_as_bool(self) -> Result<bool, AggTypeMismatch> {
        match self {
            AggValue::Bool(v) => Ok(v),
            got => Err(AggTypeMismatch {
                expected: "Bool",
                got,
            }),
        }
    }

    /// Whether this value's variant matches an expected-variant name.
    fn try_matches(&self, expected: &str) -> bool {
        matches!(
            (self, expected),
            (AggValue::I64(_), "I64") | (AggValue::F64(_), "F64") | (AggValue::Bool(_), "Bool")
        )
    }

    /// Extracts an `i64`, panicking on type mismatch (an aggregator misuse
    /// inside an in-tree algorithm is a programming error, not a runtime
    /// condition; fallible callers use [`AggValue::try_as_i64`]).
    pub fn as_i64(self) -> i64 {
        self.try_as_i64()
            .unwrap_or_else(|e| panic!("aggregator type mismatch: {e}"))
    }

    /// Extracts an `f64`, panicking on type mismatch.
    pub fn as_f64(self) -> f64 {
        self.try_as_f64()
            .unwrap_or_else(|e| panic!("aggregator type mismatch: {e}"))
    }

    /// Extracts a `bool`, panicking on type mismatch.
    pub fn as_bool(self) -> bool {
        self.try_as_bool()
            .unwrap_or_else(|e| panic!("aggregator type mismatch: {e}"))
    }
}

/// The fold operation of an aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Integer sum; identity 0.
    SumI64,
    /// Float sum; identity 0.0.
    SumF64,
    /// Integer minimum; identity `i64::MAX`.
    MinI64,
    /// Integer maximum; identity `i64::MIN`.
    MaxI64,
    /// Float minimum; identity `f64::INFINITY`.
    MinF64,
    /// Float maximum; identity `f64::NEG_INFINITY`.
    MaxF64,
    /// Logical conjunction; identity `true`.
    And,
    /// Logical disjunction; identity `false`.
    Or,
}

impl AggOp {
    /// The identity element of the monoid.
    pub fn identity(self) -> AggValue {
        match self {
            AggOp::SumI64 => AggValue::I64(0),
            AggOp::SumF64 => AggValue::F64(0.0),
            AggOp::MinI64 => AggValue::I64(i64::MAX),
            AggOp::MaxI64 => AggValue::I64(i64::MIN),
            AggOp::MinF64 => AggValue::F64(f64::INFINITY),
            AggOp::MaxF64 => AggValue::F64(f64::NEG_INFINITY),
            AggOp::And => AggValue::Bool(true),
            AggOp::Or => AggValue::Bool(false),
        }
    }

    /// Folds `v` into `acc`, or reports which operand's type was wrong.
    pub fn try_fold(self, acc: &mut AggValue, v: AggValue) -> Result<(), AggTypeMismatch> {
        match (self, acc, v) {
            (AggOp::SumI64, AggValue::I64(a), AggValue::I64(b)) => *a += b,
            (AggOp::SumF64, AggValue::F64(a), AggValue::F64(b)) => *a += b,
            (AggOp::MinI64, AggValue::I64(a), AggValue::I64(b)) => *a = (*a).min(b),
            (AggOp::MaxI64, AggValue::I64(a), AggValue::I64(b)) => *a = (*a).max(b),
            (AggOp::MinF64, AggValue::F64(a), AggValue::F64(b)) => *a = a.min(b),
            (AggOp::MaxF64, AggValue::F64(a), AggValue::F64(b)) => *a = a.max(b),
            (AggOp::And, AggValue::Bool(a), AggValue::Bool(b)) => *a &= b,
            (AggOp::Or, AggValue::Bool(a), AggValue::Bool(b)) => *a |= b,
            (op, acc, v) => {
                let expected = match op {
                    AggOp::SumI64 | AggOp::MinI64 | AggOp::MaxI64 => "I64",
                    AggOp::SumF64 | AggOp::MinF64 | AggOp::MaxF64 => "F64",
                    AggOp::And | AggOp::Or => "Bool",
                };
                let got = if acc.try_matches(expected) { v } else { *acc };
                return Err(AggTypeMismatch { expected, got });
            }
        }
        Ok(())
    }

    /// Folds `v` into `acc`, panicking on type mismatch; fallible callers
    /// use [`AggOp::try_fold`].
    pub fn fold(self, acc: &mut AggValue, v: AggValue) {
        if let Err(e) = self.try_fold(acc, v) {
            panic!("aggregator type mismatch for {self:?}: {e}");
        }
    }
}

/// Declaration of one aggregator, returned by
/// [`crate::VertexProgram::aggregators`].
#[derive(Debug, Clone, Copy)]
pub struct AggregatorDef {
    /// Diagnostic name.
    pub name: &'static str,
    /// The fold operation.
    pub op: AggOp,
}

impl AggregatorDef {
    /// Convenience constructor.
    pub const fn new(name: &'static str, op: AggOp) -> Self {
        AggregatorDef { name, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(AggOp::SumI64.identity(), AggValue::I64(0));
        assert_eq!(AggOp::MinI64.identity(), AggValue::I64(i64::MAX));
        assert_eq!(AggOp::And.identity(), AggValue::Bool(true));
        assert_eq!(AggOp::Or.identity(), AggValue::Bool(false));
    }

    #[test]
    fn folds() {
        let mut acc = AggOp::SumI64.identity();
        AggOp::SumI64.fold(&mut acc, AggValue::I64(3));
        AggOp::SumI64.fold(&mut acc, AggValue::I64(4));
        assert_eq!(acc.as_i64(), 7);

        let mut acc = AggOp::MinF64.identity();
        AggOp::MinF64.fold(&mut acc, AggValue::F64(2.5));
        AggOp::MinF64.fold(&mut acc, AggValue::F64(1.5));
        assert_eq!(acc.as_f64(), 1.5);

        let mut acc = AggOp::Or.identity();
        AggOp::Or.fold(&mut acc, AggValue::Bool(false));
        assert!(!acc.as_bool());
        AggOp::Or.fold(&mut acc, AggValue::Bool(true));
        assert!(acc.as_bool());
    }

    #[test]
    fn fold_is_associative_sample() {
        // (a + b) + c == a + (b + c) for the integer sum monoid.
        let mut left = AggValue::I64(1);
        AggOp::SumI64.fold(&mut left, AggValue::I64(2));
        AggOp::SumI64.fold(&mut left, AggValue::I64(3));
        let mut right = AggValue::I64(2);
        AggOp::SumI64.fold(&mut right, AggValue::I64(3));
        let mut outer = AggValue::I64(1);
        AggOp::SumI64.fold(&mut outer, right);
        assert_eq!(left, outer);
    }

    #[test]
    fn try_accessors_succeed_on_matching_type() {
        assert_eq!(AggValue::I64(3).try_as_i64(), Ok(3));
        assert_eq!(AggValue::F64(2.5).try_as_f64(), Ok(2.5));
        assert_eq!(AggValue::Bool(true).try_as_bool(), Ok(true));
    }

    #[test]
    fn try_accessors_report_mismatch_without_panicking() {
        let err = AggValue::I64(3).try_as_f64().unwrap_err();
        assert_eq!(err.expected, "F64");
        assert_eq!(err.got, AggValue::I64(3));
        assert_eq!(err.to_string(), "expected F64, got I64(3)");
        assert!(AggValue::F64(1.0).try_as_i64().is_err());
        assert!(AggValue::I64(0).try_as_bool().is_err());
        assert!(AggValue::Bool(false).try_as_f64().is_err());
    }

    #[test]
    fn try_fold_reports_the_offending_operand() {
        // Wrong value operand: the accumulator is fine.
        let mut acc = AggOp::SumI64.identity();
        let err = AggOp::SumI64
            .try_fold(&mut acc, AggValue::F64(1.0))
            .unwrap_err();
        assert_eq!(err.expected, "I64");
        assert_eq!(err.got, AggValue::F64(1.0));
        // Wrong accumulator: reported even when the value matches.
        let mut acc = AggValue::Bool(true);
        let err = AggOp::MinF64
            .try_fold(&mut acc, AggValue::F64(0.5))
            .unwrap_err();
        assert_eq!(err.expected, "F64");
        assert_eq!(err.got, AggValue::Bool(true));
        // The accumulator is untouched by a failed fold.
        assert_eq!(acc, AggValue::Bool(true));
    }

    #[test]
    fn try_fold_matches_fold_on_well_typed_input() {
        let mut a = AggOp::MaxI64.identity();
        let mut b = AggOp::MaxI64.identity();
        for v in [3, -1, 7, 5] {
            AggOp::MaxI64.fold(&mut a, AggValue::I64(v));
            AggOp::MaxI64.try_fold(&mut b, AggValue::I64(v)).unwrap();
        }
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn mismatch_panics() {
        let mut acc = AggOp::SumI64.identity();
        AggOp::SumI64.fold(&mut acc, AggValue::F64(1.0));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn as_wrong_type_panics() {
        AggValue::I64(3).as_f64();
    }
}
