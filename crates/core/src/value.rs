//! Communicator values, including the distinguished unreliable symbol ⊥.
//!
//! The paper extends every communicator data type with "a special symbol ⊥
//! to represent unreliable communicator values; a non-⊥ value indicates that
//! the communicator has a reliable value". [`Value::Unreliable`] is that
//! symbol; it inhabits every [`ValueType`].

use std::fmt;

/// The type of a communicator's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean values.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE floating point.
    Float,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Bool => write!(f, "bool"),
            ValueType::Int => write!(f, "int"),
            ValueType::Float => write!(f, "float"),
        }
    }
}

impl ValueType {
    /// A canonical zero-like default of this type (used when a declaration
    /// omits an initial value).
    pub fn zero(self) -> Value {
        match self {
            ValueType::Bool => Value::Bool(false),
            ValueType::Int => Value::Int(0),
            ValueType::Float => Value::Float(0.0),
        }
    }
}

/// A communicator value: either the unreliable symbol ⊥ or a typed payload.
///
/// # Example
///
/// ```
/// use logrel_core::{Value, ValueType};
///
/// let v = Value::Float(1.5);
/// assert!(v.is_reliable());
/// assert!(v.has_type(ValueType::Float));
/// // ⊥ inhabits every type:
/// assert!(Value::Unreliable.has_type(ValueType::Bool));
/// assert!(!Value::Unreliable.is_reliable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// The unreliable symbol ⊥.
    Unreliable,
    /// A reliable boolean.
    Bool(bool),
    /// A reliable integer.
    Int(i64),
    /// A reliable float.
    Float(f64),
}

impl Value {
    /// Returns `true` for any non-⊥ value.
    pub fn is_reliable(&self) -> bool {
        !matches!(self, Value::Unreliable)
    }

    /// Returns `true` if this value inhabits `ty` (⊥ inhabits every type).
    pub fn has_type(&self, ty: ValueType) -> bool {
        matches!(
            (self, ty),
            (Value::Unreliable, _)
                | (Value::Bool(_), ValueType::Bool)
                | (Value::Int(_), ValueType::Int)
                | (Value::Float(_), ValueType::Float)
        )
    }

    /// Extracts a float payload.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The reliability abstraction of §2: maps a value to `1` if reliable,
    /// `0` if ⊥.
    pub fn abstraction(&self) -> u8 {
        if self.is_reliable() {
            1
        } else {
            0
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unreliable => write!(f, "⊥"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_inhabits_every_type() {
        for ty in [ValueType::Bool, ValueType::Int, ValueType::Float] {
            assert!(Value::Unreliable.has_type(ty));
        }
    }

    #[test]
    fn typed_values_match_only_their_type() {
        assert!(Value::Bool(true).has_type(ValueType::Bool));
        assert!(!Value::Bool(true).has_type(ValueType::Int));
        assert!(Value::Int(3).has_type(ValueType::Int));
        assert!(!Value::Int(3).has_type(ValueType::Float));
        assert!(Value::Float(0.5).has_type(ValueType::Float));
        assert!(!Value::Float(0.5).has_type(ValueType::Bool));
    }

    #[test]
    fn abstraction_matches_reliability() {
        assert_eq!(Value::Unreliable.abstraction(), 0);
        assert_eq!(Value::Int(0).abstraction(), 1);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Unreliable.as_float(), None);
        assert_eq!(Value::Int(7).as_float(), None);
    }

    #[test]
    fn zero_defaults_have_right_type() {
        for ty in [ValueType::Bool, ValueType::Int, ValueType::Float] {
            assert!(ty.zero().has_type(ty));
            assert!(ty.zero().is_reliable());
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Value::Unreliable.to_string(), "⊥");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(ValueType::Float.to_string(), "float");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
    }
}
