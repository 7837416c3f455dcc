use serde::{Deserialize, Serialize};
use std::fmt;

/// A value paired with the qualifier the paper attaches to every basic
/// operation: "the basic operators should also return a qualifier
/// indicating whether the operation was carried out correctly or not"
/// (§IV).
///
/// `Qualified` is deliberately *not* `Result`: a disqualified operation
/// still carries its (suspect) value, because Algorithm 3 decides what to
/// do next — rollback, retry, or abort — at the call site, and diagnostic
/// paths may still want to inspect the bad value.
///
/// # Example
///
/// ```rust
/// use relcnn_relexec::Qualified;
///
/// let good = Qualified::passed(42.0);
/// let bad = Qualified::failed(41.9);
/// assert!(good.is_ok() && !bad.is_ok());
/// assert_eq!(bad.value(), 41.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Qualified<T> {
    value: T,
    ok: bool,
}

impl<T> Qualified<T> {
    /// Wraps a value whose computation was asserted correct.
    pub fn passed(value: T) -> Self {
        Qualified { value, ok: true }
    }

    /// Wraps a value whose computation failed qualification.
    pub fn failed(value: T) -> Self {
        Qualified { value, ok: false }
    }

    /// Wraps a value with an explicit qualifier.
    pub fn new(value: T, ok: bool) -> Self {
        Qualified { value, ok }
    }

    /// Whether the operation qualified as correct.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Converts to `Some(value)` when qualified, `None` otherwise.
    pub fn ok(self) -> Option<T> {
        if self.ok {
            Some(self.value)
        } else {
            None
        }
    }

    /// Maps the value, preserving the qualifier.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Qualified<U> {
        Qualified {
            value: f(self.value),
            ok: self.ok,
        }
    }

    /// Combines two qualified values; the result qualifies only when both
    /// inputs did (qualifier conjunction — how a chain of qualified
    /// operations composes).
    pub fn zip<U>(self, other: Qualified<U>) -> Qualified<(T, U)> {
        Qualified {
            value: (self.value, other.value),
            ok: self.ok && other.ok,
        }
    }
}

impl<T: Copy> Qualified<T> {
    /// The (possibly suspect) value.
    pub fn value(&self) -> T {
        self.value
    }
}

impl<T: fmt::Display> fmt::Display for Qualified<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]",
            self.value,
            if self.ok { "ok" } else { "FAILED" }
        )
    }
}

impl<T> From<Qualified<T>> for Option<T> {
    fn from(q: Qualified<T>) -> Option<T> {
        q.ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let g = Qualified::passed(7);
        assert!(g.is_ok());
        assert_eq!(g.value(), 7);

        let b = Qualified::failed(9);
        assert!(!b.is_ok());
        assert_eq!(b.value(), 9);

        assert!(Qualified::new(1, true).is_ok());
        assert!(!Qualified::new(1, false).is_ok());
    }

    #[test]
    fn ok_conversion() {
        assert_eq!(Qualified::passed(3).ok(), Some(3));
        assert_eq!(Qualified::failed(3).ok(), None);
        let opt: Option<i32> = Qualified::passed(5).into();
        assert_eq!(opt, Some(5));
    }

    #[test]
    fn map_preserves_qualifier() {
        let q = Qualified::failed(2).map(|v| v * 10);
        assert_eq!(q.value(), 20);
        assert!(!q.is_ok());
        let p = Qualified::passed(2).map(|v| v + 1);
        assert!(p.is_ok());
    }

    #[test]
    fn zip_is_conjunction() {
        assert!(Qualified::passed(1).zip(Qualified::passed(2)).is_ok());
        assert!(!Qualified::passed(1).zip(Qualified::failed(2)).is_ok());
        assert!(!Qualified::failed(1).zip(Qualified::passed(2)).is_ok());
        let z = Qualified::passed("a").zip(Qualified::passed(9));
        assert_eq!(z.value(), ("a", 9));
    }

    #[test]
    fn display_marks_failures() {
        assert_eq!(Qualified::passed(1.5).to_string(), "1.5 [ok]");
        assert!(Qualified::failed(0.0).to_string().contains("FAILED"));
    }
}
