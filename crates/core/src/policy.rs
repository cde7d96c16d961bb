//! Per-invocation execution policy: what happens when one extension run
//! faults.
//!
//! The policy is the operator-facing half of the execution contract
//! (DESIGN.md §4d). Each manifest entry may carry a `fuel` budget and an
//! `on_fault` disposition; the VMM fills in its global default for a
//! missing budget.

/// What the VMM does when an extension faults (trap, fuel exhaustion, or
/// a non-recoverable host error).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFault {
    /// Roll back staged mutations and fall through to the host's native
    /// behaviour — the paper's default: a broken extension degrades to
    /// stock BGP, never to a broken router.
    #[default]
    Fallback,
    /// Roll back staged mutations and tell the host to *fail closed*:
    /// filter points reject the route, other points keep native
    /// behaviour. For extensions whose absence must not silently widen
    /// policy (e.g. a security filter).
    Abort,
}

impl OnFault {
    /// Manifest/JSON spelling of this disposition.
    pub fn as_str(self) -> &'static str {
        match self {
            OnFault::Fallback => "fallback",
            OnFault::Abort => "abort",
        }
    }

    /// Parse the manifest spelling.
    pub fn parse(s: &str) -> Result<OnFault, String> {
        match s {
            "fallback" => Ok(OnFault::Fallback),
            "abort" => Ok(OnFault::Abort),
            other => Err(format!("unknown on_fault `{other}` (expected `fallback` or `abort`)")),
        }
    }
}
