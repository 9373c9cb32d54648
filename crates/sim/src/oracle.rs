//! Failure-detector oracles (§3.2).
//!
//! A failure detector `D` with range `R_D` maps a failure pattern to a set
//! of histories `H : Π × T → R_D`. The simulator realizes one history per
//! run: an [`Oracle`] deterministically answers "what does the module of
//! process `p` output at time `t`?". Determinism (same `(p, t)` ⇒ same value)
//! makes histories schedule-independent, exactly as the model requires —
//! the history exists a priori; the schedule merely samples it at query
//! steps (run condition 2 of §3.3).
//!
//! Concrete oracles (Υ, Υ^f, Ω, Ω_k, ◇P, …) live in the `upsilon-fd` crate.

use crate::process::ProcessId;
use crate::time::Time;
use std::fmt;

/// Values a failure-detector history may take.
///
/// This is a blanket-implemented alias for the bounds the simulator needs:
/// histories are recorded into the run trace, compared by spec checkers and
/// returned from runs on the batch pool's worker threads.
pub trait FdValue: Clone + Send + Sync + PartialEq + fmt::Debug + 'static {}

impl<T: Clone + Send + Sync + PartialEq + fmt::Debug + 'static> FdValue for T {}

/// A failure-detector history generator: `H(p, t)`.
///
/// Implementations **must** be deterministic functions of `(p, t)` (plus
/// construction-time parameters such as the failure pattern and a seed);
/// the simulator may query any `(p, t)` at most once but correctness of the
/// model depends on the value being schedule-independent.
pub trait Oracle<D: FdValue>: Send {
    /// The value output by the failure-detector module of `p` at time `t`.
    fn output(&mut self, p: ProcessId, t: Time) -> D;

    /// A short human-readable description for traces and tables.
    fn describe(&self) -> String {
        "oracle".to_string()
    }
}

impl<D: FdValue> Oracle<D> for Box<dyn Oracle<D>> {
    fn output(&mut self, p: ProcessId, t: Time) -> D {
        (**self).output(p, t)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// The *dummy* failure detector of §6.3: it always outputs the same value.
///
/// A dummy failure detector can be implemented in an asynchronous system, so
/// it provides no information about failures; it is the yardstick against
/// which "non-trivial" is defined.
#[derive(Clone, Debug)]
pub struct DummyOracle<D: FdValue> {
    value: D,
}

impl<D: FdValue> DummyOracle<D> {
    /// A dummy detector that constantly outputs `value`.
    pub fn new(value: D) -> Self {
        DummyOracle { value }
    }
}

impl<D: FdValue> Oracle<D> for DummyOracle<D> {
    fn output(&mut self, _p: ProcessId, _t: Time) -> D {
        self.value.clone()
    }

    fn describe(&self) -> String {
        format!("dummy({:?})", self.value)
    }
}

/// The trivial oracle for algorithms that never query a failure detector.
///
/// Its range is the unit type; querying it conveys nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullOracle;

impl Oracle<()> for NullOracle {
    fn output(&mut self, _p: ProcessId, _t: Time) {}

    fn describe(&self) -> String {
        "null".to_string()
    }
}

/// Adapts an oracle for `D1` into an oracle for `D2` through a pure value
/// map — the simulator-level counterpart of a *trivial* reduction such as
/// "output the complement of Ω_n in Π" (§4).
pub struct MappedOracle<D1, D2, O, F> {
    inner: O,
    map: F,
    label: String,
    _marker: std::marker::PhantomData<fn(D1) -> D2>,
}

impl<D1, D2, O, F> std::fmt::Debug for MappedOracle<D1, D2, O, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedOracle")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl<D1, D2, O, F> MappedOracle<D1, D2, O, F>
where
    D1: FdValue,
    D2: FdValue,
    O: Oracle<D1>,
    F: FnMut(ProcessId, Time, D1) -> D2 + Send,
{
    /// Wraps `inner`, transforming every output through `map`.
    pub fn new(inner: O, map: F) -> Self {
        let label = format!("mapped({})", inner.describe());
        MappedOracle {
            inner,
            map,
            label,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<D1, D2, O, F> Oracle<D2> for MappedOracle<D1, D2, O, F>
where
    D1: FdValue,
    D2: FdValue,
    O: Oracle<D1>,
    F: FnMut(ProcessId, Time, D1) -> D2 + Send,
{
    fn output(&mut self, p: ProcessId, t: Time) -> D2 {
        let v = self.inner.output(p, t);
        (self.map)(p, t, v)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_is_constant() {
        let mut d = DummyOracle::new(42u64);
        assert_eq!(d.output(ProcessId(0), Time(0)), 42);
        assert_eq!(d.output(ProcessId(3), Time(1000)), 42);
        assert_eq!(d.describe(), "dummy(42)");
    }

    #[test]
    fn null_oracle_outputs_unit() {
        let mut n = NullOracle;
        n.output(ProcessId(0), Time(5));
        assert_eq!(n.describe(), "null");
    }

    #[test]
    fn mapped_oracle_transforms_values() {
        let mut m = MappedOracle::new(DummyOracle::new(10u64), |_p, _t, v: u64| v * 2);
        assert_eq!(m.output(ProcessId(1), Time(3)), 20);
        assert!(m.describe().contains("dummy"));
    }

    #[test]
    fn boxed_oracle_dispatches() {
        let mut b: Box<dyn Oracle<u64>> = Box::new(DummyOracle::new(7u64));
        assert_eq!(b.output(ProcessId(0), Time(0)), 7);
    }
}
