//! Process-orbit classes of the `upsilon-check` sample portfolio.
//!
//! GENERATED by `upsilon-symmetry` — do not edit by hand. Regenerate with:
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- symmetry --emit > crates/sim/src/symmetry.rs
//! ```
//!
//! An orbit declares which processes of a checked protocol are
//! *interchangeable*: the whole configuration (algorithm closures, initial
//! inputs, specification and FD menu) is invariant under any permutation
//! that maps each orbit class to itself. The explorer uses this to collapse
//! symmetric crash injections and to canonicalize fingerprints up to
//! within-class renaming. Anything the analyzer cannot certify is
//! [`Orbit::Trivial`], under which the reduction is the identity — an
//! unknown sample can cost reduction, never soundness. CI fails if this
//! file drifts from the analyzer's output (`--emit | diff`).

/// The orbit structure of a sample's `n + 1` processes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Orbit {
    /// All processes are interchangeable.
    Full,
    /// Processes `p_0 … p_{n-1}` are interchangeable; the last process
    /// is pinned (the menu distinguishes exactly it).
    PinnedLast,
    /// No two processes may be identified; symmetry reduction is the
    /// identity.
    Trivial,
}

impl Orbit {
    /// The orbit-class index of each of the `n` processes. Processes
    /// with equal class are interchangeable.
    #[must_use]
    pub fn class_of(self, n: usize) -> Vec<u32> {
        match self {
            Orbit::Full => vec![0; n],
            Orbit::PinnedLast => {
                let mut v = vec![0; n];
                if let Some(last) = v.last_mut() {
                    *last = 1;
                }
                v
            }
            Orbit::Trivial => (0..n as u32).collect(),
        }
    }

    /// Whether the orbit admits no reduction at all.
    #[must_use]
    pub fn is_trivial(self) -> bool {
        matches!(self, Orbit::Trivial)
    }
}

/// The certified orbit of a sample constructor, by function name.
/// Unknown names yield [`Orbit::Trivial`], the sound default.
#[must_use]
pub fn sample_orbit(sample: &str) -> Orbit {
    match sample {
        // an algorithm closure in the constructor breaks symmetry (see the routine verdicts)
        "converge_offby1" => Orbit::Trivial,
        // distinct per-process proposals are asymmetric initial values
        "fig1" => Orbit::Trivial,
        // distinct per-process proposals are asymmetric initial values
        "fig1_mutating" => Orbit::Trivial,
        // distinct per-process proposals are asymmetric initial values
        "fig2" => Orbit::Trivial,
        // distinct per-process proposals are asymmetric initial values
        "fig2_dropped_write" => Orbit::Trivial,
        // the menu pins the last process's FD history, distinguishing exactly it
        "pinned_upsilon" => Orbit::PinnedLast,
        // an algorithm closure in the constructor breaks symmetry (see the routine verdicts)
        "snapshot_commit" => Orbit::Trivial,
        // identical pid-parametric algorithm closures, uniform inputs and menu
        "stable_report" => Orbit::Full,
        _ => Orbit::Trivial,
    }
}
