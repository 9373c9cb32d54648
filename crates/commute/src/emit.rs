//! Generation of `crates/sim/src/commute.rs` from the derived matrices.
//!
//! The output is deterministic: object kinds are emitted in lexicographic
//! type-name order and variants in lexicographic variant order, so the
//! generated file is a pure function of the analyzed sources. CI diffs the
//! emitter's output against the checked-in file to catch drift.

use crate::audit::{DerivedImpl, Verdict};

/// Renders the complete generated source file.
pub fn render(impls: &[DerivedImpl]) -> String {
    let mut sorted: Vec<&DerivedImpl> = impls.iter().collect();
    sorted.sort_by(|a, b| a.object.type_name.cmp(&b.object.type_name));

    let mut out = String::new();
    out.push_str(
        "//! Per-op-pair commutativity matrix for the shared objects in `crates/mem`.\n\
         //!\n\
         //! GENERATED by `upsilon-commute` — do not edit by hand. Regenerate with:\n\
         //!\n\
         //! ```text\n\
         //! cargo run -p upsilon-analysis --bin analyze -- commute --emit > crates/sim/src/commute.rs\n\
         //! ```\n\
         //!\n\
         //! For every ordered pair of op variants of each analyzed\n\
         //! [`ObjectType`](crate::ObjectType), the analyzer derives whether the two\n\
         //! operations provably commute — both orders yield identical object state\n\
         //! and identical responses from every starting state — possibly conditioned\n\
         //! on the ops' rendered arguments. Verdicts only ever *remove* conflicts\n\
         //! the `Access` lattice over-approximates; anything underivable stays\n\
         //! [`Verdict::Conflict`]. CI fails if this file drifts from the analyzer's\n\
         //! output (`--emit | diff`).\n\n",
    );

    // ObjKind enum.
    out.push_str(
        "/// Object types analyzed by `upsilon-commute`, by base type name.\n\
         #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]\n\
         pub enum ObjKind {\n",
    );
    for d in &sorted {
        out.push_str(&format!(
            "    /// `{}` ({}).\n    {},\n",
            d.object.type_name, d.object.file, d.object.type_name
        ));
    }
    out.push_str("}\n\n");

    // Verdict enum (fixed).
    out.push_str(
        "/// The derived commutativity verdict for an ordered pair of op variants.\n\
         #[derive(Clone, Copy, PartialEq, Eq, Debug)]\n\
         pub enum Verdict {\n\
         \x20   /// The pair may not be reordered (or commutation could not be proved).\n\
         \x20   Conflict,\n\
         \x20   /// The pair commutes for every argument instantiation.\n\
         \x20   Commute,\n\
         \x20   /// The pair commutes when an argument condition holds.\n\
         \x20   CommuteIf {\n\
         \x20       /// Commutes when the two ops' cell-selecting arguments differ.\n\
         \x20       distinct_cell: bool,\n\
         \x20       /// Commutes when the two ops render identical argument lists.\n\
         \x20       equal_args: bool,\n\
         \x20   },\n\
         }\n\n",
    );

    // obj_kind.
    out.push_str(
        "/// Maps a base type name (module path and generics stripped) to its kind.\n\
         pub fn obj_kind(base: &str) -> Option<ObjKind> {\n\
         \x20   match base {\n",
    );
    for d in &sorted {
        out.push_str(&format!(
            "        \"{0}\" => Some(ObjKind::{0}),\n",
            d.object.type_name
        ));
    }
    out.push_str("        _ => None,\n    }\n}\n\n");

    // arity.
    out.push_str(
        "/// Number of arguments the variant's `Debug` rendering carries.\n\
         pub fn arity(kind: ObjKind, variant: &str) -> Option<usize> {\n\
         \x20   match (kind, variant) {\n",
    );
    for d in &sorted {
        let mut variants: Vec<(&str, usize)> = d
            .object
            .variants
            .iter()
            .map(|v| (v.name.as_str(), v.binders.len()))
            .collect();
        variants.sort_unstable();
        for (name, arity) in variants {
            out.push_str(&format!(
                "        (ObjKind::{}, \"{name}\") => Some({arity}),\n",
                d.object.type_name
            ));
        }
    }
    out.push_str("        _ => None,\n    }\n}\n\n");

    // cell_arg.
    out.push_str(
        "/// Index of the variant's cell-selecting argument, if it has one.\n\
         pub fn cell_arg(kind: ObjKind, variant: &str) -> Option<usize> {\n\
         \x20   match (kind, variant) {\n",
    );
    for d in &sorted {
        for (variant, idx) in &d.cell_args {
            out.push_str(&format!(
                "        (ObjKind::{}, \"{variant}\") => Some({idx}),\n",
                d.object.type_name
            ));
        }
    }
    out.push_str("        _ => None,\n    }\n}\n\n");

    // verdict.
    out.push_str(
        "/// The verdict for an ordered pair of op variants of one object kind.\n\
         /// Unknown variants yield [`Verdict::Conflict`], the sound default.\n\
         pub fn verdict(kind: ObjKind, a: &str, b: &str) -> Verdict {\n\
         \x20   match (kind, a, b) {\n",
    );
    for d in &sorted {
        for (a, b, v) in &d.pairs {
            match v {
                Verdict::Conflict => out.push_str(&format!(
                    "        (ObjKind::{}, \"{a}\", \"{b}\") => Verdict::Conflict,\n",
                    d.object.type_name
                )),
                Verdict::Commute => out.push_str(&format!(
                    "        (ObjKind::{}, \"{a}\", \"{b}\") => Verdict::Commute,\n",
                    d.object.type_name
                )),
                Verdict::CommuteIf {
                    distinct_cell,
                    equal_args,
                } => out.push_str(&format!(
                    "        (ObjKind::{}, \"{a}\", \"{b}\") => Verdict::CommuteIf {{\n            distinct_cell: {distinct_cell},\n            equal_args: {equal_args},\n        }},\n",
                    d.object.type_name
                )),
            }
        }
    }
    out.push_str("        _ => Verdict::Conflict,\n    }\n}\n");
    out
}
