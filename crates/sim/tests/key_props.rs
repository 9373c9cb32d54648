//! The observable semantics of [`Key`] for every depth it supports (zero
//! to four indices): it orders, compares, hashes, displays and debugs as
//! the pair `(name, indices)`, so fingerprints and coverage hashes built
//! from keys do not depend on how a key is stored.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use upsilon_sim::Key;

const NAMES: [&str; 4] = ["D", "D_r", "u-conv", "n-conv"];

fn key_of(name: &'static str, indices: &[u64]) -> Key {
    indices.iter().fold(Key::new(name), |k, &i| k.at(i))
}

fn hash_of(x: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

fn arb_key() -> impl Strategy<Value = (&'static str, Vec<u64>)> {
    // Small index values so equal and prefix-related keys are common.
    (
        (0..NAMES.len()).prop_map(|i| NAMES[i]),
        proptest::collection::vec(0u64..3, 0..=4),
    )
}

proptest! {
    #[test]
    fn key_orders_and_compares_as_name_then_index_slice(
        (na, ia) in arb_key(),
        (nb, ib) in arb_key(),
    ) {
        let (a, b) = (key_of(na, &ia), key_of(nb, &ib));
        prop_assert_eq!(a.cmp(&b), (na, ia.as_slice()).cmp(&(nb, ib.as_slice())));
        prop_assert_eq!(a == b, (na, &ia) == (nb, &ib));
        if a == b {
            prop_assert_eq!(hash_of(a), hash_of(b));
        }
    }

    #[test]
    fn key_renders_and_hashes_as_name_and_indices((name, indices) in arb_key()) {
        let k = key_of(name, &indices);
        prop_assert_eq!(k.name(), name);
        prop_assert_eq!(k.indices(), indices.as_slice());
        let shown: String = indices.iter().map(|i| format!("[{i}]")).collect();
        prop_assert_eq!(k.to_string(), format!("{name}{shown}"));
        prop_assert_eq!(
            format!("{k:?}"),
            format!("Key {{ name: {name:?}, index: {indices:?} }}")
        );
        // The same hash a `(name, indices)` pair gives, field by field.
        prop_assert_eq!(hash_of(k), hash_of((name, indices.as_slice())));
    }
}

#[test]
fn a_fifth_index_panics_naming_the_key() {
    let full = Key::new("u-conv").at(7).at(2).at(1).at(0);
    let err = std::panic::catch_unwind(|| full.at(5)).expect_err("a fifth index must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    assert!(msg.contains("u-conv[7][2][1][0]"), "message: {msg}");
}
