//! Shared objects (§3.1, §3.3).
//!
//! Processes communicate by applying *atomic* operations on shared objects:
//! each operation (invocation plus response) is a single step of the run.
//! The paper's algorithms use registers, atomic snapshot objects and (for
//! Corollary 4) `n`-process consensus objects; the necessity results allow
//! *any* object type. This module therefore exposes an open-ended
//! [`ObjectType`] trait; concrete objects live in the `upsilon-mem` crate.
//!
//! Objects are addressed by a structured [`Key`] (a name plus indices, e.g.
//! `D[r]` or `converge[r][k]`), because the paper's protocols allocate an
//! unbounded number of per-round objects. An object is created lazily at the
//! first operation that touches its key; creation is deterministic because
//! every process derives the initial state from the protocol itself.

use crate::coverage::Fnv64;
use crate::process::ProcessId;
use std::any::{Any, TypeId};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How an operation touches its object, for independence analysis.
///
/// Two steps on the *same* object commute — executing them in either order
/// reaches the same state and responses — when both only read, or when they
/// write disjoint cells. Partial-order reduction (the `upsilon-check`
/// explorer) prunes one of the two orders in exactly those cases, so a
/// too-coarse classification is safe (fewer prunes) while a too-fine one is
/// not; implementations default to [`Access::Update`], the conservative
/// "conflicts with everything on this object".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Access {
    /// The operation reads object state and writes nothing (a register
    /// read, a snapshot scan). Reads never conflict with each other.
    Read,
    /// The operation writes only the identified cell and reads nothing
    /// (a register write is `Write(0)`, a snapshot `update(i)` is
    /// `Write(i)`). Writes to distinct cells commute; writes to the same
    /// cell, or a write and any read, conflict.
    Write(u32),
    /// The operation may read and write arbitrary state (a consensus
    /// proposal, a fetch-and-add): conflicts with every access.
    Update,
}

impl Access {
    /// Whether two accesses *to the same object* fail to commute.
    pub fn conflicts_with(self, other: Access) -> bool {
        match (self, other) {
            (Access::Read, Access::Read) => false,
            (Access::Write(a), Access::Write(b)) => a == b,
            _ => true,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "r"),
            Access::Write(c) => write!(f, "w{c}"),
            Access::Update => write!(f, "u"),
        }
    }
}

/// A linearizable shared-object type.
///
/// An implementation defines the sequential behaviour of the object; the
/// simulator guarantees each [`invoke`](ObjectType::invoke) executes atomically
/// within one granted step, so the object is trivially linearizable.
///
/// The `Debug` bound makes the object's *state* renderable: it backs
/// [`Memory::state_fingerprint`], the whole-memory equality witness the
/// dynamic reorder cross-check (`upsilon-commute`) compares after swapping
/// provably-commuting adjacent steps.
///
/// The `Clone` bound (on the object and on `Resp`) backs the explorer's
/// snapshot-resume sessions: [`Memory`] is copy-on-write (an object is cloned the
/// first time it is mutated after a snapshot), and responses are recorded so
/// a suspended state machine can be rebuilt by replaying its completed steps
/// without re-touching shared memory. `Sync` lets snapshots cross worker
/// threads; shared objects are plain data, so both derive mechanically.
pub trait ObjectType: Clone + Send + Sync + fmt::Debug + 'static {
    /// The operations the object accepts.
    type Op: Send + fmt::Debug + 'static;
    /// The responses the object returns.
    type Resp: Clone + Send + fmt::Debug + 'static;

    /// Applies `op` on behalf of `caller`, mutating the object and returning
    /// the response, atomically.
    fn invoke(&mut self, caller: ProcessId, op: Self::Op) -> Self::Resp;

    /// Classifies `op` for conflict analysis; recorded on the trace event of
    /// the step that performs it. The default is the always-sound
    /// [`Access::Update`]; objects with genuinely commuting operations
    /// (registers, snapshots) override this to enable partial-order
    /// reduction across their steps.
    fn access(_op: &Self::Op) -> Access {
        Access::Update
    }
}

/// The deepest key the workspace builds: `u-conv[r][k]`, the converge
/// phase `[0|1]` beneath it, and the register-based snapshot's cell index.
const MAX_INDICES: usize = 4;

/// A structured shared-object name: a static label plus numeric indices.
///
/// A `Key` is a plain `Copy` value — the label is a `&'static str` and the
/// indices sit inline (at most four of them) — so naming an object, copying
/// the name into a trace or a [`Memory`] index, and comparing two names
/// never touch the heap. `Eq`, `Ord` and `Hash` treat a key as the pair
/// `(name, indices)`, the indices compared as a slice.
///
/// ```
/// use upsilon_sim::Key;
/// let k = Key::new("converge").at(3).at(1);
/// assert_eq!(k.to_string(), "converge[3][1]");
/// ```
#[derive(Clone, Copy)]
pub struct Key {
    name: &'static str,
    index: [u64; MAX_INDICES],
    len: u8,
}

impl Key {
    /// A key with no indices.
    pub fn new(name: &'static str) -> Self {
        Key {
            name,
            index: [0; MAX_INDICES],
            len: 0,
        }
    }

    /// Appends an index, turning `D` into `D[r]`, etc.
    ///
    /// # Panics
    ///
    /// Panics, naming the key, if it already holds four indices.
    pub fn at(mut self, i: u64) -> Self {
        let len = self.len as usize;
        assert!(
            len < MAX_INDICES,
            "key {self} already holds {MAX_INDICES} indices; cannot append [{i}]"
        );
        self.index[len] = i;
        self.len += 1;
        self
    }

    /// The base name of the key.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The indices of the key.
    pub fn indices(&self) -> &[u64] {
        &self.index[..self.len as usize]
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Unused index slots are always zero, so whole arrays compare.
        self.len == other.len && self.index == other.index && self.name == other.name
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name
            .cmp(other.name)
            .then_with(|| self.indices().cmp(other.indices()))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.indices().hash(state);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Key")
            .field("name", &self.name)
            .field("index", &self.indices())
            .finish()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        for i in self.indices() {
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

impl From<&'static str> for Key {
    fn from(name: &'static str) -> Self {
        Key::new(name)
    }
}

/// Dense identifier of an allocated object within a run's memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub(crate) u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Object-erased storage: every [`ObjectType`] is stored behind this trait.
trait AnyObject: Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn clone_arc(&self) -> Arc<dyn AnyObject>;
    fn type_name(&self) -> &'static str;
    fn debug_state(&self) -> String;
    fn write_state(&self, out: &mut dyn fmt::Write) -> fmt::Result;
}

impl<O: ObjectType> AnyObject for O {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_arc(&self) -> Arc<dyn AnyObject> {
        Arc::new(self.clone())
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<O>()
    }

    fn debug_state(&self) -> String {
        format!("{self:?}")
    }

    fn write_state(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{self:?}")
    }
}

/// A content hash of an object's identity `(TypeId, name bytes, indices)`,
/// mixed a word at a time (the multiply-rotate step of FxHash). It never
/// reads an address, so a key hashes alike wherever its name is stored.
/// The hash only places ids in the index's slots; ids themselves are
/// assigned in creation order, so no run depends on it.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }

    #[inline(always)]
    fn of(ty: TypeId, key: &Key) -> u64 {
        let mut h = KeyHasher::default();
        ty.hash(&mut h);
        let mut chunks = key.name.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            h.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        // The length separates names whose tails differ only by zero bytes.
        let mut tail = (key.name.len() as u64) << 56;
        for (j, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * j);
        }
        h.add(tail);
        for &i in key.indices() {
            h.add(i);
        }
        h.0
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }
}

/// What the index records of one allocated object: its name, its type and
/// the hash of the two.
#[derive(Clone)]
struct Entry {
    key: Key,
    ty: TypeId,
    hash: u64,
}

/// The object index of a [`Memory`]: an open-addressed, linearly probed
/// table of object ids keyed by [`KeyHasher`], beside the per-object
/// [`Entry`] list it points into. The table is at most half full, so a
/// lookup ends after a probe or two; a hit is confirmed by one comparison
/// against the entry's key and type.
#[derive(Clone, Default)]
struct Index {
    /// Object ids; [`Index::EMPTY`] marks a free slot. The length is zero
    /// or a power of two.
    slots: Vec<u32>,
    /// One entry per object, in id order.
    entries: Vec<Entry>,
}

impl Index {
    const EMPTY: u32 = u32::MAX;

    #[inline(always)]
    fn find(&self, ty: TypeId, key: &Key, hash: u64) -> Option<ObjectId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let id = self.slots[at];
            if id == Self::EMPTY {
                return None;
            }
            let e = &self.entries[id as usize];
            if e.hash == hash && e.ty == ty && e.key == *key {
                return Some(ObjectId(id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Records the next object id under `(ty, key)`, which must be absent.
    fn insert(&mut self, ty: TypeId, key: Key, hash: u64) {
        let id = self.entries.len() as u32;
        self.entries.push(Entry { key, ty, hash });
        if self.entries.len() * 2 > self.slots.len() {
            let size = (self.slots.len() * 2).max(8);
            self.slots.clear();
            self.slots.resize(size, Self::EMPTY);
            for id in 0..self.entries.len() as u32 {
                self.place(id);
            }
        } else {
            self.place(id);
        }
    }

    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = self.entries[id as usize].hash as usize & mask;
        while self.slots[at] != Self::EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = id;
    }
}

/// The shared memory of a run: the collection of all allocated objects.
///
/// Only one process executes a step at a time (lockstep), so interior
/// operations need no further synchronization beyond the owning mutex.
///
/// Objects are found through one index: an open-addressed table probed by
/// a content hash of `(TypeId, name, indices)`, whose hits are confirmed
/// against the object's recorded key and type. No ordered map is involved,
/// and nothing iterates the table, so its layout never reaches a result.
///
/// Storage is copy-on-write: objects sit behind [`Arc`]s, so [`Clone`]
/// (taken once per snapshot by the explorer) is a handful of
/// reference-count bumps, and an object's state is physically duplicated
/// only the first time it is mutated while a snapshot still shares it. The
/// index is shared the same way; the first object created after a snapshot
/// copies it, and since a [`Key`] is `Copy` that copy allocates the
/// containers' own storage, never a key.
/// [`Clone::clone_from`] reuses the destination's object table, so a
/// session that re-takes or rewinds to a snapshot allocates nothing.
pub struct Memory {
    index: Arc<Index>,
    objects: Vec<Arc<dyn AnyObject>>,
}

// Inlined as the derived `Clone` would be: sessions (generic, so compiled
// in the caller's crate) clone a memory on every save and rewind.
impl Clone for Memory {
    #[inline]
    fn clone(&self) -> Self {
        Memory {
            index: Arc::clone(&self.index),
            objects: self.objects.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.index.clone_from(&source.index);
        self.objects.clone_from(&source.objects);
    }
}

impl Memory {
    pub(crate) fn new() -> Self {
        Memory {
            index: Arc::new(Index::default()),
            objects: Vec::new(),
        }
    }

    /// Resolves (creating if absent) the object of type `O` named `key`.
    #[inline]
    pub(crate) fn resolve<O: ObjectType>(
        &mut self,
        key: &Key,
        init: impl FnOnce() -> O,
    ) -> ObjectId {
        let ty = TypeId::of::<O>();
        let hash = KeyHasher::of(ty, key);
        if let Some(id) = self.index.find(ty, key, hash) {
            return id;
        }
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(Arc::new(init()));
        Arc::make_mut(&mut self.index).insert(ty, *key, hash);
        id
    }

    /// Unique access to an object's erased state, cloning it first if a
    /// snapshot still shares it (the copy-on-write step).
    fn obj_mut(&mut self, id: ObjectId) -> &mut dyn AnyObject {
        let slot = &mut self.objects[id.0 as usize];
        if Arc::get_mut(slot).is_none() {
            let fresh = slot.clone_arc();
            *slot = fresh;
        }
        Arc::get_mut(slot).expect("freshly cloned object is uniquely owned")
    }

    /// Applies an operation to an allocated object.
    pub(crate) fn invoke<O: ObjectType>(
        &mut self,
        id: ObjectId,
        caller: ProcessId,
        op: O::Op,
    ) -> O::Resp {
        let obj = self
            .obj_mut(id)
            .as_any_mut()
            .downcast_mut::<O>()
            .expect("operation type mismatch");
        obj.invoke(caller, op)
    }

    /// Post-run inspection: a typed view of the object named `key`, if it was
    /// ever created.
    pub fn get<O: ObjectType>(&self, key: &Key) -> Option<&O> {
        let ty = TypeId::of::<O>();
        let id = self.index.find(ty, key, KeyHasher::of(ty, key))?;
        self.objects[id.0 as usize].as_any().downcast_ref::<O>()
    }

    /// The display name of an allocated object.
    pub fn name_of(&self, id: ObjectId) -> Option<&Key> {
        self.index.entries.get(id.0 as usize).map(|e| &e.key)
    }

    /// Number of objects allocated during the run.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether no object was allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// A deterministic rendering of the entire shared state: every allocated
    /// object's key, type name and `Debug`-rendered state, one line each,
    /// sorted lexicographically. Two runs end in indistinguishable shared
    /// memory exactly when their fingerprints are equal — the equality the
    /// dynamic reorder cross-check (`upsilon-commute`) asserts after
    /// swapping adjacent steps the commutativity matrix calls independent.
    pub fn state_fingerprint(&self) -> String {
        let mut lines: Vec<String> = self
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| {
                format!(
                    "{}:{}={}",
                    self.index.entries[i].key,
                    o.type_name(),
                    o.debug_state()
                )
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// A 64-bit digest of [`Memory::state_fingerprint`] that never builds the
    /// rendered string: each object hashes `key:type=state` through an FNV
    /// accumulator, and the per-object digests are combined with a
    /// commutative fold so the result is independent of allocation order
    /// (object ids are assigned at first touch, which varies across
    /// equivalent interleavings; key names do not).
    pub fn fingerprint64(&self) -> u64 {
        let mut acc = 0u64;
        for (i, o) in self.objects.iter().enumerate() {
            let mut w = Fnv64::new();
            let _ = write!(w, "{}:{}=", self.index.entries[i].key, o.type_name());
            let _ = o.write_state(&mut w);
            // Whitened so the commutative sum does not cancel structure.
            let h = w.finish();
            acc = acc.wrapping_add(h ^ h.rotate_left(31));
        }
        acc
    }

    /// Iterates over `(id, key, type name)` for every allocated object.
    pub fn inventory(&self) -> impl Iterator<Item = (ObjectId, &Key, &'static str)> + '_ {
        self.objects.iter().enumerate().map(|(i, o)| {
            (
                ObjectId(i as u32),
                &self.index.entries[i].key,
                o.type_name(),
            )
        })
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("objects", &self.objects.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    /// A toy fetch-and-add object for exercising the framework.
    #[derive(Clone, Debug, Default)]
    struct Counter {
        value: u64,
        last_caller: Option<ProcessId>,
    }

    #[derive(Debug)]
    enum CounterOp {
        FetchAdd(u64),
        Read,
    }

    impl ObjectType for Counter {
        type Op = CounterOp;
        type Resp = u64;

        fn invoke(&mut self, caller: ProcessId, op: CounterOp) -> u64 {
            self.last_caller = Some(caller);
            match op {
                CounterOp::FetchAdd(d) => {
                    let old = self.value;
                    self.value += d;
                    old
                }
                CounterOp::Read => self.value,
            }
        }
    }

    #[test]
    fn key_display_and_equality() {
        let k = Key::new("A").at(2).at(0);
        assert_eq!(k.to_string(), "A[2][0]");
        assert_eq!(k, Key::new("A").at(2).at(0));
        assert_ne!(k, Key::new("A").at(2));
        assert_eq!(k.name(), "A");
        assert_eq!(k.indices(), &[2, 0]);
    }

    #[test]
    fn lazy_creation_resolves_to_same_object() {
        let mut mem = Memory::new();
        let a = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        let b = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        assert_eq!(a, b);
        assert_eq!(mem.len(), 1);
        let other = mem.resolve::<Counter>(&Key::new("c").at(1), Counter::default);
        assert_ne!(a, other);
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn invoke_applies_sequential_semantics() {
        let mut mem = Memory::new();
        let id = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        assert_eq!(
            mem.invoke::<Counter>(id, ProcessId(0), CounterOp::FetchAdd(5)),
            0
        );
        assert_eq!(
            mem.invoke::<Counter>(id, ProcessId(1), CounterOp::FetchAdd(2)),
            5
        );
        assert_eq!(mem.invoke::<Counter>(id, ProcessId(2), CounterOp::Read), 7);
        let c = mem.get::<Counter>(&Key::new("c")).expect("exists");
        assert_eq!(c.value, 7);
        assert_eq!(c.last_caller, Some(ProcessId(2)));
    }

    #[test]
    fn distinct_types_under_same_key_are_distinct_objects() {
        #[derive(Clone, Debug, Default)]
        struct Other;
        impl ObjectType for Other {
            type Op = ();
            type Resp = ();
            fn invoke(&mut self, _: ProcessId, _: ()) {}
        }
        let mut mem = Memory::new();
        let a = mem.resolve::<Counter>(&Key::new("x"), Counter::default);
        let b = mem.resolve::<Other>(&Key::new("x"), Other::default);
        assert_ne!(a, b);
        assert!(mem.get::<Counter>(&Key::new("x")).is_some());
        assert!(mem.get::<Other>(&Key::new("x")).is_some());
    }

    /// Two object types that record the id the index is expected to hand
    /// out, so `Memory::get` can be checked against the model.
    #[derive(Clone, Debug)]
    struct TypeA(u32);
    #[derive(Clone, Debug)]
    struct TypeB(u32);

    impl ObjectType for TypeA {
        type Op = ();
        type Resp = ();
        fn invoke(&mut self, _: ProcessId, _: ()) {}
    }

    impl ObjectType for TypeB {
        type Op = ();
        type Resp = ();
        fn invoke(&mut self, _: ProcessId, _: ()) {}
    }

    /// Names that stress the content hash: equal lengths, the 8-byte chunk
    /// boundary, and tails that differ only by a zero byte.
    const NAMES: [&str; 9] = [
        "R",
        "ab",
        "ba",
        "a\0",
        "abcdefgh",
        "abcdefgi",
        "abcdefghi",
        "abcdefghj",
        "",
    ];

    /// A key from generated parts: a name, up to four indices drawn from a
    /// small range (so the same name recurs with different indices) or
    /// pushed to the edge of `u64`.
    fn model_key(name: u8, indices: &[u64]) -> Key {
        let mut key = Key::new(NAMES[name as usize % NAMES.len()]);
        for &i in indices.iter().take(MAX_INDICES) {
            key = key.at(if i >= 3 { u64::MAX - i } else { i });
        }
        key
    }

    type Model = BTreeMap<(bool, Key), u32>;

    fn resolve_in(mem: &mut Memory, model: &mut Model, type_b: bool, key: Key) -> ObjectId {
        let next = model.len() as u32;
        let want = *model.entry((type_b, key)).or_insert(next);
        if type_b {
            mem.resolve(&key, || TypeB(want))
        } else {
            mem.resolve(&key, || TypeA(want))
        }
    }

    fn matches_model(mem: &Memory, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(mem.len(), model.len());
        for (&(type_b, key), &id) in model {
            let got = if type_b {
                mem.get::<TypeB>(&key).map(|o| o.0)
            } else {
                mem.get::<TypeA>(&key).map(|o| o.0)
            };
            prop_assert_eq!(got, Some(id));
            prop_assert_eq!(mem.name_of(ObjectId(id)), Some(&key));
            // The same key under the other type is its own object, or none.
            let other = if type_b {
                mem.get::<TypeA>(&key).map(|o| o.0)
            } else {
                mem.get::<TypeB>(&key).map(|o| o.0)
            };
            prop_assert_eq!(other, model.get(&(!type_b, key)).copied());
        }
        Ok(())
    }

    proptest! {
        /// Random resolves, interleaved with saves (`clone`) and rewinds
        /// (`clone_from`) to any earlier save, hand out exactly the ids a
        /// `BTreeMap` keyed by `(type, key)` would, and `get` finds every
        /// object the model holds.
        #[test]
        fn index_matches_a_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..10, 0u8..9, proptest::collection::vec(0u64..6, 0..5), proptest::bool::ANY),
                1..120,
            ),
        ) {
            let mut mem = Memory::new();
            let mut model = Model::new();
            let mut saves: Vec<(Memory, Model)> = Vec::new();
            for (what, name, indices, type_b) in ops {
                match what {
                    0 => saves.push((mem.clone(), model.clone())),
                    1 if !saves.is_empty() => {
                        let (saved, saved_model) = &saves[indices.len() % saves.len()];
                        mem.clone_from(saved);
                        model = saved_model.clone();
                    }
                    _ => {
                        let key = model_key(name, &indices);
                        let id = resolve_in(&mut mem, &mut model, type_b, key);
                        prop_assert_eq!(Some(&id.0), model.get(&(type_b, key)));
                    }
                }
                matches_model(&mem, &model)?;
            }
            for (saved, saved_model) in &saves {
                matches_model(saved, saved_model)?;
            }
        }
    }

    #[test]
    fn inventory_reports_names() {
        let mut mem = Memory::new();
        mem.resolve::<Counter>(&Key::new("c").at(3), Counter::default);
        let inv: Vec<_> = mem.inventory().collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].1.to_string(), "c[3]");
        assert!(inv[0].2.contains("Counter"));
        assert_eq!(mem.name_of(inv[0].0).unwrap().to_string(), "c[3]");
        assert!(!mem.is_empty());
    }
}
