//! The central sketch store: thread-safe registry of uploaded dataset
//! sketches (the "Central Data Store" of Figure 1).

use crate::build::DatasetSketch;
use crate::error::{Result, SketchError};
use mileena_relation::{DatasetId, DatasetInterner, FxHashMap};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// Builder for a lazily-hydrated sketch. Invoked with `background = true`
/// when the hydration was driven by a bulk drain (checkpoint, background
/// hydrator) rather than an evaluation touch. A failed build leaves the
/// builder in place for the next touch to retry; the first successful one
/// fills the slot and drops the builder, releasing whatever it holds (a
/// snapshot payload, say).
pub type LazySketchBuilder =
    Box<dyn Fn(bool) -> std::result::Result<DatasetSketch, String> + Send + Sync>;

/// One lazily-hydrating slot: the builder plus the once-filled cell.
struct LazySlot {
    cell: OnceLock<Arc<DatasetSketch>>,
    /// `None` once the cell is filled. Builds run under this lock, one at a
    /// time: a touch that waited finds the cell filled.
    build: Mutex<Option<LazySketchBuilder>>,
    /// Whether this slot has been counted out of the "unhydrated" pool
    /// (hydrated, removed, or replaced) — keeps the hydration observer
    /// exactly-once per slot under races.
    counted: AtomicBool,
}

impl std::fmt::Debug for LazySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazySlot").field("hydrated", &self.cell.get().is_some()).finish()
    }
}

/// A registered dataset: either a fully materialized sketch or a pending
/// slot that hydrates on first touch. Clones share the pending slot, so a
/// hydration fill is visible through every clone (including [`frozen`]
/// snapshots taken before the fill).
///
/// [`frozen`]: SketchStore::frozen
#[derive(Debug, Clone)]
enum Slot {
    Ready(Arc<DatasetSketch>),
    Pending(Arc<LazySlot>),
}

/// Observer invoked exactly once per pending slot when it leaves the
/// unhydrated pool; the `bool` is the builder's `background` flag (`true`
/// also covers slots dropped by `remove`/`replace` before hydrating).
pub struct HydrationObserver(pub Box<dyn Fn(bool) + Send + Sync>);

impl std::fmt::Debug for HydrationObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HydrationObserver")
    }
}

#[derive(Debug, Default, Clone)]
struct StoreInner {
    by_name: BTreeMap<String, Slot>,
    by_id: FxHashMap<DatasetId, Slot>,
}

/// Thread-safe sketch registry keyed by dataset name *and* interned
/// [`DatasetId`] (the hot-path handle — candidate enumeration and the
/// projection cache fetch by id, never by name).
///
/// Name iteration order is name-sorted (BTreeMap) so searches are
/// deterministic. Cloning the store is cheap (shared `Arc`), matching the
/// multi-requester usage pattern: many concurrent searches over one corpus.
///
/// Sketches register as built: join-key ids are a fixed function of the
/// key value, valid in every store and every process. Dataset ids come
/// from the (by default process-global) [`DatasetInterner`], so a
/// discovery index built independently hands out ids this store resolves
/// directly.
#[derive(Debug, Clone)]
pub struct SketchStore {
    inner: Arc<RwLock<StoreInner>>,
    dataset_ids: Arc<DatasetInterner>,
    /// Set at most once per store family (clones and frozen snapshots
    /// share it); fired once per pending slot leaving the unhydrated pool.
    on_hydrate: Arc<OnceLock<HydrationObserver>>,
}

impl Default for SketchStore {
    fn default() -> Self {
        Self::with_dataset_interner(Arc::clone(DatasetInterner::global()))
    }
}

impl SketchStore {
    /// New empty store on the process-global key space.
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty store with an isolated dataset-identity space. The
    /// dataset interner must be shared with the discovery index that
    /// serves this store's candidates (`DiscoveryIndex::with_interner`):
    /// `DatasetId`s are untagged `u32` handles, so an id minted by a
    /// foreign interner would silently resolve to a different dataset
    /// here.
    pub fn with_dataset_interner(datasets: Arc<DatasetInterner>) -> Self {
        SketchStore { inner: Arc::default(), dataset_ids: datasets, on_hydrate: Arc::default() }
    }

    /// Install the hydration observer (at most one per store family —
    /// clones and frozen snapshots share it; later installs are ignored).
    /// Fired exactly once per pending slot when it leaves the unhydrated
    /// pool; see [`HydrationObserver`].
    pub fn set_hydration_observer(&self, hook: Box<dyn Fn(bool) + Send + Sync>) {
        let _ = self.on_hydrate.set(HydrationObserver(hook));
    }

    fn fire_hook(&self, background: bool) {
        if let Some(hook) = self.on_hydrate.get() {
            (hook.0)(background);
        }
    }

    /// The store's dataset-identity space.
    pub fn dataset_interner(&self) -> &Arc<DatasetInterner> {
        &self.dataset_ids
    }

    /// The interned id of a registered dataset (`None` = not registered).
    pub fn dataset_id(&self, name: &str) -> Option<DatasetId> {
        let id = self.dataset_ids.get(name)?;
        self.inner.read().by_id.contains_key(&id).then_some(id)
    }

    /// Resolve an id to its name. Resolution goes through the interner, so
    /// it works even for datasets since removed from this store (ids are
    /// never recycled).
    pub fn dataset_name(&self, id: DatasetId) -> Option<Arc<str>> {
        self.dataset_ids.name(id)
    }

    /// A frozen snapshot of this store: the same sketches (shared `Arc`s),
    /// but detached from any later `register` / `replace` / `remove` — the
    /// consistent corpus view one search session runs against while other
    /// requesters and providers keep mutating the live store. O(n) `Arc`
    /// clones, no sketch data is copied.
    pub fn frozen(&self) -> SketchStore {
        SketchStore {
            inner: Arc::new(RwLock::new(self.inner.read().clone())),
            dataset_ids: Arc::clone(&self.dataset_ids),
            on_hydrate: Arc::clone(&self.on_hydrate),
        }
    }

    /// Register a sketch; rejects duplicates (privacy budgets are accounted
    /// per upload, so silent replacement would be unsound).
    pub fn register(&self, sketch: DatasetSketch) -> Result<()> {
        let id = self.dataset_ids.intern(&sketch.name);
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(&sketch.name) {
            return Err(SketchError::DuplicateDataset(sketch.name));
        }
        let sketch = Arc::new(sketch);
        let name = sketch.name.clone();
        let slot = Slot::Ready(sketch);
        inner.by_name.insert(name, slot.clone());
        inner.by_id.insert(id, slot);
        Ok(())
    }

    /// Register a dataset whose sketch hydrates on first touch: the slot
    /// is visible immediately (`contains` / `names` / `len` see it, so
    /// candidate enumeration over ids works), but the sketch bytes only
    /// materialize when [`get`](Self::get) / [`get_by_id`](Self::get_by_id)
    /// first resolve it — or when a bulk drain ([`hydrate_pending`]
    /// (Self::hydrate_pending), [`all`](Self::all)) reaches it. Rejects
    /// duplicates like [`register`](Self::register).
    pub fn register_lazy(&self, name: &str, build: LazySketchBuilder) -> Result<()> {
        let id = self.dataset_ids.intern(name);
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(name) {
            return Err(SketchError::DuplicateDataset(name.to_string()));
        }
        let slot = Slot::Pending(Arc::new(LazySlot {
            cell: OnceLock::new(),
            build: Mutex::new(Some(build)),
            counted: AtomicBool::new(false),
        }));
        inner.by_name.insert(name.to_string(), slot.clone());
        inner.by_id.insert(id, slot);
        Ok(())
    }

    /// Materialize a pending slot (idempotent; the first successful build
    /// fills the cell and drops the builder).
    fn hydrate(&self, lazy: &Arc<LazySlot>, background: bool) -> Result<Arc<DatasetSketch>> {
        if let Some(s) = lazy.cell.get() {
            return Ok(Arc::clone(s));
        }
        let mut build = lazy.build.lock();
        if let Some(s) = lazy.cell.get() {
            return Ok(Arc::clone(s)); // filled while this touch waited
        }
        let builder = build.as_ref().expect("an unfilled slot keeps its builder");
        let built =
            builder(background).map_err(|e| SketchError::Serde(format!("lazy hydration: {e}")))?;
        let built = Arc::clone(lazy.cell.get_or_init(|| Arc::new(built)));
        *build = None;
        drop(build);
        if !lazy.counted.swap(true, Ordering::SeqCst) {
            self.fire_hook(background);
        }
        Ok(built)
    }

    /// Resolve a slot to its sketch, hydrating a pending one.
    fn resolve(&self, slot: Slot, background: bool) -> Result<Arc<DatasetSketch>> {
        match slot {
            Slot::Ready(s) => Ok(s),
            Slot::Pending(lazy) => self.hydrate(&lazy, background),
        }
    }

    /// A slot leaving the store (remove/replace) before hydrating is one
    /// fewer dataset waiting to hydrate — tell the observer so level
    /// gauges don't leak.
    fn count_dropped_slot(&self, slot: &Slot) {
        if let Slot::Pending(lazy) = slot {
            if !lazy.counted.swap(true, Ordering::SeqCst) {
                self.fire_hook(true);
            }
        }
    }

    /// Number of registered datasets whose sketch has not hydrated yet.
    pub fn unhydrated(&self) -> usize {
        self.inner
            .read()
            .by_name
            .values()
            .filter(|slot| matches!(slot, Slot::Pending(l) if l.cell.get().is_none()))
            .count()
    }

    /// Queue [`SketchStore::hydrate_pending`] for the process-wide
    /// background hydrator: one long-lived thread that drains queued stores
    /// in turn, skipping a store every handle has dropped meanwhile. One
    /// thread, not one per open: each thread draws its own malloc arena, and
    /// a loop of opens would leave several arenas each holding a corpus'
    /// worth of freed pages.
    pub fn hydrate_in_background(&self) {
        type Job = Box<dyn FnOnce() + Send>;
        static QUEUE: OnceLock<mpsc::Sender<Job>> = OnceLock::new();
        let queue = QUEUE.get_or_init(|| {
            let (tx, rx) = mpsc::channel::<Job>();
            std::thread::Builder::new()
                .name("mileena-hydrator".into())
                // A panicking build must not end hydration for every later
                // open in the process.
                .spawn(move || {
                    for job in rx {
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
                .expect("spawn the background hydrator");
            tx
        });
        let inner = Arc::downgrade(&self.inner);
        let (dataset_ids, on_hydrate) =
            (Arc::clone(&self.dataset_ids), Arc::clone(&self.on_hydrate));
        let _ = queue.send(Box::new(move || {
            if let Some(inner) = inner.upgrade() {
                let _ = SketchStore { inner, dataset_ids, on_hydrate }.hydrate_pending();
            }
        }));
    }

    /// Hydrate every still-pending sketch (the background drain), name
    /// order. Returns how many this call materialized; stops at the first
    /// failing builder.
    pub fn hydrate_pending(&self) -> Result<usize> {
        let pending: Vec<Arc<LazySlot>> = self
            .inner
            .read()
            .by_name
            .values()
            .filter_map(|slot| match slot {
                Slot::Pending(l) if l.cell.get().is_none() => Some(Arc::clone(l)),
                _ => None,
            })
            .collect();
        let mut drained = 0;
        for lazy in pending {
            let raced = lazy.cell.get().is_some();
            self.hydrate(&lazy, true)?;
            if !raced {
                drained += 1;
            }
        }
        Ok(drained)
    }

    /// Replace a sketch unconditionally, returning the previous sketch
    /// under that name (so callers coordinating index/ledger state — the
    /// platform's journaled mutation path — can roll back). Budget
    /// accounting is the caller's concern.
    /// A pending predecessor that never hydrated yields `None` (its bytes
    /// were never materialized; rollback re-registers from the journal).
    pub fn replace(&self, sketch: DatasetSketch) -> Option<Arc<DatasetSketch>> {
        let id = self.dataset_ids.intern(&sketch.name);
        let mut inner = self.inner.write();
        let name = sketch.name.clone();
        let slot = Slot::Ready(Arc::new(sketch));
        inner.by_id.insert(id, slot.clone());
        let previous = inner.by_name.insert(name, slot);
        drop(inner);
        match previous {
            Some(Slot::Ready(prev)) => Some(prev),
            Some(Slot::Pending(lazy)) => {
                let prev = lazy.cell.get().cloned();
                self.count_dropped_slot(&Slot::Pending(lazy));
                prev
            }
            None => None,
        }
    }

    /// Whether a dataset is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().by_name.contains_key(name)
    }

    /// Whether a dataset is registered, by id.
    pub fn contains_id(&self, id: DatasetId) -> bool {
        self.inner.read().by_id.contains_key(&id)
    }

    /// Remove a dataset's sketch.
    pub fn remove(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let removed = inner
            .by_name
            .remove(name)
            .ok_or_else(|| SketchError::DatasetNotFound(name.to_string()))?;
        if let Some(id) = self.dataset_ids.get(name) {
            inner.by_id.remove(&id);
        }
        drop(inner);
        self.count_dropped_slot(&removed);
        Ok(())
    }

    /// Fetch a dataset's sketch by name, hydrating a pending slot (this is
    /// an evaluation touch: the lazy-hydration counter fires).
    pub fn get(&self, name: &str) -> Result<Arc<DatasetSketch>> {
        let slot = self
            .inner
            .read()
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| SketchError::DatasetNotFound(name.to_string()))?;
        self.resolve(slot, false)
    }

    /// Fetch a dataset's sketch by interned id — the hot-path lookup (one
    /// hash probe on a `u32`-keyed map, no string hashing). Hydrates a
    /// pending slot as an evaluation touch.
    pub fn get_by_id(&self, id: DatasetId) -> Result<Arc<DatasetSketch>> {
        let slot = self
            .inner
            .read()
            .by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| SketchError::DatasetNotFound(id.to_string()))?;
        self.resolve(slot, false)
    }

    /// All registered dataset names, sorted. Never hydrates.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().by_name.keys().cloned().collect()
    }

    /// Snapshot of all sketches, name-sorted. Hydrates every pending slot
    /// (as a bulk drain, not an evaluation touch) — the checkpoint path
    /// needs real bytes for every dataset.
    pub fn all(&self) -> Result<Vec<Arc<DatasetSketch>>> {
        let slots: Vec<Slot> = self.inner.read().by_name.values().cloned().collect();
        slots.into_iter().map(|slot| self.resolve(slot, true)).collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.inner.read().by_name.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_sketch, SketchConfig};
    use mileena_relation::RelationBuilder;

    fn sketch(name: &str) -> DatasetSketch {
        let r = RelationBuilder::new(name)
            .int_col("k", &[1, 2])
            .float_col("x", &[1.0, 2.0])
            .build()
            .unwrap();
        build_sketch(&r, &SketchConfig::default()).unwrap()
    }

    #[test]
    fn register_get_remove() {
        let store = SketchStore::new();
        store.register(sketch("a")).unwrap();
        store.register(sketch("b")).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.names(), vec!["a", "b"]);
        assert_eq!(store.get("a").unwrap().name, "a");
        assert!(store.get("zz").is_err());
        store.remove("a").unwrap();
        assert!(store.remove("a").is_err());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn id_access_tracks_name_access() {
        let store = SketchStore::new();
        store.register(sketch("ida")).unwrap();
        let id = store.dataset_id("ida").unwrap();
        assert!(store.contains_id(id));
        assert_eq!(store.get_by_id(id).unwrap().name, "ida");
        assert_eq!(store.dataset_name(id).as_deref(), Some("ida"));
        store.remove("ida").unwrap();
        assert!(!store.contains_id(id));
        assert!(store.get_by_id(id).is_err());
        assert_eq!(store.dataset_id("ida"), None, "removed datasets stop resolving");
        // Re-registration reuses the interned id (ids are never recycled).
        store.register(sketch("ida")).unwrap();
        assert_eq!(store.dataset_id("ida"), Some(id));
    }

    #[test]
    fn duplicate_rejected_replace_allowed() {
        let store = SketchStore::new();
        store.register(sketch("a")).unwrap();
        assert!(store.register(sketch("a")).is_err());
        let previous = store.replace(sketch("a"));
        assert_eq!(previous.unwrap().name, "a");
        assert!(store.replace(sketch("b")).is_none(), "insert-if-absent returns no previous");
        assert_eq!(store.len(), 2);
        assert!(store.contains("a") && !store.contains("zz"));
        // Replace keeps the id pointing at the new sketch.
        let id = store.dataset_id("a").unwrap();
        assert!(Arc::ptr_eq(&store.get("a").unwrap(), &store.get_by_id(id).unwrap()));
    }

    #[test]
    fn clones_share_state() {
        let store = SketchStore::new();
        let clone = store.clone();
        store.register(sketch("a")).unwrap();
        assert_eq!(clone.len(), 1);
    }

    #[test]
    fn frozen_snapshot_is_isolated_from_later_writes() {
        let store = SketchStore::new();
        store.register(sketch("a")).unwrap();
        let snap = store.frozen();
        let id_a = store.dataset_id("a").unwrap();
        store.register(sketch("b")).unwrap();
        store.remove("a").unwrap();
        assert_eq!(snap.names(), vec!["a"], "snapshot keeps the registration-time view");
        assert_eq!(store.names(), vec!["b"]);
        assert!(snap.contains_id(id_a), "id access is snapshotted too");
        // Shared dataset-identity space and shared sketch allocations.
        assert!(Arc::ptr_eq(snap.dataset_interner(), store.dataset_interner()));
    }

    fn lazy(name: &str, builds: &Arc<std::sync::atomic::AtomicUsize>) -> LazySketchBuilder {
        let name = name.to_string();
        let builds = Arc::clone(builds);
        Box::new(move |_background| {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok(sketch(&name))
        })
    }

    #[test]
    fn lazy_slot_hydrates_once_on_first_touch() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        let touches = Arc::new(AtomicUsize::new(0));
        let drains = Arc::new(AtomicUsize::new(0));
        {
            let (touches, drains) = (Arc::clone(&touches), Arc::clone(&drains));
            store.set_hydration_observer(Box::new(move |background| {
                if background {
                    drains.fetch_add(1, Ordering::SeqCst);
                } else {
                    touches.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        store.register_lazy("lz", lazy("lz", &builds)).unwrap();
        // Visible without hydrating.
        assert!(store.contains("lz"));
        assert_eq!(store.names(), vec!["lz"]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.unhydrated(), 1);
        assert_eq!(builds.load(Ordering::SeqCst), 0, "metadata access must not hydrate");
        // First touch builds; later touches reuse the fill.
        let a = store.get("lz").unwrap();
        let b = store.get_by_id(store.dataset_id("lz").unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(store.unhydrated(), 0);
        assert_eq!((touches.load(Ordering::SeqCst), drains.load(Ordering::SeqCst)), (1, 0));
        // Duplicate registration is still rejected against a lazy slot.
        assert!(store.register(sketch("lz")).is_err());
        assert!(store.register_lazy("lz", lazy("lz", &builds)).is_err());
    }

    #[test]
    fn hydrated_slot_releases_what_its_builder_held() {
        // A snapshot's lazy builders each hold the whole payload: once a
        // slot fills, its builder — and its share of the payload — must go.
        let store = SketchStore::new();
        let payload = Arc::new(vec![0u8; 1 << 16]);
        let held = Arc::downgrade(&payload);
        store
            .register_lazy(
                "held",
                Box::new(move |_| {
                    let _ = payload.len();
                    Ok(sketch("held"))
                }),
            )
            .unwrap();
        assert!(held.upgrade().is_some(), "an unhydrated slot keeps its builder");
        store.get("held").unwrap();
        assert!(held.upgrade().is_none(), "the filled slot still holds the payload");
        assert_eq!(store.get("held").unwrap().name, "held");
    }

    #[test]
    fn queued_stores_hydrate_on_the_background_thread() {
        use std::sync::atomic::AtomicUsize;
        let builds = Arc::new(AtomicUsize::new(0));
        let stores: Vec<SketchStore> = (0..3)
            .map(|i| {
                let store = SketchStore::new();
                store.register_lazy(&format!("bg{i}"), lazy(&format!("bg{i}"), &builds)).unwrap();
                store.hydrate_in_background();
                store
            })
            .collect();
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while stores.iter().any(|s| s.unhydrated() > 0) && std::time::Instant::now() < give_up {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(stores.iter().all(|s| s.unhydrated() == 0));
        assert_eq!(builds.load(Ordering::SeqCst), 3);

        // A panicking build does not end background hydration.
        let broken = SketchStore::new();
        broken.register_lazy("bg-panics", Box::new(|_| panic!("a broken builder"))).unwrap();
        broken.hydrate_in_background();
        let after = SketchStore::new();
        after.register_lazy("bg-after", lazy("bg-after", &builds)).unwrap();
        after.hydrate_in_background();
        while after.unhydrated() > 0 && std::time::Instant::now() < give_up {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!((after.unhydrated(), broken.unhydrated()), (0, 1));
    }

    #[test]
    fn hydrate_pending_drains_in_background() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        store.register_lazy("p1", lazy("p1", &builds)).unwrap();
        store.register_lazy("p2", lazy("p2", &builds)).unwrap();
        store.register(sketch("r1")).unwrap();
        assert_eq!(store.unhydrated(), 2);
        assert_eq!(store.hydrate_pending().unwrap(), 2);
        assert_eq!(store.unhydrated(), 0);
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        // all() sees real bytes for every slot.
        let all = store.all().unwrap();
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|s| !s.keyed.is_empty()));
    }

    #[test]
    fn frozen_snapshot_shares_pending_fills() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        store.register_lazy("shared", lazy("shared", &builds)).unwrap();
        let snap = store.frozen();
        // Hydrating through the live store fills the snapshot's slot too
        // (and vice versa): the slot Arc is shared, so the build runs once.
        let live = store.get("shared").unwrap();
        let frozen = snap.get("shared").unwrap();
        assert!(Arc::ptr_eq(&live, &frozen));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_lazy_build_surfaces_and_retries() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let attempts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&attempts);
        store
            .register_lazy(
                "flaky",
                Box::new(move |_| {
                    if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                        Err("decode failed".to_string())
                    } else {
                        Ok(sketch("flaky"))
                    }
                }),
            )
            .unwrap();
        let err = store.get("flaky").unwrap_err();
        assert!(err.to_string().contains("decode failed"), "{err}");
        assert_eq!(store.unhydrated(), 1, "a failed build leaves the slot pending");
        assert_eq!(store.get("flaky").unwrap().name, "flaky", "next touch retries");
        assert_eq!(store.unhydrated(), 0);
    }

    #[test]
    fn removing_or_replacing_unhydrated_slot_informs_observer() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));
        {
            let dropped = Arc::clone(&dropped);
            store.set_hydration_observer(Box::new(move |background| {
                assert!(background, "drops count as background departures");
                dropped.fetch_add(1, Ordering::SeqCst);
            }));
        }
        store.register_lazy("gone", lazy("gone", &builds)).unwrap();
        store.register_lazy("swapped", lazy("swapped", &builds)).unwrap();
        store.remove("gone").unwrap();
        assert!(store.replace(sketch("swapped")).is_none(), "never-hydrated predecessor");
        assert_eq!(dropped.load(Ordering::SeqCst), 2);
        assert_eq!(store.unhydrated(), 0);
        assert_eq!(builds.load(Ordering::SeqCst), 0, "neither slot ever built");
        assert_eq!(store.get("swapped").unwrap().name, "swapped");
    }

    #[test]
    fn concurrent_first_touches_converge_on_one_fill() {
        use std::sync::atomic::AtomicUsize;
        let store = SketchStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        let hydrations = Arc::new(AtomicUsize::new(0));
        {
            let hydrations = Arc::clone(&hydrations);
            store.set_hydration_observer(Box::new(move |_| {
                hydrations.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for i in 0..8 {
            store.register_lazy(&format!("c{i}"), lazy(&format!("c{i}"), &builds)).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        store.get(&format!("c{i}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.unhydrated(), 0);
        assert_eq!(hydrations.load(Ordering::SeqCst), 8, "observer fires once per slot");
        // Every reader of a given name sees one Arc.
        let a = store.get("c3").unwrap();
        let b = store.get("c3").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_registration() {
        let store = SketchStore::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        store.register(sketch(&format!("d{t}_{i}"))).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 80);
    }
}
