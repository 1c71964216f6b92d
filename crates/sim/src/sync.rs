//! Thin synchronization wrappers with a `parking_lot`-style API over
//! `std::sync`, so the rest of the workspace builds without external
//! crates. `lock()` returns the guard directly; a poisoned lock is
//! recovered rather than propagated — the simulation's invariants are
//! re-checked by the callers, and propagating poison would only turn one
//! test panic into a cascade.
//!
//! # One instrumentation path
//!
//! Debug builds run four layers under every shim operation: the
//! `kvcsd-mc` scheduling point, seeded perturbation, lockdep and the
//! happens-before race detector (all below). Each [`Mutex`], [`RwLock`]
//! and [`Shared`] carries one *hook* — its creation-site class, its
//! release clocks, its mc slot and, for `Shared`, its race cell — and
//! every acquisition runs it the same way:
//!
//! 1. *enter*: the mc scheduling point, the perturbation yield, then the
//!    lockdep acquire (which the self-synchronized `Shared::update`/`get`
//!    skip);
//! 2. the real `std::sync` lock;
//! 3. *entered*: the release-clock join and, for `Shared`, the cell's
//!    race check.
//!
//! Every guard is `{ held, inner }`. `held` is the one release step: the
//! release-clock publish (lock guards and `update`/`get` only), the mc
//! release, then the lockdep pop. It is declared before `inner`, so it
//! runs before the real unlock and the next acquirer always sees the
//! published clock. Release builds compile the hook and `held` to
//! zero-sized no-ops. The detectors have no runtime off-switch: they are
//! always on in debug builds and absent in release builds.
//!
//! # Lock-order (potential-deadlock) detection
//!
//! In debug/test builds every lock belongs to a *class* identified by its
//! creation site (the `file:line` of the `Mutex::new` call — all zone
//! locks created in one `Vec` initializer share a class, the keyspace
//! table is its own class, and so on). Each acquisition records
//! `held-class -> acquired-class` edges into a global lock-order graph;
//! if an acquisition would close a cycle — some thread previously took
//! these classes in the opposite order — the detector panics immediately
//! with both conflicting acquisition contexts, instead of letting the
//! inversion sit silently until a production workload interleaves into a
//! real deadlock. This is the lockdep discipline: *any* observed ordering
//! cycle is a bug, whether or not this particular run deadlocked.
//!
//! Notes on the model:
//! * classes, not instances: taking two locks of the *same* class (e.g.
//!   two zones) is not checked — the workspace never nests same-class
//!   locks, and clippy's `disallowed-types` ban on raw `std::sync` locks
//!   plus this detector keep it that way for cross-class order;
//! * guard drops pop the per-thread hold stack and perform the release
//!   half of the happens-before clock transfer (below).
//!
//! # Happens-before (data-race) detection
//!
//! Debug builds also carry a FastTrack-style vector-clock race detector.
//! Every thread keeps a vector clock; every `Mutex`/`RwLock` carries a
//! pair of release clocks (write releases and read releases are
//! distinguished, so two `RwLock` readers are not spuriously ordered with
//! each other). Acquiring a lock joins the appropriate release clocks
//! into the acquiring thread's clock; dropping a guard joins the thread's
//! clock into the lock and advances the thread's own epoch. [`spawn`]/
//! [`JoinHandle::join`] transfer clocks across fork and join the same
//! way.
//!
//! [`Shared<T>`] is the instrumented cell the detector actually watches:
//! * `read()` / `write()` are *race-checked* accesses. They record the
//!   accessing thread's epoch and panic — naming the cell's creation
//!   site and **both** conflicting access sites, in the same style as the
//!   lock-order report — when two accesses are unordered by
//!   happens-before. Use them for state whose ordering is supposed to
//!   come from elsewhere (an enclosing shim lock, `spawn`/`join`).
//! * `update()` / `get()` / `set()` are *self-synchronized* (the moral
//!   equivalent of an atomic RMW / load): they transfer clocks through
//!   the cell itself, so concurrent `update`/`get` traffic is ordered and
//!   clean by construction — but a stray `read()`/`write()` racing them
//!   is still caught. Use them for intentionally lock-free counters and
//!   flags. The `update` closure must not acquire other shim locks (these
//!   ops are leaves and skip the lock-order graph).
//!
//! # Controlled scheduling (model checking)
//!
//! Every shim operation is also a *scheduling point* for the `kvcsd-mc`
//! model checker (see [`crate::mc`] and `DESIGN.md` §15). Outside an mc
//! execution the point is a single relaxed atomic load; inside one, the
//! accessing thread declares its operation and parks until the explorer
//! grants it, which serializes the program and lets the checker
//! enumerate interleavings exhaustively. The race detector and lockdep
//! stay fully active under mc — each explored schedule is also
//! race-checked.
//!
//! The canonical lock order of the device stack is documented in
//! `DESIGN.md` §9; the happens-before model and the `Shared<T>` migration
//! rules are in `DESIGN.md` §11.

#![allow(
    clippy::disallowed_types,
    reason = "the shim implementation wraps std::sync by definition"
)]

use std::sync::{self, LockResult};

use crate::mc::OpKind;
use hook::{Held, Hook};

fn recover<G>(r: LockResult<G>) -> G {
    r.unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(debug_assertions)]
mod lockorder {
    //! The global lock-order graph. Everything in here uses raw
    //! `std::sync` primitives — this module *is* the instrumentation and
    //! must not recurse into the shims it instruments.

    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::panic::Location;
    use std::sync::{Mutex, OnceLock};

    /// How one `held -> acquired` edge was first observed.
    #[derive(Debug, Clone)]
    struct EdgeInfo {
        thread: String,
        /// Acquisition site of the lock that was already held.
        held_at: String,
        /// Acquisition site that added the edge while holding `held_at`.
        acquired_at: String,
    }

    #[derive(Debug, Default)]
    struct Graph {
        /// Creation site ("file:line:col") -> class id.
        class_ids: HashMap<String, u32>,
        /// Class id -> creation site.
        class_sites: Vec<String>,
        /// `from` class -> `to` class -> first observation.
        edges: HashMap<u32, HashMap<u32, EdgeInfo>>,
    }

    static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();

    fn graph() -> &'static Mutex<Graph> {
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    fn lock_graph() -> std::sync::MutexGuard<'static, Graph> {
        // Recover poison: a detector panic must not cascade into every
        // later acquisition in the process.
        graph().lock().unwrap_or_else(|p| p.into_inner())
    }

    thread_local! {
        /// Stack of (class, acquisition site) currently held by this thread.
        static HELD: RefCell<Vec<(u32, String)>> = const { RefCell::new(Vec::new()) };
    }

    fn site_of(loc: &Location<'_>) -> String {
        format!("{}:{}:{}", loc.file(), loc.line(), loc.column())
    }

    /// Register (or look up) the class for a lock created at `loc`.
    pub(super) fn class_of(loc: &Location<'_>) -> u32 {
        let site = site_of(loc);
        let mut g = lock_graph();
        if let Some(&id) = g.class_ids.get(&site) {
            return id;
        }
        let id = g.class_sites.len() as u32;
        g.class_sites.push(site.clone());
        g.class_ids.insert(site, id);
        id
    }

    /// Is `to` reachable from `from` over recorded edges?
    fn reachable(g: &Graph, from: u32, to: u32) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = g.edges.get(&n) {
                stack.extend(next.keys().copied());
            }
        }
        false
    }

    /// One shortest `from -> ... -> to` edge path (for the panic report).
    fn find_path(g: &Graph, from: u32, to: u32) -> Vec<(u32, u32)> {
        let mut prev: HashMap<u32, u32> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = HashSet::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                break;
            }
            if let Some(next) = g.edges.get(&n) {
                for &m in next.keys() {
                    if seen.insert(m) {
                        prev.insert(m, n);
                        queue.push_back(m);
                    }
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let Some(&p) = prev.get(&cur) else {
                return Vec::new();
            };
            path.push((p, cur));
            cur = p;
        }
        path.reverse();
        path
    }

    /// Popping token for one recorded hold.
    #[derive(Debug)]
    pub(super) struct HeldToken {
        class: u32,
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            let _ = HELD.try_with(|h| {
                let mut h = h.borrow_mut();
                if let Some(ix) = h.iter().rposition(|&(c, _)| c == self.class) {
                    h.remove(ix);
                }
            });
        }
    }

    /// Record an acquisition of `class` at `loc`: first verify it cannot
    /// close an ordering cycle, panicking with both conflicting contexts
    /// if it would, then record an edge from every held class.
    pub(super) fn acquire(class: u32, loc: &Location<'_>) -> HeldToken {
        let acq_site = site_of(loc);
        let held: Vec<(u32, String)> = HELD.with(|h| h.borrow().clone());
        let mut cycle_msg = None;
        {
            let mut g = lock_graph();
            for (held_class, held_site) in &held {
                if *held_class == class {
                    continue;
                }
                if reachable(&g, class, *held_class) {
                    // Build the report, then panic outside the guard.
                    let mut msg = format!(
                        "lock-order cycle detected (potential deadlock)\n  thread '{}' is acquiring lock class created at {}\n    at {}\n  while holding lock class created at {}\n    acquired at {}\n  but the reverse order was previously observed:\n",
                        std::thread::current().name().unwrap_or("<unnamed>"),
                        g.class_sites[class as usize],
                        acq_site,
                        g.class_sites[*held_class as usize],
                        held_site,
                    );
                    for (f, t) in find_path(&g, class, *held_class) {
                        if let Some(info) = g.edges.get(&f).and_then(|m| m.get(&t)) {
                            msg.push_str(&format!(
                                "    {} (held, acquired at {}) -> {} (acquired at {}) on thread '{}'\n",
                                g.class_sites[f as usize],
                                info.held_at,
                                g.class_sites[t as usize],
                                info.acquired_at,
                                info.thread,
                            ));
                        }
                    }
                    cycle_msg = Some(msg);
                    break;
                }
            }
            if cycle_msg.is_none() {
                for (held_class, held_site) in &held {
                    if *held_class == class {
                        continue;
                    }
                    g.edges
                        .entry(*held_class)
                        .or_default()
                        .entry(class)
                        .or_insert_with(|| EdgeInfo {
                            thread: std::thread::current()
                                .name()
                                .unwrap_or("<unnamed>")
                                .to_string(),
                            held_at: held_site.clone(),
                            acquired_at: acq_site.clone(),
                        });
                }
            }
        }
        if let Some(msg) = cycle_msg {
            panic!("{msg}");
        }
        HELD.with(|h| h.borrow_mut().push((class, acq_site)));
        HeldToken { class }
    }
}

#[cfg(debug_assertions)]
mod racedetect {
    //! FastTrack-style happens-before tracking: per-thread vector clocks,
    //! per-lock release clocks, per-`Shared`-cell access epochs. Like
    //! `lockorder`, this module uses raw `std::sync` primitives — it is
    //! the instrumentation and must not recurse into the shims.

    use std::cell::RefCell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    use crate::mc;

    fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn site_of(loc: &Location<'_>) -> String {
        format!("{}:{}:{}", loc.file(), loc.line(), loc.column())
    }

    /// Vector clock: one epoch counter per thread id.
    #[derive(Clone, Debug, Default)]
    pub(super) struct VClock(Vec<u32>);

    impl VClock {
        fn get(&self, tid: usize) -> u32 {
            self.0.get(tid).copied().unwrap_or(0)
        }

        fn grow_to(&mut self, n: usize) {
            if self.0.len() < n {
                self.0.resize(n, 0);
            }
        }

        fn join(&mut self, other: &VClock) {
            self.grow_to(other.0.len());
            for (a, &b) in self.0.iter_mut().zip(&other.0) {
                if b > *a {
                    *a = b;
                }
            }
        }

        fn tick(&mut self, tid: usize) {
            self.grow_to(tid + 1);
            self.0[tid] += 1;
        }
    }

    static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

    /// Retired thread ids available for reuse, each with the epoch floor
    /// its next owner must start above. Without recycling, an mc run
    /// spawning a few threads per execution across tens of thousands of
    /// executions would grow every vector clock to tens of thousands of
    /// components. A *joined* thread's id can be reused safely: the
    /// joiner adopted its final clock, so every recorded access of the
    /// old owner is in the reuser's past once the floor is respected.
    /// (The known false negative: a reused tid makes the *old* owner's
    /// accesses look same-thread to the new one. That pair is already
    /// ordered through the join for every joiner-descended thread, which
    /// covers all mc executions; only exotic detached-sibling patterns
    /// lose a report.)
    fn free_tids() -> &'static Mutex<Vec<(usize, u32)>> {
        static FREE: OnceLock<Mutex<Vec<(usize, u32)>>> = OnceLock::new();
        FREE.get_or_init(|| Mutex::new(Vec::new()))
    }

    struct ThreadState {
        tid: usize,
        name: String,
        clock: VClock,
    }

    thread_local! {
        static THREAD: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
    }

    /// Run `f` against this thread's clock state; `None` during thread
    /// teardown (TLS already destroyed — e.g. a guard dropped from
    /// another thread-local's destructor).
    fn try_with_thread<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
        THREAD
            .try_with(|slot| {
                let mut slot = slot.borrow_mut();
                let st = slot.get_or_insert_with(|| {
                    let name = std::thread::current()
                        .name()
                        .unwrap_or("<unnamed>")
                        .to_string();
                    let mut clock = VClock::default();
                    let tid = match relock(free_tids()).pop() {
                        Some((tid, floor)) => {
                            clock.grow_to(tid + 1);
                            clock.0[tid] = floor;
                            tid
                        }
                        None => NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    };
                    // Start one above the floor (epoch 1 for a fresh id)
                    // so a recorded access is always distinguishable from
                    // "never seen this thread" (0) and never collides
                    // with the previous owner's epochs.
                    clock.tick(tid);
                    ThreadState { tid, name, clock }
                });
                f(st)
            })
            .ok()
    }

    /// Release clocks for one lock (or one `Shared` cell): `.0` is joined
    /// by write releases, `.1` by read releases. Read acquisitions join
    /// only the write clock, so concurrent readers are not spuriously
    /// ordered with each other; write acquisitions join both.
    #[derive(Debug)]
    pub(super) struct LockClocks(Mutex<(VClock, VClock)>);

    impl LockClocks {
        pub(super) fn new() -> Self {
            Self(Mutex::new((VClock::default(), VClock::default())))
        }

        /// Join the release clocks an `access` acquisition is ordered
        /// after into this thread's clock.
        pub(super) fn acquire(&self, access: mc::Access) {
            let _ = try_with_thread(|t| {
                let pair = relock(&self.0);
                t.clock.join(&pair.0);
                if access == mc::Access::Exclusive {
                    t.clock.join(&pair.1);
                }
            });
        }

        /// Publish this thread's clock as an `access` release, then
        /// advance the thread's own epoch.
        pub(super) fn release(&self, access: mc::Access) {
            let _ = try_with_thread(|t| {
                let mut pair = relock(&self.0);
                match access {
                    mc::Access::Exclusive => pair.0.join(&t.clock),
                    mc::Access::Shared => pair.1.join(&t.clock),
                }
                t.clock.tick(t.tid);
            });
        }
    }

    /// One recorded access to a `Shared` cell.
    #[derive(Clone, Debug)]
    struct Access {
        tid: usize,
        clk: u32,
        site: String,
        thread: String,
    }

    #[derive(Debug)]
    struct VarState {
        write: Option<Access>,
        reads: Vec<Access>,
    }

    /// Per-`Shared` epoch state: the last write, plus the last read per
    /// thread since that write.
    #[derive(Debug)]
    pub(super) struct RaceCell {
        created_at: String,
        state: Mutex<VarState>,
    }

    impl RaceCell {
        pub(super) fn new(created_at: &Location<'_>) -> Self {
            Self {
                created_at: site_of(created_at),
                state: Mutex::new(VarState {
                    write: None,
                    reads: Vec::new(),
                }),
            }
        }

        fn report(
            &self,
            kind: &str,
            thread: &str,
            loc: &Location<'_>,
            prev_kind: &str,
            prev: &Access,
        ) -> String {
            format!(
                "data race detected (unordered accesses to a Shared cell)\n  cell created at {}\n  {} by thread '{}' at {}\n  conflicts with an earlier {} by thread '{}' at {}\n  no happens-before edge orders these accesses: protect both with one\n  kvcsd_sim::sync lock, use Shared::update/get for lock-free counters,\n  or transfer ordering via kvcsd_sim::sync::spawn/join",
                self.created_at,
                kind,
                thread,
                site_of(loc),
                prev_kind,
                prev.thread,
                prev.site,
            )
        }

        /// An access already recorded at `prev` races the current thread
        /// unless it is in the thread's happens-before past.
        fn races(t: &ThreadState, prev: &Access) -> bool {
            prev.tid != t.tid && prev.clk > t.clock.get(prev.tid)
        }

        pub(super) fn on_read(&self, loc: &Location<'_>) {
            let msg = try_with_thread(|t| {
                let mut v = relock(&self.state);
                let msg = v
                    .write
                    .as_ref()
                    .filter(|w| Self::races(t, w))
                    .map(|w| self.report("read", &t.name, loc, "write", w));
                let a = Access {
                    tid: t.tid,
                    clk: t.clock.get(t.tid),
                    site: site_of(loc),
                    thread: t.name.clone(),
                };
                if let Some(r) = v.reads.iter_mut().find(|r| r.tid == t.tid) {
                    *r = a;
                } else {
                    v.reads.push(a);
                }
                msg
            })
            .flatten();
            if let Some(m) = msg {
                panic!("{m}");
            }
        }

        pub(super) fn on_write(&self, loc: &Location<'_>) {
            let msg = try_with_thread(|t| {
                let mut v = relock(&self.state);
                let msg = v
                    .write
                    .as_ref()
                    .filter(|w| Self::races(t, w))
                    .map(|w| self.report("write", &t.name, loc, "write", w))
                    .or_else(|| {
                        v.reads
                            .iter()
                            .find(|r| Self::races(t, r))
                            .map(|r| self.report("write", &t.name, loc, "read", r))
                    });
                v.reads.clear();
                v.write = Some(Access {
                    tid: t.tid,
                    clk: t.clock.get(t.tid),
                    site: site_of(loc),
                    thread: t.name.clone(),
                });
                msg
            })
            .flatten();
            if let Some(m) = msg {
                panic!("{m}");
            }
        }
    }

    /// Snapshot the parent's clock for a child thread, then advance the
    /// parent so its post-fork accesses are unordered with the child.
    pub(super) fn fork() -> VClock {
        try_with_thread(|t| {
            let snap = t.clock.clone();
            t.clock.tick(t.tid);
            snap
        })
        .unwrap_or_default()
    }

    /// Join a snapshot (a parent's fork clock, or a finished child's
    /// final clock) into this thread's clock.
    pub(super) fn adopt(c: &VClock) {
        let _ = try_with_thread(|t| t.clock.join(c));
    }

    /// This thread's id and final clock, for the joiner to adopt (and to
    /// retire the id); `None` during thread teardown.
    pub(super) fn export_final() -> Option<(usize, VClock)> {
        try_with_thread(|t| (t.tid, t.clock.clone()))
    }

    /// Return a joined thread's id to the free list. Callers must have
    /// adopted `final_clock` first — that join edge is what makes the
    /// reuse sound.
    pub(super) fn retire(tid: usize, final_clock: &VClock) {
        relock(free_tids()).push((tid, final_clock.get(tid)));
    }
}

#[cfg(debug_assertions)]
mod hook {
    //! The one place the four debug layers run: [`Hook::enter`] before
    //! the real lock, [`Hook::entered`] after it, and [`Held`]'s drop
    //! before the real unlock.

    use std::panic::Location;

    use super::lockorder::{self, HeldToken};
    use super::racedetect::{LockClocks, RaceCell};
    use crate::mc::{self, Access, McSlot, OpKind};

    /// One shim primitive's instrumentation state.
    #[derive(Debug)]
    pub(super) struct Hook {
        /// Lock-order class of the creation site.
        class: u32,
        clocks: LockClocks,
        mc: McSlot,
        /// The race-checked cell; `Shared` only.
        cell: Option<RaceCell>,
    }

    /// An acquisition between [`Hook::enter`] and [`Hook::entered`].
    pub(super) struct Entering {
        kind: OpKind,
        loc: &'static Location<'static>,
        token: Option<HeldToken>,
    }

    /// One acquisition's release step: the release-clock publish (when
    /// `kind` transfers clocks), the mc release, then the lockdep pop.
    #[derive(Debug)]
    pub(super) struct Held<'a> {
        hook: &'a Hook,
        kind: OpKind,
        /// Dropped after `drop` runs: the lockdep pop comes last.
        _token: Option<HeldToken>,
    }

    /// How `kind` holds its primitive (every op the shims declare names a
    /// sync object, so `access()` is always `Some`).
    fn access(kind: OpKind) -> Access {
        kind.access().unwrap_or(Access::Exclusive)
    }

    /// Lock ops and the self-synchronized `Shared::update`/`get` transfer
    /// the primitive's release clocks; the race-checked `Shared::read`/
    /// `write` take their ordering from elsewhere.
    fn transfers_clocks(kind: OpKind) -> bool {
        !matches!(kind, OpKind::SharedRead | OpKind::SharedWrite)
    }

    impl Hook {
        /// `race_cell` gives the primitive a race-checked cell (`Shared`).
        #[track_caller]
        pub(super) fn new(race_cell: bool) -> Self {
            let loc = Location::caller();
            Self {
                class: lockorder::class_of(loc),
                clocks: LockClocks::new(),
                mc: McSlot::new(),
                cell: race_cell.then(|| RaceCell::new(loc)),
            }
        }

        /// Before the real lock: the mc scheduling point, the
        /// perturbation yield, then the lockdep acquire. The
        /// self-synchronized `update`/`get` are leaves and skip lockdep.
        #[track_caller]
        pub(super) fn enter(&self, kind: OpKind) -> Entering {
            mc::point_sync(&self.mc, kind);
            crate::perturb::maybe_yield();
            let loc = Location::caller();
            let token = (!matches!(kind, OpKind::SharedGet | OpKind::SharedRmw))
                .then(|| lockorder::acquire(self.class, loc));
            Entering { kind, loc, token }
        }

        /// After the real lock: the release-clock join, then the cell's
        /// race check.
        pub(super) fn entered(&self, e: Entering) -> Held<'_> {
            let access = access(e.kind);
            if transfers_clocks(e.kind) {
                self.clocks.acquire(access);
            }
            if let Some(cell) = &self.cell {
                match access {
                    Access::Exclusive => cell.on_write(e.loc),
                    Access::Shared => cell.on_read(e.loc),
                }
            }
            Held {
                hook: self,
                kind: e.kind,
                _token: e.token,
            }
        }
    }

    impl Drop for Held<'_> {
        fn drop(&mut self) {
            let access = access(self.kind);
            if transfers_clocks(self.kind) {
                self.hook.clocks.release(access);
            }
            mc::release_sync(&self.hook.mc, access);
        }
    }
}

#[cfg(not(debug_assertions))]
mod hook {
    //! Release builds: the hook and the release step are zero-sized and
    //! compile away.

    use crate::mc::OpKind;

    #[derive(Debug)]
    pub(super) struct Hook;

    pub(super) struct Entering;

    #[derive(Debug)]
    pub(super) struct Held<'a>(std::marker::PhantomData<&'a ()>);

    impl Hook {
        #[inline]
        pub(super) fn new(_race_cell: bool) -> Self {
            Hook
        }

        #[inline]
        pub(super) fn enter(&self, _kind: OpKind) -> Entering {
            Entering
        }

        #[inline]
        pub(super) fn entered(&self, _e: Entering) -> Held<'_> {
            Held(std::marker::PhantomData)
        }
    }
}

/// Mutual exclusion primitive; `lock()` never returns a `Result`.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    hook: Hook,
    inner: sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    // Declared first: the release step runs before the real unlock.
    _held: Held<'a>,
    inner: sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(value: T) -> Self {
        Self {
            hook: Hook::new(false),
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let entering = self.hook.enter(OpKind::MutexLock);
        let inner = recover(self.inner.lock());
        MutexGuard {
            _held: self.hook.entered(entering),
            inner,
        }
    }
}

/// Reader-writer lock; `read()`/`write()` return guards directly.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    hook: Hook,
    inner: sync::RwLock<T>,
}

/// Shared guard returned by [`RwLock::read`] and [`Shared::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    // Declared first: the release step runs before the real unlock.
    _held: Held<'a>,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard returned by [`RwLock::write`] and [`Shared::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    // Declared first: the release step runs before the real unlock.
    _held: Held<'a>,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> RwLock<T> {
    #[track_caller]
    pub fn new(value: T) -> Self {
        Self {
            hook: Hook::new(false),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let entering = self.hook.enter(OpKind::RwRead);
        let inner = recover(self.inner.read());
        RwLockReadGuard {
            _held: self.hook.entered(entering),
            inner,
        }
    }

    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let entering = self.hook.enter(OpKind::RwWrite);
        let inner = recover(self.inner.write());
        RwLockWriteGuard {
            _held: self.hook.entered(entering),
            inner,
        }
    }
}

/// Instrumented shared cell watched by the happens-before race detector.
///
/// Two access disciplines, chosen per call site (see the module docs):
///
/// * [`read`](Shared::read)/[`write`](Shared::write) — race-checked.
///   Ordering must come from elsewhere (an enclosing shim lock,
///   [`spawn`]/[`JoinHandle::join`]); unordered access pairs panic with
///   both sites named.
/// * [`update`](Shared::update)/[`get`](Shared::get)/[`set`](Shared::set)
///   — self-synchronized, the atomic-RMW analogue for lock-free counters
///   and flags. Clean by construction against each other, but still
///   checked against stray `read()`/`write()` accesses.
///
/// Backed by a real `std::sync::RwLock`, so even an undetected race (or a
/// release build) can never produce a torn value — detection is purely an
/// epoch-bookkeeping layer on top.
pub struct Shared<T> {
    hook: Hook,
    inner: sync::RwLock<T>,
}

/// Shared guard returned by [`Shared::read`].
pub type SharedReadGuard<'a, T> = RwLockReadGuard<'a, T>;

/// Exclusive guard returned by [`Shared::write`].
pub type SharedWriteGuard<'a, T> = RwLockWriteGuard<'a, T>;

impl<T> Shared<T> {
    /// The creation site becomes the cell's identity in race reports (and
    /// its lock-order class for `read`/`write` guards).
    #[track_caller]
    pub fn new(value: T) -> Self {
        Self {
            hook: Hook::new(true),
            inner: sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }

    /// Race-checked shared read; the ordering against writes must come
    /// from an enclosing lock or a fork/join edge.
    #[track_caller]
    pub fn read(&self) -> SharedReadGuard<'_, T> {
        let entering = self.hook.enter(OpKind::SharedRead);
        let inner = recover(self.inner.read());
        RwLockReadGuard {
            _held: self.hook.entered(entering),
            inner,
        }
    }

    /// Race-checked exclusive write; panics with both conflicting sites
    /// if any unordered access was recorded.
    #[track_caller]
    pub fn write(&self) -> SharedWriteGuard<'_, T> {
        let entering = self.hook.enter(OpKind::SharedWrite);
        let inner = recover(self.inner.write());
        RwLockWriteGuard {
            _held: self.hook.entered(entering),
            inner,
        }
    }

    /// Self-synchronized read-modify-write (the atomic-RMW analogue).
    /// The closure must not acquire other shim locks: `update` is a leaf
    /// operation and does not participate in the lock-order graph.
    #[track_caller]
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let entering = self.hook.enter(OpKind::SharedRmw);
        let inner = recover(self.inner.write());
        let mut g = RwLockWriteGuard {
            _held: self.hook.entered(entering),
            inner,
        };
        f(&mut g)
    }

    /// Self-synchronized store.
    #[track_caller]
    pub fn set(&self, value: T) {
        self.update(|v| *v = value);
    }

    /// Self-synchronized load.
    #[track_caller]
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        let entering = self.hook.enter(OpKind::SharedGet);
        let inner = recover(self.inner.read());
        let g = RwLockReadGuard {
            _held: self.hook.entered(entering),
            inner,
        };
        *g
    }
}

impl<T: Default> Default for Shared<T> {
    #[track_caller]
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_read() {
            Ok(g) => f.debug_tuple("Shared").field(&&*g).finish(),
            Err(sync::TryLockError::Poisoned(p)) => {
                f.debug_tuple("Shared").field(&&*p.into_inner()).finish()
            }
            Err(sync::TryLockError::WouldBlock) => f.write_str("Shared(<locked>)"),
        }
    }
}

/// [`std::thread::spawn`] with fork edges for the race detector: the
/// child starts ordered after everything the parent did before the spawn.
/// Under an mc execution the child is also *registered* with the
/// controlled scheduler before it starts, so its first action is a
/// scheduling point.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(debug_assertions)]
    {
        spawn_impl(crate::mc::register_spawn(), f)
    }
    #[cfg(not(debug_assertions))]
    {
        JoinHandle {
            inner: std::thread::spawn(f),
        }
    }
}

#[cfg(debug_assertions)]
fn spawn_impl<F, T>(tok: Option<crate::mc::SpawnToken>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let mc_child = tok.as_ref().map(|t| t.ids());
    let snapshot = racedetect::fork();
    let slot = std::sync::Arc::new(sync::Mutex::new(None));
    let slot2 = std::sync::Arc::clone(&slot);
    let inner = std::thread::spawn(move || {
        // Declared first so it drops last: the final clock is exported
        // before the scheduler marks this thread exited.
        let _scope = tok.map(crate::mc::enter_thread);
        racedetect::adopt(&snapshot);
        let out = f();
        *recover(slot2.lock()) = racedetect::export_final();
        out
    });
    JoinHandle {
        inner,
        clock: slot,
        mc_child,
    }
}

/// Spawn an mc execution's root thread under an already-registered
/// scheduler identity (see [`crate::mc::Execution::start`]).
#[cfg(debug_assertions)]
pub(crate) fn spawn_root<F>(tok: crate::mc::SpawnToken, f: F) -> JoinHandle<()>
where
    F: FnOnce() + Send + 'static,
{
    spawn_impl(Some(tok), f)
}

/// Handle returned by [`spawn`]; [`join`](JoinHandle::join) adds the join
/// edge, ordering the parent after everything the child did.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    #[cfg(debug_assertions)]
    clock: std::sync::Arc<sync::Mutex<Option<(usize, racedetect::VClock)>>>,
    /// The child's controlled-scheduler identity, when it was spawned
    /// under an mc execution.
    #[cfg(debug_assertions)]
    mc_child: Option<(u64, u32)>,
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        // Under mc, joining is a scheduling point that only becomes
        // enabled once the child has exited — so the real join below
        // cannot block a granted thread.
        #[cfg(debug_assertions)]
        crate::mc::point_join(self.mc_child);
        let out = self.inner.join();
        #[cfg(debug_assertions)]
        if let Some((tid, c)) = recover(self.clock.lock()).take() {
            racedetect::adopt(&c);
            racedetect::retire(tid, &c);
        }
        out
    }

    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn shared_single_thread() {
        let s = Shared::new(1u32);
        *s.write() += 1;
        assert_eq!(*s.read(), 2);
        s.update(|v| *v *= 10);
        assert_eq!(s.get(), 20);
        s.set(3);
        assert_eq!(s.into_inner(), 3);
    }

    #[test]
    fn shared_update_get_is_clean_across_threads() {
        // The sanctioned lock-free-counter pattern: plain std threads, no
        // locks, no fork/join edges visible to the detector — update/get
        // self-synchronize through the cell and must never be reported.
        let s = Arc::new(Shared::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        s.update(|v| *v += 1);
                        let _ = s.get();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("update/get must not race");
        }
        assert_eq!(s.get(), 2000);
    }

    #[test]
    fn spawn_join_transfers_ordering() {
        // write() before spawn, read() in the child, write() after join:
        // every pair is ordered by the fork/join edges, so the checked
        // accessors must stay silent.
        let s = Arc::new(Shared::new(0u32));
        *s.write() = 1;
        let s2 = Arc::clone(&s);
        let h = spawn(move || {
            assert_eq!(*s2.read(), 1);
            *s2.write() = 2;
        });
        h.join().expect("child must not race");
        assert_eq!(*s.read(), 2);
        *s.write() = 3;
    }

    #[cfg(debug_assertions)]
    mod order {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        pub(super) fn panic_message(r: std::thread::Result<()>) -> String {
            match r {
                Ok(()) => String::new(),
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            }
        }

        #[test]
        fn inverted_lock_pair_is_detected() {
            let a = Mutex::new(0u32);
            let b = Mutex::new(0u32);
            // Establish the order a -> b.
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            // The inversion b -> a must panic even though no thread is
            // actually deadlocked right now.
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            }));
            let msg = panic_message(r.map(|_| ()));
            assert!(
                msg.contains("lock-order cycle"),
                "expected a lock-order panic, got: {msg:?}"
            );
        }

        #[test]
        fn inversion_across_threads_is_detected() {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            // Thread 1 records a -> b and exits.
            std::thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            })
            .join()
            .expect("ordering thread must not panic");
            // Thread 2 attempts b -> a: cycle.
            let r = std::thread::Builder::new()
                .name("inverter".into())
                .spawn(move || {
                    let _gb = b.lock();
                    let _ga = a.lock();
                })
                .expect("spawn")
                .join();
            let msg = panic_message(r);
            assert!(
                msg.contains("lock-order cycle"),
                "expected a lock-order panic, got: {msg:?}"
            );
        }

        #[test]
        fn consistent_order_is_silent() {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                handles.push(std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _ga = a.lock();
                        let _gb = b.lock();
                    }
                }));
            }
            for h in handles {
                h.join().expect("consistent order must never panic");
            }
        }

        #[test]
        fn rwlock_participates_in_ordering() {
            let a = RwLock::new(0u32);
            let b = Mutex::new(0u32);
            {
                let _ga = a.read();
                let _gb = b.lock();
            }
            let r = catch_unwind(AssertUnwindSafe(|| {
                let _gb = b.lock();
                let _ga = a.write();
            }));
            let msg = panic_message(r.map(|_| ()));
            assert!(
                msg.contains("lock-order cycle"),
                "expected a lock-order panic, got: {msg:?}"
            );
        }
    }

    #[cfg(debug_assertions)]
    mod race {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        #[test]
        fn unordered_write_write_is_detected() {
            let s = Arc::new(Shared::new(0u32));
            let s2 = Arc::clone(&s);
            let (tx, rx) = std::sync::mpsc::channel();
            // A raw std thread: the detector sees no fork edge, and the
            // mpsc signal below is deliberately invisible to it too, so
            // the two write() calls are unordered by anything it trusts.
            let h = std::thread::Builder::new()
                .name("racer".into())
                .spawn(move || {
                    *s2.write() = 1;
                    tx.send(()).expect("send");
                })
                .expect("spawn");
            rx.recv().expect("recv");
            let r = catch_unwind(AssertUnwindSafe(|| {
                *s.write() = 2;
            }));
            h.join().expect("racer itself must not panic");
            let msg = match r {
                Ok(()) => String::new(),
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|x| x.to_string()))
                    .unwrap_or_default(),
            };
            assert!(
                msg.contains("data race detected"),
                "expected a race panic, got: {msg:?}"
            );
            assert!(
                msg.contains("thread 'racer'"),
                "expected the racing thread to be named, got: {msg:?}"
            );
        }

        #[test]
        fn lock_protected_twin_is_silent() {
            // Same shape as above, but both writes happen under one shim
            // mutex: the release->acquire clock transfer orders them.
            let s = Arc::new(Shared::new(0u32));
            let m = Arc::new(Mutex::new(()));
            let (s2, m2) = (Arc::clone(&s), Arc::clone(&m));
            let (tx, rx) = std::sync::mpsc::channel();
            let h = std::thread::spawn(move || {
                {
                    let _g = m2.lock();
                    *s2.write() = 1;
                }
                tx.send(()).expect("send");
            });
            rx.recv().expect("recv");
            {
                let _g = m.lock();
                *s.write() = 2;
            }
            h.join().expect("lock-protected writes must not race");
            assert_eq!(*s.read(), 2);
        }

        /// Runs `first` on a raw std thread, then `second` on this one,
        /// ordered in real time by an `mpsc` signal the detector cannot
        /// see; returns the panic message of `second` ("" if silent).
        fn rw_pair(
            first: impl FnOnce(&RwLock<()>, &Shared<u32>) + Send + 'static,
            second: impl FnOnce(&RwLock<()>, &Shared<u32>),
        ) -> String {
            let rw = Arc::new(RwLock::new(()));
            let s = Arc::new(Shared::new(0u32));
            let (rw2, s2) = (Arc::clone(&rw), Arc::clone(&s));
            let (tx, rx) = std::sync::mpsc::channel();
            let h = std::thread::spawn(move || {
                first(&rw2, &s2);
                tx.send(()).expect("send");
            });
            rx.recv().expect("recv");
            let r = catch_unwind(AssertUnwindSafe(|| second(&rw, &s)));
            h.join().expect("the first side must not panic");
            super::order::panic_message(r)
        }

        #[test]
        fn rw_writer_then_writer_is_silent() {
            let msg = rw_pair(
                |rw, s| {
                    let _g = rw.write();
                    *s.write() = 1;
                },
                |rw, s| {
                    let _g = rw.write();
                    *s.write() = 2;
                },
            );
            assert_eq!(msg, "", "write-locked writes must not race");
        }

        #[test]
        fn rw_writer_then_reader_is_silent() {
            let msg = rw_pair(
                |rw, s| {
                    let _g = rw.write();
                    *s.write() = 1;
                },
                |rw, s| {
                    let _g = rw.read();
                    assert_eq!(*s.read(), 1);
                },
            );
            assert_eq!(msg, "", "a read lock is ordered after a write release");
        }

        #[test]
        fn rw_reader_then_writer_is_silent() {
            let msg = rw_pair(
                |rw, s| {
                    let _g = rw.read();
                    let _ = *s.read();
                },
                |rw, s| {
                    let _g = rw.write();
                    *s.write() = 2;
                },
            );
            assert_eq!(msg, "", "a write lock is ordered after a read release");
        }

        #[test]
        fn rw_readers_writing_race() {
            let msg = rw_pair(
                |rw, s| {
                    let _g = rw.read();
                    *s.write() = 1;
                },
                |rw, s| {
                    let _g = rw.read();
                    *s.write() = 2;
                },
            );
            assert!(
                msg.contains("data race detected"),
                "readers do not order each other, got: {msg:?}"
            );
        }
    }
}
