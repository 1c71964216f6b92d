//! The kvcsd-mc controlled-scheduler runtime: the cooperative, fully
//! serialized execution mode the `crates/mc` explorer drives.
//!
//! In normal debug runs the `sync` shims are passive instrumentation —
//! the OS scheduler picks interleavings and the race detector/lockdep
//! observe them. In *controlled* mode (activated by
//! [`Execution::begin`], mutually exclusive with `KVCSD_PERTURB`) every
//! shim operation becomes a **scheduling point**: the thread declares the
//! operation it is about to perform — `Mutex`/`RwLock` acquire,
//! `Shared<T>` access, `spawn`'s child start, `join` — and then parks
//! until the explorer grants it. Exactly one managed thread runs at a
//! time, so the explorer observes every live thread's next transition
//! before choosing, which is precisely the visibility dynamic
//! partial-order reduction needs.
//!
//! Model notes:
//!
//! * **Acquires are choice points, releases are bookkeeping.** A guard
//!   drop updates the modeled hold state without parking. This loses no
//!   schedules for lock-only programs: any thread that could run "between
//!   a release and the holder's next acquire" is offered exactly that
//!   state at the holder's next scheduling point, because the holder runs
//!   uninterrupted from one point to the next.
//! * **Enabledness is modeled, not discovered.** `Mutex` lock on a held
//!   lock (or `join` on a live child) is *disabled*; the explorer never
//!   grants it, so the real `std::sync` primitive underneath can never
//!   block a granted thread. All-threads-disabled is a real deadlock and
//!   is reported as such, with the schedule that produced it.
//! * **Object identity is per-execution.** Each shim object carries an
//!   [`McSlot`]; ids are assigned lazily in first-touch order under the
//!   serialized schedule, so equal schedule prefixes always name objects
//!   identically — which is what makes traces replayable and DPOR's
//!   dependence comparisons meaningful.
//! * **Unmanaged threads pass through.** Only threads spawned (directly
//!   or transitively) by the harness closure are scheduled; concurrent
//!   tests in the same binary keep running free. A process-wide gate
//!   serializes explorations themselves.
//! * **Failure teardown is abort-and-drain.** On a panic or modeled
//!   deadlock the runtime flips to abort mode: every parked thread wakes
//!   and free-runs; threads stuck in a *real* deadlock (the modeled one,
//!   now materialized on the real locks) are leaked rather than joined —
//!   the process moves on and the next execution's epoch makes every
//!   stale scheduling point a no-op.
//!
//! Release builds compile the whole runtime out; [`controlled_active`]
//! is a constant `false` and the explorer runs its closure once,
//! uncontrolled. Only the op vocabulary ([`OpKind`], [`Access`]) stays,
//! because the `sync` shims name their ops in every build.

#[cfg(debug_assertions)]
pub use imp::*;

/// The operation a thread declares at a scheduling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A spawned thread's first point, before any user code runs.
    Start,
    MutexLock,
    RwRead,
    RwWrite,
    /// Race-checked `Shared::read` (guard-returning).
    SharedRead,
    /// Race-checked `Shared::write` (guard-returning).
    SharedWrite,
    /// Self-synchronized `Shared::get` (acquire+release in one op).
    SharedGet,
    /// Self-synchronized `Shared::update`/`set` (RMW in one op).
    SharedRmw,
    /// `JoinHandle::join`; `obj` is the child's tid, enabled once the
    /// child has exited.
    Join,
}

/// How an op touches its object, for enabledness and (in the
/// explorer) DPOR dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Exclusive,
    Shared,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Start => "start",
            OpKind::MutexLock => "mutex-lock",
            OpKind::RwRead => "rw-read",
            OpKind::RwWrite => "rw-write",
            OpKind::SharedRead => "shared-read",
            OpKind::SharedWrite => "shared-write",
            OpKind::SharedGet => "shared-get",
            OpKind::SharedRmw => "shared-rmw",
            OpKind::Join => "join",
        }
    }

    pub fn parse(s: &str) -> Option<OpKind> {
        Some(match s {
            "start" => OpKind::Start,
            "mutex-lock" => OpKind::MutexLock,
            "rw-read" => OpKind::RwRead,
            "rw-write" => OpKind::RwWrite,
            "shared-read" => OpKind::SharedRead,
            "shared-write" => OpKind::SharedWrite,
            "shared-get" => OpKind::SharedGet,
            "shared-rmw" => OpKind::SharedRmw,
            "join" => OpKind::Join,
            _ => return None,
        })
    }

    /// `None` for `Start`/`Join`, whose `obj` is a thread id, not a
    /// sync object.
    pub fn access(self) -> Option<Access> {
        match self {
            OpKind::Start | OpKind::Join => None,
            OpKind::MutexLock | OpKind::RwWrite | OpKind::SharedWrite | OpKind::SharedRmw => {
                Some(Access::Exclusive)
            }
            OpKind::RwRead | OpKind::SharedRead | OpKind::SharedGet => Some(Access::Shared),
        }
    }
}

/// Whether a controlled-scheduler execution is currently active (release
/// builds: never).
#[cfg(not(debug_assertions))]
pub fn controlled_active() -> bool {
    false
}

#[cfg(debug_assertions)]
mod imp {
    use super::{Access, OpKind};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};
    use std::time::Duration;

    /// Low bits of an [`McSlot`] word that carry the object id; the high
    /// bits carry the execution epoch that assigned it.
    const OBJ_BITS: u32 = 20;
    const OBJ_MASK: u64 = (1 << OBJ_BITS) - 1;

    /// Per-shim-object identity slot. Stores `epoch << OBJ_BITS | id`
    /// (zero = unassigned); a stale epoch means the object predates the
    /// current execution and is re-registered on first touch.
    #[derive(Debug)]
    pub struct McSlot(AtomicU64);

    impl McSlot {
        pub const fn new() -> Self {
            Self(AtomicU64::new(0))
        }
    }

    impl Default for McSlot {
        fn default() -> Self {
            Self::new()
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TState {
        /// Registered at spawn but not yet parked at its `Start` point.
        Starting,
        Parked,
        Running,
        Exited,
    }

    #[derive(Debug, Clone, Copy)]
    struct ThreadSt {
        state: TState,
        kind: OpKind,
        obj: u64,
    }

    #[derive(Debug, Default, Clone, Copy)]
    struct ObjSt {
        writer: bool,
        readers: u32,
    }

    #[derive(Debug, Default)]
    struct CtrlState {
        epoch: u64,
        aborting: bool,
        threads: Vec<ThreadSt>,
        /// Threads registered but not yet parked at `Start`: the
        /// explorer waits for this to drain before offering a choice.
        starting: usize,
        running: Option<u32>,
        granted: Option<u32>,
        objects: Vec<ObjSt>,
        panicked: Vec<u32>,
    }

    /// The epoch of the active execution; 0 = controlled mode off.
    static ACTIVE_EPOCH: AtomicU64 = AtomicU64::new(0);
    static EPOCHS: AtomicU64 = AtomicU64::new(0);

    fn ctrl() -> &'static (StdMutex<CtrlState>, Condvar) {
        static S: OnceLock<(StdMutex<CtrlState>, Condvar)> = OnceLock::new();
        S.get_or_init(|| (StdMutex::new(CtrlState::default()), Condvar::new()))
    }

    /// Process-wide "one exploration at a time" gate, so concurrently
    /// running mc tests in one binary cannot interleave executions.
    fn gate() -> &'static StdMutex<()> {
        static G: OnceLock<StdMutex<()>> = OnceLock::new();
        G.get_or_init(|| StdMutex::new(()))
    }

    fn relock<'a, T>(m: &'a StdMutex<T>) -> StdMutexGuard<'a, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    thread_local! {
        /// `(epoch, tid)` when this thread belongs to the active execution.
        static MANAGED: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
    }

    fn managed() -> Option<(u64, u32)> {
        MANAGED.try_with(|m| m.get()).ok().flatten()
    }

    /// Whether a controlled-scheduler execution is currently active.
    pub fn controlled_active() -> bool {
        ACTIVE_EPOCH.load(Ordering::Relaxed) != 0
    }

    fn ensure_obj(st: &mut CtrlState, slot: &McSlot) -> u64 {
        let v = slot.0.load(Ordering::Relaxed);
        if v != 0 && (v >> OBJ_BITS) == st.epoch {
            return v & OBJ_MASK;
        }
        let id = st.objects.len() as u64;
        assert!(id < OBJ_MASK, "kvcsd-mc: object id space exhausted");
        st.objects.push(ObjSt::default());
        slot.0.store((st.epoch << OBJ_BITS) | id, Ordering::Relaxed);
        id
    }

    fn enabled_in(st: &CtrlState, t: &ThreadSt) -> bool {
        if t.kind == OpKind::Join {
            return st
                .threads
                .get(t.obj as usize)
                .is_none_or(|c| c.state == TState::Exited);
        }
        // `Start` names no sync object and is always enabled.
        let Some(access) = t.kind.access() else {
            return true;
        };
        let o = st.objects[t.obj as usize];
        match access {
            Access::Exclusive => !o.writer && o.readers == 0,
            Access::Shared => !o.writer,
        }
    }

    /// Record the hold effects of a just-granted op.
    fn apply_grant(st: &mut CtrlState, tid: u32) {
        let t = st.threads[tid as usize];
        if let Some(a) = t.kind.access() {
            let o = &mut st.objects[t.obj as usize];
            match a {
                Access::Exclusive => o.writer = true,
                Access::Shared => o.readers += 1,
            }
        }
    }

    enum Target<'a> {
        Slot(&'a McSlot),
        Child(u32),
        None,
    }

    /// Declare `kind`, then block until the explorer grants this thread.
    /// Returns immediately for unmanaged threads, stale epochs and abort
    /// mode (the free-run path).
    fn park(ep: u64, tid: u32, kind: OpKind, target: Target<'_>) {
        let (lock, cvar) = ctrl();
        let mut st = relock(lock);
        if st.epoch != ep || st.aborting {
            return;
        }
        let obj = match target {
            Target::Slot(slot) => ensure_obj(&mut st, slot),
            Target::Child(c) => c as u64,
            Target::None => 0,
        };
        if st.threads[tid as usize].state == TState::Starting {
            st.starting -= 1;
        } else if st.running == Some(tid) {
            st.running = None;
        }
        {
            let t = &mut st.threads[tid as usize];
            t.state = TState::Parked;
            t.kind = kind;
            t.obj = obj;
        }
        cvar.notify_all();
        loop {
            if st.epoch != ep || st.aborting {
                return;
            }
            if st.granted == Some(tid) {
                st.granted = None;
                apply_grant(&mut st, tid);
                st.threads[tid as usize].state = TState::Running;
                st.running = Some(tid);
                cvar.notify_all();
                return;
            }
            st = cvar.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Scheduling point for an operation on a shim object. Called by
    /// `kvcsd_sim::sync` before the real primitive is touched.
    pub(crate) fn point_sync(slot: &McSlot, kind: OpKind) {
        if ACTIVE_EPOCH.load(Ordering::Relaxed) == 0 {
            return;
        }
        let Some((ep, tid)) = managed() else {
            return;
        };
        park(ep, tid, kind, Target::Slot(slot));
    }

    /// Scheduling point for `JoinHandle::join`. `child` is the handle's
    /// managed identity, if the child was spawned under this execution.
    pub(crate) fn point_join(child: Option<(u64, u32)>) {
        if ACTIVE_EPOCH.load(Ordering::Relaxed) == 0 {
            return;
        }
        let Some((ep, tid)) = managed() else {
            return;
        };
        let Some((cep, ctid)) = child else {
            return;
        };
        if cep != ep {
            return;
        }
        park(ep, tid, OpKind::Join, Target::Child(ctid));
    }

    /// Hold-state bookkeeping for a guard drop or the release half of a
    /// self-synchronized `Shared` op. Never parks.
    pub(crate) fn release_sync(slot: &McSlot, access: Access) {
        if ACTIVE_EPOCH.load(Ordering::Relaxed) == 0 {
            return;
        }
        let Some((ep, _)) = managed() else {
            return;
        };
        let (lock, _) = ctrl();
        let mut st = relock(lock);
        if st.epoch != ep || st.aborting {
            return;
        }
        let v = slot.0.load(Ordering::Relaxed);
        if v == 0 || (v >> OBJ_BITS) != st.epoch {
            return;
        }
        let o = &mut st.objects[(v & OBJ_MASK) as usize];
        match access {
            Access::Exclusive => o.writer = false,
            Access::Shared => o.readers = o.readers.saturating_sub(1),
        }
    }

    /// A child thread's registration, handed from the spawning (managed)
    /// thread into the child's closure.
    #[derive(Debug)]
    pub struct SpawnToken {
        epoch: u64,
        tid: u32,
    }

    impl SpawnToken {
        pub(crate) fn ids(&self) -> (u64, u32) {
            (self.epoch, self.tid)
        }
    }

    /// Register a child about to be spawned by the current (managed)
    /// thread; `None` when controlled mode is off or the spawner is
    /// unmanaged — the child then runs free.
    pub(crate) fn register_spawn() -> Option<SpawnToken> {
        if ACTIVE_EPOCH.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let (ep, _) = managed()?;
        let (lock, _) = ctrl();
        let mut st = relock(lock);
        if st.epoch != ep || st.aborting {
            return None;
        }
        let tid = st.threads.len() as u32;
        st.threads.push(ThreadSt {
            state: TState::Starting,
            kind: OpKind::Start,
            obj: 0,
        });
        st.starting += 1;
        Some(SpawnToken { epoch: ep, tid })
    }

    /// Scope marking the current OS thread as the managed thread `tok`
    /// names: parks at its `Start` point immediately, and marks the
    /// thread exited (recording a panic if unwinding) on drop.
    #[derive(Debug)]
    pub(crate) struct ThreadScope {
        epoch: u64,
        tid: u32,
    }

    pub(crate) fn enter_thread(tok: SpawnToken) -> ThreadScope {
        let SpawnToken { epoch, tid } = tok;
        let _ = MANAGED.try_with(|m| m.set(Some((epoch, tid))));
        park(epoch, tid, OpKind::Start, Target::None);
        ThreadScope { epoch, tid }
    }

    impl Drop for ThreadScope {
        fn drop(&mut self) {
            let (lock, cvar) = ctrl();
            let mut st = relock(lock);
            if st.epoch == self.epoch {
                if std::thread::panicking() {
                    st.panicked.push(self.tid);
                }
                if st.threads[self.tid as usize].state == TState::Starting {
                    st.starting -= 1;
                }
                st.threads[self.tid as usize].state = TState::Exited;
                if st.running == Some(self.tid) {
                    st.running = None;
                }
                cvar.notify_all();
            }
            drop(st);
            let _ = MANAGED.try_with(|m| m.set(None));
        }
    }

    /// One thread's declared next transition, as offered to the explorer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Pending {
        pub tid: u32,
        pub kind: OpKind,
        /// Sync-object id, or the child tid for `Join` (meaningless for
        /// `Start`).
        pub obj: u64,
        pub enabled: bool,
    }

    /// What the explorer sees at quiescence.
    #[derive(Debug, Clone)]
    pub enum Step {
        /// Live threads with their declared ops; choose one enabled tid
        /// and [`Execution::grant`] it. All-disabled = modeled deadlock.
        Choice(Vec<Pending>),
        /// Every managed thread exited cleanly.
        Done,
        /// At least one managed thread panicked; stop the schedule.
        Panicked,
    }

    /// Result of tearing an execution down.
    #[derive(Debug, Clone)]
    pub struct ExecOutcome {
        /// Panic payload of the root thread, if it panicked.
        pub panic: Option<String>,
        /// Number of managed threads that panicked.
        pub panicked_threads: usize,
    }

    fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }

    /// One controlled execution of a harness closure. The explorer drives
    /// it: `begin` → `start(f)` → loop { `next` → `grant` } → `finish`.
    pub struct Execution {
        epoch: u64,
        root: Option<crate::sync::JoinHandle<()>>,
        done: bool,
        _gate: StdMutexGuard<'static, ()>,
    }

    impl Execution {
        /// Enter controlled mode. Panics if seeded perturbation is
        /// active: two schedulers silently interleaving would make both
        /// worthless.
        pub fn begin() -> Execution {
            let gate = relock(gate());
            if crate::perturb::active_seed().is_some() {
                panic!(
                    "kvcsd-mc: cannot enter controlled-scheduler mode while a KVCSD_PERTURB \
                     seed is active — the mc scheduler and the seeded yield-point perturbation \
                     are mutually exclusive (two schedulers would silently interleave). Unset \
                     KVCSD_PERTURB / call kvcsd_sim::perturb::install_seed(0) before exploring."
                );
            }
            let epoch = EPOCHS.fetch_add(1, Ordering::Relaxed) + 1;
            {
                let (lock, _) = ctrl();
                let mut st = relock(lock);
                *st = CtrlState {
                    epoch,
                    ..CtrlState::default()
                };
            }
            ACTIVE_EPOCH.store(epoch, Ordering::Relaxed);
            Execution {
                epoch,
                root: None,
                done: false,
                _gate: gate,
            }
        }

        /// Spawn the harness closure as the root managed thread (tid 0).
        pub fn start<F: FnOnce() + Send + 'static>(&mut self, f: F) {
            {
                let (lock, _) = ctrl();
                let mut st = relock(lock);
                assert!(
                    st.threads.is_empty(),
                    "kvcsd-mc: Execution::start called twice"
                );
                st.threads.push(ThreadSt {
                    state: TState::Starting,
                    kind: OpKind::Start,
                    obj: 0,
                });
                st.starting = 1;
            }
            let tok = SpawnToken {
                epoch: self.epoch,
                tid: 0,
            };
            self.root = Some(crate::sync::spawn_root(tok, f));
        }

        /// Block until the execution is quiescent (no managed thread
        /// running or starting up), then report its state.
        // Not an Iterator: the caller must interleave grant() between
        // calls, and Step::Choice borrows no item to yield.
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> Step {
            let (lock, cvar) = ctrl();
            let mut st = relock(lock);
            loop {
                assert_eq!(st.epoch, self.epoch, "kvcsd-mc: stale Execution handle");
                if st.running.is_none() && st.starting == 0 && st.granted.is_none() {
                    if !st.panicked.is_empty() {
                        return Step::Panicked;
                    }
                    if st.threads.iter().all(|t| t.state == TState::Exited) {
                        return Step::Done;
                    }
                    let pending = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.state == TState::Parked)
                        .map(|(i, t)| Pending {
                            tid: i as u32,
                            kind: t.kind,
                            obj: t.obj,
                            enabled: enabled_in(&st, t),
                        })
                        .collect();
                    return Step::Choice(pending);
                }
                let (g, timeout) = cvar
                    .wait_timeout(st, Duration::from_secs(30))
                    .unwrap_or_else(|p| p.into_inner());
                st = g;
                if timeout.timed_out() {
                    panic!(
                        "kvcsd-mc: controlled execution made no progress for 30s — a managed \
                         thread is blocked outside any scheduling point (raw std primitive, \
                         channel recv, or unbounded spin without shim accesses)"
                    );
                }
            }
        }

        /// Grant the next slice to `tid` (must be parked and enabled).
        pub fn grant(&mut self, tid: u32) {
            let (lock, cvar) = ctrl();
            let mut st = relock(lock);
            assert_eq!(st.epoch, self.epoch, "kvcsd-mc: stale Execution handle");
            let t = st.threads[tid as usize];
            assert!(
                t.state == TState::Parked,
                "kvcsd-mc: grant({tid}) but thread is {:?}",
                t.state
            );
            assert!(
                enabled_in(&st, &t),
                "kvcsd-mc: grant({tid}) but its {} is disabled",
                t.kind.name()
            );
            st.granted = Some(tid);
            cvar.notify_all();
        }

        /// Tear the execution down: abort-wake every parked thread, wait
        /// a bounded time for the root to drain, leak anything that
        /// materialized a real deadlock. Returns panic information.
        pub fn finish(mut self) -> ExecOutcome {
            self.shutdown()
        }

        fn shutdown(&mut self) -> ExecOutcome {
            self.done = true;
            {
                let (lock, cvar) = ctrl();
                let mut st = relock(lock);
                st.aborting = true;
                cvar.notify_all();
            }
            let mut panic = None;
            if let Some(h) = self.root.take() {
                // The modeled deadlock is now a real one on the freed
                // threads; poll briefly, then detach rather than hang.
                let mut spins = 0u32;
                while !h.is_finished() && spins < 2000 {
                    std::thread::sleep(Duration::from_millis(1));
                    spins += 1;
                }
                if h.is_finished() {
                    if let Err(p) = h.join() {
                        panic = Some(payload_str(p.as_ref()));
                    }
                }
            }
            let panicked_threads = {
                let (lock, _) = ctrl();
                relock(lock).panicked.len()
            };
            ACTIVE_EPOCH.store(0, Ordering::Relaxed);
            ExecOutcome {
                panic,
                panicked_threads,
            }
        }
    }

    impl Drop for Execution {
        fn drop(&mut self) {
            if !self.done {
                let _ = self.shutdown();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn perturb_and_controlled_mode_exclude_each_other() {
            // Seed installed first: entering controlled mode must refuse.
            crate::perturb::install_seed(0x5EED);
            let begun = std::panic::catch_unwind(std::panic::AssertUnwindSafe(Execution::begin));
            crate::perturb::install_seed(0);
            let msg = match begun {
                Ok(_) => panic!("Execution::begin must refuse while a perturb seed is active"),
                Err(p) => payload_str(p.as_ref()),
            };
            assert!(msg.contains("mutually exclusive"), "{msg}");

            // Controlled mode active first: installing a seed must refuse.
            let exec = Execution::begin();
            let installed = std::panic::catch_unwind(|| crate::perturb::install_seed(7));
            let msg = match installed {
                Ok(()) => panic!("install_seed must refuse while an mc execution is active"),
                Err(p) => payload_str(p.as_ref()),
            };
            assert!(msg.contains("mutually exclusive"), "{msg}");
            assert!(
                crate::perturb::active_seed().is_none(),
                "refused seed must not stick"
            );
            drop(exec);
            assert!(!controlled_active());
        }
    }
}
