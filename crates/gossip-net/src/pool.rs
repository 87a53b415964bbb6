//! A persistent worker pool for the engine's per-round chunk maps.
//!
//! PR 1 executed every round as a fork/join over `std::thread::scope`, which
//! re-spawns OS threads for every chunk map — two maps per round, so eight
//! spawns per `pull_round` at four threads. Spawning dominates below ~16k
//! nodes. [`WorkerPool`] replaces that with **long-lived workers** parked on a
//! condition variable; dispatching a round costs two mutex/condvar hand-offs
//! instead of `threads` thread creations.
//!
//! ## Barrier protocol
//!
//! The pool runs one *job* at a time. A job is an epoch-stamped task list:
//!
//! 1. [`WorkerPool::run`] takes the dispatch gate (so concurrent callers —
//!    e.g. two engines sharing one pool from two user threads — serialise),
//!    publishes the job under the state mutex (`epoch += 1`, task cursor
//!    reset, a *join budget* of `min(workers, tasks − 1)`), and wakes that
//!    many workers — after releasing the state mutex, so the first woken
//!    worker does not immediately block on the lock the notifier still
//!    holds. The budget keeps a small map on a large shared pool from
//!    waking — or waiting on — workers it has no tasks for; it always drains,
//!    because a worker is either parked (a wake-up reaches it) or mid-loop
//!    (it re-checks the join predicate under the mutex before parking).
//! 2. Each woken worker joins the epoch by decrementing the budget under the
//!    mutex (a worker woken in excess of the budget, or spuriously, parks
//!    again without touching the job); every joined worker **and the calling
//!    thread** then claims task indices from a shared atomic cursor
//!    (`fetch_add`) until the cursor passes the task count, and runs the job
//!    closure on each index it won.
//! 3. Each joined worker then decrements `running`; the caller blocks until
//!    `running == 0` before returning. This quiescence barrier is what makes
//!    the lifetime erasure below sound: no worker can touch the job closure
//!    (which borrows the caller's stack) after `run` returns, and an unwind
//!    guard enforces the same if the caller's own task panics.
//!
//! Worker panics are caught per job, forwarded to the caller after the
//! barrier, and leave the pool usable.
//!
//! ## Resident sessions (round programs)
//!
//! The epoch/condvar hand-off above costs tens of microseconds per dispatch
//! on a busy host — negligible for one big map, dominant for a schedule of
//! hundreds of sub-millisecond rounds (the regime the paper's tournament
//! schedules live in). [`WorkerPool::run_program`] removes that per-round
//! constant: it wakes every worker **once**, runs the whole multi-round
//! program with the workers *resident*, and only then lets them park again.
//!
//! Inside a session, a dispatch from the owning thread (any
//! [`WorkerPool::run`] call it makes — the engine's round primitives need no
//! changes) becomes a *phase*: the owner publishes the task list and bumps a
//! phase word (phase counter packed with the phase's participant count, so a
//! worker's decision to join a phase is atomic with observing it — see
//! `PHASE_SHIFT`); resident workers synchronise on that word with a
//! spin-then-park wait (`GOSSIP_SPIN_US` sets the spin budget; spinning
//! yields the CPU periodically so an oversubscribed host keeps making
//! progress, and a worker that outlives the budget parks on the condvar and
//! is woken by the next phase bump). Between phases the owner thread —
//! executor 0 — performs the program's short sequential work (straggler
//! drains, buffer swaps, metrics folds, active-set unions) while the workers
//! wait at the barrier. The per-phase quiescence wait (`remaining == 0`)
//! plays the same lifetime-erasure-soundness role as `running == 0` does for
//! plain jobs.
//!
//! Phases keep the exact task semantics of plain dispatches — same task
//! indices, same cursor-claimed assignment, same per-phase barrier — so a
//! program's results are **bit-identical** to the equivalent loop of single
//! dispatches (pinned by `tests/program.rs`); only the hand-off cost changes.
//!
//! ## Determinism argument
//!
//! The pool influences only *which thread* executes a task, never *what* the
//! task computes: [`crate::par::for_chunks`] assigns chunk `i` of the input to
//! task `i`, every task writes its result into slot `i`, and the caller folds
//! the slots in index order after the barrier. Which executor won which index
//! — and the pool's size — is therefore invisible in the results, preserving
//! the engine's bit-identical-at-any-thread-count contract (pinned by
//! `tests/determinism.rs`).
//!
//! ## The one `unsafe`
//!
//! The job closure borrows the caller's stack (the chunk and slot tables of a
//! `for_chunks` call), but worker threads are `'static`, so the pool stores
//! the closure as a lifetime-erased raw pointer (`TaskPtr`). The quiescence
//! barrier above (plus its unwind guard) guarantees the pointee outlives every
//! dereference — per job for plain dispatches, per phase for resident ones.
//! This is the standard scoped-pool construction (rayon's `scope` does the
//! same) and is the only unsafe code in the crate; the rest of the crate
//! stays `deny(unsafe_code)`-clean.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, ignoring poison: the pool forwards worker panics itself
/// (after the quiescence barrier), so a poisoned lock carries no extra
/// information and must not wedge the pool for subsequent jobs.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A per-thread token distinguishing live threads: the address of a
/// thread-local, which is unique among concurrently running threads and never
/// zero. Used to recognise the resident-session owner in
/// [`WorkerPool::run`]'s fast path without taking any lock.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

/// Default spin budget of the resident phase barrier, in microseconds,
/// read from `GOSSIP_SPIN_US` (clamped to `[0, 100_000]`; `0` parks
/// immediately — the pure condvar fallback the CI matrix exercises).
///
/// Without an explicit setting the budget is 100 µs, **provided** `threads`
/// executors actually fit the host's cores: an oversubscribed pool (more
/// executors than cores — a CI container, a 1-core box running the 8-thread
/// matrix) gets `0`, because a spinning waiter then steals the very core its
/// peer needs to reach the barrier, turning each phase hand-off into a full
/// scheduler quantum. The env var always wins over the heuristic, so the
/// spin paths stay testable anywhere.
pub fn spin_us_from_env(threads: usize) -> u64 {
    if let Some(v) = std::env::var("GOSSIP_SPIN_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        return v.min(100_000);
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if threads > cores {
        0
    } else {
        100
    }
}

/// Lifetime-erased pointer to a caller-owned `dyn Fn(usize) + Sync` job
/// closure. Safety: only dereferenced by executors between job publication
/// and the quiescence barrier of the same [`WorkerPool::run`] call (or
/// resident phase), during which the pointee is borrowed by the caller frame.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

impl TaskPtr {
    /// Erases the closure's borrow of the caller's stack.
    ///
    /// # Safety
    ///
    /// The caller must not let any dereference of the returned pointer
    /// outlive `'a` — in the pool, the quiescence barrier of the `run` call
    /// (or resident phase) that published the job enforces this.
    unsafe fn erase<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> TaskPtr {
        let short: *const (dyn Fn(usize) + Sync + 'a) = task;
        // SAFETY: identical layout; only the lifetime bound changes.
        TaskPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'a),
                *const (dyn Fn(usize) + Sync + 'static),
            >(short)
        })
    }
}

// SAFETY: the pointee is `Sync` (shared references may cross threads), and
// the quiescence barrier bounds every dereference within the lifetime of the
// `run` call that published it.
unsafe impl Send for TaskPtr {}

/// A published task batch: the erased closure and how many task indices it
/// has.
#[derive(Clone, Copy)]
struct BatchJob {
    task: TaskPtr,
    tasks: usize,
}

/// The job currently published to the workers.
#[derive(Clone, Copy)]
enum Job {
    /// A one-shot task batch (a plain [`WorkerPool::run`]).
    Batch(BatchJob),
    /// A resident session: joining workers enter the phase loop and stay
    /// there until the session ends.
    Resident,
}

/// State shared between the caller and the workers, guarded by one mutex.
struct PoolState {
    /// Increments once per published job; workers use it to tell a fresh job
    /// from the one they just finished.
    epoch: u64,
    /// The published job, present from publication until the caller's
    /// quiescence barrier clears it.
    job: Option<Job>,
    /// Workers still allowed to join the current epoch. Initialised to
    /// `min(workers, tasks − 1)` so that a small map on a large shared pool
    /// does not wake — or wait for — more workers than it has tasks for;
    /// a worker may only touch the job after decrementing this under the
    /// mutex.
    join_budget: usize,
    /// Joined workers that have not finished the current epoch; the caller
    /// returns from [`WorkerPool::run`] only once this reaches zero (at which
    /// point the whole join budget has been consumed and retired).
    running: usize,
    /// Set when any executor's task panicked during the current job.
    panicked: bool,
    /// Tells the workers to exit; set once, by [`WorkerPool`]'s `Drop`.
    shutdown: bool,
}

/// Bit split of [`ResidentState::phase`]: phase counter in the high bits,
/// that phase's participant count in the low [`PHASE_SHIFT`] bits (a pool has
/// at most 255 workers, so 16 bits are ample; 48 phase bits outlast any
/// session). Packing them into **one** atomic is what makes a worker's
/// participation decision atomic with its phase observation: a lagging worker
/// that sat out phase N and only wakes after phase N+1 is published reads the
/// *pair* (N+1, participants(N+1)) — it can never combine phase N's wake-up
/// with phase N+1's participant count, which would let it execute a phase
/// twice (and underflow `remaining`, breaking the quiescence barrier the
/// lifetime-erasure safety argument rests on).
const PHASE_SHIFT: u32 = 16;

/// Phase-counter half of a packed [`ResidentState::phase`] word.
fn phase_of(packed: u64) -> u64 {
    packed >> PHASE_SHIFT
}

/// Participant-count half of a packed [`ResidentState::phase`] word.
fn participants_of(packed: u64) -> usize {
    (packed & ((1 << PHASE_SHIFT) - 1)) as usize
}

/// The lock-free side of a resident session (see the module docs): the phase
/// word the workers synchronise on and the cell the owner publishes each
/// phase's job through.
struct ResidentState {
    /// Thread token of the session owner ([`thread_token`]); `0` = no
    /// session. Read by [`WorkerPool::run`]'s fast path to route the owner's
    /// dispatches through the phase barrier.
    owner: AtomicUsize,
    /// Whether the session is live; a resident worker observing a phase bump
    /// with `active == false` leaves the phase loop.
    active: AtomicBool,
    /// Packed phase word (see [`PHASE_SHIFT`]): publication counter in the
    /// high bits, the phase's participant count (the id-prefix
    /// `0..participants` of the workers) in the low bits. Reset to 0 at
    /// session start; written only by the owner, whose `SeqCst` store is the
    /// release point of the phase's job. Non-participants of a phase never
    /// read the job cell — that is what makes rewriting it next phase sound
    /// while they are still catching up on this word.
    phase: AtomicU64,
    /// The current phase's job. Written by the owner strictly before the
    /// `phase` store and read by participating workers strictly after
    /// observing that store, so the release/acquire pair on `phase` orders
    /// every access (no lock needed).
    job: UnsafeCell<Option<BatchJob>>,
    /// Participants that have not yet finished the current phase; the owner
    /// waits for 0 before returning from the dispatch (the per-phase
    /// quiescence barrier of the lifetime-erasure argument).
    remaining: AtomicUsize,
    /// Resident workers currently parked on `start` (their spin budget ran
    /// out). The owner notifies the condvar after a bump only when this is
    /// non-zero, so an actively spinning session never touches the lock.
    sleepers: AtomicUsize,
    /// Any participant's task panicked during the current phase; drained by
    /// the owner after the phase quiesces.
    panicked: AtomicBool,
}

// SAFETY: the `job` cell is the only non-atomic field. The owner writes it
// before the `SeqCst`/release `phase` store; a worker reads it only when the
// packed word it acquire-loaded names that phase *and* lists the worker as a
// participant (phase and participant count travel in one word, so the pair
// is always consistent), and the owner rewrites the cell only after
// `remaining` reached 0 (release decrements, acquire read) — so every access
// pair is ordered by a happens-before edge and no two accesses race.
unsafe impl Sync for ResidentState {}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch (or shutdown); resident workers
    /// whose spin budget ran out also park here between phases.
    start: Condvar,
    /// The caller waits here for `running == 0`.
    done: Condvar,
    /// Next unclaimed task index of the current job or phase.
    cursor: AtomicUsize,
    /// Resident-session state (see the module docs).
    resident: ResidentState,
    /// Spin budget of the resident phase barrier before a worker parks (and
    /// of the owner's phase-quiescence wait before it falls back to pure
    /// yielding). Never affects results, only the latency/CPU trade.
    spin: Duration,
    /// Cumulative full dispatches: epoch-published jobs and resident-session
    /// starts — each one a complete wake/quiesce hand-off. Resident *phases*
    /// deliberately do not count: not paying this hand-off per round is the
    /// point of a session.
    dispatches: AtomicU64,
    /// Cumulative worker wake-ups: condvar notifications issued by job and
    /// session publication, plus resident sleepers woken by a phase bump.
    wakeups: AtomicU64,
}

/// Scheduling counters of a [`WorkerPool`] — see [`WorkerPool::stats`].
///
/// These measure dispatch overhead, not communication: they are wall-clock
/// observability (how many full hand-offs and wake-ups the pool paid), not
/// part of any algorithm's trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Full dispatch hand-offs: one per non-inline [`WorkerPool::run`]
    /// outside a session, plus one per [`WorkerPool::run_program`] session.
    pub dispatches: u64,
    /// Workers woken: `workers` per full dispatch, plus parked resident
    /// workers woken by phase bumps (best-effort count).
    pub wakeups: u64,
}

/// A persistent pool of worker threads executing deterministic chunk maps.
///
/// Construct one per [`Engine`](crate::Engine) (done automatically), or share
/// one across engines via [`EngineConfig`](crate::EngineConfig)`::pool` /
/// [`Engine::pool`](crate::Engine::pool) — a pool is only ever *scheduling*
/// state, so sharing it cannot couple two engines' results (see the module
/// docs' determinism argument).
///
/// Dropping the pool (its last `Arc`, in engine use) shuts the workers down
/// and joins them.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises [`WorkerPool::run`] calls from different user threads.
    gate: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool with `threads` executors: the calling thread plus
    /// `threads - 1` spawned workers (clamped to `[1, 256]`), with the
    /// resident-barrier spin budget taken from `GOSSIP_SPIN_US`
    /// ([`spin_us_from_env`]: 100 µs when the executors fit the host's
    /// cores, `0` when oversubscribed).
    ///
    /// `WorkerPool::new(1)` spawns nothing and makes [`run`](Self::run)
    /// purely inline — the engine's configuration for small networks.
    /// If the OS refuses a thread, the pool degrades to the workers it got
    /// (results are unaffected; only wall-clock time changes).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_spin(threads, spin_us_from_env(threads))
    }

    /// [`WorkerPool::new`] with an explicit resident-barrier spin budget in
    /// microseconds (`0` = park immediately, the pure condvar fallback).
    /// The budget never affects results, only the latency/CPU trade of
    /// [`WorkerPool::run_program`] phases.
    pub fn with_spin(threads: usize, spin_us: u64) -> WorkerPool {
        let threads = threads.clamp(1, 256);
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                join_budget: 0,
                running: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
            resident: ResidentState {
                owner: AtomicUsize::new(0),
                active: AtomicBool::new(false),
                phase: AtomicU64::new(0),
                job: UnsafeCell::new(None),
                remaining: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
            },
            spin: Duration::from_micros(spin_us.min(100_000)),
            dispatches: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map_while(|i| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gossip-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i - 1))
                    .ok()
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            gate: Mutex::new(()),
        }
    }

    /// Number of executors, counting the calling thread: spawned workers + 1.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Cumulative scheduling counters (monotone over the pool's lifetime):
    /// how many full dispatch hand-offs the pool performed and how many
    /// worker wake-ups it issued. With a shared pool the counts cover every
    /// sharer. [`Engine::metrics`](crate::Engine::metrics) surfaces the
    /// deltas as `pool_dispatches` / `worker_wakeups`.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            dispatches: self.shared.dispatches.load(Ordering::Relaxed),
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
        }
    }

    /// Executes `task(0), task(1), …, task(tasks - 1)`, each exactly once,
    /// distributed over the pool's workers and the calling thread, and blocks
    /// until all of them finished.
    ///
    /// Task-to-thread assignment is first-come-first-served and **not**
    /// deterministic; callers that need deterministic results must make each
    /// task's effect a pure function of its index (the contract
    /// [`crate::par::for_chunks`] builds on top of this).
    ///
    /// Calls from different threads serialise on an internal gate. Do not
    /// call `run` from inside a task closure — the nested call would deadlock
    /// on that gate. From inside a [`WorkerPool::run_program`] session (on
    /// the session's thread), `run` dispatches as a resident phase instead of
    /// a full hand-off — same results, a fraction of the cost.
    ///
    /// # Panics
    ///
    /// If any task panics, `run` panics after all executors quiesced; the
    /// pool itself remains usable.
    pub fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.handles.is_empty() || tasks == 1 {
            // Inline fast path: nothing to hand off. Panics propagate as-is.
            for i in 0..tasks {
                task(i);
            }
            return;
        }
        if self.shared.resident.owner.load(Ordering::Relaxed) == thread_token() {
            // This thread owns the live resident session: dispatch as a
            // phase. (Only the owner thread can ever observe its own token
            // here, so the relaxed load is enough.)
            return self.dispatch_resident(tasks, task);
        }
        let _dispatch = lock(&self.gate);

        // SAFETY (lifetime erasure): the quiescence barrier below, also
        // enforced on unwind, keeps every dereference within this call,
        // while `task` is borrowed.
        let erased = unsafe { TaskPtr::erase(task) };
        // Never involve more workers than there are tasks beyond the
        // caller's own: a 2-chunk map on an 8-executor shared pool wakes and
        // waits for 1 worker, not 7. (Any worker woken in excess of the
        // budget — or spuriously — re-checks the join predicate under the
        // mutex and goes back to sleep without touching the job.)
        let workers = self.handles.len().min(tasks - 1);
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.job.is_none(), "pool gate failed to serialise jobs");
            st.epoch += 1;
            st.join_budget = workers;
            st.running = workers;
            st.panicked = false;
            self.shared.cursor.store(0, Ordering::Relaxed);
            st.job = Some(Job::Batch(BatchJob {
                task: erased,
                tasks,
            }));
        }
        // Wake the workers *after* releasing the state mutex: a worker woken
        // here immediately re-acquires that mutex to join the epoch, so
        // notifying from inside the critical section would hand it a lock
        // the notifier still holds. (The job is already published; a worker
        // that races ahead via a spurious wake finds it without the notify.)
        for _ in 0..workers {
            self.shared.start.notify_one();
        }
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .wakeups
            .fetch_add(workers as u64, Ordering::Relaxed);

        /// Blocks until every worker finished the current job, then retires
        /// it. Running this in `Drop` keeps the barrier in place even when
        /// the caller's own task panics below.
        struct Quiesce<'p>(&'p Shared);
        impl Drop for Quiesce<'_> {
            fn drop(&mut self) {
                let mut st = lock(&self.0.state);
                while st.running > 0 {
                    st = self
                        .0
                        .done
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                st.job = None;
            }
        }
        let barrier = Quiesce(&self.shared);

        // The caller is executor 0: claim tasks like any worker.
        loop {
            let i = self.shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(i);
        }
        drop(barrier);

        if std::mem::replace(&mut lock(&self.shared.state).panicked, false) {
            panic!("gossip worker thread panicked");
        }
    }

    /// Runs `program` as a **resident session**: every worker is woken once,
    /// stays at the phase barrier for the whole call, and parks again only
    /// when `program` returns. Any [`WorkerPool::run`] this thread makes
    /// inside `program` — directly or through engine round primitives —
    /// executes as a phase of the session instead of a full hand-off.
    ///
    /// Results are bit-identical to calling `program` without the session
    /// (phases keep the exact task semantics of plain dispatches); only the
    /// per-dispatch cost changes. Nested `run_program` calls on the same
    /// pool from the session thread are no-ops (the program just runs inside
    /// the existing session), so fused helpers compose freely.
    ///
    /// Calls from different threads serialise on the same gate as
    /// [`WorkerPool::run`]: a second thread blocks until the session ends.
    ///
    /// # Panics
    ///
    /// Worker panics inside a phase are forwarded by that phase's dispatch;
    /// a panic unwinding out of `program` ends the session cleanly (workers
    /// park, the pool remains usable) and continues unwinding.
    pub fn run_program<R>(&self, program: impl FnOnce() -> R) -> R {
        if self.handles.is_empty() {
            // No workers: every dispatch is inline anyway, there is nothing
            // to keep resident.
            return program();
        }
        let token = thread_token();
        if self.shared.resident.owner.load(Ordering::Relaxed) == token {
            // Re-entrant: already inside this pool's session on this thread.
            return program();
        }
        let _dispatch = lock(&self.gate);
        let workers = self.handles.len();
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.job.is_none(), "pool gate failed to serialise jobs");
            st.epoch += 1;
            st.join_budget = workers;
            st.running = workers;
            st.panicked = false;
            st.job = Some(Job::Resident);
            let r = &self.shared.resident;
            r.phase.store(0, Ordering::Relaxed);
            r.remaining.store(0, Ordering::Relaxed);
            r.panicked.store(false, Ordering::Relaxed);
            r.active.store(true, Ordering::SeqCst);
            r.owner.store(token, Ordering::Relaxed);
        }
        // One wake-up for the whole program (outside the critical section,
        // as in `run`) — this is the dispatch cost the session amortises
        // over every round inside it.
        for _ in 0..workers {
            self.shared.start.notify_one();
        }
        self.shared.dispatches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .wakeups
            .fetch_add(workers as u64, Ordering::Relaxed);

        /// Ends the session (in `Drop`, so a panic unwinding out of the
        /// program closes it too): revokes the owner token, publishes the
        /// end-of-session phase bump, and waits for every resident worker to
        /// leave the phase loop and retire the epoch.
        struct EndSession<'p>(&'p Shared);
        impl Drop for EndSession<'_> {
            fn drop(&mut self) {
                let r = &self.0.resident;
                r.owner.store(0, Ordering::Relaxed);
                r.active.store(false, Ordering::SeqCst);
                // Bump only the phase half of the packed word; the stale
                // participant bits are harmless because workers check
                // `active` (ordered before this bump) before consulting
                // them.
                r.phase.fetch_add(1 << PHASE_SHIFT, Ordering::SeqCst);
                if r.sleepers.load(Ordering::SeqCst) > 0 {
                    drop(lock(&self.0.state));
                    self.0.start.notify_all();
                }
                let mut st = lock(&self.0.state);
                while st.running > 0 {
                    st = self
                        .0
                        .done
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                st.job = None;
                r.panicked.store(false, Ordering::Relaxed);
                // SAFETY: all workers left the phase loop (`running == 0`),
                // so nothing concurrently reads the cell.
                unsafe {
                    *r.job.get() = None;
                }
            }
        }
        let session = EndSession(&self.shared);
        let result = program();
        drop(session);
        result
    }

    /// Dispatches one phase of the live resident session (see the module
    /// docs): publish the job, bump the phase counter, claim tasks alongside
    /// the workers, and wait for the phase to quiesce.
    fn dispatch_resident(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let shared = &self.shared;
        let r = &shared.resident;
        // SAFETY (lifetime erasure): the phase-quiescence barrier below,
        // also enforced on unwind, keeps every dereference within this call,
        // while `task` is borrowed.
        let erased = unsafe { TaskPtr::erase(task) };
        // Same involvement rule as `run`: a 2-task phase on an 8-worker pool
        // involves 1 worker. Non-participants skip the phase without reading
        // the job cell (which is what makes rewriting it next phase sound
        // even while they still catch up on the phase word).
        let participants = self.handles.len().min(tasks - 1);
        // SAFETY: a worker reads the cell only after its acquire load of the
        // packed phase word returns this phase *with* a participant count
        // covering its id — the decision travels in one word with the phase,
        // so a lagging worker can never act on a stale pairing. Every
        // participant of the previous phase decremented `remaining` (and the
        // owner saw 0) before this call, so no reader of the old value
        // remains.
        unsafe {
            *r.job.get() = Some(BatchJob {
                task: erased,
                tasks,
            });
        }
        r.remaining.store(participants, Ordering::Relaxed);
        shared.cursor.store(0, Ordering::Relaxed);
        // Publish phase and participant count as one packed word. Only the
        // owner writes `phase`, so load-then-store does not race.
        let next = phase_of(r.phase.load(Ordering::Relaxed)) + 1;
        r.phase
            .store(next << PHASE_SHIFT | participants as u64, Ordering::SeqCst);
        // Wake parked workers, if any. The `SeqCst` store above and the
        // `SeqCst` sleeper registration in `wait_for_phase` order each other:
        // either the worker's re-check sees the new phase, or this load sees
        // the sleeper and notifies. The empty lock/unlock serialises with a
        // worker that checked the phase under the mutex but has not yet
        // entered `wait`.
        let sleepers = r.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            drop(lock(&shared.state));
            shared.start.notify_all();
            shared.wakeups.fetch_add(sleepers as u64, Ordering::Relaxed);
        }

        /// Waits until every participant retired the phase — the per-phase
        /// quiescence barrier, enforced on unwind like `run`'s.
        struct PhaseQuiesce<'p>(&'p Shared);
        impl Drop for PhaseQuiesce<'_> {
            fn drop(&mut self) {
                let r = &self.0.resident;
                let deadline = Instant::now() + self.0.spin;
                loop {
                    if r.remaining.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    if Instant::now() < deadline {
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    } else {
                        // Owner never parks between phases (workers finish
                        // in bounded time); yielding keeps an oversubscribed
                        // host making progress.
                        std::thread::yield_now();
                    }
                }
            }
        }
        let barrier = PhaseQuiesce(shared);

        // The owner is executor 0: claim tasks like any participant.
        loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(i);
        }
        drop(barrier);

        if r.panicked.swap(false, Ordering::Relaxed) {
            panic!("gossip worker thread panicked");
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker side of the barrier protocol (see the module docs). `id` is the
/// worker's stable index (`0..workers`), used for resident-phase
/// participation.
fn worker_loop(shared: &Shared, id: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    // Join the epoch only while its budget lasts; a worker
                    // woken in excess of the budget (or spuriously) sleeps
                    // again without ever touching the job.
                    Some(job) if st.epoch != seen_epoch && st.join_budget > 0 => {
                        seen_epoch = st.epoch;
                        st.join_budget -= 1;
                        break job;
                    }
                    _ => {
                        st = shared
                            .start
                            .wait(st)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                }
            }
        };
        let failed = match job {
            Job::Batch(job) => {
                // SAFETY: the job was published by a `run` call that cannot
                // return (or unwind) before this worker decrements `running`
                // below, so the pointee — the caller's closure — is alive for
                // the whole dereference.
                let task: &(dyn Fn(usize) + Sync) = unsafe { &*job.task.0 };
                catch_unwind(AssertUnwindSafe(|| loop {
                    let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= job.tasks {
                        break;
                    }
                    task(i);
                }))
                .is_err()
            }
            Job::Resident => {
                // Stay at the phase barrier until the session ends. Phase
                // panics are tracked per phase (`resident.panicked`) and
                // forwarded by the owner's dispatch, not via `st.panicked`.
                resident_phase_loop(shared, id);
                false
            }
        };
        let mut st = lock(&shared.state);
        if failed {
            st.panicked = true;
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// Waits (spin, then yield, then park on `start`) until the resident phase
/// counter moves past `seen` (a phase number, not a packed word), and returns
/// the new **packed** phase word — phase and participant count observed as
/// one consistent pair. Returns `None` if the pool shuts down while the
/// counter is unchanged, so the caller leaves the phase loop instead of
/// spinning on a dead session.
fn wait_for_phase(shared: &Shared, seen: u64) -> Option<u64> {
    let r = &shared.resident;
    // Spin-then-yield within the budget. The periodic yield matters on an
    // oversubscribed host: the owner (or another worker) needs the core to
    // make the progress this worker is waiting for.
    if !shared.spin.is_zero() {
        let deadline = Instant::now() + shared.spin;
        loop {
            let p = r.phase.load(Ordering::Acquire);
            if phase_of(p) != seen {
                return Some(p);
            }
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
    }
    // Park: register as a sleeper, re-check, then wait on `start`. The
    // `SeqCst` registration pairs with the owner's `SeqCst` store-then-read:
    // either the re-check sees the new phase, or the owner sees the sleeper
    // and notifies (serialised by its empty lock/unlock of `state`, so the
    // notify cannot fall between the predicate check below and the wait).
    loop {
        let p = r.phase.load(Ordering::SeqCst);
        if phase_of(p) != seen {
            return Some(p);
        }
        r.sleepers.fetch_add(1, Ordering::SeqCst);
        if phase_of(r.phase.load(Ordering::SeqCst)) != seen {
            r.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let shutdown = {
            let mut st = lock(&shared.state);
            while phase_of(r.phase.load(Ordering::SeqCst)) == seen && !st.shutdown {
                st = shared
                    .start
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            st.shutdown
        };
        r.sleepers.fetch_sub(1, Ordering::SeqCst);
        if shutdown && phase_of(r.phase.load(Ordering::SeqCst)) == seen {
            // Shutdown with no phase movement: the session can never
            // progress — exit rather than re-registering forever.
            return None;
        }
    }
}

/// The resident worker's phase loop: wait for each phase bump, run the
/// phase's tasks if participating, retire the phase; leave when the session
/// ends. Sessions start with `phase == 0`, so `seen` tracks the phase numbers
/// this worker has handled. A worker that sat a phase out may lag and observe
/// a *later* phase next — safe, because the owner cannot retire a phase (and
/// publish the next) until every listed participant checked in, so a phase
/// this worker participates in can never be skipped over, and the packed word
/// always pairs the observed phase with *its own* participant count.
fn resident_phase_loop(shared: &Shared, id: usize) {
    let r = &shared.resident;
    let mut seen = 0u64;
    loop {
        let Some(packed) = wait_for_phase(shared, seen) else {
            // Pool shutdown mid-session (not reachable through the engine's
            // lifetimes, but the loop must not outlive the pool if that ever
            // changes).
            return;
        };
        seen = phase_of(packed);
        if !r.active.load(Ordering::SeqCst) {
            return;
        }
        if id >= participants_of(packed) {
            // Sat out: this phase has fewer tasks than the pool has workers.
            // Never touches `job` or `remaining`, so the owner does not wait
            // for this worker — which is why it may lag into a later phase.
            continue;
        }
        // SAFETY: the acquire-ordered observation of the packed word in
        // `wait_for_phase` happens-after the owner's job publication for
        // exactly this phase (participation was decided from the same word,
        // so this cannot be a stale pairing), and the owner cannot rewrite
        // the cell (or return from its dispatch) before this participant
        // decrements `remaining` below.
        let job = unsafe { (*r.job.get()).expect("resident phase published without a job") };
        let task: &(dyn Fn(usize) + Sync) = unsafe { &*job.task.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            task(i);
        }));
        if outcome.is_err() {
            r.panicked.store(true, Ordering::Relaxed);
        }
        r.remaining.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [0usize, 1, 2, 3, 4, 7, 64] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "task {i} ({tasks} tasks)");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        for round in 0..500u64 {
            pool.run(5, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        // Σ_round (5·round + 0+1+2+3+4)
        let expected: u64 = (0..500).map(|r| 5 * r + 10).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        pool.run(4, &|_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn more_tasks_than_threads_and_vice_versa() {
        for (threads, tasks) in [(2, 100), (8, 3), (16, 16)] {
            let pool = WorkerPool::new(threads);
            let sum = AtomicU64::new(0);
            pool.run(tasks, &|i| {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                (tasks as u64) * (tasks as u64 + 1) / 2
            );
        }
    }

    #[test]
    fn small_jobs_on_a_big_pool_complete_repeatedly() {
        // Exercises the join budget: 2-task jobs on a 16-executor pool leave
        // 14 workers parked per job, across many back-to-back epochs (so
        // workers alternate between joining and sitting epochs out).
        let pool = WorkerPool::new(16);
        let total = AtomicU64::new(0);
        for round in 0..300u64 {
            let tasks = 2 + (round % 3) as usize; // 2, 3, 4 tasks
            pool.run(tasks, &|i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..300u64)
            .map(|r| {
                let t = 2 + r % 3;
                t * (t + 1) / 2
            })
            .sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn worker_panic_is_forwarded_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
            });
        }));
        assert!(attempt.is_err(), "panic was swallowed");
        // The pool still works after a panicked job.
        let ok = AtomicUsize::new(0);
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn drop_joins_workers_without_hanging() {
        for _ in 0..20 {
            let pool = WorkerPool::new(4);
            pool.run(4, &|_| {});
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn tasks_can_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let partial: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run(4, &|i| {
            let chunk = &data[i * 250..(i + 1) * 250];
            partial[i].store(chunk.iter().sum(), Ordering::Relaxed);
        });
        let total: u64 = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    // --- resident sessions -------------------------------------------------

    /// Phase dispatches inside a program execute every task exactly once —
    /// at both ends of the spin spectrum (0 = park immediately, large =
    /// never park within a phase gap).
    #[test]
    fn program_phases_execute_every_task_exactly_once() {
        for spin_us in [0u64, 5_000] {
            let pool = WorkerPool::with_spin(4, spin_us);
            let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            pool.run_program(|| {
                for _ in 0..16 {
                    pool.run(4, &|i| {
                        for h in &hits[i * 16..(i + 1) * 16] {
                            h.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(
                    hit.load(Ordering::Relaxed),
                    16,
                    "slot {i} (spin {spin_us}µs)"
                );
            }
        }
    }

    #[test]
    fn program_matches_looped_dispatches() {
        // The same job sequence, fused and looped, must produce identical
        // results (the task effects are pure functions of the index).
        let run_once = |fused: bool| -> Vec<u64> {
            let pool = WorkerPool::with_spin(4, 50);
            let cells: Vec<AtomicU64> = (0..128).map(|_| AtomicU64::new(0)).collect();
            let body = |round: u64| {
                pool.run(8, &|i| {
                    for c in &cells[i * 16..(i + 1) * 16] {
                        let old = c.load(Ordering::Relaxed);
                        c.store(old.rotate_left(5) ^ (round + i as u64), Ordering::Relaxed);
                    }
                });
            };
            if fused {
                pool.run_program(|| {
                    for round in 0..50 {
                        body(round);
                    }
                });
            } else {
                for round in 0..50 {
                    body(round);
                }
            }
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        assert_eq!(run_once(true), run_once(false));
    }

    #[test]
    fn program_counts_one_dispatch_for_many_phases() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        pool.run_program(|| {
            for _ in 0..32 {
                pool.run(4, &|_| {});
            }
        });
        let delta = pool.stats().dispatches - before.dispatches;
        assert_eq!(delta, 1, "a fused program is one dispatch, not 32");
        // The same schedule looped pays one dispatch per round.
        let before = pool.stats();
        for _ in 0..32 {
            pool.run(4, &|_| {});
        }
        assert_eq!(pool.stats().dispatches - before.dispatches, 32);
    }

    #[test]
    fn program_is_reentrant_on_the_owner_thread() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        pool.run_program(|| {
            pool.run_program(|| {
                pool.run(6, &|i| {
                    sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 21);
        // The session ended: a fresh plain run still works.
        pool.run(6, &|i| {
            sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn program_phases_respect_the_participation_prefix() {
        // 2-task phases on an 8-executor pool: 7 workers are resident but
        // only 1 participates per phase; the rest must sit phases out
        // without corrupting anything, across many phases.
        let pool = WorkerPool::new(8);
        let total = AtomicU64::new(0);
        pool.run_program(|| {
            for round in 0..200u64 {
                let tasks = 2 + (round % 3) as usize;
                pool.run(tasks, &|i| {
                    total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            }
        });
        let expected: u64 = (0..200u64)
            .map(|r| {
                let t = 2 + r % 3;
                t * (t + 1) / 2
            })
            .sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    /// Regression for the lagging-non-participant race: a worker that sat
    /// out phase N may only observe the phase word again after phase N+1 is
    /// published. Because phase and participant count travel in one packed
    /// word, it must join N+1 exactly once (never phase N's wake-up paired
    /// with N+1's participant count, which double-ran the phase and
    /// underflowed `remaining`). Alternating minimal and full participation
    /// maximises sat-out→participant transitions; spin 0 parks workers
    /// immediately, making them lag as far as possible.
    #[test]
    fn lagging_nonparticipants_rejoin_exactly_once() {
        for spin_us in [0u64, 5_000] {
            let pool = WorkerPool::with_spin(8, spin_us);
            let total = AtomicU64::new(0);
            pool.run_program(|| {
                for round in 0..400u64 {
                    // 2 tasks (1 participant of 7 workers), then 9 tasks
                    // (all 7) — every worker 1..7 re-joins right after
                    // sitting a phase out.
                    let tasks = if round % 2 == 0 { 2 } else { 9 };
                    pool.run(tasks, &|i| {
                        total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                    });
                }
            });
            let expected: u64 = (0..400u64).map(|r| if r % 2 == 0 { 3 } else { 45 }).sum();
            assert_eq!(total.load(Ordering::Relaxed), expected, "spin {spin_us}µs");
        }
    }

    #[test]
    fn single_task_and_empty_dispatches_inside_a_program_run_inline() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        pool.run_program(|| {
            pool.run(0, &|_| panic!("no tasks, no calls"));
            pool.run(1, &|_| assert_eq!(std::thread::current().id(), caller));
        });
    }

    #[test]
    fn worker_panic_in_a_phase_is_forwarded_and_session_survives() {
        let pool = WorkerPool::new(4);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.run_program(|| {
                pool.run(8, &|i| {
                    if i == 5 {
                        panic!("phase task 5 exploded");
                    }
                });
            });
        }));
        assert!(attempt.is_err(), "phase panic was swallowed");
        // The session unwound cleanly: the pool still works, fused or not.
        let ok = AtomicUsize::new(0);
        pool.run_program(|| {
            pool.run(8, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn empty_program_is_a_clean_session() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run_program(|| 7), 7);
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn program_on_a_single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let before = pool.stats();
        let out = pool.run_program(|| {
            let caller = std::thread::current().id();
            pool.run(4, &|_| assert_eq!(std::thread::current().id(), caller));
            11
        });
        assert_eq!(out, 11);
        assert_eq!(pool.stats(), before, "inline work must not count");
    }

    #[test]
    fn programs_from_two_threads_serialise_on_the_gate() {
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                pool.run_program(|| {
                    for _ in 0..50 {
                        pool.run(4, &|i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * 50 * 10);
    }

    #[test]
    fn drop_joins_workers_after_sessions() {
        for spin_us in [0u64, 100] {
            let pool = WorkerPool::with_spin(4, spin_us);
            pool.run_program(|| {
                pool.run(4, &|_| {});
            });
            drop(pool); // must not hang or leak
        }
    }

    #[test]
    fn stats_count_wakeups_per_dispatch() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        pool.run(4, &|_| {});
        let delta_w = pool.stats().wakeups - before.wakeups;
        assert_eq!(delta_w, 3, "a 4-task job on 4 executors wakes 3 workers");
        // Inline runs cost nothing.
        let before = pool.stats();
        pool.run(1, &|_| {});
        assert_eq!(pool.stats(), before);
    }
}
