//! A persistent worker pool for the engine's per-round chunk maps.
//!
//! The paper's algorithms run thousands of short rounds (Thm 1.1's exact
//! quantile takes ~1,600 per call at n = 32k), each one or two chunk maps, so
//! the per-map hand-off costs as much attention as the map itself.
//! [`WorkerPool`] keeps **long-lived workers** that wait on one atomic
//! *phase word*; dispatching a map costs a store, a few atomic task claims
//! and a wait for the workers to check back in — no thread spawn, and no
//! lock while the workers are still spinning.
//!
//! ## Dispatch protocol
//!
//! Every non-inline [`WorkerPool::run`] is one *phase*:
//!
//! 1. The caller takes the dispatch gate (so concurrent callers — e.g. two
//!    engines sharing one pool from two user threads — serialise), publishes
//!    the job (erased closure and task count) in the job mutex, resets the
//!    task cursor and sets `remaining` to the phase's participant count.
//! 2. It bumps the packed phase word `phase << 16 | participants`. The
//!    participants are the worker-id prefix `0..min(workers, tasks − 1)`, so
//!    a 2-chunk map on an 8-executor pool involves one worker, not seven.
//!    The caller notifies the condvar only when some worker is registered as
//!    a sleeper, so back-to-back rounds never touch a lock to wake anyone.
//! 3. Workers wait on the phase word: they spin (yielding periodically) for
//!    up to the spin budget, then register as sleepers and park on the
//!    condvar. A worker that observes a new phase listing its id locks the
//!    job mutex once to copy the job, claims task indices from the shared
//!    atomic cursor (`fetch_add`) until it passes the task count, runs the
//!    job closure on each index it won, and decrements `remaining`. The
//!    caller is executor 0 and claims tasks the same way.
//! 4. The caller waits for `remaining == 0` (spin, then yield) before `run`
//!    returns — also when its own task panics, through an unwind guard. This
//!    quiescence barrier is what makes the lifetime erasure below sound: no
//!    worker can touch the job closure (which borrows the caller's stack)
//!    after `run` returns.
//!
//! Worker panics are caught per phase, forwarded to the caller after the
//! barrier, and leave the pool usable.
//!
//! Packing the phase counter and the participant count into **one** atomic
//! makes a worker's decision to join atomic with observing the phase: a
//! worker that sat out phase N and lags into N+1 reads N+1's own participant
//! count, so it can neither run a phase twice nor read a job it is not listed
//! for. Non-participants never read the job, which is why it may be
//! rewritten next phase while they are still catching up on the word.
//!
//! The spin budget is derived from the host: 100 µs when the executors fit
//! the host's cores (`available_parallelism`), `0` — park at once — when
//! the pool is oversubscribed (a CI container, a 1-core box running an
//! 8-thread test), because a spinning waiter would then steal the very core
//! its peer needs to reach the barrier. The budget never affects results,
//! only the latency/CPU trade.
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
//! ## `unsafe`
//!
//! The job closure borrows the caller's stack (the chunk and slot tables of a
//! `for_chunks` call), but worker threads are `'static`, so the pool stores
//! the closure as a lifetime-erased raw pointer (`TaskPtr`). The quiescence
//! barrier above (plus its unwind guard) guarantees the pointee outlives every
//! dereference. This is the standard scoped-pool construction (rayon's
//! `scope` does the same). It takes five `unsafe` sites, all in this file:
//!
//! 1. `TaskPtr::erase`, an `unsafe fn`;
//! 2. the lifetime-changing `transmute` inside it;
//! 3. `unsafe impl Send for TaskPtr`, so a job can cross to the workers;
//! 4. the `erase` call in [`WorkerPool::run`];
//! 5. the closure dereference in a worker's phase.
//!
//! The crate's only other `unsafe` is the prefetch hint
//! [`crate::soa::prefetch_read`]; the rest stays `deny(unsafe_code)`-clean.

#![allow(unsafe_code)]

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

/// The spin budget for a pool of `threads` executors, in microseconds: 100
/// when they fit the host's cores, `0` (park immediately) when they do not
/// (see the module docs).
fn host_spin_us(threads: usize) -> u64 {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if threads > cores {
        0
    } else {
        100
    }
}

/// Lifetime-erased pointer to a caller-owned `dyn Fn(usize) + Sync` job
/// closure. Safety: only dereferenced by participants between job
/// publication and the quiescence barrier of the same [`WorkerPool::run`]
/// call, during which the pointee is borrowed by the caller frame.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync + 'static));

impl TaskPtr {
    /// Erases the closure's borrow of the caller's stack.
    ///
    /// # Safety
    ///
    /// The caller must not let any dereference of the returned pointer
    /// outlive `'a` — in the pool, the quiescence barrier of the `run` call
    /// that published the job enforces this.
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

/// Bit split of [`Shared::phase`]: phase counter in the high bits, that
/// phase's participant count in the low [`PHASE_SHIFT`] bits (a pool has at
/// most 255 workers, so 16 bits are ample; 48 phase bits outlast any pool).
/// See the module docs for why the two travel in one word.
const PHASE_SHIFT: u32 = 16;

/// Phase-counter half of a packed [`Shared::phase`] word.
fn phase_of(packed: u64) -> u64 {
    packed >> PHASE_SHIFT
}

/// Participant-count half of a packed [`Shared::phase`] word.
fn participants_of(packed: u64) -> usize {
    (packed & ((1 << PHASE_SHIFT) - 1)) as usize
}

/// State shared between the caller and the workers.
struct Shared {
    /// Packed phase word (see [`PHASE_SHIFT`]): publication counter in the
    /// high bits, the phase's participant count (the id-prefix
    /// `0..participants` of the workers) in the low bits. Written only under
    /// the dispatch gate; its `SeqCst` store is the release point of the
    /// phase's job.
    phase: AtomicU64,
    /// The current phase's job, written by the caller before the `phase`
    /// store. A participant locks it once per phase to copy the job out.
    /// It keeps the last job (a dangling pointer) after `run` returns;
    /// nothing reads it until the next phase republishes it.
    job: Mutex<Option<BatchJob>>,
    /// Next unclaimed task index of the current phase.
    cursor: AtomicUsize,
    /// Participants that have not yet finished the current phase; the
    /// caller waits for 0 before returning (the quiescence barrier).
    remaining: AtomicUsize,
    /// Any participant's task panicked during the current phase; cleared
    /// when a phase is published, drained by the caller after it quiesces.
    panicked: AtomicBool,
    /// Workers currently parked on `wake` (their spin budget ran out). The
    /// caller notifies only when this is non-zero.
    sleepers: AtomicUsize,
    /// Parking lot: guards the shutdown flag, which [`WorkerPool`]'s `Drop`
    /// sets once.
    park: Mutex<bool>,
    /// Parked workers wait here for a phase bump or shutdown.
    wake: Condvar,
    /// Spin budget of a worker's phase wait before it parks (and of the
    /// caller's quiescence wait before it falls back to pure yielding).
    spin: Duration,
    /// Cumulative dispatches: one per non-inline [`WorkerPool::run`].
    dispatches: AtomicU64,
    /// Cumulative parked workers woken by phase bumps.
    wakeups: AtomicU64,
}

/// Scheduling counters of a [`WorkerPool`] — see [`WorkerPool::stats`].
///
/// These measure dispatch overhead, not communication: they are wall-clock
/// observability (how many hand-offs and wake-ups the pool paid), not part
/// of any algorithm's trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Dispatches: one per non-inline [`WorkerPool::run`] (inline runs —
    /// one task, or a 1-thread pool — count none).
    pub dispatches: u64,
    /// Parked workers woken by dispatches. A worker still spinning when the
    /// phase is published picks it up without a wake-up and is not counted.
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
    /// `threads - 1` spawned workers (clamped to `[1, 256]`), with the spin
    /// budget derived from the host (see the module docs).
    ///
    /// `WorkerPool::new(1)` spawns nothing and makes [`run`](Self::run)
    /// purely inline — the engine's configuration for small networks.
    /// If the OS refuses a thread, the pool degrades to the workers it got
    /// (results are unaffected; only wall-clock time changes).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_spin(threads, host_spin_us(threads))
    }

    /// [`WorkerPool::new`] with an explicit spin budget in microseconds, so
    /// the unit tests can force both wait paths on any host.
    fn with_spin(threads: usize, spin_us: u64) -> WorkerPool {
        let threads = threads.clamp(1, 256);
        let shared = std::sync::Arc::new(Shared {
            phase: AtomicU64::new(0),
            job: Mutex::new(None),
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(false),
            wake: Condvar::new(),
            spin: Duration::from_micros(spin_us),
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
    /// how many dispatches the pool performed and how many parked workers
    /// they woke. With a shared pool the counts cover every sharer.
    /// [`Engine::metrics`](crate::Engine::metrics) surfaces the deltas as
    /// `pool_dispatches` / `worker_wakeups`.
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
    /// on that gate.
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
        let _dispatch = lock(&self.gate);
        let shared = &*self.shared;

        // SAFETY (lifetime erasure): the quiescence barrier below, also
        // enforced on unwind, keeps every dereference within this call,
        // while `task` is borrowed.
        let erased = unsafe { TaskPtr::erase(task) };
        let participants = self.handles.len().min(tasks - 1);
        *lock(&shared.job) = Some(BatchJob {
            task: erased,
            tasks,
        });
        shared.remaining.store(participants, Ordering::Relaxed);
        shared.cursor.store(0, Ordering::Relaxed);
        // A phase whose caller task panicked skips the drain after the
        // barrier, so a participant's flag from it must not leak into this
        // phase.
        shared.panicked.store(false, Ordering::Relaxed);
        // Publish phase and participant count as one packed word. Only the
        // gate holder writes `phase`, so load-then-store does not race.
        let next = phase_of(shared.phase.load(Ordering::Relaxed)) + 1;
        shared
            .phase
            .store(next << PHASE_SHIFT | participants as u64, Ordering::SeqCst);
        shared.dispatches.fetch_add(1, Ordering::Relaxed);
        // Wake parked workers, if any. The `SeqCst` store above and the
        // `SeqCst` sleeper registration in `wait_for_phase` order each other:
        // either the worker's re-check sees the new phase, or this load sees
        // the sleeper and notifies. The empty lock/unlock serialises with a
        // worker that checked the phase under the mutex but has not yet
        // entered `wait`.
        let sleepers = shared.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            drop(lock(&shared.park));
            shared.wake.notify_all();
            shared.wakeups.fetch_add(sleepers as u64, Ordering::Relaxed);
        }

        /// Waits until every participant retired the phase — the quiescence
        /// barrier. Running this in `Drop` keeps it in place even when the
        /// caller's own task panics below.
        struct Quiesce<'p>(&'p Shared);
        impl Drop for Quiesce<'_> {
            fn drop(&mut self) {
                let deadline = Instant::now() + self.0.spin;
                while self.0.remaining.load(Ordering::Acquire) != 0 {
                    if Instant::now() < deadline {
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                    } else {
                        // The caller never parks (participants finish in
                        // bounded time); yielding keeps an oversubscribed
                        // host making progress.
                        std::thread::yield_now();
                    }
                }
            }
        }
        let barrier = Quiesce(shared);

        // The caller is executor 0: claim tasks like any participant.
        loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(i);
        }
        drop(barrier);

        if shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("gossip worker thread panicked");
        }
    }

    /// Runs `program` and returns its result: a plain call. Every
    /// [`run`](Self::run) is already a cheap phase, so a multi-round
    /// schedule needs no session around it. Kept so that callers written
    /// against the earlier session API (which woke the workers once per
    /// schedule) still compile.
    pub fn run_program<R>(&self, program: impl FnOnce() -> R) -> R {
        program()
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
        // `&mut self`: no `run` is in flight, so every worker is waiting
        // for a phase; spinning ones park once their budget runs out and
        // then see the flag.
        *lock(&self.shared.park) = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker side of the dispatch protocol (see the module docs). `id` is
/// the worker's stable index (`0..workers`), compared against each phase's
/// participant count. `seen` tracks the phase numbers this worker has
/// handled. A worker that sat a phase out may lag and observe a *later*
/// phase next — safe, because the caller cannot retire a phase (and publish
/// the next) until every listed participant checked in, so a phase this
/// worker participates in can never be skipped over, and the packed word
/// always pairs the observed phase with *its own* participant count.
fn worker_loop(shared: &Shared, id: usize) {
    let mut seen = 0u64;
    while let Some(packed) = wait_for_phase(shared, seen) {
        seen = phase_of(packed);
        if id >= participants_of(packed) {
            // Sat out: this phase has fewer tasks than the pool has workers.
            // Never touches `job` or `remaining`, so the caller does not
            // wait for this worker — which is why it may lag.
            continue;
        }
        let job = lock(&shared.job).expect("phase published without a job");
        // SAFETY: the caller published this job before the phase store this
        // worker observed, and cannot return from `run` (or unwind) before
        // this participant decrements `remaining` below, so the pointee —
        // the caller's closure — is alive for the whole dereference.
        let task: &(dyn Fn(usize) + Sync) = unsafe { &*job.task.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            task(i);
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::Relaxed);
        }
        shared.remaining.fetch_sub(1, Ordering::Release);
    }
}

/// Waits (spin, then yield, then park on `wake`) until the phase counter
/// moves past `seen` (a phase number, not a packed word), and returns the
/// new **packed** phase word — phase and participant count observed as one
/// consistent pair. Returns `None` once the pool shuts down.
fn wait_for_phase(shared: &Shared, seen: u64) -> Option<u64> {
    // Spin-then-yield within the budget. The periodic yield matters on an
    // oversubscribed host: the caller (or another worker) needs the core to
    // make the progress this worker is waiting for.
    if !shared.spin.is_zero() {
        let deadline = Instant::now() + shared.spin;
        loop {
            let p = shared.phase.load(Ordering::Acquire);
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
    // Park: register as a sleeper, re-check, then wait on `wake`. The
    // `SeqCst` registration pairs with the caller's `SeqCst` store-then-read:
    // either the re-check sees the new phase, or the caller sees the sleeper
    // and notifies (serialised by its empty lock/unlock of `park`, so the
    // notify cannot fall between the predicate check below and the wait).
    loop {
        let p = shared.phase.load(Ordering::SeqCst);
        if phase_of(p) != seen {
            return Some(p);
        }
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if phase_of(shared.phase.load(Ordering::SeqCst)) != seen {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        let shutdown = {
            let mut shutdown = lock(&shared.park);
            while phase_of(shared.phase.load(Ordering::SeqCst)) == seen && !*shutdown {
                shutdown = shared
                    .wake
                    .wait(shutdown)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            *shutdown
        };
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        if shutdown {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both ends of the spin spectrum: 0 parks immediately, 5000 keeps
    /// every wait inside the spin window.
    const SPINS: [u64; 2] = [0, 5_000];

    /// Blocks until all of `pool`'s workers are parked.
    fn wait_until_parked(pool: &WorkerPool) {
        while pool.shared.sleepers.load(Ordering::SeqCst) < pool.handles.len() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn executes_every_task_exactly_once() {
        for spin_us in SPINS {
            let pool = WorkerPool::with_spin(4, spin_us);
            for tasks in [0usize, 1, 2, 3, 4, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(tasks, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, hit) in hits.iter().enumerate() {
                    assert_eq!(
                        hit.load(Ordering::Relaxed),
                        1,
                        "task {i} ({tasks} tasks, spin {spin_us}µs)"
                    );
                }
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
    fn runs_respect_the_participation_prefix() {
        // 2–4-task dispatches on an 8-executor pool: 1–3 of the 7 workers
        // participate per phase; the rest must sit phases out without
        // corrupting anything, across many phases.
        let pool = WorkerPool::new(8);
        let total = AtomicU64::new(0);
        for round in 0..200u64 {
            let tasks = 2 + (round % 3) as usize;
            pool.run(tasks, &|i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..200u64)
            .map(|r| {
                let t = 2 + r % 3;
                t * (t + 1) / 2
            })
            .sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn small_jobs_on_a_big_pool_complete_repeatedly() {
        // 2–4-task jobs on a 16-executor pool leave 12–14 workers sitting
        // each phase out, across many back-to-back phases (so workers
        // alternate between joining and lagging behind the phase word).
        let pool = WorkerPool::new(16);
        let total = AtomicU64::new(0);
        for round in 0..300u64 {
            let tasks = 2 + (round % 3) as usize;
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
        for spin_us in SPINS {
            let pool = WorkerPool::with_spin(8, spin_us);
            let total = AtomicU64::new(0);
            for round in 0..400u64 {
                // 2 tasks (1 participant of 7 workers), then 9 tasks (all
                // 7) — every worker 1..7 re-joins right after sitting a
                // phase out.
                let tasks = if round % 2 == 0 { 2 } else { 9 };
                pool.run(tasks, &|i| {
                    total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            }
            let expected: u64 = (0..400u64).map(|r| if r % 2 == 0 { 3 } else { 45 }).sum();
            assert_eq!(total.load(Ordering::Relaxed), expected, "spin {spin_us}µs");
        }
    }

    #[test]
    fn worker_panic_is_forwarded_and_pool_survives() {
        for spin_us in SPINS {
            let pool = WorkerPool::with_spin(4, spin_us);
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, &|i| {
                    if i == 5 {
                        panic!("task 5 exploded");
                    }
                });
            }));
            assert!(attempt.is_err(), "panic was swallowed (spin {spin_us}µs)");
            // The pool still works after a panicked phase.
            let ok = AtomicUsize::new(0);
            pool.run(8, &|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ok.load(Ordering::Relaxed), 8, "spin {spin_us}µs");
        }
    }

    #[test]
    fn a_phase_where_every_task_panics_leaves_the_pool_usable() {
        // The caller's own task panics too, so `run` unwinds through the
        // barrier without draining the workers' panic flag; the next clean
        // phase must not report it.
        for spin_us in SPINS {
            let pool = WorkerPool::with_spin(4, spin_us);
            for _ in 0..20 {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(64, &|_| panic!("every task explodes"));
                }));
                assert!(attempt.is_err(), "panic was swallowed (spin {spin_us}µs)");
                let ok = AtomicUsize::new(0);
                pool.run(8, &|_| {
                    ok.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(ok.load(Ordering::Relaxed), 8, "spin {spin_us}µs");
            }
        }
    }

    #[test]
    fn runs_from_two_threads_serialise_on_the_gate() {
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let total = std::sync::Arc::new(AtomicU64::new(0));
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(4, &|i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * 50 * 10);
    }

    #[test]
    fn drop_joins_spinning_and_parked_workers() {
        for _ in 0..20 {
            // Right after a dispatch, with the workers still spinning.
            let pool = WorkerPool::with_spin(4, 5_000);
            pool.run(4, &|_| {});
            drop(pool); // must not hang or leak
        }
        for _ in 0..5 {
            // After every worker parked.
            let pool = WorkerPool::with_spin(4, 0);
            pool.run(4, &|_| {});
            wait_until_parked(&pool);
            drop(pool);
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

    #[test]
    fn run_program_is_a_plain_call() {
        let pool = WorkerPool::new(4);
        let before = pool.stats();
        let out = pool.run_program(|| {
            for _ in 0..3 {
                pool.run(4, &|_| {});
            }
            11
        });
        assert_eq!(out, 11);
        assert_eq!(pool.stats().dispatches - before.dispatches, 3);
    }

    #[test]
    fn every_non_inline_run_counts_one_dispatch() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let before = pool.stats();
            for _ in 0..32 {
                pool.run(4, &|_| {});
            }
            let expected = if threads == 1 { 0 } else { 32 };
            assert_eq!(pool.stats().dispatches - before.dispatches, expected);
            // Inline runs (no tasks, or one) count nothing.
            let before = pool.stats();
            pool.run(0, &|_| {});
            pool.run(1, &|_| {});
            assert_eq!(pool.stats(), before, "{threads} threads");
        }
    }

    #[test]
    fn a_dispatch_counts_each_woken_worker_once() {
        // On a 0 µs pool every idle worker parks, so once all three are
        // parked, a dispatch wakes each of them exactly once.
        let pool = WorkerPool::with_spin(4, 0);
        for round in 0..3 {
            wait_until_parked(&pool);
            let before = pool.stats();
            pool.run(4, &|_| {});
            let delta = pool.stats().wakeups - before.wakeups;
            assert_eq!(delta, 3, "dispatch {round}");
        }
    }
}
