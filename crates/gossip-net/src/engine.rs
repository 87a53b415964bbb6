//! The synchronous uniform-gossip engine: deterministic and data-parallel.
//!
//! [`Engine`] owns one state per node and advances the network one round at a
//! time. It is deliberately *not* a general message-passing framework: the
//! gossip model is exactly "each node contacts one uniformly random neighbour
//! per round", and the engine exposes that and nothing more. Under the
//! default [`Topology::Complete`] the neighbourhood is all other nodes — the
//! paper's uniform-gossip model verbatim; [`EngineConfig::topology`] swaps in
//! restricted communication graphs (random regular expander, ring, torus; see
//! [`crate::topology`]) without touching any algorithm code. All algorithms
//! of the reproduction — the tournament algorithms of Section 2, the exact
//! algorithm of Section 3, the baselines of Appendix A and \[KDG03\] — are
//! written against this interface, so their round counts are measured
//! identically.
//!
//! Two entry points cover the model:
//!
//! * [`Engine::pull_round`] — every node contacts a uniformly random other
//!   node and reads a message derived from that node's state *at the start of
//!   the round* (synchronous snapshot semantics, as assumed by the paper's
//!   proofs).
//! * [`Engine::push_round`] — every node derives a message from its own state
//!   and delivers it to a uniformly random other node; receivers then fold all
//!   messages delivered to them into their state.
//!
//! Failure injection (Section 5) applies to the *operation of the failing
//! node*: a failed puller receives nothing, a failed pusher delivers nothing.
//!
//! ## Randomness contract
//!
//! The engine has **no sequential random stream**. Every draw is made from a
//! counter-based [`NodeRng`] keyed by `(seed, round, node, stream)`:
//!
//! * in a communication round, node `v` draws its failure coin and then its
//!   contact target(s) from `NodeRng::keyed(seed, round, v, STREAM_ROUND)` —
//!   each contact is a single uniform *neighbour-index* draw against the
//!   configured topology (for the complete graph: an index into the implicit
//!   list of the `n − 1` other nodes), so the draw count per node is
//!   topology-independent;
//! * in a [`local_step`](Engine::local_step), node `v` receives
//!   `NodeRng::keyed(seed, epoch, v, STREAM_LOCAL)` (one epoch per call) for
//!   its algorithm-local coins.
//!
//! Because a node's stream depends only on the key, executions are
//! **bit-identical across thread counts and iteration orders**: a fixed seed
//! and a fixed sequence of round/`local_step` calls produce the same final
//! states whether the engine runs on 1 thread or 64. This is the property the
//! determinism integration tests pin down.
//!
//! ## Parallelism contract
//!
//! Rounds are data-parallel maps over nodes, executed over contiguous node
//! chunks on the engine's persistent [`WorkerPool`] (see [`crate::par`] for
//! the chunk/fold contract and [`crate::pool`] for the pool's barrier
//! protocol). The pool is created once at engine construction — or adopted
//! from [`EngineConfig::pool`], so several engines (e.g. an algorithm's
//! sub-computations, via [`EngineConfig::sub`]) can share one set of workers
//! — and reused by every round and [`local_step`](Engine::local_step); no
//! threads are spawned per round. The closures a round takes
//! (`serve`, `make`, `apply`, `fold`, `merge`, `after`) must therefore be
//! `Fn + Sync`, and they must uphold the gossip model's locality: a closure
//! may only mutate the state slot it is handed (its own node) and may only
//! *read* other nodes' states through the pre-round state buffer the engine
//! passes it. `serve`/`make` may be invoked more than once per node per round
//! (the push paths recompute messages instead of buffering them), so they
//! must be **pure** functions of `(node, state)` — cheap, deterministic, and
//! side-effect free.
//!
//! The thread count defaults to [`crate::par::num_threads`] for networks of
//! at least [`Engine::PAR_MIN_NODES`] nodes and to 1 below that (fork/join
//! overhead would dominate); [`Engine::set_threads`] overrides the choice
//! either way.
//!
//! ## Pass structure: double-buffered rounds
//!
//! The engine holds **two** state vectors — `states` (the current, pre-round
//! values) and `next` (the back buffer). A communication round runs the
//! minimum number of pool dispatches, each a single pass over the nodes:
//!
//! * **pull** — *one* dispatch: each node's task clones its pre-round state
//!   from `states` into its `next` slot, serves/applies against it while
//!   reading peers from the immutable `states`, and the engine swaps the two
//!   vectors afterwards. (Earlier engines refreshed a separate snapshot in
//!   its own dispatch first — a full extra `O(n)` pass per round.)
//! * **push** — two dispatches. The draw pass runs over sender chunks: each
//!   sender's outcome (silent / failed / target) goes into the target
//!   scratch, and each chunk then splits its delivered senders by *owner
//!   range* — the receiver chunk of the second pass that holds their target.
//!   The delivery pass runs over those receiver ranges: each task clones its
//!   range into `next`, walks the sub-lists addressed to it in sender-chunk
//!   order, folding every message into its target slot, and finally runs
//!   `after` over the range. Swap.
//! * **push–pull** — the same two dispatches; each range merges its nodes'
//!   pulled messages first, then the pushed ones.
//!
//! A receiver therefore sees its pushed messages in **ascending sender
//! order** at any thread count: sender chunks ascend, and every sub-list
//! ascends. Straggled arrivals that are due (fault plans only) land after the
//! in-round messages, then `after` runs — the per-slot sequence is exactly
//! "clone, folds in sender order, late arrivals, `after`". With one range
//! there is nothing to split and the delivery pass walks the targets directly.
//!
//! Inside every pass the loop-invariant work is hoisted: the
//! `(seed, round, stream)` RNG prefix is absorbed once per round
//! ([`crate::rng::NodeRng::key_prefix`] — per-node keying is one
//! xor-multiply and one finalizer instead of three finalizers), the
//! failure model is matched once per chunk, with a dedicated no-failure loop
//! when the model is [`FailureModel::None`] (engines normalise never-firing
//! models to `None` at construction), and the topology is dispatched once
//! per round — each primitive's body is monomorphised over the concrete
//! sampler type, so the complete-graph loop carries no per-draw topology
//! branch (see [`crate::topology`]).
//!
//! ## Allocation discipline
//!
//! All `O(n)` scratch (contact targets, the split delivery list, the `next`
//! state buffer) lives in buffers owned by the engine, sized once at
//! construction (`next` on the first round) and reused forever after:
//! steady-state rounds perform **no size-`n` allocations**. The only per-round
//! heap traffic is `O(threads)` chunk/slot bookkeeping per dispatched map
//! (for push rounds, also the `chunks × ranges` offset table of the split) —
//! and whatever the caller's own state clones cost for non-`Copy` states.
//!
//! The per-slot `clone_from` into `next` is the price of running serve and
//! apply fused in one parallel pass (closures read other nodes only through
//! the immutable front buffer while writing their own back-buffer slot); for
//! `Copy` states it is a parallel memcpy. States holding buffers (doubling,
//! compactor) pay a real per-round copy — matching what their own `serve`
//! closures already clone per message — so if a heavy-state workload ever
//! dominates, the documented alternative is a message-buffer path specialised
//! for cheap snapshots.
//!
//! ## Memory layout of the hot passes
//!
//! Dense rounds at large `n` are bandwidth-bound (one round streams the
//! whole state array several times), so the hot passes are structured around
//! bytes moved, with [`crate::soa`] housing the shared machinery:
//!
//! * the pull round's back-buffer refresh is **cache-blocked**: instead of
//!   interleaving one slot's clone with its serve/apply (two live streams
//!   competing for the same lines), the chunk loop clones
//!   [`Engine::set_copy_block`] slots in one [`crate::soa::clone_block`]
//!   burst — a straight `memcpy` for `Copy` states — and then works through
//!   them while they are L2-warm (push rounds clone their whole range up
//!   front, since their folds land anywhere in it);
//! * pull targets are drawn into a small stack batch and the corresponding
//!   sender states are **software-prefetched** [`Engine::set_prefetch_dist`]
//!   iterations ahead of their random-gather read, hiding the DRAM latency
//!   of the uniform contact pattern (the sparse pair-list folds prefetch
//!   their sender gathers the same way);
//! * the sparse copy-on-write commit batches runs of consecutive written ids
//!   into whole-slice swaps ([`crate::soa::swap_runs`]).
//!
//! All three are mechanical rewrites with bit-identical results — per-node
//! RNG consumption, fold order and metrics are unchanged (pinned by the
//! golden suites and `tests/layout.rs`, with the pre-layout pull loop kept
//! as [`Engine::pull_round_reference`] for same-host A/B measurement).
//! Algorithms whose own state scans dominate can mirror their state structs
//! into flat parallel columns via [`crate::soa::Columns`] / the
//! [`columns!`](crate::columns) macro.

use crate::active::ActiveSet;
use crate::error::{GossipError, Result};
use crate::failure::FailureModel;
use crate::fault::FaultPlan;
use crate::message::MessageSize;
use crate::metrics::{Metrics, RoundKind};
use crate::par;
use crate::pool::{PoolStats, WorkerPool};
use crate::rng::{KeyPrefix, NodeRng};
use crate::soa::LaneMatrix;
use crate::topology::{
    AdjacencyCache, CompleteSampler, CsrSampler, PeerSampler, Sampler, Topology,
};
use crate::NodeId;
use std::sync::Arc;

/// Sentinel in the target scratch buffer: the node failed this round.
const TARGET_FAILED: u32 = u32::MAX;
/// Sentinel in the target scratch buffer: the node stayed silent (no message).
const TARGET_SILENT: u32 = u32::MAX - 1;
/// Sentinel in the target scratch buffer: the node pushed, but the delivery
/// did not land this round — dropped in flight by a fault-plan coin, sent to
/// a crashed node, or buffered by the straggler model. Like the other
/// sentinels it is `>= n` (engines reject `n > u32::MAX - 2`), so the
/// delivery pass skips it and `after` sees `delivered = false`.
const TARGET_DROPPED: u32 = u32::MAX - 2;

/// The receiver ranges of a dense push round: range `r` is the `r`-th chunk
/// [`par::for_chunks`] cuts the back buffer into at the round's thread count.
/// The draw pass cuts the senders at the same boundaries, so sender chunk `c`
/// and range `c` cover the same nodes.
///
/// The draw pass tallies each chunk's deliveries per owner range as it draws
/// them ([`OwnerRanges::tally`]) and then splits the chunk's delivered senders
/// by range ([`OwnerRanges::split`]); the delivery pass hands range
/// `r` the sub-lists `(0, r), (1, r), …` in that order
/// ([`OwnerRanges::for_each_delivery`]). Chunks ascend and every sub-list
/// ascends, so each receiver folds its messages in ascending sender order.
/// With a single range there is nothing to split: the delivery pass walks the
/// targets directly.
#[derive(Debug, Clone, Copy)]
struct OwnerRanges {
    n: usize,
    /// Nodes per range (only the last range may be shorter).
    len: usize,
    count: usize,
    /// `⌈2^64 / len⌉`, the multiplier of [`OwnerRanges::owner`].
    magic: u64,
}

impl OwnerRanges {
    fn new(n: usize, threads: usize) -> Self {
        let len = par::chunk_len(n, threads);
        OwnerRanges {
            n,
            len,
            count: n.div_ceil(len),
            magic: (u64::MAX / len as u64).wrapping_add(1),
        }
    }

    /// The range owning receiver `u`, i.e. `u / len` as one multiply-high:
    /// for 32-bit operands and a divisor `d ≥ 2`, `⌈2^64 / d⌉` is an exact
    /// magic number (Lemire, Kaser & Kurz, "Faster remainder by direct
    /// computation", 2019).
    #[inline]
    fn owner(&self, u: u32) -> usize {
        if self.len == 1 {
            u as usize
        } else {
            ((u128::from(self.magic) * u128::from(u)) >> 64) as usize
        }
    }

    /// A sender chunk's per-range delivery counts for [`OwnerRanges::tally`]
    /// (entry `r + 1` counts range `r`); empty with a single range.
    fn tally_row(&self) -> Vec<u32> {
        if self.count == 1 {
            Vec::new()
        } else {
            vec![0; self.count + 1]
        }
    }

    /// Counts one delivery to receiver `t` into a [`OwnerRanges::tally_row`]
    /// (a no-op on the empty row). The draw loops call this as they decide
    /// each target, where the counter updates overlap the RNG work instead of
    /// costing a pass of their own.
    #[inline]
    fn tally(&self, row: &mut [u32], t: u32) {
        if let Some(c) = row.get_mut(self.owner(t) + 1) {
            *c += 1;
        }
    }

    /// Writes the delivered senders of the sender chunk starting at `start`
    /// (push targets `targets`, per-range counts `row` from
    /// [`OwnerRanges::tally`]) into `out`, the chunk's own slice of the
    /// delivery buffer, grouped by owner range and ascending within each
    /// group. Returns the chunk's `count + 1` group offsets into `out`; empty
    /// with a single range.
    fn split(
        &self,
        start: usize,
        targets: impl Iterator<Item = u32>,
        mut row: Vec<u32>,
        out: &mut [u32],
    ) -> Vec<u32> {
        if row.is_empty() {
            return row;
        }
        for r in 0..self.count {
            row[r + 1] += row[r];
        }
        let mut cursor = row.clone();
        for (j, t) in targets.enumerate() {
            if (t as usize) < self.n {
                let at = &mut cursor[self.owner(t)];
                out[*at as usize] = (start + j) as u32;
                *at += 1;
            }
        }
        row
    }

    /// Calls `f(sender, receiver)` for every in-round delivery to the range
    /// starting at node `start`, in ascending sender order. `delivered` and
    /// `rows` are the draw pass's delivery buffer and its chunk-order
    /// concatenation of [`OwnerRanges::split`] rows; `target(v)` is sender
    /// `v`'s push target.
    #[inline]
    fn for_each_delivery(
        &self,
        start: usize,
        delivered: &[u32],
        rows: &[u32],
        target: impl Fn(usize) -> u32,
        mut f: impl FnMut(usize, usize),
    ) {
        if self.count == 1 {
            for v in 0..self.n {
                let t = target(v) as usize;
                if t < self.n {
                    f(v, t);
                }
            }
            return;
        }
        let r = start / self.len;
        for (c, row) in rows.chunks_exact(self.count + 1).enumerate() {
            let base = c * self.len;
            for &v in &delivered[base + row[r] as usize..base + row[r + 1] as usize] {
                f(v as usize, target(v as usize) as usize);
            }
        }
    }
}

/// Concatenates per-chunk results in chunk order (the fold of the push
/// rounds' draw passes).
fn concat<T>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
    a.append(&mut b);
    a
}

/// The entries of the receiver-major `(receiver, sender)` list `due` that
/// address the `len` receivers starting at `start`.
fn due_in(due: &[(u32, u32)], start: usize, len: usize) -> &[(u32, u32)] {
    let lo = due.partition_point(|&(r, _)| (r as usize) < start);
    let hi = due.partition_point(|&(r, _)| (r as usize) < start + len);
    &due[lo..hi]
}

/// A push contact buffered by the straggler model: it lands in the first
/// push-capable round at or after round `due`, where the message is
/// re-derived from the sender's state at arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelayedContact {
    due: u64,
    receiver: u32,
    sender: u32,
}

/// Per-round fault context: the loop-invariant pieces of the active
/// [`FaultPlan`], hoisted once per fault-aware round (the RNG prefixes of the
/// loss and delay streams, and the churn model's down-until view).
struct FaultCtx<'a> {
    round: u64,
    /// Round until which each node is down (`down[v] > round` = crashed this
    /// round); empty when the plan has no churn.
    down: &'a [u64],
    loss: Option<(KeyPrefix, f64)>,
    delay: Option<(KeyPrefix, f64, u64)>,
}

impl FaultCtx<'_> {
    fn new<'a>(seed: u64, round: u64, down: &'a [u64], fault: &FaultPlan) -> FaultCtx<'a> {
        FaultCtx {
            round,
            down,
            loss: fault.loss().map(|l| {
                (
                    NodeRng::key_prefix(seed, round, NodeRng::STREAM_FAULT_LOSS),
                    l.drop_probability(),
                )
            }),
            delay: fault.stragglers().map(|s| {
                (
                    NodeRng::key_prefix(seed, round, NodeRng::STREAM_FAULT_DELAY),
                    s.straggle_probability(),
                    s.max_delay(),
                )
            }),
        }
    }

    /// Whether `v` participates this round (not down under churn).
    #[inline]
    fn alive(&self, v: usize) -> bool {
        self.down.is_empty() || self.down[v] <= self.round
    }

    /// Draws the per-contact loss coin for `sender → receiver` this round.
    /// The coin is keyed by the packed `(sender, receiver)` pair, so the two
    /// directions of a push–pull round are independent.
    #[inline]
    fn lost(&self, sender: usize, receiver: usize) -> bool {
        match self.loss {
            Some((prefix, p)) => {
                let key = ((sender as u64) << 32) | receiver as u64;
                let mut rng = prefix.node(key);
                rng.next_f64() < p
            }
            None => false,
        }
    }

    /// Draws the straggler coin for `sender` this round; `Some(d)` means the
    /// push lands `d >= 1` rounds late.
    #[inline]
    fn delay_of(&self, sender: usize) -> Option<u64> {
        let (prefix, p, max_delay) = self.delay?;
        let mut rng = prefix.node(sender as u64);
        if rng.next_f64() < p {
            Some(1 + rng.next_below(max_delay))
        } else {
            None
        }
    }
}

/// What a sparse push-style round ([`Engine::push_round_on`] /
/// [`Engine::push_pull_round_on`]) did, beyond the dense primitives' failed
/// count: the set of nodes that received at least one message this round.
///
/// Receivers are how sparse activity *grows* — a rumor-spreading loop unions
/// them into its informed [`ActiveSet`]
/// ([`ActiveSet::union_sorted`]), a token-scattering loop into its holder set
/// — so the engine reports them instead of forcing callers into an `O(n)`
/// scan for changed states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePushOutcome {
    /// Number of active nodes whose push failed under the failure model.
    pub failed: usize,
    /// Nodes that had at least one message delivered to them this round,
    /// sorted ascending, duplicate-free. Receivers are sampled from the whole
    /// topology neighbourhood, so they need **not** be members of the active
    /// set.
    pub receivers: Vec<NodeId>,
}

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Seed of the engine's random streams. Two engines with the same seed,
    /// the same initial states and the same sequence of round calls produce
    /// identical executions — at any thread count.
    pub seed: u64,
    /// The fault plan applied to the engine's rounds (default:
    /// [`FaultPlan::none`]). This subsumes the failure model: configure a
    /// plain [`FailureModel`] through [`EngineConfig::failure`], or a full
    /// plan (churn, message loss, stragglers) through
    /// [`EngineConfig::fault`].
    pub fault: FaultPlan,
    /// The communication graph peer sampling runs on (default:
    /// [`Topology::Complete`], the paper's uniform-gossip model). See
    /// [`crate::topology`] for the available graphs and the sampling
    /// contract; the graph is materialised once at engine construction.
    pub topology: Topology,
    /// A [`WorkerPool`] for the engine to run its rounds on, shared with
    /// whoever else holds the `Arc`. `None` (the default) gives the engine a
    /// pool of its own, sized by the policy described on
    /// [`Engine::PAR_MIN_NODES`]. Pools are pure scheduling state: sharing
    /// one never couples two engines' results.
    pub pool: Option<Arc<WorkerPool>>,
    /// Cache of materialised topology adjacencies, shared (like the pool)
    /// with every configuration derived via [`EngineConfig::sub`]/`clone` —
    /// sub-engines reuse their parent's graph instead of rebuilding it.
    /// Graph construction is deterministic, so sharing is
    /// behaviour-invisible.
    pub graph_cache: Arc<AdjacencyCache>,
}

impl EngineConfig {
    /// Configuration with the given seed, no failures, the complete-graph
    /// topology, and a private pool.
    pub fn with_seed(seed: u64) -> Self {
        EngineConfig {
            seed,
            fault: FaultPlan::none(),
            topology: Topology::Complete,
            pool: None,
            graph_cache: Arc::new(AdjacencyCache::default()),
        }
    }

    /// Replaces the failure-model combinator of the fault plan (sugar for
    /// `fault(self.fault.with_failure(model))`; any configured churn, loss or
    /// straggler combinators are kept).
    pub fn failure(mut self, failure: FailureModel) -> Self {
        self.fault = self.fault.clone().with_failure(failure);
        self
    }

    /// Replaces the whole fault plan (see [`FaultPlan`]).
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the communication topology (default: [`Topology::Complete`]).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Makes the engine run its rounds on `pool` instead of creating its own.
    pub fn pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Configuration for a sub-computation: a fresh seed, the same fault
    /// plan (churn *state* does not transfer — a sub-engine starts with every
    /// node alive), the **same topology** (an algorithm's sub-phases run on
    /// the same communication graph as its main phase), and the **same
    /// worker pool** — so an algorithm that runs many short-lived sub-engines
    /// (e.g. the exact-quantile narrowing loop) pays for thread creation
    /// once, not once per phase.
    ///
    /// Sharing only happens if this configuration *has* a pool; an algorithm
    /// that fans out into sub-engines should first call
    /// [`EngineConfig::ensure_pool_for`] with its network size.
    pub fn sub(&self, seed: u64) -> Self {
        EngineConfig {
            seed,
            fault: self.fault.clone(),
            topology: self.topology,
            pool: self.pool.clone(),
            graph_cache: Arc::clone(&self.graph_cache),
        }
    }

    /// Materialises a worker pool on this configuration if it has none and
    /// `n`-node engines built from it would run parallel rounds
    /// (`n >= `[`Engine::PAR_MIN_NODES`]), so that every engine later derived
    /// via [`EngineConfig::sub`] shares one set of worker threads instead of
    /// spawning its own.
    ///
    /// Below the parallel threshold this is a no-op: engines there run
    /// inline, and an idle pool would be pure overhead.
    pub fn ensure_pool_for(&mut self, n: usize) -> &mut Self {
        if self.pool.is_none() && n >= Engine::<()>::PAR_MIN_NODES {
            self.pool = Some(Arc::new(WorkerPool::new(par::num_threads())));
        }
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::with_seed(0)
    }
}

/// A synchronous uniform-gossip network holding one state of type `S` per node.
///
/// See the [module documentation](self) for the communication, randomness and
/// parallelism contracts.
#[derive(Debug)]
pub struct Engine<S> {
    /// The current node states (the front buffer; what peers are read from
    /// during a round).
    states: Vec<S>,
    /// The back buffer a round writes into before the post-round swap with
    /// `states`; lazily sized on the first communication round.
    next: Vec<S>,
    seed: u64,
    threads: usize,
    /// The persistent worker pool rounds dispatch on; constructed once (or
    /// adopted from [`EngineConfig::pool`]) and reused by every round.
    /// Cloning the engine shares the pool.
    pool: Arc<WorkerPool>,
    failure: FailureModel,
    /// The normalised fault plan in effect. `failure` above is its
    /// failure-model combinator, kept as a separate field so the dedicated
    /// failure loops (and their golden pins) are untouched by the plan.
    fault: FaultPlan,
    /// Churn state: the first round node `v` is alive again (`0` = alive,
    /// `u64::MAX` = crashed permanently). Empty until the plan's churn model
    /// first advances.
    down_until: Vec<u64>,
    /// Straggled push contacts not yet due (or due in a round that cannot
    /// deliver them — only push-capable rounds drain this buffer).
    pending_delayed: Vec<DelayedContact>,
    /// Per-round drain scratch: `(receiver, sender)` pairs due this round,
    /// sorted receiver-major (stable, so a receiver folds its late arrivals
    /// in send order).
    due_scratch: Vec<(u32, u32)>,
    /// The topology specification (as configured; kept for reporting).
    topology: Topology,
    /// The materialised peer sampler rounds draw contacts from; built once at
    /// construction (non-complete topologies share their adjacency via `Arc`
    /// when the engine is cloned).
    sampler: PeerSampler,
    metrics: Metrics,
    /// Pool scheduling counters attributed to this engine from pools it no
    /// longer holds (folded in by [`Engine::set_threads`] when it swaps
    /// pools); added to the live pool's delta in [`Engine::metrics`].
    pool_carry: PoolStats,
    /// The live pool's counters at adoption time — the baseline
    /// [`Engine::metrics`] subtracts, so a shared pool's pre-existing
    /// dispatches are not billed to this engine.
    pool_base: PoolStats,
    round: u64,
    local_epochs: u64,
    /// Per-sender push target of push rounds, or a sentinel.
    scratch_targets: Vec<u32>,
    /// Per-node `(push, pull)` targets of push–pull rounds, or sentinels.
    scratch_push_pull: Vec<(u32, u32)>,
    /// Delivered senders of each sender chunk, grouped by the owner range of
    /// their receiver (see [`OwnerRanges`]); unused with a single range.
    scratch_delivered: Vec<u32>,
    /// Compact per-active-sender contact targets of the sparse push paths
    /// (aligned with the round's `ActiveSet::indices`); grown to the largest
    /// active set seen.
    scratch_compact: Vec<u32>,
    /// Compact per-active-node pull targets of sparse push–pull rounds.
    scratch_compact2: Vec<u32>,
    /// Sparse delivery list: `(receiver, sender)` pairs, sorted
    /// receiver-major with ascending senders, sized by the number of
    /// messages instead of `n`.
    scratch_pairs: Vec<(u32, u32)>,
    /// The written set of the current sparse round (active ∪ receivers),
    /// sorted — what the copy-on-write commit pass swaps into the front
    /// buffer.
    scratch_written: Vec<u32>,
    /// Sorted unique receivers of the current sparse push round (the dedup
    /// of `scratch_pairs`' receiver column), reused across rounds.
    scratch_receivers: Vec<u32>,
    /// Slots per cache-blocked back-buffer refresh block (see
    /// [`crate::soa::clone_block`]); seeded from `GOSSIP_COPY_BLOCK`,
    /// overridable per engine via [`Engine::set_copy_block`]. Never affects
    /// results, only cache behaviour.
    copy_block: usize,
    /// Lookahead of the software prefetches issued by the delivery gathers
    /// (pull targets, sparse pair lists); seeded from
    /// `GOSSIP_PREFETCH_DIST`, `0` disables. Never affects results.
    prefetch_dist: usize,
    /// Whether the sparse copy-on-write commit batches contiguous id runs
    /// ([`crate::soa::swap_runs`]); the per-slot path is kept for the
    /// equivalence tests and A/B benches.
    batch_commit: bool,
}

impl<S: Clone> Clone for Engine<S> {
    fn clone(&self) -> Self {
        Engine {
            states: self.states.clone(),
            // Post-swap, `next` holds stale data no round ever reads before
            // overwriting; `ensure_next` re-sizes the empty buffer lazily.
            next: Vec::new(),
            seed: self.seed,
            threads: self.threads,
            pool: Arc::clone(&self.pool),
            failure: self.failure.clone(),
            fault: self.fault.clone(),
            // Churn state and in-flight stragglers are real trajectory state
            // (unlike scratch) and must survive a clone.
            down_until: self.down_until.clone(),
            pending_delayed: self.pending_delayed.clone(),
            due_scratch: Vec::new(),
            topology: self.topology,
            sampler: self.sampler.clone(),
            metrics: self.metrics,
            // The clone shares the pool, so sharing base + carry keeps its
            // scheduling counters continuous with the original's.
            pool_carry: self.pool_carry,
            pool_base: self.pool_base,
            round: self.round,
            local_epochs: self.local_epochs,
            scratch_targets: self.scratch_targets.clone(),
            scratch_push_pull: self.scratch_push_pull.clone(),
            scratch_delivered: self.scratch_delivered.clone(),
            // No cross-round state, so the clone starts empty instead of
            // memcpying stale ids (the sparse paths resize/clear these
            // before every use).
            scratch_compact: Vec::new(),
            scratch_compact2: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_written: Vec::new(),
            scratch_receivers: Vec::new(),
            copy_block: self.copy_block,
            prefetch_dist: self.prefetch_dist,
            batch_commit: self.batch_commit,
        }
    }
}

impl<S> Engine<S> {
    /// Networks with at least this many nodes run rounds on
    /// [`crate::par::num_threads`] threads by default; smaller ones run
    /// sequentially (fork/join overhead would dominate the per-node work).
    pub const PAR_MIN_NODES: usize = 1 << 14;

    /// Creates an engine whose node `v` starts with state `states[v]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two states are supplied; use [`Engine::try_from_states`]
    /// for a fallible constructor.
    pub fn from_states(states: Vec<S>, config: EngineConfig) -> Self {
        Engine::try_from_states(states, config).expect("uniform gossip needs at least 2 nodes")
    }

    /// Fallible variant of [`Engine::from_states`].
    ///
    /// # Errors
    ///
    /// Returns [`GossipError::TooFewNodes`] if fewer than two states are
    /// supplied, [`GossipError::InvalidParameter`] if more than
    /// `u32::MAX - 2` are (contact targets are stored as `u32`), or the
    /// topology's own validation error if [`EngineConfig::topology`] cannot
    /// be realised on this network size.
    pub fn try_from_states(states: Vec<S>, config: EngineConfig) -> Result<Self> {
        let n = states.len();
        if n < 2 {
            return Err(GossipError::TooFewNodes { requested: n });
        }
        if n > (u32::MAX - 2) as usize {
            return Err(GossipError::InvalidParameter {
                name: "n",
                reason: format!("at most {} nodes are supported, got {n}", u32::MAX - 2),
            });
        }
        config.fault.validate_for(n)?;
        // Combinators that can never fire are stripped so plans built from
        // zero intensities keep the dedicated fast/failure loops (and their
        // bit-exact golden trajectories).
        let fault = config.fault.normalized();
        let failure = fault.failure().clone();
        let sampler = config.topology.materialize(n, &config.graph_cache)?;
        let threads = if n >= Self::PAR_MIN_NODES {
            par::num_threads()
        } else {
            1
        };
        // Adopt the configured (shared) pool, or build a private one sized
        // for the default thread count. A 1-thread pool spawns nothing.
        let pool = config
            .pool
            .unwrap_or_else(|| Arc::new(WorkerPool::new(threads)));
        let pool_base = pool.stats();
        Ok(Engine {
            states,
            next: Vec::new(),
            seed: config.seed,
            threads,
            pool,
            failure,
            fault,
            down_until: Vec::new(),
            pending_delayed: Vec::new(),
            due_scratch: Vec::new(),
            topology: config.topology,
            sampler,
            metrics: Metrics::new(),
            pool_carry: PoolStats::default(),
            pool_base,
            round: 0,
            local_epochs: 0,
            scratch_targets: vec![0; n],
            scratch_push_pull: vec![(0, 0); n],
            scratch_delivered: vec![0; n],
            scratch_compact: Vec::new(),
            scratch_compact2: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_written: Vec::new(),
            scratch_receivers: Vec::new(),
            copy_block: crate::soa::copy_block(),
            prefetch_dist: crate::soa::prefetch_dist(),
            batch_commit: true,
        })
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// The states of all nodes, indexed by [`NodeId`].
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable access to the node states.
    ///
    /// Intended for *local* (communication-free) computation steps such as
    /// "every node updates its own value from what it has already received";
    /// using it to read other nodes' states would break the gossip model, so
    /// algorithms in this repository only ever use it via
    /// [`Engine::local_step`].
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Communication metrics accumulated so far.
    ///
    /// The scheduling counters (`pool_dispatches`, `worker_wakeups`) are
    /// filled in here from the worker pool's cumulative [`PoolStats`],
    /// baselined at pool adoption; with a shared pool
    /// ([`EngineConfig::pool`]) they include dispatches by other sharers
    /// during this engine's lifetime. They are excluded from `Metrics`
    /// equality — see [`Metrics`]' `PartialEq`.
    pub fn metrics(&self) -> Metrics {
        let live = self.pool.stats();
        let mut m = self.metrics;
        m.pool_dispatches =
            self.pool_carry.dispatches + (live.dispatches - self.pool_base.dispatches);
        m.worker_wakeups = self.pool_carry.wakeups + (live.wakeups - self.pool_base.wakeups);
        m
    }

    /// Number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The seed all of this engine's random streams are keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The failure model in effect (the failure combinator of the fault
    /// plan, normalised at construction).
    pub fn failure_model(&self) -> &FailureModel {
        &self.failure
    }

    /// The fault plan in effect (normalised at construction: combinators
    /// that can never fire are stripped).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The nodes that were down (crashed by the plan's churn model) during
    /// the most recently executed round, in ascending id order. Empty when
    /// the plan has no churn or no round has run yet.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        let round = self.round;
        self.down_until
            .iter()
            .enumerate()
            .filter(|&(_, &down)| down > round)
            .map(|(v, _)| v)
            .collect()
    }

    /// Number of straggled push contacts currently in flight (sent, but not
    /// yet folded into a push-capable round's deliveries).
    pub fn delayed_in_flight(&self) -> usize {
        self.pending_delayed.len()
    }

    /// The communication topology peer sampling runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of worker threads rounds run on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    ///
    /// Results do not depend on this value — only wall-clock time does. If
    /// the engine's current pool has fewer executors than requested, the
    /// engine switches to a new, private pool of the requested size (engines
    /// previously sharing the old pool keep it and are unaffected); shrinking
    /// keeps the pool and simply cuts fewer chunks per round.
    pub fn set_threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads.max(1);
        if self.threads > self.pool.threads() {
            // Fold the old pool's scheduling counters into the carry so the
            // engine's `pool_dispatches`/`worker_wakeups` stay monotone
            // across the swap.
            let old = self.pool.stats();
            self.pool_carry.dispatches += old.dispatches - self.pool_base.dispatches;
            self.pool_carry.wakeups += old.wakeups - self.pool_base.wakeups;
            self.pool = Arc::new(WorkerPool::new(self.threads));
            self.pool_base = self.pool.stats();
        }
        self
    }

    /// The persistent worker pool this engine's rounds dispatch on.
    ///
    /// Clone the `Arc` into [`EngineConfig::pool`] to run another engine on
    /// the same workers (see [`EngineConfig::sub`]).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs `f` as one **fused round program**: the worker pool is woken
    /// once ([`WorkerPool::run_program`]), stays resident for every round
    /// primitive `f` executes on this engine, and parks again when `f`
    /// returns — replacing one full dispatch hand-off per round with a
    /// lightweight spin-then-park phase barrier.
    ///
    /// Results are **bit-identical** to running `f` without the fusion (the
    /// determinism and program test suites pin this); only wall-clock time
    /// and the scheduling counters change. Fused blocks nest freely (the
    /// inner one just runs inside the outer session), and arbitrary
    /// sequential work between rounds — convergence checks, active-set
    /// unions, metric folds — is fine inside `f`: it simply runs on the
    /// session thread (executor 0) while the workers wait at the barrier.
    ///
    /// Use [`Engine::run_program`](crate::RoundProgram) to build and replay
    /// a recorded round schedule; use `fused` directly when the schedule is
    /// data-dependent (convergence loops, expanding active sets).
    ///
    /// Note: engines sharing this pool cannot dispatch from *other* threads
    /// while the session runs (they serialise on the pool's gate, as
    /// always); same-thread use is fine and fuses into the session.
    pub fn fused<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let pool = Arc::clone(&self.pool);
        pool.run_program(|| f(self))
    }

    /// Overrides the pull round's cache-blocked refresh block size (slots per
    /// [`crate::soa::clone_block`] block; clamped to at least 1). Defaults to
    /// `GOSSIP_COPY_BLOCK` / [`crate::soa::copy_block`]. **Results never
    /// depend on this value** — only the order cache lines are touched in;
    /// the layout property tests pin that invariance.
    pub fn set_copy_block(&mut self, slots: usize) -> &mut Self {
        self.copy_block = slots.max(1);
        self
    }

    /// Overrides the software-prefetch lookahead of the pull and sparse
    /// delivery gathers (`0` disables prefetching). Defaults to
    /// `GOSSIP_PREFETCH_DIST` / [`crate::soa::prefetch_dist`]. **Results
    /// never depend on this value** — prefetches are pure cache hints.
    pub fn set_prefetch_dist(&mut self, dist: usize) -> &mut Self {
        self.prefetch_dist = dist;
        self
    }

    /// Selects between the run-batched ([`crate::soa::swap_runs`], the
    /// default) and the per-slot copy-on-write commit of the sparse rounds.
    /// The two are byte-identical (pinned by the layout property tests);
    /// the per-slot path exists as the measured control.
    #[doc(hidden)]
    pub fn set_batch_commit(&mut self, batch: bool) -> &mut Self {
        self.batch_commit = batch;
        self
    }

    /// Consumes the engine and returns the final node states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }
}

impl<S: Send> Engine<S> {
    /// Applies a purely local update to every node (no communication, no round
    /// consumed), in parallel over the engine's node chunks.
    ///
    /// Each node receives its own deterministic [`NodeRng`] for algorithm-local
    /// coins (e.g. the probability-δ branch of Algorithm 1); the stream is
    /// keyed by `(seed, epoch, node)` where the epoch increments per
    /// `local_step` call, so runs replay identically — at any thread count,
    /// since the closure runs on the same chunk helper as the rounds. The
    /// closure may therefore only mutate the state slot it is handed; shared
    /// captures are immutable (`Fn + Sync`).
    pub fn local_step<F>(&mut self, f: F)
    where
        F: Fn(NodeId, &mut S, &mut NodeRng) + Sync,
    {
        self.local_epochs += 1;
        let threads = self.threads;
        let prefix = NodeRng::key_prefix(self.seed, self.local_epochs, NodeRng::STREAM_LOCAL);
        par::for_chunks(
            &self.pool,
            &mut self.states,
            threads,
            (),
            |start, chunk| {
                for (j, state) in chunk.iter_mut().enumerate() {
                    let v = start + j;
                    let mut rng = prefix.node(v as u64);
                    f(v, state, &mut rng);
                }
            },
            |(), ()| (),
        );
    }

    /// [`Engine::local_step`] restricted to an [`ActiveSet`]: only the
    /// members' closures run, dispatched over the active indices so the cost
    /// is `O(|active|)`, not `O(n)`.
    ///
    /// Each member receives exactly the [`NodeRng`] stream it would have
    /// received from the dense `local_step` at the same epoch (the epoch
    /// counter advances either way), so a sparse step over the **full** set is
    /// bit-identical to the dense one.
    pub fn local_step_on<F>(&mut self, active: &ActiveSet, f: F)
    where
        F: Fn(NodeId, &mut S, &mut NodeRng) + Sync,
    {
        self.assert_active(active);
        self.local_epochs += 1;
        let threads = self.threads;
        let prefix = NodeRng::key_prefix(self.seed, self.local_epochs, NodeRng::STREAM_LOCAL);
        par::for_sparse(
            &self.pool,
            &mut self.states,
            active.indices(),
            threads,
            (),
            |ids, base, sub| {
                for &id in ids {
                    let v = id as usize;
                    let mut rng = prefix.node(v as u64);
                    f(v, &mut sub[v - base], &mut rng);
                }
            },
            |(), ()| (),
        );
    }
}

impl<S> Engine<S> {
    /// Sparse rounds take the engine's `ActiveSet` by reference; it must have
    /// been built for this network size.
    fn assert_active(&self, active: &ActiveSet) {
        assert_eq!(
            active.n(),
            self.n(),
            "ActiveSet was built for a {}-node network, engine has {} nodes",
            active.n(),
            self.n()
        );
    }
}

/// Merges two sorted, duplicate-free id lists into `out` (also sorted and
/// duplicate-free) — how a sparse push round assembles its written set
/// (active senders ∪ receivers) in `O(|a| + |b|)`.
fn merge_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// The source-tagged row message the lane collectors route through the
/// single-sourced fault-aware sampling loop on the rare disruptive path.
/// Wire size is the served row alone — the source id is observer metadata,
/// free on the wire, exactly like the nested layout it substitutes for.
struct LaneRow<V> {
    source: u32,
    values: Vec<V>,
}

impl<V: MessageSize> MessageSize for LaneRow<V> {
    fn message_bits(&self) -> u64 {
        self.values.message_bits()
    }
}

/// Dispatches `$body` with `$sp` bound to the engine's concrete sampler
/// type — **once per round**, so the node loops monomorphise over
/// [`CompleteSampler`] / [`CsrSampler`] instead of matching the topology
/// enum per draw (which measurably cost throughput at n = 10⁶, where the
/// complete-graph loop must keep `n` in a register).
macro_rules! with_sampler {
    ($self:ident, $sp:ident => $body:expr) => {
        // Cheap per-round clone: a usize or an Arc bump.
        match $self.sampler.clone() {
            PeerSampler::Complete { n } => {
                let $sp = CompleteSampler { n };
                $body
            }
            PeerSampler::Sparse(adj) => {
                let $sp = CsrSampler::new(adj);
                $body
            }
        }
    };
}

impl<S: Clone + Send + Sync> Engine<S> {
    /// Sizes the back buffer on the first communication round (the one
    /// size-`n` allocation; every later round reuses it in place).
    fn ensure_next(&mut self) {
        if self.next.len() != self.states.len() {
            self.next = self.states.clone();
        }
    }

    /// One synchronous **pull** round.
    ///
    /// Every node `v` contacts a uniformly random neighbour `t(v)` (under the
    /// default [`Topology::Complete`]: a uniformly random other node). The
    /// message served by `t(v)` is `serve(t(v), &states[t(v)])`, computed from
    /// the state of `t(v)` at the start of the round. Then
    /// `apply(v, &mut states[v], Some(msg))` is called for every node that
    /// succeeded, and `apply(v, .., None)` for every node whose operation
    /// failed under the failure model.
    ///
    /// The whole round is **one** pool dispatch: each node's task clones its
    /// pre-round state into the back buffer, applies the update there while
    /// reading peers from the front buffer, and the buffers swap afterwards
    /// (see the module docs' pass structure).
    ///
    /// `serve` must be pure (see the module docs); `apply` may only mutate the
    /// state it is handed.
    ///
    /// Returns the number of nodes whose pull failed.
    pub fn pull_round<M, F, G>(&mut self, serve: F, apply: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        with_sampler!(self, sp => self.pull_round_with(sp, serve, apply))
    }

    /// [`Engine::pull_round`], monomorphised over the sampler type.
    fn pull_round_with<SP, M, F, G>(&mut self, sampler: SP, serve: F, apply: G) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.pull_round_faulty(sampler, serve, apply);
        }
        self.metrics.record_round(RoundKind::Pull, self.n() as u64);
        self.round += 1;
        self.ensure_next();

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let (block, dist) = (self.copy_block, self.prefetch_dist);
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let delta = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                if reliable {
                    // Dedicated no-failure loop, restructured around memory
                    // layout (bit-identical to the per-slot reference —
                    // every node draws the same stream and serves the same
                    // target; only the cache-line touch order changes):
                    //
                    // 1. refresh one block of back-buffer slots in a tight
                    //    clone pass (a memcpy for Copy states) so the block
                    //    is L1/L2-hot for the apply pass;
                    // 2. within the block, draw contact targets a batch at a
                    //    time into a stack buffer — separating the RNG math
                    //    from the gather makes the targets available early;
                    // 3. serve/apply with the gather prefetched `dist`
                    //    targets ahead, hiding the random-read latency that
                    //    dominates large-n rounds. When the whole state
                    //    array is cache-resident the gather never misses, so
                    //    the batch/prefetch machinery is skipped (measured
                    //    ~10% overhead at n = 4k) — the touch order is the
                    //    same either way, so this gate cannot affect results.
                    let prefetch = dist > 0
                        && std::mem::size_of::<S>() * states.len() > crate::soa::PREFETCH_MIN_BYTES;
                    const TARGET_BATCH: usize = 256;
                    let mut tbuf = [0u32; TARGET_BATCH];
                    let mut bs = 0;
                    while bs < chunk.len() {
                        let be = (bs + block).min(chunk.len());
                        crate::soa::clone_block(
                            &mut chunk[bs..be],
                            &states[start + bs..start + be],
                        );
                        if !prefetch {
                            for (j, slot) in chunk[bs..be].iter_mut().enumerate() {
                                let v = start + bs + j;
                                let mut rng = prefix.node(v as u64);
                                let t = sampler.sample(&mut rng, v);
                                local.record_attempt(RoundKind::Pull);
                                let msg = serve(t, &states[t]);
                                local.record_delivery(msg.message_bits());
                                apply(v, slot, Some(msg));
                            }
                            bs = be;
                            continue;
                        }
                        let mut js = bs;
                        while js < be {
                            let je = (js + TARGET_BATCH).min(be);
                            let batch = je - js;
                            for (i, slot) in tbuf[..batch].iter_mut().enumerate() {
                                let v = start + js + i;
                                let mut rng = prefix.node(v as u64);
                                *slot = sampler.sample(&mut rng, v) as u32;
                            }
                            for i in 0..batch {
                                if i + dist < batch {
                                    crate::soa::prefetch_read(&states[tbuf[i + dist] as usize]);
                                }
                                let v = start + js + i;
                                let t = tbuf[i] as usize;
                                local.record_attempt(RoundKind::Pull);
                                let msg = serve(t, &states[t]);
                                local.record_delivery(msg.message_bits());
                                apply(v, &mut chunk[js + i], Some(msg));
                            }
                            js = je;
                        }
                        bs = be;
                    }
                } else {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        slot.clone_from(&states[v]);
                        let mut rng = prefix.node(v as u64);
                        local.record_attempt(RoundKind::Pull);
                        if failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            apply(v, slot, None);
                        } else {
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            apply(v, slot, Some(msg));
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// The pre-layout-optimisation [`Engine::pull_round`]: the per-slot
    /// clone-then-serve loop, kept verbatim as the measured control of the
    /// `layout` A/B bench and as the reference the property tests pin the
    /// blocked/prefetched path against (bit-identical states and metrics).
    /// Not part of the supported API.
    #[doc(hidden)]
    pub fn pull_round_reference<M, F, G>(&mut self, serve: F, apply: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        with_sampler!(self, sp => self.pull_round_reference_with(sp, serve, apply))
    }

    /// [`Engine::pull_round_reference`], monomorphised over the sampler type.
    fn pull_round_reference_with<SP, M, F, G>(&mut self, sampler: SP, serve: F, apply: G) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.pull_round_faulty(sampler, serve, apply);
        }
        self.metrics.record_round(RoundKind::Pull, self.n() as u64);
        self.round += 1;
        self.ensure_next();

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let delta = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                if reliable {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        slot.clone_from(&states[v]);
                        let mut rng = prefix.node(v as u64);
                        local.record_attempt(RoundKind::Pull);
                        let t = sampler.sample(&mut rng, v);
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        apply(v, slot, Some(msg));
                    }
                } else {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        slot.clone_from(&states[v]);
                        let mut rng = prefix.node(v as u64);
                        local.record_attempt(RoundKind::Pull);
                        if failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            apply(v, slot, None);
                        } else {
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            apply(v, slot, Some(msg));
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// One synchronous **push** round.
    ///
    /// Every node `v` derives a message `make(v, &states[v])` from its own
    /// (pre-round) state; if the node does not fail, the message is delivered
    /// to a uniformly random other node. After all deliveries are decided,
    /// `fold(u, &mut states[u], msg)` is invoked once per message delivered to
    /// node `u` (in ascending sender order), and finally `after(v,
    /// &mut states[v], delivered)` is called for every node, where `delivered`
    /// is `true` iff the node's own push was delivered. `make` returning
    /// `None` means the node stays silent this round (no failure is recorded).
    ///
    /// `make` must be pure — it is re-evaluated on the delivery pass instead
    /// of buffering messages (see the module docs).
    ///
    /// Returns the number of nodes whose push failed.
    pub fn push_round<M, F, G, H>(&mut self, make: F, fold: G, after: H) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        with_sampler!(self, sp => self.push_round_with(sp, make, fold, after))
    }

    /// [`Engine::push_round`], monomorphised over the sampler type.
    fn push_round_with<SP, M, F, G, H>(&mut self, sampler: SP, make: F, fold: G, after: H) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.push_round_faulty(sampler, make, fold, after);
        }
        let n = self.n();
        self.metrics.record_round(RoundKind::Push, n as u64);
        self.round += 1;
        self.ensure_next();

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let owners = OwnerRanges::new(n, threads);

        // Pass 1: every sender decides its outcome (silent / failed / target),
        // reading its own pre-round state from the front buffer; then the
        // chunk splits its delivered senders by owner range.
        let (delta, rows) = par::for_chunks2(
            &self.pool,
            &mut self.scratch_targets,
            &mut self.scratch_delivered,
            threads,
            (Metrics::default(), Vec::new()),
            |start, chunk, out| {
                let mut local = Metrics::default();
                let mut row = owners.tally_row();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = start + j;
                    let msg = match make(v, &states[v]) {
                        Some(m) => m,
                        None => {
                            *slot = TARGET_SILENT;
                            continue;
                        }
                    };
                    local.record_attempt(RoundKind::Push);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        *slot = TARGET_FAILED;
                    } else {
                        let t = sampler.sample(&mut rng, v) as u32;
                        local.record_delivery(msg.message_bits());
                        owners.tally(&mut row, t);
                        *slot = t;
                    }
                }
                (local, owners.split(start, chunk.iter().copied(), row, out))
            },
            |(ma, ra), (mb, rb)| (ma + mb, concat(ra, rb)),
        );
        self.metrics = self.metrics + delta;

        // Pass 2, per receiver range: refresh the range in the back buffer,
        // fold the messages addressed to it in ascending sender order, then
        // run `after` for every node of the range.
        let states = &self.states;
        let (targets, delivered) = (&self.scratch_targets, &self.scratch_delivered);
        par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            (),
            |start, chunk| {
                crate::soa::clone_block(chunk, &states[start..start + chunk.len()]);
                owners.for_each_delivery(
                    start,
                    delivered,
                    &rows,
                    |v| targets[v],
                    |v, u| {
                        if let Some(msg) = make(v, &states[v]) {
                            fold(u, &mut chunk[u - start], msg);
                        }
                    },
                );
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let u = start + j;
                    after(u, slot, (targets[u] as usize) < n);
                }
            },
            |(), ()| (),
        );
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// One synchronous **push–pull** round (both directions in one round), the
    /// primitive used by rumor-spreading subroutines such as learning the
    /// global minimum/maximum (Step 4 of Algorithm 3).
    ///
    /// Semantically this is a [`Engine::pull_round`] and a [`Engine::push_round`]
    /// executed against the same snapshot, counted as a *single* round — the
    /// standard push–pull convention in the rumor-spreading literature the
    /// paper cites (\[FG85\], \[Pit87\], \[KSSV00\]). For each node, `merge` first
    /// receives the pulled message, then pushed messages in ascending sender
    /// order. `serve` must be pure (it is re-evaluated per delivery).
    pub fn push_pull_round<M, F, G>(&mut self, serve: F, merge: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        with_sampler!(self, sp => self.push_pull_round_with(sp, serve, merge))
    }

    /// [`Engine::push_pull_round`], monomorphised over the sampler type.
    fn push_pull_round_with<SP, M, F, G>(&mut self, sampler: SP, serve: F, merge: G) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.push_pull_round_faulty(sampler, serve, merge);
        }
        let n = self.n();
        self.metrics.record_round(RoundKind::PushPull, n as u64);
        self.round += 1;
        self.ensure_next();

        let (round, threads) = (self.round, self.threads);
        let failure = &self.failure;
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let owners = OwnerRanges::new(n, threads);

        // Pass 1: every node draws its failure coin, pull target, push target,
        // then the chunk splits its pushes by owner range. Delivery metrics
        // are recorded in pass 2, where the messages are constructed anyway.
        let (delta, rows) = par::for_chunks2(
            &self.pool,
            &mut self.scratch_push_pull,
            &mut self.scratch_delivered,
            threads,
            (Metrics::default(), Vec::new()),
            |start, chunk, out| {
                let mut local = Metrics::default();
                let mut row = owners.tally_row();
                if reliable {
                    // Dedicated no-failure loop: no coin, no model match.
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        local.record_attempt(RoundKind::PushPull);
                        let mut rng = prefix.node(v as u64);
                        let pull = sampler.sample(&mut rng, v) as u32;
                        let push = sampler.sample(&mut rng, v) as u32;
                        owners.tally(&mut row, push);
                        *slot = (push, pull);
                    }
                } else {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        local.record_attempt(RoundKind::PushPull);
                        let mut rng = prefix.node(v as u64);
                        if failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            *slot = (TARGET_FAILED, TARGET_FAILED);
                        } else {
                            let pull = sampler.sample(&mut rng, v) as u32;
                            let push = sampler.sample(&mut rng, v) as u32;
                            owners.tally(&mut row, push);
                            *slot = (push, pull);
                        }
                    }
                }
                let pushes = chunk.iter().map(|&(push, _)| push);
                (local, owners.split(start, pushes, row, out))
            },
            |(ma, ra), (mb, rb)| (ma + mb, concat(ra, rb)),
        );
        self.metrics = self.metrics + delta;

        // Pass 2, per receiver range: refresh, merge every node's pulled
        // message, then the pushed ones in ascending sender order.
        let states = &self.states;
        let (targets, delivered) = (&self.scratch_push_pull, &self.scratch_delivered);
        let deliveries = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                crate::soa::clone_block(chunk, &states[start..start + chunk.len()]);
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let t = targets[start + j].1 as usize;
                    if t < n {
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        merge(start + j, slot, msg);
                    }
                }
                owners.for_each_delivery(
                    start,
                    delivered,
                    &rows,
                    |v| targets[v].0,
                    |v, u| {
                        let msg = serve(v, &states[v]);
                        local.record_delivery(msg.message_bits());
                        merge(u, &mut chunk[u - start], msg);
                    },
                );
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + deliveries;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// Convenience: `k` consecutive pull rounds in which every node collects
    /// the served messages of `k` independently chosen random nodes.
    ///
    /// Returns, for every node, the vector of successfully pulled messages
    /// (between 0 and `k` entries, fewer when the node's pulls failed). This
    /// consumes exactly `k` rounds, matching the paper's convention that
    /// "each node can sample t node values (with replacement) in t rounds".
    /// Node states are untouched.
    pub fn collect_samples<M, F>(&mut self, k: usize, serve: F) -> Vec<Vec<M>>
    where
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        with_sampler!(self, sp => self.collect_samples_with(sp, k, serve))
    }

    /// [`Engine::collect_samples`], monomorphised over the sampler type.
    fn collect_samples_with<SP, M, F>(&mut self, sampler: SP, k: usize, serve: F) -> Vec<Vec<M>>
    where
        SP: Sampler,
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        if self.fault.is_disruptive() {
            return self.collect_samples_faulty(sampler, k, serve);
        }
        let n = self.n();
        let threads = self.threads;
        let mut collected: Vec<Vec<M>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
        for _ in 0..k {
            self.metrics.record_round(RoundKind::Pull, n as u64);
            self.round += 1;
            let round = self.round;
            let (states, failure) = (&self.states, &self.failure);
            let sampler = &sampler;
            let reliable = failure.is_reliable();
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
            let delta = par::for_chunks(
                &self.pool,
                &mut collected,
                threads,
                Metrics::default(),
                |start, chunk| {
                    let mut local = Metrics::default();
                    if reliable {
                        // Dedicated no-failure loop: no coin, no model match.
                        for (j, bucket) in chunk.iter_mut().enumerate() {
                            let v = start + j;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            bucket.push(msg);
                        }
                    } else {
                        for (j, bucket) in chunk.iter_mut().enumerate() {
                            let v = start + j;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            if failure.fails(v, round, &mut rng) {
                                local.record_failure();
                                continue;
                            }
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            bucket.push(msg);
                        }
                    }
                    local
                },
                |a, b| a + b,
            );
            self.metrics = self.metrics + delta;
        }
        collected
    }

    /// [`Engine::collect_samples`] with flat, column-major storage: one
    /// allocation for the whole `n × k` sample matrix instead of `n`
    /// per-node vectors, with each sampling round writing one contiguous
    /// column (see [`crate::soa::SampleMatrix`]). Identical round
    /// accounting, RNG consumption and sample values — the tournament
    /// drivers use this as their sampling hot path.
    pub fn collect_samples_flat<M, F>(&mut self, k: usize, serve: F) -> crate::soa::SampleMatrix<M>
    where
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        with_sampler!(self, sp => self.collect_samples_flat_with(sp, k, serve))
    }

    /// [`Engine::collect_samples_flat`], monomorphised over the sampler type.
    fn collect_samples_flat_with<SP, M, F>(
        &mut self,
        sampler: SP,
        k: usize,
        serve: F,
    ) -> crate::soa::SampleMatrix<M>
    where
        SP: Sampler,
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        if self.fault.is_disruptive() {
            // The fault-aware sampling loop stays single-sourced; converting
            // its nested result costs O(n·k) moves on the rare faulted path.
            return crate::soa::SampleMatrix::from(self.collect_samples_faulty(sampler, k, serve));
        }
        let n = self.n();
        let threads = self.threads;
        let mut matrix = crate::soa::SampleMatrix::empty(n, k);
        for r in 0..k {
            self.metrics.record_round(RoundKind::Pull, n as u64);
            self.round += 1;
            let round = self.round;
            let (states, failure) = (&self.states, &self.failure);
            let sampler = &sampler;
            let reliable = failure.is_reliable();
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
            let delta = par::for_chunks(
                &self.pool,
                matrix.column_mut(r),
                threads,
                Metrics::default(),
                |start, chunk| {
                    let mut local = Metrics::default();
                    if reliable {
                        // Dedicated no-failure loop: no coin, no model match.
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            let v = start + j;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            *slot = Some(msg);
                        }
                    } else {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            let v = start + j;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            if failure.fails(v, round, &mut rng) {
                                local.record_failure();
                                *slot = None;
                                continue;
                            }
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            *slot = Some(msg);
                        }
                    }
                    local
                },
                |a, b| a + b,
            );
            self.metrics = self.metrics + delta;
        }
        matrix
    }

    /// One pull round in which every node samples a random peer and receives
    /// that peer's `lanes`-wide row of `lane_values` — the lane-major,
    /// allocation-free counterpart of
    /// `collect_samples(1, |t, _| lane_values[t*lanes..(t+1)*lanes].to_vec())`
    /// (the multi-query service's per-round shape).
    ///
    /// `lane_values` is a borrowed lane-major sheet (`n × lanes`, node `t`'s
    /// row at `t·lanes..(t+1)·lanes`), deliberately separate from the
    /// engine's own states so callers can gossip an external per-node lane
    /// buffer without round-tripping it through engine state. `out` must be
    /// an `n × lanes` [`LaneMatrix`]; its buffers are reused, never
    /// reallocated. Round accounting, RNG consumption and bit accounting are
    /// identical to the vector-serving call this replaces — a delivered row
    /// is charged as the `Vec` message it stands for, length prefix included
    /// ([`crate::message::seq_message_bits`]) — so answers *and* metrics stay
    /// bit-identical. Under a disruptive [`FaultPlan`] the round routes
    /// through the single-sourced fault-aware sampling loop and scatters its
    /// nested result (the rare, slow path).
    pub fn collect_lanes<V>(&mut self, lane_values: &[V], out: &mut LaneMatrix<V>)
    where
        V: MessageSize + Copy + Send + Sync,
    {
        let n = self.n();
        let lanes = out.lanes();
        assert_eq!(out.n(), n, "lane matrix row count must match the engine");
        assert_eq!(
            lane_values.len(),
            n * lanes,
            "lane buffer must be n × lanes"
        );
        if self.fault.is_disruptive() {
            let nested = with_sampler!(self, sp => self.collect_samples_faulty(sp, 1, |t, _| {
                LaneRow {
                    source: t as u32,
                    values: lane_values[t * lanes..(t + 1) * lanes].to_vec(),
                }
            }));
            out.reset_sources();
            let (values, sources) = out.parts_mut();
            for (v, bucket) in nested.into_iter().enumerate() {
                if let Some(m) = bucket.into_iter().next() {
                    sources[v] = m.source;
                    values[v * lanes..(v + 1) * lanes].copy_from_slice(&m.values);
                }
            }
            return;
        }
        self.metrics.record_round(RoundKind::Pull, n as u64);
        self.round += 1;
        let round = self.round;
        let threads = self.threads;
        let failure = &self.failure;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let pool = &self.pool;
        let (values, sources) = out.parts_mut();
        let delta = with_sampler!(self, sp => {
            let sampler = &sp;
            par::for_rows2(
                pool,
                values,
                lanes,
                sources,
                1,
                threads,
                Metrics::default(),
                |start, vchunk, schunk| {
                    let mut local = Metrics::default();
                    for (j, src) in schunk.iter_mut().enumerate() {
                        let v = start + j;
                        local.record_attempt(RoundKind::Pull);
                        let mut rng = prefix.node(v as u64);
                        if !reliable && failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            *src = LaneMatrix::<V>::NO_SOURCE;
                            continue;
                        }
                        let t = sampler.sample(&mut rng, v);
                        let row = &lane_values[t * lanes..(t + 1) * lanes];
                        local.record_delivery(crate::message::seq_message_bits(row));
                        *src = t as u32;
                        vchunk[j * lanes..(j + 1) * lanes].copy_from_slice(row);
                    }
                    local
                },
                |a, b| a + b,
            )
        });
        self.metrics = self.metrics + delta;
    }

    /// [`Engine::collect_lanes`] restricted to an [`ActiveSet`]: only the
    /// active nodes pull; every other row is left undelivered
    /// ([`LaneMatrix::NO_SOURCE`]). Sampling cost is `O(|active|)` plus the
    /// `O(n)` source-column reset; round accounting matches
    /// [`Engine::collect_samples_on`] (the round is consumed even by an
    /// empty active set).
    pub fn collect_lanes_on<V>(
        &mut self,
        active: &ActiveSet,
        lane_values: &[V],
        out: &mut LaneMatrix<V>,
    ) where
        V: MessageSize + Copy + Send + Sync,
    {
        let n = self.n();
        let lanes = out.lanes();
        assert_eq!(out.n(), n, "lane matrix row count must match the engine");
        assert_eq!(
            lane_values.len(),
            n * lanes,
            "lane buffer must be n × lanes"
        );
        if self.fault.is_disruptive() {
            // `collect_samples_on` re-checks the fault plan and takes its
            // single-sourced faulty loop; buckets align with the active ids.
            let nested = self.collect_samples_on(active, 1, |t, _| LaneRow {
                source: t as u32,
                values: lane_values[t * lanes..(t + 1) * lanes].to_vec(),
            });
            out.reset_sources();
            let (values, sources) = out.parts_mut();
            let ids = active.indices();
            for (rk, bucket) in nested.into_iter().enumerate() {
                if let Some(m) = bucket.into_iter().next() {
                    let v = ids[rk] as usize;
                    sources[v] = m.source;
                    values[v * lanes..(v + 1) * lanes].copy_from_slice(&m.values);
                }
            }
            return;
        }
        self.assert_active(active);
        out.reset_sources();
        self.metrics
            .record_round(RoundKind::Pull, active.len() as u64);
        self.round += 1;
        let round = self.round;
        let threads = self.threads;
        let failure = &self.failure;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let pool = &self.pool;
        let ids = active.indices();
        let (values, sources) = out.parts_mut();
        let delta = with_sampler!(self, sp => {
            let sampler = &sp;
            par::for_sparse_rows2(
                pool,
                values,
                lanes,
                sources,
                1,
                ids,
                threads,
                Metrics::default(),
                |ids, base, sub_v, sub_s| {
                    let mut local = Metrics::default();
                    for &vu in ids {
                        let v = vu as usize;
                        let rel = v - base;
                        local.record_attempt(RoundKind::Pull);
                        let mut rng = prefix.node(v as u64);
                        if !reliable && failure.fails(v, round, &mut rng) {
                            // The reset already marked the row undelivered.
                            local.record_failure();
                            continue;
                        }
                        let t = sampler.sample(&mut rng, v);
                        let row = &lane_values[t * lanes..(t + 1) * lanes];
                        local.record_delivery(crate::message::seq_message_bits(row));
                        sub_s[rel] = t as u32;
                        sub_v[rel * lanes..(rel + 1) * lanes].copy_from_slice(row);
                    }
                    local
                },
                |a, b| a + b,
            )
        });
        self.metrics = self.metrics + delta;
    }

    /// Computes, without executing anything, the pull target every node
    /// *would* draw in the given absolute round (the value [`Engine::round`]
    /// has **during** that round, i.e. `self.round() + 1` previews the next
    /// round). `out[v]` is `None` when `v`'s failure coin makes its pull fail
    /// that round (no target is drawn), `Some(t)` otherwise.
    ///
    /// Pull-target draws are keyed purely by `(seed, round, node)` on
    /// [`NodeRng::STREAM_ROUND`], so the preview is exact for any future (or
    /// past) round and is unaffected by sparse execution, payload contents, or
    /// thread count. Two caveats under a disruptive [`FaultPlan`]: a node
    /// that turns out to be crashed in that round draws nothing in reality
    /// (the preview still reports the target it would have drawn), and a
    /// contact that is lost in flight still had its target drawn exactly as
    /// previewed. Both make the preview a *superset* of realised contacts —
    /// what an incremental-recompute layer needs to bound which nodes a state
    /// change can influence.
    pub fn preview_pull_targets_at(&self, round: u64, out: &mut Vec<Option<NodeId>>) {
        let n = self.n();
        out.clear();
        out.reserve(n);
        let failure = &self.failure;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        with_sampler!(self, sp => {
            for v in 0..n {
                let mut rng = prefix.node(v as u64);
                if !reliable && failure.fails(v, round, &mut rng) {
                    out.push(None);
                } else {
                    out.push(Some(sp.sample(&mut rng, v)));
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Fault-aware round bodies.
    //
    // A disruptive [`FaultPlan`] (churn, message loss, or stragglers) routes
    // every primitive through the dedicated `_faulty` variant below instead
    // of threading extra branches through the hot loops: the fast and
    // failure-only loops above stay byte-identical (and so do their golden
    // trajectories), and all fault coins come from the dedicated RNG streams
    // (`STREAM_FAULT_*`), so the algorithm's own draws on `STREAM_ROUND` are
    // exactly the ones a fault-free run would make.
    //
    // Per-contact decision order (also documented on [`FaultPlan`]):
    // sender crashed → failure coin → target sampling → straggler coin
    // (push directions only) → loss coin → receiver crashed. Pull contacts
    // never straggle (a pull is a request/response within the round);
    // straggled pushes are buffered in `pending_delayed` and folded into the
    // first push-capable round at or after their due round, with the message
    // re-derived from the sender's state at arrival.
    // ------------------------------------------------------------------

    /// Advances the churn model to `round`: every currently-alive node draws
    /// its crash coin (from `STREAM_FAULT_CRASH`); nodes already down draw
    /// nothing until their rejoin round passes. Sequential `O(n)` — churn is
    /// an explicitly-opted-into fault mode, and the scan is a trivial
    /// fraction of a round's work.
    fn advance_churn(&mut self, round: u64) {
        let Some(churn) = self.fault.churn() else {
            return;
        };
        let p = churn.crash_probability();
        let rejoin = churn.rejoin_after();
        let n = self.states.len();
        if self.down_until.len() != n {
            self.down_until = vec![0; n];
        }
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_FAULT_CRASH);
        for (v, down) in self.down_until.iter_mut().enumerate() {
            if *down > round {
                continue;
            }
            let mut rng = prefix.node(v as u64);
            if rng.next_f64() < p {
                *down = rejoin.map_or(u64::MAX, |k| round.saturating_add(k));
            }
        }
    }

    /// Moves the straggled contacts due at `round` from `pending_delayed`
    /// into `due_scratch`, sorted receiver-major (stable: a receiver folds
    /// its late arrivals in send order). Contacts due to a crashed receiver
    /// are dropped here and counted as [`Metrics::messages_dropped`].
    fn collect_due(&mut self, round: u64) {
        self.due_scratch.clear();
        if self.pending_delayed.is_empty() {
            return;
        }
        let due = &mut self.due_scratch;
        let down = &self.down_until;
        let mut dropped = 0u64;
        self.pending_delayed.retain(|c| {
            if c.due > round {
                return true;
            }
            if down.is_empty() || down[c.receiver as usize] <= round {
                due.push((c.receiver, c.sender));
            } else {
                dropped += 1;
            }
            false
        });
        due.sort_by_key(|&(receiver, _)| receiver);
        for _ in 0..dropped {
            self.metrics.record_drop();
        }
    }

    /// [`Engine::pull_round`] under a disruptive fault plan.
    fn pull_round_faulty<SP, M, F, G>(&mut self, sampler: SP, serve: F, apply: G) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        self.metrics.record_round(RoundKind::Pull, self.n() as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;
        let delta = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = start + j;
                    // Crashed nodes keep their state (they resume from it on
                    // rejoin) but perform no operation.
                    slot.clone_from(&states[v]);
                    if !ctx.alive(v) {
                        local.record_crash();
                        continue;
                    }
                    let mut rng = prefix.node(v as u64);
                    local.record_attempt(RoundKind::Pull);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        apply(v, slot, None);
                        continue;
                    }
                    let t = sampler.sample(&mut rng, v);
                    if !ctx.alive(t) || ctx.lost(t, v) {
                        local.record_drop();
                        apply(v, slot, None);
                        continue;
                    }
                    let msg = serve(t, &states[t]);
                    local.record_delivery(msg.message_bits());
                    apply(v, slot, Some(msg));
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// [`Engine::push_round`] under a disruptive fault plan.
    fn push_round_faulty<SP, M, F, G, H>(
        &mut self,
        sampler: SP,
        make: F,
        fold: G,
        after: H,
    ) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        let n = self.n();
        self.metrics.record_round(RoundKind::Push, n as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;
        let owners = OwnerRanges::new(n, threads);

        // Pass 1: as the reliable pass, plus the fault decisions. Straggled
        // pushes are collected per chunk and concatenated in chunk order by
        // the fold, so `pending_delayed` grows in ascending sender order at
        // any thread count.
        let (delta, mut new_pending, rows) = par::for_chunks2(
            &self.pool,
            &mut self.scratch_targets,
            &mut self.scratch_delivered,
            threads,
            (Metrics::default(), Vec::new(), Vec::new()),
            |start, chunk, out| {
                let mut local = Metrics::default();
                let mut pending: Vec<DelayedContact> = Vec::new();
                let mut row = owners.tally_row();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = start + j;
                    if !ctx.alive(v) {
                        *slot = TARGET_SILENT;
                        local.record_crash();
                        continue;
                    }
                    let msg = match make(v, &states[v]) {
                        Some(m) => m,
                        None => {
                            *slot = TARGET_SILENT;
                            continue;
                        }
                    };
                    local.record_attempt(RoundKind::Push);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        *slot = TARGET_FAILED;
                        continue;
                    }
                    let t = sampler.sample(&mut rng, v);
                    if let Some(d) = ctx.delay_of(v) {
                        pending.push(DelayedContact {
                            due: round + d,
                            receiver: t as u32,
                            sender: v as u32,
                        });
                        *slot = TARGET_DROPPED;
                        local.record_delay();
                        continue;
                    }
                    if !ctx.alive(t) || ctx.lost(v, t) {
                        *slot = TARGET_DROPPED;
                        local.record_drop();
                        continue;
                    }
                    local.record_delivery(msg.message_bits());
                    owners.tally(&mut row, t as u32);
                    *slot = t as u32;
                }
                let pushes = chunk.iter().copied();
                (local, pending, owners.split(start, pushes, row, out))
            },
            |(ma, va, ra), (mb, vb, rb)| (ma + mb, concat(va, vb), concat(ra, rb)),
        );
        self.metrics = self.metrics + delta;
        // New entries are due strictly after `round`, so appending before the
        // drain is safe — they cannot be picked up by it.
        self.pending_delayed.append(&mut new_pending);
        self.collect_due(round);

        let states = &self.states;
        let (targets, delivered) = (&self.scratch_targets, &self.scratch_delivered);
        let due = &self.due_scratch;
        let down = &self.down_until;
        let arrivals = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                crate::soa::clone_block(chunk, &states[start..start + chunk.len()]);
                owners.for_each_delivery(
                    start,
                    delivered,
                    &rows,
                    |v| targets[v],
                    |v, u| {
                        if let Some(msg) = make(v, &states[v]) {
                            fold(u, &mut chunk[u - start], msg);
                        }
                    },
                );
                // Late arrivals land after this round's in-time deliveries,
                // in send order; the message is re-derived from the sender's
                // *current* state (a sender answering `None` now means the
                // late message evaporates).
                for &(r, s) in due_in(due, start, chunk.len()) {
                    let (u, v) = (r as usize, s as usize);
                    if let Some(msg) = make(v, &states[v]) {
                        local.record_delivery(msg.message_bits());
                        fold(u, &mut chunk[u - start], msg);
                    }
                }
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let u = start + j;
                    // A crashed node performed nothing this round, so its
                    // `after` hook does not run.
                    if down.is_empty() || down[u] <= round {
                        after(u, slot, (targets[u] as usize) < n);
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + arrivals;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// [`Engine::push_pull_round`] under a disruptive fault plan.
    fn push_pull_round_faulty<SP, M, F, G>(&mut self, sampler: SP, serve: F, merge: G) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        let n = self.n();
        self.metrics.record_round(RoundKind::PushPull, n as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);

        let (round, threads) = (self.round, self.threads);
        let failure = &self.failure;
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;
        let owners = OwnerRanges::new(n, threads);

        // Pass 1: failure coin, pull target, push target — then the fault
        // decisions per direction. The two directions draw independent loss
        // coins (the pair key is ordered sender-then-receiver).
        let (delta, mut new_pending, rows) = par::for_chunks2(
            &self.pool,
            &mut self.scratch_push_pull,
            &mut self.scratch_delivered,
            threads,
            (Metrics::default(), Vec::new(), Vec::new()),
            |start, chunk, out| {
                let mut local = Metrics::default();
                let mut pending: Vec<DelayedContact> = Vec::new();
                let mut row = owners.tally_row();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = start + j;
                    if !ctx.alive(v) {
                        *slot = (TARGET_SILENT, TARGET_SILENT);
                        local.record_crash();
                        continue;
                    }
                    local.record_attempt(RoundKind::PushPull);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        *slot = (TARGET_FAILED, TARGET_FAILED);
                        continue;
                    }
                    let t_pull = sampler.sample(&mut rng, v);
                    let t_push = sampler.sample(&mut rng, v);
                    // Pull direction: the server `t_pull` answers `v`; pulls
                    // never straggle.
                    let pull = if !ctx.alive(t_pull) || ctx.lost(t_pull, v) {
                        local.record_drop();
                        TARGET_DROPPED
                    } else {
                        t_pull as u32
                    };
                    // Push direction: may straggle.
                    let push = if let Some(d) = ctx.delay_of(v) {
                        pending.push(DelayedContact {
                            due: round + d,
                            receiver: t_push as u32,
                            sender: v as u32,
                        });
                        local.record_delay();
                        TARGET_DROPPED
                    } else if !ctx.alive(t_push) || ctx.lost(v, t_push) {
                        local.record_drop();
                        TARGET_DROPPED
                    } else {
                        owners.tally(&mut row, t_push as u32);
                        t_push as u32
                    };
                    *slot = (push, pull);
                }
                let pushes = chunk.iter().map(|&(push, _)| push);
                (local, pending, owners.split(start, pushes, row, out))
            },
            |(ma, va, ra), (mb, vb, rb)| (ma + mb, concat(va, vb), concat(ra, rb)),
        );
        self.metrics = self.metrics + delta;
        self.pending_delayed.append(&mut new_pending);
        self.collect_due(round);

        let states = &self.states;
        let (targets, delivered) = (&self.scratch_push_pull, &self.scratch_delivered);
        let due = &self.due_scratch;
        let deliveries = par::for_chunks(
            &self.pool,
            &mut self.next,
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                crate::soa::clone_block(chunk, &states[start..start + chunk.len()]);
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let t = targets[start + j].1 as usize;
                    if t < n {
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        merge(start + j, slot, msg);
                    }
                }
                let len = chunk.len();
                let mut deliver = |v: usize, u: usize| {
                    let msg = serve(v, &states[v]);
                    local.record_delivery(msg.message_bits());
                    merge(u, &mut chunk[u - start], msg);
                };
                owners.for_each_delivery(start, delivered, &rows, |v| targets[v].0, &mut deliver);
                for &(r, s) in due_in(due, start, len) {
                    deliver(s as usize, r as usize);
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + deliveries;
        std::mem::swap(&mut self.states, &mut self.next);
        delta.failed_operations as usize
    }

    /// [`Engine::collect_samples`] under a disruptive fault plan.
    fn collect_samples_faulty<SP, M, F>(&mut self, sampler: SP, k: usize, serve: F) -> Vec<Vec<M>>
    where
        SP: Sampler,
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        let n = self.n();
        let threads = self.threads;
        let mut collected: Vec<Vec<M>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
        for _ in 0..k {
            self.metrics.record_round(RoundKind::Pull, n as u64);
            self.round += 1;
            self.advance_churn(self.round);
            let round = self.round;
            let (states, failure) = (&self.states, &self.failure);
            let sampler = &sampler;
            let reliable = failure.is_reliable();
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
            let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
            let ctx = &ctx;
            let delta = par::for_chunks(
                &self.pool,
                &mut collected,
                threads,
                Metrics::default(),
                |start, chunk| {
                    let mut local = Metrics::default();
                    for (j, bucket) in chunk.iter_mut().enumerate() {
                        let v = start + j;
                        if !ctx.alive(v) {
                            local.record_crash();
                            continue;
                        }
                        local.record_attempt(RoundKind::Pull);
                        let mut rng = prefix.node(v as u64);
                        if !reliable && failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            continue;
                        }
                        let t = sampler.sample(&mut rng, v);
                        if !ctx.alive(t) || ctx.lost(t, v) {
                            local.record_drop();
                            continue;
                        }
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        bucket.push(msg);
                    }
                    local
                },
                |a, b| a + b,
            );
            self.metrics = self.metrics + delta;
        }
        collected
    }
}

/// ## Sparse rounds: active sets and copy-on-write buffers
///
/// The `*_on` primitives are the participant-proportional counterparts of the
/// dense rounds: they take an [`ActiveSet`] and dispatch pool chunks over the
/// active indices only ([`crate::par::for_sparse`]), so a round over `a`
/// participants costs `O(a)` (plus `O(messages)` delivery work on the push
/// paths) instead of `O(n)`. Peer *targets* are still sampled from the full
/// topology neighbourhood — sparseness restricts who acts, not who can be
/// contacted.
///
/// Instead of the dense rounds' whole-buffer clone into `next`, sparse rounds
/// are **copy-on-write**: only the round's *written set* — the active nodes
/// (pull) or active ∪ receivers (push paths) — is cloned into the back
/// buffer, updated there against the immutable front buffer, and committed by
/// swapping exactly those slots back (an `O(|written|)` pass;
/// [`crate::par::for_sparse2`]). The front buffer therefore stays fully
/// current at all times — dense and sparse rounds interleave freely — and
/// untouched slots are never cloned, read, or written. (A design with an
/// `O(1)` whole-buffer swap plus per-node epoch stamps was rejected: resolving
/// stale slots through stamps makes peer reads alias the buffer being
/// written, which cannot be expressed under this crate's `deny(unsafe_code)`
/// discipline — and the slot-swap commit is already proportional to the
/// participants, which is the property that matters.)
///
/// Push deliveries are bucketed over the **sparse message set**: a
/// `(receiver, sender)` pair list sized by the number of messages, sorted
/// receiver-major (unique keys, so the unstable sort is deterministic and
/// yields the dense paths' ascending-sender fold order) — never a dense
/// `O(n)` per-node array.
///
/// A sparse round over [`ActiveSet::full`] is **bit-identical** to its dense
/// counterpart — same RNG keys per node, same fold order, same metrics — as
/// pinned against the golden trajectories by `tests/sparse.rs`.
impl<S: Clone + Send + Sync> Engine<S> {
    /// [`Engine::pull_round`] restricted to an [`ActiveSet`]: only active
    /// nodes pull (each contacting a uniformly random neighbour and folding
    /// the served message through `apply`); every other node's state is
    /// carried over untouched. Cost: `O(|active|)`.
    ///
    /// Returns the number of active nodes whose pull failed.
    ///
    /// # Panics
    ///
    /// Panics if `active` was built for a different network size.
    pub fn pull_round_on<M, F, G>(&mut self, active: &ActiveSet, serve: F, apply: G) -> usize
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        with_sampler!(self, sp => self.pull_round_on_with(sp, active, serve, apply))
    }

    /// [`Engine::pull_round_on`], monomorphised over the sampler type.
    fn pull_round_on_with<SP, M, F, G>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        serve: F,
        apply: G,
    ) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.pull_round_on_faulty(sampler, active, serve, apply);
        }
        self.assert_active(active);
        self.metrics
            .record_round(RoundKind::Pull, active.len() as u64);
        self.round += 1;
        self.ensure_next();

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let delta = par::for_sparse(
            &self.pool,
            &mut self.next,
            active.indices(),
            threads,
            Metrics::default(),
            |ids, base, sub| {
                let mut local = Metrics::default();
                if reliable {
                    for &id in ids {
                        let v = id as usize;
                        let slot = &mut sub[v - base];
                        slot.clone_from(&states[v]);
                        let mut rng = prefix.node(v as u64);
                        local.record_attempt(RoundKind::Pull);
                        let t = sampler.sample(&mut rng, v);
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        apply(v, slot, Some(msg));
                    }
                } else {
                    for &id in ids {
                        let v = id as usize;
                        let slot = &mut sub[v - base];
                        slot.clone_from(&states[v]);
                        let mut rng = prefix.node(v as u64);
                        local.record_attempt(RoundKind::Pull);
                        if failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            apply(v, slot, None);
                        } else {
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            apply(v, slot, Some(msg));
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        self.commit_written(active.indices());
        delta.failed_operations as usize
    }

    /// [`Engine::push_round`] restricted to an [`ActiveSet`]: only active
    /// nodes derive and push messages; receivers (any node of the network)
    /// fold what they were sent, and `after` runs for the **active** nodes
    /// only. Cost: `O(|active| + messages)`.
    ///
    /// # Panics
    ///
    /// Panics if `active` was built for a different network size.
    pub fn push_round_on<M, F, G, H>(
        &mut self,
        active: &ActiveSet,
        make: F,
        fold: G,
        after: H,
    ) -> SparsePushOutcome
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        with_sampler!(self, sp => self.push_round_on_with(sp, active, make, fold, after))
    }

    /// [`Engine::push_round_on`], monomorphised over the sampler type.
    fn push_round_on_with<SP, M, F, G, H>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        make: F,
        fold: G,
        after: H,
    ) -> SparsePushOutcome
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.push_round_on_faulty(sampler, active, make, fold, after);
        }
        self.assert_active(active);
        let n = self.n();
        let m = active.len();
        self.metrics.record_round(RoundKind::Push, m as u64);
        self.round += 1;
        self.ensure_next();
        if self.scratch_compact.len() < m {
            self.scratch_compact.resize(m, 0);
        }

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ids = active.indices();

        // Pass 1: every active sender decides its outcome (silent / failed /
        // target) into the compact scratch, aligned with the active indices.
        let delta = par::for_chunks(
            &self.pool,
            &mut self.scratch_compact[..m],
            threads,
            Metrics::default(),
            |start, chunk| {
                let mut local = Metrics::default();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = ids[start + j] as usize;
                    let msg = match make(v, &states[v]) {
                        Some(m) => m,
                        None => {
                            *slot = TARGET_SILENT;
                            continue;
                        }
                    };
                    local.record_attempt(RoundKind::Push);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        *slot = TARGET_FAILED;
                    } else {
                        let t = sampler.sample(&mut rng, v);
                        local.record_delivery(msg.message_bits());
                        *slot = t as u32;
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;

        // Bucket the sparse message set and assemble the written set.
        let receivers = self.bucket_sparse(active);

        // Pass 2: clone every written node into the back buffer, fold its
        // deliveries (ascending sender order), and run `after` on the active
        // members.
        let states = &self.states;
        let (pairs, compact) = (&self.scratch_pairs, &self.scratch_compact[..m]);
        let dist = self.prefetch_dist;
        par::for_sparse(
            &self.pool,
            &mut self.next,
            &self.scratch_written,
            threads,
            (),
            |wids, base, sub| {
                for &id in wids {
                    let u = id as usize;
                    let slot = &mut sub[u - base];
                    slot.clone_from(&states[u]);
                    let lo = pairs.partition_point(|&(r, _)| r < id);
                    let hi = pairs.partition_point(|&(r, _)| r <= id);
                    for k in lo..hi {
                        // The pair list is sorted by receiver, so the sender
                        // column is a random gather; hint the read `dist`
                        // entries ahead (possibly past this receiver's run —
                        // a neighbouring run's sender is still a useful
                        // warm-up).
                        if dist > 0 && k + dist < pairs.len() {
                            crate::soa::prefetch_read(&states[pairs[k + dist].1 as usize]);
                        }
                        let v = pairs[k].1 as usize;
                        if let Some(msg) = make(v, &states[v]) {
                            fold(u, slot, msg);
                        }
                    }
                    if let Some(rank) = active.rank(u) {
                        after(u, slot, (compact[rank] as usize) < n);
                    }
                }
            },
            |(), ()| (),
        );
        let written = std::mem::take(&mut self.scratch_written);
        self.commit_written(&written);
        self.scratch_written = written;
        SparsePushOutcome {
            failed: delta.failed_operations as usize,
            receivers,
        }
    }

    /// [`Engine::push_pull_round`] restricted to an [`ActiveSet`]: only
    /// active nodes push **and** pull this round (one round on the meter,
    /// both directions); receivers of pushes fold the served messages as in
    /// the dense primitive. Cost: `O(|active| + messages)`.
    ///
    /// # Panics
    ///
    /// Panics if `active` was built for a different network size.
    pub fn push_pull_round_on<M, F, G>(
        &mut self,
        active: &ActiveSet,
        serve: F,
        merge: G,
    ) -> SparsePushOutcome
    where
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        with_sampler!(self, sp => self.push_pull_round_on_with(sp, active, serve, merge))
    }

    /// [`Engine::push_pull_round_on`], monomorphised over the sampler type.
    fn push_pull_round_on_with<SP, M, F, G>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        serve: F,
        merge: G,
    ) -> SparsePushOutcome
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        if self.fault.is_disruptive() {
            return self.push_pull_round_on_faulty(sampler, active, serve, merge);
        }
        self.assert_active(active);
        let m = active.len();
        self.metrics.record_round(RoundKind::PushPull, m as u64);
        self.round += 1;
        self.ensure_next();
        if self.scratch_compact.len() < m {
            self.scratch_compact.resize(m, 0);
        }
        if self.scratch_compact2.len() < m {
            self.scratch_compact2.resize(m, 0);
        }

        let (round, threads) = (self.round, self.threads);
        let failure = &self.failure;
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ids = active.indices();

        // Pass 1: every active node draws its failure coin, pull target, push
        // target (the dense primitive's draw order), into the compact
        // scratches.
        let delta = par::for_chunks2(
            &self.pool,
            &mut self.scratch_compact[..m],
            &mut self.scratch_compact2[..m],
            threads,
            Metrics::default(),
            |start, push_chunk, pull_chunk| {
                let mut local = Metrics::default();
                if reliable {
                    for j in 0..push_chunk.len() {
                        let v = ids[start + j] as usize;
                        local.record_attempt(RoundKind::PushPull);
                        let mut rng = prefix.node(v as u64);
                        pull_chunk[j] = sampler.sample(&mut rng, v) as u32;
                        push_chunk[j] = sampler.sample(&mut rng, v) as u32;
                    }
                } else {
                    for j in 0..push_chunk.len() {
                        let v = ids[start + j] as usize;
                        local.record_attempt(RoundKind::PushPull);
                        let mut rng = prefix.node(v as u64);
                        if failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            push_chunk[j] = TARGET_FAILED;
                            pull_chunk[j] = TARGET_FAILED;
                        } else {
                            pull_chunk[j] = sampler.sample(&mut rng, v) as u32;
                            push_chunk[j] = sampler.sample(&mut rng, v) as u32;
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;

        let receivers = self.bucket_sparse(active);

        // Pass 2: clone every written node, merge its pulled message first
        // (active members only), then the pushed ones in ascending sender
        // order.
        let states = &self.states;
        let (pairs, pulls) = (&self.scratch_pairs, &self.scratch_compact2[..m]);
        let dist = self.prefetch_dist;
        let deliveries = par::for_sparse(
            &self.pool,
            &mut self.next,
            &self.scratch_written,
            threads,
            Metrics::default(),
            |wids, base, sub| {
                let mut local = Metrics::default();
                for &id in wids {
                    let u = id as usize;
                    let slot = &mut sub[u - base];
                    slot.clone_from(&states[u]);
                    if let Some(rank) = active.rank(u) {
                        let t_pull = pulls[rank];
                        if t_pull != TARGET_FAILED {
                            let t = t_pull as usize;
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            merge(u, slot, msg);
                        }
                    }
                    let lo = pairs.partition_point(|&(r, _)| r < id);
                    let hi = pairs.partition_point(|&(r, _)| r <= id);
                    for k in lo..hi {
                        if dist > 0 && k + dist < pairs.len() {
                            crate::soa::prefetch_read(&states[pairs[k + dist].1 as usize]);
                        }
                        let v = pairs[k].1 as usize;
                        let msg = serve(v, &states[v]);
                        local.record_delivery(msg.message_bits());
                        merge(u, slot, msg);
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + deliveries;
        let written = std::mem::take(&mut self.scratch_written);
        self.commit_written(&written);
        self.scratch_written = written;
        SparsePushOutcome {
            failed: delta.failed_operations as usize,
            receivers,
        }
    }

    /// [`Engine::collect_samples`] restricted to an [`ActiveSet`]: `k`
    /// consecutive pull rounds in which only the active nodes sample. Cost:
    /// `O(k·|active|)`.
    ///
    /// Returns one bucket per **active** node, aligned with
    /// [`ActiveSet::indices`] (use [`ActiveSet::rank`] to look a member's
    /// bucket up by node id); over the full set the layout coincides with the
    /// dense primitive's per-node vector. Node states are untouched.
    pub fn collect_samples_on<M, F>(
        &mut self,
        active: &ActiveSet,
        k: usize,
        serve: F,
    ) -> Vec<Vec<M>>
    where
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        with_sampler!(self, sp => self.collect_samples_on_with(sp, active, k, serve))
    }

    /// [`Engine::collect_samples_on`], monomorphised over the sampler type.
    fn collect_samples_on_with<SP, M, F>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        k: usize,
        serve: F,
    ) -> Vec<Vec<M>>
    where
        SP: Sampler,
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        if self.fault.is_disruptive() {
            return self.collect_samples_on_faulty(sampler, active, k, serve);
        }
        self.assert_active(active);
        let m = active.len();
        let threads = self.threads;
        let ids = active.indices();
        let mut collected: Vec<Vec<M>> = (0..m).map(|_| Vec::with_capacity(k)).collect();
        for _ in 0..k {
            self.metrics.record_round(RoundKind::Pull, m as u64);
            self.round += 1;
            let round = self.round;
            let (states, failure) = (&self.states, &self.failure);
            let sampler = &sampler;
            let reliable = failure.is_reliable();
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
            let delta = par::for_chunks(
                &self.pool,
                &mut collected,
                threads,
                Metrics::default(),
                |start, chunk| {
                    let mut local = Metrics::default();
                    if reliable {
                        for (j, bucket) in chunk.iter_mut().enumerate() {
                            let v = ids[start + j] as usize;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            bucket.push(msg);
                        }
                    } else {
                        for (j, bucket) in chunk.iter_mut().enumerate() {
                            let v = ids[start + j] as usize;
                            local.record_attempt(RoundKind::Pull);
                            let mut rng = prefix.node(v as u64);
                            if failure.fails(v, round, &mut rng) {
                                local.record_failure();
                                continue;
                            }
                            let t = sampler.sample(&mut rng, v);
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            bucket.push(msg);
                        }
                    }
                    local
                },
                |a, b| a + b,
            );
            self.metrics = self.metrics + delta;
        }
        collected
    }

    /// [`Engine::pull_round_on`] under a disruptive fault plan. Crash
    /// bookkeeping is restricted to the active members (a crashed *inactive*
    /// node does nothing either way, so nothing is counted for it).
    fn pull_round_on_faulty<SP, M, F, G>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        serve: F,
        apply: G,
    ) -> usize
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, Option<M>) + Sync,
    {
        self.assert_active(active);
        self.metrics
            .record_round(RoundKind::Pull, active.len() as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;
        let delta = par::for_sparse(
            &self.pool,
            &mut self.next,
            active.indices(),
            threads,
            Metrics::default(),
            |ids, base, sub| {
                let mut local = Metrics::default();
                for &id in ids {
                    let v = id as usize;
                    let slot = &mut sub[v - base];
                    slot.clone_from(&states[v]);
                    if !ctx.alive(v) {
                        local.record_crash();
                        continue;
                    }
                    let mut rng = prefix.node(v as u64);
                    local.record_attempt(RoundKind::Pull);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        apply(v, slot, None);
                        continue;
                    }
                    let t = sampler.sample(&mut rng, v);
                    if !ctx.alive(t) || ctx.lost(t, v) {
                        local.record_drop();
                        apply(v, slot, None);
                        continue;
                    }
                    let msg = serve(t, &states[t]);
                    local.record_delivery(msg.message_bits());
                    apply(v, slot, Some(msg));
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + delta;
        self.commit_written(active.indices());
        delta.failed_operations as usize
    }

    /// [`Engine::push_round_on`] under a disruptive fault plan.
    fn push_round_on_faulty<SP, M, F, G, H>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        make: F,
        fold: G,
        after: H,
    ) -> SparsePushOutcome
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> Option<M> + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
        H: Fn(NodeId, &mut S, bool) + Sync,
    {
        self.assert_active(active);
        let n = self.n();
        let m = active.len();
        self.metrics.record_round(RoundKind::Push, m as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);
        if self.scratch_compact.len() < m {
            self.scratch_compact.resize(m, 0);
        }

        let (round, threads) = (self.round, self.threads);
        let (states, failure) = (&self.states, &self.failure);
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ids = active.indices();
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;

        let (delta, mut new_pending) = par::for_chunks(
            &self.pool,
            &mut self.scratch_compact[..m],
            threads,
            (Metrics::default(), Vec::new()),
            |start, chunk| {
                let mut local = Metrics::default();
                let mut pending: Vec<DelayedContact> = Vec::new();
                for (j, slot) in chunk.iter_mut().enumerate() {
                    let v = ids[start + j] as usize;
                    if !ctx.alive(v) {
                        *slot = TARGET_SILENT;
                        local.record_crash();
                        continue;
                    }
                    let msg = match make(v, &states[v]) {
                        Some(m) => m,
                        None => {
                            *slot = TARGET_SILENT;
                            continue;
                        }
                    };
                    local.record_attempt(RoundKind::Push);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        *slot = TARGET_FAILED;
                        continue;
                    }
                    let t = sampler.sample(&mut rng, v);
                    if let Some(d) = ctx.delay_of(v) {
                        pending.push(DelayedContact {
                            due: round + d,
                            receiver: t as u32,
                            sender: v as u32,
                        });
                        *slot = TARGET_DROPPED;
                        local.record_delay();
                        continue;
                    }
                    if !ctx.alive(t) || ctx.lost(v, t) {
                        *slot = TARGET_DROPPED;
                        local.record_drop();
                        continue;
                    }
                    local.record_delivery(msg.message_bits());
                    *slot = t as u32;
                }
                (local, pending)
            },
            |(ma, mut va), (mb, mut vb)| {
                va.append(&mut vb);
                (ma + mb, va)
            },
        );
        self.metrics = self.metrics + delta;
        self.pending_delayed.append(&mut new_pending);
        self.collect_due(round);

        let receivers = self.bucket_sparse(active);
        let receivers = self.merge_due_receivers(receivers);

        let states = &self.states;
        let (pairs, compact) = (&self.scratch_pairs, &self.scratch_compact[..m]);
        let due = &self.due_scratch;
        let down = &self.down_until;
        let arrivals = par::for_sparse(
            &self.pool,
            &mut self.next,
            &self.scratch_written,
            threads,
            Metrics::default(),
            |wids, base, sub| {
                let mut local = Metrics::default();
                for &id in wids {
                    let u = id as usize;
                    let slot = &mut sub[u - base];
                    slot.clone_from(&states[u]);
                    let lo = pairs.partition_point(|&(r, _)| r < id);
                    let hi = pairs.partition_point(|&(r, _)| r <= id);
                    for &(_, s) in &pairs[lo..hi] {
                        let v = s as usize;
                        if let Some(msg) = make(v, &states[v]) {
                            fold(u, slot, msg);
                        }
                    }
                    if !due.is_empty() {
                        let dlo = due.partition_point(|&(r, _)| r < id);
                        for &(_, s) in due[dlo..].iter().take_while(|&&(r, _)| r == id) {
                            let v = s as usize;
                            if let Some(msg) = make(v, &states[v]) {
                                local.record_delivery(msg.message_bits());
                                fold(u, slot, msg);
                            }
                        }
                    }
                    if let Some(rank) = active.rank(u) {
                        if down.is_empty() || down[u] <= round {
                            after(u, slot, (compact[rank] as usize) < n);
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + arrivals;
        let written = std::mem::take(&mut self.scratch_written);
        self.commit_written(&written);
        self.scratch_written = written;
        SparsePushOutcome {
            failed: delta.failed_operations as usize,
            receivers,
        }
    }

    /// [`Engine::push_pull_round_on`] under a disruptive fault plan.
    fn push_pull_round_on_faulty<SP, M, F, G>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        serve: F,
        merge: G,
    ) -> SparsePushOutcome
    where
        SP: Sampler,
        M: MessageSize,
        F: Fn(NodeId, &S) -> M + Sync,
        G: Fn(NodeId, &mut S, M) + Sync,
    {
        self.assert_active(active);
        let n = self.n();
        let m = active.len();
        self.metrics.record_round(RoundKind::PushPull, m as u64);
        self.round += 1;
        self.ensure_next();
        self.advance_churn(self.round);
        if self.scratch_compact.len() < m {
            self.scratch_compact.resize(m, 0);
        }
        if self.scratch_compact2.len() < m {
            self.scratch_compact2.resize(m, 0);
        }

        let (round, threads) = (self.round, self.threads);
        let failure = &self.failure;
        let sampler = &sampler;
        let reliable = failure.is_reliable();
        let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
        let ids = active.indices();
        let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
        let ctx = &ctx;

        let (delta, mut new_pending) = par::for_chunks2(
            &self.pool,
            &mut self.scratch_compact[..m],
            &mut self.scratch_compact2[..m],
            threads,
            (Metrics::default(), Vec::new()),
            |start, push_chunk, pull_chunk| {
                let mut local = Metrics::default();
                let mut pending: Vec<DelayedContact> = Vec::new();
                for j in 0..push_chunk.len() {
                    let v = ids[start + j] as usize;
                    if !ctx.alive(v) {
                        push_chunk[j] = TARGET_SILENT;
                        pull_chunk[j] = TARGET_SILENT;
                        local.record_crash();
                        continue;
                    }
                    local.record_attempt(RoundKind::PushPull);
                    let mut rng = prefix.node(v as u64);
                    if !reliable && failure.fails(v, round, &mut rng) {
                        local.record_failure();
                        push_chunk[j] = TARGET_FAILED;
                        pull_chunk[j] = TARGET_FAILED;
                        continue;
                    }
                    let t_pull = sampler.sample(&mut rng, v);
                    let t_push = sampler.sample(&mut rng, v);
                    if !ctx.alive(t_pull) || ctx.lost(t_pull, v) {
                        local.record_drop();
                        pull_chunk[j] = TARGET_DROPPED;
                    } else {
                        pull_chunk[j] = t_pull as u32;
                    }
                    if let Some(d) = ctx.delay_of(v) {
                        pending.push(DelayedContact {
                            due: round + d,
                            receiver: t_push as u32,
                            sender: v as u32,
                        });
                        push_chunk[j] = TARGET_DROPPED;
                        local.record_delay();
                    } else if !ctx.alive(t_push) || ctx.lost(v, t_push) {
                        push_chunk[j] = TARGET_DROPPED;
                        local.record_drop();
                    } else {
                        push_chunk[j] = t_push as u32;
                    }
                }
                (local, pending)
            },
            |(ma, mut va), (mb, mut vb)| {
                va.append(&mut vb);
                (ma + mb, va)
            },
        );
        self.metrics = self.metrics + delta;
        self.pending_delayed.append(&mut new_pending);
        self.collect_due(round);

        let receivers = self.bucket_sparse(active);
        let receivers = self.merge_due_receivers(receivers);

        let states = &self.states;
        let (pairs, pulls) = (&self.scratch_pairs, &self.scratch_compact2[..m]);
        let due = &self.due_scratch;
        let deliveries = par::for_sparse(
            &self.pool,
            &mut self.next,
            &self.scratch_written,
            threads,
            Metrics::default(),
            |wids, base, sub| {
                let mut local = Metrics::default();
                for &id in wids {
                    let u = id as usize;
                    let slot = &mut sub[u - base];
                    slot.clone_from(&states[u]);
                    if let Some(rank) = active.rank(u) {
                        let t_pull = pulls[rank];
                        if (t_pull as usize) < n {
                            let t = t_pull as usize;
                            let msg = serve(t, &states[t]);
                            local.record_delivery(msg.message_bits());
                            merge(u, slot, msg);
                        }
                    }
                    let lo = pairs.partition_point(|&(r, _)| r < id);
                    let hi = pairs.partition_point(|&(r, _)| r <= id);
                    for &(_, s) in &pairs[lo..hi] {
                        let v = s as usize;
                        let msg = serve(v, &states[v]);
                        local.record_delivery(msg.message_bits());
                        merge(u, slot, msg);
                    }
                    if !due.is_empty() {
                        let dlo = due.partition_point(|&(r, _)| r < id);
                        for &(_, s) in due[dlo..].iter().take_while(|&&(r, _)| r == id) {
                            let v = s as usize;
                            let msg = serve(v, &states[v]);
                            local.record_delivery(msg.message_bits());
                            merge(u, slot, msg);
                        }
                    }
                }
                local
            },
            |a, b| a + b,
        );
        self.metrics = self.metrics + deliveries;
        let written = std::mem::take(&mut self.scratch_written);
        self.commit_written(&written);
        self.scratch_written = written;
        SparsePushOutcome {
            failed: delta.failed_operations as usize,
            receivers,
        }
    }

    /// [`Engine::collect_samples_on`] under a disruptive fault plan.
    fn collect_samples_on_faulty<SP, M, F>(
        &mut self,
        sampler: SP,
        active: &ActiveSet,
        k: usize,
        serve: F,
    ) -> Vec<Vec<M>>
    where
        SP: Sampler,
        M: MessageSize + Send,
        F: Fn(NodeId, &S) -> M + Sync,
    {
        self.assert_active(active);
        let m = active.len();
        let threads = self.threads;
        let ids = active.indices();
        let mut collected: Vec<Vec<M>> = (0..m).map(|_| Vec::with_capacity(k)).collect();
        for _ in 0..k {
            self.metrics.record_round(RoundKind::Pull, m as u64);
            self.round += 1;
            self.advance_churn(self.round);
            let round = self.round;
            let (states, failure) = (&self.states, &self.failure);
            let sampler = &sampler;
            let reliable = failure.is_reliable();
            let prefix = NodeRng::key_prefix(self.seed, round, NodeRng::STREAM_ROUND);
            let ctx = FaultCtx::new(self.seed, round, &self.down_until, &self.fault);
            let ctx = &ctx;
            let delta = par::for_chunks(
                &self.pool,
                &mut collected,
                threads,
                Metrics::default(),
                |start, chunk| {
                    let mut local = Metrics::default();
                    for (j, bucket) in chunk.iter_mut().enumerate() {
                        let v = ids[start + j] as usize;
                        if !ctx.alive(v) {
                            local.record_crash();
                            continue;
                        }
                        local.record_attempt(RoundKind::Pull);
                        let mut rng = prefix.node(v as u64);
                        if !reliable && failure.fails(v, round, &mut rng) {
                            local.record_failure();
                            continue;
                        }
                        let t = sampler.sample(&mut rng, v);
                        if !ctx.alive(t) || ctx.lost(t, v) {
                            local.record_drop();
                            continue;
                        }
                        let msg = serve(t, &states[t]);
                        local.record_delivery(msg.message_bits());
                        bucket.push(msg);
                    }
                    local
                },
                |a, b| a + b,
            );
            self.metrics = self.metrics + delta;
        }
        collected
    }

    /// Extends the sparse round's written set and receiver list with the
    /// receivers of straggled messages due this round (`due_scratch`), so
    /// pass 2 clones and commits them like any other receiver. No-op without
    /// due arrivals.
    fn merge_due_receivers(&mut self, receivers: Vec<NodeId>) -> Vec<NodeId> {
        if self.due_scratch.is_empty() {
            return receivers;
        }
        let mut due_recv: Vec<u32> = Vec::with_capacity(self.due_scratch.len());
        for &(r, _) in &self.due_scratch {
            if due_recv.last() != Some(&r) {
                due_recv.push(r);
            }
        }
        let prev = std::mem::take(&mut self.scratch_written);
        let mut merged = Vec::with_capacity(prev.len() + due_recv.len());
        merge_sorted_into(&prev, &due_recv, &mut merged);
        self.scratch_written = merged;
        let mut out = Vec::with_capacity(receivers.len() + due_recv.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < receivers.len() && j < due_recv.len() {
            let b = due_recv[j] as usize;
            match receivers[i].cmp(&b) {
                std::cmp::Ordering::Less => {
                    out.push(receivers[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(receivers[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&receivers[i..]);
        out.extend(due_recv[j..].iter().map(|&r| r as usize));
        out
    }

    /// Buckets the current sparse round's deliveries: reads the compact
    /// per-active targets, builds the `(receiver, sender)` pair list sorted
    /// receiver-major with ascending senders, assembles the written set
    /// (active ∪ receivers) into `scratch_written`, and returns the sorted
    /// receiver list. `O(messages log messages + |active|)` — never `O(n)`.
    fn bucket_sparse(&mut self, active: &ActiveSet) -> Vec<NodeId> {
        let n = self.n();
        self.scratch_pairs.clear();
        for (j, &id) in active.indices().iter().enumerate() {
            let t = self.scratch_compact[j];
            if (t as usize) < n {
                self.scratch_pairs.push((t, id));
            }
        }
        // Keys are unique (one push per sender), so the unstable sort is
        // deterministic; receiver-major lexicographic order gives each
        // receiver its senders ascending — the dense fold order.
        self.scratch_pairs.sort_unstable();
        // Dedup into the reusable u32 scratch; the only per-round allocation
        // is the receiver list handed back to the caller.
        self.scratch_receivers.clear();
        for &(r, _) in &self.scratch_pairs {
            if self.scratch_receivers.last() != Some(&r) {
                self.scratch_receivers.push(r);
            }
        }
        let mut written = std::mem::take(&mut self.scratch_written);
        merge_sorted_into(active.indices(), &self.scratch_receivers, &mut written);
        self.scratch_written = written;
        self.scratch_receivers.iter().map(|&r| r as usize).collect()
    }

    /// The copy-on-write commit: swaps every written slot between the back
    /// and front buffers, so the front buffer is fully current again after an
    /// `O(|written|)` pass (the sparse counterpart of the dense rounds'
    /// `O(1)` whole-vector swap).
    ///
    /// By default maximal runs of consecutive ids are swapped with one
    /// [`slice::swap_with_slice`] each ([`crate::soa::swap_runs`]) — active
    /// sets and receiver lists are sorted, so dense stretches collapse into
    /// block moves. [`Engine::set_batch_commit`] restores the per-slot loop
    /// (the A/B control; both orders touch each slot exactly once, so the
    /// result is bit-identical).
    fn commit_written(&mut self, written: &[u32]) {
        let threads = self.threads;
        let batch = self.batch_commit;
        par::for_sparse2(
            &self.pool,
            &mut self.states,
            &mut self.next,
            written,
            threads,
            |ids, base, front, back| {
                if batch {
                    crate::soa::swap_runs(ids, base, front, back);
                } else {
                    for &id in ids {
                        let i = id as usize - base;
                        std::mem::swap(&mut front[i], &mut back[i]);
                    }
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn engine_with(n: usize, seed: u64) -> Engine<u64> {
        Engine::from_states((0..n as u64).collect(), EngineConfig::with_seed(seed))
    }

    #[test]
    fn rejects_fewer_than_two_nodes() {
        let err = Engine::<u64>::try_from_states(vec![1], EngineConfig::default()).unwrap_err();
        assert_eq!(err, GossipError::TooFewNodes { requested: 1 });
    }

    #[test]
    fn pull_round_never_contacts_self() {
        let mut e = engine_with(8, 3);
        for _ in 0..200 {
            e.pull_round(
                |t, _| t as u64,
                |v, _, pulled| {
                    if let Some(t) = pulled {
                        assert_ne!(t, v as u64, "node pulled from itself");
                    }
                },
            );
        }
    }

    #[test]
    fn preview_pull_targets_matches_executed_rounds() {
        // The preview and the execution must agree target-for-target, with
        // failure coins included, on the complete graph and on a restricted
        // topology.
        let configs = [
            EngineConfig::with_seed(21),
            EngineConfig::with_seed(22).failure(FailureModel::uniform(0.3).unwrap()),
            EngineConfig::with_seed(23).topology(Topology::ring(4)),
        ];
        for config in configs {
            let mut e = Engine::from_states(vec![0u64; 64], config);
            let mut preview = Vec::new();
            for _ in 0..5 {
                e.preview_pull_targets_at(e.round() + 1, &mut preview);
                // Serving the target's id makes each node's bucket record who
                // it actually contacted this round.
                let got = e.collect_samples(1, |t, _| t as u64);
                for (v, bucket) in got.iter().enumerate() {
                    match preview[v] {
                        Some(t) => assert_eq!(bucket.as_slice(), &[t as u64], "node {v}"),
                        None => assert!(bucket.is_empty(), "node {v} should have failed"),
                    }
                }
            }
        }
    }

    #[test]
    fn preview_pull_targets_is_round_addressable() {
        // Previews are pure functions of (seed, round): asking for round 3
        // before or after executing rounds 1–2 gives the same answer.
        let e = engine_with(32, 77);
        let mut early = Vec::new();
        e.preview_pull_targets_at(3, &mut early);
        let mut e2 = engine_with(32, 77);
        for _ in 0..2 {
            e2.collect_samples(1, |_, &s| s);
        }
        let mut late = Vec::new();
        e2.preview_pull_targets_at(e2.round() + 1, &mut late);
        assert_eq!(e2.round(), 2);
        assert_eq!(early, late);
    }

    #[test]
    fn pull_round_uses_pre_round_snapshot() {
        // All nodes simultaneously become the value they pull; because serving
        // is from the snapshot, the multiset of values after one round is a
        // sub-multiset of the original values (no partially-updated value can
        // be observed).
        let mut e = engine_with(64, 9);
        let before: HashSet<u64> = e.states().iter().copied().collect();
        e.pull_round(|_, &s| s, |_, state, pulled| *state = pulled.unwrap());
        assert!(e.states().iter().all(|v| before.contains(v)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = engine_with(100, seed);
            for _ in 0..2 {
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = (*st).max(p);
                        }
                    },
                );
            }
            e.into_states()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The real cross-primitive matrix lives in tests/determinism.rs; this
        // is the fast unit-level check on the pull path.
        let run = |threads: usize| {
            let mut e = engine_with(500, 42);
            e.set_threads(threads);
            for _ in 0..8 {
                e.pull_round(
                    |_, &s| s,
                    |_, st, p| {
                        if let Some(p) = p {
                            *st = (*st).max(p);
                        }
                    },
                );
            }
            let metrics = e.metrics();
            (e.into_states(), metrics)
        };
        let (states_1t, _) = run(1);
        for threads in [2, 3, 8] {
            let (states, _) = run(threads);
            assert_eq!(
                states, states_1t,
                "thread count {threads} changed the execution"
            );
        }
    }

    #[test]
    fn metrics_count_rounds_messages_and_bits() {
        let mut e = engine_with(10, 1);
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.push_round(|_, &s| Some(s), |_, _, _| {}, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.pulls_attempted, 10);
        assert_eq!(m.pushes_attempted, 10);
        assert_eq!(m.messages_delivered, 20);
        assert_eq!(m.bits_delivered, 20 * 64);
        assert_eq!(m.max_message_bits, 64);
        assert_eq!(m.failed_operations, 0);
    }

    #[test]
    fn push_round_delivers_every_non_failed_message_exactly_once() {
        let mut e = Engine::from_states(vec![0u64; 50], EngineConfig::with_seed(11));
        // Count how many messages each node receives.
        e.push_round(|v, _| Some(v as u64), |_, st, _msg| *st += 1, |_, _, _| {});
        let total: u64 = e.states().iter().sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn push_round_folds_in_ascending_sender_order() {
        // 64 threads over 40 nodes cut one-node owner ranges; 3 and 7 cut
        // ragged ones.
        let mut reference = None;
        for threads in [1, 2, 3, 7, 64] {
            let mut e =
                Engine::from_states(vec![Vec::<u64>::new(); 40], EngineConfig::with_seed(7));
            e.set_threads(threads);
            e.push_round(
                |v, _| Some(v as u64),
                |_, st, msg| st.push(msg),
                |_, _, _| {},
            );
            for received in e.states() {
                let mut sorted = received.clone();
                sorted.sort_unstable();
                assert_eq!(received, &sorted, "{threads} threads");
            }
            let states = e.into_states();
            assert_eq!(reference.get_or_insert_with(|| states.clone()), &states);
        }
    }

    #[test]
    fn owner_ranges_match_the_chunk_boundaries() {
        for n in [2usize, 3, 40, 1000, (1 << 14) + 7, 1 << 20] {
            for threads in [1, 2, 3, 7, 8, 64, 256] {
                let owners = OwnerRanges::new(n, threads);
                let mut data = vec![0usize; n];
                let pool = WorkerPool::new(1);
                par::for_chunks(
                    &pool,
                    &mut data,
                    threads,
                    (),
                    |start, chunk| chunk.fill(start),
                    |(), ()| (),
                );
                assert_eq!(owners.count, n.div_ceil(owners.len));
                for (u, &start) in data.iter().enumerate() {
                    assert_eq!(
                        owners.owner(u as u32),
                        start / owners.len,
                        "n={n} t={threads}"
                    );
                    assert_eq!(start % owners.len, 0);
                }
            }
        }
        // The multiply-high division is exact over the whole u32 range.
        let mut rng = NodeRng::keyed(1, 2, 3, 4);
        for len in [2u64, 3, 7, 1 << 13, 16_391, 333_333, u32::MAX as u64 - 3] {
            let owners = OwnerRanges {
                n: u32::MAX as usize,
                len: len as usize,
                count: 0,
                magic: (u64::MAX / len).wrapping_add(1),
            };
            for u in [
                0,
                1,
                len - 1,
                len,
                len + 1,
                u32::MAX as u64 - 1,
                u32::MAX as u64,
            ] {
                assert_eq!(owners.owner(u as u32) as u64, u / len);
            }
            for _ in 0..10_000 {
                let u = rng.next_u64() as u32;
                assert_eq!(owners.owner(u) as u64, u64::from(u) / len);
            }
        }
    }

    #[test]
    fn push_round_none_means_silent() {
        let mut e = Engine::from_states(vec![0u64; 20], EngineConfig::with_seed(2));
        e.push_round(
            |v, _| if v % 2 == 0 { Some(1u64) } else { None },
            |_, st, m| *st += m,
            |_, _, _| {},
        );
        let total: u64 = e.states().iter().sum();
        assert_eq!(total, 10);
        assert_eq!(e.metrics().pushes_attempted, 10);
    }

    #[test]
    fn never_firing_failure_models_normalize_to_none_at_construction() {
        // The enum variants are public, so a literal `Uniform(0.0)` (which
        // `FailureModel::uniform` would have canonicalised) must still land
        // on the engine's no-failure fast loops.
        let config = EngineConfig::with_seed(1).failure(FailureModel::Uniform(0.0));
        let e = Engine::from_states(vec![0u64; 4], config);
        assert!(e.failure_model().is_reliable());
        let per_node = FailureModel::per_node(vec![0.0; 4]).unwrap();
        let e = Engine::from_states(vec![0u64; 4], EngineConfig::with_seed(1).failure(per_node));
        assert!(e.failure_model().is_reliable());
        // A model that can fire survives normalisation.
        let config = EngineConfig::with_seed(1).failure(FailureModel::uniform(0.5).unwrap());
        let e = Engine::from_states(vec![0u64; 4], config);
        assert!(!e.failure_model().is_reliable());
    }

    #[test]
    fn failures_reduce_deliveries() {
        let config = EngineConfig::with_seed(3).failure(FailureModel::uniform(0.5).unwrap());
        let mut e = Engine::from_states(vec![1u64; 1000], config);
        e.pull_round(|_, &s| s, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.pulls_attempted, 1000);
        assert!(
            m.failed_operations > 350 && m.failed_operations < 650,
            "{}",
            m.failed_operations
        );
        assert_eq!(m.messages_delivered + m.failed_operations, 1000);
    }

    #[test]
    fn total_failure_schedule_blocks_everything() {
        let config = EngineConfig::with_seed(3).failure(FailureModel::schedule(|_, _| 1.0));
        let mut e = Engine::from_states(vec![1u64, 2, 3, 4], config);
        let failed = e.pull_round(
            |_, &s| s,
            |_, st, p| {
                if let Some(p) = p {
                    *st = p;
                }
            },
        );
        assert_eq!(failed, 4);
        assert_eq!(e.states(), &[1, 2, 3, 4]);
    }

    #[test]
    fn push_pull_round_spreads_max_quickly() {
        let mut e = engine_with(1024, 17);
        let mut rounds = 0;
        while e.states().iter().any(|&v| v != 1023) {
            e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            rounds += 1;
            assert!(rounds < 64, "rumor spreading too slow");
        }
        // Push-pull rumor spreading completes in O(log n) rounds; for n=1024,
        // comfortably under 30.
        assert!(rounds <= 30, "took {rounds} rounds");
    }

    #[test]
    fn collect_samples_returns_k_samples_without_failures() {
        let mut e = engine_with(32, 23);
        let samples = e.collect_samples(3, |_, &s| s);
        assert_eq!(samples.len(), 32);
        assert!(samples.iter().all(|s| s.len() == 3));
        assert_eq!(e.metrics().rounds, 3);
        // Node states are untouched by sampling.
        assert_eq!(e.states(), (0..32u64).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn collect_samples_with_failures_returns_fewer() {
        let config = EngineConfig::with_seed(5).failure(FailureModel::uniform(0.4).unwrap());
        let mut e = Engine::from_states((0..500u64).collect(), config);
        let samples = e.collect_samples(4, |_, &s| s);
        let total: usize = samples.iter().map(Vec::len).sum();
        assert!(total < 2000);
        assert!(total > 500);
    }

    #[test]
    fn local_step_touches_every_node_and_costs_no_round() {
        let mut e = engine_with(10, 0);
        e.local_step(|v, s, _rng| *s = v as u64 * 2);
        assert_eq!(e.round(), 0);
        assert_eq!(e.metrics().rounds, 0);
        assert_eq!(e.states()[7], 14);
    }

    #[test]
    fn local_step_rng_is_per_node_and_per_epoch() {
        use rand::Rng;
        // The closure is `Fn + Sync` (it runs on the pool), so each node
        // records its draw in its own state slot rather than in a captured
        // mutable buffer.
        let mut e = engine_with(16, 4);
        e.local_step(|_, st, rng| *st = rng.gen::<u64>());
        let first = e.states().to_vec();
        e.local_step(|_, st, rng| *st = rng.gen::<u64>());
        let second = e.states().to_vec();
        // Distinct across nodes and across epochs…
        let unique: HashSet<u64> = first.iter().chain(second.iter()).copied().collect();
        assert_eq!(unique.len(), 32);
        // …and reproducible: a fresh engine with the same seed replays them.
        let mut e2 = engine_with(16, 4);
        e2.local_step(|_, st, rng| *st = rng.gen::<u64>());
        assert_eq!(e2.states(), first.as_slice());
    }

    #[test]
    fn local_step_is_thread_count_invariant() {
        use rand::Rng;
        let run = |threads: usize| {
            let mut e = engine_with(300, 9);
            e.set_threads(threads);
            for _ in 0..4 {
                e.local_step(|v, st, rng| {
                    *st = st.wrapping_add(rng.gen::<u64>() ^ v as u64);
                });
            }
            e.into_states()
        };
        let baseline = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged");
        }
    }

    #[test]
    fn complete_peer_sampling_is_roughly_uniform() {
        let sampler = Topology::Complete
            .materialize(5, &AdjacencyCache::default())
            .expect("valid");
        let mut rng = NodeRng::keyed(77, 0, 2, NodeRng::STREAM_ROUND);
        let n = 5;
        let mut counts = vec![0u32; n];
        for _ in 0..40_000 {
            let t = sampler.sample(&mut rng, 2);
            counts[t] += 1;
        }
        assert_eq!(counts[2], 0);
        for (i, &c) in counts.iter().enumerate() {
            if i != 2 {
                assert!((c as f64 - 10_000.0).abs() < 500.0, "node {i}: {c}");
            }
        }
    }

    #[test]
    fn ring_topology_pulls_only_from_neighbours() {
        let config = EngineConfig::with_seed(5).topology(Topology::ring(1));
        let mut e = Engine::from_states((0..32u64).collect(), config);
        assert_eq!(e.topology(), &Topology::ring(1));
        for _ in 0..50 {
            e.pull_round(
                |t, _| t as u64,
                |v, _, pulled| {
                    let t = pulled.expect("no failures configured") as i64;
                    let d = (t - v as i64).rem_euclid(32);
                    assert!(d == 1 || d == 31, "node {v} pulled non-neighbour {t}");
                },
            );
        }
    }

    #[test]
    fn invalid_topology_is_rejected_at_construction() {
        let config = EngineConfig::with_seed(1).topology(Topology::ring(40));
        let err = Engine::try_from_states(vec![0u64; 16], config).unwrap_err();
        assert!(matches!(
            err,
            GossipError::InvalidParameter { name: "k", .. }
        ));
    }

    #[test]
    fn sub_config_inherits_the_topology() {
        let config = EngineConfig::with_seed(1).topology(Topology::Torus2D);
        assert_eq!(config.sub(9).topology, Topology::Torus2D);
    }

    // ---- fault-plan behaviour -------------------------------------------

    use crate::fault::{ChurnModel, LossModel, StragglerModel};

    fn faulty_engine(n: usize, seed: u64, fault: FaultPlan) -> Engine<u64> {
        Engine::from_states(
            (0..n as u64).collect(),
            EngineConfig::with_seed(seed).fault(fault),
        )
    }

    #[test]
    fn zero_intensity_fault_plan_normalizes_away_at_construction() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.0).unwrap())
            .with_loss(LossModel::uniform(0.0).unwrap())
            .with_stragglers(StragglerModel::uniform(0.0, 4).unwrap());
        let e = faulty_engine(16, 1, plan);
        assert!(e.fault_plan().is_none());
        // And the golden-pinned fast loops therefore produce identical
        // trajectories: same fingerprint inputs as a plain engine.
        let mut a = faulty_engine(64, 9, FaultPlan::none());
        let mut b = Engine::from_states((0..64u64).collect(), EngineConfig::with_seed(9));
        for _ in 0..4 {
            a.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            b.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn per_node_failure_length_is_validated_against_n() {
        let per_node = FailureModel::per_node(vec![0.1; 8]).unwrap();
        let err =
            Engine::try_from_states(vec![0u64; 16], EngineConfig::with_seed(1).failure(per_node))
                .unwrap_err();
        assert!(matches!(
            err,
            GossipError::InvalidParameter {
                name: "failure",
                ..
            }
        ));
    }

    #[test]
    fn crash_stop_churn_is_permanent_and_monotone() {
        let plan = FaultPlan::none().with_churn(ChurnModel::crash_stop(0.05).unwrap());
        let mut e = faulty_engine(400, 3, plan);
        let mut prev: Vec<NodeId> = Vec::new();
        for _ in 0..12 {
            e.pull_round(|_, &s| s, |_, _, _| {});
            let crashed = e.crashed_nodes();
            // Crash-stop: once down, forever down — the crashed set only grows.
            assert!(prev.iter().all(|v| crashed.contains(v)));
            // Ascending order.
            assert!(crashed.windows(2).all(|w| w[0] < w[1]));
            prev = crashed;
        }
        assert!(!prev.is_empty(), "p=0.05 over 12 rounds on 400 nodes");
        assert!(e.metrics().crashed_operations > 0);
        // Crashed nodes perform no operation at all.
        let m = e.metrics();
        assert!(m.pulls_attempted < 12 * 400);
        assert_eq!(
            m.pulls_attempted + m.crashed_operations,
            12 * 400,
            "every node either attempts or is counted crashed"
        );
    }

    #[test]
    fn churn_with_rejoin_brings_nodes_back_after_k_rounds() {
        let plan = FaultPlan::none().with_churn(ChurnModel::with_rejoin(0.5, 2).unwrap());
        let mut e = faulty_engine(200, 7, plan);
        e.pull_round(|_, &s| s, |_, _, _| {});
        let first = e.crashed_nodes();
        assert!(!first.is_empty(), "p=0.5 on 200 nodes");
        // A node crashed in round r (down_until = r + 2) is down for rounds
        // r and r+1 and eligible again in r+2. Run two more rounds: every
        // node from `first` has either rejoined or re-crashed; none can be
        // down *because of* the round-1 coin any more.
        e.pull_round(|_, &s| s, |_, _, _| {});
        let second = e.crashed_nodes();
        // Still down one round later (down_until = 1 + 2 = 3 > 2).
        assert!(first.iter().all(|v| second.contains(v)));
        e.pull_round(|_, &s| s, |_, _, _| {});
        e.pull_round(|_, &s| s, |_, _, _| {});
        // With p = 0.5 and rejoin, the population never collapses: some
        // nodes must be alive and attempting in every round.
        let m = e.metrics();
        assert!(m.pulls_attempted > 0);
        assert!(m.crashed_operations > 0);
    }

    #[test]
    fn uniform_loss_drops_messages_and_conserves_the_push_ledger() {
        let plan = FaultPlan::none().with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = faulty_engine(1000, 5, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        let m = e.metrics();
        assert_eq!(m.pushes_attempted, 1000);
        assert!(m.messages_dropped > 150 && m.messages_dropped < 450);
        // No churn, no stragglers, no failure model: every attempted push
        // is either delivered or dropped.
        assert_eq!(m.messages_delivered + m.messages_dropped, 1000);
        assert_eq!(e.delayed_in_flight(), 0);
    }

    #[test]
    fn loss_is_deterministic_per_contact() {
        let plan = || FaultPlan::none().with_loss(LossModel::uniform(0.4).unwrap());
        let mut a = faulty_engine(300, 21, plan());
        let mut b = faulty_engine(300, 21, plan());
        b.set_threads(4);
        for _ in 0..5 {
            a.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            b.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
        }
        assert_eq!(a.states(), b.states());
        assert_eq!(a.metrics().messages_dropped, b.metrics().messages_dropped);
    }

    #[test]
    fn stragglers_buffer_across_rounds_and_drain_on_push_capable_rounds() {
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.5, 3).unwrap());
        let mut e = faulty_engine(500, 13, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        let in_flight = e.delayed_in_flight();
        assert!(in_flight > 100, "p=0.5 on 500 pushes, got {in_flight}");
        assert_eq!(e.metrics().messages_delayed as usize, in_flight);
        // Pull rounds are not push-capable: nothing drains there.
        e.pull_round(|_, &s| s, |_, _, _| {});
        assert!(e.delayed_in_flight() >= in_flight.saturating_sub(0));
        let before_drain = e.delayed_in_flight();
        // Every pending contact has delay <= 3; three push rounds later the
        // original batch has fully drained (new stragglers may be pending).
        let delivered_before = e.metrics().messages_delivered;
        for _ in 0..3 {
            e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        }
        assert!(e.metrics().messages_delivered > delivered_before);
        assert!(before_drain > 0);
    }

    #[test]
    fn straggled_contacts_sent_during_final_rounds_stay_in_flight() {
        let plan = FaultPlan::none().with_stragglers(StragglerModel::uniform(0.99, 5).unwrap());
        let mut e = faulty_engine(50, 2, plan);
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        // Nearly everything straggles; with no loss or churn the ledger is
        // exact: attempted = delivered in-round + delayed in-flight.
        let m = e.metrics();
        assert_eq!(m.messages_delivered + m.messages_delayed, 50);
        assert_eq!(e.delayed_in_flight() as u64, m.messages_delayed);
        assert!(m.messages_delayed >= 40, "{}", m.messages_delayed);
    }

    #[test]
    fn combined_plan_matches_itself_across_thread_counts() {
        let plan = || {
            FaultPlan::none()
                .with_churn(ChurnModel::with_rejoin(0.1, 2).unwrap())
                .with_loss(LossModel::uniform(0.2).unwrap())
                .with_stragglers(StragglerModel::uniform(0.2, 2).unwrap())
                .with_failure(FailureModel::uniform(0.1).unwrap())
        };
        let mut fingerprints = Vec::new();
        for threads in [1usize, 3, 8] {
            let mut e = faulty_engine(600, 31, plan());
            e.set_threads(threads);
            for _ in 0..6 {
                e.push_pull_round(|_, &s| s, |_, st, m| *st = (*st).max(m));
            }
            let m = e.metrics();
            fingerprints.push((
                e.states().to_vec(),
                e.crashed_nodes(),
                e.delayed_in_flight(),
                m.messages_dropped,
                m.messages_delayed,
                m.crashed_operations,
                m.failed_operations,
            ));
        }
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[0], fingerprints[2]);
    }

    #[test]
    fn clone_preserves_churn_and_straggler_state_but_sub_resets() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::crash_stop(0.2).unwrap())
            .with_stragglers(StragglerModel::uniform(0.5, 4).unwrap());
        let config = EngineConfig::with_seed(19).fault(plan);
        let mut e = Engine::from_states((0..300u64).collect(), config.clone());
        for _ in 0..3 {
            e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        }
        assert!(!e.crashed_nodes().is_empty());
        let clone = e.clone();
        assert_eq!(clone.crashed_nodes(), e.crashed_nodes());
        assert_eq!(clone.delayed_in_flight(), e.delayed_in_flight());
        // A sub-engine built from the config starts with everyone alive.
        let sub = Engine::from_states(vec![0u64; 10], config.sub(77));
        assert!(sub.crashed_nodes().is_empty());
        assert_eq!(sub.delayed_in_flight(), 0);
        // The clone continues deterministically in lockstep with the original.
        let mut clone = clone;
        e.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        clone.push_round(|v, _| Some(v as u64), |_, st, _| *st += 1, |_, _, _| {});
        assert_eq!(e.states(), clone.states());
        assert_eq!(e.crashed_nodes(), clone.crashed_nodes());
    }

    #[test]
    fn collect_samples_under_faults_still_reports_inner_rounds() {
        let plan = FaultPlan::none()
            .with_churn(ChurnModel::with_rejoin(0.2, 1).unwrap())
            .with_loss(LossModel::uniform(0.3).unwrap());
        let mut e = faulty_engine(400, 23, plan);
        let samples = e.collect_samples(3, |_, &s| s);
        assert_eq!(samples.len(), 400);
        assert_eq!(e.metrics().rounds, 3);
        // Faults thin the samples but cannot invent them.
        let total: usize = samples.iter().map(Vec::len).sum();
        assert!(total < 3 * 400);
        assert!(total > 0);
        assert!(samples.iter().all(|s| s.len() <= 3));
    }
}
