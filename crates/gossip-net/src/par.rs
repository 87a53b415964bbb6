//! Deterministic data-parallel chunk maps, executed on a persistent
//! [`WorkerPool`].
//!
//! A gossip round is an embarrassingly parallel map over nodes (each node's
//! randomness comes from its own [`NodeRng`](crate::rng::NodeRng) stream and
//! each node only mutates its own slot), so the engine only needs one
//! primitive: split the per-node buffers into `threads` equal contiguous
//! chunks, run a closure on each chunk, and fold the per-chunk accumulators
//! **in chunk order** — so reductions are deterministic regardless of which
//! thread finished first.
//!
//! ## Why a pool, not scoped threads
//!
//! The first cut of this module spawned scoped threads per chunk map. That is
//! correct but pays `threads` OS-thread creations per map — two maps per
//! round — which dominates the round below ~16k nodes and pushed the
//! parallel break-even point far to the right. The helpers now dispatch onto
//! the long-lived workers of a [`WorkerPool`] (owned by the engine,
//! constructed once, shareable between engines): per map, the hand-off is one
//! mutex/condvar wake plus an atomic task cursor. Inside a
//! [`WorkerPool::run_program`] resident session (an [`Engine::fused`] block
//! or a replayed [`RoundProgram`]), even that is skipped: the pool
//! recognises the session owner's thread and turns each map into a *phase*
//! of the already-woken workers — an atomic phase bump on a spin-then-park
//! barrier instead of a full wake/quiesce hand-off. The helpers themselves
//! are oblivious to the difference; task semantics are identical either way.
//! See [`crate::pool`] for the pool's epoch/barrier protocol, the resident
//! phase barrier, and its lifecycle.
//!
//! [`Engine::fused`]: crate::Engine::fused
//! [`RoundProgram`]: crate::RoundProgram
//! [`WorkerPool::run_program`]: crate::WorkerPool::run_program
//!
//! ## Determinism argument
//!
//! Chunk boundaries depend only on `data.len()` and the requested `threads`
//! value — never on the pool's size or on scheduling. Chunk `i` is task `i`:
//! whichever executor claims task `i` computes `map(i * chunk_len, chunk_i)`
//! and stores the result in slot `i`; after the pool's quiescence barrier the
//! *caller* folds the slots in ascending `i`. The engine's stronger contract
//! — results identical across *different* `threads` values — additionally
//! relies on per-node keyed randomness, and is pinned by
//! `tests/determinism.rs`.
//!
//! With `threads == 1` every helper runs inline on the caller's thread — no
//! hand-off, no synchronisation — which is also the engine's policy for
//! small `n`.
//!
//! ## Memory layout inside a chunk
//!
//! The helpers hand each closure one *contiguous* chunk precisely so the
//! engine can impose its own interior structure on it: the dense rounds
//! cache-block their back-buffer refresh and batch their target gathers
//! within the chunk ([`crate::soa`]), and the sparse commit batches
//! consecutive-id runs into block swaps. Contiguity is the contract that
//! makes those interior loops legal — a chunk map that interleaved slots
//! across threads would forfeit every blocked optimisation downstream.

use crate::pool::WorkerPool;
use std::sync::Mutex;

/// Number of worker threads to use, from the environment or the machine.
///
/// Priority: `GOSSIP_NUM_THREADS`, then `RAYON_NUM_THREADS` (so existing
/// rayon-style deployment configs keep working), then
/// `std::thread::available_parallelism()`. Values are clamped to `[1, 256]`.
pub fn num_threads() -> usize {
    for var in ["GOSSIP_NUM_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(value) = std::env::var(var) {
            if let Ok(parsed) = value.trim().parse::<usize>() {
                return parsed.clamp(1, 256);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, 256)
}

/// Length of the chunks the dense helpers ([`for_chunks`], [`for_chunks2`],
/// [`for_rows`], [`for_rows2`]) cut `len` rows into at `threads`; chunk `i`
/// starts at row `i * chunk_len` and only the last may be shorter. Callers
/// that must know a map's chunk boundaries in advance use this instead of
/// re-deriving them.
pub(crate) fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.clamp(1, len.max(1)))
}

/// Runs `map` over `threads` contiguous chunks of `data` on `pool` and folds
/// the per-chunk results in chunk order.
///
/// `map` receives the chunk's starting index into `data` and the chunk
/// itself; the global index of element `j` of the chunk is `start + j`.
/// Results depend on `threads` only through the chunk boundaries, and on
/// `pool` not at all (see the module docs); `threads == 1` (or a too-short
/// `data`) runs inline without touching the pool.
pub fn for_chunks<T, A, F, R>(
    pool: &WorkerPool,
    data: &mut [T],
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    // Direct single-buffer dispatch: every engine round runs through here,
    // so it does not detour through `for_chunks2` with a unit companion (the
    // companion's chunk table and closure indirection are pure overhead on
    // the hot path). Rows of width 1 are exactly the elements.
    for_rows(pool, data, 1, threads, identity, map, reduce)
}

/// Like [`for_chunks`], but over two equal-length buffers split at the same
/// boundaries, so `a[start + j]` and `b[start + j]` always land in the same
/// closure invocation. Both helpers implement the same dispatch protocol
/// (once-takeable chunk cells, per-task accumulator slots, chunk-order fold);
/// [`for_chunks`] keeps a direct single-buffer copy because it is the round
/// hot path.
pub fn for_chunks2<T, U, A, F, R>(
    pool: &WorkerPool,
    a: &mut [T],
    b: &mut [U],
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    U: Send,
    A: Send,
    F: Fn(usize, &mut [T], &mut [U]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    let n = a.len();
    assert_eq!(n, b.len(), "for_chunks2 requires equal-length buffers");
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return reduce(identity, map(0, a, b));
    }
    let chunk = chunk_len(n, threads);
    // Hand each chunk pair to its task through a once-takeable cell, and
    // collect each task's accumulator in its own slot — O(threads)
    // bookkeeping, the only per-map allocation.
    #[allow(clippy::type_complexity)]
    let chunks: Vec<Mutex<Option<(&mut [T], &mut [U])>>> = a
        .chunks_mut(chunk)
        .zip(b.chunks_mut(chunk))
        .map(|pair| Mutex::new(Some(pair)))
        .collect();
    let slots: Vec<Mutex<Option<A>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    pool.run(chunks.len(), &|i| {
        let (ca, cb) = take(&chunks[i]).expect("pool ran a chunk task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(i * chunk, ca, cb));
    });
    let mut acc = identity;
    for slot in slots {
        let a = take_inner(slot).expect("pool skipped a chunk task");
        acc = reduce(acc, a);
    }
    acc
}

/// Runs `map` over `threads` contiguous chunks of a **sorted, duplicate-free**
/// index list, handing each task mutable access to exactly the slice of
/// `data` its indices fall in.
///
/// This is the sparse counterpart of [`for_chunks`]: the engine's `*_on`
/// round primitives dispatch over the active indices only, so per-round cost
/// is proportional to the number of participants, not to `data.len()`.
/// Safety falls out of the index order: chunk `j` of the index list covers
/// the slot range `[ids[j·chunk], ids[(j+1)·chunk])`, and because the indices
/// are strictly increasing these ranges are disjoint — `data` is carved into
/// per-task sub-slices with `split_at_mut`, no interior mutability needed.
///
/// `map` receives `(ids, base, sub)` where `sub` is the task's sub-slice of
/// `data` starting at global index `base`: the slot of index `i ∈ ids` is
/// `sub[i - base]`. Results are folded in chunk order, exactly like
/// [`for_chunks`]; chunk boundaries depend only on `ids.len()` and `threads`.
///
/// # Panics
///
/// Debug-asserts that `ids` is strictly increasing and in bounds; release
/// builds index out of bounds (a panic) on a malformed list rather than
/// corrupting memory.
pub fn for_sparse<T, A, F, R>(
    pool: &WorkerPool,
    data: &mut [T],
    ids: &[u32],
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(&[u32], usize, &mut [T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "sparse index list must be strictly increasing"
    );
    debug_assert!(ids
        .last()
        .map_or(true, |&last| (last as usize) < data.len()));
    let m = ids.len();
    if m == 0 {
        return identity;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        return reduce(identity, map(ids, 0, data));
    }
    let chunk = m.div_ceil(threads);
    // Carve `data` at each chunk's first index; chunk j's last index is
    // strictly below chunk j+1's first, so every id lands in its own task's
    // sub-slice.
    #[allow(clippy::type_complexity)]
    let mut tasks: Vec<Mutex<Option<(&[u32], usize, &mut [T])>>> = Vec::new();
    let mut rest = data;
    let mut carved_to = 0usize;
    for (j, id_chunk) in ids.chunks(chunk).enumerate() {
        let base = id_chunk[0] as usize;
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(base - carved_to);
        let end = ids
            .get((j + 1) * chunk)
            .map_or(tail.len(), |&next| next as usize - base);
        let (sub, tail) = tail.split_at_mut(end);
        rest = tail;
        carved_to = base + end;
        tasks.push(Mutex::new(Some((id_chunk, base, sub))));
    }
    let slots: Vec<Mutex<Option<A>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    pool.run(tasks.len(), &|i| {
        let (ids, base, sub) = take(&tasks[i]).expect("pool ran a sparse task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(ids, base, sub));
    });
    let mut acc = identity;
    for slot in slots {
        let a = take_inner(slot).expect("pool skipped a sparse task");
        acc = reduce(acc, a);
    }
    acc
}

/// Like [`for_sparse`], but over two equal-length buffers carved at the same
/// index boundaries, so `a[i]` and `b[i]` always land in the same task (the
/// engine's copy-on-write swap-back pass exchanges front/back slots of the
/// written set through this).
pub fn for_sparse2<T, U, F>(
    pool: &WorkerPool,
    a: &mut [T],
    b: &mut [U],
    ids: &[u32],
    threads: usize,
    map: F,
) where
    T: Send,
    U: Send,
    F: Fn(&[u32], usize, &mut [T], &mut [U]) + Sync,
{
    debug_assert_eq!(
        a.len(),
        b.len(),
        "for_sparse2 requires equal-length buffers"
    );
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    let m = ids.len();
    if m == 0 {
        return;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        map(ids, 0, a, b);
        return;
    }
    let chunk = m.div_ceil(threads);
    #[allow(clippy::type_complexity)]
    let mut tasks: Vec<Mutex<Option<(&[u32], usize, &mut [T], &mut [U])>>> = Vec::new();
    let (mut rest_a, mut rest_b) = (a, b);
    let mut carved_to = 0usize;
    for (j, id_chunk) in ids.chunks(chunk).enumerate() {
        let base = id_chunk[0] as usize;
        let (_, tail_a) = std::mem::take(&mut rest_a).split_at_mut(base - carved_to);
        let (_, tail_b) = std::mem::take(&mut rest_b).split_at_mut(base - carved_to);
        let end = ids
            .get((j + 1) * chunk)
            .map_or(tail_a.len(), |&next| next as usize - base);
        let (sub_a, tail_a) = tail_a.split_at_mut(end);
        let (sub_b, tail_b) = tail_b.split_at_mut(end);
        rest_a = tail_a;
        rest_b = tail_b;
        carved_to = base + end;
        tasks.push(Mutex::new(Some((id_chunk, base, sub_a, sub_b))));
    }
    pool.run(tasks.len(), &|i| {
        let (ids, base, sub_a, sub_b) = take(&tasks[i]).expect("pool ran a sparse task twice");
        map(ids, base, sub_a, sub_b);
    });
}

/// Like [`for_chunks2`], but over two buffers of *rows*: `a` holds `wa`
/// elements per row and `b` holds `wb`, and both are split at the same row
/// boundaries, so row `v` of `a` and row `v` of `b` always land in the same
/// closure invocation.
///
/// This is the lane-major counterpart of [`for_chunks2`]: the engine's
/// lane-matrix collector fills an `n × lanes` value buffer and its
/// width-1 source column in lock-step through this. `map` receives the
/// chunk's starting *row* index and the two row-aligned sub-slices; row
/// `start + j` of `a` is `chunk_a[j * wa .. (j + 1) * wa]`. Chunk boundaries
/// depend only on the row count and `threads`, exactly like [`for_chunks`].
///
/// # Panics
///
/// Panics if either width is zero or a buffer's length is not `rows × width`
/// for a common row count.
#[allow(clippy::too_many_arguments)]
pub fn for_rows2<T, U, A, F, R>(
    pool: &WorkerPool,
    a: &mut [T],
    wa: usize,
    b: &mut [U],
    wb: usize,
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    U: Send,
    A: Send,
    F: Fn(usize, &mut [T], &mut [U]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    assert!(wa > 0 && wb > 0, "for_rows2 requires positive row widths");
    let n = a.len() / wa;
    assert_eq!(a.len(), n * wa, "for_rows2: a is not whole rows");
    assert_eq!(b.len(), n * wb, "for_rows2: row counts differ");
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return reduce(identity, map(0, a, b));
    }
    let chunk = chunk_len(n, threads);
    #[allow(clippy::type_complexity)]
    let chunks: Vec<Mutex<Option<(&mut [T], &mut [U])>>> = a
        .chunks_mut(chunk * wa)
        .zip(b.chunks_mut(chunk * wb))
        .map(|pair| Mutex::new(Some(pair)))
        .collect();
    let slots: Vec<Mutex<Option<A>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    pool.run(chunks.len(), &|i| {
        let (ca, cb) = take(&chunks[i]).expect("pool ran a chunk task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(i * chunk, ca, cb));
    });
    let mut acc = identity;
    for slot in slots {
        let a = take_inner(slot).expect("pool skipped a chunk task");
        acc = reduce(acc, a);
    }
    acc
}

/// Like [`for_chunks`], but over a buffer of *rows* of `width` elements,
/// split at row boundaries so every row lands whole in one closure
/// invocation ([`for_chunks`] is the `width == 1` case). `map` receives the chunk's starting *row* index and the
/// row-aligned sub-slice; row `start + j` is `chunk[j * width .. (j + 1) *
/// width]`. Chunk boundaries depend only on the row count and `threads`.
///
/// # Panics
///
/// Panics if `width` is zero or `data` is not whole rows.
pub fn for_rows<T, A, F, R>(
    pool: &WorkerPool,
    data: &mut [T],
    width: usize,
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    assert!(width > 0, "for_rows requires a positive row width");
    let n = data.len() / width;
    assert_eq!(data.len(), n * width, "for_rows: data is not whole rows");
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return reduce(identity, map(0, data));
    }
    let chunk = chunk_len(n, threads);
    let chunks: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk * width)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let slots: Vec<Mutex<Option<A>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    pool.run(chunks.len(), &|i| {
        let c = take(&chunks[i]).expect("pool ran a chunk task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(i * chunk, c));
    });
    let mut acc = identity;
    for slot in slots {
        let a = take_inner(slot).expect("pool skipped a chunk task");
        acc = reduce(acc, a);
    }
    acc
}

/// Like [`for_sparse2`], but over two buffers of rows (`wa` and `wb` elements
/// per row), carved at the same **row** boundaries: each task gets mutable
/// access to exactly the rows its indices fall in, in both buffers.
///
/// `map` receives `(ids, base, sub_a, sub_b)` where the row of index
/// `i ∈ ids` starts at `sub_a[(i - base) * wa]` (resp. `sub_b` with `wb`).
/// The index list must be sorted and duplicate-free, exactly as for
/// [`for_sparse`]; per-chunk results are folded in chunk order.
#[allow(clippy::too_many_arguments)]
pub fn for_sparse_rows2<T, U, A, F, R>(
    pool: &WorkerPool,
    a: &mut [T],
    wa: usize,
    b: &mut [U],
    wb: usize,
    ids: &[u32],
    threads: usize,
    identity: A,
    map: F,
    reduce: R,
) -> A
where
    T: Send,
    U: Send,
    A: Send,
    F: Fn(&[u32], usize, &mut [T], &mut [U]) -> A + Sync,
    R: Fn(A, A) -> A,
{
    assert!(
        wa > 0 && wb > 0,
        "for_sparse_rows2 requires positive row widths"
    );
    debug_assert_eq!(a.len() / wa, b.len() / wb, "row counts differ");
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(ids
        .last()
        .map_or(true, |&last| ((last as usize) + 1) * wa <= a.len()));
    let m = ids.len();
    if m == 0 {
        return identity;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        return reduce(identity, map(ids, 0, a, b));
    }
    let chunk = m.div_ceil(threads);
    // Carve both buffers at each chunk's first row; chunk j's last index is
    // strictly below chunk j+1's first, so every row lands in its own task's
    // sub-slices.
    #[allow(clippy::type_complexity)]
    let mut tasks: Vec<Mutex<Option<(&[u32], usize, &mut [T], &mut [U])>>> = Vec::new();
    let (mut rest_a, mut rest_b) = (a, b);
    let mut carved_to = 0usize;
    for (j, id_chunk) in ids.chunks(chunk).enumerate() {
        let base = id_chunk[0] as usize;
        let skip = base - carved_to;
        let (_, tail_a) = std::mem::take(&mut rest_a).split_at_mut(skip * wa);
        let (_, tail_b) = std::mem::take(&mut rest_b).split_at_mut(skip * wb);
        let end = ids
            .get((j + 1) * chunk)
            .map_or(tail_a.len() / wa, |&next| next as usize - base);
        let (sub_a, tail_a) = tail_a.split_at_mut(end * wa);
        let (sub_b, tail_b) = tail_b.split_at_mut(end * wb);
        rest_a = tail_a;
        rest_b = tail_b;
        carved_to = base + end;
        tasks.push(Mutex::new(Some((id_chunk, base, sub_a, sub_b))));
    }
    let slots: Vec<Mutex<Option<A>>> = (0..tasks.len()).map(|_| Mutex::new(None)).collect();
    pool.run(tasks.len(), &|i| {
        let (ids, base, sub_a, sub_b) = take(&tasks[i]).expect("pool ran a sparse task twice");
        *slots[i].lock().expect("slot mutex poisoned") = Some(map(ids, base, sub_a, sub_b));
    });
    let mut acc = identity;
    for slot in slots {
        let a = take_inner(slot).expect("pool skipped a sparse task");
        acc = reduce(acc, a);
    }
    acc
}

/// Takes the value out of a shared once-cell.
fn take<T>(cell: &Mutex<Option<T>>) -> Option<T> {
    cell.lock().expect("chunk mutex poisoned").take()
}

/// Unwraps a slot after the pool's barrier (no contention remains).
fn take_inner<T>(cell: Mutex<Option<T>>) -> Option<T> {
    cell.into_inner().expect("slot mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn for_chunks_visits_every_element_once_with_correct_indices() {
        let pool = WorkerPool::new(4);
        for threads in [1, 2, 3, 8, 64] {
            let mut data: Vec<u64> = vec![0; 100];
            let count = for_chunks(
                &pool,
                &mut data,
                threads,
                0usize,
                |start, chunk| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (start + j) as u64;
                    }
                    chunk.len()
                },
                |a, b| a + b,
            );
            assert_eq!(count, 100);
            assert_eq!(data, (0..100).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn for_chunks_reduces_in_chunk_order() {
        let pool = WorkerPool::new(3);
        let mut data: Vec<u64> = vec![0; 10];
        let order = for_chunks(
            &pool,
            &mut data,
            5,
            Vec::new(),
            |start, _| vec![start],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn for_chunks2_keeps_buffers_aligned() {
        let pool = WorkerPool::new(4);
        for threads in [1, 3, 7] {
            let mut a: Vec<usize> = vec![0; 50];
            let mut b: Vec<usize> = vec![0; 50];
            for_chunks2(
                &pool,
                &mut a,
                &mut b,
                threads,
                (),
                |start, ca, cb| {
                    assert_eq!(ca.len(), cb.len());
                    for j in 0..ca.len() {
                        ca[j] = start + j;
                        cb[j] = 2 * (start + j);
                    }
                },
                |(), ()| (),
            );
            for i in 0..50 {
                assert_eq!(a[i], i);
                assert_eq!(b[i], 2 * i);
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let pool = WorkerPool::new(8);
        let mut empty: Vec<u8> = Vec::new();
        let acc = for_chunks(&pool, &mut empty, 8, 7u32, |_, _| unreachable!(), |a, _b| a);
        assert_eq!(acc, 7);
        let mut one = vec![1u8];
        let acc = for_chunks(
            &pool,
            &mut one,
            8,
            0u32,
            |_, c| c.len() as u32,
            |a, b| a + b,
        );
        assert_eq!(acc, 1);
    }

    #[test]
    fn for_sparse_touches_exactly_the_listed_indices() {
        let pool = WorkerPool::new(4);
        let ids: Vec<u32> = vec![0, 3, 4, 9, 17, 18, 40, 99];
        for threads in [1, 2, 3, 8, 64] {
            let mut data: Vec<u64> = vec![0; 100];
            let count = for_sparse(
                &pool,
                &mut data,
                &ids,
                threads,
                0usize,
                |ids, base, sub| {
                    for &i in ids {
                        sub[i as usize - base] = i as u64 + 1;
                    }
                    ids.len()
                },
                |a, b| a + b,
            );
            assert_eq!(count, ids.len());
            for (i, &v) in data.iter().enumerate() {
                let expected = if ids.contains(&(i as u32)) {
                    i as u64 + 1
                } else {
                    0
                };
                assert_eq!(v, expected, "slot {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn for_sparse_reduces_in_chunk_order_and_handles_edges() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u8; 10];
        // Empty index list: identity untouched.
        let acc = for_sparse(
            &pool,
            &mut data,
            &[],
            4,
            7u32,
            |_, _, _| unreachable!(),
            |a, _b| a,
        );
        assert_eq!(acc, 7);
        // Chunk-order fold over a dense-ish list.
        let ids: Vec<u32> = (0..10).collect();
        let order = for_sparse(
            &pool,
            &mut data,
            &ids,
            5,
            Vec::new(),
            |ids, base, _| vec![(ids[0], base)],
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, vec![(0, 0), (2, 2), (4, 4), (6, 6), (8, 8)]);
    }

    #[test]
    fn for_sparse2_swaps_aligned_slots() {
        let pool = WorkerPool::new(4);
        let ids: Vec<u32> = vec![1, 5, 6, 30, 49];
        for threads in [1, 2, 7] {
            let mut a: Vec<u64> = (0..50).collect();
            let mut b: Vec<u64> = (0..50).map(|i| 100 + i).collect();
            for_sparse2(&pool, &mut a, &mut b, &ids, threads, |ids, base, sa, sb| {
                for &i in ids {
                    std::mem::swap(&mut sa[i as usize - base], &mut sb[i as usize - base]);
                }
            });
            for i in 0..50u64 {
                let swapped = ids.contains(&(i as u32));
                assert_eq!(a[i as usize], if swapped { 100 + i } else { i });
                assert_eq!(b[i as usize], if swapped { i } else { 100 + i });
            }
        }
    }

    #[test]
    fn for_rows2_splits_both_buffers_at_the_same_rows() {
        let pool = WorkerPool::new(4);
        let (n, wa, wb) = (23usize, 5usize, 1usize);
        for threads in [1, 2, 3, 8, 64] {
            let mut a: Vec<usize> = vec![0; n * wa];
            let mut b: Vec<usize> = vec![0; n * wb];
            let rows = for_rows2(
                &pool,
                &mut a,
                wa,
                &mut b,
                wb,
                threads,
                0usize,
                |start, ca, cb| {
                    assert_eq!(ca.len() / wa, cb.len() / wb);
                    assert_eq!(ca.len() % wa, 0);
                    let rows = ca.len() / wa;
                    for j in 0..rows {
                        for l in 0..wa {
                            ca[j * wa + l] = (start + j) * wa + l;
                        }
                        cb[j * wb] = start + j;
                    }
                    rows
                },
                |x, y| x + y,
            );
            assert_eq!(rows, n);
            assert_eq!(a, (0..n * wa).collect::<Vec<usize>>());
            assert_eq!(b, (0..n).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn for_rows_keeps_every_row_whole() {
        let pool = WorkerPool::new(4);
        let (n, w) = (23usize, 5usize);
        for threads in [1, 2, 3, 8, 64] {
            let mut a: Vec<usize> = vec![0; n * w];
            let rows = for_rows(
                &pool,
                &mut a,
                w,
                threads,
                0usize,
                |start, chunk| {
                    assert_eq!(chunk.len() % w, 0);
                    for (j, row) in chunk.chunks_exact_mut(w).enumerate() {
                        for (l, x) in row.iter_mut().enumerate() {
                            *x = (start + j) * w + l;
                        }
                    }
                    chunk.len() / w
                },
                |x, y| x + y,
            );
            assert_eq!(rows, n);
            assert_eq!(a, (0..n * w).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn for_sparse_rows2_touches_exactly_the_listed_rows() {
        let pool = WorkerPool::new(4);
        let (n, wa, wb) = (50usize, 3usize, 2usize);
        let ids: Vec<u32> = vec![0, 4, 5, 11, 30, 31, 49];
        for threads in [1, 2, 3, 8, 64] {
            let mut a: Vec<u64> = vec![0; n * wa];
            let mut b: Vec<u64> = vec![0; n * wb];
            let order = for_sparse_rows2(
                &pool,
                &mut a,
                wa,
                &mut b,
                wb,
                &ids,
                threads,
                Vec::new(),
                |ids, base, sub_a, sub_b| {
                    let mut seen = Vec::new();
                    for &i in ids {
                        let rel = i as usize - base;
                        for l in 0..wa {
                            sub_a[rel * wa + l] = u64::from(i) * 10 + l as u64;
                        }
                        for l in 0..wb {
                            sub_b[rel * wb + l] = u64::from(i) * 100 + l as u64;
                        }
                        seen.push(i);
                    }
                    seen
                },
                |mut x, y| {
                    x.extend(y);
                    x
                },
            );
            assert_eq!(order, ids, "fold order at {threads} threads");
            for v in 0..n as u32 {
                let hit = ids.contains(&v);
                for l in 0..wa {
                    let expected = if hit { u64::from(v) * 10 + l as u64 } else { 0 };
                    assert_eq!(a[v as usize * wa + l], expected);
                }
                for l in 0..wb {
                    let expected = if hit {
                        u64::from(v) * 100 + l as u64
                    } else {
                        0
                    };
                    assert_eq!(b[v as usize * wb + l], expected);
                }
            }
        }
    }

    #[test]
    fn results_do_not_depend_on_pool_size() {
        let reference: Vec<u64> = (0..97).map(|i| i * 3 + 1).collect();
        for pool_threads in [1, 2, 4, 16] {
            let pool = WorkerPool::new(pool_threads);
            let mut data: Vec<u64> = vec![0; 97];
            let sum = for_chunks(
                &pool,
                &mut data,
                6,
                0u64,
                |start, chunk| {
                    let mut s = 0;
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (start + j) as u64 * 3 + 1;
                        s += *slot;
                    }
                    s
                },
                |a, b| a + b,
            );
            assert_eq!(data, reference, "pool size {pool_threads}");
            assert_eq!(sum, reference.iter().sum::<u64>());
        }
    }
}
