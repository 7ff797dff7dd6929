//! Deterministic data parallelism on `std::thread::scope`.
//!
//! Every hot loop in this workspace fans out through [`par_map`] /
//! [`par_chunks`]; grids whose cells read their left, above and
//! above-right neighbours, like macroblock mode decision, go through
//! [`par_wavefront`]; and two sequential stages that can overlap, like the
//! decoder's parse and reconstruction, go through [`par_pipeline`]. All
//! are order-preserving, panic-propagating, and — because the
//! units they run are seeded with sub-seeds derived *up front* — the
//! results are a pure function of the inputs, byte-identical at any
//! worker count. Parallelism here changes wall-clock only, never output;
//! the tier-1 determinism tests lock that invariant in.
//!
//! # Worker count
//!
//! Resolution order (first match wins):
//!
//! 1. a [`with_threads`] scope on the calling thread (tests, scaling
//!    benches);
//! 2. a process-wide [`set_threads`] override (the `vapp --threads`
//!    flag);
//! 3. the `VAPP_THREADS` environment variable (read once; invalid or
//!    `0` means "auto");
//! 4. [`std::thread::available_parallelism`].
//!
//! A resolved count of `1` disables spawning entirely — the closure runs
//! inline on the caller, so single-threaded runs have zero threading
//! overhead and identical stack traces.
//!
//! # Observability inheritance
//!
//! Workers install the parent thread's current scoped registry
//! ([`vapp_obs::registry::with_registry`]) before running any unit, so
//! counters and spans recorded inside a parallel region land in the same
//! registry the caller sees — `vapp-check` cases and test-local
//! registries keep working. Workers also install the caller's open-span
//! path as a prefix ([`vapp_obs::span::with_path_prefix`]), so spans
//! opened inside a unit fold into the spawning span's subtree and the
//! call-path profile is identical at any thread count. Counter totals
//! are thread-count-invariant (atomics commute); only span timeline
//! *order* may vary.
//!
//! When a region actually fans out, each worker additionally records
//! utilization counters — `par.worker.<w>.tasks` (units claimed),
//! `par.worker.<w>.busy_ns` (time inside units) and
//! `par.worker.<w>.idle_ns` (region wall minus busy) — consumed by
//! `obs_report` and `scaling_check --obs`. These are wall-clock-derived
//! and scheduling-dependent, so snapshot diffing treats the `par.`
//! namespace as unstable; none are recorded on the inline (1-worker)
//! path.
//!
//! # Nesting
//!
//! A parallel region opened from inside a worker runs inline: the outer
//! fan-out already owns the cores, and nested spawning would oversubscribe
//! without changing any result (by the determinism invariant above).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static SCOPED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside workers so nested parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide override (0 = unset). Set by the `vapp --threads` flag.
static PROCESS_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `VAPP_THREADS`, parsed once. `None` when unset, empty, invalid or `0`.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("VAPP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Hardware parallelism, defaulting to 1 when unknown. Cached on first
/// use: `available_parallelism` re-reads affinity masks and cgroup
/// quotas on every call (microseconds of syscalls and /sys reads), which
/// used to tax every parallel region entered with no explicit override.
pub fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Sets (or with `None` clears) the process-wide worker-count override.
pub fn set_threads(n: Option<usize>) {
    PROCESS_THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with the worker count pinned to `n` on this thread (and any
/// parallel region it opens). Scopes nest; the innermost wins.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREADS.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// The worker count a parallel region opened here would use.
pub fn effective_threads() -> usize {
    if let Some(n) = SCOPED_THREADS.with(Cell::get) {
        return n.max(1);
    }
    let p = PROCESS_THREADS.load(Ordering::Relaxed);
    if p > 0 {
        return p;
    }
    env_threads().unwrap_or_else(available)
}

/// Maps `f` over `items` on up to [`effective_threads`] workers,
/// returning results in input order. `f` receives the item's index and
/// the item. Workers inherit the caller's current obs registry; a panic
/// in any unit aborts the region and is re-raised on the caller with its
/// original payload.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_threads().min(n);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_payload: PanicSlot = Mutex::new(None);

    run_workers(workers, |util| loop {
        if poisoned.load(Ordering::Relaxed) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() {
            break;
        }
        let item = slots[i]
            .lock()
            .expect("item slot lock")
            .take()
            .expect("each item is claimed exactly once");
        util.tasks += 1;
        match util.timed(|| catch_unwind(AssertUnwindSafe(|| f(i, item)))) {
            Ok(r) => *results[i].lock().expect("result slot lock") = Some(r),
            Err(p) => {
                poisoned.store(true, Ordering::Relaxed);
                keep_first_panic(&panic_payload, p);
                break;
            }
        }
    });

    if let Some(p) = panic_payload.into_inner().expect("panic slot lock") {
        resume_unwind(p);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every unit produced a result")
        })
        .collect()
}

/// One worker's utilization tally inside a fanned-out region.
#[derive(Default)]
struct Utilization {
    tasks: u64,
    busy_ns: u64,
}

impl Utilization {
    /// Runs `f`, adding its wall time to the busy total.
    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.busy_ns = self
            .busy_ns
            .saturating_add(start.elapsed().as_nanos() as u64);
        out
    }
}

/// Spawns `workers` scoped threads running `body`, each with the caller's
/// obs registry and span-path prefix installed and nested regions forced
/// inline, then records the `par.worker.<w>.*` utilization counters from
/// the tally `body` kept.
fn run_workers<B>(workers: usize, body: B)
where
    B: Fn(&mut Utilization) + Sync,
{
    run_workers_beside(workers, body, || ());
}

/// [`run_workers`], with `beside` running on the calling thread while the
/// workers run; returns what `beside` returns once every worker is done.
fn run_workers_beside<B, R>(workers: usize, body: B, beside: impl FnOnce() -> R) -> R
where
    B: Fn(&mut Utilization) + Sync,
{
    let reg = vapp_obs::current();
    // Captured on the caller so worker-side spans fold into the spawning
    // span's subtree (profile paths thread-count invariant).
    let prefix = vapp_obs::span::current_path_parts();
    std::thread::scope(|s| {
        for w in 0..workers {
            let reg = reg.clone();
            let prefix = &prefix;
            let body = &body;
            s.spawn(move || {
                vapp_obs::registry::with_registry(reg, || {
                    vapp_obs::span::with_path_prefix(prefix, || {
                        IN_WORKER.with(|c| c.set(true));
                        let region_start = std::time::Instant::now();
                        let mut util = Utilization::default();
                        body(&mut util);
                        record_utilization(w, &util, region_start.elapsed());
                    });
                });
            });
        }
        beside()
    })
}

/// Records worker `w`'s `par.worker.<w>.*` counters for a region that
/// lasted `wall`.
fn record_utilization(w: usize, util: &Utilization, wall: std::time::Duration) {
    let wall_ns = wall.as_nanos() as u64;
    let r = vapp_obs::current();
    r.counter(&format!("par.worker.{w}.tasks")).add(util.tasks);
    r.counter(&format!("par.worker.{w}.busy_ns"))
        .add(util.busy_ns);
    r.counter(&format!("par.worker.{w}.idle_ns"))
        .add(wall_ns.saturating_sub(util.busy_ns));
}

/// The first panic payload raised inside a region.
type PanicSlot = Mutex<Option<Box<dyn std::any::Any + Send>>>;

/// Stores a unit's panic payload unless an earlier one is already kept.
fn keep_first_panic(slot: &PanicSlot, p: Box<dyn std::any::Any + Send>) {
    let mut first = slot.lock().expect("panic slot lock");
    if first.is_none() {
        *first = Some(p);
    }
}

/// The finished cells of a [`par_wavefront`] grid, as seen from inside
/// the cell closure.
pub struct WaveCells<'a, R> {
    cells: &'a [OnceLock<R>],
    cols: usize,
}

impl<R> WaveCells<'_, R> {
    /// The result of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell has not finished. Only the cells the wavefront
    /// order guarantees (see [`par_wavefront`]) may be read.
    pub fn get(&self, row: usize, col: usize) -> &R {
        self.cells[row * self.cols + col]
            .get()
            .expect("wavefront dependency read before it finished")
    }
}

/// Computes `f` for every cell of a `rows x cols` grid in wavefront order,
/// returning the results row-major.
///
/// When `f(row, col, done)` runs, `done` holds every cell to its left in
/// the same row and every cell of the earlier rows up to column `col + 1`
/// — the left, above and above-right neighbours of a macroblock, and
/// everything before them. That is the dependency of H.264-style motion
/// vector prediction, so a grid whose cells read only those neighbours
/// gets the same results as a raster-order loop, at any worker count.
///
/// Each worker claims whole rows in order and walks its row left to
/// right, so rows run two cells apart. A worker whose row has caught up
/// with the row above *blocks* on a condition variable until that row
/// moves; it never spins, so oversubscribed runs (more workers than
/// cores) lose no time to waiting threads. The row a worker waits on was
/// claimed earlier and never waits on a later row, so the order cannot
/// deadlock. With one effective worker (or inside another region) the
/// grid runs inline in raster order.
///
/// A panic in any cell stops the grid: blocked workers are woken and the
/// first payload is re-raised on the caller.
pub fn par_wavefront<R, F>(rows: usize, cols: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize, usize, &WaveCells<'_, R>) -> R + Sync,
{
    let cells: Vec<OnceLock<R>> = (0..rows * cols).map(|_| OnceLock::new()).collect();
    let done = WaveCells {
        cells: &cells,
        cols,
    };
    let finish = |row: usize, col: usize, value: R| {
        if cells[row * cols + col].set(value).is_err() {
            unreachable!("each cell is computed exactly once");
        }
    };
    let workers = effective_threads().min(rows);
    if workers <= 1 || IN_WORKER.with(Cell::get) {
        for row in 0..rows {
            for col in 0..cols {
                finish(row, col, f(row, col, &done));
            }
        }
    } else {
        // `progress[r]` counts the finished cells of row r. Its Release
        // store pairs with the waiters' Acquire loads (the cells themselves
        // are published by their `OnceLock`s). Writers bump it and then
        // notify under `moved`'s lock; waiters re-check it under the same
        // lock, so no wake-up is lost between check and wait. The lock
        // guards no data, so a poisoned lock is recovered.
        let progress: Vec<AtomicUsize> = (0..rows).map(|_| AtomicUsize::new(0)).collect();
        let moved = (Mutex::new(()), Condvar::new());
        let lock = || moved.0.lock().unwrap_or_else(PoisonError::into_inner);
        let cursor = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let panic_payload: PanicSlot = Mutex::new(None);

        run_workers(workers, |util| 'rows: loop {
            let row = cursor.fetch_add(1, Ordering::Relaxed);
            if row >= rows || poisoned.load(Ordering::Relaxed) {
                break;
            }
            util.tasks += 1;
            for col in 0..cols {
                if row > 0 {
                    let need = (col + 2).min(cols);
                    let above = &progress[row - 1];
                    if above.load(Ordering::Acquire) < need {
                        let mut guard = lock();
                        while above.load(Ordering::Acquire) < need
                            && !poisoned.load(Ordering::Acquire)
                        {
                            guard = moved.1.wait(guard).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    if poisoned.load(Ordering::Acquire) {
                        break 'rows;
                    }
                }
                let outcome = util.timed(|| catch_unwind(AssertUnwindSafe(|| f(row, col, &done))));
                match outcome {
                    Ok(value) => {
                        finish(row, col, value);
                        progress[row].store(col + 1, Ordering::Release);
                    }
                    Err(p) => {
                        keep_first_panic(&panic_payload, p);
                        poisoned.store(true, Ordering::Release);
                    }
                }
                let _guard = lock();
                moved.1.notify_all();
                if poisoned.load(Ordering::Acquire) {
                    break 'rows;
                }
            }
        });

        if let Some(p) = panic_payload.into_inner().expect("panic slot lock") {
            resume_unwind(p);
        }
    }
    cells
        .into_iter()
        .map(|c| c.into_inner().expect("every cell finished"))
        .collect()
}

/// The bounded queue between the two stages of a [`par_pipeline`]. A
/// `None` message ends a unit. Only the producer waits on a full queue and
/// only the consumer on an empty one, so one condition variable serves
/// both, and each side wakes the other only when it is waiting. A producer
/// that found the queue full sleeps until it has drained to half, so a
/// full queue costs one wake-up per half queue rather than one per item.
/// The lock guards no invariant a panic could break (no caller code runs
/// under it), so a poisoned lock is recovered.
struct Handoff<T> {
    state: Mutex<HandoffState<T>>,
    changed: Condvar,
    capacity: usize,
}

struct HandoffState<T> {
    queue: std::collections::VecDeque<Option<T>>,
    /// Items (not unit ends) in `queue`.
    items: usize,
    producer_waiting: bool,
    consumer_waiting: bool,
    /// Set when either stage panicked: both stop.
    poisoned: bool,
}

impl<T> Handoff<T> {
    fn new(capacity: usize) -> Self {
        Handoff {
            state: Mutex::new(HandoffState {
                queue: std::collections::VecDeque::with_capacity(capacity + 1),
                items: 0,
                producer_waiting: false,
                consumer_waiting: false,
                poisoned: false,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HandoffState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg`; an item first blocks while `capacity` items are
    /// queued, and then until half of them are gone. Dropped once the
    /// pipeline is poisoned. Returns the nanoseconds spent blocked.
    fn push(&self, msg: Option<T>) -> u64 {
        let mut st = self.lock();
        let mut waited = 0;
        if msg.is_some() && st.items >= self.capacity && !st.poisoned {
            let start = std::time::Instant::now();
            st.producer_waiting = true;
            while st.items > self.capacity / 2 && !st.poisoned {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.producer_waiting = false;
            waited = start.elapsed().as_nanos() as u64;
        }
        if st.poisoned {
            return waited;
        }
        st.items += usize::from(msg.is_some());
        st.queue.push_back(msg);
        let wake = st.consumer_waiting;
        drop(st);
        if wake {
            self.changed.notify_all();
        }
        waited
    }

    /// The next message, blocking while the queue is empty; `None` once the
    /// pipeline is poisoned. Adds the nanoseconds spent blocked to `waited`.
    fn pop(&self, waited: &mut u64) -> Option<Option<T>> {
        let mut st = self.lock();
        if st.queue.is_empty() && !st.poisoned {
            let start = std::time::Instant::now();
            st.consumer_waiting = true;
            while st.queue.is_empty() && !st.poisoned {
                st = self
                    .changed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.consumer_waiting = false;
            *waited += start.elapsed().as_nanos() as u64;
        }
        if st.poisoned {
            return None;
        }
        let msg = st.queue.pop_front().expect("queue checked non-empty");
        st.items -= usize::from(msg.is_some());
        let wake = st.producer_waiting && st.items <= self.capacity / 2;
        drop(st);
        if wake {
            self.changed.notify_all();
        }
        Some(msg)
    }

    fn poison(&self) {
        self.lock().poisoned = true;
        self.changed.notify_all();
    }
}

/// The consumer's view of one unit in a fanned-out [`par_pipeline`]: the
/// unit's items in order, ending at its end marker (or when the pipeline
/// is poisoned).
struct UnitItems<'a, T> {
    handoff: &'a Handoff<T>,
    ended: bool,
    waited: u64,
}

impl<T> Iterator for UnitItems<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.ended {
            return None;
        }
        match self.handoff.pop(&mut self.waited) {
            Some(Some(item)) => Some(item),
            _ => {
                self.ended = true;
                None
            }
        }
    }
}

/// Runs `units` through a two-stage pipeline, both stages in unit order:
/// `produce(i, unit, emit)` turns unit `i` into a sequence of items,
/// handing each to `emit`, and `consume(i, items)` receives exactly the
/// items unit `i` emitted, in order.
///
/// With two or more effective workers the stages overlap: one spawned
/// worker runs every `produce` call while the calling thread runs every
/// `consume` call, joined by a hand-off queue that holds at most
/// `capacity` items — a full queue blocks the producer, so it runs at most
/// that far ahead and the memory in flight stays bounded. More workers add
/// nothing: each stage is sequential. Whatever `consume` allocates comes
/// from the caller's thread, as it would inline. With one effective
/// worker, or inside another region, the pipeline runs inline: each unit
/// is produced into a buffer and then consumed, so the calls (and any
/// spans they open) are the same and in the same order per stage, and at
/// most one unit's items are held.
///
/// Both stages are sequential functions of their inputs, so as long as
/// `consume` depends only on the items (and its own state), the results
/// are the same at any worker count. In the `par.worker.<w>.*` counters
/// the producer is worker 0 and the consumer worker 1: `tasks` counts
/// units, and time blocked on the queue counts as idle, which shows which
/// stage bounds the run. Regions opened inside either stage run inline.
///
/// A panic in either stage stops both — a blocked stage is woken, the
/// producer drops the rest of its unit and starts no other, the consumer
/// sees its items end — and the first payload is re-raised on the caller.
pub fn par_pipeline<U, T, P, C>(units: Vec<U>, capacity: usize, mut produce: P, mut consume: C)
where
    U: Send,
    T: Send,
    P: FnMut(usize, U, &mut dyn FnMut(T)) + Send,
    C: FnMut(usize, &mut dyn Iterator<Item = T>),
{
    let n = units.len();
    if n == 0 {
        return;
    }
    if effective_threads() <= 1 || IN_WORKER.with(Cell::get) {
        let mut buf = Vec::new();
        for (i, unit) in units.into_iter().enumerate() {
            produce(i, unit, &mut |item| buf.push(item));
            consume(i, &mut buf.drain(..));
        }
        return;
    }

    let handoff = Handoff::new(capacity);
    let producer = Mutex::new(Some((units, produce)));
    let panic_payload: PanicSlot = Mutex::new(None);
    let fail = |p| {
        keep_first_panic(&panic_payload, p);
        handoff.poison();
    };

    let produce_all = |util: &mut Utilization| {
        let start = std::time::Instant::now();
        let mut waited = 0u64;
        let taken = producer.lock().expect("producer lock").take();
        let (units, mut produce) = taken.expect("one producer");
        for (i, unit) in units.into_iter().enumerate() {
            if handoff.lock().poisoned {
                break;
            }
            util.tasks += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                produce(i, unit, &mut |item| waited += handoff.push(Some(item)));
            }));
            if let Err(p) = outcome {
                fail(p);
                break;
            }
            waited += handoff.push(None);
        }
        util.busy_ns = (start.elapsed().as_nanos() as u64).saturating_sub(waited);
    };

    let consume_all = || {
        let start = std::time::Instant::now();
        let mut util = Utilization::default();
        let mut waited = 0u64;
        let was_worker = IN_WORKER.with(|c| c.replace(true));
        for i in 0..n {
            let mut items = UnitItems {
                handoff: &handoff,
                ended: false,
                waited: 0,
            };
            util.tasks += 1;
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| consume(i, &mut items))) {
                fail(p);
            }
            // Skip whatever of the unit `consume` left unread.
            items.by_ref().for_each(drop);
            waited += items.waited;
            if handoff.lock().poisoned {
                break;
            }
        }
        IN_WORKER.with(|c| c.set(was_worker));
        let wall = start.elapsed();
        util.busy_ns = (wall.as_nanos() as u64).saturating_sub(waited);
        record_utilization(1, &util, wall);
    };

    run_workers_beside(1, produce_all, consume_all);

    if let Some(p) = panic_payload.into_inner().expect("panic slot lock") {
        resume_unwind(p);
    }
}

/// Splits `data` into disjoint chunks of `chunk_size` (the last may be
/// shorter) and maps `f` over them in parallel, returning per-chunk
/// results in chunk order. `f` receives the chunk index and the chunk.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn par_chunks<T, R, F>(data: &mut [T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    par_map(data.chunks_mut(chunk_size).collect(), |i, chunk| {
        f(i, chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map(items.clone(), |i, x| {
                    assert_eq!(i as u64, x);
                    x * x + 1
                })
            });
            assert_eq!(got, expect, "threads {threads}");
        }
    }

    #[test]
    fn par_chunks_sees_disjoint_chunks_in_order() {
        let mut data: Vec<u32> = (0..100).collect();
        let sums = with_threads(4, || {
            par_chunks(&mut data, 7, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
                (i, chunk.iter().map(|&v| u64::from(v)).sum::<u64>())
            })
        });
        assert_eq!(sums.len(), 100usize.div_ceil(7));
        assert!(sums.iter().enumerate().all(|(i, &(j, _))| i == j));
        let expect: Vec<u32> = (1..101).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn panic_payload_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map((0..64).collect::<Vec<u32>>(), |_, x| {
                    assert!(x != 17, "unit seventeen exploded");
                    x
                })
            })
        });
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("seventeen"), "payload lost: {msg}");
    }

    #[test]
    fn workers_inherit_scoped_registry() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(4, || {
                par_map((0..40).collect::<Vec<u32>>(), |_, _| {
                    vapp_obs::current().counter("par.test.units").add(1);
                })
            });
        });
        assert_eq!(reg.counter("par.test.units").get(), 40);
        // The parallel region recorded into the scoped registry, not the
        // global one.
        assert_eq!(vapp_obs::global().counter("par.test.units").get(), 0);
    }

    #[test]
    fn worker_spans_fold_into_the_callers_subtree() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            let _outer = vapp_obs::span!("par.test.region");
            with_threads(4, || {
                par_map((0..12).collect::<Vec<u32>>(), |_, _| {
                    let _s = vapp_obs::span!("par.test.unit");
                })
            });
        });
        let snap = reg.snapshot();
        let unit = snap
            .profile
            .iter()
            .find(|p| p.path == "par.test.region>par.test.unit")
            .expect("worker span nests under the caller's open span");
        assert_eq!(unit.count, 12);
        // No stray root-level `par.test.unit` path from worker threads.
        assert!(!snap.profile.iter().any(|p| p.path == "par.test.unit"));
    }

    #[test]
    fn fanned_out_regions_record_worker_utilization() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(4, || {
                par_map((0..32).collect::<Vec<u32>>(), |_, _| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                })
            });
        });
        let snap = reg.snapshot();
        let tasks: u64 = (0..4)
            .map(|w| snap.counter(&format!("par.worker.{w}.tasks")))
            .sum();
        assert_eq!(tasks, 32, "every unit claimed exactly once");
        let busy: u64 = (0..4)
            .map(|w| snap.counter(&format!("par.worker.{w}.busy_ns")))
            .sum();
        // 32 units × ≥200 µs of sleep is a hard lower bound on busy time.
        assert!(busy >= 32 * 200_000, "busy {busy} ns too small");
        for w in 0..4 {
            assert!(snap
                .counters
                .iter()
                .any(|(n, _)| *n == format!("par.worker.{w}.idle_ns")));
        }
    }

    #[test]
    fn inline_regions_record_no_worker_counters() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            with_threads(1, || par_map((0..8).collect::<Vec<u32>>(), |_, x| x * 2));
        });
        let snap = reg.snapshot();
        assert!(
            !snap
                .counters
                .iter()
                .any(|(n, _)| n.starts_with("par.worker.")),
            "inline path must stay utilization-free: {:?}",
            snap.counters
        );
    }

    #[test]
    fn nested_par_map_runs_inline_and_stays_correct() {
        let got = with_threads(4, || {
            par_map((0..8u64).collect::<Vec<_>>(), |_, outer| {
                par_map((0..8u64).collect::<Vec<_>>(), |_, inner| outer * 10 + inner)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        let expect: Vec<u64> = (0..8).map(|o| (0..8).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(got, expect);
    }

    /// A cell value that reads all three wavefront neighbours, so any
    /// ordering bug changes the result (or panics on an unfinished read).
    fn wave_cell(row: usize, col: usize, cols: usize, done: &WaveCells<'_, u64>) -> u64 {
        let mut v = (row * 131 + col * 7) as u64;
        if col > 0 {
            v = v.wrapping_mul(31).wrapping_add(*done.get(row, col - 1));
        }
        if row > 0 {
            v = v.wrapping_mul(17).wrapping_add(*done.get(row - 1, col));
            if col + 1 < cols {
                v = v.wrapping_mul(13).wrapping_add(*done.get(row - 1, col + 1));
            }
        }
        v
    }

    #[test]
    fn wavefront_matches_raster_order_at_any_thread_count() {
        for (rows, cols) in [(1, 1), (1, 9), (9, 1), (7, 5), (12, 3)] {
            let expect = with_threads(1, || {
                par_wavefront(rows, cols, |r, c, d| wave_cell(r, c, cols, d))
            });
            assert_eq!(expect.len(), rows * cols);
            for threads in [2, 3, 8] {
                let got = with_threads(threads, || {
                    par_wavefront(rows, cols, |r, c, d| wave_cell(r, c, cols, d))
                });
                assert_eq!(got, expect, "{rows}x{cols} at {threads} threads");
            }
        }
    }

    #[test]
    fn wavefront_panic_wakes_blocked_rows_and_propagates() {
        // Row 1's worker finishes (1, 1) and then must wait for the last
        // cell of row 0, which panics only once (1, 1) is done: the panic
        // has to wake (or pre-empt) that waiter, or the region deadlocks.
        let (rows, cols) = (6, 4);
        let row1_waiting = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_wavefront(rows, cols, |r, c, _| {
                    if (r, c) == (1, cols - 3) {
                        row1_waiting.store(true, Ordering::SeqCst);
                    }
                    if (r, c) == (0, cols - 1) {
                        while !row1_waiting.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        panic!("cell zero-three exploded");
                    }
                    r * c
                })
            })
        }));
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("zero-three"), "payload lost: {msg}");
    }

    #[test]
    fn wavefront_records_one_task_per_row() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            let _outer = vapp_obs::span!("par.test.wave");
            with_threads(3, || {
                par_wavefront(5, 4, |_, _, _| {
                    let _s = vapp_obs::span!("par.test.cell");
                })
            });
        });
        let snap = reg.snapshot();
        let tasks: u64 = (0..3)
            .map(|w| snap.counter(&format!("par.worker.{w}.tasks")))
            .sum();
        assert_eq!(tasks, 5, "every row claimed exactly once");
        let cell = snap
            .profile
            .iter()
            .find(|p| p.path == "par.test.wave>par.test.cell")
            .expect("cell spans nest under the caller's open span");
        assert_eq!(cell.count, 20);
    }

    /// Runs a pipeline whose unit `u` emits `u % 5` items `u * 100 + k`,
    /// returning what the consumer saw per unit.
    fn pipeline_trace(units: usize, capacity: usize) -> Vec<(usize, Vec<usize>)> {
        let mut seen = Vec::new();
        par_pipeline(
            (0..units).collect(),
            capacity,
            |i, u: usize, emit| {
                assert_eq!(i, u);
                for k in 0..u % 5 {
                    emit(u * 100 + k);
                }
            },
            |i, items| seen.push((i, items.collect())),
        );
        seen
    }

    #[test]
    fn pipeline_delivers_each_units_items_in_order_at_any_thread_count() {
        let expect: Vec<(usize, Vec<usize>)> = (0..23)
            .map(|u| (u, (0..u % 5).map(|k| u * 100 + k).collect()))
            .collect();
        for threads in [1, 2, 3, 8] {
            for capacity in [1, 2, 7] {
                let got = with_threads(threads, || pipeline_trace(23, capacity));
                assert_eq!(got, expect, "threads {threads} capacity {capacity}");
            }
        }
        // Nested inside another region: inline, same result.
        let nested = with_threads(4, || par_map(vec![0u8; 3], |_, _| pipeline_trace(23, 2)));
        assert!(nested.iter().all(|got| *got == expect));
        assert!(with_threads(2, || pipeline_trace(0, 3)).is_empty());
    }

    #[test]
    fn pipeline_hand_off_is_bounded() {
        let produced = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let max_ahead = AtomicUsize::new(0);
        let capacity = 3;
        with_threads(2, || {
            par_pipeline(
                (0..6).collect::<Vec<usize>>(),
                capacity,
                |_, _, emit| {
                    for k in 0..20 {
                        let ahead = produced.fetch_add(1, Ordering::SeqCst) + 1
                            - consumed.load(Ordering::SeqCst);
                        max_ahead.fetch_max(ahead, Ordering::SeqCst);
                        emit(k);
                    }
                },
                |_, items| {
                    for _ in items {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                },
            )
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 120);
        // Queued items, plus the one the consumer holds, plus the one being
        // emitted.
        let ahead = max_ahead.load(Ordering::SeqCst);
        assert!(ahead <= capacity + 2, "producer ran {ahead} items ahead");
    }

    #[test]
    fn pipeline_consumer_may_leave_items_unread() {
        let mut firsts = Vec::new();
        with_threads(2, || {
            par_pipeline(
                (0..10).collect::<Vec<usize>>(),
                2,
                |_, u, emit| (0..4).for_each(|k| emit(u * 10 + k)),
                |_, items| firsts.push(items.next()),
            )
        });
        let expect: Vec<Option<usize>> = (0..10).map(|u| Some(u * 10)).collect();
        assert_eq!(firsts, expect);
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn pipeline_panics_propagate_from_either_stage() {
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    par_pipeline(
                        (0..50).collect::<Vec<u32>>(),
                        1,
                        |_, u, emit| {
                            assert!(u != 7, "producer unit seven exploded");
                            (0..3).for_each(|_| emit(u));
                        },
                        |_, items| items.for_each(drop),
                    )
                })
            });
            let msg = panic_message(caught.expect_err("producer must panic"));
            assert!(msg.contains("producer unit seven"), "{threads}: {msg}");

            // The consumer dies while the producer is blocked on a full queue.
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    par_pipeline(
                        (0..50).collect::<Vec<u32>>(),
                        1,
                        |_, u, emit| (0..3).for_each(|_| emit(u)),
                        |i, items| {
                            assert!(i != 3, "consumer unit three exploded");
                            items.for_each(drop);
                        },
                    )
                })
            });
            let msg = panic_message(caught.expect_err("consumer must panic"));
            assert!(msg.contains("consumer unit three"), "{threads}: {msg}");
        }
    }

    #[test]
    fn pipeline_records_one_task_per_unit_per_stage() {
        let reg = Arc::new(vapp_obs::Registry::new());
        vapp_obs::registry::with_registry(reg.clone(), || {
            let _outer = vapp_obs::span!("par.test.pipe");
            with_threads(3, || {
                par_pipeline(
                    (0..9).collect::<Vec<u32>>(),
                    2,
                    |_, u, emit| {
                        let _s = vapp_obs::span!("par.test.produce");
                        emit(u);
                    },
                    |_, items| {
                        let _s = vapp_obs::span!("par.test.consume");
                        items.for_each(drop);
                    },
                )
            });
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("par.worker.0.tasks"), 9);
        assert_eq!(snap.counter("par.worker.1.tasks"), 9);
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("par.worker.2.")));
        for stage in ["produce", "consume"] {
            let path = format!("par.test.pipe>par.test.{stage}");
            let entry = snap.profile.iter().find(|p| p.path == path);
            assert_eq!(entry.map(|p| p.count), Some(9), "{path}");
        }
    }

    #[test]
    fn thread_count_resolution_order() {
        set_threads(Some(3));
        assert_eq!(effective_threads(), 3);
        // A scope beats the process override.
        with_threads(5, || assert_eq!(effective_threads(), 5));
        assert_eq!(effective_threads(), 3);
        set_threads(None);
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |_, x: u32| x).is_empty());
        assert_eq!(
            with_threads(8, || par_map(vec![9], |i, x| (i, x))),
            vec![(0, 9)]
        );
    }
}
