//! [`join`], the two-way fork a train step is split with, and the parked
//! one-worker pool under it.
//!
//! A train step forks ≈ 25 times, microseconds to a millisecond apart; on
//! that cadence a `thread::spawn`/`join` per fork is pure overhead.
//! [`ParkingPool`] spawns its worker once; between rounds it waits (see
//! *Waiting*) and a round dispatch is one mutex lock + `notify_all`.
//!
//! # The round protocol
//!
//! The borrowed-state trick of `std::thread::scope` is preserved without
//! scoped threads. A round
//!
//! 1. takes the pool's *dispatch turn* (a mutex held for the whole round:
//!    the pool is `Sync`, and two rounds in flight at once would let a
//!    worker pick up the second job after its dispatcher had been woken by
//!    the first round's retirement and returned);
//! 2. erases the job's lifetime into a raw trait-object pointer, bumps the
//!    generation counter and wakes the workers — a worker executes
//!    generation `g` if and only if its own counter lags, so each round
//!    runs exactly once per worker;
//! 3. runs the **caller's share** on the dispatching thread (the second
//!    closure of a [`join`]);
//! 4. *blocks* until every worker has retired the round, and only then
//!    returns — so the job (and everything it borrows) provably outlives
//!    every use.
//!
//! Step 4 is a drop guard, not a statement, because step 3 runs arbitrary
//! code that may panic while a worker is still inside a job that borrows
//! the dispatcher's stack: the guard makes the unwind wait for retirement
//! exactly like the normal return does, so no frame a worker can reach is
//! popped under it.
//!
//! # `join`: a busy helper means inline
//!
//! [`join`] runs its first closure on a process-wide one-worker pool and
//! its second on the caller. It never waits for the helper's turn: if the
//! turn is taken — a `join` nested inside either half of another, a second
//! trainer, a test running beside this one — or the host has one core and
//! no helper at all, both closures run on the caller, first then second.
//! Waiting could deadlock (the nested case holds the turn itself) and
//! could only ever buy wall-clock; callers hand `join` two halves with
//! disjoint writes, so whether the fork happened is invisible in the
//! results.
//!
//! # Waiting
//!
//! Both waits — a worker's for the next round, the dispatcher's for
//! retirement — poll for a bounded time ([`SPIN`], yielding the core
//! between looks) before they park on their condvar, so rounds that follow
//! one another closely never pay a park/unpark hand-off.
//!
//! Telemetry (via [`pop_obs`]): `exec.pool.<name>.park_us` — how long
//! workers wait between rounds, polling and parked,
//! `exec.pool.<name>.rounds` — dispatched rounds,
//! `exec.pool.<name>.panics` — jobs that panicked; the helper is the pool
//! named `join`, and `exec.join.forked` / `exec.join.inline` count which
//! way each [`join`] went.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// A lifetime-erased `&(dyn Fn(usize) + Sync)`. Safe to send between
/// threads because the referent is `Sync` and a round does not end until
/// no worker can touch it again.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the referent is `Sync` (shared calls from any thread are fine)
// and the round protocol in `ParkingPool::round` keeps it alive: `round`
// cannot be left, by return or by unwind, until every worker has retired
// the round, after which no worker ever dereferences the pointer again.
unsafe impl Send for JobPtr {}

/// Locks a mutex whose data stays coherent across a panic (plain counters,
/// or nothing at all): a poisoned lock is recovered instead of killing the
/// dispatcher or wedging a worker.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

struct PoolState {
    job: Option<JobPtr>,
    /// Panicking jobs observed in the current generation.
    round_panics: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Bumped once per dispatched round; workers execute a round iff their
    /// private counter lags this one. Written only under `state`.
    generation: AtomicU64,
    /// Workers that have not yet retired the current generation. Written
    /// only under `state`.
    remaining: AtomicUsize,
    /// Workers park here between rounds.
    work_cv: Condvar,
    /// The dispatcher parks here until the round retires.
    done_cv: Condvar,
}

/// How long a thread polls, yielding, for the event it is about to park
/// for — the pool's "block time", two orders of magnitude below what
/// OpenMP runtimes default to. It is set by the fork cadence of a train
/// step of the small models, where a hand-off is not small against the
/// work: a parked worker takes 30–90 µs to get back on a core (2-vCPU
/// host, measured), a step issues ≈ 25 forks up to a discriminator forward
/// (≈ 0.8 ms) apart, and every park is also a chance for the kernel to
/// wake the worker on the caller's core, where the two then time-slice.
/// Polling past the longest such gap keeps the worker on its core from the
/// first fork of a run to the last (800 steps: ≈ 4 000 parks at 50 µs,
/// ≈ 50 at 2 ms; mean step 12.0 → 10.4 ms), and it parks 2 ms after the
/// work stops.
const SPIN: Duration = Duration::from_millis(2);

/// Polls `ready` for at most [`SPIN`], yielding the core between looks: if
/// the thread being waited for is runnable on *this* core, the yield is
/// what lets it run. Only a hint that blocking can be skipped —
/// `generation` and `remaining` change under the `state` mutex, and every
/// waiter re-checks them under it afterwards, which is also what orders
/// the other side's writes before its own reads.
fn spin_until(ready: impl Fn() -> bool) {
    let started = Instant::now();
    while !ready() && started.elapsed() < SPIN {
        std::thread::yield_now();
    }
}

/// A dispatched round. Dropping it blocks until every worker has retired
/// the round — on the normal path and on unwind alike, which is what
/// keeps the lifetime erasure in [`ParkingPool::round`] sound while the
/// caller's share runs.
struct Retire<'a>(&'a Shared);

impl Retire<'_> {
    /// Blocks until the round has retired; returns how many workers' jobs
    /// panicked in it. Returns at once when called again.
    fn wait(&self) -> usize {
        let retired = || self.0.remaining.load(Ordering::Relaxed) == 0;
        spin_until(retired);
        let mut state = lock(&self.0.state);
        while !retired() {
            state = self
                .0
                .done_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.job = None;
        state.round_panics
    }
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.wait();
    }
}

/// A named, persistent worker pool dispatching borrowed-state jobs in
/// synchronous rounds — what [`join`] forks onto.
struct ParkingPool {
    shared: Arc<Shared>,
    /// The dispatch turn: held from a round's dispatch to its retirement,
    /// so rounds from several threads run one after another.
    turn: Mutex<()>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    rounds: std::sync::Arc<pop_obs::Counter>,
}

impl ParkingPool {
    /// Spawns `workers` threads named `<name>-<index>`; they park
    /// immediately and wake per round.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero or the OS refuses to spawn a thread.
    fn new(name: &str, workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                round_panics: 0,
                shutdown: false,
            }),
            generation: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let park_us = pop_obs::global().histogram(&format!("exec.pool.{name}.park_us"));
        let panics = pop_obs::global().counter(&format!("exec.pool.{name}.panics"));
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let park_us = Arc::clone(&park_us);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("{name}-{index}"))
                    .spawn(move || worker_loop(index, &shared, &park_us, &panics))
                    // lint: allow(panic_path) — construction-time, documented # Panics
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        ParkingPool {
            shared,
            turn: Mutex::new(()),
            handles,
            workers,
            rounds: pop_obs::global().counter(&format!("exec.pool.{name}.rounds")),
        }
    }

    /// Runs `a` on a worker while `b` runs on the caller, or hands both
    /// back untouched when another round is in flight. Meant for a
    /// one-worker pool: every worker wakes, the first to arrive runs `a`.
    fn try_fork<A, B, RA, RB>(&self, a: A, b: B) -> Result<(RA, RB), (A, B)>
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB,
        RA: Send,
    {
        let turn = match self.turn.try_lock() {
            Ok(turn) => turn,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return Err((a, b)),
        };
        // The pool's job type is a shared `Fn`; the once-only closure and
        // its result cross through two uncontended slots.
        let (a, ra) = (Mutex::new(Some(a)), Mutex::new(None));
        let job = |_worker: usize| {
            if let Some(a) = lock(&a).take() {
                let result = catch_unwind(AssertUnwindSafe(a));
                *lock(&ra) = Some(result);
            }
        };
        let (_, rb) = self.round(&turn, &job, b);
        let ra = ra.into_inner().unwrap_or_else(|e| e.into_inner());
        // lint: allow(panic_path) — a retired round has run `a` exactly once
        match ra.expect("a worker ran the forked half") {
            Ok(ra) => Ok((ra, rb)),
            Err(payload) => resume_unwind(payload),
        }
    }

    /// One round with a participating caller, who holds the dispatch turn:
    /// dispatches `job` to every worker, runs `share` on this thread
    /// meanwhile, and returns the round's panic count with `share`'s
    /// result once the round has retired.
    fn round<R>(
        &self,
        _turn: &MutexGuard<'_, ()>,
        job: &(dyn Fn(usize) + Sync),
        share: impl FnOnce() -> R,
    ) -> (usize, R) {
        self.rounds.inc();
        // (`an_unwinding_caller_waits_for_the_forked_half` holds a worker
        // inside the job while the caller panics out of `share`.)
        //
        // SAFETY: erases the borrow's lifetime. Sound because this function
        // cannot be left before every worker has finished calling the job
        // and can never dereference it again: the pointer is published only
        // after `retire` exists, and dropping `retire` — by the return
        // below or by an unwind out of `share` — blocks until then.
        let job_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        let retire = Retire(&self.shared);
        {
            let mut state = lock(&self.shared.state);
            let in_flight = self.shared.remaining.swap(self.workers, Ordering::Relaxed);
            debug_assert_eq!(in_flight, 0, "the turn serialises rounds");
            state.job = Some(JobPtr(job_static as *const _));
            state.round_panics = 0;
            self.shared.generation.fetch_add(1, Ordering::Relaxed);
            self.shared.work_cv.notify_all();
        }
        let out = share();
        (retire.wait(), out)
    }
}

impl Drop for ParkingPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            // Not a round: makes a worker that is still polling look up.
            self.shared.generation.fetch_add(1, Ordering::Relaxed);
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    park_us: &pop_obs::Histogram,
    panics: &pop_obs::Counter,
) {
    let mut seen_generation = 0u64;
    loop {
        let parked_at = Instant::now();
        let job = {
            spin_until(|| shared.generation.load(Ordering::Relaxed) > seen_generation);
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                // A round only bumps the generation with a job installed;
                // if that invariant ever breaks, park again rather than
                // panic (a dead worker would hang the dispatcher forever).
                let generation = shared.generation.load(Ordering::Relaxed);
                if generation > seen_generation {
                    if let Some(job) = state.job {
                        seen_generation = generation;
                        break job;
                    }
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        park_us.record_duration(parked_at.elapsed());
        // SAFETY: the dispatcher cannot leave `round` until this worker (and
        // all others) decrement `remaining` below, so the referent is alive.
        let job: &(dyn Fn(usize) + Sync) = unsafe { &*job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| job(index)));
        let mut state = lock(&shared.state);
        if result.is_err() {
            state.round_panics += 1;
            panics.inc();
        }
        if shared.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
            shared.done_cv.notify_all();
        }
    }
}

/// The process-wide helper [`join`] forks onto, and the counters that say
/// which way each call went.
struct Helper {
    /// One parked worker; `None` on a one-core host, where a second thread
    /// could only time-slice with the caller.
    pool: Option<ParkingPool>,
    forked: Arc<pop_obs::Counter>,
    inline: Arc<pop_obs::Counter>,
}

fn helper() -> &'static Helper {
    static HELPER: OnceLock<Helper> = OnceLock::new();
    HELPER.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Helper {
            pool: (cores >= 2).then(|| ParkingPool::new("join", 1)),
            forked: pop_obs::global().counter("exec.join.forked"),
            inline: pop_obs::global().counter("exec.join.inline"),
        }
    })
}

/// Runs `a` and `b`, on two cores when a second one is free, and returns
/// both results once both are done.
///
/// `a` goes to a lazily spawned, process-wide helper thread — created only
/// when [`available_parallelism`](std::thread::available_parallelism) is at
/// least 2 — while `b` runs on the caller. If the helper is already inside
/// a round (a `join` nested in either half of another one, or one issued
/// from another thread) or does not exist, `a` then `b` run on the caller
/// instead. Callers pass halves with disjoint writes, so the choice moves
/// the wall clock and nothing else; `exec.join.forked` and
/// `exec.join.inline` count it.
///
/// Both closures may borrow from the caller's stack: `join` does not
/// return — or unwind — before the helper has finished with `a`.
///
/// # Panics
///
/// A panic in either half resurfaces on the caller once both halves have
/// finished (the caller's own, if both panicked); the helper survives it.
///
/// # Example
///
/// ```
/// let (mut left, mut right) = ([0u32; 4], [0u32; 4]);
/// let (sum, ()) = pop_exec::join(
///     || {
///         left.fill(1);
///         left.iter().sum::<u32>()
///     },
///     || right.fill(2),
/// );
/// assert_eq!((sum, right), (4, [2; 4]));
/// ```
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    let helper = helper();
    let forked = match &helper.pool {
        Some(pool) => pool.try_fork(a, b),
        None => Err((a, b)),
    };
    match forked {
        Ok(both) => {
            helper.forked.inc();
            both
        }
        Err((a, b)) => {
            helper.inline.inc();
            (a(), b())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn drop_joins_all_workers() {
        let pool = ParkingPool::new("parked-drop", 1);
        assert!(pool.try_fork(|| (), || ()).is_ok());
        drop(pool); // must not hang
    }

    #[test]
    fn a_fork_runs_one_half_on_the_worker_and_one_on_the_caller() {
        let pool = ParkingPool::new("parked-fork", 1);
        let caller = std::thread::current().id();
        let (mut left, mut right) = ([0u8; 64], [0u8; 64]);
        let forked = pool.try_fork(
            || {
                left.fill(1);
                std::thread::current().id()
            },
            || {
                right.fill(2);
                std::thread::current().id()
            },
        );
        let Ok((a_ran_on, b_ran_on)) = forked else {
            panic!("an idle pool must fork");
        };
        assert_ne!(a_ran_on, caller);
        assert_eq!(b_ran_on, caller);
        assert_eq!((left, right), ([1; 64], [2; 64]));
    }

    #[test]
    fn a_busy_pool_hands_both_halves_back() {
        let pool = ParkingPool::new("parked-busy", 1);
        // From inside either half of a fork the turn is taken: a nested
        // fork must come back untouched instead of waiting for itself.
        let nested = |pool: &ParkingPool| pool.try_fork(|| 1, || 2).is_err();
        let outer = pool.try_fork(|| nested(&pool), || nested(&pool));
        assert!(matches!(outer, Ok((true, true))));
        // …and the turn is free again afterwards.
        assert!(matches!(pool.try_fork(|| 1, || 2), Ok((1, 2))));
    }

    #[test]
    fn a_panic_in_the_forked_half_resurfaces_on_the_caller() {
        let pool = ParkingPool::new("parked-fork-panic", 1);
        let caller_half_ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.try_fork(
                || panic!("deliberate test panic in the forked half"),
                || caller_half_ran.fetch_add(1, Ordering::Relaxed),
            )
            .map_err(drop)
        }));
        let payload = result.expect_err("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"deliberate test panic in the forked half")
        );
        assert_eq!(caller_half_ran.load(Ordering::Relaxed), 1);
        // The worker survived and the turn was released.
        assert!(matches!(pool.try_fork(|| 3, || 4), Ok((3, 4))));
    }

    #[test]
    fn an_unwinding_caller_waits_for_the_forked_half() {
        let pool = ParkingPool::new("parked-fork-unwind", 1);
        // The forked half writes into this frame for as long as the caller
        // half needs to start unwinding and then some; the unwind must not
        // get past `try_fork` until every write has landed.
        let mut buffer = [0u32; 4096];
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.try_fork(
                || {
                    entered.wait();
                    release.wait();
                    for (i, slot) in buffer.iter_mut().enumerate() {
                        *slot = i as u32 + 1;
                        if i % 512 == 0 {
                            std::thread::yield_now();
                        }
                    }
                },
                || {
                    entered.wait();
                    release.wait();
                    panic!("deliberate test panic in the caller half");
                },
            )
            .map_err(drop)
        }));
        assert!(result.is_err());
        // No synchronisation since the unwind: the guard was the wait.
        assert!(buffer.iter().enumerate().all(|(i, v)| *v == i as u32 + 1));
        assert!(matches!(pool.try_fork(|| 5, || 6), Ok((5, 6))));
    }

    #[test]
    fn join_runs_both_halves_wherever_the_helper_is() {
        // The process-wide helper is shared with every test running beside
        // this one and absent on one core, so which way a join goes is not
        // this test's to decide — only that both halves ran, `b` on the
        // caller, and `a` there too whenever the join was nested.
        let caller = std::thread::current().id();
        let ((a_ran_on, nested_on), b_ran_on) = join(
            || {
                let me = std::thread::current().id();
                // Nested in the forked half (or in an inline outer join on
                // the caller): wherever this runs, both halves stay here.
                let (inner_a, inner_b) = join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                );
                (me, [inner_a == me, inner_b == me])
            },
            || std::thread::current().id(),
        );
        assert_eq!(b_ran_on, caller);
        if helper().pool.is_none() {
            assert_eq!(a_ran_on, caller, "no helper on a one-core host");
        }
        if a_ran_on != caller {
            assert_eq!(nested_on, [true, true], "a nested join is inline");
        }
        // From the caller half of an outer join the helper is busy or
        // absent: everything runs on this thread.
        let ((), inner) = join(
            || (),
            || {
                join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                )
            },
        );
        assert_eq!(inner, (caller, caller));
    }

    #[test]
    fn threads_hammering_join_run_every_half_exactly_once() {
        let forked_before = helper().forked.get();
        let deadline = Instant::now() + Duration::from_secs(1);
        let joins: usize = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut joins = 0usize;
                        while Instant::now() < deadline {
                            let (mut left, mut right) = (0u32, 0u32);
                            let (l, r) = join(
                                || {
                                    left += 1;
                                    left
                                },
                                || {
                                    right += 1;
                                    right
                                },
                            );
                            assert_eq!((l, r, left, right), (1, 1, 1, 1));
                            joins += 1;
                        }
                        joins
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("hammer thread"))
                .sum()
        });
        assert!(joins > 0);
        if helper().pool.is_some() {
            assert!(
                helper().forked.get() > forked_before,
                "{joins} joins and the helper took none"
            );
        }
    }

    #[test]
    fn join_resurfaces_panics_and_stays_usable() {
        for panicking_half in [0, 1] {
            let result = catch_unwind(|| {
                join(
                    || assert_ne!(panicking_half, 0, "deliberate test panic"),
                    || assert_ne!(panicking_half, 1, "deliberate test panic"),
                )
            });
            assert!(result.is_err(), "half {panicking_half}");
        }
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn telemetry_records_rounds_and_park_time() {
        let pool = ParkingPool::new("parked-obs", 1);
        for _ in 0..5 {
            assert!(pool.try_fork(|| (), || ()).is_ok());
        }
        drop(pool);
        let snap = pop_obs::global().snapshot();
        assert!(snap.counter("exec.pool.parked-obs.rounds").unwrap_or(0) >= 5);
        let park = snap.histogram("exec.pool.parked-obs.park_us");
        assert!(park.is_some_and(|h| h.count > 0), "park_us must be fed");
    }
}
