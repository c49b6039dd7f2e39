//! A persistent SPMD worker pool.
//!
//! [`WorkerPool::run`] executes one closure on every worker with the
//! worker's thread id as argument and blocks until all workers finish —
//! the shape of every parallel region in the paper's kernels (multiply
//! phase, then reduction phase). Workers persist across calls, so the
//! 128-iteration measurement loops do not pay thread-spawn latency.
//!
//! # Soundness of the lifetime erasure
//!
//! `run` accepts a non-`'static` closure reference and transmutes it to
//! `'static` before handing it to the workers. This is the classic
//! scoped-pool argument (cf. `scoped_threadpool`): the closure cannot dangle
//! because `run` blocks until every worker has acknowledged completion, and
//! `&mut self` prevents two overlapping `run` calls from interleaving jobs.
//! A worker panic is caught, forwarded, and re-raised on the caller thread
//! after all workers have finished the round.
//!
//! # Supervision
//!
//! Every round starts with a cooperative checkpoint against the pool's
//! [`SupervisionCell`]: a cancelled token or expired [`Deadline`] unwinds
//! the *calling* thread with an [`Interrupt`] payload before any worker is
//! dispatched. A supervised round is additionally waited on with a timeout
//! (the watchdog): the instant a worker overruns the deadline the shared
//! [`HealthState`] is marked [`Wedged`](crate::PoolHealth::Wedged) —
//! observable by concurrent callers without the pool lock — and the wait
//! then *blocks* until the round drains, because the scoped-closure
//! soundness argument above forbids returning while any worker still holds
//! the erased borrow. Tardy and panicked workers are respawned before the
//! caller regains control, so the pool is always reusable on every exit
//! path. A worker that never returns keeps the caller blocked; bounding
//! that requires process-level isolation, which is out of scope — the
//! watchdog bounds *detection* latency and keeps concurrent requests
//! routable to the serial fallback.

use std::any::Any;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
use crate::supervisor::{Deadline, HealthState, Interrupt, SupervisionCell};

thread_local! {
    /// Count of pools constructed by this thread.
    ///
    /// The [`ExecutionContext`](crate::ExecutionContext) refactor promises
    /// that a whole harness sweep (or a full CG solve) creates exactly one
    /// pool; tests assert that promise by sampling this counter before and
    /// after. It is per thread so that tests running in parallel do not
    /// see each other's pools.
    static POOLS_CREATED: Cell<usize> = const { Cell::new(0) };
}

/// The closure signature workers execute: SPMD body receiving a thread id.
type SpmdRef<'a> = &'a (dyn Fn(usize) + Sync);
type SpmdStatic = &'static (dyn Fn(usize) + Sync);

enum Command {
    Run(SpmdStatic),
    Shutdown,
}

/// Outcome of one worker round: the reporting worker's id plus `Ok` or the
/// captured panic payload. Carrying the id on *success* too lets the
/// watchdog identify exactly which workers were still outstanding when a
/// deadline fired.
type RoundResult = (usize, Result<(), Box<dyn Any + Send>>);

/// Best-effort human-readable rendering of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A worker panic captured by [`WorkerPool::try_run`]: which worker died
/// and the payload it died with.
///
/// The round is guaranteed to have fully drained before this value exists —
/// no worker is still executing user code — so the caller may safely reuse
/// the pool, [`resume`](WorkerPanic::resume) the unwind, or convert the
/// panic into a structured error.
pub struct WorkerPanic {
    tid: usize,
    payload: Box<dyn Any + Send>,
}

impl WorkerPanic {
    /// Thread id of the worker that panicked (first one, if several did).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The panic message, when the payload was a string (the common case);
    /// a placeholder otherwise.
    pub fn message(&self) -> String {
        panic_message(&*self.payload)
    }

    /// A plain-data snapshot (tid + message) of this panic.
    pub fn info(&self) -> WorkerPanicInfo {
        WorkerPanicInfo {
            tid: self.tid,
            message: self.message(),
        }
    }

    /// Continues unwinding on the current thread with the original payload.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }

    /// Consumes the capture, yielding the raw panic payload.
    pub fn into_payload(self) -> Box<dyn Any + Send> {
        self.payload
    }
}

impl std::fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPanic")
            .field("tid", &self.tid)
            .field("message", &self.message())
            .finish()
    }
}

/// Plain-data record of the most recent worker panic (tid + message),
/// retained by the pool so panics re-raised through several layers (e.g. a
/// reduction strategy running rounds inside `with_pool`) can still be
/// reported as structured errors by the outermost caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanicInfo {
    /// Thread id of the worker that panicked.
    pub tid: usize,
    /// Rendered panic message.
    pub message: String,
}

/// A fixed-size pool of persistent worker threads executing SPMD regions.
///
/// ```
/// use symspmv_runtime::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let mut pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(&|tid| {
///     hits.fetch_add(tid + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
    cmd_txs: Vec<SyncSender<Command>>,
    done_rx: Receiver<RoundResult>,
    /// Master clone of the result sender, kept so respawned workers can be
    /// handed a fresh clone for the lifetime of the pool.
    done_tx: SyncSender<RoundResult>,
    last_panic: Option<WorkerPanicInfo>,
    /// Rounds dispatched on this pool (including panicked ones).
    rounds: usize,
    supervision: Arc<SupervisionCell>,
    health: Arc<HealthState>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<Arc<FaultPlan>>,
}

impl WorkerPool {
    /// Spawns a pool with `nthreads` workers (ids `0..nthreads`).
    ///
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a pool needs at least one worker");
        POOLS_CREATED.with(|c| c.set(c.get() + 1));
        let (done_tx, done_rx) = sync_channel::<RoundResult>(nthreads);
        let mut cmd_txs = Vec::with_capacity(nthreads);
        let mut handles = Vec::with_capacity(nthreads);
        for tid in 0..nthreads {
            let (tx, handle) = spawn_worker(tid, done_tx.clone());
            cmd_txs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            handles,
            cmd_txs,
            done_rx,
            done_tx,
            last_panic: None,
            rounds: 0,
            supervision: Arc::new(SupervisionCell::default()),
            health: Arc::new(HealthState::default()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    /// Number of rounds ever dispatched on this pool.
    ///
    /// Kernel tests use the delta across a call to pin down exactly which
    /// phases ran — e.g. that a `p = 1` symmetric spmv skips the reduction
    /// round entirely.
    pub fn rounds_run(&self) -> usize {
        self.rounds
    }

    /// Number of workers.
    pub fn nthreads(&self) -> usize {
        self.cmd_txs.len()
    }

    /// How many pools the calling thread has constructed so far. Pools
    /// built on other threads are not counted.
    pub fn pools_created() -> usize {
        POOLS_CREATED.with(Cell::get)
    }

    /// The supervision slot consulted at every round checkpoint. The
    /// context keeps a clone so a request's deadline/token can be installed
    /// without the pool lock.
    pub fn supervision_cell(&self) -> Arc<SupervisionCell> {
        Arc::clone(&self.supervision)
    }

    /// The shared health record of this pool (lock-free reads).
    pub fn health_state(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// Executes `body(tid)` on every worker and blocks until all complete.
    ///
    /// If any worker panics, the panic is re-raised here after the round has
    /// fully drained (no worker is left running user code). A record of the
    /// panic remains readable via [`WorkerPool::take_last_panic`].
    pub fn run<'a>(&mut self, body: SpmdRef<'a>) {
        if let Err(p) = self.try_run(body) {
            p.resume();
        }
    }

    /// Like [`WorkerPool::run`], but a worker panic is returned as a
    /// [`WorkerPanic`] value instead of being re-raised. On `Err` the round
    /// has fully drained and the pool is immediately reusable.
    ///
    /// When supervision is installed on this pool, a cancelled token or
    /// expired deadline instead unwinds the calling thread with an
    /// [`Interrupt`] payload (never a worker panic) — the fallible kernel
    /// entry points downcast it back into a typed error.
    pub fn try_run<'a>(&mut self, body: SpmdRef<'a>) -> Result<(), WorkerPanic> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = &self.fault {
            let plan = Arc::clone(plan);
            let round = plan.begin_round();
            let wrapped = move |tid: usize| {
                plan.worker_hook(round, tid);
                body(tid);
            };
            return self.dispatch(&wrapped);
        }
        self.dispatch(body)
    }

    fn dispatch<'a>(&mut self, body: SpmdRef<'a>) -> Result<(), WorkerPanic> {
        // Cooperative checkpoint: a supervised request stops at the next
        // phase boundary. The unwind passes through `BufferLease` drops,
        // which scrub on panic, so the arena invariant survives.
        let deadline = match self.supervision.snapshot() {
            Some(sup) => {
                if sup.cancel.poll() {
                    std::panic::panic_any(Interrupt::Cancelled);
                }
                if let Some(d) = sup.deadline {
                    if d.expired() {
                        std::panic::panic_any(Interrupt::DeadlineExceeded { wedged: false });
                    }
                }
                sup.deadline
            }
            None => None,
        };
        self.rounds += 1;
        #[cfg(feature = "race-detector")]
        {
            // Tag every worker with its (tid, round-epoch) identity for the
            // shadow-memory detector, then run the round through the normal
            // path. The tag is cleared even when the body panics — the
            // worker loop catches the unwind, so the closure's own cleanup
            // would be skipped; an explicit drop guard is not needed because
            // a stale tag is overwritten at the next round start and workers
            // never write between rounds.
            let epoch = crate::race::next_epoch();
            let traced = move |tid: usize| {
                crate::race::set_current(tid, epoch);
                body(tid);
                crate::race::clear_current();
            };
            return self.dispatch_inner(&traced, deadline);
        }
        #[cfg(not(feature = "race-detector"))]
        self.dispatch_inner(body, deadline)
    }

    fn dispatch_inner<'a>(
        &mut self,
        body: SpmdRef<'a>,
        deadline: Option<Deadline>,
    ) -> Result<(), WorkerPanic> {
        // SAFETY(cert: pool-barrier): the classic scoped-pool argument (see
        // module docs) — the erased borrow cannot dangle because this frame
        // blocks until every worker acknowledges completion below (the
        // watchdog arm only flags health and then keeps blocking; no exit
        // path skips the drain), and `&mut self` serializes rounds so no
        // other job aliases the slot.
        let body_static: SpmdStatic = unsafe { std::mem::transmute(body) };
        for tx in &self.cmd_txs {
            // Workers only exit on an explicit Shutdown (they catch kernel
            // panics), so a closed channel mid-round cannot happen.
            tx.send(Command::Run(body_static))
                .unwrap_or_else(|_| unreachable!("worker command channel closed mid-round"));
        }
        let n = self.cmd_txs.len();
        let mut reported = vec![false; n];
        let mut panicked: Vec<usize> = Vec::new();
        let mut tardy: Vec<usize> = Vec::new();
        let mut wedged = false;
        let mut first: Option<WorkerPanic> = None;
        let mut received = 0usize;
        while received < n {
            let msg = match deadline.filter(|_| !wedged) {
                Some(d) => match self.done_rx.recv_timeout(d.remaining()) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        // Watchdog: a worker overran the deadline. Mark the
                        // pool Wedged *now* so concurrent requests observe
                        // it and route to the fallback, then keep draining —
                        // returning early would dangle the erased borrow.
                        wedged = true;
                        self.health.mark_wedged();
                        tardy = (0..n).filter(|&t| !reported[t]).collect();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("worker result channel closed mid-round")
                    }
                },
                None => self
                    .done_rx
                    .recv()
                    .unwrap_or_else(|_| unreachable!("worker result channel closed mid-round")),
            };
            received += 1;
            let (tid, outcome) = msg;
            reported[tid] = true;
            if let Err(payload) = outcome {
                panicked.push(tid);
                if first.is_none() {
                    first = Some(WorkerPanic { tid, payload });
                }
            }
        }
        // The round has drained; every exit path below leaves the pool
        // reusable. Respawn every worker that panicked, and every worker
        // that was still outstanding when the watchdog fired (a tardy
        // worker finished eventually, but cannot be distinguished from one
        // stuck in a slow-degrading state — a fresh thread is cheap).
        for &tid in &panicked {
            self.health.record_failure();
            self.respawn_worker(tid);
        }
        if let Some(p) = &first {
            self.last_panic = Some(p.info());
        }
        if wedged {
            for &tid in &tardy {
                if !panicked.contains(&tid) {
                    self.respawn_worker(tid);
                }
            }
            self.health.unwedge();
            std::panic::panic_any(Interrupt::DeadlineExceeded { wedged: true });
        }
        match first {
            Some(p) => Err(p),
            None => {
                self.health.record_success();
                Ok(())
            }
        }
    }

    /// Replaces worker `tid` with a freshly spawned thread: the old worker
    /// (idle between rounds by the drain guarantee) is shut down and
    /// joined, and the respawn is counted on the shared health record.
    fn respawn_worker(&mut self, tid: usize) {
        let (tx, handle) = spawn_worker(tid, self.done_tx.clone());
        let old_tx = std::mem::replace(&mut self.cmd_txs[tid], tx);
        let _ = old_tx.send(Command::Shutdown);
        let old_handle = std::mem::replace(&mut self.handles[tid], handle);
        let _ = old_handle.join();
        self.health.record_respawn();
    }

    /// Takes (and clears) the record of the most recent worker panic.
    ///
    /// Set by both [`WorkerPool::run`] and [`WorkerPool::try_run`]; lets a
    /// caller that caught a re-raised panic several layers up recover which
    /// worker died without threading the payload through those layers.
    pub fn take_last_panic(&mut self) -> Option<WorkerPanicInfo> {
        self.last_panic.take()
    }

    /// Attaches a fault plan consulted at the start of every round; workers
    /// then apply any fault armed for their (round, tid) coordinate.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }
}

fn spawn_worker(
    tid: usize,
    done: SyncSender<RoundResult>,
) -> (SyncSender<Command>, JoinHandle<()>) {
    let (tx, rx) = sync_channel::<Command>(1);
    let handle = std::thread::Builder::new()
        .name(format!("symspmv-worker-{tid}"))
        .spawn(move || worker_loop(tid, rx, done))
        .unwrap_or_else(|e| panic!("failed to spawn worker thread {tid}: {e}"));
    (tx, handle)
}

fn worker_loop(tid: usize, rx: Receiver<Command>, done: SyncSender<RoundResult>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Run(body) => {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| body(tid)));
                // The caller counts acknowledgements; it cannot have dropped
                // the receiver mid-round, but a panic on the caller side
                // after the round is none of our business — ignore failures.
                let _ = done.send((tid, outcome));
            }
            Command::Shutdown => break,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Command::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{CancelToken, PoolHealth, Supervision};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_threads_run_with_distinct_ids() {
        let mut pool = WorkerPool::new(4);
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn borrows_stack_data() {
        let data: Vec<usize> = (0..100).collect();
        let mut out = vec![0usize; 4];
        let out_ptr = std::sync::Mutex::new(&mut out);
        let mut pool = WorkerPool::new(4);
        pool.run(&|tid| {
            let chunk: usize = data[tid * 25..(tid + 1) * 25].iter().sum();
            out_ptr.lock().unwrap()[tid] = chunk;
        });
        assert_eq!(out.iter().sum::<usize>(), 4950);
    }

    #[test]
    fn sequential_rounds_reuse_workers() {
        let mut pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // Pool is still usable after a panicked round.
        let counter = AtomicUsize::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn multiple_worker_panics_reraise_exactly_once_and_pool_survives() {
        // Regression test for the panic path: even when *every* worker
        // panics in the same round, the caller sees exactly one re-raised
        // panic (not one per worker), and the pool stays usable afterwards.
        let mut pool = WorkerPool::new(4);
        let raised = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| panic!("worker {tid} failed"));
        }));
        if res.is_err() {
            raised.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(raised.load(Ordering::Relaxed), 1);
        let payload = res.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| panic!("unexpected payload type"));
        assert!(msg.contains("failed"), "payload: {msg}");

        // The round fully drained: a subsequent run executes on all workers
        // without deadlocking or seeing stale panic payloads.
        for _ in 0..3 {
            let counter = AtomicUsize::new(0);
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn pool_creation_counter_increments() {
        let before = WorkerPool::pools_created();
        let _a = WorkerPool::new(1);
        let _b = WorkerPool::new(2);
        assert_eq!(WorkerPool::pools_created(), before + 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn try_run_reports_tid_and_message_and_records_last_panic() {
        let mut pool = WorkerPool::new(4);
        let res = pool.try_run(&|tid| {
            if tid == 2 {
                panic!("round failed on {tid}");
            }
        });
        let p = res.unwrap_err();
        assert_eq!(p.tid(), 2);
        assert!(p.message().contains("round failed on 2"), "{}", p.message());
        let info = pool.take_last_panic().expect("panic must be recorded");
        assert_eq!(info.tid, 2);
        assert!(info.message.contains("round failed"));
        assert_eq!(pool.take_last_panic(), None, "take clears the record");

        // The pool is reusable straight off the Err path.
        let counter = AtomicUsize::new(0);
        pool.try_run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean round after a panicked one");
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_also_records_last_panic() {
        let mut pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        let info = pool.take_last_panic().expect("run must record the panic");
        assert_eq!(info.tid, 1);
    }

    #[test]
    fn fault_plan_kills_the_chosen_worker_in_the_chosen_round() {
        let plan = crate::fault::FaultPlan::new();
        let mut pool = WorkerPool::new(3);
        pool.set_fault_plan(Arc::clone(&plan));
        plan.arm_worker_panic(1, 1); // second round from now

        pool.try_run(&|_| {}).expect("round 0 is clean");
        let p = pool.try_run(&|_| {}).unwrap_err();
        assert_eq!(p.tid(), 1);
        assert!(p.message().contains("injected fault"), "{}", p.message());
        assert_eq!(plan.fired(), 1);
        pool.try_run(&|_| {}).expect("round 2 is clean again");
    }

    #[test]
    fn single_thread_pool_works() {
        let mut pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicked_worker_is_respawned_and_counted() {
        let mut pool = WorkerPool::new(3);
        let health = pool.health_state();
        assert_eq!(health.health(), PoolHealth::Healthy);
        let res = pool.try_run(&|tid| {
            if tid == 0 {
                panic!("die once");
            }
        });
        assert!(res.is_err());
        assert_eq!(health.failures(), 1);
        assert_eq!(health.respawns(), 1);
        assert_eq!(health.health(), PoolHealth::Degraded);

        // The replacement worker serves subsequent rounds (all ids present).
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b111);

        // Enough clean rounds heal the pool.
        for _ in 0..HealthState::RECOVERY_STREAK {
            pool.run(&|_| {});
        }
        assert_eq!(health.health(), PoolHealth::Healthy);
    }

    #[test]
    fn cancelled_token_interrupts_at_the_next_checkpoint() {
        let mut pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        pool.supervision_cell()
            .install(Supervision::with_cancel(cancel.clone()));
        cancel.cancel();
        let ran = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::Cancelled);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no worker was dispatched");

        // Clearing supervision restores normal service on the same pool.
        pool.supervision_cell().clear();
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn expired_deadline_interrupts_before_dispatch() {
        let mut pool = WorkerPool::new(2);
        pool.supervision_cell()
            .install(Supervision::deadline_within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|_| {});
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::DeadlineExceeded { wedged: false });
        pool.supervision_cell().clear();
    }

    #[test]
    fn watchdog_marks_pool_wedged_drains_and_respawns() {
        let mut pool = WorkerPool::new(3);
        let health = pool.health_state();
        pool.supervision_cell()
            .install(Supervision::deadline_within(Duration::from_millis(40)));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    // Sleeps well past the deadline: the watchdog must fire
                    // at ~40ms, not wait the full sleep before reporting.
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::DeadlineExceeded { wedged: true });
        assert_eq!(health.wedges(), 1);
        assert!(health.respawns() >= 1, "tardy worker must be respawned");
        // The drain completed and the wedge auto-downgraded.
        assert_eq!(health.health(), PoolHealth::Degraded);

        // The pool serves again immediately (supervision cleared).
        pool.supervision_cell().clear();
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b111);
    }

    #[test]
    fn fused_cancellation_lands_between_rounds() {
        let mut pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        pool.supervision_cell()
            .install(Supervision::with_cancel(cancel.clone()));
        cancel.cancel_after_checkpoints(1);
        let rounds = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // First round passes its checkpoint; the second trips.
            pool.run(&|tid| {
                if tid == 0 {
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
            pool.run(&|tid| {
                if tid == 0 {
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        assert!(res.is_err());
        assert_eq!(
            rounds.load(Ordering::Relaxed),
            1,
            "exactly one round ran before the fuse tripped"
        );
        pool.supervision_cell().clear();
    }
}
