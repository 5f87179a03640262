//! Module allocation on a long-lived worker pool.
//!
//! Register allocation is embarrassingly parallel across functions: each
//! [`allocate`](crate::allocate) call reads one [`Function`] and shares nothing with its
//! siblings. [`WorkerPool`] is the one engine that allocates a module: its
//! workers live as long as the pool, concurrent callers (e.g. the in-flight
//! window of one `optimist-serve` connection, or `optimist allocate` on one
//! module) feed jobs into a shared earliest-deadline-first queue and block
//! only for their own results, and each caller gets its results back in
//! input order no matter which worker finished first. The *per-function
//! results are identical for every pool size* because each allocation is a
//! pure function of its input — the determinism proptests in the workspace
//! root pin this down.
//!
//! A panic inside a worker is contained to the function being allocated: it
//! surfaces as [`AllocError::WorkerPanic`] for that function and the rest of
//! the module is still allocated.

use crate::allocator::{allocate_with_deadline, AllocError, Allocation, AllocatorConfig};
use crate::deadline::Deadline;
use optimist_ir::{Function, Module};
use std::collections::{BinaryHeap, HashMap};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// A long-lived allocation worker pool, shared across callers.
///
/// A `WorkerPool` keeps `threads` workers alive for its whole lifetime;
/// concurrent callers submit jobs into one shared queue and each gets its
/// own results back in input order. Jobs carry their own
/// [`AllocatorConfig`], so one pool serves requests with different
/// configurations. The pool size is pure scheduling: it never changes a
/// result.
///
/// Dispatch is **earliest-deadline-first**: workers always take the queued
/// job whose [`Deadline`] expires soonest, with unbounded jobs after every
/// bounded one and FIFO order inside a tie. Under backlog that minimizes
/// missed deadlines — a job with ample budget can afford to wait, one with
/// little cannot — and it composes with the expired-at-dequeue shed: a job
/// whose token ran out while queued is failed in O(1) instead of occupying
/// a worker.
///
/// A panic inside a job is contained: the function's slot gets
/// [`AllocError::WorkerPanic`] and the worker thread survives to take the
/// next job.
#[derive(Debug)]
pub struct WorkerPool {
    queue: Arc<EdfQueue>,
    pending: Arc<AtomicUsize>,
    threads: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

struct Job {
    func: Function,
    config: AllocatorConfig,
    /// The submitting request's deadline: orders the job in the EDF queue,
    /// and a job whose token expired while it sat there fails immediately
    /// instead of occupying a worker.
    deadline: Deadline,
    index: usize,
    out: mpsc::Sender<(usize, Result<Allocation, AllocError>)>,
}

/// A queued job plus its EDF sort key. `BinaryHeap` is a max-heap, so the
/// ordering is inverted: the *greatest* entry is the one a worker should
/// take next — soonest deadline first, unbounded (`None`) after every
/// bounded deadline, and lower submission sequence (FIFO) inside a tie.
struct PrioJob {
    expires: Option<Instant>,
    seq: u64,
    job: Job,
}

impl PartialEq for PrioJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PrioJob {}

impl PartialOrd for PrioJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PrioJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_deadline = match (self.expires, other.expires) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        };
        by_deadline.then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pool's shared submission queue: a deadline-ordered heap behind a
/// mutex, with a condvar to park idle workers.
struct EdfQueue {
    state: Mutex<EdfState>,
    available: Condvar,
}

struct EdfState {
    heap: BinaryHeap<PrioJob>,
    /// Monotonic submission counter: the FIFO tie-break for equal (or both
    /// absent) deadlines.
    seq: u64,
    closed: bool,
}

impl std::fmt::Debug for EdfQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("pool queue lock poisoned");
        f.debug_struct("EdfQueue")
            .field("queued", &state.heap.len())
            .field("closed", &state.closed)
            .finish()
    }
}

impl EdfQueue {
    fn new() -> Self {
        EdfQueue {
            state: Mutex::new(EdfState {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueue one job under EDF order.
    ///
    /// # Panics
    ///
    /// Panics if the pool has been shut down.
    fn push(&self, job: Job) {
        let mut state = self.state.lock().expect("pool queue lock poisoned");
        assert!(!state.closed, "pool already shut down");
        let seq = state.seq;
        state.seq += 1;
        state.heap.push(PrioJob {
            expires: job.deadline.expires_at(),
            seq,
            job,
        });
        drop(state);
        self.available.notify_one();
    }

    /// Block until a job is available or the queue is closed *and* drained;
    /// `None` tells the worker to exit.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("pool queue lock poisoned");
        loop {
            if let Some(prio) = state.heap.pop() {
                return Some(prio.job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("pool queue lock poisoned");
        }
    }

    /// Close the queue: workers drain what is already queued, then exit.
    fn close(&self) {
        self.state.lock().expect("pool queue lock poisoned").closed = true;
        self.available.notify_all();
    }
}

impl WorkerPool {
    /// Spawn a pool of `threads` long-lived allocation workers.
    pub fn new(threads: NonZeroUsize) -> Self {
        let queue = Arc::new(EdfQueue::new());
        let pending = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads.get())
            .map(|_| {
                let queue = Arc::clone(&queue);
                let pending = Arc::clone(&pending);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        pending.fetch_sub(1, Ordering::Relaxed);
                        // EDF's cheap half: a job whose deadline passed while
                        // it queued is dropped at dequeue instead of occupying
                        // the worker for a build phase it cannot finish.
                        let result = if job.deadline.expired() {
                            Err(AllocError::DeadlineExceeded {
                                function: job.func.name().to_string(),
                                passes: 0,
                            })
                        } else {
                            allocate_caught(&job.func, &job.config, &job.deadline)
                        };
                        // The caller may have gone away (its receiver
                        // dropped); the job's work is simply discarded then.
                        let _ = job.out.send((job.index, result));
                    }
                })
            })
            .collect();
        WorkerPool {
            queue,
            pending,
            threads: threads.get(),
            workers,
        }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs submitted but not yet picked up by a worker — the queue depth
    /// an arriving job sees. Racy by nature; meant for observability.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Allocate every function in `funcs` under `config` on the pool's
    /// workers, returning one result per input in input order. Blocks until
    /// every job is done. Safe to call from many threads at once: jobs from
    /// concurrent callers interleave in the shared queue, but each caller
    /// only sees its own results. Each function moves into its job, so a
    /// caller that still needs its functions clones them once, here.
    pub fn allocate_functions(
        &self,
        config: &AllocatorConfig,
        funcs: Vec<Function>,
    ) -> Vec<Result<Allocation, AllocError>> {
        self.allocate_functions_with_deadline(config, funcs, &Deadline::none())
    }

    /// [`WorkerPool::allocate_functions`] under a cooperative [`Deadline`]
    /// shared by every job of the call: the deadline orders the jobs in the
    /// pool's EDF queue, and expired jobs fail with
    /// [`AllocError::DeadlineExceeded`] at their next phase boundary (or
    /// immediately, if the token expired while they were queued) — a slow
    /// request cannot wedge a worker past its budget.
    pub fn allocate_functions_with_deadline(
        &self,
        config: &AllocatorConfig,
        funcs: Vec<Function>,
        deadline: &Deadline,
    ) -> Vec<Result<Allocation, AllocError>> {
        if funcs.is_empty() {
            return Vec::new();
        }
        let n = funcs.len();
        let (out_tx, out_rx) = mpsc::channel();
        for (index, func) in funcs.into_iter().enumerate() {
            self.pending.fetch_add(1, Ordering::Relaxed);
            self.queue.push(Job {
                func,
                config: config.clone(),
                deadline: deadline.clone(),
                index,
                out: out_tx.clone(),
            });
        }
        drop(out_tx);
        let mut slots: Vec<Option<Result<Allocation, AllocError>>> = (0..n).map(|_| None).collect();
        for (index, result) in out_rx {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job produced a result"))
            .collect()
    }

    /// Allocate every function of `module` under `config` on the pool's
    /// workers, preserving the module's function order in the result.
    pub fn allocate_module(&self, config: &AllocatorConfig, module: &Module) -> ModuleAllocation {
        let results = self
            .allocate_functions(config, module.functions().to_vec())
            .into_iter()
            .zip(module.functions())
            .map(|(r, f)| (f.name().to_string(), r))
            .collect();
        ModuleAllocation { results }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue so workers drain and exit, then join them.
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The default [`WorkerPool`] size: the machine's available parallelism,
/// or 1 if it cannot be determined.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Allocate one function under a deadline, converting a panic into
/// [`AllocError::WorkerPanic`] so a bad function cannot take down the rest
/// of a module (or a pool worker thread).
fn allocate_caught(
    func: &Function,
    config: &AllocatorConfig,
    deadline: &Deadline,
) -> Result<Allocation, AllocError> {
    catch_unwind(AssertUnwindSafe(|| {
        allocate_with_deadline(func, config, deadline)
    }))
    .unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(AllocError::WorkerPanic {
            function: func.name().to_string(),
            message,
        })
    })
}

/// The outcome of [`WorkerPool::allocate_module`]: one result per function,
/// in module function order.
#[derive(Debug)]
pub struct ModuleAllocation {
    /// `(function name, allocation result)` pairs in module order.
    pub results: Vec<(String, Result<Allocation, AllocError>)>,
}

impl ModuleAllocation {
    /// True if every function allocated successfully.
    pub fn is_ok(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_ok())
    }

    /// The successful allocations as a name → allocation map, or the first
    /// error in module function order.
    ///
    /// # Errors
    ///
    /// Returns the error of the first (in module order) function that
    /// failed to allocate.
    pub fn into_map(self) -> Result<HashMap<String, Allocation>, AllocError> {
        let mut map = HashMap::with_capacity(self.results.len());
        for (name, result) in self.results {
            map.insert(name, result?);
        }
        Ok(map)
    }

    /// Iterate over `(name, result)` pairs in module function order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Result<Allocation, AllocError>)> {
        self.results.iter().map(|(n, r)| (n.as_str(), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{allocate, Strategy};
    use optimist_ir::{BinOp, FunctionBuilder, RegClass};
    use optimist_machine::Target;
    use std::num::NonZeroUsize;

    fn pressure_function(name: &str, n: usize) -> Function {
        let mut b = FunctionBuilder::new(name);
        b.set_ret_class(Some(RegClass::Int));
        let vals: Vec<_> = (0..n).map(|i| b.int(i as i64)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.binv(BinOp::AddI, acc, v);
        }
        b.ret(Some(acc));
        b.finish()
    }

    fn test_module(k: usize) -> Module {
        let mut m = Module::new();
        for i in 0..k {
            m.add_function(pressure_function(&format!("f{i}"), 4 + i * 3));
        }
        m
    }

    fn config() -> AllocatorConfig {
        AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs)
    }

    fn pool(threads: usize) -> WorkerPool {
        WorkerPool::new(NonZeroUsize::new(threads).unwrap())
    }

    /// The per-function facts that must not depend on scheduling.
    fn fingerprint(a: &Allocation) -> (usize, usize, Vec<(RegClass, u16)>, usize) {
        (
            a.stats.registers_spilled,
            a.stats.passes,
            a.assignment.iter().map(|r| (r.class, r.index)).collect(),
            a.func.num_insts(),
        )
    }

    #[test]
    fn parallel_results_match_sequential_in_order() {
        let m = test_module(7);
        let seq = pool(1).allocate_module(&config(), &m);
        for threads in [2, 4, 8] {
            let par = pool(threads).allocate_module(&config(), &m);
            assert_eq!(par.results.len(), seq.results.len());
            for ((n1, r1), (n2, r2)) in seq.results.iter().zip(&par.results) {
                assert_eq!(n1, n2, "function order must be the module's");
                let (a1, a2) = (r1.as_ref().unwrap(), r2.as_ref().unwrap());
                assert_eq!(fingerprint(a1), fingerprint(a2), "{threads} threads");
            }
        }
    }

    #[test]
    fn more_threads_than_functions_is_fine() {
        let m = test_module(2);
        let out = pool(16).allocate_module(&config(), &m);
        assert!(out.is_ok());
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn empty_module_allocates_to_empty_map() {
        let m = Module::new();
        let out = pool(4).allocate_module(&config(), &m);
        assert!(out.is_ok());
        assert!(out.into_map().unwrap().is_empty());
    }

    #[test]
    fn worker_panic_is_contained_to_its_function() {
        // An invalid function (Ret of an out-of-range vreg) makes the
        // allocator panic; the pool must turn that into WorkerPanic and
        // still allocate the healthy functions.
        let mut m = Module::new();
        m.add_function(pressure_function("good0", 6));
        let mut bad = pressure_function("bad", 4);
        bad.block_mut(bad.entry())
            .insts
            .push(optimist_ir::Inst::Ret {
                value: Some(optimist_ir::VReg::new(9999)),
            });
        m.add_function(bad);
        m.add_function(pressure_function("good1", 9));

        for threads in [1, 4] {
            let out = pool(threads).allocate_module(&config(), &m);
            assert!(!out.is_ok());
            let by_name: Vec<_> = out.iter().collect();
            assert!(by_name[0].1.is_ok());
            assert!(matches!(
                by_name[1].1,
                Err(AllocError::WorkerPanic { ref function, .. }) if function == "bad"
            ));
            assert!(by_name[2].1.is_ok());
            // into_map surfaces the bad function's error.
            let err = out.into_map().unwrap_err();
            assert!(matches!(err, AllocError::WorkerPanic { .. }));
        }
    }

    #[test]
    fn pool_results_match_direct_allocation_in_order() {
        let m = test_module(7);
        let cfg = config();
        for threads in [1, 4] {
            let via_pool = pool(threads).allocate_functions(&cfg, m.functions().to_vec());
            for (f, r) in m.functions().iter().zip(&via_pool) {
                let direct = allocate(f, &cfg).unwrap();
                assert_eq!(fingerprint(r.as_ref().unwrap()), fingerprint(&direct));
            }
        }
    }

    #[test]
    fn pool_is_shared_by_concurrent_callers() {
        let pool = Arc::new(pool(2));
        let callers: Vec<_> = (0..4)
            .map(|caller| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let cfg = config();
                    let m = test_module(3 + caller);
                    let results = pool.allocate_functions(&cfg, m.functions().to_vec());
                    assert_eq!(results.len(), 3 + caller);
                    for (f, r) in m.functions().iter().zip(&results) {
                        let direct = allocate(f, &cfg).unwrap();
                        assert_eq!(fingerprint(r.as_ref().unwrap()), fingerprint(&direct));
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
    }

    #[test]
    fn pool_worker_survives_a_panicking_function() {
        let pool = pool(1);
        let cfg = config();
        let mut bad = pressure_function("bad", 4);
        bad.block_mut(bad.entry())
            .insts
            .push(optimist_ir::Inst::Ret {
                value: Some(optimist_ir::VReg::new(9999)),
            });
        let results = pool.allocate_functions(&cfg, vec![bad]);
        assert!(matches!(
            results[0],
            Err(AllocError::WorkerPanic { ref function, .. }) if function == "bad"
        ));
        // The single worker took the panic and must still serve new jobs.
        let good = pressure_function("good", 6);
        let results = pool.allocate_functions(&cfg, vec![good]);
        assert!(results[0].is_ok());
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn expired_deadline_fails_jobs_without_wedging_workers() {
        let pool = pool(1);
        let cfg = config();
        let funcs = [pressure_function("slow", 40)];
        let results = pool.allocate_functions_with_deadline(
            &cfg,
            funcs.to_vec(),
            &Deadline::after(std::time::Duration::ZERO),
        );
        assert!(matches!(
            results[0],
            Err(AllocError::DeadlineExceeded { ref function, passes: 0 }) if function == "slow"
        ));
        // The worker shed the job at its first check and is free again.
        let results = pool.allocate_functions(&cfg, funcs.to_vec());
        assert!(results[0].is_ok());
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn edf_queue_orders_by_deadline_then_fifo() {
        // Drive the queue directly (no workers) so the order is observable
        // deterministically: soonest deadline first, unbounded last, FIFO
        // among equals.
        let queue = EdfQueue::new();
        let (out, _keep) = mpsc::channel();
        let base = Instant::now() + std::time::Duration::from_secs(3600);
        let mk = |index: usize, deadline: Deadline| Job {
            func: pressure_function("f", 4),
            config: config(),
            deadline,
            index,
            out: out.clone(),
        };
        queue.push(mk(0, Deadline::none()));
        queue.push(mk(
            1,
            Deadline::at(base + std::time::Duration::from_secs(20)),
        ));
        queue.push(mk(2, Deadline::at(base)));
        queue.push(mk(3, Deadline::none()));
        queue.push(mk(4, Deadline::at(base))); // ties with 2 → FIFO after it
        let order: Vec<usize> = (0..5).map(|_| queue.pop().unwrap().index).collect();
        assert_eq!(order, [2, 4, 1, 0, 3]);
        // Closed and drained → workers are told to exit.
        queue.close();
        assert!(queue.pop().is_none());
    }

    #[test]
    fn edf_pool_serves_mixed_deadlines_correctly() {
        // End-to-end smoke over the EDF path: bounded (generous) and
        // unbounded callers share a pool and all complete correctly.
        let pool = pool(2);
        let cfg = config();
        let m = test_module(5);
        let bounded = pool.allocate_functions_with_deadline(
            &cfg,
            m.functions().to_vec(),
            &Deadline::after(std::time::Duration::from_secs(3600)),
        );
        let unbounded = pool.allocate_functions(&cfg, m.functions().to_vec());
        for (b, u) in bounded.iter().zip(&unbounded) {
            assert_eq!(
                fingerprint(b.as_ref().unwrap()),
                fingerprint(u.as_ref().unwrap())
            );
        }
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "pool already shut down")]
    fn submitting_to_a_closed_queue_panics() {
        let queue = EdfQueue::new();
        queue.close();
        let (out, _keep) = mpsc::channel();
        queue.push(Job {
            func: pressure_function("f", 4),
            config: config(),
            deadline: Deadline::none(),
            index: 0,
            out,
        });
    }

    #[test]
    fn unbounded_deadline_changes_nothing() {
        let f = pressure_function("f", 12);
        let cfg = config();
        let timed = allocate_with_deadline(&f, &cfg, &Deadline::none()).unwrap();
        let plain = allocate(&f, &cfg).unwrap();
        assert_eq!(fingerprint(&timed), fingerprint(&plain));
    }

    #[test]
    fn into_map_keys_are_function_names() {
        let m = test_module(4);
        let map = pool(2).allocate_module(&config(), &m).into_map().unwrap();
        assert_eq!(map.len(), 4);
        for i in 0..4 {
            assert!(map.contains_key(&format!("f{i}")));
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The EDF queue's whole contract in one property: for ANY mix of
        /// bounded and unbounded deadlines, pop order equals a stable sort
        /// by (deadline, unbounded last), with submission order breaking
        /// ties — including duplicated deadlines, all-unbounded, and
        /// single-job inputs.
        ///
        /// Deadlines are encoded as `(bounded, offset)` pairs: `bounded =
        /// false` means `Deadline::none()`; offsets are coarse (0..6 s)
        /// so duplicates — the FIFO-tie case — are common, and anchored
        /// an hour out so nothing expires mid-test.
        #[test]
        fn edf_pop_order_is_a_stable_deadline_sort(
            specs in proptest::collection::vec((proptest::prelude::any::<bool>(), 0u64..6), 1..24),
        ) {
            let queue = EdfQueue::new();
            let (out, _keep) = mpsc::channel();
            let base = Instant::now() + std::time::Duration::from_secs(3600);
            for (index, &(bounded, offset)) in specs.iter().enumerate() {
                let deadline = if bounded {
                    Deadline::at(base + std::time::Duration::from_secs(offset))
                } else {
                    Deadline::none()
                };
                queue.push(Job {
                    func: pressure_function("f", 4),
                    config: config(),
                    deadline,
                    index,
                    out: out.clone(),
                });
            }

            // Reference order: stable sort on (unbounded-last, offset);
            // stability preserves submission order inside every tie.
            let mut expected: Vec<usize> = (0..specs.len()).collect();
            expected.sort_by_key(|&i| match specs[i] {
                (true, offset) => (0u8, offset),
                (false, _) => (1u8, 0),
            });

            let popped: Vec<usize> = (0..specs.len())
                .map(|_| queue.pop().unwrap().index)
                .collect();
            prop_assert_eq!(popped, expected);

            // Drained + closed → workers are told to exit.
            queue.close();
            prop_assert!(queue.pop().is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Expired work is shed at dequeue, and only expired work: any
        /// interleaving of already-expired and generously-bounded jobs
        /// through a real pool answers `DeadlineExceeded{passes: 0}` for
        /// exactly the expired ones — never a wedged worker, never a shed
        /// healthy job. (Few cases: each runs real allocations.)
        #[test]
        fn only_expired_jobs_are_shed_at_dequeue(
            expired in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..6),
        ) {
            let pool = pool(1);
            let cfg = config();
            let funcs = [pressure_function("p", 8)];
            for &is_expired in &expired {
                let deadline = if is_expired {
                    Deadline::after(std::time::Duration::ZERO)
                } else {
                    Deadline::after(std::time::Duration::from_secs(3600))
                };
                let results = pool.allocate_functions_with_deadline(&cfg, funcs.to_vec(), &deadline);
                if is_expired {
                    prop_assert!(matches!(
                        results[0],
                        Err(AllocError::DeadlineExceeded { passes: 0, .. })
                    ));
                } else {
                    prop_assert!(results[0].is_ok());
                }
            }
            prop_assert_eq!(pool.pending(), 0);
        }
    }
}
