//! Thread-pool request executor with a bounded queue and admission
//! control.
//!
//! Jobs are submitted with [`Executor::try_submit`], which **never
//! blocks**: if [`QUEUE_CAPACITY`] jobs are already waiting the job is
//! rejected immediately and the caller sheds the request with a
//! structured retry-after error. Workers pop jobs FIFO. Dropping the
//! executor stops the workers after the queued jobs drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Jobs that may wait for a worker; one more is shed. A plan search
/// takes milliseconds, so a full queue is tens of milliseconds of work
/// for the default four workers.
pub const QUEUE_CAPACITY: usize = 64;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    rejected: AtomicU64,
    executed: AtomicU64,
}

/// Fixed-size worker pool over a bounded FIFO queue.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// The queue was full: admission control rejected the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl Executor {
    /// Spawn `workers` worker threads (clamped to at least 1) feeding
    /// from a queue of at most [`QUEUE_CAPACITY`] pending jobs.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            rejected: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Executor { shared, workers }
    }

    /// Enqueue `job` if the queue has room; otherwise return
    /// [`QueueFull`] *immediately* — this call never blocks on a full
    /// queue.
    pub fn try_submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), QueueFull> {
        let mut queue = self.shared.queue.lock().expect("executor queue poisoned");
        if queue.jobs.len() >= QUEUE_CAPACITY {
            drop(queue);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(QueueFull);
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in the queue (a point-in-time gauge —
    /// used by shed logging and the Prometheus exposition).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("executor queue poisoned")
            .jobs
            .len()
    }

    /// Jobs rejected by admission control so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Jobs fully executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("executor queue poisoned");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("executor queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("executor queue poisoned");
            }
        };
        job();
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn executes_submitted_jobs() {
        let ex = Executor::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            ex.try_submit(move || tx.send(i).unwrap()).unwrap();
        }
        let mut got: Vec<i32> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        drop(ex);
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One worker blocked on a gate and a full queue behind it: the
        // next submit must be rejected without blocking.
        let ex = Executor::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        ex.try_submit(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap(); // worker now busy, queue empty
        for _ in 0..QUEUE_CAPACITY {
            ex.try_submit(|| {}).unwrap(); // fills the queue
        }
        assert_eq!(ex.queue_depth(), QUEUE_CAPACITY);
        assert_eq!(ex.try_submit(|| {}), Err(QueueFull));
        assert_eq!(ex.rejected(), 1);
        assert_eq!(ex.executed(), 0, "a rejected job never runs");
        gate_tx.send(()).unwrap();
        drop(ex); // drains the queued no-ops
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let ex = Executor::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            let tx = tx.clone();
            ex.try_submit(move || tx.send(i).unwrap()).unwrap();
        }
        drop(ex);
        drop(tx);
        assert_eq!(rx.iter().count(), 5);
    }
}
