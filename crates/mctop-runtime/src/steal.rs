//! Topology-aware work stealing (Section 5 of the paper).
//!
//! The policy: "If the local work queue is empty, steal from the queue
//! of worker threads that are the closest in terms of latency. If
//! unsuccessful, continue with the contexts that are the next closest."
//! [`StealOrder`] computes those victim orders from MCTOP;
//! [`steal_queues_with_order`] builds a deque-per-worker set of handles
//! — each handle is moved into its worker thread — that follow them.

use std::sync::Arc;

// Deques come from the cfg-switched facade: `crossbeam_deque`
// re-exports by default, tracked model-checker wrappers under
// `--features model-check` (see `crate::sync`).
use crate::sync::deque::{
    Injector,
    Steal,
    Stealer,
    Worker as Deque, //
};
use mctop::view::TopoView;

use crate::metrics::{
    Metrics,
    StealClass, //
};

/// Per-worker victim orders derived from communication latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealOrder {
    orders: Vec<Vec<usize>>,
}

impl StealOrder {
    /// Computes victim orders for workers occupying the given hardware
    /// contexts: for worker `i`, other workers sorted by
    /// `latency(hwc_i, hwc_j)` ascending (ties toward lower worker id).
    pub fn with_view(view: &TopoView, hwcs: &[usize]) -> Self {
        let orders = hwcs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mut victims: Vec<usize> = (0..hwcs.len()).filter(|&j| j != i).collect();
                victims.sort_by_key(|&j| (view.get_latency(a, hwcs[j]), j));
                victims
            })
            .collect();
        StealOrder { orders }
    }

    /// A victim order that ignores the topology: every worker tries
    /// the other workers in ascending index order. The fallback when
    /// only a [`mctop_place::Placement`] (no view) is available.
    pub(crate) fn sequential(n: usize) -> Self {
        StealOrder {
            orders: (0..n)
                .map(|i| (0..n).filter(|&j| j != i).collect())
                .collect(),
        }
    }

    /// Victim order (worker indices) for worker `i`.
    pub fn victims(&self, i: usize) -> &[usize] {
        &self.orders[i]
    }

    /// Number of workers.
    pub(crate) fn len(&self) -> usize {
        self.orders.len()
    }
}

/// Classifies every worker's distance to every other worker for the
/// steal-distance histogram of [`crate::metrics`]: same socket
/// (including SMT siblings), one interconnect hop, or two-plus hops.
/// `classes[i][j]` is worker `i`'s class for victim `j` (`SameSocket`
/// on the diagonal, vacuously).
pub fn steal_classes_with_view(view: &TopoView, hwcs: &[usize]) -> Vec<Vec<StealClass>> {
    let sockets: Vec<usize> = hwcs.iter().map(|&h| view.socket_of(h)).collect();
    sockets
        .iter()
        .map(|&si| {
            sockets
                .iter()
                .map(|&sj| {
                    if si == sj {
                        StealClass::SameSocket
                    } else {
                        match view.socket_hops(si, sj) {
                            0 | 1 => StealClass::OneHop,
                            usize::MAX => StealClass::Unclassified,
                            _ => StealClass::MultiHop,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// One worker's end of the work-stealing structure. Owned by (moved
/// into) its worker thread; the stealers inside reference every other
/// worker's queue.
pub struct StealPool<T> {
    local: Deque<T>,
    stealers: Vec<Stealer<T>>,
    victims: Vec<usize>,
    /// Optional observability: when attached, local pops and steals
    /// are recorded into these buckets ([`StealPool::attach_metrics`]).
    metrics: Option<Arc<Metrics>>,
    /// Per-victim distance classes, indexed by worker id (parallel to
    /// `stealers`, not `victims`).
    classes: Vec<StealClass>,
}

/// Where a work item came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The worker's own queue.
    Local,
    /// Stolen from this worker's queue.
    Stolen(usize),
}

impl<T> StealPool<T> {
    /// Attaches a metrics handle: from here on, local pops, batch
    /// refills and steals through this pool are recorded (steals into
    /// the distance bucket `classes[victim]` — one class per worker,
    /// e.g. from [`steal_classes_with_view`]). Detached pools record
    /// nothing and cost nothing.
    ///
    /// # Panics
    ///
    /// Panics if `classes` does not have one entry per worker.
    pub fn attach_metrics(&mut self, metrics: Arc<Metrics>, classes: Vec<StealClass>) {
        assert_eq!(
            classes.len(),
            self.stealers.len(),
            "one steal class per worker required"
        );
        self.metrics = Some(metrics);
        self.classes = classes;
    }

    /// Pushes work onto the local queue.
    pub fn push(&self, item: T) {
        self.local.push(item);
    }

    /// Moves a batch of tasks from a shared [`Injector`] into the
    /// local deque and returns one of them (crossbeam's
    /// `steal_batch_and_pop` hand-off): the executor's workers drain
    /// their socket injector this way, so surplus tasks land in a
    /// deque that other workers can then steal from in latency order.
    pub fn steal_batch_from(&self, injector: &Injector<T>) -> Option<T> {
        loop {
            match injector.steal_batch_and_pop(&self.local) {
                Steal::Success(item) => {
                    if let Some(m) = &self.metrics {
                        m.exec.injector_hits.add(1);
                    }
                    return Some(item);
                }
                Steal::Empty => return None,
                Steal::Retry => continue,
            }
        }
    }

    /// Next work item: the local queue first, then the victims in
    /// latency order.
    pub fn next(&self) -> Option<(T, Source)> {
        if let Some(item) = self.local.pop() {
            if let Some(m) = &self.metrics {
                m.exec.local_deque_hits.add(1);
            }
            return Some((item, Source::Local));
        }
        for &v in &self.victims {
            loop {
                match self.stealers[v].steal() {
                    Steal::Success(item) => {
                        if let Some(m) = &self.metrics {
                            m.steal(self.classes[v]);
                        }
                        return Some((item, Source::Stolen(v)));
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

/// Builds one [`StealPool`] handle per worker from an explicit victim
/// order (one per worker in `order`).
pub fn steal_queues_with_order<T>(order: StealOrder) -> Vec<StealPool<T>> {
    let n = order.len();
    let deques: Vec<Deque<T>> = (0..n).map(|_| Deque::new_fifo()).collect();
    let stealers: Vec<Stealer<T>> = deques.iter().map(|d| d.stealer()).collect();
    deques
        .into_iter()
        .enumerate()
        .map(|(id, local)| StealPool {
            local,
            stealers: stealers.clone(),
            victims: order.victims(id).to_vec(),
            metrics: None,
            classes: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> TopoView {
        let spec = mcsim::presets::synthetic_small();
        let mut p = mctop::backend::SimProber::noiseless(&spec);
        let cfg = mctop::ProbeConfig {
            reps: 3,
            ..mctop::ProbeConfig::fast()
        };
        TopoView::from(mctop::infer(&mut p, &cfg).unwrap())
    }

    #[test]
    fn victims_sorted_by_latency() {
        let t = view();
        // Workers on: ctx 0 (socket 0 core 0), ctx 8 (SMT sibling of 0),
        // ctx 1 (socket 0 core 1), ctx 4 (socket 1).
        let order = StealOrder::with_view(&t, &[0, 8, 1, 4]);
        // Worker 0's closest victim is its SMT sibling, then the
        // same-socket core, then the remote socket.
        assert_eq!(order.victims(0), &[1, 2, 3]);
        // Worker 3 (remote socket) sees all others at the same
        // cross-socket latency: tie-break by worker id.
        assert_eq!(order.victims(3), &[0, 1, 2]);
    }

    #[test]
    fn local_work_first_then_closest_victim() {
        let t = view();
        let queues: Vec<StealPool<u32>> =
            steal_queues_with_order(StealOrder::with_view(&t, &[0, 8, 4]));
        queues[0].push(1);
        queues[1].push(2);
        queues[2].push(3);
        // Worker 0 takes its own item first.
        assert_eq!(queues[0].next(), Some((1, Source::Local)));
        // Then steals from its SMT sibling (worker 1), not the remote
        // socket (worker 2).
        assert_eq!(queues[0].next(), Some((2, Source::Stolen(1))));
        assert_eq!(queues[0].next(), Some((3, Source::Stolen(2))));
        assert_eq!(queues[0].next(), None);
    }

    #[test]
    fn all_items_consumed_exactly_once_concurrently() {
        let t = view();
        let workers = vec![0usize, 8, 1, 9, 4, 12];
        let mut queues: Vec<StealPool<usize>> =
            steal_queues_with_order(StealOrder::with_view(&t, &workers));
        const ITEMS: usize = 3000;
        // All work starts on worker 0: everyone else must steal.
        for i in 0..ITEMS {
            queues[0].push(i);
        }
        let seen = std::sync::Mutex::new(vec![0u8; ITEMS]);
        std::thread::scope(|s| {
            for q in queues.drain(..) {
                let seen = &seen;
                s.spawn(move || {
                    while let Some((item, _)) = q.next() {
                        seen.lock().unwrap()[item] += 1;
                    }
                });
            }
        });
        assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn steal_sources_reported() {
        let t = view();
        let queues: Vec<StealPool<u8>> =
            steal_queues_with_order(StealOrder::with_view(&t, &[0, 1]));
        queues[1].push(7);
        let (v, src) = queues[0].next().unwrap();
        assert_eq!(v, 7);
        assert_eq!(src, Source::Stolen(1));
    }
}
