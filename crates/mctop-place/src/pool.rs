//! The MCTOP-PLACE pool (Section 6): precomputed placements for several
//! policies with runtime selection, so software can switch placement
//! policies between execution phases (the extended-OpenMP example of
//! Section 7.4 is built on this).

use std::collections::BTreeMap;
use std::sync::Arc;

use mctop::sync::RwLock;
use mctop::view::TopoView;

use crate::place::{
    PlaceError,
    PlaceOpts,
    Placement, //
};
use crate::policy::Policy;

/// A pool of placements over one topology, keyed by policy.
///
/// The pool builds one [`TopoView`] up front; every placement (and
/// every policy switch) is then computed from the view's precomputed
/// indexes. Placements are built lazily and cached, and
/// [`PlacePool::select`] makes a policy current.
pub struct PlacePool {
    view: TopoView,
    opts: PlaceOpts,
    cache: RwLock<BTreeMap<Policy, Arc<Placement>>>,
    current: RwLock<Policy>,
}

impl PlacePool {
    /// A pool over a topology view with shared placement options.
    pub fn with_view(view: TopoView, opts: PlaceOpts) -> Self {
        PlacePool {
            view,
            opts,
            cache: RwLock::new(BTreeMap::new()),
            current: RwLock::new(Policy::None),
        }
    }

    /// The precomputed view the pool places over.
    pub fn view(&self) -> &TopoView {
        &self.view
    }

    /// Returns the placement for a policy, building it on first use.
    pub fn get(&self, policy: Policy) -> Result<Arc<Placement>, PlaceError> {
        if let Some(p) = self.cache.read().get(&policy) {
            return Ok(Arc::clone(p));
        }
        let built = Arc::new(Placement::with_view(&self.view, policy, self.opts)?);
        let mut w = self.cache.write();
        Ok(Arc::clone(w.entry(policy).or_insert(built)))
    }

    /// Makes `policy` the current one (runtime policy switching).
    pub fn select(&self, policy: Policy) -> Result<Arc<Placement>, PlaceError> {
        let p = self.get(policy)?;
        *self.current.write() = policy;
        Ok(p)
    }

    /// The currently selected policy.
    pub fn current_policy(&self) -> Policy {
        *self.current.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mctop::backend::SimProber;
    use mctop::ProbeConfig;

    fn view() -> TopoView {
        let spec = mcsim::presets::synthetic_small();
        let mut p = SimProber::noiseless(&spec);
        let cfg = ProbeConfig {
            reps: 3,
            ..ProbeConfig::fast()
        };
        TopoView::from(mctop::infer(&mut p, &cfg).unwrap())
    }

    #[test]
    fn lazily_builds_and_caches() {
        let pool = PlacePool::with_view(view(), PlaceOpts::threads(8));
        let a = pool.get(Policy::ConHwc).unwrap();
        let b = pool.get(Policy::ConHwc).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn select_switches_current() {
        let pool = PlacePool::with_view(view(), PlaceOpts::threads(4));
        assert_eq!(pool.current_policy(), Policy::None);
        pool.select(Policy::RrCore).unwrap();
        assert_eq!(pool.current_policy(), Policy::RrCore);
        pool.select(Policy::BalanceHwc).unwrap();
        assert_eq!(pool.current_policy(), Policy::BalanceHwc);
    }

    #[test]
    fn failing_policy_does_not_switch() {
        let pool = PlacePool::with_view(view(), PlaceOpts::threads(4));
        pool.select(Policy::Sequential).unwrap();
        // POWER fails on an unenriched topology.
        assert!(pool.select(Policy::Power).is_err());
        assert_eq!(pool.current_policy(), Policy::Sequential);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = Arc::new(PlacePool::with_view(view(), PlaceOpts::threads(8)));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let p = pool.get(Policy::ConHwc).unwrap();
                    let pin = p.pin().unwrap();
                    p.unpin(pin);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
