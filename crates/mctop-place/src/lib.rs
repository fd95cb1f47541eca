//! # mctop-place — MCTOP-PLACE thread placement
//!
//! Reproduction of the thread-placement library of Section 6 of
//! *Abstracting Multi-Core Topologies with MCTOP* (EuroSys '17):
//! twelve high-level placement policies (Table 2) computed over the
//! [`mctop::TopoView`] of an inferred topology, per-placement statistics
//! (the Fig. 7 printout), a pin/unpin interface, and a placement *pool*
//! that supports switching policies at runtime.
//!
//! # Examples
//!
//! ```
//! use mctop_place::{Placement, PlaceOpts, Policy};
//!
//! # let spec = mcsim::presets::ivy();
//! # let mut prober = mctop::backend::SimProber::noiseless(&spec);
//! # let cfg = mctop::ProbeConfig { reps: 3, ..mctop::ProbeConfig::fast() };
//! # let topo = mctop::infer(&mut prober, &cfg).unwrap();
//! let view = mctop::TopoView::from(topo);
//! let place = Placement::with_view(&view, Policy::ConHwc, PlaceOpts::threads(30)).unwrap();
//! assert_eq!(place.order().len(), 30);
//! // CON_HWC packs socket 0 (20 contexts) before socket 1 (Fig. 7).
//! let pin = place.pin().unwrap();
//! assert_eq!(pin.hwc, 0);
//! ```

pub(crate) mod place;
pub(crate) mod policy;
pub(crate) mod pool;

pub use place::{
    pin_os_thread,
    PinHandle,
    PlaceError,
    PlaceOpts,
    Placement, //
};
pub use policy::Policy;
pub use pool::PlacePool;
