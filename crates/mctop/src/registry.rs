//! The description registry: load topologies by name, build each
//! [`TopoView`] once, and share it between every consumer.
//!
//! The paper's workflow (Section 2) is *infer once, store a description
//! file, load everywhere*. [`Registry`] is the "load everywhere" half:
//! it resolves a machine name to a description — either one of the
//! shipped files compiled in from the committed `descs/` library, or a
//! `*.mct.json` in a caller-chosen directory — parses and validates it,
//! builds the precomputed [`TopoView`] index, and memoizes the result
//! behind an [`Arc`].
//!
//! # Caching contract
//!
//! - Repeated [`Registry::view`] calls for the same name return clones
//!   of the *same* `Arc<TopoView>` (pointer-equal), for the lifetime of
//!   the registry or until [`Registry::clear`].
//! - Concurrent first lookups race on one registry-wide write lock;
//!   exactly one thread parses and builds, the others receive its
//!   `Arc`. A topology is never parsed or indexed twice. The miss path
//!   holds the write lock across load + index, so a first lookup of
//!   *any* name briefly blocks all other lookups — a deliberate
//!   simplicity trade-off: a miss is a one-time, sub-millisecond event
//!   per name, after which lookups only take the read lock.
//! - Failures (unknown name, invalid description) are not cached, so a
//!   description fixed on disk is picked up by the next lookup.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let reg = mctop::Registry::shipped();
//! let a = reg.view("ivy").unwrap();
//! let b = reg.view("ivy").unwrap();
//! // One shared, precomputed view per topology — pointer-equal.
//! assert!(Arc::ptr_eq(&a, &b));
//! assert_eq!(a.num_sockets(), 2);
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::desc;
use crate::error::McTopError;
use crate::model::Mctop;
use crate::view::TopoView;

/// The shipped description library: the committed `descs/*.mct.json`
/// files for the five paper platforms and the synthetic machines,
/// compiled into the binary so loading needs no filesystem or network.
/// Regenerated by `mct regen-descs`; CI pins them to the inference
/// output (golden-descriptions job).
const SHIPPED: &[(&str, &str)] = &[
    ("ivy", include_str!("../../../descs/ivy.mct.json")),
    ("westmere", include_str!("../../../descs/westmere.mct.json")),
    ("haswell", include_str!("../../../descs/haswell.mct.json")),
    ("opteron", include_str!("../../../descs/opteron.mct.json")),
    ("sparc", include_str!("../../../descs/sparc.mct.json")),
    (
        "synth-small",
        include_str!("../../../descs/synth-small.mct.json"),
    ),
    (
        "synth-clustered",
        include_str!("../../../descs/synth-clustered.mct.json"),
    ),
    (
        "synth-single",
        include_str!("../../../descs/synth-single.mct.json"),
    ),
    (
        "synth-nosmt",
        include_str!("../../../descs/synth-nosmt.mct.json"),
    ),
    (
        "synth-shared-node",
        include_str!("../../../descs/synth-shared-node.mct.json"),
    ),
    (
        "synth-scrambled",
        include_str!("../../../descs/synth-scrambled.mct.json"),
    ),
    // Mesh-scale NoC models (the 64-socket members only: the larger
    // committed descs stay on disk, loadable via `Registry::with_dir`,
    // to keep the binary small).
    (
        "synth-mesh-64",
        include_str!("../../../descs/synth-mesh-64.mct.json"),
    ),
    (
        "synth-circulant-64",
        include_str!("../../../descs/synth-circulant-64.mct.json"),
    ),
];

/// Names of the shipped descriptions, paper platforms first.
pub fn shipped_names() -> Vec<&'static str> {
    SHIPPED.iter().map(|(name, _)| *name).collect()
}

/// Raw text of a shipped description file, by machine name.
pub fn shipped_source(name: &str) -> Option<&'static str> {
    SHIPPED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
}

#[derive(Debug, Clone)]
enum Source {
    /// The compiled-in `descs/` library.
    Shipped,
    /// `<dir>/<name>.mct.json` files.
    Dir(PathBuf),
}

/// A thread-safe, memoizing loader of topology descriptions.
///
/// See the [module docs](self) for the caching contract.
#[derive(Debug)]
pub struct Registry {
    source: Source,
    cache: RwLock<HashMap<String, Arc<TopoView>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::shipped()
    }
}

impl Registry {
    /// Registry over the compiled-in `descs/` library.
    pub fn shipped() -> Registry {
        Registry {
            source: Source::Shipped,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Registry over `<dir>/<name>.mct.json` description files.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Registry {
        Registry {
            source: Source::Dir(dir.into()),
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// The names this registry can resolve (sorted for a directory
    /// source; shipped order otherwise). Directory scans ignore entries
    /// that are not `*.mct.json`; an unreadable directory is an error,
    /// not an empty library.
    pub fn names(&self) -> Result<Vec<String>, McTopError> {
        match &self.source {
            Source::Shipped => Ok(shipped_names().iter().map(|s| s.to_string()).collect()),
            Source::Dir(dir) => {
                let mut out = Vec::new();
                for entry in std::fs::read_dir(dir).map_err(McTopError::Io)? {
                    let name = entry.map_err(McTopError::Io)?.file_name();
                    if let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".mct.json")) {
                        out.push(stem.to_string());
                    }
                }
                out.sort();
                Ok(out)
            }
        }
    }

    /// The text of `name`'s description: the compiled-in text itself
    /// (no copy: `view` calls this under the write lock), or a file's
    /// contents.
    fn read_source(&self, name: &str) -> Result<Cow<'static, str>, McTopError> {
        match &self.source {
            Source::Shipped => shipped_source(name).map(Cow::Borrowed).ok_or_else(|| {
                McTopError::InvalidDescription(format!(
                    "no shipped description named `{name}` (known: {})",
                    shipped_names().join(", ")
                ))
            }),
            Source::Dir(dir) => {
                let path = dir.join(desc::default_filename(name));
                let text = std::fs::read_to_string(&path).map_err(McTopError::Io)?;
                Ok(Cow::Owned(text))
            }
        }
    }

    /// The shared, precomputed view of a topology, loading and indexing
    /// it on first use. Repeated and concurrent lookups of the same
    /// name return the same `Arc` (see the caching contract).
    pub fn view(&self, name: &str) -> Result<Arc<TopoView>, McTopError> {
        if let Some(view) = self.cache.read().get(name) {
            return Ok(Arc::clone(view));
        }
        // Build under the write lock: the loser of a first-lookup race
        // finds the winner's entry instead of indexing a second copy.
        let mut cache = self.cache.write();
        if let Some(view) = cache.get(name) {
            return Ok(Arc::clone(view));
        }
        let text = self.read_source(name)?;
        let topo = desc::from_str(&text)?;
        // The file's own header/payload agreement is already enforced;
        // also require that it describes the machine that was asked
        // for, so a renamed file cannot serve the wrong topology.
        if topo.name != name {
            return Err(McTopError::InvalidDescription(format!(
                "description resolved for `{name}` describes machine `{}`",
                topo.name
            )));
        }
        let view = Arc::new(TopoView::try_new(Arc::new(topo))?);
        cache.insert(name.to_string(), Arc::clone(&view));
        Ok(view)
    }

    /// The shared topology behind [`Registry::view`].
    pub fn topo(&self, name: &str) -> Result<Arc<Mctop>, McTopError> {
        Ok(Arc::clone(self.view(name)?.topo()))
    }

    /// Number of memoized topologies.
    pub fn cached(&self) -> usize {
        self.cache.read().len()
    }

    /// Drops every memoized view. Later lookups re-load from the
    /// source and hand out fresh `Arc`s.
    pub fn clear(&self) {
        self.cache.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_covers_all_presets() {
        let names = shipped_names();
        for spec in mcsim::presets::all_paper_platforms()
            .into_iter()
            .chain(mcsim::presets::all_synthetic())
        {
            assert!(names.contains(&spec.name.as_str()), "{}", spec.name);
        }
    }

    #[test]
    fn shipped_mesh_descs_load_on_sparse_views() {
        let reg = Registry::shipped();
        for name in ["synth-mesh-64", "synth-circulant-64"] {
            let view = reg.view(name).unwrap();
            assert_eq!(view.num_sockets(), 64, "{name}");
            assert_eq!(view.backend(), crate::view::ViewBackend::Sparse, "{name}");
        }
    }

    #[test]
    fn repeated_lookup_returns_same_arc() {
        let reg = Registry::shipped();
        let a = reg.view("synth-small").unwrap();
        let b = reg.view("synth-small").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(a.topo(), b.topo()));
        assert_eq!(reg.cached(), 1);
    }

    #[test]
    fn concurrent_lookups_share_one_view() {
        let reg = Arc::new(Registry::shipped());
        let views: Vec<Arc<TopoView>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let reg = Arc::clone(&reg);
                    scope.spawn(move || reg.view("synth-nosmt").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for view in &views[1..] {
            assert!(Arc::ptr_eq(&views[0], view));
        }
        assert_eq!(reg.cached(), 1);
    }

    #[test]
    fn unknown_name_is_invalid_description() {
        let reg = Registry::shipped();
        assert!(matches!(
            reg.view("nonexistent"),
            Err(McTopError::InvalidDescription(_))
        ));
        assert_eq!(reg.cached(), 0);
    }

    #[test]
    fn dir_source_loads_saved_files() {
        let dir = std::env::temp_dir().join("mctop-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = mcsim::presets::no_smt_small();
        let (topo, prov) = desc::canonical(&spec).unwrap();
        desc::save(&topo, &prov, &dir.join(desc::default_filename(&spec.name))).unwrap();

        let reg = Registry::with_dir(&dir);
        assert_eq!(reg.names().unwrap(), vec![spec.name.clone()]);
        assert!(matches!(
            Registry::with_dir("/nonexistent-mctop-descs").names(),
            Err(McTopError::Io(_))
        ));
        let view = reg.view(&spec.name).unwrap();
        assert_eq!(view.topo().name, spec.name);
        assert!(matches!(
            reg.view("missing"),
            Err(McTopError::Io(_)) //
        ));

        // A renamed file must not serve the wrong topology.
        std::fs::copy(
            dir.join(desc::default_filename(&spec.name)),
            dir.join(desc::default_filename("impostor")),
        )
        .unwrap();
        assert!(matches!(
            reg.view("impostor"),
            Err(McTopError::InvalidDescription(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_hands_out_fresh_arcs() {
        let reg = Registry::shipped();
        let a = reg.view("synth-small").unwrap();
        reg.clear();
        assert_eq!(reg.cached(), 0);
        let b = reg.view("synth-small").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Both came from the same shipped text, so they agree.
        assert_eq!(a.topo(), b.topo());
    }

    #[test]
    fn shipped_view_answers_queries() {
        let reg = Registry::shipped();
        let view = reg.view("synth-small").unwrap();
        assert_eq!(view.num_sockets(), 2);
        assert_eq!(view.closest_sockets(0), &[1]);
        assert!(view.intra_socket_latency() > 0);
    }
}
