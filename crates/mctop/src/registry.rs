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
//!   the registry, until [`Registry::reload`] finds the name's file
//!   changed, or until [`Registry::clear`].
//! - Concurrent first lookups race on one registry-wide write lock;
//!   exactly one thread parses and builds, the others receive its
//!   `Arc`. A topology is never parsed or indexed twice. The miss path
//!   holds the write lock across load + index, so a miss on *any* name
//!   blocks every lookup, hits on other names included, for as long
//!   as that load takes: measured (`mctbench trace`,
//!   `registry.view_cold_us`) about 0.1 ms for `ivy` and 18.4 ms for
//!   `synth-mesh-256`. That is a deliberate simplicity trade-off only
//!   while misses are rare, which is what [`Registry::reload`] is for:
//!   it drops the names whose source changed and no other, so an
//!   unchanged name misses once per registry and never again.
//! - Failures (unknown name, invalid description) are not cached, so a
//!   description fixed on disk is picked up by the next lookup.
//! - [`Registry::reload`] parses nothing and holds the write lock only
//!   to remove entries: it compares each cached view's stamp
//!   (length and hash of the exact text the view was parsed from) with
//!   a stamp of the file as it is now. A kept name keeps its `Arc` and
//!   every index the view has built lazily since; a dropped name
//!   misses on its next lookup, as after `clear`.
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
use std::path::{
    Path,
    PathBuf, //
};
use std::sync::Arc;

use crate::desc;
use crate::error::McTopError;
use crate::model::Mctop;
use crate::sync::RwLock;
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

/// Length and 64-bit hash of a description text: what
/// [`Registry::reload`] compares to tell whether a cached view's file
/// has changed since the view was parsed from it.
///
/// Change detection over files the operator owns, trusted exactly as
/// far as the files themselves; **not** an integrity check. Any edit
/// confined to one 8-byte word changes the hash for certain (every
/// step below is a bijection of the state); two edits crafted to
/// cancel could collide, and nothing here tries to stop that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    hash: u64,
}

impl Stamp {
    /// Word-at-a-time multiply–rotate: about 0.2 ns/byte, where
    /// `std`'s SipHash takes about 1 ns/byte, which is most of what a
    /// reload over unchanged files saves.
    fn of(bytes: &[u8]) -> Stamp {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let step = |h: u64, word: [u8; 8]| {
            (h ^ u64::from_le_bytes(word))
                .wrapping_mul(K)
                .rotate_left(29)
        };
        let mut words = bytes.chunks_exact(8);
        let mut hash = K;
        for w in &mut words {
            hash = step(hash, w.try_into().expect("chunks_exact(8)"));
        }
        // The tail, zero-padded; `len` tells padding from real zeros.
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        Stamp {
            len: bytes.len() as u64,
            hash: step(hash, last),
        }
    }
}

/// One memoized topology and the stamp of the text it was parsed from.
#[derive(Debug)]
struct Entry {
    view: Arc<TopoView>,
    stamp: Stamp,
}

/// A thread-safe, memoizing loader of topology descriptions.
///
/// See the [module docs](self) for the caching contract.
#[derive(Debug)]
pub struct Registry {
    source: Source,
    cache: RwLock<HashMap<String, Entry>>,
}

/// Where a directory source keeps `name`'s description. A name may
/// come straight off the wire, so it must be exactly one normal path
/// component: anything else is refused here, before any filesystem
/// call and in the same words whatever is on disk, or `view` would
/// open (and report on) files outside `dir`.
fn desc_path(dir: &Path, name: &str) -> Result<PathBuf, McTopError> {
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\', '\0']) {
        return Err(McTopError::InvalidDescription(
            "a machine name is one path component: not empty, `.` or `..`, no `/`, `\\` or NUL"
                .to_string(),
        ));
    }
    Ok(dir.join(desc::default_filename(name)))
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
                let text =
                    std::fs::read_to_string(desc_path(dir, name)?).map_err(McTopError::Io)?;
                Ok(Cow::Owned(text))
            }
        }
    }

    /// The shared, precomputed view of a topology, loading and indexing
    /// it on first use. Repeated and concurrent lookups of the same
    /// name return the same `Arc` (see the caching contract).
    pub fn view(&self, name: &str) -> Result<Arc<TopoView>, McTopError> {
        if let Some(entry) = self.cache.read().get(name) {
            return Ok(Arc::clone(&entry.view));
        }
        // Build under the write lock: the loser of a first-lookup race
        // finds the winner's entry instead of indexing a second copy.
        let mut cache = self.cache.write();
        if let Some(entry) = cache.get(name) {
            return Ok(Arc::clone(&entry.view));
        }
        let text = self.read_source(name)?;
        // Stamped from the buffer that is parsed, so no write to the
        // file can fall between the two. A compiled-in text cannot
        // change and `reload` never looks at its stamp: none is taken.
        let stamp = match self.source {
            Source::Shipped => Stamp { len: 0, hash: 0 },
            Source::Dir(_) => Stamp::of(text.as_bytes()),
        };
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
        let entry = Entry {
            view: Arc::clone(&view),
            stamp,
        };
        cache.insert(name.to_string(), entry);
        Ok(view)
    }

    /// The shared topology behind [`Registry::view`].
    pub fn topo(&self, name: &str) -> Result<Arc<Mctop>, McTopError> {
        Ok(Arc::clone(self.view(name)?.topo()))
    }

    /// Drops the memoized views whose source no longer holds the text
    /// they were parsed from, keeps every other one, and returns how
    /// many it dropped. A dropped name loads afresh on its next lookup
    /// (and that lookup reports what it finds); nothing is parsed here.
    ///
    /// The shipped library is compiled in and cannot change: 0, at
    /// once. For a directory source: snapshot the cache under the read
    /// lock; with no lock held, read each cached name's file and stamp
    /// it; take the write lock only to remove the names whose stamp
    /// differs or whose file cannot be read, and only while the entry
    /// is still the `Arc` that was stamped, so a view loaded meanwhile
    /// by a miss or after another `reload` is never undone.
    pub fn reload(&self) -> usize {
        let Source::Dir(dir) = &self.source else {
            return 0;
        };
        let mut stale: Vec<(String, Arc<TopoView>, Stamp)> = self
            .cache
            .read()
            .iter()
            .map(|(name, e)| (name.clone(), Arc::clone(&e.view), e.stamp))
            .collect();
        stale.retain(|(name, _, stamp)| {
            let bytes = desc_path(dir, name)
                .ok()
                .and_then(|path| std::fs::read(path).ok());
            bytes.is_none_or(|bytes| Stamp::of(&bytes) != *stamp)
        });
        if !stale.is_empty() {
            let mut cache = self.cache.write();
            stale.retain(|(name, view, _)| {
                let same = cache.get(name).is_some_and(|e| Arc::ptr_eq(&e.view, view));
                if same {
                    cache.remove(name);
                }
                same
            });
        }
        // `stale` holds the last reference to each dropped view: they
        // are freed here, after the lock.
        stale.len()
    }

    /// Drops every memoized view. Later lookups re-load from the
    /// source and hand out fresh `Arc`s. Not the reload path (that is
    /// [`Registry::reload`], which keeps what has not changed): this
    /// one is for letting go of everything, as the daemon does on the
    /// thread it shuts down on.
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
        assert_eq!(reg.cache.read().len(), 1);
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
        assert_eq!(reg.cache.read().len(), 1);
    }

    #[test]
    fn unknown_name_is_invalid_description() {
        let reg = Registry::shipped();
        assert!(matches!(
            reg.view("nonexistent"),
            Err(McTopError::InvalidDescription(_))
        ));
        assert_eq!(reg.cache.read().len(), 0);
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
    fn names_that_are_paths_never_reach_the_filesystem() {
        let root = DescDir::new("traversal");
        let (name, [(_, text), _]) = two_descriptions();
        let (served, sibling) = (root.0.join("served"), root.0.join("sib"));
        std::fs::create_dir_all(&served).unwrap();
        std::fs::create_dir_all(&sibling).unwrap();
        let outside = sibling.join(desc::default_filename(&name));
        let reg = Registry::with_dir(&served);

        let refusal = |asked: &str| match reg.view(asked) {
            Err(McTopError::InvalidDescription(msg)) => msg,
            other => panic!("`{asked}` must be refused as a name, got {other:?}"),
        };
        let relative = format!("../sib/{name}");
        let absolute = sibling.join(&name).to_str().unwrap().to_string();
        // The same answer whether the file the path points at is a
        // valid description, or is not there at all.
        std::fs::write(&outside, &text).unwrap();
        let with_target = [refusal(&relative), refusal(&absolute)];
        std::fs::remove_file(&outside).unwrap();
        assert_eq!([refusal(&relative), refusal(&absolute)], with_target);
        assert_eq!(with_target[0], with_target[1]);
        for asked in ["", ".", "..", "a/b", "a\\b", "a\0b", "/"] {
            assert_eq!(refusal(asked), with_target[0]);
        }
        assert_eq!(reg.cache.read().len(), 0);

        // A plain name still resolves inside the directory.
        std::fs::write(served.join(desc::default_filename(&name)), &text).unwrap();
        assert_eq!(reg.view(&name).unwrap().topo().name, name);
    }

    #[test]
    fn clear_hands_out_fresh_arcs() {
        let reg = Registry::shipped();
        let a = reg.view("synth-small").unwrap();
        reg.clear();
        assert_eq!(reg.cache.read().len(), 0);
        let b = reg.view("synth-small").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Both came from the same shipped text, so they agree.
        assert_eq!(a.topo(), b.topo());
    }

    /// A directory source of this test's own: `<tmp>/mctop-registry-
    /// <tag>-<pid>`, removed on drop.
    struct DescDir(PathBuf);

    impl DescDir {
        fn new(tag: &str) -> DescDir {
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!("mctop-registry-{tag}-{pid}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            DescDir(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            desc_path(&self.0, name).expect("a plain name")
        }
    }

    impl Drop for DescDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Two valid descriptions of one machine: the canonical one and
    /// the one inferred under noise seed 7.
    fn two_descriptions() -> (String, [(Mctop, String); 2]) {
        let spec = mcsim::presets::no_smt_small();
        let (a, prov) = desc::canonical(&spec).unwrap();
        let cfg = desc::canonical_probe_config_for(&spec);
        let b = crate::infer(&mut crate::backend::SimProber::new(&spec, 7), &cfg).unwrap();
        assert_ne!(a, b);
        let [ta, tb] = [&a, &b].map(|t| desc::to_string(t, &prov).unwrap());
        (spec.name, [(a, ta), (b, tb)])
    }

    #[test]
    fn reload_keeps_the_unchanged_and_drops_the_rewritten() {
        let dir = DescDir::new("rewrite");
        let (name, [(topo_a, text_a), (topo_b, text_b)]) = two_descriptions();
        std::fs::write(dir.file(&name), &text_a).unwrap();
        let reg = Registry::with_dir(&dir.0);
        let first = reg.view(&name).unwrap();
        assert_eq!(**first.topo(), topo_a);

        // Nothing changed, and a rewrite with the same bytes is no change.
        assert_eq!(reg.reload(), 0);
        std::fs::write(dir.file(&name), &text_a).unwrap();
        assert_eq!(reg.reload(), 0);
        assert!(Arc::ptr_eq(&first, &reg.view(&name).unwrap()));

        std::fs::write(dir.file(&name), &text_b).unwrap();
        assert_eq!(reg.reload(), 1);
        assert_eq!(reg.cache.read().len(), 0);
        let second = reg.view(&name).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(**second.topo(), topo_b);
        // The holder of the old `Arc` still has the old description.
        assert_eq!(**first.topo(), topo_a);
        assert_eq!(reg.reload(), 0);
    }

    #[test]
    fn reload_tells_edits_that_keep_the_length() {
        let dir = DescDir::new("same-length");
        let (name, [(topo, text), _]) = two_descriptions();
        std::fs::write(dir.file(&name), &text).unwrap();
        let reg = Registry::with_dir(&dir.0);
        let first = reg.view(&name).unwrap();

        // One digit of the header: still this machine, still valid.
        let edited = text.replacen("\"probe_reps\": 3", "\"probe_reps\": 4", 1);
        assert_eq!(edited.len(), text.len());
        assert_ne!(edited, text);
        std::fs::write(dir.file(&name), &edited).unwrap();
        assert_eq!(reg.reload(), 1);
        let second = reg.view(&name).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(**second.topo(), topo);

        // Two aligned 8-byte words change places: same length, same
        // bytes, same sum of words. (Whether it still parses is the
        // next lookup's business, not `reload`'s.)
        let mut bytes = edited.clone().into_bytes();
        let j = (8..bytes.len() - 8)
            .step_by(8)
            .find(|&j| bytes[j..j + 8] != bytes[..8])
            .unwrap();
        for k in 0..8 {
            bytes.swap(k, j + k);
        }
        std::fs::write(dir.file(&name), &bytes).unwrap();
        assert_eq!(reg.reload(), 1);
        assert_eq!(reg.cache.read().len(), 0);
    }

    #[test]
    fn reload_drops_a_removed_file_and_failures_stay_uncached() {
        let dir = DescDir::new("removed");
        let (name, [(topo, text), _]) = two_descriptions();
        std::fs::write(dir.file(&name), &text).unwrap();
        let reg = Registry::with_dir(&dir.0);
        reg.view(&name).unwrap();
        // A name that never loaded is not cached; `reload` has nothing
        // to say about it.
        assert!(matches!(reg.view("missing"), Err(McTopError::Io(_))));
        assert_eq!(reg.cache.read().len(), 1);
        assert_eq!(reg.reload(), 0);
        assert_eq!(reg.cache.read().len(), 1);

        std::fs::remove_file(dir.file(&name)).unwrap();
        assert_eq!(reg.reload(), 1);
        assert!(matches!(reg.view(&name), Err(McTopError::Io(_))));
        assert_eq!(reg.cache.read().len(), 0);
        assert_eq!(reg.reload(), 0);

        std::fs::write(dir.file(&name), &text).unwrap();
        assert_eq!(**reg.view(&name).unwrap().topo(), topo);
    }

    #[test]
    fn reload_of_the_shipped_library_keeps_every_arc() {
        let reg = Registry::shipped();
        let before: Vec<_> = shipped_names()
            .iter()
            .map(|name| reg.view(name).unwrap())
            .collect();
        assert_eq!(reg.reload(), 0);
        assert_eq!(reg.cache.read().len(), before.len());
        for (name, view) in shipped_names().iter().zip(&before) {
            assert!(Arc::ptr_eq(view, &reg.view(name).unwrap()), "{name}");
        }
    }

    #[test]
    fn stamp_changes_with_every_small_edit() {
        let text: Vec<u8> = (0..64u8).map(|i| b'a' + i % 23).collect();
        let stamp = Stamp::of(&text);
        for at in 0..text.len() {
            let mut flipped = text.clone();
            flipped[at] ^= 1;
            assert_ne!(Stamp::of(&flipped).hash, stamp.hash, "flip at {at}");
        }
        let mut transposed = text.clone();
        for k in 0..8 {
            transposed.swap(8 + k, 40 + k);
        }
        assert_ne!(Stamp::of(&transposed).hash, stamp.hash);
        assert_ne!(Stamp::of(&text[..63]), stamp);
        let mut extended = text.clone();
        extended.push(0);
        assert_ne!(Stamp::of(&extended), stamp);
        // The empty text and a lone zero byte differ only by `len`.
        assert_ne!(Stamp::of(b""), Stamp::of(b"\0"));
    }

    #[test]
    fn shipped_view_answers_queries() {
        let reg = Registry::shipped();
        let view = reg.view("synth-small").unwrap();
        assert_eq!(view.num_sockets(), 2);
        assert_eq!(view.closest_sockets(0), &[1]);
        assert!(view.socket_latency(0, 0) > 0);
    }
}
