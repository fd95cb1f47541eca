//! Resolving a `<desc>` argument: an existing `*.mct.json` path is
//! loaded from disk, anything else is looked up in the shipped
//! description library by machine name.

use std::path::Path;

use mctop::desc::{
    self,
    Provenance, //
};
use mctop::registry;
use mctop::Mctop;

use crate::CliError;

/// Loads a description by path or shipped name. Both routes go through
/// [`desc::from_str_full`], so the provenance header and structural
/// validation are always enforced.
///
/// Only arguments that *look* like paths (a `.json` suffix or a path
/// separator) are read from disk; a stray file in the working
/// directory that happens to be named `ivy` cannot shadow the shipped
/// `ivy` description.
pub(crate) fn load(arg: &str) -> Result<(Mctop, Provenance), CliError> {
    let looks_like_path = arg.ends_with(".json") || arg.contains('/');
    if looks_like_path {
        return Ok(desc::load_full(Path::new(arg))?);
    }
    if let Some(text) = registry::shipped_source(arg) {
        return Ok(desc::from_str_full(text)?);
    }
    Err(CliError::Failed(format!(
        "`{arg}` is neither a description file nor a shipped machine name (known: {})",
        registry::shipped_names().join(", ")
    )))
}
