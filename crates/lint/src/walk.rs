//! Workspace discovery: which `.rs` files get linted.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names that are never descended into: third-party stubs, build
/// output, VCS metadata, and the linter's own seeded-violation fixtures.
const SKIP_DIRS: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Top-level directories that contain first-party Rust source.
const SOURCE_ROOTS: [&str; 4] = ["src", "crates", "tests", "examples"];

/// Returns the workspace-relative paths (unix separators, sorted) of every
/// first-party `.rs` file under `root`.
pub fn source_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            visit(&dir, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn visit(dir: &Path, root: &Path, files: &mut Vec<String>) -> io::Result<()> {
    // Sort entries so traversal (and thus any IO-error reporting order) is
    // deterministic across platforms.
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                visit(&path, root, files)?;
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let unix: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                files.push(unix.join("/"));
            }
        }
    }
    Ok(())
}

/// The repository root: two levels above this crate's manifest, fixed when
/// the crate is built. The linted tree therefore never depends on the
/// directory the binary starts in; a nested workspace such as `perfbench/`
/// is not a root of its own.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}
