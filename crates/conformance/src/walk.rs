//! Workspace file discovery.

use std::fs;
use std::path::Path;

/// Directory names that are never scanned: build output, VCS metadata, and
/// the seeded violation corpus (whose files violate rules on purpose).
const SKIP_DIRS: &[&str] = &["target", ".git", "corpus"];

/// Collect every `.rs` file under `root`, returned as workspace-relative
/// paths with `/` separators, sorted for deterministic reports.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect(root: &Path, dir: &Path, files: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, files)?;
        } else if name.ends_with(".rs") {
            files.push(relative_unix(root, &path));
        }
    }
    Ok(())
}

fn relative_unix(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
