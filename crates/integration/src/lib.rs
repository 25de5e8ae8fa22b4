//! Host crate for the workspace-level integration tests (`/tests`) and
//! runnable examples (`/examples`). It re-exports the public crates so the
//! tests and examples read naturally.

pub use cfl_baselines as baselines;
pub use cfl_datasets as datasets;
pub use cfl_graph as graph;
pub use cfl_match as engine;

#[cfg(test)]
mod tests {
    use std::path::Path;

    #[test]
    fn every_crate_inherits_the_unsafe_forbid() {
        // The forbid lives in the workspace manifest; a crate that drops
        // `[lints] workspace = true` would silently allow `unsafe` again.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let workspace = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(workspace.contains("unsafe_code = \"forbid\""));
        let mut manifests = Vec::new();
        for dir in ["crates", "shims"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap().flatten() {
                let manifest = entry.path().join("Cargo.toml");
                if manifest.is_file() {
                    manifests.push(manifest);
                }
            }
        }
        assert!(manifests.len() >= 10, "found only {manifests:?}");
        for manifest in manifests {
            let text = std::fs::read_to_string(&manifest).unwrap();
            assert!(
                text.contains("[lints]\nworkspace = true"),
                "{} does not inherit the workspace lints",
                manifest.display()
            );
        }
    }
}
