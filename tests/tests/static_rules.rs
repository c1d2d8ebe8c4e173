//! The static rules rustc and clippy carry stay declared where they
//! read them (DESIGN.md "Static analysis"). `cargo test` runs neither
//! clippy nor a check of these files, so a deleted declaration fails
//! here instead of silently un-checking its rule.

use std::path::Path;

/// The rules that are declarations (GKL003, GKL004, GKL005, GKL007,
/// GKL009): each line is still where it was put, and each completion
/// type is still `#[must_use]`.
#[test]
fn moved_rules_stay_declared() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let unwrap = "#![deny(clippy::unwrap_used, clippy::expect_used)]";
    let cast = "#![deny(clippy::cast_possible_truncation)]";
    let declared = [
        ("crates/rpc/src/lib.rs", unwrap),
        ("crates/daemon/src/lib.rs", unwrap),
        ("crates/daemon/src/bin/gkfs-daemon.rs", unwrap),
        ("crates/client/src/lib.rs", unwrap),
        ("crates/sim/clippy.toml", "{ path = \"std::time::Instant::now\""),
        ("crates/sim/clippy.toml", "{ path = \"std::time::SystemTime::now\""),
        ("Cargo.toml", "undocumented_unsafe_blocks = \"deny\""),
        ("Cargo.toml", "unused_must_use = \"deny\""),
        ("crates/rpc/src/lib.rs", cast),
        ("crates/storage/src/lib.rs", cast),
        ("crates/common/src/wire.rs", cast),
    ];
    for (file, decl) in declared {
        let found = read(file).lines().any(|l| l.trim_start().starts_with(decl));
        assert!(found, "{file} no longer declares `{decl}`");
    }
    let completions = [
        ("crates/rpc/src/transport/mod.rs", "pub struct ReplyHandle "),
        ("crates/client/src/rpc.rs", "pub struct ReplyFuture<"),
        ("crates/storage/src/lib.rs", "pub struct BatchCompletion "),
        ("crates/client/src/meta_frames.rs", "pub(crate) struct QuorumCall<"),
        ("crates/client/src/data.rs", "pub(crate) struct WriteInFlight<"),
    ];
    for (file, item) in completions {
        let src = read(file);
        let lines: Vec<&str> = src.lines().collect();
        let at = lines.iter().position(|l| l.starts_with(item));
        let at = at.unwrap_or_else(|| panic!("{file} no longer declares `{item}`"));
        assert!(at > 0 && lines[at - 1].starts_with("#[must_use"), "`{item}` is not #[must_use]");
    }
}
