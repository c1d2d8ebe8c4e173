//! An entry is born only by a create or a replica install, and dies
//! only by a remove: a size update never makes one. Random create /
//! remove / size update / replica install, with forced flushes,
//! compactions and reopens in between; after every step the paths a
//! full walk lists, the store's live-key count and the backend's entry
//! counter are exactly the model's.

use gkfs_common::{FileKind, GkfsError, Metadata};
use gkfs_daemon::MetadataBackend;
use gkfs_rpc::proto::{CreateReq, MetaOp, PathReq};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone)]
enum Step {
    Create(u8),
    Remove(u8),
    UpdateSize(u8, u16),
    Install(u8, u16),
    Flush,
    Compact,
    Reopen,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(|k| Step::Create(k % 12)),
        3 => any::<u8>().prop_map(|k| Step::Remove(k % 12)),
        5 => (any::<u8>(), any::<u16>()).prop_map(|(k, s)| Step::UpdateSize(k % 12, s)),
        2 => (any::<u8>(), any::<u16>()).prop_map(|(k, s)| Step::Install(k % 12, s)),
        1 => Just(Step::Flush),
        1 => Just(Step::Compact),
        1 => Just(Step::Reopen),
    ]
}

fn path(k: u8) -> String {
    format!("/p/{k:02}")
}

fn open(dir: &Path) -> MetadataBackend {
    MetadataBackend::open_dir(dir, true).unwrap()
}

fn run(steps: &[Step], dir: &Path) -> Result<(), TestCaseError> {
    let _ = std::fs::remove_dir_all(dir);
    let mut b = open(dir);
    let mut model: BTreeSet<String> = BTreeSet::new();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Create(k) => {
                let create = MetaOp::Create(CreateReq {
                    path: path(k),
                    kind: FileKind::File,
                    mode: 0o644,
                    exclusive: true,
                    now_ns: 1,
                });
                let created = b.apply_one(create).is_ok();
                prop_assert_eq!(created, model.insert(path(k)), "step {}: {:?}", i, step);
            }
            Step::Remove(k) => {
                let removed = b.apply_one(MetaOp::Unlink(PathReq::new(path(k))));
                prop_assert_eq!(removed.is_ok(), model.remove(&path(k)), "step {}: {:?}", i, step);
                if let Err(e) = removed {
                    prop_assert_eq!(e, GkfsError::NotFound);
                }
            }
            Step::UpdateSize(k, size) => b.update_size(&path(k), size.into(), 2).unwrap(),
            Step::Install(k, size) => {
                let entry = Metadata { size: size.into(), ..Metadata::new_file(3) };
                b.install_replica(&path(k), &entry).unwrap();
                model.insert(path(k));
            }
            Step::Flush => b.db().flush().unwrap(),
            Step::Compact => b.db().compact().unwrap(),
            Step::Reopen => {
                b.shutdown().unwrap();
                drop(b);
                b = open(dir);
            }
        }
        let mut listed = BTreeSet::new();
        b.walk(|p, _| {
            listed.insert(p.to_string());
        })
        .unwrap();
        prop_assert_eq!(&listed, &model, "step {}: {:?}", i, step);
        prop_assert_eq!(b.entry_count(), model.len() as u64, "step {}: {:?}", i, step);
        prop_assert_eq!(b.db().len().unwrap(), model.len(), "step {}: {:?}", i, step);
    }
    b.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gkfs-proptest-meta-{}-{name}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn only_a_create_or_an_install_makes_an_entry(steps in prop::collection::vec(step_strategy(), 1..120)) {
        run(&steps, &scratch("entries"))?;
    }
}
