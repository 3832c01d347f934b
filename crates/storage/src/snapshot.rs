//! Back-end database snapshots: persisting a [`Forest`] to disk.
//!
//! The paper's measurements only cover the provenance side, but a usable
//! system also needs the user-data forest to survive restarts. A snapshot
//! is an [`AppendLog`] whose first frame is a `Header` (magic + node count)
//! followed by one `Node` frame per node in parent-before-child order, so
//! loading is a single forward pass of `insert_with_id`. Both frames are
//! declared once, in the `codec_structs!` block below.
//!
//! Snapshots are written the way a log is rewritten
//! ([`AppendLog`]'s atomic rewrite): to a per-process unique temporary
//! file (created with O_EXCL so concurrent savers cannot clobber each
//! other), fsynced, atomically renamed into place, and the parent
//! directory is fsynced so the rename itself survives power loss. A crash
//! mid-snapshot never clobbers the previous one; a torn tail (count
//! mismatch) is detected at load time.

use crate::log::{AppendLog, LogError};
use crate::vfs::{real_vfs, Vfs};
use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use tep_model::{codec_structs, Forest, ObjectId, Value};

const SNAP_MAGIC: &[u8] = b"TEPSNAP\x01";

codec_structs! {
    /// The first frame: the magic, then how many node frames follow.
    struct Header magic SNAP_MAGIC impl to_bytes, from_bytes {
        nodes: u64,
    }

    /// One node frame; parents are written before their children. A save
    /// encodes the forest's value in place; a load owns what it decodes.
    struct Node<'a> impl to_bytes, from_bytes {
        id: ObjectId,
        parent: Option<ObjectId>,
        value: Cow<'a, Value>,
    }
}

/// Errors from snapshot save/load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying log/file failure (temp file, append, fsync, rename).
    Log(LogError),
    /// The file is not a snapshot (bad header frame).
    BadHeader,
    /// Node count in the header does not match recovered frames —
    /// truncated or torn snapshot.
    Incomplete {
        /// Nodes the header promised.
        expected: u64,
        /// Frames actually recovered.
        found: u64,
    },
    /// A node frame failed to decode or reference its parent.
    CorruptNode(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Log(e) => write!(f, "snapshot log error: {e}"),
            SnapshotError::BadHeader => write!(f, "not a forest snapshot"),
            SnapshotError::Incomplete { expected, found } => {
                write!(
                    f,
                    "incomplete snapshot: header promises {expected} nodes, found {found}"
                )
            }
            SnapshotError::CorruptNode(why) => write!(f, "corrupt node frame: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<LogError> for SnapshotError {
    fn from(e: LogError) -> Self {
        SnapshotError::Log(e)
    }
}

/// Saves `forest` to `path` atomically (unique temp file, fsync, rename,
/// directory fsync). Any existing snapshot at `path` is replaced only
/// after the new one is durable.
pub fn save_forest(forest: &Forest, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    save_forest_with(real_vfs(), forest, path)
}

/// [`save_forest`] against an explicit [`Vfs`].
pub fn save_forest_with(
    vfs: Arc<dyn Vfs>,
    forest: &Forest,
    path: impl AsRef<Path>,
) -> Result<(), SnapshotError> {
    let header = Header {
        nodes: forest.len() as u64,
    };
    // Pre-order per root: parents always precede children. Each node is
    // encoded as it is appended, never the whole forest at once.
    let nodes = forest
        .roots()
        .flat_map(|root| forest.subtree_ids(root))
        .map(|id| {
            let node = forest.node(id).expect("node exists during save");
            Node {
                id,
                parent: node.parent(),
                value: Cow::Borrowed(node.value()),
            }
            .to_bytes()
        });
    AppendLog::rewrite_atomically(
        &vfs,
        path.as_ref(),
        std::iter::once(header.to_bytes()).chain(nodes),
    )?;
    Ok(())
}

/// Loads a forest saved by [`save_forest`].
pub fn load_forest(path: impl AsRef<Path>) -> Result<Forest, SnapshotError> {
    load_forest_with(real_vfs(), path)
}

/// [`load_forest`] against an explicit [`Vfs`].
pub fn load_forest_with(
    vfs: Arc<dyn Vfs>,
    path: impl AsRef<Path>,
) -> Result<Forest, SnapshotError> {
    let recovered = AppendLog::open_with(vfs, path.as_ref())?;
    let mut frames = recovered.payloads.into_iter();
    let expected = frames
        .next()
        .and_then(|header| Header::from_bytes(&header).ok())
        .ok_or(SnapshotError::BadHeader)?
        .nodes;
    let mut forest = Forest::new();
    let mut loaded = 0u64;
    for frame in frames {
        let Node { id, parent, value } =
            Node::from_bytes(&frame).map_err(|e| SnapshotError::CorruptNode(e.to_string()))?;
        forest
            .insert_with_id(id, value.into_owned(), parent)
            .map_err(|e| SnapshotError::CorruptNode(e.to_string()))?;
        loaded += 1;
    }
    if loaded != expected {
        return Err(SnapshotError::Incomplete {
            expected,
            found: loaded,
        });
    }
    Ok(forest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use tep_model::Value;

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tep-snap-{}-{}-{}.snap",
            std::process::id(),
            tag,
            n
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample_forest() -> Forest {
        let mut f = Forest::new();
        let db = f.insert(Value::text("db"), None).unwrap();
        let t = f.insert(Value::text("t"), Some(db)).unwrap();
        for r in 0..5i64 {
            let row = f.insert(Value::Null, Some(t)).unwrap();
            for a in 0..3i64 {
                f.insert(Value::Int(r * 10 + a), Some(row)).unwrap();
            }
        }
        // A second, detached root too.
        f.insert(Value::real(2.5), None).unwrap();
        f
    }

    #[test]
    fn roundtrip_preserves_structure_and_values() {
        let path = temp_path("roundtrip");
        let _guard = Cleanup(path.clone());
        let f = sample_forest();
        save_forest(&f, &path).unwrap();
        let g = load_forest(&path).unwrap();
        assert_eq!(f.len(), g.len());
        assert_eq!(f.roots().collect::<Vec<_>>(), g.roots().collect::<Vec<_>>());
        for id in f.ids() {
            let a = f.node(id).unwrap();
            let b = g.node(id).unwrap();
            assert_eq!(a.value(), b.value());
            assert_eq!(a.parent(), b.parent());
            assert_eq!(
                a.children().collect::<Vec<_>>(),
                b.children().collect::<Vec<_>>()
            );
        }
        // Fresh ids continue past the snapshot's.
        assert_eq!(f.next_id_hint(), g.next_id_hint());
    }

    #[test]
    fn empty_forest_roundtrips() {
        let path = temp_path("empty");
        let _guard = Cleanup(path.clone());
        save_forest(&Forest::new(), &path).unwrap();
        let g = load_forest(&path).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn save_replaces_existing_snapshot_atomically() {
        let path = temp_path("replace");
        let _guard = Cleanup(path.clone());
        save_forest(&sample_forest(), &path).unwrap();
        let mut small = Forest::new();
        small.insert(Value::Int(1), None).unwrap();
        save_forest(&small, &path).unwrap();
        assert_eq!(load_forest(&path).unwrap().len(), 1);
    }

    #[test]
    fn truncated_snapshot_detected() {
        let path = temp_path("torn");
        let _guard = Cleanup(path.clone());
        save_forest(&sample_forest(), &path).unwrap();
        // Chop the tail: the log recovers fewer node frames than promised.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 10).unwrap();
        drop(file);
        assert!(matches!(
            load_forest(&path),
            Err(SnapshotError::Incomplete { .. })
        ));
    }

    #[test]
    fn non_snapshot_rejected() {
        let path = temp_path("bad");
        let _guard = Cleanup(path.clone());
        // A valid log that is not a snapshot.
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"not a header").unwrap();
        log.sync().unwrap();
        drop(log);
        assert!(matches!(load_forest(&path), Err(SnapshotError::BadHeader)));
        // Not a log at all.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(load_forest(&path).is_err());
    }
}
