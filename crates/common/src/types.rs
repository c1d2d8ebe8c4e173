//! File-system object types: metadata records, open flags, directory
//! entries.
//!
//! GekkoFS stores one metadata record per file-system object in the
//! responsible daemon's KV store. The record is deliberately small —
//! the paper's relaxed POSIX model drops ownership/permissions (the
//! node-local FS enforces those) and link counts (no links).

use crate::error::{GkfsError, Result};
use crate::wire::{Decoder, Encoder, Wire};
use crate::wire_struct;

/// What kind of object a metadata record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FileKind {
    /// Regular file with chunked data.
    File,
    /// Directory: exists only as a metadata object; children are found
    /// by prefix scan, never via directory blocks.
    Directory,
}

/// One byte, `0` = file and `1` = directory; anything else fails the
/// decode, so every message that carries a kind validates it once, here.
impl Wire for FileKind {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Encoder) {
        e.u8(match self {
            FileKind::File => 0,
            FileKind::Directory => 1,
        });
    }
    fn get(d: &mut Decoder<'_>) -> Result<FileKind> {
        match d.u8()? {
            0 => Ok(FileKind::File),
            1 => Ok(FileKind::Directory),
            other => Err(GkfsError::Corruption(format!("bad file kind {other}"))),
        }
    }
}

wire_struct! {
    /// Metadata for one file-system object, as stored in the KV store and
    /// shipped over RPC.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Metadata {
        /// File or directory.
        pub kind: FileKind,
        /// Logical size in bytes (0 for directories).
        pub size: u64,
        /// Mode bits (`rwx` style); advisory only — GekkoFS does not
        /// enforce permissions (§III-A).
        pub mode: u32,
        /// Creation time, nanoseconds since an arbitrary epoch chosen by
        /// the creating daemon. GekkoFS keeps ctime only as an ordering
        /// hint; it is not part of the consistency contract.
        pub ctime_ns: u64,
        /// Last-known modification time (updated on size changes).
        pub mtime_ns: u64,
    }
}

impl Metadata {
    /// New regular-file metadata with default mode `0o644`.
    pub fn new_file(now_ns: u64) -> Metadata {
        Metadata {
            kind: FileKind::File,
            size: 0,
            mode: 0o644,
            ctime_ns: now_ns,
            mtime_ns: now_ns,
        }
    }

    /// New directory metadata with default mode `0o755`.
    pub fn new_dir(now_ns: u64) -> Metadata {
        Metadata {
            kind: FileKind::Directory,
            size: 0,
            mode: 0o755,
            ctime_ns: now_ns,
            mtime_ns: now_ns,
        }
    }

    /// Is dir.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Directory
    }

    /// Serialize into the compact wire/KV representation
    /// ([`Wire::encode`], callable without the trait in scope).
    pub fn encode(&self) -> Vec<u8> {
        Wire::encode(self)
    }

    /// Deserialize from [`Metadata::encode`] output.
    pub fn decode(buf: &[u8]) -> Result<Metadata> {
        Wire::decode(buf)
    }
}

wire_struct! {
    /// One entry returned by `readdir`: the object's name within the
    /// directory plus its kind and size (what `ls -l` needs without an
    /// extra round of stats — the daemon reads them from the same KV scan).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Dirent {
        /// Name.
        pub name: String,
        /// Kind.
        pub kind: FileKind,
        /// Size in bytes (0 for directories).
        pub size: u64,
    }
}

/// Open flags understood by the client's file map. A deliberately
/// small subset of POSIX `O_*`, matching what the paper's target
/// applications use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// With `create`: fail if the file already exists (`O_EXCL`).
    pub exclusive: bool,
    /// Truncate to zero length on open (`O_TRUNC`).
    pub truncate: bool,
    /// All writes append to the end of the file (`O_APPEND`).
    pub append: bool,
}

impl OpenFlags {
    /// RDONLY.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        exclusive: false,
        truncate: false,
        append: false,
    };
    /// WRONLY.
    pub const WRONLY: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: false,
        exclusive: false,
        truncate: false,
        append: false,
    };
    /// RDWR.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: false,
        exclusive: false,
        truncate: false,
        append: false,
    };

    /// `O_CREAT | O_WRONLY | O_TRUNC` — the classic `creat()` combo.
    pub fn create_truncate() -> OpenFlags {
        OpenFlags {
            create: true,
            truncate: true,
            ..OpenFlags::WRONLY
        }
    }

    /// Builder-style helpers.
    pub fn with_create(mut self) -> Self {
        self.create = true;
        self
    }
    /// With exclusive.
    pub fn with_exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }
    /// With truncate.
    pub fn with_truncate(mut self) -> Self {
        self.truncate = true;
        self
    }
    /// With append.
    pub fn with_append(mut self) -> Self {
        self.append = true;
        self
    }

    /// Decode from POSIX `O_*` bits (Linux values), for the C ABI layer.
    pub fn from_posix(flags: i32) -> OpenFlags {
        const O_WRONLY: i32 = 0o1;
        const O_RDWR: i32 = 0o2;
        const O_CREAT: i32 = 0o100;
        const O_EXCL: i32 = 0o200;
        const O_TRUNC: i32 = 0o1000;
        const O_APPEND: i32 = 0o2000;
        let acc = flags & 0o3;
        OpenFlags {
            read: acc != O_WRONLY,
            write: acc == O_WRONLY || acc == O_RDWR,
            create: flags & O_CREAT != 0,
            exclusive: flags & O_EXCL != 0,
            truncate: flags & O_TRUNC != 0,
            append: flags & O_APPEND != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_roundtrip() {
        let m = Metadata {
            kind: FileKind::File,
            size: 0xDEADBEEF,
            mode: 0o640,
            ctime_ns: 123,
            mtime_ns: 456,
        };
        assert_eq!(Metadata::decode(&m.encode()).unwrap(), m);
        let d = Metadata::new_dir(99);
        assert_eq!(Metadata::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn metadata_decode_rejects_garbage() {
        assert!(Metadata::decode(&[]).is_err());
        assert!(Metadata::decode(&[7, 0, 0]).is_err());
        // Trailing bytes are corruption too.
        let mut buf = Metadata::new_file(1).encode();
        buf.push(0);
        assert!(Metadata::decode(&buf).is_err());
    }

    #[test]
    fn posix_flag_decoding() {
        let f = OpenFlags::from_posix(0o102); // O_RDWR | O_CREAT
        assert!(f.read && f.write && f.create && !f.truncate);
        let f = OpenFlags::from_posix(0o1101); // O_WRONLY | O_CREAT | O_TRUNC
        assert!(!f.read && f.write && f.create && f.truncate);
        let f = OpenFlags::from_posix(0);
        assert!(f.read && !f.write);
        let f = OpenFlags::from_posix(0o2002); // O_RDWR | O_APPEND
        assert!(f.read && f.write && f.append);
    }

    #[test]
    fn flag_builders() {
        let f = OpenFlags::create_truncate();
        assert!(f.create && f.truncate && f.write && !f.read);
        let f = OpenFlags::RDWR.with_create().with_exclusive();
        assert!(f.create && f.exclusive);
    }
}
