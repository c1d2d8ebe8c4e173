//! The preload-style C ABI: what an intercepted application would
//! exercise. This example drives the `extern "C"` surface directly —
//! the same calls a `dlsym`-based `LD_PRELOAD` shim forwards.
//!
//! ```sh
//! cargo run -p gkfs-examples --bin posix_api
//! ```

use gekkofs::{Cluster, ClusterConfig};
use gkfs_posix::*;
use std::ffi::CString;
use std::sync::Arc;

const O_RDWR: i32 = 0o2;
const O_CREAT: i32 = 0o100;

fn main() -> gekkofs::Result<()> {
    // The preload library's constructor: deploy/attach and install the
    // process-wide client.
    let cluster = Cluster::deploy(ClusterConfig::new(4))?;
    install_client(Arc::new(cluster.mount()?));

    let path = CString::new("/app/output.bin").unwrap();

    // The application thinks it is calling open(2)/write(2)/...
    // SAFETY: `path` is a NUL-terminated C string that outlives the call.
    let fd = unsafe { gkfs_open(path.as_ptr(), O_CREAT | O_RDWR, 0o644) };
    assert!(fd >= 100_000, "GekkoFS descriptors live above the kernel's");
    println!("open -> fd {fd} (gkfs_owns_fd = {})", gkfs_owns_fd(fd));

    let data = b"application data via C ABI";
    // SAFETY: `data` is `data.len()` readable bytes.
    let n = unsafe { gkfs_write(fd, data.as_ptr(), data.len()) };
    println!("write -> {n} bytes");

    let pos = gkfs_lseek(fd, 0, 0 /* SEEK_SET */);
    println!("lseek -> {pos}");

    let mut buf = [0u8; 64];
    // SAFETY: `buf` is `buf.len()` writable bytes.
    let n = unsafe { gkfs_read(fd, buf.as_mut_ptr(), buf.len()) };
    println!(
        "read -> {n} bytes: {:?}",
        String::from_utf8_lossy(&buf[..n as usize])
    );

    let mut st = GkfsStat::default();
    // SAFETY: `path` is a NUL-terminated C string and `st` a local the
    // call writes into.
    unsafe { gkfs_stat(path.as_ptr(), &mut st) };
    println!("stat -> size {} mode {:o}", st.size, st.mode);

    // The POSIX features GekkoFS deliberately drops fail with
    // proper errnos rather than surprising the application.
    let to = CString::new("/app/renamed.bin").unwrap();
    // SAFETY: both paths are NUL-terminated C strings.
    let r = unsafe { gkfs_rename(path.as_ptr(), to.as_ptr()) };
    println!("rename -> {r} (errno {} = EOPNOTSUPP)", gkfs_errno());

    gkfs_close(fd);
    // SAFETY: `path` is a NUL-terminated C string.
    unsafe { gkfs_unlink(path.as_ptr()) };

    uninstall_client();
    cluster.shutdown();
    Ok(())
}
