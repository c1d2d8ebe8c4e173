//! Minimal leveled logging, dependency-free.
//!
//! GekkoFS daemons run unattended on compute nodes, so operational
//! visibility matters (the authors built a whole tracing framework for
//! storage systems \[37\]). This is a deliberately small substitute: a
//! global level (initialized from `GKFS_LOG`, overridable in code) and
//! three macros writing single-line records to stderr. The disabled
//! path is one relaxed atomic load.
//!
//! ```
//! use gkfs_common::{gkfs_info, log::{set_level, Level}};
//! set_level(Level::Info);
//! gkfs_info!("daemon listening on {}", "127.0.0.1:9820");
//! ```

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severities, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Operational milestones (startup, shutdown, mounts).
    Info = 1,
    /// Unexpected-but-handled conditions.
    Warn = 2,
    /// Per-operation detail (hot path — benchmarks will suffer).
    Debug = 3,
}

static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX); // MAX = uninitialized

fn init_from_env() -> u8 {
    let lvl = match std::env::var("GKFS_LOG").as_deref() {
        Ok("info") | Ok("INFO") => Level::Info,
        Ok("warn") | Ok("WARN") => Level::Warn,
        Ok("debug") | Ok("DEBUG") => Level::Debug,
        _ => Level::Off,
    } as u8;
    LEVEL.store(lvl, Ordering::Relaxed);
    lvl
}

/// Current level (reads `GKFS_LOG` on first use).
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    let raw = if raw == u8::MAX { init_from_env() } else { raw };
    match raw {
        1 => Level::Info,
        2 => Level::Warn,
        3 => Level::Debug,
        _ => Level::Off,
    }
}

/// Override the level programmatically.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Is `l` currently enabled?
#[inline]
pub fn enabled(l: Level) -> bool {
    l <= level() && l != Level::Off
}

/// Implementation detail of the macros.
pub fn write_record(l: Level, module: &str, args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros())
        .unwrap_or(0);
    let tag = match l {
        Level::Info => "INFO",
        Level::Warn => "WARN",
        Level::Debug => "DEBUG",
        Level::Off => return,
    };
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "[{micros} {tag} {module}] {args}");
}

/// Log at info level.
#[macro_export]
macro_rules! gkfs_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::write_record($crate::log::Level::Info, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Log at warn level.
#[macro_export]
macro_rules! gkfs_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::write_record($crate::log::Level::Warn, module_path!(), format_args!($($arg)*));
        }
    };
}

/// Log at debug level (hot paths — keep the format cheap).
#[macro_export]
macro_rules! gkfs_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::write_record($crate::log::Level::Debug, module_path!(), format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_correctly() {
        set_level(Level::Warn);
        assert!(enabled(Level::Info));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Off), "Off is never 'enabled'");
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Off);
    }

    #[test]
    fn macros_compile_and_run() {
        set_level(Level::Debug);
        gkfs_info!("info {}", 1);
        gkfs_warn!("warn {}", 2);
        gkfs_debug!("debug {}", 3);
        set_level(Level::Off);
        gkfs_info!("not printed");
    }
}
