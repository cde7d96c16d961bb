//! Level-filtered logging facade with a host-pluggable sink.
//!
//! Replaces the ad-hoc `eprintln!` calls that used to be scattered across
//! the workspace. Call sites use the [`error!`](crate::error!)/
//! [`warn!`](crate::warn!)/[`info!`](crate::info!)/[`debug!`](crate::debug!)/
//! [`trace!`](crate::trace!) macros; hosts pick the backend with
//! [`set_sink`] (default: stderr) and the verbosity with [`set_level`]
//! (default: [`Level::Info`]). The level check is one relaxed atomic load,
//! performed at the macro callsite *before* `format_args!` materializes —
//! a filtered-out record costs the load and a predictable branch, never
//! argument formatting or a `Display` walk of the operands.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::RwLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    pub fn from_str_loose(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Where log records go. Implementations must tolerate concurrent calls.
pub trait LogSink: Send + Sync {
    fn log(&self, level: Level, target: &str, message: &str);
}

/// The default sink: `[LEVEL target] message` on stderr.
struct StderrSink;

impl LogSink for StderrSink {
    fn log(&self, level: Level, target: &str, message: &str) {
        eprintln!("[{} {}] {}", level.as_str(), target, message);
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static SINK: RwLock<Option<Box<dyn LogSink>>> = RwLock::new(None);

/// Set the most verbose level that will be emitted.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current verbosity ceiling.
pub fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Whether a record at `level` would currently be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Install a custom sink (replacing the default stderr sink).
pub fn set_sink(sink: Box<dyn LogSink>) {
    *SINK.write().unwrap() = Some(sink);
}

/// Restore the default stderr sink.
pub fn reset_sink() {
    *SINK.write().unwrap() = None;
}

/// Emit a record that already passed the level check. Prefer the macros,
/// which perform that check before `format_args!` materializes — calling
/// this directly formats unconditionally.
pub fn log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let message = args.to_string();
    let guard = SINK.read().unwrap();
    match guard.as_ref() {
        Some(sink) => sink.log(level, target, &message),
        None => StderrSink.log(level, target, &message),
    }
}

/// Shared macro body: the level check happens *here*, at the callsite,
/// so a filtered record never builds its `format_args!` (whose captured
/// operands would otherwise be evaluated and walked by the formatter).
#[doc(hidden)]
#[macro_export]
macro_rules! __log_at {
    ($level:expr, $($arg:tt)*) => {
        if $crate::logging::enabled($level) {
            $crate::logging::log($level, module_path!(), format_args!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::__log_at!($crate::logging::Level::Error, $($arg)*)
    };
}

#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::__log_at!($crate::logging::Level::Warn, $($arg)*)
    };
}

#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::__log_at!($crate::logging::Level::Info, $($arg)*)
    };
}

#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::__log_at!($crate::logging::Level::Debug, $($arg)*)
    };
}

#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => {
        $crate::__log_at!($crate::logging::Level::Trace, $($arg)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    struct CaptureSink(Arc<Mutex<Vec<(Level, String, String)>>>);

    impl LogSink for CaptureSink {
        fn log(&self, level: Level, target: &str, message: &str) {
            self.0.lock().unwrap().push((level, target.to_string(), message.to_string()));
        }
    }

    /// The sink and level are process-wide and `cargo test` runs tests on
    /// parallel threads: every test that sets or reads them holds this.
    static GLOBAL_STATE: Mutex<()> = Mutex::new(());

    #[test]
    fn facade_filters_formats_and_routes() {
        let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        let records = Arc::new(Mutex::new(Vec::new()));
        set_sink(Box::new(CaptureSink(Arc::clone(&records))));
        set_level(Level::Info);

        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));

        crate::info!("hello {}", 42);
        crate::debug!("must be filtered");
        crate::error!("bad: {}", "thing");

        set_level(Level::Trace);
        crate::trace!("now visible");

        let got = records.lock().unwrap().clone();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, Level::Info);
        assert_eq!(got[0].2, "hello 42");
        assert!(got[0].1.contains("logging"));
        assert_eq!(got[1].0, Level::Error);
        assert_eq!(got[1].2, "bad: thing");
        assert_eq!(got[2].0, Level::Trace);

        // Restore defaults for any other test in this process.
        set_level(Level::Info);
        reset_sink();
    }

    #[test]
    fn filtered_records_never_evaluate_their_arguments() {
        let _guard = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        // `expensive` panics if called; the macro must short-circuit
        // before `format_args!` captures (and formats) the operand.
        fn expensive() -> String {
            panic!("argument was formatted for a filtered-out record");
        }
        // Global level defaults to Info (tests that change it restore it).
        assert!(!enabled(Level::Trace));
        crate::trace!("dropped: {}", expensive());
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::from_str_loose("WARN"), Some(Level::Warn));
        assert_eq!(Level::from_str_loose("debug"), Some(Level::Debug));
        assert_eq!(Level::from_str_loose("nope"), None);
        assert_eq!(Level::Error.as_str(), "ERROR");
    }
}
