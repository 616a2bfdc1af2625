//! The logging subsystem: levels, per-module filters, and outputs.
//!
//! Follows libvirt's design:
//!
//! - four levels forming an inclusive hierarchy (`debug` ⊃ `info` ⊃
//!   `warning` ⊃ `error`);
//! - **filters** of the form `level:module_match` that override the global
//!   level for modules whose name contains the match string;
//! - **outputs** of the form `level:kind[:data]` restricting which
//!   messages reach each destination (`stderr`, `file:<path>`,
//!   `journald`, and a capturing `buffer` sink for tests and the daemon's
//!   admin interface).
//!
//! Settings changes are applied with a read-copy-update swap: the logger
//! holds an `Arc<LogSettings>` behind a lock taken only for the pointer
//! read/replace, so writers never stall concurrent loggers mid-message
//! and a half-applied filter set is never observable — the property whose
//! absence causes the lost-log-consistency problem described in the
//! libvirt literature.

use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use virt_metrics::wire_enum;

use crate::error::{ErrorCode, VirtError, VirtResult};

wire_enum! {
    /// Message priority, lowest (most verbose) first. The number is the
    /// one used in filter/output strings.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum LogLevel {
        /// Everything.
        Debug = 1 => "debug",
        /// Informational and worse.
        Info = 2 => "info",
        /// Warnings and errors.
        Warning = 3 => "warning",
        /// Errors only.
        Error = 4 => "error",
    }
}

/// A number outside 1–4 is [`ErrorCode::InvalidArg`].
impl TryFrom<u32> for LogLevel {
    type Error = VirtError;

    fn try_from(number: u32) -> VirtResult<Self> {
        Self::from_u32(number).ok_or_else(|| {
            VirtError::new(
                ErrorCode::InvalidArg,
                format!("logging level {number} out of range 1-4"),
            )
        })
    }
}

/// A per-module level override: `level:module_match`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogFilter {
    /// Minimum level for matching modules.
    pub level: LogLevel,
    /// Substring matched against the message's module name.
    pub module_match: String,
}

impl FromStr for LogFilter {
    type Err = VirtError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |why: &str| VirtError::new(ErrorCode::InvalidArg, format!("filter '{s}': {why}"));
        let (level_str, module) = s.split_once(':').ok_or_else(|| bad("missing ':'"))?;
        let number = level_str
            .parse::<u32>()
            .map_err(|_| bad("level is not a number"))?;
        let level = LogLevel::try_from(number)?;
        if module.is_empty() {
            return Err(bad("empty module match"));
        }
        Ok(LogFilter {
            level,
            module_match: module.to_string(),
        })
    }
}

impl fmt::Display for LogFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.level.as_u32(), self.module_match)
    }
}

/// Where matching messages go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputKind {
    /// Standard error.
    Stderr,
    /// Append to a file at the given path.
    File(String),
    /// A journald-style destination (modeled as a named in-memory journal).
    Journald,
    /// A shared in-memory buffer, inspectable by tests and the admin API.
    Buffer,
}

/// A destination plus the minimum level it accepts: `level:kind[:data]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogOutput {
    /// Minimum level this output accepts.
    pub level: LogLevel,
    /// The destination.
    pub kind: OutputKind,
}

impl FromStr for LogOutput {
    type Err = VirtError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |why: &str| VirtError::new(ErrorCode::InvalidArg, format!("output '{s}': {why}"));
        let mut parts = s.splitn(3, ':');
        let level_str = parts.next().ok_or_else(|| bad("empty"))?;
        let number = level_str
            .parse::<u32>()
            .map_err(|_| bad("level is not a number"))?;
        let level = LogLevel::try_from(number)?;
        let kind_str = parts.next().ok_or_else(|| bad("missing output kind"))?;
        let data = parts.next();
        let kind = match (kind_str, data) {
            ("stderr", None) => OutputKind::Stderr,
            ("stderr", Some(_)) => return Err(bad("stderr takes no data")),
            ("journald", None) => OutputKind::Journald,
            ("journald", Some(_)) => return Err(bad("journald takes no data")),
            ("buffer", None) => OutputKind::Buffer,
            ("buffer", Some(_)) => return Err(bad("buffer takes no data")),
            ("file", Some(path)) if path.starts_with('/') => OutputKind::File(path.to_string()),
            ("file", Some(_)) => return Err(bad("file path must be absolute")),
            ("file", None) => return Err(bad("file output requires a path")),
            (other, _) => return Err(bad(&format!("unknown output kind '{other}'"))),
        };
        Ok(LogOutput { level, kind })
    }
}

impl fmt::Display for LogOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            OutputKind::Stderr => write!(f, "{}:stderr", self.level.as_u32()),
            OutputKind::Journald => write!(f, "{}:journald", self.level.as_u32()),
            OutputKind::Buffer => write!(f, "{}:buffer", self.level.as_u32()),
            OutputKind::File(path) => write!(f, "{}:file:{}", self.level.as_u32(), path),
        }
    }
}

/// An immutable snapshot of the complete logging configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogSettings {
    /// Global minimum level.
    pub level: LogLevel,
    /// Per-module overrides, applied first-match-wins.
    pub filters: Vec<LogFilter>,
    /// Destinations.
    pub outputs: Vec<LogOutput>,
}

impl LogSettings {
    /// libvirt-like defaults: level `error`, no filters, stderr output.
    pub fn new() -> Self {
        LogSettings {
            level: LogLevel::Error,
            filters: Vec::new(),
            outputs: vec![LogOutput {
                level: LogLevel::Debug,
                kind: OutputKind::Stderr,
            }],
        }
    }

    /// Parses a space-separated filter list (`"3:util 4:rpc"`).
    ///
    /// # Errors
    ///
    /// The first malformed entry's error; nothing is partially applied.
    pub fn parse_filters(s: &str) -> VirtResult<Vec<LogFilter>> {
        s.split_whitespace().map(str::parse).collect()
    }

    /// Parses a space-separated output list.
    ///
    /// # Errors
    ///
    /// The first malformed entry's error; nothing is partially applied.
    pub fn parse_outputs(s: &str) -> VirtResult<Vec<LogOutput>> {
        s.split_whitespace().map(str::parse).collect()
    }

    /// Formats the filters back to the string form.
    pub fn filters_string(&self) -> String {
        self.filters
            .iter()
            .map(LogFilter::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Formats the outputs back to the string form.
    pub fn outputs_string(&self) -> String {
        self.outputs
            .iter()
            .map(LogOutput::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The level effective for `module`: the first matching filter's
    /// level, falling back to the global level.
    fn effective_level(&self, module: &str) -> LogLevel {
        self.filters
            .iter()
            .find(|f| module.contains(f.module_match.as_str()))
            .map(|f| f.level)
            .unwrap_or(self.level)
    }
}

impl Default for LogSettings {
    fn default() -> Self {
        LogSettings::new()
    }
}

/// One emitted record, as captured by buffer/journald sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Severity.
    pub level: LogLevel,
    /// Module that emitted the record.
    pub module: String,
    /// The message text.
    pub message: String,
    /// The RPC request being serviced when the record was emitted, if
    /// any — picked up from the thread's tracing span so every layer a
    /// dispatch touches logs with the same `c<client>.s<serial>` id.
    pub request: Option<crate::metrics::trace::RequestId>,
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.request {
            Some(id) => write!(
                f,
                "{}: {}: [{}] {}",
                self.level, self.module, id, self.message
            ),
            None => write!(f, "{}: {}: {}", self.level, self.module, self.message),
        }
    }
}

/// A logger instance: RCU-swapped settings plus capturing sinks.
///
/// Each daemon owns one `Logger`; libraries log through a reference.
///
/// # Examples
///
/// ```
/// use virt_core::log::{Logger, LogLevel, LogSettings};
///
/// let logger = Logger::new();
/// let mut settings = LogSettings::new();
/// settings.level = LogLevel::Info;
/// settings.outputs = LogSettings::parse_outputs("1:buffer").unwrap();
/// logger.redefine(settings).unwrap();
///
/// logger.info("driver.qemu", "domain started");
/// logger.debug("driver.qemu", "suppressed at info level");
/// assert_eq!(logger.captured().len(), 1);
/// ```
#[derive(Debug)]
pub struct Logger {
    settings: RwLock<Arc<LogSettings>>,
    buffer: Mutex<Vec<LogRecord>>,
    journal: Mutex<Vec<LogRecord>>,
    /// Open file handles, keyed by path — files are opened once and
    /// appended through, like a real daemon keeps its log fd.
    files: Mutex<std::collections::HashMap<String, std::fs::File>>,
}

impl Logger {
    /// Creates a logger with default settings.
    pub fn new() -> Self {
        Logger {
            settings: RwLock::new(Arc::new(LogSettings::new())),
            buffer: Mutex::new(Vec::new()),
            journal: Mutex::new(Vec::new()),
            files: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// A snapshot of the current settings.
    pub fn settings(&self) -> Arc<LogSettings> {
        Arc::clone(&self.settings.read())
    }

    /// Atomically replaces the settings (the RCU swap). Every message
    /// observes either the old or the new settings in full.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] when the settings reference a file output
    /// whose parent directory does not exist (validated up front so a
    /// failed redefine leaves the old settings in force).
    pub fn redefine(&self, settings: LogSettings) -> VirtResult<()> {
        for output in &settings.outputs {
            if let OutputKind::File(path) = &output.kind {
                let parent = std::path::Path::new(path)
                    .parent()
                    .filter(|p| !p.as_os_str().is_empty())
                    .ok_or_else(|| {
                        VirtError::new(ErrorCode::InvalidArg, format!("bad log file path '{path}'"))
                    })?;
                if !parent.exists() {
                    return Err(VirtError::new(
                        ErrorCode::InvalidArg,
                        format!("log directory '{}' does not exist", parent.display()),
                    ));
                }
            }
        }
        *self.settings.write() = Arc::new(settings);
        Ok(())
    }

    /// Changes only the global level, keeping filters and outputs.
    pub fn set_level(&self, level: LogLevel) {
        let mut new_settings = (*self.settings()).clone();
        new_settings.level = level;
        *self.settings.write() = Arc::new(new_settings);
    }

    /// Emits a record.
    pub fn log(&self, level: LogLevel, module: &str, message: &str) {
        // Readers share the lock, so concurrent loggers proceed in
        // parallel; a redefine waits for in-flight messages and then swaps
        // the Arc — no message ever observes a half-applied settings set.
        let settings = self.settings.read();
        if level < settings.effective_level(module) {
            return;
        }
        let record = LogRecord {
            level,
            module: module.to_string(),
            message: message.to_string(),
            request: crate::metrics::trace::current(),
        };
        for output in &settings.outputs {
            if level < output.level {
                continue;
            }
            match &output.kind {
                OutputKind::Stderr => {
                    let _ = writeln!(std::io::stderr(), "{record}");
                }
                OutputKind::File(path) => {
                    let mut files = self.files.lock();
                    let file = match files.entry(path.clone()) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            match std::fs::OpenOptions::new()
                                .append(true)
                                .create(true)
                                .open(path)
                            {
                                Ok(file) => e.insert(file),
                                Err(_) => continue,
                            }
                        }
                    };
                    let _ = writeln!(file, "{record}");
                }
                OutputKind::Journald => push_capped(&mut self.journal.lock(), record.clone()),
                OutputKind::Buffer => push_capped(&mut self.buffer.lock(), record.clone()),
            }
        }
    }

    /// Convenience: debug-level record.
    pub fn debug(&self, module: &str, message: &str) {
        self.log(LogLevel::Debug, module, message);
    }

    /// Convenience: info-level record.
    pub fn info(&self, module: &str, message: &str) {
        self.log(LogLevel::Info, module, message);
    }

    /// Convenience: warning-level record.
    pub fn warning(&self, module: &str, message: &str) {
        self.log(LogLevel::Warning, module, message);
    }

    /// Convenience: error-level record.
    pub fn error(&self, module: &str, message: &str) {
        self.log(LogLevel::Error, module, message);
    }

    /// Records captured by `buffer` outputs.
    pub fn captured(&self) -> Vec<LogRecord> {
        self.buffer.lock().clone()
    }

    /// Records captured by `journald` outputs.
    pub fn journal(&self) -> Vec<LogRecord> {
        self.journal.lock().clone()
    }
}

impl Default for Logger {
    fn default() -> Self {
        Logger::new()
    }
}

/// Capacity of the capturing sinks; oldest records are dropped first, so
/// a long-running daemon's in-memory log stays bounded.
const CAPTURE_CAP: usize = 10_000;

fn push_capped(sink: &mut Vec<LogRecord>, record: LogRecord) {
    if sink.len() >= CAPTURE_CAP {
        // Rare in practice; drain in one block to amortize the shift.
        sink.drain(..CAPTURE_CAP / 2);
    }
    sink.push(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffered_logger(level: LogLevel) -> Logger {
        let logger = Logger::new();
        let settings = LogSettings {
            level,
            filters: Vec::new(),
            outputs: vec![LogOutput {
                level: LogLevel::Debug,
                kind: OutputKind::Buffer,
            }],
        };
        logger.redefine(settings).unwrap();
        logger
    }

    #[test]
    fn level_numbers_round_trip() {
        for n in 1..=4 {
            assert_eq!(LogLevel::try_from(n).unwrap().as_u32(), n);
        }
        assert!(LogLevel::try_from(0).is_err());
        assert!(LogLevel::try_from(5).is_err());
    }

    #[test]
    fn level_hierarchy_is_inclusive() {
        let logger = buffered_logger(LogLevel::Warning);
        logger.debug("m", "no");
        logger.info("m", "no");
        logger.warning("m", "yes");
        logger.error("m", "yes");
        let captured = logger.captured();
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].level, LogLevel::Warning);
        assert_eq!(captured[1].level, LogLevel::Error);
    }

    #[test]
    fn filter_parse_round_trip() {
        let filter: LogFilter = "3:util.object".parse().unwrap();
        assert_eq!(filter.level, LogLevel::Warning);
        assert_eq!(filter.module_match, "util.object");
        assert_eq!(filter.to_string(), "3:util.object");
    }

    #[test]
    fn malformed_filters_rejected() {
        for bad in ["", "3", ":util", "x:util", "0:util", "5:util", "3:"] {
            assert!(bad.parse::<LogFilter>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn output_parse_round_trip() {
        for text in [
            "1:stderr",
            "3:journald",
            "2:buffer",
            "1:file:/var/log/virtd.log",
        ] {
            let output: LogOutput = text.parse().unwrap();
            assert_eq!(output.to_string(), text);
        }
    }

    #[test]
    fn malformed_outputs_rejected() {
        for bad in [
            "",
            "1",
            "1:tape",
            "9:stderr",
            "1:file",
            "1:file:relative/path",
            "1:stderr:extra",
            "1:journald:extra",
        ] {
            assert!(bad.parse::<LogOutput>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn filters_override_global_level() {
        let logger = buffered_logger(LogLevel::Error);
        let mut settings = (*logger.settings()).clone();
        settings.filters = LogSettings::parse_filters("1:driver.qemu 3:rpc").unwrap();
        logger.redefine(settings).unwrap();

        logger.debug("driver.qemu", "visible via filter");
        logger.debug("rpc.server", "hidden: filter says warning+");
        logger.warning("rpc.server", "visible via filter");
        logger.info("other.module", "hidden: global error level");
        logger.error("other.module", "visible globally");

        let captured: Vec<String> = logger
            .captured()
            .iter()
            .map(|r| r.message.clone())
            .collect();
        assert_eq!(
            captured,
            vec![
                "visible via filter",
                "visible via filter",
                "visible globally"
            ]
        );
    }

    #[test]
    fn first_matching_filter_wins() {
        let settings = LogSettings {
            level: LogLevel::Error,
            filters: LogSettings::parse_filters("4:util.object 1:util").unwrap(),
            outputs: Vec::new(),
        };
        assert_eq!(settings.effective_level("util.object"), LogLevel::Error);
        assert_eq!(settings.effective_level("util.file"), LogLevel::Debug);
        assert_eq!(settings.effective_level("rpc"), LogLevel::Error);
    }

    #[test]
    fn per_output_level_restricts() {
        let logger = Logger::new();
        let settings = LogSettings {
            level: LogLevel::Debug,
            filters: Vec::new(),
            outputs: vec![
                LogOutput {
                    level: LogLevel::Error,
                    kind: OutputKind::Buffer,
                },
                LogOutput {
                    level: LogLevel::Debug,
                    kind: OutputKind::Journald,
                },
            ],
        };
        logger.redefine(settings).unwrap();
        logger.info("m", "info msg");
        logger.error("m", "error msg");
        assert_eq!(logger.captured().len(), 1, "buffer takes errors only");
        assert_eq!(logger.journal().len(), 2, "journal takes everything");
    }

    #[test]
    fn file_output_appends() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("virt-log-test-{}.log", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let logger = Logger::new();
        let settings = LogSettings {
            level: LogLevel::Debug,
            filters: Vec::new(),
            outputs: vec![LogOutput {
                level: LogLevel::Debug,
                kind: OutputKind::File(path_str.clone()),
            }],
        };
        logger.redefine(settings).unwrap();
        logger.info("mod", "line one");
        logger.info("mod", "line two");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2);
        assert!(contents.contains("line two"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn redefine_with_missing_log_dir_fails_atomically() {
        let logger = buffered_logger(LogLevel::Debug);
        let before = logger.settings();
        let bad = LogSettings {
            level: LogLevel::Debug,
            filters: Vec::new(),
            outputs: LogSettings::parse_outputs("1:file:/no/such/dir/x.log").unwrap(),
        };
        let err = logger.redefine(bad).unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArg);
        assert_eq!(*logger.settings(), *before, "old settings remain in force");
    }

    #[test]
    fn set_level_keeps_filters_and_outputs() {
        let logger = buffered_logger(LogLevel::Error);
        let mut settings = (*logger.settings()).clone();
        settings.filters = LogSettings::parse_filters("2:rpc").unwrap();
        logger.redefine(settings).unwrap();
        logger.set_level(LogLevel::Debug);
        let after = logger.settings();
        assert_eq!(after.level, LogLevel::Debug);
        assert_eq!(after.filters.len(), 1);
        assert_eq!(after.outputs.len(), 1);
    }

    #[test]
    fn settings_strings_round_trip() {
        let settings = LogSettings {
            level: LogLevel::Info,
            filters: LogSettings::parse_filters("3:util 4:rpc").unwrap(),
            outputs: LogSettings::parse_outputs("1:buffer 3:stderr").unwrap(),
        };
        assert_eq!(settings.filters_string(), "3:util 4:rpc");
        assert_eq!(settings.outputs_string(), "1:buffer 3:stderr");
        assert_eq!(
            LogSettings::parse_filters(&settings.filters_string()).unwrap(),
            settings.filters
        );
        assert_eq!(
            LogSettings::parse_outputs(&settings.outputs_string()).unwrap(),
            settings.outputs
        );
    }

    #[test]
    fn parse_lists_fail_atomically() {
        assert!(LogSettings::parse_filters("3:good 9:bad").is_err());
        assert!(LogSettings::parse_outputs("1:stderr 1:tape").is_err());
        assert!(LogSettings::parse_filters("").unwrap().is_empty());
    }

    #[test]
    fn records_carry_the_active_request_id() {
        use crate::metrics::trace::{self, RequestId};
        let logger = buffered_logger(LogLevel::Debug);
        logger.info("rpc", "outside any request");
        {
            let _span = trace::enter(RequestId::new(7, 42));
            logger.info("rpc", "inside a request");
        }
        logger.info("rpc", "after the request");
        let captured = logger.captured();
        assert_eq!(captured[0].request, None);
        assert_eq!(captured[1].request, Some(RequestId::new(7, 42)));
        assert_eq!(captured[2].request, None);
        assert!(captured[1].to_string().contains("[c7.s42]"));
    }

    #[test]
    fn concurrent_logging_during_redefines_never_tears() {
        let logger = Arc::new(buffered_logger(LogLevel::Debug));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The writers must be running before the redefine storm starts, or
        // a fast main thread finishes all redefines first and the
        // `total > 0` check below races to zero.
        let barrier = Arc::new(std::sync::Barrier::new(5));

        let writers: Vec<_> = (0..4)
            .map(|t| {
                let logger = Arc::clone(&logger);
                let stop = Arc::clone(&stop);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut n = 0u64;
                    while n == 0 || !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        logger.debug(&format!("mod{t}"), "msg");
                        n += 1;
                    }
                    n
                })
            })
            .collect();

        barrier.wait();
        for i in 0..200 {
            let mut settings = (*logger.settings()).clone();
            settings.filters =
                LogSettings::parse_filters(&format!("{}:mod1", (i % 4) + 1)).unwrap();
            logger.redefine(settings).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0);
        // Every captured record is complete (no torn strings).
        for record in logger.captured() {
            assert_eq!(record.message, "msg");
            assert!(record.module.starts_with("mod"));
        }
    }

    #[test]
    fn filter_and_output_strings_round_trip_through_fromstr() {
        // Display → FromStr → Display is the identity for every valid
        // combination of level and destination.
        for level in 1..=4u32 {
            let filter: LogFilter = format!("{level}:daemon.rpc").parse().unwrap();
            assert_eq!(
                filter.to_string().parse::<LogFilter>().unwrap(),
                filter,
                "filter level {level}"
            );
            for kind in ["stderr", "journald", "buffer", "file:/var/log/v.log"] {
                let text = format!("{level}:{kind}");
                let output: LogOutput = text.parse().unwrap();
                assert_eq!(output.to_string(), text);
                assert_eq!(output.to_string().parse::<LogOutput>().unwrap(), output);
            }
        }
    }

    #[test]
    fn parse_errors_name_the_offending_input_and_reason() {
        // A rejected `level:kind:data` form must say *what* was wrong,
        // not just fail — the admin CLI surfaces these verbatim.
        let err = |s: &str| s.parse::<LogOutput>().unwrap_err().to_string();
        assert!(
            err("1:tape").contains("unknown output kind 'tape'"),
            "{}",
            err("1:tape")
        );
        assert!(err("1:tape").contains("'1:tape'"), "error names the input");
        assert!(err("x:stderr").contains("level is not a number"));
        assert!(err("9:stderr").contains("out of range"));
        assert!(err("1:file").contains("requires a path"));
        assert!(err("1:file:rel/path").contains("must be absolute"));
        assert!(err("1:stderr:extra").contains("stderr takes no data"));
        assert!(err("1:journald:x").contains("journald takes no data"));
        assert!(err("1").contains("missing output kind"));

        let ferr = |s: &str| s.parse::<LogFilter>().unwrap_err().to_string();
        assert!(ferr("3util").contains("missing ':'"));
        assert!(ferr("3:").contains("empty module match"));
        assert!(ferr("q:util").contains("level is not a number"));
    }

    #[test]
    fn settings_swap_is_atomic_under_a_reader_thread() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::time::{Duration, Instant};
        // RCU property: a reader always sees settings wholly from one
        // redefine — never level from A with filters from B.
        //
        // The writer keeps swapping until the reader has checked this
        // many snapshots; a fixed swap count can finish before the
        // reader thread is ever scheduled.
        const WANTED: u64 = 200;
        let logger = Arc::new(buffered_logger(LogLevel::Debug));
        let stop = Arc::new(AtomicBool::new(false));
        let observed = Arc::new(AtomicU64::new(0));
        let make = |n: u32| {
            let level = LogLevel::try_from((n % 4) + 1).unwrap();
            LogSettings {
                level,
                filters: LogSettings::parse_filters(&format!(
                    "{}:mod{}",
                    level.as_u32(),
                    level.as_u32()
                ))
                .unwrap(),
                outputs: LogSettings::parse_outputs(&format!("{}:buffer", level.as_u32())).unwrap(),
            }
        };
        // Move off the constructor defaults before the reader starts, so
        // every observable generation carries the consistency markers.
        logger.redefine(make(0)).unwrap();
        let reader = {
            let logger = Arc::clone(&logger);
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let settings = logger.settings();
                    // Internal consistency markers: each generation uses
                    // its own level number in every field.
                    let n = settings.level.as_u32();
                    assert_eq!(settings.filters.len(), 1, "whole generations only");
                    assert_eq!(settings.filters[0].to_string(), format!("{n}:mod{n}"));
                    assert_eq!(settings.outputs[0].to_string(), format!("{n}:buffer"));
                    observed.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        // Generous ceiling: reached only if the reader is starved for a
        // minute, and then the test fails loudly instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut n = 0;
        while observed.load(Ordering::SeqCst) < WANTED
            && !reader.is_finished()
            && Instant::now() < deadline
        {
            logger.redefine(make(n)).unwrap();
            n = n.wrapping_add(1);
        }
        stop.store(true, Ordering::SeqCst);
        // A reader that saw a torn generation panicked; surface that.
        reader.join().unwrap();
        let observed = observed.load(Ordering::SeqCst);
        assert!(
            observed >= WANTED,
            "reader checked only {observed} snapshots across {n} redefines in 60 s"
        );
    }
}
