//! Environment-variable parsing with the workspace-wide fallback contract.
//!
//! Every `GBTL_*` knob behaves the same way: unset means "use the default"
//! silently; set-but-invalid means "warn once on stderr, then use the
//! default". The warning names the variable and echoes the rejected value
//! so a typo'd knob never fails silently (the behavior PR 1 documented for
//! `GBTL_NUM_THREADS`, now shared by every consumer).

use std::str::FromStr;

/// Read and parse `name` as a `T`, validating with `valid`.
///
/// * unset → `None`, silently;
/// * set and parsing + validation succeed → `Some(value)`;
/// * set but unparsable or rejected by `valid` → one warning on stderr,
///   then `None` (the caller applies its default).
pub fn parsed_var<T: FromStr>(name: &str, valid: impl Fn(&T) -> bool) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("gbtl: ignoring invalid {name}={raw:?}; falling back to the default");
            None
        }
    }
}

/// [`parsed_var`] for `usize` knobs with a lower bound (thread counts,
/// buffer and queue capacities): values below `min` are invalid.
pub fn usize_var(name: &str, min: usize) -> Option<usize> {
    parsed_var(name, |&v: &usize| v >= min)
}

/// [`parsed_var`] for `u64` knobs with a lower bound (timeouts in ms).
pub fn u64_var(name: &str, min: u64) -> Option<u64> {
    parsed_var(name, |&v: &u64| v >= min)
}

/// [`parsed_var`] for on/off knobs (`GBTL_FUSE`): accepts
/// `on`/`off`, `true`/`false`, `1`/`0`, `yes`/`no` (case-insensitive);
/// anything else warns and falls back.
pub fn bool_var(name: &str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "on" | "true" | "1" | "yes" => Some(true),
        "off" | "false" | "0" | "no" => Some(false),
        _ => {
            eprintln!("gbtl: ignoring invalid {name}={raw:?}; falling back to the default");
            None
        }
    }
}

/// [`parsed_var`] for duration knobs given in **milliseconds** where `0`
/// means "disabled" — the shared grammar for `GBTL_SERVE_IDLE_TIMEOUT` and
/// friends, so every front-end parses timeout knobs identically.
///
/// * unset or invalid → `None` (the caller applies its default);
/// * `0` → `Some(None)` — the user explicitly disabled the timeout;
/// * `n > 0` → `Some(Some(n ms))`.
pub fn duration_ms_var(name: &str) -> Option<Option<std::time::Duration>> {
    let ms: u64 = parsed_var(name, |_| true)?;
    Some((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

/// Read `name` as a non-empty string (empty/whitespace-only counts as
/// invalid and warns).
pub fn string_var(name: &str) -> Option<String> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        eprintln!("gbtl: ignoring empty {name}; falling back to the default");
        None
    } else {
        Some(trimmed.to_string())
    }
}

/// [`string_var`] for filesystem-path knobs (`GBTL_SNAPSHOT_DIR`): a
/// non-empty value becomes a [`std::path::PathBuf`] verbatim — existence
/// is *not* checked here, because consumers like the snapshot writer
/// create the directory on first use.
pub fn path_var(name: &str) -> Option<std::path::PathBuf> {
    string_var(name).map(std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    // Env mutation is process-global; serialize these tests.
    fn env_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    #[test]
    fn unset_is_silent_none() {
        let _g = env_lock().lock().unwrap();
        std::env::remove_var("GBTL_UTIL_TEST_UNSET");
        assert_eq!(usize_var("GBTL_UTIL_TEST_UNSET", 1), None);
        assert_eq!(u64_var("GBTL_UTIL_TEST_UNSET", 0), None);
        assert_eq!(string_var("GBTL_UTIL_TEST_UNSET"), None);
    }

    #[test]
    fn valid_values_parse() {
        let _g = env_lock().lock().unwrap();
        std::env::set_var("GBTL_UTIL_TEST_OK", " 8 ");
        assert_eq!(usize_var("GBTL_UTIL_TEST_OK", 1), Some(8));
        assert_eq!(u64_var("GBTL_UTIL_TEST_OK", 1), Some(8));
        assert_eq!(string_var("GBTL_UTIL_TEST_OK").as_deref(), Some("8"));
        std::env::remove_var("GBTL_UTIL_TEST_OK");
    }

    #[test]
    fn invalid_values_fall_back() {
        let _g = env_lock().lock().unwrap();
        for bad in ["zero?", "-3", "1.5", ""] {
            std::env::set_var("GBTL_UTIL_TEST_BAD", bad);
            assert_eq!(usize_var("GBTL_UTIL_TEST_BAD", 1), None, "input {bad:?}");
        }
        // parses but violates the bound
        std::env::set_var("GBTL_UTIL_TEST_BAD", "0");
        assert_eq!(usize_var("GBTL_UTIL_TEST_BAD", 1), None);
        assert_eq!(u64_var("GBTL_UTIL_TEST_BAD", 1), None);
        // bound of 0 accepts it
        assert_eq!(usize_var("GBTL_UTIL_TEST_BAD", 0), Some(0));
        std::env::set_var("GBTL_UTIL_TEST_BAD", "   ");
        assert_eq!(string_var("GBTL_UTIL_TEST_BAD"), None);
        assert_eq!(path_var("GBTL_UTIL_TEST_BAD"), None);
        std::env::remove_var("GBTL_UTIL_TEST_BAD");
    }

    #[test]
    fn path_knobs_pass_values_through() {
        let _g = env_lock().lock().unwrap();
        std::env::set_var("GBTL_UTIL_TEST_PATH", " /tmp/snapdir ");
        assert_eq!(
            path_var("GBTL_UTIL_TEST_PATH"),
            Some(std::path::PathBuf::from("/tmp/snapdir"))
        );
        std::env::remove_var("GBTL_UTIL_TEST_PATH");
    }

    #[test]
    fn bool_knobs_accept_common_spellings() {
        let _g = env_lock().lock().unwrap();
        std::env::remove_var("GBTL_UTIL_TEST_BOOL");
        assert_eq!(bool_var("GBTL_UTIL_TEST_BOOL"), None);
        for (raw, want) in [
            ("on", true),
            ("ON", true),
            ("true", true),
            ("1", true),
            ("yes", true),
            (" off ", false),
            ("false", false),
            ("0", false),
            ("no", false),
        ] {
            std::env::set_var("GBTL_UTIL_TEST_BOOL", raw);
            assert_eq!(bool_var("GBTL_UTIL_TEST_BOOL"), Some(want), "input {raw:?}");
        }
        std::env::set_var("GBTL_UTIL_TEST_BOOL", "maybe");
        assert_eq!(bool_var("GBTL_UTIL_TEST_BOOL"), None);
        std::env::remove_var("GBTL_UTIL_TEST_BOOL");
    }

    #[test]
    fn duration_ms_knobs_distinguish_disabled_from_unset() {
        let _g = env_lock().lock().unwrap();
        std::env::remove_var("GBTL_UTIL_TEST_DUR");
        assert_eq!(duration_ms_var("GBTL_UTIL_TEST_DUR"), None);
        std::env::set_var("GBTL_UTIL_TEST_DUR", "0");
        assert_eq!(duration_ms_var("GBTL_UTIL_TEST_DUR"), Some(None));
        std::env::set_var("GBTL_UTIL_TEST_DUR", "1500");
        assert_eq!(
            duration_ms_var("GBTL_UTIL_TEST_DUR"),
            Some(Some(std::time::Duration::from_millis(1500)))
        );
        std::env::set_var("GBTL_UTIL_TEST_DUR", "soon");
        assert_eq!(duration_ms_var("GBTL_UTIL_TEST_DUR"), None);
        std::env::remove_var("GBTL_UTIL_TEST_DUR");
    }

    #[test]
    fn custom_validation() {
        let _g = env_lock().lock().unwrap();
        std::env::set_var("GBTL_UTIL_TEST_CUSTOM", "42");
        let even: Option<u32> = parsed_var("GBTL_UTIL_TEST_CUSTOM", |v| v % 2 == 0);
        assert_eq!(even, Some(42));
        let odd: Option<u32> = parsed_var("GBTL_UTIL_TEST_CUSTOM", |v| v % 2 == 1);
        assert_eq!(odd, None);
        std::env::remove_var("GBTL_UTIL_TEST_CUSTOM");
    }
}
