//! Golden outputs: the committed copies under `bench/golden/` of what the
//! deterministic entries print and write, which every `all` run must
//! reproduce byte for byte.

use std::path::{Path, PathBuf};

/// Where the goldens live: `bench/golden/` at the workspace root.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/golden")
}

/// The first line at which a fresh output departs from its golden.
#[derive(Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// 1-based line number.
    pub line: usize,
    /// The golden's version of the line, with its newline; `None` past the
    /// golden's end.
    pub golden: Option<String>,
    /// The fresh version of the line, with its newline; `None` past the
    /// fresh output's end.
    pub fresh: Option<String>,
}

/// The first line where `fresh` differs from `golden`, or `None` when the
/// two are byte-equal. Lines keep their `\n`, so a missing final newline
/// is a difference too.
fn first_mismatch(golden: &[u8], fresh: &[u8]) -> Option<Mismatch> {
    let mut golden_lines = golden.split_inclusive(|&byte| byte == b'\n');
    let mut fresh_lines = fresh.split_inclusive(|&byte| byte == b'\n');
    let lossy = |line: &[u8]| String::from_utf8_lossy(line).into_owned();
    let mut line = 0;
    loop {
        line += 1;
        match (golden_lines.next(), fresh_lines.next()) {
            (None, None) => return None,
            (g, f) if g == f => {}
            (g, f) => return Some(Mismatch { line, golden: g.map(lossy), fresh: f.map(lossy) }),
        }
    }
}

/// Compares the golden `file` with the fresh copy of the same name in
/// `fresh_dir`, and describes the failure: an unreadable file (a missing
/// golden included) or the first differing line with both versions.
pub fn check(file: &str, fresh_dir: &Path) -> Result<(), String> {
    let name = format!("bench/golden/{file}");
    let golden = std::fs::read(dir().join(file)).map_err(|error| format!("{name}: no golden: {error}"))?;
    let fresh_path = fresh_dir.join(file);
    let fresh = std::fs::read(&fresh_path)
        .map_err(|error| format!("{}: no fresh output: {error}", fresh_path.display()))?;
    let Some(mismatch) = first_mismatch(&golden, &fresh) else { return Ok(()) };
    let show =
        |line: Option<String>| line.map_or_else(|| "<end of output>".to_string(), |l| format!("{l:?}"));
    Err(format!(
        "{name} differs from {} at line {}\n  golden: {}\n  fresh:  {}",
        fresh_path.display(),
        mismatch.line,
        show(mismatch.golden),
        show(mismatch.fresh)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &[u8] = b"| a | 1 |\n| b | 2 |\n| c | 3 |\n";

    fn mismatch(line: usize, golden: Option<&str>, fresh: Option<&str>) -> Option<Mismatch> {
        Some(Mismatch { line, golden: golden.map(String::from), fresh: fresh.map(String::from) })
    }

    #[test]
    fn equal_outputs_have_no_mismatch() {
        assert_eq!(first_mismatch(GOLDEN, GOLDEN), None);
        assert_eq!(first_mismatch(b"", b""), None);
    }

    #[test]
    fn a_changed_line_is_reported_with_both_versions() {
        assert_eq!(
            first_mismatch(GOLDEN, b"| a | 1 |\n| b | 9 |\n| c | 3 |\n"),
            mismatch(2, Some("| b | 2 |\n"), Some("| b | 9 |\n"))
        );
    }

    #[test]
    fn a_truncated_output_is_reported_where_it_stops() {
        assert_eq!(first_mismatch(GOLDEN, b"| a | 1 |\n"), mismatch(2, Some("| b | 2 |\n"), None));
        assert_eq!(
            first_mismatch(GOLDEN, b"| a | 1 |\n| b | 2 |\n| c | 3 |"),
            mismatch(3, Some("| c | 3 |\n"), Some("| c | 3 |"))
        );
    }

    #[test]
    fn an_extra_trailing_line_is_reported() {
        let fresh = [GOLDEN, b"done\n"].concat();
        assert_eq!(first_mismatch(GOLDEN, &fresh), mismatch(4, None, Some("done\n")));
    }
}
