//! Per-file model: crate and test-file classification, `#[cfg(test)]`
//! region detection, and allow-directive lookup.

use crate::lexer::{scan, AllowDirective, Scan, Token, TokenKind};

/// One scanned source file plus everything lints need to know about it.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (display + sorting key).
    pub path: String,
    /// The crate the file belongs to (`decoder`, `lp`, ... or `surfnet`
    /// for the workspace root crate, `shims/<name>` for shims).
    pub crate_name: String,
    /// Whether the file is an integration test (`tests/**`).
    test_file: bool,
    /// Lexed code tokens.
    pub tokens: Vec<Token>,
    /// Captured `analyzer:allow` directives.
    pub allows: Vec<AllowDirective>,
    /// `in_test_region[line as usize]` is true when the 1-based line sits
    /// inside a `#[cfg(test)]` or `#[test]` item.
    in_test_region: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` and classifies it from its workspace-relative `path`.
    pub fn parse(path: &str, source: &str) -> SourceFile {
        let (crate_name, test_file) = classify(path);
        let Scan {
            tokens,
            allows,
            num_lines,
        } = scan(source);
        let in_test_region = mark_test_regions(&tokens, num_lines);
        SourceFile {
            path: path.to_string(),
            crate_name,
            test_file,
            tokens,
            allows,
            in_test_region,
        }
    }

    /// Whether the 1-based `line` is inside a `#[cfg(test)]`/`#[test]` item.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.in_test_region
            .get(line as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Whether the whole file is test code (an integration test).
    pub fn is_test_file(&self) -> bool {
        self.test_file
    }

    /// Finds an allow directive suppressing `lint` at `line`: either a
    /// trailing comment on the same line or a standalone comment on a
    /// directly preceding line (several standalone allows may stack).
    pub fn allow_for(&self, lint: &str, line: u32) -> Option<&AllowDirective> {
        self.allows.iter().find(|a| {
            a.lint == lint
                && if a.trailing {
                    a.line == line
                } else {
                    // Standalone: applies to the next code line; tolerate a
                    // small stack of directive lines and wrapped reason
                    // comments in between.
                    a.line < line && line - a.line <= 4 && self.no_code_between(a.line, line)
                }
        })
    }

    /// True when every line strictly between `from` and `to` holds no code
    /// tokens (only further directives, comments, or blanks).
    fn no_code_between(&self, from: u32, to: u32) -> bool {
        ((from + 1)..to).all(|l| !self.tokens.iter().any(|t| t.line == l))
    }
}

/// Maps a workspace-relative path to `(crate_name, is_test_file)`.
pub fn classify(path: &str) -> (String, bool) {
    let path = path.replace('\\', "/");
    if let Some(rest) = path.strip_prefix("crates/") {
        let crate_name = rest.split('/').next().unwrap_or("").to_string();
        return (crate_name, rest.contains("/tests/"));
    }
    if let Some(rest) = path.strip_prefix("shims/") {
        let crate_name = format!("shims/{}", rest.split('/').next().unwrap_or(""));
        return (crate_name, false);
    }
    ("surfnet".to_string(), path.starts_with("tests/"))
}

/// Marks the line ranges covered by `#[cfg(test)]` items and `#[test]`
/// functions by brace-matching over the token stream.
fn mark_test_regions(tokens: &[Token], num_lines: u32) -> Vec<bool> {
    let mut marked = vec![false; num_lines as usize + 2];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_test_attribute(tokens, i) {
            // The attribute applies to the next item: mark through the end
            // of its brace block (or the terminating `;` for `use`-style
            // items).
            let (start_line, end_line) = item_extent(tokens, after_attr);
            for l in tokens[i].line..=end_line.max(start_line) {
                if let Some(slot) = marked.get_mut(l as usize) {
                    *slot = true;
                }
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    marked
}

/// If tokens starting at `i` spell `#[cfg(test)]` or `#[test]`, returns the
/// index just past the closing `]`.
fn match_test_attribute(tokens: &[Token], i: usize) -> Option<usize> {
    let p = |j: usize, s: &str| {
        tokens
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == s)
    };
    let id = |j: usize, s: &str| {
        tokens
            .get(j)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == s)
    };
    if !(p(i, "#") && p(i + 1, "[")) {
        return None;
    }
    // #[test]
    if id(i + 2, "test") && p(i + 3, "]") {
        return Some(i + 4);
    }
    // #[cfg(test)] — tolerate any arguments that mention `test`, e.g.
    // #[cfg(all(test, feature = "x"))].
    if id(i + 2, "cfg") && p(i + 3, "(") {
        let mut depth = 1usize;
        let mut j = i + 4;
        let mut saw_test = false;
        while j < tokens.len() && depth > 0 {
            match (&tokens[j].kind, tokens[j].text.as_str()) {
                (TokenKind::Punct, "(") => depth += 1,
                (TokenKind::Punct, ")") => depth -= 1,
                (TokenKind::Ident, "test") => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if saw_test && p(j, "]") {
            return Some(j + 1);
        }
    }
    None
}

/// Returns the line span of the item starting at token `i`: through the
/// matching `}` of its first brace block, or through the first `;` if the
/// item has none (e.g. `use`).
fn item_extent(tokens: &[Token], i: usize) -> (u32, u32) {
    let start_line = tokens.get(i).map(|t| t.line).unwrap_or(1);
    let mut j = i;
    // Skip any further attributes on the item.
    while j < tokens.len() {
        match (&tokens[j].kind, tokens[j].text.as_str()) {
            (TokenKind::Punct, "{") => {
                let mut depth = 1usize;
                let mut k = j + 1;
                while k < tokens.len() && depth > 0 {
                    match (&tokens[k].kind, tokens[k].text.as_str()) {
                        (TokenKind::Punct, "{") => depth += 1,
                        (TokenKind::Punct, "}") => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = tokens
                    .get(k.saturating_sub(1))
                    .map(|t| t.line)
                    .unwrap_or(start_line);
                return (start_line, end_line);
            }
            (TokenKind::Punct, ";") => {
                return (start_line, tokens[j].line);
            }
            _ => j += 1,
        }
    }
    let end_line = tokens.last().map(|t| t.line).unwrap_or(start_line);
    (start_line, end_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/decoder/src/blossom.rs"),
            ("decoder".to_string(), false)
        );
        assert_eq!(
            classify("crates/bench/src/bin/ablation_step.rs"),
            ("bench".to_string(), false)
        );
        assert_eq!(
            classify("crates/analyzer/tests/lints.rs"),
            ("analyzer".to_string(), true)
        );
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            ("shims/rand".to_string(), false)
        );
        assert_eq!(classify("src/lib.rs"), ("surfnet".to_string(), false));
        assert_eq!(classify("tests/pipeline.rs"), ("surfnet".to_string(), true));
    }

    #[test]
    fn cfg_test_module_region_is_marked() {
        let src = "\
pub fn hot() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() {\n\
        x.unwrap();\n\
    }\n\
}\n\
pub fn after() {}\n";
        let f = SourceFile::parse("crates/decoder/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(6));
        assert!(f.in_test_region(8));
        assert!(!f.in_test_region(9));
    }

    #[test]
    fn standalone_test_fn_region() {
        let src = "\
fn hot() {}\n\
#[test]\n\
fn check() {\n\
    y.unwrap();\n\
}\n\
fn cold() {}\n";
        let f = SourceFile::parse("crates/lp/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn allow_lookup_trailing_and_standalone() {
        let src = "\
a.unwrap(); // analyzer:allow(panic-site): fine here\n\
// analyzer:allow(panic-site): next line\n\
b.unwrap();\n\
c.unwrap();\n";
        let f = SourceFile::parse("crates/decoder/src/x.rs", src);
        assert!(f.allow_for("panic-site", 1).is_some());
        assert!(f.allow_for("panic-site", 3).is_some());
        assert!(f.allow_for("panic-site", 4).is_none());
        assert!(f.allow_for("wall-clock", 1).is_none());
    }
}
