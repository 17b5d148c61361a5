//! `catalog-unused`: dead entries in the telemetry catalog and the knob
//! registry.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Finds every registry entry that no other file in `files` uses, as one
/// `path:line: message` finding each, pinned to the entry's definition.
///
/// * A catalog entry is a string literal of `telemetry/src/catalog.rs`,
///   outside its test code, made of lowercase letters, digits, `_` and at
///   least one `.`. It is used when a string literal of another file
///   contains it.
/// * A knob is a unit variant of `enum Knob` in `telemetry/src/envreg.rs`.
///   It is used when another file holds the tokens `Knob :: <Variant>`.
///
/// A file set without the defining file checks nothing, so a fixture set
/// never mass-fires.
pub fn catalog_unused(files: &[SourceFile]) -> Vec<String> {
    let mut findings = Vec::new();
    for (di, def) in files.iter().enumerate() {
        let others = files
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != di)
            .map(|(_, f)| f);
        if def.path.ends_with("telemetry/src/catalog.rs") {
            // One joined string-literal body per file; newline separators
            // stop accidental cross-literal matches.
            let bodies: Vec<String> = others
                .map(|f| {
                    let strs = f.tokens.iter().filter(|t| t.kind == TokenKind::Str);
                    strs.map(|t| t.text.as_str()).collect::<Vec<_>>().join("\n")
                })
                .collect();
            for t in &def.tokens {
                if t.kind != TokenKind::Str || def.in_test_region(t.line) {
                    continue;
                }
                let entry = t.text.as_str();
                let is_entry = entry.contains('.')
                    && entry.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'
                    });
                if is_entry && !bodies.iter().any(|body| body.contains(entry)) {
                    findings.push(format!(
                        "{}:{}: catalog entry \"{entry}\" is never referenced anywhere in the \
                         workspace; drop it or wire it up",
                        def.path, t.line
                    ));
                }
            }
        } else if def.path.ends_with("telemetry/src/envreg.rs") {
            for variant in knob_variants(&def.tokens) {
                if !others.clone().any(|f| names_knob(&f.tokens, &variant.text)) {
                    findings.push(format!(
                        "{}:{}: knob `Knob::{}` is never read anywhere in the workspace; drop \
                         it or wire it up",
                        def.path, variant.line, variant.text
                    ));
                }
            }
        }
    }
    findings
}

fn is(t: &Token, kind: TokenKind, text: &str) -> bool {
    t.kind == kind && t.text == text
}

/// The unit variants of `enum Knob`: the identifiers between its `{` and
/// the first `}` that a `,` or that `}` follows.
fn knob_variants(tokens: &[Token]) -> Vec<&Token> {
    let Some(start) = tokens.windows(3).position(|w| {
        is(&w[0], TokenKind::Ident, "enum")
            && is(&w[1], TokenKind::Ident, "Knob")
            && is(&w[2], TokenKind::Punct, "{")
    }) else {
        return Vec::new();
    };
    let body = &tokens[start + 3..];
    let end = body.iter().position(|t| is(t, TokenKind::Punct, "}"));
    body[..end.map_or(body.len(), |e| e + 1)]
        .windows(2)
        .filter(|w| {
            w[0].kind == TokenKind::Ident
                && (is(&w[1], TokenKind::Punct, ",") || is(&w[1], TokenKind::Punct, "}"))
        })
        .map(|w| &w[0])
        .collect()
}

/// Whether `tokens` hold `Knob :: <variant>`.
fn names_knob(tokens: &[Token], variant: &str) -> bool {
    tokens.windows(4).any(|w| {
        is(&w[0], TokenKind::Ident, "Knob")
            && is(&w[1], TokenKind::Punct, ":")
            && is(&w[2], TokenKind::Punct, ":")
            && is(&w[3], TokenKind::Ident, variant)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_are_exempt() {
        // A catalog-shaped literal in the catalog file's test module is not
        // an entry; the same literal outside it is.
        let user = SourceFile::parse("crates/core/src/x.rs", r#"fn f() { "demo.used"; }"#);
        let catalog = |src: &str| SourceFile::parse("crates/telemetry/src/catalog.rs", src);
        let exempt = catalog(
            "pub const CATALOG: &[&str] = &[\"demo.used\"];\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 const PROBE: &str = \"demo.test_only\";\n\
             }\n",
        );
        let findings = catalog_unused(&[exempt, user]);
        assert!(findings.is_empty(), "{findings:#?}");

        let user = SourceFile::parse("crates/core/src/x.rs", r#"fn f() { "demo.used"; }"#);
        let entry = catalog("pub const CATALOG: &[&str] = &[\"demo.used\", \"demo.test_only\"];\n");
        let findings = catalog_unused(&[entry, user]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].contains("\"demo.test_only\""), "{findings:#?}");
    }
}
