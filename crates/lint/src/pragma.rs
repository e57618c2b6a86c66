//! The one exemption grammar.
//!
//! A directive is a plain `//` comment whose body starts with `lint:`.
//! Doc comments (`///`, `//!`) are rustdoc prose, so examples in them never
//! register, and neither does prose that merely mentions a `gso_lint::`
//! path. Three forms exist:
//!
//! ```text
//! // lint: allow(hot-alloc, reason = "amortized: buffer reuse")
//! // lint: hot_path(warm-resolve)
//! // lint: cold_path(reason = "crash recovery, off the steady-state loop")
//! ```
//!
//! `allow` exempts findings of one rule on its own line and the line
//! directly below. `hot_path` and `cold_path` are the hot-path root and
//! exclusion markers. An unknown rule, a missing reason or an unused
//! pragma is itself a violation, so the allowlist cannot rot.

use crate::RULES;

/// One recognized directive.
#[derive(Debug)]
pub enum Directive {
    /// `allow(rule, reason = "…")`.
    Allow(Allow),
    /// `hot_path(…)` or `cold_path(…)`.
    Marker(Marker),
}

/// A hot-path marker.
#[derive(Debug)]
pub enum Marker {
    /// A root, with its label when one was given.
    HotPath(Option<String>),
    /// A cone exclusion (its reason is validated at parse time).
    ColdPath,
}

/// Recognize the directive in one comment: `None` when the comment is not
/// a directive, `Some(Err(message))` when it is one but is malformed.
pub fn parse_comment(text: &str) -> Option<Result<Directive, String>> {
    let body = text.strip_prefix("//")?;
    if body.starts_with('/') || body.starts_with('!') {
        return None; // doc comment
    }
    let body = body.trim_start().strip_prefix("lint:")?.trim();
    if body.starts_with(':') {
        return None; // a `lint::` path reference
    }
    if let Some(rest) = body.strip_prefix("allow(") {
        return Some(Ok(Directive::Allow(parse_allow(rest))));
    }
    if body == "hot_path" || body.starts_with("hot_path(") {
        let label = body
            .strip_prefix("hot_path(")
            .and_then(|r| r.rfind(')').map(|p| r[..p].trim().to_string()))
            .filter(|s| !s.is_empty());
        return Some(Ok(Directive::Marker(Marker::HotPath(label))));
    }
    if let Some(rest) = body.strip_prefix("cold_path(") {
        let reason = rest.rfind(')').and_then(|p| parse_reason(&rest[..p]));
        return Some(if reason.is_some_and(|r| !r.is_empty()) {
            Ok(Directive::Marker(Marker::ColdPath))
        } else {
            Err("cold_path marker must carry `reason = \"…\"`".to_string())
        });
    }
    Some(Err(format!("unrecognized lint directive: `{body}`")))
}

/// One parsed `allow(…)` pragma body.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the pragma names (may be unknown — see `malformed`).
    pub rule: String,
    /// The justification, when present and non-empty.
    pub reason: Option<String>,
    /// Why the pragma is invalid, when it is: missing `)`, unknown rule,
    /// or missing/empty reason.
    pub malformed: Option<String>,
}

/// Parse the text following `allow(`.
fn parse_allow(rest: &str) -> Allow {
    let Some(inner) = rest.rfind(')').map(|p| &rest[..p]) else {
        return Allow {
            rule: String::new(),
            reason: None,
            malformed: Some("pragma missing closing `)`".to_string()),
        };
    };
    let (rule_part, reason_part) = match inner.find(',') {
        Some(c) => (inner[..c].trim(), Some(inner[c + 1..].trim())),
        None => (inner.trim(), None),
    };
    let rule = rule_part.to_string();
    let mut malformed = None;
    if !RULES.contains(&rule.as_str()) {
        malformed = Some(format!("unknown rule `{rule}` in pragma"));
    }
    let reason = reason_part.and_then(parse_reason);
    let reason = match reason {
        Some(r) if !r.is_empty() => Some(r),
        _ => {
            if malformed.is_none() {
                malformed = Some(
                    "pragma must carry `reason = \"…\"` with a non-empty justification".to_string(),
                );
            }
            None
        }
    };
    Allow { rule, reason, malformed }
}

/// Extract the quoted string from a `reason = "…"` fragment. Returns the
/// unquoted text (possibly empty) or `None` when the fragment is not a
/// reason assignment at all.
fn parse_reason(part: &str) -> Option<String> {
    part.strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim().trim_matches('"').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_allow() {
        let a = parse_allow("hot-alloc, reason = \"reused buffer\") trailing");
        assert_eq!(a.rule, "hot-alloc");
        assert_eq!(a.reason.as_deref(), Some("reused buffer"));
        assert!(a.malformed.is_none());
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let a = parse_allow("no-such-rule, reason = \"x\")");
        assert_eq!(a.malformed.as_deref(), Some("unknown rule `no-such-rule` in pragma"));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let a = parse_allow("hot-alloc)");
        assert!(a.malformed.as_deref().is_some_and(|m| m.contains("reason")));
        let a = parse_allow("hot-alloc, reason = \"\")");
        assert!(a.malformed.is_some(), "empty reason must not satisfy the grammar");
    }

    #[test]
    fn missing_close_paren_is_malformed() {
        let a = parse_allow("hot-alloc, reason = \"x\"");
        assert_eq!(a.malformed.as_deref(), Some("pragma missing closing `)`"));
    }
}
