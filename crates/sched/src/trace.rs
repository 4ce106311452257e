//! Arrival-trace files: recorded request streams replayed through
//! [`crate::Arrivals::Trace`].
//!
//! The format is a JSON document with a `requests` array (or a bare
//! array) of `{"arrival_s": f64, "input_len": u64, "output_len": u64}`
//! objects. Requests are sorted by arrival time on load, so traces may
//! be recorded out of order.

use crate::json::{parse, JsonValue};

/// One recorded request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Arrival timestamp in seconds from trace start.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Response length in tokens.
    pub output_len: u64,
}

/// Parse a trace document from JSON text.
///
/// # Errors
///
/// Returns a message naming the offending entry on malformed JSON,
/// missing fields, or non-finite/negative arrival times.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRequest>, String> {
    let doc = parse(text)?;
    let entries = doc
        .get("requests")
        .or(Some(&doc))
        .and_then(JsonValue::as_array)
        .ok_or("trace must be an array or an object with a `requests` array")?;
    let mut requests = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("request {i}: missing numeric `{name}`"))
        };
        let arrival_s = field("arrival_s")?;
        if !arrival_s.is_finite() || arrival_s < 0.0 {
            return Err(format!(
                "request {i}: arrival_s must be finite and non-negative"
            ));
        }
        let length = |name: &str| {
            let raw = field(name)?;
            if !raw.is_finite() || raw < 0.0 {
                return Err(format!(
                    "request {i}: {name} must be finite and non-negative"
                ));
            }
            Ok(raw as u64)
        };
        requests.push(TraceRequest {
            arrival_s,
            input_len: length("input_len")?,
            output_len: length("output_len")?,
        });
    }
    requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_wrapped_and_bare_traces() {
        let wrapped = r#"{"requests": [
            {"arrival_s": 1.5, "input_len": 128, "output_len": 32},
            {"arrival_s": 0.5, "input_len": 64, "output_len": 16}
        ]}"#;
        let bare = r#"[{"arrival_s": 0.0, "input_len": 8, "output_len": 2}]"#;
        let t = parse_trace(wrapped).expect("valid");
        assert_eq!(t.len(), 2);
        // Sorted by arrival on load.
        assert_eq!(t[0].arrival_s, 0.5);
        assert_eq!(t[1].input_len, 128);
        assert_eq!(parse_trace(bare).expect("valid").len(), 1);
    }

    #[test]
    fn rejects_bad_entries() {
        assert!(parse_trace(r#"{"requests": [{"arrival_s": 1.0}]}"#).is_err());
        assert!(parse_trace(r#"[{"arrival_s": -1, "input_len": 1, "output_len": 1}]"#).is_err());
        assert!(parse_trace(r#"[{"arrival_s": 0, "input_len": -500, "output_len": 1}]"#).is_err());
        assert!(parse_trace(r#"[{"arrival_s": 0, "input_len": 1, "output_len": -2}]"#).is_err());
        assert!(parse_trace(r#"{"no_requests": 3}"#).is_err());
        assert!(parse_trace("not json").is_err());
    }

    #[test]
    fn hostile_bytes_are_errors_or_traces_never_panics() {
        let valid = [
            r#"{"requests": [{"arrival_s": 1.5, "input_len": 128, "output_len": 32},
                {"arrival_s": 0.5, "input_len": 64, "output_len": 16}]}"#,
            r#"[{"arrival_s": 0.0, "input_len": 8, "output_len": 2}]"#,
            r#"[{"arrival_s": 2e-3, "input_len": 4096, "output_len": 1e3}]"#,
        ];
        let cases = crate::hostile_strings(&valid, 4_000, 0x7ACE);
        let parsed = cases.iter().filter(|t| parse_trace(t).is_ok()).count();
        assert!(parsed > 0 && parsed < cases.len(), "{parsed} parsed");
    }
}
