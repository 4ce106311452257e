//! Arrival-trace files: recorded request streams replayed through
//! [`crate::Arrivals::Trace`].
//!
//! The format is a JSON document with a `requests` array (or a bare
//! array) of `{"arrival_s": f64, "input_len": u64, "output_len": u64}`
//! objects. Requests are sorted by arrival time on load, so traces may
//! be recorded out of order.
//!
//! [`TraceRecorder`] closes the loop in the other direction: attach
//! one to a scenario run (see
//! [`crate::ScenarioSimulation::run_recording`]) and every admitted
//! request — synthetic arrivals *and* multi-turn follow-up rounds,
//! with absolute arrival times and full prompts — is captured in this
//! format, ready to be written out and replayed through
//! [`crate::Arrivals::Trace`].

use crate::json::{parse, JsonValue};
use crate::request::Request;

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

/// Serialize requests as a trace document (the inverse of
/// [`parse_trace`]; handy for writing example traces).
pub fn format_trace(requests: &[TraceRequest]) -> String {
    let mut out = String::from("{\n  \"requests\": [\n");
    for (i, r) in requests.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"arrival_s\": {}, \"input_len\": {}, \"output_len\": {}}}{}\n",
            r.arrival_s,
            r.input_len,
            r.output_len,
            if i + 1 < requests.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Captures a request stream as a replayable trace: the bridge from
/// "a scenario happened" to "a trace file exists". The scenario
/// scheduler records each request when it enters the waiting queue, so
/// a recorded multi-turn run flattens into plain arrivals whose
/// prompts carry their conversation history — replaying it reproduces
/// the same offered load without needing the conversation machinery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    requests: Vec<TraceRequest>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request's arrival time and shape.
    pub fn record(&mut self, arrival_s: f64, input_len: u64, output_len: u64) {
        self.requests.push(TraceRequest {
            arrival_s,
            input_len,
            output_len,
        });
    }

    /// Record a scheduler [`Request`].
    pub fn record_request(&mut self, r: &Request) {
        self.record(r.arrival_s, r.input_len, r.output_len);
    }

    /// Requests recorded so far, in recording order.
    pub fn trace(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The recording as a trace document (see [`format_trace`]);
    /// [`parse_trace`] round-trips it.
    pub fn to_json(&self) -> String {
        format_trace(&self.requests)
    }

    /// Consume the recorder into a replayable arrival process.
    pub fn into_arrivals(self) -> crate::workload::Arrivals {
        crate::workload::Arrivals::trace(self.requests)
    }
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

    #[test]
    fn recorder_round_trips_through_parse() {
        let mut rec = TraceRecorder::new();
        assert!(rec.is_empty());
        rec.record(0.5, 128, 32);
        rec.record_request(&Request {
            id: 9,
            arrival_s: 0.25,
            input_len: 64,
            output_len: 16,
        });
        assert_eq!(rec.len(), 2);
        let parsed = parse_trace(&rec.to_json()).expect("recorded trace parses");
        // Parsing sorts by arrival; the recorded shapes survive.
        assert_eq!(parsed[0].arrival_s, 0.25);
        assert_eq!(parsed[1].input_len, 128);
        match rec.into_arrivals() {
            crate::workload::Arrivals::Trace { requests } => assert_eq!(requests.len(), 2),
            other => panic!("expected a trace process, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_format() {
        let requests = vec![
            TraceRequest {
                arrival_s: 0.25,
                input_len: 100,
                output_len: 20,
            },
            TraceRequest {
                arrival_s: 1.75,
                input_len: 300,
                output_len: 60,
            },
        ];
        let text = format_trace(&requests);
        assert_eq!(parse_trace(&text).expect("round trip"), requests);
    }
}
