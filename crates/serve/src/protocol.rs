//! The JSON-lines wire protocol: request parsing and response frames.
//!
//! One request per line; responses arrive in request order. Proto 1 is
//! strictly one frame per request; proto 2 adds *progressive* delivery
//! for anytime queries — zero or more `partial` frames followed by
//! exactly one terminal frame (`result`, `error`, or `shed`). A request
//! declaring any other version is refused with a structured
//! `{"class":"unsupported_proto"}` error (requests without the field
//! are treated as proto 1 for backwards compatibility). Every
//! request-scoped frame (everything except `drained`, which is a
//! connection-level notice) echoes the client's `id` and carries the
//! server-minted `trace_id` of the request, so a client can join its
//! responses against the server's sampled traces and flight-recorder
//! dumps. The frame taxonomy is tabulated in `DESIGN.md` §"Wire
//! frames"; in short, the frames leaving the server are:
//!
//! * `{"type":"result", "proto":1, "id":…, "trace_id":…, "mode":…,
//!   "value":…, "epoch":…, "micros":…}` — a query answer (a boolean
//!   for `check`, an integer for `eval`), stamped with the epoch of
//!   the snapshot it evaluated against;
//! * `{"type":"result", "proto":1, "id":…, "trace_id":…,
//!   "mode":"update"|"batch", "epoch":…, "changed":…, "micros":…}` — a
//!   committed mutation: the epoch now current and how many tuples
//!   actually changed;
//! * `{"type":"error", "proto":1, "id":…, "trace_id":…, "class":…,
//!   "message":…}` — a structured failure (parse errors, evaluation
//!   errors, rejected mutations with `"class":"mutation"`, version
//!   mismatches with `"class":"unsupported_proto"`, tripped budgets
//!   with `"class":"interrupted"` and a `"reason"` field, contained
//!   panics with `"class":"panic"`);
//! * `{"type":"shed", "proto":1, "id":…, "trace_id":…,
//!   "retry_after_ms":…}` — admission control refused the request (or,
//!   during drain, the connection; then `id` is `"-"`); the hint is
//!   derived live from queue depth and the latency p99, with
//!   deterministic per-request jitter;
//! * `{"type":"drained", "proto":1}` — sent on streams still open when
//!   the server finishes draining, immediately before the socket
//!   closes.
//!
//! Proto-2 additions (anytime evaluation; see `DESIGN.md` §"Anytime
//! evaluation"):
//!
//! * `{"type":"partial", "proto":2, "id":…, "trace_id":…, "mode":…,
//!   "pass":"sample"|"approx"|"local"|"exact", "value":…,
//!   "confidence":"exact"|"approx"|"lower_bound"
//!   [,"approx":true,"error_bound":…], "micros":…}` — one frame per
//!   deepening pass that banked an answer, streamed while evaluation
//!   continues;
//! * the terminal `result` frame of an anytime request additionally
//!   carries the same `confidence` fields — the best-so-far answer
//!   when the budget tripped, tagged instead of discarded;
//! * an `eval` request with `"approx":true` (proto 2) runs the `(ε, δ)`
//!   estimator instead of an exact engine; its `result` frame carries
//!   `"confidence":"approx","approx":true,"error_bound":…` — the
//!   estimate is within ±`error_bound` of the true count with
//!   probability ≥ 1−δ. `"epsilon_milli"` (1..=1000, thousandths)
//!   overrides the server's default ε; the wire stays integer-only.

use std::time::Duration;

use foc_core::{Confidence, EngineKind};
use foc_obs::report::json_escape;

use crate::json::{parse, Value};

/// The baseline wire-protocol version: one frame per request. Stamped
/// on every proto-1 frame; requests declaring an unknown version are
/// refused.
pub const PROTO_VERSION: i64 = 1;

/// The progressive dialect: a superset of proto 1 that adds the
/// `anytime` request flag, `partial` frames, and confidence-tagged
/// result frames. Clients opt in per request with `"proto":2`.
pub const PROTO_PROGRESSIVE: i64 = 2;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Model checking of a sentence (`"mode":"check"`).
    Check,
    /// Evaluation of a ground term (`"mode":"eval"`).
    Eval,
    /// A single tuple mutation (`"mode":"update"` with `op`/`rel`/
    /// `tuple` fields).
    Update,
    /// An atomic batch of tuple mutations (`"mode":"batch"` with an
    /// `ops` array).
    Batch,
}

impl Mode {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Check => "check",
            Mode::Eval => "eval",
            Mode::Update => "update",
            Mode::Batch => "batch",
        }
    }

    /// Whether this mode mutates the served structure.
    pub fn is_mutation(self) -> bool {
        matches!(self, Mode::Update | Mode::Batch)
    }
}

/// One requested tuple mutation, as parsed off the wire (converted to
/// [`foc_structures::TupleOp`] by the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOp {
    /// `true` = insert, `false` = delete.
    pub insert: bool,
    /// Relation name.
    pub rel: String,
    /// The tuple, one component per position.
    pub tuple: Vec<u32>,
}

/// A parsed request frame. Budgets here are *requests*: the server
/// clamps them to its own caps before arming.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response (`"-"` if absent).
    pub id: String,
    /// The protocol dialect the client declared (1 when absent).
    pub proto: i64,
    /// Anytime evaluation requested (`"anytime":true`; proto 2 only).
    /// The server streams a `partial` frame per completed deepening
    /// pass and tags the terminal result with its confidence.
    pub anytime: bool,
    /// Approximate evaluation requested (`"approx":true`; proto 2,
    /// `eval` mode only). The server answers with an `(ε, δ)`-bounded
    /// estimate flagged `"approx":true` with its `error_bound`.
    pub approx: bool,
    /// Requested additive-error fraction (`"epsilon_milli"`, parsed as
    /// thousandths; requires `"approx":true`). `None` = server default.
    pub epsilon: Option<f64>,
    /// Check, eval, update, or batch.
    pub mode: Mode,
    /// The query text (a sentence or a ground term; empty for
    /// mutations).
    pub query: String,
    /// The mutation ops (empty for queries).
    pub ops: Vec<UpdateOp>,
    /// Requested wall-clock allowance.
    pub timeout: Option<Duration>,
    /// Requested fuel allowance.
    pub fuel: Option<u64>,
    /// Requested byte cap against the server-wide memory account
    /// (`"mem_limit_bytes"`); trips `TripReason::Memory` when the
    /// account exceeds it mid-evaluation.
    pub mem_limit: Option<u64>,
    /// Requested engine override.
    pub engine: Option<EngineKind>,
}

/// Why a request line was refused before evaluation. `class` feeds the
/// error frame (`"bad-request"` for malformed frames,
/// `"unsupported_proto"` for version mismatches); `id` echoes the
/// client's id when the frame was valid JSON with a bad field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// Echoed request id (`"-"` when unreadable).
    pub id: String,
    /// Stable error class for the frame.
    pub class: &'static str,
    /// Human-readable reason.
    pub message: String,
}

fn parse_op(v: &Value) -> Result<UpdateOp, String> {
    let insert = match v.get("op").and_then(Value::as_str) {
        Some("insert") => true,
        Some("delete") => false,
        Some(other) => return Err(format!("unknown op {other:?} (want insert|delete)")),
        None => return Err("missing \"op\"".to_string()),
    };
    let Some(rel) = v.get("rel").and_then(Value::as_str) else {
        return Err("missing \"rel\"".to_string());
    };
    let tuple = match v.get("tuple") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|t| match t.as_int() {
                Some(x) if (0..=i64::from(u32::MAX)).contains(&x) => Ok(x as u32),
                _ => Err("\"tuple\" components must be non-negative integers".to_string()),
            })
            .collect::<Result<Vec<u32>, String>>()?,
        _ => return Err("missing \"tuple\" array".to_string()),
    };
    Ok(UpdateOp {
        insert,
        rel: rel.to_string(),
        tuple,
    })
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ParseFailure> {
    let bad = |id: &str, msg: String| ParseFailure {
        id: id.to_string(),
        class: "bad-request",
        message: msg,
    };
    let v = parse(line).map_err(|e| bad("-", format!("invalid JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or("-")
        .to_string();
    let fail = |msg: String| Err(bad(&id, msg));
    let proto = match v.get("proto") {
        None => PROTO_VERSION,
        Some(p) => match p.as_int() {
            Some(p @ (PROTO_VERSION | PROTO_PROGRESSIVE)) => p,
            Some(other) => {
                return Err(ParseFailure {
                    id,
                    class: "unsupported_proto",
                    message: format!(
                        "protocol version {other} is not supported (this server speaks proto {PROTO_VERSION} and {PROTO_PROGRESSIVE})"
                    ),
                })
            }
            None => return fail("\"proto\" must be an integer".to_string()),
        },
    };
    let anytime = match v.get("anytime") {
        None => false,
        Some(b) => match b.as_bool() {
            Some(x) => x,
            None => return fail("\"anytime\" must be a boolean".to_string()),
        },
    };
    if anytime && proto < PROTO_PROGRESSIVE {
        return fail(format!(
            "\"anytime\" requires proto {PROTO_PROGRESSIVE} (progressive frames)"
        ));
    }
    let approx = match v.get("approx") {
        None => false,
        Some(b) => match b.as_bool() {
            Some(x) => x,
            None => return fail("\"approx\" must be a boolean".to_string()),
        },
    };
    if approx && proto < PROTO_PROGRESSIVE {
        return fail(format!(
            "\"approx\" requires proto {PROTO_PROGRESSIVE} (approx-flagged frames)"
        ));
    }
    let epsilon = match v.get("epsilon_milli") {
        None => None,
        Some(e) => match e.as_int() {
            Some(milli @ 1..=1000) => Some(milli as f64 / 1000.0),
            _ => return fail("\"epsilon_milli\" must be an integer in 1..=1000".to_string()),
        },
    };
    if epsilon.is_some() && !approx {
        return fail("\"epsilon_milli\" requires \"approx\":true".to_string());
    }
    let mode = match v.get("mode").and_then(Value::as_str) {
        Some("check") => Mode::Check,
        Some("eval") => Mode::Eval,
        Some("update") => Mode::Update,
        Some("batch") => Mode::Batch,
        Some(other) => {
            return fail(format!(
                "unknown mode {other:?} (want check|eval|update|batch)"
            ))
        }
        None => return fail("missing \"mode\"".to_string()),
    };
    if approx && mode != Mode::Eval {
        return fail("\"approx\" applies to eval requests only".to_string());
    }
    let (query, ops) = match mode {
        Mode::Check | Mode::Eval => {
            let Some(q) = v.get("query").and_then(Value::as_str) else {
                return fail("missing \"query\"".to_string());
            };
            (q.to_string(), Vec::new())
        }
        Mode::Update => match parse_op(&v) {
            Ok(op) => (String::new(), vec![op]),
            Err(e) => return fail(e),
        },
        Mode::Batch => match v.get("ops") {
            Some(Value::Array(items)) => {
                let mut ops = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match parse_op(item) {
                        Ok(op) => ops.push(op),
                        Err(e) => return fail(format!("ops[{i}]: {e}")),
                    }
                }
                (String::new(), ops)
            }
            _ => return fail("missing \"ops\" array".to_string()),
        },
    };
    let timeout = match v.get("timeout_ms") {
        None => None,
        Some(t) => match t.as_int() {
            Some(ms) if ms >= 0 => Some(Duration::from_millis(ms as u64)),
            _ => return fail("\"timeout_ms\" must be a non-negative integer".to_string()),
        },
    };
    let fuel = match v.get("fuel") {
        None => None,
        Some(t) => match t.as_int() {
            Some(f) if f >= 0 => Some(f as u64),
            _ => return fail("\"fuel\" must be a non-negative integer".to_string()),
        },
    };
    let mem_limit = match v.get("mem_limit_bytes") {
        None => None,
        Some(t) => match t.as_int() {
            Some(b) if b >= 0 => Some(b as u64),
            _ => return fail("\"mem_limit_bytes\" must be a non-negative integer".to_string()),
        },
    };
    let engine = match v.get("engine").and_then(Value::as_str) {
        None => None,
        Some("naive") => Some(EngineKind::Naive),
        Some("local") => Some(EngineKind::Local),
        Some("cover") => Some(EngineKind::Cover),
        Some(other) => return fail(format!("unknown engine {other:?}")),
    };
    Ok(Request {
        id,
        proto,
        anytime,
        approx,
        epsilon,
        mode,
        query,
        ops,
        timeout,
        fuel,
        mem_limit,
        engine,
    })
}

/// Renders the confidence fields shared by `partial` and anytime
/// `result` frames: `"confidence":…` plus, for an estimate, its bound.
fn confidence_fields(c: &Confidence) -> String {
    match c {
        Confidence::Approximate { error_bound } => {
            format!(",\"confidence\":\"approx\",\"approx\":true,\"error_bound\":{error_bound}")
        }
        other => format!(",\"confidence\":\"{}\"", other.tag()),
    }
}

/// The answer payload of a result frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// `check` verdict.
    Bool(bool),
    /// `eval` value.
    Int(i64),
}

/// Renders a query result frame. `epoch` is the mutation epoch of the
/// snapshot the query evaluated against; `trace_id` is the
/// server-minted trace identifier of the request.
pub fn result_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    answer: Answer,
    epoch: u64,
    micros: u64,
) -> String {
    let value = match answer {
        Answer::Bool(b) => b.to_string(),
        Answer::Int(i) => i.to_string(),
    };
    format!(
        "{{\"type\":\"result\",\"proto\":{PROTO_VERSION},\"id\":\"{}\",\"trace_id\":\"{}\",\"mode\":\"{}\",\"value\":{value},\"epoch\":{epoch},\"micros\":{micros}}}",
        json_escape(id),
        json_escape(trace_id),
        mode.name(),
    )
}

/// Renders one progressive `partial` frame (proto 2): the answer a
/// completed deepening pass banked, streamed while stronger passes are
/// still running. `micros` is the wall time of that pass alone.
pub fn partial_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    pass: &str,
    answer: Answer,
    confidence: &Confidence,
    micros: u64,
) -> String {
    let value = match answer {
        Answer::Bool(b) => b.to_string(),
        Answer::Int(i) => i.to_string(),
    };
    format!(
        "{{\"type\":\"partial\",\"proto\":{PROTO_PROGRESSIVE},\"id\":\"{}\",\"trace_id\":\"{}\",\"mode\":\"{}\",\"pass\":\"{}\",\"value\":{value}{},\"micros\":{micros}}}",
        json_escape(id),
        json_escape(trace_id),
        mode.name(),
        json_escape(pass),
        confidence_fields(confidence),
    )
}

/// Renders the terminal result frame of an anytime request: the
/// best-so-far answer with its confidence tag. `proto` echoes the
/// request's dialect (a forced-anytime proto-1 client still gets a
/// proto-1 frame; the confidence fields are additive).
#[allow(clippy::too_many_arguments)]
pub fn anytime_result_frame(
    proto: i64,
    id: &str,
    trace_id: &str,
    mode: Mode,
    answer: Answer,
    confidence: &Confidence,
    epoch: u64,
    micros: u64,
) -> String {
    let value = match answer {
        Answer::Bool(b) => b.to_string(),
        Answer::Int(i) => i.to_string(),
    };
    format!(
        "{{\"type\":\"result\",\"proto\":{proto},\"id\":\"{}\",\"trace_id\":\"{}\",\"mode\":\"{}\",\"value\":{value}{},\"epoch\":{epoch},\"micros\":{micros}}}",
        json_escape(id),
        json_escape(trace_id),
        mode.name(),
        confidence_fields(confidence),
    )
}

/// Renders a mutation result frame: the epoch now current after the
/// commit (unchanged if the batch was a no-op) and the number of tuples
/// that actually changed.
pub fn update_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    epoch: u64,
    changed: usize,
    micros: u64,
) -> String {
    format!(
        "{{\"type\":\"result\",\"proto\":{PROTO_VERSION},\"id\":\"{}\",\"trace_id\":\"{}\",\"mode\":\"{}\",\"epoch\":{epoch},\"changed\":{changed},\"micros\":{micros}}}",
        json_escape(id),
        json_escape(trace_id),
        mode.name(),
    )
}

/// Renders an error frame. `reason` is present only for
/// `class == "interrupted"` (deadline / fuel / cancellation / memory
/// limit).
pub fn error_frame(
    id: &str,
    trace_id: &str,
    class: &str,
    reason: Option<&str>,
    message: &str,
) -> String {
    let reason_field = reason
        .map(|r| format!(",\"reason\":\"{}\"", json_escape(r)))
        .unwrap_or_default();
    format!(
        "{{\"type\":\"error\",\"proto\":{PROTO_VERSION},\"id\":\"{}\",\"trace_id\":\"{}\",\"class\":\"{}\"{reason_field},\"message\":\"{}\"}}",
        json_escape(id),
        json_escape(trace_id),
        json_escape(class),
        json_escape(message),
    )
}

/// Renders a shed frame (admission refused; retry after the hint).
/// `id` is the client's request id when the refused line parsed far
/// enough to carry one, `"-"` when the whole connection was refused
/// during drain.
pub fn shed_frame(id: &str, trace_id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"type\":\"shed\",\"proto\":{PROTO_VERSION},\"id\":\"{}\",\"trace_id\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
        json_escape(id),
        json_escape(trace_id),
    )
}

/// Renders the drain notice sent before the server closes a stream.
pub fn drained_frame() -> String {
    format!("{{\"type\":\"drained\",\"proto\":{PROTO_VERSION}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_and_clamps() {
        let r = parse_request(
            r##"{"proto":1,"id":"q7","mode":"eval","query":"#(x,y). E(x,y)","timeout_ms":250,"fuel":1000,"mem_limit_bytes":4096,"engine":"cover"}"##,
        )
        .unwrap();
        assert_eq!(r.id, "q7");
        assert_eq!(r.mode, Mode::Eval);
        assert_eq!(r.timeout, Some(Duration::from_millis(250)));
        assert_eq!(r.fuel, Some(1000));
        assert_eq!(r.mem_limit, Some(4096));
        assert_eq!(r.engine, Some(EngineKind::Cover));
    }

    #[test]
    fn update_and_batch_requests_parse() {
        let r = parse_request(
            r#"{"proto":1,"id":"u1","mode":"update","op":"insert","rel":"E","tuple":[3,7]}"#,
        )
        .unwrap();
        assert_eq!(r.mode, Mode::Update);
        assert!(r.mode.is_mutation());
        assert_eq!(
            r.ops,
            vec![UpdateOp {
                insert: true,
                rel: "E".to_string(),
                tuple: vec![3, 7],
            }]
        );

        let r = parse_request(
            r#"{"id":"b1","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[0,1]},{"op":"delete","rel":"E","tuple":[1,0]}]}"#,
        )
        .unwrap();
        assert_eq!(r.mode, Mode::Batch);
        assert_eq!(r.ops.len(), 2);
        assert!(!r.ops[1].insert);

        let f = parse_request(r#"{"id":"u2","mode":"update","op":"warp","rel":"E","tuple":[1]}"#)
            .unwrap_err();
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("unknown op"));
        let f = parse_request(r#"{"id":"b2","mode":"batch","ops":[{"op":"insert","rel":"E"}]}"#)
            .unwrap_err();
        assert!(f.message.contains("ops[0]"));
    }

    #[test]
    fn unknown_proto_versions_are_refused() {
        let f = parse_request(r#"{"proto":3,"id":"v","mode":"check","query":"true"}"#).unwrap_err();
        assert_eq!(f.class, "unsupported_proto");
        assert_eq!(f.id, "v");
        assert!(f.message.contains("proto 1"));
        // Absent proto = proto 1 (pre-versioning clients).
        let r = parse_request(r#"{"id":"v","mode":"check","query":"x = x"}"#).unwrap();
        assert_eq!(r.proto, PROTO_VERSION);
        assert!(!r.anytime);
        let f = parse_request(r#"{"proto":"x","mode":"check","query":"true"}"#).unwrap_err();
        assert_eq!(f.class, "bad-request");
    }

    #[test]
    fn proto_2_negotiates_anytime() {
        let r = parse_request(
            r##"{"proto":2,"id":"a","mode":"eval","query":"#(x). x = x","anytime":true}"##,
        )
        .unwrap();
        assert_eq!(r.proto, PROTO_PROGRESSIVE);
        assert!(r.anytime);
        // Proto 2 without the flag is plain one-frame service.
        let r = parse_request(r#"{"proto":2,"id":"b","mode":"check","query":"true"}"#).unwrap();
        assert!(!r.anytime);
        // The flag without the dialect is a client bug, not a silent
        // downgrade.
        let f = parse_request(r#"{"id":"c","mode":"check","query":"true","anytime":true}"#)
            .unwrap_err();
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("proto 2"));
        let f = parse_request(r#"{"proto":2,"id":"d","mode":"check","query":"true","anytime":1}"#)
            .unwrap_err();
        assert!(f.message.contains("boolean"));
    }

    #[test]
    fn progressive_frames_render() {
        let p = partial_frame(
            "q1",
            "t9",
            Mode::Eval,
            "sample",
            Answer::Int(41),
            &Confidence::LowerBound,
            120,
        );
        assert_eq!(
            p,
            "{\"type\":\"partial\",\"proto\":2,\"id\":\"q1\",\"trace_id\":\"t9\",\"mode\":\"eval\",\"pass\":\"sample\",\"value\":41,\"confidence\":\"lower_bound\",\"micros\":120}"
        );
        let r = anytime_result_frame(
            2,
            "q1",
            "t9",
            Mode::Eval,
            Answer::Int(41),
            &Confidence::LowerBound,
            5,
            990,
        );
        assert!(r.contains("\"confidence\":\"lower_bound\""));
        assert!(!r.contains("clusters_done"));
        assert!(r.contains("\"proto\":2"));
        let exact = anytime_result_frame(
            1,
            "q2",
            "ta",
            Mode::Check,
            Answer::Bool(true),
            &Confidence::Exact,
            0,
            10,
        );
        assert!(exact.contains("\"confidence\":\"exact\""));
        assert!(exact.contains("\"proto\":1"));
        for f in [&p, &r, &exact] {
            assert!(!f.contains('\n'));
            crate::json::parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
        }
    }

    #[test]
    fn approx_requests_negotiate_like_anytime() {
        let r = parse_request(
            r##"{"proto":2,"id":"e","mode":"eval","query":"#(x,y). E(x,y)","approx":true,"epsilon_milli":50}"##,
        )
        .unwrap();
        assert!(r.approx);
        assert_eq!(r.epsilon, Some(0.05));
        // ε defaults server-side when the field is absent.
        let r = parse_request(
            r##"{"proto":2,"id":"f","mode":"eval","query":"#(x). x = x","approx":true}"##,
        )
        .unwrap();
        assert!(r.approx);
        assert_eq!(r.epsilon, None);
        // The flag needs the progressive dialect, eval mode, and a sane ε.
        let f = parse_request(r##"{"id":"g","mode":"eval","query":"#(x). x = x","approx":true}"##)
            .unwrap_err();
        assert!(f.message.contains("proto 2"));
        let f =
            parse_request(r#"{"proto":2,"id":"h","mode":"check","query":"true","approx":true}"#)
                .unwrap_err();
        assert!(f.message.contains("eval requests only"));
        let f = parse_request(
            r##"{"proto":2,"id":"i","mode":"eval","query":"#(x). x = x","approx":true,"epsilon_milli":0}"##,
        )
        .unwrap_err();
        assert!(f.message.contains("1..=1000"));
        let f = parse_request(
            r##"{"proto":2,"id":"j","mode":"eval","query":"#(x). x = x","epsilon_milli":100}"##,
        )
        .unwrap_err();
        assert!(f.message.contains("requires \"approx\""));
    }

    #[test]
    fn approx_frames_flag_the_estimate_and_its_bound() {
        let r = anytime_result_frame(
            2,
            "q9",
            "tb",
            Mode::Eval,
            Answer::Int(870),
            &Confidence::Approximate { error_bound: 90 },
            0,
            44,
        );
        assert_eq!(
            r,
            "{\"type\":\"result\",\"proto\":2,\"id\":\"q9\",\"trace_id\":\"tb\",\"mode\":\"eval\",\"value\":870,\"confidence\":\"approx\",\"approx\":true,\"error_bound\":90,\"epoch\":0,\"micros\":44}"
        );
        let p = partial_frame(
            "q9",
            "tb",
            Mode::Eval,
            "approx",
            Answer::Int(870),
            &Confidence::Approximate { error_bound: 90 },
            21,
        );
        assert!(p.contains("\"pass\":\"approx\""));
        assert!(p.contains("\"approx\":true,\"error_bound\":90"));
        for f in [&r, &p] {
            assert!(!f.contains('\n'));
            crate::json::parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
        }
    }

    #[test]
    fn bad_requests_keep_the_id_when_parseable() {
        let f = parse_request(r#"{"id":"x","mode":"warp","query":"true"}"#).unwrap_err();
        assert_eq!(f.id, "x");
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("unknown mode"));
        let f = parse_request("not json").unwrap_err();
        assert_eq!(f.id, "-");
        let f = parse_request(r#"{"mode":"check"}"#).unwrap_err();
        assert!(f.message.contains("query"));
    }

    #[test]
    fn frames_are_single_line_json() {
        let frames = [
            result_frame("a", "t1", Mode::Check, Answer::Bool(true), 0, 12),
            result_frame("b", "t2", Mode::Eval, Answer::Int(-3), 4, 7),
            update_frame("u", "t3", Mode::Update, 5, 2, 9),
            error_frame(
                "c",
                "t4",
                "interrupted",
                Some("deadline"),
                "interrupted by deadline",
            ),
            error_frame("d\"e", "t5", "panic", None, "boom"),
            shed_frame("s", "t6", 50),
            drained_frame(),
        ];
        for f in &frames {
            assert!(!f.contains('\n'), "frame must be one line: {f}");
            let v = crate::json::parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
            assert!(v.get("type").is_some());
            assert_eq!(
                v.get("proto").and_then(crate::json::Value::as_int),
                Some(PROTO_VERSION),
                "every frame carries the protocol version: {f}"
            );
        }
        // Every frame except the connection-level drain notice carries
        // the request's trace_id.
        for f in &frames[..frames.len() - 1] {
            let v = crate::json::parse(f).unwrap();
            assert!(
                v.get("trace_id")
                    .and_then(crate::json::Value::as_str)
                    .is_some(),
                "request-scoped frames carry trace_id: {f}"
            );
        }
        assert_eq!(
            frames[0],
            "{\"type\":\"result\",\"proto\":1,\"id\":\"a\",\"trace_id\":\"t1\",\"mode\":\"check\",\"value\":true,\"epoch\":0,\"micros\":12}"
        );
        assert_eq!(
            frames[2],
            "{\"type\":\"result\",\"proto\":1,\"id\":\"u\",\"trace_id\":\"t3\",\"mode\":\"update\",\"epoch\":5,\"changed\":2,\"micros\":9}"
        );
    }
}
