//! A textual wire encoding of the GRAM protocol.
//!
//! GT2's GRAM spoke an HTTP-framed message protocol between client and
//! Gatekeeper/Job Manager. This module provides the equivalent seam for
//! the simulation, and it is the only module that knows the text:
//! requests and responses serialize to a line-oriented format, and
//! [`GramServer::handle_wire_pem`](crate::GramServer::handle_wire_pem)
//! dispatches a decoded request exactly as the typed API would. Having a
//! real encode/decode boundary keeps client and server honestly
//! decoupled (nothing can sneak across except what the protocol carries)
//! and gives failure injection a place to corrupt messages.
//!
//! Format: first line `GRAM/1 <VERB>`, then `key: value` headers, ending
//! with a blank line or end of input. The framing is defended at both
//! ends:
//!
//! - **Encode** rejects any header value containing `\n` or `\r` with
//!   [`WireEncodeError`] — otherwise a hostile RSL string or account
//!   name could smuggle extra headers into the message.
//! - **Decode** rejects carriage returns anywhere in the text, and
//!   rejects duplicate headers (an injected second `account:` line must
//!   not silently lose to first-wins lookup).
//! - Values are preserved byte-for-byte: exactly the one space the
//!   encoder writes after `:` is stripped, so significant leading or
//!   trailing whitespace in a value survives the round trip.
//!
//! One parser, [`WireFrame`], borrows the verb and header slices straight
//! out of the input text; [`WireRequestRef`], the one request type, and
//! [`WireResponse::decode`] read their fields from it. A served frame
//! (PEM credential text, then the request) is parsed once, admission
//! headers included, before the server authenticates it. Each message
//! verb is written by one function here, which the server and the
//! front-end call; header values go through `Display`, so the served
//! path writes a report's owner DN without building a string. On the
//! stream side, [`FrameAssembler`] reassembles `\n\n`-delimited frames
//! from arbitrarily fragmented reads (the PEM armor and GRAM header lines
//! are never blank, so a blank line unambiguously ends a frame).

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use gridauthz_clock::SimDuration;
use gridauthz_core::AdmissionClass;
use gridauthz_telemetry::labels;

use crate::protocol::{GramError, GramSignal};

/// Largest frame a peer may send: generous for a PEM chain plus headers,
/// small enough that a hostile client cannot balloon a worker's buffer.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Headers a single frame may carry (the widest real message, `REPORT`,
/// uses six).
pub const MAX_HEADERS: usize = 8;

/// A decoded GRAM wire request. Its string fields borrow from the
/// decoded text, so the front-end dispatches it without touching the
/// heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequestRef<'a> {
    /// Start a job.
    Submit {
        /// The RSL job description.
        rsl: &'a str,
        /// Requested grid-mapfile account, if any.
        account: Option<&'a str>,
        /// Simulated true computation time.
        work: SimDuration,
    },
    /// Cancel a job.
    Cancel {
        /// The target job.
        contact: &'a str,
    },
    /// Query job status.
    Status {
        /// The target job.
        contact: &'a str,
    },
    /// Deliver a management signal.
    Signal {
        /// The target job.
        contact: &'a str,
        /// The signal.
        signal: GramSignal,
    },
}

/// A GRAM wire response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// A job was started.
    Submitted {
        /// Its contact URL.
        contact: String,
    },
    /// A status report.
    Report {
        /// Contact URL.
        contact: String,
        /// Initiator identity.
        owner: String,
        /// Job tag, if any.
        jobtag: Option<String>,
        /// Local account.
        account: String,
        /// Lifecycle state label.
        state: String,
        /// Executed microseconds.
        executed_micros: u64,
    },
    /// A cancel/signal succeeded.
    Done,
    /// The request was refused without service: admission queue full,
    /// deadline expired while queued, or shutdown drain. The fast
    /// answer the front-end writes when shedding load.
    Busy {
        /// Suggested client back-off before retrying, in microseconds.
        retry_after_micros: u64,
    },
    /// The request failed.
    Error {
        /// Stable error code (see [`error_code`]).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

/// The stable protocol code for a [`GramError`] — the paper's extension
/// of GRAM's error vocabulary, §5.2.
pub fn error_code(error: &GramError) -> &'static str {
    match error {
        GramError::AuthenticationFailed(_) => "AUTHENTICATION_FAILED",
        GramError::GridMapDenied(_) => "GRIDMAP_DENIED",
        GramError::AccountNotPermitted { .. } => "ACCOUNT_NOT_PERMITTED",
        GramError::NotAuthorized(_) => "AUTHORIZATION_DENIED",
        GramError::AuthorizationSystemFailure(_) => "AUTHORIZATION_SYSTEM_FAILURE",
        GramError::BadRequest(_) => "BAD_REQUEST",
        GramError::UnknownJob(_) => "UNKNOWN_JOB",
        GramError::Scheduler(_) => "JOB_CONTROL_FAILURE",
        GramError::ProvisioningFailed(_) => "PROVISIONING_FAILED",
        GramError::SandboxViolation(_) => "SANDBOX_VIOLATION",
        GramError::Overloaded { .. } => "BUSY",
    }
}

/// A wire-format decode failure, classified so the front-end can answer
/// and count each shape distinctly (see [`decode_error_label`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The input ended (or the connection closed) in the middle of a
    /// frame: bytes arrived but the terminating blank line never did.
    Partial,
    /// A single frame exceeded the maximum frame size.
    Oversized {
        /// Bytes buffered for the unterminated frame.
        size: usize,
        /// The limit in force.
        limit: usize,
    },
    /// A header key appeared twice — an injected second `account:` line
    /// must not silently lose to first-wins lookup.
    DuplicateHeader {
        /// The repeated key.
        header: Box<str>,
    },
    /// Any other malformation: bad preamble, unknown verb, missing
    /// header, carriage return, non-UTF-8 bytes.
    Malformed(Box<str>),
}

impl WireDecodeError {
    /// The stable protocol code the front-end answers this failure with
    /// (the `code:` header of the `GRAM/1 ERROR` frame). One code per
    /// variant, mirroring [`decode_error_label`]'s telemetry labels, so
    /// a client can tell "your frame was too big" from "your frame was
    /// gibberish" and react accordingly.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            WireDecodeError::Partial => "PARTIAL_FRAME",
            WireDecodeError::Oversized { .. } => "OVERSIZED_FRAME",
            WireDecodeError::DuplicateHeader { .. } => "DUPLICATE_HEADER",
            WireDecodeError::Malformed(_) => "BAD_REQUEST",
        }
    }
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed GRAM message: ")?;
        match self {
            WireDecodeError::Partial => write!(f, "partial frame (input ended mid-frame)"),
            WireDecodeError::Oversized { size, limit } => {
                write!(f, "oversized frame ({size} bytes exceeds the {limit}-byte limit)")
            }
            WireDecodeError::DuplicateHeader { header } => {
                write!(f, "duplicate header {header:?}")
            }
            WireDecodeError::Malformed(detail) => f.write_str(detail),
        }
    }
}

impl std::error::Error for WireDecodeError {}

/// The telemetry outcome label for a decode failure. Partial, oversized
/// and duplicate-header frames get their own labels; everything else
/// counts as a bad request.
#[must_use]
pub fn decode_error_label(error: &WireDecodeError) -> &'static str {
    match error {
        WireDecodeError::Partial => labels::FRAME_PARTIAL,
        WireDecodeError::Oversized { .. } => labels::FRAME_OVERSIZED,
        WireDecodeError::DuplicateHeader { .. } => labels::DUPLICATE_HEADER,
        WireDecodeError::Malformed(_) => labels::BAD_REQUEST,
    }
}

/// A wire-format encode refusal: a header value carried a line break,
/// which would let the value smuggle additional headers (or a second
/// message) into the framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEncodeError {
    header: &'static str,
}

impl WireEncodeError {
    /// The header whose value was rejected.
    pub fn header(&self) -> &'static str {
        self.header
    }
}

impl fmt::Display for WireEncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot encode GRAM message: header {:?} value contains a line break",
            self.header
        )
    }
}

impl std::error::Error for WireEncodeError {}

fn malformed(msg: impl Into<Box<str>>) -> WireDecodeError {
    WireDecodeError::Malformed(msg.into())
}

/// Appends one `key: value` header line, writing `value` through
/// `Display`. A value whose text holds a line break is refused: it would
/// smuggle extra headers (or a second message) into the framing.
fn header(
    out: &mut String,
    key: &'static str,
    value: impl fmt::Display,
) -> Result<(), WireEncodeError> {
    out.push_str(key);
    out.push_str(": ");
    let start = out.len();
    let _ = write!(out, "{value}");
    if out.as_bytes()[start..].iter().any(|&b| b == b'\n' || b == b'\r') {
        return Err(WireEncodeError { header: key });
    }
    out.push('\n');
    Ok(())
}

/// Appends one message: the `GRAM/1 <verb>` line, then the headers
/// `headers` writes. A refused header truncates `out` back to where the
/// message began, so nothing is written unless every value passes.
fn message(
    out: &mut String,
    verb: &str,
    headers: impl FnOnce(&mut String) -> Result<(), WireEncodeError>,
) -> Result<(), WireEncodeError> {
    let start = out.len();
    out.push_str("GRAM/1 ");
    out.push_str(verb);
    out.push('\n');
    headers(out).inspect_err(|_| out.truncate(start))
}

/// One decoded frame, borrowing verb and header slices from the input
/// text. This is the allocation-free parser under every decode in this
/// module; headers live in a fixed inline array.
#[derive(Debug, Clone, Copy)]
pub struct WireFrame<'a> {
    verb: &'a str,
    headers: [(&'a str, &'a str); MAX_HEADERS],
    len: usize,
}

impl<'a> WireFrame<'a> {
    /// Parses one frame's text (preamble line plus headers).
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] for oversized input, carriage returns, a bad
    /// preamble, header lines without `:`, duplicate headers, or more
    /// than [`MAX_HEADERS`] headers.
    pub fn decode(text: &'a str) -> Result<WireFrame<'a>, WireDecodeError> {
        if text.len() > MAX_FRAME_BYTES {
            return Err(WireDecodeError::Oversized { size: text.len(), limit: MAX_FRAME_BYTES });
        }
        // `\r` never appears in a well-formed message (the encoder
        // refuses it), so its presence means corruption or injection.
        if text.contains('\r') {
            return Err(malformed("carriage return in message"));
        }
        let mut lines = text.lines();
        let first = lines.next().ok_or_else(|| malformed("empty message"))?;
        let verb = first
            .strip_prefix("GRAM/1 ")
            .ok_or_else(|| malformed(format!("bad preamble: {first}")))?
            .trim();
        let mut headers = [("", ""); MAX_HEADERS];
        let mut len = 0;
        for line in lines {
            if line.trim().is_empty() {
                break;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| malformed(format!("header without ':': {line}")))?;
            let key = key.trim();
            if headers[..len].iter().any(|(k, _)| k.eq_ignore_ascii_case(key)) {
                return Err(WireDecodeError::DuplicateHeader { header: key.into() });
            }
            if len == MAX_HEADERS {
                return Err(malformed(format!("more than {MAX_HEADERS} headers")));
            }
            // Strip exactly the one space the encoder writes after ':'.
            // Anything beyond it is part of the value.
            headers[len] = (key, value.strip_prefix(' ').unwrap_or(value));
            len += 1;
        }
        Ok(WireFrame { verb, headers, len })
    }

    /// The verb from the preamble line.
    #[must_use]
    pub fn verb(&self) -> &'a str {
        self.verb
    }

    /// The decoded `(key, value)` headers, in wire order.
    #[must_use]
    pub fn headers(&self) -> &[(&'a str, &'a str)] {
        &self.headers[..self.len]
    }

    /// The value of `key` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, key: &str) -> Option<&'a str> {
        self.headers().iter().find(|(k, _)| k.eq_ignore_ascii_case(key)).map(|(_, v)| *v)
    }

    fn require(&self, key: &str) -> Result<&'a str, WireDecodeError> {
        self.header(key).ok_or_else(|| malformed(format!("missing header {key:?}")))
    }
}

/// Byte offset where the GRAM request line (`GRAM/1 <VERB>`) begins
/// inside `message`, or `None` when no request line is present.
///
/// Only a line *start* matches — offset 0, or the byte right after a
/// `\n` — so a PEM blob or a header value that merely *contains* the
/// text `GRAM/1 ` cannot mis-anchor the split between credential bytes
/// and request frame. (The bug this replaces used a bare `find`, which
/// anchored on the first occurrence anywhere in the frame.)
#[must_use]
pub fn request_line_offset(message: &str) -> Option<usize> {
    if message.starts_with("GRAM/1 ") {
        return Some(0);
    }
    let bytes = message.as_bytes();
    message.match_indices("GRAM/1 ").find(|&(i, _)| i > 0 && bytes[i - 1] == b'\n').map(|(i, _)| i)
}

/// One request frame as the server receives it, parsed once: the PEM
/// credential text ahead of the request line, the request, and the
/// admission metadata the frame may carry.
#[derive(Debug)]
pub(crate) struct ParsedFrame<'a> {
    /// The PEM-armored credential chain (everything before the request
    /// line).
    pub(crate) pem: &'a str,
    /// The request.
    pub(crate) request: WireRequestRef<'a>,
    /// The `class:` header naming the admission lane (`interactive` or
    /// `batch`); `None` keeps the connection's lane.
    pub(crate) class: Option<AdmissionClass>,
    /// The `budget-micros:` header: how long the client is willing to
    /// wait end-to-end; `None` leaves the class default.
    pub(crate) budget: Option<SimDuration>,
}

/// Parses one served frame: splits the PEM credential text from the
/// request at the request line, decodes the request, and reads its
/// admission headers.
///
/// The budget is clamped to
/// [`MAX_CLIENT_BUDGET`](gridauthz_core::MAX_CLIENT_BUDGET): a client
/// cannot mint an effectively-unbounded deadline and hold a worker (and
/// every downstream layer honoring the deadline) for the life of the
/// connection.
///
/// # Errors
///
/// [`WireDecodeError`] for a frame without a request line, bad framing,
/// an unknown verb, missing or malformed request headers, an unknown
/// admission class or a non-integer budget. Malformed admission metadata
/// is refused, never silently defaulted.
pub(crate) fn parse_frame(text: &str) -> Result<ParsedFrame<'_>, WireDecodeError> {
    // Anchor on the request line's *line start*: a PEM blob or header
    // value containing the text `GRAM/1 ` must not mis-split credential
    // from request.
    let split = request_line_offset(text).ok_or_else(|| malformed("no GRAM/1 request line"))?;
    let (pem, body) = text.split_at(split);
    let frame = WireFrame::decode(body)?;
    let class = frame
        .header("class")
        .map(|v| {
            AdmissionClass::parse(v.trim())
                .ok_or_else(|| malformed(format!("unknown admission class {v:?}")))
        })
        .transpose()?;
    let budget = frame
        .header("budget-micros")
        .map(|v| {
            let micros =
                v.trim().parse().map_err(|_| malformed("budget-micros must be an integer"));
            micros.map(|m| gridauthz_core::clamp_client_budget(SimDuration::from_micros(m)))
        })
        .transpose()?;
    Ok(ParsedFrame { pem, request: WireRequestRef::from_frame(&frame)?, class, budget })
}

impl<'a> WireRequestRef<'a> {
    /// Decodes a request without copying its string fields.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] for bad framing (including carriage returns
    /// and duplicate headers), unknown verbs, or missing / malformed
    /// headers.
    pub fn decode(text: &'a str) -> Result<WireRequestRef<'a>, WireDecodeError> {
        WireRequestRef::from_frame(&WireFrame::decode(text)?)
    }

    /// Interprets an already-parsed frame as a request.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] for an unknown verb or missing / malformed
    /// headers.
    pub fn from_frame(frame: &WireFrame<'a>) -> Result<WireRequestRef<'a>, WireDecodeError> {
        match frame.verb() {
            "SUBMIT" => {
                let rsl = frame.require("rsl")?;
                let work_micros: u64 = frame
                    .require("work-micros")?
                    .trim()
                    .parse()
                    .map_err(|_| malformed("work-micros must be an integer"))?;
                Ok(WireRequestRef::Submit {
                    rsl,
                    account: frame.header("account"),
                    work: SimDuration::from_micros(work_micros),
                })
            }
            "CANCEL" => Ok(WireRequestRef::Cancel { contact: frame.require("job")? }),
            "STATUS" => Ok(WireRequestRef::Status { contact: frame.require("job")? }),
            "SIGNAL" => {
                let contact = frame.require("job")?;
                let signal_text = frame.require("signal")?;
                let mut parts = signal_text.split_whitespace();
                let signal = match (parts.next(), parts.next(), parts.next()) {
                    (Some("suspend"), None, _) => GramSignal::Suspend,
                    (Some("resume"), None, _) => GramSignal::Resume,
                    (Some("priority"), Some(p), None) => GramSignal::Priority(
                        i64::from_str(p).map_err(|_| malformed("priority must be an integer"))?,
                    ),
                    _ => return Err(malformed(format!("unknown signal {signal_text:?}"))),
                };
                Ok(WireRequestRef::Signal { contact, signal })
            }
            other => Err(malformed(format!("unknown verb {other:?}"))),
        }
    }

    /// Encodes to the wire format.
    ///
    /// # Errors
    ///
    /// [`WireEncodeError`] when a value (RSL, account, contact) contains
    /// a line break and would corrupt the framing.
    pub fn encode(&self) -> Result<String, WireEncodeError> {
        let mut out = String::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the wire encoding to `out` — the pooled-buffer path; no
    /// bytes are written unless every value passes the framing check.
    ///
    /// # Errors
    ///
    /// [`WireEncodeError`] when a value contains a line break and would
    /// corrupt the framing.
    pub fn encode_into(&self, out: &mut String) -> Result<(), WireEncodeError> {
        match *self {
            WireRequestRef::Submit { rsl, account, work } => message(out, "SUBMIT", |out| {
                header(out, "rsl", rsl)?;
                header(out, "work-micros", work.as_micros())?;
                account.map_or(Ok(()), |account| header(out, "account", account))
            }),
            WireRequestRef::Cancel { contact } => {
                message(out, "CANCEL", |out| header(out, "job", contact))
            }
            WireRequestRef::Status { contact } => {
                message(out, "STATUS", |out| header(out, "job", contact))
            }
            WireRequestRef::Signal { contact, signal } => message(out, "SIGNAL", |out| {
                header(out, "job", contact)?;
                match signal {
                    GramSignal::Suspend => header(out, "signal", "suspend"),
                    GramSignal::Resume => header(out, "signal", "resume"),
                    GramSignal::Priority(p) => header(out, "signal", format_args!("priority {p}")),
                }
            }),
        }
    }
}

/// Appends a `SUBMITTED` answer.
pub(crate) fn encode_submitted(out: &mut String, contact: &str) -> Result<(), WireEncodeError> {
    message(out, "SUBMITTED", |out| header(out, "job", contact))
}

/// Appends a `REPORT` answer. `owner` is written through `Display`, so
/// the served path writes a job's owner DN without building a string.
pub(crate) fn encode_report(
    out: &mut String,
    contact: &str,
    owner: impl fmt::Display,
    account: &str,
    state: &str,
    executed_micros: u64,
    jobtag: Option<&str>,
) -> Result<(), WireEncodeError> {
    message(out, "REPORT", |out| {
        header(out, "job", contact)?;
        header(out, "owner", owner)?;
        header(out, "account", account)?;
        header(out, "state", state)?;
        header(out, "executed-micros", executed_micros)?;
        jobtag.map_or(Ok(()), |tag| header(out, "jobtag", tag))
    })
}

/// Appends a `DONE` answer (it has no values, so it never fails).
pub(crate) fn encode_done(out: &mut String) -> Result<(), WireEncodeError> {
    message(out, "DONE", |_| Ok(()))
}

/// Appends a `BUSY` answer: the request was refused without service and
/// may be retried after `retry_after_micros`.
pub(crate) fn encode_busy(out: &mut String, retry_after_micros: u64) {
    let _ = message(out, "BUSY", |out| header(out, "retry-after-micros", retry_after_micros));
}

/// Appends an `ERROR` answer.
fn encode_error(
    out: &mut String,
    code: &str,
    text: impl fmt::Display,
) -> Result<(), WireEncodeError> {
    message(out, "ERROR", |out| {
        header(out, "code", code)?;
        header(out, "message", text)
    })
}

/// Appends [`WireResponse::FALLBACK`] in place of an answer that
/// `written` refused, so the server always answers with well-formed
/// protocol text.
pub(crate) fn or_fallback(out: &mut String, written: Result<(), WireEncodeError>) {
    if written.is_err() {
        out.push_str(WireResponse::FALLBACK);
    }
}

/// Appends an `ERROR` answer, or the fallback when `code` or `text`
/// holds a line break.
pub(crate) fn answer_error(out: &mut String, code: &str, text: impl fmt::Display) {
    let written = encode_error(out, code, text);
    or_fallback(out, written);
}

/// Appends the answer to a failed request. Admission refusals become the
/// dedicated `BUSY` answer, carrying a machine-readable retry hint,
/// rather than a generic `ERROR`.
pub(crate) fn answer_failure(out: &mut String, error: &GramError) {
    match error {
        GramError::Overloaded { retry_after, .. } => encode_busy(out, retry_after.as_micros()),
        _ => answer_error(out, error_code(error), error),
    }
}

/// Appends the typed `ERROR` answer to a refused frame (its code is
/// [`WireDecodeError::code`]) and returns the refusal's telemetry label.
pub(crate) fn answer_refusal(out: &mut String, error: &WireDecodeError) -> &'static str {
    answer_error(out, error.code(), error);
    decode_error_label(error)
}

impl WireResponse {
    /// The last-resort response text served when a response itself
    /// cannot be encoded (a header value carried a line break). Built
    /// from static text only, so it can never fail in turn.
    pub const FALLBACK: &'static str =
        "GRAM/1 ERROR\ncode: INTERNAL_ENCODING_FAILURE\nmessage: response could not be encoded\n";

    /// Encodes to the wire format.
    ///
    /// # Errors
    ///
    /// [`WireEncodeError`] when a value contains a line break and would
    /// corrupt the framing.
    pub fn encode(&self) -> Result<String, WireEncodeError> {
        let mut out = String::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Appends the wire encoding to `out` — the pooled-buffer path; no
    /// bytes are written unless every value passes the framing check.
    ///
    /// # Errors
    ///
    /// [`WireEncodeError`] when a value contains a line break and would
    /// corrupt the framing.
    pub fn encode_into(&self, out: &mut String) -> Result<(), WireEncodeError> {
        match self {
            WireResponse::Submitted { contact } => encode_submitted(out, contact),
            WireResponse::Report { contact, owner, jobtag, account, state, executed_micros } => {
                encode_report(
                    out,
                    contact,
                    owner,
                    account,
                    state,
                    *executed_micros,
                    jobtag.as_deref(),
                )
            }
            WireResponse::Done => encode_done(out),
            WireResponse::Busy { retry_after_micros } => {
                encode_busy(out, *retry_after_micros);
                Ok(())
            }
            WireResponse::Error { code, message } => encode_error(out, code, message),
        }
    }

    /// Decodes from the wire format.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError`] for bad framing (including carriage returns
    /// and duplicate headers) or missing headers.
    pub fn decode(text: &str) -> Result<WireResponse, WireDecodeError> {
        let frame = WireFrame::decode(text)?;
        match frame.verb() {
            "SUBMITTED" => {
                Ok(WireResponse::Submitted { contact: frame.require("job")?.to_string() })
            }
            "REPORT" => Ok(WireResponse::Report {
                contact: frame.require("job")?.to_string(),
                owner: frame.require("owner")?.to_string(),
                jobtag: frame.header("jobtag").map(str::to_string),
                account: frame.require("account")?.to_string(),
                state: frame.require("state")?.to_string(),
                executed_micros: frame
                    .require("executed-micros")?
                    .trim()
                    .parse()
                    .map_err(|_| malformed("executed-micros must be an integer"))?,
            }),
            "DONE" => Ok(WireResponse::Done),
            "BUSY" => Ok(WireResponse::Busy {
                retry_after_micros: frame
                    .require("retry-after-micros")?
                    .trim()
                    .parse()
                    .map_err(|_| malformed("retry-after-micros must be an integer"))?,
            }),
            "ERROR" => Ok(WireResponse::Error {
                code: frame.require("code")?.to_string(),
                message: frame.require("message")?.to_string(),
            }),
            other => Err(malformed(format!("unknown verb {other:?}"))),
        }
    }
}

/// Incremental reassembly of `\n\n`-delimited frames from a byte stream.
///
/// Frames are a message (whose lines are never blank — PEM armor and
/// GRAM headers both guarantee it) followed by one extra `\n`, so a
/// blank line unambiguously terminates a frame. The assembler accepts
/// bytes in whatever fragments the socket delivers, yields each complete
/// frame exactly once, and keeps the remainder buffered for the next
/// read. The internal buffer is reused across frames (bytes are
/// compacted with `copy_within`, never reallocated on the steady state),
/// which is what makes the per-connection hot path allocation-free.
///
/// # Error contract
///
/// Every error [`next_frame`](Self::next_frame) returns **consumes the
/// offending bytes**, leaving the stream positioned at the next frame
/// boundary — the caller may answer the error on the wire and keep
/// serving the connection. Concretely:
///
/// * `Malformed` (non-UTF-8 frame): the complete frame is consumed.
/// * `Oversized`, terminated: the complete frame is consumed.
/// * `Oversized`, unterminated (the pending tail outgrew the limit
///   before a delimiter arrived): the buffered bytes are dropped and the
///   assembler enters *discard mode*, silently eating bytes until the
///   frame's eventual delimiter (memory stays bounded no matter how much
///   the peer sends). The error is reported exactly once per oversized
///   frame.
///
/// A `\r\n\r\n` sequence also terminates a frame: a client speaking
/// HTTP-style CRLF line endings produces frames [`WireFrame::decode`]
/// rejects ("carriage return in message"), and recognizing its
/// terminator turns that mistake into an immediate `BAD_REQUEST` answer
/// instead of a silent stall waiting for a bare `\n\n` that will never
/// come. This is a deliberate decision, pinned by tests.
#[derive(Debug)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    limit: usize,
    /// Eating an unterminated-oversized frame's remaining bytes; cleared
    /// when its delimiter finally arrives.
    discarding: bool,
}

/// Frame terminator found in `buf`: `(text_end, consumed)` — the frame
/// text is `buf[..text_end]` and `buf[..consumed]` is consumed with it.
/// Recognizes `\n\n` and the CRLF form `\r\n\r\n`, whichever starts
/// first.
fn find_terminator(buf: &[u8]) -> Option<(usize, usize)> {
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    // Only a CRLF terminator that starts before the first `\n\n` can win,
    // so the search stops there instead of rescanning every pipelined
    // frame behind it.
    let scan = lf.map_or(buf, |a| &buf[..(a + 3).min(buf.len())]);
    let crlf = scan.windows(4).position(|w| w == b"\r\n\r\n");
    match (lf, crlf) {
        (Some(a), Some(b)) if b < a => Some((b + 2, b + 4)),
        (Some(a), _) => Some((a + 1, a + 2)),
        (None, Some(b)) => Some((b + 2, b + 4)),
        (None, None) => None,
    }
}

impl FrameAssembler {
    /// An empty assembler enforcing `limit` bytes per frame.
    #[must_use]
    pub fn new(limit: usize) -> FrameAssembler {
        FrameAssembler { buf: Vec::new(), limit, discarding: false }
    }

    /// An empty assembler with the protocol default limit.
    #[must_use]
    pub fn with_default_limit() -> FrameAssembler {
        FrameAssembler::new(MAX_FRAME_BYTES)
    }

    /// Appends freshly read bytes.
    ///
    /// Keep-alive newlines arriving at a frame boundary are dropped on
    /// the way in (rather than lazily skipped on every
    /// [`residue`](Self::residue) call), which is what makes `residue`
    /// O(1).
    pub fn push(&mut self, bytes: &[u8]) {
        let bytes = if self.buf.is_empty() && !self.discarding {
            let lead = bytes.iter().position(|&b| b != b'\n').unwrap_or(bytes.len());
            &bytes[lead..]
        } else {
            bytes
        };
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame, if one is buffered, and hands
    /// its text to `handle`; the frame's bytes are consumed afterwards.
    /// Returns `Ok(None)` when no complete frame is buffered yet. Call
    /// in a loop to drain pipelined frames delivered by one read.
    ///
    /// # Errors
    ///
    /// [`WireDecodeError::Oversized`] when a frame exceeds the limit —
    /// terminated or not — and `Malformed` for non-UTF-8 frame bytes.
    /// Every error consumes the offending bytes (see the type-level
    /// error contract), so the caller may answer on the wire and keep
    /// draining.
    pub fn next_frame<T>(
        &mut self,
        handle: impl FnOnce(&str) -> T,
    ) -> Result<Option<T>, WireDecodeError> {
        if self.discarding {
            match find_terminator(&self.buf) {
                Some((_, consumed)) => {
                    self.consume(consumed);
                    self.discarding = false;
                }
                None => {
                    // Drop everything except a possible delimiter prefix
                    // straddling this read and the next.
                    let keep = self.delimiter_prefix_len();
                    self.consume(self.buf.len() - keep);
                    return Ok(None);
                }
            }
        }
        // Skip blank lines between frames (extra keep-alive newlines a
        // client may send; `push` already strips them at a clean
        // boundary, this catches ones buffered behind a frame).
        let lead = self.buf.iter().position(|&b| b != b'\n').unwrap_or(self.buf.len());
        if lead > 0 {
            self.consume(lead);
        }
        let Some((text_end, consumed)) = find_terminator(&self.buf) else {
            let pending = self.buf.len();
            if pending > self.limit {
                // Unterminated and already too big: report once, drop
                // the bytes, and eat the rest of the frame silently.
                let keep = self.delimiter_prefix_len();
                self.consume(pending - keep);
                self.discarding = true;
                return Err(WireDecodeError::Oversized { size: pending, limit: self.limit });
            }
            return Ok(None);
        };
        if text_end > self.limit {
            self.consume(consumed);
            return Err(WireDecodeError::Oversized { size: text_end, limit: self.limit });
        }
        // The frame text keeps its final '\n' (or '\r\n'); the rest of
        // the terminator is the delimiter and is consumed with it.
        match std::str::from_utf8(&self.buf[..text_end]) {
            Ok(text) => {
                let out = handle(text);
                self.consume(consumed);
                Ok(Some(out))
            }
            Err(_) => {
                self.consume(consumed);
                Err(malformed("frame is not valid UTF-8"))
            }
        }
    }

    /// Bytes buffered for a frame that has not completed yet. Non-zero
    /// at connection close means the peer hung up mid-frame
    /// ([`WireDecodeError::Partial`]). O(1): leading keep-alive newlines
    /// are stripped eagerly, and bytes being discarded for an
    /// already-reported oversized frame don't count.
    #[must_use]
    pub fn residue(&self) -> usize {
        if self.discarding {
            0
        } else {
            self.buf.len()
        }
    }

    /// Discards all buffered bytes and any discard-mode state (capacity
    /// is kept), so one assembler can be reused across connections.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.discarding = false;
    }

    /// Length of the longest buffer suffix that could be the start of a
    /// frame terminator split across reads (at most 3: `\r\n\r`).
    fn delimiter_prefix_len(&self) -> usize {
        self.buf.iter().rev().take(3).take_while(|&&b| b == b'\n' || b == b'\r').count()
    }

    fn consume(&mut self, n: usize) {
        let remaining = self.buf.len() - n;
        self.buf.copy_within(n.., 0);
        self.buf.truncate(remaining);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn submit_roundtrip() {
        let req = WireRequestRef::Submit {
            rsl: "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
            account: Some("fusion"),
            work: SimDuration::from_mins(30),
        };
        assert_eq!(WireRequestRef::decode(&req.encode().unwrap()).unwrap(), req);
    }

    #[test]
    fn all_request_variants_roundtrip() {
        let requests = [
            WireRequestRef::Submit {
                rsl: "&(executable = a)",
                account: None,
                work: SimDuration::from_secs(1),
            },
            WireRequestRef::Cancel { contact: "gram://site/jobs/1" },
            WireRequestRef::Status { contact: "gram://site/jobs/2" },
            WireRequestRef::Signal { contact: "gram://site/jobs/3", signal: GramSignal::Suspend },
            WireRequestRef::Signal { contact: "gram://site/jobs/3", signal: GramSignal::Resume },
            WireRequestRef::Signal {
                contact: "gram://site/jobs/3",
                signal: GramSignal::Priority(-7),
            },
        ];
        for req in requests {
            assert_eq!(WireRequestRef::decode(&req.encode().unwrap()).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn all_response_variants_roundtrip() {
        let responses = [
            WireResponse::Submitted { contact: "gram://site/jobs/9".into() },
            WireResponse::Report {
                contact: "gram://site/jobs/9".into(),
                owner: "/O=Grid/CN=Bo Liu".into(),
                jobtag: Some("NFC".into()),
                account: "bliu".into(),
                state: "running".into(),
                executed_micros: 123_456,
            },
            WireResponse::Report {
                contact: "gram://site/jobs/9".into(),
                owner: "/O=Grid/CN=Bo Liu".into(),
                jobtag: None,
                account: "bliu".into(),
                state: "pending".into(),
                executed_micros: 0,
            },
            WireResponse::Done,
            WireResponse::Busy { retry_after_micros: 2_500 },
            WireResponse::Error { code: "AUTHORIZATION_DENIED".into(), message: "no grant".into() },
        ];
        for resp in responses {
            assert_eq!(WireResponse::decode(&resp.encode().unwrap()).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn decoded_fields_borrow_from_the_text() {
        let req = WireRequestRef::Submit {
            rsl: "&(executable = a)(count = 4)",
            account: Some("fusion"),
            work: SimDuration::from_secs(2),
        };
        let encoded = req.encode().unwrap();
        let borrowed = WireRequestRef::decode(&encoded).unwrap();
        assert_eq!(borrowed, req);
        match borrowed {
            WireRequestRef::Submit { rsl, account, .. } => {
                // The borrowed fields point into the encoded text.
                assert_eq!(rsl, "&(executable = a)(count = 4)");
                assert_eq!(account, Some("fusion"));
                let text_range =
                    encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
                assert!(text_range.contains(&(rsl.as_ptr() as usize)));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let resp = WireResponse::Error { code: "BAD_REQUEST".into(), message: "nope".into() };
        let mut out = String::from("prefix|");
        resp.encode_into(&mut out).unwrap();
        assert_eq!(out, format!("prefix|{}", resp.encode().unwrap()));
        // A rejected value writes nothing.
        let bad = WireResponse::Error { code: "A\nB".into(), message: "m".into() };
        let mut out = String::from("prefix|");
        assert!(bad.encode_into(&mut out).is_err());
        assert_eq!(out, "prefix|");
    }

    #[test]
    fn significant_whitespace_survives_the_round_trip() {
        // Values with leading, trailing, interior, and tab whitespace —
        // and the empty string — must come back byte-for-byte.
        for value in ["  two leading", "trailing  ", "\ttabbed\t", " ", "", "a  b"] {
            let req = WireRequestRef::Submit {
                rsl: value,
                account: Some(value),
                work: SimDuration::from_secs(1),
            };
            assert_eq!(WireRequestRef::decode(&req.encode().unwrap()).unwrap(), req, "{value:?}");
            let resp = WireResponse::Error { code: "BAD_REQUEST".into(), message: value.into() };
            assert_eq!(WireResponse::decode(&resp.encode().unwrap()).unwrap(), resp, "{value:?}");
        }
    }

    #[test]
    fn encode_rejects_line_breaks_in_every_request_field() {
        for smuggled in ["evil\naccount: root", "evil\r\naccount: root", "\n", "\r"] {
            let cases: Vec<(WireRequestRef, &str)> = vec![
                (
                    WireRequestRef::Submit {
                        rsl: smuggled,
                        account: None,
                        work: SimDuration::from_secs(1),
                    },
                    "rsl",
                ),
                (
                    WireRequestRef::Submit {
                        rsl: "&(executable = a)",
                        account: Some(smuggled),
                        work: SimDuration::from_secs(1),
                    },
                    "account",
                ),
                (WireRequestRef::Cancel { contact: smuggled }, "job"),
                (WireRequestRef::Status { contact: smuggled }, "job"),
                (WireRequestRef::Signal { contact: smuggled, signal: GramSignal::Resume }, "job"),
            ];
            for (req, header) in cases {
                let e = req.encode().expect_err("line break must be rejected");
                assert_eq!(e.header(), header, "{req:?}");
                assert!(e.to_string().contains("line break"));
            }
        }
    }

    #[test]
    fn encode_rejects_line_breaks_in_every_response_field() {
        let smuggled = "ok\ncode: FORGED";
        let cases: Vec<(WireResponse, &str)> = vec![
            (WireResponse::Submitted { contact: smuggled.into() }, "job"),
            (
                WireResponse::Report {
                    contact: smuggled.into(),
                    owner: "o".into(),
                    jobtag: None,
                    account: "a".into(),
                    state: "s".into(),
                    executed_micros: 0,
                },
                "job",
            ),
            (
                WireResponse::Report {
                    contact: "c".into(),
                    owner: smuggled.into(),
                    jobtag: None,
                    account: "a".into(),
                    state: "s".into(),
                    executed_micros: 0,
                },
                "owner",
            ),
            (
                WireResponse::Report {
                    contact: "c".into(),
                    owner: "o".into(),
                    jobtag: Some(smuggled.into()),
                    account: "a".into(),
                    state: "s".into(),
                    executed_micros: 0,
                },
                "jobtag",
            ),
            (
                WireResponse::Report {
                    contact: "c".into(),
                    owner: "o".into(),
                    jobtag: None,
                    account: smuggled.into(),
                    state: "s".into(),
                    executed_micros: 0,
                },
                "account",
            ),
            (
                WireResponse::Report {
                    contact: "c".into(),
                    owner: "o".into(),
                    jobtag: None,
                    account: "a".into(),
                    state: smuggled.into(),
                    executed_micros: 0,
                },
                "state",
            ),
            (WireResponse::Error { code: smuggled.into(), message: "m".into() }, "code"),
            (WireResponse::Error { code: "C".into(), message: smuggled.into() }, "message"),
        ];
        for (resp, header) in cases {
            let e = resp.encode().expect_err("line break must be rejected");
            assert_eq!(e.header(), header, "{resp:?}");
        }
    }

    #[test]
    fn decode_rejects_duplicate_headers() {
        let forged = "GRAM/1 SUBMIT\nrsl: &(executable = a)\nwork-micros: 1\naccount: guest\naccount: root\n";
        let e = WireRequestRef::decode(forged).expect_err("duplicate header must be rejected");
        assert!(e.to_string().contains("duplicate header"), "{e}");
        assert!(
            matches!(e, WireDecodeError::DuplicateHeader { ref header } if &**header == "account")
        );
        // Case-insensitive: Account vs account is still a duplicate.
        let forged = "GRAM/1 CANCEL\njob: x\nJOB: y\n";
        assert!(WireRequestRef::decode(forged).is_err());
        let forged = "GRAM/1 ERROR\ncode: A\ncode: B\nmessage: m\n";
        assert!(WireResponse::decode(forged).is_err());
    }

    #[test]
    fn decode_rejects_carriage_returns() {
        let crlf = "GRAM/1 CANCEL\r\njob: x\r\n";
        let e = WireRequestRef::decode(crlf).expect_err("CR must be rejected");
        assert!(e.to_string().contains("carriage return"), "{e}");
        assert!(WireResponse::decode("GRAM/1 DONE\r\n").is_err());
    }

    #[test]
    fn decode_rejects_oversized_and_overfull_messages() {
        let huge = format!("GRAM/1 STATUS\njob: {}\n", "x".repeat(MAX_FRAME_BYTES));
        match WireRequestRef::decode(&huge) {
            Err(WireDecodeError::Oversized { size, limit }) => {
                assert_eq!(size, huge.len());
                assert_eq!(limit, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        let mut overfull = String::from("GRAM/1 STATUS\njob: x\n");
        for i in 0..MAX_HEADERS {
            overfull.push_str(&format!("extra-{i}: y\n"));
        }
        assert!(WireRequestRef::decode(&overfull).is_err());
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        for bad in [
            "",
            "HTTP/1.1 GET /",
            "GRAM/1 NOPE\n",
            "GRAM/1 SUBMIT\n", // missing rsl
            "GRAM/1 SUBMIT\nrsl: &(a = 1)\nwork-micros: soon\n",
            "GRAM/1 SIGNAL\njob: x\nsignal: reboot\n",
            "GRAM/1 CANCEL\nno-colon-here\n",
        ] {
            assert!(WireRequestRef::decode(bad).is_err(), "should reject {bad:?}");
        }
        assert!(WireResponse::decode("GRAM/1 REPORT\n").is_err());
    }

    #[test]
    fn decode_error_labels_are_distinct() {
        let partial = WireDecodeError::Partial;
        let oversized = WireDecodeError::Oversized { size: 9, limit: 4 };
        let duplicate = WireDecodeError::DuplicateHeader { header: "job".into() };
        let malformed = malformed("junk");
        let mut seen: Vec<&str> = [&partial, &oversized, &duplicate, &malformed]
            .iter()
            .map(|e| decode_error_label(e))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
        // All renderings keep the shared prefix the clients key on.
        for e in [&partial, &oversized, &duplicate, &malformed] {
            assert!(e.to_string().starts_with("malformed GRAM message: "), "{e}");
        }
    }

    #[test]
    fn assembler_reassembles_split_and_pipelined_frames() {
        let first = "GRAM/1 STATUS\njob: a\n";
        let second = "GRAM/1 CANCEL\njob: b\n";
        let stream = format!("{first}\n{second}\n");
        let bytes = stream.as_bytes();
        let mut assembler = FrameAssembler::with_default_limit();
        let mut frames = Vec::new();
        // Deliver one byte at a time; drain after each push.
        for chunk in bytes.chunks(1) {
            assembler.push(chunk);
            while let Some(text) =
                assembler.next_frame(|frame| frame.to_string()).expect("clean stream")
            {
                frames.push(text);
            }
        }
        assert_eq!(frames, vec![first.to_string(), second.to_string()]);
        assert_eq!(assembler.residue(), 0);

        // Both frames in one push decode identically.
        let mut assembler = FrameAssembler::with_default_limit();
        assembler.push(bytes);
        let one = assembler.next_frame(|t| t.to_string()).unwrap().unwrap();
        let two = assembler.next_frame(|t| t.to_string()).unwrap().unwrap();
        assert_eq!((one.as_str(), two.as_str()), (first, second));
        assert_eq!(assembler.next_frame(|t| t.to_string()).unwrap(), None);
    }

    #[test]
    fn assembler_reports_partial_oversized_and_invalid_frames() {
        let mut assembler = FrameAssembler::new(16);
        assembler.push(b"GRAM/1 STATUS\n");
        assert_eq!(assembler.next_frame(|_| ()).unwrap(), None);
        assert!(assembler.residue() > 0, "unterminated bytes are pending");
        // Growing past the limit without a terminator is oversized,
        // reported exactly once.
        assembler.push(&[b'x'; 32]);
        assert!(matches!(
            assembler.next_frame(|_| ()),
            Err(WireDecodeError::Oversized { size: 46, limit: 16 })
        ));
        assert_eq!(assembler.next_frame(|_| ()).unwrap(), None, "no duplicate report");
        assert_eq!(assembler.residue(), 0, "discarded bytes are not partial-frame residue");
        // Invalid UTF-8 is reported and the frame is consumed.
        let mut assembler = FrameAssembler::with_default_limit();
        assembler.push(b"GRAM/1 \xff\n\nGRAM/1 DONE\n\n");
        assert!(matches!(assembler.next_frame(|_| ()), Err(WireDecodeError::Malformed(_))));
        assert_eq!(
            assembler.next_frame(|t| t.to_string()).unwrap().as_deref(),
            Some("GRAM/1 DONE\n")
        );
    }

    /// Regression for the error asymmetry fixed in this module: an
    /// oversized frame — terminated or not — is consumed like any other
    /// bad frame, so a valid frame behind it on the same connection
    /// still parses.
    #[test]
    fn oversized_frame_is_consumed_and_the_stream_resynchronizes() {
        // Terminated oversized frame, pipelined with a valid one.
        let mut assembler = FrameAssembler::new(16);
        let mut stream = Vec::new();
        stream.extend_from_slice(b"GRAM/1 STATUS\njob: ");
        stream.extend_from_slice(&[b'x'; 64]);
        stream.extend_from_slice(b"\n\nGRAM/1 DONE\n\n");
        assembler.push(&stream);
        assert!(matches!(
            assembler.next_frame(|_| ()),
            Err(WireDecodeError::Oversized { limit: 16, .. })
        ));
        assert_eq!(
            assembler.next_frame(|t| t.to_string()).unwrap().as_deref(),
            Some("GRAM/1 DONE\n"),
            "the stream resynchronizes after the oversized frame"
        );

        // Unterminated: the tail outgrows the limit first, the delimiter
        // and a valid frame arrive over later reads.
        let mut assembler = FrameAssembler::new(16);
        assembler.push(&[b'y'; 40]);
        assert!(matches!(
            assembler.next_frame(|_| ()),
            Err(WireDecodeError::Oversized { size: 40, limit: 16 })
        ));
        assembler.push(&[b'y'; 500]); // the frame keeps coming; memory stays bounded
        assert_eq!(assembler.next_frame(|_| ()).unwrap(), None);
        assert!(assembler.residue() <= 3, "discarded bytes are dropped, not buffered");
        assembler.push(b"tail\n"); // delimiter split across reads: '\n' +
        assembler.push(b"\nGRAM/1 DONE\n\n"); // '\n' spans two pushes
        assert_eq!(
            assembler.next_frame(|t| t.to_string()).unwrap().as_deref(),
            Some("GRAM/1 DONE\n")
        );
        assert_eq!(assembler.residue(), 0);
    }

    /// Pinned decision: a `\r\n\r\n` sequence terminates a frame, and the
    /// CRLF frame text is then rejected by the decoder ("carriage return
    /// in message") — a client speaking HTTP-style line endings gets an
    /// immediate BAD_REQUEST answer instead of stalling forever waiting
    /// for a bare `\n\n`.
    #[test]
    fn crlf_terminated_frames_are_detected_and_rejected() {
        let mut assembler = FrameAssembler::with_default_limit();
        assembler.push(b"GRAM/1 STATUS\r\njob: x\r\n\r\nGRAM/1 DONE\n\n");
        let verdict = assembler
            .next_frame(|text| {
                assert_eq!(text, "GRAM/1 STATUS\r\njob: x\r\n");
                WireFrame::decode(text).unwrap_err()
            })
            .unwrap()
            .expect("CRLF frame must terminate");
        assert!(verdict.to_string().contains("carriage return"), "{verdict}");
        assert_eq!(verdict.code(), "BAD_REQUEST");
        // The LF frame behind it still parses.
        assert_eq!(
            assembler.next_frame(|t| t.to_string()).unwrap().as_deref(),
            Some("GRAM/1 DONE\n")
        );
        assert_eq!(assembler.residue(), 0);
        // And a CRLF frame pipelined behind an LF frame is found next.
        assembler.push(b"GRAM/1 DONE\n\nGRAM/1 STATUS\r\njob: y\r\n\r\n");
        let frames: Vec<String> =
            std::iter::from_fn(|| assembler.next_frame(|t| t.to_string()).unwrap()).collect();
        assert_eq!(frames, ["GRAM/1 DONE\n", "GRAM/1 STATUS\r\njob: y\r\n"]);
        assert_eq!(assembler.residue(), 0);
    }

    #[test]
    fn residue_is_exact_and_keepalive_newlines_are_stripped_eagerly() {
        let mut assembler = FrameAssembler::with_default_limit();
        assembler.push(b"\n\n\n");
        assert_eq!(assembler.residue(), 0, "keep-alive newlines are not residue");
        assembler.push(b"GRAM/1 ST");
        assert_eq!(assembler.residue(), 9);
        assert_eq!(assembler.next_frame(|_| ()).unwrap(), None);
        assert_eq!(assembler.residue(), 9, "draining does not disturb a partial frame");
        assembler.reset();
        assert_eq!(assembler.residue(), 0);
        // After reset, leading keep-alive newlines are again stripped.
        assembler.push(b"\nGRAM/1 DONE\n\n");
        assert_eq!(
            assembler.next_frame(|t| t.to_string()).unwrap().as_deref(),
            Some("GRAM/1 DONE\n")
        );
    }

    #[test]
    fn decode_error_codes_are_stable_and_distinct() {
        let errors = [
            WireDecodeError::Partial,
            WireDecodeError::Oversized { size: 9, limit: 4 },
            WireDecodeError::DuplicateHeader { header: "job".into() },
            malformed("junk"),
        ];
        assert_eq!(
            errors.iter().map(WireDecodeError::code).collect::<Vec<_>>(),
            ["PARTIAL_FRAME", "OVERSIZED_FRAME", "DUPLICATE_HEADER", "BAD_REQUEST"]
        );
    }

    #[test]
    fn request_line_offset_only_anchors_at_line_starts() {
        // Plain frame: the request line is at the very start.
        assert_eq!(request_line_offset("GRAM/1 STATUS\njob: x\n"), Some(0));
        // PEM preamble then the request line.
        let framed = "-----BEGIN X509-----\nabc\n-----END X509-----\nGRAM/1 STATUS\njob: x\n";
        assert_eq!(request_line_offset(framed), Some(framed.find("GRAM/1 STATUS").unwrap()));
        // A crafted PEM body containing the literal text `GRAM/1 ` in
        // the middle of a line must NOT anchor the split.
        let crafted =
            "-----BEGIN X509-----\nxxGRAM/1 SUBMIT yy\n-----END X509-----\nGRAM/1 STATUS\njob: x\n";
        assert_eq!(request_line_offset(crafted), Some(crafted.rfind("GRAM/1 STATUS").unwrap()));
        // No request line at a line start at all.
        assert_eq!(request_line_offset("-----BEGIN X509-----\nxxGRAM/1 yy\n"), None);
        assert_eq!(request_line_offset(""), None);
    }

    #[test]
    fn client_budget_header_is_clamped() {
        use gridauthz_core::MAX_CLIENT_BUDGET;
        let text = format!("GRAM/1 STATUS\njob: x\nbudget-micros: {}\n", u64::MAX);
        let budget = parse_frame(&text).unwrap().budget;
        assert_eq!(budget, Some(MAX_CLIENT_BUDGET), "unbounded budgets are clamped");
        let text = "GRAM/1 STATUS\njob: x\nbudget-micros: 750\n";
        let budget = parse_frame(text).unwrap().budget;
        assert_eq!(budget, Some(SimDuration::from_micros(750)), "sane budgets pass through");
    }

    #[test]
    fn error_codes_are_stable_and_distinct() {
        use gridauthz_core::DenyReason;
        let denial = GramError::NotAuthorized(DenyReason::NoApplicableGrant);
        let failure = GramError::AuthorizationSystemFailure("x".into());
        assert_eq!(error_code(&denial), "AUTHORIZATION_DENIED");
        assert_eq!(error_code(&failure), "AUTHORIZATION_SYSTEM_FAILURE");
        assert_ne!(error_code(&denial), error_code(&failure));
    }

    #[test]
    fn overload_errors_answer_as_busy_frames() {
        use gridauthz_core::ShedReason;
        let error = GramError::Overloaded {
            reason: ShedReason::QueueFull,
            retry_after: SimDuration::from_millis(3),
        };
        assert_eq!(error_code(&error), "BUSY");
        let mut encoded = String::new();
        answer_failure(&mut encoded, &error);
        assert_eq!(encoded, "GRAM/1 BUSY\nretry-after-micros: 3000\n");
        let resp = WireResponse::Busy { retry_after_micros: 3_000 };
        assert_eq!(resp.encode().unwrap(), encoded);
        assert_eq!(WireResponse::decode(&encoded).unwrap(), resp);
        // A BUSY frame without the retry hint is malformed.
        assert!(WireResponse::decode("GRAM/1 BUSY\n").is_err());
    }

    #[test]
    fn admission_headers_roundtrip_and_default() {
        let req = WireRequestRef::Status { contact: "gram://site/jobs/4" };
        let text = format!("{}class: batch\nbudget-micros: 750\n", req.encode().unwrap());
        let parsed = parse_frame(&text).unwrap();
        // The extra headers don't disturb request decoding.
        assert_eq!(parsed.request, req);
        assert_eq!(parsed.class, Some(AdmissionClass::Batch));
        assert_eq!(parsed.budget, Some(SimDuration::from_micros(750)));

        // Absent headers: the connection's lane, server-chosen budget.
        let parsed = parse_frame("GRAM/1 STATUS\njob: x\n").unwrap();
        assert_eq!((parsed.class, parsed.budget), (None, None));

        // Malformed metadata is rejected, not silently defaulted.
        for bad in ["class: realtime", "budget-micros: soon"] {
            let text = format!("GRAM/1 STATUS\njob: x\n{bad}\n");
            let e = parse_frame(&text).expect_err("malformed admission header");
            assert_eq!(e.code(), "BAD_REQUEST", "{bad}: {e}");
        }
    }

    #[test]
    fn parse_frame_splits_the_credential_from_the_request() {
        let pem = "-----BEGIN X509-----\nxxGRAM/1 SUBMIT yy\n-----END X509-----\n";
        let text = format!("{pem}GRAM/1 CANCEL\njob: gram://site/jobs/5\n");
        let parsed = parse_frame(&text).unwrap();
        assert_eq!(parsed.pem, pem);
        assert_eq!(parsed.request, WireRequestRef::Cancel { contact: "gram://site/jobs/5" });
        // No request line, or a repeated header: typed refusals.
        let e = parse_frame(pem).expect_err("no request line");
        assert_eq!(e.code(), "BAD_REQUEST");
        let e = parse_frame(&format!("{pem}GRAM/1 CANCEL\njob: a\njob: b\n")).unwrap_err();
        assert_eq!(e.code(), "DUPLICATE_HEADER");
    }

    /// A header value: arbitrary text with no line breaks, including
    /// leading/trailing spaces, tabs, colons, and non-ASCII.
    fn value_strategy() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                'a', 'Z', '0', ' ', '\t', ':', '=', '(', ')', '/', '-', '_', '.', '"', 'é', '→',
            ]),
            0..24,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    /// The owned parts of an arbitrary request; [`request_of`] borrows
    /// a request from them.
    type RequestParts = (u8, String, Option<String>, u64, GramSignal);

    fn request_strategy() -> impl Strategy<Value = RequestParts> {
        let signal = prop_oneof![
            Just(GramSignal::Suspend),
            Just(GramSignal::Resume),
            (-100i64..100).prop_map(GramSignal::Priority),
        ];
        (0u8..4, value_strategy(), prop::option::of(value_strategy()), 0u64..1_000_000, signal)
    }

    fn request_of(parts: &RequestParts) -> WireRequestRef<'_> {
        let (verb, text, account, micros, signal) = parts;
        match verb {
            0 => WireRequestRef::Submit {
                rsl: text,
                account: account.as_deref(),
                work: SimDuration::from_micros(*micros),
            },
            1 => WireRequestRef::Cancel { contact: text },
            2 => WireRequestRef::Status { contact: text },
            _ => WireRequestRef::Signal { contact: text, signal: *signal },
        }
    }

    fn response_strategy() -> impl Strategy<Value = WireResponse> {
        prop_oneof![
            value_strategy().prop_map(|contact| WireResponse::Submitted { contact }),
            (
                value_strategy(),
                value_strategy(),
                prop::option::of(value_strategy()),
                value_strategy(),
                value_strategy(),
                0u64..1_000_000,
            )
                .prop_map(
                    |(contact, owner, jobtag, account, state, executed_micros)| {
                        WireResponse::Report {
                            contact,
                            owner,
                            jobtag,
                            account,
                            state,
                            executed_micros,
                        }
                    }
                ),
            Just(WireResponse::Done),
            (0u64..1_000_000)
                .prop_map(|retry_after_micros| WireResponse::Busy { retry_after_micros }),
            (value_strategy(), value_strategy())
                .prop_map(|(code, message)| WireResponse::Error { code, message }),
        ]
    }

    proptest! {
        #[test]
        fn request_encode_decode_roundtrip(parts in request_strategy()) {
            let req = request_of(&parts);
            let encoded = req.encode().expect("line-break-free values must encode");
            prop_assert_eq!(WireRequestRef::decode(&encoded).unwrap(), req);
        }

        #[test]
        fn response_encode_decode_roundtrip(resp in response_strategy()) {
            let encoded = resp.encode().expect("line-break-free values must encode");
            prop_assert_eq!(WireResponse::decode(&encoded).unwrap(), resp);
        }
    }
}
