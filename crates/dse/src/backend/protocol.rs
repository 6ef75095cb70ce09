//! The worker protocol between the [`RemoteBackend`] (client) and
//! `pimsyn worker-serve` daemons (server), over TCP.
//!
//! A connection opens with a JSON-lines transport handshake ([`hello_line`]
//! → [`welcome_line`], see [`TcpHandshake`]). A run's *session* then opens
//! with a JSON [`WorkerInit`] line fixing everything that is constant for
//! the run (model, hardware parameters, power budget, macro mode,
//! objective); the worker answers with a [`ready_line`]. Scoring follows as
//! length-prefixed binary frames carrying whole batches — see
//! [`write_frame`]/[`read_frame`] and the `encode_*`/`decode_*` codecs. A
//! later init line on the same connection re-opens the session for a new
//! run. Floats travel as IEEE-754 bit patterns (hex strings in JSON,
//! little-endian words in frames), so a worker's scores are
//! *bit-identical* to inline scoring.
//!
//! ```text
//! > {"type":"hello","pimsyn_worker":2}
//! < {"type":"welcome","pimsyn_worker":2,"slots":4}
//! > {"type":"init","pimsyn_worker":2,"model":"{...}","hw":"{...}",
//!    "power":"4022000000000000","macro_mode":"specialized","objective":"eff"}
//! < {"type":"ready","pimsyn_worker":2}
//! > [0x01][len][score_batch payload]
//! < [0x02][len][score_reply payload]
//! ```
//!
//! There is one protocol version, [`PROTOCOL_VERSION`], and every
//! handshake line must carry exactly it: a peer speaking any other version
//! is rejected at `hello`/`init`, and the dialing backend falls back to
//! inline scoring rather than risking a silent misparse.
//!
//! [`RemoteBackend`]: super::RemoteBackend

use std::io::{self, BufRead, Read, Write};

use pimsyn_arch::MacroMode;
use pimsyn_model::json::JsonValue;

use crate::ea::Objective;
use crate::eval::CandidateScore;

/// Wire-format version; bumped on any incompatible message change. Every
/// handshake line carries it and peers must match it exactly.
pub const PROTOCOL_VERSION: u32 = 2;

fn field_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

/// Checks a handshake line's `pimsyn_worker` field against
/// [`PROTOCOL_VERSION`].
fn check_version(doc: &JsonValue, what: &str) -> Result<(), String> {
    match doc.get("pimsyn_worker").and_then(JsonValue::as_usize) {
        Some(v) if v == PROTOCOL_VERSION as usize => Ok(()),
        Some(v) => Err(format!(
            "protocol version mismatch: peer speaks {v}, this build speaks {PROTOCOL_VERSION}"
        )),
        None => Err(format!("{what} lacks a `pimsyn_worker` version")),
    }
}

/// Stable string tag of a [`MacroMode`].
pub fn macro_mode_tag(mode: MacroMode) -> &'static str {
    match mode {
        MacroMode::Specialized => "specialized",
        MacroMode::Identical => "identical",
    }
}

/// Parses a [`macro_mode_tag`] back.
///
/// # Errors
///
/// A message naming the unknown tag.
pub fn parse_macro_mode(s: &str) -> Result<MacroMode, String> {
    match s {
        "specialized" => Ok(MacroMode::Specialized),
        "identical" => Ok(MacroMode::Identical),
        other => Err(format!("unknown macro mode `{other}`")),
    }
}

/// Stable string tag of an [`Objective`].
pub fn objective_tag(objective: Objective) -> &'static str {
    match objective {
        Objective::PowerEfficiency => "eff",
        Objective::EnergyDelayProduct => "edp",
    }
}

/// Parses an [`objective_tag`] back.
///
/// # Errors
///
/// A message naming the unknown tag.
pub fn parse_objective(s: &str) -> Result<Objective, String> {
    match s {
        "eff" => Ok(Objective::PowerEfficiency),
        "edp" => Ok(Objective::EnergyDelayProduct),
        other => Err(format!("unknown objective `{other}`")),
    }
}

/// Session-opening message: everything constant across one synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerInit {
    /// The CNN in the ONNX-style JSON of `pimsyn_model::onnx` (lossless for
    /// the layer graph, which is all-integer).
    pub model_json: String,
    /// Hardware parameters in the *bit-exact* format of
    /// `pimsyn_arch::hardware_config::to_json_exact`.
    pub hw_json: String,
    /// Total power constraint, `f64::to_bits`.
    pub power_bits: u64,
    /// Identical vs specialized macros.
    pub macro_mode: MacroMode,
    /// What fitness maximizes.
    pub objective: Objective,
}

impl WorkerInit {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        JsonValue::Object(vec![
            ("type".into(), JsonValue::String("init".into())),
            (
                "pimsyn_worker".into(),
                JsonValue::Number(PROTOCOL_VERSION as f64),
            ),
            ("model".into(), JsonValue::String(self.model_json.clone())),
            ("hw".into(), JsonValue::String(self.hw_json.clone())),
            (
                "power".into(),
                JsonValue::String(super::u64_hex(self.power_bits)),
            ),
            (
                "macro_mode".into(),
                JsonValue::String(macro_mode_tag(self.macro_mode).into()),
            ),
            (
                "objective".into(),
                JsonValue::String(objective_tag(self.objective).into()),
            ),
        ])
        .to_string()
    }

    /// Parses one received init line, enforcing the protocol version.
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed JSON, a non-`init` message,
    /// a version mismatch or missing fields.
    pub fn parse(line: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("malformed init line: {e}"))?;
        match doc.get("type").and_then(JsonValue::as_str) {
            Some("init") => {}
            Some(other) => return Err(format!("expected an init line, got type `{other}`")),
            None => return Err("missing message `type`".to_string()),
        }
        check_version(&doc, "init line")?;
        let text = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        Ok(Self {
            model_json: text("model")?,
            hw_json: text("hw")?,
            power_bits: super::parse_u64_hex(&text("power")?)
                .ok_or_else(|| "`power` is not a hex bit pattern".to_string())?,
            macro_mode: parse_macro_mode(&text("macro_mode")?)?,
            objective: parse_objective(&text("objective")?)?,
        })
    }
}

/// The worker's `ready` acknowledgment after a successful init.
pub fn ready_line() -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("ready".into())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
    ])
    .to_string()
}

/// Checks a received `ready` line (type and version); an `error` line's
/// detail is surfaced as the message.
///
/// # Errors
///
/// A human-readable message when the line is not a matching `ready`.
pub fn parse_ready(line: &str) -> Result<(), String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed ready line: {e}"))?;
    match doc.get("type").and_then(JsonValue::as_str) {
        Some("ready") => check_version(&doc, "ready line"),
        Some("error") => Err(format!(
            "worker rejected the session: {}",
            error_detail(&doc)
        )),
        _ => Err(format!("expected a ready line, got: {line}")),
    }
}

fn error_detail(doc: &JsonValue) -> &str {
    doc.get("detail")
        .and_then(JsonValue::as_str)
        .unwrap_or("unspecified")
}

// ---------------------------------------------------------------------------
// Score exchange: length-prefixed binary frames.
//
// A session opens with the JSON init/ready lines above; the score exchange
// then runs on binary frames. Frame layout:
//
//     [ kind: u8 ][ len: u32 LE ][ payload: len bytes ]
//
// Every frame kind is < 0x20, so the first byte of a frame can never be
// `{` (0x7b) — a server reading a mixed stream peeks one byte to tell a
// JSON line (session re-init) from a binary frame. All integers are
// little-endian; floats travel as their IEEE-754 bit patterns, so remote
// scores are bit-identical to inline scores.
// ---------------------------------------------------------------------------

/// Frame kind: a whole batch of candidates to score (client → worker).
pub const FRAME_SCORE_BATCH: u8 = 0x01;
/// Frame kind: the scores for a whole batch, in request order (worker →
/// client).
pub const FRAME_SCORE_REPLY: u8 = 0x02;
/// Frame kind: a UTF-8 error detail (worker → client, terminal for the
/// batch).
pub const FRAME_ERROR: u8 = 0x03;

/// Upper bound on a frame payload; a length beyond this is treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Writes one frame. The caller flushes (batches are one frame, so one
/// flush per batch).
///
/// # Errors
///
/// Any transport write error.
pub fn write_frame(writer: &mut dyn Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 5];
    head[0] = kind;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    writer.write_all(&head)?;
    writer.write_all(payload)
}

/// Reads one frame, returning its kind and payload.
///
/// The payload buffer grows with the bytes actually received, never with
/// the declared length alone: a peer that announces a large frame and
/// then stalls or hangs up costs what it sent, not [`MAX_FRAME_LEN`].
///
/// # Errors
///
/// Any transport read error; an EOF before the header or mid-payload
/// surfaces as [`io::ErrorKind::UnexpectedEof`]; an over-long length as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(reader: &mut dyn BufRead) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 5];
    reader.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_LEN} cap"),
        ));
    }
    let mut payload = Vec::new();
    Read::take(&mut *reader, u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", payload.len()),
        ));
    }
    Ok((head[0], payload))
}

/// One candidate inside a [`FRAME_SCORE_BATCH`] payload; its id is
/// implicit (`id_base + index`). The worker recompiles the dataflow from
/// `(xb_size, cell_bits, dac_bits, wt_dup)` — compilation is deterministic
/// and costs microseconds, and consecutive candidates reuse the compiled
/// dataflow through a worker-side cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchItem {
    /// `RatioRram` as `f64::to_bits`.
    pub ratio_bits: u64,
    /// Crossbar rows/columns.
    pub xb_size: u32,
    /// ReRAM cell resolution in bits.
    pub cell_bits: u32,
    /// DAC resolution in bits.
    pub dac_bits: u32,
    /// Per-layer weight duplication (fixes the dataflow).
    pub wt_dup: Vec<u32>,
    /// The `MacAlloc` gene (`owner*1000 + n` encoding).
    pub gene: Vec<u32>,
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a frame payload.
struct PayloadCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "truncated frame payload".to_string())?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn u32_array(&mut self) -> Result<Vec<u32>, String> {
        let len = self.u32()? as usize;
        // Bounds-check before allocating: 4 bytes per element must fit in
        // what remains of the payload.
        if len > (self.buf.len() - self.pos) / 4 {
            return Err("truncated frame payload".to_string());
        }
        (0..len).map(|_| self.u32()).collect()
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "frame payload has {} trailing bytes",
                self.buf.len() - self.pos
            ))
        }
    }
}

/// Encodes a [`FRAME_SCORE_BATCH`] payload:
/// `id_base: u64, count: u32`, then per candidate
/// `ratio_bits: u64, xb: u32, cell: u32, dac: u32,
///  wt_dup_len: u32, wt_dup: [u32], gene_len: u32, gene: [u32]`.
pub fn encode_score_batch(id_base: u64, items: &[BatchItem]) -> Vec<u8> {
    let per_item: usize = items
        .iter()
        .map(|i| 8 + 3 * 4 + 4 + 4 * i.wt_dup.len() + 4 + 4 * i.gene.len())
        .sum();
    let mut buf = Vec::with_capacity(12 + per_item);
    push_u64(&mut buf, id_base);
    push_u32(&mut buf, items.len() as u32);
    for item in items {
        push_u64(&mut buf, item.ratio_bits);
        push_u32(&mut buf, item.xb_size);
        push_u32(&mut buf, item.cell_bits);
        push_u32(&mut buf, item.dac_bits);
        push_u32(&mut buf, item.wt_dup.len() as u32);
        for &d in &item.wt_dup {
            push_u32(&mut buf, d);
        }
        push_u32(&mut buf, item.gene.len() as u32);
        for &g in &item.gene {
            push_u32(&mut buf, g);
        }
    }
    buf
}

/// Decodes a [`FRAME_SCORE_BATCH`] payload back into `(id_base, items)`.
///
/// # Errors
///
/// A human-readable message for truncated or over-long payloads.
pub fn decode_score_batch(payload: &[u8]) -> Result<(u64, Vec<BatchItem>), String> {
    let mut cur = PayloadCursor::new(payload);
    let id_base = cur.u64()?;
    let count = cur.u32()? as usize;
    let mut items = Vec::new();
    for _ in 0..count {
        items.push(BatchItem {
            ratio_bits: cur.u64()?,
            xb_size: cur.u32()?,
            cell_bits: cur.u32()?,
            dac_bits: cur.u32()?,
            wt_dup: cur.u32_array()?,
            gene: cur.u32_array()?,
        });
    }
    cur.finish()?;
    Ok((id_base, items))
}

/// Encodes a [`FRAME_SCORE_REPLY`] payload:
/// `id_base: u64, count: u32`, then per candidate — in request order —
/// `fitness_bits: u64, feasible: u8`.
pub fn encode_score_reply(id_base: u64, scores: &[CandidateScore]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + 9 * scores.len());
    push_u64(&mut buf, id_base);
    push_u32(&mut buf, scores.len() as u32);
    for score in scores {
        push_u64(&mut buf, score.fitness.to_bits());
        buf.push(score.feasible as u8);
    }
    buf
}

/// Decodes a [`FRAME_SCORE_REPLY`] payload back into `(id_base, scores)`.
///
/// # Errors
///
/// A human-readable message for truncated/over-long payloads or a
/// non-boolean feasible byte.
pub fn decode_score_reply(payload: &[u8]) -> Result<(u64, Vec<CandidateScore>), String> {
    let mut cur = PayloadCursor::new(payload);
    let id_base = cur.u64()?;
    let count = cur.u32()? as usize;
    if count > payload.len() / 9 {
        return Err("truncated frame payload".to_string());
    }
    let mut scores = Vec::with_capacity(count);
    for _ in 0..count {
        let fitness = f64::from_bits(cur.u64()?);
        let feasible = match cur.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("feasible byte must be 0 or 1, got {other}")),
        };
        scores.push(CandidateScore { fitness, feasible });
    }
    cur.finish()?;
    Ok((id_base, scores))
}

/// Decodes a [`FRAME_ERROR`] payload (UTF-8 detail, lossily).
pub fn decode_error_frame(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

/// The transport-handshake lines that open every connection.
///
/// The dialing [`RemoteBackend`](super::RemoteBackend) must first prove it
/// speaks the same protocol version and, when the daemon was started with
/// an auth token, that it knows the shared secret. One handshake exchange
/// opens each connection, *before* the init/ready/score session:
///
/// ```text
/// > {"type":"hello","pimsyn_worker":2}                  (or +"token":"…")
/// < {"type":"welcome","pimsyn_worker":2,"slots":4}
/// ... worker session (init / ready / score frames) ...
/// ```
///
/// A rejected handshake — version mismatch, bad or missing token, all
/// slots busy — is answered with an [`error_line`] and the connection is
/// closed; the dialing backend degrades to inline scoring. A `stop` frame
/// in place of `hello` asks the daemon to shut down (same token rule),
/// acknowledged by a `bye` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpHandshake {
    /// Open a worker session on this connection.
    Hello {
        /// Shared secret; must match the daemon's token when it has one.
        token: Option<String>,
    },
    /// Ask the daemon to stop accepting connections and exit.
    Stop {
        /// Shared secret; same rule as for `hello`.
        token: Option<String>,
    },
}

fn handshake_line(kind: &str, token: Option<&str>) -> String {
    let mut fields = vec![
        ("type".to_string(), JsonValue::String(kind.to_string())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
    ];
    if let Some(token) = token {
        fields.push(("token".into(), JsonValue::String(token.to_string())));
    }
    JsonValue::Object(fields).to_string()
}

/// The connection-opening `hello` frame of the TCP transport.
pub fn hello_line(token: Option<&str>) -> String {
    handshake_line("hello", token)
}

/// The daemon-shutdown `stop` frame of the TCP transport.
pub fn stop_line(token: Option<&str>) -> String {
    handshake_line("stop", token)
}

/// Parses the first line of a TCP worker connection, enforcing the
/// protocol version.
///
/// # Errors
///
/// A human-readable message (suitable for an [`error_line`] reply) for
/// malformed JSON, unknown frame types, or a version mismatch.
pub fn parse_handshake(line: &str) -> Result<TcpHandshake, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed handshake: {e}"))?;
    let kind = match doc.get("type").and_then(JsonValue::as_str) {
        Some(kind @ ("hello" | "stop")) => kind,
        Some(other) => return Err(format!("expected a hello or stop handshake, got `{other}`")),
        None => return Err("missing handshake `type`".to_string()),
    };
    check_version(&doc, "handshake")?;
    let token = doc
        .get("token")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    Ok(match kind {
        "hello" => TcpHandshake::Hello { token },
        _ => TcpHandshake::Stop { token },
    })
}

/// The daemon's `welcome` acknowledgment of an accepted `hello`,
/// advertising how many sessions remain available to the dialing peer at
/// handshake time (including the one just opened) — a shared daemon
/// throttles each client to what actually remains.
pub fn welcome_line(slots: usize) -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("welcome".into())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
        ("slots".into(), JsonValue::Number(slots as f64)),
    ])
    .to_string()
}

/// Checks a received `welcome` line and returns the advertised slot count.
///
/// # Errors
///
/// A human-readable message for malformed or mismatched lines; an `error`
/// frame's detail (e.g. an authentication failure) is surfaced as the
/// message.
pub fn parse_welcome(line: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed welcome line: {e}"))?;
    match doc.get("type").and_then(JsonValue::as_str) {
        Some("welcome") => {}
        Some("error") => {
            return Err(format!(
                "worker daemon rejected the connection: {}",
                error_detail(&doc)
            ))
        }
        _ => return Err(format!("expected a welcome line, got: {line}")),
    }
    check_version(&doc, "welcome line")?;
    Ok(field_usize(&doc, "slots")?.max(1))
}

/// The daemon's acknowledgment of a `stop` frame, sent just before it
/// exits.
pub fn bye_line() -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("bye".into())),
        (
            "pimsyn_worker".into(),
            JsonValue::Number(PROTOCOL_VERSION as f64),
        ),
    ])
    .to_string()
}

/// Checks a received `bye` acknowledgment.
///
/// # Errors
///
/// A human-readable message for anything that is not a `bye` frame (an
/// `error` frame's detail is surfaced as the message).
pub fn parse_bye(line: &str) -> Result<(), String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("malformed bye line: {e}"))?;
    match doc.get("type").and_then(JsonValue::as_str) {
        Some("bye") => Ok(()),
        Some("error") => Err(format!(
            "worker daemon refused to stop: {}",
            error_detail(&doc)
        )),
        _ => Err(format!("expected a bye line, got: {line}")),
    }
}

/// The normative prefix of the `error` detail a worker daemon answers a
/// `hello` with when every session slot is taken. Dialing backends
/// classify this as a *polite decline* — the daemon is healthy, just
/// fully subscribed — and neither warn nor back off; any other `error` is
/// a real failure. Shared between the daemon reply and the classifier so
/// a rewording cannot silently break the classification.
pub const NO_FREE_SLOTS: &str = "no free worker slots";

/// An error report from the worker (also usable before exiting).
pub fn error_line(detail: &str) -> String {
    JsonValue::Object(vec![
        ("type".into(), JsonValue::String("error".into())),
        ("detail".into(), JsonValue::String(detail.to_string())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_init() -> WorkerInit {
        WorkerInit {
            model_json: r#"{"name":"m"}"#.to_string(),
            hw_json: r#"{"clock":"0"}"#.to_string(),
            power_bits: 9.0f64.to_bits(),
            macro_mode: MacroMode::Identical,
            objective: Objective::EnergyDelayProduct,
        }
    }

    #[test]
    fn init_round_trips() {
        let init = sample_init();
        assert_eq!(WorkerInit::parse(&init.to_line()).unwrap(), init);
    }

    #[test]
    fn score_request_round_trips() {
        // A score request is one batch item; its extreme values survive
        // the score_batch payload bit for bit.
        let items = vec![
            BatchItem {
                ratio_bits: (0.1f64 + 0.2f64).to_bits(),
                xb_size: u32::MAX,
                cell_bits: 0,
                dac_bits: 8,
                wt_dup: vec![u32::MAX, 0, 1],
                gene: vec![0, u32::MAX],
            },
            BatchItem {
                ratio_bits: f64::NAN.to_bits(),
                xb_size: 128,
                cell_bits: 2,
                dac_bits: 1,
                wt_dup: vec![],
                gene: vec![],
            },
        ];
        let payload = encode_score_batch(u64::MAX, &items);
        assert_eq!(decode_score_batch(&payload).unwrap(), (u64::MAX, items));
    }

    #[test]
    fn score_response_round_trips_awkward_floats() {
        // Bit patterns decimal number formatting could disturb survive the
        // reply frame exactly.
        let fitnesses = [0.1 + 0.2, 1.0000000000000002, f64::MIN_POSITIVE, 0.0, -0.0];
        let scores: Vec<CandidateScore> = fitnesses
            .iter()
            .map(|&fitness| CandidateScore {
                fitness,
                feasible: true,
            })
            .collect();
        let (id_base, back) = decode_score_reply(&encode_score_reply(7, &scores)).unwrap();
        assert_eq!(id_base, 7);
        for (got, want) in back.iter().zip(&fitnesses) {
            assert_eq!(got.fitness.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // A stale v1 peer is refused at init and at ready, never misparsed.
        let v1_init =
            sample_init()
                .to_line()
                .replacen("\"pimsyn_worker\":2", "\"pimsyn_worker\":1", 1);
        let err = WorkerInit::parse(&v1_init).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        let line = r#"{"type":"init","pimsyn_worker":999,"model":"{}","hw":"{}","power":"0","macro_mode":"specialized","objective":"eff"}"#;
        assert!(WorkerInit::parse(line)
            .unwrap_err()
            .contains("version mismatch"));
        assert!(parse_ready(r#"{"type":"ready","pimsyn_worker":1}"#).is_err());
        assert!(parse_ready(r#"{"type":"ready"}"#).is_err());
        assert!(parse_ready(&ready_line()).is_ok());
    }

    #[test]
    fn tcp_handshake_frames_round_trip() {
        assert_eq!(
            parse_handshake(&hello_line(None)).unwrap(),
            TcpHandshake::Hello { token: None }
        );
        assert_eq!(
            parse_handshake(&hello_line(Some("s3cret"))).unwrap(),
            TcpHandshake::Hello {
                token: Some("s3cret".to_string())
            }
        );
        assert_eq!(
            parse_handshake(&stop_line(Some("s3cret"))).unwrap(),
            TcpHandshake::Stop {
                token: Some("s3cret".to_string())
            }
        );
        assert_eq!(parse_welcome(&welcome_line(4)).unwrap(), 4);
        assert_eq!(parse_welcome(&welcome_line(0)).unwrap(), 1, "slots >= 1");
        assert!(parse_bye(&bye_line()).is_ok());
    }

    #[test]
    fn tcp_handshake_rejects_mismatches_and_garbage() {
        for stale in [1, 9] {
            let line = format!(r#"{{"type":"hello","pimsyn_worker":{stale}}}"#);
            let err = parse_handshake(&line).unwrap_err();
            assert!(err.contains("version mismatch"), "{err}");
        }
        assert!(parse_handshake(r#"{"type":"hello"}"#).is_err());
        assert!(parse_handshake(r#"{"type":"init","pimsyn_worker":2}"#).is_err());
        assert!(parse_handshake("not json").is_err());
        let err = parse_welcome(r#"{"type":"welcome","pimsyn_worker":9,"slots":1}"#).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        // Error frames surface their detail through both reply parsers.
        let err = parse_welcome(&error_line("authentication failed")).unwrap_err();
        assert!(err.contains("authentication failed"), "{err}");
        let err = parse_bye(&error_line("authentication failed")).unwrap_err();
        assert!(err.contains("authentication failed"), "{err}");
    }

    #[test]
    fn error_lines_surface_their_detail() {
        let err = parse_ready(&error_line("boom")).unwrap_err();
        assert!(err.contains("boom"), "{err}");
        assert!(WorkerInit::parse("not json").is_err());
        assert!(WorkerInit::parse(r#"{"type":"dance"}"#).is_err());
    }

    #[test]
    fn frames_round_trip() {
        let items = vec![
            BatchItem {
                ratio_bits: 0.3f64.to_bits(),
                xb_size: 128,
                cell_bits: 2,
                dac_bits: 1,
                wt_dup: vec![1, 2, 3],
                gene: vec![1, 1001, 2002],
            },
            BatchItem {
                ratio_bits: (0.1f64 + 0.2f64).to_bits(),
                xb_size: 256,
                cell_bits: 4,
                dac_bits: 2,
                wt_dup: vec![],
                gene: vec![7],
            },
        ];
        let payload = encode_score_batch(41, &items);
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_SCORE_BATCH, &payload).unwrap();
        let mut reader = io::BufReader::new(&wire[..]);
        let (kind, got) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FRAME_SCORE_BATCH);
        let (id_base, back) = decode_score_batch(&got).unwrap();
        assert_eq!(id_base, 41);
        assert_eq!(back, items);

        let scores = vec![
            CandidateScore {
                fitness: 0.1 + 0.2,
                feasible: true,
            },
            CandidateScore {
                fitness: f64::MIN_POSITIVE,
                feasible: false,
            },
        ];
        let reply = encode_score_reply(41, &scores);
        let (id_base, back) = decode_score_reply(&reply).unwrap();
        assert_eq!(id_base, 41);
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&scores) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            assert_eq!(a.feasible, b.feasible);
        }
    }

    #[test]
    fn frame_kinds_never_collide_with_json() {
        // The worker loop peeks one byte to tell a binary frame from a JSON
        // line; every frame kind must stay distinct from `{`.
        for kind in [FRAME_SCORE_BATCH, FRAME_SCORE_REPLY, FRAME_ERROR] {
            assert_ne!(kind, b'{');
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        // Truncated payloads fail cleanly instead of panicking.
        let payload = encode_score_batch(
            0,
            &[BatchItem {
                ratio_bits: 0,
                xb_size: 1,
                cell_bits: 1,
                dac_bits: 1,
                wt_dup: vec![1],
                gene: vec![1],
            }],
        );
        for cut in 0..payload.len() {
            assert!(decode_score_batch(&payload[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_score_batch(&long).is_err());
        // A hostile element count cannot force a huge allocation.
        let mut hostile = Vec::new();
        push_u64(&mut hostile, 0);
        push_u32(&mut hostile, 1);
        push_u64(&mut hostile, 0);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, 1);
        push_u32(&mut hostile, u32::MAX); // wt_dup length
        assert!(decode_score_batch(&hostile).is_err());
        // Bad feasible byte.
        let mut reply = encode_score_reply(
            0,
            &[CandidateScore {
                fitness: 1.0,
                feasible: true,
            }],
        );
        *reply.last_mut().unwrap() = 7;
        assert!(decode_score_reply(&reply).is_err());
        // An over-long frame length is refused before allocating.
        let mut head = vec![FRAME_SCORE_BATCH];
        head.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut reader = io::BufReader::new(&head[..]);
        assert!(read_frame(&mut reader).is_err());
        // A maximal declared length followed by a few bytes and EOF is a
        // truncated frame, not a 64 MiB allocation.
        let mut short = vec![FRAME_SCORE_BATCH];
        short.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        short.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut io::BufReader::new(&short[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn error_frames_carry_their_detail() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_ERROR, b"session went sideways").unwrap();
        let mut reader = io::BufReader::new(&wire[..]);
        let (kind, payload) = read_frame(&mut reader).unwrap();
        assert_eq!(kind, FRAME_ERROR);
        assert_eq!(decode_error_frame(&payload), "session went sideways");
    }

    /// Seeded fuzz over the frame reader and both payload decoders: valid
    /// frames, their truncations, random bit flips and random garbage must
    /// never panic, and whatever fails must fail as a typed `Err`.
    #[test]
    fn fuzzed_frames_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5eed_f4a3);
        let random_item = |rng: &mut StdRng| BatchItem {
            ratio_bits: rng.next_u64(),
            xb_size: rng.gen_range(1u32..=512),
            cell_bits: rng.gen_range(1u32..=8),
            dac_bits: rng.gen_range(1u32..=8),
            wt_dup: (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(1u32..=16))
                .collect(),
            gene: (0..rng.gen_range(0usize..6)).map(|_| rng.gen()).collect(),
        };
        // Exercises every decoder on one frame's bytes; the only
        // acceptable outcomes are Ok or a typed Err.
        let probe = |wire: &[u8]| {
            if let Ok((_, payload)) = read_frame(&mut io::BufReader::new(wire)) {
                let _ = decode_score_batch(&payload);
                let _ = decode_score_reply(&payload);
            }
            let _ = decode_score_batch(wire);
            let _ = decode_score_reply(wire);
        };
        for round in 0..400 {
            let id_base = rng.next_u64();
            let payload = if round % 2 == 0 {
                let items: Vec<BatchItem> = (0..rng.gen_range(0usize..5))
                    .map(|_| random_item(&mut rng))
                    .collect();
                let payload = encode_score_batch(id_base, &items);
                assert_eq!(decode_score_batch(&payload).unwrap(), (id_base, items));
                payload
            } else {
                let scores: Vec<CandidateScore> = (0..rng.gen_range(0usize..5))
                    .map(|_| CandidateScore {
                        fitness: f64::from_bits(rng.next_u64()),
                        feasible: rng.gen_bool(0.5),
                    })
                    .collect();
                let payload = encode_score_reply(id_base, &scores);
                let (got_base, got) = decode_score_reply(&payload).unwrap();
                assert_eq!(got_base, id_base);
                assert_eq!(got.len(), scores.len());
                payload
            };
            let kind = if round % 2 == 0 {
                FRAME_SCORE_BATCH
            } else {
                FRAME_SCORE_REPLY
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, &payload).unwrap();
            probe(&wire);

            // Every truncation of the frame is a typed error from the
            // reader; every truncation of the payload from its decoder.
            for cut in 0..wire.len() {
                assert!(read_frame(&mut io::BufReader::new(&wire[..cut])).is_err());
                probe(&wire[..cut]);
            }
            for cut in 0..payload.len() {
                if kind == FRAME_SCORE_BATCH {
                    assert!(decode_score_batch(&payload[..cut]).is_err(), "cut={cut}");
                } else {
                    assert!(decode_score_reply(&payload[..cut]).is_err(), "cut={cut}");
                }
            }

            // Random bit flips anywhere, header included.
            for _ in 0..8 {
                let mut flipped = wire.clone();
                for _ in 0..rng.gen_range(1usize..4) {
                    let at = rng.gen_range(0..flipped.len());
                    flipped[at] ^= 1 << rng.gen_range(0u32..8);
                }
                probe(&flipped);
            }
        }
        // Pure garbage of assorted lengths.
        for _ in 0..400 {
            let garbage: Vec<u8> = (0..rng.gen_range(0usize..64))
                .map(|_| rng.next_u64() as u8)
                .collect();
            probe(&garbage);
        }
    }
}
