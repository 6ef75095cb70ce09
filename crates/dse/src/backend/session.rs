//! The worker-session exchanges the [`RemoteBackend`](super::RemoteBackend)
//! runs over an established, handshaked connection: building the
//! session-opening init line from an [`EvalCore`], the init → `ready`
//! exchange that (re-)opens a session, and the one-frame-out /
//! one-frame-back exchange that scores a chunk. Timeouts stay with the
//! caller (socket read timeouts), which is why these helpers take plain
//! `Write`/`BufRead` endpoints.

use std::io::{BufRead, Write};

use crate::eval::{CandidateScore, EvalCore};

use super::protocol::{
    decode_error_frame, decode_score_reply, encode_score_batch, parse_ready, read_frame,
    write_frame, BatchItem, WorkerInit, FRAME_ERROR, FRAME_SCORE_BATCH, FRAME_SCORE_REPLY,
};
use super::EvalJob;

/// The session-opening init line fixing one run's model, hardware, power,
/// macro mode and objective (bit-exact encodings throughout).
pub(crate) fn init_line_for(core: &EvalCore<'_>) -> String {
    WorkerInit {
        model_json: pimsyn_model::onnx::to_json(core.model()),
        hw_json: pimsyn_arch::hardware_config::to_json_exact(core.hw()),
        power_bits: core.total_power().value().to_bits(),
        macro_mode: core.macro_mode(),
        objective: core.objective(),
    }
    .to_line()
}

/// Opens (or re-opens) a run session over an established transport: writes
/// the init line and reads the matching `ready` acknowledgment. The caller
/// guards against a peer that never answers (socket read timeout).
pub(crate) fn open_session_io(
    writer: &mut dyn Write,
    reader: &mut dyn BufRead,
    init_line: &str,
) -> Result<(), String> {
    writeln!(writer, "{init_line}").map_err(|e| format!("session write failed: {e}"))?;
    writer
        .flush()
        .map_err(|e| format!("session flush failed: {e}"))?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => parse_ready(line.trim()),
        Ok(_) => Err("worker closed the stream before acknowledging init".to_string()),
        Err(e) => Err(format!("session read failed: {e}")),
    }
}

/// Scores one chunk over an open session: the whole chunk goes out as one
/// `score_batch` frame and comes back as one `score_reply` frame in request
/// order — two syscalls per chunk.
pub(crate) fn exchange_batch(
    writer: &mut dyn Write,
    reader: &mut dyn BufRead,
    jobs: &[EvalJob<'_>],
    id_base: u64,
) -> Result<Vec<CandidateScore>, String> {
    let items: Vec<BatchItem> = jobs
        .iter()
        .map(|job| BatchItem {
            ratio_bits: job.point.ratio_rram.to_bits(),
            xb_size: job.point.crossbar.size() as u32,
            cell_bits: job.point.crossbar.cell_bits(),
            dac_bits: job.df.dac().bits(),
            wt_dup: job.df.programs().iter().map(|p| p.wt_dup as u32).collect(),
            gene: job.gene.as_slice().to_vec(),
        })
        .collect();
    let payload = encode_score_batch(id_base, &items);
    write_frame(writer, FRAME_SCORE_BATCH, &payload)
        .map_err(|e| format!("worker write failed: {e}"))?;
    writer
        .flush()
        .map_err(|e| format!("worker flush failed: {e}"))?;
    let (kind, payload) = read_frame(reader).map_err(|e| format!("worker read failed: {e}"))?;
    match kind {
        FRAME_SCORE_REPLY => {}
        FRAME_ERROR => {
            return Err(format!(
                "worker reported an error: {}",
                decode_error_frame(&payload)
            ))
        }
        other => return Err(format!("unexpected frame kind 0x{other:02x}")),
    }
    let (reply_base, scores) = decode_score_reply(&payload)?;
    if reply_base != id_base {
        return Err(format!(
            "worker answered batch {reply_base}, expected {id_base}"
        ));
    }
    if scores.len() != jobs.len() {
        return Err(format!(
            "worker answered {} scores for {} candidates",
            scores.len(),
            jobs.len()
        ));
    }
    Ok(scores)
}
