//! The worker half: a frame loop over stdin/stdout.
//!
//! A worker regenerates its inputs deterministically from the
//! `(scale, seed)` in each job — routing data never crosses the
//! process boundary, only work-unit indices one way and harvested
//! state the other. The loop exits on clean EOF (the coordinator
//! dropped our stdin) or any frame error (a confused coordinator is
//! treated like a closed one).

use std::io::{Read, Write};

use mlpeer::infer::LinkInferencer;
use mlpeer::passive::{harvest_passive_units, PassiveConfig};
use mlpeer::pipeline::{prepare, TeeSink};

use crate::wire::{
    read_frame, write_frame, Fault, Frame, FrameKind, PassiveJob, PassiveResult, WireError,
};

/// Write `payload` as a reply frame, executing the job's injected
/// fault. Faults that "crash" abort the whole process — from the
/// coordinator's side this is indistinguishable from a real kill -9,
/// which is the point.
fn send_reply(
    out: &mut impl Write,
    kind: FrameKind,
    seq: u32,
    payload: &[u8],
    fault: Fault,
) -> Result<(), WireError> {
    match fault {
        Fault::None => {
            write_frame(out, kind, seq, payload)?;
        }
        Fault::CrashSilent => {
            std::process::abort();
        }
        Fault::CrashMidFrame => {
            let bytes = crate::wire::encode_frame(kind, seq, payload);
            out.write_all(&bytes[..bytes.len() / 2])?;
            out.flush()?;
            std::process::abort();
        }
        Fault::StallMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms as u64));
            write_frame(out, kind, seq, payload)?;
        }
        Fault::Garbage => {
            let mut bytes = crate::wire::encode_frame(kind, seq, payload);
            // Flip one payload byte, leaving the checksum stale.
            let idx = bytes.len() - 9; // last payload byte (before the u64 checksum)
            bytes[idx] ^= 0xFF;
            out.write_all(&bytes)?;
            out.flush()?;
        }
        Fault::Duplicate => {
            write_frame(out, kind, seq, payload)?;
            write_frame(out, kind, seq, payload)?;
        }
    }
    Ok(())
}

fn handle_passive(job: &PassiveJob) -> Option<PassiveResult> {
    let eco = crate::eco_for(&job.scale, job.seed)?;
    let prep = prepare(&eco, job.seed);
    let mut sink: TeeSink = (Vec::new(), LinkInferencer::default());
    let stats = harvest_passive_units(
        &prep.passive,
        &prep.dict,
        &prep.conn,
        &prep.rels,
        &PassiveConfig::default(),
        &job.units,
        &mut sink,
    );
    Some(PassiveResult {
        observations: sink.0,
        state: sink.1.export_state(),
        stats,
    })
}

/// The worker main loop: read frames, harvest, reply, until EOF.
/// Returns `Ok` on a clean exit and the frame error otherwise (the
/// binary maps it to a nonzero exit code).
pub fn run_worker(mut input: impl Read, mut output: impl Write) -> Result<(), WireError> {
    loop {
        let Some(Frame { kind, seq, payload }) = read_frame(&mut input)? else {
            return Ok(()); // clean EOF: coordinator is done with us
        };
        match kind {
            FrameKind::PassiveJob => {
                let job = PassiveJob::decode(&payload)?;
                let Some(result) = handle_passive(&job) else {
                    // Unknown scale word: we cannot produce a correct
                    // shard, so exit and let the coordinator degrade.
                    return Err(WireError::Codec(mlpeer_store::codec::CodecError::BadValue(
                        "unknown scale word",
                    )));
                };
                send_reply(
                    &mut output,
                    FrameKind::PassiveResult,
                    seq,
                    &result.encode(),
                    job.fault,
                )?;
            }
            FrameKind::PassiveResult => {
                // A reply kind flowing coordinator→worker is a
                // protocol violation.
                return Err(WireError::BadKind(2));
            }
        }
    }
}
