//! Output checks. Every operation's output is checked; a failed check is
//! a failed operation and makes the run exit nonzero.

use imgio::Image;
use j2k_serve::wire::{self, Response};

/// Byte identity against a reference codestream computed in set-up.
pub fn same_codestream(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "codestream differs from reference at byte {at} (len {} vs {})",
        got.len(),
        want.len()
    ))
}

/// What one encode reply from the service amounts to.
#[derive(Debug, PartialEq)]
pub enum Reply {
    Served,
    /// Admission control refused it. No retry: a refusal is a failed op.
    Rejected(String),
    Failed(String),
}

/// Check a parsed encode reply against the reference codestream.
pub fn encode_reply(resp: &Response, reference: &[u8]) -> Reply {
    match resp {
        Response::EncodeOk {
            codestream,
            degraded: false,
            ..
        } => match same_codestream(codestream, reference) {
            Ok(()) => Reply::Served,
            Err(e) => Reply::Failed(e),
        },
        Response::EncodeOk { degraded: true, .. } => {
            Reply::Failed("reply degraded to another coder".into())
        }
        Response::Rejected(r) => Reply::Rejected(format!("{r:?}")),
        other => Reply::Failed(format!("unexpected reply {}", kind(other))),
    }
}

/// A short description of an unexpected reply.
fn kind(r: &Response) -> String {
    format!("{r:?}").chars().take(60).collect()
}

/// Check a raw reply frame payload: it must parse and match.
pub fn encode_reply_frame(payload: &[u8], reference: &[u8]) -> Reply {
    match wire::parse_response(payload) {
        Ok(resp) => encode_reply(&resp, reference),
        Err(e) => Reply::Failed(format!("unparseable reply: {e:?}")),
    }
}

/// Lossless decodes must reproduce the input sample for sample.
pub fn bit_exact(decoded: &Image, original: &Image) -> Result<(), String> {
    let geometry = |im: &Image| (im.width, im.height, im.bit_depth, im.comps());
    if geometry(decoded) != geometry(original) {
        return Err("decoded geometry differs from the input".into());
    }
    for (c, (a, b)) in decoded.planes.iter().zip(&original.planes).enumerate() {
        if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
            return Err(format!("lossless decode differs in comp {c} at sample {i}"));
        }
    }
    Ok(())
}

/// Proof that the reply check can fail: `frame`, an intact reply payload
/// carrying `reference`, must pass, and the same payload with one byte of
/// the codestream changed must not. `pick` chooses the byte.
pub fn corrupted_reply_is_caught(frame: &[u8], reference: &[u8], pick: u64) -> Result<(), String> {
    if encode_reply_frame(frame, reference) != Reply::Served {
        return Err("the reply check refuses an intact reply".into());
    }
    // The codestream is the payload's tail.
    let offset = frame.len() - reference.len() + (pick % reference.len() as u64) as usize;
    let mut bad = frame.to_vec();
    bad[offset] ^= 0x5A;
    match encode_reply_frame(&bad, reference) {
        Reply::Served => Err(format!(
            "a reply corrupted at payload byte {offset} passed the check"
        )),
        _ => Ok(()),
    }
}

/// Proof that the codestream check can fail: one changed byte anywhere.
pub fn corrupted_codestream_is_caught(reference: &[u8], pick: u64) -> Result<(), String> {
    let mut bad = reference.to_vec();
    let at = (pick % reference.len() as u64) as usize;
    bad[at] ^= 0x5A;
    match same_codestream(&bad, reference) {
        Ok(()) => Err(format!(
            "a codestream corrupted at byte {at} passed the check"
        )),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_single_byte_corruption_of_a_reply_is_caught() {
        let im = imgio::synth::natural_rgb(16, 16, 3);
        let cs = j2k_core::encode(&im, &j2k_core::EncoderParams::lossless()).unwrap();
        let frame = wire::encode_response(&Response::EncodeOk {
            codestream: cs.clone(),
            degraded: false,
        });
        for pick in 0..cs.len() as u64 {
            corrupted_reply_is_caught(&frame, &cs, pick).unwrap();
            corrupted_codestream_is_caught(&cs, pick).unwrap();
        }
    }

    #[test]
    fn rejections_and_degraded_replies_are_not_successes() {
        let cs = vec![1u8, 2, 3];
        let rej = Response::Rejected(wire::RejectReason::Overloaded { retry_after_ms: 5 });
        assert!(matches!(encode_reply(&rej, &cs), Reply::Rejected(_)));
        let deg = Response::EncodeOk {
            codestream: cs.clone(),
            degraded: true,
        };
        assert!(matches!(encode_reply(&deg, &cs), Reply::Failed(_)));
        assert!(matches!(
            encode_reply(&Response::TimedOut, &cs),
            Reply::Failed(_)
        ));
    }

    #[test]
    fn bit_exact_spots_a_changed_sample() {
        let a = imgio::synth::natural_rgb(8, 8, 1);
        let mut b = a.clone();
        assert!(bit_exact(&b, &a).is_ok());
        b.planes[2][63] ^= 1;
        assert!(bit_exact(&b, &a)
            .unwrap_err()
            .contains("comp 2 at sample 63"));
    }
}
