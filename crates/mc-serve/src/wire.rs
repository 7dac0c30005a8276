//! The length-prefixed JSONL wire protocol.
//!
//! A frame is an ASCII decimal byte length terminated by `\n`, followed
//! by exactly that many bytes of JSON (one serialized [`Message`]),
//! followed by a closing `\n`. The prefix makes framing independent of
//! JSON content; the trailing newline keeps a captured stream readable as
//! JSONL with interleaved length lines. Both sides treat a clean EOF at a
//! frame boundary as an orderly disconnect and anything else — a torn
//! prefix, a short payload, an oversized length — as a protocol error.

use crate::ServeError;
use mc_exp::{CampaignSpec, UnitRecord};
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;

/// Upper bound on one frame's payload. Specs embed their full point list,
/// so frames are kilobytes; anything near this bound is a corrupt or
/// hostile length prefix, not a campaign.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Every message either side of the protocol sends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Worker → coordinator: first frame of a connection.
    Hello {
        /// Worker display name (diagnostics only).
        worker: String,
        /// The worker's thread budget (diagnostics only).
        threads: usize,
    },
    /// Coordinator → worker: registration acknowledged.
    Welcome {
        /// The coordinator-assigned worker id.
        worker_id: u64,
    },
    /// Client → coordinator: run this campaign.
    Submit {
        /// The campaign to run.
        spec: CampaignSpec,
    },
    /// Coordinator → client: the submission is (now) the active campaign.
    Accepted {
        /// The campaign fingerprint.
        fingerprint: String,
        /// Total units of the campaign.
        total_units: usize,
        /// Units already complete in the checkpoint store (resume).
        completed: usize,
    },
    /// Coordinator → client: the submission was refused.
    Rejected {
        /// Why.
        reason: String,
    },
    /// Coordinator → worker: run one lease (an `i/n` stripe).
    Assign {
        /// Lease id (the stripe index).
        lease: u64,
        /// The campaign spec; the worker rebuilds its runner from it.
        spec: CampaignSpec,
        /// Stripe index (`shard_index/shard_count` in mc-exp terms).
        shard_index: usize,
        /// Stripe count.
        shard_count: usize,
        /// Unit indices of the stripe the store already holds — a
        /// reassigned lease resumes instead of recomputing.
        done: Vec<usize>,
    },
    /// Worker → coordinator: one completed unit of the worker's lease.
    Record {
        /// The lease the record belongs to.
        lease: u64,
        /// The unit's result record.
        record: UnitRecord,
    },
    /// Worker → coordinator: every pending unit of the lease was sent.
    LeaseDone {
        /// The finished lease.
        lease: u64,
    },
    /// Worker → coordinator: liveness signal.
    Heartbeat,
    /// Coordinator → worker: the campaign is complete; exit cleanly.
    Shutdown,
}

/// Writes one frame and flushes it.
///
/// # Errors
///
/// Serialization or socket failures.
pub fn write_frame(w: &mut dyn Write, msg: &Message) -> Result<(), ServeError> {
    let mut frame = Vec::new();
    encode_frame(msg, &mut frame)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Appends one frame to `out`: the bytes [`write_frame`] would write.
/// The message is serialized in place, and its length prefix goes in
/// ahead of it, so a reused `out` costs no allocation per frame.
///
/// # Errors
///
/// Serialization failures.
pub(crate) fn encode_frame(msg: &Message, out: &mut Vec<u8>) -> Result<(), ServeError> {
    let start = out.len();
    serde_json::to_writer(out, msg)
        .map_err(|e| ServeError::Protocol(format!("message serialization failed: {e}")))?;
    let mut prefix = Cursor::new([0u8; 24]);
    writeln!(prefix, "{}", out.len() - start)?;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the cursor lies within a 24-byte buffer"
    )]
    let used = prefix.position() as usize;
    out.splice(start..start, prefix.get_ref()[..used].iter().copied());
    out.push(b'\n');
    Ok(())
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary (the
/// peer closed in an orderly way); a torn frame is a protocol error.
/// The length prefix is read a byte at a time, so sockets should be
/// wrapped in a [`BufReader`] to keep that to one syscall per buffer.
///
/// # Errors
///
/// Socket failures, oversized or malformed length prefixes, short
/// payloads, and JSON that does not parse as a [`Message`] (a number
/// beyond `f64`'s range among it).
pub fn read_frame(r: &mut dyn Read) -> Result<Option<Message>, ServeError> {
    // Length prefix: ASCII digits up to '\n'.
    let mut len: usize = 0;
    let mut digits = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) if digits == 0 => return Ok(None),
            Ok(0) => return Err(ServeError::Protocol("EOF inside a length prefix".into())),
            Ok(_) => {}
            Err(e) => return Err(ServeError::Io(e)),
        }
        match byte[0] {
            b'\n' if digits > 0 => break,
            d @ b'0'..=b'9' => {
                digits += 1;
                len = len
                    .checked_mul(10)
                    .and_then(|l| l.checked_add(usize::from(d - b'0')))
                    .filter(|&l| l <= MAX_FRAME)
                    .ok_or_else(|| ServeError::Protocol("frame length overflows".into()))?;
            }
            other => {
                return Err(ServeError::Protocol(format!(
                    "byte 0x{other:02x} in a length prefix"
                )))
            }
        }
    }
    // The buffer grows as bytes arrive: a bare prefix claiming `MAX_FRAME`
    // must not cost that much memory before its payload exists.
    let mut payload = Vec::new();
    r.take(len as u64 + 1) // + the closing newline
        .read_to_end(&mut payload)
        .map_err(|e| ServeError::Protocol(format!("short frame payload: {e}")))?;
    if payload.len() <= len {
        return Err(ServeError::Protocol(format!(
            "short frame payload: {} of {} bytes",
            payload.len(),
            len + 1
        )));
    }
    if payload.pop() != Some(b'\n') {
        return Err(ServeError::Protocol(
            "frame missing its closing newline".into(),
        ));
    }
    let json = std::str::from_utf8(&payload)
        .map_err(|_| ServeError::Protocol("frame payload is not UTF-8".into()))?;
    // A number too large for an f64 (`1e999`) does not parse, so every
    // metric read here is finite, as the store requires.
    let msg: Message = serde_json::from_str(json)
        .map_err(|e| ServeError::Protocol(format!("frame does not parse: {e}")))?;
    Ok(Some(msg))
}

/// Whether `buf` — the unread bytes of a buffered reader — already holds
/// one whole frame, so [`read_frame`] can return without touching the
/// socket. A malformed prefix also counts: `read_frame` rejects it without
/// reading further.
#[must_use]
pub(crate) fn frame_buffered(buf: &[u8]) -> bool {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        return false;
    };
    let prefix = &buf[..nl];
    if prefix.is_empty() || !prefix.iter().all(u8::is_ascii_digit) {
        return true;
    }
    let len = prefix.iter().try_fold(0usize, |l, &d| {
        l.checked_mul(10)?
            .checked_add(usize::from(d - b'0'))
            .filter(|&l| l <= MAX_FRAME)
    });
    // An oversized length fails in `read_frame` before any payload read.
    len.is_none_or(|len| buf.len() - (nl + 1) > len)
}

/// Submits a campaign to a coordinator and returns its `Accepted` reply
/// (fingerprint, total units, units already complete).
///
/// # Errors
///
/// Connection failures, a `Rejected` reply, or protocol violations.
pub fn submit(addr: &str, spec: &CampaignSpec) -> Result<(String, usize, usize), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &Message::Submit { spec: spec.clone() })?;
    match read_frame(&mut BufReader::new(&stream))? {
        Some(Message::Accepted {
            fingerprint,
            total_units,
            completed,
        }) => Ok((fingerprint, total_units, completed)),
        Some(Message::Rejected { reason }) => Err(ServeError::Rejected(reason)),
        Some(other) => Err(ServeError::Protocol(format!(
            "unexpected reply to Submit: {other:?}"
        ))),
        None => Err(ServeError::Protocol(
            "coordinator closed without replying to Submit".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_exp::{CatalogOptions, Metric};

    fn spec() -> CampaignSpec {
        mc_exp::catalog::build("ablation_sigma", &CatalogOptions::default())
            .unwrap()
            .spec
    }

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut &buf[..]).unwrap().unwrap()
    }

    #[test]
    fn every_variant_round_trips() {
        let s = spec();
        let u = s.unit(2);
        let messages = vec![
            Message::Hello {
                worker: "w0".into(),
                threads: 4,
            },
            Message::Welcome { worker_id: 7 },
            Message::Submit { spec: s.clone() },
            Message::Accepted {
                fingerprint: s.fingerprint(),
                total_units: 5,
                completed: 2,
            },
            Message::Rejected {
                reason: "busy".into(),
            },
            Message::Assign {
                lease: 1,
                spec: s.clone(),
                shard_index: 1,
                shard_count: 3,
                done: vec![1],
            },
            Message::Record {
                lease: 1,
                record: UnitRecord {
                    unit: u.index,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: vec![Metric::new("value", 0.5)],
                },
            },
            Message::LeaseDone { lease: 1 },
            Message::Heartbeat,
            Message::Shutdown,
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn frames_concatenate_and_clean_eof_is_none() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Heartbeat).unwrap();
        write_frame(&mut buf, &Message::LeaseDone { lease: 9 }).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(Message::Heartbeat));
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(Message::LeaseDone { lease: 9 })
        );
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn torn_and_malformed_frames_are_protocol_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Heartbeat).unwrap();
        // Torn payload.
        let torn = &buf[..buf.len() - 3];
        assert!(matches!(
            read_frame(&mut &torn[..]),
            Err(ServeError::Protocol(_))
        ));
        // EOF inside the length prefix.
        assert!(matches!(
            read_frame(&mut &b"12"[..]),
            Err(ServeError::Protocol(_))
        ));
        // Garbage where digits belong.
        assert!(matches!(
            read_frame(&mut &b"12x\n"[..]),
            Err(ServeError::Protocol(_))
        ));
        // A length that exceeds the frame bound.
        let huge = format!("{}\n", MAX_FRAME + 1);
        assert!(matches!(
            read_frame(&mut huge.as_bytes()),
            Err(ServeError::Protocol(_))
        ));
        // A frame whose closing newline is wrong.
        let mut bad = Vec::new();
        write_frame(&mut bad, &Message::Heartbeat).unwrap();
        let last = bad.len() - 1;
        bad[last] = b'x';
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(ServeError::Protocol(_))
        ));
    }

    /// A reader over fixed bytes that records the largest buffer a
    /// caller offers it.
    struct Probe<'a> {
        bytes: &'a [u8],
        largest_buf: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_bare_length_prefix_does_not_allocate_its_claim() {
        let mut r = Probe {
            bytes: b"16777216\nabc",
            largest_buf: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
        assert!(
            r.largest_buf < 1024,
            "offered a {}-byte buffer for 3 bytes of payload",
            r.largest_buf
        );
    }

    #[test]
    fn a_deeply_nested_frame_is_a_protocol_error() {
        let payload = "[".repeat(20_000);
        let frame = format!("{}\n{payload}\n", payload.len());
        assert!(matches!(
            read_frame(&mut frame.as_bytes()),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn buffered_reads_decode_back_to_back_and_still_reject_bad_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::Heartbeat).unwrap();
        write_frame(&mut buf, &Message::LeaseDone { lease: 9 }).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(Message::Heartbeat));
        assert!(
            frame_buffered(r.buffer()),
            "the second frame is already read in"
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some(Message::LeaseDone { lease: 9 })
        );
        assert!(!frame_buffered(r.buffer()));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // A torn second frame fails after the first decodes.
        let torn = &buf[..buf.len() - 3];
        let mut r = BufReader::new(torn);
        assert_eq!(read_frame(&mut r).unwrap(), Some(Message::Heartbeat));
        assert!(!frame_buffered(r.buffer()), "a torn frame is not whole");
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));

        // An oversized length fails at the prefix, behind a whole frame.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &Message::Heartbeat).unwrap();
        oversized.extend_from_slice(format!("{}\n", MAX_FRAME + 1).as_bytes());
        let mut r = BufReader::new(&oversized[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(Message::Heartbeat));
        assert!(
            frame_buffered(r.buffer()),
            "a bad prefix fails without blocking"
        );
        assert!(matches!(read_frame(&mut r), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn frame_buffered_needs_the_whole_payload_and_its_newline() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Message::LeaseDone { lease: 3 }).unwrap();
        for cut in 0..buf.len() {
            assert!(!frame_buffered(&buf[..cut]), "cut at {cut}");
        }
        assert!(frame_buffered(&buf));
        assert!(frame_buffered(b"1x\n"), "garbage fails fast in read_frame");
        assert!(frame_buffered(b"\n"));
    }
}
