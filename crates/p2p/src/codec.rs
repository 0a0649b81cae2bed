//! Hand-rolled binary wire codec.
//!
//! Frames are length-prefixed: `u32 (LE) payload length` followed by the
//! payload. Payload layout: `u8` tag, then fixed-width little-endian
//! fields. Tour orders are `u32` city indices. No external serialization
//! crate is needed — the protocol has three message types and the codec
//! is ~100 lines (see DESIGN.md §6).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::election::LogEntry;
use crate::message::Message;
use crate::NetError;

const TAG_TOUR: u8 = 1;
const TAG_OPTIMUM: u8 = 2;
const TAG_LEAVE: u8 = 3;
const TAG_PING: u8 = 4;
const TAG_PONG: u8 = 5;
const TAG_BEST_REQUEST: u8 = 6;
const TAG_BEST_REPLY: u8 = 7;
const TAG_HUB_CLAIM: u8 = 8;
const TAG_LOG_SNAPSHOT: u8 = 9;
const TAG_TELEMETRY: u8 = 10;
const TAG_SHARD_RESULT: u8 = 11;
const TAG_JOB_SUBMIT: u8 = 12;
const TAG_JOB_ACCEPT: u8 = 13;
const TAG_JOB_IMPROVED: u8 = 14;
const TAG_JOB_DONE: u8 = 15;
const TAG_JOB_CANCEL: u8 = 16;

/// Highest job-termination reason code on the wire (see
/// [`Message::JobDone`]: 0 budget, 1 target, 2 deadline, 3 cancelled).
const MAX_JOB_REASON: u8 = 3;

/// Job payload kinds accepted on the wire (1 = TSPLIB, 2 = JSON).
const MAX_PAYLOAD_KIND: u8 = 2;

/// Longest accepted metric name inside a Telemetry frame (real names
/// are short dotted paths like `node.clk_calls`).
const MAX_METRIC_NAME: usize = 256;

// Membership-log entry kinds (first byte of each 17-byte entry inside
// a LogSnapshot payload).
const KIND_JOIN: u8 = 1;
const KIND_DOWN: u8 = 2;
const KIND_REJOIN: u8 = 3;
const KIND_REPAIR: u8 = 4;

/// Bytes per encoded [`LogEntry`]: kind byte + two `u64` LE fields.
const LOG_ENTRY_SIZE: usize = 17;

fn put_log_entry(buf: &mut BytesMut, e: &LogEntry) {
    let (kind, a, b) = match *e {
        LogEntry::Join { node, epoch } => (KIND_JOIN, node as u64, epoch),
        LogEntry::Down { node, inc } => (KIND_DOWN, node as u64, inc),
        LogEntry::Rejoin { node, inc } => (KIND_REJOIN, node as u64, inc),
        LogEntry::Repair { a, b } => (KIND_REPAIR, a as u64, b as u64),
    };
    buf.put_u8(kind);
    buf.put_u64_le(a);
    buf.put_u64_le(b);
}

fn get_log_entry(payload: &mut &[u8]) -> Result<LogEntry, NetError> {
    let kind = payload.get_u8();
    let a = payload.get_u64_le();
    let b = payload.get_u64_le();
    match kind {
        KIND_JOIN => Ok(LogEntry::Join {
            node: a as usize,
            epoch: b,
        }),
        KIND_DOWN => Ok(LogEntry::Down {
            node: a as usize,
            inc: b,
        }),
        KIND_REJOIN => Ok(LogEntry::Rejoin {
            node: a as usize,
            inc: b,
        }),
        KIND_REPAIR => Ok(LogEntry::Repair {
            a: a as usize,
            b: b as usize,
        }),
        k => Err(NetError::Codec(format!("unknown log-entry kind {k}"))),
    }
}

/// Maximum accepted payload (guards against corrupt length prefixes):
/// a tour of 10 million cities is ~40 MB.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Encode a message into a length-prefixed frame.
pub fn encode(msg: &Message) -> Bytes {
    let body_len = msg.wire_size();
    let mut buf = BytesMut::with_capacity(4 + body_len);
    buf.put_u32_le(body_len as u32);
    match msg {
        Message::TourFound {
            from,
            id,
            length,
            order,
        } => {
            buf.put_u8(TAG_TOUR);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*id);
            buf.put_i64_le(*length);
            buf.put_u32_le(order.len() as u32);
            for &c in order {
                buf.put_u32_le(c);
            }
        }
        Message::OptimumFound { from, length } => {
            buf.put_u8(TAG_OPTIMUM);
            buf.put_u64_le(*from as u64);
            buf.put_i64_le(*length);
        }
        Message::Leave { from } => {
            buf.put_u8(TAG_LEAVE);
            buf.put_u64_le(*from as u64);
        }
        Message::Ping { from } => {
            buf.put_u8(TAG_PING);
            buf.put_u64_le(*from as u64);
        }
        Message::Pong { from, t_ns } => {
            buf.put_u8(TAG_PONG);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*t_ns);
        }
        Message::BestRequest { from } => {
            buf.put_u8(TAG_BEST_REQUEST);
            buf.put_u64_le(*from as u64);
        }
        Message::BestReply {
            from,
            id,
            length,
            order,
        } => {
            buf.put_u8(TAG_BEST_REPLY);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*id);
            buf.put_i64_le(*length);
            buf.put_u32_le(order.len() as u32);
            for &c in order {
                buf.put_u32_le(c);
            }
        }
        Message::HubClaim { from, epoch } => {
            buf.put_u8(TAG_HUB_CLAIM);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*epoch);
        }
        Message::LogSnapshot { from, entries } => {
            buf.put_u8(TAG_LOG_SNAPSHOT);
            buf.put_u64_le(*from as u64);
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                put_log_entry(&mut buf, e);
            }
        }
        Message::Telemetry {
            from,
            t_ns,
            rtt_ns,
            best_len,
            clk_calls,
            stalled,
            counters,
            gauges,
            events_jsonl,
        } => {
            buf.put_u8(TAG_TELEMETRY);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*t_ns);
            buf.put_u64_le(*rtt_ns);
            buf.put_i64_le(*best_len);
            buf.put_u64_le(*clk_calls);
            buf.put_u8(*stalled as u8);
            buf.put_u32_le(counters.len() as u32);
            for (name, v) in counters {
                buf.put_u16_le(name.len() as u16);
                buf.put_slice(name.as_bytes());
                buf.put_u64_le(*v);
            }
            buf.put_u32_le(gauges.len() as u32);
            for (name, v) in gauges {
                buf.put_u16_le(name.len() as u16);
                buf.put_slice(name.as_bytes());
                buf.put_i64_le(*v);
            }
            buf.put_u32_le(events_jsonl.len() as u32);
            buf.put_slice(events_jsonl);
        }
        Message::ShardResult {
            from,
            shard,
            length,
            order,
        } => {
            buf.put_u8(TAG_SHARD_RESULT);
            buf.put_u64_le(*from as u64);
            buf.put_u32_le(*shard);
            buf.put_i64_le(*length);
            buf.put_u32_le(order.len() as u32);
            for &c in order {
                buf.put_u32_le(c);
            }
        }
        Message::JobSubmit {
            from,
            job,
            client,
            seed,
            kicks,
            deadline_ms,
            target,
            payload_kind,
            payload,
        } => {
            buf.put_u8(TAG_JOB_SUBMIT);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*job);
            buf.put_u64_le(*client);
            buf.put_u64_le(*seed);
            buf.put_u64_le(*kicks);
            buf.put_u64_le(*deadline_ms);
            buf.put_i64_le(*target);
            buf.put_u8(*payload_kind);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(payload);
        }
        Message::JobAccept { from, job, worker } => {
            buf.put_u8(TAG_JOB_ACCEPT);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*job);
            buf.put_u64_le(*worker);
        }
        Message::JobImproved {
            from,
            job,
            length,
            order,
        } => {
            buf.put_u8(TAG_JOB_IMPROVED);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*job);
            buf.put_i64_le(*length);
            buf.put_u32_le(order.len() as u32);
            for &c in order {
                buf.put_u32_le(c);
            }
        }
        Message::JobDone {
            from,
            job,
            reason,
            length,
            order,
        } => {
            buf.put_u8(TAG_JOB_DONE);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*job);
            buf.put_u8(*reason);
            buf.put_i64_le(*length);
            buf.put_u32_le(order.len() as u32);
            for &c in order {
                buf.put_u32_le(c);
            }
        }
        Message::JobCancel { from, job, reason } => {
            buf.put_u8(TAG_JOB_CANCEL);
            buf.put_u64_le(*from as u64);
            buf.put_u64_le(*job);
            buf.put_u8(*reason);
        }
    }
    debug_assert_eq!(buf.len(), 4 + body_len);
    buf.freeze()
}

/// Decode one payload (without the length prefix).
pub fn decode(mut payload: &[u8]) -> Result<Message, NetError> {
    let err = |m: &str| NetError::Codec(m.to_string());
    if payload.is_empty() {
        return Err(err("empty payload"));
    }
    let tag = payload.get_u8();
    match tag {
        TAG_TOUR => {
            if payload.remaining() < 8 + 8 + 8 + 4 {
                return Err(err("truncated TourFound header"));
            }
            let from = payload.get_u64_le() as usize;
            let id = payload.get_u64_le();
            let length = payload.get_i64_le();
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != 4 * n {
                return Err(err("TourFound order length mismatch"));
            }
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(payload.get_u32_le());
            }
            Ok(Message::TourFound {
                from,
                id,
                length,
                order,
            })
        }
        TAG_OPTIMUM => {
            if payload.remaining() != 16 {
                return Err(err("bad OptimumFound size"));
            }
            let from = payload.get_u64_le() as usize;
            let length = payload.get_i64_le();
            Ok(Message::OptimumFound { from, length })
        }
        TAG_LEAVE => {
            if payload.remaining() != 8 {
                return Err(err("bad Leave size"));
            }
            Ok(Message::Leave {
                from: payload.get_u64_le() as usize,
            })
        }
        TAG_PING => {
            if payload.remaining() != 8 {
                return Err(err("bad Ping size"));
            }
            Ok(Message::Ping {
                from: payload.get_u64_le() as usize,
            })
        }
        TAG_PONG => {
            if payload.remaining() != 16 {
                return Err(err("bad Pong size"));
            }
            Ok(Message::Pong {
                from: payload.get_u64_le() as usize,
                t_ns: payload.get_u64_le(),
            })
        }
        TAG_BEST_REQUEST => {
            if payload.remaining() != 8 {
                return Err(err("bad BestRequest size"));
            }
            Ok(Message::BestRequest {
                from: payload.get_u64_le() as usize,
            })
        }
        TAG_BEST_REPLY => {
            if payload.remaining() < 8 + 8 + 8 + 4 {
                return Err(err("truncated BestReply header"));
            }
            let from = payload.get_u64_le() as usize;
            let id = payload.get_u64_le();
            let length = payload.get_i64_le();
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != 4 * n {
                return Err(err("BestReply order length mismatch"));
            }
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(payload.get_u32_le());
            }
            Ok(Message::BestReply {
                from,
                id,
                length,
                order,
            })
        }
        TAG_HUB_CLAIM => {
            if payload.remaining() != 16 {
                return Err(err("bad HubClaim size"));
            }
            let from = payload.get_u64_le() as usize;
            let epoch = payload.get_u64_le();
            Ok(Message::HubClaim { from, epoch })
        }
        TAG_LOG_SNAPSHOT => {
            if payload.remaining() < 8 + 4 {
                return Err(err("truncated LogSnapshot header"));
            }
            let from = payload.get_u64_le() as usize;
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != LOG_ENTRY_SIZE * n {
                return Err(err("LogSnapshot entry count mismatch"));
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_log_entry(&mut payload)?);
            }
            Ok(Message::LogSnapshot { from, entries })
        }
        TAG_TELEMETRY => {
            if payload.remaining() < 8 + 8 + 8 + 8 + 8 + 1 + 4 {
                return Err(err("truncated Telemetry header"));
            }
            let from = payload.get_u64_le() as usize;
            let t_ns = payload.get_u64_le();
            let rtt_ns = payload.get_u64_le();
            let best_len = payload.get_i64_le();
            let clk_calls = payload.get_u64_le();
            let stalled = match payload.get_u8() {
                0 => false,
                1 => true,
                b => return Err(err(&format!("bad Telemetry stall flag {b}"))),
            };
            let counters = get_metric_section(&mut payload, |p| {
                if p.remaining() < 8 {
                    return Err(NetError::Codec("truncated counter value".into()));
                }
                Ok(p.get_u64_le())
            })?;
            if payload.remaining() < 4 {
                return Err(err("truncated Telemetry gauge section"));
            }
            let gauges = get_metric_section(&mut payload, |p| {
                if p.remaining() < 8 {
                    return Err(NetError::Codec("truncated gauge value".into()));
                }
                Ok(p.get_i64_le())
            })?;
            if payload.remaining() < 4 {
                return Err(err("truncated Telemetry event section"));
            }
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != n {
                return Err(err("Telemetry event bytes mismatch"));
            }
            let events_jsonl = payload.to_vec();
            Ok(Message::Telemetry {
                from,
                t_ns,
                rtt_ns,
                best_len,
                clk_calls,
                stalled,
                counters,
                gauges,
                events_jsonl,
            })
        }
        TAG_SHARD_RESULT => {
            if payload.remaining() < 8 + 4 + 8 + 4 {
                return Err(err("truncated ShardResult header"));
            }
            let from = payload.get_u64_le() as usize;
            let shard = payload.get_u32_le();
            let length = payload.get_i64_le();
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != 4 * n {
                return Err(err("ShardResult order length mismatch"));
            }
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(payload.get_u32_le());
            }
            Ok(Message::ShardResult {
                from,
                shard,
                length,
                order,
            })
        }
        TAG_JOB_SUBMIT => {
            if payload.remaining() < 7 * 8 + 1 + 4 {
                return Err(err("truncated JobSubmit header"));
            }
            let from = payload.get_u64_le() as usize;
            let job = payload.get_u64_le();
            let client = payload.get_u64_le();
            let seed = payload.get_u64_le();
            let kicks = payload.get_u64_le();
            let deadline_ms = payload.get_u64_le();
            let target = payload.get_i64_le();
            let payload_kind = payload.get_u8();
            if payload_kind == 0 || payload_kind > MAX_PAYLOAD_KIND {
                return Err(err(&format!("bad JobSubmit payload kind {payload_kind}")));
            }
            let n = payload.get_u32_le() as usize;
            // A lying count must not read past the frame or allocate
            // unbounded memory.
            if payload.remaining() != n {
                return Err(err("JobSubmit payload length mismatch"));
            }
            Ok(Message::JobSubmit {
                from,
                job,
                client,
                seed,
                kicks,
                deadline_ms,
                target,
                payload_kind,
                payload: payload.to_vec(),
            })
        }
        TAG_JOB_ACCEPT => {
            if payload.remaining() != 24 {
                return Err(err("bad JobAccept size"));
            }
            Ok(Message::JobAccept {
                from: payload.get_u64_le() as usize,
                job: payload.get_u64_le(),
                worker: payload.get_u64_le(),
            })
        }
        TAG_JOB_IMPROVED => {
            if payload.remaining() < 8 + 8 + 8 + 4 {
                return Err(err("truncated JobImproved header"));
            }
            let from = payload.get_u64_le() as usize;
            let job = payload.get_u64_le();
            let length = payload.get_i64_le();
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != 4 * n {
                return Err(err("JobImproved order length mismatch"));
            }
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(payload.get_u32_le());
            }
            Ok(Message::JobImproved {
                from,
                job,
                length,
                order,
            })
        }
        TAG_JOB_DONE => {
            if payload.remaining() < 8 + 8 + 1 + 8 + 4 {
                return Err(err("truncated JobDone header"));
            }
            let from = payload.get_u64_le() as usize;
            let job = payload.get_u64_le();
            let reason = payload.get_u8();
            if reason > MAX_JOB_REASON {
                return Err(err(&format!("bad JobDone reason {reason}")));
            }
            let length = payload.get_i64_le();
            let n = payload.get_u32_le() as usize;
            if payload.remaining() != 4 * n {
                return Err(err("JobDone order length mismatch"));
            }
            let mut order = Vec::with_capacity(n);
            for _ in 0..n {
                order.push(payload.get_u32_le());
            }
            Ok(Message::JobDone {
                from,
                job,
                reason,
                length,
                order,
            })
        }
        TAG_JOB_CANCEL => {
            if payload.remaining() != 17 {
                return Err(err("bad JobCancel size"));
            }
            let from = payload.get_u64_le() as usize;
            let job = payload.get_u64_le();
            let reason = payload.get_u8();
            if reason > MAX_JOB_REASON {
                return Err(err(&format!("bad JobCancel reason {reason}")));
            }
            Ok(Message::JobCancel { from, job, reason })
        }
        t => Err(err(&format!("unknown tag {t}"))),
    }
}

/// Parse one `(name, value)` section of a Telemetry payload: a `u32`
/// entry count, then per entry a `u16`-length-prefixed UTF-8 name and
/// a fixed-width value read by `get_value`. Rejects oversized names,
/// non-UTF-8 names, and counts that overrun the payload — a corrupt
/// frame must never allocate unbounded memory or panic.
fn get_metric_section<T>(
    payload: &mut &[u8],
    mut get_value: impl FnMut(&mut &[u8]) -> Result<T, NetError>,
) -> Result<Vec<(String, T)>, NetError> {
    let n = payload.get_u32_le() as usize;
    // Each entry is at least 2 (name length) + 8 (value) bytes.
    if n > payload.remaining() / 10 {
        return Err(NetError::Codec("metric section count overruns frame".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if payload.remaining() < 2 {
            return Err(NetError::Codec("truncated metric name length".into()));
        }
        let name_len = payload.get_u16_le() as usize;
        if name_len > MAX_METRIC_NAME {
            return Err(NetError::Codec(format!("metric name too long ({name_len})")));
        }
        if payload.remaining() < name_len {
            return Err(NetError::Codec("truncated metric name".into()));
        }
        let name = std::str::from_utf8(&payload[..name_len])
            .map_err(|_| NetError::Codec("metric name not UTF-8".into()))?
            .to_string();
        payload.advance(name_len);
        out.push((name, get_value(payload)?));
    }
    Ok(out)
}

/// Read one frame from a blocking reader (e.g. a `TcpStream`).
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> Result<Message, NetError> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(NetError::Codec(format!("bad frame length {len}")));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    decode(&payload)
}

/// Write one frame to a blocking writer.
pub fn write_frame<W: std::io::Write>(writer: &mut W, msg: &Message) -> Result<(), NetError> {
    let frame = encode(msg);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode(&msg);
        let (len_prefix, payload) = frame.split_at(4);
        let len = u32::from_le_bytes(len_prefix.try_into().unwrap()) as usize;
        assert_eq!(len, payload.len());
        assert_eq!(len, msg.wire_size());
        let back = decode(payload).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::TourFound {
            from: 5,
            id: u64::MAX,
            length: -123456789,
            order: (0..777).collect(),
        });
        roundtrip(Message::OptimumFound {
            from: 0,
            length: i64::MAX,
        });
        roundtrip(Message::Leave { from: usize::MAX >> 1 });
        roundtrip(Message::Ping { from: 3 });
        roundtrip(Message::Pong {
            from: 4,
            t_ns: u64::MAX - 1,
        });
        roundtrip(Message::BestRequest { from: 5 });
        roundtrip(Message::BestReply {
            from: 6,
            id: crate::message::broadcast_id(6, 1),
            length: 4242,
            order: (0..33).rev().collect(),
        });
    }

    #[test]
    fn roundtrip_election_variants() {
        roundtrip(Message::HubClaim {
            from: 3,
            epoch: u64::MAX,
        });
        roundtrip(Message::LogSnapshot {
            from: 7,
            entries: vec![],
        });
        roundtrip(Message::LogSnapshot {
            from: 1,
            entries: vec![
                LogEntry::Join { node: 0, epoch: 0 },
                LogEntry::Down { node: 3, inc: 2 },
                LogEntry::Rejoin { node: 3, inc: 2 },
                LogEntry::Repair { a: 1, b: 7 },
            ],
        });
    }

    #[test]
    fn rejects_bad_log_entries() {
        // Unknown entry kind byte.
        let mut bad = vec![TAG_LOG_SNAPSHOT];
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(99); // not a valid kind
        bad.extend_from_slice(&0u64.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        assert!(decode(&bad).is_err());
        // Entry count larger than the bytes present.
        let mut short = vec![TAG_LOG_SNAPSHOT];
        short.extend_from_slice(&1u64.to_le_bytes());
        short.extend_from_slice(&3u32.to_le_bytes());
        short.extend_from_slice(&[0u8; LOG_ENTRY_SIZE]); // only one entry
        assert!(decode(&short).is_err());
        // HubClaim with a truncated epoch.
        let mut claim = vec![TAG_HUB_CLAIM];
        claim.extend_from_slice(&1u64.to_le_bytes());
        claim.extend_from_slice(&[0u8; 4]);
        assert!(decode(&claim).is_err());
    }

    fn sample_telemetry() -> Message {
        Message::Telemetry {
            from: 3,
            t_ns: 1_000_000_007,
            rtt_ns: 42_000,
            best_len: -27686,
            clk_calls: 512,
            stalled: true,
            counters: vec![
                ("clk.calls".to_string(), 512),
                ("node.broadcasts".to_string(), 9),
            ],
            gauges: vec![("node.best_len".to_string(), -27686)],
            events_jsonl: b"{\"t_ns\":1,\"node\":3,\"seq\":0,\"kind\":\"clk.stall\"}\n".to_vec(),
        }
    }

    #[test]
    fn roundtrip_telemetry() {
        roundtrip(sample_telemetry());
        // Empty sections are a legal (idle-node) shipment.
        roundtrip(Message::Telemetry {
            from: 0,
            t_ns: 0,
            rtt_ns: 0,
            best_len: i64::MAX,
            clk_calls: 0,
            stalled: false,
            counters: vec![],
            gauges: vec![],
            events_jsonl: vec![],
        });
    }

    #[test]
    fn rejects_corrupt_telemetry() {
        let frame = encode(&sample_telemetry());
        let payload = &frame[4..];
        // Pristine payload decodes; every truncation prefix is rejected
        // (never panics, never mis-decodes).
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} bytes accepted"
            );
        }
        // Counter count overrunning the frame.
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 * 5 + 1;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
        // Oversized metric name length.
        let mut bad = payload.to_vec();
        bad[count_at + 4..count_at + 6].copy_from_slice(&(MAX_METRIC_NAME as u16 + 1).to_le_bytes());
        assert!(decode(&bad).is_err());
        // Non-UTF-8 metric name bytes.
        let mut bad = payload.to_vec();
        bad[count_at + 6] = 0xFF;
        assert!(decode(&bad).is_err());
        // Stall flag outside {0, 1}.
        let mut bad = payload.to_vec();
        bad[count_at - 1] = 7;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn roundtrip_shard_result() {
        roundtrip(Message::ShardResult {
            from: 3,
            shard: 17,
            length: 123_456_789,
            order: (1000..1777).collect(),
        });
        roundtrip(Message::ShardResult {
            from: 0,
            shard: 0,
            length: i64::MIN,
            order: vec![],
        });
    }

    #[test]
    fn rejects_corrupt_shard_result() {
        let frame = encode(&Message::ShardResult {
            from: 2,
            shard: 5,
            length: 999,
            order: (0..48).collect(),
        });
        let payload = &frame[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} bytes accepted"
            );
        }
        // City count claiming more entries than bytes present.
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 4 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    fn sample_job_submit() -> Message {
        Message::JobSubmit {
            from: 0,
            job: crate::message::job_id(7, 1),
            client: 7,
            seed: 99,
            kicks: 250,
            deadline_ms: 10_000,
            target: -5,
            payload_kind: 1,
            payload: b"NAME: t\nTYPE: TSP\n".to_vec(),
        }
    }

    #[test]
    fn roundtrip_job_frames() {
        roundtrip(sample_job_submit());
        // Unbounded kicks, no deadline, no target.
        roundtrip(Message::JobSubmit {
            from: 3,
            job: 0,
            client: u64::MAX >> 32,
            seed: 0,
            kicks: 0,
            deadline_ms: 0,
            target: i64::MIN,
            payload_kind: 2,
            payload: b"[[0,0],[1,1]]".to_vec(),
        });
        roundtrip(Message::JobAccept {
            from: 2,
            job: crate::message::job_id(7, 1),
            worker: 2,
        });
        roundtrip(Message::JobImproved {
            from: 1,
            job: 42,
            length: -1,
            order: (0..321).rev().collect(),
        });
        roundtrip(Message::JobImproved {
            from: 1,
            job: 42,
            length: i64::MAX,
            order: vec![],
        });
        for reason in 0..=3u8 {
            roundtrip(Message::JobDone {
                from: 5,
                job: u64::MAX,
                reason,
                length: 777,
                order: (0..48).collect(),
            });
            roundtrip(Message::JobCancel {
                from: 5,
                job: 1,
                reason,
            });
        }
    }

    #[test]
    fn rejects_corrupt_job_submit() {
        let frame = encode(&sample_job_submit());
        let payload = &frame[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} bytes accepted"
            );
        }
        // Payload kind outside {1, 2}.
        let kind_at = 1 + 7 * 8;
        for bad_kind in [0u8, 3, 255] {
            let mut bad = payload.to_vec();
            bad[kind_at] = bad_kind;
            assert!(decode(&bad).is_err(), "payload kind {bad_kind} accepted");
        }
        // Payload length overrunning the frame.
        let mut bad = payload.to_vec();
        bad[kind_at + 1..kind_at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn rejects_corrupt_job_stream_frames() {
        let improved = encode(&Message::JobImproved {
            from: 1,
            job: 9,
            length: 55,
            order: (0..32).collect(),
        });
        let payload = &improved[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "JobImproved truncation at {cut} accepted"
            );
        }
        // City count claiming more entries than bytes present.
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 8 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());

        let done = encode(&Message::JobDone {
            from: 1,
            job: 9,
            reason: 2,
            length: 55,
            order: (0..32).collect(),
        });
        let payload = &done[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "JobDone truncation at {cut} accepted"
            );
        }
        // Reason byte outside the defined scale.
        let mut bad = payload.to_vec();
        bad[1 + 8 + 8] = MAX_JOB_REASON + 1;
        assert!(decode(&bad).is_err());
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 8 + 1 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());

        // Control frames: exact-size checks and reason validation.
        let accept = encode(&Message::JobAccept {
            from: 1,
            job: 9,
            worker: 1,
        });
        let payload = &accept[4..];
        for cut in 1..payload.len() {
            assert!(decode(&payload[..cut]).is_err());
        }
        let cancel = encode(&Message::JobCancel {
            from: 1,
            job: 9,
            reason: 3,
        });
        let payload = &cancel[4..];
        for cut in 1..payload.len() {
            assert!(decode(&payload[..cut]).is_err());
        }
        let mut bad = payload.to_vec();
        bad[1 + 8 + 8] = MAX_JOB_REASON + 1;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn roundtrip_empty_order() {
        roundtrip(Message::TourFound {
            from: 1,
            id: 0,
            length: 0,
            order: vec![],
        });
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99, 0, 0]).is_err());
        assert!(decode(&[TAG_OPTIMUM, 1, 2]).is_err());
        // Tour claiming more cities than bytes present.
        let mut bad = vec![TAG_TOUR];
        bad.extend_from_slice(&5u64.to_le_bytes());
        bad.extend_from_slice(&11u64.to_le_bytes());
        bad.extend_from_slice(&7i64.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[1, 2, 3]); // not 400 bytes
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn stream_roundtrip() {
        let msgs = vec![
            Message::Leave { from: 2 },
            Message::TourFound {
                from: 1,
                id: crate::message::broadcast_id(1, 42),
                length: 99,
                order: vec![3, 1, 2, 0],
            },
            Message::OptimumFound { from: 0, length: 7 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(&got, m);
        }
    }

    #[test]
    fn bad_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
