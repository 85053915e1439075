//! The wire protocol: a versioned, length-prefixed JSON frame codec
//! over any `Read`/`Write` transport (in practice `TcpStream`).
//!
//! Framing is a 4-byte little-endian body length followed by the
//! body — one externally-tagged JSON [`Frame`]. The length cap
//! ([`MAX_FRAME_BYTES`]) is enforced *before* allocation, so a
//! malformed or hostile header cannot balloon the reader. JSON over
//! binary is deliberate: the vendored serde stack is the workspace's
//! only codec, frames are low-rate (one per lease, not per mutant), and
//! every frame is inspectable with a pipe and `jq`.
//!
//! The codec never retries and never buffers across calls: a clean EOF
//! *between* frames reads as `Disconnected { mid_frame: false }` (the
//! peer closed politely), while an EOF or timeout *inside* a frame is
//! `mid_frame: true` — truncation, after which the stream is dead.
//! Read-timeout polling (a socket with `set_read_timeout`) surfaces as
//! [`DistError::is_poll_timeout`] only when the timeout fires before
//! the first header byte; the caller's poll loop just reads again.

use crate::job::JobSpec;
use crate::DistError;
use iris_core::seed::VmSeed;
use iris_fuzzer::campaign::ChunkOutput;
use iris_fuzzer::guided::SlotOutcome;
use iris_hv::coverage::CoverageMap;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// The protocol generation this build speaks. Bumped on any frame or
/// law change; peers with different versions refuse each other with
/// [`DistError::VersionMismatch`] at the handshake.
///
/// v2: [`ErrorCode`] gained `Busy` (bounded submission queue) and
/// `Quarantined` (untrusted-worker validation).
///
/// v3: [`Frame::Epoch`] gained `lineage` — the promotion ancestry the
/// guided slot law positions mutation bases with (snapshot-forest seed
/// paths are rebuilt from it on the worker).
pub const PROTO_VERSION: u32 = 3;

/// Hard cap on a frame body. Large enough for a `JobDone` report or an
/// `Epoch` corpus broadcast with room to spare, small enough that a
/// corrupt length prefix cannot exhaust memory.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// What kind of work a [`Frame::Lease`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseKind {
    /// A chunk of a campaign test case's mutant range; the worker finds
    /// the test case at this index of its locally re-derived plan.
    CampaignChunk {
        /// Index into the deterministic `Table1::plan` order.
        testcase_index: usize,
    },
    /// A sub-range of the current guided generation's slot batch.
    GuidedSlotRange,
}

/// A contiguous index range `[start, start + len)` — mutant indices for
/// campaign chunks, global slot indices for guided ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRange {
    /// First index.
    pub start: u64,
    /// Number of indices.
    pub len: u64,
}

/// What a completed lease ships home — exactly what the in-process
/// executor's channel carries, nothing more.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RangeOutput {
    /// One campaign chunk's partial output (boxed: a `ChunkOutput`
    /// carries a full dense coverage map, dwarfing the guided arm).
    Campaign(Box<ChunkOutput>),
    /// One guided slot range's outcomes, in slot order.
    Guided(Vec<SlotOutcome>),
}

/// A typed error code carried by [`Frame::Error`], mirroring the
/// [`DistError`] variants a peer can be *told about* (transport faults
/// have no one left to tell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Handshake version disagreed.
    VersionMismatch,
    /// Submission fingerprint disagreed with the coordinator's resume
    /// checkpoint.
    FingerprintMismatch,
    /// The sender violated the protocol.
    Protocol,
    /// The coordinator is shutting down.
    Shutdown,
    /// The submitted spec is invalid (unknown workload/target, empty
    /// plan).
    BadSpec,
    /// The submission queue is full; the job was refused before any
    /// preparation work. The client surfaces this as
    /// [`DistError::Busy`].
    Busy {
        /// Submissions already queued when this one was refused.
        queued: u64,
    },
    /// The coordinator quarantined this worker: one of its results
    /// diverged from a verified re-execution, so it gets no further
    /// leases. Fatal for the worker (reconnecting cannot help — the
    /// divergence is deterministic).
    Quarantined,
}

/// One protocol message. Externally tagged JSON, length-prefixed on the
/// wire — see the module docs for the framing and DISTRIBUTED.md for
/// the full state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Worker → coordinator greeting: protocol version, the fingerprint
    /// of the job the worker already holds state for (empty when fresh
    /// — lets a worker survive a coordinator restart without
    /// rebuilding), and the worker's target backend name.
    Hello {
        /// The worker's [`PROTO_VERSION`].
        proto_version: u32,
        /// Fingerprint of the worker's cached job, or empty.
        job_fingerprint: String,
        /// The worker's `--target` backend name (`iris` | `faulty`);
        /// the coordinator only leases matching jobs to it.
        target: String,
    },
    /// Client → coordinator job submission.
    Submit {
        /// The client's [`PROTO_VERSION`].
        proto_version: u32,
        /// The job to run.
        spec: JobSpec,
    },
    /// Coordinator → worker: the job the following leases belong to.
    /// Sent once per connection per job, before the first lease of that
    /// job; the worker re-derives trace, plan, and initial corpus from
    /// the spec.
    Assign {
        /// Coordinator-assigned job id.
        job_id: u64,
        /// The job's configuration fingerprint.
        fingerprint: String,
        /// The job spec to re-derive local state from.
        spec: JobSpec,
    },
    /// Coordinator → worker: guided generation state. Sent before the
    /// first lease of each generation the connection sees; the worker's
    /// scheduling corpus for the epoch is its local
    /// `initial_corpus(trace)` extended by `promoted`.
    Epoch {
        /// The job this epoch belongs to.
        job_id: u64,
        /// Generation counter (monotone per job).
        epoch: u64,
        /// Mutants promoted so far, in promotion order.
        promoted: Vec<VmSeed>,
        /// Promotion lineage, parallel to `promoted`: `(base_index,
        /// extended)` per promotion, from which the worker rebuilds
        /// each corpus entry's seed path
        /// ([`iris_fuzzer::guided::corpus_paths`]) — the state every
        /// slot positions its target at before submitting.
        lineage: Vec<(usize, bool)>,
        /// The generation-start coverage map (boxed: the dense bitmap
        /// is 448 bytes and would dominate every `Frame`'s stack size).
        seen: Box<CoverageMap>,
    },
    /// Coordinator → worker: a unit of work.
    Lease {
        /// The job this lease belongs to.
        job_id: u64,
        /// Campaign chunk or guided slot range.
        kind: LeaseKind,
        /// The index range to execute.
        range: LeaseRange,
        /// The RNG seed of the range's law: the test case's `rng_seed`
        /// for campaign chunks, the run's scheduling seed for guided
        /// ranges.
        rng_seed: u64,
        /// The guided epoch this lease schedules against (0 for
        /// campaign leases).
        epoch: u64,
    },
    /// Worker → coordinator: a lease's result.
    ChunkDone {
        /// The job the lease belonged to.
        job_id: u64,
        /// Echo of the lease's `range.start` (the fold key).
        range_start: u64,
        /// The range's output.
        output: RangeOutput,
    },
    /// Worker → coordinator: still computing — renews the lease
    /// deadline.
    Heartbeat,
    /// Coordinator → client: live job progress.
    Progress {
        /// Work units executed and folded so far (mutants / slots).
        done: u64,
        /// Total work units in the job.
        total: u64,
        /// Fold boundaries completed (test cases / generations).
        folded: u64,
    },
    /// Coordinator → client (with the report) and coordinator → worker
    /// (report empty): the job completed.
    JobDone {
        /// The completed job.
        job_id: u64,
        /// The job's fingerprint.
        fingerprint: String,
        /// The pretty-printed report JSON — byte-identical to the
        /// in-process `--jobs 1` run's `--json` artifact. Empty in the
        /// worker-bound copy.
        report: String,
    },
    /// Either direction: the sender cannot proceed.
    Error {
        /// Typed reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// Serialize and send one frame (length prefix + JSON body + flush).
///
/// # Errors
/// [`DistError::FrameTooLarge`] when the encoded body exceeds
/// [`MAX_FRAME_BYTES`]; [`DistError::Io`] on transport failure.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), DistError> {
    let body = serde_json::to_vec(frame)
        .map_err(|e| DistError::Protocol(format!("encoding frame: {e}")))?;
    if body.len() as u64 > u64::from(MAX_FRAME_BYTES) {
        return Err(DistError::FrameTooLarge {
            len: body.len() as u64,
            max: MAX_FRAME_BYTES,
        });
    }
    let len = body.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Receive and decode one frame.
///
/// # Errors
/// [`DistError::Disconnected`] on EOF (mid-frame or between frames),
/// [`DistError::FrameTooLarge`] on an oversized length prefix,
/// [`DistError::Protocol`] on undecodable JSON, and a
/// poll-timeout [`DistError::Io`] when a socket read timeout fires
/// before the first header byte (see [`DistError::is_poll_timeout`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, DistError> {
    let mut header = [0u8; 4];
    read_exact_frame(r, &mut header, "frame header")?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(DistError::FrameTooLarge {
            len: u64::from(len),
            max: MAX_FRAME_BYTES,
        });
    }
    let mut body = vec![0u8; len as usize];
    read_exact_frame(r, &mut body, "frame body")?;
    serde_json::from_slice(&body).map_err(|e| DistError::Protocol(format!("decoding frame: {e}")))
}

/// `read_exact` that distinguishes the three ways a read can fall
/// short: clean EOF before any byte (peer closed between frames, or —
/// for the body — truncation right at the header/body seam), EOF after
/// some bytes (truncation), and a poll timeout before any byte (the
/// caller reads again). A timeout after partial data also counts as
/// truncation: frames are written atomically and flushed, so a stall
/// inside one means the peer died mid-write.
fn read_exact_frame<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    during: &'static str,
) -> Result<(), DistError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(DistError::Disconnected {
                    during,
                    mid_frame: filled > 0 || during == "frame body",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && during == "frame header" {
                    return Err(DistError::Io(e));
                }
                return Err(DistError::Disconnected {
                    during,
                    mid_frame: true,
                });
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from a socket, bounding the **total wall time spent
/// inside the frame** by `deadline` — the slowloris defense. A peer
/// dripping one byte per poll interval defeats plain read timeouts
/// (every read succeeds), so once the first header byte lands the clock
/// runs and a frame that has not completed by the deadline surfaces as
/// a mid-frame [`DistError::Disconnected`]; the connection is dead.
///
/// The deadline clock also covers the wait for the first byte: use this
/// on handshakes, where a silent connection should be dropped too. For
/// poll loops that must stay responsive between frames, use
/// [`read_frame_polled`].
///
/// # Errors
/// As [`read_frame`], plus the deadline expiry above. The socket's read
/// timeout is clobbered; set it again if the caller needs another
/// value.
pub fn read_frame_within(
    stream: &mut std::net::TcpStream,
    deadline: std::time::Duration,
) -> Result<Frame, DistError> {
    // Wall-clock here bounds hostile-peer stalls only (liveness); frame
    // *contents* — and therefore report bytes — never depend on it.
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    finish_frame_deadline(stream, started, deadline, [0u8; 4], 0)
}

/// Read one frame from a socket with two clocks: before the first
/// header byte, wait at most `poll` and surface a recoverable
/// poll-timeout ([`DistError::is_poll_timeout`]) so the caller's loop
/// can check shutdown/silence conditions; once a frame starts, the
/// whole frame must complete within `deadline` or the read fails
/// mid-frame (see [`read_frame_within`]).
///
/// # Errors
/// As [`read_frame`], plus the in-frame deadline expiry.
pub fn read_frame_polled(
    stream: &mut std::net::TcpStream,
    poll: std::time::Duration,
    deadline: std::time::Duration,
) -> Result<Frame, DistError> {
    stream.set_read_timeout(Some(poll.max(std::time::Duration::from_millis(1))))?;
    let mut header = [0u8; 4];
    let filled = loop {
        match stream.read(&mut header[..]) {
            Ok(0) => {
                return Err(DistError::Disconnected {
                    during: "frame header",
                    mid_frame: false,
                })
            }
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // No frame yet: the caller polls again.
                return Err(DistError::Io(e));
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    };
    // A frame began: the deadline clock starts at its first byte.
    // Wall-clock is liveness-only (see read_frame_within).
    #[allow(clippy::disallowed_methods)]
    let started = std::time::Instant::now();
    finish_frame_deadline(stream, started, deadline, header, filled)
}

/// Finish reading a frame whose first `filled` header bytes are already
/// in, failing once `started + deadline` passes.
fn finish_frame_deadline(
    stream: &mut std::net::TcpStream,
    started: std::time::Instant,
    deadline: std::time::Duration,
    mut header: [u8; 4],
    filled: usize,
) -> Result<Frame, DistError> {
    if filled < header.len() {
        let more = header.get_mut(filled..).unwrap_or(&mut []);
        read_exact_deadline(stream, more, started, deadline, "frame header", filled > 0)?;
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(DistError::FrameTooLarge {
            len: u64::from(len),
            max: MAX_FRAME_BYTES,
        });
    }
    let mut body = vec![0u8; len as usize];
    read_exact_deadline(stream, &mut body, started, deadline, "frame body", true)?;
    serde_json::from_slice(&body).map_err(|e| DistError::Protocol(format!("decoding frame: {e}")))
}

/// `read_exact` against a total deadline. Timeouts here are *not*
/// recoverable polls: the frame has (conceptually) started, so running
/// out of time is truncation — `mid_frame: true`.
fn read_exact_deadline(
    stream: &mut std::net::TcpStream,
    buf: &mut [u8],
    started: std::time::Instant,
    deadline: std::time::Duration,
    during: &'static str,
    any_bytes: bool,
) -> Result<(), DistError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let elapsed = started.elapsed();
        if elapsed >= deadline {
            return Err(DistError::Disconnected {
                during,
                mid_frame: true,
            });
        }
        let remaining = (deadline - elapsed).max(std::time::Duration::from_millis(1));
        stream.set_read_timeout(Some(remaining))?;
        match stream.read(buf.get_mut(filled..).unwrap_or(&mut [])) {
            Ok(0) => {
                return Err(DistError::Disconnected {
                    during,
                    mid_frame: any_bytes || filled > 0 || during == "frame body",
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Loop: the elapsed check at the top decides expiry.
            }
            Err(e) => return Err(DistError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use std::io::Cursor;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto_version: PROTO_VERSION,
                job_fingerprint: "campaign/iris/OS BOOT/exits=120/seed=42/mutants=20/plan=12"
                    .to_owned(),
                target: "iris".to_owned(),
            },
            Frame::Submit {
                proto_version: PROTO_VERSION,
                spec: JobSpec {
                    target: "iris".to_owned(),
                    workload: "OS BOOT".to_owned(),
                    exits: 120,
                    seed: 42,
                    kind: JobKind::Campaign {
                        mutants: 20,
                        chunk: 8,
                    },
                },
            },
            Frame::Lease {
                job_id: 3,
                kind: LeaseKind::CampaignChunk { testcase_index: 7 },
                range: LeaseRange { start: 16, len: 8 },
                rng_seed: 42,
                epoch: 0,
            },
            Frame::Lease {
                job_id: 4,
                kind: LeaseKind::GuidedSlotRange,
                range: LeaseRange {
                    start: 256,
                    len: 32,
                },
                rng_seed: 42,
                epoch: 2,
            },
            Frame::Heartbeat,
            Frame::Progress {
                done: 120,
                total: 240,
                folded: 6,
            },
            Frame::JobDone {
                job_id: 3,
                fingerprint: "guided/iris/OS BOOT/exits=120/seed=42/budget=300/gen=64/ram=16777216"
                    .to_owned(),
                report: "{}".to_owned(),
            },
            Frame::Error {
                code: ErrorCode::FingerprintMismatch,
                detail: "resume checkpoint belongs to a different run".to_owned(),
            },
        ]
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        for frame in sample_frames() {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let mut cursor = Cursor::new(wire);
            let back = read_frame(&mut cursor).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn back_to_back_frames_stream_cleanly() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for frame in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
        }
        // The stream ends at a frame boundary: a clean disconnect.
        match read_frame(&mut cursor) {
            Err(DistError::Disconnected {
                mid_frame: false, ..
            }) => {}
            other => panic!("expected clean EOF, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_mid_frame_disconnects() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Heartbeat).unwrap();
        // Cut at every interior byte offset: inside the header and
        // inside the body must both read as truncation, not clean EOF.
        for cut in 1..wire.len() {
            let mut cursor = Cursor::new(wire[..cut].to_vec());
            match read_frame(&mut cursor) {
                Err(DistError::Disconnected {
                    mid_frame: true, ..
                }) => {}
                other => panic!("cut at {cut}: expected mid-frame disconnect, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        wire.extend_from_slice(b"not actually that long");
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor) {
            Err(DistError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u64::from(MAX_FRAME_BYTES) + 1);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_bodies_are_protocol_errors() {
        let body = b"definitely not json";
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(body);
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(DistError::Protocol(_))
        ));
    }
}
