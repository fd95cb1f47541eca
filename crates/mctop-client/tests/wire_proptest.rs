//! Property tests for the wire protocol: round trips, canonical
//! encoding, and the promise that hostile bytes — truncations,
//! oversized length prefixes, bit flips — are rejected with typed
//! errors and never panic.

use std::io::{
    self,
    Cursor,
    Read, //
};

use mctop_client::wire::ErrorCode;
use mctop_client::wire::{
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    write_frames,
    FrameReader,
    Request,
    Response,
    WireError,
    MAX_FRAME_LEN, //
};
use proptest::prelude::*;

/// Deterministically derives a small string from a seed: a mix of
/// ASCII identifiers, empty strings, and multi-byte UTF-8 so string
/// length (bytes) and char count diverge.
fn string_from(seed: u64) -> String {
    match seed % 5 {
        0 => String::new(),
        1 => format!("machine-{}", seed % 97),
        2 => format!("q{}", seed % 13),
        3 => format!("héllo-{}", seed % 7), // multi-byte UTF-8
        _ => "x".repeat((seed % 40) as usize),
    }
}

/// Derives one of every request kind from three seeds.
fn request_from(sel: u8, a: u64, b: u64) -> Request {
    match sel % 8 {
        0 => Request::Hello {
            version: (a % u64::from(u16::MAX)) as u16,
        },
        1 => Request::ListTopologies,
        2 => Request::Query {
            desc: string_from(a),
            query: string_from(b),
            args: (0..(a % 5)).map(|i| string_from(b ^ i)).collect(),
        },
        3 => Request::Placement {
            desc: string_from(a),
            policy: string_from(b),
            workers: (a % 1000) as u32,
        },
        4 => Request::AllocPlan {
            desc: string_from(b),
            policy: string_from(a),
            workers: (b % 1000) as u32,
        },
        5 => Request::MetricsSnapshot,
        6 => Request::Reload,
        _ => Request::Shutdown,
    }
}

/// Derives one of every response kind from two seeds.
fn response_from(sel: u8, a: u64) -> Response {
    match sel % 3 {
        0 => Response::HelloOk {
            version: (a % u64::from(u16::MAX)) as u16,
        },
        1 => Response::Ok {
            body: (0..(a % 200)).map(|i| (a ^ i) as u8).collect(),
        },
        _ => Response::Err {
            code: match a % 5 {
                0 => ErrorCode::VersionMismatch,
                1 => ErrorCode::MalformedFrame,
                2 => ErrorCode::BadRequest,
                3 => ErrorCode::Internal,
                _ => ErrorCode::ShuttingDown,
            },
            message: string_from(a),
        },
    }
}

/// A pipelined burst of one request per selector, derived from the
/// seeds, and its framed bytes.
fn burst_from(sels: &[u8], a: u64, b: u64) -> (Vec<Request>, Vec<u8>) {
    let requests: Vec<Request> = sels
        .iter()
        .enumerate()
        .map(|(i, sel)| request_from(*sel, a ^ i as u64, b ^ i as u64))
        .collect();
    let mut burst = Vec::new();
    for req in &requests {
        write_frames(&mut burst, &mut Vec::new(), [encode_request(req)]).unwrap();
    }
    (requests, burst)
}

/// Hands out its bytes in pieces of 1..=`max` bytes, the sizes drawn
/// from `seed`: every way a socket may split a stream.
struct Pieces<'a> {
    bytes: &'a [u8],
    seed: u64,
    max: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.seed = self
            .seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let piece = 1 + (self.seed >> 33) as usize % self.max;
        let n = piece.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request survives encode → decode unchanged, and the
    /// framed form survives write_frames → FrameReader.
    #[test]
    fn request_round_trips(sel in any::<u8>(), a in any::<u64>(), b in any::<u64>()) {
        let req = request_from(sel, a, b);
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload).unwrap(), req.clone());

        let mut framed = Vec::new();
        write_frames(&mut framed, &mut Vec::new(), [payload.to_vec()]).unwrap();
        let mut reader = FrameReader::default();
        let read = reader.next(&mut Cursor::new(&framed)).unwrap().unwrap();
        prop_assert_eq!(decode_request(read).unwrap(), req);
    }

    /// Every response survives encode → decode unchanged.
    #[test]
    fn response_round_trips(sel in any::<u8>(), a in any::<u64>()) {
        let resp = response_from(sel, a);
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    /// A truncated payload is a typed error at *every* cut point —
    /// never a panic, never a silent partial decode.
    #[test]
    fn truncated_requests_rejected(sel in any::<u8>(), a in any::<u64>(), b in any::<u64>()) {
        let payload = encode_request(&request_from(sel, a, b));
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(WireError::Truncated) | Err(WireError::BadTag(_)) => {}
                Err(e) => prop_assert!(false, "cut {cut}: unexpected error class {e}"),
                Ok(req) => prop_assert!(false, "cut {cut}: decoded {req:?} from a prefix"),
            }
        }
    }

    /// Trailing garbage after a complete body is rejected: the
    /// encoding is canonical, a frame is exactly its bytes.
    #[test]
    fn trailing_bytes_rejected(
        sel in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        extra in 1usize..16,
    ) {
        let mut payload = encode_request(&request_from(sel, a, b));
        payload.extend(std::iter::repeat_n(0xAA, extra));
        // Hello ignores the added bytes only if a string-length field
        // absorbs them — which these fixed encodings never do.
        prop_assert!(
            matches!(decode_request(&payload), Err(WireError::TrailingBytes(_))),
            "trailing bytes accepted"
        );
    }

    /// Flipping any single bit of a valid payload either produces a
    /// typed error or another *canonically encoded* frame — decoding
    /// never panics, and an accepted mutation always re-encodes to
    /// exactly the mutated bytes.
    #[test]
    fn bit_flips_never_panic(
        sel in any::<u8>(),
        a in any::<u64>(),
        b in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let mut payload = encode_request(&request_from(sel, a, b));
        let bit = (flip as usize) % (payload.len() * 8);
        payload[bit / 8] ^= 1 << (bit % 8);
        match decode_request(&payload) {
            Err(_) => {}
            Ok(req) => prop_assert_eq!(
                encode_request(&req),
                payload,
                "accepted mutation is not canonical"
            ),
        }
    }

    /// A hostile length prefix is rejected before any allocation.
    #[test]
    fn oversized_frames_rejected(excess in 1u32..1000) {
        let len = MAX_FRAME_LEN + excess;
        let framed = len.to_le_bytes().to_vec();
        prop_assert!(matches!(
            FrameReader::default().next(&mut Cursor::new(&framed)),
            Err(WireError::Oversized(l)) if l == len
        ));
    }

    /// A stream cut mid-frame is `UnexpectedEof`; a stream cut at a
    /// frame boundary is a clean `Ok(None)`.
    #[test]
    fn eof_typing(sel in any::<u8>(), a in any::<u64>(), b in any::<u64>(), cut in any::<u64>()) {
        let payload = encode_request(&request_from(sel, a, b));
        let mut framed = Vec::new();
        write_frames(&mut framed, &mut Vec::new(), [payload.to_vec()]).unwrap();

        let cut = 1 + (cut as usize) % (framed.len() - 1);
        prop_assert!(matches!(
            FrameReader::default().next(&mut Cursor::new(&framed[..cut])),
            Err(WireError::UnexpectedEof)
        ));
        prop_assert!(matches!(
            FrameReader::default().next(&mut Cursor::new(&[] as &[u8])),
            Ok(None)
        ));
    }

    /// The reader splits a pipelined burst back into the original
    /// frames and keeps a partial tail buffered.
    #[test]
    fn drain_splits_bursts(
        sels in prop::collection::vec(any::<u8>(), 1..8),
        a in any::<u64>(),
        b in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let (requests, burst) = burst_from(&sels, a, b);

        // Whole burst: every frame comes back, then nothing is held.
        let mut reader = FrameReader::default();
        let mut input = burst.as_slice();
        let mut decoded = Vec::new();
        while let Some(f) = reader.next(&mut input).unwrap() {
            decoded.push(decode_request(f).unwrap());
        }
        prop_assert_eq!(decoded, requests.clone());
        prop_assert!(reader.buffered().unwrap().is_none());

        // Partial burst: the first read ends inside a frame; the
        // incomplete tail stays buffered verbatim and completes with
        // the second.
        let cut = (cut as usize) % burst.len();
        let mut input = burst[..cut].chain(&burst[cut..]);
        let mut reader = FrameReader::default();
        let mut decoded = Vec::new();
        while let Some(f) = reader.next(&mut input).unwrap() {
            decoded.push(decode_request(f).unwrap());
        }
        prop_assert_eq!(decoded, requests);
    }

    /// (a) Split invariance: however the stream is cut into pieces, the
    /// reader yields exactly the encoded payloads in order, then a
    /// clean EOF.
    #[test]
    fn split_invariance(
        sels in prop::collection::vec(any::<u8>(), 1..9),
        a in any::<u64>(),
        b in any::<u64>(),
        seed in any::<u64>(),
        max in 1usize..64,
    ) {
        let (requests, burst) = burst_from(&sels, a, b);
        let mut input = Pieces { bytes: &burst, seed, max };
        let mut reader = FrameReader::default();
        for req in &requests {
            let payload = reader.next(&mut input).unwrap();
            prop_assert_eq!(payload, Some(&encode_request(req)[..]));
        }
        prop_assert!(matches!(reader.next(&mut input), Ok(None)));
    }

    /// (b) Oversized tail: the valid frames ahead of a hostile length
    /// prefix all come out first, then `Oversized`, and the buffer never
    /// grew for the prefix.
    #[test]
    fn oversized_tail_after_good_frames(
        sels in prop::collection::vec(any::<u8>(), 0..9),
        a in any::<u64>(),
        b in any::<u64>(),
        excess in 1u32..1000,
        seed in any::<u64>(),
        max in 1usize..64,
    ) {
        let (requests, mut burst) = burst_from(&sels, a, b);
        let len = MAX_FRAME_LEN + excess;
        burst.extend_from_slice(&len.to_le_bytes());
        burst.extend_from_slice(&[0u8; 16]);
        let mut input = Pieces { bytes: &burst, seed, max };
        let mut reader = FrameReader::default();
        let capacity = reader.capacity();
        for req in &requests {
            let payload = reader.next(&mut input).unwrap();
            prop_assert_eq!(payload, Some(&encode_request(req)[..]));
        }
        prop_assert!(matches!(
            reader.next(&mut input),
            Err(WireError::Oversized(l)) if l == len
        ));
        prop_assert_eq!(reader.capacity(), capacity);
    }

    /// (c) Cut mid-frame: a stream that ends inside a frame yields the
    /// complete frames ahead of the cut, then `UnexpectedEof`.
    #[test]
    fn cut_mid_frame(
        sels in prop::collection::vec(any::<u8>(), 1..9),
        a in any::<u64>(),
        b in any::<u64>(),
        at in any::<u64>(),
        seed in any::<u64>(),
        max in 1usize..64,
    ) {
        let (requests, burst) = burst_from(&sels, a, b);
        let whole = (at as usize) % requests.len();
        let start: usize = requests[..whole]
            .iter()
            .map(|r| 4 + encode_request(r).len())
            .sum();
        let frame_len = 4 + encode_request(&requests[whole]).len();
        let cut = start + 1 + (at as usize >> 8) % (frame_len - 1);
        let mut input = Pieces { bytes: &burst[..cut], seed, max };
        let mut reader = FrameReader::default();
        for req in &requests[..whole] {
            let payload = reader.next(&mut input).unwrap();
            prop_assert_eq!(payload, Some(&encode_request(req)[..]));
        }
        prop_assert!(matches!(
            reader.next(&mut input),
            Err(WireError::UnexpectedEof)
        ));
    }
}
