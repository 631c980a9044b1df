//! Property tests for the incremental frame parser: however a byte
//! stream is fragmented or pipelined, [`FrameAssembler`] must yield
//! exactly the frames a one-shot reading of the same stream contains,
//! in order, each decoding identically to the one-shot decoder.

use gridauthz_clock::SimDuration;
use gridauthz_gram::wire::{FrameAssembler, WireRequestRef, MAX_FRAME_BYTES};
use gridauthz_gram::GramSignal;

use proptest::prelude::*;

/// One arbitrary well-formed request, encoded (values kept
/// line-break-free, as the encoder enforces).
fn arb_request() -> impl Strategy<Value = String> {
    let text = "[a-zA-Z0-9 =()&/_.-]{1,40}";
    let encode = |request: WireRequestRef<'_>| request.encode().expect("line-break-free values");
    prop_oneof![
        (text, proptest::option::of("[a-z]{1,12}"), 0u64..1_000_000).prop_map(
            move |(rsl, account, micros)| encode(WireRequestRef::Submit {
                rsl: &rsl,
                account: account.as_deref(),
                work: SimDuration::from_micros(micros),
            })
        ),
        text.prop_map(move |contact| encode(WireRequestRef::Cancel { contact: &contact })),
        text.prop_map(move |contact| encode(WireRequestRef::Status { contact: &contact })),
        (
            text,
            prop_oneof![
                Just(GramSignal::Suspend),
                Just(GramSignal::Resume),
                (0i64..10).prop_map(GramSignal::Priority),
            ]
        )
            .prop_map(move |(contact, signal)| encode(WireRequestRef::Signal {
                contact: &contact,
                signal
            })),
    ]
}

/// Joins encoded `requests` into a pipelined stream: each frame is the
/// encoded message (which ends in `\n`) plus the one extra `\n`
/// delimiter.
fn stream_of(requests: &[String]) -> Vec<u8> {
    let mut stream = String::new();
    for request in requests {
        stream.push_str(request);
        stream.push('\n');
    }
    stream.into_bytes()
}

/// Decodes one reassembled frame and returns its text.
fn checked_frame(frame: &str) -> String {
    WireRequestRef::decode(frame).expect("round trip");
    frame.to_string()
}

/// Feeds `stream` to an assembler in the given chunk sizes and returns
/// every decoded frame.
fn reassemble(stream: &[u8], chunks: impl Iterator<Item = usize>) -> Vec<String> {
    let mut assembler = FrameAssembler::new(MAX_FRAME_BYTES);
    let mut decoded = Vec::new();
    let mut offset = 0;
    for chunk in chunks {
        let end = (offset + chunk.max(1)).min(stream.len());
        assembler.push(&stream[offset..end]);
        offset = end;
        while let Some(request) =
            assembler.next_frame(checked_frame).expect("stream of valid frames")
        {
            decoded.push(request);
        }
        if offset == stream.len() {
            break;
        }
    }
    assert_eq!(offset, stream.len(), "chunk plan must cover the stream");
    assert_eq!(assembler.residue(), 0, "no partial frame may remain");
    decoded
}

proptest! {
    /// Arbitrary split points: the stream cut into random-sized chunks
    /// reassembles to exactly the original request sequence.
    #[test]
    fn incremental_parse_matches_one_shot_across_split_points(
        requests in proptest::collection::vec(arb_request(), 1..6),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..200),
    ) {
        let stream = stream_of(&requests);
        // Pad the chunk plan so it always covers the stream.
        let chunks = chunk_sizes.into_iter().chain(std::iter::repeat(stream.len()));
        prop_assert_eq!(reassemble(&stream, chunks), requests);
    }

    /// Pipelined frames delivered in one read equal the same frames
    /// delivered byte by byte, and both equal one-shot decoding.
    #[test]
    fn pipelined_burst_matches_byte_by_byte(
        requests in proptest::collection::vec(arb_request(), 1..6),
    ) {
        let stream = stream_of(&requests);
        let burst = reassemble(&stream, std::iter::once(stream.len()));
        let trickle = reassemble(&stream, std::iter::repeat_n(1, stream.len()));
        prop_assert_eq!(&burst, &requests);
        prop_assert_eq!(&trickle, &requests);

        // One-shot: each frame's text decodes to the same request.
        for (frame, request) in burst.iter().zip(&requests) {
            prop_assert_eq!(
                WireRequestRef::decode(frame).unwrap(),
                WireRequestRef::decode(request).unwrap()
            );
        }
    }

    /// The assembler is byte-transparent: extra blank lines between
    /// frames (client keep-alives) change nothing.
    #[test]
    fn extra_delimiters_between_frames_are_ignored(
        requests in proptest::collection::vec(arb_request(), 1..5),
        extra in proptest::collection::vec(0usize..4, 1..5),
    ) {
        let mut stream = String::new();
        for (i, request) in requests.iter().enumerate() {
            stream.push_str(request);
            stream.push('\n');
            for _ in 0..extra[i % extra.len()] {
                stream.push('\n');
            }
        }
        let bytes = stream.into_bytes();
        prop_assert_eq!(reassemble(&bytes, std::iter::once(bytes.len())), requests);
    }

    /// Every two-chunk split of a two-frame stream — including both cuts
    /// inside a `\n\n` delimiter — reassembles identically. The random
    /// chunk plans above rarely land exactly mid-delimiter; this makes
    /// that boundary exhaustive.
    #[test]
    fn every_split_point_including_mid_delimiter_reassembles(
        first in arb_request(),
        second in arb_request(),
    ) {
        let requests = vec![first, second];
        let stream = stream_of(&requests);
        for split in 1..stream.len() {
            let chunks = [split, stream.len() - split];
            prop_assert_eq!(
                reassemble(&stream, chunks.into_iter()),
                requests.clone(),
                "split at byte {}", split
            );
        }
    }

    /// A reused assembler (one per worker, `reset()` between
    /// connections) starts the next connection clean, and leading
    /// keep-alive newlines are stripped eagerly so `residue()` is exact
    /// — the front-end's partial-frame accounting at connection close
    /// depends on it.
    #[test]
    fn reset_discards_partials_and_leading_keepalives_leave_no_residue(
        stale in "[a-zA-Z0-9 :/]{0,32}",
        leading in 1usize..6,
        requests in proptest::collection::vec(arb_request(), 1..4),
    ) {
        let mut assembler = FrameAssembler::new(MAX_FRAME_BYTES);
        // The previous connection hung up mid-frame; reset() discards
        // the partial.
        assembler.push(stale.as_bytes());
        assembler.reset();
        prop_assert_eq!(assembler.residue(), 0);
        // The next connection opens with keep-alive blank lines: never
        // counted as pending frame bytes.
        assembler.push(&vec![b'\n'; leading]);
        prop_assert_eq!(assembler.residue(), 0);
        let stream = stream_of(&requests);
        assembler.push(&stream);
        let mut decoded = Vec::new();
        while let Some(request) = assembler
            .next_frame(checked_frame)
            .expect("stream of valid frames")
        {
            decoded.push(request);
        }
        prop_assert_eq!(decoded, requests);
        prop_assert_eq!(assembler.residue(), 0);
    }

    /// Pinned decision for HTTP-style clients: a `\r\n\r\n` terminator
    /// *ends* the frame (however the bytes are chunked), so the client
    /// gets a typed answer instead of a stall — and the frame text is
    /// then rejected by the decoder, which allows no carriage returns.
    #[test]
    fn crlf_terminated_frames_surface_as_frames_then_fail_decode(
        contact in "[a-zA-Z0-9/_.-]{1,24}",
        chunk_sizes in proptest::collection::vec(1usize..8, 1..64),
    ) {
        let stream = format!("GRAM/1 STATUS\r\njob: {contact}\r\n\r\n").into_bytes();
        let mut assembler = FrameAssembler::new(MAX_FRAME_BYTES);
        let mut frames = Vec::new();
        let mut offset = 0;
        for chunk in chunk_sizes.into_iter().chain(std::iter::repeat(stream.len())) {
            let end = (offset + chunk.max(1)).min(stream.len());
            assembler.push(&stream[offset..end]);
            offset = end;
            while let Some(text) =
                assembler.next_frame(|t| t.to_string()).expect("CRLF text is valid UTF-8")
            {
                frames.push(text);
            }
            if offset == stream.len() {
                break;
            }
        }
        prop_assert_eq!(frames.len(), 1, "the CRLF terminator must end the frame");
        prop_assert!(frames[0].contains('\r'));
        let error = WireRequestRef::decode(&frames[0]).expect_err("CRLF text must not decode");
        prop_assert!(error.to_string().contains("carriage return"), "{}", error);
        prop_assert_eq!(assembler.residue(), 0);
    }
}
