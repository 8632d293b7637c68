//! Arbitrary-bytes properties of [`LineFramer`]: however a byte stream is
//! cut into chunks, it frames to the same sequence as one `push` of the
//! whole stream; `push` never panics; the buffer never holds more than
//! `max_line` bytes; and the line after an oversized one still frames.

use gbtl_net::{Frame, LineFramer};
use proptest::prelude::*;

/// Bytes that steer the framer into its branches: newlines, carriage
/// returns, invalid UTF-8 and the lead and continuation bytes of
/// multibyte characters, beside any byte at all.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u32..8, any::<u8>()), 0..96).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, byte)| match kind {
                0 => b'\n',
                1 => b'\r',
                2 => [0xff, 0xc3, 0xa9, 0xe2, 0x9c, 0x93][byte as usize % 6],
                _ => byte,
            })
            .collect()
    })
}

/// One framing event, owned: `None` is [`Frame::Oversized`].
fn owned(frame: Frame<'_>) -> Option<String> {
    match frame {
        Frame::Line(line) => Some(line.to_string()),
        Frame::Oversized => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn any_chunking_frames_like_one_push(
        stream in arb_stream(),
        cuts in proptest::collection::vec(0usize..24, 0..24),
        max_line in 1usize..16,
    ) {
        let mut whole = LineFramer::new(max_line);
        let mut expected = Vec::new();
        whole.push(&stream, |f| expected.push(owned(f)));
        prop_assert!(whole.buffered() <= max_line);

        let mut chunked = LineFramer::new(max_line);
        let mut got = Vec::new();
        let mut rest = stream.as_slice();
        for len in cuts.into_iter().chain(std::iter::once(usize::MAX)) {
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            chunked.push(chunk, |f| got.push(owned(f)));
            prop_assert!(chunked.buffered() <= max_line);
            rest = tail;
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(chunked.buffered(), whole.buffered());
    }

    /// An oversized line, however it arrives, costs only itself: it is
    /// one `Oversized`, and the line after it frames as itself.
    #[test]
    fn the_line_after_an_oversized_one_frames(
        max_line in 1usize..16,
        over in 1usize..24,
        next in proptest::collection::vec(b'a'..b'{', 0..16),
        cuts in proptest::collection::vec(1usize..24, 0..8),
    ) {
        let next: Vec<u8> = next.into_iter().take(max_line).collect();
        let mut stream = vec![b'x'; max_line + over];
        stream.push(b'\n');
        stream.extend_from_slice(&next);
        stream.push(b'\n');
        let mut framer = LineFramer::new(max_line);
        let mut got = Vec::new();
        let mut rest = stream.as_slice();
        for len in cuts.into_iter().chain(std::iter::once(usize::MAX)) {
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            framer.push(chunk, |f| got.push(owned(f)));
            prop_assert!(framer.buffered() <= max_line);
            rest = tail;
        }
        let next = String::from_utf8(next).unwrap();
        prop_assert_eq!(got, vec![None, Some(next)]);
        prop_assert_eq!(framer.buffered(), 0);
    }
}
