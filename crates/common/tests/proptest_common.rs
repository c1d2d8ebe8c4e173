//! Property tests for the foundations: path normalization and the
//! placement invariants every component relies on.

use gkfs_common::distributor::Distributor;
use gkfs_common::path as gpath;
use proptest::prelude::*;

/// Lowercase ASCII strings of length `min..=max`, spelled out as an
/// explicit generator (equivalent to the regex strategy `[a-z]{min,max}`).
fn lowercase(min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, min..max + 1)
        .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// Strings over `[a-z/]` of length `min..=max` (equivalent to the regex
/// strategy `[a-z/]{min,max}`).
fn pathish(min: usize, max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..27, min..max + 1).prop_map(|v| {
        v.into_iter()
            .map(|b| if b == 26 { '/' } else { (b'a' + b) as char })
            .collect()
    })
}

/// Arbitrary path-ish strings: segments from a small alphabet glued
/// with separators and dot-segments.
fn path_strategy() -> impl Strategy<Value = String> {
    let segment = prop_oneof![
        4 => lowercase(1, 8),
        1 => Just(".".to_string()),
        1 => Just("..".to_string()),
        1 => Just("".to_string()),
    ];
    prop::collection::vec(segment, 0..8).prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    #[test]
    fn normalize_is_idempotent(p in path_strategy()) {
        if let Ok(n) = gpath::normalize(&p) {
            // Normalizing a normalized path is the identity.
            prop_assert_eq!(gpath::normalize(&n).unwrap(), n.clone());
            // Normalized paths are absolute, have no dot segments, no
            // duplicate separators, no trailing separator (except "/").
            prop_assert!(n.starts_with('/'));
            if n != "/" {
                prop_assert!(!n.ends_with('/'));
            }
            prop_assert!(!n.contains("//"));
            for seg in n.split('/').skip(1) {
                prop_assert!(seg != "." && seg != "..");
            }
        }
    }

    #[test]
    fn parent_name_join_roundtrip(p in path_strategy()) {
        if let Ok(n) = gpath::normalize(&p) {
            if n != "/" {
                prop_assert_eq!(gpath::join(gpath::parent(&n), gpath::name(&n)), n.clone());
                prop_assert!(gpath::is_direct_child(gpath::parent(&n), &n));
            }
            // Depth decreases by exactly one toward the parent.
            if n != "/" {
                prop_assert_eq!(gpath::depth(gpath::parent(&n)) + 1, gpath::depth(&n));
            }
        }
    }

    #[test]
    fn distributors_always_in_range_and_deterministic(
        path in pathish(1, 32),
        chunk in any::<u64>(),
        nodes in 1usize..700,
    ) {
        let p = format!("/{path}");
        let d = Distributor::new(nodes);
        let m1 = d.locate_metadata(&p);
        let m2 = Distributor::new(nodes).locate_metadata(&p);
        prop_assert!(m1 < nodes);
        prop_assert_eq!(m1, m2, "metadata placement deterministic");
        let c1 = d.locate_chunk(&p, chunk);
        let c2 = Distributor::new(nodes).locate_chunk(&p, chunk);
        prop_assert!(c1 < nodes);
        prop_assert_eq!(c1, c2, "chunk placement deterministic");
    }
}

/// The frame image the pre-vectored transport emitted:
/// `write_all(len); write_all(payload); write_all(crc)` over one
/// contiguous buffer. The vectored writer must match it byte for byte
/// regardless of how the payload is sliced.
fn contiguous_frame(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 8);
    v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v.extend_from_slice(payload);
    v.extend_from_slice(&gkfs_common::crc::crc32(payload).to_le_bytes());
    v
}

/// Sink that accepts at most `cap` bytes per call — forces the frame
/// writer through its partial-write resume cursor at every boundary.
struct CappedWriter {
    out: Vec<u8>,
    cap: usize,
}

impl std::io::Write for CappedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.cap);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary payloads under arbitrary segment splits — including
    /// empty and 1-byte slices — produce exactly the contiguous
    /// encoder's wire image, even when the socket only takes a few
    /// bytes per call.
    #[test]
    fn vectored_frames_match_contiguous_encoder(
        payload in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(any::<u16>(), 0..12),
        cap in prop_oneof![Just(usize::MAX), 1usize..97],
    ) {
        let mut cuts: Vec<usize> = cuts
            .into_iter()
            .map(|c| c as usize % (payload.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut fw = gkfs_common::wire::FrameWriter::new();
        let mut prev = 0;
        for &c in &cuts {
            fw.segment(&payload[prev..c]); // empty when cuts repeat
            prev = c;
        }
        fw.segment(&payload[prev..]);
        prop_assert_eq!(fw.payload_len(), payload.len());
        let mut w = CappedWriter { out: Vec::new(), cap };
        fw.write_to(&mut w).unwrap();
        prop_assert_eq!(w.out, contiguous_frame(&payload), "cuts {:?} cap {}", cuts, cap);
    }
}
