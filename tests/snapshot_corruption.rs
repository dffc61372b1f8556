//! Corrupt-snapshot rejection: a damaged or foreign file must produce a
//! typed [`registry::PersistError`] — never a panic, never a silently wrong
//! index.  Each corruption class the format defends against gets its own
//! case: bad magic, unsupported version, truncation, and checksum mismatch,
//! plus the registry-level failure modes (unknown kind tag, missing file,
//! mismatched shard family).

use datagen::{generate, Distribution};
use registry::{
    build_index, load_index, load_index_bytes, load_shard_manifest_bytes,
    load_shard_snapshot_bytes, snapshot_bytes, BaseKind, IndexConfig, IndexKind, PersistError,
};

fn snapshot_of(kind: IndexKind) -> Vec<u8> {
    let data = generate(Distribution::Uniform, 500, 3);
    let index = build_index(kind, &data, &IndexConfig::fast().with_shards(2));
    snapshot_bytes(index.as_ref()).expect("serialise")
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = snapshot_of(IndexKind::Grid);
    bytes[0] ^= 0xFF;
    assert!(matches!(
        load_index_bytes(&bytes),
        Err(PersistError::BadMagic)
    ));
    // An arbitrary non-snapshot file fails the same way.
    assert!(matches!(
        load_index_bytes(b"{\"not\": \"a snapshot\"}"),
        Err(PersistError::BadMagic)
    ));
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = snapshot_of(IndexKind::Kdb);
    // The version field sits directly after the 8-byte magic.
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        load_index_bytes(&bytes),
        Err(PersistError::UnsupportedVersion(7))
    ));
}

/// Offsets at which each top-level section of `bytes` begins.
fn section_starts(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    // Header: 8-byte magic, u32 version, u16 kind-tag length, kind tag;
    // a section is u32 tag, u64 length, payload, u32 CRC.
    let mut starts = vec![14 + word(12, 2)];
    loop {
        let at = *starts.last().unwrap();
        let next = at + 4 + 8 + word(at + 4, 8) + 4;
        if next >= bytes.len() {
            return starts;
        }
        starts.push(next);
    }
}

#[test]
fn truncated_files_are_rejected_at_every_cut() {
    for kind in IndexKind::all_with_sharded() {
        let bytes = snapshot_of(kind);
        // Cut the file at several depths: mid-header, mid-section,
        // mid-checksum, and just before every section (the last one too:
        // no section is optional).
        let mut cuts = vec![10, bytes.len() / 3, bytes.len() - 3];
        cuts.extend(section_starts(&bytes));
        for keep in cuts {
            let cut = &bytes[..keep];
            match load_index_bytes(cut) {
                Err(PersistError::Truncated) => {}
                Ok(_) => panic!("{kind}: cut at {keep} loaded successfully"),
                Err(other) => panic!("{kind}: cut at {keep}: expected Truncated, got {other}"),
            }
        }
    }
}

#[test]
fn padded_files_are_rejected() {
    for kind in IndexKind::all_with_sharded() {
        let mut bytes = snapshot_of(kind);
        assert!(load_index_bytes(&bytes).is_ok(), "{kind}: fresh snapshot");
        bytes.extend_from_slice(&[0; 5]);
        match load_index_bytes(&bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{kind}: {msg}"),
            Ok(_) => panic!("{kind}: a padded snapshot loaded successfully"),
            Err(other) => panic!("{kind}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn checksum_mismatch_is_rejected_for_every_section() {
    let bytes = snapshot_of(IndexKind::RStar);
    // Flip one bit somewhere inside the body (past the header) and the
    // enclosing section's CRC must catch it.  Probe several offsets.
    let header_len = 8 + 4 + 2 + "RR*".len();
    for at in [header_len + 20, bytes.len() / 2, bytes.len() - 40] {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x10;
        match load_index_bytes(&corrupted) {
            Err(
                PersistError::ChecksumMismatch { .. }
                // A flipped bit inside a section *length* field shifts the
                // layout instead of the payload; that surfaces as
                // truncation or a structural error — still typed, no panic.
                | PersistError::Truncated
                | PersistError::Corrupt(_),
            ) => {}
            Ok(_) => panic!("bit flip at {at} loaded successfully"),
            Err(other) => panic!("bit flip at {at}: unexpected error {other}"),
        }
    }
}

#[test]
fn learned_index_snapshots_detect_weight_corruption() {
    let bytes = snapshot_of(IndexKind::Rsmi);
    // Damage a byte in the back half of the file, where the node arena and
    // its model weights live.
    let mut corrupted = bytes.clone();
    let at = bytes.len() * 3 / 4;
    corrupted[at] ^= 0x01;
    assert!(
        load_index_bytes(&corrupted).is_err(),
        "corrupted model weights loaded silently"
    );
}

#[test]
fn sharded_containers_reject_corrupt_inner_snapshots() {
    let bytes = snapshot_of(BaseKind::Zm.sharded());
    let mut corrupted = bytes.clone();
    let at = bytes.len() * 2 / 3; // inside an embedded shard blob
    corrupted[at] ^= 0x04;
    assert!(
        load_index_bytes(&corrupted).is_err(),
        "corrupted shard blob loaded silently"
    );
}

/// Panics unless `got` is a typed [`PersistError::Corrupt`].
fn expect_corrupt<T>(what: &str, got: Result<T, PersistError>) {
    match got {
        Err(PersistError::Corrupt(_)) => {}
        Ok(_) => panic!("{what}: loaded successfully"),
        Err(other) => panic!("{what}: expected Corrupt, got {other}"),
    }
}

#[test]
fn spliced_container_announcing_more_shards_than_its_partitioner_is_corrupt() {
    // Whole, CRC-valid sections of a 2-shard and a 1-shard Sharded-Grid:
    // the 2-shard build's header and meta (announcing 2 shards), the
    // 1-shard build's partitioner (routing to 1) and shard 0, then the
    // 2-shard build's shard 1.  Every entry point must refuse it, the
    // one-shard extraction a shard server starts from included.
    let data = generate(Distribution::Uniform, 500, 3);
    let container = |shards: usize| {
        let cfg = IndexConfig::fast().with_shards(shards);
        let index = build_index(BaseKind::Grid.sharded(), &data, &cfg);
        let bytes = snapshot_bytes(index.as_ref()).expect("serialise");
        let mut cuts = section_starts(&bytes);
        cuts.push(bytes.len());
        assert_eq!(cuts.len(), shards + 3, "header, meta, partitioner, shards");
        (bytes, cuts)
    };
    let (two, t) = container(2);
    let (one, o) = container(1);
    let mut spliced = two[..t[1]].to_vec();
    spliced.extend_from_slice(&one[o[1]..o[3]]);
    spliced.extend_from_slice(&two[t[3]..]);

    expect_corrupt("load_index_bytes", load_index_bytes(&spliced));
    expect_corrupt(
        "load_shard_manifest_bytes",
        load_shard_manifest_bytes(&spliced),
    );
    for shard in 0..3 {
        expect_corrupt(
            &format!("load_shard_snapshot_bytes(_, {shard})"),
            load_shard_snapshot_bytes(&spliced, shard),
        );
    }
}

/// Rewrites the payload of the top-level section tagged `tag` through
/// `patch` and stores its new CRC, so the file stays well-framed.
fn patch_section(bytes: &mut [u8], tag: u32, patch: impl FnOnce(&mut [u8])) {
    let at = section_starts(bytes)
        .into_iter()
        .find(|&at| bytes[at..at + 4] == tag.to_le_bytes())
        .unwrap_or_else(|| panic!("no section 0x{tag:04x}"));
    let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
    let payload = &mut bytes[at + 12..at + 12 + len];
    patch(payload);
    let crc = persist::crc32(payload).to_le_bytes();
    bytes[at + 12 + len..at + 16 + len].copy_from_slice(&crc);
}

#[test]
fn references_past_their_table_are_corrupt_not_a_panic() {
    let past = u64::from(u32::MAX).to_le_bytes();
    // HRR (0x4801), KDB (0x4B01) and RR* (0x5201) store their root first:
    // a presence byte, then the node index.
    for (kind, tag) in [
        (IndexKind::Hrr, 0x4801),
        (IndexKind::Kdb, 0x4B01),
        (IndexKind::RStar, 0x5201),
    ] {
        let mut bytes = snapshot_of(kind);
        patch_section(&mut bytes, tag, |payload| {
            assert_eq!(payload[0], 1, "{kind}: the root is stored");
            payload[1..9].copy_from_slice(&past);
        });
        expect_corrupt(&format!("{kind} root"), load_index_bytes(&bytes));
    }
    // Grid (0x4701): side, point count, cell count, then each cell's
    // block list; point the first block of the first non-empty cell past
    // the store.
    let mut bytes = snapshot_of(IndexKind::Grid);
    patch_section(&mut bytes, 0x4701, |payload| {
        let mut at = 24;
        while payload[at..at + 8] == [0; 8] {
            at += 8;
        }
        payload[at + 8..at + 16].copy_from_slice(&past);
    });
    expect_corrupt("Grid cell block", load_index_bytes(&bytes));
}

#[test]
fn zero_block_capacity_is_corrupt_not_a_panic() {
    // `Block::new` asserts a positive capacity; a crafted snapshot must be
    // rejected by the reader *before* that assert can fire.
    let mut w = persist::SnapshotWriter::new("Grid");
    w.begin_section(storage::SECTION_STORE_V2);
    w.put_usize(0); // capacity — invalid
    w.put_usize(0); // block count
    w.end_section();
    match load_index_bytes(&w.finish()) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("capacity"), "unhelpful message: {msg}")
        }
        Ok(_) => panic!("zero-capacity snapshot loaded successfully"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }
}

#[test]
fn retired_aos_store_section_is_a_typed_error_not_a_panic() {
    // Tag 0x5301 was the array-of-structs store layout; its reader is gone.
    // A well-framed (header, length, CRC all valid) snapshot that still
    // carries it must be refused by the tag check, naming the tag.
    let mut w = persist::SnapshotWriter::new("Grid");
    w.begin_section(0x5301);
    w.put_usize(4); // capacity
    w.put_usize(1); // block count
    w.put_usize(1); // one interleaved point record
    w.put_point(&geom::Point::with_id(0.25, 0.75, 7));
    w.put_opt_usize(None);
    w.put_opt_usize(None);
    w.put_bool(false);
    w.end_section();
    match load_index_bytes(&w.finish()) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("0x5301"), "{msg}"),
        Ok(_) => panic!("a 0x5301 store section loaded successfully"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }
}

/// Rewrites the tag of the top-level section tagged `from` to `to`.  The
/// CRC covers only the payload, so the file stays well-framed.
fn retag_section(bytes: &mut [u8], from: u32, to: u32) {
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    // Header: 8-byte magic, u32 version, u16 kind-tag length, kind tag.
    let mut at = 14 + word(12, 2);
    while at < bytes.len() {
        if word(at, 4) == from as usize {
            bytes[at..at + 4].copy_from_slice(&to.to_le_bytes());
            return;
        }
        at += 4 + 8 + word(at + 4, 8) + 4;
    }
    panic!("no section 0x{from:04x}");
}

#[test]
fn retired_routing_table_section_is_a_typed_error_for_every_sharded_entry_point() {
    // 0x5402 held the exact routing tables (every build point's location
    // twice); the knot tables of 0x5404 replaced them and no reader of the
    // old layout is kept.  A well-framed container still carrying the tag
    // must be refused by the tag check, naming the tag, by every reader a
    // router or shard server starts from.
    let mut bytes = snapshot_of(BaseKind::Hrr.sharded());
    assert!(load_index_bytes(&bytes).is_ok(), "fresh container");
    retag_section(&mut bytes, 0x5404, 0x5402);
    let refusals = [
        ("load_index_bytes", load_index_bytes(&bytes).err()),
        (
            "load_shard_manifest_bytes",
            load_shard_manifest_bytes(&bytes).err(),
        ),
        (
            "load_shard_snapshot_bytes(_, 0)",
            load_shard_snapshot_bytes(&bytes, 0).err(),
        ),
    ];
    for (what, refusal) in refusals {
        match refusal {
            Some(PersistError::Corrupt(msg)) => assert!(msg.contains("0x5402"), "{what}: {msg}"),
            None => panic!("{what}: a 0x5402 partitioner section loaded successfully"),
            Some(other) => panic!("{what}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn learned_model_sections_with_libm_sigmoid_bounds_are_typed_errors_not_panics() {
    // 0x5102 (RSMI nodes) and 0x5A02 (ZM models) hold error bounds
    // measured under the libm sigmoid, which today's `predict` can step
    // across.  A well-framed snapshot still carrying either tag must be
    // refused by the tag check, naming the tag.
    for (kind, current, retired) in [
        (IndexKind::Rsmi, 0x5105, 0x5102),
        (IndexKind::Zm, 0x5A03, 0x5A02),
    ] {
        let mut bytes = snapshot_of(kind);
        assert!(load_index_bytes(&bytes).is_ok(), "{kind}: fresh snapshot");
        retag_section(&mut bytes, current, retired);
        match load_index_bytes(&bytes) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("0x{retired:04x}")), "{kind}: {msg}")
            }
            Ok(_) => panic!("{kind}: a 0x{retired:04x} section loaded successfully"),
            Err(other) => panic!("{kind}: expected Corrupt, got {other}"),
        }
    }
}

#[test]
fn disagreeing_soa_lanes_are_corrupt_not_a_panic() {
    // A v2 section whose coordinate and id lanes disagree in length must be
    // rejected; zipping them blindly would silently drop or invent points.
    let mut w = persist::SnapshotWriter::new("Grid");
    w.begin_section(storage::SECTION_STORE_V2);
    w.put_usize(4); // capacity
    w.put_usize(1); // block count
    w.put_f64s(&[0.1, 0.2]); // xs: 2 entries
    w.put_f64s(&[0.3]); // ys: 1 entry
    w.put_u64s(&[7, 8]);
    w.put_opt_usize(None);
    w.put_opt_usize(None);
    w.put_bool(false);
    w.end_section();
    match load_index_bytes(&w.finish()) {
        Err(PersistError::Corrupt(_)) => {}
        Ok(_) => panic!("lane-mismatched snapshot loaded successfully"),
        Err(other) => panic!("expected Corrupt, got {other}"),
    }
}

#[test]
fn unknown_kind_tag_is_rejected() {
    let w = persist::SnapshotWriter::new("FancyFutureIndex");
    match load_index_bytes(&w.finish()) {
        Err(PersistError::UnknownKind(kind)) => assert_eq!(kind, "FancyFutureIndex"),
        Ok(_) => panic!("unknown kind loaded successfully"),
        Err(other) => panic!("expected UnknownKind, got {other}"),
    }
}

#[test]
fn missing_file_is_an_io_error() {
    assert!(matches!(
        load_index(std::path::Path::new("/no/such/dir/index.snapshot")),
        Err(PersistError::Io(_))
    ));
}

#[test]
fn empty_file_is_rejected() {
    assert!(matches!(load_index_bytes(&[]), Err(PersistError::BadMagic)));
}

#[test]
fn errors_format_for_operators() {
    // The serve CLI prints these; they must be actionable one-liners.
    let mut bytes = snapshot_of(IndexKind::Grid);
    bytes[8..12].copy_from_slice(&42u32.to_le_bytes());
    let Err(err) = load_index_bytes(&bytes) else {
        panic!("version 42 loaded successfully");
    };
    assert!(err.to_string().contains("42"), "{err}");
}
