//! One corruption harness for every sealed artifact family: the graph
//! snapshot (`seqavf-graph/2`), the relaxation fixpoint
//! (`seqavf-fixpoint/1`) and the compiled sweep DAG (`seqavf-sweep/3`).
//! All three share the section codec of `seqavf_netlist::snapshot`, so
//! all three must turn the same damage into `Err` — never a panic, never
//! an allocation abort:
//!
//! - truncation at any cut;
//! - any single bit flip;
//! - an element count of 10^18 forged into a section and re-sealed, so
//!   that only the count bound (not the checksum) can catch it.

use std::sync::OnceLock;

use proptest::prelude::*;

use seqavf_core::compile::CompiledSweep;
use seqavf_core::engine::{SartConfig, SartEngine};
use seqavf_core::fixpoint::StoredFixpoint;
use seqavf_core::mapping::{PavfInputs, StructureMapping};
use seqavf_netlist::scc::find_loops;
use seqavf_netlist::snapshot::{
    self, put_section, put_varint, seal, Cursor, SnapshotError, FIXPOINT_MAGIC, MAGIC, SWEEP_MAGIC,
};
use seqavf_netlist::synth::{generate, SynthConfig};

/// One valid artifact and how to read it back.
struct Family {
    name: &'static str,
    bytes: Vec<u8>,
    /// Offset of the first section (past the magic and any fixed header).
    sections_at: usize,
    /// How many leading sections open with an element count.
    counted_sections: usize,
    decode: fn(&[u8]) -> Result<(), SnapshotError>,
}

/// One artifact of each family, built once from a small synthetic design.
fn families() -> &'static [Family; 3] {
    static FAMILIES: OnceLock<[Family; 3]> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        let design = generate(&SynthConfig::xeon_like(3).scaled(0.3));
        let nl = design.netlist;
        let loops = find_loops(&nl);
        let mapping = StructureMapping::from_pairs(design.meta.structure_map.clone());
        let mut inputs = PavfInputs::new();
        inputs.set_port("uops_executed", 0.21, 0.34);
        let engine = SartEngine::new(&nl, &mapping, SartConfig::default());
        let result = engine.run(&inputs);
        let fixpoint = engine.capture_fixpoint(&result).expect("converged");
        [
            Family {
                name: "graph",
                bytes: snapshot::save(&nl, &loops),
                // The content digest precedes the HEADER section, whose
                // fields are all counts; later sections open with data.
                sections_at: MAGIC.len() + 8,
                counted_sections: 1,
                decode: |b| snapshot::load(b).map(drop),
            },
            Family {
                name: "fixpoint",
                bytes: fixpoint.encode(),
                sections_at: FIXPOINT_MAGIC.len(),
                counted_sections: 5,
                decode: |b| StoredFixpoint::decode(b).map(drop),
            },
            Family {
                name: "dag",
                bytes: CompiledSweep::compile(&result, &nl).encode(),
                sections_at: SWEEP_MAGIC.len(),
                counted_sections: 6,
                decode: |b| CompiledSweep::decode(b, &SartConfig::default()).map(drop),
            },
        ]
    })
}

/// Rewrites the first count of section `index` (counting from
/// `sections_at`) to `count` and re-seals the artifact, so its checksum is
/// valid again.
fn forge_count(bytes: &[u8], sections_at: usize, index: usize, count: u64) -> Vec<u8> {
    let body = &bytes[..bytes.len() - 8];
    let section_len =
        |at: usize| u64::from_le_bytes(body[at + 1..at + 9].try_into().unwrap()) as usize;
    let mut at = sections_at;
    for _ in 0..index {
        at += 9 + section_len(at);
    }
    let (tag, len) = (body[at], section_len(at));
    let payload = &body[at + 9..at + 9 + len];
    let mut c = Cursor::new(payload);
    c.varint().expect("section opens with a count");
    let mut forged = Vec::new();
    put_varint(&mut forged, count);
    forged.extend_from_slice(&payload[len - c.remaining()..]);
    let mut out = body[..at].to_vec();
    put_section(&mut out, tag, &forged);
    out.extend_from_slice(&body[at + 9 + len..]);
    seal(&mut out);
    out
}

#[test]
fn every_family_decodes_its_own_bytes() {
    for f in families() {
        assert_eq!((f.decode)(&f.bytes), Ok(()), "{}", f.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn damaged_artifacts_of_every_family_are_errors(
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
        section in any::<usize>(),
    ) {
        for f in families() {
            let cut = cut % f.bytes.len();
            prop_assert!(
                (f.decode)(&f.bytes[..cut]).is_err(),
                "{}: truncation to {cut} bytes decoded",
                f.name
            );

            let mut flipped = f.bytes.clone();
            let i = flip_at % flipped.len();
            flipped[i] ^= 1 << flip_bit;
            prop_assert!(
                (f.decode)(&flipped).is_err(),
                "{}: bit {flip_bit} of byte {i} flipped and still decoded",
                f.name
            );

            let section = section % f.counted_sections;
            let forged = forge_count(&f.bytes, f.sections_at, section, 10u64.pow(18));
            prop_assert!(
                (f.decode)(&forged).is_err(),
                "{}: count 10^18 forged into section {section} decoded",
                f.name
            );
        }
    }
}
