//! Property-based tests over the core data structures and invariants.

use iris_core::seed::{VmSeed, MAX_VMCS_OPS};
use iris_fuzzer::mutation::{mutate, AppliedMutation, SeedArea};
use iris_hv::coverage::{Block, Component, CoverageMap, BLOCKS_PER_COMPONENT, BLOCK_LINES};
use iris_vtx::cr::{Cr0, OperatingMode};
use iris_vtx::exit::{CrAccessQual, EptQual, ExitReason, IoQual};
use iris_vtx::fields::VmcsField;
use iris_vtx::gpr::{Gpr, GprSet};
use iris_vtx::vmcs::Vmcs;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

fn arb_field() -> impl Strategy<Value = VmcsField> {
    (0..VmcsField::ALL.len()).prop_map(|i| VmcsField::ALL[i])
}

fn arb_reason() -> impl Strategy<Value = ExitReason> {
    (0..ExitReason::FIGURE_REASONS.len()).prop_map(|i| ExitReason::FIGURE_REASONS[i])
}

fn arb_seed() -> impl Strategy<Value = VmSeed> {
    (
        arb_reason(),
        proptest::collection::vec((arb_field(), any::<u64>()), 0..MAX_VMCS_OPS),
        proptest::collection::vec(any::<u64>(), Gpr::COUNT),
    )
        .prop_map(|(reason, reads, gprs)| {
            let mut s = VmSeed::new(reason);
            for (f, v) in reads {
                s.push_read(f, v);
            }
            let mut set = GprSet::new();
            for (g, v) in Gpr::ALL.iter().zip(gprs) {
                set.set(*g, v);
            }
            s.gprs = set;
            s
        })
}

/// Every block the build declares, in `(component, id)` order.
fn declared_blocks() -> &'static [Block] {
    static DECLARED: OnceLock<Vec<Block>> = OnceLock::new();
    DECLARED.get_or_init(|| {
        Component::ALL
            .iter()
            .flat_map(|&c| (0..BLOCKS_PER_COMPONENT as u16).map(move |id| Block::new(c, id)))
            .filter(|&blk| table_lines(blk) != 0)
            .collect()
    })
}

fn arb_block() -> impl Strategy<Value = Block> {
    (0..declared_blocks().len()).prop_map(|i| declared_blocks()[i])
}

/// The model's weight of a block: read straight off the table, not
/// through `Block::lines`.
fn table_lines(block: Block) -> u64 {
    BLOCK_LINES[block.component.index()]
        .get(usize::from(block.id))
        .map_or(0, |&l| u64::from(l))
}

fn model_lines<'a>(blocks: impl IntoIterator<Item = &'a Block>) -> u64 {
    blocks.into_iter().map(|&blk| table_lines(blk)).sum()
}

proptest! {
    /// The seed wire format round-trips for every well-formed seed.
    #[test]
    fn seed_codec_round_trips(seed in arb_seed()) {
        let decoded = VmSeed::decode(&seed.encode()).expect("decodes");
        prop_assert_eq!(decoded, seed);
    }

    /// Seed payloads never exceed the paper's 470-byte pre-allocation.
    #[test]
    fn seed_payload_bounded(seed in arb_seed()) {
        prop_assert!(seed.payload_bytes() <= 470);
    }

    /// VMCS writes are width-truncating and idempotent; reads never
    /// observe bits a field cannot hold.
    #[test]
    fn vmcs_width_truncation(field in arb_field(), value in any::<u64>()) {
        let mut v = Vmcs::new();
        v.hw_write(field, value);
        let read = v.read(field);
        prop_assert_eq!(read, value & field.value_mask());
        v.hw_write(field, read);
        prop_assert_eq!(v.read(field), read);
    }

    /// Read-only classification matches the architectural area encoding
    /// and VMWRITE honours it.
    #[test]
    fn vmcs_read_only_rejection(field in arb_field(), value in any::<u64>()) {
        let mut v = Vmcs::new();
        let result = v.write(field, value);
        prop_assert_eq!(result.is_err(), field.is_read_only());
    }

    /// Qualification encodings round-trip.
    #[test]
    fn cr_qual_round_trip(cr in prop_oneof![Just(0u8), Just(3), Just(4), Just(8)],
                          ty in 0u8..4, op in 0u8..16, lmsw in any::<u16>()) {
        let access = match ty {
            0 => iris_vtx::exit::CrAccessType::MovToCr,
            1 => iris_vtx::exit::CrAccessType::MovFromCr,
            2 => iris_vtx::exit::CrAccessType::Clts,
            _ => iris_vtx::exit::CrAccessType::Lmsw,
        };
        let q = CrAccessQual {
            cr,
            access,
            gpr: Gpr::from_mov_cr_operand(op),
            lmsw_source: lmsw,
        };
        prop_assert_eq!(CrAccessQual::decode(q.encode()), q);
    }

    /// I/O qualifications round-trip for all legal sizes.
    #[test]
    fn io_qual_round_trip(size in prop_oneof![Just(1u8), Just(2), Just(4)],
                          dir in any::<bool>(), string in any::<bool>(),
                          rep in any::<bool>(), port in any::<u16>()) {
        let q = IoQual {
            size,
            direction: if dir { iris_vtx::exit::IoDirection::In } else { iris_vtx::exit::IoDirection::Out },
            string,
            rep,
            port,
        };
        prop_assert_eq!(IoQual::decode(q.encode()), q);
    }

    /// EPT qualifications round-trip.
    #[test]
    fn ept_qual_round_trip(bits in 0u8..128) {
        let q = EptQual {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            exec: bits & 4 != 0,
            gpa_readable: bits & 8 != 0,
            gpa_writable: bits & 16 != 0,
            gpa_executable: bits & 32 != 0,
            linear_valid: bits & 64 != 0,
        };
        prop_assert_eq!(EptQual::decode(q.encode()), q);
    }

    /// The CR0 mode classification is total and stable under
    /// irrelevant-bit changes.
    #[test]
    fn mode_classification_total(value in any::<u64>()) {
        let mode = Cr0(value).operating_mode();
        prop_assert!(OperatingMode::ALL.contains(&mode));
        // Bits outside PE/PG/AM/TS/CD never change the mode.
        use iris_vtx::cr::cr0;
        let relevant = cr0::PE | cr0::PG | cr0::AM | cr0::TS | cr0::CD;
        let other = Cr0((value & relevant) | (!value & !relevant & cr0::DEFINED));
        prop_assert_eq!(mode, other.operating_mode());
    }

    /// The dense field index round-trips for every enumerated field and
    /// stays within one byte (the seed codec's encoding byte).
    #[test]
    fn vmcs_field_index_round_trips(i in 0..VmcsField::ALL.len()) {
        let field = VmcsField::ALL[i];
        let idx = field.index();
        prop_assert_eq!(idx as usize, i);
        prop_assert_eq!(VmcsField::from_index(idx), Some(field));
        prop_assert_eq!(field.compact_index(), idx);
        prop_assert_eq!(VmcsField::from_compact_index(idx), Some(field));
    }

    /// The dense bitmap CoverageMap matches a `BTreeSet<Block>` reference
    /// model weighted by the build's table: `lines`, `contains`,
    /// per-component sums, `new_lines_from`, `symmetric_diff_lines`,
    /// `diff_lines_by_component`, `strip_framework`, the serde round trip,
    /// and `merge` (the union, commutative and idempotent).
    #[test]
    fn coverage_bitmap_matches_btreeset_model(
        left in proptest::collection::vec(arb_block(), 0..60),
        right in proptest::collection::vec(arb_block(), 0..60),
    ) {
        let build = |hits: &[Block]| {
            let mut map = CoverageMap::new();
            for &block in hits {
                map.hit(block);
            }
            (map, hits.iter().copied().collect::<BTreeSet<Block>>())
        };
        let (a, model_a) = build(&left);
        let (b, model_b) = build(&right);

        prop_assert_eq!(a.lines(), model_lines(&model_a));
        prop_assert_eq!(a.block_count(), model_a.len());
        for &component in Component::ALL {
            let per = model_lines(model_a.iter().filter(|blk| blk.component == component));
            prop_assert_eq!(a.lines_in(component), per);
        }
        for blk in &model_b {
            prop_assert_eq!(a.contains(*blk), model_a.contains(blk));
        }

        let new_from_b = model_lines(model_b.difference(&model_a));
        let new_from_a = model_lines(model_a.difference(&model_b));
        prop_assert_eq!(a.new_lines_from(&b), new_from_b);
        prop_assert_eq!(a.symmetric_diff_lines(&b), new_from_a + new_from_b);

        // Fig. 7 clustering: lines only `a` has, per component, with no
        // empty clusters.
        let mut model_diff: BTreeMap<Component, u64> = BTreeMap::new();
        for blk in model_a.difference(&model_b) {
            *model_diff.entry(blk.component).or_insert(0) += table_lines(*blk);
        }
        prop_assert_eq!(a.diff_lines_by_component(&b), model_diff);

        // Framework hits drop out as a whole component and nothing else.
        let mut clean = a.clone();
        clean.strip_framework();
        let model_clean: BTreeSet<Block> = model_a
            .iter()
            .copied()
            .filter(|blk| blk.component != Component::IrisFramework)
            .collect();
        prop_assert_eq!(&clean, &build(&model_clean.iter().copied().collect::<Vec<_>>()).0);
        prop_assert_eq!(clean.lines(), model_lines(&model_clean));
        prop_assert_eq!(&clean, &a.without_framework());

        // Serde round trip preserves the exact block set, and writes each
        // block beside its table weight.
        let json = serde_json::to_string(&a).expect("serializes");
        let back: CoverageMap = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(&back, &a);
        let wire: Vec<(Block, u32)> = serde_json::from_str(&json).expect("a pair list");
        let model_wire: Vec<(Block, u32)> =
            model_a.iter().map(|&blk| (blk, table_lines(blk) as u32)).collect();
        prop_assert_eq!(wire, model_wire);

        // Merge is the model union, whichever side folds into which, and
        // folding again changes nothing.
        let union: BTreeSet<Block> = model_a.union(&model_b).copied().collect();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.lines(), model_lines(&union));
        prop_assert_eq!(ab.lines(), a.lines() + new_from_b);
        prop_assert_eq!(ab.block_count(), union.len());
        let pairs: Vec<(Block, u32)> = ab.iter().collect();
        prop_assert_eq!(pairs.iter().map(|&(blk, _)| blk).collect::<BTreeSet<_>>(), union);
        for (blk, l) in pairs {
            prop_assert_eq!(u64::from(l), table_lines(blk));
        }
        let once = ab.clone();
        ab.merge(&b);
        prop_assert_eq!(&ab, &once);
        prop_assert_eq!(ab.new_lines_from(&b), 0);
    }

    /// Sharding a hit stream across N workers and folding the per-worker
    /// maps word-wise reproduces the sequential run's map exactly — the
    /// invariant `ParallelCampaign`'s aggregator rests on. Holds for any
    /// shard assignment and any fold order.
    #[test]
    fn sharded_coverage_merge_equals_sequential(
        hits in proptest::collection::vec(arb_block(), 0..80),
        jobs in 1usize..8,
    ) {
        let mut sequential = CoverageMap::new();
        let mut shards = vec![CoverageMap::new(); jobs];
        for (i, &block) in hits.iter().enumerate() {
            sequential.hit(block);
            shards[i % jobs].hit(block);
        }
        prop_assert_eq!(&CoverageMap::merged(shards.iter()), &sequential);
        // Completion order must not matter to the aggregator.
        prop_assert_eq!(&CoverageMap::merged(shards.iter().rev()), &sequential);
    }

    /// Coverage-map merge is monotone and idempotent; line counts never
    /// double-count blocks.
    #[test]
    fn coverage_merge_monotone(hits in proptest::collection::vec(arb_block(), 1..40)) {
        let (left, right) = hits.split_at(hits.len() / 2);
        let mut a = CoverageMap::new();
        for &block in left {
            a.hit(block);
        }
        let mut b = CoverageMap::new();
        for &block in right {
            b.hit(block);
        }
        let before = a.lines();
        let gain = a.new_lines_from(&b);
        a.merge(&b);
        prop_assert_eq!(a.lines(), before + gain);
        // Idempotent.
        let after = a.lines();
        a.merge(&b);
        prop_assert_eq!(a.lines(), after);
        prop_assert_eq!(a.new_lines_from(&b), 0);
    }

    /// A persisted pair the build's table does not back — an undeclared
    /// or out-of-range block, or a declared one at another weight — fails
    /// the load with an error naming the block; it is never adopted.
    #[test]
    fn coverage_pairs_off_the_table_are_rejected(
        good in proptest::collection::vec(arb_block(), 0..20),
        component in 0..Component::ALL.len(),
        id in 0u16..400,
        lines in 0u32..300,
    ) {
        let hostile = Block::new(Component::ALL[component], id);
        // Never the one weight that would make the pair genuine.
        let lines = if u64::from(lines) == table_lines(hostile) { lines + 1 } else { lines };
        let mut pairs: Vec<(Block, u32)> =
            good.iter().map(|&blk| (blk, table_lines(blk) as u32)).collect();
        pairs.push((hostile, lines));
        let json = serde_json::to_string(&pairs).expect("serializes");
        let err = serde_json::from_str::<CoverageMap>(&json)
            .expect_err("a pair the table does not back must not load");
        let named = format!("{:?}/{}", hostile.component, hostile.id);
        prop_assert!(err.to_string().contains(&named), "{}", err);
    }

    /// A mutation flips exactly one bit in exactly one place, and the
    /// mutant still encodes/decodes.
    #[test]
    fn mutation_flips_one_bit(seed in arb_seed(), area_sel in any::<bool>(), rng_seed in any::<u64>()) {
        let area = if area_sel { SeedArea::Vmcs } else { SeedArea::Gpr };
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let (mutant, applied) = mutate(&seed, area, &mut rng);
        match applied {
            None => prop_assert_eq!(&mutant, &seed),
            Some(AppliedMutation::VmcsBitFlip { index, bit }) => {
                prop_assert_eq!(mutant.reads[index].1 ^ seed.reads[index].1, 1u64 << bit);
                prop_assert_eq!(&mutant.gprs, &seed.gprs);
            }
            Some(AppliedMutation::GprBitFlip { gpr, bit }) => {
                prop_assert_eq!(mutant.gprs.get(gpr) ^ seed.gprs.get(gpr), 1u64 << bit);
                prop_assert_eq!(&mutant.reads, &seed.reads);
            }
        }
        let round = VmSeed::decode(&mutant.encode()).expect("mutants stay well-formed");
        prop_assert_eq!(round, mutant);
    }

    /// VM-entry checks are a pure function of the VMCS: same state, same
    /// verdict (determinism matters for replay).
    #[test]
    fn entry_checks_deterministic(rip in any::<u64>(), rflags in any::<u64>(), cr0 in any::<u64>()) {
        let mut v = Vmcs::new();
        iris_vtx::entry_checks::init_real_mode_guest_state(&mut v);
        v.hw_write(VmcsField::GuestRip, rip);
        v.hw_write(VmcsField::GuestRflags, rflags);
        v.hw_write(VmcsField::GuestCr0, cr0);
        let first = iris_vtx::entry_checks::check_guest_state(&v);
        let second = iris_vtx::entry_checks::check_guest_state(&v);
        prop_assert_eq!(first, second);
    }

    /// The one dirty tracker is sound: over arbitrary sequences of the
    /// tracked writers (`copy_to_guest`, `write_u64`, `wipe`,
    /// `restore_from`) with drains and the untracked `set_page`
    /// interleaved, every frame whose contents differ between two
    /// drains is in the drained set, and `set_page` alone never adds to
    /// it. Writes may run off the end of RAM (and are then refused part
    /// way).
    #[test]
    fn dirty_tracker_misses_no_changed_frame(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u8>()), 0..48),
    ) {
        use iris_hv::mm::GuestMemory;
        const PAGES: u64 = 6;
        let span = (PAGES + 1) << 12; // one frame past RAM
        let mut image = GuestMemory::new(PAGES << 12);
        image.write_u64(0x1000, 1).expect("in RAM");
        image.write_u64(0x4ff8, 2).expect("in RAM");
        let mut live = GuestMemory::new(PAGES << 12);
        live.write_u64(0x1008, 3).expect("in RAM"); // untracked prelude
        live.set_page_dirty_tracking(true);
        // The contents at the last drain, in step with `set_page`, and
        // what the tracker has handed out since.
        let mut at_drain = live.clone();
        let mut drained = std::collections::BTreeSet::new();

        for (op, arg, byte) in ops.into_iter().chain([(5, 0, 0)]) {
            match op {
                0 => {
                    let data = vec![byte; (arg >> 32) as usize % 9000];
                    let _ = live.copy_to_guest(arg % span, &data);
                }
                1 => {
                    let _ = live.write_u64(arg % span, arg);
                }
                2 => live.wipe(),
                3 => live.restore_from(&image),
                4 => {
                    let gfn = arg % (PAGES + 1);
                    let page = (byte & 1 == 1).then(|| vec![byte; 0x1000]);
                    drained.append(&mut live.take_dirty_pages());
                    live.set_page(gfn, page.as_deref());
                    at_drain.set_page(gfn, page.as_deref());
                    prop_assert!(live.take_dirty_pages().is_empty(), "set_page marked {gfn}");
                }
                _ => {
                    drained.append(&mut live.take_dirty_pages());
                    for gfn in 0..=PAGES {
                        prop_assert!(
                            live.page(gfn) == at_drain.page(gfn) || drained.contains(&gfn),
                            "frame {gfn} changed without being marked"
                        );
                    }
                    drained.clear();
                    at_drain = live.clone();
                }
            }
        }
    }
}

/// The recorded substrate the mutant-range partition property fuzzes
/// over — recorded once, shared across cases.
fn partition_trace() -> &'static iris_core::trace::RecordedTrace {
    static TRACE: OnceLock<iris_core::trace::RecordedTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        iris_fuzzer::target::record_trace(iris_guest::workloads::Workload::OsBoot, 120, 42)
    })
}

proptest! {
    // Each case boots one target per chunk, so keep the case count
    // modest — the partition space is low-dimensional anyway.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The per-range RNG law, stated as a property: for an **arbitrary**
    /// partition of a test case's mutant range into chunks, the merged
    /// `TestCaseResult` (coverage, stats, corpus — compared on
    /// serialized JSON) is byte-identical to the unchunked sequential
    /// run. This is the invariant `ParallelCampaign`'s chunk-granular
    /// work stealing rests on.
    #[test]
    fn chunked_partition_matches_unchunked(
        lens in proptest::collection::vec(1usize..12, 1..8),
        vmcs_area in any::<bool>(),
        rng_seed in any::<u64>(),
    ) {
        use iris_fuzzer::campaign::{assemble_test_case, run_mutant_range_with, run_test_case_with};
        use iris_fuzzer::corpus::Corpus;
        use iris_fuzzer::target::IrisHvTarget;
        use iris_fuzzer::testcase::{MutantRange, TestCase};

        let trace = partition_trace();
        let (reason, area) = if vmcs_area {
            (ExitReason::CrAccess, SeedArea::Vmcs) // crash-heavy cell
        } else {
            (ExitReason::Cpuid, SeedArea::Gpr) // coverage-heavy cell
        };
        let seed_index = trace
            .seeds
            .iter()
            .position(|s| s.reason == reason)
            .expect("reason present in the boot trace");
        let tc = TestCase {
            mutants: lens.iter().sum(),
            ..TestCase::new(
                iris_guest::workloads::Workload::OsBoot,
                seed_index,
                reason,
                area,
                rng_seed,
            )
        };
        let factory = IrisHvTarget::default();

        // Unchunked sequential reference.
        let mut ref_corpus = Corpus::new();
        let (ref_result, ref_cov) = run_test_case_with(&factory, &mut ref_corpus, trace, &tc);

        // The arbitrary partition, chunk by chunk on fresh targets.
        let mut outputs = Vec::new();
        let mut start = 0usize;
        for len in lens {
            outputs.push(run_mutant_range_with(&factory, trace, &tc, MutantRange { start, len }));
            start += len;
        }
        let mut corpus = Corpus::new();
        let (result, cov) = assemble_test_case(&tc, outputs, &mut corpus);

        prop_assert_eq!(
            serde_json::to_string(&result).expect("serializes"),
            serde_json::to_string(&ref_result).expect("serializes")
        );
        prop_assert_eq!(&cov, &ref_cov);
        prop_assert_eq!(
            serde_json::to_string(&corpus).expect("serializes"),
            serde_json::to_string(&ref_corpus).expect("serializes")
        );
    }
}

/// Workload generation is a pure function of (kind, count, seed).
#[test]
fn workload_generation_deterministic() {
    use iris_guest::workloads::Workload;
    for w in Workload::ALL {
        assert_eq!(w.generate(64, 3), w.generate(64, 3));
        assert_ne!(
            w.generate(64, 3),
            w.generate(64, 4),
            "{w:?} must vary with the seed"
        );
    }
}
