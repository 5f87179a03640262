//! The content-address contract: names never matter, allocation-relevant
//! knobs always do, and the LRU respects its capacity.

use optimist_frontend::compile_or_panic;
use optimist_ir::{RegClass, VReg};
use optimist_machine::Target;
use optimist_regalloc::{AllocatorConfig, CoalesceMode, SpillMetric, Strategy};
use optimist_serve::{cache_key, ShardedLru};
use std::sync::Arc;

const SRC: &str = "
FUNCTION POLY(A, B)
  INTEGER POLY, A, B, S, T
  S = A * A + B
  T = S * B - A
  POLY = S * T
END
";

#[test]
fn alpha_renaming_preserves_the_key() {
    let module = compile_or_panic(SRC);
    let f = &module.functions()[0];
    let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let base = cache_key(f, &config);

    let mut renamed = f.clone();
    for i in 0..renamed.num_vregs() as u32 {
        renamed.rename_vreg(VReg::new(i), format!("☃.{i}"));
    }
    assert_eq!(cache_key(&renamed, &config), base);
}

#[test]
fn never_spill_flag_changes_the_key() {
    // Names are stripped from the address, but allocation-relevant register
    // state is not.
    let module = compile_or_panic(SRC);
    let f = &module.functions()[0];
    let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let mut pinned = f.clone();
    pinned.set_spillable(VReg::new(0), false);
    assert_ne!(cache_key(&pinned, &config), cache_key(f, &config));
}

#[test]
fn every_result_relevant_knob_changes_the_key() {
    let module = compile_or_panic(SRC);
    let f = &module.functions()[0];
    let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);

    let variants = [
        AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin),
        AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
        AllocatorConfig::new(Target::custom("odd", 16, 4), Strategy::Briggs),
        base.clone().with_coalesce(CoalesceMode::Off),
        base.clone().with_coalesce(CoalesceMode::Conservative),
        base.clone().with_spill_metric(SpillMetric::Cost),
        base.clone().with_rematerialize(true),
    ];
    let base_key = cache_key(f, &base);
    let mut seen = vec![base_key];
    for (i, v) in variants.iter().enumerate() {
        let k = cache_key(f, v);
        assert!(!seen.contains(&k), "variant {i} collided");
        seen.push(k);
    }
}

#[test]
fn max_passes_is_not_part_of_the_key() {
    // The pass bound caps iteration but never changes a converged result,
    // so requests that differ only in `max_passes` share an address. The
    // serving layer answers bound-sensitive questions by comparing the
    // request's bound against the cached entry's pass count.
    let module = compile_or_panic(SRC);
    let f = &module.functions()[0];
    let tight = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs).with_max_passes(1);
    let loose = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs).with_max_passes(64);
    assert_eq!(cache_key(f, &tight), cache_key(f, &loose));
}

#[test]
fn lru_never_exceeds_capacity_and_evicts_oldest() {
    let lru: ShardedLru<u64> = ShardedLru::new(8, 2);
    for k in 0..100u64 {
        lru.insert(k, Arc::new(k));
        assert!(lru.len() <= lru.capacity(), "after insert {k}");
    }
    // The most recent insert into its shard must still be resident.
    assert!(lru.get(99).is_some());
}

#[test]
fn different_functions_disagree() {
    // Sanity: the address actually depends on the code.
    let module = compile_or_panic(
        "
FUNCTION ONE(A)
  INTEGER ONE, A
  ONE = A + 1
END
FUNCTION TWO(A)
  INTEGER TWO, A
  TWO = A + 2
END
",
    );
    let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let keys: Vec<u64> = module
        .functions()
        .iter()
        .map(|f| cache_key(f, &config))
        .collect();
    assert_ne!(keys[0], keys[1]);

    // RegClass is allocation-relevant even for an otherwise-identical body.
    let f = &module.functions()[0];
    let mut float = f.clone();
    let table: Vec<_> = (0..float.num_vregs())
        .map(|i| {
            let mut d = float.vreg(VReg::new(i as u32)).clone();
            d.class = RegClass::Float;
            d
        })
        .collect();
    float.set_vreg_table(table);
    assert_ne!(cache_key(&float, &config), cache_key(f, &config));
}

/// The inputs whose keys [`cache_keys_are_pinned`] fixes, in order: the
/// first function of each corpus program under Briggs at rt-pc and under
/// SSA at `custom("x", 5, 2)`, one α-renamed function, and one allocated
/// output that carries spill slots and never-spill temporaries.
fn pinned_inputs() -> Vec<(String, u64)> {
    let briggs = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let ssa = AllocatorConfig::new(Target::custom("x", 5, 2), Strategy::Ssa);
    let mut keys = Vec::new();
    for p in optimist_workloads::programs() {
        let module = optimist_frontend::compile(&p.source).expect("corpus compiles");
        let f = &module.functions()[0];
        keys.push((
            format!("{} {} briggs", p.name, f.name()),
            cache_key(f, &briggs),
        ));
        keys.push((format!("{} {} ssa", p.name, f.name()), cache_key(f, &ssa)));
    }

    let module = compile_or_panic(SRC);
    let mut renamed = module.functions()[0].clone();
    for i in 0..renamed.num_vregs() as u32 {
        renamed.rename_vreg(VReg::new(i), format!("r\"{i}\\"));
    }
    keys.push(("POLY renamed".into(), cache_key(&renamed, &briggs)));

    let p = optimist_workloads::program("SVD").expect("SVD is in the corpus");
    let module = optimist_frontend::compile(&p.source).expect("corpus compiles");
    let tight = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let out = optimist_regalloc::allocate(&module.functions()[0], &tight)
        .expect("SVD allocates at rt-pc")
        .func;
    assert!(
        (0..out.num_slots()).any(|s| out.slot(optimist_ir::FrameSlot::new(s as u32)).is_spill),
        "the allocated output must carry spill slots"
    );
    assert!(
        (0..out.num_vregs()).any(|v| !out.vreg(VReg::new(v as u32)).spillable),
        "the allocated output must carry never-spill temporaries"
    );
    keys.push(("SVD allocated at rt-pc".into(), cache_key(&out, &briggs)));
    keys
}

/// Keys of [`pinned_inputs`], taken before the key was streamed.
const PINNED: [(&str, u64); 16] = [
    ("SVD SVD briggs", 0x57fc_6642_e526_7155),
    ("SVD SVD ssa", 0xfd50_f20e_a165_b891),
    ("LINPACK EPSLON briggs", 0xca4b_00e1_6b0b_082a),
    ("LINPACK EPSLON ssa", 0x1c4a_5dff_b3d2_7082),
    ("SIMPLEX VALUE briggs", 0xe79c_fe37_5242_592f),
    ("SIMPLEX VALUE ssa", 0x15b2_bc04_4cb1_4fab),
    ("EULER SHOCK briggs", 0x8756_f5e7_1e28_9b97),
    ("EULER SHOCK ssa", 0x888b_d9c9_5862_f403),
    ("CEDETA DQRDC briggs", 0x34f4_c58c_88ef_52fa),
    ("CEDETA DQRDC ssa", 0x5221_0d36_44ad_bc52),
    ("INTEGER HEAPSORT briggs", 0x318b_f6eb_2032_bcac),
    ("INTEGER HEAPSORT ssa", 0x350c_9069_c803_ebac),
    ("QUICKSORT QSORT briggs", 0xfc3c_1cb0_67d8_38ab),
    ("QUICKSORT QSORT ssa", 0x56c0_077f_9aa0_feb7),
    ("POLY renamed", 0xf15a_bd35_ef01_c75d),
    ("SVD allocated at rt-pc", 0xa781_89e2_7a6c_b8d2),
];

#[test]
fn cache_keys_are_pinned() {
    // Persisted store records and every peer's entries are addressed by
    // these exact bits: a printer change that moves one orphans them all.
    // Like `classic_fingerprints_are_pinned`, they change only together
    // with a `SCHEMA_VERSION` bump.
    let keys = pinned_inputs();
    assert_eq!(keys.len(), PINNED.len());
    for ((what, key), (pinned_what, pinned)) in keys.iter().zip(PINNED) {
        assert_eq!(what, pinned_what);
        assert_eq!(*key, pinned, "{what}: key 0x{key:016x} moved");
    }
}
