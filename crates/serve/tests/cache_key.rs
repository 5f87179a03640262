//! The content-address contract: names never matter, allocation-relevant
//! knobs always do, and the LRU respects its capacity.

use optimist_frontend::compile_or_panic;
use optimist_ir::{RegClass, VReg};
use optimist_machine::Target;
use optimist_regalloc::{AllocatorConfig, CoalesceMode, SpillMetric, Strategy};
use optimist_serve::{cache_key, ShardedLru};
use std::num::NonZeroUsize;
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
fn thread_count_is_not_part_of_the_key() {
    // Scheduling does not change results, so requests that differ only in
    // intra-function threads share an address.
    let module = compile_or_panic(SRC);
    let f = &module.functions()[0];
    let one = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let eight = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)
        .with_graph_threads(NonZeroUsize::new(8).unwrap());
    assert_eq!(cache_key(f, &one), cache_key(f, &eight));
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
