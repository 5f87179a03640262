//! IRC's peak memory against Briggs's on the N-value clique: a function
//! that defines N constants and then sums them, so all N are live at once
//! and the interference graph grows with N². IRC's engine works in the
//! graph `allocate` built and select colors that same graph, so at its
//! peak IRC holds one graph, as Briggs does.
//!
//! Peak growth is read from this process's `VmHWM` (Linux only). The test
//! is alone in its binary, so no other test's allocations share the mark.

#![cfg(target_os = "linux")]

use optimist::ir::{BinOp, Function, FunctionBuilder, RegClass};
use optimist::machine::Target;
use optimist::regalloc::{allocate, AllocatorConfig, Strategy};

/// The clique size: ROADMAP item 8's 4,000 in release, smaller in debug
/// builds so `cargo test` stays fast.
const N: usize = if cfg!(debug_assertions) { 1_500 } else { 4_000 };

fn clique(n: usize) -> Function {
    let mut b = FunctionBuilder::new(format!("clique{n}"));
    b.set_ret_class(Some(RegClass::Int));
    let vals: Vec<_> = (0..n).map(|i| b.int(i as i64)).collect();
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.binv(BinOp::AddI, acc, v);
    }
    b.ret(Some(acc));
    b.finish()
}

/// A `kB` field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reads /proc/self/status");
    status
        .lines()
        .find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value.trim().strip_suffix("kB")?.trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Peak RSS growth of one allocation of `f` under `strategy`, in KiB: the
/// high-water mark after it less the resident size before it. When an
/// earlier, higher peak hides this one, the figure is an upper bound.
fn peak_growth_kib(f: &Function, strategy: Strategy) -> u64 {
    let before = status_kib("VmRSS");
    let alloc = allocate(f, &AllocatorConfig::new(Target::rt_pc(), strategy)).expect("allocates");
    let peak = status_kib("VmHWM");
    drop(alloc);
    peak.saturating_sub(before)
}

#[test]
fn irc_peak_growth_is_at_most_a_quarter_above_briggs() {
    let f = clique(N);
    let briggs = peak_growth_kib(&f, Strategy::Briggs);
    let irc = peak_growth_kib(&f, Strategy::Irc);
    eprintln!(
        "N = {N}: peak RSS growth Briggs {} MiB, IRC {} MiB ({:.2}x)",
        briggs / 1024,
        irc / 1024,
        irc as f64 / briggs as f64
    );
    assert!(
        irc * 4 <= briggs * 5,
        "IRC grew peak RSS by {irc} KiB, more than 1.25x Briggs's {briggs} KiB"
    );
}
