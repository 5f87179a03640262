//! A seeded synthesizer for *giant* machine-kernel-shaped routines:
//! hundreds of basic blocks, deep loop nests, and high register pressure
//! (every accumulator is initialized up front and folded into the final
//! checksum, so all of them stay live across the whole body).
//!
//! This is the shared workload behind the `par_equivalence` differential
//! proptests and the serve crate's giant drill: intra-function
//! parallelism only matters on functions like these, where one routine
//! would otherwise serialize a module worker. Like
//! [`generate_routine`](crate::generate_routine), the output is closed
//! (no calls), terminates (counted `DO` loops with literal bounds, no
//! `GOTO`), and is a pure function of `(name, seed, config)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`giant_kernel`].
#[derive(Debug, Clone)]
pub struct GiantConfig {
    /// Loop-nest segments; each contributes roughly 6–12 basic blocks
    /// (two or three nested `DO` loops plus an `IF`/`ELSE` in the body).
    pub segments: usize,
    /// Integer accumulators, all simultaneously live across the body.
    pub int_vars: usize,
    /// Real accumulators, all simultaneously live across the body.
    pub real_vars: usize,
    /// Length of the scratch array.
    pub array_len: usize,
}

impl Default for GiantConfig {
    fn default() -> Self {
        GiantConfig {
            segments: 48,
            int_vars: 24,
            real_vars: 18,
            array_len: 32,
        }
    }
}

impl GiantConfig {
    /// A smaller kernel (~a third of the default block count) for debug
    /// test runs, still giant by corpus standards.
    pub fn small() -> Self {
        GiantConfig {
            segments: 14,
            int_vars: 18,
            real_vars: 12,
            array_len: 16,
        }
    }
}

/// Generate one giant FT routine named `name`, taking `(N, M)` integer
/// arguments and returning an integer checksum. Deterministic in `seed`.
pub fn giant_kernel(name: &str, seed: u64, cfg: &GiantConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let ki = |rng: &mut StdRng| rng.gen_range(1..=cfg.int_vars);
    let vi = |rng: &mut StdRng| rng.gen_range(1..=cfg.real_vars);

    let mut s = String::new();
    s.push_str(&format!("      INTEGER FUNCTION {name}(N, M)\n"));
    s.push_str("      INTEGER N, M, L1, L2, L3, CHK\n");
    let kvars: Vec<String> = (1..=cfg.int_vars).map(|i| format!("K{i}")).collect();
    for chunk in kvars.chunks(12) {
        s.push_str(&format!("      INTEGER {}\n", chunk.join(", ")));
    }
    let vvars: Vec<String> = (1..=cfg.real_vars).map(|i| format!("V{i}")).collect();
    for chunk in vvars.chunks(8) {
        s.push_str(&format!("      DOUBLE PRECISION {}\n", chunk.join(", ")));
    }
    s.push_str(&format!("      DOUBLE PRECISION A({})\n", cfg.array_len));

    // Every accumulator is defined before the first segment and consumed
    // by the checksum after the last, so all of them are live across every
    // segment: maxlive stays near int_vars + real_vars for the whole body.
    for i in 1..=cfg.int_vars {
        s.push_str(&format!("      K{i} = N*{} + {i}\n", i % 7 + 1));
    }
    for i in 1..=cfg.real_vars {
        s.push_str(&format!("      V{i} = FLOAT(M + {i})*0.25D0\n"));
    }
    s.push_str(&format!(
        "      DO 90 L1 = 1, {}\n        A(L1) = FLOAT(L1)*0.5D0\n   90 CONTINUE\n",
        cfg.array_len
    ));

    let mut label = 100u32;
    for seg in 0..cfg.segments {
        // Every fourth segment nests three deep; the rest two deep. Loop
        // bounds are small literals so the kernel still simulates quickly.
        let depth = if seg % 4 == 3 { 3 } else { 2 };
        let bounds: Vec<u32> = (0..depth).map(|_| rng.gen_range(2..5)).collect();
        let labels: Vec<u32> = (0..depth)
            .map(|_| {
                label += 10;
                label
            })
            .collect();
        for (d, (&l, &b)) in labels.iter().zip(&bounds).enumerate() {
            let pad = " ".repeat(6 + 2 * d);
            s.push_str(&format!("{pad}DO {l} L{} = 1, {b}\n", d + 1));
        }
        let pad = " ".repeat(6 + 2 * depth);

        // Straight-line updates touching several accumulators keep the
        // pressure high inside the nest.
        let (a, b, c) = (ki(&mut rng), ki(&mut rng), ki(&mut rng));
        s.push_str(&format!(
            "{pad}K{a} = K{a} + K{b}*{} - MOD(IABS(K{c}), {})\n",
            rng.gen_range(1..5),
            rng.gen_range(3..11),
        ));
        let (x, y) = (vi(&mut rng), vi(&mut rng));
        s.push_str(&format!(
            "{pad}V{x} = V{x} + V{y}*{:.2}D0 + A(MOD(IABS(K{a}), {}) + 1)\n",
            rng.gen_range(1..8) as f64 / 4.0,
            cfg.array_len,
        ));
        // A two-armed branch in the innermost body: every segment carries
        // control flow, not just loop structure.
        let (p, q, r) = (ki(&mut rng), ki(&mut rng), ki(&mut rng));
        let (u, w) = (vi(&mut rng), vi(&mut rng));
        s.push_str(&format!("{pad}IF (K{p} .GT. K{q}) THEN\n"));
        s.push_str(&format!(
            "{pad}  K{r} = K{r} + L1*{}\n",
            rng.gen_range(1..4)
        ));
        s.push_str(&format!(
            "{pad}  A(MOD(IABS(K{r}), {}) + 1) = V{u} + FLOAT(L1)\n",
            cfg.array_len
        ));
        s.push_str(&format!("{pad}ELSE\n"));
        s.push_str(&format!(
            "{pad}  V{w} = V{w} - A(MOD(IABS(K{p}), {}) + 1)*0.125D0\n",
            cfg.array_len
        ));
        s.push_str(&format!("{pad}ENDIF\n"));

        for (d, &l) in labels.iter().enumerate().rev() {
            let _ = d;
            s.push_str(&format!("   {l} CONTINUE\n"));
        }
    }

    // Fold every accumulator into the checksum: this is what forces them
    // all to stay live to the end.
    s.push_str("      CHK = 0\n");
    for i in 1..=cfg.int_vars {
        s.push_str(&format!("      CHK = CHK*31 + MOD(IABS(K{i}), 1009)\n"));
    }
    for i in 1..=cfg.real_vars {
        s.push_str(&format!("      CHK = CHK*17 + MOD(IABS(INT(V{i})), 257)\n"));
    }
    s.push_str(&format!("      {name} = CHK\n"));
    s.push_str("      END\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_frontend::compile;
    use optimist_sim::{run_virtual, ExecOptions, Scalar};

    #[test]
    fn giant_kernels_compile_and_run() {
        for seed in [0u64, 1, 42] {
            let src = giant_kernel("GIANT", seed, &GiantConfig::small());
            let m = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            optimist_ir::verify_module(&m)
                .unwrap_or_else(|e| panic!("seed {seed}: invalid IR: {e}"));
            let r = run_virtual(
                &m,
                "GIANT",
                &[Scalar::Int(3), Scalar::Int(4)],
                &ExecOptions::default(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: trap {e}"));
            assert!(matches!(r.ret, Some(Scalar::Int(_))));
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = GiantConfig::default();
        assert_eq!(giant_kernel("G", 9, &cfg), giant_kernel("G", 9, &cfg));
        assert_ne!(giant_kernel("G", 9, &cfg), giant_kernel("G", 10, &cfg));
    }

    #[test]
    fn default_config_is_actually_giant() {
        // Hundreds of blocks worth of structure: each segment opens at
        // least two DO loops and one IF. Count the source constructs here;
        // the par_equivalence suite checks the compiled CFG's block count.
        let src = giant_kernel("G", 0, &GiantConfig::default());
        let dos = src.matches("DO ").count();
        let ifs = src.matches("IF (").count();
        assert!(dos >= 100, "{dos} DO loops");
        assert!(ifs >= 48, "{ifs} IFs");
    }
}
