//! End-to-end tests of the `optimist` command-line binary, driven through
//! the real executable (`CARGO_BIN_EXE_optimist`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn optimist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optimist"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("optimist-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const SAMPLE: &str = "
      DOUBLE PRECISION FUNCTION CUBE(X)
      DOUBLE PRECISION X
      CUBE = X*X*X
      END
";

#[test]
fn no_arguments_is_a_usage_error() {
    let out = optimist(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}

#[test]
fn unknown_command_is_reported() {
    let out = optimist(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_evaluates_a_function() {
    let path = write_temp("cube.ft", SAMPLE);
    let out = optimist(&["run", path.to_str().unwrap(), "CUBE", "3.0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: 27"), "stdout: {stdout}");
    assert!(stdout.contains("cycles:"));
}

#[test]
fn compile_prints_ir_that_reloads() {
    let path = write_temp("cube2.ft", SAMPLE);
    let out = optimist(&["compile", path.to_str().unwrap()]);
    assert!(out.status.success());
    let ir_text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        ir_text.contains("func CUBE(v0:float) -> float {"),
        "{ir_text}"
    );

    // Reload the dump through the `.ir` path and run it.
    let ir_path = write_temp("cube2.ir", &ir_text);
    let out = optimist(&["run", ir_path.to_str().unwrap(), "CUBE", "2.0", "--no-opt"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("result: 8"));
}

#[test]
fn compare_prints_a_table_row_per_routine() {
    let path = write_temp("cube3.ft", SAMPLE);
    let out = optimist(&["compare", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CUBE"));
    assert!(stdout.contains("routine"));
}

#[test]
fn asm_lists_physical_registers() {
    let path = write_temp("cube4.ft", SAMPLE);
    let out = optimist(&["asm", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CUBE:"), "{stdout}");
    assert!(stdout.contains("mul.f"), "{stdout}");
    assert!(stdout.contains("f0"), "{stdout}");
}

#[test]
fn graph_emits_dot() {
    let path = write_temp("cube5.ft", SAMPLE);
    let out = optimist(&["graph", path.to_str().unwrap(), "--routine", "CUBE"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("graph interference {"), "{stdout}");
}

#[test]
fn compile_error_goes_to_stderr_with_line() {
    let path = write_temp("bad.ft", "SUBROUTINE S()\nX = @\nEND\n");
    let out = optimist(&["compile", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
}

#[test]
fn strategy_and_register_options_are_accepted() {
    let path = write_temp("cube6.ft", SAMPLE);
    let out = optimist(&[
        "allocate",
        path.to_str().unwrap(),
        "--strategy",
        "chaitin",
        "--float-regs",
        "4",
        "--remat",
        "--coalesce",
        "conservative",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("CUBE"));
}

#[test]
fn bad_option_is_reported() {
    // `--heuristic` was the pre-`Strategy` spelling of `--strategy`.
    for option in ["--bogus", "--heuristic"] {
        let out = optimist(&["allocate", "whatever.ft", option, "chaitin"]);
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option `{option}`")),
            "stderr: {err}"
        );
    }
}

/// A checked-in example program, by path from the package root.
fn example(name: &str) -> String {
    format!("{}/examples/ft/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn stdout_of(args: &[&str]) -> String {
    let out = optimist(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn duplicate_function_names_are_rejected() {
    // Two bodies under one name: the virtual run would take the first and
    // the allocated run the second, so the module is refused outright.
    let path = write_temp(
        "dup.ir",
        "func f(v0:int) -> int {\nb0:\n    v1 = add.i v0, v0\n    ret v1\n}\n\
         func f(v0:int) -> int {\nb0:\n    v1 = mul.i v0, v0\n    ret v1\n}\n",
    );
    let out = optimist(&["run", path.to_str().unwrap(), "f", "5"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("duplicate function `f`"), "stderr: {err}");
}

#[test]
fn an_index_past_the_function_text_is_refused() {
    // A parser that sized its register table by the largest index would
    // ask for 4·10⁹ entries here; the 2 GiB address-space cap turns such a
    // regression into a failed allocation instead of an exhausted host.
    let path = write_temp(
        "huge-index.ir",
        "func f(v0:int) -> int {\nb0:\n    v4000000000 = imm 1\n    ret v4000000000\n}\n",
    );
    let out = Command::new("sh")
        .args([
            "-c",
            r#"ulimit -v 2097152 && exec "$0" allocate "$1" --threads 1"#,
            env!("CARGO_BIN_EXE_optimist"),
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`v4000000000` is out of range for a 73-byte function"),
        "stderr: {err}"
    );
}

#[test]
fn allocate_output_does_not_depend_on_thread_flags() {
    let path = example("pressure.ft");
    let one = stdout_of(&["allocate", &path, "--threads", "1"]);
    assert!(one.contains("STENCIL"), "{one}");
    let four = stdout_of(&["allocate", &path, "--threads", "4"]);
    assert_eq!(four, one);
}

#[test]
fn run_output_does_not_depend_on_thread_flags() {
    let path = example("dotproduct.ft");
    let one = stdout_of(&["run", &path, "DEMO", "50", "--threads", "1"]);
    let four = stdout_of(&["run", &path, "DEMO", "50", "--threads", "4"]);
    assert!(one.contains("result:"), "{one}");
    assert_eq!(four, one);
}

#[test]
fn thread_budget_is_an_unknown_option() {
    let out = optimist(&["allocate", &example("pressure.ft"), "--thread-budget", "8"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown option `--thread-budget`"),
        "stderr: {err}"
    );
}

#[test]
fn incremental_is_an_unknown_option() {
    let out = optimist(&["allocate", &example("pressure.ft"), "--incremental"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown option `--incremental`"),
        "stderr: {err}"
    );
}

#[test]
fn graph_threads_is_an_unknown_option() {
    let out = optimist(&["allocate", &example("pressure.ft"), "--graph-threads", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown option `--graph-threads`"),
        "stderr: {err}"
    );
}

#[test]
fn register_counts_outside_a_register_index_are_usage_errors() {
    for (flag, count) in [
        ("--int-regs", "0"),
        ("--int-regs", "65537"),
        ("--float-regs", "0"),
        ("--float-regs", "65537"),
    ] {
        let out = optimist(&["allocate", &example("pressure.ft"), flag, count]);
        assert_eq!(out.status.code(), Some(1), "{flag} {count}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!(
                "bad {flag} `{count}` (expected an integer from 1 to 65536)"
            )),
            "{flag} {count}: {err}"
        );
    }
}
