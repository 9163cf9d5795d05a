//! FL: a small C-like language compiled to FVM modules.
//!
//! FL is the reproduction's untrusted guest toolchain — the stand-in for the
//! paper's LLVM C/C++→WebAssembly pipeline (Fig. 3). Guest workloads
//! (Polybench kernels, SGD inner loops, example functions) are written in
//! FL, compiled to module binaries on the "user side", uploaded, and then
//! re-validated by the trusted runtime.
//!
//! # Language summary
//!
//! * Types: `int` (i32), `long` (i64), `float` (f32), `double` (f64),
//!   `ptr T` (a typed 32-bit address into linear memory), `void`.
//! * Items: `extern` declarations (imports from the Faaslet host interface,
//!   Tab. 2) and function definitions (all exported by name).
//! * Statements: declarations, assignment, pointer stores `p[i] = v`,
//!   `if`/`else`, `while`, `for`, `return`, `break`, `continue`, blocks.
//! * Expressions: arithmetic, comparisons, bitwise ops, short-circuit
//!   `&&`/`||`, pointer indexing `p[i]` and scaled pointer arithmetic,
//!   C-style casts, calls, and intrinsics (`memsize`, `memgrow`, `memcopy`,
//!   `memfill`, `sqrt`, `fabs`, `floor`, `ceil`, `fmin`, `fmax`).
//! * Strict typing: no implicit conversions; falling off a non-`void`
//!   function traps.
//!
//! # Examples
//!
//! ```
//! use faasm_fvm::prelude::*;
//!
//! let src = r#"
//!     int fib(int n) {
//!         if (n < 2) { return n; }
//!         return fib(n - 1) + fib(n - 2);
//!     }
//! "#;
//! let module = faasm_lang::compile(src).unwrap();
//! let object = ObjectModule::prepare(module).unwrap();
//! let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
//! assert_eq!(inst.invoke("fib", &[Val::I32(10)]).unwrap(), Some(Val::I32(55)));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod error;
pub mod parser;
pub mod token;

pub use codegen::{compile, compile_with, MemConfig};
pub use error::{CompileError, Phase, Pos};
pub use parser::parse;

#[cfg(test)]
mod tests {
    use super::*;
    use faasm_fvm::prelude::*;

    /// Compile FL, prepare, instantiate, and invoke `name` with `args`.
    fn run(src: &str, name: &str, args: &[Val]) -> Result<Option<Val>, Trap> {
        let module = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
        let object = ObjectModule::prepare(module).expect("FL output must validate");
        let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
        inst.invoke(name, args)
    }

    #[test]
    fn arithmetic_and_calls() {
        let src = r#"
            int square(int x) { return x * x; }
            int f(int a, int b) { return square(a) + square(b); }
        "#;
        assert_eq!(
            run(src, "f", &[Val::I32(3), Val::I32(4)]).unwrap(),
            Some(Val::I32(25))
        );
    }

    #[test]
    fn recursion_works() {
        let src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        assert_eq!(
            run(src, "fact", &[Val::I32(6)]).unwrap(),
            Some(Val::I32(720))
        );
    }

    #[test]
    fn while_loop_and_assignment() {
        let src = r#"
            int sum_to(int n) {
                int acc = 0;
                int i = 1;
                while (i <= n) {
                    acc = acc + i;
                    i = i + 1;
                }
                return acc;
            }
        "#;
        assert_eq!(
            run(src, "sum_to", &[Val::I32(100)]).unwrap(),
            Some(Val::I32(5050))
        );
    }

    #[test]
    fn for_loop_with_break_continue() {
        let src = r#"
            int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    if (i > 10) { break; }
                    acc = acc + i;
                }
                return acc;
            }
        "#;
        // 1 + 3 + 5 + 7 + 9 = 25.
        assert_eq!(run(src, "f", &[Val::I32(100)]).unwrap(), Some(Val::I32(25)));
    }

    #[test]
    fn nested_loops_with_break() {
        let src = r#"
            int f(int n) {
                int count = 0;
                for (int i = 0; i < n; i = i + 1) {
                    for (int j = 0; j < n; j = j + 1) {
                        if (j > i) { break; }
                        count = count + 1;
                    }
                }
                return count;
            }
        "#;
        // sum over i of (i+1) = n(n+1)/2.
        assert_eq!(run(src, "f", &[Val::I32(5)]).unwrap(), Some(Val::I32(15)));
    }

    #[test]
    fn doubles_and_intrinsics() {
        let src = r#"
            double hyp(double a, double b) {
                return sqrt(a * a + b * b);
            }
        "#;
        assert_eq!(
            run(src, "hyp", &[Val::F64(3.0), Val::F64(4.0)]).unwrap(),
            Some(Val::F64(5.0))
        );
    }

    #[test]
    fn pointers_index_memory() {
        let src = r#"
            double sum(ptr double a, int n) {
                double acc = 0.0;
                for (int i = 0; i < n; i = i + 1) {
                    acc = acc + a[i];
                }
                return acc;
            }
            void fill(ptr double a, int n) {
                for (int i = 0; i < n; i = i + 1) {
                    a[i] = (double) i;
                }
            }
        "#;
        let module = compile(src).unwrap();
        let object = ObjectModule::prepare(module).unwrap();
        let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
        inst.invoke("fill", &[Val::I32(64), Val::I32(10)]).unwrap();
        let r = inst.invoke("sum", &[Val::I32(64), Val::I32(10)]).unwrap();
        assert_eq!(r, Some(Val::F64(45.0)));
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let src = r#"
            double second(ptr double a) {
                ptr double b = a + 1;
                return b[0];
            }
        "#;
        let module = compile(src).unwrap();
        let object = ObjectModule::prepare(module).unwrap();
        let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
        inst.memory_mut().unwrap().write_f64(8, 7.5).unwrap();
        assert_eq!(
            inst.invoke("second", &[Val::I32(0)]).unwrap(),
            Some(Val::F64(7.5))
        );
    }

    #[test]
    fn casts() {
        let src = r#"
            double mix(int a, long b, float c) {
                return (double) a + (double) b + (double) c;
            }
            int down(double x) { return (int) x; }
        "#;
        assert_eq!(
            run(src, "mix", &[Val::I32(1), Val::I64(2), Val::F32(0.5)]).unwrap(),
            Some(Val::F64(3.5))
        );
        assert_eq!(
            run(src, "down", &[Val::F64(9.99)]).unwrap(),
            Some(Val::I32(9))
        );
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the right of && must not execute when the left
        // is false.
        let src = r#"
            int f(int a, int b) {
                if (a != 0 && 10 / a > b) { return 1; }
                return 0;
            }
        "#;
        assert_eq!(
            run(src, "f", &[Val::I32(0), Val::I32(1)]).unwrap(),
            Some(Val::I32(0))
        );
        assert_eq!(
            run(src, "f", &[Val::I32(2), Val::I32(1)]).unwrap(),
            Some(Val::I32(1))
        );
    }

    #[test]
    fn logical_ops_normalise_to_bool() {
        let src = "int f(int a, int b) { return a && b; }";
        assert_eq!(
            run(src, "f", &[Val::I32(7), Val::I32(9)]).unwrap(),
            Some(Val::I32(1))
        );
        let src = "int f(int a, int b) { return a || b; }";
        assert_eq!(
            run(src, "f", &[Val::I32(0), Val::I32(9)]).unwrap(),
            Some(Val::I32(1))
        );
        assert_eq!(
            run(src, "f", &[Val::I32(0), Val::I32(0)]).unwrap(),
            Some(Val::I32(0))
        );
        let src = "int f(int a) { return !a; }";
        assert_eq!(run(src, "f", &[Val::I32(5)]).unwrap(), Some(Val::I32(0)));
    }

    #[test]
    fn extern_host_calls() {
        let src = r#"
            extern int get_magic(int seed);
            int f(int x) { return get_magic(x) + 1; }
        "#;
        let module = compile(src).unwrap();
        let object = ObjectModule::prepare(module).unwrap();
        let mut linker = Linker::new();
        linker.define_fn("faasm", "get_magic", |_ctx, args| {
            Ok(vec![Val::I32(args[0].as_i32().unwrap() * 10)])
        });
        let mut inst = Instance::new(object, &linker, Box::new(())).unwrap();
        assert_eq!(
            inst.invoke("f", &[Val::I32(4)]).unwrap(),
            Some(Val::I32(41))
        );
    }

    #[test]
    fn memory_intrinsics() {
        let src = r#"
            int grow_and_report(int pages) {
                int old = memgrow(pages);
                if (old < 0) { return -1; }
                return memsize();
            }
        "#;
        assert_eq!(
            run(src, "grow_and_report", &[Val::I32(2)]).unwrap(),
            Some(Val::I32(6)),
            "default initial is 4 pages"
        );
    }

    #[test]
    fn memfill_and_memcopy() {
        let src = r#"
            int f() {
                memfill(0, 65, 8);
                memcopy(16, 0, 8);
                ptr int p = (ptr int) 16;
                return p[0];
            }
        "#;
        // 0x41414141.
        assert_eq!(run(src, "f", &[]).unwrap(), Some(Val::I32(0x4141_4141)));
    }

    #[test]
    fn shadowing_in_inner_scopes() {
        let src = r#"
            int f() {
                int x = 1;
                {
                    int x = 2;
                    x = x + 1;
                }
                return x;
            }
        "#;
        assert_eq!(run(src, "f", &[]).unwrap(), Some(Val::I32(1)));
    }

    #[test]
    fn missing_return_traps() {
        let src = "int f(int x) { if (x > 0) { return 1; } }";
        assert_eq!(run(src, "f", &[Val::I32(-1)]), Err(Trap::Unreachable));
        assert_eq!(run(src, "f", &[Val::I32(5)]).unwrap(), Some(Val::I32(1)));
    }

    #[test]
    fn long_arithmetic() {
        let src = "long f(long a, long b) { return a * b + 1L; }";
        assert_eq!(
            run(src, "f", &[Val::I64(1 << 40), Val::I64(4)]).unwrap(),
            Some(Val::I64((1i64 << 42) + 1))
        );
    }

    // ── Error cases ────────────────────────────────────────────────────

    fn compile_err(src: &str) -> CompileError {
        compile(src).unwrap_err()
    }

    #[test]
    fn type_mismatch_rejected() {
        let e = compile_err("int f() { return 1.5; }");
        assert!(e.msg.contains("return type double"));
    }

    #[test]
    fn unknown_variable_rejected() {
        let e = compile_err("int f() { return y; }");
        assert!(e.msg.contains("unknown variable"));
    }

    #[test]
    fn unknown_function_rejected() {
        let e = compile_err("int f() { return g(); }");
        assert!(e.msg.contains("unknown function"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = compile_err("int g(int x) { return x; } int f() { return g(); }");
        assert!(e.msg.contains("expects 1 arguments"));
    }

    #[test]
    fn argument_type_mismatch_rejected() {
        let e = compile_err("int g(int x) { return x; } int f() { return g(1L); }");
        assert!(e.msg.contains("expected int"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = compile_err("void f() { break; }");
        assert!(e.msg.contains("break outside loop"));
    }

    #[test]
    fn continue_outside_loop_rejected() {
        let e = compile_err("void f() { continue; }");
        assert!(e.msg.contains("continue outside loop"));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let e = compile_err("void f() { int x = 1; int x = 2; }");
        assert!(e.msg.contains("already declared"));
    }

    #[test]
    fn duplicate_function_rejected() {
        let e = compile_err("void f() {} void f() {}");
        assert!(e.msg.contains("duplicate definition"));
    }

    #[test]
    fn void_variable_rejected() {
        let e = compile_err("void f() { void x; }");
        assert!(e.msg.contains("void variable"));
    }

    #[test]
    fn mixed_type_operands_rejected() {
        let e = compile_err("int f(int a, long b) { return a + b; }");
        assert!(e.msg.contains("different types"));
    }

    #[test]
    fn indexing_non_pointer_rejected() {
        let e = compile_err("int f(int a) { return a[0]; }");
        assert!(e.msg.contains("requires a ptr"));
    }

    #[test]
    fn condition_must_be_int() {
        let e = compile_err("void f(double x) { if (x) { } }");
        assert!(e.msg.contains("condition must be int"));
    }

    #[test]
    fn void_return_with_value_rejected() {
        let e = compile_err("void f() { return 1; }");
        assert!(e.msg.contains("void function"));
    }

    #[test]
    fn fl_output_always_validates() {
        // A torture program exercising every construct; the generated module
        // must pass the FVM validator.
        let src = r#"
            extern void noop();
            double torture(int n, ptr double data) {
                double acc = 0.0;
                long big = 1L;
                for (int i = 0; i < n; i = i + 1) {
                    int j = 0;
                    while (j < 4) {
                        if ((i & 1) == 0 && j > 0 || i == 3) {
                            acc = acc + data[i] * 2.0;
                        } else {
                            acc = acc - 0.5;
                        }
                        j = j + 1;
                        if (j == 3) { continue; }
                        if (acc > 1000.0) { break; }
                    }
                    big = big * 2L;
                    data[i] = acc + (double) big;
                    noop();
                }
                return fmax(acc, fabs(-1.0));
            }
        "#;
        let module = compile(src).unwrap();
        faasm_fvm::validate(&module).expect("FL output must pass validation");
    }
}
