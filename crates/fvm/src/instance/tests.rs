//! Interpreter behaviour tests: arithmetic, control flow, traps, host calls,
//! memory, fuel and snapshots.

use super::*;
use crate::instr::{BrTableData, Instr, Instr::*, MemArg};
use crate::module::ModuleBuilder;
use crate::object::ExecTier;
use crate::types::{BlockType, FuncType, ValType::*};

/// Build and validate a single-function module exporting `f`, and invoke
/// it on both tiers: the result (bitwise) and the fuel must agree.
fn run1(
    params: Vec<crate::types::ValType>,
    results: Vec<crate::types::ValType>,
    locals: Vec<crate::types::ValType>,
    body: Vec<Instr>,
    args: &[Val],
) -> Result<Option<Val>, Trap> {
    let mut b = ModuleBuilder::new();
    b.memory(1, 4);
    let sig = b.sig(FuncType::new(params, results));
    let f = b.func(sig, locals, body);
    b.export_func("f", f);
    let module = b.build();
    let [interp, lowered] = [ExecTier::Interpreter, ExecTier::Lowered].map(|tier| {
        let object = ObjectModule::prepare_tier(module.clone(), tier).unwrap();
        assert_eq!(object.is_lowered(), tier == ExecTier::Lowered, "{tier:?}");
        let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
        let result = inst.invoke("f", args);
        let bits = result.clone().map(|v| v.map(Val::to_slot));
        (result, bits, inst.fuel.consumed())
    });
    assert_eq!(
        (&interp.1, interp.2),
        (&lowered.1, lowered.2),
        "tiers differ"
    );
    interp.0
}

fn eval_i32(body: Vec<Instr>) -> Result<i32, Trap> {
    run1(vec![], vec![I32], vec![], body, &[]).map(|v| v.unwrap().as_i32().unwrap())
}

fn eval_i64(body: Vec<Instr>) -> Result<i64, Trap> {
    run1(vec![], vec![I64], vec![], body, &[]).map(|v| v.unwrap().as_i64().unwrap())
}

fn eval_f64(body: Vec<Instr>) -> Result<f64, Trap> {
    run1(vec![], vec![F64], vec![], body, &[]).map(|v| v.unwrap().as_f64().unwrap())
}

#[test]
fn constants_and_arithmetic() {
    assert_eq!(
        eval_i32(vec![I32Const(2), I32Const(3), I32Add, End]).unwrap(),
        5
    );
    assert_eq!(
        eval_i32(vec![I32Const(2), I32Const(3), I32Sub, End]).unwrap(),
        -1
    );
    assert_eq!(
        eval_i32(vec![I32Const(7), I32Const(6), I32Mul, End]).unwrap(),
        42
    );
    assert_eq!(
        eval_i32(vec![I32Const(i32::MAX), I32Const(1), I32Add, End]).unwrap(),
        i32::MIN,
        "wrapping add"
    );
    assert_eq!(
        eval_i64(vec![I64Const(1), I64Const(2), I64Add, End]).unwrap(),
        3
    );
    assert_eq!(
        eval_f64(vec![F64Const(1.5), F64Const(2.0), F64Mul, End]).unwrap(),
        3.0
    );
}

#[test]
fn division_semantics() {
    assert_eq!(
        eval_i32(vec![I32Const(7), I32Const(2), I32DivS, End]).unwrap(),
        3
    );
    assert_eq!(
        eval_i32(vec![I32Const(-7), I32Const(2), I32DivS, End]).unwrap(),
        -3
    );
    assert_eq!(
        eval_i32(vec![I32Const(-1), I32Const(2), I32DivU, End]).unwrap(),
        0x7fff_ffff
    );
    assert_eq!(
        eval_i32(vec![I32Const(-7), I32Const(2), I32RemS, End]).unwrap(),
        -1
    );
    assert_eq!(
        eval_i32(vec![I32Const(1), I32Const(0), I32DivS, End]),
        Err(Trap::IntegerDivideByZero)
    );
    assert_eq!(
        eval_i32(vec![I32Const(i32::MIN), I32Const(-1), I32DivS, End]),
        Err(Trap::IntegerOverflow)
    );
    // i32::MIN % -1 == 0, no trap (WebAssembly semantics).
    assert_eq!(
        eval_i32(vec![I32Const(i32::MIN), I32Const(-1), I32RemS, End]).unwrap(),
        0
    );
    assert_eq!(
        eval_i64(vec![I64Const(i64::MIN), I64Const(-1), I64DivS, End]),
        Err(Trap::IntegerOverflow)
    );
}

#[test]
fn shifts_mask_their_count() {
    assert_eq!(
        eval_i32(vec![I32Const(1), I32Const(33), I32Shl, End]).unwrap(),
        2
    );
    assert_eq!(
        eval_i32(vec![I32Const(-8), I32Const(1), I32ShrS, End]).unwrap(),
        -4
    );
    assert_eq!(
        eval_i32(vec![I32Const(-8), I32Const(1), I32ShrU, End]).unwrap(),
        0x7fff_fffc
    );
    assert_eq!(
        eval_i64(vec![I64Const(1), I64Const(65), I64Shl, End]).unwrap(),
        2
    );
}

#[test]
fn bit_counting() {
    assert_eq!(eval_i32(vec![I32Const(0), I32Clz, End]).unwrap(), 32);
    assert_eq!(eval_i32(vec![I32Const(1), I32Clz, End]).unwrap(), 31);
    assert_eq!(eval_i32(vec![I32Const(8), I32Ctz, End]).unwrap(), 3);
    assert_eq!(eval_i32(vec![I32Const(0xff), I32Popcnt, End]).unwrap(), 8);
    assert_eq!(eval_i64(vec![I64Const(0), I64Clz, End]).unwrap(), 64);
}

#[test]
fn comparisons() {
    assert_eq!(
        eval_i32(vec![I32Const(1), I32Const(2), I32LtS, End]).unwrap(),
        1
    );
    assert_eq!(
        eval_i32(vec![I32Const(-1), I32Const(2), I32LtU, End]).unwrap(),
        0
    );
    assert_eq!(eval_i32(vec![I32Const(5), I32Eqz, End]).unwrap(), 0);
    assert_eq!(eval_i32(vec![I32Const(0), I32Eqz, End]).unwrap(), 1);
    assert_eq!(
        eval_i32(vec![F64Const(f64::NAN), F64Const(1.0), F64Lt, End]).unwrap(),
        0,
        "NaN comparisons are false"
    );
    assert_eq!(
        eval_i32(vec![F64Const(f64::NAN), F64Const(1.0), F64Ne, End]).unwrap(),
        1
    );
}

#[test]
fn float_min_max_nan_and_zero() {
    assert!(
        eval_f64(vec![F64Const(f64::NAN), F64Const(1.0), F64Min, End])
            .unwrap()
            .is_nan()
    );
    assert_eq!(
        eval_f64(vec![F64Const(-0.0), F64Const(0.0), F64Min, End])
            .unwrap()
            .to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(
        eval_f64(vec![F64Const(-0.0), F64Const(0.0), F64Max, End])
            .unwrap()
            .to_bits(),
        (0.0f64).to_bits()
    );
    assert_eq!(
        eval_f64(vec![F64Const(3.0), F64Const(2.0), F64Min, End]).unwrap(),
        2.0
    );
    // Equal non-zero operands must return the value itself (regression:
    // an early implementation returned 0 for any equal pair).
    assert_eq!(
        eval_f64(vec![F64Const(1.0), F64Const(1.0), F64Max, End]).unwrap(),
        1.0
    );
    assert_eq!(
        eval_f64(vec![F64Const(-2.5), F64Const(-2.5), F64Min, End]).unwrap(),
        -2.5
    );
    assert_eq!(
        eval_f64(vec![F64Const(7.0), F64Const(7.0), F64Min, End]).unwrap(),
        7.0
    );
    assert_eq!(
        eval_f64(vec![F64Const(-3.0), F64Const(-3.0), F64Max, End]).unwrap(),
        -3.0
    );
}

#[test]
fn float_rounding() {
    assert_eq!(eval_f64(vec![F64Const(2.5), F64Nearest, End]).unwrap(), 2.0);
    assert_eq!(eval_f64(vec![F64Const(3.5), F64Nearest, End]).unwrap(), 4.0);
    assert_eq!(eval_f64(vec![F64Const(-1.5), F64Ceil, End]).unwrap(), -1.0);
    assert_eq!(eval_f64(vec![F64Const(-1.5), F64Floor, End]).unwrap(), -2.0);
    assert_eq!(eval_f64(vec![F64Const(-1.7), F64Trunc, End]).unwrap(), -1.0);
    assert_eq!(eval_f64(vec![F64Const(9.0), F64Sqrt, End]).unwrap(), 3.0);
}

#[test]
fn conversions() {
    assert_eq!(
        eval_i32(vec![I64Const(0x1_0000_0002), I32WrapI64, End]).unwrap(),
        2
    );
    assert_eq!(
        eval_i64(vec![I32Const(-1), I64ExtendI32S, End]).unwrap(),
        -1
    );
    assert_eq!(
        eval_i64(vec![I32Const(-1), I64ExtendI32U, End]).unwrap(),
        0xffff_ffff
    );
    assert_eq!(
        eval_i32(vec![F64Const(3.99), I32TruncF64S, End]).unwrap(),
        3
    );
    assert_eq!(
        eval_i32(vec![F64Const(-3.99), I32TruncF64S, End]).unwrap(),
        -3
    );
    assert_eq!(
        eval_i32(vec![F64Const(f64::NAN), I32TruncF64S, End]),
        Err(Trap::InvalidConversionToInteger)
    );
    assert_eq!(
        eval_i32(vec![F64Const(3e10), I32TruncF64S, End]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        eval_i32(vec![F64Const(-1.0), I32TruncF64U, End]),
        Err(Trap::IntegerOverflow)
    );
    assert_eq!(
        eval_f64(vec![I32Const(-1), F64ConvertI32U, End]).unwrap(),
        4294967295.0
    );
    assert_eq!(
        eval_f64(vec![I64Const(1), F64ConvertI64S, End]).unwrap(),
        1.0
    );
    // Reinterpret preserves bits.
    assert_eq!(
        eval_i64(vec![F64Const(1.0), I64ReinterpretF64, End]).unwrap(),
        1.0f64.to_bits() as i64
    );
    assert_eq!(
        eval_f64(vec![I64Const(0), F64ReinterpretI64, End]).unwrap(),
        0.0
    );
}

#[test]
fn locals_and_select() {
    let r = run1(
        vec![I32, I32, I32],
        vec![I32],
        vec![],
        vec![LocalGet(1), LocalGet(2), LocalGet(0), Select, End],
        &[Val::I32(1), Val::I32(10), Val::I32(20)],
    )
    .unwrap();
    assert_eq!(r, Some(Val::I32(10)));
    let r = run1(
        vec![I32, I32, I32],
        vec![I32],
        vec![],
        vec![LocalGet(1), LocalGet(2), LocalGet(0), Select, End],
        &[Val::I32(0), Val::I32(10), Val::I32(20)],
    )
    .unwrap();
    assert_eq!(r, Some(Val::I32(20)));
}

#[test]
fn local_tee_keeps_value() {
    let r = run1(
        vec![I32],
        vec![I32],
        vec![I32],
        vec![LocalGet(0), LocalTee(1), LocalGet(1), I32Add, End],
        &[Val::I32(21)],
    )
    .unwrap();
    assert_eq!(r, Some(Val::I32(42)));
}

#[test]
fn globals_read_write() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::new(vec![], vec![I32]));
    b.global(I32, true, Val::I32(10));
    let f = b.func(
        sig,
        vec![],
        vec![
            GlobalGet(0),
            I32Const(1),
            I32Add,
            GlobalSet(0),
            GlobalGet(0),
            End,
        ],
    );
    b.export_func("bump", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    assert_eq!(inst.invoke("bump", &[]).unwrap(), Some(Val::I32(11)));
    assert_eq!(inst.invoke("bump", &[]).unwrap(), Some(Val::I32(12)));
    assert_eq!(inst.global(0), Some(Val::I32(12)));
}

#[test]
fn if_else_branches() {
    let body = |cond: i32| {
        vec![
            I32Const(cond),
            If(BlockType::Value(I32)),
            I32Const(100),
            Else,
            I32Const(200),
            End,
            End,
        ]
    };
    assert_eq!(eval_i32(body(1)).unwrap(), 100);
    assert_eq!(eval_i32(body(0)).unwrap(), 200);
}

#[test]
fn if_without_else() {
    let r = run1(
        vec![I32],
        vec![I32],
        vec![I32],
        vec![
            LocalGet(0),
            If(BlockType::Empty),
            I32Const(99),
            LocalSet(1),
            End,
            LocalGet(1),
            End,
        ],
        &[Val::I32(1)],
    )
    .unwrap();
    assert_eq!(r, Some(Val::I32(99)));
    let r = run1(
        vec![I32],
        vec![I32],
        vec![I32],
        vec![
            LocalGet(0),
            If(BlockType::Empty),
            I32Const(99),
            LocalSet(1),
            End,
            LocalGet(1),
            End,
        ],
        &[Val::I32(0)],
    )
    .unwrap();
    assert_eq!(r, Some(Val::I32(0)));
}

#[test]
fn loop_sums_one_to_n() {
    // local1 = acc, local0 = n (counts down).
    let body = vec![
        Block(BlockType::Empty),
        Loop(BlockType::Empty),
        LocalGet(0),
        I32Eqz,
        BrIf(1),
        LocalGet(1),
        LocalGet(0),
        I32Add,
        LocalSet(1),
        LocalGet(0),
        I32Const(1),
        I32Sub,
        LocalSet(0),
        Br(0),
        End,
        End,
        LocalGet(1),
        End,
    ];
    let r = run1(vec![I32], vec![I32], vec![I32], body, &[Val::I32(100)]).unwrap();
    assert_eq!(r, Some(Val::I32(5050)));
}

#[test]
fn br_out_of_nested_blocks() {
    let body = vec![
        Block(BlockType::Value(I32)),
        Block(BlockType::Empty),
        Block(BlockType::Empty),
        I32Const(7),
        Br(2),
        End,
        End,
        I32Const(8),
        End,
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 7);
}

#[test]
fn br_to_function_level_returns() {
    let body = vec![
        Block(BlockType::Empty),
        I32Const(11),
        Return,
        End,
        I32Const(22),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 11);
    // br to depth == labels.len() is also a return.
    let body = vec![
        Block(BlockType::Empty),
        I32Const(33),
        Br(1),
        End,
        I32Const(44),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 33);
}

#[test]
fn br_table_dispatch() {
    let case = |sel: i32| {
        run1(
            vec![I32],
            vec![I32],
            vec![],
            vec![
                Block(BlockType::Empty),
                Block(BlockType::Empty),
                Block(BlockType::Empty),
                LocalGet(0),
                BrTable(Box::new(BrTableData {
                    targets: vec![0, 1],
                    default: 2,
                })),
                End,
                I32Const(100),
                Return,
                End,
                I32Const(200),
                Return,
                End,
                I32Const(300),
                End,
            ],
            &[Val::I32(sel)],
        )
        .unwrap()
        .unwrap()
        .as_i32()
        .unwrap()
    };
    assert_eq!(case(0), 100);
    assert_eq!(case(1), 200);
    assert_eq!(case(2), 300, "default");
    assert_eq!(case(99), 300, "out-of-range uses default");
}

#[test]
fn function_calls_and_recursion() {
    // fib(n) computed recursively.
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::new(vec![I32], vec![I32]));
    let fib = b.module_func_placeholder();
    let _ = fib;
    let fib = b.func(
        sig,
        vec![],
        vec![
            LocalGet(0),
            I32Const(2),
            I32LtS,
            If(BlockType::Value(I32)),
            LocalGet(0),
            Else,
            LocalGet(0),
            I32Const(1),
            I32Sub,
            Call(0),
            LocalGet(0),
            I32Const(2),
            I32Sub,
            Call(0),
            I32Add,
            End,
            End,
        ],
    );
    b.export_func("fib", fib);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    assert_eq!(
        inst.invoke("fib", &[Val::I32(10)]).unwrap(),
        Some(Val::I32(55))
    );
}

#[test]
fn deep_recursion_traps_cleanly() {
    // Guest recursion consumes host stack; run on a thread with a stack
    // sized like a real Faaslet thread.
    std::thread::Builder::new()
        .stack_size(32 * 1024 * 1024)
        .spawn(|| {
            let mut b = ModuleBuilder::new();
            let sig = b.sig(FuncType::new(vec![I32], vec![I32]));
            let f = b.func(
                sig,
                vec![],
                vec![LocalGet(0), I32Const(1), I32Add, Call(0), End],
            );
            b.export_func("spin", f);
            let object = ObjectModule::prepare(b.build()).unwrap();
            let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
            assert_eq!(
                inst.invoke("spin", &[Val::I32(0)]),
                Err(Trap::CallStackExhausted)
            );
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn memory_load_store_roundtrip() {
    let body = vec![
        I32Const(16),
        I32Const(-123456),
        I32Store(MemArg::zero()),
        I32Const(16),
        I32Load(MemArg::zero()),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), -123456);
}

#[test]
fn memory_subword_accesses() {
    let body = vec![
        I32Const(0),
        I32Const(-1),
        I32Store8(MemArg::zero()),
        I32Const(0),
        I32Load8S(MemArg::zero()),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), -1);
    let body = vec![
        I32Const(0),
        I32Const(-1),
        I32Store8(MemArg::zero()),
        I32Const(0),
        I32Load8U(MemArg::zero()),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 255);
    let body = vec![
        I32Const(4),
        I32Const(0xabcd),
        I32Store16(MemArg::zero()),
        I32Const(4),
        I32Load16U(MemArg::zero()),
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 0xabcd);
}

#[test]
fn memory_offset_in_memarg() {
    let body = vec![
        I32Const(8),
        I64Const(99),
        I64Store(MemArg::at(8)),
        I32Const(0),
        I64Load(MemArg::at(16)),
        End,
    ];
    assert_eq!(eval_i64(body).unwrap(), 99);
}

#[test]
fn out_of_bounds_load_traps() {
    let body = vec![
        I32Const(faasm_mem::PAGE_SIZE as i32 - 2),
        I32Load(MemArg::zero()),
        End,
    ];
    assert!(matches!(
        eval_i32(body),
        Err(Trap::OutOfBoundsMemory { .. })
    ));
    // Offset overflow beyond 32 bits is also caught.
    let body = vec![I32Const(-1), I32Load(MemArg::at(u32::MAX)), End];
    assert!(matches!(
        eval_i32(body),
        Err(Trap::OutOfBoundsMemory { .. })
    ));
}

#[test]
fn memory_size_and_grow() {
    let body = vec![
        MemorySize,
        Drop,
        I32Const(1),
        MemoryGrow,
        Drop,
        MemorySize,
        End,
    ];
    assert_eq!(eval_i32(body).unwrap(), 2);
    // Growing past the limit yields -1, not a trap.
    let body = vec![I32Const(100), MemoryGrow, End];
    assert_eq!(eval_i32(body).unwrap(), -1);
}

#[test]
fn memory_copy_and_fill() {
    let body = vec![
        // fill [0,8) with 0x11
        I32Const(0),
        I32Const(0x11),
        I32Const(8),
        MemoryFill,
        // copy [0,8) to [8,16)
        I32Const(8),
        I32Const(0),
        I32Const(8),
        MemoryCopy,
        I32Const(8),
        I64Load(MemArg::zero()),
        End,
    ];
    assert_eq!(eval_i64(body).unwrap(), 0x1111_1111_1111_1111);
}

#[test]
fn unreachable_traps() {
    assert_eq!(eval_i32(vec![Unreachable, End]), Err(Trap::Unreachable));
}

#[test]
fn host_function_call_and_marshalling() {
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    let sig_host = b.sig(FuncType::new(vec![I32, I64], vec![I64]));
    let sig_main = b.sig(FuncType::new(vec![], vec![I64]));
    let host = b.import_func("faasm", "mix", sig_host);
    let _ = host;
    let f = b.func(
        sig_main,
        vec![],
        vec![I32Const(2), I64Const(40), Call(0), End],
    );
    b.export_func("main", f);
    let mut linker = Linker::new();
    linker.define_fn("faasm", "mix", |_ctx, args| {
        let a = args[0].as_i32().unwrap() as i64;
        let b = args[1].as_i64().unwrap();
        Ok(vec![Val::I64(a + b)])
    });
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &linker, Box::new(())).unwrap();
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I64(42)));
}

#[test]
fn host_function_memory_access() {
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    let sig_host = b.sig(FuncType::new(vec![I32], vec![]));
    let sig_main = b.sig(FuncType::new(vec![], vec![I32]));
    b.import_func("faasm", "write_magic", sig_host);
    let f = b.func(
        sig_main,
        vec![],
        vec![
            I32Const(64),
            Call(0),
            I32Const(64),
            I32Load(MemArg::zero()),
            End,
        ],
    );
    b.export_func("main", f);
    let mut linker = Linker::new();
    linker.define_fn("faasm", "write_magic", |ctx, args| {
        let ptr = args[0].as_i32().unwrap() as u32;
        ctx.write_guest_bytes(ptr, &0xcafe_i32.to_le_bytes())?;
        Ok(vec![])
    });
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &linker, Box::new(())).unwrap();
    assert_eq!(inst.invoke("main", &[]).unwrap(), Some(Val::I32(0xcafe)));
}

#[test]
fn host_function_bad_return_type_traps() {
    let mut b = ModuleBuilder::new();
    let sig_host = b.sig(FuncType::new(vec![], vec![I32]));
    let sig_main = b.sig(FuncType::new(vec![], vec![I32]));
    b.import_func("faasm", "lie", sig_host);
    let f = b.func(sig_main, vec![], vec![Call(0), End]);
    b.export_func("main", f);
    let mut linker = Linker::new();
    linker.define_fn("faasm", "lie", |_ctx, _args| Ok(vec![Val::I64(1)]));
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &linker, Box::new(())).unwrap();
    assert!(matches!(inst.invoke("main", &[]), Err(Trap::Host(_))));
}

#[test]
fn unresolved_import_fails_link() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::default());
    b.import_func("faasm", "missing", sig);
    let object = ObjectModule::prepare(b.build()).unwrap();
    assert!(matches!(
        Instance::new(object, &Linker::new(), Box::new(())),
        Err(InstantiateError::Link(_))
    ));
}

#[test]
fn call_indirect_dispatches_and_checks_types() {
    let mut b = ModuleBuilder::new();
    let sig_i = b.sig(FuncType::new(vec![], vec![I32]));
    let sig_l = b.sig(FuncType::new(vec![], vec![I64]));
    let f1 = b.func(sig_i, vec![], vec![I32Const(111), End]);
    let f2 = b.func(sig_i, vec![], vec![I32Const(222), End]);
    let f3 = b.func(sig_l, vec![], vec![I64Const(3), End]);
    b.table(4);
    b.elem(0, vec![f1, f2, f3]);
    let sig_sel = b.sig(FuncType::new(vec![I32], vec![I32]));
    let sel = b.func(sig_sel, vec![], vec![LocalGet(0), CallIndirect(sig_i), End]);
    b.export_func("sel", sel);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    assert_eq!(
        inst.invoke("sel", &[Val::I32(0)]).unwrap(),
        Some(Val::I32(111))
    );
    assert_eq!(
        inst.invoke("sel", &[Val::I32(1)]).unwrap(),
        Some(Val::I32(222))
    );
    // Wrong type.
    assert_eq!(
        inst.invoke("sel", &[Val::I32(2)]),
        Err(Trap::IndirectCallTypeMismatch)
    );
    // Uninitialised slot.
    assert_eq!(
        inst.invoke("sel", &[Val::I32(3)]),
        Err(Trap::UninitializedElement { index: 3 })
    );
    // Out of range.
    assert_eq!(
        inst.invoke("sel", &[Val::I32(9)]),
        Err(Trap::OutOfBoundsTable { index: 9 })
    );
}

#[test]
fn data_segments_applied_on_new_but_not_restore() {
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    b.data(0, b"init".to_vec());
    let sig = b.sig(FuncType::new(vec![], vec![I32]));
    let f = b.func(sig, vec![], vec![I32Const(0), I32Load(MemArg::zero()), End]);
    b.export_func("read", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object.clone(), &Linker::new(), Box::new(())).unwrap();
    let init_val = i32::from_le_bytes(*b"init");
    assert_eq!(inst.invoke("read", &[]).unwrap(), Some(Val::I32(init_val)));

    // Mutate memory, snapshot, restore: restored instance sees the mutated
    // value (not the data segment).
    inst.memory_mut().unwrap().write(0, b"live").unwrap();
    let snap = inst.snapshot();
    let mut restored = Instance::restore(
        object,
        &snap,
        &Linker::new(),
        Box::new(()),
        FuelMeter::unlimited(),
    )
    .unwrap();
    let live_val = i32::from_le_bytes(*b"live");
    assert_eq!(
        restored.invoke("read", &[]).unwrap(),
        Some(Val::I32(live_val))
    );
}

#[test]
fn snapshot_captures_globals_and_table() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::new(vec![], vec![I32]));
    b.global(I32, true, Val::I32(1));
    let f = b.func(
        sig,
        vec![],
        vec![
            GlobalGet(0),
            I32Const(1),
            I32Add,
            GlobalSet(0),
            GlobalGet(0),
            End,
        ],
    );
    b.export_func("bump", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object.clone(), &Linker::new(), Box::new(())).unwrap();
    inst.invoke("bump", &[]).unwrap(); // global now 2
    let snap = inst.snapshot();
    inst.invoke("bump", &[]).unwrap(); // original now 3
    let mut restored = Instance::restore(
        object,
        &snap,
        &Linker::new(),
        Box::new(()),
        FuelMeter::unlimited(),
    )
    .unwrap();
    assert_eq!(restored.invoke("bump", &[]).unwrap(), Some(Val::I32(3)));
    assert_eq!(inst.global(0), Some(Val::I32(3)));
}

#[test]
fn restore_shape_mismatch_rejected() {
    let mut b1 = ModuleBuilder::new();
    b1.global(I32, true, Val::I32(0));
    let object1 = ObjectModule::prepare(b1.build()).unwrap();
    let mut inst1 = Instance::new(object1, &Linker::new(), Box::new(())).unwrap();
    let snap = inst1.snapshot();

    let b2 = ModuleBuilder::new();
    let object2 = ObjectModule::prepare(b2.build()).unwrap();
    assert!(matches!(
        Instance::restore(
            Arc::clone(&object2),
            &snap,
            &Linker::new(),
            Box::new(()),
            FuelMeter::unlimited()
        ),
        Err(InstantiateError::BadSnapshot)
    ));
    // The in-place reset makes the same check.
    let mut inst2 = Instance::new(object2, &Linker::new(), Box::new(())).unwrap();
    assert!(matches!(
        inst2.reset_to(&snap),
        Err(InstantiateError::BadSnapshot)
    ));
    assert_eq!(inst1.reset_to(&snap).unwrap(), 0);
}

#[test]
fn start_function_runs_at_instantiation() {
    let mut b = ModuleBuilder::new();
    let sig_v = b.sig(FuncType::default());
    let sig_r = b.sig(FuncType::new(vec![], vec![I32]));
    b.global(I32, true, Val::I32(0));
    let init = b.func(sig_v, vec![], vec![I32Const(77), GlobalSet(0), End]);
    let read = b.func(sig_r, vec![], vec![GlobalGet(0), End]);
    b.start(init);
    b.export_func("read", read);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    assert_eq!(inst.invoke("read", &[]).unwrap(), Some(Val::I32(77)));
}

#[test]
fn trapping_start_function_fails_instantiation() {
    let mut b = ModuleBuilder::new();
    let sig_v = b.sig(FuncType::default());
    let f = b.func(sig_v, vec![], vec![Unreachable, End]);
    b.start(f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    assert!(matches!(
        Instance::new(object, &Linker::new(), Box::new(())),
        Err(InstantiateError::StartTrap(Trap::Unreachable))
    ));
}

#[test]
fn invoke_signature_checks() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::new(vec![I32], vec![I32]));
    let f = b.func(sig, vec![], vec![LocalGet(0), End]);
    b.export_func("id", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    assert!(matches!(
        inst.invoke("nope", &[]),
        Err(Trap::NoSuchExport { .. })
    ));
    assert!(matches!(
        inst.invoke("id", &[]),
        Err(Trap::BadSignature { .. })
    ));
    assert!(matches!(
        inst.invoke("id", &[Val::I64(1)]),
        Err(Trap::BadSignature { .. })
    ));
    assert_eq!(
        inst.invoke("id", &[Val::I32(5)]).unwrap(),
        Some(Val::I32(5))
    );
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::default());
    let f = b.func(sig, vec![], vec![Loop(BlockType::Empty), Br(0), End, End]);
    b.export_func("spin", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::with_fuel(
        object,
        &Linker::new(),
        Box::new(()),
        FuelMeter::with_limit(10_000),
    )
    .unwrap();
    assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel));
    assert!(inst.fuel.consumed() >= 10_000);
}

#[test]
fn fuel_counts_instructions() {
    let mut b = ModuleBuilder::new();
    let sig = b.sig(FuncType::new(vec![], vec![I32]));
    let f = b.func(sig, vec![], vec![I32Const(1), I32Const(2), I32Add, End]);
    b.export_func("f", f);
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).unwrap();
    inst.invoke("f", &[]).unwrap();
    // 4 instructions (const, const, add, end).
    assert_eq!(inst.fuel.consumed(), 4);
}

#[test]
fn instance_data_roundtrip() {
    let b = ModuleBuilder::new();
    let object = ObjectModule::prepare(b.build()).unwrap();
    let mut inst = Instance::new(object, &Linker::new(), Box::new(7u32)).unwrap();
    assert_eq!(*inst.data_as::<u32>().unwrap(), 7);
    assert!(inst.data_as::<String>().is_none());
    let old = inst.replace_data(Box::new(String::from("ctx")));
    assert_eq!(*old.downcast::<u32>().unwrap(), 7);
    assert_eq!(inst.data_as::<String>().unwrap(), "ctx");
}

impl ModuleBuilder {
    /// Test helper: reserve nothing, used to document call-index assumptions.
    fn module_func_placeholder(&mut self) -> u32 {
        0
    }
}
