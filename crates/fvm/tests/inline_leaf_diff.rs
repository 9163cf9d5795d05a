//! Differential property for leaf inlining: a straight-line callee that
//! reads, or returns, a local it never wrote must behave on the lowered
//! tier exactly as on the reference interpreter.
//!
//! A callee's declared locals start zeroed, but an inlined body has no
//! frame entry to zero them: its locals are the caller's operand slots,
//! which hold whatever the caller last computed there. The generated
//! callers fill those slots before each call, so a leaf inlined while it
//! still reads an unwritten local returns the caller's garbage instead of
//! zero. Results, traps (the leaves divide) and fuel at several bisected
//! limits must match.

use std::sync::Arc;

use faasm_fvm::fuel::FuelMeter;
use faasm_fvm::prelude::*;
use proptest::prelude::*;

/// An operand: a local (params first), taken modulo the function's count
/// of them, or a constant.
#[derive(Debug, Clone)]
enum Src {
    Slot(u8),
    Const(i32),
}

/// `x op y`, with `op` one of [`binop`]'s six.
type Bin = (Src, u8, Src);

#[derive(Debug, Clone)]
enum Ret {
    /// `return slot`: the shape a return-source check must refuse when the
    /// slot is a local the body never wrote.
    Slot(u8),
    Bin(Bin),
}

#[derive(Debug, Clone)]
struct Leaf {
    params: u8,
    locals: u8,
    /// `slot = x op y`, in order.
    body: Vec<(u8, Bin)>,
    ret: Ret,
}

/// The caller `main(a, b)`, locals `a, b` and three scratch `i32`s.
#[derive(Debug, Clone)]
struct Caller {
    /// The constants [`fill_slots`] adds.
    fill: (i32, i32, i32, i32, i32),
    /// The two calls' arguments (as many as the leaf takes).
    args: (Src, Src, Src, Src),
}

const MAIN_LOCALS: u32 = 5;

fn get(src: &Src, locals: u32) -> Instr {
    match *src {
        Src::Slot(s) => Instr::LocalGet(u32::from(s) % locals),
        Src::Const(k) => Instr::I32Const(k),
    }
}

/// Division and remainder trap on zero and on `i32::MIN / -1`.
fn binop(op: u8) -> Instr {
    match op % 6 {
        0 => Instr::I32Add,
        1 => Instr::I32Sub,
        2 => Instr::I32Mul,
        3 => Instr::I32Xor,
        4 => Instr::I32DivS,
        _ => Instr::I32RemS,
    }
}

impl Leaf {
    fn code(&self) -> Vec<Instr> {
        let locals = u32::from(self.params + self.locals);
        let bin = |(x, op, y): &Bin| [get(x, locals), get(y, locals), binop(*op)];
        let mut out = Vec::new();
        for (dst, b) in &self.body {
            out.extend(bin(b));
            out.push(Instr::LocalSet(u32::from(*dst) % locals));
        }
        match &self.ret {
            Ret::Slot(s) => out.push(get(&Src::Slot(*s), locals)),
            Ret::Bin(b) => out.extend(bin(b)),
        }
        out.push(Instr::End);
        out
    }
}

/// Push five sums `a + k` and `b + k`, one into each of operand slots 0 to
/// 4, then fold them into the one value left on the stack.
fn fill_slots(fill: (i32, i32, i32, i32, i32), out: &mut Vec<Instr>) {
    let (k0, k1, k2, k3, k4) = fill;
    for (i, k) in [k0, k1, k2, k3, k4].into_iter().enumerate() {
        out.extend([
            Instr::LocalGet(i as u32 % 2),
            Instr::I32Const(k),
            Instr::I32Add,
        ]);
    }
    out.extend([Instr::I32Mul, Instr::I32Xor, Instr::I32Sub, Instr::I32Add]);
}

/// `main` calls the leaf twice: on an empty operand stack, then under a
/// pending operand.
fn build_module(leaf: &Leaf, caller: &Caller) -> Module {
    let mut b = ModuleBuilder::new();
    let params = usize::from(leaf.params);
    let t_leaf = b.sig(FuncType::new(
        vec![ValType::I32; params],
        vec![ValType::I32],
    ));
    let t_main = b.sig(FuncType::new(vec![ValType::I32; 2], vec![ValType::I32]));
    let f_leaf = b.func(
        t_leaf,
        vec![ValType::I32; usize::from(leaf.locals)],
        leaf.code(),
    );
    let (a0, a1, a2, a3) = &caller.args;
    let mut body = Vec::new();
    fill_slots(caller.fill, &mut body);
    body.push(Instr::LocalSet(2));
    body.extend(
        [a0, a1]
            .into_iter()
            .take(params)
            .map(|a| get(a, MAIN_LOCALS)),
    );
    body.extend([Instr::Call(f_leaf), Instr::LocalSet(3)]);
    fill_slots(caller.fill, &mut body);
    body.extend(
        [a2, a3]
            .into_iter()
            .take(params)
            .map(|a| get(a, MAIN_LOCALS)),
    );
    body.extend([
        Instr::Call(f_leaf),
        Instr::I32Add,
        Instr::LocalSet(4),
        Instr::LocalGet(2),
        Instr::LocalGet(3),
        Instr::I32Xor,
        Instr::LocalGet(4),
        Instr::I32Add,
        Instr::End,
    ]);
    let f_main = b.func(t_main, vec![ValType::I32; 3], body);
    b.export_func("main", f_main);
    b.build()
}

/// Everything observable about one call.
#[derive(Debug)]
struct Outcome {
    result: Result<Option<Val>, Trap>,
    fuel: u64,
    dispatches: u64,
}

fn run(object: Arc<ObjectModule>, args: &[Val], fuel: FuelMeter) -> Outcome {
    let mut inst =
        Instance::with_fuel(object, &Linker::new(), Box::new(()), fuel).expect("instantiate");
    let result = inst.invoke("main", args);
    Outcome {
        result,
        fuel: inst.fuel.consumed(),
        dispatches: inst.instrs_retired(),
    }
}

/// Results, traps and fuel of `main(a, b)` agree on both tiers, unlimited
/// and at limits that stop the call part-way.
fn assert_tiers_agree(leaf: &Leaf, caller: &Caller, a: i32, b: i32) {
    let module = build_module(leaf, caller);
    let args = [Val::I32(a), Val::I32(b)];
    let run_both = |limit: Option<u64>| {
        let meter = || limit.map_or_else(FuelMeter::unlimited, FuelMeter::with_limit);
        let interp = ObjectModule::prepare_tier(module.clone(), ExecTier::Interpreter);
        let interp = interp.expect("validates");
        let lowered = ObjectModule::prepare(module.clone()).expect("validates");
        assert!(!interp.is_lowered() && lowered.is_lowered());
        let (i, l) = (run(interp, &args, meter()), run(lowered, &args, meter()));
        ((i.result, i.fuel), (l.result, l.fuel))
    };
    let (interp, lowered) = run_both(None);
    assert_eq!(interp, lowered, "{leaf:?}, unlimited fuel");
    let total = interp.1;
    for limit in [1, total / 3, total / 2, total - 1, total] {
        let (interp, lowered) = run_both(Some(limit));
        assert_eq!(interp, lowered, "{leaf:?}, fuel limit {limit}");
    }
}

fn src() -> impl Strategy<Value = Src> {
    let slot = || any::<u8>().prop_map(Src::Slot);
    let k = prop_oneof![Just(0), Just(-1), Just(i32::MIN), any::<i32>()];
    prop_oneof![slot(), slot(), slot(), k.prop_map(Src::Const)]
}

fn bin() -> impl Strategy<Value = Bin> {
    (src(), any::<u8>(), src())
}

fn leaf() -> impl Strategy<Value = Leaf> {
    let ret = prop_oneof![any::<u8>().prop_map(Ret::Slot), bin().prop_map(Ret::Bin)];
    let body = prop::collection::vec((any::<u8>(), bin()), 0..=2);
    (0..=2u8, 1..=3u8, body, ret).prop_map(|(params, locals, body, ret)| Leaf {
        params,
        locals,
        body,
        ret,
    })
}

fn caller() -> impl Strategy<Value = Caller> {
    let k = any::<i32>;
    let fill = (k(), k(), k(), k(), k());
    (fill, (src(), src(), src(), src())).prop_map(|(fill, args)| Caller { fill, args })
}

proptest! {
    /// The leaf as generated, then the same body returning each of its
    /// locals in turn, so every local it never wrote is returned once.
    #[test]
    fn inlined_leaves_match_the_interpreter(
        leaf in leaf(),
        caller in caller(),
        a in any::<i32>(),
        b in any::<i32>(),
    ) {
        assert_tiers_agree(&leaf, &caller, a, b);
        for slot in 0..leaf.params + leaf.locals {
            let leaf = Leaf { ret: Ret::Slot(slot), ..leaf.clone() };
            assert_tiers_agree(&leaf, &caller, a, b);
        }
    }
}

/// The generated shape reaches the inliner: the same leaf dispatches less
/// once it returns a value it computed instead of a local it never wrote.
#[test]
fn a_leaf_that_returns_what_it_computed_is_inlined() {
    let caller = Caller {
        fill: (1, 2, 3, 4, 5),
        args: (Src::Slot(0), Src::Slot(0), Src::Slot(1), Src::Slot(1)),
    };
    let dispatches = |ret| {
        let leaf = Leaf {
            params: 1,
            locals: 1,
            body: Vec::new(),
            ret,
        };
        let object = ObjectModule::prepare(build_module(&leaf, &caller));
        let args = [Val::I32(10), Val::I32(20)];
        let out = run(object.expect("validates"), &args, FuelMeter::unlimited());
        assert!(out.result.is_ok(), "{out:?}");
        out.dispatches
    };
    let inlined = dispatches(Ret::Bin((Src::Slot(0), 0, Src::Const(3))));
    let called = dispatches(Ret::Slot(1));
    assert!(
        inlined < called,
        "inlined {inlined} dispatches, called {called}"
    );
}
