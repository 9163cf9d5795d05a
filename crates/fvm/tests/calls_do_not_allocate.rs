//! The lowered tier's call path is allocation-free: frames are windows of
//! the instance's one value stack, which only grows. After a warm-up invoke
//! has sized it, guest→guest calls — a tight leaf-call loop and a 200-deep
//! recursion — and the host-side `invoke` around them never reach the
//! allocator. So is its memory path: once a warm-up has backed the blocks
//! a load/store loop touches, the loop's loads and stores go through the
//! memory's block table and allocate nothing. This is its own test binary
//! because it installs a counting `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faasm_fvm::prelude::*;

struct Counting;

thread_local! {
    /// Set on the measuring thread only: the test harness's own threads
    /// allocate whenever they like, and that is not the guest's doing.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
    /// This thread's allocations while measured: per thread, so tests
    /// measuring on parallel threads never see each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_measured() {
    if MEASURED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: defers every operation to `System` unchanged; the flag and the
// counter it keeps are const-initialised thread-locals without destructors,
// so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LEAF: u32 = 0;
const DOWN: u32 = 2;

/// `leaf(a, b) = a + b + 1`; `calls(n)` folds `leaf` n times (the
/// benchmark's call kernel); `down(n)` recurses n frames deep with a
/// pending operand and a declared local in every frame.
fn module() -> Module {
    use Instr::*;
    let mut b = ModuleBuilder::new();
    let t2 = b.sig(FuncType::new(
        vec![ValType::I32, ValType::I32],
        vec![ValType::I32],
    ));
    let t1 = b.sig(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let leaf = b.func(
        t2,
        vec![],
        vec![LocalGet(0), LocalGet(1), I32Add, I32Const(1), I32Add, End],
    );
    let calls = b.func(
        t1,
        vec![ValType::I32, ValType::I32],
        vec![
            Block(BlockType::Empty),
            Loop(BlockType::Empty),
            LocalGet(2),
            LocalGet(0),
            I32LtS,
            I32Eqz,
            BrIf(1),
            LocalGet(1),
            LocalGet(2),
            Call(LEAF),
            LocalSet(1),
            LocalGet(2),
            I32Const(1),
            I32Add,
            LocalSet(2),
            Br(0),
            End,
            End,
            LocalGet(1),
            End,
        ],
    );
    let down = b.func(
        t1,
        vec![ValType::I32],
        vec![
            LocalGet(0),
            I32Eqz,
            If(BlockType::Value(ValType::I32)),
            I32Const(0),
            Else,
            I32Const(1),
            LocalGet(0),
            I32Const(1),
            I32Sub,
            LocalTee(1),
            Call(DOWN),
            I32Add,
            End,
            End,
        ],
    );
    assert_eq!((leaf, down), (LEAF, DOWN));
    b.export_func("calls", calls);
    b.export_func("down", down);
    b.build()
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    MEASURED.with(|m| m.set(true));
    f();
    MEASURED.with(|m| m.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warmed_up_guest_calls_do_not_allocate() {
    let object = ObjectModule::prepare_lowered(module()).expect("validates");
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).expect("links");
    // The deepest frame chain the default limit (200) admits: the invoked
    // function plus 199 nested calls. One more traps.
    let (calls, depth) = ([Val::I32(10_000)], [Val::I32(199)]);
    assert_eq!(
        inst.invoke("down", &[Val::I32(200)]),
        Err(Trap::CallStackExhausted)
    );

    // Warm-up: sizes the value stack and the control stack once.
    assert_eq!(inst.invoke("down", &depth), Ok(Some(Val::I32(199))));
    assert_eq!(inst.invoke("calls", &calls), Ok(Some(Val::I32(50_005_000))));

    // The counter is live on this thread.
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![0u8; 64]))),
        1
    );
    let mut results = (Ok(None), Ok(None));
    let n = allocations_during(|| {
        results = (inst.invoke("calls", &calls), inst.invoke("down", &depth));
    });
    assert_eq!(results.0, Ok(Some(Val::I32(50_005_000))));
    assert_eq!(results.1, Ok(Some(Val::I32(199))));
    assert_eq!(n, 0, "10 000 leaf calls and a 200-deep recursion allocated");
}

/// `scatter(n)`: the benchmark's memory kernel — `p[i % 1000] = i + 7;
/// acc += p[(i * 7) % 1000]` for `i < n`, `p` at 1024 — over one page.
fn memory_module() -> Module {
    use Instr::*;
    let mut b = ModuleBuilder::new();
    b.memory(1, 1);
    let t1 = b.sig(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
    let (n, i, acc, p) = (0, 1, 2, 3);
    let scaled = |index: Vec<Instr>| {
        let mut v = vec![LocalGet(p)];
        v.extend(index);
        v.extend([I32Const(1000), I32RemS, I32Const(4), I32Mul, I32Add]);
        v
    };
    let mut body = vec![
        I32Const(1024),
        LocalSet(p),
        Block(BlockType::Empty),
        Loop(BlockType::Empty),
        LocalGet(i),
        LocalGet(n),
        I32LtS,
        I32Eqz,
        BrIf(1),
    ];
    body.extend(scaled(vec![LocalGet(i)]));
    body.extend([LocalGet(i), I32Const(7), I32Add, I32Store(MemArg::zero())]);
    body.push(LocalGet(acc));
    body.extend(scaled(vec![LocalGet(i), I32Const(7), I32Mul]));
    body.extend([
        I32Load(MemArg::zero()),
        I32Add,
        LocalSet(acc),
        LocalGet(i),
        I32Const(1),
        I32Add,
        LocalSet(i),
        Br(0),
        End,
        End,
        LocalGet(acc),
        End,
    ]);
    let f = b.func(t1, vec![ValType::I32; 3], body);
    b.export_func("scatter", f);
    b.build()
}

#[test]
fn a_warm_load_store_loop_does_not_allocate() {
    let object = ObjectModule::prepare_lowered(memory_module()).expect("validates");
    let mut inst = Instance::new(object, &Linker::new(), Box::new(())).expect("links");
    let n = 1_500;
    // The loop natively, over memory that persists from call to call.
    let mut p = [0i32; 1000];
    let mut scatter = || {
        let mut acc = 0i32;
        for i in 0..n {
            p[(i % 1000) as usize] = i + 7;
            acc = acc.wrapping_add(p[(i * 7 % 1000) as usize]);
        }
        Ok(Some(Val::I32(acc)))
    };
    let args = [Val::I32(n)];
    // Warm-up: backs the blocks the loop stores to.
    assert_eq!(inst.invoke("scatter", &args), scatter());
    let mut result = Ok(None);
    let allocated = allocations_during(|| result = inst.invoke("scatter", &args));
    assert_eq!(result, scatter());
    assert_eq!(
        allocated, 0,
        "a warm load/store loop of {n} trips allocated"
    );
}
