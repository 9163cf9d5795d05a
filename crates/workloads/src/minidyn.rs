//! MiniDyn: a small dynamic-language runtime.
//!
//! The paper runs CPython inside Faaslets to show that full dynamic language
//! runtimes work behind the host interface (§6.4). MiniDyn is this
//! reproduction's interpreter: dynamically typed values (ints, floats,
//! strings, arbitrary-precision integers, lists, dictionaries), functions
//! with recursion, and a tree-walking evaluator. Programs are loaded from
//! the Faaslet filesystem — like CPython loading `.py` modules — and the
//! Fig. 9b benchmark suite ([`programs`]) runs both inside a Faaslet and
//! directly, to measure the isolation overhead of hosting a language
//! runtime.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

pub mod bigint;
pub mod programs;

use bigint::BigUint;

/// A MiniDyn value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Machine integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Immutable string.
    Str(Rc<String>),
    /// Arbitrary-precision unsigned integer.
    Big(Rc<BigUint>),
    /// Mutable list.
    List(Rc<std::cell::RefCell<Vec<Value>>>),
    /// Mutable string-keyed dictionary.
    Dict(Rc<std::cell::RefCell<HashMap<String, Value>>>),
    /// The unit/none value.
    None,
}

impl Value {
    /// Truthiness: zero, empty and none are false.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Big(b) => !b.is_zero(),
            Value::List(l) => !l.borrow().is_empty(),
            Value::Dict(d) => !d.borrow().is_empty(),
            Value::None => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Big(b) => write!(f, "{b}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Dict(d) => {
                // Sorted keys for deterministic output.
                let mut keys: Vec<String> = d.borrow().keys().cloned().collect();
                keys.sort();
                write!(f, "{{")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    let v = d.borrow().get(k).cloned().unwrap_or(Value::None);
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::None => write!(f, "none"),
        }
    }
}

// ── AST ─────────────────────────────────────────────────────────────────

#[derive(Debug, Clone)]
enum Expr {
    Int(i64),
    Float(f64),
    Str(String),
    Var(String),
    ListLit(Vec<Expr>),
    DictLit(Vec<(String, Expr)>),
    Index(Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)]
enum Stmt {
    Assign(String, Expr),
    IndexAssign(Expr, Expr, Expr),
    ExprStmt(Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    ForRange(String, Expr, Expr, Vec<Stmt>),
    Return(Expr),
    Break,
    Continue,
}

#[derive(Debug, Clone)]
struct FnDef {
    params: Vec<String>,
    body: Vec<Stmt>,
}

/// A parsed MiniDyn program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    fns: HashMap<String, Rc<FnDef>>,
}

// ── Lexer/Parser ────────────────────────────────────────────────────────

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(&'static str),
    Eof,
}

fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let s = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(src[s..i].to_string()));
            }
            '0'..='9' => {
                let s = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    out.push(Tok::Float(
                        src[s..i].parse().map_err(|_| "bad float".to_string())?,
                    ));
                } else {
                    out.push(Tok::Int(
                        src[s..i].parse().map_err(|_| "bad int".to_string())?,
                    ));
                }
            }
            '"' => {
                i += 1;
                let s = i;
                while i < b.len() && b[i] != b'"' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err("unterminated string".into());
                }
                out.push(Tok::Str(src[s..i].to_string()));
                i += 1;
            }
            _ => {
                let two: &[(&str, &str)] = &[
                    ("==", "=="),
                    ("!=", "!="),
                    ("<=", "<="),
                    (">=", ">="),
                    ("&&", "&&"),
                    ("||", "||"),
                ];
                let rest = &src[i..];
                if let Some((_, sym)) = two.iter().find(|(p, _)| rest.starts_with(p)) {
                    out.push(Tok::Sym(sym));
                    i += 2;
                } else {
                    let sym = match c {
                        '(' => "(",
                        ')' => ")",
                        '{' => "{",
                        '}' => "}",
                        '[' => "[",
                        ']' => "]",
                        ',' => ",",
                        ';' => ";",
                        ':' => ":",
                        '=' => "=",
                        '+' => "+",
                        '-' => "-",
                        '*' => "*",
                        '/' => "/",
                        '%' => "%",
                        '<' => "<",
                        '>' => ">",
                        '!' => "!",
                        _ => return Err(format!("unexpected character {c:?}")),
                    };
                    out.push(Tok::Sym(sym));
                    i += 1;
                }
            }
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, sym: &str) -> Result<(), String> {
        match self.bump() {
            Tok::Sym(s) if s == sym => Ok(()),
            other => Err(format!("expected {sym:?}, found {other:?}")),
        }
    }

    fn try_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(format!("expected identifier, found {other:?}")),
        }
    }

    fn program(&mut self) -> Result<Program, String> {
        let mut prog = Program::default();
        while *self.peek() != Tok::Eof {
            match self.bump() {
                Tok::Ident(kw) if kw == "fn" => {
                    let name = self.ident()?;
                    self.eat("(")?;
                    let mut params = Vec::new();
                    if !self.try_sym(")") {
                        loop {
                            params.push(self.ident()?);
                            if self.try_sym(")") {
                                break;
                            }
                            self.eat(",")?;
                        }
                    }
                    let body = self.block()?;
                    prog.fns.insert(name, Rc::new(FnDef { params, body }));
                }
                other => return Err(format!("expected fn, found {other:?}")),
            }
        }
        Ok(prog)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, String> {
        self.eat("{")?;
        let mut out = Vec::new();
        while !self.try_sym("}") {
            if *self.peek() == Tok::Eof {
                return Err("unterminated block".into());
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, String> {
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.eat("(")?;
                let cond = self.expr()?;
                self.eat(")")?;
                let then = self.block()?;
                let otherwise = if matches!(self.peek(), Tok::Ident(k) if k == "else") {
                    self.bump();
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, otherwise))
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.eat("(")?;
                let cond = self.expr()?;
                self.eat(")")?;
                Ok(Stmt::While(cond, self.block()?))
            }
            Tok::Ident(kw) if kw == "for" => {
                self.bump();
                let var = self.ident()?;
                match self.bump() {
                    Tok::Ident(k) if k == "in" => {}
                    other => return Err(format!("expected `in`, found {other:?}")),
                }
                match self.bump() {
                    Tok::Ident(k) if k == "range" => {}
                    other => return Err(format!("expected `range`, found {other:?}")),
                }
                self.eat("(")?;
                let a = self.expr()?;
                let (lo, hi) = if self.try_sym(",") {
                    let b = self.expr()?;
                    (a, b)
                } else {
                    (Expr::Int(0), a)
                };
                self.eat(")")?;
                Ok(Stmt::ForRange(var, lo, hi, self.block()?))
            }
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                if self.try_sym(";") {
                    return Ok(Stmt::Return(Expr::Int(0)));
                }
                let e = self.expr()?;
                self.eat(";")?;
                Ok(Stmt::Return(e))
            }
            Tok::Ident(kw) if kw == "break" => {
                self.bump();
                self.eat(";")?;
                Ok(Stmt::Break)
            }
            Tok::Ident(kw) if kw == "continue" => {
                self.bump();
                self.eat(";")?;
                Ok(Stmt::Continue)
            }
            _ => {
                let e = self.expr()?;
                if self.try_sym("=") {
                    let value = self.expr()?;
                    self.eat(";")?;
                    match e {
                        Expr::Var(name) => Ok(Stmt::Assign(name, value)),
                        Expr::Index(target, idx) => Ok(Stmt::IndexAssign(*target, *idx, value)),
                        _ => Err("invalid assignment target".into()),
                    }
                } else {
                    self.eat(";")?;
                    Ok(Stmt::ExprStmt(e))
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, String> {
        self.bin_expr(0)
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr, String> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Sym("||") => (BinOp::Or, 1),
                Tok::Sym("&&") => (BinOp::And, 2),
                Tok::Sym("==") => (BinOp::Eq, 3),
                Tok::Sym("!=") => (BinOp::Ne, 3),
                Tok::Sym("<") => (BinOp::Lt, 4),
                Tok::Sym("<=") => (BinOp::Le, 4),
                Tok::Sym(">") => (BinOp::Gt, 4),
                Tok::Sym(">=") => (BinOp::Ge, 4),
                Tok::Sym("+") => (BinOp::Add, 5),
                Tok::Sym("-") => (BinOp::Sub, 5),
                Tok::Sym("*") => (BinOp::Mul, 6),
                Tok::Sym("/") => (BinOp::Div, 6),
                Tok::Sym("%") => (BinOp::Rem, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, String> {
        if self.try_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        if self.try_sym("!") {
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, String> {
        let mut e = self.primary()?;
        while self.try_sym("[") {
            let idx = self.expr()?;
            self.eat("]")?;
            e = Expr::Index(Box::new(e), Box::new(idx));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, String> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.eat(")")?;
                Ok(e)
            }
            Tok::Sym("[") => {
                let mut items = Vec::new();
                if !self.try_sym("]") {
                    loop {
                        items.push(self.expr()?);
                        if self.try_sym("]") {
                            break;
                        }
                        self.eat(",")?;
                    }
                }
                Ok(Expr::ListLit(items))
            }
            Tok::Sym("{") => {
                let mut items = Vec::new();
                if !self.try_sym("}") {
                    loop {
                        let key = match self.bump() {
                            Tok::Str(s) => s,
                            Tok::Ident(s) => s,
                            other => return Err(format!("expected dict key, found {other:?}")),
                        };
                        self.eat(":")?;
                        items.push((key, self.expr()?));
                        if self.try_sym("}") {
                            break;
                        }
                        self.eat(",")?;
                    }
                }
                Ok(Expr::DictLit(items))
            }
            Tok::Ident(name) => {
                if self.try_sym("(") {
                    let mut args = Vec::new();
                    if !self.try_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.try_sym(")") {
                                break;
                            }
                            self.eat(",")?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Parse MiniDyn source.
///
/// # Errors
///
/// A parse error message.
pub fn parse(src: &str) -> Result<Program, String> {
    let toks = lex(src)?;
    Parser { toks, pos: 0 }.program()
}

// ── Evaluator ───────────────────────────────────────────────────────────

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The MiniDyn interpreter: parsed program + execution counters.
pub struct Interp {
    prog: Program,
    /// Total evaluation steps (for fuel-style accounting/tests).
    pub steps: u64,
    depth: usize,
}

/// Maximum recursion depth.
const MAX_DEPTH: usize = 64;

impl Interp {
    /// Build an interpreter for a parsed program.
    pub fn new(prog: Program) -> Interp {
        Interp {
            prog,
            steps: 0,
            depth: 0,
        }
    }

    /// Call a named function with arguments.
    ///
    /// # Errors
    ///
    /// Runtime error messages (unknown names, type errors, depth).
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Value, String> {
        let def = self
            .prog
            .fns
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown function {name:?}"))?;
        if args.len() != def.params.len() {
            return Err(format!(
                "{name:?} expects {} args, got {}",
                def.params.len(),
                args.len()
            ));
        }
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err("recursion limit exceeded".into());
        }
        let mut env: HashMap<String, Value> = def
            .params
            .iter()
            .cloned()
            .zip(args.iter().cloned())
            .collect();
        let flow = self.exec_block(&def.body, &mut env);
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        env: &mut HashMap<String, Value>,
    ) -> Result<Flow, String> {
        for s in stmts {
            match self.exec(s, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &Stmt, env: &mut HashMap<String, Value>) -> Result<Flow, String> {
        self.steps += 1;
        match s {
            Stmt::Assign(name, e) => {
                let v = self.eval(e, env)?;
                env.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::IndexAssign(target, idx, value) => {
                let t = self.eval(target, env)?;
                let i = self.eval(idx, env)?;
                let v = self.eval(value, env)?;
                match (t, i) {
                    (Value::List(l), Value::Int(i)) => {
                        let mut l = l.borrow_mut();
                        let idx = usize::try_from(i).map_err(|_| "negative index")?;
                        if idx >= l.len() {
                            return Err(format!("index {idx} out of range ({})", l.len()));
                        }
                        l[idx] = v;
                        Ok(Flow::Normal)
                    }
                    (Value::Dict(d), Value::Str(k)) => {
                        d.borrow_mut().insert((*k).clone(), v);
                        Ok(Flow::Normal)
                    }
                    (t, i) => Err(format!("cannot index {t} with {i}")),
                }
            }
            Stmt::ExprStmt(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, otherwise) => {
                if self.eval(cond, env)?.truthy() {
                    self.exec_block(then, env)
                } else {
                    self.exec_block(otherwise, env)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, env)?.truthy() {
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForRange(var, lo, hi, body) => {
                let lo = match self.eval(lo, env)? {
                    Value::Int(v) => v,
                    other => return Err(format!("range bound must be int, got {other}")),
                };
                let hi = match self.eval(hi, env)? {
                    Value::Int(v) => v,
                    other => return Err(format!("range bound must be int, got {other}")),
                };
                for i in lo..hi {
                    env.insert(var.clone(), Value::Int(i));
                    match self.exec_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = self.eval(e, env)?;
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr, env: &mut HashMap<String, Value>) -> Result<Value, String> {
        self.steps += 1;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::Str(Rc::new(s.clone()))),
            Expr::Var(name) => env
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unknown variable {name:?}")),
            Expr::ListLit(items) => {
                let mut out = Vec::with_capacity(items.len());
                for it in items {
                    out.push(self.eval(it, env)?);
                }
                Ok(Value::List(Rc::new(std::cell::RefCell::new(out))))
            }
            Expr::DictLit(items) => {
                let mut out = HashMap::new();
                for (k, v) in items {
                    out.insert(k.clone(), self.eval(v, env)?);
                }
                Ok(Value::Dict(Rc::new(std::cell::RefCell::new(out))))
            }
            Expr::Index(target, idx) => {
                let t = self.eval(target, env)?;
                let i = self.eval(idx, env)?;
                match (t, i) {
                    (Value::List(l), Value::Int(i)) => {
                        let l = l.borrow();
                        let idx = usize::try_from(i).map_err(|_| "negative index")?;
                        l.get(idx)
                            .cloned()
                            .ok_or_else(|| format!("index {idx} out of range ({})", l.len()))
                    }
                    (Value::Dict(d), Value::Str(k)) => {
                        Ok(d.borrow().get(k.as_str()).cloned().unwrap_or(Value::None))
                    }
                    (t, i) => Err(format!("cannot index {t} with {i}")),
                }
            }
            Expr::Neg(x) => match self.eval(x, env)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                Value::Float(v) => Ok(Value::Float(-v)),
                other => Err(format!("cannot negate {other}")),
            },
            Expr::Not(x) => Ok(Value::Int(!self.eval(x, env)?.truthy() as i64)),
            Expr::Bin(op, a, b) => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    let av = self.eval(a, env)?;
                    if !av.truthy() {
                        return Ok(Value::Int(0));
                    }
                    return Ok(Value::Int(self.eval(b, env)?.truthy() as i64));
                }
                if *op == BinOp::Or {
                    let av = self.eval(a, env)?;
                    if av.truthy() {
                        return Ok(Value::Int(1));
                    }
                    return Ok(Value::Int(self.eval(b, env)?.truthy() as i64));
                }
                let av = self.eval(a, env)?;
                let bv = self.eval(b, env)?;
                binop(*op, av, bv)
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call_builtin_or_fn(name, vals)
            }
        }
    }

    fn call_builtin_or_fn(&mut self, name: &str, args: Vec<Value>) -> Result<Value, String> {
        match (name, args.as_slice()) {
            ("len", [Value::List(l)]) => Ok(Value::Int(l.borrow().len() as i64)),
            ("len", [Value::Str(s)]) => Ok(Value::Int(s.len() as i64)),
            ("len", [Value::Dict(d)]) => Ok(Value::Int(d.borrow().len() as i64)),
            ("push", [Value::List(l), v]) => {
                l.borrow_mut().push(v.clone());
                Ok(Value::None)
            }
            ("pop", [Value::List(l)]) => l.borrow_mut().pop().ok_or("pop from empty list".into()),
            ("sqrt", [Value::Float(v)]) => Ok(Value::Float(v.sqrt())),
            ("sqrt", [Value::Int(v)]) => Ok(Value::Float((*v as f64).sqrt())),
            ("abs", [Value::Int(v)]) => Ok(Value::Int(v.abs())),
            ("abs", [Value::Float(v)]) => Ok(Value::Float(v.abs())),
            ("float", [Value::Int(v)]) => Ok(Value::Float(*v as f64)),
            ("int", [Value::Float(v)]) => Ok(Value::Int(*v as i64)),
            ("str", [v]) => Ok(Value::Str(Rc::new(v.to_string()))),
            ("big", [Value::Int(v)]) => {
                if *v < 0 {
                    return Err("big() requires a non-negative int".into());
                }
                Ok(Value::Big(Rc::new(BigUint::from_u64(*v as u64))))
            }
            ("bigdivmod", [Value::Big(b), Value::Int(d)]) => {
                if *d <= 0 {
                    return Err("bigdivmod divisor must be positive".into());
                }
                let (q, r) = b.divmod_small(*d as u32);
                Ok(Value::List(Rc::new(std::cell::RefCell::new(vec![
                    Value::Big(Rc::new(q)),
                    Value::Int(r as i64),
                ]))))
            }
            _ => self.call(name, &args),
        }
    }
}

fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    // Big-integer arithmetic (the pidigits path).
    if let (Value::Big(x), Value::Big(y)) = (&a, &b) {
        return match op {
            Add => Ok(Value::Big(Rc::new(x.add(y)))),
            Mul => Ok(Value::Big(Rc::new(x.mul(y)))),
            Sub => x
                .checked_sub(y)
                .map(|v| Value::Big(Rc::new(v)))
                .ok_or_else(|| "big subtraction underflow".to_string()),
            Eq => Ok(Value::Int(
                (x.cmp_big(y) == std::cmp::Ordering::Equal) as i64,
            )),
            Ne => Ok(Value::Int(
                (x.cmp_big(y) != std::cmp::Ordering::Equal) as i64,
            )),
            Lt => Ok(Value::Int(
                (x.cmp_big(y) == std::cmp::Ordering::Less) as i64,
            )),
            Le => Ok(Value::Int(
                (x.cmp_big(y) != std::cmp::Ordering::Greater) as i64,
            )),
            Gt => Ok(Value::Int(
                (x.cmp_big(y) == std::cmp::Ordering::Greater) as i64,
            )),
            Ge => Ok(Value::Int(
                (x.cmp_big(y) != std::cmp::Ordering::Less) as i64,
            )),
            _ => Err("unsupported big-integer operation".into()),
        };
    }
    // Big × small promotions.
    if let (Value::Big(x), Value::Int(y)) = (&a, &b) {
        if *y >= 0 {
            return match op {
                Add => Ok(Value::Big(Rc::new(x.add_small(*y as u64)))),
                Mul => Ok(Value::Big(Rc::new(x.mul_small(*y as u64)))),
                _ => Err("unsupported big-integer operation".into()),
            };
        }
        return Err("negative operand with big integer".into());
    }
    if let (Value::Int(x), Value::Big(y)) = (&a, &b) {
        if *x >= 0 {
            return match op {
                Add => Ok(Value::Big(Rc::new(y.add_small(*x as u64)))),
                Mul => Ok(Value::Big(Rc::new(y.mul_small(*x as u64)))),
                _ => Err("unsupported big-integer operation".into()),
            };
        }
        return Err("negative operand with big integer".into());
    }
    // String concatenation and comparison.
    if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
        return match op {
            Add => Ok(Value::Str(Rc::new(format!("{x}{y}")))),
            Eq => Ok(Value::Int((x == y) as i64)),
            Ne => Ok(Value::Int((x != y) as i64)),
            Lt => Ok(Value::Int((x < y) as i64)),
            Gt => Ok(Value::Int((x > y) as i64)),
            Le => Ok(Value::Int((x <= y) as i64)),
            Ge => Ok(Value::Int((x >= y) as i64)),
            _ => Err("unsupported string operation".into()),
        };
    }
    // Numeric tower: int op int stays int (Div is float like Python 3);
    // anything with a float promotes.
    let as_f = |v: &Value| match v {
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    };
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => {
            let (x, y) = (*x, *y);
            Ok(match op {
                Add => Value::Int(x.wrapping_add(y)),
                Sub => Value::Int(x.wrapping_sub(y)),
                Mul => Value::Int(x.wrapping_mul(y)),
                Div => {
                    if y == 0 {
                        return Err("division by zero".into());
                    }
                    // Python-style floor division for ints.
                    Value::Int(x.div_euclid(y))
                }
                Rem => {
                    if y == 0 {
                        return Err("modulo by zero".into());
                    }
                    Value::Int(x.rem_euclid(y))
                }
                Eq => Value::Int((x == y) as i64),
                Ne => Value::Int((x != y) as i64),
                Lt => Value::Int((x < y) as i64),
                Le => Value::Int((x <= y) as i64),
                Gt => Value::Int((x > y) as i64),
                Ge => Value::Int((x >= y) as i64),
                And | Or => unreachable!("short-circuited earlier"),
            })
        }
        _ => {
            let (Some(x), Some(y)) = (as_f(&a), as_f(&b)) else {
                return Err(format!("type error: {a} {op:?} {b}"));
            };
            Ok(match op {
                Add => Value::Float(x + y),
                Sub => Value::Float(x - y),
                Mul => Value::Float(x * y),
                Div => {
                    if y == 0.0 {
                        return Err("division by zero".into());
                    }
                    Value::Float(x / y)
                }
                Rem => Value::Float(x % y),
                Eq => Value::Int((x == y) as i64),
                Ne => Value::Int((x != y) as i64),
                Lt => Value::Int((x < y) as i64),
                Le => Value::Int((x <= y) as i64),
                Gt => Value::Int((x > y) as i64),
                Ge => Value::Int((x >= y) as i64),
                And | Or => unreachable!("short-circuited earlier"),
            })
        }
    }
}

/// Parse and run `entry()` from MiniDyn source, returning the result as a
/// string (the language-agnostic byte-array convention of §3.2).
///
/// # Errors
///
/// Parse or runtime error messages.
pub fn run_source(src: &str, entry: &str, args: &[Value]) -> Result<String, String> {
    let prog = parse(src)?;
    let mut interp = Interp::new(prog);
    let v = interp.call(entry, args)?;
    Ok(v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, entry: &str, args: &[Value]) -> String {
        run_source(src, entry, args).unwrap_or_else(|e| panic!("minidyn error: {e}"))
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            fn f(n) {
                acc = 0;
                for i in range(1, n + 1) {
                    if (i % 2 == 0) { continue; }
                    acc = acc + i;
                }
                return acc;
            }
        "#;
        assert_eq!(run(src, "f", &[Value::Int(10)]), "25");
    }

    #[test]
    fn recursion() {
        let src = "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }";
        assert_eq!(run(src, "fib", &[Value::Int(15)]), "610");
    }

    #[test]
    fn lists_and_dicts() {
        let src = r#"
            fn f() {
                l = [1, 2, 3];
                push(l, 4);
                l[0] = 10;
                d = {};
                d["total"] = l[0] + l[3];
                return d["total"];
            }
        "#;
        assert_eq!(run(src, "f", &[]), "14");
    }

    #[test]
    fn floats_and_builtins() {
        let src = "fn f(x) { return sqrt(x * 1.0) + abs(-2.5); }";
        assert_eq!(run(src, "f", &[Value::Int(9)]), "5.5");
    }

    #[test]
    fn strings() {
        let src = r#"fn f() { return "a" + str(1 + 2) + "b"; }"#;
        assert_eq!(run(src, "f", &[]), "a3b");
    }

    #[test]
    fn bigints() {
        // 30! has 33 digits; machine ints overflow at 21!.
        let src = r#"
            fn fact(n) {
                acc = big(1);
                for i in range(2, n + 1) {
                    acc = acc * i;
                }
                return acc;
            }
        "#;
        assert_eq!(
            run(src, "fact", &[Value::Int(30)]),
            "265252859812191058636308480000000"
        );
    }

    #[test]
    fn while_break() {
        let src = r#"
            fn f() {
                i = 0;
                while (1) {
                    i = i + 1;
                    if (i >= 7) { break; }
                }
                return i;
            }
        "#;
        assert_eq!(run(src, "f", &[]), "7");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_source("fn f() { return x; }", "f", &[]).is_err());
        assert!(run_source("fn f() { return 1 / 0; }", "f", &[]).is_err());
        assert!(run_source("fn f() { l = [1]; return l[5]; }", "f", &[]).is_err());
        assert!(run_source("fn f() { return g(); }", "f", &[]).is_err());
        assert!(run_source("fn f(", "f", &[]).is_err());
        // Unbounded recursion hits the depth limit, not the host stack.
        assert!(run_source("fn f() { return f(); }", "f", &[])
            .unwrap_err()
            .contains("recursion limit"));
    }

    #[test]
    fn python_style_division() {
        let src = "fn f() { return -7 / 2; }";
        assert_eq!(run(src, "f", &[]), "-4", "floor division");
        let src = "fn f() { return -7 % 2; }";
        assert_eq!(run(src, "f", &[]), "1", "euclidean modulo");
        let src = "fn f() { return 7.0 / 2; }";
        assert_eq!(run(src, "f", &[]), "3.5");
    }

    #[test]
    fn step_counter_advances() {
        let prog = parse("fn f() { return 1 + 1; }").unwrap();
        let mut i = Interp::new(prog);
        i.call("f", &[]).unwrap();
        assert!(i.steps > 0);
    }
}
