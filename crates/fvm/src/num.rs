//! Per-instruction arithmetic, written once.
//!
//! Every numeric, comparison and conversion instruction is a pure function
//! over raw 64-bit slots (i32/f32 values live in the low 32 bits, zero
//! extended on write; the high bits are never read). The interpreter's
//! `step_plain` and the lowered tier's register loop both call these, so the
//! two tiers cannot drift apart on trapping division, truncation, float
//! min/max, shift masking or rotates.
//!
//! [`numeric_ops!`] is the one table that names them: it drives the `Op`
//! variants of the lowered tier, the `Instr` → `Op` selection in lowering,
//! the dispatch arms of the register loop and the interpreter's arms.

use crate::trap::Trap;

/// Calls `$cb!` with the table of numeric instructions, grouped by shape:
///
/// * `int_bin` — `(Instr/Op name, immediate-form Op name, function)`:
///   infallible integer binaries; the right operand may be a 32-bit
///   immediate (sign-extended to the slot).
/// * `int_bin_trap` — the same for the trapping divisions and remainders.
/// * `float_bin` — `(name, function)`: infallible, register operands only.
/// * `un` / `un_trap` — `(name, function)`: unary ops and conversions.
/// * `br_cmp` — `(compare, its negation, branch Op, immediate-form branch
///   Op, function)`: the i32 comparisons a conditional branch can absorb.
macro_rules! numeric_ops {
    ($cb:ident) => {
        $cb! {
            int_bin: [
                (I32Eq, I32EqI, i32_eq), (I32Ne, I32NeI, i32_ne),
                (I32LtS, I32LtSI, i32_lt_s), (I32LtU, I32LtUI, i32_lt_u),
                (I32GtS, I32GtSI, i32_gt_s), (I32GtU, I32GtUI, i32_gt_u),
                (I32LeS, I32LeSI, i32_le_s), (I32LeU, I32LeUI, i32_le_u),
                (I32GeS, I32GeSI, i32_ge_s), (I32GeU, I32GeUI, i32_ge_u),
                (I32Add, I32AddI, i32_add), (I32Sub, I32SubI, i32_sub),
                (I32Mul, I32MulI, i32_mul), (I32And, I32AndI, i32_and),
                (I32Or, I32OrI, i32_or), (I32Xor, I32XorI, i32_xor),
                (I32Shl, I32ShlI, i32_shl), (I32ShrS, I32ShrSI, i32_shr_s),
                (I32ShrU, I32ShrUI, i32_shr_u), (I32Rotl, I32RotlI, i32_rotl),
                (I32Rotr, I32RotrI, i32_rotr),
                (I64Eq, I64EqI, i64_eq), (I64Ne, I64NeI, i64_ne),
                (I64LtS, I64LtSI, i64_lt_s), (I64LtU, I64LtUI, i64_lt_u),
                (I64GtS, I64GtSI, i64_gt_s), (I64GtU, I64GtUI, i64_gt_u),
                (I64LeS, I64LeSI, i64_le_s), (I64LeU, I64LeUI, i64_le_u),
                (I64GeS, I64GeSI, i64_ge_s), (I64GeU, I64GeUI, i64_ge_u),
                (I64Add, I64AddI, i64_add), (I64Sub, I64SubI, i64_sub),
                (I64Mul, I64MulI, i64_mul), (I64And, I64AndI, i64_and),
                (I64Or, I64OrI, i64_or), (I64Xor, I64XorI, i64_xor),
                (I64Shl, I64ShlI, i64_shl), (I64ShrS, I64ShrSI, i64_shr_s),
                (I64ShrU, I64ShrUI, i64_shr_u), (I64Rotl, I64RotlI, i64_rotl),
                (I64Rotr, I64RotrI, i64_rotr),
            ]
            int_bin_trap: [
                (I32DivS, I32DivSI, i32_div_s), (I32DivU, I32DivUI, i32_div_u),
                (I32RemS, I32RemSI, i32_rem_s), (I32RemU, I32RemUI, i32_rem_u),
                (I64DivS, I64DivSI, i64_div_s), (I64DivU, I64DivUI, i64_div_u),
                (I64RemS, I64RemSI, i64_rem_s), (I64RemU, I64RemUI, i64_rem_u),
            ]
            float_bin: [
                (F32Eq, f32_eq), (F32Ne, f32_ne), (F32Lt, f32_lt),
                (F32Gt, f32_gt), (F32Le, f32_le), (F32Ge, f32_ge),
                (F32Add, f32_add), (F32Sub, f32_sub), (F32Mul, f32_mul),
                (F32Div, f32_div), (F32Min, f32_min), (F32Max, f32_max),
                (F32Copysign, f32_copysign),
                (F64Eq, f64_eq), (F64Ne, f64_ne), (F64Lt, f64_lt),
                (F64Gt, f64_gt), (F64Le, f64_le), (F64Ge, f64_ge),
                (F64Add, f64_add), (F64Sub, f64_sub), (F64Mul, f64_mul),
                (F64Div, f64_div), (F64Min, f64_min), (F64Max, f64_max),
                (F64Copysign, f64_copysign),
            ]
            un: [
                (I32Eqz, i32_eqz), (I32Clz, i32_clz), (I32Ctz, i32_ctz),
                (I32Popcnt, i32_popcnt),
                (I64Eqz, i64_eqz), (I64Clz, i64_clz), (I64Ctz, i64_ctz),
                (I64Popcnt, i64_popcnt),
                (F32Abs, f32_abs), (F32Neg, f32_neg), (F32Ceil, f32_ceil),
                (F32Floor, f32_floor), (F32Trunc, f32_trunc),
                (F32Nearest, f32_nearest), (F32Sqrt, f32_sqrt),
                (F64Abs, f64_abs), (F64Neg, f64_neg), (F64Ceil, f64_ceil),
                (F64Floor, f64_floor), (F64Trunc, f64_trunc),
                (F64Nearest, f64_nearest), (F64Sqrt, f64_sqrt),
                (I32WrapI64, i32_wrap_i64),
                (I64ExtendI32S, i64_extend_i32_s), (I64ExtendI32U, i64_extend_i32_u),
                (F32ConvertI32S, f32_convert_i32_s), (F32ConvertI32U, f32_convert_i32_u),
                (F32ConvertI64S, f32_convert_i64_s), (F32ConvertI64U, f32_convert_i64_u),
                (F32DemoteF64, f32_demote_f64),
                (F64ConvertI32S, f64_convert_i32_s), (F64ConvertI32U, f64_convert_i32_u),
                (F64ConvertI64S, f64_convert_i64_s), (F64ConvertI64U, f64_convert_i64_u),
                (F64PromoteF32, f64_promote_f32),
            ]
            un_trap: [
                (I32TruncF32S, i32_trunc_f32_s), (I32TruncF32U, i32_trunc_f32_u),
                (I32TruncF64S, i32_trunc_f64_s), (I32TruncF64U, i32_trunc_f64_u),
                (I64TruncF32S, i64_trunc_f32_s), (I64TruncF32U, i64_trunc_f32_u),
                (I64TruncF64S, i64_trunc_f64_s), (I64TruncF64U, i64_trunc_f64_u),
            ]
            br_cmp: [
                (I32Eq, I32Ne, BrEq, BrEqI, i32_eq), (I32Ne, I32Eq, BrNe, BrNeI, i32_ne),
                (I32LtS, I32GeS, BrLtS, BrLtSI, i32_lt_s), (I32LtU, I32GeU, BrLtU, BrLtUI, i32_lt_u),
                (I32GtS, I32LeS, BrGtS, BrGtSI, i32_gt_s), (I32GtU, I32LeU, BrGtU, BrGtUI, i32_gt_u),
                (I32LeS, I32GtS, BrLeS, BrLeSI, i32_le_s), (I32LeU, I32GtU, BrLeU, BrLeUI, i32_le_u),
                (I32GeS, I32LtS, BrGeS, BrGeSI, i32_ge_s), (I32GeU, I32LtU, BrGeU, BrGeUI, i32_ge_u),
            ]
        }
    };
}
pub(crate) use numeric_ops;

/// Slot → typed value.
trait FromSlot {
    fn from_slot(s: u64) -> Self;
}
/// Typed value → slot (32-bit values zero-extended, `bool` as 0/1).
trait ToSlot {
    fn to_slot(self) -> u64;
}

macro_rules! slot_conv {
    ($($ty:ty: |$s:ident| $from:expr, |$v:ident| $to:expr;)*) => {$(
        impl FromSlot for $ty {
            #[inline(always)]
            fn from_slot($s: u64) -> $ty { $from }
        }
        impl ToSlot for $ty {
            #[inline(always)]
            fn to_slot(self) -> u64 { let $v = self; $to }
        }
    )*};
}

slot_conv! {
    i32: |s| s as u32 as i32, |v| v as u32 as u64;
    u32: |s| s as u32, |v| v as u64;
    i64: |s| s as i64, |v| v as u64;
    u64: |s| s, |v| v;
    f32: |s| f32::from_bits(s as u32), |v| v.to_bits() as u64;
    f64: |s| f64::from_bits(s), |v| v.to_bits();
}

impl ToSlot for bool {
    #[inline(always)]
    fn to_slot(self) -> u64 {
        self as u64
    }
}

/// `name = |a: T, b: T| expr;` → `fn name(u64, u64) -> u64`.
macro_rules! bin {
    ($($name:ident = |$a:ident: $ta:ty, $b:ident: $tb:ty| $e:expr;)*) => {$(
        #[inline(always)]
        pub(crate) fn $name(a: u64, b: u64) -> u64 {
            let ($a, $b) = (<$ta>::from_slot(a), <$tb>::from_slot(b));
            ToSlot::to_slot($e)
        }
    )*};
}

/// `name = |a: T| expr;` → `fn name(u64) -> u64`.
macro_rules! un {
    ($($name:ident = |$a:ident: $ta:ty| $e:expr;)*) => {$(
        #[inline(always)]
        pub(crate) fn $name(a: u64) -> u64 {
            let $a = <$ta>::from_slot(a);
            ToSlot::to_slot($e)
        }
    )*};
}

/// Integer comparisons and arithmetic for one width: `$s`/`$u` are the
/// signed/unsigned types, `$mask` the shift-count mask.
macro_rules! int_ops {
    ($s:ty, $u:ty, $mask:expr, $eq:ident $ne:ident $lt_s:ident $lt_u:ident $gt_s:ident
     $gt_u:ident $le_s:ident $le_u:ident $ge_s:ident $ge_u:ident $add:ident $sub:ident
     $mul:ident $and:ident $or:ident $xor:ident $shl:ident $shr_s:ident $shr_u:ident
     $rotl:ident $rotr:ident $eqz:ident $clz:ident $ctz:ident $popcnt:ident
     $div_s:ident $div_u:ident $rem_s:ident $rem_u:ident) => {
        bin! {
            $eq = |a: $u, b: $u| a == b;
            $ne = |a: $u, b: $u| a != b;
            $lt_s = |a: $s, b: $s| a < b;
            $lt_u = |a: $u, b: $u| a < b;
            $gt_s = |a: $s, b: $s| a > b;
            $gt_u = |a: $u, b: $u| a > b;
            $le_s = |a: $s, b: $s| a <= b;
            $le_u = |a: $u, b: $u| a <= b;
            $ge_s = |a: $s, b: $s| a >= b;
            $ge_u = |a: $u, b: $u| a >= b;
            $add = |a: $u, b: $u| a.wrapping_add(b);
            $sub = |a: $u, b: $u| a.wrapping_sub(b);
            $mul = |a: $u, b: $u| a.wrapping_mul(b);
            $and = |a: $u, b: $u| a & b;
            $or = |a: $u, b: $u| a | b;
            $xor = |a: $u, b: $u| a ^ b;
            $shl = |a: $u, b: $u| a << (b & $mask);
            $shr_s = |a: $s, b: $u| a >> (b & $mask);
            $shr_u = |a: $u, b: $u| a >> (b & $mask);
            $rotl = |a: $u, b: $u| a.rotate_left((b & $mask) as u32);
            $rotr = |a: $u, b: $u| a.rotate_right((b & $mask) as u32);
        }
        un! {
            $eqz = |a: $u| a == 0;
            $clz = |a: $u| a.leading_zeros() as $u;
            $ctz = |a: $u| a.trailing_zeros() as $u;
            $popcnt = |a: $u| a.count_ones() as $u;
        }

        #[inline(always)]
        pub(crate) fn $div_s(a: u64, b: u64) -> Result<u64, Trap> {
            let (a, b) = (<$s>::from_slot(a), <$s>::from_slot(b));
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            if a == <$s>::MIN && b == -1 {
                return Err(Trap::IntegerOverflow);
            }
            Ok(a.wrapping_div(b).to_slot())
        }

        #[inline(always)]
        pub(crate) fn $div_u(a: u64, b: u64) -> Result<u64, Trap> {
            let (a, b) = (<$u>::from_slot(a), <$u>::from_slot(b));
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            Ok((a / b).to_slot())
        }

        #[inline(always)]
        pub(crate) fn $rem_s(a: u64, b: u64) -> Result<u64, Trap> {
            let (a, b) = (<$s>::from_slot(a), <$s>::from_slot(b));
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            Ok(a.wrapping_rem(b).to_slot())
        }

        #[inline(always)]
        pub(crate) fn $rem_u(a: u64, b: u64) -> Result<u64, Trap> {
            let (a, b) = (<$u>::from_slot(a), <$u>::from_slot(b));
            if b == 0 {
                return Err(Trap::IntegerDivideByZero);
            }
            Ok((a % b).to_slot())
        }
    };
}

int_ops!(
    i32, u32, 31, i32_eq i32_ne i32_lt_s i32_lt_u i32_gt_s i32_gt_u i32_le_s i32_le_u
    i32_ge_s i32_ge_u i32_add i32_sub i32_mul i32_and i32_or i32_xor i32_shl i32_shr_s
    i32_shr_u i32_rotl i32_rotr i32_eqz i32_clz i32_ctz i32_popcnt i32_div_s i32_div_u
    i32_rem_s i32_rem_u
);
int_ops!(
    i64, u64, 63, i64_eq i64_ne i64_lt_s i64_lt_u i64_gt_s i64_gt_u i64_le_s i64_le_u
    i64_ge_s i64_ge_u i64_add i64_sub i64_mul i64_and i64_or i64_xor i64_shl i64_shr_s
    i64_shr_u i64_rotl i64_rotr i64_eqz i64_clz i64_ctz i64_popcnt i64_div_s i64_div_u
    i64_rem_s i64_rem_u
);

/// Float comparisons and arithmetic for one width.
macro_rules! float_ops {
    ($f:ty, $eq:ident $ne:ident $lt:ident $gt:ident $le:ident $ge:ident $add:ident
     $sub:ident $mul:ident $div:ident $min:ident $max:ident $copysign:ident $abs:ident
     $neg:ident $ceil:ident $floor:ident $trunc:ident $nearest:ident $sqrt:ident) => {
        bin! {
            $eq = |a: $f, b: $f| a == b;
            $ne = |a: $f, b: $f| a != b;
            $lt = |a: $f, b: $f| a < b;
            $gt = |a: $f, b: $f| a > b;
            $le = |a: $f, b: $f| a <= b;
            $ge = |a: $f, b: $f| a >= b;
            $add = |a: $f, b: $f| a + b;
            $sub = |a: $f, b: $f| a - b;
            $mul = |a: $f, b: $f| a * b;
            $div = |a: $f, b: $f| a / b;
            // WebAssembly `min`: NaN-propagating; `-0` beats `+0`. Equal
            // compares include `-0 == +0`: only the zero pair needs a sign
            // tie-break; other equal values are identical.
            $min = |a: $f, b: $f| if a.is_nan() || b.is_nan() {
                <$f>::NAN
            } else if a == b {
                if a == 0.0 && (a.is_sign_negative() || b.is_sign_negative()) { -0.0 } else { a }
            } else if a < b {
                a
            } else {
                b
            };
            // WebAssembly `max`: NaN-propagating; `+0` beats `-0`.
            $max = |a: $f, b: $f| if a.is_nan() || b.is_nan() {
                <$f>::NAN
            } else if a == b {
                if a == 0.0 && (a.is_sign_positive() || b.is_sign_positive()) { 0.0 } else { a }
            } else if a > b {
                a
            } else {
                b
            };
            $copysign = |a: $f, b: $f| a.copysign(b);
        }
        un! {
            $abs = |a: $f| a.abs();
            $neg = |a: $f| -a;
            $ceil = |a: $f| a.ceil();
            $floor = |a: $f| a.floor();
            $trunc = |a: $f| a.trunc();
            $nearest = |a: $f| a.round_ties_even();
            $sqrt = |a: $f| a.sqrt();
        }
    };
}

float_ops!(
    f32, f32_eq f32_ne f32_lt f32_gt f32_le f32_ge f32_add f32_sub f32_mul f32_div f32_min
    f32_max f32_copysign f32_abs f32_neg f32_ceil f32_floor f32_trunc f32_nearest f32_sqrt
);
float_ops!(
    f64, f64_eq f64_ne f64_lt f64_gt f64_le f64_ge f64_add f64_sub f64_mul f64_div f64_min
    f64_max f64_copysign f64_abs f64_neg f64_ceil f64_floor f64_trunc f64_nearest f64_sqrt
);

un! {
    i32_wrap_i64 = |a: u64| a as u32;
    i64_extend_i32_s = |a: i32| a as i64;
    i64_extend_i32_u = |a: u32| a as u64;
    f32_convert_i32_s = |a: i32| a as f32;
    f32_convert_i32_u = |a: u32| a as f32;
    f32_convert_i64_s = |a: i64| a as f32;
    f32_convert_i64_u = |a: u64| a as f32;
    f32_demote_f64 = |a: f64| a as f32;
    f64_convert_i32_s = |a: i32| a as f64;
    f64_convert_i32_u = |a: u32| a as f64;
    f64_convert_i64_s = |a: i64| a as f64;
    f64_convert_i64_u = |a: u64| a as f64;
    f64_promote_f32 = |a: f32| a as f64;
}

/// Checked float→int truncations with WebAssembly trap semantics. The
/// bounds are the largest/smallest values of the source type that truncate
/// into the target's range.
macro_rules! trunc {
    ($($name:ident: $from:ty => $to:ty, $min:expr, $max:expr;)*) => {$(
        #[inline(always)]
        pub(crate) fn $name(a: u64) -> Result<u64, Trap> {
            let v = <$from>::from_slot(a);
            if v.is_nan() {
                return Err(Trap::InvalidConversionToInteger);
            }
            let t = v.trunc();
            if !($min..=$max).contains(&t) {
                return Err(Trap::IntegerOverflow);
            }
            Ok((t as $to).to_slot())
        }
    )*};
}

trunc! {
    i32_trunc_f32_s: f32 => i32, -2147483648.0f32, 2147483520.0f32;
    i32_trunc_f32_u: f32 => u32, 0.0f32, 4294967040.0f32;
    i32_trunc_f64_s: f64 => i32, -2147483648.0f64, 2147483647.0f64;
    i32_trunc_f64_u: f64 => u32, 0.0f64, 4294967295.0f64;
    i64_trunc_f32_s: f32 => i64, -9223372036854775808.0f32, 9223371487098961920.0f32;
    i64_trunc_f32_u: f32 => u64, 0.0f32, 18446742974197923840.0f32;
    i64_trunc_f64_s: f64 => i64, -9223372036854775808.0f64, 9223372036854774784.0f64;
    i64_trunc_f64_u: f64 => u64, 0.0f64, 18446744073709549568.0f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i32_results_are_zero_extended_and_ignore_high_input_bits() {
        assert_eq!(i32_add(u64::MAX, 1), 0);
        assert_eq!(i32_sub(0, 1), 0xFFFF_FFFF);
        assert_eq!(i32_lt_s(0xFFFF_FFFF, 0), 1, "-1 < 0 signed");
        assert_eq!(i32_lt_u(0xFFFF_FFFF, 0), 0);
        assert_eq!(i32_shr_s(0x8000_0000, 31 + 32), 0xFFFF_FFFF, "count masked");
    }

    #[test]
    fn immediates_are_sign_extended_slots() {
        // The register loop passes `imm as i64 as u64`.
        let minus_one = -1i32 as i64 as u64;
        assert_eq!(i32_add(5, minus_one), 4);
        assert_eq!(i64_add(5, minus_one), 4);
        assert_eq!(i64_shl(1, 65), 2);
    }

    #[test]
    fn trapping_division() {
        assert_eq!(i32_div_s(7, 0), Err(Trap::IntegerDivideByZero));
        assert_eq!(
            i32_div_s(i32::MIN as u32 as u64, u32::MAX as u64),
            Err(Trap::IntegerOverflow)
        );
        assert_eq!(i32_rem_s(i32::MIN as u32 as u64, u32::MAX as u64), Ok(0));
        assert_eq!(i64_div_u(9, 2), Ok(4));
        assert_eq!(i64_rem_u(9, 0), Err(Trap::IntegerDivideByZero));
    }

    #[test]
    fn float_min_max_zero_signs_and_nan() {
        let s = |v: f64| v.to_bits();
        assert_eq!(f64_min(s(0.0), s(-0.0)), s(-0.0));
        assert_eq!(f64_max(s(-0.0), s(0.0)), s(0.0));
        assert!(f64::from_bits(f64_min(s(f64::NAN), s(1.0))).is_nan());
        assert_eq!(f64_max(s(1.0), s(2.0)), s(2.0));
    }

    #[test]
    fn truncation_bounds() {
        let s = |v: f64| v.to_bits();
        assert_eq!(i32_trunc_f64_s(s(-2147483648.9)), Ok(0x8000_0000));
        assert_eq!(i32_trunc_f64_s(s(2147483648.0)), Err(Trap::IntegerOverflow));
        assert_eq!(
            i32_trunc_f64_u(s(f64::NAN)),
            Err(Trap::InvalidConversionToInteger)
        );
        assert_eq!(i64_trunc_f64_u(s(-0.5)), Ok(0));
    }
}
