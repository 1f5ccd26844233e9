//! The run-time scalar and its operators.

/// Run-time scalar. The distinction between `I` and `R` is semantic, not
/// just representational: integer division truncates, `Pow` clamps its
/// exponent, and the simulator charges a flop when either operand of a
/// binary operation is `R` and an integer op otherwise — so every engine
/// carries it dynamically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    I(i64),
    R(f64),
}

impl Value {
    #[inline]
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::R(v) => v as i64,
        }
    }
    #[inline]
    pub fn as_r(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::R(v) => v,
        }
    }
    #[inline]
    pub fn truthy(self) -> bool {
        self.as_i() != 0
    }
}

/// How `print *` renders a scalar on every back end.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::R(v) => write!(f, "{v}"),
        }
    }
}

/// Binary operators (arithmetic on simulated REALs, integer arithmetic on
/// loop/index values, comparisons, logical connectives).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Intrinsics available to node programs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SIntr {
    Abs,
    Min,
    Max,
    Mod,
    Sqrt,
    Sign,
}

/// Integer exponentiation; the exponent is clamped to `0..=62`.
#[inline]
pub fn ipow(x: i64, y: i64) -> i64 {
    x.pow(y.clamp(0, 62) as u32)
}

/// Kind-preserving negation. (`Sub(0, x)` would be wrong for `-0.0`.)
#[inline]
pub fn neg(v: Value) -> Value {
    match v {
        Value::I(x) => Value::I(-x),
        Value::R(x) => Value::R(-x),
    }
}

/// `SIGN(a, b)` on floats.
#[inline]
pub fn fsign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Fold-min over floats, seeded at `INFINITY` (one fold order, and with it
/// one treatment of NaNs and signed zeros, on every back end).
#[inline]
pub fn fmin(vals: impl IntoIterator<Item = f64>) -> f64 {
    vals.into_iter().fold(f64::INFINITY, f64::min)
}

/// Fold-max over floats, seeded at `NEG_INFINITY`.
#[inline]
pub fn fmax(vals: impl IntoIterator<Item = f64>) -> f64 {
    vals.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

impl SBinOp {
    /// True for the operators whose result is a truth value `I(0|1)`
    /// whatever the operand kinds (comparisons and logicals).
    #[inline]
    pub fn is_boolean(self) -> bool {
        !matches!(
            self,
            SBinOp::Add | SBinOp::Sub | SBinOp::Mul | SBinOp::Div | SBinOp::Pow
        )
    }
}

/// Applies a binary operator. Integer op when both operands are `I`;
/// otherwise both promote to `f64` ([`apply_bin_r`]). Comparisons and
/// logicals yield `I(0|1)`.
#[inline]
pub fn apply_bin(op: SBinOp, a: Value, b: Value) -> Value {
    use SBinOp::*;
    let bool_v = |c: bool| Value::I(c as i64);
    match (a, b) {
        (Value::I(x), Value::I(y)) => match op {
            Add => Value::I(x + y),
            Sub => Value::I(x - y),
            Mul => Value::I(x * y),
            Div => Value::I(x / y),
            Pow => Value::I(ipow(x, y)),
            Lt => bool_v(x < y),
            Le => bool_v(x <= y),
            Gt => bool_v(x > y),
            Ge => bool_v(x >= y),
            Eq => bool_v(x == y),
            Ne => bool_v(x != y),
            And => bool_v(x != 0 && y != 0),
            Or => bool_v(x != 0 || y != 0),
        },
        _ => {
            let v = apply_bin_r(op, a.as_r(), b.as_r());
            if op.is_boolean() {
                Value::I(v as i64)
            } else {
                Value::R(v)
            }
        }
    }
}

/// [`apply_bin`]'s mixed arm on plain `f64`s, a truth value as 0.0 or
/// 1.0: `apply_bin(op, a, b).as_r()` whenever `a` or `b` is `R`.
#[inline]
pub fn apply_bin_r(op: SBinOp, x: f64, y: f64) -> f64 {
    use SBinOp::*;
    let bool_r = |c: bool| c as i64 as f64;
    match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => x / y,
        Pow => x.powf(y),
        Lt => bool_r(x < y),
        Le => bool_r(x <= y),
        Gt => bool_r(x > y),
        Ge => bool_r(x >= y),
        Eq => bool_r(x == y),
        Ne => bool_r(x != y),
        And => bool_r(x != 0.0 && y != 0.0),
        Or => bool_r(x != 0.0 || y != 0.0),
    }
}

/// Applies an intrinsic to already-evaluated arguments.
#[inline]
pub fn apply_intr(name: SIntr, vals: &[Value]) -> Value {
    let all_int = || vals.iter().all(|v| matches!(v, Value::I(_)));
    let reals = || vals.iter().map(|v| v.as_r());
    match name {
        SIntr::Abs => match vals[0] {
            Value::I(v) => Value::I(v.abs()),
            Value::R(v) => Value::R(v.abs()),
        },
        SIntr::Min if all_int() => Value::I(vals.iter().map(|v| v.as_i()).min().unwrap()),
        SIntr::Min => Value::R(fmin(reals())),
        SIntr::Max if all_int() => Value::I(vals.iter().map(|v| v.as_i()).max().unwrap()),
        SIntr::Max => Value::R(fmax(reals())),
        SIntr::Mod => match (vals[0], vals[1]) {
            (Value::I(a), Value::I(b)) => Value::I(a % b),
            (a, b) => Value::R(a.as_r() % b.as_r()),
        },
        SIntr::Sqrt => Value::R(vals[0].as_r().sqrt()),
        SIntr::Sign => Value::R(fsign(vals[0].as_r(), vals[1].as_r())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_and_mixed_operands() {
        // Integer division truncates; Pow clamps; mixed promotes.
        assert_eq!(
            apply_bin(SBinOp::Div, Value::I(7), Value::I(2)),
            Value::I(3)
        );
        assert_eq!(
            apply_bin(SBinOp::Pow, Value::I(2), Value::I(-3)),
            Value::I(1)
        );
        assert_eq!(
            apply_bin(SBinOp::Div, Value::I(7), Value::R(2.0)),
            Value::R(3.5)
        );
        assert_eq!(
            apply_bin(SBinOp::Lt, Value::R(1.5), Value::I(2)),
            Value::I(1)
        );
        assert_eq!(
            apply_intr(SIntr::Min, &[Value::I(3), Value::R(2.5)]),
            Value::R(2.5)
        );
        assert_eq!(
            apply_intr(SIntr::Min, &[Value::I(3), Value::I(2)]),
            Value::I(2)
        );
        assert_eq!(
            apply_intr(SIntr::Sign, &[Value::I(3), Value::I(-1)]),
            Value::R(-3.0)
        );
        assert!(neg(Value::R(0.0)).as_r().is_sign_negative());
    }

    #[test]
    fn real_arm_is_the_mixed_arm() {
        use SBinOp::*;
        let ops = [Add, Sub, Mul, Div, Pow, Lt, Le, Gt, Ge, Eq, Ne, And, Or];
        let vals = [-2.5, -0.0, 0.0, 1.0, 3.0, f64::NAN, f64::INFINITY];
        for op in ops {
            for x in vals {
                for y in vals {
                    for (a, b) in [
                        (Value::R(x), Value::R(y)),
                        (Value::I(x as i64), Value::R(y)),
                        (Value::R(x), Value::I(y as i64)),
                    ] {
                        let want = apply_bin(op, a, b).as_r();
                        let got = apply_bin_r(op, a.as_r(), b.as_r());
                        assert!(
                            want.to_bits() == got.to_bits() || (want.is_nan() && got.is_nan()),
                            "{op:?} {a:?} {b:?}: {want} vs {got}"
                        );
                    }
                }
            }
        }
    }
}
