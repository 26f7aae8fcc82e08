// MUST-NOT-FIRE twin of dim_consistency_fire.rs: dimensionally
// consistent arithmetic and sanctioned composites.

pub struct Watts(pub f64);
pub struct Seconds(pub f64);
pub struct Celsius(pub f64);

// Same dimension on both sides of +/comparison.
pub fn add_same(a: Watts, b: Watts) -> f64 {
    a.value() + b.value()
}

// W · s = J is a legal composite (|exponents| stay small).
pub fn energy(p: Watts, dt: Seconds) -> f64 {
    p.value() * dt.value()
}

// Unknown operands never fire: silence over speculation.
pub fn untyped(a: f64, b: f64) -> f64 {
    a + b
}

impl Watts {
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Seconds {
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Celsius {
    pub fn value(&self) -> f64 {
        self.0
    }
}
