//! Typing environments: Γ (term and type variables) and Δ (join labels).
//!
//! The central subtlety of the paper's type system (Fig. 2) is that Δ is
//! *reset to ε* in every premise whose runtime context is not statically
//! known — function arguments, lambda bodies, constructor arguments, `let`
//! right-hand sides. That is what confines jumps to positions where
//! "adjust the stack and jump" is a correct compilation strategy.

use fj_ast::{FxHashMap, Name, Type};

/// The Γ environment: term variables with their types, and the type
/// variables currently in scope.
#[derive(Clone, Debug, Default)]
pub(crate) struct Gamma {
    vars: FxHashMap<Name, Type>,
    tyvars: FxHashMap<Name, ()>,
}

impl Gamma {
    /// An empty Γ.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a term variable.
    pub fn bind_var(&mut self, x: Name, ty: Type) {
        self.vars.insert(x, ty);
    }

    /// Bind a type variable.
    pub fn bind_tyvar(&mut self, a: Name) {
        self.tyvars.insert(a, ());
    }

    /// Look up a term variable's type.
    pub fn var(&self, x: &Name) -> Option<&Type> {
        self.vars.get(x)
    }

    /// Is the type variable in scope?
    pub fn has_tyvar(&self, a: &Name) -> bool {
        self.tyvars.contains_key(a)
    }
}

/// The signature of a join point in Δ: its type parameters and the types of
/// its value parameters (expressed over those type parameters).
#[derive(Clone, Debug)]
pub(crate) struct JoinSig {
    /// Bound type parameters `a⃗`.
    pub ty_params: Vec<Name>,
    /// Value parameter types `σ⃗`.
    pub param_tys: Vec<Type>,
}

/// The Δ environment: join labels in scope.
///
/// Cloning is cheap-ish (small maps); the checker clones at the few rules
/// that extend Δ and simply passes [`Delta::empty`] where the paper resets.
#[derive(Clone, Debug, Default)]
pub(crate) struct Delta {
    labels: FxHashMap<Name, JoinSig>,
}

impl Delta {
    /// The empty Δ (the paper's ε).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Extend with a label.
    pub fn bind(&mut self, j: Name, sig: JoinSig) {
        self.labels.insert(j, sig);
    }

    /// Look up a label.
    pub fn get(&self, j: &Name) -> Option<&JoinSig> {
        self.labels.get(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::NameSupply;

    #[test]
    fn gamma_binds_and_looks_up() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let mut g = Gamma::new();
        assert_eq!(g.var(&x), None);
        g.bind_var(x.clone(), Type::Int);
        assert_eq!(g.var(&x), Some(&Type::Int));
    }

    #[test]
    fn delta_empty_is_empty() {
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let mut d = Delta::empty();
        assert!(d.get(&j).is_none());
        d.bind(
            j.clone(),
            JoinSig {
                ty_params: vec![],
                param_tys: vec![Type::Int],
            },
        );
        assert!(d.get(&j).is_some());
        assert!(Delta::empty().get(&j).is_none());
    }
}
