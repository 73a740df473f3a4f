//! The datatype environment: the paper's `typeof` and `ctors` functions.
//!
//! System F_J is parameterized by a set of algebraic datatypes. The
//! environment maps type-constructor names to their declarations and data
//! constructor names to their owners, and provides field-type instantiation
//! (substituting actual type arguments for the datatype's universal type
//! variables).
//!
//! [`DataEnv::prelude`] wires in the types every part of this repository
//! uses: `Bool`, `Maybe`, `List`, `Pair`, `Unit`, and the two stream-fusion
//! `Step` types from Sec. 5 — the skip-less `Step` (Svenningsson) and the
//! skip-ful `SStep` (Coutts et al.).

use crate::name::{Ident, Name, NameSupply};
use crate::ty::Type;
use std::collections::HashMap;

/// A data constructor declaration.
#[derive(Clone, Debug)]
pub struct DataCon {
    /// The constructor's name, e.g. `Just`.
    pub name: Ident,
    /// The datatype it belongs to.
    pub ty_con: Ident,
    /// Field types, expressed over the owner's universal type variables.
    pub fields: Vec<Type>,
    /// Position within the datatype's constructor list (for exhaustiveness).
    pub tag: usize,
}

/// A datatype declaration `data T a⃗ = K₁ σ⃗₁ | …`.
#[derive(Clone, Debug)]
pub struct DataType {
    /// The type constructor's name.
    pub name: Ident,
    /// Universal type variables.
    pub ty_vars: Vec<Name>,
    /// The constructors, in declaration order.
    pub ctors: Vec<DataCon>,
}

/// Errors from datatype declaration and lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DataEnvError {
    /// A type constructor was declared twice.
    DuplicateTyCon(Ident),
    /// A data constructor was declared twice (possibly across datatypes).
    DuplicateCon(Ident),
    /// A data constructor is not in the environment.
    UnknownCon(Ident),
    /// A type constructor is not in the environment.
    UnknownTyCon(Ident),
    /// A constructor was instantiated at the wrong number of type arguments.
    ArityMismatch {
        /// The constructor.
        con: Ident,
        /// Expected count (the datatype's type-variable count).
        expected: usize,
        /// Provided count.
        got: usize,
    },
}

impl std::fmt::Display for DataEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataEnvError::DuplicateTyCon(t) => write!(f, "duplicate type constructor {t}"),
            DataEnvError::DuplicateCon(c) => write!(f, "duplicate data constructor {c}"),
            DataEnvError::UnknownCon(c) => write!(f, "unknown data constructor {c}"),
            DataEnvError::UnknownTyCon(t) => write!(f, "unknown type constructor {t}"),
            DataEnvError::ArityMismatch { con, expected, got } => write!(
                f,
                "constructor {con} applied to {got} type arguments, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for DataEnvError {}

/// The datatype environment.
#[derive(Clone, Debug, Default)]
pub struct DataEnv {
    types: HashMap<Ident, DataType>,
    con_owner: HashMap<Ident, Ident>,
}

impl DataEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard environment used throughout this repository.
    ///
    /// Declares:
    /// ```text
    /// data Unit      = MkUnit
    /// data Bool      = True | False
    /// data Maybe a   = Nothing | Just a
    /// data List a    = Nil | Cons a (List a)
    /// data Pair a b  = MkPair a b
    /// data Step s a  = Done | Yield a s            -- skip-less (Sec. 5)
    /// data SStep s a = SDone | SYield a s | SSkip s -- with Skip (Coutts et al.)
    /// ```
    pub fn prelude() -> Self {
        let mut env = DataEnv::new();
        let mut s = NameSupply::starting_at(1);
        let a = || Name::with_id("a", 1);
        let _ = &mut s;

        env.declare_unchecked("Unit", vec![], vec![("MkUnit", vec![])]);
        env.declare_unchecked("Bool", vec![], vec![("True", vec![]), ("False", vec![])]);

        let av = a();
        env.declare_unchecked(
            "Maybe",
            vec![av.clone()],
            vec![("Nothing", vec![]), ("Just", vec![Type::Var(av)])],
        );

        let av = a();
        env.declare_unchecked(
            "List",
            vec![av.clone()],
            vec![
                ("Nil", vec![]),
                (
                    "Cons",
                    vec![
                        Type::Var(av.clone()),
                        Type::Con(Ident::new("List"), vec![Type::Var(av)]),
                    ],
                ),
            ],
        );

        let av = Name::with_id("a", 1);
        let bv = Name::with_id("b", 2);
        env.declare_unchecked(
            "Pair",
            vec![av.clone(), bv.clone()],
            vec![("MkPair", vec![Type::Var(av), Type::Var(bv)])],
        );

        let av = Name::with_id("a", 1);
        let bv = Name::with_id("b", 2);
        env.declare_unchecked(
            "Either",
            vec![av.clone(), bv.clone()],
            vec![
                ("Left", vec![Type::Var(av)]),
                ("Right", vec![Type::Var(bv)]),
            ],
        );

        let sv = Name::with_id("s", 3);
        let ev = Name::with_id("a", 4);
        env.declare_unchecked(
            "Step",
            vec![sv.clone(), ev.clone()],
            vec![
                ("Done", vec![]),
                ("Yield", vec![Type::Var(ev.clone()), Type::Var(sv.clone())]),
            ],
        );
        env.declare_unchecked(
            "SStep",
            vec![sv.clone(), ev.clone()],
            vec![
                ("SDone", vec![]),
                ("SYield", vec![Type::Var(ev), Type::Var(sv.clone())]),
                ("SSkip", vec![Type::Var(sv)]),
            ],
        );
        env
    }

    fn declare_unchecked(&mut self, name: &str, ty_vars: Vec<Name>, ctors: Vec<(&str, Vec<Type>)>) {
        let ctor_decls: Vec<(Ident, Vec<Type>)> = ctors
            .into_iter()
            .map(|(c, fs)| (Ident::new(c), fs))
            .collect();
        self.declare(Ident::new(name), ty_vars, ctor_decls)
            .expect("prelude declarations are well-formed");
    }

    /// Declare a new datatype.
    ///
    /// # Errors
    ///
    /// Fails if the type constructor or any data constructor is already
    /// declared.
    pub fn declare(
        &mut self,
        name: Ident,
        ty_vars: Vec<Name>,
        ctors: Vec<(Ident, Vec<Type>)>,
    ) -> Result<(), DataEnvError> {
        if self.types.contains_key(&name) {
            return Err(DataEnvError::DuplicateTyCon(name));
        }
        for (c, _) in &ctors {
            if self.con_owner.contains_key(c) {
                return Err(DataEnvError::DuplicateCon(c.clone()));
            }
        }
        let ctor_decls: Vec<DataCon> = ctors
            .into_iter()
            .enumerate()
            .map(|(tag, (c, fields))| DataCon {
                name: c,
                ty_con: name.clone(),
                fields,
                tag,
            })
            .collect();
        for c in &ctor_decls {
            self.con_owner.insert(c.name.clone(), name.clone());
        }
        self.types.insert(
            name.clone(),
            DataType {
                name,
                ty_vars,
                ctors: ctor_decls,
            },
        );
        Ok(())
    }

    /// Look up a datatype declaration.
    pub fn datatype(&self, name: &Ident) -> Result<&DataType, DataEnvError> {
        self.types
            .get(name)
            .ok_or_else(|| DataEnvError::UnknownTyCon(name.clone()))
    }

    /// Look up a data constructor (the paper's `typeof`, in pieces).
    pub fn constructor(&self, name: &Ident) -> Result<&DataCon, DataEnvError> {
        let owner = self
            .con_owner
            .get(name)
            .ok_or_else(|| DataEnvError::UnknownCon(name.clone()))?;
        let dt = &self.types[owner];
        Ok(dt
            .ctors
            .iter()
            .find(|c| &c.name == name)
            .expect("owner index consistent"))
    }

    /// The datatype that owns a constructor.
    pub fn owner_of(&self, con: &Ident) -> Result<&DataType, DataEnvError> {
        let owner = self
            .con_owner
            .get(con)
            .ok_or_else(|| DataEnvError::UnknownCon(con.clone()))?;
        Ok(&self.types[owner])
    }

    /// Field types of `con` instantiated at the given type arguments, and
    /// the resulting datatype type.
    ///
    /// # Errors
    ///
    /// Fails if the constructor is unknown or the type-argument count does
    /// not match the datatype's arity.
    pub fn instantiate(
        &self,
        con: &Ident,
        ty_args: &[Type],
    ) -> Result<(Vec<Type>, Type), DataEnvError> {
        let dt = self.owner_of(con)?;
        if dt.ty_vars.len() != ty_args.len() {
            return Err(DataEnvError::ArityMismatch {
                con: con.clone(),
                expected: dt.ty_vars.len(),
                got: ty_args.len(),
            });
        }
        let subst: crate::fxhash::FxHashMap<Name, Type> = dt
            .ty_vars
            .iter()
            .cloned()
            .zip(ty_args.iter().cloned())
            .collect();
        let c = dt
            .ctors
            .iter()
            .find(|c| &c.name == con)
            .expect("owner index consistent");
        let fields = c.fields.iter().map(|f| f.subst(&subst)).collect();
        let result = Type::Con(dt.name.clone(), ty_args.to_vec());
        Ok((fields, result))
    }

    /// All constructors of the datatype owning `con` (the paper's `ctors`).
    pub fn siblings(&self, con: &Ident) -> Result<&[DataCon], DataEnvError> {
        Ok(&self.owner_of(con)?.ctors)
    }

    /// Iterate over all declared datatypes.
    pub fn iter(&self) -> impl Iterator<Item = &DataType> {
        self.types.values()
    }

    /// A structural fingerprint of the whole environment, independent of
    /// declaration order and of the uniques chosen for datatype type
    /// variables (each declaration's variables are numbered positionally
    /// before its field types are hashed).
    ///
    /// Two environments with the same fingerprint declare the same
    /// datatypes, so optimized terms are interchangeable between them —
    /// this is the `DataEnv` component of the optimization-cache key: a
    /// program compiled against a prelude extended with `data Shape = …`
    /// must never be served from a cache entry produced under the bare
    /// prelude, even when the terms are alpha-equivalent.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut names: Vec<&Ident> = self.types.keys().collect();
        names.sort();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for name in names {
            let dt = &self.types[name];
            dt.name.as_str().hash(&mut h);
            dt.ty_vars.len().hash(&mut h);
            let position: HashMap<&Name, usize> =
                dt.ty_vars.iter().enumerate().map(|(i, n)| (n, i)).collect();
            for c in &dt.ctors {
                c.name.as_str().hash(&mut h);
                c.tag.hash(&mut h);
                c.fields.len().hash(&mut h);
                for f in &c.fields {
                    hash_field_ty(f, &position, &mut h);
                }
            }
        }
        h.finish()
    }
}

/// Hash a constructor field type with the owning datatype's type
/// variables replaced by their declaration position, so the fingerprint
/// ignores which uniques a frontend happened to pick for them.
fn hash_field_ty(
    t: &Type,
    position: &HashMap<&Name, usize>,
    h: &mut std::collections::hash_map::DefaultHasher,
) {
    use std::hash::Hash;
    match t {
        Type::Var(a) => {
            0u8.hash(h);
            match position.get(a) {
                Some(ix) => ix.hash(h),
                // A variable that is not one of the datatype's own
                // binders (ill-formed in practice): hash its raw unique.
                None => (u64::MAX, a.id()).hash(h),
            }
        }
        Type::Con(c, args) => {
            1u8.hash(h);
            c.as_str().hash(h);
            args.len().hash(h);
            for a in args {
                hash_field_ty(a, position, h);
            }
        }
        Type::Fun(a, b) => {
            2u8.hash(h);
            hash_field_ty(a, position, h);
            hash_field_ty(b, position, h);
        }
        Type::Forall(a, b) => {
            3u8.hash(h);
            a.id().hash(h);
            hash_field_ty(b, position, h);
        }
        Type::Int => 4u8.hash(h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_has_expected_types() {
        let env = DataEnv::prelude();
        for t in [
            "Unit", "Bool", "Maybe", "List", "Pair", "Either", "Step", "SStep",
        ] {
            assert!(env.datatype(&Ident::new(t)).is_ok(), "missing {t}");
        }
    }

    #[test]
    fn instantiate_just() {
        let env = DataEnv::prelude();
        let (fields, res) = env.instantiate(&Ident::new("Just"), &[Type::Int]).unwrap();
        assert_eq!(fields, vec![Type::Int]);
        assert_eq!(res, Type::Con(Ident::new("Maybe"), vec![Type::Int]));
    }

    #[test]
    fn instantiate_cons_recursion() {
        let env = DataEnv::prelude();
        let (fields, _) = env
            .instantiate(&Ident::new("Cons"), &[Type::bool()])
            .unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0], Type::bool());
        assert_eq!(fields[1], Type::Con(Ident::new("List"), vec![Type::bool()]));
    }

    #[test]
    fn arity_mismatch_detected() {
        let env = DataEnv::prelude();
        let err = env.instantiate(&Ident::new("Just"), &[]).unwrap_err();
        assert!(matches!(err, DataEnvError::ArityMismatch { .. }));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let mut env = DataEnv::prelude();
        let dup = env.declare(Ident::new("Bool"), vec![], vec![]);
        assert!(matches!(dup, Err(DataEnvError::DuplicateTyCon(_))));
        let dup_con = env.declare(
            Ident::new("Bool2"),
            vec![],
            vec![(Ident::new("True"), vec![])],
        );
        assert!(matches!(dup_con, Err(DataEnvError::DuplicateCon(_))));
    }

    #[test]
    fn siblings_of_just() {
        let env = DataEnv::prelude();
        let sibs = env.siblings(&Ident::new("Just")).unwrap();
        let names: Vec<&str> = sibs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Nothing", "Just"]);
    }

    #[test]
    fn fingerprint_distinguishes_environments() {
        let prelude = DataEnv::prelude();
        assert_eq!(
            prelude.fingerprint(),
            DataEnv::prelude().fingerprint(),
            "fingerprint must be deterministic"
        );
        // Same declarations built on another thread (separate
        // allocations): the fingerprint is content-addressed, not
        // pointer-addressed.
        let remote_fp = std::thread::spawn(|| DataEnv::prelude().fingerprint())
            .join()
            .unwrap();
        assert_eq!(prelude.fingerprint(), remote_fp);
        // Extending the environment must change the key.
        let mut extended = DataEnv::prelude();
        extended
            .declare(
                Ident::new("Shape"),
                vec![],
                vec![(Ident::new("Circle"), vec![Type::Int])],
            )
            .unwrap();
        assert_ne!(prelude.fingerprint(), extended.fingerprint());
        // Ty-var uniques are normalized away: redeclaring Maybe with a
        // differently-numbered variable fingerprints identically.
        let mut a_env = DataEnv::new();
        let v1 = Name::with_id("a", 1);
        a_env
            .declare(
                Ident::new("Maybe"),
                vec![v1.clone()],
                vec![
                    (Ident::new("Nothing"), vec![]),
                    (Ident::new("Just"), vec![Type::Var(v1)]),
                ],
            )
            .unwrap();
        let mut b_env = DataEnv::new();
        let v9 = Name::with_id("zz", 9_999);
        b_env
            .declare(
                Ident::new("Maybe"),
                vec![v9.clone()],
                vec![
                    (Ident::new("Nothing"), vec![]),
                    (Ident::new("Just"), vec![Type::Var(v9)]),
                ],
            )
            .unwrap();
        assert_eq!(a_env.fingerprint(), b_env.fingerprint());
    }

    #[test]
    fn step_variants_differ() {
        let env = DataEnv::prelude();
        assert_eq!(env.datatype(&Ident::new("Step")).unwrap().ctors.len(), 2);
        assert_eq!(env.datatype(&Ident::new("SStep")).unwrap().ctors.len(), 3);
    }
}
