"""Exact certificates for additive-polynomial groups over imperfect fields.

Subpackage map:

* ``field``, ``gfq``, ``fqpoly`` -- towers F_q(a^(1/p^m)) and their exact
  rational-function arithmetic;
* ``ppoly`` -- multivariate additive polynomials, composition, principal
  parts, Frobenius twists, division with replayable traces;
* ``zerocert`` -- no-nontrivial-zero decisions with certificates and
  independent bounded witness searches;
* ``polyring``, ``params``, ``oracle`` -- general polynomials, normal forms
  modulo pivoted relations, parameter rings, randomized identity oracle;
* ``groups`` -- hypersurface group presentations, classification, cocycle
  extensions, Frobenius isogenies;
* ``homs`` -- canonical forms, verification, constraint derivation and
  F_p-kernel solving of homomorphisms over finite coefficient domains;
* ``parser``, ``session``, ``corpus``, ``cli`` -- the text front end and
  the built-in regression corpus.

Exports are lazy (PEP 562): ``import woundcheck`` loads no submodule, and
the first use of a name imports the module that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "field": "Field FieldElem FieldSpec",
    "ppoly": "PPoly ReductionTrace is_smooth reduce_mod to_relation",
    "polyring": "Poly Relation RelationSet is_identically_zero normal_form",
    "params": "ParamRing ParamElem",
    "zerocert": "ZeroDecision decide_no_nontrivial_zero exhaustive_poly_search",
    "groups": "AffineLine ClassificationReport CocycleExtension HypersurfaceGroup PPolyMap "
              "check_biadditive check_group_axioms check_lands_in classify is_commutative "
              "twist_group",
    "homs": "ConstraintSystem canonical_form derive_hom_constraints relative_frobenius "
            "solve_homs_bounded verify_hom verify_mutual_inverse",
    "oracle": "random_point_oracle",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
