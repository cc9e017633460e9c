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
"""

__version__ = "0.1.0"

from .field import Field, FieldElem, FieldSpec  # noqa: F401
from .ppoly import PPoly, ReductionTrace, is_smooth, reduce_mod, to_relation  # noqa: F401
from .polyring import Poly, Relation, RelationSet, is_identically_zero, normal_form  # noqa: F401
from .params import ParamRing, ParamElem  # noqa: F401
from .zerocert import ZeroDecision, decide_no_nontrivial_zero, exhaustive_poly_search  # noqa: F401
from .groups import (AffineLine, ClassificationReport, CocycleExtension,  # noqa: F401
                     HypersurfaceGroup, check_biadditive, check_group_axioms,
                     check_lands_in, classify, is_commutative, twist_group)
from .homs import (ConstraintSystem, PPolyMap, canonical_form,  # noqa: F401
                   derive_hom_constraints, relative_frobenius, solve_homs_bounded,
                   verify_hom, verify_mutual_inverse)
from .oracle import random_point_oracle  # noqa: F401
