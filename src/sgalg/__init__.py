"""Exact calculus for reduced semigroup C*-algebras of numerical semigroups.

Layers: exact semigroup arithmetic, the inverse semigroup of partial
translations, the faithful operator form (widest translations plus matrix
units) with symbol and splitting, the free coalgebra with its weak Hopf
structure and dual convolution, and a floating-point layer for norms and
gauge averaging.
"""

from .scalars import GaussianRational
from .semigroup import (NumericalSemigroup, automorphism_multipliers,
                        morphism_multipliers)
from .translations import (PartialTranslation, compose, elementary, evaluate_word,
                           max_translation, word_action)
from .operators import (LaurentPolynomial, OperatorElement, from_monomial,
                        generator_commutator, toeplitz_lift)
from .quantum import (FreeElement, FreeTensor, coideal_decomposition, coproduct,
                      corner_diagram_check, descent_witness, distinct_monomials,
                      enumerate_words, group_like_detect,
                      quantum_morphism_falsify, rep, tensor_multiply, tensor_of,
                      weak_antipode, weak_hopf_check)
from .functionals import (Convolution, LinCombo, MatrixCoeff, SymbolPointMass,
                          convolve, evaluate, haar, lin_combo, phi_star,
                          point_mass)
from .numeric import (fourier_project, gauge_twist, laurent_sup_norm,
                      operator_norm, truncate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
