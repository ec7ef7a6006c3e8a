"""sweedler: an exact kernel for dg-(co)algebras over Q or F_p.

Sweedler operations (convolution, measurings, the Sweedler product C▷A,
formula cases of the Sweedler hom, finite duality) and the bar/cobar
constructions with sign-exact differentials, all computed inside explicit
degree/word-length truncation windows.
"""

from .scalars import Field, QQ, scalar_arith, DivisionByZero, MixedFields
from .graded import (Truncation, GradedSpace, GradedMap, tensor_space,
                     tensor_label, koszul_swap, hom_space, hom_label,
                     lambda1, lambda2, uncurry1, uncurry2, strength_tensor,
                     suspend, graded_dual, transpose, identity_map,
                     label_str, EnumerationTooLarge)
from .complexes import (DgSpace, NotAComplex, check_square_zero, homology,
                        dg_tensor, dg_hom)
from .algebras import (DgAlgebra, PresentedAlgebra, normal_forms,
                       tensor_algebra, extend_derivation, algebra_tensor,
                       opposite, omega_bimodule, InconsistentDifferential,
                       word_label, UNIT_WORD)
from .coalgebras import (DgCoalgebra, tensor_coalgebra, coshuffle_coalgebra,
                         odd_binomial, radical, primitives,
                         coextend_coderivation, cofree_coalgebra,
                         coextend_map, shuffle_product, quasi_shuffle_product,
                         finite_dual, dual_algebra, RegimeViolation,
                         NotConilpotent, NotGradedFinite, NotAnAtom)
from .sweedler_ops import (convolution_algebra, convolve, verify_measuring,
                           sweedler_product, example_construction,
                           sweedler_hom_free, sweedler_dual,
                           primitive_coalgebra, matrix_algebra)
from .barcobar import (mc_algebra, mc_verify, mc_enumerate,
                       verify_twisting_cochain, bar, cobar,
                       universal_bar_cochain, universal_cobar_cochain,
                       adjunction_transforms, sign_convention_report,
                       length_sign_automorphism, hopf_on_bar, hopf_on_cobar,
                       enumerate_twisting_cochains, MINUS, PLUS,
                       ConventionMismatch)
from .presentation import PresentationFile, parse_file, parse_text
from .presets import load_preset

__version__ = "0.1.0"
