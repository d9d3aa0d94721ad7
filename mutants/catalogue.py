"""The mutation catalogue: hand-made faults that the test suite must catch.

Each Mutant names one fault in a file of the tree: its edits are
(old, new) text pairs, and each old text must occur exactly once in the
unmutated file, so an entry that no longer fits the code fails the run
instead of passing unseen.  tests are the pytest node ids expected to
kill it: run.py applies the edits to a copy of the tree and runs
`pytest -x` on them, and at least one must fail or time out.

Add an entry here for every mutant a change is checked against, with the
tests that kill it, so a later edit to those tests that lets the mutant
survive fails `python mutants/run.py`.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    edits: tuple
    tests: tuple


POLY = "src/supergeom/poly.py"
MATRIX = "src/supergeom/matrix.py"
WIDTH_TEST = "tests/test_enumeration.py::test_packed_rows_keep_their_columns_apart"
DET_IMAGE = "tests/test_det_image.py"
SLOT_FORM_TEST = f"{DET_IMAGE}::test_the_slot_form_is_injective_on_every_simplex_the_rule_admits"
IMAGE_DET_TEST = f"{DET_IMAGE}::test_the_image_det_expands_as_the_entry_ints"
LAPLACE_TEST = f"{DET_IMAGE}::test_laplace_takes_the_oracle_minors_on_the_entry_ints"
BODY_INVERSE = "tests/test_body_inverse.py"
SMALL_BODIES = (f"{BODY_INVERSE}::"
                "test_small_constant_bodies_are_built_reduced_over_positive_denominators")
JSON_TEST = "tests/test_coefficients.py::test_json_round_trips_the_stored_form"
QUOTIENT_MODEL = "tests/test_quotient_rename_model.py"
MATRICES_TEST = "tests/test_identity.py::test_matrix_reports_keep_their_bytes"
LINALG = "src/supergeom/linalg.py"
SUBSTITUTE_TESTS = "tests/test_substitute_reference.py"
# row i of B^{-1} over the first row's pivot, not its own (linalg._inverse)
INVERSE_PIVOT = ("(p := row[i]) > 0", "(p := m[0][0]) > 0")
# the sign (-1)^(i+j) of a cofactor of a body that is not constant
COFACTOR_SIGN = ("    signed = (d, -d)\n", "    signed = (d, d)\n")
ONE_SUM_BRACKET_TEST = "tests/test_one_sum.py::test_the_superbracket_is_one_grid_product"
ONE_SUM_LAPLACE_TEST = "tests/test_one_sum.py::test_each_laplace_column_sum_is_one_packed_sum"
ONE_SUM_TEST = "tests/test_one_sum.py::test_every_sum_of_products_is_one_packed_dot"
# superbracket's block row [a | -+b], +b when both are odd
SUPERBRACKET_ROW = "    left = _gblocks(a.rows, b.rows if odd else _gneg(b.rows), (), ())\n"
PRINT = "tests/test_print_and_rename.py"
PRINTER_TEST = f"{PRINT}::test_str_matches_the_reference_printer"
# the odd word's rank in the low bits of a print key (poly._monomial_text)
WORD_RANK = "        rank = len(word) + 2 * top - (top >> word[-1])\n"
CONSTANT_LEFT = "tests/test_kernel.py::TestConstantLeftTerms"
SCHUR_TESTS = (
    "tests/test_schur.py::test_complements_match_the_plain_difference",
    "tests/test_schur.py::test_the_complement_is_summed_without_adding_polynomials",
    "tests/test_acceptance.py::test_criterion_01_berezinian_multiplicativity",
)

CATALOGUE = (
    # -- packed rows: a key is code << w | column (poly._pack) --------------
    Mutant(
        "_packed_dot's overflow report without >> w",
        POLY,
        (("                            c = -c\n"
          "                        m = m1 + m2\n"
          "                        if m & guard:\n"
          "                            _field_overflow(ctx, (m & guard) >> w)",
          "                            c = -c\n"
          "                        m = m1 + m2\n"
          "                        if m & guard:\n"
          "                            _field_overflow(ctx, m & guard)"),
         ("                        c = c0 * c2\n"
          "                        m = m1 + m2\n"
          "                        if m & guard:\n"
          "                            _field_overflow(ctx, (m & guard) >> w)",
          "                        c = c0 * c2\n"
          "                        m = m1 + m2\n"
          "                        if m & guard:\n"
          "                            _field_overflow(ctx, m & guard)")),
        ("tests/test_packing.py::test_an_overflow_in_a_packed_row_names_its_generator",
         "tests/test_kernel.py::TestDotRowEdges::test_exponent_past_the_cap_raises_from_any_column"),
    ),
    Mutant(
        "w one bit short at widths that are not powers of two",
        POLY,
        (("    w = (len(row) - 1).bit_length()\n",
          "    w = len(row).bit_length() - 1\n"),
         ("    w = (width - 1).bit_length()\n    guard = ctx._guard << w\n",
          "    w = width.bit_length() - 1\n    guard = ctx._guard << w\n"),
         ("    w = (width - 1).bit_length()\n    low = (1 << w) - 1\n",
          "    w = width.bit_length() - 1\n    low = (1 << w) - 1\n")),
        (f"{WIDTH_TEST}[3]", f"{WIDTH_TEST}[5]", f"{WIDTH_TEST}[9]"),
    ),
    Mutant(
        "_packed_dot's MAX_TERMS test skipped after an odd left term",
        POLY,
        (("                if len(acc) > cap:\n", "                if not o1 and len(acc) > cap:\n"),),
        ("tests/test_caps.py::test_a_product_of_odd_left_terms_past_the_cap_is_refused",),
    ),
    Mutant(
        "_split without its per-entry MAX_TERMS test",
        POLY,
        (("        if len(nums) > MAX_TERMS:\n"
          "            raise LimitExceeded(f\"product has more than {MAX_TERMS} terms, the cap\")\n"
          "        out.append(", "        out.append("),),
        ("tests/test_kernel.py::TestDotRowEdges::test_the_term_cap_applies_to_each_column",
         "tests/test_series_inverse.py::test_the_joined_inverse_keeps_the_term_cap",
         "tests/test_caps.py::test_bracket_sums_both_sides_under_one_cap"),
    ),
    Mutant(
        "_packed_dot checking each left factor's context just before its products",
        POLY,
        (("""        if a.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
        if a.nums and packed:
            d = a.den * packed[1]
""", """        if a.nums and packed:
            d = a.den * packed[1]
"""), ("""    for k, a, packed in triples:
        if a.nums and packed:
""", """    for k, a, packed in triples:
        if a.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
        if a.nums and packed:
""")),
        ("tests/test_kernel.py::TestDotRowEdges::test_contexts_are_checked_before_any_product",),
    ),
    # -- constant left terms and a sum's one denominator -------------------
    Mutant(
        "the constant loop keeping a cancelled zero numerator",
        POLY,
        (("                            if not c:\n"
          "                                del acc[m2]\n"
          "                                continue\n", ""),),
        (f"{CONSTANT_LEFT}::test_products_that_cancel_every_key_read_zero",),
    ),
    Mutant(
        "the constant loop's stores into an empty map without the MAX_TERMS test",
        POLY,
        (("                        acc[m2] = c0 * c2\n", "                        acc[m2] = c0 * c2\n"
          "                    continue\n"),),
        (f"{CONSTANT_LEFT}::test_a_constant_times_a_row_past_the_cap_is_refused",),
    ),
    Mutant(
        "_packed_dot scaling a product by den // den_j, without a.den",
        POLY,
        (("            scale = k * (den // (a.den * packed[1]))\n",
          "            scale = k * (den // packed[1])\n"),),
        (f"{CONSTANT_LEFT}::test_a_packed_sum_reads_the_lcm_of_coprime_denominators",),
    ),
    Mutant(
        "_packed_dot taking its denominator from the first product alone",
        POLY,
        (("            if den % d:\n                den = d if den == 1 else lcm(den, d)\n",
          "            if den == 1:\n                den = d\n"),),
        (f"{CONSTANT_LEFT}::test_a_packed_sum_reads_the_lcm_of_coprime_denominators",),
    ),
    # -- weights: a term's numerator, bracket's -1 (poly._packed_dot) ------
    Mutant(
        "_packed_dot leaving the weight k out of the scale",
        POLY,
        (("            scale = k * (den // (a.den * packed[1]))\n",
          "            scale = den // (a.den * packed[1])\n"),),
        ("tests/test_even_enumeration.py::test_every_basis_pair_sums_by_its_weight_in_a_packed_row",
         f"{SUBSTITUTE_TESTS}::test_substitute_matches_the_reference"),
    ),
    Mutant(
        "bracket's -1 sent to the first side",
        "src/supergeom/derivation.py",
        (("((d1, d2, 1), (d2, d1, 1 if both_odd else -1))",
          "((d1, d2, 1 if both_odd else -1), (d2, d1, 1))"),),
        ("tests/test_derivation_reference.py::test_bracket_matches_the_reference",
         f"{ONE_SUM_TEST}[0-bracket-even-odd]"),
    ),
    Mutant(
        "_substitute_each without the polynomial's den",
        POLY,
        (("_reduced(ctx_out, acc, den * poly.den)", "_reduced(ctx_out, acc, den)"),),
        (f"{SUBSTITUTE_TESTS}::test_substitute_matches_the_reference",
         f"{ONE_SUM_TEST}[0-substitute]"),
    ),
    # -- one operator swapped in the sign and bit code ----------------------
    Mutant(
        "left_quotient scaling by c/den in place of den/c",
        POLY,
        (("out._scaled(factor.den, c)", "out._scaled(c, factor.den)"),),
        ("tests/test_packing.py::test_left_quotient_matches_the_partials",),
    ),
    Mutant(
        "left_quotient keeping each term's sign",
        POLY,
        (("            nums[code] = -v if (swaps & code).bit_count() & 1 else v\n",
          "            nums[code] = v\n"),),
        (f"{QUOTIENT_MODEL}::test_left_quotient_strips_the_factor_with_the_model_sign",),
    ),
    Mutant(
        "left_quotient accepting a term that holds some generator of M",
        POLY,
        (("            if code & m != m:\n", "            if not code & m:\n"),),
        (f"{QUOTIENT_MODEL}::test_a_term_without_a_generator_of_the_factor_is_refused",),
    ),
    Mutant(
        "_times_generator reporting every guard bit as overflowed",
        POLY,
        (("_field_overflow(ctx, code & ctx._guard)", "_field_overflow(ctx, code | ctx._guard)"),),
        ("tests/test_parse.py::test_field_overflow_matches_the_reference",),
    ),
    # -- the Kronecker image of an odd-free grid (poly._kronecker_image) ---
    Mutant(
        "the image width b one bit short",
        POLY,
        (("    b = (norm.bit_length() + 1) // 2 + 1\n", "    b = (norm.bit_length() + 1) // 2\n"),),
        (f"{DET_IMAGE}::test_a_digit_of_the_largest_magnitude_reads_back",
         f"{DET_IMAGE}::test_hadamard_times_a_monomial_meets_the_bound"),
    ),
    Mutant(
        "_slot_units with the radix d_i in place of d_i + 1",
        POLY,
        (("            span *= d + 1\n", "            span *= d\n"),),
        (f"{DET_IMAGE}::test_a_digit_of_the_largest_magnitude_reads_back",
         f"{DET_IMAGE}::test_hadamard_times_a_monomial_meets_the_bound",
         f"{DET_IMAGE}::test_a_box_narrower_than_the_digit_keeps_the_mixed_radix"),
    ),
    Mutant(
        "_image_det ignoring the sign",
        MATRIX,
        (("                m = -minors[mask ^ low] if neg else minors[mask ^ low]\n",
          "                m = minors[mask ^ low]\n"),),
        (IMAGE_DET_TEST,),
    ),
    Mutant(
        "_image_det dropping the first shift from its final sum",
        MATRIX,
        (("sum([t << s for s, t in sums.items()])",
          "sum([t << s for s, t in list(sums.items())[1:]])"),),
        (IMAGE_DET_TEST,),
    ),
    Mutant(
        "_image_det advancing the sign only past nonzero entries",
        MATRIX,
        (("                    sums[s] = sums[s] + c * m if s in sums else c * m\n"
          "            neg = not neg\n",
          "                    sums[s] = sums[s] + c * m if s in sums else c * m\n"
          "                neg = not neg\n"),),
        (IMAGE_DET_TEST,),
    ),
    Mutant(
        "_masks' reach pass skipping each column's first nonzero row",
        MATRIX,
        (("        rows = [i for i, e in enumerate(column) if e]\n",
          "        rows = [i for i, e in enumerate(column) if e][1:]\n"),),
        (IMAGE_DET_TEST, LAPLACE_TEST),
    ),
    Mutant(
        "the reach seeded from the full mask only",
        MATRIX,
        (("    level = {full} if m == n else {full ^ 1 << i for i in range(n)}\n",
          "    level = {full}\n"),),
        (LAPLACE_TEST, f"{BODY_INVERSE}::test_bodies_polynomial_in_t_match_the_oracle"),
    ),
    Mutant(
        "_laplace advancing the sign only past nonzero entries",
        MATRIX,
        (("                pairs.append((-e if neg else e, minors[mask ^ low]))\n"
          "            neg = not neg\n",
          "                pairs.append((-e if neg else e, minors[mask ^ low]))\n"
          "                neg = not neg\n"),),
        (LAPLACE_TEST, ONE_SUM_LAPLACE_TEST),
    ),
    Mutant(
        "_body_inverse's cofactor without its sign (-1)^(i+j)",
        MATRIX,
        (COFACTOR_SIGN,),
        (f"{BODY_INVERSE}::test_bodies_polynomial_in_t_match_the_oracle",),
    ),
    Mutant(
        "a body that is not constant refused only after cofactor pass 0",
        MATRIX,
        (("    d = _det(ctx, body)\n",
          "    minors = _laplace(ctx, [row[1:] for row in body])\n"
          "    d = _det(ctx, body)\n"),),
        (f"{BODY_INVERSE}::test_a_body_that_is_not_constant_or_zero_is_refused_before_any_pass",),
    ),
    Mutant(
        "the cofactor pass with column i moved last",
        MATRIX,
        (("[[*row[:i], *row[i + 1:]] for row in body]",
          "[[*row[:i], *row[i + 1:], row[i]] for row in body]"),),
        (f"{BODY_INVERSE}::test_bodies_polynomial_in_t_match_the_oracle",),
    ),
    Mutant(
        # ROADMAP item 35 as first designed: pass 0 fills only the masks
        # its reach takes, so on a sparse body pass i reads unfilled slots
        "pass i seeded with pass 0's minors, filling only masks of more than n - 1 - i rows",
        MATRIX,
        (("def _laplace(ctx, grid):\n",
          "def _laplace(ctx, grid, seed=None, above=0):\n"),
         ("    minors = [SuperPoly.scalar(ctx, 1)] * (1 << n)\n    for mask in _masks(n, cols):\n",
          "    minors = [SuperPoly.scalar(ctx, 1)] * (1 << n) if seed is None else list(seed)\n"
          "    for mask in _masks(n, cols):\n"
          "        if mask.bit_count() <= above:\n"
          "            continue\n"),
         ("    inverse = []\n    for i in range(n):\n"
          "        minors = _laplace(ctx, [[*row[:i], *row[i + 1:]] for row in body])\n",
          "    inverse = []\n    first = _laplace(ctx, [row[1:] for row in body])\n"
          "    for i in range(n):\n"
          "        minors = _laplace(ctx, [[*row[:i], *row[i + 1:]] for row in body],\n"
          "                          first, n - 1 - i) if i else first\n")),
        (f"{BODY_INVERSE}::test_a_body_with_a_sparse_second_column_matches_the_oracle",),
    ),
    # -- constant bodies: one elimination of [B | I] (linalg._inverse) -----
    Mutant(
        "_inverse's pivot check accepting a rank-deficient body",
        LINALG,
        (("    if pivots != list(range(n)):\n", "    if len(pivots) < n:\n"),),
        (f"{BODY_INVERSE}::test_rank_deficient_constant_bodies_are_refused",
         f"{BODY_INVERSE}::test_a_singular_constant_block_is_not_inverted"),
    ),
    Mutant(
        "_inverse reading every row over the first row's pivot",
        LINALG,
        (INVERSE_PIVOT,),
        (f"{BODY_INVERSE}::test_dense_constant_bodies_match_the_oracle",
         f"{BODY_INVERSE}::test_rational_constant_bodies_match_elimination"),
    ),
    Mutant(
        "_inverse leaving a negative pivot's sign on the denominator",
        LINALG,
        (("(p := row[i]) > 0", "(p := row[i]) or 1"),),
        (f"{SMALL_BODIES}[Fraction-2]", f"{SMALL_BODIES}[int-3]"),
    ),
    Mutant(
        "a constant body's entries built without their gcd",
        POLY,
        (("        g = gcd(n, d)\n        return cls._raw(", "        g = 1\n        return cls._raw("),),
        (f"{SMALL_BODIES}[int-2]", f"{SMALL_BODIES}[Fraction-3]"),
    ),
    Mutant(
        "the slot enumeration bounded by total + e < D",
        POLY,
        (("for code, shift, total in slots if total + e <= degree]",
          "for code, shift, total in slots if total + e < degree]"),),
        (f"{DET_IMAGE}::test_a_term_at_the_degree_bound_reads_back",),
    ),
    Mutant(
        "_slot_units without the odd term D mod 2 in m and a",
        POLY,
        (("    m = comb(degree + 2, 2) + degree % 2\n", "    m = comb(degree + 2, 2)\n"),
         ("(1, m - degree - degree % 2, m)", "(1, m - degree, m)")),
        (SLOT_FORM_TEST,),
    ),
    Mutant(
        "_slot_units with the unit a + 1",
        POLY,
        (("(1, m - degree - degree % 2, m)", "(1, m - degree - degree % 2 + 1, m)"),),
        (SLOT_FORM_TEST,),
    ),
    Mutant(
        "_slot_units with the unit m - 1",
        POLY,
        (("(1, m - degree - degree % 2, m)", "(1, m - degree - degree % 2, m - 1)"),),
        (SLOT_FORM_TEST,),
    ),
    Mutant(
        "the image rule reading the box in place of the span",
        POLY,
        (("or span * span * nonzero ** 3 >", "or prod([d + 1 for d in box]) ** 2 * nonzero ** 3 >"),),
        (f"{DET_IMAGE}::test_five_variable_sweep_grids_take_the_image_by_their_span",),
    ),
    Mutant(
        "the runs stepping along a unit-1 generator that holds no term",
        POLY,
        (("    g = next((i for i, d in enumerate(box) if d and units[i] == 1), None)\n",
          "    g = next((i for i, d in enumerate(box) if units[i] == 1), None)\n"),),
        (f"{DET_IMAGE}::test_a_leading_generator_with_no_term_leaves_the_runs_to_the_next",),
    ),
    Mutant(
        "a run built without its row's scale L_r / den",
        POLY,
        (("            out.append(tuple([(v * k, s) for s, v in runs.items() if v]) or 0)\n",
          "            out.append(tuple([(v, s) for s, v in runs.items() if v]) or 0)\n"),),
        (f"{DET_IMAGE}::test_fraction_grids_match_the_polynomial_expansion",),
    ),
    Mutant(
        "an entry whose runs all cancel left the empty tuple, not the int 0",
        POLY,
        (("            out.append(tuple([(v * k, s) for s, v in runs.items() if v]) or 0)\n",
          "            out.append(tuple([(v * k, s) for s, v in runs.items() if v]))\n"),),
        (f"{DET_IMAGE}::test_a_run_that_cancels_leaves_the_int_zero",),
    ),
    # -- the Schur complement [1 | b d^-1] [a; -c] -------------------------
    Mutant(
        "_schur's identity block off the diagonal",
        MATRIX,
        (("zip(_gid(ctx, len(a)), bdinv)", "zip(_gid(ctx, len(a))[::-1], bdinv)"),),
        SCHUR_TESTS,
    ),
    Mutant(
        "_schur with -c left unnegated",
        MATRIX,
        (("_gmul(ctx, left, a + _gneg(c))", "_gmul(ctx, left, a + c)"),),
        SCHUR_TESTS,
    ),
    # -- the "matrices" identity surface alone -----------------------------
    Mutant(
        "_body_inverse's cofactor without its sign, against the matrices surface",
        MATRIX,
        (COFACTOR_SIGN,),
        (MATRICES_TEST,),
    ),
    Mutant(
        "_inverse reading every row over the first row's pivot, against the matrices surface",
        LINALG,
        (INVERSE_PIVOT,),
        (MATRICES_TEST,),
    ),
    Mutant(
        "_schur with -c left unnegated, against the matrices surface",
        MATRIX,
        (("_gmul(ctx, left, a + _gneg(c))", "_gmul(ctx, left, a + c)"),),
        (MATRICES_TEST,),
    ),
    # -- one power routine: ** squares (poly._power) -----------------------
    Mutant(
        "** multiplying linearly from the unit",
        POLY,
        (("        return _power(self, _cap_exponent(n)) if n else SuperPoly.scalar(self.ctx, 1)\n",
          "        _cap_exponent(n)\n"
          "        out = SuperPoly.scalar(self.ctx, 1)\n"
          "        for _ in range(n):\n"
          "            out = out * self\n"
          "            if not out.nums:\n"
          "                break\n"
          "        return out\n"),),
        ("tests/test_poly.py::TestMul::test_a_power_squares",),
    ),
    # -- substitution plans, one memo per context (poly._substitution_plan) -
    Mutant(
        "one module-level plan memo keyed by code alone",
        POLY,
        (("_SWAP_PARITY = _Memo(_swap_parity)\n", "_SWAP_PARITY = _Memo(_swap_parity)\n_PLANS = {}\n"),
         ("            first, middle, last = plans[code]\n",
          "            first, middle, last = _PLANS.setdefault(code, plans[code])\n")),
        (f"{SUBSTITUTE_TESTS}::test_one_code_is_planned_per_context",),
    ),
    Mutant(
        "head and last keys swapped for two-factor terms",
        POLY,
        (("    return keys[0] if len(keys) > 1 else None,",
          "    if len(keys) == 2:\n"
          "        return keys[1], (), keys[0]\n"
          "    return keys[0] if len(keys) > 1 else None,"),),
        (f"{SUBSTITUTE_TESTS}::test_cold_and_warm_plans_give_the_same_pullbacks",
         f"{SUBSTITUTE_TESTS}::test_one_code_is_planned_per_context"),
    ),
    Mutant(
        "the middle keys dropped for terms of three factors or more",
        POLY,
        (("None, tuple(keys[1:-1]), keys[-1]", "None, (), keys[-1]"),),
        (f"{SUBSTITUTE_TESTS}::test_a_cached_plan_still_stops_at_a_vanished_head",
         f"{SUBSTITUTE_TESTS}::test_cold_and_warm_plans_give_the_same_pullbacks"),
    ),
    Mutant(
        "a plan memo whose function holds its context",
        POLY,
        (("_Memo(partial(_substitution_plan, self._shift))",
          "_Memo(lambda code: _substitution_plan(self._shift, code))"),),
        ("tests/test_context.py::test_a_dropped_context_that_substituted_dies_without_the_collector",),
    ),
    # -- the left partial of a packed row (poly._packed_partial) -----------
    Mutant(
        "_packed_partial's odd front mask without the shift by w",
        POLY,
        (("        front = bit - low\n", "        front = bit - (1 << ctx._shift)\n"),),
        ("tests/test_enumeration.py::test_derivations_differentiate_each_column_of_a_packed_row",
         "tests/test_derivation_model.py::test_bracket_is_the_graded_commutator",
         "tests/test_derivation_reference.py::test_bracket_matches_the_reference"),
    ),
    Mutant(
        "_packed_partial's even field read without w",
        POLY,
        (("        shift = _FIELD_BITS * idx + w\n", "        shift = _FIELD_BITS * idx\n"),),
        ("tests/test_enumeration.py::test_derivations_differentiate_each_column_of_a_packed_row",
         "tests/test_derivation_model.py::test_bracket_with_an_even_generator_is_the_graded_commutator"),
    ),
    # -- Koszul signs that coordinate invariance sees -----------------------
    Mutant(
        "the left partial without its odd sign",
        POLY,
        (("acc[key ^ bit] = -c if (key & front).bit_count() & 1 else c", "acc[key ^ bit] = c"),),
        ("tests/test_invariance.py::test_coordinate_distributions_stay_integrable",
         "tests/test_invariance.py::test_verdicts_never_swap"),
    ),
    Mutant(
        "bracket taking its second side with both_odd",
        "src/supergeom/derivation.py",
        (("(d2, d1, 1 if both_odd else -1)", "(d2, d1, -1 if both_odd else 1)"),),
        ("tests/test_invariance.py::test_coordinate_distributions_stay_integrable",
         "tests/test_invariance.py::test_verdicts_never_swap"),
    ),
    # -- the group layer reads mu alone (groups._at_unit) -------------------
    Mutant(
        "_at_unit putting its unit images on rest in place of group",
        "src/supergeom/groups.py",
        (("law._unit_value(n, target) for s, n in zip(group, law.coords.names)",
          "law._unit_value(n, target) for s, n in zip(rest, law.coords.names)"),),
        ("tests/test_groups.py::test_fields_read_the_unit_where_mu_is_not_linear_in_a_factor",
         "tests/test_gl_livf.py::test_brackets_are_left_invariant_fields_of_their_value_at_the_unit",
         "tests/test_rename_shift.py::test_the_group_layer_renames_by_shifts_only"),
    ),
    # -- involutive decides each bracket as it takes it ---------------------
    Mutant(
        "involutive taking its pivots before the loop",
        "src/supergeom/distribution.py",
        (("    chosen = None\n    for x, y in chain(",
          """    grid = tuple(f.coefficients() for f in fields)
    chosen = _pivot_columns(grid)
    if chosen is None:
        return Involutivity.INDETERMINATE
    t0 = tuple(tuple(row[c] for c in chosen) for row in grid)
    normalized = _gmul(ctx, _grid_inverse(ctx, t0, "pivot submatrix"), grid)
    for x, y in chain("""),),
        ("tests/test_distribution.py::TestEdges::test_thirteen_coordinate_fields_normalize_nothing",
         "tests/test_distribution.py::TestEdges::test_a_lone_even_field_takes_only_its_zero_self_bracket"),
    ),
    # -- the matrix operations on elementary supermatrices ------------------
    Mutant(
        "supertranspose of an even matrix with the sign on T3, not T2",
        MATRIX,
        (("                    if j < r and i >= p:\n", "                    if j >= r and i < p:\n"),),
        ("tests/test_elementary.py::test_every_basis_matrix_transposes_and_traces_by_the_model",),
    ),
    Mutant(
        "superbracket without its odd-odd sign",
        MATRIX,
        ((SUPERBRACKET_ROW, "    left = _gblocks(a.rows, _gneg(b.rows), (), ())\n"),),
        ("tests/test_elementary.py::test_every_pair_of_basis_matrices_multiplies_and_brackets_by_the_model",),
    ),
    # -- sums of two products as one grid product ----------------------------
    Mutant(
        "superbracket with the odd-odd sign flipped",
        MATRIX,
        ((SUPERBRACKET_ROW,
          "    left = _gblocks(a.rows, _gneg(b.rows) if odd else b.rows, (), ())\n"),),
        (ONE_SUM_BRACKET_TEST, "tests/test_matrix.py::TestSuperbracket::test_even_even_is_commutator"),
    ),
    Mutant(
        "superbracket's block column in the wrong order, [a; b]",
        MATRIX,
        (("    rows = _gmul(a.ctx, left, b.rows + a.rows)\n",
          "    rows = _gmul(a.ctx, left, a.rows + b.rows)\n"),),
        (ONE_SUM_BRACKET_TEST,
         "tests/test_elementary.py::test_every_pair_of_basis_matrices_multiplies_and_brackets_by_the_model"),
    ),
    Mutant(
        "OSp's block row built from X in place of X^st",
        "src/supergeom/liealg.py",
        (("_gblocks(x.supertranspose().rows, phi, (), ())", "_gblocks(x.rows, phi, (), ())"),),
        ("tests/test_one_sum.py::test_osp_constraints_are_one_grid_product",
         "tests/test_liealg.py::test_osp_agrees_with_direct_expansion"),
    ),
    Mutant(
        "supertrace of an odd matrix as top - bot",
        MATRIX,
        (("return top + bot if self.parity is Parity.ODD else top - bot", "return top - bot"),),
        ("tests/test_elementary.py::test_every_basis_matrix_transposes_and_traces_by_the_model",),
    ),
    # -- the print key: one int per monomial (poly._monomial_text) -----------
    Mutant(
        "the print key with the even exponents in reversed significance",
        POLY,
        (("        key = key << _FIELD_BITS | _FIELD_MASK - e\n",
          "        key |= _FIELD_MASK - e << _FIELD_BITS * even.index(name)\n"),),
        (f"{PRINT}::test_keys_order_odd_words_crossed_with_even_parts", PRINTER_TEST),
    ),
    Mutant(
        "the print key without minus the degree",
        POLY,
        (("    key = (key - (degree << shift)) << q\n", "    key <<= q\n"),),
        (f"{PRINT}::test_keys_order_odd_words_crossed_with_even_parts", PRINTER_TEST,
         f"{PRINT}::test_order_is_by_degree_before_exponents"),
    ),
    Mutant(
        "the odd word's rank taken from its first index, not its last",
        POLY,
        ((WORD_RANK, WORD_RANK.replace("word[-1]", "word[0]")),),
        (f"{PRINT}::test_keys_order_every_odd_word", PRINTER_TEST),
    ),
    Mutant(
        "the odd word's rank without its length term",
        POLY,
        ((WORD_RANK, WORD_RANK.replace("len(word) + ", "")),),
        # a word and its extension by the next index tie, and a sort by
        # (key, text) breaks the tie as the rank would, so only the
        # distinct-keys check sees it
        (f"{PRINT}::test_keys_order_every_odd_word",),
    ),
    # -- the term view and serialize's way back to codes -------------------
    Mutant(
        "the term view reading the odd word without >> shift",
        POLY,
        (("out[_Term(_unpack(code & low), _odd_word(code >> shift))] = c",
          "out[_Term(_unpack(code & low), _odd_word(code))] = c"),),
        (JSON_TEST,
         "tests/test_packing.py::test_code_round_trips_to_the_monomial[3-6]"),
    ),
    Mutant(
        "_poly_load's repeat check keyed on the even part only",
        "src/supergeom/serialize.py",
        (("        if mono in coeffs:\n", "        if mono[0] in [m[0] for m in coeffs]:\n"),),
        (JSON_TEST,),
    ),
    Mutant(
        "_from_terms packing exponent i at i * (_FIELD_BITS - 1)",
        POLY,
        (("sum([e << _FIELD_BITS * i for i, e in even])",
          "sum([e << (_FIELD_BITS - 1) * i for i, e in even])"),),
        (JSON_TEST,
         "tests/test_serialize.py::test_poly_roundtrip_random"),
    ),
    # -- fraction-free elimination (linalg._eliminate_ints) ------------------
    Mutant(
        "_eliminate_ints's step without the pivot scaling",
        "src/supergeom/linalg.py",
        (("new = [pv * a - f * b for a, b in zip(row, prow)]",
          "new = [a - f * b for a, b in zip(row, prow)]"),),
        ("tests/test_acceptance.py::test_criterion_12_rank_against_brute_force",),
    ),
    # -- script errors: the parser names the column, run_script the line -----
    Mutant(
        "ScriptError without its column prefix",
        "src/supergeom/errors.py",
        (('            message = f"column {col}: {message}"\n', ""),
         ("        if col is not None:\n", "")),
        ("tests/test_parse.py::test_each_error_message_has_its_column",
         "tests/test_script_errors.py::test_each_error_path_reports_its_line"),
    ),
    Mutant(
        "run_script writing ': ' before a column",
        "src/supergeom/script.py",
        (('sep = ", " if', 'sep = ": " if'),),
        ("tests/test_script_errors.py::test_each_error_path_reports_its_line",
         "tests/test_cli.py::test_a_line_with_several_faults_reports_the_first"),
    ),
)
